//! Crash-recovery regression: a trustd restarted from snapshot + journal
//! must be indistinguishable from the server that never went down —
//! same profile epochs, byte-identical verdicts — including after a torn
//! final journal record, after compaction, and after a degraded warm
//! start. Every server here is built by `trustd::start`, the function
//! `tangled serve` calls.

use tangled_mass::analysis::Study;
use tangled_mass::intercept::origin::OriginServers;
use tangled_mass::intercept::policy::Target;
use tangled_mass::pki::stores::ReferenceStore;
use tangled_mass::snap::container::assemble;
use tangled_mass::snap::{read_checkpoint, write_study, Journal, SectionId, Snapshot};
use tangled_mass::trustd::replay::{canonical, compare_queries};
use tangled_mass::trustd::wire::{Request, Response};
use tangled_mass::trustd::{
    drive, offline_verdicts, start, verdict_fingerprint, EventServer, Link, ReplaySpec, Started,
    TrustService, DEFAULT_CACHE_CAPACITY,
};

/// A per-run unique scratch directory, removed on drop (even when the
/// test body panics). Uniqueness comes from pid *and* a wall-clock
/// nanosecond stamp: a bare `{tag}-{pid}` name under a shared dir
/// survives the run and is replayed as stale state when the OS reuses
/// the pid.
struct TestDir(std::path::PathBuf);

impl TestDir {
    fn new(tag: &str) -> TestDir {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock after epoch")
            .as_nanos();
        let dir = std::env::temp_dir().join(format!(
            "tangled-restart-{tag}-{}-{nanos}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        TestDir(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for TestDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn origin_chain(host: &str) -> Vec<Vec<u8>> {
    let origin = OriginServers::for_table6();
    let t = Target::parse(host).expect("valid target");
    origin
        .chain(&t)
        .expect("table 6 target")
        .iter()
        .map(|c| c.to_der().to_vec())
        .collect()
}

/// The probe requests both servers answer; chains repeat so the memo
/// cache participates on both sides.
fn probe_requests() -> Vec<Request> {
    let mut reqs = Vec::new();
    for profile in ["AOSP 4.4", "AOSP 4.1", "Mozilla", "device"] {
        for host in ["gmail.com:443", "www.chase.com:443", "gmail.com:443"] {
            reqs.push(Request::Validate {
                profile: profile.into(),
                chain: origin_chain(host),
            });
        }
    }
    reqs
}

fn verdicts(svc: &TrustService) -> Vec<String> {
    probe_requests()
        .iter()
        .map(|r| canonical(&svc.handle(r)))
        .collect()
}

fn swap_epoch(resp: &Response) -> u64 {
    match resp {
        Response::Swap { epoch, .. } => *epoch,
        other => panic!("expected a swap response, got {other:?}"),
    }
}

/// Start a server the way `tangled serve` does.
fn serve(snapshot: &str, journal: Option<&str>, compact_threshold: Option<u64>) -> Started {
    start(Some(snapshot), journal, compact_threshold).expect("start")
}

/// Flip bits in the middle of one section's body, in place.
fn corrupt_section(path: &str, name: &str, mask: u8) {
    let snap = Snapshot::open(path).expect("open");
    let pos = SectionId::ALL
        .iter()
        .position(|id| id.name() == name)
        .expect("known section");
    let entry = &snap.entries()[pos];
    let offset = entry.offset as usize + (entry.len as usize) / 2;
    drop(snap);
    let mut bytes = std::fs::read(path).expect("read");
    bytes[offset] ^= mask;
    std::fs::write(path, &bytes).expect("corrupt");
}

/// The `(section, error)` pairs a service's `stats` reply lists under
/// `warm.quarantined`.
fn quarantined(svc: &TrustService) -> Vec<(String, String)> {
    svc.stats_document()["warm"]["quarantined"]
        .as_array()
        .expect("quarantine list")
        .iter()
        .map(|q| {
            (
                q["section"].as_str().expect("section").to_owned(),
                q["error"].as_str().expect("error").to_owned(),
            )
        })
        .collect()
}

/// Two swaps every restart scenario replays: overlay AOSP 4.4 with the
/// Mozilla store, then install a trimmed store under a brand-new profile
/// name. Returns the epochs the swap replies reported.
fn two_swaps(svc: &TrustService) -> (u64, u64) {
    let e1 = swap_epoch(&svc.handle(&Request::Swap {
        profile: "AOSP 4.4".into(),
        snapshot: ReferenceStore::Mozilla.cached().snapshot(),
    }));
    let mut trimmed = ReferenceStore::Aosp44.cached().cloned_as("trimmed");
    let drop_id = trimmed.identities()[0].clone();
    trimmed.remove(&drop_id);
    let e2 = swap_epoch(&svc.handle(&Request::Swap {
        profile: "device".into(),
        snapshot: trimmed.snapshot(),
    }));
    (e1, e2)
}

/// The restarted server `b` serves `a`'s epochs and `live` verdicts.
fn assert_same_server(b: &TrustService, a_epochs: &[(String, Option<u64>)], live: &[String]) {
    for (profile, epoch) in a_epochs {
        assert_eq!(
            b.index().profile(profile).map(|p| p.epoch),
            *epoch,
            "epoch of '{profile}' diverged across restart"
        );
    }
    assert_eq!(
        verdicts(b),
        live,
        "restarted server serves different verdicts"
    );
}

fn epochs(svc: &TrustService) -> Vec<(String, Option<u64>)> {
    ["AOSP 4.4", "device", "Mozilla", "Apple"]
        .iter()
        .map(|p| (p.to_string(), svc.index().profile(p).map(|p| p.epoch)))
        .collect()
}

#[test]
fn restart_from_snapshot_and_journal_is_indistinguishable() {
    let dir = TestDir::new("indistinguishable");
    let snap_path = dir.path("study.snap");
    let journal_path = dir.path("swaps.jrn");

    // A study snapshot carries the reference profiles trustd warms from.
    let study = Study::new(0.05, 0.02);
    write_study(&study, &snap_path).expect("snapshot writes");

    // Server A: warm start, journal attached, then two swaps.
    let a = serve(&snap_path, Some(&journal_path), None);
    assert_eq!(
        a.service.index().current_epoch(),
        10,
        "ten standard preloads"
    );
    assert_eq!(
        a.notes.last().map(String::as_str),
        Some("journal: replayed 0 swap(s); epoch 10"),
        "a fresh journal replays nothing"
    );
    assert_eq!(
        two_swaps(&a.service),
        (11, 12),
        "swap responses report the post-bump epoch"
    );
    let live = verdicts(&a.service);

    let (_, records, recovery) = Journal::open(&journal_path).expect("journal reopens");
    assert!(!recovery.truncated);
    assert_eq!(
        records.iter().map(|r| r.epoch).collect::<Vec<_>>(),
        vec![11, 12],
        "journal frames carry the epochs the swaps reported"
    );

    // Server B: fresh process — same snapshot, journal replayed.
    let b = serve(&snap_path, Some(&journal_path), None);
    assert_eq!(
        b.notes.last().map(String::as_str),
        Some("journal: replayed 2 swap(s); epoch 12")
    );
    assert_eq!(
        b.service.index().current_epoch(),
        a.service.index().current_epoch()
    );
    assert_same_server(&b.service, &epochs(&a.service), &live);

    // The restarted server keeps journalling: one more swap lands on the
    // next epoch in both the response and the log.
    let e3 = swap_epoch(&b.service.handle(&Request::Swap {
        profile: "device".into(),
        snapshot: ReferenceStore::Mozilla.cached().snapshot(),
    }));
    assert_eq!(e3, 13);
    let (_, records, _) = Journal::open(&journal_path).expect("journal reopens");
    assert_eq!(records.last().map(|r| r.epoch), Some(13));
}

#[test]
fn torn_final_record_recovers_to_the_previous_swap() {
    let dir = TestDir::new("torn");
    let snap_path = dir.path("study.snap");
    let journal_path = dir.path("swaps.jrn");

    let study = Study::new(0.05, 0.02);
    write_study(&study, &snap_path).expect("snapshot writes");

    // Server A performs two swaps, then "crashes" mid-append: we simulate
    // the torn write by chopping bytes off the second frame.
    let a = serve(&snap_path, Some(&journal_path), None);
    a.service.handle(&Request::Swap {
        profile: "AOSP 4.4".into(),
        snapshot: ReferenceStore::Mozilla.cached().snapshot(),
    });
    // Verdicts as of epoch 11 — what a restart must reproduce.
    let after_first = verdicts(&a.service);
    a.service.handle(&Request::Swap {
        profile: "device".into(),
        snapshot: ReferenceStore::Ios7.cached().snapshot(),
    });
    drop(a);
    let data = std::fs::read(&journal_path).unwrap();
    std::fs::write(&journal_path, &data[..data.len() - 33]).unwrap();

    // Restart: the torn frame is truncated, the first swap survives.
    let b = serve(&snap_path, Some(&journal_path), None);
    assert!(
        b.notes
            .iter()
            .any(|n| n.starts_with("journal: truncated a torn final record")),
        "the torn tail must be detected: {:?}",
        b.notes
    );
    assert_eq!(
        b.notes.last().map(String::as_str),
        Some("journal: replayed 1 swap(s); epoch 11"),
        "only the fsync'd swap survives"
    );
    assert_eq!(b.service.index().current_epoch(), 11);
    assert!(
        b.service.index().profile("device").is_none(),
        "the torn swap never happened"
    );
    assert_eq!(
        verdicts(&b.service),
        after_first,
        "recovered server must match the epoch-11 state"
    );
}

/// Acceptance for the disparity serving path: `compare` replies match
/// the offline per-chain verdict vectors exactly — over a live TCP
/// replay, after a warm start from a snapshot carrying the
/// ecosystem-stores section, and after a *degraded* start whose
/// eco-stores section is corrupted, which regenerates the ecosystem
/// profiles cold.
#[test]
fn compare_replies_match_offline_vectors_across_warm_and_degraded_starts() {
    let dir = TestDir::new("compare");
    let snap_path = dir.path("study.snap");
    let study = Study::new(0.05, 0.02);
    write_study(&study, &snap_path).expect("snapshot writes");

    let spec = ReplaySpec::new(2014, 60);
    let requests = compare_queries(&spec);
    let offline = offline_verdicts(&requests);

    // Live TCP replay against a cold server.
    let service = std::sync::Arc::new(TrustService::new(DEFAULT_CACHE_CAPACITY));
    let server =
        EventServer::bind("127.0.0.1:0", std::sync::Arc::clone(&service), 2).expect("bind");
    let link = Link::Clean {
        depth: 1,
        seed: spec.seed,
    };
    let outcome = drive(server.local_addr(), &requests, link).expect("replay");
    server.shutdown();
    assert_eq!(
        outcome.verdicts, offline,
        "served compare vectors diverge from the offline study"
    );
    assert_eq!(
        verdict_fingerprint(&outcome.verdicts),
        verdict_fingerprint(&offline)
    );

    // Warm start from the eco-carrying snapshot: byte-identical replies.
    let warm = serve(&snap_path, None, None);
    assert!(quarantined(&warm.service).is_empty());
    let warm_verdicts: Vec<String> = requests
        .iter()
        .map(|r| canonical(&warm.service.handle(r)))
        .collect();
    assert_eq!(
        warm_verdicts, offline,
        "warm-started compare vectors diverge"
    );

    // Corrupt the eco-stores section: the start quarantines it and
    // regenerates the four ecosystem profiles cold — with identical
    // verdict vectors.
    corrupt_section(&snap_path, "eco-stores", 0x20);
    let deg = serve(&snap_path, None, None);
    assert!(
        deg.notes
            .iter()
            .any(|n| n.contains("serving cold-generated ecosystem profiles")),
        "eco damage forces the cold fallback: {:?}",
        deg.notes
    );
    assert!(
        quarantined(&deg.service)
            .iter()
            .any(|(unit, _)| unit == "eco-stores"),
        "quarantine must name the eco-stores section: {:?}",
        quarantined(&deg.service)
    );
    let deg_verdicts: Vec<String> = requests
        .iter()
        .map(|r| canonical(&deg.service.handle(r)))
        .collect();
    assert_eq!(
        deg_verdicts, offline,
        "degraded-start compare vectors diverge"
    );
}

/// Acceptance for journal compaction: a server restarted from the
/// compacted checkpoint + truncated journal serves verdict-for-verdict
/// identical replies to one restarted from the full uncompacted journal
/// — and both match the server that never went down.
#[test]
fn restart_from_compacted_checkpoint_matches_uncompacted_restart() {
    let dir = TestDir::new("compacted");
    let snap_path = dir.path("study.snap");
    let compacted_journal = dir.path("compacted.jrn");
    let plain_journal = dir.path("plain.jrn");

    let study = Study::new(0.05, 0.02);
    write_study(&study, &snap_path).expect("snapshot writes");

    // Two live servers take the same three swaps; one compacts after
    // every append (threshold 1 byte), the other journals unboundedly.
    let compacting = serve(&snap_path, Some(&compacted_journal), Some(1)).service;
    let plain = serve(&snap_path, Some(&plain_journal), None).service;

    let mozilla = ReferenceStore::Mozilla.cached();
    let mut trimmed = ReferenceStore::Aosp44.cached().cloned_as("trimmed");
    let drop_id = trimmed.identities()[0].clone();
    trimmed.remove(&drop_id);
    let swaps = [
        ("AOSP 4.4", mozilla.snapshot()),
        ("device", trimmed.snapshot()),
        ("AOSP 4.4", ReferenceStore::Ios7.cached().snapshot()),
    ];
    for (profile, snapshot) in &swaps {
        let req = Request::Swap {
            profile: (*profile).into(),
            snapshot: snapshot.clone(),
        };
        assert_eq!(
            swap_epoch(&compacting.handle(&req)),
            swap_epoch(&plain.handle(&req)),
            "live epochs diverge before any restart"
        );
    }
    let live = verdicts(&compacting);
    assert_eq!(verdicts(&plain), live, "the two live servers disagree");
    assert_eq!(
        compacting.compactions(),
        3,
        "threshold 1 compacts every swap"
    );
    drop(compacting);
    drop(plain);

    // The compacted journal is back to its bare magic: recovery no
    // longer pays for the full history.
    let (journal, tail, _) = Journal::open(&compacted_journal).expect("reopen");
    assert!(tail.is_empty(), "compaction must truncate the journal");
    assert_eq!(journal.size(), 8, "bare magic only");
    drop(journal);
    let ckpt = Snapshot::open(&format!("{compacted_journal}.ckpt")).expect("checkpoint");
    let state = read_checkpoint(&ckpt)
        .expect("decodes")
        .expect("checkpoint carries a trust-state");
    assert_eq!(state.epoch, 13);
    assert_eq!(
        state
            .records
            .iter()
            .map(|r| r.profile.as_str())
            .collect::<Vec<_>>(),
        vec!["device", "AOSP 4.4"],
        "fold keeps the last swap per profile in epoch order"
    );

    // Restart 1: snapshot + checkpoint, then the (empty) tail.
    let from_ckpt = serve(&snap_path, Some(&compacted_journal), None);
    assert_eq!(
        from_ckpt.notes[from_ckpt.notes.len() - 2..],
        [
            "checkpoint: folded 2 profile(s); epoch 13",
            "journal: replayed 0 swap(s); epoch 13",
        ]
    );
    let from_ckpt = from_ckpt.service;

    // Restart 2: the same snapshot with the full journal replayed.
    let from_journal = serve(&snap_path, Some(&plain_journal), None);
    assert_eq!(
        from_journal.notes.last().map(String::as_str),
        Some("journal: replayed 3 swap(s); epoch 13"),
        "uncompacted journal holds the history"
    );
    let from_journal = from_journal.service;

    assert_eq!(from_ckpt.index().current_epoch(), 13);
    assert_eq!(from_journal.index().current_epoch(), 13);
    assert_same_server(&from_ckpt, &epochs(&from_journal), &live);
    assert_same_server(&from_journal, &epochs(&from_ckpt), &live);
}

/// A warm start that quarantined a non-store section still compacts:
/// its checkpoints are base-less (the damaged base cannot be re-read
/// section by section), and the restart from that checkpoint serves the
/// live server's epochs and verdicts.
#[test]
fn compaction_after_a_degraded_start_restarts_from_its_checkpoint() {
    let dir = TestDir::new("degraded-compact");
    let snap_path = dir.path("study.snap");
    let journal_path = dir.path("swaps.jrn");
    let ckpt_path = format!("{journal_path}.ckpt");
    write_study(&Study::new(0.05, 0.02), &snap_path).expect("snapshot writes");
    corrupt_section(&snap_path, "validation", 0x40);
    let damage = vec![("validation".to_owned(), "checksum-mismatch".to_owned())];

    let a = serve(&snap_path, Some(&journal_path), Some(1));
    assert_eq!(quarantined(&a.service), damage);
    assert_eq!(two_swaps(&a.service), (11, 12));
    assert_eq!(
        a.service.compactions(),
        2,
        "threshold 1 compacts every swap"
    );
    assert!(
        !a.service
            .stats()
            .counters_fingerprint()
            .contains("quarantined:compact/"),
        "no checkpoint failed"
    );
    let (journal, _, _) = Journal::open(&journal_path).expect("reopen");
    assert_eq!(journal.size(), 8, "compaction truncated the journal");
    drop(journal);
    assert!(std::path::Path::new(&ckpt_path).exists());
    let live = verdicts(&a.service);
    let live_epochs = epochs(&a.service);
    drop(a);

    let b = serve(&snap_path, Some(&journal_path), Some(1));
    assert!(
        b.notes
            .iter()
            .any(|n| n == "checkpoint: folded 2 profile(s); epoch 12"),
        "{:?}",
        b.notes
    );
    assert_eq!(quarantined(&b.service), damage);
    assert_eq!(b.service.index().current_epoch(), 12);
    assert_same_server(&b.service, &live_epochs, &live);
    // The restarted server keeps compacting.
    b.service.handle(&Request::Swap {
        profile: "device".into(),
        snapshot: ReferenceStore::Ios7.cached().snapshot(),
    });
    assert_eq!(b.service.compactions(), 1);
}

/// A pre-disparity snapshot (no `eco-stores` section) degrades to cold
/// ecosystem profiles; once it has compacted, the restart still starts,
/// and still reports the missing section.
#[test]
fn snapshot_without_eco_stores_restarts_after_compaction() {
    let dir = TestDir::new("pre-disparity");
    let full_path = dir.path("full.snap");
    let snap_path = dir.path("pre-disparity.snap");
    let journal_path = dir.path("swaps.jrn");
    write_study(&Study::new(0.05, 0.02), &full_path).expect("snapshot writes");
    let full = Snapshot::open(&full_path).expect("open");
    let sections: Vec<(SectionId, Vec<u8>)> = SectionId::STUDY
        .into_iter()
        .filter(|id| *id != SectionId::EcoStores)
        .map(|id| (id, full.section(id).expect("intact").to_vec()))
        .collect();
    std::fs::write(&snap_path, assemble(&sections)).expect("rebuilt snapshot");

    let a = serve(&snap_path, Some(&journal_path), Some(1));
    assert_eq!(two_swaps(&a.service), (11, 12));
    assert_eq!(a.service.compactions(), 2);
    let live = verdicts(&a.service);
    let live_epochs = epochs(&a.service);
    drop(a);
    assert!(std::path::Path::new(&format!("{journal_path}.ckpt")).exists());

    let b = start(Some(&snap_path), Some(&journal_path), Some(1)).expect("restart succeeds");
    assert!(
        quarantined(&b.service)
            .iter()
            .any(|(unit, _)| unit == "eco-stores"),
        "quarantine must name eco-stores: {:?}",
        quarantined(&b.service)
    );
    assert_eq!(
        b.service.index().profile_names().len(),
        11,
        "ten standard profiles plus the swapped-in 'device'"
    );
    assert_same_server(&b.service, &live_epochs, &live);
}

/// A checkpoint records the snapshot it was written over; restarting it
/// over a different snapshot is refused, not silently mixed.
#[test]
fn checkpoint_over_another_snapshot_is_a_base_mismatch() {
    let dir = TestDir::new("base-mismatch");
    let snap_a = dir.path("a.snap");
    let snap_b = dir.path("b.snap");
    let journal_path = dir.path("swaps.jrn");
    write_study(&Study::new(0.05, 0.02), &snap_a).expect("snapshot A writes");
    write_study(&Study::new(0.04, 0.02), &snap_b).expect("snapshot B writes");

    let a = serve(&snap_a, Some(&journal_path), Some(1));
    two_swaps(&a.service);
    assert_eq!(a.service.compactions(), 2);
    drop(a);

    let err = start(Some(&snap_b), Some(&journal_path), None)
        .err()
        .expect("a checkpoint over A must not start over B");
    assert_eq!(err.error.label(), "base-mismatch");
    assert_eq!(err.path, format!("{journal_path}.ckpt"));
    // Over its own base it starts.
    serve(&snap_a, Some(&journal_path), None);
}
