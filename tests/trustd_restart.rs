//! Crash-recovery regression: a trustd restarted from snapshot + journal
//! must be indistinguishable from the server that never went down —
//! same profile epochs, byte-identical verdicts — including after a torn
//! final journal record.

use tangled_mass::analysis::Study;
use tangled_mass::intercept::origin::OriginServers;
use tangled_mass::intercept::policy::Target;
use tangled_mass::pki::stores::ReferenceStore;
use tangled_mass::snap::{write_study, Journal, SectionId, Snapshot, TrustState};
use tangled_mass::trustd::replay::canonical;
use tangled_mass::trustd::wire::{Request, Response};
use tangled_mass::trustd::{
    degraded_index_from_snapshot, index_from_chain, index_from_snapshot, offline_verdicts,
    queries_for, replay, replay_journal, verdict_fingerprint, EventServer, ReplayOp, ReplaySpec,
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

#[test]
fn restart_from_snapshot_and_journal_is_indistinguishable() {
    let dir = TestDir::new("indistinguishable");
    let snap_path = dir.path("study.snap");
    let journal_path = dir.path("swaps.jrn");

    // A study snapshot carries the reference profiles trustd warms from.
    let study = Study::new(0.05, 0.02);
    write_study(&study, &snap_path).expect("snapshot writes");

    // Server A: warm start, journal attached, then two swaps.
    let index = index_from_snapshot(&snap_path).expect("warm start");
    assert_eq!(index.current_epoch(), 10, "ten standard preloads");
    let a = TrustService::with_index(index, 256);
    let (journal, records, recovery) = Journal::open(&journal_path).expect("fresh journal");
    assert!(records.is_empty() && !recovery.truncated);
    a.attach_journal(journal);

    // Swap 1: overlay AOSP 4.4 with the Mozilla store. Swap 2: install a
    // trimmed store under a brand-new profile name.
    let mozilla = ReferenceStore::Mozilla.cached();
    let e1 = swap_epoch(&a.handle(&Request::Swap {
        profile: "AOSP 4.4".into(),
        snapshot: mozilla.snapshot(),
    }));
    let mut trimmed = ReferenceStore::Aosp44.cached().cloned_as("trimmed");
    let drop_id = trimmed.identities()[0].clone();
    trimmed.remove(&drop_id);
    let e2 = swap_epoch(&a.handle(&Request::Swap {
        profile: "device".into(),
        snapshot: trimmed.snapshot(),
    }));
    assert_eq!((e1, e2), (11, 12), "swap responses report the post-bump epoch");
    let live = verdicts(&a);

    // Server B: fresh process — same snapshot, journal replayed.
    let index = index_from_snapshot(&snap_path).expect("warm start");
    let (journal, records, recovery) = Journal::open(&journal_path).expect("journal reopens");
    assert!(!recovery.truncated);
    assert_eq!(
        records.iter().map(|r| r.epoch).collect::<Vec<_>>(),
        vec![11, 12],
        "journal frames carry the epochs the swaps reported"
    );
    replay_journal(&index, &records).expect("replay");
    let b = TrustService::with_index(index, 256);
    b.attach_journal(journal);

    assert_eq!(b.index().current_epoch(), a.index().current_epoch());
    for profile in ["AOSP 4.4", "device", "Mozilla"] {
        assert_eq!(
            b.index().profile(profile).map(|p| p.epoch),
            a.index().profile(profile).map(|p| p.epoch),
            "epoch of '{profile}' diverged across restart"
        );
    }
    assert_eq!(verdicts(&b), live, "restarted server serves different verdicts");

    // The restarted server keeps journalling: one more swap lands on the
    // next epoch in both the response and the log.
    let e3 = swap_epoch(&b.handle(&Request::Swap {
        profile: "device".into(),
        snapshot: mozilla.snapshot(),
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
    let a = TrustService::with_index(index_from_snapshot(&snap_path).expect("warm"), 256);
    let (journal, _, _) = Journal::open(&journal_path).expect("fresh journal");
    a.attach_journal(journal);
    let mozilla = ReferenceStore::Mozilla.cached();
    a.handle(&Request::Swap {
        profile: "AOSP 4.4".into(),
        snapshot: mozilla.snapshot(),
    });
    // Verdicts as of epoch 11 — what a restart must reproduce.
    let after_first = verdicts(&a);
    a.handle(&Request::Swap {
        profile: "device".into(),
        snapshot: ReferenceStore::Ios7.cached().snapshot(),
    });
    drop(a);
    let data = std::fs::read(&journal_path).unwrap();
    std::fs::write(&journal_path, &data[..data.len() - 33]).unwrap();

    // Restart: the torn frame is truncated, the first swap survives.
    let index = index_from_snapshot(&snap_path).expect("warm start");
    let (journal, records, recovery) = Journal::open(&journal_path).expect("recovery");
    assert!(recovery.truncated, "the torn tail must be detected");
    assert_eq!(records.len(), 1, "only the fsync'd swap survives");
    replay_journal(&index, &records).expect("replay");
    let b = TrustService::with_index(index, 256);
    b.attach_journal(journal);

    assert_eq!(b.index().current_epoch(), 11);
    assert!(
        b.index().profile("device").is_none(),
        "the torn swap never happened"
    );
    assert_eq!(
        verdicts(&b),
        after_first,
        "recovered server must match the epoch-11 state"
    );
}

/// Acceptance for the disparity serving path: `compare` replies match
/// the offline per-chain verdict vectors exactly — over a live TCP
/// replay, after a warm start from a snapshot carrying the
/// ecosystem-stores section, and after a *degraded* start whose
/// eco-stores section is corrupted (emulating a pre-disparity
/// snapshot), which regenerates the ecosystem profiles cold.
#[test]
fn compare_replies_match_offline_vectors_across_warm_and_degraded_starts() {
    let dir = TestDir::new("compare");
    let snap_path = dir.path("study.snap");
    let study = Study::new(0.05, 0.02);
    write_study(&study, &snap_path).expect("snapshot writes");

    let spec = ReplaySpec::new(2014, 60).with_op(ReplayOp::Compare);
    let offline = offline_verdicts(&spec);
    let requests = queries_for(&spec);

    // Live TCP replay against a cold server.
    let service = std::sync::Arc::new(TrustService::new(DEFAULT_CACHE_CAPACITY));
    let server =
        EventServer::bind("127.0.0.1:0", std::sync::Arc::clone(&service), 2).expect("bind");
    let outcome = replay(server.local_addr(), &spec).expect("replay");
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
    let warm = TrustService::with_index(index_from_snapshot(&snap_path).expect("warm"), 256);
    let warm_verdicts: Vec<String> = requests
        .iter()
        .map(|r| canonical(&warm.handle(r)))
        .collect();
    assert_eq!(warm_verdicts, offline, "warm-started compare vectors diverge");

    // Corrupt the eco-stores section: the strict warm start refuses, the
    // degraded start quarantines it and regenerates the four ecosystem
    // profiles cold — with identical verdict vectors either way.
    let snap = Snapshot::open(&snap_path).expect("open");
    let pos = SectionId::ALL
        .iter()
        .position(|id| id.name() == "eco-stores")
        .expect("eco-stores section");
    let entry = &snap.entries()[pos];
    let offset = entry.offset as usize + (entry.len as usize) / 2;
    drop(snap);
    let mut bytes = std::fs::read(&snap_path).expect("read");
    bytes[offset] ^= 0x20;
    std::fs::write(&snap_path, &bytes).expect("corrupt");

    assert!(
        index_from_snapshot(&snap_path).is_err(),
        "strict warm start must refuse a damaged eco-stores section"
    );
    let start = degraded_index_from_snapshot(&snap_path).expect("degraded start");
    assert!(start.fallback, "eco damage forces the cold fallback");
    assert!(
        start
            .quarantined
            .iter()
            .any(|(unit, _)| unit == "eco-stores"),
        "quarantine must name the eco-stores section: {:?}",
        start.quarantined
    );
    let deg = TrustService::with_index(start.index, 256);
    let deg_verdicts: Vec<String> = requests
        .iter()
        .map(|r| canonical(&deg.handle(r)))
        .collect();
    assert_eq!(deg_verdicts, offline, "degraded-start compare vectors diverge");
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
    let base = std::fs::read(&snap_path).expect("snapshot bytes");

    // Two live servers take the same three swaps; one compacts after
    // every append (threshold 1 byte), the other journals unboundedly.
    let compacting = TrustService::with_index(index_from_snapshot(&snap_path).expect("warm"), 256);
    let (journal, _, _) = Journal::open(&compacted_journal).expect("fresh journal");
    compacting.attach_journal(journal);
    compacting.configure_compaction(
        format!("{compacted_journal}.ckpt"),
        1,
        Some(base),
        TrustState::default(),
    );
    let plain = TrustService::with_index(index_from_snapshot(&snap_path).expect("warm"), 256);
    let (journal, _, _) = Journal::open(&plain_journal).expect("fresh journal");
    plain.attach_journal(journal);

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
    assert_eq!(compacting.compactions(), 3, "threshold 1 compacts every swap");
    drop(compacting);
    drop(plain);

    // The compacted journal is back to its bare magic: recovery no
    // longer pays for the full history.
    let (journal, tail, _) = Journal::open(&compacted_journal).expect("reopen");
    assert!(tail.is_empty(), "compaction must truncate the journal");
    assert_eq!(journal.size(), 8, "bare magic only");
    drop(journal);

    // Restart 1: snapshot + checkpoint chain, then the (empty) tail.
    let chain = vec![snap_path.clone(), format!("{compacted_journal}.ckpt")];
    let start = index_from_chain(&chain).expect("chain warm start");
    let state = start.state.expect("checkpoint carries a trust-state");
    assert_eq!(state.epoch, 13);
    assert_eq!(
        state.records.iter().map(|r| r.profile.as_str()).collect::<Vec<_>>(),
        vec!["device", "AOSP 4.4"],
        "fold keeps the last swap per profile in epoch order"
    );
    let (_, tail, _) = Journal::open(&compacted_journal).expect("reopen");
    replay_journal(&start.index, &tail).expect("tail replay");
    let from_ckpt = TrustService::with_index(start.index, 256);

    // Restart 2: the same snapshot with the full journal replayed.
    let index = index_from_snapshot(&snap_path).expect("warm");
    let (_, records, _) = Journal::open(&plain_journal).expect("reopen");
    assert_eq!(records.len(), 3, "uncompacted journal holds the history");
    replay_journal(&index, &records).expect("replay");
    let from_journal = TrustService::with_index(index, 256);

    assert_eq!(from_ckpt.index().current_epoch(), 13);
    assert_eq!(from_journal.index().current_epoch(), 13);
    for profile in ["AOSP 4.4", "device", "Mozilla"] {
        assert_eq!(
            from_ckpt.index().profile(profile).map(|p| p.epoch),
            from_journal.index().profile(profile).map(|p| p.epoch),
            "epoch of '{profile}' diverged between recovery paths"
        );
    }
    let ckpt_verdicts = verdicts(&from_ckpt);
    assert_eq!(
        ckpt_verdicts,
        verdicts(&from_journal),
        "compacted and uncompacted recovery serve different verdicts"
    );
    assert_eq!(ckpt_verdicts, live, "recovered servers diverge from the live one");
}
