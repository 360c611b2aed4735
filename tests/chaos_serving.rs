//! Chaos-hardened serving, end to end: the deterministic chaos harness,
//! lossy wire faults over real TCP recovered by the resilient client,
//! admission-control shedding, and degraded-mode warm starts from a
//! damaged snapshot.

use std::sync::Arc;
use tangled_mass::analysis::Study;
use tangled_mass::faults::chaos::WireFaultKind;
use tangled_mass::scenario::{self, ScenarioSpec};
use tangled_mass::snap::{write_study, SectionId, Snapshot};
use tangled_mass::trustd::replay::{population, queries};
use tangled_mass::trustd::{
    chaos, drive, offline_verdicts, start, verdict_fingerprint, ChaosSpec, Connect, EventServer,
    Link, ReplaySpec, Request, ResilientClient, ResilientError, RetryPolicy, ServerConfig,
    TcpConnector, TrustService, DEFAULT_CACHE_CAPACITY,
};
use tangled_mass::trustd::wire::{ChainVerdict, Response};

fn temp_path(tag: &str) -> String {
    let dir = std::env::temp_dir().join("tangled-chaos-serving");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(format!("{tag}-{}.bin", std::process::id()))
        .to_string_lossy()
        .into_owned()
}

/// The acceptance contract for `tangled chaos`: a fixed seed produces a
/// byte-identical ledger across runs, and the conservation invariant
/// holds — every request is answered-correct, shed-with-busy, or
/// failed-with-classified-fault.
#[test]
fn chaos_harness_is_deterministic_and_conserved() {
    let spec = ChaosSpec {
        requests: 60,
        ..ChaosSpec::default()
    };
    let a = chaos::run(&spec);
    let b = chaos::run(&spec);
    assert_eq!(a.ledger, b.ledger, "fixed seed, identical ledger bytes");
    assert!(a.conserved(), "conservation violated:\n{}", a.ledger);
    assert_eq!(a.issued, 60);
    assert!(
        !a.fault_counts.is_empty(),
        "the default schedule must inject faults"
    );
}

/// The CI chaos spec (`tangled chaos --seed 42 --requests 120 --rate 0.25
/// --busy-rate 0.1`) pinned across commits: its tallies and per-kind
/// fault counts are golden, so a change to the serving loop, the fault
/// schedule or the retry policy that moves the ledger shows up here.
#[test]
fn ci_chaos_spec_ledger_is_golden() {
    let spec = ChaosSpec {
        seed: 42,
        requests: 120,
        rate: 0.25,
        busy_rate: 0.1,
        ..ChaosSpec::default()
    };
    let report = chaos::run(&spec);
    let tail: Vec<&str> = report
        .ledger
        .lines()
        .filter(|l| l.starts_with("summary:") || l.starts_with("fault:"))
        .collect();
    assert_eq!(
        tail,
        [
            "summary: issued=120 answered=120 shed=0 failed=0 violations=0 retries=34",
            "fault: wire-bit-flip=4",
            "fault: wire-disconnect=7",
            "fault: wire-duplicate-frame=3",
            "fault: wire-garbage-header=10",
            "fault: wire-partial-write=7",
            "fault: wire-trickle=5",
        ],
        "golden chaos ledger moved:\n{}",
        report.ledger
    );
}

/// Lossy wire faults over *real* TCP: the resilient client retries
/// through disconnects, partial writes and trickled bytes, and the
/// served verdicts still match the offline run byte for byte — faults
/// cost retries, never answers. Two plans go through the same lossy
/// link: the Netalyzr mixed mix and the interception scenario plan,
/// whose tallied report must equal `scenario::compute`'s.
#[test]
fn lossy_chaos_over_tcp_preserves_verdicts() {
    let mitm = ScenarioSpec::for_scale(0.02, 2014);
    let mixed = ReplaySpec::new(2014, 40);
    let plans = [
        queries(&population(&mixed), &mixed),
        scenario::plan(&mitm).expect("scenario plan"),
    ];

    let service = Arc::new(TrustService::new(DEFAULT_CACHE_CAPACITY));
    let server = EventServer::bind("127.0.0.1:0", Arc::clone(&service), 4).expect("bind");
    let link = Link::Lossy {
        seed: 11,
        rate: 0.3,
    };
    let outcomes: Vec<_> = plans
        .iter()
        .map(|requests| drive(server.local_addr(), requests, link).expect("chaos replay"))
        .collect();
    server.shutdown();

    for (requests, outcome) in plans.iter().zip(&outcomes) {
        assert_eq!(
            outcome.wire_errors, 0,
            "lossy faults never corrupt a request"
        );
        assert_eq!(
            outcome.verdicts,
            offline_verdicts(requests),
            "verdicts under chaos must match the offline run"
        );
        assert!(
            outcome.faults > 0,
            "rate 0.3 over {} requests must inject faults",
            outcome.requests
        );
        assert!(
            outcome.connects > 1 && outcome.retries > 0,
            "breaking faults must force retries and reconnects (got {} connects)",
            outcome.connects
        );
    }

    let served = scenario::tally(&mitm, &outcomes[1].verdicts);
    let offline = scenario::compute(&mitm).expect("compute");
    assert_eq!(
        served.render(),
        offline.render(),
        "served report equals compute"
    );
    assert_eq!(
        verdict_fingerprint(&outcomes[1].verdicts),
        0x8adb_30df_89aa_3cd3
    );
}

/// A zero-backlog server sheds every arrival with an explicit `busy`
/// frame; the resilient client classifies the exhaustion as `Shed`, not
/// a timeout or a hang.
#[test]
fn zero_backlog_shedding_is_classified() {
    let service = Arc::new(TrustService::new(16));
    let server = EventServer::bind_with(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            workers: 1,
            backlog: 0,
        },
    )
    .expect("bind");

    let connector = TcpConnector::new(server.local_addr());
    let mut client = ResilientClient::new(connector, RetryPolicy::immediate(3));
    let err = client.call(&Request::Stats).expect_err("must be shed");
    assert_eq!(err, ResilientError::Shed { attempts: 4 });
    assert_eq!(client.busy_count(), 4, "every attempt answered busy");
    server.shutdown();
}

/// Acceptance: a snapshot with one corrupted (non-store) section still
/// warm-starts; every reference profile serves, and the quarantined
/// section is visible in the `stats` document.
#[test]
fn degraded_warm_start_serves_and_reports() {
    let path = temp_path("degraded-section");
    let study = Study::new(0.05, 0.02);
    write_study(&study, &path).expect("snapshot writes");

    // Flip one byte inside the validation section's body.
    let snap = Snapshot::open(&path).expect("open");
    let pos = SectionId::ALL
        .iter()
        .position(|id| id.name() == "validation")
        .expect("validation section");
    let entry = &snap.entries()[pos];
    let offset = entry.offset as usize + (entry.len as usize) / 2;
    drop(snap);
    let mut bytes = std::fs::read(&path).expect("read");
    bytes[offset] ^= 0x40;
    std::fs::write(&path, &bytes).expect("corrupt");

    let started = start(Some(&path), None, None).expect("degraded start");
    assert!(
        !started.notes.iter().any(|n| n.contains("cold-generated")),
        "store sections are intact: {:?}",
        started.notes
    );
    assert!(
        started
            .notes
            .iter()
            .any(|n| n == "warm start quarantined 'validation': checksum-mismatch"),
        "{:?}",
        started.notes
    );
    let service = started.service;

    // Every standard profile (reference + ecosystem) answers validate
    // requests.
    let profiles = service.index().profile_names();
    assert_eq!(profiles.len(), 10, "all ten standard profiles serve");
    let chain = tangled_mass::intercept::origin::OriginServers::for_table6()
        .targets()
        .next()
        .map(|t| {
            tangled_mass::intercept::origin::OriginServers::for_table6()
                .chain(t)
                .expect("chain")
                .iter()
                .map(|c| c.to_der().to_vec())
                .collect::<Vec<_>>()
        })
        .expect("a table-6 target");
    for profile in &profiles {
        let resp = service.handle(&Request::Validate {
            profile: profile.clone(),
            chain: chain.clone(),
        });
        assert!(
            matches!(
                &resp,
                Response::Validate {
                    verdict: ChainVerdict::Trusted { .. } | ChainVerdict::Untrusted { .. },
                    ..
                }
            ),
            "profile {profile} must answer, got {resp:?}"
        );
    }

    // The degradation is visible in stats.
    let doc = service.stats_document();
    assert_eq!(doc["warm"]["degraded"].as_bool(), Some(true));
    let quarantined = doc["warm"]["quarantined"]
        .as_array()
        .expect("quarantine list");
    assert_eq!(quarantined.len(), 1);
    assert_eq!(quarantined[0]["section"].as_str(), Some("validation"));
    assert_eq!(quarantined[0]["error"].as_str(), Some("checksum-mismatch"));

    let _ = std::fs::remove_file(&path);
}

/// A corrupted *store* section cannot be partially salvaged (its cursor
/// is sequential), so the degraded start falls back to cold-generated
/// reference profiles — the server answers with correct stores either
/// way.
#[test]
fn degraded_warm_start_falls_back_on_store_corruption() {
    let path = temp_path("degraded-stores");
    let study = Study::new(0.05, 0.02);
    write_study(&study, &path).expect("snapshot writes");

    let snap = Snapshot::open(&path).expect("open");
    let pos = SectionId::ALL
        .iter()
        .position(|id| id.name() == "stores")
        .expect("stores section");
    let entry = &snap.entries()[pos];
    let offset = entry.offset as usize + 3;
    drop(snap);
    let mut bytes = std::fs::read(&path).expect("read");
    bytes[offset] ^= 0x01;
    std::fs::write(&path, &bytes).expect("corrupt");

    let started = start(Some(&path), None, None).expect("degraded start");
    assert!(
        started
            .notes
            .iter()
            .any(|n| n.contains("serving cold-generated reference profiles")),
        "store damage forces the cold fallback: {:?}",
        started.notes
    );
    let doc = started.service.stats_document();
    assert!(
        doc["warm"]["quarantined"]
            .as_array()
            .expect("quarantine list")
            .iter()
            .any(|q| q["section"] == "stores" && q["error"] == "checksum-mismatch"),
        "quarantine must name the stores section: {doc:?}"
    );
    assert_eq!(
        started.service.index().profile_names().len(),
        10,
        "cold fallback still serves every standard profile"
    );
    let _ = std::fs::remove_file(&path);
}

/// The per-kind sweep at rate 1.0: conservation must hold when every
/// frame carries each single fault kind — no kind may produce an
/// unclassified loss.
#[test]
fn conservation_survives_every_fault_kind_at_full_rate() {
    for kind in WireFaultKind::ALL {
        let spec = ChaosSpec {
            requests: 8,
            rate: 1.0,
            busy_rate: 0.0,
            kinds: vec![kind],
            ..ChaosSpec::default()
        };
        let report = chaos::run(&spec);
        assert!(
            report.conserved(),
            "conservation violated under {kind}:\n{}",
            report.ledger
        );
    }
}

/// The `Connect` abstraction is honoured end to end: a connector that
/// refuses every connection surfaces as classified exhaustion, not a
/// panic or hang.
#[test]
fn refused_connections_exhaust_with_classification() {
    struct Refuser;
    impl Connect for Refuser {
        type Stream = std::net::TcpStream;
        fn connect(
            &mut self,
        ) -> std::io::Result<tangled_mass::trustd::TrustClient<std::net::TcpStream>> {
            Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "nope",
            ))
        }
    }
    let mut client = ResilientClient::new(Refuser, RetryPolicy::immediate(5));
    let err = client.call(&Request::Stats).expect_err("must exhaust");
    assert_eq!(
        err,
        ResilientError::Exhausted {
            label: "connect-failed",
            attempts: 4
        }
    );
}
