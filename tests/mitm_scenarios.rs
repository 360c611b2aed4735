//! Interception scenario engine, end to end: the offline report must be
//! byte-identical run-to-run and across pool widths, and a served replay
//! through a real trustd over `probe_session` must agree with the
//! offline compute verdict-for-verdict — same ledger, same fingerprint.
//!
//! The thread override is process-global, so this binary holds exactly
//! one test.

use std::sync::Arc;
use tangled_mass::exec::set_thread_override;
use tangled_mass::intercept::DefectClass;
use tangled_mass::scenario::{compute, plan, tally, MintStrategy, ScenarioSpec};
use tangled_mass::trustd::{drive, EventServer, Link, TrustService, DEFAULT_CACHE_CAPACITY};

#[test]
fn scenario_report_is_deterministic_and_served_replay_matches() {
    let spec = ScenarioSpec::for_scale(0.02, 2014);
    assert_eq!(spec.clients, 4);
    assert_eq!(spec.sessions(), 4 * 5 * 21);

    // Byte-identical at widths 1, 2 and 8: chain minting shards over the
    // pool and session verdicts merge in index order, so the rendered
    // ledger (fingerprint line included) must never depend on the width.
    let mut renders = Vec::new();
    for threads in [1usize, 2, 8] {
        set_thread_override(Some(threads));
        let report = compute(&spec).expect("compute");
        assert!(report.conserved(), "width {threads} conserves");
        renders.push(report.render());
    }
    set_thread_override(None);
    assert_eq!(renders[0], renders[1], "widths 1 and 2 agree");
    assert_eq!(renders[0], renders[2], "widths 1 and 8 agree");

    // The offline report again at the ambient width — the reference the
    // served replay must reproduce.
    let offline = compute(&spec).expect("compute");
    assert_eq!(offline.render(), renders[0], "ambient width agrees");
    // The value `tangled mitm 0.02 --seed 2014` prints.
    assert_eq!(format!("{:016x}", offline.fingerprint), "8adb30df89aa3cd3");

    // Attribution totality: every intercepted session is attributed to a
    // known defect class or to the locally-installed root.
    assert!(!offline.attribution.is_empty());
    for label in offline.attribution.keys() {
        assert!(
            label == "installed-root" || DefectClass::parse(label).is_some(),
            "unknown attribution label {label}"
        );
    }
    // The pin-whitelisted pass-throughs are exactly the 9 whitelisted
    // endpoints per client per strategy.
    let (sessions, _, _, whitelisted) = offline.totals();
    assert_eq!(sessions, spec.sessions());
    assert_eq!(whitelisted, spec.clients * spec.strategies.len() * 9);
    // Every strategy's row conserves on its own.
    for row in &offline.ledger {
        assert_eq!(row.sessions, row.blocked + row.intercepted + row.whitelisted);
        if row.strategy == MintStrategy::InstalledRoot {
            assert!(row.intercepted > 0, "installed root always intercepts");
        }
    }

    // Served mode: the same plan through a real server over the
    // idempotent probe_session op, pipelined. Fingerprint and ledger
    // must match the offline report exactly.
    let service = Arc::new(TrustService::new(DEFAULT_CACHE_CAPACITY));
    let server = EventServer::bind("127.0.0.1:0", Arc::clone(&service), 4).expect("bind");
    let requests = plan(&spec).expect("plan");
    let link = Link::Clean {
        depth: 8,
        seed: spec.seed,
    };
    let outcome = drive(server.local_addr(), &requests, link).expect("served replay");
    server.shutdown();

    assert_eq!(outcome.wire_errors, 0, "no protocol errors");
    assert_eq!(outcome.requests, spec.sessions());
    let served = tally(&spec, &outcome.verdicts);
    assert!(served.conserved(), "served ledger conserves");
    assert_eq!(
        served.fingerprint, offline.fingerprint,
        "served fingerprint must equal the offline fingerprint"
    );
    assert_eq!(
        served.render(),
        offline.render(),
        "served report must be byte-identical to the offline report"
    );
}
