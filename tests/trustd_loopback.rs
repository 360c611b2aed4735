//! Loopback integration: a real trustd server on an ephemeral port, a
//! seeded population replayed through it, and the served verdicts
//! compared — byte for byte — against the same requests handled offline
//! with no server at all.

use std::sync::Arc;
use std::time::Duration;
use tangled_mass::trustd::replay::{
    canonical, drive, offline_verdicts, population, queries, Link, ReplaySpec,
};
use tangled_mass::trustd::wire::{ChainVerdict, Request, Response};
use tangled_mass::trustd::{EventServer, TrustClient, TrustService, DEFAULT_CACHE_CAPACITY};

/// One server + replay pass over a 100-session seeded population: served
/// verdicts must equal the offline verdicts exactly, the memo cache must
/// actually hit, and no protocol errors may occur.
#[test]
fn replay_matches_offline_study_exactly() {
    let spec = ReplaySpec::new(2014, 100);
    let requests = queries(&population(&spec), &spec);
    let expected = offline_verdicts(&requests);
    assert!(!expected.is_empty());

    let service = Arc::new(TrustService::new(DEFAULT_CACHE_CAPACITY));
    let server = EventServer::bind("127.0.0.1:0", Arc::clone(&service), 4).expect("bind");
    let link = Link::Clean {
        depth: 1,
        seed: 2014,
    };
    let outcome = drive(server.local_addr(), &requests, link).expect("replay");
    server.shutdown();

    assert_eq!(outcome.wire_errors, 0, "no protocol errors");
    assert_eq!(outcome.requests, expected.len());
    assert_eq!(
        outcome.connects, 1,
        "a clean link keeps one connection alive"
    );
    assert_eq!((outcome.faults, outcome.retries), (0, 0));
    assert_eq!(
        outcome.verdicts, expected,
        "served verdicts must be byte-identical to the offline study"
    );

    // The population repeats origin chains across sessions, so the memo
    // cache must have answered at least once.
    let hits = outcome.stats["cache"]["hits"].as_u64().expect("hits counter");
    assert!(hits > 0, "cache hit rate must be non-zero, stats: {}", outcome.stats);
    assert_eq!(
        outcome.stats["served"]["validate"].as_u64().expect("served"),
        outcome
            .verdicts
            .iter()
            .filter(|v| v.starts_with("validate/"))
            .count() as u64
    );
}

/// Same seed and query order → identical counter fingerprints, run to
/// run, with latency excluded (the only nondeterministic ingredient).
#[test]
fn stats_are_deterministic_for_a_fixed_seed() {
    let run = || {
        let spec = ReplaySpec::new(99, 48);
        let service = TrustService::new(DEFAULT_CACHE_CAPACITY);
        let pop = population(&spec);
        for req in queries(&pop, &spec) {
            service.handle(&req);
        }
        service.counters_fingerprint()
    };
    let first = run();
    assert_eq!(first, run(), "counters must be a pure function of the replay");
    // Pinned as a literal, cache counters included: the ledger for this
    // replay is part of the serving contract, not just run-to-run stable.
    assert_eq!(
        first,
        "served:audit=6;served:classify=10;served:probe=3;served:validate=48;cache=8/40;"
    );
}

/// Malformed frames mid-session are quarantined, answered, and do not
/// poison the verdicts that follow on the same connection.
#[test]
fn wire_faults_quarantine_without_killing_the_session() {
    let service = Arc::new(TrustService::new(16));
    let server = EventServer::bind("127.0.0.1:0", Arc::clone(&service), 1).expect("bind");
    let mut client =
        TrustClient::connect_retry(server.local_addr(), Duration::from_secs(5)).expect("connect");

    let before = client.call(&Request::Stats).expect("stats");
    assert!(matches!(before, Response::Stats(_)));

    // A frame whose body is JSON but not a message, then one that is not
    // JSON at all: each gets a classified error reply.
    for (raw, label) in [
        (br#"{"type":"transmogrify"}"#.to_vec(), "bad-request"),
        (b"\xff\xfe\xfd".to_vec(), "bad-json"),
    ] {
        match client.call_raw(&raw).expect("fault reply") {
            Response::Error { stage, error } => {
                assert_eq!(stage, "wire");
                assert_eq!(error, label);
            }
            other => panic!("expected wire error, got {other:?}"),
        }
    }

    // The same connection still produces correct verdicts afterwards.
    let spec = ReplaySpec::new(5, 8);
    let pop = population(&spec);
    let reqs = queries(&pop, &spec);
    let offline = TrustService::new(16);
    for req in &reqs {
        let served = client.call(req).expect("post-fault call");
        assert_eq!(canonical(&served), canonical(&offline.handle(req)));
    }
    server.shutdown();

    assert_eq!(service.stats().quarantined_total(), 2);
    let doc = service.stats_document();
    assert_eq!(doc["health"]["quarantined"]["wire"]["bad-request"], 1u32);
    assert_eq!(doc["health"]["quarantined"]["wire"]["bad-json"], 1u32);
}

/// A profile swap over the wire: verdicts flip with the store, the epoch
/// advances, and cached entries from the old epoch never leak back.
#[test]
fn swap_over_the_wire_flips_verdicts() {
    let service = Arc::new(TrustService::new(64));
    let server = EventServer::bind("127.0.0.1:0", Arc::clone(&service), 2).expect("bind");
    let mut client =
        TrustClient::connect_retry(server.local_addr(), Duration::from_secs(5)).expect("connect");

    let origin = tangled_mass::intercept::origin::OriginServers::for_table6();
    let target = tangled_mass::intercept::Target::parse("gmail.com:443").unwrap();
    let chain: Vec<Vec<u8>> = origin
        .chain(&target)
        .unwrap()
        .iter()
        .map(|c| c.to_der().to_vec())
        .collect();
    let validate = Request::Validate {
        profile: "AOSP 4.1".into(),
        chain,
    };

    match client.call(&validate).expect("validate") {
        Response::Validate { verdict, .. } => {
            assert!(matches!(verdict, ChainVerdict::Trusted { .. }), "{verdict:?}");
        }
        other => panic!("unexpected {other:?}"),
    }

    // Swap AOSP 4.1 for an empty store.
    let empty = tangled_mass::pki::store::RootStore::new("empty");
    match client
        .call(&Request::Swap {
            profile: "AOSP 4.1".into(),
            snapshot: empty.snapshot(),
        })
        .expect("swap")
    {
        Response::Swap { epoch, anchors, .. } => {
            assert_eq!(anchors, 0);
            assert!(epoch >= 7);
        }
        other => panic!("unexpected {other:?}"),
    }

    match client.call(&validate).expect("validate after swap") {
        Response::Validate { verdict, cached } => {
            assert!(!cached, "old-epoch cache entry must not answer");
            assert_eq!(
                verdict,
                ChainVerdict::Untrusted {
                    error: "no-path".into()
                }
            );
        }
        other => panic!("unexpected {other:?}"),
    }
    server.shutdown();
}
