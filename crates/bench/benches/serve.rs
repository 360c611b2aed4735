//! Serving-path benchmarks: the in-process memo cache, then the wire.
//!
//! Two layers are measured:
//!
//! * **Service** — cached vs uncached `validate` through the trustd
//!   service, in process. Two identical services handle the same request
//!   stream; one with the default memo-cache capacity (every repeat is a
//!   ChainKey lookup), one with the cache disabled (every request runs
//!   full path construction and signature verification). The printed
//!   ratio is the measured value of the serving cache.
//! * **Transport** — the same warm request stream over real TCP through
//!   the event server, under two disciplines: serial round trips and
//!   depth-8 pipelining. A second pair compares sixteen single
//!   `validate` round trips against one
//!   `batch_validate` frame carrying the same sixteen chains. On a warm
//!   cache the service work is a memo hit, so these numbers isolate what
//!   the paper's workload actually pays per query: syscalls and
//!   round-trip scheduling. The measurements are written to
//!   `BENCH_serve.json` at the repository root.
//!
//! ```text
//! cargo bench --bench serve
//! ```

use criterion::{black_box, Criterion};
use serde_json::json;
use std::sync::Arc;
use std::time::Instant;
use tangled_bench::criterion;
use tangled_intercept::origin::OriginServers;
use tangled_intercept::policy::Target;
use tangled_trustd::wire::Request;
use tangled_trustd::{EventServer, TrustClient, TrustService, DEFAULT_CACHE_CAPACITY};

/// Readiness-loop threads in the benchmarked server.
const WORKERS: usize = 2;

/// Pipeline depth for the pipelined discipline.
const PIPELINE_DEPTH: usize = 8;

/// Chains per `batch_validate` frame.
const BATCH: usize = 16;

/// Timed rounds per transport discipline (after one warm-up round).
const ROUNDS: usize = 20;

fn main() {
    let mut c: Criterion = criterion();
    let cache = bench_validate(&mut c);
    let transport = bench_transport();
    c.final_summary();
    write_report(cache, transport);
}

/// The request stream: every Table 6 origin chain against every AOSP
/// profile — 84 distinct (profile, chain) keys, replayed repeatedly so
/// the warm cache answers from memory.
fn requests() -> Vec<Request> {
    let origin = OriginServers::for_table6();
    let mut targets: Vec<Target> = origin.targets().cloned().collect();
    targets.sort_by_key(|t| t.to_string());
    let profiles = ["AOSP 4.1", "AOSP 4.2", "AOSP 4.3", "AOSP 4.4"];
    let mut out = Vec::new();
    for profile in profiles {
        for t in &targets {
            out.push(Request::Validate {
                profile: profile.to_owned(),
                chain: origin
                    .chain(t)
                    .expect("table 6 chain")
                    .iter()
                    .map(|c| c.to_der().to_vec())
                    .collect(),
            });
        }
    }
    out
}

fn bench_validate(c: &mut Criterion) -> serde_json::Value {
    let reqs = requests();

    let cached = TrustService::new(DEFAULT_CACHE_CAPACITY);
    let uncached = TrustService::new(0);
    // Warm both services once so setup work (store builds) is excluded
    // and the cached service's memo is populated.
    for req in &reqs {
        cached.handle(req);
        uncached.handle(req);
    }

    c.bench_function("serve/validate_cached", |b| {
        b.iter(|| {
            for req in &reqs {
                black_box(cached.handle(req));
            }
        })
    });
    c.bench_function("serve/validate_uncached", |b| {
        b.iter(|| {
            for req in &reqs {
                black_box(uncached.handle(req));
            }
        })
    });

    let (hits, misses) = cached.stats().cache_counts();
    println!(
        "serve: warm cache answered {hits} of {} validate calls ({misses} misses)",
        hits + misses
    );
    assert!(hits > 0, "warm service must serve from cache");

    // Independent wall-clock pass for the JSON report (the criterion
    // shim prints its own summary but does not expose the mean).
    let time_service = |svc: &TrustService| {
        let start = Instant::now();
        for req in &reqs {
            black_box(svc.handle(req));
        }
        start.elapsed().as_secs_f64()
    };
    let cached_s = time_service(&cached);
    let uncached_s = time_service(&uncached);
    json!({
        "requests": reqs.len(),
        "cached_seconds": cached_s,
        "uncached_seconds": uncached_s,
        "speedup": uncached_s / cached_s.max(1e-12),
    })
}

/// Mean wall seconds per round of `run` over [`ROUNDS`] timed rounds,
/// after one warm-up round.
fn mean_round(mut run: impl FnMut()) -> f64 {
    run();
    let start = Instant::now();
    for _ in 0..ROUNDS {
        run();
    }
    start.elapsed().as_secs_f64() / ROUNDS as f64
}

/// One keep-alive connection driving `reqs` serially, `depth` = 1, or in
/// pipelined bursts of `depth`.
fn drive(client: &mut TrustClient, reqs: &[Request], depth: usize) {
    if depth <= 1 {
        for req in reqs {
            client.call(req).expect("serial reply");
        }
        return;
    }
    for chunk in reqs.chunks(depth) {
        let replies = client.pipeline(chunk).expect("pipelined replies");
        assert_eq!(replies.len(), chunk.len(), "burst answered in full");
    }
}

fn bench_transport() -> serde_json::Value {
    let reqs = requests();
    let service = Arc::new(TrustService::new(DEFAULT_CACHE_CAPACITY));
    // Warm the memo so every timed round trip is a cache hit: the
    // numbers then measure transport, not verification.
    for req in &reqs {
        service.handle(req);
    }

    // Serial and pipelined, over one server instance.
    let (event_serial, event_pipelined, batch_singles, batch_one_frame) = {
        let server = EventServer::bind("127.0.0.1:0", Arc::clone(&service), WORKERS)
            .expect("bind event server");
        let mut client = TrustClient::connect(server.local_addr()).expect("connect");
        let serial = mean_round(|| drive(&mut client, &reqs, 1));
        let pipelined = mean_round(|| drive(&mut client, &reqs, PIPELINE_DEPTH));

        // Sixteen singles vs one batch_validate frame with the same
        // sixteen chains, against the same warm profile.
        let singles: Vec<Request> = reqs
            .iter()
            .filter(|r| matches!(r, Request::Validate { profile, .. } if profile == "AOSP 4.4"))
            .take(BATCH)
            .cloned()
            .collect();
        assert_eq!(singles.len(), BATCH, "enough AOSP 4.4 chains");
        let chains: Vec<Vec<Vec<u8>>> = singles
            .iter()
            .map(|r| match r {
                Request::Validate { chain, .. } => chain.clone(),
                _ => unreachable!(),
            })
            .collect();
        let batch_req = Request::BatchValidate {
            profile: "AOSP 4.4".to_owned(),
            chains,
        };
        let singles_s = mean_round(|| drive(&mut client, &singles, 1));
        let batch_s = mean_round(|| {
            client.call(&batch_req).expect("batch reply");
        });
        let _ = client;
        server.shutdown();
        (serial, pipelined, singles_s, batch_s)
    };

    let per_round = reqs.len() as f64;
    let report = json!({
        "workers": WORKERS,
        "requests_per_round": reqs.len(),
        "rounds": ROUNDS,
        "pipeline_depth": PIPELINE_DEPTH,
        "event_serial": {
            "seconds_per_round": event_serial,
            "req_per_s": per_round / event_serial.max(1e-12),
        },
        "event_pipelined": {
            "seconds_per_round": event_pipelined,
            "req_per_s": per_round / event_pipelined.max(1e-12),
            "speedup_vs_event_serial": event_serial / event_pipelined.max(1e-12),
        },
        "batch": {
            "chains": BATCH,
            "singles_seconds": batch_singles,
            "batch_frame_seconds": batch_one_frame,
            "speedup": batch_singles / batch_one_frame.max(1e-12),
        },
    });
    println!(
        "serve/tcp: event serial {:.0} req/s · event pipeline-{PIPELINE_DEPTH} {:.0} req/s \
         ({:.2}x vs serial)",
        per_round / event_serial,
        per_round / event_pipelined,
        event_serial / event_pipelined.max(1e-12),
    );
    println!(
        "serve/tcp: {BATCH} single validates {:.3} ms vs one batch_validate {:.3} ms ({:.2}x)",
        batch_singles * 1e3,
        batch_one_frame * 1e3,
        batch_singles / batch_one_frame.max(1e-12),
    );
    report
}

fn write_report(cache: serde_json::Value, transport: serde_json::Value) {
    let doc = json!({
        "benchmark": "serve",
        "service_cache": cache,
        "transport": transport,
    });
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    let rendered = serde_json::to_string_pretty(&doc).expect("render report");
    std::fs::write(path, format!("{rendered}\n")).expect("write BENCH_serve.json");
    println!("serve: wrote {path}");
}
