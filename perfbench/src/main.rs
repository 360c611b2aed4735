//! perfbench: the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload validate-hot --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run from the repository root. It builds the release `tangled` binary,
//! generates the workload's requests and their expected replies from the
//! seed, times the study pipeline, then serves the requests through
//! `tangled serve` and checks every reply. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and the
//! metrics — the end-to-end ones untraced (`--trace 0`), the per-layer
//! ones from a traced run (`--trace 1`). See `perfbench/README.md`.

mod layers;
mod load;
mod server;
mod stats;
mod study;
mod trace;
mod workload;

use load::{closed_loop, open_loop, Conn, Phase, Stop, Tally};
use server::Server;
use stats::{median, percentile, window_medians, window_rates, Metrics};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tangled_mass::pki::stores::{EcosystemStore, ReferenceStore};
use tangled_mass::trustd::{
    canonical, ClientError, Request, Response, TrustClient, DEFAULT_CACHE_CAPACITY,
};
use trace::Tracer;
use workload::{Inputs, Workload};

/// End-to-end metrics and their units, as `BENCHMARK.json` lists them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("open_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("study_s", "s"),
];

/// Per-layer metrics and their units, as `BENCHMARK.json` lists them.
const PER_LAYER: [(&str, &str); 45] = [
    ("wire.decode_us", "us"),
    ("wire.encode_us", "us"),
    ("wire.req_bytes", "bytes"),
    ("wire.errors", "count"),
    ("event.rtt_us", "us"),
    ("event.overhead_us", "us"),
    ("event.late_ms", "ms"),
    ("event.open_p99_ms", "ms"),
    ("client.busy", "count"),
    ("client.timeouts", "count"),
    ("x509.parse_us", "us"),
    ("x509.chain_key_us", "us"),
    ("x509.verifier_clone_us", "us"),
    ("x509.verify_us", "us"),
    ("x509.sigmemo_hit_ratio", "ratio"),
    ("x509.sigmemo_hit_ratio_study", "ratio"),
    ("index.profile_us", "us"),
    ("index.install_ms", "ms"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookups", "count"),
    ("cache.evictions", "count"),
    ("crypto.rsa_verify_us", "us"),
    ("crypto.rsa_sign_us", "us"),
    ("crypto.rsa_keygen_ms", "ms"),
    ("pki.mint_s", "s"),
    ("pki.cacerts_load_us", "us"),
    ("pki.audit_us", "us"),
    ("intercept.probe_us", "us"),
    ("snap.journal_append_us", "us"),
    ("service.handle_us.validate", "us"),
    ("service.handle_us.classify", "us"),
    ("service.handle_us.audit", "us"),
    ("service.handle_us.probe", "us"),
    ("service.handle_us.compare", "us"),
    ("service.handle_us.swap", "us"),
    ("notary.ecosystem_generate_s", "s"),
    ("notary.validation_build_s", "s"),
    ("netalyzr.population_generate_s", "s"),
    ("core.with_faults_s", "s"),
    ("exec.speedup.ecosystem_generate", "x"),
    ("exec.speedup.validation_build", "x"),
    ("exec.speedup.population_generate", "x"),
    ("exec.speedup.with_faults", "x"),
    ("trace.req_per_s", "1/s"),
    ("trace.overhead_ratio", "ratio"),
];

/// Names of every per-layer metric.
pub fn per_layer_names() -> impl Iterator<Item = String> {
    PER_LAYER.iter().map(|(n, _)| n.to_string())
}

/// Share of the run the closed loop gets; the open loop gets the rest.
const CLOSED_SHARE: f64 = 0.6;

/// One stretch of load within a round.
#[derive(Clone, Copy)]
enum Segment {
    Closed,
    Open,
}

/// The closed- and open-loop durations of one round of a run of
/// `seconds`.
fn split(seconds: u64) -> (Duration, Duration) {
    let total = seconds as f64 / ROUNDS as f64;
    (
        Duration::from_secs_f64(total * CLOSED_SHARE),
        Duration::from_secs_f64(total * (1.0 - CLOSED_SHARE)),
    )
}

/// Load is summarised in windows of this many seconds (shorter when a
/// stretch is shorter): `req_per_s` is the median window's rate, and
/// each latency metric the median of the windows' medians, so a stall of
/// the host skews a few windows rather than the result.
const WINDOW_S: f64 = 0.5;

/// Requests in flight on the closed loop. At depth 8 the pipeline drains
/// once per few hundred microseconds of server work, so every idle sleep
/// of the server's event loop costs a large share of a cycle and
/// validate-hot's `req_per_s` swung with the host (ten-seed spreads of
/// 11–27%); at 32 one-second stretches spread about two thirds as much.
const DEPTH: usize = 32;
/// Rounds per untraced run. Each starts a server (one `setup_s`
/// sample), serves a share of the run's closed and open loop, and ends
/// with one timed study pass.
const ROUNDS: usize = 3;
/// Serial round trips in the traced run.
const RTT_CALLS: usize = 300;
/// Per-workload requests the traced layer probe walks.
const PROBE_REQUESTS: usize = 600;
/// Extra requests per op kind the workload lacks, for the per-op probes.
const PROBE_AUX: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload '{name}' (want one of {})",
                        names.join(", ")
                    )
                })?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed wants an integer")?),
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|_| "--seconds wants an integer")?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("perfbench: {e}");
            1
        }
    };
    std::process::exit(code);
}

/// Everything one run measured.
struct Outcome {
    metrics: Metrics,
    tally: Tally,
    study_failures: u64,
    study_passes: u64,
    fingerprint_ok: bool,
}

fn run(args: &Args) -> Result<bool, String> {
    let bin = server::build_tangled()?;
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let base = PathBuf::from(".bench_run");
    let dir = base.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} ({threads} cores)",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let result = if args.trace {
        traced(args, &bin, threads, &dir, &base)
    } else {
        untraced(args, &bin, threads, &dir)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let out = result?;

    let t = &out.tally;
    let failed = t.failed() + out.study_failures + u64::from(!out.fingerprint_ok);
    let attempted = t.attempted + out.study_passes;
    let correct = failed == 0;
    eprintln!(
        "perfbench: {} ops attempted, {failed} failed (error_rate {:.6}): {} mismatched, \
         {} wire errors, {} busy, {} unanswered, {} study digest mismatches, fingerprint {}",
        attempted,
        failed as f64 / attempted.max(1) as f64,
        t.mismatches,
        t.wire_errors,
        t.busy,
        t.timeouts,
        out.study_failures,
        if out.fingerprint_ok { "ok" } else { "MISMATCH" },
    );
    for (name, value, unit) in out.metrics.entries() {
        eprintln!("  {name:<34} {value:>14.4} {unit}");
    }
    println!(
        "{}",
        stats::result_line(correct, attempted, failed, &out.metrics)
    );
    Ok(correct)
}

/// Mint every CA key the standard stores need; returns seconds taken.
fn mint() -> f64 {
    let started = Instant::now();
    for s in ReferenceStore::ALL {
        s.cached();
    }
    for s in EcosystemStore::ALL {
        s.cached();
    }
    started.elapsed().as_secs_f64()
}

/// Start the `k`th server of a run. A journalled workload gets a fresh,
/// empty journal directory per server: a leftover journal would replay
/// its swaps during start-up and inflate `setup_s`.
fn spawn(
    workload: Workload,
    bin: &Path,
    threads: usize,
    dir: &Path,
    k: usize,
) -> Result<Server, String> {
    let journal = workload
        .journaled()
        .then(|| dir.join(format!("server-{k}")).join("journal"));
    if let Some(parent) = journal.as_deref().and_then(Path::parent) {
        std::fs::create_dir_all(parent)
            .map_err(|e| format!("creating {}: {e}", parent.display()))?;
    }
    Server::spawn(bin, threads, journal.as_deref())
}

/// One full pass over the corpus in order, excluded from timing; its
/// replies must reproduce the oracle's verdict fingerprint.
fn warm_up(conn: &mut Conn, inputs: &Inputs, cursor: &mut usize, tally: &mut Tally) -> bool {
    let pass = closed_loop(
        conn,
        &inputs.frames,
        cursor,
        DEPTH,
        Stop::Count(inputs.frames.len()),
        &mut Tracer::new(false),
    );
    tally.check(&pass, &inputs.expected);
    let replies = load::canonical_replies(&pass);
    pass.error.is_none()
        && tangled_mass::trustd::verdict_fingerprint(&replies) == inputs.fingerprint
}

fn report_error(phase: &Phase, what: &str) {
    if let Some(e) = &phase.error {
        eprintln!("perfbench: {what}: {e}");
    }
}

fn untraced(args: &Args, bin: &Path, threads: usize, dir: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    mint();
    let inputs = Inputs::prepare(w, args.seed);
    study::warm_up();

    // Each round serves from a fresh server and ends with a study pass
    // once that server is gone, so every metric's samples spread over
    // the whole run rather than one stretch of it.
    let (closed_for, open_for) = split(args.seconds);
    let mut tally = Tally::default();
    let mut fingerprint_ok = true;
    let (mut setups, mut rss, mut passes) = (Vec::new(), Vec::new(), Vec::new());
    let (mut rates, mut closed_p50s, mut open_p50s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut closed_ms, mut open_ms) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        let server = spawn(w, bin, threads, dir, round)?;
        setups.push(server.setup.as_secs_f64());
        let mut conn = Conn::connect(server.addr)?;
        let mut cursor = 0usize;
        fingerprint_ok &= warm_up(&mut conn, &inputs, &mut cursor, &mut tally);
        for segment in [Segment::Closed, Segment::Open, Segment::Closed] {
            let phase = match segment {
                Segment::Closed => closed_loop(
                    &mut conn,
                    &inputs.frames,
                    &mut cursor,
                    DEPTH,
                    Stop::After(closed_for / 2),
                    &mut Tracer::new(false),
                ),
                Segment::Open => open_loop(
                    &mut conn,
                    &inputs.frames,
                    &mut cursor,
                    w.open_rate(),
                    open_for,
                ),
            };
            report_error(&phase, "load");
            tally.check(&phase, &inputs.expected);
            let bin = WINDOW_S.min(phase.window_s);
            let p50s = window_medians(&phase.at_s, &phase.latencies_ms, phase.window_s, bin);
            match segment {
                Segment::Closed => {
                    rates.extend(window_rates(&phase.at_s, phase.window_s, bin));
                    closed_p50s.extend(p50s);
                    closed_ms.extend(phase.latencies_ms);
                }
                Segment::Open => {
                    open_p50s.extend(p50s);
                    open_ms.extend(phase.latencies_ms);
                }
            }
        }
        rss.push(server.peak_rss_mb()?);
        drop(conn);
        drop(server);

        let pass = study::run_once();
        if !pass.correct() {
            eprintln!(
                "perfbench: study digest {:016x} differs from the pinned {:016x}",
                pass.digest,
                study::PINNED_DIGEST
            );
        }
        passes.push(pass);
    }

    let study_s: Vec<f64> = passes.iter().map(|p| p.seconds).collect();
    let pooled = |v: &[f64]| percentile(v, 0.5).map_or(f64::NAN, |p| p.value);
    eprintln!(
        "perfbench: {ROUNDS} rounds; closed loop {} replies, {} windows with a p50 (pooled \
         p50 {:.3} ms); open loop {} samples at {} req/s, {} windows with a p50 (pooled p50 \
         {:.3} ms); set-up {setups:.3?} s; study {study_s:.3?} s",
        closed_ms.len(),
        closed_p50s.len(),
        pooled(&closed_ms),
        open_ms.len(),
        w.open_rate(),
        open_p50s.len(),
        pooled(&open_ms),
    );
    let mut m = Metrics::default();
    let values = [
        median(&setups),
        median(&rates),
        median(&closed_p50s),
        median(&open_p50s),
        median(&rss),
        median(&study_s),
    ];
    for ((name, unit), value) in END_TO_END.iter().zip(values) {
        m.put(
            name,
            value.ok_or_else(|| format!("no samples for {name}"))?,
            unit,
        )?;
    }
    Ok(Outcome {
        metrics: m,
        tally,
        study_failures: passes.iter().filter(|p| !p.correct()).count() as u64,
        study_passes: passes.len() as u64,
        fingerprint_ok,
    })
}

/// The traced probe corpus: a prefix of the workload's stream, then a few
/// requests of every op kind it lacks (swaps last).
fn probe_corpus(w: Workload, seed: u64, requests: &[Request]) -> Vec<Request> {
    let mut corpus: Vec<Request> = requests.iter().take(PROBE_REQUESTS).cloned().collect();
    let have: Vec<&str> = corpus.iter().map(Request::kind).collect();
    let mut aux: Vec<Request> = Vec::new();
    for other in Workload::ALL.into_iter().filter(|o| *o != w) {
        aux.extend(other.requests(seed));
    }
    for op in layers::OPS {
        if !have.contains(&op) {
            corpus.extend(
                aux.iter()
                    .filter(|r| r.kind() == op)
                    .take(PROBE_AUX)
                    .cloned(),
            );
        }
    }
    corpus
}

/// The server's lifetime verdict-memo `(hits, misses)`, from a `stats`
/// request on a connection of its own.
fn cache_counts(addr: std::net::SocketAddr) -> Result<(u64, u64), String> {
    let mut client =
        TrustClient::connect(addr).map_err(|e| format!("connecting for stats: {e}"))?;
    match client.call(&Request::Stats) {
        Ok(Response::Stats(doc)) => {
            let get = |k: &str| {
                doc["cache"][k]
                    .as_u64()
                    .ok_or_else(|| format!("stats lacks cache.{k}"))
            };
            Ok((get("hits")?, get("misses")?))
        }
        other => Err(format!("unexpected stats reply: {other:?}")),
    }
}

fn traced(
    args: &Args,
    bin: &Path,
    threads: usize,
    dir: &Path,
    base: &Path,
) -> Result<Outcome, String> {
    let w = args.workload;
    let mut tracer = Tracer::new(true);
    let mut m = Metrics::default();
    let med = |v: &[f64], what: &str| median(v).ok_or_else(|| format!("no samples for {what}"));

    let mint_s = mint();
    m.put("pki.mint_s", mint_s, "s")?;
    study::warm_up();
    let narrow = study::stage_times(1);
    let wide = study::stage_times(threads);
    for (i, (metric, stage)) in study::STAGES.iter().enumerate() {
        m.put(metric, wide[i], "s")?;
        m.put(&format!("exec.speedup.{stage}"), narrow[i] / wide[i], "x")?;
    }
    let pass = study::run_once();
    let study_failures = u64::from(!pass.correct());
    m.put(
        "x509.sigmemo_hit_ratio_study",
        pass.memo_hits as f64 / (pass.memo_hits + pass.memo_misses).max(1) as f64,
        "ratio",
    )?;

    let inputs = Inputs::prepare(w, args.seed);
    let corpus = probe_corpus(w, args.seed, &inputs.requests);
    let path = layers::request_path(
        &corpus,
        PROBE_REQUESTS.min(inputs.requests.len()),
        &mut tracer,
    );
    layers::rsa(&mut tracer);
    layers::persistence(dir, &mut tracer)?;

    let server = spawn(w, bin, threads, dir, 0)?;
    let mut conn = Conn::connect(server.addr)?;
    let mut tally = Tally::default();
    let mut cursor = 0usize;
    let fingerprint_ok = warm_up(&mut conn, &inputs, &mut cursor, &mut tally);
    let (h0, m0) = cache_counts(server.addr)?;
    let quarter = Duration::from_secs_f64(args.seconds as f64 / 4.0);
    let plain = closed_loop(
        &mut conn,
        &inputs.frames,
        &mut cursor,
        DEPTH,
        Stop::After(quarter),
        &mut Tracer::new(false),
    );
    report_error(&plain, "closed loop");
    tally.check(&plain, &inputs.expected);
    let spans_before = tracer.spans().len();
    let traced_loop = closed_loop(
        &mut conn,
        &inputs.frames,
        &mut cursor,
        DEPTH,
        Stop::After(quarter),
        &mut tracer,
    );
    report_error(&traced_loop, "traced closed loop");
    tally.check(&traced_loop, &inputs.expected);
    let (h1, m1) = cache_counts(server.addr)?;

    // Serial round trips over the requests the layer probe timed, so each
    // round trip's overhead is its own rtt less its own in-process work.
    let mut client = TrustClient::connect(server.addr).map_err(|e| format!("connecting: {e}"))?;
    let (mut rtt, mut overhead) = (Vec::with_capacity(RTT_CALLS), Vec::new());
    for k in 0..RTT_CALLS {
        let idx = k % path.server_work_us.len();
        let started = Instant::now();
        let reply = client.call(&inputs.requests[idx]);
        let rtt_us = started.elapsed().as_secs_f64() * 1e6;
        rtt.push(rtt_us);
        overhead.push(rtt_us - path.server_work_us[idx]);
        tracer.record("event.rtt", None, k as u64, started, Instant::now());
        tally.attempted += 1;
        match reply {
            Ok(resp) if canonical(&resp) == inputs.expected[idx] => tally.ok += 1,
            Ok(Response::Busy) => tally.busy += 1,
            Ok(_) => tally.mismatches += 1,
            Err(ClientError::Protocol(_)) => tally.wire_errors += 1,
            Err(_) => tally.timeouts += 1,
        }
    }
    drop(client);
    let open = open_loop(
        &mut conn,
        &inputs.frames,
        &mut cursor,
        w.open_rate(),
        2 * quarter,
    );
    report_error(&open, "open loop");
    tally.check(&open, &inputs.expected);
    drop(conn);
    drop(server);

    let span_us = |name: &str| med(&tracer.durations_us(name), name);
    m.put("wire.decode_us", span_us("wire.decode")?, "us")?;
    m.put("wire.encode_us", span_us("wire.encode")?, "us")?;
    let bytes: usize = inputs.frames.iter().map(Vec::len).sum();
    m.put(
        "wire.req_bytes",
        bytes as f64 / inputs.frames.len() as f64,
        "bytes",
    )?;
    m.put("wire.errors", tally.wire_errors as f64, "count")?;
    m.put("event.rtt_us", med(&rtt, "event.rtt")?, "us")?;
    m.put("event.overhead_us", med(&overhead, "event overhead")?, "us")?;
    m.put(
        "event.late_ms",
        med(&open.late_ms, "open-loop lateness")?,
        "ms",
    )?;
    let open_p99 = percentile(&open.latencies_ms, 0.99).ok_or_else(|| {
        format!(
            "open loop too short for p99: {} samples, need {} beyond it",
            open.latencies_ms.len(),
            stats::MIN_BEYOND
        )
    })?;
    eprintln!(
        "perfbench: open loop p99 over {} samples ({} beyond)",
        open_p99.samples, open_p99.beyond
    );
    m.put("event.open_p99_ms", open_p99.value, "ms")?;
    m.put("client.busy", tally.busy as f64, "count")?;
    m.put("client.timeouts", tally.timeouts as f64, "count")?;
    for (metric, span) in [
        ("x509.parse_us", "x509.parse"),
        ("x509.chain_key_us", "x509.chain_key"),
        ("x509.verifier_clone_us", "x509.verifier_clone"),
        ("x509.verify_us", "x509.verify"),
        ("index.profile_us", "index.profile"),
        ("crypto.rsa_verify_us", "crypto.rsa_verify"),
        ("crypto.rsa_sign_us", "crypto.rsa_sign"),
        ("pki.cacerts_load_us", "pki.cacerts_load"),
        ("pki.audit_us", "pki.audit"),
        ("intercept.probe_us", "intercept.probe"),
        ("snap.journal_append_us", "snap.journal_append"),
    ] {
        m.put(metric, span_us(span)?, "us")?;
    }
    m.put("index.install_ms", span_us("index.install")? / 1e3, "ms")?;
    m.put(
        "crypto.rsa_keygen_ms",
        span_us("crypto.rsa_keygen")? / 1e3,
        "ms",
    )?;
    m.put(
        "x509.sigmemo_hit_ratio",
        path.memo_hits as f64 / (path.memo_hits + path.memo_misses).max(1) as f64,
        "ratio",
    )?;
    let (hits, misses) = (h1 - h0, m1 - m0);
    m.put(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    )?;
    m.put("cache.lookups", (hits + misses) as f64, "count")?;
    // The memo inserts on every miss and never removes, so once full each
    // miss evicts exactly one entry.
    m.put(
        "cache.evictions",
        m1.saturating_sub(DEFAULT_CACHE_CAPACITY as u64) as f64,
        "count",
    )?;
    for op in layers::OPS {
        let span = format!("service.handle.{op}");
        m.put(&format!("service.handle_us.{op}"), span_us(&span)?, "us")?;
    }
    m.put("trace.req_per_s", traced_loop.throughput(), "1/s")?;
    m.put(
        "trace.overhead_ratio",
        traced_loop.throughput() / plain.throughput(),
        "ratio",
    )?;
    eprintln!(
        "perfbench: cache {hits} hits / {} lookups after warm-up; {} client spans; \
         serial rtt over {} calls",
        hits + misses,
        tracer.spans().len() - spans_before,
        rtt.len()
    );
    for (name, n, self_us) in trace::self_time_summary(tracer.spans()) {
        eprintln!("  self time {name:<28} {self_us:>12.2} us mean over {n}");
    }
    let jsonl = base.join(format!("trace-{}-{}.jsonl", w.name(), args.seed));
    trace::write_jsonl(&jsonl, tracer.spans())
        .map_err(|e| format!("writing {}: {e}", jsonl.display()))?;
    eprintln!("perfbench: spans written to {}", jsonl.display());

    for (name, _) in PER_LAYER {
        if !m.entries().iter().any(|(n, _, _)| n == name) {
            return Err(format!("per-layer metric {name} was not measured"));
        }
    }
    Ok(Outcome {
        metrics: m,
        tally,
        study_failures,
        study_passes: 1,
        fingerprint_ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the code name the same metrics, with the same
    /// units, and every workload it lists is one the code runs.
    #[test]
    fn declared_metrics_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let doc: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc[key]
                .as_array()
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m[f].as_str().expect("string field").to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| w["name"].as_str().expect("workload name"))
            .collect();
        assert!(!workloads.is_empty());
        for name in workloads {
            assert!(Workload::parse(name).is_some(), "{name}");
        }
    }
}
