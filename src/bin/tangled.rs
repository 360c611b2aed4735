//! `tangled` — command-line interface to the tangled-mass toolkit.
//!
//! ```text
//! tangled tables  [scale]            print Tables 1–6 (default scale 0.5)
//! tangled figures [scale]            print Figures 1–3 data summaries
//! tangled export  [scale]            full result set as JSON on stdout
//! tangled mkstore <version> <dir>    write an AOSP store as a cacerts dir
//!                                    (version: 4.1 | 4.2 | 4.3 | 4.4 |
//!                                     mozilla | ios7)
//! tangled audit   <dir> <version>    audit an on-disk cacerts directory
//!                                    against an AOSP baseline
//! tangled probe                      replay the §7 interception case
//! tangled snap write <file> [scale]  generate a study and persist it as a
//!                                    binary snapshot
//! tangled snap read <file>           load a snapshot and print its tables
//! tangled snap verify <file>         checksum every snapshot section
//! tangled snap delta <base> <target> <epoch> --out <file>
//!                                    encode target as a delta over base:
//!                                    unchanged sections dedup away by
//!                                    checksum, only changed ones ride along
//! tangled snap materialize <chain...> <epoch> [--out <file>]
//!                                    rebuild the full snapshot a base+delta
//!                                    chain describes at a point in time
//! tangled serve   <addr> [--snapshot F] [--journal F]
//!                        [--compact-threshold BYTES]
//!                                    run the trustd query server (a few
//!                                    readiness-loop threads multiplexing
//!                                    every connection); with --snapshot,
//!                                    warm-start the reference profiles from a
//!                                    study snapshot; with --journal, log
//!                                    every swap write-ahead and replay the
//!                                    log on restart; with
//!                                    --compact-threshold, fold the journal
//!                                    into a checkpoint delta once it grows
//!                                    past BYTES, keeping recovery O(state)
//! tangled loadgen <addr> [--sessions N] [--seed S]
//!                        [--op mixed|compare|batch|mitm] [--pipeline N]
//!                        [--chaos-rate R] [--chaos-seed S] [--swaps N]
//!                                    plan a seeded workload, answer it
//!                                    offline, replay it against a server
//!                                    and check the served verdicts match;
//!                                    --op picks the plan (the mixed
//!                                    Netalyzr mix, the disparity engine's
//!                                    compare vectors, the validate stream
//!                                    grouped into batch_validate frames,
//!                                    or the interception scenario's
//!                                    probe_session plan) and the last
//!                                    --op wins; every run prints one
//!                                    report ending in the verdict-vector
//!                                    fingerprint (mitm adds its
//!                                    conservation line); --pipeline
//!                                    bursts N requests per write window
//!                                    over one keep-alive connection;
//!                                    --chaos-rate injects seeded lossy
//!                                    wire faults client-side, recovered
//!                                    by the resilient retry client; with
//!                                    --swaps, drive N store swaps of a
//!                                    'canary' profile instead (exercises
//!                                    the journal/compaction write path)
//! tangled mitm    [scale] [--seed S] adversarial interception scenarios: a
//!                                    seeded defective-client population vs a
//!                                    re-signing proxy, with per-strategy
//!                                    conservation ledger and defect
//!                                    attribution
//! tangled disparity [scale]          cross-ecosystem disparity report:
//!                                    Jaccard matrix, coverage tables,
//!                                    trusted-by-exactly-k histogram and
//!                                    verdict classes over ten root stores
//! tangled disparity --from A --to B  longitudinal drift between two
//!                                    snapshots: per-profile anchor churn,
//!                                    Jaccard similarity, exactly-k migration
//! tangled chaos   [--seed S] [--requests N] [--rate R]
//!                 [--busy-rate B] [--attempts N] [--out FILE]
//!                                    drive a seeded client population through
//!                                    a wire fault schedule against an
//!                                    in-process server and assert the
//!                                    conservation invariant; the ledger is
//!                                    byte-identical for a fixed seed
//! tangled stats   [scale]            pipeline statistics: per-stage
//!                                    latency p50/p99, memo counters, the
//!                                    trustd serving path, metrics dump
//! tangled trace   <out.jsonl> [scale]
//!                                    run a faulted study under the obs
//!                                    trace, validate the event log against
//!                                    the schema, write it as JSONL
//! tangled bench-study [scale] [--out FILE]
//!                                    time the study stages at 1 thread and
//!                                    the ambient width; write BENCH_study.json
//! tangled bench-snap [scale] [--out FILE]
//!                                    time cold study generation vs snapshot
//!                                    load; write BENCH_snap.json
//! ```
//!
//! The global `--threads N` flag (or `TANGLED_THREADS`) pins the
//! execution-pool width for any subcommand; results are bit-identical at
//! every width — including the `trace` event log, whose bytes are part of
//! the determinism contract. The global `--metrics-dump` flag prints the
//! process-wide metrics registry to stderr after any subcommand.
//!
//! Usage errors (unknown subcommand, malformed arguments) exit with
//! status 2; runtime failures exit with status 1.

use serde_json::json;
use std::collections::HashSet;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use tangled_mass::analysis::{export, figures, survey, tables, Study};
use tangled_mass::asn1::Time;
use tangled_mass::exec::{set_thread_override, thread_count};
use tangled_mass::faults::FaultPlan;
use tangled_mass::netalyzr::{Population, PopulationSpec};
use tangled_mass::notary::ecosystem::EcosystemSpec;
use tangled_mass::notary::{Ecosystem, ValidationIndex};
use tangled_mass::pki::audit::audit;
use tangled_mass::pki::cacerts::{from_cacerts, to_cacerts_pem, CacertsFile};
use tangled_mass::pki::stores::ReferenceStore;
use tangled_mass::obs;
use tangled_mass::pki::trust::AnchorSource;
use tangled_mass::scenario;
use tangled_mass::snap::{
    encode_checkpoint, load_study, write_study, Journal, Snapshot, SwapRecord,
    TrustState,
};
use tangled_mass::trustd::{
    chaos, degraded_index_from_snapshot, drive, index_from_chain, offline_verdicts, queries_for,
    replay_journal, verdict_fingerprint, ChaosSpec, EventServer, LatencyHistogram, Link,
    ReplayOp, ReplaySpec, Request, Response, StoreIndex, TrustClient, TrustService, BATCH_DEPTH,
    DEFAULT_CACHE_CAPACITY,
};
use tangled_mass::x509::{sig_memo_clear, sig_memo_counters, sig_memo_len};

/// How a command failed: a usage error (exit 2) or a runtime failure
/// (exit 1).
enum CliError {
    Usage(String),
    Failure(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Failure(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> CliError {
        CliError::Failure(msg.to_owned())
    }
}

fn usage() -> String {
    [
        "usage: tangled [--threads N] [--metrics-dump] <tables|figures|export|mkstore|audit|probe|snap|serve|loadgen|disparity|mitm|chaos|stats|trace|bench-study|bench-snap> [...]",
        "  tables  [scale]          print Tables 1-6",
        "  figures [scale]          print Figures 1-3 summaries",
        "  export  [scale]          print the result set as JSON",
        "  mkstore <version> <dir>  write a reference store as cacerts files",
        "  audit   <dir> <version>  audit a cacerts directory",
        "  probe                    replay the interception case",
        "  snap write <file> [scale]",
        "                           generate a study and persist a binary snapshot",
        "  snap read <file>         load a snapshot and print its tables",
        "  snap verify <file>       checksum every snapshot section",
        "  snap delta <base> <target> <epoch> --out <file>",
        "                           write target as a delta over base (changed",
        "                           sections only, epoch-labelled)",
        "  snap materialize <chain...> <epoch> [--out <file>]",
        "                           materialise a base+delta chain at an epoch;",
        "                           with --out, write the full snapshot",
        "  serve   <addr> [--snapshot F] [--journal F] [--compact-threshold BYTES]",
        "                           run the trustd query server (readiness loops",
        "                           multiplexing every connection; warm start",
        "                           from a snapshot and a <journal>.ckpt",
        "                           compaction checkpoint when present;",
        "                           write-ahead journal for swaps;",
        "                           --compact-threshold folds the journal into",
        "                           the checkpoint once it crosses BYTES)",
        "  loadgen <addr> [--sessions N] [--seed S] [--op mixed|compare|batch|mitm]",
        "          [--pipeline N] [--chaos-rate R] [--chaos-seed S] [--swaps N]",
        "                           plan a seeded workload (--op: mixed mix,",
        "                           compare vectors, batch_validate frames or",
        "                           the mitm scenario plan; last --op wins),",
        "                           replay it against a server and check it",
        "                           against the offline verdicts; one report",
        "                           ending in the verdict-vector fingerprint;",
        "                           --pipeline bursts N requests per write",
        "                           window; --chaos-rate injects lossy wire",
        "                           faults recovered through the resilient",
        "                           client; --swaps drives N store swaps on",
        "                           the 'canary' profile instead of a replay",
        "  disparity [scale]        cross-ecosystem root-store disparity report",
        "  disparity --from A --to B",
        "                           longitudinal drift between two materialised",
        "                           snapshots: per-profile anchor churn, Jaccard",
        "                           drift, exactly-k migration",
        "  mitm    [scale] [--seed S]",
        "                           adversarial interception scenarios: seeded",
        "                           defective-client population vs a re-signing",
        "                           proxy, per-strategy conservation ledger and",
        "                           defect attribution, seed-reproducible",
        "  chaos   [--seed S] [--requests N] [--rate R] [--busy-rate B]",
        "          [--attempts N] [--out FILE]",
        "                           deterministic wire-fault chaos run against an",
        "                           in-process server; asserts conservation",
        "  stats   [scale]          per-stage latency p50/p99, memo counters,",
        "                           trustd serving path, metrics dump",
        "  trace   <out.jsonl> [scale]",
        "                           run a faulted study under the obs trace and",
        "                           write the schema-validated event log",
        "  bench-study [scale] [--out FILE]",
        "                           time study stages vs 1 thread; write BENCH_study.json",
        "  bench-snap [scale] [--out FILE]",
        "                           time cold generation vs snapshot load; write BENCH_snap.json",
        "global: --threads N        pin the execution-pool width (or TANGLED_THREADS)",
        "global: --metrics-dump     print the metrics registry to stderr on exit",
    ]
    .join("\n")
}

/// Strip a global `--threads N` flag (anywhere in the argument list) and
/// apply it as the pool-width override.
fn extract_threads(args: &mut Vec<String>) -> Result<(), CliError> {
    let Some(pos) = args.iter().position(|a| a == "--threads") else {
        return Ok(());
    };
    if pos + 1 >= args.len() {
        return Err(CliError::Usage("--threads needs a value".into()));
    }
    let value = args[pos + 1].clone();
    let threads: usize = value
        .parse()
        .ok()
        .filter(|&n| n > 0)
        .ok_or_else(|| {
            CliError::Usage(format!("invalid --threads '{value}': want an integer > 0"))
        })?;
    args.drain(pos..=pos + 1);
    tangled_mass::exec::set_thread_override(Some(threads));
    Ok(())
}

/// Strip a global `--metrics-dump` flag (anywhere in the argument list).
fn extract_metrics_dump(args: &mut Vec<String>) -> bool {
    let Some(pos) = args.iter().position(|a| a == "--metrics-dump") else {
        return false;
    };
    args.remove(pos);
    true
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let metrics_dump = extract_metrics_dump(&mut args);
    let result = extract_threads(&mut args).and_then(|()| match args.first().map(String::as_str) {
        Some("tables") => no_extra(&args, 2, "tables [scale]")
            .and_then(|()| parse_scale(args.get(1)))
            .and_then(cmd_tables),
        Some("figures") => no_extra(&args, 2, "figures [scale]")
            .and_then(|()| parse_scale(args.get(1)))
            .and_then(cmd_figures),
        Some("export") => no_extra(&args, 2, "export [scale]")
            .and_then(|()| parse_scale(args.get(1)))
            .and_then(cmd_export),
        Some("mkstore") => no_extra(&args, 3, "mkstore <version> <dir>")
            .and_then(|()| cmd_mkstore(args.get(1), args.get(2))),
        Some("audit") => no_extra(&args, 3, "audit <dir> <version>")
            .and_then(|()| cmd_audit(args.get(1), args.get(2))),
        Some("probe") => no_extra(&args, 1, "probe").and_then(|()| cmd_probe()),
        Some("snap") => cmd_snap(&args[1..]),
        Some("serve") => cmd_serve(args.get(1), &args[2..]),
        Some("loadgen") => cmd_loadgen(args.get(1), &args[2..]),
        Some("disparity") if args.iter().any(|a| a == "--from" || a == "--to") => {
            cmd_disparity_drift(&args[1..])
        }
        Some("disparity") => no_extra(&args, 2, "disparity [scale]")
            .and_then(|()| parse_scale(args.get(1)))
            .and_then(cmd_disparity),
        Some("mitm") => cmd_mitm(&args[1..]),
        Some("chaos") => cmd_chaos(&args[1..]),
        Some("stats") => no_extra(&args, 2, "stats [scale]")
            .and_then(|()| parse_scale(args.get(1)))
            .and_then(cmd_stats),
        Some("trace") => no_extra(&args, 3, "trace <out.jsonl> [scale]")
            .and_then(|()| cmd_trace(args.get(1), args.get(2))),
        Some("bench-study") => cmd_bench_study(&args[1..]),
        Some("bench-snap") => cmd_bench_snap(&args[1..]),
        Some(other) => Err(CliError::Usage(format!(
            "unknown subcommand '{other}'\n{}",
            usage()
        ))),
        None => Err(CliError::Usage(usage())),
    });
    if metrics_dump {
        eprint!("{}", obs::registry().dump_text());
    }
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("{msg}");
            ExitCode::from(2)
        }
        Err(CliError::Failure(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Reject stray positional arguments: anything beyond the first `max`
/// (subcommand included) exits 2 with a one-line usage string, matching
/// the serve/loadgen flag convention.
fn no_extra(args: &[String], max: usize, usage_line: &str) -> Result<(), CliError> {
    match args.get(max) {
        Some(extra) => Err(CliError::Usage(format!(
            "unexpected argument '{extra}' — usage: tangled {usage_line}"
        ))),
        None => Ok(()),
    }
}

/// Parse an optional scale argument strictly: absent → 0.5; present but
/// non-numeric, non-finite, or ≤ 0 → usage error.
fn parse_scale(arg: Option<&String>) -> Result<f64, CliError> {
    let Some(text) = arg else {
        return Ok(0.5);
    };
    match text.parse::<f64>() {
        Ok(scale) if scale.is_finite() && scale > 0.0 => Ok(scale),
        _ => Err(CliError::Usage(format!(
            "invalid scale '{text}': want a number > 0"
        ))),
    }
}

fn parse_store(name: &str) -> Result<ReferenceStore, CliError> {
    match name {
        "4.1" => Ok(ReferenceStore::Aosp41),
        "4.2" => Ok(ReferenceStore::Aosp42),
        "4.3" => Ok(ReferenceStore::Aosp43),
        "4.4" => Ok(ReferenceStore::Aosp44),
        "mozilla" => Ok(ReferenceStore::Mozilla),
        "ios7" => Ok(ReferenceStore::Ios7),
        other => Err(CliError::Usage(format!(
            "unknown store '{other}' (want 4.1|4.2|4.3|4.4|mozilla|ios7)"
        ))),
    }
}

fn cmd_tables(scale: f64) -> Result<(), CliError> {
    eprintln!("generating study at scale {scale}…");
    let study = Study::new(scale, scale.max(0.25));
    println!("{}", tables::dataset_summary(&study.population).render());
    print!("{}", tables::render_all(&study));
    Ok(())
}

fn cmd_figures(scale: f64) -> Result<(), CliError> {
    eprintln!("generating study at scale {scale}…");
    let study = Study::new(scale, scale.max(0.25));
    println!("{}", figures::figure1_render(&study.population, 20));
    println!("{}", figures::figure2_render(&study.population, 20));
    println!("{}", figures::figure3_render(&study.validation));
    Ok(())
}

fn cmd_export(scale: f64) -> Result<(), CliError> {
    eprintln!("generating study at scale {scale}…");
    let study = Study::new(scale, scale.max(0.25));
    let doc = export::export_study(&study);
    println!(
        "{}",
        serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?
    );
    Ok(())
}

fn cmd_mkstore(version: Option<&String>, dir: Option<&String>) -> Result<(), CliError> {
    let version = version.ok_or_else(|| CliError::Usage("mkstore needs a store name".into()))?;
    let dir = dir.ok_or_else(|| CliError::Usage("mkstore needs an output directory".into()))?;
    let store = parse_store(version)?.cached();
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let files = to_cacerts_pem(&store);
    for f in &files {
        let path = std::path::Path::new(dir).join(&f.name);
        std::fs::write(&path, &f.der).map_err(|e| e.to_string())?;
    }
    eprintln!("wrote {} certificates to {dir}", files.len());
    Ok(())
}

fn cmd_audit(dir: Option<&String>, version: Option<&String>) -> Result<(), CliError> {
    let dir = dir.ok_or_else(|| CliError::Usage("audit needs a cacerts directory".into()))?;
    let version =
        version.ok_or_else(|| CliError::Usage("audit needs a baseline store name".into()))?;
    let baseline = parse_store(version)?.cached();

    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        if !entry.file_type().map_err(|e| e.to_string())?.is_file() {
            continue;
        }
        let name = entry.file_name().to_string_lossy().into_owned();
        let der = std::fs::read(entry.path()).map_err(|e| e.to_string())?;
        files.push(CacertsFile { name, der });
    }
    files.sort_by(|a, b| a.name.cmp(&b.name));
    let observed = from_cacerts(dir, &files, AnchorSource::Unknown)
        .map_err(|e| format!("reading {dir}: {e}"))?;
    let report = audit(
        &baseline,
        &observed,
        Time::date(2014, 2, 1).expect("valid date"),
    );
    print!("{}", report.render());
    Ok(())
}

fn cmd_probe() -> Result<(), CliError> {
    println!("{}", tables::table6().render());
    let pop = Population::generate(&PopulationSpec::scaled(0.1));
    let victim = survey::nexus7_victim(&pop).ok_or("no Nexus 7 in population")?;
    let proxied: HashSet<_> = [victim].into_iter().collect();
    eprintln!(
        "surveying {} sessions with one proxied device…",
        pop.sessions.len()
    );
    let report = survey::survey(&pop, &proxied);
    println!(
        "survey: {} of {} sessions exposed interception ({} device(s))",
        report.flagged.len(),
        report.sessions,
        report.flagged_devices().len()
    );
    for f in report.flagged.iter().take(3) {
        println!(
            "  session {} on device {:?}: {} targets re-signed by {}",
            f.session,
            f.device,
            f.intercepted_targets,
            f.interfering_issuer.as_deref().unwrap_or("?")
        );
    }
    Ok(())
}

fn cmd_snap(args: &[String]) -> Result<(), CliError> {
    let sub = args.first().ok_or_else(|| {
        CliError::Usage("snap needs a mode: write|read|verify|delta|materialize".into())
    })?;
    match sub.as_str() {
        "delta" => return cmd_snap_delta(&args[1..]),
        "materialize" => return cmd_snap_materialize(&args[1..]),
        _ => {}
    }
    let file = args
        .get(1)
        .ok_or_else(|| CliError::Usage(format!("snap {sub} needs a file path")))?;
    match sub.as_str() {
        "write" => {
            no_extra(args, 3, "snap write <file> [scale]")?;
            let scale = parse_scale(args.get(2))?;
            eprintln!("generating study at scale {scale}…");
            let study = Study::new(scale, scale.max(0.25));
            let summary =
                write_study(&study, file).map_err(|e| format!("writing {file}: {e}"))?;
            eprintln!("snapshot: {} bytes -> {file}", summary.bytes);
            for (name, len, checksum) in &summary.sections {
                eprintln!("  {name:<12} {len:>10} bytes  fnv1a {checksum:016x}");
            }
            Ok(())
        }
        "read" => {
            no_extra(args, 2, "snap read <file>")?;
            eprintln!("loading study from {file}…");
            let study = load_study(file).map_err(|e| format!("loading {file}: {e}"))?;
            println!("{}", tables::dataset_summary(&study.population).render());
            print!("{}", tables::render_all(&study));
            Ok(())
        }
        "verify" => {
            no_extra(args, 2, "snap verify <file>")?;
            let snap = Snapshot::open(file).map_err(|e| format!("opening {file}: {e}"))?;
            let report = snap.verify_report();
            let mut damaged = 0usize;
            for row in &report {
                match &row.result {
                    Ok(()) => println!(
                        "  {:<12} {:>10} bytes  fnv1a {:016x}  ok",
                        row.name, row.len, row.actual
                    ),
                    Err(e) => {
                        damaged += 1;
                        println!(
                            "  {:<12} {:>10} bytes  fnv1a {:016x} (recorded {:016x})  {e}",
                            row.name, row.len, row.actual, row.expected
                        );
                    }
                }
            }
            println!(
                "verify: {} bytes, {} section(s), {damaged} damaged",
                snap.size(),
                report.len()
            );
            if damaged > 0 {
                return Err(format!("{damaged} damaged section(s) in {file}").into());
            }
            Ok(())
        }
        other => Err(CliError::Usage(format!(
            "unknown snap mode '{other}' (want write|read|verify|delta|materialize)"
        ))),
    }
}

/// Split a snap sub-mode's arguments into positionals and an `--out`
/// destination.
fn split_out_flag(args: &[String]) -> Result<(Vec<&String>, Option<String>), CliError> {
    let mut positional = Vec::new();
    let mut out = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out = Some(
                    it.next()
                        .cloned()
                        .ok_or_else(|| CliError::Usage("--out needs a value".into()))?,
                );
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown snap flag '{flag}'")));
            }
            _ => positional.push(arg),
        }
    }
    Ok((positional, out))
}

/// Parse a trailing epoch argument.
fn parse_epoch(text: &str) -> Result<u64, CliError> {
    text.parse().map_err(|_| {
        CliError::Usage(format!("invalid epoch '{text}': want an unsigned integer"))
    })
}

/// `tangled snap delta <base> <target> <epoch> --out <file>` — encode
/// `target`'s sections as a delta over `base`: sections whose checksum
/// matches the base dedup away, the rest ride in the delta.
fn cmd_snap_delta(args: &[String]) -> Result<(), CliError> {
    let (pos, out) = split_out_flag(args)?;
    let [base_path, target_path, epoch] = pos.as_slice() else {
        return Err(CliError::Usage(
            "usage: tangled snap delta <base> <target> <epoch> --out <file>".into(),
        ));
    };
    let epoch = parse_epoch(epoch)?;
    let out = out.ok_or_else(|| CliError::Usage("snap delta needs --out <file>".into()))?;
    let base =
        std::fs::read(base_path.as_str()).map_err(|e| format!("reading {base_path}: {e}"))?;
    let target = Snapshot::open(target_path).map_err(|e| format!("opening {target_path}: {e}"))?;
    let mut sections = Vec::new();
    for entry in target.entries() {
        let id = tangled_mass::snap::SectionId::from_tag(entry.tag)
            .ok_or_else(|| format!("{target_path}: unknown section tag {}", entry.tag))?;
        let body = target
            .entry_body(entry)
            .map_err(|e| format!("reading {target_path}: {e}"))?;
        sections.push((id, body.to_vec()));
    }
    let delta = tangled_mass::snap::encode_delta(&sections, &base, epoch)
        .map_err(|e| format!("encoding delta: {e}"))?;
    std::fs::write(&out, &delta.bytes).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!(
        "delta: {} bytes -> {out} (epoch {epoch}, base {:016x})",
        delta.bytes.len(),
        tangled_mass::snap::file_id(&base)
    );
    eprintln!("  changed: {}", delta.changed.join(", "));
    eprintln!(
        "  reused:  {}",
        if delta.reused.is_empty() {
            "(none)".to_owned()
        } else {
            delta.reused.join(", ")
        }
    );
    Ok(())
}

/// `tangled snap materialize <chain...> <epoch> [--out <file>]` —
/// materialise a base+delta chain at a point in time; verify every link
/// and, with `--out`, write the reassembled full snapshot.
fn cmd_snap_materialize(args: &[String]) -> Result<(), CliError> {
    let (pos, out) = split_out_flag(args)?;
    if pos.len() < 2 {
        return Err(CliError::Usage(
            "usage: tangled snap materialize <chain...> <epoch> [--out <file>]".into(),
        ));
    }
    let epoch = parse_epoch(pos[pos.len() - 1])?;
    let chain: Vec<String> = pos[..pos.len() - 1].iter().map(|s| s.to_string()).collect();
    let m = tangled_mass::snap::materialize_chain(&chain, epoch)
        .map_err(|e| format!("materialising chain: {e}"))?;
    eprintln!(
        "materialize: {} of {} chain file(s) applied; epoch {}; {} bytes",
        m.applied,
        chain.len(),
        m.epoch,
        m.bytes.len()
    );
    let snap =
        Snapshot::parse(m.bytes.clone()).map_err(|e| format!("parsing materialised bytes: {e}"))?;
    for entry in snap.entries() {
        let name = tangled_mass::snap::SectionId::from_tag(entry.tag)
            .map(tangled_mass::snap::SectionId::name)
            .unwrap_or("unknown");
        eprintln!(
            "  {name:<12} {:>10} bytes  fnv1a {:016x}",
            entry.len, entry.checksum
        );
    }
    if let Some(out) = out {
        std::fs::write(&out, &m.bytes).map_err(|e| format!("writing {out}: {e}"))?;
        println!("materialize: wrote {out} at epoch {}", m.epoch);
    }
    Ok(())
}

fn cmd_serve(addr: Option<&String>, rest: &[String]) -> Result<(), CliError> {
    let addr = addr.ok_or_else(|| {
        CliError::Usage("serve needs a listen address (e.g. 127.0.0.1:7433)".into())
    })?;
    let mut snapshot: Option<String> = None;
    let mut journal_path: Option<String> = None;
    let mut compact_threshold: Option<u64> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = |v: Option<&String>| {
            v.cloned()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--snapshot" => snapshot = Some(value(it.next())?),
            "--journal" => journal_path = Some(value(it.next())?),
            "--compact-threshold" => {
                let v = value(it.next())?;
                let bytes: u64 = v.parse().map_err(|_| {
                    CliError::Usage(format!("invalid --compact-threshold '{v}': want bytes > 0"))
                })?;
                if bytes == 0 {
                    return Err(CliError::Usage(
                        "--compact-threshold must be > 0 bytes".into(),
                    ));
                }
                compact_threshold = Some(bytes);
            }
            other => return Err(CliError::Usage(format!("unknown serve flag '{other}'"))),
        }
    }
    if compact_threshold.is_some() && journal_path.is_none() {
        return Err(CliError::Usage(
            "--compact-threshold needs --journal (compaction folds the swap journal)".into(),
        ));
    }

    // A prior compaction leaves a checkpoint beside the journal; when one
    // exists, warm start from the base+checkpoint chain so the folded
    // swap history is already applied before the journal tail replays.
    let ckpt_path = journal_path.as_ref().map(|p| format!("{p}.ckpt"));
    let has_ckpt = ckpt_path
        .as_ref()
        .is_some_and(|p| std::path::Path::new(p).exists());
    let mut chain_state: Option<TrustState> = None;
    let mut chain_index: Option<StoreIndex> = None;
    if has_ckpt {
        let ckpt = ckpt_path.clone().expect("checked above");
        let mut chain: Vec<String> = Vec::new();
        if let Some(path) = &snapshot {
            chain.push(path.clone());
        }
        chain.push(ckpt.clone());
        eprintln!("warm-starting from checkpoint chain {}…", chain.join(" + "));
        let start = index_from_chain(&chain).map_err(|e| format!("materialising {ckpt}: {e}"))?;
        if let Some(state) = &start.state {
            eprintln!(
                "checkpoint: folded {} profile(s); epoch {}",
                state.records.len(),
                state.epoch
            );
        }
        chain_state = start.state;
        chain_index = Some(start.index);
    }

    let service = match (chain_index, &snapshot) {
        (Some(index), _) => Arc::new(TrustService::with_index(index, DEFAULT_CACHE_CAPACITY)),
        (None, Some(path)) => {
            eprintln!("warm-starting store profiles from {path}…");
            // Degraded-mode warm start: individually corrupt sections are
            // quarantined and the server runs without them; only
            // container-level damage refuses to start.
            let start = degraded_index_from_snapshot(path)
                .map_err(|e| format!("loading {path}: {e}"))?;
            if start.fallback {
                eprintln!(
                    "warm start degraded: store section unusable; serving \
                     cold-generated reference profiles"
                );
            }
            for (unit, label) in &start.quarantined {
                eprintln!("warm start quarantined '{unit}': {label}");
            }
            let service = Arc::new(TrustService::with_index(
                start.index,
                DEFAULT_CACHE_CAPACITY,
            ));
            for (unit, label) in &start.quarantined {
                service.stats().record_degraded(unit, label);
            }
            service
        }
        (None, None) => {
            eprintln!("loading reference store profiles…");
            Arc::new(TrustService::new(DEFAULT_CACHE_CAPACITY))
        }
    };
    if let Some(path) = &journal_path {
        let (journal, records, recovery) =
            Journal::open(path).map_err(|e| format!("opening {path}: {e}"))?;
        if recovery.truncated {
            eprintln!(
                "journal: truncated a torn final record ({} bytes dropped)",
                recovery.dropped_bytes
            );
        }
        let summary = replay_journal(service.index(), &records)
            .map_err(|e| format!("replaying {path}: {e}"))?;
        if summary.skipped > 0 {
            eprintln!(
                "journal: skipped {} swap(s) the checkpoint already covers",
                summary.skipped
            );
        }
        eprintln!(
            "journal: replayed {} swap(s); epoch {}",
            summary.replayed,
            service.index().current_epoch()
        );
        service.attach_journal(journal);
        if let Some(threshold) = compact_threshold {
            // Compaction folds over everything the index already holds:
            // the checkpoint's state (if any) plus the replayed tail. The
            // base snapshot rides along so the checkpoint stays a
            // self-describing delta over it.
            let base = match &snapshot {
                Some(path) => {
                    Some(std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?)
                }
                None => None,
            };
            let mut state = chain_state.unwrap_or_default();
            state.absorb(&records);
            let ckpt = ckpt_path.expect("journal path implies checkpoint path");
            eprintln!("compaction: armed at {threshold} journal byte(s); checkpoint {ckpt}");
            service.configure_compaction(ckpt, threshold, base, state);
        }
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    // The flushed "trustd listening on" line is what the loadgen smoke
    // test and perfbench parse. The bound server must stay in scope for
    // the lifetime of the process.
    let server = EventServer::bind(addr.as_str(), service, workers)
        .map_err(|e| format!("binding {addr}: {e}"))?;
    println!(
        "trustd listening on {} ({workers} workers, event core)",
        server.local_addr()
    );
    // Serve until killed.
    loop {
        std::thread::park();
    }
}

/// What `loadgen --op` plans: one of the trustd request mixes, or the
/// interception scenario plan.
#[derive(Clone, Copy)]
enum LoadOp {
    Replay(ReplayOp),
    Mitm,
}

/// `loadgen`'s flags, parsed. A repeated flag overrides the earlier one.
struct LoadgenArgs {
    sessions: usize,
    seed: u64,
    op: LoadOp,
    pipeline: usize,
    chaos_rate: f64,
    chaos_seed: u64,
    swaps: Option<usize>,
}

fn parse_op(v: &str) -> Result<LoadOp, CliError> {
    Ok(match v {
        "mixed" => LoadOp::Replay(ReplayOp::Mixed),
        "compare" => LoadOp::Replay(ReplayOp::Compare),
        "batch" => LoadOp::Replay(ReplayOp::Batch),
        "mitm" => LoadOp::Mitm,
        other => {
            return Err(CliError::Usage(format!(
                "invalid --op '{other}': want mixed|compare|batch|mitm"
            )))
        }
    })
}

fn parse_loadgen(rest: &[String]) -> Result<LoadgenArgs, CliError> {
    let mut args = LoadgenArgs {
        sessions: 100,
        seed: 2014,
        op: LoadOp::Replay(ReplayOp::Mixed),
        pipeline: 1,
        chaos_rate: 0.0,
        chaos_seed: 7,
        swaps: None,
    };
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = |v: Option<&String>| {
            v.cloned()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--sessions" => {
                let v = value(it.next())?;
                args.sessions = v.parse().map_err(|_| {
                    CliError::Usage(format!("invalid --sessions '{v}': want an integer > 0"))
                })?;
                if args.sessions == 0 {
                    return Err(CliError::Usage("--sessions must be > 0".into()));
                }
            }
            "--seed" => {
                let v = value(it.next())?;
                args.seed = v.parse().map_err(|_| {
                    CliError::Usage(format!("invalid --seed '{v}': want an unsigned integer"))
                })?;
            }
            "--op" => args.op = parse_op(&value(it.next())?)?,
            "--pipeline" => {
                let v = value(it.next())?;
                args.pipeline = v.parse().ok().filter(|&n: &usize| n > 0).ok_or_else(|| {
                    CliError::Usage(format!("invalid --pipeline '{v}': want an integer > 0"))
                })?;
            }
            "--chaos-rate" => {
                let v = value(it.next())?;
                args.chaos_rate = match v.parse::<f64>() {
                    Ok(r) if (0.0..=1.0).contains(&r) => r,
                    _ => {
                        return Err(CliError::Usage(format!(
                            "invalid --chaos-rate '{v}': want a number in [0, 1]"
                        )))
                    }
                };
            }
            "--chaos-seed" => {
                let v = value(it.next())?;
                args.chaos_seed = v.parse().map_err(|_| {
                    CliError::Usage(format!(
                        "invalid --chaos-seed '{v}': want an unsigned integer"
                    ))
                })?;
            }
            "--swaps" => {
                let v = value(it.next())?;
                args.swaps = Some(v.parse().ok().filter(|&n: &usize| n > 0).ok_or_else(|| {
                    CliError::Usage(format!("invalid --swaps '{v}': want an integer > 0"))
                })?);
            }
            other => {
                return Err(CliError::Usage(format!("unknown loadgen flag '{other}'")));
            }
        }
    }
    Ok(args)
}

fn cmd_loadgen(addr: Option<&String>, rest: &[String]) -> Result<(), CliError> {
    let addr = addr
        .ok_or_else(|| CliError::Usage("loadgen needs a server address".into()))?
        .clone();
    let args = parse_loadgen(rest)?;
    if let Some(swaps) = args.swaps {
        return drive_swaps(&addr, swaps);
    }
    let (sessions, seed) = (args.sessions, args.seed);
    let link = if args.chaos_rate > 0.0 {
        if args.pipeline > 1 {
            return Err(CliError::Usage(
                "--pipeline applies to the clean replay path; the chaos path \
                 retries one request at a time"
                    .into(),
            ));
        }
        Link::Lossy {
            seed: args.chaos_seed,
            rate: args.chaos_rate,
        }
    } else {
        Link::Clean {
            depth: args.pipeline,
            seed,
        }
    };

    // --op only chooses the plan; everything after it is one path.
    let (requests, scenario_spec) = match args.op {
        LoadOp::Replay(op) => (
            queries_for(&ReplaySpec::new(seed, sessions).with_op(op)),
            None,
        ),
        LoadOp::Mitm => {
            let spec = scenario::ScenarioSpec::for_sessions(sessions, seed);
            let plan = scenario::plan(&spec).map_err(|e| format!("scenario: {e}"))?;
            (plan, Some(spec))
        }
    };
    eprintln!("computing offline verdicts for {} requests…", requests.len());
    let expected = offline_verdicts(&requests);
    eprintln!(
        "replaying {} requests against {addr} ({link:?})…",
        requests.len()
    );
    let outcome = drive(addr.as_str(), &requests, link).map_err(CliError::Failure)?;

    let throughput = outcome.requests as f64 / outcome.elapsed.as_secs_f64().max(1e-9);
    let hits = outcome.stats["cache"]["hits"].as_u64().unwrap_or(0);
    let misses = outcome.stats["cache"]["misses"].as_u64().unwrap_or(0);
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    println!(
        "loadgen: {} requests in {:.3}s ({throughput:.0} req/s)",
        outcome.requests,
        outcome.elapsed.as_secs_f64()
    );
    // A clean run answers every request over a single keep-alive
    // connection; a lossy one reconnects after each breaking fault.
    println!(
        "loadgen: {} connection(s) for {} requests{}",
        outcome.connects,
        outcome.requests,
        if matches!(link, Link::Clean { .. }) {
            " (keep-alive)"
        } else {
            ""
        }
    );
    if let Link::Lossy { .. } = link {
        println!(
            "loadgen: chaos: {} fault(s) injected, {} retries, {} busy",
            outcome.faults, outcome.retries, outcome.busy
        );
    }
    println!(
        "loadgen: cache hit rate {:.1}% ({hits} hits / {misses} misses)",
        hit_rate * 100.0
    );
    println!("loadgen: protocol errors: {}", outcome.wire_errors);
    if outcome.wire_errors > 0 {
        return Err(format!("{} protocol errors", outcome.wire_errors).into());
    }

    if let Some(spec) = &scenario_spec {
        let report = scenario::tally(spec, &outcome.verdicts);
        let (total, blocked, intercepted, whitelisted) = report.totals();
        let status = if report.conserved() { "ok" } else { "VIOLATED" };
        println!(
            "loadgen: conservation: {status} (sessions {total} = blocked {blocked} + \
             intercepted {intercepted} + whitelisted {whitelisted})"
        );
        if !report.conserved() {
            return Err("served scenario ledger violated conservation".into());
        }
    }
    if let Some(diverged) = (0..expected.len().max(outcome.verdicts.len()))
        .find(|&i| outcome.verdicts.get(i) != expected.get(i))
    {
        return Err(format!(
            "served verdicts diverge from the offline run (first at request {diverged})"
        )
        .into());
    }
    match args.op {
        LoadOp::Mitm => {
            println!("loadgen: probe_session replies match the offline scenario exactly")
        }
        LoadOp::Replay(op) => {
            println!("loadgen: verdicts match the offline study exactly");
            match op {
                ReplayOp::Mixed => {}
                ReplayOp::Compare => {
                    println!("loadgen: compare replies match the offline verdict vectors exactly")
                }
                ReplayOp::Batch => println!(
                    "loadgen: batch replies match the offline study exactly (depth {BATCH_DEPTH})"
                ),
            }
        }
    }
    println!(
        "loadgen: verdict-vector fingerprint: {:016x}",
        verdict_fingerprint(&outcome.verdicts)
    );
    Ok(())
}

/// `loadgen --swaps N`: drive N swap requests against a fresh `canary`
/// profile, rotating its single anchor so every swap changes the store.
/// Touching only a profile of our own keeps the standard profiles —
/// and any `--op compare` fingerprints against them — unchanged.
fn drive_swaps(addr: &str, swaps: usize) -> Result<(), CliError> {
    use tangled_mass::pki::RootStore;

    let anchors = ReferenceStore::Aosp41.cached().enabled_certificates();
    if anchors.is_empty() {
        return Err("reference store has no enabled anchors".into());
    }
    let mut client =
        TrustClient::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    eprintln!("driving {swaps} swap(s) of profile 'canary' against {addr}…");
    let mut epoch = 0u64;
    for i in 0..swaps {
        let mut store = RootStore::new("canary");
        store.add_cert(anchors[i % anchors.len()].clone(), AnchorSource::Unknown);
        let request = Request::Swap {
            profile: "canary".to_owned(),
            snapshot: store.snapshot(),
        };
        match client.call(&request).map_err(|e| format!("swap {i}: {e}"))? {
            Response::Swap { epoch: e, .. } => epoch = e,
            other => return Err(format!("swap {i}: unexpected reply {other:?}").into()),
        }
    }
    println!("loadgen: {swaps} swap(s) applied to profile 'canary'; final epoch {epoch}");
    Ok(())
}

/// `tangled disparity [scale]` — compute and print the cross-ecosystem
/// disparity report. The fingerprint line matches what `loadgen --op
/// compare` prints when its session count maps to the same corpus scale
/// (via [`tangled_mass::trustd::scale_for_sessions`]), tying the offline
/// report to served replies with one grep.
fn cmd_disparity(scale: f64) -> Result<(), CliError> {
    let threads = thread_count();
    eprintln!("computing disparity report at scale {scale} ({threads} threads)…");
    let report = tangled_mass::disparity::compute(scale);
    print!("{}", report.render());
    Ok(())
}

fn cmd_mitm(rest: &[String]) -> Result<(), CliError> {
    let mut seed = 2014u64;
    let mut scale_arg: Option<String> = None;
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage("--seed needs a value".into()))?;
                seed = v.parse().map_err(|_| {
                    CliError::Usage(format!("invalid --seed '{v}': want an unsigned integer"))
                })?;
            }
            flag if flag.starts_with("--") => {
                return Err(CliError::Usage(format!("unknown mitm flag '{flag}'")));
            }
            _ => {
                if scale_arg.replace(arg.clone()).is_some() {
                    return Err(CliError::Usage("mitm [scale] [--seed S]".into()));
                }
            }
        }
    }
    let scale = parse_scale(scale_arg.as_ref())?;
    let spec = scenario::ScenarioSpec::for_scale(scale, seed);
    eprintln!(
        "running interception scenarios at scale {scale}: {} clients x {} strategies, \
         seed {seed} ({} threads)…",
        spec.clients,
        spec.strategies.len(),
        thread_count()
    );
    let report =
        scenario::compute(&spec).map_err(|e| CliError::Failure(format!("scenario: {e}")))?;
    print!("{}", report.render());
    if !report.conserved() {
        return Err("scenario ledger violated conservation".into());
    }
    Ok(())
}

/// `tangled disparity --from a.snap --to b.snap` — longitudinal drift
/// between two point-in-time store states: per-profile anchor churn,
/// Jaccard similarity, and the exactly-k membership migration.
fn cmd_disparity_drift(args: &[String]) -> Result<(), CliError> {
    let mut from: Option<String> = None;
    let mut to: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = |v: Option<&String>| {
            v.cloned()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--from" => from = Some(value(it.next())?),
            "--to" => to = Some(value(it.next())?),
            other => {
                return Err(CliError::Usage(format!(
                    "unknown disparity drift flag '{other}'"
                )))
            }
        }
    }
    let from = from.ok_or_else(|| CliError::Usage("drift needs --from <snap>".into()))?;
    let to = to.ok_or_else(|| CliError::Usage("drift needs --to <snap>".into()))?;
    let from_snap = Snapshot::open(&from).map_err(|e| format!("opening {from}: {e}"))?;
    let to_snap = Snapshot::open(&to).map_err(|e| format!("opening {to}: {e}"))?;
    eprintln!("computing drift {from} -> {to}…");
    let report = tangled_mass::disparity::compute_drift(&from_snap, &to_snap)
        .map_err(|e| format!("computing drift: {e}"))?;
    print!("{}", report.render());
    Ok(())
}

fn cmd_chaos(rest: &[String]) -> Result<(), CliError> {
    let mut spec = ChaosSpec::default();
    let mut out: Option<String> = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let value = |v: Option<&String>| {
            v.cloned()
                .ok_or_else(|| CliError::Usage(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--seed" => {
                let v = value(it.next())?;
                spec.seed = v.parse().map_err(|_| {
                    CliError::Usage(format!("invalid --seed '{v}': want an unsigned integer"))
                })?;
            }
            "--requests" => {
                let v = value(it.next())?;
                spec.requests = v
                    .parse()
                    .ok()
                    .filter(|&n: &usize| n > 0)
                    .ok_or_else(|| {
                        CliError::Usage(format!(
                            "invalid --requests '{v}': want an integer > 0"
                        ))
                    })?;
            }
            "--rate" => {
                let v = value(it.next())?;
                spec.rate = match v.parse::<f64>() {
                    Ok(r) if (0.0..=1.0).contains(&r) => r,
                    _ => {
                        return Err(CliError::Usage(format!(
                            "invalid --rate '{v}': want a number in [0, 1]"
                        )))
                    }
                };
            }
            "--busy-rate" => {
                let v = value(it.next())?;
                spec.busy_rate = match v.parse::<f64>() {
                    Ok(r) if (0.0..=1.0).contains(&r) => r,
                    _ => {
                        return Err(CliError::Usage(format!(
                            "invalid --busy-rate '{v}': want a number in [0, 1]"
                        )))
                    }
                };
            }
            "--attempts" => {
                let v = value(it.next())?;
                spec.max_attempts = v
                    .parse()
                    .ok()
                    .filter(|&n: &u32| n > 0)
                    .ok_or_else(|| {
                        CliError::Usage(format!(
                            "invalid --attempts '{v}': want an integer > 0"
                        ))
                    })?;
            }
            "--out" => out = Some(value(it.next())?),
            other => return Err(CliError::Usage(format!("unknown chaos flag '{other}'"))),
        }
    }

    eprintln!(
        "chaos: seed {} · {} requests · fault rate {} · busy rate {} · {} attempts",
        spec.seed,
        spec.requests,
        spec.rate,
        spec.busy_rate,
        spec.max_attempts,
    );
    let report = chaos::run(&spec);
    match &out {
        Some(path) => {
            std::fs::write(path, &report.ledger).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("chaos: ledger -> {path}");
        }
        None => print!("{}", report.ledger),
    }
    println!(
        "chaos: issued={} answered={} shed={} failed={} violations={} retries={}",
        report.issued, report.answered, report.shed, report.failed, report.violations,
        report.retries
    );
    for (label, n) in &report.fault_counts {
        println!("chaos: fault {label} x{n}");
    }
    if !report.conserved() {
        return Err(format!(
            "conservation invariant violated: {} request(s) unaccounted",
            report.violations
        )
        .into());
    }
    println!("chaos: conservation invariant holds");
    Ok(())
}

fn cmd_stats(scale: f64) -> Result<(), CliError> {
    let threads = thread_count();
    let eco_scale = scale.max(0.25);

    // Run every pipeline stage once: a faulted study exercises ecosystem
    // generation, population synthesis, fault injection/quarantine, and —
    // via assembly — the validation index, each recording into the obs
    // registry as it goes.
    eprintln!("generating faulted study at scale {scale} ({threads} threads)…");
    sig_memo_clear();
    let plan = FaultPlan::new(404).with_rate(0.05);
    let study = Study::with_faults(scale, eco_scale, &plan);

    // Re-build the index with per-shard latencies for the p50/p99 lines.
    let (idx, latencies) = ValidationIndex::build_with_latencies(&study.ecosystem);
    let hist = LatencyHistogram::default();
    for &us in &latencies {
        hist.record(us);
    }

    // Exercise the trustd serving path in-process: one classify over an
    // AOSP anchor, then the stats document — enough to populate the
    // per-kind request counters without a socket.
    let service = TrustService::new(DEFAULT_CACHE_CAPACITY);
    let anchor_der = ReferenceStore::Aosp44
        .cached()
        .iter()
        .next()
        .map(|a| a.cert.to_der().to_vec())
        .ok_or("AOSP 4.4 reference store is empty")?;
    let _ = service.handle(&Request::Classify {
        cert: anchor_der.clone(),
    });
    let _ = service.handle(&Request::Stats);

    // Exercise the event core end-to-end over a real socket: a pipelined
    // burst plus one batched validate populates the trustd.event.* gauges
    // (registered connections, wakeups, pipeline-depth observations,
    // partial-write continuations) that the metrics dump below prints.
    let event_service = Arc::new(TrustService::new(DEFAULT_CACHE_CAPACITY));
    let profile = event_service
        .index()
        .profile_names()
        .first()
        .cloned()
        .ok_or("trustd index has no profiles")?;
    let server = EventServer::bind("127.0.0.1:0", Arc::clone(&event_service), 1)
        .map_err(|e| format!("binding event core: {e}"))?;
    let mut burst: Vec<Request> = (0..4).map(|_| Request::Stats).collect();
    burst.push(Request::BatchValidate {
        profile,
        chains: vec![vec![anchor_der.clone()], vec![anchor_der]],
    });
    let replies = {
        let mut client = TrustClient::connect(server.local_addr())
            .map_err(|e| format!("connecting event core: {e}"))?;
        client
            .pipeline(&burst)
            .map_err(|e| format!("event-core pipeline: {e}"))?
    };
    server.shutdown();
    if replies.len() != burst.len() {
        return Err(format!(
            "event core answered {} of {} pipelined requests",
            replies.len(),
            burst.len()
        )
        .into());
    }

    // The signature memo keeps its own counters; mirror them into the
    // registry as gauges so the dump is one coherent document.
    let (hits, misses) = sig_memo_counters();
    obs::registry::gauge_set("x509.sigmemo.hits", hits as i64);
    obs::registry::gauge_set("x509.sigmemo.misses", misses as i64);
    obs::registry::gauge_set("x509.sigmemo.entries", sig_memo_len() as i64);

    println!("stats: threads {threads}");
    println!(
        "stats: ecosystem {} certificates ({} non-expired)",
        idx.total(),
        idx.total_non_expired()
    );
    println!(
        "stats: validation-index build: {} shards, shard latency p50 {} us / p99 {} us",
        latencies.len(),
        hist.percentile(50),
        hist.percentile(99)
    );
    println!(
        "stats: validated {} of {} non-expired certificates",
        idx.validated_total(),
        idx.total_non_expired()
    );
    println!(
        "stats: faults: {} injected, {} quarantined",
        study.health.injected_total(),
        study.health.quarantined_total()
    );
    println!(
        "stats: trustd: served {} requests in-process, fingerprint '{}'",
        service.stats().served_total(),
        service.stats().counters_fingerprint()
    );
    println!(
        "stats: trustd event core: {} pipelined replies over one connection ({} served)",
        replies.len(),
        event_service.stats().served_total()
    );
    println!(
        "stats: signature memo: {hits} hits / {misses} misses ({} entries)",
        sig_memo_len()
    );
    println!("stats: metrics registry:");
    print!("{}", obs::registry().dump_text());
    Ok(())
}

fn cmd_trace(out: Option<&String>, scale: Option<&String>) -> Result<(), CliError> {
    let out = out.ok_or_else(|| CliError::Usage("trace needs an output path".into()))?;
    let scale = parse_scale(scale)?;
    let eco_scale = scale.max(0.25);
    let threads = thread_count();

    // One faulted study covers every traced stage: ecosystem generation,
    // population synthesis, fault injection (with quarantine events), and
    // the validation index built during assembly.
    eprintln!("tracing faulted study at scale {scale} ({threads} threads)…");
    obs::trace::begin(2014);
    sig_memo_clear();
    let plan = FaultPlan::new(404).with_rate(0.05);
    let study = Study::with_faults(scale, eco_scale, &plan);
    let lines = obs::trace::finish().ok_or("trace was not collected")?;

    let summary = obs::validate_lines(&lines)
        .map_err(|e| format!("emitted trace violates the schema: {e}"))?;
    let mut body = lines.join("\n");
    body.push('\n');
    std::fs::write(out, body).map_err(|e| format!("writing {out}: {e}"))?;

    let stages: Vec<&str> = summary.stages.iter().map(String::as_str).collect();
    println!(
        "trace: {} events, {} spans, {} quarantined unit(s) -> {out}",
        summary.events, summary.spans, summary.quarantined
    );
    println!("trace: stages: {}", stages.join(", "));
    println!(
        "trace: study: {} certs, {} sessions, {} fault(s) injected",
        study.ecosystem.len(),
        study.population.sessions.len(),
        study.health.injected_total()
    );
    Ok(())
}

/// Run `f` and return (result, wall seconds).
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

fn cmd_bench_study(rest: &[String]) -> Result<(), CliError> {
    let mut scale = 0.25f64;
    let mut out = String::from("BENCH_study.json");
    let mut it = rest.iter();
    let mut scale_seen = false;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out = it
                    .next()
                    .cloned()
                    .ok_or_else(|| CliError::Usage("--out needs a value".into()))?;
            }
            text if !text.starts_with("--") && !scale_seen => {
                scale = match text.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => s,
                    _ => {
                        return Err(CliError::Usage(format!(
                            "invalid scale '{text}': want a number > 0"
                        )))
                    }
                };
                scale_seen = true;
            }
            other => {
                return Err(CliError::Usage(format!("unknown bench-study flag '{other}'")));
            }
        }
    }

    let threads = thread_count();
    let eco_scale = scale.max(0.25);
    let eco_spec = EcosystemSpec::scaled(eco_scale);
    let pop_spec = PopulationSpec::scaled(scale);
    eprintln!("bench-study: scale {scale}, comparing 1 thread vs {threads}…");

    // Warm-up primes the process-wide CA factory (one-time RSA key
    // minting) so the stage timings measure pipeline work, not keygen.
    let _ = timed(|| Ecosystem::generate(&eco_spec));
    let _ = timed(|| Population::generate(&pop_spec));

    let mut stages = Vec::new();
    let mut record = |name: &str, t1: f64, tn: f64| {
        let speedup = t1 / tn.max(1e-9);
        eprintln!("  {name}: {t1:.3}s @1 -> {tn:.3}s @{threads} ({speedup:.2}x)");
        stages.push(json!({
            "stage": name,
            "seconds_1thread": t1,
            "seconds": tn,
            "speedup": speedup,
        }));
    };

    // Each stage runs once pinned to 1 thread and once at the ambient
    // width; the signature memo is cleared before every timed run so both
    // measure the same cold-verification work.
    set_thread_override(Some(1));
    sig_memo_clear();
    let (_, e1) = timed(|| Ecosystem::generate(&eco_spec));
    set_thread_override(Some(threads));
    sig_memo_clear();
    let (eco, en) = timed(|| Ecosystem::generate(&eco_spec));
    record("ecosystem_generate", e1, en);

    set_thread_override(Some(1));
    sig_memo_clear();
    let (_, v1) = timed(|| ValidationIndex::build(&eco));
    set_thread_override(Some(threads));
    sig_memo_clear();
    let (_, vn) = timed(|| ValidationIndex::build(&eco));
    record("validation_build", v1, vn);

    set_thread_override(Some(1));
    let (_, p1) = timed(|| Population::generate(&pop_spec));
    set_thread_override(Some(threads));
    let (_, pn) = timed(|| Population::generate(&pop_spec));
    record("population_generate", p1, pn);

    let plan = FaultPlan::new(404).with_rate(0.05);
    set_thread_override(Some(1));
    sig_memo_clear();
    let (_, f1) = timed(|| Study::with_faults(scale, eco_scale, &plan));
    set_thread_override(Some(threads));
    sig_memo_clear();
    let (_, fn_) = timed(|| Study::with_faults(scale, eco_scale, &plan));
    record("with_faults", f1, fn_);

    set_thread_override(Some(1));
    let (_, t1) = timed(StoreIndex::with_reference_profiles);
    set_thread_override(Some(threads));
    let (_, tn) = timed(StoreIndex::with_reference_profiles);
    record("trustd_preload", t1, tn);
    set_thread_override(None);

    let doc = json!({
        "benchmark": "study-pipeline",
        "scale": scale,
        "ecosystem_scale": eco_scale,
        "threads": threads,
        "stages": stages,
    });
    let rendered = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&out, format!("{rendered}\n")).map_err(|e| e.to_string())?;
    println!("bench-study: wrote {out}");
    Ok(())
}

fn cmd_bench_snap(rest: &[String]) -> Result<(), CliError> {
    let mut scale = 0.25f64;
    let mut out = String::from("BENCH_snap.json");
    let mut it = rest.iter();
    let mut scale_seen = false;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => {
                out = it
                    .next()
                    .cloned()
                    .ok_or_else(|| CliError::Usage("--out needs a value".into()))?;
            }
            text if !text.starts_with("--") && !scale_seen => {
                scale = match text.parse::<f64>() {
                    Ok(s) if s.is_finite() && s > 0.0 => s,
                    _ => {
                        return Err(CliError::Usage(format!(
                            "invalid scale '{text}': want a number > 0"
                        )))
                    }
                };
                scale_seen = true;
            }
            other => {
                return Err(CliError::Usage(format!("unknown bench-snap flag '{other}'")));
            }
        }
    }

    let threads = thread_count();
    let eco_scale = scale.max(0.25);
    eprintln!("bench-snap: scale {scale} ({threads} threads)…");

    // The cold path is everything a fresh process pays: key minting,
    // certificate synthesis, validation. The warm path parses the same
    // corpus back out of one file.
    sig_memo_clear();
    let (study, cold_s) = timed(|| Study::new(scale, eco_scale));
    let path = std::env::temp_dir().join(format!("tangled-bench-snap-{}.bin", std::process::id()));
    let path = path.to_string_lossy().into_owned();
    let (summary, write_s) = timed(|| write_study(&study, &path));
    let summary = summary.map_err(|e| format!("writing {path}: {e}"))?;
    let (loaded, load_s) = timed(|| load_study(&path));
    let loaded = loaded.map_err(|e| format!("loading {path}: {e}"))?;
    let _ = std::fs::remove_file(&path);

    // The loaded study must be indistinguishable in every rendered table.
    if tables::render_all(&loaded) != tables::render_all(&study) {
        return Err("loaded study diverges from the generated one".into());
    }

    let speedup = cold_s / load_s.max(1e-9);
    eprintln!("  cold generate: {cold_s:.3}s");
    eprintln!("  snapshot write: {write_s:.3}s ({} bytes)", summary.bytes);
    eprintln!("  snapshot load: {load_s:.3}s ({speedup:.2}x vs cold)");

    let recovery = bench_journal_recovery()?;

    let doc = json!({
        "benchmark": "snapshot",
        "scale": scale,
        "ecosystem_scale": eco_scale,
        "threads": threads,
        "snapshot_bytes": summary.bytes,
        "cold_generate_seconds": cold_s,
        "snapshot_write_seconds": write_s,
        "snapshot_load_seconds": load_s,
        "speedup": speedup,
        "journal_recovery": recovery,
    });
    let rendered = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&out, format!("{rendered}\n")).map_err(|e| e.to_string())?;
    println!("bench-snap: wrote {out}");
    Ok(())
}

/// Recovery-cost comparison: replaying an unbounded swap journal is
/// O(total swaps ever); recovering from a compacted checkpoint + empty
/// journal is O(current state). Both paths must land on the same epoch.
fn bench_journal_recovery() -> Result<Vec<serde_json::Value>, CliError> {
    use tangled_mass::pki::RootStore;

    let anchors = ReferenceStore::Aosp41.cached().enabled_certificates();
    let dir = std::env::temp_dir().join(format!("tangled-bench-journal-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    for history in [64usize, 256] {
        // A churn history: swaps rotate over four profiles so the fold
        // keeps 4 records however long the journal grows.
        let records: Vec<SwapRecord> = (0..history)
            .map(|i| {
                let mut store = RootStore::new("canary");
                store.add_cert(anchors[i % anchors.len()].clone(), AnchorSource::Unknown);
                SwapRecord {
                    profile: format!("canary-{}", i % 4),
                    epoch: 11 + i as u64,
                    store: store.snapshot(),
                }
            })
            .collect();

        let journal_path = dir.join(format!("swaps-{history}.journal"));
        let journal_path = journal_path.to_string_lossy().into_owned();
        let (mut journal, _, _) =
            Journal::open(&journal_path).map_err(|e| format!("opening {journal_path}: {e}"))?;
        for record in &records {
            journal.append(record).map_err(|e| e.to_string())?;
        }
        let journal_bytes = journal.size();
        drop(journal);

        // Unbounded: replay the full history.
        let (unbounded, unbounded_s) = timed(|| -> Result<u64, String> {
            let (_, replayed, _) =
                Journal::open(&journal_path).map_err(|e| e.to_string())?;
            let index = StoreIndex::with_standard_profiles();
            replay_journal(&index, &replayed).map_err(|e| e.to_string())?;
            Ok(index.current_epoch())
        });
        let unbounded_epoch = unbounded?;

        // Compacted: fold the history into a checkpoint, truncate the
        // journal, then recover from checkpoint + empty journal.
        let state = TrustState::fold(&records);
        let ckpt = encode_checkpoint(None, &state).map_err(|e| e.to_string())?;
        let ckpt_path = dir.join(format!("swaps-{history}.journal.ckpt"));
        let ckpt_path = ckpt_path.to_string_lossy().into_owned();
        std::fs::write(&ckpt_path, &ckpt.bytes).map_err(|e| e.to_string())?;
        let (mut journal, _, _) =
            Journal::open(&journal_path).map_err(|e| e.to_string())?;
        journal.reset().map_err(|e| e.to_string())?;
        let ckpt_bytes = journal.size() + ckpt.bytes.len() as u64;
        drop(journal);

        let (compacted, compacted_s) = timed(|| -> Result<u64, String> {
            let start = index_from_chain(std::slice::from_ref(&ckpt_path))
                .map_err(|e| e.to_string())?;
            let (_, tail, _) = Journal::open(&journal_path).map_err(|e| e.to_string())?;
            replay_journal(&start.index, &tail).map_err(|e| e.to_string())?;
            Ok(start.index.current_epoch())
        });
        let compacted_epoch = compacted?;
        if compacted_epoch != unbounded_epoch {
            return Err(format!(
                "compacted recovery lands on epoch {compacted_epoch}, unbounded on \
                 {unbounded_epoch}"
            )
            .into());
        }

        let recovery_speedup = unbounded_s / compacted_s.max(1e-9);
        eprintln!(
            "  journal recovery ({history} swaps): unbounded {unbounded_s:.4}s \
             ({journal_bytes} bytes), compacted {compacted_s:.4}s ({ckpt_bytes} bytes, \
             {recovery_speedup:.2}x)"
        );
        rows.push(json!({
            "history_swaps": history,
            "journal_bytes": journal_bytes,
            "checkpoint_bytes": ckpt_bytes,
            "unbounded_replay_seconds": unbounded_s,
            "compacted_recovery_seconds": compacted_s,
            "speedup": recovery_speedup,
            "epoch": unbounded_epoch,
        }));
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loadgen_op(flags: &[&str]) -> Result<LoadOp, CliError> {
        let flags: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
        parse_loadgen(&flags).map(|args| args.op)
    }

    #[test]
    fn loadgen_op_last_flag_wins() {
        assert!(matches!(
            loadgen_op(&["--op", "mitm", "--op", "compare"]),
            Ok(LoadOp::Replay(ReplayOp::Compare))
        ));
        assert!(matches!(
            loadgen_op(&["--op", "batch", "--op", "mitm"]),
            Ok(LoadOp::Mitm)
        ));
        assert!(matches!(loadgen_op(&[]), Ok(LoadOp::Replay(ReplayOp::Mixed))));
    }

    #[test]
    fn loadgen_unknown_op_is_a_usage_error() {
        // Usage errors exit with status 2.
        assert!(matches!(loadgen_op(&["--op", "nope"]), Err(CliError::Usage(_))));
        assert!(matches!(loadgen_op(&["--op"]), Err(CliError::Usage(_))));
    }
}
