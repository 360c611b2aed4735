//! `tangled` — command-line interface to the tangled-mass toolkit.
//!
//! Run `tangled` with no arguments for the command list: [`usage`]
//! renders every synopsis from [`COMMANDS`].
//!
//! The global `--threads N` flag (or `TANGLED_THREADS`) pins the
//! execution-pool width for any subcommand; results are bit-identical at
//! every width — including the `trace` event log, whose bytes are part of
//! the determinism contract. The global `--metrics-dump` flag prints the
//! process-wide metrics registry to stderr after any subcommand.
//!
//! Usage errors (unknown subcommand, malformed arguments) exit with
//! status 2; runtime failures exit with status 1.

use std::collections::{HashMap, HashSet};
use std::fmt::Display;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;
use tangled_mass::analysis::{export, figures, survey, tables, Study};
use tangled_mass::exec::{fixed_shard_count, set_thread_override, thread_count};
use tangled_mass::faults::FaultPlan;
use tangled_mass::intercept::study_time;
use tangled_mass::netalyzr::{Population, PopulationSpec};
use tangled_mass::obs;
use tangled_mass::pki::audit::audit;
use tangled_mass::pki::cacerts::{from_cacerts, to_cacerts_pem, CacertsFile};
use tangled_mass::pki::stores::ReferenceStore;
use tangled_mass::pki::trust::AnchorSource;
use tangled_mass::scenario;
use tangled_mass::snap::{load_study, write_study, Snapshot};
use tangled_mass::trustd::replay::{compare_queries, population, queries};
use tangled_mass::trustd::{
    self, chaos, drive, offline_verdicts, verdict_fingerprint, ChaosSpec, EventServer, Link,
    ReplaySpec, Request, Response, TrustClient, TrustService, DEFAULT_CACHE_CAPACITY,
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

/// Every subcommand's synopsis and help, in `usage()` order. `usage()`
/// and each "usage: tangled …" error line read the synopsis from here.
const COMMANDS: &[(&str, &str)] = &[
    ("tables [scale]", "print Tables 1-6"),
    ("figures [scale]", "print Figures 1-3 summaries"),
    ("export [scale]", "print the result set as JSON"),
    (
        "mkstore <version> <dir>",
        "write a reference store as cacerts files\n(version: 4.1|4.2|4.3|4.4|mozilla|ios7)",
    ),
    ("audit <dir> <version>", "audit a cacerts directory"),
    ("probe", "replay the interception case"),
    ("snap write <file> [scale]", "generate a study and persist a binary snapshot"),
    ("snap read <file>", "load a snapshot and print its tables"),
    ("snap verify <file>", "checksum every snapshot section"),
    (
        "snap delta <base> <target> <epoch> --out <file>",
        "write target as a delta over base (changed\nsections only, epoch-labelled)",
    ),
    (
        "snap materialize <chain...> <epoch> [--out <file>]",
        "materialise a base+delta chain at an epoch;\nwith --out, write the full snapshot",
    ),
    (
        "serve <addr> [--snapshot F] [--journal F] [--compact-threshold BYTES]",
        "run the trustd query server (readiness loops\nmultiplexing every connection; warm start\n\
         from a snapshot and a <journal>.ckpt\ncompaction checkpoint when present;\n\
         write-ahead journal for swaps;\n--compact-threshold folds the journal into\n\
         the checkpoint once it crosses BYTES)",
    ),
    (
        "loadgen <addr> [--sessions N] [--seed S] [--op mixed|compare|mitm] \
         [--pipeline N] [--chaos-rate R] [--chaos-seed S] [--swaps N]",
        "plan a seeded workload (--op: mixed mix,\ncompare vectors or the mitm scenario\n\
         plan; last --op wins), replay it against\na server and check it against the\n\
         offline verdicts; one report ending in\nthe verdict-vector fingerprint;\n\
         --pipeline bursts N requests per write\nwindow; --chaos-rate injects lossy wire\n\
         faults recovered through the resilient\nclient; --swaps drives N store swaps on\n\
         the 'canary' profile instead of a replay",
    ),
    (
        "disparity [scale] | --from A --to B",
        "cross-ecosystem root-store disparity report;\nwith --from/--to, longitudinal drift between\n\
         two materialised snapshots: per-profile\nanchor churn, Jaccard drift, exactly-k\nmigration",
    ),
    (
        "mitm [scale] [--seed S]",
        "adversarial interception scenarios: seeded\ndefective-client population vs a re-signing\n\
         proxy, per-strategy conservation ledger and\ndefect attribution, seed-reproducible",
    ),
    (
        "chaos [--seed S] [--requests N] [--rate R] [--busy-rate B] [--attempts N] [--out FILE]",
        "deterministic wire-fault chaos run against an\nin-process server; asserts conservation",
    ),
    (
        "stats [scale]",
        "per-stage latency p50/p99, memo counters,\ntrustd serving path, metrics dump",
    ),
    (
        "trace <out.jsonl> [scale]",
        "run a faulted study under the obs trace and\nwrite the schema-validated event log",
    ),
];

fn usage() -> String {
    let mut names: Vec<&str> = COMMANDS
        .iter()
        .map(|(s, _)| s.split(' ').next().unwrap_or(s))
        .collect();
    names.dedup();
    let mut text = format!(
        "usage: tangled [--threads N] [--metrics-dump] <{}> [...]",
        names.join("|")
    );
    let indent = format!("\n{:27}", "");
    for (synopsis, help) in COMMANDS {
        let help = help.replace('\n', &indent);
        if synopsis.len() < 25 {
            text += &format!("\n  {synopsis:<24} {help}");
        } else {
            text += &format!("\n  {synopsis}{indent}{help}");
        }
    }
    text + "\nglobal: --threads N        pin the execution-pool width (or TANGLED_THREADS)\
            \nglobal: --metrics-dump     print the metrics registry to stderr on exit"
}

/// `cmd`'s synopsis from [`COMMANDS`].
fn synopsis(cmd: &str) -> &str {
    COMMANDS
        .iter()
        .map(|(s, _)| *s)
        .find(|s| s.strip_prefix(cmd).is_some_and(|r| r.is_empty() || r.starts_with(' ')))
        .unwrap_or(cmd)
}

const UINT: &str = "an unsigned integer";
const POSITIVE: &str = "an integer > 0";
const RATE: &str = "a number in [0, 1]";

fn any<T>(_: &T) -> bool {
    true
}

fn positive<T: Default + PartialOrd>(n: &T) -> bool {
    *n > T::default()
}

fn rate(r: &f64) -> bool {
    (0.0..=1.0).contains(r)
}

/// Parse `text` as the value of `name`; a value that does not parse or
/// fails `ok` is a usage error saying what was wanted.
fn typed<T: FromStr>(
    name: &str,
    text: &str,
    want: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, CliError> {
    text.parse()
        .ok()
        .filter(|v| ok(v))
        .ok_or_else(|| CliError::Usage(format!("invalid {name} '{text}': want {want}")))
}

/// A subcommand's arguments: its positionals in order, and its
/// `--flag value` pairs, where a repeated flag's last value wins.
struct Args {
    cmd: &'static str,
    pos: Vec<String>,
    flags: HashMap<&'static str, String>,
}

/// Split `args` into positionals and the values of the `known` flags.
/// Unknown flags, a flag with no value (or another flag where its value
/// should be), and positionals past `max_positionals` are usage errors.
fn parse(
    cmd: &'static str,
    args: &[String],
    known: &[&'static str],
    max_positionals: usize,
) -> Result<Args, CliError> {
    let mut parsed = Args {
        cmd,
        pos: Vec::new(),
        flags: HashMap::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            if parsed.pos.len() == max_positionals {
                return Err(parsed.usage_error(format!("unexpected argument '{arg}'")));
            }
            parsed.pos.push(arg.clone());
            continue;
        }
        let Some(&flag) = known.iter().find(|&&k| k == arg) else {
            return Err(parsed.usage_error(format!("unknown {cmd} flag '{arg}'")));
        };
        let Some(value) = it.next().filter(|v| !v.starts_with("--")) else {
            return Err(parsed.usage_error(format!("{flag} needs a value")));
        };
        parsed.flags.insert(flag, value.clone());
    }
    Ok(parsed)
}

impl Args {
    fn usage_error(&self, msg: impl Display) -> CliError {
        CliError::Usage(format!("{msg} — usage: tangled {}", synopsis(self.cmd)))
    }

    /// The `i`th positional; missing, it is a usage error naming `what`.
    fn need(&self, i: usize, what: &str) -> Result<&str, CliError> {
        self.pos
            .get(i)
            .map(String::as_str)
            .ok_or_else(|| self.usage_error(format!("{} needs {what}", self.cmd)))
    }

    /// `flag`'s value; missing, it is a usage error.
    fn need_flag(&self, flag: &str) -> Result<&str, CliError> {
        self.flags
            .get(flag)
            .map(String::as_str)
            .ok_or_else(|| self.usage_error(format!("{} needs {flag}", self.cmd)))
    }

    /// The optional scale positional at `i`: absent → 0.5; non-numeric,
    /// non-finite or ≤ 0 → usage error.
    fn scale(&self, i: usize) -> Result<f64, CliError> {
        self.pos.get(i).map_or(Ok(0.5), |text| {
            typed("scale", text, "a number > 0", |s: &f64| s.is_finite() && *s > 0.0)
        })
    }

    /// `flag`'s value as a `T` checked by `ok`, or `None` when absent.
    fn opt<T: FromStr>(
        &self,
        flag: &str,
        want: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, CliError> {
        self.flags.get(flag).map(|text| typed(flag, text, want, ok)).transpose()
    }

    /// `flag`'s value as a `T` checked by `ok`, or `default` when absent.
    fn get<T: FromStr>(
        &self,
        flag: &str,
        default: T,
        want: &str,
        ok: impl Fn(&T) -> bool,
    ) -> Result<T, CliError> {
        Ok(self.opt(flag, want, ok)?.unwrap_or(default))
    }
}

/// Strip the global flags from anywhere in `args`: `--threads N` is
/// applied as the pool-width override (a repeated one overrides the
/// earlier), and the return value says whether `--metrics-dump` was given.
fn strip_globals(args: &mut Vec<String>) -> Result<bool, CliError> {
    let mut metrics_dump = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--metrics-dump" => {
                metrics_dump = true;
                args.remove(i);
            }
            "--threads" => {
                let text = args
                    .get(i + 1)
                    .ok_or_else(|| CliError::Usage("--threads needs a value".into()))?;
                set_thread_override(Some(typed("--threads", text, POSITIVE, positive::<usize>)?));
                args.drain(i..i + 2);
            }
            _ => i += 1,
        }
    }
    Ok(metrics_dump)
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let result = strip_globals(&mut args).and_then(|metrics_dump| {
        let result = run(&args);
        if metrics_dump {
            eprint!("{}", obs::registry().dump_text());
        }
        result
    });
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

const SERVE_FLAGS: &[&str] = &["--snapshot", "--journal", "--compact-threshold"];
const LOADGEN_FLAGS: &[&str] = &[
    "--sessions",
    "--seed",
    "--op",
    "--pipeline",
    "--chaos-rate",
    "--chaos-seed",
    "--swaps",
];
const CHAOS_FLAGS: &[&str] = &[
    "--seed",
    "--requests",
    "--rate",
    "--busy-rate",
    "--attempts",
    "--out",
];

fn run(args: &[String]) -> Result<(), CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::Usage(usage()));
    };
    match cmd.as_str() {
        "tables" => cmd_tables(parse("tables", rest, &[], 1)?.scale(0)?),
        "figures" => cmd_figures(parse("figures", rest, &[], 1)?.scale(0)?),
        "export" => cmd_export(parse("export", rest, &[], 1)?.scale(0)?),
        "mkstore" => cmd_mkstore(&parse("mkstore", rest, &[], 2)?),
        "audit" => cmd_audit(&parse("audit", rest, &[], 2)?),
        "probe" => parse("probe", rest, &[], 0).and_then(|_| cmd_probe()),
        "snap" => cmd_snap(rest),
        "serve" => cmd_serve(&parse("serve", rest, SERVE_FLAGS, 1)?),
        "loadgen" => cmd_loadgen(&parse("loadgen", rest, LOADGEN_FLAGS, 1)?),
        "disparity" => {
            // `--from`/`--to` select the drift report, which takes no scale.
            let drift = rest.iter().any(|a| a == "--from" || a == "--to");
            let args = parse("disparity", rest, &["--from", "--to"], usize::from(!drift))?;
            if drift {
                cmd_disparity_drift(&args)
            } else {
                cmd_disparity(args.scale(0)?)
            }
        }
        "mitm" => cmd_mitm(&parse("mitm", rest, &["--seed"], 1)?),
        "chaos" => cmd_chaos(&parse("chaos", rest, CHAOS_FLAGS, 0)?),
        "stats" => cmd_stats(parse("stats", rest, &[], 1)?.scale(0)?),
        "trace" => cmd_trace(&parse("trace", rest, &[], 2)?),
        other => Err(CliError::Usage(format!(
            "unknown subcommand '{other}'\n{}",
            usage()
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

fn cmd_mkstore(args: &Args) -> Result<(), CliError> {
    let version = args.need(0, "a store name")?;
    let dir = args.need(1, "an output directory")?;
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

fn cmd_audit(args: &Args) -> Result<(), CliError> {
    let dir = args.need(0, "a cacerts directory")?;
    let version = args.need(1, "a baseline store name")?;
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
    let report = audit(&baseline, &observed, study_time());
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
    let Some((mode, rest)) = args.split_first() else {
        return Err(CliError::Usage(
            "snap needs a mode: write|read|verify|delta|materialize".into(),
        ));
    };
    match mode.as_str() {
        "write" => {
            let args = parse("snap write", rest, &[], 2)?;
            let file = args.need(0, "a file path")?;
            let scale = args.scale(1)?;
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
            let file = parse("snap read", rest, &[], 1)?.need(0, "a file path")?.to_owned();
            eprintln!("loading study from {file}…");
            let study = load_study(&file).map_err(|e| format!("loading {file}: {e}"))?;
            println!("{}", tables::dataset_summary(&study.population).render());
            print!("{}", tables::render_all(&study));
            Ok(())
        }
        "verify" => {
            let file = parse("snap verify", rest, &[], 1)?.need(0, "a file path")?.to_owned();
            let snap = Snapshot::open(&file).map_err(|e| format!("opening {file}: {e}"))?;
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
        "delta" => cmd_snap_delta(&parse("snap delta", rest, &["--out"], 3)?),
        "materialize" => {
            cmd_snap_materialize(&parse("snap materialize", rest, &["--out"], usize::MAX)?)
        }
        other => Err(CliError::Usage(format!(
            "unknown snap mode '{other}' (want write|read|verify|delta|materialize)"
        ))),
    }
}

/// `tangled snap delta <base> <target> <epoch> --out <file>` — encode
/// `target`'s sections as a delta over `base`: sections whose checksum
/// matches the base dedup away, the rest ride in the delta.
fn cmd_snap_delta(args: &Args) -> Result<(), CliError> {
    let base_path = args.need(0, "<base>")?;
    let target_path = args.need(1, "<target>")?;
    let epoch: u64 = typed("epoch", args.need(2, "<epoch>")?, UINT, any)?;
    let out = args.need_flag("--out")?;
    let base = std::fs::read(base_path).map_err(|e| format!("reading {base_path}: {e}"))?;
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
    std::fs::write(out, &delta.bytes).map_err(|e| format!("writing {out}: {e}"))?;
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
fn cmd_snap_materialize(args: &Args) -> Result<(), CliError> {
    let Some((epoch, chain)) = args.pos.split_last().filter(|(_, chain)| !chain.is_empty()) else {
        return Err(args.usage_error("snap materialize needs <chain...> <epoch>"));
    };
    let epoch: u64 = typed("epoch", epoch, UINT, any)?;
    let m = tangled_mass::snap::materialize_chain(chain, epoch)
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
    if let Some(out) = args.flags.get("--out") {
        std::fs::write(out, &m.bytes).map_err(|e| format!("writing {out}: {e}"))?;
        println!("materialize: wrote {out} at epoch {}", m.epoch);
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), CliError> {
    let addr = args.need(0, "a listen address (e.g. 127.0.0.1:7433)")?;
    let snapshot = args.flags.get("--snapshot").map(String::as_str);
    let journal = args.flags.get("--journal").map(String::as_str);
    let compact_threshold: Option<u64> = args.opt("--compact-threshold", "bytes > 0", positive)?;
    if compact_threshold.is_some() && journal.is_none() {
        return Err(CliError::Usage(
            "--compact-threshold needs --journal (compaction folds the swap journal)".into(),
        ));
    }
    let started = trustd::start(snapshot, journal, compact_threshold).map_err(|e| e.to_string())?;
    for note in &started.notes {
        eprintln!("{note}");
    }
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    // The flushed "trustd listening on" line is what the loadgen smoke
    // test and perfbench parse. The bound server must stay in scope for
    // the lifetime of the process.
    let server = EventServer::bind(addr, started.service, workers)
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

/// What `loadgen --op` plans: the Netalyzr mix, one `compare` per
/// Notary chain, or the interception scenario plan.
#[derive(Clone, Copy, PartialEq)]
enum LoadOp {
    Mixed,
    Compare,
    Mitm,
}

impl FromStr for LoadOp {
    type Err = ();

    fn from_str(op: &str) -> Result<LoadOp, ()> {
        Ok(match op {
            "mixed" => LoadOp::Mixed,
            "compare" => LoadOp::Compare,
            "mitm" => LoadOp::Mitm,
            _ => return Err(()),
        })
    }
}

/// `loadgen --op`, defaulting to the mixed replay; the last `--op` wins.
fn load_op(args: &Args) -> Result<LoadOp, CliError> {
    args.get("--op", LoadOp::Mixed, "mixed|compare|mitm", any)
}

fn cmd_loadgen(args: &Args) -> Result<(), CliError> {
    let addr = args.need(0, "a server address")?;
    let sessions: usize = args.get("--sessions", 100, POSITIVE, positive)?;
    let seed: u64 = args.get("--seed", 2014, UINT, any)?;
    let op = load_op(args)?;
    let pipeline: usize = args.get("--pipeline", 1, POSITIVE, positive)?;
    let chaos_rate = args.get("--chaos-rate", 0.0, RATE, rate)?;
    let chaos_seed: u64 = args.get("--chaos-seed", 7, UINT, any)?;
    if let Some(swaps) = args.opt("--swaps", POSITIVE, positive)? {
        return drive_swaps(addr, swaps);
    }
    let link = if chaos_rate > 0.0 {
        if pipeline > 1 {
            return Err(CliError::Usage(
                "--pipeline applies to the clean replay path; the chaos path \
                 retries one request at a time"
                    .into(),
            ));
        }
        Link::Lossy {
            seed: chaos_seed,
            rate: chaos_rate,
        }
    } else {
        Link::Clean {
            depth: pipeline,
            seed,
        }
    };

    // --op only chooses the plan; everything after it is one path.
    let replay = ReplaySpec::new(seed, sessions);
    let (requests, scenario_spec) = match op {
        LoadOp::Mixed => (queries(&population(&replay), &replay), None),
        LoadOp::Compare => (compare_queries(&replay), None),
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
    let outcome = drive(addr, &requests, link).map_err(CliError::Failure)?;

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
    match op {
        LoadOp::Mitm => {
            println!("loadgen: probe_session replies match the offline scenario exactly")
        }
        LoadOp::Mixed | LoadOp::Compare => {
            println!("loadgen: verdicts match the offline study exactly");
            if op == LoadOp::Compare {
                println!("loadgen: compare replies match the offline verdict vectors exactly")
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

fn cmd_mitm(args: &Args) -> Result<(), CliError> {
    let seed: u64 = args.get("--seed", 2014, UINT, any)?;
    let scale = args.scale(0)?;
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
fn cmd_disparity_drift(args: &Args) -> Result<(), CliError> {
    let from = args.need_flag("--from")?;
    let to = args.need_flag("--to")?;
    let from_snap = Snapshot::open(from).map_err(|e| format!("opening {from}: {e}"))?;
    let to_snap = Snapshot::open(to).map_err(|e| format!("opening {to}: {e}"))?;
    eprintln!("computing drift {from} -> {to}…");
    let report = tangled_mass::disparity::compute_drift(&from_snap, &to_snap)
        .map_err(|e| format!("computing drift: {e}"))?;
    print!("{}", report.render());
    Ok(())
}

fn cmd_chaos(args: &Args) -> Result<(), CliError> {
    let d = ChaosSpec::default();
    let spec = ChaosSpec {
        seed: args.get("--seed", d.seed, UINT, any)?,
        requests: args.get("--requests", d.requests, POSITIVE, positive)?,
        rate: args.get("--rate", d.rate, RATE, rate)?,
        busy_rate: args.get("--busy-rate", d.busy_rate, RATE, rate)?,
        max_attempts: args.get("--attempts", d.max_attempts, POSITIVE, positive)?,
        ..d
    };
    eprintln!(
        "chaos: seed {} · {} requests · fault rate {} · busy rate {} · {} attempts",
        spec.seed,
        spec.requests,
        spec.rate,
        spec.busy_rate,
        spec.max_attempts,
    );
    let report = chaos::run(&spec);
    match args.flags.get("--out") {
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

    // The study's index build recorded one latency sample per shard; it
    // shards by certificate count alone.
    let idx = &study.validation;
    let shard_us = obs::registry().hist("notary.validate.shard_us");
    let shards = fixed_shard_count(study.ecosystem.certs.len());

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
    // burst of stats and validates populates the trustd.conn.active gauge
    // and the trustd.event.* metrics (wakeups, pipeline-depth
    // observations, partial-write continuations) that the metrics dump
    // below prints.
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
    burst.extend((0..2).map(|_| Request::Validate {
        profile: profile.clone(),
        chain: vec![anchor_der.clone()],
    }));
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
        shards,
        shard_us.percentile(50),
        shard_us.percentile(99)
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

fn cmd_trace(args: &Args) -> Result<(), CliError> {
    let out = args.need(0, "an output path")?;
    let scale = args.scale(1)?;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn loadgen_op(flags: &[&str]) -> Result<LoadOp, CliError> {
        let flags: Vec<String> = flags.iter().map(|f| f.to_string()).collect();
        load_op(&parse("loadgen", &flags, LOADGEN_FLAGS, 1)?)
    }

    #[test]
    fn loadgen_op_last_flag_wins() {
        assert!(matches!(
            loadgen_op(&["--op", "mitm", "--op", "compare"]),
            Ok(LoadOp::Compare)
        ));
        assert!(matches!(
            loadgen_op(&["--op", "compare", "--op", "mitm"]),
            Ok(LoadOp::Mitm)
        ));
        assert!(matches!(loadgen_op(&[]), Ok(LoadOp::Mixed)));
    }

    #[test]
    fn loadgen_unknown_op_is_a_usage_error() {
        // Usage errors exit with status 2.
        assert!(matches!(loadgen_op(&["--op", "nope"]), Err(CliError::Usage(_))));
        assert!(matches!(loadgen_op(&["--op"]), Err(CliError::Usage(_))));
    }
}
