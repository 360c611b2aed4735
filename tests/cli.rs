//! The `tangled` binary's exit-code contract: 2 for usage errors, 1 for
//! runtime failures, 0 for success.
//!
//! Most cases stop at argument checking or at their first file open.
//! The exceptions: a `disparity` spawn killed after its first stderr line
//! reports the pool width, a `mkstore`/`audit` round trip over a cacerts
//! directory, `trace` runs whose logs are pinned at two pool widths, a
//! snapshot written at two pool widths and read back as the tables, and
//! `serve` spawns that pin the `trustd listening on` first line and answer
//! pipelined `loadgen` replays.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use tangled_mass::crypto::sha256::{hex, sha256};
use tangled_mass::pki::cacerts::subject_hash;
use tangled_mass::pki::factory::CaFactory;

fn tangled() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tangled"))
}

/// Run `tangled args…` to completion and assert its exit code.
fn assert_exit(code: i32, args: &[&str]) {
    run_exit(code, args);
}

/// Run `tangled args…` to completion, asserting its exit code, and
/// return its output.
fn run_exit(code: i32, args: &[&str]) -> Output {
    let out = tangled().args(args).output().expect("spawn tangled");
    assert_eq!(
        out.status.code(),
        Some(code),
        "tangled {}\nstdout: {}\nstderr: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn assert_usage(cases: &[&[&str]]) {
    for args in cases {
        assert_exit(2, args);
    }
}

/// A scratch path unique to this process and `name`.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("tangled-cli-{}-{name}", std::process::id()))
}

#[test]
fn no_subcommand_or_unknown_subcommand_is_a_usage_error() {
    assert_usage(&[&[], &["nope"], &["snap"], &["snap", "nope", "f"]]);
}

#[test]
fn unknown_flags_are_usage_errors() {
    assert_usage(&[
        &["tables", "--bogus"],
        &["figures", "--bogus"],
        &["export", "--bogus"],
        &["stats", "--bogus"],
        &["probe", "--bogus"],
        &["mkstore", "4.4", "d", "--bogus"],
        &["audit", "d", "4.4", "--bogus"],
        &["trace", "t.jsonl", "--bogus"],
        &["snap", "write", "f", "--bogus"],
        &["snap", "read", "f", "--bogus"],
        &["snap", "verify", "f", "--bogus"],
        &["snap", "delta", "a", "b", "1", "--bogus", "x"],
        &["snap", "materialize", "a", "1", "--bogus", "x"],
        &["serve", "127.0.0.1:0", "--bogus", "x"],
        &["loadgen", "127.0.0.1:1", "--bogus", "x"],
        &["disparity", "--bogus"],
        &["disparity", "--from", "a", "--bogus", "b"],
        &["mitm", "--bogus", "1"],
        &["chaos", "--bogus", "1"],
    ]);
}

#[test]
fn flags_without_values_are_usage_errors() {
    assert_usage(&[
        &["--threads"],
        &["probe", "--threads"],
        &["snap", "delta", "a", "b", "1", "--out"],
        &["snap", "materialize", "a", "1", "--out"],
        &["serve", "127.0.0.1:0", "--snapshot"],
        &["serve", "127.0.0.1:0", "--journal"],
        &["serve", "127.0.0.1:0", "--compact-threshold"],
        &["loadgen", "127.0.0.1:1", "--op"],
        &["loadgen", "127.0.0.1:1", "--sessions"],
        &["disparity", "--from"],
        &["mitm", "--seed"],
        &["chaos", "--rate"],
        &["chaos", "--out"],
    ]);
}

#[test]
fn bad_values_are_usage_errors() {
    assert_usage(&[
        &["--threads", "0", "probe"],
        &["--threads", "x", "probe"],
        &["--threads", "2", "--threads", "0", "probe"],
        &["tables", "0"],
        &["figures", "nan"],
        &["export", "-1"],
        &["snap", "write", "f", "0"],
        &["snap", "delta", "a", "b", "x", "--out", "o"],
        &["snap", "materialize", "a", "x"],
        &["mkstore", "bogus", "d"],
        &["audit", "d", "bogus"],
        &["serve", "127.0.0.1:0", "--journal", "j", "--compact-threshold", "0"],
        &["serve", "127.0.0.1:0", "--journal", "j", "--compact-threshold", "x"],
        &["loadgen", "127.0.0.1:1", "--pipeline", "0"],
        &["loadgen", "127.0.0.1:1", "--sessions", "0"],
        &["loadgen", "127.0.0.1:1", "--seed", "x"],
        &["loadgen", "127.0.0.1:1", "--op", "nope"],
        &["loadgen", "127.0.0.1:1", "--op", "batch"],
        &["loadgen", "127.0.0.1:1", "--chaos-rate", "1.5"],
        &["loadgen", "127.0.0.1:1", "--chaos-seed", "x"],
        &["loadgen", "127.0.0.1:1", "--swaps", "0"],
        &["mitm", "0"],
        &["mitm", "--seed", "x"],
        &["chaos", "--rate", "2"],
        &["chaos", "--busy-rate", "1.5"],
        &["chaos", "--requests", "0"],
        &["chaos", "--attempts", "0"],
        &["chaos", "--seed", "x"],
    ]);
}

#[test]
fn stray_positionals_are_usage_errors() {
    assert_usage(&[
        &["tables", "0.1", "extra"],
        &["figures", "0.1", "extra"],
        &["export", "0.1", "extra"],
        &["stats", "0.1", "extra"],
        &["probe", "extra"],
        &["mkstore", "4.4", "d", "extra"],
        &["audit", "d", "4.4", "extra"],
        &["trace", "t.jsonl", "0.1", "extra"],
        &["snap", "write", "f", "0.1", "extra"],
        &["snap", "read", "f", "extra"],
        &["snap", "verify", "f", "extra"],
        &["snap", "delta", "a", "b", "1", "extra", "--out", "o"],
        &["serve", "127.0.0.1:0", "extra"],
        &["loadgen", "127.0.0.1:1", "extra"],
        &["disparity", "0.1", "0.2"],
        &["disparity", "--from", "a", "--to", "b", "extra"],
        &["mitm", "0.1", "0.2"],
        &["chaos", "extra"],
    ]);
}

#[test]
fn missing_positionals_and_flags_are_usage_errors() {
    assert_usage(&[
        &["mkstore"],
        &["mkstore", "4.4"],
        &["audit"],
        &["trace"],
        &["snap", "write"],
        &["snap", "delta", "a", "b", "--out", "o"],
        &["snap", "delta", "a", "b", "1"],
        &["snap", "materialize", "a"],
        &["disparity", "--from", "a"],
        // No address: a usage error, not a panic, and before any
        // profile is loaded.
        &["serve"],
        &["loadgen"],
        &["serve", "--journal", "j.jrn"],
        &["serve", "--journal"],
    ]);
}

#[test]
fn conflicting_flags_are_usage_errors() {
    assert_usage(&[
        &["serve", "127.0.0.1:0", "--compact-threshold", "64"],
        &["loadgen", "127.0.0.1:1", "--pipeline", "2", "--chaos-rate", "0.1"],
    ]);
}

#[test]
fn runtime_failures_exit_1() {
    let missing = scratch("missing.snap");
    let missing = missing.to_str().expect("utf-8 temp path");
    assert_exit(1, &["snap", "verify", missing]);
    assert_exit(1, &["snap", "read", missing]);
    assert_exit(1, &["disparity", "--from", missing, "--to", missing]);
}

#[test]
fn snap_verify_of_an_intact_file_exits_0() {
    let ckpt = tangled_mass::snap::encode_checkpoint(None, &Default::default());
    let path = scratch("empty.ckpt");
    std::fs::write(&path, ckpt).expect("write checkpoint");
    assert_exit(0, &["snap", "verify", path.to_str().expect("utf-8 temp path")]);
    let _ = std::fs::remove_file(&path);
}

#[test]
fn a_repeated_threads_flag_overrides_the_first() {
    let mut child = tangled()
        .args(["--threads", "1", "--threads", "2", "disparity", "0.001"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn tangled disparity");
    let mut first = String::new();
    BufReader::new(child.stderr.take().expect("piped stderr"))
        .read_line(&mut first)
        .expect("read first stderr line");
    let _ = child.kill();
    let _ = child.wait();
    assert!(first.contains("(2 threads)"), "first stderr line: {first}");
}

#[test]
fn serve_prints_its_listening_address_first() {
    let journal = scratch("serve.jrn");
    let mut child = tangled()
        .args(["--threads", "1", "serve", "127.0.0.1:0", "--journal"])
        .arg(&journal)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn tangled serve");
    let mut first = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read first stdout line");
    let _ = child.kill();
    let _ = child.wait();
    let _ = std::fs::remove_file(&journal);
    assert!(first.starts_with("trustd listening on "), "first stdout line: {first}");
}

#[test]
fn mkstore_then_audit_reads_pem_and_der_and_names_damaged_files() {
    let dir = scratch("cacerts");
    let _ = std::fs::remove_dir_all(&dir);
    let d = dir.to_str().expect("utf-8 temp path");
    let stdout = |out: &Output| String::from_utf8_lossy(&out.stdout).into_owned();

    run_exit(0, &["mkstore", "4.4", d]);
    let clean = run_exit(0, &["audit", d, "4.4"]);
    assert!(stdout(&clean).contains("+0 additions, -0 removals"), "{}", stdout(&clean));

    // A root app drops a rogue root in as raw DER: the reader's DER branch.
    let rogue = CaFactory::new().root("CLI Rogue CA");
    std::fs::write(dir.join(format!("{}.0", subject_hash(&rogue))), rogue.to_der())
        .expect("write rogue root");
    let tampered = run_exit(0, &["audit", d, "4.4"]);
    assert!(stdout(&tampered).contains("+1 additions"), "{}", stdout(&tampered));

    // Cut one PEM file mid-body: its footer is gone.
    let victim = std::fs::read_dir(&dir)
        .expect("list cacerts")
        .map(|e| e.expect("dir entry").path())
        .find(|p| std::fs::read(p).is_ok_and(|b| b.starts_with(b"-----BEGIN")))
        .expect("a PEM file");
    let bytes = std::fs::read(&victim).expect("read victim");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate victim");
    let damaged = run_exit(1, &["audit", d, "4.4"]);
    let name = victim.file_name().expect("file name").to_string_lossy();
    let stderr = String::from_utf8_lossy(&damaged.stderr);
    assert!(
        stderr.contains(&format!("quarantined {name}: pem-armor")),
        "stderr: {stderr}"
    );
    assert!(stdout(&damaged).contains("+1 additions, -1 removals"), "{}", stdout(&damaged));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_is_byte_identical_at_widths_1_and_2_and_pinned() {
    let traces: Vec<(Vec<u8>, String)> = ["1", "2"]
        .iter()
        .map(|width| {
            let path = scratch(&format!("trace{width}.jsonl"));
            let p = path.to_str().expect("utf-8 temp path");
            let out = run_exit(0, &["trace", p, "0.05", "--threads", width]);
            let jsonl = std::fs::read(&path).expect("read trace");
            let _ = std::fs::remove_file(&path);
            (jsonl, String::from_utf8_lossy(&out.stdout).into_owned())
        })
        .collect();
    let (jsonl, stdout) = &traces[0];
    assert!(
        *jsonl == traces[1].0,
        "the width-1 and width-2 traces differ"
    );
    let text = String::from_utf8_lossy(jsonl);
    let first = text.lines().next().unwrap_or_default();
    assert!(
        first.contains(r#""kind":"run_start""#),
        "first line: {first}"
    );
    assert!(
        text.contains(r#""kind":"quarantine""#),
        "no quarantine event"
    );
    assert!(
        stdout.contains(
            "stages: netalyzr.population, notary.ecosystem, notary.validate, run, \
             study.with_faults"
        ),
        "stdout: {stdout}"
    );
    assert_eq!(
        hex(&sha256(jsonl)),
        "f7d5c36c7fd1cd0a7103720afae2d2686b6c84f392c43de591fa3f6862378b28"
    );
}

#[test]
fn snap_write_is_width_invariant_and_reads_back_as_the_tables() {
    let snaps: Vec<PathBuf> = ["1", "4"]
        .iter()
        .map(|width| {
            let path = scratch(&format!("study{width}.snap"));
            let p = path.to_str().expect("utf-8 temp path");
            run_exit(0, &["snap", "write", p, "0.05", "--threads", width]);
            path
        })
        .collect();
    let bytes: Vec<Vec<u8>> = snaps
        .iter()
        .map(|p| std::fs::read(p).expect("read snapshot"))
        .collect();
    assert!(bytes[0] == bytes[1], "the width-1 and width-4 snapshots differ");
    let snap = snaps[0].to_str().expect("utf-8 temp path");
    run_exit(0, &["snap", "verify", snap]);
    let read = run_exit(0, &["snap", "read", snap]);
    let tables = run_exit(0, &["tables", "0.05"]);
    assert!(!tables.stdout.is_empty(), "`tables` printed nothing");
    for path in &snaps {
        let _ = std::fs::remove_file(path);
    }
    assert_eq!(
        String::from_utf8_lossy(&read.stdout),
        String::from_utf8_lossy(&tables.stdout),
        "`snap read` must print exactly what `tables` prints"
    );
}

/// A `tangled serve` child, killed when dropped so that a failed
/// assertion leaves no server behind.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `tangled serve 127.0.0.1:0` and return it with the address its
/// first stdout line names.
fn serve() -> (Server, String) {
    let mut server = Server(
        tangled()
            .args(["serve", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn tangled serve"),
    );
    let mut first = String::new();
    BufReader::new(server.0.stdout.take().expect("piped stdout"))
        .read_line(&mut first)
        .expect("read first stdout line");
    let addr = first
        .strip_prefix("trustd listening on ")
        .and_then(|rest| rest.split_whitespace().next())
        .unwrap_or_else(|| panic!("first stdout line: {first}"))
        .to_owned();
    (server, addr)
}

#[test]
fn pipelined_mixed_loadgen_matches_the_offline_study_at_every_depth() {
    let (_server, addr) = serve();
    let fingerprints: Vec<String> = ["1", "8", "16"]
        .iter()
        .map(|depth| {
            let args = [
                "loadgen", &addr, "--sessions", "60", "--seed", "2014", "--op", "mixed",
                "--pipeline", depth,
            ];
            let out = run_exit(0, &args);
            let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
            for line in [
                "protocol errors: 0",
                "verdicts match the offline study exactly",
                "1 connection(s) for",
            ] {
                assert!(stdout.contains(line), "depth {depth}: no '{line}' in\n{stdout}");
            }
            stdout
                .lines()
                .find(|l| l.contains("verdict-vector fingerprint:"))
                .unwrap_or_else(|| panic!("depth {depth}: no fingerprint in\n{stdout}"))
                .to_owned()
        })
        .collect();
    // Pipeline depth is transport only: the verdict vector is the same,
    // and it is the mixed plan's pinned fingerprint.
    assert!(
        fingerprints.iter().all(|fp| *fp == fingerprints[0]),
        "{fingerprints:?}"
    );
    assert_eq!(fingerprints[0], "loadgen: verdict-vector fingerprint: f82cd864d50905cb");
}
