//! The `tangled` binary's exit-code contract: 2 for usage errors, 1 for
//! runtime failures, 0 for success.
//!
//! Every case stops at argument checking or at its first file open,
//! except one `serve` spawn that pins the `trustd listening on` first
//! line, and one `disparity` spawn that is killed after its first stderr
//! line reports the pool width.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Stdio};

fn tangled() -> Command {
    Command::new(env!("CARGO_BIN_EXE_tangled"))
}

/// Run `tangled args…` to completion and assert its exit code.
fn assert_exit(code: i32, args: &[&str]) {
    let out = tangled().args(args).output().expect("spawn tangled");
    assert_eq!(
        out.status.code(),
        Some(code),
        "tangled {}\nstderr: {}",
        args.join(" "),
        String::from_utf8_lossy(&out.stderr)
    );
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
    let ckpt = tangled_mass::snap::encode_checkpoint(None, &Default::default())
        .expect("encode an empty checkpoint");
    let path = scratch("empty.ckpt");
    std::fs::write(&path, &ckpt.bytes).expect("write checkpoint");
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
