//! The `repro bench` usage contract, held against the real binary: an
//! unknown flag, or `--trace` without a path, exits 2 before any work
//! starts and writes no artifact.

use std::process::Command;

/// Runs `repro bench <args>` in a scratch directory so no artifact can
/// land in the source tree; returns the exit code, stderr, and whether
/// any work started (output on stdout, or a `BENCH_parallel_exec.json`).
fn bench_usage_error(tag: &str, args: &[&str]) -> (Option<i32>, String, bool) {
    let dir = std::env::temp_dir().join(format!("bench-contract-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("bench")
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("repro runs");
    let worked = !out.stdout.is_empty() || dir.join("BENCH_parallel_exec.json").exists();
    std::fs::remove_dir_all(&dir).ok();
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        worked,
    )
}

#[test]
fn unknown_flag_exits_two_without_running() {
    let (code, stderr, worked) = bench_usage_error("flag", &["--json", "--bogus"]);
    assert_eq!(code, Some(2), "bad flags are a usage error");
    assert!(
        stderr.contains("unknown bench flag `--bogus`"),
        "names the offending flag:\n{stderr}"
    );
    assert!(!worked, "usage errors must not start the benchmark");
}

#[test]
fn trace_without_a_path_exits_two_without_running() {
    let (code, stderr, worked) = bench_usage_error("trace", &["--json", "--trace"]);
    assert_eq!(code, Some(2), "a missing --trace path is a usage error");
    assert!(
        stderr.contains("--trace needs a path"),
        "says what is missing:\n{stderr}"
    );
    assert!(!worked, "usage errors must not start the benchmark");
}
