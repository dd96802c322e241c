//! Command-line contract of the `faultlab` binary.

use std::process::Command;

/// `--jobs 0` is a usage error in every mode, caught before any work
/// starts: exit code 2 and a message naming the flag.
#[test]
fn zero_jobs_is_a_usage_error() {
    for mode in [
        &["--smoke"][..],
        &["--protect-smoke"],
        &["--hierarchy"],
        &["--dump-trace", "unused-trace-dir"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_faultlab"))
            .args(mode)
            .args(["--jobs", "0"])
            .output()
            .expect("faultlab runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{mode:?}: {stderr}");
        assert!(
            stderr.contains("--jobs expects at least 1 worker"),
            "{mode:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{mode:?} started work");
    }
}
