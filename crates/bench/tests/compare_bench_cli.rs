//! `compare_bench` rejects arguments it does not know: a misspelt or
//! removed floor flag must fail the gate, not fall back to the default
//! floor without a word.

use std::process::Command;

#[test]
fn unknown_or_incomplete_flags_exit_nonzero_with_usage() {
    let run = |args: &[&str]| {
        Command::new(env!("CARGO_BIN_EXE_compare_bench")).args(args).output().expect("runs")
    };
    for args in [&["--speedup-flor", "1.5"][..], &["--floor", "1.2"], &["--speedup-floor"]] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: compare_bench"), "{args:?}: {stderr}");
    }
    // `--explain` reads neither JSON file, so it checks the known flags alone.
    let known = ["--baseline", "b", "--current", "c", "--speedup-floor", "1.5", "--wall"];
    let out = run(
        &[&known[..], &["--compiled-floor", "3.5", "--tolerance", "0.2", "--explain"]].concat()
    );
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}
