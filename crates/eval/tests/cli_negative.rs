//! Negative-path tests for the `opec-eval` command line: bad input must
//! exit nonzero *and* name the offending flag/operand, before any
//! expensive run starts. All paths here fail during argument
//! validation, so the tests are fast.

use std::process::Command;

fn run(args: &[&str]) -> (i32, String) {
    let out =
        Command::new(env!("CARGO_BIN_EXE_opec-eval")).args(args).output().expect("spawn opec-eval");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    (out.status.code().unwrap_or(-1), stderr)
}

#[test]
fn unknown_flag_exits_nonzero_and_names_it() {
    let (code, stderr) = run(&["table1", "--bogus"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("--bogus"), "stderr: {stderr}");
}

#[test]
fn foreign_flag_exits_nonzero_and_names_it() {
    // --shrink exists, but table1 does not take it.
    let (code, stderr) = run(&["table1", "--shrink"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("--shrink"), "stderr: {stderr}");
    assert!(stderr.contains("table1"), "stderr: {stderr}");
}

#[test]
fn valueless_flag_exits_nonzero() {
    let (code, stderr) = run(&["check", "--seeds"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("--seeds"), "stderr: {stderr}");
}

#[test]
fn unexpected_positional_exits_nonzero_and_names_it() {
    let (code, stderr) = run(&["check", "stray-operand"]);
    assert_eq!(code, 2, "stderr: {stderr}");
    assert!(stderr.contains("stray-operand"), "stderr: {stderr}");
}

#[test]
fn unknown_command_exits_nonzero() {
    // A deleted subcommand is rejected like one that never existed.
    for cmd in ["no-such-command", "bench-json"] {
        let (code, stderr) = run(&[cmd]);
        assert_eq!(code, 2, "{cmd} stderr: {stderr}");
        assert!(stderr.contains(cmd), "{cmd} stderr: {stderr}");
    }
}
