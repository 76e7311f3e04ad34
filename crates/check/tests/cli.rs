//! The exit-code path of the `mpisim-check` binary: what `ci.yml` keys on.
//! At the parent of the PR that added this file the first three tests
//! fail — a misspelt fault name "passed" its self-test (the engine's
//! panic on the unknown name counted as detection) and a self-test over
//! zero programs "passed" too.

use std::process::{Command, Output};

fn check(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mpisim-check")).args(args).output().expect("spawn")
}

#[test]
fn unknown_names_are_usage_errors_and_run_nothing() {
    for args in [
        ["--inject", "skip-grnt", "--seeds", "1", "--programs", "1"],
        ["--inject", "light-loss", "--seeds", "1", "--programs", "1"],
        ["--faults", "drop-storm", "--seeds", "1", "--programs", "1"],
    ] {
        let out = check(&args);
        assert!(!out.status.success(), "{args:?} must be rejected");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("unknown name") && err.contains("skip-grant"), "{err}");
    }
}

#[test]
fn a_self_test_that_planted_nothing_fails() {
    for args in [
        ["--inject", "deadlock", "--deadlocks", "0"],
        ["--inject", "value-deadlock", "--deadlocks", "0"],
        ["--inject", "nondet-exec", "--execs", "0"],
        ["--inject", "bad-rewrite", "--rewrites", "0"],
        ["--inject", "bad-recovery", "--recoveries", "0"],
    ] {
        let out = check(&args);
        assert!(!out.status.success(), "{args:?} planted nothing and must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("self-test failed") && err.contains("planted 0"), "{err}");
    }
}

#[test]
fn help_lists_every_row() {
    let out = check(&["--help"]);
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    for s in &mpisim_check::SWEEPS {
        assert!(help.contains(s.name) && help.contains(s.flag), "{}", s.name);
    }
    for p in &mpisim_check::PLANTS {
        assert!(help.contains(&format!("{} {}", p.flag(), p.name)), "{}", p.name);
    }
}

#[test]
fn exit_status_inverts_under_inject() {
    let caught = check(&["--inject", "double-acc", "--seeds", "1", "--programs", "1"]);
    assert!(caught.status.success(), "{}", String::from_utf8_lossy(&caught.stderr));
    let out = String::from_utf8_lossy(&caught.stdout);
    assert!(out.contains("[injecting fault: double-acc]") && out.contains("fn shrunk_reproducer"));
    let last = "self-test passed: injected fault \"double-acc\" was detected and shrunk\n";
    assert!(out.ends_with(last), "{out}");

    let slipped =
        check(&["--inject", "hb-race", "--no-race-detect", "--seeds", "1", "--programs", "1"]);
    assert!(!slipped.status.success(), "hb-race must slip through with the detector off");

    let clean = check(&["--seeds", "1", "--programs", "1", "--deadlocks", "1", "--rewrites", "1"]);
    assert!(clean.status.success(), "{}", String::from_utf8_lossy(&clean.stderr));
    assert!(String::from_utf8_lossy(&clean.stdout).contains(" failure(s)\n"));
}
