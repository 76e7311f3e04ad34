//! The harness checked against its own table: every [`SWEEPS`] row runs
//! clean and every [`PLANTS`] row is caught by the detector the table
//! names — through [`suite::run`] and [`suite::verdict`], the two calls
//! `mpisim-check`'s `main` makes. Tier-1 runs the rows at their smallest
//! widths (debug profile, so the engine's `debug_assert`s are armed); the
//! `#[ignore]`d test is the same at CI widths and is what the `check` CI
//! job runs.

#[path = "../../../tests/support/pin.rs"]
mod pin;

use mpisim_check::suite::{self, Args, CONFORMANCE};
use mpisim_check::{Outcome, Plant, PLANTS, SWEEPS};
use mpisim_core::Fault;

fn parse(line: &str) -> Result<Args, String> {
    Args::parse(line.split_whitespace().map(String::from))
}

fn args(line: &str) -> Args {
    parse(line).expect(line)
}

fn plant(name: &str) -> &'static Plant {
    PLANTS.iter().find(|p| p.name == name).unwrap()
}

/// Run `p` at `width` of the flag of the sweep it rides and hold the
/// outcome to the table: planted, every plant caught, by that detector.
fn self_test(p: &'static Plant, width: u64, seeds: u64) {
    let flag = SWEEPS.iter().find(|s| s.name == p.rides).expect("rides a row").flag;
    let a = args(&format!("{} {} {flag} {width} --seeds {seeds}", p.flag(), p.name));
    let total = suite::run(&a, |_, _| {});
    let Some(detector) = p.caught_by else {
        // A fault plan: the sublayer repairs it, nothing is planted.
        assert_eq!((total.planted, &total.failures), (0, &vec![]), "--faults {}", p.name);
        assert!(total.runs > 0);
        return suite::verdict(Some(p), &total).map(drop).unwrap();
    };
    assert!(total.planted > 0, "{} planted nothing at {flag} {width}", p.name);
    assert_eq!(total.caught, total.planted, "{}: not all caught by {detector}", p.name);
    assert!(total.failures.is_empty(), "{}: {:#?}", p.name, total.failures);
    if p.rides == CONFORMANCE {
        let first = total.first.as_ref().expect("a caught conformance plant is a failed run");
        assert_eq!(first.failure.name(), detector, "{}: {}", p.name, first.failure);
    }
    let passed = suite::verdict(Some(p), &total).expect(p.name);
    assert!(passed.starts_with("self-test passed: "), "{passed}");
}

#[test]
fn every_sweep_row_runs_clean() {
    let a = args("--seeds 2 --programs 1 --deadlocks 3 --execs 1 --rewrites 2 --recoveries 1");
    let mut lines = Vec::new();
    let total = suite::run(&a, |row, o| {
        assert!(o.failures.is_empty(), "{}: {:#?}", row.label(), o.failures);
        lines.push((row.label(), o.detail.clone()));
    });
    // The summary lines are the sweeps' whole report; their counts are
    // deterministic, so they are pinned as printed.
    lines.push(("runs/planted/failed", format!("{:?}", (total.runs, total.planted, total.failed()))));
    pin::check("check/suite::every_sweep_row_runs_clean", lines);
    suite::verdict(None, &total).unwrap();
}

#[test]
fn every_plant_is_caught_by_its_detector_at_its_smallest_width() {
    for p in &PLANTS {
        self_test(p, p.min, if p.caught_by.is_some() { 1 } else { 2 });
        if p.min > 1 {
            let a = args(&format!("--inject {} --programs {} --seeds 1", p.name, p.min - 1));
            let total = suite::run(&a, |_, _| {});
            assert_eq!(total.planted, 0, "{}: min is not the smallest width", p.name);
            suite::verdict(Some(p), &total).expect_err("a self-test that planted nothing");
        }
    }
}

#[test]
fn hb_race_is_invisible_without_the_race_detector() {
    // Only `races` may catch it: with the detector off the plant must
    // slip through every other layer, and the self-test must fail.
    let a = args("--inject hb-race --no-race-detect --programs 1 --seeds 1");
    let total = suite::run(&a, |_, _| {});
    assert_eq!((total.runs, total.planted, total.failed()), (20, 0, 0));
    suite::verdict(a.plant, &total).expect_err("nothing was caught");
}

#[test]
#[ignore = "CI widths, release: cargo test --release -p mpisim-check --test suite -- --ignored"]
fn every_row_at_ci_width() {
    let widths: String = SWEEPS.iter().map(|s| format!(" {} {}", s.flag, s.ci)).collect();
    let clean = args(&format!("--seeds 4{widths}"));
    let total = suite::run(&clean, |row, o| println!("  {:<18} {}", row.label(), o.detail));
    suite::verdict(None, &total).unwrap();
    for p in &PLANTS {
        let ci = SWEEPS.iter().find(|s| s.name == p.rides).unwrap().ci;
        self_test(p, ci, 4);
    }
}

#[test]
fn exit_rule_counts_only_the_named_detector() {
    let skip_grant = Some(plant("skip-grant"));
    let caught = Outcome { planted: 3, caught: 3, ..Outcome::default() };
    assert!(suite::verdict(skip_grant, &caught).is_ok());
    // Three runs failed, but by panicking — not what skip-grant's detector
    // column says — so nothing counts as caught.
    let panicked = Outcome { planted: 3, caught: 0, ..Outcome::default() };
    assert!(suite::verdict(skip_grant, &panicked).is_err());
    assert!(suite::verdict(skip_grant, &Outcome::default()).is_err(), "planted nothing");
    let noisy = Outcome { failures: vec!["unrelated".into()], ..caught };
    assert!(suite::verdict(skip_grant, &noisy).is_err());
    assert!(suite::verdict(None, &noisy).is_err());
    assert!(suite::verdict(None, &Outcome::default()).is_ok());
    // A fault plan is not a self-test: clean is the expectation.
    assert!(suite::verdict(Some(plant("light-loss")), &Outcome::default()).is_ok());
}

#[test]
fn tables_are_consistent() {
    assert!(SWEEPS[0].name == CONFORMANCE, "Args::programs reads the first row's width");
    for p in &PLANTS {
        assert!(SWEEPS.iter().any(|s| s.name == p.rides), "{} rides no row", p.name);
        let same = PLANTS.iter().filter(|q| q.flag() == p.flag() && q.name == p.name);
        assert_eq!(same.count(), 1, "{} {} is ambiguous", p.flag(), p.name);
        // A panic is never how an engine fault is caught, and an engine
        // fault is one the runtime knows by that name.
        let engine_fault = matches!(p.arm, suite::Arm::EngineFault);
        assert!(!engine_fault || p.caught_by != Some("panic"), "{}", p.name);
        assert!(!engine_fault || Fault::from_name(p.name).is_some(), "{}", p.name);
    }
    // Every runtime plant has exactly one row.
    for f in Fault::ALL {
        let rows = PLANTS.iter().filter(|p| matches!(p.arm, suite::Arm::EngineFault));
        assert_eq!(rows.filter(|p| p.name == f.name()).count(), 1, "{f:?}");
    }
}

#[test]
fn names_are_checked_against_the_table_of_their_flag() {
    for bad in ["--inject skip-grnt", "--inject light-loss", "--faults drop-storm"] {
        let err = parse(bad).expect_err(bad);
        assert!(err.contains("unknown name") && err.contains("usage:"), "{err}");
    }
    assert_eq!(parse("--inject transient-partition").unwrap().plant.unwrap().name, "transient-partition");
    assert!(parse("--faults transient-partition").unwrap().plant.unwrap().caught_by.is_none());
    assert!(parse("--inject transient-partition").unwrap().plant.unwrap().caught_by.is_some());
    assert!(parse("--faults light-loss --inject skip-grant").is_err());
    assert!(parse("--programs 0").is_err());
    assert!(parse("--seeds").is_err());
    let a = parse("--programs 7 --deadlocks 0").unwrap();
    assert_eq!(a.widths, [7, 7, 7, 7, 7, 0, 2, 6, 1, 32]);
}

/// Table and CI cannot drift: every name `ci.yml` hands `mpisim-check`
/// is a row of the table for that flag, and the job that runs every row
/// at CI width is there.
#[test]
fn ci_exercises_the_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../.github/workflows/ci.yml");
    let ci = std::fs::read_to_string(path).expect("ci.yml");
    assert!(
        ci.contains("--test suite -- --ignored"),
        "ci.yml no longer runs every SWEEPS and PLANTS row at CI width"
    );
    let mut named = 0;
    for line in ci.lines().filter(|l| l.contains("mpisim-check") && !l.trim().starts_with('#')) {
        let words: Vec<&str> = line.split_whitespace().collect();
        for pair in words.windows(2).filter(|w| w[0] == "--inject" || w[0] == "--faults") {
            assert!(
                PLANTS.iter().any(|p| p.flag() == pair[0] && p.name == pair[1]),
                "ci.yml: `{} {}` names no PLANTS row",
                pair[0],
                pair[1]
            );
            named += 1;
        }
    }
    assert!(named >= 2, "ci.yml should drive an --inject through the binary, both ways");
}
