//! Bounded smoke test of the conformance harness itself.
//!
//! The full sweep lives behind `cargo run -p mpisim-check` so its cost is
//! opt-in; this test pins down the three properties CI must never lose:
//! a small clean sweep stays green, each injected fault is caught, and the
//! minimizer shrinks a caught failure to something that still fails. The
//! clean sweep is also where random RMA programs meet the sequential
//! oracle in tier-1: there is no second generator or executor of them.

use mpisim_check::program::{Family, Program};
use mpisim_check::run::RunSpec;
use mpisim_check::{
    generate, reproducer, shrink, spec_for_seed, sweep_family, verify, Failure, SyncStrategy,
};

#[test]
fn bounded_clean_sweep_is_green() {
    // Every family: 2 programs × 4 matrix points × 3 seeds = 24 runs. Then
    // random RMA programs, unperturbed, at every matrix point: one origin's
    // mixed epochs against the sequential oracle (blocking and nonblocking
    // closes, both strategies), and every rank's `Sum` accumulates through
    // out-of-order `A_A_A_R` lock epochs: 24 programs × 4 points = 96 runs.
    let small = Family::ALL.map(|family| (family, 2, 3, Some(String::new()), 24));
    let wide = [Family::MixedSerial, Family::MultiOriginSum].map(|family| (family, 24, 1, None, 96));
    for (family, programs, seeds, fault, runs) in small.into_iter().chain(wide) {
        let report = sweep_family(family, programs, seeds, &fault);
        assert!(
            report.failures.is_empty(),
            "{}: {} failures, first: {}",
            family.label(),
            report.failures.len(),
            report.failures[0].failure
        );
        assert_eq!(report.runs, runs, "{}", family.label());
    }
}

#[test]
fn skip_grant_fault_deadlocks_and_shrinks() {
    // Freezing the exposure-grant stream starves the second GATS epoch of
    // its grant, so any program with two GATS epochs toward one target
    // deadlocks. Inject via RunSpec (not the env var) to stay hermetic.
    let program = Program::single_origin(
        Family::DisjointReorder,
        3,
        vec![
            mpisim_check::program::Epoch::Gats(vec![]),
            mpisim_check::program::Epoch::Gats(vec![]),
        ],
    );
    let mut spec = spec_for_seed(SyncStrategy::Redesigned, true, 3, &None);
    spec.fault = Some("skip-grant".into());
    let failure = verify(&program, &spec).expect_err("skip-grant must deadlock");
    assert!(
        matches!(failure, Failure::Deadlock(_)),
        "expected deadlock, got {failure}"
    );

    let (min_prog, min_spec) = shrink(&program, &spec);
    // Shrinking must preserve failure and reset the perturbation knobs.
    verify(&min_prog, &min_spec).expect_err("shrunk case no longer fails");
    assert!(min_prog.weight() <= program.weight());
    assert_eq!(min_spec.net_profile, 0);
    assert_eq!(min_spec.tiebreak_seed, None);

    let repro = reproducer(&min_prog, &min_spec);
    assert!(repro.contains("#[test]"), "not a pasteable test:\n{repro}");
    assert!(repro.contains("skip-grant"), "fault injection lost:\n{repro}");
    assert!(repro.contains("verify"), "missing the verify call:\n{repro}");
}

#[test]
fn double_acc_fault_diverges_from_oracle() {
    // Applying an eager accumulate twice breaks the Sum totals, which the
    // differential check against the sequential oracle must flag.
    let mut spec = RunSpec::baseline(SyncStrategy::Redesigned, false);
    spec.fault = Some("double-acc".into());
    let mut caught = None;
    for i in 0..4 {
        let program = generate(Family::MultiOriginSum, i);
        if let Err(failure) = verify(&program, &spec) {
            caught = Some((program, failure));
            break;
        }
    }
    let (program, failure) = caught.expect("double-acc never diverged");
    assert!(
        matches!(failure, Failure::Divergence(_)),
        "expected divergence, got {failure}"
    );

    let (min_prog, min_spec) = shrink(&program, &spec);
    verify(&min_prog, &min_spec).expect_err("shrunk case no longer fails");
    assert!(
        min_prog.weight() <= 2,
        "double-acc should shrink to a single accumulate, got weight {}",
        min_prog.weight()
    );
}
