//! Integration of the `mpisim-analyze` layers into the conformance
//! pipeline: the positive corpus must be clean under both the static
//! analyzer and the dynamic race detector, and the planted `hb-race`
//! fault must be caught by the race detector — and *only* by the race
//! detector (the oracle and the trace audit cannot see it).

use mpisim_check::{
    generate, lower, verify_with, Epoch, Family, Failure, Op, Program, RunSpec, SyncStrategy,
    VerifyOpts,
};

#[path = "../../../tests/support/pin.rs"]
mod pin;

const STATIC_ONLY: VerifyOpts = VerifyOpts { races: false, fault_plan: None, reliable: false };

/// Satellite acceptance: 3 families × ≥16 seeds, zero false positives
/// from the static analyzer (both close modes). The same loop is the
/// static layer's output pin: FNV-1a over the `Debug` text of everything
/// `analyze`, `analyze_slack` and `rewrite` say, held to `pins.txt`.
#[test]
fn positive_corpus_is_static_clean() {
    use mpisim_analyze::{analyze, analyze_slack, rewrite};
    let mut h = pin::FNV;
    for family in Family::ALL {
        for idx in 0..16 {
            let program = generate(family, idx);
            for nonblocking in [false, true] {
                let p = lower(&program, nonblocking);
                let (diags, slack) = (analyze(&p), analyze_slack(&p));
                assert!(diags.is_empty(), "{family:?} #{idx} nb={nonblocking}: {diags:?}");
                h.debug(&(diags, slack.diags, slack.findings, slack.shrinks, rewrite(&p)));
            }
        }
    }
    pin::check("check/analysis::positive_corpus_is_static_clean", [("digest", h.hex())]);
}

/// Zero false positives from the race detector on executed clean runs:
/// every traced schedule of the positive corpus is HB-race-free.
#[test]
fn positive_corpus_is_race_free() {
    for family in Family::ALL {
        for idx in 0..16 {
            let program = generate(family, idx);
            for nonblocking in [false, true] {
                let spec = RunSpec::baseline(SyncStrategy::Redesigned, nonblocking);
                verify_with(&program, &spec, VerifyOpts::default()).unwrap_or_else(|f| {
                    panic!("{family:?} #{idx} nb={nonblocking}: {f}")
                });
            }
        }
    }
}

fn lock_put_program() -> Program {
    Program::single_origin(
        Family::MixedSerial,
        2,
        vec![Epoch::Lock { target: 1, ops: vec![Op::Put { target: 1, disp: 0, val: 7, len: 8 }] }],
    )
}

fn hb_race_spec() -> RunSpec {
    let mut spec = RunSpec::baseline(SyncStrategy::Redesigned, false);
    spec.fault = Some("hb-race".into());
    spec
}

/// The planted fault makes the target read its own window bytes as RMA
/// data arrives — unordered against the origin's put. The vector-clock
/// detector must flag it.
#[test]
fn hb_race_plant_is_caught_by_race_detector() {
    let err = verify_with(&lock_put_program(), &hb_race_spec(), VerifyOpts::default())
        .expect_err("planted unsynchronized access must be detected");
    assert!(matches!(err, Failure::Races(_)), "wrong failure kind: {err}");
}

/// With the race detector disabled the same planted fault slips through
/// every other layer: the read is side-effect free (oracle clean) and
/// breaks no ω-triple counter invariant (audit clean). This is what makes
/// the CLI's `--inject hb-race --no-race-detect` self-test fail loudly.
#[test]
fn hb_race_plant_is_invisible_without_race_detector() {
    verify_with(&lock_put_program(), &hb_race_spec(), STATIC_ONLY)
        .expect("the plant must be invisible to oracle + audit");
}

/// The same program without the fault is clean under every layer — the
/// detection above is the plant, not a false positive.
#[test]
fn lock_put_program_is_clean_without_plant() {
    let spec = RunSpec::baseline(SyncStrategy::Redesigned, false);
    verify_with(&lock_put_program(), &spec, VerifyOpts::default()).unwrap();
}

/// The fence plane catches the plant too: fence-epoch data arrives before
/// the fence-completion announcements join the clocks.
#[test]
fn hb_race_plant_caught_in_fence_epochs() {
    let program = Program::single_origin(
        Family::MixedSerial,
        2,
        vec![Epoch::Fence(vec![Op::Put { target: 1, disp: 0, val: 3, len: 4 }])],
    );
    let err = verify_with(&program, &hb_race_spec(), VerifyOpts::default())
        .expect_err("fence-plane plant must be detected");
    assert!(matches!(err, Failure::Races(_)), "wrong failure kind: {err}");
}
