//! The static walk and the engine decide epoch legality from one table,
//! `mpisim_core::epoch::OpenSet`, and range-check the same arguments, so
//! they agree on misuse: every row of the verdict table runs, and wherever
//! the analyzer reports E001, E002, E004, E005 or E010 the run records an
//! API error of the matching kind at the same (rank, statement); a `Clean`
//! row's run records none of those kinds anywhere.
//!
//! One E002 has no runtime error by design: an operation toward a rank
//! outside the start group while a fence phase is open, which the engine
//! routes into that phase (DESIGN.md §9.2, routing order). No row opens a
//! fence phase under a start; a row that did would be left out here by
//! name.

#[path = "../../../tests/support/pin.rs"]
mod pin;

use mpisim_analyze::{analyze, cases, interpret, Code, Expect, IrProgram, RunFailure};
use mpisim_core::{JobConfig, RmaError};
use mpisim_sim::SimTime;

/// The codes the run judges.
const JUDGED: [Code; 5] = [Code::E001, Code::E002, Code::E004, Code::E005, Code::E010];

/// Whether `error` is the runtime's verdict for diagnostic `code`.
fn agrees(code: Code, error: &RmaError) -> bool {
    match code {
        Code::E001 => matches!(error, RmaError::NoEpoch { .. }),
        // A rank outside the job, or one outside the start group that no
        // other open epoch covers.
        Code::E002 => matches!(error, RmaError::InvalidRank(_) | RmaError::NoEpoch { .. }),
        Code::E004 => matches!(error, RmaError::EpochMismatch { .. } | RmaError::NotPassiveEpoch),
        Code::E005 => matches!(error, RmaError::AlreadyInEpoch { .. }),
        Code::E010 => matches!(error, RmaError::OutOfBounds { .. } | RmaError::InvalidWindow(_)),
        _ => unreachable!("{code} has no runtime judge here"),
    }
}

/// The program of the table row `name`.
fn row(name: &str) -> IrProgram {
    let rows = cases();
    rows.into_iter().find(|c| c.name == name).unwrap_or_else(|| panic!("no row {name}")).program
}

#[test]
fn static_and_runtime_verdicts_agree_on_every_row() {
    let mut checked = [0; 5];
    for case in cases() {
        let (name, p) = (case.name, &case.program);
        let diags = analyze(p);
        let judged = |c: Code| JUDGED.contains(&c);
        let cfg = JobConfig::new(p.n_ranks).with_watchdog(SimTime::from_millis(20));
        let run = match interpret(cfg, p) {
            Ok(run) => run,
            // A barrier-count mismatch deadlocks with no epoch for the
            // watchdog to cancel; such a row judges nothing here.
            Err(RunFailure::Deadlock(e)) => {
                assert!(case.expect != Expect::Clean, "{name}: {e}");
                assert!(!diags.iter().any(|d| judged(d.code)), "{name}: {e}");
                continue;
            }
            Err(e) => panic!("{name}: {e}"),
        };
        if case.expect == Expect::Clean {
            let errors = run.errors.iter().filter(|e| JUDGED.iter().any(|&c| agrees(c, &e.error)));
            assert_eq!(errors.collect::<Vec<_>>(), Vec::<&_>::new(), "{name}");
        }
        for d in diags.iter().filter(|d| judged(d.code)) {
            let step = d.step.expect("the walk's legality and range codes name their statement");
            let found = run.errors.iter().find(|e| (e.rank, e.step) == (d.rank, step));
            assert!(
                found.is_some_and(|e| agrees(d.code, &e.error)),
                "{name}: {d}: the run recorded {found:?} there"
            );
            checked[JUDGED.iter().position(|&c| c == d.code).unwrap()] += 1;
        }
    }
    // E001, E002, E004, E005, E010, over the rows named after them and the
    // misuse rows: every E005 clash kind, closes without opens, flushes
    // with no passive epoch, ranks outside the job, a put past the
    // window's end or its displacement's range, an undeclared window.
    pin::check("analyze/verdicts_agree::static_and_runtime_verdicts_agree_on_every_row", [("checked", format!("{checked:?}"))]);
}

/// A refused open changes nothing: the walk reports the start's E005 and
/// nothing else — not the second fence, which closes the phase, nor an
/// unclosed start — and the run records the one `AlreadyInEpoch` there.
#[test]
fn a_refused_start_is_the_one_verdict_on_both_sides() {
    let p = row("E005 start-in-fence-phase");
    let diags: Vec<_> = analyze(&p).into_iter().map(|d| (d.code, d.rank, d.step)).collect();
    assert_eq!(diags, [(Code::E005, 0, Some(2))]);
    let run = interpret(JobConfig::new(2), &p).unwrap();
    let errors: Vec<_> = run.errors.iter().map(|e| (e.rank, e.step)).collect();
    assert_eq!(errors, [(0, 2)]);
    assert!(agrees(Code::E005, &run.errors[0].error), "{:?}", run.errors);
}

/// A start or post whose group names a rank outside the job is refused
/// before anything opens, on both sides: the walk reports E002 there and
/// E004 at the close after it, and the run records `InvalidRank`, then
/// the close's mismatch.
#[test]
fn a_group_outside_the_job_is_refused_on_both_sides() {
    for name in ["E002 start-group-outside-the-job", "E002 post-group-outside-the-job"] {
        let p = row(name);
        let diags: Vec<_> = analyze(&p).into_iter().map(|d| (d.code, d.rank, d.step)).collect();
        assert_eq!(diags, [(Code::E002, 0, Some(0)), (Code::E004, 0, Some(1))], "{p:?}");
        let run = interpret(JobConfig::new(2), &p).unwrap();
        let errors: Vec<_> = run.errors.iter().map(|e| (e.rank, e.step, &e.error)).collect();
        assert!(
            matches!(
                errors[..],
                [(0, 0, RmaError::InvalidRank(5)), (0, 1, RmaError::EpochMismatch { .. })]
            ),
            "{errors:?}"
        );
    }
}
