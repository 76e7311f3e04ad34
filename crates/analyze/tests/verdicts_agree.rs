//! The static walk and the engine decide epoch legality from one table,
//! `mpisim_core::epoch::OpenSet`, and range-check the same arguments, so
//! they agree on misuse: wherever the analyzer reports E001, E002, E004,
//! E005 or E010, running the same program records an API error of the
//! matching kind at the same (rank, statement).
//!
//! One E002 has no runtime error by design and is left out: an operation
//! toward a rank outside the start group while a fence phase is open,
//! which the engine routes into that phase (DESIGN.md §9.2, routing
//! order). The programs here never open a fence phase under a start.

use mpisim_analyze::{analyze, catalog_cases, interpret, Close, Code, IrProgram, Stmt};
use mpisim_core::{JobConfig, RmaError};
use mpisim_sim::SimTime;

const B: Close = Close::Blocking;

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

/// Two-rank programs: rank 0 runs `zero`, rank 1 runs `one`.
fn pair(zero: Vec<Stmt>, one: Vec<Stmt>) -> IrProgram {
    let mut p = IrProgram::new(2, 64);
    p.ranks = vec![zero, one];
    p
}

/// A start while a fence phase has issued operations: refused, so the
/// second fence closes that phase cleanly.
fn start_in_fence_phase() -> IrProgram {
    let fence = || Stmt::Fence { win: 0, close: B };
    let put = Stmt::Put { win: 0, target: 1, disp: 0, len: 8 };
    let start = Stmt::Start { win: 0, group: vec![1] };
    pair(vec![fence(), put, start, fence()], vec![fence(), fence()])
}

/// Misuse beyond the catalog's one row per code: every kind of E005
/// clash, each closing routine without its open, flushes with no passive
/// epoch to cover them, calls toward a rank outside the job, a put past
/// the window's end and a statement on an undeclared window. A refused
/// open leaves both sides' open epochs as they were, so the closes after
/// it are judged alike too.
fn misuse() -> Vec<IrProgram> {
    let put = || Stmt::Put { win: 0, target: 1, disp: 0, len: 8 };
    let lock = || Stmt::Lock { win: 0, target: 1, exclusive: false, nonblocking: false };
    let unlock = || Stmt::Unlock { win: 0, target: 1, close: B };
    let start = || Stmt::Start { win: 0, group: vec![1] };
    let complete = || Stmt::Complete { win: 0, close: B };
    let post = || Stmt::Post { win: 0, group: vec![0] };
    let flush = |target| Stmt::Flush { win: 0, target, local_only: false, close: B };
    let fence = || Stmt::Fence { win: 0, close: B };
    vec![
        start_in_fence_phase(),
        // A start and a lock while a fence phase has issued operations;
        // neither opened, so their closes have nothing to close.
        pair(
            vec![fence(), put(), start(), complete(), lock(), unlock(), fence()],
            vec![fence(), fence()],
        ),
        // A fence inside a lock epoch; the peer's one fence only opens.
        pair(vec![lock(), fence(), unlock()], vec![fence()]),
        // The same lock twice, then `lock_all` and `start` over it; the
        // one lock that opened closes.
        pair(
            vec![lock(), lock(), Stmt::LockAll { win: 0, nonblocking: false }, start(), unlock()],
            vec![],
        ),
        // A second post while the first is open.
        pair(
            vec![start(), put(), complete()],
            vec![post(), post(), Stmt::WaitEpoch { win: 0, close: B }],
        ),
        // Closes without opens, flushes without a passive epoch, and an
        // operation after its epoch closed.
        pair(
            vec![
                complete(),
                Stmt::WaitEpoch { win: 0, close: B },
                Stmt::UnlockAll { win: 0, close: B },
                flush(Some(1)),
                flush(None),
                lock(),
                put(),
                unlock(),
                put(),
            ],
            vec![],
        ),
        // A start, a post, a lock and a put toward rank 2 of a 2-rank job:
        // none opens, so the closes have nothing to close.
        pair(
            vec![
                Stmt::Start { win: 0, group: vec![2] },
                complete(),
                Stmt::Post { win: 0, group: vec![1, 2] },
                Stmt::WaitEpoch { win: 0, close: B },
                Stmt::Lock { win: 0, target: 2, exclusive: true, nonblocking: true },
                Stmt::LockAll { win: 0, nonblocking: false },
                Stmt::Put { win: 0, target: 2, disp: 0, len: 8 },
                // Past the window's end, then on a window never declared.
                Stmt::Put { win: 0, target: 1, disp: 60, len: 8 },
                Stmt::Put { win: 1, target: 1, disp: 0, len: 8 },
                Stmt::UnlockAll { win: 0, close: B },
            ],
            vec![],
        ),
    ]
}

#[test]
fn static_and_runtime_verdicts_agree_on_misuse() {
    let codes = [Code::E001, Code::E002, Code::E004, Code::E005, Code::E010];
    let catalog = catalog_cases().into_iter().filter(|(c, _)| codes.contains(c));
    let mut checked = [0; 5];
    for p in catalog.map(|(_, p)| p).chain(misuse()) {
        let cfg = JobConfig::new(p.n_ranks).with_watchdog(SimTime::from_millis(20));
        let run = interpret(cfg, &p).unwrap_or_else(|e| panic!("{e}: {p:?}"));
        for d in analyze(&p) {
            let Some(i) = codes.iter().position(|&c| c == d.code) else { continue };
            let step = d.step.expect("the walk's legality and range codes name their statement");
            let found = run.errors.iter().find(|e| (e.rank, e.step) == (d.rank, step));
            assert!(
                found.is_some_and(|e| agrees(d.code, &e.error)),
                "{d}: the run recorded {found:?} there ({p:?})"
            );
            checked[i] += 1;
        }
    }
    // E001 ×2, E002 ×5, E004 ×11, E005 ×9, E010 ×3 (with the catalog's
    // one row each; the E005 row's `unlock_all` closes the `lock_all` it
    // refused, so E004).
    assert_eq!(checked, [2, 5, 11, 9, 3]);
}

/// A refused open changes nothing: the walk reports the start's E005 and
/// nothing else — not the second fence, which closes the phase, nor an
/// unclosed start — and the run records the one `AlreadyInEpoch` there.
#[test]
fn a_refused_start_is_the_one_verdict_on_both_sides() {
    let p = start_in_fence_phase();
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
    let opens = [
        (Stmt::Start { win: 0, group: vec![5] }, Stmt::Complete { win: 0, close: B }),
        (Stmt::Post { win: 0, group: vec![5] }, Stmt::WaitEpoch { win: 0, close: B }),
    ];
    for (open, close) in opens {
        let p = pair(vec![open, close], vec![]);
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
