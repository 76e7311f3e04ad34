//! The static walk and the engine decide epoch legality from one table,
//! `mpisim_core::epoch::OpenSet`, so they agree on misuse: wherever the
//! analyzer reports E001, E004 or E005, running the same program records
//! an API error of the matching kind at the same (rank, statement).

use mpisim_analyze::{analyze, catalog_cases, interpret, Close, Code, IrProgram, Stmt};
use mpisim_core::{JobConfig, RmaError};
use mpisim_sim::SimTime;

const B: Close = Close::Blocking;

/// Whether `error` is the runtime's verdict for diagnostic `code`.
fn agrees(code: Code, error: &RmaError) -> bool {
    match code {
        Code::E001 => matches!(error, RmaError::NoEpoch { .. }),
        Code::E004 => matches!(error, RmaError::EpochMismatch { .. } | RmaError::NotPassiveEpoch),
        Code::E005 => matches!(error, RmaError::AlreadyInEpoch { .. }),
        _ => unreachable!("{code} is not an epoch-legality code"),
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
/// clash, each closing routine without its open, and flushes with no
/// passive epoch to cover them. A refused open leaves both sides' open
/// epochs as they were, so the closes after it are judged alike too.
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
    ]
}

#[test]
fn static_and_runtime_verdicts_agree_on_misuse() {
    let codes = [Code::E001, Code::E004, Code::E005];
    let catalog = catalog_cases().into_iter().filter(|(c, _)| codes.contains(c));
    let mut checked = [0; 3];
    for p in catalog.map(|(_, p)| p).chain(misuse()) {
        let cfg = JobConfig::new(p.n_ranks).with_watchdog(SimTime::from_millis(20));
        let run = interpret(cfg, &p).unwrap_or_else(|e| panic!("{e}: {p:?}"));
        for d in analyze(&p) {
            let Some(i) = codes.iter().position(|&c| c == d.code) else { continue };
            let step = d.step.expect("the walk's E001/E004/E005 name their statement");
            let found = run.errors.iter().find(|e| (e.rank, e.step) == (d.rank, step));
            assert!(
                found.is_some_and(|e| agrees(d.code, &e.error)),
                "{d}: the run recorded {found:?} there ({p:?})"
            );
            checked[i] += 1;
        }
    }
    // E001 ×2, E004 ×9, E005 ×9 (with the catalog's one row each; the
    // E005 row's `unlock_all` closes the `lock_all` it refused, so E004).
    assert_eq!(checked, [2, 9, 9]);
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
