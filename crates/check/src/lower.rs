//! Lower a generated [`Program`] into the [`IrProgram`] that is both
//! analysed and executed.
//!
//! A `Program` does not say which API calls it makes; the lowering does,
//! for one close mode: each driven epoch becomes its open, its operations
//! (with their payloads) and its blocking or nonblocking close, every
//! other rank gets the cooperating fences and post/wait pairs, and a rank
//! that drove anything ends in a `wait_all`. [`Family`]'s fixed traits
//! fill in the rest — window size and reorder flags, the flush before a
//! lock epoch's close, nonblocking opens, compute pacing. The result is
//! what [`mpisim_analyze::analyze`] judges and what
//! [`crate::run::execute`] hands to the interpreter, so a clean verdict
//! speaks about precisely the program the runtime executes
//! (analyzer-clean ⇒ oracle-clean ∧ audit-clean is the harness's
//! soundness claim).
//!
//! Ranks take the drivers in rank order — first cooperating with every
//! lower-ranked driver's active-target epochs, then driving their own
//! script, then cooperating with the higher-ranked drivers — so the
//! collective calls line up on every rank whatever the scripts are.

use mpisim_analyze::{Close, IrProgram, Stmt};
use mpisim_core::ReduceOp;

use crate::program::{Epoch, Family, Op, Program};

fn lower_op(win: usize, op: &Op) -> Stmt {
    match *op {
        Op::Put { target, disp, val, len } => Stmt::PutVal { win, target, disp, len, val },
        Op::Get { target, disp, len } => Stmt::Get { win, target, disp, len },
        Op::AccSum { target, slot, operand } => {
            Stmt::AccVal { win, target, disp: slot * 8, op: ReduceOp::Sum, val: operand }
        }
    }
}

/// Lower one epoch `me` drives on `win` into its statement stream.
fn lower_driver(
    stmts: &mut Vec<Stmt>,
    family: Family,
    me: usize,
    n_ranks: usize,
    win: usize,
    e: &Epoch,
    nonblocking: bool,
) {
    let close = if nonblocking { Close::Nonblocking } else { Close::Blocking };
    let i_open = nonblocking && family.nonblocking_opens();
    let ops = e.ops().iter().map(|op| lower_op(win, op));
    match e {
        Epoch::Fence(_) => {
            stmts.push(Stmt::Fence { win, close: Close::Blocking });
            stmts.extend(ops);
            stmts.push(Stmt::Fence { win, close });
        }
        Epoch::Gats(_) => {
            stmts.push(Stmt::Start { win, group: (0..n_ranks).filter(|r| *r != me).collect() });
            stmts.extend(ops);
            stmts.push(Stmt::Complete { win, close });
        }
        Epoch::Lock { target, .. } => {
            let target = *target;
            stmts.push(Stmt::Lock { win, target, exclusive: true, nonblocking: i_open });
            stmts.extend(ops);
            if family.flush_locks() {
                stmts.push(Stmt::Flush {
                    win,
                    target: Some(target),
                    local_only: false,
                    close: Close::Blocking,
                });
            }
            stmts.push(Stmt::Unlock { win, target, close });
        }
        Epoch::LockAll(_) => {
            stmts.push(Stmt::LockAll { win, nonblocking: i_open });
            stmts.extend(ops);
            stmts.push(Stmt::UnlockAll { win, close });
        }
    }
    if let Some(ns) = family.pacing_ns(me) {
        stmts.push(Stmt::Compute { ns });
    }
}

/// Lower a rank's cooperation with one epoch `driver` drives on `win`:
/// join both fences, or expose for the GATS epoch (blocking closes on
/// this side). Passive-target epochs need nothing.
fn lower_target(stmts: &mut Vec<Stmt>, driver: usize, win: usize, e: &Epoch) {
    match e {
        Epoch::Fence(_) => {
            stmts.push(Stmt::Fence { win, close: Close::Blocking });
            stmts.push(Stmt::Fence { win, close: Close::Blocking });
        }
        Epoch::Gats(_) => {
            stmts.push(Stmt::Post { win, group: vec![driver] });
            stmts.push(Stmt::WaitEpoch { win, close: Close::Blocking });
        }
        Epoch::Lock { .. } | Epoch::LockAll(_) => {}
    }
}

/// Lower `program` as it executes with `nonblocking` epoch closes.
pub fn lower(program: &Program, nonblocking: bool) -> IrProgram {
    let family = program.family;
    let mut p = IrProgram::new(program.n_ranks, family.win_bytes());
    for _ in 1..program.n_wins {
        p.add_window(family.win_bytes());
    }
    p.reorder = family.reorder();
    for (me, stmts) in p.ranks.iter_mut().enumerate() {
        for (driver, script) in program.ranks.iter().enumerate() {
            for (win, e) in script {
                if driver == me {
                    lower_driver(stmts, family, me, program.n_ranks, *win, e, nonblocking);
                } else {
                    lower_target(stmts, driver, *win, e);
                }
            }
        }
        if !program.ranks[me].is_empty() {
            stmts.push(Stmt::WaitAll);
        }
        stmts.push(Stmt::Barrier);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::generate;
    use mpisim_analyze::{analyze, has_code, Code};

    #[test]
    fn lowered_generated_programs_are_analyzer_clean() {
        for family in Family::ALL {
            for idx in 0..16 {
                let program = generate(family, idx);
                for nonblocking in [false, true] {
                    let ir = lower(&program, nonblocking);
                    let diags = analyze(&ir);
                    assert!(
                        diags.is_empty(),
                        "{family:?} #{idx} nb={nonblocking}: {diags:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn lowering_reflects_close_mode() {
        let program = generate(Family::MixedSerial, 0);
        let b = lower(&program, false);
        let nb = lower(&program, true);
        assert!(!b.ranks[0].contains(&Stmt::Fence { win: 0, close: Close::Nonblocking }));
        assert_ne!(b, nb);
    }

    #[test]
    fn multi_window_lowering_spans_windows_and_flushes_locks() {
        let program = generate(Family::MultiWindow, 0);
        let ir = lower(&program, false);
        assert_eq!(ir.windows.len(), program.n_wins);
        let flushes = ir.ranks[0].iter().filter(|s| matches!(s, Stmt::Flush { .. })).count();
        let locks = program.epochs().filter(|(_, e)| matches!(e, Epoch::Lock { .. })).count();
        assert_eq!(flushes, locks);
    }

    /// Under nonblocking closes a storm opens with `ilock_all`, whose dummy
    /// request must be consumed (§VII.C), and paces every epoch: the
    /// lowering says so, and the analyzer holds it to the former.
    #[test]
    fn storm_opens_nonblocking_and_its_request_must_be_waited() {
        for idx in 0..8 {
            let program = generate(Family::LockAllStorm, idx);
            let open = Stmt::LockAll { win: 0, nonblocking: true };
            assert!(!lower(&program, false).ranks[0].contains(&open));
            let mut ir = lower(&program, true);
            assert!(ir.ranks.iter().all(|stmts| stmts.contains(&open)), "#{idx}");
            for (stmts, script) in ir.ranks.iter().zip(&program.ranks) {
                let paces = stmts.iter().filter(|s| matches!(s, Stmt::Compute { .. })).count();
                assert_eq!(paces, script.len());
            }
            assert!(analyze(&ir).is_empty());
            for stmts in &mut ir.ranks {
                stmts.retain(|s| *s != Stmt::WaitAll);
            }
            assert!(has_code(&analyze(&ir), Code::E008), "#{idx}: dropped wait not flagged");
        }
    }
}
