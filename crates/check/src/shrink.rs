//! Failing-case minimizer: given a failing (program, spec) pair, greedily
//! remove epochs, then operations, then perturbation knobs while the
//! failure persists, and emit a ready-to-paste reproducer test.
//!
//! Every candidate is re-verified with [`verify`], so the minimized pair is
//! guaranteed to still fail — the reproducer compiles into a test that
//! fails while the bug exists and passes once it is fixed.

use crate::diff::verify;
use crate::program::Program;
use crate::run::RunSpec;

/// Upper bound on re-verification runs during shrinking (each is a full
/// simulation; generated programs are small, so this is generous).
const SHRINK_BUDGET: usize = 200;

struct Shrinker {
    budget: usize,
}

impl Shrinker {
    fn fails(&mut self, program: &Program, spec: &RunSpec) -> bool {
        if self.budget == 0 {
            return false; // out of budget: treat as "don't take this step"
        }
        self.budget -= 1;
        verify(program, spec).is_err()
    }
}

/// Where the `idx`-th epoch of [`Program::epochs`] lives: (rank, position
/// in that rank's script).
fn locate(p: &Program, mut idx: usize) -> Option<(usize, usize)> {
    for (r, script) in p.ranks.iter().enumerate() {
        if idx < script.len() {
            return Some((r, idx));
        }
        idx -= script.len();
    }
    None
}

/// `p` without its `idx`-th epoch (never the last one left).
fn drop_epoch(p: &Program, idx: usize) -> Option<Program> {
    let (r, i) = locate(p, idx).filter(|_| p.epochs().count() > 1)?;
    let mut q = p.clone();
    q.ranks[r].remove(i);
    Some(q)
}

/// `p` without operation `op` of its `epoch`-th epoch.
fn drop_op(p: &Program, epoch: usize, op: usize) -> Option<Program> {
    let (r, i) = locate(p, epoch)?;
    if op >= p.ranks[r][i].1.ops().len() {
        return None;
    }
    let mut q = p.clone();
    q.ranks[r][i].1.ops_mut().remove(op);
    Some(q)
}

/// Greedily minimize a failing pair. Panics if the input pair does not
/// fail (nothing to shrink).
pub fn shrink(program: &Program, spec: &RunSpec) -> (Program, RunSpec) {
    let mut sh = Shrinker { budget: SHRINK_BUDGET };
    assert!(
        sh.fails(program, spec),
        "shrink() called on a passing (program, spec) pair"
    );
    let mut p = program.clone();
    let mut s = spec.clone();

    // 1. Remove whole epochs, scanning to fixpoint.
    loop {
        let mut changed = false;
        let mut idx = 0;
        while idx < p.epochs().count() {
            if let Some(cand) = drop_epoch(&p, idx) {
                if sh.fails(&cand, &s) {
                    p = cand;
                    changed = true;
                    continue; // same index now names the next epoch
                }
            }
            idx += 1;
        }
        if !changed {
            break;
        }
    }

    // 2. Remove individual operations inside surviving epochs.
    loop {
        let mut changed = false;
        for e in 0..p.epochs().count() {
            let mut o = 0;
            while let Some(cand) = drop_op(&p, e, o) {
                if sh.fails(&cand, &s) {
                    p = cand;
                    changed = true;
                } else {
                    o += 1;
                }
            }
        }
        if !changed {
            break;
        }
    }

    // 3. Simplify the spec: prefer the unperturbed schedule if it still
    // reproduces the failure.
    for simpler in [
        RunSpec { net_profile: 0, ..s.clone() },
        RunSpec { tiebreak_seed: None, ..s.clone() },
        RunSpec { sim_seed: 7, ..s.clone() },
    ] {
        if simpler != s && sh.fails(&p, &simpler) {
            s = simpler;
        }
    }
    let both = RunSpec { net_profile: 0, tiebreak_seed: None, sim_seed: 7, ..s.clone() };
    if both != s && sh.fails(&p, &both) {
        s = both;
    }

    (p, s)
}

/// Render a ready-to-paste reproducer test for a failing pair.
pub fn reproducer(program: &Program, spec: &RunSpec) -> String {
    format!(
        "#[test]\nfn shrunk_reproducer() {{\n    #[allow(unused_imports)]\n    use \
         mpisim_check::program::{{Epoch, Family, Op, Program}};\n    use mpisim_check::run::RunSpec;\n    \
         use mpisim_check::SyncStrategy;\n\n    let program = {};\n    let spec = {};\n    // \
         Fails while the bug is present; passes once it is fixed.\n    \
         mpisim_check::verify(&program, &spec).unwrap();\n}}\n",
        program.to_rust(),
        spec.to_rust()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{oracle, Epoch, Family, Op, MULTI_WIN_BYTES};
    use mpisim_core::SyncStrategy;

    fn double_acc_spec() -> RunSpec {
        RunSpec {
            net_profile: 9,
            tiebreak_seed: Some(4),
            sim_seed: 21,
            fault: Some("double-acc".into()),
            ..RunSpec::baseline(SyncStrategy::Redesigned, true)
        }
    }

    /// The double-acc fault only needs one accumulate; everything else in
    /// the program must shrink away.
    #[test]
    fn shrinks_double_acc_to_a_single_accumulate() {
        let program = Program::single_origin(
            Family::MixedSerial,
            3,
            vec![
                Epoch::Fence(vec![Op::Put { target: 1, disp: 0, val: 3, len: 4 }]),
                Epoch::Lock {
                    target: 1,
                    ops: vec![
                        Op::Put { target: 1, disp: 8, val: 9, len: 2 },
                        Op::AccSum { target: 1, slot: 3, operand: 11 },
                    ],
                },
                Epoch::Gats(vec![Op::Get { target: 2, disp: 0, len: 4 }]),
            ],
        );
        let (p, s) = shrink(&program, &double_acc_spec());
        assert!(verify(&p, &s).is_err(), "shrunk pair must still fail");
        assert_eq!(p.weight(), 2, "one epoch + one accumulate, got {p:?}");
        assert!(matches!(p.ranks[0][0].1.ops(), [Op::AccSum { .. }]));
        // The perturbation knobs are irrelevant to this bug: all reset.
        assert_eq!(s.net_profile, 0);
        assert_eq!(s.tiebreak_seed, None);
        let repro = reproducer(&p, &s);
        assert!(repro.contains("fn shrunk_reproducer"));
        assert!(repro.contains("Op::AccSum"));
        assert!(repro.contains("double-acc"));
    }

    /// One hand-built program over three ranks and two windows, through
    /// everything that reads the generator form: `to_rust` prints the
    /// expression that builds it (the same tokens as its source), the
    /// oracle matches the sums worked out by hand, it verifies clean, and
    /// under double-acc it shrinks — epochs dropped from whichever rank
    /// holds them — to one accumulate.
    #[test]
    fn multi_rank_multi_window_program_round_trips() {
        macro_rules! with_source {
            ($e:expr) => {
                ($e, stringify!($e))
            };
        }
        let (program, source) = with_source!(Program {
            family: Family::MultiOriginSum,
            n_ranks: 3,
            n_wins: 2,
            ranks: vec![
                vec![
                    (0, Epoch::Lock { target: 1, ops: vec![Op::AccSum { target: 1, slot: 0, operand: 5 }] }),
                    (1, Epoch::LockAll(vec![
                        Op::AccSum { target: 2, slot: 1, operand: 7 },
                        Op::AccSum { target: 1, slot: 0, operand: 1 }
                    ]))
                ],
                vec![(1, Epoch::Lock { target: 2, ops: vec![Op::AccSum { target: 2, slot: 1, operand: 11 }] })],
                vec![
                    (0, Epoch::LockAll(vec![Op::AccSum { target: 1, slot: 0, operand: 3 }])),
                    (1, Epoch::Lock { target: 0, ops: vec![] })
                ],
            ],
        });
        let squeeze = |s: &str| s.split_whitespace().collect::<String>();
        assert_eq!(squeeze(&program.to_rust()), squeeze(source));
        assert_eq!(program.weight(), 5 + 5);

        let exp = oracle(&program);
        let slot = |rank: usize, win: usize, slot: usize| {
            let at = win * MULTI_WIN_BYTES + slot * 8;
            u64::from_le_bytes(exp.mems[rank][at..at + 8].try_into().unwrap())
        };
        assert_eq!((slot(1, 0, 0), slot(1, 1, 0), slot(2, 1, 1)), (5 + 3, 1, 7 + 11));
        assert_eq!(exp.mems.iter().flatten().filter(|&&b| b != 0).count(), 3);

        let clean = RunSpec { fault: None, ..double_acc_spec() };
        verify(&program, &clean).expect("the program itself is conformant");
        let (p, s) = shrink(&program, &double_acc_spec());
        assert!(verify(&p, &s).is_err(), "shrunk pair must still fail");
        assert_eq!(p.weight(), 2, "one epoch + one accumulate, got {p:?}");
        assert_eq!((p.n_ranks, p.n_wins), (3, 2));
    }
}
