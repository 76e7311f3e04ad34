//! Property-based tests: randomly generated RMA programs checked against
//! sequential oracles.
//!
//! Two families:
//!
//! 1. **Single-origin programs** — one rank issues a random sequence of
//!    epochs (fence / GATS / lock / lock_all) each containing random puts
//!    and accumulates. With reorder flags off, epochs execute in order, so
//!    replaying the operations sequentially on a local model of every
//!    target's memory must match the final window contents byte for byte.
//! 2. **Multi-origin commutative programs** — every rank fires random
//!    `Sum` accumulates at random targets through nonblocking, out-of-order
//!    (`A_A_A_R`) epochs. Addition commutes, so the final contents must
//!    equal the sum of all operands regardless of completion order.

use nonblocking_rma::{
    run_job, Datatype, Group, JobConfig, LockKind, Rank, ReduceOp, SimTime,
};
use proptest::prelude::*;

const WIN_BYTES: usize = 64;

/// One operation inside an epoch.
#[derive(Clone, Debug)]
enum Op {
    Put { target: usize, disp: usize, val: u8, len: usize },
    AccSum { target: usize, slot: usize, operand: u64 },
    Get { target: usize, disp: usize, len: usize },
}

/// One epoch of a generated program.
#[derive(Clone, Debug)]
enum Epoch {
    Fence(Vec<Op>),
    Gats(Vec<Op>),
    Lock { target: usize, ops: Vec<Op> },
    LockAll(Vec<Op>),
}

fn op_strategy(n_ranks: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (1..n_ranks, 0..WIN_BYTES - 8, any::<u8>(), 1..8usize).prop_map(
            |(target, disp, val, len)| Op::Put {
                target,
                disp: disp.min(WIN_BYTES - len),
                val,
                len,
            }
        ),
        (1..n_ranks, 0..WIN_BYTES / 8, any::<u64>()).prop_map(|(target, slot, operand)| {
            Op::AccSum {
                target,
                slot,
                operand,
            }
        }),
        (1..n_ranks, 0..WIN_BYTES - 8, 1..8usize).prop_map(|(target, disp, len)| Op::Get {
            target,
            disp: disp.min(WIN_BYTES - len),
            len,
        }),
    ]
}

fn ops_strategy(n_ranks: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(op_strategy(n_ranks), 0..5)
}

fn epoch_strategy(n_ranks: usize) -> impl Strategy<Value = Epoch> {
    prop_oneof![
        ops_strategy(n_ranks).prop_map(Epoch::Fence),
        ops_strategy(n_ranks).prop_map(Epoch::Gats),
        (1..n_ranks, ops_strategy(n_ranks)).prop_map(|(target, ops)| {
            // Lock epochs address a single target: retarget every op.
            let ops = ops
                .into_iter()
                .map(|op| match op {
                    Op::Put { disp, val, len, .. } => Op::Put { target, disp, val, len },
                    Op::AccSum { slot, operand, .. } => Op::AccSum { target, slot, operand },
                    Op::Get { disp, len, .. } => Op::Get { target, disp, len },
                })
                .collect();
            Epoch::Lock { target, ops }
        }),
        ops_strategy(n_ranks).prop_map(Epoch::LockAll),
    ]
}

/// Apply the program to a local memory model; returns (final memories,
/// expected get results in program order).
fn oracle(n_ranks: usize, program: &[Epoch]) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    let mut mem = vec![vec![0u8; WIN_BYTES]; n_ranks];
    let mut gets = Vec::new();
    let mut apply = |op: &Op, gets: &mut Vec<Vec<u8>>| match op {
        Op::Put { target, disp, val, len } => {
            mem[*target][*disp..disp + len].fill(*val);
        }
        Op::AccSum { target, slot, operand } => {
            let d = slot * 8;
            let cur = u64::from_le_bytes(mem[*target][d..d + 8].try_into().unwrap());
            mem[*target][d..d + 8].copy_from_slice(&cur.wrapping_add(*operand).to_le_bytes());
        }
        Op::Get { target, disp, len } => {
            gets.push(mem[*target][*disp..disp + len].to_vec());
        }
    };
    for e in program {
        let ops = match e {
            Epoch::Fence(o) | Epoch::Gats(o) | Epoch::LockAll(o) => o,
            Epoch::Lock { ops, .. } => ops,
        };
        for op in ops {
            apply(op, &mut gets);
        }
    }
    (mem, gets)
}

/// Drive the generated program through the real runtime. Rank 0 is the
/// only origin; targets cooperate (posting exposures / fencing as needed).
fn execute(
    n_ranks: usize,
    program: Vec<Epoch>,
    nonblocking: bool,
) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    execute_with(n_ranks, program, nonblocking, nonblocking_rma::SyncStrategy::Redesigned)
}

fn execute_with(
    n_ranks: usize,
    program: Vec<Epoch>,
    nonblocking: bool,
    strategy: nonblocking_rma::SyncStrategy,
) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
    // Targets must know how many epochs of each participation they join.
    let fence_count = program
        .iter()
        .filter(|e| matches!(e, Epoch::Fence(_)))
        .count();
    let gats_count = program.iter().filter(|e| matches!(e, Epoch::Gats(_))).count();

    let report = run_job(JobConfig::new(n_ranks).with_seed(7).with_strategy(strategy), move |env| {
        let me = env.rank().idx();
        let win = env.win_allocate(WIN_BYTES).unwrap();
        env.barrier().unwrap();
        // The origin's get results, in issue order.
        let mut gets = Vec::new();
        if me == 0 {
            let mut pending = Vec::new();
            let mut get_reqs = Vec::new();
            for e in program.iter() {
                match e {
                    Epoch::Fence(ops) => {
                        env.fence(win).unwrap();
                        issue(env, win, ops, &mut get_reqs);
                        if nonblocking {
                            pending.push(env.ifence(win).unwrap());
                        } else {
                            env.fence(win).unwrap();
                        }
                    }
                    Epoch::Gats(ops) => {
                        env.start(win, Group::new(1..n_ranks)).unwrap();
                        issue(env, win, ops, &mut get_reqs);
                        if nonblocking {
                            pending.push(env.icomplete(win).unwrap());
                        } else {
                            env.complete(win).unwrap();
                        }
                    }
                    Epoch::Lock { target, ops } => {
                        env.lock(win, Rank(*target), LockKind::Exclusive).unwrap();
                        issue(env, win, ops, &mut get_reqs);
                        if nonblocking {
                            pending.push(env.iunlock(win, Rank(*target)).unwrap());
                        } else {
                            env.unlock(win, Rank(*target)).unwrap();
                        }
                    }
                    Epoch::LockAll(ops) => {
                        env.lock_all(win).unwrap();
                        issue(env, win, ops, &mut get_reqs);
                        if nonblocking {
                            pending.push(env.iunlock_all(win).unwrap());
                        } else {
                            env.unlock_all(win).unwrap();
                        }
                    }
                }
            }
            env.wait_all(pending).unwrap();
            for r in get_reqs {
                gets.push(env.wait_data(r).unwrap().to_vec());
            }
        } else {
            // Targets: join every fence, expose for every GATS epoch.
            // Epochs are activated serially at the origin (flags off), so
            // target-side participation in program order is correct.
            for e in program.iter() {
                match e {
                    Epoch::Fence(_) => {
                        env.fence(win).unwrap();
                        env.fence(win).unwrap();
                    }
                    Epoch::Gats(_) => {
                        env.post(win, Group::single(Rank(0))).unwrap();
                        env.wait_epoch(win).unwrap();
                    }
                    _ => {}
                }
            }
            let _ = (fence_count, gats_count);
        }
        env.barrier().unwrap();
        let mem = env.read_local(win, 0, WIN_BYTES).unwrap();
        env.win_free(win).unwrap();
        (mem, gets)
    })
    .unwrap();
    let (mems, mut gets): (Vec<_>, Vec<_>) = report.results.into_iter().unzip();
    (mems, gets.swap_remove(0))
}

fn issue(
    env: &nonblocking_rma::RankEnv,
    win: nonblocking_rma::WinId,
    ops: &[Op],
    gets: &mut Vec<nonblocking_rma::Req>,
) {
    for op in ops {
        match op {
            Op::Put { target, disp, val, len } => {
                env.put(win, Rank(*target), *disp, &vec![*val; *len]).unwrap();
            }
            Op::AccSum { target, slot, operand } => {
                env.accumulate(
                    win,
                    Rank(*target),
                    slot * 8,
                    Datatype::U64,
                    ReduceOp::Sum,
                    &operand.to_le_bytes(),
                )
                .unwrap();
            }
            Op::Get { target, disp, len } => {
                gets.push(env.get(win, Rank(*target), *disp, *len).unwrap());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Single-origin random programs match the sequential oracle exactly —
    /// blocking flavour.
    #[test]
    fn single_origin_blocking_matches_oracle(
        program in proptest::collection::vec(epoch_strategy(3), 1..6)
    ) {
        let (expected, expected_gets) = oracle(3, &program);
        let (got, got_gets) = execute(3, program, false);
        for t in 1..3 {
            prop_assert_eq!(&got[t], &expected[t], "target {} memory diverged", t);
        }
        prop_assert_eq!(got_gets, expected_gets, "get results diverged");
    }

    /// Same, nonblocking flavour: closing every epoch with `i`-routines and
    /// waiting at the end must not change the outcome (epochs are still
    /// activated serially with flags off).
    #[test]
    fn single_origin_nonblocking_matches_oracle(
        program in proptest::collection::vec(epoch_strategy(3), 1..6)
    ) {
        let (expected, expected_gets) = oracle(3, &program);
        let (got, got_gets) = execute(3, program, true);
        for t in 1..3 {
            prop_assert_eq!(&got[t], &expected[t], "target {} memory diverged", t);
        }
        prop_assert_eq!(got_gets, expected_gets, "get results diverged");
    }

    /// Strategy equivalence: the lazy MVAPICH-like baseline and the
    /// redesigned engine must compute identical memory and get results for
    /// any program — only timing may differ.
    #[test]
    fn lazy_baseline_computes_identical_results(
        program in proptest::collection::vec(epoch_strategy(3), 1..5)
    ) {
        let (expected, expected_gets) = oracle(3, &program);
        let (got, got_gets) = execute_with(
            3,
            program,
            false,
            nonblocking_rma::SyncStrategy::LazyBaseline,
        );
        for t in 1..3 {
            prop_assert_eq!(&got[t], &expected[t], "target {} memory diverged", t);
        }
        prop_assert_eq!(got_gets, expected_gets, "get results diverged");
    }

    /// Multi-origin commutative accumulates survive out-of-order epochs.
    #[test]
    fn multi_origin_sums_exact_under_aaar(
        plan in proptest::collection::vec(
            proptest::collection::vec((0..4usize, 0..4usize, 0..1000u64), 1..12),
            4..=4
        )
    ) {
        let mut expected = vec![vec![0u64; 4]; 4];
        for (origin, txs) in plan.iter().enumerate() {
            let _ = origin;
            for (target, slot, v) in txs {
                expected[*target][*slot] = expected[*target][*slot].wrapping_add(*v);
            }
        }
        let report = run_job(JobConfig::new(4), move |env| {
            let me = env.rank().idx();
            let win = env
                .win_allocate_with(32, nonblocking_rma::WinInfo::aaar())
                .unwrap();
            env.barrier().unwrap();
            let mut pend = Vec::new();
            for (target, slot, v) in &plan[me] {
                let _ = env.ilock(win, Rank(*target), LockKind::Exclusive).unwrap();
                env.accumulate(
                    win, Rank(*target), slot * 8, Datatype::U64, ReduceOp::Sum,
                    &v.to_le_bytes(),
                ).unwrap();
                pend.push(env.iunlock(win, Rank(*target)).unwrap());
                env.compute(SimTime::from_nanos(((me as u64) * 97 + 13) % 500));
            }
            env.wait_all(pend).unwrap();
            env.barrier().unwrap();
            let bytes = env.read_local(win, 0, 32).unwrap();
            env.win_free(win).unwrap();
            nonblocking_rma::core::datatype::bytes_to_u64s(&bytes)
        })
        .unwrap();
        prop_assert_eq!(report.results, expected);
    }
}
