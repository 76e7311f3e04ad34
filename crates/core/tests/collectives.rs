//! Integration tests: binomial-tree collectives over the two-sided
//! substrate, including cooperation with RMA phases.

use mpisim_core::{run_job, Datatype, JobConfig, LockKind, Rank, ReduceOp};
use mpisim_sim::SimTime;

#[test]
fn bcast_from_every_root_and_size() {
    for n in [1usize, 2, 3, 5, 8] {
        run_job(JobConfig::all_internode(n), move |env| {
            for root in 0..env.n_ranks() {
                let payload = vec![root as u8; 3 + root];
                let data = if env.rank().idx() == root { payload.clone() } else { vec![] };
                let got = env.bcast(Rank(root), &data).unwrap();
                assert_eq!(got.as_ref(), payload.as_slice(), "root {root}, n {n}");
            }
        })
        .unwrap();
    }
}

#[test]
fn bcast_large_payload_uses_rendezvous() {
    run_job(JobConfig::all_internode(4), |env| {
        let data = if env.rank().idx() == 0 { vec![7u8; 64 * 1024] } else { vec![] };
        let got = env.bcast(Rank(0), &data).unwrap();
        assert_eq!(got.len(), 64 * 1024);
        assert!(got.iter().all(|b| *b == 7));
    })
    .unwrap();
}

#[test]
fn reduce_sums_at_every_root() {
    for n in [1usize, 2, 4, 7] {
        run_job(JobConfig::all_internode(n), move |env| {
            let me = env.rank().idx() as u64;
            let contrib = mpisim_core::datatype::u64s_to_bytes(&[me + 1, 10 * (me + 1)]);
            for root in 0..env.n_ranks() {
                let r = env
                    .reduce(Rank(root), Datatype::U64, ReduceOp::Sum, &contrib)
                    .unwrap();
                if env.rank().idx() == root {
                    let vals = mpisim_core::datatype::bytes_to_u64s(&r.unwrap());
                    let expect: u64 = (1..=n as u64).sum();
                    assert_eq!(vals, vec![expect, 10 * expect]);
                } else {
                    assert!(r.is_none());
                }
            }
        })
        .unwrap();
    }
}

#[test]
fn reduce_max_min_f64() {
    run_job(JobConfig::all_internode(5), |env| {
        let me = env.rank().idx() as f64;
        let contrib = mpisim_core::datatype::f64s_to_bytes(&[me, -me]);
        let mx = env.allreduce(Datatype::F64, ReduceOp::Max, &contrib).unwrap();
        let vals = mpisim_core::datatype::bytes_to_f64s(&mx);
        assert_eq!(vals, vec![4.0, 0.0]);
        let mn = env.allreduce(Datatype::F64, ReduceOp::Min, &contrib).unwrap();
        let vals = mpisim_core::datatype::bytes_to_f64s(&mn);
        assert_eq!(vals, vec![0.0, -4.0]);
    })
    .unwrap();
}

#[test]
fn allreduce_agrees_on_every_rank() {
    run_job(JobConfig::all_internode(6), |env| {
        let me = env.rank().idx() as u64;
        let got = env
            .allreduce(
                Datatype::U64,
                ReduceOp::Sum,
                &mpisim_core::datatype::u64s_to_bytes(&[1 << me]),
            )
            .unwrap();
        let v = mpisim_core::datatype::bytes_to_u64s(&got);
        assert_eq!(v, vec![0b111111]);
    })
    .unwrap();
}

#[test]
fn gather_orders_by_rank() {
    run_job(JobConfig::all_internode(5), |env| {
        let me = env.rank().idx();
        // Staggered arrival to exercise out-of-order receives.
        env.compute(SimTime::from_micros(((me * 37) % 100) as u64));
        let mine = vec![me as u8; me + 1];
        let got = env.gather(Rank(2), &mine).unwrap();
        if me == 2 {
            let bufs = got.unwrap();
            assert_eq!(bufs.len(), 5);
            for (r, b) in bufs.iter().enumerate() {
                assert_eq!(b.as_ref(), vec![r as u8; r + 1].as_slice());
            }
        } else {
            assert!(got.is_none());
        }
    })
    .unwrap();
}

#[test]
fn collectives_interleave_with_rma_phases() {
    run_job(JobConfig::all_internode(4), |env| {
        let me = env.rank().idx();
        let n = env.n_ranks();
        let win = env.win_allocate(8).unwrap();
        env.barrier().unwrap();
        // RMA phase: everyone adds its rank+1 into rank 0's slot.
        env.lock(win, Rank(0), LockKind::Shared).unwrap();
        env.accumulate(win, Rank(0), 0, Datatype::U64, ReduceOp::Sum, &(me as u64 + 1).to_le_bytes())
            .unwrap();
        env.unlock(win, Rank(0)).unwrap();
        env.barrier().unwrap();
        // Collective phase: rank 0 broadcasts the accumulated total.
        let data = if me == 0 { env.read_local(win, 0, 8).unwrap() } else { vec![] };
        let total = env.bcast(Rank(0), &data).unwrap();
        let v = u64::from_le_bytes(total[..].try_into().unwrap());
        assert_eq!(v, (1..=n as u64).sum::<u64>());
        // And everyone validates via an allreduce cross-check.
        let check = env
            .allreduce(Datatype::U64, ReduceOp::Max, &v.to_le_bytes())
            .unwrap();
        assert_eq!(mpisim_core::datatype::bytes_to_u64s(&check), vec![v]);
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn back_to_back_collectives_do_not_cross_tags() {
    run_job(JobConfig::all_internode(3), |env| {
        for i in 0..20u8 {
            let data = if env.rank().idx() == (i % 3) as usize { vec![i; 4] } else { vec![] };
            let got = env.bcast(Rank((i % 3) as usize), &data).unwrap();
            assert_eq!(got.as_ref(), &[i; 4]);
        }
    })
    .unwrap();
}

#[test]
fn invalid_root_rejected() {
    run_job(JobConfig::all_internode(2), |env| {
        assert!(env.bcast(Rank(9), &[1]).is_err());
        assert!(env
            .reduce(Rank(9), Datatype::U64, ReduceOp::Sum, &[0; 8])
            .is_err());
        assert!(env.gather(Rank(9), &[1]).is_err());
    })
    .unwrap();
}
