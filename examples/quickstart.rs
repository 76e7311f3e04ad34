//! Quickstart: every epoch flavour of the API in one small program.
//!
//! Run with: `cargo run --release --example quickstart`

use nonblocking_rma::{run_job, Group, JobConfig, LockKind, Rank, SimTime};

fn main() {
    let report = run_job(JobConfig::new(4), |env| {
        let me = env.rank();
        let n = env.n_ranks();
        let win = env.win_allocate(8 * n).unwrap();

        // ---- 1. Fence epochs: everyone puts its rank to its neighbour.
        env.fence(win).unwrap();
        let next = Rank((me.idx() + 1) % n);
        env.put(win, next, 8 * me.idx(), &(me.idx() as u64).to_le_bytes())
            .unwrap();
        env.fence(win).unwrap();

        // ---- 2. GATS epochs: rank 0 gathers a value from rank 1.
        if me.idx() == 0 {
            env.start(win, Group::single(Rank(1))).unwrap();
            let get = env.get(win, Rank(1), 0, 8).unwrap();
            env.complete(win).unwrap();
            let bytes = env.wait_data(get).unwrap();
            println!(
                "rank0 read {} from rank1's window",
                u64::from_le_bytes(bytes[..].try_into().unwrap())
            );
        } else if me.idx() == 1 {
            env.post(win, Group::single(Rank(0))).unwrap();
            env.wait_epoch(win).unwrap();
        }
        env.barrier().unwrap();

        // ---- 3. A fully nonblocking lock epoch with overlap (§V).
        if me.idx() == 2 {
            let _open = env.ilock(win, Rank(3), LockKind::Exclusive).unwrap();
            env.put(win, Rank(3), 0, &999u64.to_le_bytes()).unwrap();
            let done = env.iunlock(win, Rank(3)).unwrap();
            // The epoch completes in the background while we compute.
            env.compute(SimTime::from_micros(500));
            env.wait(done).unwrap();
            println!("rank2 finished its nonblocking epoch at {}", env.now());
        }
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();

    println!(
        "done: {} virtual time, {} events, {} messages",
        report.final_time, report.sim.events_executed, report.net.msgs_sent
    );
}
