//! A guided tour of the paper's inefficiency patterns (§III): provoke
//! Late Post, Late Complete, and Late Unlock with blocking epochs, then
//! dissolve each with the nonblocking API.
//!
//! Run with: `cargo run --release --example inefficiency_patterns`

use nonblocking_rma::{run_job, Group, JobConfig, LockKind, Rank, SimTime};

const MB: usize = 1 << 20;

fn measure(label: &str, nonblocking: bool) {
    // Late Post: the target posts 1000 µs late; the origin wants to move
    // on to an independent activity.
    let report = run_job(JobConfig::all_internode(2), move |env| {
        let win = env.win_allocate(MB).unwrap();
        env.barrier().unwrap();
        let t0 = env.now();
        if env.rank().idx() == 1 {
            env.compute(SimTime::from_micros(1000)); // late!
            env.post(win, Group::single(Rank(0))).unwrap();
            env.wait_epoch(win).unwrap();
        } else {
            env.start(win, Group::single(Rank(1))).unwrap();
            env.put_synthetic(win, Rank(1), 0, MB).unwrap();
            if nonblocking {
                let r = env.icomplete(win).unwrap();
                env.compute(SimTime::from_micros(300)); // independent work
                env.wait(r).unwrap();
            } else {
                env.complete(win).unwrap();
                env.compute(SimTime::from_micros(300));
            }
        }
        let elapsed = (env.now() - t0).as_micros_f64();
        env.barrier().unwrap();
        env.win_free(win).unwrap();
        elapsed
    })
    .unwrap();
    println!("  {label:<38} origin total: {:>8.1} µs", report.results[0]);
}

fn late_unlock(label: &str, nonblocking: bool) {
    let report = run_job(JobConfig::all_internode(3), move |env| {
        let win = env.win_allocate(MB).unwrap();
        env.barrier().unwrap();
        // The second requester's lock-epoch length; the others return 0.
        let epoch = match env.rank().idx() {
            0 => {
                env.lock(win, Rank(2), LockKind::Exclusive).unwrap();
                env.put_synthetic(win, Rank(2), 0, MB).unwrap();
                if nonblocking {
                    let r = env.iunlock(win, Rank(2)).unwrap();
                    env.compute(SimTime::from_micros(1000));
                    env.wait(r).unwrap();
                } else {
                    env.compute(SimTime::from_micros(1000));
                    env.unlock(win, Rank(2)).unwrap();
                }
                0.0
            }
            1 => {
                env.compute(SimTime::from_micros(50));
                let t0 = env.now();
                env.lock(win, Rank(2), LockKind::Exclusive).unwrap();
                env.put_synthetic(win, Rank(2), 0, MB).unwrap();
                env.unlock(win, Rank(2)).unwrap();
                (env.now() - t0).as_micros_f64()
            }
            _ => 0.0,
        };
        env.barrier().unwrap();
        env.win_free(win).unwrap();
        epoch
    })
    .unwrap();
    println!("  {label:<38} second requester: {:>8.1} µs", report.results[1]);
}

fn main() {
    println!("Late Post (target 1000 µs late, then 300 µs of origin work):");
    measure("blocking complete serializes", false);
    measure("icomplete overlaps the delay", true);

    println!("\nLate Unlock (holder works 1000 µs before releasing):");
    late_unlock("blocking unlock propagates the wait", false);
    late_unlock("iunlock releases at transfer end", true);
}
