//! Scale tests: the neighbour ring at a rank count the dense ω vectors made
//! impossible (96 B × 8192² = 6.4 GB), and a collective round (fence halo +
//! `lock_all`) at a rank count the per-notification completion rescans made
//! impractical (O(ranks³) host work). `#[ignore]`d — they are release-mode
//! tests, run one per process by the `scale-smoke` CI job:
//!
//! ```sh
//! cargo test --release --offline -p mpisim-core --test scale -- --ignored --nocapture neighbour_ring
//! cargo test --release --offline -p mpisim-core --test scale -- --ignored --nocapture collective_round
//! ```
//!
//! `MPISIM_SCALE_RANKS` overrides the rank count; README's ranks tables are
//! these tests' printed rows (ring: 512/2048/4096/8192/16384, collective:
//! 128/256/512). Run alone, a test's process `VmHWM` is its job's peak.

use std::time::Instant;

use mpisim_core::{run_job, Datatype, Group, JobConfig, LockKind, Rank, ReduceOp, WinInfo};

/// The process's peak resident set, MB (Linux only).
fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak RSS bound: 128 MB up to 8192 ranks, and 256 MB above, which holds
/// the 16384-rank ring CI runs. The ring peaks at ~12.9 KB per rank, 103 MB
/// at 8192 ranks: a rank's fiber keeps one resident stack page, because
/// its engine calls run on the driver's stack (asserted below, page by
/// page). With the engine's frames on the fiber stack every fiber kept two
/// pages and the ring peaked at 133 MB; B-tree per-peer tables made it
/// 147 MB, 8 KB eager rings 267 MB.
#[test]
#[ignore = "release-mode scale run; see the scale-smoke CI job"]
fn neighbour_ring_at_8192_ranks_stays_under_128_mb() {
    let n: usize = std::env::var("MPISIM_SCALE_RANKS")
        .map(|v| v.parse().expect("MPISIM_SCALE_RANKS must be a rank count"))
        .unwrap_or(8192);
    let t = Instant::now();
    let report = run_job(JobConfig::new(n), move |env| {
        let win = env.win_allocate_with(16, WinInfo::all_reorder()).unwrap();
        env.barrier().unwrap();
        let me = env.rank().idx();
        let (left, right) = ((me + n - 1) % n, Rank((me + 1) % n));
        let mut pending = vec![env.ilock(win, right, LockKind::Exclusive).unwrap()];
        env.put(win, right, 0, &(me as u64).to_le_bytes()).unwrap();
        pending.push(env.iunlock(win, right).unwrap());
        env.wait_all(pending.drain(..)).unwrap();
        pending.push(env.ipost(win, Group::single(Rank(left))).unwrap());
        pending.push(env.istart(win, Group::single(right)).unwrap());
        env.put(win, right, 8, &(!(me as u64)).to_le_bytes()).unwrap();
        pending.push(env.icomplete(win).unwrap());
        pending.push(env.iwait(win).unwrap());
        env.wait_all(pending).unwrap();
        env.barrier().unwrap();
        let want = [(left as u64).to_le_bytes(), (!(left as u64)).to_le_bytes()].concat();
        let right_contents = env.read_local(win, 0, 16).unwrap() == want;
        env.win_free(win).unwrap();
        right_contents
    })
    .unwrap();
    let wall = t.elapsed();
    assert!(report.is_clean(), "{:?}", report.degradations);
    assert_eq!(report.live_requests, 0);
    let wrong = report.results.iter().filter(|ok| !**ok).count();
    assert_eq!(wrong, 0, "ranks with wrong window contents");
    // The job's stacks are this thread's free list now, as their fibers
    // left them.
    let pages = mpisim_sim::free_stack_resident_pages();
    assert_eq!(pages.len(), n, "every rank's stack was recycled");
    let deeper: Vec<usize> = pages.into_iter().filter(|&p| p != 1).collect();
    assert!(
        deeper.is_empty(),
        "{} fibers kept other than one resident stack page, e.g. {:?}",
        deeper.len(),
        &deeper[..deeper.len().min(8)]
    );
    let hwm = vm_hwm_mb();
    println!(
        "| {n} | {:.2} | {} | {:.3} |",
        wall.as_secs_f64(),
        hwm.map_or("n/a".into(), |m| format!("{m:.0}")),
        report.final_time.as_secs_f64() * 1e3,
    );
    let bound = if n <= 8192 { 128.0 } else { 256.0 };
    if let Some(mb) = hwm {
        assert!(
            mb < bound,
            "peak RSS {mb:.0} MB at {n} ranks, bound {bound} MB"
        );
    }
}

/// The benchmark's `collective_128` round — two fence-closed halo
/// iterations, then one `ilock_all` / 8 accumulates / `iunlock_all` — at a
/// rank count where every rank hears from 511 others per epoch. Prints wall
/// time and the exact cost proxies: the engine's `target_visits`, and the
/// network's `credit_stalls` next to `backlog_visits`, the backlog entries
/// returned credits examined. Asserts no wall time.
#[test]
#[ignore = "release-mode scale run; see the scale-smoke CI job"]
fn collective_round_at_512_ranks() {
    let n: usize = std::env::var("MPISIM_SCALE_RANKS")
        .map(|v| v.parse().expect("MPISIM_SCALE_RANKS must be a rank count"))
        .unwrap_or(512);
    let t = Instant::now();
    let report = run_job(JobConfig::new(n), move |env| {
        let win = env.win_allocate(24).unwrap();
        let me = env.rank().idx();
        let (left, right) = ((me + n - 1) % n, (me + 1) % n);
        env.fence(win).unwrap();
        for i in 0..2u64 {
            let v = ((me as u64) << 8 | i).to_le_bytes();
            env.put(win, Rank(left), 8, &v).unwrap();
            env.put(win, Rank(right), 0, &v).unwrap();
            let closed = env.ifence(win).unwrap();
            env.wait(closed).unwrap();
        }
        env.barrier().unwrap();
        let mut pending = vec![env.ilock_all(win).unwrap()];
        for a in 1..=8 {
            let one = 1u64.to_le_bytes();
            env.accumulate(win, Rank((me + a) % n), 16, Datatype::U64, ReduceOp::Sum, &one)
                .unwrap();
        }
        pending.push(env.iunlock_all(win).unwrap());
        env.wait_all(pending).unwrap();
        env.barrier().unwrap();
        let word = |r: usize| ((r as u64) << 8 | 1).to_le_bytes();
        let want = [word(left), word(right), 8u64.to_le_bytes()].concat();
        let right_contents = env.read_local(win, 0, 24).unwrap() == want;
        env.win_free(win).unwrap();
        right_contents
    })
    .unwrap();
    let wall = t.elapsed();
    assert!(report.is_clean(), "{:?}", report.degradations);
    assert_eq!(report.live_requests, 0);
    let wrong = report.results.iter().filter(|ok| !**ok).count();
    assert_eq!(wrong, 0, "ranks with wrong window contents");
    println!(
        "| {n} | {:.2} | {} | {} | {} | {} | {} | {:.3} |",
        wall.as_secs_f64(),
        vm_hwm_mb().map_or("n/a".into(), |m| format!("{m:.0}")),
        report.net.msgs_sent,
        report.engine.target_visits,
        report.net.credit_stalls,
        report.net.backlog_visits,
        report.final_time.as_secs_f64() * 1e3,
    );
}
