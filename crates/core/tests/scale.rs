//! Scale test: the neighbour ring at a rank count the dense ω vectors made
//! impossible (96 B × 8192² = 6.4 GB). `#[ignore]`d — it is a release-mode
//! test, run by the `scale-smoke` CI job:
//!
//! ```sh
//! cargo test --release --offline -p mpisim-core --test scale -- --ignored --nocapture
//! ```
//!
//! `MPISIM_SCALE_RANKS` overrides the rank count; README's ranks/RSS table
//! is this test's printed row at 512/2048/4096/8192. It is the only test in
//! this binary, so the process's `VmHWM` is the job's peak.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use mpisim_core::{run_job, Group, JobConfig, LockKind, Rank, WinInfo};

/// The process's peak resident set, MB (Linux only).
fn vm_hwm_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[test]
#[ignore = "release-mode scale run; see the scale-smoke CI job"]
fn neighbour_ring_at_8192_ranks_stays_under_512_mb() {
    let n: usize = std::env::var("MPISIM_SCALE_RANKS")
        .map(|v| v.parse().expect("MPISIM_SCALE_RANKS must be a rank count"))
        .unwrap_or(8192);
    let wrong = Arc::new(AtomicUsize::new(0));
    let bad = wrong.clone();
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
        if env.read_local(win, 0, 16).unwrap() != want {
            bad.fetch_add(1, Ordering::Relaxed);
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
    let wall = t.elapsed();
    assert!(report.is_clean(), "{:?}", report.degradations);
    assert_eq!(report.live_requests, 0);
    assert_eq!(wrong.load(Ordering::Relaxed), 0, "ranks with wrong window contents");
    let hwm = vm_hwm_mb();
    println!(
        "| {n} | {:.2} | {} | {:.3} |",
        wall.as_secs_f64(),
        hwm.map_or("n/a".into(), |m| format!("{m:.0}")),
        report.final_time.as_secs_f64() * 1e3,
    );
    if let Some(mb) = hwm {
        assert!(mb < 512.0, "peak RSS {mb:.0} MB at {n} ranks");
    }
}
