//! Shape assertions for every reproduced figure: `cargo test` fails if a
//! regression flips who wins, erases a crossover, or breaks a magnitude
//! the paper reports. (Full tables print via `run_all`, which emits
//! `FIGURES` and the application figures; these tests run the same
//! harness functions.)

use mpisim_bench::{fig12, fig13, flags, micro};

const MV: &str = "MVAPICH";
const NEW: &str = "New";
const NB: &str = "New nonblocking";

#[test]
fn fig00_latency_parity_and_overlap() {
    let lat = micro::fig00_lock_put_latency();
    for size in ["4B", "64KB", "1MB"] {
        let a = lat.cell(size, MV).unwrap();
        let b = lat.cell(size, NEW).unwrap();
        let c = lat.cell(size, NB).unwrap();
        // Parity: within 15% of each other at every size.
        let max = a.max(b).max(c);
        let min = a.min(b).min(c);
        assert!(
            max / min < 1.15,
            "latency parity broken at {size}: {a} / {b} / {c}"
        );
    }
    let ov = micro::fig00_lock_overlap();
    let mv = ov.cell("epoch length", MV).unwrap();
    let new = ov.cell("epoch length", NEW).unwrap();
    // MVAPICH: no overlap (work + transfer ≈ 640); New: overlap (≈ 345).
    assert!(mv > new + 200.0, "lock-epoch overlap shape broken: {mv} vs {new}");
}

#[test]
fn fig02_shape() {
    let t = micro::fig02_late_post();
    // All three access epochs absorb the late post.
    for s in [MV, NEW, NB] {
        let e = t.cell("access epoch", s).unwrap();
        assert!((1300.0..1500.0).contains(&e), "{s} epoch {e}");
    }
    // Only nonblocking overlaps the two-sided transfer.
    let cum_blocking = t.cell("cumulative", NEW).unwrap();
    let cum_nb = t.cell("cumulative", NB).unwrap();
    assert!(cum_blocking > 1600.0);
    assert!(cum_nb < 1450.0);
}

#[test]
fn fig03_and_fig05_shapes() {
    for t in [micro::fig03_late_complete(), micro::fig05_wait_at_fence()] {
        // Blocking propagates the 1000 µs work at every size.
        for size in ["4B", "1MB"] {
            assert!(t.cell(size, MV).unwrap() > 950.0);
            assert!(t.cell(size, NEW).unwrap() > 950.0);
        }
        // Nonblocking: transfer only (small at 4B, ≈340 at 1MB).
        assert!(t.cell("4B", NB).unwrap() < 50.0);
        let one_mb = t.cell("1MB", NB).unwrap();
        assert!((300.0..420.0).contains(&one_mb));
        // MVAPICH grows with size (issue-at-close), New stays flat.
        assert!(t.cell("1MB", MV).unwrap() > t.cell("4B", MV).unwrap() + 250.0);
    }
}

#[test]
fn fig04_shape() {
    let t = micro::fig04_early_fence();
    for size in ["256KB", "1MB"] {
        let blocking = t.cell(size, NEW).unwrap();
        let nb = t.cell(size, NB).unwrap();
        assert!(nb < 1100.0, "{size}: nonblocking cumulative {nb}");
        assert!(blocking > nb, "{size}: {blocking} vs {nb}");
    }
    // The blocking penalty equals the transfer time, so it grows with size.
    assert!(t.cell("1MB", NEW).unwrap() > t.cell("256KB", NEW).unwrap() + 150.0);
}

#[test]
fn fig06_shape() {
    let t = micro::fig06_late_unlock();
    // MVAPICH: no overlap in the first epoch, immunity in the second.
    assert!(t.cell("first lock (O0)", MV).unwrap() > 1250.0);
    assert!(t.cell("second lock (O1)", MV).unwrap() < 500.0);
    // New blocking: overlap in the first, Late Unlock in the second.
    assert!(t.cell("first lock (O0)", NEW).unwrap() < 1100.0);
    assert!(t.cell("second lock (O1)", NEW).unwrap() > 1100.0);
    // Nonblocking: overlap and no Late Unlock (≈ two transfers).
    assert!(t.cell("first lock (O0)", NB).unwrap() < 1100.0);
    assert!(t.cell("second lock (O1)", NB).unwrap() < 800.0);
}

#[test]
fn flag_figures_shapes() {
    let f7 = flags::fig07_aaar_gats();
    assert!(f7.cell("target T1", "A_A_A_R off").unwrap() > 1400.0);
    assert!(f7.cell("target T1", "A_A_A_R on").unwrap() < 800.0);
    assert!(
        f7.cell("origin cumulative", "A_A_A_R on").unwrap()
            < f7.cell("origin cumulative", "A_A_A_R off").unwrap() - 200.0
    );

    let f8 = flags::fig08_aaar_lock();
    let row = "cumulative O1 epochs (1MB)";
    assert!(f8.cell(row, "A_A_A_R off").unwrap() > 1500.0);
    assert!(
        f8.cell(row, "A_A_A_R on").unwrap() < f8.cell(row, "A_A_A_R off").unwrap() - 200.0
    );

    let f9 = flags::fig09_aaer();
    assert!(f9.cell("target P1", "A_A_E_R off").unwrap() > 1400.0);
    assert!(f9.cell("target P1", "A_A_E_R on").unwrap() < 800.0);
    assert!(f9.cell("P2 (target then origin)", "A_A_E_R on").unwrap() > 1000.0);

    let f10 = flags::fig10_eaer();
    assert!(f10.cell("origin O1", "E_A_E_R off").unwrap() > 1400.0);
    assert!(f10.cell("origin O1", "E_A_E_R on").unwrap() < 800.0);
    assert!(f10.cell("target cumulative", "E_A_E_R on").unwrap() > 1000.0);

    let f11 = flags::fig11_eaar();
    assert!(f11.cell("origin P1", "E_A_A_R off").unwrap() > 1400.0);
    assert!(f11.cell("origin P1", "E_A_A_R on").unwrap() < 800.0);
}

#[test]
fn fig12_shape_quick() {
    let t = fig12::run(&fig12::Fig12Opts::quick());
    for row in ["8", "16", "32"] {
        let mv = t.cell(row, MV).unwrap();
        let nb = t.cell(row, NB).unwrap();
        let aaar = t.cell(row, "New nonblocking + A_A_A_R").unwrap();
        // A_A_A_R clearly dominates; NB is at least in blocking's league.
        assert!(aaar > 1.15 * nb, "{row}: {aaar} vs nb {nb}");
        assert!(nb > 0.85 * mv, "{row}: nb {nb} vs mvapich {mv}");
    }
    // Throughput scales with ranks (uniform random targets).
    assert!(t.cell("32", MV).unwrap() > t.cell("8", MV).unwrap());
}

#[test]
fn fig12_checksum_csv_is_fault_invariant() {
    // The `--faults` mode's core claim at unit scale: replaying the sweep
    // on a lossy network (reliability armed) moves throughput but may not
    // change one byte of the checksum-validation CSV.
    let opts = fig12::Fig12Opts {
        job_sizes: vec![8],
        txs_per_rank: 20,
        max_inflight: 4,
        cores_per_node: 4,
    };
    let clean = fig12::validation_csv(&opts, None);
    let faulted = fig12::validation_csv(&opts, Some("light-loss"));
    assert!(clean.starts_with("job_size,series,checksum\n"));
    assert_eq!(clean.lines().count(), 1 + 4, "one row per series");
    assert_eq!(clean, faulted, "retransmits altered committed updates");
}

#[test]
fn fig13_shape_quick() {
    let (times, comm) = fig13::run_matrix(&fig13::Fig13Opts::quick(), 256);
    // Headline: nonblocking ≈ 50% faster at the smallest job size.
    let b = times.cell("4", NEW).unwrap();
    let nb = times.cell("4", NB).unwrap();
    assert!(nb < 0.65 * b, "NB {nb} vs blocking {b}");
    // Communication share rises with job size for the blocking series...
    assert!(comm.cell("16", MV).unwrap() >= comm.cell("4", MV).unwrap() - 1.0);
    // ...and the blocking series spends ~half its time waiting (Late
    // Complete), while nonblocking stays low at small scale.
    assert!(comm.cell("4", NEW).unwrap() > 40.0);
    assert!(comm.cell("4", NB).unwrap() < 20.0);
}

#[test]
fn rewrite_apps_shape() {
    use mpisim_bench::rewrite_apps;
    // run() itself asserts per-row soundness (E-clean both sides, clean
    // runs, blocked-steps reduction when changed, no virtual-time
    // regression); the shape test pins the figure's story.
    let t = rewrite_apps::run();
    assert_eq!(t.rows.len(), 5, "one row per application kernel");
    for app in ["halo", "stencil2d", "lu", "bank"] {
        let before = t.cell(app, "blocked_steps").unwrap();
        let after = t.cell(app, "blocked_steps_rw").unwrap();
        assert!(after < before, "{app}: {before} -> {after}");
        assert!(
            t.cell(app, "virt_us_rw").unwrap() <= t.cell(app, "virt_us").unwrap(),
            "{app}: virtual time regressed"
        );
        let applied = t.cell(app, "relaxed").unwrap()
            + t.cell(app, "elided").unwrap()
            + t.cell(app, "shrunk").unwrap();
        assert!(applied > 0.0, "{app}: no rewrites applied");
    }
    // The contended exclusive-lock workload is the deliberate negative
    // row: every relaxation vetoed, zero delta.
    assert_eq!(t.cell("transactions", "relaxed").unwrap(), 0.0);
    assert!(t.cell("transactions", "skipped").unwrap() > 0.0);
    assert_eq!(
        t.cell("transactions", "blocked_steps").unwrap(),
        t.cell("transactions", "blocked_steps_rw").unwrap()
    );
}

#[test]
fn figures_match_committed_csvs() {
    // Tier-1 pin of the option-free figures: each harness re-emits its
    // committed CSV byte for byte (the simulator is deterministic).
    for (slug, harness) in mpisim_bench::FIGURES {
        let path = format!("{}/../../results/{slug}.csv", env!("CARGO_MANIFEST_DIR"));
        let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        assert_eq!(harness().to_csv(), want, "{slug} differs from results/{slug}.csv");
    }
}

#[test]
fn results_are_exactly_what_run_all_emits() {
    // `MPISIM_CSV_DIR=results run_all` writes every committed CSV: the
    // `FIGURES` slugs, then Fig 12, its flow-control ablation and Fig 13's
    // two panels per matrix size. No other file belongs in `results/`.
    let fig13 = 2 * fig13::Fig13Opts::default().matrix_sizes.len();
    let mut want: Vec<String> = mpisim_bench::FIGURES
        .iter()
        .map(|(slug, _)| slug.to_string())
        .chain(["fig12", "ablation_flow_control"].map(String::from))
        .chain((0..fig13).map(|i| format!("fig13_{i}")))
        .map(|slug| format!("{slug}.csv"))
        .collect();
    want.sort();
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
    let mut have: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{dir}: {e}"))
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    have.sort();
    assert_eq!(have, want, "results/ differs from the CSVs run_all emits");
}
