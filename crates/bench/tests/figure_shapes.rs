//! The figure harnesses against the committed results: every `FIGURES`
//! entry re-emits its CSV byte for byte, `results/` holds exactly what
//! `run_all` writes, and Figs 12 and 13 keep their shapes at test scale
//! (tier-1's only runs of `fig12::run` and `fig13::run_matrix`). What
//! each committed figure claims is `claims.rs`, which reads the files and
//! runs nothing.

use mpisim_bench::{fig12, fig13};

const MV: &str = "MVAPICH";
const NEW: &str = "New";
const NB: &str = "New nonblocking";

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
