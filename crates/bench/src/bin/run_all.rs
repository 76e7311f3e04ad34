//! Regenerates every table and figure: the paper's evaluation section and
//! the slack rewriter's `rewrite_apps`. With `MPISIM_CSV_DIR` set it
//! writes every CSV committed under `results/`. Pass `--quick` to shrink
//! the application figures for a fast pass.
fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    for (slug, harness) in mpisim_bench::FIGURES {
        mpisim_bench::emit(&harness(), slug);
    }
    let f12 = if quick {
        mpisim_bench::fig12::Fig12Opts::quick()
    } else {
        mpisim_bench::fig12::Fig12Opts::default()
    };
    mpisim_bench::emit(&mpisim_bench::fig12::run(&f12), "fig12");
    mpisim_bench::emit(&mpisim_bench::fig12::ablation_flow_control(), "ablation_flow_control");
    let f13 = if quick {
        mpisim_bench::fig13::Fig13Opts::quick()
    } else {
        mpisim_bench::fig13::Fig13Opts::default()
    };
    for (i, t) in mpisim_bench::fig13::run(&f13).iter().enumerate() {
        mpisim_bench::emit(t, &format!("fig13_{i}"));
    }
}
