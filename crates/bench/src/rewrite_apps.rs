//! Rewrite-apps figure: the cost-modeled slack rewriter over every
//! application IR twin.
//!
//! For each kernel in `mpisim_apps::ir_models` (halo, stencil2d, LU,
//! transactions, bank) the harness analyzes the all-blocking twin,
//! applies the sound slack rewriter, executes both versions under the
//! engine, and reports the engine-measured payoff: blocked
//! synchronization steps and virtual completion time, before and after.
//! Every row is checked on the way through — both versions must be
//! E-clean and run degradation-free, any applied rewrite must strictly
//! reduce blocked steps, and virtual time must not regress — so the
//! emitted CSV (`rewrite_apps.csv`, a [`crate::FIGURES`] row) doubles as an end-to-end validation
//! of the static layer's cost model on real workload shapes. The
//! transactions twin is the deliberate negative row: its unlocks all
//! release contended exclusive locks, so the rewriter's contention veto
//! declines every relaxation and the row reports a zero delta with
//! `skipped > 0` — the cost model refusing a rewrite that was measured
//! to regress virtual time.

use mpisim_analyze::{analyze, rewrite};

use crate::series::Series;
use crate::table::Table;

/// Run every twin through analyze → rewrite → execute-both, one row per
/// kernel: its ranks, the engine's `sync_blocked_steps` and the virtual
/// completion time of the all-blocking twin and of its sound rewrite,
/// and what the rewriter did. Panics on any soundness violation: a
/// diagnostic on either version, a degraded run, a blocked-steps
/// increase, or a virtual-time regression.
pub fn run() -> Table {
    let mut t = Table::new(
        "Slack rewriter over the application kernels (blocking IR twin vs sound rewrite)",
        "app",
        vec![
            "ranks".into(),
            "blocked_steps".into(),
            "blocked_steps_rw".into(),
            "blocked_reduction_pct".into(),
            "virt_us".into(),
            "virt_us_rw".into(),
            "relaxed".into(),
            "elided".into(),
            "localized".into(),
            "shrunk".into(),
            "skipped".into(),
        ],
        "engine counters",
    );
    let strategy = Series::New.strategy();
    for (name, p) in mpisim_apps::ir_models::suite(false) {
        let diags = analyze(&p);
        assert!(diags.is_empty(), "{name}: twin not E-clean: {diags:?}");
        let (rw, rep) = rewrite(&p);
        assert!(
            rep.changed() || rep.skipped > 0,
            "{name}: rewriter neither changed anything nor vetoed anything"
        );
        let diags = analyze(&rw);
        assert!(diags.is_empty(), "{name}: rewritten twin not E-clean: {diags:?}");

        let (_, r0) = mpisim_analyze::exec_ir_with(&p, false, 7, strategy)
            .unwrap_or_else(|e| panic!("{name}: blocking run failed: {e:?}"));
        assert!(r0.is_clean(), "{name}: blocking run degraded: {:?}", r0.degradations);
        let (_, r1) = mpisim_analyze::exec_ir_with(&rw, false, 7, strategy)
            .unwrap_or_else(|e| panic!("{name}: rewritten run failed: {e:?}"));
        assert!(r1.is_clean(), "{name}: rewritten run degraded: {:?}", r1.degradations);

        let (s0, s1) = (r0.engine.sync_blocked_steps, r1.engine.sync_blocked_steps);
        if rep.changed() {
            assert!(s1 < s0, "{name}: rewrite did not reduce blocked steps ({s0} -> {s1})");
        } else {
            assert_eq!(s1, s0, "{name}: unchanged program measured differently");
        }
        let (t0, t1) = (r0.final_time, r1.final_time);
        assert!(t1 <= t0, "{name}: rewrite regressed virtual time ({t0:?} -> {t1:?})");

        let pct = if s0 > 0 { 100.0 * (s0 - s1) as f64 / s0 as f64 } else { f64::NAN };
        t.push(
            name,
            vec![
                p.n_ranks as f64,
                s0 as f64,
                s1 as f64,
                pct,
                t0.as_nanos() as f64 / 1000.0,
                t1.as_nanos() as f64 / 1000.0,
                rep.relaxed as f64,
                rep.elided as f64,
                rep.localized as f64,
                rep.shrunk as f64,
                rep.skipped as f64,
            ],
        );
    }
    t
}
