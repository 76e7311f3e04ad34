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
//! emitted CSV (`rewrite_apps.csv`) doubles as an end-to-end validation
//! of the static layer's cost model on real workload shapes. The
//! transactions twin is the deliberate negative row: its unlocks all
//! release contended exclusive locks, so the rewriter's contention veto
//! declines every relaxation and the row reports a zero delta with
//! `skipped > 0` — the cost model refusing a rewrite that was measured
//! to regress virtual time.

use mpisim_analyze::{analyze, rewrite};
use mpisim_core::SyncStrategy;

use crate::table::Table;

/// One application twin's before/after measurements.
#[derive(Debug, Clone)]
pub struct AppDelta {
    /// Kernel label.
    pub name: &'static str,
    /// Ranks in the twin.
    pub ranks: usize,
    /// Engine `sync_blocked_steps`, all-blocking twin.
    pub blocked_orig: u64,
    /// Engine `sync_blocked_steps` after the sound rewrite.
    pub blocked_rw: u64,
    /// Virtual completion time (ns), all-blocking twin.
    pub virt_ns_orig: u64,
    /// Virtual completion time (ns) after the sound rewrite.
    pub virt_ns_rw: u64,
    /// Closes relaxed by the rewriter.
    pub relaxed: usize,
    /// Redundant flushes elided.
    pub elided: usize,
    /// Remote flushes localized.
    pub localized: usize,
    /// Over-wide GATS groups shrunk.
    pub shrunk: usize,
    /// Relaxations vetoed by the cost model.
    pub skipped: usize,
}

/// Run every twin through analyze → rewrite → execute-both and collect
/// the deltas. Panics on any soundness violation: a diagnostic on
/// either version, a degraded run, a blocked-steps increase, or a
/// virtual-time regression.
pub fn run(short: bool) -> Vec<AppDelta> {
    let mut out = Vec::new();
    for (name, p) in mpisim_apps::ir_models::suite(short) {
        let diags = analyze(&p);
        assert!(diags.is_empty(), "{name}: twin not E-clean: {diags:?}");
        let (rw, rep) = rewrite(&p);
        assert!(
            rep.changed() || rep.skipped > 0,
            "{name}: rewriter neither changed anything nor vetoed anything"
        );
        let diags = analyze(&rw);
        assert!(diags.is_empty(), "{name}: rewritten twin not E-clean: {diags:?}");

        let (_, r0) = mpisim_analyze::exec_ir_with(&p, false, 7, SyncStrategy::Redesigned)
            .unwrap_or_else(|e| panic!("{name}: blocking run failed: {e:?}"));
        assert!(r0.is_clean(), "{name}: blocking run degraded: {:?}", r0.degradations);
        let (_, r1) = mpisim_analyze::exec_ir_with(&rw, false, 7, SyncStrategy::Redesigned)
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

        out.push(AppDelta {
            name,
            ranks: p.n_ranks,
            blocked_orig: s0,
            blocked_rw: s1,
            virt_ns_orig: t0.as_nanos(),
            virt_ns_rw: t1.as_nanos(),
            relaxed: rep.relaxed,
            elided: rep.elided,
            localized: rep.localized,
            shrunk: rep.shrunk,
            skipped: rep.skipped,
        });
    }
    out
}

/// Format the deltas as the `rewrite_apps` table/CSV.
pub fn table(deltas: &[AppDelta]) -> Table {
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
    for d in deltas {
        let pct = if d.blocked_orig > 0 {
            100.0 * (d.blocked_orig - d.blocked_rw) as f64 / d.blocked_orig as f64
        } else {
            f64::NAN
        };
        t.push(
            d.name,
            vec![
                d.ranks as f64,
                d.blocked_orig as f64,
                d.blocked_rw as f64,
                pct,
                d.virt_ns_orig as f64 / 1000.0,
                d.virt_ns_rw as f64 / 1000.0,
                d.relaxed as f64,
                d.elided as f64,
                d.localized as f64,
                d.shrunk as f64,
                d.skipped as f64,
            ],
        );
    }
    t
}
