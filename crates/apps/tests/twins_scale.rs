//! Scale test for the static layer: the five application IR twins at 512
//! ranks, the paper's largest Fig 12 job, in the proportions of the
//! benchmark's `static_sweep` twins. `analyze`
//! must cost what it finds: its conflict checks sort each target's
//! accesses and sweep them, and the slack pass (`analyze_slack`, run by
//! every `rewrite` pass) reads the same sweep. On a 2-vCPU host the
//! printed rows sum to 0.4 s; they summed to 7.7 s when `analyze`
//! compared every pair of accesses (halo and LU 1.6 s per `analyze`).
//! `#[ignore]`d — it is a release-mode test, run by the `scale-smoke` CI
//! job:
//!
//! ```sh
//! cargo test --release --offline -p mpisim-apps --test twins_scale -- --ignored --nocapture
//! ```

use std::time::Instant;

use mpisim_analyze::{analyze, analyze_slack, rewrite};
use mpisim_apps::ir_models::{bank_ir, halo_ir, lu_ir, stencil2d_ir, transactions_ir};

#[test]
#[ignore = "release-mode scale run; see the scale-smoke CI job"]
fn twins_at_512_ranks_analyze_clean_and_rewrite_to_a_clean_fixpoint() {
    const RANKS: usize = 512;
    let twins = [
        ("halo", halo_ir(RANKS, 32)),
        ("stencil2d", stencil2d_ir(RANKS, 16)),
        ("lu", lu_ir(RANKS, 64)),
        ("transactions", transactions_ir(RANKS, 8)),
        ("bank", bank_ir(RANKS, 8)),
    ];
    println!("twin          stmts  analyze_s    slack_s  rewrite_s  analyze_rw_s");
    for (name, p) in &twins {
        let stmts: usize = p.ranks.iter().map(Vec::len).sum();
        let t = Instant::now();
        let diags = analyze(p);
        let analyze_s = t.elapsed().as_secs_f64();
        assert!(diags.is_empty(), "{name}: {diags:?}");
        let t = Instant::now();
        analyze_slack(p);
        let slack_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let (rw, _) = rewrite(p);
        let rewrite_s = t.elapsed().as_secs_f64();
        assert_eq!(rewrite(&rw).0, rw, "{name}: rewrite is not idempotent");
        let t = Instant::now();
        let diags = analyze(&rw);
        let analyze_rw_s = t.elapsed().as_secs_f64();
        assert!(diags.is_empty(), "{name} rewritten: {diags:?}");
        println!(
            "{name:<12} {stmts:>6} {analyze_s:>10.3} {slack_s:>10.3} {rewrite_s:>10.3} {analyze_rw_s:>13.3}"
        );
    }
}
