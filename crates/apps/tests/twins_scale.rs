//! Scale test for the static layer: the five application IR twins at 512
//! ranks, the paper's largest Fig 12 job, in the proportions of the
//! benchmark's `static_sweep` twins. `analyze`
//! must cost what it finds: its conflict checks sort each target's
//! accesses and sweep them, the slack pass (`analyze_slack`, run by
//! every `rewrite` pass) reads the same sweep, the deadlock fixpoint
//! resolves each wait once, and every start meets its post through one
//! pairing table built once per program. On a 2-vCPU host the printed
//! rows sum to 0.31–0.44 s (median 0.34 s of five runs), and to
//! 0.32–0.44 s (median 0.36 s, runs alternating) when each pass searched
//! for a start's post again at every question. Under an earlier load
//! they summed to 0.56–0.62 s when the fixpoint re-resolved a wait on
//! every check (halo 0.10 s per `analyze`), and to 7.7 s when `analyze`
//! compared every pair of accesses (halo and LU 1.6 s per `analyze`).
//! That test is `#[ignore]`d
//! — it is a release-mode test, run by the `scale-smoke` CI job:
//!
//! ```sh
//! cargo test --release --offline -p mpisim-apps --test twins_scale -- --ignored --nocapture
//! ```
//!
//! The blame test beside it runs in tier-1: one call missing among 64
//! ranks.

use std::collections::BTreeMap;
use std::time::Instant;

use mpisim_analyze::{analyze, analyze_slack, rewrite, Code, Diagnostic, IrProgram, Stmt};
use mpisim_apps::ir_models::{bank_ir, halo_ir, lu_ir, stencil2d_ir, transactions_ir};

/// `analyze` of `p` with `rank`'s statement at `step` removed, and how
/// many diagnostics of each code it gives.
fn without(mut p: IrProgram, rank: usize, step: usize) -> (Vec<Diagnostic>, BTreeMap<Code, usize>) {
    p.ranks[rank].remove(step);
    let diags = analyze(&p);
    let mut counts = BTreeMap::new();
    for d in &diags {
        *counts.entry(d.code).or_default() += 1;
    }
    (diags, counts)
}

/// One call missing among 64 ranks: the deadlock pass blames the one rank
/// that never makes it, against a wait list most of whose needs are met.
#[test]
fn a_call_missing_at_64_ranks_is_blamed_on_its_rank() {
    let halo = halo_ir(64, 4);
    let last = halo.ranks[7].iter().rposition(|s| matches!(s, Stmt::Fence { .. })).unwrap();
    let (diags, counts) = without(halo, 7, last);
    assert_eq!(counts, BTreeMap::from([(Code::E003, 1), (Code::E011, 1), (Code::E016, 63)]));
    for d in diags.iter().filter(|d| d.code == Code::E016) {
        let why = "rank 7 makes only 4 fence call(s) on window 0, so fence phase 3 can never \
                   complete";
        assert!(d.detail.ends_with(why), "{d}");
    }

    let lu = lu_ir(64, 8);
    let first = lu.ranks[9].iter().position(|s| matches!(s, Stmt::Post { .. })).unwrap();
    let (diags, counts) = without(lu, 9, first);
    assert_eq!(counts, BTreeMap::from([(Code::E004, 1), (Code::E011, 1), (Code::E015, 1)]));
    let e015 = diags.iter().find(|d| d.code == Code::E015).unwrap();
    assert!(e015.to_string().starts_with("E015 [rank 0 stmt 64]"), "{e015}");
    let why = "rank 9 never issues the matching exposure post on window 0 \
               (needs its post #0 containing rank 0)";
    assert!(e015.detail.ends_with(why), "{e015}");
}

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
