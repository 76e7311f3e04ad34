//! The application twins analyze clean, the rewriter finds slack in each
//! and reaches a fixpoint, and every builder is a pure function of its
//! arguments. (`mpisim-analyze`'s tests include the builders by path, so
//! these live outside the file.)

use mpisim_analyze::{analyze, rewrite};
use mpisim_apps::ir_models::{bank_ir, suite, transactions_ir};

#[test]
fn every_twin_is_analyzer_clean() {
    for (name, p) in suite(true).into_iter().chain(suite(false)) {
        let diags = analyze(&p);
        assert!(diags.is_empty(), "{name}: {diags:?}");
    }
}

#[test]
fn rewriter_finds_slack_in_every_twin_and_stays_clean() {
    for (name, p) in suite(false) {
        let (rw, rep) = rewrite(&p);
        if name == "transactions" {
            // Every unlock here releases a contended exclusive
            // lock; the rewriter's contention veto declines them
            // all (relaxing any one defers a release some peer's
            // acquire is waiting on).
            assert_eq!(rep.relaxed, 0, "{name}: contended unlock was relaxed");
            assert!(rep.skipped > 0, "{name}: veto left no trace in `skipped`");
            assert_eq!(rw, p, "{name}: program changed despite the veto");
            continue;
        }
        assert!(rep.changed(), "{name}: rewriter found nothing");
        let diags = analyze(&rw);
        assert!(diags.is_empty(), "{name} rewritten: {diags:?}");
        // Second application reaches the same fixpoint.
        let (rw2, _) = rewrite(&rw);
        assert_eq!(rw, rw2, "{name}: rewrite not idempotent");
    }
}

#[test]
fn twins_are_deterministic() {
    assert_eq!(transactions_ir(6, 5), transactions_ir(6, 5));
    assert_eq!(bank_ir(6, 5), bank_ir(6, 5));
    assert_eq!(suite(true), suite(true));
}
