//! Output pin for the static layer: FNV-1a over the `Debug` text of
//! everything `analyze`, `analyze_slack` and `rewrite` say about the
//! figure-scale suite and the five twins at the benchmark's 64-rank scale,
//! held to `pins.txt`.

#[path = "../../../tests/support/pin.rs"]
mod pin;

use mpisim_analyze::{analyze, analyze_slack, rewrite};
use mpisim_apps::ir_models::{bank_ir, halo_ir, lu_ir, stencil2d_ir, suite, transactions_ir};

#[test]
fn twins_static_digest() {
    let big = [
        halo_ir(64, 32),
        stencil2d_ir(64, 16),
        lu_ir(64, 64),
        transactions_ir(64, 8),
        bank_ir(64, 8),
    ];
    let mut h = pin::FNV;
    for p in suite(false).iter().map(|(_, p)| p).chain(&big) {
        let slack = analyze_slack(p);
        h.debug(&(analyze(p), slack.diags, slack.findings, slack.shrinks, rewrite(p)));
    }
    pin::check("apps/static_digest::twins_static_digest", [("digest", h.hex())]);
}
