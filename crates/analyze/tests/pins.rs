//! Output pins for the static layer: one digest per program set over
//! everything `analyze`, `analyze_slack` and `rewrite` say, held to
//! `pins.txt`. (The negative corpus is pinned as text instead:
//! `sweep_verbose.rs` renders every diagnostic `sweep_corpus` sees at 64
//! seeds and compares it with `sweep_verbose.txt` byte for byte.)

#[path = "../../../tests/support/pin.rs"]
mod pin;

use mpisim_analyze::{
    analyze, analyze_slack, cases, generate_value_clean, rewrite, Code, Expect, IrProgram,
};

/// FNV-1a over the `Debug` text of the three passes' results.
fn static_digest<'a>(programs: impl IntoIterator<Item = &'a IrProgram>) -> String {
    let mut h = pin::FNV;
    for p in programs {
        let slack = analyze_slack(p);
        h.debug(&(analyze(p), slack.diags, slack.findings, slack.shrinks, rewrite(p)));
    }
    h.hex()
}

#[test]
fn value_clean_programs_digest() {
    let programs: Vec<IrProgram> = (0..64).map(generate_value_clean).collect();
    pin::check("analyze/pins::value_clean_programs_digest", [("digest", static_digest(&programs))]);
}

/// The verdict table's W-code rows, in table order.
#[test]
fn slack_catalog_digest() {
    let w_rows = cases()
        .into_iter()
        .filter(|c| matches!(c.expect, Expect::Flags(code) if Code::ADVISORY.contains(&code)));
    let programs: Vec<IrProgram> = w_rows.map(|c| c.program).collect();
    pin::check("analyze/pins::slack_catalog_digest", [("digest", static_digest(&programs))]);
}
