//! Output pins for the static layer: one digest per program set over
//! everything `analyze`, `analyze_slack` and `rewrite` say. The constants
//! were computed once, before the layer was rebuilt on one resolved epoch
//! structure, and are never edited — a refactor of the layer must
//! reproduce them. (The negative corpus is pinned as text instead:
//! `sweep_verbose.rs` renders every diagnostic `sweep_corpus` sees at 64
//! seeds and compares it with `sweep_verbose.txt` byte for byte.)

use mpisim_analyze::{
    analyze, analyze_slack, cases, generate_value_clean, rewrite, Code, Expect, IrProgram,
};

/// FNV-1a over the `Debug` text of the three passes' results.
fn static_digest<'a>(programs: impl IntoIterator<Item = &'a IrProgram>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in programs {
        let slack = analyze_slack(p);
        let said = (analyze(p), slack.diags, slack.findings, slack.shrinks, rewrite(p));
        for b in format!("{said:?}").bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn value_clean_programs_digest() {
    let programs: Vec<IrProgram> = (0..64).map(generate_value_clean).collect();
    assert_eq!(static_digest(&programs), 0x88dd_95c9_2521_2609);
}

/// The verdict table's W-code rows, in table order.
#[test]
fn slack_catalog_digest() {
    let w_rows = cases()
        .into_iter()
        .filter(|c| matches!(c.expect, Expect::Flags(code) if Code::ADVISORY.contains(&code)));
    let programs: Vec<IrProgram> = w_rows.map(|c| c.program).collect();
    assert_eq!(static_digest(&programs), 0xf494_5754_dd86_8947);
}
