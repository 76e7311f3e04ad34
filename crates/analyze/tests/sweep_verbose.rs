//! The static layer's pin for the negative corpus, as text: every
//! diagnostic [`sweep_corpus`] sees at 64 seeds per family plus every
//! `Flags` row of the verdict table, rendered one line each, then the
//! summary line, must equal `sweep_verbose.txt` byte for byte. No line is
//! ever edited (a row new to the table appends its lines before the
//! summary); a change to a diagnostic's wording, rank or statement shows
//! up here.

use std::fmt::Write;

use mpisim_analyze::sweep_corpus;

#[test]
fn rendered_corpus_diagnostics_match_the_pin() {
    let mut got = String::new();
    let sweep = sweep_corpus(64, |label, diags| {
        for d in diags {
            writeln!(got, "  {label}: {d}").unwrap();
        }
    });
    assert_eq!(sweep.misses, Vec::<String>::new());
    writeln!(got, "analyzer sweep: {} erroneous programs, all flagged", sweep.checked).unwrap();
    let pin = include_str!("sweep_verbose.txt");
    for (i, (g, p)) in got.lines().zip(pin.lines()).enumerate() {
        assert_eq!(g, p, "sweep_verbose.txt line {}", i + 1);
    }
    assert_eq!(got.lines().count(), pin.lines().count(), "line count");
    assert!(got == pin, "same lines, different bytes (line endings)");
}
