//! The one reader of `pins.txt`, the manifest of the exact output pins
//! outside `results/` (DESIGN §8.5), and the test tree's one FNV-1a. A reading test includes this file with `#[path]` and hands
//! [`check`] the rows its run produced; `tests/pins.rs` holds every
//! section of the manifest to exactly one such call.
#![allow(dead_code)]

use std::fmt::{Debug, Display, Write};

/// The manifest, as committed.
pub const MANIFEST: &str = include_str!("../../pins.txt");

/// 64-bit FNV-1a, fed byte by byte: the digest of every pinned output set.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

/// FNV-1a's offset basis: where every digest starts.
pub const FNV: Fnv = Fnv(0xcbf2_9ce4_8422_2325);

impl Fnv {
    pub fn bytes(&mut self, bytes: impl IntoIterator<Item = u8>) {
        self.0 = bytes.into_iter().fold(self.0, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3));
    }

    /// Folds in the `Debug` text of `said`.
    pub fn debug(&mut self, said: &impl Debug) {
        self.bytes(format!("{said:?}").into_bytes());
    }

    /// The digest as the manifest writes it: `0x` and four groups of four
    /// hex digits.
    pub fn hex(self) -> String {
        let h = format!("{:016x}", self.0);
        format!("0x{}_{}_{}_{}", &h[..4], &h[4..8], &h[8..12], &h[12..])
    }
}

/// A section's name and its rows, each `(name, value)`.
pub type Section<'a> = (&'a str, Vec<(&'a str, &'a str)>);

/// The sections of a manifest, in order. Blank lines and lines starting
/// with `#` are skipped, and `[name]` opens a section. Any other line is a
/// row: its name, one space, and its value verbatim to the end of the
/// line. A section or row named twice, and a row outside any section, are
/// errors.
pub fn sections(text: &str) -> Result<Vec<Section<'_>>, String> {
    let mut out: Vec<Section> = Vec::new();
    for line in text.lines().filter(|l| !l.is_empty() && !l.starts_with('#')) {
        let section = line.strip_prefix('[').and_then(|l| l.strip_suffix(']'));
        let row = line.split_once(' ').filter(|(n, v)| !n.is_empty() && !v.trim().is_empty());
        let new_section = section.is_some_and(|name| out.iter().all(|(n, _)| *n != name));
        match (section, row, out.last_mut()) {
            (Some(name), ..) if new_section => out.push((name, Vec::new())),
            (None, Some(row), Some((_, rows))) if !rows.iter().any(|(n, _)| *n == row.0) => rows.push(row),
            _ => return Err(format!("not a new section or a new row of one: {line:?}")),
        }
    }
    Ok(out)
}

/// Holds `rows`, what this run produced, to the manifest's section
/// `section`, whole and in order. On any difference it names every moved
/// row, every row missing from the section and every extra one, and prints
/// the section this run would pin.
#[track_caller]
pub fn check<N: Display, V: Display>(section: &str, rows: impl IntoIterator<Item = (N, V)>) {
    let got: Vec<(String, String)> = rows.into_iter().map(|(n, v)| (n.to_string(), v.to_string())).collect();
    let all = sections(MANIFEST).unwrap_or_else(|e| panic!("pins.txt: {e}"));
    let pinned = all.iter().find(|(name, _)| *name == section).map_or(&[][..], |(_, rows)| rows);
    if pinned.iter().copied().eq(got.iter().map(|(n, v)| (n.as_str(), v.as_str()))) {
        return;
    }
    let mut report = format!("pins.txt [{section}] is not what this run produced:\n");
    for (name, value) in &got {
        match pinned.iter().find(|(n, _)| n == name) {
            None => writeln!(report, "  missing from pins.txt  {name} {value}"),
            Some((_, was)) if was != value => writeln!(report, "  moved                  {name} {was} -> {value}"),
            Some(_) => Ok(()),
        }
        .unwrap();
    }
    for (name, was) in pinned.iter().filter(|(n, _)| !got.iter().any(|(g, _)| g == n)) {
        writeln!(report, "  extra in pins.txt      {name} {was}").unwrap();
    }
    writeln!(report, "replacement section (if no row is listed above, the order moved):\n[{section}]").unwrap();
    got.iter().for_each(|(name, value)| writeln!(report, "{name} {value}").unwrap());
    panic!("{report}");
}
