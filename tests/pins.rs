//! `pins.txt` is read whole: each of its sections by exactly one
//! `pin::check` call in the tree, and every such call names a section of
//! it by a string literal. With `check` comparing a section whole, no pin
//! can be orphaned or silently dropped (DESIGN §8.5).

#[path = "support/pin.rs"]
mod pin;

use std::fs;
use std::path::Path;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// `(section, file)` for every `pin::check` call outside comments in the
/// Rust files under `dir`, this file excepted.
fn calls(dir: &Path, out: &mut Vec<(String, String)>) {
    for path in fs::read_dir(dir).unwrap().map(|entry| entry.unwrap().path()) {
        if path.is_dir() && !path.ends_with("target") {
            calls(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") && path != Path::new(ROOT).join(file!()) {
            let text = fs::read_to_string(&path).unwrap();
            let code = text.lines().filter(|l| !l.trim_start().starts_with("//"));
            for after in code.flat_map(|line| line.split("pin::check(").skip(1)) {
                let literal = after.strip_prefix('"').and_then(|s| s.split_once('"'));
                let (section, _) = literal.unwrap_or_else(|| panic!("{path:?}: a call names no section: {after}"));
                out.push((section.to_string(), path.display().to_string()));
            }
        }
    }
}

#[test]
fn every_section_is_read_by_exactly_one_check() {
    let mut found = Vec::new();
    for dir in ["crates", "tests", "src", "examples"] {
        calls(&Path::new(ROOT).join(dir), &mut found);
    }
    let sections = pin::sections(pin::MANIFEST).unwrap_or_else(|e| panic!("pins.txt: {e}"));
    let mut read: Vec<&str> = found.iter().map(|(section, _)| section.as_str()).collect();
    let mut pinned: Vec<&str> = sections.iter().map(|(section, _)| *section).collect();
    read.sort();
    pinned.sort();
    assert_eq!(read, pinned, "the sections the calls read, and pins.txt's; calls: {found:#?}");
}
