//! `mpisim-check` CLI: run what [`mpisim_check::suite`]'s tables declare.
//! `--help` prints them; DESIGN.md §8 explains them.
//!
//! Exit status 0 means, without `--inject`, that every run of every sweep
//! passed; with `--inject` it inverts: 0 iff the planted fault took effect
//! and every instance was caught by the detector the table names for it.

use std::process::ExitCode;

use mpisim_check::suite::{self, Args};
use mpisim_check::{reproducer, shrink};

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", suite::usage());
        return ExitCode::SUCCESS;
    }
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    // A plant that rides a cross-validation sweep prints that sweep's one
    // line; everything else is the conformance report.
    let conformance = args.plant.is_none_or(|p| p.rides == suite::CONFORMANCE);
    if conformance {
        println!(
            "mpisim-check: {} programs/family x {} schedules x {} matrix points{}",
            args.programs(),
            args.seeds,
            mpisim_check::MATRIX.len(),
            match args.plant {
                None => String::new(),
                Some(p) if p.caught_by.is_some() => format!("  [injecting fault: {}]", p.name),
                Some(p) => {
                    format!("  [fault plan: {}, reliability sublayer + watchdog ON]", p.name)
                }
            }
        );
    }
    let total = suite::run(&args, |row, o| match args.plant {
        Some(p) if !conformance => println!("mpisim-check: {} self-test, {}", p.name, o.detail),
        _ => {
            let verdict = match o.failed() {
                0 => "ok".to_string(),
                n => format!("{n} FAILURE(S)"),
            };
            println!("  {:<18} {}: {verdict}", row.label(), o.detail);
        }
    });
    if conformance {
        println!("total: {} runs, {} failure(s)", total.runs, total.failed());
    }
    for f in &total.failures {
        eprintln!("  {f}");
    }
    if let Some(first) = &total.first {
        println!("\nfirst failure ({}):\n{}", first.spec.to_rust(), first.failure);
        println!("\nshrinking…");
        let (p, s) = shrink(&first.program, &first.spec);
        println!("minimized to weight {} — reproducer:\n", p.weight());
        println!("{}", reproducer(&p, &s));
    }
    match suite::verdict(args.plant, &total) {
        Ok(passed) => {
            if !passed.is_empty() {
                println!("{passed}");
            }
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("{why}");
            ExitCode::FAILURE
        }
    }
}
