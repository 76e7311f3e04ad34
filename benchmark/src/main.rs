//! `rmabench` — the repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! rmabench --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, the contract's form
//! rmabench run [--seed <n>] [--smoke] [--break-check]                 all six, interleaved round by round
//! rmabench compare A.json [A2.json …] -- B.json [B2.json …]           is B worse than A?
//! ```

mod compare;
mod host;
mod json;
mod metrics;
mod orchestrate;
mod probes;
mod proto;
mod span;
mod stats;
mod worker;
mod workloads;

use std::fmt::Write as _;
use std::process::ExitCode;

use json::Value;
use metrics::{Samples, END_TO_END, PER_LAYER};
use orchestrate::{Plan, RunOutput};

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// Where `result.json` and `trace.json` go, relative to the directory the
/// benchmark is started from (the root of the checkout).
const OUT_DIR: &str = "benchmark/out";

/// Worker launches per workload and run: five set-up samples.
const LAUNCHES: usize = 5;

/// Timed phase of `run`. Set here, not by the caller, so that the two sides of
/// a `compare` are always taken at the same run length: ~75 rounds of all six
/// workloads, 60 of them timed.
const RUN_SECONDS: f64 = 150.0;

const USAGE: &str = "usage:
  rmabench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  rmabench run [--seed <n>] [--smoke] [--break-check]
  rmabench compare A.json [A2.json ...] -- B.json [B2.json ...]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("worker") => worker::main(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("probe") => worker::probe_main(&args[1..]).map(|()| ExitCode::SUCCESS),
        Some("compare") => compare_main(&args[1..]),
        Some("run") => run_main(&args[1..]),
        Some(a) if a.starts_with("--") => contract_main(&args),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

/// `--flag value` pairs and bare `--flag`s, in any order.
struct Flags(Vec<(String, Option<String>)>);

impl Flags {
    fn parse(args: &[String], valued: &[&str], bare: &[&str]) -> Result<Flags, String> {
        let mut out = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if valued.contains(&a.as_str()) {
                let v = it
                    .next()
                    .ok_or_else(|| format!("{a} needs a value\n{USAGE}"))?;
                out.push((a.clone(), Some(v.clone())));
            } else if bare.contains(&a.as_str()) {
                out.push((a.clone(), None));
            } else {
                return Err(format!("unknown argument {a:?}\n{USAGE}"));
            }
        }
        Ok(Flags(out))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|(f, _)| f == flag)
    }

    fn value(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(f, _)| f == flag)
            .and_then(|(_, v)| v.as_deref())
    }

    fn number<T: std::str::FromStr>(&self, flag: &str, default: Option<T>) -> Result<T, String> {
        match self.value(flag) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("{flag}: bad value {v:?}\n{USAGE}")),
            None => default.ok_or_else(|| format!("{flag} is required\n{USAGE}")),
        }
    }
}

/// The contract's form: one workload for `--seconds`, one JSON line last.
fn contract_main(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags::parse(
        args,
        &["--workload", "--seed", "--seconds", "--trace"],
        &["--break-check"],
    )?;
    let name = f
        .value("--workload")
        .ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    if !workloads::NAMES.contains(&name) {
        return Err(format!(
            "no workload {name:?}; the workloads are {}",
            workloads::NAMES.join(", ")
        ));
    }
    let seconds: f64 = f.number("--seconds", None)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds: {seconds} is outside (0, 600]"));
    }
    let trace = match f.number::<u8>("--trace", None)? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace: {t} is neither 0 nor 1")),
    };
    let plan = Plan {
        workloads: vec![name.to_string()],
        seed: f.number("--seed", None)?,
        launches: LAUNCHES,
        seconds,
        // A traced run alternates untraced and traced repetitions, so that
        // the tracing overhead is measured inside the one run.
        trace_every: trace.then_some(2),
        // Three repetitions per launch at least: `peak_rss_mb` is read after
        // the second, and a traced launch needs an untraced pair around it.
        min_rounds: 3,
        max_rounds: usize::MAX,
        break_check: f.has("--break-check"),
        smoke: false,
    };
    let out = orchestrate::run(&plan)?;
    write_outputs(&plan, &out)?;
    eprint!("{}", report(&out.samples));
    let s = &out.samples[0];
    let metrics = metrics::contract_metrics(s, trace).ok_or("the run produced no samples")?;
    let mut line = Value::obj();
    line.set("correct", s.failed() == 0)
        .set("attempted", s.attempted())
        .set("failed", s.failed())
        .set("metrics", metrics);
    println!("{}", line.to_line());
    Ok(ExitCode::SUCCESS)
}

/// All six workloads, interleaved round by round; every fifth round traced.
fn run_main(args: &[String]) -> Result<ExitCode, String> {
    let f = Flags::parse(args, &["--seed"], &["--smoke", "--break-check"])?;
    let smoke = f.has("--smoke");
    let plan = Plan {
        workloads: workloads::NAMES.iter().map(|n| n.to_string()).collect(),
        seed: f.number("--seed", Some(11))?,
        launches: if smoke { 1 } else { LAUNCHES },
        seconds: RUN_SECONDS,
        trace_every: Some(if smoke { 3 } else { 5 }),
        min_rounds: if smoke { 3 } else { 5 },
        max_rounds: if smoke { 3 } else { usize::MAX },
        break_check: f.has("--break-check"),
        smoke,
    };
    let out = orchestrate::run(&plan)?;
    write_outputs(&plan, &out)?;
    print!("{}", report(&out.samples));
    println!("wrote {OUT_DIR}/result.json and {OUT_DIR}/trace.json");
    let failed: u64 = out.samples.iter().map(Samples::failed).sum();
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn compare_main(args: &[String]) -> Result<ExitCode, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or_else(|| format!("compare needs `--` between the two sides\n{USAGE}"))?;
    let load = |paths: &[String]| -> Result<Vec<Value>, String> {
        if paths.is_empty() {
            return Err(format!(
                "compare needs at least one file on each side\n{USAGE}"
            ));
        }
        paths
            .iter()
            .map(|p| {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                json::parse(&text).map_err(|e| format!("{p}: {e}"))
            })
            .collect()
    };
    let (text, worse) = compare::compare(&load(&args[..split])?, &load(&args[split + 1..])?);
    print!("{text}");
    Ok(if worse {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    })
}

fn result_json(plan: &Plan, samples: &[Samples]) -> Value {
    let mut doc = Value::obj();
    doc.set("schema", "rmabench-result-v1")
        .set("seed", plan.seed)
        .set("seconds", plan.seconds)
        .set("launches", plan.launches as u64)
        .set("calib_ref_s", host::CALIB_REF_S)
        .set(
            "workloads",
            samples.iter().map(Samples::to_json).collect::<Vec<_>>(),
        );
    doc
}

fn write_outputs(plan: &Plan, out: &RunOutput) -> Result<(), String> {
    let write = |name: &str, text: String| {
        let path = format!("{OUT_DIR}/{name}");
        std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))
    };
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    write("result.json", result_json(plan, &out.samples).to_pretty())?;
    write(
        "trace.json",
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
            out.trace_events
        ),
    )
}

/// Every metric by name with its unit, for a person.
fn report(samples: &[Samples]) -> String {
    let mut out = String::new();
    let w = &mut out;
    for s in samples {
        writeln!(w, "== {} ==", s.workload).expect("write to String");
        match s.end_to_end() {
            Some(e) => {
                for (def, x) in END_TO_END.iter().zip(e) {
                    writeln!(
                        w,
                        "  {:<28} {:>16.6} {:<6} q1 {:.6} q3 {:.6} n {}",
                        def.name, x.value, def.unit, x.q1, x.q3, x.n
                    )
                    .expect("write to String");
                }
            }
            None => writeln!(w, "  no timed repetition").expect("write to String"),
        }
        writeln!(
            w,
            "  {:<28} {:>16} of {} checks",
            "failed",
            s.failed(),
            s.attempted()
        )
        .expect("write to String");
        let layers = s.per_layer();
        if let (Some(h), None) = (s.host(), &layers) {
            writeln!(
                w,
                "  times above are at the reference speed ({:.1} ms per calibration loop); raw, ungated:",
                host::CALIB_REF_S * 1e3
            )
            .expect("write to String");
            for (name, x) in h {
                writeln!(w, "  {name:<28} {x:>16.6}").expect("write to String");
            }
        }
        for f in s.failures() {
            writeln!(w, "    FAILED: {f}").expect("write to String");
        }
        if let Some(p) = layers {
            for def in &PER_LAYER {
                writeln!(w, "  {:<28} {:>16.4} {}", def.name, p[def.name], def.unit)
                    .expect("write to String");
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_in_any_order_and_reject_strangers() {
        let f = Flags::parse(
            &strs(&["--seed", "7", "--smoke", "--seconds", "2.5"]),
            &["--seed", "--seconds"],
            &["--smoke"],
        )
        .unwrap();
        assert!(f.has("--smoke") && !f.has("--break-check"));
        assert_eq!(f.number::<u64>("--seed", None).unwrap(), 7);
        assert_eq!(f.number::<f64>("--seconds", None).unwrap(), 2.5);
        assert_eq!(f.number::<u64>("--launches", Some(5)).unwrap(), 5);
        assert!(f.number::<u64>("--launches", None).is_err());
        assert!(Flags::parse(&strs(&["--seed"]), &["--seed"], &[]).is_err());
        assert!(Flags::parse(&strs(&["--what"]), &["--seed"], &[]).is_err());
        assert!(Flags::parse(&strs(&["--seed", "x"]), &["--seed"], &[])
            .unwrap()
            .number::<u64>("--seed", None)
            .is_err());
    }

    #[test]
    fn contract_form_rejects_bad_arguments_before_running_anything() {
        for bad in [
            &[
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
            ][..],
            &[
                "--workload",
                "epoch_mix_8",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "epoch_mix_8",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "2",
            ],
            &[
                "--workload",
                "epoch_mix_8",
                "--seconds",
                "1",
                "--trace",
                "0",
            ],
            &["--seed", "1", "--seconds", "1", "--trace", "0"],
        ] {
            assert!(contract_main(&strs(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn counting_allocator_sees_a_large_allocation() {
        host::alloc_counting_begin();
        let v = std::hint::black_box(vec![1u8; 3 << 20]);
        drop(v);
        let a = host::alloc_counting_end();
        // Other tests allocate in parallel, so these are lower bounds.
        assert!(
            a.count >= 1 && a.bytes >= 3 << 20 && a.peak_live >= 3 << 20,
            "{a:?}"
        );
    }

    #[test]
    fn result_file_and_report_name_every_metric() {
        let plan = Plan {
            workloads: vec!["epoch_mix_8".into()],
            seed: 11,
            launches: 1,
            seconds: 1.0,
            trace_every: None,
            min_rounds: 1,
            max_rounds: 1,
            break_check: false,
            smoke: true,
        };
        let doc = result_json(
            &plan,
            &[Samples {
                workload: "epoch_mix_8".into(),
                ..Samples::default()
            }],
        );
        let back = json::parse(&doc.to_pretty()).unwrap();
        assert_eq!(
            back.get("schema").unwrap().as_str(),
            Some("rmabench-result-v1")
        );
        assert_eq!(back.get("seed").unwrap().as_u64(), Some(11));
        assert_eq!(back.get("workloads").unwrap().as_arr().len(), 1);
        let text = report(&[Samples {
            workload: "epoch_mix_8".into(),
            ..Samples::default()
        }]);
        assert!(text.contains("== epoch_mix_8 ==") && text.contains("no timed repetition"));
    }
}
