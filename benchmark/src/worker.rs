//! The child side: one process per (workload, launch). It generates the
//! workload's inputs, runs the cold repetition, then runs one repetition per
//! `rep` command it reads from standard input, and reports each as one JSON
//! line. The orchestrator waits for every reply before sending the next
//! command, so no two workers ever run at once.

use std::io::{BufRead, Write};
use std::time::Instant;

use crate::host;
use crate::json::Value;
use crate::probes;
use crate::proto::RepMsg;
use crate::span;
use crate::workloads::{self, Setup, Workload};

/// Run one repetition.
/// Returns the report, the spans, and when (Unix µs) the span clock started.
fn measure(w: &mut dyn Workload, traced: bool) -> (RepMsg, Vec<span::Span>, f64) {
    let epoch_unix_us = host::unix_us();
    let epoch = Instant::now();
    if traced {
        span::begin(epoch);
        host::alloc_counting_begin();
    }
    let out = {
        let _rep = span::enter("harness.rep");
        w.rep()
    };
    let wall_s = epoch.elapsed().as_secs_f64();
    let (alloc, spans) = if traced {
        (Some(host::alloc_counting_end()), span::end())
    } else {
        (None, Vec::new())
    };
    let totals = span::totals_by_name(&spans)
        .into_iter()
        .map(|(n, t)| (n.to_string(), t))
        .collect();
    let msg = RepMsg {
        traced,
        wall_s,
        calib_s: 0.0,
        hwm_kb: host::peak_rss_kb(),
        out,
        spans: totals,
        alloc,
    };
    (msg, spans, epoch_unix_us)
}

/// `worker <workload> <pid-for-trace> <seed> <break_check> <smoke> <base_unix_us>`
pub fn main(args: &[String]) -> Result<(), String> {
    // The figure harnesses build their own job configurations, which fall
    // back to this variable; nothing may be injected into a measurement.
    std::env::remove_var("MPISIM_CHECK_INJECT");
    let [name, pid, seed, break_check, smoke, base_us] = args else {
        return Err(
            "worker: expected <workload> <pid> <seed> <break_check> <smoke> <base_unix_us>".into(),
        );
    };
    let parse = |s: &String, what: &str| {
        s.parse::<u64>()
            .map_err(|_| format!("worker: bad {what} {s:?}"))
    };
    let pid = parse(pid, "pid")? as u32;
    let setup = Setup {
        seed: parse(seed, "seed")?,
        break_check: break_check == "1",
        smoke: smoke == "1",
    };
    let base_us: f64 = base_us
        .parse()
        .map_err(|_| format!("worker: bad base time {base_us:?}"))?;
    let mut w =
        workloads::build(name, setup).ok_or_else(|| format!("worker: no workload {name:?}"))?;

    let stdout = std::io::stdout();
    let say = |v: &Value| -> Result<(), String> {
        let mut o = stdout.lock();
        writeln!(o, "{}", v.to_line())
            .and_then(|_| o.flush())
            .map_err(|e| format!("worker: stdout: {e}"))
    };

    // The cold repetition: first-touch fiber stacks, allocator growth, lazy
    // initialisation. It is reported as set-up and never enters `wall_s`.
    let (cold, _, _) = measure(w.as_mut(), false);
    say(&cold.to_json())?;

    let mut kept_events = String::new();
    let mut round = 0u32;
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("worker: stdin: {e}"))?;
        match line.trim() {
            "rep 0" | "rep 1" => {
                let traced = line.trim() == "rep 1";
                let (msg, spans, epoch_unix_us) = measure(w.as_mut(), traced);
                // The trace file holds this launch's first traced repetition
                // in full; every traced repetition feeds the span totals.
                if traced && kept_events.is_empty() {
                    kept_events =
                        span::chrome_events(&spans, name, pid, round, epoch_unix_us - base_us);
                }
                round += 1;
                say(&msg.to_json())?;
            }
            "quit" => break,
            other => return Err(format!("worker: unknown command {other:?}")),
        }
    }
    let mut bye = Value::obj();
    bye.set("hwm_kb", host::peak_rss_kb())
        .set("events", kept_events);
    say(&bye)
}

/// `probe <ranks>`: run the unit-cost probes in this fresh process and print
/// them as one JSON line.
pub fn probe_main(args: &[String]) -> Result<(), String> {
    std::env::remove_var("MPISIM_CHECK_INJECT");
    let ranks: usize = args
        .first()
        .and_then(|r| r.parse().ok())
        .ok_or("probe: expected <ranks>")?;
    let mut v = Value::obj();
    for (name, x) in probes::run(ranks) {
        v.set(name, x);
    }
    println!("{}", v.to_line());
    Ok(())
}
