//! The parent side: launches one worker process per (workload, launch), drives
//! repetitions in rep-major rounds — round r is one repetition of every
//! workload in the plan — and gathers what the workers report.
//!
//! The load is a closed loop with one client: the orchestrator sends a
//! command and blocks on the reply, so exactly one process is ever running,
//! on one host thread.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::json::{self, Value};
use crate::metrics::Samples;
use crate::proto::RepMsg;
use crate::workloads::{probe_ranks, EXACT, NAMES};

/// What to run.
#[derive(Clone, Debug)]
pub struct Plan {
    pub workloads: Vec<String>,
    pub seed: u64,
    /// Worker launches per workload; each gives one set-up sample.
    pub launches: usize,
    /// Timed phase of the whole run; each launch gets an equal share.
    pub seconds: f64,
    /// Trace every n-th round (and run the probes) — `None` traces nothing.
    pub trace_every: Option<usize>,
    /// Fewest rounds per launch, whatever the time budget says.
    pub min_rounds: usize,
    /// Stop a launch after this many rounds even if time is left.
    pub max_rounds: usize,
    pub break_check: bool,
    pub smoke: bool,
}

/// What a run produced.
pub struct RunOutput {
    pub samples: Vec<Samples>,
    /// Chrome trace events, comma-separated, of every kept traced repetition.
    pub trace_events: String,
}

struct Worker {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl Worker {
    fn spawn(args: &[String]) -> Result<Worker, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start worker: {e}"))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Worker {
            child,
            stdin,
            stdout,
        })
    }

    fn read(&mut self) -> Result<Value, String> {
        let mut line = String::new();
        let n = self
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("worker pipe: {e}"))?;
        if n == 0 {
            let status = self.child.wait().map_err(|e| format!("worker wait: {e}"))?;
            return Err(format!("worker ended without a reply ({status})"));
        }
        json::parse(&line).map_err(|e| format!("worker reply: {e}"))
    }

    fn ask(&mut self, command: &str) -> Result<Value, String> {
        writeln!(self.stdin, "{command}")
            .and_then(|_| self.stdin.flush())
            .map_err(|e| format!("worker pipe: {e}"))?;
        self.read()
    }

    /// Wait for a worker that has been told to quit (or a probe, which ends
    /// by itself); one that does not exit cleanly is an error of the run.
    fn finish(mut self) -> Result<(), String> {
        let status = self.child.wait().map_err(|e| format!("worker wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("worker exited with {status}"))
        }
    }
}

/// No worker outlives the run: if the orchestrator gives up half-way, the
/// workers still parked are stopped and reaped here. After `finish` both
/// calls are no-ops.
impl Drop for Worker {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Run the unit-cost probes in a fresh process.
fn run_probe(ranks: usize) -> Result<Value, String> {
    let mut w = Worker::spawn(&["probe".into(), ranks.to_string()])?;
    let v = w.read()?;
    w.finish()?;
    Ok(v)
}

/// The calibration loop, run here in the orchestrator while every worker is
/// parked. Each measurement takes the mean of the loop before and the loop
/// after it; neighbouring measurements share the loop between them.
struct Calib {
    last: f64,
}

impl Calib {
    fn start() -> Calib {
        Calib {
            last: crate::host::calibrate(),
        }
    }

    /// Calibration beside whatever ran since the previous call.
    fn beside(&mut self) -> f64 {
        let now = crate::host::calibrate();
        let mean = (self.last + now) / 2.0;
        self.last = now;
        mean
    }
}

/// Compare a repetition's exact outputs with the first repetition of the same
/// kind — the seed must be the only source of variation — and describe the
/// difference if there is one.
fn difference(first: &RepMsg, rep: &RepMsg) -> Option<String> {
    let (a, b) = (&first.out, &rep.out);
    if a.counts == b.counts && a.virt_ns == b.virt_ns && a.nb_pairs == b.nb_pairs {
        return None;
    }
    let counters: Vec<String> = EXACT
        .iter()
        .zip(a.counts.vals.iter().zip(b.counts.vals))
        .filter(|(_, (x, y))| **x != *y)
        .map(|(n, (x, y))| format!("{n} {x} -> {y}"))
        .collect();
    Some(format!(
        "exact outputs differ from the first repetition's (virt {} -> {}; {})",
        a.virt_ns,
        b.virt_ns,
        counters.join(", ")
    ))
}

/// Enter the outcome of one such comparison into the workload's ledger.
fn note_same(s: &mut Samples, difference: Option<String>, what: &str) {
    s.harness_attempted += 1;
    if let Some(d) = difference {
        s.harness_failed += 1;
        if s.harness_failures.len() < 4 {
            s.harness_failures.push(format!("{what}: {d}"));
        }
    }
}

pub fn run(plan: &Plan) -> Result<RunOutput, String> {
    let base_us = crate::host::unix_us();
    let mut samples: Vec<Samples> = plan
        .workloads
        .iter()
        .map(|w| Samples {
            workload: w.clone(),
            ..Samples::default()
        })
        .collect();
    let mut trace_events = String::new();
    let per_launch = Duration::from_secs_f64(plan.seconds / plan.launches as f64);
    let mut calib = Calib::start();

    for launch in 0..plan.launches {
        // Probes first, each in its own fresh process.
        if plan.trace_every.is_some() {
            for s in samples.iter_mut() {
                let mut p = run_probe(probe_ranks(&s.workload))?;
                p.set("calib_s", calib.beside());
                s.probes.push(p);
            }
        }

        // Launch the workers one after the other; each reports when its cold
        // repetition is done and then parks on its standard input.
        let mut workers = Vec::new();
        for s in samples.iter_mut() {
            let pid = NAMES.iter().position(|n| *n == s.workload).unwrap_or(0) + 1;
            let args = [
                "worker".to_string(),
                s.workload.clone(),
                pid.to_string(),
                plan.seed.to_string(),
                u8::from(plan.break_check).to_string(),
                u8::from(plan.smoke).to_string(),
                format!("{base_us}"),
            ];
            let t = Instant::now();
            let mut w = Worker::spawn(&args)?;
            let ready = w.read()?;
            let setup_s = t.elapsed().as_secs_f64();
            let mut cold = RepMsg::from_json(&ready)?;
            cold.calib_s = calib.beside();
            s.setups.push((setup_s, cold.calib_s));
            if let Some(d) = s.colds.first().map(|first| difference(first, &cold)) {
                note_same(s, d, "cold repetition");
            }
            s.colds.push(cold);
            s.launches.push(Vec::new());
            workers.push(w);
        }

        // Rounds: one repetition of every workload, until this launch's share
        // of the time is used.
        let started = Instant::now();
        let mut round = 0;
        while round < plan.max_rounds && (round < plan.min_rounds || started.elapsed() < per_launch)
        {
            let traced = plan.trace_every.is_some_and(|n| round % n == n - 1);
            for (s, w) in samples.iter_mut().zip(workers.iter_mut()) {
                let mut rep = RepMsg::from_json(&w.ask(if traced { "rep 1" } else { "rep 0" })?)?;
                rep.calib_s = calib.beside();
                // Untraced repetitions repeat the cold one; traced ones may
                // see more (reports the untraced path does not return), so
                // they are compared among themselves.
                let first = if traced {
                    s.launches.iter().flatten().find(|r| r.traced)
                } else {
                    s.colds.first()
                };
                if let Some(d) = first.map(|first| difference(first, &rep)) {
                    note_same(
                        s,
                        d,
                        if traced {
                            "traced repetition"
                        } else {
                            "repetition"
                        },
                    );
                }
                s.launches[launch].push(rep);
            }
            round += 1;
        }

        for (s, mut w) in samples.iter_mut().zip(workers) {
            let bye = w.ask("quit")?;
            s.exit_hwm_kb.push(
                bye.get("hwm_kb")
                    .and_then(Value::as_u64)
                    .ok_or("worker: no final hwm_kb")?,
            );
            let events = bye.get("events").and_then(Value::as_str).unwrap_or("");
            if !events.is_empty() {
                if !trace_events.is_empty() {
                    trace_events.push_str(",\n");
                }
                trace_events.push_str(events);
            }
            w.finish()?;
        }
    }
    Ok(RunOutput {
        samples,
        trace_events,
    })
}
