//! The metric tables — name, unit, direction and regression bound, the single
//! source `BENCHMARK.json` is checked against — and the arithmetic that turns
//! a workload's collected repetitions into those metrics.
//!
//! Host timings are reported at the reference machine speed: every raw time
//! is multiplied by `CALIB_REF_S ÷ calibration beside it`. The calibration
//! loop (`host::calibrate`) runs in the orchestrator, never in a worker, so
//! the divisor cannot depend on the code under test. The 2-vCPU host moves
//! between discrete speed phases (×1.0 / ×1.3, seconds to minutes each, both
//! vCPUs share a core); a driver run is too short to average them out, and
//! raw medians of ten runs spread by 8–31 % where these spread by 1–13 %
//! (README, "Measured spread"). The raw medians stay beside them as
//! `host.wall_raw_s` and `host.setup_raw_s`.

use std::collections::BTreeMap;

use crate::host::CALIB_REF_S;
use crate::json::Value;
use crate::proto::RepMsg;
use crate::stats::{geomean, median, quartiles, spread};
use crate::workloads::{probe_ranks, EXACT};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, defined on all six workloads.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("wall_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.05),
    e2e("virt_ms", "ms", "lower", 0.05),
    e2e("nb_speedup", "ratio", "higher", 0.05),
];

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The per-layer metrics. The exact counters come first, in the order of
/// `workloads::EXACT` (minus `analyze.stmts`, which only feeds
/// `analyze.stmts_per_s`).
pub const PER_LAYER: [MetricDef; 73] = [
    layer("sim.events", "count", "lower"),
    layer("sim.ctx_switches", "count", "lower"),
    layer("net.msgs", "count", "lower"),
    layer("net.bytes", "count", "lower"),
    layer("net.credit_stalls", "count", "lower"),
    layer("net.max_backlog", "count", "lower"),
    layer("net.faults_injected", "count", "lower"),
    layer("core.sweeps", "count", "lower"),
    layer("core.step_runs.1", "count", "lower"),
    layer("core.step_runs.2", "count", "lower"),
    layer("core.step_runs.3", "count", "lower"),
    layer("core.step_runs.4", "count", "lower"),
    layer("core.step_runs.5", "count", "lower"),
    layer("core.step_runs.6", "count", "lower"),
    layer("core.step_runs.7", "count", "lower"),
    layer("core.ops_issued", "count", "lower"),
    layer("core.notices_drained", "count", "lower"),
    layer("core.fifo_packets", "count", "lower"),
    layer("core.notices_batched", "count", "higher"),
    layer("core.epochs_opened", "count", "lower"),
    layer("core.epochs_deferred", "count", "lower"),
    layer("core.sync_blocked_steps", "count", "lower"),
    layer("core.rel_frames_sent", "count", "lower"),
    layer("core.rel_retransmits", "count", "lower"),
    layer("core.ckpt_bytes", "count", "lower"),
    layer("core.jobs", "count", "lower"),
    layer("check.verify_runs", "count", "higher"),
    layer("analyze.programs", "count", "higher"),
    layer("bench.fig_cells_checked", "count", "higher"),
    // Probes: unit costs measured in a fresh process against one layer.
    layer("sim.event_ns", "ns", "lower"),
    layer("sim.switch_ns", "ns", "lower"),
    layer("sim.switch_ns_2048", "ns", "lower"),
    layer("sim.spawn_us", "us", "lower"),
    layer("net.msg_ns", "ns", "lower"),
    layer("net.msg_ns_starved", "ns", "lower"),
    layer("net.fifo_ns", "ns", "lower"),
    layer("core.launch_us", "us", "lower"),
    layer("core.win_alloc_us", "us", "lower"),
    layer("core.win_state_kb_per_rank", "KB", "lower"),
    // Spans taken by the benchmark around calls into a layer.
    layer("core.run_job_ms", "ms", "lower"),
    layer("apps.tx_ms", "ms", "lower"),
    layer("apps.lu_ms", "ms", "lower"),
    layer("check.generate_us", "us", "lower"),
    layer("check.lower_us", "us", "lower"),
    layer("check.oracle_us", "us", "lower"),
    layer("check.execute_us", "us", "lower"),
    layer("check.audit_us", "us", "lower"),
    layer("check.exec_ir_us", "us", "lower"),
    layer("analyze.analyze_us", "us", "lower"),
    layer("analyze.races_us", "us", "lower"),
    layer("analyze.slack_us", "us", "lower"),
    layer("analyze.rewrite_us", "us", "lower"),
    layer("bench.micro_figs_ms", "ms", "lower"),
    // Derived from the above.
    layer("sim.share_est", "ratio", "lower"),
    layer("net.share_est", "ratio", "lower"),
    layer("core.ns_per_op", "ns", "lower"),
    layer("core.ns_per_sweep", "ns", "lower"),
    layer("core.sweeps_per_op", "ratio", "lower"),
    layer("core.jobs_wall_pct", "%", "higher"),
    layer("analyze.stmts_per_s", "1/s", "higher"),
    // Model outputs of the apps layer (virtual time).
    layer("apps.tx_kps_virt", "1/ms", "higher"),
    layer("apps.lu_comm_pct", "%", "lower"),
    // The counting allocator, traced repetitions only.
    layer("alloc.count", "count", "lower"),
    layer("alloc.bytes", "count", "lower"),
    layer("alloc.peak_live_mb", "MB", "lower"),
    // The instrument itself; never gated.
    layer("host.calib_ms", "ms", "lower"),
    layer("host.calib_spread", "ratio", "lower"),
    layer("host.wall_raw_s", "s", "lower"),
    layer("host.setup_raw_s", "s", "lower"),
    layer("host.rss_growth_kb_per_rep", "KB", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
    layer("trace.covered_pct", "%", "higher"),
    layer("failed_share", "ratio", "lower"),
];

/// Which repetition's `VmHWM` is the workload's `peak_rss_mb`: the third of a
/// launch (the cold one and two timed ones). Every job the simulator runs
/// leaves a few KB per rank behind (README, findings), so the peak at exit
/// would grow with however many repetitions the time budget happened to
/// allow; a fixed repetition makes the number repeat. The growth itself is
/// `host.rss_growth_kb_per_rep`.
pub const RSS_REP: usize = 2;

/// A host time at the reference machine speed.
pub fn at_ref_speed(raw_s: f64, calib_s: f64) -> f64 {
    raw_s * CALIB_REF_S / calib_s
}

/// Everything collected about one workload in one run.
#[derive(Default)]
pub struct Samples {
    pub workload: String,
    /// Per launch: spawn → ready, raw seconds, and the calibration beside it.
    pub setups: Vec<(f64, f64)>,
    /// Per launch: the cold repetition.
    pub colds: Vec<RepMsg>,
    /// Per launch: the timed repetitions in order.
    pub launches: Vec<Vec<RepMsg>>,
    /// Per launch: `VmHWM` when the worker exited.
    pub exit_hwm_kb: Vec<u64>,
    /// One object of named measurements per probe process.
    pub probes: Vec<Value>,
    /// Failures the orchestrator itself found (a repetition whose exact
    /// counters differ from the first one's), with the checks it made.
    pub harness_attempted: u64,
    pub harness_failed: u64,
    pub harness_failures: Vec<String>,
}

/// A value with the spread it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Measured {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Measured {
    fn of(xs: &[f64]) -> Measured {
        let [q1, value, q3] = quartiles(xs);
        Measured {
            value,
            q1,
            q3,
            n: xs.len(),
        }
    }

    fn exact(value: f64) -> Measured {
        Measured {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }
}

impl Samples {
    fn reps(&self) -> impl Iterator<Item = &RepMsg> {
        self.launches.iter().flatten()
    }

    fn walls(&self, traced: bool) -> Vec<f64> {
        self.reps()
            .filter(|r| r.traced == traced)
            .map(|r| at_ref_speed(r.wall_s, r.calib_s))
            .collect()
    }

    /// Every calibration taken beside this workload's repetitions.
    pub fn calibrations(&self) -> Vec<f64> {
        self.colds
            .iter()
            .chain(self.reps())
            .map(|r| r.calib_s)
            .collect()
    }

    pub fn attempted(&self) -> u64 {
        self.colds
            .iter()
            .chain(self.reps())
            .map(|r| r.out.attempted)
            .sum::<u64>()
            + self.harness_attempted
    }

    pub fn failed(&self) -> u64 {
        self.colds
            .iter()
            .chain(self.reps())
            .map(|r| r.out.failed)
            .sum::<u64>()
            + self.harness_failed
    }

    pub fn failures(&self) -> Vec<String> {
        let mut all: Vec<String> = self.harness_failures.clone();
        for r in self.colds.iter().chain(self.reps()) {
            for f in &r.out.failures {
                if !all.contains(f) {
                    all.push(f.clone());
                }
            }
        }
        all.truncate(12);
        all
    }

    /// The end-to-end metrics, in the order of [`END_TO_END`]. `None` until
    /// there is at least one launch with an untraced timed repetition.
    pub fn end_to_end(&self) -> Option<Vec<Measured>> {
        let walls = self.walls(false);
        let first = self.colds.first()?;
        if walls.is_empty() || self.setups.is_empty() {
            return None;
        }
        let setups: Vec<f64> = self
            .setups
            .iter()
            .map(|(raw, calib)| at_ref_speed(*raw, *calib))
            .collect();
        let rss: Vec<f64> = self
            .launches
            .iter()
            .zip(&self.colds)
            .map(|(reps, cold)| {
                // Repetition 0 of a launch is the cold one.
                let at = RSS_REP.min(reps.len());
                let kb = if at == 0 {
                    cold.hwm_kb
                } else {
                    reps[at - 1].hwm_kb
                };
                kb as f64 / 1024.0
            })
            .collect();
        let nb: Vec<f64> = first
            .out
            .nb_pairs
            .iter()
            .map(|(base, nb)| *base as f64 / *nb as f64)
            .collect();
        Some(vec![
            Measured::of(&setups),
            Measured::of(&walls),
            Measured {
                value: rss.iter().cloned().fold(0.0, f64::max),
                ..Measured::of(&rss)
            },
            Measured::exact(first.out.virt_ns as f64 / 1e6),
            Measured::exact(geomean(&nb)),
        ])
    }

    /// The instrument's own view of the host, never gated: the calibration
    /// loop's median and spread over this workload's repetitions, and the raw
    /// medians that `wall_s` and `setup_s` are the reference-speed form of —
    /// so a reader can tell a machine phase from a code change. `None` until
    /// there is an untraced timed repetition.
    pub fn host(&self) -> Option<[(&'static str, f64); 4]> {
        let raw_walls: Vec<f64> = self
            .reps()
            .filter(|r| !r.traced)
            .map(|r| r.wall_s)
            .collect();
        if raw_walls.is_empty() || self.setups.is_empty() {
            return None;
        }
        let raw_setups: Vec<f64> = self.setups.iter().map(|(raw, _)| *raw).collect();
        let calibs = self.calibrations();
        Some([
            ("host.calib_ms", median(&calibs) * 1e3),
            ("host.calib_spread", spread(&calibs)),
            ("host.wall_raw_s", median(&raw_walls)),
            ("host.setup_raw_s", median(&raw_setups)),
        ])
    }

    /// The per-layer metrics by name. `None` until there is a traced
    /// repetition and a probe to price its counts with.
    pub fn per_layer(&self) -> Option<BTreeMap<&'static str, f64>> {
        let traced: Vec<&RepMsg> = self.reps().filter(|r| r.traced).collect();
        let first = *traced.first()?;
        if self.probes.is_empty() {
            return None;
        }
        let wall = median(&self.walls(false));
        let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

        let count = |name: &str| first.out.counts.get(name) as f64;
        for name in EXACT {
            if let Some(def) = PER_LAYER.iter().find(|d| d.name == name) {
                m.insert(def.name, count(name));
            }
        }

        // Probes: median over the probe processes, at the reference speed.
        let probe = |key: &str, scaled: bool| {
            let xs: Vec<f64> = self
                .probes
                .iter()
                .filter_map(|p| {
                    let x = p.get(key)?.as_f64()?;
                    let c = p.get("calib_s")?.as_f64()?;
                    Some(if scaled { at_ref_speed(x, c) } else { x })
                })
                .collect();
            if xs.is_empty() {
                0.0
            } else {
                median(&xs)
            }
        };
        let event_ns = probe("event_s", true) * 1e9;
        // One `advance` is one callback plus one context switch.
        let switch_ns = (probe("advance8_s", true) * 1e9 - event_ns).max(0.0);
        let switch_ns_2048 = (probe("advance2048_s", true) * 1e9 - event_ns).max(0.0);
        let msg_ns = probe("msg_s", true) * 1e9;
        let ranks = probe_ranks(&self.workload) as f64;
        m.insert("sim.event_ns", event_ns);
        m.insert("sim.switch_ns", switch_ns);
        m.insert("sim.switch_ns_2048", switch_ns_2048);
        m.insert("sim.spawn_us", probe("spawn_s", true) * 1e6);
        m.insert("net.msg_ns", msg_ns);
        m.insert("net.msg_ns_starved", probe("msg_starved_s", true) * 1e9);
        m.insert("net.fifo_ns", probe("fifo_s", true) * 1e9);
        m.insert("core.launch_us", probe("launch_s", true) * 1e6);
        m.insert(
            "core.win_alloc_us",
            ((probe("win_alloc_job_s", true) - probe("launch_s", true)) * 1e6).max(0.0),
        );
        m.insert(
            "core.win_state_kb_per_rank",
            probe("win_state_kb", false) / ranks,
        );

        // Spans: mean over the traced repetitions, at the reference speed.
        // `per_call` gives the mean per call, otherwise the total per
        // repetition; the result is in nanoseconds.
        let span_ns = |name: &str, per_call: bool| {
            let xs: Vec<f64> = traced
                .iter()
                .filter_map(|r| {
                    let t = r.spans.iter().find(|(n, _)| n == name)?.1;
                    let ns = if per_call {
                        t.total_ns as f64 / t.calls as f64
                    } else {
                        t.total_ns as f64
                    };
                    Some(at_ref_speed(ns, r.calib_s))
                })
                .collect();
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        m.insert("core.run_job_ms", span_ns("core.run_job", false) / 1e6);
        m.insert("apps.tx_ms", span_ns("apps.run_transactions", false) / 1e6);
        m.insert("apps.lu_ms", span_ns("apps.run_lu", false) / 1e6);
        m.insert(
            "bench.micro_figs_ms",
            span_ns("bench.micro_figs", false) / 1e6,
        );
        for (metric, name) in [
            ("check.generate_us", "check.generate"),
            ("check.lower_us", "check.lower"),
            ("check.oracle_us", "check.oracle"),
            ("check.execute_us", "check.execute"),
            ("check.audit_us", "check.audit"),
            ("check.exec_ir_us", "check.exec_ir"),
            ("analyze.analyze_us", "analyze.analyze"),
            ("analyze.races_us", "analyze.races"),
            ("analyze.slack_us", "analyze.slack"),
            ("analyze.rewrite_us", "analyze.rewrite"),
        ] {
            m.insert(metric, span_ns(name, true) / 1e3);
        }

        // Derived. The exact counters cover the jobs whose `JobReport` the
        // benchmark sees, and every such job runs under one of these spans;
        // on `paper_apps` that is the halo alone (`run_transactions`,
        // `run_lu` and the figure generators keep their reports), on
        // `static_sweep` the executed tail. Counts are priced against that
        // time, not against the whole repetition.
        let jobs_ns = ["core.run_job", "check.execute", "check.exec_ir"]
            .iter()
            .map(|n| span_ns(n, false))
            .sum::<f64>();
        let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let switch = if ranks >= 1024.0 {
            switch_ns_2048
        } else {
            switch_ns
        };
        m.insert(
            "sim.share_est",
            per(
                count("sim.events") * event_ns + count("sim.ctx_switches") * switch,
                jobs_ns,
            ),
        );
        m.insert("net.share_est", per(count("net.msgs") * msg_ns, jobs_ns));
        m.insert("core.ns_per_op", per(jobs_ns, count("core.ops_issued")));
        m.insert("core.ns_per_sweep", per(jobs_ns, count("core.sweeps")));
        m.insert(
            "core.sweeps_per_op",
            per(count("core.sweeps"), count("core.ops_issued")),
        );
        m.insert(
            "core.jobs_wall_pct",
            100.0 * per(jobs_ns, span_ns("harness.rep", false)),
        );
        let analyze_s = [
            "analyze.analyze",
            "analyze.races",
            "analyze.slack",
            "analyze.rewrite",
        ]
        .iter()
        .map(|n| span_ns(n, false))
        .sum::<f64>()
            / 1e9;
        m.insert(
            "analyze.stmts_per_s",
            per(count("analyze.stmts"), analyze_s),
        );

        m.insert("apps.tx_kps_virt", first.out.tx_kps_virt);
        m.insert("apps.lu_comm_pct", first.out.lu_comm_pct);

        let allocs: Vec<_> = traced.iter().filter_map(|r| r.alloc).collect();
        let med = |f: &dyn Fn(&crate::host::AllocStats) -> u64| {
            median(&allocs.iter().map(|a| f(a) as f64).collect::<Vec<_>>())
        };
        m.insert("alloc.count", med(&|a| a.count));
        m.insert("alloc.bytes", med(&|a| a.bytes));
        m.insert(
            "alloc.peak_live_mb",
            med(&|a| a.peak_live) / (1024.0 * 1024.0),
        );

        for (name, x) in self.host()? {
            m.insert(name, x);
        }
        let growth: Vec<f64> = self
            .launches
            .iter()
            .zip(&self.exit_hwm_kb)
            .filter(|(reps, _)| reps.len() > RSS_REP)
            .map(|(reps, exit)| {
                (*exit as f64 - reps[RSS_REP - 1].hwm_kb as f64) / (reps.len() - RSS_REP) as f64
            })
            .collect();
        m.insert(
            "host.rss_growth_kb_per_rep",
            if growth.is_empty() {
                0.0
            } else {
                median(&growth)
            },
        );
        m.insert(
            "trace.overhead_pct",
            (median(&self.walls(true)) / wall - 1.0) * 100.0,
        );
        let covered: Vec<f64> = traced
            .iter()
            .filter_map(|r| r.spans.iter().find(|(n, _)| n == "harness.rep"))
            .map(|(_, t)| 100.0 * (1.0 - t.self_ns as f64 / t.total_ns as f64))
            .collect();
        m.insert(
            "trace.covered_pct",
            if covered.is_empty() {
                0.0
            } else {
                median(&covered)
            },
        );
        m.insert(
            "failed_share",
            self.failed() as f64 / self.attempted().max(1) as f64,
        );
        Some(m)
    }

    /// This workload's entry in `result.json`.
    pub fn to_json(&self) -> Value {
        let mut w = Value::obj();
        w.set("name", self.workload.as_str())
            .set("attempted", self.attempted())
            .set("failed", self.failed())
            .set(
                "failures",
                self.failures()
                    .into_iter()
                    .map(Value::from)
                    .collect::<Vec<_>>(),
            )
            .set("launches", self.launches.len() as u64)
            .set(
                "timed_reps",
                self.reps().filter(|r| !r.traced).count() as u64,
            )
            .set(
                "traced_reps",
                self.reps().filter(|r| r.traced).count() as u64,
            );
        if let Some(e) = self.end_to_end() {
            let mut o = Value::obj();
            for (def, x) in END_TO_END.iter().zip(e) {
                let mut v = metric_json(x.value, def.unit);
                v.set("q1", x.q1).set("q3", x.q3).set("n", x.n as u64);
                o.set(def.name, v);
            }
            w.set("end_to_end", o);
        }
        if let Some(h) = self.host() {
            let mut o = Value::obj();
            for (name, x) in h {
                let def = PER_LAYER.iter().find(|d| d.name == name).expect("listed");
                o.set(name, metric_json(x, def.unit));
            }
            w.set("host", o);
        }
        if let Some(p) = self.per_layer() {
            w.set("per_layer", per_layer_json(&p));
        }
        let exact = |r: &RepMsg| {
            let mut o = Value::obj();
            for (name, c) in EXACT.iter().zip(r.out.counts.vals) {
                o.set(name, c);
            }
            o
        };
        if let Some(first) = self.colds.first() {
            w.set("exact_untraced", exact(first));
        }
        if let Some(first) = self.reps().find(|r| r.traced) {
            w.set("exact_traced", exact(first));
        }
        w
    }
}

fn metric_json(value: f64, unit: &str) -> Value {
    let mut v = Value::obj();
    v.set("value", value).set("unit", unit);
    v
}

fn per_layer_json(p: &BTreeMap<&'static str, f64>) -> Value {
    let mut o = Value::obj();
    for def in &PER_LAYER {
        o.set(def.name, metric_json(p[def.name], def.unit));
    }
    o
}

/// The `metrics` object of the contract's result line.
pub fn contract_metrics(s: &Samples, trace: bool) -> Option<Value> {
    if trace {
        return Some(per_layer_json(&s.per_layer()?));
    }
    let mut o = Value::obj();
    for (def, x) in END_TO_END.iter().zip(s.end_to_end()?) {
        o.set(def.name, metric_json(x.value, def.unit));
    }
    Some(o)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::AllocStats;
    use crate::span::Totals;
    use crate::workloads::RepOut;

    fn name_ok(n: &str) -> bool {
        let head = n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        head && n.len() <= 64
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_fit_the_contract_charset() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(d.name), "bad name {:?}", d.name);
            assert!(unit_ok(d.unit), "bad unit {:?} of {}", d.unit, d.name);
            assert!(d.better == "lower" || d.better == "higher", "{}", d.name);
            assert!(seen.insert(d.name), "{} used twice", d.name);
        }
        for d in &END_TO_END {
            assert!(d.bound > 0.0 && d.bound <= 0.25, "{}", d.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s" && d.better == "lower"));
        let widest = END_TO_END.iter().map(|d| d.bound).fold(0.0, f64::max);
        assert_eq!(
            END_TO_END[0].bound, widest,
            "setup_s takes the largest bound"
        );
        assert!(!name_ok("wall s") && !name_ok(".x") && !name_ok("") && !unit_ok("µs"));
    }

    #[test]
    fn every_exact_counter_but_stmts_is_a_per_layer_metric() {
        for name in EXACT {
            let listed = PER_LAYER.iter().any(|d| d.name == name);
            assert_eq!(listed, name != "analyze.stmts", "{name}");
        }
    }

    #[test]
    fn benchmark_json_agrees_with_the_tables() {
        let text = include_str!("../../BENCHMARK.json");
        assert!(text.len() <= 64 * 1024);
        let b = crate::json::parse(text).unwrap();
        let keys: Vec<&str> = b.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |k: &str| -> Vec<String> {
            b.get(k)
                .unwrap()
                .as_arr()
                .iter()
                .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
                .collect()
        };
        assert_eq!(names("workloads"), crate::workloads::NAMES);
        for w in b.get("workloads").unwrap().as_arr() {
            let why = w.get("why").unwrap().as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
            assert_eq!(w.members().len(), 2);
        }
        assert_eq!(
            names("end_to_end"),
            END_TO_END.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|d| d.name).collect::<Vec<_>>()
        );
        for (k, defs, with_bound) in [
            ("end_to_end", &END_TO_END[..], true),
            ("per_layer", &PER_LAYER[..], false),
        ] {
            for (m, d) in b.get(k).unwrap().as_arr().iter().zip(defs) {
                assert_eq!(m.get("unit").unwrap().as_str(), Some(d.unit), "{}", d.name);
                assert_eq!(
                    m.get("better").unwrap().as_str(),
                    Some(d.better),
                    "{}",
                    d.name
                );
                assert_eq!(
                    m.get("bound").and_then(Value::as_f64),
                    with_bound.then_some(d.bound),
                    "{}",
                    d.name
                );
                assert_eq!(m.members().len(), if with_bound { 4 } else { 3 });
            }
        }
        let secs = b.get("run_seconds").unwrap().as_u64().unwrap();
        assert!((1..=60).contains(&secs));
        assert_eq!(b.get("paths").unwrap().as_arr(), [Value::from("benchmark")]);
    }

    /// A repetition taken while the machine ran `slow` times slower than the
    /// reference: wall, calibration and spans all stretch alike.
    fn rep(traced: bool, slow: f64, hwm_kb: u64) -> RepMsg {
        let mut out = RepOut {
            attempted: 10,
            virt_ns: 2_500_000,
            nb_pairs: vec![(200, 100), (50, 100)],
            ..RepOut::default()
        };
        out.counts.vals[0] = 1000; // sim.events
        out.counts.vals[1] = 500; // sim.ctx_switches
        out.counts.vals[2] = 100; // net.msgs
        out.counts.vals[7] = 400; // core.sweeps
        out.counts.vals[15] = 200; // core.ops_issued
        let ns = |ms: f64| (ms * 1e6 * slow) as u64;
        RepMsg {
            traced,
            wall_s: if traced { 0.11 } else { 0.1 } * slow,
            calib_s: CALIB_REF_S * slow,
            hwm_kb,
            out,
            spans: if traced {
                vec![
                    (
                        "harness.rep".into(),
                        Totals {
                            calls: 1,
                            total_ns: ns(110.0),
                            self_ns: ns(4.4),
                        },
                    ),
                    (
                        "core.run_job".into(),
                        Totals {
                            calls: 2,
                            total_ns: ns(99.0),
                            self_ns: ns(99.0),
                        },
                    ),
                ]
            } else {
                vec![]
            },
            alloc: traced.then_some(AllocStats {
                count: 7,
                bytes: 700,
                peak_live: 2 << 20,
            }),
        }
    }

    fn samples() -> Samples {
        let c = CALIB_REF_S;
        let mut probe = Value::obj();
        probe
            .set("calib_s", c)
            .set("event_s", 100e-9)
            .set("advance8_s", 300e-9)
            .set("advance2048_s", 900e-9)
            .set("msg_s", 1000e-9)
            .set("launch_s", 50e-6)
            .set("win_alloc_job_s", 80e-6)
            .set("win_state_kb", 64.0);
        Samples {
            workload: "epoch_mix_8".into(),
            // The second launch ran in a phase twice as slow: same numbers
            // once the calibration is divided out.
            setups: vec![(0.5, c), (1.0, 2.0 * c)],
            colds: vec![rep(false, 1.0, 1000), rep(false, 2.0, 1000)],
            launches: vec![
                vec![
                    rep(false, 1.0, 2048),
                    rep(true, 1.0, 3072),
                    rep(false, 1.0, 4096),
                ],
                vec![
                    rep(false, 2.0, 2048),
                    rep(true, 2.0, 3072),
                    rep(false, 2.0, 3584),
                ],
            ],
            exit_hwm_kb: vec![4096, 3584],
            probes: vec![probe],
            ..Samples::default()
        }
    }

    #[test]
    fn end_to_end_divides_the_speed_phase_out() {
        let e = samples().end_to_end().unwrap();
        assert!((e[0].value - 0.5).abs() < 1e-12, "setup {:?}", e[0]);
        assert!(
            (e[1].value - 0.1).abs() < 1e-12 && e[1].n == 4,
            "wall {:?}",
            e[1]
        );
        assert_eq!(e[1].q1, e[1].q3);
        // VmHWM after the launch's third repetition (cold + two timed), in MB.
        assert_eq!(e[2].value, 3.0);
        assert_eq!(e[3].value, 2.5);
        assert!((e[4].value - 1.0).abs() < 1e-12, "geomean of 2 and 0.5");
    }

    #[test]
    fn per_layer_prices_counts_with_probes() {
        let p = samples().per_layer().unwrap();
        assert_eq!(p.len(), PER_LAYER.len());
        assert_eq!(p["sim.events"], 1000.0);
        assert!((p["sim.event_ns"] - 100.0).abs() < 1e-9);
        assert!((p["sim.switch_ns"] - 200.0).abs() < 1e-9);
        // Priced against the 99 ms inside jobs, not the 110 ms repetition:
        // (1000 x 100 ns + 500 x 200 ns) / 99 ms.
        assert!((p["sim.share_est"] - 200e-6 / 99e-3).abs() < 1e-12);
        assert!((p["net.share_est"] - 100e-6 / 99e-3).abs() < 1e-12);
        assert!((p["core.ns_per_op"] - 99e6 / 200.0).abs() < 1e-6);
        assert!((p["core.ns_per_sweep"] - 99e6 / 400.0).abs() < 1e-6);
        assert_eq!(p["core.sweeps_per_op"], 2.0);
        assert!((p["core.jobs_wall_pct"] - 90.0).abs() < 1e-9);
        assert!((p["core.win_alloc_us"] - 30.0).abs() < 1e-9);
        assert_eq!(p["core.win_state_kb_per_rank"], 8.0);
        assert!((p["core.run_job_ms"] - 99.0).abs() < 1e-9);
        // Raw medians: walls 0.1, 0.1, 0.2, 0.2 and set-ups 0.5, 1.0.
        assert!((p["host.wall_raw_s"] - 0.15).abs() < 1e-12);
        assert_eq!(p["host.setup_raw_s"], 0.75);
        assert!((p["trace.overhead_pct"] - 10.0).abs() < 1e-9);
        assert!((p["trace.covered_pct"] - 96.0).abs() < 1e-9);
        assert_eq!(p["alloc.peak_live_mb"], 2.0);
        // (4096 - 3072) / 1 and (3584 - 3072) / 1.
        assert_eq!(p["host.rss_growth_kb_per_rep"], 768.0);
        assert_eq!(p["failed_share"], 0.0);
        assert_eq!(p["check.execute_us"], 0.0);
    }

    #[test]
    fn nothing_is_reported_before_there_is_something_to_report() {
        let mut s = samples();
        s.probes.clear();
        assert!(s.per_layer().is_none());
        s.launches.clear();
        assert!(s.end_to_end().is_none());
        assert!(contract_metrics(&s, false).is_none());
    }

    #[test]
    fn contract_metrics_carry_exactly_the_declared_names() {
        let s = samples();
        let e = contract_metrics(&s, false).unwrap();
        assert_eq!(
            e.members()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect::<Vec<_>>(),
            ["setup_s", "wall_s", "peak_rss_mb", "virt_ms", "nb_speedup"]
        );
        assert_eq!(
            e.get("wall_s").unwrap().get("unit").unwrap().as_str(),
            Some("s")
        );
        let p = contract_metrics(&s, true).unwrap();
        assert_eq!(p.members().len(), PER_LAYER.len());
    }
}
