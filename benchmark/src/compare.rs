//! `compare A.json [A2.json …] -- B.json [B2.json …]`: is side B worse than
//! side A? One row per (workload, end-to-end metric) and one per workload for
//! the failed share, with both medians, the bound and a verdict. At equal
//! seeds the exact counters, `virt_ms` and `nb_speedup` must also be
//! identical in every file.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::json::Value;
use crate::metrics::{MetricDef, END_TO_END};
use crate::stats::{median, spread};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// Not worse, but the spread on one side is wider than the bound, so
    /// "unchanged" cannot be claimed either.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's view of one metric on one workload: the value of every file,
/// and the in-run spread of every file (used when a side has a single file).
struct Side {
    values: Vec<f64>,
    in_run_spreads: Vec<f64>,
}

impl Side {
    fn spread(&self) -> f64 {
        if self.values.len() > 1 {
            spread(&self.values)
        } else {
            self.in_run_spreads.first().copied().unwrap_or(0.0)
        }
    }
}

fn workload<'a>(file: &'a Value, name: &str) -> Option<&'a Value> {
    file.get("workloads")?
        .as_arr()
        .iter()
        .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
}

fn side(files: &[Value], wl: &str, metric: &str) -> Side {
    let mut s = Side {
        values: Vec::new(),
        in_run_spreads: Vec::new(),
    };
    for f in files {
        let Some(m) = workload(f, wl)
            .and_then(|w| w.get("end_to_end"))
            .and_then(|e| e.get(metric))
        else {
            continue;
        };
        let num = |k: &str| m.get(k).and_then(Value::as_f64);
        if let (Some(v), Some(q1), Some(q3)) = (num("value"), num("q1"), num("q3")) {
            s.values.push(v);
            s.in_run_spreads
                .push(if v == 0.0 { 0.0 } else { (q3 - q1) / v.abs() });
        }
    }
    s
}

/// Failed ÷ attempted of a workload over all the files of a side that have
/// it (pooled, so one failing file among several still shows).
fn failed_share(files: &[Value], wl: &str) -> Option<f64> {
    let (mut failed, mut attempted) = (0.0, 0.0);
    for w in files.iter().filter_map(|f| workload(f, wl)) {
        failed += w.get("failed").and_then(Value::as_f64)?;
        attempted += w.get("attempted").and_then(Value::as_f64)?;
    }
    (attempted > 0.0).then(|| failed / attempted)
}

/// The bound a row is held to, as a share of A's median. `compare` sees one
/// workload at a time and, for the exact rows, one seed, so it uses the
/// per-workload bounds; `MetricDef::bound` is the single bound per metric the
/// driver's contract allows, which must also cover the noisiest workload and
/// a change of seed.
fn bound(def: &MetricDef, baseline: &Side) -> f64 {
    match def.name {
        "wall_s" => f64::max(0.10, 2.0 * baseline.spread()),
        "virt_ms" | "nb_speedup" => 0.01,
        _ => def.bound,
    }
}

pub fn verdict(better: &str, bound: f64, a: f64, b: f64, widest_spread: f64) -> Verdict {
    let worse_by = if better == "lower" { b - a } else { a - b };
    if worse_by > bound * a.abs() {
        Verdict::Worse
    } else if widest_spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// What must repeat exactly at one seed: a workload's exact counters, traced
/// and untraced sets alike, and its model time and speed-up.
fn exact(file: &Value, wl: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Some(w) = workload(file, wl) else {
        return out;
    };
    for set in ["exact_untraced", "exact_traced"] {
        for (k, v) in w.get(set).map(Value::members).unwrap_or(&[]) {
            out.insert(format!("{set}.{k}"), v.as_f64().unwrap_or(f64::NAN));
        }
    }
    for metric in ["virt_ms", "nb_speedup"] {
        if let Some(v) = w
            .get("end_to_end")
            .and_then(|e| e.get(metric))
            .and_then(|m| m.get("value"))
        {
            out.insert(metric.to_string(), v.as_f64().unwrap_or(f64::NAN));
        }
    }
    out
}

/// Render the comparison; the second value is true when B cannot be accepted:
/// a row is `worse` or missing on one side, or an exact value differs between
/// files taken at the same seed.
pub fn compare(a: &[Value], b: &[Value]) -> (String, bool) {
    let mut out = String::new();
    let mut reject = false;
    let mut names: Vec<String> = Vec::new();
    for f in a.iter().chain(b) {
        for w in f.get("workloads").map(Value::as_arr).unwrap_or(&[]) {
            if let Some(n) = w.get("name").and_then(Value::as_str) {
                if !names.iter().any(|m| m == n) {
                    names.push(n.to_string());
                }
            }
        }
    }
    writeln!(
        out,
        "{:<16} {:<12} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound", "spread"
    )
    .expect("write to String");
    let mut row = |wl: &str, name: &str, ma: f64, mb: f64, bound: f64, widest: f64, v: Verdict| {
        let change = if ma == 0.0 {
            0.0
        } else {
            (mb - ma) / ma.abs() * 100.0
        };
        writeln!(
            out,
            "{wl:<16} {name:<12} {ma:>14.6} {mb:>14.6} {change:>+7.2}% {:>6.1}% {:>6.1}%  {}",
            bound * 100.0,
            widest * 100.0,
            v.word()
        )
        .expect("write to String");
    };
    let mut missing = Vec::new();
    for wl in &names {
        for def in &END_TO_END {
            let (sa, sb) = (side(a, wl, def.name), side(b, wl, def.name));
            if sa.values.is_empty() || sb.values.is_empty() {
                missing.push(format!("{wl} {}", def.name));
                continue;
            }
            let (ma, mb) = (median(&sa.values), median(&sb.values));
            let bound = bound(def, &sa);
            let widest = sa.spread().max(sb.spread());
            let v = verdict(def.better, bound, ma, mb, widest);
            reject |= v == Verdict::Worse;
            row(wl, def.name, ma, mb, bound, widest, v);
        }
        // Any increase of the failed share is worse.
        let (Some(fa), Some(fb)) = (failed_share(a, wl), failed_share(b, wl)) else {
            missing.push(format!("{wl} failed_share"));
            continue;
        };
        let v = if fb > fa { Verdict::Worse } else { Verdict::Ok };
        reject |= v == Verdict::Worse;
        row(wl, "failed_share", fa, fb, 0.0, 0.0, v);
    }
    for m in &missing {
        writeln!(out, "missing on one side: {m}").expect("write to String");
    }
    reject |= !missing.is_empty();

    // Exact values: every file against the first file of side A. They only
    // mean the same thing at the same seed.
    let seeds: Vec<Option<u64>> = a
        .iter()
        .chain(b)
        .map(|f| f.get("seed").and_then(Value::as_u64))
        .collect();
    if seeds.windows(2).any(|w| w[0] != w[1]) {
        writeln!(
            out,
            "exact values: not compared, the files were taken at different seeds {seeds:?}"
        )
        .expect("write to String");
        return (out, reject);
    }
    let mut differing = 0;
    for wl in &names {
        let Some(first) = a.first() else { break };
        let want = exact(first, wl);
        for (k, f) in a.iter().chain(b).enumerate().skip(1) {
            let got = exact(f, wl);
            let keys: BTreeSet<&String> = want.keys().chain(got.keys()).collect();
            for name in keys {
                // A workload a file lacks altogether is already listed above.
                if want.is_empty() || got.is_empty() || want.get(name) == got.get(name) {
                    continue;
                }
                differing += 1;
                let show = |x: Option<&f64>| x.map_or("absent".to_string(), |x| format!("{x}"));
                writeln!(
                    out,
                    "exact value differs: {wl} {name}: {} in file 1, {} in file {}",
                    show(want.get(name)),
                    show(got.get(name)),
                    k + 1
                )
                .expect("write to String");
            }
        }
    }
    if differing == 0 {
        writeln!(out, "exact values: identical in every file").expect("write to String");
    }
    (out, reject || differing > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn base() -> Value {
        parse(include_str!("../fixtures/base.json")).unwrap()
    }

    fn member<'a>(v: &'a mut Value, key: &str) -> &'a mut Value {
        match v {
            Value::Obj(m) => &mut m.iter_mut().find(|(k, _)| k == key).unwrap().1,
            other => panic!("{key} of non-object {other:?}"),
        }
    }

    fn workload_mut<'a>(file: &'a mut Value, wl: &str) -> &'a mut Value {
        match member(file, "workloads") {
            Value::Arr(a) => a
                .iter_mut()
                .find(|w| w.get("name").and_then(Value::as_str) == Some(wl))
                .unwrap(),
            other => panic!("workloads is {other:?}"),
        }
    }

    /// The base fixture with one metric of one workload set to `value`, its
    /// quartiles `rel_spread` of it apart.
    fn with_metric(mut file: Value, wl: &str, metric: &str, value: f64, rel_spread: f64) -> Value {
        let m = member(member(workload_mut(&mut file, wl), "end_to_end"), metric);
        *member(m, "value") = value.into();
        *member(m, "q1") = (value * (1.0 - rel_spread / 2.0)).into();
        *member(m, "q3") = (value * (1.0 + rel_spread / 2.0)).into();
        file
    }

    fn row<'a>(text: &'a str, wl: &str, metric: &str) -> &'a str {
        text.lines()
            .find(|l| l.starts_with(wl) && l.contains(metric))
            .unwrap_or_else(|| panic!("no row {wl} {metric} in\n{text}"))
    }

    #[test]
    fn verdict_respects_direction_and_bound() {
        assert_eq!(verdict("lower", 0.1, 1.0, 1.09, 0.01), Verdict::Ok);
        assert_eq!(verdict("lower", 0.1, 1.0, 1.11, 0.01), Verdict::Worse);
        assert_eq!(verdict("lower", 0.1, 1.0, 0.5, 0.01), Verdict::Ok);
        assert_eq!(verdict("higher", 0.01, 1.5, 1.47, 0.0), Verdict::Worse);
        assert_eq!(verdict("higher", 0.01, 1.5, 1.6, 0.0), Verdict::Ok);
        assert_eq!(verdict("lower", 0.1, 1.0, 1.01, 0.2), Verdict::Unresolved);
        // Worse wins over unresolved.
        assert_eq!(verdict("lower", 0.1, 1.0, 2.0, 0.2), Verdict::Worse);
    }

    #[test]
    fn wall_bound_is_ten_percent_or_twice_the_baseline_spread() {
        let wall = &END_TO_END[1];
        assert_eq!(wall.name, "wall_s");
        let quiet = side(&[base()], "epoch_mix_8", "wall_s");
        assert_eq!(bound(wall, &quiet), 0.10);
        let noisy = side(
            &[with_metric(base(), "epoch_mix_8", "wall_s", 0.1, 0.08)],
            "epoch_mix_8",
            "wall_s",
        );
        assert!((bound(wall, &noisy) - 0.16).abs() < 1e-12);
        assert_eq!(bound(&END_TO_END[3], &quiet), 0.01);
        assert_eq!(bound(&END_TO_END[0], &quiet), END_TO_END[0].bound);
    }

    #[test]
    fn same_commit_twice_is_ok_everywhere() {
        let again = with_metric(base(), "epoch_mix_8", "wall_s", 0.103, 0.02);
        let (text, reject) = compare(&[base()], &[again]);
        assert!(!reject, "{text}");
        assert!(
            !text.contains("worse") && !text.contains("unresolved"),
            "{text}"
        );
        assert!(text.contains("exact values: identical"), "{text}");
        // Two workloads, each with every end-to-end metric and a failed row.
        assert_eq!(
            text.matches(" ok\n").count(),
            2 * (END_TO_END.len() + 1),
            "{text}"
        );
    }

    #[test]
    fn a_slower_side_is_worse_and_fails_the_comparison() {
        let slower = with_metric(base(), "epoch_mix_8", "wall_s", 0.112, 0.02);
        let (text, reject) = compare(&[base(), base()], &[slower]);
        assert!(reject, "{text}");
        assert!(row(&text, "epoch_mix_8", "wall_s").ends_with("worse"));
        assert!(row(&text, "static_sweep", "wall_s").ends_with("ok"));
    }

    #[test]
    fn a_noisy_side_is_unresolved_not_unchanged() {
        let noisy = with_metric(base(), "epoch_mix_8", "wall_s", 0.104, 0.4);
        let (text, reject) = compare(&[base()], &[noisy]);
        assert!(!reject, "{text}");
        assert!(row(&text, "epoch_mix_8", "wall_s").ends_with("unresolved"));
    }

    #[test]
    fn any_failed_check_on_side_b_is_worse() {
        let mut broken = base();
        *member(workload_mut(&mut broken, "static_sweep"), "failed") = 1u64.into();
        let (text, reject) = compare(&[base()], &[broken.clone()]);
        assert!(reject, "{text}");
        assert!(row(&text, "static_sweep", "failed_share").ends_with("worse"));
        assert!(row(&text, "epoch_mix_8", "failed_share").ends_with("ok"));
        // The other way round it is an improvement.
        assert!(!compare(&[broken], &[base()]).1);
    }

    #[test]
    fn differing_exact_values_fail_the_comparison_at_one_seed() {
        let mut counts = base();
        *member(
            member(workload_mut(&mut counts, "epoch_mix_8"), "exact_untraced"),
            "core.sweeps",
        ) = 4100u64.into();
        let (text, reject) = compare(&[base()], &[counts]);
        assert!(reject, "{text}");
        assert!(text.contains("exact value differs: epoch_mix_8 exact_untraced.core.sweeps: 4000 in file 1, 4100 in file 2"), "{text}");

        // Half a percent of model time is inside the 1 % row bound, but at
        // one seed it must not move at all.
        let virt = with_metric(base(), "epoch_mix_8", "virt_ms", 3.216, 0.0);
        let (text, reject) = compare(&[base()], &[virt]);
        assert!(reject, "{text}");
        assert!(row(&text, "epoch_mix_8", "virt_ms").ends_with("ok"));
        assert!(
            text.contains("exact value differs: epoch_mix_8 virt_ms: 3.2 in file 1, 3.216"),
            "{text}"
        );

        // A counter one side does not report is a difference too.
        let mut fewer = base();
        if let Value::Obj(m) = member(workload_mut(&mut fewer, "epoch_mix_8"), "exact_untraced") {
            m.retain(|(k, _)| k != "core.jobs");
        }
        let (text, reject) = compare(&[base()], &[fewer]);
        assert!(reject, "{text}");
        assert!(
            text.contains("core.jobs: 8 in file 1, absent in file 2"),
            "{text}"
        );
    }

    #[test]
    fn different_seeds_skip_the_exact_comparison() {
        let mut other = with_metric(base(), "epoch_mix_8", "virt_ms", 3.216, 0.0);
        *member(&mut other, "seed") = 12u64.into();
        let (text, reject) = compare(&[base()], &[other]);
        assert!(text.contains("not compared"), "{text}");
        assert!(!reject, "{text}");
    }

    #[test]
    fn a_workload_missing_on_one_side_fails_the_comparison() {
        let mut fewer = base();
        if let Value::Arr(w) = member(&mut fewer, "workloads") {
            w.truncate(1);
        }
        let (text, reject) = compare(&[base()], &[fewer]);
        assert!(reject, "{text}");
        assert!(
            text.contains("missing on one side: static_sweep wall_s"),
            "{text}"
        );
    }
}
