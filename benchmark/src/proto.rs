//! What a worker tells the orchestrator about one repetition, as one JSON
//! line each way.

use crate::host::AllocStats;
use crate::json::Value;
use crate::span::Totals;
use crate::workloads::{Counts, RepOut, EXACT};

/// One repetition as the worker measured it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RepMsg {
    pub traced: bool,
    /// Raw host wall time of the repetition.
    pub wall_s: f64,
    /// Mean of the calibration loops the orchestrator ran, in its own idle
    /// process, right before and right after the repetition. Not sent by the
    /// worker: the orchestrator fills it in.
    pub calib_s: f64,
    /// The worker's `VmHWM` after the repetition.
    pub hwm_kb: u64,
    pub out: RepOut,
    /// Traced repetitions only: per span name, calls, total and self time.
    pub spans: Vec<(String, Totals)>,
    pub alloc: Option<AllocStats>,
}

impl RepMsg {
    pub fn to_json(&self) -> Value {
        let o = &self.out;
        let mut v = Value::obj();
        v.set("traced", self.traced)
            .set("wall_s", self.wall_s)
            .set("hwm_kb", self.hwm_kb)
            .set("attempted", o.attempted)
            .set("failed", o.failed)
            .set(
                "failures",
                o.failures
                    .iter()
                    .map(|f| Value::from(f.as_str()))
                    .collect::<Vec<_>>(),
            )
            .set(
                "counts",
                o.counts
                    .vals
                    .iter()
                    .map(|c| Value::from(*c))
                    .collect::<Vec<_>>(),
            )
            .set("virt_ns", o.virt_ns)
            .set(
                "nb_pairs",
                o.nb_pairs
                    .iter()
                    .map(|(a, b)| Value::Arr(vec![Value::from(*a), Value::from(*b)]))
                    .collect::<Vec<_>>(),
            )
            .set("tx_kps_virt", o.tx_kps_virt)
            .set("lu_comm_pct", o.lu_comm_pct);
        let mut spans = Value::obj();
        for (name, t) in &self.spans {
            spans.set(
                name,
                vec![
                    Value::from(t.calls),
                    Value::from(t.total_ns),
                    Value::from(t.self_ns),
                ],
            );
        }
        v.set("spans", spans);
        if let Some(a) = self.alloc {
            v.set(
                "alloc",
                vec![
                    Value::from(a.count),
                    Value::from(a.bytes),
                    Value::from(a.peak_live),
                ],
            );
        }
        v
    }

    pub fn from_json(v: &Value) -> Result<RepMsg, String> {
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing number {k}"))
        };
        let int = |k: &str| {
            v.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing count {k}"))
        };
        let ints = |a: &Value| {
            a.as_arr()
                .iter()
                .filter_map(Value::as_u64)
                .collect::<Vec<_>>()
        };
        let list = |k: &str| v.get(k).ok_or_else(|| format!("missing list {k}"));
        let mut counts = Counts::default();
        let vals = ints(list("counts")?);
        if vals.len() != EXACT.len() {
            return Err(format!("{} counters, expected {}", vals.len(), EXACT.len()));
        }
        counts.vals.copy_from_slice(&vals);
        let triple = |a: &Value, what: &str| match ints(a)[..] {
            [x, y, z] => Ok((x, y, z)),
            _ => Err(format!("{what} is not three counts")),
        };
        let mut spans = Vec::new();
        for (name, t) in list("spans")?.members() {
            let (calls, total_ns, self_ns) = triple(t, name)?;
            spans.push((
                name.clone(),
                Totals {
                    calls,
                    total_ns,
                    self_ns,
                },
            ));
        }
        let alloc = match v.get("alloc") {
            Some(a) => {
                let (count, bytes, peak_live) = triple(a, "alloc")?;
                Some(AllocStats {
                    count,
                    bytes,
                    peak_live,
                })
            }
            None => None,
        };
        let mut nb_pairs = Vec::new();
        for p in list("nb_pairs")?.as_arr() {
            match ints(p)[..] {
                [a, b] => nb_pairs.push((a, b)),
                _ => return Err("nb pair is not two counts".into()),
            }
        }
        Ok(RepMsg {
            traced: v
                .get("traced")
                .and_then(Value::as_bool)
                .ok_or("missing traced")?,
            wall_s: num("wall_s")?,
            calib_s: 0.0,
            hwm_kb: int("hwm_kb")?,
            out: RepOut {
                attempted: int("attempted")?,
                failed: int("failed")?,
                failures: list("failures")?
                    .as_arr()
                    .iter()
                    .filter_map(|f| f.as_str().map(String::from))
                    .collect(),
                counts,
                virt_ns: int("virt_ns")?,
                nb_pairs,
                tx_kps_virt: num("tx_kps_virt")?,
                lu_comm_pct: num("lu_comm_pct")?,
            },
            spans,
            alloc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_repetition_survives_the_pipe() {
        let mut out = RepOut {
            attempted: 12,
            failed: 1,
            virt_ns: 3_216_000,
            ..RepOut::default()
        };
        out.failures
            .push("halo: 1/8 ranks hold \"wrong\" contents".into());
        out.counts.vals[0] = 77;
        out.counts.vals[EXACT.len() - 1] = 5;
        out.nb_pairs = vec![(110, 100), (90, 100)];
        out.tx_kps_virt = 812.25;
        for traced in [false, true] {
            let msg = RepMsg {
                traced,
                wall_s: 0.123456789012,
                calib_s: 0.0,
                hwm_kb: 4321,
                out: out.clone(),
                spans: if traced {
                    vec![(
                        "core.run_job".into(),
                        Totals {
                            calls: 8,
                            total_ns: 900,
                            self_ns: 900,
                        },
                    )]
                } else {
                    vec![]
                },
                alloc: traced.then_some(AllocStats {
                    count: 9,
                    bytes: 1 << 20,
                    peak_live: 4096,
                }),
            };
            let line = msg.to_json().to_line();
            assert!(!line.contains('\n'));
            let back = RepMsg::from_json(&crate::json::parse(&line).unwrap()).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn a_short_counter_list_is_rejected() {
        let mut v = RepMsg::default().to_json();
        if let Value::Obj(m) = &mut v {
            m.iter_mut().find(|(k, _)| k == "counts").unwrap().1 =
                Value::Arr(vec![Value::from(1u64)]);
        }
        assert!(RepMsg::from_json(&v).unwrap_err().contains("counters"));
    }
}
