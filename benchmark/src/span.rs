//! Spans recorded from the benchmark's own files around each call into a
//! layer. Recording is per thread and off by default; an untraced repetition
//! pays one thread-local flag check per call site. Nothing is recorded inside
//! a multi-rank `run_job` (its fibers interleave on one thread, so a per-call
//! span there would time other ranks' work) — exact counts × probed unit
//! costs attribute that part instead.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. `name` is `layer.what`; the layer is the part before the
/// first dot.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        epoch: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
    });
}

/// Start recording on this thread; span times count from `epoch`.
pub fn begin(epoch: Instant) {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.on = true;
        r.epoch = epoch;
        r.spans.clear();
        r.open.clear();
    });
}

/// Stop recording and take what was recorded, in start order.
pub fn end() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        assert!(
            r.open.is_empty(),
            "span::end with {} spans still open",
            r.open.len()
        );
        r.on = false;
        std::mem::take(&mut r.spans)
    })
}

/// Is this thread recording? Workloads use it to pick the traced variant of a
/// call (one that goes through a layer's public stages one by one).
pub fn recording() -> bool {
    REC.with(|r| r.borrow().on)
}

/// Closes its span when dropped.
pub struct Guard(Option<u32>);

/// Open a span that lasts until the guard is dropped. The parent is the
/// innermost span still open on this thread.
#[must_use = "the span closes when the guard is dropped"]
pub fn enter(name: &'static str) -> Guard {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard(None);
        }
        let id = r.spans.len() as u32;
        let parent = r.open.last().copied();
        let start_ns = r.epoch.elapsed().as_nanos() as u64;
        r.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
        });
        r.open.push(id);
        Guard(Some(id))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(id) = self.0 else { return };
        REC.with(|r| {
            let mut r = r.borrow_mut();
            let now = r.epoch.elapsed().as_nanos() as u64;
            // Guards are scoped values, so they close innermost first.
            let top = r.open.pop();
            debug_assert_eq!(top, Some(id), "spans closed out of order");
            r.spans[id as usize].end_ns = now;
        });
    }
}

/// Time `f` under a span.
pub fn within<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _g = enter(name);
    f()
}

/// Per-name totals over a set of spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    pub calls: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the part covered by child spans.
    pub self_ns: u64,
}

/// Self time = a span's duration minus the durations of its direct children
/// (children never overlap each other: one thread, scoped guards).
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_ns += s.dur_ns();
        t.self_ns += s.dur_ns().saturating_sub(child_ns[s.id as usize]);
    }
    out
}

/// Render spans as Chrome trace-event objects (`chrome://tracing`, Perfetto),
/// comma-separated without the enclosing brackets so several workers' output
/// can be spliced into one array. `base_us` places the recorder's epoch on the
/// run's common time line.
pub fn chrome_events(spans: &[Span], workload: &str, pid: u32, round: u32, base_us: f64) -> String {
    use crate::json::Value;
    let mut out = String::new();
    for s in spans {
        let mut args = Value::obj();
        args.set("id", s.id as u64);
        match s.parent {
            Some(p) => args.set("parent", p as u64),
            None => args.set("parent", Value::Null),
        };
        args.set("layer", s.layer())
            .set("workload", workload)
            .set("round", round as u64)
            .set("start_ns", s.start_ns)
            .set("end_ns", s.end_ns);
        let mut ev = Value::obj();
        ev.set("name", s.name)
            .set("cat", s.layer())
            .set("ph", "X")
            .set("ts", base_us + s.start_ns as f64 / 1e3)
            .set("dur", s.dur_ns() as f64 / 1e3)
            .set("pid", pid as u64)
            .set("tid", round as u64)
            .set("args", args);
        if !out.is_empty() {
            out.push_str(",\n");
        }
        out.push_str(&ev.to_line());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // rep [0,100] > a [10,40] > b [15,25]; rep > a [50,90]
        let spans = vec![
            sp(0, None, "harness.rep", 0, 100),
            sp(1, Some(0), "core.a", 10, 40),
            sp(2, Some(1), "sim.b", 15, 25),
            sp(3, Some(0), "core.a", 50, 90),
        ];
        let t = totals_by_name(&spans);
        assert_eq!(
            t["harness.rep"],
            Totals {
                calls: 1,
                total_ns: 100,
                self_ns: 30
            }
        );
        assert_eq!(
            t["core.a"],
            Totals {
                calls: 2,
                total_ns: 70,
                self_ns: 60
            }
        );
        assert_eq!(
            t["sim.b"],
            Totals {
                calls: 1,
                total_ns: 10,
                self_ns: 10
            }
        );
        // Self times partition the root.
        assert_eq!(t.values().map(|x| x.self_ns).sum::<u64>(), 100);
        assert_eq!(spans[2].layer(), "sim");
    }

    #[test]
    fn recorder_nests_and_is_off_by_default() {
        assert!(!recording());
        {
            let _g = enter("core.ignored");
        }
        begin(Instant::now());
        assert!(recording());
        {
            let _rep = enter("harness.rep");
            within("core.outer", || {
                let _i = enter("sim.inner");
            });
            let _s = enter("net.sibling");
        }
        let spans = end();
        assert!(!recording());
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("harness.rep", None),
                ("core.outer", Some(0)),
                ("sim.inner", Some(1)),
                ("net.sibling", Some(0)),
            ]
        );
        for s in &spans {
            assert!(s.end_ns >= s.start_ns);
        }
        assert!(spans[0].end_ns >= spans[3].end_ns);
    }

    #[test]
    fn chrome_events_parse_as_a_json_array() {
        let spans = vec![
            sp(0, None, "harness.rep", 1_000, 3_500),
            sp(1, Some(0), "core.run_job", 1_500, 2_000),
        ];
        let text = format!("[{}]", chrome_events(&spans, "epoch_mix_8", 3, 7, 10.0));
        let v = crate::json::parse(&text).unwrap();
        let evs = v.as_arr();
        assert_eq!(evs.len(), 2);
        assert_eq!(evs[1].get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(evs[1].get("cat").unwrap().as_str(), Some("core"));
        assert_eq!(evs[1].get("ts").unwrap().as_f64(), Some(11.5));
        assert_eq!(evs[1].get("dur").unwrap().as_f64(), Some(0.5));
        assert_eq!(evs[1].get("tid").unwrap().as_u64(), Some(7));
        let args = evs[1].get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_u64(), Some(0));
        assert_eq!(args.get("workload").unwrap().as_str(), Some("epoch_mix_8"));
        assert_eq!(
            evs[0].get("args").unwrap().get("parent"),
            Some(&Value::Null)
        );
    }

    use crate::json::Value;
}
