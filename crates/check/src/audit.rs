//! Trace-invariant auditor: replay the trace of a finished job and check
//! the protocol invariants of the paper's ω-triple design (§VII.B–D).
//!
//! The engine appends every record of the one trace stream under the
//! global virtual clock, so stream order is chronological (I0 checks it);
//! every "X before Y" check below is a scan in that order over the
//! records of one kind. Audited invariants:
//!
//! * **I0 — chronological stream.** No record is earlier than the record
//!   before it.
//! * **I1 — positional grant emission.** Per (granter, origin, window,
//!   plane) the `GrantSent` ids are exactly 1, 2, 3, … — grants are
//!   sequenced per origin, never skipped or duplicated.
//! * **I2 — monotone grant application.** Per (origin, granter, window,
//!   plane) the `GrantApplied` ids are exactly 1, 2, 3, …, and no grant is
//!   applied before the matching send was traced (`id ≤ #sent so far`).
//! * **I3 — grant gate.** No RMA data is issued toward a peer before the
//!   epoch's positional access id is covered: `A_i ≤ g_r` at issue time.
//!   Fence epochs pre-grant through exposure credits and carry no access
//!   id, so they are exempt.
//! * **I4 — FIFO epoch matching.** Per (rank, window) epochs *activate* in
//!   the order they were opened (reorder flags permit overlap, not
//!   reordering of activation).
//! * **I5 — epoch lifecycle.** Every transition is recorded at most once;
//!   every closed epoch completes, with `opened ≤ activated ≤ completed`
//!   and `opened ≤ closed`; the only epochs allowed to die unclosed are
//!   dormant trailing fences (deviation 4) — opened, usually activated (an
//!   empty fence activates immediately), never closed — and their count
//!   must match the engine's `dormant_retired` counter exactly.
//! * **I6 — request discipline.** Every request goes `Alloc → Complete →
//!   Consume` with exactly one effective completion and at most one
//!   consume; application-visible completion only exists at test/wait, the
//!   sole consumer (§VII.C). No request leaks past the job.
//! * **I7 — conservation.** `opened == completed + dormant_retired` and
//!   `activated == completed + dormant_activated` in the engine counters,
//!   where `dormant_activated` is the subset of dormant fences the trace
//!   shows activating.

use std::collections::BTreeMap;

use mpisim_core::epoch::Slot;
use mpisim_core::request::ReqEvent;
use mpisim_core::trace::{Edge, EpochEvent, Step, SyncEvent, SyncFold, TraceEvent};
use mpisim_core::JobReport;

/// One invariant violation.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Short invariant code (`"I1-grant-seq"`, …).
    pub invariant: &'static str,
    /// Human-readable description of what was observed.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// Audit a finished job's trace. Returns every violation found (empty =
/// all invariants hold).
pub fn audit(report: &JobReport) -> Vec<Violation> {
    let mut v = Vec::new();
    audit_order(report, &mut v);
    audit_sync_plane(report, &mut v);
    audit_epoch_lifecycle(report, &mut v);
    audit_requests(report, &mut v);
    audit_conservation(report, &mut v);
    v
}

fn audit_order(report: &JobReport, out: &mut Vec<Violation>) {
    for (i, w) in report.trace.windows(2).enumerate() {
        if w[1].time < w[0].time {
            let (t0, t1) = (w[0].time, w[1].time);
            let detail = format!("record {} at {t1} follows a record at {t0}", i + 1);
            out.push(Violation { invariant: "I0-order", detail });
        }
    }
}

fn audit_sync_plane(report: &JobReport, out: &mut Vec<Violation>) {
    // I1 / I2 / I3 in one chronological scan.
    let mut fold = SyncFold::default();
    // (rank, win, plane, epoch, peer) -> positional access id.
    let mut access = BTreeMap::new();
    for r in &report.trace {
        let TraceEvent::Sync { win, peer, plane, event } = r.event else { continue };
        let (me, p, w) = (r.rank.idx(), peer.idx(), win.0);
        match (fold.step(r, || ()), event) {
            (Step::Sent { edge: Edge::Grant, id, prev }, _) if id != prev + 1 => {
                let detail = format!(
                    "r{me}→r{p} w{w} {plane:?}: grant id {id} after id {prev} \
                     (must be consecutive from 1)"
                );
                out.push(Violation { invariant: "I1-grant-seq", detail });
            }
            (Step::Applied { edge: Edge::Grant, id, prev, sent, .. }, _) => {
                if id != prev + 1 {
                    let detail =
                        format!("r{me} from r{p} w{w} {plane:?}: applied grant {id} after {prev}");
                    out.push(Violation { invariant: "I2-apply-seq", detail });
                }
                if id > sent {
                    let detail = format!(
                        "r{me} applied grant {id} from r{p} w{w} {plane:?} but only \
                         {sent} were sent"
                    );
                    out.push(Violation { invariant: "I2-apply-before-send", detail });
                }
            }
            (_, SyncEvent::AccessAssigned { epoch, id }) => {
                access.insert((me, w, plane, epoch, p), id);
            }
            (_, SyncEvent::DataIssued { epoch, .. }) => {
                // Fences carry no access id toward the peer: exempt.
                if let Some(&aid) = access.get(&(me, w, plane, epoch, p)) {
                    let g = fold.grants_applied(peer, r.rank, win, plane);
                    if aid > g {
                        let detail = format!(
                            "r{me} issued data of epoch {epoch} to r{p} w{w} {plane:?} \
                             with A_i={aid} > g_r={g}"
                        );
                        out.push(Violation { invariant: "I3-grant-gate", detail });
                    }
                }
            }
            // Close/fence HB edges and local accesses are the race
            // detector's (mpisim-analyze), not the grant plane's.
            _ => {}
        }
    }
}

fn audit_epoch_lifecycle(report: &JobReport, out: &mut Vec<Violation>) {
    // I4: per (rank, win), activation order == open order (epoch ids are
    // assigned at open in increasing order).
    let mut last_activated: BTreeMap<(usize, u32), u64> = BTreeMap::new();
    for r in &report.trace {
        let TraceEvent::Epoch { win, epoch, event: EpochEvent::Activated, .. } = r.event else {
            continue;
        };
        let (rank, win) = (r.rank.idx(), win.0);
        let prev = last_activated.insert((rank, win), epoch);
        if let Some(prev) = prev.filter(|&prev| epoch <= prev) {
            let detail = format!("r{rank} w{win} activated epoch {epoch} after epoch {prev}");
            out.push(Violation { invariant: "I4-fifo-activation", detail });
        }
    }

    // I5: per-epoch lifecycle from the folded summaries. A *dormant*
    // trailing fence (deviation 4) is opened — and, having no operations,
    // usually activated — but never closed by the application; win_free
    // retires it instead of completing it.
    let mut dormant = 0u64;
    let mut dormant_activated = 0u64;
    for s in mpisim_core::trace::summarize(&report.trace) {
        let tag = format!("r{} w{} e{} ({})", s.rank, s.win, s.epoch, s.kind.name());
        if let Some(event) = s.duplicate {
            let detail = format!("{tag} recorded {event:?} more than once");
            out.push(Violation { invariant: "I5-duplicate", detail });
        }
        match (s.opened, s.activated, s.closed, s.completed) {
            (Some(o), activated, None, None) => {
                dormant += 1;
                if activated.is_some() {
                    dormant_activated += 1;
                }
                if s.kind != Slot::Fence {
                    let detail = format!("{tag} was never closed or completed but is not a fence");
                    out.push(Violation { invariant: "I5-dormant-kind", detail });
                }
                if let Some(a) = activated.filter(|&a| a < o) {
                    let detail = format!("{tag} activated {a} before opened {o}");
                    out.push(Violation { invariant: "I5-order", detail });
                }
            }
            (Some(o), Some(a), closed, Some(d)) => {
                if a < o || d < a {
                    let detail = format!("{tag} times out of order: open {o} act {a} done {d}");
                    out.push(Violation { invariant: "I5-order", detail });
                }
                if let Some(c) = closed.filter(|&c| c < o) {
                    let detail = format!("{tag} closed {c} before opened {o}");
                    out.push(Violation { invariant: "I5-order", detail });
                }
            }
            _ => {
                let detail = format!(
                    "{tag} ended in a partial state: open={:?} act={:?} close={:?} done={:?}",
                    s.opened, s.activated, s.closed, s.completed
                );
                out.push(Violation { invariant: "I5-incomplete", detail });
            }
        }
    }
    let e = &report.engine;
    if dormant != e.dormant_retired {
        let retired = e.dormant_retired;
        let detail = format!("{dormant} dormant epochs in the trace but engine retired {retired}");
        out.push(Violation { invariant: "I5-dormant-count", detail });
    }
    // Activated-but-never-completed epochs must all be dormant fences.
    if e.epochs_activated != e.epochs_completed + dormant_activated {
        let detail = format!(
            "activated {} != completed {} + activated-dormant {dormant_activated}",
            e.epochs_activated, e.epochs_completed
        );
        out.push(Violation { invariant: "I7-activated", detail });
    }
}

fn audit_requests(report: &JobReport, out: &mut Vec<Violation>) {
    #[derive(PartialEq)]
    enum St {
        Pending,
        Done,
        Consumed,
    }
    let mut state: BTreeMap<u64, St> = BTreeMap::new();
    for r in &report.trace {
        let TraceEvent::Req { req, event } = r.event else { continue };
        match event {
            ReqEvent::Alloc(_) => {
                if state.insert(req.0, St::Pending).is_some() {
                    let detail = format!("request {req:?} allocated twice");
                    out.push(Violation { invariant: "I6-realloc", detail });
                }
            }
            ReqEvent::Complete => match state.get_mut(&req.0) {
                Some(st @ St::Pending) => *st = St::Done,
                other => {
                    let was = match other {
                        None => "never allocated",
                        Some(St::Done) => "already complete",
                        _ => "already consumed",
                    };
                    let detail = format!("request {req:?} completed while {was}");
                    out.push(Violation { invariant: "I6-complete", detail });
                }
            },
            ReqEvent::Consume => match state.get_mut(&req.0) {
                Some(st @ St::Done) => *st = St::Consumed,
                other => {
                    let was = match other {
                        None => "never allocated",
                        Some(St::Pending) => "still pending (test/wait is the only \
                                             legal completion point)",
                        _ => "already consumed",
                    };
                    let detail = format!("request {req:?} consumed while {was}");
                    out.push(Violation { invariant: "I6-consume", detail });
                }
            },
        }
    }
    if report.live_requests != 0 {
        let detail = format!("{} requests still live after the job", report.live_requests);
        out.push(Violation { invariant: "I6-leak", detail });
    }
}

fn audit_conservation(report: &JobReport, out: &mut Vec<Violation>) {
    let e = &report.engine;
    if e.epochs_opened != e.epochs_completed + e.dormant_retired {
        let detail = format!(
            "opened {} != completed {} + dormant {}",
            e.epochs_opened, e.epochs_completed, e.dormant_retired
        );
        out.push(Violation { invariant: "I7-balance", detail });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{generate, Family};
    use crate::run::{execute, RunSpec};
    use mpisim_core::trace::TraceRecord;
    use mpisim_core::SyncStrategy;

    /// Clean runs break no invariant, and every send of their sync records
    /// is applied: the fold ends with nothing pending, so a payload (the
    /// race detector's clock snapshot) lives only until its apply.
    #[test]
    fn clean_runs_have_no_violations() {
        for family in Family::ALL {
            let p = generate(family, 0);
            for (strategy, nonblocking) in crate::MATRIX {
                let out = execute(&p, &RunSpec::baseline(strategy, nonblocking)).unwrap();
                let tag = format!("{family:?} {strategy:?} nonblocking={nonblocking}");
                let violations = audit(&out.report);
                assert!(violations.is_empty(), "{tag}: {violations:?}");
                let sync = |r: &TraceRecord| matches!(r.event, TraceEvent::Sync { .. });
                assert!(out.report.trace.iter().any(sync), "sync records must be recorded");
                let mut fold = SyncFold::default();
                for r in &out.report.trace {
                    fold.step(r, || ());
                }
                assert_eq!(fold.pending(), 0, "{tag}: sends never applied");
            }
        }
    }

    /// The trace of one clean run, and the index of its first record
    /// matching `f`.
    fn doctor(f: impl Fn(&TraceEvent) -> bool) -> (JobReport, usize) {
        let p = generate(Family::MixedSerial, 1);
        let out = execute(&p, &RunSpec::baseline(SyncStrategy::Redesigned, false)).unwrap();
        let i = out.report.trace.iter().position(|r| f(&r.event)).expect("a record to doctor");
        (out.report, i)
    }

    #[test]
    fn doctored_trace_trips_the_grant_auditor() {
        // Forge a duplicate of the first grant send: I1 must object.
        let (mut report, i) =
            doctor(|e| matches!(e, TraceEvent::Sync { event: SyncEvent::GrantSent { .. }, .. }));
        report.trace.push(report.trace[i]);
        let violations = audit(&report);
        assert!(
            violations.iter().any(|v| v.invariant == "I1-grant-seq"),
            "forged duplicate grant not caught: {violations:?}"
        );
    }

    #[test]
    fn doctored_trace_trips_the_order_check() {
        // Swap the first two records of different times: I0 must object.
        let (mut report, _) = doctor(|_| true);
        let t = &mut report.trace;
        let i = (0..t.len() - 1).find(|&i| t[i].time < t[i + 1].time).expect("time advances");
        t.swap(i, i + 1);
        let violations = audit(&report);
        assert!(violations.iter().any(|v| v.invariant == "I0-order"), "{violations:?}");
    }

    #[test]
    fn duplicated_transition_trips_the_lifecycle_audit() {
        // A second copy of one `Completed`, next to the first so the stream
        // stays chronological: I5 must object, and nothing else.
        let completed = |e: &TraceEvent| {
            matches!(e, TraceEvent::Epoch { event: EpochEvent::Completed, .. })
        };
        let (mut report, i) = doctor(completed);
        report.trace.insert(i + 1, report.trace[i]);
        let violations = audit(&report);
        assert!(!violations.is_empty(), "duplicated transition not caught");
        assert!(violations.iter().all(|v| v.invariant == "I5-duplicate"), "{violations:?}");
    }
}
