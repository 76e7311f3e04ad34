//! Trace-invariant auditor: replay the traces of a finished job and check
//! the protocol invariants of the paper's ω-triple design (§VII.B–D).
//!
//! The engine's sync trace is appended under the global virtual clock, so
//! vector order is chronological; every "X before Y" check below is a scan
//! in that order. Audited invariants:
//!
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
//! * **I5 — epoch lifecycle.** Every closed epoch completes, with
//!   `opened ≤ activated ≤ completed` and `opened ≤ closed`; the only
//!   epochs allowed to die unclosed are dormant trailing fences
//!   (deviation 4) — opened, usually activated (an empty fence activates
//!   immediately), never closed — and their count must match the engine's
//!   `dormant_retired` counter exactly.
//! * **I6 — request discipline.** Every request goes `Alloc → Complete →
//!   Consume` with exactly one effective completion and at most one
//!   consume; application-visible completion only exists at test/wait, the
//!   sole caller of consume (§VII.C). No request leaks past the job.
//! * **I7 — conservation.** `opened == completed + dormant_retired` and
//!   `activated == completed + dormant_activated` in the engine counters,
//!   where `dormant_activated` is the subset of dormant fences the trace
//!   shows activating.

use std::collections::BTreeMap;

use mpisim_core::request::ReqEvent;
use mpisim_core::trace::{Edge, EpochEvent, Step, SyncEvent, SyncFold};
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

/// Audit a finished job's traces. Returns every violation found (empty =
/// all invariants hold).
pub fn audit(report: &JobReport) -> Vec<Violation> {
    let mut v = Vec::new();
    audit_sync_plane(report, &mut v);
    audit_epoch_lifecycle(report, &mut v);
    audit_requests(report, &mut v);
    audit_conservation(report, &mut v);
    v
}

fn audit_sync_plane(report: &JobReport, out: &mut Vec<Violation>) {
    // I1 / I2 / I3 in one chronological scan.
    let mut fold = SyncFold::default();
    // (rank, win, plane, epoch, peer) -> positional access id.
    let mut access = BTreeMap::new();
    for r in &report.sync_trace {
        let me = r.rank.idx();
        let peer = r.peer.idx();
        let win = r.win.0;
        match (fold.step(r, || ()), r.event) {
            (Step::Sent { edge: Edge::Grant, id, prev }, _) if id != prev + 1 => {
                out.push(Violation {
                    invariant: "I1-grant-seq",
                    detail: format!(
                        "r{me}→r{peer} w{win} {:?}: grant id {id} after id {prev} \
                         (must be consecutive from 1)",
                        r.plane
                    ),
                });
            }
            (Step::Applied { edge: Edge::Grant, id, prev, sent, .. }, _) => {
                if id != prev + 1 {
                    out.push(Violation {
                        invariant: "I2-apply-seq",
                        detail: format!(
                            "r{me} from r{peer} w{win} {:?}: applied grant {id} after {prev}",
                            r.plane
                        ),
                    });
                }
                if id > sent {
                    out.push(Violation {
                        invariant: "I2-apply-before-send",
                        detail: format!(
                            "r{me} applied grant {id} from r{peer} w{win} {:?} but only \
                             {sent} were sent",
                            r.plane
                        ),
                    });
                }
            }
            (_, SyncEvent::AccessAssigned { epoch, id }) => {
                access.insert((me, win, r.plane, epoch, peer), id);
            }
            (_, SyncEvent::DataIssued { epoch, .. }) => {
                // Fences carry no access id toward the peer: exempt.
                if let Some(&aid) = access.get(&(me, win, r.plane, epoch, peer)) {
                    let g = fold.grants_applied(r.peer, r.rank, r.win, r.plane);
                    if aid > g {
                        out.push(Violation {
                            invariant: "I3-grant-gate",
                            detail: format!(
                                "r{me} issued data of epoch {epoch} to r{peer} w{win} {:?} \
                                 with A_i={aid} > g_r={g}",
                                r.plane
                            ),
                        });
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
        if r.event == EpochEvent::Activated {
            let prev = last_activated.insert((r.rank.idx(), r.win.0), r.epoch);
            if let Some(prev) = prev.filter(|&prev| r.epoch <= prev) {
                out.push(Violation {
                    invariant: "I4-fifo-activation",
                    detail: format!(
                        "r{} w{} activated epoch {} after epoch {}",
                        r.rank.idx(),
                        r.win.0,
                        r.epoch,
                        prev
                    ),
                });
            }
        }
    }

    // I5: per-epoch lifecycle from the folded summaries. A *dormant*
    // trailing fence (deviation 4) is opened — and, having no operations,
    // usually activated — but never closed by the application; win_free
    // retires it instead of completing it.
    let mut dormant = 0u64;
    let mut dormant_activated = 0u64;
    for s in mpisim_core::trace::summarize(&report.trace) {
        let tag = format!("r{} w{} e{} ({})", s.rank, s.win, s.epoch, s.kind);
        match (s.opened, s.activated, s.closed, s.completed) {
            (Some(o), activated, None, None) => {
                dormant += 1;
                if activated.is_some() {
                    dormant_activated += 1;
                }
                if s.kind != "fence" {
                    out.push(Violation {
                        invariant: "I5-dormant-kind",
                        detail: format!("{tag} was never closed or completed but is not a fence"),
                    });
                }
                if let Some(a) = activated {
                    if a < o {
                        out.push(Violation {
                            invariant: "I5-order",
                            detail: format!("{tag} activated {a} before opened {o}"),
                        });
                    }
                }
            }
            (Some(o), Some(a), closed, Some(d)) => {
                if a < o || d < a {
                    out.push(Violation {
                        invariant: "I5-order",
                        detail: format!("{tag} times out of order: open {o} act {a} done {d}"),
                    });
                }
                if let Some(c) = closed {
                    if c < o {
                        out.push(Violation {
                            invariant: "I5-order",
                            detail: format!("{tag} closed {c} before opened {o}"),
                        });
                    }
                }
            }
            _ => {
                out.push(Violation {
                    invariant: "I5-incomplete",
                    detail: format!(
                        "{tag} ended in a partial state: open={:?} act={:?} close={:?} done={:?}",
                        s.opened, s.activated, s.closed, s.completed
                    ),
                });
            }
        }
    }
    if dormant != report.engine.dormant_retired {
        out.push(Violation {
            invariant: "I5-dormant-count",
            detail: format!(
                "{dormant} dormant epochs in the trace but engine retired {}",
                report.engine.dormant_retired
            ),
        });
    }
    // Activated-but-never-completed epochs must all be dormant fences.
    let e = &report.engine;
    if e.epochs_activated != e.epochs_completed + dormant_activated {
        out.push(Violation {
            invariant: "I7-activated",
            detail: format!(
                "activated {} != completed {} + activated-dormant {dormant_activated}",
                e.epochs_activated, e.epochs_completed
            ),
        });
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
    for (req, ev) in &report.req_events {
        match ev {
            ReqEvent::Alloc(_) => {
                if state.insert(req.0, St::Pending).is_some() {
                    out.push(Violation {
                        invariant: "I6-realloc",
                        detail: format!("request {req:?} allocated twice"),
                    });
                }
            }
            ReqEvent::Complete => match state.get_mut(&req.0) {
                Some(st @ St::Pending) => *st = St::Done,
                other => {
                    out.push(Violation {
                        invariant: "I6-complete",
                        detail: format!(
                            "request {req:?} completed while {}",
                            match other {
                                None => "never allocated",
                                Some(St::Done) => "already complete",
                                _ => "already consumed",
                            }
                        ),
                    });
                }
            },
            ReqEvent::Consume => match state.get_mut(&req.0) {
                Some(st @ St::Done) => *st = St::Consumed,
                other => {
                    out.push(Violation {
                        invariant: "I6-consume",
                        detail: format!(
                            "request {req:?} consumed while {}",
                            match other {
                                None => "never allocated",
                                Some(St::Pending) => "still pending (test/wait is the only \
                                                     legal completion point)",
                                _ => "already consumed",
                            }
                        ),
                    });
                }
            },
        }
    }
    if report.live_requests != 0 {
        out.push(Violation {
            invariant: "I6-leak",
            detail: format!("{} requests still live after the job", report.live_requests),
        });
    }
}

fn audit_conservation(report: &JobReport, out: &mut Vec<Violation>) {
    let e = &report.engine;
    if e.epochs_opened != e.epochs_completed + e.dormant_retired {
        out.push(Violation {
            invariant: "I7-balance",
            detail: format!(
                "opened {} != completed {} + dormant {}",
                e.epochs_opened, e.epochs_completed, e.dormant_retired
            ),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{generate, Family};
    use crate::run::{execute, RunSpec};
    use mpisim_core::SyncStrategy;

    /// Clean runs break no invariant, and every send of their sync trace
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
                assert!(!out.report.sync_trace.is_empty(), "sync trace must be recorded");
                let mut fold = SyncFold::default();
                for r in &out.report.sync_trace {
                    fold.step(r, || ());
                }
                assert_eq!(fold.pending(), 0, "{tag}: sends never applied");
            }
        }
    }

    #[test]
    fn doctored_trace_trips_the_grant_auditor() {
        let p = generate(Family::MixedSerial, 1);
        let mut out = execute(&p, &RunSpec::baseline(SyncStrategy::Redesigned, false)).unwrap();
        // Forge a duplicate of the first grant send: I1 must object.
        let Some(first) = out
            .report
            .sync_trace
            .iter()
            .find(|r| matches!(r.event, SyncEvent::GrantSent { .. }))
            .copied()
        else {
            panic!("expected at least one grant in the trace");
        };
        out.report.sync_trace.push(first);
        let violations = audit(&out.report);
        assert!(
            violations.iter().any(|v| v.invariant == "I1-grant-seq"),
            "forged duplicate grant not caught: {violations:?}"
        );
    }
}
