//! Unit suite for the slack-guided IR rewriter: every relaxation kind is
//! exercised in isolation, and each is proven *syntactically idempotent*
//! — `rewrite(rewrite(p)) == rewrite(p)` — so the fixpoint the rewriter
//! reaches is stable under re-analysis.
//!
//! The companion end-to-end property (rewritten programs stay E-clean,
//! reproduce the original byte-for-byte, and strictly reduce blocked
//! host steps) lives in `mpisim-check::crossval::crossval_rewrites`.

use mpisim_analyze::{
    analyze, analyze_slack, cases, rewrite, rewrite_with, rewrite_with_model, Case, Close, Code,
    CostModel, Expect, IrProgram, RewriteMode, SlackClass, Stmt,
};

const WIN: usize = 64;

/// Count blocking sync closes + barriers: the quantity every sound
/// rewrite pass must strictly decrease (or keep, when inserting waits
/// for safety — never increase).
fn blocking_syncs(p: &IrProgram) -> usize {
    p.ranks
        .iter()
        .flatten()
        .filter(|s| match s {
            Stmt::Fence { close, .. }
            | Stmt::Complete { close, .. }
            | Stmt::WaitEpoch { close, .. }
            | Stmt::Unlock { close, .. }
            | Stmt::UnlockAll { close, .. }
            | Stmt::Flush { close, .. } => close.is_blocking(),
            _ => false,
        })
        .count()
}

fn assert_idempotent(p: &IrProgram) {
    let once = rewrite(p);
    let twice = rewrite(&once.0);
    assert_eq!(once.0, twice.0, "rewrite must be a fixpoint");
    assert!(!twice.1.changed(), "second rewrite must be a no-op: {:?}", twice.1);
}

// ------------------------------------------------- per-relaxation kinds

#[test]
fn fence_close_is_relaxed_to_nonblocking() {
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Fence { win: 0, close: Close::Blocking },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Fence { win: 0, close: Close::Blocking },
        Stmt::Barrier,
    ]);
    p.ranks[1].extend([
        Stmt::Fence { win: 0, close: Close::Blocking },
        Stmt::Fence { win: 0, close: Close::Blocking },
        Stmt::Barrier,
    ]);
    let (rw, rep) = rewrite(&p);
    assert!(rep.relaxed > 0, "{rep:?}");
    assert!(blocking_syncs(&rw) < blocking_syncs(&p));
    assert!(matches!(rw.ranks[0][2], Stmt::Fence { close: Close::Nonblocking, .. }));
    assert!(analyze(&rw).is_empty(), "relaxed program must stay E-clean");
    assert_idempotent(&p);
}

#[test]
fn redundant_flush_is_elided() {
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Flush { win: 0, target: Some(1), local_only: false, close: Close::Blocking },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    let (rw, rep) = rewrite(&p);
    assert!(rep.elided > 0, "{rep:?}");
    assert!(
        !rw.ranks[0].iter().any(|s| matches!(s, Stmt::Flush { close: Close::Blocking, .. })),
        "{:?}",
        rw.ranks[0]
    );
    assert!(analyze(&rw).is_empty());
    assert_idempotent(&p);
}

#[test]
fn flush_carrying_local_requests_is_localized() {
    // A local-only iflush rides on the blocking flush: the flush cannot
    // vanish (the request must be discharged) but weakens to
    // flush_local.
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Flush { win: 0, target: Some(1), local_only: true, close: Close::Nonblocking },
        Stmt::Flush { win: 0, target: Some(1), local_only: false, close: Close::Blocking },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    let (rw, rep) = rewrite(&p);
    assert!(rep.localized > 0, "{rep:?}");
    assert!(
        rw.ranks[0]
            .iter()
            .any(|s| matches!(s, Stmt::Flush { local_only: true, close: Close::Blocking, .. })),
        "{:?}",
        rw.ranks[0]
    );
    assert!(analyze(&rw).is_empty());
    assert_idempotent(&p);
}

#[test]
fn unlock_relaxation_inserts_wait_before_dependent_use() {
    // The unlock's put is consumed by a later Get on the same rank with
    // slack in between (the disjoint puts of the second epoch are
    // overlap room the cost model prices in): the rewriter flips the
    // unlock nonblocking and plants a WaitAll at the latest safe point
    // before the Get.
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
        Stmt::Lock { win: 0, target: 1, exclusive: false, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 32, len: 8 },
        Stmt::Put { win: 0, target: 1, disp: 40, len: 8 },
        Stmt::Get { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    let (rw, rep) = rewrite(&p);
    assert!(rep.relaxed > 0, "{rep:?}");
    assert!(rep.waits_inserted > 0, "{rep:?}");
    let wait_at = rw.ranks[0].iter().position(|s| matches!(s, Stmt::WaitAll));
    let get_at = rw.ranks[0]
        .iter()
        .position(|s| matches!(s, Stmt::Get { .. }))
        .expect("get survives");
    assert!(wait_at.is_some_and(|w| w < get_at), "{:?}", rw.ranks[0]);
    assert!(analyze(&rw).is_empty());
    assert_idempotent(&p);
}

#[test]
fn eop_deferred_findings_get_one_trailing_wait() {
    // The relaxed fence's request has no dependent use at all: the
    // rewriter parks completion in a single trailing WaitAll so the
    // program stays E008-clean.
    let mut p = IrProgram::new(2, WIN);
    for r in 0..2 {
        p.ranks[r].extend([
            Stmt::Fence { win: 0, close: Close::Blocking },
            Stmt::Fence { win: 0, close: Close::Blocking },
            Stmt::Barrier,
        ]);
    }
    p.ranks[0].insert(1, Stmt::Put { win: 0, target: 1, disp: 0, len: 8 });
    let (rw, rep) = rewrite(&p);
    assert!(rep.relaxed > 0, "{rep:?}");
    for r in 0..2 {
        let waits = rw.ranks[r].iter().filter(|s| matches!(s, Stmt::WaitAll)).count();
        let open = rw.ranks[r]
            .iter()
            .filter(|s| match s {
                Stmt::Fence { close, .. } => !close.is_blocking(),
                _ => false,
            })
            .count();
        assert!(open == 0 || waits > 0, "rank {r} leaks requests: {:?}", rw.ranks[r]);
    }
    assert!(analyze(&rw).is_empty());
    assert_idempotent(&p);
}

// ------------------------------------------------------- cost model

#[test]
fn unprofitable_relaxation_is_skipped_but_advisory_still_fires() {
    // One statement of slack between the unlock and its dependent Get:
    // the overlap the relaxation could reclaim cannot pay for the
    // request bookkeeping plus the inserted wait, so the calibrated
    // cost model vetoes the rewrite — but the slack pass still reports
    // the latent relaxable finding.
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
        Stmt::Lock { win: 0, target: 1, exclusive: false, nonblocking: false },
        Stmt::Get { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    let slack = analyze_slack(&p);
    assert!(
        slack.findings.iter().any(|f| f.class == SlackClass::Relaxable),
        "the advisory must still fire: {:?}",
        slack.findings
    );
    let (rw, rep) = rewrite(&p);
    assert_eq!(rep.relaxed, 0, "{rep:?}");
    assert!(rep.skipped > 0, "{rep:?}");
    assert_eq!(rw, p, "vetoed program must be untouched");
    // The veto is the cost model's, not the classifier's: pricing the
    // same relaxation as free applies it.
    let (free, frep) = rewrite_with_model(&p, RewriteMode::Sound, &CostModel::free());
    assert!(frep.relaxed > 0, "{frep:?}");
    assert_eq!(frep.skipped, 0, "{frep:?}");
    assert!(analyze(&free).is_empty());
}

#[test]
fn contended_exclusive_unlock_is_never_relaxed() {
    // Two origins exclusively lock the same target: relaxing either
    // unlock defers the release the other's acquire is waiting on, so
    // the structural contention veto declines both — even under the
    // free cost model, which prices every relaxation as profitable.
    let contended = |exclusive: bool| {
        let mut p = IrProgram::new(3, WIN);
        for me in 0..2usize {
            p.ranks[me].extend([
                Stmt::Lock { win: 0, target: 2, exclusive, nonblocking: false },
                Stmt::Put { win: 0, target: 2, disp: me * 8, len: 8 },
                Stmt::Unlock { win: 0, target: 2, close: Close::Blocking },
                Stmt::Barrier,
            ]);
        }
        p.ranks[2].push(Stmt::Barrier);
        p
    };
    let p = contended(true);
    assert!(analyze(&p).is_empty());
    let (rw, rep) = rewrite_with_model(&p, RewriteMode::Sound, &CostModel::free());
    assert_eq!(rep.relaxed, 0, "{rep:?}");
    assert!(rep.skipped >= 2, "{rep:?}");
    assert_eq!(rw, p, "vetoed program must be untouched");
    // Shared/shared contention on the same target is no contention at
    // all — concurrent shared locks never wait on each other — so the
    // identical shape with shared locks relaxes both unlocks.
    let p = contended(false);
    let (rw, rep) = rewrite(&p);
    assert!(rep.relaxed >= 2, "{rep:?}");
    assert!(analyze(&rw).is_empty());
    assert_idempotent(&p);
}

#[test]
fn overwide_start_group_is_shrunk_symmetrically() {
    // The W004 shape: rank 0's start group names rank 2 but the epoch
    // only operates toward rank 1. The rewriter drops rank 2 from the
    // start group AND rank 0 from rank 2's matching post group, keeping
    // the GATS pairing aligned.
    let mut p = IrProgram::new(3, WIN);
    p.ranks[0].extend([
        Stmt::Start { win: 0, group: vec![1, 2] },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Complete { win: 0, close: Close::Blocking },
    ]);
    for r in 1..3 {
        p.ranks[r].extend([
            Stmt::Post { win: 0, group: vec![0] },
            Stmt::WaitEpoch { win: 0, close: Close::Blocking },
        ]);
    }
    assert!(analyze(&p).is_empty());
    let (rw, rep) = rewrite(&p);
    assert!(rep.shrunk > 0, "{rep:?}");
    assert!(
        matches!(&rw.ranks[0][0], Stmt::Start { group, .. } if group.as_slice() == [1]),
        "{:?}",
        rw.ranks[0]
    );
    assert!(
        matches!(&rw.ranks[2][0], Stmt::Post { group, .. } if group.is_empty()),
        "{:?}",
        rw.ranks[2]
    );
    assert!(analyze(&rw).is_empty(), "shrunk program must stay E-clean");
    assert_idempotent(&p);
}

#[test]
fn shrink_never_prunes_iflush_discharging_waits() {
    // Group shrinking must not disturb the flush-discharge chain: an
    // iflush whose request parks at a WaitAll stays exactly where it is
    // while the over-wide group shrinks around it.
    let mut p = IrProgram::new(3, WIN);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Flush { win: 0, target: Some(1), local_only: false, close: Close::Nonblocking },
        Stmt::WaitAll,
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
        Stmt::Start { win: 0, group: vec![1, 2] },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Complete { win: 0, close: Close::Blocking },
    ]);
    for r in 1..3 {
        p.ranks[r].extend([
            Stmt::Post { win: 0, group: vec![0] },
            Stmt::WaitEpoch { win: 0, close: Close::Blocking },
        ]);
    }
    assert!(analyze(&p).is_empty());
    let (rw, rep) = rewrite(&p);
    assert!(rep.shrunk > 0, "{rep:?}");
    let iflushes = |q: &IrProgram| {
        q.ranks[0]
            .iter()
            .filter(|s| matches!(s, Stmt::Flush { close: Close::Nonblocking, .. }))
            .count()
    };
    assert_eq!(iflushes(&rw), iflushes(&p), "iflush must survive: {:?}", rw.ranks[0]);
    assert!(
        rw.ranks[0].iter().any(|s| matches!(s, Stmt::WaitAll)),
        "discharging wait must survive: {:?}",
        rw.ranks[0]
    );
    assert!(analyze(&rw).is_empty());
    assert_idempotent(&p);
}

// ---------------------------------------------------- negative space

#[test]
fn reorder_pinned_program_is_untouched() {
    // Symmetric conflicting fence/put phases under `reorder`: every sync
    // is pinned Required, so the rewriter must not change a thing.
    let mut p = IrProgram::new(2, WIN);
    p.reorder = true;
    for me in 0..2 {
        let peer = 1 - me;
        p.ranks[me].extend([
            Stmt::Fence { win: 0, close: Close::Blocking },
            Stmt::Put { win: 0, target: peer, disp: 0, len: 8 },
            Stmt::Fence { win: 0, close: Close::Blocking },
            Stmt::Put { win: 0, target: peer, disp: 0, len: 8 },
            Stmt::Fence { win: 0, close: Close::Blocking },
            Stmt::Barrier,
        ]);
    }
    assert!(analyze(&p).is_empty());
    let (rw, rep) = rewrite(&p);
    assert!(!rep.changed(), "{rep:?}");
    assert_eq!(rw, p);
}

#[test]
fn already_relaxed_program_is_a_fixpoint() {
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Fence { win: 0, close: Close::Blocking },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Fence { win: 0, close: Close::Nonblocking },
        Stmt::WaitAll,
        Stmt::Barrier,
    ]);
    p.ranks[1].extend([
        Stmt::Fence { win: 0, close: Close::Blocking },
        Stmt::Fence { win: 0, close: Close::Blocking },
        Stmt::Barrier,
    ]);
    // Rank 1's dormant second fence may still relax, but rank 0's
    // already-nonblocking close must never be touched again.
    let (rw, _) = rewrite(&p);
    assert!(matches!(rw.ranks[0][2], Stmt::Fence { close: Close::Nonblocking, .. }));
    assert_idempotent(&p);
}

// -------------------------------------------------- catalog properties

/// The verdict table's W-code rows: one E-clean program per advisory code.
fn w_rows() -> impl Iterator<Item = Case> {
    cases()
        .into_iter()
        .filter(|c| matches!(c.expect, Expect::Flags(code) if Code::ADVISORY.contains(&code)))
}

#[test]
fn slack_catalog_rewrites_are_clean_and_idempotent() {
    for Case { name: code, program: p, .. } in w_rows() {
        assert!(analyze(&p).is_empty(), "{code}: catalog case must start E-clean");
        let (rw, _rep) = rewrite(&p);
        assert!(analyze(&rw).is_empty(), "{code}: rewrite broke E-cleanliness");
        assert!(
            blocking_syncs(&rw) <= blocking_syncs(&p),
            "{code}: rewrite increased blocking syncs"
        );
        assert_idempotent(&p);
    }
}

#[test]
fn rewritten_programs_carry_no_advisories_left_behind() {
    // After the fixpoint, re-running the slack pass must find nothing
    // actionable: every remaining finding is Required.
    for Case { name: code, program: p, .. } in w_rows() {
        let (rw, _) = rewrite(&p);
        let report = analyze_slack(&rw);
        assert!(
            report.findings.iter().all(|f| f.class == mpisim_analyze::SlackClass::Required),
            "{code}: leftover slack after rewrite: {:?}",
            report.findings
        );
    }
}

// ----------------------------------------------------- planted unsound

#[test]
fn plant_unsound_deletes_exactly_one_sync() {
    let mut p = IrProgram::new(2, WIN);
    for r in 0..2 {
        p.ranks[r].extend([
            Stmt::Fence { win: 0, close: Close::Blocking },
            Stmt::Fence { win: 0, close: Close::Blocking },
        ]);
    }
    p.ranks[0].insert(1, Stmt::Put { win: 0, target: 1, disp: 0, len: 8 });
    let (sound, _) = rewrite_with(&p, RewriteMode::Sound);
    let (planted, rep) = rewrite_with(&p, RewriteMode::PlantUnsound);
    let (rank, _step) = rep.planted.expect("a victim sync must be recorded");
    assert_eq!(rank, 0);
    let total = |q: &IrProgram| q.ranks.iter().map(|r| r.len()).sum::<usize>();
    assert_eq!(total(&planted) + 1, total(&sound), "exactly one statement deleted");
}

#[test]
fn plant_unsound_falls_back_to_barrier() {
    // No fences anywhere: the planter's fallback chain picks rank 0's
    // barrier.
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
        Stmt::Barrier,
    ]);
    p.ranks[1].push(Stmt::Barrier);
    let (planted, rep) = rewrite_with(&p, RewriteMode::PlantUnsound);
    assert!(rep.planted.is_some());
    assert!(
        !planted.ranks[0].iter().any(|s| matches!(s, Stmt::Barrier)),
        "{:?}",
        planted.ranks[0]
    );
}
