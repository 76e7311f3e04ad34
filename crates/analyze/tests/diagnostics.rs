//! One minimal positive program and one near-miss negative program per
//! diagnostic code E001–E011, plus direct vector-clock race-detector
//! checks over synthetic sync traces.
//!
//! "Near-miss" means the negative differs from the positive by the
//! smallest edit that makes it legal — the analyzer must report nothing
//! at all for it.

use mpisim_analyze::{
    analyze, analyze_slack, detect_races_in, has_code, interpret, rewrite, Close, Code, FetchKind,
    IrProgram, SlackClass, Stmt,
};
use mpisim_core::trace::{AccessKind, Plane, SyncEvent, TraceEvent, TraceRecord};
use mpisim_core::{JobConfig, Rank, ReduceOp, WinId};

const WIN: usize = 64;

fn fence_all(p: &mut IrProgram, close: Close) {
    for r in 0..p.n_ranks {
        p.ranks[r].push(Stmt::Fence { win: 0, close });
    }
}

fn assert_clean(p: &IrProgram) {
    let diags = analyze(p);
    assert!(diags.is_empty(), "expected no diagnostics, got: {diags:?}");
}

// ---------------------------------------------------------------- E001

#[test]
fn e001_op_outside_epoch() {
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].push(Stmt::Put { win: 0, target: 1, disp: 0, len: 8 });
    assert!(has_code(&analyze(&p), Code::E001));
}

#[test]
fn e001_near_miss_op_inside_lock() {
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    assert_clean(&p);
}

// ---------------------------------------------------------------- E002

#[test]
fn e002_target_outside_start_group() {
    let mut p = IrProgram::new(3, WIN);
    p.ranks[0].extend([
        Stmt::Start { win: 0, group: vec![1] },
        Stmt::Put { win: 0, target: 2, disp: 0, len: 8 },
        Stmt::Complete { win: 0, close: Close::Blocking },
    ]);
    p.ranks[1].extend([Stmt::Post { win: 0, group: vec![0] }, Stmt::WaitEpoch { win: 0, close: Close::Blocking }]);
    assert!(has_code(&analyze(&p), Code::E002));
}

#[test]
fn e002_near_miss_target_in_group() {
    let mut p = IrProgram::new(3, WIN);
    p.ranks[0].extend([
        Stmt::Start { win: 0, group: vec![1, 2] },
        Stmt::Put { win: 0, target: 2, disp: 0, len: 8 },
        Stmt::Complete { win: 0, close: Close::Blocking },
    ]);
    for r in 1..3 {
        p.ranks[r].extend([Stmt::Post { win: 0, group: vec![0] }, Stmt::WaitEpoch { win: 0, close: Close::Blocking }]);
    }
    assert_clean(&p);
}

// ---------------------------------------------------------------- E003

#[test]
fn e003_lock_never_unlocked() {
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
    ]);
    assert!(has_code(&analyze(&p), Code::E003));
}

#[test]
fn e003_near_miss_lock_unlocked() {
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    assert_clean(&p);
}

// ---------------------------------------------------------------- E004

#[test]
fn e004_unlock_without_lock() {
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].push(Stmt::Unlock { win: 0, target: 1, close: Close::Blocking });
    assert!(has_code(&analyze(&p), Code::E004));
}

#[test]
fn e004_near_miss_matched_unlock() {
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: false, nonblocking: false },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    assert_clean(&p);
}

// ---------------------------------------------------------------- E005

#[test]
fn e005_lock_all_inside_start_epoch() {
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Start { win: 0, group: vec![1] },
        Stmt::LockAll { win: 0, nonblocking: false },
        Stmt::UnlockAll { win: 0, close: Close::Blocking },
        Stmt::Complete { win: 0, close: Close::Blocking },
    ]);
    p.ranks[1].extend([Stmt::Post { win: 0, group: vec![0] }, Stmt::WaitEpoch { win: 0, close: Close::Blocking }]);
    assert!(has_code(&analyze(&p), Code::E005));
}

#[test]
fn e005_near_miss_dormant_trailing_fence() {
    // A trailing fence phase with no operations is dormant; the engine
    // (and thus the analyzer) tolerates opening a lock epoch under it.
    let mut p = IrProgram::new(2, WIN);
    fence_all(&mut p, Close::Blocking);
    fence_all(&mut p, Close::Blocking);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    assert_clean(&p);
}

// ---------------------------------------------------------------- E006

#[test]
fn e006_overlapping_cross_origin_puts() {
    let mut p = IrProgram::new(3, WIN);
    fence_all(&mut p, Close::Blocking);
    p.ranks[1].push(Stmt::Put { win: 0, target: 0, disp: 0, len: 8 });
    p.ranks[2].push(Stmt::Put { win: 0, target: 0, disp: 4, len: 8 });
    fence_all(&mut p, Close::Blocking);
    assert!(has_code(&analyze(&p), Code::E006));
}

#[test]
fn e006_near_miss_disjoint_puts() {
    let mut p = IrProgram::new(3, WIN);
    fence_all(&mut p, Close::Blocking);
    p.ranks[1].push(Stmt::Put { win: 0, target: 0, disp: 0, len: 8 });
    p.ranks[2].push(Stmt::Put { win: 0, target: 0, disp: 8, len: 8 });
    fence_all(&mut p, Close::Blocking);
    assert_clean(&p);
}

// ---------------------------------------------------------------- E007

#[test]
fn e007_put_get_overlap() {
    let mut p = IrProgram::new(3, WIN);
    fence_all(&mut p, Close::Blocking);
    p.ranks[1].push(Stmt::Put { win: 0, target: 0, disp: 0, len: 8 });
    p.ranks[2].push(Stmt::Get { win: 0, target: 0, disp: 4, len: 8 });
    fence_all(&mut p, Close::Blocking);
    assert!(has_code(&analyze(&p), Code::E007));
}

#[test]
fn e007_near_miss_get_get_overlap() {
    // Two overlapping reads never conflict.
    let mut p = IrProgram::new(3, WIN);
    fence_all(&mut p, Close::Blocking);
    p.ranks[1].push(Stmt::Get { win: 0, target: 0, disp: 0, len: 8 });
    p.ranks[2].push(Stmt::Get { win: 0, target: 0, disp: 4, len: 8 });
    fence_all(&mut p, Close::Blocking);
    assert_clean(&p);
}

// ---------------------------------------------------------------- E008

#[test]
fn e008_leaked_ifence_request() {
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([Stmt::Fence { win: 0, close: Close::Blocking }, Stmt::Fence { win: 0, close: Close::Nonblocking }]);
    p.ranks[1].extend([Stmt::Fence { win: 0, close: Close::Blocking }, Stmt::Fence { win: 0, close: Close::Blocking }]);
    assert!(has_code(&analyze(&p), Code::E008));
}

#[test]
fn e008_near_miss_request_waited() {
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Fence { win: 0, close: Close::Blocking },
        Stmt::Fence { win: 0, close: Close::Nonblocking },
        Stmt::WaitAll,
    ]);
    p.ranks[1].extend([Stmt::Fence { win: 0, close: Close::Blocking }, Stmt::Fence { win: 0, close: Close::Blocking }]);
    assert_clean(&p);
}

// ---------------------------------------------------------------- E009

fn reordered_fence_phases(second_disp: usize) -> IrProgram {
    let mut p = IrProgram::new(2, WIN);
    p.reorder = true;
    p.unsafe_fence_reorder = true;
    p.ranks[0].extend([
        Stmt::Fence { win: 0, close: Close::Blocking },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Fence { win: 0, close: Close::Nonblocking },
        Stmt::Put { win: 0, target: 1, disp: second_disp, len: 8 },
        Stmt::Fence { win: 0, close: Close::Nonblocking },
        Stmt::WaitAll,
    ]);
    p.ranks[1].extend([
        Stmt::Fence { win: 0, close: Close::Blocking },
        Stmt::Fence { win: 0, close: Close::Blocking },
        Stmt::Fence { win: 0, close: Close::Blocking },
    ]);
    p
}

#[test]
fn e009_conflicting_reordered_fence_phases() {
    // unsafe_fence_reorder lets adjacent fence phases progress
    // concurrently; writing the same bytes in both is schedule-dependent.
    assert!(has_code(&analyze(&reordered_fence_phases(0)), Code::E009));
}

#[test]
fn e009_near_miss_disjoint_reordered_phases() {
    assert_clean(&reordered_fence_phases(8));
}

#[test]
fn e009_near_miss_no_reorder_flags() {
    let mut p = reordered_fence_phases(0);
    p.reorder = false;
    p.unsafe_fence_reorder = false;
    assert_clean(&p);
}

/// E009's regions are the engine's activation rule, and the interpreter
/// runs the program under the info the walk read: with the fence
/// extension, the fence phases after a nonblocking fence activate while
/// the phase before them still completes; without it, they wait.
#[test]
fn e009_regions_are_the_activation_rule_the_run_obeys() {
    let deferred = |ext: bool| {
        let mut p = reordered_fence_phases(8);
        p.unsafe_fence_reorder = ext;
        interpret(JobConfig::new(2), &p).unwrap().report.engine.epochs_deferred
    };
    let (with, without) = (deferred(true), deferred(false));
    assert!(with < without, "epochs deferred: {with} with the extension, {without} without");
}

// ---------------------------------------------------------------- E010

#[test]
fn e010_put_past_window_end() {
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: WIN - 4, len: 8 },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    assert!(has_code(&analyze(&p), Code::E010));
}

#[test]
fn e010_near_miss_put_to_window_end() {
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: WIN - 8, len: 8 },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    assert_clean(&p);
}

/// `disp + len` past `usize::MAX` is out of bounds like any other: it must
/// neither wrap below the window size nor overflow, in any pass.
#[test]
fn e010_displacement_overflow_is_out_of_bounds() {
    let mut p = IrProgram::new(2, WIN);
    fence_all(&mut p, Close::Blocking);
    p.ranks[0].push(Stmt::Put { win: 0, target: 1, disp: usize::MAX, len: 2 });
    fence_all(&mut p, Close::Blocking);
    let value_read =
        Stmt::ReadValue { win: 0, target: 1, disp: usize::MAX - 3, kind: FetchKind::Get, local: 0 };
    for stmt in [p.ranks[0][1].clone(), value_read] {
        p.ranks[0][1] = stmt;
        assert!(has_code(&analyze(&p), Code::E010), "{:?}", p.ranks[0][1]);
        analyze_slack(&p);
        rewrite(&p);
    }
}

// ---------------------------------------------------------------- E011

#[test]
fn e011_unequal_fence_counts() {
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([Stmt::Fence { win: 0, close: Close::Blocking }, Stmt::Fence { win: 0, close: Close::Blocking }]);
    p.ranks[1].push(Stmt::Fence { win: 0, close: Close::Blocking });
    assert!(has_code(&analyze(&p), Code::E011));
}

#[test]
fn e011_start_without_matching_post() {
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([Stmt::Start { win: 0, group: vec![1] }, Stmt::Complete { win: 0, close: Close::Blocking }]);
    assert!(has_code(&analyze(&p), Code::E011));
}

#[test]
fn e011_near_miss_matched_collectives() {
    let mut p = IrProgram::new(2, WIN);
    fence_all(&mut p, Close::Blocking);
    fence_all(&mut p, Close::Blocking);
    p.ranks[0].extend([Stmt::Start { win: 0, group: vec![1] }, Stmt::Complete { win: 0, close: Close::Blocking }]);
    p.ranks[1].extend([Stmt::Post { win: 0, group: vec![0] }, Stmt::WaitEpoch { win: 0, close: Close::Blocking }]);
    assert_clean(&p);
}

// ------------------------------------------------- accumulate semantics

#[test]
fn same_op_accumulates_do_not_conflict() {
    let mut p = IrProgram::new(3, WIN);
    fence_all(&mut p, Close::Blocking);
    p.ranks[1].push(Stmt::Acc { win: 0, target: 0, disp: 0, len: 8, op: ReduceOp::Sum });
    p.ranks[2].push(Stmt::Acc { win: 0, target: 0, disp: 0, len: 8, op: ReduceOp::Sum });
    fence_all(&mut p, Close::Blocking);
    assert_clean(&p);
}

#[test]
fn mixed_op_accumulates_conflict() {
    let mut p = IrProgram::new(3, WIN);
    fence_all(&mut p, Close::Blocking);
    p.ranks[1].push(Stmt::Acc { win: 0, target: 0, disp: 0, len: 8, op: ReduceOp::Sum });
    p.ranks[2].push(Stmt::Acc { win: 0, target: 0, disp: 0, len: 8, op: ReduceOp::Prod });
    fence_all(&mut p, Close::Blocking);
    assert!(has_code(&analyze(&p), Code::E006));
}

// ------------------------------------- E012: unguarded remote dependency

#[test]
fn e012_start_toward_crashed_peer() {
    let mut p = IrProgram::new(3, WIN);
    p.crashed = vec![2];
    p.ranks[0].extend([
        Stmt::Start { win: 0, group: vec![1, 2] },
        Stmt::Put { win: 0, target: 2, disp: 0, len: 8 },
        Stmt::Complete { win: 0, close: Close::Blocking },
    ]);
    for r in 1..3 {
        p.ranks[r].extend([Stmt::Post { win: 0, group: vec![0] }, Stmt::WaitEpoch { win: 0, close: Close::Blocking }]);
    }
    assert!(has_code(&analyze(&p), Code::E012));
}

#[test]
fn e012_lock_on_crashed_peer() {
    let mut p = IrProgram::new(3, WIN);
    p.crashed = vec![1];
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    assert!(has_code(&analyze(&p), Code::E012));
}

#[test]
fn e012_not_reported_when_dependencies_avoid_the_crash() {
    // Rank 2 crashes, but nothing a surviving rank does waits on it:
    // rank 0's whole epoch structure points at rank 1.
    let mut p = IrProgram::new(3, WIN);
    p.crashed = vec![2];
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    assert!(!has_code(&analyze(&p), Code::E012));
}

#[test]
fn e012_relaxed_for_recovered_peer() {
    // Same dependency as `e012_lock_on_crashed_peer`, but the fault model
    // also restarts the victim from its checkpoint: the grant arrives
    // after the bounded outage, so the rule is relaxed.
    let mut p = IrProgram::new(3, WIN);
    p.crashed = vec![1];
    p.recovered = vec![1];
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    assert!(!has_code(&analyze(&p), Code::E012));
}

#[test]
fn e012_relaxation_is_per_rank() {
    // Two crashed peers, one recovered: only the dependency on the
    // unrecovered one is a hazard.
    let mut p = IrProgram::new(4, WIN);
    p.crashed = vec![1, 2];
    p.recovered = vec![2];
    for target in [1usize, 2] {
        p.ranks[0].extend([
            Stmt::Lock { win: 0, target, exclusive: true, nonblocking: false },
            Stmt::Put { win: 0, target, disp: 0, len: 8 },
            Stmt::Unlock { win: 0, target, close: Close::Blocking },
        ]);
    }
    let diags = analyze(&p);
    let e012: Vec<_> = diags.iter().filter(|d| d.code == Code::E012).collect();
    assert!(!e012.is_empty(), "the unrecovered crash must still be flagged");
    assert!(e012.iter().all(|d| d.detail.contains("rank 1")), "{e012:?}");
}

#[test]
fn e012_relaxed_collective_with_recovered_participant() {
    // A barrier/fence with a crashed participant is fatal — unless that
    // participant restarts and rejoins the collective.
    let mut p = IrProgram::new(3, WIN);
    p.crashed = vec![2];
    for r in 0..3 {
        p.ranks[r].push(Stmt::Barrier);
    }
    assert!(has_code(&analyze(&p), Code::E012));
    p.recovered = vec![2];
    assert!(!has_code(&analyze(&p), Code::E012));
}

#[test]
fn e012_crashed_ranks_own_program_is_not_flagged() {
    // The crashed rank's own dangling dependencies are the fault model's
    // doing, not the program's.
    let mut p = IrProgram::new(3, WIN);
    p.crashed = vec![0];
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    assert!(!has_code(&analyze(&p), Code::E012));
}

// ----------------------------------------------- negative-corpus sweep

#[test]
fn negative_corpus_fully_flagged() {
    use mpisim_analyze::{analyze as run, generate_negative, NegFamily};
    for family in NegFamily::ALL {
        for index in 0..32 {
            let case = generate_negative(family, index);
            let diags = run(&case.program);
            assert!(
                has_code(&diags, case.expect),
                "{family:?} seed {index} not flagged with {}: {diags:?}",
                case.expect
            );
        }
    }
}

#[test]
fn catalog_cases_cover_every_code() {
    use mpisim_analyze::catalog_cases;
    let cases = catalog_cases();
    for code in Code::ALL {
        let covered = cases
            .iter()
            .any(|(c, p)| *c == code && has_code(&analyze(p), code));
        assert!(covered, "no catalog case triggers {code}");
    }
}

// ---------------------------------------------------------------- E013

#[test]
fn e013_pscw_start_cycle() {
    // Both ranks start toward each other before either posts: each
    // blocking Complete waits for a grant the peer can only send after
    // its own Complete — a cross-rank cycle.
    let mut p = IrProgram::new(2, WIN);
    for (me, peer) in [(0usize, 1usize), (1, 0)] {
        p.ranks[me].extend([
            Stmt::Start { win: 0, group: vec![peer] },
            Stmt::Put { win: 0, target: peer, disp: 0, len: 8 },
            Stmt::Complete { win: 0, close: Close::Blocking },
            Stmt::Post { win: 0, group: vec![peer] },
            Stmt::WaitEpoch { win: 0, close: Close::Blocking },
        ]);
    }
    let diags = analyze(&p);
    assert!(has_code(&diags, Code::E013), "{diags:?}");
    let d = diags.iter().find(|d| d.code == Code::E013).unwrap();
    assert!(d.detail.contains("rank 0") && d.detail.contains("rank 1"), "{d:?}");
}

#[test]
fn e013_near_miss_post_before_start() {
    // Same statements, but each rank posts before starting: grants are
    // available up front and every wait can complete.
    let mut p = IrProgram::new(2, WIN);
    for (me, peer) in [(0usize, 1usize), (1, 0)] {
        p.ranks[me].extend([
            Stmt::Post { win: 0, group: vec![peer] },
            Stmt::Start { win: 0, group: vec![peer] },
            Stmt::Put { win: 0, target: peer, disp: 0, len: 8 },
            Stmt::Complete { win: 0, close: Close::Blocking },
            Stmt::WaitEpoch { win: 0, close: Close::Blocking },
        ]);
    }
    assert_clean(&p);
}

// ---------------------------------------------------------------- E014

#[test]
fn e014_lock_order_inversion() {
    // Rank 0 acquires locks (win 0, rank 1) then (win 0, rank 2);
    // rank 1 acquires them in the opposite order. A blocking flush
    // while holding the first lock pins each rank inside its epoch.
    let mut p = IrProgram::new(3, WIN);
    for (me, first, second) in [(0usize, 1usize, 2usize), (1, 2, 1)] {
        p.ranks[me].extend([
            Stmt::Lock { win: 0, target: first, exclusive: true, nonblocking: false },
            Stmt::Put { win: 0, target: first, disp: 0, len: 8 },
            Stmt::Flush { win: 0, target: Some(first), local_only: false, close: Close::Blocking },
            Stmt::Lock { win: 0, target: second, exclusive: true, nonblocking: false },
            Stmt::Put { win: 0, target: second, disp: 8, len: 8 },
            Stmt::Unlock { win: 0, target: second, close: Close::Blocking },
            Stmt::Unlock { win: 0, target: first, close: Close::Blocking },
        ]);
    }
    assert!(has_code(&analyze(&p), Code::E014));
}

#[test]
fn e014_near_miss_consistent_order() {
    // Both ranks acquire in the same global order: no inversion.
    let mut p = IrProgram::new(3, WIN);
    for me in [0usize, 1] {
        p.ranks[me].extend([
            Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
            Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
            Stmt::Flush { win: 0, target: Some(1), local_only: false, close: Close::Blocking },
            Stmt::Lock { win: 0, target: 2, exclusive: true, nonblocking: false },
            Stmt::Put { win: 0, target: 2, disp: 8, len: 8 },
            Stmt::Unlock { win: 0, target: 2, close: Close::Blocking },
            Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
        ]);
    }
    assert_clean(&p);
}

#[test]
fn e014_near_miss_shared_locks_do_not_conflict() {
    // Opposite acquisition orders, but every lock is shared: grants
    // never exclude each other, so no deadlock and no report.
    let mut p = IrProgram::new(3, WIN);
    for (me, first, second) in [(0usize, 1usize, 2usize), (1, 2, 1)] {
        p.ranks[me].extend([
            Stmt::Lock { win: 0, target: first, exclusive: false, nonblocking: false },
            Stmt::Put { win: 0, target: first, disp: 0, len: 8 },
            Stmt::Flush { win: 0, target: Some(first), local_only: false, close: Close::Blocking },
            Stmt::Lock { win: 0, target: second, exclusive: false, nonblocking: false },
            Stmt::Put { win: 0, target: second, disp: 8, len: 8 },
            Stmt::Unlock { win: 0, target: second, close: Close::Blocking },
            Stmt::Unlock { win: 0, target: first, close: Close::Blocking },
        ]);
    }
    assert_clean(&p);
}

#[test]
fn e014_near_miss_flush_local_does_not_establish() {
    // The ABBA shape, but the in-epoch flush is `flush_local`: it
    // completes locally only, forces no lock acquisition (the epoch stays
    // lazily deferred, §VII.B), and so never pins the first hold — no
    // held→wanted edge, no inversion.
    let mut p = IrProgram::new(3, WIN);
    for (me, first, second) in [(0usize, 1usize, 2usize), (1, 2, 1)] {
        p.ranks[me].extend([
            Stmt::Lock { win: 0, target: first, exclusive: true, nonblocking: false },
            Stmt::Put { win: 0, target: first, disp: 0, len: 8 },
            Stmt::Flush { win: 0, target: Some(first), local_only: true, close: Close::Blocking },
            Stmt::Lock { win: 0, target: second, exclusive: true, nonblocking: false },
            Stmt::Put { win: 0, target: second, disp: 8, len: 8 },
            Stmt::Unlock { win: 0, target: second, close: Close::Blocking },
            Stmt::Unlock { win: 0, target: first, close: Close::Blocking },
        ]);
    }
    assert_clean(&p);
}

#[test]
fn e014_near_miss_unestablished_lazy_hold() {
    // Opposite acquisition orders with *no* flush at all: both first
    // locks are lazily held (acquisition deferred to the epoch's own
    // unlock), so while a rank blocks in its second epoch the first lock
    // is not actually granted anywhere — no ABBA.
    let mut p = IrProgram::new(3, WIN);
    for (me, first, second) in [(0usize, 1usize, 2usize), (1, 2, 1)] {
        p.ranks[me].extend([
            Stmt::Lock { win: 0, target: first, exclusive: true, nonblocking: false },
            Stmt::Put { win: 0, target: first, disp: 0, len: 8 },
            Stmt::Lock { win: 0, target: second, exclusive: true, nonblocking: false },
            Stmt::Put { win: 0, target: second, disp: 8, len: 8 },
            Stmt::Unlock { win: 0, target: second, close: Close::Blocking },
            Stmt::Unlock { win: 0, target: first, close: Close::Blocking },
        ]);
    }
    assert_clean(&p);
}

#[test]
fn e014_nonblocking_full_iflush_establishes_the_hold() {
    // A *nonblocking* full flush still forces acquisition of the covered
    // lazily-held lock (it initiates the grant request), so the ABBA
    // shape with iflush + a later blocking unlock is still an inversion.
    let mut p = IrProgram::new(3, WIN);
    for (me, first, second) in [(0usize, 1usize, 2usize), (1, 2, 1)] {
        p.ranks[me].extend([
            Stmt::Lock { win: 0, target: first, exclusive: true, nonblocking: false },
            Stmt::Put { win: 0, target: first, disp: 0, len: 8 },
            Stmt::Flush {
                win: 0,
                target: Some(first),
                local_only: false,
                close: Close::Nonblocking,
            },
            Stmt::Lock { win: 0, target: second, exclusive: true, nonblocking: false },
            Stmt::Put { win: 0, target: second, disp: 8, len: 8 },
            Stmt::Unlock { win: 0, target: second, close: Close::Blocking },
            Stmt::Unlock { win: 0, target: first, close: Close::Blocking },
            Stmt::WaitAll,
        ]);
    }
    assert!(has_code(&analyze(&p), Code::E014));
}

// ---------------------------------------------------------------- E015

#[test]
fn e015_start_without_exposure() {
    // Rank 0 starts toward rank 1, which never posts: the blocking
    // Complete waits on a grant that will never arrive.
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Start { win: 0, group: vec![1] },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Complete { win: 0, close: Close::Blocking },
    ]);
    assert!(has_code(&analyze(&p), Code::E015));
}

#[test]
fn e015_near_miss_matching_post() {
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Start { win: 0, group: vec![1] },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Complete { win: 0, close: Close::Blocking },
    ]);
    p.ranks[1].extend([
        Stmt::Post { win: 0, group: vec![0] },
        Stmt::WaitEpoch { win: 0, close: Close::Blocking },
    ]);
    assert_clean(&p);
}

#[test]
fn e015_post_without_completing_origin() {
    // Rank 1 exposes to rank 0 but rank 0 never starts/completes: the
    // blocking WaitEpoch waits on a done message that never comes.
    let mut p = IrProgram::new(2, WIN);
    p.ranks[1].extend([
        Stmt::Post { win: 0, group: vec![0] },
        Stmt::WaitEpoch { win: 0, close: Close::Blocking },
    ]);
    assert!(has_code(&analyze(&p), Code::E015));
}

// ---------------------------------------------------------------- E016

#[test]
fn e016_fence_participation_mismatch() {
    // Rank 0 calls a second fence that rank 1 never matches; the
    // fence plane is collective per window, so rank 0 blocks forever.
    let mut p = IrProgram::new(2, WIN);
    fence_all(&mut p, Close::Blocking);
    p.ranks[0].push(Stmt::Put { win: 0, target: 1, disp: 0, len: 8 });
    fence_all(&mut p, Close::Blocking);
    p.ranks[0].push(Stmt::Fence { win: 0, close: Close::Blocking });
    let diags = analyze(&p);
    assert!(has_code(&diags, Code::E016), "{diags:?}");
}

#[test]
fn e016_near_miss_equal_fence_counts() {
    let mut p = IrProgram::new(2, WIN);
    fence_all(&mut p, Close::Blocking);
    p.ranks[0].push(Stmt::Put { win: 0, target: 1, disp: 0, len: 8 });
    fence_all(&mut p, Close::Blocking);
    assert_clean(&p);
}

#[test]
fn e016_per_window_fence_planes_are_independent() {
    // Equal fence counts on each window individually — even though the
    // two windows' counts differ from each other — is legal.
    let mut p = IrProgram::new(2, WIN);
    let w1 = p.add_window(WIN);
    fence_all(&mut p, Close::Blocking);
    p.ranks[0].push(Stmt::Put { win: 0, target: 1, disp: 0, len: 8 });
    fence_all(&mut p, Close::Blocking);
    for r in 0..2 {
        p.ranks[r].push(Stmt::Fence { win: w1, close: Close::Blocking });
        p.ranks[r].push(Stmt::Fence { win: w1, close: Close::Blocking });
    }
    assert_clean(&p);
}

// ---------------------------------------------------------------- E017

#[test]
fn e017_wait_on_never_completing_request() {
    // The nonblocking Complete's request can never finish (no
    // exposure), so the WaitAll blocks forever — and unlike E015's
    // blocking form, the blame lands on the wait site.
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Start { win: 0, group: vec![1] },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Complete { win: 0, close: Close::Nonblocking },
        Stmt::WaitAll,
    ]);
    assert!(has_code(&analyze(&p), Code::E017));
}

#[test]
fn e017_near_miss_exposure_present() {
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Start { win: 0, group: vec![1] },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Complete { win: 0, close: Close::Nonblocking },
        Stmt::WaitAll,
    ]);
    p.ranks[1].extend([
        Stmt::Post { win: 0, group: vec![0] },
        Stmt::WaitEpoch { win: 0, close: Close::Blocking },
    ]);
    assert_clean(&p);
}

// ---------------------------------------------------------------- E018

/// Rank 0 spins on a fetched flag slot; rank 1 publishes `published`
/// into it with an atomic replace. The spin expects `expect`.
fn value_spin(published: u64, expect: u64) -> IrProgram {
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::LockAll { win: 0, nonblocking: false },
        Stmt::ReadValue { win: 0, target: 0, disp: 0, kind: FetchKind::FetchOp(ReduceOp::NoOp), local: 0 },
        Stmt::SpinUntil { local: 0, expect },
        Stmt::UnlockAll { win: 0, close: Close::Blocking },
    ]);
    p.ranks[1].extend([
        Stmt::Lock { win: 0, target: 0, exclusive: false, nonblocking: false },
        Stmt::AccVal { win: 0, target: 0, disp: 0, op: ReduceOp::Replace, val: published },
        Stmt::Unlock { win: 0, target: 0, close: Close::Blocking },
    ]);
    p
}

#[test]
fn e018_spin_on_unwritable_value() {
    // The only write anywhere deposits 1; the spin demands 2. No
    // schedule can satisfy it, and the witness names the doomed value.
    let diags = analyze(&value_spin(1, 2));
    assert!(has_code(&diags, Code::E018), "{diags:?}");
    let d = diags.iter().find(|d| d.code == Code::E018).unwrap();
    assert_eq!(d.rank, 0, "{d:?}");
    assert!(d.detail.contains("0x2"), "{d:?}");
}

#[test]
fn e018_near_miss_published_value_matches() {
    // Same shape, but the publish matches the expectation: satisfiable.
    assert_clean(&value_spin(2, 2));
}

#[test]
fn e018_near_miss_unknown_operand_write_suppresses() {
    // A non-Replace accumulate's result is unmodeled (⊤ in the value
    // domain): it could produce anything, including the expected flag,
    // so no E018 — the domain over-approximates and never cries wolf.
    let mut p = value_spin(0, 0xDEAD);
    p.ranks[1][1] = Stmt::AccVal { win: 0, target: 0, disp: 0, op: ReduceOp::Sum, val: 1 };
    assert_clean(&p);
}

#[test]
fn e018_own_post_spin_write_cannot_satisfy() {
    // The spinner itself writes the expected value — but only *after*
    // the spin, which blocks its host first. Still doomed.
    let mut p = value_spin(1, 2);
    p.ranks[0].insert(
        3,
        Stmt::AccVal { win: 0, target: 0, disp: 0, op: ReduceOp::Replace, val: 2 },
    );
    assert!(has_code(&analyze(&p), Code::E018));
}

#[test]
fn e018_zero_expectation_is_satisfied_by_init() {
    // Windows are zero-initialized: spinning for 0 needs no writer.
    let mut p = value_spin(0, 0);
    p.ranks[1].clear();
    assert_clean(&p);
}

// ------------------------------------------------- flush discharge

#[test]
fn e008_iflush_never_discharged() {
    // A nonblocking flush leaves a request that nothing waits for and
    // no later blocking flush covers.
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: false, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Flush { win: 0, target: Some(1), local_only: false, close: Close::Nonblocking },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    assert!(has_code(&analyze(&p), Code::E008));
}

#[test]
fn e008_near_miss_blocking_flush_discharges_iflush() {
    // A later blocking flush on the same window and target subsumes the
    // outstanding iflush request (age-stamp rule): no E008.
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: false, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Flush { win: 0, target: Some(1), local_only: false, close: Close::Nonblocking },
        Stmt::Flush { win: 0, target: Some(1), local_only: false, close: Close::Blocking },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    assert_clean(&p);
}

#[test]
fn e008_near_miss_flush_all_discharges_targeted_iflush() {
    // A blocking flush_all covers every target on the window.
    let mut p = IrProgram::new(3, WIN);
    p.ranks[0].extend([
        Stmt::LockAll { win: 0, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Flush { win: 0, target: Some(1), local_only: false, close: Close::Nonblocking },
        Stmt::Put { win: 0, target: 2, disp: 8, len: 8 },
        Stmt::Flush { win: 0, target: Some(2), local_only: false, close: Close::Nonblocking },
        Stmt::Flush { win: 0, target: None, local_only: false, close: Close::Blocking },
        Stmt::UnlockAll { win: 0, close: Close::Blocking },
    ]);
    assert_clean(&p);
}

#[test]
fn local_flush_does_not_discharge_remote_iflush() {
    // flush_local only guarantees local completion; the remote iflush
    // request remains outstanding.
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: false, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Flush { win: 0, target: Some(1), local_only: false, close: Close::Nonblocking },
        Stmt::Flush { win: 0, target: Some(1), local_only: true, close: Close::Blocking },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    assert!(has_code(&analyze(&p), Code::E008));
}

#[test]
fn flush_outside_passive_epoch_is_e004() {
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].push(Stmt::Flush { win: 0, target: Some(1), local_only: false, close: Close::Blocking });
    assert!(has_code(&analyze(&p), Code::E004));
}

// ------------------------------------------------- race detector (HB)

fn rec(rank: usize, peer: usize, plane: Plane, event: SyncEvent) -> TraceRecord {
    TraceRecord {
        time: Default::default(),
        rank: Rank(rank),
        event: TraceEvent::Sync { win: WinId(0), peer: Rank(peer), plane, event },
    }
}

#[test]
fn unsynchronized_conflicting_access_races() {
    // Rank 1 writes rank 0's window; rank 0 reads the same bytes locally
    // with no intervening synchronization edge.
    let trace = vec![
        rec(1, 0, Plane::Lock, SyncEvent::DataIssued {
            epoch: 0,
            disp: 0,
            len: 8,
            access: AccessKind::Write,
        }),
        rec(0, 0, Plane::Lock, SyncEvent::LocalAccess {
            disp: 4,
            len: 8,
            access: AccessKind::Read,
        }),
    ];
    let races = detect_races_in(&trace);
    assert_eq!(races.len(), 1, "expected exactly one race: {races:?}");
    assert_eq!((races[0].lo, races[0].hi), (4, 8));
}

#[test]
fn done_edge_orders_the_access() {
    // Same accesses, but the write's epoch closure (unlock) is applied at
    // rank 0 before the local read: complete happens-before edge, no race.
    let trace = vec![
        rec(1, 0, Plane::Lock, SyncEvent::DataIssued {
            epoch: 0,
            disp: 0,
            len: 8,
            access: AccessKind::Write,
        }),
        rec(1, 0, Plane::Lock, SyncEvent::EpochDoneSent { epoch: 0, id: 0 }),
        rec(0, 1, Plane::Lock, SyncEvent::EpochDoneApplied { id: 0 }),
        rec(0, 0, Plane::Lock, SyncEvent::LocalAccess {
            disp: 4,
            len: 8,
            access: AccessKind::Read,
        }),
    ];
    assert!(detect_races_in(&trace).is_empty());
}

#[test]
fn read_read_overlap_is_not_a_race() {
    let trace = vec![
        rec(1, 0, Plane::Lock, SyncEvent::DataIssued {
            epoch: 0,
            disp: 0,
            len: 8,
            access: AccessKind::Read,
        }),
        rec(2, 0, Plane::Lock, SyncEvent::DataIssued {
            epoch: 0,
            disp: 0,
            len: 8,
            access: AccessKind::Read,
        }),
    ];
    assert!(detect_races_in(&trace).is_empty());
}

#[test]
fn grant_edge_orders_lock_epochs() {
    // Rank 1 writes under a lock, unlocks (done edge to rank 0's lock
    // manager), then rank 2's lock grant — carrying rank 0's knowledge —
    // orders rank 2's overlapping write after rank 1's.
    let trace = vec![
        rec(1, 0, Plane::Lock, SyncEvent::DataIssued {
            epoch: 0,
            disp: 0,
            len: 8,
            access: AccessKind::Write,
        }),
        rec(1, 0, Plane::Lock, SyncEvent::EpochDoneSent { epoch: 0, id: 0 }),
        rec(0, 1, Plane::Lock, SyncEvent::EpochDoneApplied { id: 0 }),
        rec(0, 2, Plane::Lock, SyncEvent::GrantSent { id: 1 }),
        rec(2, 0, Plane::Lock, SyncEvent::GrantApplied { id: 1 }),
        rec(2, 0, Plane::Lock, SyncEvent::DataIssued {
            epoch: 1,
            disp: 0,
            len: 8,
            access: AccessKind::Write,
        }),
    ];
    assert!(detect_races_in(&trace).is_empty());
}

#[test]
fn clocks_cover_the_highest_rank_the_trace_names() {
    // Only ranks 0 and 5 appear: the clocks are sized from the trace.
    let write = rec(5, 0, Plane::Lock, SyncEvent::DataIssued {
        epoch: 0,
        disp: 0,
        len: 8,
        access: AccessKind::Write,
    });
    let read = rec(0, 0, Plane::Lock, SyncEvent::LocalAccess {
        disp: 0,
        len: 8,
        access: AccessKind::Read,
    });
    let races = detect_races_in(&[write, read]);
    assert_eq!(races.len(), 1, "{races:?}");
    assert_eq!((races[0].first.rank, races[0].second.rank), (5, 0));
    let sent = rec(5, 0, Plane::Lock, SyncEvent::EpochDoneSent { epoch: 0, id: 1 });
    let applied = rec(0, 5, Plane::Lock, SyncEvent::EpochDoneApplied { id: 1 });
    assert!(detect_races_in(&[write, sent, applied, read]).is_empty());
}

// ------------------------------------------------- W-series (slack pass)
//
// The advisory codes are emitted only by `analyze_slack`; every positive
// program here must additionally be E-clean, because the rewriter's
// whole contract is "relax programs that are already correct".

fn slack_diags(p: &IrProgram) -> Vec<mpisim_analyze::Diagnostic> {
    assert_clean(p);
    analyze_slack(p).diags
}

#[test]
fn w001_redundant_blocking_flush() {
    // Nothing consumes the flush's guarantee before the epoch's own
    // unlock completes everything anyway.
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Flush { win: 0, target: Some(1), local_only: false, close: Close::Blocking },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    let diags = slack_diags(&p);
    assert!(has_code(&diags, Code::W001), "{diags:?}");
}

#[test]
fn w001_near_miss_flush_discharges_full_iflush() {
    // The blocking flush discharges an earlier full iflush request (the
    // E008 age-stamp rule): its completion IS consumed — Required, no
    // W001.
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Flush { win: 0, target: Some(1), local_only: false, close: Close::Nonblocking },
        Stmt::Flush { win: 0, target: Some(1), local_only: false, close: Close::Blocking },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    let diags = slack_diags(&p);
    assert!(!has_code(&diags, Code::W001), "{diags:?}");
}

#[test]
fn w001_localize_when_only_local_requests_ride() {
    // Only a local-only iflush rides on the blocking flush: it cannot be
    // elided (the request must be discharged) but can weaken to
    // flush_local. Still W001, with a localize finding.
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Flush { win: 0, target: Some(1), local_only: true, close: Close::Nonblocking },
        Stmt::Flush { win: 0, target: Some(1), local_only: false, close: Close::Blocking },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    assert_clean(&p);
    let report = analyze_slack(&p);
    assert!(has_code(&report.diags, Code::W001), "{:?}", report.diags);
    let f = report
        .findings
        .iter()
        .find(|f| f.rank == 0 && f.step == 3)
        .expect("the blocking flush must be classified");
    assert_eq!(f.class, SlackClass::Relaxable);
    assert!(f.localize, "must be weakened to flush_local, not elided: {f:?}");
}

#[test]
fn w002_fence_close_relaxable() {
    // No dependent use of the covered put before end of program: the
    // closing fence only serializes the host.
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
    let diags = slack_diags(&p);
    assert!(
        diags.iter().any(|d| d.code == Code::W002 && d.rank == 0 && d.step == Some(2)),
        "{diags:?}"
    );
}

#[test]
fn w002_near_miss_conflicting_barrier_pins_the_fence() {
    // Same shape, but rank 1 reads the published bytes under a lock
    // after the barrier: the barrier is the publication point, and it
    // follows the fence with zero slack — Required, no W002 for rank 0.
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
        Stmt::Lock { win: 0, target: 1, exclusive: false, nonblocking: false },
        Stmt::Get { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    let diags = slack_diags(&p);
    assert!(
        !diags.iter().any(|d| d.code == Code::W002 && d.rank == 0),
        "{diags:?}"
    );
}

#[test]
fn w003_unlock_relaxable() {
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
        Stmt::Barrier,
    ]);
    p.ranks[1].push(Stmt::Barrier);
    let diags = slack_diags(&p);
    assert!(
        diags.iter().any(|d| d.code == Code::W003 && d.rank == 0 && d.step == Some(2)),
        "{diags:?}"
    );
}

#[test]
fn w003_near_miss_barrier_publishes_with_zero_slack() {
    // The barrier immediately after the unlock publishes the put to a
    // conflicting reader on rank 1: the dependent use is adjacent, so
    // there is no room to overlap anything — the unlock stays Required.
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Lock { win: 0, target: 1, exclusive: true, nonblocking: false },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
        Stmt::Barrier,
    ]);
    p.ranks[1].extend([
        Stmt::Barrier,
        Stmt::Lock { win: 0, target: 1, exclusive: false, nonblocking: false },
        Stmt::Get { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Unlock { win: 0, target: 1, close: Close::Blocking },
    ]);
    assert_clean(&p);
    let report = analyze_slack(&p);
    let f = report
        .findings
        .iter()
        .find(|f| f.rank == 0 && f.step == 2)
        .expect("the unlock must be classified");
    assert_eq!(f.class, SlackClass::Required, "{f:?}");
    assert!(
        !report.diags.iter().any(|d| d.code == Code::W003 && d.rank == 0),
        "{:?}",
        report.diags
    );
}

#[test]
fn w004_over_wide_start_group() {
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
    let diags = slack_diags(&p);
    assert!(
        diags.iter().any(|d| d.code == Code::W004 && d.rank == 0 && d.step == Some(0)),
        "{diags:?}"
    );
}

#[test]
fn w004_near_miss_every_target_used() {
    let mut p = IrProgram::new(3, WIN);
    p.ranks[0].extend([
        Stmt::Start { win: 0, group: vec![1, 2] },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Put { win: 0, target: 2, disp: 0, len: 8 },
        Stmt::Complete { win: 0, close: Close::Blocking },
    ]);
    for r in 1..3 {
        p.ranks[r].extend([
            Stmt::Post { win: 0, group: vec![0] },
            Stmt::WaitEpoch { win: 0, close: Close::Blocking },
        ]);
    }
    let diags = slack_diags(&p);
    assert!(!has_code(&diags, Code::W004), "{diags:?}");
}

#[test]
fn w005_dead_exposure_epoch() {
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Start { win: 0, group: vec![1] },
        Stmt::Complete { win: 0, close: Close::Blocking },
    ]);
    p.ranks[1].extend([
        Stmt::Post { win: 0, group: vec![0] },
        Stmt::WaitEpoch { win: 0, close: Close::Blocking },
    ]);
    let diags = slack_diags(&p);
    assert!(
        diags.iter().any(|d| d.code == Code::W005 && d.rank == 1 && d.step == Some(0)),
        "{diags:?}"
    );
}

#[test]
fn w005_near_miss_origin_operates_toward_exposer() {
    let mut p = IrProgram::new(2, WIN);
    p.ranks[0].extend([
        Stmt::Start { win: 0, group: vec![1] },
        Stmt::Put { win: 0, target: 1, disp: 0, len: 8 },
        Stmt::Complete { win: 0, close: Close::Blocking },
    ]);
    p.ranks[1].extend([
        Stmt::Post { win: 0, group: vec![0] },
        Stmt::WaitEpoch { win: 0, close: Close::Blocking },
    ]);
    let diags = slack_diags(&p);
    assert!(!has_code(&diags, Code::W005), "{diags:?}");
}

#[test]
fn reorder_pin_blocks_every_relaxation() {
    // With reorder flags asserted, a rank whose epochs issue conflicting
    // overlapping accesses depends on its blocking syncs to keep reorder
    // regions apart: everything stays Required, nothing is advisory.
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
    assert_clean(&p);
    let report = analyze_slack(&p);
    assert!(report.diags.is_empty(), "{:?}", report.diags);
    assert!(
        report.findings.iter().all(|f| f.class == SlackClass::Required),
        "{:?}",
        report.findings
    );
}

#[test]
fn slack_catalog_covers_every_advisory_code() {
    use mpisim_analyze::slack_catalog_cases;
    let cases = slack_catalog_cases();
    for code in Code::ADVISORY {
        let covered = cases.iter().any(|(c, p)| {
            *c == code && analyze(p).is_empty() && has_code(&analyze_slack(p).diags, code)
        });
        assert!(covered, "no E-clean slack catalog case triggers {code}");
    }
}
