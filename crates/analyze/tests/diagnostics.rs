//! The verdict table's judge, and the tests that assert more than a code.
//!
//! Every program that pins an analyzer verdict is one row of
//! [`cases`]: a firing program carries its code, a near miss (the
//! smallest edit that makes it legal) is `Clean`. The first test judges
//! every row; the others read their program from the table by name and
//! check what a code alone does not say — a witness, a rank, a slack
//! class, a pass that must not overflow. The vector-clock race detector's
//! checks over synthetic sync traces close the file.

use mpisim_analyze::{
    analyze, analyze_slack, cases, detect_races_in, has_code, interpret, rewrite, Code, Expect,
    FetchKind, IrProgram, SlackClass, Stmt,
};
use mpisim_core::trace::{AccessKind, Plane, SyncEvent, TraceEvent, TraceRecord};
use mpisim_core::{JobConfig, Rank, WinId};

/// The program of the table row `name`.
fn row(name: &str) -> IrProgram {
    let rows = cases();
    rows.into_iter().find(|c| c.name == name).unwrap_or_else(|| panic!("no row {name}")).program
}

/// Every row holds; no two rows share a name or a program; every code
/// has a row that flags it and a near miss whose name carries it.
#[test]
fn every_row_of_the_verdict_table_holds() {
    let rows = cases();
    let misses: Vec<String> = rows.iter().filter_map(|c| c.judge().1).collect();
    assert_eq!(misses, Vec::<String>::new());
    for (i, a) in rows.iter().enumerate() {
        for b in &rows[..i] {
            assert!(a.name != b.name && a.program != b.program, "{} repeats {}", a.name, b.name);
        }
    }
    for code in Code::ALL.into_iter().chain(Code::ADVISORY) {
        let flags = rows.iter().any(|c| c.expect == Expect::Flags(code));
        assert!(flags, "no row flags {code}");
        let near = rows.iter().any(|c| c.expect == Expect::Clean && c.name.contains(code.as_str()));
        assert!(near, "no near miss of {code}");
    }
}

/// E009's regions are the engine's activation rule, and the interpreter
/// runs the program under the info the walk read: with the fence
/// extension, the fence phases after a nonblocking fence activate while
/// the phase before them still completes; without it, they wait.
#[test]
fn e009_regions_are_the_activation_rule_the_run_obeys() {
    let deferred = |ext: bool| {
        let mut p = row("E009 near-miss disjoint-phases");
        p.unsafe_fence_reorder = ext;
        interpret(JobConfig::new(2), &p).unwrap().report.engine.epochs_deferred
    };
    let (with, without) = (deferred(true), deferred(false));
    assert!(with < without, "epochs deferred: {with} with the extension, {without} without");
}

/// `disp + len` past `usize::MAX` is out of bounds like any other: it must
/// neither wrap below the window size nor overflow, in any pass, and the
/// walk's detail and the run's error both name the range's exact end.
#[test]
fn e010_displacement_overflow_is_out_of_bounds() {
    let mut p = row("E010 displacement-overflow");
    let range = "[18446744073709551615, 18446744073709551617)";
    let diags = analyze(&p);
    assert!(diags.iter().any(|d| d.detail.contains(range)), "{diags:?}");
    let errors = interpret(JobConfig::new(2), &p).unwrap().errors;
    let texts: Vec<String> = errors.iter().map(|e| e.error.to_string()).collect();
    assert!(texts.iter().any(|t| t.starts_with(&format!("access {range} exceeds"))), "{texts:?}");
    let value_read =
        Stmt::ReadValue { win: 0, target: 1, disp: usize::MAX - 3, kind: FetchKind::Get, local: 0 };
    for stmt in [p.ranks[0][1].clone(), value_read] {
        p.ranks[0][1] = stmt;
        assert!(has_code(&analyze(&p), Code::E010), "{:?}", p.ranks[0][1]);
        analyze_slack(&p);
        rewrite(&p);
    }
}

/// Two crashed peers, one recovered: only the dependency on the
/// unrecovered one is a hazard.
#[test]
fn e012_relaxation_is_per_rank() {
    let diags = analyze(&row("E012 one-of-two-recovered"));
    let e012: Vec<_> = diags.iter().filter(|d| d.code == Code::E012).collect();
    assert!(!e012.is_empty(), "the unrecovered crash must still be flagged");
    assert!(e012.iter().all(|d| d.detail.contains("rank 1")), "{e012:?}");
}

/// Both ranks start toward each other before either posts: the witness
/// names both ranks of the cycle.
#[test]
fn e013_pscw_start_cycle() {
    let diags = analyze(&row("E013 with-puts"));
    let d = diags.iter().find(|d| d.code == Code::E013).expect("E013");
    assert!(d.detail.contains("rank 0") && d.detail.contains("rank 1"), "{d:?}");
}

/// The only write anywhere deposits 1; the spin demands 2. The witness
/// names the spinning rank and the doomed value.
#[test]
fn e018_spin_on_unwritable_value() {
    let diags = analyze(&row("E018"));
    let d = diags.iter().find(|d| d.code == Code::E018).expect("E018");
    assert_eq!(d.rank, 0, "{d:?}");
    assert!(d.detail.contains("0x2"), "{d:?}");
}

// ------------------------------------------------- W-series (slack pass)

/// A diagnostic's code, rank and statement.
type Anchor = (Code, usize, usize);

/// What the slack pass says, by (code, rank, statement), on the W rows
/// and the E-clean near misses that keep it quiet.
#[test]
fn slack_diagnostics_anchor_where_the_rows_say() {
    use Code::{W002, W003, W004, W005};
    let expected: [(&str, &[Anchor]); 10] = [
        ("W002", &[(W002, 0, 2), (W002, 1, 1)]),
        ("W003", &[(W003, 0, 2)]),
        ("W004", &[(W004, 0, 0), (W005, 2, 0)]),
        ("W005", &[(W005, 1, 0)]),
        // The blocking flush discharges an earlier full iflush request.
        ("W001 near-miss iflush-discharged", &[]),
        // Rank 1 reads the published bytes after the barrier: rank 0's
        // closing fence is Required.
        ("W002 near-miss barrier-publishes", &[(W002, 1, 1)]),
        ("W002 near-miss reorder-pinned", &[]),
        ("W003 near-miss barrier-publishes", &[]),
        ("W004 near-miss every-target-used", &[]),
        ("E015 W005 near-miss matching-post", &[]),
    ];
    for (name, want) in expected {
        let diags = analyze_slack(&row(name)).diags;
        let got: Vec<_> = diags.iter().map(|d| (d.code, d.rank, d.step.unwrap())).collect();
        assert_eq!(got, want, "{name}");
    }
}

/// Only a local-only iflush rides on the blocking flush: it cannot be
/// elided (the request must be discharged) but can weaken to
/// flush_local. Still W001, with a localize finding.
#[test]
fn w001_localize_when_only_local_requests_ride() {
    let report = analyze_slack(&row("W001 localize"));
    assert!(has_code(&report.diags, Code::W001), "{:?}", report.diags);
    let f = report
        .findings
        .iter()
        .find(|f| f.rank == 0 && f.step == 3)
        .expect("the blocking flush must be classified");
    assert_eq!(f.class, SlackClass::Relaxable);
    assert!(f.localize, "must be weakened to flush_local, not elided: {f:?}");
}

/// The barrier immediately after the unlock publishes the put to a
/// conflicting reader on rank 1: the dependent use is adjacent, so there
/// is no room to overlap anything — the unlock stays Required.
#[test]
fn w003_near_miss_barrier_publishes_with_zero_slack() {
    let report = analyze_slack(&row("W003 near-miss barrier-publishes"));
    let f = report
        .findings
        .iter()
        .find(|f| f.rank == 0 && f.step == 2)
        .expect("the unlock must be classified");
    assert_eq!(f.class, SlackClass::Required, "{f:?}");
}

/// With reorder flags asserted, a rank whose epochs issue conflicting
/// overlapping accesses depends on its blocking syncs to keep reorder
/// regions apart: everything stays Required.
#[test]
fn reorder_pin_blocks_every_relaxation() {
    let report = analyze_slack(&row("W002 near-miss reorder-pinned"));
    assert!(
        report.findings.iter().all(|f| f.class == SlackClass::Required),
        "{:?}",
        report.findings
    );
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
