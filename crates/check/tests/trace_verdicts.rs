//! Output pin for the two sync-trace consumers: FNV-1a over the `Debug`
//! text of what [`audit`] and [`detect_races`] say about the generated
//! corpus, clean and under the plants whose runs finish, and about doctored
//! traces that no clean run produces (one per I1/I2/I3 message path).
//! Computed once, before the two were rebuilt on one send→apply matcher;
//! never edited — a moved digest is a changed verdict.
//!
//! The doctors edit the sync records of the one trace stream and keep it
//! chronological (a forged record takes a time its neighbours allow), so
//! each forges exactly the defect it names and never an `I0-order` too.

use mpisim_analyze::detect_races;
use mpisim_check::{audit, execute, generate, spec_for_seed, Family, RunSpec, SyncStrategy, MATRIX};
use mpisim_core::trace::{Plane, SyncEvent, TraceEvent, TraceRecord};
use mpisim_core::{JobReport, Rank, WinId};

fn fnv(h: &mut u64, said: &impl std::fmt::Debug) {
    for b in format!("{said:?}").bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
}

/// Family × programs 0..8 × matrix point × 4 schedules, with the engine
/// fault `fault` or the fault plan `plan` (sublayer off); a run that does
/// not finish contributes its index only.
fn corpus_digest(fault: Option<&str>, plan: Option<&str>) -> u64 {
    let fault = fault.map(String::from);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for family in Family::ALL {
        for idx in 0..8 {
            let program = generate(family, idx);
            for (strategy, nonblocking) in MATRIX {
                for s in 0..4 {
                    let mut spec = spec_for_seed(strategy, nonblocking, s, &fault);
                    spec.fault_plan = plan.map(String::from);
                    match execute(&program, &spec) {
                        Ok(out) => fnv(&mut h, &(audit(&out.report), detect_races(&out.report))),
                        Err(_) => fnv(&mut h, &(family, idx, s)),
                    }
                }
            }
        }
    }
    h
}

#[test]
fn clean_corpus_verdicts() {
    assert_eq!(corpus_digest(None, None), 0xbc13_ccf6_1582_4125);
}

#[test]
fn planted_corpus_verdicts() {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for fault in ["skip-grant", "double-acc", "hb-race"] {
        fnv(&mut h, &corpus_digest(Some(fault), None));
    }
    fnv(&mut h, &corpus_digest(None, Some("drop-storm")));
    assert_eq!(h, 0x6266_b5a8_ade7_0e26);
}

fn position(trace: &[TraceRecord], from: usize, f: impl Fn(&TraceRecord) -> bool) -> usize {
    from + trace[from..].iter().position(f).expect("the base run has the record to doctor")
}

/// The sync event of a sync record.
fn sync(r: &TraceRecord) -> Option<SyncEvent> {
    match r.event {
        TraceEvent::Sync { event, .. } => Some(event),
        _ => None,
    }
}

fn is_grant_applied(r: &TraceRecord) -> bool {
    matches!(sync(r), Some(SyncEvent::GrantApplied { .. }))
}

fn channel(r: &TraceRecord) -> Option<(Rank, Rank, WinId, Plane)> {
    match r.event {
        TraceEvent::Sync { win, peer, plane, .. } => Some((r.rank, peer, win, plane)),
        _ => None,
    }
}

fn same_channel(a: &TraceRecord, b: &TraceRecord) -> bool {
    channel(a).is_some() && channel(a) == channel(b)
}

/// A duplicated `GrantSent`, appended at the stream's last time.
fn duplicate_grant_sent(t: &mut Vec<TraceRecord>) {
    let i = position(t, 0, |r| matches!(sync(r), Some(SyncEvent::GrantSent { .. })));
    let copy = TraceRecord { time: t[t.len() - 1].time, ..t[i] };
    t.push(copy);
}

/// A deleted `GrantSent`: its apply now comes before any send.
fn delete_grant_sent(t: &mut Vec<TraceRecord>) {
    let i = position(t, 0, |r| matches!(sync(r), Some(SyncEvent::GrantSent { .. })));
    t.remove(i);
}

/// Two `GrantApplied` of one channel swapped in trace order (their events
/// trade places; each position keeps its time).
fn swap_grant_applied(t: &mut [TraceRecord]) {
    let i = (0..t.len())
        .find(|&i| {
            is_grant_applied(&t[i])
                && t[i + 1..].iter().any(|r| is_grant_applied(r) && same_channel(r, &t[i]))
        })
        .expect("the base run applies two grants on one channel");
    let first = t[i];
    let j = position(t, i + 1, |r| is_grant_applied(r) && same_channel(r, &first));
    (t[i].event, t[j].event) = (t[j].event, first.event);
}

/// A duplicated `EpochDoneApplied`, right after the original.
fn duplicate_epoch_done_applied(t: &mut Vec<TraceRecord>) {
    let i = position(t, 0, |r| matches!(sync(r), Some(SyncEvent::EpochDoneApplied { .. })));
    t.insert(i + 1, t[i]);
}

/// A `DataIssued` of an epoch with an access id whose covering
/// `GrantApplied` was removed.
fn delete_grant_before_data(t: &mut Vec<TraceRecord>) {
    let d = (0..t.len())
        .find(|&d| {
            let Some(SyncEvent::DataIssued { epoch, .. }) = sync(&t[d]) else { return false };
            let assigned = |r: &TraceRecord| {
                matches!(sync(r), Some(SyncEvent::AccessAssigned { epoch: e, .. }) if e == epoch)
            };
            t[..d].iter().any(|r| same_channel(r, &t[d]) && assigned(r))
        })
        .expect("the base run issues data under an access id");
    let g = (0..d)
        .rev()
        .find(|&g| is_grant_applied(&t[g]) && same_channel(&t[g], &t[d]))
        .expect("the data's grant was applied before it");
    t.remove(g);
}

#[test]
fn doctored_trace_verdicts() {
    type Doctor = fn(&mut Vec<TraceRecord>);
    let cases: [(Doctor, Option<&str>); 5] = [
        (duplicate_grant_sent, Some("I1-grant-seq")),
        (delete_grant_sent, Some("I2-apply-before-send")),
        (|t| swap_grant_applied(t), Some("I2-apply-seq")),
        (duplicate_epoch_done_applied, None),
        (delete_grant_before_data, Some("I3-grant-gate")),
    ];
    let program = generate(Family::MixedSerial, 1);
    let spec = RunSpec::baseline(SyncStrategy::Redesigned, false);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (doctor, expect) in cases {
        let mut report: JobReport = execute(&program, &spec).unwrap().report;
        doctor(&mut report.trace);
        let said = (audit(&report), detect_races(&report));
        if let Some(code) = expect {
            assert!(said.0.iter().any(|v| v.invariant == code), "{code} not raised: {said:?}");
        }
        fnv(&mut h, &said);
    }
    assert_eq!(h, 0x7ae7_7aba_0299_365f);
}
