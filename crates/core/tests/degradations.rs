//! Unit suite for the `JobReport::degradations` surface: `is_clean()`,
//! ordering stability, and the `kind()`/`Debug`/`Display` rendering of
//! every [`Degradation`] variant, including the recovery variants.

use mpisim_core::{
    Degradation, JobConfig, ProtocolError, Rank, RecoveryReport, StallReport, WinId,
};
use mpisim_core::window::OmegaTable;
use mpisim_sim::SimTime;

/// One exemplar of every `Degradation` variant, in a fixed order.
fn all_variants() -> Vec<Degradation> {
    vec![
        Degradation::FifoDecode(ProtocolError {
            rank: Rank(0),
            win: WinId(0),
            src: Rank(1),
            raw: 0xF000_0000_0000_0000,
            detail: "corrupt 64-bit sync packet",
        }),
        Degradation::ChecksumFail { rank: Rank(2), src: Rank(3), seq: 7 },
        Degradation::RetriesExhausted { rank: Rank(1), dst: Rank(0), seq: 9, retries: 12 },
        Degradation::PeerCrash { rank: Rank(0), peer: Rank(2), seq: 4 },
        Degradation::EpochStall(StallReport {
            rank: Rank(1),
            win: WinId(0),
            epoch: 3,
            kind: "lock",
            closed_at: SimTime::from_micros(10),
            cancelled_at: SimTime::from_millis(20),
            // Sparse: only the one peer this rank ever synchronised with.
            omega: {
                let mut t = OmegaTable::default();
                let p = t.peer_mut(Rank(0));
                (p.a, p.g, p.a_lock, p.g_lock) = (1, 1, 2, 1);
                t
            },
            oldest_unacked: Some((Rank(0), 5)),
            live_ops: 1,
            pending_ops: 2,
        }),
        Degradation::Recovered(RecoveryReport {
            rank: Rank(1),
            win: WinId(0),
            crash_commit: 2,
            crash_at: SimTime::from_micros(500),
            restored_at: SimTime::from_micros(1_500),
            ckpt_commit: 2,
            ckpt_at: SimTime::from_micros(499),
            replayed_ops: 3,
            replayed_bytes: 48,
            omega_regressions: 0,
            stale: false,
        }),
    ]
}

#[test]
fn every_variant_has_a_stable_kind_label() {
    let kinds: Vec<&'static str> = all_variants().iter().map(|d| d.kind()).collect();
    assert_eq!(
        kinds,
        vec![
            "fifo-decode",
            "checksum-fail",
            "retries-exhausted",
            "peer-crash",
            "epoch-stall",
            "recovered",
        ]
    );
}

#[test]
fn display_mentions_the_kind_and_the_provenance() {
    for d in all_variants() {
        let msg = d.to_string();
        assert!(
            msg.starts_with(d.kind()),
            "Display of {:?} must lead with its kind label, got {msg:?}",
            d.kind()
        );
    }
    // Spot-check the load-bearing provenance of each rendering.
    let v = all_variants();
    assert!(v[0].to_string().contains("0xf000000000000000"), "{}", v[0]);
    assert!(v[1].to_string().contains("frame #7"), "{}", v[1]);
    assert!(v[2].to_string().contains("12 retransmits"), "{}", v[2]);
    assert!(v[3].to_string().contains("2 is down"), "{}", v[3]);
    assert!(v[4].to_string().contains("epoch #3"), "{}", v[4]);
    let rec = v[5].to_string();
    assert!(
        rec.contains("crashed at commit 2") && rec.contains("3 replayed ops"),
        "{rec}"
    );
    assert!(!rec.contains("STALE"), "healthy restore must not read stale: {rec}");
}

#[test]
fn stale_and_regressed_recoveries_render_loudly() {
    let Degradation::Recovered(mut r) = all_variants().pop().unwrap() else {
        unreachable!()
    };
    r.stale = true;
    r.omega_regressions = 2;
    let msg = Degradation::Recovered(r).to_string();
    assert!(msg.contains("STALE"), "{msg}");
    assert!(msg.contains("REGRESSED"), "{msg}");
}

#[test]
fn debug_rendering_is_nonempty_and_names_the_variant() {
    let names = [
        "FifoDecode",
        "ChecksumFail",
        "RetriesExhausted",
        "PeerCrash",
        "EpochStall",
        "Recovered",
    ];
    for (d, name) in all_variants().iter().zip(names) {
        let dbg = format!("{d:?}");
        assert!(dbg.contains(name), "Debug of {name} was {dbg:?}");
    }
}

#[test]
fn is_clean_is_exactly_no_degradations() {
    let report = mpisim_core::run_job(JobConfig::new(2), |env| {
        let win = env.win_allocate(32).unwrap();
        env.fence(win).unwrap();
        if env.rank().idx() == 0 {
            env.put(win, Rank(1), 0, &[9]).unwrap();
        }
        env.fence(win).unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
    assert!(report.degradations.is_empty());
    assert!(report.is_clean());
    assert_eq!(report.recoveries().count(), 0);
}

#[test]
fn degradations_preserve_recording_order() {
    // The report surfaces events in the order the engine recorded them;
    // a clone round-trip (the report is assembled by draining the engine)
    // must not reorder or drop anything.
    let v = all_variants();
    let cloned: Vec<Degradation> = v.clone();
    assert_eq!(v.len(), cloned.len());
    for (a, b) in v.iter().zip(cloned.iter()) {
        assert_eq!(a.kind(), b.kind());
        assert_eq!(a.to_string(), b.to_string());
    }
}
