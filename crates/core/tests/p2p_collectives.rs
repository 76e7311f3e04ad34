//! Integration tests: two-sided messaging and the dissemination barrier.


use mpisim_core::{run_job, JobConfig, Rank};
use mpisim_sim::SimTime;

#[test]
fn eager_send_recv() {
    run_job(JobConfig::all_internode(2), |env| {
        if env.rank().idx() == 0 {
            env.send(Rank(1), 7, b"small message").unwrap();
        } else {
            let data = env.recv(Rank(0), 7).unwrap();
            assert_eq!(data.as_ref(), b"small message");
        }
    })
    .unwrap();
}

#[test]
fn rendezvous_send_recv_large() {
    run_job(JobConfig::all_internode(2), |env| {
        let big = vec![0xAB; 64 * 1024]; // above the 8 KB threshold
        if env.rank().idx() == 0 {
            env.send(Rank(1), 1, &big).unwrap();
        } else {
            let data = env.recv(Rank(0), 1).unwrap();
            assert_eq!(data.len(), 64 * 1024);
            assert!(data.iter().all(|b| *b == 0xAB));
        }
    })
    .unwrap();
}

#[test]
fn unexpected_messages_match_later_recvs() {
    run_job(JobConfig::all_internode(2), |env| {
        if env.rank().idx() == 0 {
            for i in 0..4u8 {
                env.send(Rank(1), u64::from(i), &[i; 4]).unwrap();
            }
        } else {
            // Receive in reverse tag order, long after arrival.
            env.compute(SimTime::from_micros(500));
            for i in (0..4u8).rev() {
                let d = env.recv(Rank(0), u64::from(i)).unwrap();
                assert_eq!(d.as_ref(), &[i; 4]);
            }
        }
    })
    .unwrap();
}

#[test]
fn same_tag_messages_do_not_overtake() {
    run_job(JobConfig::all_internode(2), |env| {
        if env.rank().idx() == 0 {
            for i in 0..8u8 {
                env.send(Rank(1), 3, &[i]).unwrap();
            }
        } else {
            for i in 0..8u8 {
                let d = env.recv(Rank(0), 3).unwrap();
                assert_eq!(d.as_ref(), &[i], "message {i} overtaken");
            }
        }
    })
    .unwrap();
}

#[test]
fn isend_irecv_overlap() {
    run_job(JobConfig::all_internode(2), |env| {
        let me = env.rank().idx();
        let other = Rank(1 - me);
        // Full exchange posted before any wait: must not deadlock.
        let s = env.isend(other, 9, &[me as u8; 1024]).unwrap();
        let r = env.irecv(other, 9).unwrap();
        let data = env.wait_data(r).unwrap();
        env.wait(s).unwrap();
        assert_eq!(data.as_ref(), &[(1 - me) as u8; 1024][..]);
    })
    .unwrap();
}

#[test]
fn two_sided_1mb_takes_about_340us() {
    // The paper quotes ≈340 µs for a 1 MB transfer on its testbed; the
    // two-sided path adds only the rendezvous handshake.
    let report = run_job(JobConfig::all_internode(2), |env| {
        let t0 = env.now();
        if env.rank().idx() == 0 {
            env.send(Rank(1), 0, &vec![1u8; 1 << 20]).unwrap();
            // Blocking send returns at local completion.
        } else {
            let _ = env.recv(Rank(0), 0).unwrap();
        }
        (env.now() - t0).as_nanos()
    })
    .unwrap();
    let us = report.results[0] as f64 / 1000.0;
    assert!(
        (330.0..400.0).contains(&us),
        "1 MB send took {us} µs, expected ≈340-350 µs"
    );
}

#[test]
fn barrier_synchronizes_everyone() {
    let report = run_job(JobConfig::all_internode(8), |env| {
        // Stagger arrivals by rank.
        env.compute(SimTime::from_micros(10 * env.rank().idx() as u64));
        env.barrier().unwrap();
        env.now().as_nanos()
    })
    .unwrap();
    let earliest = *report.results.iter().min().unwrap();
    // Nobody exits before the latest arrival (70 µs).
    assert!(earliest >= 70_000, "barrier exited at {earliest}ns");
}

#[test]
fn repeated_barriers_with_generations() {
    run_job(JobConfig::all_internode(5), |env| {
        for _ in 0..10 {
            env.barrier().unwrap();
        }
    })
    .unwrap();
}

#[test]
fn barrier_on_single_rank_is_trivial() {
    run_job(JobConfig::all_internode(1), |env| {
        env.barrier().unwrap();
        env.barrier().unwrap();
    })
    .unwrap();
}

#[test]
fn ibarrier_overlaps_computation() {
    let report = run_job(JobConfig::all_internode(2), |env| {
        if env.rank().idx() == 0 {
            let r = env.ibarrier().unwrap();
            env.compute(SimTime::from_micros(300));
            env.wait(r).unwrap();
        } else {
            env.compute(SimTime::from_micros(100));
            env.barrier().unwrap();
        }
        env.now().as_nanos()
    })
    .unwrap();
    // Rank 0's total is its own 300 µs of work, not 100+300.
    let us = report.results[0] as f64 / 1000.0;
    assert!(us < 350.0, "ibarrier failed to overlap: {us} µs");
}

/// A duplicating fabric below no reliability sublayer delivers answered
/// rendezvous messages (clear-to-send, data) a second time. The token such a
/// copy carries was consumed by the original, so it is an orphan — and
/// because a freed token slot is reused at once, the copy names the slot of a
/// *newer* transfer: it must not complete that one with the old bytes.
#[test]
fn duplicated_rendezvous_answers_are_orphans_and_never_hit_a_newer_transfer() {
    let mut cfg = JobConfig::all_internode(2);
    cfg.net.faults = Some(mpisim_net::FaultPlan::dup_storm(5));
    let report = run_job(cfg, |env| {
        for i in 0..40u64 {
            let big = vec![i as u8; 16 * 1024]; // rendezvous; one tag per transfer
            if env.rank().idx() == 0 {
                env.send(Rank(1), i, &big).unwrap();
            } else {
                assert!(env.recv(Rank(0), i).unwrap().as_ref() == &big[..], "transfer {i}");
            }
        }
    })
    .unwrap();
    assert!(report.net.fault_dups > 0 && report.engine.orphan_responses > 0, "{:?}", report.engine);
    assert_eq!(report.live_requests, 0);
}
