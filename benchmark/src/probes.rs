//! Unit-cost probes: separate mini-jobs run against one layer's public API
//! only, in a fresh process, so the exact counts of a workload can be priced
//! (`share_est` = Σ count × unit cost ÷ wall). Every timing is seconds of
//! wall for a known number of operations; the caller rescales by the
//! calibration taken beside the probes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Instant;

use mpisim_core::SyncStrategy;
use mpisim_net::{NetParams, Network, Packet, Rank, Topology, U64Fifo, Wire};
use mpisim_sim::{Sim, SimHandle, SimTime};

use crate::host;
use crate::workloads::job;

/// Run every probe and return the measurements by name. Times are raw host
/// seconds per operation (`*_s`), except `launch_s` and `win_alloc_job_s`,
/// which are per job. Must be the first thing a fresh process does: the
/// window-state probe reads the growth of `VmHWM`, which only ever rises.
pub fn run(ranks: usize) -> Vec<(&'static str, f64)> {
    // `core`: an empty-body job, then a job that only allocates and frees a
    // window, and how much the second grew the process's peak RSS.
    let t = Instant::now();
    mpisim_core::run_job(job(ranks, 1, SyncStrategy::Redesigned), |_env| {}).expect("empty job");
    let launch_s = t.elapsed().as_secs_f64();
    let hwm_before = host::peak_rss_kb();
    let t = Instant::now();
    mpisim_core::run_job(job(ranks, 1, SyncStrategy::Redesigned), |env| {
        let win = env.win_allocate(64).expect("allocate");
        env.win_free(win).expect("free");
    })
    .expect("allocate-only job");
    let win_alloc_job_s = t.elapsed().as_secs_f64();
    let win_state_kb = host::peak_rss_kb() - hwm_before;

    vec![
        ("ranks", ranks as f64),
        ("launch_s", launch_s),
        ("win_alloc_job_s", win_alloc_job_s),
        ("win_state_kb", win_state_kb as f64),
        // `sim`: one scheduled callback; one `advance` (a callback and a
        // context switch) among 8 and among 2048 processes; one process
        // spawned and torn down.
        ("event_s", sim_events(200_000, 64)),
        ("advance8_s", sim_advances(8, 20_000)),
        ("advance2048_s", sim_advances(2048, 60)),
        ("spawn_s", sim_advances_total(2048, 0) / 2048.0),
        // `net`: one message through the calibrated network; one through
        // perturbation profile 4 (no jitter, one credit per channel and two
        // per rank) with more chains than credits, so sends queue in the
        // backlog; one FIFO push + pop.
        (
            "msg_s",
            net_messages(NetParams::qdr_infiniband(), 100_000, 8),
        ),
        (
            "msg_starved_s",
            net_messages(NetParams::perturbation_profile(4), 100_000, 8),
        ),
        ("fifo_s", fifo_cycles(4_000_000)),
    ]
}

/// `total` callbacks in `chains` self-rescheduling chains, no processes:
/// seconds per callback.
fn sim_events(total: u64, chains: u64) -> f64 {
    fn step(h: SimHandle, left: Arc<AtomicU64>) {
        if left.fetch_sub(1, Ordering::Relaxed) > 1 {
            let h2 = h.clone();
            h.schedule(SimTime::from_nanos(7), move || step(h2, left));
        }
    }
    let sim = Sim::new(1);
    let h = sim.handle();
    let executed = h.clone();
    for c in 0..chains {
        let left = Arc::new(AtomicU64::new(total / chains));
        let h2 = h.clone();
        h.schedule(SimTime::from_nanos(c), move || step(h2, left));
    }
    let t = Instant::now();
    sim.run().expect("event-only simulation");
    let s = t.elapsed().as_secs_f64();
    s / executed.events_executed() as f64
}

/// `procs` processes each advancing the clock `each` times: seconds per
/// advance (one callback and one context switch).
fn sim_advances(procs: usize, each: usize) -> f64 {
    sim_advances_total(procs, each) / (procs * each) as f64
}

/// Wall time of building, running and tearing down such a simulation.
fn sim_advances_total(procs: usize, each: usize) -> f64 {
    let t = Instant::now();
    let mut sim = Sim::new(1);
    for p in 0..procs {
        sim.spawn(format!("p{p}"), move |ctx| {
            for _ in 0..each {
                ctx.advance(SimTime::from_nanos(1));
            }
        });
    }
    sim.run().expect("advance-only simulation");
    t.elapsed().as_secs_f64()
}

/// The benchmark's own message body: a header-only control message.
struct Ping;

impl Wire for Ping {
    fn payload_len(&self) -> usize {
        0
    }
}

/// `total` messages around an all-internode ring of 8 ranks, in `chains`
/// chains per rank whose deliveries each send the next message: seconds per
/// message.
fn net_messages(params: NetParams, total: u64, chains: usize) -> f64 {
    const RANKS: usize = 8;
    let sim = Sim::new(1);
    let net: Arc<Network<Ping>> =
        Network::new(sim.handle(), params, Topology::all_internode(RANKS));
    let delivered = Arc::new(AtomicU64::new(0));
    let in_flight = (RANKS * chains) as u64;
    // The handler needs the network to send on; a weak reference avoids a
    // cycle that would keep the network alive after the probe.
    let weak: Arc<OnceLock<Weak<Network<Ping>>>> = Arc::new(OnceLock::new());
    let w2 = weak.clone();
    net.set_handler(move |pkt: Packet<Ping>| {
        // Every chain stops once the messages still in flight will bring the
        // count to `total`.
        if delivered.fetch_add(1, Ordering::Relaxed) + 1 + in_flight <= total {
            let net = w2
                .get()
                .and_then(Weak::upgrade)
                .expect("network outlives its deliveries");
            net.send(Packet {
                src: pkt.dst,
                dst: Rank((pkt.dst.idx() + 1) % RANKS),
                body: Ping,
            });
        }
    });
    weak.set(Arc::downgrade(&net)).expect("set once");
    for r in 0..RANKS {
        for _ in 0..chains {
            net.send(Packet {
                src: Rank(r),
                dst: Rank((r + 1) % RANKS),
                body: Ping,
            });
        }
    }
    let t = Instant::now();
    sim.run().expect("message-only simulation");
    let s = t.elapsed().as_secs_f64();
    s / net.stats().msgs_delivered as f64
}

/// Seconds per push + pop on the intranode notification FIFO.
fn fifo_cycles(n: u64) -> f64 {
    let mut fifo = U64Fifo::new(64);
    let t = Instant::now();
    let mut acc = 0u64;
    for i in 0..n {
        fifo.push(std::hint::black_box(i));
        acc = acc.wrapping_add(fifo.pop().unwrap_or(0));
    }
    std::hint::black_box(acc);
    t.elapsed().as_secs_f64() / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_probe_yields_a_positive_unit_cost() {
        assert!(sim_events(2_000, 8) > 0.0);
        assert!(sim_advances(4, 50) > 0.0);
        assert!(sim_advances_total(16, 0) > 0.0);
        assert!(net_messages(NetParams::qdr_infiniband(), 2_000, 2) > 0.0);
        assert!(net_messages(NetParams::perturbation_profile(4), 2_000, 4) > 0.0);
        assert!(fifo_cycles(10_000) > 0.0);
    }

    #[test]
    fn the_starved_profile_really_stalls_on_credits() {
        let p = NetParams::perturbation_profile(4);
        assert_eq!((p.channel_credits, p.rank_credits), (1, 2));
        assert!(p.jitter.is_zero());
    }
}
