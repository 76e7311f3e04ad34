//! The credit backlog's schedule, pinned. Six all-internode ranks send
//! seeded bursts at staggered times under starved `(channel_credits,
//! rank_credits)` profiles: some bursts hammer one hot destination, so a
//! channel's credits bind, and some fan out to every peer, so the rank's
//! credits bind. One FNV-1a digest per profile covers every delivery
//! `(ns, src, dst, tag)`, every local and remote completion time, in the
//! order the events ran, and the `credit_stalls` / `max_backlog` counters,
//! held to `pins.txt`.
//!
//! Public API only, so the file runs unchanged against any version of the
//! network (with `tests/support/pin.rs` and `pins.txt` beside it).

#[path = "../../../tests/support/pin.rs"]
mod pin;

use std::cell::RefCell;
use std::rc::Rc;

use mpisim_net::{NetParams, NetStats, Network, Packet, Rank, Topology, Wire};
use mpisim_sim::{Sim, SimTime};

const RANKS: usize = 6;
const BURSTS: u64 = 10;

struct Msg {
    tag: u64,
    len: usize,
}

impl Wire for Msg {
    fn payload_len(&self) -> usize {
        self.len
    }
}

/// splitmix64: the test's own seeded stream.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// What a run observed, in event order: `[kind, ns, src, dst, tag]` with
/// kind 0 = delivery, 1 = local completion, 2 = remote completion.
type Log = Rc<RefCell<Vec<[u64; 5]>>>;

/// One send of a burst: `(src, dst, tag, payload bytes, tracked)`.
type Send = (usize, usize, u64, usize, bool);

fn bursts(seed: u64) -> Vec<(SimTime, Vec<Send>)> {
    let mut rng = Stream(seed);
    let mut tag = 0;
    let mut out = Vec::new();
    for b in 0..BURSTS {
        let at = SimTime::from_nanos(b * 2_500 + rng.below(1_000));
        let mut sends = Vec::new();
        for src in 0..RANKS {
            let mut push = |dst: usize, rng: &mut Stream| {
                let len = rng.below(4_096) as usize;
                let tracked = rng.below(3) != 0;
                sends.push((src, dst, tag, len, tracked));
                tag += 1;
            };
            match rng.below(3) {
                // Hot destination: one channel takes the whole burst.
                0 => {
                    let dst = (src + 1 + rng.below(RANKS as u64 - 1) as usize) % RANKS;
                    for _ in 0..3 + rng.below(5) {
                        push(dst, &mut rng);
                    }
                }
                // Wide fan-out: every peer, twice over.
                1 => {
                    for round in 0..2 {
                        for k in 1..RANKS {
                            push((src + k + round) % RANKS, &mut rng);
                        }
                    }
                }
                // A quiet rank: at most one send.
                _ => {
                    if rng.below(2) == 0 {
                        let dst = (src + 1 + rng.below(RANKS as u64 - 1) as usize) % RANKS;
                        push(dst, &mut rng);
                    }
                }
            }
        }
        out.push((at, sends));
    }
    out
}

fn run(channel_credits: u32, rank_credits: u32) -> (pin::Fnv, NetStats, usize) {
    let sim = Sim::new(5);
    let h = sim.handle();
    let mut p = NetParams::qdr_infiniband();
    p.channel_credits = channel_credits;
    p.rank_credits = rank_credits;
    let net = Network::new(h.clone(), p, Topology::all_internode(RANKS));
    let log: Log = Rc::new(RefCell::new(Vec::new()));
    {
        let (log, h) = (log.clone(), h.clone());
        net.set_handler(move |pkt: Packet<Msg>| {
            let row = [
                0,
                h.now().as_nanos(),
                pkt.src.0 as u64,
                pkt.dst.0 as u64,
                pkt.body.tag,
            ];
            log.borrow_mut().push(row);
        });
    }
    let mut sent = 0;
    for (at, sends) in bursts(0x00C0_FFEE) {
        sent += sends.len();
        let (net, log, hh) = (net.clone(), log.clone(), h.clone());
        h.schedule_at(at, move || {
            for (src, dst, tag, len, tracked) in sends {
                let pkt = Packet {
                    src: Rank(src),
                    dst: Rank(dst),
                    body: Msg { tag, len },
                };
                if !tracked {
                    net.send(pkt);
                    continue;
                }
                let row = move |kind: u64, h: &mpisim_sim::SimHandle| {
                    [kind, h.now().as_nanos(), src as u64, dst as u64, tag]
                };
                let (l1, h1) = (log.clone(), hh.clone());
                let (l2, h2) = (log.clone(), hh.clone());
                net.send_tracked(
                    pkt,
                    Some(Box::new(move || l1.borrow_mut().push(row(1, &h1)))),
                    Some(Box::new(move || l2.borrow_mut().push(row(2, &h2)))),
                );
            }
        });
    }
    sim.run().unwrap();
    let stats = net.stats();
    let mut fnv = pin::FNV;
    let log = log.borrow();
    let words = log.iter().flatten().copied().chain([stats.credit_stalls, stats.max_backlog as u64]);
    words.for_each(|w| fnv.bytes(w.to_le_bytes()));
    let delivered = log.iter().filter(|r| r[0] == 0).count();
    assert_eq!(delivered, sent, "every send is delivered exactly once");
    (fnv, stats, sent)
}

/// `(channel_credits, rank_credits)`.
const PROFILES: [(u32, u32); 5] = [(1, 2), (2, 4), (4, 6), (1, 0), (0, 3)];

#[test]
fn starved_credit_schedules_are_pinned() {
    let mut rows = Vec::new();
    for (c, r) in PROFILES {
        let (digest, stats, sent) = run(c, r);
        assert!(
            stats.credit_stalls > 0,
            "({c}, {r}): the profile must starve"
        );
        assert_eq!(stats.msgs_sent as usize, sent);
        rows.push((format!("channel{c}-rank{r}"), digest.hex()));
    }
    pin::check("net/credit_backlog::starved_credit_schedules_are_pinned", rows);
}
