//! Static IR twins of the application workloads.
//!
//! Each builder mirrors the epoch skeleton of one kernel in this crate —
//! the same synchronization discipline, the same per-rank communication
//! pattern, all closes blocking — as an [`IrProgram`] the static layer
//! can analyze and the slack rewriter can relax. The twins are
//! analyzer-clean by construction (equal fence counts per rank, matched
//! start/post groups, disjoint per-origin write regions, same-op-no-op
//! compatible atomics), so the rewriter's output on them is the static
//! layer's prediction for the real workload: the `rewrite_apps` figure
//! in the bench crate executes both versions under the engine and
//! reports the blocked-steps / virtual-time delta.
//!
//! Builders take explicit scales and step [`splitmix64`] over a per-rank
//! seed where the real kernel draws random targets, so a twin is a pure
//! function of its arguments — no `rand` state, no wall clock.

use mpisim_analyze::{Close, FetchKind, IrProgram, Stmt};
use mpisim_core::ReduceOp;
use mpisim_sim::splitmix64;

/// Window size shared by every twin: eight 8-byte slots.
const WIN_BYTES: usize = 64;

/// IR twin of [`crate::halo`]'s fence discipline: per iteration each
/// rank puts one ghost cell to each ring neighbour, separated by
/// collective blocking fences.
pub fn halo_ir(n_ranks: usize, iters: usize) -> IrProgram {
    assert!(n_ranks >= 2);
    let mut p = IrProgram::new(n_ranks, WIN_BYTES);
    for me in 0..n_ranks {
        let left = (me + n_ranks - 1) % n_ranks;
        let right = (me + 1) % n_ranks;
        let stmts = &mut p.ranks[me];
        stmts.push(Stmt::Fence { win: 0, close: Close::Blocking });
        for i in 0..iters {
            stmts.push(Stmt::Put { win: 0, target: left, disp: 8, len: 8 });
            stmts.push(Stmt::Put { win: 0, target: right, disp: (i % 2) * 24, len: 8 });
            stmts.push(Stmt::Fence { win: 0, close: Close::Blocking });
        }
    }
    p
}

/// IR twin of [`crate::stencil2d`]'s neighbour exchange, restructured
/// into two GATS half-phases per iteration (even ranks expose while odd
/// ranks access, then roles swap) so the twin needs no reorder flags:
/// the rewriter refuses to touch reorder-pinned programs, and the point
/// of the twin is to measure what it *can* do. Requires an even rank
/// count so the ring 2-colours.
pub fn stencil2d_ir(n_ranks: usize, iters: usize) -> IrProgram {
    assert!(n_ranks >= 2 && n_ranks.is_multiple_of(2), "ring must 2-colour");
    let mut p = IrProgram::new(n_ranks, WIN_BYTES);
    for me in 0..n_ranks {
        let up = (me + n_ranks - 1) % n_ranks;
        let down = (me + 1) % n_ranks;
        let mut group = vec![up, down];
        group.sort_unstable();
        group.dedup();
        let stmts = &mut p.ranks[me];
        for _ in 0..iters {
            for phase in 0..2 {
                // Phase 0: odd ranks access even neighbours; phase 1: swap.
                if (me % 2 == 1) == (phase == 0) {
                    stmts.push(Stmt::Start { win: 0, group: group.clone() });
                    // North ghost row lands in the target's low half,
                    // south ghost row in its high half: the two origins
                    // writing any one target never overlap.
                    stmts.push(Stmt::Put { win: 0, target: up, disp: 0, len: 32 });
                    stmts.push(Stmt::Put { win: 0, target: down, disp: 32, len: 32 });
                    stmts.push(Stmt::Complete { win: 0, close: Close::Blocking });
                } else {
                    stmts.push(Stmt::Post { win: 0, group: group.clone() });
                    stmts.push(Stmt::WaitEpoch { win: 0, close: Close::Blocking });
                }
            }
        }
    }
    p
}

/// IR twin of [`crate::lu`]'s panel broadcast: for panel `k` the owner
/// rank opens one GATS access epoch toward everyone else and puts the
/// factored panel; the others expose toward the owner and wait.
pub fn lu_ir(n_ranks: usize, panels: usize) -> IrProgram {
    assert!(n_ranks >= 2);
    let mut p = IrProgram::new(n_ranks, WIN_BYTES);
    for k in 0..panels {
        let owner = k % n_ranks;
        let disp = (k % 8) * 8;
        for me in 0..n_ranks {
            let stmts = &mut p.ranks[me];
            if me == owner {
                let others: Vec<usize> = (0..n_ranks).filter(|&r| r != me).collect();
                stmts.push(Stmt::Start { win: 0, group: others.clone() });
                for t in others {
                    stmts.push(Stmt::Put { win: 0, target: t, disp, len: 8 });
                }
                stmts.push(Stmt::Complete { win: 0, close: Close::Blocking });
            } else {
                stmts.push(Stmt::Post { win: 0, group: vec![owner] });
                stmts.push(Stmt::WaitEpoch { win: 0, close: Close::Blocking });
            }
        }
    }
    p
}

/// IR twin of [`crate::transactions`]: each transaction takes an
/// exclusive lock on a pseudo-random peer, accumulates into one of its
/// slots, and unlocks. One lock held at a time, so no lock-order cycle;
/// all updates are `Sum`, so concurrent epochs stay compatible.
pub fn transactions_ir(n_ranks: usize, txs: usize) -> IrProgram {
    assert!(n_ranks >= 2);
    let mut p = IrProgram::new(n_ranks, WIN_BYTES);
    for me in 0..n_ranks {
        let mut rng = 0x5eed_0000_u64 + me as u64;
        let stmts = &mut p.ranks[me];
        for _ in 0..txs {
            let target = {
                let t = (splitmix64(&mut rng) as usize) % (n_ranks - 1);
                if t >= me { t + 1 } else { t }
            };
            let disp = ((splitmix64(&mut rng) as usize) % 8) * 8;
            stmts.push(Stmt::Lock { win: 0, target, exclusive: true, nonblocking: false });
            stmts.push(Stmt::Acc { win: 0, target, disp, len: 8, op: ReduceOp::Sum });
            stmts.push(Stmt::Unlock { win: 0, target, close: Close::Blocking });
        }
    }
    p
}

/// IR twin of [`crate::bank`]'s transfer loop: one `lock_all` epoch per
/// rank, each transfer a value-producing balance read
/// (`fetch_and_op(NO_OP)`) plus a `Sum` credit, flushed per transfer
/// exactly as the kernel does. The reads bind IR locals, so this twin
/// also exercises the value-aware statements on an analyzer-clean
/// program (no spin, hence no E018).
pub fn bank_ir(n_ranks: usize, transfers: usize) -> IrProgram {
    assert!(n_ranks >= 2);
    let mut p = IrProgram::new(n_ranks, WIN_BYTES);
    for me in 0..n_ranks {
        let mut rng = 0xba2c_0000_u64 + me as u64;
        let stmts = &mut p.ranks[me];
        stmts.push(Stmt::LockAll { win: 0, nonblocking: false });
        for i in 0..transfers {
            let target = {
                let t = (splitmix64(&mut rng) as usize) % (n_ranks - 1);
                if t >= me { t + 1 } else { t }
            };
            let disp = ((splitmix64(&mut rng) as usize) % 8) * 8;
            stmts.push(Stmt::ReadValue {
                win: 0,
                target,
                disp,
                kind: FetchKind::FetchOp(ReduceOp::NoOp),
                local: i,
            });
            stmts.push(Stmt::AccVal {
                win: 0,
                target,
                disp,
                op: ReduceOp::Sum,
                val: 1 + (i as u64 % 7),
            });
            stmts.push(Stmt::Flush {
                win: 0,
                target: Some(target),
                local_only: false,
                close: Close::Blocking,
            });
        }
        stmts.push(Stmt::UnlockAll { win: 0, close: Close::Blocking });
        stmts.push(Stmt::Barrier);
    }
    p
}

/// Every application twin at a common scale, labelled for figures and
/// sweeps. `short` is the CI smoke scale.
pub fn suite(short: bool) -> Vec<(&'static str, IrProgram)> {
    let (r, it) = if short { (4, 4) } else { (8, 12) };
    vec![
        ("halo", halo_ir(r, it)),
        ("stencil2d", stencil2d_ir(r, it)),
        ("lu", lu_ir(r, it)),
        ("transactions", transactions_ir(r, it)),
        ("bank", bank_ir(r, it)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpisim_analyze::{analyze, rewrite};

    #[test]
    fn every_twin_is_analyzer_clean() {
        for (name, p) in suite(true).into_iter().chain(suite(false)) {
            let diags = analyze(&p);
            assert!(diags.is_empty(), "{name}: {diags:?}");
        }
    }

    #[test]
    fn rewriter_finds_slack_in_every_twin_and_stays_clean() {
        for (name, p) in suite(false) {
            let (rw, rep) = rewrite(&p);
            if name == "transactions" {
                // Every unlock here releases a contended exclusive
                // lock; the rewriter's contention veto declines them
                // all (relaxing any one defers a release some peer's
                // acquire is waiting on).
                assert_eq!(rep.relaxed, 0, "{name}: contended unlock was relaxed");
                assert!(rep.skipped > 0, "{name}: veto left no trace in `skipped`");
                assert_eq!(rw, p, "{name}: program changed despite the veto");
                continue;
            }
            assert!(rep.changed(), "{name}: rewriter found nothing");
            let diags = analyze(&rw);
            assert!(diags.is_empty(), "{name} rewritten: {diags:?}");
            // Second application reaches the same fixpoint.
            let (rw2, _) = rewrite(&rw);
            assert_eq!(rw, rw2, "{name}: rewrite not idempotent");
        }
    }

    #[test]
    fn twins_are_deterministic() {
        assert_eq!(transactions_ir(6, 5), transactions_ir(6, 5));
        assert_eq!(bank_ir(6, 5), bank_ir(6, 5));
        assert_eq!(suite(true), suite(true));
    }
}
