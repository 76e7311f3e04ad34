//! Generated RMA programs and their sequential oracles.
//!
//! A [`Program`] is the close-mode-agnostic form of a conformance program:
//! per rank, the `(window, epoch)` sequence that rank drives. It says what
//! is communicated, not which API calls do it — [`crate::lower::lower`]
//! resolves it, for one close mode, into the IR the analyzer reads and the
//! interpreter runs. What the sequential oracle and the shrinker work on
//! is this form.
//!
//! Five program families, each chosen so that a *sequential* replay of the
//! operations is a valid oracle for **every** legal schedule the simulator
//! can produce under perturbation:
//!
//! * [`Family::MixedSerial`] — one origin, mixed epoch kinds, reorder flags
//!   off. The activation predicate then serializes epochs completely, so
//!   program order is the only legal order.
//! * [`Family::DisjointReorder`] — one origin, all four reorder flags on,
//!   but every epoch owns a disjoint 16-byte region of every target window.
//!   Concurrently progressing epochs touch disjoint memory, and within an
//!   epoch per-channel FIFO keeps same-target operations ordered, so the
//!   sequential replay still predicts every byte.
//! * [`Family::MultiOriginSum`] — every rank fires `Sum` accumulates at
//!   random targets through out-of-order (`A_A_A_R`) passive epochs.
//!   Addition commutes, so the final contents are schedule-independent.
//! * [`Family::LockAllStorm`] — every rank opens a sequence of `lock_all`
//!   epochs, each batching `Sum` accumulates at random targets. Shared
//!   locks from all ranks contend at every target simultaneously and
//!   back-to-back `lock_all` epochs exercise the deferral/activation
//!   machinery (§VII.A); commutativity of `Sum` keeps the sequential
//!   replay a valid oracle for every schedule.
//! * [`Family::MultiWindow`] — one origin drives mixed epochs spread over
//!   several windows (reorder flags off), with a blocking flush inside
//!   every lock epoch. Epochs on the *same* window serialize (flags off);
//!   epochs on *different* windows may overlap but touch disjoint memory,
//!   so the sequential replay stays a valid oracle. Every rank joins each
//!   window's fence phases equally, keeping the per-window fence planes
//!   collective.
//!
//! Everything else a family's programs share — window size, reorder flags,
//! the flush before a lock epoch's close, nonblocking opens, the compute
//! pacing between epochs — is a fixed property of the [`Family`], not a
//! field of the program: the oracle argument above depends on it.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Window size (bytes) for single-origin programs.
pub const WIN_BYTES: usize = 64;
/// Window size (bytes) for multi-origin programs (8 u64 slots... 4 used).
pub const MULTI_WIN_BYTES: usize = 32;
/// Bytes of window owned by each epoch in the disjoint-region family.
pub const REGION_BYTES: usize = 16;

/// One operation inside an epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// `MPI_PUT` of `len` bytes of `val` at `disp`.
    Put {
        /// Target rank.
        target: usize,
        /// Byte displacement in the target window.
        disp: usize,
        /// Fill byte.
        val: u8,
        /// Length in bytes.
        len: usize,
    },
    /// `MPI_ACCUMULATE(SUM)` of one u64 at slot `slot`.
    AccSum {
        /// Target rank.
        target: usize,
        /// u64 slot index (byte displacement `slot * 8`).
        slot: usize,
        /// Operand.
        operand: u64,
    },
    /// `MPI_GET` of `len` bytes at `disp`; the result is checked against
    /// the oracle in program order.
    Get {
        /// Target rank.
        target: usize,
        /// Byte displacement in the target window.
        disp: usize,
        /// Length in bytes.
        len: usize,
    },
}

impl Op {
    /// The rank this operation addresses.
    pub fn target(&self) -> usize {
        match self {
            Op::Put { target, .. } | Op::AccSum { target, .. } | Op::Get { target, .. } => *target,
        }
    }
}

/// One access epoch of a rank's script.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Epoch {
    /// Fence-to-fence active epoch.
    Fence(Vec<Op>),
    /// start/complete GATS access epoch over all targets.
    Gats(Vec<Op>),
    /// Exclusive passive-target epoch on a single target.
    Lock {
        /// The locked rank (every op is retargeted to it).
        target: usize,
        /// Operations.
        ops: Vec<Op>,
    },
    /// lock_all passive epoch.
    LockAll(Vec<Op>),
}

impl Epoch {
    /// The operations inside this epoch.
    pub fn ops(&self) -> &[Op] {
        match self {
            Epoch::Fence(o) | Epoch::Gats(o) | Epoch::LockAll(o) => o,
            Epoch::Lock { ops, .. } => ops,
        }
    }

    /// Mutable view of the operations.
    pub fn ops_mut(&mut self) -> &mut Vec<Op> {
        match self {
            Epoch::Fence(o) | Epoch::Gats(o) | Epoch::LockAll(o) => o,
            Epoch::Lock { ops, .. } => ops,
        }
    }
}

/// A generated program family.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Family {
    /// Single origin, mixed epochs, reorder flags off (fully serial).
    MixedSerial,
    /// Single origin, all reorder flags on, per-epoch disjoint regions.
    DisjointReorder,
    /// Every rank accumulates sums through reordering lock epochs.
    MultiOriginSum,
    /// Every rank accumulates sums through back-to-back `lock_all` epochs.
    LockAllStorm,
    /// Single origin driving mixed epochs over several windows, with
    /// blocking flushes inside lock epochs.
    MultiWindow,
}

impl Family {
    /// All families, in sweep order.
    pub const ALL: [Family; 5] = [
        Family::MixedSerial,
        Family::DisjointReorder,
        Family::MultiOriginSum,
        Family::LockAllStorm,
        Family::MultiWindow,
    ];

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Family::MixedSerial => "mixed-serial",
            Family::DisjointReorder => "disjoint-reorder",
            Family::MultiOriginSum => "multi-origin-sum",
            Family::LockAllStorm => "lock-all-storm",
            Family::MultiWindow => "multi-window",
        }
    }

    /// Size in bytes of every window of the family's programs.
    pub fn win_bytes(self) -> usize {
        match self {
            Family::MultiOriginSum | Family::LockAllStorm => MULTI_WIN_BYTES,
            _ => WIN_BYTES,
        }
    }

    /// Whether the windows carry the reorder flags. `DisjointReorder` is
    /// safe under them because its epochs own disjoint regions,
    /// `MultiOriginSum` because sums commute; its lock-only programs have
    /// no exposure epochs, so of the four flags only `A_A_A_R` ever acts.
    pub fn reorder(self) -> bool {
        matches!(self, Family::DisjointReorder | Family::MultiOriginSum)
    }

    /// Whether a blocking flush precedes every lock epoch's close.
    pub fn flush_locks(self) -> bool {
        self == Family::MultiWindow
    }

    /// Whether, under nonblocking closes, passive epochs also *open*
    /// nonblocking (`ilock` / `ilock_all`): the dummy epoch-open request
    /// completes at creation but must still be consumed (§VII.C).
    pub fn nonblocking_opens(self) -> bool {
        matches!(self, Family::MultiOriginSum | Family::LockAllStorm)
    }

    /// Nanoseconds `rank` computes after each of its epochs (`None` = no
    /// pacing). Per-rank strides de-synchronise the all-origin families so
    /// that their lock requests interleave instead of arriving in lockstep.
    pub fn pacing_ns(self, rank: usize) -> Option<u64> {
        let rank = rank as u64;
        match self {
            Family::MultiOriginSum => Some((rank * 97 + 13) % 500),
            Family::LockAllStorm => Some((rank * 131 + 29) % 400),
            _ => None,
        }
    }
}

/// A concrete program: rank `r` drives `ranks[r]`, a sequence of
/// `(window, epoch)` pairs, over `n_wins` windows of
/// [`Family::win_bytes`] each. Every other rank cooperates with a driver's
/// active-target epochs (joins the fence pair, exposes for a GATS epoch);
/// passive-target epochs need no cooperation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    /// The family whose fixed traits the program runs under.
    pub family: Family,
    /// Total ranks in the job.
    pub n_ranks: usize,
    /// Number of windows.
    pub n_wins: usize,
    /// Per-rank scripts (`n_ranks` of them; empty = only cooperates).
    pub ranks: Vec<Vec<(usize, Epoch)>>,
}

impl Program {
    /// A one-window program only rank 0 drives.
    pub fn single_origin(family: Family, n_ranks: usize, epochs: Vec<Epoch>) -> Program {
        let mut ranks = vec![Vec::new(); n_ranks];
        ranks[0] = epochs.into_iter().map(|e| (0, e)).collect();
        Program { family, n_ranks, n_wins: 1, ranks }
    }

    /// Every `(window, epoch)` pair, rank by rank: the order the oracle
    /// replays them in and the shrinker indexes them by.
    pub fn epochs(&self) -> impl Iterator<Item = &(usize, Epoch)> {
        self.ranks.iter().flatten()
    }

    /// Total number of "shrinkable atoms" (epochs + ops): the minimizer's
    /// size metric.
    pub fn weight(&self) -> usize {
        self.epochs().map(|(_, e)| 1 + e.ops().len()).sum()
    }

    /// Render the program as a Rust expression that reconstructs it —
    /// pasted verbatim into generated reproducer tests.
    pub fn to_rust(&self) -> String {
        fn op(op: &Op) -> String {
            match op {
                Op::Put { target, disp, val, len } => {
                    format!("Op::Put {{ target: {target}, disp: {disp}, val: {val}, len: {len} }}")
                }
                Op::AccSum { target, slot, operand } => {
                    format!("Op::AccSum {{ target: {target}, slot: {slot}, operand: {operand} }}")
                }
                Op::Get { target, disp, len } => {
                    format!("Op::Get {{ target: {target}, disp: {disp}, len: {len} }}")
                }
            }
        }
        fn epoch(win: usize, e: &Epoch) -> String {
            let ops = format!("vec![{}]", e.ops().iter().map(op).collect::<Vec<_>>().join(", "));
            let body = match e {
                Epoch::Fence(_) => format!("Epoch::Fence({ops})"),
                Epoch::Gats(_) => format!("Epoch::Gats({ops})"),
                Epoch::Lock { target, .. } => {
                    format!("Epoch::Lock {{ target: {target}, ops: {ops} }}")
                }
                Epoch::LockAll(_) => format!("Epoch::LockAll({ops})"),
            };
            format!("({win}, {body})")
        }
        let scripts: Vec<String> = self
            .ranks
            .iter()
            .map(|script| {
                let eps: Vec<String> = script.iter().map(|(w, e)| epoch(*w, e)).collect();
                format!("vec![{}]", eps.join(", "))
            })
            .collect();
        format!(
            "Program {{\n        family: Family::{:?},\n        n_ranks: {},\n        n_wins: \
             {},\n        ranks: vec![\n            {},\n        ],\n    }}",
            self.family,
            self.n_ranks,
            self.n_wins,
            scripts.join(",\n            ")
        )
    }
}

/// What the program must compute, independent of schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Expected {
    /// Final window bytes per rank: the rank's windows, concatenated in
    /// allocation order — the interpreter reads them back the same way.
    pub mems: Vec<Vec<u8>>,
    /// Get results, rank by rank, in program order.
    pub gets: Vec<Vec<u8>>,
}

/// Sequential oracle: replay the program on a local memory model.
pub fn oracle(program: &Program) -> Expected {
    let win_bytes = program.family.win_bytes();
    let mut mem = vec![vec![0u8; win_bytes * program.n_wins]; program.n_ranks];
    let mut gets = Vec::new();
    for (w, e) in program.epochs() {
        let base = w * win_bytes;
        for op in e.ops() {
            match op {
                Op::Put { target, disp, val, len } => {
                    mem[*target][base + disp..base + disp + len].fill(*val);
                }
                Op::AccSum { target, slot, operand } => {
                    let word = &mut mem[*target][base + slot * 8..base + slot * 8 + 8];
                    let cur = u64::from_le_bytes((&*word).try_into().expect("8-byte slot"));
                    word.copy_from_slice(&cur.wrapping_add(*operand).to_le_bytes());
                }
                Op::Get { target, disp, len } => {
                    gets.push(mem[*target][base + disp..base + disp + len].to_vec());
                }
            }
        }
    }
    Expected { mems: mem, gets }
}

fn gen_op(rng: &mut SmallRng, n_ranks: usize, region: Option<usize>) -> Op {
    // Region `Some(i)` confines the op to bytes [i*16, (i+1)*16) — the
    // disjoint-region family's safety argument under reorder flags.
    let (lo, hi) = match region {
        Some(i) => (i * REGION_BYTES, (i + 1) * REGION_BYTES),
        None => (0, WIN_BYTES),
    };
    let target = rng.gen_range(1..n_ranks);
    match rng.gen_range(0..3u32) {
        0 => {
            let len = rng.gen_range(1..8usize).min(hi - lo);
            let disp = rng.gen_range(lo..=hi - len);
            Op::Put { target, disp, val: rng.gen::<u8>(), len }
        }
        1 => {
            let slot = rng.gen_range(lo / 8..hi / 8);
            Op::AccSum { target, slot, operand: rng.gen::<u64>() }
        }
        _ => {
            let len = rng.gen_range(1..8usize).min(hi - lo);
            let disp = rng.gen_range(lo..=hi - len);
            Op::Get { target, disp, len }
        }
    }
}

fn gen_epoch(rng: &mut SmallRng, n_ranks: usize, region: Option<usize>) -> Epoch {
    let n_ops = rng.gen_range(0..5usize);
    let mut ops: Vec<Op> = (0..n_ops).map(|_| gen_op(rng, n_ranks, region)).collect();
    match rng.gen_range(0..4u32) {
        0 => Epoch::Fence(ops),
        1 => Epoch::Gats(ops),
        2 => {
            // Lock epochs address a single target: retarget every op.
            let target = rng.gen_range(1..n_ranks);
            for op in ops.iter_mut() {
                match op {
                    Op::Put { target: t, .. }
                    | Op::AccSum { target: t, .. }
                    | Op::Get { target: t, .. } => *t = target,
                }
            }
            Epoch::Lock { target, ops }
        }
        _ => Epoch::LockAll(ops),
    }
}

/// One batch of `n` Sum-accumulates at random targets and slots: the
/// whole body of a `MultiOriginSum` or `LockAllStorm` epoch.
fn gen_sums(rng: &mut SmallRng, n_ranks: usize, n: usize) -> Vec<Op> {
    (0..n)
        .map(|_| Op::AccSum {
            target: rng.gen_range(0..n_ranks),
            slot: rng.gen_range(0..MULTI_WIN_BYTES / 8),
            operand: rng.gen_range(0..1000u64),
        })
        .collect()
}

/// Deterministically generate the `index`-th program of a family.
pub fn generate(family: Family, index: u64) -> Program {
    let mut rng = SmallRng::seed_from_u64(0x51EE_D000 ^ (index.wrapping_mul(0x9E37_79B9_7F4A_7C15)));
    let rng = &mut rng;
    match family {
        Family::MixedSerial => {
            let n_epochs = rng.gen_range(1..6usize);
            let epochs = (0..n_epochs).map(|_| gen_epoch(rng, 3, None)).collect();
            Program::single_origin(family, 3, epochs)
        }
        Family::DisjointReorder => {
            let n_epochs = rng.gen_range(2..=WIN_BYTES / REGION_BYTES);
            let epochs = (0..n_epochs).map(|i| gen_epoch(rng, 3, Some(i))).collect();
            Program::single_origin(family, 3, epochs)
        }
        Family::MultiOriginSum => {
            // One transaction = one exclusive-lock epoch around one sum.
            let n_ranks = 4;
            let ranks = (0..n_ranks)
                .map(|_| {
                    let n = rng.gen_range(1..10usize);
                    (0..n)
                        .map(|_| {
                            let ops = gen_sums(rng, n_ranks, 1);
                            (0, Epoch::Lock { target: ops[0].target(), ops })
                        })
                        .collect()
                })
                .collect();
            Program { family, n_ranks, n_wins: 1, ranks }
        }
        Family::LockAllStorm => {
            let n_ranks = 4;
            let ranks = (0..n_ranks)
                .map(|_| {
                    let n_epochs = rng.gen_range(1..4usize);
                    (0..n_epochs)
                        .map(|_| {
                            let n_accs = rng.gen_range(1..6usize);
                            (0, Epoch::LockAll(gen_sums(rng, n_ranks, n_accs)))
                        })
                        .collect()
                })
                .collect();
            Program { family, n_ranks, n_wins: 1, ranks }
        }
        Family::MultiWindow => {
            let n_wins = rng.gen_range(2..4usize);
            let n_epochs = rng.gen_range(2..7usize);
            let script =
                (0..n_epochs).map(|_| (rng.gen_range(0..n_wins), gen_epoch(rng, 3, None))).collect();
            Program { family, n_ranks: 3, n_wins, ranks: vec![script, Vec::new(), Vec::new()] }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for f in Family::ALL {
            for i in 0..4 {
                assert_eq!(generate(f, i), generate(f, i), "{f:?} #{i}");
            }
        }
        assert_ne!(generate(Family::MixedSerial, 0), generate(Family::MixedSerial, 1));
    }

    #[test]
    fn disjoint_family_respects_regions() {
        for i in 0..16 {
            let p = generate(Family::DisjointReorder, i);
            assert!(p.family.reorder());
            for (e_idx, (_, e)) in p.ranks[0].iter().enumerate() {
                let (lo, hi) = (e_idx * REGION_BYTES, (e_idx + 1) * REGION_BYTES);
                for op in e.ops() {
                    match op {
                        Op::Put { disp, len, .. } | Op::Get { disp, len, .. } => {
                            assert!(*disp >= lo && disp + len <= hi, "op escapes region");
                        }
                        Op::AccSum { slot, .. } => {
                            assert!(slot * 8 >= lo && (slot + 1) * 8 <= hi, "slot escapes region");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn oracle_applies_ops_in_order() {
        let p = Program::single_origin(
            Family::MixedSerial,
            2,
            vec![Epoch::Fence(vec![
                Op::Put { target: 1, disp: 0, val: 7, len: 4 },
                Op::AccSum { target: 1, slot: 0, operand: 1 },
                Op::Get { target: 1, disp: 0, len: 2 },
            ])],
        );
        let exp = oracle(&p);
        let word = u64::from_le_bytes(exp.mems[1][0..8].try_into().unwrap());
        assert_eq!(word, u64::from_le_bytes([7, 7, 7, 7, 0, 0, 0, 0]) + 1);
        assert_eq!(exp.gets, vec![exp.mems[1][0..2].to_vec()]);
    }

    #[test]
    fn all_origin_families_are_bounded() {
        for family in [Family::MultiOriginSum, Family::LockAllStorm] {
            for i in 0..16 {
                let p = generate(family, i);
                assert_eq!(p.ranks.len(), p.n_ranks);
                for script in &p.ranks {
                    assert!(!script.is_empty());
                    for (w, e) in script {
                        assert_eq!(*w, 0);
                        assert!(!e.ops().is_empty());
                        for op in e.ops() {
                            let Op::AccSum { target, slot, .. } = op else {
                                panic!("{family:?} #{i}: {op:?} is not a sum")
                            };
                            assert!(*target < p.n_ranks && *slot < MULTI_WIN_BYTES / 8);
                        }
                    }
                }
            }
        }
    }
}
