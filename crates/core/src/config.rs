//! Job-level configuration: synchronization strategy, window info keys,
//! and the optional subsystems a job arms.

use mpisim_net::NetParams;
use mpisim_sim::SimTime;

use crate::engine::Fault;
use crate::epoch::{Side, Slot};

/// Which RMA engine behaviour the job runs with.
///
/// The paper's evaluation compares three series; the first two map to this
/// enum, and the third is the `Redesigned` engine driven through the
/// nonblocking API:
///
/// * **"MVAPICH"** → [`SyncStrategy::LazyBaseline`]: lazy lock acquisition
///   (the whole passive-target epoch degenerates to the `unlock` call), RMA
///   issued at the epoch-closing routine, and all internode targets must be
///   ready before communication is issued to any of them (§VIII.B).
/// * **"New"** → [`SyncStrategy::Redesigned`] with blocking calls.
/// * **"New nonblocking"** → [`SyncStrategy::Redesigned`] with the
///   `i`-routines.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SyncStrategy {
    /// Vanilla-MVAPICH-like behaviour (the paper's baseline series).
    LazyBaseline,
    /// The paper's redesigned engine: eager per-target issue, deferred
    /// epochs, nonblocking synchronizations available.
    Redesigned,
}

/// Per-window info-object flags (§VI.B): the four reorder flags that allow
/// the progress engine to activate an epoch while the immediately preceding
/// one is still active. All default to off, which guarantees
/// memory-consistency safety.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct WinInfo {
    /// `MPI_WIN_ACCESS_AFTER_ACCESS_REORDER`: an origin-side epoch may
    /// progress while the immediately preceding origin-side epoch is active.
    pub access_after_access: bool,
    /// `MPI_WIN_ACCESS_AFTER_EXPOSURE_REORDER`: an origin-side epoch may
    /// progress while the immediately preceding exposure epoch is active.
    pub access_after_exposure: bool,
    /// `MPI_WIN_EXPOSURE_AFTER_EXPOSURE_REORDER`: a target-side epoch may
    /// progress while the immediately preceding target-side epoch is active.
    pub exposure_after_exposure: bool,
    /// `MPI_WIN_EXPOSURE_AFTER_ACCESS_REORDER`: a target-side epoch may
    /// progress while the immediately preceding origin-side epoch is active.
    pub exposure_after_access: bool,
    /// **Extension (the paper's §X future work):** let the four reorder
    /// flags also apply across *fence* epochs. A fence epoch is both an
    /// access and an exposure epoch, so the pairwise predicate requires
    /// the flags of both sides. The barrier semantics of the closed fence
    /// are still honoured for the fence's own completion — only the
    /// *activation* of the adjacent epoch may overlap it. Off by default;
    /// the programmer asserts disjoint memory accesses, exactly as for
    /// the four base flags (§VI.C). `lock_all` adjacency remains excluded
    /// unconditionally (recursive-locking / lock-and-exposed hazards,
    /// §VI.B).
    pub unsafe_fence_reorder: bool,
}

impl WinInfo {
    /// All four reorder flags enabled (the programmer asserts disjoint
    /// memory accesses across concurrently progressed epochs). The fence
    /// extension stays off.
    pub fn all_reorder() -> Self {
        WinInfo {
            access_after_access: true,
            access_after_exposure: true,
            exposure_after_exposure: true,
            exposure_after_access: true,
            unsafe_fence_reorder: false,
        }
    }

    /// Only `A_A_A_R` enabled.
    pub fn aaar() -> Self {
        WinInfo {
            access_after_access: true,
            ..WinInfo::default()
        }
    }

    /// The info the lazy baseline activates under (DESIGN.md §6, deviation
    /// 3): it has no deferred-epoch queue, so a rank's access and exposure
    /// epochs progress independently (MPI requires a process to be origin
    /// and target at once), while same-side epochs never overlap under its
    /// blocking calls. `lock_all` and fence epochs stay excluded.
    pub(crate) const BASELINE: WinInfo = WinInfo {
        access_after_access: false,
        access_after_exposure: true,
        exposure_after_exposure: false,
        exposure_after_access: true,
        unsafe_fence_reorder: false,
    };

    /// The §VI.B activation rule, for the engine and the static walk
    /// alike: whether an epoch in slot `next` may progress while the epoch
    /// before it, in `prev`, is still active. Never across a `lock_all`
    /// epoch, nor across a fence epoch without `unsafe_fence_reorder`;
    /// otherwise every (prev side, next side) pair the two slots span
    /// needs its flag, a fence spanning both sides.
    pub fn overlaps(&self, prev: Slot, next: Slot) -> bool {
        let excluded =
            |s: Slot| s == Slot::LockAll || (s == Slot::Fence && !self.unsafe_fence_reorder);
        let spans = |s: Slot, side: Side| s.side() == side || s.side() == Side::Both;
        let flags = [
            (Side::Access, Side::Access, self.access_after_access),
            (Side::Exposure, Side::Access, self.access_after_exposure),
            (Side::Exposure, Side::Exposure, self.exposure_after_exposure),
            (Side::Access, Side::Exposure, self.exposure_after_access),
        ];
        !excluded(prev)
            && !excluded(next)
            && flags.into_iter().all(|(p, n, flag)| flag || !(spans(prev, p) && spans(next, n)))
    }
}

/// Everything needed to run one simulated MPI job.
#[derive(Clone, Debug)]
pub struct JobConfig {
    /// Number of ranks.
    pub n_ranks: usize,
    /// Ranks per node (block placement).
    pub cores_per_node: usize,
    /// Network cost model.
    pub net: NetParams,
    /// Engine strategy (baseline vs redesigned).
    pub strategy: SyncStrategy,
    /// Deterministic seed.
    pub seed: u64,
    /// Record epoch lifecycle traces (see [`crate::trace`]).
    pub trace: bool,
    /// Seeded tie-break perturbation for same-time simulator events
    /// (`None` = FIFO order). Each seed selects one legal alternative
    /// schedule; the conformance harness sweeps this to explore the
    /// schedule space (see `mpisim_sim::TieBreak::Seeded`).
    pub tiebreak_seed: Option<u64>,
    /// Named runtime bug to plant, used only by the conformance harness to
    /// prove it catches real bugs. `None` (the default) and `Some("")`
    /// inject nothing; any other value is the [`Fault::name`] of one of
    /// [`Fault::ALL`] (see [`JobConfig::injected`]).
    pub fault: Option<String>,
    /// Ack/retransmit reliability sublayer for internode traffic (`false`
    /// = off, the pre-fault-model behaviour; DESIGN.md §11.2). Required for
    /// clean runs whenever `net.faults` injects loss, duplication,
    /// reordering, or corruption.
    pub reliability: bool,
    /// Epoch-aligned checkpointing and crash recovery (DESIGN.md §16):
    /// every rank checkpoints its window contents and ω-triples at every
    /// epoch commit and journals later window writes into a redo log; a
    /// rank crashed by the fault plan's `crash_at_commit` list is
    /// restarted from its last checkpoint after a bounded 1 ms outage.
    /// Requires the reliability sublayer (the outage is bridged by
    /// retransmission, like a transient partition).
    pub recovery: bool,
    /// Epoch stall watchdog: the sim-time budget an open epoch or pending
    /// request may go without progress before it is cancelled and
    /// surfaced as a structured `StallReport` (`None` = no watchdog; a
    /// genuinely stuck schedule then surfaces as a simulator deadlock).
    pub watchdog: Option<SimTime>,
}

impl JobConfig {
    /// A job of `n_ranks` on the calibrated QDR-InfiniBand-like cluster with
    /// 16 cores per node and the redesigned engine.
    pub fn new(n_ranks: usize) -> Self {
        JobConfig {
            n_ranks,
            cores_per_node: 16,
            net: NetParams::qdr_infiniband(),
            strategy: SyncStrategy::Redesigned,
            seed: 0xC0FFEE,
            trace: false,
            tiebreak_seed: None,
            fault: None,
            reliability: false,
            recovery: false,
            watchdog: None,
        }
    }

    /// Same, but every rank on its own node (all channels internode) — the
    /// configuration used by the paper's microbenchmarks.
    pub fn all_internode(n_ranks: usize) -> Self {
        JobConfig {
            cores_per_node: 1,
            ..JobConfig::new(n_ranks)
        }
    }

    /// Switch to the lazy baseline strategy.
    pub fn with_strategy(mut self, s: SyncStrategy) -> Self {
        self.strategy = s;
        self
    }

    /// Override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enable the reliability sublayer.
    pub fn with_reliability(mut self) -> Self {
        self.reliability = true;
        self
    }

    /// Arm the epoch stall watchdog with the given progress budget.
    pub fn with_watchdog(mut self, budget: SimTime) -> Self {
        self.watchdog = Some(budget);
        self
    }

    /// The planted bug [`JobConfig::fault`] names, if any.
    ///
    /// # Panics
    ///
    /// On a name that is not one of [`Fault::ALL`].
    pub fn injected(&self) -> Option<Fault> {
        let name = self.fault.as_deref().filter(|n| !n.is_empty())?;
        Some(Fault::from_name(name).unwrap_or_else(|| {
            panic!("unknown injected fault {name:?}; known: {:?}", Fault::ALL.map(Fault::name))
        }))
    }

    /// Name the one execution vehicle explicitly: stores nothing.
    pub fn with_exec(self, exec: ExecMode) -> Self {
        let ExecMode::Pooled { workers } = exec;
        debug_assert_eq!(workers, 0, "ranks run inline on the driver thread only");
        self
    }
}

/// How rank processes execute: as fibers resumed inline on the driver
/// thread, the only vehicle there is. Kept as a type so callers that name
/// it explicitly ([`JobConfig::with_exec`]) still compile.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ExecMode {
    /// Fibers on the driver thread; `workers` must be 0.
    Pooled {
        /// Pool worker threads besides the driver: always 0.
        workers: usize,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = JobConfig::new(8);
        assert_eq!(c.n_ranks, 8);
        assert_eq!(c.strategy, SyncStrategy::Redesigned);
        let c2 = JobConfig::all_internode(4);
        assert_eq!(c2.cores_per_node, 1);
    }

    #[test]
    fn fault_names_round_trip() {
        for f in Fault::ALL {
            assert_eq!(Fault::from_name(f.name()), Some(f));
        }
        assert_eq!(Fault::from_name(""), None);
        let mut c = JobConfig::new(2);
        assert_eq!(c.injected(), None);
        c.fault = Some(String::new());
        assert_eq!(c.injected(), None);
        c.fault = Some(Fault::StaleRestore.name().into());
        assert_eq!(c.injected(), Some(Fault::StaleRestore));
    }

    #[test]
    #[should_panic(expected = "known: [")]
    fn unknown_fault_names_the_known_ones() {
        let mut c = JobConfig::new(2);
        c.fault = Some("skip-grnt".into());
        c.injected();
    }

    /// §VI.B's table under each info: a row is the slot of the active
    /// epoch, a column the slot of the next one, in the order access,
    /// lock, exposure, `lock_all`, fence; `x` marks a pair that may
    /// overlap.
    #[test]
    fn the_reorder_rule_is_section_vi_b_table() {
        use crate::types::Rank;
        let slots =
            [Slot::GatsAccess, Slot::Lock(Rank(1)), Slot::Exposure, Slot::LockAll, Slot::Fence];
        let off = WinInfo::default();
        let all_ext = WinInfo { unsafe_fence_reorder: true, ..WinInfo::all_reorder() };
        let access_ext = WinInfo {
            access_after_access: true,
            access_after_exposure: true,
            unsafe_fence_reorder: true,
            ..off
        };
        let none = [".....", ".....", ".....", ".....", "....."];
        #[rustfmt::skip]
        let table: [(&str, WinInfo, [&str; 5]); 10] = [
            ("no flag", off, none),
            ("fence extension alone", WinInfo { unsafe_fence_reorder: true, ..off }, none),
            ("A_A_A_R", WinInfo::aaar(), ["xx...", "xx...", ".....", ".....", "....."]),
            ("A_A_E_R", WinInfo { access_after_exposure: true, ..off },
                [".....", ".....", "xx...", ".....", "....."]),
            ("E_A_E_R", WinInfo { exposure_after_exposure: true, ..off },
                [".....", ".....", "..x..", ".....", "....."]),
            ("E_A_A_R", WinInfo { exposure_after_access: true, ..off },
                ["..x..", "..x..", ".....", ".....", "....."]),
            ("all four", WinInfo::all_reorder(), ["xxx..", "xxx..", "xxx..", ".....", "....."]),
            ("all four + fence extension", all_ext, ["xxx.x", "xxx.x", "xxx.x", ".....", "xxx.x"]),
            ("access flags + fence extension", access_ext,
                ["xx...", "xx...", "xx...", ".....", "xx..."]),
            ("lazy baseline", WinInfo::BASELINE, ["..x..", "..x..", "xx...", ".....", "....."]),
        ];
        for (name, info, rows) in table {
            for (prev, row) in slots.into_iter().zip(rows) {
                let got: String = slots
                    .into_iter()
                    .map(|next| if info.overlaps(prev, next) { 'x' } else { '.' })
                    .collect();
                assert_eq!(got, row, "{name}: {prev:?} then each of {slots:?}");
            }
        }
    }
}
