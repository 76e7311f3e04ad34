//! Pinned crash-recovery regressions found by `crossval_recovery`.

use mpisim_check::program::{generate, oracle, Family};
use mpisim_check::run::{execute, RunSpec};
use mpisim_core::SyncStrategy;

/// MultiWindow #1, crash rank 0 at its first commit. Rank 0 owns no
/// operations, so its later commits land *during* its own outage
/// (their network dependencies were satisfied before the crash). The
/// every-commit checkpoint cadence then fires mid-outage; cutting that
/// checkpoint from the wiped volatile bytes folded the wipe into the
/// stable store, truncated the redo log that could have repaired it,
/// and made the scheduled restore install 0xDB over the whole window.
/// The checkpoint path must freshen crashed memory first, like every
/// other memory-touching path.
#[test]
fn mid_outage_checkpoint_must_not_snapshot_the_wipe() {
    let program = generate(Family::MultiWindow, 1);
    let expected = oracle(&program);
    let mut spec = RunSpec::baseline(SyncStrategy::Redesigned, false);
    spec.sim_seed = 8;
    spec.crash_at = Some((0, 1));
    let out = execute(&program, &spec).expect("crash run failed");
    assert!(out.report.recoveries().next().is_some(), "the crash never recovered");
    for r in out.report.recoveries() {
        assert!(!r.stale, "restore flagged stale: {r}");
        assert_eq!(r.omega_regressions, 0, "omega regressed: {r}");
    }
    assert_eq!(out.mems, expected.mems, "final memories diverge from the oracle");
    assert_eq!(out.gets, expected.gets, "get results diverge from the oracle");
}
