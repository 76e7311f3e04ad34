//! Crash-recovery conformance family: crash any rank at any epoch-commit
//! point, under any fault plan — the job must still converge byte-identically
//! to the sequential oracle.
//!
//! Unlike the clean sweeps in [`crate::diff`], a crash run is *supposed* to
//! degrade: every crash is recorded as a
//! [`mpisim_core::Degradation::Recovered`] entry. The family therefore runs
//! its own verdict instead of [`crate::verify_with`]: the run must terminate,
//! reproduce the oracle's memories and get results exactly, record at least
//! one recovery, and record **only** `recovered`-kind degradations — every
//! one of them a healthy restore (no stale flag, no ω regression).
//!
//! Crash points are not guessed: a fault-free probe run first reads each
//! rank's `epochs_committed` counter from the job report, which enumerates
//! exactly the commit ordinals (1-based) at which
//! `FaultPlan::crash_at_commit` can fire. The sweep then samples
//! (rank, commit) points across that space — first, middle, and last commit
//! of every rank — and replays each point both on the pristine network and
//! under the `light-loss` fault plan, alternating blocking and nonblocking
//! epoch closes.
//!
//! A static leg rides along with the dynamic sweep: for every rank the
//! sweep crashes, the lowered program is run through the analyzer twice —
//! declared crashed **without** recovery it must trip
//! [`mpisim_analyze::Code::E012`] (unguarded remote dependency), and
//! declared crashed-then-restarted (`IrProgram::recovered`) it must be
//! analyzer-clean. The recovery-aware E-rule relaxation thereby certifies
//! statically exactly what the differential runs then demonstrate
//! dynamically.
//!
//! The family proves its teeth the same way the other harness layers do:
//! under the `bad-recovery` plant it restores deliberately stale
//! ([`mpisim_core::Fault::StaleRestore`] keeps only the window-allocation
//! baseline checkpoint and skips redo-log replay at restart) and requires the
//! differential comparison to observe the divergence on **every** planted
//! run — the `--inject bad-recovery` CLI self-test exit-inverts on exactly
//! this condition.

use crate::lower::lower;
use crate::program::{generate, oracle, Family, Program};
use crate::run::{execute, RunSpec};
use crate::suite::{Outcome, Plant};
use mpisim_analyze::{analyze, has_code, Code};
use mpisim_core::SyncStrategy;

/// Cap on sampled crash points per program: enough to hit several ranks at
/// early/middle/late commits without exploding the sweep.
const MAX_POINTS_PER_PROGRAM: usize = 4;

/// Fault plans each crash point is replayed under (`None` = pristine
/// network). A crash must be survivable both alone and stacked on top of
/// the loss the reliability sublayer is already repairing.
const PLANS: [Option<&str>; 2] = [None, Some("light-loss")];

/// Generate the program, probe it fault-free and return it with each
/// rank's final epoch-commit count — the valid crash ordinals for rank `r` are `1..=counts[r]`.
/// Commit counts are structural (they follow the program's epoch
/// schedule), so one blocking-close probe covers every later variant.
fn probe_commits(family: Family, idx: u64, report: &mut Outcome) -> Option<(Program, Vec<u64>)> {
    let program = generate(family, idx);
    let mut spec = RunSpec::baseline(SyncStrategy::Redesigned, false);
    spec.sim_seed = 7 + idx;
    report.runs += 1;
    match execute(&program, &spec) {
        Ok(out) => {
            Some((program, out.report.ranks.iter().map(|r| r.epochs_committed).collect()))
        }
        Err(f) => {
            report.failures.push(format!("{family:?} #{idx}: probe run failed: {f}"));
            None
        }
    }
}

/// Sample up to [`MAX_POINTS_PER_PROGRAM`] (rank, commit) crash points from
/// the probed commit counts: first, middle, and last commit of every rank,
/// deduplicated, then strided evenly so the sample spreads across ranks.
fn sample_points(counts: &[u64]) -> Vec<(usize, u64)> {
    let mut cands = Vec::new();
    for (r, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        let mut commits = vec![1, c.div_ceil(2), c];
        commits.dedup();
        for n in commits {
            cands.push((r, n));
        }
    }
    if cands.len() <= MAX_POINTS_PER_PROGRAM {
        return cands;
    }
    (0..MAX_POINTS_PER_PROGRAM)
        .map(|i| cands[i * cands.len() / MAX_POINTS_PER_PROGRAM])
        .collect()
}

/// Sweep the crash-recovery family: `width` programs per conformance
/// family, each crashed at sampled commit points under every plan in
/// [`PLANS`]. Every crash run must converge to the oracle with nothing but
/// healthy `recovered` degradations. Under the `bad-recovery` plant every
/// restore is stale instead and must be seen to diverge.
pub fn crossval_recovery(width: u64, plant: Option<&Plant>) -> Outcome {
    if let Some(fault) = plant.and_then(Plant::engine_fault) {
        return stale_restores(width, fault);
    }
    let mut report = Outcome::default();
    let (mut programs, mut crash_points, mut recovered, mut e012_checks) = (0u64, 0u64, 0u64, 0u64);
    for family in Family::ALL {
        for idx in 0..width {
            programs += 1;
            let Some((program, counts)) = probe_commits(family, idx, &mut report) else {
                continue;
            };
            let expected = oracle(&program);
            let points = sample_points(&counts);
            // Static leg — the recovery-aware E012 relaxation must agree
            // with what the sweep is about to demonstrate dynamically:
            // crashing any of these ranks *without* recovery leaves a
            // dependency hazard (every lowered program ends in a barrier
            // the dead rank never joins), and declaring the rank
            // crashed-then-restarted relaxes exactly that.
            let crash_ranks: std::collections::BTreeSet<usize> =
                points.iter().map(|&(r, _)| r).collect();
            for r in crash_ranks {
                e012_checks += 1;
                let mut ir = lower(&program, false);
                ir.crashed = vec![r];
                if !has_code(&analyze(&ir), Code::E012) {
                    report.failures.push(format!(
                        "{family:?} #{idx}: crashing rank {r} without recovery must \
                         trip E012"
                    ));
                }
                ir.recovered = vec![r];
                let diags = analyze(&ir);
                if !diags.is_empty() {
                    report.failures.push(format!(
                        "{family:?} #{idx}: crash of rank {r} with recovery must be \
                         analyzer-clean, got {diags:?}"
                    ));
                }
            }
            for (pi, (rank, commit)) in points.into_iter().enumerate() {
                crash_points += 1;
                for plan in PLANS {
                    let mut spec =
                        RunSpec::baseline(SyncStrategy::Redesigned, pi % 2 == 1);
                    spec.sim_seed = 7 + idx;
                    spec.crash_at = Some((rank, commit));
                    spec.fault_plan = plan.map(String::from);
                    report.runs += 1;
                    let tag = format!(
                        "{family:?} #{idx} crash rank {rank} at commit {commit} \
                         (plan {plan:?}, nb={})",
                        pi % 2 == 1
                    );
                    let out = match execute(&program, &spec) {
                        Ok(out) => out,
                        Err(f) => {
                            report.failures.push(format!("{tag}: {f}"));
                            continue;
                        }
                    };
                    if out.report.recoveries().next().is_none() {
                        let why = "the crash never fired or never recovered";
                        report.failures.push(format!("{tag}: {why}"));
                        continue;
                    }
                    recovered += 1;
                    let mut bad = Vec::new();
                    for d in &out.report.degradations {
                        if d.kind() != "recovered" {
                            bad.push(format!("non-recovery degradation: {d}"));
                        }
                    }
                    for r in out.report.recoveries() {
                        if r.stale || r.omega_regressions > 0 {
                            bad.push(format!("unhealthy restore: {r}"));
                        }
                    }
                    if out.report.engine.ckpt_commits == 0 {
                        bad.push("no checkpoint was ever cut".into());
                    }
                    if out.mems != expected.mems {
                        bad.push("final memories diverge from the oracle".into());
                    }
                    if out.gets != expected.gets {
                        bad.push("get results diverge from the oracle".into());
                    }
                    for b in bad {
                        report.failures.push(format!("{tag}: {b}"));
                    }
                }
            }
        }
    }
    report.detail = format!(
        "{crash_points:>4} crash points over {programs} programs ({} runs, {recovered} recovered, \
         {e012_checks} E012-relaxation checks)",
        report.runs
    );
    report
}

/// The self-test side: plant `fault`, a stale restore, in every crash run
/// and count how many plants the differential comparison catches. The crash
/// point is each victim rank's *last* commit, so the redo log discarded by
/// the backdoor is maximal; victims are restricted to ranks whose oracle
/// window is non-zero, so losing their writes is guaranteed observable.
///
/// A plant can still come up empty: when every remote write into the
/// victim's window arrives *after* its last commit (passive-target epochs
/// bump only the origin's commit counter), the redo log is empty at the
/// crash and skipping replay loses nothing. Such runs count as `vacuous`
/// and are skipped — but every *family* must yield at least one effective
/// plant across its programs' candidate victims, and every effective
/// plant must be caught.
fn stale_restores(width: u64, fault: String) -> Outcome {
    let mut report = Outcome::default();
    let (mut programs, mut vacuous) = (0u64, 0u64);
    for family in Family::ALL {
        let mut family_effective = 0u64;
        for idx in 0..width {
            programs += 1;
            let Some((program, counts)) = probe_commits(family, idx, &mut report) else {
                continue;
            };
            let expected = oracle(&program);
            // Victims: ranks that both commit epochs and end with non-zero
            // window bytes (their writes are observable when lost).
            let victims: Vec<usize> = (0..program.n_ranks)
                .filter(|&r| counts[r] > 0 && expected.mems[r].iter().any(|&b| b != 0))
                .take(4)
                .collect();
            if victims.is_empty() {
                report.failures.push(format!("{family:?} #{idx}: no plantable victim rank"));
                continue;
            }
            let mut effective = 0u64;
            for rank in victims {
                let mut spec = RunSpec::baseline(SyncStrategy::Redesigned, false);
                spec.sim_seed = 7 + idx;
                spec.crash_at = Some((rank, counts[rank]));
                spec.fault = Some(fault.clone());
                report.runs += 1;
                let tag = format!(
                    "{family:?} #{idx} stale-restore rank {rank} at commit {}",
                    counts[rank]
                );
                let out = match execute(&program, &spec) {
                    Ok(out) => out,
                    Err(f) => {
                        report.failures.push(format!("{tag}: {f}"));
                        continue;
                    }
                };
                if !out.report.recoveries().any(|r| r.stale) {
                    // The victim's redo log was empty at the crash: the
                    // stale restore lost nothing, so there is no
                    // divergence for the differential check to catch.
                    vacuous += 1;
                    continue;
                }
                effective += 1;
                report.planted += 1;
                if out.mems != expected.mems || out.gets != expected.gets {
                    report.caught += 1;
                } else {
                    report.failures.push(format!(
                        "{tag}: planted stale restore did not diverge from the oracle"
                    ));
                }
                if effective >= 2 {
                    break;
                }
            }
            family_effective += effective;
        }
        if family_effective == 0 {
            report.failures.push(format!(
                "{family:?}: no program/victim produced an effective plant"
            ));
        }
    }
    report.detail = format!(
        "{programs} programs ({width} per family), {} runs, {} planted stale restore(s) \
         ({vacuous} vacuous skipped), {} caught",
        report.runs, report.planted, report.caught
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_sampling_spreads_across_ranks_and_commits() {
        // Three ranks with enough commits for first/middle/last each: the
        // cap must keep the sample small but multi-rank.
        let pts = sample_points(&[6, 4, 5]);
        assert_eq!(pts.len(), MAX_POINTS_PER_PROGRAM);
        let ranks: std::collections::BTreeSet<usize> =
            pts.iter().map(|(r, _)| *r).collect();
        assert!(ranks.len() >= 2, "sample must span ranks: {pts:?}");
        // A rank that never commits is never a crash point.
        assert!(sample_points(&[0, 0]).is_empty());
        // One commit yields exactly one candidate, not three duplicates.
        assert_eq!(sample_points(&[1]), vec![(0, 1)]);
    }

    #[test]
    fn one_program_crash_sweep_is_green() {
        let mut report = Outcome::default();
        let (program, counts) = probe_commits(Family::MixedSerial, 0, &mut report).unwrap();
        let expected = oracle(&program);
        let (rank, commit) = sample_points(&counts)[0];
        let mut spec = RunSpec::baseline(SyncStrategy::Redesigned, false);
        spec.crash_at = Some((rank, commit));
        let out = execute(&program, &spec).unwrap();
        assert!(out.report.recoveries().next().is_some(), "the crash must fire");
        assert!(out.report.degradations.iter().all(|d| d.kind() == "recovered"));
        assert_eq!(out.mems, expected.mems);
        assert_eq!(out.gets, expected.gets);
    }

    #[test]
    fn e012_relaxation_matches_the_crash_model() {
        // The static leg's two assertions, spelled out on one program:
        // a crash without recovery is a dependency hazard, a crash with
        // recovery is analyzer-clean.
        let program = generate(Family::MixedSerial, 0);
        let mut ir = lower(&program, false);
        ir.crashed = vec![1];
        assert!(has_code(&analyze(&ir), Code::E012));
        ir.recovered = vec![1];
        assert!(analyze(&ir).is_empty());
    }
}
