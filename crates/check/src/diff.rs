//! Differential checking: every generated program is executed across the
//! full strategy × API matrix under a sweep of schedule perturbations, and
//! each run must (a) be clean under the static analyzer on the lowered
//! call sequence, (b) reproduce the sequential oracle byte for byte,
//! (c) pass the trace-invariant audit, and (d) be free of happens-before
//! races under the vector-clock detector.

use mpisim_analyze::{analyze, detect_races, Diagnostic, Race};
use mpisim_core::SyncStrategy;

use crate::audit::{audit, Violation};
use crate::lower::lower;
use crate::program::{generate, oracle, Family, Program};
use crate::run::{execute_lowered, RunFailure, RunSpec};

/// Why one run failed.
#[derive(Clone, Debug)]
pub enum FailureKind {
    /// The static analyzer rejected the lowered program before execution.
    Static(Vec<Diagnostic>),
    /// Final memory or get results differ from the sequential oracle.
    Divergence(String),
    /// The trace auditor found protocol violations.
    Violations(Vec<Violation>),
    /// The happens-before race detector found unordered conflicting
    /// accesses in the sync records of the run's trace.
    Races(Vec<Race>),
    /// The simulation deadlocked.
    Deadlock(String),
    /// A rank or the engine panicked.
    Panic(String),
    /// The run terminated but only degraded — the reliability sublayer or
    /// the stall watchdog had to give up on something (a fault-sweep run
    /// must recover *cleanly*, not merely terminate).
    Degraded(Vec<String>),
}

impl FailureKind {
    /// The kind's name, as the detector column of [`crate::PLANTS`] and
    /// DESIGN.md §8 spell it.
    pub fn name(&self) -> &'static str {
        match self {
            FailureKind::Static(_) => "static",
            FailureKind::Divergence(_) => "divergence",
            FailureKind::Violations(_) => "violations",
            FailureKind::Races(_) => "races",
            FailureKind::Deadlock(_) => "deadlock",
            FailureKind::Panic(_) => "panic",
            FailureKind::Degraded(_) => "degraded",
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn list<T: std::fmt::Display>(
            f: &mut std::fmt::Formatter<'_>,
            what: &str,
            items: &[T],
        ) -> std::fmt::Result {
            write!(f, "{} {what}:", items.len())?;
            items.iter().try_for_each(|item| write!(f, "\n  {item}"))
        }
        match self {
            FailureKind::Static(ds) => list(f, "static diagnostic(s)", ds),
            FailureKind::Divergence(d) => write!(f, "divergence: {d}"),
            FailureKind::Violations(vs) => list(f, "invariant violation(s)", vs),
            FailureKind::Races(rs) => list(f, "happens-before race(s)", rs),
            FailureKind::Deadlock(d) => write!(f, "{d}"),
            FailureKind::Panic(d) => write!(f, "panic: {d}"),
            FailureKind::Degraded(ds) => list(f, "degradation(s)", ds),
        }
    }
}

/// Which checking layers [`verify_with`] applies around the run.
#[derive(Copy, Clone, Debug)]
pub struct VerifyOpts {
    /// Run the static analyzer on the lowered program before executing.
    pub static_analysis: bool,
    /// Run the happens-before race detector on the sync records of the run's trace.
    pub races: bool,
    /// Named network fault plan applied to every run of the sweep
    /// (see [`mpisim_net::FaultPlan::by_name`]).
    pub fault_plan: Option<&'static str>,
    /// Arm the reliability sublayer + stall watchdog in every run.
    pub reliable: bool,
}

impl Default for VerifyOpts {
    fn default() -> Self {
        VerifyOpts { static_analysis: true, races: true, fault_plan: None, reliable: false }
    }
}

/// A failing (program, spec) pair.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Why it failed.
    pub kind: FailureKind,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.kind.fmt(f)
    }
}

/// [`verify_with`] under the default options (every layer on).
pub fn verify(program: &Program, spec: &RunSpec) -> Result<(), Failure> {
    verify_with(program, spec, VerifyOpts::default())
}

/// Execute `program` under `spec` and check it end to end: static
/// analysis of the lowered call sequence, oracle comparison, trace audit,
/// and happens-before race detection. `Ok(())` means the run is
/// conformant under every enabled layer.
pub fn verify_with(program: &Program, spec: &RunSpec, opts: VerifyOpts) -> Result<(), Failure> {
    let ir = lower(program, spec.nonblocking);
    if opts.static_analysis {
        let diags = analyze(&ir);
        if !diags.is_empty() {
            return Err(Failure { kind: FailureKind::Static(diags) });
        }
    }
    let expected = oracle(program);
    let out = match execute_lowered(&ir, spec, true) {
        Ok(out) => out,
        Err(RunFailure::Deadlock(d)) => {
            return Err(Failure { kind: FailureKind::Deadlock(d) });
        }
        Err(RunFailure::Panic(p)) => return Err(Failure { kind: FailureKind::Panic(p) }),
    };
    // Under a fault plan, terminating is not enough: the sublayer must
    // have repaired every injected fault with zero residual degradations.
    if !out.report.is_clean() {
        return Err(Failure {
            kind: FailureKind::Degraded(
                out.report.degradations.iter().map(|d| d.to_string()).collect(),
            ),
        });
    }
    for (r, (got, want)) in out.mems.iter().zip(expected.mems.iter()).enumerate() {
        if got != want {
            return Err(Failure {
                kind: FailureKind::Divergence(format!(
                    "rank {r} window: got {got:?}, oracle {want:?}"
                )),
            });
        }
    }
    if out.gets != expected.gets {
        return Err(Failure {
            kind: FailureKind::Divergence(format!(
                "get results: got {:?}, oracle {:?}",
                out.gets, expected.gets
            )),
        });
    }
    let violations = audit(&out.report);
    if !violations.is_empty() {
        return Err(Failure { kind: FailureKind::Violations(violations) });
    }
    if opts.races {
        let races = detect_races(&out.report);
        if !races.is_empty() {
            return Err(Failure { kind: FailureKind::Races(races) });
        }
    }
    Ok(())
}

/// One recorded failure of a sweep.
#[derive(Clone, Debug)]
pub struct FoundFailure {
    /// The failing program.
    pub program: Program,
    /// The failing matrix point.
    pub spec: RunSpec,
    /// What went wrong.
    pub failure: Failure,
}

/// Outcome of sweeping one family.
#[derive(Clone, Debug, Default)]
pub struct SweepReport {
    /// Total runs executed.
    pub runs: u64,
    /// Every failure found (first per matrix point; the sweep continues).
    pub failures: Vec<FoundFailure>,
}

/// The strategy × API matrix every program is pushed through.
pub const MATRIX: [(SyncStrategy, bool); 4] = [
    (SyncStrategy::Redesigned, false),
    (SyncStrategy::Redesigned, true),
    (SyncStrategy::LazyBaseline, false),
    (SyncStrategy::LazyBaseline, true),
];

/// The spec for perturbation seed `s` of one matrix point. Seed 0 is the
/// unperturbed FIFO schedule on the baseline network; later seeds walk the
/// jitter × credit grid and the kernel tie-break space simultaneously.
pub fn spec_for_seed(
    strategy: SyncStrategy,
    nonblocking: bool,
    s: u64,
    fault: &Option<String>,
) -> RunSpec {
    RunSpec {
        strategy,
        nonblocking,
        net_profile: s % 16,
        tiebreak_seed: if s == 0 { None } else { Some(s) },
        sim_seed: 7 + s,
        fault: fault.clone(),
        fault_plan: None,
        reliable: false,
        crash_at: None,
    }
}

/// [`sweep_family_with`] under the default options (every layer on).
pub fn sweep_family(
    family: Family,
    programs: u64,
    seeds: u64,
    fault: &Option<String>,
) -> SweepReport {
    sweep_family_with(family, programs, seeds, fault, VerifyOpts::default())
}

/// Sweep one family: `programs` generated programs, each run under
/// `seeds` perturbed schedules for all four matrix points. `fault`
/// injects an engine bug into every run (the harness's self-test);
/// `opts` selects the checking layers applied to every run.
pub fn sweep_family_with(
    family: Family,
    programs: u64,
    seeds: u64,
    fault: &Option<String>,
    opts: VerifyOpts,
) -> SweepReport {
    let mut report = SweepReport::default();
    for idx in 0..programs {
        let program = generate(family, idx);
        for (strategy, nonblocking) in MATRIX {
            for s in 0..seeds {
                let mut spec = spec_for_seed(strategy, nonblocking, s, fault);
                spec.fault_plan = opts.fault_plan.map(String::from);
                spec.reliable = opts.reliable;
                report.runs += 1;
                if let Err(failure) = verify_with(&program, &spec, opts) {
                    report.failures.push(FoundFailure {
                        program: program.clone(),
                        spec,
                        failure,
                    });
                    // One failure per (program, matrix point) is enough;
                    // move to the next point rather than repeat it 16×.
                    break;
                }
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_sweep_is_green() {
        // One program per family, a few seeds, full matrix: no failures.
        for family in Family::ALL {
            let r = sweep_family(family, 1, 3, &None);
            assert_eq!(r.runs, 12, "{family:?}");
            assert!(
                r.failures.is_empty(),
                "{family:?}: {}",
                r.failures.iter().map(|f| f.failure.to_string()).collect::<Vec<_>>().join("; ")
            );
        }
    }

    #[test]
    fn drop_storm_without_sublayer_is_detected() {
        // 35% frame loss with the reliability sublayer OFF must produce a
        // detectable failure (deadlocked blocking sync, a panic from
        // out-of-order grants, or outright divergence) — this is the
        // harness's proof that the fault plans have teeth.
        let program = generate(Family::MixedSerial, 0);
        let mut spec = RunSpec::baseline(SyncStrategy::Redesigned, false);
        spec.fault_plan = Some("drop-storm".into());
        let err = verify(&program, &spec).expect_err("an unprotected storm must be caught");
        assert!(
            matches!(
                err.kind,
                FailureKind::Deadlock(_)
                    | FailureKind::Panic(_)
                    | FailureKind::Divergence(_)
                    | FailureKind::Violations(_)
            ),
            "got {err}"
        );
    }

    #[test]
    fn faulty_sweep_with_sublayer_is_green() {
        // The same machinery with the sublayer on: a lossy sweep must be
        // not just terminating but conformant and degradation-free.
        let opts = VerifyOpts { fault_plan: Some("light-loss"), reliable: true, ..VerifyOpts::default() };
        let r = sweep_family_with(Family::MixedSerial, 1, 2, &None, opts);
        assert_eq!(r.runs, 8);
        assert!(
            r.failures.is_empty(),
            "{}",
            r.failures.iter().map(|f| f.failure.to_string()).collect::<Vec<_>>().join("; ")
        );
    }

    #[test]
    fn double_acc_fault_diverges() {
        // A program with at least one accumulate must diverge when every
        // eager accumulate is applied twice.
        let program = Program::single_origin(
            Family::MixedSerial,
            3,
            vec![crate::program::Epoch::Lock {
                target: 1,
                ops: vec![crate::program::Op::AccSum { target: 1, slot: 0, operand: 5 }],
            }],
        );
        let mut spec = RunSpec::baseline(SyncStrategy::Redesigned, false);
        spec.fault = Some("double-acc".into());
        let err = verify(&program, &spec).expect_err("injected bug must be caught");
        assert!(matches!(err.kind, FailureKind::Divergence(_)), "got {err}");
    }
}
