//! `conformance` — every family of generated RMA programs pushed through the
//! strategy × API matrix under a sweep of perturbed schedules with
//! `verify_with`, plus a slice on a lossy fabric with the reliability
//! sublayer armed.
//!
//! Why: thousands of 2–4-rank traced jobs, so `Sim::new` / `Engine::new` /
//! stack mmap per job, the trace-recording path, `audit`, `detect_races` and
//! `lower` + `analyze` dominate and steady-state sweep speed barely matters:
//! the same `core` used the opposite way from `epoch_mix_8`.

use mpisim_analyze::{analyze, detect_races};
use mpisim_check::{
    audit, execute, generate, lower, oracle, spec_for_seed, verify_with, Family, Program, RunSpec,
    VerifyOpts, MATRIX,
};
use mpisim_core::SyncStrategy;

use super::{RepOut, Setup, Workload};
use crate::span;

pub struct Conformance {
    break_check: bool,
    /// (family, corpus index, program)
    programs: Vec<(Family, u64, Program)>,
    /// Schedule-perturbation seeds every program runs under.
    seeds: Vec<u64>,
    /// How many leading programs also run on the lossy fabric.
    lossy: usize,
    /// Verdict of every (program, matrix point, seed) as `verify_with` gave
    /// it in the first repetition; traced repetitions, which go through the
    /// stages one by one, must reach the same verdicts.
    verdicts: Vec<bool>,
}

impl Conformance {
    pub fn new(s: Setup) -> Self {
        // Corpus indices are fixed at 0..8, the programs the repo's own
        // sweeps cover: a workload may hold no failing operation, and further
        // up the corpus some programs do fail (`MixedSerial` #8 deadlocks
        // under nonblocking closes on the jittered network profiles — see the
        // README's findings). The seed picks the schedules instead.
        let per_family = s.scale(8, 1) as u64;
        let programs = Family::ALL
            .into_iter()
            .flat_map(|f| (0..per_family).map(move |i| (f, i, generate(f, i))))
            .collect();
        let first_seed = s.draw(1, 1 << 20);
        Conformance {
            break_check: s.break_check,
            programs,
            seeds: (first_seed..first_seed + s.scale(4, 2) as u64).collect(),
            lossy: 2,
            verdicts: Vec::new(),
        }
    }

    fn specs(&self) -> impl Iterator<Item = (usize, RunSpec)> + '_ {
        (0..self.programs.len()).flat_map(move |p| {
            MATRIX.into_iter().flat_map(move |(strategy, nonblocking)| {
                self.seeds
                    .iter()
                    .map(move |s| (p, spec_for_seed(strategy, nonblocking, *s, &None)))
            })
        })
    }
}

/// `verify_with` taken apart into the public stages it is made of, each under
/// its own span, so a traced repetition shows where a conformance run's time
/// goes. Returns the verdict and, if the program ran, its report's counters
/// through `out`.
fn verify_staged(out: &mut RepOut, program: &Program, spec: &RunSpec) -> bool {
    let ir = span::within("check.lower", || lower(program, spec.nonblocking));
    if !span::within("analyze.analyze", || analyze(&ir)).is_empty() {
        return false;
    }
    let expected = span::within("check.oracle", || oracle(program));
    let Ok(run) = span::within("check.execute", || execute(program, spec)) else {
        return false;
    };
    out.counts.absorb(&run.report);
    let same = run.report.is_clean() && run.mems == expected.mems && run.gets == expected.gets;
    same && span::within("check.audit", || audit(&run.report)).is_empty()
        && span::within("analyze.races", || detect_races(&run.report)).is_empty()
}

impl Workload for Conformance {
    fn rep(&mut self) -> RepOut {
        let mut out = RepOut::default();
        let staged = span::recording();
        if staged {
            for (family, index, program) in &self.programs {
                let again = span::within("check.generate", || generate(*family, *index));
                out.check(again == *program, || {
                    format!("{family:?} #{index} generated differently")
                });
            }
        }

        let mut verdicts = Vec::new();
        for (p, spec) in self.specs() {
            let program = &self.programs[p].2;
            let ok = if staged {
                verify_staged(&mut out, program, &spec)
            } else {
                verify_with(program, &spec, VerifyOpts::default()).is_ok()
            };
            out.counts.add_verify_run();
            out.check(ok, || {
                format!(
                    "{:?} #{} failed under {spec:?}",
                    self.programs[p].0, self.programs[p].1
                )
            });
            verdicts.push(ok);
        }
        if self.verdicts.is_empty() {
            self.verdicts = verdicts;
        } else {
            out.check(verdicts == self.verdicts, || {
                "verdicts differ from the first repetition's".into()
            });
        }

        // The lossy slice: terminating is not enough, the sublayer must have
        // repaired every injected fault with nothing left degraded.
        let lossy = VerifyOpts {
            fault_plan: Some("light-loss"),
            reliable: true,
            ..VerifyOpts::default()
        };
        for (family, index, program) in self.programs.iter().take(self.lossy) {
            for (strategy, nonblocking) in MATRIX {
                let mut spec = spec_for_seed(strategy, nonblocking, self.seeds[0], &None);
                spec.fault_plan = Some("light-loss".into());
                spec.reliable = true;
                let ok = span::within("check.verify_lossy", || verify_with(program, &spec, lossy))
                    .is_ok();
                out.counts.add_verify_run();
                out.check(ok, || {
                    format!("{family:?} #{index} failed on the lossy fabric under {spec:?}")
                });
            }
        }

        // Model time of the corpus in the two end-point series: the first
        // program of each family, run directly so its report is visible.
        let mut first_of_family = self
            .programs
            .iter()
            .step_by(self.programs.len() / Family::ALL.len());
        for (family, index, program) in first_of_family.by_ref() {
            let want = oracle(program);
            let mut virt = [0u64; 2];
            for (k, (strategy, nonblocking)) in [
                (SyncStrategy::LazyBaseline, false),
                (SyncStrategy::Redesigned, true),
            ]
            .into_iter()
            .enumerate()
            {
                // Network profile 1: the calibrated credits with 200 ns of
                // seeded jitter, so the seed reaches the model time.
                let spec = RunSpec {
                    net_profile: 1,
                    ..spec_for_seed(strategy, nonblocking, self.seeds[0], &None)
                };
                match span::within("check.execute", || execute(program, &spec)) {
                    Ok(run) => {
                        out.job(&format!("{family:?} #{index}"), &run.report);
                        let mut mems = run.mems;
                        if self.break_check && k == 0 {
                            mems[0][0] ^= 1;
                        }
                        out.check(mems == want.mems, || {
                            format!("{family:?} #{index}: memory differs from the oracle")
                        });
                        virt[k] = run.report.final_time.as_nanos();
                    }
                    Err(e) => out.check(false, || format!("{family:?} #{index}: {e}")),
                }
            }
            out.nb_pairs.push((virt[0], virt[1]));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn staged_and_whole_verification_agree_and_are_clean() {
        let s = Setup {
            seed: 12,
            break_check: false,
            smoke: true,
        };
        let mut w = Conformance::new(s);
        let whole = w.rep();
        assert_eq!(whole.failed, 0, "{:?}", whole.failures);
        // 5 programs x 4 matrix points x 2 seeds + 2 x 4 lossy.
        assert_eq!(whole.counts.get("check.verify_runs"), 48);
        assert_eq!(whole.nb_pairs.len(), 5);

        span::begin(std::time::Instant::now());
        let staged = w.rep();
        let spans = span::end();
        assert_eq!(staged.failed, 0, "{:?}", staged.failures);
        assert_eq!(staged.counts.get("check.verify_runs"), 48);
        // The staged path sees every job's report; the whole path only the
        // ten direct runs.
        assert_eq!(whole.counts.get("core.jobs"), 10);
        assert_eq!(staged.counts.get("core.jobs"), 50);
        assert_eq!(spans.iter().filter(|s| s.name == "check.audit").count(), 40);
        assert_eq!(staged.virt_ns, whole.virt_ns);
    }

    #[test]
    fn a_broken_expectation_is_counted() {
        let s = Setup {
            seed: 12,
            break_check: true,
            smoke: true,
        };
        assert_eq!(Conformance::new(s).rep().failed, 5);
    }
}
