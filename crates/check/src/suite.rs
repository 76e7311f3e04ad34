//! What `mpisim-check` runs, declared once: [`SWEEPS`] (every sweep of
//! the harness, its width flag and the widths it runs at) and [`PLANTS`]
//! (every fault the harness can plant in itself: the sweep it rides, how
//! it is armed, and the one detector that must catch it). The CLI's flags,
//! its usage text, the self-test exit rule, `tests/suite.rs`, the CI job
//! and DESIGN.md §8's table are all read off these two tables.

use mpisim_analyze::{sweep_corpus, NegFamily};

use crate::crossval::{crossval_deadlocks, crossval_exec, crossval_rewrites};
use crate::diff::{sweep_family_with, FoundFailure, VerifyOpts};
use crate::program::Family;
use crate::recovery::crossval_recovery;
use crate::run::RunSpec;

/// What one sweep — or one planted self-test — found.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    /// Jobs executed.
    pub runs: u64,
    /// The sweep's own counts, rendered for its summary line.
    pub detail: String,
    /// Plants that took effect. A conformance plant is observable only
    /// through the run it breaks, so there this counts failing runs.
    pub planted: u64,
    /// Plants caught by the detector the table names.
    pub caught: u64,
    /// Everything that went wrong other than a plant being caught.
    pub failures: Vec<String>,
    /// The first failing conformance run, for the shrinker.
    pub first: Option<FoundFailure>,
}

impl Outcome {
    /// Failed runs, as a summary line counts them: under a conformance
    /// plant every planted run is one (no other sweep plants and reports
    /// a count).
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64 + self.planted
    }

    fn absorb(&mut self, o: Outcome) {
        self.runs += o.runs;
        self.planted += o.planted;
        self.caught += o.caught;
        self.failures.extend(o.failures);
        self.first = self.first.take().or(o.first);
    }
}

/// One row of [`SWEEPS`].
#[derive(Debug)]
pub struct Sweep {
    /// What [`Plant::rides`] names; the five conformance rows share one.
    pub name: &'static str,
    /// The generated family a conformance row sweeps.
    pub family: Option<Family>,
    /// The CLI flag that sets the row's width.
    pub flag: &'static str,
    /// Width without the flag.
    pub default: u64,
    /// Width CI runs the row at (`tests/suite.rs`, `--ignored`, with
    /// `--seeds 4`).
    pub ci: u64,
    /// Run the row at the given width under `args`' seeds and plant.
    pub run: fn(&Sweep, u64, &Args) -> Outcome,
}

impl Sweep {
    /// The name the summary line prints.
    pub fn label(&self) -> &'static str {
        self.family.map_or(self.name, Family::label)
    }
}

/// How a plant is armed.
#[derive(Copy, Clone, Debug)]
pub enum Arm {
    /// `RunSpec::fault`: the runtime bug ([`mpisim_core::Fault`]) of the
    /// plant's own name.
    EngineFault,
    /// The named fault plan with the reliability sublayer OFF.
    Storm(&'static str),
    /// The named fault plan with the sublayer and the watchdog ON.
    Repaired(&'static str),
    /// These deadlock-corpus families only; `twins` adds the satisfiable
    /// twin of every value-deadlock program, which must stay clean.
    Corpus {
        /// Families of the negative corpus to plant.
        families: &'static [NegFamily],
        /// Whether the satisfiable twins ride along.
        twins: bool,
    },
    /// `RewriteMode::PlantUnsound`: one synchronization call deleted.
    UnsoundRewrite,
}

/// One row of [`PLANTS`].
#[derive(Debug)]
pub struct Plant {
    /// The name `--inject` (or, for a row that must stay clean,
    /// `--faults`) takes.
    pub name: &'static str,
    /// The [`Sweep::name`] it rides; no other row runs with it.
    pub rides: &'static str,
    /// How it is armed.
    pub arm: Arm,
    /// The one detector that counts as "caught": for a conformance plant
    /// a [`crate::Failure::name`], otherwise the comparison its sweep
    /// makes. `None`: not a self-test — every run must stay clean.
    pub caught_by: Option<&'static str>,
    /// Smallest width of the sweep's flag at which it still plants.
    pub min: u64,
    /// What a passed self-test says.
    pub passed: &'static str,
}

impl Plant {
    /// The CLI flag that accepts this row's name.
    pub fn flag(&self) -> &'static str {
        if self.caught_by.is_some() { "--inject" } else { "--faults" }
    }

    /// The [`RunSpec::fault`] an [`Arm::EngineFault`] row arms: its name.
    pub fn engine_fault(&self) -> Option<String> {
        matches!(self.arm, Arm::EngineFault).then(|| self.name.to_string())
    }
}

/// The [`Sweep::name`] the five per-family rows share; they come first.
pub const CONFORMANCE: &str = "conformance";

/// Schedules per (program, matrix point) without `--seeds`.
pub const SEEDS: u64 = 16;

const fn conformance(family: Family) -> Sweep {
    Sweep {
        name: CONFORMANCE,
        family: Some(family),
        flag: "--programs",
        // The smallest count whose generated set exercises every epoch
        // kind at least twice per family — `skip-grant` needs it to trip.
        default: 4,
        ci: 4,
        run: run_conformance,
    }
}

/// Every sweep of the harness, in the order a clean run prints them.
pub const SWEEPS: [Sweep; 10] = [
    conformance(Family::ALL[0]),
    conformance(Family::ALL[1]),
    conformance(Family::ALL[2]),
    conformance(Family::ALL[3]),
    conformance(Family::ALL[4]),
    Sweep {
        name: "deadlock-crossval",
        family: None,
        flag: "--deadlocks",
        default: 13,
        ci: 65,
        run: |_, width, args| crossval_deadlocks(width, args.plant),
    },
    Sweep {
        name: "exec-crossval",
        family: None,
        flag: "--execs",
        default: 2,
        ci: 2,
        run: |_, width, args| crossval_exec(width, args.plant),
    },
    Sweep {
        name: "slack-rewrite",
        family: None,
        flag: "--rewrites",
        default: 6,
        ci: 64,
        run: |_, width, args| crossval_rewrites(width, args.plant),
    },
    Sweep {
        name: "crash-recovery",
        family: None,
        flag: "--recoveries",
        default: 1,
        ci: 2,
        run: |_, width, args| crossval_recovery(width, args.plant),
    },
    Sweep {
        name: "static-corpus",
        family: None,
        flag: "--negatives",
        default: 32,
        ci: 64,
        run: |_, width, _| static_corpus(width),
    },
];

const fn conformance_plant(
    name: &'static str,
    arm: Arm,
    caught_by: Option<&'static str>,
    min: u64,
) -> Plant {
    Plant { name, rides: CONFORMANCE, arm, caught_by, min, passed: "was detected and shrunk" }
}

/// Every fault the harness plants in itself, and the three fault plans a
/// clean sweep must survive.
pub const PLANTS: [Plant; 14] = [
    conformance_plant("skip-grant", Arm::EngineFault, Some("deadlock"), 4),
    conformance_plant("double-acc", Arm::EngineFault, Some("divergence"), 1),
    conformance_plant("hb-race", Arm::EngineFault, Some("races"), 1),
    conformance_plant("drop-storm", Arm::Storm("drop-storm"), Some("deadlock"), 1),
    conformance_plant("dup-storm", Arm::Storm("dup-storm"), Some("panic"), 1),
    conformance_plant("transient-partition", Arm::Storm("transient-partition"), Some("deadlock"), 1),
    Plant {
        name: "deadlock",
        rides: "deadlock-crossval",
        arm: Arm::Corpus { families: &NegFamily::DEADLOCKS, twins: false },
        caught_by: Some("expected E-code + watchdog stall"),
        min: 1,
        passed: "every corpus deadlock was flagged statically and stalled dynamically",
    },
    Plant {
        name: "value-deadlock",
        rides: "deadlock-crossval",
        arm: Arm::Corpus { families: &[NegFamily::ValueDeadlock], twins: true },
        caught_by: Some("E018 + watchdog stall"),
        min: 1,
        passed: "every doomed spin was flagged E018 and stalled; every satisfiable twin was \
                 clean and stall-free",
    },
    Plant {
        name: "nondet-exec",
        rides: "exec-crossval",
        arm: Arm::EngineFault,
        caught_by: Some("rerun divergence"),
        min: 1,
        passed: "the planted nondeterministic tie-break was caught by the same-process rerun \
                 comparison",
    },
    Plant {
        name: "bad-rewrite",
        rides: "slack-rewrite",
        arm: Arm::UnsoundRewrite,
        caught_by: Some("run failure, stall or memory divergence"),
        min: 1,
        passed: "every planted unsound relaxation was caught by the differential check",
    },
    Plant {
        name: "bad-recovery",
        rides: "crash-recovery",
        arm: Arm::EngineFault,
        caught_by: Some("oracle divergence"),
        min: 1,
        passed: "every planted stale restore diverged from the oracle and was caught by the \
                 differential check",
    },
    conformance_plant("light-loss", Arm::Repaired("light-loss"), None, 1),
    conformance_plant("heavy-dup-reorder", Arm::Repaired("heavy-dup-reorder"), None, 1),
    conformance_plant("transient-partition", Arm::Repaired("transient-partition"), None, 1),
];

fn run_conformance(row: &Sweep, width: u64, args: &Args) -> Outcome {
    let family = row.family.expect("a conformance row names its family");
    let mut opts = VerifyOpts { races: args.races, ..VerifyOpts::default() };
    match args.plant.map(|p| p.arm) {
        Some(Arm::Storm(plan)) => opts.fault_plan = Some(plan),
        Some(Arm::Repaired(plan)) => {
            opts.fault_plan = Some(plan);
            opts.reliable = true;
        }
        _ => {}
    }
    let fault = args.plant.and_then(Plant::engine_fault);
    let r = sweep_family_with(family, width, args.seeds, &fault, opts);
    let mut o = Outcome {
        runs: r.runs,
        detail: format!("{:>4} runs, {:>2} schedules/program", r.runs, args.seeds),
        ..Outcome::default()
    };
    match args.plant.and_then(|p| p.caught_by) {
        Some(detector) => {
            let caught = r.failures.iter().filter(|f| f.failure.name() == detector);
            (o.planted, o.caught) = (r.failures.len() as u64, caught.count() as u64);
        }
        None => o.failures.extend(r.failures.iter().map(|f| {
            let RunSpec { strategy, nonblocking, sim_seed, .. } = &f.spec;
            let at = format!("{strategy:?} nb={nonblocking} seed {sim_seed}");
            format!("{} ({at}): {}", row.label(), f.failure)
        })),
    }
    o.first = r.failures.into_iter().next();
    o
}

/// The negative corpus through the static analyzer alone: every program
/// flagged as [`sweep_corpus`] requires, nothing executed.
fn static_corpus(per_family: u64) -> Outcome {
    let sweep = sweep_corpus(per_family, |_, _| {});
    let (checked, families) = (sweep.checked, NegFamily::ALL.len());
    let catalog = checked - families * per_family as usize;
    Outcome {
        detail: format!(
            "{checked:>4} erroneous programs: {families} families x {per_family} + {catalog} \
             catalog cases"
        ),
        failures: sweep.misses,
        ..Outcome::default()
    }
}

/// A parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// `--seeds`.
    pub seeds: u64,
    /// Cleared by `--no-race-detect`.
    pub races: bool,
    /// The row `--inject` or `--faults` named.
    pub plant: Option<&'static Plant>,
    /// One width per [`SWEEPS`] row, in table order.
    pub widths: [u64; SWEEPS.len()],
}

impl Args {
    /// Parse the arguments after the program name. `Err` is the message
    /// for stderr; nothing has run.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            seeds: SEEDS,
            races: true,
            plant: None,
            widths: SWEEPS.each_ref().map(|s| s.default),
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let missing = || format!("{flag} requires a value\n{}", usage());
            let mut value = || it.next().ok_or_else(missing);
            let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
            match flag.as_str() {
                "--no-race-detect" => parsed.races = false,
                "--seeds" => parsed.seeds = number(value()?)?,
                "--inject" | "--faults" => {
                    let name = value()?;
                    if parsed.plant.is_some() {
                        return Err("--inject and --faults take one name between them".into());
                    }
                    let row = PLANTS.iter().find(|p| p.flag() == flag && p.name == name);
                    parsed.plant = Some(row.ok_or_else(|| {
                        format!("{flag}: unknown name {name:?}\n{}", usage())
                    })?);
                }
                f if SWEEPS.iter().any(|s| s.flag == f) => {
                    let width = number(value()?)?;
                    for (w, s) in parsed.widths.iter_mut().zip(&SWEEPS) {
                        if s.flag == f {
                            *w = width;
                        }
                    }
                }
                _ => return Err(format!("unknown flag {flag}\n{}", usage())),
            }
        }
        if parsed.seeds == 0 || parsed.programs() == 0 {
            return Err("--seeds and --programs must be at least 1".into());
        }
        Ok(parsed)
    }

    /// `--programs`: the conformance rows' width.
    pub fn programs(&self) -> u64 {
        self.widths[0]
    }
}

/// The usage text: flags, sweeps and plants as the tables list them
/// (DESIGN.md §8 says what each sweep checks).
pub fn usage() -> String {
    let mut u = format!(
        "usage: mpisim-check [FLAG N]... [--inject FAULT | --faults PLAN] [--no-race-detect]\n\n  \
         --seeds N         schedules per (program, matrix point); default {}\n  \
         --no-race-detect  happens-before race detector off (hb-race must then slip through)\n\n\
         sweeps (a clean run is all of them; width 0 skips a ride-along):\n",
        SEEDS
    );
    for s in SWEEPS.iter().filter(|s| s.family.is_none_or(|f| f == Family::ALL[0])) {
        u += &format!("  {:<18} {} N, default {}\n", s.name, s.flag, s.default);
    }
    u += "\n--inject: self-test, exit 0 iff the plant took effect and its detector caught every \
          instance\n--faults: conformance under the plan with the reliability sublayer and the \
          watchdog on; must stay clean\n";
    for p in &PLANTS {
        let caught = p.caught_by.map_or(String::new(), |d| format!(", caught by {d}"));
        u += &format!("  {} {:<20} rides {}{caught}\n", p.flag(), p.name, p.rides);
    }
    u
}

/// Run what `args` asks for — the one plant's sweep, or every sweep —
/// handing each row's outcome to `each`, and return the total.
pub fn run(args: &Args, mut each: impl FnMut(&Sweep, &Outcome)) -> Outcome {
    let mut total = Outcome::default();
    for (row, width) in SWEEPS.iter().zip(args.widths) {
        // A plant runs alone on the row it rides: faults and lossy plans
        // perturb the dynamics the other sweeps' oracles observe. Without
        // one, width 0 skips a row.
        let rides = args.plant.map_or(width > 0, |p| p.rides == row.name);
        if rides {
            let o = (row.run)(row, width, args);
            each(row, &o);
            total.absorb(o);
        }
    }
    total
}

/// The one exit rule. Clean run: no failures. Self-test: the plant took
/// effect, its detector caught every instance, and nothing else failed.
pub fn verdict(plant: Option<&Plant>, total: &Outcome) -> Result<String, String> {
    let Some((p, detector)) = plant.and_then(|p| Some((p, p.caught_by?))) else {
        return match total.failures.len() {
            0 => Ok(String::new()),
            n => Err(format!("{n} failure(s)")),
        };
    };
    if total.planted == 0 || total.caught < total.planted || !total.failures.is_empty() {
        return Err(format!(
            "self-test failed: {:?} planted {}, {} caught by {detector}, {} other failure(s)",
            p.name,
            total.planted,
            total.caught,
            total.failures.len()
        ));
    }
    Ok(if p.rides == CONFORMANCE {
        format!("self-test passed: injected fault {:?} {}", p.name, p.passed)
    } else {
        format!("self-test passed: {}", p.passed)
    })
}
