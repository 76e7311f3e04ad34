//! Closed-loop cross-validation of the static deadlock analyzer against
//! the dynamic stall watchdog.
//!
//! The two layers claim opposite halves of the same property:
//!
//! * **Flagged side** — every program from the deadlock corpus
//!   ([`mpisim_analyze::NegFamily::DEADLOCKS`]) must (a) be rejected by
//!   the analyzer with its family's expected code, and (b) actually
//!   *stall* when executed: the run terminates only because the watchdog
//!   cancels at least one epoch, leaving ≥ 1
//!   [`mpisim_core::StallReport`] on the degradation list. An
//!   analyzer-flagged program that runs to completion cleanly would be a
//!   false positive of the whole-job passes.
//! * **Clean side** — every generated conformance program, lowered to IR,
//!   must be analyzer-clean and execute under the armed watchdog with
//!   **zero** stall degradations. An analyzer-clean program that stalls
//!   would be a false negative.
//!
//! Together the sweeps pin the analyzer's deadlock verdict to ground
//! truth the runtime itself produces, closing the loop the static layer
//! alone cannot: its wait-for graph is an abstraction, the watchdog's
//! cancellation is an observation.

use mpisim_analyze::{
    analyze, generate_negative, generate_value_clean, has_code, rewrite_with, Code, IrProgram,
    NegFamily, RewriteMode,
};
use mpisim_core::{Degradation, JobReport, SyncStrategy};

use crate::lower::lower;
use crate::program::{generate, Family};
use crate::run::{exec_ir_with, execute, RunOutcome, RunSpec};
use crate::suite::{Arm, Outcome, Plant};

/// Epochs the stall watchdog had to cancel.
fn stall_count(report: &JobReport) -> usize {
    report.degradations.iter().filter(|d| matches!(d, Degradation::EpochStall(_))).count()
}

/// The analyzer's verdict on `ir` and the watchdog's must agree. With
/// `expect = Some(code)` the analyzer must flag `code` and the run must
/// terminate only because the armed watchdog cancelled at least one epoch
/// (a flagged program that completes cleanly is a static false positive);
/// with `None` the program must be analyzer-clean and run stall-free (a
/// stall is a static false negative).
fn layers_agree(ir: &IrProgram, expect: Option<Code>, seed: u64) -> Result<(), String> {
    let diags = analyze(ir);
    match expect {
        Some(code) if !has_code(&diags, code) => {
            return Err(format!("analyzer missed {code} (got {diags:?})"));
        }
        None if !diags.is_empty() => return Err(format!("clean program flagged: {diags:?}")),
        _ => {}
    }
    let (_, report) = exec_ir_with(ir, true, seed, SyncStrategy::Redesigned)
        .map_err(|f| format!("watchdog failed to terminate the run: {f}"))?;
    match (expect, stall_count(&report)) {
        (Some(code), 0) => Err(format!(
            "analyzer flagged {code} but the run completed with zero stalls (static false \
             positive?)"
        )),
        (None, stalls) if stalls > 0 => Err(format!(
            "analyzer-clean program stalled {stalls} time(s) (static false negative?)"
        )),
        _ => Ok(()),
    }
}

/// Both sides. **Flagged:** `width` generated programs per deadlock
/// family. **Clean:** `max(1, width / 8)` programs per conformance family
/// under both close modes (they are bigger and already swept by the main
/// matrix; here they only feed the watchdog oracle), plus as many
/// satisfiable twins of the value-deadlock family — same spin shape,
/// expectation matching the published flag — which the value domain must
/// pass statically and whose bounded spin must see the flag in time.
///
/// A plant ([`Arm::Corpus`]) narrows the flagged side to its families and
/// the clean side to the twins, one per doomed program, if it asks for
/// them; `planted` counts the flagged programs and `caught` those on
/// which both layers agreed.
pub fn crossval_deadlocks(width: u64, plant: Option<&Plant>) -> Outcome {
    let mut o = Outcome::default();
    let (families, twins): (&[NegFamily], u64) = match plant.map(|p| p.arm) {
        Some(Arm::Corpus { families, twins }) => (families, if twins { width } else { 0 }),
        _ => (&NegFamily::DEADLOCKS, (width / 8).max(1)),
    };
    let (mut flagged, mut agreed) = (0, 0);
    for &family in families {
        for seed in 0..width {
            flagged += 1;
            let case = generate_negative(family, seed);
            match layers_agree(&case.program, Some(case.expect), 7 + seed) {
                Ok(()) => agreed += 1,
                Err(e) => o.failures.push(format!("{family:?} seed {seed}: {e}")),
            }
        }
    }
    let mut clean = 0;
    let mut stay_clean = |tag: String, ir: &IrProgram, seed: u64| {
        clean += 1;
        if let Err(e) = layers_agree(ir, None, seed) {
            o.failures.push(format!("{tag}: {e}"));
        }
    };
    for idx in 0..twins {
        stay_clean(format!("value-clean #{idx}"), &generate_value_clean(idx), 7 + idx);
    }
    if plant.is_none() {
        for family in Family::ALL {
            for idx in 0..twins {
                let program = generate(family, idx);
                for nonblocking in [false, true] {
                    let tag = format!("{family:?} #{idx} nb={nonblocking}");
                    stay_clean(tag, &lower(&program, nonblocking), 7 + idx);
                }
            }
        }
    }
    o.runs = flagged + clean;
    o.detail = match plant.map(|p| p.arm) {
        None => format!("{flagged:>4} flagged + {clean} clean watchdog runs"),
        Some(Arm::Corpus { twins: true, .. }) => {
            format!("{flagged} doomed + {clean} satisfiable programs")
        }
        Some(_) => format!("{flagged} corpus programs ({width} per family)"),
    };
    if plant.is_some() {
        (o.planted, o.caught) = (flagged, agreed);
    }
    o
}

/// The differential points every rewritten program is compared at.
const REWRITE_STRATEGIES: [SyncStrategy; 2] =
    [SyncStrategy::LazyBaseline, SyncStrategy::Redesigned];
const REWRITE_SEEDS: [u64; 2] = [7, 23];

/// Whose fault a failed differential point is.
enum Blame {
    /// The original program did not run cleanly: the point proves nothing.
    Original,
    /// The rewritten program failed, stalled or ended with other memory —
    /// what an unsound rewrite looks like.
    Rewritten,
    /// Equivalent, but it blocks more often or finishes later.
    Cost,
}

/// Run `ir` and its rewrite `rw` at one strategy × seed point. `Ok` is
/// each side's blocked `(steps, ns)`, original first.
fn rewrite_point(
    ir: &IrProgram,
    rw: &IrProgram,
    seed: u64,
    strategy: SyncStrategy,
) -> Result<[(u64, u64); 2], (Blame, String)> {
    let (m0, r0) = exec_ir_with(ir, true, seed, strategy)
        .map_err(|f| (Blame::Original, format!("original program failed to run: {f}")))?;
    if stall_count(&r0) > 0 {
        return Err((Blame::Original, "original program stalled".into()));
    }
    let (m1, r1) = exec_ir_with(rw, true, seed, strategy)
        .map_err(|f| (Blame::Rewritten, format!("rewritten program failed to run: {f}")))?;
    if stall_count(&r1) > 0 || m0 != m1 {
        let why = format!(
            "rewritten program diverged (stalls={}, mems_equal={})",
            stall_count(&r1),
            m0 == m1
        );
        return Err((Blame::Rewritten, why));
    }
    let (s0, s1) = (r0.engine.sync_blocked_steps, r1.engine.sync_blocked_steps);
    if s1 > s0 {
        return Err((Blame::Cost, format!("rewrite INCREASED sync_blocked_steps ({s0} -> {s1})")));
    }
    let (t0, t1) = (r0.final_time, r1.final_time);
    if t1 > t0 {
        let why = format!("rewrite REGRESSED virtual completion time ({t0:?} -> {t1:?})");
        return Err((Blame::Cost, why));
    }
    Ok([(s0, r0.engine.sync_blocked_ns), (s1, r1.engine.sync_blocked_ns)])
}

/// The closed loop for the slack pass: for `width` generated
/// conformance programs per family (lowered with blocking closes — the
/// shape that has slack), run the rewriter and require, on every program
/// where it fired:
///
/// * the rewritten program stays **analyzer-clean** (E001–E017);
/// * it is **differentially equivalent**: same final window bytes as the
///   original at every strategy × seed point, with zero watchdog stalls;
/// * it does **strictly less host-blocking work**: per point
///   `sync_blocked_steps` never increases, and summed over the points the
///   rewrite strictly reduces blocked steps (or, on a tie, strictly
///   reduces blocked virtual nanoseconds);
/// * it **never regresses virtual completion time**: per point the
///   rewritten run's `final_time` must not exceed the original's — the
///   end-to-end bound the cost model prices rewrites against.
///
/// Under an [`Arm::UnsoundRewrite`] plant the rewriter additionally deletes
/// one synchronization statement after the sound rewrite; the sweep then
/// *requires* the differential check to catch every planted program (via
/// run failure, watchdog stall, or memory divergence) and reports the
/// catch rate — the exit-inverted self-test that proves the validator has
/// teeth. Static E-checks are deliberately skipped for planted programs:
/// detection must come from the differential side alone.
pub fn crossval_rewrites(width: u64, plant: Option<&Plant>) -> Outcome {
    let mut r = Outcome::default();
    let mode = match plant.map(|p| p.arm) {
        Some(Arm::UnsoundRewrite) => RewriteMode::PlantUnsound,
        _ => RewriteMode::Sound,
    };
    let (mut programs, mut fired, mut points, mut blocked_steps_saved) = (0u64, 0u64, 0u64, 0u64);
    for family in Family::ALL {
        for idx in 0..width {
            let program = generate(family, idx);
            let ir = lower(&program, false);
            if !analyze(&ir).is_empty() {
                r.failures.push(format!(
                    "{family:?} #{idx}: lowered conformance program is not analyzer-clean"
                ));
                continue;
            }
            programs += 1;
            let (rw, rep) = rewrite_with(&ir, mode);
            if !rep.changed() {
                continue;
            }
            fired += 1;
            let planted = rep.planted.is_some();
            let diags = if planted { Vec::new() } else { analyze(&rw) };
            if !diags.is_empty() {
                r.failures.push(format!(
                    "{family:?} #{idx}: rewritten program lost E-cleanliness: {diags:?}"
                ));
                continue;
            }
            // Blocked (steps, ns) summed over the points: original, rewritten.
            let (mut orig, mut rewritten) = ((0u64, 0u64), (0u64, 0u64));
            let mut caught = false;
            let mut point_failure = false;
            for strategy in REWRITE_STRATEGIES {
                for seed in REWRITE_SEEDS {
                    points += 1;
                    match rewrite_point(&ir, &rw, seed, strategy) {
                        Ok([o, w]) => {
                            orig = (orig.0 + o.0, orig.1 + o.1);
                            rewritten = (rewritten.0 + w.0, rewritten.1 + w.1);
                        }
                        Err((Blame::Rewritten, _)) if planted => caught = true,
                        Err((Blame::Cost, _)) if planted => {}
                        Err((_, why)) => {
                            r.failures
                                .push(format!("{family:?} #{idx} {strategy:?} seed {seed}: {why}"));
                            point_failure = true;
                        }
                    }
                }
            }
            if planted {
                r.planted += 1;
                if caught {
                    r.caught += 1;
                } else {
                    r.failures.push(format!(
                        "{family:?} #{idx}: planted unsound rewrite at {:?} was NOT caught \
                         by the differential check",
                        rep.planted
                    ));
                }
                continue;
            }
            if point_failure {
                continue;
            }
            if rewritten >= orig {
                r.failures.push(format!(
                    "{family:?} #{idx}: rewrite fired ({} relaxed, {} elided, {} localized) \
                     but saved no blocked (steps, ns): {orig:?} -> {rewritten:?}",
                    rep.relaxed, rep.elided, rep.localized
                ));
                continue;
            }
            blocked_steps_saved += orig.0 - rewritten.0;
        }
    }
    r.runs = points * 2;
    r.detail = match mode {
        RewriteMode::Sound => format!(
            "{programs:>4} programs, {fired} rewritten, {points} points, {blocked_steps_saved} \
             blocked steps saved"
        ),
        RewriteMode::PlantUnsound => format!(
            "{programs} programs ({width} per family), {} planted, {} caught",
            r.planted, r.caught
        ),
    };
    r
}

/// Everything two same-seed runs may legally differ in: nothing. Returns
/// the names of the observables that diverged. Stats structs compare via
/// `Eq`; the trace (epoch, sync and request records in one stream) and
/// per-rank timings compare via their `Debug` rendering, which covers
/// every field and the records' order byte for byte.
fn exec_divergences(a: &RunOutcome, b: &RunOutcome) -> Vec<&'static str> {
    let (ra, rb) = (&a.report, &b.report);
    let same = [
        ("mems", a.mems == b.mems),
        ("gets", a.gets == b.gets),
        ("final-time", ra.final_time == rb.final_time),
        ("sim-stats", ra.sim == rb.sim),
        ("engine-stats", ra.engine == rb.engine),
        ("live-requests", ra.live_requests == rb.live_requests),
        ("rank-stats", format!("{:?}", ra.ranks) == format!("{:?}", rb.ranks)),
        ("trace", format!("{:?}", ra.trace) == format!("{:?}", rb.trace)),
    ];
    same.into_iter().filter(|(_, same)| !same).map(|(name, _)| name).collect()
}

/// Determinism cross-check: `width` conformance programs per family,
/// under both close modes, are each executed twice in one process, and the
/// two runs must be indistinguishable — same verdict, final memories, get
/// results, `SimStats`, `EngineStats`, per-rank timings, and the trace,
/// record for record, byte for byte.
///
/// Under the `nondet-exec` plant each run takes the next tie-break seed of
/// a per-process counter (`mpisim_core::run_job`), which has moved on by
/// the second run, so the two genuinely diverge; every point is then a plant and *must* be observed
/// to diverge — the exit-inverted self-test proving the cross-check would
/// catch a nondeterministic kernel rather than vacuously passing.
pub fn crossval_exec(width: u64, plant: Option<&Plant>) -> Outcome {
    let mut r = Outcome::default();
    let fault = plant.and_then(Plant::engine_fault);
    let plant = fault.is_some();
    let (mut points, mut detected) = (0u64, 0u64);
    for family in Family::ALL {
        for idx in 0..width {
            let program = generate(family, idx);
            for nonblocking in [false, true] {
                points += 1;
                let spec = RunSpec {
                    sim_seed: 7 + idx,
                    fault: fault.clone(),
                    ..RunSpec::baseline(SyncStrategy::Redesigned, nonblocking)
                };
                r.runs += 1;
                let first = execute(&program, &spec);
                if let (Err(msg), false) = (&first, plant) {
                    r.failures
                        .push(format!("{family:?} #{idx} nb={nonblocking}: run failed: {msg}"));
                    continue;
                }
                r.runs += 1;
                let second = execute(&program, &spec);
                let diverged: Vec<&str> = match (&first, &second) {
                    (Ok(a), Ok(b)) => exec_divergences(a, b),
                    (Err(a), Err(b)) if a.to_string() == b.to_string() => Vec::new(),
                    _ => vec!["verdict"],
                };
                if diverged.is_empty() {
                    continue;
                }
                detected += 1;
                if !plant {
                    r.failures.push(format!(
                        "{family:?} #{idx} nb={nonblocking}: the rerun diverged in [{}]",
                        diverged.join(", ")
                    ));
                }
            }
        }
    }
    r.detail = if plant {
        (r.planted, r.caught) = (points, detected);
        format!(
            "{points} points ({width} per family), {} runs, {detected} divergent rerun(s)",
            r.runs
        )
    } else {
        format!("{points:>4} points x 2 runs in one process ({} runs)", r.runs)
    };
    r
}
