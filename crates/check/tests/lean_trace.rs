//! Pay-for-use tracing must be *observation only*: running the
//! conformance corpus with no trace sink attached (the lean
//! production-shaped path) must produce byte-identical verdicts —
//! memories, get results, virtual time, degradations, and every engine
//! counter — to the full-trace run. Anything else means the tracing
//! hooks leak into engine behaviour.

use mpisim_check::{execute, generate, Family, RunSpec, SyncStrategy};
use mpisim_check::run::execute_exec;

#[test]
fn lean_and_full_trace_runs_are_observably_identical() {
    for family in Family::ALL {
        for idx in 0..8u64 {
            let program = generate(family, idx);
            for nonblocking in [false, true] {
                let spec = RunSpec::baseline(SyncStrategy::Redesigned, nonblocking);
                let full = execute(&program, &spec)
                    .unwrap_or_else(|f| panic!("{family:?} #{idx} full: {f}"));
                let lean = execute_exec(&program, &spec, false)
                    .unwrap_or_else(|f| panic!("{family:?} #{idx} lean: {f}"));
                let tag = format!("{family:?} #{idx} nb={nonblocking}");
                assert_eq!(lean.mems, full.mems, "{tag}: window memories diverged");
                assert_eq!(lean.gets, full.gets, "{tag}: get results diverged");
                assert_eq!(
                    lean.report.final_time, full.report.final_time,
                    "{tag}: virtual time diverged"
                );
                assert_eq!(
                    lean.report.is_clean(),
                    full.report.is_clean(),
                    "{tag}: verdict diverged"
                );
                assert_eq!(
                    lean.report.degradations.len(),
                    full.report.degradations.len(),
                    "{tag}: degradations diverged"
                );
                assert_eq!(
                    lean.report.engine, full.report.engine,
                    "{tag}: engine counters diverged"
                );
                // The sink itself is the only allowed difference.
                assert!(lean.report.trace.is_empty(), "{tag}: lean run recorded a trace");
                assert!(lean.report.sync_trace.is_empty());
                assert!(!full.report.trace.is_empty(), "{tag}: full run recorded nothing");
            }
        }
    }
}

/// The lazy-baseline strategy exercises different activation paths;
/// spot-check trace equivalence there too.
#[test]
fn lean_trace_identical_under_lazy_baseline() {
    for idx in 0..4u64 {
        let program = generate(Family::MixedSerial, idx);
        let spec = RunSpec::baseline(SyncStrategy::LazyBaseline, false);
        let full = execute(&program, &spec).unwrap();
        let lean = execute_exec(&program, &spec, false).unwrap();
        assert_eq!(lean.mems, full.mems);
        assert_eq!(lean.report.engine, full.report.engine);
        assert_eq!(lean.report.final_time, full.report.final_time);
    }
}
