//! Two random programs that once failed against the sequential oracle,
//! kept as named deterministic tests.
//!
//! A named test documents *why* the case once failed and runs it under
//! every strategy × API combination rather than only the flavour that
//! originally tripped. Both programs distilled to epoch-transition bugs
//! around empty epochs:
//!
//! * `fence_lock_fence` — an empty exclusive-lock epoch sandwiched between
//!   two fence phases: exercises the passive-plane hand-off in the middle
//!   of the active-target fence sequence (an empty lock still runs the
//!   full grant/release protocol).
//! * `lock_then_gats` — an empty lock epoch directly followed by a GATS
//!   epoch: exercises the split matching planes (`⟨a,e,g⟩` vs
//!   `⟨a_lock,g_lock⟩`) switching with no data operations to pace them.
//!
//! The programs run through the conformance harness, so on top of the
//! original "terminates and matches the oracle" property each run is also
//! audited against the ω-triple trace invariants.

use mpisim_check::program::{Epoch, Family, Program};
use mpisim_check::run::RunSpec;
use mpisim_check::{verify, SyncStrategy, MATRIX};

fn check_everywhere(epochs: Vec<Epoch>) {
    let program = Program::single_origin(Family::MixedSerial, 3, epochs);
    for (strategy, nonblocking) in MATRIX {
        verify(&program, &RunSpec::baseline(strategy, nonblocking)).unwrap_or_else(|e| {
            panic!("{strategy:?} nonblocking={nonblocking}: {e}");
        });
    }
}

/// Shrank to `[Fence([]), Lock { target: 1, ops: [] }, Fence([])]`.
#[test]
fn fence_lock_fence_empty_epochs() {
    check_everywhere(vec![
        Epoch::Fence(vec![]),
        Epoch::Lock { target: 1, ops: vec![] },
        Epoch::Fence(vec![]),
    ]);
}

/// Shrank to `[Lock { target: 1, ops: [] }, Gats([])]`.
#[test]
fn empty_lock_then_empty_gats() {
    check_everywhere(vec![Epoch::Lock { target: 1, ops: vec![] }, Epoch::Gats(vec![])]);
}

/// The same two shapes under schedule perturbation: a handful of tie-break
/// seeds and network profiles must not resurrect either bug.
#[test]
fn promoted_cases_survive_perturbation() {
    for epochs in [
        vec![
            Epoch::Fence(vec![]),
            Epoch::Lock { target: 1, ops: vec![] },
            Epoch::Fence(vec![]),
        ],
        vec![Epoch::Lock { target: 1, ops: vec![] }, Epoch::Gats(vec![])],
    ] {
        let program = Program::single_origin(Family::MixedSerial, 3, epochs);
        for s in 0..4 {
            let spec = mpisim_check::spec_for_seed(SyncStrategy::Redesigned, true, s, &None);
            verify(&program, &spec).unwrap_or_else(|e| panic!("seed {s}: {e}"));
        }
    }
}
