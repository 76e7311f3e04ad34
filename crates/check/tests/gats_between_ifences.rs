//! Pinned liveness regression: a GATS epoch between two nonblocking-closed
//! fence epochs.

use mpisim_check::program::{generate, Epoch, Family, Program};
use mpisim_check::{spec_for_seed, verify, MATRIX};

/// `generate(Family::MixedSerial, 8)` and what `shrink` reduces it to.
/// Under nonblocking closes and >= 2 us of latency jitter (seeds with
/// `s % 4` in {2, 3}) every rank parked forever ("simulation deadlock at
/// 12.543us: blocked processes: rank0, rank1, rank2"): the first fence
/// epoch was still incomplete when the second fence call closed the
/// dormant fence the GATS epoch had opened under, and that fence then
/// serialized ahead of the GATS epoch its own completion waited for. A
/// passive-target epoch ahead of the GATS epoch (second case, shrunk from
/// a 100-program sweep) must not re-serialize it behind that fence either.
/// `generate(Family::MixedSerial, 725921)` is the same shape with a lock
/// epoch on either side of the GATS epoch (`[Fence, Lock, Gats, Lock,
/// Fence]`), found by the benchmark's conformance workload.
#[test]
fn gats_epoch_between_nonblocking_fences_terminates() {
    let single = |epochs| Program::single_origin(Family::MixedSerial, 3, epochs);
    let fence = || Epoch::Fence(vec![]);
    let programs = [
        single(vec![fence(), Epoch::Gats(vec![]), fence()]),
        single(vec![fence(), Epoch::LockAll(vec![]), Epoch::Gats(vec![]), fence()]),
        generate(Family::MixedSerial, 8),
        generate(Family::MixedSerial, 725921),
    ];
    for program in programs {
        for (strategy, nonblocking) in MATRIX {
            for s in 0..16 {
                let spec = spec_for_seed(strategy, nonblocking, s, &None);
                if let Err(f) = verify(&program, &spec) {
                    panic!("{strategy:?} nonblocking={nonblocking} seed {s}: {f:?}\n{program:?}");
                }
            }
        }
    }
}
