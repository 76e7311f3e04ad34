//! Deterministic random-number streams.
//!
//! Every consumer of randomness derives an independent stream from the
//! simulation seed plus a stream id (typically a rank), so adding a new
//! consumer never perturbs existing streams.

use rand::rngs::SmallRng;
use rand::SeedableRng;

/// SplitMix64 step: a cheap, well-distributed 64-bit mixer. Advances
/// `state` and returns the next value of its sequence.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Stateless mix of `(seed, x)` into a well-distributed 64-bit value.
///
/// Used by the kernel's tie-break perturbation to key same-time events: for
/// a fixed seed the map `x -> mix64(seed, x)` is a fixed pseudo-random
/// relabeling, so sorting by it yields a deterministic but seed-dependent
/// permutation of equal-time events. It is a bijection — rotate, xor, add
/// and xorshift-multiply are each invertible — so two sequence numbers
/// never share a key.
#[inline]
pub fn mix64(seed: u64, x: u64) -> u64 {
    let mut state = seed ^ x.rotate_left(27) ^ 0xD6E8_FEB8_6659_FD93;
    splitmix64(&mut state)
}

/// Derive a deterministic RNG for `(seed, stream)`.
pub fn seeded_rng(seed: u64, stream: u64) -> SmallRng {
    let mut state = seed ^ stream.rotate_left(32) ^ 0xA076_1D64_78BD_642F;
    let mut key = [0u8; 32];
    for chunk in key.chunks_mut(8) {
        chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
    SmallRng::from_seed(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_inputs_same_stream() {
        let mut a = seeded_rng(1, 2);
        let mut b = seeded_rng(1, 2);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_streams_differ() {
        let mut a = seeded_rng(1, 2);
        let mut b = seeded_rng(1, 3);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn mix64_relabels_sequence_numbers_without_collision() {
        // For a fixed seed every step of `mix64` is invertible, so no two
        // sequence numbers share a tie-break; the event queue relies on it
        // (it orders an instant by tie-break alone).
        for seed in [0, 11, 0xDEAD_BEEF] {
            let mut keys: Vec<u64> = (0..1 << 20).map(|x| mix64(seed, x)).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), 1 << 20, "seed {seed}");
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded_rng(1, 2);
        let mut b = seeded_rng(9, 2);
        let va: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(va, vb);
    }
}
