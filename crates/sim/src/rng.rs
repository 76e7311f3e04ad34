//! Deterministic random-number streams.
//!
//! Every consumer of randomness derives an independent stream from the
//! simulation seed plus a stream id (typically a rank), so adding a new
//! consumer never perturbs existing streams.
//!
//! The simulator's only randomness contract is *determinism keyed by
//! seed*: [`Rng`] is xoshiro256\*\*, stable across platforms and builds,
//! which is all the network jitter model, the fault plans, the workload
//! generators and the seeded test loops require. There is no
//! property-testing crate: a test over a small domain loops over all of
//! it, and one over a large domain over 64 seeded draws.
//! `crates/sim/tests/rng_stream.rs` pins the streams and every mapping of
//! a word onto a range.

use std::ops::{Bound, RangeBounds};

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
pub fn seeded_rng(seed: u64, stream: u64) -> Rng {
    let mut state = seed ^ stream.rotate_left(32) ^ 0xA076_1D64_78BD_642F;
    let mut key = [0u8; 32];
    for chunk in key.chunks_mut(8) {
        chunk.copy_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
    Rng::from_seed(key)
}

/// The workspace's one pseudo-random generator: xoshiro256\*\*. Each draw
/// reads one word of its stream.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The generator whose state is `seed`'s four little-endian words. The
    /// all-zero state, which xoshiro never leaves, is replaced by four
    /// SplitMix64 words.
    pub fn from_seed(seed: [u8; 32]) -> Rng {
        let mut s = [0u64; 4];
        for (word, bytes) in s.iter_mut().zip(seed.chunks_exact(8)) {
            *word = u64::from_le_bytes(bytes.try_into().unwrap());
        }
        if s == [0; 4] {
            let mut sm = 0x9E37_79B9_7F4A_7C15u64;
            s.iter_mut().for_each(|word| *word = splitmix64(&mut sm));
        }
        Rng { s }
    }

    /// The generator seeded by four SplitMix64 words from `state`.
    pub fn seed_from_u64(state: u64) -> Rng {
        let mut sm = state;
        let mut seed = [0u8; 32];
        for chunk in seed.chunks_mut(8) {
            chunk.copy_from_slice(&splitmix64(&mut sm).to_le_bytes());
        }
        Rng::from_seed(seed)
    }

    /// The next word of the stream.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A value over `T`'s whole domain.
    pub fn gen<T: Uniform>(&mut self) -> T {
        T::draw(self, (Bound::Unbounded, Bound::Unbounded))
    }

    /// A value in `range`: `lo..hi` for an integer type or `f64`, `lo..=hi`
    /// for an integer type.
    pub fn gen_range<T: Uniform>(&mut self, range: impl RangeBounds<T>) -> T {
        T::draw(self, (range.start_bound(), range.end_bound()))
    }

    /// `true` with probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen::<f64>() < p
    }
}

/// A type [`Rng`] draws: every primitive integer, `bool` and `f64`.
pub trait Uniform: Sized {
    /// One draw within `bounds`. `(Unbounded, Unbounded)` is the whole
    /// domain, from one word: an integer is the word truncated, a `bool`
    /// its low bit, an `f64` its top 53 bits scaled onto `[0, 1)`. An
    /// integer range is `lo + word % span` in 64 bits, `f64`'s is the
    /// unit draw scaled onto it.
    fn draw(rng: &mut Rng, bounds: (Bound<&Self>, Bound<&Self>)) -> Self;
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl Uniform for $t {
            #[inline]
            fn draw(rng: &mut Rng, bounds: (Bound<&$t>, Bound<&$t>)) -> $t {
                let (lo, span) = match bounds {
                    (Bound::Unbounded, Bound::Unbounded) => return rng.next_u64() as $t,
                    (Bound::Included(&lo), Bound::Excluded(&hi)) => {
                        assert!((lo as u64) < hi as u64, "gen_range called with empty range");
                        (lo as u64, hi as u64 - lo as u64)
                    }
                    (Bound::Included(&lo), Bound::Included(&hi)) => {
                        assert!(lo as u64 <= hi as u64, "gen_range called with empty range");
                        match hi as u64 - lo as u64 {
                            u64::MAX => return rng.next_u64() as $t,
                            span => (lo as u64, span + 1),
                        }
                    }
                    _ => panic!("gen_range takes lo..hi or lo..=hi"),
                };
                (lo + rng.next_u64() % span) as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Uniform for bool {
    #[inline]
    fn draw(rng: &mut Rng, bounds: (Bound<&bool>, Bound<&bool>)) -> bool {
        assert!(matches!(bounds, (Bound::Unbounded, Bound::Unbounded)), "a bool has no range");
        rng.next_u64() & 1 == 1
    }
}

impl Uniform for f64 {
    #[inline]
    fn draw(rng: &mut Rng, bounds: (Bound<&f64>, Bound<&f64>)) -> f64 {
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        match bounds {
            (Bound::Unbounded, Bound::Unbounded) => unit,
            (Bound::Included(&lo), Bound::Excluded(&hi)) => {
                assert!(lo < hi, "gen_range called with empty range");
                lo + unit * (hi - lo)
            }
            _ => panic!("an f64 range is lo..hi"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng::from_seed([7; 32]);
        let mut b = Rng::from_seed([7; 32]);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_decorrelate() {
        let mut a = Rng::from_seed([1; 32]);
        let mut b = Rng::from_seed([2; 32]);
        assert_ne!(
            (0..8).map(|_| a.gen::<u64>()).collect::<Vec<_>>(),
            (0..8).map(|_| b.gen::<u64>()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = Rng::seed_from_u64(42);
        for _ in 0..1000 {
            let v: usize = r.gen_range(3..17);
            assert!((3..17).contains(&v));
            let w: u64 = r.gen_range(5..=5);
            assert_eq!(w, 5);
            let f: f64 = r.gen_range(0.1..1.0);
            assert!((0.1..1.0).contains(&f));
            let b: u8 = r.gen_range(0..100u8);
            assert!(b < 100);
        }
        let mut same = r.clone();
        assert_eq!(r.gen_range(0..=u64::MAX), same.next_u64(), "the full span is the word itself");
    }

    #[test]
    fn zero_seed_is_fixed_up() {
        let mut r = Rng::from_seed([0; 32]);
        assert_ne!(r.next_u64(), 0);
    }
}
