//! The seeded generator's streams, pinned. Every figure, every network
//! jitter and fault plan and every generated program draws from it, so a
//! change to the xoshiro256** step, to the seed expansion or to how a draw
//! maps 64 bits onto a range moves a row here before it moves a CSV.
//!
//! Rows: the first four words of `seeded_rng(11, 0)`, the first word of
//! the all-zero seed (which the generator fixes up), and one FNV-1a
//! digest per draw kind over 1 000 draws from `seed_from_u64(42)`.

#[path = "../../../tests/support/pin.rs"]
mod pin;

use mpisim_sim::{seeded_rng, Rng};

/// One draw kind: its row name and the draw, as 64 bits.
type Draw = (&'static str, fn(&mut Rng) -> u64);

const DRAWS: [Draw; 7] = [
    ("range-usize-3..17", |r| r.gen_range(3..17usize) as u64),
    ("range-u64-1..=2000", |r| r.gen_range(1..=2_000u64)),
    ("range-f64-0.1..1.0", |r| r.gen_range(0.1..1.0f64).to_bits()),
    ("bool-0.3", |r| r.gen_bool(0.3) as u64),
    ("gen-u8", |r| r.gen::<u8>() as u64),
    ("gen-bool", |r| r.gen::<bool>() as u64),
    ("gen-f64", |r| r.gen::<f64>().to_bits()),
];

#[test]
fn the_generator_streams_are_pinned() {
    let mut rows = Vec::new();
    let mut rng = seeded_rng(11, 0);
    for i in 0..4 {
        rows.push((format!("seeded-11-0.{i}"), format!("{:#018x}", rng.next_u64())));
    }
    let zero = Rng::from_seed([0; 32]).next_u64();
    rows.push(("zero-seed.0".to_string(), format!("{zero:#018x}")));
    for (name, draw) in DRAWS {
        let mut rng = Rng::seed_from_u64(42);
        let mut fnv = pin::FNV;
        (0..1_000).for_each(|_| fnv.bytes(draw(&mut rng).to_le_bytes()));
        rows.push((name.to_string(), fnv.hex()));
    }
    pin::check("sim/rng_stream::the_generator_streams_are_pinned", rows);
}
