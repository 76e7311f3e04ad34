//! The map behind every per-peer table of a rank: a sorted vector of
//! `(key, value)` pairs searched by binary search.
//!
//! A rank talks to a handful of peers, so its tables hold a handful of rows.
//! A `BTreeMap` pays a whole node for its first row (room for eleven); this
//! map pays for the rows it holds, keeps its capacity across `clear`, and
//! allocates nothing while empty. Iteration is in key order, as a
//! `BTreeMap`'s is, so whatever walks a table walks it in the same order,
//! and `Debug` prints the same text.

use std::fmt;
use std::ops::Index;

/// An ordered map over a sorted `Vec<(K, V)>`: lookups are a binary
/// search, an insert or a remove shifts the rows after it.
#[derive(Clone, PartialEq, Eq)]
pub struct VecMap<K, V> {
    rows: Vec<(K, V)>,
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap { rows: Vec::new() }
    }
}

impl<K: Ord + Copy, V> VecMap<K, V> {
    /// An empty map; allocates nothing until the first insert.
    pub const fn new() -> Self {
        VecMap { rows: Vec::new() }
    }

    fn find(&self, key: &K) -> Result<usize, usize> {
        self.rows.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The value under `key`.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.find(key).ok().map(|at| &self.rows[at].1)
    }

    /// Mutable form of [`VecMap::get`].
    pub fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.find(key).ok().map(|at| &mut self.rows[at].1)
    }

    /// Whether `key` has a value.
    pub fn contains_key(&self, key: &K) -> bool {
        self.find(key).is_ok()
    }

    /// Set `key`'s value, returning the one it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.find(&key) {
            Ok(at) => Some(std::mem::replace(&mut self.rows[at].1, value)),
            Err(at) => {
                self.rows.insert(at, (key, value));
                None
            }
        }
    }

    /// Take `key`'s value out; later rows keep their order.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.find(key).ok().map(|at| self.rows.remove(at).1)
    }

    /// The row of `key`, present or not, for in-place update.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        match self.find(&key) {
            Ok(at) => Entry::Occupied(OccupiedEntry { rows: &mut self.rows, at }),
            Err(at) => Entry::Vacant(VacantEntry { rows: &mut self.rows, at, key }),
        }
    }

    /// The rows in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.rows.iter().map(|(k, v)| (k, v))
    }

    /// The rows in key order, values mutable.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (&K, &mut V)> {
        self.rows.iter_mut().map(|(k, v)| (&*k, v))
    }

    /// The keys in order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.rows.iter().map(|(k, _)| k)
    }

    /// The values in key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.rows.iter().map(|(_, v)| v)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the map has no row.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Drop every row, keeping the allocation for the next inserts.
    pub fn clear(&mut self) {
        self.rows.clear();
    }
}

impl<K: Ord + Copy, V> Index<&K> for VecMap<K, V> {
    type Output = V;

    fn index(&self, key: &K) -> &V {
        self.get(key).expect("no entry found for key")
    }
}

/// Printed as a `BTreeMap` prints: `{k: v, …}` in key order.
impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for VecMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.rows.iter().map(|(k, v)| (k, v))).finish()
    }
}

/// One key's place in a [`VecMap`], from [`VecMap::entry`].
pub enum Entry<'a, K, V> {
    /// The key has a row.
    Occupied(OccupiedEntry<'a, K, V>),
    /// The key has none; this is where it would go.
    Vacant(VacantEntry<'a, K, V>),
}

impl<'a, K, V> Entry<'a, K, V> {
    /// The value, inserted from `make` first if the key has none.
    pub fn or_insert_with(self, make: impl FnOnce() -> V) -> &'a mut V {
        match self {
            Entry::Occupied(o) => o.into_mut(),
            Entry::Vacant(v) => v.insert(make()),
        }
    }

    /// The value, inserted as `V::default()` first if the key has none.
    pub fn or_default(self) -> &'a mut V
    where
        V: Default,
    {
        self.or_insert_with(V::default)
    }
}

/// A key's existing row.
pub struct OccupiedEntry<'a, K, V> {
    rows: &'a mut Vec<(K, V)>,
    at: usize,
}

impl<'a, K, V> OccupiedEntry<'a, K, V> {
    /// The value, borrowed for as long as the map was.
    pub fn into_mut(self) -> &'a mut V {
        &mut self.rows[self.at].1
    }
}

/// Where an absent key's row would go.
pub struct VacantEntry<'a, K, V> {
    rows: &'a mut Vec<(K, V)>,
    at: usize,
    key: K,
}

impl<'a, K, V> VacantEntry<'a, K, V> {
    /// Insert the row and return its value.
    pub fn insert(self, value: V) -> &'a mut V {
        self.rows.insert(self.at, (self.key, value));
        &mut self.rows[self.at].1
    }
}

#[cfg(test)]
#[path = "../../../tests/support/alloc.rs"]
mod alloc;

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::atomic::Ordering;


    use super::alloc::{ALLOCS, COUNTING};
    use super::*;

    /// Allocations `f` makes on this thread.
    fn allocations(f: impl FnOnce()) -> u64 {
        COUNTING.with(|c| c.set(true));
        let before = ALLOCS.load(Ordering::Relaxed);
        f();
        let n = ALLOCS.load(Ordering::Relaxed) - before;
        COUNTING.with(|c| c.set(false));
        n
    }

    /// Any mix of inserts, removes, entry and in-place updates and clears
    /// leaves the map equal to a `BTreeMap` model: the same rows in the
    /// same order, the same lookups, and the same `Debug` text. 64 seeded
    /// cases of up to 400 operations over keys 0..48, so rows are both hit
    /// and missed.
    #[test]
    fn matches_btreemap_model() {
        for case in 0..64 {
            let mut rng = mpisim_sim::seeded_rng(case, 0);
            let mut map: VecMap<u32, u64> = VecMap::new();
            let mut model: BTreeMap<u32, u64> = BTreeMap::new();
            for _ in 0..rng.gen_range(0..400) {
                let (k, v): (u32, u64) = (rng.gen_range(0..48), rng.gen());
                match rng.gen_range(0..42) {
                    0..=13 => assert_eq!(map.insert(k, v), model.insert(k, v), "case {case}"),
                    14..=25 => assert_eq!(map.remove(&k), model.remove(&k), "case {case}"),
                    26..=30 => {
                        *map.entry(k).or_default() += v % 7;
                        *model.entry(k).or_default() += v % 7;
                    }
                    31..=35 => {
                        *map.entry(k).or_insert_with(|| v) ^= 1;
                        *model.entry(k).or_insert_with(|| v) ^= 1;
                    }
                    36..=38 => {
                        if let Some(x) = map.get_mut(&k) {
                            *x = x.wrapping_add(v);
                        }
                        if let Some(x) = model.get_mut(&k) {
                            *x = x.wrapping_add(v);
                        }
                    }
                    39..=40 => {
                        map.iter_mut().for_each(|(k, x)| *x ^= u64::from(*k));
                        model.iter_mut().for_each(|(k, x)| *x ^= u64::from(*k));
                    }
                    _ => {
                        map.clear();
                        model.clear();
                    }
                }
                assert_eq!(map.len(), model.len(), "case {case}");
                assert!(map.iter().eq(model.iter()), "case {case}");
            }
            for k in 0..48 {
                assert_eq!(map.get(&k), model.get(&k), "case {case}");
                assert_eq!(map.contains_key(&k), model.contains_key(&k), "case {case}");
                if let Some(v) = model.get(&k) {
                    assert_eq!(map[&k], *v, "case {case}");
                }
            }
            assert!(map.keys().eq(model.keys()) && map.values().eq(model.values()));
            assert_eq!(format!("{map:?}"), format!("{model:?}"), "case {case}");
            assert_eq!(format!("{map:#?}"), format!("{model:#?}"), "case {case}");
            assert_eq!(map.is_empty(), model.is_empty(), "case {case}");
        }
    }

    #[test]
    #[should_panic(expected = "no entry found for key")]
    fn index_panics_on_an_absent_key() {
        let map: VecMap<u8, u8> = VecMap::new();
        let _ = map[&3];
    }

    /// One `#[test]` measures, so no two measurements share the counter.
    #[test]
    fn an_empty_map_and_a_refill_after_clear_allocate_nothing() {
        let n = allocations(|| {
            let mut map: VecMap<u64, [u64; 4]> = std::hint::black_box(VecMap::new());
            assert!(map.get(&1).is_none() && map.remove(&1).is_none());
            assert!(map.iter().next().is_none() && map.iter_mut().next().is_none());
            map.clear();
            let map: VecMap<u64, u64> = std::hint::black_box(VecMap::default());
            assert!(map.is_empty() && !map.contains_key(&0));
        });
        assert_eq!(n, 0, "an empty map allocated");

        let mut map: VecMap<u64, [u64; 4]> = VecMap::new();
        for k in (0..12).rev() {
            map.insert(k, [k; 4]);
        }
        let n = allocations(|| {
            for round in 0..100u64 {
                map.clear();
                for k in 0..12 {
                    let k = (k * 5 + round) % 12;
                    *map.entry(k).or_default() = [round; 4];
                }
                assert_eq!(map.len(), 12);
            }
        });
        assert_eq!(n, 0, "refilling a cleared map to its old length allocated");
    }
}
