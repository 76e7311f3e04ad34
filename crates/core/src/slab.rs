//! The slot-plus-nonce table behind request handles and correlation tokens.
//!
//! A key packs the slot index with the slot's reuse count. Removing an
//! entry frees the slot; the next insert into it bumps the count, so a key
//! whose entry is gone finds nothing — not even the slot's next tenant.
//! That is what makes a stale [`crate::types::Req`] detectable and lets a
//! late duplicate of an answered request/response message land in
//! `orphan_response` instead of on somebody else's state.

struct Slot<T> {
    nonce: u32,
    item: Option<T>,
}

/// Direct-indexed table of `T` under self-issued `u64` keys.
pub(crate) struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab { slots: Vec::new(), free: Vec::new() }
    }
}

impl<T> Slab<T> {
    /// Store `item` in the most recently freed slot (a fresh one if none is
    /// free) and return its key.
    pub fn insert(&mut self, item: T) -> u64 {
        let (idx, nonce) = match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                slot.nonce = slot.nonce.wrapping_add(1);
                slot.item = Some(item);
                (idx as usize, slot.nonce)
            }
            None => {
                self.slots.push(Slot { nonce: 0, item: Some(item) });
                (self.slots.len() - 1, 0)
            }
        };
        ((idx as u64) << 32) | u64::from(nonce)
    }

    fn slot(&self, key: u64) -> Option<&Slot<T>> {
        self.slots.get((key >> 32) as usize).filter(|s| s.nonce == key as u32)
    }

    fn slot_mut(&mut self, key: u64) -> Option<&mut Slot<T>> {
        self.slots.get_mut((key >> 32) as usize).filter(|s| s.nonce == key as u32)
    }

    /// The entry under `key`, unless it was removed.
    pub fn get(&self, key: u64) -> Option<&T> {
        self.slot(key)?.item.as_ref()
    }

    /// Mutable form of [`Slab::get`].
    pub fn get_mut(&mut self, key: u64) -> Option<&mut T> {
        self.slot_mut(key)?.item.as_mut()
    }

    /// Take the entry under `key` out; the key finds nothing from now on.
    pub fn remove(&mut self, key: u64) -> Option<T> {
        let item = self.slot_mut(key)?.item.take()?;
        self.free.push((key >> 32) as u32);
        Some(item)
    }

    /// The stored entries, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.slots.iter().filter_map(|s| s.item.as_ref())
    }
}
