//! Message payloads: real bytes (validated end to end) or synthetic
//! (size-only, for paper-scale runs where carrying data would dominate
//! simulation cost without changing timing).

use std::sync::Arc;

/// Real payload bytes: one shared, immutable buffer, cloned by a refcount
/// bump. The `Vec` backing lets [`Payload::from_vec`] adopt a packed
/// buffer without copying it (`Arc<[u8]>` would copy).
pub type Bytes = Arc<Vec<u8>>;

/// The body of a data-bearing message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Payload {
    /// Actual data, copied into target memory on delivery.
    Bytes(Bytes),
    /// A size-only stand-in: times like real data, delivers no bytes.
    Synthetic(usize),
}

impl Payload {
    /// Wire length in bytes.
    pub fn len(&self) -> usize {
        match self {
            Payload::Bytes(b) => b.len(),
            Payload::Synthetic(n) => *n,
        }
    }

    /// Whether the payload is zero-length.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrow the real bytes, if any.
    pub fn bytes(&self) -> Option<&Bytes> {
        match self {
            Payload::Bytes(b) => Some(b),
            Payload::Synthetic(_) => None,
        }
    }

    /// The delivered data, taken by value — avoids the refcount bump (and,
    /// for unique buffers, the deep copy) a `bytes().cloned()` round trip
    /// would cost. A synthetic payload delivers its length in zeros.
    pub fn into_data(self) -> Bytes {
        match self {
            Payload::Bytes(b) => b,
            Payload::Synthetic(n) => Arc::new(vec![0u8; n]),
        }
    }

    /// Build a payload from a slice (copies).
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Payload::Bytes(Arc::new(data.to_vec()))
    }

    /// Adopt an owned buffer without copying it.
    pub fn from_vec(data: Vec<u8>) -> Self {
        Payload::Bytes(Arc::new(data))
    }

    /// An empty real payload.
    pub fn empty() -> Self {
        Payload::Bytes(Bytes::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lengths() {
        assert_eq!(Payload::copy_from_slice(&[1, 2, 3]).len(), 3);
        assert_eq!(Payload::Synthetic(1 << 20).len(), 1 << 20);
        assert!(Payload::empty().is_empty());
        assert!(!Payload::Synthetic(1).is_empty());
    }

    #[test]
    fn bytes_accessor() {
        let p = Payload::copy_from_slice(b"hi");
        assert_eq!(p.bytes().unwrap().as_ref(), b"hi");
        assert!(Payload::Synthetic(2).bytes().is_none());
    }

    #[test]
    fn from_vec_and_into_data_round_trip() {
        let p = Payload::from_vec(vec![9, 8, 7]);
        assert_eq!(p.len(), 3);
        assert_eq!(p.into_data().as_ref(), &[9, 8, 7]);
        assert_eq!(Payload::Synthetic(4).into_data().as_ref(), &[0; 4]);
    }

    #[test]
    fn from_vec_adopts_the_allocation() {
        let v = vec![7u8; 64];
        let ptr = v.as_ptr();
        assert!(std::ptr::eq(ptr, Payload::from_vec(v).into_data().as_ptr()));
    }
}
