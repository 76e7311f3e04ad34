//! Error reporting for misused RMA semantics.
//!
//! Real MPI implementations abort on most of these; surfacing them as typed
//! errors makes the simulated middleware far easier to test (several unit
//! tests deliberately provoke each variant).

use crate::types::{Rank, WinId};

/// Errors surfaced by the RMA middleware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RmaError {
    /// An RMA communication call was made with no open access epoch
    /// covering the target.
    NoEpoch {
        /// Window involved.
        win: WinId,
        /// Intended target.
        target: Rank,
    },
    /// An epoch-closing routine did not match the kind of the open epoch
    /// (e.g. `complete` with no GATS access epoch open).
    EpochMismatch {
        /// What the application called.
        called: &'static str,
    },
    /// A grant arriving from a target did not match the kind of access the
    /// origin opened — the program's epochs are mismatched (rule 3 of
    /// §VI.A, FIFO matching, was violated).
    GrantKindMismatch {
        /// Window involved.
        win: WinId,
        /// Granting peer.
        peer: Rank,
    },
    /// Address range `[disp, disp+len)` exceeds the target's window.
    OutOfBounds {
        /// Window involved.
        win: WinId,
        /// Target whose region was exceeded.
        target: Rank,
        /// Offending displacement.
        disp: usize,
        /// Offending length.
        len: usize,
    },
    /// Target rank does not exist in the job.
    InvalidRank(usize),
    /// A window id that was never created (or already freed).
    InvalidWindow(WinId),
    /// An already-open epoch forbids this call (e.g. two `lock` calls to
    /// the same target without an `unlock`).
    AlreadyInEpoch {
        /// What the application called.
        called: &'static str,
    },
    /// Datatype/length mismatch (buffer not a multiple of the element
    /// size, or compare-and-swap on more than one element).
    DatatypeMismatch {
        /// Human-readable detail.
        detail: &'static str,
    },
    /// A request handle that was never issued or was already consumed.
    InvalidRequest,
    /// Operation is meaningless for the epoch kind (e.g. flush outside a
    /// passive-target epoch).
    NotPassiveEpoch,
    /// The info key combination is unsupported.
    BadInfo(&'static str),
    /// A barrier was started while this rank's previous one is still
    /// pending; barriers do not overlap.
    BarrierPending,
}

impl std::fmt::Display for RmaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RmaError::NoEpoch { win, target } => {
                write!(f, "RMA call on {win:?} to {target} outside any access epoch")
            }
            RmaError::EpochMismatch { called } => {
                write!(f, "{called} does not match the currently open epoch")
            }
            RmaError::GrantKindMismatch { win, peer } => write!(
                f,
                "grant from {peer} on {win:?} does not match the opened access kind (FIFO matching violated)"
            ),
            RmaError::OutOfBounds {
                win,
                target,
                disp,
                len,
            } => write!(
                f,
                "access [{disp}, {}) exceeds window {win:?} at {target}",
                // The exact end, which may lie past `usize::MAX`.
                *disp as u128 + *len as u128
            ),
            RmaError::InvalidRank(r) => write!(f, "rank {r} out of range"),
            RmaError::InvalidWindow(w) => write!(f, "window {w:?} does not exist"),
            RmaError::AlreadyInEpoch { called } => {
                write!(f, "{called} while a conflicting epoch is already open")
            }
            RmaError::DatatypeMismatch { detail } => write!(f, "datatype mismatch: {detail}"),
            RmaError::InvalidRequest => write!(f, "invalid or already-consumed request handle"),
            RmaError::NotPassiveEpoch => write!(f, "flush requires a passive-target epoch"),
            RmaError::BadInfo(k) => write!(f, "unsupported info combination: {k}"),
            RmaError::BarrierPending => write!(f, "barrier while this rank's previous one is pending"),
        }
    }
}

impl std::error::Error for RmaError {}

/// Shorthand result type for RMA calls.
pub type RmaResult<T> = Result<T, RmaError>;
