//! # mpisim-net — simulated cluster interconnect
//!
//! The network substrate under the nonblocking-RMA middleware: an
//! InfiniBand-flavoured cost model (per-message latency, NIC bandwidth,
//! in-order channels, credit-based flow control) plus the intranode 64-bit
//! notification FIFO described in the paper's design section (§VII.D).
//!
//! The model is calibrated so a 1 MB transfer takes ≈340 µs of virtual
//! time, matching the figure the paper quotes for its QDR InfiniBand
//! testbed; see [`NetParams`].

#![warn(missing_docs)]

mod fault;
mod fifo;
mod network;
mod params;
mod payload;
mod vecmap;

pub use fault::{FaultKind, FaultPlan, Partition};
pub use fifo::U64Fifo;
pub use network::{NetStats, Network, Packet, Wire};
pub use params::{NetParams, Rank, Topology};
pub use payload::{Bytes, Payload};
pub use vecmap::{Entry, OccupiedEntry, VacantEntry, VecMap};
