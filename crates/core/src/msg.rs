//! Wire messages exchanged by the middleware, and the 64-bit packet
//! encoding used on intranode notification FIFOs.
//!
//! Two planes exist, mirroring the paper's design:
//!
//! * the **data plane** — put/get/accumulate payload movement, priced by
//!   the network model;
//! * the **synchronization plane** — lock requests, grants, epoch-done and
//!   fence-done notifications. Internode these are small control packets;
//!   intranode they are encoded into single 64-bit words pushed through the
//!   per-window-pair shared-memory FIFO (§VII.D: "that notification channel
//!   deals only with 64-bit packets").

use mpisim_net::{Payload, Wire};

use crate::datatype::{Datatype, ReduceOp};
use crate::types::{LockKind, Rank, WinId};

/// Memory layout of an RMA transfer at the target — the `target_datatype`
/// dimension of MPI RMA calls (§VI.C reasons about overlap via `disp`,
/// `target_datatype`, and `count`). The wire always carries the packed
/// bytes; the target scatters or gathers according to the layout.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Layout {
    /// One contiguous region.
    Contig,
    /// `count` blocks of `blocklen` bytes, the start of consecutive blocks
    /// `stride` bytes apart (an `MPI_Type_vector` of bytes).
    Vector {
        /// Number of blocks.
        count: usize,
        /// Bytes per block.
        blocklen: usize,
        /// Distance between block starts, bytes (≥ blocklen).
        stride: usize,
    },
}

impl Layout {
    /// Total bytes the layout touches at the target, from its start.
    pub fn extent(&self, packed_len: usize) -> usize {
        match self {
            Layout::Contig => packed_len,
            Layout::Vector { count, blocklen, stride } => {
                if *count == 0 {
                    0
                } else {
                    (count - 1) * stride + blocklen
                }
            }
        }
    }

    /// Bytes actually transferred (the packed size).
    pub fn packed_len(&self, contig_len: usize) -> usize {
        match self {
            Layout::Contig => contig_len,
            Layout::Vector { count, blocklen, .. } => count * blocklen,
        }
    }
}

/// Which epoch context an RMA data message belongs to at the target.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EpochTag {
    /// Data inside a GATS access epoch with this per-pair access id.
    Gats {
        /// The origin's access id toward this target (`A_i` of §VII.B).
        access_id: u64,
    },
    /// Data inside a passive-target lock epoch with this access id.
    Lock {
        /// The origin's access id toward this target.
        access_id: u64,
    },
    /// Data inside a fence epoch with this sequence number.
    Fence {
        /// Window-global fence sequence number.
        seq: u64,
    },
}

/// Fetch-style operations that return the previous target contents.
#[derive(Clone, Debug, PartialEq)]
pub enum FetchKind {
    /// `MPI_GET_ACCUMULATE`.
    GetAccumulate,
    /// `MPI_FETCH_AND_OP` (single element).
    FetchAndOp,
    /// `MPI_COMPARE_AND_SWAP` (single element; swap iff equal to compare).
    CompareAndSwap {
        /// The comparand bytes.
        compare: Vec<u8>,
    },
}

/// What kind of access a [`Body::Grant`] message grants.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum GrantKind {
    /// A GATS exposure was opened matching the origin's access epoch.
    Exposure,
    /// A passive-target lock was acquired for the origin.
    Lock,
}

/// Every message the middleware puts on the wire.
#[derive(Clone, Debug)]
pub enum Body {
    // ---------------- data plane ----------------
    /// Put payload into the target window.
    PutData {
        /// Target window.
        win: WinId,
        /// Epoch context at the target.
        tag: EpochTag,
        /// Byte displacement into the target window.
        disp: usize,
        /// Target-side layout (payload carries the packed bytes).
        layout: Layout,
        /// The data (or a synthetic size).
        payload: Payload,
    },
    /// Accumulate payload into the target window (applied atomically,
    /// elementwise, on delivery).
    AccData {
        /// Target window.
        win: WinId,
        /// Epoch context at the target.
        tag: EpochTag,
        /// Byte displacement into the target window.
        disp: usize,
        /// Element datatype.
        dt: Datatype,
        /// Reduction operator.
        op: ReduceOp,
        /// Operand data.
        payload: Payload,
    },
    /// Rendezvous request for a large accumulate (the target must stage an
    /// intermediate buffer, which is why large accumulates cannot overlap —
    /// §VIII.A).
    AccRts {
        /// Target window.
        win: WinId,
        /// Operand size, bytes.
        size: usize,
        /// Token correlating the CTS.
        token: u64,
    },
    /// Clear-to-send reply for an [`Body::AccRts`].
    AccCts {
        /// Token from the RTS.
        token: u64,
    },
    /// Read `len` bytes from the target window.
    GetReq {
        /// Target window.
        win: WinId,
        /// Epoch context at the target.
        tag: EpochTag,
        /// Byte displacement into the target window.
        disp: usize,
        /// Packed bytes to read.
        len: usize,
        /// Target-side layout to gather from.
        layout: Layout,
        /// Token correlating the response.
        token: u64,
    },
    /// Response carrying get data back to the origin.
    GetResp {
        /// Origin window.
        win: WinId,
        /// Token from the request.
        token: u64,
        /// The data read.
        payload: Payload,
    },
    /// A fetch-style atomic (get_accumulate / fetch_and_op / CAS).
    FetchReq {
        /// Target window.
        win: WinId,
        /// Epoch context at the target.
        tag: EpochTag,
        /// Which fetch operation.
        fetch: FetchKind,
        /// Byte displacement into the target window.
        disp: usize,
        /// Element datatype.
        dt: Datatype,
        /// Reduction operator (ignored for CAS).
        op: ReduceOp,
        /// Operand bytes.
        operand: Payload,
        /// Token correlating the response.
        token: u64,
    },
    /// Response carrying the previous target contents of a fetch-style op.
    FetchResp {
        /// Origin window.
        win: WinId,
        /// Token from the request.
        token: u64,
        /// Previous contents.
        payload: Payload,
    },

    // ---------------- synchronization plane ----------------
    /// Passive-target lock request (carries the origin's access id so the
    /// target can sequence grants per §VII.B).
    LockReq {
        /// Target window.
        win: WinId,
        /// The origin's access id toward the target.
        access_id: u64,
        /// Exclusive or shared.
        kind: LockKind,
    },
    /// Access granted: the one-sided update of the origin's `g_r` counter.
    Grant {
        /// Window.
        win: WinId,
        /// The granted access id (`g_r` becomes this value).
        id: u64,
        /// Exposure-match or lock grant.
        kind: GrantKind,
    },
    /// Origin finished a GATS access epoch toward this target ("done
    /// packet containing `A_i`", §VII.B).
    GatsDone {
        /// Window.
        win: WinId,
        /// The access id being closed.
        access_id: u64,
    },
    /// Origin releases a passive-target lock ("a different kind of done
    /// packet", §VII.B).
    Unlock {
        /// Window.
        win: WinId,
        /// The access id of the lock epoch being closed.
        access_id: u64,
    },
    /// Closing-fence announcement: carries how many data messages the
    /// sender issued toward the receiver inside fence epoch `seq`.
    FenceDone {
        /// Window.
        win: WinId,
        /// Fence sequence being closed.
        seq: u64,
        /// Data-plane messages the sender directed at the receiver in this
        /// fence epoch.
        ops_sent: u64,
    },
    /// A synchronization-plane packet travelling intranode, encoded as one
    /// 64-bit word for the per-window-pair notification FIFO.
    Fifo64 {
        /// Window (also encoded inside, kept here for routing).
        win: WinId,
        /// The encoded packet.
        packet: u64,
    },
    /// Several 64-bit sync words for the *same* per-window-pair FIFO,
    /// coalesced into a single push: the progress engine batches the words
    /// one sweep pass produces per channel instead of issuing one
    /// syscall-shaped push per notice. FIFO order of the words is
    /// preserved; the receiver pushes them into the ring one by one.
    Fifo64Batch {
        /// Window (also encoded inside each word, kept here for routing).
        win: WinId,
        /// The encoded packets, in send order.
        packets: Vec<u64>,
    },

    // ---------------- two-sided plane ----------------
    /// Eager two-sided message.
    P2pEager {
        /// Match tag.
        tag: u64,
        /// The data.
        payload: Payload,
    },
    /// Rendezvous ready-to-send for a large two-sided message.
    P2pRts {
        /// Match tag.
        tag: u64,
        /// Data size.
        size: usize,
        /// Token correlating CTS/data.
        token: u64,
    },
    /// Clear-to-send reply.
    P2pCts {
        /// The sender's token from the RTS.
        token: u64,
        /// A fresh receiver-side token identifying the data leg.
        data_token: u64,
    },
    /// Rendezvous data.
    P2pData {
        /// The receiver's token from the CTS.
        data_token: u64,
        /// The data.
        payload: Payload,
    },
    /// Dissemination-barrier round message.
    BarrierMsg {
        /// Barrier generation.
        seq: u64,
        /// Dissemination round.
        round: u32,
    },

    // ---------------- reliability sublayer ----------------
    /// A sequence-numbered reliability frame wrapping one internode
    /// message. The receiver delivers frames of a channel in sequence
    /// order exactly once, acknowledges cumulatively, and drops frames
    /// whose checksum does not match the inner body.
    Rel {
        /// Per-`(src, dst)` channel sequence number (1-based, contiguous).
        seq: u64,
        /// Structural digest of `inner` at send time (see [`Body::digest`]).
        checksum: u64,
        /// The framed message.
        inner: Box<Body>,
    },
    /// Cumulative acknowledgement for a reliability channel: every frame
    /// with `seq <= cum` has been received (delivered or deduplicated).
    /// Acks are never framed themselves — a lost ack is repaired by the
    /// retransmit it provokes.
    RelAck {
        /// Highest in-order sequence received on the reverse channel.
        cum: u64,
    },
}

impl Body {
    /// Deterministic structural digest used as the reliability-frame
    /// checksum. It mixes the variant, the modeled wire size, and the
    /// identifying header fields; payload *contents* are not hashed
    /// (payloads may be synthetic sizes), matching a real transport's CRC
    /// over header-plus-length granularity at simulation fidelity.
    pub fn digest(&self) -> u64 {
        fn tag_bits(t: &EpochTag) -> u64 {
            match t {
                EpochTag::Gats { access_id } => 0x10 ^ (access_id << 8),
                EpochTag::Lock { access_id } => 0x20 ^ (access_id << 8),
                EpochTag::Fence { seq } => 0x30 ^ (seq << 8),
            }
        }
        let (ty, a, b): (u64, u64, u64) = match self {
            Body::PutData { win, tag, disp, .. } => {
                (1, u64::from(win.0) ^ tag_bits(tag), *disp as u64)
            }
            Body::AccData { win, tag, disp, .. } => {
                (2, u64::from(win.0) ^ tag_bits(tag), *disp as u64)
            }
            Body::AccRts { win, size, token } => {
                (3, u64::from(win.0) ^ (*size as u64), *token)
            }
            Body::AccCts { token } => (4, *token, 0),
            Body::GetReq { win, tag, disp, token, .. } => {
                (5, u64::from(win.0) ^ tag_bits(tag) ^ (*disp as u64), *token)
            }
            Body::GetResp { win, token, .. } => (6, u64::from(win.0), *token),
            Body::FetchReq { win, tag, disp, token, .. } => {
                (7, u64::from(win.0) ^ tag_bits(tag) ^ (*disp as u64), *token)
            }
            Body::FetchResp { win, token, .. } => (8, u64::from(win.0), *token),
            Body::LockReq { win, access_id, kind } => (
                9,
                u64::from(win.0) ^ (*access_id << 8),
                matches!(kind, LockKind::Exclusive) as u64,
            ),
            Body::Grant { win, id, kind } => (
                10,
                u64::from(win.0) ^ (*id << 8),
                matches!(kind, GrantKind::Lock) as u64,
            ),
            Body::GatsDone { win, access_id } => (11, u64::from(win.0), *access_id),
            Body::Unlock { win, access_id } => (12, u64::from(win.0), *access_id),
            Body::FenceDone { win, seq, ops_sent } => {
                (13, u64::from(win.0) ^ (*seq << 8), *ops_sent)
            }
            Body::Fifo64 { win, packet } => (14, u64::from(win.0), *packet),
            Body::Fifo64Batch { win, packets } => {
                // Fold every word so any reordering or bit flip inside the
                // batch changes the digest.
                let mut acc = 0u64;
                for p in packets {
                    acc = acc.rotate_left(7) ^ p;
                }
                (22, u64::from(win.0) ^ (packets.len() as u64), acc)
            }
            Body::P2pEager { tag, .. } => (15, *tag, 0),
            Body::P2pRts { tag, size, token } => (16, *tag ^ (*size as u64), *token),
            Body::P2pCts { token, data_token } => (17, *token, *data_token),
            Body::P2pData { data_token, .. } => (18, *data_token, 0),
            Body::BarrierMsg { seq, round } => (19, *seq, u64::from(*round)),
            Body::Rel { seq, inner, .. } => (20, *seq, inner.digest()),
            Body::RelAck { cum } => (21, *cum, 0),
        };
        // FNV-1a over the three words plus the wire size.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for w in [ty, a, b, self.payload_len() as u64] {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

impl Wire for Body {
    fn payload_len(&self) -> usize {
        match self {
            Body::PutData { payload, .. }
            | Body::AccData { payload, .. }
            | Body::GetResp { payload, .. }
            | Body::FetchResp { payload, .. }
            | Body::P2pEager { payload, .. }
            | Body::P2pData { payload, .. } => payload.len(),
            Body::FetchReq { operand, fetch, .. } => {
                operand.len()
                    + match fetch {
                        FetchKind::CompareAndSwap { compare } => compare.len(),
                        _ => 0,
                    }
            }
            // Control packets are priced by the fixed header alone; the
            // intranode 64-bit packet adds its word, a batched push the
            // sum of its words.
            Body::Fifo64 { .. } => 8,
            Body::Fifo64Batch { packets, .. } => 8 * packets.len(),
            // A reliability frame carries its inner message plus the
            // 16-byte sequence/checksum trailer; acks are pure control.
            Body::Rel { inner, .. } => inner.payload_len() + 16,
            _ => 0,
        }
    }

    fn corrupt_in_transit(&mut self) {
        // Model in-transit corruption as a checksum mismatch on framed
        // traffic: the receiver recomputes the inner digest, sees the
        // flip, and drops the frame for retransmit. Unframed traffic has
        // no integrity check — corruption of it is silent, exactly the
        // failure mode the reliability sublayer exists to close.
        if let Body::Rel { checksum, .. } = self {
            *checksum ^= 1;
        }
    }

    fn duplicate(&self) -> Option<Self> {
        Some(self.clone())
    }
}

// ---------------------------------------------------------------------
// 64-bit intranode packet encoding (§VII.D)
//
// Layout: [63:60 type] [59:52 win] [51:32 src rank] [31:0 id]
// ---------------------------------------------------------------------

/// A decoded intranode synchronization packet.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SyncPacket {
    /// Lock request (exclusive).
    LockReqExcl {
        /// Window.
        win: WinId,
        /// Requesting origin.
        origin: Rank,
        /// Origin's access id.
        access_id: u64,
    },
    /// Lock request (shared).
    LockReqShared {
        /// Window.
        win: WinId,
        /// Requesting origin.
        origin: Rank,
        /// Origin's access id.
        access_id: u64,
    },
    /// Exposure-match grant.
    GrantExposure {
        /// Window.
        win: WinId,
        /// Granting peer.
        granter: Rank,
        /// Granted access id.
        id: u64,
    },
    /// Lock grant.
    GrantLock {
        /// Window.
        win: WinId,
        /// Granting peer.
        granter: Rank,
        /// Granted access id.
        id: u64,
    },
    /// GATS epoch-done notification.
    GatsDone {
        /// Window.
        win: WinId,
        /// Origin closing its access epoch.
        origin: Rank,
        /// Closed access id.
        access_id: u64,
    },
    /// Lock release.
    Unlock {
        /// Window.
        win: WinId,
        /// Origin releasing the lock.
        origin: Rank,
        /// Access id of the released lock epoch.
        access_id: u64,
    },
}

const TY_LOCK_EXCL: u64 = 1;
const TY_LOCK_SHARED: u64 = 2;
const TY_GRANT_EXPO: u64 = 3;
const TY_GRANT_LOCK: u64 = 4;
const TY_GATS_DONE: u64 = 5;
const TY_UNLOCK: u64 = 6;

fn pack(ty: u64, win: WinId, rank: Rank, id: u64) -> u64 {
    assert!(u64::from(win.0) < 256, "64-bit packet: window id must be < 256");
    assert!(rank.idx() < (1 << 20), "64-bit packet: rank must be < 2^20");
    assert!(id < (1 << 32), "64-bit packet: id must be < 2^32");
    (ty << 60) | (u64::from(win.0) << 52) | ((rank.idx() as u64) << 32) | id
}

impl SyncPacket {
    /// Encode into one 64-bit word.
    pub fn encode(self) -> u64 {
        match self {
            SyncPacket::LockReqExcl {
                win,
                origin,
                access_id,
            } => pack(TY_LOCK_EXCL, win, origin, access_id),
            SyncPacket::LockReqShared {
                win,
                origin,
                access_id,
            } => pack(TY_LOCK_SHARED, win, origin, access_id),
            SyncPacket::GrantExposure { win, granter, id } => pack(TY_GRANT_EXPO, win, granter, id),
            SyncPacket::GrantLock { win, granter, id } => pack(TY_GRANT_LOCK, win, granter, id),
            SyncPacket::GatsDone {
                win,
                origin,
                access_id,
            } => pack(TY_GATS_DONE, win, origin, access_id),
            SyncPacket::Unlock {
                win,
                origin,
                access_id,
            } => pack(TY_UNLOCK, win, origin, access_id),
        }
    }

    /// Decode a 64-bit word. Returns `None` for an unknown type nibble.
    pub fn decode(w: u64) -> Option<SyncPacket> {
        let ty = w >> 60;
        let win = WinId(((w >> 52) & 0xFF) as u32);
        let rank = Rank(((w >> 32) & 0xF_FFFF) as usize);
        let id = w & 0xFFFF_FFFF;
        Some(match ty {
            TY_LOCK_EXCL => SyncPacket::LockReqExcl {
                win,
                origin: rank,
                access_id: id,
            },
            TY_LOCK_SHARED => SyncPacket::LockReqShared {
                win,
                origin: rank,
                access_id: id,
            },
            TY_GRANT_EXPO => SyncPacket::GrantExposure {
                win,
                granter: rank,
                id,
            },
            TY_GRANT_LOCK => SyncPacket::GrantLock {
                win,
                granter: rank,
                id,
            },
            TY_GATS_DONE => SyncPacket::GatsDone {
                win,
                origin: rank,
                access_id: id,
            },
            TY_UNLOCK => SyncPacket::Unlock {
                win,
                origin: rank,
                access_id: id,
            },
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every sync kind survives the 64-bit word at the extremes of each
    /// field it carries.
    #[test]
    fn sync_packet_roundtrip() {
        type Make = fn(WinId, Rank, u64) -> SyncPacket;
        let kinds: [Make; 6] = [
            |win, origin, access_id| SyncPacket::LockReqExcl { win, origin, access_id },
            |win, origin, access_id| SyncPacket::LockReqShared { win, origin, access_id },
            |win, granter, id| SyncPacket::GrantExposure { win, granter, id },
            |win, granter, id| SyncPacket::GrantLock { win, granter, id },
            |win, origin, access_id| SyncPacket::GatsDone { win, origin, access_id },
            |win, origin, access_id| SyncPacket::Unlock { win, origin, access_id },
        ];
        for make in kinds {
            for win in [WinId(0), WinId(255)] {
                for peer in [Rank(0), Rank((1 << 20) - 1)] {
                    for id in [0, 1, (1 << 32) - 1] {
                        let c = make(win, peer, id);
                        assert_eq!(SyncPacket::decode(c.encode()), Some(c));
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_type_decodes_to_none() {
        assert_eq!(SyncPacket::decode(0), None);
        assert_eq!(SyncPacket::decode(0xF << 60), None);
    }

    #[test]
    #[should_panic(expected = "window id must be < 256")]
    fn oversized_window_rejected() {
        let _ = SyncPacket::GatsDone {
            win: WinId(256),
            origin: Rank(0),
            access_id: 0,
        }
        .encode();
    }

    /// The pricing table: one instance of every message kind with the
    /// payload bytes the network model charges for it beyond the header.
    #[test]
    fn wire_sizes() {
        use mpisim_net::Payload;
        let (win, tag, token) = (WinId(0), EpochTag::Lock { access_id: 1 }, 7);
        let data = || Payload::Synthetic(4096);
        let word = || Payload::copy_from_slice(&[0; 8]);
        let fetch = |fetch| Body::FetchReq {
            win,
            tag,
            fetch,
            disp: 0,
            dt: Datatype::U64,
            op: ReduceOp::Sum,
            operand: word(),
            token,
        };
        let vector = Layout::Vector { count: 4, blocklen: 8, stride: 64 };
        let table: Vec<(&str, Body, usize)> = vec![
            ("put", Body::PutData { win, tag, disp: 0, layout: Layout::Contig, payload: data() }, 4096),
            ("put, strided", Body::PutData { win, tag, disp: 0, layout: vector, payload: Payload::Synthetic(32) }, 32),
            ("accumulate", Body::AccData { win, tag, disp: 0, dt: Datatype::U64, op: ReduceOp::Sum, payload: data() }, 4096),
            ("accumulate rts", Body::AccRts { win, size: 1 << 20, token }, 0),
            ("accumulate cts", Body::AccCts { token }, 0),
            ("get", Body::GetReq { win, tag, disp: 0, len: 4096, layout: Layout::Contig, token }, 0),
            ("get response", Body::GetResp { win, token, payload: data() }, 4096),
            ("get_accumulate", fetch(FetchKind::GetAccumulate), 8),
            ("fetch_and_op", fetch(FetchKind::FetchAndOp), 8),
            ("compare_and_swap", fetch(FetchKind::CompareAndSwap { compare: vec![0; 8] }), 16),
            ("fetch response", Body::FetchResp { win, token, payload: word() }, 8),
            ("lock request, exclusive", Body::LockReq { win, access_id: 1, kind: LockKind::Exclusive }, 0),
            ("lock request, shared", Body::LockReq { win, access_id: 1, kind: LockKind::Shared }, 0),
            ("exposure grant", Body::Grant { win, id: 1, kind: GrantKind::Exposure }, 0),
            ("lock grant", Body::Grant { win, id: 1, kind: GrantKind::Lock }, 0),
            ("gats done", Body::GatsDone { win, access_id: 1 }, 0),
            ("unlock", Body::Unlock { win, access_id: 1 }, 0),
            ("fence done", Body::FenceDone { win, seq: 1, ops_sent: 3 }, 0),
            ("fifo word", Body::Fifo64 { win, packet: 0 }, 8),
            ("fifo batch", Body::Fifo64Batch { win, packets: vec![1, 2, 3] }, 24),
            ("p2p eager", Body::P2pEager { tag: 1, payload: data() }, 4096),
            ("p2p rts", Body::P2pRts { tag: 1, size: 1 << 20, token }, 0),
            ("p2p cts", Body::P2pCts { token, data_token: 8 }, 0),
            ("p2p data", Body::P2pData { data_token: 8, payload: data() }, 4096),
            ("barrier", Body::BarrierMsg { seq: 1, round: 0 }, 0),
            ("rel ack", Body::RelAck { cum: 1 }, 0),
        ];
        for (name, body, want) in &table {
            assert_eq!(body.payload_len(), *want, "{name}");
            // A reliability frame adds its 16-byte sequence/checksum trailer.
            let framed = Body::Rel { seq: 1, checksum: body.digest(), inner: Box::new(body.clone()) };
            assert_eq!(framed.payload_len(), want + 16, "framed {name}");
        }
        // Word order matters on the wire: a reordered batch must not
        // digest identically.
        let batch = Body::Fifo64Batch { win, packets: vec![1, 2, 3] };
        let swapped = Body::Fifo64Batch { win, packets: vec![2, 1, 3] };
        assert_ne!(batch.digest(), swapped.digest());
    }
}

#[cfg(test)]
mod layout_tests {
    use super::*;

    #[test]
    fn contig_extent_equals_len() {
        assert_eq!(Layout::Contig.extent(100), 100);
        assert_eq!(Layout::Contig.packed_len(100), 100);
    }

    #[test]
    fn vector_extent_and_packed() {
        let v = Layout::Vector { count: 3, blocklen: 4, stride: 10 };
        assert_eq!(v.packed_len(0), 12);
        assert_eq!(v.extent(12), 2 * 10 + 4);
        let empty = Layout::Vector { count: 0, blocklen: 4, stride: 10 };
        assert_eq!(empty.extent(0), 0);
        // stride == blocklen degenerates to contiguous coverage
        let tight = Layout::Vector { count: 5, blocklen: 8, stride: 8 };
        assert_eq!(tight.extent(40), 40);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// A vector layout's extent always fits count disjoint blocks:
        /// extent >= packed length, with equality iff stride == blocklen.
        #[test]
        fn vector_extent_bounds(count in 1usize..50, blocklen in 1usize..64, pad in 0usize..32) {
            let stride = blocklen + pad;
            let l = Layout::Vector { count, blocklen, stride };
            let packed = l.packed_len(0);
            prop_assert_eq!(packed, count * blocklen);
            prop_assert!(l.extent(packed) >= packed);
            if pad == 0 {
                prop_assert_eq!(l.extent(packed), packed);
            }
        }

        #[test]
        fn packet_roundtrip_all_fields(
            ty in 1u64..=6,
            win in 0u32..256,
            rank in 0usize..(1 << 20),
            id in 0u64..(1u64 << 32),
        ) {
            let p = match ty {
                1 => SyncPacket::LockReqExcl { win: WinId(win), origin: Rank(rank), access_id: id },
                2 => SyncPacket::LockReqShared { win: WinId(win), origin: Rank(rank), access_id: id },
                3 => SyncPacket::GrantExposure { win: WinId(win), granter: Rank(rank), id },
                4 => SyncPacket::GrantLock { win: WinId(win), granter: Rank(rank), id },
                5 => SyncPacket::GatsDone { win: WinId(win), origin: Rank(rank), access_id: id },
                _ => SyncPacket::Unlock { win: WinId(win), origin: Rank(rank), access_id: id },
            };
            prop_assert_eq!(SyncPacket::decode(p.encode()), Some(p));
        }
    }
}
