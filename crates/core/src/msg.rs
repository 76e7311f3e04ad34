//! The wire vocabulary: every message the middleware sends is described
//! here, once — its fields, its wire size and its digest — and nowhere else.
//!
//! Two planes exist, mirroring the paper's design:
//!
//! * the **data plane** — one [`Body::Op`] carrying the recorded [`OpKind`]
//!   as the origin's call recorded it, answered by one [`Body::OpResp`] for
//!   the kinds that read the target; priced by [`OpKind::wire_len`];
//! * the **synchronization plane** — one [`SyncPacket`] record (lock
//!   request, grant, GATS done, unlock) that is the in-memory form on both
//!   transports: internode it rides a [`Body::Sync`] control packet,
//!   intranode it is encoded into a single 64-bit word pushed through the
//!   per-(window, peer) shared-memory FIFO (§VII.D: "that notification
//!   channel deals only with 64-bit packets").
//!
//! The fence announcement, the accumulate rendezvous handshake, the
//! two-sided plane and the reliability frames are the remaining [`Body`]
//! variants. DESIGN.md §4.6 tabulates all of them.

use mpisim_net::{Payload, Wire};

use crate::datatype::{Datatype, ReduceOp};
use crate::trace::AccessKind;
use crate::types::{Rank, WinId};

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

    /// The contiguous target blocks `(start, len)` a transfer of
    /// `packed_len` bytes at displacement `disp` covers, in packed order.
    pub fn blocks(&self, disp: usize, packed_len: usize) -> impl Iterator<Item = (usize, usize)> {
        let (count, blocklen, stride) = match *self {
            Layout::Contig => (1, packed_len, 0),
            Layout::Vector {
                count,
                blocklen,
                stride,
            } => (count, blocklen, stride),
        };
        (0..count).map(move |b| (disp + b * stride, blocklen))
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

/// An RMA operation: what the origin's call records is what the wire
/// carries ([`Body::Op`]) and what the target applies.
#[derive(Clone, Debug)]
pub enum OpKind {
    /// Put `payload` at the target.
    Put {
        /// Data to write (packed).
        payload: Payload,
        /// Target-side layout.
        layout: Layout,
    },
    /// Get `len` packed bytes from the target.
    Get {
        /// Packed bytes to read.
        len: usize,
        /// Target-side layout to gather from.
        layout: Layout,
    },
    /// Accumulate `payload` into the target (applied atomically,
    /// elementwise, on delivery).
    Acc {
        /// Element datatype.
        dt: Datatype,
        /// Reduction operator.
        op: ReduceOp,
        /// Operand data.
        payload: Payload,
    },
    /// Fetch-style atomic returning previous contents.
    Fetch {
        /// Which fetch flavour.
        fetch: FetchKind,
        /// Element datatype.
        dt: Datatype,
        /// Reduction operator (ignored for CAS).
        op: ReduceOp,
        /// Operand data.
        operand: Payload,
    },
}

impl OpKind {
    /// Whether the op sends a payload whose local completion must be
    /// tracked before the origin buffer is reusable.
    pub fn sends_payload(&self) -> bool {
        !matches!(self, OpKind::Get { .. })
    }

    /// Whether the op awaits a [`Body::OpResp`].
    pub fn expects_response(&self) -> bool {
        matches!(self, OpKind::Get { .. } | OpKind::Fetch { .. })
    }

    /// Packed bytes the op moves to or from the target window, and how
    /// they are laid out there.
    pub fn shape(&self) -> (usize, Layout) {
        match self {
            OpKind::Put { payload, layout } => (payload.len(), *layout),
            OpKind::Get { len, layout } => (*len, *layout),
            OpKind::Acc { payload, .. } => (payload.len(), Layout::Contig),
            OpKind::Fetch { operand, .. } => (operand.len(), Layout::Contig),
        }
    }

    /// Bytes the op touches at the target, from its displacement.
    pub fn extent(&self) -> usize {
        let (len, layout) = self.shape();
        layout.extent(len)
    }

    /// Payload bytes the request carries on the wire.
    pub fn wire_len(&self) -> usize {
        match self {
            OpKind::Put { payload, .. } | OpKind::Acc { payload, .. } => payload.len(),
            OpKind::Get { .. } => 0,
            OpKind::Fetch { operand, fetch, .. } => match fetch {
                FetchKind::CompareAndSwap { compare } => operand.len() + compare.len(),
                _ => operand.len(),
            },
        }
    }

    /// How the op touches those bytes, for the race detector.
    pub fn access(&self) -> AccessKind {
        match self {
            OpKind::Put { .. } => AccessKind::Write,
            OpKind::Get { .. } => AccessKind::Read,
            OpKind::Acc { op, .. } => AccessKind::Atomic(*op),
            OpKind::Fetch {
                fetch: FetchKind::CompareAndSwap { .. },
                ..
            } => AccessKind::AtomicCas,
            OpKind::Fetch { op, .. } => AccessKind::Atomic(*op),
        }
    }
}

/// The six synchronization-plane messages. The discriminant is the type
/// nibble of the intranode 64-bit word.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SyncKind {
    /// Passive-target lock request, exclusive.
    LockReqExcl = 1,
    /// Passive-target lock request, shared.
    LockReqShared = 2,
    /// A GATS exposure was opened matching the origin's access epoch: the
    /// one-sided update of the origin's `g_r` counter.
    GrantExposure = 3,
    /// A passive-target lock was acquired for the origin.
    GrantLock = 4,
    /// Origin finished a GATS access epoch toward this target ("done
    /// packet containing `A_i`", §VII.B).
    GatsDone = 5,
    /// Origin releases a passive-target lock ("a different kind of done
    /// packet", §VII.B).
    Unlock = 6,
}

impl SyncKind {
    /// Every kind, in type-nibble order.
    pub const ALL: [SyncKind; 6] = [
        SyncKind::LockReqExcl,
        SyncKind::LockReqShared,
        SyncKind::GrantExposure,
        SyncKind::GrantLock,
        SyncKind::GatsDone,
        SyncKind::Unlock,
    ];
}

/// A synchronization-plane message, the same record on both transports.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct SyncPacket {
    /// What is being said.
    pub kind: SyncKind,
    /// The window it is about.
    pub win: WinId,
    /// The sender: the requesting or closing origin, or the granter.
    pub peer: Rank,
    /// The access id requested, granted or closed (`A_i` / `g_r`, §VII.B).
    pub id: u64,
}

// The intranode 64-bit word (§VII.D) is `[63:60 type] [59:0 id]`. Window
// and sender are not in it: the FIFO it travels through is per (window,
// peer), so the channel already says both.
const ID_BITS: u32 = 60;

impl SyncPacket {
    /// Encode into the 64-bit FIFO word.
    pub fn word(self) -> u64 {
        assert!(self.id < (1 << ID_BITS), "64-bit packet: id must be < 2^60");
        ((self.kind as u64) << ID_BITS) | self.id
    }

    /// Decode a word popped from `peer`'s FIFO on `win`. Returns `None`
    /// for an unknown type nibble.
    pub fn from_word(win: WinId, peer: Rank, word: u64) -> Option<SyncPacket> {
        let kind = *SyncKind::ALL.get(((word >> ID_BITS) as usize).wrapping_sub(1))?;
        Some(SyncPacket {
            kind,
            win,
            peer,
            id: word & ((1 << ID_BITS) - 1),
        })
    }
}

/// Every message the middleware puts on the wire.
#[derive(Clone, Debug)]
pub enum Body {
    // ---------------- data plane ----------------
    /// One RMA operation heading for the target window.
    Op {
        /// Target window.
        win: WinId,
        /// Epoch context at the target.
        tag: EpochTag,
        /// Byte displacement into the target window.
        disp: usize,
        /// Token correlating the [`Body::OpResp`], for the kinds that
        /// expect one.
        token: Option<u64>,
        /// The operation, as recorded.
        kind: OpKind,
    },
    /// Response carrying what a get or fetch-style op read at the target.
    OpResp {
        /// Token from the request.
        token: u64,
        /// The data read (for fetch-style ops, the previous contents).
        payload: Payload,
    },
    /// Rendezvous request for a large accumulate (the target must stage an
    /// intermediate buffer, which is why large accumulates cannot overlap —
    /// §VIII.A).
    AccRts {
        /// Token correlating the CTS.
        token: u64,
    },
    /// Clear-to-send reply for an [`Body::AccRts`].
    AccCts {
        /// Token from the RTS.
        token: u64,
    },

    // ---------------- synchronization plane ----------------
    /// A synchronization-plane packet travelling internode.
    Sync(SyncPacket),
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
    /// 64-bit word for the per-(window, peer) notification FIFO.
    Fifo64 {
        /// Window whose FIFO the word goes into.
        win: WinId,
        /// The encoded packet.
        packet: u64,
    },
    /// Several 64-bit sync words for the *same* FIFO, coalesced into a
    /// single push: the progress engine batches the words one sweep pass
    /// produces per channel instead of issuing one syscall-shaped push per
    /// notice. FIFO order of the words is preserved; the receiver pushes
    /// them into the ring one by one.
    Fifo64Batch {
        /// Window whose FIFO the words go into.
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
    /// The FIFO push for `words`, all bound for `win`'s FIFO at one peer: a
    /// lone word travels inline (no allocation), several as one batch.
    pub fn fifo(win: WinId, words: &[u64]) -> Body {
        match words {
            [packet] => Body::Fifo64 {
                win,
                packet: *packet,
            },
            _ => Body::Fifo64Batch {
                win,
                packets: words.to_vec(),
            },
        }
    }

    /// Deterministic structural digest used as the reliability-frame
    /// checksum. It mixes the variant, the modeled wire size, and the
    /// identifying header fields; payload *contents* are not hashed
    /// (payloads may be synthetic sizes), matching a real transport's CRC
    /// over header-plus-length granularity at simulation fidelity.
    pub fn digest(&self) -> u64 {
        let (ty, a, b): (u64, u64, u64) = match self {
            Body::Op {
                win,
                tag,
                disp,
                token,
                ..
            } => {
                let tag = match tag {
                    EpochTag::Gats { access_id } => 0x10 ^ (access_id << 8),
                    EpochTag::Lock { access_id } => 0x20 ^ (access_id << 8),
                    EpochTag::Fence { seq } => 0x30 ^ (seq << 8),
                };
                (
                    1,
                    u64::from(win.0) ^ tag ^ (*disp as u64),
                    token.unwrap_or(0),
                )
            }
            Body::OpResp { token, .. } => (2, *token, 0),
            Body::AccRts { token } => (3, *token, 0),
            Body::AccCts { token } => (4, *token, 0),
            Body::Sync(sp) => (5, u64::from(sp.win.0) ^ (sp.id << 8), sp.kind as u64),
            Body::FenceDone { win, seq, ops_sent } => {
                (6, u64::from(win.0) ^ (*seq << 8), *ops_sent)
            }
            Body::Fifo64 { win, packet } => (7, u64::from(win.0), *packet),
            Body::Fifo64Batch { win, packets } => {
                // Fold every word so any reordering or bit flip inside the
                // batch changes the digest.
                let mut acc = 0u64;
                for p in packets {
                    acc = acc.rotate_left(7) ^ p;
                }
                (8, u64::from(win.0) ^ (packets.len() as u64), acc)
            }
            Body::P2pEager { tag, .. } => (9, *tag, 0),
            Body::P2pRts { tag, token } => (10, *tag, *token),
            Body::P2pCts { token, data_token } => (11, *token, *data_token),
            Body::P2pData { data_token, .. } => (12, *data_token, 0),
            Body::BarrierMsg { seq, round } => (13, *seq, u64::from(*round)),
            Body::Rel { seq, inner, .. } => (14, *seq, inner.digest()),
            Body::RelAck { cum } => (15, *cum, 0),
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
            Body::Op { kind, .. } => kind.wire_len(),
            Body::OpResp { payload, .. }
            | Body::P2pEager { payload, .. }
            | Body::P2pData { payload, .. } => payload.len(),
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Every sync kind survives the 64-bit word at the extremes of each
    /// field it carries; window and sender come back from the channel.
    #[test]
    fn sync_packet_roundtrip() {
        for kind in SyncKind::ALL {
            for win in [WinId(0), WinId(u32::MAX)] {
                for peer in [Rank(0), Rank(usize::MAX)] {
                    for id in [0, 1, (1 << 60) - 1] {
                        let c = SyncPacket {
                            kind,
                            win,
                            peer,
                            id,
                        };
                        assert_eq!(SyncPacket::from_word(win, peer, c.word()), Some(c));
                    }
                }
            }
        }
    }

    #[test]
    fn unknown_type_decodes_to_none() {
        assert_eq!(SyncPacket::from_word(WinId(0), Rank(0), 0), None);
        assert_eq!(SyncPacket::from_word(WinId(0), Rank(0), 7 << 60), None);
        assert_eq!(SyncPacket::from_word(WinId(0), Rank(0), 0xF << 60), None);
    }

    /// One instance of every data-plane operation.
    #[rustfmt::skip]
    fn ops() -> [(&'static str, OpKind); 7] {
        let (dt, op, data) = (Datatype::U64, ReduceOp::Sum, || Payload::Synthetic(4096));
        let fetch = |fetch| OpKind::Fetch { fetch, dt, op, operand: Payload::copy_from_slice(&[0; 8]) };
        let vector = Layout::Vector { count: 4, blocklen: 8, stride: 64 };
        [
            ("put", OpKind::Put { payload: data(), layout: Layout::Contig }),
            ("put, strided", OpKind::Put { payload: Payload::Synthetic(32), layout: vector }),
            ("accumulate", OpKind::Acc { dt, op, payload: data() }),
            ("get", OpKind::Get { len: 4096, layout: Layout::Contig }),
            ("get_accumulate", fetch(FetchKind::GetAccumulate)),
            ("fetch_and_op", fetch(FetchKind::FetchAndOp)),
            ("compare_and_swap", fetch(FetchKind::CompareAndSwap { compare: vec![0; 8] })),
        ]
    }

    /// What each op kind says about itself: wire bytes, target extent,
    /// access kind, and whether it sends a payload / expects a response.
    #[test]
    fn op_kind_flags() {
        use AccessKind::{Atomic, AtomicCas, Read, Write};
        let sum = Atomic(ReduceOp::Sum);
        let want = [
            (4096, 4096, Write, true, false),
            (32, 3 * 64 + 8, Write, true, false),
            (4096, 4096, sum, true, false),
            (0, 4096, Read, false, true),
            (8, 8, sum, true, true),
            (8, 8, sum, true, true),
            (16, 8, AtomicCas, true, true),
        ];
        for ((name, k), want) in ops().iter().zip(want) {
            let got = (
                k.wire_len(),
                k.extent(),
                k.access(),
                k.sends_payload(),
                k.expects_response(),
            );
            assert_eq!(got, want, "{name}");
        }
    }

    /// The pricing table: one instance of every message kind with the
    /// payload bytes the network model charges for it beyond the header.
    #[rustfmt::skip]
    fn pricing_table() -> Vec<(&'static str, Body, usize)> {
        let (win, tag, token) = (WinId(0), EpochTag::Lock { access_id: 1 }, 7);
        let data = || Payload::Synthetic(4096);
        let op = |kind: OpKind| Body::Op { win, tag, disp: 0, token: kind.expects_response().then_some(token), kind };
        let sync = |kind| Body::Sync(SyncPacket { kind, win, peer: Rank(1), id: 1 });
        let ops = ops().into_iter().zip([4096, 32, 4096, 0, 8, 8, 16]).map(|((name, kind), want)| (name, op(kind), want));
        let syncs = SyncKind::ALL.into_iter().map(|kind| ("sync", sync(kind), 0));
        ops.chain(syncs).chain([
            ("op response", Body::OpResp { token, payload: data() }, 4096),
            ("accumulate rts", Body::AccRts { token }, 0),
            ("accumulate cts", Body::AccCts { token }, 0),
            ("fence done", Body::FenceDone { win, seq: 1, ops_sent: 3 }, 0),
            ("fifo word", Body::fifo(win, &[0]), 8),
            ("fifo batch", Body::fifo(win, &[1, 2, 3]), 24),
            ("p2p eager", Body::P2pEager { tag: 1, payload: data() }, 4096),
            ("p2p rts", Body::P2pRts { tag: 1, token }, 0),
            ("p2p cts", Body::P2pCts { token, data_token: 8 }, 0),
            ("p2p data", Body::P2pData { data_token: 8, payload: data() }, 4096),
            ("barrier", Body::BarrierMsg { seq: 1, round: 0 }, 0),
            ("rel ack", Body::RelAck { cum: 1 }, 0),
        ]).collect()
    }

    #[test]
    fn wire_sizes() {
        for (name, body, want) in pricing_table() {
            assert_eq!(body.payload_len(), want, "{name}");
            // A reliability frame adds its 16-byte sequence/checksum trailer.
            let (seq, checksum, inner) = (1, body.digest(), Box::new(body));
            let framed = Body::Rel {
                seq,
                checksum,
                inner,
            };
            assert_eq!(framed.payload_len(), want + 16, "framed {name}");
        }
        let win = WinId(0);
        // A lone word travels inline, without a batch vector.
        assert!(matches!(
            Body::fifo(win, &[9]),
            Body::Fifo64 { packet: 9, .. }
        ));
        // Word order matters on the wire: a reordered batch must not
        // digest identically.
        assert_ne!(
            Body::fifo(win, &[1, 2, 3]).digest(),
            Body::fifo(win, &[2, 1, 3]).digest()
        );
    }
}

#[cfg(test)]
mod layout_tests {
    use super::*;

    #[test]
    fn contig_extent_equals_len() {
        assert_eq!(Layout::Contig.extent(100), 100);
    }

    #[test]
    fn vector_extent_and_packed() {
        let v = Layout::Vector { count: 3, blocklen: 4, stride: 10 };
        assert_eq!(v.extent(12), 2 * 10 + 4);
        let empty = Layout::Vector { count: 0, blocklen: 4, stride: 10 };
        assert_eq!(empty.extent(0), 0);
        // stride == blocklen degenerates to contiguous coverage
        let tight = Layout::Vector { count: 5, blocklen: 8, stride: 8 };
        assert_eq!(tight.extent(40), 40);
    }

    /// A vector layout's extent always fits count disjoint blocks:
    /// extent >= packed length, with equality iff stride == blocklen.
    /// Every count in 1..50, blocklen in 1..64 and pad in 0..32.
    #[test]
    fn vector_extent_bounds() {
        for count in 1usize..50 {
            for blocklen in 1usize..64 {
                for pad in 0usize..32 {
                    let stride = blocklen + pad;
                    let l = Layout::Vector { count, blocklen, stride };
                    let packed = count * blocklen;
                    assert!(l.extent(packed) >= packed, "{l:?}");
                    if pad == 0 {
                        assert_eq!(l.extent(packed), packed, "{l:?}");
                    }
                }
            }
        }
    }

    /// 64 seeded packets of every field: kind, any window, any rank, and
    /// an id below 2^60.
    #[test]
    fn packet_roundtrip_all_fields() {
        use rand::Rng;
        for case in 0..64 {
            let mut rng = mpisim_sim::seeded_rng(case, 0);
            let p = SyncPacket {
                kind: SyncKind::ALL[rng.gen_range(0..6)],
                win: WinId(rng.gen()),
                peer: Rank(rng.gen()),
                id: rng.gen_range(0..(1u64 << 60)),
            };
            assert_eq!(SyncPacket::from_word(p.win, p.peer, p.word()), Some(p));
        }
    }
}
