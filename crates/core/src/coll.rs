//! Collective operations over the two-sided substrate: binomial-tree
//! broadcast, reduce, allreduce, and gather.
//!
//! The middleware needs these for application bootstrap (distributing
//! parameters, collecting results) — real MPI programs mix collectives
//! with RMA phases constantly, and the paper's progress-engine design
//! explicitly requires RMA and non-RMA communication to progress each
//! other (§VII). Every collective is built from `isend`/`irecv`, so
//! running one *is* exercising that cooperation.
//!
//! Tag space: collective traffic uses tags above [`COLL_TAG_BASE`], with a
//! per-rank sequence number. SPMD programs call collectives in the same
//! order on every rank, so sequence numbers agree without negotiation.
//!
//! ```
//! use mpisim_core::{run_job, Datatype, JobConfig, Rank, ReduceOp};
//!
//! run_job(JobConfig::new(4), |env| {
//!     // Rank 2 broadcasts a parameter...
//!     let data = if env.rank().idx() == 2 { vec![9u8] } else { vec![] };
//!     let param = env.bcast(Rank(2), &data).unwrap();
//!     assert_eq!(param.as_ref(), &[9]);
//!     // ...and everyone agrees on a sum.
//!     let total = env
//!         .allreduce(Datatype::U64, ReduceOp::Sum, &1u64.to_le_bytes())
//!         .unwrap();
//!     assert_eq!(u64::from_le_bytes(total.try_into().unwrap()), 4);
//! })
//! .unwrap();
//! ```

use mpisim_net::Bytes;

use crate::api::RankEnv;
use crate::datatype::{self, Datatype, ReduceOp};
use crate::error::{RmaError, RmaResult};
use crate::types::Rank;

/// Tags at or above this value are reserved for collectives.
pub const COLL_TAG_BASE: u64 = 1 << 60;

impl RankEnv<'_> {
    fn coll_tag(&self) -> u64 {
        COLL_TAG_BASE + self.engine_call(|eng| eng.next_coll_seq(self.rank()))
    }

    /// Binomial-tree broadcast: `root`'s `data` is returned on every rank.
    pub fn bcast(&self, root: Rank, data: &[u8]) -> RmaResult<Bytes> {
        let n = self.n_ranks();
        if root.idx() >= n {
            return Err(RmaError::InvalidRank(root.idx()));
        }
        let tag = self.coll_tag();
        let me = self.rank().idx();
        let rel = (me + n - root.idx()) % n;

        let buf: Bytes = if rel == 0 {
            Bytes::new(data.to_vec())
        } else {
            // Receive from the parent: clear the lowest set bit.
            let parent_rel = rel & (rel - 1);
            let parent = Rank((parent_rel + root.idx()) % n);
            self.recv(parent, tag)?
        };
        // Forward to children: set each bit above the lowest set bit of
        // rel (for rel == 0, all bits).
        let lowbit = if rel == 0 { usize::MAX } else { rel & rel.wrapping_neg() };
        let mut reqs = Vec::new();
        let mut bit = 1usize;
        while bit < n {
            if bit < lowbit && rel + bit < n {
                let child = Rank((rel + bit + root.idx()) % n);
                reqs.push(self.isend(child, tag, &buf)?);
            }
            bit <<= 1;
        }
        self.wait_all(reqs)?;
        Ok(buf)
    }

    /// Binomial-tree reduction of equal-length element buffers toward
    /// `root`. Returns `Some(result)` at the root, `None` elsewhere.
    pub fn reduce(
        &self,
        root: Rank,
        dt: Datatype,
        op: ReduceOp,
        data: &[u8],
    ) -> RmaResult<Option<Vec<u8>>> {
        let n = self.n_ranks();
        if root.idx() >= n {
            return Err(RmaError::InvalidRank(root.idx()));
        }
        dt.check_len(data.len())?;
        let tag = self.coll_tag();
        let me = self.rank().idx();
        let rel = (me + n - root.idx()) % n;

        let mut acc = data.to_vec();
        // Receive from children (mirror of the bcast tree), combining as
        // they arrive.
        let lowbit = if rel == 0 { usize::MAX } else { rel & rel.wrapping_neg() };
        let mut bit = 1usize;
        while bit < n {
            if bit < lowbit && rel + bit < n {
                let child = Rank((rel + bit + root.idx()) % n);
                let contrib = self.recv(child, tag)?;
                if contrib.len() != acc.len() {
                    return Err(RmaError::DatatypeMismatch {
                        detail: "reduce contributions differ in length",
                    });
                }
                datatype::apply(dt, op, &mut acc, &contrib)?;
            }
            bit <<= 1;
        }
        if rel == 0 {
            Ok(Some(acc))
        } else {
            let parent_rel = rel & (rel - 1);
            let parent = Rank((parent_rel + root.idx()) % n);
            self.send(parent, tag, &acc)?;
            Ok(None)
        }
    }

    /// Reduce-to-root followed by broadcast: every rank gets the combined
    /// result.
    pub fn allreduce(&self, dt: Datatype, op: ReduceOp, data: &[u8]) -> RmaResult<Vec<u8>> {
        let root = Rank(0);
        let reduced = self.reduce(root, dt, op, data)?;
        let result = self.bcast(root, reduced.as_deref().unwrap_or(&[]))?;
        Ok(result.to_vec())
    }

    /// Gather every rank's buffer at `root`, ordered by rank. Returns
    /// `Some(buffers)` at the root, `None` elsewhere.
    pub fn gather(&self, root: Rank, data: &[u8]) -> RmaResult<Option<Vec<Bytes>>> {
        let n = self.n_ranks();
        if root.idx() >= n {
            return Err(RmaError::InvalidRank(root.idx()));
        }
        let tag = self.coll_tag();
        if self.rank() == root {
            // Post all receives up front so arrivals overlap.
            let mut reqs = Vec::new();
            for r in 0..n {
                if r != root.idx() {
                    reqs.push(Some(self.irecv(Rank(r), tag)?));
                } else {
                    reqs.push(None);
                }
            }
            let mut out = Vec::with_capacity(n);
            for (r, req) in reqs.into_iter().enumerate() {
                match req {
                    Some(q) => out.push(self.wait_data(q)?),
                    None => {
                        debug_assert_eq!(r, root.idx());
                        out.push(Bytes::new(data.to_vec()));
                    }
                }
            }
            Ok(Some(out))
        } else {
            self.send(root, tag, data)?;
            Ok(None)
        }
    }
}
