//! Element datatypes and reduction operators for the accumulate family.
//!
//! The middleware moves raw bytes; datatypes only matter where arithmetic
//! happens — `accumulate`, `get_accumulate`, `fetch_and_op`, and
//! `compare_and_swap` apply [`ReduceOp`]s elementwise at the target, which
//! is what gives those operations their atomicity guarantee.

use crate::error::{RmaError, RmaResult};

/// Supported element datatypes (little-endian on the simulated wire).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Datatype {
    /// 1-byte unsigned integer.
    U8,
    /// 4-byte signed integer.
    I32,
    /// 8-byte unsigned integer.
    U64,
    /// 8-byte IEEE-754 double.
    F64,
}

impl Datatype {
    /// Element size in bytes.
    pub fn size(self) -> usize {
        match self {
            Datatype::U8 => 1,
            Datatype::I32 => 4,
            Datatype::U64 => 8,
            Datatype::F64 => 8,
        }
    }

    /// Validate that `len` bytes form a whole number of elements.
    pub fn check_len(self, len: usize) -> RmaResult<usize> {
        if !len.is_multiple_of(self.size()) {
            return Err(RmaError::DatatypeMismatch {
                detail: "buffer length is not a multiple of the element size",
            });
        }
        Ok(len / self.size())
    }
}

/// Reduction operators, mirroring the MPI predefined ops that are valid for
/// RMA accumulates.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum ReduceOp {
    /// Overwrite the target element (`MPI_REPLACE`).
    Replace,
    /// Leave the target untouched (`MPI_NO_OP`; used to read atomically).
    NoOp,
    /// Addition.
    Sum,
    /// Multiplication.
    Prod,
    /// Maximum.
    Max,
    /// Minimum.
    Min,
    /// Bitwise and (integer types only).
    Band,
    /// Bitwise or (integer types only).
    Bor,
    /// Bitwise xor (integer types only).
    Bxor,
}

macro_rules! apply_int {
    ($t:ty, $tgt:expr, $opd:expr, $op:expr) => {{
        let cur = <$t>::from_le_bytes($tgt.try_into().unwrap());
        let operand = <$t>::from_le_bytes($opd.try_into().unwrap());
        let new = match $op {
            ReduceOp::Replace => operand,
            ReduceOp::NoOp => cur,
            ReduceOp::Sum => cur.wrapping_add(operand),
            ReduceOp::Prod => cur.wrapping_mul(operand),
            ReduceOp::Max => cur.max(operand),
            ReduceOp::Min => cur.min(operand),
            ReduceOp::Band => cur & operand,
            ReduceOp::Bor => cur | operand,
            ReduceOp::Bxor => cur ^ operand,
        };
        $tgt.copy_from_slice(&new.to_le_bytes());
        Ok(())
    }};
}

/// Apply `op` elementwise: `target[i] = target[i] op operand[i]`.
///
/// `target` and `operand` must be equal-length multiples of the element
/// size. Bitwise ops on `F64` are rejected.
pub fn apply(dt: Datatype, op: ReduceOp, target: &mut [u8], operand: &[u8]) -> RmaResult<()> {
    if target.len() != operand.len() {
        return Err(RmaError::DatatypeMismatch {
            detail: "target/operand length mismatch",
        });
    }
    let n = dt.check_len(target.len())?;
    let s = dt.size();
    for i in 0..n {
        let tgt = &mut target[i * s..(i + 1) * s];
        let opd = &operand[i * s..(i + 1) * s];
        match dt {
            Datatype::U8 => apply_int!(u8, tgt, opd, op)?,
            Datatype::I32 => apply_int!(i32, tgt, opd, op)?,
            Datatype::U64 => apply_int!(u64, tgt, opd, op)?,
            Datatype::F64 => {
                let cur = f64::from_le_bytes(tgt.try_into().unwrap());
                let operand = f64::from_le_bytes(opd.try_into().unwrap());
                let new = match op {
                    ReduceOp::Replace => operand,
                    ReduceOp::NoOp => cur,
                    ReduceOp::Sum => cur + operand,
                    ReduceOp::Prod => cur * operand,
                    ReduceOp::Max => cur.max(operand),
                    ReduceOp::Min => cur.min(operand),
                    ReduceOp::Band | ReduceOp::Bor | ReduceOp::Bxor => {
                        return Err(RmaError::DatatypeMismatch {
                            detail: "bitwise op on F64",
                        })
                    }
                };
                tgt.copy_from_slice(&new.to_le_bytes());
            }
        }
    }
    Ok(())
}

/// Serialize a `u64` slice to little-endian bytes.
pub fn u64s_to_bytes(v: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Deserialize little-endian bytes into `u64`s.
pub fn bytes_to_u64s(b: &[u8]) -> Vec<u64> {
    b.chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

/// Serialize an `f64` slice to little-endian bytes.
pub fn f64s_to_bytes(v: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(v.len() * 8);
    for x in v {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Deserialize little-endian bytes into `f64`s.
pub fn bytes_to_f64s(b: &[u8]) -> Vec<f64> {
    b.chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_sum_and_replace() {
        let mut tgt = u64s_to_bytes(&[10, 20]);
        apply(Datatype::U64, ReduceOp::Sum, &mut tgt, &u64s_to_bytes(&[1, 2])).unwrap();
        assert_eq!(bytes_to_u64s(&tgt), vec![11, 22]);
        apply(
            Datatype::U64,
            ReduceOp::Replace,
            &mut tgt,
            &u64s_to_bytes(&[7, 8]),
        )
        .unwrap();
        assert_eq!(bytes_to_u64s(&tgt), vec![7, 8]);
    }

    #[test]
    fn noop_reads_without_writing() {
        let mut tgt = u64s_to_bytes(&[99]);
        apply(Datatype::U64, ReduceOp::NoOp, &mut tgt, &u64s_to_bytes(&[5])).unwrap();
        assert_eq!(bytes_to_u64s(&tgt), vec![99]);
    }

    #[test]
    fn f64_ops() {
        let mut tgt = f64s_to_bytes(&[1.5]);
        apply(Datatype::F64, ReduceOp::Sum, &mut tgt, &f64s_to_bytes(&[2.25])).unwrap();
        assert_eq!(bytes_to_f64s(&tgt), vec![3.75]);
        apply(Datatype::F64, ReduceOp::Max, &mut tgt, &f64s_to_bytes(&[1.0])).unwrap();
        assert_eq!(bytes_to_f64s(&tgt), vec![3.75]);
    }

    #[test]
    fn f64_bitwise_rejected() {
        let mut tgt = f64s_to_bytes(&[1.0]);
        let err = apply(Datatype::F64, ReduceOp::Bxor, &mut tgt, &f64s_to_bytes(&[1.0]));
        assert!(err.is_err());
    }

    #[test]
    fn i32_min_max_band() {
        let mut tgt = (-5i32).to_le_bytes().to_vec();
        apply(Datatype::I32, ReduceOp::Max, &mut tgt, &3i32.to_le_bytes()).unwrap();
        assert_eq!(i32::from_le_bytes(tgt.clone().try_into().unwrap()), 3);
        apply(Datatype::I32, ReduceOp::Band, &mut tgt, &2i32.to_le_bytes()).unwrap();
        assert_eq!(i32::from_le_bytes(tgt.try_into().unwrap()), 2);
    }

    #[test]
    fn u8_wrapping_sum() {
        let mut tgt = vec![250u8];
        apply(Datatype::U8, ReduceOp::Sum, &mut tgt, &[10u8]).unwrap();
        assert_eq!(tgt, vec![4u8]); // wraps
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut tgt = vec![0u8; 8];
        assert!(apply(Datatype::U64, ReduceOp::Sum, &mut tgt, &[0u8; 16]).is_err());
        let mut odd = vec![0u8; 7];
        assert!(apply(Datatype::U64, ReduceOp::Sum, &mut odd, &[0u8; 7]).is_err());
    }

    #[test]
    fn roundtrips() {
        let v = vec![1u64, u64::MAX, 42];
        assert_eq!(bytes_to_u64s(&u64s_to_bytes(&v)), v);
        let f = vec![0.5f64, -3.25, 1e300];
        assert_eq!(bytes_to_f64s(&f64s_to_bytes(&f)), f);
    }

    /// Sum-accumulates over u64 commute: any permutation of the same
    /// operand multiset yields the same target — the property the
    /// paper's transaction workload relies on for correctness under
    /// out-of-order epoch completion. 64 seeded cases of 0..20 operands.
    #[test]
    fn u64_sum_commutes() {
        for case in 0..64 {
            let mut rng = mpisim_sim::seeded_rng(case, 0);
            let init: u64 = rng.gen();
            let ops: Vec<u64> = (0..rng.gen_range(0..20)).map(|_| rng.gen()).collect();
            let mut fwd = u64s_to_bytes(&[init]);
            for o in &ops {
                apply(Datatype::U64, ReduceOp::Sum, &mut fwd, &u64s_to_bytes(&[*o])).unwrap();
            }
            let mut rev = u64s_to_bytes(&[init]);
            for o in ops.iter().rev() {
                apply(Datatype::U64, ReduceOp::Sum, &mut rev, &u64s_to_bytes(&[*o])).unwrap();
            }
            assert_eq!(fwd, rev, "init {init}, ops {ops:?}");
        }
    }

    /// Replace is idempotent with the same operand and always wins. 64
    /// seeded cases of 1..10 operands.
    #[test]
    fn replace_last_writer_wins() {
        for case in 0..64 {
            let mut rng = mpisim_sim::seeded_rng(case, 1);
            let init: u64 = rng.gen();
            let vals: Vec<u64> = (0..rng.gen_range(1..10)).map(|_| rng.gen()).collect();
            let mut t = u64s_to_bytes(&[init]);
            for v in &vals {
                apply(Datatype::U64, ReduceOp::Replace, &mut t, &u64s_to_bytes(&[*v])).unwrap();
            }
            assert_eq!(bytes_to_u64s(&t)[0], *vals.last().unwrap(), "init {init}, vals {vals:?}");
        }
    }
}
