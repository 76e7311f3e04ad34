//! Strided (vector-datatype) put/get tests.

use mpisim_core::{run_job, JobConfig, LockKind, Rank, RmaError};

#[test]
fn strided_put_scatters_blocks() {
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(64).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            // 3 blocks of 4 bytes, stride 16, starting at disp 2.
            let packed: Vec<u8> = (1..=12).collect();
            env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.put_strided(win, Rank(1), 2, 3, 4, 16, &packed).unwrap();
            env.unlock(win, Rank(1)).unwrap();
        }
        env.barrier().unwrap();
        if env.rank().idx() == 1 {
            let mem = env.read_local(win, 0, 64).unwrap();
            assert_eq!(&mem[2..6], &[1, 2, 3, 4]);
            assert_eq!(&mem[18..22], &[5, 6, 7, 8]);
            assert_eq!(&mem[34..38], &[9, 10, 11, 12]);
            // Gaps untouched.
            assert_eq!(&mem[6..18], &[0u8; 12]);
            assert_eq!(mem[0], 0);
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn strided_get_gathers_blocks() {
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(64).unwrap();
        // Target pre-fills a strided pattern.
        if env.rank().idx() == 1 {
            for b in 0..4 {
                env.write_local(win, b * 10, &[b as u8 + 1; 2]).unwrap();
            }
        }
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            env.lock(win, Rank(1), LockKind::Shared).unwrap();
            let r = env.get_strided(win, Rank(1), 0, 4, 2, 10).unwrap();
            env.unlock(win, Rank(1)).unwrap();
            let data = env.wait_data(r).unwrap();
            assert_eq!(data.as_ref(), &[1, 1, 2, 2, 3, 3, 4, 4]);
        }
        env.barrier().unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn strided_roundtrip_matrix_column() {
    // The classic use: writing a column of a row-major matrix.
    const COLS: usize = 8;
    const ROWS: usize = 6;
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(ROWS * COLS).unwrap();
        env.barrier().unwrap();
        if env.rank().idx() == 0 {
            // Write column 3: one byte per row, stride = row length.
            let col: Vec<u8> = (0..ROWS as u8).map(|r| 0xA0 + r).collect();
            env.lock(win, Rank(1), LockKind::Exclusive).unwrap();
            env.put_strided(win, Rank(1), 3, ROWS, 1, COLS, &col).unwrap();
            // Read it back through the strided gather.
            let r = env.get_strided(win, Rank(1), 3, ROWS, 1, COLS).unwrap();
            env.unlock(win, Rank(1)).unwrap();
            let got = env.wait_data(r).unwrap();
            assert_eq!(got.as_ref(), col.as_slice());
        }
        env.barrier().unwrap();
        if env.rank().idx() == 1 {
            let mem = env.read_local(win, 0, ROWS * COLS).unwrap();
            for r in 0..ROWS {
                for c in 0..COLS {
                    let expect = if c == 3 { 0xA0 + r as u8 } else { 0 };
                    assert_eq!(mem[r * COLS + c], expect, "({r},{c})");
                }
            }
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn invalid_vector_layouts_rejected() {
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(64).unwrap();
        env.barrier().unwrap();
        env.lock(win, Rank(1), LockKind::Shared).unwrap();
        // stride < blocklen
        assert!(matches!(
            env.put_strided(win, Rank(1), 0, 2, 8, 4, &[0; 16]).unwrap_err(),
            RmaError::DatatypeMismatch { .. }
        ));
        // data length mismatch
        assert!(env.put_strided(win, Rank(1), 0, 2, 8, 8, &[0; 15]).is_err());
        assert!(env.get_strided(win, Rank(1), 0, 2, 8, 4).is_err());
        // count × blocklen or the extent past the address space: an
        // error at the origin, not an overflow or a wrapped bounds check
        let huge = usize::MAX / 2 + 1;
        assert!(matches!(
            env.put_strided(win, Rank(1), 0, 2, huge, huge, &[0; 16]).unwrap_err(),
            RmaError::DatatypeMismatch { .. }
        ));
        assert!(matches!(
            env.get_strided(win, Rank(1), 0, 2, huge, huge).unwrap_err(),
            RmaError::DatatypeMismatch { .. }
        ));
        assert!(matches!(
            env.get_strided(win, Rank(1), 0, 3, 8, huge).unwrap_err(),
            RmaError::OutOfBounds { .. }
        ));
        env.unlock(win, Rank(1)).unwrap();
        env.win_free(win).unwrap();
    })
    .unwrap();
}

#[test]
fn strided_works_in_gats_and_fence_epochs() {
    run_job(JobConfig::all_internode(2), |env| {
        let win = env.win_allocate(64).unwrap();
        env.fence(win).unwrap();
        if env.rank().idx() == 0 {
            env.put_strided(win, Rank(1), 0, 2, 3, 8, &[9u8; 6]).unwrap();
        }
        env.fence(win).unwrap();
        if env.rank().idx() == 1 {
            let mem = env.read_local(win, 0, 16).unwrap();
            assert_eq!(&mem[0..3], &[9, 9, 9]);
            assert_eq!(&mem[8..11], &[9, 9, 9]);
            assert_eq!(mem[3], 0);
        }
        env.win_free(win).unwrap();
    })
    .unwrap();
}
