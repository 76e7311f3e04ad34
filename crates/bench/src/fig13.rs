//! Fig 13 — LU decomposition: overall time and communication share vs job
//! size, for two matrix sizes and the three series.

use mpisim_apps::{run_lu, LuConfig, LuSync};

use crate::series::Series;
use crate::table::Table;

/// Harness scale.
#[derive(Clone, Debug)]
pub struct Fig13Opts {
    /// Matrix dimensions. The paper uses 8192 and 16384.
    pub matrix_sizes: Vec<usize>,
    /// Job sizes. The paper sweeps 64…2048.
    pub job_sizes: Vec<usize>,
    /// Ranks per node.
    pub cores_per_node: usize,
}

impl Default for Fig13Opts {
    fn default() -> Self {
        // Default scale: 1/8 of the paper's matrix dimension with the job
        // sweep shifted accordingly, preserving the rows-per-rank and
        // comm/compute ratios that shape the curves. `--paper` restores
        // the full scale.
        Fig13Opts {
            matrix_sizes: vec![1024, 2048],
            job_sizes: vec![8, 16, 32, 64, 128, 256],
            cores_per_node: 16,
        }
    }
}

impl Fig13Opts {
    /// The paper's full scale (minutes of runtime).
    pub fn paper() -> Self {
        Fig13Opts {
            matrix_sizes: vec![8192, 16384],
            job_sizes: vec![64, 128, 256, 512, 1024, 2048],
            cores_per_node: 16,
        }
    }

    /// A fast configuration for tests/CI.
    pub fn quick() -> Self {
        Fig13Opts {
            matrix_sizes: vec![256],
            job_sizes: vec![4, 8, 16],
            cores_per_node: 4,
        }
    }
}

/// Run one matrix size; returns (overall-time table in seconds, comm-% table),
/// i.e. the (a)/(c) and (b)/(d) panels of Fig 13. Every point is one
/// [`LuConfig::modeled`] run (its flop cost is EXPERIMENTS.md's calibration).
pub fn run_matrix(opts: &Fig13Opts, m: usize) -> (Table, Table) {
    let mut times = Table::new(
        format!("Fig 13 — LU overall time; matrix {m} x {m}"),
        "processes",
        Series::labels(),
        "seconds (virtual)",
    );
    let mut comm = Table::new(
        format!("Fig 13 — LU communication time share; matrix {m} x {m}"),
        "processes",
        Series::labels(),
        "% of overall time",
    );
    for &n in &opts.job_sizes {
        if n > m {
            continue;
        }
        let mut trow = Vec::new();
        let mut crow = Vec::new();
        for series in Series::ALL {
            let sync = if series.nonblocking() { LuSync::Nonblocking } else { LuSync::Blocking };
            let res = run_lu(series.job_on(n, opts.cores_per_node), LuConfig::modeled(m, sync))
                .expect("LU run failed");
            trow.push(res.total_time.as_secs_f64());
            crow.push(res.comm_fraction * 100.0);
        }
        times.push(format!("{n}"), trow);
        comm.push(format!("{n}"), crow);
    }
    (times, comm)
}

/// Run every panel of Fig 13.
pub fn run(opts: &Fig13Opts) -> Vec<Table> {
    let mut out = Vec::new();
    for &m in &opts.matrix_sizes {
        let (a, b) = run_matrix(opts, m);
        out.push(a);
        out.push(b);
    }
    out
}
