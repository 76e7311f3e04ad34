//! Fig 12 — dynamic unstructured massive transactions: throughput vs job
//! size for the four series (MVAPICH, New, New nonblocking, New
//! nonblocking + A_A_A_R).
//!
//! The harness can replay the whole figure on a faulty network
//! ([`run_with`] with a named [`mpisim_net::FaultPlan`], reliability
//! sublayer armed). Throughput then shifts — retransmits cost virtual
//! time — but the **checksum-validation CSV** ([`validation_csv`]) must
//! stay byte-identical to the fault-free run's: loss and duplication may
//! never change a single committed update.
//!
//! [`ablation_flow_control`] isolates the mechanism behind the paper's
//! 512-process result: the finite send-credit budget.

use mpisim_apps::{expected_checksum, run_transactions, TxConfig, TxMode, TxResult};
use mpisim_core::JobConfig;
use mpisim_net::FaultPlan;

use crate::series::Series;
use crate::table::Table;

/// Harness scale.
#[derive(Clone, Debug)]
pub struct Fig12Opts {
    /// Job sizes (ranks). The paper uses 64, 128, 256, 512.
    pub job_sizes: Vec<usize>,
    /// Transactions per rank.
    pub txs_per_rank: usize,
    /// Sliding-window depth for the nonblocking series.
    pub max_inflight: usize,
    /// Ranks per node (the paper's cluster has 16 cores/node).
    pub cores_per_node: usize,
}

impl Default for Fig12Opts {
    fn default() -> Self {
        Fig12Opts {
            job_sizes: vec![64, 128, 256, 512],
            txs_per_rank: 200,
            max_inflight: 16,
            cores_per_node: 16,
        }
    }
}

impl Fig12Opts {
    /// A fast configuration for tests/CI.
    pub fn quick() -> Self {
        Fig12Opts {
            job_sizes: vec![8, 16, 32],
            txs_per_rank: 50,
            max_inflight: 8,
            cores_per_node: 4,
        }
    }
}

/// Run the figure: throughput (thousands of transactions per second of
/// virtual time) per job size and series. Every run's checksum is
/// validated — an out-of-order engine must not lose a single update.
pub fn run(opts: &Fig12Opts) -> Table {
    run_with(opts, None).0
}

/// Run the figure, optionally on a named faulty network (reliability
/// sublayer armed). Returns the throughput table plus the
/// checksum-validation CSV — the latter is fault-invariant by
/// construction and the `--faults` CLI mode compares it byte-for-byte
/// against the fault-free run's.
pub fn run_with(opts: &Fig12Opts, faults: Option<&str>) -> (Table, String) {
    let title = match faults {
        Some(plan) => format!(
            "Fig 12 — massive unstructured atomic transactions (fault plan {plan})"
        ),
        None => "Fig 12 — massive unstructured atomic transactions".to_string(),
    };
    let mut t = Table::new(
        title,
        "job size",
        Series::FIG12.map(|s| s.label().to_string()).to_vec(),
        "thousands of transactions / s",
    );
    let mut csv = String::from("job_size,series,checksum\n");
    for &n in &opts.job_sizes {
        let mut row = Vec::new();
        for series in Series::FIG12 {
            let mut job = series.job_on(n, opts.cores_per_node);
            if let Some(plan) = faults {
                // Same plan seed for every series at one job size, so a
                // checksum difference can only come from the engine
                // mishandling the faults, never from plan sampling.
                job = job.with_reliability();
                job.net.faults = Some(
                    FaultPlan::by_name(plan, 0xF1612 + n as u64)
                        .unwrap_or_else(|| panic!("unknown fault plan {plan:?}")),
                );
            }
            let res = transactions(series, job, opts.txs_per_rank, opts.max_inflight);
            csv.push_str(&format!("{n},{},{}\n", series.label(), res.checksum));
            row.push(res.tx_per_sec / 1e3);
        }
        t.push(format!("{n}"), row);
    }
    (t, csv)
}

/// The checksum-validation CSV of one sweep: one row per (job size,
/// series) with the exact committed-update checksum.
pub fn validation_csv(opts: &Fig12Opts, faults: Option<&str>) -> String {
    run_with(opts, faults).1
}

/// One run of `series` on the transactions kernel (64-byte updates, 256
/// slots, no think time, uniform targets; a nonblocking series keeps up
/// to `max_inflight` transactions in flight), its checksum validated: an
/// out-of-order engine must not lose a single update.
fn transactions(
    series: Series,
    job: JobConfig,
    txs_per_rank: usize,
    max_inflight: usize,
) -> TxResult {
    let n = job.n_ranks;
    let mode = if series.nonblocking() {
        TxMode::Nonblocking { max_inflight }
    } else {
        TxMode::Blocking
    };
    let cfg = TxConfig {
        txs_per_rank,
        payload: 64,
        slots: 256,
        mode,
        aaar: series.aaar(),
        think_time: mpisim_sim::SimTime::ZERO,
        dist: mpisim_apps::TargetDist::Uniform,
    };
    let res = run_transactions(job, cfg.clone()).expect("transaction run failed");
    assert_eq!(
        res.checksum,
        expected_checksum(n, &cfg),
        "lost updates in series {}",
        series.label()
    );
    res
}

/// Ablation: the flow-control ceiling behind the paper's 512-process
/// result (§VIII.B).
///
/// The paper reports that "an InfiniBand flow control issue prevents the
/// new implementation from scaling beyond 512 processes when there are
/// large numbers of simultaneously pending epochs", collapsing the
/// `A_A_A_R` advantage from 39% (64 procs) to 2% (512 procs). That
/// ceiling is an artifact of finite send credits. This sweeps the
/// per-rank outstanding-message budget at a fixed job size (64 ranks, 16
/// to a node) for the New and New nonblocking + A_A_A_R series and shows
/// the same collapse: as credits shrink, pending nonblocking epochs stall
/// in the backlog and the out-of-order advantage evaporates.
pub fn ablation_flow_control() -> Table {
    let n = 64;
    let mut t = Table::new(
        format!("Ablation — send-credit budget vs A_A_A_R gain ({n} ranks)"),
        "rank credits",
        vec![
            "blocking".into(),
            "nonblocking + A_A_A_R".into(),
            "gain %".into(),
        ],
        "thousands of transactions / s",
    );
    let cores_per_node = Fig12Opts::default().cores_per_node;
    for credits in [0u32, 16, 8, 4, 2, 1] {
        let [b, nb] = [Series::New, Series::NewNbAaar].map(|series| {
            let mut job = series.job_on(n, cores_per_node);
            job.net.rank_credits = credits;
            job.net.channel_credits = credits.min(16);
            transactions(series, job, 200, 64).tx_per_sec / 1e3
        });
        let label = if credits == 0 {
            "unlimited".to_string()
        } else {
            format!("{credits}")
        };
        t.push(label, vec![b, nb, (nb / b - 1.0) * 100.0]);
    }
    t
}
