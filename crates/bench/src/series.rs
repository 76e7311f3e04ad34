//! The test series of §VIII: the one place a figure names a series.

use mpisim_core::{JobConfig, SyncStrategy};

/// The paper's test series (§VIII): vanilla-MVAPICH-like baseline, the new
/// design driven with blocking calls, the new design driven with the
/// nonblocking API, and — Fig 12 only — the latter with A_A_A_R.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Series {
    /// "MVAPICH": lazy baseline, blocking synchronizations.
    Mvapich,
    /// "New": redesigned engine, blocking synchronizations.
    New,
    /// "New nonblocking": redesigned engine, `i`-routines.
    NewNb,
    /// "New nonblocking + A_A_A_R": the nonblocking series with the
    /// A_A_A_R reorder flag set (Fig 12 and its flow-control ablation).
    NewNbAaar,
}

impl Series {
    /// The three series of every figure but Fig 12, in plotting order.
    pub const ALL: [Series; 3] = [Series::Mvapich, Series::New, Series::NewNb];

    /// Fig 12's four series, in plotting order.
    pub const FIG12: [Series; 4] =
        [Series::Mvapich, Series::New, Series::NewNb, Series::NewNbAaar];

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            Series::Mvapich => "MVAPICH",
            Series::New => "New",
            Series::NewNb => "New nonblocking",
            Series::NewNbAaar => "New nonblocking + A_A_A_R",
        }
    }

    /// The column labels of a table over [`Series::ALL`], in plotting order.
    pub fn labels() -> Vec<String> {
        Series::ALL.iter().map(|s| s.label().to_string()).collect()
    }

    /// The engine strategy the series runs: the lazy baseline for
    /// MVAPICH, the redesigned engine for every new series.
    pub fn strategy(self) -> SyncStrategy {
        match self {
            Series::Mvapich => SyncStrategy::LazyBaseline,
            Series::New | Series::NewNb | Series::NewNbAaar => SyncStrategy::Redesigned,
        }
    }

    /// Job configuration for a microbenchmark of `n` ranks (one rank per
    /// node, like the paper's internode microbenchmarks).
    pub fn job(self, n: usize) -> JobConfig {
        self.job_on(n, 1)
    }

    /// Job configuration for `n` ranks, `cores_per_node` of them to a node.
    pub fn job_on(self, n: usize, cores_per_node: usize) -> JobConfig {
        JobConfig { cores_per_node, ..JobConfig::new(n) }.with_strategy(self.strategy())
    }

    /// Whether this series drives epochs through the nonblocking API.
    pub fn nonblocking(self) -> bool {
        matches!(self, Series::NewNb | Series::NewNbAaar)
    }

    /// Whether this series sets the A_A_A_R reorder flag.
    pub fn aaar(self) -> bool {
        matches!(self, Series::NewNbAaar)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_configs() {
        assert_eq!(Series::Mvapich.label(), "MVAPICH");
        assert_eq!(
            Series::Mvapich.job(2).strategy,
            SyncStrategy::LazyBaseline
        );
        assert_eq!(Series::New.job(2).strategy, SyncStrategy::Redesigned);
        assert_eq!(Series::NewNb.strategy(), SyncStrategy::Redesigned);
        assert!(Series::NewNb.nonblocking());
        assert!(!Series::New.nonblocking());
        assert!(!Series::NewNb.aaar());

        let aaar = Series::NewNbAaar;
        assert_eq!(aaar.label(), "New nonblocking + A_A_A_R");
        assert_eq!(aaar.strategy(), SyncStrategy::Redesigned);
        assert!(aaar.nonblocking() && aaar.aaar());
        assert_eq!(Series::FIG12[..3], Series::ALL);
        assert_eq!(Series::FIG12[3], aaar);

        assert_eq!(Series::New.job_on(8, 4).cores_per_node, 4);
        assert_eq!(Series::New.job(8).cores_per_node, 1);
    }
}
