//! The three test series of §VIII.

use mpisim_core::{JobConfig, SyncStrategy};

/// The paper's test series (§VIII): vanilla-MVAPICH-like baseline, the new
/// design driven with blocking calls, and the new design driven with the
/// nonblocking API.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum Series {
    /// "MVAPICH": lazy baseline, blocking synchronizations.
    Mvapich,
    /// "New": redesigned engine, blocking synchronizations.
    New,
    /// "New nonblocking": redesigned engine, `i`-routines.
    NewNb,
}

impl Series {
    /// All three, in the paper's plotting order.
    pub const ALL: [Series; 3] = [Series::Mvapich, Series::New, Series::NewNb];

    /// Column label.
    pub fn label(self) -> &'static str {
        match self {
            Series::Mvapich => "MVAPICH",
            Series::New => "New",
            Series::NewNb => "New nonblocking",
        }
    }

    /// The column labels of a per-series table, in plotting order.
    pub fn labels() -> Vec<String> {
        Series::ALL.iter().map(|s| s.label().to_string()).collect()
    }

    /// The engine strategy the series runs: the lazy baseline for
    /// MVAPICH, the redesigned engine for both new series.
    pub fn strategy(self) -> SyncStrategy {
        match self {
            Series::Mvapich => SyncStrategy::LazyBaseline,
            Series::New | Series::NewNb => SyncStrategy::Redesigned,
        }
    }

    /// Job configuration for a microbenchmark of `n` ranks (one rank per
    /// node, like the paper's internode microbenchmarks).
    pub fn job(self, n: usize) -> JobConfig {
        JobConfig::all_internode(n).with_strategy(self.strategy())
    }

    /// Whether this series drives epochs through the nonblocking API.
    pub fn nonblocking(self) -> bool {
        matches!(self, Series::NewNb)
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
    }
}
