//! What this repository claims to reproduce, as rows of one table
//! (EXPERIMENTS.md, DESIGN.md §5).
//!
//! A row is one claim about one figure of the paper's §VIII, or about an
//! ablation or analysis of this repository's own: the EXPERIMENTS.md
//! section it belongs to, the figure, row and series, what the paper
//! reports, a shape assertion over the committed results, a status, the
//! reason for that status and a plant. The assertion reads its measured
//! cells by committed file, row label and column; those reads are the
//! row's cells. The plant is a one-cell edit of the results. Every row is
//! applied twice: to the committed results, where it must hold, and to
//! the results with its own plant, where it must fail, so no row passes
//! by reading nothing.
//!
//! The results are `results/*.csv` by file stem, and the two tables of
//! `results_fig13_paper8192.txt` as `paper8192_0` (time) and
//! `paper8192_1` (communication share). Nothing here runs a simulation:
//! `figure_shapes.rs` and CI's `diff -r` hold the committed files to the
//! code, and this table holds the claims to the files.
//!
//! EXPERIMENTS.md prints measured numbers in tables only, one table per
//! section. `PRINTED` says which cells each table prints, and every
//! number in a measured column must equal its cell at the precision it
//! is printed with; gains and percentages are computed from the cells.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use Status::{Diverges, Matches, ShapeOnly};

/// One committed result table: column headers and labelled rows.
#[derive(Clone)]
struct Table {
    cols: Vec<String>,
    rows: Vec<(String, Vec<f64>)>,
}

impl Table {
    /// A cell's row and column index.
    fn find(&self, file: &str, row: &str, col: &str) -> (usize, usize) {
        let c = self.cols.iter().position(|x| x == col);
        let r = self.rows.iter().position(|(l, _)| l == row);
        let c = c.unwrap_or_else(|| panic!("{file}: no column {col:?}"));
        (r.unwrap_or_else(|| panic!("{file}: no row {row:?}")), c)
    }
}

/// Every committed result table by name, and the cells a claim has read.
#[derive(Clone)]
struct Results {
    tables: BTreeMap<String, Table>,
    read: RefCell<Vec<(String, f64)>>,
}

enum Status {
    /// The cells show what the `paper` column states, in value where it
    /// gives one. A row beyond the paper states the design's claim there.
    Matches,
    /// The paper's ordering or trend holds; its magnitudes do not.
    ShapeOnly,
    /// The cells contradict the paper. The assertion holds the divergence
    /// as measured, so mending it fails the row; the string is the
    /// ROADMAP.md item that owns it.
    Diverges(&'static str),
}

/// Set one cell: `(file, row label, column, value)`.
struct Plant(&'static str, &'static str, &'static str, f64);

struct Claim {
    /// The EXPERIMENTS.md heading the claim sits under.
    section: &'static str,
    /// The figure, row and series, and what they show.
    claim: &'static str,
    /// What the paper reports: a value read off the figure, or its words.
    paper: &'static str,
    holds: fn(&Results) -> bool,
    status: Status,
    why: &'static str,
    plant: Plant,
}

const MV: &str = "MVAPICH";
const NEW: &str = "New";
const NB: &str = "New nonblocking";
const AAAR: &str = "New nonblocking + A_A_A_R";

const LATENCY: &str = "fig00_latency";
const OVERLAP: &str = "fig00_overlap";
const FIG02: &str = "fig02";
const FIG03: &str = "fig03";
const FIG04: &str = "fig04";
const FIG05: &str = "fig05";
const FIG06: &str = "fig06";
const FIG07: &str = "fig07";
const FIG08: &str = "fig08";
const FIG09: &str = "fig09";
const FIG10: &str = "fig10";
const FIG11: &str = "fig11";
const FIG12: &str = "fig12";
const FLOW: &str = "ablation_flow_control";
const EAGER: &str = "ablation_eager_issue";
/// Fig 13 at 1024² and 2048²: overall time, then communication share.
const LU_1024: [&str; 2] = ["fig13_0", "fig13_1"];
const LU_2048: [&str; 2] = ["fig13_2", "fig13_3"];
const LU_8192: [&str; 2] = ["paper8192_0", "paper8192_1"];
const REWRITE: &str = "rewrite_apps";

/// `new` over `old`, in percent.
fn gain(new: f64, old: f64) -> f64 {
    (new / old - 1.0) * 100.0
}

fn rising(v: &[f64]) -> bool {
    v.windows(2).all(|w| w[0] < w[1])
}

fn falling(v: &[f64]) -> bool {
    v.windows(2).all(|w| w[0] > w[1])
}

/// The share of MVAPICH's time the nonblocking series saves, in percent.
fn nb_saving(r: &Results, file: &str, row: &str) -> f64 {
    100.0 * (1.0 - r.at(file, row, NB) / r.at(file, row, MV))
}

/// The smallest and the largest of `v`.
fn extent(v: &[f64]) -> (f64, f64) {
    v.iter()
        .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)))
}

/// Fig 12's A_A_A_R gain over the blocking New series at `ranks` is the
/// paper's plus more than ten points.
fn fig12_gain_above(r: &Results, ranks: &str, paper: f64) -> bool {
    gain(r.at(FIG12, ranks, AAAR), r.at(FIG12, ranks, NEW)) > paper + 10.0
}

/// The blocking series carry the origin's 1000 µs of work into the
/// target's epoch at every size.
fn blocking_propagates(r: &Results, file: &str) -> bool {
    r.labels(file)
        .iter()
        .all(|s| r.at(file, s, MV) > 950.0 && r.at(file, s, NEW) > 950.0)
}

/// MVAPICH issues its data at the close, so its epoch grows with size.
fn mvapich_grows(r: &Results, file: &str) -> bool {
    let mv = r.column(file, MV);
    mv.windows(2).all(|w| w[0] <= w[1]) && r.at(file, "1MB", MV) > r.at(file, "4B", MV) + 250.0
}

/// New issues eagerly, so its blocking epoch is flat in size.
fn new_is_flat(r: &Results, file: &str) -> bool {
    let (lo, hi) = extent(&r.column(file, NEW));
    hi - lo < 1.0
}

/// The nonblocking epoch is the transfer alone.
fn nonblocking_is_transfer(r: &Results, file: &str) -> bool {
    r.at(file, "4B", NB) < 50.0 && (300.0..420.0).contains(&r.at(file, "1MB", NB))
}

/// A reorder flag stops the late peer's 1000 µs reaching this epoch.
fn flag_frees(r: &Results, file: &str, row: &str, flag: &str) -> bool {
    r.at(file, row, &format!("{flag} off")) > 1400.0
        && r.at(file, row, &format!("{flag} on")) < 800.0
}

/// The kernels the slack rewriter changes.
const REWRITTEN: [&str; 4] = ["halo", "stencil2d", "lu", "bank"];

#[rustfmt::skip]
const CLAIMS: &[Claim] = &[
    Claim { section: "Calibration", claim: "a 1 MB put epoch is one transfer (Fig 3, New nonblocking, 1MB)",
        paper: "≈340 µs",
        holds: |r| (r.at(FIG03, "1MB", NB) / 340.0 - 1.0).abs() < 0.02,
        status: Matches, why: "α, β and the header size were fitted to it",
        plant: Plant(FIG03, "1MB", NB, 400.0) },
    Claim { section: "§VIII.A", claim: "Fig 0 latency: the three series are on par at every size",
        paper: "both new versions have latency on par with MVAPICH",
        holds: |r| r.labels(LATENCY).iter().all(|s| {
            let (lo, hi) = extent(&[MV, NEW, NB].map(|c| r.at(LATENCY, s, c)));
            hi / lo < 1.15
        }),
        status: Matches, why: "the lazy baseline pays its lock acquisition once per epoch, whatever the size",
        plant: Plant(LATENCY, "1MB", NEW, 500.0) },
    Claim { section: "§VIII.A",
        claim: "Fig 0 overlap, 300 µs of work around a 1 MB put: MVAPICH's epoch is work plus transfer, \
                the new series' the longer of the two",
        paper: "full overlap in lock epochs for the new design, none for MVAPICH (lazy lock acquisition)",
        holds: |r| {
            let epoch = |s| r.at(OVERLAP, "epoch length", s);
            let transfer = |s| r.at(LATENCY, "1MB", s);
            (epoch(MV) - 300.0 - transfer(MV)).abs() < 1.0
                && [NEW, NB].iter().all(|s| {
                    (epoch(s) - transfer(s).max(300.0)).abs() < 1.0 && epoch(MV) > epoch(s) + 200.0
                })
        },
        status: Matches, why: "MVAPICH acquires the lock, and so moves the data, only at the unlock",
        plant: Plant(OVERLAP, "epoch length", NEW, 645.363) },
    Claim { section: "Fig 2", claim: "Fig 2, access epoch: every series absorbs the late post",
        paper: "≈1340 µs, blocking and nonblocking alike",
        holds: |r| [MV, NEW, NB].iter().all(|s| (1300.0..1500.0).contains(&r.at(FIG02, "access epoch", s))),
        status: Matches, why: "the epoch is the 1000 µs delay plus one 1 MB transfer in every series",
        plant: Plant(FIG02, "access epoch", NEW, 1000.0) },
    Claim { section: "Fig 2", claim: "Fig 2, cumulative: only the nonblocking series overlaps the two-sided transfer",
        paper: "≈1660+ µs blocking, ≈1340 µs nonblocking",
        holds: |r| {
            r.at(FIG02, "cumulative", MV) > 1600.0 && r.at(FIG02, "cumulative", NEW) > 1600.0
                && r.at(FIG02, "cumulative", NB) < 1450.0
        },
        status: Matches, why: "a nonblocking close lets the send start while the late epoch waits",
        plant: Plant(FIG02, "cumulative", NB, 1681.705) },
    Claim { section: "Fig 3", claim: "Fig 3, MVAPICH and New: the origin's work reaches the target at every size",
        paper: "both blocking series ≈1000+ µs",
        holds: |r| blocking_propagates(r, FIG03),
        status: Matches, why: "a blocking close holds the target's epoch until the origin is done working",
        plant: Plant(FIG03, "4B", NEW, 3.364) },
    Claim { section: "Fig 3", claim: "Fig 3, MVAPICH: the epoch grows with size",
        paper: "MVAPICH grows with size",
        holds: |r| mvapich_grows(r, FIG03),
        status: Matches, why: "the lazy baseline issues its data at the close",
        plant: Plant(FIG03, "1MB", MV, 1100.0) },
    Claim { section: "Fig 3", claim: "Fig 3, New: the blocking epoch is flat in size",
        paper: "New ≈1000+ µs at every size",
        holds: |r| new_is_flat(r, FIG03),
        status: Matches, why: "the redesigned engine issues eagerly, so the transfer hides under the work",
        plant: Plant(FIG03, "1MB", NEW, 1340.842) },
    Claim { section: "Fig 3", claim: "Fig 3, New nonblocking: the epoch is the transfer alone",
        paper: "nonblocking = transfer time only",
        holds: |r| nonblocking_is_transfer(r, FIG03),
        status: Matches, why: "the origin's nonblocking close returns before its work",
        plant: Plant(FIG03, "4B", NB, 1002.571) },
    Claim { section: "Fig 4", claim: "Fig 4, cumulative: nonblocking pays the work alone, blocking adds the transfer",
        paper: "blocking ≈1350 µs at 1 MB, nonblocking ≈1010 µs",
        holds: |r| ["256KB", "1MB"].iter().all(|s| {
            let nb = r.at(FIG04, s, NB);
            nb < 1100.0 && r.at(FIG04, s, MV) > nb && r.at(FIG04, s, NEW) > nb
        }),
        status: Matches, why: "a blocking fence holds the target until the data has landed",
        plant: Plant(FIG04, "1MB", NB, 1340.6) },
    Claim { section: "Fig 4", claim: "Fig 4, New: the blocking penalty grows with size",
        paper: "blocking serializes epoch and work",
        holds: |r| r.at(FIG04, "1MB", NEW) > r.at(FIG04, "256KB", NEW) + 150.0,
        status: Matches, why: "the penalty is the transfer time",
        plant: Plant(FIG04, "1MB", NEW, 1086.565) },
    Claim { section: "Fig 5", claim: "Fig 5, MVAPICH and New: the origin's work reaches the target at every size",
        paper: "as Fig 3, fence flavour",
        holds: |r| blocking_propagates(r, FIG05),
        status: Matches, why: "a blocking closing fence waits for the origin's delayed fence",
        plant: Plant(FIG05, "4B", NEW, 2.282) },
    Claim { section: "Fig 5", claim: "Fig 5, MVAPICH: the epoch grows with size",
        paper: "as Fig 3, fence flavour",
        holds: |r| mvapich_grows(r, FIG05),
        status: Matches, why: "the lazy baseline issues its data at the close",
        plant: Plant(FIG05, "1MB", MV, 1100.0) },
    Claim { section: "Fig 5", claim: "Fig 5, New: the blocking epoch is flat in size",
        paper: "as Fig 3, fence flavour",
        holds: |r| new_is_flat(r, FIG05),
        status: Matches, why: "the redesigned engine issues eagerly",
        plant: Plant(FIG05, "4B", NEW, 1200.0) },
    Claim { section: "Fig 5", claim: "Fig 5, New nonblocking: the epoch is the transfer alone",
        paper: "as Fig 3, fence flavour",
        holds: |r| nonblocking_is_transfer(r, FIG05),
        status: Matches, why: "the origin's nonblocking fence returns before its work",
        plant: Plant(FIG05, "1MB", NB, 1002.282) },
    Claim { section: "Fig 6", claim: "Fig 6, first lock (O0): MVAPICH does not overlap, both new series do",
        paper: "≈1340 µs MVAPICH (no overlap), ≈1010 µs new",
        holds: |r| {
            let o0 = |s| r.at(FIG06, "first lock (O0)", s);
            o0(MV) > 1250.0 && o0(NEW) < 1100.0 && o0(NB) < 1100.0
        },
        status: Matches, why: "a lazy lock moves its data at the unlock, after the work",
        plant: Plant(FIG06, "first lock (O0)", NB, 1345.363) },
    Claim { section: "Fig 6",
        claim: "Fig 6, second lock (O1): lazy MVAPICH is immune, New suffers Late Unlock, nonblocking \
                waits about two transfers",
        paper: "≈340 µs MVAPICH (lazy is immune); suffers with New; ≈2 transfers with nonblocking",
        holds: |r| {
            let o1 = |s| r.at(FIG06, "second lock (O1)", s);
            o1(MV) < 500.0 && o1(NEW) > 1100.0 && o1(NB) < 800.0
        },
        status: Matches, why: "a nonblocking unlock releases the lock when O0's data lands, not after its work",
        plant: Plant(FIG06, "second lock (O1)", NEW, 638.926) },
    Claim { section: "Figs 7–11", claim: "Fig 7, target T1: with A_A_A_R the late target's delay no longer reaches it",
        paper: "delay no longer propagates",
        holds: |r| flag_frees(r, FIG07, "target T1", "A_A_A_R"),
        status: Matches, why: "the origin's epoch toward T1 activates before the late T0's completes",
        plant: Plant(FIG07, "target T1", "A_A_A_R on", 1679.905) },
    Claim { section: "Figs 7–11", claim: "Fig 7, origin cumulative: with A_A_A_R about the late epoch alone",
        paper: "≈ late epoch alone",
        holds: |r| r.at(FIG07, "origin cumulative", "A_A_A_R on") < r.at(FIG07, "origin cumulative", "A_A_A_R off") - 200.0,
        status: Matches, why: "the punctual epoch runs inside the late one",
        plant: Plant(FIG07, "origin cumulative", "A_A_A_R on", 1678.384) },
    Claim { section: "Figs 7–11", claim: "Fig 8, O1's two lock epochs: with A_A_A_R about the first alone",
        paper: "≈ first epoch alone",
        holds: |r| {
            let [off, on] = ["A_A_A_R off", "A_A_A_R on"].map(|c| r.at(FIG08, "cumulative O1 epochs (1MB)", c));
            off > 1500.0 && on < off - 200.0
        },
        status: Matches, why: "O1's second lock epoch runs while the first waits for O0's lock",
        plant: Plant(FIG08, "cumulative O1 epochs (1MB)", "A_A_A_R on", 1639.697) },
    Claim { section: "Figs 7–11", claim: "Fig 9, target P1: with A_A_E_R the transitive delay is gone",
        paper: "transitive delay removed",
        holds: |r| flag_frees(r, FIG09, "target P1", "A_A_E_R"),
        status: Matches, why: "P1's exposure activates before its access epoch toward the late P0 completes",
        plant: Plant(FIG09, "target P1", "A_A_E_R on", 1680.334) },
    Claim { section: "Figs 7–11", claim: "Fig 9, P2 (target then origin): still waits for the late peer",
        paper: "the flag frees the transitive victim, not the late peer's own partner",
        holds: |r| r.at(FIG09, "P2 (target then origin)", "A_A_E_R on") > 1000.0,
        status: Matches, why: "P2's origin epoch targets the late P0",
        plant: Plant(FIG09, "P2 (target then origin)", "A_A_E_R on", 341.613) },
    Claim { section: "Figs 7–11", claim: "Fig 10, origin O1: with E_A_E_R the late origin's delay is gone",
        paper: "delay no longer propagates",
        holds: |r| flag_frees(r, FIG10, "origin O1", "E_A_E_R"),
        status: Matches, why: "the target's exposure to O1 activates before its exposure to the late O0 completes",
        plant: Plant(FIG10, "origin O1", "E_A_E_R on", 1680.334) },
    Claim { section: "Figs 7–11", claim: "Fig 10, target cumulative: still waits for the late origin",
        paper: "the flag frees the punctual origin, not the late one's partner",
        holds: |r| r.at(FIG10, "target cumulative", "E_A_E_R on") > 1000.0,
        status: Matches, why: "the target's exposure to O0 lasts as long as O0 is late",
        plant: Plant(FIG10, "target cumulative", "E_A_E_R on", 340.692) },
    Claim { section: "Figs 7–11", claim: "Fig 11, origin P1: with E_A_A_R the late peer's delay is gone",
        paper: "delay no longer propagates",
        holds: |r| flag_frees(r, FIG11, "origin P1", "E_A_A_R"),
        status: Matches, why: "P1's access epoch activates before its exposure to the late P0 completes",
        plant: Plant(FIG11, "origin P1", "E_A_A_R on", 1679.905) },
    Claim { section: "Fig 12", claim: "Fig 12: New nonblocking is level with blocking at every job size",
        paper: "nonblocking ≥ blocking by a small margin: back-to-back epochs serialize internally",
        holds: |r| r.labels(FIG12).iter().all(|n| {
            let nb = r.at(FIG12, n, NB);
            nb >= r.at(FIG12, n, MV) && (nb / r.at(FIG12, n, NEW) - 1.0).abs() < 0.03
        }),
        status: ShapeOnly, why: "level within 3 % of New, but below it at 128 ranks",
        plant: Plant(FIG12, "128", NB, 11000.0) },
    Claim { section: "Fig 12", claim: "Fig 12: A_A_A_R lifts throughput well above nonblocking at every job size",
        paper: "a large gain from A_A_A_R at 64–256 ranks, +2 % at 512",
        holds: |r| r.labels(FIG12).iter().all(|n| r.at(FIG12, n, AAAR) > 1.15 * r.at(FIG12, n, NB)),
        status: ShapeOnly, why: "the gain does not shrink with job size (the gain rows below)",
        plant: Plant(FIG12, "512", AAAR, 46801.0) },
    Claim { section: "Fig 12", claim: "Fig 12, 64 ranks: A_A_A_R gain over New", paper: "+39 %",
        holds: |r| fig12_gain_above(r, "64", 39.0),
        status: Diverges("12"), why: "ours is flat with job size where the paper's falls",
        plant: Plant(FIG12, "64", AAAR, 9631.0) },
    Claim { section: "Fig 12", claim: "Fig 12, 128 ranks: A_A_A_R gain over New", paper: "+20 %",
        holds: |r| fig12_gain_above(r, "128", 20.0),
        status: Diverges("12"), why: "ours is flat with job size where the paper's falls",
        plant: Plant(FIG12, "128", AAAR, 15148.0) },
    Claim { section: "Fig 12", claim: "Fig 12, 256 ranks: A_A_A_R gain over New", paper: "+16 %",
        holds: |r| fig12_gain_above(r, "256", 16.0),
        status: Diverges("12"), why: "ours is flat with job size where the paper's falls",
        plant: Plant(FIG12, "256", AAAR, 27653.0) },
    Claim { section: "Fig 12", claim: "Fig 12, 512 ranks: A_A_A_R gain over New", paper: "+2 %",
        holds: |r| fig12_gain_above(r, "512", 2.0),
        status: Diverges("12"), why: "the default credit budget never runs short at 512 ranks",
        plant: Plant(FIG12, "512", AAAR, 46782.0) },
    Claim { section: "`ablation_flow_control`",
        claim: "flow control, 64 ranks: starving the send credits collapses the A_A_A_R gain",
        paper: "+2 % at 512 ranks: an InfiniBand flow control issue",
        holds: |r| {
            let g = |credits| r.at(FLOW, credits, "gain %");
            g("unlimited") > 50.0 && (10.0..40.0).contains(&g("2")) && g("1") < 5.0
        },
        status: ShapeOnly, why: "the paper's cause, isolated at 64 ranks; at 512 the default budget is ample",
        plant: Plant(FLOW, "1", "gain %", 30.0) },
    Claim { section: "`ablation_eager_issue`",
        claim: "eager issue: New's first punctual target is done after one transfer, MVAPICH's after the late one",
        paper: "New beats MVAPICH even with blocking calls (§VIII.B's explanation)",
        holds: |r| {
            r.at(EAGER, "2", "eager per-target (New)") < 400.0
                && r.labels(EAGER).iter().all(|n| {
                    r.at(EAGER, n, "wait-for-all (MVAPICH)") > r.at(EAGER, n, "eager per-target (New)") + 1000.0
                })
        },
        status: Matches, why: "the redesigned engine issues to each target as its grant arrives",
        plant: Plant(EAGER, "8", "eager per-target (New)", 3709.51) },
    Claim { section: "Fig 13", claim: "Fig 13, 8 procs: nonblocking takes about half MVAPICH's time",
        paper: "50% faster (64 to 128 processes)",
        holds: |r| [LU_1024[0], LU_2048[0]].iter().all(|f| (45.0..55.0).contains(&nb_saving(r, f, "8"))),
        status: Matches, why: "the owner's compute and the targets' wait overlap instead of adding up",
        plant: Plant(LU_1024[0], "8", NB, 4.0) },
    Claim { section: "Fig 13", claim: "Fig 13: the nonblocking saving shrinks as the job grows",
        paper: "the advantage shrinks as the communication share grows",
        holds: |r| [LU_1024[0], LU_2048[0]].iter().all(|f| {
            falling(&r.labels(f).iter().map(|p| nb_saving(r, f, p)).collect::<Vec<_>>())
        }),
        status: Matches, why: "less compute per rank leaves less to overlap",
        plant: Plant(LU_1024[0], "256", NB, 0.3) },
    Claim { section: "Fig 13", claim: "Fig 13, 256 procs: nonblocking and New are level",
        paper: "the advantage shrinks as the communication share grows",
        holds: |r| [LU_1024[0], LU_2048[0]].iter().all(|f| (r.at(f, "256", NB) / r.at(f, "256", NEW) - 1.0).abs() < 0.01),
        status: Matches, why: "the job is communication-bound, and New already issues eagerly",
        plant: Plant(LU_2048[0], "256", NB, 1.9) },
    Claim { section: "Fig 13", claim: "Fig 13, panels b/d: the communication share grows with job size in every series",
        paper: "the communication share grows with job size",
        holds: |r| [LU_1024[1], LU_2048[1]].iter().all(|f| [MV, NEW, NB].iter().all(|s| rising(&r.column(f, s)))),
        status: Matches, why: "the per-rank compute falls as 1/n, the broadcast does not",
        plant: Plant(LU_1024[1], "256", NEW, 50.0) },
    Claim { section: "Fig 13",
        claim: "Fig 13, panels b/d, 8 procs: the blocking series spend about half their time communicating, \
                nonblocking almost none",
        paper: "the blocking series pay owner compute and target wait serially (Late Complete)",
        holds: |r| [LU_1024[1], LU_2048[1]].iter().all(|f| {
            r.at(f, "8", MV) > 40.0 && r.at(f, "8", NEW) > 40.0 && r.at(f, "8", NB) < 20.0
        }),
        status: Matches, why: "a target waits in its blocking close while the owner computes",
        plant: Plant(LU_2048[1], "8", NB, 50.0) },
    Claim { section: "Fig 13", claim: "Fig 13, 1024²: overall time has an optimum, MVAPICH's minimum at 128 procs",
        paper: "an optimal job size at 128/256 procs, then the time grows",
        holds: |r| {
            let f = LU_1024[0];
            let at_128 = r.at(f, "128", MV);
            r.column(f, MV).iter().all(|t| *t >= at_128) && r.at(f, "256", MV) > at_128
        },
        status: Matches, why: "at 256 procs the broadcast costs more than the compute it divides",
        plant: Plant(LU_1024[0], "256", MV, 0.5) },
    Claim { section: "Paper-scale", claim: "Fig 13a, 8192², 64 and 128 procs: MVAPICH and nonblocking within 10 % of the paper",
        paper: "read off: MVAPICH ≈330 s and nonblocking ≈ half of it at 64 procs; ≈175 s and ≈90 s at 128",
        holds: |r| {
            let near = |p, s, paper: f64| (r.at(LU_8192[0], p, s) / paper - 1.0).abs() < 0.1;
            near("64", MV, 330.0) && near("64", NB, 165.0) && near("128", MV, 175.0) && near("128", NB, 90.0)
        },
        status: Matches, why: "one calibration constant, t_flop = 30 ns, fixed before the run",
        plant: Plant(LU_8192[0], "128", NB, 110.0) },
    Claim { section: "Paper-scale", claim: "Fig 13b, 8192²: the communication share grows with job size in every series",
        paper: "the communication share grows with job size",
        holds: |r| [MV, NEW, NB].iter().all(|s| rising(&r.column(LU_8192[1], s))),
        status: Matches, why: "as at the default scale",
        plant: Plant(LU_8192[1], "512", NB, 30.0) },
    Claim { section: "Paper-scale", claim: "Fig 13a, 8192²: overall time still falls at 512 procs in every series",
        paper: "the overall time turns back up past its optimum, 128/256 procs",
        holds: |r| [MV, NEW, NB].iter().all(|s| falling(&r.column(LU_8192[0], s))),
        status: Diverges("15"),
        why: "the simulated per-epoch software overheads are cheaper relative to compute than MVAPICH's",
        plant: Plant(LU_8192[0], "512", MV, 120.0) },
    Claim { section: "Slack rewriter", claim: "rewrite_apps: one row per application kernel, 8 ranks each",
        paper: "beyond the paper: the rewriter over every application kernel (DESIGN §9.6)",
        holds: |r| {
            r.labels(REWRITE) == ["halo", "stencil2d", "lu", "transactions", "bank"]
                && r.column(REWRITE, "ranks").iter().all(|n| *n == 8.0)
        },
        status: Matches, why: "each kernel's IR twin is rewritten and both versions run",
        plant: Plant(REWRITE, "bank", "ranks", 4.0) },
    Claim { section: "Slack rewriter", claim: "rewrite_apps: the rewrite cuts blocked steps in every kernel but transactions",
        paper: "beyond the paper: applied rewrites strictly reduce blocked steps (DESIGN §9.6)",
        holds: |r| REWRITTEN.iter().all(|a| r.at(REWRITE, a, "blocked_steps_rw") < r.at(REWRITE, a, "blocked_steps")),
        status: Matches, why: "a relaxed close or an elided flush blocks nowhere",
        plant: Plant(REWRITE, "lu", "blocked_steps_rw", 100.0) },
    Claim { section: "Slack rewriter", claim: "rewrite_apps: rewrites are applied in every kernel but transactions",
        paper: "beyond the paper: relaxed closes, elided flushes or shrunk epochs (DESIGN §9.6)",
        holds: |r| REWRITTEN.iter().all(|a| {
            ["relaxed", "elided", "shrunk"].iter().map(|c| r.at(REWRITE, a, c)).sum::<f64>() > 0.0
        }),
        status: Matches, why: "every kernel but transactions has a blocking close with slack",
        plant: Plant(REWRITE, "bank", "elided", 0.0) },
    Claim { section: "Slack rewriter", claim: "rewrite_apps: virtual time never regresses",
        paper: "beyond the paper: the price book admits no rewrite that costs time (DESIGN §9.6)",
        holds: |r| r.labels(REWRITE).iter().all(|a| r.at(REWRITE, a, "virt_us_rw") <= r.at(REWRITE, a, "virt_us")),
        status: Matches, why: "the cost model prices every rewrite before it is applied",
        plant: Plant(REWRITE, "transactions", "virt_us_rw", 27.0) },
    Claim { section: "Slack rewriter", claim: "rewrite_apps, transactions: the contention veto declines every relaxation",
        paper: "beyond the paper: contended exclusive unlocks are never relaxed (DESIGN §9.6)",
        holds: |r| {
            let t = |c| r.at(REWRITE, "transactions", c);
            t("relaxed") == 0.0 && t("skipped") > 0.0 && t("blocked_steps") == t("blocked_steps_rw")
        },
        status: Matches, why: "deferring a contended release delays the contending acquire",
        plant: Plant(REWRITE, "transactions", "relaxed", 88.0) },
];

/// One table of EXPERIMENTS.md and the measured numbers it prints.
struct Printed {
    /// The heading the table sits under.
    section: &'static str,
    /// Its columns that print labels, parameters or the paper's values.
    /// Every other column but the first prints measured numbers.
    words: &'static [&'static str],
    /// The numbers one measured cell prints, in reading order, by the
    /// table's row label and column header.
    cell: fn(&Results, &str, &str) -> Vec<f64>,
}

/// Before, after, and the change in percent.
fn change(r: &Results, row: &str, before: &str, after: &str) -> Vec<f64> {
    let (b, a) = (r.at(REWRITE, row, before), r.at(REWRITE, row, after));
    vec![b, a, gain(a, b)]
}

#[rustfmt::skip]
const PRINTED: &[Printed] = &[
    Printed { section: "Calibration", words: &["paper", "model"],
        cell: |r, row, _| match row {
            "1 MB put epoch" => vec![r.at(FIG03, "1MB", NB)],
            _ => vec![],
        } },
    Printed { section: "§VIII.A", words: &[],
        cell: |r, row, col| vec![r.at(if row == "epoch length" { OVERLAP } else { LATENCY }, row, col)] },
    Printed { section: "Fig 2", words: &["paper (blocking / nonblocking)"],
        cell: |r, row, col| vec![r.at(FIG02, row, col)] },
    Printed { section: "Fig 3", words: &[], cell: |r, row, col| vec![r.at(FIG03, row, col)] },
    Printed { section: "Fig 4", words: &[], cell: |r, row, col| vec![r.at(FIG04, row, col)] },
    Printed { section: "Fig 5", words: &[], cell: |r, row, col| vec![r.at(FIG05, row, col)] },
    Printed { section: "Fig 6", words: &["paper"], cell: |r, row, col| vec![r.at(FIG06, row, col)] },
    Printed { section: "Figs 7–11", words: &["figure", "paper shape"],
        cell: |r, row, col| {
            let (file, flag) = match row {
                "target T1" | "origin cumulative" => (FIG07, "A_A_A_R"),
                "cumulative O1 epochs (1MB)" => (FIG08, "A_A_A_R"),
                "target P1" => (FIG09, "A_A_E_R"),
                "origin O1" => (FIG10, "E_A_E_R"),
                _ => (FIG11, "E_A_A_R"),
            };
            vec![r.at(file, row, &format!("{flag} {col}"))]
        } },
    Printed { section: "Fig 12", words: &[],
        cell: |r, row, col| match col {
            "A_A_A_R gain over New" => vec![gain(r.at(FIG12, row, AAAR), r.at(FIG12, row, NEW))],
            _ => vec![r.at(FIG12, row, col)],
        } },
    Printed { section: "Matrix 1024²", words: &[],
        cell: |r, row, col| match col {
            "nonblocking saving" => vec![nb_saving(r, LU_1024[0], row)],
            "comm % MVAPICH → NB" => vec![r.at(LU_1024[1], row, MV), r.at(LU_1024[1], row, NB)],
            _ => vec![r.at(LU_1024[0], row, col)],
        } },
    Printed { section: "Matrix 2048²", words: &[],
        cell: |r, row, col| match col {
            "nonblocking saving" => vec![nb_saving(r, LU_2048[0], row)],
            _ => vec![r.at(LU_2048[0], row, col)],
        } },
    Printed { section: "Paper-scale", words: &["paper (Fig 13a, read off)"],
        cell: |r, row, col| match col {
            "comm % MVAPICH → NB" => vec![r.at(LU_8192[1], row, MV), r.at(LU_8192[1], row, NB)],
            _ => vec![r.at(LU_8192[0], row, col)],
        } },
    Printed { section: "`ablation_eager_issue`", words: &[], cell: |r, row, col| vec![r.at(EAGER, row, col)] },
    Printed { section: "`ablation_flow_control`", words: &[], cell: |r, row, col| vec![r.at(FLOW, row, col)] },
    Printed { section: "Slack rewriter", words: &[],
        cell: |r, app, col| match col {
            "blocked steps → rewritten" => change(r, app, "blocked_steps", "blocked_steps_rw"),
            "virtual time µs → rewritten" => change(r, app, "virt_us", "virt_us_rw"),
            _ => vec![r.at(REWRITE, app, match app {
                "transactions" => "skipped",
                "bank" => "elided",
                _ => "relaxed",
            })],
        } },
];

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(rel: &str) -> String {
    fs::read_to_string(repo().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

impl Results {
    fn read() -> Results {
        let mut tables = BTreeMap::new();
        let dir = repo().join("results");
        for entry in fs::read_dir(&dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
            let path = entry.unwrap().path();
            let stem = path.file_stem().unwrap().to_str().unwrap().to_string();
            let text = fs::read_to_string(&path).unwrap();
            let mut lines = text.lines().map(|l| l.split(',').map(str::to_string));
            let cols = lines.next().unwrap().skip(1).collect();
            tables.insert(
                stem,
                Table {
                    cols,
                    rows: lines.map(labelled).collect(),
                },
            );
        }
        // `fig13_lu`'s stdout: each table is a `== title ==` line, a header
        // whose names are right-aligned in columns at least two spaces
        // apart, and whitespace-separated rows up to a blank line.
        let text = read("results_fig13_paper8192.txt");
        let mut lines = text.lines();
        let mut i = 0;
        while let Some(line) = lines.next() {
            if !line.starts_with("== ") {
                continue;
            }
            let header = lines.next().unwrap();
            let cols = header
                .split("  ")
                .map(str::trim)
                .filter(|c| !c.is_empty())
                .skip(1);
            let rows = lines.by_ref().take_while(|l| !l.trim().is_empty());
            let rows = rows
                .map(|l| labelled(l.split_whitespace().map(str::to_string)))
                .collect();
            let cols = cols.map(str::to_string).collect();
            tables.insert(format!("paper8192_{i}"), Table { cols, rows });
            i += 1;
        }
        Results {
            tables,
            read: RefCell::default(),
        }
    }

    fn table(&self, file: &str) -> &Table {
        self.tables
            .get(file)
            .unwrap_or_else(|| panic!("no results table {file}"))
    }

    /// One cell, recorded as read.
    fn at(&self, file: &str, row: &str, col: &str) -> f64 {
        let (r, c) = self.table(file).find(file, row, col);
        let v = self.table(file).rows[r].1[c];
        self.read
            .borrow_mut()
            .push((format!("{file}/{row}/{col}"), v));
        v
    }

    fn labels(&self, file: &str) -> Vec<String> {
        self.table(file)
            .rows
            .iter()
            .map(|(l, _)| l.clone())
            .collect()
    }

    /// One column, top to bottom.
    fn column(&self, file: &str, col: &str) -> Vec<f64> {
        self.labels(file)
            .iter()
            .map(|row| self.at(file, row, col))
            .collect()
    }

    /// These results with `plant` applied.
    fn planted(&self, plant: &Plant) -> Results {
        let Plant(file, row, col, to) = *plant;
        let mut planted = self.clone();
        let (r, c) = self.table(file).find(file, row, col);
        planted.tables.get_mut(file).unwrap().rows[r].1[c] = to;
        planted
    }

    /// `Ok` when the claim holds, else the cells it read.
    fn check(&self, claim: &Claim) -> Result<(), Vec<(String, f64)>> {
        self.read.borrow_mut().clear();
        let holds = (claim.holds)(self);
        let read = self.read.take();
        if holds {
            Ok(())
        } else {
            Err(read)
        }
    }
}

fn labelled(mut cells: impl Iterator<Item = String>) -> (String, Vec<f64>) {
    let label = cells.next().unwrap();
    let vals = cells
        .map(|c| c.parse().unwrap_or_else(|e| panic!("{label}: {c:?}: {e}")))
        .collect();
    (label, vals)
}

/// Whether a heading's text belongs to `section`: equal to it, or it
/// followed by a space.
fn heads(text: &str, section: &str) -> bool {
    text.strip_prefix(section)
        .is_some_and(|rest| rest.is_empty() || rest.starts_with(' '))
}

/// The headings of a markdown document with the lines under each, up to
/// the next heading.
fn sections(doc: &str) -> Vec<(&str, Vec<&str>)> {
    let mut out: Vec<(&str, Vec<&str>)> = Vec::new();
    for line in doc.lines() {
        if line.starts_with('#') {
            out.push((line.trim_start_matches('#').trim(), Vec::new()));
        } else if let Some((_, body)) = out.last_mut() {
            body.push(line);
        }
    }
    out
}

/// The markdown table among `lines`, as rows of trimmed cells, header
/// first and the `---` separator dropped; `None` when there is none.
fn md_table(lines: &[&str]) -> Result<Option<Vec<Vec<String>>>, String> {
    let start = lines.iter().position(|l| l.starts_with('|'));
    let Some(start) = start else { return Ok(None) };
    let rows: Vec<&str> = lines[start..]
        .iter()
        .take_while(|l| l.starts_with('|'))
        .copied()
        .collect();
    if lines[start + rows.len()..]
        .iter()
        .any(|l| l.starts_with('|'))
    {
        return Err("two tables".into());
    }
    let split = |l: &str| {
        l.trim()
            .trim_matches('|')
            .split('|')
            .map(|c| c.trim().to_string())
            .collect()
    };
    Ok(Some(
        rows.iter()
            .enumerate()
            .filter(|(i, _)| *i != 1)
            .map(|(_, l)| split(l))
            .collect(),
    ))
}

/// A number as printed: sign, digits without the point, decimals.
#[derive(Debug, PartialEq)]
struct Num {
    neg: bool,
    digits: u64,
    decimals: i32,
}

impl Num {
    /// Whether `v`, rounded half away from zero to this number's
    /// decimals, prints as this number.
    fn shows(&self, v: f64) -> bool {
        let scaled = (v.abs() * 10f64.powi(self.decimals) + 1e-6).round() as u64;
        scaled == self.digits && (self.neg == (v < 0.0) || scaled == 0)
    }
}

/// Every number in a table cell, in reading order. A sign is a `+`, `-`
/// or `−` right before the digits; digits right after a letter belong to
/// a name and are skipped.
fn numbers(cell: &str) -> Vec<Num> {
    let chars: Vec<char> = cell.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < chars.len() {
        let named = i > 0 && (chars[i - 1].is_alphabetic() || chars[i - 1] == '_');
        if !chars[i].is_ascii_digit() || named {
            i += 1;
            continue;
        }
        let neg = i > 0 && matches!(chars[i - 1], '-' | '−');
        let (mut digits, mut decimals, mut point) = (0u64, 0, false);
        while i < chars.len() {
            match chars[i] {
                c @ '0'..='9' => {
                    digits = digits * 10 + c.to_digit(10).unwrap() as u64;
                    decimals += point as i32;
                }
                '.' if !point && chars.get(i + 1).is_some_and(char::is_ascii_digit) => point = true,
                _ => break,
            }
            i += 1;
        }
        out.push(Num {
            neg,
            digits,
            decimals,
        });
    }
    out
}

fn describe(claim: &Claim) -> String {
    let status = match claim.status {
        Matches => "matches".to_string(),
        ShapeOnly => "shape only".to_string(),
        Diverges(item) => format!("diverges, ROADMAP {item}"),
    };
    format!(
        "[{}] {} ({status}: {}; paper: {})",
        claim.section, claim.claim, claim.why, claim.paper
    )
}

#[test]
fn every_claim_holds_on_the_committed_results() {
    let results = Results::read();
    let broken: Vec<String> = CLAIMS
        .iter()
        .filter_map(|claim| {
            let read = results.check(claim).err()?;
            let cells: Vec<String> = read
                .iter()
                .map(|(cell, v)| format!("{cell} = {v}"))
                .collect();
            Some(format!(
                "{}\n    read {}",
                describe(claim),
                cells.join(", ")
            ))
        })
        .collect();
    assert!(
        broken.is_empty(),
        "claims that no longer hold:\n{}",
        broken.join("\n")
    );
}

#[test]
fn every_claim_fails_on_its_plant() {
    let results = Results::read();
    for claim in CLAIMS {
        let Plant(file, row, col, _) = claim.plant;
        let planted = results.planted(&claim.plant);
        let cell = format!("{file}/{row}/{col}");
        match planted.check(claim) {
            Ok(()) => panic!("holds on its own plant {cell}: {}", describe(claim)),
            Err(read) => assert!(
                read.iter().any(|(c, _)| *c == cell),
                "its plant {cell} is not a cell it reads: {}",
                describe(claim)
            ),
        }
    }
}

#[test]
fn every_claim_names_a_section_and_every_divergence_a_roadmap_item() {
    let experiments = read("EXPERIMENTS.md");
    let headings: Vec<&str> = sections(&experiments).into_iter().map(|(h, _)| h).collect();
    let roadmap = read("ROADMAP.md");
    for claim in CLAIMS {
        let n = headings.iter().filter(|h| heads(h, claim.section)).count();
        assert_eq!(
            n,
            1,
            "EXPERIMENTS.md has {n} `{}` headings: {}",
            claim.section,
            describe(claim)
        );
        if let Diverges(item) = claim.status {
            let entry = format!("- **{item}. ");
            assert!(
                roadmap.lines().any(|l| l.starts_with(&entry)),
                "ROADMAP.md has no item {item}"
            );
        }
    }
    let names: BTreeSet<&str> = CLAIMS.iter().map(|c| c.claim).collect();
    assert_eq!(names.len(), CLAIMS.len(), "two claims share a name");
}

#[test]
fn experiments_prints_the_committed_results() {
    let results = Results::read();
    let experiments = read("EXPERIMENTS.md");
    let mut wrong = Vec::new();
    for (heading, lines) in sections(&experiments) {
        let table = md_table(&lines).unwrap_or_else(|e| panic!("`{heading}`: {e}"));
        let printed: Vec<&Printed> = PRINTED
            .iter()
            .filter(|p| heads(heading, p.section))
            .collect();
        let (table, printed) = match (table, printed.as_slice()) {
            (None, []) => continue,
            (Some(table), [printed]) => (table, printed),
            (table, printed) => panic!(
                "`{heading}`: {} PRINTED entries for {} tables",
                printed.len(),
                table.iter().count()
            ),
        };
        let header = &table[0];
        for w in printed.words {
            assert!(
                header.iter().any(|h| h == w),
                "`{heading}`: no column {w:?}"
            );
        }
        for row in &table[1..] {
            let cells = header.iter().zip(row).skip(1);
            for (col, cell) in cells.filter(|(col, _)| !printed.words.contains(&col.as_str())) {
                let want = (printed.cell)(&results, &row[0], col);
                let got = numbers(cell);
                if got.len() != want.len() || !got.iter().zip(&want).all(|(n, v)| n.shows(*v)) {
                    wrong.push(format!(
                        "`{heading}`, {} / {col}: prints {cell:?}, the results give {want:?}",
                        row[0]
                    ));
                }
            }
        }
    }
    for p in PRINTED {
        let n = sections(&experiments)
            .iter()
            .filter(|(h, _)| heads(h, p.section))
            .count();
        assert_eq!(n, 1, "EXPERIMENTS.md has {n} `{}` headings", p.section);
    }
    assert!(
        wrong.is_empty(),
        "EXPERIMENTS.md misprints the results:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn numbers_read_as_printed() {
    let num = |neg, digits, decimals| Num {
        neg,
        digits,
        decimals,
    };
    assert_eq!(numbers("**+60 %**"), [num(false, 60, 0)]);
    assert_eq!(
        numbers("112 → 24 (−79%)"),
        [num(false, 112, 0), num(false, 24, 0), num(true, 79, 0)]
    );
    assert_eq!(numbers("341.6 (duration)"), [num(false, 3416, 1)]);
    assert_eq!(
        numbers("7 (A_A_A_R, GATS) 1MB."),
        [num(false, 7, 0), num(false, 1, 0)]
    );
    assert!(num(false, 71, 1).shows(7.05) && !num(false, 70, 1).shows(7.05));
    assert!(num(true, 79, 0).shows(-78.571) && !num(false, 79, 0).shows(-78.571));
    assert!(num(false, 0, 0).shows(0.0) && num(false, 0, 0).shows(-0.2));
    assert!(heads("Fig 2 — Late Post", "Fig 2") && !heads("Fig 12 — transactions", "Fig 1"));
}
