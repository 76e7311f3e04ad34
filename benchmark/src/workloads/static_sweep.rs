//! `static_sweep` — the static layer alone: `analyze`, `analyze_slack` and
//! `rewrite` over the generated conformance corpus under both lowerings, the
//! whole negative corpus (every program must be flagged with its planted
//! code), the satisfiable value-spin twins (must be clean), and the five
//! application IR twins at 64 ranks.
//!
//! Why: pure `analyze` / `check::lower` / `apps::ir_models` — the control
//! workload every simulator optimisation must leave unchanged, and the one a
//! "one program representation" refactor must not slow. A tail of a few
//! percent executes two small twins before and after the rewrite, so that
//! what the rewriter buys is priced in model time here too.

use mpisim_analyze::{
    analyze, analyze_slack, generate_negative, generate_value_clean, has_code, rewrite, Close,
    IrProgram, NegCase, NegFamily, Stmt,
};
use mpisim_apps::ir_models;
use mpisim_check::{exec_ir_with, generate, lower, Family, Program};
use mpisim_core::SyncStrategy;

use super::{RepOut, Setup, Workload};
use crate::span;

pub struct StaticSweep {
    break_check: bool,
    exec_seed: u64,
    corpus: Vec<Program>,
    negatives: Vec<(NegFamily, u64, NegCase)>,
    value_clean: Vec<IrProgram>,
    twins: Vec<(&'static str, IrProgram)>,
    /// Small twins that are also executed, original and rewritten.
    executed: Vec<(&'static str, IrProgram)>,
}

impl StaticSweep {
    pub fn new(s: Setup) -> Self {
        let first = s.draw(1, 1 << 20);
        let per_family = s.scale(16, 1) as u64;
        let neg_seeds = s.scale(64, 2) as u64;
        let first_neg = s.draw(2, 1 << 20);
        let (ranks, iters) = (s.scale(64, 8), s.scale(32, 4));
        StaticSweep {
            break_check: s.break_check,
            exec_seed: s.draw(3, 1 << 20),
            corpus: Family::ALL
                .into_iter()
                .flat_map(|f| (first..first + per_family).map(move |i| generate(f, i)))
                .collect(),
            negatives: NegFamily::ALL
                .into_iter()
                .flat_map(|f| {
                    (first_neg..first_neg + neg_seeds).map(move |i| (f, i, generate_negative(f, i)))
                })
                .collect(),
            value_clean: (first_neg..first_neg + neg_seeds)
                .map(generate_value_clean)
                .collect(),
            twins: vec![
                ("halo", ir_models::halo_ir(ranks, iters)),
                ("stencil2d", ir_models::stencil2d_ir(ranks, iters / 2)),
                ("lu", ir_models::lu_ir(ranks, 2 * iters)),
                ("transactions", ir_models::transactions_ir(ranks, iters / 4)),
                ("bank", ir_models::bank_ir(ranks, iters / 4)),
            ],
            executed: vec![
                ("halo", small_halo(4, 6, 2048 + 8 * s.draw(4, 8) as usize)),
                ("lu", ir_models::lu_ir(4, 6)),
            ],
        }
    }
}

/// A small all-blocking fence halo with a seed-drawn cell size, so that the
/// seed reaches the model time of the executed tail. Cells are a few KB
/// (smaller ones hide entirely behind the fence's own latency); left and
/// right ghost cells land in separate halves of the window.
fn small_halo(n_ranks: usize, iters: usize, cell: usize) -> IrProgram {
    const HALF: usize = 4096;
    assert!(cell <= HALF);
    let mut p = IrProgram::new(n_ranks, 2 * HALF);
    for (me, stmts) in p.ranks.iter_mut().enumerate() {
        let (left, right) = ((me + n_ranks - 1) % n_ranks, (me + 1) % n_ranks);
        stmts.push(Stmt::Fence {
            win: 0,
            close: Close::Blocking,
        });
        for _ in 0..iters {
            stmts.push(Stmt::Put {
                win: 0,
                target: left,
                disp: HALF,
                len: cell,
            });
            stmts.push(Stmt::Put {
                win: 0,
                target: right,
                disp: 0,
                len: cell,
            });
            stmts.push(Stmt::Fence {
                win: 0,
                close: Close::Blocking,
            });
        }
    }
    p
}

fn stmts(p: &IrProgram) -> usize {
    p.ranks.iter().map(Vec::len).sum()
}

/// The full static pipeline over one program that must be clean: analyze,
/// classify slack, rewrite to the fixpoint, and check that the rewrite is
/// idempotent and leaves the program clean. Returns the rewritten program.
fn sweep_clean(out: &mut RepOut, what: &dyn Fn() -> String, p: &IrProgram) -> IrProgram {
    out.counts.add_program(stmts(p));
    let diags = span::within("analyze.analyze", || analyze(p));
    out.check(diags.is_empty(), || {
        format!("{}: flagged {diags:?}", what())
    });
    span::within("analyze.slack", || analyze_slack(p));
    let (rewritten, _) = span::within("analyze.rewrite", || rewrite(p));
    let (again, _) = span::within("analyze.rewrite", || rewrite(&rewritten));
    out.check(again == rewritten, || {
        format!("{}: rewrite is not idempotent", what())
    });
    let diags = span::within("analyze.analyze", || analyze(&rewritten));
    out.check(diags.is_empty(), || {
        format!("{}: rewritten program flagged {diags:?}", what())
    });
    rewritten
}

impl Workload for StaticSweep {
    fn rep(&mut self) -> RepOut {
        let mut out = RepOut::default();

        for (k, program) in self.corpus.iter().enumerate() {
            for nonblocking in [false, true] {
                let ir = span::within("check.lower", || lower(program, nonblocking));
                sweep_clean(
                    &mut out,
                    &|| format!("corpus #{k} nonblocking={nonblocking}"),
                    &ir,
                );
            }
        }

        for (k, (family, index, case)) in self.negatives.iter().enumerate() {
            out.counts.add_program(stmts(&case.program));
            let diags = span::within("analyze.analyze", || analyze(&case.program));
            let flagged = has_code(&diags, case.expect) && !(self.break_check && k == 0);
            out.check(flagged, || {
                format!(
                    "{family:?} #{index}: planted {:?} not reported",
                    case.expect
                )
            });
        }
        for (k, p) in self.value_clean.iter().enumerate() {
            out.counts.add_program(stmts(p));
            let diags = span::within("analyze.analyze", || analyze(p));
            out.check(diags.is_empty(), || {
                format!("value-clean #{k}: flagged {diags:?}")
            });
        }

        for (name, p) in &self.twins {
            sweep_clean(&mut out, &|| format!("{name} twin"), p);
        }

        // The simulated tail: the rewriter's product must move the same data
        // in no more model time.
        for (name, p) in &self.executed {
            let rewritten = sweep_clean(&mut out, &|| format!("{name} small twin"), p);
            let mut runs = Vec::new();
            for (label, ir) in [("original", p), ("rewritten", &rewritten)] {
                let run = span::within("check.exec_ir", || {
                    exec_ir_with(ir, false, self.exec_seed, SyncStrategy::Redesigned)
                });
                match run {
                    Ok((mems, report)) => {
                        out.job(&format!("{name} {label}"), &report);
                        runs.push((mems, report.final_time.as_nanos()));
                    }
                    Err(e) => out.check(false, || format!("{name} {label}: {e}")),
                }
            }
            if let [(m0, t0), (m1, t1)] = &runs[..] {
                out.check(m0 == m1, || {
                    format!("{name}: rewritten twin leaves different memory")
                });
                out.nb_pairs.push((*t0, *t1));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_repetition_is_clean_and_the_rewrite_pays() {
        let s = Setup {
            seed: 11,
            break_check: false,
            smoke: true,
        };
        let out = StaticSweep::new(s).rep();
        assert_eq!(out.failed, 0, "{:?}", out.failures);
        // 5 x 2 lowerings + 10 x 2 negatives + 2 value-clean + 5 twins + 2 small.
        assert_eq!(out.counts.get("analyze.programs"), 10 + 20 + 2 + 5 + 2);
        assert_eq!(out.counts.get("core.jobs"), 4);
        assert_eq!(out.nb_pairs.len(), 2);
        let (orig, rewritten) = out.nb_pairs[1];
        assert!(
            rewritten < orig,
            "rewrite did not speed the LU twin up: {orig} -> {rewritten}"
        );
    }

    #[test]
    fn an_unflagged_negative_is_counted() {
        let s = Setup {
            seed: 11,
            break_check: true,
            smoke: true,
        };
        assert_eq!(StaticSweep::new(s).rep().failed, 1);
    }
}
