//! Solver results, statistics, and configuration.

use crate::tol;
use serde::{Deserialize, Serialize};

/// Final status of a MIP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Status {
    /// Proven optimal within tolerances.
    Optimal,
    /// A feasible incumbent exists but limits stopped the proof of
    /// optimality; [`SolveStats::gap`] reports the remaining gap. This is
    /// the normal production outcome for RAS phase 1 (paper Figure 9).
    Feasible,
    /// Proven infeasible.
    Infeasible,
    /// Proven unbounded.
    Unbounded,
    /// Limits hit before any feasible point was found.
    #[default]
    Unknown,
}

/// Statistics from a solve, used by the Figures 7–11 experiments.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SolveStats {
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
    /// Total simplex iterations across all LP solves.
    pub simplex_iterations: usize,
    /// Primal phase-1 iterations across all LP solves. Zero whenever
    /// every LP either crashed feasible or re-solved via the dual
    /// simplex from a warm basis.
    pub phase1_iterations: usize,
    /// Dual-simplex iterations across all LP solves (warm re-solves).
    pub dual_iterations: usize,
    /// True when at least one LP used the dual-simplex warm path.
    pub used_dual_simplex: bool,
    /// Phase-1 iterations of the root LP alone — the number the
    /// continuous-session gate checks: a bound-only warm round must
    /// report 0 here.
    pub root_phase1_iterations: usize,
    /// True when the root LP re-solved via the dual simplex.
    pub root_used_dual_simplex: bool,
    /// Total basis (re)factorizations across all LP solves.
    pub lp_refactorizations: usize,
    /// Successful basis updates (Forrest–Tomlin column replacements)
    /// across all LP solves.
    pub basis_updates: usize,
    /// Refactorizations triggered by the fixed pivot interval.
    pub refactors_interval: usize,
    /// Refactorizations triggered by update fill growth (FT spike and
    /// row-elimination nonzeros outgrowing the fresh factors).
    pub refactors_growth: usize,
    /// Refactorizations triggered by a numerically rejected update.
    pub refactors_accuracy: usize,
    /// Pivots served straight from the partial-pricing candidate list
    /// across all LP solves (see `simplex::PricingStats`).
    pub pricing_candidate_hits: usize,
    /// Full pricing scans (reduced-cost refreshes plus candidate-list
    /// rebuilds) across all LP solves.
    pub pricing_full_rebuilds: usize,
    /// Wall-clock seconds spent in the solve.
    pub solve_seconds: f64,
    /// Best proven lower bound on the objective.
    pub best_bound: f64,
    /// Absolute gap `incumbent − best_bound` (0 when proven optimal).
    pub absolute_gap: f64,
    /// Relative gap `absolute_gap / max(1, |incumbent|)`.
    pub gap: f64,
    /// True when a limit (time/nodes) stopped the solve early.
    pub hit_limit: bool,
    /// Seconds spent building the standard form (paper's "Solver Build").
    pub setup_seconds: f64,
    /// Seconds spent in the root LP relaxation (paper's "Initial State").
    pub root_lp_seconds: f64,
    /// Seconds spent in branch and bound proper (paper's "MIP" step).
    pub mip_seconds: f64,
    /// True when the root LP started from a supplied warm basis and the
    /// repair succeeded (no fallback to the slack crash).
    pub warm_basis_accepted: bool,
    /// True when a supplied incumbent validated and was installed as the
    /// starting best-known solution.
    pub incumbent_seeded: bool,
    /// Nodes pruned against the seeded incumbent before any better
    /// solution was found — the direct payoff of warm incumbent seeding.
    pub nodes_pruned_by_seed: usize,
    /// Outcome of the model auditor and solution certificate checkers
    /// (see [`crate::audit`]); default-empty when auditing was off.
    pub audit: crate::audit::AuditReport,
}

impl SolveStats {
    /// Accumulates one LP solve's counters into the MIP-level totals.
    pub fn record_lp(&mut self, lp: &crate::simplex::LpResult) {
        self.simplex_iterations += lp.iterations;
        self.phase1_iterations += lp.phase1_iterations;
        self.dual_iterations += lp.dual_iterations;
        self.used_dual_simplex |= lp.used_dual_simplex;
        self.lp_refactorizations += lp.refactorizations;
        self.basis_updates += lp.basis_stats.updates;
        self.refactors_interval += lp.basis_stats.refactors_interval;
        self.refactors_growth += lp.basis_stats.refactors_growth;
        self.refactors_accuracy += lp.basis_stats.refactors_accuracy;
        self.pricing_candidate_hits += lp.pricing.candidate_hits;
        self.pricing_full_rebuilds += lp.pricing.full_rebuilds;
    }

    /// Folds another solve's counters into these totals: work counters
    /// and the absolute gap sum, "happened at least once" flags OR, and
    /// `solve_seconds` takes the max (merged solves run side by side,
    /// as shards do). Per-solve outcomes (bounds, relative gap, step
    /// timings, warm-start verdicts, audit) are left to the caller. The
    /// exhaustive destructuring makes a new field fail to compile here
    /// until it is given a merge rule.
    pub fn merge_counters(&mut self, other: &SolveStats) {
        let SolveStats {
            nodes,
            simplex_iterations,
            phase1_iterations,
            dual_iterations,
            used_dual_simplex,
            root_phase1_iterations,
            root_used_dual_simplex,
            lp_refactorizations,
            basis_updates,
            refactors_interval,
            refactors_growth,
            refactors_accuracy,
            pricing_candidate_hits,
            pricing_full_rebuilds,
            solve_seconds,
            best_bound: _,
            absolute_gap,
            gap: _,
            hit_limit,
            setup_seconds: _,
            root_lp_seconds: _,
            mip_seconds: _,
            warm_basis_accepted: _,
            incumbent_seeded: _,
            nodes_pruned_by_seed,
            audit: _,
        } = other;
        self.nodes += nodes;
        self.simplex_iterations += simplex_iterations;
        self.phase1_iterations += phase1_iterations;
        self.dual_iterations += dual_iterations;
        self.used_dual_simplex |= used_dual_simplex;
        self.root_phase1_iterations += root_phase1_iterations;
        self.root_used_dual_simplex |= root_used_dual_simplex;
        self.lp_refactorizations += lp_refactorizations;
        self.basis_updates += basis_updates;
        self.refactors_interval += refactors_interval;
        self.refactors_growth += refactors_growth;
        self.refactors_accuracy += refactors_accuracy;
        self.pricing_candidate_hits += pricing_candidate_hits;
        self.pricing_full_rebuilds += pricing_full_rebuilds;
        self.solve_seconds = solve_seconds.max(self.solve_seconds);
        self.absolute_gap += absolute_gap;
        self.hit_limit |= hit_limit;
        self.nodes_pruned_by_seed += nodes_pruned_by_seed;
    }
}

/// Configuration for a MIP solve.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolveConfig {
    /// Wall-clock limit in seconds (the paper's phase-1 timeout).
    pub time_limit_seconds: f64,
    /// Node limit for branch and bound.
    pub max_nodes: usize,
    /// Stop when the relative gap falls below this value.
    pub rel_gap_tol: f64,
    /// Stop when the absolute gap falls below this value.
    pub abs_gap_tol: f64,
    /// Stop once an incumbent exists and the best bound has not improved
    /// for this many consecutive nodes (0 disables). Mirrors how
    /// production deployments cut losses on symmetric plateaus instead of
    /// burning the whole timeout (the residual gap is still reported).
    pub stall_node_limit: usize,
    /// Enable the rounding/diving incumbent heuristic at the root.
    pub use_heuristics: bool,
    /// Candidate starting solutions (full variable assignments), in
    /// priority order. Branch-and-bound validates each, installs the
    /// cheapest valid one (the first wins ties) and then only returns
    /// something else if it is strictly better — which is what makes
    /// steady-state re-solves quiescent (paper Expression 1's purpose).
    pub incumbents: Vec<Vec<f64>>,
    /// Starting basis for the root LP relaxation, typically the previous
    /// round's [`Solution::root_basis`]. The simplex starts from it
    /// (repairing dual infeasibility) instead of a slack crash, and falls
    /// back to the cold path when it is stale or singular.
    pub warm_basis: Option<crate::simplex::Basis>,
    /// When to run the model auditor and solution certificate checkers
    /// (see [`crate::audit`]). Defaults to [`crate::audit::AuditMode::Auto`]:
    /// every solve is audited in debug builds, none in release unless a
    /// caller opts in with [`crate::audit::AuditMode::On`].
    pub audit: crate::audit::AuditMode,
}

impl Default for SolveConfig {
    fn default() -> Self {
        Self {
            time_limit_seconds: 60.0,
            max_nodes: 100_000,
            rel_gap_tol: tol::PRIMAL_FEAS,
            abs_gap_tol: tol::PRIMAL_FEAS,
            stall_node_limit: 0,
            use_heuristics: true,
            incumbents: Vec::new(),
            warm_basis: None,
            audit: crate::audit::AuditMode::default(),
        }
    }
}

impl SolveConfig {
    /// A config with a hard time limit, as RAS phase 1 uses (Section 4.1.2).
    pub fn with_time_limit(seconds: f64) -> Self {
        Self {
            time_limit_seconds: seconds,
            ..Self::default()
        }
    }
}

/// A MIP solution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Solution {
    /// Final status.
    pub status: Status,
    /// Objective value of the incumbent (meaningful for `Optimal`/`Feasible`).
    pub objective: f64,
    /// Values of the model's structural variables.
    pub values: Vec<f64>,
    /// Solve statistics.
    pub stats: SolveStats,
    /// Final basis of the root LP relaxation, when it solved to
    /// optimality. Persist it and hand it back through
    /// [`SolveConfig::warm_basis`] to warm-start the next round.
    pub root_basis: Option<crate::simplex::Basis>,
}

impl Solution {
    /// Value of one variable.
    pub fn value(&self, var: crate::expr::Var) -> f64 {
        self.values[var.index()]
    }

    /// Value of one variable rounded to the nearest integer (checked:
    /// a NaN value maps to 0 instead of saturating silently).
    pub fn int_value(&self, var: crate::expr::Var) -> i64 {
        crate::cast::rounded_i64(self.values[var.index()])
    }

    /// True when the solve produced a usable assignment.
    pub fn is_usable(&self) -> bool {
        matches!(self.status, Status::Optimal | Status::Feasible)
    }
}

/// Errors from a MIP solve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The model has no feasible assignment.
    Infeasible,
    /// The objective is unbounded below.
    Unbounded,
    /// Limits hit before any feasible point was found.
    NoIncumbent,
    /// The model exceeds the solver's size cap: more variables than a
    /// `u32` index can address (see [`crate::Model::solve_with`]). This is
    /// a configuration problem, not a statement about feasibility.
    TooLarge,
    /// The static model auditor found reject-level defects (NaN
    /// coefficients, crossed bounds, dangling variable references, …) and
    /// refused the solve. Carries every finding, reject- and flag-level,
    /// so the caller can report them all at once (see [`crate::audit`]).
    InvalidModel(Vec<crate::audit::AuditIssue>),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "model is infeasible"),
            SolveError::Unbounded => write!(f, "objective is unbounded"),
            SolveError::NoIncumbent => {
                write!(f, "limits reached before a feasible solution was found")
            }
            SolveError::TooLarge => {
                write!(f, "model exceeds the configured solver size cap")
            }
            SolveError::InvalidModel(issues) => {
                let rejects = issues
                    .iter()
                    .filter(|i| i.severity == crate::audit::Severity::Reject)
                    .count();
                write!(f, "model failed the static audit: {rejects} defect(s)")?;
                if let Some(first) = issues
                    .iter()
                    .find(|i| i.severity == crate::audit::Severity::Reject)
                {
                    write!(f, " (first: {first})")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let c = SolveConfig::default();
        assert!(c.time_limit_seconds > 0.0);
        assert!(c.incumbents.is_empty() && c.warm_basis.is_none());
    }

    #[test]
    fn error_messages() {
        assert_eq!(SolveError::Infeasible.to_string(), "model is infeasible");
    }

    #[test]
    fn merge_counters_sums_work_and_keeps_per_solve_fields() {
        // Full literals on purpose: a new field must be added here (and
        // given a merge rule) before this compiles.
        let mut totals = SolveStats {
            nodes: 1,
            simplex_iterations: 2,
            phase1_iterations: 3,
            dual_iterations: 4,
            used_dual_simplex: false,
            root_phase1_iterations: 5,
            root_used_dual_simplex: false,
            lp_refactorizations: 6,
            basis_updates: 7,
            refactors_interval: 8,
            refactors_growth: 9,
            refactors_accuracy: 10,
            pricing_candidate_hits: 11,
            pricing_full_rebuilds: 12,
            solve_seconds: 1.5,
            best_bound: 10.0,
            absolute_gap: 0.25,
            gap: 0.01,
            hit_limit: false,
            setup_seconds: 0.1,
            root_lp_seconds: 0.2,
            mip_seconds: 0.3,
            warm_basis_accepted: true,
            incumbent_seeded: true,
            nodes_pruned_by_seed: 13,
            audit: crate::audit::AuditReport::default(),
        };
        let other = SolveStats {
            nodes: 100,
            simplex_iterations: 200,
            phase1_iterations: 300,
            dual_iterations: 400,
            used_dual_simplex: true,
            root_phase1_iterations: 500,
            root_used_dual_simplex: true,
            lp_refactorizations: 600,
            basis_updates: 700,
            refactors_interval: 800,
            refactors_growth: 900,
            refactors_accuracy: 1000,
            pricing_candidate_hits: 1100,
            pricing_full_rebuilds: 1200,
            solve_seconds: 2.5,
            best_bound: 20.0,
            absolute_gap: 0.5,
            gap: 0.02,
            hit_limit: true,
            setup_seconds: 1.0,
            root_lp_seconds: 2.0,
            mip_seconds: 3.0,
            warm_basis_accepted: false,
            incumbent_seeded: false,
            nodes_pruned_by_seed: 1300,
            audit: crate::audit::AuditReport {
                certified: true,
                ..Default::default()
            },
        };
        totals.merge_counters(&other);
        let expected = SolveStats {
            nodes: 101,
            simplex_iterations: 202,
            phase1_iterations: 303,
            dual_iterations: 404,
            used_dual_simplex: true,
            root_phase1_iterations: 505,
            root_used_dual_simplex: true,
            lp_refactorizations: 606,
            basis_updates: 707,
            refactors_interval: 808,
            refactors_growth: 909,
            refactors_accuracy: 1010,
            pricing_candidate_hits: 1111,
            pricing_full_rebuilds: 1212,
            solve_seconds: 2.5,
            best_bound: 10.0,
            absolute_gap: 0.75,
            gap: 0.01,
            hit_limit: true,
            setup_seconds: 0.1,
            root_lp_seconds: 0.2,
            mip_seconds: 0.3,
            warm_basis_accepted: true,
            incumbent_seeded: true,
            nodes_pruned_by_seed: 1313,
            audit: crate::audit::AuditReport::default(),
        };
        assert_eq!(totals, expected);
    }

    #[test]
    fn usable_statuses() {
        let mk = |status| Solution {
            status,
            objective: 0.0,
            values: vec![],
            stats: SolveStats::default(),
            root_basis: None,
        };
        assert!(mk(Status::Optimal).is_usable());
        assert!(mk(Status::Feasible).is_usable());
        assert!(!mk(Status::Infeasible).is_usable());
    }
}
