//! Reference LP solver for the differential suites: a dense,
//! bounded-variable tableau simplex with Bland's rule.
//!
//! It shares no code with `ras_milp::simplex` — only the standard-form
//! input and the status enum — so a defect in the production engine's
//! pricing, ratio test, phase logic or basis factors shows up as a
//! disagreement instead of being reproduced on both sides. It is meant
//! for the small random LPs those suites generate: every pivot updates
//! the full `m × (n + m)` tableau.

use ras_milp::simplex::LpStatus;
use ras_milp::standard::StandardForm;

/// Pivot magnitude and reduced-cost tolerance.
const EPS: f64 = 1e-9;

/// Pivot cap; Bland's rule terminates, so hitting it is a bug.
const MAX_PIVOTS: usize = 100_000;

/// Answer of the reference solver.
#[derive(Debug, Clone)]
pub struct Reference {
    /// `Optimal`, `Infeasible` or `Unbounded`.
    pub status: LpStatus,
    /// Objective including the standard form's constant (meaningful on
    /// `Optimal`).
    pub objective: f64,
}

/// Solves `min cᵀx  s.t.  Ax = b, lower <= x <= upper` for the standard
/// form `sf` under the given bounds.
pub fn solve(sf: &StandardForm, lower: &[f64], upper: &[f64]) -> Reference {
    let m = sf.num_rows;
    let n = sf.num_cols();
    let mut tab = Tableau {
        t: vec![vec![0.0; n + m]; m],
        lo: lower.iter().copied().chain(vec![0.0; m]).collect(),
        up: upper
            .iter()
            .copied()
            .chain(vec![f64::INFINITY; m])
            .collect(),
        x: vec![0.0; n + m],
        basis: (n..n + m).collect(),
    };
    for j in 0..n {
        for (i, v) in sf.matrix.column(j) {
            tab.t[i][j] += v;
        }
        tab.x[j] = if lower[j].is_finite() {
            lower[j]
        } else if upper[j].is_finite() {
            upper[j]
        } else {
            0.0
        };
    }
    // Artificial `n + i` closes row `i` from the starting point; rows are
    // negated where needed so every artificial enters at a value >= 0
    // with a +1 coefficient, making the starting tableau `[±A | I]`.
    for i in 0..m {
        let resid = sf.rhs[i] - (0..n).map(|j| tab.t[i][j] * tab.x[j]).sum::<f64>();
        if resid < 0.0 {
            tab.t[i][..n].iter_mut().for_each(|v| *v = -*v);
        }
        tab.t[i][n + i] = 1.0;
        tab.x[n + i] = resid.abs();
    }

    let phase1: Vec<f64> = (0..n + m).map(|j| if j < n { 0.0 } else { 1.0 }).collect();
    tab.optimize(&phase1);
    let infeasibility: f64 = tab.x[n..].iter().sum();
    let scale = 1.0 + sf.rhs.iter().map(|v| v.abs()).sum::<f64>();
    let mut status = LpStatus::Infeasible;
    if infeasibility <= 1e-7 * scale {
        // Pin the artificials at zero; one left basic stays there.
        for j in n..n + m {
            tab.up[j] = 0.0;
            tab.x[j] = 0.0;
        }
        let phase2: Vec<f64> = (0..n + m)
            .map(|j| if j < n { sf.costs[j] } else { 0.0 })
            .collect();
        status = if tab.optimize(&phase2) {
            LpStatus::Optimal
        } else {
            LpStatus::Unbounded
        };
    }
    let objective = sf.obj_constant + (0..n).map(|j| sf.costs[j] * tab.x[j]).sum::<f64>();
    Reference { status, objective }
}

/// Full tableau `B⁻¹[A | I]` with the current value of every column.
struct Tableau {
    t: Vec<Vec<f64>>,
    lo: Vec<f64>,
    up: Vec<f64>,
    x: Vec<f64>,
    basis: Vec<usize>,
}

impl Tableau {
    /// Minimizes `costᵀx` from the current basic feasible point with
    /// Bland's rule. Returns false when the objective is unbounded.
    fn optimize(&mut self, cost: &[f64]) -> bool {
        let (m, total) = (self.basis.len(), cost.len());
        for _ in 0..MAX_PIVOTS {
            let mut basic = vec![false; total];
            for &b in &self.basis {
                basic[b] = true;
            }
            // Bland: the lowest-index column whose reduced cost improves
            // the objective in a direction its bounds allow.
            let entering = (0..total).filter(|&j| !basic[j]).find_map(|j| {
                let d = cost[j]
                    - (0..m)
                        .map(|i| cost[self.basis[i]] * self.t[i][j])
                        .sum::<f64>();
                if d < -EPS && self.x[j] < self.up[j] {
                    Some((j, 1.0))
                } else if d > EPS && self.x[j] > self.lo[j] {
                    Some((j, -1.0))
                } else {
                    None
                }
            });
            let Some((q, dir)) = entering else {
                return true;
            };
            // Ratio test; ties go to the lowest-index basic column.
            let mut step = self.up[q] - self.lo[q];
            let mut leave: Option<(usize, f64)> = None;
            for i in 0..m {
                let rate = -dir * self.t[i][q];
                if rate.abs() <= EPS {
                    continue;
                }
                let b = self.basis[i];
                let (limit, bound) = if rate < 0.0 {
                    ((self.x[b] - self.lo[b]) / -rate, self.lo[b])
                } else {
                    ((self.up[b] - self.x[b]) / rate, self.up[b])
                };
                if !limit.is_finite() {
                    continue;
                }
                let limit = limit.max(0.0);
                let better = match leave {
                    None => limit < step,
                    Some((r, _)) => {
                        limit < step - 1e-12 || (limit <= step + 1e-12 && b < self.basis[r])
                    }
                };
                if better {
                    step = step.min(limit);
                    leave = Some((i, bound));
                }
            }
            if !step.is_finite() {
                return false;
            }
            for i in 0..m {
                let b = self.basis[i];
                self.x[b] -= dir * step * self.t[i][q];
            }
            self.x[q] += dir * step;
            let Some((r, bound)) = leave else {
                // The entering column reached its own opposite bound.
                self.x[q] = if dir > 0.0 { self.up[q] } else { self.lo[q] };
                continue;
            };
            self.x[self.basis[r]] = bound;
            let pivot = self.t[r][q];
            self.t[r].iter_mut().for_each(|v| *v /= pivot);
            let pivot_row = self.t[r].clone();
            for (i, row) in self.t.iter_mut().enumerate() {
                let f = row[q];
                if i != r && f != 0.0 {
                    row.iter_mut()
                        .zip(&pivot_row)
                        .for_each(|(v, p)| *v -= f * p);
                }
            }
            self.basis[r] = q;
        }
        panic!("reference simplex exceeded {MAX_PIVOTS} pivots");
    }
}
