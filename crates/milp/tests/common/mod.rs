//! Shared fixtures for the LP differential and timing suites: the random
//! LP generator, the dual-feasibility check, the region-scale instance,
//! and the [`reference`] oracle every suite compares production against.
//!
//! The `ras-milp` unit tests that must force a private engine choice
//! include this module too (as `crate::test_common`), so both sides use
//! one generator and one oracle.

// Each test binary uses a different subset of these helpers.
#![allow(dead_code)]

pub mod reference;

use rand::rngs::StdRng;
use rand::Rng;
use ras_milp::standard::StandardForm;
use ras_milp::{LinExpr, Model, Sense, VarType};

/// A small random LP: 2–7 boxed variables, 1–7 rows of mixed sense with
/// small integer coefficients. Roughly half come out optimal.
pub fn random_model(rng: &mut StdRng) -> Model {
    let nv: usize = rng.gen_range(2..8);
    let nc = rng.gen_range(1..8);
    let mut m = Model::new();
    let vars: Vec<_> = (0..nv)
        .map(|i| {
            m.add_var(
                format!("x{i}"),
                VarType::Continuous,
                0.0,
                rng.gen_range(1..9) as f64,
            )
        })
        .collect();
    for ci in 0..nc {
        let expr = LinExpr::sum(vars.iter().map(|v| (*v, rng.gen_range(-4..5) as f64)));
        let sense = match rng.gen_range(0..3) {
            0 => Sense::Le,
            1 => Sense::Ge,
            _ => Sense::Eq,
        };
        m.add_constraint(format!("c{ci}"), expr, sense, rng.gen_range(-5..12) as f64);
    }
    m.set_objective(LinExpr::sum(
        vars.iter().map(|v| (*v, rng.gen_range(-5..6) as f64)),
    ));
    m
}

/// `upper` with one to three structural upper bounds tightened: the
/// bounds-only patch a session round's count update (or a branch)
/// applies to the class columns.
pub fn tighten_upper(rng: &mut StdRng, upper: &[f64], n_structural: usize) -> Vec<f64> {
    let mut upper = upper.to_vec();
    for _ in 0..rng.gen_range(1..4) {
        let j = rng.gen_range(0..n_structural);
        if upper[j].is_finite() && upper[j] > 0.0 {
            upper[j] = (upper[j] - rng.gen_range(1..3) as f64).max(0.0);
        }
    }
    upper
}

/// Checks that `duals` is dual feasible for the solved LP: each column's
/// reduced cost has the sign its resting bound requires. Duals are not
/// compared for equality — degenerate optima admit many valid dual
/// vectors — but every optimal basis satisfies this.
pub fn assert_dual_feasible(
    sf: &StandardForm,
    lower: &[f64],
    upper: &[f64],
    values: &[f64],
    duals: &[f64],
    tag: &str,
) {
    assert_eq!(duals.len(), sf.num_rows, "{tag}: dual length");
    for (j, &vj) in values.iter().enumerate().take(sf.num_cols()) {
        if lower[j] == upper[j] {
            continue; // Fixed columns constrain nothing.
        }
        let d = sf.costs[j] - sf.matrix.column_dot(j, duals);
        let at_lo = (vj - lower[j]).abs() < 1e-6;
        let at_up = (upper[j] - vj).abs() < 1e-6;
        if at_lo && at_up {
            continue;
        }
        if at_lo {
            assert!(d > -1e-5, "{tag}: col {j} at lower with d = {d}");
        } else if at_up {
            assert!(d < 1e-5, "{tag}: col {j} at upper with d = {d}");
        } else {
            assert!(d.abs() < 1e-5, "{tag}: basic col {j} with d = {d}");
        }
    }
}

/// Region-scale LP: `n` single-variable rows, `x_i >= 1` for the first
/// `k` variables and `x_i >= 0` for the rest, all `x_i ∈ [0, 2]`,
/// minimize `Σ x_i`. The optimum is exactly `k`, reached after `k`
/// phase-1-free pivots (the crash basis covers every row whose slack
/// fits).
pub fn large_instance(n: usize, k: usize) -> StandardForm {
    let mut m = Model::new();
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_var(format!("x{i}"), VarType::Continuous, 0.0, 2.0))
        .collect();
    for (i, v) in vars.iter().enumerate() {
        let rhs = if i < k { 1.0 } else { 0.0 };
        m.add_constraint(format!("c{i}"), LinExpr::from(*v), Sense::Ge, rhs);
    }
    m.set_objective(LinExpr::sum(vars.iter().map(|v| (*v, 1.0))));
    StandardForm::from_model(&m)
}
