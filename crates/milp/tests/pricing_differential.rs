//! Differential test of the pricing engine: on random bounded LPs the
//! production solve (devex over maintained reduced costs) must agree
//! with the reference tableau simplex, which prices by Bland's rule on
//! exact reduced costs, on status and objective, and its duals must be
//! dual feasible. Pricing only decides *which* improving column enters
//! at each pivot, so any disagreement is a bug in the maintained reduced
//! costs or the devex weight updates.
//!
//! Partial devex (chosen by size, above 4 096 columns) and the
//! degenerate-cycling property are checked under both rules by the
//! `simplex` unit tests, which can force the private rule choice.

mod common;

use common::{assert_dual_feasible, random_model, reference};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ras_milp::simplex::{solve_lp, LpStatus, SimplexConfig};
use ras_milp::standard::StandardForm;

#[test]
fn devex_agrees_with_reference_on_random_lps() {
    let mut rng = StdRng::seed_from_u64(0xDE7E_C7A8);
    // A small refactor interval also exercises the reduced-cost
    // invalidation on refactorization, not just the incremental path.
    let cfg = SimplexConfig {
        refactor_interval: 8,
        ..SimplexConfig::default()
    };
    let mut optimal_cases = 0;
    for case in 0..400 {
        let m = random_model(&mut rng);
        let sf = StandardForm::from_model(&m);
        let oracle = reference::solve(&sf, &sf.lower, &sf.upper);
        let r = solve_lp(&sf, &sf.lower, &sf.upper, &cfg);
        assert_eq!(
            r.status, oracle.status,
            "case {case}: devex {:?} vs reference {:?}",
            r.status, oracle.status
        );
        if r.status != LpStatus::Optimal {
            continue;
        }
        optimal_cases += 1;
        assert!(
            (r.objective - oracle.objective).abs() < 1e-6,
            "case {case}: devex obj {} vs reference obj {}",
            r.objective,
            oracle.objective
        );
        assert!(
            m.violations(&r.values[..m.num_vars()], 1e-5).is_empty(),
            "case {case}: solution violates the model"
        );
        assert_dual_feasible(
            &sf,
            &sf.lower,
            &sf.upper,
            &r.values,
            &r.duals,
            &format!("case {case}"),
        );
    }
    assert!(
        optimal_cases > 100,
        "too few optimal cases exercised: {optimal_cases}"
    );
}
