//! Differential test of the cold solve: on random bounded LPs the
//! production engine (Forrest–Tomlin sparse LU) must agree with the dense
//! reference tableau simplex on status and objective, its solution must
//! satisfy the model, and its duals must be dual feasible.

mod common;

use common::{assert_dual_feasible, random_model, reference};
use rand::rngs::StdRng;
use rand::SeedableRng;
use ras_milp::simplex::{solve_lp, LpStatus, SimplexConfig};
use ras_milp::standard::StandardForm;

#[test]
fn sparse_engine_agrees_with_dense_reference_on_random_lps() {
    let mut rng = StdRng::seed_from_u64(0x5EED_D1FF);
    // A small refactor interval exercises the LU factorization (not just
    // the diagonal crash basis + updates) on these small instances.
    let cfg = SimplexConfig {
        refactor_interval: 4,
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
            "case {case}: production {:?} vs reference {:?}",
            r.status, oracle.status
        );
        if r.status != LpStatus::Optimal {
            continue;
        }
        optimal_cases += 1;
        assert!(
            (r.objective - oracle.objective).abs() < 1e-6,
            "case {case}: production obj {} vs reference obj {}",
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
