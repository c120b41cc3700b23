//! Region-scale LP acceptance test: the sparse LU engine must solve a
//! 100 000-row LP, with at least one mid-solve refactorization.

mod common;

use common::large_instance;
use ras_milp::simplex::{solve_lp, LpStatus, SimplexConfig};

#[test]
fn sparse_engine_solves_region_scale_lp() {
    let n = 100_000;
    let k = 250; // > default refactor_interval of 200
    let sf = large_instance(n, k);
    assert_eq!(sf.num_rows, n);

    let cfg = SimplexConfig::default();
    let r = solve_lp(&sf, &sf.lower.clone(), &sf.upper.clone(), &cfg);
    assert_eq!(r.status, LpStatus::Optimal);
    assert!(
        (r.objective - k as f64).abs() < 1e-6,
        "objective {} != {k}",
        r.objective
    );
    // The K forced variables sit at 1, everything else at 0.
    for i in 0..k {
        assert!((r.values[i] - 1.0).abs() < 1e-6, "x{i} = {}", r.values[i]);
    }
    for i in k..k + 10 {
        assert!(r.values[i].abs() < 1e-6, "x{i} = {}", r.values[i]);
    }
    assert!(r.iterations >= k, "needs one pivot per forced variable");
    assert!(
        r.refactorizations >= 1,
        "K > refactor_interval must trigger a mid-solve refactorization"
    );
    assert_eq!(r.duals.len(), n);
}
