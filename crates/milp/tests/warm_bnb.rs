//! Warm-start integrity at the branch-and-bound level: enabling warm
//! incumbents, heuristics, or presolve must never change the optimum —
//! only the work needed to find it.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ras_milp::{LinExpr, Model, Sense, SolveConfig, VarType};

/// A random small integer program (feasibility not guaranteed).
fn random_mip(rng: &mut StdRng) -> Model {
    let nv = rng.gen_range(2..6);
    let nc = rng.gen_range(1..6);
    let mut m = Model::new();
    let vars: Vec<_> = (0..nv)
        .map(|i| {
            m.add_var(
                format!("x{i}"),
                VarType::Integer,
                0.0,
                rng.gen_range(1..6) as f64,
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
        m.add_constraint(format!("c{ci}"), expr, sense, rng.gen_range(-4..10) as f64);
    }
    m.set_objective(LinExpr::sum(
        vars.iter().map(|v| (*v, rng.gen_range(-5..6) as f64)),
    ));
    m
}

#[test]
fn heuristics_and_incumbents_never_change_the_optimum() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    let mut optima_checked = 0;
    for case in 0..150 {
        let model = random_mip(&mut rng);
        let plain = model.solve_with(&SolveConfig {
            use_heuristics: false,
            ..SolveConfig::default()
        });
        let with_heuristics = model.solve();
        match (plain, with_heuristics) {
            (Ok(a), Ok(b)) => {
                assert!(
                    (a.objective - b.objective).abs() < 1e-6,
                    "case {case}: heuristics changed the optimum {} -> {}",
                    a.objective,
                    b.objective
                );
                // Feed the optimum back as a warm incumbent: still the same.
                let warm = model
                    .solve_with(&SolveConfig {
                        incumbents: vec![b.values.clone()],
                        ..SolveConfig::default()
                    })
                    .expect("warm solve");
                assert!(
                    (warm.objective - b.objective).abs() < 1e-6,
                    "case {case}: warm incumbent changed the optimum"
                );
                optima_checked += 1;
            }
            (Err(a), Err(b)) => {
                assert_eq!(
                    std::mem::discriminant(&a),
                    std::mem::discriminant(&b),
                    "case {case}: heuristics changed the error kind"
                );
            }
            (a, b) => panic!("case {case}: divergent outcomes {a:?} vs {b:?}"),
        }
    }
    assert!(
        optima_checked > 40,
        "too few feasible cases: {optima_checked}"
    );
}

#[test]
fn invalid_incumbents_are_ignored() {
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Integer, 0.0, 10.0);
    m.add_constraint("c", 2.0 * x, Sense::Le, 7.0);
    m.set_objective(-1.0 * x);
    // An incumbent that violates the constraint must be discarded.
    let s = m
        .solve_with(&SolveConfig {
            incumbents: vec![vec![10.0]],
            ..SolveConfig::default()
        })
        .unwrap();
    assert_eq!(s.int_value(x), 3);
    // An incumbent of the wrong arity must be discarded too.
    let s = m
        .solve_with(&SolveConfig {
            incumbents: vec![vec![1.0, 2.0, 3.0]],
            ..SolveConfig::default()
        })
        .unwrap();
    assert_eq!(s.int_value(x), 3);
}

#[test]
fn suboptimal_incumbent_is_improved_upon() {
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Integer, 0.0, 10.0);
    m.add_constraint("c", 1.0 * x, Sense::Le, 8.0);
    m.set_objective(-1.0 * x);
    // x = 2 is feasible but poor; the solver must still reach x = 8.
    let s = m
        .solve_with(&SolveConfig {
            incumbents: vec![vec![2.0]],
            ..SolveConfig::default()
        })
        .unwrap();
    assert_eq!(s.int_value(x), 8);
}

#[test]
fn cheapest_valid_candidate_is_installed() {
    // The root relaxation is fractional (x + z = 3.5) and the node
    // budget is zero, so the solve returns exactly the incumbent it
    // installed. `y` has no cost: it only tells tied candidates apart.
    let mut m = Model::new();
    let x = m.add_var("x", VarType::Integer, 0.0, 10.0);
    let z = m.add_var("z", VarType::Integer, 0.0, 10.0);
    let y = m.add_var("y", VarType::Integer, 0.0, 1.0);
    m.add_constraint("c", 2.0 * x + 2.0 * z, Sense::Le, 7.0);
    m.set_objective(-1.0 * x - 1.0 * z);
    let installed = |incumbents: Vec<Vec<f64>>| {
        let s = m
            .solve_with(&SolveConfig {
                incumbents,
                max_nodes: 0,
                use_heuristics: false,
                ..SolveConfig::default()
            })
            .unwrap();
        assert!(s.stats.incumbent_seeded);
        (s.int_value(x), s.int_value(y))
    };
    // Of two valid candidates, the cheaper second one is installed.
    assert_eq!(
        installed(vec![vec![1.0, 0.0, 0.0], vec![2.0, 0.0, 0.0]]),
        (2, 0)
    );
    // An invalid cheaper candidate does not displace a valid one.
    assert_eq!(
        installed(vec![vec![2.0, 0.0, 0.0], vec![5.0, 0.0, 0.0]]),
        (2, 0)
    );
    // On a tie the first candidate wins.
    assert_eq!(
        installed(vec![vec![2.0, 0.0, 1.0], vec![2.0, 0.0, 0.0]]),
        (2, 1)
    );
}
