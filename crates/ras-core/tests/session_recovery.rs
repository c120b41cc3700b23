//! Failed-round recovery and sharded-vs-monolithic differential tests.
//!
//! Recovery contract: a continuous round that fails mid-solve, in any
//! shard, must leave the [`AsyncSolver`] *usable* — every shard's warm
//! state and the round numbering dropped, the error telling the caller
//! the next round runs cold — and that next round must solve and certify
//! exactly like a fresh solver's round 0.
//!
//! Differential contract: a POP-style sharded solve of the same input
//! must land within [`ras_core::sharded_tolerance`] of the monolithic
//! objective, with both plans valued by the one regional evaluator; a
//! sharded request that falls back to one shard *is* the monolithic solve.

use ras_broker::{ResourceBroker, SimTime};
use ras_core::reservation::ReservationSpec;
use ras_core::rru::RruTable;
use ras_core::{
    evaluate_targets, sharded_tolerance, AsyncSolver, AuditMode, CoreError, SolverParams,
};
use ras_topology::{Region, RegionBuilder, RegionTemplate};

fn region() -> Region {
    RegionBuilder::new(RegionTemplate::tiny(), 42).build()
}

fn portfolio(region: &Region) -> Vec<ReservationSpec> {
    let rru = RruTable::uniform(&region.catalog, 1.0);
    vec![
        ReservationSpec::guaranteed("web", 80.0, rru.clone()),
        ReservationSpec::guaranteed("feed", 40.0, rru),
    ]
}

fn audited_params() -> SolverParams {
    SolverParams {
        audit: AuditMode::On,
        ..SolverParams::default()
    }
}

/// A spec the static model audit must reject (non-finite capacity RHS).
fn poisoned(mut specs: Vec<ReservationSpec>) -> Vec<ReservationSpec> {
    specs[0].capacity = f64::INFINITY;
    specs
}

/// Runs a clean round 0, a poisoned round 1, a recovery round and one
/// more round on one solver planned for `shards` shards, checking the
/// recovery contract on each round's warm report.
fn warm_failure_invalidates_then_recovers_cold(shards: usize) {
    let region = region();
    let specs = portfolio(&region);
    let mut broker = ResourceBroker::new(region.server_count());
    broker.register_reservation("web");
    broker.register_reservation("feed");
    let snap = broker.snapshot(SimTime::ZERO);

    let params = SolverParams {
        shards,
        ..audited_params()
    };
    let shard_count =
        |out: &ras_core::SolveOutput| out.sharded.as_ref().map_or(1, |r| r.shards.len());
    let mut solver = AsyncSolver::new(params);
    let out0 = solver
        .solve(&region, &specs, &snap)
        .expect("round 0 solves");
    assert_eq!(out0.warm.round, 0);
    assert_eq!(shard_count(&out0), shards);

    // Round 1 fails mid-solve: the audited model rejects the poisoned
    // spec. The solver must report the invalidation explicitly — round 0
    // left warm state behind — even when only one shard failed.
    let err = solver
        .solve(&region, &poisoned(specs.clone()), &snap)
        .expect_err("poisoned round must fail");
    match &err {
        CoreError::SessionInvalidated { round, cause } => {
            assert_eq!(*round, 1, "shards={shards}: the failing round is round 1");
            assert!(
                matches!(**cause, CoreError::Solver(_)),
                "shards={shards}: cause must surface the solver failure, got {cause:?}"
            );
        }
        other => panic!("shards={shards}: expected SessionInvalidated, got {other:?}"),
    }

    // The solver remains usable: the next round runs cold — round number
    // 0 (numbering restarted), no model reuse, no basis and no seed (every
    // shard's warm state dropped) — and every shard still certifies clean
    // under the auditor.
    let out = solver
        .solve(&region, &specs, &snap)
        .expect("recovery round solves");
    assert_eq!(
        out.warm.round, 0,
        "shards={shards}: recovery round is a fresh round 0"
    );
    assert!(
        !out.warm.model_reused && !out.warm.warm_basis_supplied && !out.warm.seed_supplied,
        "shards={shards}: recovery round must run cold: {:?}",
        out.warm
    );
    assert_eq!(shard_count(&out), shards);
    for phase in out.audit_phases() {
        assert!(
            phase.mip_stats.audit.certified_clean(),
            "shards={shards}: every phase must certify clean after recovery"
        );
    }

    // And the recovery round re-arms the warm machinery.
    let next = solver
        .solve(&region, &specs, &snap)
        .expect("round after recovery solves");
    assert_eq!(next.warm.round, 1);
    assert!(
        next.warm.seed_supplied,
        "shards={shards}: the round after recovery must be seeded"
    );
}

#[test]
fn failed_warm_round_invalidates_session_then_recovers_cold() {
    warm_failure_invalidates_then_recovers_cold(1);
}

#[test]
fn failed_sharded_round_invalidates_all_shards_then_recovers() {
    warm_failure_invalidates_then_recovers_cold(3);
}

#[test]
fn failed_cold_round_returns_the_raw_error() {
    let region = region();
    let mut broker = ResourceBroker::new(region.server_count());
    broker.register_reservation("web");
    broker.register_reservation("feed");
    let snap = broker.snapshot(SimTime::ZERO);

    // A fresh solver has no warm state to lose: the error passes through
    // unwrapped.
    for shards in [1usize, 3] {
        let params = SolverParams {
            shards,
            ..audited_params()
        };
        let err = AsyncSolver::new(params)
            .solve(&region, &poisoned(portfolio(&region)), &snap)
            .expect_err("poisoned cold round must fail");
        assert!(
            !matches!(err, CoreError::SessionInvalidated { .. }),
            "shards={shards}: cold failure must not claim an invalidated session: {err:?}"
        );
    }
}

/// A sharded request no partition of two or more shards can carry falls
/// back to one shard, and a one-shard plan is the monolithic round: same
/// targets, same MIP objective, the same phase 2, every phase certified.
#[test]
fn sharded_request_falling_back_to_one_shard_is_the_monolithic_round() {
    let region = region();
    let rru = RruTable::uniform(&region.catalog, 1.0);
    let specs = vec![
        ReservationSpec::guaranteed("web", 150.0, rru.clone()),
        ReservationSpec::guaranteed("feed", 100.0, rru),
    ];
    let mut broker = ResourceBroker::new(region.server_count());
    broker.register_reservation("web");
    broker.register_reservation("feed");
    let snap = broker.snapshot(SimTime::ZERO);
    let solve = |shards: usize| {
        let params = SolverParams {
            shards,
            ..audited_params()
        };
        AsyncSolver::new(params)
            .solve(&region, &specs, &snap)
            .expect("solve")
    };

    let mono = solve(1);
    let fallback = solve(2);
    for (name, out) in [("monolithic", &mono), ("fallback", &fallback)] {
        assert!(out.sharded.is_none(), "{name}: one shard is not sharded");
        for phase in out.audit_phases() {
            assert!(
                phase.mip_stats.audit.certified_clean(),
                "{name}: phase not certified clean"
            );
        }
    }
    assert_eq!(fallback.phase2.is_some(), mono.phase2.is_some());
    assert_eq!(fallback.targets, mono.targets);
    assert_eq!(
        fallback.phase1.objective.to_bits(),
        mono.phase1.objective.to_bits(),
        "fallback {} vs monolithic {}",
        fallback.phase1.objective,
        mono.phase1.objective
    );
}

#[test]
fn sharded_solve_matches_monolithic_within_documented_tolerance() {
    let region = region();
    let specs = portfolio(&region);
    let mut broker = ResourceBroker::new(region.server_count());
    broker.register_reservation("web");
    broker.register_reservation("feed");
    let snap = broker.snapshot(SimTime::ZERO);
    let params = SolverParams::default();

    let mono = AsyncSolver::new(params.clone())
        .solve(&region, &specs, &snap)
        .expect("monolithic solve");
    let mono_score = evaluate_targets(&region, &specs, &snap, &params, &mono.targets);
    assert!(mono_score.capacity_feasible(1e-6));

    for k in [2usize, 3] {
        let sharded_params = SolverParams {
            shards: k,
            ..params.clone()
        };
        let sharded = AsyncSolver::new(sharded_params)
            .solve(&region, &specs, &snap)
            .expect("sharded solve");
        assert_eq!(sharded.sharded.as_ref().map(|r| r.shards.len()), Some(k));
        let score = evaluate_targets(&region, &specs, &snap, &params, &sharded.targets);
        assert!(
            score.capacity_feasible(1e-6),
            "k={k}: merged plan infeasible: {:?}",
            score.capacity_shortfall
        );
        let tol = sharded_tolerance(k, &params, mono_score.objective);
        assert!(
            (score.objective - mono_score.objective).abs() <= tol,
            "k={k}: sharded {} vs monolithic {} exceeds tolerance {tol}",
            score.objective,
            mono_score.objective
        );
    }
}
