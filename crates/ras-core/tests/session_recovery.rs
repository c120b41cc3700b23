//! Failed-round recovery and sharded-vs-monolithic differential tests.
//!
//! Recovery contract: a continuous round that fails mid-solve, in any
//! shard, must leave the session *usable* — every shard's warm state and
//! the round numbering dropped, the error telling the caller the next
//! round runs cold — and that next round must solve and certify exactly
//! like a fresh session's round 0.
//!
//! Differential contract: a POP-style sharded solve of the same input
//! must land within [`ras_core::sharded_tolerance`] of the monolithic
//! objective, with both plans valued by the one regional evaluator; a
//! sharded request that falls back to one shard *is* the monolithic solve.

use ras_broker::{ResourceBroker, SimTime};
use ras_core::reservation::ReservationSpec;
use ras_core::rru::RruTable;
use ras_core::{
    evaluate_targets, sharded_tolerance, AsyncSolver, AuditMode, CoreError, SolveSession,
    SolverParams,
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

/// Runs a clean round 0, a poisoned round 1 and a recovery round on one
/// session planned for `shards` shards, checking the recovery contract.
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
    let mut session = SolveSession::new();
    let (_, report0) = session
        .solve_round(&region, &specs, &snap, &params)
        .expect("round 0 solves");
    assert_eq!(report0.warm.round, 0);
    assert_eq!(report0.shards.len(), shards);
    assert!(
        session.is_warm(),
        "shards={shards}: round 0 must leave warm state behind"
    );

    // Round 1 fails mid-solve: the audited model rejects the poisoned
    // spec. The session must report the invalidation explicitly, even
    // when only one shard failed.
    let err = session
        .solve_round(&region, &poisoned(specs.clone()), &snap, &params)
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
    assert!(
        !session.is_warm(),
        "shards={shards}: every shard's warm state must be dropped"
    );
    assert_eq!(
        session.rounds(),
        0,
        "shards={shards}: round numbering must restart"
    );

    // The session remains usable: the next round runs cold — round
    // number 0, no model reuse — and every shard still certifies clean
    // under the auditor.
    let (_, report) = session
        .solve_round(&region, &specs, &snap, &params)
        .expect("recovery round solves");
    assert_eq!(report.warm.round, 0, "recovery round is a fresh round 0");
    assert!(
        !report.warm.model_reused && !report.warm.warm_basis_supplied && !report.warm.seed_supplied
    );
    assert_eq!(report.shards.len(), shards);
    for shard in &report.shards {
        assert!(
            shard.phase1.mip_stats.audit.certified_clean(),
            "shards={shards}: shard {} must certify clean after recovery",
            shard.shard
        );
    }
    assert!(session.is_warm(), "and it re-arms the warm machinery");
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

    // A fresh session has no warm state to lose: the error passes through
    // unwrapped, exactly like the one-shot `solve_two_phase` path.
    for shards in [1usize, 3] {
        let params = SolverParams {
            shards,
            ..audited_params()
        };
        let err = SolveSession::new()
            .solve_round(&region, &poisoned(portfolio(&region)), &snap, &params)
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

    let (mono, _) = SolveSession::new()
        .solve_round(&region, &specs, &snap, &params)
        .expect("monolithic solve");
    let mono_score = evaluate_targets(&region, &specs, &snap, &params, &mono.targets);
    assert!(mono_score.capacity_feasible(1e-6));

    for k in [2usize, 3] {
        let sharded_params = SolverParams {
            shards: k,
            ..params.clone()
        };
        let (sharded, report) = SolveSession::new()
            .solve_round(&region, &specs, &snap, &sharded_params)
            .expect("sharded solve");
        assert_eq!(report.shards.len(), k);
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
