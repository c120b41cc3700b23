//! Warm-start state carried from one continuous round to the next.
//!
//! The paper's title claim is **continuously** optimized allocation: RAS
//! re-solves the region every ~30 minutes against a slightly-drifted
//! input. A cold solve pays for that drift with fleet-proportional work —
//! the model is rebuilt from scratch, the simplex starts from a slack
//! crash, and branch-and-bound starts with no incumbent even though the
//! previous round's assignment is almost always feasible and
//! near-optimal. The [`crate::AsyncSolver`] keeps one `RoundCache` per
//! shard of its plan, and phase 1 of each round draws three things from
//! it (`warm_model`), which makes the re-solve cost proportional to the
//! *drift* instead:
//!
//! 1. **The phase-1 model skeleton.** Class keys are stable under pure
//!    count drift, so when the new round's class decomposition has the
//!    same keys and the same specs, the cached [`RasModel`] is reused:
//!    unchanged outright when counts match, or patched in place
//!    (variable upper bounds, supply right-hand sides, the movement
//!    constant) when a few classes grew or shrank. Any structural change
//!    — classes appearing/vanishing, spec edits, parameter changes —
//!    triggers a full rebuild.
//! 2. **The root LP basis.** The previous round's optimal root basis is
//!    handed to the simplex through [`ras_milp::SolveConfig::warm_basis`].
//!    When the model was rebuilt, the basis is first repaired by name
//!    ([`ras_milp::Basis::remap`]) — variables and rows are matched by
//!    their key-stable labels, vanished columns fall back to slacks or
//!    artificials, and the warm solve's dual-repair loop absorbs the
//!    difference (or the simplex falls back to a cold start; the final
//!    objective is identical either way).
//! 3. **The previous targets as a seed incumbent.** The last round's
//!    per-server targets are re-aggregated over the *new* classes —
//!    which silently repairs assignments of servers that since left the
//!    fleet — valued through the model's auxiliary definitions, and
//!    offered to branch-and-bound as the last of its starting candidates
//!    so best-bound search prunes from iteration zero. If drift made the
//!    seed infeasible (e.g. capacity grew), the solver validates and
//!    rejects it and keeps the current/greedy candidates.
//!
//! Staleness and fallback rules: a failed round drops every cache (the
//! next round is cold); a softened round keeps the hard skeleton but its
//! basis is cached against the softened model's name space and remapped
//! on reuse; a basis never crosses a structural rebuild without a name
//! remap; every warm artifact is validated downstream, so warm and cold
//! solves of the same round agree on status and objective.
//!
//! Phase 2 always runs cold: its restricted universe and spec visibility
//! change every round, so there is no temporal structure to exploit.

use ras_broker::ReservationId;
use ras_milp::Basis;
use ras_topology::Region;
use serde::{Deserialize, Serialize};

use crate::classes::Reduction;
use crate::model::{build_model_labeled, current_counts, movement_constant, RasModel};
use crate::params::SolverParams;
use crate::reservation::ReservationSpec;
use ras_milp::tol;

/// What warm-start machinery did in one round (the observability
/// half of the continuous pipeline — `fig_continuous` prints these).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WarmReport {
    /// 0-based index of this round since the solver was created or its
    /// last failed round.
    pub round: usize,
    /// The cached phase-1 model skeleton was reused (possibly patched).
    pub model_reused: bool,
    /// The reused skeleton needed in-place count patches.
    pub model_patched: bool,
    /// Classes whose member count drifted (patched in place).
    pub classes_resized: usize,
    /// A warm basis was handed to the root LP.
    pub warm_basis_supplied: bool,
    /// The basis had to be remapped by name against a rebuilt model.
    pub basis_remapped: bool,
    /// The root LP actually started from the warm basis (no fallback).
    pub warm_basis_accepted: bool,
    /// The round's skeleton diff was bounds/RHS-only (a reused model,
    /// at most patched in place) — exactly the diffs that keep the
    /// persisted basis dual feasible, so the solver routes them to the
    /// dual simplex.
    pub bounds_only_patch: bool,
    /// The root LP re-solved via the dual simplex (no phase 1 at all).
    pub dual_resolve: bool,
    /// Primal phase-1 iterations of the root LP. Must be 0 whenever a
    /// bounds-only round's warm basis was accepted — `fig_continuous`
    /// gates on exactly this.
    pub root_phase1_iterations: usize,
    /// Dual-simplex iterations across all of the round's LP solves.
    pub dual_iterations: usize,
    /// Branch-and-bound installed a supplied incumbent before searching.
    pub incumbent_seeded: bool,
    /// A previous-round target seed was offered to the solver.
    pub seed_supplied: bool,
    /// Phase 2 was skipped because phase 1 reproduced the previous
    /// round's final targets exactly (the refinement is a fixed point).
    pub phase2_skipped: bool,
    /// The seed violated the new model (drift broke it) and was left for
    /// the solver to reject in favor of the repair candidates.
    pub seed_repaired: bool,
    /// Nodes pruned against the seeded incumbent before any better
    /// solution was found.
    pub nodes_pruned_by_seed: usize,
}

/// One shard's state carried to its next round.
#[derive(Debug, Clone)]
pub(crate) struct RoundCache {
    /// Parameters the skeleton was built with (any change → rebuild).
    pub(crate) params: SolverParams,
    /// Specs the skeleton was built with (any change → rebuild).
    pub(crate) specs: Vec<ReservationSpec>,
    /// Previous round's phase-1 reduction (its classes' keys + counts
    /// drive the diff; its labels are the basis name space).
    pub(crate) reduction: Reduction,
    /// The hard phase-1 model skeleton.
    pub(crate) ras: RasModel,
    /// Structural variable names of the model `basis` was recorded in.
    pub(crate) var_names: Vec<String>,
    /// Constraint row names of the model `basis` was recorded in.
    pub(crate) row_names: Vec<String>,
    /// Root LP basis of the previous round's final solve.
    pub(crate) basis: Option<Basis>,
    /// Final (post-phase-2) targets of the previous round.
    pub(crate) targets: Vec<Option<ReservationId>>,
}

/// The model a phase solves over `reduction`, and what the previous
/// round's `cache` adds to its solve: the root basis (remapped by name
/// when the model was rebuilt), the seed incumbent, and the previous
/// round's final targets. The cached skeleton is reused — patched in
/// place for count drift — when its params, specs and class keys match;
/// otherwise, and without a cache, the model is built. Records what it
/// reused in `report`.
#[allow(clippy::type_complexity)]
pub(crate) fn warm_model(
    cache: Option<RoundCache>,
    region: &Region,
    specs: &[ReservationSpec],
    params: &SolverParams,
    reduction: &Reduction,
    rack_goals: bool,
    report: &mut WarmReport,
) -> (
    RasModel,
    Option<Basis>,
    Option<Vec<f64>>,
    Option<Vec<Option<ReservationId>>>,
) {
    let skeleton_reusable = cache.as_ref().is_some_and(|c| {
        c.params == *params
            && c.specs.as_slice() == specs
            && c.reduction.classes.len() == reduction.classes.len()
            && c.reduction
                .classes
                .iter()
                .zip(&reduction.classes)
                .all(|(a, b)| a.key() == b.key())
    });

    let (ras, prev) = match cache {
        Some(mut c) if skeleton_reusable => {
            report.model_reused = true;
            // A reused skeleton can only have drifted in bounds, RHS
            // and the objective constant — the diff class whose warm
            // basis stays dual feasible.
            report.bounds_only_patch = true;
            let drifted: Vec<usize> = reduction
                .classes
                .iter()
                .enumerate()
                .filter(|(ci, cl)| cl.count() != c.reduction.classes[*ci].count())
                .map(|(ci, _)| ci)
                .collect();
            if !drifted.is_empty() {
                // Pure count drift: patch columns and rows in place.
                report.model_patched = true;
                report.classes_resized = drifted.len();
                for &ci in &drifted {
                    let count = reduction.classes[ci].count() as f64;
                    for var in c.ras.vars[ci].iter().flatten() {
                        c.ras.model.set_bounds(*var, 0.0, count);
                    }
                    if let Some(row) = c.ras.supply_rows[ci] {
                        c.ras.model.set_rhs(row, count);
                    }
                }
                c.ras.objective_constant = movement_constant(&reduction.classes, params);
                c.ras.initial = c
                    .ras
                    .incumbent_from_counts(&current_counts(&reduction.classes, specs.len()));
            }
            (c.ras, Some((c.basis, c.var_names, c.row_names, c.targets)))
        }
        other => {
            // Structural change, first round, or no cache: full build.
            // A previous basis and targets still warm-start the solve.
            let ras = build_model_labeled(
                region,
                specs,
                &reduction.classes,
                &reduction.labels,
                params,
                rack_goals,
                None,
            );
            let prev = other.map(|c| (c.basis, c.var_names, c.row_names, c.targets));
            (ras, prev)
        }
    };
    let Some((basis, var_names, row_names, targets)) = prev else {
        return (ras, None, None, None);
    };

    let basis = basis.map(|basis| {
        let new_var_names: Vec<String> = ras.model.vars().iter().map(|v| v.name.clone()).collect();
        let new_row_names: Vec<String> = ras
            .model
            .constraints()
            .iter()
            .map(|k| k.name.clone())
            .collect();
        if var_names == new_var_names && row_names == new_row_names {
            basis
        } else {
            report.basis_remapped = true;
            basis.remap(&var_names, &row_names, &new_var_names, &new_row_names)
        }
    });
    report.warm_basis_supplied = basis.is_some();
    // Previous targets, re-aggregated over the new classes (this clamps
    // away servers that left the fleet), become the seed incumbent.
    let mut counts = vec![vec![0usize; specs.len()]; reduction.classes.len()];
    for (ci, class) in reduction.classes.iter().enumerate() {
        for &s in &class.servers {
            if let Some(r) = targets.get(s.index()).copied().flatten() {
                if let Some(slot) = counts[ci].get_mut(r.index()) {
                    *slot += 1;
                }
            }
        }
    }
    let seed = ras.incumbent_from_counts(&counts);
    report.seed_supplied = true;
    report.seed_repaired = !ras.model.violations(&seed, tol::PRIMAL_FEAS).is_empty();
    (ras, basis, Some(seed), Some(targets))
}

#[cfg(test)]
mod tests {
    use crate::reservation::ReservationSpec;
    use crate::rru::RruTable;
    use crate::AsyncSolver;
    use crate::SolverParams;
    use ras_broker::{ResourceBroker, SimTime, UnavailabilityEvent, UnavailabilityKind};
    use ras_topology::{Region, RegionBuilder, RegionTemplate, ScopeId, ServerId};

    fn setup() -> (Region, ResourceBroker) {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let broker = ResourceBroker::new(region.server_count());
        (region, broker)
    }

    fn uniform_spec(region: &Region, name: &str, capacity: f64) -> ReservationSpec {
        ReservationSpec::guaranteed(name, capacity, RruTable::uniform(&region.catalog, 1.0))
    }

    fn materialize(broker: &mut ResourceBroker) {
        for s in broker.pending_moves() {
            let target = broker.record(s).unwrap().target;
            broker.bind_current(s, target).unwrap();
        }
    }

    #[test]
    fn steady_state_reuses_model_and_plans_no_moves() {
        let (region, mut broker) = setup();
        let specs = vec![uniform_spec(&region, "web", 40.0)];
        broker.register_reservation("web");
        let params = SolverParams::default();
        let mut solver = AsyncSolver::new(params.clone());

        let snap = broker.snapshot(SimTime::ZERO);
        let o1 = solver.solve(&region, &specs, &snap).unwrap();
        assert!(!o1.warm.model_reused, "round 0 must be cold");
        assert!(!o1.warm.warm_basis_supplied);
        for (i, t) in o1.targets.iter().enumerate() {
            broker.set_target(ServerId::from_index(i), *t).unwrap();
        }
        materialize(&mut broker);

        // Round 1 sees the applied bindings for the first time: the class
        // keys embed current/target, so this round rebuilds (with a
        // remapped basis) and settles into the steady-state key set.
        let snap2 = broker.snapshot(SimTime::from_hours(1));
        let o2 = solver.solve(&region, &specs, &snap2).unwrap();
        assert!(o2.warm.warm_basis_supplied);
        assert!(o2.warm.incumbent_seeded);
        assert_eq!(
            o2.targets, o1.targets,
            "steady-state round must keep the assignment"
        );

        // Round 2 on an unchanged snapshot: full skeleton reuse.
        let snap3 = broker.snapshot(SimTime::from_hours(2));
        let o3 = solver.solve(&region, &specs, &snap3).unwrap();
        assert!(o3.warm.model_reused, "steady state must reuse the skeleton");
        assert!(!o3.warm.model_patched, "no drift, no patches");
        assert!(o3.warm.warm_basis_supplied);
        assert!(!o3.warm.basis_remapped, "identical name space, no remap");
        assert!(o3.warm.incumbent_seeded);
        assert_eq!(o3.targets, o1.targets);
    }

    #[test]
    fn count_drift_patches_instead_of_rebuilding() {
        let (region, mut broker) = setup();
        let specs = vec![uniform_spec(&region, "web", 40.0)];
        broker.register_reservation("web");
        let params = SolverParams::default();
        let mut solver = AsyncSolver::new(params.clone());

        let snap = broker.snapshot(SimTime::ZERO);
        let o1 = solver.solve(&region, &specs, &snap).unwrap();
        for (i, t) in o1.targets.iter().enumerate() {
            broker.set_target(ServerId::from_index(i), *t).unwrap();
        }
        materialize(&mut broker);
        // Stabilization round: the key set now embeds the applied bindings.
        let snap1 = broker.snapshot(SimTime::from_hours(1));
        solver.solve(&region, &specs, &snap1).unwrap();

        // Take down one free-pool server: its class only shrinks, so the
        // skeleton survives with a count patch.
        let victim = o1
            .targets
            .iter()
            .position(|t| t.is_none())
            .map(ServerId::from_index)
            .expect("free server");
        broker
            .mark_down(UnavailabilityEvent {
                server: victim,
                kind: UnavailabilityKind::UnplannedHardware,
                scope: ScopeId::Server(victim),
                start: SimTime::from_hours(1),
                expected_end: None,
            })
            .unwrap();
        let snap2 = broker.snapshot(SimTime::from_hours(1));
        let o2 = solver.solve(&region, &specs, &snap2).unwrap();
        assert!(o2.warm.model_reused);
        assert!(o2.warm.model_patched);
        assert!(o2.warm.classes_resized >= 1);
    }

    #[test]
    fn warm_and_cold_rounds_agree() {
        let (region, mut broker) = setup();
        let specs = vec![
            uniform_spec(&region, "web", 35.0),
            uniform_spec(&region, "feed", 25.0),
        ];
        broker.register_reservation("web");
        broker.register_reservation("feed");
        let params = SolverParams::default();
        let mut solver = AsyncSolver::new(params.clone());

        let snap = broker.snapshot(SimTime::ZERO);
        let o1 = solver.solve(&region, &specs, &snap).unwrap();
        for (i, t) in o1.targets.iter().enumerate() {
            broker.set_target(ServerId::from_index(i), *t).unwrap();
        }
        materialize(&mut broker);

        let snap2 = broker.snapshot(SimTime::from_hours(1));
        let warm_o = solver.solve(&region, &specs, &snap2).unwrap();
        let cold_o = AsyncSolver::new(params.clone())
            .solve(&region, &specs, &snap2)
            .unwrap();

        assert!(warm_o.warm.warm_basis_supplied);
        assert_eq!(warm_o.phase1.status, cold_o.phase1.status);
        assert!(
            (warm_o.phase1.objective - cold_o.phase1.objective).abs() <= params.mip_abs_gap + 1e-6,
            "warm {} vs cold {}",
            warm_o.phase1.objective,
            cold_o.phase1.objective
        );
    }

    #[test]
    fn spec_change_triggers_rebuild_with_remap() {
        let (region, mut broker) = setup();
        let mut specs = vec![uniform_spec(&region, "web", 30.0)];
        broker.register_reservation("web");
        let params = SolverParams::default();
        let mut solver = AsyncSolver::new(params.clone());

        let snap = broker.snapshot(SimTime::ZERO);
        let o1 = solver.solve(&region, &specs, &snap).unwrap();
        for (i, t) in o1.targets.iter().enumerate() {
            broker.set_target(ServerId::from_index(i), *t).unwrap();
        }
        materialize(&mut broker);

        // Growing the reservation is a structural spec change.
        specs[0].capacity = 35.0;
        let snap2 = broker.snapshot(SimTime::from_hours(1));
        let o2 = solver.solve(&region, &specs, &snap2).unwrap();
        assert!(!o2.warm.model_reused, "spec change must rebuild");
        assert!(o2.warm.warm_basis_supplied, "basis still carried over");
        assert!(o2.warm.seed_supplied);
    }
}
