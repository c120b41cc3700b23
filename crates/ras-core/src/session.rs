//! The long-lived [`SolveSession`]: warm-started continuous re-solves,
//! monolithic or sharded.
//!
//! The paper's title claim is **continuously** optimized allocation: RAS
//! re-solves the region every ~30 minutes against a slightly-drifted
//! input. A cold solve pays for that drift with fleet-proportional work —
//! the model is rebuilt from scratch, the simplex starts from a slack
//! crash, and branch-and-bound starts with no incumbent even though the
//! previous round's assignment is almost always feasible and
//! near-optimal. The session makes the re-solve cost proportional to the
//! *drift* instead, by carrying three things across rounds:
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
//!    handed to the simplex through [`ras_milp::SolveConfig::warm_start`].
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
//!    offered to branch-and-bound as a starting best-known solution so
//!    best-bound search prunes from iteration zero. If drift made the
//!    seed infeasible (e.g. capacity grew), the solver validates and
//!    rejects it and falls back to the greedy/current candidates.
//!
//! Staleness and fallback rules: a failed round drops the cache (the
//! next round is cold); a softened round keeps the hard skeleton but its
//! basis is cached against the softened model's name space and remapped
//! on reuse; a basis never crosses a structural rebuild without a name
//! remap; every warm artifact is validated downstream, so warm and cold
//! solves of the same round agree on status and objective.
//!
//! Phase 2 always runs cold: its restricted universe and spec visibility
//! change every round, so there is no temporal structure to exploit.
//!
//! The session solves the region in the shard plan it derives from
//! `params.shards` ([`crate::shard`]), keeping one warm cache per shard,
//! and the size of that plan picks the path. A one-shard plan — one shard
//! requested, or a larger request no partition can support — is the
//! monolithic round: the round body on the whole region, its own phase
//! statistics returned as they are. A plan of two or more shards runs the
//! round body on every shard concurrently, each restricted to its server
//! universe and capacity slice, then merges and reconciles the plans.

use std::collections::HashSet;
use std::time::Instant;

use ras_broker::{BrokerSnapshot, ReservationId};
use ras_milp::{Basis, WarmStart};
use ras_topology::{Region, ServerId};
use serde::{Deserialize, Serialize};

use crate::assign::concretize;
use crate::classes::{build_reduction, Reduction};
use crate::error::CoreError;
use crate::model::{build_model_labeled, current_counts, movement_constant, RasModel};
use crate::params::SolverParams;
use crate::phases::{make_stats, refine_with_phase2, solve_prepared, TwoPhaseOutcome};
use crate::reservation::ReservationSpec;
use crate::shard::{
    merge_round, plan_for, PlanScore, ReconcileReport, ShardPlan, ShardReport, ShardedReport,
};
use ras_milp::tol;

/// What warm-start machinery did in one session round (the observability
/// half of the continuous pipeline — `fig_continuous` prints these).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct WarmReport {
    /// 0-based index of this round within the session.
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
    /// persisted basis dual feasible, so the session routes them to the
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

/// Per-round state carried to the next solve.
#[derive(Debug, Clone)]
struct RoundCache {
    /// Parameters the skeleton was built with (any change → rebuild).
    params: SolverParams,
    /// Specs the skeleton was built with (any change → rebuild).
    specs: Vec<ReservationSpec>,
    /// Previous round's phase-1 reduction (its classes' keys + counts
    /// drive the diff; its labels are the basis name space).
    reduction: Reduction,
    /// The hard phase-1 model skeleton.
    ras: RasModel,
    /// Structural variable names of the model `basis` was recorded in.
    var_names: Vec<String>,
    /// Constraint row names of the model `basis` was recorded in.
    row_names: Vec<String>,
    /// Root LP basis of the previous round's final solve.
    basis: Option<Basis>,
    /// Final (merged, post-phase-2) targets of the previous round.
    targets: Vec<Option<ReservationId>>,
}

/// A long-lived solve session owning warm-start state across rounds.
///
/// Create one next to the broker, call [`solve_round`](Self::solve_round)
/// every allocation interval, and apply the returned targets; each round
/// after the first reuses every shard's previous model skeleton, LP basis,
/// and assignment. Dropping the session (or any round failing) simply
/// makes the next round cold — no correctness depends on the cache.
#[derive(Debug, Clone, Default)]
pub struct SolveSession {
    /// Requested shard count the plan was derived for.
    k: usize,
    region_fingerprint: (usize, usize),
    specs_key: Vec<ReservationSpec>,
    /// The partition of a plan with two or more shards, with each shard's
    /// capacity slice; `None` for the one-shard plan (the whole region
    /// under the caller's specs).
    plan: Option<(ShardPlan, Vec<Vec<ReservationSpec>>)>,
    /// One warm cache per shard of the plan (empty before the first round).
    caches: Vec<Option<RoundCache>>,
    rounds: usize,
}

impl SolveSession {
    /// Creates an empty session; the first round is a cold solve.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rounds completed since the session was created or last invalidated.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// True when any shard can warm-start its next round.
    pub fn is_warm(&self) -> bool {
        self.caches.iter().any(Option::is_some)
    }

    /// Runs one continuous round: re-plan if the inputs changed, solve
    /// every shard of the plan (diff against its cache, reuse or rebuild
    /// the model, warm-start the MIP, refine with phase 2), and re-arm the
    /// caches for the next round.
    ///
    /// # Failure recovery
    ///
    /// On any error, in any shard, the session *explicitly* resets its
    /// warm state — every shard's cached skeleton, basis, and seed targets
    /// are dropped and round numbering restarts at 0 — and, when warm
    /// state actually existed, the error is wrapped in
    /// [`CoreError::SessionInvalidated`] so callers know the next round
    /// runs cold. A failure on a fresh session (nothing warm to lose)
    /// surfaces the raw error unchanged.
    pub fn solve_round(
        &mut self,
        region: &Region,
        specs: &[ReservationSpec],
        snapshot: &BrokerSnapshot,
        params: &SolverParams,
    ) -> Result<(TwoPhaseOutcome, ShardedReport), CoreError> {
        // Sample before re-planning: a spec or shard-count change may
        // re-partition (dropping warm state), and a failure in that very
        // round must still tell the caller the session it entered warm
        // was invalidated.
        let warm_at_entry = self.rounds > 0 || self.is_warm();
        let round = self.rounds;
        match self.run_round(region, specs, snapshot, params) {
            Ok(out) => {
                self.rounds += 1;
                Ok(out)
            }
            Err(cause) => {
                // Survivors' caches describe capacity slices the next
                // (possibly re-planned) round may not reproduce.
                self.caches.iter_mut().for_each(|c| *c = None);
                self.rounds = 0;
                Err(if warm_at_entry {
                    CoreError::SessionInvalidated {
                        round,
                        cause: Box::new(cause),
                    }
                } else {
                    cause
                })
            }
        }
    }

    /// Re-derives the plan when the shard count, region, or specs changed
    /// (see [`plan_for`]). When the re-derived partition equals the
    /// current one, the warm per-shard caches are kept.
    fn ensure_plan(&mut self, region: &Region, specs: &[ReservationSpec], k: usize) {
        let fingerprint = (region.server_count(), region.msbs().len());
        if !self.caches.is_empty()
            && self.k == k
            && self.region_fingerprint == fingerprint
            && self.specs_key.as_slice() == specs
        {
            return;
        }
        let plan = plan_for(region, specs, k);
        let same_partition = !self.caches.is_empty()
            && match (&self.plan, &plan) {
                (None, None) => true,
                (Some((old, _)), Some((new, _))) => {
                    old.shards.len() == new.shards.len()
                        && old
                            .shards
                            .iter()
                            .zip(&new.shards)
                            .all(|(a, b)| a.msbs == b.msbs)
                }
                _ => false,
            };
        if !same_partition {
            self.caches = vec![None; plan.as_ref().map_or(1, |(p, _)| p.len())];
        }
        self.k = k;
        self.region_fingerprint = fingerprint;
        self.plan = plan;
        self.specs_key = specs.to_vec();
    }

    /// The round on the current plan. Must not touch the round counter or
    /// wrap errors — [`solve_round`](Self::solve_round) owns recovery.
    fn run_round(
        &mut self,
        region: &Region,
        specs: &[ReservationSpec],
        snapshot: &BrokerSnapshot,
        params: &SolverParams,
    ) -> Result<(TwoPhaseOutcome, ShardedReport), CoreError> {
        let round_start = Instant::now();
        self.ensure_plan(region, specs, params.shards);
        let round = self.rounds;
        let Self { plan, caches, .. } = self;

        let Some((plan, split)) = plan.as_ref() else {
            // The one-shard plan is the monolithic round.
            let (outcome, warm) =
                round_body(&mut caches[0], round, region, specs, snapshot, params, None)?;
            let report = ShardedReport {
                shards: vec![ShardReport {
                    shard: 0,
                    servers: region.server_count(),
                    capacity: specs.iter().map(|s| s.capacity).collect(),
                    phase1: outcome.phase1.clone(),
                    phase2: outcome.phase2.clone(),
                    warm: warm.clone(),
                }],
                reconcile: ReconcileReport::default(),
                score: PlanScore::default(),
                warm,
            };
            return Ok((outcome, report));
        };

        let outcomes = std::thread::scope(|scope| {
            let handles: Vec<_> = caches
                .iter_mut()
                .zip(&plan.shards)
                .zip(split)
                .map(|((cache, shard), sspecs)| {
                    scope.spawn(move || {
                        round_body(
                            cache,
                            round,
                            region,
                            sspecs,
                            snapshot,
                            params,
                            Some(&shard.servers),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(CoreError::Solver("shard worker thread panicked".into()))
                    })
                })
                .collect::<Result<Vec<_>, _>>()
        })?;
        Ok(merge_round(
            region,
            specs,
            snapshot,
            params,
            (plan, split),
            outcomes,
            round,
            round_start,
        ))
    }
}

/// One shard's round body: diff against the shard's cache `slot`, reuse
/// or rebuild the model, warm-start the MIP, refine with phase 2, and
/// re-arm the slot. `universe` restricts classes, the phase-2 refinement,
/// and the returned targets to a shard's servers (every other target
/// stays `None`); `None` solves the whole region. On the error path the
/// slot stays empty.
fn round_body(
    slot: &mut Option<RoundCache>,
    round: usize,
    region: &Region,
    specs: &[ReservationSpec],
    snapshot: &BrokerSnapshot,
    params: &SolverParams,
    universe: Option<&HashSet<ServerId>>,
) -> Result<(TwoPhaseOutcome, WarmReport), CoreError> {
    let phase_start = Instant::now();
    let mut report = WarmReport {
        round,
        ..WarmReport::default()
    };

    let build_start = Instant::now();
    let filter = universe.map(|u| move |s: ServerId| u.contains(&s));
    let filter_dyn: Option<&dyn Fn(ServerId) -> bool> =
        filter.as_ref().map(|f| f as &dyn Fn(ServerId) -> bool);
    let reduction = build_reduction(
        region,
        snapshot,
        specs,
        params.phase1_granularity,
        filter_dyn,
    );

    // On any error below the cache stays dropped: a failed round
    // invalidates the session and the next round starts cold.
    let cache = slot.take();
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
            // Structural change (or first round): full rebuild. The
            // previous basis and targets still warm-start the solve.
            let ras = build_model_labeled(
                region,
                specs,
                &reduction.classes,
                &reduction.labels,
                params,
                false,
                None,
            );
            let prev = other.map(|c| (c.basis, c.var_names, c.row_names, c.targets));
            (ras, prev)
        }
    };
    let ras_build_seconds = build_start.elapsed().as_secs_f64();

    // Assemble the warm start from the previous round's artifacts.
    let prev_targets = prev.as_ref().map(|(_, _, _, t)| t.clone());
    let mut warm = WarmStart::default();
    if let Some((basis, var_names, row_names, targets)) = prev {
        if let Some(basis) = basis {
            let new_var_names: Vec<String> =
                ras.model.vars().iter().map(|v| v.name.clone()).collect();
            let new_row_names: Vec<String> = ras
                .model
                .constraints()
                .iter()
                .map(|k| k.name.clone())
                .collect();
            warm.basis = if var_names == new_var_names && row_names == new_row_names {
                Some(basis)
            } else {
                report.basis_remapped = true;
                Some(basis.remap(&var_names, &row_names, &new_var_names, &new_row_names))
            };
            report.warm_basis_supplied = true;
        }
        // Previous targets, re-aggregated over the new classes (this
        // clamps away servers that left the fleet), become the seed
        // incumbent.
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
        warm.incumbent = Some(seed);
    }

    let warm = (!warm.is_empty()).then_some(warm);
    let result = solve_prepared(
        region,
        specs,
        &reduction.classes,
        &reduction.labels,
        &ras,
        params,
        false,
        warm,
    )?;
    report.warm_basis_accepted = result.solution.stats.warm_basis_accepted;
    report.dual_resolve = result.solution.stats.root_used_dual_simplex;
    report.root_phase1_iterations = result.solution.stats.root_phase1_iterations;
    report.dual_iterations = result.solution.stats.dual_iterations;
    report.incumbent_seeded = result.solution.stats.incumbent_seeded;
    report.nodes_pruned_by_seed = result.solution.stats.nodes_pruned_by_seed;

    let targets1 = concretize(
        region,
        snapshot,
        &reduction.classes,
        &result.counts,
        specs.len(),
    );
    let phase1 = make_stats(
        phase_start,
        ras_build_seconds,
        reduction.stats.clone(),
        &result,
    );

    // Steady-state shortcut: when phase 1 lands exactly on the
    // previous round's *final* (post-phase-2) targets, last round's
    // rack refinement already mapped this assignment to itself, so
    // re-running phase 2 would re-derive the identical plan. Skip it;
    // any real drift changes targets1 and re-enables refinement.
    let outcome = if prev_targets.as_deref() == Some(targets1.as_slice()) {
        report.phase2_skipped = true;
        TwoPhaseOutcome {
            targets: targets1,
            phase1,
            phase2: None,
        }
    } else {
        refine_with_phase2(region, specs, snapshot, params, targets1, phase1, universe)
    };

    *slot = Some(RoundCache {
        params: params.clone(),
        specs: specs.to_vec(),
        reduction,
        ras,
        var_names: result.var_names,
        row_names: result.row_names,
        basis: result.solution.root_basis.clone(),
        targets: outcome.targets.clone(),
    });
    Ok((outcome, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservation::ReservationSpec;
    use crate::rru::RruTable;
    use ras_broker::{ResourceBroker, SimTime, UnavailabilityEvent, UnavailabilityKind};
    use ras_topology::{RegionBuilder, RegionTemplate, ScopeId, ServerId};

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
        let mut session = SolveSession::new();

        let snap = broker.snapshot(SimTime::ZERO);
        let (o1, r1) = session
            .solve_round(&region, &specs, &snap, &params)
            .unwrap();
        assert!(!r1.warm.model_reused, "round 0 must be cold");
        assert!(!r1.warm.warm_basis_supplied);
        for (i, t) in o1.targets.iter().enumerate() {
            broker.set_target(ServerId::from_index(i), *t).unwrap();
        }
        materialize(&mut broker);

        // Round 1 sees the applied bindings for the first time: the class
        // keys embed current/target, so this round rebuilds (with a
        // remapped basis) and settles into the steady-state key set.
        let snap2 = broker.snapshot(SimTime::from_hours(1));
        let (o2, r2) = session
            .solve_round(&region, &specs, &snap2, &params)
            .unwrap();
        assert!(r2.warm.warm_basis_supplied);
        assert!(r2.warm.incumbent_seeded);
        assert_eq!(
            o2.targets, o1.targets,
            "steady-state round must keep the assignment"
        );

        // Round 2 on an unchanged snapshot: full skeleton reuse.
        let snap3 = broker.snapshot(SimTime::from_hours(2));
        let (o3, r3) = session
            .solve_round(&region, &specs, &snap3, &params)
            .unwrap();
        assert!(r3.warm.model_reused, "steady state must reuse the skeleton");
        assert!(!r3.warm.model_patched, "no drift, no patches");
        assert!(r3.warm.warm_basis_supplied);
        assert!(!r3.warm.basis_remapped, "identical name space, no remap");
        assert!(r3.warm.incumbent_seeded);
        assert_eq!(o3.targets, o1.targets);
    }

    #[test]
    fn count_drift_patches_instead_of_rebuilding() {
        let (region, mut broker) = setup();
        let specs = vec![uniform_spec(&region, "web", 40.0)];
        broker.register_reservation("web");
        let params = SolverParams::default();
        let mut session = SolveSession::new();

        let snap = broker.snapshot(SimTime::ZERO);
        let (o1, _) = session
            .solve_round(&region, &specs, &snap, &params)
            .unwrap();
        for (i, t) in o1.targets.iter().enumerate() {
            broker.set_target(ServerId::from_index(i), *t).unwrap();
        }
        materialize(&mut broker);
        // Stabilization round: the key set now embeds the applied bindings.
        let snap1 = broker.snapshot(SimTime::from_hours(1));
        session
            .solve_round(&region, &specs, &snap1, &params)
            .unwrap();

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
        let (_, r2) = session
            .solve_round(&region, &specs, &snap2, &params)
            .unwrap();
        assert!(r2.warm.model_reused);
        assert!(r2.warm.model_patched);
        assert!(r2.warm.classes_resized >= 1);
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
        let mut session = SolveSession::new();

        let snap = broker.snapshot(SimTime::ZERO);
        let (o1, _) = session
            .solve_round(&region, &specs, &snap, &params)
            .unwrap();
        for (i, t) in o1.targets.iter().enumerate() {
            broker.set_target(ServerId::from_index(i), *t).unwrap();
        }
        materialize(&mut broker);

        let snap2 = broker.snapshot(SimTime::from_hours(1));
        let (warm_o, warm_r) = session
            .solve_round(&region, &specs, &snap2, &params)
            .unwrap();
        let mut cold = SolveSession::new();
        let (cold_o, _) = cold.solve_round(&region, &specs, &snap2, &params).unwrap();

        assert!(warm_r.warm.warm_basis_supplied);
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
        let mut session = SolveSession::new();

        let snap = broker.snapshot(SimTime::ZERO);
        let (o1, _) = session
            .solve_round(&region, &specs, &snap, &params)
            .unwrap();
        for (i, t) in o1.targets.iter().enumerate() {
            broker.set_target(ServerId::from_index(i), *t).unwrap();
        }
        materialize(&mut broker);

        // Growing the reservation is a structural spec change.
        specs[0].capacity = 35.0;
        let snap2 = broker.snapshot(SimTime::from_hours(1));
        let (_, r2) = session
            .solve_round(&region, &specs, &snap2, &params)
            .unwrap();
        assert!(!r2.warm.model_reused, "spec change must rebuild");
        assert!(r2.warm.warm_basis_supplied, "basis still carried over");
        assert!(r2.warm.seed_supplied);
    }
}
