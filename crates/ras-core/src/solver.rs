//! The Async Solver (paper Figure 6, steps 2–3).
//!
//! Takes a broker snapshot plus the current reservation specs, runs the
//! two-phase MIP solve, and writes per-server *targets* back to the
//! broker. Runs off the critical path: the Online Mover materializes the
//! targets asynchronously, and container placement never waits on it.
//!
//! The solver is the one stateful solve type. It owns the shard plan it
//! derives from `params.shards` ([`crate::shard`]), one warm cache per
//! shard ([`crate::session`]), the round counter and the failure
//! recovery, so consecutive [`AsyncSolver::solve`] calls on the same
//! instance are *continuous*: each round warm-starts from the previous
//! one (cached model skeleton, root-LP basis, seeded incumbent). Use a
//! fresh solver for a cold round. The size of the plan picks the path: a
//! one-shard plan — one shard requested, or a larger request no partition
//! can support — is the monolithic round, both phases on the whole
//! region; a plan of two or more shards solves every shard concurrently,
//! each restricted to its servers and capacity slice, then merges and
//! reconciles the plans.

use std::time::Instant;

use ras_broker::{BrokerSnapshot, ReservationId, ResourceBroker};
use ras_topology::Region;

use crate::assign::{count_moves, MoveStats};
use crate::error::CoreError;
use crate::model::solver_visible;
use crate::params::SolverParams;
use crate::phases::two_phase;
use crate::reservation::ReservationSpec;
use crate::session::{RoundCache, WarmReport};
use crate::shard::{merge_round, plan_for, ShardPlan, ShardedReport};
use crate::stats::PhaseStats;

/// Output of one solve: targets plus full statistics.
#[derive(Debug, Clone)]
pub struct SolveOutput {
    /// Target reservation per server (`None` = free pool).
    pub targets: Vec<Option<ReservationId>>,
    /// Phase-1 statistics.
    pub phase1: PhaseStats,
    /// Phase-2 statistics, when phase 2 ran.
    pub phase2: Option<PhaseStats>,
    /// Moves this solve plans relative to current bindings.
    pub moves: MoveStats,
    /// How the solver warm-started this round (aggregated across shards
    /// when the round was sharded: reuse flags AND, counters sum).
    pub warm: WarmReport,
    /// Per-shard reports when the round ran sharded (a plan of two or
    /// more shards); `None` for a monolithic round, including a sharded
    /// request that fell back to one shard. Audit certificates of a sharded
    /// round live here — the aggregate [`Self::phase1`] carries a default
    /// (uncertified) audit, use [`Self::audit_phases`] instead.
    pub sharded: Option<ShardedReport>,
}

impl SolveOutput {
    /// Total wall-clock seconds across phases (Figure 7's metric).
    pub fn allocation_seconds(&self) -> f64 {
        self.phase1.total_seconds + self.phase2.as_ref().map_or(0.0, |p| p.total_seconds)
    }

    /// Total assignment variables across phases.
    pub fn assignment_vars(&self) -> usize {
        self.phase1.assignment_vars + self.phase2.as_ref().map_or(0, |p| p.assignment_vars)
    }

    /// True when this round reused warm state from the previous round
    /// (a supplied root basis, a seeded incumbent, or a cached model).
    pub fn warm_start_used(&self) -> bool {
        self.warm.warm_basis_supplied
            || self.warm.seed_supplied
            || self.warm.model_reused
            || self.warm.model_patched
    }

    /// Simplex iterations spent in phase 1 (all LP solves of the MIP).
    pub fn phase1_lp_iterations(&self) -> usize {
        self.phase1.mip_stats.simplex_iterations
    }

    /// Simplex iterations spent in phase 2, zero when phase 2 did not run.
    pub fn phase2_lp_iterations(&self) -> usize {
        self.phase2
            .as_ref()
            .map_or(0, |p| p.mip_stats.simplex_iterations)
    }

    /// Total simplex iterations across both phases. Warm rounds should
    /// spend measurably fewer than the cold round that preceded them.
    pub fn lp_iterations(&self) -> usize {
        self.phase1_lp_iterations() + self.phase2_lp_iterations()
    }

    /// The real, auditable per-phase solver statistics of this round: the
    /// monolithic phase 1 (+ phase 2) for a monolithic round, every
    /// shard's phase 1 (+ phase 2) for a sharded one. A sharded round's
    /// top-level [`Self::phase1`] is synthesized from these and carries no
    /// audit certificate of its own, so certification checks must walk
    /// this list.
    pub fn audit_phases(&self) -> Vec<&PhaseStats> {
        match &self.sharded {
            Some(report) => report
                .shards
                .iter()
                .flat_map(|s| std::iter::once(&s.phase1).chain(s.phase2.as_ref()))
                .collect(),
            None => std::iter::once(&self.phase1)
                .chain(self.phase2.as_ref())
                .collect(),
        }
    }
}

/// The Async Solver.
#[derive(Debug, Clone, Default)]
pub struct AsyncSolver {
    /// Cost coefficients and limits.
    pub params: SolverParams,
    /// Shard count, region fingerprint and specs the plan was derived for.
    plan_key: (usize, (usize, usize), Vec<ReservationSpec>),
    /// The partition of a plan with two or more shards, with each shard's
    /// capacity slice; `None` for the one-shard plan (the whole region
    /// under the caller's specs).
    plan: Option<(ShardPlan, Vec<Vec<ReservationSpec>>)>,
    /// One warm cache per shard of the plan (empty before the first round).
    caches: Vec<Option<RoundCache>>,
    /// Rounds completed since creation or the last failed round.
    rounds: usize,
}

impl AsyncSolver {
    /// Creates a solver with the given parameters.
    pub fn new(params: SolverParams) -> Self {
        Self {
            params,
            ..Self::default()
        }
    }

    /// Validates specs against the region (actionable rejections,
    /// Section 5.3).
    ///
    /// One pass over the fleet builds per-hardware-type counts; each spec
    /// is then answered in O(|catalog|) instead of O(|fleet|).
    pub fn validate(&self, region: &Region, specs: &[ReservationSpec]) -> Result<(), CoreError> {
        let mut by_hardware = vec![0usize; region.catalog.len()];
        for server in region.servers() {
            by_hardware[server.hardware.index()] += 1;
        }
        for (ri, spec) in specs.iter().enumerate() {
            if !solver_visible(spec) || spec.capacity <= 0.0 {
                continue;
            }
            let exists = spec
                .rru
                .iter_eligible()
                .any(|(hw, _)| by_hardware.get(hw.index()).is_some_and(|&n| n > 0));
            if !exists {
                return Err(CoreError::NoEligibleHardware {
                    reservation: ReservationId::from_index(ri),
                });
            }
        }
        Ok(())
    }

    /// Runs one continuous round over a snapshot: re-plan if the inputs
    /// changed, solve every shard of the plan (diff against its cache,
    /// reuse or rebuild the model, warm-start the MIP, refine with phase
    /// 2), and re-arm the caches for the next round.
    ///
    /// `specs[i]` must correspond to `ReservationId(i)` as registered in
    /// the broker. Takes `&mut self` because each round updates the
    /// warm-start state; use a fresh solver for an independent cold
    /// solve.
    ///
    /// # Failure recovery
    ///
    /// When a round fails, in any shard, the solver drops every shard's
    /// cached skeleton, basis and seed targets and restarts round
    /// numbering at 0, so the next round runs cold. When warm state
    /// existed, the error is wrapped in [`CoreError::SessionInvalidated`];
    /// a failure with nothing warm to lose surfaces the raw error. A spec
    /// rejected by [`Self::validate`] fails before the round starts and
    /// keeps the warm state.
    pub fn solve(
        &mut self,
        region: &Region,
        specs: &[ReservationSpec],
        snapshot: &BrokerSnapshot,
    ) -> Result<SolveOutput, CoreError> {
        self.validate(region, specs)?;
        // Sample before re-planning: a spec or shard-count change may
        // re-partition (dropping warm state), and a failure in that very
        // round must still report that the warm state it entered with is
        // gone.
        let warm_at_entry = self.rounds > 0 || self.caches.iter().any(Option::is_some);
        let round = self.rounds;
        match self.run_round(region, specs, snapshot) {
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
    fn ensure_plan(&mut self, region: &Region, specs: &[ReservationSpec]) {
        let key = (
            self.params.shards,
            (region.server_count(), region.msbs().len()),
        );
        if !self.caches.is_empty()
            && (self.plan_key.0, self.plan_key.1) == key
            && self.plan_key.2 == specs
        {
            return;
        }
        let plan = plan_for(region, specs, key.0);
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
        self.plan_key = (key.0, key.1, specs.to_vec());
        self.plan = plan;
    }

    /// The round on the current plan. Must not touch the round counter or
    /// wrap errors — [`solve`](Self::solve) owns recovery.
    fn run_round(
        &mut self,
        region: &Region,
        specs: &[ReservationSpec],
        snapshot: &BrokerSnapshot,
    ) -> Result<SolveOutput, CoreError> {
        let round_start = Instant::now();
        self.ensure_plan(region, specs);
        let round = self.rounds;
        let Self {
            params,
            plan,
            caches,
            ..
        } = self;
        let params = &*params;

        let Some((plan, split)) = plan.as_ref() else {
            // The one-shard plan is the monolithic round.
            let (targets, phase1, phase2, warm) =
                two_phase(&mut caches[0], round, region, specs, snapshot, params, None)?;
            return Ok(SolveOutput {
                moves: count_moves(snapshot, &targets),
                targets,
                phase1,
                phase2,
                warm,
                sharded: None,
            });
        };

        let outcomes = std::thread::scope(|scope| {
            let handles: Vec<_> = caches
                .iter_mut()
                .zip(&plan.shards)
                .zip(split)
                .map(|((cache, shard), sspecs)| {
                    scope.spawn(move || {
                        two_phase(
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

    /// Persists a solve's targets into the broker (Figure 6, step 3).
    pub fn apply(
        &self,
        output: &SolveOutput,
        broker: &mut ResourceBroker,
    ) -> Result<(), CoreError> {
        if broker.server_count() != output.targets.len() {
            return Err(CoreError::Broker(format!(
                "target vector ({}) does not match broker fleet ({})",
                output.targets.len(),
                broker.server_count()
            )));
        }
        for (i, target) in output.targets.iter().enumerate() {
            let server = ras_topology::ServerId::from_index(i);
            let record = broker
                .record(server)
                .map_err(|e| CoreError::Broker(e.to_string()))?;
            if record.target != *target {
                broker
                    .set_target(server, *target)
                    .map_err(|e| CoreError::Broker(e.to_string()))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reservation::ReservationSpec;
    use crate::rru::RruTable;
    use ras_broker::SimTime;
    use ras_topology::{RegionBuilder, RegionTemplate};

    fn setup() -> (Region, ResourceBroker) {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let broker = ResourceBroker::new(region.server_count());
        (region, broker)
    }

    #[test]
    fn solve_and_apply_roundtrip() {
        let (region, mut broker) = setup();
        let specs = vec![ReservationSpec::guaranteed(
            "web",
            40.0,
            RruTable::uniform(&region.catalog, 1.0),
        )];
        let r0 = broker.register_reservation("web");
        let mut solver = AsyncSolver::default();
        let snap = broker.snapshot(SimTime::ZERO);
        let output = solver.solve(&region, &specs, &snap).expect("solve");
        assert!(!output.warm_start_used(), "first round runs cold");
        solver.apply(&output, &mut broker).expect("apply");
        let assigned = broker.iter().filter(|(_, r)| r.target == Some(r0)).count();
        assert!(
            assigned >= 40,
            "at least Cr servers targeted, got {assigned}"
        );
        // Pending moves are exactly the servers with a fresh target.
        assert_eq!(broker.pending_moves().len(), assigned);
    }

    #[test]
    fn validate_rejects_absent_hardware() {
        let (region, _) = setup();
        // Demand hardware from an empty table.
        let specs = vec![ReservationSpec::guaranteed(
            "ml",
            10.0,
            RruTable::empty(&region.catalog),
        )];
        let solver = AsyncSolver::default();
        let err = solver.validate(&region, &specs).unwrap_err();
        assert!(matches!(err, CoreError::NoEligibleHardware { .. }));
    }

    #[test]
    fn resolve_is_stable_without_input_changes() {
        let (region, mut broker) = setup();
        let specs = vec![ReservationSpec::guaranteed(
            "web",
            40.0,
            RruTable::uniform(&region.catalog, 1.0),
        )];
        broker.register_reservation("web");
        let mut solver = AsyncSolver::default();
        let snap = broker.snapshot(SimTime::ZERO);
        let output = solver.solve(&region, &specs, &snap).expect("solve");
        solver.apply(&output, &mut broker).expect("apply");
        // Materialize all moves, then re-solve: nothing should move.
        for s in broker.pending_moves() {
            let target = broker.record(s).unwrap().target;
            broker.bind_current(s, target).unwrap();
        }
        let snap2 = broker.snapshot(SimTime::from_hours(1));
        let output2 = solver.solve(&region, &specs, &snap2).expect("solve 2");
        assert_eq!(
            output2.moves.total(),
            0,
            "steady state must be move-free (stability objective)"
        );
        assert!(
            output2.warm_start_used(),
            "second round must run warm: {:?}",
            output2.warm
        );
    }

    #[test]
    fn apply_rejects_mismatched_fleet() {
        let (region, _) = setup();
        let mut small = ResourceBroker::new(3);
        let solver = AsyncSolver::default();
        let output = SolveOutput {
            targets: vec![None; region.server_count()],
            phase1: PhaseStats::default(),
            phase2: None,
            moves: MoveStats::default(),
            warm: WarmReport::default(),
            sharded: None,
        };
        assert!(solver.apply(&output, &mut small).is_err());
    }
}
