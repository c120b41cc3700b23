//! The four workloads and the continuous round loop that drives them.
//!
//! A round is a closed loop with one caller: the next round starts only
//! after the previous plan has been applied and materialized. Each round:
//!
//! 1. events: last round's failed servers recover and a seeded slice of
//!    the fleet fails (Twine evacuates their containers); drifting
//!    workloads resize specs;
//! 2. the timed round: `broker.snapshot` → `AsyncSolver::solve` →
//!    `AsyncSolver::apply` → `OnlineMover::execute_targets`, which
//!    preempts in-use servers through Twine;
//! 3. checks and level 2: the plan is valued with `evaluate_targets`; with
//!    a job stream, the caller submits, scales and stops jobs, and
//!    stranded capacity is accounted.
//!
//! On sampled rounds a fresh solver also solves the round's snapshot
//! cold; it is timed, compared with the warm plan, and never applied.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ras_broker::{BrokerSnapshot, ReservationId, ResourceBroker, SimTime};
use ras_broker::{UnavailabilityEvent, UnavailabilityKind};
use ras_core::reservation::{ReservationKind, ReservationSpec};
use ras_core::{buffers, evaluate_targets, sharded_tolerance, AsyncSolver, SolveOutput};
use ras_core::{PlanScore, SolverParams};
use ras_mover::{MoverConfig, OnlineMover};
use ras_sim::metrics::{stranded_account, StrandedAccount};
use ras_topology::{Region, RegionBuilder, RegionTemplate, ScopeId, ServerId};
use ras_twine::{ContainerSpec, JobId, JobSpec, PlacementPolicyKind, TwineScheduler};
use ras_workloads::{RequestGenerator, RequestGeneratorConfig, StandardServices};

use crate::trace::Tracer;

/// Seed of the region and the starting portfolio. They are the system
/// under test and stay fixed; `--seed` drives only what happens to them.
const REGION_SEED: u64 = 23;

/// Rounds after the first fill that settle the warm session before
/// anything is measured.
pub const WARMUP_ROUNDS: usize = 3;

/// Fraction of the fleet the guaranteed reservations ask for.
const UTILIZATION: f64 = 0.6;

/// The starting reservations.
#[derive(Debug, Clone, Copy)]
pub enum Portfolio {
    /// `ras_sim::continuous::portfolio`: two guaranteed reservations over
    /// uniform RRUs.
    Continuous,
    /// Four headline services and two generated capacity requests, plus
    /// per-hardware shared buffers, as `ras_bench::instance` builds them.
    Instance,
}

/// Per-round fleet churn: last round's victims recover and new ones fail.
#[derive(Debug, Clone, Copy)]
pub enum Churn {
    /// A fraction of the fleet fails every round.
    Fraction(f64),
    /// A fixed number of servers fails every round.
    Servers(usize),
}

/// The level-2 job stream one caller drives every round.
#[derive(Debug, Clone, Copy)]
pub struct JobStream {
    /// Jobs submitted per round.
    pub submits: usize,
    /// Replica count range of a job, inclusive.
    pub replicas: (u32, u32),
    /// Live jobs rescaled per round.
    pub scales: usize,
    /// Live jobs kept; the oldest above it are stopped.
    pub live_cap: usize,
    /// Jobs land in the first this-many reservations.
    pub reservations: usize,
}

/// Everything that defines a workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// Region shape.
    pub region: RegionTemplate,
    /// Starting reservations.
    pub portfolio: Portfolio,
    /// Solver parameters (shards among them).
    pub params: SolverParams,
    /// Per-round failures.
    pub churn: Churn,
    /// Resize one guaranteed reservation every round.
    pub resize: bool,
    /// Level-2 job stream (`None`: level 1 only).
    pub jobs: Option<JobStream>,
    /// Every this-many measured rounds, starting with the first, the
    /// round's snapshot is also solved cold. Sized so that 10 s of rounds
    /// sample 20 to 30 rounds spread over the whole run.
    pub cold_every: usize,
}

/// Names of the workloads; `BENCHMARK.json` gates the first two.
pub const WORKLOADS: [&str; 4] = [
    "steady-paper",
    "sharded-paper",
    "drift-portfolio",
    "place-churn",
];

/// The paper's production example: 4 DCs × 9 MSBs, 104 400 servers.
fn paper_region() -> RegionTemplate {
    RegionTemplate {
        datacenters: 4,
        msbs_per_datacenter: 9,
        power_rows_per_msb: 10,
        racks_per_power_row: 29,
        servers_per_rack: 10,
    }
}

/// The named workload's configuration.
pub fn config(name: &str) -> Option<Config> {
    let steady = Config {
        region: paper_region(),
        portfolio: Portfolio::Continuous,
        params: SolverParams::default(),
        churn: Churn::Fraction(0.02),
        resize: false,
        jobs: None,
        cold_every: 30,
    };
    Some(match name {
        "steady-paper" => steady,
        "sharded-paper" => Config {
            params: SolverParams {
                shards: 2,
                ..SolverParams::default()
            },
            cold_every: 8,
            ..steady
        },
        "drift-portfolio" => Config {
            region: RegionTemplate::medium(),
            portfolio: Portfolio::Instance,
            churn: Churn::Servers(3),
            resize: true,
            cold_every: 4,
            ..steady
        },
        "place-churn" => Config {
            region: RegionTemplate::medium(),
            jobs: Some(JobStream {
                submits: 6,
                replicas: (20, 80),
                scales: 2,
                live_cap: 60,
                reservations: 2,
            }),
            cold_every: 4,
            ..steady
        },
        _ => return None,
    })
}

/// The starting specs over `region`.
fn portfolio(region: &Region, portfolio: Portfolio) -> Vec<ReservationSpec> {
    match portfolio {
        Portfolio::Continuous => ras_sim::continuous::portfolio(region, UTILIZATION),
        Portfolio::Instance => {
            let total = region.server_count() as f64 * UTILIZATION;
            let headline = [
                StandardServices::web(),
                StandardServices::feed1(),
                StandardServices::feed2(),
                StandardServices::datastore(),
            ];
            // The headline services share 40 % of the demand and two
            // generated requests the rest.
            let n = headline.len() as f64;
            let mut specs: Vec<ReservationSpec> = headline
                .iter()
                .map(|p| p.reservation(&region.catalog, total * 0.4 / n))
                .collect();
            let mut gen = RequestGenerator::new(RequestGeneratorConfig {
                seed: REGION_SEED ^ 0xabcd,
                ..RequestGeneratorConfig::default()
            });
            for i in 0..2 {
                let req = gen.sample(&region.catalog, SimTime::ZERO);
                let mut spec = req.to_spec(&region.catalog, format!("svc{i}"));
                spec.capacity = (total * 0.3).round();
                specs.push(spec);
            }
            specs.extend(buffers::shared_buffer_specs(region, 0.02));
            specs
        }
    }
}

/// The region, its broker and the layers driving it.
pub struct World {
    region: Region,
    /// Current specs (`specs[i]` is `ReservationId(i)`).
    specs: Vec<ReservationSpec>,
    /// Capacities the specs started from (resizes are relative to them).
    base_capacity: Vec<f64>,
    broker: ResourceBroker,
    solver: AsyncSolver,
    mover: OnlineMover,
    twine: TwineScheduler,
}

/// Timings of one set-up.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    /// Region build.
    pub build_s: f64,
    /// Cold first-fill solve alone.
    pub fill_solve_s: f64,
    /// Simplex iterations and B&B nodes of the first fill, both phases.
    pub fill_work: (usize, usize),
    /// Region build, portfolio registration and the applied first fill.
    pub total_s: f64,
}

/// Builds the region and portfolio and runs the cold first fill, applied
/// and materialized.
pub fn setup(config: &Config) -> Result<(World, SetupTimes), String> {
    let start = Instant::now();
    let region = RegionBuilder::new(config.region.clone(), REGION_SEED).build();
    let build_s = start.elapsed().as_secs_f64();
    let specs = portfolio(&region, config.portfolio);
    let mut broker = ResourceBroker::new(region.server_count());
    for s in &specs {
        broker.register_reservation(&s.name);
    }
    let mut solver = AsyncSolver::new(config.params.clone());
    // The benchmark drives target execution only. Subscribed to this
    // broker, the mover would queue every failure notice for a reader
    // that never drains them, growing memory with the round count.
    let mut mover = OnlineMover::new(&mut ResourceBroker::new(0), MoverConfig::default());
    let fill_start = Instant::now();
    let out = solver
        .solve(&region, &specs, &broker.snapshot(SimTime::ZERO))
        .map_err(|e| format!("first fill: {e}"))?;
    let fill_solve_s = fill_start.elapsed().as_secs_f64();
    let fill_work = out.audit_phases().iter().fold((0, 0), |(i, n), p| {
        (i + p.mip_stats.simplex_iterations, n + p.mip_stats.nodes)
    });
    solver
        .apply(&out, &mut broker)
        .map_err(|e| format!("first fill apply: {e}"))?;
    mover.execute_targets(&mut broker, SimTime::ZERO, |_, _| {});
    let total_s = start.elapsed().as_secs_f64();
    mover.log = Default::default();
    let base_capacity = specs.iter().map(|s| s.capacity).collect();
    Ok((
        World {
            region,
            specs,
            base_capacity,
            broker,
            solver,
            mover,
            twine: TwineScheduler::with_policy(PlacementPolicyKind::FarbBalance),
        },
        SetupTimes {
            build_s,
            fill_solve_s,
            fill_work,
            total_s,
        },
    ))
}

/// A live job of the stream: its id and the replicas it should run.
#[derive(Debug, Clone, Copy)]
struct LiveJob {
    id: JobId,
    want: u32,
}

/// Container bookkeeping kept from outside Twine, for the conservation
/// check `running + lost = placed − stopped`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ledger {
    /// Containers placed by submit, scale-up and retry calls.
    pub placed: usize,
    /// Containers stopped by stop and scale-down calls.
    pub stopped: usize,
    /// Containers evacuations could not re-place.
    pub lost: usize,
}

/// What one round did, as the benchmark saw it.
#[derive(Debug, Clone, Default)]
pub struct RoundRecord {
    /// `snapshot → solve → apply → materialize` wall time.
    pub round_s: f64,
    /// The round was traced.
    pub traced: bool,
    /// Digest of the servers that failed before the round.
    pub churned: u64,
    /// `(reservation, new capacity)` resizes before the round.
    pub resized: Vec<(usize, f64)>,
    /// Digest of the round's plan (`None`: no plan).
    pub plan: Option<u64>,
    /// `evaluate_targets` of the plan.
    pub score_objective: f64,
    /// Sum of `PlanScore::capacity_shortfall`.
    pub shortfall_rru: f64,
    /// Moves the plan made relative to current bindings.
    pub planned_moves: usize,
    /// Moves the mover executed.
    pub executed_moves: usize,
    /// Program-reported counters of the solve, by name.
    pub counters: Vec<(&'static str, f64)>,
    /// Latencies (µs) of the placement calls made after the round.
    pub place_us: Vec<f64>,
    /// Stranded-capacity account at the end of the round.
    pub stranded: StrandedAccount,
    /// Replica placements requested and left unplaced.
    pub placements: (usize, usize),
    /// Candidate servers Twine scored over replicas requested by submits.
    pub candidates: (usize, usize),
    /// Containers evacuations lost this round.
    pub evac_lost: usize,
    /// Correctness failures found this round.
    pub failures: Vec<String>,
}

/// One cold solve of a warm round's snapshot.
#[derive(Debug, Clone, Default)]
pub struct ColdSample {
    /// Fresh-session solve time.
    pub solve_s: f64,
    /// Correctness failures of the comparison.
    pub failures: Vec<String>,
}

/// A fixed-key hash of a sequence, so rounds can be compared across runs
/// without keeping fleet-sized vectors.
fn digest<T: std::hash::Hash>(items: &[T]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    items.hash(&mut h);
    h.finish()
}

/// Counters the program reports for one solve, under the per-layer
/// metric names.
fn solve_counters(out: &SolveOutput, params: &SolverParams) -> Vec<(&'static str, f64)> {
    let p1 = &out.phase1;
    let phases: Vec<_> = std::iter::once(p1).chain(out.phase2.as_ref()).collect();
    let sum =
        |f: &dyn Fn(&ras_core::stats::PhaseStats) -> f64| phases.iter().map(|p| f(p)).sum::<f64>();
    let mip = |f: &dyn Fn(&ras_milp::SolveStats) -> usize| {
        phases.iter().map(|p| f(&p.mip_stats) as f64).sum::<f64>()
    };
    // A phase stops on the time limit only when its solve ran that long;
    // `hit_limit` alone also covers the stall and node limits.
    let time_limit_hits = out
        .audit_phases()
        .iter()
        .filter(|p| p.mip_stats.hit_limit && p.mip_stats.solve_seconds >= params.phase_time_limit)
        .count();
    let steps =
        p1.ras_build_seconds + p1.solver_build_seconds + p1.initial_state_seconds + p1.mip_seconds;
    let w = &out.warm;
    let flag = |b: bool| if b { 1.0 } else { 0.0 };
    let (merge_s, slowest_s, imbalance, released) = match &out.sharded {
        Some(rep) => {
            let times: Vec<f64> = rep
                .shards
                .iter()
                .map(|s| {
                    s.phase1.total_seconds + s.phase2.as_ref().map_or(0.0, |p| p.total_seconds)
                })
                .collect();
            let slowest = times.iter().copied().fold(0.0, f64::max);
            let mean = crate::stats::mean(&times);
            (
                rep.reconcile.merge_seconds,
                slowest,
                slowest / mean.max(f64::MIN_POSITIVE),
                rep.reconcile.released as f64,
            )
        }
        None => (0.0, out.allocation_seconds(), 1.0, 0.0),
    };
    vec![
        ("phases.p1_s", p1.total_seconds),
        (
            "phases.p2_s",
            out.phase2.as_ref().map_or(0.0, |p| p.total_seconds),
        ),
        ("phases.ras_build_s", sum(&|p| p.ras_build_seconds)),
        ("phases.solver_build_s", sum(&|p| p.solver_build_seconds)),
        ("phases.root_lp_s", sum(&|p| p.initial_state_seconds)),
        ("phases.bnb_s", sum(&|p| p.mip_seconds)),
        ("phases.p1_unattributed_s", p1.total_seconds - steps),
        ("session.reuse", flag(w.model_reused)),
        ("session.patch", flag(w.model_patched)),
        ("session.basis_accepted", flag(w.warm_basis_accepted)),
        ("session.dual_resolve", flag(w.dual_resolve)),
        ("session.phase2_skipped", flag(w.phase2_skipped)),
        (
            "session.nodes_pruned_by_seed",
            w.nodes_pruned_by_seed as f64,
        ),
        ("aggregate.vars", p1.reduction.vars_reduced as f64),
        (
            "aggregate.excluded_servers",
            p1.reduction.servers_excluded as f64,
        ),
        ("shard.merge_s", merge_s),
        ("shard.slowest_s", slowest_s),
        ("shard.imbalance", imbalance),
        ("shard.released", released),
        ("milp.iters", mip(&|s| s.simplex_iterations)),
        ("milp.phase1_iters", mip(&|s| s.phase1_iterations)),
        ("milp.dual_iters", mip(&|s| s.dual_iterations)),
        ("milp.nodes", mip(&|s| s.nodes)),
        ("milp.refactors", mip(&|s| s.lp_refactorizations)),
        ("milp.basis_updates", mip(&|s| s.basis_updates)),
        ("milp.refactors_growth", mip(&|s| s.refactors_growth)),
        ("milp.refactors_interval", mip(&|s| s.refactors_interval)),
        ("milp.refactors_accuracy", mip(&|s| s.refactors_accuracy)),
        ("milp.pricing_hits", mip(&|s| s.pricing_candidate_hits)),
        ("milp.pricing_rebuilds", mip(&|s| s.pricing_full_rebuilds)),
        ("milp.gap", p1.mip_stats.gap),
        ("milp.time_limit_hits", time_limit_hits as f64),
    ]
}

/// Tolerance within which a warm and a cold solve of one snapshot must
/// agree: the gap the solver is asked to stop at, `max(mip_abs_gap,
/// mip_rel_gap·|objective|)`, summed over the cold solve's shards for a
/// sharded round.
fn agreement_tolerance(params: &SolverParams, cold: &SolveOutput) -> f64 {
    let gap = |objective: f64| params.mip_abs_gap.max(params.mip_rel_gap * objective.abs());
    let asked = match &cold.sharded {
        Some(rep) => rep.shards.iter().map(|s| gap(s.phase1.objective)).sum(),
        None => gap(cold.phase1.objective),
    };
    asked + 1e-6
}

/// One of the seeded input streams (churn victims, spec resizes, the job
/// stream): every random choice follows from `--seed`, and the streams do
/// not move in lockstep.
fn stream(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Drives the rounds of one workload.
pub struct Runner<'t> {
    config: Config,
    world: World,
    tracer: &'t Tracer,
    churn_rng: StdRng,
    drift_rng: StdRng,
    job_rng: StdRng,
    downed: Vec<ServerId>,
    live: std::collections::VecDeque<LiveJob>,
    job_serial: usize,
    /// Container bookkeeping for the conservation check.
    pub ledger: Ledger,
    round: usize,
}

impl<'t> Runner<'t> {
    /// A runner over a freshly set-up world.
    pub fn new(config: Config, world: World, seed: u64, tracer: &'t Tracer) -> Self {
        Self {
            config,
            world,
            tracer,
            churn_rng: stream(seed, 1),
            drift_rng: stream(seed, 2),
            job_rng: stream(seed, 3),
            downed: Vec::new(),
            live: Default::default(),
            job_serial: 0,
            ledger: Ledger::default(),
            round: 0,
        }
    }

    /// Fails a fresh slice of the fleet after last round's victims
    /// recover; Twine evacuates the victims' containers.
    fn churn(&mut self, now: SimTime, rec: &mut RoundRecord) {
        let w = &mut self.world;
        let n = w.region.server_count();
        let count = match self.config.churn {
            Churn::Fraction(f) => (n as f64 * f).round() as usize,
            Churn::Servers(k) => k,
        }
        .min(n);
        let (downed, rng) = (&mut self.downed, &mut self.churn_rng);
        self.tracer.span("broker.churn", self.round, || {
            for s in downed.drain(..) {
                let _ = w.broker.mark_up(s, now);
            }
            let mut hit = vec![false; n];
            while downed.len() < count {
                let i = rng.gen_range(0..n);
                if std::mem::replace(&mut hit[i], true) {
                    continue;
                }
                let s = ServerId::from_index(i);
                let event = UnavailabilityEvent {
                    server: s,
                    kind: UnavailabilityKind::UnplannedHardware,
                    scope: ScopeId::Server(s),
                    start: now,
                    expected_end: Some(now.plus_hours(1)),
                };
                if w.broker.mark_down(event).is_ok() {
                    downed.push(s);
                }
            }
        });
        rec.churned = digest(&self.downed);
        if self.config.jobs.is_none() {
            return;
        }
        for &s in &self.downed {
            if w.twine.allocator.containers_on(s) > 0 {
                let (_, lost) = self.tracer.span("twine.evacuate", self.round, || {
                    w.twine.evacuate(&w.region, &mut w.broker, s)
                });
                self.ledger.lost += lost;
                rec.evac_lost += lost;
            }
        }
    }

    /// Resizes one seeded guaranteed reservation to within ±10 % of its
    /// starting capacity. One edit every round makes every round rebuild
    /// its model; sizing from the start keeps the workload stationary.
    fn drift(&mut self, rec: &mut RoundRecord) {
        if !self.config.resize {
            return;
        }
        let guaranteed: Vec<usize> = (0..self.world.specs.len())
            .filter(|&i| self.world.specs[i].kind == ReservationKind::Guaranteed)
            .collect();
        let i = guaranteed[self.drift_rng.gen_range(0..guaranteed.len())];
        let factor = 0.9 + 0.2 * self.drift_rng.gen::<f64>();
        let capacity = (self.world.base_capacity[i] * factor).max(2.0).round();
        self.world.specs[i].capacity = capacity;
        rec.resized.push((i, capacity));
    }

    /// The timed round: snapshot, solve, apply, materialize.
    fn solve_round(
        &mut self,
        now: SimTime,
        rec: &mut RoundRecord,
    ) -> Result<(BrokerSnapshot, SolveOutput), String> {
        let tracer = self.tracer;
        let round = self.round;
        let params = self.config.params.clone();
        let ledger = &mut self.ledger;
        let w = &mut self.world;
        let start = Instant::now();
        let snapshot = tracer.span("broker.snapshot", round, || w.broker.snapshot(now));
        let out = tracer
            .span("solver.solve", round, || {
                w.solver.solve(&w.region, &w.specs, &snapshot)
            })
            .map_err(|e| format!("round {round}: solve failed: {e}"))?;
        rec.counters = solve_counters(&out, &params);
        tracer.annotate_last(&rec.counters);
        tracer
            .span("broker.apply", round, || {
                w.solver.apply(&out, &mut w.broker)
            })
            .map_err(|e| format!("round {round}: apply failed: {e}"))?;
        let (region, twine, mover, broker) = (&w.region, &mut w.twine, &mut w.mover, &mut w.broker);
        rec.executed_moves = tracer.span("mover.execute", round, || {
            mover.execute_targets(broker, now, |s, b| {
                let (_, lost) =
                    tracer.span("twine.evacuate", round, || twine.evacuate(region, b, s));
                ledger.lost += lost;
                rec.evac_lost += lost;
            })
        });
        rec.round_s = start.elapsed().as_secs_f64();
        w.mover.log = Default::default();
        Ok((snapshot, out))
    }

    /// Values the plan and runs the per-round checks.
    fn check_plan(
        &self,
        snapshot: &BrokerSnapshot,
        out: &SolveOutput,
        rec: &mut RoundRecord,
    ) -> PlanScore {
        let w = &self.world;
        let score = self.tracer.span("plan.evaluate", self.round, || {
            evaluate_targets(
                &w.region,
                &w.specs,
                snapshot,
                &self.config.params,
                &out.targets,
            )
        });
        if out.targets.len() != w.region.server_count() {
            rec.failures.push(format!(
                "round {}: plan has {} targets for {} servers",
                self.round,
                out.targets.len(),
                w.region.server_count()
            ));
        }
        if !score.objective.is_finite() {
            rec.failures.push(format!(
                "round {}: plan objective {}",
                self.round, score.objective
            ));
        }
        let hits = rec
            .counters
            .iter()
            .find(|(k, _)| *k == "milp.time_limit_hits")
            .map_or(0.0, |(_, v)| *v);
        if hits > 0.0 {
            rec.failures.push(format!(
                "round {}: {hits} phase(s) stopped on the time limit",
                self.round
            ));
        }
        score
    }

    /// One placement call, timed from outside. The replica count of `job`
    /// (Twine's whole container count for `None`) before and after the
    /// call tells what it placed or stopped.
    fn place_call<F>(
        &mut self,
        name: &str,
        job: Option<JobId>,
        requested: usize,
        rec: &mut RoundRecord,
        call: F,
    ) where
        F: FnOnce(&mut World),
    {
        let count = |w: &World| match job {
            Some(j) => w.twine.placed_replicas(j),
            None => w.twine.allocator.container_count(),
        };
        let before = count(&self.world);
        let start = Instant::now();
        self.tracer.span(name, self.round, || call(&mut self.world));
        let us = start.elapsed().as_secs_f64() * 1e6;
        let after = count(&self.world);
        if after >= before {
            self.ledger.placed += after - before;
        } else {
            self.ledger.stopped += before - after;
        }
        if requested > 0 {
            rec.place_us.push(us);
            let placed = after.saturating_sub(before);
            rec.placements.0 += requested;
            rec.placements.1 += requested.saturating_sub(placed);
        }
    }

    /// The level-2 caller: retry, stop the oldest above the cap, submit,
    /// rescale.
    fn job_stream(&mut self, js: JobStream, now: SimTime, rec: &mut RoundRecord) {
        let missing: usize = self
            .live
            .iter()
            .map(|j| (j.want as usize).saturating_sub(self.world.twine.placed_replicas(j.id)))
            .sum();
        self.place_call("twine.process", None, missing, rec, |w| {
            w.twine.process(&w.region, &mut w.broker, now)
        });
        while self.live.len() + js.submits > js.live_cap {
            let Some(job) = self.live.pop_front() else {
                break;
            };
            let n = self.world.twine.placed_replicas(job.id);
            self.tracer.span("twine.stop", self.round, || {
                let w = &mut self.world;
                w.twine.stop(&mut w.broker, job.id)
            });
            self.ledger.stopped += n;
        }
        let shapes = [
            ContainerSpec::small(),
            ContainerSpec::cores_heavy(),
            ContainerSpec::memory_heavy(),
            ContainerSpec::large(),
        ];
        for _ in 0..js.submits {
            let reservation = ReservationId::from_index(self.job_rng.gen_range(0..js.reservations));
            let container = shapes[self.job_rng.gen_range(0..shapes.len())];
            let replicas = self.job_rng.gen_range(js.replicas.0..=js.replicas.1);
            let spec = JobSpec {
                name: format!("job{}", self.job_serial),
                reservation,
                container,
                replicas,
                rack_anti_affinity: true,
            };
            self.job_serial += 1;
            let mut id = None;
            self.place_call("twine.submit", None, replicas as usize, rec, |w| {
                id = Some(w.twine.submit(&w.region, &mut w.broker, spec));
            });
            rec.candidates.0 += self.world.twine.allocator.last_candidates_evaluated;
            rec.candidates.1 += replicas as usize;
            let id = id.expect("submit returns a job id");
            self.live.push_back(LiveJob { id, want: replicas });
        }
        for _ in 0..js.scales.min(self.live.len()) {
            let k = self.job_rng.gen_range(0..self.live.len());
            let want = self.job_rng.gen_range(js.replicas.0..=js.replicas.1);
            let job = self.live[k];
            self.live[k].want = want;
            let requested =
                (want as usize).saturating_sub(self.world.twine.placed_replicas(job.id));
            let mut result = Ok(());
            self.place_call("twine.scale", Some(job.id), requested, rec, |w| {
                result = w.twine.scale(&w.region, &mut w.broker, job.id, want);
            });
            if let Err(e) = result {
                rec.failures
                    .push(format!("round {}: scale failed: {e:?}", self.round));
            }
        }
    }

    /// Stranded capacity over occupied healthy hosts of the stream's
    /// reservations, each against its reservation's container shapes.
    fn stranded(&mut self, js: JobStream) -> StrandedAccount {
        let w = &mut self.world;
        let mut total = StrandedAccount::default();
        for ri in 0..js.reservations {
            let r = ReservationId::from_index(ri);
            let shapes: Vec<(f64, f64)> = w
                .twine
                .allocator
                .container_shapes(r)
                .iter()
                .map(|s| (s.cores, s.memory_gib))
                .collect();
            if shapes.is_empty() {
                continue;
            }
            let mut free = Vec::new();
            for s in w.broker.members_of(r) {
                if !w.broker.record(s).map(|rec| rec.is_up()).unwrap_or(false) {
                    continue;
                }
                let hw = w.region.catalog.get(w.region.server(s).hardware);
                let (cores, mem) = w.twine.allocator.free_capacity_of(&w.region, s);
                // A host holds containers exactly when some capacity is
                // taken (container shapes are whole cores and GiB).
                if cores < hw.cores as f64 || mem < hw.memory_gib as f64 {
                    free.push((cores, mem));
                }
            }
            total.merge(&stranded_account(free, &shapes));
        }
        total
    }

    /// Runs one full round. Returns what it did and, when the round
    /// produced a plan, the snapshot it solved and the solver's output.
    pub fn step(&mut self, traced: bool) -> (RoundRecord, Option<(BrokerSnapshot, SolveOutput)>) {
        self.round += 1;
        let round = self.round;
        self.tracer.set_enabled(traced);
        let now = SimTime::from_hours(round as u64);
        let mut rec = RoundRecord {
            traced,
            ..RoundRecord::default()
        };
        let tracer = self.tracer;
        let solved = tracer.span("round", round, || {
            self.churn(now, &mut rec);
            self.drift(&mut rec);
            let solved = match self.solve_round(now, &mut rec) {
                Ok((snapshot, out)) => {
                    let score = self.check_plan(&snapshot, &out, &mut rec);
                    rec.score_objective = score.objective;
                    rec.shortfall_rru = score.capacity_shortfall.iter().sum();
                    rec.planned_moves = out.moves.total();
                    rec.plan = Some(digest(&out.targets));
                    Some((snapshot, out))
                }
                Err(e) => {
                    rec.failures.push(e);
                    None
                }
            };
            if let Some(js) = self.config.jobs {
                self.job_stream(js, now, &mut rec);
                rec.stranded = tracer.span("twine.stranded", round, || self.stranded(js));
            }
            let running = self.world.twine.allocator.container_count();
            let l = self.ledger;
            if running + l.lost + l.stopped != l.placed {
                rec.failures.push(format!(
                    "round {round}: containers not conserved: {running} running + {} lost != {} placed - {} stopped",
                    l.lost, l.placed, l.stopped
                ));
            }
            solved
        });
        self.tracer.set_enabled(false);
        (rec, solved)
    }

    /// Solves a round's snapshot again with a fresh session (never
    /// applied) and checks it against the warm plan of that round: same
    /// phase-1 status, objectives within the gap the solver stops at, and
    /// for a sharded round, the sharded plan within `sharded_tolerance` of
    /// a monolithic plan.
    pub fn cold_sample(&self, snapshot: &BrokerSnapshot, warm: &SolveOutput) -> ColdSample {
        let w = &self.world;
        let params = &self.config.params;
        let round = self.round;
        let mut sample = ColdSample::default();
        let start = Instant::now();
        let cold = AsyncSolver::new(params.clone()).solve(&w.region, &w.specs, snapshot);
        sample.solve_s = start.elapsed().as_secs_f64();
        let cold = match cold {
            Ok(c) => c,
            Err(e) => {
                sample
                    .failures
                    .push(format!("round {round}: cold solve failed: {e}"));
                return sample;
            }
        };
        let shards = warm.sharded.as_ref().map_or(1, |r| r.shards.len());
        let tol = agreement_tolerance(params, &cold);
        if cold.phase1.status != warm.phase1.status
            || (cold.phase1.objective - warm.phase1.objective).abs() > tol
        {
            sample.failures.push(format!(
                "round {round}: warm {:?} {} vs cold {:?} {} (tolerance {tol})",
                warm.phase1.status,
                warm.phase1.objective,
                cold.phase1.status,
                cold.phase1.objective
            ));
        }
        if shards > 1 {
            let mono_params = SolverParams {
                shards: 1,
                ..params.clone()
            };
            match AsyncSolver::new(mono_params).solve(&w.region, &w.specs, snapshot) {
                Ok(mono) => {
                    let value = |t: &[Option<ReservationId>]| {
                        evaluate_targets(&w.region, &w.specs, snapshot, params, t).objective
                    };
                    let (m, s) = (value(&mono.targets), value(&warm.targets));
                    let tol = sharded_tolerance(shards, params, m);
                    if (s - m).abs() > tol {
                        sample.failures.push(format!(
                            "round {round}: sharded plan {s} vs monolithic {m} (tolerance {tol})"
                        ));
                    }
                }
                Err(e) => sample
                    .failures
                    .push(format!("round {round}: monolithic solve failed: {e}")),
            }
        }
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What one round decided, without its timings: churn victims,
    /// resizes, plan, and the program's counts.
    type Decisions = (
        u64,
        Vec<(usize, f64)>,
        Option<u64>,
        Vec<(&'static str, f64)>,
    );

    fn decisions(name: &str, seed: u64, rounds: usize) -> Vec<Decisions> {
        let mut config = config(name).expect("known workload");
        config.region = RegionTemplate::tiny();
        let (world, _) = setup(&config).expect("tiny set-up");
        let tracer = Tracer::default();
        let mut runner = Runner::new(config, world, seed, &tracer);
        (0..rounds)
            .map(|_| {
                let (rec, _) = runner.step(false);
                assert!(rec.failures.is_empty(), "{name}: {:?}", rec.failures);
                let counts = rec
                    .counters
                    .into_iter()
                    .filter(|(k, _)| !k.ends_with("_s") && *k != "shard.imbalance")
                    .collect();
                (rec.churned, rec.resized, rec.plan, counts)
            })
            .collect()
    }

    #[test]
    fn seed_fixes_plans_and_counters() {
        for name in ["steady-paper", "sharded-paper", "drift-portfolio"] {
            let a = decisions(name, 11, 4);
            assert!(a.iter().all(|d| d.2.is_some()), "{name}: every round plans");
            assert_eq!(a, decisions(name, 11, 4), "{name}: same seed");
            let b = decisions(name, 12, 4);
            assert!(
                a.iter().zip(&b).all(|(x, y)| x.0 != y.0),
                "{name}: churn victims must follow the seed"
            );
        }
    }
}
