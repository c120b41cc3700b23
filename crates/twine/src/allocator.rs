//! Real-time container placement within a reservation.
//!
//! The allocator owns container state for every reservation it manages
//! and keeps the broker's `running_containers` counters in sync, which is
//! how the Async Solver learns which servers are expensive to move.
//!
//! Placement is policy-pluggable: every candidate server that fits the
//! container is scored by a [`PlacementPolicy`] and the lowest score wins
//! (after the rack anti-affinity tier, which the allocator applies
//! itself). Two policies ship:
//!
//! * [`BestFit`] — the classic tightest-stacking rule: least residual
//!   cores after placement. Cheap and dense, but blind to the memory
//!   dimension, so mixed workloads strand memory on core-exhausted hosts
//!   (and vice versa).
//! * [`FarbBalance`] — fragmentation-aware resource balance: scores the
//!   *normalized residual vector* after placement, weighting dimension
//!   balance most heavily so neither cores nor memory is left stranded
//!   behind an exhausted complement.

use std::collections::HashMap;

use ras_broker::{ReservationId, ResourceBroker};
use ras_milp::cast;
use ras_topology::{Region, ServerId};
use serde::{Deserialize, Serialize};

use crate::job::{ContainerId, ContainerSpec, JobId, JobSpec};

/// Why a placement failed.
#[derive(Debug, Clone, PartialEq)]
pub enum PlacementError {
    /// The reservation has no server with enough free capacity.
    NoCapacity {
        /// The reservation that was full.
        reservation: ReservationId,
        /// Replicas that could not be placed.
        unplaced: u32,
    },
    /// The job references a job id that does not exist.
    UnknownJob(JobId),
}

impl std::fmt::Display for PlacementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementError::NoCapacity {
                reservation,
                unplaced,
            } => write!(f, "{reservation} out of capacity ({unplaced} unplaced)"),
            PlacementError::UnknownJob(id) => write!(f, "unknown job {id:?}"),
        }
    }
}

impl std::error::Error for PlacementError {}

/// A candidate server's capacity state as presented to a placement
/// policy. The candidate is already known to fit the container.
#[derive(Debug, Clone, Copy)]
pub struct Candidate {
    /// Free cores before placing the container.
    pub free_cores: f64,
    /// Free memory (GiB) before placing the container.
    pub free_memory_gib: f64,
    /// Total hardware cores of the server.
    pub capacity_cores: f64,
    /// Total hardware memory (GiB) of the server.
    pub capacity_memory_gib: f64,
}

/// Scores feasible candidate servers for one container placement; the
/// lowest score wins. Rack anti-affinity (when the job requests it) is a
/// strictly higher-priority tier applied by the allocator, so a policy
/// only ranks servers within the least-loaded-rack tier.
pub trait PlacementPolicy: std::fmt::Debug + Send + Sync {
    /// Short policy name for reports and benches.
    fn name(&self) -> &'static str;

    /// Score of placing `spec` on `candidate` (which is known to fit).
    /// Lower is better. Scores must be finite.
    fn score(&self, candidate: Candidate, spec: ContainerSpec) -> f64;
}

/// Tightest stacking: least residual cores after placement.
#[derive(Debug, Clone, Copy, Default)]
pub struct BestFit;

impl PlacementPolicy for BestFit {
    fn name(&self) -> &'static str {
        "best-fit"
    }

    fn score(&self, candidate: Candidate, spec: ContainerSpec) -> f64 {
        candidate.free_cores - spec.cores
    }
}

/// Fragmentation-aware resource balance (FARB).
///
/// Scores the normalized post-placement residual `(cpu_res, mem_res)`
/// with three weighted components: dimension *balance*
/// (`|cpu_res − mem_res|`, weighted most heavily — an unbalanced
/// residual is capacity one dimension will strand), *fullness*
/// (`(cpu_res + mem_res) / 2`, prefer filling hosts), and the residual
/// L2 norm as a tiebreaker.
#[derive(Debug, Clone, Copy)]
pub struct FarbBalance {
    /// Weight of the dimension-balance component.
    pub w_balance: f64,
    /// Weight of the fullness component.
    pub w_fullness: f64,
    /// Weight of the residual-L2 tiebreaker.
    pub w_residual: f64,
}

impl Default for FarbBalance {
    fn default() -> Self {
        Self {
            w_balance: 2.0,
            w_fullness: 1.0,
            w_residual: 0.5,
        }
    }
}

impl PlacementPolicy for FarbBalance {
    fn name(&self) -> &'static str {
        "farb"
    }

    fn score(&self, candidate: Candidate, spec: ContainerSpec) -> f64 {
        let cpu_res = (candidate.free_cores - spec.cores) / candidate.capacity_cores.max(1.0);
        let mem_res =
            (candidate.free_memory_gib - spec.memory_gib) / candidate.capacity_memory_gib.max(1.0);
        let balance = (cpu_res - mem_res).abs();
        let fullness = (cpu_res + mem_res) / 2.0;
        let l2 = (cpu_res * cpu_res + mem_res * mem_res).sqrt();
        self.w_balance * balance + self.w_fullness * fullness + self.w_residual * l2
    }
}

/// Constructible policy selector for configs that must be `Clone`
/// (simulation configs, bench wiring) while the allocator itself holds a
/// trait object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum PlacementPolicyKind {
    /// [`BestFit`] tightest stacking (the historical behavior).
    #[default]
    BestFit,
    /// [`FarbBalance`] fragmentation-aware scoring with default weights.
    FarbBalance,
}

impl PlacementPolicyKind {
    /// Builds the policy object.
    pub fn build(self) -> Box<dyn PlacementPolicy> {
        match self {
            PlacementPolicyKind::BestFit => Box::new(BestFit),
            PlacementPolicyKind::FarbBalance => Box::new(FarbBalance::default()),
        }
    }
}

/// Fixed-point scale quantizing policy scores into the placement key.
/// Micro-units keep FARB's normalized scores (≈0–4) well separated while
/// leaving BestFit's core counts far from `i64` range.
const SCORE_SCALE: f64 = 1e6;

/// One evacuated container's fate (see
/// [`TwineAllocator::evacuate_tracked`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evacuee {
    /// Job the container belongs to.
    pub job: JobId,
    /// The container's id before the evacuation.
    pub container: ContainerId,
    /// The id of its re-placed copy, or `None` when it was lost.
    pub replaced_by: Option<ContainerId>,
}

/// A placed container.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Placement {
    job: JobId,
    server: ServerId,
    spec: ContainerSpec,
}

/// The per-region Twine allocator (manages many reservations; each
/// placement decision only looks at one).
#[derive(Debug)]
pub struct TwineAllocator {
    /// Latest spec submitted per job id — identity for anti-affinity and
    /// evacuation re-placement. Retries of the same job update in place
    /// rather than minting duplicates.
    jobs: HashMap<JobId, JobSpec>,
    containers: HashMap<ContainerId, Placement>,
    next_container: u64,
    /// Next allocator-minted job id (for callers without their own ids);
    /// kept past any externally supplied id to avoid collisions.
    next_job: u32,
    /// Free capacity per server (initialized lazily from hardware specs).
    free: HashMap<ServerId, (f64, f64)>,
    policy: Box<dyn PlacementPolicy>,
    /// Candidate-evaluation counter for the latest placement call — the
    /// two-level design keeps this proportional to reservation size, not
    /// region size.
    pub last_candidates_evaluated: usize,
}

impl Default for TwineAllocator {
    fn default() -> Self {
        Self::with_policy(PlacementPolicyKind::BestFit)
    }
}

impl TwineAllocator {
    /// Creates an empty allocator with the default [`BestFit`] policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty allocator with the given placement policy.
    pub fn with_policy(kind: PlacementPolicyKind) -> Self {
        Self {
            jobs: HashMap::new(),
            containers: HashMap::new(),
            next_container: 0,
            next_job: 0,
            free: HashMap::new(),
            policy: kind.build(),
            last_candidates_evaluated: 0,
        }
    }

    /// Name of the active placement policy.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    fn free_capacity(&mut self, region: &Region, server: ServerId) -> (f64, f64) {
        *self.free.entry(server).or_insert_with(|| {
            let hw = region.catalog.get(region.server(server).hardware);
            (hw.cores as f64, hw.memory_gib as f64)
        })
    }

    /// Free capacity `(cores, memory_gib)` currently tracked for one
    /// server (hardware capacity if nothing was ever placed there).
    pub fn free_capacity_of(&mut self, region: &Region, server: ServerId) -> (f64, f64) {
        self.free_capacity(region, server)
    }

    /// True when the container is currently placed.
    pub fn contains(&self, container: ContainerId) -> bool {
        self.containers.contains_key(&container)
    }

    /// The distinct container shapes offered by the reservation's jobs —
    /// the grains for stranded accounting: free capacity on a member is
    /// only *stranded* when none of these shapes can consume it.
    pub fn container_shapes(&self, reservation: ReservationId) -> Vec<ContainerSpec> {
        let mut shapes: Vec<ContainerSpec> = Vec::new();
        for j in self.jobs.values() {
            if j.reservation == reservation && !shapes.contains(&j.container) {
                shapes.push(j.container);
            }
        }
        shapes
    }

    /// Submits a job: places `replicas` containers on the reservation's
    /// servers. Returns the container ids placed.
    ///
    /// Placement policy: filter the reservation's healthy members with
    /// room, then pick the least-loaded rack first (anti-affinity) and
    /// the best policy score otherwise.
    ///
    /// On capacity exhaustion the partial placements *stay* (Twine keeps
    /// retrying in production) but their ids are not returned; callers
    /// that need them should use [`TwineAllocator::submit_partial`].
    pub fn submit(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        job: JobSpec,
    ) -> Result<Vec<ContainerId>, PlacementError> {
        let reservation = job.reservation;
        let want = job.replicas;
        let (placed, unplaced) = self.submit_partial(region, broker, job);
        if unplaced > 0 {
            debug_assert_eq!(cast::idx32(placed.len()) + unplaced, want);
            return Err(PlacementError::NoCapacity {
                reservation,
                unplaced,
            });
        }
        Ok(placed)
    }

    /// Like [`TwineAllocator::submit`] but always returns the ids that
    /// did place, plus the shortfall: `(placed, unplaced)`.
    pub fn submit_partial(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        job: JobSpec,
    ) -> (Vec<ContainerId>, u32) {
        let id = JobId(self.next_job);
        self.submit_partial_as(region, broker, id, job)
    }

    /// Places `job.replicas` containers under the *caller's* job id.
    ///
    /// Schedulers that retry or scale a job call this with the same id
    /// every time, so the rack anti-affinity scan sees replicas placed in
    /// earlier calls and job bookkeeping stays deduplicated (the stored
    /// spec is updated in place, never duplicated).
    pub fn submit_partial_as(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        job_id: JobId,
        job: JobSpec,
    ) -> (Vec<ContainerId>, u32) {
        self.next_job = self.next_job.max(job_id.0.saturating_add(1));
        let reservation = job.reservation;
        let replicas = job.replicas;
        let mut placed = Vec::new();
        self.last_candidates_evaluated = 0;
        self.jobs.insert(job_id, job.clone());
        for _ in 0..replicas {
            match self.place_one(
                region,
                broker,
                reservation,
                job.container,
                job.rack_anti_affinity,
                job_id,
                None,
            ) {
                Some(id) => placed.push(id),
                None => break,
            }
        }
        let unplaced = replicas - cast::idx32(placed.len());
        (placed, unplaced)
    }

    #[allow(clippy::too_many_arguments)]
    fn place_one(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        reservation: ReservationId,
        spec: ContainerSpec,
        anti_affinity: bool,
        job: JobId,
        exclude: Option<ServerId>,
    ) -> Option<ContainerId> {
        // Candidates: the reservation's members only.
        let members = broker.members_of(reservation);
        // Rack usage of this job for anti-affinity.
        let mut job_racks: HashMap<u32, usize> = HashMap::new();
        if anti_affinity {
            for p in self.containers.values() {
                if p.job == job {
                    *job_racks.entry(region.server(p.server).rack.0).or_default() += 1;
                }
            }
        }
        let mut best: Option<(ServerId, (usize, i64))> = None;
        for s in members {
            if exclude == Some(s) {
                continue;
            }
            self.last_candidates_evaluated += 1;
            let record = broker.record(s).ok()?;
            if !record.is_up() {
                continue;
            }
            let (cores, mem) = self.free_capacity(region, s);
            if cores < spec.cores || mem < spec.memory_gib {
                continue;
            }
            let rack_penalty = if anti_affinity {
                job_racks
                    .get(&region.server(s).rack.0)
                    .copied()
                    .unwrap_or(0)
            } else {
                0
            };
            let hw = region.catalog.get(region.server(s).hardware);
            let candidate = Candidate {
                free_cores: cores,
                free_memory_gib: mem,
                capacity_cores: hw.cores as f64,
                capacity_memory_gib: hw.memory_gib as f64,
            };
            // Quantize the policy score so the placement key stays a
            // totally ordered integer even for NaN-free float scores.
            let fit = cast::rounded_i64(self.policy.score(candidate, spec) * SCORE_SCALE);
            let key = (rack_penalty, fit);
            match best {
                Some((_, bk)) if bk <= key => {}
                _ => best = Some((s, key)),
            }
        }
        let (server, _) = best?;
        let (cores, mem) = self.free_capacity(region, server);
        self.free
            .insert(server, (cores - spec.cores, mem - spec.memory_gib));
        let id = ContainerId(self.next_container);
        self.next_container += 1;
        self.containers.insert(id, Placement { job, server, spec });
        let count = cast::idx32(self.containers_on(server));
        broker.set_running_containers(server, count).ok()?;
        Some(id)
    }

    /// Stops one container.
    pub fn stop(&mut self, broker: &mut ResourceBroker, container: ContainerId) {
        if let Some(p) = self.containers.remove(&container) {
            if let Some((c, m)) = self.free.get_mut(&p.server) {
                *c += p.spec.cores;
                *m += p.spec.memory_gib;
            }
            let count = cast::idx32(self.containers_on(p.server));
            let _ = broker.set_running_containers(p.server, count);
        }
    }

    /// Capacity `(cores, memory_gib)` consumed by the containers
    /// currently on one server — the ground truth the `free` map must
    /// mirror (asserted by the allocator property tests).
    pub fn used_on(&self, server: ServerId) -> (f64, f64) {
        self.containers
            .values()
            .filter(|p| p.server == server)
            .fold((0.0, 0.0), |(c, m), p| {
                (c + p.spec.cores, m + p.spec.memory_gib)
            })
    }

    /// Containers currently on one server.
    pub fn containers_on(&self, server: ServerId) -> usize {
        self.containers
            .values()
            .filter(|p| p.server == server)
            .count()
    }

    /// Total running containers.
    pub fn container_count(&self) -> usize {
        self.containers.len()
    }

    /// Evacuates every container from a failed or preempted server and
    /// re-places each within its reservation (onto embedded buffer
    /// capacity after an MSB failure). Returns `(moved, lost)` counts.
    ///
    /// The drained server is excluded from the candidate set even when it
    /// is still up (a preempted server would otherwise be the tightest
    /// fit for its own evacuees and they would bounce straight back).
    pub fn evacuate(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        server: ServerId,
    ) -> (usize, usize) {
        let outcomes = self.evacuate_tracked(region, broker, server);
        let moved = outcomes.iter().filter(|e| e.replaced_by.is_some()).count();
        (moved, outcomes.len() - moved)
    }

    /// [`evacuate`](Self::evacuate), reporting each victim's fate.
    /// Re-placement mints a fresh container id, so callers that track
    /// containers by id (the scheduler's jobs) must follow the
    /// `replaced_by` ids instead of the old ones.
    pub fn evacuate_tracked(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        server: ServerId,
    ) -> Vec<Evacuee> {
        let victims: Vec<(ContainerId, Placement)> = self
            .containers
            .iter()
            .filter(|(_, p)| p.server == server)
            .map(|(id, p)| (*id, *p))
            .collect();
        let mut outcomes = Vec::with_capacity(victims.len());
        for (id, p) in victims {
            self.containers.remove(&id);
            if let Some((c, m)) = self.free.get_mut(&server) {
                *c += p.spec.cores;
                *m += p.spec.memory_gib;
            }
            // An unknown job id cannot happen through the public API; such
            // a container cannot be re-placed faithfully and is lost.
            let job = self
                .jobs
                .get(&p.job)
                .map(|j| (j.reservation, j.rack_anti_affinity));
            let replaced_by = job.and_then(|(reservation, anti)| {
                self.place_one(
                    region,
                    broker,
                    reservation,
                    p.spec,
                    anti,
                    p.job,
                    Some(server),
                )
            });
            outcomes.push(Evacuee {
                job: p.job,
                container: id,
                replaced_by,
            });
        }
        // Re-sync the drained server's broker counter: every victim left,
        // and with the exclusion none can have landed back on it.
        let _ = broker.set_running_containers(server, cast::idx32(self.containers_on(server)));
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use ras_broker::SimTime;
    use ras_topology::{RegionBuilder, RegionTemplate};

    fn setup() -> (Region, ResourceBroker, ReservationId) {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let mut broker = ResourceBroker::new(region.server_count());
        let r = broker.register_reservation("web");
        // Bind the first 30 servers.
        for i in 0..30 {
            broker.bind_current(ServerId(i), Some(r)).unwrap();
        }
        (region, broker, r)
    }

    fn job(r: ReservationId, replicas: u32, anti: bool) -> JobSpec {
        JobSpec {
            name: "j".into(),
            reservation: r,
            container: ContainerSpec::small(),
            replicas,
            rack_anti_affinity: anti,
        }
    }

    #[test]
    fn placement_stays_inside_the_reservation() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        let placed = alloc
            .submit(&region, &mut broker, job(r, 10, false))
            .unwrap();
        assert_eq!(placed.len(), 10);
        for (s, rec) in broker.iter() {
            if rec.running_containers > 0 {
                assert_eq!(rec.current, Some(r), "container outside reservation on {s}");
            }
        }
    }

    #[test]
    fn stacking_coexists_on_one_server() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        alloc
            .submit(&region, &mut broker, job(r, 4, false))
            .unwrap();
        // Best-fit stacking should reuse servers rather than spray.
        let busy = broker
            .iter()
            .filter(|(_, rec)| rec.running_containers > 0)
            .count();
        assert!(busy <= 2, "best-fit should stack, used {busy} servers");
    }

    #[test]
    fn anti_affinity_spreads_across_racks() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        alloc.submit(&region, &mut broker, job(r, 3, true)).unwrap();
        let mut racks = std::collections::HashSet::new();
        for (s, rec) in broker.iter() {
            if rec.running_containers > 0 {
                racks.insert(region.server(s).rack);
            }
        }
        assert_eq!(racks.len(), 3, "3 replicas across 3 racks");
    }

    #[test]
    fn capacity_exhaustion_reports_shortfall() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        // Each server fits a bounded number of small containers; demand far more.
        let err = alloc
            .submit(&region, &mut broker, job(r, 10_000, false))
            .unwrap_err();
        match err {
            PlacementError::NoCapacity { unplaced, .. } => assert!(unplaced > 0),
            e => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn candidates_scale_with_reservation_not_region() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        alloc
            .submit(&region, &mut broker, job(r, 1, false))
            .unwrap();
        assert!(
            alloc.last_candidates_evaluated <= 30,
            "only reservation members may be scanned, got {}",
            alloc.last_candidates_evaluated
        );
    }

    #[test]
    fn stop_frees_capacity() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        let placed = alloc
            .submit(&region, &mut broker, job(r, 2, false))
            .unwrap();
        let busy_before = alloc.container_count();
        alloc.stop(&mut broker, placed[0]);
        assert_eq!(alloc.container_count(), busy_before - 1);
        // Counter synced to broker.
        let total: u32 = broker.iter().map(|(_, rec)| rec.running_containers).sum();
        assert_eq!(total as usize, alloc.container_count());
    }

    #[test]
    fn evacuation_moves_containers_within_reservation() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        alloc.submit(&region, &mut broker, job(r, 6, true)).unwrap();
        let victim = broker
            .iter()
            .find(|(_, rec)| rec.running_containers > 0)
            .map(|(s, _)| s)
            .unwrap();
        // The health-check service marks the server down before Twine
        // evacuates; otherwise containers could land right back on it.
        broker
            .mark_down(ras_broker::UnavailabilityEvent {
                server: victim,
                kind: ras_broker::UnavailabilityKind::UnplannedHardware,
                scope: ras_topology::ScopeId::Server(victim),
                start: SimTime::ZERO,
                expected_end: None,
            })
            .unwrap();
        let on_victim = alloc.containers_on(victim);
        let (moved, lost) = alloc.evacuate(&region, &mut broker, victim);
        assert_eq!(moved, on_victim);
        assert_eq!(lost, 0);
        assert_eq!(alloc.containers_on(victim), 0);
        assert_eq!(alloc.container_count(), 6);
    }

    #[test]
    fn evacuating_an_up_server_never_bounces_back() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        // Two containers stacked on one server make that server the
        // tightest best-fit for its own evacuees.
        let placed = alloc
            .submit(&region, &mut broker, job(r, 2, false))
            .unwrap();
        let victim = alloc.containers.get(&placed[0]).map(|p| p.server).unwrap();
        assert_eq!(alloc.containers_on(victim), 2, "both stack on one server");
        // Preemption drains the server while it is still up.
        let (moved, lost) = alloc.evacuate(&region, &mut broker, victim);
        assert_eq!((moved, lost), (2, 0));
        assert_eq!(
            alloc.containers_on(victim),
            0,
            "evacuees must not land back on the drained server"
        );
        assert_eq!(
            broker.record(victim).unwrap().running_containers,
            0,
            "broker count re-synced after drain"
        );
    }

    #[test]
    fn farb_balances_residual_dimensions() {
        let (region, mut broker, r) = setup();
        let mut best = TwineAllocator::with_policy(PlacementPolicyKind::BestFit);
        let mut farb = TwineAllocator::with_policy(PlacementPolicyKind::FarbBalance);
        assert_eq!(best.policy_name(), "best-fit");
        assert_eq!(farb.policy_name(), "farb");
        // A cores-heavy then a memory-heavy job: best-fit stacks by cores
        // only, FARB keeps the residual vector balanced.
        for alloc in [&mut best, &mut farb] {
            let mut cores_heavy = job(r, 6, false);
            cores_heavy.container = ContainerSpec::cores_heavy();
            let mut mem_heavy = job(r, 6, false);
            mem_heavy.container = ContainerSpec::memory_heavy();
            let _ = alloc.submit_partial(&region, &mut broker, cores_heavy);
            let _ = alloc.submit_partial(&region, &mut broker, mem_heavy);
            // Reset broker container counters between allocators.
            for i in 0..30 {
                let _ = broker.set_running_containers(ServerId(i), 0);
            }
        }
        // Both place everything; FARB's per-server residuals are at least
        // as balanced (smaller normalized |cpu-mem| spread) on busy hosts.
        let spread = |alloc: &mut TwineAllocator| -> f64 {
            let mut total = 0.0;
            for i in 0..30 {
                let s = ServerId(i);
                let hw = region.catalog.get(region.server(s).hardware);
                let (c, m) = alloc.free_capacity_of(&region, s);
                if c < hw.cores as f64 || m < hw.memory_gib as f64 {
                    total += (c / hw.cores as f64 - m / hw.memory_gib as f64).abs();
                }
            }
            total
        };
        let best_spread = spread(&mut best);
        let farb_spread = spread(&mut farb);
        assert!(
            farb_spread <= best_spread + 1e-9,
            "farb residual imbalance {farb_spread} must not exceed best-fit {best_spread}"
        );
    }

    #[test]
    fn retried_submissions_share_one_job_identity() {
        let (region, mut broker, r) = setup();
        let mut alloc = TwineAllocator::new();
        let id = JobId(7);
        let (first, _) = alloc.submit_partial_as(&region, &mut broker, id, job(r, 1, true));
        let (second, _) = alloc.submit_partial_as(&region, &mut broker, id, job(r, 1, true));
        assert_eq!(first.len() + second.len(), 2);
        assert_eq!(alloc.jobs.len(), 1, "retries must not duplicate job specs");
        // Both replicas belong to the same job and anti-affinity saw the
        // first one: they land on different racks.
        let racks: std::collections::HashSet<u32> = alloc
            .containers
            .values()
            .map(|p| region.server(p.server).rack.0)
            .collect();
        assert_eq!(racks.len(), 2, "anti-affinity must span the retry");
    }
}
