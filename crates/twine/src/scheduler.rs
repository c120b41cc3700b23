//! Job lifecycle management on top of the allocator.
//!
//! Twine's scheduler accepts job submissions, retries jobs that could not
//! fully place (capacity may arrive later — e.g. after the Online Mover
//! materializes new bindings), supports scaling jobs up and down, and
//! tracks container-placement latency. The two-level architecture's
//! promise is that this latency depends on reservation size, never on
//! region size; the tracked stats let tests assert it.

use std::collections::HashMap;
use std::time::Instant;

use ras_broker::{ResourceBroker, SimTime};
use ras_topology::Region;
use serde::{Deserialize, Serialize};

use crate::allocator::{PlacementError, PlacementPolicyKind, TwineAllocator};

use crate::job::{ContainerId, JobId, JobSpec};
use ras_milp::cast;

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Submitted, not all replicas placed yet.
    Pending,
    /// All replicas running.
    Running,
    /// Was running; some replicas were lost and await re-placement.
    Degraded,
    /// Stopped by the owner.
    Stopped,
}

/// Tracked job bookkeeping.
#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    state: JobState,
    containers: Vec<ContainerId>,
}

/// Placement latency statistics (wall-clock, microseconds).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LatencyStats {
    samples_us: Vec<u64>,
}

impl LatencyStats {
    /// Records one sample.
    pub fn push(&mut self, us: u64) {
        self.samples_us.push(us);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples_us.len()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples_us.is_empty()
    }

    /// The `p`-th percentile in microseconds (nearest rank).
    pub fn percentile(&self, p: f64) -> Option<u64> {
        if self.samples_us.is_empty() {
            return None;
        }
        let mut sorted = self.samples_us.clone();
        sorted.sort_unstable();
        let rank = cast::rounded_usize(((p / 100.0) * sorted.len() as f64).ceil().max(1.0)) - 1;
        Some(sorted[rank.min(sorted.len() - 1)])
    }
}

/// The scheduler.
#[derive(Debug, Default)]
pub struct TwineScheduler {
    /// The underlying allocator.
    pub allocator: TwineAllocator,
    jobs: HashMap<JobId, JobEntry>,
    next_job: u32,
    /// Per-placement-call latency.
    pub latency: LatencyStats,
}

impl TwineScheduler {
    /// Creates an empty scheduler (best-fit placement).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty scheduler with the given placement policy.
    pub fn with_policy(kind: PlacementPolicyKind) -> Self {
        Self {
            allocator: TwineAllocator::with_policy(kind),
            ..Self::default()
        }
    }

    /// Submits a job; placement is attempted immediately and retried on
    /// every [`TwineScheduler::process`] until all replicas run.
    pub fn submit(&mut self, region: &Region, broker: &mut ResourceBroker, spec: JobSpec) -> JobId {
        let id = JobId(self.next_job);
        self.next_job += 1;
        self.jobs.insert(
            id,
            JobEntry {
                spec,
                state: JobState::Pending,
                containers: Vec::new(),
            },
        );
        self.try_place(region, broker, id);
        id
    }

    /// Scales a job to a new replica count (up places more; down stops
    /// surplus containers).
    pub fn scale(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        job: JobId,
        replicas: u32,
    ) -> Result<(), PlacementError> {
        let entry = self
            .jobs
            .get_mut(&job)
            .ok_or(PlacementError::UnknownJob(job))?;
        entry.spec.replicas = replicas;
        while cast::idx32(entry.containers.len()) > replicas {
            let Some(c) = entry.containers.pop() else {
                break;
            };
            self.allocator.stop(broker, c);
        }
        if (cast::idx32(entry.containers.len())) < replicas {
            entry.state = JobState::Pending;
        }
        self.try_place(region, broker, job);
        Ok(())
    }

    /// Stops a job and all its containers.
    pub fn stop(&mut self, broker: &mut ResourceBroker, job: JobId) {
        if let Some(entry) = self.jobs.get_mut(&job) {
            for c in entry.containers.drain(..) {
                self.allocator.stop(broker, c);
            }
            entry.state = JobState::Stopped;
        }
    }

    /// Retries placement for every pending/degraded job; call after the
    /// Mover materializes new capacity or failures were repaired.
    pub fn process(&mut self, region: &Region, broker: &mut ResourceBroker, _now: SimTime) {
        let pending: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, e)| matches!(e.state, JobState::Pending | JobState::Degraded))
            .map(|(id, _)| *id)
            .collect();
        for id in pending {
            self.try_place(region, broker, id);
        }
    }

    fn try_place(&mut self, region: &Region, broker: &mut ResourceBroker, job: JobId) {
        let Some(entry) = self.jobs.get_mut(&job) else {
            return;
        };
        if entry.state == JobState::Stopped {
            return;
        }
        let missing = entry
            .spec
            .replicas
            .saturating_sub(cast::idx32(entry.containers.len()));
        if missing == 0 {
            entry.state = JobState::Running;
            return;
        }
        let mut one = entry.spec.clone();
        one.replicas = missing;
        let start = Instant::now();
        // The scheduler's job id travels into the allocator so retries
        // and scale-ups share one identity: anti-affinity sees replicas
        // placed by earlier calls and bookkeeping stays deduplicated.
        let (placed, unplaced) = self.allocator.submit_partial_as(region, broker, job, one);
        // lint:allow(as-cast-audit): u128 micros overflow u64 only after ~584k years
        self.latency.push(start.elapsed().as_micros() as u64);
        entry.containers.extend(placed);
        entry.state = if unplaced == 0 {
            JobState::Running
        } else {
            JobState::Pending
        };
    }

    /// Evacuates a server through the allocator and reconciles job
    /// bookkeeping: re-placed containers keep their job slot under the
    /// new id the allocator minted; containers it could not re-place
    /// are dropped from their jobs, which become `Degraded` so the next
    /// [`TwineScheduler::process`] re-places them. Returns `(moved,
    /// lost)` counts.
    pub fn evacuate(
        &mut self,
        region: &Region,
        broker: &mut ResourceBroker,
        server: ras_topology::ServerId,
    ) -> (usize, usize) {
        let evacuees = self.allocator.evacuate_tracked(region, broker, server);
        let moved = evacuees.iter().filter(|e| e.replaced_by.is_some()).count();
        for e in &evacuees {
            let Some(entry) = self.jobs.get_mut(&e.job) else {
                continue;
            };
            let Some(pos) = entry.containers.iter().position(|c| *c == e.container) else {
                continue;
            };
            match e.replaced_by {
                Some(new) => entry.containers[pos] = new,
                None => {
                    entry.containers.remove(pos);
                    if entry.state == JobState::Running {
                        entry.state = JobState::Degraded;
                    }
                }
            }
        }
        (moved, evacuees.len() - moved)
    }

    /// Current state of one job.
    pub fn state(&self, job: JobId) -> Option<JobState> {
        self.jobs.get(&job).map(|e| e.state)
    }

    /// Replicas currently placed for one job.
    pub fn placed_replicas(&self, job: JobId) -> usize {
        self.jobs.get(&job).map(|e| e.containers.len()).unwrap_or(0)
    }

    /// Number of jobs in each state: (pending, running, degraded, stopped).
    pub fn state_counts(&self) -> (usize, usize, usize, usize) {
        let mut c = (0, 0, 0, 0);
        for e in self.jobs.values() {
            match e.state {
                JobState::Pending => c.0 += 1,
                JobState::Running => c.1 += 1,
                JobState::Degraded => c.2 += 1,
                JobState::Stopped => c.3 += 1,
            }
        }
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::ContainerSpec;
    use ras_broker::ReservationId;
    use ras_topology::{RegionBuilder, RegionTemplate, ServerId};

    fn setup() -> (Region, ResourceBroker, ReservationId) {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let mut broker = ResourceBroker::new(region.server_count());
        let r = broker.register_reservation("web");
        for i in 0..20 {
            broker.bind_current(ServerId(i), Some(r)).unwrap();
        }
        (region, broker, r)
    }

    fn job(r: ReservationId, replicas: u32) -> JobSpec {
        JobSpec {
            name: "j".into(),
            reservation: r,
            container: ContainerSpec::small(),
            replicas,
            rack_anti_affinity: false,
        }
    }

    #[test]
    fn submit_runs_and_tracks_latency() {
        let (region, mut broker, r) = setup();
        let mut sched = TwineScheduler::new();
        let id = sched.submit(&region, &mut broker, job(r, 10));
        assert_eq!(sched.state(id), Some(JobState::Running));
        assert_eq!(sched.placed_replicas(id), 10);
        assert!(!sched.latency.is_empty());
        assert!(sched.latency.percentile(50.0).is_some());
    }

    #[test]
    fn scale_up_and_down() {
        let (region, mut broker, r) = setup();
        let mut sched = TwineScheduler::new();
        let id = sched.submit(&region, &mut broker, job(r, 4));
        sched.scale(&region, &mut broker, id, 8).unwrap();
        assert_eq!(sched.placed_replicas(id), 8);
        sched.scale(&region, &mut broker, id, 2).unwrap();
        assert_eq!(sched.placed_replicas(id), 2);
        assert_eq!(sched.allocator.container_count(), 2);
    }

    #[test]
    fn pending_job_recovers_when_capacity_arrives() {
        let (region, mut broker, r) = setup();
        let mut sched = TwineScheduler::new();
        // Demand more than 20 servers can hold.
        let id = sched.submit(&region, &mut broker, job(r, 500));
        assert_eq!(sched.state(id), Some(JobState::Pending));
        // The reservation grows (mover materializes more capacity)...
        for i in 20..200 {
            broker.bind_current(ServerId(i), Some(r)).unwrap();
        }
        sched.process(&region, &mut broker, SimTime::from_minutes(5));
        assert_eq!(sched.state(id), Some(JobState::Running));
        assert_eq!(sched.placed_replicas(id), 500);
    }

    #[test]
    fn stop_releases_everything() {
        let (region, mut broker, r) = setup();
        let mut sched = TwineScheduler::new();
        let id = sched.submit(&region, &mut broker, job(r, 5));
        // Evacuation re-places containers under fresh ids; the job must
        // follow them, or `stop` releases stale ids and leaks the moves.
        let host = broker
            .iter()
            .find(|(_, rec)| rec.running_containers > 0)
            .map(|(s, _)| s)
            .expect("the job runs somewhere");
        let (moved, lost) = sched.evacuate(&region, &mut broker, host);
        assert!(moved > 0);
        assert_eq!(lost, 0);
        assert_eq!(sched.placed_replicas(id), 5);
        assert_eq!(sched.state(id), Some(JobState::Running));
        sched.stop(&mut broker, id);
        assert_eq!(sched.state(id), Some(JobState::Stopped));
        assert_eq!(sched.allocator.container_count(), 0);
        let total: u32 = broker.iter().map(|(_, rec)| rec.running_containers).sum();
        assert_eq!(total, 0);
        // Stopped jobs stay stopped through process().
        sched.process(&region, &mut broker, SimTime::from_minutes(1));
        assert_eq!(sched.placed_replicas(id), 0);
    }

    #[test]
    fn state_counts_aggregate() {
        let (region, mut broker, r) = setup();
        let mut sched = TwineScheduler::new();
        let a = sched.submit(&region, &mut broker, job(r, 2));
        let _b = sched.submit(&region, &mut broker, job(r, 2));
        sched.stop(&mut broker, a);
        let (pending, running, degraded, stopped) = sched.state_counts();
        assert_eq!((pending, running, degraded, stopped), (0, 1, 0, 1));
    }
}
