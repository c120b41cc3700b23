//! Concretization: turning class counts back into per-server targets.
//!
//! The MIP decides *how many* servers of each equivalence class go to
//! each reservation; this module decides *which ones*. Selection rules:
//!
//! 1. members already bound to the reservation stay (no move);
//! 2. remaining slots are filled from unclaimed members, preferring racks
//!    where the reservation currently has the least capacity, which
//!    realizes the rack spread that phase 1 never saw.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use ras_broker::{BrokerSnapshot, ReservationId};
use ras_topology::{Region, ServerId};

use crate::classes::EquivClass;
use ras_milp::cast;

/// Applies class counts to servers, producing a full target assignment.
///
/// `counts[class][reservation]` comes from [`RasModel::decode`]. Servers
/// outside every class (unavailable ones) keep their current binding.
///
/// [`RasModel::decode`]: crate::model::RasModel::decode
pub fn concretize(
    region: &Region,
    snapshot: &BrokerSnapshot,
    classes: &[EquivClass],
    counts: &[Vec<usize>],
    reservations: usize,
) -> Vec<Option<ReservationId>> {
    // Default: keep whatever the server is currently bound to.
    let mut targets: Vec<Option<ReservationId>> = (0..region.server_count())
        .map(|i| snapshot.records[i].current)
        .collect();
    // Per-(rack, reservation) RRU-ish load used for spread-aware picks.
    let mut rack_load: HashMap<(u32, u32), usize> = HashMap::new();
    for server in region.servers() {
        if let Some(r) = snapshot.records[server.id.index()].current {
            *rack_load.entry((server.rack.0, r.0)).or_default() += 1;
        }
    }

    for (ci, class) in classes.iter().enumerate() {
        // Every class member is reassigned from scratch below.
        for s in &class.servers {
            targets[s.index()] = None;
        }
        let mut need: Vec<usize> = (0..reservations)
            .map(|ri| counts[ci].get(ri).copied().unwrap_or(0).min(class.count()))
            .collect();
        // Pass 1: keep members already in a reservation that still wants
        // them, one walk over the members.
        let mut unclaimed: Vec<ServerId> = Vec::with_capacity(class.count());
        for &s in &class.servers {
            match snapshot.records[s.index()].current {
                Some(cur) if need.get(cur.index()).copied().unwrap_or(0) > 0 => {
                    need[cur.index()] -= 1;
                    targets[s.index()] = Some(cur);
                }
                _ => unclaimed.push(s),
            }
        }
        if need.iter().all(|n| *n == 0) {
            continue;
        }
        // Pass 2: fill remaining demand, each slot taking the unclaimed
        // member with the least-loaded rack (lowest server index on ties).
        // Members of one rack share its load, so only each rack's
        // lowest-index member can win: racks are buckets sorted by index,
        // consumed from the front, and a min-heap over the bucket fronts
        // keyed `(rack load, server index)` makes each pick logarithmic.
        unclaimed.sort_unstable_by_key(|s| (region.server(*s).rack.0, s.index()));
        let mut buckets: Vec<(u32, &[ServerId])> = unclaimed
            .chunk_by(|a, b| region.server(*a).rack == region.server(*b).rack)
            .map(|members| (region.server(members[0]).rack.0, members))
            .collect();
        for (ri, need) in need.into_iter().enumerate() {
            if need == 0 {
                continue;
            }
            let res = ReservationId::from_index(ri);
            let r = cast::idx32(ri);
            // Heap entries: (rack load, front server index, bucket).
            let mut heap: BinaryHeap<Reverse<(usize, usize, usize)>> = buckets
                .iter()
                .enumerate()
                .filter_map(|(b, (rack, members))| {
                    let load = rack_load.get(&(*rack, r)).copied().unwrap_or(0);
                    Some(Reverse((load, members.first()?.index(), b)))
                })
                .collect();
            for _ in 0..need {
                let Some(Reverse((load, _, b))) = heap.pop() else {
                    break;
                };
                let Some((rack, members)) = buckets.get_mut(b) else {
                    break;
                };
                let Some((&s, rest)) = members.split_first() else {
                    break;
                };
                *members = rest;
                targets[s.index()] = Some(res);
                *rack_load.entry((*rack, r)).or_default() += 1;
                if let Some(next) = rest.first() {
                    heap.push(Reverse((load + 1, next.index(), b)));
                }
            }
        }
        // Whatever is left becomes free-pool capacity (target None).
    }
    targets
}

/// Move statistics between a current binding and a target assignment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MoveStats {
    /// Moves of servers with running containers (preemptions).
    pub in_use: usize,
    /// Moves of idle servers.
    pub unused: usize,
}

impl MoveStats {
    /// Total moves.
    pub fn total(&self) -> usize {
        self.in_use + self.unused
    }
}

/// Counts planned moves: servers whose target differs from their current
/// binding and that are currently bound somewhere.
pub fn count_moves(snapshot: &BrokerSnapshot, targets: &[Option<ReservationId>]) -> MoveStats {
    let mut stats = MoveStats::default();
    for (i, record) in snapshot.records.iter().enumerate() {
        if record.current.is_some() && targets[i] != record.current {
            if record.running_containers > 0 {
                stats.in_use += 1;
            } else {
                stats.unused += 1;
            }
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classes::{build_classes, Granularity};
    use ras_broker::{ResourceBroker, SimTime};
    use ras_topology::{RegionBuilder, RegionTemplate};

    fn setup() -> (Region, ResourceBroker) {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let broker = ResourceBroker::new(region.server_count());
        (region, broker)
    }

    #[test]
    fn exact_counts_are_realized() {
        let (region, mut broker) = setup();
        let r0 = broker.register_reservation("a");
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        // Ask for 3 servers from every class.
        let counts: Vec<Vec<usize>> = classes.iter().map(|c| vec![c.count().min(3)]).collect();
        let targets = concretize(&region, &snap, &classes, &counts, 1);
        let assigned = targets.iter().filter(|t| **t == Some(r0)).count();
        let expected: usize = counts.iter().map(|row| row[0]).sum();
        assert_eq!(assigned, expected);
    }

    #[test]
    fn existing_members_are_kept_first() {
        let (region, mut broker) = setup();
        let r0 = broker.register_reservation("a");
        // Bind the first whole class's worth of servers.
        let snap0 = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap0, Granularity::Msb, None);
        let class = &classes[0];
        for s in &class.servers {
            broker.bind_current(*s, Some(r0)).unwrap();
        }
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        // Find the class that now has current == r0; keep all but one.
        let (ci, class) = classes
            .iter()
            .enumerate()
            .find(|(_, c)| c.current == Some(r0))
            .unwrap();
        let mut counts: Vec<Vec<usize>> = classes.iter().map(|_| vec![0]).collect();
        counts[ci][0] = class.count() - 1;
        let targets = concretize(&region, &snap, &classes, &counts, 1);
        let kept = class
            .servers
            .iter()
            .filter(|s| targets[s.index()] == Some(r0))
            .count();
        assert_eq!(kept, class.count() - 1);
        let moves = count_moves(&snap, &targets);
        assert_eq!(moves.total(), 1, "exactly the one surplus server moves out");
    }

    #[test]
    fn unavailable_servers_keep_current_binding() {
        let (region, mut broker) = setup();
        let r0 = broker.register_reservation("a");
        let victim = ServerId(5);
        broker.bind_current(victim, Some(r0)).unwrap();
        broker
            .mark_down(ras_broker::UnavailabilityEvent {
                server: victim,
                kind: ras_broker::UnavailabilityKind::UnplannedHardware,
                scope: ras_topology::ScopeId::Server(victim),
                start: SimTime::ZERO,
                expected_end: None,
            })
            .unwrap();
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        let counts: Vec<Vec<usize>> = classes.iter().map(|_| vec![0]).collect();
        let targets = concretize(&region, &snap, &classes, &counts, 1);
        assert_eq!(targets[victim.index()], Some(r0));
    }

    #[test]
    fn new_assignments_spread_across_racks() {
        let (region, broker) = setup();
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        // Pick the largest class (spanning several racks) and assign half.
        let (ci, class) = classes
            .iter()
            .enumerate()
            .max_by_key(|(_, c)| c.count())
            .unwrap();
        let take = class.count() / 2;
        let mut counts: Vec<Vec<usize>> = classes.iter().map(|_| vec![0]).collect();
        counts[ci][0] = take;
        let targets = concretize(&region, &snap, &classes, &counts, 1);
        let mut per_rack: HashMap<u32, usize> = HashMap::new();
        for s in &class.servers {
            if targets[s.index()].is_some() {
                *per_rack.entry(region.server(*s).rack.0).or_default() += 1;
            }
        }
        if per_rack.len() > 1 {
            let max = per_rack.values().max().unwrap();
            let min = per_rack.values().min().unwrap();
            assert!(
                max - min <= 1,
                "round-robin rack spread expected: {per_rack:?}"
            );
        }
    }

    /// The quadratic scan pass 2 used to run: each slot takes the
    /// unclaimed member minimizing `(rack load, server index)`. Kept as
    /// the reference the bucketed heap must reproduce pick for pick.
    fn concretize_reference(
        region: &Region,
        snapshot: &BrokerSnapshot,
        classes: &[EquivClass],
        counts: &[Vec<usize>],
        reservations: usize,
    ) -> Vec<Option<ReservationId>> {
        let mut targets: Vec<Option<ReservationId>> =
            snapshot.records.iter().map(|r| r.current).collect();
        let mut rack_load: HashMap<(u32, u32), usize> = HashMap::new();
        for server in region.servers() {
            if let Some(r) = snapshot.records[server.id.index()].current {
                *rack_load.entry((server.rack.0, r.0)).or_default() += 1;
            }
        }
        for (ci, class) in classes.iter().enumerate() {
            for s in &class.servers {
                targets[s.index()] = None;
            }
            let mut need: Vec<usize> = (0..reservations)
                .map(|ri| counts[ci].get(ri).copied().unwrap_or(0).min(class.count()))
                .collect();
            let mut unclaimed = Vec::new();
            for &s in &class.servers {
                match snapshot.records[s.index()].current {
                    Some(cur) if need.get(cur.index()).copied().unwrap_or(0) > 0 => {
                        need[cur.index()] -= 1;
                        targets[s.index()] = Some(cur);
                    }
                    _ => unclaimed.push(s),
                }
            }
            for (ri, need) in need.into_iter().enumerate() {
                let r = cast::idx32(ri);
                for _ in 0..need {
                    let Some(pos) = unclaimed
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, s)| {
                            let rack = region.server(**s).rack.0;
                            (rack_load.get(&(rack, r)).copied().unwrap_or(0), s.index())
                        })
                        .map(|(pos, _)| pos)
                    else {
                        break;
                    };
                    let s = unclaimed.swap_remove(pos);
                    targets[s.index()] = Some(ReservationId::from_index(ri));
                    *rack_load.entry((region.server(s).rack.0, r)).or_default() += 1;
                }
            }
        }
        targets
    }

    #[test]
    fn bucketed_fill_matches_the_reference_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for (template, cases) in [(RegionTemplate::tiny(), 24), (RegionTemplate::medium(), 6)] {
            let region = RegionBuilder::new(template, 42).build();
            let mut rng = StdRng::seed_from_u64(0xC0C0);
            for case in 0..cases {
                let reservations = rng.gen_range(1..5);
                let mut broker = ResourceBroker::new(region.server_count());
                for ri in 0..reservations {
                    broker.register_reservation(format!("r{ri}"));
                }
                // From an empty fleet, and with some servers already bound
                // (kept by pass 1, and loading their racks for pass 2).
                let bound = [0.0, 0.3, 0.7][case % 3];
                for i in 0..region.server_count() {
                    if rng.gen::<f64>() < bound {
                        let r = ReservationId::from_index(rng.gen_range(0..reservations));
                        broker
                            .bind_current(ServerId::from_index(i), Some(r))
                            .unwrap();
                    }
                }
                let snap = broker.snapshot(SimTime::ZERO);
                let granularity = if case % 2 == 0 {
                    Granularity::Msb
                } else {
                    Granularity::Rack
                };
                let classes = build_classes(&region, &snap, granularity, None);
                // Random counts, some rows asking for more than the class
                // holds in total.
                let counts: Vec<Vec<usize>> = classes
                    .iter()
                    .map(|c| {
                        (0..reservations)
                            .map(|_| rng.gen_range(0..=c.count() / 2 + 1))
                            .collect()
                    })
                    .collect();
                assert_eq!(
                    concretize(&region, &snap, &classes, &counts, reservations),
                    concretize_reference(&region, &snap, &classes, &counts, reservations),
                    "case {case} ({} servers)",
                    region.server_count()
                );
            }
        }
    }

    #[test]
    fn move_stats_classify_in_use() {
        let (region, mut broker) = setup();
        let r0 = broker.register_reservation("a");
        broker.bind_current(ServerId(0), Some(r0)).unwrap();
        broker.bind_current(ServerId(1), Some(r0)).unwrap();
        broker.set_running_containers(ServerId(0), 2).unwrap();
        let snap = broker.snapshot(SimTime::ZERO);
        let mut targets: Vec<Option<ReservationId>> =
            (0..region.server_count()).map(|_| None).collect();
        targets[2] = Some(r0); // New binding: not a move (current is None).
        let moves = count_moves(&snap, &targets);
        assert_eq!(moves.in_use, 1);
        assert_eq!(moves.unused, 1);
        assert_eq!(moves.total(), 2);
    }
}
