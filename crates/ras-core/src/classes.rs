//! Symmetric-server equivalence classes (paper Section 3.5.2).
//!
//! Servers whose assignment variables would have identical coefficients
//! in every constraint and objective are merged into one integer variable
//! counting how many of the class go to each reservation. The class key
//! is: hardware type × location (MSB in phase 1, rack in phase 2) ×
//! current reservation × previous-solve target × in-use flag. Servers
//! that are unavailable for *unplanned* reasons are excluded entirely
//! (the availability constraint); planned maintenance remains usable
//! capacity (Section 3.3.1).
//!
//! [`build_reduction`] is the one reduction every solve path runs: it
//! builds the classes, interns their labels and records the size stats.

use std::collections::BTreeMap;

use ras_broker::{BrokerSnapshot, ReservationId, UnavailabilityKind};
use ras_topology::{DatacenterId, HardwareTypeId, MsbId, RackId, Region, ServerId};
use serde::{Deserialize, Serialize};

use crate::model::solver_visible;
use crate::reservation::ReservationSpec;

/// Location granularity of the class key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Granularity {
    /// Phase 1: group by MSB, ignoring racks (fewer, larger classes).
    Msb,
    /// Phase 2: group by rack (more, smaller classes).
    Rack,
}

/// One equivalence class of interchangeable servers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EquivClass {
    /// Member servers (all interchangeable under the model).
    pub servers: Vec<ServerId>,
    /// Common hardware type.
    pub hardware: HardwareTypeId,
    /// Common MSB.
    pub msb: MsbId,
    /// Common datacenter.
    pub datacenter: DatacenterId,
    /// Common rack (only at [`Granularity::Rack`]).
    pub rack: Option<RackId>,
    /// Reservation the members are currently bound to.
    pub current: Option<ReservationId>,
    /// Target already planned by a previous solve (stability objective).
    pub target: Option<ReservationId>,
    /// True when members run containers (movement cost `Ms` is ~10×).
    pub in_use: bool,
}

impl EquivClass {
    /// Number of members.
    pub fn count(&self) -> usize {
        self.servers.len()
    }

    /// Stable identity of the class, derived from its grouping key alone
    /// (never from member count or position). Model variable/constraint
    /// names embed this label so a basis snapshotted in one round can be
    /// matched by name against the next round's model even after classes
    /// appeared, vanished, or were reordered (see `ras_milp::Basis::remap`).
    /// Labels are built once per [`Reduction`] into an interned table;
    /// model build and basis remap reuse that table instead of
    /// re-deriving a fresh `String` per class per round.
    pub fn label(&self) -> String {
        use std::fmt::Write;
        fn opt(out: &mut String, r: Option<ReservationId>) {
            match r {
                Some(r) => {
                    let _ = write!(out, "{}", r.0);
                }
                None => out.push('-'),
            }
        }
        let mut out = String::with_capacity(24);
        let _ = write!(out, "h{}.m{}.k", self.hardware.0, self.msb.0);
        match self.rack {
            Some(r) => {
                let _ = write!(out, "{}", r.0);
            }
            None => out.push('-'),
        }
        out.push_str(".c");
        opt(&mut out, self.current);
        out.push_str(".t");
        opt(&mut out, self.target);
        out.push_str(".u");
        out.push(if self.in_use { '1' } else { '0' });
        out
    }

    /// The grouping key as a comparable tuple, for cross-round diffing.
    #[allow(clippy::type_complexity)]
    pub fn key(
        &self,
    ) -> (
        u32,
        u32,
        Option<u32>,
        Option<ReservationId>,
        Option<ReservationId>,
        bool,
    ) {
        (
            self.hardware.0,
            self.msb.0,
            self.rack.map(|r| r.0),
            self.current,
            self.target,
            self.in_use,
        )
    }
}

/// Builds the equivalence classes for one solve.
///
/// `include` optionally restricts the class universe (phase 2 passes the
/// servers belonging to the refined reservations plus the free pool).
pub fn build_classes(
    region: &Region,
    snapshot: &BrokerSnapshot,
    granularity: Granularity,
    include: Option<&dyn Fn(ServerId) -> bool>,
) -> Vec<EquivClass> {
    build_classes_counted(region, snapshot, granularity, include).0
}

/// [`build_classes`] plus the number of servers it excluded as
/// unplanned-unavailable, so reduction stats can account for the whole
/// universe instead of dropping those servers silently.
pub fn build_classes_counted(
    region: &Region,
    snapshot: &BrokerSnapshot,
    granularity: Granularity,
    include: Option<&dyn Fn(ServerId) -> bool>,
) -> (Vec<EquivClass>, usize) {
    type Key = (
        u32,                   // hardware
        u32,                   // msb
        Option<u32>,           // rack
        Option<ReservationId>, // current
        Option<ReservationId>, // target
        bool,                  // in_use
    );
    let mut groups: BTreeMap<Key, Vec<ServerId>> = BTreeMap::new();
    let mut excluded = 0usize;
    #[cfg(debug_assertions)]
    let mut universe = 0usize;
    for server in region.servers() {
        if let Some(f) = include {
            if !f(server.id) {
                continue;
            }
        }
        #[cfg(debug_assertions)]
        {
            universe += 1;
        }
        let record = snapshot.record(server.id);
        if let Some(event) = &record.unavailability {
            // Unplanned and correlated outages remove the server from the
            // assignable pool; planned maintenance does not.
            if event.kind != UnavailabilityKind::PlannedMaintenance {
                excluded += 1;
                continue;
            }
        }
        let rack = match granularity {
            Granularity::Msb => None,
            Granularity::Rack => Some(server.rack.0),
        };
        let key: Key = (
            server.hardware.0,
            server.msb.0,
            rack,
            record.current,
            record.target,
            record.running_containers > 0,
        );
        groups.entry(key).or_default().push(server.id);
    }
    let classes: Vec<EquivClass> = groups
        .into_iter()
        .map(|((hw, msb, rack, current, target, in_use), servers)| {
            let probe = region.server(servers[0]);
            EquivClass {
                servers,
                hardware: HardwareTypeId(hw),
                msb: MsbId(msb),
                datacenter: probe.datacenter,
                rack: rack.map(RackId),
                current,
                target,
                in_use,
            }
        })
        .collect();
    #[cfg(debug_assertions)]
    debug_assert_eq!(
        total_servers(&classes) + excluded,
        universe,
        "every include-filtered server must be classed or counted excluded"
    );
    (classes, excluded)
}

/// Total member count across classes.
pub fn total_servers(classes: &[EquivClass]) -> usize {
    classes.iter().map(|c| c.count()).sum()
}

/// Size accounting of one class reduction.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReductionStats {
    /// Servers covered by the classes.
    pub servers: usize,
    /// Servers the class builder excluded as unplanned-unavailable
    /// (`servers + servers_excluded` equals the include-filtered
    /// universe, asserted in debug builds).
    pub servers_excluded: usize,
    /// Class count.
    pub classes: usize,
    /// Eligible (class, reservation) assignment variables of the
    /// class-reduced model.
    pub vars_reduced: usize,
}

/// One solve's server-side reduction: the classes, their interned
/// labels, and size stats. Every solve path builds it once per round and
/// threads it through model build, warm-start diffing and target
/// concretization.
#[derive(Debug, Clone)]
pub struct Reduction {
    /// The equivalence classes.
    pub classes: Vec<EquivClass>,
    /// Interned class labels, parallel to `classes`, reused for model
    /// variable/row names and basis remapping.
    pub labels: Vec<String>,
    /// Size accounting.
    pub stats: ReductionStats,
}

/// Builds the classes for one solve over `specs` (see
/// [`build_classes`] for `include`), interns their labels and counts
/// the eligible assignment variables.
pub fn build_reduction(
    region: &Region,
    snapshot: &BrokerSnapshot,
    specs: &[ReservationSpec],
    granularity: Granularity,
    include: Option<&dyn Fn(ServerId) -> bool>,
) -> Reduction {
    let (classes, excluded) = build_classes_counted(region, snapshot, granularity, include);
    let labels = classes.iter().map(|c| c.label()).collect();
    let vars_reduced = classes
        .iter()
        .map(|class| {
            specs
                .iter()
                .filter(|s| solver_visible(s) && s.rru.eligible(class.hardware))
                .count()
        })
        .sum();
    let stats = ReductionStats {
        servers: total_servers(&classes),
        servers_excluded: excluded,
        classes: classes.len(),
        vars_reduced,
    };
    Reduction {
        classes,
        labels,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ras_broker::{ResourceBroker, SimTime, UnavailabilityEvent};
    use ras_topology::{RegionBuilder, RegionTemplate, ScopeId};

    fn setup() -> (Region, ResourceBroker) {
        let region = RegionBuilder::new(RegionTemplate::tiny(), 42).build();
        let broker = ResourceBroker::new(region.server_count());
        (region, broker)
    }

    #[test]
    fn classes_partition_the_available_fleet() {
        let (region, broker) = setup();
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        assert_eq!(total_servers(&classes), region.server_count());
        for class in &classes {
            for s in &class.servers {
                let server = region.server(*s);
                assert_eq!(server.hardware, class.hardware);
                assert_eq!(server.msb, class.msb);
            }
        }
    }

    #[test]
    fn msb_granularity_is_coarser_than_rack() {
        let (region, broker) = setup();
        let snap = broker.snapshot(SimTime::ZERO);
        let coarse = build_classes(&region, &snap, Granularity::Msb, None).len();
        let fine = build_classes(&region, &snap, Granularity::Rack, None).len();
        assert!(coarse < fine, "coarse {coarse} >= fine {fine}");
    }

    #[test]
    fn unplanned_down_servers_are_excluded_planned_kept() {
        let (region, mut broker) = setup();
        let down = ServerId(0);
        let maint = ServerId(1);
        broker
            .mark_down(UnavailabilityEvent {
                server: down,
                kind: UnavailabilityKind::UnplannedHardware,
                scope: ScopeId::Server(down),
                start: SimTime::ZERO,
                expected_end: None,
            })
            .unwrap();
        broker
            .mark_down(UnavailabilityEvent {
                server: maint,
                kind: UnavailabilityKind::PlannedMaintenance,
                scope: ScopeId::Server(maint),
                start: SimTime::ZERO,
                expected_end: Some(SimTime::from_hours(4)),
            })
            .unwrap();
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Msb, None);
        assert_eq!(total_servers(&classes), region.server_count() - 1);
        let members: Vec<ServerId> = classes.iter().flat_map(|c| c.servers.clone()).collect();
        assert!(!members.contains(&down));
        assert!(members.contains(&maint));
    }

    #[test]
    fn container_state_splits_classes() {
        let (region, mut broker) = setup();
        // Two servers in the same rack (same hardware): one busy.
        let rack = region.racks()[0].clone();
        broker.set_running_containers(rack.servers[0], 3).unwrap();
        let snap = broker.snapshot(SimTime::ZERO);
        let classes = build_classes(&region, &snap, Granularity::Rack, None);
        let own: Vec<&EquivClass> = classes.iter().filter(|c| c.rack == Some(rack.id)).collect();
        assert_eq!(own.len(), 2, "busy and idle members must split");
        assert!(own.iter().any(|c| c.in_use && c.count() == 1));
    }

    #[test]
    fn include_filter_limits_universe() {
        let (region, broker) = setup();
        let snap = broker.snapshot(SimTime::ZERO);
        let keep = |s: ServerId| s.index() < 20;
        let classes = build_classes(&region, &snap, Granularity::Msb, Some(&keep));
        assert_eq!(total_servers(&classes), 20);
    }

    #[test]
    fn counted_builder_accounts_for_exclusions() {
        let (region, mut broker) = setup();
        let down = ServerId(3);
        broker
            .mark_down(UnavailabilityEvent {
                server: down,
                kind: UnavailabilityKind::UnplannedHardware,
                scope: ScopeId::Server(down),
                start: SimTime::ZERO,
                expected_end: None,
            })
            .unwrap();
        let snap = broker.snapshot(SimTime::ZERO);
        let (classes, excluded) = build_classes_counted(&region, &snap, Granularity::Msb, None);
        assert_eq!(excluded, 1);
        assert_eq!(total_servers(&classes) + excluded, region.server_count());
    }

    #[test]
    fn reduction_interns_labels_and_counts_the_universe() {
        let (region, mut broker) = setup();
        let down = ServerId(5);
        broker
            .mark_down(UnavailabilityEvent {
                server: down,
                kind: UnavailabilityKind::UnplannedHardware,
                scope: ScopeId::Server(down),
                start: SimTime::ZERO,
                expected_end: None,
            })
            .unwrap();
        let snap = broker.snapshot(SimTime::ZERO);
        let specs = vec![crate::reservation::ReservationSpec::guaranteed(
            "web",
            30.0,
            crate::rru::RruTable::uniform(&region.catalog, 1.0),
        )];
        let r = build_reduction(&region, &snap, &specs, Granularity::Msb, None);
        let plain = build_classes(&region, &snap, Granularity::Msb, None);
        assert_eq!(r.classes.len(), plain.len());
        for ((a, b), label) in r.classes.iter().zip(&plain).zip(&r.labels) {
            assert_eq!(a.servers, b.servers);
            assert_eq!(label, &b.label(), "interned label must match the class");
        }
        assert_eq!(r.stats.classes, plain.len());
        assert_eq!(r.stats.servers_excluded, 1);
        assert_eq!(r.stats.servers + 1, region.server_count());
        // One uniform spec is eligible on every hardware type.
        assert_eq!(r.stats.vars_reduced, plain.len());
    }

    #[test]
    fn determinism() {
        let (region, broker) = setup();
        let snap = broker.snapshot(SimTime::ZERO);
        let a = build_classes(&region, &snap, Granularity::Msb, None);
        let b = build_classes(&region, &snap, Granularity::Msb, None);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.servers, y.servers);
        }
    }
}
