//! Figure 12: correlated-failure buffers shrink as RAS rolls out.
//!
//! The paper's two-month rollout: the region starts under Twine's greedy
//! assignment (≈15.1 % of a service's machines in its largest MSB), RAS
//! is enabled for more reservations over time (→ 5.8 %), and newly
//! turned-up MSBs let it approach the water-filling optimum (4.2 %
//! against a 4.06 % bound; 2.8 % under perfect hardware spread).
//!
//! Rollout emulation: reservations are moved under RAS management in
//! waves; the newest MSBs join the region ("turn-up") midway.

use std::collections::HashSet;

use ras_bench::{fmt, Experiment};
use ras_broker::{ReservationId, ResourceBroker, SimTime};
use ras_core::baseline::GreedyAllocator;
use ras_core::buffers;
use ras_core::phases::{run_phase, Phase};
use ras_core::reservation::{ReservationKind, ReservationSpec};
use ras_core::rru::RruTable;
use ras_core::SolverParams;
use ras_topology::{Region, RegionBuilder, RegionTemplate, ServerId};

fn weighted_share(region: &Region, specs: &[ReservationSpec], broker: &ResourceBroker) -> f64 {
    let targets: Vec<Option<ReservationId>> = broker.iter().map(|(_, r)| r.current).collect();
    let acct = buffers::account(region, specs, &targets);
    let weights: Vec<f64> = (0..specs.len())
        .map(|ri| broker.member_count(ReservationId::from_index(ri)) as f64)
        .collect();
    acct.weighted_max_msb_share(&weights)
}

fn main() {
    let region = RegionBuilder::new(RegionTemplate::medium(), 12).build();
    let n_msbs = region.msbs().len();
    // The newest 4 MSBs are "not yet turned up" at the start.
    let late_msbs: HashSet<usize> = region
        .msbs()
        .iter()
        .filter(|m| m.turnup_order as usize >= n_msbs - 4)
        .map(|m| m.id.index())
        .collect();
    let online_at_start: HashSet<ServerId> = region
        .servers()
        .iter()
        .filter(|s| !late_msbs.contains(&s.msb.index()))
        .map(|s| s.id)
        .collect();

    let mut broker = ResourceBroker::new(region.server_count());
    // 12 services of varying size. Mostly count-based uniform RRUs (the
    // figure's metric is machine shares); the two largest are restricted
    // to newer compute so the hardware-imbalance bound is meaningful.
    // Total demand ≈60 % of the initially-online fleet: the rollout
    // restricts each partial solve to managed + free servers, so the
    // free pool must span several MSBs for migration to be possible.
    let newer_compute = {
        let mut rru = RruTable::empty(&region.catalog);
        for hw in region.catalog.iter() {
            if !hw.has_accelerator() && hw.generation != ras_topology::ProcessorGeneration::Gen1 {
                rru.set(hw.id, 1.0);
            }
        }
        rru
    };
    let mut specs: Vec<ReservationSpec> = (0..12)
        .map(|i| {
            let rru = if i >= 10 {
                newer_compute.clone()
            } else {
                RruTable::uniform(&region.catalog, 1.0)
            };
            ReservationSpec::guaranteed(format!("svc{i}"), (90.0 + 35.0 * i as f64).round(), rru)
        })
        .collect();
    for s in &specs {
        broker.register_reservation(&s.name);
    }
    // Pen for not-yet-turned-up servers so greedy cannot grab them.
    let offline = broker.register_reservation("offline");
    for s in region.servers() {
        if !online_at_start.contains(&s.id) {
            broker.bind_current(s.id, Some(offline)).unwrap();
        }
    }
    specs.push(ReservationSpec::elastic(
        "offline",
        RruTable::uniform(&region.catalog, 1.0),
    ));

    let params = SolverParams::default();
    let mut exp = Experiment::new(
        "fig12",
        "Machines % in max MSB as RAS rolls out",
        "greedy ≈15.1% → RAS 5.8% → 4.2% after MSB turn-ups (bounds: 4.06% optimal, 2.8% perfect)",
        &["week", "ras-managed", "msbs online", "avg max-MSB share %"],
    );

    // Weeks 1-2: pure greedy.
    GreedyAllocator.rebalance(&region, &specs, &mut broker);
    for week in 1..=2 {
        exp.row(&[
            week.to_string(),
            "0/12".into(),
            (n_msbs - late_msbs.len()).to_string(),
            fmt(weighted_share(&region, &specs, &broker) * 100.0, 1),
        ]);
    }

    // Weeks 3-8: RAS manages progressively more reservations; MSB
    // turn-up happens at week 6.
    let managed_per_week = [4usize, 8, 12, 12, 12, 12];
    for (i, managed) in managed_per_week.iter().enumerate() {
        let week = 3 + i;
        let turned_up = week >= 6;
        if turned_up {
            // Release penned servers into the free pool.
            let penned = broker.members_of(offline);
            for s in penned {
                broker.bind_current(s, None).unwrap();
            }
        }
        let managed_set: HashSet<usize> = (0..*managed).collect();
        let mut specs2 = specs.clone();
        for (ri, spec) in specs2.iter_mut().enumerate() {
            if !managed_set.contains(&ri) {
                spec.kind = ReservationKind::Elastic;
            }
        }
        let snapshot = broker.snapshot(SimTime::from_days(week as u64 * 7));
        let universe: HashSet<ServerId> = broker
            .iter()
            .filter(|(s, r)| {
                let in_scope = match r.current {
                    None => true,
                    Some(res) => managed_set.contains(&res.index()),
                };
                let online = turned_up || online_at_start.contains(s);
                in_scope && online
            })
            .map(|(s, _)| s)
            .collect();
        match run_phase(
            &region,
            &specs2,
            &snapshot,
            &params,
            Phase::One,
            Some(&universe),
        ) {
            Ok((targets, _)) => {
                for s in &universe {
                    let t = targets[s.index()];
                    if broker.record(*s).unwrap().current != t {
                        broker.bind_current(*s, t).unwrap();
                    }
                }
            }
            Err(e) => eprintln!("week {week}: solve failed: {e}"),
        }
        exp.row(&[
            week.to_string(),
            format!("{managed}/12"),
            if turned_up {
                n_msbs.to_string()
            } else {
                (n_msbs - late_msbs.len()).to_string()
            },
            fmt(weighted_share(&region, &specs, &broker) * 100.0, 1),
        ]);
    }

    // Bounds.
    let perfect = buffers::perfect_spread_bound(&region);
    let optimal: f64 = {
        // Demand-weighted water-filling bound across services.
        let mut acc = 0.0;
        let mut wsum = 0.0;
        for spec in specs
            .iter()
            .filter(|s| s.kind == ReservationKind::Guaranteed)
        {
            if let Some(b) = buffers::optimal_share_bound(&region, spec) {
                acc += b * spec.capacity;
                wsum += spec.capacity;
            }
        }
        acc / wsum
    };
    exp.note(format!(
        "lower bounds for this region: optimal {:.1}% (paper 4.06%), perfect spread {:.1}% (paper 2.8%)",
        optimal * 100.0,
        perfect * 100.0
    ));
    exp.finish();
}
