//! Ablation: MIP vs local-search backends on the same RAS model.
//!
//! Facebook's ReBalancer library routes RAS to a MIP solver and Shard
//! Manager to local search (Section 6). This ablation runs both backends
//! on one region-assignment model and compares wall-clock, objective,
//! and feasibility — the trade RAS's one-hour SLO allows it to make in
//! favour of solution quality.

use std::time::Instant;

use ras_bench::{fmt, Experiment};
use ras_broker::{ResourceBroker, SimTime};
use ras_core::classes::{build_classes, Granularity};
use ras_core::heuristic::greedy_counts;
use ras_core::model::build_model;
use ras_core::reservation::ReservationSpec;
use ras_core::rru::RruTable;
use ras_core::SolverParams;
use ras_milp::localsearch::LocalSearchConfig;
use ras_milp::{LocalSearch, SolveConfig};
use ras_topology::{RegionBuilder, RegionTemplate};

fn main() {
    let region = RegionBuilder::new(RegionTemplate::tiny(), 88).build();
    let specs: Vec<ReservationSpec> = (0..5)
        .map(|i| {
            ReservationSpec::guaranteed(
                format!("svc{i}"),
                30.0 + 8.0 * i as f64,
                RruTable::uniform(&region.catalog, 1.0),
            )
        })
        .collect();
    let broker = ResourceBroker::new(region.server_count());
    let snapshot = broker.snapshot(SimTime::ZERO);
    let params = SolverParams::default();
    let classes = build_classes(&region, &snapshot, Granularity::Msb, None);
    let ras = build_model(&region, &specs, &classes, &params, false, None);
    let warm = ras.incumbent_from_counts(&greedy_counts(&region, &specs, &classes, &params));

    let mut exp = Experiment::new(
        "ablation_backends",
        "MIP vs local-search backend on one RAS assignment model",
        "ReBalancer can swap backends: MIP buys quality with time; local search answers fast",
        &["backend", "seconds", "objective", "feasible", "gap known"],
    );

    // Exact MIP (with the production warm start).
    let t0 = Instant::now();
    let mip = ras
        .model
        .solve_with(&SolveConfig {
            time_limit_seconds: 20.0,
            rel_gap_tol: params.mip_rel_gap,
            abs_gap_tol: params.mip_abs_gap,
            stall_node_limit: params.stall_node_limit,
            incumbents: vec![warm.clone()],
            ..SolveConfig::default()
        })
        .expect("mip solve");
    exp.row(&[
        "MIP (branch & bound)".into(),
        fmt(t0.elapsed().as_secs_f64(), 2),
        fmt(mip.objective, 1),
        "yes (verified)".into(),
        format!("yes (abs gap {:.1})", mip.stats.absolute_gap),
    ]);

    // Local search at two budgets.
    for (label, iterations) in [
        ("local search (fast)", 50_000),
        ("local search (long)", 500_000),
    ] {
        let t0 = Instant::now();
        let result = LocalSearch::new(LocalSearchConfig {
            iterations,
            // Fair start: production local search begins from the current
            // assignment, not from zero.
            initial: Some(warm.clone()),
            ..LocalSearchConfig::default()
        })
        .solve(&ras.model);
        match result {
            Ok(sol) => {
                let feasible = ras.model.violations(&sol.values, 1e-6).is_empty();
                exp.row(&[
                    label.into(),
                    fmt(t0.elapsed().as_secs_f64(), 2),
                    fmt(sol.objective, 1),
                    if feasible { "yes" } else { "NO" }.into(),
                    "no".into(),
                ]);
            }
            Err(e) => {
                exp.row(&[
                    label.into(),
                    fmt(t0.elapsed().as_secs_f64(), 2),
                    "-".into(),
                    format!("failed: {e}"),
                    "no".into(),
                ]);
            }
        }
    }
    exp.note(format!(
        "MIP objective {:.1} is the quality bar; local search trades it for latency",
        mip.objective
    ));
    exp.finish();
}
