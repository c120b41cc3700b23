//! One benchmark run: set up a workload, drive its rounds for the given
//! time, check every round, and reduce what happened to named metrics.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::stats::{self, mean, median, percentile};
use crate::trace::{Trace, Tracer};
use crate::workload::{self, ColdSample, RoundRecord, Runner, WARMUP_ROUNDS};

/// Wall time after which a run stops even if its tail percentiles lack
/// samples (it then fails), so it always ends well inside three minutes.
const HARD_LIMIT_S: f64 = 150.0;

/// Fewest cold solves a run samples for their median.
const MIN_COLD_SAMPLES: usize = 20;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Layer calls the traced run times; each becomes a `<name>_s` per-layer
/// metric, seconds per traced round.
const SPANS: [&str; 12] = [
    "broker.churn",
    "broker.snapshot",
    "solver.solve",
    "broker.apply",
    "mover.execute",
    "plan.evaluate",
    "twine.process",
    "twine.stop",
    "twine.submit",
    "twine.scale",
    "twine.evacuate",
    "twine.stranded",
];

/// A metric value with its unit.
pub type Metric = (String, f64, &'static str);

/// What a run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// No correctness check failed.
    pub correct: bool,
    /// Operations attempted: rounds plus replica placements.
    pub attempted: usize,
    /// Operations that failed: failed rounds plus unplaced replicas.
    pub failed: usize,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Check failures, one per line.
    pub failures: Vec<String>,
    /// Human-readable facts about the run.
    pub notes: Vec<String>,
    /// The trace of a traced run.
    pub trace: Option<Trace>,
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Sum of one program-reported counter over rounds.
fn counter_sum(records: &[RoundRecord], name: &str) -> f64 {
    records
        .iter()
        .flat_map(|r| r.counters.iter())
        .filter(|(k, _)| *k == name)
        .map(|(_, v)| v)
        .sum()
}

/// Runs `workload` for `seconds` of measured rounds with inputs from
/// `seed`. A traced run records every other round and reports per-layer
/// metrics; an untraced run reports end-to-end metrics.
pub fn run(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let start = Instant::now();
    let config = workload::config(workload).ok_or_else(|| {
        format!(
            "unknown workload {workload:?}; known: {}",
            workload::WORKLOADS.join(", ")
        )
    })?;
    let (world, first) = workload::setup(&config)?;
    let mut setups = vec![first];
    let tracer = Tracer::default();
    let mut runner = Runner::new(config.clone(), world, seed, &tracer);
    let mut out = Outcome::default();
    let mut failures = Vec::new();
    let account = |out: &mut Outcome, rec: &RoundRecord, failures: &mut Vec<String>| {
        out.attempted += 1 + rec.placements.0;
        out.failed += usize::from(!rec.failures.is_empty() || rec.plan.is_none());
        out.failed += rec.placements.1;
        failures.extend(rec.failures.iter().cloned());
    };
    for _ in 0..WARMUP_ROUNDS {
        let (rec, _) = runner.step(false);
        account(&mut out, &rec, &mut failures);
    }

    let min_rounds = stats::min_samples(90);
    let mut records: Vec<RoundRecord> = Vec::new();
    let mut colds: Vec<ColdSample> = Vec::new();
    let mut measured_s = 0.0;
    let mut place_calls = 0;
    loop {
        let i = records.len();
        let calls_ok = config.jobs.is_none() || place_calls >= min_rounds;
        let colds_ok = colds.len() >= MIN_COLD_SAMPLES;
        if measured_s >= seconds && i >= min_rounds && calls_ok && colds_ok {
            break;
        }
        if start.elapsed().as_secs_f64() > HARD_LIMIT_S {
            failures.push(format!(
                "stopped after {HARD_LIMIT_S} s with {i} rounds, {place_calls} placement calls \
                 and {} cold solves",
                colds.len()
            ));
            break;
        }
        let cold_due = i.is_multiple_of(config.cold_every);
        let round_start = Instant::now();
        let (rec, solved) = runner.step(traced && i.is_multiple_of(2));
        measured_s += round_start.elapsed().as_secs_f64();
        account(&mut out, &rec, &mut failures);
        place_calls += rec.place_us.len();
        if let (true, Some((snapshot, output))) = (cold_due, solved) {
            let sample = runner.cold_sample(&snapshot, &output);
            out.attempted += 1;
            out.failed += usize::from(!sample.failures.is_empty());
            failures.extend(sample.failures.iter().cloned());
            colds.push(sample);
        }
        records.push(rec);
    }
    let l = runner.ledger;
    drop(runner);
    // The other set-ups run after the rounds, one world at a time, so the
    // set-up median spans the same stretch of machine time as the rounds.
    for _ in 1..SETUPS {
        setups.push(workload::setup(&config)?.1);
    }
    out.notes.push(format!(
        "{} measured rounds in {measured_s:.3} s after {} set-ups and {WARMUP_ROUNDS} warm-up rounds; \
         {place_calls} placement calls; containers placed {} stopped {} lost {}; \
         {} shard thread(s), available parallelism {}",
        records.len(),
        setups.len(),
        l.placed,
        l.stopped,
        l.lost,
        config.params.shards.max(1),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    ));

    let cold_s: Vec<f64> = colds.iter().map(|c| c.solve_s).collect();
    let fill_s: Vec<f64> = setups.iter().map(|s| s.fill_solve_s).collect();
    let round_s = |traced: bool| -> Vec<f64> {
        records
            .iter()
            .filter(|r| r.traced == traced)
            .map(|r| r.round_s)
            .collect()
    };
    let mut metric = |name: &str, value: Result<f64, String>, unit: &'static str| match value {
        Ok(v) if v.is_finite() => out.metrics.push((name.to_string(), v, unit)),
        Ok(v) => failures.push(format!("{name} is {v}")),
        Err(e) => failures.push(format!("{name}: {e}")),
    };
    let place_us: Vec<f64> = records
        .iter()
        .flat_map(|r| r.place_us.iter().copied())
        .collect();
    let level2 = config.jobs.is_some();
    let mean_of = |f: fn(&RoundRecord) -> f64| mean(&records.iter().map(f).collect::<Vec<_>>());
    // Plan quality and level-2 figures. They are not gated end-to-end
    // metrics: the first two read 0 on healthy runs of most workloads and
    // the rest exist only with a job stream.
    let mut quality = vec![
        (
            "plan.moves_per_round",
            Ok(mean_of(|r| r.planned_moves as f64)),
            "servers",
        ),
        (
            "plan.shortfall_rru",
            Ok(mean_of(|r| r.shortfall_rru)),
            "rru",
        ),
    ];
    if level2 {
        quality.extend([
            ("twine.place_p50_us", percentile(&place_us, 50), "us"),
            ("twine.place_p90_us", percentile(&place_us, 90), "us"),
            (
                "twine.stranded_host_frac",
                Ok(mean_of(|r| r.stranded.host_fraction())),
                "fraction",
            ),
        ]);
    }
    if !traced {
        let rounds = round_s(false);
        metric("round_p50_s", percentile(&rounds, 50), "s");
        metric("round_p90_s", percentile(&rounds, 90), "s");
        metric("cold_solve_s", Ok(median(&cold_s)), "s");
        metric(
            "setup_s",
            Ok(median(
                &setups.iter().map(|s| s.total_s).collect::<Vec<_>>(),
            )),
            "s",
        );
        metric(
            "plan_objective",
            Ok(mean_of(|r| r.score_objective)),
            "objective",
        );
        metric("peak_rss_mb", peak_rss_mb(), "MiB");
        for (name, value, unit) in quality {
            match value {
                Ok(v) => out.notes.push(format!("{name} {v} {unit}")),
                Err(e) => failures.push(format!("{name}: {e}")),
            }
        }
    } else {
        let trace = tracer.finish();
        let traced_rounds = records.iter().filter(|r| r.traced).count().max(1) as f64;
        let mut span_total: BTreeMap<&str, f64> = BTreeMap::new();
        for s in &trace.spans {
            *span_total.entry(&s.name).or_default() += s.duration_ns() as f64 * 1e-9;
        }
        let per_traced =
            |name: &str| Ok(span_total.get(name).copied().unwrap_or(0.0) / traced_rounds);
        let n = records.len().max(1) as f64;
        let per_round = |name: &str| Ok(counter_sum(&records, name) / n);
        let share = |num: f64, den: f64| Ok(if den > 0.0 { num / den } else { 0.0 });

        metric(
            "topology.build_s",
            Ok(median(
                &setups.iter().map(|s| s.build_s).collect::<Vec<_>>(),
            )),
            "s",
        );
        for layer in SPANS {
            metric(&format!("{layer}_s"), per_traced(layer), "s");
        }
        metric(
            "mover.moves",
            Ok(mean(
                &records
                    .iter()
                    .map(|r| r.executed_moves as f64)
                    .collect::<Vec<_>>(),
            )),
            "servers",
        );
        for name in [
            "phases.p1_s",
            "phases.p2_s",
            "phases.ras_build_s",
            "phases.solver_build_s",
            "phases.root_lp_s",
            "phases.bnb_s",
            "phases.p1_unattributed_s",
            "shard.merge_s",
            "shard.slowest_s",
        ] {
            metric(name, per_round(name), "s");
        }
        for flag in [
            "reuse",
            "patch",
            "basis_accepted",
            "dual_resolve",
            "phase2_skipped",
        ] {
            metric(
                &format!("session.{flag}_frac"),
                per_round(&format!("session.{flag}")),
                "fraction",
            );
        }
        for name in [
            "session.nodes_pruned_by_seed",
            "aggregate.vars",
            "aggregate.excluded_servers",
            "shard.released",
            "milp.iters",
            "milp.phase1_iters",
            "milp.dual_iters",
            "milp.nodes",
            "milp.refactors",
            "milp.basis_updates",
        ] {
            metric(name, per_round(name), "count");
        }
        metric("shard.imbalance", per_round("shard.imbalance"), "ratio");
        let growth = counter_sum(&records, "milp.refactors_growth");
        let triggered = growth
            + counter_sum(&records, "milp.refactors_interval")
            + counter_sum(&records, "milp.refactors_accuracy");
        metric(
            "milp.refactor_growth_frac",
            share(growth, triggered),
            "fraction",
        );
        metric(
            "milp.refactors_growth",
            per_round("milp.refactors_growth"),
            "count",
        );
        metric("milp.refactors_triggered", Ok(triggered / n), "count");
        let hits = counter_sum(&records, "milp.pricing_hits");
        let rebuilds = counter_sum(&records, "milp.pricing_rebuilds");
        metric(
            "milp.pricing_hit_frac",
            share(hits, hits + rebuilds),
            "fraction",
        );
        let lp_s =
            counter_sum(&records, "phases.root_lp_s") + counter_sum(&records, "phases.bnb_s");
        metric(
            "milp.us_per_iter",
            share(lp_s * 1e6, counter_sum(&records, "milp.iters")),
            "us",
        );
        let gaps: Vec<f64> = records
            .iter()
            .flat_map(|r| r.counters.iter())
            .filter(|(k, _)| *k == "milp.gap")
            .map(|(_, v)| *v)
            .collect();
        metric("milp.gap_p90", percentile(&gaps, 90), "fraction");
        metric(
            "milp.time_limit_hits",
            Ok(counter_sum(&records, "milp.time_limit_hits")),
            "count",
        );
        let (cands, reps) = records.iter().fold((0, 0), |(c, r), rec| {
            (c + rec.candidates.0, r + rec.candidates.1)
        });
        metric(
            "twine.candidates_per_replica",
            share(cands as f64, reps as f64),
            "count",
        );
        metric(
            "twine.evac_lost",
            Ok(mean(
                &records
                    .iter()
                    .map(|r| r.evac_lost as f64)
                    .collect::<Vec<_>>(),
            )),
            "count",
        );
        let (asked, unplaced) = records.iter().fold((0, 0), |(a, u), rec| {
            (a + rec.placements.0, u + rec.placements.1)
        });
        metric(
            "twine.unplaced_frac",
            share(unplaced as f64, asked as f64),
            "fraction",
        );
        for (name, value, unit) in quality {
            metric(name, value, unit);
        }
        if !level2 {
            for name in ["twine.place_p50_us", "twine.place_p90_us"] {
                metric(name, Ok(0.0), "us");
            }
            metric("twine.stranded_host_frac", Ok(0.0), "fraction");
        }
        let (p50_on, p50_off) = (median(&round_s(true)), median(&round_s(false)));
        metric("trace.overhead_s", Ok(p50_on - p50_off), "s");

        let mut trace = trace;
        for (key, value) in [
            ("workload", workload.to_string()),
            ("seed", seed.to_string()),
            ("traced_rounds", traced_rounds.to_string()),
            ("round_p50_traced_s", p50_on.to_string()),
            ("round_p50_untraced_s", p50_off.to_string()),
            ("overhead_s", (p50_on - p50_off).to_string()),
            ("first_fill_solve_s", median(&fill_s).to_string()),
            ("cold_solve_s", median(&cold_s).to_string()),
        ] {
            trace.meta.push((key.to_string(), value));
        }
        out.trace = Some(trace);
    }
    let list = |v: &[f64]| {
        v.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.notes.push(format!(
        "set-ups {} s (first-fill solves {} s, iterations/nodes {:?}); cold solves {} s",
        list(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>()),
        list(&fill_s),
        setups.iter().map(|s| s.fill_work).collect::<Vec<_>>(),
        list(&cold_s)
    ));
    out.notes.push(format!(
        "measured rounds: {} simplex iterations, {} B&B nodes",
        counter_sum(&records, "milp.iters"),
        counter_sum(&records, "milp.nodes")
    ));
    out.correct = failures.is_empty();
    out.failures = failures;
    Ok(out)
}
