//! Spans and counters recorded around the benchmark's calls into each
//! layer, kept in memory and written out when the run ends.
//!
//! A span is one call: its name, the round it belongs to, the span that
//! caused it, and its start and end. The round is the root span; the
//! calls it makes are its children. Counters the program reports (phase,
//! solve and warm-start statistics) hang off the span of the call that
//! returned them. Nothing here reaches inside the program.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Debug)]
pub struct Span {
    /// Position in the trace (parents precede their children).
    pub id: usize,
    /// The span that caused this one (`None` for a round).
    pub parent: Option<usize>,
    /// Round the call belongs to.
    pub round: usize,
    /// Layer call name, e.g. `broker.snapshot`.
    pub name: String,
    /// Start, in nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, in nanoseconds since the trace began.
    pub end_ns: u64,
}

impl Span {
    /// Wall time of the call.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A finished trace: run facts, spans and counters.
#[derive(Debug, Default)]
pub struct Trace {
    /// Facts about the whole run (workload, seed, set-up timings).
    pub meta: Vec<(String, String)>,
    /// Spans in the order they were opened.
    pub spans: Vec<Span>,
    /// `(span id, counter name, value)`.
    pub counters: Vec<(usize, String, f64)>,
}

/// In-memory span recorder. Recording is switched per round; while off,
/// [`Tracer::span`] only runs its closure.
#[derive(Debug)]
pub struct Tracer {
    enabled: Cell<bool>,
    origin: Instant,
    open: RefCell<Vec<usize>>,
    trace: RefCell<Trace>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            enabled: Cell::new(false),
            origin: Instant::now(),
            open: RefCell::new(Vec::new()),
            trace: RefCell::new(Trace::default()),
        }
    }
}

impl Tracer {
    /// Turns recording on or off for the calls that follow.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&self, name: &str, round: usize, f: impl FnOnce() -> T) -> T {
        if !self.enabled.get() {
            return f();
        }
        let id = {
            let mut trace = self.trace.borrow_mut();
            let id = trace.spans.len();
            let parent = self.open.borrow().last().copied();
            trace.spans.push(Span {
                id,
                parent,
                round,
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            id
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now_ns();
        self.trace.borrow_mut().spans[id].end_ns = end;
        out
    }

    /// Attaches counters to the most recently opened span.
    pub fn annotate_last(&self, counters: &[(&str, f64)]) {
        if !self.enabled.get() {
            return;
        }
        let mut trace = self.trace.borrow_mut();
        let Some(id) = trace.spans.len().checked_sub(1) else {
            return;
        };
        for (name, value) in counters {
            trace.counters.push((id, name.to_string(), *value));
        }
    }

    /// The recorded trace.
    pub fn finish(self) -> Trace {
        self.trace.into_inner()
    }
}

/// Self time of every span: its duration minus the durations of its
/// direct children. The recorder is single-threaded and strictly nested,
/// so children never overlap each other or leave their parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.duration_ns();
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns().saturating_sub(kids))
        .collect()
}

impl Trace {
    /// Tab-separated text form: `meta`, `span` and `counter` lines.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("# ras-perfbench trace v1\n");
        for (k, v) in &self.meta {
            let _ = writeln!(out, "meta\t{k}\t{v}");
        }
        for s in &self.spans {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "span\t{}\t{parent}\t{}\t{}\t{}\t{}",
                s.id, s.round, s.name, s.start_ns, s.end_ns
            );
        }
        for (id, name, value) in &self.counters {
            let _ = writeln!(out, "counter\t{id}\t{name}\t{value}");
        }
        out
    }

    /// Value of one run fact.
    pub fn meta_value(&self, key: &str) -> Option<&str> {
        self.meta
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Sum of one counter over the whole trace.
    pub fn counter_sum(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .filter(|(_, n, _)| n == name)
            .map(|(_, _, v)| v)
            .sum()
    }

    /// Human-readable report: per-layer self time and counters, tracing
    /// overhead, and the open questions the trace answers.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let get = |k: &str| self.meta_value(k).unwrap_or("?");
        let _ = writeln!(
            out,
            "== trace: workload {} seed {} ({} traced rounds) ==",
            get("workload"),
            get("seed"),
            get("traced_rounds")
        );
        let selfs = self_times(&self.spans);
        let round_total: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        // name -> (calls, inclusive ns, self ns)
        let mut layers: BTreeMap<&str, (usize, u64, u64)> = BTreeMap::new();
        for (s, self_ns) in self.spans.iter().zip(&selfs) {
            let e = layers.entry(&s.name).or_default();
            e.0 += 1;
            e.1 += s.duration_ns();
            e.2 += self_ns;
        }
        let _ = writeln!(
            out,
            "{:<20} {:>7} {:>12} {:>12} {:>9}",
            "span", "calls", "incl_s", "self_s", "self_%"
        );
        for (name, (calls, incl, own)) in &layers {
            let _ = writeln!(
                out,
                "{name:<20} {calls:>7} {:>12.6} {:>12.6} {:>8.2}%",
                *incl as f64 * 1e-9,
                *own as f64 * 1e-9,
                100.0 * *own as f64 / round_total.max(1) as f64
            );
        }
        let mut counters: BTreeMap<&str, (usize, f64)> = BTreeMap::new();
        for (_, name, value) in &self.counters {
            let e = counters.entry(name).or_default();
            e.0 += 1;
            e.1 += value;
        }
        let _ = writeln!(
            out,
            "{:<32} {:>7} {:>16} {:>16}",
            "counter", "n", "sum", "mean"
        );
        for (name, (n, sum)) in &counters {
            let _ = writeln!(
                out,
                "{name:<32} {n:>7} {sum:>16.6} {:>16.6}",
                sum / *n as f64
            );
        }
        let _ = writeln!(
            out,
            "tracing overhead: round p50 traced {} s - untraced {} s = {} s",
            get("round_p50_traced_s"),
            get("round_p50_untraced_s"),
            get("overhead_s")
        );
        let p1 = self.counter_sum("phases.p1_s");
        let gap = self.counter_sum("phases.p1_unattributed_s");
        let _ = writeln!(
            out,
            "answer 1 (phase-1 time outside the four Fig-8 steps): {gap:.6} s of {p1:.6} s phase 1 ({:.2}%)",
            100.0 * gap / p1.max(f64::MIN_POSITIVE)
        );
        let _ = writeln!(
            out,
            "answer 2 (round-0 first fill vs cold solve of a later round): first fill {} s, cold_solve {} s",
            get("first_fill_solve_s"),
            get("cold_solve_s")
        );
        let growth = self.counter_sum("milp.refactors_growth");
        let base = growth
            + self.counter_sum("milp.refactors_interval")
            + self.counter_sum("milp.refactors_accuracy");
        let _ = writeln!(
            out,
            "answer 3 (FT refactorizations triggered by fill growth): {growth} of {base} triggered refactorizations ({:.2}%)",
            100.0 * growth / base.max(1.0)
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            round: 1,
            name: format!("s{id}"),
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            span(2, Some(0), 40, 70),
            span(3, Some(2), 45, 50),
        ];
        // Root: 100 - (20 + 30); span 2: 30 - 5. Grandchildren count
        // only against their own parent.
        assert_eq!(self_times(&spans), vec![50, 20, 25, 5]);
    }

    #[test]
    fn recorder_nests_and_skips_when_off() {
        let tracer = Tracer::default();
        tracer.span("off", 0, || ());
        tracer.set_enabled(true);
        let v = tracer.span("round", 1, || {
            tracer.span("a", 1, || tracer.span("b", 1, || 7))
        });
        tracer.annotate_last(&[("k", 2.5)]);
        let mut trace = tracer.finish();
        trace.meta.push(("workload".into(), "w".into()));
        assert_eq!(v, 7);
        let names: Vec<_> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["round", "a", "b"]);
        assert_eq!(trace.spans[2].parent, Some(1));
        assert_eq!(trace.spans[1].parent, Some(0));
        assert!(trace.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(trace.counters, vec![(2, "k".to_string(), 2.5)]);
        assert!(trace.to_tsv().contains("span\t2\t1\t1\tb\t"));
        assert!(trace.summary().contains("workload w"));
    }
}
