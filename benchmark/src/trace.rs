//! Spans recorded by the benchmark around its calls into each crate.
//!
//! The programs under test carry no instrumentation yet, so a layer is timed
//! from outside: the traced run wraps every public call in a span
//! `{name, start_ns, end_ns, parent, rep}`, keeps the spans in memory, and
//! writes them out when the run ends. A layer's *self time* is its span minus
//! the part its child spans cover.

use crate::json::{obj, Value};
use crate::stats::fastest;
use std::time::Instant;

/// One timed call. `rep` 0 is set-up; timed repetitions count from 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    pub rep: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Handle of an open span, to be given back to [`Tracer::exit`].
#[must_use = "an entered span must be exited"]
pub struct Open(usize);

/// In-memory span recorder of one traced run (single-threaded: the benchmark
/// drives every workload from one thread).
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    rep: u32,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            rep: 0,
        }
    }

    /// Spans entered from now on belong to repetition `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> Open {
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.open.push(index);
        // Read the clock last, so the recorder's own work stays outside.
        self.spans[index].start_ns = self.now_ns();
        Open(index)
    }

    pub fn exit(&mut self, open: Open) {
        let end = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0].end_ns = end;
    }

    /// Times one call as a leaf span.
    pub fn time<T>(&mut self, name: &'static str, call: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = call();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Timed repetitions (≥ 1) that hold a span called `name`.
    pub fn reps_with(&self, name: &str) -> Vec<u32> {
        let mut reps: Vec<u32> = self
            .spans
            .iter()
            .filter(|s| s.rep > 0 && s.name == name)
            .map(|s| s.rep)
            .collect();
        reps.sort_unstable();
        reps.dedup();
        reps
    }

    /// Summed duration of the spans called `name` in repetition `rep`.
    pub fn total_s(&self, name: &str, rep: u32) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.rep == rep)
            .map(Span::seconds)
            .sum()
    }

    /// Summed self time of the spans called `name` in repetition `rep`.
    pub fn self_s(&self, name: &str, rep: u32) -> f64 {
        self.spans
            .iter()
            .zip(self_times_ns(&self.spans))
            .filter(|(s, _)| s.name == name && s.rep == rep)
            .map(|(_, self_ns)| self_ns as f64 * 1e-9)
            .sum()
    }

    /// [`Tracer::total_s`] in the repetition where it is smallest, among the
    /// timed repetitions that hold such a span; 0 when none does. (The
    /// fastest repetition, for the reason given at [`fastest`].)
    pub fn rep_total_s(&self, name: &str) -> f64 {
        self.fastest_rep(name, |rep| self.total_s(name, rep))
    }

    /// [`Tracer::self_s`], likewise.
    pub fn rep_self_s(&self, name: &str) -> f64 {
        self.fastest_rep(name, |rep| self.self_s(name, rep))
    }

    fn fastest_rep(&self, name: &str, per_rep: impl Fn(u32) -> f64) -> f64 {
        let values: Vec<f64> = self.reps_with(name).into_iter().map(per_rep).collect();
        if values.is_empty() {
            0.0
        } else {
            fastest(&values)
        }
    }

    /// Durations in seconds of every span called `name` in a timed
    /// repetition — the sample a latency percentile is taken from.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.rep > 0)
            .map(Span::seconds)
            .collect()
    }

    /// The span dump written at the end of a traced run.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    obj([
                        ("name", Value::from(s.name)),
                        ("start_ns", Value::from(s.start_ns)),
                        ("end_ns", Value::from(s.end_ns)),
                        ("parent", s.parent.map_or(Value::Null, Value::from)),
                        ("rep", Value::from(u64::from(s.rep))),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of every span: its duration minus the length of the union of
/// its children's intervals, each clipped to the span. Children that overlap
/// one another (possible once spans come from several threads) are counted
/// once; grandchildren are already inside their parent and do not count.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for child in spans {
        if let Some(parent) = child.parent {
            let span = &spans[parent];
            let (start, end) = (
                child.start_ns.max(span.start_ns),
                child.end_ns.min(span.end_ns),
            );
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut children)| {
            children.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in children {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            rep: 1,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("run", 0, 1000, None),
            span("a", 100, 300, Some(0)),       // 200 covered
            span("b", 250, 400, Some(0)),       // overlaps a: adds 300..400
            span("b.inner", 260, 390, Some(2)), // grandchild: not run's child
            span("c", 900, 1200, Some(0)),      // sticks out: clipped to 900..1000
            span("d", 500, 500, Some(0)),       // empty
            span("e", 120, 280, Some(0)),       // nested inside a: adds nothing
        ];
        assert_eq!(self_times_ns(&spans)[0], 1000 - (300 + 100));
        assert_eq!(self_times_ns(&spans)[2], 150 - 130);
        assert_eq!(self_times_ns(&spans)[1], 200);
    }

    #[test]
    fn tracer_records_nesting_and_reps() {
        let mut t = Tracer::new();
        let setup = t.enter("setup");
        t.time("setup.inner", || std::hint::black_box(1 + 1));
        t.exit(setup);
        for rep in 1..=3 {
            t.set_rep(rep);
            let run = t.enter("run");
            t.time("stage", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.time("stage", || ());
            t.exit(run);
        }
        assert_eq!(t.spans().len(), 2 + 3 * 3);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[3].parent, Some(2));
        assert_eq!(t.reps_with("stage"), vec![1, 2, 3]);
        assert!(t.reps_with("setup").is_empty());
        assert_eq!(t.durations_s("stage").len(), 6);
        assert!(
            t.durations_s("setup").is_empty(),
            "rep 0 is set-up, not a sample"
        );
        let (run, stage) = (t.rep_total_s("run"), t.rep_total_s("stage"));
        assert!(stage >= 0.002 && run >= stage);
        assert!((t.rep_self_s("run") - (run - stage)).abs() < 1e-3);
        assert_eq!(t.rep_total_s("absent"), 0.0);
        let dump = t.to_json();
        assert_eq!(dump.as_arr().unwrap().len(), 11);
        assert_eq!(dump.as_arr().unwrap()[0].get("parent"), Some(&Value::Null));
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_is_a_bug() {
        let mut t = Tracer::new();
        let outer = t.enter("outer");
        let _inner = t.enter("inner");
        t.exit(outer);
    }
}
