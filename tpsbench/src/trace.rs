//! Spans recorded from outside the simulator.
//!
//! The benchmark wraps each call into a public function of a layer in a
//! span (name, start, end, parent). Spans are kept in memory and written
//! out once, at the end of the traced run, as Chrome trace-event JSON
//! (Perfetto and `chrome://tracing` open it).
//!
//! A layer's **self time** is its span's duration minus the part of that
//! interval its child spans cover. Children of one span may overlap in
//! time when they ran on different threads (a sweep at N workers), so
//! the covered part is the *union* of the child intervals, never their
//! sum. Phase totals a public call reports about itself (the traffic
//! run's `TrafficWall`) have no interval; they are recorded as
//! [`Phase`]s of the span and subtracted from its self time as they are.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Small per-process thread number (the Chrome `tid`).
    pub thread: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A phase total reported by the program for the inside of a span.
#[derive(Debug, Clone)]
pub struct Phase {
    pub parent: SpanId,
    pub name: &'static str,
    pub ns: u64,
}

/// In-memory span recorder, shared by every thread of a traced run.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    phases: Mutex<Vec<Phase>>,
}

fn thread_number() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local!(static ID: u64 = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    #[must_use]
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            phases: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("trace shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id
    /// so calls it makes can be recorded as its children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let thread = thread_number();
        let id = {
            let mut spans = self.spans.lock().expect("span recorder poisoned");
            let start_ns = self.now_ns();
            spans.push(Span {
                name,
                parent,
                thread,
                start_ns,
                end_ns: start_ns,
            });
            SpanId(spans.len() - 1)
        };
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans.lock().expect("span recorder poisoned")[id.0].end_ns = end_ns;
        out
    }

    /// Records a phase total measured inside `parent` by the program.
    pub fn phase(&self, parent: SpanId, name: &'static str, ns: u64) {
        self.phases
            .lock()
            .expect("phase recorder poisoned")
            .push(Phase { parent, name, ns });
    }

    /// Stops recording and hands back everything recorded.
    #[must_use]
    pub fn finish(self) -> Trace {
        Trace {
            spans: self.spans.into_inner().expect("span recorder poisoned"),
            phases: self.phases.into_inner().expect("phase recorder poisoned"),
        }
    }
}

/// A finished trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
    pub phases: Vec<Phase>,
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(lo: u64, hi: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

impl Trace {
    /// Self time of every span, in span order.
    #[must_use]
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(SpanId(p)) = span.parent {
                children[p].push((span.start_ns, span.end_ns));
            }
        }
        let mut phase_ns = vec![0u64; self.spans.len()];
        for phase in &self.phases {
            phase_ns[phase.parent.0] += phase.ns;
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .zip(phase_ns)
            .map(|((span, kids), phases)| {
                span.duration_ns()
                    .saturating_sub(covered_ns(span.start_ns, span.end_ns, kids))
                    .saturating_sub(phases)
            })
            .collect()
    }

    /// Self time per span name, plus each phase total under its own
    /// name, counting only spans under `root` (inclusive).
    #[must_use]
    pub fn self_ns_by_name(&self, root: SpanId) -> BTreeMap<&'static str, u64> {
        let under = self.descends_from(root);
        let mut by_name = BTreeMap::new();
        for (i, ns) in self.self_times_ns().into_iter().enumerate() {
            if under[i] {
                *by_name.entry(self.spans[i].name).or_insert(0) += ns;
            }
        }
        for phase in &self.phases {
            if under[phase.parent.0] {
                *by_name.entry(phase.name).or_insert(0) += phase.ns;
            }
        }
        by_name
    }

    /// Durations of the spans named `name` under `root`.
    #[must_use]
    pub fn durations_ns(&self, root: SpanId, name: &str) -> Vec<u64> {
        let under = self.descends_from(root);
        self.spans
            .iter()
            .zip(under)
            .filter(|(s, u)| *u && s.name == name)
            .map(|(s, _)| s.duration_ns())
            .collect()
    }

    #[must_use]
    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id.0]
    }

    /// Parents are always recorded before their children, so one pass
    /// in recording order marks every descendant of `root`.
    fn descends_from(&self, root: SpanId) -> Vec<bool> {
        let mut under = vec![false; self.spans.len()];
        under[root.0] = true;
        for i in root.0 + 1..self.spans.len() {
            if let Some(SpanId(p)) = self.spans[i].parent {
                under[i] = under[p];
            }
        }
        under
    }

    /// Chrome trace-event JSON: one complete (`"ph":"X"`) event per
    /// span, with the parent index and any phase totals as arguments.
    #[must_use]
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, span) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i}",
                span.name,
                span.thread,
                span.start_ns as f64 / 1e3,
                span.duration_ns() as f64 / 1e3,
            );
            if let Some(SpanId(p)) = span.parent {
                let _ = write!(out, ",\"parent\":{p}");
            }
            for phase in self.phases.iter().filter(|p| p.parent.0 == i) {
                let _ = write!(out, ",\"{}_ns\":{}", phase.name, phase.ns);
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent: parent.map(SpanId),
            thread: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // A parent at [0, 100) with two children that ran on two threads
        // at once, [10, 60) and [30, 80): they cover [10, 80), so the
        // parent's self time is 30, not 100 - 50 - 50. A child that ends
        // after its parent covers only its part inside the parent.
        let trace = Trace {
            spans: vec![
                span("root", None, 0, 100),
                span("child", Some(0), 10, 60),
                span("child", Some(0), 30, 80),
                span("late", Some(0), 90, 120),
            ],
            phases: Vec::new(),
        };
        assert_eq!(trace.self_times_ns(), vec![20, 50, 50, 30]);
    }

    #[test]
    fn sequential_children_and_phases_sum_to_the_root() {
        let trace = Trace {
            spans: vec![
                span("root", None, 0, 100),
                span("a", Some(0), 0, 20),
                span("b", Some(0), 25, 90),
                span("c", Some(2), 30, 40),
                span("c", Some(2), 50, 60),
                span("d", Some(3), 35, 38),
            ],
            phases: vec![Phase {
                parent: SpanId(2),
                name: "p",
                ns: 5,
            }],
        };
        let selves = trace.self_times_ns();
        assert_eq!(selves, vec![15, 20, 40, 7, 10, 3]);
        let by_name = trace.self_ns_by_name(SpanId(0));
        assert_eq!(by_name["c"], 17);
        assert_eq!(by_name["p"], 5);
        assert_eq!(by_name.values().sum::<u64>(), 100);
    }

    #[test]
    fn self_times_are_counted_per_subtree() {
        let trace = Trace {
            spans: vec![
                span("t1", None, 0, 10),
                span("x", Some(0), 0, 4),
                span("tN", None, 10, 20),
                span("x", Some(2), 10, 17),
            ],
            phases: Vec::new(),
        };
        assert_eq!(trace.self_ns_by_name(SpanId(0))["x"], 4);
        assert_eq!(trace.self_ns_by_name(SpanId(2))["x"], 7);
        assert_eq!(trace.durations_ns(SpanId(2), "x"), vec![7]);
    }

    #[test]
    fn recorded_spans_nest_and_export() {
        let tracer = Tracer::new();
        let root = tracer.span("root", None, |root| {
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| tracer.span("worker", Some(root), |_| {}));
                }
            });
            tracer.phase(root, "phase", 0);
            root
        });
        let trace = tracer.finish();
        assert_eq!(trace.spans.len(), 3);
        let by_name = trace.self_ns_by_name(root);
        assert_eq!(
            by_name.values().sum::<u64>(),
            trace.span(root).duration_ns()
        );
        let json = trace.chrome_json();
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 3);
        assert_eq!(json.matches("\"parent\":0").count(), 2);
    }
}
