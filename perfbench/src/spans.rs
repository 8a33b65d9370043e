//! In-memory spans recorded around the benchmark's calls into the
//! program, and the per-operation samples the tracing overhead is
//! computed from.
//!
//! A span is `(name, start, end, parent, op)`: `parent` indexes the
//! span that caused it, and every span of one benchmark operation
//! carries that operation's id. Spans are kept in memory and written
//! out as JSON lines when the run ends, so recording costs one short
//! mutex section per span and no I/O.
//!
//! Tracing is per operation: in a traced run the workloads trace every
//! other operation and leave the rest bare, and [`Recorder::overhead`]
//! compares the two halves kind by kind.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One finished (or, while running, open) span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `algo.sortcheck.multiset`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The benchmark operation this span belongs to.
    pub op: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One timed operation: its kind, wall time, and whether it was traced.
#[derive(Debug, Clone)]
struct Sample {
    kind: String,
    nanos: u64,
    traced: bool,
}

/// Collects spans and operation samples for one run.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    samples: Mutex<Vec<Sample>>,
}

/// Where a span being opened hangs: its parent, its operation id, and
/// whether this operation records spans at all.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    rec: &'a Recorder,
    parent: Option<usize>,
    op: u64,
    on: bool,
}

impl Recorder {
    /// A recorder; `enabled == false` records no spans at all.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            samples: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A root scope for operation `op`. It records spans only when the
    /// recorder is enabled and `traced` is set.
    #[must_use]
    pub fn scope(&self, op: u64, traced: bool) -> Scope<'_> {
        Scope {
            rec: self,
            parent: None,
            op,
            on: self.enabled && traced,
        }
    }

    /// Time one operation of `kind` as a root span named `name`, and keep
    /// its wall time as a sample for [`Recorder::overhead`].
    pub fn op<T>(
        &self,
        name: &'static str,
        kind: &str,
        op: u64,
        traced: bool,
        f: impl FnOnce(Scope<'_>) -> T,
    ) -> (T, Duration) {
        let scope = self.scope(op, traced);
        let start = Instant::now();
        let out = scope.span(name, f);
        let took = start.elapsed();
        self.sample(kind, took, scope.on);
        (out, took)
    }

    fn sample(&self, kind: &str, took: Duration, traced: bool) {
        self.samples
            .lock()
            .expect("sample lock poisoned by a panicking workload thread")
            .push(Sample {
                kind: kind.to_string(),
                nanos: u64::try_from(took.as_nanos()).unwrap_or(u64::MAX),
                traced,
            });
    }

    fn open(&self, parent: Option<usize>, op: u64) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("span lock poisoned by a panicking workload thread");
        spans.push(Span {
            name: "",
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        spans.len() - 1
    }

    fn close(&self, id: usize, name: &'static str) {
        let end_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("span lock poisoned by a panicking workload thread");
        spans[id].end_ns = end_ns;
        spans[id].name = name;
    }

    /// A copy of every span recorded so far.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span lock poisoned by a panicking workload thread")
            .clone()
    }

    /// Durations in seconds of every span named `name`.
    #[must_use]
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 * 1e-9)
            .collect()
    }

    /// Tracing overhead as a fraction: for every operation kind timed
    /// both traced and bare, the sum of the traced medians over the sum
    /// of the bare medians, minus one. `0` when no kind has both.
    #[must_use]
    pub fn overhead(&self) -> f64 {
        let samples = self
            .samples
            .lock()
            .expect("sample lock poisoned by a panicking workload thread");
        let mut by_kind: BTreeMap<&str, (Vec<f64>, Vec<f64>)> = BTreeMap::new();
        for s in samples.iter() {
            let entry = by_kind.entry(&s.kind).or_default();
            if s.traced {
                entry.0.push(s.nanos as f64);
            } else {
                entry.1.push(s.nanos as f64);
            }
        }
        let (mut traced, mut bare) = (0.0, 0.0);
        for (t, b) in by_kind.values() {
            if !t.is_empty() && !b.is_empty() {
                traced += crate::stats::median(t);
                bare += crate::stats::median(b);
            }
        }
        if bare > 0.0 {
            traced / bare - 1.0
        } else {
            0.0
        }
    }

    /// Write every span as one JSON line to a new file at `path`
    /// (refusing to overwrite), after a first line naming the run.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> std::io::Result<()> {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)?;
        let mut out = std::io::BufWriter::new(file);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans().iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

impl<'a> Scope<'a> {
    /// Run `f` inside a span named `name`; `f` gets the scope its own
    /// child spans hang from.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce(Scope<'a>) -> T) -> T {
        self.span_as(|scope| (f(scope), name))
    }

    /// [`Scope::span`] for a call whose layer is known only once it
    /// returns: `f` yields its result and the span's name.
    pub fn span_as<T>(&self, f: impl FnOnce(Scope<'a>) -> (T, &'static str)) -> T {
        if !self.on {
            return f(*self).0;
        }
        let id = self.rec.open(self.parent, self.op);
        let (out, name) = f(Scope {
            parent: Some(id),
            ..*self
        });
        self.rec.close(id, name);
        out
    }
}

/// Per-layer self time: for each span name, the summed span durations
/// minus the time their direct children cover. Children run inside
/// their parent and one after another, so the subtraction never goes
/// below zero for a well-nested trace.
#[must_use]
pub fn self_time_ns(spans: &[Span]) -> BTreeMap<&'static str, i128> {
    let mut own: Vec<i128> = spans.iter().map(|s| i128::from(s.dur_ns())).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= i128::from(s.dur_ns());
        }
    }
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(own) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}
