//! # The st-lab benchmark
//!
//! One command runs one named workload for a fixed number of seconds:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload decide-batch --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The benchmark makes every input from `--seed`, hands the program only
//! those inputs through its crates' public functions, times each call
//! from outside, and checks every output against the generator's label
//! (or, for the fault-injected and crash-injected runs, against the
//! clean run). It prints one stamp line (host, seed, input sizes) and,
//! as its last line, one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. A run with any failed check exits 1.
//!
//! `--trace 0` reports the end-to-end metrics ([`END_TO_END`]). `--trace
//! 1` records in-memory spans around every other call (see [`spans`]),
//! writes them to `perfbench/out/traces/` at exit, and reports the
//! per-layer metrics ([`PER_LAYER`]) plus the tracing overhead measured
//! between the traced and the bare calls. A per-layer metric of a layer
//! the workload does not touch reads 0.
//!
//! Every end-to-end metric is reported by every workload, in that
//! workload's own unit of work:
//!
//! | metric | decide-batch | serve-open | mpc-p8 |
//! |---|---|---|---|
//! | `work_per_s` | symbols/s, Cor 7 + Thm 8(a) routes | symbols per second of session service time | symbols/s, clean runs |
//! | `alt_work_per_s` | symbols/s, query routes | the same, sort sessions only | symbols/s, storm runs |
//! | `op_p50_ms`, `op_p95_ms` | one decision | one session, from its due time | one decider run |
//!
//! Every figure is taken over operation kinds (a route on one input, a
//! decider at one size), each kind at its median operation (see
//! [`ByKind`]): rates are `Σ work / Σ median time`, and `op_p50_ms` and
//! `op_p95_ms` are percentiles of the kinds' median latencies. Medians
//! keep a stall that hits a few operations out of the figures, and
//! taking percentiles over kinds keeps them off the boundaries between
//! kinds, where a small shift in the mix moved them by tens of percent.

#![forbid(unsafe_code)]

pub mod decide;
pub mod host;
pub mod mpc;
pub mod serve;
pub mod spans;
pub mod stats;

use spans::Recorder;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// End-to-end metrics `(name, unit)`: every workload reports all of them
/// with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "frac"),
    ("work_per_s", "1/s"),
    ("alt_work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
];

/// Per-layer metrics `(name, unit)`: every workload reports all of them
/// with `--trace 1`; layers a workload does not exercise read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // decide-batch → work_per_s
    ("algo.sortcheck.multiset_s", "s"),
    ("algo.sortcheck.check_sort_s", "s"),
    ("algo.sortcheck.set_eq_s", "s"),
    ("algo.fingerprint.decide_s", "s"),
    ("extmem.steps", "count"),
    ("extmem.reversals", "count"),
    ("extmem.ns_per_step", "ns"),
    // decide-batch → alt_work_per_s
    ("query.relalg_s", "s"),
    ("query.stream_set_eq_s", "s"),
    ("query.xpath_s", "s"),
    ("query.xquery_s", "s"),
    // serve-open → op_p50_ms, op_p95_ms, work_per_s, alt_work_per_s
    ("serve.open_ms", "ms"),
    ("serve.feed_ms", "ms"),
    ("serve.step_ms", "ms"),
    ("serve.done_ms", "ms"),
    ("serve.open_count", "count"),
    ("serve.feed_count", "count"),
    ("serve.step_count", "count"),
    ("serve.done_count", "count"),
    ("serve.service_ms.fingerprint", "ms"),
    ("serve.service_ms.sort", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.steps_per_session", "count"),
    ("serve.throttled", "count"),
    ("serve.errors", "count"),
    ("bench.gen_late_ms", "ms"),
    ("serve.listen_rtt_ms", "ms"),
    // mpc-p8 → work_per_s (clean) and alt_work_per_s (storm)
    ("mpc.fingerprint_s", "s"),
    ("mpc.check_sort_s", "s"),
    ("mpc.sym_diff_s", "s"),
    ("mpc.storm.fingerprint_s", "s"),
    ("mpc.storm.check_sort_s", "s"),
    ("mpc.storm.sym_diff_s", "s"),
    ("mpc.rounds", "count"),
    ("mpc.messages", "count"),
    ("mpc.bytes_on_wire", "B"),
    ("mpc.max_load", "B"),
    ("mpc.retries", "count"),
    ("mpc.redundant_bytes", "B"),
    ("mpc.recovery_rounds", "count"),
    ("mpc.worker_crashes", "count"),
    ("mpc.delivery_ratio", "frac"),
    ("mpc.wire_bytes_per_s", "B/s"),
    // every workload
    ("bench.failed_frac", "frac"),
    ("bench.fp_false_accepts", "count"),
    ("bench.trace_overhead_frac", "frac"),
    ("bench.spans", "count"),
];

/// The workloads. Names are part of the benchmark's interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One process decides a fixed queue of large instances.
    DecideBatch,
    /// Open-loop sessions against an in-process service over loopback.
    ServeOpen,
    /// The three MPC deciders at p = 8, clean and under a net storm.
    MpcP8,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::DecideBatch, Workload::ServeOpen, Workload::MpcP8];

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::DecideBatch => "decide-batch",
            Workload::ServeOpen => "serve-open",
            Workload::MpcP8 => "mpc-p8",
        }
    }

    /// Parse a workload name.
    #[must_use]
    pub fn from_name(s: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes: `Full` is the benchmark, `Smoke` a seconds-long check of
/// the same code paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The benchmark's sizes.
    Full,
    /// Tiny inputs for tests.
    Smoke,
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// How long to measure.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Input sizes.
    pub scale: Scale,
    /// Test hook: the first output check fails as if the program had
    /// returned a wrong verdict or output.
    pub plant_wrong_verdict: bool,
}

impl Config {
    /// A config with the benchmark's defaults.
    #[must_use]
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Config {
            workload,
            seed,
            seconds,
            trace,
            scale: Scale::Full,
            plant_wrong_verdict: false,
        }
    }
}

/// Set-up runs this many times per run; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

/// Where the benchmark keeps traces and scratch directories.
#[must_use]
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Attempted and failed operations, shared by a run's threads.
#[derive(Default)]
pub struct Tally {
    attempted: AtomicU64,
    failed: AtomicU64,
    fp_false_accepts: AtomicU64,
    plant: AtomicBool,
}

impl Tally {
    /// A tally; `plant` turns the first check it is shown into a
    /// failure.
    #[must_use]
    pub fn new(plant: bool) -> Self {
        Tally {
            plant: AtomicBool::new(plant),
            ..Tally::default()
        }
    }

    /// Count one operation, failed unless `ok`.
    pub fn check(&self, ok: bool, what: impl FnOnce() -> String) -> bool {
        let ok = ok && !self.plant.swap(false, Ordering::Relaxed);
        self.attempted.fetch_add(1, Ordering::Relaxed);
        if !ok {
            let n = self.failed.fetch_add(1, Ordering::Relaxed);
            if n < 8 {
                eprintln!("check failed: {}", what());
            }
        }
        ok
    }

    /// Count one operation that ended in `err` (always a failure).
    pub fn error(&self, what: &str, err: impl std::fmt::Display) {
        self.check(false, || format!("{what}: {err}"));
    }

    /// Count one exact verdict: it must equal the label.
    pub fn verdict(&self, got: bool, want: bool, what: impl FnOnce() -> String) -> bool {
        self.check(got == want, || {
            format!("{}: verdict {got}, label {want}", what())
        })
    }

    /// Count one Theorem 8(a) verdict: a yes-instance must be accepted;
    /// a no-instance may be falsely accepted (one-sided error), which is
    /// counted apart and is not a failure.
    pub fn fingerprint(&self, got: bool, want: bool, what: impl FnOnce() -> String) -> bool {
        if got && !want {
            self.fp_false_accepts.fetch_add(1, Ordering::Relaxed);
        }
        self.check(got || !want, || {
            format!("{}: rejected a yes-instance", what())
        })
    }

    /// Operations checked.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.attempted.load(Ordering::Relaxed)
    }

    /// Operations that failed.
    #[must_use]
    pub fn failed(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }

    /// Fingerprint false accepts on no-instances.
    #[must_use]
    pub fn fp_false_accepts(&self) -> u64 {
        self.fp_false_accepts.load(Ordering::Relaxed)
    }
}

/// What a workload measured.
pub struct Measured {
    /// Wall time of each set-up repetition.
    pub setups: Vec<Duration>,
    /// Primary work units per second (see the crate docs).
    pub work_per_s: f64,
    /// Secondary work units per second.
    pub alt_work_per_s: f64,
    /// Each operation kind's median latency, in ms.
    pub op_ms: Vec<f64>,
    /// The workload's per-layer metrics (names from [`PER_LAYER`]).
    pub layer: Vec<(&'static str, f64)>,
    /// Input sizes, for the stamp.
    pub sizes: Vec<(&'static str, u64)>,
    /// Wall time of the measured phase.
    pub wall: Duration,
    /// Threads the measured phase runs the program on at once.
    pub threads: usize,
}

/// A finished run.
pub struct RunResult {
    /// No check failed.
    pub correct: bool,
    /// Operations checked.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// The stamp line.
    pub stamp: String,
    /// The run's spans.
    pub recorder: Recorder,
    /// What the workload measured.
    pub measured: Measured,
}

/// Run one workload.
pub fn run(cfg: &Config) -> Result<RunResult, String> {
    let recorder = Recorder::new(cfg.trace);
    let tally = Tally::new(cfg.plant_wrong_verdict);
    let measured = match cfg.workload {
        Workload::DecideBatch => decide::run(cfg, &recorder, &tally)?,
        Workload::ServeOpen => serve::run(cfg, &recorder, &tally)?,
        Workload::MpcP8 => mpc::run(cfg, &recorder, &tally)?,
    };
    let attempted = tally.attempted();
    let failed = tally.failed();
    let failed_frac = if attempted == 0 {
        1.0
    } else {
        failed as f64 / attempted as f64
    };
    let metrics = if cfg.trace {
        let mut layer = measured.layer.clone();
        layer.push(("bench.failed_frac", failed_frac));
        layer.push(("bench.fp_false_accepts", tally.fp_false_accepts() as f64));
        layer.push(("bench.trace_overhead_frac", recorder.overhead()));
        layer.push(("bench.spans", recorder.spans().len() as f64));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let v = layer.iter().find(|(n, _)| *n == name).map_or(0.0, |p| p.1);
                (name, v, unit)
            })
            .collect()
    } else {
        let setup: Vec<f64> = measured.setups.iter().map(Duration::as_secs_f64).collect();
        let values = [
            stats::median(&setup),
            host::peak_rss_mib()?,
            1.0 - failed_frac,
            measured.work_per_s,
            measured.alt_work_per_s,
            stats::median(&measured.op_ms),
            stats::percentile(&measured.op_ms, 0.95),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };
    let sizes: Vec<String> = measured
        .sizes
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let stamp = format!(
        "{{\"stamp\":{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},{},\"sizes\":{{{}}},\"ops\":{}}}}}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        host::stamp_members(),
        sizes.join(","),
        measured.op_ms.len()
    );
    Ok(RunResult {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
        stamp,
        recorder,
        measured,
    })
}

/// The result line: one JSON object with exactly `correct`, `attempted`,
/// `failed` and `metrics`.
#[must_use]
pub fn result_line(r: &RunResult) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, v, unit)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics.join(",")
    )
}

/// Write the run's spans under [`out_dir`]`/traces/` in a directory of
/// their own; returns the file written.
pub fn write_trace(r: &RunResult, cfg: &Config) -> std::io::Result<PathBuf> {
    let dir = host::create_unique_dir(
        &out_dir().join("traces"),
        &format!("{}-s{}", cfg.workload.name(), cfg.seed),
    )?;
    let path = dir.join("spans.jsonl");
    r.recorder.write_jsonl(&path, &r.stamp)?;
    Ok(path)
}

/// `units / seconds`, 0 when nothing was timed.
#[must_use]
pub fn rate(units: f64, seconds: f64) -> f64 {
    if seconds > 0.0 {
        units / seconds
    } else {
        0.0
    }
}

/// Operation times grouped by kind (a route on one input, say), each
/// kind with the work units one operation does.
#[derive(Default)]
pub struct ByKind(BTreeMap<String, (f64, Vec<f64>)>);

impl ByKind {
    /// Record one operation of `kind` doing `units` of work in `took`.
    pub fn add(&mut self, kind: &str, units: f64, took: Duration) {
        let entry = self.0.entry(kind.to_string()).or_default();
        entry.0 = units;
        entry.1.push(took.as_secs_f64());
    }

    /// Work units per second over one pass of median operations:
    /// `Σ units / Σ median seconds` across kinds. Medians keep a stall
    /// that hits a few operations out of the figure.
    #[must_use]
    pub fn rate(&self) -> f64 {
        let units = self.0.values().map(|(u, _)| u).sum();
        let seconds = self.0.values().map(|(_, t)| stats::median(t)).sum();
        rate(units, seconds)
    }

    /// Each kind's median latency in ms.
    #[must_use]
    pub fn medians_ms(&self) -> Vec<f64> {
        self.0
            .values()
            .map(|(_, t)| stats::median(t) * 1e3)
            .collect()
    }
}
