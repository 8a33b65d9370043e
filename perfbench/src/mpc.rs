//! `mpc-p8`: the three `st_mpc` deciders on an 8-worker cluster driven
//! by 2 host threads, each run clean and again under a seeded network
//! storm (10% drop, duplicate, reorder and corrupt, plus worker 3
//! killed after round 0).
//!
//! Every decider sees one yes- and one no-instance. The clean verdict
//! must match the label (the fingerprint may falsely accept a
//! no-instance, counted apart); the storm run must reproduce the clean
//! run bit for bit — verdict, residues, parameters, tape usage and the
//! clean communication meter.

use crate::spans::Recorder;
use crate::{host, rate, stats, ByKind, Config, Measured, Scale, Tally, SETUP_REPS};
use st_core::{CommUsage, StError};
use st_mpc::{MpcOptions, NetFaultPlan};
use st_problems::{generate, predicates, Instance};
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Decider {
    Fingerprint,
    CheckSort,
    SymDiff,
}

impl Decider {
    const ALL: [Decider; 3] = [Decider::Fingerprint, Decider::CheckSort, Decider::SymDiff];

    fn span(self, storm: bool) -> &'static str {
        match (self, storm) {
            (Decider::Fingerprint, false) => "mpc.fingerprint",
            (Decider::CheckSort, false) => "mpc.check_sort",
            (Decider::SymDiff, false) => "mpc.sym_diff",
            (Decider::Fingerprint, true) => "mpc.storm.fingerprint",
            (Decider::CheckSort, true) => "mpc.storm.check_sort",
            (Decider::SymDiff, true) => "mpc.storm.sym_diff",
        }
    }

    fn label(self, inst: &Instance) -> bool {
        match self {
            Decider::Fingerprint => predicates::is_multiset_equal(inst),
            Decider::CheckSort => predicates::is_check_sorted(inst),
            Decider::SymDiff => predicates::is_set_equal(inst),
        }
    }
}

/// Everything a run's output is compared on: the verdict, the residue
/// or count it rests on, and the meters that must not move under a
/// storm.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Outcome {
    accepted: bool,
    /// Fingerprint residues and parameters, or `|Q′|`.
    evidence: String,
    usage: st_core::ResourceUsage,
    clean_comm: CommUsage,
}

fn run_decider(
    d: Decider,
    inst: &Instance,
    opts: &MpcOptions,
    fp_seed: u64,
) -> Result<(Outcome, CommUsage), StError> {
    let (accepted, evidence, run) = match d {
        Decider::Fingerprint => {
            let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(fp_seed);
            let r = st_mpc::decide_multiset_equality(inst, &mut rng, opts)?;
            (
                r.run.accepted,
                format!("{:?} {:?}", r.residues, r.params),
                r.run,
            )
        }
        Decider::CheckSort => {
            let r = st_mpc::decide_check_sort(inst, opts)?;
            (r.accepted, String::new(), r)
        }
        Decider::SymDiff => {
            let r = st_mpc::evaluate_sym_diff(inst, opts)?;
            (r.run.accepted, r.symdiff.to_string(), r.run)
        }
    };
    let outcome = Outcome {
        accepted,
        evidence,
        usage: run.usage,
        clean_comm: run.comm.clean(),
    };
    Ok((outcome, run.comm))
}

fn storm(seed: u64) -> NetFaultPlan {
    NetFaultPlan::new(seed)
        .with_drop(0.1)
        .with_duplicate(0.1)
        .with_reorder(0.1)
        .with_corrupt(0.1)
        .kill_worker_after(3, 0)
}

struct Case {
    decider: Decider,
    inst: usize,
    want: bool,
    kind: &'static str,
}

fn generate_inputs(seed: u64, m: usize, n: usize) -> (Vec<Instance>, Vec<Case>) {
    let mut r = host::rng(seed, "mpc-p8", 0);
    let instances = vec![
        generate::yes_multiset(m, n, &mut r),
        generate::no_multiset_one_bit(m, n, &mut r),
        generate::yes_checksort(m, n, &mut r),
        generate::no_checksort_sorted_but_wrong(m, n, &mut r),
        generate::yes_set_distinct(m, n, &mut r),
    ];
    // (decider, yes, no); Q′'s no-instance is the one-bit multiset one.
    let pairs = [
        (Decider::Fingerprint, 0, 1),
        (Decider::CheckSort, 2, 3),
        (Decider::SymDiff, 4, 1),
    ];
    let mut cases = Vec::new();
    for (decider, yes, no) in pairs {
        for (inst, kind) in [(yes, "yes"), (no, "no")] {
            cases.push(Case {
                decider,
                inst,
                want: decider.label(&instances[inst]),
                kind,
            });
        }
    }
    (instances, cases)
}

/// Run the workload.
pub fn run(cfg: &Config, rec: &Recorder, tally: &Tally) -> Result<Measured, String> {
    let (m, n) = match cfg.scale {
        Scale::Full => (1 << 13, 32),
        Scale::Smoke => (256, 16),
    };
    let opts = MpcOptions {
        workers: 8,
        jobs: 2,
        ..MpcOptions::default()
    };
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let t = Instant::now();
        let fresh = generate_inputs(cfg.seed, m, n);
        // Warm-up: one small clean and one small storm run per decider.
        let mut r = host::rng(cfg.seed, "mpc-warm-up", 0);
        let tiny = generate::yes_checksort(64, 8, &mut r);
        for d in Decider::ALL {
            for o in [opts.clone(), opts.clone().with_fault_plan(storm(cfg.seed))] {
                std::hint::black_box(
                    run_decider(d, &tiny, &o, cfg.seed).map_err(|e| format!("warm-up: {e}"))?,
                );
            }
        }
        setups.push(t.elapsed());
        inputs = Some(fresh);
    }
    let (instances, cases) = inputs.expect("SETUP_REPS is positive");

    let (mut clean_runs, mut storm_runs) = (ByKind::default(), ByKind::default());
    let mut clean_time = Duration::ZERO;
    let mut clean_comm = CommUsage::new(opts.workers);
    let mut storm_comm = CommUsage::new(opts.workers);
    let mut clean_bytes_all = 0u64;
    let min_passes = if cfg.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut pass = 0usize;
    while pass < min_passes || start.elapsed().as_secs_f64() < cfg.seconds {
        for (i, case) in cases.iter().enumerate() {
            let inst = &instances[case.inst];
            let op = (pass * cases.len() + i) as u64;
            // Every pass repeats the same work: the seeds depend on the
            // case, not the pass.
            let fp_seed = host::derive(cfg.seed, "mpc-fingerprint", i as u64);
            let traced = (pass + i).is_multiple_of(2);
            let what = |mode: &str| {
                format!(
                    "{} {} {mode} (pass {pass})",
                    case.decider.span(false),
                    case.kind
                )
            };
            let syms = inst.size() as f64;

            let kind = format!("{}.{}", case.decider.span(false), case.kind);
            let (clean, took) = rec.op(case.decider.span(false), &kind, 2 * op, traced, |_| {
                run_decider(case.decider, inst, &opts, fp_seed)
            });
            clean_runs.add(&kind, syms, took);
            clean_time += took;
            let clean = match clean {
                Ok((outcome, comm)) => {
                    clean_bytes_all += comm.bytes_on_wire;
                    if pass == 0 {
                        clean_comm.absorb(&comm);
                    }
                    if case.decider == Decider::Fingerprint {
                        tally.fingerprint(outcome.accepted, case.want, || what("clean"));
                    } else {
                        tally.verdict(outcome.accepted, case.want, || what("clean"));
                    }
                    Some(outcome)
                }
                Err(e) => {
                    tally.error(&what("clean"), e);
                    None
                }
            };

            let plan = storm(host::derive(cfg.seed, "mpc-storm", i as u64));
            let stormy = opts.clone().with_fault_plan(plan);
            let kind = format!("{}.{}", case.decider.span(true), case.kind);
            let (stormed, took) =
                rec.op(case.decider.span(true), &kind, 2 * op + 1, traced, |_| {
                    run_decider(case.decider, inst, &stormy, fp_seed)
                });
            storm_runs.add(&kind, syms, took);
            match stormed {
                Ok((outcome, comm)) => {
                    if pass == 0 {
                        storm_comm.absorb(&comm);
                    }
                    tally.check(clean.as_ref() == Some(&outcome), || {
                        format!("{}: storm run differs from the clean run", what("storm"))
                    });
                }
                Err(e) => tally.error(&what("storm"), e),
            }
        }
        pass += 1;
    }
    let wall = start.elapsed();

    let med_s = |name: &str| stats::median(&rec.durations_s(name));
    let delivered = storm_comm.messages + storm_comm.retries;
    let layer = vec![
        ("mpc.fingerprint_s", med_s("mpc.fingerprint")),
        ("mpc.check_sort_s", med_s("mpc.check_sort")),
        ("mpc.sym_diff_s", med_s("mpc.sym_diff")),
        ("mpc.storm.fingerprint_s", med_s("mpc.storm.fingerprint")),
        ("mpc.storm.check_sort_s", med_s("mpc.storm.check_sort")),
        ("mpc.storm.sym_diff_s", med_s("mpc.storm.sym_diff")),
        ("mpc.rounds", clean_comm.rounds as f64),
        ("mpc.messages", clean_comm.messages as f64),
        ("mpc.bytes_on_wire", clean_comm.bytes_on_wire as f64),
        ("mpc.max_load", clean_comm.max_load as f64),
        ("mpc.retries", storm_comm.retries as f64),
        ("mpc.redundant_bytes", storm_comm.redundant_bytes as f64),
        ("mpc.recovery_rounds", storm_comm.recovery_rounds as f64),
        ("mpc.worker_crashes", storm_comm.worker_crashes as f64),
        (
            "mpc.delivery_ratio",
            if delivered > 0 {
                storm_comm.messages as f64 / delivered as f64
            } else {
                0.0
            },
        ),
        (
            "mpc.wire_bytes_per_s",
            rate(clean_bytes_all as f64, clean_time.as_secs_f64()),
        ),
    ];
    let mut op_ms = clean_runs.medians_ms();
    op_ms.extend(storm_runs.medians_ms());
    Ok(Measured {
        setups,
        work_per_s: clean_runs.rate(),
        alt_work_per_s: storm_runs.rate(),
        op_ms,
        layer,
        sizes: vec![
            ("m", m as u64),
            ("n", n as u64),
            ("N", instances[0].size() as u64),
            ("workers", opts.workers as u64),
            ("jobs", opts.jobs as u64),
            ("passes", pass as u64),
        ],
        wall,
        threads: opts.jobs,
    })
}
