//! `decide-batch`: one process decides a fixed queue of large instances.
//!
//! The queue holds one yes- and one no-instance per route, drawn from
//! the `st_problems::generate` families and labelled by the
//! `st_problems::predicates` of the route's problem. The Corollary 7
//! sort routes and the Theorem 8(a) fingerprint run on the large
//! instance; the Theorem 11–13 query routes each get a size at which
//! they take well under half of the queue's time (XPath and XQuery are
//! quadratic). The queue is decided in whole passes, one entry at a
//! time, until `--seconds` have gone by.

use crate::spans::Recorder;
use crate::{host, stats, ByKind, Config, Measured, Scale, Tally, SETUP_REPS};
use st_core::{ResourceUsage, StError};
use st_problems::{generate, predicates, Instance};
use st_query::relalg::{self, Database, RaExpr};
use std::time::{Duration, Instant};

/// Input sizes: values per list `m` for each route family, bits per
/// value `n`.
struct Sizes {
    cor7_m: usize,
    n: usize,
    relalg_m: usize,
    stream_m: usize,
    xpath_m: usize,
    xquery_m: usize,
}

impl Sizes {
    fn of(scale: Scale) -> Self {
        match scale {
            Scale::Full => Sizes {
                cor7_m: 1 << 14,
                n: 32,
                relalg_m: 1 << 12,
                stream_m: 1 << 12,
                xpath_m: 256,
                xquery_m: 512,
            },
            Scale::Smoke => Sizes {
                cor7_m: 256,
                n: 16,
                relalg_m: 64,
                stream_m: 64,
                xpath_m: 16,
                xquery_m: 16,
            },
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    Multiset,
    CheckSort,
    SetEq,
    Fingerprint,
    Relalg,
    Stream,
    XPath,
    XQuery,
}

impl Route {
    const ALL: [Route; 8] = [
        Route::Multiset,
        Route::CheckSort,
        Route::SetEq,
        Route::Fingerprint,
        Route::Relalg,
        Route::Stream,
        Route::XPath,
        Route::XQuery,
    ];

    fn span(self) -> &'static str {
        match self {
            Route::Multiset => "algo.sortcheck.multiset",
            Route::CheckSort => "algo.sortcheck.check_sort",
            Route::SetEq => "algo.sortcheck.set_eq",
            Route::Fingerprint => "algo.fingerprint.decide",
            Route::Relalg => "query.relalg",
            Route::Stream => "query.stream_set_eq",
            Route::XPath => "query.xpath",
            Route::XQuery => "query.xquery",
        }
    }

    fn is_query(self) -> bool {
        matches!(
            self,
            Route::Relalg | Route::Stream | Route::XPath | Route::XQuery
        )
    }

    /// The label of `inst` for this route's problem.
    fn label(self, inst: &Instance) -> bool {
        match self {
            Route::Multiset | Route::Fingerprint => predicates::is_multiset_equal(inst),
            Route::CheckSort => predicates::is_check_sorted(inst),
            _ => predicates::is_set_equal(inst),
        }
    }
}

/// One queue entry: a route, the index of its instance, the label.
struct Case {
    route: Route,
    inst: usize,
    want: bool,
    kind: String,
}

struct Inputs {
    instances: Vec<Instance>,
    cases: Vec<Case>,
    /// The Theorem 11 databases, keyed by instance index.
    dbs: Vec<(usize, Database)>,
    query: RaExpr,
}

fn generate_inputs(seed: u64, s: &Sizes) -> Inputs {
    let mut r = host::rng(seed, "decide-batch", 0);
    let (m, n) = (s.cor7_m, s.n);
    let ms_yes = generate::yes_multiset(m, n, &mut r);
    let ms_no = generate::no_multiset_one_bit(m, n, &mut r);
    let cs_yes = generate::yes_checksort(m, n, &mut r);
    let cs_no = generate::no_checksort_sorted_but_wrong(m, n, &mut r);
    let se_yes = generate::yes_set_distinct(m, n, &mut r);
    let mut instances = vec![ms_yes, ms_no, cs_yes, cs_no, se_yes];
    // (route, yes index, no index); the set-equality no-instance is the
    // one-bit multiset one, labelled by its own predicate.
    let mut pairs = vec![
        (Route::Multiset, 0, 1),
        (Route::CheckSort, 2, 3),
        (Route::SetEq, 4, 1),
        (Route::Fingerprint, 0, 1),
    ];
    for (route, qm) in [
        (Route::Relalg, s.relalg_m),
        (Route::Stream, s.stream_m),
        (Route::XPath, s.xpath_m),
        (Route::XQuery, s.xquery_m),
    ] {
        let yes = instances.len();
        instances.push(generate::yes_set_distinct(qm, n, &mut r));
        instances.push(generate::no_multiset_one_bit(qm, n, &mut r));
        pairs.push((route, yes, yes + 1));
    }
    let mut cases = Vec::new();
    for (route, yes, no) in pairs {
        for (inst, side) in [(yes, "yes"), (no, "no")] {
            cases.push(Case {
                route,
                inst,
                want: route.label(&instances[inst]),
                kind: format!("{}.{side}", route.span()),
            });
        }
    }
    let dbs = cases
        .iter()
        .filter(|c| c.route == Route::Relalg)
        .map(|c| (c.inst, relalg::instance_database(&instances[c.inst])))
        .collect();
    Inputs {
        instances,
        cases,
        dbs,
        query: relalg::sym_diff_query("R1", "R2"),
    }
}

/// Decide `inst` on `route`: the verdict, plus the tape usage when the
/// route reports one.
fn decide(
    route: Route,
    inst: &Instance,
    db: Option<&Database>,
    query: &RaExpr,
    fp_seed: u64,
) -> Result<(bool, Option<ResourceUsage>), StError> {
    use st_algo::{fingerprint, sortcheck};
    Ok(match route {
        Route::Multiset => {
            let run = sortcheck::decide_multiset_equality(inst)?;
            (run.accepted, Some(run.usage))
        }
        Route::CheckSort => {
            let run = sortcheck::decide_check_sort(inst)?;
            (run.accepted, Some(run.usage))
        }
        Route::SetEq => {
            let run = sortcheck::decide_set_equality(inst)?;
            (run.accepted, Some(run.usage))
        }
        Route::Fingerprint => {
            let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(fp_seed);
            let run = fingerprint::decide_multiset_equality(inst, &mut rng)?;
            (run.accepted, Some(run.usage))
        }
        Route::Relalg => {
            let db = db.ok_or_else(|| StError::Query("no database for the relalg route".into()))?;
            let (rel, usage) = relalg::evaluate(query, db)?;
            (rel.is_empty(), Some(usage))
        }
        Route::Stream => {
            let (equal, usage) = st_query::stream::streaming_set_equality(inst)?;
            (equal, Some(usage))
        }
        Route::XPath => (
            st_query::xpath::set_equality_via_two_filter_runs(inst)?,
            None,
        ),
        Route::XQuery => (
            st_query::xquery::run_theorem12(inst)?.contains("<true>"),
            None,
        ),
    })
}

/// Run every route once on a tiny instance, so lazy set-up is paid
/// before timing.
fn warm_up(seed: u64) -> Result<(), StError> {
    let mut r = host::rng(seed, "decide-warm-up", 0);
    let inst = generate::yes_set_distinct(32, 8, &mut r);
    let db = relalg::instance_database(&inst);
    let query = relalg::sym_diff_query("R1", "R2");
    for route in Route::ALL {
        std::hint::black_box(decide(route, &inst, Some(&db), &query, seed)?);
    }
    Ok(())
}

/// Run the workload.
pub fn run(cfg: &Config, rec: &Recorder, tally: &Tally) -> Result<Measured, String> {
    let sizes = Sizes::of(cfg.scale);
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        drop(inputs.take());
        let t = Instant::now();
        let fresh = generate_inputs(cfg.seed, &sizes);
        warm_up(cfg.seed).map_err(|e| format!("warm-up: {e}"))?;
        setups.push(t.elapsed());
        inputs = Some(fresh);
    }
    let inputs = inputs.expect("SETUP_REPS is positive");

    let (mut decided, mut queried) = (ByKind::default(), ByKind::default());
    let (mut steps_first_pass, mut reversals_first_pass) = (0u64, 0u64);
    let (mut steps_all, mut decide_time) = (0u64, Duration::ZERO);
    let min_passes = if cfg.trace { 2 } else { 1 };
    let start = Instant::now();
    let mut pass = 0usize;
    while pass < min_passes || start.elapsed().as_secs_f64() < cfg.seconds {
        for (i, case) in inputs.cases.iter().enumerate() {
            let (out, took) = run_case(cfg, rec, &inputs, pass, i);
            let what = || format!("{} (pass {pass})", case.kind);
            let (got, usage) = match out {
                Ok(v) => v,
                Err(e) => {
                    tally.error(&what(), e);
                    continue;
                }
            };
            if case.route == Route::Fingerprint {
                tally.fingerprint(got, case.want, what);
            } else {
                tally.verdict(got, case.want, what);
            }
            let symbols = inputs.instances[case.inst].size() as f64;
            if case.route.is_query() {
                queried.add(&case.kind, symbols, took);
                continue;
            }
            decided.add(&case.kind, symbols, took);
            if let Some(u) = usage {
                decide_time += took;
                steps_all += u.steps;
                if pass == 0 {
                    steps_first_pass += u.steps;
                    reversals_first_pass += u.total_reversals();
                }
            }
        }
        pass += 1;
    }
    let wall = start.elapsed();

    let med_s = |name: &str| stats::median(&rec.durations_s(name));
    let mut layer: Vec<(&'static str, f64)> = Route::ALL
        .iter()
        .map(|r| (layer_name(*r), med_s(r.span())))
        .collect();
    layer.push(("extmem.steps", steps_first_pass as f64));
    layer.push(("extmem.reversals", reversals_first_pass as f64));
    layer.push((
        "extmem.ns_per_step",
        if steps_all > 0 {
            decide_time.as_nanos() as f64 / steps_all as f64
        } else {
            0.0
        },
    ));
    let mut op_ms = decided.medians_ms();
    op_ms.extend(queried.medians_ms());
    Ok(Measured {
        setups,
        work_per_s: decided.rate(),
        alt_work_per_s: queried.rate(),
        op_ms,
        layer,
        sizes: vec![
            ("cor7_m", sizes.cor7_m as u64),
            ("n", sizes.n as u64),
            ("cor7_N", inputs.instances[0].size() as u64),
            ("relalg_m", sizes.relalg_m as u64),
            ("stream_m", sizes.stream_m as u64),
            ("xpath_m", sizes.xpath_m as u64),
            ("xquery_m", sizes.xquery_m as u64),
            ("queue", inputs.cases.len() as u64),
            ("passes", pass as u64),
        ],
        wall,
        threads: 1,
    })
}

/// Decide queue entry `i` once, as operation `(pass, i)`, timed.
fn run_case(
    cfg: &Config,
    rec: &Recorder,
    inputs: &Inputs,
    pass: usize,
    i: usize,
) -> (Result<(bool, Option<ResourceUsage>), StError>, Duration) {
    let case = &inputs.cases[i];
    let inst = &inputs.instances[case.inst];
    let db = inputs
        .dbs
        .iter()
        .find(|(k, _)| *k == case.inst)
        .map(|(_, db)| db);
    // Every pass repeats the same work: the seeds depend on the queue
    // entry, not the pass.
    let fp_seed = host::derive(cfg.seed, "fingerprint", i as u64);
    let op = (pass * inputs.cases.len() + i) as u64;
    let traced = (pass + i).is_multiple_of(2);
    rec.op(case.route.span(), &case.kind, op, traced, |_| {
        decide(case.route, inst, db, &inputs.query, fp_seed)
    })
}

/// The per-layer metric a route's span feeds.
fn layer_name(route: Route) -> &'static str {
    match route {
        Route::Multiset => "algo.sortcheck.multiset_s",
        Route::CheckSort => "algo.sortcheck.check_sort_s",
        Route::SetEq => "algo.sortcheck.set_eq_s",
        Route::Fingerprint => "algo.fingerprint.decide_s",
        Route::Relalg => "query.relalg_s",
        Route::Stream => "query.stream_set_eq_s",
        Route::XPath => "query.xpath_s",
        Route::XQuery => "query.xquery_s",
    }
}
