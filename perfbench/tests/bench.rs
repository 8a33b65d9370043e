//! The benchmark's own checks, at smoke scale: every workload emits
//! every metric with its unit, a planted wrong output counts as a
//! failure, traced spans nest, and concurrent runs keep their output
//! apart.

use st_perfbench::spans::self_time_ns;
use st_perfbench::{
    result_line, run, write_trace, Config, RunResult, Scale, Workload, END_TO_END, PER_LAYER,
};

fn smoke(workload: Workload, trace: bool) -> Config {
    Config {
        scale: Scale::Smoke,
        ..Config::new(workload, 7, 0.0, trace)
    }
}

fn run_ok(cfg: &Config) -> RunResult {
    let r = run(cfg).unwrap_or_else(|e| panic!("{}: {e}", cfg.workload.name()));
    assert!(r.correct, "{}: {} failed", cfg.workload.name(), r.failed);
    assert!(r.attempted > 0);
    r
}

#[test]
fn every_workload_emits_every_metric_with_its_unit() {
    for workload in Workload::ALL {
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let r = run_ok(&smoke(workload, trace));
            let names: Vec<(&str, &str)> = r.metrics.iter().map(|(n, _, u)| (*n, *u)).collect();
            assert_eq!(names, table, "{} trace={trace}", workload.name());
            for (name, value, _) in &r.metrics {
                assert!(value.is_finite(), "{} {name} = {value}", workload.name());
                if !trace {
                    assert!(*value > 0.0, "{} {name} must never be 0", workload.name());
                }
            }
            let line = result_line(&r);
            assert!(
                line.starts_with("{\"correct\":true,\"attempted\":"),
                "{line}"
            );
            for (name, unit) in table {
                assert!(line.contains(&format!("\"{name}\":{{\"value\":")), "{name}");
                assert!(line.contains(&format!("\"unit\":\"{unit}\"")), "{unit}");
            }
        }
    }
}

#[test]
fn a_planted_wrong_output_is_counted_as_a_failure() {
    for workload in Workload::ALL {
        let cfg = Config {
            plant_wrong_verdict: true,
            ..smoke(workload, false)
        };
        let r = run(&cfg).unwrap();
        assert!(!r.correct, "{}", workload.name());
        assert_eq!(r.failed, 1, "{}", workload.name());
        assert!(result_line(&r).starts_with("{\"correct\":false,"));
        let ok_frac = r.metrics.iter().find(|m| m.0 == "ok_frac").unwrap().1;
        assert!(ok_frac < 1.0);
    }
}

#[test]
fn traced_spans_nest_and_self_time_fits_in_wall_time() {
    for workload in Workload::ALL {
        let r = run_ok(&smoke(workload, true));
        let spans = r.recorder.spans();
        assert!(!spans.is_empty(), "{}", workload.name());
        for (id, s) in spans.iter().enumerate() {
            assert!(!s.name.is_empty(), "span {id} never closed");
            assert!(s.end_ns >= s.start_ns);
            if let Some(p) = s.parent {
                assert!(p < id, "parent {p} of span {id} must precede it");
                let parent = &spans[p];
                assert_eq!(parent.op, s.op, "a child belongs to its parent's operation");
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
            }
        }
        let wall = r.measured.wall.as_nanos() as i128 * r.measured.threads as i128;
        for (layer, own) in self_time_ns(&spans) {
            assert!(own >= 0, "{layer}: negative self time");
            assert!(
                own <= wall,
                "{layer}: self time {own} ns over wall {wall} ns"
            );
        }
    }
    let serve = run_ok(&smoke(Workload::ServeOpen, true));
    assert!(
        serve.recorder.spans().iter().any(|s| s.parent.is_some()),
        "serve sessions nest their requests"
    );
}

#[test]
fn concurrent_traced_runs_write_to_their_own_directories() {
    let cfg = smoke(Workload::MpcP8, true);
    let paths: Vec<_> = std::thread::scope(|s| {
        let runs: Vec<_> = (0..2)
            .map(|_| s.spawn(|| write_trace(&run_ok(&cfg), &cfg).unwrap()))
            .collect();
        runs.into_iter().map(|r| r.join().unwrap()).collect()
    });
    assert_ne!(paths[0], paths[1]);
    for path in paths {
        assert!(std::fs::read_to_string(&path)
            .unwrap()
            .starts_with("{\"stamp\":"));
        std::fs::remove_dir_all(path.parent().unwrap()).unwrap();
    }
}

#[test]
fn benchmark_json_lists_the_workloads_and_metrics_this_binary_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
    for w in Workload::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        json.matches("\"unit\": ").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
}
