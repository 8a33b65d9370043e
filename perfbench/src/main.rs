//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload of the st-lab benchmark and prints a stamp line
//! and, last, the result line (see the library docs). Exit codes: 0 when
//! every check passed, 1 when a check failed or the run could not
//! complete, 2 on a usage error.
//!
//! `--closed-loop` (serve-open only) sends the sessions back to back
//! instead and prints the service's capacity in sessions per second,
//! the figure the workload's offered rate is set from.

use st_perfbench::host::RunDir;
use st_perfbench::spans::Recorder;
use st_perfbench::{out_dir, result_line, run, serve, write_trace, Config, Tally, Workload};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {{decide-batch|serve-open|mpc-p8}} \
         --seed N --seconds S --trace 0|1 [--closed-loop]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut closed_loop = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--closed-loop" {
            closed_loop = true;
            continue;
        }
        let Some(value) = args.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::from_name(&value) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload `{value}`")),
            },
            "--seed" => match value.parse::<u64>() {
                Ok(v) => seed = Some(v),
                Err(_) => return usage("--seed takes a whole number"),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v.is_finite() && v >= 0.0 => seconds = Some(v),
                _ => return usage("--seconds takes a non-negative number"),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return usage("--trace takes 0 or 1"),
            },
            _ => return usage(&format!("unknown flag `{flag}`")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("--workload, --seed, --seconds and --trace are required");
    };
    let cfg = Config::new(workload, seed, seconds, trace);

    // The MPC cluster journals crashed workers' supersteps under the
    // system temp directory. Point it at a directory of this run's own
    // inside the benchmark tree, before any thread starts, so the run
    // writes nowhere else; dropping it at exit removes it.
    let tmp = match RunDir::create(&out_dir().join("run"), "tmp") {
        Ok(dir) => dir,
        Err(e) => {
            eprintln!("perfbench: create temp dir: {e}");
            return ExitCode::FAILURE;
        }
    };
    std::env::set_var("TMPDIR", tmp.path());

    if closed_loop {
        if workload != Workload::ServeOpen {
            return usage("--closed-loop applies to serve-open only");
        }
        let tally = Tally::new(false);
        return match serve::run_with(&cfg, &Recorder::new(false), &tally, true) {
            Ok(m) if tally.failed() == 0 => {
                println!("closed-loop capacity: {:.2} sessions/s", m.work_per_s);
                ExitCode::SUCCESS
            }
            Ok(_) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let result = match run(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if cfg.trace {
        match write_trace(&result, &cfg) {
            Ok(path) => eprintln!("spans written to {}", path.display()),
            Err(e) => {
                eprintln!("perfbench: writing spans: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("{}", result.stamp);
    println!("{}", result_line(&result));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
