//! One benchmark for the continuous-deployment platform.
//!
//! ```text
//! cdp-benchmark run --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! cdp-benchmark run [--seed N] [--smoke]      every workload, both passes, one child each
//! cdp-benchmark describe                      the contents of BENCHMARK.json
//! ```
//!
//! A run prints every metric by name with its unit, then one JSON object as
//! the last line of standard output, and exits non-zero when a check failed.
//! See README.md for the workloads and the metric → layer map.

mod deploy;
mod drives;
mod replay;
mod report;
mod scratch;
mod serve;
mod stats;
mod stream;
mod trace;
mod workloads;

use std::process::ExitCode;

use report::{Report, RUN_SECONDS, WORKLOADS};
use scratch::Scratch;
use workloads::{Kind, Scale};

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        scale: Scale::Full,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(parsed.seconds > 0.0 && parsed.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => parsed.scale = Scale::Smoke,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

/// Runs one workload in this process and prints its report.
fn run_one(name: &str, args: &Args) -> ExitCode {
    let kind = Kind::from_name(name);
    if kind.is_none() && name != "serve_storm" {
        eprintln!("unknown workload {name}");
        return ExitCode::from(2);
    }
    let scratch = match Scratch::create() {
        Ok(scratch) => scratch,
        Err(e) => {
            eprintln!("cannot create the scratch root: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new(args.trace);
    match kind {
        Some(kind) if args.trace => {
            deploy::traced(kind, args.seed, args.scale, &scratch, &mut report)
        }
        Some(kind) => deploy::end_to_end(
            kind,
            args.seed,
            args.scale,
            args.seconds,
            &scratch,
            &mut report,
        ),
        None => serve::run(args.seed, args.scale, args.seconds, &mut report),
    }
    // Remove the scratch root before reporting, failed checks included.
    drop(scratch);
    if report.print(name) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload, end to end and traced, each in a child process of
/// its own so that `peak_rss_mb` is per workload.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_ok = true;
    for (name, _) in WORKLOADS {
        for trace in ["0", "1"] {
            let mut child = std::process::Command::new(&exe);
            child.args(["run", "--workload", name, "--trace", trace]);
            child.args(["--seed", &args.seed.to_string()]);
            child.args(["--seconds", &args.seconds.to_string()]);
            if args.scale == Scale::Smoke {
                child.arg("--smoke");
            }
            let ok = child.status().is_ok_and(|status| status.success());
            if !ok {
                eprintln!("FAILED: {name} --trace {trace}");
            }
            all_ok &= ok;
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.split_first() {
        Some((cmd, [])) if cmd == "describe" => {
            print!("{}", report::describe());
            ExitCode::SUCCESS
        }
        Some((cmd, rest)) if cmd == "run" => match parse(rest) {
            Ok(args) => match args.workload.clone() {
                Some(name) => run_one(&name, &args),
                None => run_all(&args),
            },
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("usage: cdp-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke] | describe");
            ExitCode::from(2)
        }
    }
}
