//! Post-mortem analysis of a crashed deployment from its flight-recorder
//! segments — and a crash driver to produce one.
//!
//! ```sh
//! # 1. Run a seeded deployment that dies at an injected crash point,
//! #    flushing telemetry segments every sample (`--site chunk|durable` and
//! #    `--at N` move the kill; the default is the 6th chunk boundary):
//! cargo run -p cdp-bench --bin postmortem -- --crash --dir segments/
//!
//! # 2. Rebuild the timeline the process left behind:
//! cargo run -p cdp-bench --bin postmortem -- --dir segments/ \
//!     --windows 8 --expect-alert store.lost_spills
//! ```
//!
//! Analysis loads the newest valid segments (torn or corrupt tails are
//! skipped, never fatal), prints the last-N-windows timeline of every
//! recorded series, the alerts that had fired by the final flush, and the
//! top time sinks by histogram self-time. Exit code 0 means a non-empty
//! timeline was recovered (and the expected alert, when given, was found);
//! 1 means the directory held nothing usable — the CI job treats that as a
//! broken recorder.

use std::path::PathBuf;
use std::process::ExitCode;

use cdp_core::deployment::{
    try_run_deployment, DeploymentConfig, DeploymentError, RecorderConfig, TelemetryConfig,
};
use cdp_core::presets::{url_spec, SpecScale};
use cdp_faults::{CrashSite, FaultPlan};
use cdp_obs::{load_segments, TelemetrySegment};
use cdp_sampling::SamplingStrategy;
use cdp_storage::StorageBudget;

struct Args {
    crash: bool,
    dir: PathBuf,
    windows: usize,
    expect_alert: Option<String>,
    site: CrashSite,
    crash_at: u64,
    seed: u64,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().collect();
    let mut args = Args {
        crash: false,
        dir: PathBuf::from("telemetry-segments"),
        windows: 8,
        expect_alert: None,
        site: CrashSite::ChunkBoundary,
        crash_at: 5,
        seed: 17,
    };
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--crash" => {
                args.crash = true;
                i += 1;
            }
            "--dir" if i + 1 < argv.len() => {
                args.dir = PathBuf::from(&argv[i + 1]);
                i += 2;
            }
            "--windows" if i + 1 < argv.len() => {
                args.windows = argv[i + 1].parse().unwrap_or(8);
                i += 2;
            }
            "--expect-alert" if i + 1 < argv.len() => {
                args.expect_alert = Some(argv[i + 1].clone());
                i += 2;
            }
            "--site" if i + 1 < argv.len() => {
                match CrashSite::parse(&argv[i + 1]) {
                    Some(site) => args.site = site,
                    None => eprintln!("unknown crash site '{}', using chunk", argv[i + 1]),
                }
                i += 2;
            }
            "--at" if i + 1 < argv.len() => {
                args.crash_at = argv[i + 1].parse().unwrap_or(5);
                i += 2;
            }
            "--seed" if i + 1 < argv.len() => {
                args.seed = argv[i + 1].parse().unwrap_or(17);
                i += 2;
            }
            other => {
                eprintln!("ignoring unknown argument '{other}'");
                i += 1;
            }
        }
    }
    args
}

/// Runs the seeded crash workload: a tiny Continuous URL deployment with
/// spill-to-disk under certain spill-write failure (so the
/// `store.lost_spills` alert fires deterministically), telemetry sampling
/// every chunk, and the flight recorder flushing every sample into `dir`.
fn run_crash(args: &Args) -> ExitCode {
    let _ = std::fs::remove_dir_all(&args.dir);
    let (stream, spec) = url_spec(SpecScale::Tiny);
    let mut config = DeploymentConfig::continuous(
        spec.proactive_every,
        spec.sample_chunks,
        SamplingStrategy::Uniform,
    );
    config.optimization.budget = StorageBudget::MaxChunks(4);
    config.spill_to_disk = true;
    config.collect_metrics = true;
    config.seed = args.seed;
    config.faults = FaultPlan {
        seed: args.seed,
        disk_write_error: 1.0,
        crash_site: Some(args.site),
        crash_at: args.crash_at,
        ..FaultPlan::none()
    };
    config.telemetry =
        Some(TelemetryConfig::new().recorder(RecorderConfig::new(&args.dir).flush_every(1)));

    match try_run_deployment(&stream, &spec, &config) {
        Err(DeploymentError::Crashed(site)) => {
            eprintln!(
                "[postmortem] run died at the injected {} crash (occurrence {}), \
                 segments in {}",
                site.name(),
                args.crash_at,
                args.dir.display()
            );
            ExitCode::SUCCESS
        }
        Ok(_) => {
            eprintln!(
                "[postmortem] run completed without crashing — crash site {} \
                 never reached occurrence {}",
                args.site.name(),
                args.crash_at
            );
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("[postmortem] run failed outside the injected crash: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_timeline(seg: &TelemetrySegment, windows: usize) {
    println!(
        "segment seq {} @ t={:.0}s: {} samples, {} counter / {} gauge / {} histogram series",
        seg.seq,
        seg.at_secs,
        seg.samples,
        seg.counters.len(),
        seg.gauges.len(),
        seg.histograms.len()
    );
    println!("\n-- last {windows} windows --");
    for (name, points) in seg.counters.iter().chain(seg.gauges.iter()) {
        let tail: Vec<String> = points
            .iter()
            .skip(points.len().saturating_sub(windows))
            .map(|p| format!("{:.0}s:{:.4}", p.at_secs, p.value))
            .collect();
        println!("  {name}: {}", tail.join("  "));
    }
    for (name, h) in &seg.histograms {
        let tail: Vec<String> = h
            .frames
            .iter()
            .skip(h.frames.len().saturating_sub(windows))
            .map(|f| format!("{:.0}s:n={},sum={:.4}", f.at_secs, f.count, f.sum))
            .collect();
        println!("  {name} (hist): {}", tail.join("  "));
    }
}

fn print_alerts(seg: &TelemetrySegment) {
    println!("\n-- fired alerts ({}) --", seg.alerts.len());
    for a in &seg.alerts {
        println!(
            "  {} value {:.4} threshold {:.4} at {:.0}s (fired {}x)",
            a.rule, a.value, a.threshold, a.at_secs, a.fired_count
        );
    }
}

fn print_top_self_times(seg: &TelemetrySegment) {
    let mut sinks: Vec<(&str, f64, u64)> = seg
        .histograms
        .iter()
        .filter_map(|(name, h)| h.frames.last().map(|f| (name.as_str(), f.sum, f.count)))
        .collect();
    sinks.sort_by(|a, b| f64::total_cmp(&b.1, &a.1));
    println!("\n-- top histogram self-times --");
    for (name, sum, count) in sinks.iter().take(5) {
        println!("  {name}: {sum:.6}s across {count} observation(s)");
    }
}

fn analyze(args: &Args) -> ExitCode {
    let scan = match load_segments(&args.dir, 16) {
        Ok(scan) => scan,
        Err(e) => {
            eprintln!("[postmortem] cannot scan {}: {e}", args.dir.display());
            return ExitCode::FAILURE;
        }
    };
    if scan.skipped > 0 {
        eprintln!(
            "[postmortem] skipped {} torn/corrupt segment file(s)",
            scan.skipped
        );
    }
    let Some(newest) = scan.segments.first() else {
        eprintln!(
            "[postmortem] no valid segments in {} — nothing to reconstruct",
            args.dir.display()
        );
        return ExitCode::FAILURE;
    };
    if newest.samples == 0 || newest.counters.is_empty() {
        eprintln!("[postmortem] newest segment holds an empty timeline");
        return ExitCode::FAILURE;
    }

    println!(
        "postmortem: {} valid segment(s) in {} (newest first)\n",
        scan.segments.len(),
        args.dir.display()
    );
    print_timeline(newest, args.windows);
    print_alerts(newest);
    print_top_self_times(newest);

    if let Some(rule) = &args.expect_alert {
        if !newest.alerts.iter().any(|a| &a.rule == rule) {
            eprintln!("\n[postmortem] expected alert '{rule}' did not fire before the crash");
            return ExitCode::FAILURE;
        }
        println!("\nexpected alert '{rule}' fired before the crash");
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = parse_args();
    if args.crash {
        run_crash(&args)
    } else {
        analyze(&args)
    }
}
