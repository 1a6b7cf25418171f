//! Timing helpers, order statistics and process memory.

use std::time::Instant;

/// Fewest set-ups per run; `setup_s` is their median.
const MIN_SETUPS: usize = 3;
/// Most set-ups per run.
const MAX_SETUPS: usize = 15;
/// Set-ups repeat until they have taken this long in total, so that a
/// 120 ms set-up is a median of 15 and a 250 ms one of 8.
const SETUP_BUDGET_S: f64 = 2.0;

/// Runs `f` and returns its result and the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// `setup_s`: the median of the run's first set-up (`first_s`, already made
/// and used) and of as many repeats as the constants above allow. Call it
/// when the measuring is over and the first set-up's result is dropped: the
/// repeats then reuse memory the process already owns, instead of paying
/// first-touch page faults (the hypervisor's work, which made `setup_s` swing
/// twice as far as the host's speed did), and they cannot raise the peak
/// memory the run reports.
pub fn median_set_up_s(first_s: f64, mut set_up_and_drop: impl FnMut()) -> f64 {
    let mut secs = vec![first_s];
    while secs.len() < MIN_SETUPS
        || (secs.len() < MAX_SETUPS && secs.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        secs.push(timed(&mut set_up_and_drop).1);
    }
    let listed: Vec<String> = secs.iter().map(|s| format!("{s:.3}")).collect();
    eprintln!("{} set-ups: {} s", secs.len(), listed.join(" "));
    median(&secs)
}

/// Smallest of `values` (∞ when empty).
///
/// Serving phases report their best, not their median: the 2-core shared
/// host this was built on switches between two speeds every few seconds
/// (call p50 1.68 µs or 2.7 µs, with no steal reported), so a median of ten
/// phases flips with the mix while the best phase is the one that ran
/// undisturbed. The deployment workloads do the same per chunk
/// (`deploy::end_to_end`).
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `q`-quantile of an ascending slice, linearly interpolated towards the
/// next larger value. A run of equal values (nanosecond call times come in
/// steps of the clock's resolution) is spread evenly up to that next value,
/// so the result moves continuously instead of in clock steps; without ties
/// this is the usual interpolation between neighbouring order statistics.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let pos = q * (sorted.len() - 1) as f64;
    let value = sorted[pos.floor() as usize];
    let first = sorted.partition_point(|&x| x < value);
    let past = sorted.partition_point(|&x| x <= value);
    let next = sorted.get(past).copied().unwrap_or(value);
    value + (next - value) * (pos - first as f64) / (past - first) as f64
}

/// Lower quartile of `values`.
pub fn lower_quartile(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, 0.25)
}

/// Sorts `values` and returns its median and its `tail`-quantile.
pub fn p50_and(tail: f64, values: &mut [f64]) -> (f64, f64) {
    values.sort_by(f64::total_cmp);
    (quantile_sorted(values, 0.50), quantile_sorted(values, tail))
}

/// The quantile `op_ms_tail` reports: p99, which leaves 12 of a run's 1200
/// chunk intervals and 3000 of a storm phase's calls beyond it.
pub const TAIL: f64 = 0.99;

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kb / 1024.0)
        })
        .unwrap_or(0.0)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Seconds of CPU the hypervisor took from this guest since boot (the
/// `steal` column of `/proc/stat`), or 0 where it is not reported. Printed
/// beside a run's numbers: on a shared host it says whether a slow run was
/// the program's doing.
pub fn steal_secs() -> f64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let cpu = stat.lines().next()?;
            let jiffies: f64 = cpu.split_whitespace().nth(8)?.parse().ok()?;
            Some(jiffies / 100.0)
        })
        .unwrap_or(0.0)
}
