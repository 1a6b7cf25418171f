//! Deterministic, seeded fault injection for the storage and engine layers.
//!
//! The paper's platform (§4) assumes the data manager can always
//! re-materialize evicted feature chunks through the pipeline; a production
//! deployment additionally sees disk-read errors, torn/corrupt spill files,
//! slow devices, and worker crashes. This crate provides the injection
//! substrate that makes those failure modes *testable*:
//!
//! * a [`FaultPlan`] — per-site probabilities plus a seed — describing which
//!   faults to inject;
//! * a [`FaultHook`] trait consulted at every fault site (the I/O
//!   operations of [`IoOp`], the execution engine's worker shards and the
//!   crash countdown of [`CrashSite`]), with a
//!   zero-cost [`NoFaults`] default;
//! * a [`FaultInjector`] implementing the hook: every decision is a pure
//!   function of `(seed, site, key, attempt)` — **not** a draw from a shared
//!   sequential RNG — so decisions are independent of thread scheduling and
//!   identical across engines and worker counts;
//! * [`FaultStats`] counters (injected vs recovered vs fatal, retries,
//!   fall-through re-materializations) that the recovery sites record into
//!   and deployments snapshot into their results.
//!
//! Determinism contract: with the same [`FaultPlan`], two runs of the same
//! deployment inject the same faults at the same sites and recover the same
//! way, producing bit-identical results; worker-fault orders are drawn per
//! engine *call* (not per physical shard), so the counters are identical
//! across worker counts too.

#![warn(missing_docs)]

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Duration;

/// Maximum in-place restarts the engine grants an injected worker panic
/// before the panic is allowed to propagate (fatal).
pub const MAX_WORKER_RESTARTS: u32 = 3;

/// Payload type of engine-injected worker panics. The engine's restart loop
/// (and its quiet panic hook) recognizes injected panics by downcasting to
/// this type; genuine worker panics carry other payloads and still propagate.
#[derive(Debug, Clone, Copy)]
pub struct InjectedWorkerPanic;

/// The I/O operation a fault decision applies to. Each carries its site
/// discriminant in the event hash, so a decision is the same pure function of
/// `(seed, site, key, attempt)` whichever caller asks.
///
/// Spill-log faults count into [`FaultStats`]; WAL faults do not — the WAL
/// keeps its own accounting (`WalStats` in `cdp-storage`), because a lost
/// WAL append falls back to stream replay, outside the bit-identity contract
/// `FaultStats` is part of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoOp {
    /// Reading a spilled chunk (key: the chunk timestamp).
    DiskRead = 0x01,
    /// Writing (spilling) a chunk (key: the chunk timestamp).
    DiskWrite = 0x02,
    /// Encoding and buffering one WAL record (key: its sequence number).
    WalAppend = 0x05,
    /// Writing and fsyncing a WAL group (key: the group's last sequence
    /// number).
    WalFsync = 0x06,
    /// Rotating to a fresh WAL segment (key: the next sequence number).
    WalRotate = 0x07,
}

/// The outcome of consulting the hook at an I/O fault site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoFault {
    /// No fault: perform the operation normally.
    Proceed,
    /// Fail the attempt with an injected I/O error.
    Fail,
    /// Perform the read, then flip one byte of the buffer before decoding
    /// (spill reads only; a checksummed codec must detect this).
    Corrupt,
    /// Sleep this long, then proceed (slow-chunk latency, spill reads only;
    /// wall-clock only, never accounted cost).
    Delay(Duration),
}

/// Where a crash-point injection can kill a deployment.
///
/// A crash is not a probability — it is a *countdown*: the plan names a site
/// and an occurrence number, and the injector fires exactly once, when that
/// site is consulted for the `crash_at`-th time (0-based). This makes
/// kill-points reproducible coordinates rather than random events, which is
/// what the kill-and-resume bit-identity tests sweep over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashSite {
    /// After a chunk's processing (and any due checkpoint write) completes.
    ChunkBoundary,
    /// At the run's `crash_at`-th durable operation: a WAL group write, a
    /// WAL segment publish (the opening one and each rotation), a checkpoint
    /// publish or a flight-recorder segment publish. The operation is left
    /// torn by the durable layer's one tear rule (DESIGN.md §12).
    Durable,
}

impl CrashSite {
    /// Stable lowercase name (used in env parsing, errors and reports).
    pub fn name(&self) -> &'static str {
        match self {
            CrashSite::ChunkBoundary => "chunk",
            CrashSite::Durable => "durable",
        }
    }

    /// Parses a site name as written by [`CrashSite::name`].
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim() {
            "chunk" => Some(CrashSite::ChunkBoundary),
            "durable" => Some(CrashSite::Durable),
            _ => None,
        }
    }
}

/// Worker faults for one engine `map` call, drawn once per call so the
/// injected counts do not depend on how many shards the worker count
/// produces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerOrder {
    /// Consecutive injected panics the targeted shard must suffer before it
    /// is allowed to succeed. `> MAX_WORKER_RESTARTS` means the panic
    /// propagates (fatal).
    pub panics: u32,
    /// Selects which shard acts the order (`target % shard_count`).
    pub target: u64,
}

/// Bounded retry-with-exponential-backoff parameters for disk operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failed attempt (so `max_retries + 1` attempts
    /// total).
    pub max_retries: u32,
    /// Backoff before retry `k` is `base_backoff << k` (zero disables
    /// sleeping; the attempt counter still advances).
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_backoff: Duration::from_micros(100),
        }
    }
}

impl RetryPolicy {
    /// Sleeps the exponential backoff for retry number `attempt` (0-based).
    pub fn sleep(&self, attempt: u32) {
        if self.base_backoff.is_zero() {
            return;
        }
        let factor = 1u32 << attempt.min(10);
        std::thread::sleep(self.base_backoff * factor);
    }
}

/// A seeded description of which faults to inject where.
///
/// All probabilities are per *attempt* and evaluated independently per
/// `(site, key, attempt)` triple, so retrying a failed operation re-rolls
/// the fault — injected disk faults are transient by construction unless the
/// probability is high enough that `max_retries + 1` consecutive rolls hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed all decisions derive from.
    pub seed: u64,
    /// P(injected I/O error) per disk-read attempt.
    pub disk_read_error: f64,
    /// P(injected I/O error) per disk-write attempt.
    pub disk_write_error: f64,
    /// P(single-byte buffer corruption) per disk-read attempt.
    pub read_corruption: f64,
    /// P(an engine map call receives an injected worker panic), re-rolled
    /// per restart attempt.
    pub worker_panic: f64,
    /// P(slow-chunk latency) per disk-read attempt.
    pub slow_chunk: f64,
    /// Injected latency when `slow_chunk` fires, in milliseconds.
    pub slow_chunk_ms: u64,
    /// P(injected failure) per WAL append attempt.
    pub wal_append_error: f64,
    /// P(injected failure) per WAL group-commit fsync attempt.
    pub wal_fsync_error: f64,
    /// P(injected failure) per WAL segment-rotation attempt.
    pub wal_rotate_error: f64,
    /// Where to kill the process, if anywhere (crash-point injection).
    pub crash_site: Option<CrashSite>,
    /// Which occurrence of `crash_site` dies (0-based countdown, not a
    /// probability — see [`CrashSite`]).
    pub crash_at: u64,
}

impl FaultPlan {
    /// The inactive plan: no faults, ever.
    pub fn none() -> Self {
        Self {
            seed: 0,
            disk_read_error: 0.0,
            disk_write_error: 0.0,
            read_corruption: 0.0,
            worker_panic: 0.0,
            slow_chunk: 0.0,
            slow_chunk_ms: 0,
            wal_append_error: 0.0,
            wal_fsync_error: 0.0,
            wal_rotate_error: 0.0,
            crash_site: None,
            crash_at: 0,
        }
    }

    /// A moderate all-sites plan: every fault kind fires occasionally but
    /// transiently (single-attempt probabilities low enough that bounded
    /// retry almost always recovers).
    pub fn chaos(seed: u64) -> Self {
        Self {
            seed,
            disk_read_error: 0.15,
            disk_write_error: 0.15,
            read_corruption: 0.10,
            worker_panic: 0.25,
            slow_chunk: 0.05,
            slow_chunk_ms: 1,
            wal_append_error: 0.10,
            wal_fsync_error: 0.10,
            wal_rotate_error: 0.10,
            crash_site: None,
            crash_at: 0,
        }
    }

    /// Reads a plan from the environment: `CDP_FAULT_SEED` activates
    /// [`FaultPlan::chaos`] with that seed. Returns `None` when it is unset,
    /// empty, or unparsable.
    pub fn from_env() -> Option<Self> {
        let seed: u64 = std::env::var("CDP_FAULT_SEED").ok()?.trim().parse().ok()?;
        Some(Self::chaos(seed))
    }

    /// Whether any fault kind has a non-zero probability or a crash is armed.
    pub fn is_active(&self) -> bool {
        self.disk_read_error > 0.0
            || self.disk_write_error > 0.0
            || self.read_corruption > 0.0
            || self.worker_panic > 0.0
            || self.slow_chunk > 0.0
            || self.wal_append_error > 0.0
            || self.wal_fsync_error > 0.0
            || self.wal_rotate_error > 0.0
            || self.crash_site.is_some()
    }
}

/// Counters describing injected faults and how the platform recovered.
///
/// All counters are order-independent sums, so snapshots are identical
/// across engines and worker counts for the same [`FaultPlan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Injected disk-read I/O errors.
    pub injected_disk_read: u64,
    /// Injected disk-write I/O errors.
    pub injected_disk_write: u64,
    /// Injected read-buffer corruptions.
    pub injected_corruption: u64,
    /// Injected worker panics (one per restart attempt).
    pub injected_worker_panics: u64,
    /// Injected slow-chunk delays.
    pub injected_delays: u64,
    /// Injected process crashes (kill-points fired).
    pub injected_crashes: u64,
    /// Retry attempts performed by recovery sites (disk backoff retries and
    /// worker-shard restarts).
    pub retries: u64,
    /// Operations that failed at least once and then succeeded (retry or
    /// restart recovery).
    pub recovered: u64,
    /// Lookups whose disk tier was lost/corrupt beyond retry and fell
    /// through to pipeline re-materialization.
    pub fallback_rematerializations: u64,
    /// Spill writes abandoned after exhausting retries (the chunk stays
    /// recomputable from raw data).
    pub lost_spills: u64,
    /// Faults that exhausted every recovery path and propagated.
    pub fatal: u64,
}

impl FaultStats {
    /// Total injected faults across all kinds.
    pub fn injected_total(&self) -> u64 {
        self.injected_disk_read
            + self.injected_disk_write
            + self.injected_corruption
            + self.injected_worker_panics
            + self.injected_delays
            + self.injected_crashes
    }
}

impl fmt::Display for FaultStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "injected {} (read {}, write {}, corrupt {}, panic {}, slow {}, crash {}), \
             retries {}, recovered {}, fallback-remat {}, lost-spills {}, fatal {}",
            self.injected_total(),
            self.injected_disk_read,
            self.injected_disk_write,
            self.injected_corruption,
            self.injected_worker_panics,
            self.injected_delays,
            self.injected_crashes,
            self.retries,
            self.recovered,
            self.fallback_rematerializations,
            self.lost_spills,
            self.fatal
        )
    }
}

/// A fault-site oracle plus recovery-accounting sink, threaded through
/// `DiskTier`, `TieredStore`, `ExecutionEngine`, and `DataManager`.
///
/// Every method has a no-op default, so [`NoFaults`] (and any custom test
/// hook) implements only what it needs; the release hot path pays one
/// dynamic call that immediately returns [`IoFault::Proceed`].
pub trait FaultHook: Send + Sync + fmt::Debug {
    /// Decision for one attempt of I/O operation `op` (`key` per [`IoOp`]).
    /// Injected faults are transient per attempt; the caller retries and
    /// accounts its recovery.
    fn decide_io(&self, _op: IoOp, _key: u64, _attempt: u32) -> IoFault {
        IoFault::Proceed
    }

    /// Worker faults for the next engine map call. Implementations that
    /// inject must also account the order's injections/retries/outcome here
    /// (the engine only acts the order out physically), keeping stats
    /// identical across engines and worker counts.
    fn next_worker_order(&self) -> WorkerOrder {
        WorkerOrder::default()
    }

    /// Whether the process should die *now*, at this consultation of `site`:
    /// true exactly once per armed plan, at the configured occurrence. The
    /// deployment loop consults [`CrashSite::ChunkBoundary`] after every
    /// chunk, the durable layer [`CrashSite::Durable`] before every durable
    /// operation; either aborts the run with a typed error.
    fn crash_now(&self, _site: CrashSite) -> bool {
        false
    }

    /// The number of engine map calls consumed so far (worker-order epoch).
    /// Checkpoints persist this so a resumed injector continues the same
    /// worker-fault sequence instead of rewinding it.
    fn worker_epoch(&self) -> u64 {
        0
    }

    /// Records one recovery retry (disk backoff retry).
    fn note_retry(&self) {}

    /// Records an operation that succeeded after at least one failure.
    fn note_recovered(&self) {}

    /// Records a lookup that fell through to pipeline re-materialization.
    fn note_fallback_rematerialization(&self) {}

    /// Records a spill write abandoned after exhausting retries.
    fn note_lost_spill(&self) {}

    /// Current counter snapshot.
    fn snapshot(&self) -> FaultStats {
        FaultStats::default()
    }
}

/// The default hook: never injects, never counts.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoFaults;

impl FaultHook for NoFaults {}

/// SplitMix64 finalizer — the per-event mixing function.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform `[0, 1)` from a hash word.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Site discriminants folded into the event hash, beside [`IoOp`]'s.
const SITE_WORKER: u64 = 0x03;
const SITE_CORRUPT_BYTE: u64 = 0x04;

/// Pure per-event hash: depends only on the plan seed and the event
/// coordinates, never on call order.
fn event_hash(seed: u64, site: u64, key: u64, attempt: u64) -> u64 {
    mix(seed ^ mix(site ^ mix(key ^ mix(attempt))))
}

/// Deterministic index of the byte an injected corruption flips.
pub fn corrupt_byte_index(seed: u64, key: u64, len: usize) -> usize {
    if len == 0 {
        return 0;
    }
    (event_hash(seed, SITE_CORRUPT_BYTE, key, 0) % len as u64) as usize
}

/// One [`FaultStats`] counter, picked by the fault it counts.
type Counter = fn(&mut FaultStats) -> &mut u64;

/// The standard [`FaultHook`]: injects per a [`FaultPlan`] and counts both
/// injections and recoveries.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Worker orders are keyed by a call epoch. The engine is only invoked
    /// from the (single-threaded) deployment driver, so the epoch sequence
    /// is deterministic for a fixed configuration.
    epoch: AtomicU64,
    /// Consultations of the armed [`CrashSite`] so far: the crash countdown.
    crash_seen: AtomicU64,
    /// The accounting, locked only to count an injection or a recovery.
    stats: Mutex<FaultStats>,
}

impl FaultInjector {
    /// Creates an injector for `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        Self::with_state(plan, FaultStats::default(), 0)
    }

    /// Rebuilds an injector mid-deployment from checkpointed accounting:
    /// the counters resume from `stats` and worker orders continue from
    /// `epoch`, so a resumed run's fault sequence and final stats match an
    /// uninterrupted run's. The crash countdown restarts (a resumed run
    /// normally clears `crash_site` anyway).
    pub fn with_state(plan: FaultPlan, stats: FaultStats, epoch: u64) -> Self {
        Self {
            plan,
            epoch: AtomicU64::new(epoch),
            crash_seen: AtomicU64::new(0),
            stats: Mutex::new(stats),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> FaultPlan {
        self.plan
    }

    /// Adds to the counters. Every update only adds, so the counts stay
    /// valid under a lock a panicking holder poisoned.
    fn count(&self, add: impl FnOnce(&mut FaultStats)) {
        add(&mut self.stats.lock().unwrap_or_else(PoisonError::into_inner));
    }
}

impl FaultHook for FaultInjector {
    fn decide_io(&self, op: IoOp, key: u64, attempt: u32) -> IoFault {
        let p_fail = match op {
            IoOp::DiskRead => self.plan.disk_read_error,
            IoOp::DiskWrite => self.plan.disk_write_error,
            IoOp::WalAppend => self.plan.wal_append_error,
            IoOp::WalFsync => self.plan.wal_fsync_error,
            IoOp::WalRotate => self.plan.wal_rotate_error,
        };
        let (seed, attempt) = (self.plan.seed, u64::from(attempt));
        let r = unit(event_hash(seed, op as u64, key, attempt));
        // Spill reads also corrupt or stall, on the bands after `p_fail`.
        let p_corrupt = p_fail + self.plan.read_corruption;
        let p_slow = p_corrupt + self.plan.slow_chunk;
        let (fault, counted): (_, Option<Counter>) = match op {
            IoOp::DiskRead if r < p_fail => (IoFault::Fail, Some(|s| &mut s.injected_disk_read)),
            IoOp::DiskWrite if r < p_fail => (IoFault::Fail, Some(|s| &mut s.injected_disk_write)),
            _ if r < p_fail => (IoFault::Fail, None),
            IoOp::DiskRead if r < p_corrupt => {
                (IoFault::Corrupt, Some(|s| &mut s.injected_corruption))
            }
            IoOp::DiskRead if r < p_slow => {
                let delay = Duration::from_millis(self.plan.slow_chunk_ms);
                (IoFault::Delay(delay), Some(|s| &mut s.injected_delays))
            }
            _ => (IoFault::Proceed, None),
        };
        if let Some(counter) = counted {
            self.count(|s| *counter(s) += 1);
        }
        fault
    }

    fn next_worker_order(&self) -> WorkerOrder {
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed);
        // Re-roll the panic per restart attempt: `panics` is the number of
        // consecutive per-attempt hits, capped one past the restart budget
        // (at which point the panic is fatal anyway).
        let mut panics = 0u32;
        while panics <= MAX_WORKER_RESTARTS
            && unit(event_hash(
                self.plan.seed,
                SITE_WORKER,
                epoch,
                u64::from(panics),
            )) < self.plan.worker_panic
        {
            panics += 1;
        }
        if panics > 0 {
            self.count(|s| {
                s.injected_worker_panics += u64::from(panics);
                s.retries += u64::from(panics.min(MAX_WORKER_RESTARTS));
                if panics <= MAX_WORKER_RESTARTS {
                    s.recovered += 1;
                } else {
                    s.fatal += 1;
                }
            });
        }
        WorkerOrder {
            panics,
            target: event_hash(self.plan.seed, SITE_WORKER, epoch, u64::MAX),
        }
    }

    fn crash_now(&self, site: CrashSite) -> bool {
        if self.plan.crash_site != Some(site) {
            return false;
        }
        let dies = self.crash_seen.fetch_add(1, Ordering::Relaxed) == self.plan.crash_at;
        if dies {
            self.count(|s| s.injected_crashes += 1);
        }
        dies
    }

    fn worker_epoch(&self) -> u64 {
        self.epoch.load(Ordering::Relaxed)
    }

    fn note_retry(&self) {
        self.count(|s| s.retries += 1);
    }

    fn note_recovered(&self) {
        self.count(|s| s.recovered += 1);
    }

    fn note_fallback_rematerialization(&self) {
        self.count(|s| s.fallback_rematerializations += 1);
    }

    fn note_lost_spill(&self) {
        self.count(|s| s.lost_spills += 1);
    }

    fn snapshot(&self) -> FaultStats {
        *self.stats.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const IO_OPS: [IoOp; 5] = [
        IoOp::DiskRead,
        IoOp::DiskWrite,
        IoOp::WalAppend,
        IoOp::WalFsync,
        IoOp::WalRotate,
    ];

    /// The two decide methods `decide_io` replaced, verbatim but for their
    /// names: the disk sites' (counting into the injector) and the WAL
    /// sites' (counting nothing).
    fn reference_decide(inj: &FaultInjector, op: IoOp, key: u64, attempt: u32) -> IoFault {
        let plan = inj.plan;
        let hash = |site: u64| unit(event_hash(plan.seed, site, key, u64::from(attempt)));
        let wal = |site: u64, p: f64| {
            if hash(site) < p {
                IoFault::Fail
            } else {
                IoFault::Proceed
            }
        };
        match op {
            IoOp::DiskWrite => {
                if hash(0x02) < plan.disk_write_error {
                    inj.count(|s| s.injected_disk_write += 1);
                    IoFault::Fail
                } else {
                    IoFault::Proceed
                }
            }
            IoOp::DiskRead => {
                let r = hash(0x01);
                let p_err = plan.disk_read_error;
                let p_corrupt = p_err + plan.read_corruption;
                let p_slow = p_corrupt + plan.slow_chunk;
                if r < p_err {
                    inj.count(|s| s.injected_disk_read += 1);
                    IoFault::Fail
                } else if r < p_corrupt {
                    inj.count(|s| s.injected_corruption += 1);
                    IoFault::Corrupt
                } else if r < p_slow {
                    inj.count(|s| s.injected_delays += 1);
                    IoFault::Delay(Duration::from_millis(plan.slow_chunk_ms))
                } else {
                    IoFault::Proceed
                }
            }
            IoOp::WalAppend => wal(0x05, plan.wal_append_error),
            IoOp::WalFsync => wal(0x06, plan.wal_fsync_error),
            IoOp::WalRotate => wal(0x07, plan.wal_rotate_error),
        }
    }

    #[test]
    fn io_decisions_and_counts_equal_the_two_vocabularies_they_replace() {
        let lopsided = FaultPlan {
            seed: 3,
            disk_read_error: 0.4,
            read_corruption: 0.3,
            slow_chunk: 0.2,
            wal_rotate_error: 0.9,
            ..FaultPlan::none()
        };
        for plan in [
            FaultPlan::chaos(7),
            FaultPlan::chaos(104729),
            lopsided,
            FaultPlan::none(),
        ] {
            let (io, reference) = (FaultInjector::new(plan), FaultInjector::new(plan));
            for key in 0..400u64 {
                for (i, &op) in IO_OPS.iter().enumerate() {
                    let attempt = ((key + i as u64) % 4) as u32;
                    assert_eq!(
                        io.decide_io(op, key, attempt),
                        reference_decide(&reference, op, key, attempt),
                        "{op:?} key {key} attempt {attempt}"
                    );
                }
            }
            assert_eq!(io.snapshot(), reference.snapshot());
        }
    }

    #[test]
    fn decisions_are_deterministic_and_order_free() {
        let a = FaultInjector::new(FaultPlan::chaos(42));
        let b = FaultInjector::new(FaultPlan::chaos(42));
        // Same events in different orders: identical decisions.
        let events: Vec<(IoOp, u64, u32)> = (0..500)
            .map(|i| (IO_OPS[i % 5], i as u64 / 5, (i % 3) as u32))
            .collect();
        let fwd: Vec<IoFault> = events
            .iter()
            .map(|&(op, k, at)| a.decide_io(op, k, at))
            .collect();
        let rev: Vec<IoFault> = events
            .iter()
            .rev()
            .map(|&(op, k, at)| b.decide_io(op, k, at))
            .collect();
        let rev_fwd: Vec<IoFault> = rev.into_iter().rev().collect();
        assert_eq!(fwd, rev_fwd);
        assert_eq!(a.snapshot(), b.snapshot());
        assert!(a.snapshot().injected_total() > 0, "chaos plan must fire");
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultInjector::new(FaultPlan::chaos(1));
        let b = FaultInjector::new(FaultPlan::chaos(2));
        let da: Vec<IoFault> = (0..300)
            .map(|k| a.decide_io(IoOp::DiskRead, k, 0))
            .collect();
        let db: Vec<IoFault> = (0..300)
            .map(|k| b.decide_io(IoOp::DiskRead, k, 0))
            .collect();
        assert_ne!(da, db);
    }

    #[test]
    fn none_plan_never_fires() {
        let inj = FaultInjector::new(FaultPlan::none());
        assert!(!inj.plan().is_active());
        for k in 0..500 {
            for op in IO_OPS {
                assert_eq!(inj.decide_io(op, k, 0), IoFault::Proceed);
                assert_eq!(NoFaults.decide_io(op, k, 0), IoFault::Proceed);
            }
        }
        assert_eq!(inj.next_worker_order().panics, 0);
        assert_eq!(inj.snapshot(), FaultStats::default());
    }

    #[test]
    fn worker_orders_account_recovery_and_fatality() {
        let mut plan = FaultPlan::none();
        plan.worker_panic = 1.0; // every attempt panics ⇒ always fatal
        plan.seed = 9;
        let inj = FaultInjector::new(plan);
        let order = inj.next_worker_order();
        assert_eq!(order.panics, MAX_WORKER_RESTARTS + 1);
        let stats = inj.snapshot();
        assert_eq!(stats.fatal, 1);
        assert_eq!(stats.recovered, 0);

        let mut recoverable = FaultPlan::none();
        recoverable.worker_panic = 0.4;
        recoverable.seed = 3;
        let inj = FaultInjector::new(recoverable);
        let mut recovered_some = false;
        for _ in 0..200 {
            inj.next_worker_order();
        }
        let stats = inj.snapshot();
        if stats.recovered > 0 {
            recovered_some = true;
        }
        assert!(recovered_some, "p=0.4 over 200 orders must recover some");
        assert!(stats.injected_worker_panics > 0);
        assert_eq!(stats.retries, stats.injected_worker_panics - stats.fatal);
    }

    #[test]
    fn crash_countdown_fires_exactly_once_at_the_named_occurrence() {
        for site in [CrashSite::ChunkBoundary, CrashSite::Durable] {
            let plan = FaultPlan {
                crash_site: Some(site),
                crash_at: 3,
                ..FaultPlan::none()
            };
            assert!(plan.is_active());
            let inj = FaultInjector::new(plan);
            let other = match site {
                CrashSite::ChunkBoundary => CrashSite::Durable,
                CrashSite::Durable => CrashSite::ChunkBoundary,
            };
            // The other site never fires, and does not advance the countdown.
            let fired: Vec<bool> = (0..8)
                .map(|_| {
                    assert!(!inj.crash_now(other));
                    inj.crash_now(site)
                })
                .collect();
            assert_eq!(
                fired,
                vec![false, false, false, true, false, false, false, false]
            );
            assert_eq!(inj.snapshot().injected_crashes, 1);
        }
        assert!(!NoFaults.crash_now(CrashSite::Durable));
    }

    #[test]
    fn crash_site_names_round_trip() {
        for site in [CrashSite::ChunkBoundary, CrashSite::Durable] {
            assert_eq!(CrashSite::parse(site.name()), Some(site));
        }
        assert_eq!(CrashSite::parse(" durable\n"), Some(CrashSite::Durable));
        for gone in ["nonsense", "fire", "checkpoint", "wal-append", "wal-rotate"] {
            assert_eq!(CrashSite::parse(gone), None);
        }
    }

    #[test]
    fn restored_injector_continues_counters_and_epochs() {
        let plan = FaultPlan::chaos(99);
        let fresh = FaultInjector::new(plan);
        for k in 0..50 {
            let _ = fresh.decide_io(IoOp::DiskRead, k, 0);
        }
        for _ in 0..5 {
            let _ = fresh.next_worker_order();
        }
        let mid_stats = fresh.snapshot();
        let mid_epoch = fresh.worker_epoch();
        assert_eq!(mid_epoch, 5);

        // Continue the original; rebuild a second from the mid-state and run
        // the same tail: stats and orders must match exactly.
        let resumed = FaultInjector::with_state(plan, mid_stats, mid_epoch);
        for k in 50..80 {
            let a = fresh.decide_io(IoOp::DiskRead, k, 0);
            let b = resumed.decide_io(IoOp::DiskRead, k, 0);
            assert_eq!(a, b);
        }
        for _ in 0..5 {
            assert_eq!(fresh.next_worker_order(), resumed.next_worker_order());
        }
        assert_eq!(fresh.snapshot(), resumed.snapshot());
    }

    #[test]
    fn stats_display_and_totals() {
        let stats = FaultStats {
            injected_disk_read: 2,
            injected_corruption: 1,
            recovered: 3,
            ..FaultStats::default()
        };
        assert_eq!(stats.injected_total(), 3);
        let s = stats.to_string();
        assert!(s.contains("injected 3"));
        assert!(s.contains("recovered 3"));
    }

    #[test]
    fn corrupt_index_is_stable_and_in_bounds() {
        let i = corrupt_byte_index(7, 100, 64);
        assert_eq!(i, corrupt_byte_index(7, 100, 64));
        assert!(i < 64);
        assert_eq!(corrupt_byte_index(7, 100, 0), 0);
    }

    #[test]
    fn noop_hook_defaults() {
        let hook = NoFaults;
        assert_eq!(hook.next_worker_order(), WorkerOrder::default());
        hook.note_retry();
        hook.note_recovered();
        assert_eq!(hook.snapshot(), FaultStats::default());
    }

    #[test]
    fn retry_policy_backoff_is_bounded() {
        let p = RetryPolicy {
            max_retries: 2,
            base_backoff: Duration::ZERO,
        };
        p.sleep(0); // must not sleep with a zero base
        p.sleep(31); // shift amount is clamped
        assert_eq!(RetryPolicy::default().max_retries, 3);
    }
}
