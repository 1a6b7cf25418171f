//! The execution engine substrate.
//!
//! The paper's prototype delegates batch processing (proactive training) and
//! stream processing (online learning, query answering) to Apache Spark
//! (§4.5: "any data processing platform capable of processing data both in
//! batch mode and streaming mode is a suitable execution engine"). This
//! crate is that substrate at laptop scale: an [`ExecutionEngine`] executes
//! chunk-level data-parallel operations either sequentially or on a
//! **persistent worker pool** — threads are created once per worker count
//! (process-wide) and reused across calls, fed over one `std::sync::mpsc`
//! channel whose receiver they share behind a mutex.
//!
//! Scheduling is **one claim counter** over contiguous units: the input
//! index space is cut into a few units per participant, and every
//! participant claims the next unit with one `fetch_add` until the counter
//! passes the unit count, so a straggling unit holds up only its own
//! participant. Each unit writes its own disjoint run of output slots, handed
//! out once through a per-unit cell. Completion is counted, not barriered:
//! every claimed unit bumps a shared counter and the last one wakes the
//! submitting thread. On the untraced hot path the submitting thread itself
//! takes part, so a map whose units all fit one participant degenerates to a
//! plain loop with no cross-thread hand-off at all; helper workers are
//! enlisted only up to the host's spare parallelism. With tracing enabled
//! every unit runs on pool threads instead, so the span tree reliably
//! crosses threads.
//!
//! There is one map: [`ExecutionEngine::try_map_indexed`] over the index
//! space `0..n`, so callers borrow whatever their items live in instead of
//! handing the engine a `Vec<T>`. Its fault hook is an explicit argument and
//! its observers travel in one [`RunCtx`]; [`ExecutionEngine::map_indexed`]
//! and [`ExecutionEngine::map_parts`] are the only sugars and take no hook,
//! so a call site that can draw a [`WorkerOrder`] says so in its signature.
//!
//! Determinism contract: the map writes each output into its own index
//! slot, so input order is preserved no matter which participant ran which
//! unit, and [`ExecutionEngine::try_map_reduce`] combines the outputs in a
//! fixed shape that depends only on their number — never on worker count or
//! scheduling — so floating-point results are bit-identical across engines.
//! Scheduling observables that *are* timing-dependent (`engine.queue_depth`,
//! `engine.barrier_wait_secs`) are recorded as histograms, never as
//! deterministic counters.

#![warn(missing_docs)]

use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};

use cdp_faults::{FaultHook, InjectedWorkerPanic, NoFaults, WorkerOrder, MAX_WORKER_RESTARTS};
use cdp_obs::{Metrics, SpanContext, TraceSpan, Tracer};

/// Locks `mutex`, recovering from poisoning.
///
/// Every engine mutex guards simple scalar state (a registry map, a done
/// flag, a panic slot, a unit's slot cell) that stays consistent even when
/// the holder unwinds mid-critical-section, so poisoning carries no
/// information here. Propagating it would crash the deployment thread on
/// the very fault the worker-restart machinery exists to absorb.
fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Contiguous units handed out per participant in one map call: a few per
/// participant so the units behind a straggling one go to idle participants
/// without giving up contiguity.
const UNITS_PER_PARTICIPANT: usize = 4;

/// An erased unit of work queued on the pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// A persistent pool of worker threads fed over one std channel.
///
/// Pools are process-global, keyed by worker count: the first
/// `Threaded { workers: w }` call spawns the `w` threads, every later call
/// with the same count reuses them. The threads share the receiver behind a
/// mutex: an idle one blocks in `recv` holding it, the others on the lock,
/// and each lets go of it before it runs the job it took.
struct WorkerPool {
    sender: Sender<Job>,
}

impl WorkerPool {
    /// Spawns the pool. When the OS refuses a thread the threads already
    /// started see their channel close and exit, and nothing is registered.
    fn new(workers: usize) -> Result<Self, EngineError> {
        let (sender, receiver) = mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        for i in 0..workers {
            let receiver = Arc::clone(&receiver);
            std::thread::Builder::new()
                .name(format!("cdp-engine-{i}"))
                .spawn(move || loop {
                    // The guard drops at the end of this statement, before
                    // the job runs: held across it, it would serialize the
                    // pool. Helper jobs catch unit panics internally, so a
                    // panicking map never kills its worker; the loop only
                    // ends if the sender side is dropped (process exit).
                    let Ok(job) = lock_ignore_poison(&receiver).recv() else {
                        break;
                    };
                    job();
                })
                .map_err(|e| EngineError::PoolUnavailable(format!("spawn worker {i}: {e}")))?;
        }
        Ok(Self { sender })
    }

    /// The process-wide pool for `workers` threads (created on first use).
    fn global(workers: usize) -> Result<Arc<WorkerPool>, EngineError> {
        static POOLS: OnceLock<Mutex<HashMap<usize, Arc<WorkerPool>>>> = OnceLock::new();
        let registry = POOLS.get_or_init(|| Mutex::new(HashMap::new()));
        let mut registry = lock_ignore_poison(registry);
        if let Some(pool) = registry.get(&workers) {
            return Ok(Arc::clone(pool));
        }
        let pool = Arc::new(WorkerPool::new(workers)?);
        registry.insert(workers, Arc::clone(&pool));
        Ok(pool)
    }
}

/// How many pool helpers the host can keep busy next to the submitting
/// thread. On a 1-core host this is 1, so an 8-worker engine enlists a
/// single helper instead of drowning the core in idle contenders — the fix
/// for the old engine's 0.45× cliff at ×8.
fn helper_cap() -> usize {
    static CAP: OnceLock<usize> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(2)
            .saturating_sub(1)
            .max(1)
    })
}

/// Shared state for one map: the claim counter, completion count, panic
/// slot, and the close/guard handshake that lets pool jobs safely borrow
/// from the submitting thread's stack.
struct Control {
    /// The next unclaimed unit. Every participant claims with one
    /// `fetch_add(1)` until the counter passes `units`, so each unit index
    /// in `[0, units)` goes to exactly one of them.
    next: AtomicUsize,
    units: usize,
    completed: AtomicUsize,
    /// Set on the first unit panic; remaining units drain without running
    /// (fail-fast), so the caller wakes promptly with the first payload.
    poisoned: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Scope-close handshake: the caller sets `closed` only after every
    /// unit completed, then spins until `guards` drains to zero. A pool job
    /// increments `guards`, *then* checks `closed`: either it sees the map
    /// still open (and the caller's spin keeps the borrowed stack alive
    /// until the job's decrement), or it sees `closed` and never touches
    /// the borrow. All four accesses are SeqCst, so the Dekker-style pair
    /// (store closed / load guards vs. add guards / load closed) cannot
    /// both miss each other.
    closed: AtomicBool,
    guards: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
}

impl Control {
    fn new(units: usize) -> Self {
        debug_assert!(units >= 1);
        Self {
            next: AtomicUsize::new(0),
            units,
            completed: AtomicUsize::new(0),
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            closed: AtomicBool::new(false),
            guards: AtomicUsize::new(0),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
        }
    }
}

/// One participant's work loop: claim the next unit from the shared
/// counter, run it under `catch_unwind`, count completions, and wake the
/// submitting thread when the last unit lands.
///
/// Every claimed unit is counted as completed even when it panics or is
/// drained while poisoned — the completion count is the only thing the
/// caller waits on, so it must always reach `units`.
fn participate(ctrl: &Control, run_unit: &(dyn Fn(usize) + Sync)) {
    loop {
        // The claim needs only the read-modify-write's atomicity; what a
        // unit writes is published through the completion count below.
        let unit = ctrl.next.fetch_add(1, Ordering::Relaxed);
        if unit >= ctrl.units {
            break;
        }
        if !ctrl.poisoned.load(Ordering::SeqCst) {
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| run_unit(unit))) {
                ctrl.poisoned.store(true, Ordering::SeqCst);
                // Keep the first payload; any later one is dropped *outside*
                // the slot lock and behind its own catch_unwind: a payload
                // whose Drop panics while the lock is held would kill this
                // participant before the completion count below and hang the
                // caller forever.
                let extra = {
                    let mut slot = lock_ignore_poison(&ctrl.panic);
                    if slot.is_none() {
                        *slot = Some(payload);
                        None
                    } else {
                        Some(payload)
                    }
                };
                if let Some(extra) = extra {
                    let _ = panic::catch_unwind(AssertUnwindSafe(move || drop(extra)));
                }
            }
        }
        if ctrl.completed.fetch_add(1, Ordering::SeqCst) + 1 == ctrl.units {
            let mut done = lock_ignore_poison(&ctrl.done);
            *done = true;
            ctrl.done_cv.notify_all();
        }
    }
}

/// A failure the engine could not recover from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A worker panicked and (for injected panics) exhausted its restart
    /// budget; carries the panic message.
    WorkerPanic(String),
    /// The worker pool could not take the map: the OS refused a worker
    /// thread, or the pool's job channel is closed.
    PoolUnavailable(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::WorkerPanic(msg) => write!(f, "worker panic: {msg}"),
            EngineError::PoolUnavailable(msg) => write!(f, "worker pool unavailable: {msg}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl EngineError {
    fn from_payload(payload: Box<dyn Any + Send>) -> Self {
        let msg = if payload.downcast_ref::<InjectedWorkerPanic>().is_some() {
            "injected worker panic exhausted restarts".to_owned()
        } else if let Some(msg) = payload.downcast_ref::<String>() {
            msg.clone()
        } else if let Some(msg) = payload.downcast_ref::<&str>() {
            (*msg).to_owned()
        } else {
            "non-string panic payload".to_owned()
        };
        // Every map reports its failure through here, so a payload whose
        // `Drop` panics must not unwind out of the engine on the caller's
        // thread.
        let _ = panic::catch_unwind(AssertUnwindSafe(move || drop(payload)));
        EngineError::WorkerPanic(msg)
    }
}

/// Installs (once, process-wide) a panic hook that silences injected worker
/// panics — they are part of normal fault-injection operation and would
/// otherwise spam stderr with backtrace headers — while forwarding every
/// other panic to the previously installed hook.
fn install_quiet_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info
                .payload()
                .downcast_ref::<InjectedWorkerPanic>()
                .is_none()
            {
                prev(info);
            }
        }));
    });
}

/// Physically acts out the retryable part of a worker-fault order: each
/// injected panic is a *real* `panic_any` unwind caught right here, exactly
/// what a supervisor restarting a crashed worker observes. Returns `Err`
/// when the order exceeds the restart budget (the fatal case).
///
/// Injected panics always fire at unit entry — before any input item has
/// been consumed — so a restart re-runs the unit from scratch with no items
/// lost; this is what keeps results identical to the fault-free run.
fn act_injected_panics(panics: u32) -> Result<(), EngineError> {
    for _ in 0..panics.min(MAX_WORKER_RESTARTS) {
        let unwound = panic::catch_unwind(|| panic::panic_any(InjectedWorkerPanic));
        debug_assert!(unwound.is_err());
    }
    if panics > MAX_WORKER_RESTARTS {
        return Err(EngineError::WorkerPanic(
            "injected worker panic exhausted restarts".to_owned(),
        ));
    }
    Ok(())
}

/// Runs `units` units off one claim counter: enlists up to `workers` pool
/// helpers (capped by the host's spare parallelism on the untraced path,
/// where the submitting thread takes part too), waits for the completion
/// count, then closes the scope so no pool job can still touch the caller's
/// stack. Returns the first failure: a unit's panic, or a pool that could
/// not take the helpers.
fn run_units(
    workers: usize,
    units: usize,
    run_unit: &(dyn Fn(usize) + Sync),
    ctx: &RunCtx,
) -> Result<(), EngineError> {
    // With tracing enabled, hand every unit to pool threads so the span
    // tree reliably crosses threads (the observability contract the trace
    // tests pin down). Untraced — the perf path — the caller participates,
    // so small maps run inline and helpers only absorb overflow.
    let caller_participates = !ctx.tracer.is_enabled();
    let helpers = if caller_participates {
        workers.min(units.saturating_sub(1)).min(helper_cap())
    } else {
        workers.min(units).max(1)
    };
    let ctrl = Arc::new(Control::new(units));

    let mut pool_error = None;
    if helpers > 0 {
        // Nothing borrows the caller's stack yet, so a pool that cannot be
        // created is a plain early return.
        let pool = WorkerPool::global(workers)?;
        // SAFETY: the transmute only erases the lifetime of the borrow; the
        // fat pointer (data + vtable) is unchanged. The close/guard
        // handshake below guarantees no pool job dereferences it after this
        // function returns: jobs increment `guards` before checking
        // `closed`, and this function sets `closed` (after all units
        // completed) and then spins until `guards` is zero before
        // returning, so any job still inside `participate` keeps the
        // caller's stack pinned here.
        let run_static: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(run_unit) };
        for _ in 0..helpers {
            let ctrl_job = Arc::clone(&ctrl);
            let job: Job = Box::new(move || {
                ctrl_job.guards.fetch_add(1, Ordering::SeqCst);
                if !ctrl_job.closed.load(Ordering::SeqCst) {
                    participate(&ctrl_job, run_static);
                }
                ctrl_job.guards.fetch_sub(1, Ordering::SeqCst);
            });
            if pool.sender.send(job).is_err() {
                // Helpers already enlisted still borrow the caller's stack,
                // so the map cannot simply return: poison it (remaining
                // units drain without running) and let the caller drain
                // the counter below before the scope closes.
                ctrl.poisoned.store(true, Ordering::SeqCst);
                pool_error = Some(EngineError::PoolUnavailable(
                    "job channel closed".to_owned(),
                ));
                break;
            }
        }
    }
    if caller_participates || pool_error.is_some() {
        participate(&ctrl, run_unit);
    }
    // The old barrier is gone; this span now measures the caller's residual
    // completion wait. The name is kept for metric-schema continuity.
    let wait_span = ctx.metrics.span("engine.barrier_wait_secs");
    {
        let mut done = lock_ignore_poison(&ctrl.done);
        while !*done {
            done = ctrl
                .done_cv
                .wait(done)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
    wait_span.finish();
    ctrl.closed.store(true, Ordering::SeqCst);
    while ctrl.guards.load(Ordering::SeqCst) > 0 {
        std::thread::yield_now();
    }
    if let Some(err) = pool_error {
        return Err(err);
    }
    let payload = lock_ignore_poison(&ctrl.panic).take();
    match payload {
        Some(payload) => Err(EngineError::from_payload(payload)),
        None => Ok(()),
    }
}

/// The threaded half of [`ExecutionEngine::try_map_indexed`]: cuts `[0, n)`
/// into contiguous units, runs `f(i)` for every index through
/// [`run_units`] (one `engine.task` span per unit, `order` acted out at its
/// target unit's entry), and hands the outputs to `sink` in input order.
fn threaded_exec<U, F>(
    workers: usize,
    n: usize,
    f: &F,
    order: &WorkerOrder,
    ctx: &RunCtx,
    map_ctx: Option<SpanContext>,
    sink: &mut dyn FnMut(U),
) -> Result<(), EngineError>
where
    U: Send,
    F: Fn(usize) -> U + Sync,
{
    debug_assert!(n > 0);
    let max_units = ((workers + 1) * UNITS_PER_PARTICIPANT).min(n);
    let unit_len = n.div_ceil(max_units);
    let units = n.div_ceil(unit_len);
    ctx.metrics.counter("engine.tasks").add(units as u64);
    ctx.metrics
        .histogram("engine.queue_depth")
        .observe(units as f64);
    let target = (order.target % units as u64) as usize;

    let mut outputs: Vec<Option<U>> = Vec::with_capacity(n);
    outputs.resize_with(n, || None);
    {
        // One cell per unit holds that unit's disjoint run of output slots;
        // the unit that claims it takes the slice out once and writes it
        // without the lock.
        let cells: Vec<Mutex<Option<&mut [Option<U>]>>> = outputs
            .chunks_mut(unit_len)
            .map(|slots| Mutex::new(Some(slots)))
            .collect();
        let tracer = &ctx.tracer;
        let run_unit = |unit: usize| {
            let task_span = tracer.child_of("engine.task", map_ctx);
            if unit == target && order.panics > 0 {
                let _restart_span = tracer.child_of("engine.restart", task_span.context());
                if let Err(_fatal) = act_injected_panics(order.panics) {
                    // Propagate the fatal injected panic through the
                    // participant's catch_unwind so the caller sees it.
                    panic::panic_any(InjectedWorkerPanic);
                }
            }
            if let Some(slots) = lock_ignore_poison(&cells[unit]).take() {
                for (slot, i) in slots.iter_mut().zip(unit * unit_len..) {
                    *slot = Some(f(i));
                }
            }
        };
        run_units(workers, units, &run_unit, ctx)?;
    }
    outputs.into_iter().for_each(|slot| match slot {
        Some(value) => sink(value),
        // Infallible: `run_units` returned `Ok`, so every unit was claimed
        // once and ran to its end, and a unit writes every slot of its cell.
        None => unreachable!("every claimed unit writes its whole index range"),
    });
    Ok(())
}

/// The observers of one engine call, threaded as a unit from the deployment
/// loop down to the worker tasks: a metrics registry, a tracer, and the span
/// new spans are opened under. Both handles are `Option<Arc<_>>` inside, so
/// the default context records nothing and costs one branch per use.
#[derive(Debug, Clone, Default)]
pub struct RunCtx {
    /// Engine and caller metrics (`engine.map_calls`, `engine.tasks`, …).
    pub metrics: Metrics,
    /// Causal spans (`engine.map` → `engine.task` → `engine.restart`).
    pub tracer: Tracer,
    /// The span the next span opens under; `None` starts a new trace.
    pub parent: Option<SpanContext>,
}

impl RunCtx {
    /// Opens `name` as a child of this context's parent.
    pub fn span(&self, name: &str) -> TraceSpan {
        self.tracer.child_of(name, self.parent)
    }

    /// The same handles with `span` as the parent.
    pub fn child(&self, span: &TraceSpan) -> RunCtx {
        RunCtx {
            metrics: self.metrics.clone(),
            tracer: self.tracer.clone(),
            parent: span.context(),
        }
    }
}

/// A chunk-parallel execution engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionEngine {
    /// Process items one by one on the calling thread.
    #[default]
    Sequential,
    /// Process items on a persistent pool of `workers` OS threads.
    Threaded {
        /// Number of worker threads (≥ 1).
        workers: usize,
    },
}

impl ExecutionEngine {
    /// A threaded engine sized to the machine (minimum 2 workers).
    pub fn threaded_auto() -> Self {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(2)
            .max(2);
        ExecutionEngine::Threaded { workers }
    }

    /// Engine display name, built from [`ExecutionEngine::workers`] so the
    /// provenance line cannot disagree with the pool that ran.
    pub fn name(&self) -> String {
        match self {
            ExecutionEngine::Sequential => "sequential".to_owned(),
            ExecutionEngine::Threaded { .. } => format!("threaded×{}", self.workers()),
        }
    }

    /// Worker-thread count (1 for the sequential engine).
    pub fn workers(&self) -> usize {
        match *self {
            ExecutionEngine::Sequential => 1,
            ExecutionEngine::Threaded { workers } => workers.max(1),
        }
    }

    /// Maps `f` over the index space `0..n`, returning outputs in index
    /// order — the engine's one primitive. Callers borrow their items from
    /// `f`'s environment, so nothing is copied into the engine.
    ///
    /// `f` must be `Sync` because participants share it. Indices are cut
    /// into contiguous units (a few per participant) claimed from one
    /// shared counter; each output is written into its own slot, so results
    /// arrive in order whichever participant ran which unit.
    ///
    /// Draws one [`WorkerOrder`] from `hook` — exactly one per call, so
    /// injected counts are independent of worker count — and acts it out at
    /// the targeted unit's entry: injected panics are real unwinds restarted
    /// in place up to [`MAX_WORKER_RESTARTS`] times.
    /// The order's decisions and accounting live in the hook; the engine
    /// only performs them, which keeps results and
    /// [`cdp_faults::FaultStats`] bit-identical across `Sequential` and any
    /// `Threaded` worker count for the same fault seed. Pass [`NoFaults`]
    /// where the call must not consume a fault epoch.
    ///
    /// Records into `ctx`: `engine.map_calls`, `engine.tasks` (units
    /// scheduled), `engine.map_secs`, `engine.worker_restarts`, and
    /// (threaded) `engine.barrier_wait_secs`, `engine.queue_depth`; an
    /// `engine.map` span under `ctx.parent` with one
    /// `engine.task` child per unit *on the thread executing it*
    /// ([`SpanContext`] is `Copy` and crosses into pool tasks) and an
    /// `engine.restart` span under the targeted task.
    ///
    /// # Errors
    /// [`EngineError::WorkerPanic`] when the order exceeds the restart
    /// budget or `f` itself panics (first payload's message);
    /// [`EngineError::PoolUnavailable`] when the pool cannot take the map.
    pub fn try_map_indexed<U, F>(
        &self,
        n: usize,
        f: F,
        hook: &dyn FaultHook,
        ctx: &RunCtx,
    ) -> Result<Vec<U>, EngineError>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let mut out = Vec::with_capacity(n);
        self.try_map_into(n, f, hook, ctx, &mut |u| out.push(u))?;
        Ok(out)
    }

    /// [`ExecutionEngine::try_map_indexed`] reduced by `g` over the pairwise
    /// tree of the outputs in index order (adjacent pairs, then pairs of
    /// pairs), bit for bit the same on every engine; `None` when `n` is 0.
    /// Built as a binary counter — equal blocks merge as `g(older, newer)`,
    /// each an aligned `[j·2^k, (j+1)·2^k)`, the rest fold from the right —
    /// it holds at most `⌊log₂ n⌋ + 1` outputs on the sequential engine,
    /// which feeds each in as it is produced. `g` runs on the caller.
    ///
    /// # Errors
    /// As [`ExecutionEngine::try_map_indexed`].
    pub fn try_map_reduce<U, F, G>(
        &self,
        n: usize,
        f: F,
        mut g: G,
        hook: &dyn FaultHook,
        ctx: &RunCtx,
    ) -> Result<Option<U>, EngineError>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
        G: FnMut(U, U) -> U,
    {
        // `(k, value)`: blocks of 2^k outputs, strictly shrinking.
        let mut blocks: Vec<(u32, U)> =
            Vec::with_capacity((usize::BITS - n.leading_zeros()) as usize);
        self.try_map_into(n, f, hook, ctx, &mut |part| {
            let (mut k, mut right) = (0, part);
            while let Some((_, left)) = blocks.pop_if(|(top, _)| *top == k) {
                right = g(left, right);
                k += 1;
            }
            blocks.push((k, right));
        })?;
        let newest_first = blocks.into_iter().rev().map(|(_, v)| v);
        Ok(newest_first.reduce(|right, left| g(left, right)))
    }

    /// Both entry points' one body: hands every output of `f` to `sink` in
    /// index order, on the sequential engine the moment it is produced.
    fn try_map_into<U, F>(
        &self,
        n: usize,
        f: F,
        hook: &dyn FaultHook,
        ctx: &RunCtx,
        sink: &mut dyn FnMut(U),
    ) -> Result<(), EngineError>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        let map_span = ctx.span("engine.map");
        let metrics = &ctx.metrics;
        let _map_span_secs = metrics.span("engine.map_secs");
        metrics.counter("engine.map_calls").inc();
        let order = hook.next_worker_order();
        if order.panics > 0 {
            install_quiet_panic_hook();
            metrics
                .counter("engine.worker_restarts")
                .add(u64::from(order.panics.min(MAX_WORKER_RESTARTS)));
            metrics.event(
                "engine.worker_panic",
                format!("injected panics: {}", order.panics),
            );
        }
        match *self {
            ExecutionEngine::Sequential => {
                metrics.counter("engine.tasks").add(1);
                let task_span = ctx.tracer.child_of("engine.task", map_span.context());
                if order.panics > 0 {
                    let _restart_span = ctx.tracer.child_of("engine.restart", task_span.context());
                    act_injected_panics(order.panics)?;
                }
                for i in 0..n {
                    let out = panic::catch_unwind(AssertUnwindSafe(|| f(i)));
                    sink(out.map_err(EngineError::from_payload)?);
                }
                Ok(())
            }
            ExecutionEngine::Threaded { .. } if n == 0 => {
                // Keep the per-call invariant `queue_depth.count ==
                // map_calls` for maps with nothing to do.
                metrics.histogram("engine.queue_depth").observe(0.0);
                // No unit to act the order on; a fatal one still cannot
                // lose work, so it alone surfaces as an error.
                if order.panics > MAX_WORKER_RESTARTS {
                    act_injected_panics(order.panics)?;
                }
                Ok(())
            }
            ExecutionEngine::Threaded { .. } => {
                threaded_exec(self.workers(), n, &f, &order, ctx, map_span.context(), sink)
            }
        }
    }

    /// [`ExecutionEngine::try_map_indexed`] for calls that are outside every
    /// fault plan and span tree (no hook, no observers).
    ///
    /// # Panics
    /// With the engine's error, which carries the message of `f`'s panic.
    pub fn map_indexed<U, F>(&self, n: usize, f: F) -> Vec<U>
    where
        U: Send,
        F: Fn(usize) -> U + Sync,
    {
        match self.try_map_indexed(n, f, &NoFaults, &RunCtx::default()) {
            Ok(out) => out,
            Err(err) => panic!("{err}"),
        }
    }

    /// Maps `f` over contiguous parts of `items` of length `part_len` (the
    /// last part may be shorter), returning one output per part in part
    /// order. Part boundaries are pure index arithmetic, so the shard
    /// structure — and therefore any floating-point reduction over the
    /// outputs — is identical on every engine. Takes no hook: sharded
    /// gradient, objective and retraining passes never draw a fault order.
    ///
    /// # Panics
    /// When `part_len` is 0, or as [`ExecutionEngine::map_indexed`].
    pub fn map_parts<T, U, F>(&self, items: &[T], part_len: usize, f: F, ctx: &RunCtx) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(&[T]) -> U + Sync,
    {
        assert!(part_len > 0, "part_len must be ≥ 1");
        let parts = items.len().div_ceil(part_len);
        let part = |p: usize| f(&items[p * part_len..items.len().min((p + 1) * part_len)]);
        match self.try_map_indexed(parts, part, &NoFaults, ctx) {
            Ok(out) => out,
            Err(err) => panic!("{err}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn metrics_ctx(metrics: &Metrics) -> RunCtx {
        RunCtx {
            metrics: metrics.clone(),
            ..RunCtx::default()
        }
    }

    #[test]
    fn sequential_and_threaded_agree() {
        let seq = ExecutionEngine::Sequential.map_indexed(100, |i| i * i);
        let par = ExecutionEngine::Threaded { workers: 4 }.map_indexed(100, |i| i * i);
        assert_eq!(seq, par);
        // More workers than items.
        let out = ExecutionEngine::Threaded { workers: 64 }.map_indexed(3, |i| i + 1);
        assert_eq!(out, vec![1, 2, 3]);
    }

    #[test]
    fn order_is_preserved_under_imbalance() {
        // Make early items slow so late items finish first.
        let out = ExecutionEngine::Threaded { workers: 8 }.map_indexed(32, |i| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            i
        });
        assert_eq!(out, (0..32).collect::<Vec<usize>>());
    }

    #[test]
    fn names() {
        assert_eq!(ExecutionEngine::Sequential.name(), "sequential");
        assert_eq!(
            ExecutionEngine::Threaded { workers: 3 }.name(),
            "threaded×3"
        );
        assert_eq!(ExecutionEngine::Sequential.workers(), 1);
        assert_eq!(ExecutionEngine::Threaded { workers: 3 }.workers(), 3);
        // A zero-worker engine runs on a one-thread pool, and says so.
        let zero = ExecutionEngine::Threaded { workers: 0 };
        assert_eq!(zero.workers(), 1);
        assert_eq!(zero.name(), "threaded×1");
        assert_eq!(zero.map_indexed(5, |i| i), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn claim_counter_and_slot_cells_hand_out_each_index_exactly_once() {
        // 4 threads race the counter and the slot cells over 1 024 units of
        // 3 slots; every index must be written exactly once across them.
        let (units, unit_len) = (1024, 3);
        let ctrl = Control::new(units);
        let mut outputs: Vec<Option<usize>> = vec![None; units * unit_len];
        let writes = AtomicUsize::new(0);
        {
            let cells: Vec<Mutex<Option<&mut [Option<usize>]>>> = outputs
                .chunks_mut(unit_len)
                .map(|slots| Mutex::new(Some(slots)))
                .collect();
            let run_unit = |unit: usize| {
                if let Some(slots) = lock_ignore_poison(&cells[unit]).take() {
                    for (slot, i) in slots.iter_mut().zip(unit * unit_len..) {
                        assert!(slot.replace(i).is_none(), "index {i} written twice");
                        writes.fetch_add(1, Ordering::Relaxed);
                    }
                }
            };
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    scope.spawn(|| participate(&ctrl, &run_unit));
                }
            });
        }
        assert_eq!(ctrl.completed.load(Ordering::SeqCst), units);
        assert_eq!(writes.load(Ordering::Relaxed), units * unit_len);
        let written: Vec<usize> = outputs.into_iter().flatten().collect();
        assert_eq!(written, (0..units * unit_len).collect::<Vec<usize>>());
    }

    #[test]
    fn pool_threads_are_reused_across_calls() {
        // A spawn-per-call engine would mint fresh thread ids on every map;
        // the persistent pool serves every call from the same helper
        // threads. The submitting thread participates too, so exclude it.
        let engine = ExecutionEngine::Threaded { workers: 3 };
        let caller = std::thread::current().id();
        let mut helper_ids = HashSet::new();
        for _ in 0..8 {
            for id in engine.map_indexed(64, |_| std::thread::current().id()) {
                if id != caller {
                    helper_ids.insert(id);
                }
            }
        }
        assert!(
            helper_ids.len() <= 3,
            "saw {} distinct helper threads",
            helper_ids.len()
        );
    }

    #[test]
    fn worker_panic_propagates_with_its_message() {
        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::Threaded { workers: 2 },
        ] {
            let result = panic::catch_unwind(|| {
                engine.map_parts(
                    &[1u32, 2, 3, 4],
                    1,
                    |part| {
                        if part[0] == 3 {
                            panic!("boom {}", part[0]);
                        }
                        part[0]
                    },
                    &RunCtx::default(),
                )
            });
            let payload = result.expect_err("the sugar must propagate the worker panic");
            let msg = payload
                .downcast_ref::<String>()
                .expect("panic! with a formatted message carries a String");
            assert_eq!(msg, "worker panic: boom 3", "engine {}", engine.name());
        }
    }

    #[test]
    fn pool_survives_worker_panics() {
        let engine = ExecutionEngine::Threaded { workers: 2 };
        for round in 0..3 {
            let result = panic::catch_unwind(|| {
                engine.map_indexed(64, |i| {
                    if i % 16 == 7 {
                        panic!("round {round}");
                    }
                    i
                })
            });
            assert!(result.is_err());
            // The same pool keeps serving normal work afterwards.
            let ok = engine.map_indexed(64, |i| i + 1);
            assert_eq!(ok, (1..=64).collect::<Vec<usize>>());
        }
    }

    #[test]
    fn genuine_panics_become_errors() {
        let err = ExecutionEngine::Threaded { workers: 2 }
            .try_map_indexed(
                16,
                |i| {
                    if i == 9 {
                        panic!("kaput {i}");
                    }
                    i
                },
                &NoFaults,
                &RunCtx::default(),
            )
            .expect_err("panicking task must error");
        assert_eq!(err, EngineError::WorkerPanic("kaput 9".to_owned()));

        let ok = ExecutionEngine::Sequential.try_map_indexed(
            3,
            |i| i * 2,
            &NoFaults,
            &RunCtx::default(),
        );
        assert_eq!(ok, Ok(vec![0, 2, 4]));
    }

    /// Hook ordering a fixed number of injected panics at a fixed target.
    #[derive(Debug)]
    struct PanicOrder(u32);

    impl cdp_faults::FaultHook for PanicOrder {
        fn next_worker_order(&self) -> WorkerOrder {
            WorkerOrder {
                panics: self.0,
                target: 5,
            }
        }
    }

    #[test]
    fn injected_panics_restart_within_budget_and_error_beyond_it() {
        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::Threaded { workers: 2 },
            ExecutionEngine::Threaded { workers: 5 },
        ] {
            let ok = engine
                .try_map_indexed(
                    200,
                    |i| i * 3,
                    &PanicOrder(MAX_WORKER_RESTARTS),
                    &RunCtx::default(),
                )
                .expect("restartable order must recover");
            assert_eq!(
                ok,
                (0..200).map(|i| i * 3).collect::<Vec<usize>>(),
                "engine {}",
                engine.name()
            );
            let err = engine
                .try_map_indexed(
                    64,
                    |i| i,
                    &PanicOrder(MAX_WORKER_RESTARTS + 1),
                    &RunCtx::default(),
                )
                .expect_err("order beyond the restart budget is fatal");
            assert!(matches!(err, EngineError::WorkerPanic(_)));
            // The pool keeps serving afterwards.
            assert_eq!(engine.map_indexed(2, |i| i + 1), vec![1, 2]);
        }
    }

    /// A panic payload whose `Drop` panics — the worst case for the panic
    /// slot's bookkeeping: dropping a second payload while holding the slot
    /// lock would poison it *and* kill the participant before its
    /// completion count, hanging the caller forever.
    struct BoomOnDrop;

    impl Drop for BoomOnDrop {
        fn drop(&mut self) {
            if !std::thread::panicking() {
                panic!("payload drop bomb");
            }
        }
    }

    #[test]
    fn panic_inside_completion_critical_section_does_not_poison_the_pool() {
        install_quiet_panic_hook();
        let engine = ExecutionEngine::Threaded { workers: 4 };
        // Every unit panics with a drop-bomb payload: the first payload is
        // stashed and reported, all the extra ones detonate inside the
        // participants' cleanup, outside the slot lock and behind their own
        // catch_unwind, so the completion count still reaches `units`; the
        // stashed one detonates behind `from_payload`'s.
        let err = engine
            .try_map_indexed(
                64,
                |_| -> u64 {
                    panic::panic_any(BoomOnDrop);
                },
                &NoFaults,
                &RunCtx::default(),
            )
            .expect_err("the first panic must be reported");
        assert_eq!(
            err,
            EngineError::WorkerPanic("non-string panic payload".to_owned())
        );

        // The same pool (and its locks) keeps serving normal work.
        for _ in 0..3 {
            let ok = engine.map_indexed(64, |i| i + 1);
            assert_eq!(ok, (1..=64).collect::<Vec<usize>>());
        }
    }

    #[test]
    fn maps_record_engine_metrics() {
        let metrics = Metrics::collecting();
        let ctx = metrics_ctx(&metrics);
        let engine = ExecutionEngine::Threaded { workers: 2 };
        let items: Vec<u64> = (0..32).collect();
        let out = engine.map_parts(&items, 1, |part| part[0] * 2, &ctx);
        assert_eq!(out.len(), 32);
        let ok = engine.try_map_indexed(32, |i| i, &PanicOrder(2), &ctx);
        assert!(ok.is_ok());
        let snap = metrics.snapshot();
        assert_eq!(snap.counter("engine.map_calls"), 2);
        assert!(snap.counter("engine.tasks") >= 2);
        assert_eq!(snap.counter("engine.worker_restarts"), 2);
        let waits = snap.histogram("engine.barrier_wait_secs");
        assert!(waits.is_some_and(|h| h.count == 2));
        let spans = snap.histogram("engine.map_secs");
        assert!(spans.is_some_and(|h| h.count == 2));
        // The scheduler's observable: one queue-depth sample per threaded
        // map, queue depth = units scheduled.
        let depth = snap.histogram("engine.queue_depth");
        assert!(depth.is_some_and(|h| h.count == 2 && h.sum == snap.counter("engine.tasks") as f64));
    }

    #[test]
    fn traced_map_builds_cross_thread_span_tree_and_changes_no_output() {
        let tracer = Tracer::collecting();
        let root = tracer.root("caller");
        let ctx = RunCtx {
            tracer: tracer.clone(),
            ..RunCtx::default()
        }
        .child(&root);
        let engine = ExecutionEngine::Threaded { workers: 2 };
        let out = engine
            .try_map_indexed(64, |i| i * i, &NoFaults, &ctx)
            .unwrap();
        assert_eq!(out, engine.map_indexed(64, |i| i * i));
        root.finish();

        let snap = tracer.snapshot();
        snap.validate().unwrap();
        assert_eq!(snap.span_count("caller"), 1);
        assert_eq!(snap.span_count("engine.map"), 1);
        assert!(snap.span_count("engine.task") >= 2);
        for task in snap.spans.iter().filter(|s| s.name == "engine.task") {
            assert_eq!(snap.parent_name(task), Some("engine.map"));
        }
        // With tracing enabled every unit runs on pool threads, the map
        // call on this one: the single trace tree spans threads.
        assert!(snap.crosses_threads());
    }

    #[test]
    fn injected_restarts_appear_as_restart_spans() {
        let tracer = Tracer::collecting();
        let ctx = RunCtx {
            tracer: tracer.clone(),
            ..RunCtx::default()
        };
        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::Threaded { workers: 2 },
        ] {
            let out = engine
                .try_map_indexed(32, |i| i, &PanicOrder(2), &ctx)
                .expect("restartable order must recover");
            assert_eq!(out.len(), 32);
        }
        let snap = tracer.snapshot();
        snap.validate().unwrap();
        assert_eq!(snap.span_count("engine.restart"), 2);
        for restart in snap.spans.iter().filter(|s| s.name == "engine.restart") {
            assert_eq!(snap.parent_name(restart), Some("engine.task"));
        }
    }

    #[test]
    fn map_parts_matches_manual_sharding_bit_for_bit() {
        let items: Vec<f64> = (0..1000).map(|i| f64::from(i) * 0.37).collect();
        let part_sum = |part: &[f64]| part.iter().sum::<f64>();
        let manual: Vec<f64> = items.chunks(64).map(part_sum).collect();
        let ctx = RunCtx::default();
        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::Threaded { workers: 1 },
            ExecutionEngine::Threaded { workers: 4 },
        ] {
            let parts = engine.map_parts(&items, 64, part_sum, &ctx);
            assert_eq!(parts.len(), manual.len());
            for (a, b) in parts.iter().zip(&manual) {
                assert_eq!(a.to_bits(), b.to_bits(), "engine {}", engine.name());
            }
        }
        // Empty input yields no parts on any engine.
        assert!(ExecutionEngine::Threaded { workers: 2 }
            .map_parts(&[] as &[f64], 64, part_sum, &ctx)
            .is_empty());
    }

    #[test]
    fn map_indexed_covers_the_index_space_in_order() {
        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::Threaded { workers: 4 },
        ] {
            let out = engine.map_indexed(37, |i| i * i);
            assert_eq!(out, (0..37).map(|i| i * i).collect::<Vec<usize>>());
            assert!(engine.map_indexed(0, |i| i).is_empty());
        }
    }

    #[test]
    fn a_slow_first_unit_keeps_outputs_in_order() {
        // One slow unit at the front: whoever claims it is stuck on it while
        // the other participant claims the rest from the counter. Which
        // participant ran what is timing-dependent; the outputs and the one
        // queue-depth sample are not.
        let metrics = Metrics::collecting();
        let engine = ExecutionEngine::Threaded { workers: 2 };
        let out = engine
            .try_map_indexed(
                64,
                |i| {
                    if i == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(10));
                    }
                    i
                },
                &NoFaults,
                &metrics_ctx(&metrics),
            )
            .unwrap();
        assert_eq!(out, (0..64).collect::<Vec<usize>>());
        let snap = metrics.snapshot();
        let depth = snap
            .histogram("engine.queue_depth")
            .expect("queue depth observed");
        assert_eq!(depth.count, 1);
        assert_eq!(depth.sum, snap.counter("engine.tasks") as f64);
    }

    #[test]
    fn map_reduce_is_fixed_shape() {
        // ((0+1)+(2+3)) + (4) for 5 parts — verify against the hand-built tree.
        let parts = [0.1f64, 0.2, 0.3, 0.4, 0.5];
        let expected: f64 = ((0.1 + 0.2) + (0.3 + 0.4)) + 0.5;
        for engine in [
            ExecutionEngine::Sequential,
            ExecutionEngine::Threaded { workers: 3 },
        ] {
            let reduce = |n: usize| {
                engine
                    .try_map_reduce(n, |i| parts[i], |a, b| a + b, &NoFaults, &RunCtx::default())
                    .unwrap()
            };
            assert_eq!(reduce(5).map(f64::to_bits), Some(expected.to_bits()));
            assert_eq!(reduce(0), None);
            assert_eq!(reduce(1), Some(0.1));
        }
    }

    #[test]
    fn map_reduce_keeps_at_most_log2_outputs_alive_sequentially() {
        // An output is alive from `f` until `g` consumes it; `g` makes one
        // of two.
        let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        for n in 1..=300usize {
            peak.store(0, Ordering::Relaxed);
            let out = ExecutionEngine::Sequential.try_map_reduce(
                n,
                |i| {
                    let now = live.fetch_add(1, Ordering::Relaxed) + 1;
                    peak.fetch_max(now, Ordering::Relaxed);
                    i
                },
                |a, b| {
                    live.fetch_sub(1, Ordering::Relaxed);
                    a + b
                },
                &NoFaults,
                &RunCtx::default(),
            );
            assert_eq!(out, Ok(Some(n * (n - 1) / 2)));
            assert_eq!(live.swap(0, Ordering::Relaxed), 1);
            let levels = (usize::BITS - n.leading_zeros()) as usize;
            assert_eq!(peak.load(Ordering::Relaxed), levels, "n = {n}");
        }
    }
}
