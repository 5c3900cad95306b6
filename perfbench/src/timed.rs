//! Timing decorators around the policy traits.
//!
//! Each decorator forwards every method to the wrapped policy,
//! `priority_deps` and `explain` included, so the engine takes the
//! same index path and records the same provenance as with the bare
//! stack. Hook calls are counted and timed into a shared [`HookStats`].

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
// lint:allow(W1): the benchmark times the program from outside
use std::time::Instant;

use faas_sim::{
    ContainerId, ContainerInfo, KeepAlive, PolicyCtx, PolicyStack, Prewarm, PriorityDeps,
    RequestInfo, ScaleDecision, Scaler, StartClass,
};
use faas_trace::{FunctionId, TimeDelta};

/// Every timed hook, in report order.
pub const HOOKS: [&str; 10] = [
    "on_blocked",
    "on_start",
    "on_cold_outcome",
    "on_reuse",
    "on_admit",
    "on_evict",
    "priority",
    "expirations",
    "provision_latency",
    "prewarm_on_tick",
];

const ON_BLOCKED: usize = 0;
const ON_START: usize = 1;
const ON_COLD_OUTCOME: usize = 2;
const ON_REUSE: usize = 3;
const ON_ADMIT: usize = 4;
const ON_EVICT: usize = 5;
const PRIORITY: usize = 6;
const EXPIRATIONS: usize = 7;
const PROVISION_LATENCY: usize = 8;
const PREWARM_ON_TICK: usize = 9;

/// Calls and summed in-call nanoseconds per hook, plus what
/// `on_blocked` decided. Relaxed atomics: plain statistics.
#[derive(Default)]
pub struct HookStats {
    calls: [AtomicU64; HOOKS.len()],
    nanos: [AtomicU64; HOOKS.len()],
    /// `on_blocked` results: cold, wait_warm, race, enqueue.
    pub decisions: [AtomicU64; 4],
}

impl HookStats {
    fn time<T>(&self, hook: usize, f: impl FnOnce() -> T) -> T {
        // lint:allow(W1): the benchmark times the program from outside
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.calls[hook].fetch_add(1, Relaxed);
        self.nanos[hook].fetch_add(ns, Relaxed);
        out
    }

    pub fn calls(&self, hook: usize) -> u64 {
        self.calls[hook].load(Relaxed)
    }

    pub fn nanos(&self, hook: usize) -> u64 {
        self.nanos[hook].load(Relaxed)
    }

    pub fn total_calls(&self) -> u64 {
        (0..HOOKS.len()).map(|h| self.calls(h)).sum()
    }

    pub fn priority_calls(&self) -> u64 {
        self.calls(PRIORITY)
    }
}

/// Cost of one timed call with an empty body, in nanoseconds:
/// `inner` is what the in-call clock reads, `outer` the whole call
/// (both clock reads and the counter updates) as the caller pays it.
#[derive(Debug, Clone, Copy)]
pub struct Calibration {
    pub inner_ns: f64,
    pub outer_ns: f64,
}

/// Measures the empty timed call over nine batches and keeps the
/// median batch, so one preempted batch does not skew it.
pub fn calibrate() -> Calibration {
    const BATCH: u64 = 20_000;
    let mut inner = Vec::new();
    let mut outer = Vec::new();
    for _ in 0..9 {
        let stats = HookStats::default();
        // lint:allow(W1): the benchmark times the program from outside
        let t0 = Instant::now();
        for i in 0..BATCH {
            std::hint::black_box(stats.time(0, || std::hint::black_box(i)));
        }
        outer.push(t0.elapsed().as_nanos() as f64 / BATCH as f64);
        inner.push(stats.nanos(0) as f64 / BATCH as f64);
    }
    Calibration {
        inner_ns: crate::stats::median(&mut inner),
        outer_ns: crate::stats::median(&mut outer),
    }
}

/// Wraps every policy of `stack` in a timing decorator feeding `stats`.
pub fn decorate(stack: PolicyStack, stats: &Arc<HookStats>) -> PolicyStack {
    PolicyStack {
        keepalive: Box::new(TimedKeepAlive {
            inner: stack.keepalive,
            stats: Arc::clone(stats),
        }),
        scaler: Box::new(TimedScaler {
            inner: stack.scaler,
            stats: Arc::clone(stats),
        }),
        prewarm: stack.prewarm.map(|p| {
            Box::new(TimedPrewarm {
                inner: p,
                stats: Arc::clone(stats),
            }) as Box<dyn Prewarm + Send>
        }),
    }
}

struct TimedKeepAlive {
    inner: Box<dyn KeepAlive + Send>,
    stats: Arc<HookStats>,
}

impl KeepAlive for TimedKeepAlive {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_reuse(&mut self, container: &ContainerInfo, ctx: &PolicyCtx<'_>) {
        let inner = &mut self.inner;
        self.stats.time(ON_REUSE, || inner.on_reuse(container, ctx))
    }

    fn on_admit(
        &mut self,
        container: &ContainerInfo,
        evicted: &[ContainerInfo],
        ctx: &PolicyCtx<'_>,
    ) {
        let inner = &mut self.inner;
        self.stats
            .time(ON_ADMIT, || inner.on_admit(container, evicted, ctx))
    }

    fn on_evict(&mut self, container: &ContainerInfo, ctx: &PolicyCtx<'_>) {
        let inner = &mut self.inner;
        self.stats.time(ON_EVICT, || inner.on_evict(container, ctx))
    }

    fn priority(&self, container: &ContainerInfo, ctx: &PolicyCtx<'_>) -> f64 {
        self.stats
            .time(PRIORITY, || self.inner.priority(container, ctx))
    }

    fn priority_deps(&self) -> PriorityDeps {
        self.inner.priority_deps()
    }

    fn expirations(&mut self, ctx: &PolicyCtx<'_>) -> Vec<ContainerId> {
        let inner = &mut self.inner;
        self.stats.time(EXPIRATIONS, || inner.expirations(ctx))
    }

    fn provision_latency(&mut self, func: FunctionId, ctx: &PolicyCtx<'_>) -> Option<TimeDelta> {
        let inner = &mut self.inner;
        self.stats
            .time(PROVISION_LATENCY, || inner.provision_latency(func, ctx))
    }

    fn explain(&self) -> Option<String> {
        self.inner.explain()
    }
}

struct TimedScaler {
    inner: Box<dyn Scaler + Send>,
    stats: Arc<HookStats>,
}

impl Scaler for TimedScaler {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_blocked(&mut self, req: &RequestInfo, ctx: &PolicyCtx<'_>) -> ScaleDecision {
        let inner = &mut self.inner;
        let d = self.stats.time(ON_BLOCKED, || inner.on_blocked(req, ctx));
        let slot = match d {
            ScaleDecision::ColdStart => 0,
            ScaleDecision::WaitWarm => 1,
            ScaleDecision::Race => 2,
            ScaleDecision::EnqueueOn(_) => 3,
        };
        self.stats.decisions[slot].fetch_add(1, Relaxed);
        d
    }

    fn on_start(
        &mut self,
        req: &RequestInfo,
        class: StartClass,
        wait: TimeDelta,
        exec: TimeDelta,
        ctx: &PolicyCtx<'_>,
    ) {
        let inner = &mut self.inner;
        self.stats
            .time(ON_START, || inner.on_start(req, class, wait, exec, ctx))
    }

    fn on_cold_outcome(&mut self, func: FunctionId, idle: Option<TimeDelta>, ctx: &PolicyCtx<'_>) {
        let inner = &mut self.inner;
        self.stats
            .time(ON_COLD_OUTCOME, || inner.on_cold_outcome(func, idle, ctx))
    }

    fn explain(&self) -> Option<String> {
        self.inner.explain()
    }
}

struct TimedPrewarm {
    inner: Box<dyn Prewarm + Send>,
    stats: Arc<HookStats>,
}

impl Prewarm for TimedPrewarm {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_tick(&mut self, ctx: &PolicyCtx<'_>) -> Vec<FunctionId> {
        let inner = &mut self.inner;
        self.stats.time(PREWARM_ON_TICK, || inner.on_tick(ctx))
    }
}
