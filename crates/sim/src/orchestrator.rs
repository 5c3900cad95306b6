//! The orchestrator: every dispatch, admission and eviction decision of
//! a run, as one sans-IO state machine.
//!
//! The orchestrator owns all FaaS mechanics described in §3.1 of the
//! paper:
//!
//! * **Dispatch**: an arriving request runs immediately on a warm
//!   container with a free thread (true warm start). Otherwise the
//!   request's fate is decided by the [`Scaler`] policy.
//! * **Per-function channel**: blocked requests join a FIFO channel.
//!   The first resource to become available — a busy container finishing
//!   (delayed warm start) or a fresh container completing provisioning
//!   (cold start) — serves the head of the channel. This
//!   first-available-wins mechanic *is* the speculative-scaling race.
//! * **Memory pressure**: provisioning charges the hosting worker's
//!   memory; when no worker fits, the orchestrator evicts idle
//!   containers in ascending [`KeepAlive::priority`] order (the paper's
//!   REPLACE subroutine). If even eviction cannot make room (everything
//!   is busy), the provision is deferred and retried as memory frees.
//! * **Classification**: a request's class is determined by the event
//!   that dispatched it — arrival onto an idle container → warm start,
//!   a container freeing a thread → delayed warm start, provisioning
//!   completing → cold start.
//!
//! It never reads a clock and never sleeps. A driver hands it each
//! event with the current virtual time ([`Orchestrator::handle`]); the
//! orchestrator asks for follow-up events through the driver's
//! [`Schedule`]. The simulator ([`crate::run`]) drives it from a
//! virtual-time event heap; the live crate drives the same code from
//! the wall clock (DESIGN.md §4).
//!
//! [`Scaler`]: crate::Scaler
//! [`KeepAlive::priority`]: crate::KeepAlive::priority

use std::collections::{BTreeMap, HashMap, VecDeque};

use faas_core::{EvictionIndex, RoundHeap};
use faas_metrics::TimeSeries;
use faas_obs::{EvictReason, ObsEvent, Recorder};
use faas_trace::{FunctionId, FunctionProfile, TimeDelta, TimePoint, Trace};

use crate::cluster::{ClusterState, PolicyCtx};
use crate::config::{ScanMode, SimConfig};
use crate::container::ContainerInfo;
use crate::event::{Event, EventQueue};
use crate::fault::FaultState;
use crate::ids::{ContainerId, RequestId, WorkerId};
use crate::policy::{PolicyStack, PriorityDeps, ScaleDecision, StartClass};
use crate::report::{RequestRecord, SimReport};
use crate::request::RequestState;

/// How long an admitted request's container counts as busy in
/// [`PolicyCtx`] queries: its execution time is unknown until the
/// handler returns, so the orchestrator books a far-future horizon.
const EXEC_HORIZON: TimeDelta = TimeDelta::from_secs(3600);

/// Where an [`Orchestrator`] sends the events it wants back later.
///
/// A driver implements it over its own notion of time: the simulator
/// pushes onto its event heap, a wall-clock driver arms a timer for the
/// virtual deadline. The orchestrator is generic over the
/// implementation, so every call is monomorphised.
pub trait Schedule {
    /// Delivers `event` back through [`Orchestrator::handle`] at virtual
    /// time `at`, which is never before the `now` of the call that
    /// scheduled it.
    fn schedule(&mut self, at: TimePoint, event: Event);
}

impl Schedule for EventQueue {
    #[inline]
    fn schedule(&mut self, at: TimePoint, event: Event) {
        self.push(at, event);
    }
}

/// Per-request state in slots indexed by the low 32 bits of the request
/// id. A trace run fills one slot per request, with ids `0..n`. Requests
/// admitted one at a time ([`Orchestrator::admit`]) reuse the slots of
/// finished ones, so a long-lived host holds state only for the requests
/// in flight; the high 32 bits of their ids count admissions, which keeps
/// every id unique.
struct Requests {
    slots: Vec<RequestState>,
    free: Vec<u32>,
}

impl Requests {
    fn slot(rid: RequestId) -> usize {
        (rid.0 & u64::from(u32::MAX)) as usize
    }

    fn get(&self, rid: RequestId) -> &RequestState {
        &self.slots[Self::slot(rid)]
    }

    fn get_mut(&mut self, rid: RequestId) -> &mut RequestState {
        &mut self.slots[Self::slot(rid)]
    }
}

/// The orchestrator of one run: cluster state, policy stack, eviction
/// index, deferred provisions, fault state, request records and cost
/// ledger. See the module docs for the mechanics and DESIGN.md §4 for
/// the drivers.
pub struct Orchestrator<R: Recorder> {
    cluster: ClusterState,
    policies: PolicyStack,
    requests: Requests,
    /// Whether requests arrive through [`Orchestrator::admit`]: their
    /// execution times are unknown until they end, and finished requests
    /// free their slots.
    admitting: bool,
    busy_until: HashMap<ContainerId, Vec<TimePoint>>,
    deferred: VecDeque<(FunctionId, bool, u32)>,
    /// Virtual time of the event being handled.
    now: TimePoint,
    record_memory: bool,
    /// Requests known so far (the whole trace, or admitted so far),
    /// arrived so far (request-conservation invariant), and finished.
    total: u64,
    arrived: u64,
    finished: u64,
    records: Vec<RequestRecord>,
    memory: TimeSeries,
    finished_at: TimePoint,
    faults: FaultState,
    /// Whether the configured `FaultPlan` injects anything. When false,
    /// all fault bookkeeping (attempt counters, retry chains) is
    /// skipped so fault-free runs take the exact pre-fault code path.
    fault_active: bool,
    /// Whether `running` is kept: in fault runs (a worker crash voids
    /// in-flight records) and for admitted requests (the driver
    /// completes the record when the execution ends).
    track_running: bool,
    /// Retry attempt number per provisioning container (fault runs only).
    attempts: HashMap<ContainerId, u32>,
    /// Outstanding `RetryProvision` events per function (fault runs
    /// only): these are provision chains in backoff, invisible in
    /// `FnRuntime::provisioning`, that `repair_cold_only` must count.
    retrying: HashMap<FunctionId, u32>,
    /// In-flight requests per container as `(rid, record index)`. A
    /// `BTreeMap` so the crash-repair walk re-queues them in container
    /// order, not hash order (cidre-lint rule O1).
    running: BTreeMap<ContainerId, Vec<(RequestId, usize)>>,
    /// Lazy-deletion heap of eviction candidates per worker, maintained
    /// across rounds when `use_evict_index` is set.
    evict_index: EvictionIndex<WorkerId, ContainerId>,
    /// Whether cached priorities in `evict_index` are sound for the
    /// configured keep-alive policy: requires [`ScanMode::Indexed`] and
    /// a non-[`PriorityDeps::Volatile`] policy. Volatile policies fall
    /// back to a per-round heapify of fresh priorities.
    use_evict_index: bool,
    /// Structured trace sink (DESIGN.md §11). [`faas_obs::NoopRecorder`]
    /// in untraced runs, where monomorphization folds every emission
    /// site to nothing.
    rec: R,
}

impl<R: Recorder> Orchestrator<R> {
    /// An orchestrator for `trace`, whose requests' arrivals and
    /// execution times are all known up front. The driver delivers
    /// `Event::Arrival(RequestId(i))` at the `i`-th invocation's arrival.
    ///
    /// # Panics
    ///
    /// Panics if some function's memory footprint exceeds every worker's
    /// capacity, if the fault plan crashes an unknown worker, or if the
    /// trace holds 2^32 requests or more.
    pub fn for_trace(trace: &Trace, config: &SimConfig, policies: PolicyStack, rec: R) -> Self {
        assert!(
            u32::try_from(trace.len()).is_ok(),
            "a trace holds fewer than 2^32 requests"
        );
        let slots = trace
            .invocations()
            .iter()
            .map(|inv| RequestState {
                func: inv.func,
                arrival: inv.arrival,
                exec: inv.exec,
                started: None,
                class: None,
            })
            .collect();
        let mut orch = Self::new(trace.functions(), config, policies, rec, slots, false);
        orch.total = trace.len() as u64;
        orch
    }

    /// An orchestrator for requests admitted one at a time with
    /// [`Orchestrator::admit`], whose execution times are unknown until
    /// they end: policies see a zero execution time, the busy container
    /// books a one-hour horizon, and the driver fills in the measured
    /// execution through [`Orchestrator::running_record`].
    ///
    /// # Panics
    ///
    /// Panics if some function's memory footprint exceeds every worker's
    /// capacity, or if the fault plan crashes an unknown worker.
    pub fn for_admission(
        functions: &[FunctionProfile],
        config: &SimConfig,
        policies: PolicyStack,
        rec: R,
    ) -> Self {
        Self::new(functions, config, policies, rec, Vec::new(), true)
    }

    fn new(
        functions: &[FunctionProfile],
        config: &SimConfig,
        policies: PolicyStack,
        rec: R,
        slots: Vec<RequestState>,
        admitting: bool,
    ) -> Self {
        let max_worker = config.workers_mb.iter().copied().max().unwrap_or(0);
        for f in functions {
            assert!(
                u64::from(f.mem_mb) <= max_worker,
                "function {} ({} MB) exceeds the largest worker ({} MB)",
                f.id,
                f.mem_mb,
                max_worker
            );
        }
        for &(_, worker) in &config.faults.worker_crashes {
            assert!(
                (worker.0 as usize) < config.workers_mb.len(),
                "fault plan crashes unknown worker {worker:?}"
            );
        }
        let mut cluster = ClusterState::with_placement(
            &config.workers_mb,
            functions.iter().cloned(),
            config.threads,
            config.placement,
        );
        cluster.set_scan(config.scan);
        let use_evict_index = config.scan == ScanMode::Indexed
            && policies.keepalive.priority_deps() != PriorityDeps::Volatile;
        let fault_active = !config.faults.is_none();
        Self {
            cluster,
            policies,
            requests: Requests {
                slots,
                free: Vec::new(),
            },
            admitting,
            busy_until: HashMap::new(),
            deferred: VecDeque::new(),
            now: TimePoint::ZERO,
            record_memory: config.record_memory,
            total: 0,
            arrived: 0,
            finished: 0,
            records: Vec::new(),
            memory: TimeSeries::new(),
            finished_at: TimePoint::ZERO,
            faults: FaultState::new(config.faults.clone()),
            fault_active,
            track_running: fault_active || admitting,
            attempts: HashMap::new(),
            retrying: HashMap::new(),
            running: BTreeMap::new(),
            evict_index: EvictionIndex::new(),
            use_evict_index,
            rec,
        }
    }

    /// Admits a request for `func` arriving at `arrival` and returns its
    /// id; the driver then delivers `Event::Arrival` for it.
    ///
    /// # Panics
    ///
    /// Panics on an orchestrator built [`for_trace`](Self::for_trace),
    /// whose requests are fixed.
    pub fn admit(&mut self, func: FunctionId, arrival: TimePoint) -> RequestId {
        assert!(self.admitting, "a trace run's requests are fixed");
        let state = RequestState {
            func,
            arrival,
            exec: TimeDelta::ZERO,
            started: None,
            class: None,
        };
        let slots = &mut self.requests.slots;
        let slot = match self.requests.free.pop() {
            Some(slot) => {
                slots[slot as usize] = state;
                slot
            }
            None => {
                slots.push(state);
                u32::try_from(slots.len() - 1).expect("fewer than 2^32 requests in flight")
            }
        };
        let rid = RequestId(self.total << 32 | u64::from(slot));
        self.total += 1;
        rid
    }

    /// Schedules the fault plan's worker crashes. Drivers call it once
    /// at the start of a run, after scheduling the first tick.
    pub fn schedule_crashes<S: Schedule>(&self, sched: &mut S) {
        for &(at, worker) in &self.faults.plan().worker_crashes {
            sched.schedule(at, Event::WorkerDown(worker));
        }
    }

    /// Requests known to the orchestrator that have not finished.
    pub fn unserved(&self) -> u64 {
        self.total - self.finished
    }

    /// Requests that have arrived and not finished.
    pub fn in_flight(&self) -> u64 {
        self.arrived - self.finished
    }

    /// The record of `rid`'s execution on `cid` while it runs, or `None`
    /// if no such execution is live (a worker crash voided it). Kept for
    /// admitted requests and in fault runs.
    pub fn running_record(
        &mut self,
        cid: ContainerId,
        rid: RequestId,
    ) -> Option<&mut RequestRecord> {
        let &(_, idx) = self.running.get(&cid)?.iter().find(|&&(r, _)| r == rid)?;
        Some(&mut self.records[idx])
    }

    /// Handles one event at virtual time `now`, scheduling follow-ups on
    /// `sched`. Ticks run the keep-alive expirations and prewarming; the
    /// driver decides when the next tick comes.
    ///
    /// # Panics
    ///
    /// Debug builds panic if `now` is before the previous event's time,
    /// and check the cluster's structural invariants after every event.
    // Inlined into each driver's event loop: a call per event measured
    // about 9% slower on the 10-minute Azure replay under FaasCache.
    #[inline(always)]
    pub fn handle<S: Schedule>(&mut self, now: TimePoint, event: Event, sched: &mut S) {
        debug_assert!(
            now >= self.now,
            "time ran backwards: {now:?} after {:?}",
            self.now
        );
        self.now = now;
        match event {
            Event::Arrival(rid) => self.on_arrival(rid, sched),
            Event::ProvisionDone(cid) => self.on_provision_done(cid, sched),
            Event::ExecDone(cid, rid) => self.on_exec_done(cid, rid, sched),
            Event::Tick => self.on_tick(sched),
            Event::ProvisionFailed(cid) => self.on_provision_failed(cid, sched),
            Event::RetryProvision(func, attempt, spec) => {
                self.on_retry_provision(func, attempt, spec, sched)
            }
            Event::WorkerDown(worker) => self.on_worker_down(worker, sched),
        }
        #[cfg(debug_assertions)]
        crate::invariant::InvariantChecker::check(&self.cluster, self.arrived, self.records.len());
    }

    /// Settles the cost ledger and returns the run's report with the
    /// recorder.
    pub fn finish(mut self) -> (SimReport, R) {
        // Charge still-resident containers up to the ledger's high-water
        // mark (the last charging mutation).
        let settle_at = self.cluster.ledger_hwm();
        self.cluster.settle_ledger_at(settle_at);
        let report = SimReport {
            requests: self.records,
            memory: self.memory,
            containers_created: self.cluster.containers_created,
            containers_evicted: self.cluster.containers_evicted,
            wasted_cold_starts: self.cluster.wasted_cold_starts,
            provision_failures: self.cluster.provision_failures,
            crash_evictions: self.cluster.crash_evictions,
            finished_at: self.finished_at,
            ledger: self.cluster.ledger,
            ledger_settled_at: settle_at,
        };
        (report, self.rec)
    }

    // -- event handlers --------------------------------------------------

    fn on_arrival<S: Schedule>(&mut self, rid: RequestId, sched: &mut S) {
        self.arrived += 1;
        let req = self.requests.get(rid);
        let (func, info) = (req.func, req.info(rid));
        self.cluster.note_arrival(func, self.now);
        if let Some(cid) = self.cluster.pick_available(func) {
            self.start_exec(cid, rid, StartClass::Warm, sched);
            return;
        }
        let ctx = PolicyCtx::new(self.now, &self.cluster, &self.busy_until);
        let mut decision = self.policies.scaler.on_blocked(&info, &ctx);

        // A pure wait is only meaningful if some container of the function
        // exists (busy or provisioning) to wait for; otherwise escalate.
        if decision == ScaleDecision::WaitWarm
            && ctx.warm_count(func) == 0
            && ctx.provisioning_count(func) == 0
        {
            decision = ScaleDecision::Race;
        }
        // An EnqueueOn target must still be a live saturated container.
        if let ScaleDecision::EnqueueOn(cid) = decision {
            let valid = self
                .cluster
                .container(cid)
                .map(|c| c.func == func && c.is_saturated())
                .unwrap_or(false);
            if !valid {
                decision = ScaleDecision::ColdStart;
            }
        }

        // Decision provenance: the *final* decision, after escalation
        // and validation — what the orchestrator will actually do. Warm
        // hits above emit no Admit record (there was no choice to make).
        obs!(
            self.rec,
            ObsEvent::Admit {
                at: self.now,
                rid: rid.0,
                func,
                decision: decision.into(),
                note: self.policies.scaler.explain(),
            }
        );

        match decision {
            ScaleDecision::ColdStart => {
                self.cluster.fn_runtime_mut(func).pending.push(rid, true);
                self.request_provision(func, false, 0, sched);
            }
            ScaleDecision::WaitWarm => {
                self.cluster.fn_runtime_mut(func).pending.push(rid, false);
            }
            ScaleDecision::Race => {
                self.cluster.fn_runtime_mut(func).pending.push(rid, false);
                self.request_provision(func, true, 0, sched);
            }
            ScaleDecision::EnqueueOn(cid) => {
                let ok = self.cluster.enqueue_local(cid, rid);
                debug_assert!(ok, "validated above");
            }
        }
    }

    fn on_provision_done<S: Schedule>(&mut self, cid: ContainerId, sched: &mut S) {
        if self.cluster.container(cid).is_none() {
            // Stale event: the container's worker crashed while it was
            // provisioning. Ids are never reused, so this is the only way
            // the container can be gone; fault-free runs never hit this.
            return;
        }
        self.attempts.remove(&cid);
        self.cluster.finish_provision(cid, self.now);
        obs!(
            self.rec,
            ObsEvent::ProvisionEnd {
                at: self.now,
                cid: cid.0,
                ok: true,
            }
        );
        let func = self.cluster.container(cid).expect("just provisioned").func;
        if let Some(rid) = self.pop_pending(func, true) {
            self.start_exec(cid, rid, StartClass::Cold, sched);
        } else {
            // Idle immediately: if speculative, the container may turn out
            // wasted; either way it is now evictable, so deferred
            // provisions may fit.
            self.index_candidate(cid);
            self.retry_deferred(sched);
        }
        self.repair_cold_only(func, sched);
    }

    /// A provision chain for `func` just ended: its container came up
    /// and served the head of the queue via `pop_any`, which may have
    /// been a *flexible* request (e.g. a crash refugee queued earlier)
    /// rather than the cold-only waiter the chain was started for.
    /// Cold-only entries can only ever be popped by a future
    /// `ProvisionDone` — `pop_flexible` skips them — so if the chains
    /// still outstanding (provisioning containers, retries in backoff,
    /// deferred placements) no longer cover the cold-only backlog,
    /// start a fresh one. Without this the waiter is stranded and only
    /// the tick chain remains.
    fn repair_cold_only<S: Schedule>(&mut self, func: FunctionId, sched: &mut S) {
        let Some(rt) = self.cluster.fn_runtime(func) else {
            return;
        };
        let cold_only = rt.pending.cold_only_len();
        if cold_only == 0 {
            return;
        }
        let chains = rt.provisioning.len()
            + self.retrying.get(&func).map_or(0, |&n| n as usize)
            + self.deferred.iter().filter(|&&(f, _, _)| f == func).count();
        for _ in chains..cold_only {
            self.request_provision(func, false, 0, sched);
        }
    }

    fn on_exec_done<S: Schedule>(&mut self, cid: ContainerId, rid: RequestId, sched: &mut S) {
        if self.cluster.container(cid).is_none() {
            // Stale event: the container's worker crashed mid-execution
            // and the request was re-queued; a fresh ExecDone will fire
            // when it re-executes elsewhere.
            return;
        }
        self.finished_at = self.finished_at.max(self.now);
        self.finished += 1;
        obs!(
            self.rec,
            ObsEvent::Finish {
                at: self.now,
                rid: rid.0,
                cid: cid.0,
            }
        );
        if self.track_running {
            if let Some(runs) = self.running.get_mut(&cid) {
                if let Some(pos) = runs.iter().position(|&(r, _)| r == rid) {
                    runs.swap_remove(pos);
                }
                if runs.is_empty() {
                    self.running.remove(&cid);
                }
            }
        }
        let req = self.requests.get(rid);
        let func = req.func;
        let end = req.started.expect("a finishing request has started") + self.busy_span(req.exec);
        if self.admitting {
            // Lossless: slots are indexed by the id's low 32 bits.
            self.requests.free.push(Requests::slot(rid) as u32);
        }
        self.cluster.note_completion(func);
        if let Some(ends) = self.busy_until.get_mut(&cid) {
            if let Some(pos) = ends.iter().position(|&t| t == end) {
                ends.swap_remove(pos);
            }
            if ends.is_empty() {
                self.busy_until.remove(&cid);
            }
        }
        self.cluster.release_thread(cid, self.now);

        // Work conservation: the freed thread serves the container-local
        // queue first, then the function channel.
        if let Some(next) = self.cluster.dequeue_local(cid) {
            self.start_exec(cid, next, StartClass::DelayedWarm, sched);
            return;
        }
        if let Some(next) = self.pop_pending(func, false) {
            self.start_exec(cid, next, StartClass::DelayedWarm, sched);
            return;
        }
        // The container (or one of its threads) idles; idle memory is
        // evictable, so deferred provisions may now fit.
        self.index_candidate(cid);
        self.retry_deferred(sched);
    }

    fn on_tick<S: Schedule>(&mut self, sched: &mut S) {
        // TTL-style expirations.
        let expired = {
            let ctx = PolicyCtx::new(self.now, &self.cluster, &self.busy_until);
            self.policies.keepalive.expirations(&ctx)
        };
        for cid in expired {
            let still_idle = self
                .cluster
                .container(cid)
                .map(|c| c.is_idle() && c.local_queue.is_empty())
                .unwrap_or(false);
            if still_idle {
                self.evict_container(cid, EvictReason::Expire);
            }
        }
        // Prewarming.
        if self.policies.prewarm.is_some() {
            let wants = {
                let ctx = PolicyCtx::new(self.now, &self.cluster, &self.busy_until);
                self.policies
                    .prewarm
                    .as_mut()
                    .expect("prewarm is Some: guarded by the is_some check above")
                    .on_tick(&ctx)
            };
            for func in wants {
                let mem = self.cluster.profile(func).mem_mb;
                // Prewarms are best-effort: skip rather than defer.
                if self.cluster.pick_worker(mem).is_some() {
                    self.request_provision(func, false, 0, sched);
                }
            }
        }
    }

    /// A provision failed (fault injection): abandon the container,
    /// signal the policies, and schedule a retry with capped exponential
    /// backoff.
    fn on_provision_failed<S: Schedule>(&mut self, cid: ContainerId, sched: &mut S) {
        let Some(c) = self.cluster.container(cid) else {
            // The container's worker crashed before the failure fired.
            // The crash handler already re-provisioned for the backlog.
            return;
        };
        let func = c.func;
        let speculative = c.speculative_unused;
        let attempt = self.attempts.remove(&cid).unwrap_or(0);
        let info = self.cluster.fail_provision(cid, self.now);
        self.note_memory();
        obs!(
            self.rec,
            ObsEvent::ProvisionEnd {
                at: self.now,
                cid: cid.0,
                ok: false,
            }
        );
        {
            let ctx = PolicyCtx::new(self.now, &self.cluster, &self.busy_until);
            // Drop any policy state keyed on the dead container (e.g.
            // CIP's logical clock).
            self.policies.keepalive.on_evict(&info, &ctx);
            if speculative {
                // A failed speculative cold start is the strongest
                // "wasted" signal: it burned a provision and served
                // nobody (Ti = ∞ for CSS).
                self.policies.scaler.on_cold_outcome(func, None, &ctx);
            }
        }
        let next = attempt + 1;
        let backoff = self.faults.plan().backoff(next);
        obs!(
            self.rec,
            ObsEvent::RetryScheduled {
                at: self.now,
                func,
                attempt: next,
                backoff,
                speculative,
            }
        );
        sched.schedule(
            self.now + backoff,
            Event::RetryProvision(func, next, speculative),
        );
        *self.retrying.entry(func).or_default() += 1;
        // The failure released memory a deferred provision may want.
        self.retry_deferred(sched);
    }

    /// A failed provision's backoff expired: retry, unless the backlog
    /// drained during the wait (every cold-only request keeps the
    /// function's channel non-empty until a provision serves it, so
    /// skipping on an empty channel never strands anyone).
    fn on_retry_provision<S: Schedule>(
        &mut self,
        func: FunctionId,
        attempt: u32,
        speculative: bool,
        sched: &mut S,
    ) {
        if let Some(n) = self.retrying.get_mut(&func) {
            *n -= 1;
            if *n == 0 {
                self.retrying.remove(&func);
            }
        }
        let backlog = self
            .cluster
            .fn_runtime(func)
            .map(|rt| !rt.pending.is_empty())
            .unwrap_or(false);
        if backlog {
            self.request_provision(func, speculative, attempt, sched);
        }
    }

    /// A worker crashes: every container on it dies. In-flight requests
    /// and container-local queues are re-queued on their function
    /// channels (their records are voided — they will re-execute), and
    /// affected functions are re-provisioned as needed so cold-only
    /// waiters are not stranded.
    fn on_worker_down<S: Schedule>(&mut self, worker: WorkerId, sched: &mut S) {
        if !self.cluster.worker_is_alive(worker) {
            return; // duplicate crash event
        }
        self.cluster.mark_worker_down(worker);
        self.evict_index.drop_worker(worker);
        obs!(
            self.rec,
            ObsEvent::WorkerDown {
                at: self.now,
                worker: worker.0,
            }
        );
        let victims = self.cluster.containers_on(worker);
        let mut voided: Vec<usize> = Vec::new();
        let mut requeue: Vec<(FunctionId, RequestId)> = Vec::new();
        let mut affected: Vec<FunctionId> = Vec::new();
        for cid in victims {
            self.attempts.remove(&cid);
            if let Some(runs) = self.running.remove(&cid) {
                for (rid, rec_idx) in runs {
                    voided.push(rec_idx);
                    let req = self.requests.get_mut(rid);
                    req.started = None;
                    req.class = None;
                    requeue.push((req.func, rid));
                }
            }
            self.busy_until.remove(&cid);
            let (info, local_queued) = self.cluster.crash_evict(cid, self.now);
            obs!(
                self.rec,
                ObsEvent::Evict {
                    at: self.now,
                    cid: cid.0,
                    func: info.func,
                    worker: info.worker.0,
                    reason: EvictReason::Crash,
                    // No policy note: a crash is the fault plan's
                    // doing, not a keep-alive decision.
                    note: None,
                }
            );
            affected.push(info.func);
            for rid in local_queued {
                requeue.push((info.func, rid));
            }
            let ctx = PolicyCtx::new(self.now, &self.cluster, &self.busy_until);
            self.policies.keepalive.on_evict(&info, &ctx);
            // Deliberately no `on_cold_outcome` here: a crash says
            // nothing about whether speculation was wasteful, unlike a
            // provision failure or an idle eviction.
        }
        self.note_memory();
        self.remove_records(voided);
        // Re-queue in deterministic request order, never cold-only: any
        // resource may serve a crash refugee.
        requeue.sort_by_key(|&(_, rid)| rid);
        for &(func, rid) in &requeue {
            self.cluster.fn_runtime_mut(func).pending.push(rid, false);
        }
        affected.extend(requeue.iter().map(|&(f, _)| f));
        affected.sort_unstable();
        affected.dedup();
        // Repair provisioning for affected functions: cold-only waiters
        // can only be served by a future ProvisionDone, and refugees may
        // have nothing left to wait for. (Retry chains in backoff are not
        // visible in `provisioning`, so this may over-provision — a
        // progress-over-parsimony tradeoff on the failure path.)
        for func in affected {
            let Some(rt) = self.cluster.fn_runtime(func) else {
                continue;
            };
            let pending = rt.pending.len();
            let cold_only = rt.pending.cold_only_len();
            let provisioning = rt.provisioning.len();
            let warm = rt.warm.len();
            let mut need = cold_only.saturating_sub(provisioning);
            if need == 0 && pending > 0 && warm == 0 && provisioning == 0 {
                need = 1;
            }
            for _ in 0..need {
                self.request_provision(func, false, 0, sched);
            }
        }
        self.retry_deferred(sched);
    }

    /// Voids the given record indices (crash-killed executions) and
    /// remaps the surviving in-flight records' indices.
    fn remove_records(&mut self, mut voided: Vec<usize>) {
        if voided.is_empty() {
            return;
        }
        voided.sort_unstable();
        let old = std::mem::take(&mut self.records);
        let mut vi = 0;
        for (i, r) in old.into_iter().enumerate() {
            if vi < voided.len() && voided[vi] == i {
                vi += 1;
            } else {
                self.records.push(r);
            }
        }
        for runs in self.running.values_mut() {
            for (_, idx) in runs.iter_mut() {
                *idx -= voided.partition_point(|&v| v < *idx);
            }
        }
    }

    // -- mechanics ---------------------------------------------------------

    /// How long a request with execution time `exec` keeps its thread
    /// busy: `exec` itself when known (trace runs), else the booking
    /// horizon of an admitted request.
    fn busy_span(&self, exec: TimeDelta) -> TimeDelta {
        if self.admitting {
            EXEC_HORIZON
        } else {
            exec
        }
    }

    /// Starts `rid` on container `cid`, recording its outcome and firing
    /// policy hooks.
    fn start_exec<S: Schedule>(
        &mut self,
        cid: ContainerId,
        rid: RequestId,
        class: StartClass,
        sched: &mut S,
    ) {
        let (was_speculative, warm_at) = {
            let c = self.cluster.container(cid).expect("live container");
            (c.speculative_unused, c.warm_at)
        };
        self.cluster.occupy_thread(cid, self.now);
        // A busy container is no longer an eviction candidate.
        self.evict_index.leave(cid);
        let req = self.requests.get_mut(rid);
        req.started = Some(self.now);
        req.class = Some(class);
        let (func, arrival, exec) = (req.func, req.arrival, req.exec);
        let info = req.info(rid);
        let wait = self.now.saturating_since(arrival);
        let end = self.now + self.busy_span(exec);
        self.busy_until.entry(cid).or_default().push(end);
        sched.schedule(end, Event::ExecDone(cid, rid));
        self.records.push(RequestRecord {
            func,
            arrival,
            wait,
            exec,
            class,
        });
        obs!(
            self.rec,
            ObsEvent::Start {
                at: self.now,
                rid: rid.0,
                cid: cid.0,
                func,
                class: class.into(),
                wait,
            }
        );
        if self.track_running {
            // Track in-flight work so a worker crash can void the record
            // and re-queue the request.
            self.running
                .entry(cid)
                .or_default()
                .push((rid, self.records.len() - 1));
        }

        let cinfo = self
            .cluster
            .container(cid)
            .map(ContainerInfo::from)
            .expect("live container");
        let ctx = PolicyCtx::new(self.now, &self.cluster, &self.busy_until);
        if class != StartClass::Cold {
            self.policies.keepalive.on_reuse(&cinfo, &ctx);
        }
        self.policies
            .scaler
            .on_start(&info, class, wait, exec, &ctx);
        if was_speculative {
            let idle = self.now.saturating_since(warm_at);
            self.policies.scaler.on_cold_outcome(func, Some(idle), &ctx);
        }
    }

    /// Provisions a container for `func`, evicting idle containers if
    /// necessary, or defers when no worker can make room. `attempt` is
    /// the retry attempt carried through fault-injected failures (0 for
    /// first tries).
    fn request_provision<S: Schedule>(
        &mut self,
        func: FunctionId,
        speculative: bool,
        attempt: u32,
        sched: &mut S,
    ) {
        let mem = self.cluster.profile(func).mem_mb;
        let Some(worker) = self.cluster.pick_worker(mem) else {
            self.defer(func, speculative, attempt);
            return;
        };
        // REPLACE (Algorithm 2): evict the lowest-priority idle containers
        // on the chosen worker until the new container fits. Priorities
        // are computed once per replacement (the paper's lazily resorted
        // priority queue), not once per victim.
        let mut evicted = Vec::new();
        if self.cluster.workers()[worker.0 as usize].free_mb() < u64::from(mem) {
            // Victim-selection provenance: snapshot every candidate and
            // its priority before popping. Computed fresh only when
            // recording (`priority` is `&self` and side-effect-free),
            // and sorted in the eviction order all scan modes follow,
            // so the record is identical across scan modes.
            if self.rec.enabled() {
                let candidates = self.eviction_snapshot(worker);
                self.rec.record(ObsEvent::EvictCandidates {
                    at: self.now,
                    worker: worker.0,
                    incoming: func,
                    candidates,
                });
            }
            let fits = |cluster: &ClusterState| {
                cluster.workers()[worker.0 as usize].free_mb() >= u64::from(mem)
            };
            if self.use_evict_index {
                // Cross-round cached candidates: pop victims straight off
                // the worker's lazy-deletion heap, re-validating each
                // cached priority against a fresh evaluation at pop time
                // (exact for non-volatile policies, see `PriorityDeps`).
                while !fits(&self.cluster) {
                    let popped = {
                        let cluster = &self.cluster;
                        let ka = &self.policies.keepalive;
                        let ctx = PolicyCtx::new(self.now, cluster, &self.busy_until);
                        self.evict_index.pop_min(worker, |cid| {
                            let c = cluster.container(cid)?;
                            if !(c.is_idle() && c.local_queue.is_empty()) {
                                return None;
                            }
                            Some(ka.priority(&ContainerInfo::from(c), &ctx))
                        })
                    };
                    let Some((_, victim)) = popped else {
                        // Raced with our own accounting: pick_worker said
                        // this fits, so there must be victims. Defensive
                        // fallback.
                        self.defer(func, speculative, attempt);
                        return;
                    };
                    evicted.push(self.evict_container(victim, EvictReason::Replace));
                }
            } else {
                // Per-round candidate snapshot (reference scan, or
                // volatile priorities that cannot be cached across
                // rounds).
                let candidates = self.round_candidates(worker);
                match self.cluster.scan() {
                    ScanMode::Indexed => {
                        // O(n) heapify + O(victims log n) pops, identical
                        // order to the reference full sort.
                        let mut heap = RoundHeap::from_entries(candidates);
                        while !fits(&self.cluster) {
                            let Some((_, victim)) = heap.pop() else {
                                self.defer(func, speculative, attempt);
                                return;
                            };
                            evicted.push(self.evict_container(victim, EvictReason::Replace));
                        }
                    }
                    ScanMode::Reference => {
                        let sorted = crate::reference::sorted_eviction_candidates(candidates);
                        let mut victims = sorted.into_iter();
                        while !fits(&self.cluster) {
                            let Some((_, victim)) = victims.next() else {
                                self.defer(func, speculative, attempt);
                                return;
                            };
                            evicted.push(self.evict_container(victim, EvictReason::Replace));
                        }
                    }
                }
            }
        }
        self.finish_admission(func, worker, speculative, evicted, attempt, sched);
    }

    /// Parks a provision that no worker can make room for; it is retried
    /// as memory frees.
    fn defer(&mut self, func: FunctionId, speculative: bool, attempt: u32) {
        obs!(
            self.rec,
            ObsEvent::Defer {
                at: self.now,
                func,
                speculative,
            }
        );
        self.deferred.push_back((func, speculative, attempt));
    }

    /// Charges memory, registers the container, and fires admission
    /// hooks after room has been made on `worker`.
    fn finish_admission<S: Schedule>(
        &mut self,
        func: FunctionId,
        worker: WorkerId,
        speculative: bool,
        evicted: Vec<ContainerInfo>,
        attempt: u32,
        sched: &mut S,
    ) {
        if !evicted.is_empty() {
            self.cluster.note_replace_round();
        }
        let cid = self
            .cluster
            .begin_provision(func, worker, self.now, speculative);
        self.note_memory();
        obs!(
            self.rec,
            ObsEvent::ProvisionBegin {
                at: self.now,
                cid: cid.0,
                func,
                worker: worker.0,
                speculative,
                attempt,
            }
        );
        let cinfo = self
            .cluster
            .container(cid)
            .map(ContainerInfo::from)
            .expect("just created");
        let cold = {
            let ctx = PolicyCtx::new(self.now, &self.cluster, &self.busy_until);
            self.policies.keepalive.on_admit(&cinfo, &evicted, &ctx);
            self.policies
                .keepalive
                .provision_latency(func, &ctx)
                .unwrap_or_else(|| self.cluster.profile(func).cold_start)
        };
        if self.fault_active {
            self.attempts.insert(cid, attempt);
            if self.faults.provision_fails() {
                // The failure surfaces only after the full provisioning
                // latency was spent — like a real timed-out cold start.
                sched.schedule(self.now + cold, Event::ProvisionFailed(cid));
                return;
            }
            let factor = self.faults.straggler_factor();
            let cold = if factor > 1.0 {
                cold.scale(factor)
            } else {
                cold
            };
            sched.schedule(self.now + cold, Event::ProvisionDone(cid));
            return;
        }
        sched.schedule(self.now + cold, Event::ProvisionDone(cid));
    }

    /// Every eviction candidate on `worker` (fully idle, empty local
    /// queue) with its current keep-alive priority, in idle-set order.
    fn round_candidates(&self, worker: WorkerId) -> Vec<(f64, ContainerId)> {
        let ctx = PolicyCtx::new(self.now, &self.cluster, &self.busy_until);
        let ka = &self.policies.keepalive;
        self.cluster.workers()[worker.0 as usize]
            .idle
            .iter()
            .filter(|cid| {
                self.cluster
                    .container(**cid)
                    .map(|c| c.local_queue.is_empty())
                    .unwrap_or(false)
            })
            .map(|&cid| {
                let cinfo = ctx.container(cid).expect("idle containers are live");
                (ka.priority(&cinfo, &ctx), cid)
            })
            .collect()
    }

    /// Fresh, sorted snapshot of every eviction candidate on `worker`
    /// with its keep-alive priority, for [`ObsEvent::EvictCandidates`]
    /// provenance records. Only called when recording is enabled;
    /// `priority` is `&self` and side-effect-free, so the snapshot
    /// cannot perturb the run. Sorted (priority, then id) — the
    /// eviction order every scan mode follows, so the record is
    /// scan-mode-independent.
    fn eviction_snapshot(&self, worker: WorkerId) -> Vec<(u64, f64)> {
        crate::reference::sorted_eviction_candidates(self.round_candidates(worker))
            .into_iter()
            .map(|(p, cid)| (cid.0, p))
            .collect()
    }

    /// Enters `cid` into the eviction index if it just became a
    /// candidate (fully idle, empty local queue), caching its current
    /// priority. No-op unless cross-round caching is enabled.
    fn index_candidate(&mut self, cid: ContainerId) {
        if !self.use_evict_index {
            return;
        }
        let Some(c) = self.cluster.container(cid) else {
            return;
        };
        if !(c.is_idle() && c.local_queue.is_empty()) {
            return;
        }
        let worker = c.worker;
        let priority = {
            let ctx = PolicyCtx::new(self.now, &self.cluster, &self.busy_until);
            self.policies
                .keepalive
                .priority(&ContainerInfo::from(c), &ctx)
        };
        self.evict_index.enter(worker, cid, priority);
    }

    /// Evicts one idle container, firing policy hooks.
    fn evict_container(&mut self, cid: ContainerId, reason: EvictReason) -> ContainerInfo {
        let was_unused = self
            .cluster
            .container(cid)
            .map(|c| c.speculative_unused)
            .unwrap_or(false);
        self.evict_index.leave(cid);
        let info = self.cluster.evict(cid, self.now);
        self.note_memory();
        // Provenance note reflects the keep-alive state that drove the
        // choice, so it is taken before `on_evict` mutates it.
        obs!(
            self.rec,
            ObsEvent::Evict {
                at: self.now,
                cid: cid.0,
                func: info.func,
                worker: info.worker.0,
                reason,
                note: self.policies.keepalive.explain(),
            }
        );
        let ctx = PolicyCtx::new(self.now, &self.cluster, &self.busy_until);
        self.policies.keepalive.on_evict(&info, &ctx);
        if was_unused {
            // A speculative cold start died without serving anyone: the
            // strongest "that cold start was wasted" signal for CSS.
            self.policies.scaler.on_cold_outcome(info.func, None, &ctx);
        }
        info
    }

    /// Pops the next servable request from the function channel.
    /// `any` allows cold-only requests (a fresh container can serve
    /// anyone); freed busy containers skip cold-only entries.
    fn pop_pending(&mut self, func: FunctionId, any: bool) -> Option<RequestId> {
        let rt = self.cluster.fn_runtime_mut(func);
        if any {
            rt.pending.pop_any().map(|(rid, _)| rid)
        } else {
            rt.pending.pop_flexible()
        }
    }

    /// Retries deferred provisions after memory was freed or became
    /// evictable. The queue is FIFO with head blocking: placements are
    /// issued in order until the head no longer fits, which keeps the
    /// retry cost amortised O(1) per successful placement instead of
    /// rescanning the whole backlog on every event.
    ///
    /// The orchestrator calls this itself whenever memory frees. A
    /// driver calls it when a tick finds nothing else scheduled: tick
    /// expirations may have freed room with no other event to notice.
    pub fn retry_deferred<S: Schedule>(&mut self, sched: &mut S) {
        while let Some(&(func, speculative, attempt)) = self.deferred.front() {
            let mem = self.cluster.profile(func).mem_mb;
            if self.cluster.pick_worker(mem).is_none() {
                break;
            }
            self.deferred.pop_front();
            self.request_provision(func, speculative, attempt, sched);
        }
    }

    fn note_memory(&mut self) {
        if self.record_memory {
            self.memory
                // lint:allow(C1): whole-MB totals sit far below 2^53 — exact in f64
                .push(self.now.as_micros(), self.cluster.used_mb() as f64);
        }
    }
}
