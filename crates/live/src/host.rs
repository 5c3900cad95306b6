//! A programmable FaaS host: deploy real Rust handlers, invoke them, and
//! let a keep-alive/scaling policy manage the container fleet.
//!
//! Where [`crate::run_live`] replays a pre-recorded trace, [`FaasHost`]
//! is the interactive mode: callers deploy functions (a profile plus a
//! handler closure), fire invocations from any thread, and receive
//! [`InvokeOutcome`]s carrying the handler's output together with the
//! start class (warm / delayed warm / cold) and the invocation overhead
//! the policy produced.
//!
//! Handler execution is real: each *running* invocation occupies a
//! thread of the executor's cached blocking pool for as long as the
//! handler runs (waiting invocations are suspended tasks, not threads —
//! see [`crate::exec`]). Provisioning latency — the part of a cold
//! start a host cannot execute for you — is realised as a timed delay
//! of `profile.cold_start` scaled by [`crate::LiveConfig::time_scale`].
//!
//! The host drives the simulator's [`faas_sim::Orchestrator`], so every
//! admission, eviction and fault-handling decision is the simulator's.
//! What differs is fed in by this driver: requests are admitted when
//! invoked, an execution's length is known only when its handler
//! returns, the reply goes out at that moment, and ticks run until
//! shutdown. A [`faas_sim::FaultPlan`] in [`crate::LiveConfig::sim`]
//! applies here too: an execution voided by a worker crash sends no
//! reply, and its request replies once, from its re-execution.
//!
//! ```
//! use faas_live::{FaasHost, LiveConfig};
//! use faas_sim::baseline_lru_stack;
//! use faas_trace::{FunctionId, FunctionProfile, TimeDelta};
//! use std::sync::Arc;
//!
//! let profile = FunctionProfile::new(FunctionId(0), "double", 128, TimeDelta::from_millis(50));
//! let host = FaasHost::start(
//!     LiveConfig::default().time_scale(0.01),
//!     baseline_lru_stack(),
//!     vec![(profile, Arc::new(|x: Vec<u8>| x.iter().map(|b| b * 2).collect()))],
//! );
//! let out = host.invoke(FunctionId(0), vec![1, 2, 3]).wait().expect("function ran");
//! assert_eq!(out.output, vec![2, 4, 6]);
//! let report = host.shutdown();
//! assert_eq!(report.requests.len(), 1);
//! ```

use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use faas_obs::{NoopRecorder, Recorder, RingRecorder, TraceLog};
use faas_sim::{
    ContainerId, Event, Orchestrator, PolicyStack, RequestId, Schedule, SimReport, StartClass,
};
use faas_trace::{FunctionId, FunctionProfile, TimeDelta, TimePoint};

use crate::exec;
use crate::runtime::{LiveConfig, WallClock};

/// A deployed function's handler: bytes in, bytes out. Runs on a
/// blocking-pool thread for every invocation.
pub type Handler = Arc<dyn Fn(Vec<u8>) -> Vec<u8> + Send + Sync>;

/// The outcome of one invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvokeOutcome {
    /// The handler's output.
    pub output: Vec<u8>,
    /// How the request started (warm / delayed warm / cold).
    pub class: StartClass,
    /// Invocation overhead (queueing + provisioning before the handler
    /// began), in simulated time units.
    pub wait: TimeDelta,
}

/// Handle on an in-flight invocation.
#[derive(Debug)]
pub struct InvokeHandle {
    rx: mpsc::Receiver<InvokeOutcome>,
}

impl InvokeHandle {
    /// Blocks until the invocation completes. Returns `None` if the host
    /// shut down without serving it (cannot happen before
    /// [`FaasHost::shutdown`]).
    pub fn wait(self) -> Option<InvokeOutcome> {
        self.rx.recv().ok()
    }
}

enum Msg {
    Invoke(FunctionId, Vec<u8>, mpsc::Sender<InvokeOutcome>),
    /// An orchestrator event whose virtual deadline has passed.
    Event(Event),
    /// A handler returned: its output and measured wall time.
    ExecDone(ContainerId, RequestId, Vec<u8>, Duration),
    Shutdown(mpsc::Sender<(SimReport, TraceLog)>),
}

/// A running FaaS host. See the module docs for the lifecycle.
pub struct FaasHost {
    tx: exec::channel::Sender<Msg>,
    executor: Option<exec::Executor>,
}

impl std::fmt::Debug for FaasHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaasHost").finish_non_exhaustive()
    }
}

impl FaasHost {
    /// Starts the host with the given deployments. The orchestrator
    /// runs as a task on an in-process [`exec::Executor`].
    ///
    /// # Panics
    ///
    /// Panics if a deployed function's memory footprint exceeds every
    /// worker, if two deployments share a [`FunctionId`], or if
    /// `config` fails [`LiveConfig`] validation.
    pub fn start(
        config: LiveConfig,
        stack: PolicyStack,
        deployments: Vec<(FunctionProfile, Handler)>,
    ) -> Self {
        Self::start_with(config, stack, deployments, NoopRecorder)
    }

    /// Like [`FaasHost::start`], but with provenance recording enabled:
    /// [`FaasHost::shutdown_traced`] returns the accumulated
    /// [`TraceLog`] alongside the report. Event timestamps are virtual
    /// times derived from the wall clock, so the stream varies run to
    /// run (live tracing inspects one real execution, it is not a
    /// determinism oracle).
    ///
    /// # Panics
    ///
    /// As [`FaasHost::start`].
    pub fn start_traced(
        config: LiveConfig,
        stack: PolicyStack,
        deployments: Vec<(FunctionProfile, Handler)>,
    ) -> Self {
        Self::start_with(config, stack, deployments, RingRecorder::unbounded())
    }

    fn start_with<R: Recorder + Send + 'static>(
        config: LiveConfig,
        stack: PolicyStack,
        deployments: Vec<(FunctionProfile, Handler)>,
        rec: R,
    ) -> Self {
        config.validate();
        let mut handlers = HashMap::new();
        let mut profiles = Vec::new();
        for (profile, handler) in deployments {
            assert!(
                handlers.insert(profile.id, handler).is_none(),
                "duplicate deployment of {}",
                profile.id
            );
            profiles.push(profile);
        }
        let orch = Orchestrator::for_admission(&profiles, &config.sim, stack, rec);
        let executor = exec::Executor::new(config.exec_threads);
        let (tx, rx) = exec::channel::channel();
        let mut io = HostIo {
            clock: WallClock::start(config.time_scale),
            exec: executor.handle(),
            tx: tx.clone(),
            handlers,
            inflight: HashMap::new(),
        };
        io.schedule(TimePoint::ZERO + config.sim.tick, Event::Tick);
        orch.schedule_crashes(&mut io);
        drop(executor.spawn(serve(orch, io, rx, config.sim.tick)));
        Self {
            tx,
            executor: Some(executor),
        }
    }

    /// Fires an invocation; returns immediately with a handle.
    pub fn invoke(&self, func: FunctionId, payload: Vec<u8>) -> InvokeHandle {
        let (otx, orx) = mpsc::channel();
        // The orchestrator outlives every handle until shutdown.
        let _ = self.tx.send(Msg::Invoke(func, payload, otx));
        InvokeHandle { rx: orx }
    }

    /// Drains in-flight invocations and returns the run report.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic any handler hit (the executor captures
    /// handler panics instead of letting them kill a request thread).
    pub fn shutdown(self) -> SimReport {
        self.shutdown_traced().0
    }

    /// Like [`FaasHost::shutdown`], additionally returning the
    /// provenance [`TraceLog`] — empty unless the host was started with
    /// [`FaasHost::start_traced`].
    ///
    /// # Panics
    ///
    /// As [`FaasHost::shutdown`].
    pub fn shutdown_traced(mut self) -> (SimReport, TraceLog) {
        let (rtx, rrx) = mpsc::channel();
        let _ = self.tx.send(Msg::Shutdown(rtx));
        let report = rrx.recv();
        let executor = self.executor.take().expect("executor lives until shutdown");
        // Rethrows captured orchestrator/handler panics.
        executor.shutdown();
        report.expect("orchestrator returns a report")
    }
}

/// An invocation from its `invoke` until its reply.
struct InFlight {
    func: FunctionId,
    payload: Vec<u8>,
    reply: mpsc::Sender<InvokeOutcome>,
}

/// The host's side of the orchestrator's schedule: timed events become
/// reactor deadlines, and an execution start runs the real handler.
struct HostIo {
    clock: WallClock,
    exec: exec::Handle,
    tx: exec::channel::Sender<Msg>,
    handlers: HashMap<FunctionId, Handler>,
    inflight: HashMap<RequestId, InFlight>,
}

impl Schedule for HostIo {
    fn schedule(&mut self, at: TimePoint, event: Event) {
        let Event::ExecDone(cid, rid) = event else {
            exec::send_at(
                &self.exec,
                &self.tx,
                self.clock.deadline(at),
                Msg::Event(event),
            );
            return;
        };
        // The execution is real, so `at` is only the orchestrator's
        // booking horizon: the handler's return reports the end. It runs
        // on the executor's cached blocking pool — one pool thread per
        // *running* invocation, reused across bursts.
        let flight = self
            .inflight
            .get(&rid)
            .expect("a starting request is in flight");
        let handler = Arc::clone(self.handlers.get(&flight.func).expect("deployed"));
        let payload = flight.payload.clone();
        let done = self.tx.clone();
        drop(self.exec.spawn_blocking(move || {
            let begun = Instant::now();
            let output = handler(payload);
            let _ = done.send(Msg::ExecDone(cid, rid, output, begun.elapsed()));
        }));
    }
}

/// The host's orchestrator task: admits invocations, delivers timed
/// events and handler returns, and once shutdown is requested reports
/// as soon as nothing is in flight.
async fn serve<R: Recorder>(
    mut orch: Orchestrator<R>,
    mut io: HostIo,
    mut rx: exec::channel::Receiver<Msg>,
    tick: TimeDelta,
) {
    let mut shutdown = None;
    while let Some(msg) = rx.recv().await {
        let now = io.clock.now();
        let event = match msg {
            Msg::Invoke(func, payload, reply) => {
                assert!(
                    io.handlers.contains_key(&func),
                    "invoke of undeployed function {func}"
                );
                let rid = orch.admit(func, now);
                io.inflight.insert(
                    rid,
                    InFlight {
                        func,
                        payload,
                        reply,
                    },
                );
                Some(Event::Arrival(rid))
            }
            Msg::Event(event) => Some(event),
            Msg::ExecDone(cid, rid, output, real_exec) => {
                // No live execution means a worker crash voided this
                // one: the request re-executes and replies from there.
                if let Some(record) = orch.running_record(cid, rid) {
                    record.exec = io.clock.virtual_span(real_exec);
                    let flight = io
                        .inflight
                        .remove(&rid)
                        .expect("a running request is in flight");
                    let _ = flight.reply.send(InvokeOutcome {
                        output,
                        class: record.class,
                        wait: record.wait,
                    });
                }
                Some(Event::ExecDone(cid, rid))
            }
            Msg::Shutdown(reply) => {
                shutdown = Some(reply);
                None
            }
        };
        if let Some(event) = event {
            orch.handle(now, event, &mut io);
            if event == Event::Tick {
                // A host serves until shut down: its ticks never stop.
                io.schedule(now + tick, Event::Tick);
            }
        }
        if orch.in_flight() == 0 {
            if let Some(reply) = shutdown.take() {
                let (report, mut rec) = orch.finish();
                let _ = reply.send((report, rec.take_log()));
                return;
            }
        }
    }
}
