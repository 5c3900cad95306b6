//! Wall-clock trace replay: the simulator's [`Orchestrator`] stepped in
//! real time.
//!
//! The driver turns every virtual deadline the orchestrator schedules
//! into a reactor timer at `start + time_scale × at`
//! ([`exec::send_at`]) and hands each event back stamped with the
//! virtual time read off the wall clock.

use std::time::{Duration, Instant};

use faas_obs::NoopRecorder;
use faas_sim::{Event, Orchestrator, PolicyStack, RequestId, Schedule, SimConfig, SimReport};
use faas_trace::{TimeDelta, TimePoint, Trace};

use crate::exec;

/// Configuration of a live run: the cluster shape (reusing
/// [`SimConfig`]) plus the real-seconds-per-simulated-second scale.
#[derive(Debug, Clone, PartialEq)]
pub struct LiveConfig {
    /// Cluster shape, thread capacity, and tick interval.
    pub sim: SimConfig,
    /// Real seconds per simulated second. `0.001` replays a simulated
    /// minute in 60 real milliseconds.
    pub time_scale: f64,
    /// Poll threads for the async executor driving timed events. Every
    /// in-flight request is a suspended task, so a handful of threads
    /// serves tens of thousands of concurrent requests.
    pub exec_threads: usize,
}

impl Default for LiveConfig {
    fn default() -> Self {
        Self {
            sim: SimConfig::default(),
            time_scale: 0.001,
            exec_threads: 4,
        }
    }
}

impl LiveConfig {
    /// Sets the cluster configuration.
    pub fn sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Sets the time compression factor.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    pub fn time_scale(mut self, scale: f64) -> Self {
        self.time_scale = scale;
        self.validate();
        self
    }

    /// Sets the executor poll-thread count (at least 1).
    pub fn exec_threads(mut self, threads: usize) -> Self {
        self.exec_threads = threads.max(1);
        self
    }

    /// Rejects configurations no live run can execute. Called at every
    /// entry point ([`run_live`], [`crate::FaasHost::start`]) as well as
    /// in the builder: the fields are `pub`, so literal construction can
    /// bypass builder checks — a non-finite or non-positive `time_scale`
    /// would otherwise turn into `Duration::from_secs_f64` panics (or a
    /// zero-length sleep for *every* deadline) deep inside the event
    /// loop.
    ///
    /// # Panics
    ///
    /// Panics if `time_scale` is NaN, infinite, zero, or negative.
    pub(crate) fn validate(&self) {
        assert!(
            self.time_scale.is_finite() && self.time_scale > 0.0,
            "time scale must be positive and finite, got {}",
            self.time_scale
        );
    }
}

/// Concurrency statistics from a live run, returned by [`run_live`]
/// alongside the report.
#[derive(Debug, Clone, Copy)]
pub struct LiveStats {
    /// High-water mark of arrived-but-unserved requests.
    pub peak_inflight: u64,
    /// High-water mark of live executor tasks (each scheduled event —
    /// arrival, completion, tick, retry — is one task).
    pub peak_tasks: usize,
    /// High-water mark of concurrently registered reactor timers.
    pub peak_timers: usize,
    /// Total reactor timers fired over the run (every scheduled event —
    /// arrival, completion, tick, retry — fires exactly one).
    pub timer_fires: u64,
    /// High-water mark of blocking-pool threads.
    pub peak_blocking_threads: usize,
    /// Executor poll threads used.
    pub workers: usize,
    /// Real elapsed time of the replay.
    pub wall: Duration,
}

/// Replays `trace` on the live host under `stack`, returning the same
/// report shape as [`faas_sim::run`] (waits in simulated time units)
/// together with [`LiveStats`] measured by the host itself, so callers
/// need no wall clock of their own.
///
/// # Panics
///
/// Panics if some function's memory footprint exceeds every worker (as
/// in the simulator) or if `config` fails [`LiveConfig`] validation.
pub fn run_live(trace: &Trace, config: &LiveConfig, stack: PolicyStack) -> (SimReport, LiveStats) {
    config.validate();
    let executor = exec::Executor::new(config.exec_threads);
    let wall_start = Instant::now();
    let mut orch = Orchestrator::for_trace(trace, &config.sim, stack, NoopRecorder);
    let (tx, mut rx) = exec::channel::channel();
    // Each scheduled event is one suspended executor task, so the whole
    // trace sits in the reactor's deadline heap, not in OS threads.
    let mut timers = Timers {
        clock: WallClock::start(config.time_scale),
        exec: executor.handle(),
        tx,
        pending: 0,
    };
    for (i, inv) in trace.invocations().iter().enumerate() {
        timers.schedule(inv.arrival, Event::Arrival(RequestId(i as u64)));
    }
    if !trace.is_empty() {
        timers.schedule(TimePoint::ZERO + config.sim.tick, Event::Tick);
    }
    orch.schedule_crashes(&mut timers);
    let tick = config.sim.tick;
    let (report, peak_inflight) = executor.block_on(async move {
        let mut peak_inflight = 0;
        while orch.unserved() > 0 {
            let Some(event) = rx.recv().await else {
                break;
            };
            timers.pending -= 1;
            let now = timers.clock.now();
            orch.handle(now, event, &mut timers);
            peak_inflight = peak_inflight.max(orch.in_flight());
            if event == Event::Tick && orch.unserved() > 0 {
                // As in the simulator: with only the tick chain left,
                // deferred placements are the last source of progress.
                if timers.pending == 0 {
                    orch.retry_deferred(&mut timers);
                }
                assert!(
                    timers.pending > 0,
                    "live replay is stuck: {} unserved request(s) but no actionable events remain",
                    orch.unserved()
                );
                timers.schedule(now + tick, Event::Tick);
            }
        }
        assert_eq!(
            orch.unserved(),
            0,
            "live host stopped with unserved requests"
        );
        (orch.finish().0, peak_inflight)
    });
    let wall = wall_start.elapsed();
    let stats = executor.stats();
    // Cancels leftover event tasks (e.g. a pending tick) and re-raises
    // the first panic any event task hit.
    executor.shutdown();
    (
        report,
        LiveStats {
            peak_inflight,
            peak_tasks: stats.peak_tasks,
            peak_timers: stats.peak_timers,
            timer_fires: stats.timer_fires,
            peak_blocking_threads: stats.peak_blocking_threads,
            workers: stats.workers,
            wall,
        },
    )
}

/// Virtual time on the wall clock: `time_scale` real seconds per
/// simulated second since `start`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WallClock {
    start: Instant,
    time_scale: f64,
}

impl WallClock {
    /// A clock whose virtual time zero is now.
    pub(crate) fn start(time_scale: f64) -> Self {
        Self {
            start: Instant::now(),
            time_scale,
        }
    }

    /// The current virtual time.
    pub(crate) fn now(&self) -> TimePoint {
        TimePoint::ZERO + self.virtual_span(self.start.elapsed())
    }

    /// The real instant at which virtual time `at` falls due.
    pub(crate) fn deadline(&self, at: TimePoint) -> Instant {
        let virt = at.saturating_since(TimePoint::ZERO).as_secs_f64();
        self.start + Duration::from_secs_f64(virt * self.time_scale)
    }

    /// A real span in simulated time units.
    pub(crate) fn virtual_span(&self, real: Duration) -> TimeDelta {
        TimeDelta::from_micros((real.as_secs_f64() / self.time_scale * 1e6) as u64)
    }
}

/// The replay's side of the orchestrator's schedule: every event becomes
/// one reactor timer.
struct Timers {
    clock: WallClock,
    exec: exec::Handle,
    tx: exec::channel::Sender<Event>,
    /// Events scheduled and not yet handled: the replay's counterpart of
    /// the simulator's event-heap length.
    pending: usize,
}

impl Schedule for Timers {
    fn schedule(&mut self, at: TimePoint, event: Event) {
        self.pending += 1;
        exec::send_at(&self.exec, &self.tx, self.clock.deadline(at), event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faas_sim::{baseline_lru_stack, StartClass, WorkerId};
    use faas_trace::{gen, FunctionId, FunctionProfile, Invocation};

    fn tiny_trace() -> Trace {
        let f = FunctionProfile::new(FunctionId(0), "f", 128, TimeDelta::from_millis(100));
        let invs = vec![
            Invocation {
                func: FunctionId(0),
                arrival: TimePoint::ZERO,
                exec: TimeDelta::from_millis(50),
            },
            Invocation {
                func: FunctionId(0),
                arrival: TimePoint::from_millis(500),
                exec: TimeDelta::from_millis(50),
            },
        ];
        Trace::new(vec![f], invs).expect("valid")
    }

    #[test]
    fn cold_then_warm_on_live_host() {
        let _clock = crate::WALL_CLOCK.lock().unwrap_or_else(|p| p.into_inner());
        // 1 simulated ms = 20 real µs: the 550 ms trace replays in ~11 ms
        // of real time with wide margins between events.
        let config = LiveConfig::default().time_scale(0.02);
        let (report, _) = run_live(&tiny_trace(), &config, baseline_lru_stack());
        assert_eq!(report.requests.len(), 2);
        assert_eq!(report.requests[0].class, StartClass::Cold);
        assert_eq!(report.requests[1].class, StartClass::Warm);
        // Wall-clock jitter: the cold wait must be at least the cold
        // start latency; the overshoot margin absorbs scheduler noise
        // from neighboring tests (the executor suite runs 10k tasks).
        let wait = report.requests[0].wait.as_millis_f64();
        assert!((100.0..300.0).contains(&wait), "cold wait {wait} ms");
    }

    #[test]
    fn conservation_on_generated_workload() {
        let _clock = crate::WALL_CLOCK.lock().unwrap_or_else(|p| p.into_inner());
        let trace = gen::fc(3).functions(5).minutes(1).build();
        let config = LiveConfig::default().time_scale(0.0005);
        let (report, _) = run_live(&trace, &config, baseline_lru_stack());
        assert_eq!(report.requests.len(), trace.len());
        let total = report.ratio(StartClass::Warm)
            + report.ratio(StartClass::Cold)
            + report.ratio(StartClass::DelayedWarm);
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "time scale must be positive")]
    fn rejects_bad_scale() {
        let _ = LiveConfig::default().time_scale(0.0);
    }

    #[test]
    #[should_panic(expected = "time scale must be positive")]
    fn rejects_nan_scale_in_builder() {
        let _ = LiveConfig::default().time_scale(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "time scale must be positive")]
    fn rejects_literal_constructed_bad_scale_at_entry() {
        // Regression: the fields are `pub`, so literal construction
        // bypasses the builder's check; a NaN scale used to reach
        // `Duration::from_secs_f64` deep inside the event loop. Entry
        // points validate up front now.
        let config = LiveConfig {
            sim: SimConfig::default(),
            time_scale: f64::NAN,
            exec_threads: 2,
        };
        let _ = run_live(&tiny_trace(), &config, baseline_lru_stack());
    }

    #[test]
    #[should_panic(expected = "time scale must be positive")]
    fn rejects_negative_scale_at_entry() {
        let config = LiveConfig {
            sim: SimConfig::default(),
            time_scale: -0.5,
            exec_threads: 2,
        };
        let _ = run_live(&tiny_trace(), &config, baseline_lru_stack());
    }

    #[test]
    fn stats_count_concurrent_inflight_requests() {
        let _clock = crate::WALL_CLOCK.lock().unwrap_or_else(|p| p.into_inner());
        // 200 simultaneous arrivals: every request is in flight at once
        // before any is served, and each scheduled event is a task. The
        // arrivals sit 20 ms of real time out, so every arrival task is
        // spawned before the first one fires.
        let f = FunctionProfile::new(FunctionId(0), "f", 128, TimeDelta::from_millis(20));
        let invs = (0..200)
            .map(|_| Invocation {
                func: FunctionId(0),
                arrival: TimePoint::from_secs(1),
                exec: TimeDelta::from_millis(10),
            })
            .collect();
        let trace = Trace::new(vec![f], invs).expect("valid");
        let config = LiveConfig::default().time_scale(0.02).exec_threads(2);
        let (report, stats) = run_live(&trace, &config, baseline_lru_stack());
        assert_eq!(report.requests.len(), 200);
        assert_eq!(stats.peak_inflight, 200);
        assert!(
            stats.peak_tasks >= 200,
            "each pending arrival is a task: peak_tasks {}",
            stats.peak_tasks
        );
        assert_eq!(stats.workers, 2);
        assert!(stats.wall > Duration::ZERO);
    }

    #[test]
    fn provision_failures_retry_on_live_host() {
        use faas_sim::FaultPlan;
        let _clock = crate::WALL_CLOCK.lock().unwrap_or_else(|p| p.into_inner());
        let sim = SimConfig::default().workers_mb(vec![1024]).faults(
            FaultPlan::none()
                .seed(3)
                .provision_failures(0.8)
                .retry_backoff(TimeDelta::from_millis(10), TimeDelta::from_millis(80)),
        );
        let config = LiveConfig::default().sim(sim).time_scale(0.02);
        let (report, _) = run_live(&tiny_trace(), &config, baseline_lru_stack());
        // Both requests complete despite failed provisions; every
        // failure is retried until one succeeds.
        assert_eq!(report.requests.len(), 2);
        assert!(report.provision_failures > 0, "seed 3 at p=0.8 must fail");
        assert_eq!(
            report.containers_created,
            report.provision_failures + report.count(StartClass::Cold)
        );
    }

    #[test]
    fn worker_crash_reexecutes_on_live_host() {
        use faas_sim::FaultPlan;
        let _clock = crate::WALL_CLOCK.lock().unwrap_or_else(|p| p.into_inner());
        // One long request on worker 0 of 2; the crash at simulated
        // t = 500 ms hits mid-execution, and the request re-executes.
        let f = FunctionProfile::new(FunctionId(0), "f", 128, TimeDelta::from_millis(100));
        let invs = vec![Invocation {
            func: FunctionId(0),
            arrival: TimePoint::ZERO,
            exec: TimeDelta::from_millis(1_000),
        }];
        let trace = Trace::new(vec![f], invs).expect("valid");
        let sim = SimConfig::default()
            .workers_mb(vec![1024, 1024])
            .faults(FaultPlan::none().crash_worker(TimePoint::from_millis(500), WorkerId(0)));
        let config = LiveConfig::default().sim(sim).time_scale(0.02);
        let (report, _) = run_live(&trace, &config, baseline_lru_stack());
        assert_eq!(report.requests.len(), 1);
        assert_eq!(report.crash_evictions, 1);
        assert_eq!(report.containers_created, 2);
        // The recorded wait covers the doomed first run plus the
        // re-provision: well above a plain 100 ms cold start.
        assert!(
            report.requests[0].wait > TimeDelta::from_millis(400),
            "wait {:?} should include the crashed attempt",
            report.requests[0].wait
        );
    }

    /// The simulator's cold-only starvation scenario
    /// (`cold_only_waiter_survives_refugees_stealing_its_provision` in
    /// `crates/sim/tests/fault_mechanics.rs`) replayed live. A crash
    /// turns two running requests into refugees that take the
    /// provision started for a cold-only waiter; without the repair in
    /// the orchestrator the waiter is stranded and the replay ticks
    /// forever. The replay runs on its own thread so a regression fails
    /// at the timeout instead of hanging the suite.
    #[test]
    fn cold_only_waiter_survives_refugees_on_live_host() {
        use faas_sim::{AlwaysCold, FaultPlan, LruKeepAlive};
        let _clock = crate::WALL_CLOCK.lock().unwrap_or_else(|p| p.into_inner());
        let profiles = vec![
            FunctionProfile::new(FunctionId(0), "filler", 1_000, TimeDelta::from_millis(50)),
            FunctionProfile::new(FunctionId(1), "f0", 400, TimeDelta::from_millis(100)),
        ];
        let iv = |f: u32, at_ms: u64, exec_ms: u64| Invocation {
            func: FunctionId(f),
            arrival: TimePoint::from_millis(at_ms),
            exec: TimeDelta::from_millis(exec_ms),
        };
        let invocations = vec![
            iv(0, 0, 30_000),
            iv(1, 200, 20_000),
            iv(1, 400, 20_000),
            iv(1, 2_000, 1_000),
        ];
        let trace = Trace::new(profiles, invocations).expect("valid");
        let plan = FaultPlan::none()
            .seed(1)
            .crash_worker(TimePoint::from_secs(1), WorkerId(1));
        let sim = SimConfig::default()
            .workers_mb(vec![1_000, 1_000])
            .faults(plan);
        // The simulated run ends near 31 s: about 31 ms of real time.
        let config = LiveConfig::default().sim(sim).time_scale(0.001);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let stack = PolicyStack::new(Box::new(LruKeepAlive), Box::new(AlwaysCold));
            let _ = tx.send(run_live(&trace, &config, stack).0);
        });
        let report = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("the live replay finishes instead of starving the cold-only waiter");
        assert_eq!(report.requests.len(), 4, "every request must complete");
    }
}
