//! The discrete-event simulation driver.
//!
//! The mechanics live in [`Orchestrator`]; this driver owns what is
//! particular to simulation: the virtual-time event heap, the tick
//! chain, and the assertion that a run never gets stuck.

use faas_obs::{NoopRecorder, Recorder, RingRecorder, TraceLog};
use faas_trace::{TimePoint, Trace};

use crate::config::SimConfig;
use crate::event::{Event, EventQueue};
use crate::ids::RequestId;
use crate::orchestrator::Orchestrator;
use crate::policy::PolicyStack;
use crate::report::SimReport;

/// Runs `trace` through the simulated cluster under `stack`'s policies.
///
/// The run executes to completion: every request in the trace is
/// eventually served (the mechanics are deadlock-free because busy
/// containers always finish and idle containers are always evictable).
///
/// # Panics
///
/// Panics if some function's memory footprint exceeds every worker's
/// capacity, or if an internal invariant is violated (a bug).
///
/// # Examples
///
/// ```
/// use faas_sim::{run, baseline_lru_stack, SimConfig};
/// use faas_trace::gen;
///
/// let trace = gen::azure(1).functions(5).minutes(1).build();
/// let report = run(&trace, &SimConfig::default(), baseline_lru_stack());
/// assert_eq!(report.requests.len(), trace.len());
/// ```
pub fn run(trace: &Trace, config: &SimConfig, stack: PolicyStack) -> SimReport {
    simulate(trace, config, stack, NoopRecorder).0
}

/// Runs `trace` like [`run`] while recording the structured trace:
/// request lifecycle spans, decision provenance (admissions, eviction
/// candidates, retry scheduling), and fault events (DESIGN.md §11).
///
/// The report is byte-identical to [`run`]'s — recording observes,
/// never steers — and the event stream is byte-identical across the
/// indexed and reference scan modes, so traces from either can be
/// diffed directly.
///
/// # Examples
///
/// ```
/// use faas_sim::{run_traced, baseline_lru_stack, SimConfig};
/// use faas_trace::gen;
///
/// let trace = gen::azure(1).functions(5).minutes(1).build();
/// let (report, log) = run_traced(&trace, &SimConfig::default(), baseline_lru_stack());
/// assert_eq!(report.requests.len(), trace.len());
/// assert!(!log.is_empty());
/// ```
pub fn run_traced(trace: &Trace, config: &SimConfig, stack: PolicyStack) -> (SimReport, TraceLog) {
    let (report, rec) = simulate(trace, config, stack, RingRecorder::unbounded());
    (report, rec.into_log())
}

/// Steps an [`Orchestrator`] through `trace` from a virtual-time event
/// heap until no event is left.
fn simulate<R: Recorder>(
    trace: &Trace,
    config: &SimConfig,
    stack: PolicyStack,
    rec: R,
) -> (SimReport, R) {
    let mut orch = Orchestrator::for_trace(trace, config, stack, rec);
    let mut events = EventQueue::new();
    for (i, inv) in trace.invocations().iter().enumerate() {
        events.push(inv.arrival, Event::Arrival(RequestId(i as u64)));
    }
    if !trace.is_empty() {
        events.push(TimePoint::ZERO + config.tick, Event::Tick);
    }
    orch.schedule_crashes(&mut events);
    while let Some((now, event)) = events.pop() {
        orch.handle(now, event, &mut events);
        if event == Event::Tick && orch.unserved() > 0 {
            if events.is_empty() {
                // The tick chain is all that's left: nothing in flight
                // can complete, so deferred placements are the last
                // possible source of progress (tick evictions may have
                // freed room with no other event to notice it).
                orch.retry_deferred(&mut events);
            }
            assert!(
                !events.is_empty(),
                "simulation is stuck: {} unserved request(s) but no actionable events remain",
                orch.unserved()
            );
            events.push(now + config.tick, Event::Tick);
        }
    }
    assert_eq!(
        orch.unserved(),
        0,
        "simulation drained events with unserved requests"
    );
    orch.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::PolicyCtx;
    use crate::container::ContainerInfo;
    use crate::policy::{AlwaysCold, KeepAlive, ScaleDecision, Scaler, StartClass};
    use crate::request::RequestInfo;
    use faas_trace::{FunctionId, FunctionProfile, Invocation, TimeDelta};

    /// LRU keep-alive used as the test harness policy.
    #[derive(Debug, Default)]
    struct TestLru;

    impl KeepAlive for TestLru {
        fn name(&self) -> &str {
            "test-lru"
        }
        fn priority(&self, c: &ContainerInfo, _ctx: &PolicyCtx<'_>) -> f64 {
            c.last_used.as_micros() as f64
        }
    }

    /// Scaler that always races (basic speculative scaling).
    #[derive(Debug, Default)]
    struct AlwaysRace;

    impl Scaler for AlwaysRace {
        fn name(&self) -> &str {
            "race"
        }
        fn on_blocked(&mut self, _r: &RequestInfo, _c: &PolicyCtx<'_>) -> ScaleDecision {
            ScaleDecision::Race
        }
    }

    /// Scaler that always waits for a busy container.
    #[derive(Debug, Default)]
    struct AlwaysWait;

    impl Scaler for AlwaysWait {
        fn name(&self) -> &str {
            "wait"
        }
        fn on_blocked(&mut self, _r: &RequestInfo, _c: &PolicyCtx<'_>) -> ScaleDecision {
            ScaleDecision::WaitWarm
        }
    }

    fn stack(scaler: Box<dyn Scaler + Send>) -> PolicyStack {
        PolicyStack::new(Box::new(TestLru), scaler)
    }

    fn one_fn_trace(arrivals_ms: &[u64], exec_ms: u64, cold_ms: u64, mem: u32) -> Trace {
        let f = FunctionProfile::new(FunctionId(0), "f", mem, TimeDelta::from_millis(cold_ms));
        let invs = arrivals_ms
            .iter()
            .map(|&ms| Invocation {
                func: FunctionId(0),
                arrival: TimePoint::from_millis(ms),
                exec: TimeDelta::from_millis(exec_ms),
            })
            .collect();
        Trace::new(vec![f], invs).expect("valid")
    }

    fn cfg(mb: u64) -> SimConfig {
        SimConfig::default().workers_mb(vec![mb])
    }

    #[test]
    fn sequential_requests_warm_start() {
        // Req0 at 0 (cold, waits 100ms), req1 at 500ms reuses warm idle.
        let trace = one_fn_trace(&[0, 500], 50, 100, 128);
        let report = run(&trace, &cfg(1024), stack(Box::new(AlwaysCold)));
        assert_eq!(report.requests.len(), 2);
        let r0 = &report.requests[0];
        let r1 = &report.requests[1];
        assert_eq!(r0.class, StartClass::Cold);
        assert_eq!(r0.wait, TimeDelta::from_millis(100));
        assert_eq!(r1.class, StartClass::Warm);
        assert_eq!(r1.wait, TimeDelta::ZERO);
        assert_eq!(report.containers_created, 1);
    }

    #[test]
    fn concurrent_requests_vanilla_double_cold() {
        let trace = one_fn_trace(&[0, 0], 50, 100, 128);
        let report = run(&trace, &cfg(1024), stack(Box::new(AlwaysCold)));
        assert_eq!(report.count(StartClass::Cold), 2);
        assert!(report
            .requests
            .iter()
            .all(|r| r.wait == TimeDelta::from_millis(100)));
        assert_eq!(report.containers_created, 2);
    }

    #[test]
    fn race_prefers_freed_busy_container_when_faster() {
        // Exec 50ms << cold 500ms: the second request should win the race
        // via the busy container freeing at t=550 (cold start at t=0 took
        // 500ms; first exec runs 500..550; second waits 0->550? No:
        // req1 arrives at t=0 too; req0 cold starts, runs 500..550.
        // req1 races: provision (done at 500) vs busy. Provision handles
        // req1 at t=500 as Cold -- both pending served FIFO by provisions.
        // Use arrivals 0 and 510 instead: req1 arrives while c0 busy
        // (500..560); race provision would finish at 1010; c0 frees at 560.
        let trace = one_fn_trace(&[0, 510], 60, 500, 128);
        let report = run(&trace, &cfg(1024), stack(Box::new(AlwaysRace)));
        let r1 = &report.requests[1];
        assert_eq!(r1.class, StartClass::DelayedWarm);
        assert_eq!(r1.wait, TimeDelta::from_millis(50)); // 560 - 510
                                                         // The raced container was still created and ends up unused.
        assert_eq!(report.containers_created, 2);
    }

    #[test]
    fn race_falls_back_to_cold_when_faster() {
        // Exec 10s >> cold 100ms: the raced provision wins.
        let trace = one_fn_trace(&[0, 10], 10_000, 100, 128);
        let report = run(&trace, &cfg(1024), stack(Box::new(AlwaysRace)));
        let r1 = &report.requests[1];
        assert_eq!(r1.class, StartClass::Cold);
        assert_eq!(r1.wait, TimeDelta::from_millis(100));
    }

    #[test]
    fn wait_warm_escalates_without_containers() {
        // First-ever request with a WaitWarm scaler must still provision.
        let trace = one_fn_trace(&[0], 10, 100, 128);
        let report = run(&trace, &cfg(1024), stack(Box::new(AlwaysWait)));
        assert_eq!(report.requests[0].class, StartClass::Cold);
    }

    #[test]
    fn wait_warm_queues_on_busy() {
        let trace = one_fn_trace(&[0, 10, 20], 100, 50, 128);
        let report = run(&trace, &cfg(1024), stack(Box::new(AlwaysWait)));
        // r0 cold (50ms), runs 50..150. r1 waits -> 150 (140ms wait).
        // r2 waits -> 250.
        assert_eq!(report.requests[1].class, StartClass::DelayedWarm);
        assert_eq!(report.requests[1].wait, TimeDelta::from_millis(140));
        assert_eq!(report.requests[2].class, StartClass::DelayedWarm);
        assert_eq!(report.requests[2].wait, TimeDelta::from_millis(230));
        assert_eq!(report.containers_created, 1);
    }

    #[test]
    fn eviction_makes_room_for_new_function() {
        // Worker fits one 600 MB container; two functions alternate.
        let f0 = FunctionProfile::new(FunctionId(0), "a", 600, TimeDelta::from_millis(100));
        let f1 = FunctionProfile::new(FunctionId(1), "b", 600, TimeDelta::from_millis(100));
        let invs = vec![
            Invocation {
                func: FunctionId(0),
                arrival: TimePoint::ZERO,
                exec: TimeDelta::from_millis(10),
            },
            Invocation {
                func: FunctionId(1),
                arrival: TimePoint::from_millis(500),
                exec: TimeDelta::from_millis(10),
            },
        ];
        let trace = Trace::new(vec![f0, f1], invs).expect("valid");
        let report = run(&trace, &cfg(1000), stack(Box::new(AlwaysCold)));
        assert_eq!(report.count(StartClass::Cold), 2);
        assert_eq!(report.containers_evicted, 1);
    }

    #[test]
    fn provision_defers_until_memory_frees() {
        // Worker fits one container; both requests concurrent: second
        // provision must wait for the first container to go idle & be
        // evicted... but an idle container can serve fn0 request directly.
        // Use two functions so reuse is impossible.
        let f0 = FunctionProfile::new(FunctionId(0), "a", 600, TimeDelta::from_millis(100));
        let f1 = FunctionProfile::new(FunctionId(1), "b", 600, TimeDelta::from_millis(100));
        let invs = vec![
            Invocation {
                func: FunctionId(0),
                arrival: TimePoint::ZERO,
                exec: TimeDelta::from_millis(300),
            },
            Invocation {
                func: FunctionId(1),
                arrival: TimePoint::from_millis(10),
                exec: TimeDelta::from_millis(10),
            },
        ];
        let trace = Trace::new(vec![f0, f1], invs).expect("valid");
        let report = run(&trace, &cfg(1000), stack(Box::new(AlwaysCold)));
        // fn1's provision can only start once fn0's container idles at
        // t=400 (100 cold + 300 exec) and is evicted; provision done 500.
        let r1 = &report.requests[1];
        assert_eq!(r1.class, StartClass::Cold);
        assert_eq!(r1.wait, TimeDelta::from_millis(490));
        assert_eq!(report.requests.len(), 2);
    }

    #[test]
    fn multithread_container_serves_concurrently() {
        let trace = one_fn_trace(&[0, 110], 1_000, 100, 128);
        let config = cfg(1024).container_threads(2);
        let report = run(&trace, &config, stack(Box::new(AlwaysCold)));
        // r0 cold; container warm at 100 with 2 threads; r1 at 110 takes
        // the free thread -> warm.
        assert_eq!(report.requests[1].class, StartClass::Warm);
        assert_eq!(report.requests[1].wait, TimeDelta::ZERO);
        assert_eq!(report.containers_created, 1);
    }

    #[test]
    fn all_requests_complete_and_classified() {
        let trace = one_fn_trace(&[0, 1, 2, 3, 4, 100, 200, 1000], 20, 50, 128);
        let report = run(&trace, &cfg(512), stack(Box::new(AlwaysRace)));
        assert_eq!(report.requests.len(), 8);
        let sum = report.count(StartClass::Warm)
            + report.count(StartClass::Cold)
            + report.count(StartClass::DelayedWarm);
        assert_eq!(sum, 8);
    }

    #[test]
    fn wasted_cold_start_counted() {
        // Race triggers a provision, busy container wins, extra container
        // idles unused; force its eviction via a third function's demand.
        let f0 = FunctionProfile::new(FunctionId(0), "a", 400, TimeDelta::from_millis(500));
        let f1 = FunctionProfile::new(FunctionId(1), "b", 400, TimeDelta::from_millis(100));
        let invs = vec![
            Invocation {
                func: FunctionId(0),
                arrival: TimePoint::ZERO,
                exec: TimeDelta::from_millis(50),
            },
            Invocation {
                func: FunctionId(0),
                arrival: TimePoint::from_millis(510),
                exec: TimeDelta::from_millis(50),
            },
            // fn1 demand evicts the unused speculative container.
            Invocation {
                func: FunctionId(1),
                arrival: TimePoint::from_secs(5),
                exec: TimeDelta::from_millis(10),
            },
        ];
        let trace = Trace::new(vec![f0, f1], invs).expect("valid");
        // 1000 MB: fn0 warm (400) + speculative fn0 (400) = 800; fn1 needs
        // 400 -> evicts one fn0 container (LRU = the unused one, which has
        // the older last_used timestamp... the unused one's last_used is
        // its creation time 510 < reused one's 560). Victim = speculative.
        let report = run(&trace, &cfg(1000), stack(Box::new(AlwaysRace)));
        assert_eq!(report.wasted_cold_starts, 1);
    }

    #[test]
    fn deterministic_runs() {
        let trace = faas_trace::gen::fc(3).functions(10).minutes(1).build();
        let a = run(&trace, &cfg(2048), stack(Box::new(AlwaysRace)));
        let b = run(&trace, &cfg(2048), stack(Box::new(AlwaysRace)));
        assert_eq!(a.requests, b.requests);
        assert_eq!(a.containers_created, b.containers_created);
    }

    #[test]
    #[should_panic(expected = "exceeds the largest worker")]
    fn oversized_function_rejected() {
        let trace = one_fn_trace(&[0], 10, 10, 4096);
        let _ = run(&trace, &cfg(1000), stack(Box::new(AlwaysCold)));
    }
}
