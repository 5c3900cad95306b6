//! Cross-crate failure-path integration: the full policy stacks (CIDRE
//! with CIP + CSS, CIDRE-BSS, FaasCache) replay a workload while the
//! fault plan fails provisions, stretches cold starts, and crashes
//! workers. Debug builds assert the engine's structural invariants
//! (memory accounting, request conservation, no orphaned bookkeeping)
//! after *every* event, so completing these runs at all is the core
//! assertion; the explicit checks pin the visible outcomes.

use cidre::core::{cidre_bss_stack, cidre_stack, CidreConfig};
use cidre::policies::faascache_stack;
use cidre::sim::{run, FaultPlan, PolicyStack, SimConfig, StartClass, WorkerId};
use cidre::trace::{gen, TimeDelta, TimePoint};

fn aggressive_faults() -> FaultPlan {
    FaultPlan::none()
        .seed(17)
        .provision_failures(0.3)
        .stragglers(0.2, 1.5, 20.0)
        .retry_backoff(TimeDelta::from_millis(50), TimeDelta::from_secs(2))
        .crash_worker(TimePoint::from_secs(20), WorkerId(0))
        .crash_worker(TimePoint::from_secs(45), WorkerId(1))
}

fn stacks() -> Vec<(&'static str, PolicyStack)> {
    vec![
        ("faascache", faascache_stack()),
        ("cidre-bss", cidre_bss_stack()),
        ("cidre", cidre_stack(CidreConfig::default())),
    ]
}

#[test]
fn every_stack_survives_aggressive_faults() {
    let trace = gen::azure(3).functions(12).minutes(2).build();
    let config = SimConfig::default()
        .workers_mb(vec![2_048, 2_048, 2_048])
        .faults(aggressive_faults());
    for (label, stack) in stacks() {
        let report = run(&trace, &config, stack);
        // Conservation: every request is served exactly once, through
        // retries, straggler stretches, and two worker crashes.
        assert_eq!(
            report.requests.len(),
            trace.len(),
            "{label} lost or duplicated requests"
        );
        assert!(
            report.provision_failures > 0,
            "{label}: p=0.3 must fail some provisions"
        );
        assert!(
            report.crash_evictions > 0,
            "{label}: two crashes must evict containers"
        );
        // Classes still partition the requests.
        let classified = report.count(StartClass::Warm)
            + report.count(StartClass::Cold)
            + report.count(StartClass::DelayedWarm);
        assert_eq!(
            classified,
            trace.len() as u64,
            "{label} left requests unclassified"
        );
    }
}

#[test]
fn faults_degrade_but_do_not_break_cidre() {
    // The same workload with and without faults: injected failures can
    // only add overhead, and the fault-free run must report clean
    // counters.
    let trace = gen::azure(11).functions(10).minutes(1).build();
    let healthy_cfg = SimConfig::default().workers_mb(vec![2_048, 2_048]);
    let faulty_cfg = SimConfig::default().workers_mb(vec![2_048, 2_048]).faults(
        FaultPlan::none()
            .seed(5)
            .provision_failures(0.4)
            .crash_worker(TimePoint::from_secs(20), WorkerId(0)),
    );
    let healthy = run(&trace, &healthy_cfg, cidre_stack(CidreConfig::default()));
    let faulty = run(&trace, &faulty_cfg, cidre_stack(CidreConfig::default()));
    assert_eq!(healthy.provision_failures, 0);
    assert_eq!(healthy.crash_evictions, 0);
    assert_eq!(faulty.requests.len(), trace.len());
    assert!(
        faulty.avg_overhead_ratio() >= healthy.avg_overhead_ratio(),
        "faults cannot reduce overhead: {} < {}",
        faulty.avg_overhead_ratio(),
        healthy.avg_overhead_ratio()
    );
}

#[test]
fn live_and_sim_agree_on_fault_counters() {
    // The live runtime mirrors the simulator's fault mechanics on real
    // threads. Wall-clock jitter reorders events, so reports differ in
    // timings — but both substrates must conserve requests under the
    // same crash schedule.
    let trace = gen::azure(13).functions(5).minutes(1).build();
    let sim_cfg = SimConfig::default()
        .workers_mb(vec![2_048, 2_048])
        .faults(FaultPlan::none().crash_worker(TimePoint::from_secs(30), WorkerId(0)));
    let sim_report = run(&trace, &sim_cfg, cidre_stack(CidreConfig::default()));
    let live_cfg = cidre::live::LiveConfig::default()
        .sim(sim_cfg)
        .time_scale(0.0005);
    let (live_report, _) =
        cidre::live::run_live(&trace, &live_cfg, cidre_stack(CidreConfig::default()));
    assert_eq!(sim_report.requests.len(), trace.len());
    assert_eq!(live_report.requests.len(), trace.len());
    assert!(sim_report.crash_evictions > 0);
    assert!(live_report.crash_evictions > 0);
}
