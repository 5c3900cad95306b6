//! End-to-end simulator throughput: requests simulated per second under
//! the CIDRE stack and the FaasCache baseline.

use std::hint::black_box;

use cidre_core::{cidre_stack, CidreConfig};
use faas_policies::faascache_stack;
use faas_sim::{run, ScanMode, SimConfig};
use faas_testkit::Harness;
use faas_trace::gen;

fn main() {
    let mut h = Harness::new("sim_throughput");
    let trace = gen::fc(1).functions(20).minutes(2).build();
    let config = SimConfig::default().workers_mb(vec![8_192]);
    h.samples(10);
    h.throughput_elems(trace.len() as u64);
    h.bench("replay/cidre", || {
        black_box(run(&trace, &config, cidre_stack(CidreConfig::default())));
    });
    h.throughput_elems(trace.len() as u64);
    h.bench("replay/faascache", || {
        black_box(run(&trace, &config, faascache_stack()));
    });

    // Large-N eviction-pressure scenario: 10k functions over one minute
    // (~93k requests, ~80k container lifetimes) against two 300 GB
    // workers, so each memory-pressure round sees an idle pool of ~1000
    // eviction candidates. This is the scenario the indexed hot paths
    // are sized for; the scenario is identical in smoke and full mode
    // (only sample counts differ) so baseline comparisons stay valid.
    let trace = gen::azure(7)
        .functions(10_000)
        .minutes(1)
        .rate_per_function(0.15)
        .build();
    let config = SimConfig::default().workers_mb(vec![307_200; 2]);
    h.samples(10);
    h.throughput_elems(trace.len() as u64);
    h.bench("replay/large_n", || {
        black_box(run(&trace, &config, faascache_stack()));
    });
    // The same scenario through the retained naive scans: the oracle the
    // differential tests compare against, and the denominator for the
    // indexed speedup that `bench_guard` enforces in CI.
    let reference = config.clone().scan_mode(ScanMode::Reference);
    h.samples(10);
    h.throughput_elems(trace.len() as u64);
    h.bench("replay/large_n_reference", || {
        black_box(run(&trace, &reference, faascache_stack()));
    });
    h.finish();
}
