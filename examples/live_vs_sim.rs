//! Live-host vs simulator fidelity check: replay the same workload under
//! the same policy on both substrates and compare outcomes.
//!
//! The simulator runs in deterministic virtual time; the live host
//! ([`cidre::live`]) runs real threads against the wall clock with the
//! trace compressed 100x. Agreement between the two validates that the
//! reproduction's results are not artifacts of deterministic event
//! ordering.
//!
//! ```text
//! cargo run --release --example live_vs_sim
//! ```

use cidre::core::{cidre_stack, CidreConfig};
use cidre::live::{run_live, LiveConfig};
use cidre::policies::faascache_stack;
use cidre::sim::{run, PolicyStack, SimConfig, StartClass};
use cidre::trace::gen;

/// A named way of constructing a fresh policy stack for each host.
type Contender = (&'static str, fn() -> PolicyStack);

fn main() {
    let trace = gen::azure(21)
        .functions(10)
        .minutes(2)
        .rate_per_function(0.5)
        .build();
    let sim_cfg = SimConfig::with_cache_gb(6);
    let live_cfg = LiveConfig::default().sim(sim_cfg.clone()).time_scale(0.01);
    println!(
        "workload: {} requests / {} functions; live replay at 100x compression (~{:.1}s)\n",
        trace.len(),
        trace.functions().len(),
        trace.duration().as_secs_f64() * 0.01
    );

    println!(
        "{:<12} {:<6} {:>7} {:>9} {:>7} {:>12}",
        "policy", "host", "cold%", "delayed%", "warm%", "p90 wait[ms]"
    );
    let contenders: Vec<Contender> = vec![
        ("FaasCache", faascache_stack as fn() -> PolicyStack),
        ("CIDRE", || cidre_stack(CidreConfig::default())),
    ];
    for (name, mk) in contenders {
        let simulated = run(&trace, &sim_cfg, mk());
        let (live, _) = run_live(&trace, &live_cfg, mk());
        for (host, report) in [("sim", &simulated), ("live", &live)] {
            println!(
                "{:<12} {:<6} {:>6.1}% {:>8.1}% {:>6.1}% {:>12.1}",
                name,
                host,
                report.ratio(StartClass::Cold) * 100.0,
                report.ratio(StartClass::DelayedWarm) * 100.0,
                report.ratio(StartClass::Warm) * 100.0,
                report.wait_cdf().quantile(0.9),
            );
        }
    }
    println!(
        "\nsim and live agree up to wall-clock timing noise; sim is deterministic, live is not."
    );
}
