//! The repository's benchmark: one command per workload run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fc_cidre --seed 42 --seconds 10 --trace 0
//! ```
//!
//! Prints every metric of the run as `name value unit` lines, then one
//! JSON object as the last line of standard output. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer ones; the traced
//! run also writes its spans and counts to
//! `.perfbench_out/<workload>-<seed>-trace.json`. The process exits
//! non-zero when an outcome check fails. See `perfbench/README.md`.

mod alloc;
mod live;
mod sim;
mod stats;
mod timed;

use std::fmt::Write as _;
use std::process::ExitCode;

use stats::{json_num, json_str, Outcome};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// End-to-end metrics as `BENCHMARK.json` names them, with the metric
/// each workload reports under that name (sim workloads, live).
const END_TO_END: [(&str, &str, &str); 7] = [
    ("req_per_s", "sim_req_per_s", "live_max_rps"),
    ("p50_ms", "p50_ms", "live_p50_ms.r32k"),
    ("peak_heap_mb", "peak_heap_mb", "peak_heap_mb"),
    ("cold_pct", "cold_pct", "cold_pct"),
    (
        "overhead_ratio_pct",
        "overhead_ratio_pct",
        "overhead_ratio_pct",
    ),
    ("gb_s_per_req", "gb_s_per_req", "gb_s_per_req"),
    ("setup_s", "setup_s", "setup_s"),
];

/// Per-layer metrics in `BENCHMARK.json`: the ones every workload
/// measures with the same meaning, leaving out self times too small to
/// tell from the timing calibration. The traced run prints the rest
/// too (engine self time, recorder overhead, per-phase live
/// breakdowns) and writes them to its trace file.
const PER_LAYER: [&str; 35] = [
    "trace.gen_s",
    "trace.requests",
    "trace.functions",
    "policy.calls",
    "policy.self_s",
    "policy.share",
    "policy.priority_per_round",
    "policy.on_blocked.calls",
    "policy.on_blocked.self_ms",
    "policy.on_start.calls",
    "policy.on_start.self_ms",
    "policy.on_reuse.calls",
    "policy.on_reuse.self_ms",
    "policy.on_admit.calls",
    "policy.on_admit.self_ms",
    "policy.on_evict.calls",
    "policy.on_evict.self_ms",
    "policy.priority.calls",
    "policy.priority.self_ms",
    "policy.expirations.calls",
    "policy.provision_latency.calls",
    "engine.allocs_per_req",
    "engine.alloc_bytes_per_req",
    "engine.containers_created",
    "engine.containers_evicted",
    "engine.replace_rounds",
    "engine.dispatches",
    "engine.warm",
    "engine.cold",
    "obs.events",
    "obs.events_per_req",
    "obs.waterfall_s",
    "obs.chrome_s",
    "obs.chrome_mb",
    "metrics.summary_s",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <fc_cidre|azure_faascache|live_open_loop> --seed N --seconds S --trace 0|1");
            return ExitCode::from(2);
        }
    };
    let (out, live) = match args.workload.as_str() {
        "fc_cidre" => (
            sim::run_workload(&sim::FC_CIDRE, args.seed, args.seconds, args.trace),
            false,
        ),
        "azure_faascache" => (
            sim::run_workload(&sim::AZURE_FAASCACHE, args.seed, args.seconds, args.trace),
            false,
        ),
        "live_open_loop" => (
            live::run_workload(args.seed, args.seconds, args.trace),
            true,
        ),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    report(&args, &out, live)
}

/// Prints every metric, writes the trace file, and prints the JSON
/// result line; non-zero exit on a failed check.
fn report(args: &Args, out: &Outcome, live: bool) -> ExitCode {
    let fail_frac = out.failed as f64 / out.attempted.max(1) as f64;
    for m in &out.metrics {
        println!("{} {} {} {}", args.workload, m.name, m.value, m.unit);
    }
    println!("{} fail_frac {fail_frac} fraction", args.workload);
    for note in &out.notes {
        eprintln!("perfbench: {note}");
    }
    for e in &out.errors {
        eprintln!("perfbench: check failed: {e}");
    }

    let mut metrics = Vec::new();
    if args.trace {
        if let Err(e) = write_trace(args, out) {
            eprintln!("perfbench: cannot write the trace file: {e}");
            return ExitCode::FAILURE;
        }
        for name in PER_LAYER {
            let m = out.metrics.iter().find(|m| m.name == name);
            metrics.push((name, m));
        }
    } else {
        for row in END_TO_END {
            let source = if live { row.2 } else { row.1 };
            let m = out.metrics.iter().find(|m| m.name == source);
            metrics.push((row.0, m));
        }
    }
    let mut missing = false;
    let mut body = String::new();
    for (name, m) in &metrics {
        let Some(m) = m.filter(|m| m.value.is_finite()) else {
            eprintln!("perfbench: metric {name} was not measured");
            missing = true;
            continue;
        };
        if !body.is_empty() {
            body.push_str(", ");
        }
        let _ = write!(
            body,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    let correct = out.failed == 0 && out.errors.is_empty() && !missing;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        out.attempted, out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Writes the run's spans and every metric to the trace file.
fn write_trace(args: &Args, out: &Outcome) -> std::io::Result<()> {
    let dir = std::path::Path::new(".perfbench_out");
    std::fs::create_dir_all(dir)?;
    let mut s = String::from("{\"spans\": [");
    for (i, sp) in out.spans.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = write!(
            s,
            "{{\"id\": {i}, \"name\": {}, \"start_us\": {}, \"end_us\": {}, \"parent\": {parent}}}",
            json_str(&sp.name),
            sp.start_us,
            sp.end_us
        );
    }
    s.push_str("], \"metrics\": {");
    for (i, m) in out.metrics.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            json_num(m.value),
            json_str(m.unit)
        );
    }
    s.push_str("}}\n");
    let path = dir.join(format!("{}-{}-trace.json", args.workload, args.seed));
    std::fs::write(path, s)
}
