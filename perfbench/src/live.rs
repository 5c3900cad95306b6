//! The live workload: `FaasHost` under open-loop Poisson load.
//!
//! One sender thread invokes on a seeded schedule and one collector
//! thread waits for the outcomes in send order. Each request is timed
//! from the instant it was due, so a stalled sender or host charges its
//! delay to every request behind it. The offered rate starts at 8k
//! req/s and doubles until a rate misses the limit, then bisects
//! between the last rate that met it and the first that did not.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{mpsc, Arc};
// lint:allow(W1): the benchmark times the program from outside
use std::time::{Duration, Instant};

use cidre_core::{cidre_stack, CidreConfig};
use faas_live::{FaasHost, Handler, InvokeHandle, LiveConfig};
use faas_obs::TraceLog;
use faas_sim::{SimConfig, SimReport, StartClass};
use faas_testkit::rng::splitmix64;
use faas_testkit::{Arrivals, Rng};
use faas_trace::{FunctionId, FunctionProfile, Invocation, TimeDelta, TimePoint, Trace};

use crate::alloc;
use crate::stats::{median, quantile, Clock, Outcome};
use crate::timed::{self, HookStats, HOOKS};

const FUNCTIONS: u32 = 16;
const MEM_MB: u32 = 256;
const PAYLOAD_BYTES: usize = 64;
const HANDLER_SLEEP: Duration = Duration::from_millis(1);
/// Simulated provisioning latency; 3 ms real at the 0.01 time scale.
const COLD_START_MS: u64 = 300;
const TIME_SCALE: f64 = 0.01;
/// A rate meets the limit when p99 latency stays within this many ms...
const P99_LIMIT_MS: f64 = 20.0;
/// ...no request fails, and at least this share completes in the phase.
const MIN_COMPLETED: f64 = 0.98;
const START_RATE: f64 = 8_000.0;
/// The doubling stops here even if every rate met the limit.
const MAX_RATE: f64 = 512_000.0;
/// Bisection ends when the bracket is this narrow relative to its low end.
const BISECT_TOLERANCE: f64 = 0.05;
/// Phases per run the time budget is split over: about four doublings,
/// four bisection steps and the retries host stalls cost.
const PHASES: u32 = 12;
/// Simulated twins of the 32k req/s schedule behind the modelled metrics.
const TWINS: u64 = 32;
/// Invocations per function before each phase, so phases start warm.
const WARMUP_PER_FUNCTION: u64 = 4;

/// Handler start and end instants, in nanoseconds since `base`,
/// indexed by request; written by the traced run's handlers.
struct Stamps {
    // lint:allow(W1): the benchmark times the program from outside
    base: Instant,
    start: Vec<AtomicU64>,
    end: Vec<AtomicU64>,
}

impl Stamps {
    // lint:allow(W1): the benchmark times the program from outside
    fn new(base: Instant, n: usize) -> Self {
        Self {
            base,
            start: (0..n).map(|_| AtomicU64::new(0)).collect(),
            end: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }
}

/// Request `idx`'s payload: its index, then bytes drawn from the seed.
fn payload(seed: u64, idx: u64) -> Vec<u8> {
    let mut state = seed ^ idx.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut p = idx.to_le_bytes().to_vec();
    while p.len() < PAYLOAD_BYTES {
        p.extend_from_slice(&splitmix64(&mut state).to_le_bytes());
    }
    p
}

fn deployments(stamps: Option<Arc<Stamps>>) -> Vec<(FunctionProfile, Handler)> {
    (0..FUNCTIONS)
        .map(|f| {
            let profile = FunctionProfile::new(
                FunctionId(f),
                format!("echo{f}"),
                MEM_MB,
                TimeDelta::from_millis(COLD_START_MS),
            );
            let stamps = stamps.clone();
            let handler: Handler = Arc::new(move |input: Vec<u8>| {
                let idx = u64::from_le_bytes(input[..8].try_into().expect("8-byte index"));
                // Warm-up requests have no slot.
                let slot = stamps.as_ref().filter(|s| (idx as usize) < s.start.len());
                if let Some(s) = slot {
                    s.start[idx as usize].store(s.now(), Relaxed);
                }
                std::thread::sleep(HANDLER_SLEEP);
                if let Some(s) = slot {
                    s.end[idx as usize].store(s.now(), Relaxed);
                }
                input
            });
            (profile, handler)
        })
        .collect()
}

/// What the collector saw for one request.
struct Seen {
    /// Due instant to outcome received, in ns; `None` if no outcome or
    /// a wrong one.
    latency_ns: Option<u64>,
    received_ns: u64,
    class: Option<StartClass>,
    reported_wait_ms: f64,
}

/// One phase at one offered rate.
struct Phase {
    rate: f64,
    passed: bool,
    p50_ms: f64,
    setup_s: f64,
    heap_mb: f64,
    report: SimReport,
    /// The recorder's events, for a phase run with recording on.
    log: Option<TraceLog>,
    metrics: Vec<(String, f64, &'static str)>,
}

/// A phase's inputs: due instants (µs from the phase start) and the
/// function of each request, a pure function of the seed and the rate.
struct Schedule {
    due_us: Vec<u64>,
    funcs: Vec<u32>,
}

fn schedule(seed: u64, rate: f64, phase_secs: f64) -> Schedule {
    let mut mix = seed ^ (rate as u64).rotate_left(32);
    let window_us = (phase_secs * 1e6) as u64;
    let due_us: Vec<u64> = Arrivals::poisson(splitmix64(&mut mix), rate)
        .take_while(|&t| t < window_us)
        .collect();
    let mut rng = Rng::seed_from_u64(splitmix64(&mut mix));
    let funcs = due_us
        .iter()
        .map(|_| rng.zipf(FUNCTIONS as usize, 1.0) as u32)
        .collect();
    Schedule { due_us, funcs }
}

fn config() -> LiveConfig {
    LiveConfig::default()
        .time_scale(TIME_SCALE)
        .sim(SimConfig::with_cache_gb(100))
}

/// What every phase of one run shares.
struct Run {
    clock: Clock,
    seed: u64,
    phase_secs: f64,
    /// Hook statistics, in the traced run only.
    hooks: Option<Arc<HookStats>>,
}

/// Runs one phase; `name` labels its per-layer metrics, and `record`
/// turns the host's recorder on.
fn phase(out: &mut Outcome, run: &Run, rate: f64, name: &str, record: bool) -> Phase {
    let Run {
        clock,
        seed,
        phase_secs,
        hooks,
    } = run;
    let (seed, phase_secs, hooks) = (*seed, *phase_secs, hooks.as_ref());
    // lint:allow(W1): the benchmark times the program from outside
    let t_gen = Instant::now();
    let Schedule { due_us, funcs } = schedule(seed, rate, phase_secs);
    let gen_s = t_gen.elapsed().as_secs_f64();
    let n = due_us.len();

    // Set-up: host start and warm-up.
    // lint:allow(W1): the benchmark times the program from outside
    let t_setup = Instant::now();
    // lint:allow(W1): the benchmark times the program from outside
    let stamps = hooks.map(|_| Arc::new(Stamps::new(Instant::now(), n)));
    let stack = cidre_stack(CidreConfig::default());
    let stack = match hooks {
        Some(h) => timed::decorate(stack, h),
        None => stack,
    };
    let host = if record {
        FaasHost::start_traced(config(), stack, deployments(stamps.clone()))
    } else {
        FaasHost::start(config(), stack, deployments(stamps.clone()))
    };
    let warm: Vec<(u64, InvokeHandle)> = (0..u64::from(FUNCTIONS) * WARMUP_PER_FUNCTION)
        .map(|k| {
            let idx = n as u64 + k;
            let f = FunctionId((k % u64::from(FUNCTIONS)) as u32);
            (idx, host.invoke(f, payload(seed, idx)))
        })
        .collect();
    let warm_n = warm.len() as u64;
    for (idx, h) in warm {
        if h.wait().map(|o| o.output) != Some(payload(seed, idx)) {
            out.fail(1, format!("{name}: warm-up request {idx} lost or wrong"));
        }
    }
    let setup_s = t_setup.elapsed().as_secs_f64();
    out.span(&format!("live setup {name}"), clock, t_setup, None);

    // The open loop: one sender, one collector. Once more than 1% of
    // the phase's requests are late the phase has missed the limit,
    // and the collector stops the sender, so overload stays short.
    let mut invoke_ns = vec![0u64; n];
    let mut late_ns = vec![0u64; n];
    let mut seen: Vec<Seen> = Vec::with_capacity(n);
    let stop = AtomicBool::new(false);
    let late_budget = n / 100;
    let (tx, rx) = mpsc::channel::<(usize, InvokeHandle)>();
    let heap = alloc::mark();
    // lint:allow(W1): the benchmark times the program from outside
    let t_run = Instant::now();
    let base = t_run + Duration::from_millis(2);
    let limit_ns = (P99_LIMIT_MS * 1e6) as u64;
    let (host, sent) = std::thread::scope(|s| {
        s.spawn(|| {
            let mut late = 0;
            for (i, h) in rx {
                let outcome = h.wait();
                let received_ns = base.elapsed().as_nanos() as u64;
                let ok = outcome
                    .as_ref()
                    .is_some_and(|o| o.output == payload(seed, i as u64));
                let latency_ns = ok.then(|| received_ns.saturating_sub(due_us[i] * 1000));
                if latency_ns.is_none_or(|l| l > limit_ns) {
                    late += 1;
                    if late > late_budget {
                        stop.store(true, Relaxed);
                    }
                }
                seen.push(Seen {
                    latency_ns,
                    received_ns,
                    class: outcome.as_ref().map(|o| o.class),
                    reported_wait_ms: outcome.map_or(f64::NAN, |o| o.wait.as_millis_f64()),
                });
            }
        });
        let sender = s.spawn(|| {
            let mut sent = 0;
            for i in 0..n {
                if stop.load(Relaxed) {
                    break;
                }
                let due = base + Duration::from_micros(due_us[i]);
                // lint:allow(W1): the benchmark times the program from outside
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                // lint:allow(W1): the benchmark times the program from outside
                let t0 = Instant::now();
                late_ns[i] = t0.saturating_duration_since(due).as_nanos() as u64;
                let h = host.invoke(FunctionId(funcs[i]), payload(seed, i as u64));
                invoke_ns[i] = t0.elapsed().as_nanos() as u64;
                tx.send((i, h)).expect("collector outlives the sender");
                sent += 1;
            }
            drop(tx);
            (host, sent)
        });
        sender.join().expect("sender thread")
    });
    let run_wall = t_run.elapsed().as_secs_f64();
    let run_span = out.span(&format!("live phase {name}"), clock, t_run, None);
    let (allocs, alloc_bytes, heap_peak) = alloc::since(heap);

    // lint:allow(W1): the benchmark times the program from outside
    let t_shut = Instant::now();
    let (report, log) = if record {
        let (report, log) = host.shutdown_traced();
        (report, Some(log))
    } else {
        (host.shutdown(), None)
    };
    let shutdown_s = t_shut.elapsed().as_secs_f64();
    out.span("FaasHost::shutdown", clock, t_shut, Some(run_span));

    // Outcome checks: one right outcome per invoke, one record each.
    out.attempted += sent as u64 + warm_n;
    let wrong = seen.iter().filter(|s| s.latency_ns.is_none()).count() as u64;
    if wrong > 0 {
        out.fail(wrong, format!("{name}: {wrong} requests lost or wrong"));
    }
    if seen.len() != sent {
        out.fail(
            sent.abs_diff(seen.len()) as u64,
            format!("{name}: {} outcomes for {sent} invokes", seen.len()),
        );
    }
    let expect = sent as u64 + warm_n;
    if report.requests.len() as u64 != expect {
        out.fail(
            expect.abs_diff(report.requests.len() as u64).max(1),
            format!(
                "{name}: shutdown reported {} records for {expect} invokes",
                report.requests.len()
            ),
        );
    }

    // Latency over the whole schedule: a request never sent, lost or
    // wrong counts as missing every limit.
    let mut lat_ms: Vec<f64> = seen
        .iter()
        .map(|s| s.latency_ns.map_or(f64::INFINITY, |ns| ns as f64 / 1e6))
        .chain(std::iter::repeat_n(f64::INFINITY, n - seen.len()))
        .collect();
    let p50_ms = quantile(&mut lat_ms, 0.5);
    let p99_ms = quantile(&mut lat_ms, 0.99);
    let p999_ms = quantile(&mut lat_ms, 0.999);
    let end_ns = due_us.last().copied().unwrap_or(0) * 1000 + limit_ns;
    let completed = seen
        .iter()
        .filter(|s| s.latency_ns.is_some() && s.received_ns <= end_ns)
        .count();
    let completed_frac = completed as f64 / n.max(1) as f64;
    let passed =
        wrong == 0 && sent == n && p99_ms <= P99_LIMIT_MS && completed_frac >= MIN_COMPLETED;

    let mut metrics = Vec::new();
    let mut m = |key: &str, v: f64, unit: &'static str| {
        metrics.push((format!("live.{key}.{name}"), v, unit))
    };
    m("offered", n as f64, "count");
    m("sent", sent as f64, "count");
    m("p50_ms", p50_ms, "ms");
    m("p99_ms", p99_ms, "ms");
    m("p999_ms", p999_ms, "ms");
    m("completed_frac", completed_frac, "fraction");
    m("completed_per_s", completed as f64 / run_wall, "req/s");
    let mut inv: Vec<f64> = invoke_ns[..sent]
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    m("invoke_us.p50", quantile(&mut inv, 0.5), "us");
    m("invoke_us.p99", quantile(&mut inv, 0.99), "us");
    let mut late: Vec<f64> = late_ns[..sent].iter().map(|&ns| ns as f64 / 1e6).collect();
    m("gen_late_ms.p99", quantile(&mut late, 0.99), "ms");
    m(
        "gen_late_ms.max",
        late.iter().copied().fold(0.0, f64::max),
        "ms",
    );
    for (key, class) in [
        ("warm", StartClass::Warm),
        ("delayed_warm", StartClass::DelayedWarm),
        ("cold", StartClass::Cold),
    ] {
        let count = seen.iter().filter(|s| s.class == Some(class)).count();
        m(key, count as f64, "count");
    }
    let mut wait: Vec<f64> = seen
        .iter()
        .map(|s| s.reported_wait_ms)
        .filter(|w| w.is_finite())
        .collect();
    m("reported_wait_ms.p99", quantile(&mut wait, 0.99), "ms");
    m("shutdown_s", shutdown_s, "s");
    m("setup_s", setup_s, "s");
    m("gen_s", gen_s, "s");
    m("wall_s", run_wall, "s");
    m("allocs", allocs as f64, "count");
    m("alloc_bytes", alloc_bytes as f64, "B");
    if let Some(st) = &stamps {
        let base_ns = base.duration_since(st.base).as_nanos() as u64;
        let mut dispatch = Vec::with_capacity(n);
        let mut reply = Vec::with_capacity(n);
        for (i, s) in seen.iter().enumerate() {
            let (start, end) = (st.start[i].load(Relaxed), st.end[i].load(Relaxed));
            if start == 0 || end == 0 {
                continue;
            }
            dispatch.push(start.saturating_sub(base_ns + due_us[i] * 1000) as f64 / 1e6);
            reply.push((base_ns + s.received_ns).saturating_sub(end) as f64 / 1e6);
        }
        m("dispatch_ms.p50", quantile(&mut dispatch, 0.5), "ms");
        m("dispatch_ms.p99", quantile(&mut dispatch, 0.99), "ms");
        m("reply_ms.p50", quantile(&mut reply, 0.5), "ms");
        m("reply_ms.p99", quantile(&mut reply, 0.99), "ms");
    }
    out.notes.push(format!(
        "live {name}: sent {sent}/{n}, p50 {p50_ms:.3} ms, p99 {p99_ms:.3} ms, \
         completed {completed_frac:.4}: {}",
        if passed {
            "meets the limit"
        } else {
            "misses the limit"
        }
    ));
    Phase {
        rate,
        passed,
        p50_ms,
        setup_s,
        heap_mb: heap_peak as f64 / (1024.0 * 1024.0),
        report,
        log,
        metrics,
    }
}

/// The modelled outcome of the live workload: `TWINS` schedules at
/// 32k req/s, drawn from the seed like the live phases, replayed
/// through the simulator with the live host's stack, profiles and
/// cluster. Exact for a given seed; the mean over the schedules, as
/// the cold starts of one short schedule are too few to be steady.
fn modelled(seed: u64, phase_secs: f64) -> [f64; 3] {
    let mut sums = [0.0; 3];
    let mut mix = seed;
    for _ in 0..TWINS {
        let Schedule { due_us, funcs } = schedule(splitmix64(&mut mix), 32_000.0, phase_secs);
        let profiles = (0..FUNCTIONS)
            .map(|f| {
                FunctionProfile::new(
                    FunctionId(f),
                    format!("echo{f}"),
                    MEM_MB,
                    TimeDelta::from_millis(COLD_START_MS),
                )
            })
            .collect();
        let exec = TimeDelta::from_micros((HANDLER_SLEEP.as_secs_f64() / TIME_SCALE * 1e6) as u64);
        let invocations = due_us
            .iter()
            .zip(&funcs)
            .map(|(&due, &f)| Invocation {
                func: FunctionId(f),
                arrival: TimePoint::from_micros((due as f64 / TIME_SCALE) as u64),
                exec,
            })
            .collect();
        let trace = Trace::new(profiles, invocations).expect("every invocation has a profile");
        let report = faas_sim::run(&trace, &config().sim, cidre_stack(CidreConfig::default()));
        sums[0] += 100.0 * report.ratio(StartClass::Cold);
        sums[1] += 100.0 * report.avg_overhead_ratio();
        sums[2] += report.gb_s_per_request();
    }
    sums.map(|s| s / TWINS as f64)
}

pub fn run_workload(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let run = Run {
        // lint:allow(W1): the benchmark times the program from outside
        clock: Clock(Instant::now()),
        seed,
        phase_secs: seconds as f64 / f64::from(PHASES),
        hooks: traced.then(|| Arc::new(HookStats::default())),
    };
    let clock = &run.clock;
    let mut out = Outcome::default();
    let mut phases: Vec<Phase> = Vec::new();
    // A rate meets the limit if one of three tries does, so that one
    // host stall does not end the schedule.
    let meets = |out: &mut Outcome, phases: &mut Vec<Phase>, rate: f64| {
        for attempt in ["", ".retry1", ".retry2"] {
            let name = format!("r{}{attempt}", rate as u64);
            let p = phase(out, &run, rate, &name, false);
            let passed = p.passed;
            phases.push(p);
            if passed {
                return true;
            }
        }
        false
    };

    // Double until a rate misses the limit, then bisect.
    let mut lo = None;
    let mut hi = None;
    let mut rate = START_RATE;
    while rate <= MAX_RATE {
        if meets(&mut out, &mut phases, rate) {
            lo = Some(rate);
            rate *= 2.0;
        } else {
            hi = Some(rate);
            break;
        }
    }
    if let (Some(mut l), Some(mut h)) = (lo, hi) {
        while (h - l) / l > BISECT_TOLERANCE {
            let mid = ((l + h) / 2.0).round();
            if meets(&mut out, &mut phases, mid) {
                l = mid;
            } else {
                h = mid;
            }
        }
        lo = Some(l);
    }
    // The fixed-rate latencies, even when the schedule stopped below them.
    for fixed in [8_000.0, 32_000.0] {
        if !phases.iter().any(|p| p.rate == fixed) {
            meets(&mut out, &mut phases, fixed);
        }
    }
    // The last try at a rate is the one that counts.
    let at = |r: f64| {
        phases
            .iter()
            .rev()
            .find(|p| p.rate == r)
            .expect("fixed rates ran")
    };
    let (r8k, r32k) = (at(8_000.0), at(32_000.0));
    // lint:allow(W1): the benchmark times the program from outside

    let t0 = Instant::now();
    let [cold_pct, overhead_pct, gb_s] = modelled(seed, run.phase_secs);
    out.span("faas_sim::run (modelled r32000)", clock, t0, None);
    out.push("live_max_rps", lo.unwrap_or(0.0), "req/s");
    out.push("live_p50_ms.r8k", r8k.p50_ms, "ms");
    out.push("live_p50_ms.r32k", r32k.p50_ms, "ms");
    out.push("peak_heap_mb", r32k.heap_mb, "MB");
    out.push("cold_pct", cold_pct, "%");
    out.push("overhead_ratio_pct", overhead_pct, "%");
    out.push("gb_s_per_req", gb_s, "GB.s");
    let mut setup: Vec<f64> = phases.iter().map(|p| p.setup_s).collect();
    out.push("setup_s", median(&mut setup), "s");
    out.push("phases", phases.len() as f64, "count");

    if let Some(stats) = &run.hooks {
        // The recorder's output, from one more 32k req/s phase.
        phases.push(phase(&mut out, &run, 32_000.0, "r32000.recorded", true));
        layer_metrics(&mut out, clock, &phases, stats);
    }
    out
}

/// Per-layer metrics of the traced run: every phase's live breakdown,
/// plus the layers the live host shares with the simulator.
fn layer_metrics(out: &mut Outcome, clock: &Clock, phases: &[Phase], stats: &HookStats) {
    let sum = |key: &str| -> f64 {
        phases
            .iter()
            .flat_map(|p| p.metrics.iter())
            .filter(|(name, _, _)| name.starts_with(&format!("live.{key}.r")))
            .map(|(_, v, _)| v)
            .sum()
    };
    let requests = sum("offered");
    out.push("trace.gen_s", sum("gen_s"), "s");
    out.push("trace.requests", requests, "count");
    out.push("trace.functions", f64::from(FUNCTIONS), "count");

    let cal = timed::calibrate();
    out.push("trace.timed_call_ns", cal.outer_ns, "ns");
    let mut policy_ns = 0.0;
    for (h, hook) in HOOKS.iter().enumerate() {
        let calls = stats.calls(h);
        let self_ns = (stats.nanos(h) as f64 - calls as f64 * cal.inner_ns).max(0.0);
        policy_ns += self_ns;
        out.push(format!("policy.{hook}.calls"), calls as f64, "count");
        out.push(format!("policy.{hook}.self_ms"), self_ns / 1e6, "ms");
    }
    out.push("policy.calls", stats.total_calls() as f64, "count");
    out.push("policy.self_s", policy_ns / 1e9, "s");
    out.push("policy.share", policy_ns / 1e9 / sum("wall_s"), "fraction");
    let rounds: u64 = phases.iter().map(|p| p.report.ledger.replace_rounds).sum();
    out.push(
        "policy.priority_per_round",
        stats.priority_calls() as f64 / rounds.max(1) as f64,
        "count",
    );
    for (i, d) in ["cold", "wait_warm", "race", "enqueue"].iter().enumerate() {
        out.push(
            format!("policy.decision.{d}"),
            stats.decisions[i].load(Relaxed) as f64,
            "count",
        );
    }

    out.push("engine.allocs_per_req", sum("allocs") / requests, "count");
    out.push(
        "engine.alloc_bytes_per_req",
        sum("alloc_bytes") / requests,
        "B",
    );
    let total =
        |f: &dyn Fn(&SimReport) -> u64| phases.iter().map(|p| f(&p.report)).sum::<u64>() as f64;
    out.push(
        "engine.containers_created",
        total(&|r| r.containers_created),
        "count",
    );
    out.push(
        "engine.containers_evicted",
        total(&|r| r.containers_evicted),
        "count",
    );
    out.push(
        "engine.wasted_cold_starts",
        total(&|r| r.wasted_cold_starts),
        "count",
    );
    out.push("engine.replace_rounds", rounds as f64, "count");
    out.push(
        "engine.dispatches",
        total(&|r| r.ledger.dispatches),
        "count",
    );
    for (name, class) in [
        ("engine.warm", StartClass::Warm),
        ("engine.delayed_warm", StartClass::DelayedWarm),
        ("engine.cold", StartClass::Cold),
    ] {
        out.push(name, total(&|r| r.count(class)), "count");
    }

    let recorded = phases.last().expect("the recorded phase ran");
    let log = recorded.log.as_ref().expect("the last phase records");
    let n = recorded.report.requests.len() as f64;
    out.push("obs.events", log.len() as f64, "count");
    out.push("obs.events_per_req", log.len() as f64 / n, "count");
    // lint:allow(W1): the benchmark times the program from outside
    let t0 = Instant::now();
    let wfs = log.waterfalls();
    out.push("obs.waterfall_s", t0.elapsed().as_secs_f64(), "s");
    out.span("faas_obs::waterfalls", clock, t0, None);
    if wfs.len() as f64 != n {
        out.fail(
            (n as u64).abs_diff(wfs.len() as u64),
            format!("{} waterfalls for {n} live requests", wfs.len()),
        );
    }
    // lint:allow(W1): the benchmark times the program from outside
    let t0 = Instant::now();
    let chrome = log.to_chrome_json();
    out.push("obs.chrome_s", t0.elapsed().as_secs_f64(), "s");
    out.span("faas_obs::to_chrome_json", clock, t0, None);
    out.push(
        "obs.chrome_mb",
        chrome.len() as f64 / (1024.0 * 1024.0),
        "MB",
    );
    // lint:allow(W1): the benchmark times the program from outside

    let t0 = Instant::now();
    for p in phases {
        let wait = p.report.wait_cdf();
        let e2e = p.report.e2e_cdf();
        for q in [0.5, 0.99, 0.999] {
            std::hint::black_box((wait.quantile(q), e2e.quantile(q)));
        }
    }
    out.push("metrics.summary_s", t0.elapsed().as_secs_f64(), "s");
    out.span("faas_metrics::summary", clock, t0, None);

    for p in phases {
        for (name, v, unit) in &p.metrics {
            out.push(name.clone(), *v, unit);
        }
    }
}
