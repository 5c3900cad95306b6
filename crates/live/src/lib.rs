//! A live mini-FaaS host: the same policies, real threads, real clocks.
//!
//! The paper implements CIDRE inside OpenLambda and measures a running
//! system; the rest of this workspace reproduces that with a
//! deterministic discrete-event simulator ([`faas_sim`]). This crate is
//! the bridge between the two: it executes a trace against the **wall
//! clock** — arrivals injected by a real-time driver, provisioning and
//! execution latencies realised as actual timed delays, and an
//! orchestrator task that reacts to events in whatever order the OS
//! delivers them.
//!
//! That orchestrator is the simulator's own [`faas_sim::Orchestrator`]:
//! this crate only drives it from the wall clock, so the same
//! [`faas_sim::PolicyStack`] makes the same decisions through the same
//! code in both hosts. Live runs double as a fidelity check for the
//! simulator: decisions here race against genuine asynchrony instead of
//! a deterministic virtual clock, and the resulting class ratios should
//! (and do — see the opt-in fidelity tests) agree with simulation up to
//! timing noise.
//!
//! Two modes are provided:
//!
//! * [`run_live`] — replay a [`faas_trace::Trace`] against the wall
//!   clock (execution latencies realised as timed delays).
//! * [`FaasHost`] — a programmable host: deploy real Rust handlers,
//!   invoke them from any thread, and receive outputs together with the
//!   warm / delayed-warm / cold outcome the policy produced.
//!
//! Time is compressed by [`LiveConfig::time_scale`] so a 30-minute trace
//! can replay in seconds; waits are reported in *simulated* time units
//! for direct comparison with [`faas_sim::SimReport`].
//!
//! Limitations relative to the simulator (documented, not hidden):
//! runs are **not deterministic** (that is the point), and timing
//! granularity is bounded by OS sleep precision, so heavily compressed
//! traces blur near-simultaneous events.
//!
//! # Examples
//!
//! ```
//! use faas_live::{run_live, LiveConfig};
//! use faas_sim::baseline_lru_stack;
//! use faas_trace::gen;
//!
//! let trace = gen::azure(3).functions(5).minutes(1).build();
//! // 1 simulated second = 1 real millisecond: the minute replays in 60 ms.
//! let config = LiveConfig::default().time_scale(0.001);
//! let (report, stats) = run_live(&trace, &config, baseline_lru_stack());
//! assert_eq!(report.requests.len(), trace.len());
//! assert!(stats.peak_inflight >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
mod heap;
mod host;
mod runtime;

pub use host::{FaasHost, Handler, InvokeHandle, InvokeOutcome};
pub use runtime::{run_live, LiveConfig, LiveStats};

/// Serialises the unit tests that race the wall clock, so that they do
/// not skew each other's timing.
#[cfg(test)]
static WALL_CLOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
