//! # faas-testkit — hermetic test and measurement kit
//!
//! Everything the workspace needs to verify and measure itself without
//! reaching crates.io: the whole crate is plain `std`, so
//! `cargo build --offline` / `cargo test --offline` work on a machine
//! that has never seen a registry.
//!
//! Five subsystems:
//!
//! * [`rng`] — a deterministic, seedable PRNG (xoshiro256++ seeded via
//!   SplitMix64) with the uniform / normal / exponential / Pareto /
//!   Zipf helpers the synthetic trace generators need. Replaces `rand`.
//! * [`prop`] — a minimal property-testing runner: composable random
//!   inputs drawn from a recorded choice stream, configurable case
//!   counts, input shrinking by simplifying that stream, and
//!   failing-seed persistence to a `*.testkit-regressions` file.
//!   Replaces `proptest`.
//! * [`bench`] — a wall-clock micro-benchmark harness (warmup, fixed
//!   iteration budget, median/p95/throughput) that appends
//!   machine-readable results to `BENCH_results.json`. Replaces
//!   `criterion`.
//! * [`par`] — an ordered, deterministic fork-join map over
//!   `std::thread::scope`, used to parallelize experiment sweeps while
//!   keeping result aggregation byte-identical to a sequential run.
//! * [`arrivals`] — seeded open-loop arrival schedules (Poisson or
//!   uniform pacing) for load generators; the same seed always yields
//!   the byte-identical schedule.
//!
//! [`json`] is the tiny JSON reader/writer the bench harness uses to
//! merge results across bench binaries; it is public because tests and
//! tooling may want to consume `BENCH_results.json` without serde.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arrivals;
pub mod bench;
pub mod json;
pub mod par;
pub mod prop;
pub mod rng;

pub use arrivals::Arrivals;
pub use bench::{atomic_write, BenchStats, Harness};
pub use par::{default_jobs, par_map};
pub use prop::{Checker, Gen};
pub use rng::Rng;
