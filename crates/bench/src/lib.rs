//! Benchmark harness: workload generators, dictionary constructors over
//! each storage backend, measurement loops for the paper's figures, and
//! the scenario subsystem — mixed read/write workloads with latency
//! percentiles, per-phase block-transfer counts, and a machine-readable
//! `BENCH_*.json` trajectory gated by `bench compare`.
//!
//! Every figure/table of the paper's Section 4 and every bound of
//! Sections 2–3 has a bench target in `benches/` built from these pieces.
//! The `bench` binary is the one entry point: `bench run` executes a
//! scenario × matrix cell, `bench compare` is the CI perf gate, and
//! `bench figures` drives the paper's parameter sweeps. CSV/JSON output
//! lands in `results/`; the README's "Benchmarking" section is the tour.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod histogram;
pub mod json;
pub mod measure;
pub mod scenario;
pub mod setup;
pub mod workloads;

pub use histogram::Histogram;
pub use measure::{Checkpoint, Series};
pub use scenario::{Scenario, ScenarioReport, SCENARIOS, SCHEMA_VERSION};
pub use setup::OutOfCore;
pub use workloads::{
    ascending, descending, random_keys, search_probes, KeyDist, Op, OpMix, OpStream,
};

/// Scale knob: `COSBT_SCALE=full` enlarges every experiment; default is a
/// laptop-quick configuration.
pub fn full_scale() -> bool {
    std::env::var("COSBT_SCALE")
        .map(|v| v == "full")
        .unwrap_or(false)
}

/// Picks `quick` or `full` based on [`full_scale`].
pub fn scaled(quick: u64, full: u64) -> u64 {
    if full_scale() {
        full
    } else {
        quick
    }
}
