//! Wall-clock benchmark of the mrinv workspace.
//!
//! One command runs one workload for a fixed window, checks every output,
//! and prints the end-to-end metrics (`--trace 0`) or, from a separate
//! traced run, the per-layer metrics (`--trace 1`). The benchmark drives
//! the program only through its public API and reads only counters the
//! program already exposes; see `LAYERS.md` for the metric map.

pub mod calib;
pub mod env;
pub mod inputs;
pub mod invert;
pub mod metrics;
pub mod pipeline;
pub mod probes;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workloads;
