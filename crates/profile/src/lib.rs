//! # scalana-profile — runtime data collection tools
//!
//! Three performance tools attach to the simulator's PMPI-style hook
//! layer, mirroring the paper's evaluation matrix:
//!
//! - [`ScalAnaProfiler`] — the paper's tool (§III-B): sampling-based
//!   performance profiling at a configurable frequency (200 Hz default,
//!   matching the paper's HPCToolkit-parity setting), graph-guided
//!   communication compression (record a communication's parameters once
//!   per dependence-edge key, skip repeats), random-sampling
//!   instrumentation, and indirect-call collection. Produces
//!   [`ProfileData`] from which the PPG is assembled.
//! - [`TracerHook`] — the Scalasca-like tracing baseline: every event
//!   (computation region, MPI enter/exit, message) is charged as one
//!   timestamped trace record. High per-event cost, storage linear in
//!   event count — reproducing the paper's GB-scale traces and ~25–40%
//!   overheads.
//! - [`FlatProfilerHook`] — the HPCToolkit-like profiling baseline:
//!   call-path sampling without program structure or communication
//!   dependence. Cheap, MB-scale storage, but its output contains only
//!   hot spots, not causal chains.
//!
//! All three declare per-event virtual-time costs, so tool overhead is a
//! *measured* quantity inside the simulation ([`overhead`]). The two
//! sampling tools count their timer ticks on one [`SamplingClock`].
//! None writes
//! its output format: each counts the bytes its records would occupy,
//! at the sizes [`record`] defines.

pub mod data;
pub mod flat;
pub mod overhead;
pub mod record;
pub mod recorder;
pub mod sampling;
pub mod scalana;
pub mod store;
pub mod tracer;

pub use data::ProfileData;
pub use flat::{FlatConfig, FlatProfilerHook};
pub use overhead::{measure_overhead, OverheadReport, ToolRun};
pub use recorder::IndirectRecorder;
pub use sampling::SamplingClock;
pub use scalana::{ProfilerConfig, ScalAnaProfiler};
pub use tracer::{TracerConfig, TracerHook};
