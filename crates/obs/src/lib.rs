//! # scalana-obs — the daemon observing itself
//!
//! The paper's thesis is that scaling loss should be located with
//! low-overhead, always-on instrumentation. This crate turns that
//! philosophy back onto the analysis daemon: every stage of a job's
//! life (HTTP read → parse → queue wait → per-scale cache probe →
//! simulate → assemble → render → write) is wrapped in a [`Span`]
//! whose cost is small enough to never switch off, and the aggregate
//! picture is served from a [`MetricsRegistry`] whose text exposition
//! is byte-deterministic (and therefore golden-testable).
//!
//! Two layers:
//!
//! - [`metrics`] — `Arc`-backed [`Counter`]/[`Gauge`] handles and
//!   log-bucketed latency [`Histogram`]s (p50/p90/p99/max from
//!   power-of-two buckets), registered by name and rendered as sorted
//!   Prometheus-style text;
//! - [`mod@span`] — RAII stage timers: a guard notes [`now_ns`] when it
//!   opens and feeds its elapsed time to a latency histogram on drop.
//!
//! Nothing is recorded that no reader consumes: `/v1/metrics` renders
//! the registry, and per-job traces are assembled by the service from
//! [`Span::start_ns`]/[`Span::elapsed_ns`] stamps on the same clock.
//!
//! The crate is dependency-free on purpose: it sits underneath
//! everything else in the workspace (the service, the simulator hook
//! layer, the caches) and must never drag the wire contract or the
//! analysis types into those layers.

pub mod clock;
pub mod metrics;
pub mod span;

pub use clock::{epoch, now_ns};
pub use metrics::{
    render_families, Counter, Family, Gauge, Histogram, HistogramSnapshot, MetricsRegistry,
};
pub use span::{span_timed, Span};
