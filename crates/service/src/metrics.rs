//! The daemon's self-observation surface: one [`ServiceMetrics`] per
//! server instance, owning the [`scalana_obs`] registry plus cached
//! handles for every instrumented stage.
//!
//! Handles are registered once at server construction; the hot paths
//! (request handling, workers, the simulator hook) only touch the
//! `Arc`-backed atomics behind them. Metrics that already exist as
//! counters elsewhere (the registry/profile/PSG cache tiers, queue
//! depth) are *mirrored* into the `/v1/metrics` exposition at render
//! time from the same atomics `/stats` reads, so the two endpoints can
//! never disagree about a cache tier.

use scalana_obs::{Counter, Family, Gauge, Histogram, MetricsRegistry};

/// Per-server observability state: registry + pre-registered handles.
#[derive(Debug)]
pub struct ServiceMetrics {
    /// The exposition registry behind `GET /v1/metrics`.
    pub registry: MetricsRegistry,

    /// Requests served (all endpoints, all methods).
    pub http_requests: Counter,
    /// Reading + framing one request off the socket (on a keep-alive
    /// connection this includes idle time between requests).
    pub http_read_ns: Histogram,
    /// Parsing a submission body into a [`crate::job::JobSpec`].
    pub parse_ns: Histogram,
    /// Fresh job registered → claimed by a worker.
    pub queue_wait_ns: Histogram,
    /// Worker claim → terminal transition (whole pipeline).
    pub job_ns: Histogram,
    /// Program resolution + refined-PSG lookup/build + cache probes.
    pub resolve_ns: Histogram,
    /// One per-scale simulation (the dominant stage on a miss).
    pub simulate_ns: Histogram,
    /// `ScalAna-detect` + result-document rendering.
    pub assemble_ns: Histogram,
    /// Routing one request through its handler and rendering the
    /// response body. Long-poll handlers do *not* park in here: the
    /// event loop suspends them as registry subscriptions, so parked
    /// time shows up in `scalana_longpoll_parked`, not this histogram.
    pub render_ns: Histogram,
    /// Writing a response to the socket.
    pub write_ns: Histogram,

    /// Accept-loop failures (EMFILE and friends); each one also arms
    /// the bounded accept backoff.
    pub accept_errors: Counter,
    /// File descriptors registered with the event loop right now
    /// (listener + wake eventfd + connections).
    pub epoll_fds: Gauge,
    /// One readiness round of the event loop: epoll wake-up → all due
    /// reads, handlers, and writes dispatched. Only rounds that carried
    /// events are recorded (idle timer ticks would drown the signal).
    pub round_ns: Histogram,

    /// Long-poll waiters that actually parked (as registry subscriptions).
    pub longpoll_parks: Counter,
    /// Parked waiters woken by a terminal transition (vs. timing out).
    pub longpoll_wakes: Counter,
    /// Long-poll subscriptions currently parked in the registry.
    pub longpoll_parked: Gauge,

    /// Simulator runs observed through the hook layer.
    pub sim_runs: Counter,
    /// Simulator events (comp/MPI/dep/indirect) across all runs.
    pub sim_events: Counter,
    /// Wall time of one simulator run.
    pub sim_run_ns: Histogram,
    /// High-water mark of in-flight MPI operations (entered, not yet
    /// exited) — the hook-layer proxy for mailbox-slab occupancy.
    pub sim_inflight_peak: Gauge,
}

impl Default for ServiceMetrics {
    fn default() -> ServiceMetrics {
        ServiceMetrics::new()
    }
}

impl ServiceMetrics {
    pub fn new() -> ServiceMetrics {
        let registry = MetricsRegistry::new();
        ServiceMetrics {
            http_requests: registry.counter("scalana_http_requests_total"),
            http_read_ns: registry.histogram("scalana_stage_http_read_ns"),
            parse_ns: registry.histogram("scalana_stage_parse_ns"),
            queue_wait_ns: registry.histogram("scalana_stage_queue_wait_ns"),
            job_ns: registry.histogram("scalana_job_ns"),
            resolve_ns: registry.histogram("scalana_stage_resolve_ns"),
            simulate_ns: registry.histogram("scalana_stage_simulate_ns"),
            assemble_ns: registry.histogram("scalana_stage_assemble_ns"),
            render_ns: registry.histogram("scalana_stage_render_ns"),
            write_ns: registry.histogram("scalana_stage_write_ns"),
            accept_errors: registry.counter("scalana_accept_errors_total"),
            epoll_fds: registry.gauge("scalana_epoll_registered_fds"),
            round_ns: registry.histogram("scalana_readiness_round_ns"),
            longpoll_parks: registry.counter("scalana_longpoll_parks_total"),
            longpoll_wakes: registry.counter("scalana_longpoll_wakes_total"),
            longpoll_parked: registry.gauge("scalana_longpoll_parked"),
            sim_runs: registry.counter("scalana_sim_runs_total"),
            sim_events: registry.counter("scalana_sim_events_total"),
            sim_run_ns: registry.histogram("scalana_sim_run_ns"),
            sim_inflight_peak: registry.gauge("scalana_sim_inflight_ops_peak"),
            registry,
        }
    }

    /// Render the full exposition: every registered metric plus the
    /// caller's mirrored families (cache tiers, gauges), sorted by
    /// name. The output is byte-deterministic for a given set of
    /// values — the golden test pins its shape.
    pub fn render(&self, mirrored: Vec<Family>) -> String {
        self.registry.render(mirrored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_metrics_render_every_family_in_sorted_order() {
        let metrics = ServiceMetrics::new();
        let text = metrics.render(vec![Family::gauge("scalana_queue_depth", 0)]);
        let families: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("# TYPE "))
            .map(|l| l.split_whitespace().nth(2).unwrap())
            .collect();
        let mut sorted = families.clone();
        sorted.sort();
        assert_eq!(families, sorted, "families must render in sorted order");
        assert!(families.contains(&"scalana_stage_simulate_ns"));
        assert!(families.contains(&"scalana_queue_depth"));
        // Two instances render identically when idle.
        assert_eq!(
            text,
            ServiceMetrics::new().render(vec![Family::gauge("scalana_queue_depth", 0)])
        );
    }
}
