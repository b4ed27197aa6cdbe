//! The tracing baseline (Scalasca-like).
//!
//! Charges a timestamped event for *everything*: computation region
//! enter/exit, every MPI call, every matched message. Each event is one
//! fixed-size [`TRACE_EVENT`](crate::record::TRACE_EVENT) record, so the
//! tracer counts events and writes none. Storage grows linearly with
//! event count and overhead with per-event cost — the behaviour behind
//! the paper's 6.77 GB / 25.3% Table I row and the 28.26 GB Zeus-MP
//! traces of Fig. 13.

use crate::record;
use scalana_mpisim::hook::{CommDepEvent, CompEvent, Hook, MpiEnterEvent, MpiExitEvent};

/// Tracer cost model.
#[derive(Debug, Clone)]
pub struct TracerConfig {
    /// Virtual-time cost of appending one trace record (buffer write +
    /// timestamp + amortized flush).
    pub record_cost: f64,
}

impl Default for TracerConfig {
    fn default() -> Self {
        TracerConfig {
            record_cost: 1.2e-6,
        }
    }
}

/// The tracing hook.
pub struct TracerHook {
    config: TracerConfig,
    /// Trace events recorded.
    records: u64,
    rank_elapsed: Vec<f64>,
}

impl TracerHook {
    /// New tracer.
    pub fn new(config: TracerConfig) -> TracerHook {
        TracerHook {
            config,
            records: 0,
            rank_elapsed: Vec::new(),
        }
    }

    /// Default cost model.
    pub fn with_defaults() -> TracerHook {
        TracerHook::new(TracerConfig::default())
    }

    /// Bytes of trace produced.
    pub fn storage_bytes(&self) -> u64 {
        self.records * record::TRACE_EVENT
    }

    /// Records written.
    pub fn record_count(&self) -> u64 {
        self.records
    }

    /// Charge one trace record.
    fn charge(&mut self) -> f64 {
        self.records += 1;
        self.config.record_cost
    }

    /// Per-rank elapsed times of the traced run.
    pub fn rank_elapsed(&self) -> &[f64] {
        &self.rank_elapsed
    }
}

impl Hook for TracerHook {
    fn on_comp(&mut self, _ev: &CompEvent) -> f64 {
        self.charge()
    }

    fn on_mpi_enter(&mut self, _ev: &MpiEnterEvent) -> f64 {
        self.charge()
    }

    fn on_mpi_exit(&mut self, _ev: &MpiExitEvent) -> f64 {
        self.charge()
    }

    fn on_comm_dep(&mut self, _ev: &CommDepEvent) -> f64 {
        self.charge()
    }

    fn on_run_end(&mut self, rank_elapsed: &[f64]) {
        self.rank_elapsed = rank_elapsed.to_vec();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalana_graph::{build_psg, PsgOptions};
    use scalana_lang::parse_program;
    use scalana_mpisim::{SimConfig, Simulation};

    const RING: &str = r#"
        fn main() {
            for it in 0 .. 20 {
                comp(cycles = 230_000);
                sendrecv(dst = (rank + 1) % nprocs,
                         src = (rank + nprocs - 1) % nprocs,
                         sendtag = 0, recvtag = 0, bytes = 1k);
            }
        }
    "#;

    fn trace(src: &str, nprocs: usize) -> TracerHook {
        let program = parse_program("t.mmpi", src).unwrap();
        let psg = build_psg(&program, &PsgOptions::default());
        let mut tracer = TracerHook::with_defaults();
        Simulation::new(&program, &psg, SimConfig::with_nprocs(nprocs))
            .with_hook(&mut tracer)
            .run()
            .unwrap();
        tracer
    }

    #[test]
    fn records_every_event() {
        let tracer = trace(RING, 4);
        // Per rank, per iteration: >= 1 comp + 2 mpi events + 1 message.
        assert!(tracer.record_count() >= 4 * 20 * 3);
        // Every record is one fixed-size trace event.
        assert_eq!(tracer.storage_bytes(), 26 * tracer.record_count());
    }

    #[test]
    fn trace_grows_linearly_with_iterations() {
        let short = trace(RING, 2);
        let long = trace(&RING.replace("0 .. 20", "0 .. 200"), 2);
        let ratio = long.storage_bytes() as f64 / short.storage_bytes() as f64;
        assert!(
            (6.0..14.0).contains(&ratio),
            "10x iterations ≈ 10x trace, got {ratio:.1}x"
        );
    }

    #[test]
    fn tracing_slows_the_run() {
        let program = parse_program("t.mmpi", RING).unwrap();
        let psg = build_psg(&program, &PsgOptions::default());
        let base = Simulation::new(&program, &psg, SimConfig::with_nprocs(4))
            .run()
            .unwrap();
        let mut tracer = TracerHook::with_defaults();
        let traced = Simulation::new(&program, &psg, SimConfig::with_nprocs(4))
            .with_hook(&mut tracer)
            .run()
            .unwrap();
        assert!(traced.total_time() > base.total_time());
    }
}
