//! # scalana-mpisim — deterministic discrete-event MPI simulator
//!
//! The paper evaluates ScalAna on real MPI programs running on Gorgon and
//! the Tianhe-2 supercomputer with PAPI-based sampling. Neither real MPI
//! nor PMU hardware is available in this reproduction, so this crate
//! provides the closest synthetic equivalent: a **discrete-event
//! simulator** in which every rank is a suspendable MiniMPI interpreter
//! with its own virtual clock and simulated PMU counters.
//!
//! Why this preserves the paper's behaviour: scaling-loss phenomena —
//! wait states, delay propagation through chains of non-blocking
//! point-to-point communication, load imbalance, non-scaling loops — are
//! *timing structure*. A deterministic event simulation reproduces that
//! structure exactly, at thousands of ranks, on one machine, which is
//! what the detection pipeline consumes.
//!
//! Key pieces:
//! - [`machine`]: the platform model (core frequency, per-rank speed
//!   heterogeneity, LogGP-style network, collective cost models, seeded
//!   noise),
//! - [`interp`] and [`eval`]: the per-rank interpreter over the
//!   program's lowered form ([`scalana_lang::lower`], produced once per
//!   program when it is checked: variables are frame slots, calls carry
//!   function indices), with explicit slot and control stacks so a rank
//!   suspends mid-program at blocking MPI operations, and its expression
//!   evaluator, which reads `nprocs` and the parameters from the run,
//! - [`engine`]: the scheduler and message-matching core (eager and
//!   rendezvous point-to-point, wildcard receives, non-blocking request
//!   tracking, sequence-matched collectives),
//! - [`hook`]: the PMPI-equivalent interposition layer. Hooks observe
//!   computation, MPI enter/exit, matched communication dependences, and
//!   indirect-call resolution, and *return the virtual-time cost* of
//!   whatever recording they do — which is how tool overhead (paper
//!   Table I, Fig. 10, Fig. 13) is measured faithfully inside the
//!   simulation.
//!
//! ```
//! use scalana_lang::parse_program;
//! use scalana_graph::{build_psg, PsgOptions};
//! use scalana_mpisim::{Simulation, SimConfig};
//!
//! let src = r#"
//! fn main() {
//!     comp(cycles = 100k);
//!     allreduce(bytes = 8);
//! }
//! "#;
//! let program = parse_program("demo.mmpi", src).unwrap();
//! let psg = build_psg(&program, &PsgOptions::default());
//! let result = Simulation::new(&program, &psg, SimConfig::with_nprocs(8))
//!     .run()
//!     .unwrap();
//! assert_eq!(result.rank_elapsed.len(), 8);
//! assert!(result.total_time() > 0.0);
//! ```

pub mod engine;
pub mod eval;
pub mod fxhash;
pub mod hook;
pub mod interp;
pub mod machine;
pub mod value;

pub use engine::{SimConfig, SimError, SimResult, Simulation};
pub use hook::{
    ChainHook, CommDepEvent, CompEvent, Hook, IndirectCallEvent, MpiEnterEvent, MpiExitEvent,
    NullHook,
};
pub use machine::{CoreSpeed, MachineConfig, NoiseConfig};
pub use value::Value;
