//! `scalana-wgen`: deterministic MiniMPI workload generation and
//! differential testing.
//!
//! The crate generates random-but-sound MiniMPI programs ([`spec`] and
//! [`gen`]), runs them through four cross-checking oracles ([`oracle`]),
//! and shrinks any failure to a minimal pretty-printed repro
//! ([`shrink`], orchestrated by [`harness`]). See
//! `crates/wgen/tests/differential.rs` for the entry points CI runs.
//!
//! Everything is seed-deterministic: a run is identified by
//! `(WGEN_SEED, WGEN_CASES)` and any failure prints the exact
//! environment to replay it.

pub mod gen;
pub mod harness;
pub mod oracle;
pub mod shrink;
pub mod spec;

pub use harness::{Failure, Fault, FuzzConfig, FuzzStats, Oracle};
pub use spec::{GExpr, GStmt, Spec};

use proptest::test_runner::TestRng;

/// Generate the spec for `(base seed, case index)` — the same
/// derivation [`harness::run`] uses, exposed for the benchmark and replays.
pub fn generate(base_seed: u64, case: usize) -> Spec {
    let mut rng = TestRng::from_seed(harness::case_seed(base_seed, case));
    gen::gen_spec(&mut rng, case as i64)
}
