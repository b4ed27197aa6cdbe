//! The fuzzing harness: seeds, case parameters, oracle scheduling,
//! shrinking, and the repro dump.
//!
//! Every case is a pure function of `(base seed, case index)`: the
//! per-case RNG seed is `base ^ fnv1a(case)` — the same derivation the
//! vendored mini-proptest uses — so a failure is replayable from the
//! two numbers printed in the dump. The base seed comes from
//! `WGEN_SEED`, falling back to `PROPTEST_SEED`, falling back to a
//! fixed constant; the case count from `WGEN_CASES` falling back to
//! `PROPTEST_CASES` falling back to 200.

use crate::gen::gen_spec;
use crate::oracle;
use crate::shrink;
use crate::spec::Spec;
use proptest::test_runner::TestRng;
use scalana_lang::ast::{Block, MpiOp, Program, StmtKind};
use scalana_lang::parse_program;
use scalana_lang::pretty::normalize_spans;
use scalana_service::hash::StableHasher;
use std::fmt;

/// Default number of generated cases.
pub const DEFAULT_CASES: usize = 200;

/// Default base seed (overridden by `WGEN_SEED` / `PROPTEST_SEED`).
pub const DEFAULT_SEED: u64 = 0x5ca1_a11a_0000_0006;

/// Wire-fuzz mutants sent per case, per fuzzed endpoint (the submit
/// body and the trace job id are each mutated this many times).
const WIRE_ROUNDS: usize = 2;

/// Shrink budget: oracle re-evaluations spent minimizing one failure.
const SHRINK_BUDGET: usize = 400;

/// The candidate scale pools; one is chosen per case. Small on purpose
/// — each case runs real simulations for every scale several times.
const POOLS: [&[usize]; 4] = [&[2, 3], &[2, 4], &[3, 4], &[2, 3, 4]];

/// The extra scale every case's invariant oracle also runs at, checking
/// that templates stay matched at a process count the analysis pipeline
/// never touched.
const ALT_SCALE: usize = 5;

/// FNV-1a, the same derivation the vendored proptest runner uses for
/// per-case seeds — kept bit-compatible so seeds printed by either
/// harness mean the same thing.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hasher = StableHasher::new();
    hasher.write_bytes(bytes);
    hasher.finish()
}

/// The RNG seed for one case.
pub fn case_seed(base: u64, case: usize) -> u64 {
    base ^ fnv1a(&(case as u64).to_le_bytes())
}

/// An injected defect, used to demonstrate (and test) the failure path:
/// detection, shrinking, and the repro dump.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fault {
    /// No injected defect (the real fuzzing mode).
    #[default]
    None,
    /// Pretend programs must not contain collectives — most generated
    /// programs violate this, and the minimal repro is one statement.
    ForbidCollectives,
}

/// Which oracle a case failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// The injected-[`Fault`] pseudo-oracle.
    Fault,
    /// Pretty text re-parses and round-trips structurally.
    Lowering,
    /// Byte-identical artifacts across repeated cold runs.
    Determinism,
    /// Termination, conservation, and clock sanity at every scale.
    Invariants,
    /// Daemon cache differential over `/v1`.
    Daemon,
    /// Wire fuzz of the submit, metrics, and trace endpoints.
    Wire,
}

impl Oracle {
    /// Stable name used in repro dumps.
    pub fn name(self) -> &'static str {
        match self {
            Oracle::Fault => "fault",
            Oracle::Lowering => "lowering",
            Oracle::Determinism => "determinism",
            Oracle::Invariants => "invariants",
            Oracle::Daemon => "daemon",
            Oracle::Wire => "wire",
        }
    }
}

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Number of generated cases.
    pub cases: usize,
    /// Base seed.
    pub seed: u64,
    /// Live daemon address for the daemon and wire oracles; `None`
    /// runs only the in-process oracles.
    pub daemon: Option<String>,
    /// Injected defect (testing the harness itself).
    pub fault: Fault,
}

impl FuzzConfig {
    /// Read cases/seed from the environment (see module docs).
    pub fn from_env(daemon: Option<String>) -> FuzzConfig {
        fn parse_env<T: std::str::FromStr>(names: &[&str]) -> Option<T> {
            names
                .iter()
                .find_map(|name| std::env::var(name).ok()?.trim().parse().ok())
        }
        FuzzConfig {
            cases: parse_env(&["WGEN_CASES", "PROPTEST_CASES"]).unwrap_or(DEFAULT_CASES),
            seed: parse_env(&["WGEN_SEED", "PROPTEST_SEED"]).unwrap_or(DEFAULT_SEED),
            daemon,
            fault: Fault::None,
        }
    }
}

/// Per-case parameters derived from the case RNG (after the spec).
#[derive(Debug, Clone)]
pub struct CaseParams {
    /// The full scale set submitted to the pipeline and the daemon.
    pub full: Vec<usize>,
    /// A strict, non-empty subset submitted first (daemon oracle).
    pub subset: Vec<usize>,
    /// Scales the invariant oracle simulates at (`full` + `ALT_SCALE`).
    pub invariant_scales: Vec<usize>,
    /// Seed for the wire-fuzz mutation RNG.
    pub wire_seed: u64,
}

fn gen_params(rng: &mut TestRng, seed: u64) -> CaseParams {
    let full: Vec<usize> = POOLS[rng.gen_index(POOLS.len())].to_vec();
    // A strict, non-empty subset: any mask except 0 and all-ones.
    let mask = 1 + rng.gen_index((1usize << full.len()) - 2);
    let subset: Vec<usize> = full
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, &s)| s)
        .collect();
    let mut invariant_scales = full.clone();
    invariant_scales.push(ALT_SCALE);
    CaseParams {
        full,
        subset,
        invariant_scales,
        wire_seed: seed ^ fnv1a(b"wire"),
    }
}

/// A minimized fuzzer failure. The `Display` impl is the repro dump.
#[derive(Debug)]
pub struct Failure {
    /// Case index.
    pub case: usize,
    /// The derived per-case seed.
    pub case_seed: u64,
    /// Base seed (what to export to replay the whole run).
    pub base_seed: u64,
    /// Which oracle tripped.
    pub oracle: Oracle,
    /// The oracle's message.
    pub message: String,
    /// The original failing spec.
    pub spec: Spec,
    /// The shrunk spec (possibly identical to `spec`).
    pub minimized: Spec,
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "wgen: {} oracle failed on case {}",
            self.oracle.name(),
            self.case
        )?;
        writeln!(f, "  {}", self.message)?;
        writeln!(
            f,
            "replay: WGEN_SEED={} WGEN_CASES={} (case seed {:#x})",
            self.base_seed,
            self.case + 1,
            self.case_seed
        )?;
        writeln!(
            f,
            "minimized to {} template statement(s); program:",
            self.minimized.stmt_count()
        )?;
        writeln!(f, "{}", self.minimized.pretty())?;
        write!(f, "original spec: {:?}", self.spec)
    }
}

/// Aggregate statistics of a clean run.
#[derive(Debug, Clone, Copy, Default)]
pub struct FuzzStats {
    /// Cases executed.
    pub cases: usize,
    /// Total spec-level statements generated.
    pub stmts: usize,
    /// Cases that exercised the daemon oracles.
    pub daemon_cases: usize,
    /// Wire-fuzz mutants sent.
    pub wire_requests: usize,
}

/// Does the lowered program contain any collective operation? (Used by
/// [`Fault::ForbidCollectives`].)
fn has_collective(program: &Program) -> bool {
    fn block(b: &Block) -> bool {
        b.stmts.iter().any(|s| match &s.kind {
            StmtKind::Mpi(op) => matches!(
                op,
                MpiOp::Barrier
                    | MpiOp::Bcast { .. }
                    | MpiOp::Reduce { .. }
                    | MpiOp::Allreduce { .. }
                    | MpiOp::Alltoall { .. }
                    | MpiOp::Allgather { .. }
            ),
            StmtKind::For { body, .. } | StmtKind::While { body, .. } => block(body),
            StmtKind::If {
                then_block,
                else_block,
                ..
            } => block(then_block) || else_block.as_ref().is_some_and(block),
            _ => false,
        })
    }
    program.functions.iter().any(|func| block(&func.body))
}

/// Run one oracle against one spec. `probe_id`, when set, replaces the
/// spec's case id — shrink probes against the daemon must each look
/// like a brand-new program, or the daemon's caches would answer from
/// state left by earlier probes and the measured deltas would lie.
fn run_oracle(
    config: &FuzzConfig,
    oracle: Oracle,
    spec: &Spec,
    params: &CaseParams,
    probe_id: Option<i64>,
) -> Result<(), String> {
    let mut spec = spec.clone();
    if let Some(id) = probe_id {
        spec.case_id = id;
    }
    let lowered = spec.lower();
    let text = scalana_lang::pretty::print_program(&lowered);
    // Everything downstream of the pretty printer analyzes the
    // *reparsed* program — the same bytes-in-spans view the daemon gets
    // from the submitted source, so artifacts are byte-comparable.
    let program = parse_program("wgen.mmpi", &text)
        .map_err(|e| format!("pretty output does not re-parse: {e}\n{text}"))?;
    match oracle {
        Oracle::Fault => match config.fault {
            Fault::None => Ok(()),
            Fault::ForbidCollectives => {
                if has_collective(&lowered) {
                    Err("injected fault: program contains a collective".to_string())
                } else {
                    Ok(())
                }
            }
        },
        Oracle::Lowering => {
            if normalize_spans(&lowered) != normalize_spans(&program) {
                return Err(format!(
                    "pretty round trip is not structurally identical\n{text}"
                ));
            }
            Ok(())
        }
        Oracle::Determinism => oracle::check_determinism(&program, &params.full).map(|_| ()),
        Oracle::Invariants => oracle::check_invariants(&program, &params.invariant_scales),
        Oracle::Daemon => {
            let addr = config
                .daemon
                .as_deref()
                .ok_or("daemon oracle without a daemon")?;
            let cold = oracle::cold_analysis(&program, &params.full)?;
            oracle::check_daemon(addr, &text, &params.subset, &params.full, &cold)
        }
        Oracle::Wire => {
            let addr = config
                .daemon
                .as_deref()
                .ok_or("wire oracle without a daemon")?;
            let mut rng = TestRng::from_seed(params.wire_seed);
            oracle::check_wire(addr, &text, &params.full, &mut rng, WIRE_ROUNDS)
        }
    }
}

fn oracles_for(config: &FuzzConfig) -> Vec<Oracle> {
    let mut oracles = Vec::new();
    if config.fault != Fault::None {
        oracles.push(Oracle::Fault);
    }
    oracles.extend([Oracle::Lowering, Oracle::Determinism, Oracle::Invariants]);
    if config.daemon.is_some() {
        oracles.extend([Oracle::Daemon, Oracle::Wire]);
    }
    oracles
}

/// Run the fuzzer. On the first oracle violation, shrink the failing
/// spec against that oracle and return the minimized [`Failure`].
pub fn run(config: &FuzzConfig) -> Result<FuzzStats, Box<Failure>> {
    let mut stats = FuzzStats::default();
    let oracles = oracles_for(config);
    for case in 0..config.cases {
        let seed = case_seed(config.seed, case);
        let mut rng = TestRng::from_seed(seed);
        let spec = gen_spec(&mut rng, case as i64);
        let params = gen_params(&mut rng, seed);
        for &oracle in &oracles {
            if let Err(message) = run_oracle(config, oracle, &spec, &params, None) {
                // Each probe gets a unique program identity; see
                // `run_oracle`.
                let mut probe = 0i64;
                let minimized = shrink::shrink(&spec, SHRINK_BUDGET, |cand| {
                    probe += 1;
                    let id = 1_000_000_000 + (case as i64) * 10_000 + probe;
                    run_oracle(config, oracle, cand, &params, Some(id)).is_err()
                });
                return Err(Box::new(Failure {
                    case,
                    case_seed: seed,
                    base_seed: config.seed,
                    oracle,
                    message,
                    spec,
                    minimized,
                }));
            }
        }
        stats.cases += 1;
        stats.stmts += spec.stmt_count();
        if config.daemon.is_some() {
            stats.daemon_cases += 1;
            // Submit-body mutants and trace-id mutants.
            stats.wire_requests += 2 * WIRE_ROUNDS;
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seeds printed in repro dumps must keep their meaning across
    /// versions, so the derivation is pinned to fixed values.
    #[test]
    fn seed_derivation_matches_its_recorded_values() {
        assert_eq!(case_seed(DEFAULT_SEED, 0), 0xf466_5928_281a_39c3);
        assert_eq!(case_seed(DEFAULT_SEED, 1), 0xd56c_9033_1d2a_efa2);
        assert_eq!(case_seed(DEFAULT_SEED, 2), 0xba1c_275e_3df8_ce01);
        assert_eq!(fnv1a(b"wire"), 0xa67e_edf6_55b1_4178);
    }
}
