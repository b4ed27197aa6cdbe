//! Indirect-call discovery (paper §III-B3).
//!
//! The PSG cannot resolve calls through function pointers statically. A
//! short *discovery run* with this recorder collects the resolved
//! targets; [`IndirectRecorder::apply`] then expands the call sites in
//! the PSG so subsequent profiling runs attribute at full precision.

use scalana_graph::{CtxId, Psg};
use scalana_lang::ast::{NodeId, StmtKind};
use scalana_mpisim::hook::{Hook, IndirectCallEvent};
use std::collections::BTreeSet;

/// Collects unique `(context, statement, callee)` triples.
#[derive(Debug, Default)]
pub struct IndirectRecorder {
    seen: BTreeSet<(CtxId, NodeId, String)>,
}

impl IndirectRecorder {
    /// Fresh recorder.
    pub fn new() -> IndirectRecorder {
        IndirectRecorder::default()
    }

    /// Observed resolutions so far.
    pub fn observations(&self) -> impl Iterator<Item = &(CtxId, NodeId, String)> {
        self.seen.iter()
    }

    /// Number of distinct resolutions.
    pub fn len(&self) -> usize {
        self.seen.len()
    }

    /// Whether nothing was observed.
    pub fn is_empty(&self) -> bool {
        self.seen.is_empty()
    }

    /// Fill the observed targets into the PSG (refinement). Returns how
    /// many call sites were newly expanded.
    ///
    /// Resolution can cascade: expanding a callee may reveal nested
    /// indirect calls whose contexts only now exist, so the caller should
    /// re-run discovery until this returns 0 (one round suffices for
    /// non-nested pointers).
    pub fn apply(&self, psg: &mut Psg) -> usize {
        let mut expanded = 0;
        for (ctx, stmt, callee) in &self.seen {
            if psg.enter_indirect(*ctx, *stmt, callee).is_none()
                && psg.resolve_indirect(*ctx, *stmt, callee).is_some()
            {
                expanded += 1;
            }
        }
        expanded
    }
}

impl Hook for IndirectRecorder {
    fn on_indirect_call(&mut self, ev: &IndirectCallEvent) -> f64 {
        self.seen.insert((ev.ctx, ev.stmt, ev.callee.clone()));
        0.0
    }
}

/// One recorded discovery round: the sorted `(context, statement,
/// callee)` triples the simulation observed before they were applied.
pub type DiscoveryRound = Vec<(CtxId, NodeId, String)>;

/// Run discovery to a fixed point: simulate at a small scale with the
/// recorder attached, apply resolutions, repeat until no new call sites
/// appear. Returns the number of rounds executed.
pub fn discover_indirect_calls(
    program: &scalana_lang::Program,
    psg: &mut Psg,
    nprocs: usize,
) -> Result<usize, scalana_mpisim::SimError> {
    discover_indirect_calls_traced(program, psg, nprocs).map(|(rounds, _)| rounds)
}

/// [`discover_indirect_calls`], additionally returning each round's
/// observations in the order they were applied. Replaying the rounds
/// with [`replay_indirect_calls`] against a freshly built PSG of the
/// same program reproduces the refined PSG exactly — context ids are
/// allocation-ordered and the recorder's `BTreeSet` fixes the
/// application order — with zero simulation. This is what the service's
/// durable store persists for warm restarts.
///
/// A program with no `call` through a function pointer has nothing to
/// discover: it returns what one round would, `(1, [[]])`, without
/// simulating. Such a program's run-time errors then surface at its
/// first profiled run instead.
pub fn discover_indirect_calls_traced(
    program: &scalana_lang::Program,
    psg: &mut Psg,
    nprocs: usize,
) -> Result<(usize, Vec<DiscoveryRound>), scalana_mpisim::SimError> {
    if !has_indirect_call(program) {
        return Ok((1, vec![Vec::new()]));
    }
    let mut trace = Vec::new();
    loop {
        let mut recorder = IndirectRecorder::new();
        let config = scalana_mpisim::SimConfig::with_nprocs(nprocs);
        scalana_mpisim::Simulation::new(program, psg, config)
            .with_hook(&mut recorder)
            .run()?;
        let observed: DiscoveryRound = recorder.observations().cloned().collect();
        let expanded = recorder.apply(psg);
        trace.push(observed);
        if expanded == 0 || trace.len() > 8 {
            let rounds = trace.len();
            return Ok((rounds, trace));
        }
    }
}

/// Whether any statement of `program` calls through a function pointer.
fn has_indirect_call(program: &scalana_lang::Program) -> bool {
    let mut found = false;
    program.for_each_stmt(|s| found |= matches!(s.kind, StmtKind::CallIndirect { .. }));
    found
}

/// Re-apply recorded discovery rounds to a freshly built (unrefined)
/// PSG of the same program. Returns the number of call sites expanded;
/// never simulates. Unknown or already-resolved triples are skipped, so
/// replaying a stale trace degrades to a partial refinement rather than
/// an error — callers that need exactness compare scale images, not
/// replay counts.
pub fn replay_indirect_calls(psg: &mut Psg, trace: &[DiscoveryRound]) -> usize {
    let mut expanded = 0;
    for round in trace {
        for (ctx, stmt, callee) in round {
            if psg.enter_indirect(*ctx, *stmt, callee).is_none()
                && psg.resolve_indirect(*ctx, *stmt, callee).is_some()
            {
                expanded += 1;
            }
        }
    }
    expanded
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalana_graph::{build_psg, PsgOptions, VertexKind};
    use scalana_lang::parse_program;

    #[test]
    fn discovery_expands_callsites() {
        let src = r#"
            fn main() {
                let f = &work;
                for i in 0 .. 3 { call f(i); }
            }
            fn work(n) { comp(cycles = n * 100); barrier(); }
        "#;
        let program = parse_program("t.mmpi", src).unwrap();
        let mut psg = build_psg(&program, &PsgOptions::default());
        let before = psg.vertex_count();
        assert!(psg.vertices.iter().any(|v| v.kind == VertexKind::CallSite));
        let rounds = discover_indirect_calls(&program, &mut psg, 2).unwrap();
        assert!(
            rounds >= 2,
            "one discovery round plus one fixed-point check"
        );
        assert!(psg.vertex_count() > before, "callee expanded into the PSG");
    }

    #[test]
    fn nested_indirection_reaches_fixed_point() {
        let src = r#"
            fn main() {
                let f = &outer;
                call f();
            }
            fn outer() {
                let g = &inner;
                call g();
            }
            fn inner() { barrier(); }
        "#;
        let program = parse_program("t.mmpi", src).unwrap();
        let mut psg = build_psg(&program, &PsgOptions::default());
        discover_indirect_calls(&program, &mut psg, 2).unwrap();
        // Both levels resolved: inner's barrier vertex exists under a
        // context chain main -> outer -> inner.
        let barriers = psg
            .vertices
            .iter()
            .filter(|v| matches!(v.kind, VertexKind::Mpi(scalana_graph::MpiKind::Barrier)))
            .count();
        assert_eq!(barriers, 1);
    }

    #[test]
    fn recorder_dedups() {
        let mut rec = IndirectRecorder::new();
        for _ in 0..5 {
            rec.on_indirect_call(&IndirectCallEvent {
                rank: 0,
                ctx: 0,
                stmt: 3,
                callee: "f".into(),
            });
        }
        assert_eq!(rec.len(), 1);
        assert!(!rec.is_empty());
    }
}
