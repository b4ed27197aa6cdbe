//! The PMPI-equivalent interposition layer.
//!
//! Performance tools attach to the simulator by implementing [`Hook`].
//! Every callback returns the **virtual-time cost** (seconds) of whatever
//! recording the tool performed for that event; the engine charges it to
//! the rank's clock. This models tool overhead inside the simulation, so
//! "ScalAna adds 3.5%, Scalasca adds 25%" comparisons (paper Table I,
//! Fig. 10, Fig. 13) are measured rather than asserted.
//!
//! The callbacks correspond to what the paper's instrumentation sees:
//! - [`Hook::on_comp`] — computation attributed to a PSG vertex (the
//!   paper's PAPI timer samples),
//! - [`Hook::on_mpi_enter`] / [`Hook::on_mpi_exit`] — PMPI wrappers,
//!   with resolved parameters (the `MPI_Wait` source/tag resolution of
//!   paper Fig. 5 happens in the engine: exit events carry the matched
//!   peer),
//! - [`Hook::on_comm_dep`] — one matched message: the inter-process
//!   dependence edge, with the receiver's wait time,
//! - [`Hook::on_indirect_call`] — a resolved indirect call (paper
//!   §III-B3).
//!
//! Dispatch is static: [`Simulation`](crate::Simulation) is generic over
//! its hook type, so the engine is compiled for each tool and the tool's
//! callbacks inline into the interpreter loop. Combinators keep that
//! property: [`ChainHook`] of two concrete hooks, or of `&mut` borrows of
//! them, is itself concrete. Passing a `&mut dyn Hook` still works and
//! costs one virtual call per event.

use scalana_graph::{CtxId, MpiKind, VertexId};
use scalana_lang::ast::NodeId;

/// Computation attributed to a vertex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompEvent {
    /// Executing rank.
    pub rank: usize,
    /// Attributed PSG vertex.
    pub vertex: VertexId,
    /// Rank clock when the interval started.
    pub start: f64,
    /// Interval length in virtual seconds.
    pub duration: f64,
    /// Instructions retired in the interval.
    pub tot_ins: f64,
    /// Cycles in the interval.
    pub tot_cyc: f64,
    /// Load/store instructions.
    pub lst_ins: f64,
    /// L2 misses.
    pub l2_miss: f64,
    /// Branch mispredictions.
    pub br_miss: f64,
}

/// An MPI operation is about to execute.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpiEnterEvent {
    /// Executing rank.
    pub rank: usize,
    /// The MPI vertex.
    pub vertex: VertexId,
    /// Operation kind.
    pub kind: MpiKind,
    /// Resolved destination rank (sends), if applicable.
    pub dst: Option<i64>,
    /// Resolved source rank (receives; may be the wildcard -1).
    pub src: Option<i64>,
    /// Resolved tag (may be the wildcard -1).
    pub tag: Option<i64>,
    /// Payload bytes, if applicable.
    pub bytes: Option<u64>,
    /// Rank clock at entry.
    pub time: f64,
}

/// An MPI operation completed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MpiExitEvent {
    /// Executing rank.
    pub rank: usize,
    /// The MPI vertex.
    pub vertex: VertexId,
    /// Operation kind.
    pub kind: MpiKind,
    /// Rank clock at exit.
    pub time: f64,
    /// Total virtual seconds inside the operation.
    pub elapsed: f64,
    /// Of `elapsed`, seconds blocked waiting on other ranks.
    pub wait_time: f64,
}

/// One matched message: the inter-process communication dependence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommDepEvent {
    /// Sending rank.
    pub src_rank: usize,
    /// Vertex that issued the send.
    pub src_vertex: VertexId,
    /// Receiving rank.
    pub dst_rank: usize,
    /// Vertex at which the receiver consumed the message (`MPI_Recv`,
    /// `MPI_Wait`, `MPI_Waitall`, `MPI_Sendrecv`).
    pub dst_vertex: VertexId,
    /// Message tag (as matched).
    pub tag: i64,
    /// Payload size.
    pub bytes: u64,
    /// Seconds the receiver was blocked on this message (0 when the
    /// message was already available). Algorithm 1 prunes dependence
    /// edges without wait.
    pub wait_time: f64,
    /// Receiver clock when the dependence completed.
    pub time: f64,
}

/// A resolved indirect call.
#[derive(Debug, Clone, PartialEq)]
pub struct IndirectCallEvent {
    /// Executing rank.
    pub rank: usize,
    /// Caller context.
    pub ctx: CtxId,
    /// The `call` statement.
    pub stmt: NodeId,
    /// Resolved target function.
    pub callee: String,
}

/// A performance tool attached to the simulation. All methods return the
/// virtual-time cost of the tool's own processing for the event.
#[allow(unused_variables)]
pub trait Hook {
    /// A run is starting.
    fn on_run_start(&mut self, nprocs: usize) {}

    /// Computation attributed to a vertex.
    fn on_comp(&mut self, ev: &CompEvent) -> f64 {
        0.0
    }

    /// MPI operation entry.
    fn on_mpi_enter(&mut self, ev: &MpiEnterEvent) -> f64 {
        0.0
    }

    /// MPI operation exit.
    fn on_mpi_exit(&mut self, ev: &MpiExitEvent) -> f64 {
        0.0
    }

    /// A matched message (communication dependence). Charged to the
    /// *receiving* rank.
    fn on_comm_dep(&mut self, ev: &CommDepEvent) -> f64 {
        0.0
    }

    /// A resolved indirect call.
    fn on_indirect_call(&mut self, ev: &IndirectCallEvent) -> f64 {
        0.0
    }

    /// The run finished; per-rank elapsed virtual time.
    fn on_run_end(&mut self, rank_elapsed: &[f64]) {}
}

/// Forward through mutable references so callers can chain a borrowed
/// hook (including a `&mut dyn Hook`) without giving up ownership —
/// e.g. `ChainHook(&mut profiler, observer)`.
impl<H: Hook + ?Sized> Hook for &mut H {
    fn on_run_start(&mut self, nprocs: usize) {
        (**self).on_run_start(nprocs);
    }
    fn on_comp(&mut self, ev: &CompEvent) -> f64 {
        (**self).on_comp(ev)
    }
    fn on_mpi_enter(&mut self, ev: &MpiEnterEvent) -> f64 {
        (**self).on_mpi_enter(ev)
    }
    fn on_mpi_exit(&mut self, ev: &MpiExitEvent) -> f64 {
        (**self).on_mpi_exit(ev)
    }
    fn on_comm_dep(&mut self, ev: &CommDepEvent) -> f64 {
        (**self).on_comm_dep(ev)
    }
    fn on_indirect_call(&mut self, ev: &IndirectCallEvent) -> f64 {
        (**self).on_indirect_call(ev)
    }
    fn on_run_end(&mut self, rank_elapsed: &[f64]) {
        (**self).on_run_end(rank_elapsed);
    }
}

/// The no-op hook: the uninstrumented baseline run.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullHook;

impl Hook for NullHook {}

/// Chain two hooks (e.g. a tool plus an event counter); costs add.
pub struct ChainHook<A, B>(pub A, pub B);

impl<A: Hook, B: Hook> Hook for ChainHook<A, B> {
    fn on_run_start(&mut self, nprocs: usize) {
        self.0.on_run_start(nprocs);
        self.1.on_run_start(nprocs);
    }
    fn on_comp(&mut self, ev: &CompEvent) -> f64 {
        self.0.on_comp(ev) + self.1.on_comp(ev)
    }
    fn on_mpi_enter(&mut self, ev: &MpiEnterEvent) -> f64 {
        self.0.on_mpi_enter(ev) + self.1.on_mpi_enter(ev)
    }
    fn on_mpi_exit(&mut self, ev: &MpiExitEvent) -> f64 {
        self.0.on_mpi_exit(ev) + self.1.on_mpi_exit(ev)
    }
    fn on_comm_dep(&mut self, ev: &CommDepEvent) -> f64 {
        self.0.on_comm_dep(ev) + self.1.on_comm_dep(ev)
    }
    fn on_indirect_call(&mut self, ev: &IndirectCallEvent) -> f64 {
        self.0.on_indirect_call(ev) + self.1.on_indirect_call(ev)
    }
    fn on_run_end(&mut self, rank_elapsed: &[f64]) {
        self.0.on_run_end(rank_elapsed);
        self.1.on_run_end(rank_elapsed);
    }
}

/// A hook that simply counts events (used in tests and ablations).
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingHook {
    /// Comp events seen.
    pub comps: u64,
    /// MPI entries seen.
    pub mpi_enters: u64,
    /// MPI exits seen.
    pub mpi_exits: u64,
    /// Dependence events seen.
    pub comm_deps: u64,
    /// Indirect calls seen.
    pub indirect_calls: u64,
}

impl Hook for CountingHook {
    fn on_comp(&mut self, _ev: &CompEvent) -> f64 {
        self.comps += 1;
        0.0
    }
    fn on_mpi_enter(&mut self, _ev: &MpiEnterEvent) -> f64 {
        self.mpi_enters += 1;
        0.0
    }
    fn on_mpi_exit(&mut self, _ev: &MpiExitEvent) -> f64 {
        self.mpi_exits += 1;
        0.0
    }
    fn on_comm_dep(&mut self, _ev: &CommDepEvent) -> f64 {
        self.comm_deps += 1;
        0.0
    }
    fn on_indirect_call(&mut self, _ev: &IndirectCallEvent) -> f64 {
        self.indirect_calls += 1;
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_hook_sums_costs() {
        struct Fixed(f64);
        impl Hook for Fixed {
            fn on_comp(&mut self, _ev: &CompEvent) -> f64 {
                self.0
            }
        }
        let mut chain = ChainHook(Fixed(0.25), Fixed(0.5));
        let ev = CompEvent {
            rank: 0,
            vertex: 0,
            start: 0.0,
            duration: 1.0,
            tot_ins: 0.0,
            tot_cyc: 0.0,
            lst_ins: 0.0,
            l2_miss: 0.0,
            br_miss: 0.0,
        };
        assert_eq!(chain.on_comp(&ev), 0.75);
    }

    #[test]
    fn null_hook_is_free() {
        let mut h = NullHook;
        let ev = MpiExitEvent {
            rank: 0,
            vertex: 0,
            kind: MpiKind::Barrier,
            time: 1.0,
            elapsed: 0.5,
            wait_time: 0.25,
        };
        assert_eq!(h.on_mpi_exit(&ev), 0.0);
    }
}
