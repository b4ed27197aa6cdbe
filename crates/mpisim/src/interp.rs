//! Per-rank interpreter with an explicit control stack.
//!
//! Each rank executes the MiniMPI AST directly, but keeps its control
//! state (block cursors, loop counters, call frames) in an explicit stack
//! so execution can *suspend* at blocking MPI operations and resume when
//! the engine completes them — the discrete-event equivalent of a real
//! process sitting inside `MPI_Recv`.
//!
//! Attribution: every executed statement is mapped to its contracted PSG
//! vertex through the `(context, statement)` attribution map. Statements
//! inside *unresolved* indirect calls fall back to the `CallSite` vertex
//! (`attr_override`), exactly the coarse attribution the paper has before
//! runtime refinement fills the graph in.

use crate::eval::{eval, eval_int, EvalCtx, ParamTable};
use crate::hook::{CompEvent, Hook, IndirectCallEvent};
use crate::machine::{MachineConfig, NoiseStream};
use crate::value::{Env, Value};
use scalana_graph::{AttrIndex, CtxId, MpiKind, Psg, VertexId};
use scalana_lang::ast::{Block, CompAttrs, Expr, MpiOp, Program, Stmt, StmtKind};

/// Per-statement interpreter micro-costs, in cycles. These model the
/// instructions a real compiled program spends on bookkeeping and give
/// `Comp` vertices made of scalar statements a small, realistic cost.
#[derive(Debug, Clone, Copy)]
pub struct StmtCosts {
    /// `let` / assignment / `return`.
    pub simple: f64,
    /// One loop-iteration test+increment.
    pub loop_iter: f64,
    /// One branch evaluation.
    pub branch: f64,
    /// One function call (frame setup).
    pub call: f64,
}

impl Default for StmtCosts {
    fn default() -> Self {
        StmtCosts {
            simple: 4.0,
            loop_iter: 4.0,
            branch: 4.0,
            call: 20.0,
        }
    }
}

/// Cumulative simulated PMU counters of one rank.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Pmu {
    /// Instructions retired.
    pub tot_ins: f64,
    /// Cycles.
    pub tot_cyc: f64,
    /// Load/store instructions.
    pub lst_ins: f64,
    /// L2 misses.
    pub l2_miss: f64,
    /// Branch mispredictions.
    pub br_miss: f64,
}

/// Everything a stepping rank needs from the engine.
pub struct StepCtx<'e> {
    /// The contracted PSG (indirect-call transitions, root vertex).
    pub psg: &'e Psg,
    /// Dense attribution/transition snapshot of the PSG (the hot-loop
    /// replacement for its hash-map lookups).
    pub attr: &'e AttrIndex,
    /// Platform model.
    pub machine: &'e MachineConfig,
    /// The attached tool.
    pub hook: &'e mut dyn Hook,
    /// Interned program parameters (defaults merged with run overrides).
    pub params: &'e ParamTable,
    /// Rank count.
    pub nprocs: usize,
    /// Micro-cost table.
    pub costs: StmtCosts,
}

/// An MPI operation with all parameters evaluated, yielded to the engine.
/// Request-variable names are borrowed from the program AST, so yielding
/// a call never allocates.
#[derive(Debug, Clone, PartialEq)]
pub struct MpiCall<'p> {
    /// Attributed vertex.
    pub vertex: VertexId,
    /// Operation kind.
    pub kind: MpiKind,
    /// Evaluated operands.
    pub op: EvaluatedOp<'p>,
}

/// Evaluated MPI operands.
#[derive(Debug, Clone, PartialEq)]
pub enum EvaluatedOp<'p> {
    /// Blocking send.
    Send {
        /// Destination rank.
        dst: i64,
        /// Tag.
        tag: i64,
        /// Payload bytes.
        bytes: u64,
    },
    /// Blocking receive.
    Recv {
        /// Source rank or -1.
        src: i64,
        /// Tag or -1.
        tag: i64,
    },
    /// Combined exchange.
    Sendrecv {
        /// Send destination.
        dst: i64,
        /// Send tag.
        sendtag: i64,
        /// Receive source or -1.
        src: i64,
        /// Receive tag or -1.
        recvtag: i64,
        /// Payload bytes each way.
        bytes: u64,
    },
    /// Non-blocking send; the engine binds `req_name`.
    Isend {
        /// Destination rank.
        dst: i64,
        /// Tag.
        tag: i64,
        /// Payload bytes.
        bytes: u64,
        /// Request variable to bind (borrowed from the AST).
        req_name: &'p str,
    },
    /// Non-blocking receive; the engine binds `req_name`.
    Irecv {
        /// Source rank or -1.
        src: i64,
        /// Tag or -1.
        tag: i64,
        /// Request variable to bind (borrowed from the AST).
        req_name: &'p str,
    },
    /// Wait on one request.
    Wait {
        /// Request id.
        req: i64,
    },
    /// Wait on all outstanding requests.
    Waitall,
    /// A collective operation.
    Collective {
        /// Root rank (bcast/reduce; 0 otherwise).
        root: i64,
        /// Payload bytes.
        bytes: u64,
    },
}

/// Why a stepping rank returned control to the engine.
#[derive(Debug)]
pub enum StepOutcome<'p> {
    /// Hit an MPI operation; the engine must process it.
    Mpi(MpiCall<'p>),
    /// The program finished on this rank.
    Done,
    /// Exceeded the per-rank step budget (runaway loop guard).
    BudgetExhausted,
}

enum Ctl<'p> {
    Seq {
        block: &'p Block,
        idx: usize,
    },
    For {
        var: &'p str,
        next: i64,
        end: i64,
        body: &'p Block,
        stmt_id: scalana_lang::NodeId,
    },
    While {
        cond: &'p Expr,
        body: &'p Block,
        stmt_id: scalana_lang::NodeId,
    },
}

struct Frame<'p> {
    ctx: CtxId,
    attr_override: Option<VertexId>,
    env: Env<'p>,
    control: Vec<Ctl<'p>>,
}

/// Execution state of one simulated rank.
pub struct RankState<'p> {
    /// Rank id.
    pub rank: usize,
    /// Virtual clock, seconds.
    pub clock: f64,
    /// Cumulative PMU counters.
    pub pmu: Pmu,
    /// Remaining statement budget.
    pub steps_left: u64,
    program: &'p Program,
    frames: Vec<Frame<'p>>,
    noise: NoiseStream,
    /// Micro-cost batching: (vertex, cycles) accumulated since last flush.
    pending: Option<(VertexId, f64)>,
    finished: bool,
}

impl<'p> RankState<'p> {
    /// Set up a rank at the entry of `main`.
    pub fn new(
        rank: usize,
        program: &'p Program,
        psg: &Psg,
        machine: &MachineConfig,
        max_steps: u64,
    ) -> RankState<'p> {
        let main = program.main();
        let mut env = Env::new();
        env.push_scope();
        let frame = Frame {
            ctx: psg.root_ctx(),
            attr_override: None,
            env,
            control: vec![Ctl::Seq {
                block: &main.body,
                idx: 0,
            }],
        };
        RankState {
            rank,
            clock: 0.0,
            pmu: Pmu::default(),
            steps_left: max_steps,
            program,
            frames: vec![frame],
            noise: NoiseStream::new(&machine.noise, rank),
            pending: None,
            finished: false,
        }
    }

    /// Whether the program completed on this rank.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Define a variable in the current frame (engine binds request ids).
    pub fn define_var(&mut self, name: &'p str, value: Value) {
        if let Some(frame) = self.frames.last_mut() {
            frame.env.define(name, value);
        }
    }

    fn eval_ctx<'e>(&self, params: &'e ParamTable, nprocs: usize) -> EvalCtx<'e> {
        EvalCtx {
            rank: self.rank as i64,
            nprocs: nprocs as i64,
            params,
        }
    }

    /// The vertex to attribute `stmt` to in the current frame.
    fn attr_vertex(&self, ctx: &StepCtx<'_>, stmt_id: scalana_lang::NodeId) -> VertexId {
        let frame = self.frames.last().expect("running rank has a frame");
        ctx.attr
            .vertex_of(frame.ctx, stmt_id)
            .or(frame.attr_override)
            .unwrap_or(ctx.psg.root)
    }

    /// Accumulate interpreter bookkeeping cycles on a vertex; flushed as
    /// one `CompEvent` when the vertex changes or at MPI boundaries.
    fn charge_micro(&mut self, ctx: &mut StepCtx<'_>, vertex: VertexId, cycles: f64) {
        match &mut self.pending {
            Some((v, acc)) if *v == vertex => *acc += cycles,
            Some(_) => {
                self.flush_pending(ctx);
                self.pending = Some((vertex, cycles));
            }
            None => self.pending = Some((vertex, cycles)),
        }
    }

    /// Emit the pending micro-cost batch as a computation event.
    pub fn flush_pending(&mut self, ctx: &mut StepCtx<'_>) {
        let Some((vertex, cycles)) = self.pending.take() else {
            return;
        };
        let duration = ctx.machine.comp_seconds(self.rank, cycles, 0.0);
        let ev = CompEvent {
            rank: self.rank,
            vertex,
            start: self.clock,
            duration,
            tot_ins: cycles,
            tot_cyc: cycles,
            lst_ins: cycles * 0.3,
            l2_miss: 0.0,
            br_miss: 0.0,
        };
        self.clock += duration;
        self.pmu.tot_ins += ev.tot_ins;
        self.pmu.tot_cyc += ev.tot_cyc;
        self.pmu.lst_ins += ev.lst_ins;
        let cost = ctx.hook.on_comp(&ev);
        self.clock += cost;
    }

    /// Run until the next MPI operation, completion, or budget
    /// exhaustion.
    pub fn step(&mut self, ctx: &mut StepCtx<'_>) -> StepOutcome<'p> {
        loop {
            if self.steps_left == 0 {
                return StepOutcome::BudgetExhausted;
            }
            let Some(frame) = self.frames.last_mut() else {
                self.flush_pending(ctx);
                self.finished = true;
                return StepOutcome::Done;
            };
            let Some(top) = frame.control.last_mut() else {
                self.frames.pop();
                continue;
            };
            match top {
                Ctl::Seq { block, idx } => {
                    if *idx >= block.stmts.len() {
                        frame.env.pop_scope();
                        frame.control.pop();
                        continue;
                    }
                    let stmt = &block.stmts[*idx];
                    *idx += 1;
                    self.steps_left -= 1;
                    if let Some(call) = self.exec_stmt(stmt, ctx) {
                        return StepOutcome::Mpi(call);
                    }
                }
                Ctl::For {
                    var,
                    next,
                    end,
                    body,
                    stmt_id,
                } => {
                    if *next < *end {
                        let value = *next;
                        *next += 1;
                        let var: &'p str = var;
                        let body: &'p Block = body;
                        let stmt_id = *stmt_id;
                        frame.env.assign(var, Value::Int(value));
                        frame.env.push_scope();
                        frame.control.push(Ctl::Seq {
                            block: body,
                            idx: 0,
                        });
                        self.steps_left = self.steps_left.saturating_sub(1);
                        let vertex = self.attr_vertex(ctx, stmt_id);
                        self.charge_micro(ctx, vertex, ctx.costs.loop_iter);
                    } else {
                        frame.env.pop_scope();
                        frame.control.pop();
                    }
                }
                Ctl::While {
                    cond,
                    body,
                    stmt_id,
                } => {
                    let cond: &'p Expr = cond;
                    let body: &'p Block = body;
                    let stmt_id = *stmt_id;
                    let ec = self.eval_ctx(ctx.params, ctx.nprocs);
                    let frame = self.frames.last_mut().expect("frame");
                    let take = eval(cond, &frame.env, &ec).truthy();
                    if take {
                        frame.env.push_scope();
                        frame.control.push(Ctl::Seq {
                            block: body,
                            idx: 0,
                        });
                    } else {
                        frame.control.pop();
                    }
                    self.steps_left = self.steps_left.saturating_sub(1);
                    let vertex = self.attr_vertex(ctx, stmt_id);
                    self.charge_micro(ctx, vertex, ctx.costs.loop_iter);
                }
            }
        }
    }

    /// Execute one statement; `Some` means an MPI operation was reached.
    fn exec_stmt(&mut self, stmt: &'p Stmt, ctx: &mut StepCtx<'_>) -> Option<MpiCall<'p>> {
        let vertex = self.attr_vertex(ctx, stmt.id);
        match &stmt.kind {
            StmtKind::Let { name, value } => {
                let ec = self.eval_ctx(ctx.params, ctx.nprocs);
                let frame = self.frames.last_mut().expect("frame");
                let v = eval(value, &frame.env, &ec);
                frame.env.define(name, v);
                self.charge_micro(ctx, vertex, ctx.costs.simple);
                None
            }
            StmtKind::Assign { name, value } => {
                let ec = self.eval_ctx(ctx.params, ctx.nprocs);
                let frame = self.frames.last_mut().expect("frame");
                let v = eval(value, &frame.env, &ec);
                frame.env.assign(name, v);
                self.charge_micro(ctx, vertex, ctx.costs.simple);
                None
            }
            StmtKind::Comp(attrs) => {
                self.exec_comp(stmt, attrs, vertex, ctx);
                None
            }
            StmtKind::For {
                var,
                start,
                end,
                body,
            } => {
                let ec = self.eval_ctx(ctx.params, ctx.nprocs);
                let frame = self.frames.last_mut().expect("frame");
                let s = eval_int(start, &frame.env, &ec);
                let e = eval_int(end, &frame.env, &ec);
                frame.env.push_scope();
                frame.env.define(var, Value::Int(s));
                frame.control.push(Ctl::For {
                    var,
                    next: s,
                    end: e,
                    body,
                    stmt_id: stmt.id,
                });
                self.charge_micro(ctx, vertex, ctx.costs.simple);
                None
            }
            StmtKind::While { cond, body } => {
                let frame = self.frames.last_mut().expect("frame");
                frame.control.push(Ctl::While {
                    cond,
                    body,
                    stmt_id: stmt.id,
                });
                self.charge_micro(ctx, vertex, ctx.costs.simple);
                None
            }
            StmtKind::If {
                cond,
                then_block,
                else_block,
            } => {
                let ec = self.eval_ctx(ctx.params, ctx.nprocs);
                let frame = self.frames.last_mut().expect("frame");
                let take = eval(cond, &frame.env, &ec).truthy();
                let block = if take {
                    Some(then_block)
                } else {
                    else_block.as_ref()
                };
                if let Some(block) = block {
                    frame.env.push_scope();
                    frame.control.push(Ctl::Seq { block, idx: 0 });
                }
                self.charge_micro(ctx, vertex, ctx.costs.branch);
                None
            }
            StmtKind::Call { callee, args } => {
                let ec = self.eval_ctx(ctx.params, ctx.nprocs);
                let frame = self.frames.last().expect("frame");
                let arg_values: Vec<Value> =
                    args.iter().map(|a| eval(a, &frame.env, &ec)).collect();
                let new_ctx = ctx.attr.enter_call(frame.ctx, stmt.id).unwrap_or(frame.ctx);
                let attr_override = frame.attr_override;
                self.push_call_frame(callee, arg_values, new_ctx, attr_override);
                self.charge_micro(ctx, vertex, ctx.costs.call);
                None
            }
            StmtKind::CallIndirect { target, args } => {
                let ec = self.eval_ctx(ctx.params, ctx.nprocs);
                let frame = self.frames.last().expect("frame");
                let target_value = eval(target, &frame.env, &ec);
                let Value::Func(callee) = target_value else {
                    // Calling a non-function value: no-op (checked
                    // programs only reach this with valid refs).
                    return None;
                };
                let arg_values: Vec<Value> =
                    args.iter().map(|a| eval(a, &frame.env, &ec)).collect();
                let caller_ctx = frame.ctx;
                let caller_override = frame.attr_override;
                let cost = ctx.hook.on_indirect_call(&IndirectCallEvent {
                    rank: self.rank,
                    ctx: caller_ctx,
                    stmt: stmt.id,
                    callee: callee.clone(),
                });
                self.clock += cost;
                match ctx.psg.enter_indirect(caller_ctx, stmt.id, &callee) {
                    Some(new_ctx) => {
                        self.push_call_frame(&callee, arg_values, new_ctx, caller_override);
                    }
                    None => {
                        // Unresolved: attribute the whole callee to the
                        // CallSite vertex until the PSG is refined.
                        let override_vertex =
                            ctx.psg.vertex_of(caller_ctx, stmt.id).or(caller_override);
                        self.push_call_frame(&callee, arg_values, caller_ctx, override_vertex);
                    }
                }
                self.charge_micro(ctx, vertex, ctx.costs.call);
                None
            }
            StmtKind::Return => {
                self.frames.pop();
                None
            }
            StmtKind::Mpi(op) => {
                self.flush_pending(ctx);
                let call = self.eval_mpi(op, vertex, ctx);
                Some(call)
            }
        }
    }

    fn push_call_frame(
        &mut self,
        callee: &str,
        args: Vec<Value>,
        new_ctx: CtxId,
        attr_override: Option<VertexId>,
    ) {
        let func = self
            .program
            .function(callee)
            .expect("checked program: callee exists");
        let mut env = Env::new();
        env.push_scope();
        for (param, value) in func.params.iter().zip(args) {
            env.define(param, value);
        }
        self.frames.push(Frame {
            ctx: new_ctx,
            attr_override,
            env,
            control: vec![Ctl::Seq {
                block: &func.body,
                idx: 0,
            }],
        });
    }

    fn exec_comp(
        &mut self,
        _stmt: &'p Stmt,
        attrs: &CompAttrs,
        vertex: VertexId,
        ctx: &mut StepCtx<'_>,
    ) {
        self.flush_pending(ctx);
        let ec = self.eval_ctx(ctx.params, ctx.nprocs);
        let frame = self.frames.last().expect("frame");
        let cycles = eval_int(&attrs.cycles, &frame.env, &ec).max(0) as f64;
        let ins = attrs
            .ins
            .as_ref()
            .map(|e| eval_int(e, &frame.env, &ec).max(0) as f64)
            .unwrap_or(cycles);
        let lst = attrs
            .lst
            .as_ref()
            .map(|e| eval_int(e, &frame.env, &ec).max(0) as f64)
            .unwrap_or(ins / 4.0);
        let l2_miss = attrs
            .l2_miss
            .as_ref()
            .map(|e| eval_int(e, &frame.env, &ec).max(0) as f64)
            .unwrap_or(lst / 100.0);
        let br_miss = attrs
            .br_miss
            .as_ref()
            .map(|e| eval_int(e, &frame.env, &ec).max(0) as f64)
            .unwrap_or(ins / 1000.0);

        let noise = self.noise.next_factor();
        let duration = ctx.machine.comp_seconds(self.rank, cycles, l2_miss) * noise;
        let ev = CompEvent {
            rank: self.rank,
            vertex,
            start: self.clock,
            duration,
            tot_ins: ins,
            tot_cyc: cycles + l2_miss * ctx.machine.miss_penalty_cycles,
            lst_ins: lst,
            l2_miss,
            br_miss,
        };
        self.clock += duration;
        self.pmu.tot_ins += ev.tot_ins;
        self.pmu.tot_cyc += ev.tot_cyc;
        self.pmu.lst_ins += ev.lst_ins;
        self.pmu.l2_miss += ev.l2_miss;
        self.pmu.br_miss += ev.br_miss;
        let cost = ctx.hook.on_comp(&ev);
        self.clock += cost;
    }

    fn eval_mpi(&mut self, op: &'p MpiOp, vertex: VertexId, ctx: &mut StepCtx<'_>) -> MpiCall<'p> {
        let ec = self.eval_ctx(ctx.params, ctx.nprocs);
        let frame = self.frames.last().expect("frame");
        let env = &frame.env;
        let kind = MpiKind::of(op);
        let evaluated = match op {
            MpiOp::Send { dst, tag, bytes } => EvaluatedOp::Send {
                dst: eval_int(dst, env, &ec),
                tag: eval_int(tag, env, &ec),
                bytes: eval_int(bytes, env, &ec).max(0) as u64,
            },
            MpiOp::Recv { src, tag } => EvaluatedOp::Recv {
                src: eval_int(src, env, &ec),
                tag: eval_int(tag, env, &ec),
            },
            MpiOp::Sendrecv {
                dst,
                sendtag,
                src,
                recvtag,
                bytes,
            } => EvaluatedOp::Sendrecv {
                dst: eval_int(dst, env, &ec),
                sendtag: eval_int(sendtag, env, &ec),
                src: eval_int(src, env, &ec),
                recvtag: eval_int(recvtag, env, &ec),
                bytes: eval_int(bytes, env, &ec).max(0) as u64,
            },
            MpiOp::Isend {
                dst,
                tag,
                bytes,
                req,
            } => EvaluatedOp::Isend {
                dst: eval_int(dst, env, &ec),
                tag: eval_int(tag, env, &ec),
                bytes: eval_int(bytes, env, &ec).max(0) as u64,
                req_name: req,
            },
            MpiOp::Irecv { src, tag, req } => EvaluatedOp::Irecv {
                src: eval_int(src, env, &ec),
                tag: eval_int(tag, env, &ec),
                req_name: req,
            },
            MpiOp::Wait { req } => EvaluatedOp::Wait {
                req: eval_int(req, env, &ec),
            },
            MpiOp::Waitall => EvaluatedOp::Waitall,
            MpiOp::Barrier => EvaluatedOp::Collective { root: 0, bytes: 0 },
            MpiOp::Bcast { root, bytes } | MpiOp::Reduce { root, bytes } => {
                EvaluatedOp::Collective {
                    root: eval_int(root, env, &ec),
                    bytes: eval_int(bytes, env, &ec).max(0) as u64,
                }
            }
            MpiOp::Allreduce { bytes } | MpiOp::Alltoall { bytes } | MpiOp::Allgather { bytes } => {
                EvaluatedOp::Collective {
                    root: 0,
                    bytes: eval_int(bytes, env, &ec).max(0) as u64,
                }
            }
        };
        MpiCall {
            vertex,
            kind,
            op: evaluated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::NullHook;
    use scalana_graph::{build_psg, PsgOptions};
    use scalana_lang::parse_program;

    fn run_single(src: &str) -> (f64, Pmu) {
        let program = parse_program("t.mmpi", src).unwrap();
        let psg = build_psg(&program, &PsgOptions::default());
        let machine = MachineConfig::default();
        let params = ParamTable::build(&program, &Default::default());
        let attr = AttrIndex::build(&psg, program.next_node_id);
        let mut hook = NullHook;
        let mut ctx = StepCtx {
            psg: &psg,
            attr: &attr,
            machine: &machine,
            hook: &mut hook,
            params: &params,
            nprocs: 1,
            costs: StmtCosts::default(),
        };
        let mut rank = RankState::new(0, &program, &psg, &machine, 10_000_000);
        match rank.step(&mut ctx) {
            StepOutcome::Done => {}
            other => panic!("expected completion, got {other:?}"),
        }
        (rank.clock, rank.pmu)
    }

    #[test]
    fn comp_advances_clock_and_pmu() {
        let (clock, pmu) = run_single(
            "fn main() { comp(cycles = 2_300_000, ins = 1000, \
                                        lst = 100, miss = 0, brmiss = 1); }",
        );
        assert!(clock >= 0.001, "2.3M cycles at 2.3GHz >= 1ms, got {clock}");
        assert_eq!(pmu.tot_ins, 1000.0);
        assert_eq!(pmu.lst_ins, 100.0);
        assert_eq!(pmu.br_miss, 1.0);
    }

    #[test]
    fn comp_defaults_derive_from_cycles() {
        let (_, pmu) = run_single("fn main() { comp(cycles = 1000); }");
        assert_eq!(pmu.tot_ins, 1000.0);
        assert_eq!(pmu.lst_ins, 250.0); // ins / 4
        assert_eq!(pmu.l2_miss, 2.5); // lst / 100
        assert_eq!(pmu.br_miss, 1.0); // ins / 1000
    }

    #[test]
    fn loops_execute_correct_iteration_count() {
        let (_, pmu) = run_single(
            "fn main() { for i in 0 .. 10 { comp(cycles = 100, ins = 100, lst = 0, \
             miss = 0, brmiss = 0); } }",
        );
        // 10 iterations * 100 ins of comp, plus interpreter micro-costs.
        assert!(pmu.tot_ins >= 1000.0);
        assert!(
            pmu.tot_ins < 1400.0,
            "micro-costs should stay small: {}",
            pmu.tot_ins
        );
    }

    #[test]
    fn while_and_assign_work() {
        let (_, pmu) = run_single(
            "fn main() { let x = 8; while x > 0 { x = x / 2; comp(cycles = 50, ins = 50, \
             lst = 0, miss = 0, brmiss = 0); } }",
        );
        // x: 8 -> 4 -> 2 -> 1 -> 0 : 4 iterations.
        assert!(pmu.tot_ins >= 200.0);
    }

    #[test]
    fn calls_and_recursion_terminate() {
        let (_, pmu) = run_single(
            "fn main() { rec(5); } \
             fn rec(n) { if n > 0 { comp(cycles = 10, ins = 10, lst = 0, miss = 0, \
             brmiss = 0); rec(n - 1); } }",
        );
        assert!(pmu.tot_ins >= 50.0);
    }

    #[test]
    fn mpi_yields_with_evaluated_params() {
        let program = parse_program(
            "t.mmpi",
            "fn main() { send(dst = (rank + 1) % nprocs, tag = 7, bytes = 4k); }",
        )
        .unwrap();
        let psg = build_psg(&program, &PsgOptions::default());
        let machine = MachineConfig::default();
        let params = ParamTable::default();
        let attr = AttrIndex::build(&psg, program.next_node_id);
        let mut hook = NullHook;
        let mut ctx = StepCtx {
            psg: &psg,
            attr: &attr,
            machine: &machine,
            hook: &mut hook,
            params: &params,
            nprocs: 4,
            costs: StmtCosts::default(),
        };
        let mut rank = RankState::new(2, &program, &psg, &machine, 1000);
        let StepOutcome::Mpi(call) = rank.step(&mut ctx) else {
            panic!()
        };
        assert_eq!(call.kind, MpiKind::Send);
        assert_eq!(
            call.op,
            EvaluatedOp::Send {
                dst: 3,
                tag: 7,
                bytes: 4096
            }
        );
        // Resuming after the engine would handle the send finishes main.
        let StepOutcome::Done = rank.step(&mut ctx) else {
            panic!()
        };
        assert!(rank.is_finished());
    }

    #[test]
    fn budget_exhaustion_detected() {
        let program =
            parse_program("t.mmpi", "fn main() { let x = 1; while x > 0 { x = 1; } }").unwrap();
        let psg = build_psg(&program, &PsgOptions::default());
        let machine = MachineConfig::default();
        let params = ParamTable::default();
        let attr = AttrIndex::build(&psg, program.next_node_id);
        let mut hook = NullHook;
        let mut ctx = StepCtx {
            psg: &psg,
            attr: &attr,
            machine: &machine,
            hook: &mut hook,
            params: &params,
            nprocs: 1,
            costs: StmtCosts::default(),
        };
        let mut rank = RankState::new(0, &program, &psg, &machine, 500);
        let StepOutcome::BudgetExhausted = rank.step(&mut ctx) else {
            panic!("expected budget exhaustion")
        };
    }

    #[test]
    fn rank_dependent_branching() {
        let src = "fn main() { if rank == 0 { comp(cycles = 1000, ins = 1000, lst = 0, \
                    miss = 0, brmiss = 0); } }";
        let program = parse_program("t.mmpi", src).unwrap();
        let psg = build_psg(&program, &PsgOptions::default());
        let machine = MachineConfig::default();
        let params = ParamTable::default();
        let attr = AttrIndex::build(&psg, program.next_node_id);
        let mut hook = NullHook;
        let mut ctx = StepCtx {
            psg: &psg,
            attr: &attr,
            machine: &machine,
            hook: &mut hook,
            params: &params,
            nprocs: 2,
            costs: StmtCosts::default(),
        };
        let mut r0 = RankState::new(0, &program, &psg, &machine, 1000);
        let mut r1 = RankState::new(1, &program, &psg, &machine, 1000);
        let StepOutcome::Done = r0.step(&mut ctx) else {
            panic!()
        };
        let StepOutcome::Done = r1.step(&mut ctx) else {
            panic!()
        };
        assert!(r0.pmu.tot_ins > r1.pmu.tot_ins);
    }
}
