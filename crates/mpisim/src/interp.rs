//! Per-rank interpreter with an explicit control stack.
//!
//! Each rank executes the program's lowered form ([`scalana_lang::lower`]),
//! keeping its control state (block cursors, loop counters, call frames)
//! in explicit stacks so execution can *suspend* at blocking MPI
//! operations and resume when the engine completes them — the
//! discrete-event equivalent of a real process sitting inside
//! `MPI_Recv`.
//!
//! A rank owns one slot stack and one control stack; a call frame is a
//! pair of offsets into them. A call grows the slot stack by the
//! callee's slot count and evaluates its arguments straight into the new
//! slots; `return` truncates both stacks.
//!
//! A rank prices its computations at one rate, its cycles per second
//! ([`MachineConfig::rank_rate`]), computed when the rank is set up: a
//! `comp`'s duration is its stalled cycles divided by that rate, the
//! operations [`MachineConfig::comp_seconds`] performs, in its order.
//!
//! Attribution: every executed statement is mapped to its contracted PSG
//! vertex through the `(context, statement)` attribution map. Statements
//! inside *unresolved* indirect calls fall back to the `CallSite` vertex
//! (`attr_override`), exactly the coarse attribution the paper has before
//! runtime refinement fills the graph in. A loop looks its vertex up once,
//! on entry, and its control entry keeps it for every iteration's
//! micro-cost: the frame cannot change while that entry is on top of the
//! control stack.
//!
//! On entry a loop also evaluates the expressions lowering hoisted out of
//! it into their hidden slots ([`scalana_lang::lower`]'s module doc says
//! which and why that is exact). That takes no step and charges no
//! micro-cost, so budgets and PMU totals are those of the unhoisted
//! program; a `comp` attribute that was hoisted is then a slot read.

use crate::eval::{eval, eval_truthy, operand, Run};
use crate::hook::{CompEvent, Hook, IndirectCallEvent};
use crate::machine::{MachineConfig, NoiseStream};
use crate::value::{FuncId, Value};
use scalana_graph::{AttrIndex, CtxId, MpiKind, Psg, VertexId};
use scalana_lang::lower::{Lowered, Operands, RComp, RExpr, RMpiOp, RStmt, RStmtKind, Slot};
use scalana_lang::NodeId;

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
pub struct StepCtx<'e, H: Hook + ?Sized> {
    /// The contracted PSG (indirect-call transitions, root vertex).
    pub psg: &'e Psg,
    /// Dense attribution/transition snapshot of the PSG (the hot-loop
    /// replacement for its hash-map lookups).
    pub attr: &'e AttrIndex,
    /// Platform model.
    pub machine: &'e MachineConfig,
    /// The attached tool.
    pub hook: &'e mut H,
    /// Micro-cost table.
    pub costs: StmtCosts,
}

/// An MPI operation with all parameters evaluated, yielded to the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct MpiCall {
    /// Attributed vertex.
    pub vertex: VertexId,
    /// Operation kind.
    pub kind: MpiKind,
    /// Evaluated operands.
    pub op: EvaluatedOp,
}

/// Evaluated MPI operands.
pub type EvaluatedOp = Operands<i64, u64>;

/// Why a stepping rank returned control to the engine.
#[derive(Debug)]
pub enum StepOutcome {
    /// Hit an MPI operation; the engine must process it.
    Mpi(MpiCall),
    /// The program finished on this rank.
    Done,
    /// Exceeded the per-rank step budget (runaway loop guard).
    BudgetExhausted,
}

enum Ctl<'r> {
    Seq {
        stmts: &'r [RStmt],
        idx: usize,
    },
    For {
        slot: Slot,
        next: i64,
        end: i64,
        body: &'r [RStmt],
        vertex: VertexId,
    },
    While {
        cond: &'r RExpr,
        body: &'r [RStmt],
        vertex: VertexId,
    },
}

/// One call frame: where its slots and control entries start in the
/// rank's stacks.
struct Frame {
    ctx: CtxId,
    attr_override: Option<VertexId>,
    slot_base: usize,
    ctl_base: usize,
}

/// Execution state of one simulated rank.
pub struct RankState<'r> {
    /// Rank id.
    pub rank: usize,
    /// Virtual clock, seconds.
    pub clock: f64,
    /// Cumulative PMU counters.
    pub pmu: Pmu,
    /// Remaining statement budget.
    pub steps_left: u64,
    program: &'r Lowered,
    /// This rank's `rank`, and the run's `nprocs` and parameters.
    run: Run<'r>,
    /// This rank's cycles per second ([`MachineConfig::rank_rate`]).
    rate: f64,
    frames: Vec<Frame>,
    slots: Vec<Value>,
    control: Vec<Ctl<'r>>,
    noise: NoiseStream,
    /// Micro-cost batching: (vertex, cycles) accumulated since last flush.
    pending: Option<(VertexId, f64)>,
    finished: bool,
}

impl<'r> RankState<'r> {
    /// Set up rank `run.rank` at the entry of `main`.
    pub fn new(
        program: &'r Lowered,
        run: Run<'r>,
        psg: &Psg,
        machine: &MachineConfig,
        max_steps: u64,
    ) -> RankState<'r> {
        let main = &program.functions[program.main as usize];
        let rank = run.rank as usize;
        RankState {
            rank,
            clock: 0.0,
            pmu: Pmu::default(),
            steps_left: max_steps,
            program,
            run,
            rate: machine.rank_rate(rank),
            frames: vec![Frame {
                ctx: psg.root_ctx(),
                attr_override: None,
                slot_base: 0,
                ctl_base: 0,
            }],
            slots: vec![Value::Int(0); main.slots as usize],
            control: vec![Ctl::Seq {
                stmts: &main.body,
                idx: 0,
            }],
            noise: NoiseStream::new(&machine.noise, rank),
            pending: None,
            finished: false,
        }
    }

    /// Whether the program completed on this rank.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Set a variable of the current frame (the engine binds request ids).
    #[inline]
    pub fn set_slot(&mut self, slot: Slot, value: Value) {
        if let Some(frame) = self.frames.last() {
            self.slots[frame.slot_base + slot as usize] = value;
        }
    }

    #[inline]
    fn frame(&self) -> &Frame {
        self.frames.last().expect("running rank has a frame")
    }

    /// The current frame's slots.
    #[inline]
    fn locals(&self) -> &[Value] {
        &self.slots[self.frame().slot_base..]
    }

    #[inline]
    fn eval(&self, expr: &RExpr) -> Value {
        eval(expr, self.locals(), &self.run)
    }

    #[inline]
    fn eval_int(&self, expr: &RExpr) -> i64 {
        operand(expr, self.locals(), &self.run)
    }

    #[inline]
    fn eval_truthy(&self, expr: &RExpr) -> bool {
        eval_truthy(expr, self.locals(), &self.run)
    }

    /// The vertex to attribute `stmt` to in the current frame.
    fn attr_vertex<H: Hook + ?Sized>(&self, ctx: &StepCtx<'_, H>, stmt_id: NodeId) -> VertexId {
        let frame = self.frame();
        ctx.attr
            .vertex_of(frame.ctx, stmt_id)
            .or(frame.attr_override)
            .unwrap_or(ctx.psg.root)
    }

    /// Accumulate interpreter bookkeeping cycles on a vertex; flushed as
    /// one `CompEvent` when the vertex changes or at MPI boundaries.
    fn charge_micro<H: Hook + ?Sized>(
        &mut self,
        ctx: &mut StepCtx<'_, H>,
        vertex: VertexId,
        cycles: f64,
    ) {
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
    pub fn flush_pending<H: Hook + ?Sized>(&mut self, ctx: &mut StepCtx<'_, H>) {
        let Some((vertex, cycles)) = self.pending.take() else {
            return;
        };
        let duration = ctx.machine.stalled_cycles(cycles, 0.0) / self.rate;
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
    /// exhaustion. A statement, a `for` iteration and a `while` test each
    /// take one step; leaving a block, a loop or a function takes none,
    /// so a budget of N steps runs an N-step program to completion.
    pub fn step<H: Hook + ?Sized>(&mut self, ctx: &mut StepCtx<'_, H>) -> StepOutcome {
        loop {
            let Some(frame) = self.frames.last() else {
                self.flush_pending(ctx);
                self.finished = true;
                return StepOutcome::Done;
            };
            if self.control.len() == frame.ctl_base {
                self.slots.truncate(frame.slot_base);
                self.frames.pop();
                continue;
            }
            let slot_base = frame.slot_base;
            match self.control.last_mut().expect("frame has control") {
                Ctl::Seq { stmts, idx } => {
                    let stmts: &'r [RStmt] = stmts;
                    let Some(stmt) = stmts.get(*idx) else {
                        self.control.pop();
                        continue;
                    };
                    if self.steps_left == 0 {
                        return StepOutcome::BudgetExhausted;
                    }
                    *idx += 1;
                    self.steps_left -= 1;
                    if let Some(call) = self.exec_stmt(stmt, ctx) {
                        return StepOutcome::Mpi(call);
                    }
                }
                Ctl::For {
                    slot,
                    next,
                    end,
                    body,
                    vertex,
                } => {
                    if *next < *end {
                        if self.steps_left == 0 {
                            return StepOutcome::BudgetExhausted;
                        }
                        let value = *next;
                        *next += 1;
                        let (slot, body, vertex) = (*slot, *body, *vertex);
                        self.slots[slot_base + slot as usize] = Value::Int(value);
                        self.control.push(Ctl::Seq {
                            stmts: body,
                            idx: 0,
                        });
                        self.steps_left -= 1;
                        self.charge_micro(ctx, vertex, ctx.costs.loop_iter);
                    } else {
                        self.control.pop();
                    }
                }
                Ctl::While { cond, body, vertex } => {
                    if self.steps_left == 0 {
                        return StepOutcome::BudgetExhausted;
                    }
                    let (cond, body, vertex) = (*cond, *body, *vertex);
                    if self.eval_truthy(cond) {
                        self.control.push(Ctl::Seq {
                            stmts: body,
                            idx: 0,
                        });
                    } else {
                        self.control.pop();
                    }
                    self.steps_left -= 1;
                    self.charge_micro(ctx, vertex, ctx.costs.loop_iter);
                }
            }
        }
    }

    /// Execute one statement; `Some` means an MPI operation was reached.
    fn exec_stmt<H: Hook + ?Sized>(
        &mut self,
        stmt: &'r RStmt,
        ctx: &mut StepCtx<'_, H>,
    ) -> Option<MpiCall> {
        let vertex = self.attr_vertex(ctx, stmt.id);
        match &stmt.kind {
            RStmtKind::Set { slot, value } => {
                let v = self.eval(value);
                self.set_slot(*slot, v);
                self.charge_micro(ctx, vertex, ctx.costs.simple);
                None
            }
            RStmtKind::Comp(comp) => {
                self.exec_comp(comp, vertex, ctx);
                None
            }
            RStmtKind::For {
                slot,
                start,
                end,
                hoisted,
                body,
            } => {
                let s = self.eval_int(start);
                let e = self.eval_int(end);
                self.set_slot(*slot, Value::Int(s));
                self.set_hoisted(hoisted);
                self.control.push(Ctl::For {
                    slot: *slot,
                    next: s,
                    end: e,
                    body,
                    vertex,
                });
                self.charge_micro(ctx, vertex, ctx.costs.simple);
                None
            }
            RStmtKind::While {
                cond,
                hoisted,
                body,
            } => {
                self.set_hoisted(hoisted);
                self.control.push(Ctl::While { cond, body, vertex });
                self.charge_micro(ctx, vertex, ctx.costs.simple);
                None
            }
            RStmtKind::If {
                cond,
                then_block,
                else_block,
            } => {
                let block = if self.eval_truthy(cond) {
                    Some(then_block)
                } else {
                    else_block.as_ref()
                };
                if let Some(stmts) = block {
                    self.control.push(Ctl::Seq { stmts, idx: 0 });
                }
                self.charge_micro(ctx, vertex, ctx.costs.branch);
                None
            }
            RStmtKind::Call { func, args } => {
                let frame = self.frame();
                let new_ctx = ctx.attr.enter_call(frame.ctx, stmt.id).unwrap_or(frame.ctx);
                let attr_override = frame.attr_override;
                self.push_call_frame(*func, args, new_ctx, attr_override);
                self.charge_micro(ctx, vertex, ctx.costs.call);
                None
            }
            RStmtKind::CallIndirect { target, args } => {
                let Value::Func(func) = self.eval(target) else {
                    // Calling a non-function value: no-op (checked
                    // programs only reach this with valid refs).
                    return None;
                };
                let frame = self.frame();
                let (caller_ctx, caller_override) = (frame.ctx, frame.attr_override);
                let program: &'r Lowered = self.program;
                let callee = program.functions[func as usize].name.as_str();
                let cost = ctx.hook.on_indirect_call(&IndirectCallEvent {
                    rank: self.rank,
                    ctx: caller_ctx,
                    stmt: stmt.id,
                    callee: callee.to_string(),
                });
                self.clock += cost;
                match ctx.psg.enter_indirect(caller_ctx, stmt.id, callee) {
                    Some(new_ctx) => {
                        self.push_call_frame(func, args, new_ctx, caller_override);
                    }
                    None => {
                        // Unresolved: attribute the whole callee to the
                        // CallSite vertex until the PSG is refined.
                        let override_vertex =
                            ctx.psg.vertex_of(caller_ctx, stmt.id).or(caller_override);
                        self.push_call_frame(func, args, caller_ctx, override_vertex);
                    }
                }
                self.charge_micro(ctx, vertex, ctx.costs.call);
                None
            }
            RStmtKind::Return => {
                let frame = self.frames.pop().expect("frame");
                self.control.truncate(frame.ctl_base);
                self.slots.truncate(frame.slot_base);
                None
            }
            RStmtKind::Mpi { kind, op } => {
                self.flush_pending(ctx);
                Some(MpiCall {
                    vertex,
                    kind: *kind,
                    op: self.eval_mpi(op),
                })
            }
        }
    }

    /// Evaluate a loop's hoisted expressions into their hidden slots.
    fn set_hoisted(&mut self, hoisted: &[(Slot, RExpr)]) {
        let base = self.frame().slot_base;
        for (slot, expr) in hoisted {
            self.slots[base + *slot as usize] = Value::Int(self.eval_int(expr));
        }
    }

    fn push_call_frame(
        &mut self,
        func: FuncId,
        args: &[RExpr],
        new_ctx: CtxId,
        attr_override: Option<VertexId>,
    ) {
        let program: &'r Lowered = self.program;
        let callee = &program.functions[func as usize];
        let caller_base = self.frame().slot_base;
        let base = self.slots.len();
        self.slots
            .resize(base + callee.slots as usize, Value::Int(0));
        let (caller, new) = self.slots.split_at_mut(base);
        let caller = &caller[caller_base..];
        if args.len() < callee.params.len() {
            for &(slot, param) in &callee.params[args.len()..] {
                new[slot as usize] = Value::Int(param.map_or(0, |p| self.run.params[p as usize]));
            }
        }
        for (&(slot, _), arg) in callee.params.iter().zip(args) {
            new[slot as usize] = eval(arg, caller, &self.run);
        }
        self.frames.push(Frame {
            ctx: new_ctx,
            attr_override,
            slot_base: base,
            ctl_base: self.control.len(),
        });
        self.control.push(Ctl::Seq {
            stmts: &callee.body,
            idx: 0,
        });
    }

    fn exec_comp<H: Hook + ?Sized>(
        &mut self,
        comp: &RComp,
        vertex: VertexId,
        ctx: &mut StepCtx<'_, H>,
    ) {
        self.flush_pending(ctx);
        let (slots, run) = (self.locals(), &self.run);
        let count = |e: &RExpr| operand(e, slots, run).max(0) as f64;
        let attr = |e: &Option<RExpr>| e.as_ref().map(count);
        let cycles = count(&comp.cycles);
        let ins = attr(&comp.ins).unwrap_or(cycles);
        let lst = attr(&comp.lst).unwrap_or(ins / 4.0);
        let l2_miss = attr(&comp.l2_miss).unwrap_or(lst / 100.0);
        let br_miss = attr(&comp.br_miss).unwrap_or(ins / 1000.0);

        let noise = self.noise.next_factor();
        let stalled = ctx.machine.stalled_cycles(cycles, l2_miss);
        let duration = stalled / self.rate * noise;
        let ev = CompEvent {
            rank: self.rank,
            vertex,
            start: self.clock,
            duration,
            tot_ins: ins,
            tot_cyc: stalled,
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

    #[inline]
    fn eval_mpi(&self, op: &RMpiOp) -> EvaluatedOp {
        op.map(|e| self.eval_int(e), |e| self.eval_int(e).max(0) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::NullHook;
    use crate::machine::CoreSpeed;
    use scalana_graph::{build_psg, PsgOptions};
    use scalana_lang::{parse_program, Program};

    /// A checked program run at `nprocs` ranks with its default
    /// parameters, its PSG and machine.
    struct Fixture {
        program: Program,
        nprocs: usize,
        params: Vec<i64>,
        psg: Psg,
        attr: AttrIndex,
        machine: MachineConfig,
    }

    impl Fixture {
        fn new(src: &str, nprocs: usize) -> Fixture {
            let program = parse_program("t.mmpi", src).unwrap();
            let psg = build_psg(&program, &PsgOptions::default());
            Fixture {
                params: program.params.iter().map(|p| p.default).collect(),
                attr: AttrIndex::build(&psg, program.next_node_id),
                program,
                nprocs,
                psg,
                machine: MachineConfig::default(),
            }
        }

        fn rank(&self, rank: usize, max_steps: u64) -> RankState<'_> {
            let run = Run {
                rank: rank as i64,
                nprocs: self.nprocs as i64,
                params: &self.params,
            };
            RankState::new(
                self.program.lowered(),
                run,
                &self.psg,
                &self.machine,
                max_steps,
            )
        }

        fn ctx<'a>(&'a self, hook: &'a mut NullHook) -> StepCtx<'a, NullHook> {
            StepCtx {
                psg: &self.psg,
                attr: &self.attr,
                machine: &self.machine,
                hook,
                costs: StmtCosts::default(),
            }
        }
    }

    fn run_single(src: &str) -> (f64, Pmu) {
        let fx = Fixture::new(src, 1);
        let mut hook = NullHook;
        let mut rank = fx.rank(0, 10_000_000);
        match rank.step(&mut fx.ctx(&mut hook)) {
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
        let fx = Fixture::new(
            "fn main() { send(dst = (rank + 1) % nprocs, tag = 7, bytes = 4k); }",
            4,
        );
        let mut hook = NullHook;
        let mut ctx = fx.ctx(&mut hook);
        let mut rank = fx.rank(2, 1000);
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
        let fx = Fixture::new("fn main() { let x = 1; while x > 0 { x = 1; } }", 1);
        let mut hook = NullHook;
        let mut ctx = fx.ctx(&mut hook);
        let mut rank = fx.rank(0, 500);
        let StepOutcome::BudgetExhausted = rank.step(&mut ctx) else {
            panic!("expected budget exhaustion")
        };
    }

    #[test]
    fn rank_dependent_branching() {
        let src = "fn main() { if rank == 0 { comp(cycles = 1000, ins = 1000, lst = 0, \
                    miss = 0, brmiss = 0); } }";
        let fx = Fixture::new(src, 2);
        let mut hook = NullHook;
        let mut ctx = fx.ctx(&mut hook);
        let mut r0 = fx.rank(0, 1000);
        let mut r1 = fx.rank(1, 1000);
        let StepOutcome::Done = r0.step(&mut ctx) else {
            panic!()
        };
        let StepOutcome::Done = r1.step(&mut ctx) else {
            panic!()
        };
        assert!(r0.pmu.tot_ins > r1.pmu.tot_ins);
    }

    // Scoping oracle: what a variable read sees. Each expected `tot_ins`
    // is the `comp` instructions plus the interpreter micro-costs (4 per
    // `let`/assignment/`for`/loop iteration/branch, 20 per call).

    #[test]
    fn assigning_a_param_binds_a_block_local() {
        // `N = 1` has no local binding to update, so it defines `N` in
        // the loop body's scope; every `comp` still reads the param.
        let (_, pmu) = run_single(
            "param N = 100; fn main() { for i in 0 .. 2 { comp(cycles = N, ins = N, \
             lst = 0, miss = 0, brmiss = 0); N = 1; } comp(cycles = N, ins = N, lst = 0, \
             miss = 0, brmiss = 0); }",
        );
        assert_eq!(pmu.tot_ins, 300.0 + 4.0 + 2.0 * 4.0 + 2.0 * 4.0);
    }

    #[test]
    fn reserved_names_win_over_locals() {
        for bind in ["rank = 50;", "let rank = 50;"] {
            let (_, pmu) = run_single(&format!(
                "fn main() {{ {bind} comp(cycles = rank + 1000, ins = rank + 1000, \
                 lst = 0, miss = 0, brmiss = 0); }}"
            ));
            assert_eq!(pmu.tot_ins, 1004.0, "{bind}");
        }
    }

    #[test]
    fn inner_let_shadows_then_restores() {
        let (_, pmu) = run_single(
            "fn main() { let x = 10; if rank == 0 { let x = 1000; comp(cycles = x, \
             ins = x, lst = 0, miss = 0, brmiss = 0); } comp(cycles = x, ins = x, \
             lst = 0, miss = 0, brmiss = 0); }",
        );
        assert_eq!(pmu.tot_ins, 1010.0 + 3.0 * 4.0);
    }

    #[test]
    fn lets_in_one_scope_share_a_binding() {
        // The inner scope's first `let x` reads the outer `x` (1); the
        // second reads the inner one (11). The outer `x` is untouched.
        let (_, pmu) = run_single(
            "fn main() { let x = 1; if rank == 0 { let y = 5; let x = x + 10; \
             let x = x + 100; comp(cycles = x, ins = x, lst = 0, miss = 0, brmiss = 0); } \
             comp(cycles = x, ins = x, lst = 0, miss = 0, brmiss = 0); }",
        );
        assert_eq!(pmu.tot_ins, 111.0 + 1.0 + 5.0 * 4.0);
    }

    #[test]
    fn request_bound_in_a_block_is_waited_in_it() {
        let program = parse_program(
            "t.mmpi",
            "fn main() { let r = 99; if rank == 0 { let r = isend(dst = 1, tag = 0, \
             bytes = 8); wait(r); } if rank == 1 { recv(src = 0, tag = 0); } }",
        )
        .unwrap();
        let psg = build_psg(&program, &PsgOptions::default());
        crate::Simulation::new(&program, &psg, crate::SimConfig::with_nprocs(2))
            .run()
            .unwrap();
    }

    #[test]
    fn recursive_frames_do_not_share_locals() {
        // rec(3) .. rec(0) each compute 100 * n after their callee
        // returned: 300 + 200 + 100 + 0.
        let (_, pmu) = run_single(
            "fn main() { rec(3); } fn rec(n) { let x = n * 100; if n > 0 { rec(n - 1); } \
             comp(cycles = x, ins = x, lst = 0, miss = 0, brmiss = 0); }",
        );
        assert_eq!(pmu.tot_ins, 600.0 + 4.0 * (20.0 + 4.0 + 4.0));
    }

    #[test]
    fn funcref_slot_is_a_true_condition_and_zero_in_arithmetic() {
        // `if g` and `if &leaf` take their branches and `if !g` does not;
        // `g + 10` reads the reference as 0.
        let (_, pmu) = run_single(
            "fn main() { let g = &leaf; if g { comp(cycles = 1000, ins = 1000, lst = 0, \
             miss = 0, brmiss = 0); } if !g { comp(cycles = 100, ins = 100, lst = 0, \
             miss = 0, brmiss = 0); } if &leaf { comp(cycles = 20000, ins = 20000, lst = 0, \
             miss = 0, brmiss = 0); } comp(cycles = g + 10, ins = g + 10, lst = 0, miss = 0, \
             brmiss = 0); } fn leaf() { }",
        );
        assert_eq!(pmu.tot_ins, 21010.0 + 4.0 + 3.0 * 4.0);
    }

    #[test]
    fn hoisted_invariants_take_no_step_and_charge_no_micro_cost() {
        // Micro-costs: `let` 4; three loop statements 4 each; three `for`
        // iterations and two `while` tests 4 each; four sets 4 each: 52.
        // Steps: 4 statements at the top level, 3 iterations, 6 body
        // statements, 2 `while` tests and 1 body statement: 16.
        let src = "param N = 10; fn main() { let x = 0; for i in 0 .. 3 { \
                   comp(cycles = N * 10 + i, ins = N * 10, lst = N, miss = 0, brmiss = 0); \
                   x = x + N * 2; } while x > N * 5 { x = x - N * 3; } \
                   for z in 0 .. N - 10 { comp(cycles = N * 99 + z); } }";
        let fx = Fixture::new(src, 1);
        let hoisted: Vec<usize> = (fx.program.lowered().functions[0].body[1..])
            .iter()
            .map(|stmt| match &stmt.kind {
                RStmtKind::For { hoisted, .. } | RStmtKind::While { hoisted, .. } => hoisted.len(),
                other => panic!("expected a loop, got {other:?}"),
            })
            .collect();
        assert_eq!(
            hoisted,
            [3, 2, 1],
            "N * 10 and N * 2, N * 5 and N * 3, N * 99"
        );
        let (_, pmu) = run_single(src);
        assert_eq!(pmu.tot_ins, 300.0 + 52.0);
        assert_eq!(pmu.tot_cyc, 303.0 + 52.0);
        // A budget of exactly the program's 16 steps completes it.
        for (budget, completes) in [(15, false), (16, true)] {
            let mut config = crate::SimConfig::with_nprocs(1);
            config.max_steps_per_rank = budget;
            let result = crate::Simulation::new(&fx.program, &fx.psg, config).run();
            assert_eq!(result.is_ok(), completes, "budget {budget}: {result:?}");
        }
    }

    #[test]
    fn comp_durations_are_comp_seconds_at_every_rank_speed() {
        // Rank 1 runs at 0.37 of nominal; each `comp` event's duration
        // and cycles must be the bits `comp_seconds` and `stalled_cycles`
        // give, micro-cost batches included (no noise). Every count is
        // an integer, so `tot_cyc` gives back the cycles exactly.
        #[derive(Default)]
        struct Comps(Vec<CompEvent>);
        impl Hook for Comps {
            fn on_comp(&mut self, ev: &CompEvent) -> f64 {
                self.0.push(*ev);
                0.0
            }
        }
        let mut fx = Fixture::new(
            "fn main() { let x = 3; comp(cycles = 1_234_567, miss = 777); \
             comp(cycles = 99_991 * x, ins = 5, miss = 3); x = 1; comp(cycles = 1, miss = 0); }",
            2,
        );
        fx.machine.core_speed = CoreSpeed::PerRank(vec![1.0, 0.37]);
        for r in 0..2 {
            let mut hook = Comps::default();
            let mut ctx = StepCtx {
                psg: &fx.psg,
                attr: &fx.attr,
                machine: &fx.machine,
                hook: &mut hook,
                costs: StmtCosts::default(),
            };
            let mut rank = fx.rank(r, 1000);
            let StepOutcome::Done = rank.step(&mut ctx) else {
                panic!()
            };
            assert_eq!(hook.0.len(), 5, "three comps and two micro-cost batches");
            for ev in &hook.0 {
                let cycles = ev.tot_cyc - ev.l2_miss * fx.machine.miss_penalty_cycles;
                let want = fx.machine.comp_seconds(r, cycles, ev.l2_miss);
                assert_eq!(ev.duration.to_bits(), want.to_bits(), "rank {r}: {ev:?}");
                let stalled = fx.machine.stalled_cycles(cycles, ev.l2_miss);
                assert_eq!(ev.tot_cyc.to_bits(), stalled.to_bits());
            }
        }
    }

    #[test]
    fn function_param_shadows_program_param() {
        let (_, pmu) = run_single(
            "param n = 7; fn main() { f(1000); } fn f(n) { comp(cycles = n, ins = n, \
             lst = 0, miss = 0, brmiss = 0); }",
        );
        assert_eq!(pmu.tot_ins, 1000.0 + 20.0);
    }

    #[test]
    fn indirect_call_arity_mismatch_binds_what_it_can() {
        // `check` cannot see an indirect callee's arity. A parameter
        // left unbound reads the program parameter of its name; surplus
        // arguments are dropped.
        let (_, pmu) = run_single(
            "param n = 7; fn main() { let f = &g; call f(); call f(100, 5); } \
             fn g(n) { comp(cycles = n, ins = n, lst = 0, miss = 0, brmiss = 0); }",
        );
        assert_eq!(pmu.tot_ins, 7.0 + 100.0 + 4.0 + 2.0 * 20.0);
    }

    #[test]
    fn one_checked_program_runs_at_any_scale_and_parameter_value() {
        // `N` is read directly and, through an indirect call that passes
        // no argument, as the default of `g`'s parameter `N`.
        let program = parse_program(
            "t.mmpi",
            "param N = 1000; fn main() { comp(cycles = N * nprocs, ins = N * nprocs, \
             lst = 0, miss = 0, brmiss = 0); let f = &g; call f(); } \
             fn g(N) { comp(cycles = N, ins = N, lst = 0, miss = 0, brmiss = 0); }",
        )
        .unwrap();
        let psg = build_psg(&program, &PsgOptions::default());
        for nprocs in [2, 8] {
            for n in [None, Some(3)] {
                let mut config = crate::SimConfig::with_nprocs(nprocs);
                if let Some(n) = n {
                    config = config.with_param("N", n);
                }
                let result = crate::Simulation::new(&program, &psg, config)
                    .run()
                    .unwrap();
                let n = n.unwrap_or(1000) as f64;
                let expected = n * nprocs as f64 + n + 4.0 + 20.0;
                assert_eq!(result.rank_pmu.len(), nprocs);
                for pmu in &result.rank_pmu {
                    assert_eq!(pmu.tot_ins, expected, "{nprocs} ranks, N = {n}");
                }
            }
        }
    }
}
