//! Dense attribution index for the simulator's inner loop.
//!
//! [`crate::psg::Psg`] keys its attribution map and call transitions by
//! `(CtxId, NodeId)` in hash maps — fine for analysis passes, but the
//! simulator consults both once per *executed statement*, which makes
//! hashing the single hottest operation of a run. Both id spaces are
//! dense (contexts are interned `0..ctx_count`, statement ids are
//! `0..next_node_id`), so the maps flatten into two `ctx × stmt` arrays
//! and each lookup becomes two adds and a load.
//!
//! The flattened tables cost `ctx_count × next_node_id` slots even
//! though each context only owns one function's statements, so builds
//! that would exceed `DENSE_SLOT_LIMIT` (pathologically large
//! submitted programs) fall back to a hashed snapshot instead of
//! allocating gigabytes.
//!
//! The index is a snapshot: build it after the PSG stops mutating (for
//! profiled runs, after indirect-call discovery). Out-of-range ids
//! resolve to `None`, matching the hash maps' behavior for unknown keys.

use crate::psg::{CtxId, Psg};
use crate::vertex::VertexId;
use scalana_lang::ast::NodeId;
use std::collections::HashMap;

const NONE: u32 = u32::MAX;

/// Above this many `ctx × stmt` slots (× 2 tables × 4 bytes ≈ 32 MiB)
/// the dense layout stops paying for itself and the snapshot stays
/// hashed. Every paper workload is orders of magnitude below this.
const DENSE_SLOT_LIMIT: usize = 1 << 22;

/// Flattened `(context, statement) → vertex / callee-context` tables.
#[derive(Debug)]
pub struct AttrIndex {
    tables: Tables,
}

#[derive(Debug)]
enum Tables {
    Dense {
        ctxs: usize,
        stmts: usize,
        vertex: Vec<u32>,
        transition: Vec<u32>,
    },
    /// Fallback for degenerate `ctx × stmt` volumes: same snapshot
    /// semantics, hash-map storage.
    Sparse {
        vertex: HashMap<(CtxId, NodeId), VertexId>,
        transition: HashMap<(CtxId, NodeId), CtxId>,
    },
}

impl AttrIndex {
    /// Snapshot `psg`'s attribution map and direct-call transitions for
    /// a program whose statement ids are `0..next_node_id`.
    pub fn build(psg: &Psg, next_node_id: NodeId) -> AttrIndex {
        let ctxs = psg.ctx_count();
        let stmts = next_node_id as usize;
        if ctxs.checked_mul(stmts).is_none_or(|n| n > DENSE_SLOT_LIMIT) {
            return AttrIndex {
                tables: Tables::Sparse {
                    vertex: psg.attribution_entries().map(|(k, v)| (*k, *v)).collect(),
                    transition: psg.transition_entries().map(|(k, v)| (*k, *v)).collect(),
                },
            };
        }
        let mut vertex = vec![NONE; ctxs * stmts];
        let mut transition = vec![NONE; ctxs * stmts];
        for (&(ctx, stmt), &v) in psg.attribution_entries() {
            debug_assert_ne!(v, NONE, "vertex id collides with the sentinel");
            if (ctx as usize) < ctxs && (stmt as usize) < stmts {
                vertex[ctx as usize * stmts + stmt as usize] = v;
            }
        }
        for (&(ctx, stmt), &c) in psg.transition_entries() {
            debug_assert_ne!(c, NONE, "context id collides with the sentinel");
            if (ctx as usize) < ctxs && (stmt as usize) < stmts {
                transition[ctx as usize * stmts + stmt as usize] = c;
            }
        }
        AttrIndex {
            tables: Tables::Dense {
                ctxs,
                stmts,
                vertex,
                transition,
            },
        }
    }

    /// Attribution: the vertex owning `stmt` in `ctx`. Equivalent to
    /// [`Psg::vertex_of`] on the snapshotted graph.
    ///
    /// Always inlined: the interpreter asks once per executed statement,
    /// and it is compiled in whichever crate names the simulation's hook.
    #[inline(always)]
    pub fn vertex_of(&self, ctx: CtxId, stmt: NodeId) -> Option<VertexId> {
        match &self.tables {
            Tables::Dense {
                ctxs,
                stmts,
                vertex,
                ..
            } => {
                let (c, s) = (ctx as usize, stmt as usize);
                if c >= *ctxs || s >= *stmts {
                    return None;
                }
                match vertex[c * stmts + s] {
                    NONE => None,
                    v => Some(v),
                }
            }
            Tables::Sparse { vertex, .. } => sparse_get(vertex, ctx, stmt),
        }
    }

    /// Context transition for a direct call statement. Equivalent to
    /// [`Psg::enter_call`] on the snapshotted graph.
    #[inline(always)]
    pub fn enter_call(&self, ctx: CtxId, call_stmt: NodeId) -> Option<CtxId> {
        match &self.tables {
            Tables::Dense {
                ctxs,
                stmts,
                transition,
                ..
            } => {
                let (c, s) = (ctx as usize, call_stmt as usize);
                if c >= *ctxs || s >= *stmts {
                    return None;
                }
                match transition[c * stmts + s] {
                    NONE => None,
                    t => Some(t),
                }
            }
            Tables::Sparse { transition, .. } => sparse_get(transition, ctx, call_stmt),
        }
    }
}

/// A sparse table's lookup, kept out of line so the dense path of the
/// always-inlined accessors stays a few instructions.
#[inline(never)]
fn sparse_get(map: &HashMap<(CtxId, NodeId), u32>, ctx: CtxId, stmt: NodeId) -> Option<u32> {
    map.get(&(ctx, stmt)).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psg::PsgOptions;
    use scalana_lang::parse_program;

    const SRC: &str = r#"
        fn main() {
            for i in 0 .. 3 { work(i); }
            barrier();
        }
        fn work(n) { comp(cycles = n * 100); allreduce(bytes = 8); }
    "#;

    #[test]
    fn index_agrees_with_hash_maps_everywhere() {
        let program = parse_program("t.mmpi", SRC).unwrap();
        let psg = crate::build_psg(&program, &PsgOptions::default());
        let idx = AttrIndex::build(&psg, program.next_node_id);
        assert!(matches!(idx.tables, Tables::Dense { .. }));
        for ctx in 0..psg.ctx_count() as CtxId {
            for stmt in 0..program.next_node_id {
                assert_eq!(idx.vertex_of(ctx, stmt), psg.vertex_of(ctx, stmt));
                assert_eq!(idx.enter_call(ctx, stmt), psg.enter_call(ctx, stmt));
            }
        }
    }

    #[test]
    fn sparse_fallback_agrees_with_hash_maps_everywhere() {
        // Claiming a statement-id space past the dense limit must not
        // allocate the flat tables, and lookups stay equivalent.
        let program = parse_program("t.mmpi", SRC).unwrap();
        let psg = crate::build_psg(&program, &PsgOptions::default());
        let idx = AttrIndex::build(&psg, u32::MAX);
        assert!(matches!(idx.tables, Tables::Sparse { .. }));
        for ctx in 0..psg.ctx_count() as CtxId {
            for stmt in 0..program.next_node_id {
                assert_eq!(idx.vertex_of(ctx, stmt), psg.vertex_of(ctx, stmt));
                assert_eq!(idx.enter_call(ctx, stmt), psg.enter_call(ctx, stmt));
            }
        }
    }

    #[test]
    fn out_of_range_ids_resolve_to_none() {
        let program = parse_program("t.mmpi", "fn main() { barrier(); }").unwrap();
        let psg = crate::build_psg(&program, &PsgOptions::default());
        let idx = AttrIndex::build(&psg, program.next_node_id);
        assert_eq!(idx.vertex_of(999, 0), None);
        assert_eq!(idx.vertex_of(0, 999), None);
        assert_eq!(idx.enter_call(999, 999), None);
    }
}
