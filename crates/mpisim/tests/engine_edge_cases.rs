//! Edge-case integration tests for the MPI engine: protocol corners,
//! ordering semantics, and failure modes.

use scalana_graph::{build_psg, PsgOptions};
use scalana_lang::parse_program;
use scalana_mpisim::hook::{CommDepEvent, Hook};
use scalana_mpisim::{SimConfig, SimError, Simulation};

fn run(src: &str, nprocs: usize) -> Result<scalana_mpisim::SimResult, SimError> {
    let program = parse_program("t.mmpi", src).unwrap();
    let psg = build_psg(&program, &PsgOptions::default());
    Simulation::new(&program, &psg, SimConfig::with_nprocs(nprocs)).run()
}

/// Hook capturing the source-rank order of matched messages.
struct DepOrder(Vec<(usize, i64)>);
impl Hook for DepOrder {
    fn on_comm_dep(&mut self, ev: &CommDepEvent) -> f64 {
        self.0.push((ev.src_rank, ev.tag));
        0.0
    }
}

fn run_deps(src: &str, nprocs: usize) -> Vec<(usize, i64)> {
    let program = parse_program("t.mmpi", src).unwrap();
    let psg = build_psg(&program, &PsgOptions::default());
    let mut hook = DepOrder(Vec::new());
    Simulation::new(&program, &psg, SimConfig::with_nprocs(nprocs))
        .with_hook(&mut hook)
        .run()
        .unwrap();
    hook.0
}

#[test]
fn fifo_per_sender_and_tag() {
    // Two same-tag sends from one rank must match two receives in order.
    let src = r#"
        fn main() {
            if rank == 0 {
                send(dst = 1, tag = 7, bytes = 64);
                send(dst = 1, tag = 7, bytes = 128);
            } else {
                recv(src = 0, tag = 7);
                recv(src = 0, tag = 7);
            }
        }
    "#;
    struct Bytes(Vec<u64>);
    impl Hook for Bytes {
        fn on_comm_dep(&mut self, ev: &CommDepEvent) -> f64 {
            self.0.push(ev.bytes);
            0.0
        }
    }
    let program = parse_program("t.mmpi", src).unwrap();
    let psg = build_psg(&program, &PsgOptions::default());
    let mut hook = Bytes(Vec::new());
    Simulation::new(&program, &psg, SimConfig::with_nprocs(2))
        .with_hook(&mut hook)
        .run()
        .unwrap();
    assert_eq!(hook.0, vec![64, 128], "FIFO per (src, tag)");
}

#[test]
fn tag_selectivity_reorders_matches() {
    // The receiver asks for tag 2 first even though tag 1 was sent first.
    let src = r#"
        fn main() {
            if rank == 0 {
                send(dst = 1, tag = 1, bytes = 64);
                send(dst = 1, tag = 2, bytes = 64);
            } else {
                recv(src = 0, tag = 2);
                recv(src = 0, tag = 1);
            }
        }
    "#;
    let deps = run_deps(src, 2);
    assert_eq!(deps, vec![(0, 2), (0, 1)]);
}

#[test]
fn wildcard_tag_with_specific_source() {
    let src = r#"
        fn main() {
            if rank == 0 {
                send(dst = 1, tag = 42, bytes = 64);
            } else {
                recv(src = 0, tag = any);
            }
        }
    "#;
    let deps = run_deps(src, 2);
    assert_eq!(deps, vec![(0, 42)]);
}

#[test]
fn wildcard_recv_ordering_blocks_later_specific_recv() {
    // A wildcard at the head of the queue must claim the first message;
    // the later specific recv takes the second. No crossover.
    let src = r#"
        fn main() {
            if rank == 0 {
                send(dst = 1, tag = 5, bytes = 64);
                send(dst = 1, tag = 6, bytes = 64);
            } else {
                let a = irecv(src = any, tag = any);
                let b = irecv(src = 0, tag = 6);
                waitall();
            }
        }
    "#;
    let deps = run_deps(src, 2);
    assert_eq!(deps.len(), 2);
    assert_eq!(deps[0], (0, 5), "wildcard gets the earlier message");
    assert_eq!(deps[1], (0, 6));
}

#[test]
fn rendezvous_isend_completes_at_wait() {
    // A large isend's request isn't complete until the receiver posts.
    let src = r#"
        fn main() {
            if rank == 0 {
                let s = isend(dst = 1, tag = 0, bytes = 1m);
                wait(s);
            } else {
                comp(cycles = 23_000_000); // 10 ms before posting
                recv(src = 0, tag = 0);
            }
        }
    "#;
    let res = run(src, 2).unwrap();
    assert!(
        res.rank_elapsed[0] >= 0.01,
        "sender's wait() blocked on the rendezvous: {}",
        res.rank_elapsed[0]
    );
}

#[test]
fn waitall_with_no_outstanding_requests_is_a_noop() {
    let res = run("fn main() { waitall(); comp(cycles = 100); }", 4).unwrap();
    assert!(res.total_time() > 0.0);
}

#[test]
fn wait_on_completed_then_reuse_is_error() {
    // Waiting twice on the same request id: second wait targets a
    // request that no longer exists.
    let src = r#"
        fn main() {
            if rank == 0 {
                let q = irecv(src = 1, tag = 0);
                wait(q);
                wait(q);
            } else {
                send(dst = 0, tag = 0, bytes = 8);
            }
        }
    "#;
    let err = run(src, 2).unwrap_err();
    assert!(matches!(err, SimError::UnknownRequest { rank: 0, .. }));
}

#[test]
fn mismatched_p2p_deadlocks_with_detail() {
    let src = "fn main() { if rank == 0 { recv(src = 1, tag = 3); } \
                else { send(dst = 0, tag = 4, bytes = 8); } }";
    let err = run(src, 2).unwrap_err();
    let SimError::Deadlock { detail } = err else {
        panic!("expected deadlock")
    };
    assert!(
        detail.contains("rank 0"),
        "detail names the stuck rank: {detail}"
    );
}

#[test]
fn collective_count_mismatch_is_deadlock_not_hang() {
    // Rank 0 performs one extra barrier.
    let src = "fn main() { barrier(); if rank == 0 { barrier(); } }";
    let err = run(src, 2).unwrap_err();
    assert!(matches!(err, SimError::Deadlock { .. }));
}

#[test]
fn single_rank_collectives_complete_instantly() {
    let res = run(
        "fn main() { barrier(); allreduce(bytes = 8); bcast(root = 0, bytes = 64); \
         alltoall(bytes = 8); allgather(bytes = 8); reduce(root = 0, bytes = 8); }",
        1,
    )
    .unwrap();
    assert!(res.total_time() < 1e-3);
}

#[test]
fn zero_byte_messages_work() {
    let src = r#"
        fn main() {
            if rank == 0 { send(dst = 1, tag = 0, bytes = 0); }
            else { recv(src = 0, tag = 0); }
        }
    "#;
    run(src, 2).unwrap();
}

#[test]
fn interleaved_nonblocking_streams_keep_tags_apart() {
    // Two independent request streams with different tags; waits in
    // reverse posting order.
    let src = r#"
        fn main() {
            let right = (rank + 1) % nprocs;
            let left = (rank + nprocs - 1) % nprocs;
            let a = irecv(src = left, tag = 1);
            let b = irecv(src = left, tag = 2);
            send(dst = right, tag = 2, bytes = 32);
            send(dst = right, tag = 1, bytes = 16);
            wait(b);
            wait(a);
        }
    "#;
    let deps = run_deps(src, 4);
    assert_eq!(deps.len(), 8, "two matched messages per rank");
}

#[test]
fn noise_changes_results_but_not_correctness() {
    let src = r#"
        fn main() {
            for i in 0 .. 5 {
                comp(cycles = 100_000);
                sendrecv(dst = (rank + 1) % nprocs, src = (rank + nprocs - 1) % nprocs,
                         sendtag = i, recvtag = i, bytes = 1k);
            }
        }
    "#;
    let program = parse_program("t.mmpi", src).unwrap();
    let psg = build_psg(&program, &PsgOptions::default());
    let mut quiet = SimConfig::with_nprocs(4);
    quiet.machine_mut().noise.amplitude = 0.0;
    let mut noisy = SimConfig::with_nprocs(4);
    noisy.machine_mut().noise.amplitude = 0.10;
    noisy.machine_mut().noise.seed = 7;
    let a = Simulation::new(&program, &psg, quiet).run().unwrap();
    let b = Simulation::new(&program, &psg, noisy).run().unwrap();
    assert_ne!(a.rank_elapsed, b.rank_elapsed, "noise perturbs timing");
    // Perturbation is bounded by the amplitude (plus wait coupling).
    for (x, y) in a.rank_elapsed.iter().zip(&b.rank_elapsed) {
        assert!((x - y).abs() / x < 0.25, "{x} vs {y}");
    }
}

#[test]
fn heterogeneous_cores_slow_selected_ranks() {
    let src = "fn main() { comp(cycles = 1_000_000); barrier(); }";
    let program = parse_program("t.mmpi", src).unwrap();
    let psg = build_psg(&program, &PsgOptions::default());
    let mut config = SimConfig::with_nprocs(4);
    config.machine_mut().core_speed = scalana_mpisim::CoreSpeed::PerRank(vec![1.0, 1.0, 0.5, 1.0]);
    let res = Simulation::new(&program, &psg, config).run().unwrap();
    // All exit the barrier together, but PMU cycles are equal while the
    // slow core took twice the time to accrue them (same work).
    assert_eq!(res.rank_pmu[0].tot_cyc, res.rank_pmu[2].tot_cyc);
}

#[test]
fn deep_recursion_is_bounded_by_step_budget() {
    let src = "fn main() { spin(0); } fn spin(n) { spin(n + 1); }";
    let program = parse_program("t.mmpi", src).unwrap();
    let psg = build_psg(&program, &PsgOptions::default());
    let mut config = SimConfig::with_nprocs(1);
    config.max_steps_per_rank = 10_000;
    let err = Simulation::new(&program, &psg, config).run().unwrap_err();
    assert!(matches!(err, SimError::StepLimit { rank: 0 }));
}

#[test]
fn bcast_from_nonzero_root() {
    let src = r#"
        fn main() {
            comp(cycles = rank * 100_000);
            bcast(root = 3, bytes = 1k);
        }
    "#;
    let res = run(src, 8).unwrap();
    // Root 3 leaves at its own arrival; later-arriving ranks gate on
    // themselves, earlier ones on the root's send tree.
    assert!(res.rank_elapsed[3] <= res.rank_elapsed[7]);
}

#[test]
fn zero_count_collectives_complete_and_synchronize() {
    // Every collective kind with a zero-byte payload: completion must
    // still synchronize the ranks (cost models degenerate to latency
    // terms, never to a stall or a division by zero).
    let src = r#"
        fn main() {
            comp(cycles = rank * 10_000);
            barrier();
            allreduce(bytes = 0);
            alltoall(bytes = 0);
            allgather(bytes = 0);
            bcast(root = 0, bytes = 0);
            reduce(root = 0, bytes = 0);
            allreduce(bytes = 0);
        }
    "#;
    let res = run(src, 8).unwrap();
    let t0 = res.rank_elapsed[0];
    for t in &res.rank_elapsed {
        assert!(t.is_finite() && *t > 0.0);
        assert!((t - t0).abs() < 1e-6, "zero-count allreduce still syncs");
    }
}

#[test]
fn wildcard_prefers_send_order_within_one_source_across_tags() {
    // One source, two tags, posted in tag order 9 then 8: per-(src, tag)
    // queues must not let the tag-8 queue jump ahead — wildcard matching
    // follows the sender's send sequence within a source.
    let src = r#"
        fn main() {
            if rank == 1 {
                send(dst = 0, tag = 9, bytes = 64);
                send(dst = 0, tag = 8, bytes = 64);
            } else if rank == 2 {
                comp(cycles = 23_000_000); // 10 ms: arrives last
                send(dst = 0, tag = 7, bytes = 64);
            } else if rank == 0 {
                recv(src = any, tag = any);
                recv(src = any, tag = any);
                recv(src = any, tag = any);
            }
        }
    "#;
    let deps = run_deps(src, 3);
    assert_eq!(
        deps,
        vec![(1, 9), (1, 8), (2, 7)],
        "send order within rank 1, late rank 2 last"
    );
}

#[test]
fn wildcard_tag_picks_lowest_sequence_across_queues_of_one_source() {
    // src-specific + wildcard tag: the match must take the source's
    // earliest send sequence even though a later-sent message sits at
    // the front of a different (src, tag) queue.
    let src = r#"
        fn main() {
            if rank == 1 {
                send(dst = 0, tag = 3, bytes = 64);
                send(dst = 0, tag = 2, bytes = 64);
                send(dst = 0, tag = 1, bytes = 64);
            } else if rank == 0 {
                recv(src = 1, tag = any);
                recv(src = 1, tag = any);
                recv(src = 1, tag = any);
            }
        }
    "#;
    let deps = run_deps(src, 2);
    assert_eq!(
        deps,
        vec![(1, 3), (1, 2), (1, 1)],
        "sequence order, not tag order"
    );
}

#[test]
fn unmatched_isend_outstanding_at_finalize_is_not_an_error() {
    // An eager isend whose request is never waited on and whose message
    // is never received: the rank finishes, the run completes, and no
    // dependence is emitted for the dangling message.
    let src = r#"
        fn main() {
            if rank == 0 {
                let s = isend(dst = 1, tag = 99, bytes = 512);
                comp(cycles = 1000);
            } else {
                comp(cycles = 1000);
            }
        }
    "#;
    let deps = run_deps(src, 2);
    assert!(deps.is_empty(), "dangling isend matched nothing: {deps:?}");
}

#[test]
fn unmatched_rendezvous_isend_outstanding_at_finalize_completes() {
    // Rendezvous flavor: the request can never complete (no receiver
    // ever posts), but nobody waits on it — finalize must not deadlock.
    let src = r#"
        fn main() {
            if rank == 0 {
                let s = isend(dst = 1, tag = 99, bytes = 1m);
                comp(cycles = 1000);
            } else {
                comp(cycles = 1000);
            }
        }
    "#;
    let res = run(src, 2).unwrap();
    assert_eq!(res.rank_elapsed.len(), 2);
}

#[test]
fn wildcard_tie_break_across_tags_survives_collective_fence() {
    // Per-source send sequence drives wildcard matching in both phases
    // of a barrier-fenced exchange: the collective must neither perturb
    // the sequence counters nor leave stale queue state, so the second
    // phase re-matches in send order even though the tag order flips.
    let src = r#"
        fn main() {
            if rank == 1 {
                send(dst = 0, tag = 9, bytes = 64);
                send(dst = 0, tag = 8, bytes = 64);
                barrier();
                send(dst = 0, tag = 8, bytes = 64);
                send(dst = 0, tag = 9, bytes = 64);
            } else if rank == 0 {
                recv(src = any, tag = any);
                recv(src = any, tag = any);
                barrier();
                recv(src = any, tag = any);
                recv(src = any, tag = any);
            } else {
                barrier();
            }
        }
    "#;
    let deps = run_deps(src, 3);
    // Collective dependences carry negative tags; keep the p2p stream.
    let p2p: Vec<_> = deps.iter().copied().filter(|(_, t)| *t >= 0).collect();
    assert_eq!(
        p2p,
        vec![(1, 9), (1, 8), (1, 8), (1, 9)],
        "send-sequence order in each phase, tags alternating"
    );
    assert!(
        deps.iter().any(|(_, t)| *t < 0),
        "the barrier contributed collective dependences: {deps:?}"
    );
}

#[test]
fn looped_rendezvous_isends_drain_in_order_at_waitall() {
    // Rendezvous-sized isends posted in a loop (rebinding the same
    // request variable) with the matching recvs posted only much later:
    // the sender's single waitall must block until the receiver drains
    // every message, and matching follows the send sequence.
    let src = r#"
        fn main() {
            if rank == 0 {
                for i in 0 .. 3 {
                    let s = isend(dst = 1, tag = i, bytes = 1m);
                }
                waitall();
            } else {
                comp(cycles = 23_000_000); // 10 ms before the first recv
                for i in 0 .. 3 {
                    recv(src = 0, tag = i);
                }
            }
        }
    "#;
    let deps = run_deps(src, 2);
    assert_eq!(deps, vec![(0, 0), (0, 1), (0, 2)]);

    let res = run(src, 2).unwrap();
    assert!(
        res.rank_elapsed[0] >= 0.01,
        "waitall blocked on the rendezvous handshakes: {}",
        res.rank_elapsed[0]
    );
}

#[test]
fn waitall_after_unmatched_wildcard_irecv_deadlocks() {
    // The inverse corner: a wildcard irecv with no sender anywhere must
    // surface as a deadlock (not an infinite quiescence loop) when the
    // rank does wait on it.
    let src = r#"
        fn main() {
            if rank == 0 {
                let q = irecv(src = any, tag = any);
                waitall();
            }
        }
    "#;
    let err = run(src, 2).unwrap_err();
    let SimError::Deadlock { detail } = err else {
        panic!("expected deadlock, got {err:?}")
    };
    assert!(
        detail.contains("rank 0: blocked in MPI_Waitall on requests [1]"),
        "detail names the waited-on request: {detail}"
    );
}

#[test]
fn wait_on_an_id_that_names_no_live_request_is_unknown() {
    // Ids outside the rank's request window (0, negative, far past the
    // newest) and ids freed by an earlier wait, at the window's front and
    // in a hole behind a live request, are all unknown.
    let src = r#"
        param ID = 0;
        param FREE = 0;
        fn main() {
            if rank == 0 {
                let a = irecv(src = 1, tag = 0);
                let b = irecv(src = 1, tag = 1);
                let c = irecv(src = 1, tag = 2);
                if FREE == 1 {
                    wait(a);
                    wait(a);
                } else if FREE == 2 {
                    wait(b);
                    wait(b);
                } else {
                    wait(ID);
                }
                waitall();
            } else {
                send(dst = 0, tag = 0, bytes = 8);
                send(dst = 0, tag = 1, bytes = 8);
                send(dst = 0, tag = 2, bytes = 8);
            }
        }
    "#;
    let program = parse_program("t.mmpi", src).unwrap();
    let psg = build_psg(&program, &PsgOptions::default());
    let run = |id: i64, free: i64| {
        let config = SimConfig::with_nprocs(2)
            .with_param("ID", id)
            .with_param("FREE", free);
        Simulation::new(&program, &psg, config).run()
    };
    for id in [0, -1, -7, i64::MIN, 4, i64::MAX] {
        assert_eq!(
            run(id, 0).unwrap_err(),
            SimError::UnknownRequest { rank: 0, req: id },
            "wait({id})"
        );
    }
    assert_eq!(
        run(0, 1).unwrap_err(),
        SimError::UnknownRequest { rank: 0, req: 1 },
        "freed at the front"
    );
    assert_eq!(
        run(0, 2).unwrap_err(),
        SimError::UnknownRequest { rank: 0, req: 2 },
        "freed in a hole"
    );
    // Each live id waits fine.
    for id in 1..=3 {
        run(id, 0).unwrap();
    }
}

#[test]
fn waits_in_any_order_over_a_thousand_requests_give_one_result() {
    // Every rank posts 500 receives and 500 eager sends, so its request
    // ids are 1 ..= 1000, computes long enough for every message to
    // arrive, then waits on each id once, stepping through the ids by
    // STRIDE (coprime to 1000): in post order (1), nearly reversed (999),
    // or scattered (337), which leaves holes all over the request window.
    // Every wait finds its request complete, so the order cannot change
    // any clock.
    let src = r#"
        param STRIDE = 1;
        fn main() {
            let right = (rank + 1) % nprocs;
            let left = (rank + nprocs - 1) % nprocs;
            for i in 0 .. 500 {
                let r = irecv(src = left, tag = i);
            }
            for i in 0 .. 500 {
                let s = isend(dst = right, tag = i, bytes = 64 + i);
            }
            comp(cycles = 230_000_000);
            for i in 0 .. 1000 {
                wait(i * STRIDE % 1000 + 1);
            }
            waitall();
            barrier();
        }
    "#;
    let program = parse_program("t.mmpi", src).unwrap();
    let psg = build_psg(&program, &PsgOptions::default());
    let run = |stride: i64| {
        let config = SimConfig::with_nprocs(4).with_param("STRIDE", stride);
        Simulation::new(&program, &psg, config).run().unwrap()
    };
    let in_order = run(1);
    assert_eq!(run(999), in_order, "reversed");
    assert_eq!(run(337), in_order, "scattered");
}

#[test]
fn ping_pong_with_a_new_tag_per_message() {
    // Every message drains its `(source, tag)` pair before the next
    // pair appears, so the receiver's queue table re-keys one entry
    // over and over. Matching must be unaffected, including the
    // any-tag and wildcard receives that scan the whole table.
    let src = r#"
        fn main() {
            for i in 0 .. 200 {
                if rank == 0 {
                    send(dst = 1, tag = 2 * i, bytes = 64);
                    recv(src = 1, tag = 2 * i + 1);
                } else {
                    recv(src = 0, tag = 2 * i);
                    send(dst = 0, tag = 2 * i + 1, bytes = 64);
                }
            }
            if rank == 0 {
                send(dst = 1, tag = 9001, bytes = 64);
                send(dst = 1, tag = 9000, bytes = 64);
            } else {
                recv(src = 0, tag = any);
                recv(src = any, tag = any);
            }
        }
    "#;
    let deps = run_deps(src, 2);
    let mut expected: Vec<(usize, i64)> = (0..400).map(|t| ((t % 2) as usize, t)).collect();
    expected.extend([(0, 9001), (0, 9000)]);
    assert_eq!(deps, expected);
}
