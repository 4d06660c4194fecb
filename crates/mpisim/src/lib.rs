//! # mpirical-sim
//!
//! A simulated MPI runtime: point-to-point messages travel through per-rank
//! mailboxes with MPI's `(source, tag)` matching semantics (wildcards
//! included) and non-overtaking order, and the collectives the paper's
//! benchmark programs use (Barrier, Bcast, Reduce, Allreduce, Gather,
//! Scatter, Allgather) are built on top with deterministic rank-ordered
//! reductions. All of it is one state machine, [`Matcher`], with no thread,
//! lock or clock: an operation that cannot complete yet returns `Pending`
//! and runs again when its rank is resumed. [`World::run_stepped`] steps
//! resumable ranks on the calling thread, lowest-numbered runnable rank
//! first, so a world's outcome depends only on its ranks;
//! [`World::run`] runs blocking Rust closures, one thread per rank (rank 0
//! on the caller's), over the same machine.
//!
//! In the paper, generated benchmark programs are validated by *compiling
//! and running* them with a real MPI installation (§VI-C). Offline, this
//! crate plus the `mpirical-interp` C interpreter substitute that check: a
//! program is valid iff it parses, runs on N simulated ranks without fault,
//! and reproduces the serial reference answer. A deadlocked program fails
//! deterministically instead of hanging: the world is declared dead the
//! instant every rank still in it is blocked in a receive, with the same
//! [`SimError::Deadlock`] snapshot on every rank and no timer involved.
//!
//! ```
//! use mpirical_sim::{World, ReduceOp};
//!
//! // Distributed dot-product of [0,1,2,3] with itself over 2 ranks.
//! let results = World::run(2, |comm| {
//!     let mine: Vec<f64> = (0..4)
//!         .filter(|i| i % comm.size() == comm.rank())
//!         .map(|i| (i * i) as f64)
//!         .collect();
//!     let local: f64 = mine.iter().sum();
//!     let mut global = [0.0f64];
//!     comm.allreduce(&[local], &mut global, ReduceOp::Sum)?;
//!     Ok(global[0])
//! })
//! .unwrap();
//! assert_eq!(results, vec![14.0, 14.0]);
//! ```

pub mod comm;
pub mod datatype;
pub mod error;
pub mod world;

pub use comm::{Matcher, Source, Status, Tag};
pub use datatype::{Datatype, ReduceOp, Reducible};
pub use error::{BlockedOp, SimError};
pub use world::{Comm, World};

#[cfg(test)]
mod tests {
    use super::*;
    use std::task::Poll;

    #[test]
    fn rank_and_size() {
        let out = World::run(4, |c| Ok((c.rank(), c.size()))).unwrap();
        assert_eq!(out, vec![(0, 4), (1, 4), (2, 4), (3, 4)]);
    }

    #[test]
    fn single_rank_world() {
        let out = World::run(1, |c| {
            c.barrier()?;
            let mut buf = [0i32; 1];
            c.bcast(&mut buf, 0)?;
            Ok(c.rank())
        })
        .unwrap();
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn basic_send_recv() {
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                c.send(&[42i32, 7], 1, 5)?;
                Ok(0)
            } else {
                let mut buf = [0i32; 2];
                let st = c.recv(&mut buf, Source::Rank(0), Tag::Value(5))?;
                assert_eq!(st.source, 0);
                assert_eq!(st.tag, 5);
                assert_eq!(st.count, 2);
                Ok(buf[0] + buf[1])
            }
        })
        .unwrap();
        assert_eq!(out[1], 49);
    }

    #[test]
    fn fifo_order_per_source_tag() {
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                for i in 0..10i32 {
                    c.send(&[i], 1, 3)?;
                }
                Ok(vec![])
            } else {
                let mut got = Vec::new();
                for _ in 0..10 {
                    let mut buf = [0i32];
                    c.recv(&mut buf, Source::Rank(0), Tag::Value(3))?;
                    got.push(buf[0]);
                }
                Ok(got)
            }
        })
        .unwrap();
        assert_eq!(out[1], (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn tag_selectivity() {
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                c.send(&[1i32], 1, 10)?;
                c.send(&[2i32], 1, 20)?;
                Ok(0)
            } else {
                // Receive tag 20 first even though tag 10 arrived earlier.
                let mut buf = [0i32];
                c.recv(&mut buf, Source::Rank(0), Tag::Value(20))?;
                let first = buf[0];
                c.recv(&mut buf, Source::Rank(0), Tag::Value(10))?;
                Ok(first * 10 + buf[0])
            }
        })
        .unwrap();
        assert_eq!(out[1], 21);
    }

    #[test]
    fn any_source_any_tag() {
        let out = World::run(3, |c| {
            if c.rank() == 0 {
                let mut sum = 0;
                for _ in 0..2 {
                    let mut buf = [0i32];
                    let st = c.recv(&mut buf, Source::Any, Tag::Any)?;
                    assert!(st.source == 1 || st.source == 2);
                    sum += buf[0];
                }
                Ok(sum)
            } else {
                c.send(&[c.rank() as i32 * 100], 0, c.rank() as i32)?;
                Ok(0)
            }
        })
        .unwrap();
        assert_eq!(out[0], 300);
    }

    #[test]
    fn type_mismatch_detected() {
        let err = World::run(2, |c| {
            if c.rank() == 0 {
                c.send(&[1.5f64], 1, 0)?;
            } else {
                let mut buf = [0i32];
                c.recv(&mut buf, Source::Rank(0), Tag::Value(0))?;
            }
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(err, SimError::TypeMismatch { .. }), "{err}");
    }

    #[test]
    fn truncation_detected() {
        let err = World::run(2, |c| {
            if c.rank() == 0 {
                c.send(&[1i32, 2, 3, 4], 1, 0)?;
            } else {
                let mut buf = [0i32; 2];
                c.recv(&mut buf, Source::Rank(0), Tag::Value(0))?;
            }
            Ok(())
        })
        .unwrap_err();
        assert!(
            matches!(
                err,
                SimError::Truncation {
                    buffer: 2,
                    incoming: 4,
                    ..
                }
            ),
            "{err}"
        );
    }

    /// The `blocked` snapshot of a world that must deadlock, as
    /// `(rank, pending op)` pairs.
    fn blocked_of<F>(nranks: usize, f: F) -> Vec<(usize, String)>
    where
        F: Fn(&Comm) -> Result<(), SimError> + Send + Sync,
    {
        let err = World::run(nranks, f).unwrap_err();
        let SimError::Deadlock { rank, blocked, .. } = &err else {
            panic!("expected deadlock, got {err}");
        };
        assert_eq!(
            *rank, blocked[0].rank,
            "reported by the lowest blocked rank"
        );
        blocked.iter().map(|b| (b.rank, b.op.clone())).collect()
    }

    fn recv_from(c: &Comm, peer: usize, tag: i32) -> Result<(), SimError> {
        let mut buf = [0i32];
        c.recv(&mut buf, Source::Rank(peer), Tag::Value(tag))?;
        Ok(())
    }

    #[test]
    fn deadlock_detected() {
        // Everyone receives, nobody sends.
        let blocked = blocked_of(2, |c| {
            let mut buf = [0i32];
            c.recv(&mut buf, Source::Any, Tag::Any)?;
            Ok(())
        });
        let op = "recv(source=Any, tag=Any)".to_string();
        assert_eq!(blocked, [(0, op.clone()), (1, op)]);
    }

    #[test]
    fn deadlock_names_blocked_ranks_and_pending_ops() {
        // Classic recv/recv cycle: rank 0 waits on 1, rank 1 waits on 0.
        // The report names BOTH blocked ranks and what each was waiting for.
        let blocked = blocked_of(2, |c| recv_from(c, 1 - c.rank(), 7));
        assert_eq!(
            blocked,
            [
                (0, "recv(source=Rank(1), tag=Value(7))".to_string()),
                (1, "recv(source=Rank(0), tag=Value(7))".to_string()),
            ]
        );
    }

    #[test]
    fn peer_that_returns_leaves_its_waiter_deadlocked() {
        // Rank 1 returns without sending: the departure, not a receive, is
        // the event that makes every live rank blocked.
        let blocked = blocked_of(2, |c| match c.rank() {
            0 => recv_from(c, 1, 3),
            _ => Ok(()),
        });
        assert_eq!(
            blocked,
            [(0, "recv(source=Rank(1), tag=Value(3))".to_string())]
        );
    }

    #[test]
    fn barrier_one_rank_never_enters_is_deadlock() {
        let blocked = blocked_of(4, |c| match c.rank() {
            3 => Ok(()),
            _ => c.barrier(),
        });
        // Rank 0 gathers tokens in rank order and stalls on the missing one;
        // ranks 1 and 2 wait for its release.
        assert_eq!(
            blocked,
            [
                (0, "collective recv(source=3, tag=-2)".to_string()),
                (1, "collective recv(source=0, tag=-2)".to_string()),
                (2, "collective recv(source=0, tag=-2)".to_string()),
            ]
        );
    }

    /// Deadlock is declared at quiescence, not by a timer: launching the two
    /// worlds above and getting their verdicts takes under 50 ms a world
    /// (a wall-clock detector would take its whole timeout).
    #[test]
    fn deadlock_is_declared_in_under_50_ms() {
        let t = std::time::Instant::now();
        blocked_of(2, |c| recv_from(c, 1 - c.rank(), 0));
        blocked_of(4, |c| match c.rank() {
            3 => Ok(()),
            _ => c.barrier(),
        });
        let per_cycle = t.elapsed() / 2;
        assert!(
            per_cycle < std::time::Duration::from_millis(50),
            "deadlock detection took {per_cycle:?} per cycle"
        );
    }

    #[test]
    fn two_ranks_cycle_while_a_third_computes_then_exits() {
        let blocked = blocked_of(3, |c| match c.rank() {
            2 => {
                let busy: u64 = (0..200_000u64).map(std::hint::black_box).sum();
                assert!(busy > 0);
                Ok(())
            }
            r => recv_from(c, 1 - r, 5),
        });
        assert_eq!(
            blocked,
            [
                (0, "recv(source=Rank(1), tag=Value(5))".to_string()),
                (1, "recv(source=Rank(0), tag=Value(5))".to_string()),
            ]
        );
    }

    #[test]
    fn lone_rank_receiving_from_itself_is_deadlock() {
        let blocked = blocked_of(1, |c| recv_from(c, 0, 0));
        assert_eq!(
            blocked,
            [(0, "recv(source=Rank(0), tag=Value(0))".to_string())]
        );
    }

    #[test]
    fn slow_sender_is_not_a_deadlock() {
        // Rank 1 sleeps in its receive for as long as rank 0 computes —
        // longer than the 2 s timer that used to call this a deadlock — and
        // is still served: one running rank keeps the world live.
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2_100));
                c.send(&[11i32], 1, 0)?;
                Ok(0)
            } else {
                let mut buf = [0i32];
                c.recv(&mut buf, Source::Rank(0), Tag::Value(0))?;
                Ok(buf[0])
            }
        })
        .unwrap();
        assert_eq!(out, vec![0, 11]);
    }

    #[test]
    fn out_of_bounds_rank() {
        let err = World::run(2, |c| {
            c.send(&[1i32], 7, 0)?;
            Ok(())
        })
        .unwrap_err();
        assert!(matches!(
            err,
            SimError::RankOutOfBounds { requested: 7, .. }
        ));
    }

    #[test]
    fn panic_in_rank_is_captured() {
        let err = World::run(2, |c| {
            if c.rank() == 1 {
                panic!("boom at rank 1");
            }
            Ok(c.rank())
        })
        .unwrap_err();
        match err {
            SimError::RankPanicked { rank, message } => {
                assert_eq!(rank, 1);
                assert!(message.contains("boom"));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn abort_wakes_blocked_ranks() {
        let err = World::run(2, |c| {
            if c.rank() == 0 {
                Err(c.abort(9))
            } else {
                let mut buf = [0i32];
                c.recv(&mut buf, Source::Any, Tag::Any)?;
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!(err, SimError::Aborted { rank: 0, code: 9 });
    }

    #[test]
    fn failing_rank_is_the_root_cause_not_its_blocked_peer() {
        // Finding 8 of benchmark/README.md: a rank asleep in `recv` while
        // its peer fails used to miss the wake-up now and then (about one
        // `run_program` call in 10 000) and report a deadlock after the full
        // timeout. The failure is now published under the lock the
        // sleeper holds between its check and its wait, so every run must
        // return the root cause — here also when it sits at the higher rank.
        for i in 0..20_000 {
            let failing = i % 2;
            let err = World::run(2, |c| {
                if c.rank() != failing {
                    return recv_from(c, failing, 1);
                }
                match i % 3 {
                    0 => Err(c.abort(9)),
                    1 => {
                        c.send(&[1.5f64], failing, 0)?;
                        recv_from(c, failing, 0)
                    }
                    _ => c.send(&[1i32], 7, 0),
                }
            })
            .unwrap_err();
            assert_eq!(err.rank(), failing, "run {i}: {err}");
            assert!(!matches!(err, SimError::Deadlock { .. }), "run {i}: {err}");
        }
    }

    #[test]
    fn a_panic_is_the_root_cause_before_a_lower_ranks_error() {
        let own = SimError::RankOutOfBounds {
            rank: 0,
            requested: 5,
        };
        let panicked = SimError::RankPanicked {
            rank: 2,
            message: "boom".into(),
        };
        let echo = SimError::Aborted { rank: 0, code: 1 };
        let ends = vec![
            Some(Err(own.clone())),
            Some(Err(echo.clone())),
            Some(Err(panicked.clone())),
        ];
        assert_eq!(World::outcome::<()>(ends), Err(panicked));
        // Without a panic: the lowest-rank error that is not an echo, and
        // an error that carries no `SimError` is the rank's own.
        let ends = vec![None, Some(Err(Some(echo))), Some(Err(None))];
        assert_eq!(World::outcome_by::<(), _>(ends, Option::as_ref), Err(None));
        let ends = vec![
            Some(Err(SimError::Aborted { rank: 1, code: 1 })),
            Some(Err(own.clone())),
        ];
        assert_eq!(World::outcome::<()>(ends), Err(own));
    }

    /// A rank of a stepped world that receives one `i32` from `peer`.
    fn stepped_recv(m: &mut Matcher, me: usize, peer: usize) -> Result<Poll<()>, SimError> {
        Ok(m.recv(me, &mut [0i32], Source::Rank(peer), Tag::Value(0))?
            .map(drop))
    }

    #[test]
    fn stepped_world_stops_above_the_rank_that_failed() {
        // Rank 0 waits for rank 2; rank 1 fails at once, so rank 0 gets the
        // halt and rank 2, above the failure, never runs.
        let mut resumes = [0usize; 3];
        let ends = World::run_stepped(3, |rank, m| {
            resumes[rank] += 1;
            match rank {
                0 => stepped_recv(m, 0, 2),
                1 => Err(SimError::RankOutOfBounds {
                    rank: 1,
                    requested: 9,
                }),
                _ => Ok(Poll::Ready(())),
            }
        });
        assert_eq!(resumes, [2, 1, 0]);
        assert_eq!(ends[0], Some(Err(SimError::Aborted { rank: 1, code: 1 })));
        assert_eq!(ends[2], None);
        assert_eq!(
            World::outcome(ends),
            Err(SimError::RankOutOfBounds {
                rank: 1,
                requested: 9
            })
        );
    }

    #[test]
    fn stepped_world_resumes_a_rank_once_its_message_arrives() {
        let mut resumes = [0usize; 2];
        let ends = World::run_stepped(2, |rank, m| {
            resumes[rank] += 1;
            match rank {
                0 => stepped_recv(m, 0, 1),
                _ => m.send(1, &[5i32], 0, 0).map(Poll::Ready),
            }
        });
        assert_eq!(resumes, [2, 1]);
        assert_eq!(World::outcome(ends), Ok(vec![(), ()]));
    }

    #[test]
    fn stepped_deadlock_reaches_every_blocked_rank() {
        let ends = World::run_stepped(2, |rank, m| stepped_recv(m, rank, 1 - rank));
        let Some(Err(first)) = &ends[0] else {
            panic!("rank 0 gets the halt: {ends:?}");
        };
        assert!(matches!(first, SimError::Deadlock { .. }), "{first}");
        assert_eq!(ends[1].as_ref(), Some(&Err(first.clone())));
    }

    #[test]
    fn stepped_world_catches_a_panicking_rank() {
        let ends = World::run_stepped(2, |rank, m| {
            if rank == 1 {
                panic!("boom at rank 1");
            }
            stepped_recv(m, 0, 1)
        });
        match World::outcome(ends) {
            Err(SimError::RankPanicked { rank, message }) => {
                assert_eq!(rank, 1);
                assert!(message.contains("boom"));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let before = AtomicUsize::new(0);
        let violations = AtomicUsize::new(0);
        World::run(4, |c| {
            before.fetch_add(1, Ordering::SeqCst);
            c.barrier()?;
            // After the barrier every rank must observe all four arrivals.
            if before.load(Ordering::SeqCst) != 4 {
                violations.fetch_add(1, Ordering::SeqCst);
            }
            Ok(())
        })
        .unwrap();
        assert_eq!(violations.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn bcast_delivers_to_all() {
        let out = World::run(4, |c| {
            let mut buf = [0i32; 3];
            if c.rank() == 2 {
                buf = [7, 8, 9];
            }
            c.bcast(&mut buf, 2)?;
            Ok(buf.to_vec())
        })
        .unwrap();
        for r in out {
            assert_eq!(r, vec![7, 8, 9]);
        }
    }

    #[test]
    fn reduce_sum_and_prod() {
        let out = World::run(4, |c| {
            let x = [(c.rank() + 1) as i64];
            let mut sum = [0i64];
            let mut prod = [0i64];
            if c.rank() == 0 {
                c.reduce(&x, Some(&mut sum), ReduceOp::Sum, 0)?;
                c.reduce(&x, Some(&mut prod), ReduceOp::Prod, 0)?;
            } else {
                c.reduce(&x, None, ReduceOp::Sum, 0)?;
                c.reduce(&x, None, ReduceOp::Prod, 0)?;
            }
            Ok((sum[0], prod[0]))
        })
        .unwrap();
        assert_eq!(out[0], (10, 24)); // 1+2+3+4, 1·2·3·4
    }

    #[test]
    fn reduce_min_max_vectors() {
        let out = World::run(3, |c| {
            let x = [c.rank() as f64, 10.0 - c.rank() as f64];
            let mut mn = [0.0f64; 2];
            let mut mx = [0.0f64; 2];
            if c.rank() == 0 {
                c.reduce(&x, Some(&mut mn), ReduceOp::Min, 0)?;
                c.reduce(&x, Some(&mut mx), ReduceOp::Max, 0)?;
            } else {
                c.reduce(&x, None, ReduceOp::Min, 0)?;
                c.reduce(&x, None, ReduceOp::Max, 0)?;
            }
            Ok((mn.to_vec(), mx.to_vec()))
        })
        .unwrap();
        assert_eq!(out[0].0, vec![0.0, 8.0]);
        assert_eq!(out[0].1, vec![2.0, 10.0]);
    }

    #[test]
    fn allreduce_agrees_everywhere() {
        let out = World::run(5, |c| {
            let mut total = [0i64];
            c.allreduce(&[c.rank() as i64], &mut total, ReduceOp::Sum)?;
            Ok(total[0])
        })
        .unwrap();
        assert_eq!(out, vec![10; 5]);
    }

    #[test]
    fn gather_concatenates_in_rank_order() {
        let out = World::run(4, |c| {
            let mine = [(c.rank() * 10) as i32, (c.rank() * 10 + 1) as i32];
            let mut all = [0i32; 8];
            if c.rank() == 0 {
                c.gather(&mine, Some(&mut all), 0)?;
            } else {
                c.gather(&mine, None, 0)?;
            }
            Ok(all.to_vec())
        })
        .unwrap();
        assert_eq!(out[0], vec![0, 1, 10, 11, 20, 21, 30, 31]);
    }

    #[test]
    fn scatter_distributes_chunks() {
        let out = World::run(4, |c| {
            let mut mine = [0i32; 2];
            if c.rank() == 0 {
                let all: Vec<i32> = (0..8).collect();
                c.scatter(Some(&all), &mut mine, 0)?;
            } else {
                c.scatter(None, &mut mine, 0)?;
            }
            Ok(mine.to_vec())
        })
        .unwrap();
        assert_eq!(out[1], vec![2, 3]);
        assert_eq!(out[3], vec![6, 7]);
    }

    #[test]
    fn allgather_everyone_sees_everything() {
        let out = World::run(3, |c| {
            let mut all = [0f64; 3];
            c.allgather(&[c.rank() as f64 + 0.5], &mut all)?;
            Ok(all.to_vec())
        })
        .unwrap();
        for r in out {
            assert_eq!(r, vec![0.5, 1.5, 2.5]);
        }
    }

    #[test]
    fn sendrecv_ring_rotation() {
        let out = World::run(4, |c| {
            let next = (c.rank() + 1) % c.size();
            let prev = (c.rank() + c.size() - 1) % c.size();
            let mut got = [0i32];
            c.sendrecv(
                &[c.rank() as i32],
                next,
                1,
                &mut got,
                Source::Rank(prev),
                Tag::Value(1),
            )?;
            Ok(got[0])
        })
        .unwrap();
        assert_eq!(out, vec![3, 0, 1, 2]);
    }

    #[test]
    fn consecutive_collectives_do_not_crosstalk() {
        // Two bcasts back to back with different roots and values; a rank
        // that lags must still get them in order.
        let out = World::run(3, |c| {
            let mut a = [0i32];
            let mut b = [0i32];
            if c.rank() == 0 {
                a = [100];
            }
            c.bcast(&mut a, 0)?;
            if c.rank() == 1 {
                b = [200];
            }
            c.bcast(&mut b, 1)?;
            Ok((a[0], b[0]))
        })
        .unwrap();
        for r in out {
            assert_eq!(r, (100, 200));
        }
    }

    #[test]
    fn wildcard_recv_ignores_collective_traffic() {
        // A pending barrier token must not be stolen by Tag::Any.
        let out = World::run(2, |c| {
            if c.rank() == 0 {
                c.send(&[5i32], 1, 0)?;
                c.barrier()?;
                Ok(0)
            } else {
                c.barrier()?;
                let mut buf = [0i32];
                let st = c.recv(&mut buf, Source::Any, Tag::Any)?;
                assert_eq!(st.tag, 0, "user message, not collective internals");
                Ok(buf[0])
            }
        })
        .unwrap();
        assert_eq!(out[1], 5);
    }

    #[test]
    fn wtime_monotone() {
        World::run(1, |c| {
            let a = c.wtime();
            let b = c.wtime();
            assert!(b >= a);
            assert!(a >= 0.0);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn reduce_deterministic_order() {
        // Floating-point reduce must be bit-identical across runs (rank
        // order accumulation).
        let run = || {
            World::run(7, |c| {
                let x = [
                    0.1f64 * (c.rank() as f64 + 1.0),
                    1e-9 / (c.rank() as f64 + 1.0),
                ];
                let mut sum = [0.0f64; 2];
                if c.rank() == 0 {
                    c.reduce(&x, Some(&mut sum), ReduceOp::Sum, 0)?;
                } else {
                    c.reduce(&x, None, ReduceOp::Sum, 0)?;
                }
                Ok(sum.to_vec())
            })
            .unwrap()[0]
                .clone()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "bit-identical across runs");
    }

    #[test]
    fn pi_riemann_integration_end_to_end() {
        // The paper's running example: distributed pi, must match serial.
        let n = 10_000usize;
        let nranks = 4;
        let out = World::run(nranks, |c| {
            let step = 1.0 / n as f64;
            let mut local = 0.0f64;
            let mut i = c.rank();
            while i < n {
                let x = (i as f64 + 0.5) * step;
                local += 4.0 / (1.0 + x * x);
                i += c.size();
            }
            local *= step;
            let mut pi = [0.0f64];
            if c.rank() == 0 {
                c.reduce(&[local], Some(&mut pi), ReduceOp::Sum, 0)?;
            } else {
                c.reduce(&[local], None, ReduceOp::Sum, 0)?;
            }
            Ok(pi[0])
        })
        .unwrap();
        assert!(
            (out[0] - std::f64::consts::PI).abs() < 1e-6,
            "pi = {}",
            out[0]
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Allreduce(sum) equals the serial sum for arbitrary inputs and
        /// world sizes.
        #[test]
        fn allreduce_matches_serial(
            nranks in 1usize..6,
            values in proptest::collection::vec(-1000i64..1000, 1..6),
        ) {
            let per_rank: Vec<Vec<i64>> = (0..nranks)
                .map(|r| values.iter().map(|v| v + r as i64).collect())
                .collect();
            let expected: Vec<i64> = (0..values.len())
                .map(|i| per_rank.iter().map(|v| v[i]).sum())
                .collect();
            let per_rank_ref = &per_rank;
            let out = World::run(nranks, move |c| {
                let mine = &per_rank_ref[c.rank()];
                let mut total = vec![0i64; mine.len()];
                c.allreduce(mine, &mut total, ReduceOp::Sum)?;
                Ok(total)
            }).unwrap();
            for r in out {
                prop_assert_eq!(&r, &expected);
            }
        }

        /// gather ∘ scatter is the identity on root's buffer.
        #[test]
        fn scatter_gather_roundtrip(
            nranks in 1usize..5,
            chunk in 1usize..5,
        ) {
            let total = nranks * chunk;
            let data: Vec<i32> = (0..total as i32).collect();
            let data_ref = &data;
            let out = World::run(nranks, move |c| {
                let mut mine = vec![0i32; chunk];
                if c.rank() == 0 {
                    c.scatter(Some(data_ref), &mut mine, 0)?;
                } else {
                    c.scatter(None, &mut mine, 0)?;
                }
                let mut back = vec![0i32; total];
                if c.rank() == 0 {
                    c.gather(&mine, Some(&mut back), 0)?;
                } else {
                    c.gather(&mine, None, 0)?;
                }
                Ok(back)
            }).unwrap();
            prop_assert_eq!(&out[0], &data);
        }

        /// Messages between a fixed (src, dst, tag) triple never overtake.
        #[test]
        fn non_overtaking(n_msgs in 1usize..20) {
            let out = World::run(2, move |c| {
                if c.rank() == 0 {
                    for i in 0..n_msgs as i32 {
                        c.send(&[i], 1, 9)?;
                    }
                    Ok(vec![])
                } else {
                    let mut got = Vec::new();
                    for _ in 0..n_msgs {
                        let mut buf = [0i32];
                        c.recv(&mut buf, Source::Rank(0), Tag::Value(9))?;
                        got.push(buf[0]);
                    }
                    Ok(got)
                }
            }).unwrap();
            prop_assert_eq!(&out[1], &(0..n_msgs as i32).collect::<Vec<_>>());
        }
    }
}
