//! `mpisim`'s quiescence rule against a single-threaded reference scheduler.
//!
//! Random per-rank scripts of `send`/`recv`/`barrier`/`bcast`/`reduce` over
//! 2–4 ranks, with exact sources and tags, have one outcome whatever the
//! thread schedule: they complete, or they get stuck with a fixed set of
//! ranks each waiting for a fixed message. The reference below computes
//! that outcome by running the scripts to a fixpoint on one thread; the
//! simulated world must agree — it completes iff the reference completes
//! (so no completing script is ever called a deadlock), and on a stuck
//! script its `blocked` snapshot is the reference's stuck set exactly.
//! Every case runs 8 times through the threaded `World::run` beside one
//! busy-looping thread per core, and all 8 outcomes must be identical: the
//! verdict does not depend on who got the CPU. The same scripts, stepped on
//! one thread over the `Matcher` by `World::run_stepped` (each rank resuming
//! at the operation it waited in), must reach that same outcome.

use mpirical_sim::{Comm, Matcher, ReduceOp, SimError, Source, Tag, World};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::task::Poll;

#[derive(Debug, Clone, Copy)]
enum Op {
    Send { dest: usize, tag: i32 },
    Recv { src: usize, tag: i32 },
    Barrier,
    Bcast { root: usize },
    Reduce { root: usize },
}

/// Scripts that complete by construction — every event of one global order
/// is appended to the ranks it involves, so that order is a valid schedule —
/// then broken by deleting up to two operations anywhere: a lost send
/// strands its receiver, a skipped collective shifts every later collective
/// tag of that rank, a lost receive changes nothing.
fn scripts(
    nranks: usize,
    events: &[((u8, usize, usize), i32)],
    drops: &[(usize, usize)],
) -> Vec<Vec<Op>> {
    let mut scripts = vec![Vec::new(); nranks];
    for &((kind, a, b), tag) in events {
        let (a, b) = (a % nranks, b % nranks);
        match kind {
            0 | 1 => {
                scripts[a].push(Op::Send { dest: b, tag });
                scripts[b].push(Op::Recv { src: a, tag });
            }
            2 => scripts.iter_mut().for_each(|s| s.push(Op::Barrier)),
            3 => scripts
                .iter_mut()
                .for_each(|s| s.push(Op::Bcast { root: a })),
            _ => scripts
                .iter_mut()
                .for_each(|s| s.push(Op::Reduce { root: a })),
        }
    }
    for &(rank, at) in drops {
        let script = &mut scripts[rank % nranks];
        if !script.is_empty() {
            script.remove(at % script.len());
        }
    }
    scripts
}

fn run_script(c: &Comm, script: &[Op]) -> Result<(), SimError> {
    let mut buf = [0i32];
    for &op in script {
        match op {
            Op::Send { dest, tag } => c.send(&[7i32], dest, tag)?,
            Op::Recv { src, tag } => {
                c.recv(&mut buf, Source::Rank(src), Tag::Value(tag))?;
            }
            Op::Barrier => c.barrier()?,
            Op::Bcast { root } => c.bcast(&mut buf, root)?,
            Op::Reduce { root } => {
                let out = (c.rank() == root).then_some(&mut buf[..]);
                c.reduce(&[1i32], out, ReduceOp::Sum, root)?;
            }
        }
    }
    Ok(())
}

/// Resume `script` at `pc` on the state machine until it ends or waits; an
/// operation that waits runs again on the next resume.
fn step_script(
    m: &mut Matcher,
    me: usize,
    script: &[Op],
    pc: &mut usize,
) -> Result<Poll<()>, SimError> {
    let mut buf = [0i32];
    while let Some(&op) = script.get(*pc) {
        let polled = match op {
            Op::Send { dest, tag } => Poll::Ready(m.send(me, &[7i32], dest, tag)?),
            Op::Recv { src, tag } => m
                .recv(me, &mut buf, Source::Rank(src), Tag::Value(tag))?
                .map(drop),
            Op::Barrier => m.barrier(me)?,
            Op::Bcast { root } => m.bcast(me, &mut buf, root)?,
            Op::Reduce { root } => {
                let out = (me == root).then_some(&mut buf[..]);
                m.reduce(me, &[1i32], out, ReduceOp::Sum, root)?
            }
        };
        if polled.is_pending() {
            return Ok(Poll::Pending);
        }
        *pc += 1;
    }
    Ok(Poll::Ready(()))
}

/// The scripts' outcome with every rank stepped on the calling thread.
fn run_stepped(scripts: &[Vec<Op>]) -> Result<Vec<()>, SimError> {
    let mut pcs = vec![0; scripts.len()];
    World::outcome(World::run_stepped(scripts.len(), |rank, m| {
        step_script(m, rank, &scripts[rank], &mut pcs[rank])
    }))
}

/// The reference: lower each script to the envelopes `comm.rs` documents
/// for it (collective tag `-2 - k` for a rank's k-th collective), then let
/// every rank run as far as it can, round after round, until nobody moves.
/// Returns the stuck ranks with their pending receive; empty = completes.
///
/// `None` when a misaligned barrier token (a byte) would be received by a
/// `bcast`/`reduce` (an int): that rank fails with a datatype mismatch, and
/// which of several failing ranks fails first is a genuine race.
fn reference(scripts: &[Vec<Op>]) -> Option<Vec<(usize, String)>> {
    let n = scripts.len();
    // (is_send, peer, tag); barrier traffic is the only byte-typed traffic.
    let mut prims: Vec<Vec<(bool, usize, i32)>> = vec![Vec::new(); n];
    let mut byte_tags: Vec<Vec<i32>> = vec![Vec::new(); n];
    for (me, script) in scripts.iter().enumerate() {
        let others = || (0..n).filter(move |&r| r != me);
        let mut collectives = 0;
        for &op in script {
            let coll_tag = -2 - collectives;
            match op {
                Op::Send { dest, tag } => prims[me].push((true, dest, tag)),
                Op::Recv { src, tag } => prims[me].push((false, src, tag)),
                Op::Barrier => {
                    byte_tags[me].push(coll_tag);
                    // Rank 0 gathers a token from everyone, then releases
                    // everyone; the others send theirs and wait.
                    let peers: Vec<usize> = if me == 0 { others().collect() } else { vec![0] };
                    prims[me].extend(peers.iter().map(|&p| (me != 0, p, coll_tag)));
                    prims[me].extend(peers.iter().map(|&p| (me == 0, p, coll_tag)));
                }
                Op::Bcast { root } | Op::Reduce { root } => {
                    let root_sends = matches!(op, Op::Bcast { .. });
                    if me == root {
                        prims[me].extend(others().map(|p| (root_sends, p, coll_tag)));
                    } else {
                        prims[me].push((!root_sends, root, coll_tag));
                    }
                }
            }
            if !matches!(op, Op::Send { .. } | Op::Recv { .. }) {
                collectives += 1;
            }
        }
    }
    let mut pc = vec![0usize; n];
    let is_byte = |rank: usize, tag: i32| byte_tags[rank].contains(&tag);
    let mut mail: Vec<Vec<(usize, i32)>> = vec![Vec::new(); n];
    let mut moved = true;
    while moved {
        moved = false;
        for me in 0..n {
            while let Some(&(is_send, peer, tag)) = prims[me].get(pc[me]) {
                if is_send {
                    mail[peer].push((me, tag));
                } else if let Some(i) = mail[me].iter().position(|&m| m == (peer, tag)) {
                    if is_byte(peer, tag) != is_byte(me, tag) {
                        return None;
                    }
                    mail[me].remove(i);
                } else {
                    break;
                }
                pc[me] += 1;
                moved = true;
            }
        }
    }
    let stuck = (0..n)
        .filter(|&r| pc[r] < prims[r].len())
        .map(|r| {
            let (_, peer, tag) = prims[r][pc[r]];
            let op = if tag < 0 {
                format!("collective recv(source={peer}, tag={tag})")
            } else {
                format!("recv(source=Rank({peer}), tag=Value({tag}))")
            };
            (r, op)
        })
        .collect();
    Some(stuck)
}

/// Run `f` while one busy-looping thread per core competes with the rank
/// threads for the CPU.
fn under_contention<T>(f: impl FnOnce() -> T) -> T {
    let stop = AtomicBool::new(false);
    let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
    std::thread::scope(|scope| {
        for _ in 0..cores {
            scope.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            });
        }
        let out = f();
        stop.store(true, Ordering::Relaxed);
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn world_agrees_with_the_reference_scheduler(
        nranks in 2usize..=4,
        events in proptest::collection::vec(((0u8..5, 0usize..4, 0usize..4), 0i32..3), 0..12),
        drops in proptest::collection::vec((0usize..4, 0usize..64), 0..3),
    ) {
        let scripts = scripts(nranks, &events, &drops);
        let Some(stuck) = reference(&scripts) else { continue };
        let outcomes: Vec<Result<Vec<()>, SimError>> = under_contention(|| {
            (0..8)
                .map(|_| World::run(nranks, |c| run_script(c, &scripts[c.rank()])))
                .collect()
        });
        for outcome in &outcomes {
            prop_assert_eq!(outcome, &outcomes[0], "outcome depends on the schedule: {:?}", scripts);
        }
        prop_assert_eq!(&run_stepped(&scripts), &outcomes[0], "stepped on one thread: {:?}", scripts);
        match &outcomes[0] {
            Ok(_) => prop_assert!(stuck.is_empty(), "completed, reference stuck {:?}: {:?}", stuck, scripts),
            Err(SimError::Deadlock { blocked, .. }) => {
                let blocked: Vec<(usize, String)> =
                    blocked.iter().map(|b| (b.rank, b.op.clone())).collect();
                prop_assert_eq!(&blocked, &stuck, "{:?}", scripts);
            }
            Err(other) => panic!("unexpected {other}: {scripts:?}"),
        }
    }
}
