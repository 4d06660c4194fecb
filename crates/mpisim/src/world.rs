//! The two ways to run a world over a [`Matcher`].
//!
//! [`World::run_stepped`] steps resumable ranks on the calling thread and
//! spawns nothing: it always resumes the lowest-numbered rank that is not
//! waiting, which runs until it finishes, fails or blocks, so a world's
//! outcome is a function of its ranks alone. The C interpreter runs every
//! world this way.
//!
//! [`World::run`] runs Rust closures, one per rank, that call blocking MPI
//! operations on a [`Comm`]: rank 0 on the calling thread, ranks `1..n` on
//! scoped threads, the one `Matcher` behind one lock, and each rank asleep
//! on its own condvar while it waits. It is the only place in the
//! simulator with a lock.
//!
//! Either way a rank is live from launch until it finishes or fails, and a
//! world ends when every rank has left, or when every live rank is blocked
//! and each blocked one gets the same [`SimError::Deadlock`]. There is no
//! timer: a rank that computes forever is the caller's to bound.

use crate::comm::{Matcher, Source, Status, Tag};
use crate::datatype::{Datatype, ReduceOp, Reducible};
use crate::error::SimError;
use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::task::Poll;
use std::time::Instant;

/// Entry point of the simulated runtime.
pub struct World;

/// The message of a caught panic.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "unknown panic".to_string())
}

impl World {
    /// Run `f` on `nranks` ranks. Returns each rank's result in rank order,
    /// or the root-cause error ([`World::outcome`]).
    pub fn run<T, F>(nranks: usize, f: F) -> Result<Vec<T>, SimError>
    where
        T: Send,
        F: Fn(&Comm) -> Result<T, SimError> + Send + Sync,
    {
        assert!(nranks > 0, "world needs at least one rank");
        let shared = Arc::new(Shared {
            state: Mutex::new(Matcher::waking(nranks)),
            arrivals: (0..nranks).map(|_| Condvar::new()).collect(),
            start: Instant::now(),
        });
        let run_rank = |rank: usize| {
            let comm = Comm {
                rank,
                shared: Arc::clone(&shared),
            };
            let result = catch_unwind(AssertUnwindSafe(|| f(&comm))).unwrap_or_else(|payload| {
                Err(SimError::RankPanicked {
                    rank,
                    message: panic_message(payload),
                })
            });
            shared.with(|m| m.leave(rank, result.is_err()));
            result
        };
        let mut results: Vec<Option<Result<T, SimError>>> = (0..nranks).map(|_| None).collect();
        let (first, others) = results.split_first_mut().expect("at least one rank");

        crossbeam::scope(|scope| {
            for (slot, rank) in others.iter_mut().zip(1..) {
                let run_rank = &run_rank;
                scope
                    .builder()
                    .name(format!("mpisim-rank-{rank}"))
                    .spawn(move |_| *slot = Some(run_rank(rank)))
                    .expect("spawn rank thread");
            }
            *first = Some(run_rank(0));
        })
        .expect("rank scope");

        Self::outcome(results)
    }

    /// A world's outcome from its ranks' ends in rank order (`None`: never
    /// finished): every rank's value, or the root-cause error
    /// ([`World::outcome_by`]).
    pub fn outcome<T>(ends: Vec<Option<Result<T, SimError>>>) -> Result<Vec<T>, SimError> {
        Self::outcome_by(ends, |e| Some(e))
    }

    /// [`World::outcome`] for ranks whose error type `E` may carry a
    /// [`SimError`], which `sim` returns; an error that carries none is the
    /// rank's own. The root cause is a rank that panicked (the simulator's
    /// fault, not the ranks'), else the lowest-rank error that is not an
    /// echo of a peer's failure ([`SimError::is_echo`]).
    pub fn outcome_by<T, E>(
        ends: Vec<Option<Result<T, E>>>,
        sim: impl Fn(&E) -> Option<&SimError>,
    ) -> Result<Vec<T>, E> {
        let mut out = Vec::with_capacity(ends.len());
        let mut errors = Vec::new();
        for (rank, end) in ends.into_iter().enumerate() {
            match end {
                Some(Ok(v)) => out.push(v),
                Some(Err(e)) => errors.push((rank, e)),
                None => {}
            }
        }
        // `min_by_key` keeps the first of equals: the lowest rank.
        let key = |(rank, e): &(usize, E)| match sim(e) {
            Some(SimError::RankPanicked { .. }) => 0,
            Some(s) if s.is_echo(*rank) => 2,
            _ => 1,
        };
        match errors.into_iter().min_by_key(key) {
            Some((_, e)) => Err(e),
            None => Ok(out),
        }
    }

    /// Step a world of `nranks` resumable ranks on the calling thread.
    /// `step(rank, matcher)` resumes `rank`, which runs until it finishes
    /// (`Ready`), fails (`Err`, a panic included, caught as
    /// [`SimError::RankPanicked`]) or waits in an MPI operation
    /// (`Pending`, with the operation left to run again on the next
    /// resume). The lowest-numbered rank that is neither finished nor
    /// waiting runs next.
    ///
    /// Once the world halts, ranks below the one that stopped it run on
    /// until they finish or fail, and each waiting one is resumed to get
    /// the halt; a rank above it is never resumed again, and its entry
    /// stays `None`. Every live rank of a deadlocked world is waiting, and
    /// each gets the halt. Entries are in rank order.
    pub fn run_stepped<T, E>(
        nranks: usize,
        mut step: impl FnMut(usize, &mut Matcher) -> Result<Poll<T>, E>,
    ) -> Vec<Option<Result<T, E>>>
    where
        E: From<SimError>,
    {
        assert!(nranks > 0, "world needs at least one rank");
        let mut world = Matcher::new(nranks);
        let mut ends: Vec<Option<Result<T, E>>> = (0..nranks).map(|_| None).collect();
        loop {
            let halted = world.halted().is_some();
            let bound = match world.halted() {
                Some(SimError::Aborted { rank, .. }) => *rank,
                _ => nranks,
            };
            let next = (0..bound).find(|&r| ends[r].is_none() && (halted || !world.is_waiting(r)));
            let Some(rank) = next else {
                return ends;
            };
            let outcome = catch_unwind(AssertUnwindSafe(|| step(rank, &mut world)));
            let end = match outcome {
                Ok(Ok(Poll::Pending)) => {
                    debug_assert!(world.is_waiting(rank), "a pending rank waits");
                    continue;
                }
                Ok(Ok(Poll::Ready(v))) => Ok(v),
                Ok(Err(e)) => Err(e),
                Err(payload) => Err(E::from(SimError::RankPanicked {
                    rank,
                    message: panic_message(payload),
                })),
            };
            world.leave(rank, end.is_err());
            ends[rank] = Some(end);
        }
    }
}

/// The [`Matcher`] of a threaded world and what its ranks sleep on.
struct Shared {
    state: Mutex<Matcher>,
    /// One per rank: notified when a send clears its mark, and on the halt.
    arrivals: Vec<Condvar>,
    start: Instant,
}

impl Shared {
    /// Run `op` under the lock, then wake whom it released once the lock
    /// is free, so a woken rank does not wake only to wait for it.
    fn with<R>(&self, op: impl FnOnce(&mut Matcher) -> R) -> R {
        let mut m = self.state.lock();
        let out = op(&mut m);
        let woken = Woken::take(&mut m);
        drop(m);
        woken.notify(&self.arrivals);
        out
    }
}

/// Whom an operation released: the ranks a send delivered to, and every
/// rank once the world has halted. A woken rank runs its operation again,
/// so waking more ranks than needed costs time, never correctness.
enum Woken {
    Nobody,
    One(usize),
    Everyone,
}

impl Woken {
    fn take(m: &mut Matcher) -> Woken {
        let halted = m.halted().is_some();
        let mut woken = m.woken();
        match (woken.next(), woken.next()) {
            _ if halted => Woken::Everyone,
            (None, _) => Woken::Nobody,
            (Some(rank), None) => Woken::One(rank),
            _ => Woken::Everyone,
        }
    }

    fn notify(self, arrivals: &[Condvar]) {
        match self {
            Woken::Nobody => {}
            Woken::One(rank) => arrivals[rank].notify_all(),
            Woken::Everyone => arrivals.iter().for_each(Condvar::notify_all),
        }
    }
}

/// A rank's handle on a threaded world — the `MPI_COMM_WORLD` analogue.
/// Each operation runs the [`Matcher`]'s, and sleeps while that waits.
pub struct Comm {
    rank: usize,
    shared: Arc<Shared>,
}

impl Comm {
    /// This rank's id (`MPI_Comm_rank`).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size (`MPI_Comm_size`).
    pub fn size(&self) -> usize {
        self.shared.arrivals.len()
    }

    /// Seconds since the world started (`MPI_Wtime`).
    pub fn wtime(&self) -> f64 {
        self.shared.start.elapsed().as_secs_f64()
    }

    /// `MPI_Abort`: stop the world and return the error. The first abort
    /// wins; every receive that would otherwise sleep returns it.
    pub fn abort(&self, code: i32) -> SimError {
        self.shared.with(|m| m.abort(self.rank, code))
    }

    /// Run `op` until it is ready, asleep while it waits. The lock is held
    /// from `op` registering the wait until the sleep, so no wake-up is
    /// lost; a world that halted meanwhile makes the next run return the
    /// halt.
    fn blocking<R>(
        &self,
        mut op: impl FnMut(&mut Matcher) -> Result<Poll<R>, SimError>,
    ) -> Result<R, SimError> {
        let arrivals = &self.shared.arrivals;
        let mut m = self.shared.state.lock();
        loop {
            let polled = op(&mut m);
            let woken = Woken::take(&mut m);
            let done = match polled {
                Ok(Poll::Pending) => {
                    woken.notify(arrivals);
                    if m.halted().is_none() {
                        arrivals[self.rank].wait(&mut m);
                    }
                    continue;
                }
                Ok(Poll::Ready(v)) => Ok(v),
                Err(e) => Err(e),
            };
            drop(m);
            woken.notify(arrivals);
            return done;
        }
    }

    /// Buffered standard send (`MPI_Send`): never blocks.
    pub fn send<T: Datatype>(&self, buf: &[T], dest: usize, tag: i32) -> Result<(), SimError> {
        self.shared.with(|m| m.send(self.rank, buf, dest, tag))
    }

    /// Blocking receive (`MPI_Recv`). Fills `buf` with up to `buf.len()`
    /// elements; errors on datatype mismatch or if the message is larger
    /// than the buffer.
    pub fn recv<T: Datatype>(
        &self,
        buf: &mut [T],
        source: Source,
        tag: Tag,
    ) -> Result<Status, SimError> {
        self.blocking(|m| m.recv(self.rank, buf, source, tag))
    }

    /// `MPI_Sendrecv`: post the send, then receive. Safe against pairwise
    /// exchanges because sends are buffered.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv<T: Datatype>(
        &self,
        send_buf: &[T],
        dest: usize,
        send_tag: i32,
        recv_buf: &mut [T],
        source: Source,
        recv_tag: Tag,
    ) -> Result<Status, SimError> {
        self.send(send_buf, dest, send_tag)?;
        self.recv(recv_buf, source, recv_tag)
    }

    /// `MPI_Barrier`.
    pub fn barrier(&self) -> Result<(), SimError> {
        self.blocking(|m| m.barrier(self.rank))
    }

    /// `MPI_Bcast`: root's buffer is copied into every rank's buffer.
    pub fn bcast<T: Datatype>(&self, buf: &mut [T], root: usize) -> Result<(), SimError> {
        self.blocking(|m| m.bcast(self.rank, buf, root))
    }

    /// `MPI_Reduce` with deterministic (rank-ordered) combination at root.
    pub fn reduce<T: Reducible>(
        &self,
        send: &[T],
        mut recv: Option<&mut [T]>,
        op: ReduceOp,
        root: usize,
    ) -> Result<(), SimError> {
        self.blocking(|m| m.reduce(self.rank, send, recv.as_deref_mut(), op, root))
    }

    /// `MPI_Allreduce` = reduce to 0 + broadcast.
    pub fn allreduce<T: Reducible>(
        &self,
        send: &[T],
        recv: &mut [T],
        op: ReduceOp,
    ) -> Result<(), SimError> {
        self.blocking(|m| m.allreduce(self.rank, send, recv, op))
    }

    /// `MPI_Gather`: every rank contributes `send`; root receives them
    /// concatenated in rank order.
    pub fn gather<T: Datatype>(
        &self,
        send: &[T],
        mut recv: Option<&mut [T]>,
        root: usize,
    ) -> Result<(), SimError> {
        self.blocking(|m| m.gather(self.rank, send, recv.as_deref_mut(), root))
    }

    /// `MPI_Scatter`: root's buffer is split into equal chunks delivered in
    /// rank order.
    pub fn scatter<T: Datatype>(
        &self,
        send: Option<&[T]>,
        recv: &mut [T],
        root: usize,
    ) -> Result<(), SimError> {
        self.blocking(|m| m.scatter(self.rank, send, recv, root))
    }

    /// `MPI_Allgather` = gather to 0 + broadcast of the concatenation.
    pub fn allgather<T: Datatype>(&self, send: &[T], recv: &mut [T]) -> Result<(), SimError> {
        self.blocking(|m| m.allgather(self.rank, send, recv))
    }
}
