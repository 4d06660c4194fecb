//! Point-to-point matching and the collectives over it, as one state
//! machine with no thread, lock or clock.
//!
//! A [`Matcher`] holds every rank's mailbox and waiting mark, the `live` and
//! `blocked` counts and the halt. An operation that cannot complete yet
//! marks its rank as waiting and returns [`Poll::Pending`]; its caller runs
//! the *same* operation again once the rank is no longer waiting, or once
//! the world has halted. `world.rs` runs worlds that way: on the calling
//! thread, or on one thread per rank behind one lock.
//!
//! `send` is buffered (never waits) and delivers at once; a receive takes
//! the *first* envelope matching `(source, tag)` — wildcards included —
//! which preserves MPI's non-overtaking guarantee: messages from the same
//! sender with the same tag are received in send order. A send that matches
//! what its destination waits for clears the mark, so a rank with a
//! matching message is never counted as blocked, and "every live rank is
//! blocked" is exactly a deadlock: only a rank that is not waiting can
//! release one that is. The rule is checked at the two events that can make
//! it true — a rank registering as blocked and a rank leaving the world —
//! and needs no clock (docs/ARCHITECTURE.md has the argument).
//!
//! Collectives run over the same mailboxes on reserved negative tags. MPI
//! requires every rank to execute collectives in the same order, so a
//! per-rank collective sequence number embedded in the tag keeps
//! consecutive collectives from cross-talking. A collective is a
//! multi-phase operation that may be run again after `Pending` without
//! repeating an effect: a root that receives from every other rank takes
//! their messages together once all have arrived (until then it waits on
//! the first missing one, in rank order), and a two-phase collective
//! (`barrier`, `allreduce`, `allgather`) records that its first phase is
//! done before it waits in the second.

use crate::datatype::{Datatype, ReduceOp, Reducible};
use crate::error::{BlockedOp, SimError};
use bytes::Bytes;
use std::collections::VecDeque;
use std::task::Poll;

/// Receive source selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    Rank(usize),
    /// `MPI_ANY_SOURCE`
    Any,
}

/// Receive tag selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tag {
    Value(i32),
    /// `MPI_ANY_TAG`
    Any,
}

/// Completed-receive metadata (`MPI_Status`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status {
    pub source: usize,
    pub tag: i32,
    /// Element count of the received message.
    pub count: usize,
}

#[derive(Debug)]
struct Envelope {
    src: usize,
    tag: i32,
    dtype: &'static str,
    payload: Bytes,
}

/// What a blocked receive waits for.
#[derive(Debug, Clone, Copy)]
struct Pattern {
    source: Source,
    tag: Tag,
}

impl Pattern {
    /// A collective's receive from `source`.
    fn collective(source: usize, tag: i32) -> Pattern {
        Pattern {
            source: Source::Rank(source),
            tag: Tag::Value(tag),
        }
    }

    fn matches(&self, e: &Envelope) -> bool {
        let src_ok = match self.source {
            Source::Any => true,
            Source::Rank(r) => e.src == r,
        };
        let tag_ok = match self.tag {
            Tag::Any => e.tag >= 0, // wildcards never match collective traffic
            Tag::Value(t) => e.tag == t,
        };
        src_ok && tag_ok
    }

    /// The reserved negative tags tell a collective's receive from `recv`.
    fn describe(&self) -> String {
        match (self.source, self.tag) {
            (Source::Rank(r), Tag::Value(t)) if t < 0 => {
                format!("collective recv(source={r}, tag={t})")
            }
            (source, tag) => format!("recv(source={source:?}, tag={tag:?})"),
        }
    }
}

/// One rank's share of the state.
struct Slot {
    mailbox: VecDeque<Envelope>,
    /// The pattern the rank waits on. Set only while nothing in its mailbox
    /// matches; `send` clears it when it delivers a match.
    waiting: Option<Pattern>,
    /// Collectives this rank completed; names the tag of its next one.
    collectives: u32,
    /// The first phase of the two-phase collective in progress is done.
    first_phase_done: bool,
}

/// Base of the reserved (negative) tag space for collectives.
const COLL_TAG_BASE: i32 = -2;

/// Unwrap a ready value, or return `Pending` from the enclosing operation.
macro_rules! ready {
    ($e:expr) => {
        match $e {
            Poll::Ready(v) => v,
            Poll::Pending => return Ok(Poll::Pending),
        }
    };
}

/// The matching state of one world: mailboxes, waiting marks and the halt.
/// Every operation names the rank that performs it.
pub struct Matcher {
    slots: Vec<Slot>,
    /// Ranks that have not left the world yet.
    live: usize,
    /// Ranks with a waiting mark.
    blocked: usize,
    /// Why the world stopped — the first `Aborted` or the one `Deadlock`
    /// report. Every receive that would otherwise wait returns it; marks
    /// and counts are not maintained past this point.
    halt: Option<SimError>,
    /// Ranks whose mark a send cleared since [`Matcher::woken`] last
    /// drained them; kept only for a driver that asked for it
    /// ([`Matcher::waking`]).
    woken: Option<Vec<usize>>,
}

impl Matcher {
    /// A world of `nranks` live ranks, none waiting.
    pub fn new(nranks: usize) -> Matcher {
        Matcher {
            slots: (0..nranks)
                .map(|_| Slot {
                    mailbox: VecDeque::new(),
                    waiting: None,
                    collectives: 0,
                    first_phase_done: false,
                })
                .collect(),
            live: nranks,
            blocked: 0,
            halt: None,
            woken: None,
        }
    }

    /// A world like [`Matcher::new`]'s that records whom each send wakes,
    /// for a driver whose waiting ranks sleep until woken.
    pub(crate) fn waking(nranks: usize) -> Matcher {
        Matcher {
            woken: Some(Vec::new()),
            ..Matcher::new(nranks)
        }
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.slots.len()
    }

    /// Why the world stopped, once it has.
    pub fn halted(&self) -> Option<&SimError> {
        self.halt.as_ref()
    }

    /// True while `rank` waits for a message nothing delivered yet.
    pub(crate) fn is_waiting(&self, rank: usize) -> bool {
        self.slots[rank].waiting.is_some()
    }

    /// The ranks whose waiting mark a send cleared since the last call, in
    /// a world made by [`Matcher::waking`]; none in any other.
    pub(crate) fn woken(&mut self) -> impl Iterator<Item = usize> + '_ {
        self.woken.iter_mut().flat_map(|w| w.drain(..))
    }

    /// Stop the world with `reason` unless it already stopped.
    fn stop(&mut self, reason: SimError) {
        if self.halt.is_none() {
            self.halt = Some(reason);
        }
    }

    /// The quiescence rule: every live rank is blocked, so none can ever be
    /// released. One snapshot, taken here, is what every blocked rank
    /// reports.
    fn check_quiescence(&mut self) {
        if self.halt.is_some() || self.live == 0 || self.blocked != self.live {
            return;
        }
        let blocked: Vec<BlockedOp> = self
            .slots
            .iter()
            .enumerate()
            .filter_map(|(rank, s)| {
                s.waiting.map(|p| BlockedOp {
                    rank,
                    op: p.describe(),
                })
            })
            .collect();
        let (live, size) = (self.live, self.size());
        let reason = SimError::Deadlock {
            rank: blocked[0].rank,
            detail: format!("every live rank is blocked ({live} of {size} still in the world)"),
            blocked,
        };
        self.stop(reason);
    }

    /// `rank` finished. A failed rank aborts the world *before* it stops
    /// counting as live, so its peers report its failure and never a cycle.
    pub(crate) fn leave(&mut self, rank: usize, failed: bool) {
        if failed {
            self.stop(SimError::Aborted { rank, code: 1 });
        }
        self.live -= 1;
        self.check_quiescence();
    }

    /// `MPI_Abort`: stop the world and return the error. The first abort
    /// wins; every receive that would otherwise wait returns it.
    pub fn abort(&mut self, rank: usize, code: i32) -> SimError {
        let reason = SimError::Aborted { rank, code };
        self.stop(reason.clone());
        reason
    }

    /// `me` has no message matching `pat`: the halt if the world stopped,
    /// else `Pending` with `me` marked as waiting on `pat`.
    fn wait<R>(&mut self, me: usize, pat: Pattern) -> Result<Poll<R>, SimError> {
        if let Some(reason) = &self.halt {
            return Err(reason.clone());
        }
        if self.slots[me].waiting.replace(pat).is_none() {
            self.blocked += 1;
            self.check_quiescence();
        }
        Ok(Poll::Pending)
    }

    fn check_rank(&self, me: usize, r: usize) -> Result<(), SimError> {
        if r >= self.size() {
            Err(SimError::RankOutOfBounds {
                rank: me,
                requested: r as isize,
            })
        } else {
            Ok(())
        }
    }

    /// Buffered standard send (`MPI_Send`) from `me`: never waits. If the
    /// envelope is what `dest` waits on, its mark is cleared — a rank with a
    /// matching message is never counted as blocked — and, in a world that
    /// records wake-ups, `dest` is recorded as woken.
    pub fn send<T: Datatype>(
        &mut self,
        me: usize,
        buf: &[T],
        dest: usize,
        tag: i32,
    ) -> Result<(), SimError> {
        self.check_rank(me, dest)?;
        let env = Envelope {
            src: me,
            tag,
            dtype: T::NAME,
            payload: T::serialize(buf),
        };
        let slot = &mut self.slots[dest];
        if slot.waiting.is_some_and(|p| p.matches(&env)) {
            slot.waiting = None;
            self.blocked -= 1;
            if let Some(woken) = &mut self.woken {
                woken.push(dest);
            }
        }
        slot.mailbox.push_back(env);
        Ok(())
    }

    fn find(&self, me: usize, pat: &Pattern) -> Option<usize> {
        self.slots[me].mailbox.iter().position(|e| pat.matches(e))
    }

    /// A receive into a buffer of `capacity` elements may take `env`.
    fn check<T: Datatype>(me: usize, env: &Envelope, capacity: usize) -> Result<(), SimError> {
        if env.dtype != T::NAME {
            return Err(SimError::TypeMismatch {
                rank: me,
                expected: T::NAME,
                actual: env.dtype,
            });
        }
        let incoming = env.payload.len() / T::SIZE;
        if incoming > capacity {
            return Err(SimError::Truncation {
                rank: me,
                buffer: capacity,
                incoming,
            });
        }
        Ok(())
    }

    /// The one receive: take the first envelope matching the pattern into
    /// `buf`, else return why the world stopped, else wait.
    fn take<T: Datatype>(
        &mut self,
        me: usize,
        pat: Pattern,
        buf: &mut [T],
    ) -> Result<Poll<Status>, SimError> {
        let Some(idx) = self.find(me, &pat) else {
            return self.wait(me, pat);
        };
        let env = self.slots[me].mailbox.remove(idx).expect("index valid");
        Self::check::<T>(me, &env, buf.len())?;
        let values = T::deserialize(&env.payload);
        buf[..values.len()].copy_from_slice(&values);
        Ok(Poll::Ready(Status {
            source: env.src,
            tag: env.tag,
            count: values.len(),
        }))
    }

    /// Ready once a message on collective `tag` from each of `sources` has
    /// arrived and each fits a buffer of `capacity` elements; nothing is
    /// taken. The sources are checked in order, as one receive after the
    /// other would check them, so the first missing one is what `me` waits
    /// on and a bad message before it fails at once.
    fn arrived<T: Datatype>(
        &mut self,
        me: usize,
        sources: impl IntoIterator<Item = usize>,
        tag: i32,
        capacity: usize,
    ) -> Result<Poll<()>, SimError> {
        for source in sources {
            let pat = Pattern::collective(source, tag);
            match self.find(me, &pat) {
                Some(idx) => Self::check::<T>(me, &self.slots[me].mailbox[idx], capacity)?,
                None => return self.wait(me, pat),
            }
        }
        Ok(Poll::Ready(()))
    }

    /// Take the message [`Matcher::arrived`] found from `source`.
    fn take_arrived<T: Datatype>(&mut self, me: usize, source: usize, tag: i32, buf: &mut [T]) {
        let taken = self.take(me, Pattern::collective(source, tag), buf);
        assert!(
            matches!(taken, Ok(Poll::Ready(_))),
            "an arrived message is taken"
        );
    }

    /// Blocking receive (`MPI_Recv`) into `buf`: up to `buf.len()`
    /// elements; errors on datatype mismatch or if the message is larger
    /// than the buffer.
    pub fn recv<T: Datatype>(
        &mut self,
        me: usize,
        buf: &mut [T],
        source: Source,
        tag: Tag,
    ) -> Result<Poll<Status>, SimError> {
        if let Source::Rank(r) = source {
            self.check_rank(me, r)?;
        }
        self.take(me, Pattern { source, tag }, buf)
    }

    // -- collectives ---------------------------------------------------------

    /// The tag of `me`'s collective `offset` after the one in progress.
    fn coll_tag(&self, me: usize, offset: u32) -> i32 {
        let seq = self.slots[me].collectives.wrapping_add(offset);
        COLL_TAG_BASE - (seq % 1_000_000) as i32
    }

    /// `me` completed a collective that used `tags` tags.
    fn finish(&mut self, me: usize, tags: u32) -> Result<Poll<()>, SimError> {
        let slot = &mut self.slots[me];
        slot.collectives = slot.collectives.wrapping_add(tags);
        slot.first_phase_done = false;
        Ok(Poll::Ready(()))
    }

    /// Run `first` until it completes once; the caller's second phase
    /// follows.
    fn first_phase(
        &mut self,
        me: usize,
        first: impl FnOnce(&mut Matcher) -> Result<Poll<()>, SimError>,
    ) -> Result<Poll<()>, SimError> {
        if !self.slots[me].first_phase_done {
            ready!(first(self)?);
            self.slots[me].first_phase_done = true;
        }
        Ok(Poll::Ready(()))
    }

    /// `MPI_Barrier`: every rank's token gathered at 0, then released.
    pub fn barrier(&mut self, me: usize) -> Result<Poll<()>, SimError> {
        let tag = self.coll_tag(me, 0);
        let token = [0u8];
        let size = self.size();
        ready!(self.first_phase(me, |m| {
            if me == 0 {
                ready!(m.arrived::<u8>(me, 1..size, tag, 1)?);
                for r in 1..size {
                    m.take_arrived(me, r, tag, &mut [0u8]);
                }
                Ok(Poll::Ready(()))
            } else {
                m.send(me, &token, 0, tag).map(Poll::Ready)
            }
        })?);
        if me == 0 {
            for r in 1..size {
                self.send(me, &token, r, tag)?;
            }
        } else {
            ready!(self.take(me, Pattern::collective(0, tag), &mut [0u8])?);
        }
        self.finish(me, 1)
    }

    /// `MPI_Bcast`: root's buffer is copied into every rank's buffer.
    pub fn bcast<T: Datatype>(
        &mut self,
        me: usize,
        buf: &mut [T],
        root: usize,
    ) -> Result<Poll<()>, SimError> {
        self.check_rank(me, root)?;
        let tag = self.coll_tag(me, 0);
        ready!(self.bcast_on(me, buf, root, tag)?);
        self.finish(me, 1)
    }

    fn bcast_on<T: Datatype>(
        &mut self,
        me: usize,
        buf: &mut [T],
        root: usize,
        tag: i32,
    ) -> Result<Poll<()>, SimError> {
        if me == root {
            for r in (0..self.size()).filter(|&r| r != root) {
                self.send(me, buf, r, tag)?;
            }
        } else {
            ready!(self.take(me, Pattern::collective(root, tag), buf)?);
        }
        Ok(Poll::Ready(()))
    }

    /// `MPI_Reduce` with deterministic (rank-ordered) combination at root.
    pub fn reduce<T: Reducible>(
        &mut self,
        me: usize,
        send: &[T],
        recv: Option<&mut [T]>,
        op: ReduceOp,
        root: usize,
    ) -> Result<Poll<()>, SimError> {
        self.check_rank(me, root)?;
        let tag = self.coll_tag(me, 0);
        ready!(self.reduce_on(me, send, recv, op, root, tag)?);
        self.finish(me, 1)
    }

    fn reduce_on<T: Reducible>(
        &mut self,
        me: usize,
        send: &[T],
        recv: Option<&mut [T]>,
        op: ReduceOp,
        root: usize,
        tag: i32,
    ) -> Result<Poll<()>, SimError> {
        if me != root {
            self.send(me, send, root, tag)?;
            return Ok(Poll::Ready(()));
        }
        let recv = recv.ok_or(SimError::RankOutOfBounds {
            rank: me,
            requested: -1,
        })?;
        assert!(recv.len() >= send.len(), "reduce recv buffer too small");
        let n = send.len();
        let mut tmp = vec![send[0]; n];
        let size = self.size();
        ready!(self.arrived::<T>(me, (0..size).filter(|&r| r != me), tag, n)?);
        // Accumulate in rank order 0,1,2,… for bit-reproducibility.
        let mut acc: Vec<T> = Vec::with_capacity(n);
        for r in 0..size {
            let contrib: &[T] = if r == me {
                send
            } else {
                self.take_arrived(me, r, tag, &mut tmp);
                &tmp
            };
            if acc.is_empty() {
                acc.extend_from_slice(contrib);
            } else {
                for (a, &c) in acc.iter_mut().zip(contrib) {
                    *a = op.combine(*a, c);
                }
            }
        }
        recv[..n].copy_from_slice(&acc);
        Ok(Poll::Ready(()))
    }

    /// `MPI_Allreduce` = reduce to 0 + broadcast.
    pub fn allreduce<T: Reducible>(
        &mut self,
        me: usize,
        send: &[T],
        recv: &mut [T],
        op: ReduceOp,
    ) -> Result<Poll<()>, SimError> {
        let (reduced, spread) = (self.coll_tag(me, 0), self.coll_tag(me, 1));
        ready!(self.first_phase(me, |m| {
            let out = (me == 0).then_some(&mut *recv);
            m.reduce_on(me, send, out, op, 0, reduced)
        })?);
        ready!(self.bcast_on(me, &mut recv[..send.len()], 0, spread)?);
        self.finish(me, 2)
    }

    /// `MPI_Gather`: every rank contributes `send`; root receives them
    /// concatenated in rank order.
    pub fn gather<T: Datatype>(
        &mut self,
        me: usize,
        send: &[T],
        recv: Option<&mut [T]>,
        root: usize,
    ) -> Result<Poll<()>, SimError> {
        self.check_rank(me, root)?;
        let tag = self.coll_tag(me, 0);
        ready!(self.gather_on(me, send, recv, root, tag)?);
        self.finish(me, 1)
    }

    fn gather_on<T: Datatype>(
        &mut self,
        me: usize,
        send: &[T],
        recv: Option<&mut [T]>,
        root: usize,
        tag: i32,
    ) -> Result<Poll<()>, SimError> {
        if me != root {
            self.send(me, send, root, tag)?;
            return Ok(Poll::Ready(()));
        }
        let recv = recv.ok_or(SimError::RankOutOfBounds {
            rank: me,
            requested: -1,
        })?;
        let (n, size) = (send.len(), self.size());
        assert!(
            recv.len() >= n * size,
            "gather recv buffer too small: {} < {}",
            recv.len(),
            n * size
        );
        ready!(self.arrived::<T>(me, (0..size).filter(|&r| r != me), tag, n)?);
        for r in 0..size {
            let chunk = &mut recv[r * n..(r + 1) * n];
            if r == me {
                chunk.copy_from_slice(send);
            } else {
                self.take_arrived(me, r, tag, chunk);
            }
        }
        Ok(Poll::Ready(()))
    }

    /// `MPI_Scatter`: root's buffer is split into equal chunks delivered in
    /// rank order.
    pub fn scatter<T: Datatype>(
        &mut self,
        me: usize,
        send: Option<&[T]>,
        recv: &mut [T],
        root: usize,
    ) -> Result<Poll<()>, SimError> {
        self.check_rank(me, root)?;
        let tag = self.coll_tag(me, 0);
        let (n, size) = (recv.len(), self.size());
        if me == root {
            let send = send.ok_or(SimError::RankOutOfBounds {
                rank: me,
                requested: -1,
            })?;
            assert!(
                send.len() >= n * size,
                "scatter send buffer too small: {} < {}",
                send.len(),
                n * size
            );
            for r in 0..size {
                let chunk = &send[r * n..(r + 1) * n];
                if r == me {
                    recv.copy_from_slice(chunk);
                } else {
                    self.send(me, chunk, r, tag)?;
                }
            }
        } else {
            ready!(self.take(me, Pattern::collective(root, tag), recv)?);
        }
        self.finish(me, 1)
    }

    /// `MPI_Allgather` = gather to 0 + broadcast of the concatenation.
    pub fn allgather<T: Datatype>(
        &mut self,
        me: usize,
        send: &[T],
        recv: &mut [T],
    ) -> Result<Poll<()>, SimError> {
        let (gathered, spread) = (self.coll_tag(me, 0), self.coll_tag(me, 1));
        ready!(self.first_phase(me, |m| {
            let out = (me == 0).then_some(&mut *recv);
            m.gather_on(me, send, out, 0, gathered)
        })?);
        ready!(self.bcast_on(me, recv, 0, spread)?);
        self.finish(me, 2)
    }
}
