//! The communicator: point-to-point messaging and collectives.
//!
//! One world-level `parking_lot::Mutex` owns every rank's mailbox, every
//! rank's waiting mark and the `live`/`blocked` counts; each rank sleeps on
//! its own condvar. `send` is buffered (never blocks) and delivers under
//! that lock, `recv` takes the *first* envelope matching `(source, tag)` —
//! wildcards included — which preserves MPI's non-overtaking guarantee:
//! messages from the same sender with the same tag are received in send
//! order.
//!
//! Delivery is synchronous, so nothing is ever in flight outside the lock
//! and "every live rank is blocked" is exactly a deadlock: only a running
//! rank can release a blocked one. The rule is checked at the two events
//! that can make it true — a rank registering as blocked and a rank leaving
//! the world — and needs no clock (docs/ARCHITECTURE.md has the argument).
//!
//! Collectives are built on p2p with reserved negative tags. MPI requires
//! every rank to execute collectives in the same order, so a per-rank
//! collective sequence number embedded in the tag keeps consecutive
//! collectives from cross-talking.

use crate::datatype::{Datatype, ReduceOp, Reducible};
use crate::error::{BlockedOp, SimError};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

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

/// What a blocking receive waits for.
#[derive(Clone, Copy)]
struct Pattern {
    source: Source,
    tag: Tag,
}

impl Pattern {
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

/// Everything the ranks share, behind [`Shared::state`].
struct State {
    mailboxes: Vec<VecDeque<Envelope>>,
    /// Per rank: the pattern it sleeps on. Set only while nothing in its
    /// mailbox matches; `send` clears it when it delivers a match.
    waiting: Vec<Option<Pattern>>,
    /// Ranks that have not left the world yet.
    live: usize,
    /// Ranks with a waiting mark.
    blocked: usize,
    /// Why the world stopped — the first `Aborted` or the one `Deadlock`
    /// report. Every receive that would otherwise sleep returns it; marks
    /// and counts are not maintained past this point.
    halt: Option<SimError>,
}

pub(crate) struct Shared {
    state: Mutex<State>,
    arrivals: Vec<Condvar>,
    start: Instant,
}

impl Shared {
    pub(crate) fn new(nranks: usize) -> Arc<Shared> {
        Arc::new(Shared {
            state: Mutex::new(State {
                mailboxes: (0..nranks).map(|_| VecDeque::new()).collect(),
                waiting: vec![None; nranks],
                live: nranks,
                blocked: 0,
                halt: None,
            }),
            arrivals: (0..nranks).map(|_| Condvar::new()).collect(),
            start: Instant::now(),
        })
    }

    /// Stop the world with `reason` unless it already stopped, and wake
    /// every sleeper. The lock is held, so no rank can be between its halt
    /// check and its wait.
    fn halt(&self, st: &mut State, reason: SimError) {
        if st.halt.is_none() {
            st.halt = Some(reason);
            for cv in &self.arrivals {
                cv.notify_all();
            }
        }
    }

    /// The quiescence rule: every live rank is blocked, so none can ever be
    /// released. One snapshot, taken here, is what every blocked rank
    /// reports.
    fn check_quiescence(&self, st: &mut State) {
        if st.halt.is_some() || st.live == 0 || st.blocked != st.live {
            return;
        }
        let blocked: Vec<BlockedOp> = st
            .waiting
            .iter()
            .enumerate()
            .filter_map(|(rank, w)| {
                w.map(|p| BlockedOp {
                    rank,
                    op: p.describe(),
                })
            })
            .collect();
        let (live, size) = (st.live, st.waiting.len());
        let reason = SimError::Deadlock {
            rank: blocked[0].rank,
            detail: format!("every live rank is blocked ({live} of {size} still in the world)"),
            blocked,
        };
        self.halt(st, reason);
    }

    /// A rank's closure finished. A failed rank aborts the world *before* it
    /// stops counting as live, so its peers report its failure and never a
    /// cycle.
    pub(crate) fn leave(&self, rank: usize, failed: bool) {
        let mut st = self.state.lock();
        if failed {
            self.halt(&mut st, SimError::Aborted { rank, code: 1 });
        }
        st.live -= 1;
        self.check_quiescence(&mut st);
    }
}

/// A rank's handle on the simulated world — the `MPI_COMM_WORLD` analogue.
pub struct Comm {
    rank: usize,
    size: usize,
    shared: Arc<Shared>,
    /// Per-rank collective sequence number (all ranks advance in lockstep
    /// because MPI mandates identical collective order).
    coll_seq: std::cell::Cell<u32>,
}

/// Base of the reserved (negative) tag space for collectives.
const COLL_TAG_BASE: i32 = -2;

impl Comm {
    pub(crate) fn new(rank: usize, size: usize, shared: Arc<Shared>) -> Comm {
        Comm {
            rank,
            size,
            shared,
            coll_seq: std::cell::Cell::new(0),
        }
    }

    /// This rank's id (`MPI_Comm_rank`).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size (`MPI_Comm_size`).
    pub fn size(&self) -> usize {
        self.size
    }

    /// Seconds since the world started (`MPI_Wtime`).
    pub fn wtime(&self) -> f64 {
        self.shared.start.elapsed().as_secs_f64()
    }

    /// `MPI_Abort`: stop the world and return the error. The first abort
    /// wins; every receive that would otherwise sleep returns it.
    pub fn abort(&self, code: i32) -> SimError {
        let reason = SimError::Aborted {
            rank: self.rank,
            code,
        };
        self.shared
            .halt(&mut self.shared.state.lock(), reason.clone());
        reason
    }

    fn check_rank(&self, r: usize) -> Result<(), SimError> {
        if r >= self.size {
            Err(SimError::RankOutOfBounds {
                rank: self.rank,
                requested: r as isize,
            })
        } else {
            Ok(())
        }
    }

    /// Buffered standard send (`MPI_Send`): never blocks. The envelope is
    /// delivered before this returns; if it is what `dest` sleeps on, the
    /// waiting mark is cleared under the same lock — a rank with a matching
    /// message is never counted as blocked — and `dest` is woken.
    pub fn send<T: Datatype>(&self, buf: &[T], dest: usize, tag: i32) -> Result<(), SimError> {
        self.check_rank(dest)?;
        let env = Envelope {
            src: self.rank,
            tag,
            dtype: T::NAME,
            payload: T::serialize(buf),
        };
        let mut st = self.shared.state.lock();
        let wake = st.waiting[dest].is_some_and(|p| p.matches(&env));
        if wake {
            st.waiting[dest] = None;
            st.blocked -= 1;
        }
        st.mailboxes[dest].push_back(env);
        drop(st);
        if wake {
            self.shared.arrivals[dest].notify_all();
        }
        Ok(())
    }

    /// The one receive loop: take the first envelope matching the pattern,
    /// else return why the world stopped, else sleep as a blocked rank.
    fn wait_match<T: Datatype>(
        &self,
        buf: &mut [T],
        source: Source,
        tag: Tag,
    ) -> Result<Status, SimError> {
        let me = self.rank;
        let pat = Pattern { source, tag };
        let mut st = self.shared.state.lock();
        let env = loop {
            if let Some(idx) = st.mailboxes[me].iter().position(|e| pat.matches(e)) {
                break st.mailboxes[me].remove(idx).expect("index valid");
            }
            if let Some(reason) = &st.halt {
                return Err(reason.clone());
            }
            if st.waiting[me].is_none() {
                st.waiting[me] = Some(pat);
                st.blocked += 1;
                self.shared.check_quiescence(&mut st);
            } else {
                self.shared.arrivals[me].wait(&mut st);
            }
        };
        drop(st);
        if env.dtype != T::NAME {
            return Err(SimError::TypeMismatch {
                rank: me,
                expected: T::NAME,
                actual: env.dtype,
            });
        }
        let values = T::deserialize(&env.payload);
        if values.len() > buf.len() {
            return Err(SimError::Truncation {
                rank: me,
                buffer: buf.len(),
                incoming: values.len(),
            });
        }
        buf[..values.len()].copy_from_slice(&values);
        Ok(Status {
            source: env.src,
            tag: env.tag,
            count: values.len(),
        })
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
        if let Source::Rank(r) = source {
            self.check_rank(r)?;
        }
        self.wait_match(buf, source, tag)
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

    // -- collectives ---------------------------------------------------------

    fn next_coll_tag(&self) -> i32 {
        let seq = self.coll_seq.get();
        self.coll_seq.set(seq.wrapping_add(1));
        COLL_TAG_BASE - (seq % 1_000_000) as i32
    }

    /// Internal receive on a collective (negative) tag.
    fn coll_recv<T: Datatype>(
        &self,
        buf: &mut [T],
        source: usize,
        tag: i32,
    ) -> Result<Status, SimError> {
        self.wait_match(buf, Source::Rank(source), Tag::Value(tag))
    }

    /// `MPI_Barrier`: dissemination via gather-to-0 + broadcast.
    pub fn barrier(&self) -> Result<(), SimError> {
        let tag = self.next_coll_tag();
        let token = [0u8];
        if self.rank == 0 {
            let mut buf = [0u8];
            for r in 1..self.size {
                self.coll_recv(&mut buf, r, tag)?;
            }
            for r in 1..self.size {
                self.send(&token, r, tag)?;
            }
        } else {
            self.send(&token, 0, tag)?;
            let mut buf = [0u8];
            self.coll_recv(&mut buf, 0, tag)?;
        }
        Ok(())
    }

    /// `MPI_Bcast`: root's buffer is copied into every rank's buffer.
    pub fn bcast<T: Datatype>(&self, buf: &mut [T], root: usize) -> Result<(), SimError> {
        self.check_rank(root)?;
        let tag = self.next_coll_tag();
        if self.rank == root {
            for r in 0..self.size {
                if r != root {
                    self.send(buf, r, tag)?;
                }
            }
        } else {
            self.coll_recv(buf, root, tag)?;
        }
        Ok(())
    }

    /// `MPI_Reduce` with deterministic (rank-ordered) combination at root.
    pub fn reduce<T: Reducible>(
        &self,
        send: &[T],
        recv: Option<&mut [T]>,
        op: ReduceOp,
        root: usize,
    ) -> Result<(), SimError> {
        self.check_rank(root)?;
        let tag = self.next_coll_tag();
        if self.rank == root {
            let recv = recv.ok_or(SimError::RankOutOfBounds {
                rank: self.rank,
                requested: -1,
            })?;
            assert!(recv.len() >= send.len(), "reduce recv buffer too small");
            let n = send.len();
            // Accumulate in rank order 0,1,2,… for bit-reproducibility.
            let mut acc: Vec<T> = Vec::with_capacity(n);
            let mut tmp = vec![send[0]; n];
            for r in 0..self.size {
                let contrib: &[T] = if r == self.rank {
                    send
                } else {
                    self.coll_recv(&mut tmp, r, tag)?;
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
        } else {
            self.send(send, root, tag)?;
        }
        Ok(())
    }

    /// `MPI_Allreduce` = reduce to 0 + broadcast.
    pub fn allreduce<T: Reducible>(
        &self,
        send: &[T],
        recv: &mut [T],
        op: ReduceOp,
    ) -> Result<(), SimError> {
        if self.rank == 0 {
            self.reduce(send, Some(recv), op, 0)?;
        } else {
            self.reduce(send, None, op, 0)?;
        }
        self.bcast(&mut recv[..send.len()], 0)
    }

    /// `MPI_Gather`: every rank contributes `send`; root receives them
    /// concatenated in rank order.
    pub fn gather<T: Datatype>(
        &self,
        send: &[T],
        recv: Option<&mut [T]>,
        root: usize,
    ) -> Result<(), SimError> {
        self.check_rank(root)?;
        let tag = self.next_coll_tag();
        if self.rank == root {
            let recv = recv.ok_or(SimError::RankOutOfBounds {
                rank: self.rank,
                requested: -1,
            })?;
            let n = send.len();
            assert!(
                recv.len() >= n * self.size,
                "gather recv buffer too small: {} < {}",
                recv.len(),
                n * self.size
            );
            for r in 0..self.size {
                if r == self.rank {
                    recv[r * n..(r + 1) * n].copy_from_slice(send);
                } else {
                    self.coll_recv(&mut recv[r * n..(r + 1) * n], r, tag)?;
                }
            }
        } else {
            self.send(send, root, tag)?;
        }
        Ok(())
    }

    /// `MPI_Scatter`: root's buffer is split into equal chunks delivered in
    /// rank order.
    pub fn scatter<T: Datatype>(
        &self,
        send: Option<&[T]>,
        recv: &mut [T],
        root: usize,
    ) -> Result<(), SimError> {
        self.check_rank(root)?;
        let tag = self.next_coll_tag();
        let n = recv.len();
        if self.rank == root {
            let send = send.ok_or(SimError::RankOutOfBounds {
                rank: self.rank,
                requested: -1,
            })?;
            assert!(
                send.len() >= n * self.size,
                "scatter send buffer too small: {} < {}",
                send.len(),
                n * self.size
            );
            for r in 0..self.size {
                if r == self.rank {
                    recv.copy_from_slice(&send[r * n..(r + 1) * n]);
                } else {
                    self.send(&send[r * n..(r + 1) * n], r, tag)?;
                }
            }
        } else {
            self.coll_recv(recv, root, tag)?;
        }
        Ok(())
    }

    /// `MPI_Allgather` = gather to 0 + broadcast of the concatenation.
    pub fn allgather<T: Datatype>(&self, send: &[T], recv: &mut [T]) -> Result<(), SimError> {
        if self.rank == 0 {
            self.gather(send, Some(recv), 0)?;
        } else {
            self.gather(send, None, 0)?;
        }
        self.bcast(recv, 0)
    }
}
