//! The scheduling policy: which request is admitted, which yields its
//! lanes, which steps, and which engine worker an Interactive request
//! lands on.
//!
//! [`BatchDecoder`](crate::BatchDecoder) owns the mechanism — lanes,
//! caches, prefill, logits rows, beams, retirement — and asks its policy
//! for every scheduling decision. The policy keeps one integer record per
//! pending ticket (fresh, decoding or paused alike) and owns no tensor,
//! cache or page, so every schedule is a pure function of the call
//! sequence and its tests build no model.
//!
//! * **Stage 0** — a request submitted by its encoder ids starts as an
//!   *encoding* record: queued, ranked and aged like any other, but not
//!   admissible until its encoder forward is done. Each step runs every
//!   Interactive forward to completion first, then at most one encoder
//!   layer of the best-ranked Bulk forward — only while Bulk is not held,
//!   unless the record has aged — so a keystroke waits behind at most one
//!   Bulk layer, and held forwards age toward the same bound as held
//!   decodes.
//! * **Admission** — queued records admit by the rank
//!   `(class, aged, deadline, ticket)`. A record whose total queue wait
//!   reaches [`aging_steps`](crate::BatchDecoder::aging_steps) is promoted
//!   to the interactive class and admitted protected, so bulk work never
//!   starves. The engine's bulk backlog pops by the same rank.
//! * **Preemption and eviction** — an interactive-class record that finds
//!   every lane held preempts the youngest-admitted unprotected bulk
//!   records; under a soft page cap, the youngest-admitted unprotected bulk
//!   greedy record is evicted while a protected one holds lanes. Both
//!   re-enter the queue paused, and their final tokens are unchanged.
//! * **Interactive hold** — while an Interactive request is in flight here
//!   or, under the [`Engine`](crate::engine::Engine), anywhere in the
//!   fleet, unprotected bulk records neither admit nor step: held groups
//!   keep their lanes and pages and sit steps out, which count toward
//!   aging like queued ones (a group that steps starts afresh). A parked
//!   engine worker credits the steps it sat out on waking.
//! * **Placement** — the engine places an Interactive request on the
//!   worker with the fewest cumulative placed lanes, ties broken in a
//!   seed-rotated order.

use serde::{Deserialize, Serialize};
use std::cmp::Reverse;

/// Scheduling class of a request. Ordered: `Interactive > Bulk`.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum Priority {
    /// Background work (corpus re-index, batch generation): decodes when
    /// lanes are free, yields its lanes to interactive arrivals, and is
    /// protected from starvation by the aging rule.
    Bulk,
    /// Latency-sensitive work (a keystroke-triggered suggestion): admitted
    /// before queued bulk work and allowed to preempt running bulk lanes.
    /// The default, so v1 `submit` callers keep their FIFO behaviour.
    #[default]
    Interactive,
}

/// Per-request scheduling telemetry, reported with the finished output so
/// a serving daemon can export queue-health metrics per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RequestTelemetry {
    /// Scheduler steps that ran while this request sat in the queue
    /// (initial wait plus any paused-after-preemption waits).
    pub queue_wait_steps: u64,
    /// Lockstep steps this request participated in (prefill included, and
    /// replay steps after a page eviction count again).
    pub decode_steps: u64,
    /// Times this request's lanes were preempted by interactive work.
    pub preemptions: u64,
    /// Times this request's KV pages were evicted under pool memory
    /// pressure (the request re-entered the queue and replayed its tokens).
    pub evictions: u64,
}

/// Default aging bound: a queued request that has waited this many
/// scheduler steps is promoted to the interactive class (and admitted
/// preemption-immune), bounding bulk starvation. Tune per scheduler via
/// [`BatchDecoder::set_aging_steps`](crate::BatchDecoder::set_aging_steps).
pub const DEFAULT_AGING_STEPS: u64 = 64;

/// The admission rank `(class, aged, deadline, ticket)`. Class 0 is
/// interactive-effective (submitted interactive, or aged past the bound).
/// Within a class, aged records admit before fresher ones — the
/// starvation guarantee EDF cannot be allowed to break — then earliest
/// deadline first (`None` after every explicit stamp), then FIFO by ticket.
/// Smaller admits first.
fn rank(class: Priority, aged: bool, deadline: Option<u64>, ticket: u64) -> (u8, u8, u64, u64) {
    let interactive = class == Priority::Interactive || aged;
    (
        u8::from(!interactive),
        u8::from(!aged),
        deadline.unwrap_or(u64::MAX),
        ticket,
    )
}

/// Pop the best job of the engine's bulk backlog, which does not age:
/// earliest deadline stamp first, then FIFO. `key` reads a job's
/// `(deadline, ticket)`.
pub(crate) fn pop_backlog<T>(
    backlog: &mut Vec<T>,
    key: impl Fn(&T) -> (Option<u64>, u64),
) -> Option<T> {
    let best = (0..backlog.len()).min_by_key(|&i| {
        let (deadline, ticket) = key(&backlog[i]);
        rank(Priority::Bulk, false, deadline, ticket)
    })?;
    Some(backlog.remove(best))
}

/// One ticket's schedule record.
#[derive(Debug, Clone)]
struct Record {
    id: u64,
    class: Priority,
    deadline: Option<u64>,
    lanes: usize,
    /// Admission stamp while the record holds lanes, `None` while queued;
    /// preemption and eviction take the youngest-admitted victim first.
    admitted: Option<u64>,
    /// Immune to preemption and eviction, and exempt from the hold:
    /// interactive records always, bulk ones once aged.
    protected: bool,
    /// In stage 0: the encoder forward is not done, so the record is
    /// queued but not admissible.
    encoding: bool,
    /// The clock when the record last entered the queue.
    enqueued: u64,
    /// Steps in a row sat out under the hold while holding lanes.
    held: u64,
    /// Queue wait of finished stints, preemptions, evictions.
    telemetry: RequestTelemetry,
}

/// One scheduler's policy state (see module docs).
#[derive(Debug)]
pub(crate) struct Policy {
    pub(crate) max_batch: usize,
    pub(crate) aging_steps: u64,
    /// Steps run plus steps sat out under the fleet hold: the clock aging
    /// and queue waits count in.
    clock: u64,
    admissions: u64,
    pub(crate) preemptions: u64,
    pub(crate) evictions: u64,
    /// Interactive work is in flight elsewhere in the fleet.
    fleet_hold: bool,
    records: Vec<Record>,
}

impl Policy {
    pub(crate) fn new(max_batch: usize) -> Policy {
        Policy {
            max_batch,
            aging_steps: DEFAULT_AGING_STEPS,
            clock: 0,
            admissions: 0,
            preemptions: 0,
            evictions: 0,
            fleet_hold: false,
            records: Vec::new(),
        }
    }

    /// Tickets submitted and neither retired nor cancelled.
    pub(crate) fn pending(&self) -> usize {
        self.records.len()
    }

    /// Tickets holding lanes.
    pub(crate) fn active(&self) -> usize {
        self.running().count()
    }

    /// Queue a ticket needing `lanes` lanes.
    pub(crate) fn submit(&mut self, id: u64, class: Priority, lanes: usize, deadline: Option<u64>) {
        self.records.push(Record {
            id,
            class,
            deadline,
            lanes,
            admitted: None,
            protected: false,
            encoding: false,
            enqueued: self.clock,
            held: 0,
            telemetry: RequestTelemetry::default(),
        });
    }

    /// Queue a ticket whose encoder forward has yet to run (stage 0); it
    /// waits and ages from now, and admits once [`encoded`](Self::encoded).
    pub(crate) fn submit_encoding(
        &mut self,
        id: u64,
        class: Priority,
        lanes: usize,
        deadline: Option<u64>,
    ) {
        self.submit(id, class, lanes, deadline);
        self.records.last_mut().expect("just pushed").encoding = true;
    }

    /// Stage 0 of ticket `id` is done: it may admit from now on, keeping
    /// the wait it accrued while encoding.
    pub(crate) fn encoded(&mut self, id: u64) {
        if let Some(r) = self.records.iter_mut().find(|r| r.id == id) {
            r.encoding = false;
        }
    }

    /// The next stage-0 work of a step, as `(ticket, whole)`: an
    /// Interactive forward runs whole, before anything else; otherwise —
    /// unless a Bulk layer already ran this step (`layer_run`) — one layer
    /// of the best-ranked Bulk forward that is not held (the hold is off,
    /// or the record aged past the bound). `None`: no more stage-0 work
    /// this step.
    pub(crate) fn next_forward(&self, layer_run: bool) -> Option<(u64, bool)> {
        let held = self.bulk_held();
        let interactive = |r: &Record| r.class == Priority::Interactive;
        self.records
            .iter()
            .filter(|r| r.encoding)
            .filter(|r| interactive(r) || (!layer_run && (!held || self.rank_of(r).0 == 0)))
            .min_by_key(|r| (!interactive(r), self.rank_of(r)))
            .map(|r| (r.id, interactive(r)))
    }

    /// Drop a finished or cancelled ticket's record, returning its
    /// telemetry (`decode_steps` is the decoder's count); `None` if it had
    /// no record.
    pub(crate) fn retire(&mut self, id: u64) -> Option<RequestTelemetry> {
        let i = self.records.iter().position(|r| r.id == id)?;
        Some(self.records.swap_remove(i).telemetry)
    }

    fn queued(&self) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(|r| r.admitted.is_none())
    }

    fn running(&self) -> impl Iterator<Item = &Record> {
        self.records.iter().filter(|r| r.admitted.is_some())
    }

    /// Total queue wait of a queued record: finished stints plus this one.
    fn wait(&self, r: &Record) -> u64 {
        r.telemetry.queue_wait_steps + (self.clock - r.enqueued)
    }

    fn rank_of(&self, r: &Record) -> (u8, u8, u64, u64) {
        rank(r.class, self.wait(r) >= self.aging_steps, r.deadline, r.id)
    }

    /// 0-based admission position of a queued ticket (0 = next).
    pub(crate) fn queue_position(&self, id: u64) -> Option<usize> {
        let target = self.queued().find(|r| r.id == id)?;
        let rank = self.rank_of(target);
        Some(self.queued().filter(|r| self.rank_of(r) < rank).count())
    }

    /// The Interactive hold: an Interactive ticket is pending here, or
    /// one is in flight elsewhere in the fleet.
    pub(crate) fn bulk_held(&self) -> bool {
        self.fleet_hold || self.holds_interactive()
    }

    /// An Interactive ticket is pending here.
    pub(crate) fn holds_interactive(&self) -> bool {
        self.records
            .iter()
            .any(|r| r.class == Priority::Interactive)
    }

    /// Hold bulk work for Interactive work in flight on other schedulers
    /// of the same fleet (the engine's fleet-wide count).
    pub(crate) fn set_fleet_hold(&mut self, held: bool) {
        self.fleet_hold = held;
    }

    /// Best-ranked queued record admissible now: under page `pressure` or
    /// the hold, bulk-class records stay queued.
    fn best_admissible(&self, pressure: bool) -> Option<usize> {
        let gated = pressure || self.bulk_held();
        (0..self.records.len())
            .filter(|&i| self.records[i].admitted.is_none() && !self.records[i].encoding)
            .map(|i| (self.rank_of(&self.records[i]), i))
            .filter(|(rank, _)| !gated || rank.0 == 0)
            .min()
            .map(|(_, i)| i)
    }

    /// Admit the best-ranked admissible record and return its ticket, or
    /// `None` once nothing more admits this step. An interactive-*class*
    /// record that does not fit first preempts unprotected bulk lanes; a
    /// plain bulk one blocks at the head of its class.
    pub(crate) fn admit_next(&mut self, pressure: bool) -> Option<u64> {
        loop {
            let i = self.best_admissible(pressure)?;
            let free = self.max_batch - self.running().map(|r| r.lanes).sum::<usize>();
            let r = &self.records[i];
            let (lanes, class, aged) =
                (r.lanes, self.rank_of(r).0, self.wait(r) >= self.aging_steps);
            if lanes > free {
                // Eviction rights follow the *effective* class: a promoted
                // (aged) record may evict too — otherwise an aged bulk
                // record at the head of the queue would block every
                // interactive arrival behind it from ever preempting.
                // Starvation-freedom survives because each promoted or
                // interactive admission is protected, so the pool of
                // evictable lanes only shrinks. Preemption may re-rank the
                // queue (a paused record can age into the interactive
                // class and outrank the evictor), so loop back.
                if class != 0 || !self.preempt_for(lanes - free) {
                    return None;
                }
                continue;
            }
            self.admissions += 1;
            let (clock, stamp) = (self.clock, self.admissions);
            let r = &mut self.records[i];
            r.telemetry.queue_wait_steps += clock - r.enqueued;
            r.protected |= r.class == Priority::Interactive || aged;
            r.admitted = Some(stamp);
            return Some(r.id);
        }
    }

    /// A running record that may lose its lanes: unprotected bulk.
    fn preemptible(r: &Record) -> bool {
        r.admitted.is_some() && r.class == Priority::Bulk && !r.protected
    }

    /// Put a running record back in the queue, paused.
    fn requeue(&mut self, i: usize) {
        self.records[i].admitted = None;
        self.records[i].enqueued = self.clock;
    }

    /// Preempt unprotected bulk records, youngest-admitted first, until at
    /// least `short` more lanes are free; `false` (doing nothing) if they
    /// cannot cover `short`.
    fn preempt_for(&mut self, mut short: usize) -> bool {
        let mut victims: Vec<usize> = (0..self.records.len())
            .filter(|&i| Self::preemptible(&self.records[i]))
            .collect();
        let lanes: usize = victims.iter().map(|&i| self.records[i].lanes).sum();
        if lanes < short {
            return false;
        }
        victims.sort_by_key(|&i| Reverse(self.records[i].admitted));
        for i in victims {
            if short == 0 {
                break;
            }
            short = short.saturating_sub(self.records[i].lanes);
            self.records[i].telemetry.preemptions += 1;
            self.preemptions += 1;
            self.requeue(i);
        }
        true
    }

    /// Choose a page-pressure victim and re-queue it: the youngest-admitted
    /// unprotected bulk greedy record (beam replay would need the whole
    /// expansion history), and only while a protected record holds lanes —
    /// a lone bulk group would just replay into the same pressure.
    pub(crate) fn evict(&mut self) -> Option<u64> {
        if !self.running().any(|r| r.protected) {
            return None;
        }
        let i = (0..self.records.len())
            .filter(|&i| Self::preemptible(&self.records[i]) && self.records[i].lanes == 1)
            .max_by_key(|&i| self.records[i].admitted)?;
        self.records[i].telemetry.evictions += 1;
        self.evictions += 1;
        self.requeue(i);
        Some(self.records[i].id)
    }

    /// Whether ticket `id` steps: it holds lanes and does not sit out the
    /// hold (`held`: [`bulk_held`](Self::bulk_held) at the step's start).
    pub(crate) fn steps(&self, id: u64, held: bool) -> bool {
        self.running().any(|r| r.id == id && (!held || r.protected))
    }

    /// Close a step that advanced something: records that sat it out under
    /// `held` count it toward aging, the others start their count afresh.
    pub(crate) fn end_step(&mut self, held: bool) {
        let aging_steps = self.aging_steps;
        for r in self.records.iter_mut().filter(|r| r.admitted.is_some()) {
            if held && !r.protected {
                hold(r, 1, aging_steps);
            } else {
                r.held = 0;
            }
        }
        self.clock += 1;
    }

    /// Whether a step under the hold would advance anything: a protected
    /// record holds lanes, or an interactive-class record is queued or
    /// encoding.
    pub(crate) fn has_unheld_work(&self) -> bool {
        self.running().any(|r| r.protected) || self.queued().any(|r| self.rank_of(r).0 == 0)
    }

    /// Steps until the first held group or queued (or encoding) bulk
    /// record ages past the bound and escapes the hold (`None`: nothing is
    /// held).
    pub(crate) fn steps_until_unheld(&self) -> Option<u64> {
        let held_groups = self.running().filter(|r| !r.protected).map(|r| r.held);
        let queued = self.queued().filter(|r| self.rank_of(r).0 != 0);
        held_groups
            .chain(queued.map(|r| self.wait(r)))
            .map(|wait| self.aging_steps.saturating_sub(wait).max(1))
            .min()
    }

    /// Advance the clock by `steps` the whole scheduler sat out under the
    /// fleet hold while other workers decoded: queued records and held
    /// groups age by them exactly as if `steps` held steps had run here,
    /// so the aging bound keeps bounding starvation.
    pub(crate) fn sit_out(&mut self, steps: u64) {
        if steps == 0 || self.records.is_empty() {
            return;
        }
        self.clock += steps;
        let aging_steps = self.aging_steps;
        for r in self.records.iter_mut().filter(|r| Self::preemptible(r)) {
            hold(r, steps, aging_steps);
        }
    }
}

/// Sit `steps` steps out under the hold; held to the aging bound, the
/// record is promoted and escapes the hold.
fn hold(r: &mut Record, steps: u64, aging_steps: u64) {
    r.held += steps;
    r.protected = r.held >= aging_steps;
}

/// Interactive placement across an engine's workers (see module docs).
#[derive(Debug)]
pub(crate) struct Placement {
    /// Cumulative lanes placed per worker: monotone, so placement is a
    /// pure function of the submission sequence.
    lanes: Vec<u64>,
    /// Seed-derived starting offset of the tie-break rotation.
    rotation: usize,
}

impl Placement {
    pub(crate) fn new(workers: usize, seed: u64) -> Placement {
        Placement {
            lanes: vec![0; workers],
            rotation: (splitmix64(seed) % workers as u64) as usize,
        }
    }

    /// Place a request of `lanes` lanes; returns its worker.
    pub(crate) fn place(&mut self, lanes: usize) -> usize {
        let workers = self.lanes.len();
        let w = (0..workers)
            .map(|i| (i + self.rotation) % workers)
            .min_by_key(|&w| self.lanes[w])
            .expect("at least one worker");
        self.lanes[w] += lanes as u64;
        w
    }
}

/// splitmix64 — decorrelates the raw seed into a rotation offset.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn backlog_pops_earliest_deadline_then_fifo() {
        let deadlines = [Some(5u64), None, Some(2), Some(5)];
        let mut backlog: Vec<(u64, Option<u64>)> = (0..).zip(deadlines).collect();
        let order: Vec<u64> = std::iter::from_fn(|| pop_backlog(&mut backlog, |&(t, d)| (d, t)))
            .map(|(ticket, _)| ticket)
            .collect();
        assert_eq!(
            order,
            vec![2, 0, 3, 1],
            "earliest deadline first, FIFO within ties, None last"
        );
    }

    /// The engine-facing half of the hold, on integers alone: a fleet hold
    /// parks unprotected bulk work even with no interactive ticket here,
    /// and steps sat out while other workers decode age the held group and
    /// the queued record alike, so both escape exactly at the aging bound.
    #[test]
    fn sitting_out_a_fleet_hold_counts_toward_aging() {
        let mut policy = Policy::new(4);
        policy.aging_steps = 5;
        policy.submit(0, Priority::Bulk, 1, None);
        assert_eq!(policy.admit_next(false), Some(0));
        policy.end_step(policy.bulk_held());
        policy.set_fleet_hold(true);
        policy.submit(1, Priority::Bulk, 1, None);
        assert!(!policy.has_unheld_work(), "everything here is held");
        assert_eq!(
            policy.admit_next(false),
            None,
            "a held scheduler admits nothing"
        );
        assert!(!policy.steps(0, policy.bulk_held()), "and steps nothing");
        assert_eq!(policy.steps_until_unheld(), Some(5));
        policy.sit_out(4);
        assert!(!policy.has_unheld_work());
        assert_eq!(policy.steps_until_unheld(), Some(1));
        policy.sit_out(1);
        assert!(policy.has_unheld_work(), "both aged past the bound");
        assert_eq!(policy.steps_until_unheld(), None);
        assert_eq!(policy.admit_next(false), Some(1), "the aged record admits");
        assert!(policy.steps(0, true) && policy.steps(1, true));
        assert_eq!(
            policy.retire(1).unwrap().queue_wait_steps,
            5,
            "escaped at the bound"
        );
    }

    /// Stage 0 under the hold: a held Bulk forward does not advance; once
    /// the record ages past the bound its layers run during the hold; an
    /// Interactive forward is ordered before any queued Bulk layer, and an
    /// encoding record never admits.
    #[test]
    fn held_bulk_forwards_wait_and_aged_ones_advance() {
        let mut policy = Policy::new(2);
        policy.aging_steps = 3;
        policy.submit_encoding(0, Priority::Bulk, 1, None);
        assert_eq!(policy.next_forward(false), Some((0, false)), "unheld");
        policy.set_fleet_hold(true);
        assert_eq!(policy.next_forward(false), None, "held Bulk stage 0 waits");
        assert_eq!(
            policy.admit_next(false),
            None,
            "an encoding record never admits"
        );
        assert!(!policy.has_unheld_work());
        assert_eq!(policy.steps_until_unheld(), Some(3));
        policy.sit_out(3);
        assert!(policy.has_unheld_work(), "aged past the bound");
        assert_eq!(
            policy.next_forward(false),
            Some((0, false)),
            "aged: advances"
        );
        policy.submit_encoding(1, Priority::Interactive, 1, None);
        assert_eq!(
            policy.next_forward(false),
            Some((1, true)),
            "the keystroke's whole forward goes first"
        );
        policy.encoded(1);
        assert_eq!(policy.admit_next(false), Some(1));
        assert_eq!(policy.next_forward(false), Some((0, false)));
        assert_eq!(policy.next_forward(true), None, "one Bulk layer per step");
        policy.encoded(0);
        assert_eq!(policy.next_forward(false), None);
        assert_eq!(policy.admit_next(false), Some(0), "aged, so admitted held");
        assert_eq!(policy.retire(0).unwrap().queue_wait_steps, 3);
    }

    /// A keystroke's wait behind Bulk stage-0 work is bounded by one layer:
    /// with Bulk forwards pending and no hold, a step runs one Bulk layer at
    /// most, and a keystroke arriving after it is the next forward to run,
    /// whole, while every Bulk forward waits behind it.
    #[test]
    fn a_keystroke_waits_behind_at_most_one_bulk_layer() {
        let mut policy = Policy::new(4);
        for id in 0..3 {
            policy.submit_encoding(id, Priority::Bulk, 1, Some(10 - id));
        }
        assert_eq!(policy.next_forward(false), Some((2, false)), "EDF order");
        assert_eq!(policy.next_forward(true), None, "no second Bulk layer");
        policy.submit_encoding(3, Priority::Interactive, 1, None);
        assert_eq!(policy.next_forward(true), Some((3, true)));
        assert_eq!(policy.next_forward(false), Some((3, true)));
        policy.encoded(3);
        assert!(policy.bulk_held(), "the keystroke is pending");
        assert_eq!(policy.next_forward(false), None, "Bulk waits behind it");
        assert_eq!(policy.admit_next(false), Some(3));
        policy.retire(3);
        assert_eq!(policy.next_forward(false), Some((2, false)));
    }

    #[test]
    fn placement_balances_lanes_with_a_seed_rotated_tie_break() {
        for seed in 0..8 {
            let mut placement = Placement::new(3, seed);
            let first = placement.place(1);
            let order: Vec<usize> = [1, 1, 2, 1].iter().map(|&l| placement.place(l)).collect();
            // Every worker ties at 0 lanes, then at 1: the rotation decides
            // twice from the same start; after that the fewest lanes win.
            let next = |k| (first + k) % 3;
            assert_eq!(order, vec![next(1), next(2), first, next(1)], "seed {seed}");
        }
    }

    /// A test driver standing in for the decoder: every encoding ticket
    /// needs `layers[id]` encoder layers, every admitted one `work[id]`
    /// steps, and each op below is one call sequence.
    struct Driver {
        policy: Policy,
        work: HashMap<u64, u64>,
        layers: HashMap<u64, u64>,
        next: u64,
    }

    impl Driver {
        fn new(max_batch: usize, aging_steps: u64) -> Driver {
            let mut policy = Policy::new(max_batch);
            policy.aging_steps = aging_steps;
            Driver {
                policy,
                work: HashMap::new(),
                layers: HashMap::new(),
                next: 0,
            }
        }

        /// Queue a ticket; `layers > 0` submits it by its encoder ids.
        fn submit(
            &mut self,
            class: Priority,
            lanes: usize,
            deadline: Option<u64>,
            len: u64,
            layers: u64,
        ) -> u64 {
            let id = self.next;
            self.next += 1;
            if layers > 0 {
                self.policy.submit_encoding(id, class, lanes, deadline);
                self.layers.insert(id, layers);
            } else {
                self.policy.submit(id, class, lanes, deadline);
            }
            self.work.insert(id, len);
            id
        }

        fn cancel(&mut self, id: u64) -> bool {
            self.work.remove(&id);
            self.layers.remove(&id);
            self.policy.retire(id).is_some()
        }

        /// Stage 0 of one step, as the decoder runs it: every Interactive
        /// forward whole, then one layer of one unheld (or aged) Bulk
        /// forward at most, never while an Interactive forward waits.
        /// Returns the layers run.
        fn encode(&mut self) -> u64 {
            let mut layer_run = false;
            let mut layers = 0;
            while let Some((id, whole)) = self.policy.next_forward(layer_run) {
                let r = self.record(id);
                assert!(r.encoding, "{id} is not encoding");
                assert_eq!(whole, r.class == Priority::Interactive, "{id}");
                if !whole {
                    assert!(!layer_run, "a second Bulk layer in one step");
                    let p = &self.policy;
                    assert!(!p.bulk_held() || p.rank_of(r).0 == 0, "held layer of {id}");
                    assert!(
                        !p.records
                            .iter()
                            .any(|q| q.encoding && q.class == Priority::Interactive),
                        "Bulk layer of {id} ahead of a keystroke's forward"
                    );
                }
                let left = self.layers.get_mut(&id).expect("tracked");
                let n = if whole { *left } else { 1 };
                *left -= n;
                layers += n;
                layer_run |= !whole;
                if *left == 0 {
                    self.layers.remove(&id);
                    self.policy.encoded(id);
                }
            }
            layers
        }

        fn record(&self, id: u64) -> &Record {
            self.policy
                .records
                .iter()
                .find(|r| r.id == id)
                .expect("live record")
        }

        /// Running records before a decision, to check who lost lanes.
        fn running(&self) -> Vec<Record> {
            self.policy.running().cloned().collect()
        }

        /// Every record that lost its lanes since `before` was an
        /// unprotected bulk one.
        fn check_victims(&self, before: &[Record]) {
            for r in before
                .iter()
                .filter(|r| self.record(r.id).admitted.is_none())
            {
                assert!(
                    r.class == Priority::Bulk && !r.protected,
                    "protected ticket {} lost its lanes",
                    r.id
                );
            }
        }

        /// One decoder step: stage 0, admit, step whatever the policy lets
        /// step, retire finished tickets. Returns the tickets admitted, in
        /// order.
        fn step(&mut self, pressure: bool) -> Vec<u64> {
            let layers = self.encode();
            let mut admitted = Vec::new();
            loop {
                let before = self.running();
                let Some(id) = self.policy.admit_next(pressure) else {
                    break;
                };
                self.check_victims(&before);
                admitted.push(id);
                let p = &self.policy;
                let lanes: usize = p.running().map(|r| r.lanes).sum();
                assert!(
                    lanes <= p.max_batch,
                    "{lanes} lanes reserved of {}",
                    p.max_batch
                );
                // Admission order is rank order: nothing still queued and
                // admissible outranks the record just admitted (same clock).
                let r = self.record(id);
                assert!(!r.encoding, "{id} admitted before its forward ran");
                let aged = r.telemetry.queue_wait_steps >= p.aging_steps;
                let admitted_rank = rank(r.class, aged, r.deadline, r.id);
                let gated = pressure || p.bulk_held();
                for q in p.queued().filter(|q| !q.encoding) {
                    let rank = p.rank_of(q);
                    if !gated || rank.0 == 0 {
                        assert!(rank > admitted_rank, "{} outranks admitted {id}", q.id);
                    }
                }
            }
            let held = self.policy.bulk_held();
            let stepping: Vec<u64> = (self.policy.running())
                .filter(|r| self.policy.steps(r.id, held))
                .map(|r| r.id)
                .collect();
            if stepping.is_empty() {
                if layers > 0 {
                    self.policy.end_step(held);
                }
                return admitted;
            }
            for id in stepping {
                let left = self.work.get_mut(&id).expect("tracked");
                *left -= 1;
                if *left == 0 {
                    self.work.remove(&id);
                    self.policy.retire(id);
                }
            }
            self.policy.end_step(held);
            admitted
        }

        fn evict(&mut self) {
            let before = self.running();
            if let Some(id) = self.policy.evict() {
                self.check_victims(&before);
                assert!(
                    before.iter().any(|r| r.protected),
                    "evicted {id} for no one"
                );
                assert_eq!(self.record(id).lanes, 1, "beam {id} evicted");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random integer schedules — submissions of any class, lane count,
        /// deadline and stage 0 (pre-encoded, or 1–2 encoder layers),
        /// cancels, page pressure, steps under an arbitrary fleet hold and
        /// credited sit-outs: reserved lanes never exceed `max_batch`, a
        /// protected ticket never loses its lanes, admission follows the
        /// rank, stage 0 keeps its order (see `Driver::encode`), and with
        /// the hold lifted everything drains.
        #[test]
        fn random_integer_schedules_keep_lanes_protection_and_rank(
            max_batch in 1usize..=4,
            aging_steps in 0u64..12,
            ops in proptest::collection::vec((0u8..12, 0u64..1 << 16), 1..120),
        ) {
            let mut d = Driver::new(max_batch, aging_steps);
            for (kind, x) in ops {
                match kind {
                    0..=4 => {
                        let class = if x & 1 == 0 { Priority::Interactive } else { Priority::Bulk };
                        let lanes = 1 + (x >> 1) as usize % max_batch;
                        let deadline = Some((x >> 3) % 4).filter(|&d| d > 0);
                        d.submit(class, lanes, deadline, 1 + (x >> 5) % 6, (x >> 8) % 3);
                    }
                    5 => {
                        let id = x % (d.next + 2);
                        let live = d.policy.records.iter().any(|r| r.id == id);
                        prop_assert_eq!(d.cancel(id), live);
                    }
                    6 => d.evict(),
                    7 => d.policy.sit_out(x % 4),
                    _ => {
                        d.policy.set_fleet_hold(x & 1 == 1);
                        d.step(x & 2 == 2);
                    }
                }
            }
            d.policy.set_fleet_hold(false);
            for _ in 0..10_000 {
                if d.policy.pending() == 0 {
                    break;
                }
                d.step(false);
            }
            prop_assert_eq!(d.policy.pending(), 0, "the schedule drains");
        }

        /// Under a continuous Interactive stream (a fresh one-step
        /// keystroke every step, with an encoder forward of its own), bulk
        /// is held until it ages and every bulk ticket is admitted within
        /// `aging_steps` plus the bulk work submitted — decode steps and
        /// encoder layers — a bound linear in `aging_steps`.
        #[test]
        fn continuous_interactive_stream_admits_bulk_within_the_aging_bound(
            max_batch in 1usize..=4,
            aging_steps in 1u64..24,
            bulk in proptest::collection::vec((0u64..1 << 16, 1u64..8, 0u64..3), 1..6),
        ) {
            let mut d = Driver::new(max_batch, aging_steps);
            let mut bulk_ids: HashMap<u64, Option<u64>> = HashMap::new();
            let mut total = 0;
            for &(x, len, layers) in &bulk {
                let lanes = 1 + x as usize % max_batch;
                let deadline = Some((x >> 3) % 4).filter(|&d| d > 0);
                let id = d.submit(Priority::Bulk, lanes, deadline, len, layers);
                bulk_ids.insert(id, None);
                total += len + layers;
            }
            let bound = aging_steps + total + 1;
            while bulk_ids.values().any(Option::is_none) && d.policy.clock <= bound {
                d.submit(Priority::Interactive, 1, None, 1, 2);
                let clock = d.policy.clock;
                for id in d.step(false) {
                    if let Some(at) = bulk_ids.get_mut(&id) {
                        prop_assert!(clock >= aging_steps, "bulk {} admitted under the hold", id);
                        at.get_or_insert(clock);
                    }
                }
            }
            for (id, at) in bulk_ids {
                prop_assert!(at.is_some(), "bulk {} still queued past {} steps", id, bound);
            }
        }
    }
}
