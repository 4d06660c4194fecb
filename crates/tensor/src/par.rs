//! One parallel-for for every data-parallel section of the numeric code:
//! the `matmul` kernels' output rows, the batched decoder step's lanes, the
//! encoder's row blocks and a training step's shards.
//!
//! [`threads`] picks how many disjoint parts to cut a section into, from the
//! section's shape and [`available_cores`] alone, and [`for_each`] runs them
//! with one loop body. No part's arithmetic depends on the partition, and
//! the partition does not depend on what else runs, so neither moves a bit.
//!
//! **Occupancy.** A thread holding an [`Occupied`] guard occupies a core:
//! an engine worker holds one for each scheduler step, and every thread
//! running parts of a section holds one while it does. [`for_each`] picks
//! its thread count when it is called: the number of parts, capped at the
//! cores that other threads do not occupy (at least the caller's own). It
//! runs the parts in that many contiguous groups, one per thread, and the
//! caller runs the first. So workers that already fill the cores step
//! their sections serially instead of spawning onto busy cores, and a lone
//! worker still spreads over every core. An urgent guard (a step that
//! serves a keystroke) counts every core as free, and with
//! `MPIRICAL_LANE_PAR` set every part gets its own thread, so the property
//! suites keep running the threaded path. The thread count moves latency
//! only, never a bit.
//!
//! **Nesting rule.** While a section runs more than one part, every thread
//! running a part, the caller's included, is *inside a region*, however
//! many threads it runs on. There [`threads`] returns 1 and [`for_each`]
//! runs every part on the calling thread, so a `matmul` inside a training
//! shard runs serially instead of spawning a second level of threads. A
//! one-part section runs inline and marks nothing.

use std::cell::Cell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::OnceLock;

/// Multiply-adds per call below which a `matmul` kernel stays serial.
pub(crate) const MATMUL_MIN_WORK: usize = 1 << 18;

/// Flops across all lanes (or rows) below which a per-lane decoder section
/// or the encoder's row partition stays serial.
pub const LANE_MIN_WORK: usize = 1 << 17;

/// Cores occupied by the threads holding an [`Occupied`] guard. It only
/// steers a thread count and publishes no data, so it is `Relaxed`.
static OCCUPIED: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
    /// The calling thread's outermost guard is counted.
    static HOLDS: Cell<bool> = const { Cell::new(false) };
    /// The calling thread holds an urgent guard.
    static URGENT: Cell<bool> = const { Cell::new(false) };
}

/// Cores this process may run on: `available_parallelism()`, read once per
/// process. The std call re-reads the cgroup CPU limits on every call
/// (≈ 12 µs), too slow for a per-kernel thread decision.
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Cores occupied right now (see module docs).
pub fn occupied() -> usize {
    OCCUPIED.load(Relaxed)
}

/// The calling thread occupies a core until this guard drops. Guards nest:
/// a thread counts once however many it holds, and it is urgent while any
/// of them is.
#[must_use = "the core is occupied only while the guard lives"]
pub struct Occupied {
    /// The count this guard raised; `None` for a nested guard.
    cores: Option<&'static AtomicUsize>,
    was_urgent: bool,
    /// Dropping it restores the marks of the thread that made it.
    _thread_bound: PhantomData<*const ()>,
}

/// Occupy a core for the calling thread's next stretch of work. An
/// `urgent` guard makes this thread's sections count every core as free.
pub fn occupy(urgent: bool) -> Occupied {
    occupy_on(&OCCUPIED, urgent)
}

fn occupy_on(cores: &'static AtomicUsize, urgent: bool) -> Occupied {
    let outermost = !HOLDS.with(|h| h.replace(true));
    if outermost {
        cores.fetch_add(1, Relaxed);
    }
    Occupied {
        cores: outermost.then_some(cores),
        was_urgent: URGENT.with(|u| u.replace(u.get() || urgent)),
        _thread_bound: PhantomData,
    }
}

impl Drop for Occupied {
    fn drop(&mut self) {
        URGENT.with(|u| u.set(self.was_urgent));
        if let Some(cores) = self.cores {
            cores.fetch_sub(1, Relaxed);
            HOLDS.with(|h| h.set(false));
        }
    }
}

/// True while the calling thread runs one part of a multi-part section.
pub(crate) fn in_region() -> bool {
    IN_REGION.with(Cell::get)
}

/// Parts to cut a section of `items` items of about `work` units each
/// into: 1 for fewer than two items, inside a region, or below `threshold`
/// in total; else one per core, at most one per item. `MPIRICAL_LANE_PAR=n`
/// forces `n` (at most one per item) past the threshold, so the property
/// suites can run the threaded partitions at tiny shapes. Which cores are
/// occupied never changes it.
pub fn threads(items: usize, work: usize, threshold: usize) -> usize {
    if in_region() {
        return 1;
    }
    rule(items, work, threshold, available_cores(), forced())
}

/// [`threads`] outside a region, with its inputs explicit.
fn rule(items: usize, work: usize, threshold: usize, cores: usize, forced: Option<usize>) -> usize {
    match forced {
        _ if items < 2 => 1,
        Some(n) => n.min(items),
        None if items.saturating_mul(work) < threshold => 1,
        None => cores.min(items),
    }
}

/// Threads to run a section of `parts` parts on: every part its own when
/// the partition is `forced`; else the parts, capped at the free cores —
/// all `cores` for an `urgent` caller, else those that `others` threads do
/// not occupy — and never fewer than the caller's one.
fn spread(parts: usize, cores: usize, others: usize, urgent: bool, forced: bool) -> usize {
    let free = if urgent {
        cores
    } else {
        cores.saturating_sub(others)
    };
    if forced {
        parts
    } else {
        parts.min(free).max(1)
    }
}

/// `MPIRICAL_LANE_PAR`, read once per process.
fn forced() -> Option<usize> {
    static FORCED: OnceLock<Option<usize>> = OnceLock::new();
    *FORCED.get_or_init(|| parse_override(std::env::var("MPIRICAL_LANE_PAR").ok().as_deref()))
}

/// Parse `MPIRICAL_LANE_PAR`. A value that is not a positive count panics:
/// a suite that sets it wrong must not run on the serial path it set it to
/// avoid.
fn parse_override(var: Option<&str>) -> Option<usize> {
    let raw = var?;
    let n = raw.trim().parse().ok().filter(|&n| n >= 1);
    Some(n.unwrap_or_else(|| {
        panic!("MPIRICAL_LANE_PAR must be a positive thread count, got {raw:?}")
    }))
}

/// `f` on each of `parts` inside a region. Only a thread outside one
/// enters it, and the mark clears on return and on unwind.
fn marked<P>(f: &impl Fn(P), parts: impl IntoIterator<Item = P>) {
    struct Unmark;
    impl Drop for Unmark {
        fn drop(&mut self) {
            IN_REGION.with(|r| r.set(false));
        }
    }
    IN_REGION.with(|r| r.set(true));
    let _unmark = Unmark;
    parts.into_iter().for_each(f)
}

/// Run `f` once on each of `parts`. Two or more parts outside a region run
/// inside one, on as many threads as there are free cores, at most one per
/// part (see module docs): contiguous groups, the caller running the
/// first. One part, or any number inside a region, runs on the calling
/// thread in order. A panicking part propagates its panic to the caller
/// once every thread has finished.
pub fn for_each<P, I, F>(parts: I, f: F)
where
    I: IntoIterator<Item = P>,
    P: Send,
    F: Fn(P) + Sync,
{
    for_each_on(&OCCUPIED, parts, f)
}

/// [`for_each`] counting occupied cores on `cores`.
fn for_each_on<P, I, F>(cores: &'static AtomicUsize, parts: I, f: F)
where
    I: IntoIterator<Item = P>,
    P: Send,
    F: Fn(P) + Sync,
{
    let mut parts = parts.into_iter();
    let Some(first) = parts.next() else {
        return;
    };
    let Some(second) = parts.next() else {
        return f(first);
    };
    let parts: Vec<P> = [first, second].into_iter().chain(parts).collect();
    if in_region() {
        return parts.into_iter().for_each(f);
    }
    let others = cores
        .load(Relaxed)
        .saturating_sub(usize::from(HOLDS.with(Cell::get)));
    let n = parts.len();
    let urgent = URGENT.with(Cell::get);
    let threads = spread(n, available_cores(), others, urgent, forced().is_some());
    let _caller = occupy_on(cores, false);
    // Group g holds n / threads parts, plus one for the first n % threads.
    let mut parts = parts.into_iter();
    let mut groups = (0..threads).map(|g| {
        let len = n / threads + usize::from(g < n % threads);
        parts.by_ref().take(len).collect::<Vec<P>>()
    });
    let first = groups.next().expect("at least one group");
    std::thread::scope(|scope| {
        let f = &f;
        let spawned: Vec<_> = groups
            .map(|group| {
                scope.spawn(move || {
                    let _helper = occupy_on(cores, false);
                    marked(f, group)
                })
            })
            .collect();
        marked(f, first);
        for handle in spawned {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::{Barrier, Mutex};
    use std::thread::{self, ThreadId};

    /// A fresh occupancy count, so a test's arithmetic does not see the
    /// sections other tests run meanwhile.
    fn fresh_count() -> &'static AtomicUsize {
        Box::leak(Box::new(AtomicUsize::new(0)))
    }

    /// Thread ids that ran the parts of a `parts`-part section counted on
    /// `cores`, in part order; each part must run exactly once.
    fn section_ids_on(cores: &'static AtomicUsize, parts: usize) -> Vec<ThreadId> {
        let mut ids = vec![None; parts];
        for_each_on(cores, ids.iter_mut(), |slot| {
            assert!(slot.replace(thread::current().id()).is_none(), "run twice");
        });
        ids.into_iter().map(|id| id.expect("never run")).collect()
    }

    /// The caller runs the first part, and with `k` cores free a section of
    /// more parts than cores runs on `k` distinct threads, one contiguous
    /// group each.
    #[test]
    fn a_top_level_section_threads_and_the_caller_runs_the_first_part() {
        let all = available_cores();
        for free in 1..=all {
            let cores = fresh_count();
            cores.store(all - free, Relaxed);
            let ids = section_ids_on(cores, 2 * all + 1);
            assert_eq!(ids[0], thread::current().id(), "{free} free");
            let distinct: HashSet<ThreadId> = ids.iter().copied().collect();
            let mut groups = ids.clone();
            groups.dedup();
            assert_eq!(distinct.len(), free, "{free} free");
            assert_eq!(groups.len(), free, "{free} free: contiguous groups");
            assert_eq!(
                cores.load(Relaxed),
                all - free,
                "the section released its cores"
            );
            assert!(!in_region(), "the caller comes back unmarked");
        }
    }

    #[test]
    fn with_every_core_occupied_a_section_runs_on_the_caller() {
        let cores = fresh_count();
        cores.store(available_cores(), Relaxed);
        let caller = thread::current().id();
        for parts in [2, 3, 17] {
            assert_eq!(section_ids_on(cores, parts), vec![caller; parts]);
        }
        let marked_parts = AtomicUsize::new(0);
        for_each_on(cores, 0..4, |_| {
            assert!(in_region(), "a serial section still marks its parts");
            marked_parts.fetch_add(1, Relaxed);
        });
        assert_eq!(marked_parts.into_inner(), 4);
        assert_eq!(cores.load(Relaxed), available_cores());
    }

    #[test]
    fn a_running_section_occupies_one_core_per_thread() {
        let all = available_cores();
        let cores = fresh_count();
        let barrier = Barrier::new(all);
        let counts = Mutex::new(Vec::new());
        for_each_on(cores, 0..all, |_| {
            barrier.wait();
            counts.lock().unwrap().push(cores.load(Relaxed));
            barrier.wait();
        });
        assert_eq!(counts.into_inner().unwrap(), vec![all; all]);
        assert_eq!(cores.load(Relaxed), 0);
    }

    #[test]
    fn nested_guards_count_once() {
        let cores = fresh_count();
        {
            let _outer = occupy_on(cores, false);
            assert_eq!(cores.load(Relaxed), 1);
            {
                let _inner = occupy_on(cores, true);
                let _innermost = occupy_on(cores, false);
                assert_eq!(cores.load(Relaxed), 1, "nested guards count once");
                assert!(URGENT.with(Cell::get), "urgent inside an urgent guard");
                for_each_on(cores, 0..2, |_| {});
                assert_eq!(cores.load(Relaxed), 1, "nor does a section's caller");
            }
            assert!(!URGENT.with(Cell::get));
            assert_eq!(cores.load(Relaxed), 1);
        }
        assert_eq!(cores.load(Relaxed), 0);
        assert!(!HOLDS.with(Cell::get));
    }

    #[test]
    fn a_panicking_part_reaches_the_caller_and_the_caller_comes_back_unmarked() {
        let cores = fresh_count();
        for bad in 0..3 {
            for held in 0..=available_cores() {
                cores.store(held, Relaxed);
                let caught = std::panic::catch_unwind(|| {
                    for_each_on(cores, 0..3, |i| {
                        if i == bad {
                            panic!("part {i} failed");
                        }
                    })
                });
                let payload = caught.expect_err("the panic propagates");
                let msg = payload.downcast_ref::<String>().map(String::as_str);
                assert_eq!(msg, Some(format!("part {bad} failed").as_str()));
                assert_eq!(cores.load(Relaxed), held, "part {bad}, {held} held");
                assert!(!in_region(), "part {bad}");
                assert!(!HOLDS.with(Cell::get), "part {bad}");
            }
        }
    }

    /// `(parts, cores, others, urgent, forced)` → threads, every branch.
    #[test]
    fn the_thread_count_follows_the_free_cores() {
        assert_eq!(spread(4, 4, 0, false, false), 4, "every core free");
        assert_eq!(spread(4, 4, 1, false, false), 3, "one occupied");
        assert_eq!(spread(2, 4, 1, false, false), 2, "at most one per part");
        assert_eq!(spread(2, 2, 1, false, false), 1, "a full fleet runs serial");
        assert_eq!(
            spread(3, 2, 7, false, false),
            1,
            "the caller's core at least"
        );
        assert_eq!(spread(2, 2, 2, true, false), 2, "urgent: every core free");
        assert_eq!(spread(8, 2, 2, true, false), 2, "urgent: at most the cores");
        assert_eq!(spread(3, 2, 2, false, true), 3, "forced: every part");
        assert_eq!(spread(3, 2, 0, true, true), 3);
    }

    #[test]
    fn the_partition_does_not_depend_on_occupancy() {
        let shapes = [
            (8, 1 << 20, 1),
            (8, 10, 100),
            (3, 1 << 20, LANE_MIN_WORK),
            (256, 4 << 20, LANE_MIN_WORK),
            (48, 256 * 256, MATMUL_MIN_WORK),
        ];
        let partition = || shapes.map(|(items, work, min)| threads(items, work, min));
        let idle = partition();
        let all = available_cores();
        let (held, release) = (Barrier::new(all + 1), Barrier::new(all + 1));
        thread::scope(|scope| {
            for _ in 0..all {
                scope.spawn(|| {
                    let _core = occupy(false);
                    held.wait();
                    release.wait();
                });
            }
            held.wait();
            assert!(occupied() >= all);
            assert_eq!(partition(), idle, "every core occupied by others");
            let _urgent = occupy(true);
            assert_eq!(partition(), idle, "inside an urgent guard");
            release.wait();
        });
    }

    #[test]
    fn a_section_inside_a_section_runs_on_the_callers_thread() {
        let outer: Mutex<Vec<(ThreadId, Vec<ThreadId>)>> = Mutex::new(Vec::new());
        for_each_on(fresh_count(), 0..2, |_| {
            assert!(in_region());
            assert_eq!(threads(1 << 10, 1 << 20, 1), 1);
            let me = thread::current().id();
            let inner = section_ids_on(fresh_count(), 3);
            outer.lock().unwrap().push((me, inner));
        });
        let outer = outer.into_inner().unwrap();
        assert_eq!(outer.len(), 2);
        for (me, inner) in outer {
            assert_eq!(inner, vec![me; 3]);
        }
        assert!(!in_region());
    }

    #[test]
    fn a_one_part_section_runs_inline_and_leaves_its_thread_unmarked() {
        let caller = thread::current().id();
        let cores = fresh_count();
        for_each_on(cores, std::iter::once(()), |()| {
            assert_eq!(thread::current().id(), caller);
            assert!(!in_region());
            assert_eq!(cores.load(Relaxed), 0, "and occupies nothing");
            let inner = section_ids_on(cores, 2);
            assert_eq!(inner[0], caller);
            if available_cores() > 1 {
                assert_ne!(inner[1], caller, "a section under it still threads");
            }
        });
        for_each(std::iter::empty::<()>(), |()| unreachable!());
    }

    #[test]
    fn uneven_splits_visit_every_item_exactly_once() {
        for len in [1usize, 2, 7, 17, 64] {
            for parts in 1..=5 {
                let mut visits = vec![0u32; len];
                let per = len.div_ceil(parts);
                for_each(visits.chunks_mut(per), |chunk| {
                    for v in chunk {
                        *v += 1;
                    }
                });
                assert!(visits.iter().all(|&v| v == 1), "len {len}, {parts} parts");
            }
        }
    }

    #[test]
    fn threads_is_one_below_the_threshold_for_one_part_and_inside_a_region() {
        assert_eq!(rule(8, 10, 100, 4, None), 1, "80 < 100");
        assert_eq!(rule(8, 13, 100, 4, None), 4);
        assert_eq!(rule(3, 1 << 20, 1, 4, None), 3, "at most one per part");
        assert_eq!(rule(1, 1 << 20, 1, 4, None), 1);
        assert_eq!(rule(0, 1 << 20, 1, 4, None), 1);
        assert_eq!(rule(8, 0, 1, 4, Some(2)), 2, "forced past the threshold");
        assert_eq!(rule(1, 0, 1, 4, Some(2)), 1);
        assert_eq!(rule(usize::MAX, usize::MAX, usize::MAX, 2, None), 2);
        for_each(0..2, |_| assert_eq!(threads(64, 1 << 20, 1), 1));
    }

    /// At the serving shapes the rule returns what the per-site rules it
    /// replaced returned: the decoder's per-lane sections and the encoder's
    /// row blocks (`lanes < 2` → 1, below 2¹⁷ → 1, else cores capped at the
    /// lanes) and `matmul` (cores when `m·n·k ≥ 2¹⁸` and `m > 1`, else 1;
    /// the row chunks it cut were the same as cores capped at `m`).
    #[test]
    fn serving_shapes_keep_their_thread_counts() {
        let lane_rule = |lanes: usize, work: usize, cores: usize| {
            if lanes < 2 || lanes.saturating_mul(work) < 1 << 17 {
                1
            } else {
                cores.min(lanes)
            }
        };
        let matmul_chunks = |m: usize, n: usize, k: usize, cores: usize| {
            let threads = if m * n * k >= 1 << 18 && cores > 1 && m > 1 {
                cores
            } else {
                1
            };
            m.div_ceil(m.div_ceil(threads))
        };
        let (d, dff, lanes) = (256usize, 1024usize, 8usize);
        for cores in [1, 2, 3, 4, 8, 16] {
            let lane = |parts: usize, work: usize| {
                let got = rule(parts, work, LANE_MIN_WORK, cores, None);
                assert_eq!(got, lane_rule(parts, work, cores), "{parts} × {work}");
                got
            };
            for batch in [1, 2, lanes] {
                lane(batch, 10 * d);
                for pos in [0usize, 31, 63, 231] {
                    lane(batch, 2 * d * (pos + 1));
                }
                for t_enc in [48usize, 256] {
                    lane(batch, 2 * d * t_enc);
                }
            }
            for t in [48usize, 256] {
                lane(t, 4 * d * d + 2 * d * dff + 2 * t * d);
            }
            if cores > 1 {
                assert_eq!(lane(lanes, 2 * d * 32), cores.min(lanes), "position 31");
            }
            assert_eq!(lane(lanes, 2 * d), 1, "position 0");
            assert_eq!(lane(lanes, 10 * d), 1, "LayerNorm rows");
            for t in [1usize, 2, 48, 256] {
                for (n, k) in [(d, d), (dff, d), (d, dff), (t, d / 4), (d / 4, t)] {
                    let threads = rule(t, n * k, MATMUL_MIN_WORK, cores, None);
                    let chunks = t.div_ceil(t.div_ceil(threads));
                    assert_eq!(
                        chunks,
                        matmul_chunks(t, n, k, cores),
                        "[{t}, {k}] @ [{k}, {n}]"
                    );
                }
            }
        }
    }

    #[test]
    fn override_accepts_a_positive_count() {
        assert_eq!(parse_override(None), None);
        assert_eq!(parse_override(Some("3")), Some(3));
        assert_eq!(parse_override(Some(" 2 ")), Some(2), "trimmed");
        assert_eq!(parse_override(Some("1")), Some(1));
    }

    #[test]
    #[should_panic(expected = "MPIRICAL_LANE_PAR must be a positive thread count")]
    fn override_zero_is_rejected_loudly() {
        parse_override(Some("0"));
    }

    #[test]
    #[should_panic(expected = "MPIRICAL_LANE_PAR must be a positive thread count")]
    fn override_garbage_is_rejected_loudly() {
        parse_override(Some("two"));
    }
}
