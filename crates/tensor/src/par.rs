//! One parallel-for for every data-parallel section of the numeric code:
//! the `matmul` kernels' output rows, the batched decoder step's lanes, the
//! encoder's row blocks and a training step's shards.
//!
//! [`threads`] picks how many disjoint parts to cut a section into, and
//! [`for_each`] runs them with one loop body. No part's arithmetic depends
//! on the partition, so the thread count moves latency only, never a bit.
//!
//! **Nesting rule.** While a section runs more than one part, every thread
//! running a part, the caller's included, is *inside a region*. There
//! [`threads`] returns 1 and [`for_each`] runs every part on the calling
//! thread, so a `matmul` inside a training shard runs serially instead of
//! spawning a second level of threads. A one-part section runs inline and
//! marks nothing.

use std::cell::Cell;
use std::sync::OnceLock;

/// Multiply-adds per call below which a `matmul` kernel stays serial.
pub(crate) const MATMUL_MIN_WORK: usize = 1 << 18;

/// Flops across all lanes (or rows) below which a per-lane decoder section
/// or the encoder's row partition stays serial.
pub const LANE_MIN_WORK: usize = 1 << 17;

thread_local! {
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Cores this process may run on: `available_parallelism()`, read once per
/// process. The std call re-reads the cgroup CPU limits on every call
/// (≈ 12 µs), too slow for a per-kernel thread decision.
pub fn available_cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// True while the calling thread runs one part of a multi-part section.
pub(crate) fn in_region() -> bool {
    IN_REGION.with(Cell::get)
}

/// Threads for a section of `parts` parts of about `work` units each: 1 for
/// fewer than two parts, inside a region, or below `threshold` in total;
/// else one per core, at most one per part. `MPIRICAL_LANE_PAR=n` forces
/// `n` (at most one per part) past the threshold, so the property suites
/// can run the threaded partitions at tiny shapes.
pub fn threads(parts: usize, work: usize, threshold: usize) -> usize {
    if in_region() {
        return 1;
    }
    static FORCED: OnceLock<Option<usize>> = OnceLock::new();
    let forced =
        *FORCED.get_or_init(|| parse_override(std::env::var("MPIRICAL_LANE_PAR").ok().as_deref()));
    rule(parts, work, threshold, available_cores(), forced)
}

/// [`threads`] outside a region, with its inputs explicit.
fn rule(parts: usize, work: usize, threshold: usize, cores: usize, forced: Option<usize>) -> usize {
    match forced {
        _ if parts < 2 => 1,
        Some(n) => n.min(parts),
        None if parts.saturating_mul(work) < threshold => 1,
        None => cores.min(parts),
    }
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

/// `f(part)` inside a region. Only a thread outside one enters it, and the
/// mark clears on return and on unwind.
fn marked<P>(f: &impl Fn(P), part: P) {
    struct Unmark;
    impl Drop for Unmark {
        fn drop(&mut self) {
            IN_REGION.with(|r| r.set(false));
        }
    }
    IN_REGION.with(|r| r.set(true));
    let _unmark = Unmark;
    f(part)
}

/// Run `f` once on each of `parts`. With two or more parts outside a
/// region, every part but the first gets its own scoped thread and the
/// caller runs the first, all inside a region. One part, or any number
/// inside a region, runs on the calling thread in order. A panicking part
/// propagates its panic to the caller once every part has finished.
pub fn for_each<P, I, F>(parts: I, f: F)
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
    if in_region() {
        return [first, second].into_iter().chain(parts).for_each(f);
    }
    std::thread::scope(|scope| {
        let f = &f;
        let spawned: Vec<_> = std::iter::once(second)
            .chain(parts)
            .map(|part| scope.spawn(move || marked(f, part)))
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
    use std::sync::Mutex;
    use std::thread::{self, ThreadId};

    /// Thread ids that ran the parts of a `parts`-part section, in part
    /// order.
    fn section_ids(parts: usize) -> Vec<ThreadId> {
        let mut ids = vec![None; parts];
        for_each(ids.iter_mut(), |slot| *slot = Some(thread::current().id()));
        ids.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn a_top_level_section_threads_and_the_caller_runs_the_first_part() {
        let ids = section_ids(3);
        assert_eq!(ids[0], thread::current().id());
        assert!(ids[1..].iter().all(|&id| id != ids[0]));
        assert!(!in_region(), "the caller comes back unmarked");
    }

    #[test]
    fn a_section_inside_a_section_runs_on_the_callers_thread() {
        let outer: Mutex<Vec<(ThreadId, Vec<ThreadId>)>> = Mutex::new(Vec::new());
        for_each(0..2, |_| {
            assert!(in_region());
            assert_eq!(threads(1 << 10, 1 << 20, 1), 1);
            let me = thread::current().id();
            let inner = section_ids(3);
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
        for_each(std::iter::once(()), |()| {
            assert_eq!(thread::current().id(), caller);
            assert!(!in_region());
            let inner = section_ids(2);
            assert_eq!(inner[0], caller);
            assert_ne!(inner[1], caller, "a section under it still threads");
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
    fn a_panicking_part_reaches_the_caller_and_the_caller_comes_back_unmarked() {
        for bad in 0..3 {
            let caught = std::panic::catch_unwind(|| {
                for_each(0..3, |i| {
                    if i == bad {
                        panic!("part {i} failed");
                    }
                })
            });
            let payload = caught.expect_err("the panic propagates");
            let msg = payload.downcast_ref::<String>().map(String::as_str);
            assert_eq!(msg, Some(format!("part {bad} failed").as_str()));
            assert!(!in_region(), "part {bad}");
            assert_ne!(section_ids(2)[1], thread::current().id());
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
