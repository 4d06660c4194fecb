//! Encoder table: the encoder outputs of recently seen sources, keyed on
//! their encoder ids and shared by every caller that holds a handle.
//!
//! An IDE keeps re-sending buffers the assistant has already seen, and a
//! byte-identical buffer yields byte-identical encoder ids. The table sits
//! in front of the encoder forward — by far the largest cost of a keystroke
//! request — so a resubmit skips the forward and starts from a copy of the
//! retained output. What a request shares stops there: admission always
//! projects its own cross-attention K/V from the output, so no projection
//! outlives the lanes using it.
//!
//! * **Keyed on the encoder ids.** A match is equal length plus equal ids;
//!   with [`PREFIX_CACHE_CAP`] entries a scan beats a hash.
//! * **LRU-bounded.** At most [`PREFIX_CACHE_CAP`] entries. A hit refreshes
//!   its entry; an insert at the cap drops the least-recently-touched one.
//!   An entry holds its ids and one encoder output, and no pool pages, so
//!   page pressure never looks at the table.
//! * **Fleet-shared.** The handle is `Arc<Mutex<…>>`: the sharded
//!   [`Engine`](crate::engine::Engine) keeps one table for every caller of
//!   [`Engine::encode`](crate::engine::Engine::encode).
//!
//! Outputs never depend on a hit: the encoder output is a pure function of
//! the ids, and a hit returns the very bits a forward would.

use mpirical_tensor::Tensor;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Most encoder outputs the table retains. Each entry pins one encoder
/// output and its ids, and no pool pages.
pub const PREFIX_CACHE_CAP: usize = 16;

/// Aggregate encoder-table telemetry (see [`Engine::prefix_stats`]).
///
/// [`Engine::prefix_stats`]: crate::engine::Engine::prefix_stats
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PrefixStats {
    /// Encoder forwards skipped: lookups that found the ids retained.
    pub hits: u64,
    /// Encoder forwards run: lookups that found no entry for the ids.
    pub misses: u64,
    /// Self-attention K/V rows shared instead of prefilled: always 0, since
    /// nothing shares token rows. Kept for readers of the wire `Stats`.
    pub shared_rows: u64,
    /// Prompt rows the admitted requests prefilled (`prompt.len() - 1`
    /// each, so 0 for the one-token `<sos>` prompt).
    pub prefilled_rows: u64,
    /// Entries dropped by the LRU cap.
    pub evictions: u64,
}

impl PrefixStats {
    /// Total lookups of the table.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups that hit; `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.lookups();
        if lookups == 0 {
            return 0.0;
        }
        self.hits as f64 / lookups as f64
    }
}

struct Entry {
    ids: Vec<usize>,
    enc_out: Tensor,
    last_touch: u64,
}

#[derive(Default)]
struct TableInner {
    entries: Vec<Entry>,
    /// Logical LRU clock, bumped once per lookup and insert.
    clock: u64,
    stats: PrefixStats,
}

impl TableInner {
    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn find(&mut self, ids: &[usize]) -> Option<&mut Entry> {
        self.entries.iter_mut().find(|e| e.ids == ids)
    }
}

/// Shared handle to an encoder table (cheap to clone; holders of one handle
/// share its entries). See module docs.
#[derive(Clone, Default)]
pub struct PrefixTable {
    inner: Arc<Mutex<TableInner>>,
}

impl std::fmt::Debug for PrefixTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("PrefixTable")
            .field("entries", &inner.entries.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl PrefixTable {
    /// An empty table.
    pub fn new() -> PrefixTable {
        PrefixTable::default()
    }

    /// Current telemetry snapshot (`prefilled_rows` is counted by the
    /// schedulers, not here, and reads 0).
    pub fn stats(&self) -> PrefixStats {
        self.inner.lock().stats
    }

    /// Entries currently retained (at most [`PREFIX_CACHE_CAP`]).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// The encoder output for `ids`: a copy of the retained one, or on a
    /// miss `forward(ids)`, which is then retained for the next lookup.
    /// `forward` runs on the calling thread, outside the lock.
    pub fn encode(&self, ids: &[usize], forward: impl FnOnce(&[usize]) -> Tensor) -> Tensor {
        {
            let mut inner = self.inner.lock();
            let clock = inner.tick();
            if let Some(entry) = inner.find(ids) {
                entry.last_touch = clock;
                let enc_out = entry.enc_out.clone();
                inner.stats.hits += 1;
                return enc_out;
            }
            inner.stats.misses += 1;
        }
        let enc_out = forward(ids);
        let mut inner = self.inner.lock();
        let clock = inner.tick();
        // Another caller may have stored the same ids since our miss.
        if let Some(entry) = inner.find(ids) {
            entry.last_touch = clock;
            return enc_out;
        }
        if inner.entries.len() >= PREFIX_CACHE_CAP {
            let coldest = (0..inner.entries.len())
                .min_by_key(|&i| inner.entries[i].last_touch)
                .expect("a full table has entries");
            inner.entries.swap_remove(coldest);
            inner.stats.evictions += 1;
        }
        inner.entries.push(Entry {
            ids: ids.to_vec(),
            enc_out: enc_out.clone(),
            last_touch: clock,
        });
        enc_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A stand-in forward: a `[len, 2]` output derived from the ids, and a
    /// count of how often it ran.
    fn counted(forwards: &Cell<u64>) -> impl Fn(&[usize]) -> Tensor + '_ {
        move |ids| {
            forwards.set(forwards.get() + 1);
            let data = ids.iter().flat_map(|&i| [i as f32, -(i as f32)]).collect();
            Tensor::from_vec(&[ids.len(), 2], data)
        }
    }

    fn src(seed: usize) -> Vec<usize> {
        vec![1, 6 + seed, 7, 2]
    }

    #[test]
    fn a_hit_runs_no_forward_and_returns_the_same_bits() {
        let forwards = Cell::new(0);
        let forward = counted(&forwards);
        let table = PrefixTable::new();
        let first = table.encode(&src(0), &forward);
        let again = table.encode(&src(0), &forward);
        assert_eq!((first.shape, first.data), (again.shape, again.data));
        let s = table.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.misses, forwards.get(), "misses count the forwards run");
        // Ids equal up to the shorter length are a different source.
        table.encode(&src(0)[..3], &forward);
        assert_eq!((table.stats().misses, forwards.get()), (2, 2));
    }

    #[test]
    fn an_entry_holds_its_ids_and_one_encoder_output() {
        let forwards = Cell::new(0);
        let table = PrefixTable::new();
        let out = table.encode(&src(3), counted(&forwards));
        let inner = table.inner.lock();
        // Exhaustive: a field added to `Entry` (a decoder cache, pages)
        // stops this test compiling until it is accounted for here.
        let Entry {
            ids,
            enc_out,
            last_touch: _,
        } = &inner.entries[0];
        assert_eq!(ids, &src(3));
        assert_eq!(enc_out.data, out.data);
    }

    #[test]
    fn table_never_outgrows_its_cap() {
        let forwards = Cell::new(0);
        let forward = counted(&forwards);
        let table = PrefixTable::new();
        for seed in 0..3 * PREFIX_CACHE_CAP {
            table.encode(&src(seed), &forward);
            assert!(table.len() <= PREFIX_CACHE_CAP, "table outgrew its cap");
        }
        let s = table.stats();
        assert_eq!(table.len(), PREFIX_CACHE_CAP);
        assert_eq!(s.evictions, 2 * PREFIX_CACHE_CAP as u64);
        assert_eq!(s.misses, forwards.get());
    }

    #[test]
    fn entry_eviction_is_lru_not_fifo() {
        // The hot source (the buffer being actively edited) is re-touched
        // between `PREFIX_CACHE_CAP` insertions of distinct cold ones: the
        // entry the cap drops is the coldest one, not the oldest-inserted
        // hot one.
        let forwards = Cell::new(0);
        let forward = counted(&forwards);
        let table = PrefixTable::new();
        table.encode(&src(0), &forward);
        for seed in 1..=PREFIX_CACHE_CAP {
            table.encode(&src(0), &forward);
            table.encode(&src(seed), &forward);
        }
        let s = table.stats();
        let cap = PREFIX_CACHE_CAP as u64;
        assert_eq!((s.hits, s.misses, s.evictions), (cap, cap + 1, 1));
        table.encode(&src(0), &forward);
        assert_eq!(table.stats().hits, s.hits + 1, "hot entry survived (LRU)");
        table.encode(&src(1), &forward);
        assert_eq!(
            table.stats().misses,
            s.misses + 1,
            "the coldest was evicted"
        );
        assert_eq!(table.stats().misses, forwards.get());
    }
}
