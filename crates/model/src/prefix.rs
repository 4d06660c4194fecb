//! Prefix table: the cross-attention K/V of recently seen encoder outputs,
//! shared by every scheduler that holds a handle.
//!
//! Every product request decodes from a one-token `<sos>` prompt, so all a
//! request can share at admission is what its decoder cache holds before
//! the first row: the cross-attention K/V projected from the encoder
//! output. An IDE retrigger of an unchanged buffer yields a byte-identical
//! encoder output, and the table hands that request a 0-row fork of the
//! retained projections (`Arc` clones: no row data, no pool pages) instead
//! of projecting them again.
//!
//! * **Keyed on the encoder output.** An FNV-1a hash of its shape and bits
//!   is only a filter; full shape + data equality is checked before any
//!   share, so a hash collision stores a second entry and never shares the
//!   wrong projections.
//! * **LRU-bounded.** At most [`PREFIX_CACHE_CAP`] entries. A hit refreshes
//!   its entry; an insert at the cap drops the least-recently-touched one.
//!   Under pool pressure the scheduler drops the coldest entry, one per
//!   `PrefixTable::evict_coldest` call.
//! * **Fleet-shared.** The handle is `Arc<Mutex<…>>`: the sharded
//!   [`Engine`](crate::engine::Engine) hands one table to every worker, so
//!   a projection computed on worker 0 serves a resubmit landing on
//!   worker 3.
//!
//! A prompted request (`prompt.len() > 1`; only tests and benches submit
//! them) starts from the same 0-row fork and prefills its whole prompt.
//! Outputs never depend on a hit: the cross-K/V are a pure function of the
//! encoder output.

use crate::infer::DecoderCache;
use mpirical_tensor::Tensor;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Most encoder outputs the table retains. Each entry pins one encoder
/// output and its projected cross-K/V, and no pool pages.
pub const PREFIX_CACHE_CAP: usize = 16;

/// Aggregate prefix-table telemetry (see [`PrefixTable::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PrefixStats {
    /// Admissions that shared a retained entry's cross-attention K/V.
    pub hits: u64,
    /// Admissions that found no byte-identical encoder output.
    pub misses: u64,
    /// Self-attention K/V rows shared instead of prefilled: always 0, since
    /// the table shares no token rows. Kept for readers of the wire `Stats`.
    pub shared_rows: u64,
    /// Prompt rows the admitted requests prefilled (`prompt.len() - 1`
    /// each, so 0 for the one-token `<sos>` prompt).
    pub prefilled_rows: u64,
    /// Entries dropped (capacity LRU and pool-pressure eviction).
    pub evictions: u64,
}

impl PrefixStats {
    /// Total admissions that consulted the table.
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
    /// FNV-1a filter over `enc_out` (see [`enc_key`]).
    key: u64,
    enc_out: Tensor,
    /// A 0-row cache carrying the cross-attention K/V `Arc`s.
    cache: DecoderCache,
    last_touch: u64,
}

impl Entry {
    fn matches(&self, key: u64, enc_out: &Tensor) -> bool {
        self.key == key && self.enc_out.shape == enc_out.shape && self.enc_out.data == enc_out.data
    }
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

    /// Drop the least-recently-touched entry; `false` if there is none.
    fn evict_coldest(&mut self) -> bool {
        let Some((coldest, _)) = self
            .entries
            .iter()
            .enumerate()
            .min_by_key(|(_, e)| e.last_touch)
        else {
            return false;
        };
        self.entries.remove(coldest);
        self.stats.evictions += 1;
        true
    }
}

/// Shared handle to a prefix table (cheap to clone; schedulers that share a
/// handle share its entries). See module docs.
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

/// FNV-1a over the encoder output's shape and raw f32 bits — a filter
/// only; equality is always checked in full.
fn enc_key(enc_out: &Tensor) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    let mut eat = |bytes: u64| {
        h ^= bytes;
        h = h.wrapping_mul(0x100000001b3);
    };
    for &s in &enc_out.shape {
        eat(s as u64);
    }
    for &v in &enc_out.data {
        eat(v.to_bits() as u64);
    }
    h
}

impl PrefixTable {
    /// An empty table.
    pub fn new() -> PrefixTable {
        PrefixTable::default()
    }

    /// Current telemetry snapshot.
    pub fn stats(&self) -> PrefixStats {
        self.inner.lock().stats
    }

    /// The 0-row cache a fresh request with `prefill_rows` prompt rows to
    /// feed starts from: a fork of the entry retained for `enc_out`, or on
    /// a miss `build(&enc_out)`, which is then retained for the next
    /// request. `build` runs outside the lock.
    pub(crate) fn share(
        &self,
        enc_out: Tensor,
        prefill_rows: usize,
        build: impl FnOnce(&Tensor) -> DecoderCache,
    ) -> DecoderCache {
        let key = enc_key(&enc_out);
        if let Some(cache) = self.lookup(key, &enc_out, prefill_rows) {
            return cache;
        }
        let cache = build(&enc_out);
        debug_assert_eq!(cache.len(), 0, "the table retains 0-row caches only");
        self.insert(key, enc_out, &cache);
        cache
    }

    fn lookup(&self, key: u64, enc_out: &Tensor, prefill_rows: usize) -> Option<DecoderCache> {
        let mut inner = self.inner.lock();
        let clock = inner.tick();
        let TableInner { entries, stats, .. } = &mut *inner;
        stats.prefilled_rows += prefill_rows as u64;
        let Some(entry) = entries.iter_mut().find(|e| e.matches(key, enc_out)) else {
            stats.misses += 1;
            return None;
        };
        entry.last_touch = clock;
        stats.hits += 1;
        Some(entry.cache.clone())
    }

    fn insert(&self, key: u64, enc_out: Tensor, cache: &DecoderCache) {
        let mut inner = self.inner.lock();
        let clock = inner.tick();
        // Another scheduler may have stored the same output since our miss.
        if let Some(entry) = inner.entries.iter_mut().find(|e| e.matches(key, &enc_out)) {
            entry.last_touch = clock;
            return;
        }
        if inner.entries.len() >= PREFIX_CACHE_CAP {
            inner.evict_coldest();
        }
        inner.entries.push(Entry {
            key,
            enc_out,
            cache: cache.clone(),
            last_touch: clock,
        });
    }

    /// Drop the single least-recently-touched entry, returning whether
    /// there was one (pool-pressure eviction calls this until pressure
    /// clears or the table is empty).
    pub(crate) fn evict_coldest(&self) -> bool {
        self.inner.lock().evict_coldest()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::decode::encode_source;
    use crate::infer::decode_step;
    use crate::paged::PagePool;
    use crate::transformer::{build_params, TransformerParams};
    use crate::vocab::{EOS, SOS};
    use mpirical_tensor::ParamStore;

    fn len(table: &PrefixTable) -> usize {
        table.inner.lock().entries.len()
    }

    fn setup() -> (ModelConfig, ParamStore, TransformerParams) {
        let mut cfg = ModelConfig::tiny();
        cfg.vocab_size = 24;
        let mut store = ParamStore::new();
        let params = build_params(&cfg, &mut store, 11);
        (cfg, store, params)
    }

    fn enc(
        store: &ParamStore,
        params: &TransformerParams,
        cfg: &ModelConfig,
        seed: usize,
    ) -> Tensor {
        let src = vec![SOS, 6 + (seed % 5), 7 + (seed % 7), 9, EOS];
        encode_source(store, params, cfg, &src)
    }

    #[test]
    fn hash_collision_with_different_enc_out_keeps_both_entries() {
        // The hash is a filter only: two different encoder outputs under
        // one key are two entries, and each lookup shares its own
        // projections — never the other's.
        let (cfg, store, params) = setup();
        let pool = PagePool::new(cfg.d_head());
        let table = PrefixTable::new();
        let (enc_a, enc_b) = (enc(&store, &params, &cfg, 0), enc(&store, &params, &cfg, 1));
        assert_ne!(enc_a.data, enc_b.data, "encoder outputs must differ");
        let colliding_key = 42u64;
        let fresh = |e: &Tensor| DecoderCache::new_in_pool(&store, &params, &cfg, e, &pool);
        table.insert(colliding_key, enc_a.clone(), &fresh(&enc_a));
        table.insert(colliding_key, enc_b.clone(), &fresh(&enc_b));
        assert_eq!(len(&table), 2);

        for enc_out in [&enc_a, &enc_b] {
            let mut shared = table
                .lookup(colliding_key, enc_out, 0)
                .expect("collision must not evict either entry");
            assert_eq!(shared.len(), 0);
            let got = decode_step(&store, &params, &cfg, &mut shared, SOS);
            let want = decode_step(&store, &params, &cfg, &mut fresh(enc_out), SOS);
            assert_eq!(got, want, "shared cross-K/V diverged from its own enc_out");
        }
        assert_eq!(table.stats().hits, 2);
        drop(table);
        assert_eq!(pool.stats().pages_live, 0);
    }

    #[test]
    fn entry_eviction_is_lru_not_fifo() {
        // The hot entry (the buffer being actively edited) is re-touched
        // between `PREFIX_CACHE_CAP` insertions of distinct cold ones: the
        // table never grows past the cap, and the entry the cap drops is
        // the coldest one, not the oldest-inserted hot one.
        let (cfg, store, params) = setup();
        let pool = PagePool::new(cfg.d_head());
        let table = PrefixTable::new();
        let share = |seed: usize| {
            let e = enc(&store, &params, &cfg, seed);
            table.share(e, 0, |e| {
                DecoderCache::new_in_pool(&store, &params, &cfg, e, &pool)
            })
        };
        share(0);
        for seed in 1..=PREFIX_CACHE_CAP {
            share(0);
            share(seed);
            assert!(len(&table) <= PREFIX_CACHE_CAP, "table outgrew its cap");
        }
        let s = table.stats();
        assert_eq!(len(&table), PREFIX_CACHE_CAP);
        assert_eq!(s.evictions, 1, "one insert past the cap evicts one entry");
        assert_eq!(
            (s.hits, s.misses),
            (PREFIX_CACHE_CAP as u64, 1 + PREFIX_CACHE_CAP as u64)
        );
        share(0);
        assert_eq!(table.stats().hits, s.hits + 1, "hot entry survived (LRU)");
        share(1);
        assert_eq!(
            table.stats().misses,
            s.misses + 1,
            "the coldest was evicted"
        );
        assert_eq!(pool.stats().pages_live, 0, "entries pin no pages");
    }

    #[test]
    fn evict_coldest_frees_one_entry_at_a_time() {
        // Pool pressure drops entries one per call, down to an empty
        // table, which then reports nothing left to evict.
        let (cfg, store, params) = setup();
        let pool = PagePool::new(cfg.d_head());
        let table = PrefixTable::new();
        for seed in 0..PREFIX_CACHE_CAP {
            let e = enc(&store, &params, &cfg, seed);
            table.share(e, 0, |e| {
                DecoderCache::new_in_pool(&store, &params, &cfg, e, &pool)
            });
        }
        assert_eq!(len(&table), PREFIX_CACHE_CAP);

        for left in (0..PREFIX_CACHE_CAP).rev() {
            assert!(table.evict_coldest());
            assert_eq!(len(&table), left, "one entry per call");
        }
        assert!(
            !table.evict_coldest(),
            "an empty table reports nothing to evict"
        );
    }
}
