//! Paged KV-cache storage: fixed-size, reference-counted pages handed out
//! by a [`PagePool`] with a free list.
//!
//! The contiguous cache layout reserves `max_dec_len` rows per attention
//! head up front — at typical output lengths most of that memory is never
//! touched, and a beam fork has to deep-copy every byte that *was*. Paged
//! storage fixes both at once:
//!
//! * **Allocation is page-granular.** A head buffer (`PagedRows`) is a
//!   list of page ids; a page holds [`PAGE_ROWS`] rows. Appending past the
//!   last page's capacity grabs one page from the pool's free list (or
//!   grows the slab). Resident bytes track *generated* tokens, not the
//!   worst-case cap — roughly a `max_dec_len / generated` saving per lane.
//! * **Forks are copy-on-write.** `PagedRows::fork` copies the page-id
//!   list and increments each page's refcount — O(pages) ids, zero row
//!   data. Full pages are immutable from then on and stay shared forever.
//!   Only when a writer appends into a *partial* page that others still
//!   reference does it copy that one page (the pool's COW counter records
//!   these). Beam search forks hypotheses every step; this turns each fork
//!   from a whole-cache memcpy into a handful of refcount bumps.
//! * **Pages are recycled.** Dropping a fork decrements refcounts; pages
//!   that hit zero go back on the free list and are handed out again
//!   without touching the allocator. [`PoolStats`] exposes live/peak/shared
//!   counts so serving code (and the property-test harness, which asserts
//!   zero leaked pages after every random schedule) can watch the pool.
//!
//! # Page-size trade-off
//!
//! Small pages waste less memory on the final partial page (≤ `rows·width`
//! floats per buffer) and make COW copies cheaper, but mean more page-list
//! entries to walk and more allocations; large pages amortize bookkeeping
//! but re-introduce over-reservation and make each COW copy bigger. The
//! default [`PAGE_ROWS`] = 16 keeps the partial-page waste under 7% at the
//! serving shapes while a 64-token generation still fits in 4 pages per
//! head. [`PagePool::with_page_rows`] exists so tests can stress odd sizes
//! (including 1-row pages, the worst case for bookkeeping and the best for
//! sharing granularity).
//!
//! # Numerics
//!
//! Storage only. Scores are per-row dot products (`dot_rows`) and the
//! weighted value sum accumulates rows in ascending order into one
//! accumulator (`vecmat_acc`), so walking the page list produces **bitwise**
//! the contiguous result — see the block-split test in
//! `mpirical_tensor::matmul` and the property suite in
//! `tests/paged_cache_props.rs`.
//!
//! The pool handle is an `Arc<RwLock<…>>` (the offline `parking_lot` shim):
//! forks share the pool by cloning the handle and caches release their pages
//! on `Drop` without threading a `&mut pool` through every call site, while
//! the handle stays `Send + Sync` so lanes of one scheduler can append and
//! attend from worker threads and the sharded engine can move whole pools
//! into per-worker threads. Mutation (append/fork/release) takes the write
//! lock briefly; attention reads take the read lock, so parallel lanes read
//! shared pages concurrently.

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Rows per page of the default pool (see module docs for the trade-off).
pub const PAGE_ROWS: usize = 16;

/// Index into the pool's page slab.
pub(crate) type PageId = u32;

#[derive(Debug)]
struct Page {
    /// `page_rows * row_width` floats; rows beyond a buffer's length are
    /// stale garbage and never read.
    data: Vec<f32>,
    /// Buffers currently referencing this page (0 ⇒ on the free list).
    refs: u32,
}

/// The pool's mutable state, accessed through [`PagePool::lock`] (exclusive)
/// or [`PagePool::read`] (shared). One lock per decoder layer per step keeps
/// lock traffic negligible.
#[derive(Debug)]
pub(crate) struct PoolInner {
    row_width: usize,
    page_rows: usize,
    pages: Vec<Page>,
    free: Vec<PageId>,
    live: usize,
    peak_live: usize,
    cow_copies: u64,
}

impl PoolInner {
    pub(crate) fn row_width(&self) -> usize {
        self.row_width
    }

    fn alloc(&mut self) -> PageId {
        let id = match self.free.pop() {
            Some(id) => {
                self.pages[id as usize].refs = 1;
                id
            }
            None => {
                let id = PageId::try_from(self.pages.len()).expect("page slab fits in u32 ids");
                self.pages.push(Page {
                    data: vec![0.0; self.page_rows * self.row_width],
                    refs: 1,
                });
                id
            }
        };
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        id
    }

    fn incref(&mut self, id: PageId) {
        self.pages[id as usize].refs += 1;
    }

    fn decref(&mut self, id: PageId) {
        let page = &mut self.pages[id as usize];
        debug_assert!(page.refs > 0, "double free of page {id}");
        page.refs -= 1;
        if page.refs == 0 {
            self.live -= 1;
            self.free.push(id);
        }
    }

    fn refs(&self, id: PageId) -> u32 {
        self.pages[id as usize].refs
    }

    fn page(&self, id: PageId) -> &[f32] {
        &self.pages[id as usize].data
    }

    /// Copy the first `rows` rows of `src` into `dst` (the COW half-copy —
    /// only the filled prefix of a partial page moves).
    fn copy_rows(&mut self, src: PageId, dst: PageId, rows: usize) {
        let n = rows * self.row_width;
        let (s, d) = (src as usize, dst as usize);
        debug_assert_ne!(s, d);
        if s < d {
            let (lo, hi) = self.pages.split_at_mut(d);
            hi[0].data[..n].copy_from_slice(&lo[s].data[..n]);
        } else {
            let (lo, hi) = self.pages.split_at_mut(s);
            lo[d].data[..n].copy_from_slice(&hi[0].data[..n]);
        }
    }
}

/// Aggregate pool telemetry (see [`PagePool::stats`]). Serializable so a
/// serving daemon can export it over the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PoolStats {
    /// Pages currently referenced by at least one buffer.
    pub pages_live: usize,
    /// High-water mark of `pages_live` over the pool's lifetime.
    pub pages_peak: usize,
    /// Pages currently referenced by more than one buffer (COW-shared).
    pub pages_shared: usize,
    /// Partial-page copies forced by appends into shared pages.
    pub cow_copies: u64,
    /// Rows per page.
    pub page_rows: usize,
    /// Bytes per page (`page_rows · row_width · 4`).
    pub page_bytes: usize,
}

impl PoolStats {
    /// Bytes resident right now.
    pub fn live_bytes(&self) -> usize {
        self.pages_live * self.page_bytes
    }

    /// High-water resident bytes.
    pub fn peak_bytes(&self) -> usize {
        self.pages_peak * self.page_bytes
    }
}

/// Shared handle to a page pool (cheap to clone; forks and lanes that share
/// a handle share its pages).
#[derive(Debug, Clone)]
pub struct PagePool {
    inner: Arc<RwLock<PoolInner>>,
}

impl PagePool {
    /// Pool for rows of `row_width` floats with the default [`PAGE_ROWS`].
    pub fn new(row_width: usize) -> PagePool {
        PagePool::with_page_rows(row_width, PAGE_ROWS)
    }

    /// Pool with an explicit page size (tests stress odd sizes; serving
    /// sticks with the default).
    pub fn with_page_rows(row_width: usize, page_rows: usize) -> PagePool {
        assert!(row_width >= 1, "row width must be at least 1");
        assert!(page_rows >= 1, "page size must be at least 1 row");
        PagePool {
            inner: Arc::new(RwLock::new(PoolInner {
                row_width,
                page_rows,
                pages: Vec::new(),
                free: Vec::new(),
                live: 0,
                peak_live: 0,
                cow_copies: 0,
            })),
        }
    }

    /// Floats per row (the attention head width the pool was sized for).
    pub fn row_width(&self) -> usize {
        self.inner.read().row_width
    }

    /// Take the exclusive write lock (appends, forks, releases — one brief
    /// lock per layer per decode step).
    pub(crate) fn lock(&self) -> RwLockWriteGuard<'_, PoolInner> {
        self.inner.write()
    }

    /// Take a shared read lock (attention walks page data concurrently
    /// across lanes).
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, PoolInner> {
        self.inner.read()
    }

    /// Whether `other` is a handle to this same pool.
    pub fn same_pool(&self, other: &PagePool) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// Current pool telemetry.
    pub fn stats(&self) -> PoolStats {
        let inner = self.inner.read();
        PoolStats {
            pages_live: inner.live,
            pages_peak: inner.peak_live,
            pages_shared: inner.pages.iter().filter(|p| p.refs > 1).count(),
            cow_copies: inner.cow_copies,
            page_rows: inner.page_rows,
            page_bytes: inner.page_rows * inner.row_width * std::mem::size_of::<f32>(),
        }
    }
}

/// A growing `[len, row_width]` buffer stored as a list of pool pages —
/// the paged replacement for one per-head K or V tensor.
///
/// Explicit-release discipline: the owner (`DecoderCache`) calls
/// [`release`](Self::release) from its `Drop`; `PagedRows` itself has no
/// pool handle, so dropping one without releasing leaks its pages (which is
/// exactly what the pool's `pages_live` stat and the property harness would
/// catch).
#[derive(Debug, Default)]
pub(crate) struct PagedRows {
    pages: Vec<PageId>,
    len: usize,
}

impl PagedRows {
    pub(crate) fn new() -> PagedRows {
        PagedRows::default()
    }

    /// Rows appended so far.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Append one row, claiming a fresh page on a page boundary and
    /// copy-on-writing the final page if it is shared with a fork.
    pub(crate) fn push_row(&mut self, pool: &mut PoolInner, row: &[f32]) {
        let width = pool.row_width;
        assert_eq!(row.len(), width, "row width mismatch");
        let offset = self.len % pool.page_rows;
        if offset == 0 {
            self.pages.push(pool.alloc());
        } else {
            let last = *self.pages.last().expect("partial page exists");
            if pool.refs(last) > 1 {
                // Copy-on-write: move the filled prefix to a private page.
                let fresh = pool.alloc();
                pool.copy_rows(last, fresh, offset);
                pool.decref(last);
                pool.cow_copies += 1;
                *self.pages.last_mut().expect("partial page exists") = fresh;
            }
        }
        let last = *self.pages.last().expect("page just ensured") as usize;
        pool.pages[last].data[offset * width..(offset + 1) * width].copy_from_slice(row);
        self.len += 1;
    }

    /// Copy-on-write fork: share every page with the parent (refcount bump
    /// per page, no row data copied).
    pub(crate) fn fork(&self, pool: &mut PoolInner) -> PagedRows {
        for &id in &self.pages {
            pool.incref(id);
        }
        PagedRows {
            pages: self.pages.clone(),
            len: self.len,
        }
    }

    /// Drop all page references, returning freed pages to the pool.
    pub(crate) fn release(&mut self, pool: &mut PoolInner) {
        for &id in &self.pages {
            pool.decref(id);
        }
        self.pages.clear();
        self.len = 0;
    }

    /// The filled row-slices of each page, in order: full pages yield
    /// `page_rows · width` floats, the final partial page only its filled
    /// prefix. Concatenated, this is exactly the contiguous `[len, width]`
    /// buffer.
    pub(crate) fn page_slices<'p>(
        &'p self,
        pool: &'p PoolInner,
    ) -> impl Iterator<Item = &'p [f32]> + 'p {
        let (rows_per, width) = (pool.page_rows, pool.row_width);
        let len = self.len;
        self.pages.iter().enumerate().map(move |(i, &id)| {
            let filled = (len - i * rows_per).min(rows_per);
            &pool.page(id)[..filled * width]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_of(buf: &PagedRows, pool: &PagePool) -> Vec<f32> {
        let inner = pool.lock();
        buf.page_slices(&inner).flatten().copied().collect()
    }

    #[test]
    fn append_read_roundtrip_across_page_boundaries() {
        for page_rows in [1usize, 2, 3, 16] {
            let pool = PagePool::with_page_rows(4, page_rows);
            let mut buf = PagedRows::new();
            let mut want = Vec::new();
            for r in 0..11 {
                let row: Vec<f32> = (0..4).map(|c| (r * 4 + c) as f32).collect();
                buf.push_row(&mut pool.lock(), &row);
                want.extend_from_slice(&row);
            }
            assert_eq!(buf.len(), 11);
            assert_eq!(rows_of(&buf, &pool), want, "page_rows={page_rows}");
            buf.release(&mut pool.lock());
            assert_eq!(pool.stats().pages_live, 0);
        }
    }

    #[test]
    fn fork_shares_pages_and_cow_isolates_appends() {
        let pool = PagePool::with_page_rows(2, 4);
        let mut a = PagedRows::new();
        for r in 0..6 {
            a.push_row(&mut pool.lock(), &[r as f32, -(r as f32)]);
        }
        // 6 rows over 4-row pages: one full page + one half-full page.
        assert_eq!(pool.stats().pages_live, 2);

        let mut b = a.fork(&mut pool.lock());
        assert_eq!(pool.stats().pages_shared, 2);
        assert_eq!(pool.stats().pages_live, 2, "fork copies no pages");
        let before = rows_of(&a, &pool);
        assert_eq!(rows_of(&b, &pool), before);

        // Appending through the fork COWs only the partial page…
        b.push_row(&mut pool.lock(), &[100.0, 200.0]);
        let s = pool.stats();
        assert_eq!(s.cow_copies, 1);
        assert_eq!(s.pages_live, 3);
        assert_eq!(s.pages_shared, 1, "the full page stays shared");
        // …and the parent is untouched.
        assert_eq!(rows_of(&a, &pool), before);
        assert_eq!(rows_of(&b, &pool)[12..], [100.0, 200.0]);

        // The parent's next append sees refcount 1 again: no second copy.
        a.push_row(&mut pool.lock(), &[7.0, 8.0]);
        assert_eq!(pool.stats().cow_copies, 1);

        a.release(&mut pool.lock());
        b.release(&mut pool.lock());
        let s = pool.stats();
        assert_eq!(s.pages_live, 0, "all pages returned");
        assert_eq!(s.pages_peak, 3);
    }

    #[test]
    fn freed_pages_are_recycled_not_reallocated() {
        let pool = PagePool::with_page_rows(1, 2);
        let mut a = PagedRows::new();
        for _ in 0..8 {
            a.push_row(&mut pool.lock(), &[1.0]);
        }
        a.release(&mut pool.lock());
        let mut b = PagedRows::new();
        for _ in 0..8 {
            b.push_row(&mut pool.lock(), &[2.0]);
        }
        let s = pool.stats();
        assert_eq!(s.pages_live, 4);
        assert_eq!(s.pages_peak, 4, "second pass reused the freed slab");
        b.release(&mut pool.lock());
    }

    #[test]
    fn boundary_append_on_shared_full_page_needs_no_cow() {
        let pool = PagePool::with_page_rows(1, 2);
        let mut a = PagedRows::new();
        a.push_row(&mut pool.lock(), &[1.0]);
        a.push_row(&mut pool.lock(), &[2.0]);
        let mut b = a.fork(&mut pool.lock());
        // Both sides append at a page boundary: fresh pages, zero copies.
        a.push_row(&mut pool.lock(), &[3.0]);
        b.push_row(&mut pool.lock(), &[4.0]);
        assert_eq!(pool.stats().cow_copies, 0);
        assert_eq!(rows_of(&a, &pool), [1.0, 2.0, 3.0]);
        assert_eq!(rows_of(&b, &pool), [1.0, 2.0, 4.0]);
        a.release(&mut pool.lock());
        b.release(&mut pool.lock());
        assert_eq!(pool.stats().pages_live, 0);
    }
}
