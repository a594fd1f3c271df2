//! LRU buffer pool for the paged columnar store.
//!
//! The paged backend ([`crate::pages`]) keeps dictionary codes on disk
//! in fixed-size pages and streams every counting kernel over them.
//! This module is the memory side of that design: a shared
//! [`BufferPool`] caches decoded code pages under a hard page-count
//! capacity, evicting least-recently-used pages when a load would
//! exceed it. The pool is the *only* place page bytes live in memory,
//! so its capacity bounds the resident working set of an out-of-core
//! run no matter how many columns or tables a probe touches.
//!
//! Keys are `(file id, page number)` pairs — file ids are unique per
//! spill file for the lifetime of the process, so a rebuilt column
//! (new generation, new spill file) can never alias a stale page.
//! Invalidation is *by eviction*: when the paged backend drops a
//! column because its table mutated, it calls
//! [`BufferPool::evict_file`] to purge every cached page of the old
//! spill file.
//!
//! Hit/miss/eviction counters are kept in atomics and snapshot as
//! [`PageCacheStats`] — plumbed through the `CountBackend` seam into
//! `PipelineStats` so the CLI can report cache behaviour per run.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Identity of one cached page: which spill file, which page in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageKey {
    /// Process-unique id of the spill file (see `pages::PageFile`).
    pub file: u64,
    /// Zero-based page number within the file.
    pub page: u32,
}

/// Counters describing how a buffer pool served its loads.
///
/// Snapshot via [`BufferPool::stats`]; all-zero for runs that never
/// touched the paged store. `hits + misses` is the total number of
/// page requests; `evictions` counts pages dropped to stay under
/// capacity (file-invalidation purges are not evictions — they remove
/// pages that could never be served again).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageCacheStats {
    /// Page requests served from the pool.
    pub hits: u64,
    /// Page requests that had to load from disk.
    pub misses: u64,
    /// Pages dropped by LRU pressure to stay under capacity.
    pub evictions: u64,
}

/// One resident page plus its recency tick (key into `Inner::lru`).
struct Slot {
    data: Arc<Vec<u32>>,
    tick: u64,
}

/// The mutable pool state behind one mutex: the resident map and the
/// LRU order. Ticks are monotonically increasing and unique, so the
/// `BTreeMap` doubles as an O(log n) recency queue: the first entry is
/// always the least recently used page.
struct Inner {
    map: HashMap<PageKey, Slot>,
    lru: BTreeMap<u64, PageKey>,
    next_tick: u64,
}

/// A shared LRU cache of decoded code pages with a hard page-count
/// capacity.
///
/// `Send + Sync`: one pool serves every column of a paged backend,
/// across the concurrent sessions sharing it. Loads happen *outside*
/// the lock — two sessions missing the same page may both read it
/// from disk, but the pool stays responsive and the duplicate insert
/// is benign (the second loader adopts the first's entry).
pub struct BufferPool {
    capacity_pages: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity_pages", &self.capacity_pages)
            .field("stats", &self.stats())
            .finish()
    }
}

impl BufferPool {
    /// A pool holding at most `pages` resident pages (floored at 1 —
    /// a zero-capacity pool would deadlock every probe into reloading
    /// the page it just evicted, so the floor keeps the degenerate
    /// configuration merely slow).
    pub fn with_capacity_pages(pages: usize) -> Self {
        BufferPool {
            capacity_pages: pages.max(1),
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                lru: BTreeMap::new(),
                next_tick: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A pool sized by bytes of page data (rounded down to whole
    /// pages of [`crate::pages::PAGE_BYTES`], floored at one page).
    pub fn with_capacity_bytes(bytes: usize) -> Self {
        BufferPool::with_capacity_pages(bytes / crate::pages::PAGE_BYTES)
    }

    /// The page capacity this pool enforces.
    pub fn capacity_pages(&self) -> usize {
        self.capacity_pages
    }

    /// Number of pages currently resident.
    pub fn resident_pages(&self) -> usize {
        self.lock().map.len()
    }

    /// Snapshot of the hit/miss/eviction counters.
    pub fn stats(&self) -> PageCacheStats {
        PageCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// The page under `key`, loading it with `load` on a miss. The
    /// loader runs outside the pool lock; its error propagates
    /// untouched and caches nothing.
    pub fn get_or_load<E>(
        &self,
        key: PageKey,
        load: impl FnOnce() -> Result<Vec<u32>, E>,
    ) -> Result<Arc<Vec<u32>>, E> {
        if let Some(hit) = self.get(key) {
            return Ok(hit);
        }
        let data = Arc::new(load()?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        Ok(self.insert(key, data))
    }

    /// The page under `key` if resident, bumping its recency.
    fn get(&self, key: PageKey) -> Option<Arc<Vec<u32>>> {
        let mut inner = self.lock();
        let tick = inner.next_tick;
        inner.next_tick += 1;
        let slot = inner.map.get_mut(&key)?;
        let data = Arc::clone(&slot.data);
        let old = std::mem::replace(&mut slot.tick, tick);
        inner.lru.remove(&old);
        inner.lru.insert(tick, key);
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(data)
    }

    /// Inserts a freshly loaded page, evicting LRU pages past
    /// capacity. If a concurrent loader already inserted `key`, its
    /// copy wins and ours is dropped (the pool never holds two slots
    /// for one key).
    fn insert(&self, key: PageKey, data: Arc<Vec<u32>>) -> Arc<Vec<u32>> {
        let mut inner = self.lock();
        if let Some(existing) = inner.map.get(&key) {
            return Arc::clone(&existing.data);
        }
        let tick = inner.next_tick;
        inner.next_tick += 1;
        inner.lru.insert(tick, key);
        inner.map.insert(
            key,
            Slot {
                data: Arc::clone(&data),
                tick,
            },
        );
        let mut evicted = 0u64;
        while inner.map.len() > self.capacity_pages {
            let Some((_, victim)) = inner.lru.pop_first() else {
                break;
            };
            inner.map.remove(&victim);
            evicted += 1;
        }
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
        data
    }

    /// Purges every resident page of `file` — the invalidation path
    /// when a table mutates and its spill file is replaced. Not
    /// counted as eviction: these pages can never be requested again.
    pub fn evict_file(&self, file: u64) {
        let mut inner = self.lock();
        let stale: Vec<(PageKey, u64)> = inner
            .map
            .iter()
            .filter(|(k, _)| k.file == file)
            .map(|(k, s)| (*k, s.tick))
            .collect();
        for (key, tick) in stale {
            inner.map.remove(&key);
            inner.lru.remove(&tick);
        }
    }

    /// The pool lock. Poisoning is recovered by *clearing* the pool —
    /// a panicking loader cannot leave torn entries behind (inserts
    /// are single `HashMap::insert` calls), but dropping the cache is
    /// free and removes any doubt; every page reloads from disk.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poison) => {
                let mut g = poison.into_inner();
                g.map.clear();
                g.lru.clear();
                self.inner.clear_poison();
                g
            }
        }
    }
}

impl Default for BufferPool {
    /// The pool the paged backend uses when nothing is configured:
    /// 64 MiB of pages (the ceiling the out-of-core acceptance run
    /// caps itself at).
    fn default() -> Self {
        BufferPool::with_capacity_bytes(DEFAULT_CAPACITY_BYTES)
    }
}

/// Default pool capacity in bytes (64 MiB) — also the CLI default for
/// `--page-cache`.
pub const DEFAULT_CAPACITY_BYTES: usize = 64 * 1024 * 1024;

#[cfg(test)]
mod tests {
    use super::*;

    fn key(file: u64, page: u32) -> PageKey {
        PageKey { file, page }
    }

    fn load(v: u32) -> Result<Vec<u32>, std::convert::Infallible> {
        Ok(vec![v])
    }

    #[test]
    fn hit_after_load_and_counters_track() {
        let pool = BufferPool::with_capacity_pages(4);
        let a = pool.get_or_load(key(1, 0), || load(7)).unwrap();
        assert_eq!(*a, vec![7]);
        let b = pool.get_or_load(key(1, 0), || load(99)).unwrap();
        assert_eq!(*b, vec![7], "second request must hit, not reload");
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let pool = BufferPool::with_capacity_pages(2);
        pool.get_or_load(key(1, 0), || load(0)).unwrap();
        pool.get_or_load(key(1, 1), || load(1)).unwrap();
        // Touch page 0 so page 1 is the LRU victim.
        pool.get_or_load(key(1, 0), || load(0)).unwrap();
        pool.get_or_load(key(1, 2), || load(2)).unwrap();
        assert_eq!(pool.resident_pages(), 2);
        // Page 1 must reload (miss); page 0 must still be resident.
        let before = pool.stats().misses;
        pool.get_or_load(key(1, 0), || load(0)).unwrap();
        assert_eq!(pool.stats().misses, before, "page 0 was resident");
        pool.get_or_load(key(1, 1), || load(1)).unwrap();
        assert_eq!(pool.stats().misses, before + 1, "page 1 was evicted");
        assert!(pool.stats().evictions >= 1);
    }

    #[test]
    fn capacity_one_still_serves() {
        let pool = BufferPool::with_capacity_pages(0); // floored to 1
        assert_eq!(pool.capacity_pages(), 1);
        for p in 0..8 {
            let got = pool.get_or_load(key(1, p), || load(p)).unwrap();
            assert_eq!(*got, vec![p]);
        }
        assert_eq!(pool.resident_pages(), 1);
        assert_eq!(pool.stats().evictions, 7);
    }

    #[test]
    fn evict_file_purges_only_that_file() {
        let pool = BufferPool::with_capacity_pages(8);
        pool.get_or_load(key(1, 0), || load(1)).unwrap();
        pool.get_or_load(key(2, 0), || load(2)).unwrap();
        pool.evict_file(1);
        assert_eq!(pool.resident_pages(), 1);
        let misses = pool.stats().misses;
        pool.get_or_load(key(2, 0), || load(2)).unwrap();
        assert_eq!(pool.stats().misses, misses, "file 2 untouched");
        pool.get_or_load(key(1, 0), || load(1)).unwrap();
        assert_eq!(pool.stats().misses, misses + 1, "file 1 purged");
    }

    #[test]
    fn scripted_access_pattern_pins_exact_counters() {
        // Every step of a fixed access script checks the *exact*
        // (hits, misses, evictions) triple, so any accounting drift —
        // double-counted misses, hits on reload, invalidation purges
        // leaking into `evictions` — fails here with the step name.
        let pool = BufferPool::with_capacity_pages(2);
        let expect = |step: &str, h: u64, m: u64, e: u64| {
            let s = pool.stats();
            assert_eq!(
                (s.hits, s.misses, s.evictions),
                (h, m, e),
                "after step `{step}`"
            );
        };

        pool.get_or_load(key(1, 0), || load(10)).unwrap();
        expect("cold load A", 0, 1, 0);
        pool.get_or_load(key(1, 1), || load(11)).unwrap();
        expect("cold load B", 0, 2, 0);
        pool.get_or_load(key(1, 0), || load(10)).unwrap();
        expect("re-read A", 1, 2, 0);
        // Pool is full (capacity 2); loading C evicts the LRU page B.
        pool.get_or_load(key(1, 2), || load(12)).unwrap();
        expect("load C evicts B", 1, 3, 1);
        pool.get_or_load(key(1, 1), || load(11)).unwrap();
        expect("reload B evicts A", 1, 4, 2);
        // A failing loader counts neither a miss nor an eviction.
        let r: Result<Arc<Vec<u32>>, &str> = pool.get_or_load(key(1, 3), || Err("io"));
        assert!(r.is_err());
        expect("failed load D", 1, 4, 2);
        // Invalidation purges are not evictions.
        pool.evict_file(1);
        assert_eq!(pool.resident_pages(), 0);
        expect("evict_file(1)", 1, 4, 2);
        // Purged pages reload as plain misses.
        pool.get_or_load(key(1, 2), || load(12)).unwrap();
        expect("reload C after purge", 1, 5, 2);
    }

    #[test]
    fn load_error_propagates_and_caches_nothing() {
        let pool = BufferPool::with_capacity_pages(2);
        let err: Result<Arc<Vec<u32>>, &str> = pool.get_or_load(key(1, 0), || Err("boom"));
        assert_eq!(err.unwrap_err(), "boom");
        assert_eq!(pool.resident_pages(), 0);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (0, 0));
    }
}
