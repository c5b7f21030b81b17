//! Host-side shared buffer cache (§4.3.2).
//!
//! A write-through LRU page cache keyed by `(inode, page index)`. Being on
//! the host, it is *shared by all co-processors*: a file that one Xeon Phi
//! reads warms the cache for every other Phi — one of the system-wide
//! optimizations only the control-plane OS can make. Write-through keeps
//! the device authoritative, so concurrent P2P reads (which bypass the
//! cache) never observe stale blocks.
//!
//! The cache also publishes a *residency directory* through an operation
//! log: every insert/evict/invalidate appends a `DirOp` under the cache
//! lock, and each proxy shard holds a [`CacheDirReplica`] — a local set
//! of resident `(inode, page)` keys it can probe for the P2P-vs-buffered
//! path decision (§4.3.2) without ever taking the shared cache lock. A
//! replica that falls behind the log's lag bound is compacted past and
//! rebuilds itself from an authoritative snapshot on its next probe.
//!
//! Pages never leave the cache by value on the data path: a reader is
//! lent the resident page ([`BufferCache::with_page`]) and a writer or a
//! miss is lent the slot's own buffer ([`BufferCache::fill`]), both
//! under the cache lock, so a page moves once — cache to destination or
//! source to cache — and nothing is allocated per access.

use std::sync::Arc;

use solros_oplog::{LogConfig, LogStats, OpLog, ReplicaCursor, SyncOutcome};
use solros_simkit::sync::Mutex;
use solros_simkit::{IntMap, IntSet};

use crate::fs::Ino;

/// Page size (one device block).
pub const PAGE_SIZE: usize = solros_nvme::BLOCK_SIZE;

type Key = (Ino, u64);

/// One mutation of the residency directory, as published to replicas.
#[derive(Clone, Debug)]
enum DirOp {
    /// `(ino, page)` became resident.
    Add(Ino, u64),
    /// `(ino, page)` left the cache (eviction or invalidation).
    Del(Ino, u64),
    /// Every page of `ino` left the cache (truncate/unlink path) — one
    /// log entry instead of one per page.
    DelIno(Ino),
}

/// Directory-log tuning: compaction starts once this many entries are
/// resident, and a replica may fall at most [`DIR_MAX_LAG`] entries
/// behind before compaction advances past it (forcing it to rebuild from
/// a cache snapshot). Bounds log memory even if a replica never syncs.
const DIR_HIGH_WATER: usize = 4096;
const DIR_MAX_LAG: u64 = 16_384;

struct Entry {
    key: Key,
    /// The slot's own page buffer; empty while the slot is free.
    page: Box<[u8]>,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

struct LruInner {
    map: IntMap<Key, usize>,
    slots: Vec<Entry>,
    free: Vec<usize>,
    head: usize, // Most recently used.
    tail: usize, // Least recently used.
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Residency-directory log; appended under the cache lock, so the
    /// log order is exactly the order mutations took effect.
    dir: Arc<OpLog<DirOp>>,
}

impl LruInner {
    fn unlink(&mut self, idx: usize) {
        let (p, n) = (self.slots[idx].prev, self.slots[idx].next);
        if p != NIL {
            self.slots[p].next = n;
        } else {
            self.head = n;
        }
        if n != NIL {
            self.slots[n].prev = p;
        } else {
            self.tail = p;
        }
    }

    fn push_front(&mut self, idx: usize) {
        self.slots[idx].prev = NIL;
        self.slots[idx].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn touch(&mut self, idx: usize) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.push_front(idx);
    }

    /// Detaches a slot for a page about to become resident: the LRU
    /// page's when the cache is full (evicting it), else a free one.
    fn claim(&mut self) -> usize {
        if self.map.len() >= self.capacity {
            let victim = self.tail;
            debug_assert_ne!(victim, NIL);
            self.unlink(victim);
            let vkey = self.slots[victim].key;
            self.map.remove(&vkey);
            self.evictions += 1;
            self.dir.append(DirOp::Del(vkey.0, vkey.1));
            victim
        } else if let Some(free) = self.free.pop() {
            free
        } else {
            self.slots.push(Entry {
                key: (0, 0),
                page: Box::default(),
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        }
    }

    /// Removes without logging — the caller appends a coarser op (e.g.
    /// one `DelIno` covering every page of an inode).
    fn remove_quiet(&mut self, key: &Key) -> bool {
        if let Some(idx) = self.map.remove(key) {
            self.unlink(idx);
            self.release(idx);
            true
        } else {
            false
        }
    }

    /// Returns a detached slot (and its page's memory) to the free list.
    fn release(&mut self, idx: usize) {
        self.slots[idx].page = Box::default();
        self.free.push(idx);
    }

    fn remove(&mut self, key: &Key) {
        if self.remove_quiet(key) {
            self.dir.append(DirOp::Del(key.0, key.1));
        }
    }
}

/// Cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Evictions performed.
    pub evictions: u64,
    /// Pages currently resident.
    pub resident: u64,
}

/// The shared write-through LRU page cache.
///
/// # Examples
///
/// ```
/// use solros_fs::cache::{BufferCache, PAGE_SIZE};
///
/// let cache = BufferCache::new(2);
/// cache.insert(1, 0, &[7u8; PAGE_SIZE]);
/// assert!(cache.get(1, 0).is_some());
/// assert!(cache.get(1, 1).is_none());
/// ```
pub struct BufferCache {
    inner: Mutex<LruInner>,
}

impl BufferCache {
    /// Creates a cache holding up to `capacity_pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_pages == 0`.
    pub fn new(capacity_pages: usize) -> Self {
        assert!(capacity_pages > 0, "zero-capacity cache");
        Self {
            inner: Mutex::new(LruInner {
                map: IntMap::default(),
                slots: Vec::new(),
                free: Vec::new(),
                head: NIL,
                tail: NIL,
                capacity: capacity_pages,
                hits: 0,
                misses: 0,
                evictions: 0,
                dir: OpLog::new(LogConfig {
                    high_water: DIR_HIGH_WATER,
                    max_lag: DIR_MAX_LAG,
                }),
            }),
        }
    }

    /// Lends the resident page to `f` under the cache lock; counts a hit
    /// or a miss. `f` should only copy: every other cache user waits.
    pub fn with_page<R>(&self, ino: Ino, page: u64, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        let g = &mut *self.inner.lock();
        match g.map.get(&(ino, page)).copied() {
            Some(idx) => {
                g.hits += 1;
                g.touch(idx);
                Some(f(&g.slots[idx].page))
            }
            None => {
                g.misses += 1;
                None
            }
        }
    }

    /// Looks up a page copy; counts a hit or miss.
    pub fn get(&self, ino: Ino, page: u64) -> Option<Vec<u8>> {
        self.with_page(ino, page, <[u8]>::to_vec)
    }

    /// Returns whether a page is resident without touching LRU order or
    /// hit/miss statistics (the proxy's path-decision probe, §4.3.2).
    pub fn peek(&self, ino: Ino, page: u64) -> bool {
        self.inner.lock().map.contains_key(&(ino, page))
    }

    /// Lends `f` the page buffer of `(ino, page)`'s slot under the cache
    /// lock, to bring it up to date in place. The flag says whether the
    /// page is resident, i.e. whether the buffer holds its current
    /// content; otherwise it is the slot the page will occupy (the LRU
    /// page's when the cache is full) and holds arbitrary bytes. When `f`
    /// returns `Ok` the page is resident and most recently used; when it
    /// fails or panics the page is not resident — a half-updated page
    /// must not be served. Counts neither a hit nor a miss.
    pub fn fill<E>(
        &self,
        ino: Ino,
        page: u64,
        f: impl FnOnce(&mut [u8], bool) -> Result<(), E>,
    ) -> Result<(), E> {
        /// Settles the slot when the fill ends, however it ends.
        struct Lent<'a> {
            lru: &'a mut LruInner,
            key: Key,
            idx: usize,
            resident: bool,
            filled: bool,
        }
        impl Drop for Lent<'_> {
            fn drop(&mut self) {
                let (lru, key, idx) = (&mut *self.lru, self.key, self.idx);
                match (self.filled, self.resident) {
                    (true, true) => lru.touch(idx),
                    (true, false) => {
                        lru.slots[idx].key = key;
                        lru.map.insert(key, idx);
                        lru.push_front(idx);
                        lru.dir.append(DirOp::Add(key.0, key.1));
                    }
                    (false, true) => lru.remove(&key),
                    (false, false) => lru.release(idx),
                }
            }
        }
        let mut g = self.inner.lock();
        let key = (ino, page);
        let resident = g.map.get(&key).copied();
        let idx = resident.unwrap_or_else(|| g.claim());
        let mut lent = Lent {
            lru: &mut g,
            key,
            idx,
            resident: resident.is_some(),
            filled: false,
        };
        let buf = &mut lent.lru.slots[idx].page;
        if buf.is_empty() {
            *buf = vec![0u8; PAGE_SIZE].into_boxed_slice();
        }
        let out = f(buf, lent.resident);
        lent.filled = out.is_ok();
        out
    }

    /// Inserts (or refreshes) a page from a copy of `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != PAGE_SIZE`.
    pub fn insert(&self, ino: Ino, page: u64, data: &[u8]) {
        let filled: Result<(), std::convert::Infallible> = self.fill(ino, page, |buf, _| {
            buf.copy_from_slice(data);
            Ok(())
        });
        let Ok(()) = filled;
    }

    /// Drops one page.
    pub fn invalidate_page(&self, ino: Ino, page: u64) {
        self.inner.lock().remove(&(ino, page));
    }

    /// Drops every page of an inode (truncate/unlink path).
    pub fn invalidate_ino(&self, ino: Ino) {
        let mut g = self.inner.lock();
        let keys: Vec<Key> = g.map.keys().filter(|(i, _)| *i == ino).copied().collect();
        let mut dropped = false;
        for k in keys {
            dropped |= g.remove_quiet(&k);
        }
        if dropped {
            g.dir.append(DirOp::DelIno(ino));
        }
    }

    /// Returns a statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        let g = self.inner.lock();
        CacheStats {
            hits: g.hits,
            misses: g.misses,
            evictions: g.evictions,
            resident: g.map.len() as u64,
        }
    }

    /// Creates a replica of the residency directory, initialised from
    /// the cache's current content. Give each proxy shard its own.
    pub fn replica(&self) -> CacheDirReplica {
        let g = self.inner.lock();
        // Appends happen only under the cache lock we hold, so the
        // registration point (the log tail) and the key snapshot are the
        // same instant in log order.
        let cursor = g.dir.register();
        let resident: IntSet<Key> = g.map.keys().copied().collect();
        CacheDirReplica {
            log: Arc::clone(&g.dir),
            inner: Mutex::new(DirReplicaState {
                cursor,
                resident,
                rebuilds: 0,
            }),
        }
    }

    /// Counters of the residency-directory log (depth, combine factor,
    /// straggler overruns).
    pub fn dir_log_stats(&self) -> LogStats {
        self.inner.lock().dir.stats()
    }

    /// Consistent `(log position, resident keys)` snapshot for a replica
    /// rebuild after an overrun.
    fn dir_snapshot(&self) -> (u64, IntSet<Key>) {
        let g = self.inner.lock();
        (g.dir.tail(), g.map.keys().copied().collect())
    }
}

struct DirReplicaState {
    cursor: ReplicaCursor,
    resident: IntSet<Key>,
    rebuilds: u64,
}

/// One proxy shard's local view of which pages are resident in the
/// shared buffer cache, kept convergent by replaying the directory log.
/// Probing it never touches the cache lock (the log's storage is only
/// read-locked when new entries exist), which is what keeps the P2P
/// path decision off the shared-state bottleneck as shards multiply.
pub struct CacheDirReplica {
    log: Arc<OpLog<DirOp>>,
    inner: Mutex<DirReplicaState>,
}

impl CacheDirReplica {
    /// Returns whether `(ino, page)` is resident, as of this replica's
    /// position in the directory log (synced to the tail on entry).
    /// `cache` must be the cache this replica was created from; it is
    /// consulted only to rebuild after a straggler overrun.
    pub fn resident(&self, cache: &BufferCache, ino: Ino, page: u64) -> bool {
        let mut g = self.inner.lock();
        let DirReplicaState {
            cursor,
            resident,
            rebuilds,
        } = &mut *g;
        let outcome = self.log.sync(cursor, |_, op| match op {
            DirOp::Add(i, p) => {
                resident.insert((*i, *p));
            }
            DirOp::Del(i, p) => {
                resident.remove(&(*i, *p));
            }
            DirOp::DelIno(i) => {
                resident.retain(|(j, _)| j != i);
            }
        });
        if outcome == SyncOutcome::Overrun {
            // Compaction advanced past us; the in-order prefix is gone.
            // Rebuild from the authoritative cache (ScaleFS/Corfu-style
            // checkpoint recovery) and resume from the snapshot point.
            let (seq, snapshot) = cache.dir_snapshot();
            *resident = snapshot;
            self.log.install_snapshot(cursor, seq);
            *rebuilds += 1;
        }
        resident.contains(&(ino, page))
    }

    /// Entries this replica is behind the directory log.
    pub fn lag(&self) -> u64 {
        self.log.lag(&self.inner.lock().cursor)
    }

    /// Snapshot rebuilds forced by compaction overruns.
    pub fn rebuilds(&self) -> u64 {
        self.inner.lock().rebuilds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(b: u8) -> [u8; PAGE_SIZE] {
        [b; PAGE_SIZE]
    }

    #[test]
    fn hit_miss_accounting() {
        let c = BufferCache::new(4);
        assert!(c.get(1, 0).is_none());
        c.insert(1, 0, &page(1));
        assert_eq!(c.get(1, 0).unwrap()[0], 1);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.resident), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_oldest() {
        let c = BufferCache::new(2);
        c.insert(1, 0, &page(10));
        c.insert(1, 1, &page(11));
        // Touch page 0 so page 1 becomes LRU.
        c.get(1, 0);
        c.insert(1, 2, &page(12));
        assert!(c.get(1, 0).is_some(), "recently used survives");
        assert!(c.get(1, 1).is_none(), "LRU evicted");
        assert!(c.get(1, 2).is_some());
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let c = BufferCache::new(2);
        c.insert(1, 0, &page(1));
        c.insert(1, 0, &page(2));
        assert_eq!(c.get(1, 0).unwrap()[0], 2);
        assert_eq!(c.stats().resident, 1);
    }

    #[test]
    fn invalidate_ino_clears_only_that_inode() {
        let c = BufferCache::new(8);
        for p in 0..3 {
            c.insert(5, p, &page(p as u8));
            c.insert(6, p, &page(p as u8));
        }
        c.invalidate_ino(5);
        for p in 0..3 {
            assert!(c.get(5, p).is_none());
            assert!(c.get(6, p).is_some());
        }
    }

    #[test]
    fn invalidate_page_then_slot_reuse() {
        let c = BufferCache::new(4);
        c.insert(1, 0, &page(1));
        c.invalidate_page(1, 0);
        assert!(c.get(1, 0).is_none());
        // Freed slot is reused without growing.
        c.insert(1, 1, &page(2));
        c.insert(1, 2, &page(3));
        assert_eq!(c.stats().resident, 2);
    }

    #[test]
    fn heavy_churn_stays_within_capacity() {
        let c = BufferCache::new(16);
        for i in 0..1000u64 {
            c.insert(i % 7, i, &page((i % 256) as u8));
        }
        let s = c.stats();
        assert!(s.resident <= 16);
        assert_eq!(s.evictions, 1000 - 16);
    }

    #[test]
    fn replica_tracks_inserts_evictions_and_invalidations() {
        let c = BufferCache::new(2);
        let r = c.replica();
        assert!(!r.resident(&c, 1, 0));
        c.insert(1, 0, &page(1));
        c.insert(1, 1, &page(2));
        assert!(r.resident(&c, 1, 0) && r.resident(&c, 1, 1));
        // Eviction of (1, 0): it is LRU after the probe order above is
        // irrelevant (probes don't touch LRU order), insert order rules.
        c.insert(2, 0, &page(3));
        assert!(!r.resident(&c, 1, 0), "evicted page left the replica");
        assert!(r.resident(&c, 2, 0));
        c.invalidate_ino(1);
        assert!(!r.resident(&c, 1, 1), "DelIno clears the inode's pages");
        assert!(r.resident(&c, 2, 0));
        c.invalidate_page(2, 0);
        assert!(!r.resident(&c, 2, 0));
        assert_eq!(r.rebuilds(), 0);
    }

    #[test]
    fn replica_created_late_starts_from_cache_snapshot() {
        let c = BufferCache::new(8);
        c.insert(3, 7, &page(9));
        let r = c.replica();
        assert!(r.resident(&c, 3, 7), "pre-existing pages visible");
        assert_eq!(r.lag(), 0);
    }

    #[test]
    fn straggler_replica_rebuilds_after_overrun() {
        let c = BufferCache::new(64);
        let r = c.replica();
        // Push far past the lag bound without syncing the replica, so
        // compaction must advance past it.
        for i in 0..(DIR_MAX_LAG + DIR_HIGH_WATER as u64 + 64) {
            c.insert(i % 7, i, &page((i % 251) as u8));
        }
        assert!(
            c.dir_log_stats().overruns > 0,
            "straggler must get overrun: {:?}",
            c.dir_log_stats()
        );
        // The next probe rebuilds from the cache and answers correctly.
        let s = c.stats();
        assert!(s.resident == 64);
        let probe_hit = (0..7u64).any(|i| r.resident(&c, i, DIR_MAX_LAG + DIR_HIGH_WATER as u64));
        let _ = probe_hit;
        assert_eq!(r.rebuilds(), 1);
        // Spot-check agreement with the authoritative cache.
        for ino in 0..7u64 {
            for p in 0..32u64 {
                assert_eq!(r.resident(&c, ino, p), c.peek(ino, p), "({ino},{p})");
            }
        }
    }

    /// The proxy of an `O_BUFFER`-only co-processor never probes its
    /// replica. It is overrun once and then stops pinning the directory
    /// log, which stays within its high-water mark instead of sitting at
    /// `DIR_MAX_LAG` and trimming on every eviction.
    #[test]
    fn never_probed_replica_does_not_pin_the_directory_log() {
        let c = BufferCache::new(64);
        let r = c.replica();
        for i in 0..50_000u64 {
            c.insert(i % 7, i, &page((i % 251) as u8));
        }
        let log = c.dir_log_stats();
        assert!(log.depth <= DIR_HIGH_WATER as u64 + 1, "{log:?}");
        assert_eq!(log.overruns, 1, "{log:?}");
        assert!(
            log.compactions <= log.appends / DIR_HIGH_WATER as u64 + 2,
            "{log:?}"
        );
        for ino in 0..7u64 {
            for p in 49_900..50_000u64 {
                assert_eq!(r.resident(&c, ino, p), c.peek(ino, p), "({ino},{p})");
            }
        }
        assert_eq!(r.rebuilds(), 1);
    }

    #[test]
    fn a_page_is_lent_in_place_both_ways() {
        let c = BufferCache::new(2);
        assert_eq!(c.with_page(1, 0, |p| p[0]), None);
        // A fill of a page that is not resident is told so, and makes it so.
        let filled: Result<(), ()> = c.fill(1, 0, |buf, resident| {
            assert!(!resident);
            buf.fill(5);
            Ok(())
        });
        assert_eq!(filled, Ok(()));
        assert_eq!(c.with_page(1, 0, |p| (p[0], p.len())), Some((5, PAGE_SIZE)));
        // A second fill sees the content and refreshes it where it is.
        let filled: Result<(), ()> = c.fill(1, 0, |buf, resident| {
            assert!(resident && buf[9] == 5);
            buf[9] = 6;
            Ok(())
        });
        assert_eq!(filled, Ok(()));
        assert_eq!(c.get(1, 0).unwrap()[9], 6);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.resident), (2, 1, 1));
    }

    #[test]
    fn a_failed_or_panicking_fill_leaves_no_page_behind() {
        let c = BufferCache::new(2);
        let r = c.replica();
        c.insert(1, 0, &page(1));
        // Resident page, fill fails half way: the page is dropped.
        assert_eq!(
            c.fill(1, 0, |buf, _| {
                buf[0] = 9;
                Err("device")
            }),
            Err("device")
        );
        assert!(!c.peek(1, 0) && !r.resident(&c, 1, 0));
        // New page, fill panics with the lock held: the slot goes back
        // to the free list and the cache keeps working.
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _: Result<(), ()> = c.fill(1, 1, |_, _| panic!("bad source address"));
        }));
        assert!(unwound.is_err());
        assert!(!c.peek(1, 1));
        c.insert(1, 2, &page(3));
        c.insert(1, 3, &page(4));
        assert_eq!(c.get(1, 2).unwrap()[0], 3);
        assert_eq!(c.stats().resident, 2);
        assert!(r.resident(&c, 1, 3));
    }

    #[test]
    fn shared_across_threads() {
        let c = std::sync::Arc::new(BufferCache::new(64));
        let handles: Vec<_> = (0..4u64)
            .map(|t| {
                let c = std::sync::Arc::clone(&c);
                std::thread::spawn(move || {
                    for i in 0..200 {
                        c.insert(t, i, &page((i % 256) as u8));
                        let _ = c.get(t, i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(c.stats().hits >= 4, "warm pages observed");
    }
}
