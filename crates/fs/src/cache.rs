//! Host-side shared buffer cache (§4.3.2).
//!
//! A write-through LRU page cache keyed by `(inode, page index)`. Being on
//! the host, it is *shared by all co-processors*: a file that one Xeon Phi
//! reads warms the cache for every other Phi — one of the system-wide
//! optimizations only the control-plane OS can make. Write-through keeps
//! the device authoritative, so concurrent P2P reads (which bypass the
//! cache) never observe stale blocks.
//!
//! The FS proxy's P2P-vs-buffered path decision (§4.3.2) asks the cache
//! directly: [`BufferCache::peek`] says whether a page is resident
//! without touching LRU order or the hit/miss counters.
//!
//! Pages never leave the cache by value on the data path: a reader is
//! lent the resident page ([`BufferCache::with_page`]) and a writer or a
//! miss is lent the slot's own buffer ([`BufferCache::fill`]), both
//! under the cache lock, so a page moves once — cache to destination or
//! source to cache — and nothing is allocated per access.

use solros_oplog::LogStats;
use solros_simkit::sync::Mutex;
use solros_simkit::IntMap;

use crate::fs::Ino;

/// Page size (one device block).
pub const PAGE_SIZE: usize = solros_nvme::BLOCK_SIZE;

type Key = (Ino, u64);

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

    fn remove(&mut self, key: &Key) {
        if let Some(idx) = self.map.remove(key) {
            self.unlink(idx);
            self.release(idx);
        }
    }

    /// Returns a detached slot (and its page's memory) to the free list.
    fn release(&mut self, idx: usize) {
        self.slots[idx].page = Box::default();
        self.free.push(idx);
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
        for k in keys {
            g.remove(&k);
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

    /// Always [`LogStats::default`]: the cache keeps no log. Kept only
    /// because the benchmark package's `oplog` layer still reads it;
    /// ROADMAP direction 6 deletes it together with that caller.
    pub fn dir_log_stats(&self) -> LogStats {
        LogStats::default()
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
        c.insert(1, 0, &page(1));
        // Resident page, fill fails half way: the page is dropped.
        assert_eq!(
            c.fill(1, 0, |buf, _| {
                buf[0] = 9;
                Err("device")
            }),
            Err("device")
        );
        assert!(!c.peek(1, 0));
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
        assert!(c.peek(1, 3));
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
