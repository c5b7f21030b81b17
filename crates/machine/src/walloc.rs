//! First-fit allocator for co-processor window memory.
//!
//! The data-plane OS carves its exported memory region into RPC ring
//! masters and zero-copy I/O buffers (the addresses it puts into
//! `Tread`/`Twrite`). This allocator manages those carvings: first-fit
//! over a sorted free list with coalescing on free, 64-byte alignment
//! (PCIe line granularity).

use solros_simkit::sync::Mutex;

/// Allocation alignment (one PCIe cache line).
pub const ALIGN: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Hole {
    off: usize,
    len: usize,
}

/// A first-fit offset allocator over a fixed region.
///
/// # Examples
///
/// ```
/// use solros_machine::WindowAlloc;
///
/// let a = WindowAlloc::new(4096);
/// let x = a.alloc(100).unwrap();
/// let y = a.alloc(100).unwrap();
/// assert_ne!(x, y);
/// a.free(x, 100);
/// a.free(y, 100);
/// assert_eq!(a.free_bytes(), 4096);
/// ```
pub struct WindowAlloc {
    inner: Mutex<Vec<Hole>>,
    total: usize,
}

impl WindowAlloc {
    /// Creates an allocator over `[0, len)`.
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "empty region");
        Self {
            inner: Mutex::new(vec![Hole { off: 0, len }]),
            total: len,
        }
    }

    fn round(n: usize) -> usize {
        n.div_ceil(ALIGN) * ALIGN
    }

    /// Allocates `len` bytes (rounded up to 64), returning the offset, or
    /// `None` when no hole fits.
    pub fn alloc(&self, len: usize) -> Option<usize> {
        if len == 0 {
            return None;
        }
        let need = Self::round(len);
        let mut holes = self.inner.lock();
        for i in 0..holes.len() {
            if holes[i].len >= need {
                let off = holes[i].off;
                holes[i].off += need;
                holes[i].len -= need;
                if holes[i].len == 0 {
                    holes.remove(i);
                }
                return Some(off);
            }
        }
        None
    }

    /// Frees a previous allocation of `len` bytes at `off`, coalescing
    /// adjacent holes.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range or overlapping frees (allocator misuse).
    pub fn free(&self, off: usize, len: usize) {
        let len = Self::round(len);
        assert!(
            off.is_multiple_of(ALIGN) && off + len <= self.total,
            "bad free({off}, {len})"
        );
        let mut holes = self.inner.lock();
        let idx = holes.partition_point(|h| h.off < off);
        // Overlap checks against neighbours.
        if idx > 0 {
            let prev = holes[idx - 1];
            assert!(prev.off + prev.len <= off, "double free at {off}");
        }
        if idx < holes.len() {
            assert!(off + len <= holes[idx].off, "double free at {off}");
        }
        holes.insert(idx, Hole { off, len });
        // Coalesce with the next hole.
        if idx + 1 < holes.len() && holes[idx].off + holes[idx].len == holes[idx + 1].off {
            holes[idx].len += holes[idx + 1].len;
            holes.remove(idx + 1);
        }
        // Coalesce with the previous hole.
        if idx > 0 && holes[idx - 1].off + holes[idx - 1].len == holes[idx].off {
            holes[idx - 1].len += holes[idx].len;
            holes.remove(idx);
        }
    }

    /// Total free bytes (may be fragmented).
    pub fn free_bytes(&self) -> usize {
        self.inner.lock().iter().map(|h| h.len).sum()
    }

    /// Region size.
    pub fn total(&self) -> usize {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alignment_respected() {
        let a = WindowAlloc::new(1 << 16);
        for len in [1usize, 63, 64, 65, 1000] {
            let off = a.alloc(len).unwrap();
            assert_eq!(off % ALIGN, 0);
        }
    }

    #[test]
    fn exhaustion_and_reuse() {
        let a = WindowAlloc::new(256);
        let x = a.alloc(128).unwrap();
        let y = a.alloc(128).unwrap();
        assert!(a.alloc(1).is_none());
        a.free(x, 128);
        let z = a.alloc(64).unwrap();
        assert_eq!(z, x);
        a.free(y, 128);
        a.free(z, 64);
        assert_eq!(a.free_bytes(), 256);
        // Full coalescing: one 256-byte allocation fits again.
        assert!(a.alloc(256).is_some());
    }

    #[test]
    fn coalescing_across_free_order() {
        let a = WindowAlloc::new(64 * 6);
        let offs: Vec<_> = (0..6).map(|_| a.alloc(64).unwrap()).collect();
        // Free out of order.
        for &i in &[3usize, 1, 5, 0, 4, 2] {
            a.free(offs[i], 64);
        }
        assert!(a.alloc(64 * 6).is_some(), "coalesced back to one hole");
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let a = WindowAlloc::new(256);
        let x = a.alloc(64).unwrap();
        a.free(x, 64);
        a.free(x, 64);
    }

    #[test]
    fn zero_alloc_rejected() {
        let a = WindowAlloc::new(256);
        assert!(a.alloc(0).is_none());
    }

    #[test]
    fn concurrent_alloc_free() {
        let a = std::sync::Arc::new(WindowAlloc::new(1 << 20));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let a = std::sync::Arc::clone(&a);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let off = a.alloc(4096).unwrap();
                        a.free(off, 4096);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.free_bytes(), 1 << 20);
    }
}
