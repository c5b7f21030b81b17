//! Shared device memory regions.
//!
//! A [`SharedRegion`] models the physical memory a PCIe device exports
//! through a window (§4.1): a flat byte range that *both* sides of the bus
//! may read and write concurrently. Bulk data moves are non-atomic (like
//! real DMA/load-store traffic); 8-byte-aligned slots can additionally be
//! used as atomic control variables (the paper's ring-buffer `head`/`tail`
//! and the two required atomic instructions, `atomic_swap` and
//! `compare_and_swap`).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::AtomicU64;

/// A shared memory region addressable from both sides of the PCIe bus.
///
/// Synchronization discipline is the caller's responsibility, exactly as
/// with real shared device memory: bulk accesses to a byte range must not
/// overlap concurrent accesses to the same range, and any offset used as an
/// atomic control slot (via [`SharedRegion::atomic_u64`]) must *only* ever
/// be accessed through that method. The Solros transport layer enforces
/// this by reserving a control header at the front of every region and
/// handing out disjoint element ranges guarded by per-element state flags.
///
/// # Examples
///
/// ```
/// use solros_pcie::SharedRegion;
///
/// let region = SharedRegion::new(4096);
/// // SAFETY: single-threaded here; ranges do not overlap atomic slots.
/// unsafe {
///     region.write(128, b"hello");
///     let mut buf = [0u8; 5];
///     region.read(128, &mut buf);
///     assert_eq!(&buf, b"hello");
/// }
/// ```
pub struct SharedRegion {
    cells: Box<[UnsafeCell<u64>]>,
    len: usize,
}

// SAFETY: `SharedRegion` hands out raw shared access on purpose (it models
// physical memory). All mutation goes through `unsafe` methods whose
// contracts forbid data races, or through `AtomicU64` references.
unsafe impl Send for SharedRegion {}
// SAFETY: see above; concurrent access is governed by the documented
// contracts of `read`/`write`/`atomic_u64`.
unsafe impl Sync for SharedRegion {}

impl SharedRegion {
    /// Allocates a zeroed region of at least `len` bytes (rounded up to a
    /// multiple of 8 for alignment).
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn new(len: usize) -> Self {
        assert!(len > 0, "empty region");
        let words = len.div_ceil(8);
        let cells: Box<[UnsafeCell<u64>]> = (0..words).map(|_| UnsafeCell::new(0)).collect();
        Self {
            cells,
            len: words * 8,
        }
    }

    /// Returns the region length in bytes (a multiple of 8).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns false; regions are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    #[inline]
    fn base(&self) -> *mut u8 {
        self.cells.as_ptr() as *mut u8
    }

    /// Copies `dst.len()` bytes starting at `off` into `dst`.
    ///
    /// # Safety
    ///
    /// The byte range `[off, off + dst.len())` must not be concurrently
    /// written by any other thread, and must not overlap an offset in use
    /// as an atomic slot.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub unsafe fn read(&self, off: usize, dst: &mut [u8]) {
        // SAFETY: `read_uninit` only stores initialised bytes, so `dst`
        // stays initialised; the range contract is forwarded.
        unsafe { self.read_uninit(off, &mut *(dst as *mut [u8] as *mut [MaybeUninit<u8>])) }
    }

    /// Copies `dst.len()` bytes starting at `off` into `dst`, which need
    /// not be initialised: every byte of it is on return. This is how a
    /// payload lands in a fresh buffer in one copy, with no zero-fill
    /// first.
    ///
    /// # Safety
    ///
    /// As [`SharedRegion::read`].
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub unsafe fn read_uninit(&self, off: usize, dst: &mut [MaybeUninit<u8>]) {
        assert!(
            off.checked_add(dst.len())
                .is_some_and(|end| end <= self.len),
            "read out of bounds: {off}+{} > {}",
            dst.len(),
            self.len
        );
        // SAFETY: bounds checked above; non-overlap guaranteed by caller.
        unsafe {
            std::ptr::copy_nonoverlapping(self.base().add(off), dst.as_mut_ptr().cast(), dst.len());
        }
    }

    /// Copies `src` into the region starting at `off`.
    ///
    /// # Safety
    ///
    /// The byte range `[off, off + src.len())` must not be concurrently
    /// read or written by any other thread, and must not overlap an offset
    /// in use as an atomic slot.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub unsafe fn write(&self, off: usize, src: &[u8]) {
        assert!(
            off.checked_add(src.len())
                .is_some_and(|end| end <= self.len),
            "write out of bounds: {off}+{} > {}",
            src.len(),
            self.len
        );
        // SAFETY: bounds checked above; non-overlap guaranteed by caller.
        unsafe {
            std::ptr::copy_nonoverlapping(src.as_ptr(), self.base().add(off), src.len());
        }
    }

    /// Copies `dst.len()` bytes starting at `off` into `dst` using
    /// word-granular atomic loads, so it may safely race with concurrent
    /// atomic writes to any slot in the range (each word reads as some
    /// previously-stored value — exactly the guarantee a DMA engine
    /// snapshotting live ring memory has).
    ///
    /// # Panics
    ///
    /// Panics if `off` or `dst.len()` is not 8-byte aligned, or the range
    /// is out of bounds.
    pub fn read_words_atomic(&self, off: usize, dst: &mut [u8]) {
        assert!(
            off.is_multiple_of(8) && dst.len().is_multiple_of(8),
            "unaligned atomic bulk read"
        );
        assert!(
            off.checked_add(dst.len())
                .is_some_and(|end| end <= self.len),
            "atomic bulk read out of bounds"
        );
        for (i, chunk) in dst.chunks_exact_mut(8).enumerate() {
            let ptr = self.cells[off / 8 + i].get();
            // SAFETY: `ptr` is valid and aligned for the region's
            // lifetime; atomic access races safely with any other atomic
            // access to the same word.
            let word =
                unsafe { AtomicU64::from_ptr(ptr) }.load(std::sync::atomic::Ordering::Acquire);
            chunk.copy_from_slice(&word.to_le_bytes());
        }
    }

    /// Stores `src` starting at `off` using word-granular atomic stores,
    /// zero-padding the trailing partial word. Safe against concurrent
    /// atomic readers of the same words.
    ///
    /// # Panics
    ///
    /// Panics if `off` is not 8-byte aligned or the padded range is out
    /// of bounds.
    pub fn write_words_atomic(&self, off: usize, src: &[u8]) {
        assert!(off.is_multiple_of(8), "unaligned atomic bulk write");
        let padded = src.len().div_ceil(8) * 8;
        assert!(
            off.checked_add(padded).is_some_and(|end| end <= self.len),
            "atomic bulk write out of bounds"
        );
        for (i, chunk) in src.chunks(8).enumerate() {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            let ptr = self.cells[off / 8 + i].get();
            // SAFETY: `ptr` is valid and aligned for the region's
            // lifetime; atomic stores race safely with atomic accesses.
            unsafe { AtomicU64::from_ptr(ptr) }.store(
                u64::from_le_bytes(word),
                std::sync::atomic::Ordering::Release,
            );
        }
    }

    /// Returns an atomic view of the 8 bytes at `off`.
    ///
    /// The slot must be accessed exclusively through the returned atomic
    /// (never via [`read`](Self::read)/[`write`](Self::write)) for as long
    /// as it serves as a control variable.
    ///
    /// # Panics
    ///
    /// Panics if `off` is not 8-byte aligned or out of bounds.
    pub fn atomic_u64(&self, off: usize) -> &AtomicU64 {
        assert!(off.is_multiple_of(8), "unaligned atomic slot at {off}");
        assert!(off + 8 <= self.len, "atomic slot out of bounds at {off}");
        let ptr = self.cells[off / 8].get();
        // SAFETY: `ptr` is valid for the region's lifetime, 8-byte aligned
        // (it is an `UnsafeCell<u64>`), and the method contract requires
        // all access to this slot to go through atomics.
        unsafe { AtomicU64::from_ptr(ptr) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn len_rounds_up() {
        assert_eq!(SharedRegion::new(1).len(), 8);
        assert_eq!(SharedRegion::new(8).len(), 8);
        assert_eq!(SharedRegion::new(9).len(), 16);
    }

    #[test]
    fn roundtrip() {
        let r = SharedRegion::new(64);
        let data = [0xABu8; 32];
        // SAFETY: single-threaded test, no atomic slots in range.
        unsafe {
            r.write(8, &data);
            let mut out = [0u8; 32];
            r.read(8, &mut out);
            assert_eq!(out, data);
        }
    }

    #[test]
    fn zero_initialized() {
        let r = SharedRegion::new(128);
        let mut out = [1u8; 128];
        // SAFETY: single-threaded test.
        unsafe { r.read(0, &mut out) };
        assert!(out.iter().all(|&b| b == 0));
    }

    #[test]
    fn read_uninit_fills_every_byte() {
        let r = SharedRegion::new(64);
        let data: Vec<u8> = (1..=24).collect();
        let mut out = Vec::<u8>::with_capacity(24);
        // SAFETY: single-threaded test, no atomic slots in range; the
        // read initialises all 24 bytes before `set_len` exposes them.
        unsafe {
            r.write(16, &data);
            r.read_uninit(16, &mut out.spare_capacity_mut()[..24]);
            out.set_len(24);
        }
        assert_eq!(out, data);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn read_oob_panics() {
        let r = SharedRegion::new(16);
        let mut buf = [0u8; 9];
        // SAFETY: panics before any access.
        unsafe { r.read(8, &mut buf) };
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_atomic_panics() {
        let r = SharedRegion::new(16);
        let _ = r.atomic_u64(4);
    }

    #[test]
    fn atomics_are_shared() {
        let r = Arc::new(SharedRegion::new(64));
        let a = r.atomic_u64(0);
        a.store(7, Ordering::SeqCst);
        assert_eq!(r.atomic_u64(0).load(Ordering::SeqCst), 7);

        let r2 = Arc::clone(&r);
        let t = std::thread::spawn(move || {
            r2.atomic_u64(0).fetch_add(5, Ordering::SeqCst);
        });
        t.join().unwrap();
        assert_eq!(a.load(Ordering::SeqCst), 12);
    }

    #[test]
    fn concurrent_disjoint_bulk_access() {
        let r = Arc::new(SharedRegion::new(1 << 16));
        let threads: Vec<_> = (0..8u8)
            .map(|i| {
                let r = Arc::clone(&r);
                std::thread::spawn(move || {
                    let off = i as usize * 8192;
                    let data = vec![i; 4096];
                    // SAFETY: each thread touches a disjoint 8 KiB range.
                    unsafe {
                        r.write(off, &data);
                        let mut out = vec![0u8; 4096];
                        r.read(off, &mut out);
                        assert_eq!(out, data);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }
}
