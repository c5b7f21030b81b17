//! System-mapped PCIe windows.
//!
//! A [`Window`] is a [`SharedRegion`] ("device memory") plus the side it
//! physically lives on. A [`WindowHandle`] is one agent's mapped view of
//! it: accesses from the region's home side are local and free; accesses
//! from the other side model PCIe traffic and are charged to a
//! [`PcieCounters`] ledger — load/store copies count one transaction per
//! 64-byte line, DMA copies count one DMA operation, and control-variable
//! accesses through [`RemoteAtomicU64`] count reads/writes/RMWs
//! individually.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::cost::{CostModel, Xfer, LINE};
use crate::counter::PcieCounters;
use crate::mem::SharedRegion;
use crate::Side;

/// A shared region pinned to one side of the bus.
pub struct Window {
    region: Arc<SharedRegion>,
    home: Side,
    counters: Arc<PcieCounters>,
    /// Fault injection: remaining remote accesses to delay.
    stall_budget: AtomicU64,
    /// Delay per injected stall, in nanoseconds.
    stall_ns: AtomicU64,
    /// Fault injection: remaining remote bulk writes to silently drop.
    drop_writes: AtomicU64,
}

impl Window {
    /// Creates a window over freshly allocated memory on `home`.
    pub fn new(len: usize, home: Side, counters: Arc<PcieCounters>) -> Arc<Self> {
        Arc::new(Self {
            region: Arc::new(SharedRegion::new(len)),
            home,
            counters,
            stall_budget: AtomicU64::new(0),
            stall_ns: AtomicU64::new(0),
            drop_writes: AtomicU64::new(0),
        })
    }

    /// Arms the stall injector: the next `n` *remote* bulk accesses
    /// (copies, DMA, element and staging transfers) through any handle of
    /// this window sleep for `each` first, modeling bus congestion or a
    /// link retraining pause. Local accesses never stall.
    pub fn inject_stalls(&self, n: u64, each: std::time::Duration) {
        self.stall_ns
            .store(each.as_nanos() as u64, Ordering::SeqCst);
        self.stall_budget.store(n, Ordering::SeqCst);
    }

    /// Arms the dropped-write injector: the next `n` *remote* bulk writes
    /// (load/store, DMA, or element writes) are charged to the ledger but
    /// never reach memory — a lost posted write. Control-variable stores
    /// are unaffected, so the corruption is in data, not bookkeeping.
    pub fn inject_dropped_writes(&self, n: u64) {
        self.drop_writes.store(n, Ordering::SeqCst);
    }

    fn consume_stall(&self) {
        let hit = self
            .stall_budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok();
        if hit {
            let ns = self.stall_ns.load(Ordering::SeqCst);
            if ns > 0 {
                std::thread::sleep(std::time::Duration::from_nanos(ns));
            }
        }
    }

    fn consume_drop(&self) -> bool {
        self.drop_writes
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok()
    }

    /// Returns the side the backing memory lives on.
    pub fn home(&self) -> Side {
        self.home
    }

    /// Returns the region length in bytes.
    pub fn len(&self) -> usize {
        self.region.len()
    }

    /// Returns false; windows are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Returns the transaction ledger this window charges.
    pub fn counters(&self) -> &Arc<PcieCounters> {
        &self.counters
    }

    /// Maps the window from `accessor`'s side.
    pub fn map(self: &Arc<Self>, accessor: Side) -> WindowHandle {
        WindowHandle {
            window: Arc::clone(self),
            accessor,
        }
    }
}

/// One agent's mapped view of a [`Window`].
#[derive(Clone)]
pub struct WindowHandle {
    window: Arc<Window>,
    accessor: Side,
}

impl WindowHandle {
    /// Returns the accessing side.
    pub fn accessor(&self) -> Side {
        self.accessor
    }

    /// Returns true when accesses cross the PCIe bus.
    pub fn is_remote(&self) -> bool {
        self.accessor != self.window.home
    }

    /// Returns the underlying window.
    pub fn window(&self) -> &Arc<Window> {
        &self.window
    }

    /// Returns the region length in bytes.
    pub fn len(&self) -> usize {
        self.window.len()
    }

    /// Returns false; windows are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Load/store copy out of the window.
    ///
    /// # Safety
    ///
    /// Same contract as [`SharedRegion::read`]: the range must not be
    /// concurrently written and must not overlap atomic slots.
    pub unsafe fn read(&self, off: usize, dst: &mut [u8]) {
        self.charge_read(dst.len());
        // SAFETY: forwarded contract.
        unsafe { self.window.region.read(off, dst) }
    }

    /// Load/store copy of `len` bytes out of the window into a fresh
    /// `Vec`, charged and stalled as [`WindowHandle::read`]. The bytes
    /// are copied once, into the new buffer's uninitialised capacity:
    /// nothing zero-fills it first.
    ///
    /// # Safety
    ///
    /// Same contract as [`SharedRegion::read`].
    pub unsafe fn read_vec(&self, off: usize, len: usize) -> Vec<u8> {
        self.charge_read(len);
        let mut v = Vec::with_capacity(len);
        // SAFETY: forwarded contract; `read_uninit` initialises the first
        // `len` bytes of the spare capacity before `set_len` exposes them.
        unsafe {
            self.window
                .region
                .read_uninit(off, &mut v.spare_capacity_mut()[..len]);
            v.set_len(len);
        }
        v
    }

    /// Stalls and charges a remote load/store read of `len` bytes.
    fn charge_read(&self, len: usize) {
        if self.is_remote() {
            self.window.consume_stall();
            self.window
                .counters
                .read_lines
                .fetch_add(CostModel::lines(len as u64), Ordering::Relaxed);
        }
    }

    /// Load/store copy into the window.
    ///
    /// # Safety
    ///
    /// Same contract as [`SharedRegion::write`].
    pub unsafe fn write(&self, off: usize, src: &[u8]) {
        if self.is_remote() {
            self.window.consume_stall();
            self.window
                .counters
                .write_lines
                .fetch_add(CostModel::lines(src.len() as u64), Ordering::Relaxed);
            if self.window.consume_drop() {
                return;
            }
        }
        // SAFETY: forwarded contract.
        unsafe { self.window.region.write(off, src) }
    }

    /// DMA copy out of the window (one DMA operation).
    ///
    /// # Safety
    ///
    /// Same contract as [`SharedRegion::read`].
    pub unsafe fn dma_read(&self, off: usize, dst: &mut [u8]) {
        if self.is_remote() {
            self.window.consume_stall();
            self.window.counters.dma_ops.fetch_add(1, Ordering::Relaxed);
            self.window
                .counters
                .dma_bytes
                .fetch_add(dst.len() as u64, Ordering::Relaxed);
        }
        // SAFETY: forwarded contract.
        unsafe { self.window.region.read(off, dst) }
    }

    /// DMA copy into the window (one DMA operation).
    ///
    /// # Safety
    ///
    /// Same contract as [`SharedRegion::write`].
    pub unsafe fn dma_write(&self, off: usize, src: &[u8]) {
        if self.is_remote() {
            self.window.consume_stall();
            self.window.counters.dma_ops.fetch_add(1, Ordering::Relaxed);
            self.window
                .counters
                .dma_bytes
                .fetch_add(src.len() as u64, Ordering::Relaxed);
            if self.window.consume_drop() {
                return;
            }
        }
        // SAFETY: forwarded contract.
        unsafe { self.window.region.write(off, src) }
    }

    /// Adaptive copy out (the §4.2.4 scheme): load/store below the
    /// initiator's threshold, DMA above it.
    ///
    /// # Safety
    ///
    /// Same contract as [`SharedRegion::read`].
    pub unsafe fn adaptive_read(&self, model: &CostModel, off: usize, dst: &mut [u8]) {
        if dst.len() as u64 <= model.adaptive_threshold(self.accessor) {
            // SAFETY: forwarded contract.
            unsafe { self.read(off, dst) }
        } else {
            // SAFETY: forwarded contract.
            unsafe { self.dma_read(off, dst) }
        }
    }

    /// Adaptive copy in; see [`Self::adaptive_read`].
    ///
    /// # Safety
    ///
    /// Same contract as [`SharedRegion::write`].
    pub unsafe fn adaptive_write(&self, model: &CostModel, off: usize, src: &[u8]) {
        if src.len() as u64 <= model.adaptive_threshold(self.accessor) {
            // SAFETY: forwarded contract.
            unsafe { self.write(off, src) }
        } else {
            // SAFETY: forwarded contract.
            unsafe { self.dma_write(off, src) }
        }
    }

    /// Reads an element payload with word-atomic loads (safe to race with
    /// atomic writers to the same ring memory), charged per `mech`.
    ///
    /// # Panics
    ///
    /// Panics if `off` is not 8-byte aligned or the padded range is out
    /// of bounds.
    pub fn read_elem(&self, mech: Xfer, off: usize, dst: &mut [u8]) {
        if self.is_remote() {
            self.window.consume_stall();
            match mech {
                Xfer::Memcpy => {
                    self.window
                        .counters
                        .read_lines
                        .fetch_add(CostModel::lines(dst.len() as u64), Ordering::Relaxed);
                }
                Xfer::Dma => {
                    self.window.counters.dma_ops.fetch_add(1, Ordering::Relaxed);
                    self.window
                        .counters
                        .dma_bytes
                        .fetch_add(dst.len() as u64, Ordering::Relaxed);
                }
            }
        }
        let whole = dst.len() / 8 * 8;
        self.window.region.read_words_atomic(off, &mut dst[..whole]);
        let tail = dst.len() - whole;
        if tail > 0 {
            let mut word = [0u8; 8];
            self.window.region.read_words_atomic(off + whole, &mut word);
            dst[whole..].copy_from_slice(&word[..tail]);
        }
    }

    /// Writes an element payload with word-atomic stores; see
    /// [`Self::read_elem`] for counting and panics.
    pub fn write_elem(&self, mech: Xfer, off: usize, src: &[u8]) {
        if self.is_remote() {
            self.window.consume_stall();
            match mech {
                Xfer::Memcpy => {
                    self.window
                        .counters
                        .write_lines
                        .fetch_add(CostModel::lines(src.len() as u64), Ordering::Relaxed);
                }
                Xfer::Dma => {
                    self.window.counters.dma_ops.fetch_add(1, Ordering::Relaxed);
                    self.window
                        .counters
                        .dma_bytes
                        .fetch_add(src.len() as u64, Ordering::Relaxed);
                }
            }
            if self.window.consume_drop() {
                return;
            }
        }
        self.window.region.write_words_atomic(off, src);
    }

    /// Bulk-stages a span of ring memory with one DMA operation (the
    /// consumer-side batched pull). Word-atomic, so it may race with
    /// producers still filling parts of the span; the caller validates
    /// per-element readiness from the staged headers.
    ///
    /// # Panics
    ///
    /// Panics if `off`/`dst.len()` are not 8-byte aligned or out of bounds.
    pub fn stage_read(&self, off: usize, dst: &mut [u8]) {
        if self.is_remote() {
            self.window.consume_stall();
            self.window.counters.dma_ops.fetch_add(1, Ordering::Relaxed);
            self.window
                .counters
                .dma_bytes
                .fetch_add(dst.len() as u64, Ordering::Relaxed);
        }
        self.window.region.read_words_atomic(off, dst);
    }

    /// Returns a counting handle to the atomic control slot at `off`.
    ///
    /// # Panics
    ///
    /// Panics if `off` is unaligned or out of bounds.
    pub fn ctrl(&self, off: usize) -> RemoteAtomicU64<'_> {
        RemoteAtomicU64 {
            slot: self.window.region.atomic_u64(off),
            counters: if self.is_remote() {
                Some(&self.window.counters)
            } else {
                None
            },
        }
    }
}

/// A control variable viewed through a PCIe window.
///
/// Local views (accessor == home) are free; remote views charge the ledger
/// per operation, which is how the lazy-update experiment quantifies its
/// savings (Figure 9).
pub struct RemoteAtomicU64<'a> {
    slot: &'a AtomicU64,
    counters: Option<&'a Arc<PcieCounters>>,
}

impl RemoteAtomicU64<'_> {
    /// Atomically loads the value (one non-posted PCIe read if remote).
    pub fn load(&self) -> u64 {
        if let Some(c) = self.counters {
            c.ctrl_reads.fetch_add(1, Ordering::Relaxed);
        }
        self.slot.load(Ordering::Acquire)
    }

    /// Atomically stores a value (one posted PCIe write if remote).
    pub fn store(&self, v: u64) {
        if let Some(c) = self.counters {
            c.ctrl_writes.fetch_add(1, Ordering::Relaxed);
        }
        self.slot.store(v, Ordering::Release);
    }

    /// Atomic swap — one of the two instructions Solros requires of the
    /// platform (§4).
    pub fn swap(&self, v: u64) -> u64 {
        if let Some(c) = self.counters {
            c.rmw_ops.fetch_add(1, Ordering::Relaxed);
        }
        self.slot.swap(v, Ordering::AcqRel)
    }

    /// Atomic compare-and-swap — the other required instruction. Returns
    /// `Ok(previous)` on success and `Err(actual)` on failure.
    pub fn compare_exchange(&self, current: u64, new: u64) -> Result<u64, u64> {
        if let Some(c) = self.counters {
            c.rmw_ops.fetch_add(1, Ordering::Relaxed);
        }
        self.slot
            .compare_exchange(current, new, Ordering::AcqRel, Ordering::Acquire)
    }

    /// Atomic fetch-add (emulatable with a CAS loop; counted as one RMW).
    pub fn fetch_add(&self, v: u64) -> u64 {
        if let Some(c) = self.counters {
            c.rmw_ops.fetch_add(1, Ordering::Relaxed);
        }
        self.slot.fetch_add(v, Ordering::AcqRel)
    }
}

/// Number of bytes in a PCIe line transaction, re-exported for callers
/// computing expected counter values.
pub const LINE_BYTES: u64 = LINE;

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(home: Side) -> (Arc<Window>, Arc<PcieCounters>) {
        let counters = Arc::new(PcieCounters::new());
        let w = Window::new(4096, home, Arc::clone(&counters));
        (w, counters)
    }

    #[test]
    fn local_access_is_free() {
        let (w, c) = setup(Side::Host);
        let h = w.map(Side::Host);
        assert!(!h.is_remote());
        // SAFETY: single-threaded test; range clear of atomic slots.
        unsafe {
            h.write(0, &[1u8; 256]);
            let mut out = [0u8; 256];
            h.read(0, &mut out);
        }
        h.ctrl(512).store(3);
        let _ = h.ctrl(512).load();
        assert_eq!(c.snapshot().total_transactions(), 0);
    }

    #[test]
    fn remote_memcpy_counts_lines() {
        let (w, c) = setup(Side::Coproc);
        let h = w.map(Side::Host);
        assert!(h.is_remote());
        // SAFETY: single-threaded test.
        unsafe {
            h.write(0, &[7u8; 130]); // 3 lines (130 bytes).
            let mut out = [0u8; 64];
            h.read(0, &mut out); // 1 line.
            assert_eq!(out, [7u8; 64]);
        }
        let s = c.snapshot();
        assert_eq!(s.write_lines, 3);
        assert_eq!(s.read_lines, 1);
        assert_eq!(s.dma_ops, 0);
    }

    #[test]
    fn read_vec_charges_as_read() {
        let (w, c) = setup(Side::Coproc);
        let local = w.map(Side::Coproc);
        let remote = w.map(Side::Host);
        // SAFETY: single-threaded test.
        let (here, there) = unsafe {
            local.write(0, &[5u8; 130]);
            (local.read_vec(0, 130), remote.read_vec(0, 130))
        };
        assert_eq!(here, [5u8; 130]);
        assert_eq!(there, here);
        // Only the remote copy crossed the bus: 3 lines, as `read` charges.
        assert_eq!(c.snapshot().read_lines, 3);
    }

    #[test]
    fn remote_dma_counts_ops_and_bytes() {
        let (w, c) = setup(Side::Coproc);
        let h = w.map(Side::Host);
        // SAFETY: single-threaded test.
        unsafe {
            h.dma_write(0, &vec![9u8; 2048]);
            let mut out = vec![0u8; 2048];
            h.dma_read(0, &mut out);
            assert_eq!(out[0], 9);
        }
        let s = c.snapshot();
        assert_eq!(s.dma_ops, 2);
        assert_eq!(s.dma_bytes, 4096);
        assert_eq!(s.read_lines + s.write_lines, 0);
    }

    #[test]
    fn adaptive_picks_mechanism_by_threshold() {
        let (w, c) = setup(Side::Coproc);
        let h = w.map(Side::Host);
        let m = CostModel::paper_default();
        // SAFETY: single-threaded test.
        unsafe {
            h.adaptive_write(&m, 0, &[0u8; 512]); // below 1 KB: memcpy.
            h.adaptive_write(&m, 0, &vec![0u8; 4096]); // above: DMA.
        }
        let s = c.snapshot();
        assert_eq!(s.write_lines, 8);
        assert_eq!(s.dma_ops, 1);

        // The co-processor threshold is 16 KB: a 4 KB write is memcpy.
        let h2 = w.map(Side::Coproc); // local though; use a host-homed window.
        assert!(!h2.is_remote());
        let (w2, c2) = setup(Side::Host);
        let h3 = w2.map(Side::Coproc);
        // SAFETY: single-threaded test.
        unsafe { h3.adaptive_write(&m, 0, &vec![0u8; 4096]) };
        assert_eq!(c2.snapshot().write_lines, 64);
        assert_eq!(c2.snapshot().dma_ops, 0);
    }

    #[test]
    fn injected_stall_delays_remote_access_only() {
        let (w, _c) = setup(Side::Coproc);
        w.inject_stalls(1, std::time::Duration::from_millis(20));
        // Local access: never stalls, budget untouched.
        let local = w.map(Side::Coproc);
        let t0 = std::time::Instant::now();
        // SAFETY: single-threaded test.
        unsafe { local.write(0, &[1u8; 64]) };
        assert!(t0.elapsed() < std::time::Duration::from_millis(15));
        // Remote access: pays the stall once, then runs at full speed.
        let remote = w.map(Side::Host);
        let t0 = std::time::Instant::now();
        // SAFETY: single-threaded test.
        unsafe { remote.write(0, &[2u8; 64]) };
        assert!(t0.elapsed() >= std::time::Duration::from_millis(20));
        let t0 = std::time::Instant::now();
        // SAFETY: single-threaded test.
        unsafe { remote.write(0, &[3u8; 64]) };
        assert!(t0.elapsed() < std::time::Duration::from_millis(15));
    }

    #[test]
    fn injected_dropped_write_loses_data_but_counts_traffic() {
        let (w, c) = setup(Side::Coproc);
        let remote = w.map(Side::Host);
        // SAFETY: single-threaded test.
        unsafe { remote.write(0, &[0xAAu8; 64]) };
        w.inject_dropped_writes(1);
        // SAFETY: single-threaded test.
        unsafe { remote.write(0, &[0xBBu8; 64]) };
        let mut out = [0u8; 64];
        // SAFETY: single-threaded test.
        unsafe { remote.read(0, &mut out) };
        assert_eq!(out, [0xAAu8; 64], "dropped write never landed");
        // The lost write still crossed the bus as far as the ledger knows.
        assert_eq!(c.snapshot().write_lines, 2);
        // The next write goes through.
        // SAFETY: single-threaded test.
        unsafe { remote.write(0, &[0xCCu8; 64]) };
        // SAFETY: single-threaded test.
        unsafe { remote.read(0, &mut out) };
        assert_eq!(out, [0xCCu8; 64]);
    }

    #[test]
    fn ctrl_ops_counted_when_remote() {
        let (w, c) = setup(Side::Coproc);
        let remote = w.map(Side::Host);
        let ctrl = remote.ctrl(0);
        ctrl.store(5);
        assert_eq!(ctrl.load(), 5);
        assert_eq!(ctrl.swap(9), 5);
        assert_eq!(ctrl.compare_exchange(9, 10), Ok(9));
        assert_eq!(ctrl.compare_exchange(9, 11), Err(10));
        assert_eq!(ctrl.fetch_add(1), 10);
        let s = c.snapshot();
        assert_eq!(s.ctrl_reads, 1);
        assert_eq!(s.ctrl_writes, 1);
        assert_eq!(s.rmw_ops, 4);

        // The local view shares the same slot but is free.
        let local = w.map(Side::Coproc);
        assert_eq!(local.ctrl(0).load(), 11);
        assert_eq!(c.snapshot().ctrl_reads, 1);
    }
}
