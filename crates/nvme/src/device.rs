//! The simulated NVMe controller.
//!
//! Commands are block-granular reads/writes whose data lands in (or comes
//! from) an arbitrary PCIe-visible memory region — host RAM or, for
//! peer-to-peer transfers, a co-processor's exported memory (§4.3.2, §5).
//! The two submission paths mirror the paper:
//!
//! * [`NvmeDevice::submit_vectored`] — the Solros driver's `p2p_read` /
//!   `p2p_write` IO-vector ioctl: every command of one file-system call is
//!   queued, the doorbell rings **once**, and one interrupt covers the
//!   whole batch.
//! * [`NvmeDevice::submit_each`] — the conventional path (one doorbell and
//!   one interrupt per command), used by the baselines.
//!
//! Like the DMA engine it stands for, the model reads each command where
//! the submitter wrote it and moves its run of blocks once, store to
//! window or window to store, in one copy per store chunk the run
//! touches; a run that ends past the device fails before any block
//! moves. A submission runs in one queue-pair critical section
//! — reserve a consecutive command-identifier range, ring, execute, post,
//! reap — so the completions a submitter reaps are the ones carrying its
//! own range, however many threads share the device.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use solros_pcie::window::Window;
use solros_simkit::sync::Mutex;

use crate::error::NvmeError;
use crate::queue::QueuePair;
use crate::store::{BlockStore, BLOCK_SIZE};

/// Maximum data transfer size per command (MDTS): 128 KiB = 32 blocks.
pub const MDTS_BLOCKS: u32 = 32;

/// A DMA target/source: an offset inside a PCIe-visible window.
#[derive(Clone)]
pub struct DmaPtr {
    /// The memory region (host RAM or an exported co-processor region).
    pub window: Arc<Window>,
    /// Byte offset within the window.
    pub offset: usize,
}

impl DmaPtr {
    /// Creates a pointer; validated against the window bounds at use.
    pub fn new(window: Arc<Window>, offset: usize) -> Self {
        Self { window, offset }
    }
}

impl fmt::Debug for DmaPtr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DmaPtr({:?}+{:#x})", self.window.home(), self.offset)
    }
}

/// One NVMe command.
#[derive(Debug, Clone)]
pub enum NvmeCommand {
    /// Read `nblocks` starting at `lba` into `dst`.
    Read {
        /// Starting logical block address.
        lba: u64,
        /// Number of blocks.
        nblocks: u32,
        /// DMA destination.
        dst: DmaPtr,
    },
    /// Write `nblocks` starting at `lba` from `src`.
    Write {
        /// Starting logical block address.
        lba: u64,
        /// Number of blocks.
        nblocks: u32,
        /// DMA source.
        src: DmaPtr,
    },
    /// Persist outstanding writes (a no-op for the in-memory store, but
    /// counted, so flush-heavy workloads model correctly).
    Flush,
}

impl NvmeCommand {
    /// Number of data blocks this command moves.
    pub fn nblocks(&self) -> u32 {
        match self {
            NvmeCommand::Read { nblocks, .. } | NvmeCommand::Write { nblocks, .. } => *nblocks,
            NvmeCommand::Flush => 0,
        }
    }

    /// True for reads.
    pub fn is_read(&self) -> bool {
        matches!(self, NvmeCommand::Read { .. })
    }
}

/// Protocol/activity statistics, matching what the latency-breakdown and
/// coalescing experiments report.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NvmeStats {
    /// Commands executed.
    pub commands: u64,
    /// Doorbell rings.
    pub doorbells: u64,
    /// Interrupts raised.
    pub interrupts: u64,
    /// Blocks read.
    pub blocks_read: u64,
    /// Blocks written.
    pub blocks_written: u64,
    /// Commands that failed (including injected faults).
    pub failures: u64,
}

/// The simulated NVMe SSD.
///
/// # Examples
///
/// ```
/// use solros_nvme::{NvmeDevice, NvmeCommand, DmaPtr, BLOCK_SIZE};
/// use solros_pcie::{PcieCounters, Side, Window};
/// use std::sync::Arc;
///
/// let dev = NvmeDevice::new(1024);
/// let counters = Arc::new(PcieCounters::new());
/// let buf = Window::new(BLOCK_SIZE, Side::Host, counters);
///
/// // SAFETY-free API: the device copies through the window internally.
/// let w = NvmeCommand::Write { lba: 5, nblocks: 1, src: DmaPtr::new(Arc::clone(&buf), 0) };
/// assert!(dev.submit_vectored(&[w]).iter().all(|r| r.is_ok()));
/// assert_eq!(dev.stats().doorbells, 1);
/// ```
pub struct NvmeDevice {
    store: BlockStore,
    qp: Mutex<QueuePair>,
    commands: AtomicU64,
    interrupts: AtomicU64,
    blocks_read: AtomicU64,
    blocks_written: AtomicU64,
    failures: AtomicU64,
    inject_faults: AtomicU64,
    inject_timeouts: AtomicU64,
    inject_queue_full: AtomicU64,
}

impl NvmeDevice {
    /// Creates a device with the given capacity in blocks and a 1024-deep
    /// queue pair.
    pub fn new(capacity_blocks: u64) -> Arc<Self> {
        Arc::new(Self {
            store: BlockStore::new(capacity_blocks),
            qp: Mutex::new(QueuePair::new(1024)),
            commands: AtomicU64::new(0),
            interrupts: AtomicU64::new(0),
            blocks_read: AtomicU64::new(0),
            blocks_written: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            inject_faults: AtomicU64::new(0),
            inject_timeouts: AtomicU64::new(0),
            inject_queue_full: AtomicU64::new(0),
        })
    }

    /// Returns the device capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.store.capacity_blocks()
    }

    /// Arms the fault injector: the next `n` data commands fail with
    /// [`NvmeError::MediaError`].
    pub fn inject_faults(&self, n: u64) {
        self.inject_faults.store(n, Ordering::SeqCst);
    }

    /// Arms the timeout injector: the next `n` data commands fail with
    /// [`NvmeError::NoCompletion`], modeling a lost completion entry (the
    /// host gives up on the command after its deadline).
    pub fn inject_timeouts(&self, n: u64) {
        self.inject_timeouts.store(n, Ordering::SeqCst);
    }

    /// Arms the queue-full injector: the next `n` submission *batches* are
    /// refused whole with [`NvmeError::QueueFull`] before any command
    /// executes — no doorbell, no interrupt, no state change.
    pub fn inject_queue_full(&self, n: u64) {
        self.inject_queue_full.store(n, Ordering::SeqCst);
    }

    /// Returns a snapshot of the protocol statistics.
    pub fn stats(&self) -> NvmeStats {
        NvmeStats {
            commands: self.commands.load(Ordering::Relaxed),
            doorbells: self.qp.lock().doorbells,
            interrupts: self.interrupts.load(Ordering::Relaxed),
            blocks_read: self.blocks_read.load(Ordering::Relaxed),
            blocks_written: self.blocks_written.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
        }
    }

    /// The Solros vectored path (§5): all commands in one doorbell, one
    /// interrupt for the whole batch. Returns per-command results in
    /// submission order.
    pub fn submit_vectored(&self, cmds: &[NvmeCommand]) -> Vec<Result<(), NvmeError>> {
        let mut results = Vec::with_capacity(cmds.len());
        self.submit_vectored_into(cmds, &mut results);
        results
    }

    /// [`NvmeDevice::submit_vectored`] writing the per-command results
    /// over `results`, for submitters that keep the vector between waves.
    pub fn submit_vectored_into(
        &self,
        cmds: &[NvmeCommand],
        results: &mut Vec<Result<(), NvmeError>>,
    ) {
        results.clear();
        if cmds.is_empty() {
            return;
        }
        let refused = self
            .inject_queue_full
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok();
        if refused {
            self.failures
                .fetch_add(cmds.len() as u64, Ordering::Relaxed);
            results.resize(cmds.len(), Err(NvmeError::QueueFull));
            return;
        }
        // Held from submission to reaping: another submitter's entries
        // never interleave with this batch's, in either ring.
        let mut qp = self.qp.lock();
        // Ring depth 1024 exceeds any batch the FS proxy builds; a full
        // ring here is a bug, not a runtime condition.
        let first = qp.submit(cmds.len()).expect("ring depth exceeded");
        qp.ring_doorbell();
        let cid = |i: usize| first.wrapping_add(i as u16);
        for (i, cmd) in cmds.iter().enumerate() {
            let status = self.execute(cmd);
            qp.post_completion(cid(i), status);
        }
        // One interrupt covers the batch.
        self.interrupts.fetch_add(1, Ordering::Relaxed);
        for i in 0..cmds.len() {
            let done = qp.reap().expect("completion present");
            assert_eq!(done.cid, cid(i), "reaped another submitter's completion");
            results.push(done.status);
        }
    }

    /// The conventional path: one doorbell + one interrupt per command.
    pub fn submit_each(&self, cmds: &[NvmeCommand]) -> Vec<Result<(), NvmeError>> {
        cmds.iter()
            .map(|c| {
                let r = self.submit_vectored(std::slice::from_ref(c));
                r.into_iter().next().expect("one result")
            })
            .collect()
    }

    fn execute(&self, cmd: &NvmeCommand) -> Result<(), NvmeError> {
        self.commands.fetch_add(1, Ordering::Relaxed);
        if cmd.nblocks() > MDTS_BLOCKS {
            self.failures.fetch_add(1, Ordering::Relaxed);
            return Err(NvmeError::TransferTooLarge);
        }
        // A DMA address outside the target window is a bad PRP list: the
        // controller fails the command instead of scribbling on memory.
        let dma_bounds_ok = match cmd {
            NvmeCommand::Read { nblocks, dst, .. } => dst
                .offset
                .checked_add(*nblocks as usize * BLOCK_SIZE)
                .is_some_and(|end| end <= dst.window.len()),
            NvmeCommand::Write { nblocks, src, .. } => src
                .offset
                .checked_add(*nblocks as usize * BLOCK_SIZE)
                .is_some_and(|end| end <= src.window.len()),
            NvmeCommand::Flush => true,
        };
        if !dma_bounds_ok {
            self.failures.fetch_add(1, Ordering::Relaxed);
            return Err(NvmeError::OutOfRange);
        }
        if !matches!(cmd, NvmeCommand::Flush) {
            let remaining = self
                .inject_faults
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                .is_ok();
            if remaining {
                self.failures.fetch_add(1, Ordering::Relaxed);
                return Err(NvmeError::MediaError);
            }
            let timed_out = self
                .inject_timeouts
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
                .is_ok();
            if timed_out {
                self.failures.fetch_add(1, Ordering::Relaxed);
                return Err(NvmeError::NoCompletion);
            }
        }
        let (moved, blocks) = match cmd {
            NvmeCommand::Read { lba, nblocks, dst } => {
                // The device's own DMA engine moves the data; this is
                // not CPU-initiated PCIe traffic, so it uses a local
                // mapping of the target window.
                let handle = dst.window.map(dst.window.home());
                let moved = self.store.read_run(*lba, u64::from(*nblocks), |at, run| {
                    // SAFETY: the submitter owns the destination
                    // buffer exclusively for the duration of the
                    // command (driver contract, enforced by the FS
                    // proxy).
                    unsafe { handle.write(dst.offset + at, run) }
                });
                (moved, &self.blocks_read)
            }
            NvmeCommand::Write { lba, nblocks, src } => {
                let handle = src.window.map(src.window.home());
                let moved = self.store.write_run(*lba, u64::from(*nblocks), |at, run| {
                    // SAFETY: as above — exclusive source buffer.
                    unsafe { handle.read(src.offset + at, run) }
                });
                (moved, &self.blocks_written)
            }
            NvmeCommand::Flush => return Ok(()),
        };
        match moved {
            Ok(()) => blocks.fetch_add(u64::from(cmd.nblocks()), Ordering::Relaxed),
            Err(_) => self.failures.fetch_add(1, Ordering::Relaxed),
        };
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solros_pcie::{PcieCounters, Side};

    fn buffer(len: usize) -> Arc<Window> {
        Window::new(len, Side::Host, Arc::new(PcieCounters::new()))
    }

    fn fill(w: &Arc<Window>, off: usize, data: &[u8]) {
        let h = w.map(w.home());
        // SAFETY: test-local buffer, single-threaded.
        unsafe { h.write(off, data) };
    }

    fn read_back(w: &Arc<Window>, off: usize, len: usize) -> Vec<u8> {
        let h = w.map(w.home());
        let mut v = vec![0u8; len];
        // SAFETY: test-local buffer, single-threaded.
        unsafe { h.read(off, &mut v) };
        v
    }

    #[test]
    fn write_then_read_roundtrip() {
        let dev = NvmeDevice::new(1024);
        let src = buffer(2 * BLOCK_SIZE);
        let pattern: Vec<u8> = (0..2 * BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
        fill(&src, 0, &pattern);

        let w = NvmeCommand::Write {
            lba: 10,
            nblocks: 2,
            src: DmaPtr::new(Arc::clone(&src), 0),
        };
        assert!(dev.submit_vectored(&[w])[0].is_ok());

        let dst = buffer(2 * BLOCK_SIZE);
        let r = NvmeCommand::Read {
            lba: 10,
            nblocks: 2,
            dst: DmaPtr::new(Arc::clone(&dst), 0),
        };
        assert!(dev.submit_vectored(&[r])[0].is_ok());
        assert_eq!(read_back(&dst, 0, 2 * BLOCK_SIZE), pattern);
    }

    #[test]
    fn vectored_batch_coalesces_doorbells_and_interrupts() {
        let dev = NvmeDevice::new(4096);
        let buf = buffer(BLOCK_SIZE);
        let cmds: Vec<_> = (0..8)
            .map(|i| NvmeCommand::Read {
                lba: i,
                nblocks: 1,
                dst: DmaPtr::new(Arc::clone(&buf), 0),
            })
            .collect();

        let res = dev.submit_vectored(&cmds);
        assert!(res.iter().all(|r| r.is_ok()));
        let s = dev.stats();
        assert_eq!(s.commands, 8);
        assert_eq!(s.doorbells, 1, "vectored path rings once");
        assert_eq!(s.interrupts, 1, "vectored path interrupts once");

        let res = dev.submit_each(&cmds);
        assert!(res.iter().all(|r| r.is_ok()));
        let s = dev.stats();
        assert_eq!(s.doorbells, 1 + 8, "conventional path rings per command");
        assert_eq!(s.interrupts, 1 + 8);
    }

    #[test]
    fn mdts_enforced() {
        let dev = NvmeDevice::new(4096);
        let buf = buffer(BLOCK_SIZE);
        let r = NvmeCommand::Read {
            lba: 0,
            nblocks: MDTS_BLOCKS + 1,
            dst: DmaPtr::new(buf, 0),
        };
        assert_eq!(
            dev.submit_vectored(&[r])[0],
            Err(NvmeError::TransferTooLarge)
        );
    }

    #[test]
    fn out_of_range_dma_address_fails_the_command() {
        let dev = NvmeDevice::new(64);
        let small = buffer(BLOCK_SIZE); // One block of window space.
                                        // Two blocks into a one-block window: bad PRP list.
        let r = NvmeCommand::Read {
            lba: 0,
            nblocks: 2,
            dst: DmaPtr::new(Arc::clone(&small), 0),
        };
        assert_eq!(dev.submit_vectored(&[r])[0], Err(NvmeError::OutOfRange));
        // Offset pushing the end past the window also fails.
        let r = NvmeCommand::Read {
            lba: 0,
            nblocks: 1,
            dst: DmaPtr::new(small, 8),
        };
        assert_eq!(dev.submit_vectored(&[r])[0], Err(NvmeError::OutOfRange));
    }

    #[test]
    fn out_of_range_lba() {
        let dev = NvmeDevice::new(16);
        let buf = buffer(BLOCK_SIZE);
        let r = NvmeCommand::Read {
            lba: 16,
            nblocks: 1,
            dst: DmaPtr::new(buf, 0),
        };
        assert_eq!(dev.submit_vectored(&[r])[0], Err(NvmeError::OutOfRange));
    }

    #[test]
    fn a_command_past_the_end_moves_no_block() {
        let dev = NvmeDevice::new(16);
        let src = buffer(2 * BLOCK_SIZE);
        fill(&src, 0, &[0x77u8; 2 * BLOCK_SIZE]);
        // Two blocks at the last LBA: the first is on the device, the
        // second is not, so the whole command fails and writes nothing.
        let w = NvmeCommand::Write {
            lba: 15,
            nblocks: 2,
            src: DmaPtr::new(src, 0),
        };
        assert_eq!(dev.submit_vectored(&[w])[0], Err(NvmeError::OutOfRange));
        assert_eq!(dev.store.resident_blocks(), 0, "no block was written");
        // The same run read back fails and leaves the destination as it was.
        let dst = buffer(2 * BLOCK_SIZE);
        fill(&dst, 0, &[0xEEu8; 2 * BLOCK_SIZE]);
        let r = NvmeCommand::Read {
            lba: 15,
            nblocks: 2,
            dst: DmaPtr::new(Arc::clone(&dst), 0),
        };
        assert_eq!(dev.submit_vectored(&[r])[0], Err(NvmeError::OutOfRange));
        assert!(
            read_back(&dst, 0, 2 * BLOCK_SIZE)
                .iter()
                .all(|&b| b == 0xEE),
            "no block was read"
        );
        let s = dev.stats();
        assert_eq!((s.blocks_read, s.blocks_written, s.failures), (0, 0, 2));
    }

    #[test]
    fn fault_injection_then_recovery() {
        let dev = NvmeDevice::new(64);
        let buf = buffer(BLOCK_SIZE);
        dev.inject_faults(2);
        let r = NvmeCommand::Read {
            lba: 0,
            nblocks: 1,
            dst: DmaPtr::new(Arc::clone(&buf), 0),
        };
        assert_eq!(
            dev.submit_vectored(std::slice::from_ref(&r))[0],
            Err(NvmeError::MediaError)
        );
        assert_eq!(
            dev.submit_vectored(std::slice::from_ref(&r))[0],
            Err(NvmeError::MediaError)
        );
        assert!(dev.submit_vectored(&[r])[0].is_ok());
        assert_eq!(dev.stats().failures, 2);
    }

    #[test]
    fn timeout_and_queue_full_bursts() {
        let dev = NvmeDevice::new(64);
        let buf = buffer(BLOCK_SIZE);
        let r = NvmeCommand::Read {
            lba: 0,
            nblocks: 1,
            dst: DmaPtr::new(Arc::clone(&buf), 0),
        };
        dev.inject_timeouts(1);
        assert_eq!(
            dev.submit_vectored(std::slice::from_ref(&r))[0],
            Err(NvmeError::NoCompletion)
        );
        assert!(dev.submit_vectored(std::slice::from_ref(&r))[0].is_ok());

        // A refused batch fails whole, rings no doorbell, and leaves the
        // device ready for the retry.
        let before = dev.stats();
        dev.inject_queue_full(1);
        let res = dev.submit_vectored(&[r.clone(), r.clone()]);
        assert!(res.iter().all(|x| *x == Err(NvmeError::QueueFull)));
        let after = dev.stats();
        assert_eq!(after.doorbells, before.doorbells, "no doorbell on refusal");
        assert_eq!(after.commands, before.commands, "nothing executed");
        assert!(dev.submit_vectored(&[r])[0].is_ok());
    }

    #[test]
    fn flush_counts_but_moves_nothing() {
        let dev = NvmeDevice::new(64);
        assert!(dev.submit_vectored(&[NvmeCommand::Flush])[0].is_ok());
        let s = dev.stats();
        assert_eq!(s.commands, 1);
        assert_eq!(s.blocks_read + s.blocks_written, 0);
    }

    #[test]
    fn p2p_into_coproc_window() {
        // The destination lives on the co-processor side: a P2P transfer.
        let dev = NvmeDevice::new(64);
        let counters = Arc::new(PcieCounters::new());
        let phi_mem = Window::new(BLOCK_SIZE, Side::Coproc, counters);
        let pattern = vec![0x5Au8; BLOCK_SIZE];
        let staging = buffer(BLOCK_SIZE);
        fill(&staging, 0, &pattern);
        dev.submit_vectored(&[NvmeCommand::Write {
            lba: 3,
            nblocks: 1,
            src: DmaPtr::new(staging, 0),
        }]);
        dev.submit_vectored(&[NvmeCommand::Read {
            lba: 3,
            nblocks: 1,
            dst: DmaPtr::new(Arc::clone(&phi_mem), 0),
        }]);
        assert_eq!(read_back(&phi_mem, 0, BLOCK_SIZE), pattern);
    }
}
