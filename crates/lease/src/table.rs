//! Stub-side lease table: the zero-RPC fast path.
//!
//! The co-processor's fs client consults this table before every data
//! operation. A valid lease covering the range turns the op into direct
//! NVMe submissions against the pre-resolved extents — one doorbell, no
//! RPC. Anything else (no lease, out of range, recalled, stale) falls
//! back to the proxy path, after flushing and acking if a recall is the
//! reason.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use solros_fs::Extent;
use solros_machine::WindowAlloc;
use solros_nvme::{DmaPtr, NvmeCommand, NvmeDevice, NvmeError, BLOCK_SIZE, MDTS_BLOCKS};
use solros_pcie::{Side, Window};
use solros_simkit::sync::Mutex;

use crate::manager::LeaseManager;
use crate::state::{LeaseKind, LeaseState};

/// Outcome of a single fast-path attempt.
#[derive(Debug)]
pub enum LeaseIo {
    /// Served from the lease: `n` bytes moved, zero RPCs.
    Done(usize),
    /// No usable lease; take the RPC path. No ack owed.
    Fallback,
    /// The lease was recalled (or went stale): it has been flushed and
    /// dropped from the table; the caller must send this ack on the
    /// wire, then take the RPC path.
    RecallAck {
        /// Lease id to ack.
        id: u64,
        /// High-water mark of leased writes to report.
        written_end: u64,
    },
}

/// Outcome of a batched fast-path attempt.
#[derive(Debug)]
pub enum BatchIo {
    /// Every request served from the lease in one vectored submission.
    Done(Vec<Vec<u8>>),
    /// Take the RPC batch path.
    Fallback,
    /// As [`LeaseIo::RecallAck`].
    RecallAck {
        /// Lease id to ack.
        id: u64,
        /// High-water mark of leased writes to report.
        written_end: u64,
    },
}

/// Counters for the stub-side fast path.
#[derive(Debug, Default)]
pub struct LeaseTableStats {
    /// Reads served entirely from a lease (zero RPCs).
    pub leased_reads: AtomicU64,
    /// Writes served entirely from a lease.
    pub leased_writes: AtomicU64,
    /// Bytes read through leases.
    pub leased_bytes_read: AtomicU64,
    /// Bytes written through leases.
    pub leased_bytes_written: AtomicU64,
    /// Ops that had a lease but fell back (range, alloc, device error).
    pub fallbacks: AtomicU64,
    /// Recalls noticed and acked by this table.
    pub recall_acks: AtomicU64,
    /// Stale-generation mappings caught before any data moved.
    pub stale_rejected: AtomicU64,
    /// Tripwire: leased ops that completed against a mapping whose
    /// generation went stale mid-flight without a recall. Must stay 0 —
    /// the begin/recheck guard plus recall-before-invalidate ordering
    /// make a silent stale read structurally impossible; E6 gates on it.
    pub stale_generation_reads: AtomicU64,
}

/// The stub's view of its outstanding leases, keyed by inode.
pub struct LeaseTable {
    device: Arc<NvmeDevice>,
    window: Arc<Window>,
    alloc: Arc<WindowAlloc>,
    manager: Arc<LeaseManager>,
    leases: Mutex<HashMap<u64, Arc<LeaseState>>>,
    /// The command list and statuses of the leased operation in progress:
    /// refilled per operation, so the fast path allocates nothing. Held
    /// across the submission, which the device serializes anyway.
    scratch: Mutex<Scratch>,
    stats: LeaseTableStats,
}

#[derive(Default)]
struct Scratch {
    cmds: Vec<NvmeCommand>,
    results: Vec<Result<(), NvmeError>>,
}

impl Scratch {
    /// Moves `cmds` with one vectored submission; true when all succeeded.
    fn submit(&mut self, device: &NvmeDevice) -> bool {
        device.submit_vectored_into(&self.cmds, &mut self.results);
        self.results.iter().all(Result::is_ok)
    }
}

impl LeaseTable {
    /// A table bound to one co-processor's window, allocator and the
    /// machine-wide lease manager.
    pub fn new(
        device: Arc<NvmeDevice>,
        window: Arc<Window>,
        alloc: Arc<WindowAlloc>,
        manager: Arc<LeaseManager>,
    ) -> Self {
        Self {
            device,
            window,
            alloc,
            manager,
            leases: Mutex::new(HashMap::new()),
            scratch: Mutex::default(),
            stats: LeaseTableStats::default(),
        }
    }

    /// Fast-path counters.
    pub fn stats(&self) -> &LeaseTableStats {
        &self.stats
    }

    /// The shared manager (experiment drivers reach ledger/faults).
    pub fn manager(&self) -> &Arc<LeaseManager> {
        &self.manager
    }

    /// Adopts a granted lease by wire handle. Verifies the generation
    /// the proxy reported still matches the shared record — a grant
    /// that went stale in flight is refused here, not at first I/O.
    pub fn adopt(&self, id: u64, ino: u64, generation: u64) -> bool {
        let Some(st) = self.manager.shared(id) else {
            return false;
        };
        if st.ino() != ino || st.generation() != generation || !st.is_current() {
            self.stats.stale_rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        self.leases.lock().insert(ino, st);
        true
    }

    /// True when this table holds a lease on `ino` (of any validity).
    pub fn has(&self, ino: u64) -> bool {
        self.leases.lock().contains_key(&ino)
    }

    /// Removes the lease on `ino` for a voluntary release, returning
    /// the wire handle and write high-water mark to report.
    pub fn take_release(&self, ino: u64) -> Option<(u64, u64)> {
        let st = self.leases.lock().remove(&ino)?;
        self.flush_writes(&st);
        Some((st.id(), st.written_end()))
    }

    /// Attempts a leased read of `buf.len()` bytes at `offset`.
    pub fn read_at(&self, ino: u64, offset: u64, buf: &mut [u8]) -> LeaseIo {
        let Some(st) = self.lease_for(ino) else {
            return LeaseIo::Fallback;
        };
        if !st.begin_op() {
            return self.retire(ino, &st);
        }
        let r = self.leased_read(&st, offset, buf);
        let stale_mid_op = !st.is_current() && !st.is_recalled();
        st.end_op();
        if stale_mid_op {
            self.stats
                .stale_generation_reads
                .fetch_add(1, Ordering::Relaxed);
        }
        match r {
            Some(n) => {
                self.stats.leased_reads.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .leased_bytes_read
                    .fetch_add(n as u64, Ordering::Relaxed);
                st.charge_bypass(n as u64);
                LeaseIo::Done(n)
            }
            None => {
                self.stats.fallbacks.fetch_add(1, Ordering::Relaxed);
                LeaseIo::Fallback
            }
        }
    }

    /// Attempts a leased write of `data` at `offset`. Requires a write
    /// lease and block-aligned offset/length (the RPC path handles the
    /// ragged cases; leases exist for bulk I/O).
    pub fn write_at(&self, ino: u64, offset: u64, data: &[u8]) -> LeaseIo {
        let Some(st) = self.lease_for(ino) else {
            return LeaseIo::Fallback;
        };
        let bs = BLOCK_SIZE as u64;
        if st.kind() != LeaseKind::Write
            || !offset.is_multiple_of(bs)
            || !(data.len() as u64).is_multiple_of(bs)
            || data.is_empty()
        {
            return LeaseIo::Fallback;
        }
        if !st.begin_op() {
            return self.retire(ino, &st);
        }
        let r = self.leased_write(&st, offset, data);
        let stale_mid_op = !st.is_current() && !st.is_recalled();
        st.end_op();
        if stale_mid_op {
            self.stats
                .stale_generation_reads
                .fetch_add(1, Ordering::Relaxed);
        }
        match r {
            Some(n) => {
                st.note_write(offset + n as u64);
                self.stats.leased_writes.fetch_add(1, Ordering::Relaxed);
                self.stats
                    .leased_bytes_written
                    .fetch_add(n as u64, Ordering::Relaxed);
                st.charge_bypass(n as u64);
                LeaseIo::Done(n)
            }
            None => {
                self.stats.fallbacks.fetch_add(1, Ordering::Relaxed);
                LeaseIo::Fallback
            }
        }
    }

    /// Attempts a batch of leased reads as ONE vectored submission —
    /// a single doorbell and interrupt for the whole batch, zero RPCs.
    /// All-or-nothing: any request outside the lease falls the whole
    /// batch back to the RPC path.
    pub fn read_batch(&self, ino: u64, reqs: &[(u64, usize)]) -> BatchIo {
        let Some(st) = self.lease_for(ino) else {
            return BatchIo::Fallback;
        };
        if !st.begin_op() {
            return match self.retire(ino, &st) {
                LeaseIo::RecallAck { id, written_end } => BatchIo::RecallAck { id, written_end },
                _ => BatchIo::Fallback,
            };
        }
        let r = self.leased_read_batch(&st, reqs);
        let stale_mid_op = !st.is_current() && !st.is_recalled();
        st.end_op();
        if stale_mid_op {
            self.stats
                .stale_generation_reads
                .fetch_add(1, Ordering::Relaxed);
        }
        match r {
            Some(bufs) => {
                let bytes: u64 = bufs.iter().map(|b| b.len() as u64).sum();
                self.stats
                    .leased_reads
                    .fetch_add(reqs.len() as u64, Ordering::Relaxed);
                self.stats
                    .leased_bytes_read
                    .fetch_add(bytes, Ordering::Relaxed);
                st.charge_bypass(bytes);
                BatchIo::Done(bufs)
            }
            None => {
                self.stats.fallbacks.fetch_add(1, Ordering::Relaxed);
                BatchIo::Fallback
            }
        }
    }

    fn lease_for(&self, ino: u64) -> Option<Arc<LeaseState>> {
        self.leases.lock().get(&ino).cloned()
    }

    /// Drops an unusable lease from the table: flushes leased writes,
    /// classifies why (recall vs stale), and tells the caller whether
    /// an ack is owed.
    fn retire(&self, ino: u64, st: &Arc<LeaseState>) -> LeaseIo {
        // Only retire the exact record we found; a fresh re-grant may
        // already sit in the slot.
        {
            let mut leases = self.leases.lock();
            match leases.get(&ino) {
                Some(cur) if Arc::ptr_eq(cur, st) => {
                    leases.remove(&ino);
                }
                _ => return LeaseIo::Fallback,
            }
        }
        if st.is_recalled() {
            self.stats.recall_acks.fetch_add(1, Ordering::Relaxed);
        } else {
            self.stats.stale_rejected.fetch_add(1, Ordering::Relaxed);
        }
        self.flush_writes(st);
        LeaseIo::RecallAck {
            id: st.id(),
            written_end: st.written_end(),
        }
    }

    /// Waits out concurrent leased ops and flushes the device so every
    /// leased write is durable before the ack reports `written_end`.
    fn flush_writes(&self, st: &LeaseState) {
        while st.active_ops() > 0 {
            std::thread::yield_now();
        }
        if st.kind() == LeaseKind::Write && st.written_end() > 0 {
            let _ = self.device.submit_vectored(&[NvmeCommand::Flush]);
        }
    }

    /// Maps `blocks` blocks starting `first_block` blocks into the lease
    /// onto the window span at `win_off` and moves them with one vectored
    /// submission. False when the extents do not cover the span or any
    /// command failed.
    fn transfer(
        &self,
        st: &LeaseState,
        first_block: u64,
        blocks: u64,
        win_off: usize,
        is_read: bool,
    ) -> bool {
        let mut scratch = self.scratch.lock();
        scratch.cmds.clear();
        slice_cmds(
            st.extents(),
            first_block,
            blocks,
            &self.window,
            win_off,
            is_read,
            &mut scratch.cmds,
        ) && scratch.submit(&self.device)
    }

    fn leased_read(&self, st: &LeaseState, offset: u64, buf: &mut [u8]) -> Option<usize> {
        // Outside the leased range: not ours to answer. The file may
        // extend past a partial-range lease, so only the RPC path can
        // tell data from EOF here — a Done(0) would be a false EOF.
        let range_end = st.offset() + st.len();
        if offset < st.offset() || offset >= range_end {
            return None;
        }
        let end = st.readable_end();
        // Inside the range but at/past the readable end: the file
        // ended within the lease (a conflicting writer can't extend
        // it without a recall), so this EOF is real.
        if offset >= end {
            return Some(0);
        }
        let want = (buf.len() as u64).min(end - offset) as usize;
        if want == 0 {
            return Some(0);
        }
        let bs = BLOCK_SIZE as u64;
        let rel = offset - st.offset();
        let first_block = rel / bs;
        let lead = (rel % bs) as usize;
        let span_blocks = (rel + want as u64).div_ceil(bs) - first_block;
        let span_bytes = (span_blocks * bs) as usize;
        let win_off = self.alloc.alloc(span_bytes)?;
        let ok = self.transfer(st, first_block, span_blocks, win_off, true);
        if ok {
            let local = self.window.map(Side::Coproc);
            // SAFETY: `win_off..win_off + span_bytes` was just allocated
            // from this window's allocator, and `lead + want` fits the
            // span by construction.
            unsafe { local.read(win_off + lead, &mut buf[..want]) };
        }
        self.alloc.free(win_off, span_bytes);
        ok.then_some(want)
    }

    fn leased_write(&self, st: &LeaseState, offset: u64, data: &[u8]) -> Option<usize> {
        if offset < st.offset() || offset + data.len() as u64 > st.offset() + st.len() {
            return None;
        }
        let bs = BLOCK_SIZE as u64;
        let rel = offset - st.offset();
        let first_block = rel / bs;
        let span_blocks = (data.len() as u64) / bs;
        let win_off = self.alloc.alloc(data.len())?;
        let local = self.window.map(Side::Coproc);
        // SAFETY: the span was just allocated from this window.
        unsafe { local.write(win_off, data) };
        let ok = self.transfer(st, first_block, span_blocks, win_off, false);
        self.alloc.free(win_off, data.len());
        ok.then_some(data.len())
    }

    fn leased_read_batch(&self, st: &LeaseState, reqs: &[(u64, usize)]) -> Option<Vec<Vec<u8>>> {
        let bs = BLOCK_SIZE as u64;
        let end = st.readable_end();
        let range_end = st.offset() + st.len();
        // Plan every request first; any miss aborts before allocation.
        let mut plans = Vec::with_capacity(reqs.len());
        let mut total_span = 0usize;
        for &(offset, len) in reqs {
            // Same range guard as `leased_read`: a request outside the
            // leased range falls the whole batch back — a partial-range
            // lease can't distinguish EOF from not-yet-leased data.
            if offset < st.offset() || offset >= range_end {
                return None;
            }
            if offset >= end || len == 0 {
                plans.push(None);
                continue;
            }
            let want = (len as u64).min(end - offset) as usize;
            let rel = offset - st.offset();
            let first_block = rel / bs;
            let lead = (rel % bs) as usize;
            let span_blocks = (rel + want as u64).div_ceil(bs) - first_block;
            let span_bytes = (span_blocks * bs) as usize;
            plans.push(Some((first_block, span_blocks, lead, want, total_span)));
            total_span += span_bytes;
        }
        if total_span == 0 {
            return Some(reqs.iter().map(|_| Vec::new()).collect());
        }
        let win_off = self.alloc.alloc(total_span)?;
        let ok = {
            let mut scratch = self.scratch.lock();
            scratch.cmds.clear();
            plans.iter().flatten().all(|plan| {
                let (first_block, span_blocks, _, _, span_off) = *plan;
                slice_cmds(
                    st.extents(),
                    first_block,
                    span_blocks,
                    &self.window,
                    win_off + span_off,
                    true,
                    &mut scratch.cmds,
                )
            }) && scratch.submit(&self.device)
        };
        let out = if ok {
            let local = self.window.map(Side::Coproc);
            let mut out = Vec::with_capacity(reqs.len());
            for plan in &plans {
                match plan {
                    None => out.push(Vec::new()),
                    Some((_, _, lead, want, span_off)) => {
                        let mut buf = vec![0u8; *want];
                        // SAFETY: the whole span belongs to this batch's
                        // allocation.
                        unsafe { local.read(win_off + span_off + lead, &mut buf) };
                        out.push(buf);
                    }
                }
            }
            Some(out)
        } else {
            None
        };
        self.alloc.free(win_off, total_span);
        out
    }
}

/// Slices `want` blocks starting `skip` blocks into the extent map into
/// MDTS-sized NVMe commands targeting a contiguous window span at
/// `cursor`, appended to `cmds`. False when the extents don't cover the
/// span (hole or truncated map) — the caller falls back to RPC.
fn slice_cmds(
    extents: &[Extent],
    mut skip: u64,
    mut want: u64,
    window: &Arc<Window>,
    mut cursor: usize,
    is_read: bool,
    cmds: &mut Vec<NvmeCommand>,
) -> bool {
    for e in extents {
        let elen = e.len as u64;
        if skip >= elen {
            skip -= elen;
            continue;
        }
        let mut lba = e.start + skip;
        let mut avail = elen - skip;
        skip = 0;
        while avail > 0 && want > 0 {
            let n = avail.min(want).min(MDTS_BLOCKS as u64);
            let ptr = DmaPtr::new(Arc::clone(window), cursor);
            cmds.push(if is_read {
                NvmeCommand::Read {
                    lba,
                    nblocks: n as u32,
                    dst: ptr,
                }
            } else {
                NvmeCommand::Write {
                    lba,
                    nblocks: n as u32,
                    src: ptr,
                }
            });
            lba += n;
            avail -= n;
            want -= n;
            cursor += (n as usize) * BLOCK_SIZE;
        }
        if want == 0 {
            break;
        }
    }
    want == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manager::LeaseManager;
    use solros_pcie::PcieCounters;

    fn rig() -> (
        Arc<NvmeDevice>,
        Arc<Window>,
        Arc<WindowAlloc>,
        Arc<LeaseManager>,
    ) {
        let dev = NvmeDevice::new(1024);
        let win = Window::new(1 << 20, Side::Coproc, Arc::new(PcieCounters::new()));
        let alloc = Arc::new(WindowAlloc::new(1 << 20));
        let mgr = Arc::new(LeaseManager::new());
        (dev, win, alloc, mgr)
    }

    fn fill_blocks(dev: &Arc<NvmeDevice>, win: &Arc<Window>, lba: u64, data: &[u8]) {
        assert!(data.len().is_multiple_of(BLOCK_SIZE));
        let h = win.map(Side::Host);
        unsafe { h.write(0, data) };
        let n = (data.len() / BLOCK_SIZE) as u32;
        let r = dev.submit_vectored(&[NvmeCommand::Write {
            lba,
            nblocks: n,
            src: DmaPtr::new(Arc::clone(win), 0),
        }]);
        assert!(r.iter().all(|x| x.is_ok()));
    }

    #[test]
    fn leased_read_round_trips_without_rpc() {
        let (dev, win, alloc, mgr) = rig();
        let data: Vec<u8> = (0..2 * BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
        fill_blocks(&dev, &win, 100, &data);
        let st = mgr
            .grant(
                0,
                7,
                0,
                (2 * BLOCK_SIZE) as u64,
                LeaseKind::Read,
                vec![Extent { start: 100, len: 2 }],
                (2 * BLOCK_SIZE) as u64,
                None,
            )
            .expect("grant");
        let table = LeaseTable::new(dev, win, alloc, Arc::clone(&mgr));
        assert!(table.adopt(st.id(), 7, st.generation()));
        // Unaligned interior read.
        let mut buf = vec![0u8; 1000];
        match table.read_at(7, 123, &mut buf) {
            LeaseIo::Done(n) => {
                assert_eq!(n, 1000);
                assert_eq!(&buf[..], &data[123..1123]);
            }
            other => panic!("expected Done, got {other:?}"),
        }
        // EOF clamp.
        let mut buf = vec![0u8; 4096];
        match table.read_at(7, (2 * BLOCK_SIZE - 10) as u64, &mut buf) {
            LeaseIo::Done(n) => assert_eq!(n, 10),
            other => panic!("expected clamped Done, got {other:?}"),
        }
        assert_eq!(table.stats().leased_reads.load(Ordering::Relaxed), 2);
        assert_eq!(
            table.stats().stale_generation_reads.load(Ordering::Relaxed),
            0
        );
    }

    #[test]
    fn leased_write_then_read_sees_new_bytes() {
        let (dev, win, alloc, mgr) = rig();
        let st = mgr
            .grant(
                0,
                9,
                0,
                (4 * BLOCK_SIZE) as u64,
                LeaseKind::Write,
                vec![Extent { start: 200, len: 4 }],
                0,
                None,
            )
            .expect("grant");
        let table = LeaseTable::new(dev, win, alloc, Arc::clone(&mgr));
        assert!(table.adopt(st.id(), 9, st.generation()));
        let data: Vec<u8> = (0..2 * BLOCK_SIZE).map(|i| (i % 199) as u8).collect();
        match table.write_at(9, BLOCK_SIZE as u64, &data) {
            LeaseIo::Done(n) => assert_eq!(n, data.len()),
            other => panic!("expected Done, got {other:?}"),
        }
        assert_eq!(st.written_end(), (3 * BLOCK_SIZE) as u64);
        let mut buf = vec![0u8; data.len()];
        match table.read_at(9, BLOCK_SIZE as u64, &mut buf) {
            LeaseIo::Done(n) => {
                assert_eq!(n, data.len());
                assert_eq!(buf, data);
            }
            other => panic!("expected Done, got {other:?}"),
        }
    }

    #[test]
    fn recalled_lease_is_flushed_acked_and_dropped() {
        let (dev, win, alloc, mgr) = rig();
        let st = mgr
            .grant(
                0,
                5,
                0,
                (BLOCK_SIZE) as u64,
                LeaseKind::Write,
                vec![Extent { start: 50, len: 1 }],
                0,
                None,
            )
            .expect("grant");
        let table = LeaseTable::new(dev, win, alloc, Arc::clone(&mgr));
        assert!(table.adopt(st.id(), 5, st.generation()));
        let data = vec![7u8; BLOCK_SIZE];
        assert!(matches!(table.write_at(5, 0, &data), LeaseIo::Done(_)));
        mgr.recall_range(5, 0, u64::MAX, true);
        let mut buf = vec![0u8; 16];
        match table.read_at(5, 0, &mut buf) {
            LeaseIo::RecallAck { id, written_end } => {
                assert_eq!(id, st.id());
                assert_eq!(written_end, BLOCK_SIZE as u64);
                assert!(mgr.settle_wire(id, written_end, false).is_some());
            }
            other => panic!("expected RecallAck, got {other:?}"),
        }
        assert!(!table.has(5), "lease dropped from the table");
        assert!(mgr.ledger().clean());
        assert_eq!(table.stats().recall_acks.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn stale_generation_is_caught_before_data_moves() {
        let (dev, win, alloc, mgr) = rig();
        let st = mgr
            .grant(
                0,
                3,
                0,
                BLOCK_SIZE as u64,
                LeaseKind::Read,
                vec![Extent { start: 10, len: 1 }],
                BLOCK_SIZE as u64,
                None,
            )
            .expect("grant");
        let table = LeaseTable::new(dev, win, alloc, Arc::clone(&mgr));
        assert!(table.adopt(st.id(), 3, st.generation()));
        mgr.bump_generation(3);
        let mut buf = vec![0u8; 16];
        match table.read_at(3, 0, &mut buf) {
            LeaseIo::RecallAck { id, .. } => {
                assert_eq!(id, st.id());
            }
            other => panic!("expected RecallAck, got {other:?}"),
        }
        assert_eq!(table.stats().stale_rejected.load(Ordering::Relaxed), 1);
        assert_eq!(
            table.stats().stale_generation_reads.load(Ordering::Relaxed),
            0,
            "stale mapping caught before serving"
        );
    }

    #[test]
    fn partial_range_lease_falls_back_outside_its_range() {
        // Lease only the first 2 blocks of a logically longer file: a
        // read past the lease must fall back to RPC, never report EOF
        // — the file continues where the lease can't see.
        let (dev, win, alloc, mgr) = rig();
        let st = mgr
            .grant(
                0,
                13,
                0,
                (2 * BLOCK_SIZE) as u64,
                LeaseKind::Read,
                vec![Extent { start: 400, len: 2 }],
                (2 * BLOCK_SIZE) as u64,
                None,
            )
            .expect("grant");
        let table = LeaseTable::new(dev, win, alloc, Arc::clone(&mgr));
        assert!(table.adopt(st.id(), 13, st.generation()));
        let mut buf = vec![0u8; 512];
        assert!(matches!(
            table.read_at(13, (4 * BLOCK_SIZE) as u64, &mut buf),
            LeaseIo::Fallback
        ));
        // Exactly at the range end is still outside the lease.
        assert!(matches!(
            table.read_at(13, (2 * BLOCK_SIZE) as u64, &mut buf),
            LeaseIo::Fallback
        ));
        // One out-of-range request falls the whole batch back.
        assert!(matches!(
            table.read_batch(13, &[(0, 64), ((4 * BLOCK_SIZE) as u64, 64)]),
            BatchIo::Fallback
        ));
        assert_eq!(table.stats().leased_reads.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn batched_reads_use_one_submission() {
        let (dev, win, alloc, mgr) = rig();
        let data: Vec<u8> = (0..4 * BLOCK_SIZE).map(|i| (i % 241) as u8).collect();
        fill_blocks(&dev, &win, 300, &data);
        // Lease one block past the data so the EOF inside the range is
        // provably real (a request at the range end itself must fall
        // back — the file might continue past the lease).
        let st = mgr
            .grant(
                0,
                11,
                0,
                (5 * BLOCK_SIZE) as u64,
                LeaseKind::Read,
                vec![Extent { start: 300, len: 5 }],
                (4 * BLOCK_SIZE) as u64,
                None,
            )
            .expect("grant");
        let table = LeaseTable::new(Arc::clone(&dev), win, alloc, Arc::clone(&mgr));
        assert!(table.adopt(st.id(), 11, st.generation()));
        let doorbells_before = dev.stats().doorbells;
        let reqs = vec![
            (0u64, 100usize),
            (5000, 2000),
            ((4 * BLOCK_SIZE) as u64, 64),
        ];
        match table.read_batch(11, &reqs) {
            BatchIo::Done(bufs) => {
                assert_eq!(bufs.len(), 3);
                assert_eq!(&bufs[0][..], &data[0..100]);
                assert_eq!(&bufs[1][..], &data[5000..7000]);
                assert!(bufs[2].is_empty(), "read at EOF");
            }
            other => panic!("expected Done, got {other:?}"),
        }
        assert_eq!(
            dev.stats().doorbells - doorbells_before,
            1,
            "whole batch rings one doorbell"
        );
    }
}
