//! The data-plane file-system stub and application API (§4.3.1).
//!
//! The stub transforms each file-system call into exactly one RPC (the
//! paper's one-to-one mapping) and manages the zero-copy I/O buffers: it
//! carves them out of the co-processor's exported window, puts their
//! addresses into `Tread`/`Twrite`, and — because the buffers live in
//! *local* co-processor memory — the final copy between the window buffer
//! and the caller's slice is an ordinary local `memcpy`.
//!
//! Besides the synchronous API, the stub exposes the submission half of
//! the RPC pipeline: [`CoprocFs::submit_read_at`] enqueues a read and
//! returns a pending handle, and the [`Batch`] builder keeps N operations
//! in flight at once — the queue depth the host proxy converts into
//! coalesced NVMe doorbells (Fig 11 of the paper).

use std::collections::VecDeque;
use std::sync::Arc;

use solros_lease::{BatchIo, LeaseIo, LeaseTable};
use solros_machine::WindowAlloc;
use solros_nvme::BLOCK_SIZE;
use solros_pcie::window::{Window, WindowHandle};
use solros_pcie::Side;
use solros_proto::codec::{stamp_flags, FLAG_BARRIER};
use solros_proto::fs_msg::{FsRequest, FsResponse};
use solros_proto::rpc_error::RpcErr;
use solros_ringbuf::Wave;

use crate::transport::{RpcClient, Token};

/// Size of a `Read`/`Write` request frame: header plus four `u64`s.
const REQUEST_FRAME_BYTES: usize = solros_proto::codec::HEADER_LEN + 32;

/// Pads a staged write out to its block boundary.
static ZERO_PAD: [u8; BLOCK_SIZE] = [0; BLOCK_SIZE];

/// Decodes a reply where it lies; an undecodable one is an I/O error.
fn decode_reply(reply: &[u8]) -> FsResponse {
    match FsResponse::decode(reply) {
        Ok((_, resp)) => resp,
        Err(_) => FsResponse::Error { err: RpcErr::Io },
    }
}

/// A file handle on the data plane (an inode number under the hood).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileHandle(pub u64);

/// File metadata as seen from the co-processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStat {
    /// Inode number.
    pub ino: u64,
    /// Directory flag.
    pub is_dir: bool,
    /// Size in bytes.
    pub size: u64,
}

/// The co-processor file-system API.
pub struct CoprocFs {
    client: Arc<RpcClient>,
    window: Arc<Window>,
    alloc: Arc<WindowAlloc>,
    /// The extent-lease fast path: when a valid lease covers a range,
    /// `read_at`/`write_at` go straight to the NVMe queues — zero RPCs.
    lease: Option<Arc<LeaseTable>>,
}

impl CoprocFs {
    /// Builds the stub over an RPC client and the co-processor's exported
    /// window + allocator.
    pub fn new(client: Arc<RpcClient>, window: Arc<Window>, alloc: Arc<WindowAlloc>) -> Self {
        Self {
            client,
            window,
            alloc,
            lease: None,
        }
    }

    /// Installs the stub-side lease table (boot path).
    pub fn set_lease_table(&mut self, table: Arc<LeaseTable>) {
        self.lease = Some(table);
    }

    /// The stub-side lease table, when the boot path installed one.
    pub fn lease_table(&self) -> Option<&Arc<LeaseTable>> {
        self.lease.as_ref()
    }

    /// Acquires an extent lease over `[offset, offset + len)` of `f` so
    /// subsequent `read_at`/`write_at` in the range bypass the proxy
    /// entirely. Returns `Ok(true)` when the lease is live, `Ok(false)`
    /// when the proxy declined (bad placement, conflicting holder) or no
    /// lease table is installed — the caller keeps working through the
    /// RPC path either way.
    pub fn lease_range(
        &self,
        f: FileHandle,
        offset: u64,
        len: u64,
        write: bool,
    ) -> Result<bool, RpcErr> {
        let Some(table) = &self.lease else {
            return Ok(false);
        };
        // One lease per inode on the stub: give back the old mapping
        // before asking for a new one (self-recall would stall 5 ms).
        if let Some((id, written_end)) = table.take_release(f.0) {
            self.call(FsRequest::LeaseRelease { id, written_end });
        }
        match self.call(FsRequest::LeaseAcquire {
            ino: f.0,
            offset,
            len,
            write,
        }) {
            FsResponse::LeaseGrant { id, generation, .. } => Ok(table.adopt(id, f.0, generation)),
            FsResponse::Error {
                err: RpcErr::WouldBlock | RpcErr::Overloaded,
            } => Ok(false),
            FsResponse::Error { err } => Err(err),
            _ => Err(RpcErr::Io),
        }
    }

    /// Voluntarily releases the lease on `f`, reporting the write
    /// high-water mark so the proxy makes leased writes visible.
    pub fn lease_release(&self, f: FileHandle) -> Result<(), RpcErr> {
        let Some(table) = &self.lease else {
            return Ok(());
        };
        if let Some((id, written_end)) = table.take_release(f.0) {
            match self.call(FsRequest::LeaseRelease { id, written_end }) {
                FsResponse::Ok => Ok(()),
                FsResponse::Error { err } => Err(err),
                _ => Err(RpcErr::Io),
            }
        } else {
            Ok(())
        }
    }

    /// Acknowledges a recall the lease table detected, giving the lease
    /// back over the wire before the conflicting operation proceeds.
    fn ack_recall(&self, id: u64, written_end: u64) {
        self.call(FsRequest::LeaseRecallAck { id, written_end });
    }

    fn local(&self) -> WindowHandle {
        self.window.map(Side::Coproc)
    }

    fn call(&self, req: FsRequest) -> FsResponse {
        self.client
            .call_with(|tag, frame| req.encode_into(tag, frame), decode_reply)
    }

    /// Carves a read's window buffer and builds the request that names
    /// it. Returns the request, the buffer's offset and its length.
    fn stage_read(
        &self,
        f: FileHandle,
        offset: u64,
        len: usize,
    ) -> Result<(FsRequest, usize, usize), RpcErr> {
        if len == 0 {
            return Err(RpcErr::Invalid);
        }
        // Round up so a block-granular P2P transfer cannot overrun.
        let alloc_len = len.div_ceil(BLOCK_SIZE) * BLOCK_SIZE + BLOCK_SIZE;
        let off = self.alloc.alloc(alloc_len).ok_or(RpcErr::NoSpace)?;
        let req = FsRequest::Read {
            ino: f.0,
            offset,
            count: len as u64,
            buf_addr: off as u64,
        };
        Ok((req, off, alloc_len))
    }

    /// Stages `data` for a block-granular P2P write in a window buffer —
    /// the payload, then zeroes up to the block boundary so the transfer
    /// lands zeroes beyond it (both local copies) — and builds the
    /// request that names it. Returns as [`CoprocFs::stage_read`].
    fn stage_write(
        &self,
        f: FileHandle,
        offset: u64,
        data: &[u8],
    ) -> Result<(FsRequest, usize, usize), RpcErr> {
        if data.is_empty() {
            return Err(RpcErr::Invalid);
        }
        let alloc_len = data.len().div_ceil(BLOCK_SIZE) * BLOCK_SIZE;
        let off = self.alloc.alloc(alloc_len).ok_or(RpcErr::NoSpace)?;
        // SAFETY: exclusively allocated range.
        unsafe {
            self.local()
                .write(off + data.len(), &ZERO_PAD[..alloc_len - data.len()]);
            self.local().write(off, data);
        }
        let req = FsRequest::Write {
            ino: f.0,
            offset,
            count: data.len() as u64,
            buf_addr: off as u64,
        };
        Ok((req, off, alloc_len))
    }

    /// Enqueues a staged request; a refused one gives its window buffer
    /// back (nothing was enqueued, so the range is ours again).
    fn submit_staged(&self, req: FsRequest, off: usize, alloc_len: usize) -> Result<Token, RpcErr> {
        self.client
            .submit_encoded(false, |tag, frame| req.encode_into(tag, frame))
            .inspect_err(|_| self.alloc.free(off, alloc_len))
    }

    /// Creates a file.
    pub fn create(&self, path: &str) -> Result<FileHandle, RpcErr> {
        match self.call(FsRequest::Create { path: path.into() }) {
            FsResponse::Create { ino } => Ok(FileHandle(ino)),
            FsResponse::Error { err } => Err(err),
            _ => Err(RpcErr::Io),
        }
    }

    /// Opens a file; `create`/`truncate`/`buffered` mirror the proxy
    /// flags (`buffered` is the paper's `O_BUFFER`).
    pub fn open(
        &self,
        path: &str,
        create: bool,
        truncate: bool,
        buffered: bool,
    ) -> Result<(FileHandle, u64), RpcErr> {
        match self.call(FsRequest::Open {
            path: path.into(),
            create,
            truncate,
            buffered,
        }) {
            FsResponse::Open { ino, size } => Ok((FileHandle(ino), size)),
            FsResponse::Error { err } => Err(err),
            _ => Err(RpcErr::Io),
        }
    }

    /// Reads into `buf` at `offset`; returns bytes read (short at EOF).
    ///
    /// When a valid lease covers the range the read is serviced directly
    /// against the NVMe queues with zero RPCs; a recalled or stale lease
    /// is acked and the read falls back to the proxy path.
    pub fn read_at(&self, f: FileHandle, offset: u64, buf: &mut [u8]) -> Result<usize, RpcErr> {
        if buf.is_empty() {
            return Ok(0);
        }
        if let Some(table) = &self.lease {
            match table.read_at(f.0, offset, buf) {
                LeaseIo::Done(n) => return Ok(n),
                LeaseIo::RecallAck { id, written_end } => self.ack_recall(id, written_end),
                LeaseIo::Fallback => {}
            }
        }
        let (req, off, alloc_len) = self.stage_read(f, offset, buf.len())?;
        let result = match self.call(req) {
            FsResponse::Read { count } => {
                let n = (count as usize).min(buf.len());
                // Local copy out of the window buffer (free on real HW).
                // SAFETY: the window range was exclusively allocated to
                // this call and the proxy has completed its transfer.
                unsafe { self.local().read(off, &mut buf[..n]) };
                Ok(n)
            }
            FsResponse::Error { err } => Err(err),
            _ => Err(RpcErr::Io),
        };
        self.alloc.free(off, alloc_len);
        result
    }

    /// Convenience: read `len` bytes at `offset` into a vector.
    pub fn read_to_vec(&self, f: FileHandle, offset: u64, len: usize) -> Result<Vec<u8>, RpcErr> {
        let mut v = vec![0u8; len];
        let n = self.read_at(f, offset, &mut v)?;
        v.truncate(n);
        Ok(v)
    }

    /// Reads several `(offset, len)` ranges of one file at once.
    ///
    /// Under a valid lease the whole batch becomes a single vectored
    /// NVMe submission — one doorbell, one interrupt, zero RPCs;
    /// otherwise the ranges go through the RPC pipeline as one in-flight
    /// [`Batch`]. Results are in request order, short at EOF.
    pub fn read_at_batch(
        &self,
        f: FileHandle,
        reqs: &[(u64, usize)],
    ) -> Result<Vec<Vec<u8>>, RpcErr> {
        if reqs.is_empty() {
            return Ok(Vec::new());
        }
        if let Some(table) = &self.lease {
            match table.read_batch(f.0, reqs) {
                BatchIo::Done(out) => return Ok(out),
                BatchIo::RecallAck { id, written_end } => self.ack_recall(id, written_end),
                BatchIo::Fallback => {}
            }
        }
        let mut b = self.batch();
        for &(offset, len) in reqs {
            b = b.read(f, offset, len);
        }
        b.run()
            .into_iter()
            .map(|r| match r {
                BatchResult::Read(r) => r,
                BatchResult::Write(_) => Err(RpcErr::Io),
            })
            .collect()
    }

    /// Writes `data` at `offset`; returns bytes written.
    ///
    /// A valid *write* lease covering the range places the bytes into
    /// the preallocated extents directly — zero RPCs; the proxy learns
    /// the new size when the lease settles.
    pub fn write_at(&self, f: FileHandle, offset: u64, data: &[u8]) -> Result<usize, RpcErr> {
        if data.is_empty() {
            return Ok(0);
        }
        if let Some(table) = &self.lease {
            match table.write_at(f.0, offset, data) {
                LeaseIo::Done(n) => return Ok(n),
                LeaseIo::RecallAck { id, written_end } => self.ack_recall(id, written_end),
                LeaseIo::Fallback => {}
            }
        }
        let (req, off, alloc_len) = self.stage_write(f, offset, data)?;
        let result = match self.call(req) {
            FsResponse::Write { count } => Ok(count as usize),
            FsResponse::Error { err } => Err(err),
            _ => Err(RpcErr::Io),
        };
        self.alloc.free(off, alloc_len);
        result
    }

    /// Stats a path.
    pub fn stat(&self, path: &str) -> Result<FileStat, RpcErr> {
        match self.call(FsRequest::Stat { path: path.into() }) {
            FsResponse::Stat { ino, is_dir, size } => Ok(FileStat { ino, is_dir, size }),
            FsResponse::Error { err } => Err(err),
            _ => Err(RpcErr::Io),
        }
    }

    /// Stats an open handle.
    pub fn fstat(&self, f: FileHandle) -> Result<FileStat, RpcErr> {
        match self.call(FsRequest::Fstat { ino: f.0 }) {
            FsResponse::Stat { ino, is_dir, size } => Ok(FileStat { ino, is_dir, size }),
            FsResponse::Error { err } => Err(err),
            _ => Err(RpcErr::Io),
        }
    }

    /// Removes a file or empty directory.
    pub fn unlink(&self, path: &str) -> Result<(), RpcErr> {
        match self.call(FsRequest::Unlink { path: path.into() }) {
            FsResponse::Ok => Ok(()),
            FsResponse::Error { err } => Err(err),
            _ => Err(RpcErr::Io),
        }
    }

    /// Creates a directory.
    pub fn mkdir(&self, path: &str) -> Result<(), RpcErr> {
        match self.call(FsRequest::Mkdir { path: path.into() }) {
            FsResponse::Mkdir { .. } => Ok(()),
            FsResponse::Error { err } => Err(err),
            _ => Err(RpcErr::Io),
        }
    }

    /// Lists a directory.
    pub fn readdir(&self, path: &str) -> Result<Vec<String>, RpcErr> {
        match self.call(FsRequest::Readdir { path: path.into() }) {
            FsResponse::Readdir { names } => Ok(names),
            FsResponse::Error { err } => Err(err),
            _ => Err(RpcErr::Io),
        }
    }

    /// Renames.
    pub fn rename(&self, from: &str, to: &str) -> Result<(), RpcErr> {
        match self.call(FsRequest::Rename {
            from: from.into(),
            to: to.into(),
        }) {
            FsResponse::Ok => Ok(()),
            FsResponse::Error { err } => Err(err),
            _ => Err(RpcErr::Io),
        }
    }

    /// Truncates to `size`.
    pub fn truncate(&self, f: FileHandle, size: u64) -> Result<(), RpcErr> {
        match self.call(FsRequest::Truncate { ino: f.0, size }) {
            FsResponse::Ok => Ok(()),
            FsResponse::Error { err } => Err(err),
            _ => Err(RpcErr::Io),
        }
    }

    /// Flushes metadata.
    pub fn fsync(&self, f: FileHandle) -> Result<(), RpcErr> {
        match self.call(FsRequest::Fsync { ino: f.0 }) {
            FsResponse::Ok => Ok(()),
            FsResponse::Error { err } => Err(err),
            _ => Err(RpcErr::Io),
        }
    }

    /// The RPC client under this stub (for draining completions or tenant
    /// configuration).
    pub fn client(&self) -> &Arc<RpcClient> {
        &self.client
    }

    /// A fresh [`Batch`] builder over this stub.
    pub fn batch(&self) -> Batch<'_> {
        Batch {
            fs: self,
            ops: Vec::new(),
            barrier_next: false,
        }
    }

    /// Enqueues a read of `len` bytes at `offset` without waiting.
    ///
    /// The returned [`PendingRead`] owns a window buffer for the transfer;
    /// redeem it with [`PendingRead::wait`] or [`PendingRead::wait_into`].
    /// Fails with [`RpcErr::WouldBlock`] / [`RpcErr::Overloaded`] when the
    /// request ring or the flow-control window is full — the caller should
    /// harvest a completion and retry (the [`Batch`] builder does this
    /// automatically).
    pub fn submit_read_at(
        &self,
        f: FileHandle,
        offset: u64,
        len: usize,
    ) -> Result<PendingRead, RpcErr> {
        let (req, off, alloc_len) = self.stage_read(f, offset, len)?;
        Ok(PendingRead {
            token: self.submit_staged(req, off, alloc_len)?,
            off,
            alloc_len,
            want: len,
        })
    }
}

/// An in-flight read submitted with [`CoprocFs::submit_read_at`].
///
/// Owns the window buffer the proxy transfers into. Redeeming the handle
/// frees the buffer; dropping it unredeemed abandons the RPC and leaks
/// the buffer intentionally — the proxy may still be DMA-ing into it, so
/// returning the range to the allocator would hand a racing transfer to
/// the next caller.
#[must_use = "a submitted read completes only when waited on"]
pub struct PendingRead {
    token: Token,
    off: usize,
    alloc_len: usize,
    want: usize,
}

impl PendingRead {
    /// The wire tag of this submission.
    pub fn tag(&self) -> u32 {
        self.token.tag()
    }

    /// Blocks until the read completes, then lets `take` move the `n`
    /// bytes read (short at EOF) out of the window buffer at the given
    /// offset before the buffer goes back to the allocator.
    fn finish<R>(self, fs: &CoprocFs, take: impl FnOnce(usize, usize) -> R) -> Result<R, RpcErr> {
        let result = match fs.client.wait_with(self.token, decode_reply) {
            FsResponse::Read { count } => Ok(take(self.off, (count as usize).min(self.want))),
            FsResponse::Error { err } => Err(err),
            _ => Err(RpcErr::Io),
        };
        fs.alloc.free(self.off, self.alloc_len);
        result
    }

    /// Blocks until the read completes and copies the payload into `buf`
    /// (which should be at least the submitted length); returns bytes
    /// read (short at EOF).
    pub fn wait_into(self, fs: &CoprocFs, buf: &mut [u8]) -> Result<usize, RpcErr> {
        self.finish(fs, |off, n| {
            let n = n.min(buf.len());
            // SAFETY: the proxy's transfer into this exclusively
            // allocated range completed before the reply was sent.
            unsafe { fs.local().read(off, &mut buf[..n]) };
            n
        })
    }

    /// Blocks until the read completes and returns the payload.
    pub fn wait(self, fs: &CoprocFs) -> Result<Vec<u8>, RpcErr> {
        self.finish(fs, |off, n| {
            let mut v = vec![0u8; n];
            // SAFETY: as in `wait_into`.
            unsafe { fs.local().read(off, &mut v) };
            v
        })
    }
}

/// An in-flight write of a [`Batch`].
///
/// Owns the window buffer holding the staged payload until completion;
/// the same drop semantics as [`PendingRead`] apply.
#[must_use = "a submitted write completes only when waited on"]
pub struct PendingWrite {
    token: Token,
    off: usize,
    alloc_len: usize,
}

impl PendingWrite {
    /// The wire tag of this submission.
    pub fn tag(&self) -> u32 {
        self.token.tag()
    }

    /// Blocks until the write completes; returns bytes written.
    pub fn wait(self, fs: &CoprocFs) -> Result<usize, RpcErr> {
        let result = match fs.client.wait_with(self.token, decode_reply) {
            FsResponse::Write { count } => Ok(count as usize),
            FsResponse::Error { err } => Err(err),
            _ => Err(RpcErr::Io),
        };
        fs.alloc.free(self.off, self.alloc_len);
        result
    }
}

enum BatchOp {
    Read {
        f: FileHandle,
        offset: u64,
        len: usize,
    },
    Write {
        f: FileHandle,
        offset: u64,
        data: Vec<u8>,
    },
}

enum PendingOp {
    Read(PendingRead),
    Write(PendingWrite),
}

impl PendingOp {
    fn wait(self, fs: &CoprocFs) -> BatchResult {
        match self {
            PendingOp::Read(p) => BatchResult::Read(p.wait(fs)),
            PendingOp::Write(p) => BatchResult::Write(p.wait(fs)),
        }
    }
}

/// The outcome of one [`Batch`] operation, in submission order.
#[derive(Debug)]
pub enum BatchResult {
    /// A read's payload (short at EOF) or error.
    Read(Result<Vec<u8>, RpcErr>),
    /// A write's byte count or error.
    Write(Result<usize, RpcErr>),
}

impl BatchResult {
    /// The read payload; panics on a write result or an error.
    pub fn into_read(self) -> Vec<u8> {
        match self {
            BatchResult::Read(r) => r.expect("batched read failed"),
            BatchResult::Write(_) => panic!("batch slot holds a write result"),
        }
    }

    /// The written byte count; panics on a read result or an error.
    pub fn into_write(self) -> usize {
        match self {
            BatchResult::Write(r) => r.expect("batched write failed"),
            BatchResult::Read(_) => panic!("batch slot holds a read result"),
        }
    }
}

/// A builder that submits N file operations and waits for all of them,
/// keeping the whole set in flight so the proxy sees real queue depth.
/// The set goes out as one wave — one request-ring publish — so the proxy
/// sees all of it or none: how it coalesces the wave does not depend on
/// how the two threads interleave.
///
/// Operations between barriers are independent and may complete in any
/// order; [`Batch::barrier`] marks the *next* operation so the proxy
/// finishes everything already drained before starting it. When the ring,
/// credit window, or buffer space runs out mid-wave, the builder submits
/// what fits, harvests its oldest in-flight operation and goes on with
/// the rest — depth degrades gracefully instead of deadlocking.
pub struct Batch<'a> {
    fs: &'a CoprocFs,
    ops: Vec<(BatchOp, bool)>,
    barrier_next: bool,
}

impl Batch<'_> {
    /// Queues a read of `len` bytes at `offset`.
    pub fn read(mut self, f: FileHandle, offset: u64, len: usize) -> Self {
        let barrier = std::mem::take(&mut self.barrier_next);
        self.ops.push((BatchOp::Read { f, offset, len }, barrier));
        self
    }

    /// Queues a write of `data` at `offset`.
    pub fn write(mut self, f: FileHandle, offset: u64, data: &[u8]) -> Self {
        let barrier = std::mem::take(&mut self.barrier_next);
        self.ops.push((
            BatchOp::Write {
                f,
                offset,
                data: data.to_vec(),
            },
            barrier,
        ));
        self
    }

    /// Marks the next queued operation as a barrier: the proxy completes
    /// every earlier operation it has drained before executing it.
    pub fn barrier(mut self) -> Self {
        self.barrier_next = true;
        self
    }

    /// Number of queued operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing has been queued.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Submits every queued operation and waits for all completions.
    /// Results are in queue order even though completions may arrive out
    /// of order.
    pub fn run(mut self) -> Vec<BatchResult> {
        let fs = self.fs;
        let n = self.ops.len();
        let mut results: Vec<Option<BatchResult>> = Vec::new();
        results.resize_with(n, || None);
        let mut inflight: VecDeque<(usize, PendingOp)> = VecDeque::with_capacity(n);
        // The wave being submitted: frames, their tags, their buffers.
        let mut wave = Wave::with_capacity(n, n * REQUEST_FRAME_BYTES);
        let mut tags: Vec<u32> = Vec::with_capacity(n);
        let mut buffers: Vec<(usize, usize)> = Vec::with_capacity(n);

        let mut next = 0;
        while next < n {
            // Stage every remaining operation the window has room for ...
            wave.clear();
            tags.clear();
            buffers.clear();
            let mut refused = None;
            for (op, barrier) in &self.ops[next..] {
                let staged = match op {
                    BatchOp::Read { f, offset, len } => fs.stage_read(*f, *offset, *len),
                    BatchOp::Write { f, offset, data } => fs.stage_write(*f, *offset, data),
                };
                let (req, off, alloc_len) = match staged {
                    Ok(staged) => staged,
                    Err(e) => {
                        refused = Some(e);
                        break;
                    }
                };
                let tag = fs.client.tag();
                wave.push_with(|frame| req.encode_into(tag, frame));
                if *barrier {
                    stamp_flags(wave.frame_mut(tags.len()), FLAG_BARRIER);
                }
                tags.push(tag);
                buffers.push((off, alloc_len));
            }
            // ... and submit them with one publish.
            let accepted = match refused {
                Some(e) if tags.is_empty() => Err(e),
                _ => fs.client.submit_wave(&tags, &mut wave),
            };
            // What the ring or the credit window did not take is staged
            // again on the next round; its buffers go back meanwhile.
            let taken = accepted.as_ref().map_or(0, Vec::len);
            for &(off, alloc_len) in &buffers[taken..] {
                fs.alloc.free(off, alloc_len);
            }
            match accepted {
                Ok(tokens) => {
                    for (token, &(off, alloc_len)) in tokens.into_iter().zip(&buffers) {
                        let op = match &mut self.ops[next].0 {
                            BatchOp::Read { len, .. } => PendingOp::Read(PendingRead {
                                token,
                                off,
                                alloc_len,
                                want: *len,
                            }),
                            BatchOp::Write { data, .. } => {
                                // The payload is in the window now: give
                                // its memory back before the reads' results
                                // are allocated, not when the batch ends.
                                drop(std::mem::take(data));
                                PendingOp::Write(PendingWrite {
                                    token,
                                    off,
                                    alloc_len,
                                })
                            }
                        };
                        inflight.push_back((next, op));
                        next += 1;
                    }
                }
                Err(RpcErr::WouldBlock | RpcErr::Overloaded | RpcErr::NoSpace)
                    if !inflight.is_empty() =>
                {
                    // Free ring space / credits / window buffers by
                    // completing the oldest in-flight operation.
                    let (idx, op) = inflight.pop_front().expect("checked non-empty");
                    results[idx] = Some(op.wait(fs));
                }
                Err(e) => {
                    results[next] = Some(match self.ops[next].0 {
                        BatchOp::Read { .. } => BatchResult::Read(Err(e)),
                        BatchOp::Write { .. } => BatchResult::Write(Err(e)),
                    });
                    next += 1;
                }
            }
        }
        for (idx, op) in inflight {
            results[idx] = Some(op.wait(fs));
        }
        results
            .into_iter()
            .map(|r| r.expect("every batch slot is filled"))
            .collect()
    }
}
