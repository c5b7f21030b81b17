//! The control-plane file-system proxy (§4.3.2, §5).
//!
//! One proxy server runs per co-processor on a host thread, driven by the
//! shared [`crate::proxy_engine`]: the engine pulls file-system RPCs from
//! the request ring, decodes each frame once, runs the QoS gate, and
//! serves every call start to finish on that thread. A call that meets a
//! conflicting extent lease starts the recall and is handed back to the
//! engine, which parks it until the lease settles ([`OpHandler::exec`]);
//! this module supplies the FS semantics through the [`OpHandler`]
//! trait. The engine owns the proxy and is the only thread that touches
//! it, so its side tables — the `O_BUFFER` set, the readahead cursors,
//! the coalescing wave — are plain fields. For data transfers it chooses
//! between:
//!
//! * **Peer-to-peer**: translate the file range to disk extents
//!   (`fiemap`), translate the co-processor buffer address to its
//!   system-mapped PCIe window, and submit *all* NVMe commands of the
//!   system call as one vectored batch — a single doorbell and a single
//!   interrupt (the §5 driver optimization).
//! * **Buffered**: go through the host's shared page cache, moving each
//!   page once — cache page to co-processor window or back — with host
//!   DMA. Chosen on a cache hit, when the P2P path would cross a NUMA
//!   boundary (Figure 1a), when the file was opened with `O_BUFFER`, or
//!   when the request is not block-aligned.
//!
//! Since the data plane pipelines submissions, the engine drains the
//! request ring in *waves*: every P2P-eligible read is staged (via
//! [`OpHandler::stage`]) into one combined vectored submission — a single
//! doorbell and a single interrupt across ops *from different calls*, the
//! cross-call generalisation of the §5 batching — while the remaining ops
//! run where they were admitted, and a call parked on a lease completes
//! out of order (the stub's tag table reorders). A frame flagged
//! `FLAG_BARRIER` runs after the wave and every parked call before it.

use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use solros_faults::EngineFaults;
use solros_fs::{CacheDirReplica, Extent, FileSystem, FsError};
use solros_lease::{LeaseError, LeaseKind, LeaseManager, SettledLease};
use solros_nvme::{DmaPtr, NvmeCommand, NvmeError, BLOCK_SIZE};
use solros_pcie::cost::CostModel;
use solros_pcie::window::Window;
use solros_pcie::Side;
use solros_proto::codec::stamp_credit;
use solros_proto::fs_msg::{FsRequest, FsResponse};
use solros_proto::rpc_error::RpcErr;
use solros_qos::{HostGate, QosClass, QosStats, TenantLedger};
use solros_ringbuf::{Consumer, Doorbell, Producer};
use solros_simkit::{IntMap, IntSet};

use crate::proxy_engine::{
    Access, EngineLane, ExternalHolds, GateJob, OpHandler, ProxyEngine, ProxyStats,
};
use crate::retry::RetryPolicy;

pub use crate::proxy_engine::DRAIN_BURST;

/// NVMe MDTS in blocks (mirrors `solros_nvme::device::MDTS_BLOCKS`).
const MDTS_BLOCKS: u64 = solros_nvme::device::MDTS_BLOCKS as u64;

/// Path-decision statistics for one FS proxy. Lifecycle counters (rpcs,
/// panics, sheds…) live in the engine-owned ledger; this struct derefs
/// into it, so `.rpcs` / `.worker_panics` call sites work unchanged.
#[derive(Debug, Default)]
pub struct FsProxyStats {
    /// The engine-owned request-lifecycle ledger.
    pub engine: Arc<ProxyStats>,
    /// Reads served peer-to-peer.
    pub p2p_reads: AtomicU64,
    /// Reads served through the host cache.
    pub buffered_reads: AtomicU64,
    /// Writes placed peer-to-peer.
    pub p2p_writes: AtomicU64,
    /// Writes staged through the host.
    pub buffered_writes: AtomicU64,
    /// Pages warmed by sequential readahead (§4.3.2).
    pub prefetched_pages: AtomicU64,
    /// RPC reads that arrived while the inode carried an extent lease —
    /// the stub fell back to the proxy path instead of going P2P direct.
    pub lease_fallback_reads: AtomicU64,
    /// RPC writes that arrived while the inode carried an extent lease.
    pub lease_fallback_writes: AtomicU64,
}

impl Deref for FsProxyStats {
    type Target = ProxyStats;

    fn deref(&self) -> &ProxyStats {
        &self.engine
    }
}

/// Maps file-system errors onto wire codes.
fn rpc_err(e: FsError) -> RpcErr {
    match e {
        FsError::NotFound => RpcErr::NotFound,
        FsError::Exists => RpcErr::Exists,
        FsError::NotDir => RpcErr::NotDir,
        FsError::IsDir => RpcErr::IsDir,
        FsError::NotEmpty => RpcErr::NotEmpty,
        FsError::NoSpace => RpcErr::NoSpace,
        FsError::TooLarge => RpcErr::TooLarge,
        FsError::InvalidPath => RpcErr::Invalid,
        FsError::Corrupt | FsError::Io(_) => RpcErr::Io,
    }
}

/// Data transfers above this size are classed best-effort (bulk) by the
/// QoS gate; smaller transfers ride the normal class.
pub const QOS_BULK_BYTES: u64 = 256 * 1024;

/// Maps an FS request onto a (flow index, payload bytes) pair for the
/// QoS gate. Flow indices follow [`QosClass::index`]: metadata is
/// latency-sensitive (the paper's proxies serve it inline), data moves
/// by size.
fn classify(req: &FsRequest) -> (usize, u64) {
    match req {
        FsRequest::Read { count, .. } | FsRequest::Write { count, .. } => {
            if *count > QOS_BULK_BYTES {
                (QosClass::BestEffort.index(), *count)
            } else {
                (QosClass::Normal.index(), *count)
            }
        }
        _ => (QosClass::High.index(), 0),
    }
}

/// One co-processor's proxy server, owned by the engine that serves it.
pub struct FsProxy {
    fs: Arc<FileSystem>,
    coproc_window: Arc<Window>,
    crosses_numa: bool,
    stats: Arc<FsProxyStats>,
    /// Engine-level fault hooks (worker panics, dropped replies).
    faults: Arc<EngineFaults>,
    /// Inodes opened with `O_BUFFER` by this co-processor.
    buffered_open: IntSet<u64>,
    /// Per-inode end offset of the last read, for sequential detection.
    last_read_end: IntMap<u64, u64>,
    /// Prices the buffered path's adaptive host-to-window copies.
    cost_model: CostModel,
    /// Pages to read ahead on a sequential buffered stream (0 disables).
    readahead_pages: u64,
    /// The current wave of coalesced P2P reads, staged via
    /// [`OpHandler::stage`] and settled at [`OpHandler::flush`].
    wave: ReadWave,
    /// The extent-lease control plane, shared across every proxy when
    /// the boot path wires one system (each proxy grants and recalls
    /// against the same books).
    lease_mgr: Arc<LeaseManager>,
    /// This engine's external-hold table; registered as a recall sink so
    /// every grant anywhere defers conflicting RPC traffic here.
    holds: Arc<ExternalHolds>,
    /// The doorbell this proxy's engine sleeps on; `holds` rings it when
    /// a lease settles.
    bell: Arc<Doorbell>,
    /// Co-processor id stamped on grants made through this proxy.
    coproc: u8,
    /// QoS ledger and flow leased bypass bytes are charged to.
    lease_charge: Option<(Arc<QosStats>, usize)>,
    /// Replicated per-tenant ledger this proxy's engine charges gated
    /// admissions to (shared log, domain-local replicas).
    tenant_ledger: Option<Arc<TenantLedger>>,
    /// This proxy's replica of the shared cache's residency directory:
    /// the P2P path decision probes it instead of the cache lock, so the
    /// decision stays domain-local as proxies multiply (§4.3.2).
    cache_dir: CacheDirReplica,
}

impl FsProxy {
    /// Creates a proxy for one co-processor.
    pub fn new(
        fs: Arc<FileSystem>,
        coproc_window: Arc<Window>,
        crosses_numa: bool,
        stats: Arc<FsProxyStats>,
    ) -> Self {
        let lease_mgr = Arc::new(LeaseManager::new());
        let bell = Doorbell::new();
        let holds = Arc::new(ExternalHolds::with_doorbell(Arc::clone(&bell)));
        lease_mgr.attach_sink(Arc::clone(&holds) as Arc<dyn solros_lease::RecallSink>);
        let cache_dir = fs.cache().replica();
        Self {
            fs,
            cache_dir,
            coproc_window,
            crosses_numa,
            stats,
            faults: Arc::new(EngineFaults::new()),
            buffered_open: IntSet::default(),
            last_read_end: IntMap::default(),
            cost_model: CostModel::paper_default(),
            readahead_pages: 8,
            wave: ReadWave::default(),
            lease_mgr,
            holds,
            bell,
            coproc: 0,
            lease_charge: None,
            tenant_ledger: None,
        }
    }

    /// Attaches the system-wide tenant ledger; the proxy's engine will
    /// charge every gated admission to the submitting frame's tenant.
    pub fn set_tenant_ledger(&mut self, ledger: Arc<TenantLedger>) {
        self.tenant_ledger = Some(ledger);
    }

    /// Overrides the sequential readahead depth (pages; 0 disables).
    pub fn set_readahead(&mut self, pages: u64) {
        self.readahead_pages = pages;
    }

    /// Shares a system-wide lease manager (boot path: one manager, N
    /// proxies) and records this proxy's co-processor id. The proxy's
    /// hold table re-registers with the shared manager so grants made by
    /// *any* proxy defer conflicting RPC traffic arriving here.
    pub fn set_lease_manager(&mut self, mgr: Arc<LeaseManager>, coproc: u8) {
        mgr.attach_sink(Arc::clone(&self.holds) as Arc<dyn solros_lease::RecallSink>);
        self.lease_mgr = mgr;
        self.coproc = coproc;
    }

    /// The lease control plane this proxy grants against.
    pub fn lease_manager(&self) -> Arc<LeaseManager> {
        Arc::clone(&self.lease_mgr)
    }

    /// Charges leased bypass bytes to a QoS flow (tenant accounting for
    /// traffic that never crosses the gate).
    pub fn set_lease_charge(&mut self, stats: Arc<QosStats>, flow: usize) {
        self.lease_charge = Some((stats, flow));
    }

    /// The engine-level fault hooks this proxy serves with.
    pub fn faults(&self) -> Arc<EngineFaults> {
        Arc::clone(&self.faults)
    }

    /// Fault injection: makes the next `n` handled requests panic inside
    /// the handler, exercising the engine's containment path.
    pub fn inject_worker_panics(&self, n: u64) {
        self.faults.arm_worker_panics(n);
    }

    /// Serves requests until `shutdown` is set, through the shared proxy
    /// engine: wave-coalesced P2P reads, everything else run to
    /// completion on the engine thread, and a call that meets a lease
    /// parked until the lease settles. Without a `gate`, admission is
    /// FIFO.
    ///
    /// With one, ring arrivals are admitted into per-class queues
    /// (metadata ops are [`QosClass::High`]; small data ops
    /// [`QosClass::Normal`]; bulk data [`QosClass::BestEffort`]; a
    /// non-zero frame tenant re-keys the flow via
    /// [`HostGate::flow_for_tenant`]) and drained in DWRR order.
    /// Shed requests — overload, full queue, or expired deadline — are
    /// answered immediately with [`RpcErr::Overloaded`]; nothing is
    /// dropped silently. Every reply carries the flow's current credit
    /// window so stubs feel backpressure before the rings fill. The
    /// engine also applies priority inheritance: metadata ops waiting on
    /// an inode held by a lower-weight writer promote that writer's flow
    /// until the write completes.
    pub fn serve(
        self,
        req_rx: Consumer,
        resp_tx: Producer,
        shutdown: Arc<AtomicBool>,
        gate: Option<HostGate<GateJob<FsRequest>>>,
    ) {
        let stats = Arc::clone(&self.stats.engine);
        let faults = Arc::clone(&self.faults);
        let ledger = self.tenant_ledger.clone();
        let mut eng = ProxyEngine::new(
            self,
            vec![EngineLane { req_rx, resp_tx }],
            stats,
            faults,
            gate,
        );
        if let Some(l) = ledger {
            eng.set_tenant_ledger(l);
        }
        eng.serve(shutdown);
    }

    /// Executes one RPC. A call that meets a conflicting extent lease
    /// starts its recall and answers [`RpcErr::WouldBlock`]; served by
    /// the engine, the same call parks until the lease settles instead.
    pub fn handle(&mut self, req: FsRequest) -> FsResponse {
        self.try_handle(&req).unwrap_or(FsResponse::Error {
            err: RpcErr::WouldBlock,
        })
    }

    /// Executes one RPC, or returns the inode whose leases it must wait
    /// for: every lease that conflicts with the call has been recalled,
    /// and the call runs again once they settle. The check is made on
    /// every attempt — under the call's grant bar where it takes one —
    /// so a lease granted since the engine routed the call is caught too.
    fn try_handle(&mut self, req: &FsRequest) -> Result<FsResponse, u64> {
        Ok(match req {
            FsRequest::Open {
                path,
                create,
                truncate,
                buffered,
            } => {
                let flags = solros_fs::OpenFlags {
                    create: *create,
                    truncate: *truncate,
                    buffered: *buffered,
                };
                match self.fs.open(path, flags) {
                    Ok(ino) => {
                        if *buffered {
                            self.buffered_open.insert(ino);
                        } else {
                            self.buffered_open.remove(&ino);
                        }
                        let size = self.fs.size_of(ino).unwrap_or(0);
                        FsResponse::Open { ino, size }
                    }
                    Err(e) => FsResponse::Error { err: rpc_err(e) },
                }
            }
            FsRequest::Create { path } => match self.fs.create(path) {
                Ok(ino) => FsResponse::Create { ino },
                Err(e) => FsResponse::Error { err: rpc_err(e) },
            },
            &FsRequest::Read {
                ino,
                offset,
                count,
                buf_addr,
            } => {
                // A buffered fallback on a leased inode: count it (the E6
                // bypass ratio) and settle any *write* lease covering the
                // range first, so this read cannot observe pre-lease bytes.
                if self.lease_mgr.has_lease(ino) {
                    self.stats
                        .lease_fallback_reads
                        .fetch_add(1, Ordering::Relaxed);
                    self.recall_conflicts(ino, offset, count, false)?;
                }
                match self.do_read(ino, offset, count, buf_addr) {
                    Ok(n) => FsResponse::Read { count: n },
                    Err(e) => FsResponse::Error { err: e },
                }
            }
            &FsRequest::Write {
                ino,
                offset,
                count,
                buf_addr,
            } => {
                // An RPC write is conflicting access for every lease kind:
                // settle them all before the bytes land, so no leased
                // mapping ever reads around this write.
                if count > 0 && self.lease_mgr.has_lease(ino) {
                    self.stats
                        .lease_fallback_writes
                        .fetch_add(1, Ordering::Relaxed);
                    self.recall_conflicts(ino, 0, u64::MAX, true)?;
                }
                match self.do_write(ino, offset, count, buf_addr) {
                    Ok(n) => FsResponse::Write { count: n },
                    Err(e) => FsResponse::Error { err: e },
                }
            }
            FsRequest::Stat { path } => match self.fs.stat(path) {
                Ok(st) => FsResponse::Stat {
                    ino: st.ino,
                    is_dir: st.is_dir,
                    size: st.size,
                },
                Err(e) => FsResponse::Error { err: rpc_err(e) },
            },
            FsRequest::Fstat { ino } => match self.fs.stat_ino(*ino) {
                Ok(st) => FsResponse::Stat {
                    ino: st.ino,
                    is_dir: st.is_dir,
                    size: st.size,
                },
                Err(e) => FsResponse::Error { err: rpc_err(e) },
            },
            FsRequest::Unlink { path } => {
                // Unlink names the file by path: bar new grants on the
                // victim, then settle every outstanding lease before its
                // blocks go back to the allocator. The bar spans the
                // check and the unlink, so no LeaseAcquire racing through
                // another proxy can leave a holder doing P2P I/O against
                // reused blocks.
                let victim = self.fs.stat(path).ok().map(|st| st.ino);
                let _bar = victim.map(|ino| self.lease_mgr.bar_grants(ino));
                if let Some(ino) = victim {
                    self.recall_conflicts(ino, 0, u64::MAX, true)?;
                }
                match self.fs.unlink(path) {
                    Ok(()) => FsResponse::Ok,
                    Err(e) => FsResponse::Error { err: rpc_err(e) },
                }
            }
            FsRequest::Mkdir { path } => match self.fs.mkdir(path) {
                Ok(ino) => FsResponse::Mkdir { ino },
                Err(e) => FsResponse::Error { err: rpc_err(e) },
            },
            FsRequest::Readdir { path } => match self.fs.readdir(path) {
                Ok(names) => FsResponse::Readdir { names },
                Err(e) => FsResponse::Error { err: rpc_err(e) },
            },
            FsRequest::Rename { from, to } => match self.fs.rename(from, to) {
                Ok(()) => FsResponse::Ok,
                Err(e) => FsResponse::Error { err: rpc_err(e) },
            },
            &FsRequest::Truncate { ino, size } => {
                // Bar new grants and settle everything outstanding, so no
                // stale extent map outlives the shrink and no fresh grant
                // maps blocks the shrink is about to free.
                let _bar = self.lease_mgr.bar_grants(ino);
                self.recall_conflicts(ino, 0, u64::MAX, true)?;
                match self.fs.truncate(ino, size) {
                    Ok(()) => FsResponse::Ok,
                    Err(e) => FsResponse::Error { err: rpc_err(e) },
                }
            }
            FsRequest::Fsync { ino } => match self.fs.fsync(*ino) {
                Ok(()) => FsResponse::Ok,
                Err(e) => FsResponse::Error { err: rpc_err(e) },
            },
            &FsRequest::LeaseAcquire {
                ino,
                offset,
                len,
                write,
            } => self.do_lease_acquire(ino, offset, len, write)?,
            &FsRequest::LeaseRelease { id, written_end } => {
                self.do_lease_settle(id, written_end, true)
            }
            &FsRequest::LeaseRecallAck { id, written_end } => {
                self.do_lease_settle(id, written_end, false)
            }
        })
    }

    /// Recalls every lease on `ino` that conflicts with an access to
    /// `[offset, offset + len)` — any lease for an `exclusive` access,
    /// write leases only for a shared one. `Err(ino)` while any such
    /// lease is still outstanding: the call must wait for it to settle.
    fn recall_conflicts(
        &self,
        ino: u64,
        offset: u64,
        len: u64,
        exclusive: bool,
    ) -> Result<(), u64> {
        match self.lease_mgr.recall_range(ino, offset, len, exclusive) {
            0 => Ok(()),
            _ => Err(ino),
        }
    }

    /// Grants an extent lease over `[offset, offset + len)` of `ino`.
    ///
    /// Placement comes first: when this proxy's P2P path crosses a NUMA
    /// boundary the whole point of the lease (direct NVMe DMA) is lost,
    /// so the grant is refused and the stub stays on the RPC path.
    /// Conflicting leases held elsewhere are recalled first — the
    /// acquire is itself the "conflicting access" of the recall protocol,
    /// and waits for them as `Err(ino)` — and the range is pre-resolved
    /// (write leases: preallocated) so the holder never needs another
    /// RPC.
    fn do_lease_acquire(
        &self,
        ino: u64,
        offset: u64,
        len: u64,
        write: bool,
    ) -> Result<FsResponse, u64> {
        let bs = BLOCK_SIZE as u64;
        if self.crosses_numa {
            self.lease_mgr.note_placement_denied();
            return Ok(FsResponse::Error {
                err: RpcErr::WouldBlock,
            });
        }
        if len == 0 || !offset.is_multiple_of(bs) {
            return Ok(FsResponse::Error {
                err: RpcErr::Invalid,
            });
        }
        let len = len.div_ceil(bs) * bs;
        self.recall_conflicts(ino, offset, len, write)?;
        let (extents, data_end) = match self.fs.resolve_lease_extents(ino, offset, len, write) {
            Ok(r) => r,
            Err(e) => return Ok(FsResponse::Error { err: rpc_err(e) }),
        };
        let kind = if write {
            LeaseKind::Write
        } else {
            LeaseKind::Read
        };
        let charge = self.lease_charge.clone();
        let granted = self.lease_mgr.grant(
            self.coproc,
            ino,
            offset,
            len,
            kind,
            extents,
            data_end,
            charge,
        );
        Ok(match granted {
            Ok(st) => FsResponse::LeaseGrant {
                id: st.id(),
                generation: st.generation(),
                data_end: st.readable_end(),
                extents: st.extents().iter().map(|e| (e.start, e.len)).collect(),
            },
            Err(LeaseError::Busy) => FsResponse::Error {
                err: RpcErr::WouldBlock,
            },
            Err(_) => FsResponse::Error {
                err: RpcErr::Invalid,
            },
        })
    }

    /// Settles a lease the holder gave back — voluntarily
    /// (`LeaseRelease`) or as a recall ack (`LeaseRecallAck`). Both are
    /// idempotent against the sweep force-revoking first.
    fn do_lease_settle(&self, id: u64, written_end: u64, voluntary: bool) -> FsResponse {
        if let Some(s) = self.lease_mgr.settle_wire(id, written_end, voluntary) {
            self.apply_settled(&s);
        }
        FsResponse::Ok
    }

    /// Applies one settled lease to the control plane: leased writes
    /// become visible (size extension + cache invalidation over the
    /// bypassed range) and the external holds free, unparking deferred
    /// RPC jobs on every engine.
    fn apply_settled(&self, s: &SettledLease) {
        if s.kind == LeaseKind::Write && s.written_end > 0 {
            let _ = self.fs.extend_size(s.ino, s.written_end);
            let bs = BLOCK_SIZE as u64;
            for page in s.offset / bs..s.written_end.div_ceil(bs) {
                self.fs.cache().invalidate_page(s.ino, page);
            }
        }
        self.lease_mgr.free_holds(s.ino, s.kind);
    }

    /// Chooses the data path for a read (§4.3.2).
    fn read_path_is_p2p(&self, ino: u64, offset: u64, count: u64) -> bool {
        if self.crosses_numa || self.buffered_open.contains(&ino) {
            return false;
        }
        if !offset.is_multiple_of(BLOCK_SIZE as u64) {
            return false;
        }
        // Cache hit on the leading page: serve from the shared cache.
        // Probed through this proxy's directory replica, not the cache
        // lock — the residency answer is as of the replica's log
        // position, which the probe first syncs to the published tail.
        let first_page = offset / BLOCK_SIZE as u64;
        if self.cache_dir.resident(self.fs.cache(), ino, first_page) {
            return false;
        }
        count > 0
    }

    fn do_read(&mut self, ino: u64, offset: u64, count: u64, buf_addr: u64) -> Result<u64, RpcErr> {
        let size = self.fs.size_of(ino).map_err(rpc_err)?;
        if offset >= size {
            return Ok(0);
        }
        let count = count.min(size - offset);
        let sequential = self.last_read_end.insert(ino, offset + count) == Some(offset);
        if self.read_path_is_p2p(ino, offset, count) {
            self.stats.p2p_reads.fetch_add(1, Ordering::Relaxed);
            self.p2p_read(ino, offset, count, buf_addr)?;
            Ok(count)
        } else {
            self.stats.buffered_reads.fetch_add(1, Ordering::Relaxed);
            let h = self.coproc_window.map(Side::Host);
            let n = self
                .fs
                .read_with(ino, offset, count as usize, |at, piece| {
                    // SAFETY: the stub owns [buf_addr, buf_addr+count)
                    // exclusively for the duration of this call (driver
                    // contract).
                    unsafe { h.adaptive_write(&self.cost_model, buf_addr as usize + at, piece) }
                })
                .map_err(rpc_err)? as u64;
            // Sequential stream on the buffered path: warm the shared
            // cache ahead of the next request (§4.3.2's prefetch).
            if sequential && self.readahead_pages > 0 {
                let warmed = self
                    .fs
                    .prefetch(ino, offset + count, self.readahead_pages)
                    .unwrap_or(0);
                self.stats
                    .prefetched_pages
                    .fetch_add(warmed, Ordering::Relaxed);
            }
            Ok(n)
        }
    }

    /// Builds and submits the vectored NVMe batch for a P2P read.
    fn p2p_read(&mut self, ino: u64, offset: u64, count: u64, buf_addr: u64) -> Result<(), RpcErr> {
        let ReadWave { extents, cmds, .. } = &mut self.wave;
        self.fs
            .fiemap_into(ino, offset, count, extents)
            .map_err(rpc_err)?;
        let start = cmds.len();
        Self::extent_cmds(extents, &self.coproc_window, buf_addr, true, cmds);
        self.wave.submit_from(&self.fs, start)
    }

    fn do_write(
        &mut self,
        ino: u64,
        offset: u64,
        count: u64,
        buf_addr: u64,
    ) -> Result<u64, RpcErr> {
        if count == 0 {
            return Ok(0);
        }
        let size = self.fs.size_of(ino).map_err(rpc_err)?;
        let bs = BLOCK_SIZE as u64;
        let aligned = offset.is_multiple_of(bs);
        // A partial tail block is only safe P2P when it extends the file
        // (padding lands beyond EOF and is never read back).
        let tail_ok = count.is_multiple_of(bs) || offset + count >= size;
        let p2p = !self.crosses_numa && !self.buffered_open.contains(&ino) && aligned && tail_ok;
        if p2p {
            self.stats.p2p_writes.fetch_add(1, Ordering::Relaxed);
            self.fs
                .ensure_allocated(ino, offset, count)
                .map_err(rpc_err)?;
            let map_len = count.div_ceil(bs) * bs;
            let extents = self
                .fs
                .fiemap_allocated(ino, offset, map_len)
                .map_err(rpc_err)?;
            let start = self.wave.cmds.len();
            Self::extent_cmds(
                &extents,
                &self.coproc_window,
                buf_addr,
                false,
                &mut self.wave.cmds,
            );
            self.wave.submit_from(&self.fs, start)?;
            self.fs.extend_size(ino, offset + count).map_err(rpc_err)?;
            // Coherence: drop any cached pages the DMA just bypassed.
            for page in offset / bs..(offset + count).div_ceil(bs) {
                self.fs.cache().invalidate_page(ino, page);
            }
            Ok(count)
        } else {
            self.stats.buffered_writes.fetch_add(1, Ordering::Relaxed);
            let h = self.coproc_window.map(Side::Host);
            // Host DMA pulls each page out of the window into the cache
            // page it refreshes; the write-through goes from there.
            let n = self
                .fs
                .write_with(ino, offset, count as usize, |at, piece| {
                    // SAFETY: the stub owns the source range exclusively
                    // for the duration of this call.
                    unsafe { h.dma_read(buf_addr as usize + at, piece) }
                })
                .map_err(rpc_err)? as u64;
            Ok(n)
        }
    }

    /// Splits extents into MDTS-sized NVMe commands targeting consecutive
    /// window offsets, appended to `cmds`.
    fn extent_cmds(
        extents: &[Extent],
        window: &Arc<Window>,
        buf_addr: u64,
        is_read: bool,
        cmds: &mut Vec<NvmeCommand>,
    ) {
        let mut cursor = buf_addr;
        for e in extents {
            let mut lba = e.start;
            let mut left = e.len as u64;
            while left > 0 {
                let n = left.min(MDTS_BLOCKS);
                let ptr = DmaPtr::new(Arc::clone(window), cursor as usize);
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
                left -= n;
                cursor += n * BLOCK_SIZE as u64;
            }
        }
    }

    /// Stages a read into the wave's combined command list if it takes
    /// the P2P path; `None` falls the request through to `do_read`
    /// (buffered path, EOF handling, and errors all live there).
    fn stage_p2p_read(
        &mut self,
        ino: u64,
        offset: u64,
        count: u64,
        buf_addr: u64,
    ) -> Option<(u64, Range<usize>)> {
        let size = self.fs.size_of(ino).ok()?;
        if offset >= size {
            return None;
        }
        let count = count.min(size - offset);
        if !self.read_path_is_p2p(ino, offset, count) {
            return None;
        }
        let ReadWave { extents, cmds, .. } = &mut self.wave;
        self.fs.fiemap_into(ino, offset, count, extents).ok()?;
        self.last_read_end.insert(ino, offset + count);
        self.stats.p2p_reads.fetch_add(1, Ordering::Relaxed);
        let start = cmds.len();
        Self::extent_cmds(extents, &self.coproc_window, buf_addr, true, cmds);
        Some((count, start..cmds.len()))
    }
}

impl OpHandler for FsProxy {
    type Req = FsRequest;

    fn encode_err(&self, tag: u32, err: RpcErr, reply: &mut Vec<u8>) {
        FsResponse::Error { err }.encode_into(tag, reply)
    }

    fn classify(&self, _lane: usize, req: &FsRequest) -> (usize, u64) {
        classify(req)
    }

    /// Hands a call that meets a conflicting lease back to the engine,
    /// parked on its inode: the recall is under way, and the holder's
    /// `LeaseRecallAck` — through this engine, if the holder is this
    /// proxy's co-processor — or the sweep's forced revoke frees it.
    fn exec(
        &mut self,
        _lane: usize,
        tag: u32,
        req: FsRequest,
        reply: &mut Vec<u8>,
    ) -> Result<(), (FsRequest, u64)> {
        match self.try_handle(&req) {
            Ok(resp) => {
                resp.encode_into(tag, reply);
                Ok(())
            }
            Err(ino) => Err((req, ino)),
        }
    }

    /// Data-mutating ops hold their inode exclusively; `fstat` and
    /// `read` touch it shared, so the engine can apply priority
    /// inheritance when a high-class metadata op waits on a best-effort
    /// writer — and so the external-holds check can park RPC traffic
    /// that conflicts with an extent lease. A write-lease acquire is an
    /// exclusive touch (it must displace every other lease); a
    /// read-lease acquire is shared (it coexists with read leases).
    fn touches(&self, req: &FsRequest) -> Option<(u64, Access)> {
        match req {
            FsRequest::Write { ino, .. }
            | FsRequest::Truncate { ino, .. }
            | FsRequest::Fsync { ino } => Some((*ino, Access::Exclusive)),
            FsRequest::Fstat { ino } | FsRequest::Read { ino, .. } => Some((*ino, Access::Shared)),
            FsRequest::LeaseAcquire { ino, write, .. } => Some((
                *ino,
                if *write {
                    Access::Exclusive
                } else {
                    Access::Shared
                },
            )),
            _ => None,
        }
    }

    /// Sweeps overdue recalls every cycle: a holder that never answers
    /// (crashed stub, lost recall) is force-revoked once the recall
    /// budget expires, and the settlement is applied exactly as an ack
    /// would have been.
    fn poll(&mut self) -> bool {
        let swept = self.lease_mgr.sweep();
        let progressed = !swept.is_empty();
        for s in &swept {
            self.apply_settled(s);
        }
        progressed
    }

    fn doorbell(&self) -> Option<Arc<Doorbell>> {
        Some(Arc::clone(&self.bell))
    }

    fn external_holds(&self) -> Option<&ExternalHolds> {
        Some(&self.holds)
    }

    /// Starts the recall protocol for the leases conflicting with a
    /// parked RPC job (fire-and-forget; the freed queue unparks it).
    fn recall(&self, res: u64, exclusive: bool) {
        self.lease_mgr.recall_range(res, 0, u64::MAX, exclusive);
    }

    fn stage(
        &mut self,
        _lane: usize,
        tag: u32,
        credit: Option<u8>,
        tenant: u8,
        req: FsRequest,
    ) -> Option<FsRequest> {
        if let FsRequest::Read {
            ino,
            offset,
            count,
            buf_addr,
        } = &req
        {
            let charged = *count;
            if let Some((count, span)) = self.stage_p2p_read(*ino, *offset, *count, *buf_addr) {
                self.wave.reads.push(StagedRead {
                    tag,
                    count,
                    span,
                    credit,
                    tenant,
                    charged,
                });
                return None;
            }
        }
        Some(req)
    }

    /// Submits the wave's combined command list as one vectored batch —
    /// one doorbell, one interrupt for every staged read. The per-read
    /// replies emitted here land in the engine's [`ReplySettler`], which
    /// settles them as one batched response-ring enqueue per cycle: the
    /// request-side NVMe wave and the reply-side publish wave are the
    /// two halves of the same symmetric pipeline (DESIGN.md §12).
    ///
    /// [`ReplySettler`]: crate::proxy_engine::ReplySettler
    fn flush(&mut self, reply: &mut dyn FnMut(usize, &[u8])) {
        let ReadWave {
            cmds,
            reads,
            results,
            frame,
            ..
        } = &mut self.wave;
        if !reads.is_empty() {
            self.fs.device().submit_vectored_into(cmds, results);
            for r in reads.drain(..) {
                let resp = match settle_span(&self.fs, cmds, results, r.span) {
                    Ok(()) => FsResponse::Read { count: r.count },
                    Err(e) => FsResponse::Error { err: e },
                };
                frame.clear();
                resp.encode_into(r.tag, frame);
                if let Some(c) = r.credit {
                    stamp_credit(frame, c);
                }
                reply(0, frame);
            }
        }
        cmds.clear();
    }

    /// Failover wreck dump: staged reads that will never be submitted
    /// surrender their tags (settled `Gone` by the supervisor) and
    /// their admission charges (refunded).
    fn abort_staged(&mut self) -> Vec<crate::proxy_engine::StagedPart> {
        self.wave.cmds.clear();
        self.wave
            .reads
            .drain(..)
            .map(|r| crate::proxy_engine::StagedPart {
                lane: 0,
                tag: r.tag,
                credit: r.credit,
                tenant: r.tenant,
                bytes: r.charged,
            })
            .collect()
    }
}

/// One read staged into a wave's combined NVMe batch.
struct StagedRead {
    tag: u32,
    /// Clamped byte count to report on success.
    count: u64,
    /// This read's commands within the wave's `cmds`.
    span: Range<usize>,
    /// Credit byte to stamp on the reply (QoS path only).
    credit: Option<u8>,
    /// Tenant charged at admission (refunded if the shard dies staged).
    tenant: u8,
    /// Bytes charged at admission (the pre-clamp request count).
    charged: u64,
}

/// One drain cycle's worth of coalesced P2P reads, and the scratch the
/// cycle works in: every vector here is cleared and refilled wave after
/// wave, never rebuilt. A P2P transfer that is not staged (a write, or a
/// read that reaches `do_read` directly) borrows `extents`, the end of
/// `cmds` and — dead between a stage and its flush — `results`.
#[derive(Default)]
struct ReadWave {
    cmds: Vec<NvmeCommand>,
    reads: Vec<StagedRead>,
    /// The extent map of the read being staged.
    extents: Vec<Extent>,
    /// Per-command statuses of the wave's one vectored submission.
    results: Vec<Result<(), NvmeError>>,
    /// The reply frame being encoded.
    frame: Vec<u8>,
}

impl ReadWave {
    /// Submits `cmds[start..]` — a P2P transfer served outside the wave,
    /// borrowing its vectors — as one vectored batch, retries individual
    /// transient failures, and takes the commands back off.
    fn submit_from(&mut self, fs: &FileSystem, start: usize) -> Result<(), RpcErr> {
        let own = &self.cmds[start..];
        fs.device().submit_vectored_into(own, &mut self.results);
        let settled = settle_span(fs, own, &self.results, 0..own.len());
        self.cmds.truncate(start);
        settled
    }
}

/// Checks one operation's slice of a combined batch's results, retrying
/// individual transient failures through the shared exponential-backoff
/// [`RetryPolicy`] so media/timeout/queue-full bursts are absorbed instead
/// of surfacing after two blind retries.
fn settle_span(
    fs: &FileSystem,
    cmds: &[NvmeCommand],
    results: &[Result<(), NvmeError>],
    span: Range<usize>,
) -> Result<(), RpcErr> {
    for i in span {
        if results[i].is_err() {
            let settled = RetryPolicy::new().run(
                |e: &NvmeError| e.is_transient(),
                |_| fs.device().submit_vectored(std::slice::from_ref(&cmds[i]))[0],
            );
            if let Err(e) = settled {
                return Err(match e {
                    NvmeError::OutOfRange => RpcErr::Invalid,
                    _ => RpcErr::Io,
                });
            }
        }
    }
    Ok(())
}
