//! Per-layer measurement from outside the program.
//!
//! *In-situ*: [`Counters`] reads every public counter of a booted system
//! at a window boundary; a delta of two readings over a known op count
//! gives the `*_per_op`, `*_share` and `*_ratio` metrics.
//!
//! *Replay*: [`replay`] calls each layer's public functions directly,
//! single-threaded, with the request shape of a workload, at least
//! [`REPLAY_ITERS`] times, and reports the median cost of one call. The
//! system is shut down first, so nothing else competes for the cores.

use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::Instant;

use solros::proxy_engine::{ProxyStats, ReplySettler};
use solros::Solros;
use solros_faults::EngineFaults;
use solros_fs::FileSystem;
use solros_netdev::{EndKind, Network};
use solros_nvme::{DmaPtr, NvmeCommand, NvmeDevice, BLOCK_SIZE};
use solros_oplog::{LogConfig, OpLog};
use solros_pcie::{CostModel, PcieCounters, Side, Window};
use solros_proto::fs_msg::{FsRequest, FsResponse};
use solros_proto::net_msg::{NetRequest, NetResponse};
use solros_qos::{HostConfig, HostGate, HostScheduler, QosClass, QosConfig, Service};
use solros_ringbuf::{RingBuf, RingConfig};
use solros_simkit::DetRng;

use crate::trace::percentile;
use crate::workloads::Shape;
use crate::{allocs, procfs};

macro_rules! counters {
    ($($(#[$doc:meta])* $field:ident),* $(,)?) => {
        /// One reading of every counter the in-situ metrics use.
        #[derive(Debug, Clone, Copy, Default)]
        pub struct Counters {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl Counters {
            /// What accumulated between `earlier` and this reading.
            pub fn since(&self, earlier: &Counters) -> Counters {
                Counters {
                    $($field: self.$field.saturating_sub(earlier.$field),)*
                }
            }
        }
    };
}

counters! {
    /// PCIe control-variable reads (co-processor 0's ledger).
    ctrl_reads,
    /// PCIe control-variable writes.
    ctrl_writes,
    /// PCIe remote read-modify-writes.
    rmw_ops,
    /// 64-byte line transactions, reads plus writes.
    lines,
    /// DMA operations.
    dma_ops,
    /// DMA bytes.
    dma_bytes,
    /// Requests the FS and TCP engines executed.
    rpcs,
    /// Replies settled onto response rings.
    replies,
    /// Settlement waves.
    reply_waves,
    /// Response-ring publishes.
    reply_publishes,
    /// Requests shed by a QoS gate.
    sheds,
    /// Frames that failed to decode at admission.
    malformed,
    /// Replies discarded by a fault hook.
    dropped_replies,
    /// Requests parked behind a lease holder.
    lease_deferred,
    /// Requests deferred by priority inheritance.
    inherit_deferred,
    /// Reads and writes the FS proxy served peer-to-peer.
    p2p_ops,
    /// Reads and writes the FS proxy served through the host cache.
    buffered_ops,
    /// Pages warmed by readahead.
    prefetched_pages,
    /// RPC reads and writes that met a leased inode.
    lease_fallback_rpcs,
    /// Host cache hits.
    cache_hits,
    /// Host cache misses.
    cache_misses,
    /// Host cache evictions.
    cache_evictions,
    /// NVMe commands.
    nvme_commands,
    /// NVMe doorbells.
    nvme_doorbells,
    /// NVMe interrupts.
    nvme_interrupts,
    /// NVMe blocks read plus written.
    nvme_blocks,
    /// NVMe commands that failed.
    nvme_failures,
    /// Reads served from a lease.
    leased_reads,
    /// Leased ops that fell back to the RPC path.
    lease_table_fallbacks,
    /// Recalls acked by the stub's lease table.
    recall_acks,
    /// Leased ops that completed against a stale generation.
    stale_generation_reads,
    /// Appends to the cache-directory, TCP-control and tenant logs.
    log_appends,
    /// Combiner batches of the same three logs.
    log_batches,
    /// Small sends coalesced through the TCP staging table.
    staged_sends,
    /// Coalesced backend writes.
    send_waves,
    /// Events pushed to co-processors.
    events,
    /// Events lost on a full event ring.
    event_drops,
    /// Engine shards the supervisor fenced and replaced.
    failovers,
    /// Heap allocations, all threads.
    allocs,
    /// Context switches of the live threads.
    ctx_switches,
}

impl Counters {
    /// Reads every counter of `sys` now.
    pub fn read(sys: &Solros) -> Counters {
        let pcie = sys.machine().coprocs[0].counters.snapshot();
        let fsp = sys.fs_proxy_stats(0);
        let tcp = sys.tcp_proxy_stats(0);
        let engines: [&ProxyStats; 2] = [&fsp.engine, &tcp.engine];
        let sum = |f: fn(&ProxyStats) -> u64| engines.iter().map(|e| f(e)).sum::<u64>();
        let cache = sys.host_fs().cache().stats();
        let nvme = sys.machine().nvme.stats();
        let logs = [
            sys.host_fs().cache().dir_log_stats(),
            sys.tcp_control_log_stats(),
            sys.tenant_ledger_log_stats(),
        ];
        let fs = sys.data_plane(0).fs();
        let lease = fs.lease_table().map(|t| t.stats());
        let lease_of = |f: fn(&solros::lease::LeaseTableStats) -> u64| lease.map_or(0, f);
        let (_, ctx_switches) = procfs::threads_and_ctx_switches();
        Counters {
            ctrl_reads: pcie.ctrl_reads,
            ctrl_writes: pcie.ctrl_writes,
            rmw_ops: pcie.rmw_ops,
            lines: pcie.read_lines + pcie.write_lines,
            dma_ops: pcie.dma_ops,
            dma_bytes: pcie.dma_bytes,
            rpcs: sum(|e| e.rpcs.load(Relaxed)),
            replies: sum(|e| e.replies.load(Relaxed)),
            reply_waves: sum(|e| e.reply_waves.load(Relaxed)),
            reply_publishes: sum(|e| e.reply_publishes.load(Relaxed)),
            sheds: sum(|e| e.sheds.load(Relaxed)),
            malformed: sum(|e| e.malformed.load(Relaxed)),
            dropped_replies: sum(|e| e.dropped_replies.load(Relaxed)),
            lease_deferred: sum(|e| e.lease_deferred.load(Relaxed)),
            inherit_deferred: sum(|e| e.inherit_deferred.load(Relaxed)),
            p2p_ops: fsp.p2p_reads.load(Relaxed) + fsp.p2p_writes.load(Relaxed),
            buffered_ops: fsp.buffered_reads.load(Relaxed) + fsp.buffered_writes.load(Relaxed),
            prefetched_pages: fsp.prefetched_pages.load(Relaxed),
            lease_fallback_rpcs: fsp.lease_fallback_reads.load(Relaxed)
                + fsp.lease_fallback_writes.load(Relaxed),
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_evictions: cache.evictions,
            nvme_commands: nvme.commands,
            nvme_doorbells: nvme.doorbells,
            nvme_interrupts: nvme.interrupts,
            nvme_blocks: nvme.blocks_read + nvme.blocks_written,
            nvme_failures: nvme.failures,
            leased_reads: lease_of(|l| l.leased_reads.load(Relaxed)),
            lease_table_fallbacks: lease_of(|l| l.fallbacks.load(Relaxed)),
            recall_acks: lease_of(|l| l.recall_acks.load(Relaxed)),
            stale_generation_reads: lease_of(|l| l.stale_generation_reads.load(Relaxed)),
            log_appends: logs.iter().map(|l| l.appends).sum(),
            log_batches: logs.iter().map(|l| l.batches).sum(),
            staged_sends: tcp.staged_sends.load(Relaxed),
            send_waves: tcp.send_waves.load(Relaxed),
            events: tcp.events.load(Relaxed),
            event_drops: tcp.event_drops.load(Relaxed),
            failovers: sys.supervisor().failovers(),
            allocs: allocs(),
            ctx_switches,
        }
    }

    /// Tags still pending in the FS and network RPC clients of `sys`: a
    /// level, not a running total, so it is not part of a delta.
    pub fn pending_left(sys: &Solros) -> u64 {
        let dp = sys.data_plane(0);
        (dp.fs().client().pending_len() + dp.net().client().pending_len()) as u64
    }

    /// **Modelled** PCIe time for this delta, in µs: the paper-calibrated
    /// [`CostModel`] priced over the counted transactions as if the host
    /// initiated all of them. Not a measurement; never add it to one.
    pub fn modelled_pcie_us(&self) -> f64 {
        let m = CostModel::paper_default();
        let ns = self.ctrl_reads as f64 * m.ctrl_read.as_ns() as f64
            + self.ctrl_writes as f64 * m.ctrl_write.as_ns() as f64
            + self.rmw_ops as f64 * m.rmw.as_ns() as f64
            + self.lines as f64 * 64.0 * m.host_memcpy.fast_ns_per_byte
            + self.dma_ops as f64 * m.host_dma.setup.as_ns() as f64
            + self.dma_bytes as f64 / m.host_dma.bytes_per_sec * 1e9;
        ns / 1e3
    }
}

/// Fewest invocations behind any replayed median.
pub const REPLAY_ITERS: usize = 10_240;

/// Median cost in ns of one layer call for a workload's request shape.
/// A layer that is not on the workload's path stays 0.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replay {
    /// Encode one request frame and its response frame.
    pub proto_encode_ns: f64,
    /// Decode one request frame and its response frame.
    pub proto_decode_ns: f64,
    /// Heap allocations per frame encoded or decoded.
    pub proto_allocs_per_frame: f64,
    /// `Producer::send` of one request frame on an over-PCIe ring.
    pub ring_send_ns: f64,
    /// `Consumer::recv` of one request frame.
    pub ring_recv_ns: f64,
    /// `Producer::send_batch` of 32 frames, per frame.
    pub ring_batch32_send_ns_per_frame: f64,
    /// Control-variable publishes per frame, at the workload's depth.
    pub ring_publishes_per_frame: f64,
    /// Combiner tenures per frame, at the workload's depth.
    pub ring_combiner_batches_per_frame: f64,
    /// `ReplySettler::post` x depth + `settle`, per reply.
    pub settle_ns_per_reply: f64,
    /// `HostGate::flow_for_tenant` (hash hit) + `submit` + `dispatch`.
    pub qos_admit_ns: f64,
    /// Heap allocations per admission on that path.
    pub qos_allocs_per_admit: f64,
    /// `FileSystem::fiemap` over the workload's transfer size.
    pub fiemap_ns: f64,
    /// `FileSystem::read` of a cached 4 KiB page.
    pub fs_read_hit_ns: f64,
    /// `FileSystem::read` of an uncached 4 KiB page.
    pub fs_read_miss_ns: f64,
    /// `FileSystem::write` of one 4 KiB page (write-through).
    pub fs_write_ns: f64,
    /// `NvmeDevice::submit_vectored` of the workload's command vector.
    pub nvme_submit_ns: f64,
    /// `OpLog::append` + one replica `sync`.
    pub oplog_append_ns: f64,
    /// `Network::send` of 64 bytes.
    pub netdev_send_ns: f64,
    /// `Network::recv` of 64 bytes.
    pub netdev_recv_ns: f64,
}

impl Replay {
    /// Serial layer time of one workload call, in ns: every replayed step
    /// that blocks the call, times how often the call takes it. What is
    /// left of the call's median latency is thread hand-off and queueing.
    pub fn serial_ns_per_call(&self, s: &Shape, cache_hit_ratio: f64) -> f64 {
        let rpcs = s.rpcs_per_call as f64;
        // Each RPC crosses the request ring and the response ring.
        let (send, recv) = if s.depth >= 32 {
            (self.ring_batch32_send_ns_per_frame, self.ring_recv_ns)
        } else {
            (self.ring_send_ns, self.ring_recv_ns)
        };
        let per_rpc = self.proto_encode_ns
            + self.proto_decode_ns
            + 2.0 * (send + recv)
            + self.settle_ns_per_reply;
        let buffered = if s.buffered {
            // 70 % reads split by the measured hit ratio, 30 % writes.
            0.7 * (cache_hit_ratio * self.fs_read_hit_ns
                + (1.0 - cache_hit_ratio) * self.fs_read_miss_ns)
                + 0.3 * self.fs_write_ns
        } else {
            0.0
        };
        rpcs * per_rpc
            + s.fiemaps_per_call as f64 * self.fiemap_ns
            + s.nvme_submits_per_call as f64 * self.nvme_submit_ns
            + s.netdev_pairs_per_call as f64 * (self.netdev_send_ns + self.netdev_recv_ns)
            + buffered
    }
}

/// Times `chunks` runs of `body`, each of which performs `per_chunk`
/// invocations, and returns the median ns per invocation.
fn median_ns(chunks: usize, per_chunk: usize, mut body: impl FnMut()) -> f64 {
    let mut per_call: Vec<u64> = (0..chunks)
        .map(|_| {
            let t0 = Instant::now();
            body();
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    percentile(&mut per_call, 50.0) / per_chunk as f64
}

/// Times [`CHUNKS`] rounds of [`CHUNK`] calls of `first` followed by
/// [`CHUNK`] calls of `second` (a producer filling, then a consumer
/// draining) and returns the median ns per call of each.
fn paired_median_ns(mut first: impl FnMut(), mut second: impl FnMut()) -> (f64, f64) {
    let mut firsts = Vec::with_capacity(CHUNKS);
    let mut seconds = Vec::with_capacity(CHUNKS);
    for _ in 0..CHUNKS {
        let t0 = Instant::now();
        (0..CHUNK).for_each(|_| first());
        let t1 = Instant::now();
        (0..CHUNK).for_each(|_| second());
        firsts.push((t1 - t0).as_nanos() as u64);
        seconds.push(t1.elapsed().as_nanos() as u64);
    }
    (
        percentile(&mut firsts, 50.0) / CHUNK as f64,
        percentile(&mut seconds, 50.0) / CHUNK as f64,
    )
}

/// Invocations timed together, so the clock reads cost little of each.
const CHUNK: usize = 256;
const CHUNKS: usize = REPLAY_ITERS / CHUNK;

/// Replays the layers on `shape`'s path. Call with no system booted.
pub fn replay(shape: &Shape, seed: u64) -> Replay {
    let mut r = Replay::default();
    if shape.rpcs_per_call > 0 {
        let (req, resp) = replay_proto(shape, &mut r);
        replay_ring(shape, &req, &mut r);
        replay_settle(shape, &resp, &mut r);
        replay_qos(&mut r);
    }
    if shape.fiemaps_per_call > 0 || shape.buffered {
        replay_fs(shape, seed, &mut r);
    }
    if shape.nvme_cmds > 0 {
        replay_nvme(shape, seed, &mut r);
    }
    if shape.buffered {
        replay_oplog(&mut r);
    }
    if shape.netdev_pairs_per_call > 0 {
        replay_netdev(&mut r);
    }
    r
}

fn replay_proto(shape: &Shape, r: &mut Replay) -> (Vec<u8>, Vec<u8>) {
    type Encode = Box<dyn Fn(u32) -> (Vec<u8>, Vec<u8>)>;
    type Decode = fn(&[u8], &[u8]);
    let (encode, decode): (Encode, Decode) = if shape.net {
        let q = NetRequest::Send {
            sock: 3,
            data: vec![0xA5; 64],
        };
        let p = NetResponse::Sent { count: 64 };
        (
            Box::new(move |tag| (q.encode(tag), p.encode(tag))),
            |req, resp| {
                let _ = std::hint::black_box((NetRequest::decode(req), NetResponse::decode(resp)));
            },
        )
    } else {
        let q = FsRequest::Read {
            ino: 5,
            offset: 1 << 20,
            count: shape.fiemap_bytes.max(BLOCK_SIZE as u64),
            buf_addr: 1 << 16,
        };
        let p = FsResponse::Read { count: 4096 };
        (
            Box::new(move |tag| (q.encode(tag), p.encode(tag))),
            |req, resp| {
                let _ = std::hint::black_box((FsRequest::decode(req), FsResponse::decode(resp)));
            },
        )
    };
    let (req, resp) = encode(7);
    let before = allocs();
    r.proto_encode_ns = median_ns(CHUNKS, CHUNK, || {
        for tag in 0..CHUNK as u32 {
            std::hint::black_box(encode(tag));
        }
    });
    r.proto_decode_ns = median_ns(CHUNKS, CHUNK, || {
        for _ in 0..CHUNK {
            decode(&req, &resp);
        }
    });
    // Two frames encoded and two decoded per iteration of each loop.
    r.proto_allocs_per_frame = (allocs() - before) as f64 / (4 * CHUNKS * CHUNK) as f64;
    (req, resp)
}

fn replay_ring(shape: &Shape, frame: &[u8], r: &mut Replay) {
    let ring = RingBuf::new(
        RingConfig::over_pcie(
            solros::transport::RPC_RING_BYTES,
            Side::Coproc,
            Side::Coproc,
            Side::Host,
        ),
        Arc::new(PcieCounters::new()),
    );
    let (tx, rx) = ring.endpoints();
    let batched = shape.depth >= 32;
    let (p0, b0) = (tx.publishes(), tx.combiner_batches());
    (r.ring_send_ns, r.ring_recv_ns) = paired_median_ns(
        || tx.send(frame).expect("ring has room for one chunk"),
        || drop(std::hint::black_box(rx.recv().expect("a frame per send"))),
    );
    let (p1, b1) = (tx.publishes(), tx.combiner_batches());

    const WAVE: usize = 32;
    let mut waves = Vec::with_capacity(REPLAY_ITERS / WAVE);
    for _ in 0..REPLAY_ITERS / WAVE {
        let wave: Vec<Vec<u8>> = (0..WAVE).map(|_| frame.to_vec()).collect();
        let t0 = Instant::now();
        let (sent, _) = tx.send_batch(wave).expect("frames fit the ring");
        waves.push(t0.elapsed().as_nanos() as u64);
        assert_eq!(sent, WAVE, "an empty ring takes a whole wave");
        for _ in 0..WAVE {
            std::hint::black_box(rx.recv().expect("a frame per send"));
        }
    }
    let (p2, b2) = (tx.publishes(), tx.combiner_batches());
    r.ring_batch32_send_ns_per_frame = percentile(&mut waves, 50.0) / WAVE as f64;
    let frames = REPLAY_ITERS as f64;
    (
        r.ring_publishes_per_frame,
        r.ring_combiner_batches_per_frame,
    ) = if batched {
        ((p2 - p1) as f64 / frames, (b2 - b1) as f64 / frames)
    } else {
        ((p1 - p0) as f64 / frames, (b1 - b0) as f64 / frames)
    };
}

fn replay_settle(shape: &Shape, reply: &[u8], r: &mut Replay) {
    let ring = RingBuf::new(
        RingConfig::over_pcie(
            solros::transport::RPC_RING_BYTES,
            Side::Coproc,
            Side::Host,
            Side::Coproc,
        ),
        Arc::new(PcieCounters::new()),
    );
    let (tx, rx) = ring.endpoints();
    let settler = ReplySettler::new(
        vec![tx],
        Arc::new(EngineFaults::new()),
        Arc::new(ProxyStats::default()),
    );
    let depth = shape.depth;
    let waves = REPLAY_ITERS.div_ceil(depth);
    let mut times = Vec::with_capacity(waves);
    for _ in 0..waves {
        let wave: Vec<Vec<u8>> = (0..depth).map(|_| reply.to_vec()).collect();
        let t0 = Instant::now();
        for frame in wave {
            settler.post(0, frame);
        }
        settler.settle();
        times.push(t0.elapsed().as_nanos() as u64);
        for _ in 0..depth {
            std::hint::black_box(rx.recv().expect("a reply per post"));
        }
    }
    r.settle_ns_per_reply = percentile(&mut times, 50.0) / depth as f64;
}

fn replay_qos(r: &mut Replay) {
    const WARM_TENANTS: u64 = 64;
    let host = HostScheduler::new(HostConfig::default());
    let mut gate: HostGate<u32> =
        HostGate::per_class("fs0", &QosConfig::enforcing(), &host, Service::Fs, 0);
    let normal = QosClass::Normal.index();
    // The first frame of a tenant admits its flow and allocates; the
    // replay measures the steady hash-hit path after that.
    let mut now = 1_000u64;
    for t in 1..=WARM_TENANTS {
        let f = gate.flow_for_tenant(t, normal);
        for _ in 0..4 {
            let _ = gate.submit(f, 4096, now, 0);
        }
    }
    while !matches!(gate.dispatch(now), solros_qos::Dispatch::Idle) {}
    let before = allocs();
    let mut i = 0u64;
    r.qos_admit_ns = median_ns(CHUNKS, CHUNK, || {
        for _ in 0..CHUNK {
            i += 1;
            now += 64;
            let f = gate.flow_for_tenant(1 + i % WARM_TENANTS, normal);
            let _ = std::hint::black_box(gate.submit(f, 4096, now, i as u32));
            let _ = std::hint::black_box(gate.dispatch(now));
        }
    });
    r.qos_allocs_per_admit = (allocs() - before) as f64 / (CHUNKS * CHUNK) as f64;
}

/// The replay file system: a 16 MiB file over a 1024-page cache, the
/// same 4x ratio `fs_buf_mixed_4k` runs at.
const FS_FILE_BLOCKS: u64 = 4096;
const FS_CACHE_PAGES: usize = 1024;

fn replay_fs(shape: &Shape, seed: u64, r: &mut Replay) {
    let dev = NvmeDevice::new(4 * FS_FILE_BLOCKS);
    let fs = FileSystem::mkfs(dev, FS_CACHE_PAGES).expect("mkfs on a fresh device");
    let ino = fs.create("/replay").expect("create on a fresh fs");
    let mut page = vec![0u8; BLOCK_SIZE];
    for b in 0..FS_FILE_BLOCKS {
        crate::data::fill_block(&mut page, seed, 9, b, 0);
        fs.write(ino, b * BLOCK_SIZE as u64, &page)
            .expect("populate");
    }
    let mut rng = DetRng::seed(seed ^ 0xf5);
    if shape.fiemaps_per_call > 0 {
        let len = shape.fiemap_bytes;
        let span = FS_FILE_BLOCKS - len.div_ceil(BLOCK_SIZE as u64);
        r.fiemap_ns = median_ns(CHUNKS, CHUNK, || {
            for _ in 0..CHUNK {
                let off = rng.below(span) * BLOCK_SIZE as u64;
                std::hint::black_box(fs.fiemap(ino, off, len).expect("mapped range"));
            }
        });
    }
    if shape.buffered {
        // Populate left the last FS_CACHE_PAGES pages resident.
        let hot_first = FS_FILE_BLOCKS - FS_CACHE_PAGES as u64 / 2;
        r.fs_read_hit_ns = median_ns(CHUNKS, CHUNK, || {
            for _ in 0..CHUNK {
                let b = hot_first + rng.below(FS_CACHE_PAGES as u64 / 2);
                fs.read(ino, b * BLOCK_SIZE as u64, &mut page).expect("hit");
            }
        });
        // A cyclic scan of a file four times the LRU cache never hits.
        let mut next = 0u64;
        r.fs_read_miss_ns = median_ns(CHUNKS, CHUNK, || {
            for _ in 0..CHUNK {
                fs.read(ino, next * BLOCK_SIZE as u64, &mut page)
                    .expect("miss");
                next = (next + 1) % FS_FILE_BLOCKS;
            }
        });
        r.fs_write_ns = median_ns(CHUNKS, CHUNK, || {
            for _ in 0..CHUNK {
                let b = rng.below(FS_FILE_BLOCKS);
                fs.write(ino, b * BLOCK_SIZE as u64, &page).expect("write");
            }
        });
    }
}

fn replay_nvme(shape: &Shape, seed: u64, r: &mut Replay) {
    const DEV_BLOCKS: u64 = 4096;
    let per_submit = shape.nvme_cmds as u64 * u64::from(shape.nvme_cmd_blocks);
    let dev = NvmeDevice::new(DEV_BLOCKS);
    let window = Window::new(
        per_submit as usize * BLOCK_SIZE,
        Side::Coproc,
        Arc::new(PcieCounters::new()),
    );
    // Write the device once so reads move real blocks.
    for first in (0..DEV_BLOCKS).step_by(shape.nvme_cmd_blocks as usize) {
        let w = NvmeCommand::Write {
            lba: first,
            nblocks: shape.nvme_cmd_blocks,
            src: DmaPtr::new(Arc::clone(&window), 0),
        };
        assert!(dev.submit_vectored(&[w])[0].is_ok(), "populate write");
    }
    let mut rng = DetRng::seed(seed ^ 0x17e);
    let slots = DEV_BLOCKS / u64::from(shape.nvme_cmd_blocks);
    // Large vectors cost tens of µs each; fewer, smaller chunks keep the
    // replay under a second while every median still has ≥ 40 chunks.
    let per_chunk = (CHUNK / per_submit as usize).max(4);
    let chunks = (REPLAY_ITERS / per_submit as usize / per_chunk).max(40);
    r.nvme_submit_ns = median_ns(chunks, per_chunk, || {
        for _ in 0..per_chunk {
            let cmds: Vec<NvmeCommand> = (0..shape.nvme_cmds)
                .map(|i| NvmeCommand::Read {
                    lba: rng.below(slots) * u64::from(shape.nvme_cmd_blocks),
                    nblocks: shape.nvme_cmd_blocks,
                    dst: DmaPtr::new(
                        Arc::clone(&window),
                        i * shape.nvme_cmd_blocks as usize * BLOCK_SIZE,
                    ),
                })
                .collect();
            let res = dev.submit_vectored(&cmds);
            assert!(res.iter().all(Result::is_ok), "replayed read failed");
        }
    });
}

fn replay_oplog(r: &mut Replay) {
    let log: Arc<OpLog<u64>> = OpLog::new(LogConfig::default());
    let mut cursor = log.register();
    let mut i = 0u64;
    r.oplog_append_ns = median_ns(CHUNKS, CHUNK, || {
        for _ in 0..CHUNK {
            i += 1;
            log.append(i);
            std::hint::black_box(log.sync(&mut cursor, |_, _| {}));
        }
    });
}

fn replay_netdev(r: &mut Replay) {
    let net = Network::new();
    net.listen(9, 4).expect("fresh fabric");
    let conn = net.client_connect(9, 1).expect("listener is up");
    net.poll_accept(9).expect("listener is up");
    let msg = [0x5Au8; 64];
    (r.netdev_send_ns, r.netdev_recv_ns) = paired_median_ns(
        || {
            net.send(conn, EndKind::Client, &msg).expect("open conn");
        },
        || {
            drop(std::hint::black_box(
                net.recv(conn, EndKind::Server, 64).expect("open conn"),
            ))
        },
    );
}
