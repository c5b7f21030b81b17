//! Ablations for the design decisions DESIGN.md §4 calls out.
//!
//! Each function isolates one Solros design choice, runs the real
//! implementation (or the calibrated model) with the choice flipped or
//! swept, and reports the consequence as markdown.

use std::sync::atomic::Ordering as AtomicOrdering;
use std::sync::Arc;
use std::time::Duration;

use solros_pcie::cost::CostModel;
use solros_pcie::{PcieCounters, Side};
use solros_ringbuf::ring::{RingBuf, RingConfig};
use solros_simkit::report::Table;
use solros_simkit::SimTime;

use crate::figs::fig09;
use crate::model::{FsModel, FsStack};

/// D1: combining threshold sweep — what the threshold actually controls
/// is combiner tenure length (how many peers' operations one thread
/// batches before handing off), which amortizes control-variable updates
/// and cache-line movement under contention.
pub fn combining_threshold() -> String {
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let threads = cores.clamp(2, 8);
    let mut t = Table::new(vec![
        "threshold",
        "producer tenures / 1000 ops",
        "wall-clock kops/s (local ring)",
    ]);
    for threshold in [1usize, 4, 16, 64, 256] {
        let counters = Arc::new(PcieCounters::new());
        let cfg = RingConfig::local(1 << 20, Side::Host).with_threshold(threshold);
        let ring = RingBuf::new(cfg, Arc::clone(&counters));
        let (tx, rx) = ring.endpoints();
        let ops_per_thread = 3_000u64;
        let ops = ops_per_thread * threads as u64;
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for _ in 0..threads {
                let tx = tx.clone();
                let rx = rx.clone();
                s.spawn(move || {
                    for _ in 0..ops_per_thread {
                        tx.send_blocking(&[1u8; 64]).unwrap();
                        let _ = rx.recv_blocking();
                    }
                });
            }
        });
        let elapsed = start.elapsed().as_secs_f64();
        let tenures = tx.combiner_batches();
        t.row(vec![
            threshold.to_string(),
            format!("{:.0}", tenures as f64 * 1000.0 / ops as f64),
            format!("{:.0}", ops as f64 / elapsed / 1e3),
        ]);
    }
    let mut out = t.to_markdown();
    out.push_str(&format!(
        "
({threads} threads on a machine with parallelism {cores}; higher thresholds show longer tenures — and wall-clock gains — only under real contention.)
"
    ));
    out
}

/// D4: master ring placement — who crosses the bus for payloads.
pub fn master_placement() -> String {
    let model = CostModel::paper_default();
    let mut t = Table::new(vec![
        "master at",
        "remote DMA bytes",
        "remote line writes",
        "virtual kops/s (8 thr)",
    ]);
    for (label, master) in [("sender (paper)", Side::Coproc), ("receiver", Side::Host)] {
        let counters = Arc::new(PcieCounters::new());
        let cfg = RingConfig::over_pcie(8 << 20, master, Side::Coproc, Side::Host);
        let ring = RingBuf::new(cfg, Arc::clone(&counters));
        let (tx, rx) = ring.endpoints();
        let ops = 4_000u64;
        std::thread::scope(|s| {
            for _ in 0..8 {
                let tx = tx.clone();
                s.spawn(move || {
                    for _ in 0..ops / 8 {
                        tx.send_blocking(&[1u8; 64]).unwrap();
                    }
                });
            }
        });
        std::thread::scope(|s| {
            for _ in 0..8 {
                let rx = rx.clone();
                s.spawn(move || {
                    for _ in 0..ops / 8 {
                        let _ = rx.recv_blocking();
                    }
                });
            }
        });
        let snap = counters.snapshot();
        let thr = fig09::virtual_throughput(&model, Side::Coproc, 8, ops, &snap);
        t.row(vec![
            label.to_string(),
            snap.dma_bytes.to_string(),
            snap.write_lines.to_string(),
            format!("{:.0}", thr / 1e3),
        ]);
    }
    let mut out = t.to_markdown();
    out.push_str(
        "\nMaster at the sender keeps enqueue local and lets the receiver pull in \
         batches; master at the receiver forces the sender to push every element \
         across the bus line by line.\n",
    );
    out
}

/// D6: NVMe command coalescing — the vectored ioctl vs per-command
/// submission, functionally (interrupt counts) and in modeled latency.
pub fn nvme_coalescing() -> String {
    use solros_nvme::{DmaPtr, NvmeCommand, NvmeDevice, NvmePerf};
    use solros_pcie::Window;

    let perf = NvmePerf::paper_default();
    let mut t = Table::new(vec![
        "submission",
        "doorbells (512KB read)",
        "interrupts",
        "modeled latency (us)",
    ]);
    for (label, vectored) in [("vectored (Solros)", true), ("per-command", false)] {
        let dev = NvmeDevice::new(4096);
        let counters = Arc::new(PcieCounters::new());
        let buf = Window::new(512 * 1024, Side::Coproc, counters);
        let cmds: Vec<_> = (0..4)
            .map(|i| NvmeCommand::Read {
                lba: i * 32,
                nblocks: 32,
                dst: DmaPtr::new(Arc::clone(&buf), (i * 128 * 1024) as usize),
            })
            .collect();
        if vectored {
            dev.submit_vectored(&cmds);
        } else {
            dev.submit_each(&cmds);
        }
        let s = dev.stats();
        let modeled = if vectored {
            perf.vectored_batch_time(true, 4, 128 * 1024)
        } else {
            perf.sequential_batch_time(true, 4, 128 * 1024)
        };
        t.row(vec![
            label.to_string(),
            s.doorbells.to_string(),
            s.interrupts.to_string(),
            format!("{:.0}", modeled.as_us_f64()),
        ]);
    }
    t.to_markdown()
}

/// D5: the P2P/buffered decision — what forcing the wrong path costs.
pub fn path_decision() -> String {
    let m = FsModel::paper_default();
    let mut t = Table::new(vec![
        "placement",
        "path",
        "512KB read latency (us)",
        "4MB read throughput (GB/s, 32 thr)",
    ]);
    let rows: [(&str, FsStack); 2] = [
        ("same socket", FsStack::Solros),
        ("cross NUMA, P2P forced", FsStack::SolrosCrossNuma),
    ];
    for (place, stack) in rows {
        t.row(vec![
            place.to_string(),
            if stack == FsStack::Solros {
                "P2P"
            } else {
                "P2P (bad)"
            }
            .to_string(),
            format!("{:.0}", m.op_latency(stack, true, 512 << 10).as_us_f64()),
            format!("{:.3}", m.throughput(stack, true, 32, 4 << 20) / 1e9),
        ]);
    }
    // The demotion the proxy actually performs: buffered ≈ host staging,
    // bounded by host DMA push instead of the 0.3 GB/s relay.
    let buffered_bw = m.cost.host_dma.bytes_per_sec.min(m.nvme.read_bw);
    t.row(vec![
        "cross NUMA, demoted to buffered".into(),
        "buffered".into(),
        format!(
            "{:.0}",
            (m.op_latency(FsStack::Solros, true, 512 << 10)
                + SimTime::from_secs_f64(512.0 * 1024.0 / m.cost.host_dma.bytes_per_sec))
            .as_us_f64()
        ),
        format!("{:.3}", buffered_bw.min(2.4e9) / 1e9),
    ]);
    let mut out = t.to_markdown();
    out.push_str(
        "\nThe control plane's topology-aware demotion (Figure 1a) recovers nearly \
         the full device bandwidth that naive cross-NUMA P2P loses.\n",
    );
    out
}

/// D3: adaptive copy threshold sweep (host-initiated pulls).
pub fn adaptive_threshold() -> String {
    let sizes: [u64; 6] = [64, 512, 2 << 10, 8 << 10, 64 << 10, 1 << 20];
    let mut t = Table::new(vec!["host threshold", "mean copy time over size mix (us)"]);
    for threshold in [256u64, 1 << 10, 4 << 10, 64 << 10] {
        let mut m = CostModel::paper_default();
        m.host_adaptive_threshold = threshold;
        let mean_us: f64 = sizes
            .iter()
            .map(|&s| m.adaptive_time(Side::Host, s).as_us_f64())
            .sum::<f64>()
            / sizes.len() as f64;
        let label = if threshold == 1 << 10 {
            format!("{threshold} (paper)")
        } else {
            threshold.to_string()
        };
        t.row(vec![label, format!("{mean_us:.1}")]);
    }
    t.to_markdown()
}

/// D8: one drainer at a time for the inbound event ring, under fan-out
/// load.
pub fn event_drain_saturation() -> String {
    use solros::control::Solros;
    use solros_machine::MachineConfig;
    use solros_netdev::EndKind;

    let sys = Solros::boot(MachineConfig::small());
    let net = sys.data_plane(0).net().clone();
    let socks = 16usize;
    let per_sock = 50usize;
    let listener = net.listen(7300, 256).unwrap();
    let fabric = Arc::clone(sys.network());

    // Establish the connections and blast messages from the client side.
    let mut conns = Vec::new();
    for i in 0..socks {
        loop {
            if let Ok(c) = fabric.client_connect(7300, i as u64) {
                conns.push(c);
                break;
            }
            std::thread::yield_now();
        }
    }
    let mut streams = Vec::new();
    for _ in 0..socks {
        let (stream, _) = listener
            .accept_timeout(Duration::from_secs(10))
            .expect("accept");
        streams.push(stream);
    }
    let start = std::time::Instant::now();
    for round in 0..per_sock {
        for (i, &c) in conns.iter().enumerate() {
            let msg = [(round * socks + i) as u8; 64];
            fabric.send(c, EndKind::Client, &msg).unwrap();
        }
    }
    // Whichever thread drains routes everything — here the first reader,
    // for every socket; every byte must arrive in order.
    let mut total = 0usize;
    for stream in &streams {
        let data = stream
            .recv_exact(per_sock * 64)
            .expect("the drain delivered all data");
        total += data.len();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let events = sys.tcp_proxy_stats(0).events.load(AtomicOrdering::Relaxed);
    sys.shutdown();
    format!(
        "One drainer at a time (the waiting reader, or the idle backstop) routed {events} \
         events / {total} bytes to {socks} sockets in {:.1} ms with no loss or reordering \
         ({:.0}k events/s wall-clock; the paper reports no dispatcher bottleneck even at 244 \
         hardware threads).\n",
        elapsed * 1e3,
        events as f64 / elapsed / 1e3
    )
}

/// §4.3.2 prefetch: sequential buffered streams with and without the
/// proxy's readahead — device reads issued on the critical path.
pub fn readahead() -> String {
    use solros::fs_proxy::{FsProxy, FsProxyStats};
    use solros_fs::FileSystem;
    use solros_nvme::NvmeDevice;
    use solros_pcie::Window;
    use solros_proto::fs_msg::FsRequest;

    let mut t = Table::new(vec![
        "readahead",
        "cache hits during scan",
        "pages prefetched",
    ]);
    for pages in [0u64, 8] {
        let fs = Arc::new(FileSystem::mkfs(NvmeDevice::new(16_384), 4096).unwrap());
        let counters = Arc::new(PcieCounters::new());
        let window = Window::new(1 << 20, Side::Coproc, counters);
        let stats = Arc::new(FsProxyStats::default());
        // Cross-NUMA placement forces the buffered path.
        let mut proxy = FsProxy::new(Arc::clone(&fs), window, true, Arc::clone(&stats));
        proxy.set_readahead(pages);
        let ino = fs.create("/scan").unwrap();
        fs.write(ino, 0, &vec![1u8; 64 * 4096]).unwrap();
        fs.cache().invalidate_ino(ino);
        let hits0 = fs.cache().stats().hits;
        for i in 0..16u64 {
            proxy.handle(FsRequest::Read {
                ino,
                offset: i * 4 * 4096,
                count: 4 * 4096,
                buf_addr: 0,
            });
        }
        let hits = fs.cache().stats().hits - hits0;
        t.row(vec![
            if pages == 0 {
                "off".into()
            } else {
                format!("{pages} pages (Solros)")
            },
            hits.to_string(),
            stats
                .prefetched_pages
                .load(AtomicOrdering::Relaxed)
                .to_string(),
        ]);
    }
    let mut out = t.to_markdown();
    out.push_str(
        "\nWith readahead the scan's device reads happen off the request path: the \
         foreground reads become cache hits (§4.3.2's host-side prefetch).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescing_quarters_interrupts() {
        let r = nvme_coalescing();
        assert!(r.contains("| vectored (Solros) | 1 | 1 |"), "{r}");
        assert!(r.contains("| per-command | 4 | 4 |"), "{r}");
    }

    #[test]
    fn paper_threshold_is_near_optimal() {
        let m = CostModel::paper_default();
        let sizes: [u64; 6] = [64, 512, 2 << 10, 8 << 10, 64 << 10, 1 << 20];
        let mean = |thr: u64| {
            let mut m = m.clone();
            m.host_adaptive_threshold = thr;
            sizes
                .iter()
                .map(|&s| m.adaptive_time(Side::Host, s).as_secs_f64())
                .sum::<f64>()
        };
        let paper = mean(1 << 10);
        // The paper's 1 KB choice is within 25% of every swept alternative
        // and strictly better than the extreme ones.
        assert!(paper <= mean(64 << 10), "64K threshold worse");
        assert!(paper <= mean(256) * 1.25, "256B not much better");
    }

    #[test]
    fn placement_at_sender_reduces_sender_push_traffic() {
        let r = master_placement();
        // The receiver-side master forces line writes from the sender.
        let lines: Vec<&str> = r.lines().collect();
        let sender_row = lines.iter().find(|l| l.contains("sender (paper)")).unwrap();
        let recv_row = lines.iter().find(|l| l.contains("| receiver |")).unwrap();
        let write_lines =
            |row: &str| -> u64 { row.split('|').nth(3).unwrap().trim().parse().unwrap() };
        assert_eq!(write_lines(sender_row), 0, "{r}");
        assert!(write_lines(recv_row) > 0, "{r}");
    }

    #[test]
    fn readahead_converts_misses_to_hits() {
        let r = readahead();
        let hits = |needle: &str| -> u64 {
            r.lines()
                .find(|l| l.contains(needle))
                .and_then(|l| l.split('|').nth(2))
                .and_then(|c| c.trim().parse().ok())
                .unwrap_or(u64::MAX)
        };
        assert_eq!(hits("| off |"), 0, "{r}");
        assert!(hits("8 pages") >= 40, "{r}");
    }

    #[test]
    fn threshold_one_publishes_most() {
        let r = combining_threshold();
        // Rendered table exists with all sweep points.
        for th in ["| 1 |", "| 64 |", "| 256 |"] {
            assert!(r.contains(th), "{r}");
        }
    }
}
