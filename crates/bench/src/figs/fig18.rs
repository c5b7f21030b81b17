//! Figure 18 (reconstructed): control-plane OS scalability with multiple
//! co-processors (§6.3).
//!
//! Functional part: boot real systems with 1–4 co-processors — the boot
//! path shards the TCP proxy per NUMA domain, every shard sharing one
//! listener/balancer table — and let every card hammer its file-system
//! proxy while also cycling TCP listeners, verifying all RPCs complete
//! and every churned port is free on the NIC afterwards. Timed part:
//! aggregate delivered bandwidth scales with cards until the device
//! saturates — the control plane itself (fast host cores, one proxy
//! shard per domain) is not the bottleneck. Experiment E7 runs the same
//! storm and gates the shared table's acquisitions per connection phase:
//! none per echo or idle round, one per close.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use solros::control::Solros;
use solros_machine::MachineConfig;
use solros_simkit::report::Table;

use crate::model::{FsModel, FsStack};

/// Reads per co-processor in the functional check.
pub const OPS: usize = 64;
/// Read size.
pub const BYTES: usize = 64 * 1024;
/// TCP listener add/close cycles per co-processor — metadata traffic
/// through the shared control table.
pub const LISTEN_CYCLES: usize = 4;

/// What one functional storm observed.
pub struct StormOutcome {
    /// Per-coproc RPC counts observed by the FS proxies.
    pub rpcs: Vec<u64>,
    /// TCP proxy shards the boot path created (one per NUMA domain).
    pub domains: usize,
    /// Churned ports the NIC still held after the storm: a port whose
    /// last listener closed but was never unlistened. Must be 0.
    pub ports_held: usize,
}

/// The port of listener cycle `cycle` on co-processor `coproc`.
fn churn_port(coproc: usize, cycle: usize) -> u16 {
    20_000 + (coproc * LISTEN_CYCLES + cycle) as u16
}

/// Functional storm: every co-processor reads its own file and cycles
/// TCP listeners concurrently.
pub fn storm(n: usize) -> StormOutcome {
    let cfg = MachineConfig {
        sockets: 2,
        coprocs: n,
        ssd_blocks: 65_536,
        coproc_window_bytes: 8 << 20,
        host_cache_pages: 128,
    };
    let sys = Solros::boot(cfg);
    // Seed one file per co-processor via the host view.
    let host_fs = sys.host_fs();
    for i in 0..n {
        let ino = host_fs.create(&format!("/f{i}")).unwrap();
        host_fs
            .write(ino, 0, &vec![i as u8; OPS * BYTES / 8])
            .unwrap();
    }
    std::thread::scope(|s| {
        for i in 0..n {
            let fs = Arc::clone(sys.data_plane(i).fs());
            let net = sys.data_plane(i).net().clone();
            s.spawn(move || {
                let (handle, size) = fs.open(&format!("/f{i}"), false, false, false).unwrap();
                let mut buf = vec![0u8; BYTES];
                for op in 0..OPS {
                    let off = (op * BYTES) as u64 % size.max(1);
                    let _ = fs.read_at(handle, off, &mut buf).unwrap();
                }
                // Listener churn through the shared table: each cycle
                // registers a port on the NIC and releases it again.
                for cycle in 0..LISTEN_CYCLES {
                    net.listen(churn_port(i, cycle), 4)
                        .unwrap()
                        .close()
                        .unwrap();
                }
            });
        }
    });
    let rpcs = (0..n)
        .map(|i| sys.fs_proxy_stats(i).rpcs.load(Ordering::Relaxed))
        .collect();
    let network = sys.network();
    let ports_held = (0..n)
        .flat_map(|i| (0..LISTEN_CYCLES).map(move |cycle| churn_port(i, cycle)))
        .filter(|&port| {
            let free = network.listen(port, 1).is_ok();
            network.unlisten(port);
            !free
        })
        .count();
    let outcome = StormOutcome {
        rpcs,
        domains: sys.tcp_domains(),
        ports_held,
    };
    sys.shutdown();
    outcome
}

/// Modeled aggregate read bandwidth (GB/s) with `n` co-processors each
/// driving 2 threads of 64 KB reads — a moderate per-card demand so the
/// scaling (and its eventual saturation at the SSD) is visible.
pub fn modeled_gbps(n: usize) -> f64 {
    let m = FsModel::paper_default();
    let per = m.throughput(FsStack::Solros, true, 2, 64 << 10);
    (per * n as f64).min(m.nvme.read_bw) / 1e9
}

/// Regenerates the figure.
pub fn run() -> String {
    let mut t = Table::new(vec![
        "co-processors",
        "tcp shards",
        "functional RPCs served",
        "churned ports still held",
        "aggregate GB/s (model)",
    ]);
    for n in [1usize, 2, 4] {
        let o = storm(n);
        t.row(vec![
            n.to_string(),
            o.domains.to_string(),
            format!("{:?}", o.rpcs),
            o.ports_held.to_string(),
            format!("{:.2}", modeled_gbps(n)),
        ]);
    }
    let mut out = t.to_markdown();
    out.push_str(
        "\nThe control plane is sharded per NUMA domain: each TCP proxy shard serves its \
         domain's cards, and the shards share one listener/balancer table (every churned port \
         must be free again afterwards). Aggregate bandwidth is capped only by the SSD \
         (2.4 GB/s), not by the proxies; E7 counts how often the shards take the shared table \
         and gates it off the data path.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_coprocs_served_concurrently() {
        let o = storm(2);
        assert_eq!(o.rpcs.len(), 2);
        for (i, c) in o.rpcs.iter().enumerate() {
            assert!(*c >= OPS as u64, "coproc {i} served {c} RPCs");
        }
        // MachineConfig{sockets: 2} places the two cards on different
        // sockets, so the boot path must have built two proxy shards —
        // and every listener cycle released its port on the NIC.
        assert_eq!(o.domains, 2);
        assert_eq!(o.ports_held, 0);
    }

    #[test]
    fn modeled_scaling_saturates_at_device() {
        let one = modeled_gbps(1);
        let two = modeled_gbps(2);
        let four = modeled_gbps(4);
        assert!(two > one, "scaling visible: {one} -> {two}");
        assert!(four <= 2.4 + 1e-9, "device cap respected: {four}");
        assert!(four >= two, "no regression with more cards");
    }
}
