//! System bring-up: one control plane, N data planes.
//!
//! [`Solros::boot`] assembles a [`solros_machine::Machine`], formats the
//! file system, wires RPC channels per co-processor, and spawns the host
//! proxy threads (one FS proxy per co-processor and one TCP proxy). Each
//! [`DataPlane`] is the lean data-plane OS of one co-processor: an FS
//! stub, a TCP stub, and the TCP stub's idle event backstop — nothing
//! else, which is the point of the architecture (§4).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use solros_fs::FileSystem;
use solros_lease::{LeaseManager, LeaseTable};
use solros_machine::{Machine, MachineConfig};
use solros_netdev::Network;
use solros_qos::{
    CreditPool, HostConfig, HostGate, HostScheduler, QosClass, QosConfig, QosStats, Service,
    TenantLedger, TenantLedgerReplica, TenantUsage,
};

use solros_oplog::LogStats;
use solros_pcie::topo::DeviceId;

use crate::fs_api::CoprocFs;
use crate::fs_proxy::{FsProxy, FsProxyStats};
use crate::net_api::CoprocNet;
use crate::supervisor::ShardSupervisor;
use crate::tcp_proxy::{
    LoadBalancer, NetChannelHost, RoundRobin, TcpControl, TcpProxy, TcpProxyStats,
};
use crate::transport::{event_ring, Channel, RpcClient};

/// One co-processor's data-plane OS.
pub struct DataPlane {
    fs: Arc<CoprocFs>,
    net: CoprocNet,
}

impl DataPlane {
    /// The file-system API.
    pub fn fs(&self) -> &Arc<CoprocFs> {
        &self.fs
    }

    /// The network API.
    pub fn net(&self) -> &CoprocNet {
        &self.net
    }
}

/// The booted system.
pub struct Solros {
    machine: Machine,
    fs: Arc<FileSystem>,
    data_planes: Vec<DataPlane>,
    fs_stats: Vec<Arc<FsProxyStats>>,
    /// One TCP proxy shard per NUMA domain hosting co-processors.
    tcp_stats: Vec<Arc<TcpProxyStats>>,
    tcp_control: Arc<TcpControl>,
    fs_qos_stats: Vec<Arc<QosStats>>,
    /// Per-domain TCP QoS ledgers (empty when QoS is pass-through).
    tcp_qos_stats: Vec<Arc<QosStats>>,
    lease_mgr: Arc<LeaseManager>,
    /// Health-checks the engine shards and fails dead ones over.
    supervisor: Arc<ShardSupervisor>,
    /// System-wide tenant ledger log every engine shard charges into.
    tenant_ledger: Arc<TenantLedger>,
    /// The host's observer replica of the tenant ledger, registered
    /// before boot completes so it sees every charge.
    tenant_view: TenantLedgerReplica,
    /// Host-global tenant→service→flow hierarchy every QoS gate shard
    /// (FS and TCP, every domain) reports to.
    host_qos: Arc<HostScheduler>,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
}

impl Solros {
    /// Boots with the paper's round-robin load balancer.
    pub fn boot(cfg: MachineConfig) -> Solros {
        Self::boot_with_lb(cfg, Box::new(RoundRobin::default()))
    }

    /// Boots with a custom shared-listening-socket policy (§4.4.3).
    pub fn boot_with_lb(cfg: MachineConfig, lb: Box<dyn LoadBalancer>) -> Solros {
        Self::boot_with_lb_qos(cfg, lb, QosConfig::default())
    }

    /// Boots with an explicit QoS configuration. The default config is
    /// pass-through (no gate, no credits); [`QosConfig::enforcing`] or a
    /// custom config turns the proxies' service loops into QoS gates.
    pub fn boot_qos(cfg: MachineConfig, qos: QosConfig) -> Solros {
        Self::boot_with_lb_qos(cfg, Box::new(RoundRobin::default()), qos)
    }

    /// Boots with both a custom load balancer and a QoS configuration.
    pub fn boot_with_lb_qos(
        cfg: MachineConfig,
        lb: Box<dyn LoadBalancer>,
        qos: QosConfig,
    ) -> Solros {
        let cache_pages = cfg.host_cache_pages;
        let machine = Machine::new(cfg);
        let fs = Arc::new(FileSystem::mkfs(Arc::clone(&machine.nvme), cache_pages).expect("mkfs"));
        Self::assemble(machine, fs, lb, qos)
    }

    /// Boots against an already-formatted SSD, mounting it instead of
    /// re-formatting — the reboot/persistence path.
    ///
    /// # Errors
    ///
    /// Returns the mount error if the device does not hold a valid Solros
    /// file system.
    pub fn boot_mounted(
        cfg: MachineConfig,
        nvme: Arc<solros_nvme::NvmeDevice>,
    ) -> Result<Solros, solros_fs::FsError> {
        let cache_pages = cfg.host_cache_pages;
        let machine = Machine::with_nvme(cfg, Arc::clone(&nvme));
        let fs = Arc::new(FileSystem::mount(nvme, cache_pages)?);
        Ok(Self::assemble(
            machine,
            fs,
            Box::new(RoundRobin::default()),
            QosConfig::default(),
        ))
    }

    fn assemble(
        machine: Machine,
        fs: Arc<FileSystem>,
        lb: Box<dyn LoadBalancer>,
        qos: QosConfig,
    ) -> Solros {
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();
        let mut data_planes = Vec::new();
        let mut fs_stats = Vec::new();
        let mut fs_qos_stats = Vec::new();
        let mut net_host_channels = Vec::new();
        let credit_pool = |_: &str| -> Option<Arc<CreditPool>> {
            if qos.enabled && qos.credit_window > 0 {
                Some(Arc::new(CreditPool::new(qos.credit_window)))
            } else {
                None
            }
        };

        // One lease control plane for the whole system: every proxy
        // grants and recalls against the same books, so a grant made for
        // one co-processor defers conflicting RPCs arriving at another.
        let lease_mgr = Arc::new(LeaseManager::new());

        // One tenant ledger log for the whole system; each engine shard
        // charges admitted work into it and the host keeps an observer
        // replica (registered now, before any charge can be appended).
        let tenant_ledger = TenantLedger::new();
        let tenant_view = tenant_ledger.replica();

        // The host-global QoS hierarchy: level 1 (tenants against host
        // budgets, rebalanced off the replicated ledger) and level 2
        // (fs-vs-tcp service shares) are shared state; each proxy below
        // registers its own per-domain level-3 flow-table shard.
        let host_qos = HostScheduler::with_ledger(HostConfig::default(), tenant_ledger.replica());

        for coproc in &machine.coprocs {
            // ---- File-system service ----
            let fs_ch = Channel::new(Arc::clone(&coproc.counters));
            let stats = Arc::new(FsProxyStats::default());
            fs_stats.push(Arc::clone(&stats));
            let mut proxy = FsProxy::new(
                Arc::clone(&fs),
                Arc::clone(&coproc.window),
                machine.ssd_p2p_crosses_numa(coproc.id),
                stats,
            );
            proxy.set_lease_manager(Arc::clone(&lease_mgr), coproc.id);
            proxy.set_tenant_ledger(Arc::clone(&tenant_ledger));
            let sd = Arc::clone(&shutdown);
            let (req_rx, resp_tx) = (fs_ch.req_rx, fs_ch.resp_tx);
            let builder =
                std::thread::Builder::new().name(format!("solros-fs-proxy-{}", coproc.id));
            let gate = qos.enabled.then(|| {
                HostGate::per_class(
                    &format!("fs{}", coproc.id),
                    &qos,
                    &host_qos,
                    Service::Fs,
                    coproc.id as usize,
                )
            });
            if let Some(gate) = &gate {
                fs_qos_stats.push(gate.stats());
                // Leased bypass bytes are charged to the bulk-data flow
                // so zero-RPC traffic cannot evade tenant accounting.
                proxy.set_lease_charge(gate.stats(), QosClass::BestEffort.index());
            }
            threads.push(
                builder
                    .spawn(move || proxy.serve(req_rx, resp_tx, sd, gate))
                    .expect("spawn fs proxy"),
            );
            let fs_client = RpcClient::with_link(
                fs_ch.req_tx,
                fs_ch.resp_rx,
                credit_pool("fs"),
                Arc::clone(&fs_ch.req_ring),
                Arc::clone(&fs_ch.resp_ring),
            );
            fs_client.set_error_encoder(|tag, err| {
                solros_proto::fs_msg::FsResponse::Error { err }.encode(tag)
            });
            let mut coproc_fs = CoprocFs::new(
                fs_client,
                Arc::clone(&coproc.window),
                Arc::clone(&coproc.alloc),
            );
            coproc_fs.set_lease_table(Arc::new(LeaseTable::new(
                Arc::clone(&machine.nvme),
                Arc::clone(&coproc.window),
                Arc::clone(&coproc.alloc),
                Arc::clone(&lease_mgr),
            )));
            let coproc_fs = Arc::new(coproc_fs);

            // ---- Network service ----
            let net_ch = Channel::new(Arc::clone(&coproc.counters));
            let (evt_tx, evt_rx) = event_ring(Arc::clone(&coproc.counters));
            net_host_channels.push(NetChannelHost {
                req_rx: net_ch.req_rx,
                resp_tx: net_ch.resp_tx,
                evt_tx,
            });
            let net_client = RpcClient::with_link(
                net_ch.req_tx,
                net_ch.resp_rx,
                credit_pool("net"),
                Arc::clone(&net_ch.req_ring),
                Arc::clone(&net_ch.resp_ring),
            );
            net_client.set_error_encoder(|tag, err| {
                solros_proto::net_msg::NetResponse::Error { err }.encode(tag)
            });
            let (coproc_net, dispatcher) =
                CoprocNet::start(net_client, evt_rx, Arc::clone(&shutdown));
            threads.push(dispatcher);

            data_planes.push(DataPlane {
                fs: coproc_fs,
                net: coproc_net,
            });
        }

        // ---- TCP proxy (one engine shard per NUMA domain) ----
        //
        // Co-processors are grouped by the socket they attach to; each
        // group gets its own proxy thread with a local replica of the
        // shared listener/balancer state, kept convergent through the
        // TcpControl operation log (NRK-style node replication).
        let mut domains: Vec<Vec<usize>> = Vec::new();
        let mut domain_of_socket: Vec<Option<usize>> =
            vec![None; machine.topology.sockets() as usize];
        for coproc in &machine.coprocs {
            let socket = machine
                .topology
                .socket_of(DeviceId::Coproc(coproc.id))
                .unwrap_or(0) as usize;
            let d = *domain_of_socket[socket].get_or_insert_with(|| {
                domains.push(Vec::new());
                domains.len() - 1
            });
            domains[d].push(coproc.id as usize);
        }
        let tcp_control = TcpControl::new(domains.len().max(1), machine.coprocs.len());
        let mut net_host_channels: Vec<Option<NetChannelHost>> =
            net_host_channels.into_iter().map(Some).collect();
        let mut tcp_stats = Vec::new();
        let mut tcp_qos_stats = Vec::new();
        // The supervisor keeps the pieces needed to resurrect any shard:
        // the control spine, the lease/tenant planes to reconcile, the
        // QoS config and balancer prototype to rebuild from, and a clone
        // of each shard's ring endpoints.
        let supervisor = Arc::new(ShardSupervisor::new(
            Arc::clone(&machine.network),
            Arc::clone(&tcp_control),
            Arc::clone(&lease_mgr),
            Arc::clone(&tenant_ledger),
            qos.clone(),
            Arc::clone(&host_qos),
            lb,
            Arc::clone(&shutdown),
        ));
        for (d, coprocs) in domains.into_iter().enumerate() {
            let channels: Vec<NetChannelHost> = coprocs
                .iter()
                .map(|&c| net_host_channels[c].take().expect("channel taken once"))
                .collect();
            let (mut shard, stats) = TcpProxy::shard(
                Arc::clone(&machine.network),
                Arc::clone(&tcp_control),
                d,
                coprocs,
                channels.clone(),
                supervisor.fork_lb(),
            );
            tcp_stats.push(Arc::clone(&stats));
            shard.set_tenant_ledger(Arc::clone(&tenant_ledger));
            if qos.enabled {
                tcp_qos_stats.push(shard.enable_qos(&qos, &host_qos));
            }
            supervisor.adopt(shard, stats, channels);
        }
        {
            let sup = Arc::clone(&supervisor);
            threads.push(
                std::thread::Builder::new()
                    .name("solros-shard-supervisor".into())
                    .spawn(move || sup.watch())
                    .expect("spawn shard supervisor"),
            );
        }

        Solros {
            machine,
            fs,
            data_planes,
            fs_stats,
            tcp_stats,
            tcp_control,
            fs_qos_stats,
            tcp_qos_stats,
            lease_mgr,
            supervisor,
            tenant_ledger,
            tenant_view,
            host_qos,
            shutdown,
            threads,
        }
    }

    /// Number of co-processors.
    pub fn coprocs(&self) -> usize {
        self.data_planes.len()
    }

    /// One co-processor's data plane.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn data_plane(&self, i: usize) -> &DataPlane {
        &self.data_planes[i]
    }

    /// The host-side file system (control-plane view; used by benches to
    /// pre-populate data and inspect the cache).
    pub fn host_fs(&self) -> &Arc<FileSystem> {
        &self.fs
    }

    /// The NIC fabric (drive it as the external client machine).
    pub fn network(&self) -> &Arc<Network> {
        &self.machine.network
    }

    /// The underlying machine (topology, counters, devices).
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// FS-proxy statistics for co-processor `i`.
    pub fn fs_proxy_stats(&self, i: usize) -> &Arc<FsProxyStats> {
        &self.fs_stats[i]
    }

    /// Number of TCP proxy shards (one per NUMA domain hosting
    /// co-processors).
    pub fn tcp_domains(&self) -> usize {
        self.tcp_stats.len()
    }

    /// TCP-proxy statistics for NUMA domain `d`, matching the per-domain
    /// granularity of [`Solros::fs_proxy_stats`]. The `events` and
    /// `accepted` counters are machine-global (identical through every
    /// domain's handle); the engine lifecycle ledger is per shard.
    pub fn tcp_proxy_stats(&self, d: usize) -> &Arc<TcpProxyStats> {
        &self.tcp_stats[d]
    }

    /// Counters of the TCP control-plane operation log: depth, combine
    /// factor, and the replica-overrun tripwire (must stay 0).
    pub fn tcp_control_log_stats(&self) -> LogStats {
        self.tcp_control.log_stats()
    }

    /// QoS ledger for co-processor `i`'s FS gate, or `None` when the
    /// system was booted pass-through (QoS disabled).
    pub fn fs_qos_stats(&self, i: usize) -> Option<&Arc<QosStats>> {
        self.fs_qos_stats.get(i)
    }

    /// QoS ledger for NUMA domain `d`'s TCP gate, or `None` when
    /// pass-through.
    pub fn tcp_qos_stats(&self, d: usize) -> Option<&Arc<QosStats>> {
        self.tcp_qos_stats.get(d)
    }

    /// The host-global tenant→service→flow QoS hierarchy: tenant
    /// weights/budgets, and the flow-table occupancy/GC ledger
    /// aggregated across every gate shard.
    pub fn host_qos(&self) -> &Arc<HostScheduler> {
        &self.host_qos
    }

    /// The system-wide extent-lease control plane (ledger, fault hooks,
    /// recall budget).
    pub fn lease_manager(&self) -> &Arc<LeaseManager> {
        &self.lease_mgr
    }

    /// The shard supervisor: per-domain health, failover counters, fault
    /// arming points, and the merged [`solros_faults::RecoveryReport`].
    pub fn supervisor(&self) -> &Arc<ShardSupervisor> {
        &self.supervisor
    }

    /// The supervisor's merged recovery bookkeeping (failovers, blackout
    /// time, overrun rebuilds, wave resubmits, event drops).
    pub fn recovery_report(&self) -> solros_faults::RecoveryReport {
        self.supervisor.report()
    }

    /// The system-wide tenant ledger log (budget setting, extra
    /// replicas). Charges accrue only on QoS-gated admission paths.
    pub fn tenant_ledger(&self) -> &Arc<TenantLedger> {
        &self.tenant_ledger
    }

    /// The host observer's view of `tenant`'s usage, synced to the log
    /// tail at the call.
    pub fn tenant_usage(&self, tenant: u8) -> TenantUsage {
        self.tenant_view.usage(tenant)
    }

    /// Counters of the tenant-ledger operation log; `appends` stays far
    /// below admitted ops because engines batch one charge per
    /// (tenant, admission burst).
    pub fn tenant_ledger_log_stats(&self) -> LogStats {
        self.tenant_ledger.log_stats()
    }

    /// Stops all proxy threads and joins them.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        // Shard threads are owned by the supervisor (it must be able to
        // join and replace them mid-run); joined last, after its own
        // watch thread has exited, so no failover can race the joins.
        self.supervisor.join_all();
    }
}

impl Drop for Solros {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn boot_fs_roundtrip_both_coprocs() {
        let sys = Solros::boot(MachineConfig::small());
        for i in 0..sys.coprocs() {
            let fs = sys.data_plane(i).fs();
            let dir = format!("/cp{i}");
            fs.mkdir(&dir).unwrap();
            let f = fs.create(&format!("{dir}/data")).unwrap();
            let payload: Vec<u8> = (0..20_000).map(|x| (x % 251) as u8).collect();
            assert_eq!(fs.write_at(f, 0, &payload).unwrap(), payload.len());
            let back = fs.read_to_vec(f, 0, payload.len()).unwrap();
            assert_eq!(back, payload);
            assert_eq!(fs.fstat(f).unwrap().size, payload.len() as u64);
        }
        // Both co-processors see the same namespace (shared FS).
        let names = sys.data_plane(0).fs().readdir("/").unwrap();
        assert_eq!(names, vec!["cp0", "cp1"]);
        sys.shutdown();
    }

    #[test]
    fn boot_network_echo() {
        let sys = Solros::boot(MachineConfig::small());
        let net = sys.data_plane(0).net().clone();
        let listener = net.listen(7777, 16).unwrap();

        // External client connects and sends a ping.
        let fabric = Arc::clone(sys.network());
        let client = std::thread::spawn(move || {
            let conn = loop {
                match fabric.client_connect(7777, 42) {
                    Ok(c) => break c,
                    Err(_) => std::thread::yield_now(),
                }
            };
            fabric
                .send(conn, solros_netdev::EndKind::Client, b"ping")
                .unwrap();
            // Wait for the echo.
            loop {
                let got = fabric
                    .recv(conn, solros_netdev::EndKind::Client, 16)
                    .unwrap();
                if !got.is_empty() {
                    assert_eq!(got, b"pong");
                    break;
                }
                std::thread::yield_now();
            }
            fabric.close(conn, solros_netdev::EndKind::Client).unwrap();
        });

        let (stream, peer) = listener
            .accept_timeout(Duration::from_secs(5))
            .expect("accept");
        assert_eq!(peer, 42);
        let mut buf = [0u8; 16];
        let n = stream.recv(&mut buf);
        assert_eq!(&buf[..n], b"ping");
        stream.send(b"pong").unwrap();
        client.join().unwrap();
        sys.shutdown();
    }

    #[test]
    fn boot_qos_enforcing_roundtrips_fs_and_net() {
        let sys = Solros::boot_qos(MachineConfig::small(), QosConfig::enforcing());
        // FS ops flow through the DWRR gate and still round-trip.
        let fs = sys.data_plane(0).fs();
        let f = fs.create("/gated").unwrap();
        let payload: Vec<u8> = (0..20_000).map(|x| (x % 241) as u8).collect();
        assert_eq!(fs.write_at(f, 0, &payload).unwrap(), payload.len());
        assert_eq!(fs.read_to_vec(f, 0, payload.len()).unwrap(), payload);

        // Network echo still works through the gated TCP proxy.
        let net = sys.data_plane(0).net().clone();
        let listener = net.listen(7788, 16).unwrap();
        let fabric = Arc::clone(sys.network());
        let client = std::thread::spawn(move || {
            let conn = loop {
                match fabric.client_connect(7788, 7) {
                    Ok(c) => break c,
                    Err(_) => std::thread::yield_now(),
                }
            };
            fabric
                .send(conn, solros_netdev::EndKind::Client, b"hi")
                .unwrap();
            loop {
                let got = fabric
                    .recv(conn, solros_netdev::EndKind::Client, 16)
                    .unwrap();
                if !got.is_empty() {
                    assert_eq!(got, b"ok");
                    break;
                }
                std::thread::yield_now();
            }
        });
        let (stream, _) = listener
            .accept_timeout(Duration::from_secs(5))
            .expect("accept");
        let mut buf = [0u8; 16];
        let n = stream.recv(&mut buf);
        assert_eq!(&buf[..n], b"hi");
        stream.send(b"ok").unwrap();
        client.join().unwrap();

        // The QoS ledgers saw the traffic and shed nothing at this load.
        let ledger = sys.fs_qos_stats(0).expect("qos enabled");
        let snaps = ledger.snapshot();
        assert!(snaps.iter().map(|s| s.dispatched).sum::<u64>() > 0);
        assert_eq!(ledger.total_shed(), 0);
        assert!(snaps.iter().all(|s| s.accounted()));
        let net_ledger = sys.tcp_qos_stats(0).expect("qos enabled");
        assert!(
            net_ledger
                .snapshot()
                .iter()
                .map(|s| s.dispatched)
                .sum::<u64>()
                > 0
        );

        // Every gated admission above ran as the default tenant (0);
        // the replicated tenant ledger must have charged it — at least
        // the write+read payloads in bytes — and the engines batch, so
        // appends stay at or below ops charged.
        let usage = sys.tenant_usage(0);
        assert!(usage.ops >= 4, "fs + net admissions charged: {usage:?}");
        assert!(usage.bytes >= 40_000, "payload bytes charged: {usage:?}");
        let log = sys.tenant_ledger_log_stats();
        assert!(log.appends <= usage.ops);
        sys.shutdown();
    }

    #[test]
    fn default_qos_config_is_pass_through() {
        let sys = Solros::boot_qos(MachineConfig::small(), QosConfig::default());
        assert!(sys.fs_qos_stats(0).is_none());
        assert!(sys.tcp_qos_stats(0).is_none());
        let fs = sys.data_plane(0).fs();
        let f = fs.create("/plain").unwrap();
        assert_eq!(fs.write_at(f, 0, b"abc").unwrap(), 3);
        assert_eq!(fs.read_to_vec(f, 0, 3).unwrap(), b"abc");
        sys.shutdown();
    }

    #[test]
    fn shared_listening_socket_round_robins() {
        let sys = Solros::boot(MachineConfig::small());
        // Both co-processors listen on the same port (§4.4.3).
        let l0 = sys.data_plane(0).net().listen(8080, 64).unwrap();
        let l1 = sys.data_plane(1).net().listen(8080, 64).unwrap();

        let fabric = Arc::clone(sys.network());
        for i in 0..10u64 {
            loop {
                if fabric.client_connect(8080, i).is_ok() {
                    break;
                }
                std::thread::yield_now();
            }
        }
        // Round-robin: each listener accepts 5.
        let mut got0 = 0;
        let mut got1 = 0;
        for _ in 0..5 {
            assert!(l0.accept_timeout(Duration::from_secs(5)).is_some());
            got0 += 1;
            assert!(l1.accept_timeout(Duration::from_secs(5)).is_some());
            got1 += 1;
        }
        assert_eq!((got0, got1), (5, 5));
        // MachineConfig::small has two sockets, so the shared listening
        // socket spans two proxy shards coordinated through the op log.
        assert_eq!(sys.tcp_domains(), 2);
        let s = sys.tcp_proxy_stats(0);
        assert_eq!(s.accepted[0].load(Ordering::Relaxed), 5);
        assert_eq!(s.accepted[1].load(Ordering::Relaxed), 5);
        let log = sys.tcp_control_log_stats();
        assert_eq!(log.overruns, 0, "replica divergence tripwire");
        assert!(log.appends >= 12, "2 listens + 10 assigns: {log:?}");
        sys.shutdown();
    }
}
