//! Domain failover: the shard supervisor.
//!
//! One supervisor watches every per-NUMA TCP engine shard through its
//! [`ShardHealth`] cell. Each engine cycle bumps the cell's heartbeat;
//! the supervisor samples on a fixed tick and declares a shard dead on
//! either signal:
//!
//! * **crash** — the serve loop exited abruptly and flagged itself down
//!   ([`ShardHealth::is_down`]), or
//! * **wedge** — the heartbeat froze for [`WEDGE_TICKS`] consecutive
//!   ticks while the loop still spins (detection by stall, the only
//!   evidence a wedge leaves). A shard parked on its doorbell says so
//!   ([`ShardHealth::is_parked`]) and is not suspected.
//!
//! Failover is a fixed sequence whose order carries the exactly-once
//! guarantee (every admitted tag resolves exactly once, no credit or
//! tenant charge leaks):
//!
//! 1. **Fence** the cell and join the shard thread. A wedged loop exits
//!    on seeing the fence; a live-but-suspected loop complies at its
//!    next cycle boundary with a complete wreck (forcible fence), so a
//!    false positive costs churn, never correctness. After the join, no
//!    further appends from the dead shard can race the scrub.
//! 2. **Publish the wreck** verbatim on the very response rings the
//!    shard served: already-computed replies first-class, one `Gone`
//!    per admitted-but-unserved tag. Tags queued in the request rings
//!    but never admitted are *left in place* — the replacement serves
//!    them — so nothing is answered twice and nothing is lost.
//! 3. **Scrub**: close every connection the dead shard owned, refuse
//!    the handoffs parked in its inbox, retire its log cursor so the
//!    corpse neither pins compaction nor counts as a laggard.
//! 4. **Re-steer** through the control log: one `ShardFenced` append
//!    strips the dead shard's listeners, re-homes its ports to an heir,
//!    and releases its balancer charges — applied exactly once by every
//!    surviving replica at one log position.
//! 5. **Reclaim leases** anchored on the dead shard's co-processors
//!    (force-recall; holders fall back to the RPC path) and append
//!    tenant-ledger refunds for the wreck's never-served admissions.
//! 6. **Replace**: spawn a fresh shard over the same rings, its replica
//!    seeded from the observer snapshot under live traffic
//!    ([`TcpProxy::rebuild_from_observer`]), its sock-id stride resumed
//!    past the dead incarnation's allocations, its rejoin appended
//!    before the seed so it never sees itself fenced.
//!
//! The blackout window — fence to replacement serving — is bounded by
//! detection (≤ `WEDGE_TICKS`·tick for a wedge, ≤ 1 tick for a crash)
//! plus the scrub, which is O(connections owned by the dead shard).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use solros_faults::{EngineFaults, RecoveryReport};
use solros_lease::LeaseManager;
use solros_netdev::Network;
use solros_qos::{HostScheduler, QosConfig, TenantLedger};
use solros_simkit::sync::Mutex;

use crate::proxy_engine::ShardHealth;
use crate::tcp_proxy::{LoadBalancer, NetChannelHost, TcpControl, TcpProxy, TcpProxyStats};

/// Supervisor sampling period.
pub const TICK: Duration = Duration::from_millis(2);

/// Consecutive ticks a heartbeat may stand still before the shard is
/// declared wedged. Generous relative to an engine cycle (sub-µs) so a
/// descheduled-but-healthy shard is unlikely to be suspected; if it is,
/// the forcible fence keeps the failover correct anyway.
pub const WEDGE_TICKS: u32 = 8;

/// Everything the supervisor needs to watch, kill, and resurrect one
/// engine shard.
struct ShardSlot {
    proxy: Arc<TcpProxy>,
    health: Arc<ShardHealth>,
    handle: Option<JoinHandle<()>>,
    stats: Arc<TcpProxyStats>,
    /// Global co-processor ids this slot serves (lease anchors).
    coprocs: Vec<usize>,
    /// Ring endpoints to hand a replacement (shared handles).
    channels: Vec<NetChannelHost>,
    /// Heartbeat sampled at the previous tick.
    last_beats: u64,
    /// Ticks the heartbeat has stood still.
    stalled_ticks: u32,
}

/// Health-checks every engine shard and fails crashed/wedged ones over
/// to replacements rebuilt from the control log (see module docs).
pub struct ShardSupervisor {
    network: Arc<Network>,
    control: Arc<TcpControl>,
    lease_mgr: Arc<LeaseManager>,
    tenant_ledger: Arc<TenantLedger>,
    qos: QosConfig,
    /// Host-global QoS hierarchy replacement shards re-register under.
    host_qos: Arc<HostScheduler>,
    /// Prototype the replacement shards' balancer replicas fork from.
    lb_proto: Box<dyn LoadBalancer>,
    shutdown: Arc<AtomicBool>,
    slots: Mutex<Vec<ShardSlot>>,
    /// Accumulated failover bookkeeping (merged into [`Self::report`]).
    tally: Mutex<RecoveryReport>,
}

impl ShardSupervisor {
    /// A supervisor over no shards yet; [`ShardSupervisor::adopt`] each
    /// spawned shard during boot.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        network: Arc<Network>,
        control: Arc<TcpControl>,
        lease_mgr: Arc<LeaseManager>,
        tenant_ledger: Arc<TenantLedger>,
        qos: QosConfig,
        host_qos: Arc<HostScheduler>,
        lb_proto: Box<dyn LoadBalancer>,
        shutdown: Arc<AtomicBool>,
    ) -> Self {
        Self {
            network,
            control,
            lease_mgr,
            tenant_ledger,
            qos,
            host_qos,
            lb_proto,
            shutdown,
            slots: Mutex::new(Vec::new()),
            tally: Mutex::new(RecoveryReport::default()),
        }
    }

    /// Forks a fresh balancer replica from the boot prototype (used for
    /// the initial shards as well as replacements, so every incarnation
    /// descends from the same policy).
    pub(crate) fn fork_lb(&self) -> Box<dyn LoadBalancer> {
        self.lb_proto.fork()
    }

    /// Registers a booted shard (slot index == domain id == shard id).
    pub(crate) fn adopt(
        &self,
        proxy: Arc<TcpProxy>,
        health: Arc<ShardHealth>,
        handle: JoinHandle<()>,
        stats: Arc<TcpProxyStats>,
        channels: Vec<NetChannelHost>,
    ) {
        let coprocs = proxy.served_coprocs().to_vec();
        self.slots.lock().push(ShardSlot {
            proxy,
            health,
            handle: Some(handle),
            stats,
            coprocs,
            channels,
            last_beats: 0,
            stalled_ticks: 0,
        });
    }

    /// One health-check pass over every shard: crash detection by the
    /// down flag, wedge detection by heartbeat stall. Runs on the
    /// supervisor thread every [`TICK`]; tests may call it directly to
    /// drive detection deterministically.
    pub fn tick(&self) {
        let mut slots = self.slots.lock();
        for d in 0..slots.len() {
            let slot = &mut slots[d];
            if slot.handle.is_none() {
                continue;
            }
            if slot.health.is_down() {
                self.fail_over(d, slot);
                continue;
            }
            let beats = slot.health.beats();
            // A shard asleep on its doorbell is idle, not wedged: its
            // bounded parks keep it beating, but how late a wake-up is
            // delivered is the scheduler's business, not the shard's.
            if beats == slot.last_beats && !slot.health.is_parked() {
                slot.stalled_ticks += 1;
                if slot.stalled_ticks >= WEDGE_TICKS {
                    self.fail_over(d, slot);
                }
            } else {
                slot.last_beats = beats;
                slot.stalled_ticks = 0;
            }
        }
    }

    /// The full failover sequence for shard `d` (see module docs for why
    /// the order is load-bearing). On return the slot holds a live
    /// replacement serving the same rings.
    fn fail_over(&self, d: usize, slot: &mut ShardSlot) {
        let t0 = Instant::now();
        // 1. Fence and join: after this, the dead shard appends nothing.
        slot.health.fence();
        if let Some(handle) = slot.handle.take() {
            let _ = handle.join();
        }
        let wreck = slot.health.take_wreck().unwrap_or_default();

        // 2. Publish the wreck on the shard's own response rings.
        let lanes = slot.proxy.lane_endpoints();
        for (lane, frame) in wreck.replies {
            if let Some((_, resp_tx)) = lanes.get(lane) {
                if frame.len() <= resp_tx.max_element() {
                    let _ = resp_tx.send_blocking(&frame);
                }
            }
        }

        // 3. Scrub the corpse: close its connections, refuse its parked
        //    handoffs, retire its cursor. The sock-id stride resumes in
        //    the replacement so no id is ever reused.
        let next_sock = slot.proxy.scrub_after_fence();
        self.control.drain_dead_inbox(d, &self.network);

        // 4. Re-steer listeners through the log, exactly once per
        //    replica. The heir is the next slot cyclically; with no
        //    other shard the scrub already released the NIC listeners.
        let nshards = self.control.shards();
        let heir = if nshards > 1 { (d + 1) % nshards } else { d };
        self.control.append_fence(d, heir);

        // 5. Reclaim leases anchored on the dead domain's co-processors
        //    and refund the wreck's never-served admission charges.
        for &c in &slot.coprocs {
            let _ = self.lease_mgr.revoke_coproc(c as u8);
        }
        for (tenant, ops, bytes) in wreck.refunds {
            self.tenant_ledger.refund(tenant, ops, bytes);
        }

        // 6. Replacement: same rings, fresh replica seeded from the
        //    observer snapshot. Rejoin is appended *before* the seed so
        //    the replacement never observes itself fenced.
        let (mut repl, stats) = TcpProxy::shard(
            Arc::clone(&self.network),
            Arc::clone(&self.control),
            d,
            slot.coprocs.clone(),
            slot.channels.clone(),
            self.lb_proto.fork(),
        );
        repl.set_tenant_ledger(Arc::clone(&self.tenant_ledger));
        if self.qos.enabled {
            let _ = repl.enable_qos(&self.qos, &self.host_qos);
        }
        let health = Arc::new(ShardHealth::new());
        repl.set_health(Arc::clone(&health));
        let repl = Arc::new(repl);
        self.control.append_rejoin(d);
        repl.rebuild_from_observer();
        repl.set_next_sock(next_sock);
        let sd = Arc::clone(&self.shutdown);
        let runner = Arc::clone(&repl);
        let handle = std::thread::Builder::new()
            .name(format!("solros-tcp-proxy-{d}"))
            .spawn(move || runner.run_shared(sd))
            .expect("spawn replacement shard");

        slot.proxy = repl;
        slot.health = health;
        slot.handle = Some(handle);
        slot.stats = stats;
        slot.last_beats = 0;
        slot.stalled_ticks = 0;

        let mut tally = self.tally.lock();
        tally.domains_failed_over += 1;
        tally.blackout_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Runs the sampling loop until shutdown (the supervisor thread).
    pub(crate) fn watch(&self) {
        while !self.shutdown.load(Ordering::Relaxed) {
            std::thread::sleep(TICK);
            self.tick();
        }
    }

    /// Joins every shard thread (shutdown path; the flag must already be
    /// set so wedge-held loops exit).
    pub(crate) fn join_all(&self) {
        let mut slots = self.slots.lock();
        for slot in slots.iter_mut() {
            if let Some(handle) = slot.handle.take() {
                let _ = handle.join();
            }
        }
    }

    /// Number of supervised shards.
    pub fn shards(&self) -> usize {
        self.slots.lock().len()
    }

    /// Engine fault hooks of shard `d`'s *current* incarnation (arming
    /// point for [`solros_faults::FaultKind::DomainCrash`] /
    /// [`solros_faults::FaultKind::DomainWedge`] /
    /// [`solros_faults::FaultKind::OplogReplicaLag`]).
    pub fn shard_faults(&self, d: usize) -> Arc<EngineFaults> {
        self.slots.lock()[d].proxy.faults()
    }

    /// Statistics handle of shard `d`'s current incarnation (the boot
    /// handle goes stale after a failover).
    pub fn shard_stats(&self, d: usize) -> Arc<TcpProxyStats> {
        Arc::clone(&self.slots.lock()[d].stats)
    }

    /// Control-replica fingerprint of every live shard, each synced to
    /// the log tail first. Convergence (all equal) is the replicated
    /// control plane's correctness gate after a failover storm.
    pub fn replica_fingerprints(&self) -> Vec<u64> {
        self.slots
            .lock()
            .iter()
            .filter(|s| s.handle.is_some() && s.health.is_live())
            .map(|s| s.proxy.replica_fingerprint())
            .collect()
    }

    /// Failovers completed so far.
    pub fn failovers(&self) -> u64 {
        self.tally.lock().domains_failed_over
    }

    /// The supervisor's accumulated recovery bookkeeping, merged with
    /// the control plane's counters: overrun rebuilds, reply-wave
    /// resubmits across every lane, and dropped TCP events.
    pub fn report(&self) -> RecoveryReport {
        let mut r = *self.tally.lock();
        r.oplog_overruns_recovered = self.control.overruns_recovered();
        r.event_drops = self.control.event_drops();
        let slots = self.slots.lock();
        r.reply_wave_resubmits = slots
            .iter()
            .flat_map(|s| s.channels.iter())
            .map(|ch| ch.resp_tx.wave_resubmits())
            .sum();
        r
    }
}
