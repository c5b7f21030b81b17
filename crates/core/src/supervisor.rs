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
//! 1. **Fence** the cell and join the shard thread, which hands back the
//!    proxy its engine owned. A wedged loop exits on seeing the fence; a
//!    live-but-suspected loop complies at its next cycle boundary with a
//!    complete wreck (forcible fence), so a false positive costs churn,
//!    never correctness. After the join, nothing the dead shard does can
//!    race the scrub.
//! 2. **Publish the wreck** verbatim on the very response rings the
//!    shard served: already-computed replies first-class, one `Gone`
//!    per admitted-but-unserved tag. Tags queued in the request rings
//!    but never admitted are *left in place* — the replacement serves
//!    them — so nothing is answered twice and nothing is lost.
//! 3. **Scrub** the proxy the join handed back: close every connection
//!    the dead shard owned and clear its accept and event queues.
//! 4. **Re-steer** in the control table, under its lock: strip the dead
//!    shard's listeners, re-home its ports to an heir, unlisten the
//!    ports left empty, release its balancer charges wholesale and
//!    refuse the handoffs parked in its inbox.
//! 5. **Reclaim leases** anchored on the dead shard's co-processors
//!    (force-recall; holders fall back to the RPC path) and refund the
//!    wreck's never-served admissions to their tenants in the host QoS
//!    directory.
//! 6. **Replace**: build a fresh shard over the same rings and the same
//!    control table, resume its sock-id stride past the dead
//!    incarnation's allocations, and spawn it.
//!
//! At shutdown the supervisor joins every shard and keeps the proxies
//! they hand back; [`ShardSupervisor::control_audit`] checks the control
//! table against them there.
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
use solros_qos::{HostScheduler, QosConfig};
use solros_simkit::sync::Mutex;

use crate::proxy_engine::ShardHealth;
use crate::tcp_proxy::{NetChannelHost, TcpControl, TcpProxy};

/// Supervisor sampling period.
pub const TICK: Duration = Duration::from_millis(2);

/// Consecutive ticks a heartbeat may stand still before the shard is
/// declared wedged. Generous relative to an engine cycle (sub-µs) so a
/// descheduled-but-healthy shard is unlikely to be suspected; if it is,
/// the forcible fence keeps the failover correct anyway.
pub const WEDGE_TICKS: u32 = 8;

/// Everything the supervisor needs to watch, kill, and resurrect one
/// engine shard. The shard's engine owns its proxy; joining the thread
/// hands the proxy back.
struct ShardSlot {
    faults: Arc<EngineFaults>,
    health: Arc<ShardHealth>,
    handle: Option<JoinHandle<TcpProxy>>,
    /// The proxy `join_all` took back at shutdown.
    joined: Option<TcpProxy>,
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
/// to replacements over the same rings (see module docs).
pub struct ShardSupervisor {
    network: Arc<Network>,
    control: Arc<TcpControl>,
    lease_mgr: Arc<LeaseManager>,
    qos: QosConfig,
    /// Host-global QoS hierarchy replacement shards re-register under,
    /// and the tenant directory a wreck's refunds go back to.
    host_qos: Arc<HostScheduler>,
    shutdown: Arc<AtomicBool>,
    slots: Mutex<Vec<ShardSlot>>,
    /// Accumulated failover bookkeeping (merged into [`Self::report`]).
    tally: Mutex<RecoveryReport>,
}

impl ShardSupervisor {
    /// A supervisor over no shards yet; [`ShardSupervisor::adopt`] each
    /// spawned shard during boot.
    pub(crate) fn new(
        network: Arc<Network>,
        control: Arc<TcpControl>,
        lease_mgr: Arc<LeaseManager>,
        qos: QosConfig,
        host_qos: Arc<HostScheduler>,
        shutdown: Arc<AtomicBool>,
    ) -> Self {
        Self {
            network,
            control,
            lease_mgr,
            qos,
            host_qos,
            shutdown,
            slots: Mutex::new(Vec::new()),
            tally: Mutex::new(RecoveryReport::default()),
        }
    }

    /// Starts a booted shard and supervises it (slot index == domain id
    /// == shard id).
    pub(crate) fn adopt(&self, proxy: TcpProxy, channels: Vec<NetChannelHost>) {
        let mut slots = self.slots.lock();
        let coprocs = proxy.served_coprocs().to_vec();
        let faults = proxy.faults();
        let (health, handle) = self.launch(slots.len(), proxy);
        slots.push(ShardSlot {
            faults,
            health,
            handle: Some(handle),
            joined: None,
            coprocs,
            channels,
            last_beats: 0,
            stalled_ticks: 0,
        });
    }

    /// Gives shard `d`'s proxy a fresh health cell and starts it serving
    /// on a thread of its own, which hands the proxy back when it ends.
    fn launch(&self, d: usize, mut proxy: TcpProxy) -> (Arc<ShardHealth>, JoinHandle<TcpProxy>) {
        let health = Arc::new(ShardHealth::new());
        proxy.set_health(Arc::clone(&health));
        let sd = Arc::clone(&self.shutdown);
        let handle = std::thread::Builder::new()
            .name(format!("solros-tcp-proxy-{d}"))
            .spawn(move || proxy.run(sd))
            .expect("spawn tcp proxy shard");
        (health, handle)
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
        // 1. Fence and join: after this, the dead shard appends nothing,
        //    and its engine has handed its proxy back.
        slot.health.fence();
        let mut dead = slot
            .handle
            .take()
            .expect("a supervised shard is running")
            .join()
            .expect("a shard's engine hands its proxy back");
        let wreck = slot.health.take_wreck().unwrap_or_default();

        // 2. Publish the wreck on the shard's own response rings.
        for (lane, frame) in wreck.replies {
            if let Some(ch) = slot.channels.get(lane) {
                if frame.len() <= ch.resp_tx.max_element() {
                    let _ = ch.resp_tx.send_blocking(&frame);
                }
            }
        }

        // 3. Scrub the corpse: close its connections. The sock-id
        //    stride resumes in the replacement so no id is ever reused.
        let next_sock = dead.scrub_after_fence();

        // 4. Re-steer in the control table. The heir is the next slot
        //    cyclically; with no other shard, the fence empties every
        //    port the shard held and unlistens it.
        let nshards = self.control.shards();
        let heir = if nshards > 1 { (d + 1) % nshards } else { d };
        self.control.fence(d, heir, &self.network);

        // 5. Reclaim leases anchored on the dead domain's co-processors
        //    and refund the wreck's never-served admission charges.
        for &c in &slot.coprocs {
            let _ = self.lease_mgr.revoke_coproc(c as u8);
        }
        for (tenant, ops, bytes) in wreck.refunds {
            self.host_qos.refund(u64::from(tenant), ops, bytes);
        }

        // 6. Replacement: same rings, same control table.
        let (mut repl, _) = TcpProxy::shard(
            Arc::clone(&self.network),
            Arc::clone(&self.control),
            d,
            slot.coprocs.clone(),
            slot.channels.clone(),
        );
        if self.qos.enabled {
            repl.enable_qos(&self.qos, &self.host_qos);
        }
        repl.set_next_sock(next_sock);
        slot.faults = repl.faults();
        let (health, handle) = self.launch(d, repl);

        slot.health = health;
        slot.handle = Some(handle);
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

    /// Joins every shard thread and keeps the proxy each hands back
    /// (shutdown path; the flag must already be set so wedge-held loops
    /// exit).
    pub(crate) fn join_all(&self) {
        for slot in self.slots.lock().iter_mut() {
            if let Some(handle) = slot.handle.take() {
                slot.joined = handle.join().ok();
            }
        }
    }

    /// Number of supervised shards.
    pub fn shards(&self) -> usize {
        self.slots.lock().len()
    }

    /// Engine fault hooks of shard `d`'s *current* incarnation (arming
    /// point for [`solros_faults::FaultKind::DomainCrash`] /
    /// [`solros_faults::FaultKind::DomainWedge`]).
    pub fn shard_faults(&self, d: usize) -> Arc<EngineFaults> {
        Arc::clone(&self.slots.lock()[d].faults)
    }

    /// Audits the TCP control table against the socket tables of the
    /// proxies the shards handed back, one line per fault; empty when
    /// clean. It checks that every listener is a listening socket of its
    /// shard, that every port's home shard is live, and that every
    /// `(shard, balancer slot)` charge equals that shard's open accepted
    /// sockets on the slot plus the handoffs parked in its inbox. Read
    /// after the system has shut down: until then no proxy is back, and
    /// every shard reads as missing.
    pub fn control_audit(&self) -> Vec<String> {
        let slots = self.slots.lock();
        let mut live = Vec::new();
        let mut faults = Vec::new();
        for (d, slot) in slots.iter().enumerate() {
            match slot.joined.as_ref().filter(|_| slot.health.is_live()) {
                Some(proxy) => live.push(proxy),
                None => faults.push(format!("shard {d}: no live proxy handed back")),
            }
        }
        faults.extend(self.control.audit(&live));
        faults
    }

    /// Times the TCP control table has been locked since boot: by a
    /// listen, an accept, a close, a fence or an audit, never by an echo
    /// or an idle poll round.
    pub fn control_table_acquisitions(&self) -> u64 {
        self.control.table_acquisitions.load(Ordering::Relaxed)
    }

    /// Failovers completed so far.
    pub fn failovers(&self) -> u64 {
        self.tally.lock().domains_failed_over
    }

    /// The supervisor's accumulated recovery bookkeeping, merged with
    /// the control plane's counters: reply-wave resubmits across every
    /// lane, and dropped TCP events.
    pub fn report(&self) -> RecoveryReport {
        let mut r = *self.tally.lock();
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
