//! The control-plane TCP proxy (§4.4), sharded per NUMA domain.
//!
//! One [`TcpProxy`] engine shard runs per NUMA domain, serving the ten
//! socket RPCs for the co-processors attached to that domain (one engine
//! lane per co-processor) and polling the NIC fabric for the ports it is
//! *home* to. What the shards genuinely share — the shared-listening-
//! socket registry (§4.4.3) and the balancer's load view — is a single
//! logical state machine replicated per shard and driven by a
//! [`TcpControl`] operation log (NRK-style): mutations append, each
//! shard's replica applies the log through its private cursor, and reads
//! (routing a new connection, looking up a port's listeners) stay
//! domain-local with no cross-shard lock.
//!
//! Determinism of the paper's connection-based round-robin is preserved
//! by *home-shard polling*: the shard whose `ListenerAdd` created a port
//! record is the only one that polls the NIC for that port, so every
//! balancer pick for a port is made by one policy replica in arrival
//! order. Connections routed to a listener owned by another shard are
//! handed off through that shard's inbox queue.
//!
//! A shard's engine owns its proxy and is the only thread that touches
//! it ([`TcpProxy::run`] hands it back when the engine stops), so the
//! socket table, the replica and the send-staging table are plain
//! fields. The only locks left are the cross-shard ones in
//! [`TcpControl`]: the handoff inboxes and the observer replica.

use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use solros_faults::EngineFaults;
use solros_netdev::{ConnId, EndKind, Network, NetworkError};
use solros_oplog::{LogConfig, LogStats, OpLog, ReplicaCursor, SyncOutcome};
use solros_proto::codec::stamp_credit;
use solros_proto::net_msg::{NetEvent, NetRequest, NetResponse, SockId};
use solros_proto::rpc_error::RpcErr;
use solros_qos::{FlowSpec, HostGate, HostScheduler, QosClass, QosConfig, QosStats, Service};
use solros_ringbuf::{Consumer, Doorbell, Producer};
use solros_simkit::sync::Mutex;

use crate::proxy_engine::{
    EngineLane, GateJob, OpHandler, ProxyEngine, ProxyStats, ShardHealth, StagedPart,
};

pub use crate::balancer::{AddrHash, ConnMeta, LeastLoaded, LoadBalancer, RoundRobin};

/// Socket option: event-driven delivery (1 = events, 0 = RPC polling).
pub const SOCKOPT_EVENTED: u32 = 1;

/// Per-co-processor proxy-side channel endpoints. Clonable so the shard
/// supervisor can keep a set and hand fresh copies to a replacement
/// shard serving the same co-processors (ring endpoints are shared
/// handles over the same ring).
#[derive(Clone)]
pub struct NetChannelHost {
    /// Drains the co-processor's requests.
    pub req_rx: Consumer,
    /// Pushes replies.
    pub resp_tx: Producer,
    /// Pushes inbound events.
    pub evt_tx: Producer,
}

/// TCP-specific statistics (per co-processor accepted counts drive the
/// LB tests). Lifecycle counters live in the engine-owned ledger; this
/// struct derefs into it, so `.rpcs` / `.worker_panics` call sites work
/// unchanged. `events` and `accepted` are machine-global (shared by all
/// shards, indexed by global co-processor id); `engine` is per shard.
#[derive(Debug, Default)]
pub struct TcpProxyStats {
    /// This shard's engine-owned request-lifecycle ledger.
    pub engine: Arc<ProxyStats>,
    /// Events pushed (machine-global).
    pub events: Arc<AtomicU64>,
    /// Events that failed to enqueue on an event ring and were lost
    /// (machine-global). Must stay zero; E8 trips on any drop.
    pub event_drops: Arc<AtomicU64>,
    /// Connections accepted, indexed by global co-processor (shared).
    pub accepted: Arc<Vec<AtomicU64>>,
    /// Small `Send`s coalesced through the staging table (per shard).
    pub staged_sends: AtomicU64,
    /// Coalesced backend writes issued — one per `(lane, socket)` run
    /// per flush (per shard).
    pub send_waves: AtomicU64,
}

impl Deref for TcpProxyStats {
    type Target = ProxyStats;

    fn deref(&self) -> &ProxyStats {
        &self.engine
    }
}

/// One mutation of the shared TCP control state. Everything a shard must
/// agree on with its peers goes through the log; socket tables and
/// pending-accept queues stay shard-local.
#[derive(Clone, Debug)]
enum TcpCtrlOp {
    /// `sock` (owned by `shard`) joined the shared listening socket on
    /// `port`. The first add for a port makes `shard` the port's home.
    ListenerAdd {
        port: u16,
        sock: SockId,
        shard: usize,
    },
    /// `sock` left `port`'s shared listening socket.
    ListenerDel { port: u16, sock: SockId },
    /// The home shard routed a connection to balancer slot `slot`; the
    /// connection socket lives on `shard` (the listener's owner), so a
    /// fence of that shard can release the charge wholesale.
    ConnAssigned { slot: usize, shard: usize },
    /// A connection counted against balancer slot `slot` (charged to
    /// `shard`) closed.
    ConnClosed { slot: usize, shard: usize },
    /// The supervisor fenced `shard`: every replica removes its
    /// listeners, re-homes its ports to `heir`, and releases its
    /// outstanding balancer charges — exactly once, at one log position.
    ShardFenced { shard: usize, heir: usize },
    /// `shard`'s replacement is live; its id leaves the fenced set.
    ShardRejoined { shard: usize },
}

/// Applies one control operation to a replica's state. `lb` is absent on
/// the pure observer replica; `local` carries `(this shard, fabric)` for
/// the NIC-side effects exactly one replica performs per operation.
fn apply_ctrl_op(
    op: &TcpCtrlOp,
    registry: &mut HashMap<u16, PortRec>,
    conn_counts: &mut HashMap<(usize, usize), u64>,
    fenced: &mut HashSet<usize>,
    lb: Option<&dyn LoadBalancer>,
    local: Option<(usize, &Network)>,
) {
    match op {
        TcpCtrlOp::ListenerAdd { port, sock, shard } => {
            registry
                .entry(*port)
                .or_insert_with(|| PortRec {
                    listeners: Vec::new(),
                    home: *shard,
                })
                .listeners
                .push((*sock, *shard));
        }
        TcpCtrlOp::ListenerDel { port, sock } => {
            if let Some(rec) = registry.get_mut(port) {
                rec.listeners.retain(|(s, _)| s != sock);
                if rec.listeners.is_empty() {
                    // Exactly one shard releases the NIC listener: the
                    // record's home (every replica removes its local
                    // record at the same log position).
                    if let Some((me, network)) = local {
                        if rec.home == me {
                            network.unlisten(*port);
                        }
                    }
                    registry.remove(port);
                }
            }
        }
        TcpCtrlOp::ConnAssigned { slot, shard } => {
            // An assignment to an already-fenced shard (a lagging home
            // shard routed to its listeners before applying the fence)
            // is void: the handoff will be refused at delivery, and its
            // matching close is void by the count guard below.
            if fenced.contains(shard) {
                return;
            }
            if let Some(lb) = lb {
                lb.conn_assigned(*slot);
            }
            *conn_counts.entry((*shard, *slot)).or_insert(0) += 1;
        }
        TcpCtrlOp::ConnClosed { slot, shard } => {
            // Count-guarded: a close whose charge was already released
            // wholesale by a `ShardFenced` must not release it twice.
            match conn_counts.get_mut(&(*shard, *slot)) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    if *n == 0 {
                        conn_counts.remove(&(*shard, *slot));
                    }
                    if let Some(lb) = lb {
                        lb.conn_closed(*slot);
                    }
                }
                _ => {}
            }
        }
        TcpCtrlOp::ShardFenced { shard: dead, heir } => {
            fenced.insert(*dead);
            let mut emptied = Vec::new();
            for (port, rec) in registry.iter_mut() {
                rec.listeners.retain(|(_, s)| s != dead);
                if rec.listeners.is_empty() {
                    emptied.push(*port);
                } else if rec.home == *dead {
                    // Listener ownership moves: the heir polls the NIC
                    // for this port from here on.
                    rec.home = *heir;
                }
            }
            for port in emptied {
                let rec = registry.remove(&port).expect("emptied port present");
                let releaser = if rec.home == *dead { *heir } else { rec.home };
                if let Some((me, network)) = local {
                    if releaser == me {
                        network.unlisten(port);
                    }
                }
            }
            let dead_keys: Vec<(usize, usize)> = conn_counts
                .keys()
                .filter(|(s, _)| s == dead)
                .copied()
                .collect();
            for key in dead_keys {
                let n = conn_counts.remove(&key).unwrap_or(0);
                if let Some(lb) = lb {
                    for _ in 0..n {
                        lb.conn_closed(key.1);
                    }
                }
            }
        }
        TcpCtrlOp::ShardRejoined { shard } => {
            fenced.remove(shard);
        }
    }
}

/// FNV-1a digest of a replica's control view, order-normalised so any
/// two replicas holding equal state hash equal regardless of map
/// iteration order. Balancer tie-break cursors are deliberately excluded
/// (shard-local by design; see [`TcpProxy::rebuild_replica`]).
fn fingerprint(
    registry: &HashMap<u16, PortRec>,
    conn_counts: &HashMap<(usize, usize), u64>,
    fenced: &HashSet<usize>,
) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    let mut mix = |word: u64| {
        for byte in word.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(FNV_PRIME);
        }
    };
    let mut ports: Vec<&u16> = registry.keys().collect();
    ports.sort_unstable();
    for port in ports {
        let rec = &registry[port];
        mix(*port as u64);
        mix(rec.home as u64);
        // Listener order is semantic (balancer slots index into it), so
        // it is hashed as-is: an order divergence is a real divergence.
        for &(sock, shard) in &rec.listeners {
            mix(sock);
            mix(shard as u64);
        }
    }
    let mut counts: Vec<(&(usize, usize), &u64)> = conn_counts.iter().collect();
    counts.sort_unstable();
    for (&(shard, slot), &n) in counts {
        mix(shard as u64);
        mix(slot as u64);
        mix(n);
    }
    let mut dead: Vec<&usize> = fenced.iter().collect();
    dead.sort_unstable();
    for shard in dead {
        mix(*shard as u64);
    }
    h
}

/// A connection routed by a port's home shard to a listener owned by
/// another shard, waiting in the owner's inbox.
struct Handoff {
    conn: ConnId,
    client_addr: u64,
    listener: SockId,
    /// Balancer slot the connection was charged to at pick time.
    slot: usize,
}

/// Entries a control-log replica may lag before compaction advances
/// past it. Finite since the failover PR: a replica *can* now rebuild —
/// from the shared observer snapshot — so a stalled shard no longer
/// holds the log hostage. Generous enough that an overrun is an
/// injected-fault ([`solros_faults::FaultKind::OplogReplicaLag`]) path,
/// never a steady-state event.
pub const CTRL_MAX_LAG: u64 = 8192;

/// The control plane's snapshot source: a pure replica (no balancer, no
/// NIC side effects) of the log-driven state, synced opportunistically
/// by every shard's poll. Replicas that overrun the log, and replacement
/// shards born mid-stream, rebuild by cloning this state and resuming
/// from its cursor position.
struct CtrlObserver {
    cursor: ReplicaCursor,
    registry: HashMap<u16, PortRec>,
    conn_counts: HashMap<(usize, usize), u64>,
    fenced: HashSet<usize>,
}

/// The shared spine of the sharded TCP control plane: the operation log
/// plus the machine-global counters and cross-shard handoff inboxes.
pub struct TcpControl {
    log: Arc<OpLog<TcpCtrlOp>>,
    inboxes: Vec<Mutex<VecDeque<Handoff>>>,
    /// One doorbell per shard slot: the shard's engine sleeps on it, and
    /// whatever gives that shard work it cannot see on its own rings —
    /// a handoff into its inbox, a control-log append, NIC ingress —
    /// rings it. Owned here so it outlives a shard's incarnations.
    bells: Vec<Arc<Doorbell>>,
    /// Set once the NIC ingress hook for this control plane is in place.
    nic_hooked: AtomicBool,
    observer: Mutex<CtrlObserver>,
    /// Replica overruns recovered by an `install_snapshot` rebuild from
    /// the observer (the OplogReplicaLag recovery path).
    overruns_recovered: AtomicU64,
    events: Arc<AtomicU64>,
    event_drops: Arc<AtomicU64>,
    accepted: Arc<Vec<AtomicU64>>,
    nshards: usize,
}

impl TcpControl {
    /// Creates the control spine for `nshards` proxy shards serving
    /// `ncoprocs` co-processors in total.
    pub fn new(nshards: usize, ncoprocs: usize) -> Arc<Self> {
        Self::with_max_lag(nshards, ncoprocs, CTRL_MAX_LAG)
    }

    /// [`TcpControl::new`] with an explicit replica lag bound. A tiny
    /// bound lets tests and the E9 lag rig force the overrun → rebuild
    /// path with realistic traffic volumes.
    pub fn with_max_lag(nshards: usize, ncoprocs: usize, max_lag: u64) -> Arc<Self> {
        let log = OpLog::new(LogConfig {
            high_water: 4096,
            max_lag,
        });
        // The observer registers before any shard, so it sees every
        // operation from sequence zero.
        let observer = Mutex::new(CtrlObserver {
            cursor: log.register(),
            registry: HashMap::new(),
            conn_counts: HashMap::new(),
            fenced: HashSet::new(),
        });
        Arc::new(Self {
            log,
            inboxes: (0..nshards).map(|_| Mutex::new(VecDeque::new())).collect(),
            bells: (0..nshards).map(|_| Doorbell::new()).collect(),
            nic_hooked: AtomicBool::new(false),
            observer,
            overruns_recovered: AtomicU64::new(0),
            events: Arc::new(AtomicU64::new(0)),
            event_drops: Arc::new(AtomicU64::new(0)),
            accepted: Arc::new((0..ncoprocs).map(|_| AtomicU64::new(0)).collect()),
            nshards,
        })
    }

    /// Number of shards sharing this control plane.
    pub fn shards(&self) -> usize {
        self.nshards
    }

    /// Operation-log counters (depth, combine factor, overrun tripwire).
    pub fn log_stats(&self) -> LogStats {
        self.log.stats()
    }

    /// Events discarded because an event ring was full. Must stay zero;
    /// E8/E9 trip on any drop.
    pub fn event_drops(&self) -> u64 {
        self.event_drops.load(Ordering::Relaxed)
    }

    /// Replica overruns recovered via an observer-snapshot rebuild.
    pub fn overruns_recovered(&self) -> u64 {
        self.overruns_recovered.load(Ordering::Relaxed)
    }

    /// Applies every outstanding operation to the observer replica.
    /// Called opportunistically (try-lock) from each shard's poll and
    /// authoritatively (locked) when a replica rebuilds from it.
    fn sync_observer_locked(&self, obs: &mut CtrlObserver) {
        let CtrlObserver {
            cursor,
            registry,
            conn_counts,
            fenced,
        } = obs;
        let outcome = self.log.sync(cursor, |_, op| {
            apply_ctrl_op(op, registry, conn_counts, fenced, None, None);
        });
        debug_assert_ne!(
            outcome,
            SyncOutcome::Overrun,
            "the observer is synced on every shard poll and must never lag past max_lag"
        );
    }

    /// Appends one control operation and rings every shard: each
    /// replica has something to apply (and the appender's own bell is
    /// unarmed, so that one is a load).
    fn append(&self, op: TcpCtrlOp) {
        self.log.append(op);
        self.ring_all();
    }

    /// Rings every shard's doorbell (a control-log append, or NIC
    /// ingress whose owning shard the fabric does not know).
    fn ring_all(&self) {
        for bell in &self.bells {
            bell.ring();
        }
    }

    /// Queues a routed connection for its owning shard and wakes it.
    fn hand_off(&self, owner: usize, h: Handoff) {
        self.inboxes[owner].lock().push_back(h);
        self.bells[owner].ring();
    }

    /// Has the fabric ring this control plane's shards on ingress. Once
    /// per control plane, however many shard incarnations it sees.
    fn hook_nic(self: &Arc<Self>, network: &Network) {
        if !self.nic_hooked.swap(true, Ordering::SeqCst) {
            let control = Arc::clone(self);
            network.on_ingress(Arc::new(move || control.ring_all()));
        }
    }

    /// Publishes the fencing of `shard` (listener removal, port
    /// re-homing to `heir`, wholesale balancer-charge release).
    pub(crate) fn append_fence(&self, shard: usize, heir: usize) {
        self.append(TcpCtrlOp::ShardFenced { shard, heir });
    }

    /// Publishes that `shard`'s replacement is live again.
    pub(crate) fn append_rejoin(&self, shard: usize) {
        self.append(TcpCtrlOp::ShardRejoined { shard });
    }

    /// Refuses every handoff still parked in a dead shard's inbox: the
    /// connections close on the fabric; their balancer charges are
    /// released wholesale by the `ShardFenced` operation. Returns how
    /// many were refused.
    pub(crate) fn drain_dead_inbox(&self, shard: usize, network: &Network) -> usize {
        let mut n = 0;
        while let Some(h) = self.inboxes[shard].lock().pop_front() {
            let _ = network.close(h.conn, EndKind::Server);
            n += 1;
        }
        n
    }
}

enum SockState {
    Fresh,
    Bound(u16),
    Listening(u16),
    Conn { id: ConnId, end: EndKind },
    Closed,
}

struct SockRec {
    /// Global co-processor id owning the socket.
    coproc: usize,
    state: SockState,
    evented: bool,
    /// For evented conns: a Closed event has been delivered.
    close_sent: bool,
    /// For accepted conns: the balancer slot this connection counts
    /// against, so a `ConnClosed` is logged exactly once.
    lb_slot: Option<usize>,
}

/// Replicated view of one shared listening socket.
#[derive(Clone)]
struct PortRec {
    /// `(sock, owning shard)` in registration (log) order.
    listeners: Vec<(SockId, usize)>,
    /// The shard that polls the NIC for this port: the shard of the
    /// first `ListenerAdd`, fixed for the record's lifetime.
    home: usize,
}

/// One staged small `Send` awaiting its run's coalesced backend write.
struct StagedSend {
    tag: u32,
    credit: Option<u8>,
    /// Tenant charged at admission; refunded if the shard dies with the
    /// run un-flushed.
    tenant: u8,
    len: usize,
}

/// Contiguous small `Send`s on one `(lane, socket)`, coalesced into one
/// backend write and one reply wave.
#[derive(Default)]
struct SendRun {
    data: Vec<u8>,
    parts: Vec<StagedSend>,
}

/// The shard's send-coalescing table: arrival-ordered runs plus replies
/// already settled by a cap-triggered early flush, drained at the
/// engine's next wave flush.
#[derive(Default)]
struct SendStage {
    runs: Vec<((usize, SockId), SendRun)>,
    done: Vec<(usize, Vec<u8>)>,
    /// Settled runs, emptied, whose buffers the next runs start from.
    spare: Vec<SendRun>,
    /// The reply frame being encoded.
    frame: Vec<u8>,
}

impl SendStage {
    /// The index of the staged run for `key`, started if there is none.
    fn run_index(&mut self, key: (usize, SockId)) -> usize {
        match self.runs.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                self.runs.push((key, self.spare.pop().unwrap_or_default()));
                self.runs.len() - 1
            }
        }
    }

    /// Keeps a settled run's buffers for the next run.
    fn recycle(&mut self, mut run: SendRun) {
        run.data.clear();
        run.parts.clear();
        self.spare.push(run);
    }
}

impl SendRun {
    /// Emits the run's reply wave: each part answered with `outcome`, its
    /// backend write's, exactly as the unbatched `Send` arm of
    /// [`TcpProxy::handle`] would have answered it (the fabric accepts
    /// whole writes, so per-part `Sent` counts are byte-identical to
    /// one-at-a-time).
    fn answer(
        &self,
        lane: usize,
        outcome: Result<(), RpcErr>,
        frame: &mut Vec<u8>,
        reply: &mut dyn FnMut(usize, &[u8]),
    ) {
        for p in &self.parts {
            frame.clear();
            match outcome {
                Ok(()) => NetResponse::Sent {
                    count: p.len as u64,
                },
                Err(err) => NetResponse::Error { err },
            }
            .encode_into(p.tag, frame);
            if let Some(c) = p.credit {
                stamp_credit(frame, c);
            }
            reply(lane, frame);
        }
    }
}

/// One NUMA domain's TCP proxy shard, owned by the engine that serves
/// it: only the engine thread touches its tables, so none is locked.
/// `lb`, `registry`, `cursor`, `conn_counts` and `fenced` are this
/// shard's replica of the log-driven state machine; everything else is
/// shard-local.
pub struct TcpProxy {
    network: Arc<Network>,
    control: Arc<TcpControl>,
    shard: usize,
    /// Lane index -> global co-processor id.
    coprocs: Vec<usize>,
    stats: Arc<TcpProxyStats>,
    /// Engine-level fault hooks (worker panics, dropped replies).
    faults: Arc<EngineFaults>,
    /// Inbound event producers, indexed by lane.
    evt_tx: Vec<Producer>,
    /// Request/response lanes, handed to the engine by [`TcpProxy::run`].
    lanes: Vec<EngineLane>,
    lb: Box<dyn LoadBalancer>,
    registry: HashMap<u16, PortRec>,
    cursor: ReplicaCursor,
    /// Outstanding connections per `(owning shard, balancer slot)`,
    /// replicated so a `ShardFenced` can release a dead shard's charges
    /// wholesale and count-guard its straggling closes.
    conn_counts: HashMap<(usize, usize), u64>,
    /// Shards fenced and not yet rejoined; their assignments are void.
    fenced: HashSet<usize>,
    socks: HashMap<SockId, SockRec>,
    /// Live connections owned by evented sockets, polled for data.
    evented_conns: Vec<SockId>,
    /// Pending accepts for non-evented (RPC-polling) listeners.
    pending_accepts: HashMap<SockId, VecDeque<(SockId, u64)>>,
    next_sock: SockId,
    /// The event frame being encoded for an event ring.
    evt_frame: Vec<u8>,
    /// Home ports, copied out for one poll round's NIC scan.
    scan_ports: Vec<u16>,
    /// Evented connections, copied out for one poll round's data scan.
    scan_conns: Vec<SockId>,
    /// Small-`Send` coalescing table (see [`SendStage`]).
    send_stage: SendStage,
    /// QoS gate over per-(co-processor, class) flows; None = FIFO.
    qos: Option<HostGate<GateJob<NetRequest>>>,
    /// Failover handshake cell installed by the shard supervisor.
    health: Option<Arc<ShardHealth>>,
}

/// Max bytes pulled from the fabric per connection per poll round.
const RECV_CHUNK: usize = 64 * 1024;

/// `Send`s at or below this size coalesce through the staging table;
/// larger sends flush the socket's staged run and execute immediately
/// (the Fig 1b/Fig 14 small-message regime is what coalescing targets).
pub const STAGE_SEND_MAX: usize = 4096;

/// Byte cap per staged run: once a `(lane, socket)` run accumulates this
/// much, its backend write happens immediately rather than waiting for
/// the cycle flush, bounding both memory and added latency.
pub const STAGE_BYTES_CAP: usize = 64 * 1024;

/// Bounded wait for a previous home shard to apply a pending unlisten
/// before a fresh `listen` on the same port is declared AddrInUse.
const LISTEN_RETRIES: usize = 1024;

/// Maps a net request to (class offset within a co-processor's flow
/// pair, payload bytes): data movement is normal class (offset 1),
/// connection management is high (offset 0).
fn classify_net(req: &NetRequest) -> (usize, u64) {
    match req {
        NetRequest::Send { data, .. } => (1, data.len() as u64),
        NetRequest::Recv { max, .. } => (1, *max as u64),
        _ => (0, 0),
    }
}

impl TcpProxy {
    /// Creates a single-shard proxy over the NIC fabric and
    /// per-co-processor channels — the unsharded (one NUMA domain)
    /// convenience used by handler-level tests; [`Solros::boot`]
    /// assembles one shard per domain via [`TcpProxy::shard`].
    ///
    /// [`Solros::boot`]: crate::control::Solros::boot
    pub fn new(
        network: Arc<Network>,
        channels: Vec<NetChannelHost>,
        lb: Box<dyn LoadBalancer>,
    ) -> (Self, Arc<TcpProxyStats>) {
        let control = TcpControl::new(1, channels.len());
        let coprocs = (0..channels.len()).collect();
        Self::shard(network, control, 0, coprocs, channels, lb)
    }

    /// Creates shard `shard` of a sharded proxy: it serves `channels`
    /// (one lane per entry, owned by the global co-processor ids in
    /// `coprocs`, same order) and holds its own balancer replica `lb`
    /// (see [`LoadBalancer::fork`]).
    pub fn shard(
        network: Arc<Network>,
        control: Arc<TcpControl>,
        shard: usize,
        coprocs: Vec<usize>,
        channels: Vec<NetChannelHost>,
        lb: Box<dyn LoadBalancer>,
    ) -> (Self, Arc<TcpProxyStats>) {
        assert_eq!(coprocs.len(), channels.len());
        control.hook_nic(&network);
        let stats = Arc::new(TcpProxyStats {
            engine: Arc::new(ProxyStats::default()),
            events: Arc::clone(&control.events),
            event_drops: Arc::clone(&control.event_drops),
            accepted: Arc::clone(&control.accepted),
            staged_sends: AtomicU64::new(0),
            send_waves: AtomicU64::new(0),
        });
        let cursor = control.log.register();
        let mut evt_tx = Vec::new();
        let mut lanes = Vec::new();
        for ch in channels {
            lanes.push(EngineLane {
                req_rx: ch.req_rx,
                resp_tx: ch.resp_tx,
            });
            evt_tx.push(ch.evt_tx);
        }
        (
            Self {
                network,
                control,
                shard,
                coprocs,
                stats: Arc::clone(&stats),
                faults: Arc::new(EngineFaults::new()),
                evt_tx,
                lanes,
                lb,
                registry: HashMap::new(),
                cursor,
                conn_counts: HashMap::new(),
                fenced: HashSet::new(),
                socks: HashMap::new(),
                evented_conns: Vec::new(),
                pending_accepts: HashMap::new(),
                // Stride allocation keeps sock ids globally unique
                // without cross-shard coordination.
                next_sock: shard as SockId + 1,
                evt_frame: Vec::new(),
                scan_ports: Vec::new(),
                scan_conns: Vec::new(),
                send_stage: SendStage::default(),
                qos: None,
                health: None,
            },
            stats,
        )
    }

    /// Installs a QoS gate with one (high, normal) flow pair per lane,
    /// built from `cfg` (flow names carry the global co-processor id) as
    /// this domain's TCP shard of the host tenant hierarchy.
    /// Returns the gate's stats ledger. Must be called before
    /// [`TcpProxy::run`].
    pub fn enable_qos(&mut self, cfg: &QosConfig, host: &Arc<HostScheduler>) -> Arc<QosStats> {
        let mut specs = Vec::new();
        for &c in &self.coprocs {
            for class in [QosClass::High, QosClass::Normal] {
                specs.push(FlowSpec::from_class(
                    format!("net{c}/{}", class.label()),
                    class,
                    cfg.class(class),
                ));
            }
        }
        let gate = HostGate::new(
            specs,
            cfg.quantum_bytes,
            cfg.overload_threshold,
            host,
            Service::Tcp,
            self.shard,
        );
        let stats = gate.stats();
        self.qos = Some(gate);
        stats
    }

    /// Installs the supervisor's health cell: the engine beats it every
    /// cycle and dumps a wreck into it on an armed domain fault. Must be
    /// called before [`TcpProxy::run`].
    pub fn set_health(&mut self, health: Arc<ShardHealth>) {
        self.health = Some(health);
    }

    /// The engine-level fault hooks this proxy serves with.
    pub fn faults(&self) -> Arc<EngineFaults> {
        Arc::clone(&self.faults)
    }

    /// Global co-processor ids served by this shard, in lane order.
    pub fn served_coprocs(&self) -> &[usize] {
        &self.coprocs
    }

    /// Fault injection: makes the next `n` handled requests panic inside
    /// the handler, exercising the engine's containment path.
    pub fn inject_worker_panics(&self, n: u64) {
        self.faults.arm_worker_panics(n);
    }

    /// Runs the proxy shard through the shared engine until `shutdown`:
    /// FIFO admission by default, DWRR scheduling when
    /// [`TcpProxy::enable_qos`] was called. Each admitted frame is
    /// decoded exactly once; the scheduler item carries the parsed
    /// request through to execution.
    ///
    /// Returns the proxy when the engine stops — at shutdown, or dead
    /// with its wreck dumped — for the shard supervisor's post-mortem:
    /// scrub the socket table, retire the log cursor, read the replica.
    /// The engine serves clones of the lane endpoints, so the proxy can
    /// be run again over the same rings (its QoS gate, if any, went to
    /// the first run).
    pub fn run(mut self, shutdown: Arc<AtomicBool>) -> TcpProxy {
        let lanes = self.lanes.clone();
        let gate = self.qos.take();
        let stats = Arc::clone(&self.stats.engine);
        let faults = Arc::clone(&self.faults);
        let health = self.health.clone();
        let mut eng = ProxyEngine::new(self, lanes, stats, faults, gate);
        if let Some(h) = health {
            eng.set_health(h);
        }
        eng.serve(shutdown)
    }

    /// Applies every outstanding log operation to this shard's replica
    /// (registry + balancer + charge counts). Cheap when already at the
    /// tail. An overrun (possible since `max_lag` went finite) rebuilds
    /// the replica from the observer snapshot, under live traffic.
    fn apply_log(&mut self) {
        if self.faults.take_sync_stall() {
            // Injected replica lag (OplogReplicaLag): skip this sync
            // pass. Enough consecutive skips and the lag-bounded
            // compactor advances past this cursor, forcing the snapshot
            // rebuild below on the next real sync.
            return;
        }
        let outcome = self.control.log.sync(&mut self.cursor, |_, op| {
            apply_ctrl_op(
                op,
                &mut self.registry,
                &mut self.conn_counts,
                &mut self.fenced,
                Some(&*self.lb),
                Some((self.shard, &self.network)),
            );
        });
        if outcome == SyncOutcome::Overrun {
            self.rebuild_from_observer();
            self.control
                .overruns_recovered
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Rebuilds this shard's replica (registry, charge counts, fenced
    /// set, balancer load view) from the shared observer snapshot, then
    /// points the cursor at the snapshot position so syncs resume
    /// in-order from there — the ScaleFS/Corfu checkpoint move. Runs
    /// under live traffic: the log keeps appending while the clone is
    /// taken. A replica that overran the log rebuilds this way, and so
    /// is a replacement shard seeded.
    pub fn rebuild_from_observer(&mut self) {
        let (registry, conn_counts, fenced, at) = {
            let mut obs = self.control.observer.lock();
            self.control.sync_observer_locked(&mut obs);
            (
                obs.registry.clone(),
                obs.conn_counts.clone(),
                obs.fenced.clone(),
                obs.cursor.position(),
            )
        };
        // NIC-side releases this shard owed during the missed window
        // (best effort): any port it was home to that no longer exists
        // in the authoritative view is unlistened now.
        for (port, rec) in &self.registry {
            if rec.home == self.shard && !registry.contains_key(port) {
                self.network.unlisten(*port);
            }
        }
        self.registry = registry;
        self.conn_counts = conn_counts;
        self.fenced = fenced;
        // The balancer replica restarts zeroed; replaying the surviving
        // charge counts converges its load view (tie-break cursors are
        // shard-local by design and may reset).
        let lb = self.lb.fork();
        for (&(_, slot), &n) in &self.conn_counts {
            for _ in 0..n {
                lb.conn_assigned(slot);
            }
        }
        self.lb = lb;
        self.control.log.install_snapshot(&mut self.cursor, at);
    }

    /// Deterministic digest of this shard's replicated control view
    /// (registry, charge counts, fenced set), synced to the log tail
    /// first. Replicas that applied the same log prefix produce the same
    /// digest; the failover property test gates on survivors converging
    /// to one value.
    pub fn replica_fingerprint(&mut self) -> u64 {
        self.apply_log();
        fingerprint(&self.registry, &self.conn_counts, &self.fenced)
    }

    /// Supervisor-side post-mortem of a fenced shard, on the proxy its
    /// engine handed back: closes every connection it owned (peers
    /// observe the close on the fabric), clears its event/accept queues,
    /// retires its log cursor so the dead replica neither pins
    /// compaction nor counts as lag, and — when no heir exists —
    /// releases its NIC listeners directly. Returns the shard's sock-id
    /// allocation point; the replacement must resume the stride from
    /// there so ids are never reused.
    pub fn scrub_after_fence(&mut self) -> SockId {
        for rec in self.socks.values_mut() {
            if let SockState::Conn { id, end } = rec.state {
                let _ = self.network.close(id, end);
                rec.state = SockState::Closed;
            }
        }
        self.evented_conns.clear();
        self.pending_accepts.clear();
        if self.control.nshards == 1 {
            // Solo-shard machine: `ShardFenced` has no live replica to
            // perform the emptied-port unlisten side effect.
            for port in self.registry.keys() {
                self.network.unlisten(*port);
            }
        }
        self.control.log.retire(&self.cursor);
        self.next_sock
    }

    /// Seeds the sock-id allocator (replacements resume the fenced
    /// incarnation's stride; see [`TcpProxy::scrub_after_fence`]).
    pub fn set_next_sock(&mut self, next: SockId) {
        self.next_sock = next;
    }

    /// Executes one RPC from lane `lane`.
    pub fn handle(&mut self, lane: usize, req: NetRequest) -> NetResponse {
        let coproc = self.coprocs.get(lane).copied().unwrap_or(lane);
        match req {
            NetRequest::Socket => {
                let id = self.next_sock;
                self.next_sock += self.control.nshards as SockId;
                self.socks.insert(
                    id,
                    SockRec {
                        coproc,
                        state: SockState::Fresh,
                        evented: true,
                        close_sent: false,
                        lb_slot: None,
                    },
                );
                NetResponse::Socket { sock: id }
            }
            NetRequest::Bind { sock, port } => match self.socks.get_mut(&sock) {
                Some(rec) if matches!(rec.state, SockState::Fresh) => {
                    rec.state = SockState::Bound(port);
                    NetResponse::Ok
                }
                Some(_) => NetResponse::Error {
                    err: RpcErr::Invalid,
                },
                None => NetResponse::Error {
                    err: RpcErr::NotFound,
                },
            },
            NetRequest::Listen { sock, backlog } => {
                let port = match self.socks.get(&sock) {
                    Some(SockRec {
                        state: SockState::Bound(p),
                        ..
                    }) => *p,
                    Some(_) => {
                        return NetResponse::Error {
                            err: RpcErr::Invalid,
                        }
                    }
                    None => {
                        return NetResponse::Error {
                            err: RpcErr::NotFound,
                        }
                    }
                };
                self.apply_log();
                if !self.registry.contains_key(&port) {
                    // First listener (as far as this replica can see):
                    // register the NIC-side listener before publishing
                    // the add, so the port is live when the RPC returns.
                    // A previous home may still owe the fabric an
                    // unlisten (it runs during that shard's own sync),
                    // and a racing shard may have just become home —
                    // re-sync and retry before giving up.
                    let mut ok = false;
                    for _ in 0..LISTEN_RETRIES {
                        if self
                            .network
                            .listen(port, (backlog as usize).max(64))
                            .is_ok()
                        {
                            ok = true;
                            break;
                        }
                        self.apply_log();
                        if self.registry.contains_key(&port) {
                            // Someone else became home; join their port.
                            ok = true;
                            break;
                        }
                        std::thread::yield_now();
                    }
                    if !ok {
                        return NetResponse::Error {
                            err: RpcErr::AddrInUse,
                        };
                    }
                }
                self.control.append(TcpCtrlOp::ListenerAdd {
                    port,
                    sock,
                    shard: self.shard,
                });
                self.apply_log();
                let Some(rec) = self.socks.get_mut(&sock) else {
                    return NetResponse::Error {
                        err: RpcErr::NotFound,
                    };
                };
                rec.state = SockState::Listening(port);
                NetResponse::Ok
            }
            NetRequest::Accept { sock } => {
                match self
                    .pending_accepts
                    .get_mut(&sock)
                    .and_then(|q| q.pop_front())
                {
                    Some((conn_sock, peer_addr)) => NetResponse::Accepted {
                        conn: conn_sock,
                        peer_addr,
                    },
                    None => match self.socks.get(&sock) {
                        Some(SockRec {
                            state: SockState::Listening(_),
                            ..
                        }) => NetResponse::Error {
                            err: RpcErr::WouldBlock,
                        },
                        Some(_) => NetResponse::Error {
                            err: RpcErr::NotListening,
                        },
                        None => NetResponse::Error {
                            err: RpcErr::NotFound,
                        },
                    },
                }
            }
            NetRequest::Connect { sock, addr, port } => {
                let Some(rec) = self.socks.get_mut(&sock) else {
                    return NetResponse::Error {
                        err: RpcErr::NotFound,
                    };
                };
                if !matches!(rec.state, SockState::Fresh) {
                    return NetResponse::Error {
                        err: RpcErr::Invalid,
                    };
                }
                match self.network.client_connect(port, addr) {
                    Ok(id) => {
                        rec.state = SockState::Conn {
                            id,
                            end: EndKind::Client,
                        };
                        if rec.evented {
                            self.evented_conns.push(sock);
                        }
                        NetResponse::Ok
                    }
                    Err(_) => NetResponse::Error {
                        err: RpcErr::ConnRefused,
                    },
                }
            }
            NetRequest::Send { sock, data } => {
                let Some(rec) = self.socks.get(&sock) else {
                    return NetResponse::Error {
                        err: RpcErr::NotFound,
                    };
                };
                let SockState::Conn { id, end } = rec.state else {
                    return NetResponse::Error {
                        err: RpcErr::NotConnected,
                    };
                };
                match self.network.send(id, end, &data) {
                    Ok(n) => NetResponse::Sent { count: n as u64 },
                    Err(NetworkError::Closed) => NetResponse::Error { err: RpcErr::Reset },
                    Err(_) => NetResponse::Error {
                        err: RpcErr::NotConnected,
                    },
                }
            }
            NetRequest::Recv { sock, max } => {
                let Some(rec) = self.socks.get(&sock) else {
                    return NetResponse::Error {
                        err: RpcErr::NotFound,
                    };
                };
                let SockState::Conn { id, end } = rec.state else {
                    return NetResponse::Error {
                        err: RpcErr::NotConnected,
                    };
                };
                match self.network.recv(id, end, max as usize) {
                    Ok(data) => NetResponse::Data { data },
                    Err(NetworkError::Closed) => NetResponse::Error { err: RpcErr::Reset },
                    Err(_) => NetResponse::Error {
                        err: RpcErr::NotConnected,
                    },
                }
            }
            NetRequest::Close { sock } => self.close_sock(sock),
            NetRequest::Setsockopt { sock, opt, val } => {
                let Some(rec) = self.socks.get_mut(&sock) else {
                    return NetResponse::Error {
                        err: RpcErr::NotFound,
                    };
                };
                if opt == SOCKOPT_EVENTED {
                    rec.evented = val != 0;
                    NetResponse::Ok
                } else {
                    NetResponse::Error {
                        err: RpcErr::Invalid,
                    }
                }
            }
            NetRequest::Shutdown { sock, how } => {
                let Some(rec) = self.socks.get(&sock) else {
                    return NetResponse::Error {
                        err: RpcErr::NotFound,
                    };
                };
                let SockState::Conn { id, end } = rec.state else {
                    return NetResponse::Error {
                        err: RpcErr::NotConnected,
                    };
                };
                if how >= 1 {
                    let _ = self.network.close(id, end);
                }
                NetResponse::Ok
            }
        }
    }

    fn close_sock(&mut self, sock: SockId) -> NetResponse {
        let Some(rec) = self.socks.get_mut(&sock) else {
            return NetResponse::Error {
                err: RpcErr::NotFound,
            };
        };
        match rec.state {
            SockState::Conn { id, end } => {
                let _ = self.network.close(id, end);
                rec.state = SockState::Closed;
                if let Some(slot) = rec.lb_slot.take() {
                    self.control.append(TcpCtrlOp::ConnClosed {
                        slot,
                        shard: self.shard,
                    });
                    self.apply_log();
                }
                self.evented_conns.retain(|s| *s != sock);
            }
            SockState::Listening(port) => {
                rec.state = SockState::Closed;
                self.control.append(TcpCtrlOp::ListenerDel { port, sock });
                self.apply_log();
                // Refuse the un-accepted backlog: each queued connection
                // already holds an open fabric conn and a balancer slot,
                // and no accept will ever reach it through the closed
                // listener. Close the fabric side (the peer observes a
                // severance, never a hang) and release the slot.
                for (conn_sock, _) in self.pending_accepts.remove(&sock).unwrap_or_default() {
                    let Some(crec) = self.socks.get_mut(&conn_sock) else {
                        continue;
                    };
                    if let SockState::Conn { id, end } = crec.state {
                        let _ = self.network.close(id, end);
                        crec.state = SockState::Closed;
                    }
                    if let Some(slot) = crec.lb_slot.take() {
                        self.control.append(TcpCtrlOp::ConnClosed {
                            slot,
                            shard: self.shard,
                        });
                        self.apply_log();
                    }
                }
            }
            _ => rec.state = SockState::Closed,
        }
        NetResponse::Ok
    }

    /// Accepts incoming connections on ports this shard is home to and
    /// routes them via the balancer replica. Returns true when any work
    /// happened.
    fn poll_accepts(&mut self) -> bool {
        // Routing mutates the registry, so the scan runs over a copy — in
        // a vector kept from round to round.
        let mut ports = std::mem::take(&mut self.scan_ports);
        ports.clear();
        ports.extend(
            self.registry
                .iter()
                .filter(|(_, rec)| rec.home == self.shard)
                .map(|(p, _)| *p),
        );
        let mut worked = false;
        for &port in &ports {
            while let Ok(Some((conn, client_addr))) = self.network.poll_accept(port) {
                worked = true;
                // A port can lose its last proxy-side listener between the
                // NIC accept and routing; refuse the orphan connection
                // instead of panicking on an empty listener set.
                let (listener, owner, slot) = {
                    let listeners = match self.registry.get(&port) {
                        Some(p) if !p.listeners.is_empty() => &p.listeners,
                        _ => {
                            let _ = self.network.close(conn, EndKind::Server);
                            continue;
                        }
                    };
                    let meta = ConnMeta { client_addr, port };
                    let idx = self.lb.pick(listeners.len(), &meta) % listeners.len();
                    let (sock, owner) = listeners[idx];
                    (sock, owner, idx)
                };
                self.control
                    .append(TcpCtrlOp::ConnAssigned { slot, shard: owner });
                self.apply_log();
                let h = Handoff {
                    conn,
                    client_addr,
                    listener,
                    slot,
                };
                if owner == self.shard {
                    self.deliver(h);
                } else {
                    self.control.hand_off(owner, h);
                }
            }
        }
        self.scan_ports = ports;
        worked
    }

    /// Installs one routed connection under its local listener (the
    /// delivery half of an accept: inline when this shard is both home
    /// and owner, via the inbox otherwise).
    fn deliver(&mut self, h: Handoff) {
        // The listener may have closed while the handoff was in flight —
        // either its record is gone entirely (a replaced shard's fresh
        // state) or it lingers in `Closed` state (a normal close; the
        // stub still holds the handle). Both ways no accept can ever
        // reach the connection: refuse it and release its balancer slot.
        let (coproc, evented) = match self.socks.get(&h.listener) {
            Some(rec) if matches!(rec.state, SockState::Listening(_)) => (rec.coproc, rec.evented),
            _ => {
                let _ = self.network.close(h.conn, EndKind::Server);
                self.control.append(TcpCtrlOp::ConnClosed {
                    slot: h.slot,
                    shard: self.shard,
                });
                self.apply_log();
                return;
            }
        };
        // Create the connection socket owned by the same coproc.
        let conn_sock = self.next_sock;
        self.next_sock += self.control.nshards as SockId;
        self.socks.insert(
            conn_sock,
            SockRec {
                coproc,
                state: SockState::Conn {
                    id: h.conn,
                    end: EndKind::Server,
                },
                evented,
                close_sent: false,
                lb_slot: Some(h.slot),
            },
        );
        self.stats.accepted[coproc].fetch_add(1, Ordering::Relaxed);
        if evented {
            self.evented_conns.push(conn_sock);
            let ev = NetEvent::Accepted {
                listen: h.listener,
                conn: conn_sock,
                peer_addr: h.client_addr,
            };
            self.push_event(coproc, &ev);
        } else {
            self.pending_accepts
                .entry(h.listener)
                .or_default()
                .push_back((conn_sock, h.client_addr));
        }
    }

    /// Drains connections other shards routed to this shard's listeners.
    fn drain_inbox(&mut self) -> bool {
        let mut worked = false;
        loop {
            let h = self.control.inboxes[self.shard].lock().pop_front();
            let Some(h) = h else { break };
            worked = true;
            self.deliver(h);
        }
        worked
    }

    /// Pulls inbound data for evented connections into event rings.
    fn poll_data(&mut self) -> bool {
        let mut worked = false;
        // Closes edit `evented_conns`, so the scan runs over a copy — in
        // a vector kept from round to round.
        let mut conns = std::mem::take(&mut self.scan_conns);
        conns.clear();
        conns.extend_from_slice(&self.evented_conns);
        for &sock in &conns {
            let Some(rec) = self.socks.get(&sock) else {
                continue;
            };
            let SockState::Conn { id, end } = rec.state else {
                continue;
            };
            let coproc = rec.coproc;
            // The event is encoded straight from the fabric's bytes.
            let frame = &mut self.evt_frame;
            let got = self.network.recv_with(id, end, RECV_CHUNK, |data| {
                if !data.is_empty() {
                    frame.clear();
                    NetEvent::Data { sock, data }.encode_into(frame);
                }
                data.len()
            });
            match got {
                Ok(0) => {}
                Ok(_) => {
                    worked = true;
                    self.push_frame(&self.evt_frame, coproc);
                }
                Err(NetworkError::Closed) => {
                    let mut closed_slot = None;
                    if let Some(rec) = self.socks.get_mut(&sock) {
                        closed_slot = rec.lb_slot.take();
                        if !rec.close_sent {
                            rec.close_sent = true;
                            worked = true;
                            self.push_event(coproc, &NetEvent::Closed { sock });
                        }
                    }
                    if let Some(slot) = closed_slot {
                        self.control.append(TcpCtrlOp::ConnClosed {
                            slot,
                            shard: self.shard,
                        });
                        self.apply_log();
                    }
                    self.evented_conns.retain(|s| *s != sock);
                }
                Err(_) => {
                    self.evented_conns.retain(|s| *s != sock);
                }
            }
        }
        self.scan_conns = conns;
        worked
    }

    fn push_event(&mut self, coproc: usize, ev: &NetEvent) {
        self.evt_frame.clear();
        ev.encode_into(&mut self.evt_frame);
        self.push_frame(&self.evt_frame, coproc);
    }

    /// Publishes one encoded event on `coproc`'s event ring.
    fn push_frame(&self, frame: &[u8], coproc: usize) {
        self.stats.events.fetch_add(1, Ordering::Relaxed);
        let lane = self
            .coprocs
            .iter()
            .position(|&c| c == coproc)
            .unwrap_or(coproc.min(self.evt_tx.len().saturating_sub(1)));
        if self.evt_tx[lane].send_blocking(frame).is_err() {
            // The only enqueue failure left after the blocking retry is
            // an event larger than the ring accepts; the co-processor
            // never sees it. Count the loss instead of hiding it — E8
            // trips on any nonzero drop count.
            self.stats.event_drops.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Executes one coalesced run's backend write, returning how it went.
    fn send_run(&self, sock: SockId, run: &SendRun) -> Result<(), RpcErr> {
        self.stats.send_waves.fetch_add(1, Ordering::Relaxed);
        self.stats
            .staged_sends
            .fetch_add(run.parts.len() as u64, Ordering::Relaxed);
        match self.socks.get(&sock).map(|rec| &rec.state) {
            None => Err(RpcErr::NotFound),
            Some(&SockState::Conn { id, end }) => match self.network.send(id, end, &run.data) {
                Ok(_) => Ok(()),
                Err(NetworkError::Closed) => Err(RpcErr::Reset),
                Err(_) => Err(RpcErr::NotConnected),
            },
            Some(_) => Err(RpcErr::NotConnected),
        }
    }

    /// Settles the staged run at `i` right now, ahead of the cycle flush:
    /// its replies park in `done` and ride the next wave flush.
    fn run_out_early(&mut self, i: usize) {
        let ((lane, sock), run) = self.send_stage.runs.remove(i);
        let outcome = self.send_run(sock, &run);
        let SendStage { done, frame, .. } = &mut self.send_stage;
        run.answer(lane, outcome, frame, &mut |l, f| done.push((l, f.to_vec())));
        self.send_stage.recycle(run);
    }

    /// Settles every staged run touching `sock` right now, preserving
    /// program order ahead of an about-to-execute large send, `Close`,
    /// or `Shutdown` on the same socket.
    fn flush_sock(&mut self, sock: SockId) {
        let mut i = 0;
        while i < self.send_stage.runs.len() {
            if self.send_stage.runs[i].0 .1 == sock {
                self.run_out_early(i);
            } else {
                i += 1;
            }
        }
    }
}

impl OpHandler for TcpProxy {
    type Req = NetRequest;

    fn encode_err(&self, tag: u32, err: RpcErr, reply: &mut Vec<u8>) {
        NetResponse::Error { err }.encode_into(tag, reply)
    }

    /// Flow index `lane * 2 + class offset`, matching the per-co-processor
    /// (high, normal) flow pairs laid out by [`TcpProxy::enable_qos`].
    fn classify(&self, lane: usize, req: &NetRequest) -> (usize, u64) {
        let (off, bytes) = classify_net(req);
        (lane * 2 + off, bytes)
    }

    fn exec(
        &mut self,
        lane: usize,
        tag: u32,
        req: NetRequest,
        reply: &mut Vec<u8>,
    ) -> Result<(), (NetRequest, u64)> {
        self.handle(lane, req).encode_into(tag, reply);
        Ok(())
    }

    /// Coalesces small `Send`s: consecutive sub-[`STAGE_SEND_MAX`] sends
    /// on one `(lane, socket)` append to a staged run that settles as
    /// one backend write and one reply wave at the cycle flush (or
    /// immediately at [`STAGE_BYTES_CAP`]). Large sends, `Close`, and
    /// `Shutdown` first flush the socket's staged run — program order on
    /// a socket is preserved — then execute normally. This proxy runs
    /// workerless, so staging sees each lane's requests in admission
    /// order. Barrier frames flush ahead of execution in the engine.
    fn stage(
        &mut self,
        lane: usize,
        tag: u32,
        credit: Option<u8>,
        tenant: u8,
        req: NetRequest,
    ) -> Option<NetRequest> {
        match req {
            NetRequest::Send { sock, data } if data.len() <= STAGE_SEND_MAX => {
                let i = self.send_stage.run_index((lane, sock));
                let run = &mut self.send_stage.runs[i].1;
                run.parts.push(StagedSend {
                    tag,
                    credit,
                    tenant,
                    len: data.len(),
                });
                run.data.extend_from_slice(&data);
                if run.data.len() >= STAGE_BYTES_CAP {
                    self.run_out_early(i);
                }
                None
            }
            NetRequest::Send { sock, .. }
            | NetRequest::Close { sock }
            | NetRequest::Shutdown { sock, .. } => {
                self.flush_sock(sock);
                Some(req)
            }
            _ => Some(req),
        }
    }

    /// Settles the staging table: cap-flushed replies first, then one
    /// coalesced backend write + reply wave per remaining run.
    fn flush(&mut self, reply: &mut dyn FnMut(usize, &[u8])) {
        for (lane, frame) in self.send_stage.done.drain(..) {
            reply(lane, &frame);
        }
        let mut runs = std::mem::take(&mut self.send_stage.runs);
        for ((lane, sock), run) in runs.drain(..) {
            let outcome = self.send_run(sock, &run);
            run.answer(lane, outcome, &mut self.send_stage.frame, reply);
            self.send_stage.recycle(run);
        }
        // Emptied, with its capacity.
        self.send_stage.runs = runs;
    }

    /// Abandons staged-but-unexecuted send runs for the failover wreck:
    /// their parts become [`StagedPart`]s the supervisor answers as
    /// `Gone` and refunds. Already-executed cap-flush replies in
    /// `stage.done` are left in place — the engine's wreck dump flushes
    /// them into the settler so they ship verbatim (the sends happened).
    fn abort_staged(&mut self) -> Vec<StagedPart> {
        let runs = std::mem::take(&mut self.send_stage.runs);
        runs.into_iter()
            .flat_map(|((lane, _), run)| {
                run.parts.into_iter().map(move |p| StagedPart {
                    lane,
                    tag: p.tag,
                    credit: p.credit,
                    tenant: p.tenant,
                    bytes: p.len as u64,
                })
            })
            .collect()
    }

    /// The shard slot's doorbell (see [`TcpControl`]): the same bell for
    /// every incarnation of this shard, so peers and the NIC hook keep
    /// ringing the live one across a failover.
    fn doorbell(&self) -> Option<Arc<Doorbell>> {
        Some(Arc::clone(&self.control.bells[self.shard]))
    }

    fn poll(&mut self) -> bool {
        self.apply_log();
        let drained = self.drain_inbox();
        let accepted = self.poll_accepts();
        let data = self.poll_data();
        // Keep the shared observer fresh so an overrun rebuild (or a
        // replacement shard seeding itself) snapshots near the tail.
        // try_lock: never stall the data path on a contended observer.
        if let Some(mut obs) = self.control.observer.try_lock() {
            self.control.sync_observer_locked(&mut obs);
        }
        drained || accepted || data
    }
}
