//! The control-plane TCP proxy (§4.4), sharded per NUMA domain.
//!
//! One [`TcpProxy`] engine shard runs per NUMA domain, serving the ten
//! socket RPCs for the co-processors attached to that domain (one engine
//! lane per co-processor) and polling the NIC fabric for the ports it is
//! *home* to. What the shards share — the shared-listening-socket
//! registry (§4.4.3), the per-listener connection charges and the one
//! load balancer — is one table in [`TcpControl`] behind one lock. It
//! changes only on listen, accept and close, never per byte: each
//! mutator changes it in place under the lock and does its own NIC side
//! effect (listen or unlisten) there.
//!
//! Determinism of the paper's connection-based round-robin is preserved
//! by *home-shard polling*: the shard whose listen created a port's
//! record is the only one that polls the NIC for that port, so every
//! balancer pick for a port is made by one shard in arrival order.
//! Connections routed to a listener owned by another shard are handed
//! off through that shard's inbox queue.
//!
//! A shard's engine owns its proxy and is the only thread that touches
//! it ([`TcpProxy::run`] hands it back when the engine stops), so the
//! socket table and the send-staging table are plain fields. The only
//! locks are the cross-shard ones in [`TcpControl`]: the table and the
//! handoff inboxes.
//!
//! The socket table holds live sockets only. A close removes the
//! socket's record with everything that was its — a listener's accept
//! queue is part of its record — and closes its fabric end for good. A
//! request naming an id the table does not hold gets `NotConnected` if
//! the shard issued it and `NotFound` if it never did.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::Deref;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use solros_faults::EngineFaults;
use solros_netdev::{ConnId, EndKind, Network, NetworkError};
use solros_proto::codec::stamp_credit;
use solros_proto::net_msg::{NetEvent, NetRequest, NetResponse, SockId};
use solros_proto::rpc_error::RpcErr;
use solros_qos::{FlowSpec, HostGate, HostScheduler, QosClass, QosConfig, Service};
use solros_ringbuf::{Consumer, Doorbell, Producer, RingError};
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

/// A connection routed by a port's home shard to a listener owned by
/// another shard, waiting in the owner's inbox.
struct Handoff {
    conn: ConnId,
    client_addr: u64,
    listener: SockId,
    /// Balancer slot the connection was charged to at pick time.
    slot: usize,
}

/// One shared listening socket.
struct PortRec {
    /// `(sock, owning shard)` in registration order; balancer slots
    /// index into it.
    listeners: Vec<(SockId, usize)>,
    /// The shard that polls the NIC for this port: the shard of the
    /// first listener, or the heir of a fenced home.
    home: usize,
}

/// What the shards share, as one table under [`TcpControl`]'s lock.
struct CtrlTable {
    registry: HashMap<u16, PortRec>,
    /// Outstanding connections per `(owning shard, balancer slot)`, so
    /// a fence can release a dead shard's charges wholesale.
    conn_counts: HashMap<(usize, usize), u64>,
    /// The one policy instance for every port.
    lb: Box<dyn LoadBalancer>,
}

impl CtrlTable {
    /// Joins `sock` (owned by `shard`) to `port`'s shared listening
    /// socket. The first listener registers the port on the NIC and
    /// makes `shard` its home; the NIC refusing the port fails the call.
    fn listen(
        &mut self,
        port: u16,
        sock: SockId,
        shard: usize,
        network: &Network,
        backlog: usize,
    ) -> Result<(), NetworkError> {
        let rec = match self.registry.entry(port) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                network.listen(port, backlog)?;
                e.insert(PortRec {
                    listeners: Vec::new(),
                    home: shard,
                })
            }
        };
        rec.listeners.push((sock, shard));
        Ok(())
    }

    /// Removes `sock` from `port`'s listeners. The close that empties
    /// the port releases it on the NIC, whichever shard is its home.
    fn unlisten(&mut self, port: u16, sock: SockId, network: &Network) {
        if let Some(rec) = self.registry.get_mut(&port) {
            rec.listeners.retain(|(s, _)| *s != sock);
            if rec.listeners.is_empty() {
                self.registry.remove(&port);
                network.unlisten(port);
            }
        }
    }

    /// Picks the listener for a new connection on `port` and charges
    /// it: `(listener, owning shard, slot)`, or `None` when the port has
    /// no listener left (a record leaves the registry with its last
    /// listener, so a present one is never empty).
    fn route(&mut self, port: u16, client_addr: u64) -> Option<(SockId, usize, usize)> {
        let listeners = &self.registry.get(&port)?.listeners;
        let meta = ConnMeta { client_addr, port };
        let slot = self.lb.pick(listeners.len(), &meta) % listeners.len();
        let (sock, owner) = listeners[slot];
        self.lb.conn_assigned(slot);
        *self.conn_counts.entry((owner, slot)).or_insert(0) += 1;
        Some((sock, owner, slot))
    }

    /// Releases one connection charged to `(shard, slot)`. Count-guarded:
    /// a close whose charge a fence already released wholesale releases
    /// nothing.
    fn release(&mut self, shard: usize, slot: usize) {
        if let Some(n) = self.conn_counts.get_mut(&(shard, slot)) {
            *n -= 1;
            if *n == 0 {
                self.conn_counts.remove(&(shard, slot));
            }
            self.lb.conn_closed(slot);
        }
    }

    /// Fences `dead`: removes its listeners, re-homes its ports to
    /// `heir`, unlistens the ports it leaves empty and releases its
    /// charges wholesale.
    fn fence(&mut self, dead: usize, heir: usize, network: &Network) {
        self.registry.retain(|&port, rec| {
            rec.listeners.retain(|(_, s)| *s != dead);
            if rec.listeners.is_empty() {
                network.unlisten(port);
                return false;
            }
            if rec.home == dead {
                rec.home = heir;
            }
            true
        });
        self.conn_counts.retain(|&(shard, slot), n| {
            if shard != dead {
                return true;
            }
            for _ in 0..*n {
                self.lb.conn_closed(slot);
            }
            false
        });
    }
}

/// The shared spine of the sharded TCP control plane: the control
/// table, the cross-shard handoff inboxes and doorbells, and the
/// machine-global counters.
pub struct TcpControl {
    table: Mutex<CtrlTable>,
    inboxes: Vec<Mutex<VecDeque<Handoff>>>,
    /// One doorbell per shard slot: the shard's engine sleeps on it, and
    /// whatever gives that shard work it cannot see on its own rings —
    /// a handoff into its inbox, a fence re-homing ports to it, NIC
    /// ingress — rings it. Owned here so it outlives a shard's
    /// incarnations.
    bells: Vec<Arc<Doorbell>>,
    /// Set once the NIC ingress hook for this control plane is in place.
    nic_hooked: AtomicBool,
    events: Arc<AtomicU64>,
    event_drops: Arc<AtomicU64>,
    accepted: Arc<Vec<AtomicU64>>,
    nshards: usize,
}

impl TcpControl {
    /// Creates the control spine for `nshards` proxy shards serving
    /// `ncoprocs` co-processors in total, balancing shared listening
    /// sockets with `lb`.
    pub fn new(nshards: usize, ncoprocs: usize, lb: Box<dyn LoadBalancer>) -> Arc<Self> {
        Arc::new(Self {
            table: Mutex::new(CtrlTable {
                registry: HashMap::new(),
                conn_counts: HashMap::new(),
                lb,
            }),
            inboxes: (0..nshards).map(|_| Mutex::new(VecDeque::new())).collect(),
            bells: (0..nshards).map(|_| Doorbell::new()).collect(),
            nic_hooked: AtomicBool::new(false),
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

    /// Events discarded because an event ring was full. Must stay zero;
    /// E8/E9 trip on any drop.
    pub fn event_drops(&self) -> u64 {
        self.event_drops.load(Ordering::Relaxed)
    }

    /// Rings every shard's doorbell (NIC ingress, whose owning shard
    /// the fabric does not know, or a fence).
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

    /// Releases one connection charged to `(shard, slot)`.
    fn release(&self, shard: usize, slot: usize) {
        self.table.lock().release(shard, slot);
    }

    /// Has the fabric ring this control plane's shards on ingress. Once
    /// per control plane, however many shard incarnations it sees.
    fn hook_nic(self: &Arc<Self>, network: &Network) {
        if !self.nic_hooked.swap(true, Ordering::SeqCst) {
            let control = Arc::clone(self);
            network.on_ingress(Arc::new(move || control.ring_all()));
        }
    }

    /// Fences `shard` in the table (its listeners go, its ports move to
    /// `heir`, emptied ports are unlistened, its charges are released
    /// wholesale) and refuses every handoff parked in its inbox: those
    /// connections close on the fabric. Routing parks a handoff under
    /// the same lock, so none routed before the fence outlives it, and
    /// none after can name `shard`.
    pub(crate) fn fence(&self, shard: usize, heir: usize, network: &Network) {
        let mut table = self.table.lock();
        table.fence(shard, heir, network);
        for h in self.inboxes[shard].lock().drain(..) {
            let _ = network.close_for_good(h.conn, EndKind::Server);
        }
        drop(table);
        // The heir polls the NIC for the re-homed ports from now on.
        self.ring_all();
    }

    /// Checks the table against the socket tables of `shards`, the
    /// proxies of every live shard; a shard not among them is not
    /// live. Returns one line per fault, sorted, and none when clean:
    ///
    /// * every listener is a `Listening` socket on its port in its
    ///   shard's socket table;
    /// * every port's home is a live shard;
    /// * every `(shard, slot)` charge equals that shard's accepted
    ///   sockets charged to `slot`, counting the handoffs still parked
    ///   in its inbox — so a charge no close will ever release shows up
    ///   here.
    pub(crate) fn audit(&self, shards: &[&TcpProxy]) -> Vec<String> {
        let table = self.table.lock();
        let live = |d: usize| shards.iter().find(|p| p.shard == d);
        let mut faults = Vec::new();
        for (&port, rec) in &table.registry {
            if live(rec.home).is_none() {
                faults.push(format!("port {port}: home shard {} is not live", rec.home));
            }
            for &(sock, d) in &rec.listeners {
                let listening = live(d).and_then(|p| p.socks.get(&sock)).is_some_and(
                    |r| matches!(r.state, SockState::Listening { port: q, .. } if q == port),
                );
                if !listening {
                    faults.push(format!(
                        "port {port}: listener {sock} is not listening on shard {d}"
                    ));
                }
            }
        }
        let mut open: HashMap<(usize, usize), u64> = HashMap::new();
        for p in shards {
            let inbox = self.inboxes[p.shard].lock();
            let socks = p.socks.values().filter_map(|r| r.lb_slot);
            for slot in socks.chain(inbox.iter().map(|h| h.slot)) {
                *open.entry((p.shard, slot)).or_insert(0) += 1;
            }
        }
        let keys: HashSet<(usize, usize)> = table
            .conn_counts
            .keys()
            .chain(open.keys())
            .copied()
            .collect();
        for (shard, slot) in keys {
            let charged = table.conn_counts.get(&(shard, slot)).copied().unwrap_or(0);
            let held = open.get(&(shard, slot)).copied().unwrap_or(0);
            if charged != held {
                faults.push(format!(
                    "shard {shard} slot {slot}: {charged} charged, {held} open connections"
                ));
            }
        }
        faults.sort();
        faults
    }
}

enum SockState {
    Fresh,
    Bound(u16),
    /// A listener and its accept queue: the connections delivered to it
    /// while it polls (not evented), each `(conn sock, peer addr)`,
    /// waiting for an `Accept`. The queue leaves with the record.
    Listening {
        port: u16,
        pending: VecDeque<(SockId, u64)>,
    },
    Conn {
        id: ConnId,
        end: EndKind,
    },
}

struct SockRec {
    /// Global co-processor id owning the socket.
    coproc: usize,
    state: SockState,
    evented: bool,
    /// For accepted conns: the balancer slot this connection counts
    /// against, taken when the charge is released so it is released
    /// once.
    lb_slot: Option<usize>,
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
    /// Events each lane's ring refused, in order, with every later event
    /// for that lane behind them (see [`TcpProxy::push_frame`]).
    backlog: Vec<VecDeque<Vec<u8>>>,
    /// Request/response lanes, handed to the engine by [`TcpProxy::run`].
    lanes: Vec<EngineLane>,
    /// Live sockets only: a close removes its socket's record.
    socks: HashMap<SockId, SockRec>,
    /// Live connections owned by evented sockets, polled for data.
    evented_conns: Vec<SockId>,
    /// The next id this shard issues. Ids below it were issued (see
    /// [`missing`]).
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

/// The lane serving global co-processor `coproc`.
fn lane_of(coprocs: &[usize], coproc: usize) -> usize {
    let last = coprocs.len().saturating_sub(1);
    coprocs
        .iter()
        .position(|&c| c == coproc)
        .unwrap_or(coproc.min(last))
}

/// Drops the frames `backlog` holds for `sock`, which is closing: its
/// stub forgets the socket once the close is answered, so a late frame
/// would leave state behind there. Returns the connections backlogged as
/// accepted by `sock` — a closing listener — whose frames go too: no
/// accept will reach them, and the caller refuses them.
fn purge(backlog: &mut VecDeque<Vec<u8>>, sock: SockId) -> Vec<SockId> {
    let mut refused = Vec::new();
    backlog.retain(|frame| match NetEvent::decode_borrowed(frame) {
        Ok(NetEvent::Accepted { listen, conn, .. }) if listen == sock => {
            refused.push(conn);
            false
        }
        Ok(NetEvent::Data { sock: s, .. } | NetEvent::Closed { sock: s }) => {
            s != sock && !refused.contains(&s)
        }
        _ => true,
    });
    refused
}

/// The error for a request naming `sock`, which the socket table does
/// not hold: `NotConnected` for an id below the shard's allocation point
/// `next_sock` — issued, and closed since (or fenced: the replacement
/// resumes the stride, so ids are never reused) — and `NotFound` for one
/// never issued.
fn missing(next_sock: SockId, sock: SockId) -> RpcErr {
    if sock < next_sock {
        RpcErr::NotConnected
    } else {
        RpcErr::NotFound
    }
}

/// A fabric error as a socket RPC reports it: the peer's close is a
/// reset.
fn net_err(e: NetworkError) -> RpcErr {
    match e {
        NetworkError::Closed => RpcErr::Reset,
        _ => RpcErr::NotConnected,
    }
}

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
        let control = TcpControl::new(1, channels.len(), lb);
        let coprocs = (0..channels.len()).collect();
        Self::shard(network, control, 0, coprocs, channels)
    }

    /// Creates shard `shard` of a sharded proxy over `control`: it
    /// serves `channels` (one lane per entry, owned by the global
    /// co-processor ids in `coprocs`, same order).
    pub fn shard(
        network: Arc<Network>,
        control: Arc<TcpControl>,
        shard: usize,
        coprocs: Vec<usize>,
        channels: Vec<NetChannelHost>,
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
        let mut evt_tx = Vec::new();
        let mut lanes = Vec::new();
        let backlog = channels.iter().map(|_| VecDeque::new()).collect();
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
                backlog,
                lanes,
                socks: HashMap::new(),
                evented_conns: Vec::new(),
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
    /// this domain's TCP shard of the host tenant hierarchy. Must be
    /// called before [`TcpProxy::run`].
    pub fn enable_qos(&mut self, cfg: &QosConfig, host: &Arc<HostScheduler>) {
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
        self.qos = Some(HostGate::new(
            specs,
            cfg.quantum_bytes,
            cfg.overload_threshold,
            host,
            Service::Tcp,
            self.shard,
        ));
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
    /// scrub the socket table, audit the control table.
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

    /// Supervisor-side post-mortem of a fenced shard, on the proxy its
    /// engine handed back: empties its socket table, closing every
    /// connection it owned (peers observe the close on the fabric), and
    /// clears its event queues. The events its full rings held back are
    /// dropped with the connections they belong to, never pushed — as a
    /// shard that waited on a full ring would never have pushed them
    /// either. Its listeners
    /// and charges leave the control table with the fence. Returns the
    /// shard's sock-id allocation point; the replacement must resume the
    /// stride from there so ids are never reused.
    pub fn scrub_after_fence(&mut self) -> SockId {
        for (_, rec) in self.socks.drain() {
            if let SockState::Conn { id, end } = rec.state {
                let _ = self.network.close_for_good(id, end);
            }
        }
        self.evented_conns.clear();
        self.backlog.iter_mut().for_each(VecDeque::clear);
        self.next_sock
    }

    /// Seeds the sock-id allocator (replacements resume the fenced
    /// incarnation's stride; see [`TcpProxy::scrub_after_fence`]).
    pub fn set_next_sock(&mut self, next: SockId) {
        self.next_sock = next;
    }

    /// Executes one RPC from lane `lane`.
    pub fn handle(&mut self, lane: usize, req: NetRequest) -> NetResponse {
        self.try_handle(lane, req)
            .unwrap_or_else(|err| NetResponse::Error { err })
    }

    fn try_handle(&mut self, lane: usize, req: NetRequest) -> Result<NetResponse, RpcErr> {
        let coproc = self.coprocs.get(lane).copied().unwrap_or(lane);
        let next = self.next_sock;
        match req {
            NetRequest::Socket => {
                self.next_sock += self.control.nshards as SockId;
                self.socks.insert(
                    next,
                    SockRec {
                        coproc,
                        state: SockState::Fresh,
                        evented: true,
                        lb_slot: None,
                    },
                );
                Ok(NetResponse::Socket { sock: next })
            }
            NetRequest::Bind { sock, port } => {
                let rec = self.socks.get_mut(&sock).ok_or(missing(next, sock))?;
                if !matches!(rec.state, SockState::Fresh) {
                    return Err(RpcErr::Invalid);
                }
                rec.state = SockState::Bound(port);
                Ok(NetResponse::Ok)
            }
            NetRequest::Listen { sock, backlog } => {
                let rec = self.socks.get_mut(&sock).ok_or(missing(next, sock))?;
                let SockState::Bound(port) = rec.state else {
                    return Err(RpcErr::Invalid);
                };
                let backlog = (backlog as usize).max(64);
                self.control
                    .table
                    .lock()
                    .listen(port, sock, self.shard, &self.network, backlog)
                    .map_err(|_| RpcErr::AddrInUse)?;
                let pending = VecDeque::new();
                rec.state = SockState::Listening { port, pending };
                Ok(NetResponse::Ok)
            }
            NetRequest::Accept { sock } => {
                let rec = self.socks.get_mut(&sock).ok_or(missing(next, sock))?;
                let SockState::Listening { pending, .. } = &mut rec.state else {
                    return Err(RpcErr::NotListening);
                };
                let (conn, peer_addr) = pending.pop_front().ok_or(RpcErr::WouldBlock)?;
                Ok(NetResponse::Accepted { conn, peer_addr })
            }
            NetRequest::Connect { sock, addr, port } => {
                let rec = self.socks.get_mut(&sock).ok_or(missing(next, sock))?;
                if !matches!(rec.state, SockState::Fresh) {
                    return Err(RpcErr::Invalid);
                }
                let id = self
                    .network
                    .client_connect(port, addr)
                    .map_err(|_| RpcErr::ConnRefused)?;
                let end = EndKind::Client;
                rec.state = SockState::Conn { id, end };
                if rec.evented {
                    self.evented_conns.push(sock);
                }
                Ok(NetResponse::Ok)
            }
            NetRequest::Send { sock, data } => {
                let (id, end) = self.conn(sock)?;
                let n = self.network.send(id, end, &data).map_err(net_err)?;
                Ok(NetResponse::Sent { count: n as u64 })
            }
            NetRequest::Recv { sock, max } => {
                let (id, end) = self.conn(sock)?;
                let data = self.network.recv(id, end, max as usize).map_err(net_err)?;
                Ok(NetResponse::Data { data })
            }
            NetRequest::Close { sock } => self.close_sock(sock),
            NetRequest::Setsockopt { sock, opt, val } => {
                let rec = self.socks.get_mut(&sock).ok_or(missing(next, sock))?;
                if opt != SOCKOPT_EVENTED {
                    return Err(RpcErr::Invalid);
                }
                rec.evented = val != 0;
                Ok(NetResponse::Ok)
            }
            NetRequest::Shutdown { sock, how } => {
                let (id, end) = self.conn(sock)?;
                if how >= 1 {
                    let _ = self.network.close(id, end);
                }
                Ok(NetResponse::Ok)
            }
        }
    }

    /// The fabric end of `sock`, which must be a connection.
    fn conn(&self, sock: SockId) -> Result<(ConnId, EndKind), RpcErr> {
        match self.socks.get(&sock) {
            None => Err(missing(self.next_sock, sock)),
            Some(SockRec {
                state: SockState::Conn { id, end },
                ..
            }) => Ok((*id, *end)),
            Some(_) => Err(RpcErr::NotConnected),
        }
    }

    /// Closes `sock` and removes its record, with everything that was
    /// its: its fabric end, its balancer charge, its frames in the lane's
    /// backlog and, for a listener, its port and its un-accepted
    /// connections — each refused the same way, so its peer sees a
    /// severance, never a hang.
    fn close_sock(&mut self, sock: SockId) -> Result<NetResponse, RpcErr> {
        let rec = self
            .socks
            .remove(&sock)
            .ok_or(missing(self.next_sock, sock))?;
        let lane = lane_of(&self.coprocs, rec.coproc);
        let mut refused = purge(&mut self.backlog[lane], sock);
        match rec.state {
            SockState::Conn { id, end } => {
                let _ = self.network.close_for_good(id, end);
                self.evented_conns.retain(|s| *s != sock);
            }
            SockState::Listening { port, pending } => {
                self.control
                    .table
                    .lock()
                    .unlisten(port, sock, &self.network);
                refused.extend(pending.into_iter().map(|(conn, _)| conn));
            }
            SockState::Fresh | SockState::Bound(_) => {}
        }
        if let Some(slot) = rec.lb_slot {
            self.control.release(self.shard, slot);
        }
        for conn in refused {
            let _ = self.close_sock(conn);
        }
        Ok(NetResponse::Ok)
    }

    /// Accepts incoming connections on ports this shard is home to and
    /// routes them through the control table. Returns true when any
    /// work happened.
    fn poll_accepts(&mut self) -> bool {
        // The home ports, read under the lock once per round into a
        // vector kept from round to round.
        let mut ports = std::mem::take(&mut self.scan_ports);
        ports.clear();
        ports.extend(
            self.control
                .table
                .lock()
                .registry
                .iter()
                .filter(|(_, rec)| rec.home == self.shard)
                .map(|(p, _)| *p),
        );
        let mut worked = false;
        for &port in &ports {
            while let Ok(Some((conn, client_addr))) = self.network.poll_accept(port) {
                worked = true;
                let mut table = self.control.table.lock();
                let Some((listener, owner, slot)) = table.route(port, client_addr) else {
                    // The port lost its last proxy-side listener between
                    // the NIC accept and routing: refuse the orphan.
                    drop(table);
                    let _ = self.network.close_for_good(conn, EndKind::Server);
                    continue;
                };
                let h = Handoff {
                    conn,
                    client_addr,
                    listener,
                    slot,
                };
                if owner == self.shard {
                    drop(table);
                    self.deliver(h);
                } else {
                    // Parked before the lock is released, so a fence of
                    // `owner` finds it (see [`TcpControl::fence`]).
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
        // The connection socket, owned by the listener's co-processor.
        let conn_sock = self.next_sock;
        let (coproc, evented) = match self.socks.get_mut(&h.listener) {
            Some(SockRec {
                coproc,
                evented,
                state: SockState::Listening { pending, .. },
                ..
            }) => {
                if !*evented {
                    pending.push_back((conn_sock, h.client_addr));
                }
                (*coproc, *evented)
            }
            // The listener closed while the handoff was in flight (its
            // record left with the close, or with a fence: a replacement
            // starts empty). No accept can reach the connection: refuse
            // it and release its balancer slot.
            _ => {
                let _ = self.network.close_for_good(h.conn, EndKind::Server);
                self.control.release(self.shard, h.slot);
                return;
            }
        };
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
            if !self.backlog[lane_of(&self.coprocs, coproc)].is_empty() {
                // Its reader is behind: the bytes wait in the NIC.
                continue;
            }
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
                    self.push_frame(coproc);
                }
                // The peer closed and the stream drained (reached once: the
                // socket leaves the scan here).
                Err(_) => {
                    worked = true;
                    self.push_event(coproc, &NetEvent::Closed { sock });
                    let rec = self.socks.get_mut(&sock);
                    if let Some(slot) = rec.and_then(|r| r.lb_slot.take()) {
                        self.control.release(self.shard, slot);
                    }
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
        self.push_frame(coproc);
    }

    /// Publishes the encoded `evt_frame` on `coproc`'s event ring without
    /// waiting for its reader: a frame the ring refuses, and every later
    /// one for the same lane, waits in the lane's backlog until
    /// [`TcpProxy::offer_backlogs`] gets it onto the ring, so per-lane
    /// event order holds and one unread ring stalls nothing else.
    fn push_frame(&mut self, coproc: usize) {
        self.stats.events.fetch_add(1, Ordering::Relaxed);
        let lane = lane_of(&self.coprocs, coproc);
        let backlog = &mut self.backlog[lane];
        let sent = if backlog.is_empty() {
            self.evt_tx[lane].send(&self.evt_frame)
        } else {
            Err(RingError::WouldBlock)
        };
        match sent {
            Ok(()) => {}
            Err(RingError::WouldBlock) => backlog.push_back(self.evt_frame.clone()),
            // Larger than the ring accepts: the co-processor never sees
            // it. Count the loss instead of hiding it — E8 trips on any
            // nonzero drop count.
            Err(_) => {
                self.stats.event_drops.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Re-offers each lane's backlog, oldest first, until its ring
    /// refuses again. Returns whether any frame left a backlog.
    fn offer_backlogs(&mut self) -> bool {
        let mut moved = false;
        for (tx, backlog) in self.evt_tx.iter().zip(&mut self.backlog) {
            while let Some(frame) = backlog.front() {
                match tx.send(frame) {
                    Err(RingError::WouldBlock) => break,
                    Err(_) => {
                        self.stats.event_drops.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(()) => {}
                }
                backlog.pop_front();
                moved = true;
            }
        }
        moved
    }

    /// Executes one coalesced run's backend write, returning how it went.
    fn send_run(&self, sock: SockId, run: &SendRun) -> Result<(), RpcErr> {
        self.stats.send_waves.fetch_add(1, Ordering::Relaxed);
        self.stats
            .staged_sends
            .fetch_add(run.parts.len() as u64, Ordering::Relaxed);
        let (id, end) = self.conn(sock)?;
        self.network.send(id, end, &run.data).map_err(net_err)?;
        Ok(())
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

    /// Backlogged events first, so nothing new overtakes them. A
    /// backlog its ring still refuses is not work: the engine parks, and
    /// its bounded park is the retry.
    fn poll(&mut self) -> bool {
        let offered = self.offer_backlogs();
        let drained = self.drain_inbox();
        let accepted = self.poll_accepts();
        let data = self.poll_data();
        offered || drained || accepted || data
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{Channel, EVENT_RING_BYTES};
    use solros_pcie::{PcieCounters, Side};
    use solros_ringbuf::{RingBuf, RingConfig};
    use solros_simkit::check;

    /// A one-lane proxy and the co-processor's end of its event ring of
    /// `evt_bytes`, which nobody reads unless the test does.
    fn one_lane(evt_bytes: usize) -> (TcpProxy, Arc<Network>, Consumer) {
        let network = Network::new();
        let counters = Arc::new(PcieCounters::new());
        let ch = Channel::new(Arc::clone(&counters));
        let ring = RingConfig::over_pcie(evt_bytes, Side::Host, Side::Host, Side::Coproc);
        let (evt_tx, evt_rx) = RingBuf::new(ring, counters).endpoints();
        let host = NetChannelHost {
            req_rx: ch.req_rx,
            resp_tx: ch.resp_tx,
            evt_tx,
        };
        let (proxy, _) = TcpProxy::new(
            Arc::clone(&network),
            vec![host],
            Box::new(RoundRobin::default()),
        );
        (proxy, network, evt_rx)
    }

    /// Opens a socket; returns it.
    fn socket(proxy: &mut TcpProxy) -> SockId {
        let NetResponse::Socket { sock } = proxy.handle(0, NetRequest::Socket) else {
            panic!("socket");
        };
        sock
    }

    /// Opens a listener on `port`; returns its socket.
    fn listen(proxy: &mut TcpProxy, port: u16) -> SockId {
        let sock = socket(proxy);
        assert_eq!(
            proxy.handle(0, NetRequest::Bind { sock, port }),
            NetResponse::Ok
        );
        let listen = NetRequest::Listen { sock, backlog: 4 };
        assert_eq!(proxy.handle(0, listen), NetResponse::Ok);
        sock
    }

    #[test]
    fn audit_reports_a_charge_whose_close_was_skipped() {
        let (mut proxy, network, _evt_rx) = one_lane(EVENT_RING_BYTES);
        listen(&mut proxy, 80);
        network.client_connect(80, 7).expect("connect");
        assert!(proxy.poll(), "the connection is routed");
        let control = Arc::clone(&proxy.control);
        assert_eq!(control.audit(&[&proxy]), Vec::<String>::new());

        // Close the accepted connection as `close_sock` does, minus the
        // release of its charge.
        proxy.socks.retain(|_, r| r.lb_slot.is_none());
        assert_eq!(
            control.audit(&[&proxy]),
            vec!["shard 0 slot 0: 1 charged, 0 open connections".to_string()]
        );
    }

    /// With its event ring full and unread, a lane holds back one frame
    /// and leaves the rest of its inbound bytes in the NIC. A close
    /// drops what the backlog holds for the closed socket: the frames of
    /// a closed connection, and the `Accepted` event of a connection that
    /// reached a closing listener — refused, so its peer sees the close.
    #[test]
    fn a_full_ring_holds_back_one_frame_and_a_close_drops_its_own() {
        let (mut proxy, network, _evt_rx) = one_lane(EVENT_RING_BYTES);
        let listener = listen(&mut proxy, 80);
        let flooder = network.client_connect(80, 1).expect("connect");
        assert!(proxy.poll(), "the connection is routed");
        let flooded = proxy.evented_conns[0];
        let flood = vec![7u8; 2 * EVENT_RING_BYTES];
        network.send(flooder, EndKind::Client, &flood).unwrap();
        for _ in 0..flood.len() / RECV_CHUNK {
            proxy.poll();
        }
        assert_eq!(proxy.backlog[0].len(), 1, "one frame held back");
        assert!(!proxy.poll(), "a backlog its ring refuses is no work");

        let late = network.client_connect(80, 2).expect("connect");
        assert!(proxy.poll(), "the connection is routed");
        assert_eq!(proxy.backlog[0].len(), 2, "its `Accepted` waits its turn");
        assert_eq!(
            proxy.handle(0, NetRequest::Close { sock: listener }),
            NetResponse::Ok
        );
        assert_eq!(proxy.backlog[0].len(), 1);
        assert_eq!(
            network.recv(late, EndKind::Client, 16),
            Err(NetworkError::Closed),
            "the refused peer sees the close"
        );
        assert_eq!(
            proxy.handle(0, NetRequest::Close { sock: flooded }),
            NetResponse::Ok
        );
        assert!(proxy.backlog[0].is_empty());
        let control = Arc::clone(&proxy.control);
        assert_eq!(control.audit(&[&proxy]), Vec::<String>::new());
    }

    /// A socket's record lives as long as the socket: a thousand refused
    /// connects leave no record behind. A request naming a closed socket
    /// is answered `NotConnected`, one naming an id never issued
    /// `NotFound`.
    #[test]
    fn closed_sockets_leave_the_proxy_table() {
        let (mut proxy, _network, _evt_rx) = one_lane(EVENT_RING_BYTES);
        let refused = NetResponse::Error {
            err: RpcErr::ConnRefused,
        };
        let mut sock = 0;
        for _ in 0..1_000 {
            sock = socket(&mut proxy);
            let connect = NetRequest::Connect {
                sock,
                addr: 1,
                port: 9,
            };
            assert_eq!(proxy.handle(0, connect), refused);
            assert_eq!(proxy.handle(0, NetRequest::Close { sock }), NetResponse::Ok);
        }
        assert!(proxy.socks.is_empty(), "{} records left", proxy.socks.len());
        let missing = |err| NetResponse::Error { err };
        let again = proxy.handle(0, NetRequest::Close { sock });
        assert_eq!(again, missing(RpcErr::NotConnected));
        let unissued = proxy.handle(0, NetRequest::Close { sock: sock + 1 });
        assert_eq!(unissued, missing(RpcErr::NotFound));
    }

    /// Applies every event on the co-processor's ring: the connections
    /// accepted for it join `conns`.
    fn read_events(rx: &Consumer, conns: &mut Vec<SockId>) {
        while let Ok(frame) = rx.recv() {
            if let Ok(NetEvent::Accepted { conn, .. }) = NetEvent::decode_borrowed(&frame) {
                conns.push(conn);
            }
        }
    }

    /// Random socket churn, with the NIC as the peer: listeners (some
    /// polled, not evented) come and go on shared ports, peers connect,
    /// send and hang up, the co-processor accepts, reads, shuts down and
    /// closes — or leaves its small event ring unread until the lane
    /// backs up into the NIC. Once both sides have closed everything,
    /// every table of the shard and of the control plane is empty, and
    /// the NIC holds no connection.
    #[test]
    fn tcp_churn_returns_every_table_to_empty() {
        const PORTS: [u16; 3] = [80, 81, 82];
        check::cases(200, |rng| {
            // The smallest ring whose largest frame (a quarter of it)
            // takes a full `RECV_CHUNK` event: a few unread sends fill it.
            let (mut proxy, network, evt_rx) = one_lane(8 * RECV_CHUNK);
            // What the co-processor holds: listeners and connections.
            let mut listeners: Vec<SockId> = Vec::new();
            let mut conns: Vec<SockId> = Vec::new();
            // The peers' ends, and those not yet hung up.
            let mut peers = Vec::new();
            let mut open = Vec::new();
            // Half the co-processors leave their ring unread until the end.
            let reads = rng.chance(0.5);
            for _ in 0..rng.range(1..120) {
                match check::pick(rng, &[3, 4, 6, 3, 5, 3, 3, 1, 2, 2, 2]) {
                    0 => {
                        let sock = listen(&mut proxy, PORTS[rng.index(PORTS.len())]);
                        if rng.chance(0.3) {
                            let (opt, val) = (SOCKOPT_EVENTED, 0);
                            let polled = NetRequest::Setsockopt { sock, opt, val };
                            assert_eq!(proxy.handle(0, polled), NetResponse::Ok);
                        }
                        listeners.push(sock);
                    }
                    1 => {
                        let port = PORTS[rng.index(PORTS.len())];
                        if let Ok(conn) = network.client_connect(port, rng.below(8)) {
                            peers.push(conn);
                            open.push(conn);
                        }
                    }
                    2 => {
                        proxy.poll();
                    }
                    3 if !listeners.is_empty() => {
                        let sock = listeners[rng.index(listeners.len())];
                        if let NetResponse::Accepted { conn, .. } =
                            proxy.handle(0, NetRequest::Accept { sock })
                        {
                            conns.push(conn);
                        }
                    }
                    4 if !open.is_empty() => {
                        let data = vec![7u8; rng.range(1..256 * 1024) as usize];
                        let _ = network.send(open[rng.index(open.len())], EndKind::Client, &data);
                    }
                    5 if !open.is_empty() => {
                        let conn = open.swap_remove(rng.index(open.len()));
                        let _ = network.close(conn, EndKind::Client);
                    }
                    6 if !conns.is_empty() => {
                        let sock = conns.swap_remove(rng.index(conns.len()));
                        let close = proxy.handle(0, NetRequest::Close { sock });
                        assert_eq!(close, NetResponse::Ok);
                    }
                    7 if !listeners.is_empty() => {
                        let sock = listeners.swap_remove(rng.index(listeners.len()));
                        let close = proxy.handle(0, NetRequest::Close { sock });
                        assert_eq!(close, NetResponse::Ok);
                    }
                    8 if !conns.is_empty() => {
                        let sock = conns[rng.index(conns.len())];
                        proxy.handle(0, NetRequest::Shutdown { sock, how: 1 });
                    }
                    9 if !conns.is_empty() => {
                        let sock = conns[rng.index(conns.len())];
                        let max = RECV_CHUNK as u32;
                        proxy.handle(0, NetRequest::Recv { sock, max });
                    }
                    10 if reads => read_events(&evt_rx, &mut conns),
                    _ => {}
                }
            }
            // The co-processor drains its ring and closes what it holds
            // until the shard has nothing more to hand it.
            loop {
                read_events(&evt_rx, &mut conns);
                let worked = proxy.poll();
                read_events(&evt_rx, &mut conns);
                let held = conns.len() + listeners.len();
                for sock in conns.drain(..).chain(listeners.drain(..)) {
                    let close = proxy.handle(0, NetRequest::Close { sock });
                    assert_eq!(close, NetResponse::Ok);
                }
                if !worked && held == 0 {
                    break;
                }
            }
            // The peers hang up and read to the end: the rest of the
            // bytes, then the FIN.
            for &conn in &open {
                let _ = network.close(conn, EndKind::Client);
            }
            for &conn in &peers {
                for _ in 0..2 {
                    let _ = network.recv(conn, EndKind::Client, usize::MAX);
                }
            }
            assert!(proxy.socks.is_empty(), "{} sockets left", proxy.socks.len());
            assert!(proxy.evented_conns.is_empty());
            assert!(proxy.backlog.iter().all(VecDeque::is_empty));
            let control = Arc::clone(&proxy.control);
            {
                let table = control.table.lock();
                assert!(table.registry.is_empty(), "ports left registered");
                assert!(table.conn_counts.is_empty(), "charges left");
            }
            assert_eq!(control.audit(&[&proxy]), Vec::<String>::new());
            assert_eq!(control.event_drops(), 0);
            assert_eq!(network.live_connections(), 0, "connections left in the NIC");
        });
    }
}
