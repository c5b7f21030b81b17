//! Host-global hierarchical QoS: tenant → service → flow scheduling
//! over sharded, epoch-GC'd flow tables.
//!
//! The gate is a three-level hierarchy that stays O(active tenants):
//!
//! * **Level 1 — tenants.** A host-wide [`HostScheduler`] directory
//!   arbitrates tenants against host budgets. Budgets and charges for
//!   wire tenants ride the replicated [`TenantLedger`](crate::TenantLedger) operation log,
//!   so every domain's gate reads the *host-global* usage from its
//!   socket-local replica and the budget decision rebalances across
//!   domains without any cross-shard locking. An over-budget tenant's
//!   flows become sheddable under overload (promoted flows stay
//!   immune: priority inheritance outranks tenant gating by design —
//!   a paced waiter must not starve behind its own budget gate).
//! * **Level 2 — services.** Each tenant's host budget splits between
//!   the control-plane services (FS vs TCP) by configured share. A
//!   tenant backlogged on *both* services has each gate's deficit
//!   credit scaled to the service's share, so flooding one service
//!   cannot double a tenant's host-wide throughput; a tenant active on
//!   one service keeps its full credit.
//! * **Level 3 — flows.** Per-flow deficit round robin, token buckets,
//!   deadlines, explicit shedding, credit-byte backpressure, and the
//!   promote/demote hooks the proxy engine's priority inheritance uses.
//!
//! Flow state lives in per-domain [`HostGate`] shards (one per engine
//! shard, matching the control plane's NUMA sharding) keyed
//! `(tenant, service, class)` in a hash-indexed slab. The flows a gate
//! is built with are permanent and serve tenant 0; every other tenant
//! is admitted lazily on its first frame (one hash probe, no
//! allocation on the steady path) and reclaimed by an epoch GC once
//! idle — never while it holds queued work, live pins (exclusive
//! holds in flight), or an inherited promotion.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use solros_simkit::sync::Mutex;

use crate::bucket::TokenBucket;
use crate::config::{QosClass, QosConfig};
use crate::sched::{Dispatch, FlowSpec, ShedReason, Verdict};
use crate::stats::QosStats;
use crate::tenant::{TenantLedgerReplica, TENANT_SLOTS};

/// Number of control-plane services arbitrated at level 2.
pub const SERVICE_COUNT: usize = 2;

/// A control-plane service lane in the tenant hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Service {
    /// The file-system proxy service.
    Fs,
    /// The TCP proxy service.
    Tcp,
}

impl Service {
    /// All services, in index order.
    pub const ALL: [Service; SERVICE_COUNT] = [Service::Fs, Service::Tcp];

    /// Stable index into per-service arrays.
    pub fn index(self) -> usize {
        match self {
            Service::Fs => 0,
            Service::Tcp => 1,
        }
    }

    /// Human-readable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Service::Fs => "fs",
            Service::Tcp => "tcp",
        }
    }
}

/// Tuning for the tenant→service→flow hierarchy.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Level-2 service shares (`[fs, tcp]`): a tenant backlogged on
    /// both services gets each gate's deficit credit scaled to its
    /// service's share of the sum.
    pub service_weights: [u32; SERVICE_COUNT],
    /// Default level-1 weight for lazily admitted tenants.
    pub tenant_weight: u32,
    /// Default host-wide byte budget per tenant; `None` = unlimited.
    /// Ledger-backed (wire) tenants take their budget from the
    /// replicated [`crate::TenantLedger`] when one is set there.
    pub tenant_budget_bytes: Option<u64>,
    /// Epoch length driving GC and budget rebalance, in nanoseconds of
    /// whatever clock the owning gate is driven by.
    pub epoch_ns: u64,
    /// Idle epochs before a dynamic flow-table entry is reclaimed.
    pub gc_idle_epochs: u64,
}

impl Default for HostConfig {
    fn default() -> Self {
        Self {
            service_weights: [1, 1],
            tenant_weight: 1,
            tenant_budget_bytes: None,
            epoch_ns: 10_000_000, // 10 ms
            gc_idle_epochs: 2,
        }
    }
}

/// Budget sentinel: unlimited.
const NO_BUDGET: u64 = u64::MAX;

/// Per-tenant directory entry shared by every gate shard. All hot-path
/// reads are plain atomics; the directory mutex is only taken on lazy
/// admission and at epoch rebalance.
struct TenantEntry {
    /// Level-1 DWRR weight multiplier.
    weight: AtomicU32,
    /// Host-wide byte budget ([`NO_BUDGET`] = unlimited).
    budget_bytes: AtomicU64,
    /// Host-wide bytes charged. For ledger-backed tenants this mirrors
    /// the replicated ledger at the last rebalance; for wide (sim)
    /// tenants the gates add directly at admission.
    charged_bytes: AtomicU64,
    /// Bytes currently queued per service, across every gate shard.
    /// Exact (incremented at admit, decremented at dispatch/shed/
    /// drain), so level 2 needs no decay heuristics.
    backlog: [AtomicU64; SERVICE_COUNT],
    /// Charged/budgeted from the replicated ledger at rebalance.
    ledger_backed: bool,
    /// Explicitly configured (weight/budget set by an operator):
    /// survives directory GC even with no live flows.
    pinned: std::sync::atomic::AtomicBool,
}

impl TenantEntry {
    fn new(weight: u32, budget: Option<u64>, ledger_backed: bool) -> Self {
        Self {
            weight: AtomicU32::new(weight.max(1)),
            budget_bytes: AtomicU64::new(budget.unwrap_or(NO_BUDGET)),
            charged_bytes: AtomicU64::new(0),
            backlog: [AtomicU64::new(0), AtomicU64::new(0)],
            ledger_backed,
            pinned: std::sync::atomic::AtomicBool::new(false),
        }
    }

    fn over_budget(&self) -> bool {
        let b = self.budget_bytes.load(Ordering::Relaxed);
        b != NO_BUDGET && self.charged_bytes.load(Ordering::Relaxed) > b
    }

    /// Level-2 share of the deficit credit for `service`: full credit
    /// while the tenant is active on this service alone, the service's
    /// configured fraction while other services hold backlog too.
    fn service_share(&self, service: usize, weights: &[u32; SERVICE_COUNT]) -> (u64, u64) {
        let mut wsum = 0u64;
        for (s, w) in weights.iter().enumerate() {
            if s == service || self.backlog[s].load(Ordering::Relaxed) > 0 {
                wsum += u64::from((*w).max(1));
            }
        }
        (u64::from(weights[service].max(1)), wsum.max(1))
    }
}

/// Point-in-time counters for the host directory and every gate shard
/// registered under it — the occupancy/GC ledger the bench surfaces.
#[derive(Debug, Default, Clone)]
pub struct HostQosSnapshot {
    /// Flow-table entries currently live across all shards (dynamic
    /// per-tenant entries; static per-class flows are not counted).
    pub live_flows: usize,
    /// High-water mark of `live_flows`.
    pub peak_live_flows: usize,
    /// Dynamic flows ever admitted (lazy first-frame admissions).
    pub admitted_flows: u64,
    /// Dynamic flows reclaimed by the epoch GC (or shard retirement).
    pub reclaimed_flows: u64,
    /// Tenants currently in the directory.
    pub live_tenants: usize,
    /// High-water mark of `live_tenants`.
    pub peak_live_tenants: usize,
    /// Tenants ever admitted to the directory.
    pub admitted_tenants: u64,
    /// Tenants dropped from the directory after their flows were GC'd.
    pub reclaimed_tenants: u64,
    /// Budget rebalances run (ledger sync + directory sweep).
    pub rebalances: u64,
    /// Submissions shed at level 1 (tenant over host budget) that the
    /// flow's class alone would have admitted.
    pub budget_sheds: u64,
}

/// Host-wide level-1/level-2 state shared by every [`HostGate`] shard:
/// the lazily-populated tenant directory, the replicated-ledger budget
/// view, and the occupancy/GC counters.
pub struct HostScheduler {
    cfg: HostConfig,
    /// The only lock in here. The replica synchronises itself, and
    /// whether one is attached is fixed at construction, so admission
    /// and rebalance never hold two locks of this struct at once.
    tenants: Mutex<HashMap<u64, Arc<TenantEntry>>>,
    ledger: Option<TenantLedgerReplica>,
    live_flows: AtomicUsize,
    peak_live_flows: AtomicUsize,
    admitted_flows: AtomicU64,
    reclaimed_flows: AtomicU64,
    peak_live_tenants: AtomicUsize,
    admitted_tenants: AtomicU64,
    reclaimed_tenants: AtomicU64,
    rebalances: AtomicU64,
    budget_sheds: AtomicU64,
}

impl HostScheduler {
    /// Builds a host scheduler with no ledger attachment (budgets come
    /// only from [`HostScheduler::set_tenant_budget`]).
    pub fn new(cfg: HostConfig) -> Arc<Self> {
        Self::build(cfg, None)
    }

    /// Builds a host scheduler whose wire-tenant (< [`TENANT_SLOTS`])
    /// budgets and charges rebalance from the replicated tenant ledger
    /// every epoch.
    pub fn with_ledger(cfg: HostConfig, replica: TenantLedgerReplica) -> Arc<Self> {
        Self::build(cfg, Some(replica))
    }

    fn build(cfg: HostConfig, replica: Option<TenantLedgerReplica>) -> Arc<Self> {
        Arc::new(Self {
            cfg,
            tenants: Mutex::new(HashMap::new()),
            ledger: replica,
            live_flows: AtomicUsize::new(0),
            peak_live_flows: AtomicUsize::new(0),
            admitted_flows: AtomicU64::new(0),
            reclaimed_flows: AtomicU64::new(0),
            peak_live_tenants: AtomicUsize::new(0),
            admitted_tenants: AtomicU64::new(0),
            reclaimed_tenants: AtomicU64::new(0),
            rebalances: AtomicU64::new(0),
            budget_sheds: AtomicU64::new(0),
        })
    }

    /// The configured hierarchy tuning.
    pub fn config(&self) -> &HostConfig {
        &self.cfg
    }

    /// Sets a tenant's level-1 weight, admitting it if new. The entry
    /// is pinned: it survives directory GC even with no live flows.
    pub fn set_tenant_weight(&self, tenant: u64, weight: u32) {
        let e = self.tenant(tenant);
        e.weight.store(weight.max(1), Ordering::Relaxed);
        e.pinned.store(true, Ordering::Relaxed);
    }

    /// Sets a tenant's host-wide byte budget (`None` = unlimited),
    /// admitting and pinning it if new.
    pub fn set_tenant_budget(&self, tenant: u64, bytes: Option<u64>) {
        let e = self.tenant(tenant);
        e.budget_bytes
            .store(bytes.unwrap_or(NO_BUDGET), Ordering::Relaxed);
        e.pinned.store(true, Ordering::Relaxed);
    }

    /// True while `tenant` is charged past its host-wide budget.
    pub fn tenant_over_budget(&self, tenant: u64) -> bool {
        self.tenants
            .lock()
            .get(&tenant)
            .is_some_and(|e| e.over_budget())
    }

    /// Snapshot of the occupancy/GC ledger.
    pub fn snapshot(&self) -> HostQosSnapshot {
        let live_tenants = self.tenants.lock().len();
        HostQosSnapshot {
            live_flows: self.live_flows.load(Ordering::Relaxed),
            peak_live_flows: self.peak_live_flows.load(Ordering::Relaxed),
            admitted_flows: self.admitted_flows.load(Ordering::Relaxed),
            reclaimed_flows: self.reclaimed_flows.load(Ordering::Relaxed),
            live_tenants,
            peak_live_tenants: self.peak_live_tenants.load(Ordering::Relaxed),
            admitted_tenants: self.admitted_tenants.load(Ordering::Relaxed),
            reclaimed_tenants: self.reclaimed_tenants.load(Ordering::Relaxed),
            rebalances: self.rebalances.load(Ordering::Relaxed),
            budget_sheds: self.budget_sheds.load(Ordering::Relaxed),
        }
    }

    /// Looks up or lazily admits a tenant directory entry.
    fn tenant(&self, id: u64) -> Arc<TenantEntry> {
        let mut g = self.tenants.lock();
        if let Some(e) = g.get(&id) {
            return Arc::clone(e);
        }
        let ledger_backed = id < TENANT_SLOTS as u64 && self.ledger.is_some();
        let e = Arc::new(TenantEntry::new(
            self.cfg.tenant_weight,
            self.cfg.tenant_budget_bytes,
            ledger_backed,
        ));
        g.insert(id, Arc::clone(&e));
        self.admitted_tenants.fetch_add(1, Ordering::Relaxed);
        self.peak_live_tenants.fetch_max(g.len(), Ordering::Relaxed);
        e
    }

    /// Epoch rebalance, run by whichever gate shard crosses an epoch
    /// boundary: syncs the ledger replica, copies the host-global
    /// charges and budgets into the wire tenants' directory entries
    /// (this is how one domain's flood, charged on its local shard,
    /// gates the same tenant on every *other* domain), and sweeps
    /// directory entries whose flows were all reclaimed.
    pub fn rebalance(&self) {
        self.rebalances.fetch_add(1, Ordering::Relaxed);
        if let Some(rep) = &self.ledger {
            rep.sync();
        }
        let mut g = self.tenants.lock();
        if let Some(rep) = &self.ledger {
            for (&id, e) in g.iter() {
                if !e.ledger_backed || id >= TENANT_SLOTS as u64 {
                    continue;
                }
                let u = rep.usage(id as u8);
                e.charged_bytes.store(u.bytes, Ordering::Relaxed);
                if let Some(b) = u.budget_bytes {
                    e.budget_bytes.store(b, Ordering::Relaxed);
                }
            }
        }
        let before = g.len();
        g.retain(|_, e| Arc::strong_count(e) > 1 || e.pinned.load(Ordering::Relaxed));
        self.reclaimed_tenants
            .fetch_add((before - g.len()) as u64, Ordering::Relaxed);
    }

    fn note_flow_admitted(&self) {
        self.admitted_flows.fetch_add(1, Ordering::Relaxed);
        let live = self.live_flows.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_live_flows.fetch_max(live, Ordering::Relaxed);
    }

    fn note_flow_reclaimed(&self) {
        self.reclaimed_flows.fetch_add(1, Ordering::Relaxed);
        self.live_flows.fetch_sub(1, Ordering::Relaxed);
    }
}

struct HostQueued<T> {
    bytes: u64,
    submit_ns: u64,
    item: T,
}

struct HostFlow<T> {
    spec: FlowSpec,
    /// Stats ledger slot (dynamic flows charge their base class slot).
    stats_slot: usize,
    /// `(tenant, base flow)` hash key; `None` marks a static flow that
    /// is never GC'd.
    key: Option<(u64, usize)>,
    tenant: Arc<TenantEntry>,
    ops: TokenBucket,
    bytes: TokenBucket,
    queue: VecDeque<HostQueued<T>>,
    deficit: u64,
    inherited: Vec<u32>,
    /// Live credits: exclusive holds (admission → completion) the
    /// engine has in flight against this flow. GC never reclaims a
    /// pinned flow — the engine still holds its index.
    pins: u32,
    last_busy_epoch: u64,
}

impl<T> HostFlow<T> {
    fn weight(&self) -> u32 {
        self.inherited
            .iter()
            .copied()
            .fold(self.spec.weight, u32::max)
    }

    fn promoted(&self) -> bool {
        !self.inherited.is_empty()
    }
}

/// One domain's shard of the hierarchical flow table: the level-3 DWRR
/// gate the proxy engine drives, backed by a hash-indexed slab that
/// admits per-tenant flows lazily and epoch-GCs them once idle.
///
/// The static flows passed at construction (one per class, by
/// convention) are permanent, keep their indices and serve tenant 0.
pub struct HostGate<T> {
    host: Arc<HostScheduler>,
    service: Service,
    domain: usize,
    /// Static flow count; every dynamic flow charges stats to a slot
    /// below this and resolves through `index`.
    base: usize,
    flows: Vec<Option<HostFlow<T>>>,
    index: HashMap<(u64, usize), usize>,
    free: Vec<usize>,
    /// Round-robin visit order over live slots.
    order: Vec<usize>,
    cursor: usize,
    fresh_turn: bool,
    quantum_bytes: u64,
    overload_threshold: usize,
    queued_total: usize,
    epoch: u64,
    next_epoch_ns: u64,
    stats: Arc<QosStats>,
}

impl<T> HostGate<T> {
    /// Builds a gate shard over `specs` (the permanent flows, in
    /// priority order) for one `service` on one `domain`.
    pub fn new(
        specs: Vec<FlowSpec>,
        quantum_bytes: u64,
        overload_threshold: usize,
        host: &Arc<HostScheduler>,
        service: Service,
        domain: usize,
    ) -> Self {
        assert!(!specs.is_empty(), "gate needs at least one flow");
        let stats = Arc::new(QosStats::new(
            specs.iter().map(|s| s.name.clone()).collect(),
        ));
        let mut gate = Self {
            host: Arc::clone(host),
            service,
            domain,
            base: specs.len(),
            flows: Vec::with_capacity(specs.len()),
            index: HashMap::new(),
            free: Vec::new(),
            order: (0..specs.len()).collect(),
            cursor: 0,
            fresh_turn: true,
            quantum_bytes: quantum_bytes.max(1),
            overload_threshold,
            queued_total: 0,
            epoch: 0,
            next_epoch_ns: 0,
            stats,
        };
        let tenant0 = gate.host.tenant(0);
        for (i, spec) in specs.into_iter().enumerate() {
            gate.flows.push(Some(HostFlow {
                ops: TokenBucket::new(spec.ops_per_sec, spec.burst_ops.max(1)),
                bytes: TokenBucket::new(spec.bytes_per_sec, spec.burst_bytes.max(1)),
                queue: VecDeque::new(),
                deficit: 0,
                inherited: Vec::new(),
                pins: 0,
                last_busy_epoch: 0,
                stats_slot: i,
                key: None,
                tenant: Arc::clone(&tenant0),
                spec,
            }));
        }
        gate
    }

    /// Builds one permanent flow per priority class from a
    /// [`QosConfig`]; flow indices equal [`QosClass::index`].
    pub fn per_class(
        prefix: &str,
        cfg: &QosConfig,
        host: &Arc<HostScheduler>,
        service: Service,
        domain: usize,
    ) -> Self {
        let specs = QosClass::ALL
            .iter()
            .map(|&c| FlowSpec::from_class(format!("{prefix}/{}", c.label()), c, cfg.class(c)))
            .collect();
        Self::new(
            specs,
            cfg.quantum_bytes,
            cfg.overload_threshold,
            host,
            service,
            domain,
        )
    }

    /// The shared stats ledger (per-class; dynamic tenant flows charge
    /// their base class slot).
    pub fn stats(&self) -> Arc<QosStats> {
        Arc::clone(&self.stats)
    }

    /// The host scheduler this shard reports to.
    pub fn host(&self) -> &Arc<HostScheduler> {
        &self.host
    }

    /// The engine domain this shard serves.
    pub fn domain(&self) -> usize {
        self.domain
    }

    /// Live flow-table entries in this shard (static + dynamic).
    pub fn occupancy(&self) -> usize {
        self.order.len()
    }

    /// Total requests queued across all flows.
    pub fn queued_total(&self) -> usize {
        self.queued_total
    }

    /// Requests queued in one flow.
    pub fn queued(&self, flow: usize) -> usize {
        self.flows[flow].as_ref().map_or(0, |f| f.queue.len())
    }

    /// True while the gate considers itself overloaded.
    pub fn overloaded(&self) -> bool {
        self.queued_total >= self.overload_threshold
    }

    /// Current GC epoch of this shard.
    pub fn gc_epoch(&self) -> u64 {
        self.epoch
    }

    /// Probes the flow table without admitting: the slot serving
    /// `(tenant, fallback)` if one is live.
    pub fn lookup(&self, tenant: u64, fallback: usize) -> Option<usize> {
        let f = self.flows[fallback].as_ref()?;
        if tenant == f.key.map_or(0, |k| k.0) {
            return Some(fallback);
        }
        self.index.get(&(tenant, fallback)).copied()
    }

    /// Resolves the flow serving `tenant` in the same role as
    /// `fallback`, admitting a per-tenant flow lazily on first use.
    /// The steady path is one hash probe — no allocation, no scan.
    pub fn flow_for_tenant(&mut self, tenant: u64, fallback: usize) -> usize {
        debug_assert!(fallback < self.base, "fallback must be a static flow");
        if tenant == 0 {
            return fallback;
        }
        if let Some(&slot) = self.index.get(&(tenant, fallback)) {
            return slot;
        }
        self.admit_flow(tenant, fallback)
    }

    /// Lazily admits a per-tenant variant of the static flow
    /// `fallback`: same class config, its own queue, buckets, and
    /// deficit, charged to the tenant's level-1 entry.
    fn admit_flow(&mut self, tenant: u64, fallback: usize) -> usize {
        let spec = self.flows[fallback]
            .as_ref()
            .expect("static flow")
            .spec
            .clone();
        let entry = self.host.tenant(tenant);
        let flow = HostFlow {
            ops: TokenBucket::new(spec.ops_per_sec, spec.burst_ops.max(1)),
            bytes: TokenBucket::new(spec.bytes_per_sec, spec.burst_bytes.max(1)),
            queue: VecDeque::new(),
            deficit: 0,
            inherited: Vec::new(),
            pins: 0,
            last_busy_epoch: self.epoch,
            stats_slot: fallback,
            key: Some((tenant, fallback)),
            tenant: entry,
            spec,
        };
        let slot = match self.free.pop() {
            Some(s) => {
                self.flows[s] = Some(flow);
                s
            }
            None => {
                self.flows.push(Some(flow));
                self.flows.len() - 1
            }
        };
        self.index.insert((tenant, fallback), slot);
        // A newly admitted flow joins the rotation *behind* the cursor,
        // entering service on the next wrap. Appending ahead of the
        // cursor instead lets sustained flow churn postpone the wrap
        // forever — each serviced request admits a fresh flow in front
        // of the cursor and the flows behind it starve outright.
        self.order.insert(self.cursor.min(self.order.len()), slot);
        if self.cursor < self.order.len() - 1 {
            self.cursor += 1;
        }
        self.host.note_flow_admitted();
        slot
    }

    /// Credit window to advertise to the stub feeding `flow` (queue
    /// headroom clamped to the frame header's `1..=255`). Never zero,
    /// so a stub can always make progress and re-learn the window from
    /// its next reply.
    pub fn credit(&self, flow: usize) -> u8 {
        let f = self.flows[flow].as_ref().expect("live flow");
        let free = f.spec.queue_cap.saturating_sub(f.queue.len());
        free.clamp(1, 255) as u8
    }

    /// Priority inheritance (the waiter side of a lock-holder
    /// protocol): `flow` inherits `waiter`'s effective weight and, while
    /// promoted, immunity from overload *and* tenant-budget shedding
    /// (the waiter must not starve behind the holder's budget gate), so
    /// work queued behind a resource the waiter needs drains at the
    /// waiter's priority. Promotions nest: each call pushes one
    /// inherited weight and the strongest wins; each
    /// [`HostGate::demote_flow`] releases the most recent, and a flow
    /// with none left behaves exactly as its spec describes.
    pub fn promote_flow(&mut self, flow: usize, waiter: usize) {
        let w = self.effective_weight(waiter);
        self.flows[flow]
            .as_mut()
            .expect("live flow")
            .inherited
            .push(w);
    }

    /// Releases the most recent promotion of `flow`.
    pub fn demote_flow(&mut self, flow: usize) {
        if let Some(f) = self.flows[flow].as_mut() {
            f.inherited.pop();
        }
    }

    /// True while `flow` carries at least one inherited weight.
    pub fn is_promoted(&self, flow: usize) -> bool {
        self.flows[flow].as_ref().is_some_and(|f| f.promoted())
    }

    /// The DWRR weight currently in force for `flow`.
    pub fn effective_weight(&self, flow: usize) -> u32 {
        self.flows[flow].as_ref().map_or(1, |f| f.weight())
    }

    /// Pins `flow` against GC: the engine holds a live reference (an
    /// exclusive hold in flight) whose index must stay valid.
    pub fn pin_flow(&mut self, flow: usize) {
        if let Some(f) = self.flows[flow].as_mut() {
            f.pins += 1;
        }
    }

    /// Releases one GC pin on `flow`.
    pub fn unpin_flow(&mut self, flow: usize) {
        if let Some(f) = self.flows[flow].as_mut() {
            f.pins = f.pins.saturating_sub(1);
        }
    }

    /// Offers a request of `bytes` payload to `flow` at `now_ns`.
    ///
    /// Level-1 gating happens here: while the gate is overloaded, an
    /// over-budget tenant's flows shed exactly like sheddable classes
    /// (High stays exempt — metadata is cheap and starving it deadlocks
    /// more than it saves). Promoted flows are immune at every level.
    pub fn submit(&mut self, flow: usize, bytes: u64, now_ns: u64, item: T) -> Verdict<T> {
        let overloaded = self.queued_total >= self.overload_threshold;
        let epoch = self.epoch;
        let svc = self.service.index();
        let f = self.flows[flow].as_mut().expect("live flow");
        if overloaded && !f.promoted() {
            let budget_shed = f.tenant.over_budget() && f.spec.class != QosClass::High;
            if f.spec.sheddable || budget_shed {
                if budget_shed && !f.spec.sheddable {
                    self.host.budget_sheds.fetch_add(1, Ordering::Relaxed);
                }
                self.stats.on_shed(f.stats_slot, false);
                return Verdict::Shed {
                    item,
                    reason: ShedReason::Overload,
                };
            }
        }
        if f.queue.len() >= f.spec.queue_cap {
            self.stats.on_shed(f.stats_slot, false);
            return Verdict::Shed {
                item,
                reason: ShedReason::QueueFull,
            };
        }
        if f.queue.is_empty() {
            // Idle-flow deficit staleness fix: a flow re-entering after
            // its queue drained starts its next turn from zero banked
            // deficit, exactly as if dispatch had visited it while idle.
            f.deficit = 0;
        }
        f.queue.push_back(HostQueued {
            bytes,
            submit_ns: now_ns,
            item,
        });
        f.last_busy_epoch = epoch;
        if !f.tenant.ledger_backed {
            f.tenant.charged_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        f.tenant.backlog[svc].fetch_add(bytes, Ordering::Relaxed);
        self.queued_total += 1;
        let depth = f.queue.len();
        let slot = f.stats_slot;
        self.stats.on_submit(slot, depth);
        Verdict::Admitted
    }

    /// Picks the next request to serve (or shed) at `now_ns`, visiting
    /// each live flow at most once. Level-3 DWRR with the level-1
    /// tenant weight and level-2 service share folded into each fresh
    /// turn's deficit credit.
    pub fn dispatch(&mut self, now_ns: u64) -> Dispatch<T> {
        if self.queued_total == 0 {
            return Dispatch::Idle;
        }
        let n = self.order.len();
        let svc = self.service.index();
        let weights = self.host.cfg.service_weights;
        for _ in 0..n {
            let slot = self.order[self.cursor];
            let epoch = self.epoch;
            let f = self.flows[slot].as_mut().expect("ordered flow is live");
            if f.queue.is_empty() {
                f.deficit = 0;
                self.advance();
                continue;
            }
            let tenant_weight = u64::from(f.tenant.weight.load(Ordering::Relaxed).max(1));
            let (share_num, share_den) = f.tenant.service_share(svc, &weights);
            let turn_credit = (u64::from(f.weight()) * tenant_weight * self.quantum_bytes)
                .saturating_mul(share_num)
                / share_den;
            if self.fresh_turn {
                f.deficit = f.deficit.saturating_add(turn_credit.max(1));
                self.fresh_turn = false;
            }
            // Deadline check happens before cost accounting: expired work
            // is shed, not served, and consumes no deficit or tokens.
            let head = f.queue.front().expect("non-empty");
            if f.spec.deadline_ns > 0 && now_ns.saturating_sub(head.submit_ns) > f.spec.deadline_ns
            {
                let q = f.queue.pop_front().expect("non-empty");
                f.last_busy_epoch = epoch;
                f.tenant.backlog[svc].fetch_sub(q.bytes, Ordering::Relaxed);
                self.queued_total -= 1;
                self.stats.on_shed(f.stats_slot, true);
                return Dispatch::Shed {
                    flow: slot,
                    item: q.item,
                    reason: ShedReason::DeadlineExpired,
                };
            }
            let cost = head.bytes.max(1);
            let within_deficit = f.deficit >= cost;
            if within_deficit && f.ops.check(1, now_ns) && f.bytes.check(cost, now_ns) {
                f.ops.try_take(1, now_ns);
                f.bytes.try_take(cost, now_ns);
                f.deficit -= cost;
                let q = f.queue.pop_front().expect("non-empty");
                f.last_busy_epoch = epoch;
                f.tenant.backlog[svc].fetch_sub(q.bytes, Ordering::Relaxed);
                self.queued_total -= 1;
                let wait_ns = now_ns.saturating_sub(q.submit_ns);
                self.stats.on_dispatch(f.stats_slot, q.bytes, wait_ns);
                return Dispatch::Run {
                    flow: slot,
                    item: q.item,
                    wait_ns,
                };
            }
            if within_deficit {
                // Rate-limited: yield with at most one turn's credit
                // banked so an idle flow cannot later burst past its
                // share.
                f.deficit = f.deficit.min(turn_credit.max(1));
            }
            // Deficit exhausted: carry it over so a large head request
            // eventually accumulates enough.
            self.advance();
        }
        Dispatch::Idle
    }

    fn advance(&mut self) {
        self.cursor = (self.cursor + 1) % self.order.len().max(1);
        self.fresh_turn = true;
    }

    /// Epoch maintenance, called once per engine cycle: on an epoch
    /// boundary, GC idle dynamic flows and run the host-wide budget
    /// rebalance. Returns true when an epoch turned over.
    pub fn maintain(&mut self, now_ns: u64) -> bool {
        if self.next_epoch_ns == 0 {
            self.next_epoch_ns = now_ns.saturating_add(self.host.cfg.epoch_ns).max(1);
            return false;
        }
        if now_ns < self.next_epoch_ns {
            return false;
        }
        self.epoch += 1;
        self.next_epoch_ns = now_ns.saturating_add(self.host.cfg.epoch_ns).max(1);
        self.gc();
        self.host.rebalance();
        true
    }

    /// Reclaims dynamic flows idle for at least the configured number
    /// of epochs. A flow with queued work, live pins, or an inherited
    /// promotion is never reclaimed — the engine still holds its
    /// index, or it still owes scheduled work.
    fn gc(&mut self) {
        let idle = self.host.cfg.gc_idle_epochs;
        let mut changed = false;
        for slot in self.base..self.flows.len() {
            let reclaim = self.flows[slot].as_ref().is_some_and(|f| {
                f.key.is_some()
                    && f.queue.is_empty()
                    && f.inherited.is_empty()
                    && f.pins == 0
                    && self.epoch.saturating_sub(f.last_busy_epoch) >= idle
            });
            if !reclaim {
                continue;
            }
            let f = self.flows[slot].take().expect("checked live");
            if let Some(key) = f.key {
                self.index.remove(&key);
            }
            self.free.push(slot);
            self.host.note_flow_reclaimed();
            changed = true;
        }
        if changed {
            self.compact_order();
        }
    }

    /// Re-derives the round-robin order after slots were reclaimed,
    /// keeping the rotation fair: the cursor follows the slot it was
    /// visiting (same flow, same in-progress turn), and only when that
    /// slot itself vanished does the turn restart — an epoch GC must
    /// not hand the flow at the cursor a spurious extra deficit grant.
    fn compact_order(&mut self) {
        let current = self.order.get(self.cursor).copied();
        self.order.retain(|&s| self.flows[s].is_some());
        match current.and_then(|slot| self.order.iter().position(|&s| s == slot)) {
            Some(pos) => self.cursor = pos,
            None => {
                if self.cursor >= self.order.len() {
                    self.cursor = 0;
                }
                self.fresh_turn = true;
            }
        }
    }

    /// Drains every queued request, in slot order, for shutdown and
    /// wreck paths. Each drained request is accounted as shed.
    pub fn drain(&mut self) -> Vec<(usize, T)> {
        let svc = self.service.index();
        let mut out = Vec::new();
        for slot in 0..self.flows.len() {
            let Some(f) = self.flows[slot].as_mut() else {
                continue;
            };
            while let Some(q) = f.queue.pop_front() {
                f.tenant.backlog[svc].fetch_sub(q.bytes, Ordering::Relaxed);
                self.queued_total -= 1;
                self.stats.on_shed(f.stats_slot, true);
                out.push((slot, q.item));
            }
        }
        out
    }

    /// Retires the shard: every dynamic flow is dropped and reported
    /// reclaimed, so a fenced domain's table stops counting against
    /// host occupancy. Queues must be drained first (the wreck path
    /// does); static per-class flows stay, ready for a replacement
    /// shard over the same gate. Returns the number reclaimed.
    pub fn retire(&mut self) -> usize {
        let svc = self.service.index();
        let mut reclaimed = 0;
        for slot in self.base..self.flows.len() {
            let Some(f) = self.flows[slot].as_mut() else {
                continue;
            };
            // A dying shard may retire with queued work if the caller
            // skipped drain; keep the global accounting exact anyway.
            while let Some(q) = f.queue.pop_front() {
                f.tenant.backlog[svc].fetch_sub(q.bytes, Ordering::Relaxed);
                self.queued_total -= 1;
                self.stats.on_shed(f.stats_slot, true);
            }
            let f = self.flows[slot].take().expect("checked live");
            if let Some(key) = f.key {
                self.index.remove(&key);
            }
            self.free.push(slot);
            self.host.note_flow_reclaimed();
            reclaimed += 1;
        }
        if reclaimed > 0 {
            self.compact_order();
        }
        reclaimed
    }

    #[cfg(test)]
    fn deficit(&self, flow: usize) -> u64 {
        self.flows[flow].as_ref().expect("live flow").deficit
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(name: &str, class: QosClass, weight: u32) -> FlowSpec {
        FlowSpec {
            name: name.into(),
            class,
            weight,
            ops_per_sec: 0,
            bytes_per_sec: 0,
            burst_ops: 0,
            burst_bytes: 0,
            queue_cap: 1024,
            deadline_ns: 0,
            sheddable: false,
        }
    }

    fn gate(host: &Arc<HostScheduler>, service: Service) -> HostGate<u32> {
        HostGate::new(
            vec![
                spec("g/high", QosClass::High, 8),
                spec("g/normal", QosClass::Normal, 4),
                spec("g/best", QosClass::BestEffort, 1),
            ],
            1024,
            usize::MAX,
            host,
            service,
            0,
        )
    }

    /// A single-tenant gate over `specs` on a host of its own.
    fn flat(specs: Vec<FlowSpec>, overload_threshold: usize) -> HostGate<u32> {
        let host = HostScheduler::new(HostConfig::default());
        HostGate::new(specs, 1024, overload_threshold, &host, Service::Fs, 0)
    }

    #[test]
    fn weights_shape_throughput() {
        let mut s = flat(
            vec![spec("a", QosClass::High, 3), spec("b", QosClass::Normal, 1)],
            usize::MAX,
        );
        for i in 0..400 {
            assert!(matches!(s.submit(0, 1024, 0, i), Verdict::Admitted));
            assert!(matches!(s.submit(1, 1024, 0, i), Verdict::Admitted));
        }
        let mut served = [0u32; 2];
        for _ in 0..400 {
            match s.dispatch(0) {
                Dispatch::Run { flow, .. } => served[flow] += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        // 3:1 weights → the first flow gets ~3x the service.
        let ratio = served[0] as f64 / served[1] as f64;
        assert!((2.5..=3.5).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn queue_cap_sheds_with_reason() {
        let mut sp = spec("a", QosClass::BestEffort, 1);
        sp.queue_cap = 2;
        let mut s = flat(vec![sp], usize::MAX);
        assert!(matches!(s.submit(0, 1, 0, 1), Verdict::Admitted));
        assert!(matches!(s.submit(0, 1, 0, 2), Verdict::Admitted));
        match s.submit(0, 1, 0, 3) {
            Verdict::Shed { item, reason } => {
                assert_eq!(item, 3);
                assert_eq!(reason, ShedReason::QueueFull);
            }
            Verdict::Admitted => panic!("should shed"),
        }
        let snap = s.stats().flow(0);
        assert_eq!(snap.submitted, 3);
        assert_eq!(snap.shed, 1);
        assert!(snap.accounted());
    }

    #[test]
    fn overload_sheds_best_effort_not_high() {
        let mut be = spec("be", QosClass::BestEffort, 1);
        be.sheddable = true;
        let hi = spec("hi", QosClass::High, 8);
        let mut s = flat(vec![hi, be], 4);
        for i in 0..4 {
            assert!(matches!(s.submit(0, 1, 0, i), Verdict::Admitted));
        }
        assert!(s.overloaded());
        // Best-effort refused before queueing; high still admitted.
        assert!(matches!(
            s.submit(1, 1, 0, 99),
            Verdict::Shed {
                reason: ShedReason::Overload,
                ..
            }
        ));
        assert!(matches!(s.submit(0, 1, 0, 5), Verdict::Admitted));
    }

    #[test]
    fn deadline_expiry_sheds_at_dispatch() {
        let mut sp = spec("a", QosClass::BestEffort, 1);
        sp.deadline_ns = 1_000;
        let mut s = flat(vec![sp], usize::MAX);
        assert!(matches!(s.submit(0, 1, 0, 7), Verdict::Admitted));
        match s.dispatch(5_000) {
            Dispatch::Shed { item, reason, .. } => {
                assert_eq!(item, 7);
                assert_eq!(reason, ShedReason::DeadlineExpired);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(s.stats().flow(0).accounted());
    }

    #[test]
    fn rate_limit_defers_but_does_not_drop() {
        let mut sp = spec("a", QosClass::Normal, 1);
        sp.ops_per_sec = 1_000;
        sp.burst_ops = 1;
        let mut s = flat(vec![sp], usize::MAX);
        assert!(matches!(s.submit(0, 1, 0, 1), Verdict::Admitted));
        assert!(matches!(s.submit(0, 1, 0, 2), Verdict::Admitted));
        assert!(matches!(s.dispatch(0), Dispatch::Run { item: 1, .. }));
        // Bucket empty: idle, not shed.
        assert!(matches!(s.dispatch(1), Dispatch::Idle));
        // One ms later a token is back.
        assert!(matches!(
            s.dispatch(1_000_000),
            Dispatch::Run { item: 2, .. }
        ));
    }

    #[test]
    fn promotion_shifts_dispatch_shares() {
        // Weight 1 vs 3: unpromoted, flow 0 gets ~1/4 of the service.
        let mut s = flat(
            vec![
                spec("be", QosClass::BestEffort, 1),
                spec("norm", QosClass::Normal, 3),
                spec("hi", QosClass::High, 12),
            ],
            usize::MAX,
        );
        for i in 0..400 {
            assert!(matches!(s.submit(0, 1024, 0, i), Verdict::Admitted));
            assert!(matches!(s.submit(1, 1024, 0, i), Verdict::Admitted));
        }
        // Flow 0 inherits the high flow's weight (12) while it waits.
        s.promote_flow(0, 2);
        assert!(s.is_promoted(0));
        assert_eq!(s.effective_weight(0), 12);
        let mut served = [0u32; 2];
        for _ in 0..400 {
            match s.dispatch(0) {
                Dispatch::Run { flow, .. } => served[flow] += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        // 12:3 in force → the promoted best-effort flow now dominates.
        let ratio = served[0] as f64 / served[1] as f64;
        assert!((3.0..=5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn nested_waiters_keep_strongest_until_fully_demoted() {
        let mut s = flat(
            vec![
                spec("be", QosClass::BestEffort, 1),
                spec("norm", QosClass::Normal, 4),
                spec("hi", QosClass::High, 16),
            ],
            usize::MAX,
        );
        // Two waiters pile onto the same holder: normal first, then high.
        s.promote_flow(0, 1);
        s.promote_flow(0, 2);
        assert_eq!(s.effective_weight(0), 16);
        // Releasing one waiter keeps the strongest remaining inheritance.
        s.demote_flow(0);
        assert!(s.is_promoted(0));
        assert_eq!(s.effective_weight(0), 4);
        // Promotion chains transitively: a holder promoted by an already
        // promoted flow inherits the effective (not spec) weight.
        s.promote_flow(1, 0);
        assert_eq!(s.effective_weight(1), 4);
        s.demote_flow(1);
        s.demote_flow(0);
        assert!(!s.is_promoted(0));
        assert_eq!(s.effective_weight(0), 1);
    }

    #[test]
    fn demotion_restores_spec_weight_and_shedding() {
        let mut be = spec("be", QosClass::BestEffort, 1);
        be.sheddable = true;
        let hi = spec("hi", QosClass::High, 8);
        let mut s = flat(vec![hi, be], 4);
        for i in 0..4 {
            assert!(matches!(s.submit(0, 1, 0, i), Verdict::Admitted));
        }
        assert!(s.overloaded());
        // Promoted flows ride out overload: their backlog is the very
        // thing a high-class waiter is blocked on.
        s.promote_flow(1, 0);
        assert!(matches!(s.submit(1, 1, 0, 50), Verdict::Admitted));
        // Restore-on-release: spec weight and sheddability come back.
        s.demote_flow(1);
        assert!(!s.is_promoted(1));
        assert_eq!(s.effective_weight(1), 1);
        assert!(matches!(
            s.submit(1, 1, 0, 51),
            Verdict::Shed {
                reason: ShedReason::Overload,
                ..
            }
        ));
    }

    #[test]
    fn credit_reflects_headroom() {
        let mut sp = spec("a", QosClass::Normal, 1);
        sp.queue_cap = 4;
        let mut s = flat(vec![sp], usize::MAX);
        assert_eq!(s.credit(0), 4);
        s.submit(0, 1, 0, 1);
        s.submit(0, 1, 0, 2);
        assert_eq!(s.credit(0), 2);
        s.submit(0, 1, 0, 3);
        s.submit(0, 1, 0, 4);
        // Full queue still advertises 1 so the stub can always recover.
        assert_eq!(s.credit(0), 1);
    }

    /// Admission (`tenant()`) and the epoch rebalance both lock the
    /// tenant directory. When `ledger` was a second mutex they took the
    /// two in opposite orders, and this hung before the first round.
    #[test]
    fn admission_and_rebalance_do_not_deadlock() {
        use std::sync::atomic::AtomicBool;
        use std::sync::{mpsc, Barrier};
        use std::time::Duration;

        let host =
            HostScheduler::with_ledger(HostConfig::default(), crate::TenantLedger::new().replica());
        let start = Arc::new(Barrier::new(2));
        let stop = Arc::new(AtomicBool::new(false));
        let (done_tx, done_rx) = mpsc::channel();
        let admit = {
            let (host, start) = (Arc::clone(&host), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                for _ in 0..5_000 {
                    // Dropping the gate lets the sweep reclaim its wire
                    // tenants, so every round admits them afresh.
                    let mut g: HostGate<u32> =
                        HostGate::per_class("fs0", &QosConfig::enforcing(), &host, Service::Fs, 0);
                    for t in 1..8 {
                        g.flow_for_tenant(t, 0);
                    }
                }
                done_tx.send(()).expect("watchdog is listening");
            })
        };
        let sweep = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                start.wait();
                while !stop.load(Ordering::SeqCst) {
                    host.rebalance();
                }
            })
        };
        done_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("admission deadlocked against rebalance");
        stop.store(true, Ordering::SeqCst);
        admit.join().unwrap();
        sweep.join().unwrap();
    }

    #[test]
    fn lazy_admission_resolves_by_hash_and_reuses_slots() {
        let host = HostScheduler::new(HostConfig::default());
        let mut g = gate(&host, Service::Fs);
        assert_eq!(g.flow_for_tenant(0, 1), 1, "tenant 0 keeps the base flow");
        let a = g.flow_for_tenant(700_000, 1);
        assert!(a >= 3, "wide tenant gets a dynamic slot");
        assert_eq!(
            g.flow_for_tenant(700_000, 1),
            a,
            "steady path is a hash hit"
        );
        assert_ne!(g.flow_for_tenant(700_001, 1), a);
        assert_eq!(g.occupancy(), 5);
        let snap = host.snapshot();
        assert_eq!(snap.admitted_flows, 2);
        assert_eq!(snap.live_flows, 2);
    }

    #[test]
    fn epoch_gc_reclaims_idle_but_not_queued_pinned_or_promoted() {
        let host = HostScheduler::new(HostConfig {
            epoch_ns: 1_000,
            gc_idle_epochs: 2,
            ..HostConfig::default()
        });
        let mut g = gate(&host, Service::Fs);
        let _idle = g.flow_for_tenant(10, 1);
        let queued = g.flow_for_tenant(11, 1);
        let pinned = g.flow_for_tenant(12, 1);
        let promoted = g.flow_for_tenant(13, 1);
        assert!(matches!(g.submit(queued, 64, 0, 1), Verdict::Admitted));
        g.pin_flow(pinned);
        g.promote_flow(promoted, 0);
        let mut now = 0;
        for _ in 0..6 {
            now += 1_000;
            g.maintain(now);
        }
        assert_eq!(g.lookup(10, 1), None, "idle flow reclaimed");
        assert_eq!(g.lookup(11, 1), Some(queued), "queued work survives GC");
        assert_eq!(g.lookup(12, 1), Some(pinned), "pinned flow survives GC");
        assert_eq!(g.lookup(13, 1), Some(promoted), "promotion survives GC");
        // Releasing the guards makes them collectable.
        g.unpin_flow(pinned);
        g.demote_flow(promoted);
        assert!(matches!(g.dispatch(now), Dispatch::Run { .. }));
        for _ in 0..4 {
            now += 1_000;
            g.maintain(now);
        }
        assert_eq!(g.occupancy(), 3, "only static flows remain");
        let snap = host.snapshot();
        assert_eq!(snap.reclaimed_flows, 4);
        assert_eq!(snap.live_flows, 0);
        // Slots are reused: a fresh tenant lands on a freed slot.
        let again = g.flow_for_tenant(99, 1);
        assert!(again < 7, "slot {again} was not reused");
    }

    #[test]
    fn idle_flow_reenters_with_reset_deficit() {
        let host = HostScheduler::new(HostConfig::default());
        let mut g = gate(&host, Service::Fs);
        assert!(matches!(g.submit(0, 64, 0, 1), Verdict::Admitted));
        assert!(matches!(g.dispatch(0), Dispatch::Run { .. }));
        assert!(g.deficit(0) > 0, "residual deficit banked after the run");
        // The gate goes fully idle (dispatch never visits the flow), so
        // the residual would have persisted; re-entry must reset it.
        assert!(matches!(g.dispatch(0), Dispatch::Idle));
        assert!(matches!(g.submit(0, 64, 10, 2), Verdict::Admitted));
        assert_eq!(g.deficit(0), 0, "stale deficit must not survive idling");
    }

    #[test]
    fn over_budget_tenant_sheds_under_overload_paced_tenants_do_not() {
        let host = HostScheduler::new(HostConfig::default());
        host.set_tenant_budget(7, Some(1_000));
        let mut g = HostGate::new(
            vec![
                spec("g/high", QosClass::High, 8),
                spec("g/normal", QosClass::Normal, 4),
            ],
            1024,
            4, // tiny overload threshold
            &host,
            Service::Fs,
            0,
        );
        let aggr = g.flow_for_tenant(7, 1);
        let victim = g.flow_for_tenant(8, 1);
        // Blow tenant 7's budget, then fill the gate to overload.
        assert!(matches!(g.submit(aggr, 4_000, 0, 0), Verdict::Admitted));
        for i in 0..4 {
            assert!(matches!(g.submit(victim, 1, 0, i), Verdict::Admitted));
        }
        assert!(g.overloaded());
        // Level 1: the over-budget tenant sheds on a non-sheddable
        // class; an under-budget tenant still admits.
        assert!(matches!(
            g.submit(aggr, 1, 0, 99),
            Verdict::Shed {
                reason: ShedReason::Overload,
                ..
            }
        ));
        assert!(matches!(g.submit(victim, 1, 0, 100), Verdict::Admitted));
        // High class stays exempt even over budget.
        let aggr_high = g.flow_for_tenant(7, 0);
        assert!(matches!(g.submit(aggr_high, 1, 0, 101), Verdict::Admitted));
        // Promotion outranks the budget gate.
        g.promote_flow(aggr, 0);
        assert!(matches!(g.submit(aggr, 1, 0, 102), Verdict::Admitted));
        g.demote_flow(aggr);
        assert!(host.snapshot().budget_sheds >= 1);
    }

    #[test]
    fn service_share_scales_deficit_when_tenant_floods_both_services() {
        // Tenant 5 is backlogged on fs AND tcp; tenant 6 on fs alone.
        // With equal service weights, tenant 5's fs credit halves, so
        // tenant 6 takes roughly twice the fs bytes.
        let host = HostScheduler::new(HostConfig::default());
        let mut fs = gate(&host, Service::Fs);
        let mut tcp = gate(&host, Service::Tcp);
        let both = fs.flow_for_tenant(5, 1);
        let solo = fs.flow_for_tenant(6, 1);
        let both_tcp = tcp.flow_for_tenant(5, 1);
        for i in 0..600u32 {
            assert!(matches!(fs.submit(both, 1024, 0, i), Verdict::Admitted));
            assert!(matches!(fs.submit(solo, 1024, 0, i), Verdict::Admitted));
        }
        // Standing tcp backlog for tenant 5 keeps level 2 engaged.
        for i in 0..64u32 {
            assert!(matches!(
                tcp.submit(both_tcp, 1024, 0, i),
                Verdict::Admitted
            ));
        }
        let mut served = [0u64; 2];
        for _ in 0..600 {
            match fs.dispatch(0) {
                Dispatch::Run { flow, .. } if flow == both => served[0] += 1,
                Dispatch::Run { flow, .. } if flow == solo => served[1] += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        let ratio = served[1] as f64 / served[0] as f64;
        assert!(
            (1.5..=2.5).contains(&ratio),
            "fs-only tenant should get ~2x ({served:?}, ratio {ratio})"
        );
    }

    #[test]
    fn tenant_weight_scales_shares_at_level_one() {
        let host = HostScheduler::new(HostConfig::default());
        host.set_tenant_weight(21, 3);
        host.set_tenant_weight(22, 1);
        let mut g = gate(&host, Service::Fs);
        let heavy = g.flow_for_tenant(21, 1);
        let light = g.flow_for_tenant(22, 1);
        for i in 0..1_000u32 {
            assert!(matches!(g.submit(heavy, 1024, 0, i), Verdict::Admitted));
            assert!(matches!(g.submit(light, 1024, 0, i), Verdict::Admitted));
        }
        let mut served = [0u64; 2];
        for _ in 0..900 {
            match g.dispatch(0) {
                Dispatch::Run { flow, .. } if flow == heavy => served[0] += 1,
                Dispatch::Run { flow, .. } if flow == light => served[1] += 1,
                other => panic!("unexpected {other:?}"),
            }
        }
        let ratio = served[0] as f64 / served[1] as f64;
        assert!(
            (2.4..=3.6).contains(&ratio),
            "3:1 tenant weights should shape shares ({served:?}, ratio {ratio})"
        );
    }

    #[test]
    fn retire_drops_dynamic_flows_and_occupancy() {
        let host = HostScheduler::new(HostConfig::default());
        let mut g = gate(&host, Service::Tcp);
        for t in 0..16u64 {
            g.flow_for_tenant(1_000 + t, 2);
        }
        assert_eq!(host.snapshot().live_flows, 16);
        assert_eq!(g.retire(), 16);
        assert_eq!(g.occupancy(), 3);
        assert_eq!(host.snapshot().live_flows, 0);
        // The gate still schedules its static flows after retirement.
        assert!(matches!(g.submit(0, 64, 0, 1), Verdict::Admitted));
        assert!(matches!(g.dispatch(0), Dispatch::Run { .. }));
    }
}
