//! The shared proxy engine: one admission → schedule → wave → reply
//! pipeline driving both control-plane proxies.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use solros_faults::EngineFaults;
use solros_proto::codec::{peek_tag, stamp_credit, FLAG_BARRIER};
use solros_proto::rpc_error::RpcErr;
use solros_proto::{AdmitRequest, AdmittedFrame};
use solros_qos::{Dispatch, HostGate, TenantLedger, Verdict};
use solros_ringbuf::{Consumer, Doorbell, Producer};
use solros_simkit::sync::{Condvar, Mutex};
use solros_simkit::IntMap;

use crate::waitpolicy::{Sleeper, WaitPolicy};

use super::admission::{Access, GateJob, ReadyJob};
use super::health::{ShardHealth, StagedPart, Wreck};
use super::holds::ExternalHolds;
use super::settle::ReplySettler;
use super::stats::ProxyStats;

/// Frames drained from each request ring per FIFO admission burst.
pub const DRAIN_BURST: usize = 64;
/// Frames admitted per lane per gated admission burst.
const ADMIT_BURST: usize = 32;
/// Scheduled requests dispatched per gated drain burst.
const DISPATCH_BURST: usize = 64;

/// The operations a proxy plugs into the engine.
///
/// The engine owns the request lifecycle — draining rings, decoding each
/// frame exactly once, QoS scheduling, priority inheritance, worker
/// dispatch with panic containment, and reply settlement. A handler
/// supplies only the service semantics: how to execute, classify, and
/// (optionally) coalesce requests. Handlers use interior mutability;
/// every method takes `&self` so a worker pool can execute concurrently.
pub trait OpHandler: Send + Sync {
    /// The request family served (decoded once at admission).
    type Req: AdmitRequest + Send + 'static;

    /// Appends an encoded error reply for `tag` to `reply` (the engine
    /// settles sheds, malformed frames, and contained panics uniformly
    /// through this).
    fn encode_err(&self, tag: u32, err: RpcErr, reply: &mut Vec<u8>);

    /// Maps a request to `(flow index, payload bytes)` for the QoS gate.
    fn classify(&self, lane: usize, req: &Self::Req) -> (usize, u64);

    /// Executes one request, appending the encoded reply frame to
    /// `reply` — a buffer its caller reuses from request to request.
    fn exec(&self, lane: usize, tag: u32, req: Self::Req, reply: &mut Vec<u8>);

    /// Worker-pool width; 0 executes inline on the engine thread.
    fn workers(&self) -> usize {
        0
    }

    /// Whether executing `req` can wait on another party — in
    /// particular one whose answer arrives *through this engine*, which
    /// an engine thread blocked in `exec` would never admit. Such a
    /// request goes to the worker pool; every other one runs to
    /// completion on the engine thread, with no hand-off. The default
    /// keeps a pooled handler's every request on its pool.
    fn may_wait(&self, req: &Self::Req) -> bool {
        let _ = req;
        true
    }

    /// Names the resource a request touches, for priority inheritance.
    /// Exclusive touches hold the resource from admission to completion;
    /// shared touches dispatched onto a held resource wait for release.
    fn touches(&self, req: &Self::Req) -> Option<(u64, Access)> {
        let _ = req;
        None
    }

    /// Offers a request for wave coalescing before it reaches a worker.
    /// Returning `None` means the handler staged it (the reply arrives at
    /// the next [`OpHandler::flush`]); returning the request back sends
    /// it down the normal execution path.
    fn stage(
        &self,
        lane: usize,
        tag: u32,
        credit: Option<u8>,
        tenant: u8,
        req: Self::Req,
    ) -> Option<Self::Req> {
        let _ = (lane, tag, credit, tenant);
        Some(req)
    }

    /// Flushes staged work, emitting `(lane, reply frame)` per completion.
    fn flush(&self, reply: &mut dyn FnMut(usize, &[u8])) {
        let _ = reply;
    }

    /// Abandons every staged-but-unflushed wave entry, returning what
    /// each one owed (tag, credit, tenant charge). Called only by a
    /// dying shard's wreck dump; the staged requests will never execute,
    /// so the supervisor settles their tags as `Gone` and refunds their
    /// admission charges.
    fn abort_staged(&self) -> Vec<StagedPart> {
        Vec::new()
    }

    /// Handler-specific polling (NIC events, accepts). Returns true when
    /// any work happened.
    fn poll(&self) -> bool {
        false
    }

    /// The bell the engine should sleep on, when the handler has already
    /// handed one to work sources of its own that the engine cannot see
    /// (a lease table, a NIC, a peer shard's inbox). `None` (the default)
    /// lets the engine make its own.
    fn doorbell(&self) -> Option<Arc<Doorbell>> {
        None
    }

    /// The handler's external-hold table, when it grants extent leases.
    /// Jobs touching an externally-held resource park until the hold
    /// frees; `None` (the default) skips the check entirely.
    fn external_holds(&self) -> Option<&ExternalHolds> {
        None
    }

    /// Asks the handler to start recalling the leases pinning `res`.
    /// `exclusive` is the *waiting job's* access: an exclusive waiter
    /// needs every lease recalled, a shared waiter only conflicts with
    /// write leases. Fire-and-forget — the freed queue re-routes the
    /// parked job once the recall protocol settles.
    fn recall(&self, res: u64, exclusive: bool) {
        let _ = (res, exclusive);
    }

    /// Synchronously recalls every lease on `res` (barrier/shutdown
    /// override). Must not return until the leases settled — by ack or
    /// by the manager's forced revoke — so flushed jobs run against
    /// settled data.
    fn recall_sync(&self, res: u64) {
        let _ = res;
    }
}

/// One co-processor channel served by the engine.
pub struct EngineLane {
    /// Drains the co-processor's requests.
    pub req_rx: Consumer,
    /// Pushes replies.
    pub resp_tx: Producer,
}

/// Exclusive-hold bookkeeping for one resource.
#[derive(Default)]
struct HolderRec {
    /// In-flight exclusive requests (admission through completion).
    total: u64,
    /// In-flight count per holding flow.
    by_flow: HashMap<usize, u64>,
    /// Flows promoted on behalf of waiters; demoted at release.
    promoted: Vec<usize>,
}

/// The request pipeline behind every control-plane proxy.
///
/// Each cycle: settle completions (releasing exclusive holds), route
/// freed waiters, admit a burst from each request ring (one decode per
/// frame), dispatch through the optional DWRR gate with priority
/// inheritance, flush the handler's coalescing wave, and poll.
///
/// Between productive cycles the serve loop follows
/// [`crate::waitpolicy`]: it yields while its peers were recently
/// active, then arms its doorbell — attached to every lane's request
/// ring, rung too by worker completions and by whatever the handler
/// passed it to — re-checks with one more cycle, and parks. Parks are
/// bounded, so the per-cycle clocks (heartbeat, lease sweep, QoS epoch,
/// shutdown flag) keep ticking on an idle engine.
pub struct ProxyEngine<H: OpHandler> {
    handler: Arc<H>,
    lanes: Vec<EngineLane>,
    stats: Arc<ProxyStats>,
    faults: Arc<EngineFaults>,
    /// Per-lane reply accumulator; every reply producer posts here and
    /// the engine settles one batched enqueue per `(lane, cycle)`.
    settler: Arc<ReplySettler>,
    gate: Option<HostGate<GateJob<H::Req>>>,
    epoch: Instant,
    /// Promote lock-holding flows to their waiter's effective weight.
    /// Deferral (the lock model) applies regardless; this gates only the
    /// promotion, so the inheritance effect can be measured on/off.
    inherit: bool,
    holders: IntMap<u64, HolderRec>,
    waiting: IntMap<u64, Vec<ReadyJob<H::Req>>>,
    ready_backlog: Vec<ReadyJob<H::Req>>,
    /// Completed exclusive holds, pushed by workers, drained per cycle.
    releases: Arc<Mutex<Vec<(u64, usize)>>>,
    /// The engine thread's reply frame, rebuilt in place per request and
    /// copied once, into its lane's settlement wave.
    reply: Vec<u8>,
    /// Replicated tenant ledger; admitted work is charged here, batched
    /// to one log append per (tenant, admission burst).
    ledger: Option<Arc<TenantLedger>>,
    /// Failover handshake with the domain supervisor: heartbeat per
    /// cycle, crash/wedge fault checks, wreck dump on death.
    health: Option<Arc<ShardHealth>>,
    /// What the idle serve loop parks on.
    bell: Arc<Doorbell>,
}

impl<H: OpHandler> ProxyEngine<H> {
    /// Builds an engine over `lanes`; `gate` switches QoS scheduling on.
    pub fn new(
        handler: Arc<H>,
        lanes: Vec<EngineLane>,
        stats: Arc<ProxyStats>,
        faults: Arc<EngineFaults>,
        gate: Option<HostGate<GateJob<H::Req>>>,
    ) -> Self {
        let settler = ReplySettler::new(
            lanes.iter().map(|l| l.resp_tx.clone()).collect(),
            Arc::clone(&faults),
            Arc::clone(&stats),
        );
        let bell = handler.doorbell().unwrap_or_default();
        for lane in &lanes {
            lane.req_rx.attach_doorbell(&bell);
        }
        Self {
            bell,
            handler,
            lanes,
            stats,
            faults,
            settler,
            gate,
            epoch: Instant::now(),
            inherit: true,
            holders: IntMap::default(),
            waiting: IntMap::default(),
            ready_backlog: Vec::new(),
            releases: Arc::new(Mutex::new(Vec::new())),
            reply: Vec::new(),
            ledger: None,
            health: None,
        }
    }

    /// Enables or disables priority inheritance (deferral still applies).
    pub fn set_inherit(&mut self, on: bool) {
        self.inherit = on;
    }

    /// Attaches the replicated tenant ledger; every gated admission is
    /// charged to the submitting frame's tenant.
    pub fn set_tenant_ledger(&mut self, ledger: Arc<TenantLedger>) {
        self.ledger = Some(ledger);
    }

    /// Attaches the supervisor's health cell. The serve loop beats it
    /// every cycle and honours armed domain-crash/wedge faults by
    /// dumping a [`Wreck`] and dying, instead of draining cleanly.
    pub fn set_health(&mut self, health: Arc<ShardHealth>) {
        self.health = Some(health);
    }

    /// Runs one engine cycle at `now_ns` on a virtual clock, executing
    /// everything inline. Returns true when any work happened. This is
    /// the deterministic-test entry point; production uses
    /// [`ProxyEngine::serve`].
    pub fn step(&mut self, now_ns: u64) -> bool {
        self.cycle(None, now_ns)
    }

    /// Serves until `shutdown` is set, spawning the handler's worker pool
    /// when it asks for one.
    pub fn serve(mut self, shutdown: Arc<AtomicBool>) {
        let workers = self.handler.workers();
        if workers == 0 {
            if !self.serve_loop(None, &shutdown) {
                self.drain_for_shutdown(None);
            }
            return;
        }
        let jobs: JobQueue<ReadyJob<H::Req>> = JobQueue::new();
        let settler = Arc::clone(&self.settler);
        let handler = Arc::clone(&self.handler);
        let stats = Arc::clone(&self.stats);
        let faults = Arc::clone(&self.faults);
        let releases = Arc::clone(&self.releases);
        let bell = Arc::clone(&self.bell);
        std::thread::scope(|s| {
            for _ in 0..workers {
                let (jobs, settler) = (&jobs, Arc::clone(&settler));
                let (handler, stats) = (Arc::clone(&handler), Arc::clone(&stats));
                let (faults, releases) = (Arc::clone(&faults), Arc::clone(&releases));
                let bell = Arc::clone(&bell);
                s.spawn(move || {
                    worker_loop(&*handler, jobs, &settler, &stats, &faults, &releases, &bell)
                });
            }
            if !self.serve_loop(Some(&jobs), &shutdown) {
                self.drain_for_shutdown(Some(&jobs));
            }
            jobs.close();
        });
    }

    /// Cycles until `shutdown` is set or the shard dies; returns true
    /// when it died (wreck dumped: the caller must not drain).
    fn serve_loop(
        &mut self,
        pool: Option<&JobQueue<ReadyJob<H::Req>>>,
        shutdown: &AtomicBool,
    ) -> bool {
        let bell = Arc::clone(&self.bell);
        let mut sleeper = Sleeper::new(WaitPolicy::yielding(), &bell);
        while !shutdown.load(Ordering::Relaxed) {
            if self.check_vitals(pool, shutdown) {
                return true;
            }
            let now = self.epoch.elapsed().as_nanos() as u64;
            if self.cycle(pool, now) {
                sleeper.progress();
                continue;
            }
            if self.gate.as_ref().is_some_and(|g| g.queued_total() > 0) {
                // Admitted work the gate is pacing waits on the clock
                // (a token refill), which rings nothing: stay in the
                // yield band rather than sleep through its release.
                sleeper.progress();
            }
            // Once armed, the next cycle is the re-check of every source;
            // only if that is idle too does the loop park — and says so,
            // so that a late wake-up is not mistaken for a wedge.
            let parked = self.health.as_ref().filter(|_| sleeper.will_park());
            if let Some(h) = parked {
                h.set_parked(true);
            }
            sleeper.idle();
            if let Some(h) = parked {
                h.set_parked(false);
            }
        }
        false
    }

    /// Beats the health cell and honours armed domain-crash/wedge
    /// charges. Returns true when the shard died: the wreck — every
    /// admitted-but-unserved tag as a `Gone` reply plus the tenant
    /// charges to refund — is parked on the health cell for the
    /// supervisor, and the serve loop must return without draining.
    ///
    /// On a pooled engine the queue quiesces first (in-flight worker
    /// replies reach the settler and join the wreck verbatim); on the
    /// workerless engines that shard the TCP plane, a cycle boundary is
    /// already a complete snapshot. A wedge parks the wreck too, then
    /// freezes: the heartbeat stops, nothing is served, and the loop
    /// spins until the supervisor notices the stall and fences it.
    fn check_vitals(
        &mut self,
        pool: Option<&JobQueue<ReadyJob<H::Req>>>,
        shutdown: &AtomicBool,
    ) -> bool {
        let Some(health) = self.health.clone() else {
            return false;
        };
        health.beat();
        if health.is_fenced() {
            // Forcible fence: the supervisor declared this shard dead
            // (e.g. a stall misjudged as a wedge). Exit at this cycle
            // boundary with a complete wreck so failover stays
            // exactly-once even when the suspicion was false.
            if let Some(p) = pool {
                p.quiesce();
            }
            let wreck = self.dump_wreck();
            health.park_wreck(wreck);
            return true;
        }
        if self.faults.take_domain_crash() {
            if let Some(p) = pool {
                p.quiesce();
            }
            let wreck = self.dump_wreck();
            health.crash(wreck);
            return true;
        }
        if self.faults.take_domain_wedge() {
            if let Some(p) = pool {
                p.quiesce();
            }
            let wreck = self.dump_wreck();
            health.wedge_hold(wreck, shutdown);
            return true;
        }
        false
    }

    /// Enumerates everything this engine admitted but will never serve,
    /// at a cycle boundary where the pipeline's state is complete: gate
    /// queues, parked waiters, the ready backlog, the handler's staged
    /// wave, and replies already computed but not yet published.
    fn dump_wreck(&mut self) -> Wreck {
        // Order matters: abandon unexecuted staged runs first, then let
        // the handler flush replies it already *executed* (e.g. a
        // cap-flushed send whose backend write happened) into the
        // settler, and only then drain the settler. Those executed
        // replies must ship verbatim — settling them as `Gone` would
        // double-answer their tags, dropping them would lose completed
        // work.
        let staged = self.handler.abort_staged();
        self.flush_handler();
        let mut replies = self.settler.drain_pending();
        let mut refunds: HashMap<u8, (u64, u64)> = HashMap::new();
        let mut owed: Vec<(usize, u32, Option<u8>, u8, u64)> = Vec::new();
        if let Some(gate) = self.gate.as_mut() {
            for (_flow, job) in gate.drain() {
                let bytes = self.handler.classify(job.lane, &job.req).1;
                owed.push((job.lane, job.tag, None, job.tenant, bytes));
            }
            // A dead shard's flow-table entries must stop counting
            // against host occupancy; the replacement shard re-admits
            // its tenants lazily.
            gate.retire();
        }
        for (_res, jobs) in self.waiting.drain() {
            for job in jobs {
                let bytes = self.handler.classify(job.lane, &job.req).1;
                owed.push((job.lane, job.tag, job.credit, job.tenant, bytes));
            }
        }
        for job in std::mem::take(&mut self.ready_backlog) {
            let bytes = self.handler.classify(job.lane, &job.req).1;
            owed.push((job.lane, job.tag, job.credit, job.tenant, bytes));
        }
        for part in staged {
            owed.push((part.lane, part.tag, part.credit, part.tenant, part.bytes));
        }
        for (lane, tag, credit, tenant, bytes) in owed {
            let mut frame = Vec::new();
            self.handler.encode_err(tag, RpcErr::Gone, &mut frame);
            if let Some(c) = credit {
                stamp_credit(&mut frame, c);
            }
            replies.push((lane, frame));
            if self.ledger.is_some() {
                let r = refunds.entry(tenant).or_insert((0, 0));
                r.0 += 1;
                r.1 += bytes;
            }
        }
        Wreck {
            replies,
            refunds: refunds
                .into_iter()
                .map(|(t, (ops, bytes))| (t, ops, bytes))
                .collect(),
        }
    }

    /// One pipeline cycle; returns true when any work happened.
    fn cycle(&mut self, pool: Option<&JobQueue<ReadyJob<H::Req>>>, now_ns: u64) -> bool {
        let mut progressed = false;
        // 1. Settle completions: every finished exclusive hold releases.
        let done = std::mem::take(&mut *self.releases.lock());
        for (res, flow) in done {
            progressed = true;
            self.release_one(res, flow);
        }
        // 2. Unpark waiters whose external (lease) holds settled. A
        //    shared job re-defers if an engine-admitted exclusive is
        //    still in flight on the resource; everything else re-routes
        //    (and re-parks there if a new lease beat it to the grant).
        let freed = match self.handler.external_holds() {
            Some(ext) => ext.take_freed(),
            None => Vec::new(),
        };
        for res in freed {
            let Some(jobs) = self.waiting.remove(&res) else {
                continue;
            };
            progressed = true;
            for job in jobs {
                let shared_blocked = job.release.is_none()
                    && self.holders.get(&res).is_some_and(|r| r.total > 0)
                    && matches!(
                        self.handler.touches(&job.req),
                        Some((r, Access::Shared)) if r == res
                    );
                if shared_blocked {
                    self.waiting.entry(res).or_default().push(job);
                } else {
                    self.route(pool, job);
                }
            }
        }
        // 3. Route waiters freed by those releases.
        for job in std::mem::take(&mut self.ready_backlog) {
            progressed = true;
            self.route(pool, job);
        }
        // 4. Admit and dispatch.
        if self.gate.is_some() {
            // Epoch upkeep first: GC idle flow-table entries and let the
            // host scheduler rebalance tenant budgets off the ledger.
            self.gate.as_mut().expect("gated").maintain(now_ns);
            progressed |= self.admit_gated(now_ns);
            progressed |= self.dispatch_gated(pool, now_ns);
        } else {
            progressed |= self.admit_fifo(pool);
        }
        // 5. Flush the handler's coalescing wave.
        self.flush_handler();
        // 6. Handler-specific polling.
        progressed |= self.handler.poll();
        // 7. Settle the cycle's accumulated replies: one batched enqueue
        //    (one doorbell-equivalent on a lazy ring) per lane.
        progressed |= self.settler.settle();
        progressed
    }

    /// Drains a burst from each lane into the gate's class queues; every
    /// frame is decoded exactly once, here.
    fn admit_gated(&mut self, now_ns: u64) -> bool {
        let mut progressed = false;
        // Batched tenant charges: one ledger append per tenant per burst,
        // not one per frame, so the log never sees per-op traffic.
        let mut charges: HashMap<u8, (u64, u64)> = HashMap::new();
        for lane in 0..self.lanes.len() {
            for _ in 0..ADMIT_BURST {
                let Some(admitted) = self.admit_one(lane) else {
                    break;
                };
                progressed = true;
                let Ok(admitted) = admitted else {
                    continue;
                };
                let (class_flow, bytes) = self.handler.classify(lane, &admitted.req);
                let touch = self.handler.touches(&admitted.req);
                let gate = self.gate.as_mut().expect("gated admission");
                let tenant = admitted.tenant;
                let flow = gate.flow_for_tenant(u64::from(tenant), class_flow);
                let job = GateJob {
                    lane,
                    tag: admitted.tag,
                    flags: admitted.flags,
                    req: admitted.req,
                    touch,
                    tenant,
                };
                match gate.submit(flow, bytes, now_ns, job) {
                    Verdict::Admitted => {
                        if self.ledger.is_some() {
                            let c = charges.entry(tenant).or_insert((0, 0));
                            c.0 += 1;
                            c.1 += bytes;
                        }
                        if let Some((res, Access::Exclusive)) = touch {
                            // The hold records this flow index until the
                            // release; pin it so the GC cannot reclaim
                            // (and reuse) the slot out from under it.
                            gate.pin_flow(flow);
                            let rec = self.holders.entry(res).or_default();
                            rec.total += 1;
                            *rec.by_flow.entry(flow).or_insert(0) += 1;
                        }
                    }
                    Verdict::Shed { item, .. } => {
                        let credit = gate.credit(flow);
                        self.stats.sheds.fetch_add(1, Ordering::Relaxed);
                        self.post_err(lane, item.tag, RpcErr::Overloaded, Some(credit));
                    }
                }
            }
        }
        if let Some(ledger) = &self.ledger {
            for (tenant, (ops, bytes)) in charges {
                ledger.charge(tenant, ops, bytes);
            }
        }
        progressed
    }

    /// Dispatches a burst in DWRR order, applying the inheritance lock
    /// model: shared touches wait behind exclusive holders, promoting
    /// them while they wait.
    fn dispatch_gated(&mut self, pool: Option<&JobQueue<ReadyJob<H::Req>>>, now_ns: u64) -> bool {
        let mut progressed = false;
        for _ in 0..DISPATCH_BURST {
            let decision = {
                let Some(gate) = self.gate.as_mut() else {
                    break;
                };
                match gate.dispatch(now_ns) {
                    Dispatch::Run { flow, item, .. } => {
                        Some((flow, gate.credit(flow), item, false))
                    }
                    Dispatch::Shed { flow, item, .. } => {
                        Some((flow, gate.credit(flow), item, true))
                    }
                    Dispatch::Idle => None,
                }
            };
            let Some((flow, credit, job, shed)) = decision else {
                break;
            };
            progressed = true;
            if shed {
                self.stats.sheds.fetch_add(1, Ordering::Relaxed);
                self.post_err(job.lane, job.tag, RpcErr::Overloaded, Some(credit));
                // A shed exclusive never executes: release its hold now.
                if let Some((res, Access::Exclusive)) = job.touch {
                    self.release_one(res, flow);
                }
                continue;
            }
            let release = match job.touch {
                Some((res, Access::Exclusive)) => Some((res, flow)),
                _ => None,
            };
            let ready = ReadyJob {
                lane: job.lane,
                tag: job.tag,
                credit: Some(credit),
                req: job.req,
                release,
                tenant: job.tenant,
            };
            if job.flags & FLAG_BARRIER != 0 {
                self.barrier(pool, ready);
                continue;
            }
            match job.touch {
                Some((res, Access::Shared))
                    if self.holders.get(&res).is_some_and(|r| r.total > 0) =>
                {
                    self.defer(res, flow, ready);
                }
                _ => self.route(pool, ready),
            }
        }
        progressed
    }

    /// FIFO admission (no gate): decode once, route straight through.
    fn admit_fifo(&mut self, pool: Option<&JobQueue<ReadyJob<H::Req>>>) -> bool {
        let mut progressed = false;
        for lane in 0..self.lanes.len() {
            for _ in 0..DRAIN_BURST {
                let Some(admitted) = self.admit_one(lane) else {
                    break;
                };
                progressed = true;
                let Ok(a) = admitted else {
                    continue;
                };
                let job = ReadyJob {
                    lane,
                    tag: a.tag,
                    credit: None,
                    req: a.req,
                    release: None,
                    tenant: a.tenant,
                };
                if a.flags & FLAG_BARRIER != 0 {
                    self.barrier(pool, job);
                } else {
                    self.route(pool, job);
                }
            }
        }
        progressed
    }

    /// Takes the next frame off `lane`'s request ring and decodes it
    /// where the ring staged it — once, with no copy of the frame.
    /// `None`: the ring is empty. `Some(Err(()))`: the frame was
    /// malformed and has been answered.
    fn admit_one(&mut self, lane: usize) -> Option<Result<AdmittedFrame<H::Req>, ()>> {
        let decoded = self.lanes[lane].req_rx.recv_with(|frame| {
            // Echo the header tag when it survived so the error reply
            // stays routable at the submitter.
            AdmittedFrame::<H::Req>::decode(frame).map_err(|_| peek_tag(frame).unwrap_or(0))
        });
        Some(decoded.ok()?.map_err(|tag| {
            self.stats.malformed.fetch_add(1, Ordering::Relaxed);
            self.post_err(lane, tag, RpcErr::Invalid, None);
        }))
    }

    /// Parks a shared-access job behind an exclusively-held resource,
    /// promoting the holding flows to the waiter's effective weight.
    fn defer(&mut self, res: u64, waiter: usize, job: ReadyJob<H::Req>) {
        self.stats.inherit_deferred.fetch_add(1, Ordering::Relaxed);
        if self.inherit {
            if let (Some(gate), Some(rec)) = (self.gate.as_mut(), self.holders.get_mut(&res)) {
                let holding: Vec<usize> = rec.by_flow.keys().copied().collect();
                for hf in holding {
                    if hf != waiter {
                        gate.promote_flow(hf, waiter);
                        rec.promoted.push(hf);
                        self.stats.promotions.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
        self.waiting.entry(res).or_default().push(job);
    }

    /// Settles one completed exclusive hold; the last release demotes the
    /// promoted flows and frees every waiter.
    fn release_one(&mut self, res: u64, flow: usize) {
        let Some(rec) = self.holders.get_mut(&res) else {
            return;
        };
        // The admission-time GC pin comes off with the hold.
        if let Some(gate) = self.gate.as_mut() {
            gate.unpin_flow(flow);
        }
        rec.total = rec.total.saturating_sub(1);
        if let Some(c) = rec.by_flow.get_mut(&flow) {
            *c -= 1;
            if *c == 0 {
                rec.by_flow.remove(&flow);
            }
        }
        if rec.total == 0 {
            let rec = self.holders.remove(&res).expect("holder present");
            if let Some(gate) = self.gate.as_mut() {
                for f in rec.promoted {
                    gate.demote_flow(f);
                }
            }
            if let Some(jobs) = self.waiting.remove(&res) {
                self.ready_backlog.extend(jobs);
            }
        }
    }

    /// Routes one ready job: offer it to the handler's wave, else run it
    /// inline — or hand it to the pool, if there is one and the handler
    /// says the job may wait. A job touching a resource held by an
    /// external lease holder parks here instead, and the handler starts
    /// the recall; the freed queue re-routes it once the lease settles.
    fn route(&mut self, pool: Option<&JobQueue<ReadyJob<H::Req>>>, job: ReadyJob<H::Req>) {
        if let Some((res, access)) = self.handler.touches(&job.req) {
            let excl = access == Access::Exclusive;
            if self
                .handler
                .external_holds()
                .is_some_and(|ext| ext.blocks(res, excl))
            {
                self.stats.lease_deferred.fetch_add(1, Ordering::Relaxed);
                self.handler.recall(res, excl);
                self.waiting.entry(res).or_default().push(job);
                return;
            }
        }
        let ReadyJob {
            lane,
            tag,
            credit,
            req,
            release,
            tenant,
        } = job;
        // Staged replies settle at flush time, which has no release path;
        // only lock-free requests are offered to the wave.
        let req = if release.is_none() {
            match self.handler.stage(lane, tag, credit, tenant, req) {
                None => {
                    self.stats.rpcs.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                Some(req) => req,
            }
        } else {
            req
        };
        let job = ReadyJob {
            lane,
            tag,
            credit,
            req,
            release,
            tenant,
        };
        match pool {
            Some(p) if self.handler.may_wait(&job.req) => p.push(job),
            _ => self.exec_inline(job),
        }
    }

    /// Executes one job on the engine thread and settles it.
    fn exec_inline(&mut self, job: ReadyJob<H::Req>) {
        let ReadyJob {
            lane,
            tag,
            credit,
            req,
            release,
            ..
        } = job;
        self.reply.clear();
        exec_contained(
            &*self.handler,
            &self.faults,
            &self.stats,
            lane,
            tag,
            req,
            &mut self.reply,
        );
        if let Some(c) = credit {
            stamp_credit(&mut self.reply, c);
        }
        self.settler.post_slice(lane, &self.reply);
        if let Some((res, flow)) = release {
            self.release_one(res, flow);
        }
    }

    /// Runs a barrier frame: everything dispatched before it — deferred
    /// waiters, staged reads, pooled work — completes first, then the
    /// barrier executes inline.
    fn barrier(&mut self, pool: Option<&JobQueue<ReadyJob<H::Req>>>, job: ReadyJob<H::Req>) {
        self.flush_waiting(pool);
        for j in std::mem::take(&mut self.ready_backlog) {
            self.route(pool, j);
        }
        self.flush_handler();
        if let Some(p) = pool {
            p.quiesce();
        }
        // Settle the releases those completions produced before running
        // the barrier itself.
        let done = std::mem::take(&mut *self.releases.lock());
        for (res, flow) in done {
            self.release_one(res, flow);
        }
        self.exec_inline(job);
    }

    /// Force-runs every deferred waiter (barriers and shutdown override
    /// the lock model), demoting the promotions they caused. Resources
    /// still pinned by external lease holders are recalled synchronously
    /// first, so the flushed jobs observe settled data.
    fn flush_waiting(&mut self, pool: Option<&JobQueue<ReadyJob<H::Req>>>) {
        let held: Vec<u64> = match self.handler.external_holds() {
            Some(ext) => self
                .waiting
                .keys()
                .copied()
                .filter(|r| ext.is_held(*r))
                .collect(),
            None => Vec::new(),
        };
        for res in held {
            self.handler.recall_sync(res);
        }
        let waiting: Vec<(u64, Vec<ReadyJob<H::Req>>)> = self.waiting.drain().collect();
        for (res, jobs) in waiting {
            if let (Some(gate), Some(rec)) = (self.gate.as_mut(), self.holders.get_mut(&res)) {
                for f in rec.promoted.drain(..) {
                    gate.demote_flow(f);
                }
            }
            for job in jobs {
                self.route(pool, job);
            }
        }
    }

    /// Flushes the handler's coalescing wave into the reply settler.
    fn flush_handler(&mut self) {
        let handler = Arc::clone(&self.handler);
        let settler = Arc::clone(&self.settler);
        handler.flush(&mut |lane, frame| settler.post_slice(lane, frame));
    }

    /// Completes in-flight work at shutdown so nothing is left parked.
    fn drain_for_shutdown(&mut self, pool: Option<&JobQueue<ReadyJob<H::Req>>>) {
        let done = std::mem::take(&mut *self.releases.lock());
        for (res, flow) in done {
            self.release_one(res, flow);
        }
        self.flush_waiting(pool);
        for job in std::mem::take(&mut self.ready_backlog) {
            self.route(pool, job);
        }
        if let Some(p) = pool {
            p.quiesce();
        }
        self.flush_handler();
        self.settler.settle();
    }

    /// Buffers an error reply for the lane's next settlement wave.
    fn post_err(&mut self, lane: usize, tag: u32, err: RpcErr, credit: Option<u8>) {
        self.reply.clear();
        self.handler.encode_err(tag, err, &mut self.reply);
        if let Some(c) = credit {
            stamp_credit(&mut self.reply, c);
        }
        self.settler.post_slice(lane, &self.reply);
    }
}

/// Executes one request into `reply` with panic containment: a panicking
/// handler (a proxy bug or an armed [`EngineFaults`] charge) yields an
/// `Io` error reply instead of taking down the serve loop.
fn exec_contained<H: OpHandler>(
    handler: &H,
    faults: &EngineFaults,
    stats: &ProxyStats,
    lane: usize,
    tag: u32,
    req: H::Req,
    reply: &mut Vec<u8>,
) {
    stats.rpcs.fetch_add(1, Ordering::Relaxed);
    let armed = faults.take_worker_panic();
    let start = reply.len();
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if armed {
            panic!("injected proxy worker panic");
        }
        handler.exec(lane, tag, req, reply)
    }));
    if out.is_err() {
        stats.worker_panics.fetch_add(1, Ordering::Relaxed);
        // Whatever the handler wrote before it died is not a reply.
        reply.truncate(start);
        handler.encode_err(tag, RpcErr::Io, reply);
    }
}

/// Worker-pool loop: executes ready jobs out of order until the queue
/// closes, buffering replies into the shared settler (the engine thread
/// settles them in its cycle's batched wave) and pushing completed
/// exclusive holds back to the engine.
fn worker_loop<H: OpHandler>(
    handler: &H,
    jobs: &JobQueue<ReadyJob<H::Req>>,
    settler: &ReplySettler,
    stats: &ProxyStats,
    faults: &EngineFaults,
    releases: &Mutex<Vec<(u64, usize)>>,
    bell: &Doorbell,
) {
    // This worker's reply frame, rebuilt in place per job.
    let mut reply = Vec::new();
    while let Some(job) = jobs.pop() {
        let ReadyJob {
            lane,
            tag,
            credit,
            req,
            release,
            ..
        } = job;
        reply.clear();
        exec_contained(handler, faults, stats, lane, tag, req, &mut reply);
        if let Some(c) = credit {
            stamp_credit(&mut reply, c);
        }
        settler.post_slice(lane, &reply);
        if let Some(r) = release {
            releases.lock().push(r);
        }
        jobs.done();
        // The engine thread settles what was just posted; it may have
        // parked while this job ran.
        bell.ring();
    }
}

struct JobQueueInner<J> {
    q: std::collections::VecDeque<J>,
    /// Jobs popped but not yet `done()`.
    active: usize,
    closed: bool,
}

/// The engine's work queue: a mutex-protected deque with a condvar pair —
/// `work` wakes workers, `idle` wakes a barrier waiting for quiescence.
pub(crate) struct JobQueue<J> {
    inner: Mutex<JobQueueInner<J>>,
    work: Condvar,
    idle: Condvar,
}

impl<J> JobQueue<J> {
    fn new() -> Self {
        Self {
            inner: Mutex::new(JobQueueInner {
                q: std::collections::VecDeque::new(),
                active: 0,
                closed: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
        }
    }

    fn push(&self, job: J) {
        self.inner.lock().q.push_back(job);
        self.work.notify_one();
    }

    /// Blocks for the next job; `None` once closed and drained.
    fn pop(&self) -> Option<J> {
        let mut g = self.inner.lock();
        loop {
            if let Some(job) = g.q.pop_front() {
                g.active += 1;
                return Some(job);
            }
            if g.closed {
                return None;
            }
            self.work.wait(&mut g);
        }
    }

    /// Marks a popped job complete.
    fn done(&self) {
        let mut g = self.inner.lock();
        g.active -= 1;
        if g.active == 0 && g.q.is_empty() {
            self.idle.notify_all();
        }
    }

    /// Blocks until no job is queued or executing (the barrier).
    fn quiesce(&self) {
        let mut g = self.inner.lock();
        while g.active > 0 || !g.q.is_empty() {
            self.idle.wait(&mut g);
        }
    }

    /// Wakes every worker to exit once the queue drains.
    fn close(&self) {
        self.inner.lock().closed = true;
        self.work.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Channel;
    use solros_pcie::PcieCounters;
    use solros_proto::fs_msg::{FsRequest, FsResponse};
    use solros_qos::{FlowSpec, HostConfig, HostScheduler, QosClass, Service};

    /// A minimal handler: Fsync acks, Fstat echoes the ino as the size;
    /// Fstat takes a shared touch on the ino, Write an exclusive one.
    struct Echo;

    impl OpHandler for Echo {
        type Req = FsRequest;

        fn encode_err(&self, tag: u32, err: RpcErr, reply: &mut Vec<u8>) {
            FsResponse::Error { err }.encode_into(tag, reply)
        }

        fn classify(&self, _lane: usize, req: &FsRequest) -> (usize, u64) {
            match req {
                FsRequest::Write { count, .. } => (1, *count),
                _ => (0, 0),
            }
        }

        fn exec(&self, _lane: usize, tag: u32, req: FsRequest, reply: &mut Vec<u8>) {
            match req {
                FsRequest::Fstat { ino } => FsResponse::Stat {
                    ino,
                    is_dir: false,
                    size: ino,
                },
                _ => FsResponse::Ok,
            }
            .encode_into(tag, reply)
        }

        fn touches(&self, req: &FsRequest) -> Option<(u64, Access)> {
            match req {
                FsRequest::Write { ino, .. } => Some((*ino, Access::Exclusive)),
                FsRequest::Fstat { ino } => Some((*ino, Access::Shared)),
                _ => None,
            }
        }
    }

    fn lane() -> (
        EngineLane,
        solros_ringbuf::Producer,
        solros_ringbuf::Consumer,
    ) {
        let ch = Channel::new(Arc::new(PcieCounters::new()));
        (
            EngineLane {
                req_rx: ch.req_rx,
                resp_tx: ch.resp_tx,
            },
            ch.req_tx,
            ch.resp_rx,
        )
    }

    fn engine(
        gate: Option<HostGate<GateJob<FsRequest>>>,
    ) -> (
        ProxyEngine<Echo>,
        solros_ringbuf::Producer,
        solros_ringbuf::Consumer,
        Arc<ProxyStats>,
        Arc<EngineFaults>,
    ) {
        let (lane, req_tx, resp_rx) = lane();
        let stats = Arc::new(ProxyStats::default());
        let faults = Arc::new(EngineFaults::new());
        let eng = ProxyEngine::new(
            Arc::new(Echo),
            vec![lane],
            Arc::clone(&stats),
            Arc::clone(&faults),
            gate,
        );
        (eng, req_tx, resp_rx, stats, faults)
    }

    fn two_flows() -> HostGate<GateJob<FsRequest>> {
        let spec = |name: &str, class: QosClass, weight: u32| FlowSpec {
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
        };
        let host = HostScheduler::new(HostConfig::default());
        HostGate::new(
            vec![
                spec("meta", QosClass::High, 8),
                spec("data", QosClass::BestEffort, 1),
            ],
            4096,
            usize::MAX,
            &host,
            Service::Fs,
            0,
        )
    }

    #[test]
    fn fifo_round_trip_counts_and_rejects_malformed() {
        let (mut eng, req_tx, resp_rx, stats, _) = engine(None);
        req_tx
            .send_blocking(&FsRequest::Fsync { ino: 1 }.encode(5))
            .unwrap();
        req_tx.send_blocking(&[1, 2, 3]).unwrap();
        assert!(eng.step(0));
        let (tag, resp) = FsResponse::decode(&resp_rx.recv().unwrap()).unwrap();
        assert_eq!((tag, resp), (5, FsResponse::Ok));
        let (tag, resp) = FsResponse::decode(&resp_rx.recv().unwrap()).unwrap();
        assert_eq!(tag, 0);
        assert_eq!(
            resp,
            FsResponse::Error {
                err: RpcErr::Invalid
            }
        );
        assert_eq!(stats.rpcs.load(Ordering::Relaxed), 1);
        assert_eq!(stats.malformed.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn contained_panic_and_dropped_reply() {
        let (mut eng, req_tx, resp_rx, stats, faults) = engine(None);
        faults.arm_worker_panics(1);
        req_tx
            .send_blocking(&FsRequest::Fsync { ino: 1 }.encode(1))
            .unwrap();
        eng.step(0);
        let (_, resp) = FsResponse::decode(&resp_rx.recv().unwrap()).unwrap();
        assert_eq!(resp, FsResponse::Error { err: RpcErr::Io });
        assert_eq!(stats.worker_panics.load(Ordering::Relaxed), 1);

        faults.arm_dropped_replies(1);
        req_tx
            .send_blocking(&FsRequest::Fsync { ino: 1 }.encode(2))
            .unwrap();
        eng.step(0);
        assert!(resp_rx.recv().is_err(), "reply must vanish");
        assert_eq!(stats.dropped_replies.load(Ordering::Relaxed), 1);
    }

    /// A pooled handler in which only `Fstat` never waits: every other
    /// request blocks in `exec` until the test opens the gate. Records
    /// which thread executed each tag; `Fstat` replies with the number of
    /// requests executed so far, itself included.
    struct Gated {
        open: Mutex<bool>,
        opened: Condvar,
        ran: Mutex<Vec<(u32, std::thread::ThreadId)>>,
    }

    impl Gated {
        fn new(open: bool) -> Arc<Self> {
            Arc::new(Gated {
                open: Mutex::new(open),
                opened: Condvar::new(),
                ran: Mutex::new(Vec::new()),
            })
        }

        fn open(&self) {
            *self.open.lock() = true;
            self.opened.notify_all();
        }
    }

    impl OpHandler for Gated {
        type Req = FsRequest;

        fn encode_err(&self, tag: u32, err: RpcErr, reply: &mut Vec<u8>) {
            FsResponse::Error { err }.encode_into(tag, reply)
        }

        fn classify(&self, _lane: usize, _req: &FsRequest) -> (usize, u64) {
            (0, 0)
        }

        fn exec(&self, _lane: usize, tag: u32, req: FsRequest, reply: &mut Vec<u8>) {
            if self.may_wait(&req) {
                let mut open = self.open.lock();
                while !*open {
                    self.opened.wait(&mut open);
                }
            }
            let mut ran = self.ran.lock();
            ran.push((tag, std::thread::current().id()));
            match req {
                FsRequest::Fstat { ino } => FsResponse::Stat {
                    ino,
                    is_dir: false,
                    size: ran.len() as u64,
                },
                _ => FsResponse::Ok,
            }
            .encode_into(tag, reply)
        }

        fn workers(&self) -> usize {
            2
        }

        fn may_wait(&self, req: &FsRequest) -> bool {
            !matches!(req, FsRequest::Fstat { .. })
        }
    }

    /// Serves `handler` on a thread of its own; returns what a test needs
    /// to talk to it and to stop it.
    #[allow(clippy::type_complexity)]
    fn serve_gated(
        handler: &Arc<Gated>,
    ) -> (
        solros_ringbuf::Producer,
        solros_ringbuf::Consumer,
        Arc<ProxyStats>,
        Arc<Doorbell>,
        Arc<AtomicBool>,
        std::thread::JoinHandle<()>,
    ) {
        let (lane, req_tx, resp_rx) = lane();
        let stats = Arc::new(ProxyStats::default());
        let eng = ProxyEngine::new(
            Arc::clone(handler),
            vec![lane],
            Arc::clone(&stats),
            Arc::new(EngineFaults::new()),
            None,
        );
        let bell = Arc::clone(&eng.bell);
        let shutdown = Arc::new(AtomicBool::new(false));
        let sd = Arc::clone(&shutdown);
        let server = std::thread::spawn(move || eng.serve(sd));
        (req_tx, resp_rx, stats, bell, shutdown, server)
    }

    fn recv_reply(resp_rx: &solros_ringbuf::Consumer) -> (u32, FsResponse) {
        let deadline = Instant::now() + std::time::Duration::from_secs(5);
        loop {
            match resp_rx.recv() {
                Ok(f) => return FsResponse::decode(&f).unwrap(),
                Err(_) => std::thread::yield_now(),
            }
            assert!(Instant::now() < deadline, "no reply");
        }
    }

    #[test]
    fn worker_completion_rings_a_parked_engine() {
        let handler = Gated::new(false);
        let (req_tx, resp_rx, stats, bell, shutdown, server) = serve_gated(&handler);

        req_tx
            .send_blocking(&FsRequest::Fsync { ino: 1 }.encode(7))
            .unwrap();
        // The worker is inside `exec` and the engine, with nothing left
        // to do, has gone through its yield band and armed the bell.
        while stats.rpcs.load(Ordering::Relaxed) == 0 || !bell.is_armed() {
            std::thread::yield_now();
        }
        let before = bell.rings();
        handler.open();
        assert_eq!(recv_reply(&resp_rx), (7, FsResponse::Ok));
        assert!(
            bell.rings() > before,
            "the completion must ring the engine, not wait out its park"
        );
        shutdown.store(true, Ordering::Relaxed);
        server.join().unwrap();
    }

    #[test]
    fn only_an_op_that_may_wait_leaves_the_serve_thread() {
        let handler = Gated::new(true);
        let (req_tx, resp_rx, _, _, shutdown, server) = serve_gated(&handler);
        req_tx
            .send_blocking(&FsRequest::Fstat { ino: 1 }.encode(1))
            .unwrap();
        req_tx
            .send_blocking(&FsRequest::Fsync { ino: 1 }.encode(2))
            .unwrap();
        let mut tags = [recv_reply(&resp_rx).0, recv_reply(&resp_rx).0];
        tags.sort_unstable();
        assert_eq!(tags, [1, 2]);
        let ran = handler.ran.lock().clone();
        let thread_of = |tag| ran.iter().find(|(t, _)| *t == tag).unwrap().1;
        assert_eq!(thread_of(1), server.thread().id(), "inline op left home");
        assert_ne!(thread_of(2), server.thread().id(), "waiting op ran inline");
        shutdown.store(true, Ordering::Relaxed);
        server.join().unwrap();
    }

    #[test]
    fn a_barrier_observes_inline_and_pooled_work_alike() {
        const INLINE: u32 = 5;
        const POOLED: u32 = 3;
        let handler = Gated::new(false);
        let (req_tx, resp_rx, stats, _, shutdown, server) = serve_gated(&handler);
        for tag in 0..INLINE + POOLED {
            let req = if tag % 2 == 0 && tag / 2 < POOLED {
                FsRequest::Fsync { ino: 1 }
            } else {
                FsRequest::Fstat { ino: 1 }
            };
            req_tx.send_blocking(&req.encode(tag)).unwrap();
        }
        let mut barrier = FsRequest::Fstat { ino: 2 }.encode(99);
        solros_proto::codec::stamp_flags(&mut barrier, FLAG_BARRIER);
        req_tx.send_blocking(&barrier).unwrap();
        // Every inline op has run and the pool is stuck behind the gate
        // (a third pooled job may still be queued): the barrier is next.
        while stats.rpcs.load(Ordering::Relaxed) < u64::from(INLINE) + 2 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(
            handler.ran.lock().iter().all(|(tag, _)| *tag != 99),
            "the barrier overtook pooled work"
        );
        handler.open();
        let seen = loop {
            if let (99, FsResponse::Stat { size, .. }) = recv_reply(&resp_rx) {
                break size;
            }
        };
        assert_eq!(seen, u64::from(INLINE + POOLED) + 1);
        shutdown.store(true, Ordering::Relaxed);
        server.join().unwrap();
    }

    #[test]
    fn shared_touch_defers_behind_exclusive_holder_and_promotes() {
        let (mut eng, req_tx, resp_rx, stats, _) = engine(Some(two_flows()));
        // Two exclusive writes to ino 7, then a shared fstat on it.
        for t in 0..2u32 {
            req_tx
                .send_blocking(
                    &FsRequest::Write {
                        ino: 7,
                        offset: 0,
                        count: 4096,
                        buf_addr: 0,
                    }
                    .encode(t),
                )
                .unwrap();
        }
        req_tx
            .send_blocking(&FsRequest::Fstat { ino: 7 }.encode(9))
            .unwrap();
        let mut replies = Vec::new();
        let mut now = 0;
        while replies.len() < 3 {
            eng.step(now);
            now += 1;
            while let Ok(f) = resp_rx.recv() {
                replies.push(FsResponse::decode(&f).unwrap().0);
            }
            assert!(now < 100, "engine stalled: {replies:?}");
        }
        // The fstat waited for both writes despite its higher class.
        assert_eq!(replies, vec![0, 1, 9]);
        assert!(stats.inherit_deferred.load(Ordering::Relaxed) >= 1);
        assert!(stats.promotions.load(Ordering::Relaxed) >= 1);
    }

    #[test]
    fn barrier_flushes_deferred_waiters() {
        let (mut eng, req_tx, resp_rx, _, _) = engine(Some(two_flows()));
        req_tx
            .send_blocking(
                &FsRequest::Write {
                    ino: 3,
                    offset: 0,
                    count: 4096,
                    buf_addr: 0,
                }
                .encode(1),
            )
            .unwrap();
        req_tx
            .send_blocking(&FsRequest::Fstat { ino: 3 }.encode(2))
            .unwrap();
        let mut barrier = FsRequest::Fsync { ino: 99 }.encode(3);
        solros_proto::codec::stamp_flags(&mut barrier, FLAG_BARRIER);
        req_tx.send_blocking(&barrier).unwrap();
        let mut replies = Vec::new();
        let mut now = 0;
        while replies.len() < 3 {
            eng.step(now);
            now += 1;
            while let Ok(f) = resp_rx.recv() {
                replies.push(FsResponse::decode(&f).unwrap().0);
            }
            assert!(now < 100, "engine stalled: {replies:?}");
        }
        // The deferred fstat was dispatched before the barrier, so the
        // barrier must not overtake it (undispatched queue work may).
        let pos = |t: u32| replies.iter().position(|&r| r == t).unwrap();
        assert!(
            pos(2) < pos(3),
            "barrier overtook a dispatched wait: {replies:?}"
        );
        assert!(replies.contains(&1));
    }
}
