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
use solros_qos::{Dispatch, HostGate, Verdict};
use solros_ringbuf::{Consumer, Doorbell, Producer};
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
/// frame exactly once, QoS scheduling, priority inheritance, execution
/// with panic containment, and reply settlement. A handler supplies only
/// the service semantics: how to execute, classify, and (optionally)
/// coalesce requests. Every request executes on the engine thread; one
/// that would have to wait for another party is handed back and parked
/// instead ([`OpHandler::exec`]). The engine owns its handler by value
/// and is its one caller, so the hooks that change the handler's state
/// take `&mut self` and that state needs no lock.
pub trait OpHandler: Send {
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
    ///
    /// A request that cannot run until an external holder gives up
    /// resource `res` (a lease whose recall the handler has already
    /// started) comes back as `Err((req, res))`, with nothing written to
    /// `reply`. The engine parks it and executes it again once
    /// [`ExternalHolds`] reports `res` freed — by the holder's ack or by
    /// the forced revoke at the recall deadline — so no handler ever
    /// waits on an answer that only this engine could admit.
    fn exec(
        &mut self,
        lane: usize,
        tag: u32,
        req: Self::Req,
        reply: &mut Vec<u8>,
    ) -> Result<(), (Self::Req, u64)>;

    /// Names the resource a request touches, for priority inheritance.
    /// Exclusive touches hold the resource from admission to completion;
    /// shared touches dispatched onto a held resource wait for release.
    fn touches(&self, req: &Self::Req) -> Option<(u64, Access)> {
        let _ = req;
        None
    }

    /// Offers a request for wave coalescing before it executes.
    /// Returning `None` means the handler staged it (the reply arrives at
    /// the next [`OpHandler::flush`]); returning the request back sends
    /// it down the normal execution path.
    fn stage(
        &mut self,
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
    fn flush(&mut self, reply: &mut dyn FnMut(usize, &[u8])) {
        let _ = reply;
    }

    /// Abandons every staged-but-unflushed wave entry, returning what
    /// each one owed (tag, credit, tenant charge). Called only by a
    /// dying shard's wreck dump; the staged requests will never execute,
    /// so the supervisor settles their tags as `Gone` and refunds their
    /// admission charges.
    fn abort_staged(&mut self) -> Vec<StagedPart> {
        Vec::new()
    }

    /// Handler-specific polling (NIC events, accepts). Returns true when
    /// any work happened.
    fn poll(&mut self) -> bool {
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
}

/// One co-processor channel served by the engine.
#[derive(Clone)]
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
/// Each cycle: route waiters whose leases settled and waiters freed by
/// released exclusive holds, run a pending barrier once nothing before
/// it is parked, admit a burst from each request ring (one decode per
/// frame), dispatch through the optional DWRR gate with priority
/// inheritance, flush the handler's coalescing wave, poll, and settle
/// the cycle's replies. Every request executes on the engine thread.
///
/// Between productive cycles the serve loop follows
/// [`crate::waitpolicy`]: it yields while its peers were recently
/// active, then arms its doorbell — attached to every lane's request
/// ring, rung too by [`ExternalHolds`] frees and by whatever the handler
/// passed it to — re-checks with one more cycle, and parks. Parks are
/// bounded, so the per-cycle clocks (heartbeat, lease sweep, QoS epoch,
/// shutdown flag) keep ticking on an idle engine.
pub struct ProxyEngine<H: OpHandler> {
    handler: H,
    lanes: Vec<EngineLane>,
    stats: Arc<ProxyStats>,
    faults: Arc<EngineFaults>,
    /// Per-lane reply accumulator; every reply producer posts here and
    /// the engine settles one batched enqueue per `(lane, cycle)`.
    settler: ReplySettler,
    gate: Option<HostGate<GateJob<H::Req>>>,
    epoch: Instant,
    /// Promote lock-holding flows to their waiter's effective weight.
    /// Deferral (the lock model) applies regardless; this gates only the
    /// promotion, so the inheritance effect can be measured on/off.
    inherit: bool,
    holders: IntMap<u64, HolderRec>,
    waiting: IntMap<u64, Vec<ReadyJob<H::Req>>>,
    ready_backlog: Vec<ReadyJob<H::Req>>,
    /// A barrier admitted but not yet run: it waits for every job parked
    /// before it, and admission pauses until it has run.
    pending_barrier: Option<ReadyJob<H::Req>>,
    /// The engine thread's reply frame, rebuilt in place per request and
    /// copied once, into its lane's settlement wave.
    reply: Vec<u8>,
    /// Failover handshake with the domain supervisor: heartbeat per
    /// cycle, crash/wedge fault checks, wreck dump on death.
    health: Option<Arc<ShardHealth>>,
    /// What the idle serve loop parks on.
    bell: Arc<Doorbell>,
}

impl<H: OpHandler> ProxyEngine<H> {
    /// Builds an engine over `lanes`; `gate` switches QoS scheduling on.
    pub fn new(
        handler: H,
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
            pending_barrier: None,
            reply: Vec::new(),
            health: None,
        }
    }

    /// Enables or disables priority inheritance (deferral still applies).
    pub fn set_inherit(&mut self, on: bool) {
        self.inherit = on;
    }

    /// Attaches the supervisor's health cell. The serve loop beats it
    /// every cycle and honours armed domain-crash/wedge faults by
    /// dumping a [`Wreck`] and dying, instead of draining cleanly.
    pub fn set_health(&mut self, health: Arc<ShardHealth>) {
        self.health = Some(health);
    }

    /// Runs one engine cycle at `now_ns` on a virtual clock. Returns true
    /// when any work happened. This is the deterministic-test entry
    /// point; production uses [`ProxyEngine::serve`], which runs the
    /// same cycle.
    pub fn step(&mut self, now_ns: u64) -> bool {
        self.cycle(now_ns)
    }

    /// Serves until `shutdown` is set, then goes on cycling — settling,
    /// polling, sweeping — until no admitted job is still parked: a
    /// lease wait ends at the holder's ack or at the sweep's forced
    /// revoke, within the recall budget. A shard that died dumped its
    /// wreck instead and serves nothing more.
    ///
    /// Hands the handler back when the loop ends, for its owner's
    /// post-mortem — also when a hook unwound out of the loop: `exec` is
    /// contained per request, a panic in `poll` or `flush` ends the loop
    /// but not the thread.
    pub fn serve(mut self, shutdown: Arc<AtomicBool>) -> H {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if !self.serve_loop(&shutdown, |_| shutdown.load(Ordering::Relaxed)) {
                self.serve_loop(&shutdown, Self::unparked);
            }
        }));
        self.handler
    }

    /// True when no admitted job waits: nothing parked, nothing in the
    /// ready backlog, no pending barrier.
    fn unparked(&self) -> bool {
        self.waiting.is_empty() && self.ready_backlog.is_empty() && self.pending_barrier.is_none()
    }

    /// Cycles until `done` or the shard dies; returns true when it died
    /// (wreck dumped: the caller must not drain).
    fn serve_loop(&mut self, shutdown: &AtomicBool, done: impl Fn(&Self) -> bool) -> bool {
        let bell = Arc::clone(&self.bell);
        let mut sleeper = Sleeper::new(WaitPolicy::yielding(), &bell);
        while !done(self) {
            if self.check_vitals(shutdown) {
                return true;
            }
            let now = self.epoch.elapsed().as_nanos() as u64;
            if self.cycle(now) {
                sleeper.progress();
                continue;
            }
            if self.gate.as_ref().is_some_and(|g| g.queued_total() > 0) {
                // Admitted work the gate has not released yet: a head
                // request larger than one DWRR turn's credit makes
                // `dispatch` answer `Idle` until enough turns accrue,
                // and nothing rings for that. Stay in the yield band
                // rather than sleep through its release.
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
    /// A cycle boundary is a complete snapshot: every admitted job is
    /// queued, parked, pending or staged here, never running elsewhere.
    /// A wedge parks the wreck too, then freezes: the heartbeat stops,
    /// nothing is served, and the loop spins until the supervisor
    /// notices the stall and fences it.
    fn check_vitals(&mut self, shutdown: &AtomicBool) -> bool {
        let Some(health) = &self.health else {
            return false;
        };
        health.beat();
        // The cell is cloned only on the way out: `dump_wreck` needs the
        // engine itself.
        if health.is_fenced() {
            // Forcible fence: the supervisor declared this shard dead
            // (e.g. a stall misjudged as a wedge). Exit at this cycle
            // boundary with a complete wreck so failover stays
            // exactly-once even when the suspicion was false.
            let health = Arc::clone(health);
            let wreck = self.dump_wreck();
            health.park_wreck(wreck);
            return true;
        }
        if self.faults.take_domain_crash() {
            let health = Arc::clone(health);
            let wreck = self.dump_wreck();
            health.crash(wreck);
            return true;
        }
        if self.faults.take_domain_wedge() {
            let health = Arc::clone(health);
            let wreck = self.dump_wreck();
            health.wedge_hold(wreck, shutdown);
            return true;
        }
        false
    }

    /// Enumerates everything this engine admitted but will never serve,
    /// at a cycle boundary where the pipeline's state is complete: gate
    /// queues, parked waiters, the ready backlog, a pending barrier, the
    /// handler's staged wave, and replies already computed but not yet
    /// published.
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
        let backlog = std::mem::take(&mut self.ready_backlog);
        for job in backlog.into_iter().chain(self.pending_barrier.take()) {
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
            if self.gate.is_some() {
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
    fn cycle(&mut self, now_ns: u64) -> bool {
        let mut progressed = false;
        // 1. Unpark waiters whose external (lease) holds settled. A
        //    shared job re-defers if an engine-admitted exclusive is
        //    still in flight on the resource — unless a barrier is
        //    pending, which overrides the lock model; everything else
        //    re-routes (and re-parks if a new lease beat it to the
        //    grant).
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
                let shared_blocked = self.pending_barrier.is_none()
                    && job.release.is_none()
                    && self.holders.get(&res).is_some_and(|r| r.total > 0)
                    && matches!(
                        self.handler.touches(&job.req),
                        Some((r, Access::Shared)) if r == res
                    );
                if shared_blocked {
                    self.waiting.entry(res).or_default().push(job);
                } else {
                    self.route(job);
                }
            }
        }
        // 2. Route waiters freed by released exclusive holds.
        for job in std::mem::take(&mut self.ready_backlog) {
            progressed = true;
            self.route(job);
        }
        // 3. A pending barrier runs once nothing before it is parked.
        progressed |= self.run_barrier();
        // 4. Admit and dispatch; both pause while a barrier is pending.
        if self.gate.is_some() {
            // Epoch upkeep first: GC idle flow-table entries and let the
            // host scheduler sweep tenants left without flows.
            self.gate.as_mut().expect("gated").maintain(now_ns);
            progressed |= self.admit_gated(now_ns);
            progressed |= self.dispatch_gated(now_ns);
        } else {
            progressed |= self.admit_fifo();
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
        if self.pending_barrier.is_some() {
            return false;
        }
        let mut progressed = false;
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
        progressed
    }

    /// Dispatches a burst in DWRR order, applying the inheritance lock
    /// model: shared touches wait behind exclusive holders, promoting
    /// them while they wait.
    fn dispatch_gated(&mut self, now_ns: u64) -> bool {
        let mut progressed = false;
        for _ in 0..DISPATCH_BURST {
            if self.pending_barrier.is_some() {
                break;
            }
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
                self.barrier(ready);
                continue;
            }
            match job.touch {
                Some((res, Access::Shared))
                    if self.holders.get(&res).is_some_and(|r| r.total > 0) =>
                {
                    self.defer(res, flow, ready);
                }
                _ => self.route(ready),
            }
        }
        progressed
    }

    /// FIFO admission (no gate): decode once, route straight through.
    fn admit_fifo(&mut self) -> bool {
        let mut progressed = false;
        for lane in 0..self.lanes.len() {
            for _ in 0..DRAIN_BURST {
                if self.pending_barrier.is_some() {
                    return progressed;
                }
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
                    self.barrier(job);
                } else {
                    self.route(job);
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
    /// on the engine thread. A job touching a resource held by an
    /// external lease holder parks here instead, and the handler starts
    /// the recall; so does a job the handler hands back from `exec`. The
    /// freed queue re-routes either once the lease settles.
    fn route(&mut self, job: ReadyJob<H::Req>) {
        if let Some((res, access)) = self.handler.touches(&job.req) {
            let excl = access == Access::Exclusive;
            if self
                .handler
                .external_holds()
                .is_some_and(|ext| ext.blocks(res, excl))
            {
                self.handler.recall(res, excl);
                self.park(res, job);
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
        if let Some((job, res)) = self.exec_inline(job) {
            self.park(res, job);
        }
    }

    /// Parks a job until the external holds on `res` free.
    fn park(&mut self, res: u64, job: ReadyJob<H::Req>) {
        self.stats.lease_deferred.fetch_add(1, Ordering::Relaxed);
        self.waiting.entry(res).or_default().push(job);
    }

    /// Executes one job on the engine thread and settles it, with panic
    /// containment: a panicking handler (a proxy bug or an armed
    /// [`EngineFaults`] charge) yields an `Io` error reply instead of
    /// taking down the serve loop. A job the handler hands back blocked
    /// on a lease comes back out, with the resource it waits for.
    fn exec_inline(&mut self, job: ReadyJob<H::Req>) -> Option<(ReadyJob<H::Req>, u64)> {
        let ReadyJob {
            lane,
            tag,
            credit,
            req,
            release,
            tenant,
        } = job;
        let armed = self.faults.take_worker_panic();
        let (handler, reply) = (&mut self.handler, &mut self.reply);
        reply.clear();
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if armed {
                panic!("injected proxy worker panic");
            }
            handler.exec(lane, tag, req, reply)
        }));
        match out {
            Ok(Ok(())) => {}
            Ok(Err((req, res))) => {
                let job = ReadyJob {
                    lane,
                    tag,
                    credit,
                    req,
                    release,
                    tenant,
                };
                return Some((job, res));
            }
            Err(_) => {
                self.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                // Whatever the handler wrote before it died is not a reply.
                self.reply.clear();
                self.handler.encode_err(tag, RpcErr::Io, &mut self.reply);
            }
        }
        self.stats.rpcs.fetch_add(1, Ordering::Relaxed);
        if let Some(c) = credit {
            stamp_credit(&mut self.reply, c);
        }
        self.settler.post_slice(lane, &self.reply);
        if let Some((res, flow)) = release {
            self.release_one(res, flow);
        }
        None
    }

    /// Takes in a barrier frame. Everything dispatched before it —
    /// deferred waiters (a barrier overrides the lock model), the ready
    /// backlog, the staged wave, calls parked on a lease — runs first:
    /// the barrier becomes the engine's one pending barrier, admission
    /// pauses, and it runs once nothing before it is parked (here and
    /// now, when nothing is).
    fn barrier(&mut self, job: ReadyJob<H::Req>) {
        let waiting: Vec<(u64, Vec<ReadyJob<H::Req>>)> = self.waiting.drain().collect();
        for (res, jobs) in waiting {
            if let (Some(gate), Some(rec)) = (self.gate.as_mut(), self.holders.get_mut(&res)) {
                for f in rec.promoted.drain(..) {
                    gate.demote_flow(f);
                }
            }
            // A job still pinned by a lease holder parks again here.
            for job in jobs {
                self.route(job);
            }
        }
        for job in std::mem::take(&mut self.ready_backlog) {
            self.route(job);
        }
        self.pending_barrier = Some(job);
        self.run_barrier();
    }

    /// Runs the pending barrier, after the staged wave, once no job
    /// admitted before it waits; returns true when it ran. A barrier
    /// that is itself blocked on a lease stays pending, its recall under
    /// way, and is tried again next cycle.
    fn run_barrier(&mut self) -> bool {
        if self.pending_barrier.is_none()
            || !self.waiting.is_empty()
            || !self.ready_backlog.is_empty()
        {
            return false;
        }
        self.flush_handler();
        let job = self.pending_barrier.take().expect("pending barrier");
        self.pending_barrier = self.exec_inline(job).map(|(job, _)| job);
        self.pending_barrier.is_none()
    }

    /// Flushes the handler's coalescing wave into the reply settler.
    fn flush_handler(&mut self) {
        let settler = &self.settler;
        self.handler
            .flush(&mut |lane, frame| settler.post_slice(lane, frame));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::Channel;
    use solros_lease::RecallSink;
    use solros_pcie::PcieCounters;
    use solros_proto::fs_msg::{FsRequest, FsResponse};
    use solros_qos::{FlowSpec, HostConfig, HostScheduler, QosClass, Service};

    /// A minimal handler: Fsync acks, Fstat echoes the ino as the size;
    /// Fstat takes a shared touch on the ino, Write an exclusive one. It
    /// counts its polls, and panics on poll `panic_at` when that is set.
    #[derive(Default)]
    struct Echo {
        polls: u64,
        panic_at: Option<u64>,
    }

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

        fn exec(
            &mut self,
            _lane: usize,
            tag: u32,
            req: FsRequest,
            reply: &mut Vec<u8>,
        ) -> Result<(), (FsRequest, u64)> {
            match req {
                FsRequest::Fstat { ino } => FsResponse::Stat {
                    ino,
                    is_dir: false,
                    size: ino,
                },
                _ => FsResponse::Ok,
            }
            .encode_into(tag, reply);
            Ok(())
        }

        fn touches(&self, req: &FsRequest) -> Option<(u64, Access)> {
            match req {
                FsRequest::Write { ino, .. } => Some((*ino, Access::Exclusive)),
                FsRequest::Fstat { ino } => Some((*ino, Access::Shared)),
                _ => None,
            }
        }

        fn poll(&mut self) -> bool {
            self.polls += 1;
            if self.panic_at == Some(self.polls) {
                panic!("poll {} panics", self.polls);
            }
            false
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
            Echo::default(),
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

    /// A handler over a lease model: an `Fstat` on an inode `leases`
    /// holds comes back from `exec` parked on it, as `FsProxy` hands back
    /// a call that meets a lease. Records every attempt's thread, and the
    /// tags that completed, in order. Only `leases` is shared: a test
    /// frees a hold while the engine serves.
    struct Gated {
        leases: Arc<ExternalHolds>,
        bell: Arc<Doorbell>,
        attempts: Vec<(u32, std::thread::ThreadId)>,
        completed: Vec<u32>,
    }

    impl Gated {
        /// A handler whose `leases` hold inode 1 exclusively.
        fn new() -> Self {
            let bell = Doorbell::new();
            let leases = Arc::new(ExternalHolds::with_doorbell(Arc::clone(&bell)));
            leases.hold(1, true);
            Gated {
                leases,
                bell,
                attempts: Vec::new(),
                completed: Vec::new(),
            }
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

        fn exec(
            &mut self,
            _lane: usize,
            tag: u32,
            req: FsRequest,
            reply: &mut Vec<u8>,
        ) -> Result<(), (FsRequest, u64)> {
            self.attempts.push((tag, std::thread::current().id()));
            let FsRequest::Fstat { ino } = &req else {
                unreachable!("the lease model serves Fstat only");
            };
            if self.leases.blocks(*ino, true) {
                let ino = *ino;
                return Err((req, ino));
            }
            self.completed.push(tag);
            FsResponse::Ok.encode_into(tag, reply);
            Ok(())
        }

        fn doorbell(&self) -> Option<Arc<Doorbell>> {
            Some(Arc::clone(&self.bell))
        }

        fn external_holds(&self) -> Option<&ExternalHolds> {
            Some(&*self.leases)
        }
    }

    /// Serves `handler` on a thread of its own, which hands it back when
    /// the engine stops; returns what a test needs to talk to it and to
    /// stop it.
    #[allow(clippy::type_complexity)]
    fn serve_gated(
        handler: Gated,
    ) -> (
        solros_ringbuf::Producer,
        solros_ringbuf::Consumer,
        Arc<ProxyStats>,
        Arc<Doorbell>,
        Arc<AtomicBool>,
        std::thread::JoinHandle<Gated>,
    ) {
        let (lane, req_tx, resp_rx) = lane();
        let stats = Arc::new(ProxyStats::default());
        let eng = ProxyEngine::new(
            handler,
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

    /// Sends an `Fstat` of `ino` under `tag`, stamped with `flags`.
    fn send_fstat(req_tx: &solros_ringbuf::Producer, tag: u32, ino: u64, flags: u8) {
        let mut frame = FsRequest::Fstat { ino }.encode(tag);
        solros_proto::codec::stamp_flags(&mut frame, flags);
        req_tx.send_blocking(&frame).unwrap();
    }

    #[test]
    fn a_lease_free_rings_a_parked_engine() {
        let handler = Gated::new();
        let leases = Arc::clone(&handler.leases);
        let (req_tx, resp_rx, stats, bell, shutdown, server) = serve_gated(handler);
        send_fstat(&req_tx, 7, 1, 0);
        // The call came back parked on the lease and the engine, with
        // nothing left to do, has gone through its yield band and armed
        // the bell.
        while stats.lease_deferred.load(Ordering::Relaxed) == 0 || !bell.is_armed() {
            std::thread::yield_now();
        }
        let before = bell.rings();
        leases.free(1, true);
        assert_eq!(recv_reply(&resp_rx), (7, FsResponse::Ok));
        assert!(
            bell.rings() > before,
            "the free must ring the engine, not wait out its park"
        );
        shutdown.store(true, Ordering::Relaxed);
        server.join().unwrap();
    }

    #[test]
    fn every_op_parked_or_not_executes_on_the_serve_thread() {
        let handler = Gated::new();
        let leases = Arc::clone(&handler.leases);
        let (req_tx, resp_rx, _, _, shutdown, server) = serve_gated(handler);
        send_fstat(&req_tx, 1, 1, 0);
        send_fstat(&req_tx, 2, 2, 0);
        assert_eq!(
            recv_reply(&resp_rx).0,
            2,
            "the parked call held up the next"
        );
        leases.free(1, true);
        assert_eq!(recv_reply(&resp_rx).0, 1);
        let serve_thread = server.thread().id();
        shutdown.store(true, Ordering::Relaxed);
        let attempts = server.join().unwrap().attempts;
        let tags: Vec<u32> = attempts.iter().map(|(tag, _)| *tag).collect();
        assert_eq!(
            tags,
            [1, 2, 1],
            "parked, the next call, then the resumed one"
        );
        assert!(
            attempts.iter().all(|(_, t)| *t == serve_thread),
            "an op left the serve thread"
        );
    }

    #[test]
    fn a_hook_unwinding_out_of_serve_still_hands_the_handler_back() {
        let (lane, _req_tx, _resp_rx) = lane();
        let eng = ProxyEngine::new(
            Echo {
                polls: 0,
                panic_at: Some(3),
            },
            vec![lane],
            Arc::new(ProxyStats::default()),
            Arc::new(EngineFaults::new()),
            None,
        );
        // Never shut down: only the panic on the third poll ends serve.
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = std::thread::spawn(move || eng.serve(shutdown));
        let handler = server.join().expect("the serve thread exits normally");
        assert_eq!(
            handler.polls, 3,
            "the handler comes back as the panic left it"
        );
    }

    #[test]
    fn a_barrier_behind_a_parked_job_runs_after_it_and_before_later_frames() {
        let (lane, req_tx, resp_rx) = lane();
        let mut eng = ProxyEngine::new(
            Gated::new(),
            vec![lane],
            Arc::new(ProxyStats::default()),
            Arc::new(EngineFaults::new()),
            None,
        );
        send_fstat(&req_tx, 0, 1, 0); // parks on the lease
        send_fstat(&req_tx, 1, 2, 0);
        send_fstat(&req_tx, 99, 3, FLAG_BARRIER);
        send_fstat(&req_tx, 100, 4, 0);
        send_fstat(&req_tx, 101, 5, 0);
        for now in 0..4 {
            eng.step(now);
        }
        assert_eq!(
            eng.handler.completed,
            [1],
            "something overtook the parked call"
        );
        eng.handler.leases.free(1, true);
        eng.step(4);
        assert_eq!(eng.handler.completed, [1, 0, 99, 100, 101]);
        let replies = std::iter::from_fn(|| resp_rx.recv().ok()).count();
        assert_eq!(replies, 5);
    }

    #[test]
    fn a_wreck_settles_a_pending_barrier_as_gone() {
        let (lane, req_tx, _resp_rx) = lane();
        let mut eng = ProxyEngine::new(
            Gated::new(),
            vec![lane],
            Arc::new(ProxyStats::default()),
            Arc::new(EngineFaults::new()),
            None,
        );
        send_fstat(&req_tx, 0, 1, 0);
        send_fstat(&req_tx, 99, 3, FLAG_BARRIER);
        eng.step(0);
        let mut owed: Vec<(u32, FsResponse)> = eng
            .dump_wreck()
            .replies
            .iter()
            .map(|(_, frame)| FsResponse::decode(frame).unwrap())
            .collect();
        owed.sort_by_key(|(tag, _)| *tag);
        let gone = FsResponse::Error { err: RpcErr::Gone };
        assert_eq!(owed, [(0, gone.clone()), (99, gone)]);
        assert!(eng.unparked());
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
