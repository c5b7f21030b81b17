//! RPC channels over the transport service.
//!
//! Ring placement follows the paper:
//!
//! * FS / network *request* and *response* rings are mastered in
//!   co-processor memory (§4.3.1): the data-plane's RPC operations touch
//!   only local memory, while the host pulls requests and pushes replies
//!   across PCIe with its faster DMA engines.
//! * The network *inbound event* ring is mastered in host memory
//!   (§4.4.1), so the co-processor's DMA engines pull inbound data from
//!   the other end — both sides' DMA engines run in parallel.
//!
//! [`RpcClient`] is a submission/completion pipeline shared by many
//! data-plane threads: [`RpcClient::submit`] enqueues a tagged frame
//! without waiting and returns a [`Token`]; [`RpcClient::wait`],
//! [`RpcClient::wait_any`], and [`RpcClient::poll`] harvest replies.
//! Whichever waiter drains a reply routes it to the pending slot of its
//! tag, so completions may arrive in any order and a few threads can keep
//! a deep queue outstanding — the depth the proxies exploit to coalesce
//! NVMe doorbells across independent calls. The synchronous
//! [`RpcClient::call`] is `wait(submit(..))`.
//!
//! Waiters follow the one discipline of [`crate::waitpolicy`]: spin while
//! this client's spin budget has been earned, yield, then park on the
//! response ring's doorbell — rung by the proxy's next publish, or by a
//! sibling waiter that drained this waiter's reply.

use std::cell::Cell;
use std::collections::hash_map::Entry;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use solros_pcie::counter::PcieCounters;
use solros_pcie::Side;
use solros_proto::codec::{
    deadline_class, decode_frame, encode_frame, flags_with_deadline, stamp_flags, stamp_tenant,
};
use solros_proto::rpc_error::RpcErr;
use solros_qos::CreditPool;
use solros_ringbuf::ring::{RingBuf, RingConfig};
use solros_ringbuf::{Consumer, Doorbell, Producer, RingError, Wave};
use solros_simkit::sync::{Mutex, RwLock};
use solros_simkit::IntMap;

use crate::waitpolicy::{Sleeper, SpinBudget, WaitPolicy};

/// Default request/response ring capacity (64 KiB each).
pub const RPC_RING_BYTES: usize = 64 * 1024;
/// Default inbound event ring capacity. The paper sizes this generously
/// (128 MB) to backlog inbound data; the simulation uses 4 MiB.
pub const EVENT_RING_BYTES: usize = 4 * 1024 * 1024;
/// Tags a client's routing table holds before it first grows: about what
/// a full request ring of fixed-size frames keeps in flight.
const PENDING_TAGS: usize = 1024;

thread_local! {
    /// This thread's request-encode buffer: [`RpcClient::submit_encoded`]
    /// builds the frame here, stamps it, and copies it once, into ring
    /// memory.
    static FRAME: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
}

/// One co-processor's RPC plumbing for a service (FS or network).
pub struct Channel {
    /// Data-plane sends requests here.
    pub req_tx: Producer,
    /// Control plane drains requests here.
    pub req_rx: Consumer,
    /// Control plane sends replies here.
    pub resp_tx: Producer,
    /// Data-plane drains replies here.
    pub resp_rx: Consumer,
    /// The request ring itself, retained so a link reset can re-initialize
    /// it and mint fresh endpoints.
    pub req_ring: Arc<RingBuf>,
    /// The response ring itself (see `req_ring`).
    pub resp_ring: Arc<RingBuf>,
}

impl Channel {
    /// Builds the request/response pair with masters at the co-processor
    /// (§4.3.1).
    pub fn new(counters: Arc<PcieCounters>) -> Channel {
        let req = Arc::new(RingBuf::new(
            RingConfig::over_pcie(RPC_RING_BYTES, Side::Coproc, Side::Coproc, Side::Host),
            Arc::clone(&counters),
        ));
        let resp = Arc::new(RingBuf::new(
            RingConfig::over_pcie(RPC_RING_BYTES, Side::Coproc, Side::Host, Side::Coproc),
            counters,
        ));
        let (req_tx, req_rx) = req.endpoints();
        let (resp_tx, resp_rx) = resp.endpoints();
        Channel {
            req_tx,
            req_rx,
            resp_tx,
            resp_rx,
            req_ring: req,
            resp_ring: resp,
        }
    }
}

/// Builds the inbound event ring: master at the host, consumed by the
/// co-processor (§4.4.1).
pub fn event_ring(counters: Arc<PcieCounters>) -> (Producer, Consumer) {
    RingBuf::new(
        RingConfig::over_pcie(EVENT_RING_BYTES, Side::Host, Side::Host, Side::Coproc),
        counters,
    )
    .endpoints()
}

/// State of one in-flight tag in the routing table.
enum Slot {
    /// Submitted; no reply yet.
    Waiting,
    /// Reply arrived (already credit-settled) and awaits its waiter.
    Ready(Vec<u8>),
    /// The token was dropped before its reply arrived; the reply is
    /// discarded (and the slot removed) by whichever waiter drains it.
    Abandoned,
}

/// The tag-routing table and flow-control state shared between the client
/// and its outstanding [`Token`]s.
struct Shared {
    pending: Mutex<IntMap<u32, Slot>>,
    /// What spinning on this client's response ring has earned.
    spin: SpinBudget,
    /// QoS backpressure: when present, each submission holds one in-flight
    /// credit from submit until its reply arrives, and replies carry
    /// window updates from the proxy.
    credits: Option<Arc<CreditPool>>,
}

impl Shared {
    /// Applies the credit `grant` piggybacked on an arrived reply and
    /// releases the in-flight slot taken at submit time. Called exactly
    /// once per reply, at arrival.
    fn settle_credit(&self, grant: u8) {
        if let Some(pool) = &self.credits {
            pool.complete(grant);
        }
    }

    /// Forgets a tag whose token was dropped before completion. If the
    /// reply already arrived the slot is simply removed (its credit was
    /// settled at arrival); otherwise the slot is marked abandoned so the
    /// eventual reply settles the credit instead of leaking it.
    fn abandon(&self, tag: u32) {
        if let Entry::Occupied(mut slot) = self.pending.lock().entry(tag) {
            match slot.get() {
                Slot::Waiting | Slot::Abandoned => *slot.get_mut() = Slot::Abandoned,
                Slot::Ready(_) => drop(slot.remove()),
            }
        }
    }
}

/// A handle to one in-flight submission.
///
/// Obtained from [`RpcClient::submit`]; redeemed exactly once through
/// [`RpcClient::wait`], [`RpcClient::wait_any`], or [`RpcClient::poll`].
/// Dropping an unredeemed token abandons the tag: the eventual reply is
/// discarded and its flow-control credit returned, so a caller that gives
/// up early leaks nothing.
#[must_use = "a submission completes only when its token is waited on"]
#[derive(Debug)]
pub struct Token {
    tag: u32,
    shared: Weak<Shared>,
    done: Cell<bool>,
}

impl Token {
    /// The wire tag of this submission.
    pub fn tag(&self) -> u32 {
        self.tag
    }

    /// True once the token has been redeemed by `wait`/`wait_any`/`poll`.
    pub fn is_done(&self) -> bool {
        self.done.get()
    }
}

impl Drop for Token {
    fn drop(&mut self) {
        if !self.done.get() {
            if let Some(shared) = self.shared.upgrade() {
                shared.abandon(self.tag);
            }
        }
    }
}

/// Message type used for locally synthesized error completions when no
/// service-specific error encoder is installed (see
/// [`RpcClient::set_error_encoder`]). The body is the little-endian
/// [`RpcErr::code`].
pub const MSG_DRAIN_ERR: u8 = 0xEE;

/// What a [`RpcClient::link_reset`] did, for recovery telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResetReport {
    /// In-flight requests drained with a synthesized error completion.
    pub drained: usize,
    /// Flow-control credits returned to the pool during the drain.
    pub credits_scrubbed: usize,
    /// True when the underlying rings were re-initialized and fresh
    /// endpoints minted (requires [`RpcClient::with_link`]).
    pub ring_reset: bool,
}

/// Builds a service-specific error completion frame for a (tag, error)
/// pair during a drain; installed via [`RpcClient::set_error_encoder`].
type ErrEncoder = Box<dyn Fn(u32, RpcErr) -> Vec<u8> + Send>;

/// What a failed enqueue means to the submitter.
fn ring_err(e: RingError) -> RpcErr {
    match e {
        RingError::WouldBlock => RpcErr::WouldBlock,
        RingError::TooBig => RpcErr::TooLarge,
        RingError::Corrupt => RpcErr::Gone,
    }
}

/// A tag-routing RPC client shared by data-plane threads: a non-blocking
/// submission half and a completion half over one shared ring pair.
pub struct RpcClient {
    tx: RwLock<Producer>,
    rx: RwLock<Consumer>,
    /// The rings behind `tx`/`rx`, when the owner handed them over so
    /// [`RpcClient::link_reset`] can re-initialize the link in place.
    rings: Option<(Arc<RingBuf>, Arc<RingBuf>)>,
    /// Builds service-specific error completions for drained requests;
    /// falls back to a bare [`MSG_DRAIN_ERR`] frame when unset.
    err_encoder: Mutex<Option<ErrEncoder>>,
    next_tag: AtomicU32,
    /// Tenant id stamped into every submitted frame (0 = default tenant,
    /// which proxies treat exactly as the pre-tenant wire format).
    tenant: AtomicU8,
    /// The response ring's doorbell: parked waiters sleep on it.
    bell: Arc<Doorbell>,
    shared: Arc<Shared>,
}

impl RpcClient {
    /// Wraps a request producer and response consumer.
    pub fn new(tx: Producer, rx: Consumer) -> Arc<Self> {
        Self::with_credits(tx, rx, None)
    }

    /// Wraps a ring pair with an optional QoS credit pool limiting
    /// in-flight requests.
    pub fn with_credits(tx: Producer, rx: Consumer, credits: Option<Arc<CreditPool>>) -> Arc<Self> {
        Self::build(tx, rx, credits, None)
    }

    /// As [`RpcClient::with_credits`], additionally retaining the rings
    /// behind the endpoints so [`RpcClient::link_reset`] can re-initialize
    /// them after a peer failure.
    pub fn with_link(
        tx: Producer,
        rx: Consumer,
        credits: Option<Arc<CreditPool>>,
        req_ring: Arc<RingBuf>,
        resp_ring: Arc<RingBuf>,
    ) -> Arc<Self> {
        Self::build(tx, rx, credits, Some((req_ring, resp_ring)))
    }

    fn build(
        tx: Producer,
        rx: Consumer,
        credits: Option<Arc<CreditPool>>,
        rings: Option<(Arc<RingBuf>, Arc<RingBuf>)>,
    ) -> Arc<Self> {
        Arc::new(Self {
            bell: rx.doorbell(),
            tx: RwLock::new(tx),
            rx: RwLock::new(rx),
            rings,
            err_encoder: Mutex::new(None),
            next_tag: AtomicU32::new(1),
            tenant: AtomicU8::new(0),
            shared: Arc::new(Shared {
                pending: Mutex::new(IntMap::with_capacity_and_hasher(
                    PENDING_TAGS,
                    Default::default(),
                )),
                spin: SpinBudget::new(),
                credits,
            }),
        })
    }

    /// Installs the closure that encodes error completions for requests
    /// drained by [`RpcClient::link_reset`] — e.g. an FS client installs
    /// one producing `FsResponse::Error` frames so waiters decode the
    /// drain like any proxy-originated failure.
    pub fn set_error_encoder(&self, f: impl Fn(u32, RpcErr) -> Vec<u8> + Send + 'static) {
        *self.err_encoder.lock() = Some(Box::new(f));
    }

    /// Synthesizes the error completion for a drained tag.
    fn error_frame(&self, tag: u32, err: RpcErr) -> Vec<u8> {
        match &*self.err_encoder.lock() {
            Some(f) => f(tag, err),
            None => encode_frame(MSG_DRAIN_ERR, tag, &err.code().to_le_bytes()),
        }
    }

    /// Allocates a tag for one call.
    pub fn tag(&self) -> u32 {
        self.next_tag.fetch_add(1, Ordering::Relaxed)
    }

    /// This client's credit pool, if flow control is enabled.
    pub fn credits(&self) -> Option<&Arc<CreditPool>> {
        self.shared.credits.as_ref()
    }

    /// Sets the tenant id stamped into subsequent submissions.
    pub fn set_tenant(&self, tenant: u8) {
        self.tenant.store(tenant, Ordering::Relaxed);
    }

    /// The tenant id currently stamped into submissions.
    pub fn tenant(&self) -> u8 {
        self.tenant.load(Ordering::Relaxed)
    }

    /// Number of tags in the routing table (in-flight + unredeemed).
    /// Exposed for leak assertions in tests.
    pub fn pending_len(&self) -> usize {
        self.shared.pending.lock().len()
    }

    /// Doorbell rings delivered so far as `(to the proxy serving the
    /// request ring, to this client's parked waiters)` — how often each
    /// side was found asleep, for tests and tools.
    pub fn doorbell_rings(&self) -> (u64, u64) {
        (self.tx.read().doorbell().rings(), self.bell.rings())
    }

    /// A sleeper for one wait on this client's response ring.
    fn sleeper(&self) -> Sleeper<'_> {
        Sleeper::new(WaitPolicy::new(&self.shared.spin), &self.bell)
    }

    /// Drains one reply from the ring, routing it to its tag's slot.
    ///
    /// Returns `Ok(Some(take(reply)))` only when the reply matches `want`
    /// (fast path: lent to the caller where the ring staged it, slot
    /// removed). `Ok(None)` means some other tag progressed; `Err` means
    /// the ring had nothing ready. Credits settle here, on arrival, so a
    /// submitter blocked on the credit window can free credits by pumping.
    fn pump<R>(
        &self,
        want: Option<u32>,
        take: impl FnOnce(&[u8]) -> R,
    ) -> Result<Option<R>, RingError> {
        enum Routed<R> {
            Mine(R),
            /// Handed to another waiter's slot.
            Sibling,
            Nobody,
        }
        let routed = self.rx.read().recv_with(|reply| {
            let (rtag, grant) = decode_frame(reply)
                .map(|f| (f.tag, f.credit))
                .unwrap_or((0, 0));
            let mut g = self.shared.pending.lock();
            if Some(rtag) == want {
                g.remove(&rtag);
                drop(g);
                self.shared.settle_credit(grant);
                return Routed::Mine(take(reply));
            }
            let Entry::Occupied(mut slot) = g.entry(rtag) else {
                // Unknown tag: nobody owns it; drop the reply without
                // touching the credit ledger.
                return Routed::Nobody;
            };
            let routed = match slot.get() {
                Slot::Waiting => {
                    *slot.get_mut() = Slot::Ready(reply.to_vec());
                    Routed::Sibling
                }
                Slot::Abandoned => {
                    slot.remove();
                    Routed::Nobody
                }
                // A duplicate is dropped like an unknown tag.
                Slot::Ready(_) => return Routed::Nobody,
            };
            drop(g);
            self.shared.settle_credit(grant);
            routed
        })?;
        Ok(match routed {
            Routed::Mine(r) => Some(r),
            Routed::Sibling => {
                // The owner may be parked on the bell this reply's
                // publish already rang (and this thread answered).
                self.bell.ring();
                None
            }
            Routed::Nobody => None,
        })
    }

    /// Drains every reply currently available on the ring, routing each.
    /// Returns how many replies were routed.
    pub fn drain_now(&self) -> usize {
        let mut n = 0;
        while let Ok(None) = self.pump(None, |_| ()) {
            n += 1;
        }
        n
    }

    /// Takes `tag`'s stashed reply if one has been routed to it.
    fn take_ready(&self, tag: u32) -> Option<Vec<u8>> {
        match self.shared.pending.lock().entry(tag) {
            Entry::Occupied(slot) if matches!(slot.get(), Slot::Ready(_)) => match slot.remove() {
                Slot::Ready(reply) => Some(reply),
                _ => unreachable!("checked Ready under the lock"),
            },
            _ => None,
        }
    }

    fn mint_token(&self, tag: u32) -> Token {
        Token {
            tag,
            shared: Arc::downgrade(&self.shared),
            done: Cell::new(false),
        }
    }

    /// Acquires one in-flight credit, pumping the completion ring while
    /// the window is closed so a single thread with a deep queue cannot
    /// deadlock against its own unharvested completions.
    fn acquire_credit_pumping(&self, pool: &CreditPool) {
        let mut sleeper = self.sleeper();
        while !pool.try_acquire() {
            match self.pump(None, |_| ()) {
                Ok(_) => sleeper.progress(),
                // Credits come back on replies, so the response ring's
                // doorbell is what ends this wait.
                Err(_) => sleeper.idle(),
            }
        }
    }

    fn prep_frame(&self, frame: &mut [u8], flags: u8) {
        if flags != 0 {
            stamp_flags(frame, flags);
        }
        let tenant = self.tenant.load(Ordering::Relaxed);
        if tenant != 0 {
            stamp_tenant(frame, tenant);
        }
    }

    /// Cleans up after an enqueue failure: the tag leaves the routing
    /// table and the credit taken at submit is returned, so a shed or
    /// full-ring submission never leaks either.
    fn scrub_failed_submit(&self, tag: u32) {
        self.shared.pending.lock().remove(&tag);
        if let Some(pool) = &self.shared.credits {
            pool.complete(0);
        }
    }

    /// Stamps `frame` where it lies and copies it into ring memory.
    fn do_submit(
        &self,
        tag: u32,
        frame: &mut [u8],
        flags: u8,
        block: bool,
    ) -> Result<Token, RpcErr> {
        if let Some(pool) = &self.shared.credits {
            if block {
                self.acquire_credit_pumping(pool);
            } else if !pool.try_acquire() {
                return Err(RpcErr::Overloaded);
            }
        }
        self.prep_frame(frame, flags);
        self.shared.pending.lock().insert(tag, Slot::Waiting);
        let sent = {
            let tx = self.tx.read();
            if block {
                tx.send_blocking(frame)
            } else {
                // Bounded retries: spin and yield through one escalation of
                // the wait policy, then report the ring full.
                let mut policy = WaitPolicy::new(&self.shared.spin);
                loop {
                    match tx.send(frame) {
                        Err(RingError::WouldBlock) => {
                            if policy.pause().is_some() {
                                break Err(RingError::WouldBlock);
                            }
                        }
                        other => break other,
                    }
                }
            }
        };
        match sent {
            Ok(()) => Ok(self.mint_token(tag)),
            Err(e) => {
                self.scrub_failed_submit(tag);
                Err(ring_err(e))
            }
        }
    }

    /// Enqueues an encoded frame (which must carry `tag`) without waiting
    /// for the reply.
    ///
    /// Acquires a flow-control credit when QoS is enabled (pumping the
    /// completion ring while the window is closed). Fails with
    /// [`RpcErr::WouldBlock`] if the request ring stays full through the
    /// retry policy — in that case the tag and credit are fully released.
    pub fn submit(&self, tag: u32, mut frame: Vec<u8>) -> Result<Token, RpcErr> {
        self.do_submit(tag, &mut frame, 0, false)
    }

    /// Mints a tag, has `encode` build that tag's frame in this thread's
    /// reusable buffer, and enqueues it as [`RpcClient::submit`] would
    /// (`block`: as [`RpcClient::submit_blocking`]) — a stub's fixed-size
    /// request costs no allocation.
    pub fn submit_encoded(
        &self,
        block: bool,
        encode: impl FnOnce(u32, &mut Vec<u8>),
    ) -> Result<Token, RpcErr> {
        let tag = self.tag();
        // Taken, not borrowed: an `encode` that itself submits starts
        // from an empty buffer instead of failing.
        let mut frame = FRAME.take();
        frame.clear();
        encode(tag, &mut frame);
        let submitted = self.do_submit(tag, &mut frame, 0, block);
        FRAME.set(frame);
        submitted
    }

    /// As [`RpcClient::submit`], stamping submission `flags`
    /// (e.g. [`solros_proto::codec::FLAG_BARRIER`]) into the frame.
    pub fn submit_with_flags(
        &self,
        tag: u32,
        mut frame: Vec<u8>,
        flags: u8,
    ) -> Result<Token, RpcErr> {
        self.do_submit(tag, &mut frame, flags, false)
    }

    /// As [`RpcClient::submit`], stamping a per-request deadline into the
    /// flags byte (§[`solros_proto::codec::deadline_class`]) so the proxy
    /// can shed the request once it is already too late to matter. Pair
    /// with [`RpcClient::wait_timeout`] using the same duration for
    /// end-to-end deadline enforcement.
    pub fn submit_with_deadline(
        &self,
        tag: u32,
        mut frame: Vec<u8>,
        deadline: Duration,
    ) -> Result<Token, RpcErr> {
        let flags = flags_with_deadline(0, deadline_class(deadline));
        self.do_submit(tag, &mut frame, flags, false)
    }

    /// As [`RpcClient::submit`], but refuses immediately with
    /// [`RpcErr::Overloaded`] when no flow-control credit is available
    /// instead of waiting for the window to open.
    pub fn try_submit(&self, tag: u32, mut frame: Vec<u8>) -> Result<Token, RpcErr> {
        if let Some(pool) = &self.shared.credits {
            if !pool.try_acquire() {
                return Err(RpcErr::Overloaded);
            }
            // Hand the acquired credit to the common path by releasing it
            // and re-acquiring: cheaper to inline the send here.
            pool.complete(0);
        }
        self.do_submit(tag, &mut frame, 0, false)
    }

    /// As [`RpcClient::submit`], spinning until ring space frees up; only
    /// an oversized frame can fail. Used by the synchronous [`call`] path.
    ///
    /// [`call`]: RpcClient::call
    pub fn submit_blocking(&self, tag: u32, mut frame: Vec<u8>) -> Result<Token, RpcErr> {
        self.do_submit(tag, &mut frame, 0, true)
    }

    /// Enqueues a whole wave of submissions — frame `i` of `wave` must
    /// carry `tags[i]` — with **one** request-ring publish (and at most
    /// one doorbell ring), so the proxy can never observe a partial wave:
    /// how much it coalesces does not depend on how the submitter and the
    /// proxy interleave. The tenant id is stamped into the frames where
    /// they lie; flags are the caller's to stamp.
    ///
    /// Credits are taken per frame exactly as [`RpcClient::submit`] does
    /// (no waiting: a closed window truncates the wave there). Returns
    /// one token per accepted frame, in order — a prefix of the wave when
    /// the window or the ring ran out partway; the unsent tail is
    /// scrubbed like a failed `submit` (tags forgotten, credits
    /// returned). Fails only when nothing at all was accepted.
    ///
    /// # Panics
    ///
    /// Panics if `tags` and `wave` differ in length.
    pub fn submit_wave(&self, tags: &[u32], wave: &mut Wave) -> Result<Vec<Token>, RpcErr> {
        assert_eq!(tags.len(), wave.len(), "one tag per frame");
        let mut offered = 0;
        {
            let mut g = self.shared.pending.lock();
            for (i, &tag) in tags.iter().enumerate() {
                if let Some(pool) = &self.shared.credits {
                    if !pool.try_acquire() {
                        break;
                    }
                }
                self.prep_frame(wave.frame_mut(i), 0);
                g.insert(tag, Slot::Waiting);
                offered += 1;
            }
        }
        if offered == 0 {
            return Err(RpcErr::Overloaded);
        }
        // A wave the ring has no room for is retried whole or in part
        // through one escalation of the wait policy, like `submit`.
        let mut sent = 0;
        let mut err = RingError::WouldBlock;
        let mut policy = WaitPolicy::new(&self.shared.spin);
        {
            let tx = self.tx.read();
            while sent < offered {
                // Frames past the credit window are not offered.
                match tx.send_wave(wave, sent..offered) {
                    Ok(0) => {
                        if policy.pause().is_some() {
                            break;
                        }
                    }
                    Ok(n) => {
                        sent += n;
                        policy.reset();
                    }
                    Err(e) => {
                        err = e;
                        break;
                    }
                }
            }
        }
        for &tag in &tags[sent..offered] {
            self.scrub_failed_submit(tag);
        }
        if sent == 0 {
            return Err(ring_err(err));
        }
        Ok(tags[..sent].iter().map(|&t| self.mint_token(t)).collect())
    }

    /// [`RpcClient::submit_wave`] for `(tag, frame)` pairs the caller
    /// holds as owned vectors.
    pub fn submit_batch(&self, frames: Vec<(u32, Vec<u8>)>) -> Result<Vec<Token>, RpcErr> {
        let (tags, frames): (Vec<u32>, Vec<Vec<u8>>) = frames.into_iter().unzip();
        self.submit_wave(&tags, &mut Wave::of(&frames))
    }

    /// Blocks until `token`'s reply arrives and returns it. Replies for
    /// other tags drained along the way are handed to their waiters.
    ///
    /// # Panics
    ///
    /// Panics if the token was already redeemed.
    pub fn wait(&self, token: Token) -> Vec<u8> {
        self.wait_with(token, <[u8]>::to_vec)
    }

    /// As [`RpcClient::wait`], lending the reply to `decode` instead of
    /// returning it: a reply this thread drains itself is decoded where
    /// the ring staged it and never copied.
    ///
    /// # Panics
    ///
    /// Panics if the token was already redeemed.
    pub fn wait_with<R>(&self, token: Token, decode: impl FnOnce(&[u8]) -> R) -> R {
        assert!(!token.done.get(), "token redeemed twice");
        let tag = token.tag;
        token.done.set(true);
        let mut decode = Some(decode);
        let mut sleeper = self.sleeper();
        loop {
            let mut lend = |reply: &[u8]| decode.take().expect("one reply per tag")(reply);
            if let Some(reply) = self.take_ready(tag) {
                return lend(&reply);
            }
            match self.pump(Some(tag), lend) {
                Ok(Some(decoded)) => return decoded,
                Ok(None) => sleeper.progress(),
                // Past the spin and yield bands this arms the response
                // ring's doorbell, comes round once more (the re-check of
                // slot and ring), then parks until the proxy's publish or
                // a sibling routing our reply rings it.
                Err(_) => sleeper.idle(),
            }
        }
    }

    /// As [`RpcClient::wait`], but gives up once `timeout` elapses.
    ///
    /// On expiry the token is consumed and its tag abandoned: the late
    /// reply (if one ever arrives) is discarded by whichever waiter
    /// drains it, and the flow-control credit settles then — exactly the
    /// dropped-token path, so an expired request leaks nothing. Returns
    /// [`RpcErr::Timeout`]. This is also the stub-crash detector: a
    /// deadline expiring on a quiet link is the signal to escalate to
    /// [`RpcClient::link_reset`].
    pub fn wait_timeout(&self, token: Token, timeout: Duration) -> Result<Vec<u8>, RpcErr> {
        assert!(!token.done.get(), "token redeemed twice");
        let tag = token.tag;
        token.done.set(true);
        let deadline = Instant::now() + timeout;
        let mut sleeper = self.sleeper();
        loop {
            if let Some(reply) = self.take_ready(tag) {
                return Ok(reply);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                self.shared.abandon(tag);
                return Err(RpcErr::Timeout);
            }
            match self.pump(Some(tag), <[u8]>::to_vec) {
                Ok(Some(reply)) => return Ok(reply),
                Ok(None) => sleeper.progress(),
                Err(_) => sleeper.idle_for(left),
            }
        }
    }

    /// Blocks until any of `tokens` completes; returns the index of the
    /// completed token and its reply, and marks that token redeemed
    /// (tokens already redeemed are skipped).
    ///
    /// # Panics
    ///
    /// Panics if every token in `tokens` was already redeemed.
    pub fn wait_any(&self, tokens: &[Token]) -> (usize, Vec<u8>) {
        assert!(
            tokens.iter().any(|t| !t.done.get()),
            "wait_any needs at least one unredeemed token"
        );
        let mut sleeper = self.sleeper();
        loop {
            for (i, t) in tokens.iter().enumerate() {
                if t.done.get() {
                    continue;
                }
                if let Some(reply) = self.take_ready(t.tag) {
                    t.done.set(true);
                    return (i, reply);
                }
            }
            match self.pump(None, |_| ()) {
                Ok(_) => sleeper.progress(),
                Err(_) => sleeper.idle(),
            }
        }
    }

    /// Non-blocking completion check: drains whatever the ring has and
    /// returns `token`'s reply if it has arrived (marking the token
    /// redeemed), or `None` if it is still in flight or already redeemed.
    pub fn poll(&self, token: &Token) -> Option<Vec<u8>> {
        if token.done.get() {
            return None;
        }
        self.drain_now();
        let reply = self.take_ready(token.tag)?;
        token.done.set(true);
        Some(reply)
    }

    /// Sends an encoded frame (which must carry `tag`) and blocks until
    /// the matching reply arrives: `wait(submit(..))`.
    ///
    /// # Panics
    ///
    /// Panics if the frame exceeds the ring element limit.
    pub fn call(&self, tag: u32, frame: Vec<u8>) -> Vec<u8> {
        let token = self
            .submit_blocking(tag, frame)
            .expect("RPC frame exceeds ring element limit");
        self.wait(token)
    }

    /// [`RpcClient::call`] without the owned frames:
    /// `wait_with(submit_encoded(..), decode)`.
    ///
    /// # Panics
    ///
    /// Panics if the frame exceeds the ring element limit.
    pub fn call_with<R>(
        &self,
        encode: impl FnOnce(u32, &mut Vec<u8>),
        decode: impl FnOnce(&[u8]) -> R,
    ) -> R {
        let token = self
            .submit_encoded(true, encode)
            .expect("RPC frame exceeds ring element limit");
        self.wait_with(token, decode)
    }

    /// Recovers the link after a peer failure (stub crash, wedged or
    /// corrupted ring): *drain → scrub → reset*.
    ///
    /// Every tag still waiting receives a synthesized error completion
    /// carrying `err` (built by the installed error encoder), so blocked
    /// waiters wake with a decodable failure instead of hanging; abandoned
    /// tags are removed outright. Each drained or removed tag returns its
    /// flow-control credit — replies that already arrived settled theirs
    /// at arrival and are left untouched. Finally, when the client owns
    /// its rings ([`RpcClient::with_link`]), both are re-initialized to
    /// empty and fresh endpoints minted, discarding whatever garbage the
    /// dead peer left mid-publish. The peer must mint fresh endpoints of
    /// its own (the old ones hold stale replicated control state).
    ///
    /// Callers in [`RpcClient::submit_blocking`]/[`RpcClient::call`] may
    /// hold the link open; quiesce them first or the reset blocks until
    /// their send completes.
    pub fn link_reset(&self, err: RpcErr) -> ResetReport {
        let mut report = ResetReport::default();
        {
            let mut g = self.shared.pending.lock();
            let tags: Vec<u32> = g.keys().copied().collect();
            for tag in tags {
                match g.get(&tag) {
                    Some(Slot::Waiting) => {
                        let frame = self.error_frame(tag, err);
                        g.insert(tag, Slot::Ready(frame));
                        report.drained += 1;
                        report.credits_scrubbed += 1;
                    }
                    Some(Slot::Abandoned) => {
                        g.remove(&tag);
                        report.credits_scrubbed += 1;
                    }
                    Some(Slot::Ready(_)) | None => {}
                }
            }
        }
        if let Some(pool) = &self.shared.credits {
            for _ in 0..report.credits_scrubbed {
                pool.complete(0);
            }
        }
        self.bell.ring();
        if let Some((req, resp)) = &self.rings {
            let mut tx = self.tx.write();
            let mut rx = self.rx.write();
            req.reset();
            resp.reset();
            *tx = req.producer();
            *rx = resp.consumer();
            report.ring_reset = true;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solros_proto::fs_msg::{FsRequest, FsResponse};

    #[test]
    fn rpc_roundtrip_single_thread() {
        let counters = Arc::new(PcieCounters::new());
        let ch = Channel::new(counters);
        let client = RpcClient::new(ch.req_tx, ch.resp_rx);

        // A trivial echo proxy on another thread.
        let req_rx = ch.req_rx;
        let resp_tx = ch.resp_tx;
        let proxy = std::thread::spawn(move || {
            for _ in 0..3 {
                let frame = loop {
                    match req_rx.recv() {
                        Ok(f) => break f,
                        Err(_) => std::thread::yield_now(),
                    }
                };
                let (tag, req) = FsRequest::decode(&frame).unwrap();
                let resp = match req {
                    FsRequest::Fstat { ino } => FsResponse::Stat {
                        ino,
                        is_dir: false,
                        size: ino * 10,
                    },
                    _ => FsResponse::Ok,
                };
                resp_tx.send_blocking(&resp.encode(tag)).unwrap();
            }
        });

        for ino in 1..=3u64 {
            let tag = client.tag();
            let reply = client.call(tag, FsRequest::Fstat { ino }.encode(tag));
            let (rtag, resp) = FsResponse::decode(&reply).unwrap();
            assert_eq!(rtag, tag);
            assert_eq!(
                resp,
                FsResponse::Stat {
                    ino,
                    is_dir: false,
                    size: ino * 10
                }
            );
        }
        proxy.join().unwrap();
        assert_eq!(client.pending_len(), 0);
    }

    #[test]
    fn concurrent_callers_get_their_own_replies() {
        let counters = Arc::new(PcieCounters::new());
        let ch = Channel::new(counters);
        let client = RpcClient::new(ch.req_tx, ch.resp_rx);

        let req_rx = ch.req_rx;
        let resp_tx = ch.resp_tx;
        let total = 8 * 200;
        let proxy = std::thread::spawn(move || {
            let mut served = 0;
            let mut stash: Vec<(u32, FsRequest)> = Vec::new();
            let flush = |stash: &mut Vec<(u32, FsRequest)>, served: &mut i32| {
                // Reply in reverse order to stress tag routing.
                stash.reverse();
                for (tag, req) in stash.drain(..) {
                    let ino = match req {
                        FsRequest::Fstat { ino } => ino,
                        _ => 0,
                    };
                    resp_tx
                        .send_blocking(
                            &FsResponse::Stat {
                                ino,
                                is_dir: false,
                                size: ino ^ 0xABCD,
                            }
                            .encode(tag),
                        )
                        .unwrap();
                    *served += 1;
                }
            };
            while served < total {
                match req_rx.recv() {
                    Ok(f) => {
                        let (tag, req) = FsRequest::decode(&f).unwrap();
                        stash.push((tag, req));
                        if stash.len() >= 4 {
                            flush(&mut stash, &mut served);
                        }
                    }
                    Err(_) => {
                        if stash.is_empty() {
                            std::thread::yield_now();
                        } else {
                            flush(&mut stash, &mut served);
                        }
                    }
                }
            }
        });

        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let client = Arc::clone(&client);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let ino = t * 1_000 + i;
                        let tag = client.tag();
                        let reply = client.call(tag, FsRequest::Fstat { ino }.encode(tag));
                        let (rtag, resp) = FsResponse::decode(&reply).unwrap();
                        assert_eq!(rtag, tag);
                        assert_eq!(
                            resp,
                            FsResponse::Stat {
                                ino,
                                is_dir: false,
                                size: ino ^ 0xABCD
                            }
                        );
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        proxy.join().unwrap();
        assert_eq!(client.pending_len(), 0);
    }

    #[test]
    fn replies_update_credit_window() {
        let counters = Arc::new(PcieCounters::new());
        let ch = Channel::new(counters);
        let pool = Arc::new(CreditPool::new(8));
        let client = RpcClient::with_credits(ch.req_tx, ch.resp_rx, Some(Arc::clone(&pool)));

        let req_rx = ch.req_rx;
        let resp_tx = ch.resp_tx;
        // A proxy that advertises a shrinking, then recovering, window.
        let proxy = std::thread::spawn(move || {
            for window in [3u8, 1, 5] {
                let frame = loop {
                    match req_rx.recv() {
                        Ok(f) => break f,
                        Err(_) => std::thread::yield_now(),
                    }
                };
                let (tag, _req) = FsRequest::decode(&frame).unwrap();
                let mut reply = FsResponse::Ok.encode(tag);
                solros_proto::codec::stamp_credit(&mut reply, window);
                resp_tx.send_blocking(&reply).unwrap();
            }
        });

        for expect in [3u32, 1, 5] {
            let tag = client.tag();
            client.call(tag, FsRequest::Fsync { ino: 1 }.encode(tag));
            let (in_flight, window) = pool.levels();
            assert_eq!(in_flight, 0);
            assert_eq!(window, expect);
        }
        proxy.join().unwrap();
    }

    #[test]
    fn pipelined_submissions_complete_out_of_order() {
        let counters = Arc::new(PcieCounters::new());
        let ch = Channel::new(counters);
        let client = RpcClient::new(ch.req_tx, ch.resp_rx);

        // Proxy collects all requests, then replies in reverse order.
        let req_rx = ch.req_rx;
        let resp_tx = ch.resp_tx;
        let depth = 16u64;
        let proxy = std::thread::spawn(move || {
            let mut got = Vec::new();
            while got.len() < depth as usize {
                match req_rx.recv() {
                    Ok(f) => got.push(FsRequest::decode(&f).unwrap()),
                    Err(_) => std::thread::yield_now(),
                }
            }
            for (tag, req) in got.into_iter().rev() {
                let ino = match req {
                    FsRequest::Fstat { ino } => ino,
                    _ => 0,
                };
                resp_tx
                    .send_blocking(
                        &FsResponse::Stat {
                            ino,
                            is_dir: false,
                            size: ino + 7,
                        }
                        .encode(tag),
                    )
                    .unwrap();
            }
        });

        let mut tokens = Vec::new();
        let mut inos = Vec::new();
        for ino in 0..depth {
            let tag = client.tag();
            tokens.push(
                client
                    .submit(tag, FsRequest::Fstat { ino }.encode(tag))
                    .unwrap(),
            );
            inos.push(ino);
        }
        // Harvest half via wait_any, the rest via wait, in any order.
        for _ in 0..depth / 2 {
            let (i, reply) = client.wait_any(&tokens);
            let (_, resp) = FsResponse::decode(&reply).unwrap();
            assert_eq!(
                resp,
                FsResponse::Stat {
                    ino: inos[i],
                    is_dir: false,
                    size: inos[i] + 7
                }
            );
        }
        for (i, t) in tokens.into_iter().enumerate() {
            if t.is_done() {
                continue;
            }
            let reply = client.wait(t);
            let (_, resp) = FsResponse::decode(&reply).unwrap();
            assert_eq!(
                resp,
                FsResponse::Stat {
                    ino: inos[i],
                    is_dir: false,
                    size: inos[i] + 7
                }
            );
        }
        proxy.join().unwrap();
        assert_eq!(client.pending_len(), 0);
    }

    #[test]
    fn failed_enqueue_scrubs_tag_and_returns_credit() {
        // No proxy: nothing drains the request ring, so submissions
        // eventually fail with a full ring. The failures must leave no
        // trace in the pending map and no held credits.
        let counters = Arc::new(PcieCounters::new());
        let ch = Channel::new(counters);
        let pool = Arc::new(CreditPool::new(u32::MAX));
        let client = RpcClient::with_credits(ch.req_tx, ch.resp_rx, Some(Arc::clone(&pool)));

        let mut ok = 0u32;
        let mut failed = 0u32;
        let mut tokens = Vec::new();
        while failed < 8 {
            let tag = client.tag();
            let frame = FsRequest::Fstat { ino: 1 }.encode(tag);
            match client.submit(tag, frame) {
                Ok(t) => {
                    ok += 1;
                    tokens.push(t);
                }
                Err(e) => {
                    assert_eq!(e, RpcErr::WouldBlock);
                    failed += 1;
                }
            }
            assert!(ok < 100_000, "ring never filled");
        }
        // Only the successful submissions remain pending, each holding
        // exactly one credit.
        assert_eq!(client.pending_len(), ok as usize);
        assert_eq!(pool.levels().0, ok);

        // A proxy appears and answers everything; the map returns to
        // empty and every credit comes back.
        let req_rx = ch.req_rx;
        let resp_tx = ch.resp_tx;
        let proxy = std::thread::spawn(move || {
            let mut served = 0;
            while served < ok {
                match req_rx.recv() {
                    Ok(f) => {
                        let (tag, _) = FsRequest::decode(&f).unwrap();
                        resp_tx.send_blocking(&FsResponse::Ok.encode(tag)).unwrap();
                        served += 1;
                    }
                    Err(_) => std::thread::yield_now(),
                }
            }
        });
        for t in tokens {
            let reply = client.wait(t);
            let (_, resp) = FsResponse::decode(&reply).unwrap();
            assert_eq!(resp, FsResponse::Ok);
        }
        proxy.join().unwrap();
        assert_eq!(client.pending_len(), 0);
        assert_eq!(pool.levels().0, 0);
    }

    #[test]
    fn caller_chosen_tags_route_and_stray_replies_are_dropped() {
        // The table is keyed by whatever tag the caller put in the frame:
        // sparse, huge, out of order. A reply nobody waits for — a second
        // answer to a redeemed tag, an answer to a tag never submitted —
        // is dropped without touching the credit ledger.
        let counters = Arc::new(PcieCounters::new());
        let ch = Channel::new(counters);
        let pool = Arc::new(CreditPool::new(16));
        let client = RpcClient::with_credits(ch.req_tx, ch.resp_rx, Some(Arc::clone(&pool)));
        let tags = [u32::MAX, 7, 1 << 31, 0, 1 << 16, (1 << 16) + 1024];
        let mut tokens: Vec<Token> = tags
            .iter()
            .map(|&tag| {
                client
                    .submit(tag, FsRequest::Fstat { ino: tag as u64 }.encode(tag))
                    .unwrap()
            })
            .collect();
        assert_eq!(client.pending_len(), tags.len());
        let reply = |tag: u32| {
            let stat = FsResponse::Stat {
                ino: tag as u64,
                is_dir: false,
                size: 1,
            };
            ch.resp_tx.send_blocking(&stat.encode(tag)).unwrap();
        };
        while ch.req_rx.recv().is_ok() {}
        // Answers arrive in reverse, each twice, with strays in between.
        for &tag in tags.iter().rev() {
            reply(tag);
            reply(12345);
            reply(tag);
        }
        // An abandoned tag's (first) answer settles its credit and slot.
        drop(tokens.remove(1));
        for token in tokens {
            let tag = token.tag();
            let (rtag, resp) = FsResponse::decode(&client.wait(token)).unwrap();
            assert_eq!(rtag, tag);
            assert!(matches!(resp, FsResponse::Stat { ino, .. } if ino == tag as u64));
        }
        client.drain_now();
        assert_eq!(client.pending_len(), 0);
        assert_eq!(pool.levels().0, 0, "one credit per submission, no more");
    }

    #[test]
    fn submit_batch_is_one_publish_and_truncates_at_the_window() {
        let counters = Arc::new(PcieCounters::new());
        let ch = Channel::new(counters);
        let pool = Arc::new(CreditPool::new(8));
        let req_tx = ch.req_tx.clone();
        let client = RpcClient::with_credits(ch.req_tx, ch.resp_rx, Some(Arc::clone(&pool)));

        // Twelve frames against a window of eight: the first eight go out
        // as one wave, the tail is never enqueued and leaves no trace.
        let frames: Vec<(u32, Vec<u8>)> = (0..12u64)
            .map(|ino| {
                let tag = client.tag();
                (tag, FsRequest::Fstat { ino }.encode(tag))
            })
            .collect();
        let tags: Vec<u32> = frames.iter().map(|(t, _)| *t).collect();
        let before = req_tx.publishes();
        let tokens = client.submit_batch(frames).unwrap();
        assert_eq!(req_tx.publishes() - before, 1, "one publish per wave");
        assert_eq!(tokens.len(), 8);
        assert!(tokens.iter().map(Token::tag).eq(tags[..8].iter().copied()));
        assert_eq!(client.pending_len(), 8);
        assert_eq!(pool.levels().0, 8);
        // With the window shut a further wave is refused outright.
        let tag = client.tag();
        let err = client
            .submit_batch(vec![(tag, FsRequest::Fstat { ino: 99 }.encode(tag))])
            .unwrap_err();
        assert_eq!(err, RpcErr::Overloaded);
        assert_eq!(client.pending_len(), 8);

        // The proxy sees the whole wave at once and answers it.
        let mut seen = Vec::new();
        while let Ok(f) = ch.req_rx.recv() {
            seen.push(FsRequest::decode(&f).unwrap().0);
        }
        assert_eq!(seen, tags[..8]);
        for &tag in &seen {
            ch.resp_tx
                .send_blocking(&FsResponse::Ok.encode(tag))
                .unwrap();
        }
        for t in tokens {
            let (_, resp) = FsResponse::decode(&client.wait(t)).unwrap();
            assert_eq!(resp, FsResponse::Ok);
        }
        assert_eq!(client.pending_len(), 0);
        assert_eq!(pool.levels().0, 0);
    }

    #[test]
    fn submit_batch_scrubs_the_tail_a_full_ring_refused() {
        // No proxy: the request ring fills, a wave is cut short, and in
        // the end one is refused whole. Neither may leak a tag or credit.
        let counters = Arc::new(PcieCounters::new());
        let ch = Channel::new(counters);
        let pool = Arc::new(CreditPool::new(u32::MAX));
        let client = RpcClient::with_credits(ch.req_tx, ch.resp_rx, Some(Arc::clone(&pool)));
        let mut accepted = 0usize;
        let err = loop {
            let frames: Vec<(u32, Vec<u8>)> = (0..32u64)
                .map(|ino| {
                    let tag = client.tag();
                    (tag, FsRequest::Fstat { ino }.encode(tag))
                })
                .collect();
            match client.submit_batch(frames) {
                Ok(tokens) => {
                    accepted += tokens.len();
                    // Keep the tags in flight: forget the tokens.
                    tokens.into_iter().for_each(std::mem::forget);
                }
                Err(e) => break e,
            }
            assert!(accepted < 100_000, "ring never filled");
        };
        assert_eq!(err, RpcErr::WouldBlock);
        assert_eq!(client.pending_len(), accepted);
        assert_eq!(pool.levels().0 as usize, accepted);
        let mut queued = 0;
        while ch.req_rx.recv().is_ok() {
            queued += 1;
        }
        assert_eq!(queued, accepted, "exactly the accepted frames were sent");
    }

    #[test]
    fn try_submit_without_credit_is_overloaded() {
        let counters = Arc::new(PcieCounters::new());
        let ch = Channel::new(counters);
        let pool = Arc::new(CreditPool::new(1));
        let client = RpcClient::with_credits(ch.req_tx, ch.resp_rx, Some(Arc::clone(&pool)));

        let tag = client.tag();
        let t = client
            .try_submit(tag, FsRequest::Fsync { ino: 1 }.encode(tag))
            .unwrap();
        // Window of 1 is spent; the next try_submit is refused cleanly.
        let tag2 = client.tag();
        let err = client
            .try_submit(tag2, FsRequest::Fsync { ino: 2 }.encode(tag2))
            .unwrap_err();
        assert_eq!(err, RpcErr::Overloaded);
        assert_eq!(client.pending_len(), 1);

        // Answer the in-flight one; the spent credit frees on wait.
        let resp_tx = ch.resp_tx;
        let req_rx = ch.req_rx;
        let f = loop {
            match req_rx.recv() {
                Ok(f) => break f,
                Err(_) => std::thread::yield_now(),
            }
        };
        let (rtag, _) = FsRequest::decode(&f).unwrap();
        resp_tx.send_blocking(&FsResponse::Ok.encode(rtag)).unwrap();
        let _ = client.wait(t);
        assert_eq!(pool.levels().0, 0);
        assert_eq!(client.pending_len(), 0);
    }

    #[test]
    fn dropped_token_abandons_without_leaking() {
        let counters = Arc::new(PcieCounters::new());
        let ch = Channel::new(counters);
        let pool = Arc::new(CreditPool::new(8));
        let client = RpcClient::with_credits(ch.req_tx, ch.resp_rx, Some(Arc::clone(&pool)));

        let tag_a = client.tag();
        let token_a = client
            .submit(tag_a, FsRequest::Fstat { ino: 1 }.encode(tag_a))
            .unwrap();
        drop(token_a); // Abandoned before any reply.
        assert_eq!(client.pending_len(), 1, "abandoned slot awaits its reply");
        assert_eq!(pool.levels().0, 1, "credit still held until the reply");

        // The proxy answers the abandoned tag; a later call drains it.
        let req_rx = ch.req_rx;
        let resp_tx = ch.resp_tx;
        let proxy = std::thread::spawn(move || {
            for _ in 0..2 {
                let f = loop {
                    match req_rx.recv() {
                        Ok(f) => break f,
                        Err(_) => std::thread::yield_now(),
                    }
                };
                let (tag, _) = FsRequest::decode(&f).unwrap();
                resp_tx.send_blocking(&FsResponse::Ok.encode(tag)).unwrap();
            }
        });
        let tag_b = client.tag();
        let _ = client.call(tag_b, FsRequest::Fstat { ino: 2 }.encode(tag_b));
        client.drain_now();
        proxy.join().unwrap();
        client.drain_now();
        assert_eq!(client.pending_len(), 0, "abandoned reply discarded");
        assert_eq!(pool.levels().0, 0, "abandoned credit returned");
    }

    #[test]
    fn tenant_id_rides_the_frame_header() {
        let counters = Arc::new(PcieCounters::new());
        let ch = Channel::new(counters);
        let client = RpcClient::new(ch.req_tx, ch.resp_rx);
        client.set_tenant(3);

        let req_rx = ch.req_rx;
        let resp_tx = ch.resp_tx;
        let proxy = std::thread::spawn(move || {
            let f = loop {
                match req_rx.recv() {
                    Ok(f) => break f,
                    Err(_) => std::thread::yield_now(),
                }
            };
            let frame = decode_frame(&f).unwrap();
            assert_eq!(frame.tenant, 3);
            let (tag, _) = FsRequest::decode(&f).unwrap();
            resp_tx.send_blocking(&FsResponse::Ok.encode(tag)).unwrap();
        });
        let tag = client.tag();
        let _ = client.call(tag, FsRequest::Fsync { ino: 1 }.encode(tag));
        proxy.join().unwrap();
    }

    #[test]
    fn wait_timeout_abandons_and_late_reply_settles() {
        let counters = Arc::new(PcieCounters::new());
        let ch = Channel::new(counters);
        let pool = Arc::new(CreditPool::new(8));
        let client = RpcClient::with_credits(ch.req_tx, ch.resp_rx, Some(Arc::clone(&pool)));

        // No proxy yet: the deadline expires with the request still queued.
        let tag = client.tag();
        let token = client
            .submit(tag, FsRequest::Fstat { ino: 9 }.encode(tag))
            .unwrap();
        let err = client
            .wait_timeout(token, Duration::from_millis(20))
            .unwrap_err();
        assert_eq!(err, RpcErr::Timeout);
        assert_eq!(client.pending_len(), 1, "expired tag awaits its reply");
        assert_eq!(pool.levels().0, 1, "credit held until the late reply");

        // The proxy comes alive late; draining its reply clears the
        // abandoned slot and returns the credit.
        let req_rx = ch.req_rx;
        let resp_tx = ch.resp_tx;
        let proxy = std::thread::spawn(move || {
            let f = loop {
                match req_rx.recv() {
                    Ok(f) => break f,
                    Err(_) => std::thread::yield_now(),
                }
            };
            let (rtag, _) = FsRequest::decode(&f).unwrap();
            resp_tx.send_blocking(&FsResponse::Ok.encode(rtag)).unwrap();
        });
        proxy.join().unwrap();
        while client.pending_len() > 0 {
            client.drain_now();
            std::thread::yield_now();
        }
        assert_eq!(pool.levels().0, 0);
    }

    #[test]
    fn link_reset_drains_scrubs_and_revives_the_link() {
        let counters = Arc::new(PcieCounters::new());
        let ch = Channel::new(counters);
        let pool = Arc::new(CreditPool::new(8));
        let client = RpcClient::with_link(
            ch.req_tx,
            ch.resp_rx,
            Some(Arc::clone(&pool)),
            Arc::clone(&ch.req_ring),
            Arc::clone(&ch.resp_ring),
        );
        client.set_error_encoder(|tag, err| FsResponse::Error { err }.encode(tag));

        // Dead peer: three submissions sit unanswered, one abandoned.
        let mut tokens = Vec::new();
        for ino in 1..=3u64 {
            let tag = client.tag();
            tokens.push(
                client
                    .submit(tag, FsRequest::Fstat { ino }.encode(tag))
                    .unwrap(),
            );
        }
        drop(tokens.pop());
        assert_eq!(pool.levels().0, 3);

        let report = client.link_reset(RpcErr::Gone);
        assert_eq!(report.drained, 2);
        assert_eq!(report.credits_scrubbed, 3);
        assert!(report.ring_reset);
        assert_eq!(pool.levels().0, 0, "every credit scrubbed");

        // Blocked waiters get a decodable error completion.
        for t in tokens {
            let reply = client.wait(t);
            let (_, resp) = FsResponse::decode(&reply).unwrap();
            assert_eq!(resp, FsResponse::Error { err: RpcErr::Gone });
        }
        assert_eq!(client.pending_len(), 0);

        // A replacement peer minted from the rings serves traffic again.
        let req_rx = ch.req_ring.consumer();
        let resp_tx = ch.resp_ring.producer();
        let proxy = std::thread::spawn(move || {
            let f = loop {
                match req_rx.recv() {
                    Ok(f) => break f,
                    Err(_) => std::thread::yield_now(),
                }
            };
            let (rtag, _) = FsRequest::decode(&f).unwrap();
            resp_tx.send_blocking(&FsResponse::Ok.encode(rtag)).unwrap();
        });
        let tag = client.tag();
        let reply = client.call(tag, FsRequest::Fsync { ino: 4 }.encode(tag));
        let (_, resp) = FsResponse::decode(&reply).unwrap();
        assert_eq!(resp, FsResponse::Ok);
        proxy.join().unwrap();
        assert_eq!(client.pending_len(), 0);
        assert_eq!(pool.levels().0, 0);
    }

    #[test]
    fn drain_error_frame_without_encoder_carries_the_code() {
        let counters = Arc::new(PcieCounters::new());
        let ch = Channel::new(counters);
        let client = RpcClient::new(ch.req_tx, ch.resp_rx);
        let tag = client.tag();
        let token = client
            .submit(tag, FsRequest::Fsync { ino: 1 }.encode(tag))
            .unwrap();
        let report = client.link_reset(RpcErr::Gone);
        assert_eq!(report.drained, 1);
        assert!(!report.ring_reset, "no rings attached via with_credits");
        let reply = client.wait(token);
        let frame = decode_frame(&reply).unwrap();
        assert_eq!(frame.msg_type, MSG_DRAIN_ERR);
        let code = u32::from_le_bytes(frame.body[..4].try_into().unwrap());
        assert_eq!(RpcErr::from_code(code), Some(RpcErr::Gone));
    }

    #[test]
    fn deadline_class_rides_submission_flags() {
        let counters = Arc::new(PcieCounters::new());
        let ch = Channel::new(counters);
        let client = RpcClient::new(ch.req_tx, ch.resp_rx);

        let req_rx = ch.req_rx;
        let resp_tx = ch.resp_tx;
        let proxy = std::thread::spawn(move || {
            let f = loop {
                match req_rx.recv() {
                    Ok(f) => break f,
                    Err(_) => std::thread::yield_now(),
                }
            };
            let frame = decode_frame(&f).unwrap();
            // 1.7 ms rounds up to the 2 ms deadline class.
            assert_eq!(
                solros_proto::codec::flags_deadline(frame.flags),
                Some(Duration::from_micros(2_000))
            );
            let (rtag, _) = FsRequest::decode(&f).unwrap();
            resp_tx.send_blocking(&FsResponse::Ok.encode(rtag)).unwrap();
        });

        let tag = client.tag();
        let token = client
            .submit_with_deadline(
                tag,
                FsRequest::Fsync { ino: 1 }.encode(tag),
                Duration::from_micros(1_700),
            )
            .unwrap();
        let reply = client
            .wait_timeout(token, Duration::from_secs(5))
            .expect("proxy replies well within the deadline");
        let (_, resp) = FsResponse::decode(&reply).unwrap();
        assert_eq!(resp, FsResponse::Ok);
        proxy.join().unwrap();
    }
}
