//! The Solros ring buffer over PCIe (§4.2).
//!
//! See the crate docs for the design overview. Layout: the *master* side
//! allocates the data array (headers + payloads) in its local memory; in
//! the lazy (replicated control variable) scheme each endpoint also owns a
//! one-line control window in *its own* memory holding the authoritative
//! copy of the variable it writes (`tail` for the producer, `head` for the
//! consumer), while the peer keeps a process-local replica refreshed
//! across PCIe only when the ring appears full/empty (§4.2.4). The eager
//! baseline of Figure 9 places both variables in master memory and
//! accesses them on every operation.
//!
//! Element slots are 8-byte aligned: `[u64 header][payload][pad]`. The
//! header encodes `(state, len)`; the producer writes it (RESERVED at
//! reservation, READY at publish) and the consumer only reads it — all
//! cross-bus synchronization flows through the header states plus
//! `head`/`tail`. Same-side coordination (out-of-order `set_ready` /
//! `set_done` by concurrent threads) is tracked in process-local flag
//! tables, which is free, exactly as it would be on real hardware.

use std::cell::Cell;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use solros_pcie::cost::{CostModel, Xfer};
use solros_pcie::counter::PcieCounters;
use solros_pcie::window::{Window, WindowHandle};
use solros_pcie::Side;
use solros_simkit::sync::Mutex;

use crate::combiner::Combiner;
use crate::doorbell::Doorbell;
use crate::error::RingError;
use crate::wave::Wave;

/// Element header size in bytes.
const HDR: u64 = 8;

/// Reserved by the producer; payload not yet published.
const ST_RESERVED: u64 = 1;
/// Published; consumer may take it.
const ST_READY: u64 = 2;
/// Wrap marker: skip to the start of the array.
const ST_WRAP: u64 = 5;
/// Garbage state written by the fault injector: no legal producer path
/// ever stores it, so a consumer that reads it has proof of corruption.
const ST_POISON: u64 = 0x66;

#[inline]
fn hdr(state: u64, len: u32) -> u64 {
    (state << 56) | len as u64
}

#[inline]
fn state_of(h: u64) -> u64 {
    h >> 56
}

#[inline]
fn len_of(h: u64) -> u32 {
    h as u32
}

#[inline]
fn round8(n: u64) -> u64 {
    (n + 7) & !7
}

/// Byte size of the slot for a payload of `len` bytes.
#[inline]
fn slot_size(len: u32) -> u64 {
    HDR + round8(len as u64)
}

/// Resolves a configured copy mode to a concrete mechanism for one copy.
#[inline]
fn mechanism(mode: CopyMode, model: &CostModel, initiator: Side, bytes: usize) -> Xfer {
    match mode {
        CopyMode::Memcpy => Xfer::Memcpy,
        CopyMode::Dma => Xfer::Dma,
        CopyMode::Adaptive => model.adaptive_choice(initiator, bytes as u64),
    }
}

/// How element payloads cross the bus (§4.2.4). [`CopyMode::Adaptive`] is
/// what Solros ships; the other two exist for the Figure 10 ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CopyMode {
    /// Always load/store instructions.
    Memcpy,
    /// Always DMA.
    Dma,
    /// Load/store below the initiator's threshold, DMA above (§4.2.4).
    #[default]
    Adaptive,
}

/// Construction parameters for a ring.
#[derive(Debug, Clone)]
pub struct RingConfig {
    /// Data-array capacity in bytes; must be a power of two ≥ 64.
    pub capacity: usize,
    /// Side whose memory holds the data array (the paper's *master* side).
    pub master: Side,
    /// Side the producer endpoint runs on.
    pub producer: Side,
    /// Side the consumer endpoint runs on.
    pub consumer: Side,
    /// Replicate control variables and update lazily (§4.2.4). `false` is
    /// the eager baseline of Figure 9.
    pub lazy_control: bool,
    /// Max operations per combiner tenure (§4.2.3).
    pub combine_threshold: usize,
    /// Payload copy mechanism.
    pub copy_mode: CopyMode,
}

impl RingConfig {
    /// A ring entirely on one side (no PCIe traffic) — the Figure 8 setup.
    pub fn local(capacity: usize, side: Side) -> Self {
        RingConfig {
            capacity,
            master: side,
            producer: side,
            consumer: side,
            lazy_control: true,
            combine_threshold: 64,
            copy_mode: CopyMode::Adaptive,
        }
    }

    /// A ring whose master memory is on `master`, carrying data from
    /// `producer` to `consumer` across PCIe.
    pub fn over_pcie(capacity: usize, master: Side, producer: Side, consumer: Side) -> Self {
        RingConfig {
            capacity,
            master,
            producer,
            consumer,
            lazy_control: true,
            combine_threshold: 64,
            copy_mode: CopyMode::Adaptive,
        }
    }

    /// Returns a copy with eager (non-replicated) control variables.
    pub fn eager(mut self) -> Self {
        self.lazy_control = false;
        self
    }

    /// Returns a copy with the given copy mode.
    pub fn with_copy_mode(mut self, mode: CopyMode) -> Self {
        self.copy_mode = mode;
        self
    }

    /// Returns a copy with the given combining threshold.
    pub fn with_threshold(mut self, threshold: usize) -> Self {
        self.combine_threshold = threshold;
        self
    }
}

/// A handle to one element's memory inside the ring (the paper's
/// `rb_buf`). Obtained from [`Producer::enqueue`] or [`Consumer::dequeue`];
/// consumed by [`Producer::set_ready`] / [`Consumer::set_done`].
#[derive(Debug)]
#[must_use = "an element handle must be published with set_ready/set_done"]
pub struct RbBuf {
    pos: u64,
    len: u32,
    /// The consumer's batched pull, when it covered this element, and the
    /// payload's offset in it; [`Consumer::copy_from`] then copies locally
    /// and [`Consumer::recv_with`] lends the bytes where they are.
    staged: Option<(Arc<Vec<u8>>, usize)>,
}

impl RbBuf {
    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Returns false; zero-length elements are rejected at enqueue.
    pub fn is_empty(&self) -> bool {
        false
    }
}

struct Shared {
    capacity: u64,
    max_elem: u64,
    lazy: bool,
    copy_mode: CopyMode,
    data: Arc<Window>,
    prod_ctrl: Arc<Window>,
    cons_ctrl: Arc<Window>,
    /// The doorbell's armed flag. Always in the *producer's* memory, so
    /// the post-publish test is a local load and arming is one posted
    /// write from the consumer (§4.2.4's placement rule, applied to
    /// notifications).
    bell_flag: Arc<Window>,
    /// The bell a set flag rings: the ring's own until a poller attaches
    /// one it shares across rings. Read only on the armed (slow) path.
    bell: Mutex<Arc<Doorbell>>,
    model: Arc<CostModel>,
    producer_side: Side,
    consumer_side: Side,
    threshold: usize,
}

/// Factory for one ring buffer and its two endpoints.
///
/// # Examples
///
/// ```
/// use solros_pcie::{PcieCounters, Side};
/// use solros_ringbuf::ring::{RingBuf, RingConfig};
/// use std::sync::Arc;
///
/// let counters = Arc::new(PcieCounters::new());
/// let ring = RingBuf::new(RingConfig::local(4096, Side::Host), counters);
/// let (tx, rx) = ring.endpoints();
/// tx.send(b"hello").unwrap();
/// assert_eq!(rx.recv().unwrap(), b"hello");
/// ```
pub struct RingBuf {
    shared: Arc<Shared>,
}

impl RingBuf {
    /// Builds the ring and allocates its windows.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is not a power of two or is below 64 bytes,
    /// or if the combining threshold is zero.
    pub fn new(cfg: RingConfig, counters: Arc<PcieCounters>) -> Self {
        Self::with_model(cfg, counters, Arc::new(CostModel::paper_default()))
    }

    /// As [`RingBuf::new`] with an explicit cost model (for tests and
    /// ablations that change the adaptive threshold).
    pub fn with_model(cfg: RingConfig, counters: Arc<PcieCounters>, model: Arc<CostModel>) -> Self {
        assert!(
            cfg.capacity.is_power_of_two() && cfg.capacity >= 64,
            "capacity must be a power of two >= 64"
        );
        let data = Window::new(cfg.capacity, cfg.master, Arc::clone(&counters));
        // Lazy scheme: each authoritative variable lives with its owner.
        // Eager baseline: both variables live in master memory (§4.2.4).
        let (tail_home, head_home) = if cfg.lazy_control {
            (cfg.producer, cfg.consumer)
        } else {
            (cfg.master, cfg.master)
        };
        let prod_ctrl = Window::new(64, tail_home, Arc::clone(&counters));
        let cons_ctrl = Window::new(64, head_home, Arc::clone(&counters));
        let bell_flag = Window::new(64, cfg.producer, Arc::clone(&counters));
        let bell = Doorbell::new();
        bell.add_ring_flag(bell_flag.map(cfg.consumer));
        let shared = Arc::new(Shared {
            capacity: cfg.capacity as u64,
            max_elem: (cfg.capacity as u64 / 4).saturating_sub(HDR).max(8),
            lazy: cfg.lazy_control,
            copy_mode: cfg.copy_mode,
            data,
            prod_ctrl,
            cons_ctrl,
            bell_flag,
            bell: Mutex::new(bell),
            model,
            producer_side: cfg.producer,
            consumer_side: cfg.consumer,
            threshold: cfg.combine_threshold,
        });
        RingBuf { shared }
    }

    /// Returns the producer and consumer endpoints.
    pub fn endpoints(&self) -> (Producer, Consumer) {
        (self.producer(), self.consumer())
    }

    /// Returns a producer endpoint (threads on the producer side share it
    /// by cloning).
    pub fn producer(&self) -> Producer {
        let sh = Arc::clone(&self.shared);
        let flags = (0..(sh.capacity / 8) as usize)
            .map(|_| AtomicBool::new(false))
            .collect();
        Producer {
            inner: Arc::new(ProdInner {
                data: sh.data.map(sh.producer_side),
                tail_auth: sh.prod_ctrl.map(sh.producer_side),
                head_auth: sh.cons_ctrl.map(sh.producer_side),
                bell_flag: sh.bell_flag.map(sh.producer_side),
                ready_flags: flags,
                corrupt_budget: AtomicU64::new(0),
                publishes: AtomicU64::new(0),
                wave_resubmits: AtomicU64::new(0),
                combiner: Combiner::new(
                    ProdState {
                        reserve_tail: 0,
                        ready_frontier: 0,
                        head_replica: 0,
                        published_tail: 0,
                        pending: VecDeque::new(),
                    },
                    sh.threshold,
                ),
                sh,
            }),
        }
    }

    /// Returns a consumer endpoint.
    pub fn consumer(&self) -> Consumer {
        let sh = Arc::clone(&self.shared);
        let flags = (0..(sh.capacity / 8) as usize)
            .map(|_| AtomicBool::new(false))
            .collect();
        Consumer {
            inner: Arc::new(ConsInner {
                data: sh.data.map(sh.consumer_side),
                head_auth: sh.cons_ctrl.map(sh.consumer_side),
                tail_auth: sh.prod_ctrl.map(sh.consumer_side),
                done_flags: flags,
                combiner: Combiner::new(
                    ConsState {
                        consume: 0,
                        head: 0,
                        tail_replica: 0,
                        published_head: 0,
                        pending: VecDeque::new(),
                        stage_base: 0,
                        stage: Arc::default(),
                    },
                    sh.threshold,
                ),
                sh,
            }),
        }
    }

    /// Re-initializes the ring after a fault: both authoritative control
    /// variables return to zero, so endpoints minted *afterwards* (via
    /// [`RingBuf::producer`] / [`RingBuf::consumer`], whose local state
    /// starts at zero) see an empty, consistent ring. Any element bytes
    /// left in the data array are unreachable — below the new tail — and
    /// are overwritten before the tail ever advances over them.
    ///
    /// The caller must quiesce and discard all endpoints minted before the
    /// reset; their replicated control state is stale by construction.
    pub fn reset(&self) {
        self.shared
            .prod_ctrl
            .map(self.shared.prod_ctrl.home())
            .ctrl(0)
            .store(0);
        self.shared
            .cons_ctrl
            .map(self.shared.cons_ctrl.home())
            .ctrl(0)
            .store(0);
    }

    /// Ring capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.shared.capacity as usize
    }

    /// Largest accepted payload in bytes.
    pub fn max_element(&self) -> usize {
        self.shared.max_elem as usize
    }
}

/// An outstanding slot awaiting in-order publication/reclamation.
struct PendingSlot {
    pos: u64,
    slot: u64,
    /// Wrap markers publish/reclaim automatically.
    auto: bool,
}

#[inline]
fn flag_index(pos: u64, cap: u64) -> usize {
    ((pos % cap) / 8) as usize
}

struct ProdState {
    /// Monotonic reservation frontier (bytes).
    reserve_tail: u64,
    /// Reservation prefix whose elements are all READY.
    ready_frontier: u64,
    /// Local replica of the consumer's authoritative `head`.
    head_replica: u64,
    /// Last value stored to the authoritative `tail`.
    published_tail: u64,
    /// Reserved slots awaiting `set_ready`, in ring order.
    pending: VecDeque<PendingSlot>,
}

/// One producer-side combining-queue operation. The combiner executes
/// peer operations with its *own* closure, so every batch shape must be
/// encoded here rather than in per-caller closures.
enum ProdOp {
    /// Reserve `size` bytes; `0` is a publish-only pass (from `kick`).
    Reserve(u32),
    /// Reserve, copy, and mark ready the given frames of a wave; on a
    /// lazy ring they pay a single control-variable publish at batch end.
    /// The wave is lent to the combiner, not consumed.
    SendWave(Wave, Range<usize>),
}

/// Result of a [`ProdOp`].
enum ProdRes {
    Reserved(Result<RbBuf, RingError>),
    /// The wave, handed back, and how many of its frames were accepted
    /// (fewer than offered when the ring filled mid-wave).
    Waved(Wave, usize),
}

struct ProdInner {
    sh: Arc<Shared>,
    data: WindowHandle,
    /// Authoritative `tail` window.
    tail_auth: WindowHandle,
    /// Peer's authoritative `head` window.
    head_auth: WindowHandle,
    /// The doorbell's armed flag (local to this side).
    bell_flag: WindowHandle,
    /// Process-local ready flags, indexed by slot offset / 8.
    ready_flags: Box<[AtomicBool]>,
    /// Fault injection: while nonzero, each `set_ready` decrements it and
    /// publishes a poisoned header instead of a READY one.
    corrupt_budget: AtomicU64,
    /// Authoritative-tail stores actually issued — the ring's
    /// doorbell-equivalent count (control-variable publishes).
    publishes: AtomicU64,
    /// Waves whose unsent tail had to be resubmitted after a backoff
    /// because the ring filled mid-wave ([`Producer::send_batch_blocking`]).
    wave_resubmits: AtomicU64,
    combiner: Combiner<ProdState, ProdOp, ProdRes>,
}

/// The sending endpoint. Clone to share among producer-side threads.
#[derive(Clone)]
pub struct Producer {
    inner: Arc<ProdInner>,
}

impl Producer {
    /// Reserves space for a `size`-byte element (the paper's
    /// `rb_enqueue`). Non-blocking: returns [`RingError::WouldBlock`] when
    /// the ring is full.
    pub fn enqueue(&self, size: usize) -> Result<RbBuf, RingError> {
        let inner = &self.inner;
        if size == 0 || size as u64 > inner.sh.max_elem {
            return Err(RingError::TooBig);
        }
        match inner.combiner.submit(
            ProdOp::Reserve(size as u32),
            |st, op| inner.apply(st, op),
            |st| inner.publish(st),
        ) {
            ProdRes::Reserved(r) => r,
            _ => unreachable!("Reserve yields Reserved"),
        }
    }

    /// Vectored send: reserves, copies, and readies frames `range` of
    /// `wave` in **one** combiner pass, publishing the authoritative tail
    /// once at batch end (on a lazy ring — the eager baseline still pays
    /// one publish per frame, which is the ablation's point). Returns the
    /// number of frames accepted, fewer than offered when the ring filled
    /// partway; the wave itself is left as it was, so the caller resends
    /// from `range.start + accepted`.
    ///
    /// Returns [`RingError::TooBig`] (sending nothing) if any offered frame
    /// is empty or exceeds [`RingBuf::max_element`].
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the wave's last frame.
    pub fn send_wave(&self, wave: &mut Wave, range: Range<usize>) -> Result<usize, RingError> {
        let inner = &self.inner;
        assert!(
            range.end <= wave.len(),
            "no frame {} in the wave",
            range.end
        );
        if range
            .clone()
            .map(|i| wave.frame(i).len() as u64)
            .any(|len| len == 0 || len > inner.sh.max_elem)
        {
            return Err(RingError::TooBig);
        }
        if range.is_empty() {
            return Ok(0);
        }
        // The combiner may run on another thread, so the frames travel
        // with the operation and come back with its result.
        let sent = match inner.combiner.submit(
            ProdOp::SendWave(std::mem::take(wave), range),
            |st, op| inner.apply(st, op),
            |st| inner.publish(st),
        ) {
            ProdRes::Waved(lent, sent) => {
                *wave = lent;
                sent
            }
            _ => unreachable!("SendWave yields Waved"),
        };
        Ok(sent)
    }

    /// [`Producer::send_wave`] of the whole wave, spinning until all of it
    /// has been accepted (resubmitting the unsent tail after each backoff).
    pub fn send_wave_blocking(&self, wave: &mut Wave) -> Result<(), RingError> {
        let mut sent = self.send_wave(wave, 0..wave.len())?;
        let mut spins = 0u32;
        while sent < wave.len() {
            self.inner.wave_resubmits.fetch_add(1, Ordering::Relaxed);
            crate::locks::spin_backoff(&mut spins);
            sent += self.send_wave(wave, sent..wave.len())?;
        }
        Ok(())
    }

    /// [`Producer::send_wave`] for frames the caller holds as owned
    /// vectors: returns the number accepted plus the unsent tail.
    pub fn send_batch(&self, mut frames: Vec<Vec<u8>>) -> Result<(usize, Vec<Vec<u8>>), RingError> {
        let sent = self.send_wave(&mut Wave::of(&frames), 0..frames.len())?;
        let rest = frames.split_off(sent);
        Ok((sent, rest))
    }

    /// [`Producer::send_wave_blocking`] for owned frames.
    pub fn send_batch_blocking(&self, frames: Vec<Vec<u8>>) -> Result<(), RingError> {
        self.send_wave_blocking(&mut Wave::of(&frames))
    }

    /// Copies `data` into the element memory (the paper's
    /// `rb_copy_to_rb_buf`), using the ring's copy mode.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the reserved size.
    pub fn copy_to(&self, rb: &RbBuf, data: &[u8]) {
        self.inner.write_payload(rb, data);
    }

    /// Publishes the element for consumption (the paper's `rb_set_ready`).
    pub fn set_ready(&self, rb: RbBuf) {
        self.inner.mark_ready(&rb);
    }

    /// Arms the fault injector: the next `n` published elements carry a
    /// poisoned header (an impossible state value), modeling a torn or
    /// misdirected header write. The consumer surfaces each as
    /// [`RingError::Corrupt`] instead of delivering data.
    pub fn corrupt_next(&self, n: u64) {
        self.inner.corrupt_budget.store(n, Ordering::SeqCst);
    }

    /// Convenience: reserve + copy + publish in one call.
    pub fn send(&self, data: &[u8]) -> Result<(), RingError> {
        let rb = self.enqueue(data.len())?;
        self.copy_to(&rb, data);
        self.set_ready(rb);
        // Fold the publication into a queue pass so a quiescent producer
        // still makes its last elements visible.
        self.kick();
        Ok(())
    }

    /// Forces a control-variable publication pass; useful after a batch of
    /// raw `set_ready` calls. (A size-0 operation is interpreted by the
    /// combiner as publish-only.)
    pub fn kick(&self) {
        let inner = &self.inner;
        let _ = inner.combiner.submit(
            ProdOp::Reserve(0),
            |st, op| inner.apply(st, op),
            |st| inner.publish(st),
        );
    }

    /// As [`Producer::send`], spinning until space is available.
    pub fn send_blocking(&self, data: &[u8]) -> Result<(), RingError> {
        let mut spins = 0u32;
        loop {
            match self.send(data) {
                Err(RingError::WouldBlock) => crate::locks::spin_backoff(&mut spins),
                other => return other,
            }
        }
    }

    /// Number of combiner tenures (instrumentation for the ablations).
    pub fn combiner_batches(&self) -> u64 {
        self.inner.combiner.batches()
    }

    /// The bell this producer's publishes ring when the consumer armed
    /// it (see [`Consumer::doorbell`]).
    pub fn doorbell(&self) -> Arc<Doorbell> {
        Arc::clone(&self.inner.sh.bell.lock())
    }

    /// Largest accepted payload in bytes (see [`RingBuf::max_element`]).
    pub fn max_element(&self) -> usize {
        self.inner.sh.max_elem as usize
    }

    /// Authoritative-tail stores this producer has issued — the ring's
    /// doorbell-equivalent count. One per element on the unbatched path;
    /// one per wave on a lazy ring's batched path.
    pub fn publishes(&self) -> u64 {
        self.inner.publishes.load(Ordering::Relaxed)
    }

    /// Waves whose unsent tail was resubmitted after a backoff because
    /// the ring filled mid-wave — reply-side backpressure, not loss
    /// (surfaced in the recovery ledger as `reply_wave_resubmits`).
    pub fn wave_resubmits(&self) -> u64 {
        self.inner.wave_resubmits.load(Ordering::Relaxed)
    }
}

impl ProdInner {
    /// Executes one combining-queue operation; runs under the combiner
    /// role, so `st` is exclusively owned for the duration.
    fn apply(&self, st: &mut ProdState, op: ProdOp) -> ProdRes {
        match op {
            ProdOp::Reserve(size) => ProdRes::Reserved(self.try_reserve(st, size)),
            ProdOp::SendWave(wave, range) => {
                let mut sent = 0;
                for frame in range.map(|i| wave.frame(i)) {
                    let Ok(rb) = self.try_reserve(st, frame.len() as u32) else {
                        break;
                    };
                    self.write_payload(&rb, frame);
                    self.mark_ready(&rb);
                    sent += 1;
                }
                ProdRes::Waved(wave, sent)
            }
        }
    }

    /// Copies `data` into the element memory (see [`Producer::copy_to`]).
    fn write_payload(&self, rb: &RbBuf, data: &[u8]) {
        assert_eq!(data.len(), rb.len as usize, "copy size mismatch");
        let off = ((rb.pos % self.sh.capacity) + HDR) as usize;
        // Word-atomic element access: the consumer's batched pull may
        // race-read this memory, which is safe by construction.
        let mech = mechanism(
            self.sh.copy_mode,
            &self.sh.model,
            self.data.accessor(),
            data.len(),
        );
        self.data.write_elem(mech, off, data);
    }

    /// Marks the element READY (see [`Producer::set_ready`]), honoring the
    /// poison fault injector.
    fn mark_ready(&self, rb: &RbBuf) {
        let cap = self.sh.capacity;
        let poisoned = self
            .corrupt_budget
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
            .is_ok();
        let state = if poisoned { ST_POISON } else { ST_READY };
        // Make the payload visible to remote header readers.
        let off = (rb.pos % cap) as usize;
        self.data.ctrl(off).store(hdr(state, rb.len));
        // Local bookkeeping so the next combiner tenure can advance the
        // published tail over the contiguous ready prefix.
        self.ready_flags[flag_index(rb.pos, cap)].store(true, Ordering::Release);
    }

    fn try_reserve(&self, st: &mut ProdState, size: u32) -> Result<RbBuf, RingError> {
        if size == 0 {
            // Publish-only pass (from `kick`); never reserves space.
            self.publish(st);
            return Err(RingError::WouldBlock);
        }
        let cap = self.sh.capacity;
        let slot = slot_size(size);
        let pos_in = st.reserve_tail % cap;
        let room = cap - pos_in;
        let wrap = if slot > room { room } else { 0 };
        let need = slot + wrap;

        if !self.sh.lazy {
            // Eager baseline: always read the (remote) authoritative head.
            st.head_replica = self.head_auth.ctrl(0).load();
        }
        let mut free = cap - (st.reserve_tail - st.head_replica);
        if need > free {
            // Lazy scheme: refresh the replica only when the ring looks
            // full (§4.2.4).
            st.head_replica = self.head_auth.ctrl(0).load();
            free = cap - (st.reserve_tail - st.head_replica);
            if need > free {
                return Err(RingError::WouldBlock);
            }
        }

        if wrap > 0 {
            self.data
                .ctrl(pos_in as usize)
                .store(hdr(ST_WRAP, (wrap - HDR) as u32));
            st.pending.push_back(PendingSlot {
                pos: st.reserve_tail,
                slot: wrap,
                auto: true,
            });
            st.reserve_tail += wrap;
        }
        let pos = st.reserve_tail;
        self.data
            .ctrl((pos % cap) as usize)
            .store(hdr(ST_RESERVED, size));
        st.pending.push_back(PendingSlot {
            pos,
            slot,
            auto: false,
        });
        st.reserve_tail += slot;
        if !self.sh.lazy {
            self.publish(st);
        }
        Ok(RbBuf {
            pos,
            len: size,
            staged: None,
        })
    }

    /// Advances the ready frontier over the contiguous published prefix
    /// and stores the authoritative `tail` if it moved.
    fn publish(&self, st: &mut ProdState) {
        let cap = self.sh.capacity;
        while let Some(front) = st.pending.front() {
            if front.auto {
                st.ready_frontier = front.pos + front.slot;
                st.pending.pop_front();
                continue;
            }
            let idx = flag_index(front.pos, cap);
            if self.ready_flags[idx].load(Ordering::Acquire) {
                self.ready_flags[idx].store(false, Ordering::Relaxed);
                st.ready_frontier = front.pos + front.slot;
                st.pending.pop_front();
            } else {
                break;
            }
        }
        if st.published_tail != st.ready_frontier {
            st.published_tail = st.ready_frontier;
            self.tail_auth.ctrl(0).store(st.ready_frontier);
            self.publishes.fetch_add(1, Ordering::Relaxed);
            self.ring_if_armed();
        }
    }

    /// The producer half of the doorbell protocol (see
    /// [`crate::doorbell`]): publish → fence → test armed → ring. The
    /// flag is in this side's memory, so an unarmed ring puts nothing on
    /// the bus; the ring itself is one posted write toward the sleeper.
    fn ring_if_armed(&self) {
        fence(Ordering::SeqCst);
        let flag = self.bell_flag.ctrl(0);
        if flag.load() != 0 && flag.swap(0) != 0 {
            if self.sh.producer_side != self.sh.consumer_side {
                self.sh
                    .data
                    .counters()
                    .ctrl_writes
                    .fetch_add(1, Ordering::Relaxed);
            }
            let bell = Arc::clone(&self.sh.bell.lock());
            bell.wake();
        }
    }
}

/// Max bytes pulled per staging DMA (the consumer's batched pull).
const STAGE_MAX: u64 = 64 * 1024;

struct ConsState {
    /// Next unexamined position.
    consume: u64,
    /// Reclaim frontier (authoritative `head` shadow).
    head: u64,
    /// Local replica of the producer's authoritative `tail`.
    tail_replica: u64,
    /// Last value stored to the authoritative `head`.
    published_head: u64,
    /// Slots handed out and awaiting `set_done`, in ring order.
    pending: VecDeque<PendingSlot>,
    /// Ring position the staging buffer starts at.
    stage_base: u64,
    /// Staged snapshot of `[stage_base, stage_base + stage.len())`. Shared
    /// with the handles of the elements it covers, so a payload is lent
    /// from here instead of copied out; refilled in place once no handle
    /// holds it.
    stage: Arc<Vec<u8>>,
}

struct ConsInner {
    sh: Arc<Shared>,
    data: WindowHandle,
    /// Authoritative `head` window.
    head_auth: WindowHandle,
    /// Peer's authoritative `tail` window.
    tail_auth: WindowHandle,
    /// Process-local done flags, indexed by slot offset / 8.
    done_flags: Box<[AtomicBool]>,
    combiner: Combiner<ConsState, (), Result<RbBuf, RingError>>,
}

/// The receiving endpoint. Clone to share among consumer-side threads.
#[derive(Clone)]
pub struct Consumer {
    inner: Arc<ConsInner>,
}

impl Consumer {
    /// Locates the next ready element (the paper's `rb_dequeue`).
    /// Non-blocking: returns [`RingError::WouldBlock`] when the ring is
    /// empty or the head element is still being filled.
    pub fn dequeue(&self) -> Result<RbBuf, RingError> {
        let inner = &self.inner;
        inner.combiner.submit(
            (),
            |st, ()| inner.try_take(st),
            |st| {
                inner.reclaim(st);
                inner.publish(st);
            },
        )
    }

    /// Copies the element payload out (the paper's `rb_copy_from_rb_buf`).
    ///
    /// # Panics
    ///
    /// Panics if `out.len()` differs from the element size.
    pub fn copy_from(&self, rb: &RbBuf, out: &mut [u8]) {
        assert_eq!(out.len(), rb.len as usize, "copy size mismatch");
        if let Some((stage, off)) = &rb.staged {
            // The batched pull already moved these bytes; local copy.
            out.copy_from_slice(&stage[*off..*off + out.len()]);
            return;
        }
        let off = ((rb.pos % self.inner.sh.capacity) + HDR) as usize;
        let mech = mechanism(
            self.inner.sh.copy_mode,
            &self.inner.sh.model,
            self.inner.data.accessor(),
            out.len(),
        );
        self.inner.data.read_elem(mech, off, out);
    }

    /// Releases the element memory for reuse (the paper's `rb_set_done`).
    pub fn set_done(&self, rb: RbBuf) {
        let inner = &self.inner;
        inner.done_flags[flag_index(rb.pos, inner.sh.capacity)].store(true, Ordering::Release);
    }

    /// Dequeues the next element, lends its payload to `f`, and releases
    /// it: the bytes `f` sees are the consumer's batched pull when that
    /// covered the element, and otherwise this thread's copy of the
    /// element memory — `f` decodes in place, with no per-element buffer.
    /// The element is released when `f` returns *or unwinds*: a panicking
    /// `f` consumes its element and wedges nothing.
    pub fn recv_with<R>(&self, f: impl FnOnce(&[u8]) -> R) -> Result<R, RingError> {
        /// Releases the element on every exit from `recv_with`.
        struct Release<'a>(&'a Consumer, Option<RbBuf>);
        impl Drop for Release<'_> {
            fn drop(&mut self) {
                if let Some(rb) = self.1.take() {
                    self.0.set_done(rb);
                }
            }
        }
        thread_local! {
            /// This thread's copy of an element the batched pull did not
            /// cover (a local ring, an eager one, a span cut short).
            static ELEM: Cell<Vec<u8>> = const { Cell::new(Vec::new()) };
        }

        let held = Release(self, Some(self.dequeue()?));
        let rb = held.1.as_ref().expect("held until drop");
        let len = rb.len as usize;
        Ok(match &rb.staged {
            Some((stage, off)) => f(&stage[*off..*off + len]),
            None => {
                // Taken, not borrowed: a nested `recv_with` inside `f`
                // starts from an empty buffer instead of failing.
                let mut buf = ELEM.take();
                if buf.len() < len {
                    buf.resize(len, 0);
                }
                self.copy_from(rb, &mut buf[..len]);
                let out = f(&buf[..len]);
                ELEM.set(buf);
                out
            }
        })
    }

    /// Convenience: [`Consumer::recv_with`] copying the payload out.
    pub fn recv(&self) -> Result<Vec<u8>, RingError> {
        self.recv_with(<[u8]>::to_vec)
    }

    /// As [`Consumer::recv`], spinning until an element arrives.
    pub fn recv_blocking(&self) -> Vec<u8> {
        let mut spins = 0u32;
        loop {
            match self.recv() {
                Ok(v) => return v,
                Err(_) => crate::locks::spin_backoff(&mut spins),
            }
        }
    }

    /// Number of combiner tenures (instrumentation for the ablations).
    pub fn combiner_batches(&self) -> u64 {
        self.inner.combiner.batches()
    }

    /// The bell this ring's producers ring: arm it, re-check the ring,
    /// then park on it (see [`crate::doorbell`]).
    pub fn doorbell(&self) -> Arc<Doorbell> {
        Arc::clone(&self.inner.sh.bell.lock())
    }

    /// Makes `bell` the one this ring's producers ring, so a poller that
    /// serves several rings (and other work sources) sleeps on one bell.
    pub fn attach_doorbell(&self, bell: &Arc<Doorbell>) {
        let sh = &self.inner.sh;
        let mut cur = sh.bell.lock();
        if !Arc::ptr_eq(&cur, bell) {
            bell.add_ring_flag(sh.bell_flag.map(sh.consumer_side));
            *cur = Arc::clone(bell);
        }
    }
}

impl ConsInner {
    fn try_take(&self, st: &mut ConsState) -> Result<RbBuf, RingError> {
        if !self.sh.lazy {
            st.tail_replica = self.tail_auth.ctrl(0).load();
        }
        loop {
            if st.consume == st.tail_replica {
                // Looks empty: refresh the replica (lazy scheme, §4.2.4).
                st.tail_replica = self.tail_auth.ctrl(0).load();
                if st.consume == st.tail_replica {
                    self.reclaim(st);
                    self.publish(st);
                    return Err(RingError::WouldBlock);
                }
            }
            // Batched pull (§4.2.2's parallel data access, host-pull
            // form): snapshot the published span with one DMA so headers
            // and small payloads are served from local memory.
            self.maybe_stage(st);
            let pos = st.consume;
            let h = self.load_header(st, pos);
            match state_of(h) {
                ST_WRAP => {
                    let slot = slot_size(len_of(h));
                    st.pending.push_back(PendingSlot {
                        pos,
                        slot,
                        auto: true,
                    });
                    st.consume += slot;
                }
                ST_READY => {
                    let len = len_of(h);
                    let slot = slot_size(len);
                    st.pending.push_back(PendingSlot {
                        pos,
                        slot,
                        auto: false,
                    });
                    st.consume += slot;
                    let staged = Self::staged_payload(st, pos, len);
                    if !self.sh.lazy {
                        self.reclaim(st);
                        self.publish(st);
                    }
                    return Ok(RbBuf { pos, len, staged });
                }
                // RESERVED (publication raced ahead in this batch) or a
                // still-zero header in a stale staged snapshot: not ready.
                0 | ST_RESERVED => {
                    self.reclaim(st);
                    self.publish(st);
                    return Err(RingError::WouldBlock);
                }
                // Any other state is impossible under the protocol: the
                // header was corrupted (torn write, dropped PCIe write,
                // fault injection). Surface it; the error is sticky until
                // the ring is reset because `consume` does not advance.
                _ => {
                    self.reclaim(st);
                    self.publish(st);
                    return Err(RingError::Corrupt);
                }
            }
        }
    }

    /// Refreshes the staging buffer when the next header is not covered.
    fn maybe_stage(&self, st: &mut ConsState) {
        if !self.data.is_remote() {
            return;
        }
        // The batched pull is a consequence of the lazy scheme: a deferred
        // tail update tells the consumer about a whole span at once. The
        // eager baseline learns about one element per (remote) tail read
        // and pulls element-wise, as in the paper's Figure 9 baseline.
        if !self.sh.lazy {
            return;
        }
        let pos = st.consume;
        let covered = pos >= st.stage_base && pos + HDR <= st.stage_base + st.stage.len() as u64;
        if covered {
            return;
        }
        let cap = self.sh.capacity;
        let avail = st.tail_replica - pos;
        let room = cap - pos % cap; // Never cross the array wrap.
        let span = avail.min(room).min(STAGE_MAX);
        if span == 0 {
            return;
        }
        if Arc::get_mut(&mut st.stage).is_none() {
            // A handle still lends out the old snapshot: leave it be.
            st.stage = Arc::default();
        }
        let stage = Arc::get_mut(&mut st.stage).expect("unshared");
        stage.resize(span as usize, 0);
        self.data.stage_read((pos % cap) as usize, stage);
        st.stage_base = pos;
    }

    /// Loads the header at `pos`, preferring the staged snapshot.
    fn load_header(&self, st: &ConsState, pos: u64) -> u64 {
        let end = st.stage_base + st.stage.len() as u64;
        if pos >= st.stage_base && pos + HDR <= end {
            let off = (pos - st.stage_base) as usize;
            u64::from_le_bytes(st.stage[off..off + 8].try_into().expect("8 bytes"))
        } else {
            self.data.ctrl((pos % self.sh.capacity) as usize).load()
        }
    }

    /// Shares the staged snapshot when it covers the payload fully.
    fn staged_payload(st: &ConsState, pos: u64, len: u32) -> Option<(Arc<Vec<u8>>, usize)> {
        let start = pos + HDR;
        let end = st.stage_base + st.stage.len() as u64;
        (start >= st.stage_base && start + len as u64 <= end)
            .then(|| (Arc::clone(&st.stage), (start - st.stage_base) as usize))
    }

    /// Advances the reclaim frontier over released (done) slots and passed
    /// wrap markers, in ring order.
    fn reclaim(&self, st: &mut ConsState) {
        let cap = self.sh.capacity;
        while let Some(front) = st.pending.front() {
            if front.auto {
                st.head = front.pos + front.slot;
                st.pending.pop_front();
                continue;
            }
            let idx = flag_index(front.pos, cap);
            if self.done_flags[idx].load(Ordering::Acquire) {
                self.done_flags[idx].store(false, Ordering::Relaxed);
                st.head = front.pos + front.slot;
                st.pending.pop_front();
            } else {
                break;
            }
        }
    }

    fn publish(&self, st: &mut ConsState) {
        if st.published_head != st.head {
            st.published_head = st.head;
            self.head_auth.ctrl(0).store(st.head);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn local_ring(cap: usize) -> (Producer, Consumer) {
        let counters = Arc::new(PcieCounters::new());
        RingBuf::new(RingConfig::local(cap, Side::Host), counters).endpoints()
    }

    #[test]
    fn send_recv_roundtrip() {
        let (tx, rx) = local_ring(1024);
        tx.send(b"hello world").unwrap();
        assert_eq!(rx.recv().unwrap(), b"hello world");
    }

    #[test]
    fn empty_ring_would_block() {
        let (_tx, rx) = local_ring(1024);
        assert_eq!(rx.recv().unwrap_err(), RingError::WouldBlock);
    }

    #[test]
    fn full_ring_would_block_then_drains() {
        let (tx, rx) = local_ring(256);
        // max_elem = 256/4 - 8 = 56.
        let payload = [7u8; 48];
        let mut queued = 0;
        while tx.send(&payload).is_ok() {
            queued += 1;
        }
        assert!(queued >= 3, "queued {queued}");
        assert_eq!(tx.send(&payload).unwrap_err(), RingError::WouldBlock);
        // Drain one; space becomes reclaimable after set_done + reclaim.
        assert_eq!(rx.recv().unwrap(), payload);
        // A dequeue (or batch end) reclaims; next send succeeds eventually.
        let mut ok = false;
        for _ in 0..4 {
            if tx.send(&payload).is_ok() {
                ok = true;
                break;
            }
            let _ = rx.dequeue(); // trigger reclaim passes
        }
        assert!(ok, "send did not succeed after drain");
    }

    #[test]
    fn oversized_element_rejected() {
        let (tx, _rx) = local_ring(1024);
        assert_eq!(tx.send(&[0u8; 512]).unwrap_err(), RingError::TooBig);
        assert_eq!(tx.enqueue(0).unwrap_err(), RingError::TooBig);
    }

    #[test]
    fn fifo_order_single_thread() {
        let (tx, rx) = local_ring(4096);
        for round in 0..50u32 {
            for i in 0..10u32 {
                let v = (round * 10 + i).to_le_bytes();
                tx.send(&v).unwrap();
            }
            for i in 0..10u32 {
                let got = rx.recv().unwrap();
                assert_eq!(got, (round * 10 + i).to_le_bytes());
            }
        }
    }

    #[test]
    fn variable_sizes_wrap_correctly() {
        let (tx, rx) = local_ring(512);
        // Cycle through sizes that do not divide the capacity, forcing
        // wrap markers at varying offsets.
        let sizes = [1usize, 13, 40, 64, 96, 31];
        let mut sent = 0u64;
        let mut received = 0u64;
        for round in 0..2_000 {
            let size = sizes[round % sizes.len()];
            let byte = (round % 251) as u8;
            let data = vec![byte; size];
            tx.send_blocking(&data).unwrap();
            sent += size as u64;
            let got = rx.recv_blocking();
            assert_eq!(got, data, "round {round}");
            received += got.len() as u64;
        }
        assert_eq!(sent, received);
    }

    #[test]
    fn decoupled_phases_interleave() {
        let (tx, rx) = local_ring(4096);
        // Reserve three elements before publishing any.
        let a = tx.enqueue(8).unwrap();
        let b = tx.enqueue(8).unwrap();
        let c = tx.enqueue(8).unwrap();
        // Nothing published: consumer blocks.
        assert_eq!(rx.dequeue().unwrap_err(), RingError::WouldBlock);
        // Publish out of order: b first — FIFO publication means the tail
        // cannot advance past a's unpublished slot.
        tx.copy_to(&b, b"bbbbbbbb");
        tx.set_ready(b);
        tx.kick();
        assert_eq!(rx.dequeue().unwrap_err(), RingError::WouldBlock);
        tx.copy_to(&a, b"aaaaaaaa");
        tx.set_ready(a);
        tx.copy_to(&c, b"cccccccc");
        tx.set_ready(c);
        tx.kick();
        assert_eq!(rx.recv().unwrap(), b"aaaaaaaa");
        assert_eq!(rx.recv().unwrap(), b"bbbbbbbb");
        assert_eq!(rx.recv().unwrap(), b"cccccccc");
    }

    #[test]
    fn mpmc_no_loss_no_duplication() {
        let counters = Arc::new(PcieCounters::new());
        let ring = RingBuf::new(RingConfig::local(1 << 14, Side::Host), counters);
        let (tx, rx) = ring.endpoints();
        let producers = 4;
        let consumers = 4;
        let per_producer = 5_000u32;

        let mut handles = Vec::new();
        for p in 0..producers {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per_producer {
                    let token = (p as u32) << 24 | i;
                    tx.send_blocking(&token.to_le_bytes()).unwrap();
                }
            }));
        }
        let seen = Arc::new(Mutex::new(Vec::new()));
        let total = producers as u32 * per_producer;
        let done = Arc::new(std::sync::atomic::AtomicU32::new(0));
        for _ in 0..consumers {
            let rx = rx.clone();
            let seen = Arc::clone(&seen);
            let done = Arc::clone(&done);
            handles.push(std::thread::spawn(move || {
                let mut local = Vec::new();
                loop {
                    if done.load(std::sync::atomic::Ordering::Relaxed) >= total {
                        break;
                    }
                    match rx.recv() {
                        Ok(v) => {
                            local.push(u32::from_le_bytes(v.try_into().unwrap()));
                            done.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                        Err(_) => std::thread::yield_now(),
                    }
                }
                seen.lock().extend(local);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut all = seen.lock().clone();
        assert_eq!(all.len() as u32, total);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len() as u32, total, "duplicated tokens");
    }

    #[test]
    fn lazy_ring_reduces_remote_ctrl_traffic() {
        // Streaming workload: batches of sends, then batches of receives,
        // so lazy replicas amortize their refreshes.
        let run = |lazy: bool| -> u64 {
            let counters = Arc::new(PcieCounters::new());
            let mut cfg = RingConfig::over_pcie(1 << 14, Side::Coproc, Side::Coproc, Side::Host);
            cfg.lazy_control = lazy;
            let ring = RingBuf::new(cfg, Arc::clone(&counters));
            let (tx, rx) = ring.endpoints();
            for _ in 0..40 {
                for _ in 0..32 {
                    tx.send_blocking(&[1u8; 64]).unwrap();
                }
                for _ in 0..32 {
                    let _ = rx.recv_blocking();
                }
            }
            let s = counters.snapshot();
            s.ctrl_reads + s.ctrl_writes + s.rmw_ops
        };
        let lazy = run(true);
        let eager = run(false);
        assert!(
            eager as f64 >= lazy as f64 * 1.8,
            "eager {eager} should far exceed lazy {lazy}"
        );
    }

    #[test]
    fn master_placement_controls_data_locality() {
        // Master at producer: consumer pays remote reads for payloads.
        let counters = Arc::new(PcieCounters::new());
        let cfg = RingConfig::over_pcie(1 << 12, Side::Coproc, Side::Coproc, Side::Host);
        let ring = RingBuf::new(cfg, Arc::clone(&counters));
        let (tx, rx) = ring.endpoints();
        tx.send(&[9u8; 128]).unwrap();
        let _ = rx.recv().unwrap();
        let s = counters.snapshot();
        // Producer payload writes are local (master == producer side);
        // the consumer pulls the whole published span (header + payload)
        // with a single staging DMA and refreshes the tail replica.
        assert_eq!(s.write_lines, 0, "producer payload lines");
        assert_eq!(s.dma_ops, 1, "one batched pull");
        assert_eq!(s.dma_bytes, 8 + 128, "staged span = header + payload");
        assert_eq!(s.read_lines, 0, "no per-element line reads");
        assert!(s.ctrl_reads >= 1, "tail replica refresh");
    }

    #[test]
    fn dma_copy_mode_uses_dma() {
        let counters = Arc::new(PcieCounters::new());
        let cfg = RingConfig::over_pcie(1 << 14, Side::Coproc, Side::Coproc, Side::Host)
            .with_copy_mode(CopyMode::Dma);
        let ring = RingBuf::new(cfg, Arc::clone(&counters));
        let (tx, rx) = ring.endpoints();
        tx.send(&[5u8; 512]).unwrap();
        let _ = rx.recv().unwrap();
        let s = counters.snapshot();
        assert_eq!(s.dma_ops, 1, "consumer used DMA");
        assert_eq!(s.read_lines, 0);
    }

    #[test]
    fn stress_two_sided_heavy_sizes() {
        let counters = Arc::new(PcieCounters::new());
        let ring = RingBuf::new(
            RingConfig::over_pcie(1 << 16, Side::Coproc, Side::Host, Side::Coproc),
            counters,
        );
        let (tx, rx) = ring.endpoints();
        let n = 3_000u32;
        let producer = std::thread::spawn(move || {
            for i in 0..n {
                let size = 4 + (i as usize * 37) % 2048;
                let mut data = vec![0u8; size];
                data[..4].copy_from_slice(&i.to_le_bytes());
                let checksum = i.wrapping_mul(2654435761) as u8;
                if size > 4 {
                    data[4..].fill(checksum);
                }
                tx.send_blocking(&data).unwrap();
            }
        });
        for i in 0..n {
            let v = rx.recv_blocking();
            let size = 4 + (i as usize * 37) % 2048;
            assert_eq!(v.len(), size, "element {i}");
            assert_eq!(u32::from_le_bytes(v[..4].try_into().unwrap()), i);
            let checksum = i.wrapping_mul(2654435761) as u8;
            assert!(v[4..].iter().all(|&b| b == checksum), "element {i}");
        }
        producer.join().unwrap();
    }

    #[test]
    fn per_producer_fifo_order_preserved() {
        // MPSC: many producers, one consumer. Each producer's tokens must
        // arrive in its program order (the combining queue serializes
        // reservations, and publication is reservation-ordered).
        let counters = Arc::new(PcieCounters::new());
        let ring = RingBuf::new(RingConfig::local(1 << 14, Side::Host), counters);
        let (tx, rx) = ring.endpoints();
        let producers = 6u32;
        let per = 3_000u32;
        let mut handles = Vec::new();
        for p in 0..producers {
            let tx = tx.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    let token = [(p as u8), 0, 0, 0]
                        .iter()
                        .chain(i.to_le_bytes().iter())
                        .copied()
                        .collect::<Vec<u8>>();
                    tx.send_blocking(&token).unwrap();
                }
            }));
        }
        let mut next = vec![0u32; producers as usize];
        for _ in 0..(producers * per) {
            let v = rx.recv_blocking();
            let p = v[0] as usize;
            let i = u32::from_le_bytes(v[4..8].try_into().unwrap());
            assert_eq!(i, next[p], "producer {p} out of order");
            next[p] += 1;
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(next.iter().all(|&n| n == per));
    }

    #[test]
    fn corrupt_header_detected_and_sticky() {
        let counters = Arc::new(PcieCounters::new());
        let ring = RingBuf::new(RingConfig::local(1024, Side::Host), counters);
        let (tx, rx) = ring.endpoints();
        tx.send(b"good").unwrap();
        assert_eq!(rx.recv().unwrap(), b"good");
        tx.corrupt_next(1);
        tx.send(b"torn").unwrap();
        tx.send(b"after").unwrap();
        // The poisoned element is detected, and the error is sticky: the
        // consumer cannot silently skip corrupted memory.
        assert_eq!(rx.recv().unwrap_err(), RingError::Corrupt);
        assert_eq!(rx.recv().unwrap_err(), RingError::Corrupt);
    }

    #[test]
    fn reset_recovers_a_corrupted_ring() {
        let counters = Arc::new(PcieCounters::new());
        let ring = RingBuf::new(RingConfig::local(1024, Side::Host), counters);
        let (tx, rx) = ring.endpoints();
        tx.corrupt_next(1);
        tx.send(b"torn").unwrap();
        assert_eq!(rx.recv().unwrap_err(), RingError::Corrupt);
        // Recovery: discard the wedged endpoints, reset, mint fresh ones.
        drop((tx, rx));
        ring.reset();
        let (tx, rx) = ring.endpoints();
        assert_eq!(rx.recv().unwrap_err(), RingError::WouldBlock, "empty");
        for i in 0..200u32 {
            tx.send_blocking(&i.to_le_bytes()).unwrap();
            assert_eq!(rx.recv_blocking(), i.to_le_bytes());
        }
    }

    #[test]
    fn partial_publish_wedges_but_does_not_corrupt() {
        // A producer that reserves and never publishes (a crashed peer
        // mid-element) stalls the FIFO — later elements stay invisible —
        // but the consumer sees a clean WouldBlock, not garbage.
        let (tx, rx) = local_ring(1024);
        let wedge = tx.enqueue(8).unwrap();
        tx.send(b"after").unwrap();
        assert_eq!(rx.recv().unwrap_err(), RingError::WouldBlock);
        // The element is eventually published: everything flows again.
        tx.copy_to(&wedge, b"unwedged");
        tx.set_ready(wedge);
        tx.kick();
        assert_eq!(rx.recv().unwrap(), b"unwedged");
        assert_eq!(rx.recv().unwrap(), b"after");
    }

    #[test]
    fn eager_ring_functionally_identical() {
        let counters = Arc::new(PcieCounters::new());
        let cfg = RingConfig::local(4096, Side::Host).eager();
        let ring = RingBuf::new(cfg, counters);
        let (tx, rx) = ring.endpoints();
        for i in 0..500u32 {
            tx.send_blocking(&i.to_le_bytes()).unwrap();
            assert_eq!(rx.recv_blocking(), i.to_le_bytes());
        }
    }

    #[test]
    fn send_batch_roundtrip_with_one_publish() {
        let (tx, rx) = local_ring(1 << 14);
        let wave: Vec<Vec<u8>> = (0..32u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let before = tx.publishes();
        let (sent, rest) = tx.send_batch(wave.clone()).unwrap();
        assert_eq!(sent, 32);
        assert!(rest.is_empty());
        // The whole wave rode one combiner pass and one tail store.
        assert_eq!(tx.publishes() - before, 1, "lazy wave pays one doorbell");
        for want in &wave {
            assert_eq!(&rx.recv_blocking(), want);
        }
    }

    #[test]
    fn send_batch_bytes_identical_to_unbatched() {
        // Batching is a publish optimization, not a wire change: a
        // consumer must see byte-identical frames in the same order.
        let (btx, brx) = local_ring(1 << 13);
        let (utx, urx) = local_ring(1 << 13);
        let wave: Vec<Vec<u8>> = (0..20u64)
            .map(|i| {
                let mut f = vec![0xc3; (i as usize % 96) + 1];
                f[0] = i as u8;
                f
            })
            .collect();
        for f in &wave {
            utx.send_blocking(f).unwrap();
        }
        btx.send_batch_blocking(wave).unwrap();
        for _ in 0..20 {
            assert_eq!(brx.recv_blocking(), urx.recv_blocking());
        }
    }

    #[test]
    fn send_batch_returns_unsent_tail_when_full() {
        let (tx, rx) = local_ring(1024);
        // 64-byte payloads: 1024/72 ≈ 14 fit at most; ask for 40.
        let wave: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; 64]).collect();
        let (sent, rest) = tx.send_batch(wave).unwrap();
        assert!(sent > 0 && sent < 40, "partial wave, got {sent}");
        assert_eq!(rest.len(), 40 - sent);
        assert_eq!(rest[0][0], sent as u8, "tail preserves order");
        for i in 0..sent {
            assert_eq!(rx.recv_blocking(), vec![i as u8; 64]);
        }
        // The remainder resubmits cleanly as the ring drains; the full
        // tail (1872 bytes) never fits a 1024-byte ring at once, so the
        // producer and consumer must interleave.
        let mut rest = rest;
        let mut got = sent;
        while !rest.is_empty() {
            let (_, tail) = tx.send_batch(rest).unwrap();
            rest = tail;
            while let Ok(frame) = rx.recv() {
                assert_eq!(frame, vec![got as u8; 64]);
                got += 1;
            }
        }
        assert_eq!(got, 40);
    }

    #[test]
    fn send_wave_sends_a_range_and_leaves_the_wave_intact() {
        let (tx, rx) = local_ring(1024);
        let mut wave = Wave::new();
        for i in 0..40u8 {
            wave.push(&[i; 64]);
        }
        let before = tx.publishes();
        let first = tx.send_wave(&mut wave, 0..40).unwrap();
        assert!(first > 0 && first < 40, "partial wave, got {first}");
        assert_eq!(tx.publishes() - before, 1, "one publish per accepted run");
        assert_eq!(wave.len(), 40, "the wave is lent, not consumed");
        let mut sent = first;
        let mut got = 0u8;
        while got < 40 {
            while let Ok(frame) = rx.recv() {
                assert_eq!(frame, [got; 64]);
                got += 1;
            }
            // Offer only up to frame 30 until the rest is due.
            let upto = if sent < 30 { 30 } else { 40 };
            sent += tx.send_wave(&mut wave, sent..upto).unwrap();
        }
        assert_eq!(sent, 40);
        assert_eq!(tx.send_wave(&mut wave, 40..40).unwrap(), 0, "none offered");
    }

    /// Frames whose sizes do not divide the capacity, so some wrap.
    fn ragged_frames(n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| {
                let mut f = vec![(i % 251) as u8; 1 + (i * 37) % 120];
                f[0] = i as u8;
                f
            })
            .collect()
    }

    #[test]
    fn recv_with_lends_the_sent_bytes_staged_unstaged_and_wrapped() {
        let rings = [
            // Remote lazy consumer: payloads come from the batched pull.
            RingConfig::over_pcie(512, Side::Coproc, Side::Coproc, Side::Host),
            // Local consumer: nothing is staged.
            RingConfig::local(512, Side::Host),
            // Eager remote consumer: element-wise pulls, nothing staged.
            RingConfig::over_pcie(512, Side::Coproc, Side::Coproc, Side::Host).eager(),
        ];
        for cfg in rings {
            let mk = || RingBuf::new(cfg.clone(), Arc::new(PcieCounters::new())).endpoints();
            // One ring is drained by lending, its twin by the decoupled
            // dequeue / copy / release steps `recv` used to be made of.
            let (ltx, lrx) = mk();
            let (ctx, crx) = mk();
            // 300 ragged frames through a 512-byte ring wrap many times.
            let frames = ragged_frames(300);
            for pair in frames.chunks(2) {
                // Two at a time, so a staged span holds more than one.
                for frame in pair {
                    ltx.send_blocking(frame).unwrap();
                    ctx.send_blocking(frame).unwrap();
                }
                for frame in pair {
                    assert_eq!(&lrx.recv_with(<[u8]>::to_vec).unwrap(), frame);
                    let rb = crx.dequeue().unwrap();
                    let mut copied = vec![0u8; rb.len()];
                    crx.copy_from(&rb, &mut copied);
                    crx.set_done(rb);
                    assert_eq!(&copied, frame);
                }
            }
            assert_eq!(lrx.recv_with(|_| ()).unwrap_err(), RingError::WouldBlock);
        }
    }

    #[test]
    fn recv_with_panic_consumes_its_element_and_frees_its_slot() {
        for cfg in [
            RingConfig::over_pcie(256, Side::Coproc, Side::Coproc, Side::Host),
            RingConfig::local(256, Side::Host),
        ] {
            let (tx, rx) = RingBuf::new(cfg, Arc::new(PcieCounters::new())).endpoints();
            for i in 0..3u8 {
                tx.send(&[i; 40]).unwrap();
            }
            assert_eq!(rx.recv().unwrap(), [0; 40]);
            let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rx.recv_with(|b| {
                    assert_eq!(b, [1; 40]);
                    panic!("decoder bug");
                })
            }));
            assert!(unwound.is_err());
            // Not delivered twice, and nothing after it lost.
            assert_eq!(rx.recv().unwrap(), [2; 40]);
            assert_eq!(rx.recv().unwrap_err(), RingError::WouldBlock);
            // Its slot was released: the ring still takes several laps.
            for i in 0..40u8 {
                tx.send_blocking(&[i; 40]).unwrap();
                assert_eq!(rx.recv_blocking(), [i; 40]);
            }
        }
    }

    #[test]
    fn send_batch_rejects_oversize_without_sending() {
        let (tx, rx) = local_ring(1024);
        let wave = vec![vec![1u8; 8], vec![2u8; 4096]];
        assert!(matches!(tx.send_batch(wave), Err(RingError::TooBig)));
        assert!(rx.recv().is_err(), "nothing was enqueued");
    }

    #[test]
    fn eager_send_batch_publishes_per_frame() {
        // The eager ablation has no lazy frontier: every reserve stores
        // the authoritative tail, so a wave still pays ~one doorbell per
        // frame. This asymmetry is E8's reply-side baseline.
        let counters = Arc::new(PcieCounters::new());
        let ring = RingBuf::new(RingConfig::local(1 << 14, Side::Host).eager(), counters);
        let (tx, rx) = ring.endpoints();
        let wave: Vec<Vec<u8>> = (0..16u32).map(|i| i.to_le_bytes().to_vec()).collect();
        let before = tx.publishes();
        let (sent, _) = tx.send_batch(wave.clone()).unwrap();
        assert_eq!(sent, 16);
        assert!(
            tx.publishes() - before >= 16,
            "eager mode keeps per-frame publication"
        );
        for want in &wave {
            assert_eq!(&rx.recv_blocking(), want);
        }
    }
}
