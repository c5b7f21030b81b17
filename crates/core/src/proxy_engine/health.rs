//! Shard health: the heartbeat/fencing handshake between an engine
//! shard and the domain supervisor.
//!
//! Every engine cycle bumps a heartbeat epoch. The supervisor samples
//! the epoch on its tick: a shard whose epoch stopped advancing is
//! wedged; a shard that marked itself down crashed. An idle shard
//! parks on its doorbell between cycles — for at most a millisecond at
//! a time, so it keeps beating — and flags itself parked while it
//! sleeps: asleep by choice is not wedged, however late the scheduler
//! delivers the wake-up. Either way the
//! supervisor *fences* the shard — after which the serve loop (if it is
//! still spinning in the wedge hold) exits and the thread becomes
//! joinable — and then collects the [`Wreck`]: the complete set of
//! work the shard had admitted but will never serve, pre-encoded as
//! `Gone` replies, plus the tenant charges to refund.
//!
//! The wreck is dumped *by the dying shard itself* at a cycle boundary,
//! where the pipeline's in-flight state is fully enumerable: the gate's
//! queued jobs, parked waiters, the ready backlog, the handler's staged
//! wave, and any replies already settled but not yet published. That
//! enumerability is what makes failover exactly-once: every admitted
//! tag is either in the wreck (settled `Gone` by the supervisor) or was
//! already answered — never both, never neither.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};

use solros_simkit::sync::Mutex;

/// Shard is serving (or wedged — a wedge keeps the state `LIVE` and is
/// detected by heartbeat stall, exercising the real detection path).
const LIVE: u8 = 0;
/// Shard crashed: the serve loop exited abruptly after dumping a wreck.
const DOWN: u8 = 1;
/// Supervisor fenced the shard; a wedge-held loop exits on seeing this.
const FENCED: u8 = 2;

/// Everything a dead shard owes the rest of the machine.
#[derive(Default)]
pub struct Wreck {
    /// Encoded reply frames to publish on the dead shard's response
    /// rings: already-computed replies verbatim, plus one `Gone` per
    /// admitted-but-unserved tag (credit-stamped where one was granted).
    pub replies: Vec<(usize, Vec<u8>)>,
    /// Per-tenant `(ops, bytes)` charged at admission for work that was
    /// never served; the supervisor refunds them in the host QoS
    /// directory.
    pub refunds: Vec<(u8, u64, u64)>,
}

/// One staged-but-unflushed wave entry abandoned by a dying handler
/// (see `OpHandler::abort_staged`).
pub struct StagedPart {
    /// Lane whose response ring the reply was owed on.
    pub lane: usize,
    /// Wire tag of the staged request.
    pub tag: u32,
    /// Credit grant the reply would have carried.
    pub credit: Option<u8>,
    /// Tenant charged at admission.
    pub tenant: u8,
    /// Payload bytes charged at admission.
    pub bytes: u64,
}

/// Shared health cell: the engine beats and dumps, the supervisor
/// samples and fences.
#[derive(Default)]
pub struct ShardHealth {
    heartbeat: AtomicU64,
    state: AtomicU8,
    /// Set by the serve loop around a doorbell park.
    parked: AtomicBool,
    wreck: Mutex<Option<Wreck>>,
}

impl ShardHealth {
    /// A live, never-beaten cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// One engine cycle happened.
    pub fn beat(&self) {
        self.heartbeat.fetch_add(1, Ordering::Release);
    }

    /// The serve loop is about to park on (true) or has returned from
    /// (false) its doorbell.
    pub fn set_parked(&self, parked: bool) {
        self.parked.store(parked, Ordering::Release);
    }

    /// True while the shard sleeps on its doorbell with nothing to do;
    /// the supervisor does not count a quiet heartbeat against it.
    pub fn is_parked(&self) -> bool {
        self.parked.load(Ordering::Acquire)
    }

    /// Heartbeat epoch (monotonic while the shard is live).
    pub fn beats(&self) -> u64 {
        self.heartbeat.load(Ordering::Acquire)
    }

    /// The shard died abruptly: record the wreck and flag down. Called
    /// by the serve loop as its last act before returning.
    pub fn crash(&self, wreck: Wreck) {
        *self.wreck.lock() = Some(wreck);
        self.state.store(DOWN, Ordering::Release);
    }

    /// Records the wreck without touching the state — the forcible-fence
    /// exit, where the supervisor already moved the cell to fenced and
    /// the (live but suspected) serve loop complies at its next cycle
    /// boundary.
    pub fn park_wreck(&self, wreck: Wreck) {
        *self.wreck.lock() = Some(wreck);
    }

    /// The shard wedged: record the wreck, then spin — heartbeat frozen,
    /// nothing served — until the supervisor fences it (or the machine
    /// shuts down). Returns once fenced, after which the thread exits
    /// and is joinable.
    pub fn wedge_hold(&self, wreck: Wreck, shutdown: &AtomicBool) {
        *self.wreck.lock() = Some(wreck);
        while !shutdown.load(Ordering::Relaxed) && self.state.load(Ordering::Acquire) != FENCED {
            std::thread::yield_now();
        }
    }

    /// True while the shard is serving (or wedged — a wedge is only
    /// distinguishable by its frozen heartbeat).
    pub fn is_live(&self) -> bool {
        self.state.load(Ordering::Acquire) == LIVE
    }

    /// True once the serve loop declared itself dead.
    pub fn is_down(&self) -> bool {
        self.state.load(Ordering::Acquire) == DOWN
    }

    /// Fences the shard: no recovery, the supervisor owns its remains.
    /// Idempotent; releases a wedge-held serve loop.
    pub fn fence(&self) {
        self.state.store(FENCED, Ordering::Release);
    }

    /// True once fenced.
    pub fn is_fenced(&self) -> bool {
        self.state.load(Ordering::Acquire) == FENCED
    }

    /// Collects the wreck (once). The supervisor calls this after
    /// fencing and joining the shard thread, so the dump is complete
    /// and no longer racing the dying shard.
    pub fn take_wreck(&self) -> Option<Wreck> {
        self.wreck.lock().take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn crash_flags_down_and_yields_the_wreck_once() {
        let h = ShardHealth::new();
        assert!(!h.is_down());
        h.beat();
        h.beat();
        assert_eq!(h.beats(), 2);
        h.crash(Wreck {
            replies: vec![(0, vec![1, 2, 3])],
            refunds: vec![(4, 1, 100)],
        });
        assert!(h.is_down());
        let w = h.take_wreck().expect("wreck");
        assert_eq!(w.replies.len(), 1);
        assert_eq!(w.refunds, vec![(4, 1, 100)]);
        assert!(h.take_wreck().is_none(), "collected exactly once");
    }

    #[test]
    fn wedge_hold_spins_until_fenced() {
        let h = Arc::new(ShardHealth::new());
        let shutdown = Arc::new(AtomicBool::new(false));
        let held = {
            let (h, shutdown) = (Arc::clone(&h), Arc::clone(&shutdown));
            std::thread::spawn(move || h.wedge_hold(Wreck::default(), &shutdown))
        };
        // The holder must not exit on its own.
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(!held.is_finished());
        // A wedge is not a crash — only the stalled heartbeat gives it
        // away.
        assert!(!h.is_down());
        h.fence();
        held.join().expect("held thread exits once fenced");
        assert!(h.take_wreck().is_some());
    }
}
