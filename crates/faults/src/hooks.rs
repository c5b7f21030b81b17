//! Engine-level injection hooks.
//!
//! The proxy engine owns panic containment and reply settlement for every
//! control-plane proxy, so the injectors that used to live inside each
//! proxy ([`crate::FaultKind::WorkerPanic`], the stub-crash reply drop)
//! now arm one shared [`EngineFaults`] and both proxies get them for
//! free. All counters are atomic: experiment drivers arm from the control
//! thread while engine workers consume.

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared injection state consumed by the proxy engine's dispatch and
/// settle stages.
#[derive(Debug, Default)]
pub struct EngineFaults {
    worker_panics: AtomicU64,
    dropped_replies: AtomicU64,
    domain_crashes: AtomicU64,
    domain_wedges: AtomicU64,
}

impl EngineFaults {
    /// A disarmed hook set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the next `n` request executions to panic mid-handler; the
    /// engine's containment must convert each into an `Io` error reply.
    pub fn arm_worker_panics(&self, n: u64) {
        self.worker_panics.fetch_add(n, Ordering::SeqCst);
    }

    /// Consumes one armed worker panic, returning true when the current
    /// execution should blow up.
    pub fn take_worker_panic(&self) -> bool {
        take_one(&self.worker_panics)
    }

    /// Arms the engine to discard the next `n` replies instead of posting
    /// them — modeling a crashed/disconnected stub whose response link is
    /// gone; client-side deadline detection must recover the tags.
    pub fn arm_dropped_replies(&self, n: u64) {
        self.dropped_replies.fetch_add(n, Ordering::SeqCst);
    }

    /// Consumes one armed reply drop, returning true when the reply about
    /// to be posted should vanish.
    pub fn take_dropped_reply(&self) -> bool {
        take_one(&self.dropped_replies)
    }

    /// Arms the next `n` engine cycles (on whichever shard consumes the
    /// charge) to die abruptly — the serve loop exits without draining,
    /// modeling a crashed domain ([`crate::FaultKind::DomainCrash`]). The
    /// shard supervisor must fence and fail the shard over.
    pub fn arm_domain_crashes(&self, n: u64) {
        self.domain_crashes.fetch_add(n, Ordering::SeqCst);
    }

    /// Consumes one armed domain crash; true when this engine cycle
    /// should die.
    pub fn take_domain_crash(&self) -> bool {
        take_one(&self.domain_crashes)
    }

    /// Arms the next `n` engine cycles to wedge: the loop spins forever
    /// without advancing its heartbeat or serving requests
    /// ([`crate::FaultKind::DomainWedge`]); the supervisor must detect
    /// the heartbeat stall and fence the shard.
    pub fn arm_domain_wedges(&self, n: u64) {
        self.domain_wedges.fetch_add(n, Ordering::SeqCst);
    }

    /// Consumes one armed domain wedge.
    pub fn take_domain_wedge(&self) -> bool {
        take_one(&self.domain_wedges)
    }

    /// Remaining armed worker panics (visible for test assertions).
    pub fn armed_worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::SeqCst)
    }

    /// Remaining armed reply drops.
    pub fn armed_dropped_replies(&self) -> u64 {
        self.dropped_replies.load(Ordering::SeqCst)
    }

    /// Remaining armed domain crashes.
    pub fn armed_domain_crashes(&self) -> u64 {
        self.domain_crashes.load(Ordering::SeqCst)
    }

    /// Remaining armed domain wedges.
    pub fn armed_domain_wedges(&self) -> u64 {
        self.domain_wedges.load(Ordering::SeqCst)
    }
}

/// Injection state for the extent-lease data plane, consumed by the
/// lease manager (lost recalls) and the stub-side lease table (stale
/// generations). One instance is shared by the manager and every stub so
/// experiment drivers arm from a single handle.
#[derive(Debug, Default)]
pub struct LeaseFaults {
    lost_recalls: AtomicU64,
    stale_generations: AtomicU64,
}

impl LeaseFaults {
    /// A disarmed hook set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arms the next `n` recall notifications to be lost in flight: the
    /// holder never learns of the recall, so the manager's deadline must
    /// force-revoke ([`crate::FaultKind::LeaseRecallLost`]).
    pub fn arm_lost_recalls(&self, n: u64) {
        self.lost_recalls.fetch_add(n, Ordering::SeqCst);
    }

    /// Consumes one armed lost recall; true when the notification about
    /// to be delivered should vanish.
    pub fn take_lost_recall(&self) -> bool {
        take_one(&self.lost_recalls)
    }

    /// Arms the next `n` lease grants to go stale without a recall — the
    /// manager silently bumps the generation
    /// ([`crate::FaultKind::LeaseStaleGeneration`]); the stub's
    /// generation check must catch it.
    pub fn arm_stale_generations(&self, n: u64) {
        self.stale_generations.fetch_add(n, Ordering::SeqCst);
    }

    /// Consumes one armed stale generation.
    pub fn take_stale_generation(&self) -> bool {
        take_one(&self.stale_generations)
    }

    /// Remaining armed lost recalls.
    pub fn armed_lost_recalls(&self) -> u64 {
        self.lost_recalls.load(Ordering::SeqCst)
    }

    /// Remaining armed stale generations.
    pub fn armed_stale_generations(&self) -> u64 {
        self.stale_generations.load(Ordering::SeqCst)
    }
}

/// Decrements `counter` if positive; true when a charge was consumed.
fn take_one(counter: &AtomicU64) -> bool {
    counter
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
        .is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn armed_charges_are_consumed_exactly() {
        let f = EngineFaults::new();
        assert!(!f.take_worker_panic(), "disarmed");
        f.arm_worker_panics(2);
        assert!(f.take_worker_panic());
        assert_eq!(f.armed_worker_panics(), 1);
        assert!(f.take_worker_panic());
        assert!(!f.take_worker_panic(), "charges spent");

        f.arm_dropped_replies(1);
        assert!(f.take_dropped_reply());
        assert!(!f.take_dropped_reply());
        assert_eq!(f.armed_dropped_replies(), 0);
    }

    #[test]
    fn domain_hooks_charge_and_drain() {
        let f = EngineFaults::new();
        assert!(!f.take_domain_crash(), "disarmed");
        assert!(!f.take_domain_wedge(), "disarmed");
        f.arm_domain_crashes(1);
        f.arm_domain_wedges(2);
        assert!(f.take_domain_crash());
        assert!(!f.take_domain_crash(), "charge spent");
        assert!(f.take_domain_wedge());
        assert_eq!(f.armed_domain_wedges(), 1);
        assert_eq!(f.armed_domain_crashes(), 0);
    }

    #[test]
    fn hooks_are_independent() {
        let f = EngineFaults::new();
        f.arm_worker_panics(1);
        assert!(!f.take_dropped_reply());
        assert!(f.take_worker_panic());
    }

    #[test]
    fn lease_hooks_charge_and_drain() {
        let f = LeaseFaults::new();
        assert!(!f.take_lost_recall(), "disarmed");
        assert!(!f.take_stale_generation(), "disarmed");
        f.arm_lost_recalls(1);
        f.arm_stale_generations(2);
        assert!(f.take_lost_recall());
        assert!(!f.take_lost_recall());
        assert_eq!(f.armed_stale_generations(), 2);
        assert!(f.take_stale_generation());
        assert!(f.take_stale_generation());
        assert!(!f.take_stale_generation());
        assert_eq!(f.armed_lost_recalls(), 0);
    }
}
