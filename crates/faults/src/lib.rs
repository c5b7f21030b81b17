#![warn(missing_docs)]

//! Deterministic fault-injection substrate for the Solros-rs stack.
//!
//! The reproduction's hardware substrates each expose native injection
//! knobs — poisoned ring headers ([`FaultKind::RingCorrupt`]), PCIe
//! window stalls and dropped writes, NVMe media/timeout/queue-full
//! bursts, proxy worker panics — but an experiment needs more than knobs:
//! it needs a *schedule* that decides, reproducibly, which fault fires
//! when. This crate provides that schedule ([`FaultPlan`]), the taxonomy
//! it draws from ([`FaultKind`]), and the bookkeeping a recovery
//! experiment reports ([`RecoveryReport`]).
//!
//! The plan is seeded from [`solros_simkit::DetRng`], so the same seed
//! always produces the same fault sequence — the property the E5 CI smoke
//! relies on: a fixed seed must recover with zero hung tags every run.
//!
//! # Examples
//!
//! ```
//! use solros_faults::{FaultKind, FaultPlan};
//!
//! let plan = FaultPlan::generate(42, 1_000, 0.01);
//! let again = FaultPlan::generate(42, 1_000, 0.01);
//! assert_eq!(plan.events(), again.events(), "same seed, same schedule");
//! for ev in plan.events() {
//!     assert!(ev.at_op < 1_000);
//!     assert!(ev.burst >= 1);
//! }
//! ```

pub mod hooks;

pub use hooks::{EngineFaults, LeaseFaults};

use std::fmt;

use solros_simkit::DetRng;

/// The fault taxonomy: one variant per injection point at a layer
/// boundary of the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A published ring element carries a torn/garbage header
    /// (`Producer::corrupt_next`); the consumer reports `Corrupt`.
    RingCorrupt,
    /// A producer reserves an element and never publishes it (crash
    /// mid-element): the ring wedges cleanly behind the hole.
    RingWedge,
    /// Remote PCIe window accesses pause (`Window::inject_stalls`),
    /// modeling bus congestion or link retraining.
    PcieStall,
    /// A remote bulk write is silently lost
    /// (`Window::inject_dropped_writes`) — a dropped posted write.
    PcieDroppedWrite,
    /// NVMe data commands fail with a media error
    /// (`NvmeDevice::inject_faults`).
    NvmeMedia,
    /// NVMe data commands lose their completion
    /// (`NvmeDevice::inject_timeouts`).
    NvmeTimeout,
    /// NVMe submission batches are refused whole
    /// (`NvmeDevice::inject_queue_full`).
    NvmeQueueFull,
    /// A proxy worker thread panics mid-request
    /// ([`EngineFaults::arm_worker_panics`]); the proxy engine's
    /// containment must convert it into an `Io` error reply.
    WorkerPanic,
    /// A co-processor stub stops draining its rings (crash/disconnect);
    /// detection is by deadline, recovery by link reset.
    StubCrash,
    /// A lease recall notification is lost before the holder sees it
    /// ([`LeaseFaults::arm_lost_recalls`]); the manager's recall deadline
    /// must force-revoke the lease instead of waiting forever.
    LeaseRecallLost,
    /// A lease's generation is bumped without a recall
    /// ([`LeaseFaults::arm_stale_generations`]); the stub must detect the
    /// mismatch on its next leased op and fall back to the RPC path.
    LeaseStaleGeneration,
    /// An entire engine shard (one NUMA domain's proxy) dies mid-cycle
    /// ([`EngineFaults::arm_domain_crashes`]); the shard supervisor must
    /// fence it, settle its in-flight tags as `Gone`, re-steer its
    /// listeners, and start a replacement over the same rings.
    DomainCrash,
    /// An engine shard stops making progress without exiting — its
    /// heartbeat epoch freezes ([`EngineFaults::arm_domain_wedges`]);
    /// detection is by heartbeat stall, recovery identical to a crash.
    DomainWedge,
}

impl FaultKind {
    /// Every kind, in a stable order (used to spread a schedule across
    /// the whole taxonomy).
    pub const ALL: [FaultKind; 13] = [
        FaultKind::RingCorrupt,
        FaultKind::RingWedge,
        FaultKind::PcieStall,
        FaultKind::PcieDroppedWrite,
        FaultKind::NvmeMedia,
        FaultKind::NvmeTimeout,
        FaultKind::NvmeQueueFull,
        FaultKind::WorkerPanic,
        FaultKind::StubCrash,
        FaultKind::LeaseRecallLost,
        FaultKind::LeaseStaleGeneration,
        FaultKind::DomainCrash,
        FaultKind::DomainWedge,
    ];

    /// True when recovery requires a transport link reset (drain → scrub
    /// → reset) rather than a bounded retry.
    pub fn needs_link_reset(self) -> bool {
        matches!(
            self,
            FaultKind::RingCorrupt | FaultKind::RingWedge | FaultKind::StubCrash
        )
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultKind::RingCorrupt => "ring-corrupt",
            FaultKind::RingWedge => "ring-wedge",
            FaultKind::PcieStall => "pcie-stall",
            FaultKind::PcieDroppedWrite => "pcie-dropped-write",
            FaultKind::NvmeMedia => "nvme-media",
            FaultKind::NvmeTimeout => "nvme-timeout",
            FaultKind::NvmeQueueFull => "nvme-queue-full",
            FaultKind::WorkerPanic => "worker-panic",
            FaultKind::StubCrash => "stub-crash",
            FaultKind::LeaseRecallLost => "lease-recall-lost",
            FaultKind::LeaseStaleGeneration => "lease-stale-generation",
            FaultKind::DomainCrash => "domain-crash",
            FaultKind::DomainWedge => "domain-wedge",
        };
        write!(f, "{s}")
    }
}

/// One scheduled fault: at operation `at_op` of the workload, arm `kind`
/// with a burst of `burst` consecutive failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Zero-based index of the workload operation before which the fault
    /// is armed.
    pub at_op: u64,
    /// Which injector to arm.
    pub kind: FaultKind,
    /// How many consecutive failures the injector should produce.
    pub burst: u64,
}

/// A deterministic, seeded fault schedule over a fixed-length workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// Generates a schedule for a workload of `ops` operations where each
    /// operation has probability `rate` of arming a fault. Kinds cycle
    /// through the whole taxonomy (so every injector is exercised before
    /// any repeats); bursts are geometric-ish, 1–4. The same `(seed, ops,
    /// rate)` triple always yields the same plan.
    pub fn generate(seed: u64, ops: u64, rate: f64) -> FaultPlan {
        let mut rng = DetRng::seed(seed);
        let mut events = Vec::new();
        let mut kind_cursor = 0usize;
        for op in 0..ops {
            if rng.chance(rate) {
                let kind = FaultKind::ALL[kind_cursor % FaultKind::ALL.len()];
                kind_cursor += 1;
                let burst = 1 + rng.below(4);
                events.push(FaultEvent {
                    at_op: op,
                    kind,
                    burst,
                });
            }
        }
        FaultPlan { seed, events }
    }

    /// A plan with exactly the given events (for hand-built scenarios).
    pub fn from_events(seed: u64, mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by_key(|e| e.at_op);
        FaultPlan { seed, events }
    }

    /// The seed this plan was generated from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled events in workload order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Events scheduled at exactly operation `op` (the driver calls this
    /// once per workload step and arms what it returns).
    pub fn due_at(&self, op: u64) -> impl Iterator<Item = &FaultEvent> {
        self.events.iter().filter(move |e| e.at_op == op)
    }

    /// Count of scheduled events of one kind.
    pub fn count_of(&self, kind: FaultKind) -> usize {
        self.events.iter().filter(|e| e.kind == kind).count()
    }
}

/// What a recovery experiment measured for one fault scenario.
///
/// The recovery state machine is *detect → drain → scrub → reset*; the
/// report captures whether each stage completed and how long detection
/// plus recovery took end to end.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RecoveryReport {
    /// Faults injected during the scenario.
    pub injected: u64,
    /// Requests that completed successfully despite the faults.
    pub completed: u64,
    /// Requests drained with an error completion during link resets.
    pub drained: u64,
    /// Requests retried (at any layer) before succeeding.
    pub retried: u64,
    /// Link resets performed.
    pub resets: u64,
    /// Tags still pending after recovery — must be zero for a pass.
    pub hung_tags: u64,
    /// In-flight credits still held after recovery — must be zero.
    pub leaked_credits: u64,
    /// Wall-clock nanoseconds from fault arming to detection, summed.
    pub detect_ns: u64,
    /// Wall-clock nanoseconds from detection to a usable link, summed.
    pub recover_ns: u64,
    /// Reply waves that had their unsent tail resubmitted because a
    /// response ring filled mid-wave (backpressure, not loss).
    pub reply_wave_resubmits: u64,
    /// TCP events discarded because an event ring was full — must be
    /// zero for a pass: a dropped `Accepted`/`Closed` strands a client.
    pub event_drops: u64,
    /// Engine shards fenced and replaced by the supervisor
    /// ([`FaultKind::DomainCrash`] / [`FaultKind::DomainWedge`]).
    pub domains_failed_over: u64,
    /// Wall-clock nanoseconds a failed domain's flows went unserved
    /// (fence to replacement accepting), summed across failovers.
    pub blackout_ns: u64,
}

impl RecoveryReport {
    /// True when recovery left no permanently hung tag, no leaked
    /// credit, and no silently dropped TCP event — the E5/E9 acceptance
    /// invariant.
    pub fn clean(&self) -> bool {
        self.hung_tags == 0 && self.leaked_credits == 0 && self.event_drops == 0
    }

    /// Goodput fraction: completed / (completed + drained), 1.0 when idle.
    pub fn goodput(&self) -> f64 {
        let total = self.completed + self.drained;
        if total == 0 {
            1.0
        } else {
            self.completed as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let a = FaultPlan::generate(7, 10_000, 0.02);
        let b = FaultPlan::generate(7, 10_000, 0.02);
        assert_eq!(a, b);
        assert!(!a.events().is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::generate(1, 10_000, 0.02);
        let b = FaultPlan::generate(2, 10_000, 0.02);
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn rate_scales_event_count() {
        let sparse = FaultPlan::generate(3, 50_000, 0.001).events().len();
        let dense = FaultPlan::generate(3, 50_000, 0.05).events().len();
        assert!(dense > sparse * 10, "dense {dense} vs sparse {sparse}");
    }

    #[test]
    fn kinds_cycle_through_taxonomy() {
        let plan = FaultPlan::generate(11, 100_000, 0.01);
        for kind in FaultKind::ALL {
            assert!(plan.count_of(kind) > 0, "{kind} never scheduled");
        }
    }

    #[test]
    fn due_at_returns_events_in_order() {
        let plan = FaultPlan::from_events(
            0,
            vec![
                FaultEvent {
                    at_op: 5,
                    kind: FaultKind::NvmeMedia,
                    burst: 2,
                },
                FaultEvent {
                    at_op: 1,
                    kind: FaultKind::RingCorrupt,
                    burst: 1,
                },
            ],
        );
        assert_eq!(plan.events()[0].at_op, 1, "sorted by op");
        assert_eq!(plan.due_at(5).count(), 1);
        assert_eq!(plan.due_at(2).count(), 0);
    }

    #[test]
    fn recovery_report_invariants() {
        let mut r = RecoveryReport {
            injected: 4,
            completed: 90,
            drained: 10,
            ..Default::default()
        };
        assert!(r.clean());
        assert!((r.goodput() - 0.9).abs() < 1e-9);
        r.hung_tags = 1;
        assert!(!r.clean());
        assert_eq!(RecoveryReport::default().goodput(), 1.0);
    }

    #[test]
    fn link_reset_classification() {
        assert!(FaultKind::StubCrash.needs_link_reset());
        assert!(FaultKind::RingCorrupt.needs_link_reset());
        assert!(!FaultKind::NvmeMedia.needs_link_reset());
        assert!(!FaultKind::WorkerPanic.needs_link_reset());
    }
}
