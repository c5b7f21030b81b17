//! The gate's vocabulary: what a flow is configured with, and what
//! [`HostGate`](crate::HostGate) answers on submit and dispatch.

use crate::config::{ClassConfig, QosClass};

/// Static description of one scheduled flow.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Name used in stats and reports (e.g. `"mic0/high"`).
    pub name: String,
    /// Priority class this flow belongs to.
    pub class: QosClass,
    /// DWRR weight; bytes served converge to the weight ratio.
    pub weight: u32,
    /// Queue slots before submissions are shed with `QueueFull`.
    pub queue_cap: usize,
    /// Queued requests older than this are shed at dispatch; 0 = none.
    pub deadline_ns: u64,
    /// Shed at submit while the gate is overloaded.
    pub sheddable: bool,
}

impl FlowSpec {
    /// Builds a spec from a per-class config.
    pub fn from_class(name: impl Into<String>, class: QosClass, cc: &ClassConfig) -> Self {
        Self {
            name: name.into(),
            class,
            weight: cc.weight.max(1),
            queue_cap: cc.queue_cap,
            deadline_ns: cc.deadline_us.saturating_mul(1_000),
            sheddable: cc.sheddable,
        }
    }
}

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The flow's queue was at capacity.
    QueueFull,
    /// The gate was overloaded and the flow is sheddable.
    Overload,
    /// The request sat queued past its deadline.
    DeadlineExpired,
}

/// Outcome of offering a request to the gate.
#[derive(Debug)]
pub enum Verdict<T> {
    /// Queued; it will come back out of [`HostGate::dispatch`](crate::HostGate::dispatch).
    Admitted,
    /// Refused before queueing; the caller must surface an error.
    Shed {
        /// The rejected payload, returned so the caller can reply.
        item: T,
        /// Why it was refused.
        reason: ShedReason,
    },
}

/// Outcome of asking the gate for the next request to serve.
#[derive(Debug)]
pub enum Dispatch<T> {
    /// Serve this request now.
    Run {
        /// Flow the request came from.
        flow: usize,
        /// The queued payload.
        item: T,
        /// Time the request spent queued, in nanoseconds.
        wait_ns: u64,
    },
    /// This request exceeded its deadline; reply with an overload error.
    Shed {
        /// Flow the request came from.
        flow: usize,
        /// The expired payload.
        item: T,
        /// Always [`ShedReason::DeadlineExpired`] today.
        reason: ShedReason,
    },
    /// Nothing is eligible: queues are empty, or no flow's head request
    /// fits its deficit yet.
    Idle,
}
