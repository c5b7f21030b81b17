//! QoS accounting ledger, exposed alongside the existing proxy stats.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use solros_simkit::stats::{Histogram, Summary};
use solros_simkit::sync::Mutex;
use solros_simkit::time::SimTime;

/// Distribution shards per flow. Each recording thread hashes to one
/// shard, so engine workers on different threads never contend on the
/// same histogram lock; readers merge all shards into one distribution.
const STAT_SHARDS: usize = 8;

/// Returns this thread's distribution shard, assigned round-robin on
/// first use so the recording threads spread evenly across shards.
fn stat_shard() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static SHARD: usize = NEXT.fetch_add(1, Ordering::Relaxed) % STAT_SHARDS;
    }
    SHARD.with(|s| *s)
}

/// Per-flow counters and distributions.
///
/// Counters are atomics so proxies can bump them from their service loop
/// while experiment harnesses read a consistent-enough snapshot. The
/// distributions are plain `simkit` values, so they sit behind locks —
/// but sharded per recording thread ([`STAT_SHARDS`]): the per-op path
/// takes an uncontended lock, and only snapshot readers pay the merge.
#[derive(Default)]
pub struct FlowStats {
    submitted: AtomicU64,
    admitted: AtomicU64,
    shed: AtomicU64,
    dispatched: AtomicU64,
    dispatched_bytes: AtomicU64,
    bypass_bytes: AtomicU64,
    wait: [Mutex<Histogram>; STAT_SHARDS],
    depth: [Mutex<Summary>; STAT_SHARDS],
}

impl FlowStats {
    fn merged_wait(&self) -> Histogram {
        let mut out = Histogram::default();
        for shard in &self.wait {
            out.merge(&shard.lock());
        }
        out
    }

    fn merged_depth(&self) -> Summary {
        let mut out = Summary::default();
        for shard in &self.depth {
            out.merge(&shard.lock());
        }
        out
    }
}

/// A point-in-time copy of one flow's ledger.
#[derive(Clone)]
pub struct FlowSnapshot {
    /// Flow name (e.g. `"mic0/high"`).
    pub name: String,
    /// Requests offered to the gate.
    pub submitted: u64,
    /// Requests accepted into the queue.
    pub admitted: u64,
    /// Requests shed (at submit or at dispatch).
    pub shed: u64,
    /// Requests handed to the proxy handler.
    pub dispatched: u64,
    /// Payload bytes across dispatched requests.
    pub dispatched_bytes: u64,
    /// Bytes moved by the flow's tenant *around* the gate — leased P2P
    /// I/O that never queued but is still charged to the ledger so
    /// bypass traffic cannot evade budgets.
    pub bypass_bytes: u64,
    /// Queue wait time distribution of dispatched requests.
    pub wait: Histogram,
    /// Queue depth observed at each submit.
    pub depth: Summary,
}

/// Ledger covering every flow of one QoS gate.
pub struct QosStats {
    names: Vec<String>,
    flows: Vec<FlowStats>,
}

impl QosStats {
    /// Creates a ledger for the given flow names.
    pub fn new(names: Vec<String>) -> Self {
        let flows = names.iter().map(|_| FlowStats::default()).collect();
        Self { names, flows }
    }

    /// Number of flows tracked.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    pub(crate) fn on_submit(&self, flow: usize, depth_after: usize) {
        let f = &self.flows[flow];
        f.submitted.fetch_add(1, Ordering::Relaxed);
        f.admitted.fetch_add(1, Ordering::Relaxed);
        f.depth[stat_shard()].lock().record(depth_after as f64);
    }

    pub(crate) fn on_shed(&self, flow: usize, was_admitted: bool) {
        let f = &self.flows[flow];
        if !was_admitted {
            f.submitted.fetch_add(1, Ordering::Relaxed);
        } else {
            // Deadline sheds leave the admitted count alone but move the
            // request from the queue to the shed column.
            f.admitted.fetch_sub(1, Ordering::Relaxed);
        }
        f.shed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_dispatch(&self, flow: usize, bytes: u64, wait_ns: u64) {
        let f = &self.flows[flow];
        f.dispatched.fetch_add(1, Ordering::Relaxed);
        f.dispatched_bytes.fetch_add(bytes, Ordering::Relaxed);
        f.wait[stat_shard()]
            .lock()
            .record(SimTime::from_ns(wait_ns));
    }

    /// Charges `bytes` of gate-bypassing (leased P2P) traffic to `flow`.
    /// Unlike the other hooks this one is public: the charge originates
    /// on the data plane, outside the scheduler.
    pub fn on_bypass(&self, flow: usize, bytes: u64) {
        self.flows[flow]
            .bypass_bytes
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Snapshot of one flow's ledger.
    pub fn flow(&self, flow: usize) -> FlowSnapshot {
        let f = &self.flows[flow];
        FlowSnapshot {
            name: self.names[flow].clone(),
            submitted: f.submitted.load(Ordering::Relaxed),
            admitted: f.admitted.load(Ordering::Relaxed),
            shed: f.shed.load(Ordering::Relaxed),
            dispatched: f.dispatched.load(Ordering::Relaxed),
            dispatched_bytes: f.dispatched_bytes.load(Ordering::Relaxed),
            bypass_bytes: f.bypass_bytes.load(Ordering::Relaxed),
            wait: f.merged_wait(),
            depth: f.merged_depth(),
        }
    }

    /// Snapshots for every flow, in registration order.
    pub fn snapshot(&self) -> Vec<FlowSnapshot> {
        (0..self.flows.len()).map(|i| self.flow(i)).collect()
    }

    /// Total requests shed across all flows.
    pub fn total_shed(&self) -> u64 {
        self.flows
            .iter()
            .map(|f| f.shed.load(Ordering::Relaxed))
            .sum()
    }
}

impl FlowSnapshot {
    /// Accounting invariant: everything offered was either admitted or
    /// shed; nothing disappears silently.
    ///
    /// `admitted` here counts requests still credited to the queue/handler
    /// path (deadline sheds are re-classified from admitted to shed), so
    /// `admitted + shed == submitted` must hold at quiescence.
    pub fn accounted(&self) -> bool {
        self.admitted + self.shed == self.submitted
    }
}
