//! Replicated per-tenant usage ledger.
//!
//! Budget accounting used to live in one shared structure that every
//! proxy locked on the admission path. With the control plane sharded
//! per NUMA domain, charges instead flow through an NRK-style operation
//! log ([`solros_oplog::OpLog`]): any engine shard appends
//! [`TenantOp::Charge`] records (batched per admission burst), and each
//! domain — plus the host-side observer — holds a [`TenantLedgerReplica`]
//! that applies the log locally. Reads never cross a socket; the log's
//! exactly-once cursor contract guarantees no charge is double-counted
//! on any replica.
//!
//! The log is configured without a lag bound (`max_lag = u64::MAX`):
//! ledger replicas have no authoritative side-channel to rebuild from,
//! so stragglers hold up trimming instead of being overrun.

use std::sync::Arc;

use solros_oplog::{LogConfig, LogStats, OpLog, ReplicaCursor, SyncOutcome};
use solros_simkit::sync::Mutex;

/// Tenant id space — ids ride in a `u8` frame header field.
pub const TENANT_SLOTS: usize = 256;

/// Compaction threshold for the ledger log.
const LEDGER_HIGH_WATER: usize = 4096;

/// One replicated ledger mutation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantOp {
    /// Charge `ops` admitted requests carrying `bytes` payload bytes to
    /// `tenant`'s ledger.
    Charge {
        /// Tenant being charged.
        tenant: u8,
        /// Requests admitted.
        ops: u64,
        /// Payload bytes across those requests.
        bytes: u64,
    },
    /// Replace `tenant`'s byte budget. `None` lifts the cap.
    SetBudget {
        /// Tenant whose budget changes.
        tenant: u8,
        /// New cap on cumulative charged bytes, or `None` for unlimited.
        bytes: Option<u64>,
    },
    /// Return `ops`/`bytes` previously charged to `tenant` — issued by
    /// the shard supervisor when a fenced domain's admitted-but-unserved
    /// requests are settled as `Gone`, so a failed domain never leaks
    /// budget. Saturating: a refund can never drive usage negative.
    Refund {
        /// Tenant being refunded.
        tenant: u8,
        /// Requests refunded.
        ops: u64,
        /// Payload bytes across those requests.
        bytes: u64,
    },
}

/// Point-in-time ledger state of one tenant, as seen by one replica.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TenantUsage {
    /// Requests charged so far.
    pub ops: u64,
    /// Bytes charged so far.
    pub bytes: u64,
    /// Byte budget, if capped.
    pub budget_bytes: Option<u64>,
}

impl TenantUsage {
    /// Whether charged bytes have met or passed the budget.
    pub fn over_budget(&self) -> bool {
        self.budget_bytes.is_some_and(|cap| self.bytes >= cap)
    }
}

/// The shared ledger log. Cheap to clone across shards via `Arc`.
pub struct TenantLedger {
    log: Arc<OpLog<TenantOp>>,
}

impl TenantLedger {
    /// Creates an empty ledger log.
    #[allow(clippy::new_without_default)]
    pub fn new() -> Arc<Self> {
        Arc::new(Self {
            log: OpLog::new(LogConfig {
                high_water: LEDGER_HIGH_WATER,
                max_lag: u64::MAX,
            }),
        })
    }

    /// Appends one charge. Engines batch per admission burst, so one
    /// append typically covers many admitted frames.
    pub fn charge(&self, tenant: u8, ops: u64, bytes: u64) {
        if ops == 0 && bytes == 0 {
            return;
        }
        self.log.append(TenantOp::Charge { tenant, ops, bytes });
    }

    /// Sets (or, with `None`, lifts) a tenant's byte budget.
    pub fn set_budget(&self, tenant: u8, bytes: Option<u64>) {
        self.log.append(TenantOp::SetBudget { tenant, bytes });
    }

    /// Appends one refund — the inverse of [`TenantLedger::charge`],
    /// used to reconcile charges for requests a fenced domain admitted
    /// but never served.
    pub fn refund(&self, tenant: u8, ops: u64, bytes: u64) {
        if ops == 0 && bytes == 0 {
            return;
        }
        self.log.append(TenantOp::Refund { tenant, ops, bytes });
    }

    /// Registers a new replica. It starts at the current log tail with an
    /// empty state, so replicas created before the first charge converge
    /// exactly; register observers at assembly time.
    pub fn replica(self: &Arc<Self>) -> TenantLedgerReplica {
        TenantLedgerReplica {
            ledger: Arc::clone(self),
            cursor: Mutex::new(self.log.register()),
            usage: (0..TENANT_SLOTS)
                .map(|_| Mutex::new(TenantUsage::default()))
                .collect(),
        }
    }

    /// Log instrumentation (depth, appends, compactions).
    pub fn log_stats(&self) -> LogStats {
        self.log.stats()
    }
}

/// One domain's local view of the ledger.
pub struct TenantLedgerReplica {
    ledger: Arc<TenantLedger>,
    cursor: Mutex<ReplicaCursor>,
    usage: Vec<Mutex<TenantUsage>>,
}

impl TenantLedgerReplica {
    /// Applies every outstanding log entry. Cheap (one atomic load) when
    /// already at the tail.
    pub fn sync(&self) {
        let mut cursor = self.cursor.lock();
        let outcome = self.ledger.log.sync(&mut cursor, |_, op| match *op {
            TenantOp::Charge { tenant, ops, bytes } => {
                let mut u = self.usage[tenant as usize].lock();
                u.ops += ops;
                u.bytes += bytes;
            }
            TenantOp::SetBudget { tenant, bytes } => {
                self.usage[tenant as usize].lock().budget_bytes = bytes;
            }
            TenantOp::Refund { tenant, ops, bytes } => {
                let mut u = self.usage[tenant as usize].lock();
                u.ops = u.ops.saturating_sub(ops);
                u.bytes = u.bytes.saturating_sub(bytes);
            }
        });
        debug_assert!(
            !matches!(outcome, SyncOutcome::Overrun),
            "ledger log is configured without a lag bound"
        );
    }

    /// This replica's view of `tenant`, after syncing to the tail.
    pub fn usage(&self, tenant: u8) -> TenantUsage {
        self.sync();
        *self.usage[tenant as usize].lock()
    }

    /// Whether `tenant` is at or past its byte budget, on local state.
    pub fn over_budget(&self, tenant: u8) -> bool {
        self.usage(tenant).over_budget()
    }

    /// Aggregate `(ops, bytes)` charged across all tenants.
    pub fn total(&self) -> (u64, u64) {
        self.sync();
        self.usage.iter().fold((0, 0), |(o, b), u| {
            let u = u.lock();
            (o + u.ops, b + u.bytes)
        })
    }

    /// Entries this replica has yet to apply.
    pub fn lag(&self) -> u64 {
        self.ledger.log.lag(&self.cursor.lock())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_replicate_exactly_once_to_every_replica() {
        let ledger = TenantLedger::new();
        let a = ledger.replica();
        let b = ledger.replica();
        ledger.charge(3, 2, 4096);
        ledger.charge(3, 1, 512);
        ledger.charge(7, 5, 0);
        // Repeated syncs must not re-apply entries.
        a.sync();
        a.sync();
        assert_eq!(
            a.usage(3),
            TenantUsage {
                ops: 3,
                bytes: 4608,
                budget_bytes: None
            }
        );
        assert_eq!(a.usage(3), b.usage(3));
        assert_eq!(a.usage(7).ops, 5);
        assert_eq!(a.total(), (8, 4608));
        assert_eq!(a.total(), b.total());
    }

    #[test]
    fn budgets_gate_on_cumulative_bytes() {
        let ledger = TenantLedger::new();
        let r = ledger.replica();
        ledger.set_budget(2, Some(1000));
        ledger.charge(2, 1, 999);
        assert!(!r.over_budget(2));
        ledger.charge(2, 1, 1);
        assert!(r.over_budget(2));
        ledger.set_budget(2, None);
        assert!(!r.over_budget(2));
    }

    #[test]
    fn zero_charge_appends_nothing() {
        let ledger = TenantLedger::new();
        ledger.charge(1, 0, 0);
        ledger.refund(1, 0, 0);
        assert_eq!(ledger.log_stats().appends, 0);
    }

    #[test]
    fn refunds_reconcile_on_every_replica_and_saturate() {
        let ledger = TenantLedger::new();
        let a = ledger.replica();
        let b = ledger.replica();
        ledger.charge(4, 3, 3000);
        ledger.refund(4, 1, 1000);
        assert_eq!(a.usage(4).ops, 2);
        assert_eq!(a.usage(4).bytes, 2000);
        assert_eq!(a.usage(4), b.usage(4));
        // Over-refund (e.g. a crash between charge batching and the
        // wreck dump) clamps at zero rather than wrapping.
        ledger.refund(4, 10, 10_000);
        assert_eq!(b.usage(4), TenantUsage::default());
        assert_eq!(a.usage(4), b.usage(4));
    }

    #[test]
    fn late_replica_still_sees_history_retained_by_other_cursors() {
        let ledger = TenantLedger::new();
        let early = ledger.replica();
        for _ in 0..100 {
            ledger.charge(1, 1, 10);
        }
        // A replica registered now starts at the tail: it owns usage
        // going forward, not history.
        let late = ledger.replica();
        ledger.charge(1, 1, 10);
        assert_eq!(early.usage(1).ops, 101);
        assert_eq!(late.usage(1).ops, 1);
        assert_eq!(late.lag(), 0);
    }
}
