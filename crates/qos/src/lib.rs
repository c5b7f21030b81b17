//! Quality-of-service layer between Solros transport rings and proxies.
//!
//! The Solros control plane multiplexes every co-processor's I/O onto
//! shared host resources (NVMe queues, the host TCP stack, PCIe links).
//! Without admission control, one misbehaving co-processor can flood its
//! rings and collapse tail latency for everyone else. This crate provides
//! the missing layer:
//!
//! * **Per-(tenant, priority-class) queues** drained by deficit-weighted
//!   round robin ([`HostGate`], one shard per engine domain) so
//!   configured weights translate into throughput shares.
//! * **Token-bucket rate limiting** ([`TokenBucket`]) on both ops/s and
//!   bytes/s per flow, following the shaper idiom of
//!   `solros_simkit::resource`.
//! * **Deadline-aware dispatch with overload shedding**: an overload
//!   detector sheds best-effort work *before* it queues, and requests that
//!   outlive their deadline are shed at dispatch. Shedding is never silent —
//!   every shed request surfaces to the caller as an `EAGAIN`-style
//!   `Overloaded` RPC error.
//! * **Credit-based backpressure** ([`CreditPool`]) propagated to
//!   data-plane stubs via window grants piggybacked on RPC replies.
//! * **A stats ledger** ([`QosStats`]) with per-class admitted/shed/queued
//!   counters plus queue-depth and wait-time distributions built on
//!   `solros_simkit::stats`.
//! * **A replicated per-tenant ledger** ([`TenantLedger`]) driven by the
//!   shared operation log, so every control-plane shard charges and
//!   reads tenant budgets from a socket-local replica.
//! * **A host-global tenant→service→flow hierarchy** ([`HostScheduler`]
//!   above the gate shards): tenants are arbitrated against host-wide
//!   budgets rebalanced over the tenant ledger, service shares split
//!   each tenant's credit between FS and TCP, and flow state lives in
//!   hash-indexed, epoch-GC'd tables that stay O(active tenants).
//!
//! All scheduler state is driven by an explicit `now_ns` clock parameter,
//! so the same code runs under the real clock inside proxies and under a
//! virtual clock in deterministic experiments and property tests.

#![warn(missing_docs)]

mod bucket;
mod config;
mod credit;
mod host;
mod sched;
mod stats;
mod tenant;

pub use bucket::TokenBucket;
pub use config::{ClassConfig, QosClass, QosConfig};
pub use credit::CreditPool;
pub use host::{HostConfig, HostGate, HostQosSnapshot, HostScheduler, Service, SERVICE_COUNT};
pub use sched::{Dispatch, FlowSpec, ShedReason, Verdict};
pub use stats::{FlowSnapshot, QosStats};
pub use tenant::{TenantLedger, TenantLedgerReplica, TenantOp, TenantUsage, TENANT_SLOTS};
