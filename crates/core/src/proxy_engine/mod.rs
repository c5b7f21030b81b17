//! The shared proxy engine.
//!
//! Historically each control-plane proxy ([`crate::fs_proxy::FsProxy`],
//! [`crate::tcp_proxy::TcpProxy`]) carried a private copy of the same
//! request lifecycle: drain a burst from the request ring, decode, run
//! the QoS gate, dispatch for execution, settle credits and sheds. The two
//! copies had drifted (the TCP path decoded every frame twice; the FS
//! path owned the only panic-containment code) and every lifecycle fix
//! had to land twice.
//!
//! This module extracts that lifecycle once, behind the [`OpHandler`]
//! trait:
//!
//! ```text
//!   req ring ─► admission (decode once) ─► DWRR gate ─► dispatch
//!                   │                         │            │
//!                   └─ malformed ► error      └─ shed ►    ├─► stage (wave)
//!                                     credit-stamped reply ├─► exec ──► park
//!                                                          │     ▲  (lease)
//!                                                          │     └─ freed ┘
//!                                             flush ◄──────┘
//!                                               └─► resp ring (credit, faults)
//! ```
//!
//! Reply settlement is batched (the symmetric half of the request-side
//! wave): every reply producer posts into a per-lane [`ReplySettler`]
//! accumulator and the engine settles one vectored enqueue — one
//! control-variable publish on a lazy ring — per `(lane, cycle)`.
//!
//! The engine also implements priority inheritance for metadata
//! operations: an exclusive touch (an FS write) holds its resource from
//! gate admission to completion; a shared touch (an fstat) dispatched
//! onto a held resource defers, and the holder's flow is promoted to the
//! waiter's effective weight until the last hold releases.

mod admission;
mod engine;
mod health;
mod holds;
mod settle;
mod stats;

pub use admission::{Access, GateJob, ReadyJob};
pub use engine::{EngineLane, OpHandler, ProxyEngine, DRAIN_BURST};
pub use health::{ShardHealth, StagedPart, Wreck};
pub use holds::ExternalHolds;
pub use settle::ReplySettler;
pub use stats::ProxyStats;
