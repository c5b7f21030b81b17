#![warn(missing_docs)]

//! Simulated network fabric for Solros-rs.
//!
//! The paper's evaluation drives the server's 100 GbE NIC from a separate
//! client machine (§6). This crate simulates that outside world:
//!
//! * [`fabric::Network`] — the NIC plus remote clients: listeners,
//!   connection establishment, byte-stream delivery, and teardown, with
//!   correct refusal/reset semantics. The TCP *proxy* (in `solros`) and
//!   the baselines' on-Phi TCP stacks both terminate connections here.
//! * [`perf::NetPerf`] — the timed-mode cost model: wire latency and
//!   bandwidth, per-message TCP stack costs on host vs. Xeon Phi cores,
//!   transport-forwarding overheads, and the heavy scheduling-jitter tail
//!   that gives the stock Phi its 7× worse 99th-percentile latency
//!   (Figure 1b).

pub mod fabric;
pub mod perf;

pub use fabric::{ConnId, EndKind, IngressHook, Network, NetworkError};
pub use perf::NetPerf;
