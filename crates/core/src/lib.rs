#![warn(missing_docs)]

//! Solros: a data-centric split-OS architecture for heterogeneous
//! computing (EuroSys '18).
//!
//! The crate assembles the paper's system on top of the simulated
//! hardware substrates:
//!
//! * [`transport`] — RPC channels built from the combining ring buffer:
//!   request/response rings mastered in co-processor memory (so
//!   co-processor RPC operations are local; the host pulls/pushes across
//!   PCIe, §4.3.1), and the inbound event ring mastered in host memory
//!   (so co-processor DMA engines pull inbound data, §4.4.1).
//! * [`fs_proxy`] / [`fs_api`] — the file-system service: a full-featured
//!   proxy on the host that chooses peer-to-peer or buffered data paths
//!   per request (§4.3.2), and a lean stub + POSIX-ish API on the
//!   co-processor (§4.3.1).
//! * [`tcp_proxy`] / [`net_api`] — the network service: the host-side TCP
//!   proxy with shared listening sockets and pluggable load balancing
//!   (§4.4.3), and the co-processor-side stub, whose waiting readers
//!   drain the inbound event ring themselves (§4.4.2).
//! * [`proxy_engine`] — the shared request pipeline behind both proxies:
//!   admission (one decode per frame), DWRR scheduling with priority
//!   inheritance, worker dispatch with panic containment, and uniform
//!   credit/shed/fault reply settlement.
//! * [`lease`] — the extent-lease data plane: generation-stamped leases
//!   over pre-resolved NVMe extents let a co-processor read and write
//!   hot files with zero RPCs per operation; conflicting RPC access
//!   parks behind the engine's external-holds table while the recall
//!   protocol settles the lease.
//! * [`control`] — boot: wires a [`solros_machine::Machine`] into one
//!   control plane and N data planes and runs the proxy threads.
//!
//! # Examples
//!
//! ```
//! use solros::control::Solros;
//! use solros_machine::MachineConfig;
//!
//! let system = Solros::boot(MachineConfig::small());
//! let fs = system.data_plane(0).fs();
//! let f = fs.create("/hello").unwrap();
//! fs.write_at(f, 0, b"solros").unwrap();
//! assert_eq!(fs.read_to_vec(f, 0, 6).unwrap(), b"solros");
//! system.shutdown();
//! ```

pub mod balancer;
pub mod control;
pub mod fs_api;
pub mod fs_proxy;
pub mod net_api;
pub mod proxy_engine;
pub mod retry;
pub mod supervisor;
pub mod tcp_proxy;
pub mod transport;
pub mod waitpolicy;

pub use balancer::{ConnMeta, LeastLoaded, LoadBalancer, RoundRobin};
pub use control::Solros;
pub use fs_api::{Batch, BatchResult, CoprocFs, PendingRead, PendingWrite};
pub use net_api::{CoprocNet, TcpListener, TcpStream};
pub use proxy_engine::{Access, EngineLane, GateJob, OpHandler, ProxyEngine, ProxyStats};
pub use retry::RetryPolicy;
pub use solros_lease as lease;
pub use solros_oplog::LogStats;
pub use solros_qos::{ClassConfig, QosClass, QosConfig, QosStats};
pub use supervisor::ShardSupervisor;
pub use transport::{ResetReport, Token};
