#![warn(missing_docs)]

//! Simulated NVMe SSD for Solros-rs.
//!
//! The paper's file-system service drives an Intel 750 NVMe SSD directly
//! from the host, including the two custom vectored ioctls (`p2p_read`,
//! `p2p_write`) added in §5: all NVMe commands belonging to one
//! `read`/`write` system call are batched so the doorbell rings once and
//! the device raises a single interrupt — the optimization that lets
//! Solros outperform even the host's own file I/O path (Figure 1a).
//!
//! This crate reproduces the device:
//!
//! * [`store::BlockStore`] — the in-memory backing store, in chunks of
//!   one maximum-size command's blocks allocated on first write, so a
//!   command's run moves in one copy per chunk;
//! * [`queue::QueuePair`] — submission/completion rings with doorbells and
//!   phase bits;
//! * [`device::NvmeDevice`] — command execution, DMA into arbitrary PCIe
//!   windows (host memory or peer-to-peer into co-processor memory),
//!   interrupt accounting, and fault injection;
//! * [`perf::NvmePerf`] — the timed-mode performance model (2.4 GB/s
//!   sequential read, 1.2 GB/s write, per-command latency, doorbell and
//!   interrupt overheads).

pub mod device;
pub mod error;
pub mod perf;
pub mod queue;
pub mod store;

pub use device::{DmaPtr, NvmeCommand, NvmeDevice, NvmeStats, MDTS_BLOCKS};
pub use error::NvmeError;
pub use perf::NvmePerf;
pub use store::{BlockStore, BLOCK_SIZE};
