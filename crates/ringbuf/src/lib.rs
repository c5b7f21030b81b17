#![warn(missing_docs)]

//! The Solros transport service (§4.2 of the paper).
//!
//! The centerpiece is [`ring::RingBuf`]: a fixed-size ring buffer with
//! variable-size elements, shared across the PCIe bus in a master/shadow
//! arrangement, designed around four ideas:
//!
//! 1. **Decoupled data access** (§4.2.2): `enqueue`/`dequeue` only reserve
//!    or locate an element and return a handle into ring memory; the data
//!    copy (`copy_to`/`copy_from`) and the publish (`set_ready`/`set_done`)
//!    are separate steps, so many threads can move data concurrently while
//!    queue-order operations stay serialized.
//! 2. **Combining** (§4.2.3): queue operations funnel through an MCS-style
//!    request queue; the head thread becomes a *combiner* that batches up
//!    to a threshold of operations for its peers, slashing cache-line
//!    bouncing on the control variables. Only `atomic_swap` and
//!    `compare_and_swap` are required, matching the paper's minimal
//!    hardware contract.
//! 3. **Replicated control variables** (§4.2.4): the producer owns the
//!    authoritative `tail` in its local memory and keeps a *replica* of
//!    `head`, refreshed across PCIe only when the ring looks full (and
//!    vice versa for the consumer), so the common path issues no remote
//!    transactions. The eager variant (no replication) exists as the
//!    Figure 9 baseline.
//! 4. **Adaptive copy** (§4.2.4): element payloads move by load/store
//!    below the initiator's threshold and by DMA above it.
//!
//! Waiting is covered by [`doorbell::Doorbell`]: a consumer that finds
//! the ring idle arms a flag in the producer's memory and sleeps; the
//! producer rings after a publish only if that flag is set, so neither
//! side polls across the bus and an unarmed publish costs nothing extra.
//!
//! The crate also implements the paper's comparison baselines for Figure 8:
//! the Michael–Scott two-lock queue under a ticket lock and under an MCS
//! queue lock ([`twolock::TwoLockQueue`]).

pub mod combiner;
pub mod doorbell;
pub mod error;
pub mod locks;
pub mod ring;
pub mod twolock;
pub mod wave;

pub use doorbell::Doorbell;
pub use error::RingError;
pub use ring::{Consumer, Producer, RbBuf, RingBuf, RingConfig};
pub use twolock::TwoLockQueue;
pub use wave::Wave;
