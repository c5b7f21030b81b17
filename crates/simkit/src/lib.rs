#![warn(missing_docs)]

//! Deterministic discrete-event simulation kit for Solros-rs.
//!
//! This crate provides the substrate on which the *timed* execution mode of
//! the Solros reproduction runs: a virtual-time event engine, FIFO and
//! multi-channel resources for modelling serialized hardware (PCIe links,
//! DMA channels, SSD internals), bandwidth-shaping helpers, deterministic
//! random number generation, statistics collection (streaming moments
//! and log-scaled histograms with percentile queries), and the integer
//! hasher the per-request lookup tables share.
//!
//! Everything here is single-threaded and deterministic: running the same
//! simulation twice produces bit-identical results, which is what lets the
//! benchmark harness regenerate the paper's figures reproducibly on any
//! machine.
//!
//! # Examples
//!
//! ```
//! use solros_simkit::{Engine, SimTime};
//!
//! let mut engine = Engine::new();
//! engine.schedule(SimTime::from_us(5), |_, now| {
//!     assert_eq!(now, SimTime::from_us(5));
//! });
//! engine.run();
//! assert_eq!(engine.now(), SimTime::from_us(5));
//! ```
//!
//! # Shared by the whole workspace
//!
//! As the leaf every crate can name, this one also carries what the whole
//! workspace shares: the non-poisoning locks in [`sync`] (the one module
//! here that is about threads) and the seeded property driver in [`check`].

pub mod check;
pub mod engine;
pub mod hash;
pub mod report;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod time;

pub use engine::Engine;
pub use hash::{IntHasher, IntMap, IntSet};
pub use resource::{FifoResource, Link, MultiChannel};
pub use rng::DetRng;
pub use stats::{Histogram, Summary};
pub use time::SimTime;
