#![warn(missing_docs)]

//! An extent-based file system for the Solros control plane.
//!
//! The paper's file-system proxy runs a full file system on the host and
//! requires two properties of it (§5):
//!
//! 1. **Extent mapping** — a `fiemap`-style query translating a file
//!    offset range into disk block runs, so the proxy can program
//!    peer-to-peer NVMe transfers directly into co-processor memory;
//! 2. **In-place updates** — overwriting a file must not relocate its
//!    blocks (no copy-on-write), so a P2P transfer started from a mapped
//!    extent stays valid.
//!
//! `solros-fs` provides both, plus the shared host-side buffer cache that
//! backs the proxy's *buffered* mode (§4.3.2): a write-through LRU page
//! cache keyed by `(inode, page)`, shared among all co-processors, with
//! sequential prefetch.
//!
//! On-disk layout (4 KiB blocks):
//!
//! ```text
//! block 0            superblock
//! blocks 1..B        block allocation bitmap
//! blocks B..I        inode table (256-byte inodes)
//! blocks I..         data (file contents, directories, extent overflow)
//! ```

pub mod alloc;
pub mod blockio;
pub mod cache;
pub mod error;
pub mod fs;
pub mod layout;

pub use blockio::BlockIo;
pub use cache::BufferCache;
pub use error::FsError;
pub use fs::{FileSystem, FsckReport, Ino, OpenFlags, Stat};
pub use layout::Extent;
