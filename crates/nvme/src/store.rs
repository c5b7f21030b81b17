//! Sparse in-memory block storage backing the simulated SSD.
//!
//! Blocks are materialized on first write; unwritten blocks read as
//! zeroes, like a freshly TRIMmed drive. The map is sharded to keep lock
//! contention negligible under the multi-threaded fio-style benchmarks.
//!
//! The device moves data between a block and its DMA target directly
//! ([`BlockStore::read_with`], [`BlockStore::write_with`]): a block is
//! lent under its shard's lock, never bounced through a temporary.

use solros_simkit::sync::Mutex;
use solros_simkit::IntMap;

/// Device logical block size in bytes (standard 4 KiB).
pub const BLOCK_SIZE: usize = 4096;

const SHARDS: usize = 64;

/// What every unwritten block reads as.
static ZEROES: [u8; BLOCK_SIZE] = [0; BLOCK_SIZE];

type Shard = Mutex<IntMap<u64, Box<[u8]>>>;

/// A sparse array of fixed-size blocks addressed by LBA.
///
/// # Examples
///
/// ```
/// use solros_nvme::{BlockStore, BLOCK_SIZE};
///
/// let store = BlockStore::new(1024);
/// let mut block = vec![0u8; BLOCK_SIZE];
/// store.read(7, &mut block).unwrap();
/// assert!(block.iter().all(|&b| b == 0)); // unwritten reads as zero
/// block[0] = 42;
/// store.write(7, &block).unwrap();
/// store.read(7, &mut block).unwrap();
/// assert_eq!(block[0], 42);
/// ```
pub struct BlockStore {
    shards: Vec<Shard>,
    capacity_blocks: u64,
}

impl BlockStore {
    /// Creates a store with the given capacity in blocks.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_blocks == 0`.
    pub fn new(capacity_blocks: u64) -> Self {
        assert!(capacity_blocks > 0, "zero-capacity device");
        Self {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
            capacity_blocks,
        }
    }

    /// Returns the device capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.capacity_blocks
    }

    /// Returns the device capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.capacity_blocks * BLOCK_SIZE as u64
    }

    /// Returns the number of materialized (written) blocks.
    pub fn resident_blocks(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    fn shard(&self, lba: u64) -> Result<&Shard, crate::NvmeError> {
        if lba >= self.capacity_blocks {
            return Err(crate::NvmeError::OutOfRange);
        }
        Ok(&self.shards[(lba as usize) % SHARDS])
    }

    /// Lends one block's bytes to `f` (zeroes for a block never written,
    /// which is not materialized by being read).
    pub fn read_with<R>(
        &self,
        lba: u64,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, crate::NvmeError> {
        let shard = self.shard(lba)?.lock();
        Ok(f(shard.get(&lba).map_or(&ZEROES[..], |b| b)))
    }

    /// Lends one block to `f` for overwriting in place, materializing it
    /// (zeroed) on first write.
    pub fn write_with<R>(
        &self,
        lba: u64,
        f: impl FnOnce(&mut [u8]) -> R,
    ) -> Result<R, crate::NvmeError> {
        let mut shard = self.shard(lba)?.lock();
        let block = shard
            .entry(lba)
            .or_insert_with(|| vec![0u8; BLOCK_SIZE].into_boxed_slice());
        Ok(f(block))
    }

    /// Reads one block into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != BLOCK_SIZE`.
    pub fn read(&self, lba: u64, buf: &mut [u8]) -> Result<(), crate::NvmeError> {
        assert_eq!(buf.len(), BLOCK_SIZE, "partial-block read");
        self.read_with(lba, |block| buf.copy_from_slice(block))
    }

    /// Writes one block from `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != BLOCK_SIZE`.
    pub fn write(&self, lba: u64, buf: &[u8]) -> Result<(), crate::NvmeError> {
        assert_eq!(buf.len(), BLOCK_SIZE, "partial-block write");
        self.write_with(lba, |block| block.copy_from_slice(buf))
    }

    /// Discards a block (TRIM); subsequent reads return zeroes.
    pub fn trim(&self, lba: u64) -> Result<(), crate::NvmeError> {
        self.shard(lba)?.lock().remove(&lba);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn oob_rejected() {
        let s = BlockStore::new(10);
        let mut b = vec![0u8; BLOCK_SIZE];
        assert_eq!(s.read(10, &mut b), Err(crate::NvmeError::OutOfRange));
        assert_eq!(s.write(10, &b), Err(crate::NvmeError::OutOfRange));
        assert_eq!(s.trim(10), Err(crate::NvmeError::OutOfRange));
    }

    #[test]
    fn trim_zeroes() {
        let s = BlockStore::new(10);
        let b = vec![9u8; BLOCK_SIZE];
        s.write(3, &b).unwrap();
        assert_eq!(s.resident_blocks(), 1);
        s.trim(3).unwrap();
        assert_eq!(s.resident_blocks(), 0);
        let mut out = vec![1u8; BLOCK_SIZE];
        s.read(3, &mut out).unwrap();
        assert!(out.iter().all(|&x| x == 0));
    }

    #[test]
    fn overwrite_reuses_the_block_and_reads_never_materialize() {
        let s = BlockStore::new(10);
        // A never-written block lends zeroes and stays unmaterialized.
        assert!(s.read_with(4, |b| b.iter().all(|&x| x == 0)).unwrap());
        assert_eq!(s.resident_blocks(), 0);
        s.write(4, &vec![1u8; BLOCK_SIZE]).unwrap();
        let first = s.read_with(4, |b| b.as_ptr() as usize).unwrap();
        // An overwrite lands in the same allocation, whole or in part.
        s.write(4, &vec![2u8; BLOCK_SIZE]).unwrap();
        s.write_with(4, |b| b[..8].fill(3)).unwrap();
        assert_eq!(s.read_with(4, |b| b.as_ptr() as usize).unwrap(), first);
        assert_eq!(s.resident_blocks(), 1);
        let mut out = vec![0u8; BLOCK_SIZE];
        s.read(4, &mut out).unwrap();
        assert!(out[..8].iter().all(|&x| x == 3) && out[8..].iter().all(|&x| x == 2));
        // Trim, then the block reads as zeroes again and a partial write
        // starts from zeroes, not from the trimmed contents.
        s.trim(4).unwrap();
        assert!(s.read_with(4, |b| b.iter().all(|&x| x == 0)).unwrap());
        s.write_with(4, |b| b[0] = 9).unwrap();
        s.read(4, &mut out).unwrap();
        assert!(out[0] == 9 && out[1..].iter().all(|&x| x == 0));
        assert_eq!(s.write_with(10, |_| ()), Err(crate::NvmeError::OutOfRange));
    }

    #[test]
    fn concurrent_disjoint_blocks() {
        let s = Arc::new(BlockStore::new(10_000));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for i in 0..500 {
                        let lba = t * 1000 + i;
                        let block = vec![(lba % 251) as u8; BLOCK_SIZE];
                        s.write(lba, &block).unwrap();
                        let mut out = vec![0u8; BLOCK_SIZE];
                        s.read(lba, &mut out).unwrap();
                        assert_eq!(out, block);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.resident_blocks(), 4000);
    }

    #[test]
    fn capacity_accessors() {
        let s = BlockStore::new(256);
        assert_eq!(s.capacity_blocks(), 256);
        assert_eq!(s.capacity_bytes(), 256 * 4096);
    }
}
