//! Chunked in-memory block storage backing the simulated SSD.
//!
//! The LBA space is cut into chunks of one maximum-size command
//! ([`MDTS_BLOCKS`] blocks). A chunk's bytes are one contiguous buffer,
//! allocated on the first write into the chunk, with a bitmap of the
//! blocks written; unwritten blocks read as zeroes, like a freshly
//! TRIMmed drive, and are zero inside an allocated chunk too. Chunks are
//! keyed in sharded maps, so a large SSD costs nothing at boot and
//! threads working on different chunks rarely share a lock.
//!
//! The device moves a command's run of blocks between the store and its
//! DMA target directly ([`BlockStore::read_run`],
//! [`BlockStore::write_run`]): each chunk the run touches is lent as one
//! slice under its shard's lock, so a command costs at most two
//! lock-and-copy steps and nothing is bounced through a temporary.

use std::ops::Range;

use solros_simkit::sync::Mutex;
use solros_simkit::IntMap;

use crate::device::MDTS_BLOCKS;
use crate::NvmeError;

/// Device logical block size in bytes (standard 4 KiB).
pub const BLOCK_SIZE: usize = 4096;

/// Blocks per chunk: one maximum-size command.
const CHUNK_BLOCKS: usize = MDTS_BLOCKS as usize;
const CHUNK_BYTES: usize = CHUNK_BLOCKS * BLOCK_SIZE;
// A chunk's written blocks are the bits of a `u32`.
const _: () = assert!(CHUNK_BLOCKS == u32::BITS as usize);

const SHARDS: usize = 64;

/// What every unwritten chunk reads as.
static ZEROES: [u8; CHUNK_BYTES] = [0; CHUNK_BYTES];

struct Chunk {
    /// Bit `i` is set once block `i` of the chunk has been written.
    written: u32,
    /// The chunk's bytes; an unwritten block's are zero.
    data: Box<[u8]>,
}

type Shard = Mutex<IntMap<u64, Chunk>>;

/// The part of a run that falls in one chunk.
struct Piece {
    chunk: u64,
    /// Blocks of the chunk the piece covers.
    blocks: Range<usize>,
    /// Byte offset of the piece within the run.
    at: usize,
}

impl Piece {
    fn bytes(&self) -> Range<usize> {
        self.blocks.start * BLOCK_SIZE..self.blocks.end * BLOCK_SIZE
    }

    fn mask(&self) -> u32 {
        (u32::MAX >> (u32::BITS as usize - self.blocks.len())) << self.blocks.start
    }
}

/// Cuts the run `[lba, lba + n)` at chunk boundaries.
fn pieces(lba: u64, n: u64) -> impl Iterator<Item = Piece> {
    let end = lba + n;
    let mut next = lba;
    std::iter::from_fn(move || {
        (next < end).then(|| {
            let first = (next % CHUNK_BLOCKS as u64) as usize;
            let len = (CHUNK_BLOCKS - first).min((end - next) as usize);
            let piece = Piece {
                chunk: next / CHUNK_BLOCKS as u64,
                blocks: first..first + len,
                at: (next - lba) as usize * BLOCK_SIZE,
            };
            next += len as u64;
            piece
        })
    })
}

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
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .values()
                    .map(|c| c.written.count_ones() as usize)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Fails unless every block of `[lba, lba + n)` is on the device.
    fn check(&self, lba: u64, n: u64) -> Result<(), NvmeError> {
        match lba.checked_add(n) {
            Some(end) if end <= self.capacity_blocks => Ok(()),
            _ => Err(NvmeError::OutOfRange),
        }
    }

    /// The piece holding the one block at `lba`, if it is on the device.
    fn block(&self, lba: u64) -> Result<Piece, NvmeError> {
        self.check(lba, 1)?;
        Ok(pieces(lba, 1).next().expect("one block is one piece"))
    }

    fn shard(&self, chunk: u64) -> &Shard {
        &self.shards[(chunk as usize) % SHARDS]
    }

    /// Lends a piece's bytes (zeroes for a chunk never written).
    fn lend<R>(&self, piece: &Piece, f: impl FnOnce(&[u8]) -> R) -> R {
        let shard = self.shard(piece.chunk).lock();
        let bytes = piece.bytes();
        f(shard
            .get(&piece.chunk)
            .map_or(&ZEROES[..bytes.len()], |c| &c.data[bytes]))
    }

    /// Lends a piece's bytes for overwriting, marking its blocks written
    /// and allocating the chunk (zeroed) on its first write.
    fn lend_mut<R>(&self, piece: &Piece, f: impl FnOnce(&mut [u8]) -> R) -> R {
        let mut shard = self.shard(piece.chunk).lock();
        let chunk = shard.entry(piece.chunk).or_insert_with(|| Chunk {
            written: 0,
            data: vec![0u8; CHUNK_BYTES].into_boxed_slice(),
        });
        chunk.written |= piece.mask();
        f(&mut chunk.data[piece.bytes()])
    }

    /// Lends the run of `n` blocks at `lba` to `f`, one slice per chunk
    /// it touches, each with its byte offset within the run. Unwritten
    /// blocks read as zeroes and are not materialized by being read.
    /// Fails before lending anything if the run ends past the device.
    pub fn read_run(
        &self,
        lba: u64,
        n: u64,
        mut f: impl FnMut(usize, &[u8]),
    ) -> Result<(), NvmeError> {
        self.check(lba, n)?;
        for piece in pieces(lba, n) {
            self.lend(&piece, |bytes| f(piece.at, bytes));
        }
        Ok(())
    }

    /// Lends the run of `n` blocks at `lba` to `f` for overwriting in
    /// place, as [`BlockStore::read_run`] lends it for reading. Every
    /// block of the run counts as written; one never written before
    /// reaches `f` as zeroes.
    pub fn write_run(
        &self,
        lba: u64,
        n: u64,
        mut f: impl FnMut(usize, &mut [u8]),
    ) -> Result<(), NvmeError> {
        self.check(lba, n)?;
        for piece in pieces(lba, n) {
            self.lend_mut(&piece, |bytes| f(piece.at, bytes));
        }
        Ok(())
    }

    /// Lends one block's bytes to `f` (zeroes for a block never written,
    /// which is not materialized by being read).
    pub fn read_with<R>(&self, lba: u64, f: impl FnOnce(&[u8]) -> R) -> Result<R, NvmeError> {
        Ok(self.lend(&self.block(lba)?, f))
    }

    /// Lends one block to `f` for overwriting in place, materializing it
    /// (zeroed) on first write.
    pub fn write_with<R>(&self, lba: u64, f: impl FnOnce(&mut [u8]) -> R) -> Result<R, NvmeError> {
        Ok(self.lend_mut(&self.block(lba)?, f))
    }

    /// Reads one block into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != BLOCK_SIZE`.
    pub fn read(&self, lba: u64, buf: &mut [u8]) -> Result<(), NvmeError> {
        assert_eq!(buf.len(), BLOCK_SIZE, "partial-block read");
        self.read_with(lba, |block| buf.copy_from_slice(block))
    }

    /// Writes one block from `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != BLOCK_SIZE`.
    pub fn write(&self, lba: u64, buf: &[u8]) -> Result<(), NvmeError> {
        assert_eq!(buf.len(), BLOCK_SIZE, "partial-block write");
        self.write_with(lba, |block| block.copy_from_slice(buf))
    }

    /// Discards a block (TRIM); subsequent reads return zeroes. A chunk
    /// left with no written block is freed.
    pub fn trim(&self, lba: u64) -> Result<(), NvmeError> {
        let piece = self.block(lba)?;
        let mut shard = self.shard(piece.chunk).lock();
        if let Some(chunk) = shard.get_mut(&piece.chunk) {
            chunk.written &= !piece.mask();
            if chunk.written == 0 {
                shard.remove(&piece.chunk);
            } else {
                chunk.data[piece.bytes()].fill(0);
            }
        }
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
