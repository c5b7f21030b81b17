//! Block-level device access for the file system.
//!
//! [`BlockIo`] is the file system's "driver handle": it owns a host-side
//! staging window and turns block reads/writes into NVMe commands. The
//! metadata path always moves through host memory; the *data* path is the
//! proxy's business (it may program P2P transfers directly, see
//! `solros::fs_proxy`), which is why this type also re-exports the raw
//! device for extent-level command construction.

use std::sync::Arc;

use solros_nvme::{DmaPtr, NvmeCommand, NvmeDevice, NvmeError, BLOCK_SIZE};
use solros_pcie::{PcieCounters, Side, Window};
use solros_simkit::sync::Mutex;

/// A staged block I/O channel to the simulated NVMe device.
pub struct BlockIo {
    dev: Arc<NvmeDevice>,
    staging: Arc<Window>,
    /// Owns the staging buffer; holds the one-command status vector
    /// every submission reuses.
    status: Mutex<Vec<Result<(), NvmeError>>>,
}

impl BlockIo {
    /// Wraps a device with a one-block host staging buffer.
    pub fn new(dev: Arc<NvmeDevice>) -> Self {
        Self {
            dev,
            staging: Window::new(BLOCK_SIZE, Side::Host, Arc::new(PcieCounters::new())),
            status: Mutex::new(Vec::with_capacity(1)),
        }
    }

    /// Returns the underlying device (for direct command construction by
    /// the proxy's P2P path).
    pub fn device(&self) -> &Arc<NvmeDevice> {
        &self.dev
    }

    /// Device capacity in blocks.
    pub fn capacity_blocks(&self) -> u64 {
        self.dev.capacity_blocks()
    }

    /// Reads one block into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != BLOCK_SIZE`.
    pub fn read_block(&self, lba: u64, buf: &mut [u8]) -> Result<(), NvmeError> {
        assert_eq!(buf.len(), BLOCK_SIZE);
        let mut status = self.status.lock();
        let cmd = NvmeCommand::Read {
            lba,
            nblocks: 1,
            dst: DmaPtr::new(Arc::clone(&self.staging), 0),
        };
        self.dev.submit_vectored_into(&[cmd], &mut status);
        status[0]?;
        let h = self.staging.map(Side::Host);
        // SAFETY: the staging buffer is exclusively owned under `status`.
        unsafe { h.read(0, buf) };
        Ok(())
    }

    /// Writes one block from `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != BLOCK_SIZE`.
    pub fn write_block(&self, lba: u64, buf: &[u8]) -> Result<(), NvmeError> {
        assert_eq!(buf.len(), BLOCK_SIZE);
        let mut status = self.status.lock();
        let h = self.staging.map(Side::Host);
        // SAFETY: the staging buffer is exclusively owned under `status`.
        unsafe { h.write(0, buf) };
        let cmd = NvmeCommand::Write {
            lba,
            nblocks: 1,
            src: DmaPtr::new(Arc::clone(&self.staging), 0),
        };
        self.dev.submit_vectored_into(&[cmd], &mut status);
        status[0]
    }

    /// Reads a block with up to `retries` retries on transient device
    /// errors (fault-injection recovery path).
    pub fn read_block_retry(
        &self,
        lba: u64,
        buf: &mut [u8],
        retries: u32,
    ) -> Result<(), NvmeError> {
        let mut last = NvmeError::MediaError;
        for _ in 0..=retries {
            match self.read_block(lba, buf) {
                Ok(()) => return Ok(()),
                Err(e) => last = e,
            }
        }
        Err(last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_roundtrip() {
        let io = BlockIo::new(NvmeDevice::new(64));
        let data = vec![0xA5u8; BLOCK_SIZE];
        io.write_block(7, &data).unwrap();
        let mut out = vec![0u8; BLOCK_SIZE];
        io.read_block(7, &mut out).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn retry_recovers_from_injected_faults() {
        let io = BlockIo::new(NvmeDevice::new(64));
        let data = vec![1u8; BLOCK_SIZE];
        io.write_block(0, &data).unwrap();
        io.device().inject_faults(2);
        let mut out = vec![0u8; BLOCK_SIZE];
        io.read_block_retry(0, &mut out, 3).unwrap();
        assert_eq!(out, data);
    }

    #[test]
    fn retry_gives_up() {
        let io = BlockIo::new(NvmeDevice::new(64));
        io.device().inject_faults(10);
        let mut out = vec![0u8; BLOCK_SIZE];
        assert_eq!(
            io.read_block_retry(0, &mut out, 2),
            Err(NvmeError::MediaError)
        );
    }

    #[test]
    fn concurrent_block_io_is_serialized_but_correct() {
        let io = Arc::new(BlockIo::new(NvmeDevice::new(4096)));
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let io = Arc::clone(&io);
                std::thread::spawn(move || {
                    for i in 0..64 {
                        let lba = t * 64 + i;
                        let block = vec![(lba % 250) as u8; BLOCK_SIZE];
                        io.write_block(lba, &block).unwrap();
                        let mut out = vec![0u8; BLOCK_SIZE];
                        io.read_block(lba, &mut out).unwrap();
                        assert_eq!(out, block);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
