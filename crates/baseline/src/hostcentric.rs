//! The host-centric baseline (§3, Figure 2a).
//!
//! A host application mediates all I/O for the co-processor: file data is
//! first staged in host memory (①→②), then copied again into co-processor
//! memory (③), doubling PCIe bandwidth and DMA-engine usage. The wrapper
//! performs both copies for real (into an actual staging buffer and then
//! into the co-processor window) so the doubled traffic shows up on the
//! PCIe counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use solros_fs::{FileSystem, OpenFlags};
use solros_machine::WindowAlloc;
use solros_pcie::window::Window;
use solros_pcie::Side;
use solros_proto::rpc_error::RpcErr;
use solros_simkit::sync::Mutex;

use crate::filestore::{map_fs_err, FileStore};

/// Mediation statistics.
#[derive(Debug, Default)]
pub struct HostCentricStats {
    /// Bytes staged into host memory (first hop).
    pub bytes_staged: AtomicU64,
    /// Bytes moved over PCIe to/from the co-processor (second hop).
    pub bytes_forwarded: AtomicU64,
}

/// The host-mediated I/O path.
pub struct HostCentric {
    fs: Arc<FileSystem>,
    coproc_window: Arc<Window>,
    alloc: Arc<WindowAlloc>,
    stats: Arc<HostCentricStats>,
    staging: Mutex<Vec<u8>>,
}

impl HostCentric {
    /// Builds the mediator for one co-processor.
    pub fn new(fs: Arc<FileSystem>, coproc_window: Arc<Window>, alloc: Arc<WindowAlloc>) -> Self {
        Self {
            fs,
            coproc_window,
            alloc,
            stats: Arc::new(HostCentricStats::default()),
            staging: Mutex::new(Vec::new()),
        }
    }

    /// Mediation statistics.
    pub fn stats(&self) -> &Arc<HostCentricStats> {
        &self.stats
    }
}

impl FileStore for HostCentric {
    fn create(&self, path: &str) -> Result<u64, RpcErr> {
        self.fs.create(path).map_err(map_fs_err)
    }

    fn open(&self, path: &str, create: bool) -> Result<(u64, u64), RpcErr> {
        let ino = self
            .fs
            .open(
                path,
                OpenFlags {
                    create,
                    ..Default::default()
                },
            )
            .map_err(map_fs_err)?;
        let size = self.fs.size_of(ino).map_err(map_fs_err)?;
        Ok((ino, size))
    }

    fn read_at(&self, handle: u64, offset: u64, buf: &mut [u8]) -> Result<usize, RpcErr> {
        // Hop 1: device -> host staging buffer.
        let mut staging = self.staging.lock();
        staging.resize(buf.len(), 0);
        let n = self
            .fs
            .read(handle, offset, &mut staging)
            .map_err(map_fs_err)?;
        self.stats
            .bytes_staged
            .fetch_add(n as u64, Ordering::Relaxed);
        // Hop 2: host -> co-processor window -> application buffer.
        let off = self.alloc.alloc(n.max(1)).ok_or(RpcErr::NoSpace)?;
        let host = self.coproc_window.map(Side::Host);
        // SAFETY: the range was exclusively allocated for this call.
        unsafe {
            host.dma_write(off, &staging[..n]);
            let coproc = self.coproc_window.map(Side::Coproc);
            coproc.read(off, &mut buf[..n]);
        }
        self.alloc.free(off, n.max(1));
        self.stats
            .bytes_forwarded
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn write_at(&self, handle: u64, offset: u64, data: &[u8]) -> Result<usize, RpcErr> {
        // Hop 1: application buffer -> co-processor window -> host staging.
        let off = self.alloc.alloc(data.len().max(1)).ok_or(RpcErr::NoSpace)?;
        let mut staging = self.staging.lock();
        staging.resize(data.len(), 0);
        // SAFETY: the range was exclusively allocated for this call.
        unsafe {
            let coproc = self.coproc_window.map(Side::Coproc);
            coproc.write(off, data);
            let host = self.coproc_window.map(Side::Host);
            host.dma_read(off, &mut staging[..]);
        }
        self.alloc.free(off, data.len().max(1));
        self.stats
            .bytes_forwarded
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        // Hop 2: host staging -> device.
        let n = self
            .fs
            .write(handle, offset, &staging)
            .map_err(map_fs_err)?;
        self.stats
            .bytes_staged
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn size_of(&self, path: &str) -> Result<u64, RpcErr> {
        Ok(self.fs.stat(path).map_err(map_fs_err)?.size)
    }

    fn readdir(&self, path: &str) -> Result<Vec<String>, RpcErr> {
        self.fs.readdir(path).map_err(map_fs_err)
    }

    fn mkdir(&self, path: &str) -> Result<(), RpcErr> {
        self.fs.mkdir(path).map_err(map_fs_err).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solros_nvme::NvmeDevice;
    use solros_pcie::PcieCounters;

    fn setup() -> (HostCentric, Arc<PcieCounters>) {
        let fs = Arc::new(FileSystem::mkfs(NvmeDevice::new(8192), 128).unwrap());
        let counters = Arc::new(PcieCounters::new());
        let window = Window::new(1 << 20, Side::Coproc, Arc::clone(&counters));
        let alloc = Arc::new(WindowAlloc::new(1 << 20));
        (HostCentric::new(fs, window, alloc), counters)
    }

    #[test]
    fn functional_roundtrip() {
        let (hc, _) = setup();
        let ino = hc.create("/f").unwrap();
        let data: Vec<u8> = (0..100_000).map(|i| (i % 239) as u8).collect();
        assert_eq!(hc.write_at(ino, 0, &data).unwrap(), data.len());
        let mut out = vec![0u8; data.len()];
        assert_eq!(hc.read_at(ino, 0, &mut out).unwrap(), data.len());
        assert_eq!(out, data);
    }

    #[test]
    fn traffic_is_doubled() {
        let (hc, counters) = setup();
        let ino = hc.create("/f").unwrap();
        let data = vec![9u8; 64 * 1024];
        hc.write_at(ino, 0, &data).unwrap();
        let s = hc.stats();
        assert_eq!(s.bytes_staged.load(Ordering::Relaxed), 64 * 1024);
        assert_eq!(s.bytes_forwarded.load(Ordering::Relaxed), 64 * 1024);
        // The host really did DMA the payload across the bus once more.
        assert!(counters.snapshot().dma_bytes >= 64 * 1024);
    }
}
