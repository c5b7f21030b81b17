//! Feature-vector image search (the paper's image-search workload).
//!
//! The database is a flat file of fixed-dimension `f32` feature vectors
//! (one per image). A query scans the database in chunks read through the
//! stack under test, computes L2 distances in parallel, and keeps the
//! global top-k — heavy SIMD-friendly compute per byte, which is why the
//! paper sees a smaller (≈2×) I/O-path speedup here than for indexing.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use solros_baseline::FileStore;
use solros_proto::rpc_error::RpcErr;
use solros_simkit::sync::Mutex;
use solros_simkit::DetRng;

/// Feature dimension (SIFT-like descriptors).
pub const DIM: usize = 128;
/// Bytes per vector.
pub const VEC_BYTES: usize = DIM * 4;
/// Pipelined sub-reads each worker splits one database batch into.
const SUB_READS: usize = 8;

/// One search hit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchResult {
    /// Image (vector) index in the database.
    pub id: usize,
    /// Squared L2 distance to the query.
    pub distance: f32,
}

/// A feature-vector database stored through a [`FileStore`].
pub struct ImageDb<S: FileStore + ?Sized> {
    store: Arc<S>,
    path: String,
    /// Vectors per stack read request.
    pub batch: usize,
}

impl<S: FileStore + ?Sized + 'static> ImageDb<S> {
    /// Opens (without validating) a database at `path`.
    pub fn new(store: Arc<S>, path: &str) -> Self {
        Self {
            store,
            path: path.to_string(),
            batch: 512,
        }
    }

    /// Generates and writes a database of `n` vectors; returns total bytes.
    pub fn build(&self, n: usize, seed: u64) -> Result<u64, RpcErr> {
        let handle = self.store.create(&self.path)?;
        let mut rng = DetRng::seed(seed);
        let mut off = 0u64;
        let chunk_vecs = 1024;
        let mut buf = Vec::with_capacity(chunk_vecs * VEC_BYTES);
        let mut remaining = n;
        while remaining > 0 {
            let now = remaining.min(chunk_vecs);
            buf.clear();
            for _ in 0..now {
                for _ in 0..DIM {
                    let v = rng.unit() as f32;
                    buf.extend_from_slice(&v.to_le_bytes());
                }
            }
            self.store.write_at(handle, off, &buf)?;
            off += buf.len() as u64;
            remaining -= now;
        }
        Ok(off)
    }

    /// Returns the vector count from the file size.
    pub fn len(&self) -> Result<usize, RpcErr> {
        Ok(self.store.size_of(&self.path)? as usize / VEC_BYTES)
    }

    /// Returns true when the database is empty.
    pub fn is_empty(&self) -> Result<bool, RpcErr> {
        Ok(self.len()? == 0)
    }

    /// Reconstructs the vector with index `id` (deterministic; used by
    /// tests to craft queries with a known nearest neighbour).
    pub fn vector_for_seed(n: usize, seed: u64, id: usize) -> Vec<f32> {
        let mut rng = DetRng::seed(seed);
        let mut v = vec![0f32; DIM];
        for i in 0..=id.min(n - 1) {
            for slot in v.iter_mut() {
                *slot = rng.unit() as f32;
            }
            if i == id {
                break;
            }
        }
        v
    }

    /// Finds the `k` nearest vectors to `query` using `threads` workers.
    /// Returns hits sorted by ascending distance; also reports bytes read.
    pub fn search(
        &self,
        query: &[f32],
        k: usize,
        threads: usize,
    ) -> Result<(Vec<SearchResult>, u64), RpcErr> {
        assert_eq!(query.len(), DIM, "query dimension mismatch");
        assert!(threads > 0 && k > 0);
        let n = self.len()?;
        let (handle, _) = self.store.open(&self.path, false)?;
        let next_batch = Arc::new(AtomicUsize::new(0));
        let bytes_read = Arc::new(AtomicU64::new(0));
        let best: Arc<Mutex<Vec<SearchResult>>> = Arc::new(Mutex::new(Vec::new()));
        let first_err: Arc<Mutex<Option<RpcErr>>> = Arc::new(Mutex::new(None));
        let batches = n.div_ceil(self.batch);

        std::thread::scope(|scope| {
            for _ in 0..threads {
                let store = Arc::clone(&self.store);
                let next_batch = Arc::clone(&next_batch);
                let bytes_read = Arc::clone(&bytes_read);
                let best = Arc::clone(&best);
                let first_err = Arc::clone(&first_err);
                let batch = self.batch;
                scope.spawn(move || {
                    let mut local: Vec<SearchResult> = Vec::new();
                    let mut buf = vec![0u8; batch * VEC_BYTES];
                    loop {
                        let b = next_batch.fetch_add(1, Ordering::Relaxed);
                        if b >= batches || first_err.lock().is_some() {
                            break;
                        }
                        let start_vec = b * batch;
                        let count = batch.min(n - start_vec);
                        let want = count * VEC_BYTES;
                        let off = (start_vec * VEC_BYTES) as u64;
                        // Split the batch into pipelined sub-reads so stacks
                        // with a submission queue keep several requests in
                        // flight per batch instead of one serial round trip.
                        let sub = (want / SUB_READS).max(VEC_BYTES);
                        let reqs: Vec<(u64, usize)> = (0..want)
                            .step_by(sub)
                            .map(|rel| (off + rel as u64, sub.min(want - rel)))
                            .collect();
                        match store.read_at_batch(handle, &reqs) {
                            Ok(pieces) => {
                                let mut at = 0usize;
                                for piece in &pieces {
                                    buf[at..at + piece.len()].copy_from_slice(piece);
                                    at += piece.len();
                                }
                                if at != want {
                                    first_err.lock().get_or_insert(RpcErr::Io);
                                    break;
                                }
                            }
                            Err(e) => {
                                first_err.lock().get_or_insert(e);
                                break;
                            }
                        }
                        bytes_read.fetch_add(want as u64, Ordering::Relaxed);
                        for v in 0..count {
                            let base = v * VEC_BYTES;
                            let mut dist = 0f32;
                            for d in 0..DIM {
                                let raw: [u8; 4] = buf[base + d * 4..base + d * 4 + 4]
                                    .try_into()
                                    .expect("4 bytes");
                                let x = f32::from_le_bytes(raw);
                                let delta = x - query[d];
                                dist += delta * delta;
                            }
                            local.push(SearchResult {
                                id: start_vec + v,
                                distance: dist,
                            });
                            // Keep the local candidate set small.
                            if local.len() >= 4 * k {
                                local.sort_by(|a, b| a.distance.total_cmp(&b.distance));
                                local.truncate(k);
                            }
                        }
                    }
                    best.lock().extend(local);
                });
            }
        });

        if let Some(e) = *first_err.lock() {
            return Err(e);
        }
        let mut all = Arc::try_unwrap(best).map_err(|_| RpcErr::Io)?.into_inner();
        all.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        all.truncate(k);
        Ok((all, bytes_read.load(Ordering::Relaxed)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use solros_baseline::VirtioFs;
    use solros_fs::FileSystem;
    use solros_nvme::NvmeDevice;

    fn store() -> Arc<VirtioFs> {
        Arc::new(VirtioFs::new(Arc::new(
            FileSystem::mkfs(NvmeDevice::new(65_536), 1024).unwrap(),
        )))
    }

    #[test]
    fn exact_match_is_found_first() {
        let s = store();
        let db = ImageDb::new(Arc::clone(&s), "/db");
        let n = 600;
        db.build(n, 7).unwrap();
        assert_eq!(db.len().unwrap(), n);
        // Query with vector 123 itself: distance 0 at id 123.
        let q = ImageDb::<VirtioFs>::vector_for_seed(n, 7, 123);
        let (hits, bytes) = db.search(&q, 5, 4).unwrap();
        assert_eq!(hits[0].id, 123);
        assert!(hits[0].distance < 1e-9);
        assert_eq!(hits.len(), 5);
        assert!(hits.windows(2).all(|w| w[0].distance <= w[1].distance));
        assert_eq!(bytes as usize, n * VEC_BYTES);
    }

    #[test]
    fn thread_count_invariant() {
        let s = store();
        let db = ImageDb::new(Arc::clone(&s), "/db");
        db.build(300, 9).unwrap();
        let q = ImageDb::<VirtioFs>::vector_for_seed(300, 9, 42);
        let (h1, _) = db.search(&q, 8, 1).unwrap();
        let (h8, _) = db.search(&q, 8, 8).unwrap();
        assert_eq!(h1, h8);
    }

    #[test]
    fn missing_db_errors() {
        let s = store();
        let db = ImageDb::new(s, "/missing");
        let q = vec![0f32; DIM];
        assert!(db.search(&q, 1, 1).is_err());
    }
}
