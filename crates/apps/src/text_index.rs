//! Inverted-index construction (the paper's text-indexing workload).
//!
//! Worker threads claim documents from a shared queue, read them through
//! the stack under test ([`solros_baseline::FileStore`]), tokenize, and
//! build per-thread partial indexes that are merged at the end — the
//! classic map/reduce indexing shape the Phi's many threads are good at,
//! as long as the I/O path can feed them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use solros_baseline::FileStore;
use solros_proto::rpc_error::RpcErr;
use solros_simkit::sync::Mutex;

/// Index construction results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexStats {
    /// Documents indexed.
    pub docs: usize,
    /// Total tokens seen.
    pub tokens: u64,
    /// Distinct terms.
    pub unique_terms: usize,
    /// Bytes read through the stack.
    pub bytes_read: u64,
}

/// The inverted index: term → postings `(doc, count)`, doc-sorted.
pub type Index = HashMap<String, Vec<(usize, u32)>>;

/// A multi-threaded inverted-index builder over a [`FileStore`].
pub struct TextIndexer<S: FileStore + ?Sized> {
    store: Arc<S>,
    threads: usize,
    /// Read granularity (one stack request per chunk).
    chunk: usize,
}

impl<S: FileStore + ?Sized + 'static> TextIndexer<S> {
    /// Creates an indexer with `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(store: Arc<S>, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker");
        Self {
            store,
            threads,
            chunk: 256 * 1024,
        }
    }

    /// Indexes every file under `dir`; returns the index and statistics.
    pub fn run(&self, dir: &str) -> Result<(Index, IndexStats), RpcErr> {
        let names = self.store.readdir(dir)?;
        let paths: Vec<String> = names.iter().map(|n| format!("{dir}/{n}")).collect();
        let next = Arc::new(AtomicUsize::new(0));
        let bytes_read = Arc::new(AtomicU64::new(0));
        let tokens = Arc::new(AtomicU64::new(0));
        let merged: Arc<Mutex<Index>> = Arc::new(Mutex::new(HashMap::new()));
        let first_err: Arc<Mutex<Option<RpcErr>>> = Arc::new(Mutex::new(None));

        std::thread::scope(|scope| {
            for _ in 0..self.threads {
                let store = Arc::clone(&self.store);
                let paths = &paths;
                let next = Arc::clone(&next);
                let bytes_read = Arc::clone(&bytes_read);
                let tokens = Arc::clone(&tokens);
                let merged = Arc::clone(&merged);
                let first_err = Arc::clone(&first_err);
                let chunk = self.chunk;
                scope.spawn(move || {
                    let mut local: Index = HashMap::new();
                    loop {
                        let doc = next.fetch_add(1, Ordering::Relaxed);
                        if doc >= paths.len() || first_err.lock().is_some() {
                            break;
                        }
                        match Self::index_one(&*store, &paths[doc], doc, chunk, &mut local) {
                            Ok((b, t)) => {
                                bytes_read.fetch_add(b, Ordering::Relaxed);
                                tokens.fetch_add(t, Ordering::Relaxed);
                            }
                            Err(e) => {
                                first_err.lock().get_or_insert(e);
                                break;
                            }
                        }
                    }
                    // Merge the partial index.
                    let mut g = merged.lock();
                    for (term, postings) in local {
                        g.entry(term).or_default().extend(postings);
                    }
                });
            }
        });

        if let Some(e) = *first_err.lock() {
            return Err(e);
        }
        let mut index = Arc::try_unwrap(merged)
            .map_err(|_| RpcErr::Io)?
            .into_inner();
        for postings in index.values_mut() {
            postings.sort_unstable();
        }
        let stats = IndexStats {
            docs: paths.len(),
            tokens: tokens.load(Ordering::Relaxed),
            unique_terms: index.len(),
            bytes_read: bytes_read.load(Ordering::Relaxed),
        };
        Ok((index, stats))
    }

    /// Reads and tokenizes one document into `local`.
    pub(crate) fn index_one(
        store: &S,
        path: &str,
        doc: usize,
        chunk: usize,
        local: &mut Index,
    ) -> Result<(u64, u64), RpcErr> {
        let (handle, size) = store.open(path, false)?;
        // The size is known from open, so the whole document's chunk
        // reads are issued as one pipelined batch (a queue-depth the
        // Solros proxy coalesces; other stacks walk them sequentially).
        let reqs: Vec<(u64, usize)> = (0..size)
            .step_by(chunk.max(1))
            .map(|off| (off, chunk.min((size - off) as usize)))
            .collect();
        let mut text = Vec::with_capacity(size as usize);
        for piece in store.read_at_batch(handle, &reqs)? {
            text.extend_from_slice(&piece);
        }
        let mut counts: HashMap<&str, u32> = HashMap::new();
        let text_str = std::str::from_utf8(&text).map_err(|_| RpcErr::Io)?;
        let mut tokens = 0u64;
        for tok in text_str.split_ascii_whitespace() {
            *counts.entry(tok).or_insert(0) += 1;
            tokens += 1;
        }
        for (term, count) in counts {
            local
                .entry(term.to_string())
                .or_default()
                .push((doc, count));
        }
        Ok((text.len() as u64, tokens))
    }
}

/// Serializes an index to a file through the stack under test and
/// returns the byte count. Terms are written sorted, so the encoding is
/// deterministic: `[u32 terms] ([u16 len][term][u32 n] ([u32 doc][u32 count])*)*`.
pub fn write_index<S: FileStore + ?Sized>(
    index: &Index,
    store: &S,
    path: &str,
) -> Result<u64, RpcErr> {
    let mut terms: Vec<&String> = index.keys().collect();
    terms.sort();
    let mut buf = Vec::new();
    buf.extend_from_slice(&(terms.len() as u32).to_le_bytes());
    for term in terms {
        let postings = &index[term];
        buf.extend_from_slice(&(term.len() as u16).to_le_bytes());
        buf.extend_from_slice(term.as_bytes());
        buf.extend_from_slice(&(postings.len() as u32).to_le_bytes());
        for &(doc, count) in postings {
            buf.extend_from_slice(&(doc as u32).to_le_bytes());
            buf.extend_from_slice(&count.to_le_bytes());
        }
    }
    let handle = store.create(path)?;
    let mut off = 0u64;
    for chunk in buf.chunks(256 * 1024) {
        store.write_at(handle, off, chunk)?;
        off += chunk.len() as u64;
    }
    Ok(off)
}

/// Loads an index previously written by [`write_index`].
pub fn read_index<S: FileStore + ?Sized>(store: &S, path: &str) -> Result<Index, RpcErr> {
    let (handle, size) = store.open(path, false)?;
    const CHUNK: usize = 256 * 1024;
    let reqs: Vec<(u64, usize)> = (0..size)
        .step_by(CHUNK)
        .map(|off| (off, CHUNK.min((size - off) as usize)))
        .collect();
    let mut buf = Vec::with_capacity(size as usize);
    for (piece, &(_, want)) in store.read_at_batch(handle, &reqs)?.iter().zip(&reqs) {
        if piece.len() != want {
            return Err(RpcErr::Io);
        }
        buf.extend_from_slice(piece);
    }
    let take_u32 = |b: &[u8], p: &mut usize| -> Result<u32, RpcErr> {
        let v = b
            .get(*p..*p + 4)
            .ok_or(RpcErr::Io)?
            .try_into()
            .map_err(|_| RpcErr::Io)?;
        *p += 4;
        Ok(u32::from_le_bytes(v))
    };
    let mut p = 0usize;
    let n_terms = take_u32(&buf, &mut p)?;
    let mut index: Index = HashMap::with_capacity(n_terms as usize);
    for _ in 0..n_terms {
        let len = u16::from_le_bytes(
            buf.get(p..p + 2)
                .ok_or(RpcErr::Io)?
                .try_into()
                .map_err(|_| RpcErr::Io)?,
        ) as usize;
        p += 2;
        let term = std::str::from_utf8(buf.get(p..p + len).ok_or(RpcErr::Io)?)
            .map_err(|_| RpcErr::Io)?
            .to_string();
        p += len;
        let n = take_u32(&buf, &mut p)?;
        let mut postings = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let doc = take_u32(&buf, &mut p)? as usize;
            let count = take_u32(&buf, &mut p)?;
            postings.push((doc, count));
        }
        index.insert(term, postings);
    }
    if p != buf.len() {
        return Err(RpcErr::Io);
    }
    Ok(index)
}

/// Builds one inverted index with the documents sharded across several
/// stacks (e.g. one [`FileStore`] per co-processor over the shared Solros
/// file system), merging the partial indexes — the multi-card scaling
/// shape of §6.2/§6.3.
pub fn distributed_index<S: FileStore + ?Sized + 'static>(
    stores: &[Arc<S>],
    dir: &str,
    threads_per_store: usize,
) -> Result<(Index, IndexStats), RpcErr> {
    assert!(!stores.is_empty(), "need at least one store");
    let names = stores[0].readdir(dir)?;
    let mut merged: Index = HashMap::new();
    let mut stats = IndexStats {
        docs: 0,
        tokens: 0,
        unique_terms: 0,
        bytes_read: 0,
    };
    // Shard by document index modulo the number of stores. Each shard is
    // indexed with global document ids, so the merged result is identical
    // to a single-store run.
    let results: Vec<Result<(Index, u64, u64, usize), RpcErr>> = std::thread::scope(|scope| {
        let handles: Vec<_> = stores
            .iter()
            .enumerate()
            .map(|(shard, store)| {
                let names = &names;
                let store = Arc::clone(store);
                let n_shards = stores.len();
                scope.spawn(move || {
                    let mut local: Index = HashMap::new();
                    let mut bytes = 0u64;
                    let mut tokens = 0u64;
                    let mut docs = 0usize;
                    for (doc, name) in names.iter().enumerate() {
                        if doc % n_shards != shard {
                            continue;
                        }
                        let path = format!("{dir}/{name}");
                        let (b, t) =
                            TextIndexer::index_one(&*store, &path, doc, 256 * 1024, &mut local)?;
                        bytes += b;
                        tokens += t;
                        docs += 1;
                    }
                    // Suppress the unused warning for single-threaded shards.
                    let _ = threads_per_store;
                    Ok((local, bytes, tokens, docs))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard panicked"))
            .collect()
    });
    for r in results {
        let (local, bytes, tokens, docs) = r?;
        stats.bytes_read += bytes;
        stats.tokens += tokens;
        stats.docs += docs;
        for (term, postings) in local {
            merged.entry(term).or_default().extend(postings);
        }
    }
    for postings in merged.values_mut() {
        postings.sort_unstable();
    }
    stats.unique_terms = merged.len();
    Ok((merged, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate_corpus, word, CorpusSpec};
    use solros_baseline::VirtioFs;
    use solros_fs::FileSystem;
    use solros_nvme::NvmeDevice;

    fn store() -> Arc<VirtioFs> {
        Arc::new(VirtioFs::new(Arc::new(
            FileSystem::mkfs(NvmeDevice::new(32_768), 512).unwrap(),
        )))
    }

    #[test]
    fn index_matches_corpus() {
        let s = store();
        let spec = CorpusSpec::small();
        let total = generate_corpus(&*s, "/corpus", &spec).unwrap();
        let indexer = TextIndexer::new(Arc::clone(&s), 4);
        let (index, stats) = indexer.run("/corpus").unwrap();
        assert_eq!(stats.docs, spec.docs);
        assert_eq!(stats.bytes_read, total);
        assert!(stats.tokens > 0);
        assert!(stats.unique_terms > 50);
        // The most common Zipf word appears in every document.
        let top = index.get(&word(0)).expect("top word indexed");
        assert_eq!(top.len(), spec.docs);
        // Postings are doc-sorted and counts positive.
        for postings in index.values() {
            assert!(postings.windows(2).all(|w| w[0].0 < w[1].0));
            assert!(postings.iter().all(|&(_, c)| c > 0));
        }
    }

    #[test]
    fn thread_count_does_not_change_result() {
        let s = store();
        let spec = CorpusSpec::small();
        generate_corpus(&*s, "/c", &spec).unwrap();
        let (i1, s1) = TextIndexer::new(Arc::clone(&s), 1).run("/c").unwrap();
        let (i8, s8) = TextIndexer::new(Arc::clone(&s), 8).run("/c").unwrap();
        assert_eq!(s1, s8);
        assert_eq!(i1, i8);
    }

    #[test]
    fn distributed_sharding_matches_single_store() {
        let s1 = store();
        let spec = CorpusSpec::small();
        generate_corpus(&*s1, "/c", &spec).unwrap();
        let (single, single_stats) = TextIndexer::new(Arc::clone(&s1), 2).run("/c").unwrap();
        // "Two co-processors": two handles onto the same store here; the
        // integration suite runs the real multi-data-plane version.
        let shards = vec![Arc::clone(&s1), Arc::clone(&s1)];
        let (dist, dist_stats) = crate::text_index::distributed_index(&shards, "/c", 2).unwrap();
        assert_eq!(single, dist);
        assert_eq!(single_stats.tokens, dist_stats.tokens);
        assert_eq!(single_stats.docs, dist_stats.docs);
        assert_eq!(single_stats.bytes_read, dist_stats.bytes_read);
    }

    #[test]
    fn index_persists_through_the_stack() {
        let s = store();
        let spec = CorpusSpec::small();
        generate_corpus(&*s, "/c", &spec).unwrap();
        let (index, _) = TextIndexer::new(Arc::clone(&s), 2).run("/c").unwrap();
        let bytes = crate::text_index::write_index(&index, &*s, "/index.bin").unwrap();
        assert!(bytes > 1_000);
        let loaded = crate::text_index::read_index(&*s, "/index.bin").unwrap();
        assert_eq!(loaded, index);
        // A truncated index file is rejected, not misparsed.
        let (h, size) = s.open("/index.bin", false).unwrap();
        let _ = (h, size);
        let s2 = store();
        let hh = s2.create("/short").unwrap();
        s2.write_at(hh, 0, &1000u32.to_le_bytes()).unwrap();
        assert!(crate::text_index::read_index(&*s2, "/short").is_err());
    }

    #[test]
    fn missing_dir_errors() {
        let s = store();
        let r = TextIndexer::new(s, 2).run("/nope");
        assert_eq!(r.unwrap_err(), RpcErr::NotFound);
    }
}
