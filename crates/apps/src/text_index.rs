//! Inverted-index construction (the paper's text-indexing workload).
//!
//! Worker threads claim documents from a shared counter, read them through
//! the stack under test ([`solros_baseline::FileStore`]), tokenize, and
//! build per-thread term tables that are merged at the end — the classic
//! map/reduce indexing shape the Phi's many threads are good at, as long
//! as the I/O path can feed them.
//!
//! Each worker hashes a token once, to find its dense term id; the
//! document's counts are a `Vec` indexed by id. Each term's `String` and
//! postings `Vec` are made once, when the merged tables build the
//! [`Index`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use solros_baseline::FileStore;
use solros_proto::rpc_error::RpcErr;

/// Read granularity: one stack request per chunk.
const CHUNK: usize = 256 * 1024;

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
}

impl<S: FileStore + ?Sized + 'static> TextIndexer<S> {
    /// Creates an indexer with `threads` workers.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn new(store: Arc<S>, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker");
        Self { store, threads }
    }

    /// Indexes every file under `dir`; returns the index and statistics.
    pub fn run(&self, dir: &str) -> Result<(Index, IndexStats), RpcErr> {
        index_shards(&[&*self.store], self.threads, dir)
    }
}

/// Indexes every file under `dir` with `threads` workers per store. The
/// documents are dealt round-robin over `stores`: document `d` is read
/// through `stores[d % stores.len()]`, by whichever of that store's
/// workers claims it first. The first error stops every worker.
fn index_shards<S: FileStore + ?Sized>(
    stores: &[&S],
    threads: usize,
    dir: &str,
) -> Result<(Index, IndexStats), RpcErr> {
    let names = stores[0].readdir(dir)?;
    let paths: Vec<String> = names.iter().map(|n| format!("{dir}/{n}")).collect();
    let claimed: Vec<AtomicUsize> = stores.iter().map(|_| AtomicUsize::new(0)).collect();
    let failed = AtomicBool::new(false);
    let tables = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..stores.len() * threads)
            .map(|w| {
                let shard = w % stores.len();
                let (store, claimed, paths, failed) =
                    (stores[shard], &claimed[shard], &paths, &failed);
                scope.spawn(move || {
                    let mut table = TermTable::default();
                    loop {
                        let doc = shard + claimed.fetch_add(1, Ordering::Relaxed) * stores.len();
                        if doc >= paths.len() || failed.load(Ordering::Relaxed) {
                            return Ok(table);
                        }
                        if let Err(e) = table.read_doc(store, &paths[doc], doc) {
                            failed.store(true, Ordering::Relaxed);
                            return Err(e);
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("indexing worker panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok(TermTable::merge(tables, paths.len()))
}

/// The `(offset, len)` reads that cover a file of `size` bytes.
fn chunks(size: u64) -> Vec<(u64, usize)> {
    (0..size)
        .step_by(CHUNK)
        .map(|off| (off, CHUNK.min((size - off) as usize)))
        .collect()
}

/// One worker's terms under dense ids, and the postings it has found.
#[derive(Default)]
struct TermTable {
    /// Term → id. The terms come from file contents, so the map keeps the
    /// standard library's keyed hasher.
    ids: HashMap<Box<str>, u32>,
    /// Per id, its count in the current document (0 between documents).
    counts: Vec<u32>,
    /// The ids the current document has counted.
    touched: Vec<u32>,
    /// `(id, doc, count)` for each distinct term of each document.
    postings: Vec<(u32, usize, u32)>,
    /// Tokens counted and bytes read, over every document.
    tokens: u64,
    bytes_read: u64,
}

impl TermTable {
    /// Reads document `doc` through `store` and counts its terms.
    fn read_doc<S: FileStore + ?Sized>(
        &mut self,
        store: &S,
        path: &str,
        doc: usize,
    ) -> Result<(), RpcErr> {
        let (handle, size) = store.open(path, false)?;
        // The size is known from open, so the whole document's chunk
        // reads are issued as one pipelined batch (a queue-depth the
        // Solros proxy coalesces; other stacks walk them sequentially).
        let mut pieces = store.read_at_batch(handle, &chunks(size))?;
        let text = if pieces.len() == 1 {
            pieces.swap_remove(0)
        } else {
            pieces.concat()
        };
        self.bytes_read += text.len() as u64;
        self.add_doc(doc, std::str::from_utf8(&text).map_err(|_| RpcErr::Io)?);
        Ok(())
    }

    /// Counts the terms of document `doc`.
    fn add_doc(&mut self, doc: usize, text: &str) {
        for term in text.split_ascii_whitespace() {
            let id = match self.ids.get(term) {
                Some(&id) => id,
                None => self.mint(term.into()),
            };
            let count = &mut self.counts[id as usize];
            if *count == 0 {
                self.touched.push(id);
            }
            *count += 1;
            self.tokens += 1;
        }
        for id in self.touched.drain(..) {
            let count = std::mem::take(&mut self.counts[id as usize]);
            self.postings.push((id, doc, count));
        }
    }

    /// The id of `term`, minted on first sight.
    fn mint(&mut self, term: Box<str>) -> u32 {
        let next = self.counts.len() as u32;
        let id = *self.ids.entry(term).or_insert(next);
        if id == next {
            self.counts.push(0);
        }
        id
    }

    /// Merges the workers' tables by term and builds the index of `docs`
    /// documents from the result: one `String` and one postings `Vec` per
    /// term.
    fn merge(tables: Vec<TermTable>, docs: usize) -> (Index, IndexStats) {
        let mut tables = tables.into_iter();
        let mut all = tables.next().unwrap_or_default();
        for table in tables {
            let mut ids = vec![0u32; table.counts.len()];
            for (term, id) in table.ids {
                ids[id as usize] = all.mint(term);
            }
            all.postings.extend(
                table
                    .postings
                    .into_iter()
                    .map(|(id, doc, count)| (ids[id as usize], doc, count)),
            );
            all.tokens += table.tokens;
            all.bytes_read += table.bytes_read;
        }

        let mut lens = vec![0usize; all.counts.len()];
        for &(id, _, _) in &all.postings {
            lens[id as usize] += 1;
        }
        let mut terms: Vec<(String, Vec<(usize, u32)>)> = lens
            .into_iter()
            .map(|n| (String::new(), Vec::with_capacity(n)))
            .collect();
        for (term, id) in all.ids {
            terms[id as usize].0 = term.into_string();
        }
        for (id, doc, count) in all.postings {
            terms[id as usize].1.push((doc, count));
        }
        let index: Index = terms
            .into_iter()
            .map(|(term, mut postings)| {
                postings.sort_unstable();
                (term, postings)
            })
            .collect();
        let stats = IndexStats {
            docs,
            tokens: all.tokens,
            unique_terms: index.len(),
            bytes_read: all.bytes_read,
        };
        (index, stats)
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
    for chunk in buf.chunks(CHUNK) {
        store.write_at(handle, off, chunk)?;
        off += chunk.len() as u64;
    }
    Ok(off)
}

/// Loads an index previously written by [`write_index`].
pub fn read_index<S: FileStore + ?Sized>(store: &S, path: &str) -> Result<Index, RpcErr> {
    let (handle, size) = store.open(path, false)?;
    let reqs = chunks(size);
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
/// file system), each shard indexed by `threads_per_store` workers of the
/// same loop as [`TextIndexer::run`] — the multi-card scaling shape of
/// §6.2/§6.3. Documents keep their global ids, so the result is identical
/// to a single-store run.
///
/// # Panics
///
/// Panics if `stores` is empty or `threads_per_store == 0`.
pub fn distributed_index<S: FileStore + ?Sized + 'static>(
    stores: &[Arc<S>],
    dir: &str,
    threads_per_store: usize,
) -> Result<(Index, IndexStats), RpcErr> {
    assert!(!stores.is_empty(), "need at least one store");
    assert!(threads_per_store > 0, "need at least one worker per store");
    let stores: Vec<&S> = stores.iter().map(|s| &**s).collect();
    index_shards(&stores, threads_per_store, dir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{generate_corpus, word, CorpusSpec};
    use solros_baseline::VirtioFs;
    use solros_fs::FileSystem;
    use solros_nvme::NvmeDevice;
    use solros_simkit::{check, DetRng};

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
        let s2 = store();
        let hh = s2.create("/short").unwrap();
        s2.write_at(hh, 0, &1000u32.to_le_bytes()).unwrap();
        assert!(crate::text_index::read_index(&*s2, "/short").is_err());
    }

    /// A random document: tokens drawn from a small vocabulary (so terms
    /// repeat within and across documents), holding NUL, `\x0B` (not ASCII
    /// whitespace) and multi-byte characters, between runs of all five
    /// whitespace bytes.
    fn random_doc(rng: &mut DetRng, vocab: &[String]) -> String {
        const SPACE: &[u8] = b" \t\n\x0C\r";
        let space = |rng: &mut DetRng| check::string(rng, SPACE, 1..4);
        let mut text = String::new();
        if vocab.is_empty() || rng.chance(0.1) {
            // An empty document, or one of nothing but whitespace.
            return if rng.chance(0.5) { space(rng) } else { text };
        }
        if rng.chance(0.5) {
            text += &space(rng);
        }
        for i in 0..rng.index(40) + 1 {
            if i > 0 {
                text += &space(rng);
            }
            text += &vocab[rng.index(vocab.len())];
        }
        if rng.chance(0.5) {
            text += &space(rng);
        }
        text
    }

    /// A token of 1 to 20 bytes, some of them multi-byte.
    fn random_token(rng: &mut DetRng) -> String {
        const PIECES: &[&str] = &["a", "b", "z", "\0", "\x0B", "é", "日", "日本語"];
        let want = rng.range(1..13) as usize;
        let mut tok = String::new();
        while tok.len() < want {
            tok += PIECES[rng.index(PIECES.len())];
        }
        tok
    }

    #[test]
    fn term_table_matches_split_ascii_whitespace() {
        check::cases(300, |rng| {
            let vocab = check::vec(rng, 0..30, random_token);
            let docs = check::vec(rng, 1..12, |r| random_doc(r, &vocab));
            // Reference: the standard splitter into a string-keyed map.
            let mut want: Index = HashMap::new();
            let mut want_tokens = 0u64;
            for (doc, text) in docs.iter().enumerate() {
                let mut counts: HashMap<String, u32> = HashMap::new();
                for tok in text.split_ascii_whitespace() {
                    *counts.entry(tok.to_string()).or_default() += 1;
                    want_tokens += 1;
                }
                for (term, count) in counts {
                    want.entry(term).or_default().push((doc, count));
                }
            }
            // The tables: documents dealt at random over up to three
            // workers' tables, then merged.
            let mut tables: Vec<TermTable> =
                (0..rng.range(1..4)).map(|_| TermTable::default()).collect();
            for (doc, text) in docs.iter().enumerate() {
                let w = rng.index(tables.len());
                tables[w].add_doc(doc, text);
            }
            let (got, stats) = TermTable::merge(tables, docs.len());
            assert_eq!(got, want, "docs: {docs:?}");
            assert_eq!(stats.tokens, want_tokens);
            assert_eq!(stats.unique_terms, want.len());
        });
    }

    #[test]
    fn a_document_that_is_not_utf8_fails_the_run() {
        let s = store();
        generate_corpus(&*s, "/c", &CorpusSpec::small()).unwrap();
        let bad = s.create("/c/doc-bad").unwrap();
        s.write_at(bad, 0, b"valid words, then \xFF\xFE").unwrap();
        // Run on a thread of its own, so a worker left waiting fails the
        // test instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        let run = std::thread::spawn(move || tx.send(TextIndexer::new(s, 4).run("/c")).unwrap());
        let r = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("every worker returns");
        run.join().unwrap();
        assert_eq!(r.unwrap_err(), RpcErr::Io);
    }

    #[test]
    fn missing_dir_errors() {
        let s = store();
        let r = TextIndexer::new(s, 2).run("/nope");
        assert_eq!(r.unwrap_err(), RpcErr::NotFound);
    }
}
