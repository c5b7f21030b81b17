//! The eight workloads: what each sets up, what one closed-loop call
//! does, and how its outputs are checked. `README.md` says why each one
//! exists; the names are final and later issues cite them.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::Duration;

use solros::fs_api::{BatchResult, CoprocFs, FileHandle};
use solros::{CoprocNet, Solros, TcpListener, TcpStream};
use solros_apps::corpus::document_text;
use solros_apps::{generate_corpus, CorpusSpec, TextIndexer};
use solros_machine::MachineConfig;
use solros_netdev::{ConnId, EndKind, Network};
use solros_nvme::BLOCK_SIZE;
use solros_simkit::DetRng;

use crate::data::{check_block, check_msg, check_range, fill_block, fill_msg, fill_range};
use crate::procfs;
use crate::trace::Tracer;

/// Workload names, in the order they run.
pub const NAMES: [&str; 8] = [
    "fs_read_4k_qd1",
    "fs_read_4k_qd32",
    "fs_bulk_512k_rw",
    "fs_buf_mixed_4k",
    "fs_lease_read_4k",
    "tcp_echo_64b",
    "tcp_send_64b_qd32",
    "app_text_index",
];

/// The fixed machine every workload boots: one socket, one co-processor,
/// a 256 MiB SSD, a 32 MiB exported window and a 4 MiB host cache — all
/// of it on one CPU (see [`procfs::pin_process_to_one_cpu`]).
pub fn machine_config() -> MachineConfig {
    MachineConfig {
        sockets: 1,
        coprocs: 1,
        ssd_blocks: 65_536,
        coproc_window_bytes: 32 << 20,
        host_cache_pages: 1024,
    }
}

const BS: u64 = BLOCK_SIZE as u64;
const BULK: usize = 512 * 1024;
const BULK_BLOCKS: u64 = BULK as u64 / BS;
/// Requests in flight per call on the `qd32` workloads.
const DEPTH: usize = 32;
const MSG: usize = 64;

/// The outcome of one closed-loop call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Call {
    /// Wall-clock latency of the program calls, output checks excluded.
    pub lat_ns: u64,
    /// Operations attempted.
    pub ops: u64,
    /// Operations that errored, were refused, or returned wrong bytes.
    pub failed: u64,
}

/// The request shape a workload puts on each layer, which the replays in
/// [`crate::layers`] reproduce. Zero / `false` means "not on the path".
#[derive(Debug, Clone, Copy, Default)]
pub struct Shape {
    /// RPCs per call.
    pub rpcs_per_call: usize,
    /// RPCs in flight at once (frames per ring wave, replies per
    /// settlement wave).
    pub depth: usize,
    /// The RPCs are socket sends (else file reads/writes).
    pub net: bool,
    /// Bytes mapped per `fiemap` call on the P2P path.
    pub fiemap_bytes: u64,
    /// `fiemap` calls per workload call.
    pub fiemaps_per_call: usize,
    /// 4 KiB blocks per NVMe command in one vectored submission.
    pub nvme_cmd_blocks: u32,
    /// Commands per vectored submission.
    pub nvme_cmds: usize,
    /// Vectored submissions per workload call.
    pub nvme_submits_per_call: usize,
    /// The buffered `solros-fs` path and the cache-directory log are used.
    pub buffered: bool,
    /// Fabric send + receive pairs per call.
    pub netdev_pairs_per_call: usize,
}

/// Which FS-proxy data path a workload's operations must all take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataPath {
    /// Every read and write peer-to-peer (`fs_proxy.buffered_share` 0).
    P2p,
    /// Every read and write through the host cache (share 1).
    Buffered,
    /// No RPC at all: every read served from the lease.
    Leased,
    /// No claim.
    Any,
}

/// One workload, set up and ready to be called in a closed loop.
pub trait Workload {
    /// Makes the next inputs from the seed, calls the program, checks
    /// the outputs.
    fn call(&mut self, tr: &mut Tracer) -> Call;

    /// Load-generating threads a call uses.
    fn load_threads(&self) -> usize {
        1
    }

    /// The request shape for the layer replays.
    fn shape(&self) -> Shape;

    /// The data path the workload claims to drive; a tripwire holds it
    /// to that.
    fn data_path(&self) -> DataPath {
        DataPath::Any
    }

    /// Calls in the traced pass of a traced run: about a second's worth,
    /// and a span file of a few megabytes.
    fn trace_calls(&self) -> u64 {
        20_000
    }

    /// Spans one call records, its root included.
    fn spans_per_call(&self) -> usize {
        2
    }

    /// `(tokens, bytes read)` per call; only the application reports it.
    fn app_stats(&self) -> Option<(u64, u64)> {
        None
    }
}

/// A booted system with one workload set up on it.
pub struct Bench {
    /// The workload. Declared first so it drops before the system.
    pub workload: Box<dyn Workload>,
    /// The system under test.
    pub sys: Solros,
}

/// Boots the fixed machine and sets `name` up on it.
///
/// # Errors
///
/// Returns a message when `name` is unknown or set-up fails.
pub fn setup(name: &str, seed: u64) -> Result<Bench, String> {
    // Every thread the boot spawns inherits this thread's CPU.
    procfs::pin_process_to_one_cpu();
    let sys = Solros::boot(machine_config());
    let fs = Arc::clone(sys.data_plane(0).fs());
    let workload: Box<dyn Workload> = match name {
        "fs_read_4k_qd1" => Box::new(ReadQd1::new(fs, seed)?),
        "fs_read_4k_qd32" => Box::new(ReadQd32::new(fs, seed)?),
        "fs_bulk_512k_rw" => Box::new(BulkRw::new(fs, seed)?),
        "fs_buf_mixed_4k" => Box::new(BufMixed::new(fs, seed)?),
        "fs_lease_read_4k" => Box::new(LeaseRead::new(fs, seed)?),
        "tcp_echo_64b" => Box::new(Echo::new(&sys, seed)?),
        "tcp_send_64b_qd32" => Box::new(SendQd32::new(&sys, seed)?),
        "app_text_index" => Box::new(TextIndex::new(fs, seed)?),
        other => return Err(format!("unknown workload {other:?}")),
    };
    Ok(Bench { workload, sys })
}

/// Creates `path` and fills it with `blocks` stamped blocks at version
/// 0, through 512 KiB peer-to-peer writes (which leave the host cache
/// cold, so later aligned reads take the P2P path).
fn populate(
    fs: &CoprocFs,
    path: &str,
    seed: u64,
    file: u8,
    blocks: u64,
) -> Result<FileHandle, String> {
    let f = fs
        .create(path)
        .map_err(|e| format!("create {path}: {e:?}"))?;
    let mut chunk = vec![0u8; BULK];
    for first in (0..blocks).step_by(BULK_BLOCKS as usize) {
        let n = (blocks - first).min(BULK_BLOCKS) as usize * BLOCK_SIZE;
        fill_range(&mut chunk[..n], seed, file, first, |_| 0);
        match fs.write_at(f, first * BS, &chunk[..n]) {
            Ok(w) if w == n => {}
            other => return Err(format!("populate {path} at block {first}: {other:?}")),
        }
    }
    Ok(f)
}

/// 64 MiB: sixteen times the host cache, so no read is a cache hit.
const BIG_FILE_BLOCKS: u64 = 16_384;

struct ReadQd1 {
    fs: Arc<CoprocFs>,
    f: FileHandle,
    seed: u64,
    rng: DetRng,
    buf: Vec<u8>,
}

impl ReadQd1 {
    fn new(fs: Arc<CoprocFs>, seed: u64) -> Result<Self, String> {
        let f = populate(&fs, "/data", seed, 1, BIG_FILE_BLOCKS)?;
        Ok(Self {
            fs,
            f,
            seed,
            rng: DetRng::seed(seed ^ 0x71d1),
            buf: vec![0u8; BLOCK_SIZE],
        })
    }
}

impl Workload for ReadQd1 {
    fn call(&mut self, tr: &mut Tracer) -> Call {
        let idx = self.rng.below(BIG_FILE_BLOCKS);
        let (fs, f, buf) = (&self.fs, self.f, &mut self.buf);
        let (got, lat_ns) = tr.call(|tr| {
            let pending = tr.span("stub.submit", || fs.submit_read_at(f, idx * BS, BLOCK_SIZE))?;
            tr.span("stub.wait", || pending.wait_into(fs, buf))
        });
        let ok = got == Ok(BLOCK_SIZE) && check_block(&self.buf, self.seed, 1, idx, 0);
        Call {
            lat_ns,
            ops: 1,
            failed: u64::from(!ok),
        }
    }

    fn data_path(&self) -> DataPath {
        DataPath::P2p
    }

    fn spans_per_call(&self) -> usize {
        3
    }

    fn shape(&self) -> Shape {
        Shape {
            rpcs_per_call: 1,
            depth: 1,
            fiemap_bytes: BS,
            fiemaps_per_call: 1,
            nvme_cmd_blocks: 1,
            nvme_cmds: 1,
            nvme_submits_per_call: 1,
            ..Shape::default()
        }
    }
}

struct ReadQd32 {
    fs: Arc<CoprocFs>,
    f: FileHandle,
    seed: u64,
    rng: DetRng,
}

impl ReadQd32 {
    fn new(fs: Arc<CoprocFs>, seed: u64) -> Result<Self, String> {
        let f = populate(&fs, "/data", seed, 1, BIG_FILE_BLOCKS)?;
        Ok(Self {
            fs,
            f,
            seed,
            rng: DetRng::seed(seed ^ 0x71d32),
        })
    }
}

impl Workload for ReadQd32 {
    fn call(&mut self, tr: &mut Tracer) -> Call {
        let idxs: [u64; DEPTH] = std::array::from_fn(|_| self.rng.below(BIG_FILE_BLOCKS));
        let mut batch = self.fs.batch();
        for &idx in &idxs {
            batch = batch.read(self.f, idx * BS, BLOCK_SIZE);
        }
        let (results, lat_ns) = tr.call(|tr| tr.span("stub.batch", || batch.run()));
        let good = results
            .iter()
            .zip(&idxs)
            .filter(|(r, &idx)| {
                matches!(r, BatchResult::Read(Ok(v)) if check_block(v, self.seed, 1, idx, 0))
            })
            .count();
        Call {
            lat_ns,
            ops: DEPTH as u64,
            // A missing result is one that did not verify.
            failed: (DEPTH - good) as u64,
        }
    }

    fn data_path(&self) -> DataPath {
        DataPath::P2p
    }

    fn trace_calls(&self) -> u64 {
        1_500
    }

    fn shape(&self) -> Shape {
        Shape {
            rpcs_per_call: DEPTH,
            depth: DEPTH,
            fiemap_bytes: BS,
            fiemaps_per_call: DEPTH,
            nvme_cmd_blocks: 1,
            nvme_cmds: DEPTH,
            nvme_submits_per_call: 1,
            ..Shape::default()
        }
    }
}

/// 16 MiB per file: 32 sequential 512 KiB transfers per pass.
const BULK_FILE_BLOCKS: u64 = 4096;

/// Each call reads the next 512 KiB of one file and writes the next
/// 512 KiB of the other; after a full pass the files swap roles, so every
/// write is verified by the read that follows it one pass later.
struct BulkRw {
    fs: Arc<CoprocFs>,
    files: [FileHandle; 2],
    /// Shadow version of every block of both files.
    versions: [Vec<u32>; 2],
    src: usize,
    chunk: u64,
    seed: u64,
    staged: Vec<u8>,
}

impl BulkRw {
    fn new(fs: Arc<CoprocFs>, seed: u64) -> Result<Self, String> {
        let a = populate(&fs, "/bulk-a", seed, 1, BULK_FILE_BLOCKS)?;
        let b = populate(&fs, "/bulk-b", seed, 2, BULK_FILE_BLOCKS)?;
        let zero = vec![0u32; BULK_FILE_BLOCKS as usize];
        Ok(Self {
            fs,
            files: [a, b],
            versions: [zero.clone(), zero],
            src: 0,
            chunk: 0,
            seed,
            staged: vec![0u8; BULK],
        })
    }
}

impl Workload for BulkRw {
    fn call(&mut self, tr: &mut Tracer) -> Call {
        let (src, dst) = (self.src, 1 - self.src);
        let first = self.chunk * BULK_BLOCKS;
        let off = first * BS;
        let file_id = |i: usize| i as u8 + 1;
        let next = &self.versions[dst];
        fill_range(&mut self.staged, self.seed, file_id(dst), first, |i| {
            next[i as usize] + 1
        });
        let batch = self.fs.batch().read(self.files[src], off, BULK).write(
            self.files[dst],
            off,
            &self.staged,
        );
        let (results, lat_ns) = tr.call(|tr| tr.span("stub.batch", || batch.run()));
        let mut failed = 0;
        let have = &self.versions[src];
        match results.first() {
            Some(BatchResult::Read(Ok(v)))
                if check_range(v, self.seed, file_id(src), first, |i| have[i as usize]) => {}
            _ => failed += 1,
        }
        match results.get(1) {
            Some(BatchResult::Write(Ok(n))) if *n == BULK => {
                for v in &mut self.versions[dst][first as usize..(first + BULK_BLOCKS) as usize] {
                    *v += 1;
                }
            }
            _ => failed += 1,
        }
        self.chunk += 1;
        if self.chunk == BULK_FILE_BLOCKS / BULK_BLOCKS {
            self.chunk = 0;
            self.src = dst;
        }
        Call {
            lat_ns,
            ops: 2,
            failed,
        }
    }

    fn data_path(&self) -> DataPath {
        DataPath::P2p
    }

    fn trace_calls(&self) -> u64 {
        3_000
    }

    fn shape(&self) -> Shape {
        Shape {
            rpcs_per_call: 2,
            depth: 2,
            fiemap_bytes: BULK as u64,
            fiemaps_per_call: 2,
            nvme_cmd_blocks: solros_nvme::MDTS_BLOCKS,
            nvme_cmds: BULK_BLOCKS as usize / solros_nvme::MDTS_BLOCKS as usize,
            nvme_submits_per_call: 2,
            ..Shape::default()
        }
    }
}

/// 16 MiB: four times the host cache; the 2 MiB hot region fits in it.
const BUF_FILE_BLOCKS: u64 = 4096;
const HOT_BLOCKS: u64 = 512;

struct BufMixed {
    fs: Arc<CoprocFs>,
    f: FileHandle,
    versions: Vec<u32>,
    seed: u64,
    rng: DetRng,
    buf: Vec<u8>,
}

impl BufMixed {
    fn new(fs: Arc<CoprocFs>, seed: u64) -> Result<Self, String> {
        populate(&fs, "/mixed", seed, 1, BUF_FILE_BLOCKS)?;
        let (f, size) = fs
            .open("/mixed", false, false, true)
            .map_err(|e| format!("open buffered: {e:?}"))?;
        if size != BUF_FILE_BLOCKS * BS {
            return Err(format!("buffered file is {size} bytes after populate"));
        }
        Ok(Self {
            fs,
            f,
            versions: vec![0; BUF_FILE_BLOCKS as usize],
            seed,
            rng: DetRng::seed(seed ^ 0xb0f),
            buf: vec![0u8; BLOCK_SIZE],
        })
    }
}

impl Workload for BufMixed {
    fn call(&mut self, tr: &mut Tracer) -> Call {
        let idx = if self.rng.chance(0.8) {
            self.rng.below(HOT_BLOCKS)
        } else {
            self.rng.below(BUF_FILE_BLOCKS)
        };
        let write = self.rng.chance(0.3);
        let version = &mut self.versions[idx as usize];
        let (fs, f, buf) = (&self.fs, self.f, &mut self.buf);
        let (ok, lat_ns) = if write {
            fill_block(buf, self.seed, 1, idx, *version + 1);
            let (r, lat) = tr.call(|tr| tr.span("stub.call", || fs.write_at(f, idx * BS, buf)));
            if r == Ok(BLOCK_SIZE) {
                *version += 1;
            }
            (r == Ok(BLOCK_SIZE), lat)
        } else {
            let (r, lat) = tr.call(|tr| tr.span("stub.call", || fs.read_at(f, idx * BS, buf)));
            let ok = r == Ok(BLOCK_SIZE) && check_block(buf, self.seed, 1, idx, *version);
            (ok, lat)
        };
        Call {
            lat_ns,
            ops: 1,
            failed: u64::from(!ok),
        }
    }

    fn data_path(&self) -> DataPath {
        DataPath::Buffered
    }

    fn shape(&self) -> Shape {
        Shape {
            rpcs_per_call: 1,
            depth: 1,
            nvme_cmd_blocks: 1,
            nvme_cmds: 1,
            buffered: true,
            ..Shape::default()
        }
    }
}

struct LeaseRead {
    fs: Arc<CoprocFs>,
    f: FileHandle,
    seed: u64,
    rng: DetRng,
    buf: Vec<u8>,
}

impl LeaseRead {
    fn new(fs: Arc<CoprocFs>, seed: u64) -> Result<Self, String> {
        let f = populate(&fs, "/data", seed, 1, BIG_FILE_BLOCKS)?;
        match fs.lease_range(f, 0, BIG_FILE_BLOCKS * BS, false) {
            Ok(true) => {}
            other => return Err(format!("whole-file read lease not granted: {other:?}")),
        }
        Ok(Self {
            fs,
            f,
            seed,
            rng: DetRng::seed(seed ^ 0x1ea5e),
            buf: vec![0u8; BLOCK_SIZE],
        })
    }
}

impl Workload for LeaseRead {
    fn call(&mut self, tr: &mut Tracer) -> Call {
        let idx = self.rng.below(BIG_FILE_BLOCKS);
        let (fs, f, buf) = (&self.fs, self.f, &mut self.buf);
        let (got, lat_ns) = tr.call(|tr| tr.span("lease.read", || fs.read_at(f, idx * BS, buf)));
        let ok = got == Ok(BLOCK_SIZE) && check_block(&self.buf, self.seed, 1, idx, 0);
        Call {
            lat_ns,
            ops: 1,
            failed: u64::from(!ok),
        }
    }

    fn data_path(&self) -> DataPath {
        DataPath::Leased
    }

    fn shape(&self) -> Shape {
        Shape {
            nvme_cmd_blocks: 1,
            nvme_cmds: 1,
            nvme_submits_per_call: 1,
            ..Shape::default()
        }
    }
}

/// One accepted connection: the co-processor's stream and the fabric
/// connection id the external client drives.
struct Link {
    fabric: Arc<Network>,
    conn: ConnId,
    net: CoprocNet,
    stream: TcpStream,
    /// Kept so the shared listening socket stays open for the run.
    _listener: TcpListener,
}

impl Link {
    fn open(sys: &Solros, port: u16) -> Result<Self, String> {
        let net = sys.data_plane(0).net().clone();
        let listener = net
            .listen(port, 16)
            .map_err(|e| format!("listen {port}: {e:?}"))?;
        let fabric = Arc::clone(sys.network());
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let conn = loop {
            match fabric.client_connect(port, 42) {
                Ok(c) => break c,
                Err(e) if std::time::Instant::now() > deadline => {
                    return Err(format!("connect {port}: {e:?}"))
                }
                Err(_) => std::thread::yield_now(),
            }
        };
        let (stream, _peer) = listener
            .accept_timeout(Duration::from_secs(5))
            .ok_or("accept timed out")?;
        Ok(Self {
            fabric,
            conn,
            net,
            stream,
            _listener: listener,
        })
    }

    /// Polls the fabric, as the remote client, until `out` is full.
    /// Returns false if the connection failed first.
    fn client_recv(&self, out: &mut [u8]) -> bool {
        let mut have = 0;
        while have < out.len() {
            match self
                .fabric
                .recv(self.conn, EndKind::Client, out.len() - have)
            {
                Ok(got) if got.is_empty() => std::thread::yield_now(),
                Ok(got) => {
                    out[have..have + got.len()].copy_from_slice(&got);
                    have += got.len();
                }
                Err(_) => return false,
            }
        }
        true
    }
}

struct Echo {
    link: Link,
    seed: u64,
    seq: u64,
}

impl Echo {
    fn new(sys: &Solros, seed: u64) -> Result<Self, String> {
        Ok(Self {
            link: Link::open(sys, 7001)?,
            seed,
            seq: 0,
        })
    }
}

impl Workload for Echo {
    fn call(&mut self, tr: &mut Tracer) -> Call {
        self.seq += 1;
        let mut msg = [0u8; MSG];
        fill_msg(&mut msg, self.seed, self.seq);
        let link = &self.link;
        let mut at_server = [0u8; MSG];
        let mut back = [0u8; MSG];
        let (ok, lat_ns) = tr.call(|tr| {
            let sent = tr.span("netdev.send", || {
                link.fabric.send(link.conn, EndKind::Client, &msg)
            });
            let mut have = 0;
            tr.span("stub.recv", || {
                while have < MSG {
                    match link.stream.recv(&mut at_server[have..]) {
                        0 => break,
                        n => have += n,
                    }
                }
            });
            let replied = tr.span("stub.send", || link.stream.send(&at_server));
            let arrived = tr.span("netdev.recv", || link.client_recv(&mut back));
            sent == Ok(MSG) && have == MSG && replied == Ok(MSG) && arrived
        });
        let ok = ok && at_server == msg && check_msg(&back, self.seed, self.seq);
        Call {
            lat_ns,
            ops: 1,
            failed: u64::from(!ok),
        }
    }

    fn trace_calls(&self) -> u64 {
        10_000
    }

    fn spans_per_call(&self) -> usize {
        5
    }

    fn shape(&self) -> Shape {
        Shape {
            rpcs_per_call: 1,
            depth: 1,
            net: true,
            netdev_pairs_per_call: 2,
            ..Shape::default()
        }
    }
}

struct SendQd32 {
    link: Link,
    seed: u64,
    seq: u64,
    wave: Vec<u8>,
}

impl SendQd32 {
    fn new(sys: &Solros, seed: u64) -> Result<Self, String> {
        Ok(Self {
            link: Link::open(sys, 7002)?,
            seed,
            seq: 0,
            wave: vec![0u8; DEPTH * MSG],
        })
    }
}

impl Workload for SendQd32 {
    fn call(&mut self, tr: &mut Tracer) -> Call {
        let first = self.seq + 1;
        self.seq += DEPTH as u64;
        let msgs: [[u8; MSG]; DEPTH] = std::array::from_fn(|i| {
            let mut m = [0u8; MSG];
            fill_msg(&mut m, self.seed, first + i as u64);
            m
        });
        let link = &self.link;
        let (acked, lat_ns) = tr.call(|tr| {
            let mut pending = Vec::with_capacity(DEPTH);
            for m in &msgs {
                pending.push(tr.span("stub.submit", || link.stream.submit_send(m)));
            }
            pending
                .into_iter()
                .filter(|p| p.is_ok())
                .map(|p| tr.span("stub.wait", || p.expect("filtered").wait(&link.net)))
                .filter(|r| *r == Ok(MSG))
                .count()
        });
        // The external client drains the wave and checks every message,
        // in order: coalescing may merge sends but never reorder them.
        let drained = acked == DEPTH && link.client_recv(&mut self.wave);
        let good = if drained {
            self.wave
                .chunks_exact(MSG)
                .enumerate()
                .filter(|(i, m)| check_msg(m, self.seed, first + *i as u64))
                .count()
        } else {
            0
        };
        Call {
            lat_ns,
            ops: DEPTH as u64,
            failed: (DEPTH - good) as u64,
        }
    }

    fn trace_calls(&self) -> u64 {
        600
    }

    fn spans_per_call(&self) -> usize {
        1 + 2 * DEPTH
    }

    fn shape(&self) -> Shape {
        Shape {
            rpcs_per_call: DEPTH,
            depth: DEPTH,
            net: true,
            netdev_pairs_per_call: 1,
            ..Shape::default()
        }
    }
}

struct TextIndex {
    indexer: TextIndexer<CoprocFs>,
    /// `(docs, tokens, unique terms)` counted host-side from the corpus
    /// generator, never through the system under test.
    want: (usize, u64, usize),
    last: (u64, u64),
    docs: usize,
}

impl TextIndex {
    const THREADS: usize = 2;

    fn new(fs: Arc<CoprocFs>, seed: u64) -> Result<Self, String> {
        // Sized so one run takes a few milliseconds on the reference box.
        let spec = CorpusSpec {
            docs: 24,
            doc_bytes: 6_000,
            vocab: 1_000,
            skew: 0.8,
            seed,
        };
        generate_corpus(&*fs, "/corpus", &spec).map_err(|e| format!("corpus: {e:?}"))?;
        let mut tokens = 0u64;
        let mut terms = HashSet::new();
        for d in 0..spec.docs {
            for tok in document_text(&spec, d).split_ascii_whitespace() {
                tokens += 1;
                terms.insert(tok.to_string());
            }
        }
        Ok(Self {
            indexer: TextIndexer::new(fs, Self::THREADS),
            want: (spec.docs, tokens, terms.len()),
            last: (0, 0),
            docs: spec.docs,
        })
    }
}

impl Workload for TextIndex {
    fn call(&mut self, tr: &mut Tracer) -> Call {
        let indexer = &self.indexer;
        let (r, lat_ns) = tr.call(|tr| tr.span("stub.call", || indexer.run("/corpus")));
        let ok = match r {
            Ok((_, s)) => {
                self.last = (s.tokens, s.bytes_read);
                (s.docs, s.tokens, s.unique_terms) == self.want
            }
            Err(_) => false,
        };
        Call {
            lat_ns,
            ops: 1,
            failed: u64::from(!ok),
        }
    }

    fn load_threads(&self) -> usize {
        Self::THREADS
    }

    fn trace_calls(&self) -> u64 {
        200
    }

    fn shape(&self) -> Shape {
        // One readdir, then an open and a one-read batch per document;
        // a 6 000-byte document maps and moves two blocks.
        Shape {
            rpcs_per_call: 1 + 2 * self.docs,
            depth: 1,
            fiemap_bytes: 2 * BS,
            fiemaps_per_call: self.docs,
            nvme_cmd_blocks: 2,
            nvme_cmds: 1,
            nvme_submits_per_call: self.docs,
            ..Shape::default()
        }
    }

    fn app_stats(&self) -> Option<(u64, u64)> {
        Some(self.last)
    }
}
