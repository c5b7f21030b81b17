//! The allocation budget of a steady-state request, as a gate.
//!
//! `solros_bench` installs a counting global allocator (the probe E10
//! uses for admission); this test boots a system, warms each path up,
//! and counts every heap allocation the whole process makes — stub,
//! rings, engines, FS, NVMe model, supervisor ticks — over 10 000+
//! operations. Each budget is one above what the path measured when it
//! was set, so the next `Vec` on a hot path fails here, not in a
//! benchmark. One `#[test]`: the count is process-wide, so the ten
//! paths must not overlap (CI also passes `--test-threads=1`).

use std::sync::Arc;
use std::time::Duration;

use solros::fs_api::{CoprocFs, FileHandle};
use solros::Solros;
use solros_apps::{generate_corpus, CorpusSpec, TextIndexer};
use solros_baseline::VirtioFs;
use solros_bench::alloc_probe::allocs;
use solros_fs::FileSystem;
use solros_machine::MachineConfig;
use solros_netdev::EndKind;
use solros_nvme::{NvmeDevice, BLOCK_SIZE};
use solros_qos::QosConfig;
use solros_simkit::DetRng;

const FILE_BLOCKS: u64 = 4096;
const BS: u64 = BLOCK_SIZE as u64;
/// Operations counted per path.
const OPS: u64 = 12_800;
const WAVE: usize = 32;
/// Pages of the `O_BUFFER` file: all of them fit in the host cache.
const HOT_BLOCKS: u64 = 128;
/// Pages of the `O_BUFFER` file that does not fit: four caches' worth.
const COLD_BLOCKS: u64 = 1024;
/// Pages between two reads of the cold file: coprime with its length, so
/// a read comes back to a page only after all the others.
const COLD_STRIDE: u64 = 7;

/// One co-processor on one socket, with a 256-page host cache.
fn machine() -> MachineConfig {
    MachineConfig {
        sockets: 1,
        coprocs: 1,
        ssd_blocks: 16_384,
        coproc_window_bytes: 8 << 20,
        host_cache_pages: 256,
    }
}

/// Allocations per call of `call`, over `calls` calls after a warm-up
/// that lets every reusable buffer reach its working size.
fn allocs_per_call(calls: u64, mut call: impl FnMut()) -> f64 {
    (0..calls / 4).for_each(|_| call());
    let before = allocs();
    (0..calls).for_each(|_| call());
    (allocs() - before) as f64 / calls as f64
}

/// A 16 MiB file written peer-to-peer, so the host cache stays cold and
/// aligned reads of it take the P2P path.
fn populate(fs: &CoprocFs, path: &str) -> FileHandle {
    let f = fs.create(path).unwrap();
    let chunk = vec![0xA5u8; 128 * BLOCK_SIZE];
    for first in (0..FILE_BLOCKS).step_by(128) {
        assert_eq!(fs.write_at(f, first * BS, &chunk), Ok(chunk.len()));
    }
    f
}

#[test]
fn steady_state_requests_stay_within_their_allocation_budgets() {
    let sys = Solros::boot(machine());
    let fs = Arc::clone(sys.data_plane(0).fs());
    let mut rng = DetRng::seed(0xA110C);
    let mut buf = vec![0u8; BLOCK_SIZE];

    // (a) One 4 KiB P2P read: submit, then wait into the caller's buffer.
    let f = populate(&fs, "/p2p");
    let per_read = allocs_per_call(OPS, || {
        let off = rng.below(FILE_BLOCKS) * BS;
        let pending = fs.submit_read_at(f, off, BLOCK_SIZE).unwrap();
        assert_eq!(pending.wait_into(&fs, &mut buf), Ok(BLOCK_SIZE));
    });

    // (b) A batch of 32 such reads. What remains is the API's: one `Vec`
    // per payload returned, and the builder's and the wave's own vectors.
    let per_batch = allocs_per_call(OPS / WAVE as u64, || {
        let mut batch = fs.batch();
        for _ in 0..WAVE {
            batch = batch.read(f, rng.below(FILE_BLOCKS) * BS, BLOCK_SIZE);
        }
        let results = batch.run();
        assert!(results
            .into_iter()
            .all(|r| r.into_read().len() == BLOCK_SIZE));
    });

    // (c) One 4 KiB leased read: no RPC, straight to the NVMe queues.
    let leased = populate(&fs, "/leased");
    assert_eq!(fs.lease_range(leased, 0, FILE_BLOCKS * BS, false), Ok(true));
    let per_leased_read = allocs_per_call(OPS, || {
        let off = rng.below(FILE_BLOCKS) * BS;
        assert_eq!(fs.read_at(leased, off, &mut buf), Ok(BLOCK_SIZE));
    });
    assert_eq!(
        fs.lease_table()
            .unwrap()
            .stats()
            .fallbacks
            .load(std::sync::atomic::Ordering::Relaxed),
        0,
        "every read in (c) was served from the lease"
    );

    // (e) One 4 KiB buffered read of a resident page, and (f) one 4 KiB
    // buffered overwrite of one: the page moves between the cache slot
    // and the co-processor window, and nothing else is touched.
    let (hot, _) = fs.open("/hot", true, false, true).unwrap();
    let block = vec![0x3Cu8; BLOCK_SIZE];
    for page in 0..HOT_BLOCKS {
        assert_eq!(fs.write_at(hot, page * BS, &block), Ok(BLOCK_SIZE));
    }
    let cache = sys.host_fs().cache();
    let misses = cache.stats().misses;
    let per_buffered_read = allocs_per_call(OPS, || {
        let off = rng.below(HOT_BLOCKS) * BS;
        assert_eq!(fs.read_at(hot, off, &mut buf), Ok(BLOCK_SIZE));
    });
    let per_buffered_overwrite = allocs_per_call(OPS, || {
        let off = rng.below(HOT_BLOCKS) * BS;
        assert_eq!(fs.write_at(hot, off, &block), Ok(BLOCK_SIZE));
    });
    assert_eq!(buf, block);
    let stats = cache.stats();
    assert_eq!(
        (stats.misses, stats.evictions),
        (misses, 0),
        "every access in (e) and (f) found its page resident"
    );

    // (h) One 4 KiB buffered read that misses: striding through a file
    // four times the cache, every read refills a slot from the SSD and
    // evicts a page. The stride is not sequential, so nothing is read
    // ahead.
    let (cold, _) = fs.open("/cold", true, false, true).unwrap();
    for page in 0..COLD_BLOCKS {
        assert_eq!(fs.write_at(cold, page * BS, &block), Ok(BLOCK_SIZE));
    }
    let mut page = 0;
    let mut read_cold = || {
        page = (page + COLD_STRIDE) % COLD_BLOCKS;
        assert_eq!(fs.read_at(cold, page * BS, &mut buf), Ok(BLOCK_SIZE));
    };
    // One lap leaves only pages the stride reaches a lap from now.
    (0..COLD_BLOCKS).for_each(|_| read_cold());
    let before = cache.stats();
    let per_buffered_miss = allocs_per_call(OPS, read_cold);
    let stats = cache.stats();
    let reads = OPS + OPS / 4;
    assert_eq!(
        (
            stats.misses - before.misses,
            stats.evictions - before.evictions
        ),
        (reads, reads),
        "every read in (h) missed and evicted"
    );

    // (d) A wave of 32 pipelined 64-byte sends on one socket, which the
    // proxy coalesces into one backend write and one reply wave; the
    // fabric client then drains it (its `recv` returns a fresh `Vec`).
    // What remains per send is the proxy's owned copy of the payload
    // (`NetRequest::Send { data }`).
    let net = sys.data_plane(0).net().clone();
    let listener = net.listen(7100, 16).unwrap();
    let fabric = Arc::clone(sys.network());
    let conn = fabric.client_connect(7100, 42).unwrap();
    let (stream, _) = listener.accept_timeout(Duration::from_secs(5)).unwrap();
    let msg = [0x5Au8; 64];
    let mut in_flight = Vec::with_capacity(WAVE);
    let per_send_wave = allocs_per_call(OPS / WAVE as u64, || {
        for _ in 0..WAVE {
            in_flight.push(stream.submit_send(&msg).unwrap());
        }
        for pending in in_flight.drain(..) {
            assert_eq!(pending.wait(&net), Ok(msg.len()));
        }
        let mut got = 0;
        while got < WAVE * msg.len() {
            got += fabric.recv(conn, EndKind::Client, 1 << 20).unwrap().len();
        }
    });

    // (g) One 64-byte echo round trip on the same socket: the client
    // sends, the stub's reader drains the event and replies, the client
    // reads the reply back.
    let mut at_server = [0u8; 64];
    let per_echo = allocs_per_call(OPS, || {
        fabric.send(conn, EndKind::Client, &msg).unwrap();
        let mut have = 0;
        while have < msg.len() {
            have += stream.recv(&mut at_server[have..]);
        }
        assert_eq!(stream.send(&at_server), Ok(msg.len()));
        let mut got = 0;
        while got < msg.len() {
            got += fabric.recv(conn, EndKind::Client, 64).unwrap().len();
        }
    });

    sys.shutdown();

    // (i) One 4 KiB P2P read, as (a), through the QoS gate: admission
    // charges the tenant's entry in the host QoS directory.
    let sys = Solros::boot_qos(machine(), QosConfig::enforcing());
    let fs = Arc::clone(sys.data_plane(0).fs());
    let f = populate(&fs, "/gated");
    let per_gated_read = allocs_per_call(OPS, || {
        let off = rng.below(FILE_BLOCKS) * BS;
        let pending = fs.submit_read_at(f, off, BLOCK_SIZE).unwrap();
        assert_eq!(pending.wait_into(&fs, &mut buf), Ok(BLOCK_SIZE));
    });
    sys.shutdown();

    // (j) One warm run of the text indexer, as the benchmark's
    // `app_text_index` runs it (24 documents of 6 000 B over a 1 000-word
    // vocabulary), on the in-process virtio stack, with one worker so that
    // the count is the same every run. What remains is one `String` and
    // one postings `Vec` per term, the worker's table and thread, and each
    // document's read buffers.
    let virtio = Arc::new(VirtioFs::new(Arc::new(
        FileSystem::mkfs(NvmeDevice::new(32_768), 512).unwrap(),
    )));
    let spec = CorpusSpec {
        docs: 24,
        doc_bytes: 6_000,
        vocab: 1_000,
        skew: 0.8,
        seed: 0x501705,
    };
    generate_corpus(&*virtio, "/corpus", &spec).unwrap();
    let indexer = TextIndexer::new(virtio, 1);
    let per_index_run = allocs_per_call(40, || {
        let (_, stats) = indexer.run("/corpus").unwrap();
        assert_eq!(stats.docs, spec.docs);
    });

    println!(
        "allocations per call: p2p read {per_read:.3}, batch of {WAVE} {per_batch:.2}, \
         leased read {per_leased_read:.3}, wave of {WAVE} sends {per_send_wave:.2}, \
         buffered read hit {per_buffered_read:.3}, buffered overwrite {per_buffered_overwrite:.3}, \
         echo {per_echo:.3}, buffered read miss {per_buffered_miss:.3}, \
         gated p2p read {per_gated_read:.3}, text index run {per_index_run:.3}"
    );
    // Measured when set, the same on every run: 0, 43 (32 payloads, the
    // builder's four growths, and one each for the wave's arena, offsets,
    // tags, buffers and tokens, the in-flight queue and the results), 0,
    // 33 (32 owned payloads at the proxy, the fabric client's `recv`),
    // 0 and 0 (before the page was lent in place: 3 and 7), and 2 (the
    // proxy's owned `Send` payload and the client's `recv`; 4 while the
    // proxy read the fabric into a `Vec` and the stub decoded the event
    // into another), 0 (2 while the cache directory's log rebuilt its
    // append buffer after every combine), 0 (2: that, and the engine
    // rebuilding its per-burst map of tenant charges) and 3 123 (3 121
    // under `--nocapture`: the harness's output capture costs the worker's
    // spawn two allocations; about 20 300 while each document counted into
    // a map of its own and each of its terms became a `String`).
    assert!(per_read <= 1.0, "P2P read: {per_read:.3} allocations");
    assert!(
        per_batch <= 44.0,
        "batch of {WAVE}: {per_batch:.2} allocations"
    );
    assert!(
        per_leased_read <= 1.0,
        "leased read: {per_leased_read:.3} allocations"
    );
    assert!(
        per_send_wave <= 34.0,
        "wave of {WAVE} sends: {per_send_wave:.2} allocations"
    );
    assert!(
        per_buffered_read <= 1.0,
        "buffered read hit: {per_buffered_read:.3} allocations"
    );
    assert!(
        per_buffered_overwrite <= 1.0,
        "buffered overwrite: {per_buffered_overwrite:.3} allocations"
    );
    assert!(per_echo <= 3.0, "64 B echo: {per_echo:.3} allocations");
    assert!(
        per_buffered_miss <= 1.0,
        "buffered read miss: {per_buffered_miss:.3} allocations"
    );
    assert!(
        per_gated_read <= 1.0,
        "gated P2P read: {per_gated_read:.3} allocations"
    );
    assert!(
        per_index_run <= 3_124.0,
        "text index run: {per_index_run:.3} allocations"
    );
}
