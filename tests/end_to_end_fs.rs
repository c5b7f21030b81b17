//! End-to-end file-system integration: data-plane stub → RPC rings →
//! control-plane proxy → NVMe device, on a full booted machine.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use solros::control::Solros;
use solros_machine::MachineConfig;
use solros_proto::rpc_error::RpcErr;

fn boot_paper_like() -> Solros {
    // 4 co-processors, two of them across the QPI boundary from the SSD.
    Solros::boot(MachineConfig {
        sockets: 2,
        coprocs: 4,
        ssd_blocks: 32_768,
        coproc_window_bytes: 4 << 20,
        host_cache_pages: 256,
    })
}

#[test]
fn shared_namespace_across_coprocs() {
    let sys = boot_paper_like();
    // Co-processor 0 writes; co-processor 3 (other socket) reads.
    let fs0 = sys.data_plane(0).fs();
    let fs3 = sys.data_plane(3).fs();
    fs0.mkdir("/shared").unwrap();
    let f = fs0.create("/shared/data").unwrap();
    let payload: Vec<u8> = (0..100_000).map(|i| (i % 251) as u8).collect();
    fs0.write_at(f, 0, &payload).unwrap();

    let (f3, size) = fs3.open("/shared/data", false, false, false).unwrap();
    assert_eq!(size, payload.len() as u64);
    let back = fs3.read_to_vec(f3, 0, payload.len()).unwrap();
    assert_eq!(back, payload);
    sys.shutdown();
}

#[test]
fn same_socket_uses_p2p_cross_socket_demotes() {
    let sys = boot_paper_like();
    let payload = vec![3u8; 64 * 1024];

    // Co-processor 0 shares the SSD's socket: P2P.
    let fs0 = sys.data_plane(0).fs();
    let f = fs0.create("/p2p-file").unwrap();
    fs0.write_at(f, 0, &payload).unwrap();
    let s0 = sys.fs_proxy_stats(0);
    assert!(
        s0.p2p_writes.load(Ordering::Relaxed) >= 1,
        "same-socket write should be P2P"
    );

    // Co-processor 2 is across QPI: every transfer demotes to buffered.
    let fs2 = sys.data_plane(2).fs();
    let f2 = fs2.create("/buffered-file").unwrap();
    fs2.write_at(f2, 0, &payload).unwrap();
    let _ = fs2.read_to_vec(f2, 0, payload.len()).unwrap();
    let s2 = sys.fs_proxy_stats(2);
    assert_eq!(s2.p2p_writes.load(Ordering::Relaxed), 0);
    assert_eq!(s2.p2p_reads.load(Ordering::Relaxed), 0);
    assert!(s2.buffered_writes.load(Ordering::Relaxed) >= 1);
    assert!(s2.buffered_reads.load(Ordering::Relaxed) >= 1);
    sys.shutdown();
}

#[test]
fn p2p_read_coalesces_interrupts() {
    let sys = boot_paper_like();
    let fs = sys.data_plane(0).fs();
    let f = fs.create("/big").unwrap();
    let payload = vec![9u8; 512 * 1024];
    fs.write_at(f, 0, &payload).unwrap();
    // Cold-cache read: one RPC = one vectored batch = one interrupt.
    sys.host_fs().cache().invalidate_ino(f.0);
    let before = sys.machine().nvme.stats();
    let back = fs.read_to_vec(f, 0, payload.len()).unwrap();
    assert_eq!(back, payload);
    let after = sys.machine().nvme.stats();
    assert_eq!(after.interrupts - before.interrupts, 1, "coalesced batch");
    assert_eq!(after.doorbells - before.doorbells, 1);
    assert!(after.commands - before.commands >= 4, "4 MDTS commands");
    sys.shutdown();
}

#[test]
fn o_buffer_forces_buffered_path() {
    let sys = boot_paper_like();
    let fs = sys.data_plane(0).fs();
    let (f, _) = fs.open("/obuf", true, false, true).unwrap();
    fs.write_at(f, 0, &vec![1u8; 8192]).unwrap();
    sys.host_fs().cache().invalidate_ino(f.0);
    let _ = fs.read_to_vec(f, 0, 8192).unwrap();
    let s = sys.fs_proxy_stats(0);
    assert_eq!(s.p2p_reads.load(Ordering::Relaxed), 0);
    assert!(s.buffered_reads.load(Ordering::Relaxed) >= 1);
    sys.shutdown();
}

#[test]
fn metadata_operations_through_the_stub() {
    let sys = Solros::boot(MachineConfig::small());
    let fs = sys.data_plane(0).fs();
    fs.mkdir("/a").unwrap();
    fs.mkdir("/a/b").unwrap();
    let f = fs.create("/a/b/c.txt").unwrap();
    fs.write_at(f, 0, b"0123456789").unwrap();

    assert_eq!(fs.readdir("/a").unwrap(), vec!["b"]);
    let st = fs.stat("/a/b/c.txt").unwrap();
    assert_eq!(st.size, 10);
    assert!(!st.is_dir);
    assert!(fs.stat("/a").unwrap().is_dir);

    fs.rename("/a/b/c.txt", "/a/renamed").unwrap();
    assert_eq!(fs.stat("/a/b/c.txt").unwrap_err(), RpcErr::NotFound);
    fs.truncate(f, 4).unwrap();
    assert_eq!(fs.fstat(f).unwrap().size, 4);
    fs.fsync(f).unwrap();
    fs.unlink("/a/renamed").unwrap();
    assert_eq!(fs.readdir("/a").unwrap(), vec!["b"]);
    // Errors map across the wire.
    assert_eq!(fs.mkdir("/a").unwrap_err(), RpcErr::Exists);
    assert_eq!(fs.readdir("/missing").unwrap_err(), RpcErr::NotFound);
    sys.shutdown();
}

#[test]
fn concurrent_coprocs_and_threads() {
    let sys = Solros::boot(MachineConfig::small());
    std::thread::scope(|s| {
        for cp in 0..sys.coprocs() {
            let fs = Arc::clone(sys.data_plane(cp).fs());
            s.spawn(move || {
                let dir = format!("/cp{cp}");
                fs.mkdir(&dir).unwrap();
                std::thread::scope(|inner| {
                    for t in 0..4 {
                        let fs = Arc::clone(&fs);
                        let dir = dir.clone();
                        inner.spawn(move || {
                            let path = format!("{dir}/t{t}");
                            let f = fs.create(&path).unwrap();
                            let data = vec![(cp * 10 + t) as u8; 20_000];
                            fs.write_at(f, 0, &data).unwrap();
                            let back = fs.read_to_vec(f, 0, data.len()).unwrap();
                            assert_eq!(back, data);
                        });
                    }
                });
            });
        }
    });
    sys.shutdown();
}

#[test]
fn cache_shared_between_coprocs() {
    let sys = Solros::boot(MachineConfig::small());
    let fs0 = sys.data_plane(0).fs();
    let fs1 = sys.data_plane(1).fs();
    let f = fs0.create("/warm").unwrap();
    fs0.write_at(f, 0, &vec![7u8; 16 * 1024]).unwrap();
    // Write-through warmed the host cache: coproc 1's read is buffered
    // (cache hit), not P2P — the shared-cache optimization of §4.3.2.
    let (f1, _) = fs1.open("/warm", false, false, false).unwrap();
    let _ = fs1.read_to_vec(f1, 0, 16 * 1024).unwrap();
    let s1 = sys.fs_proxy_stats(1);
    assert_eq!(s1.p2p_reads.load(Ordering::Relaxed), 0, "served from cache");
    assert!(s1.buffered_reads.load(Ordering::Relaxed) >= 1);
    assert!(sys.host_fs().cache().stats().hits > 0);
    sys.shutdown();
}

#[test]
fn a_batch_is_one_wave_whatever_the_schedule() {
    let sys = boot_paper_like();
    let fs = sys.data_plane(0).fs();
    let f = fs.create("/wave").unwrap();
    let block = |i: u8| vec![i; 4096];
    for i in 0..32u8 {
        fs.write_at(f, i as u64 * 4096, &block(i)).unwrap();
    }
    sys.host_fs().cache().invalidate_ino(f.0);

    // 32 cold 4 KiB reads go out as one request-ring publish, so the
    // proxy stages all of them into one vectored submission: exactly one
    // doorbell and one interrupt, however the two threads interleave.
    let before = sys.machine().nvme.stats();
    let mut batch = fs.batch();
    for i in (0..32u64).rev() {
        batch = batch.read(f, i * 4096, 4096);
    }
    let results = batch.run();
    let after = sys.machine().nvme.stats();
    assert_eq!(after.doorbells - before.doorbells, 1, "one wave");
    assert_eq!(after.interrupts - before.interrupts, 1);
    assert_eq!(after.commands - before.commands, 32);
    for (r, i) in results.into_iter().zip((0..32u8).rev()) {
        assert_eq!(r.into_read(), block(i), "results keep queue order");
    }

    // Writes, a barrier and a read of what was just written, in one
    // batch: the barrier op runs after everything queued before it.
    let results = fs
        .batch()
        .write(f, 0, &block(0xAA))
        .write(f, 4096, &block(0xBB))
        .barrier()
        .read(f, 0, 8192)
        .run();
    let mut results = results.into_iter();
    assert_eq!(results.next().unwrap().into_write(), 4096);
    assert_eq!(results.next().unwrap().into_write(), 4096);
    assert_eq!(
        results.next().unwrap().into_read(),
        [block(0xAA), block(0xBB)].concat()
    );
    sys.shutdown();
}

#[test]
fn a_batch_larger_than_the_window_degrades_without_deadlock() {
    // Sixteen 512 KiB reads need twice the 4 MiB window: the batch
    // submits what fits, harvests its oldest operation, and goes on.
    let sys = boot_paper_like();
    let fs = sys.data_plane(0).fs();
    let f = fs.create("/bulk").unwrap();
    const CHUNK: usize = 512 * 1024;
    let chunk = |i: u8| vec![i + 1; CHUNK];
    for i in 0..16u8 {
        assert_eq!(
            fs.write_at(f, i as u64 * CHUNK as u64, &chunk(i)),
            Ok(CHUNK)
        );
    }
    let mut batch = fs.batch();
    for i in 0..16u64 {
        batch = batch.read(f, i * CHUNK as u64, CHUNK);
    }
    // An empty read is refused where it stands; its neighbours run.
    let results = batch.read(f, 0, 0).read(f, 0, 4096).run();
    assert_eq!(results.len(), 18);
    let mut results = results.into_iter();
    for i in 0..16u8 {
        assert_eq!(results.next().unwrap().into_read(), chunk(i), "read {i}");
    }
    assert!(matches!(
        results.next().unwrap(),
        solros::fs_api::BatchResult::Read(Err(RpcErr::Invalid))
    ));
    assert_eq!(results.next().unwrap().into_read(), chunk(0)[..4096]);
    assert_eq!(fs.client().pending_len(), 0);
    sys.shutdown();
}
