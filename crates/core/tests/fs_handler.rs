//! FS proxy handler semantics: data-path choice (P2P vs buffered),
//! coalescing, readahead, fault containment. These drive the proxy
//! through its public [`FsProxy::handle`] entry and through the shared
//! proxy engine via [`FsProxy::serve`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use solros::fs_proxy::{FsProxy, FsProxyStats};
use solros::transport::{Channel, RpcClient};
use solros_fs::FileSystem;
use solros_lease::LeaseKind;
use solros_nvme::{NvmeDevice, BLOCK_SIZE};
use solros_pcie::window::Window;
use solros_pcie::{PcieCounters, Side};
use solros_proto::fs_msg::{FsRequest, FsResponse};
use solros_proto::rpc_error::RpcErr;

fn setup(crosses_numa: bool) -> (FsProxy, Arc<FileSystem>, Arc<Window>, Arc<FsProxyStats>) {
    let fs = Arc::new(FileSystem::mkfs(NvmeDevice::new(8192), 256).unwrap());
    let window = Window::new(1 << 20, Side::Coproc, Arc::new(PcieCounters::new()));
    let stats = Arc::new(FsProxyStats::default());
    let proxy = FsProxy::new(
        Arc::clone(&fs),
        Arc::clone(&window),
        crosses_numa,
        Arc::clone(&stats),
    );
    (proxy, fs, window, stats)
}

fn window_write(w: &Arc<Window>, off: usize, data: &[u8]) {
    // SAFETY: exclusive test buffer.
    unsafe { w.map(Side::Coproc).write(off, data) };
}

fn window_read(w: &Arc<Window>, off: usize, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    // SAFETY: exclusive test buffer.
    unsafe { w.map(Side::Coproc).read(off, &mut v) };
    v
}

#[test]
fn aligned_read_goes_p2p_and_coalesces() {
    let (mut proxy, fs, window, stats) = setup(false);
    let ino = fs.create("/f").unwrap();
    let data: Vec<u8> = (0..4 * BLOCK_SIZE).map(|i| (i % 253) as u8).collect();
    fs.write(ino, 0, &data).unwrap();
    // Clear the write-through cache so the read cannot be a cache hit.
    fs.cache().invalidate_ino(ino);
    let ints0 = fs.device().stats().interrupts;

    let resp = proxy.handle(FsRequest::Read {
        ino,
        offset: 0,
        count: 4 * BLOCK_SIZE as u64,
        buf_addr: 0,
    });
    assert_eq!(
        resp,
        FsResponse::Read {
            count: 4 * BLOCK_SIZE as u64
        }
    );
    assert_eq!(stats.p2p_reads.load(Ordering::Relaxed), 1);
    assert_eq!(stats.buffered_reads.load(Ordering::Relaxed), 0);
    assert_eq!(window_read(&window, 0, data.len()), data);
    // One vectored batch: exactly one interrupt for the whole read.
    assert_eq!(fs.device().stats().interrupts, ints0 + 1);
}

#[test]
fn cross_numa_demotes_to_buffered() {
    let (mut proxy, fs, window, stats) = setup(true);
    let ino = fs.create("/f").unwrap();
    let data = vec![7u8; 2 * BLOCK_SIZE];
    fs.write(ino, 0, &data).unwrap();
    fs.cache().invalidate_ino(ino);
    let resp = proxy.handle(FsRequest::Read {
        ino,
        offset: 0,
        count: 2 * BLOCK_SIZE as u64,
        buf_addr: 4096,
    });
    assert_eq!(
        resp,
        FsResponse::Read {
            count: 2 * BLOCK_SIZE as u64
        }
    );
    assert_eq!(stats.p2p_reads.load(Ordering::Relaxed), 0);
    assert_eq!(stats.buffered_reads.load(Ordering::Relaxed), 1);
    assert_eq!(window_read(&window, 4096, data.len()), data);
}

#[test]
fn cache_hit_prefers_buffered() {
    let (mut proxy, fs, _window, stats) = setup(false);
    let ino = fs.create("/f").unwrap();
    let data = vec![9u8; BLOCK_SIZE];
    fs.write(ino, 0, &data).unwrap(); // Write-through warms the cache.
    let resp = proxy.handle(FsRequest::Read {
        ino,
        offset: 0,
        count: BLOCK_SIZE as u64,
        buf_addr: 0,
    });
    assert_eq!(
        resp,
        FsResponse::Read {
            count: BLOCK_SIZE as u64
        }
    );
    assert_eq!(stats.buffered_reads.load(Ordering::Relaxed), 1);
    assert_eq!(stats.p2p_reads.load(Ordering::Relaxed), 0);
}

#[test]
fn unaligned_read_demotes() {
    let (mut proxy, fs, window, stats) = setup(false);
    let ino = fs.create("/f").unwrap();
    let data: Vec<u8> = (0..2 * BLOCK_SIZE).map(|i| (i % 251) as u8).collect();
    fs.write(ino, 0, &data).unwrap();
    fs.cache().invalidate_ino(ino);
    let resp = proxy.handle(FsRequest::Read {
        ino,
        offset: 100,
        count: 500,
        buf_addr: 0,
    });
    assert_eq!(resp, FsResponse::Read { count: 500 });
    assert_eq!(stats.buffered_reads.load(Ordering::Relaxed), 1);
    assert_eq!(window_read(&window, 0, 500), data[100..600]);
}

#[test]
fn p2p_write_roundtrips_and_invalidates_cache() {
    let (mut proxy, fs, window, stats) = setup(false);
    let ino = fs.create("/f").unwrap();
    // Seed stale data through the cache.
    fs.write(ino, 0, &vec![1u8; 2 * BLOCK_SIZE]).unwrap();
    // P2P write of fresh data directly from "co-processor memory".
    let fresh: Vec<u8> = (0..2 * BLOCK_SIZE).map(|i| (i % 249) as u8).collect();
    window_write(&window, 8192, &fresh);
    let resp = proxy.handle(FsRequest::Write {
        ino,
        offset: 0,
        count: 2 * BLOCK_SIZE as u64,
        buf_addr: 8192,
    });
    assert_eq!(
        resp,
        FsResponse::Write {
            count: 2 * BLOCK_SIZE as u64
        }
    );
    assert_eq!(stats.p2p_writes.load(Ordering::Relaxed), 1);
    // A buffered read now must see the new data, not the stale cache.
    let mut out = vec![0u8; 2 * BLOCK_SIZE];
    fs.read(ino, 0, &mut out).unwrap();
    assert_eq!(out, fresh);
}

#[test]
fn p2p_write_extends_file() {
    let (mut proxy, fs, window, _stats) = setup(false);
    let ino = fs.create("/f").unwrap();
    let data = vec![5u8; 1000]; // Partial tail, extending: P2P-safe.
    window_write(&window, 0, &data);
    let resp = proxy.handle(FsRequest::Write {
        ino,
        offset: 0,
        count: 1000,
        buf_addr: 0,
    });
    assert_eq!(resp, FsResponse::Write { count: 1000 });
    assert_eq!(fs.size_of(ino).unwrap(), 1000);
    let mut out = vec![0u8; 1000];
    fs.read(ino, 0, &mut out).unwrap();
    assert_eq!(out, data);
}

#[test]
fn unaligned_overwrite_demotes_to_buffered() {
    let (mut proxy, fs, window, stats) = setup(false);
    let ino = fs.create("/f").unwrap();
    fs.write(ino, 0, &vec![1u8; 2 * BLOCK_SIZE]).unwrap();
    // Overwrite 10 bytes mid-file: partial tail NOT extending => buffered.
    window_write(&window, 0, &[9u8; 10]);
    let resp = proxy.handle(FsRequest::Write {
        ino,
        offset: 4096,
        count: 10,
        buf_addr: 0,
    });
    assert_eq!(resp, FsResponse::Write { count: 10 });
    assert_eq!(stats.buffered_writes.load(Ordering::Relaxed), 1);
    let mut out = vec![0u8; 2 * BLOCK_SIZE];
    fs.read(ino, 0, &mut out).unwrap();
    assert_eq!(&out[4096..4106], &[9u8; 10]);
    assert_eq!(out[4106], 1, "bytes beyond the overwrite untouched");
}

#[test]
fn o_buffer_forces_buffered_io() {
    let (mut proxy, fs, _window, stats) = setup(false);
    let resp = proxy.handle(FsRequest::Open {
        path: "/b".into(),
        create: true,
        truncate: false,
        buffered: true,
    });
    let ino = match resp {
        FsResponse::Open { ino, .. } => ino,
        other => panic!("unexpected {other:?}"),
    };
    fs.write(ino, 0, &vec![3u8; BLOCK_SIZE]).unwrap();
    fs.cache().invalidate_ino(ino);
    proxy.handle(FsRequest::Read {
        ino,
        offset: 0,
        count: BLOCK_SIZE as u64,
        buf_addr: 0,
    });
    assert_eq!(stats.buffered_reads.load(Ordering::Relaxed), 1);
    assert_eq!(stats.p2p_reads.load(Ordering::Relaxed), 0);
}

#[test]
fn read_beyond_eof_returns_zero() {
    let (mut proxy, fs, _window, _stats) = setup(false);
    let ino = fs.create("/f").unwrap();
    fs.write(ino, 0, b"xy").unwrap();
    let resp = proxy.handle(FsRequest::Read {
        ino,
        offset: 100,
        count: 10,
        buf_addr: 0,
    });
    assert_eq!(resp, FsResponse::Read { count: 0 });
}

#[test]
fn metadata_rpcs_roundtrip() {
    let (mut proxy, _fs, _window, _stats) = setup(false);
    assert!(matches!(
        proxy.handle(FsRequest::Mkdir { path: "/d".into() }),
        FsResponse::Mkdir { .. }
    ));
    assert!(matches!(
        proxy.handle(FsRequest::Create {
            path: "/d/f".into()
        }),
        FsResponse::Create { .. }
    ));
    assert_eq!(
        proxy.handle(FsRequest::Readdir { path: "/d".into() }),
        FsResponse::Readdir {
            names: vec!["f".into()]
        }
    );
    assert_eq!(
        proxy.handle(FsRequest::Rename {
            from: "/d/f".into(),
            to: "/d/g".into()
        }),
        FsResponse::Ok
    );
    assert!(matches!(
        proxy.handle(FsRequest::Stat {
            path: "/d/g".into()
        }),
        FsResponse::Stat { is_dir: false, .. }
    ));
    assert_eq!(
        proxy.handle(FsRequest::Unlink {
            path: "/d/g".into()
        }),
        FsResponse::Ok
    );
    assert_eq!(
        proxy.handle(FsRequest::Unlink {
            path: "/d/g".into()
        }),
        FsResponse::Error {
            err: RpcErr::NotFound
        }
    );
    assert_eq!(proxy.handle(FsRequest::Fsync { ino: 0 }), FsResponse::Ok);
}

#[test]
fn sequential_buffered_reads_trigger_readahead() {
    // Cross-NUMA proxy: everything is buffered, so the readahead path
    // is exercised by a sequential scan.
    let (mut proxy, fs, _window, stats) = setup(true);
    let ino = fs.create("/seq").unwrap();
    fs.write(ino, 0, &vec![7u8; 32 * BLOCK_SIZE]).unwrap();
    fs.cache().invalidate_ino(ino);
    for i in 0..4u64 {
        let resp = proxy.handle(FsRequest::Read {
            ino,
            offset: i * 2 * BLOCK_SIZE as u64,
            count: 2 * BLOCK_SIZE as u64,
            buf_addr: 0,
        });
        assert_eq!(
            resp,
            FsResponse::Read {
                count: 2 * BLOCK_SIZE as u64
            }
        );
    }
    let warmed = stats.prefetched_pages.load(Ordering::Relaxed);
    assert!(warmed >= 8, "sequential scan should prefetch, got {warmed}");
    // A random (non-sequential) read does not prefetch further.
    let before = stats.prefetched_pages.load(Ordering::Relaxed);
    proxy.handle(FsRequest::Read {
        ino,
        offset: 20 * BLOCK_SIZE as u64,
        count: BLOCK_SIZE as u64,
        buf_addr: 0,
    });
    assert_eq!(stats.prefetched_pages.load(Ordering::Relaxed), before);
}

/// Puts `proxy` behind an engine on a thread of its own.
fn serve(proxy: FsProxy) -> (Arc<RpcClient>, Arc<AtomicBool>, std::thread::JoinHandle<()>) {
    let ch = Channel::new(Arc::new(PcieCounters::new()));
    let client = RpcClient::new(ch.req_tx, ch.resp_rx);
    let shutdown = Arc::new(AtomicBool::new(false));
    let (req_rx, resp_tx, sd) = (ch.req_rx, ch.resp_tx, Arc::clone(&shutdown));
    let server = std::thread::spawn(move || proxy.serve(req_rx, resp_tx, sd, None));
    (client, shutdown, server)
}

fn call(client: &RpcClient, req: FsRequest) -> FsResponse {
    let tag = client.tag();
    FsResponse::decode(&client.call(tag, req.encode(tag)))
        .unwrap()
        .1
}

#[test]
fn injected_worker_panic_is_contained() {
    let (proxy, fs, _window, stats) = setup(false);
    let ino = fs.create("/f").unwrap();
    proxy.inject_worker_panics(1);
    let (client, shutdown, server) = serve(proxy);

    // The armed panic fires inside the handler and comes back as Io.
    let resp = call(&client, FsRequest::Fstat { ino });
    assert_eq!(resp, FsResponse::Error { err: RpcErr::Io });

    // The engine survived: the next request is served normally.
    let resp = call(&client, FsRequest::Fstat { ino });
    assert!(matches!(resp, FsResponse::Stat { .. }), "got {resp:?}");

    shutdown.store(true, Ordering::Relaxed);
    server.join().unwrap();
    assert_eq!(stats.worker_panics.load(Ordering::Relaxed), 1);
}

#[test]
fn injected_panic_on_an_inline_buffered_read_is_contained() {
    let (mut proxy, fs, window, stats) = setup(false);
    let data = vec![3u8; BLOCK_SIZE];
    let ino = match proxy.handle(FsRequest::Open {
        path: "/f".into(),
        create: true,
        truncate: false,
        buffered: true,
    }) {
        FsResponse::Open { ino, .. } => ino,
        other => panic!("open: {other:?}"),
    };
    fs.write(ino, 0, &data).unwrap();
    proxy.inject_worker_panics(1);
    let (client, shutdown, server) = serve(proxy);
    let read = FsRequest::Read {
        ino,
        offset: 0,
        count: BLOCK_SIZE as u64,
        buf_addr: 0,
    };
    // The buffered read runs on the engine thread, where the armed panic
    // fires: one `Io` reply, and the engine is there for the next call.
    assert_eq!(
        call(&client, read.clone()),
        FsResponse::Error { err: RpcErr::Io }
    );
    assert_eq!(
        call(&client, read),
        FsResponse::Read {
            count: BLOCK_SIZE as u64
        }
    );
    assert_eq!(window_read(&window, 0, BLOCK_SIZE), data);
    shutdown.store(true, Ordering::Relaxed);
    server.join().unwrap();
    assert_eq!(stats.worker_panics.load(Ordering::Relaxed), 1);
    assert_eq!(stats.buffered_reads.load(Ordering::Relaxed), 1);
}

/// An op that settles leases before it runs waits for the holder's ack
/// parked in the engine — `Unlink` handed back by the proxy, `Truncate`
/// parked at routing behind the external hold — and the ack comes in
/// through the same engine, which must still admit and execute it.
#[test]
fn a_call_waiting_on_a_lease_does_not_keep_the_engine_from_the_ack() {
    for by_unlink in [true, false] {
        let (proxy, fs, _window, _stats) = setup(false);
        let ino = fs.create("/leased").unwrap();
        fs.write(ino, 0, &vec![1u8; 4 * BLOCK_SIZE]).unwrap();
        let leases = proxy.lease_manager();
        // Far beyond the watchdog: only an ack can settle the recall.
        leases.set_recall_budget(Duration::from_secs(60));
        let (client, shutdown, server) = serve(proxy);
        let id = match call(
            &client,
            FsRequest::LeaseAcquire {
                ino,
                offset: 0,
                len: 4 * BLOCK_SIZE as u64,
                write: false,
            },
        ) {
            FsResponse::LeaseGrant { id, .. } => id,
            other => panic!("lease: {other:?}"),
        };
        let lease = leases.shared(id).expect("granted lease");

        let started = Instant::now();
        let tag = client.tag();
        let conflicting = if by_unlink {
            FsRequest::Unlink {
                path: "/leased".into(),
            }
        } else {
            FsRequest::Truncate { ino, size: 0 }
        };
        let waiting = client.submit(tag, conflicting.encode(tag)).unwrap();
        // The holder's side of the protocol: notice the recall, ack it.
        while !lease.is_recalled() {
            assert!(started.elapsed() < Duration::from_secs(2), "never recalled");
            std::thread::yield_now();
        }
        assert_eq!(
            call(&client, FsRequest::LeaseRecallAck { id, written_end: 0 }),
            FsResponse::Ok
        );
        let reply = client
            .wait_timeout(waiting, Duration::from_secs(2))
            .expect("the ack did not free the waiting call");
        assert_eq!(FsResponse::decode(&reply).unwrap().1, FsResponse::Ok);
        assert!(started.elapsed() < Duration::from_secs(2));
        let ledger = leases.ledger();
        assert_eq!((ledger.recalls_acked, ledger.forced_revokes), (1, 0));
        assert!(ledger.clean(), "{ledger:?}");
        shutdown.store(true, Ordering::Relaxed);
        server.join().unwrap();
    }
}

/// A call that meets a lease the engine never saw at routing — granted
/// straight through the manager, to another co-processor — starts the
/// recall and answers `WouldBlock` where the engine would park it, rather
/// than waiting for the holder from the thread that serves the call. Once
/// the holder's ack settles the lease, the same call goes through.
#[test]
fn a_call_meeting_an_unrouted_lease_recalls_it_without_waiting() {
    let (proxy, fs, _window, _stats) = setup(false);
    let leases = proxy.lease_manager();
    // Far beyond the watchdog: only an ack can settle a recall.
    leases.set_recall_budget(Duration::from_secs(60));
    let len = 4 * BLOCK_SIZE as u64;
    // Runs one call on a thread of its own, the proxy moved there and
    // back, so a call that waits for the holder fails the test instead of
    // hanging it.
    let mut proxy = Some(proxy);
    let mut call = |req: FsRequest| {
        let (tx, rx) = std::sync::mpsc::channel();
        let mut p = proxy.take().expect("the last call handed the proxy back");
        let caller = std::thread::spawn(move || {
            tx.send(p.handle(req)).unwrap();
            p
        });
        let resp = rx
            .recv_timeout(Duration::from_secs(2))
            .expect("the call waited for the lease holder");
        proxy = Some(caller.join().unwrap());
        resp
    };
    // A read meets a write lease; every other call, a read lease.
    for (path, write_lease) in [
        ("/read", true),
        ("/write", false),
        ("/truncate", false),
        ("/unlink", false),
        ("/acquire", false),
    ] {
        let ino = fs.create(path).unwrap();
        fs.write(ino, 0, &vec![1u8; 4 * BLOCK_SIZE]).unwrap();
        let request = match path {
            "/read" => FsRequest::Read {
                ino,
                offset: 0,
                count: len,
                buf_addr: 0,
            },
            "/write" => FsRequest::Write {
                ino,
                offset: 0,
                count: len,
                buf_addr: 0,
            },
            "/truncate" => FsRequest::Truncate { ino, size: 0 },
            "/unlink" => FsRequest::Unlink { path: path.into() },
            _ => FsRequest::LeaseAcquire {
                ino,
                offset: 0,
                len,
                write: true,
            },
        };
        let (extents, data_end) = fs.resolve_lease_extents(ino, 0, len, write_lease).unwrap();
        let kind = if write_lease {
            LeaseKind::Write
        } else {
            LeaseKind::Read
        };
        let lease = leases
            .grant(1, ino, 0, len, kind, extents, data_end, None)
            .expect("conflicting lease");
        assert_eq!(
            call(request.clone()),
            FsResponse::Error {
                err: RpcErr::WouldBlock
            },
            "{path}"
        );
        assert!(lease.is_recalled(), "{path}: the call did not recall");
        leases.settle_wire(lease.id(), 0, false).expect("ack");
        let resp = call(request);
        assert!(
            matches!(
                resp,
                FsResponse::Read { .. }
                    | FsResponse::Write { .. }
                    | FsResponse::Ok
                    | FsResponse::LeaseGrant { .. }
            ),
            "{path}: {resp:?}"
        );
    }
    let ledger = leases.ledger();
    assert_eq!((ledger.recalls_acked, ledger.forced_revokes), (5, 0));
}

#[test]
fn device_fault_recovery() {
    let (mut proxy, fs, _window, _stats) = setup(false);
    let ino = fs.create("/f").unwrap();
    fs.write(ino, 0, &vec![1u8; BLOCK_SIZE]).unwrap();
    fs.cache().invalidate_ino(ino);
    fs.device().inject_faults(1);
    let resp = proxy.handle(FsRequest::Read {
        ino,
        offset: 0,
        count: BLOCK_SIZE as u64,
        buf_addr: 0,
    });
    assert_eq!(
        resp,
        FsResponse::Read {
            count: BLOCK_SIZE as u64
        }
    );
}
