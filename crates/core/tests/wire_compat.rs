//! Wire-compatibility regression: replies produced through the shared
//! proxy engine must be byte-identical to the pre-engine proxies for the
//! default tenant. The expected frames are built by hand from the wire
//! layout — `[u32 body_len LE][u8 msg_type][u32 tag LE][u8 credit]
//! [u8 flags][u8 tenant][body]` — never through the codec, so a codec or
//! engine change that moves a byte fails here even if encode/decode stay
//! mutually consistent.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use solros::fs_proxy::{FsProxy, FsProxyStats};
use solros::tcp_proxy::{NetChannelHost, TcpProxy};
use solros::transport::{event_ring, Channel, RpcClient};
use solros::RoundRobin;
use solros_fs::FileSystem;
use solros_nvme::NvmeDevice;
use solros_pcie::window::Window;
use solros_pcie::{PcieCounters, Side};
use solros_proto::fs_msg::FsRequest;
use solros_proto::net_msg::NetRequest;
use solros_qos::{FlowSpec, HostConfig, HostGate, HostScheduler, QosClass, Service};

// Reply type discriminators, restated from the wire spec (not imported:
// the point is to catch the constants drifting).
const R_WRITE: u8 = 113;
const R_STAT: u8 = 114;
const R_OK: u8 = 120;
const R_LEASE: u8 = 121;
const R_ERROR: u8 = 127;
const R_SOCKET: u8 = 140;
const R_SENT: u8 = 145;
const R_NOK: u8 = 150;
const R_NERROR: u8 = 157;
const ERR_NOT_FOUND: u32 = 1;
const ERR_INVALID: u32 = 8;

/// Accepts the pending fabric connection on `port`, reporting which
/// listener died instead of unwrapping blind.
fn accept_on(network: &solros_netdev::Network, port: u16) -> (solros_netdev::ConnId, u64) {
    match network.poll_accept(port) {
        Ok(Some(pending)) => pending,
        Ok(None) => panic!("accept on port {port}: connect never reached the listener"),
        Err(e) => panic!("accept on port {port} failed: {e:?}"),
    }
}

/// Hand-builds one reply frame from the wire layout.
fn golden(msg_type: u8, tag: u32, credit: u8, body: &[u8]) -> Vec<u8> {
    let mut f = Vec::with_capacity(12 + body.len());
    f.extend_from_slice(&(body.len() as u32).to_le_bytes());
    f.push(msg_type);
    f.extend_from_slice(&tag.to_le_bytes());
    f.push(credit);
    f.push(0); // flags: replies never carry submission flags
    f.push(0); // tenant: default tenant echoes as zero
    f.extend_from_slice(body);
    f
}

/// Hand-builds the `R_LEASE` body: id, generation, readable end, then a
/// `u32` extent count followed by `(start_lba u64, blocks u32)` pairs.
fn lease_grant_body(id: u64, generation: u64, data_end: u64, extents: &[(u64, u32)]) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(&id.to_le_bytes());
    b.extend_from_slice(&generation.to_le_bytes());
    b.extend_from_slice(&data_end.to_le_bytes());
    b.extend_from_slice(&(extents.len() as u32).to_le_bytes());
    for (start, blocks) in extents {
        b.extend_from_slice(&start.to_le_bytes());
        b.extend_from_slice(&blocks.to_le_bytes());
    }
    b
}

fn stat_body(ino: u64, size: u64) -> Vec<u8> {
    let mut b = Vec::new();
    b.extend_from_slice(&ino.to_le_bytes());
    b.push(0); // is_dir
    b.extend_from_slice(&size.to_le_bytes());
    b
}

struct FsRig {
    fs: Arc<FileSystem>,
    client: Arc<RpcClient>,
    shutdown: Arc<AtomicBool>,
    server: std::thread::JoinHandle<()>,
}

impl FsRig {
    fn stop(self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.server.join().unwrap();
    }
}

/// Boots an FS proxy over a real channel; `gated` adds the default
/// three-class DWRR gate with 1024-deep queues.
fn fs_rig(gated: bool) -> FsRig {
    let fs = Arc::new(FileSystem::mkfs(NvmeDevice::new(8192), 256).unwrap());
    let window = Window::new(1 << 20, Side::Coproc, Arc::new(PcieCounters::new()));
    let proxy = FsProxy::new(
        Arc::clone(&fs),
        window,
        false,
        Arc::new(FsProxyStats::default()),
    );
    let ch = Channel::new(Arc::new(PcieCounters::new()));
    let client = RpcClient::new(ch.req_tx, ch.resp_rx);
    let shutdown = Arc::new(AtomicBool::new(false));
    let sd = Arc::clone(&shutdown);
    let server = std::thread::spawn(move || {
        if gated {
            let spec = |name: &str, class: QosClass| FlowSpec {
                name: name.into(),
                class,
                weight: 4,
                ops_per_sec: 0,
                bytes_per_sec: 0,
                burst_ops: 0,
                burst_bytes: 0,
                queue_cap: 1024,
                deadline_ns: 0,
                sheddable: false,
            };
            let host = HostScheduler::new(HostConfig::default());
            let gate = HostGate::new(
                vec![
                    spec("wc/high", QosClass::High),
                    spec("wc/normal", QosClass::Normal),
                    spec("wc/best", QosClass::BestEffort),
                ],
                4096,
                usize::MAX,
                &host,
                Service::Fs,
                0,
            );
            proxy.serve(ch.req_rx, ch.resp_tx, sd, Some(gate));
        } else {
            proxy.serve(ch.req_rx, ch.resp_tx, sd, None);
        }
    });
    FsRig {
        fs,
        client,
        shutdown,
        server,
    }
}

#[test]
fn fs_ungated_replies_match_golden_frames() {
    let rig = fs_rig(false);
    let ino = rig.fs.create("/f").unwrap();
    rig.fs.write(ino, 0, &[7u8; 5]).unwrap();

    // Fstat: R_STAT with ino/is_dir/size, zero credit on the FIFO path.
    let reply = rig.client.call(7, FsRequest::Fstat { ino }.encode(7));
    assert_eq!(reply, golden(R_STAT, 7, 0, &stat_body(ino, 5)));

    // Write: R_WRITE echoing the byte count.
    let reply = rig.client.call(
        8,
        FsRequest::Write {
            ino,
            offset: 0,
            count: 4096,
            buf_addr: 0,
        }
        .encode(8),
    );
    assert_eq!(reply, golden(R_WRITE, 8, 0, &4096u64.to_le_bytes()));

    // Fsync: bare R_OK, empty body.
    let reply = rig.client.call(9, FsRequest::Fsync { ino }.encode(9));
    assert_eq!(reply, golden(R_OK, 9, 0, &[]));

    // Missing path: R_ERROR carrying the NotFound code.
    let reply = rig.client.call(
        10,
        FsRequest::Stat {
            path: "/missing".into(),
        }
        .encode(10),
    );
    assert_eq!(reply, golden(R_ERROR, 10, 0, &ERR_NOT_FOUND.to_le_bytes()));
    rig.stop();
}

#[test]
fn fs_lease_replies_match_golden_frames() {
    let rig = fs_rig(false);
    let bs = solros_nvme::BLOCK_SIZE as u64;
    let ino = rig.fs.create("/hot").unwrap();
    rig.fs.write(ino, 0, &vec![9u8; 2 * bs as usize]).unwrap();
    // The extent map comes from the fs (like `ino` above); the frame
    // bytes around it are still built by hand from the wire layout.
    let extents: Vec<(u64, u32)> = rig
        .fs
        .fiemap(ino, 0, 2 * bs)
        .unwrap()
        .iter()
        .map(|e| (e.start, e.len))
        .collect();

    // First grant from a fresh manager: lease id 0, generation 1, the
    // readable end at the two written blocks.
    let reply = rig.client.call(
        20,
        FsRequest::LeaseAcquire {
            ino,
            offset: 0,
            len: 2 * bs,
            write: false,
        }
        .encode(20),
    );
    assert_eq!(
        reply,
        golden(R_LEASE, 20, 0, &lease_grant_body(0, 1, 2 * bs, &extents))
    );

    // Voluntary release: bare R_OK, empty body.
    let reply = rig.client.call(
        21,
        FsRequest::LeaseRelease {
            id: 0,
            written_end: 0,
        }
        .encode(21),
    );
    assert_eq!(reply, golden(R_OK, 21, 0, &[]));

    // Recall ack for an already-settled lease is idempotent R_OK.
    let reply = rig.client.call(
        22,
        FsRequest::LeaseRecallAck {
            id: 0,
            written_end: 0,
        }
        .encode(22),
    );
    assert_eq!(reply, golden(R_OK, 22, 0, &[]));

    // Misaligned acquire: R_ERROR carrying the Invalid code.
    let reply = rig.client.call(
        23,
        FsRequest::LeaseAcquire {
            ino,
            offset: 1,
            len: bs,
            write: false,
        }
        .encode(23),
    );
    assert_eq!(reply, golden(R_ERROR, 23, 0, &ERR_INVALID.to_le_bytes()));
    rig.stop();
}

#[test]
fn fs_gated_replies_match_golden_frames_with_credit() {
    let rig = fs_rig(true);
    let ino = rig.fs.create("/f").unwrap();
    rig.fs.write(ino, 0, &[7u8; 3]).unwrap();

    // One paced request at a time leaves its queue empty at dispatch, so
    // every reply advertises the full (clamped) credit window of 255.
    let reply = rig.client.call(11, FsRequest::Fstat { ino }.encode(11));
    assert_eq!(reply, golden(R_STAT, 11, 255, &stat_body(ino, 3)));

    let reply = rig.client.call(
        12,
        FsRequest::Write {
            ino,
            offset: 0,
            count: 4096,
            buf_addr: 0,
        }
        .encode(12),
    );
    assert_eq!(reply, golden(R_WRITE, 12, 255, &4096u64.to_le_bytes()));
    rig.stop();
}

#[test]
fn tcp_replies_match_golden_frames() {
    let network = solros_netdev::Network::new();
    let counters = Arc::new(PcieCounters::new());
    let ch = Channel::new(Arc::clone(&counters));
    let (evt_tx, _evt_rx) = event_ring(counters);
    let client = RpcClient::new(ch.req_tx, ch.resp_rx);
    let (proxy, _stats) = TcpProxy::new(
        network,
        vec![NetChannelHost {
            req_rx: ch.req_rx,
            resp_tx: ch.resp_tx,
            evt_tx,
        }],
        Box::new(RoundRobin::default()),
    );
    let shutdown = Arc::new(AtomicBool::new(false));
    let sd = Arc::clone(&shutdown);
    let server = std::thread::spawn(move || proxy.run(sd));

    // First socket id is 1 by construction: R_SOCKET body is the u64 id.
    let reply = client.call(1, NetRequest::Socket.encode(1));
    assert_eq!(reply, golden(R_SOCKET, 1, 0, &1u64.to_le_bytes()));

    // Bind: bare R_NOK.
    let reply = client.call(2, NetRequest::Bind { sock: 1, port: 80 }.encode(2));
    assert_eq!(reply, golden(R_NOK, 2, 0, &[]));

    // Unknown socket: R_NERROR carrying the NotFound code.
    let reply = client.call(3, NetRequest::Close { sock: 9999 }.encode(3));
    assert_eq!(reply, golden(R_NERROR, 3, 0, &ERR_NOT_FOUND.to_le_bytes()));

    shutdown.store(true, Ordering::Relaxed);
    server.join().unwrap();
}

/// A coalesced reply wave is a transport optimization, not a wire
/// change: small `Send`s that merge into one backend write and settle
/// through one batched reply enqueue must still produce, per part, the
/// exact bytes the unbatched path produced — `R_SENT` with the part's
/// own tag and its own count.
#[test]
fn coalesced_send_wave_replies_match_golden_frames() {
    let network = solros_netdev::Network::new();
    let counters = Arc::new(PcieCounters::new());
    let ch = Channel::new(Arc::clone(&counters));
    let (evt_tx, _evt_rx) = event_ring(counters);
    let client = RpcClient::new(ch.req_tx, ch.resp_rx);
    let (proxy, _stats) = TcpProxy::new(
        Arc::clone(&network),
        vec![NetChannelHost {
            req_rx: ch.req_rx,
            resp_tx: ch.resp_tx,
            evt_tx,
        }],
        Box::new(RoundRobin::default()),
    );
    let shutdown = Arc::new(AtomicBool::new(false));
    let sd = Arc::clone(&shutdown);
    let server = std::thread::spawn(move || proxy.run(sd));

    // An external server on the fabric; the stub connects out.
    network.listen(6000, 16).unwrap();
    let reply = client.call(1, NetRequest::Socket.encode(1));
    assert_eq!(reply, golden(R_SOCKET, 1, 0, &1u64.to_le_bytes()));
    let reply = client.call(
        2,
        NetRequest::Connect {
            sock: 1,
            addr: 9,
            port: 6000,
        }
        .encode(2),
    );
    assert_eq!(reply, golden(R_NOK, 2, 0, &[]));
    let (conn, _) = accept_on(&network, 6000);

    // Pipeline a wave of small sends of distinct sizes so each golden
    // count differs; the proxy coalesces them into one backend write and
    // one settlement wave.
    let sizes = [5usize, 64, 7, 256, 1];
    let tokens: Vec<_> = sizes
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let tag = 10 + i as u32;
            client
                .submit(
                    tag,
                    NetRequest::Send {
                        sock: 1,
                        data: vec![i as u8; n],
                    }
                    .encode(tag),
                )
                .unwrap()
        })
        .collect();
    for (i, token) in tokens.into_iter().enumerate() {
        let reply = client.wait(token);
        assert_eq!(
            reply,
            golden(R_SENT, 10 + i as u32, 0, &(sizes[i] as u64).to_le_bytes()),
            "part {i} drifted from the unbatched wire bytes"
        );
    }

    // The fabric stream carries the concatenation in program order.
    let total: usize = sizes.iter().sum();
    let mut stream = Vec::new();
    while stream.len() < total {
        let data = network
            .recv(conn, solros_netdev::EndKind::Server, 1 << 16)
            .unwrap();
        assert!(!data.is_empty(), "stream ended short");
        stream.extend_from_slice(&data);
    }
    let mut want = Vec::new();
    for (i, &n) in sizes.iter().enumerate() {
        want.extend(std::iter::repeat_n(i as u8, n));
    }
    assert_eq!(stream, want, "coalescing reordered or corrupted payload");

    shutdown.store(true, Ordering::Relaxed);
    server.join().unwrap();
}
