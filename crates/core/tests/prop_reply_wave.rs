//! Property-based tests for the symmetric reply wave: across random
//! wave sizes, shed/error mixes, and lane counts, every admitted tag
//! gets exactly one reply routed back to it, credits settle exactly
//! once (the pool drains to zero in-flight), and frames that ride a
//! batched wave decode byte-identically to frames sent one at a time.

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
use solros_qos::{CreditPool, FlowSpec, HostConfig, HostGate, HostScheduler, QosClass, Service};
use solros_simkit::check::{self, vec};
use solros_simkit::DetRng;

/// Accepts the pending fabric connection on `port`, reporting which
/// listener died instead of unwrapping blind.
fn accept_on(network: &solros_netdev::Network, port: u16) -> (solros_netdev::ConnId, u64) {
    match network.poll_accept(port) {
        Ok(Some(pending)) => pending,
        Ok(None) => panic!("accept on port {port}: connect never reached the listener"),
        Err(e) => panic!("accept on port {port} failed: {e:?}"),
    }
}

/// Reply tag from the wire layout `[u32 len][u8 type][u32 tag]...`.
fn tag_of(frame: &[u8]) -> u32 {
    u32::from_le_bytes(frame[5..9].try_into().unwrap())
}

// ---------------------------------------------------------------------
// Property 1: a batched wave is byte-identical to the per-frame path.
// ---------------------------------------------------------------------

fn run_ring_wave(waves: Vec<Vec<Vec<u8>>>) {
    let batched = Channel::new(Arc::new(PcieCounters::new()));
    let unbatched = Channel::new(Arc::new(PcieCounters::new()));
    for wave in waves {
        for frame in &wave {
            unbatched.req_tx.send_blocking(frame).unwrap();
        }
        let n = wave.len();
        batched.req_tx.send_batch_blocking(wave).unwrap();
        for _ in 0..n {
            assert_eq!(
                batched.req_rx.recv_blocking(),
                unbatched.req_rx.recv_blocking(),
                "batched frame diverged from the per-frame path"
            );
        }
    }
    // The vectored path must not cost *more* publishes than per-frame.
    assert!(batched.req_tx.publishes() <= unbatched.req_tx.publishes());
}

// ---------------------------------------------------------------------
// Property 2: gated fs engine — shed/error/malformed mixes account.
// ---------------------------------------------------------------------

/// One generated fs operation and the reply class it may produce.
#[derive(Debug, Clone, Copy)]
enum FsOp {
    /// Valid metadata op (High class): normal reply.
    Stat,
    /// Stat of a missing path: error reply.
    Missing,
    /// Frame with a corrupted msg-type byte: malformed-error reply.
    Malformed,
    /// Bulk read (BestEffort class, queue_cap 2): sheds under flood,
    /// otherwise a normal read reply.
    BigRead,
}

fn fs_op(rng: &mut DetRng) -> FsOp {
    [FsOp::Stat, FsOp::Missing, FsOp::Malformed, FsOp::BigRead][rng.index(4)]
}

fn run_fs_case(waves: Vec<Vec<FsOp>>) {
    let fs = Arc::new(FileSystem::mkfs(NvmeDevice::new(8192), 256).unwrap());
    let ino = fs.create("/f").unwrap();
    fs.write(ino, 0, &vec![3u8; 512 * 1024]).unwrap();
    let window = Window::new(1 << 20, Side::Coproc, Arc::new(PcieCounters::new()));
    let proxy = FsProxy::new(
        Arc::clone(&fs),
        window,
        false,
        Arc::new(FsProxyStats::default()),
    );
    let ch = Channel::new(Arc::new(PcieCounters::new()));
    let pool = Arc::new(CreditPool::new(64));
    let client = RpcClient::with_credits(ch.req_tx, ch.resp_rx, Some(Arc::clone(&pool)));
    let shutdown = Arc::new(AtomicBool::new(false));
    let sd = Arc::clone(&shutdown);
    let server = std::thread::spawn(move || {
        // Every class sheddable; the bulk class's 2-deep queue forces
        // sheds whenever a wave floods it.
        let spec = |name: &str, class: QosClass, cap: usize| FlowSpec {
            name: name.into(),
            class,
            weight: 4,
            queue_cap: cap,
            deadline_ns: 0,
            sheddable: true,
        };
        let host = HostScheduler::new(HostConfig::default());
        let gate = HostGate::new(
            vec![
                spec("rw/high", QosClass::High, 1024),
                spec("rw/normal", QosClass::Normal, 1024),
                spec("rw/best", QosClass::BestEffort, 2),
            ],
            4096,
            usize::MAX,
            &host,
            Service::Fs,
            0,
        );
        proxy.serve(ch.req_rx, ch.resp_tx, sd, Some(gate));
    });

    let mut tag = 0u32;
    for wave in waves {
        let mut expect = Vec::new();
        for op in wave {
            tag += 1;
            let frame = match op {
                FsOp::Stat => FsRequest::Fstat { ino }.encode(tag),
                FsOp::Missing => FsRequest::Stat {
                    path: "/missing".into(),
                }
                .encode(tag),
                FsOp::Malformed => {
                    let mut f = FsRequest::Fstat { ino }.encode(tag);
                    f[4] = 0xEE;
                    f
                }
                FsOp::BigRead => FsRequest::Read {
                    ino,
                    offset: 0,
                    count: 512 * 1024,
                    buf_addr: 0,
                }
                .encode(tag),
            };
            expect.push((client.submit_blocking(tag, frame).unwrap(), tag));
        }
        for (token, want) in expect {
            let reply = client.wait(token);
            assert_eq!(tag_of(&reply), want, "reply routed to the wrong tag");
        }
    }

    shutdown.store(true, Ordering::Relaxed);
    server.join().unwrap();
    assert_eq!(client.pending_len(), 0, "tag leaked in the pending map");
    assert_eq!(pool.levels().0, 0, "credit settled twice or never");
}

// ---------------------------------------------------------------------
// Property 3: multi-lane TCP engine with send coalescing in the mix.
// ---------------------------------------------------------------------

/// One generated TCP operation per lane.
#[derive(Debug, Clone, Copy)]
enum NetOp {
    /// Small `Send` (64 B): rides the coalescing stage.
    SmallSend,
    /// Large `Send` (> STAGE_SEND_MAX): pre-flushes and runs alone.
    BigSend,
    /// Fresh socket: plain inline reply.
    Socket,
    /// Close of an unknown socket: error reply.
    BadClose,
    /// Frame with a corrupted msg-type byte: malformed-error reply.
    Malformed,
}

fn net_op(rng: &mut DetRng) -> NetOp {
    [
        NetOp::SmallSend,
        NetOp::BigSend,
        NetOp::Socket,
        NetOp::BadClose,
        NetOp::Malformed,
    ][check::pick(rng, &[3, 1, 1, 1, 1])]
}

fn run_tcp_case(lanes: Vec<Vec<Vec<NetOp>>>) {
    const PORT: u16 = 4_000;
    const R_SENT: u8 = 145;

    let network = solros_netdev::Network::new();
    let nlanes = lanes.len();
    let mut hosts = Vec::new();
    let mut clients = Vec::new();
    let mut pools = Vec::new();
    for _ in 0..nlanes {
        let counters = Arc::new(PcieCounters::new());
        let ch = Channel::new(Arc::clone(&counters));
        let (evt_tx, _evt_rx) = event_ring(counters);
        hosts.push(NetChannelHost {
            req_rx: ch.req_rx,
            resp_tx: ch.resp_tx,
            evt_tx,
        });
        let pool = Arc::new(CreditPool::new(64));
        clients.push(RpcClient::with_credits(
            ch.req_tx,
            ch.resp_rx,
            Some(Arc::clone(&pool)),
        ));
        pools.push(pool);
    }
    let (proxy, stats) =
        TcpProxy::new(Arc::clone(&network), hosts, Box::new(RoundRobin::default()));
    let shutdown = Arc::new(AtomicBool::new(false));
    let sd = Arc::clone(&shutdown);
    let server = std::thread::spawn(move || proxy.run(sd));

    network.listen(PORT, 1024).unwrap();
    // Each lane gets its own connected socket; the payload byte encodes
    // the lane so cross-lane coalescing would corrupt detectably.
    let mut socks = Vec::new();
    let mut conns = Vec::new();
    for (lane, client) in clients.iter().enumerate() {
        let reply = client.call(1, NetRequest::Socket.encode(1));
        let sock = u64::from_le_bytes(reply[12..20].try_into().unwrap());
        let reply = client.call(
            2,
            NetRequest::Connect {
                sock,
                addr: lane as u64,
                port: PORT,
            }
            .encode(2),
        );
        assert_eq!(reply[4], 150, "connect failed");
        let (conn, peer) = accept_on(&network, PORT);
        assert_eq!(peer, lane as u64);
        socks.push(sock);
        conns.push(conn);
    }

    let sent_bytes: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = lanes
            .iter()
            .enumerate()
            .map(|(lane, waves)| {
                let client = Arc::clone(&clients[lane]);
                let sock = socks[lane];
                scope.spawn(move || {
                    let mut tag = 2u32;
                    let mut acked = 0u64;
                    for wave in waves {
                        let mut expect = Vec::new();
                        for op in wave {
                            tag += 1;
                            let frame = match op {
                                NetOp::SmallSend => NetRequest::Send {
                                    sock,
                                    data: vec![lane as u8; 64],
                                }
                                .encode(tag),
                                NetOp::BigSend => NetRequest::Send {
                                    sock,
                                    data: vec![lane as u8; 6000],
                                }
                                .encode(tag),
                                NetOp::Socket => NetRequest::Socket.encode(tag),
                                NetOp::BadClose => NetRequest::Close { sock: 99_999 }.encode(tag),
                                NetOp::Malformed => {
                                    let mut f = NetRequest::Socket.encode(tag);
                                    f[4] = 0xEE;
                                    f
                                }
                            };
                            expect.push((client.submit_blocking(tag, frame).unwrap(), tag, *op));
                        }
                        for (token, want, op) in expect {
                            let reply = client.wait(token);
                            assert_eq!(tag_of(&reply), want, "reply routed to wrong tag");
                            if matches!(op, NetOp::SmallSend | NetOp::BigSend) {
                                assert_eq!(reply[4], R_SENT, "send must be acknowledged");
                                acked += u64::from_le_bytes(reply[12..20].try_into().unwrap());
                            }
                        }
                    }
                    acked
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Coalescing merges writes, never bytes: each lane's fabric stream
    // carries exactly the acknowledged payload, all in the lane's color.
    for (lane, &conn) in conns.iter().enumerate() {
        let mut got = 0u64;
        loop {
            let data = network
                .recv(conn, solros_netdev::EndKind::Server, 1 << 20)
                .unwrap();
            if data.is_empty() {
                break;
            }
            assert!(
                data.iter().all(|&b| b == lane as u8),
                "lane {lane} stream carries foreign bytes"
            );
            got += data.len() as u64;
        }
        assert_eq!(got, sent_bytes[lane], "lane {lane} lost or grew bytes");
    }

    shutdown.store(true, Ordering::Relaxed);
    server.join().unwrap();
    for (lane, (client, pool)) in clients.iter().zip(&pools).enumerate() {
        assert_eq!(client.pending_len(), 0, "lane {lane} leaked a tag");
        assert_eq!(pool.levels().0, 0, "lane {lane} leaked a credit");
    }
    assert_eq!(
        stats.event_drops.load(Ordering::Relaxed),
        0,
        "events were dropped"
    );
}

const CASES: u64 = 16;

#[test]
fn batched_waves_decode_byte_identical() {
    check::cases(CASES, |rng| {
        run_ring_wave(vec(rng, 1..4, |r| {
            vec(r, 1..24, |r| vec(r, 1..96, |r| r.next_u64() as u8))
        }));
    });
}

#[test]
fn fs_shed_error_mix_accounts_exactly_once() {
    check::cases(CASES, |rng| {
        run_fs_case(vec(rng, 1..4, |r| vec(r, 1..24, fs_op)));
    });
}

#[test]
fn tcp_lanes_account_exactly_once_under_coalescing() {
    check::cases(CASES, |rng| {
        run_tcp_case(vec(rng, 1..3, |r| vec(r, 1..3, |r| vec(r, 1..16, net_op))));
    });
}
