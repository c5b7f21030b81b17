//! TCP proxy handler semantics: the socket state machine, the shared
//! listening socket, and fault containment through the shared proxy
//! engine; and the stub's hand-off of inbound events when nobody, or
//! somebody else, is reading.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use solros::proxy_engine::OpHandler;
use solros::tcp_proxy::{NetChannelHost, TcpProxy, TcpProxyStats, SOCKOPT_EVENTED};
use solros::transport::{event_ring, Channel, RpcClient, EVENT_RING_BYTES};
use solros::{CoprocNet, RoundRobin, Solros};
use solros_machine::MachineConfig;
use solros_netdev::{EndKind, NetworkError};
use solros_pcie::PcieCounters;
use solros_proto::net_msg::{NetRequest, NetResponse, SockId};
use solros_proto::rpc_error::RpcErr;
use solros_ringbuf::Consumer;

/// Accepts the pending fabric connection on `port`, reporting which
/// listener died instead of unwrapping blind.
fn accept_on(network: &solros_netdev::Network, port: u16) -> (solros_netdev::ConnId, u64) {
    match network.poll_accept(port) {
        Ok(Some(pending)) => pending,
        Ok(None) => panic!("accept on port {port}: connect never reached the listener"),
        Err(e) => panic!("accept on port {port} failed: {e:?}"),
    }
}

struct Rig {
    proxy: TcpProxy,
    stats: Arc<TcpProxyStats>,
    network: Arc<solros_netdev::Network>,
    clients: Vec<Arc<RpcClient>>,
    /// Each co-processor's end of its event ring.
    events: Vec<Consumer>,
}

fn proxy_with(n: usize) -> Rig {
    let network = solros_netdev::Network::new();
    let mut channels = Vec::new();
    let mut clients = Vec::new();
    let mut events = Vec::new();
    for _ in 0..n {
        let counters = Arc::new(PcieCounters::new());
        let ch = Channel::new(Arc::clone(&counters));
        let (evt_tx, evt_rx) = event_ring(counters);
        events.push(evt_rx);
        channels.push(NetChannelHost {
            req_rx: ch.req_rx,
            resp_tx: ch.resp_tx,
            evt_tx,
        });
        clients.push(RpcClient::new(ch.req_tx, ch.resp_rx));
    }
    let (proxy, stats) = TcpProxy::new(
        Arc::clone(&network),
        channels,
        Box::new(RoundRobin::default()),
    );
    Rig {
        proxy,
        stats,
        network,
        clients,
        events,
    }
}

fn new_sock(p: &TcpProxy) -> SockId {
    match p.handle(0, NetRequest::Socket) {
        NetResponse::Socket { sock } => sock,
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn injected_handler_panic_is_contained() {
    // Drive the proxy through the shared engine over a real channel: the
    // armed panic must come back as an Io error reply and the serve loop
    // must keep going.
    let rig = proxy_with(1);
    rig.proxy.inject_worker_panics(1);
    let shutdown = Arc::new(AtomicBool::new(false));
    let sd = Arc::clone(&shutdown);
    let proxy = rig.proxy;
    let server = std::thread::spawn(move || proxy.run(sd));
    let client = &rig.clients[0];

    let tag = client.tag();
    let reply = client.call(tag, NetRequest::Socket.encode(tag));
    let (_, resp) = NetResponse::decode(&reply).unwrap();
    assert_eq!(resp, NetResponse::Error { err: RpcErr::Io });

    // The loop survives: the next request is served normally.
    let tag = client.tag();
    let reply = client.call(tag, NetRequest::Socket.encode(tag));
    let (_, resp) = NetResponse::decode(&reply).unwrap();
    assert!(matches!(resp, NetResponse::Socket { .. }), "got {resp:?}");

    shutdown.store(true, Ordering::Relaxed);
    server.join().unwrap();
    assert_eq!(rig.stats.worker_panics.load(Ordering::Relaxed), 1);
    assert_eq!(rig.stats.rpcs.load(Ordering::Relaxed), 2);
}

#[test]
fn socket_state_machine_rejects_bad_transitions() {
    let rig = proxy_with(1);
    let p = &rig.proxy;
    let s = new_sock(p);
    // Listen before bind.
    assert!(matches!(
        p.handle(
            0,
            NetRequest::Listen {
                sock: s,
                backlog: 4
            }
        ),
        NetResponse::Error {
            err: RpcErr::Invalid
        }
    ));
    // Bind works once; double bind rejected.
    assert!(matches!(
        p.handle(0, NetRequest::Bind { sock: s, port: 80 }),
        NetResponse::Ok
    ));
    assert!(matches!(
        p.handle(0, NetRequest::Bind { sock: s, port: 81 }),
        NetResponse::Error {
            err: RpcErr::Invalid
        }
    ));
    // Send on a non-connection.
    assert!(matches!(
        p.handle(
            0,
            NetRequest::Send {
                sock: s,
                data: vec![1]
            }
        ),
        NetResponse::Error {
            err: RpcErr::NotConnected
        }
    ));
    // Unknown socket ids.
    assert!(matches!(
        p.handle(0, NetRequest::Close { sock: 9999 }),
        NetResponse::Error {
            err: RpcErr::NotFound
        }
    ));
    // Accept on a non-listening socket.
    assert!(matches!(
        p.handle(0, NetRequest::Accept { sock: s }),
        NetResponse::Error {
            err: RpcErr::NotListening
        }
    ));
    // Unknown socket option.
    assert!(matches!(
        p.handle(
            0,
            NetRequest::Setsockopt {
                sock: s,
                opt: 99,
                val: 1
            }
        ),
        NetResponse::Error {
            err: RpcErr::Invalid
        }
    ));
}

#[test]
fn shared_port_closes_cleanly() {
    let rig = proxy_with(2);
    let p = &rig.proxy;
    let net = &rig.network;
    // Two co-processors listen on the same port (shared socket).
    let a = new_sock(p);
    assert!(matches!(
        p.handle(0, NetRequest::Bind { sock: a, port: 90 }),
        NetResponse::Ok
    ));
    assert!(matches!(
        p.handle(
            0,
            NetRequest::Listen {
                sock: a,
                backlog: 4
            }
        ),
        NetResponse::Ok
    ));
    let b = match p.handle(1, NetRequest::Socket) {
        NetResponse::Socket { sock } => sock,
        other => panic!("unexpected {other:?}"),
    };
    assert!(matches!(
        p.handle(1, NetRequest::Bind { sock: b, port: 90 }),
        NetResponse::Ok
    ));
    assert!(matches!(
        p.handle(
            1,
            NetRequest::Listen {
                sock: b,
                backlog: 4
            }
        ),
        NetResponse::Ok
    ));
    // Closing one listener keeps the port open for the other.
    assert!(matches!(
        p.handle(0, NetRequest::Close { sock: a }),
        NetResponse::Ok
    ));
    assert!(net.client_connect(90, 1).is_ok(), "port still listening");
    // Closing the last listener releases the NIC port.
    assert!(matches!(
        p.handle(1, NetRequest::Close { sock: b }),
        NetResponse::Ok
    ));
    assert!(net.client_connect(90, 2).is_err(), "port released");
}

#[test]
fn closing_a_listener_refuses_its_unaccepted_backlog() {
    // A connection delivered to a listener but never accepted must be
    // refused when the listener closes — the peer observes a severance,
    // never a hang, and the fabric conn is reaped once the peer closes
    // its own end.
    let rig = proxy_with(1);
    let p = &rig.proxy;
    let net = &rig.network;
    let s = new_sock(p);
    assert!(matches!(
        p.handle(0, NetRequest::Bind { sock: s, port: 95 }),
        NetResponse::Ok
    ));
    assert!(matches!(
        p.handle(
            0,
            NetRequest::Listen {
                sock: s,
                backlog: 4
            }
        ),
        NetResponse::Ok
    ));
    // Polling delivery: the accepted conn queues engine-side until the
    // co-processor claims it with an Accept RPC (which never comes).
    assert!(matches!(
        p.handle(
            0,
            NetRequest::Setsockopt {
                sock: s,
                opt: SOCKOPT_EVENTED,
                val: 0
            }
        ),
        NetResponse::Ok
    ));
    let conn = net.client_connect(95, 7).expect("port listening");
    p.poll();
    assert!(matches!(
        p.handle(0, NetRequest::Close { sock: s }),
        NetResponse::Ok
    ));
    assert!(matches!(
        net.recv(conn, solros_netdev::EndKind::Client, 16),
        Err(solros_netdev::NetworkError::Closed)
    ));
    // The peer closes its own end and observes the severance once more;
    // the fabric reaps the fully-closed, drained connection.
    net.close(conn, solros_netdev::EndKind::Client).unwrap();
    assert!(matches!(
        net.recv(conn, solros_netdev::EndKind::Client, 16),
        Err(solros_netdev::NetworkError::Closed)
    ));
    assert_eq!(net.live_connections(), 0, "refused conn fully reaped");
}

#[test]
fn connect_send_recv_shutdown_via_rpc() {
    let rig = proxy_with(1);
    let p = &rig.proxy;
    let net = &rig.network;
    // An "external server" listens on the fabric.
    net.listen(7000, 4).unwrap();
    let s = new_sock(p);
    assert!(matches!(
        p.handle(
            0,
            NetRequest::Connect {
                sock: s,
                addr: 55,
                port: 7000
            }
        ),
        NetResponse::Ok
    ));
    let (conn, addr) = accept_on(net, 7000);
    assert_eq!(addr, 55);
    // Outbound data flows from the machine's Client end.
    assert!(matches!(
        p.handle(
            0,
            NetRequest::Send {
                sock: s,
                data: b"out".to_vec()
            }
        ),
        NetResponse::Sent { count: 3 }
    ));
    assert_eq!(
        net.recv(conn, solros_netdev::EndKind::Server, 16).unwrap(),
        b"out"
    );
    // Inbound via the Recv RPC.
    net.send(conn, solros_netdev::EndKind::Server, b"in!")
        .unwrap();
    match p.handle(0, NetRequest::Recv { sock: s, max: 16 }) {
        NetResponse::Data { data } => assert_eq!(data, b"in!"),
        other => panic!("unexpected {other:?}"),
    }
    // Shutdown(write) sends FIN; the server observes EOF.
    assert!(matches!(
        p.handle(0, NetRequest::Shutdown { sock: s, how: 1 }),
        NetResponse::Ok
    ));
    assert!(matches!(
        net.recv(conn, solros_netdev::EndKind::Server, 16),
        Err(solros_netdev::NetworkError::Closed)
    ));
}

/// Every step of the stub hand-off tests below must finish within this:
/// a wedged stub or shard hangs rather than erroring.
const WATCHDOG: Duration = Duration::from_secs(2);

/// Runs `f` on a thread of its own and returns its result, failing the
/// test if it does not finish within [`WATCHDOG`].
fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = std::sync::mpsc::channel();
    let worker = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    let out = rx
        .recv_timeout(WATCHDOG)
        .unwrap_or_else(|_| panic!("{what}: failed or not done within {WATCHDOG:?}"));
    worker.join().expect("the step's thread finished");
    out
}

/// Polls `done` until it holds, failing the test after [`WATCHDOG`].
fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + WATCHDOG;
    while !done() {
        assert!(Instant::now() < deadline, "{what}: not within {WATCHDOG:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One accepted socket is never read while its peer sends four event
/// rings' worth of bytes. The proxy shard spins on a full event ring, so
/// unless somebody drains it — a reader of another socket, or the idle
/// backstop when no one reads — the shard and every socket on the stub
/// would stall.
#[test]
fn an_unread_socket_stalls_neither_its_stub_nor_its_shard() {
    const FLOOD: usize = 4 * EVENT_RING_BYTES;
    const CHUNK: usize = 64 * 1024;
    let byte = |k: usize| (k % 251) as u8;
    let sys = Solros::boot(MachineConfig::small());
    let net = sys.data_plane(0).net().clone();
    let fabric = Arc::clone(sys.network());
    let listener = net.listen(7600, 16).expect("listen");
    let flood_conn = fabric.client_connect(7600, 1).expect("connect");
    let (unread, _) = listener.accept_timeout(WATCHDOG).expect("accept");
    for start in (0..FLOOD).step_by(CHUNK) {
        let chunk: Vec<u8> = (start..start + CHUNK).map(byte).collect();
        fabric.send(flood_conn, EndKind::Client, &chunk).unwrap();
    }

    let echoed = within("a second connection's echo", {
        let fabric = Arc::clone(&fabric);
        move || {
            let conn = fabric.client_connect(7600, 2).unwrap();
            let (stream, _) = listener.accept();
            fabric.send(conn, EndKind::Client, b"ping").unwrap();
            let mut buf = [0u8; 4];
            let mut have = 0;
            while have < buf.len() {
                have += stream.recv(&mut buf[have..]);
            }
            assert_eq!(stream.send(&buf), Ok(4));
            let mut back = Vec::new();
            while back.len() < 4 {
                back.extend(fabric.recv(conn, EndKind::Client, 4).unwrap());
            }
            back
        }
    });
    assert_eq!(echoed, b"ping");
    within("a fresh listen", {
        let net = net.clone();
        move || net.listen(7601, 16).map(|_| ())
    })
    .expect("listen");

    let got = within("the unread socket's bytes", move || {
        unread.recv_exact(FLOOD).expect("no end-of-stream")
    });
    assert!(
        got.iter().enumerate().all(|(k, &b)| b == byte(k)),
        "the unread socket's bytes came out of order"
    );
    sys.shutdown();
}

/// The orphan race with no reader waiting: a connection the proxy
/// delivers after the stub began closing its listener, but before the
/// proxy executed that close, arrives as an `Accepted` event for a dead
/// listener. The idle backstop must refuse it — close it back — so the
/// fabric peer observes a severance, not a hang.
#[test]
fn the_backstop_refuses_a_connection_accepted_by_a_closing_listener() {
    fn serve(proxy: &Arc<TcpProxy>) -> (Arc<AtomicBool>, std::thread::JoinHandle<()>) {
        let stop = Arc::new(AtomicBool::new(false));
        let (p, s) = (Arc::clone(proxy), Arc::clone(&stop));
        (stop, std::thread::spawn(move || p.run_shared(s)))
    }
    let mut rig = proxy_with(1);
    let proxy = Arc::new(rig.proxy);
    let client = Arc::clone(&rig.clients[0]);
    let stub_stop = Arc::new(AtomicBool::new(false));
    let (net, backstop) = CoprocNet::start(
        Arc::clone(&client),
        rig.events.remove(0),
        Arc::clone(&stub_stop),
    );
    let (stop, engine) = serve(&proxy);
    let listener = net.listen(96, 4).expect("listen");
    // Park the engine: the listener's close is submitted and waits.
    stop.store(true, Ordering::Relaxed);
    engine.join().unwrap();
    let closer = std::thread::spawn(move || listener.close());
    // The close marks the listener dead before it submits its RPC.
    wait_until("the listener close is submitted", || {
        client.pending_len() == 1
    });

    // The proxy, driven here, delivers a connection to the listener it
    // still has open: an `Accepted` event for a dead listener.
    let conn = rig.network.client_connect(96, 7).expect("connect");
    assert!(proxy.poll(), "the connection was delivered");
    // Nobody reads: the backstop drains the event, refuses the
    // connection and submits its close.
    wait_until("the backstop refuses the connection", || {
        client.pending_len() == 2
    });

    let (stop, engine) = serve(&proxy);
    assert_eq!(closer.join().unwrap(), Ok(()));
    wait_until("the peer observes the severance", || {
        rig.network.recv(conn, EndKind::Client, 16) == Err(NetworkError::Closed)
    });
    stop.store(true, Ordering::Relaxed);
    engine.join().unwrap();
    stub_stop.store(true, Ordering::Relaxed);
    backstop.join().unwrap();
}
