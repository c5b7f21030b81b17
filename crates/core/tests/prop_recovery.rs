//! Property-based test for transport recovery: across arbitrary
//! interleavings of submissions, dropped tokens, stub service, response
//! poisoning, and link resets, every submitted token resolves (a real
//! reply or a synthesized error completion — never a hang), no
//! flow-control credit leaks, and no tag is ever reused before the
//! routing table is scrubbed.

use std::collections::HashSet;
use std::sync::Arc;

use solros::transport::{Channel, RpcClient, Token};
use solros_pcie::counter::PcieCounters;
use solros_proto::fs_msg::{FsRequest, FsResponse};
use solros_proto::rpc_error::RpcErr;
use solros_qos::CreditPool;
use solros_simkit::check;
use solros_simkit::DetRng;

/// One step of a generated fault schedule, applied in order on a single
/// thread so the interleaving is exactly the generated sequence.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Submit one request and keep its token for settlement.
    Submit,
    /// Submit one request and drop the token immediately (abandon path).
    SubmitDrop,
    /// The stub serves up to `n` queued requests.
    Serve(u8),
    /// The stub's next published reply carries a poisoned header.
    Corrupt,
    /// Detect-and-recover: drain, scrub, reset, respawn the stub's
    /// endpoints from the re-initialized rings.
    Reset,
}

fn gen_op(rng: &mut DetRng) -> Op {
    match check::pick(rng, &[4, 1, 3, 1, 1]) {
        0 => Op::Submit,
        1 => Op::SubmitDrop,
        2 => Op::Serve(rng.range(1..6) as u8),
        3 => Op::Corrupt,
        _ => Op::Reset,
    }
}

fn run_case(ops: Vec<Op>) {
    let counters = Arc::new(PcieCounters::new());
    let ch = Channel::new(counters);
    let pool = Arc::new(CreditPool::new(8));
    let client = RpcClient::with_link(
        ch.req_tx,
        ch.resp_rx,
        Some(Arc::clone(&pool)),
        Arc::clone(&ch.req_ring),
        Arc::clone(&ch.resp_ring),
    );
    client.set_error_encoder(|tag, err| FsResponse::Error { err }.encode(tag));

    // The stub runs inline: this test drives both ends of the link so
    // the fault interleaving is deterministic per generated case.
    let mut stub_rx = ch.req_rx;
    let mut stub_tx = ch.resp_tx;
    let mut live: Vec<Token> = Vec::new();
    let mut seen_tags: HashSet<u32> = HashSet::new();
    let mut ino = 0u64;

    for op in ops {
        match op {
            Op::Submit | Op::SubmitDrop => {
                let tag = client.tag();
                assert!(seen_tags.insert(tag), "tag {tag} reused before scrub");
                ino += 1;
                match client.submit(tag, FsRequest::Fstat { ino }.encode(tag)) {
                    Ok(token) => {
                        if matches!(op, Op::Submit) {
                            live.push(token);
                        }
                    }
                    // A full ring or closed credit window must surface as
                    // a transient, retryable refusal — fully scrubbed.
                    Err(e) => assert!(e.is_transient(), "unexpected submit error {e:?}"),
                }
            }
            Op::Serve(k) => {
                for _ in 0..k {
                    match stub_rx.recv() {
                        Ok(frame) => {
                            let (tag, _) = FsRequest::decode(&frame).unwrap();
                            // A full reply ring drops the reply — the
                            // settlement reset must still resolve its tag.
                            let _ = stub_tx.send(&FsResponse::Ok.encode(tag));
                        }
                        Err(_) => break,
                    }
                }
                client.drain_now();
            }
            Op::Corrupt => stub_tx.corrupt_next(1),
            Op::Reset => {
                let report = client.link_reset(RpcErr::Gone);
                assert!(report.ring_reset, "with_link resets must touch rings");
                // The old stub endpoints hold stale replicated state; a
                // respawned stub mints fresh ones from the rings.
                stub_rx = ch.req_ring.consumer();
                stub_tx = ch.resp_ring.producer();
            }
        }
    }

    // Settlement: serve what is still queued, then one final recovery
    // pass resolves whatever a poisoned or wedged link kept back.
    while let Ok(frame) = stub_rx.recv() {
        let (tag, _) = FsRequest::decode(&frame).unwrap();
        let _ = stub_tx.send(&FsResponse::Ok.encode(tag));
    }
    client.drain_now();
    let _ = client.link_reset(RpcErr::Gone);

    for token in live {
        let reply = client.wait(token);
        let (_, resp) = FsResponse::decode(&reply).expect("undecodable completion");
        match resp {
            FsResponse::Ok | FsResponse::Error { .. } => {}
            other => panic!("unexpected completion {other:?}"),
        }
    }
    assert_eq!(client.pending_len(), 0, "hung tags after recovery");
    assert_eq!(pool.levels().0, 0, "leaked credits after recovery");
}

#[test]
fn recovery_resolves_every_token() {
    check::cases(48, |rng| run_case(check::vec(rng, 1..80, gen_op)));
}

/// One generated request against the shared proxy engine: a valid FS or
/// TCP op, or a frame too short to carry a header (the malformed path).
#[derive(Debug, Clone)]
enum EngOp {
    Fstat(u64),
    Write(u16),
    BadFsFrame,
    Socket,
    NetClose(u64),
    BadNetFrame,
}

fn gen_eng_op(rng: &mut DetRng) -> EngOp {
    match check::pick(rng, &[3, 3, 1, 3, 2, 1]) {
        0 => EngOp::Fstat(rng.range(1..8)),
        1 => EngOp::Write(rng.range(1..4096) as u16),
        2 => EngOp::BadFsFrame,
        3 => EngOp::Socket,
        4 => EngOp::NetClose(rng.range(1..8)),
        _ => EngOp::BadNetFrame,
    }
}

/// Liveness + accounting through the shared engine, for both proxies at
/// once: every submitted frame — valid or malformed — produces exactly
/// one decodable reply, and the engine's ledger (`rpcs` + `malformed`)
/// accounts for every arrival with nothing shed on the FIFO path.
fn run_engine_case(ops: Vec<EngOp>) {
    use solros::fs_proxy::{FsProxy, FsProxyStats};
    use solros::tcp_proxy::{NetChannelHost, TcpProxy};
    use solros::transport::event_ring;
    use solros::RoundRobin;
    use solros_fs::FileSystem;
    use solros_nvme::NvmeDevice;
    use solros_pcie::window::Window;
    use solros_pcie::Side;
    use solros_proto::net_msg::{NetRequest, NetResponse};

    let fs = Arc::new(FileSystem::mkfs(NvmeDevice::new(1024), 64).unwrap());
    let ino = fs.create("/f").unwrap();
    let window = Window::new(1 << 16, Side::Coproc, Arc::new(PcieCounters::new()));
    let fs_stats = Arc::new(FsProxyStats::default());
    let proxy = FsProxy::new(fs, window, false, Arc::clone(&fs_stats));
    let fs_ch = Channel::new(Arc::new(PcieCounters::new()));
    let shutdown = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sd = Arc::clone(&shutdown);
    let fs_thread = std::thread::spawn(move || proxy.serve(fs_ch.req_rx, fs_ch.resp_tx, sd, None));

    let counters = Arc::new(PcieCounters::new());
    let net_ch = Channel::new(Arc::clone(&counters));
    let (evt_tx, _evt_rx) = event_ring(counters);
    let (tcp, tcp_stats) = TcpProxy::new(
        solros_netdev::Network::new(),
        vec![NetChannelHost {
            req_rx: net_ch.req_rx,
            resp_tx: net_ch.resp_tx,
            evt_tx,
        }],
        Box::new(RoundRobin::default()),
    );
    let sd = Arc::clone(&shutdown);
    let tcp_thread = std::thread::spawn(move || tcp.run(sd));

    let (mut fs_sent, mut fs_bad, mut net_sent, mut net_bad) = (0u64, 0u64, 0u64, 0u64);
    let mut tag = 0u32;
    for op in &ops {
        tag += 1;
        match op {
            EngOp::Fstat(delta) => {
                fs_sent += 1;
                let req = FsRequest::Fstat { ino: ino + delta }.encode(tag);
                fs_ch.req_tx.send_blocking(&req).unwrap();
            }
            EngOp::Write(count) => {
                fs_sent += 1;
                let req = FsRequest::Write {
                    ino,
                    offset: 0,
                    count: *count as u64,
                    buf_addr: 0,
                }
                .encode(tag);
                fs_ch.req_tx.send_blocking(&req).unwrap();
            }
            EngOp::BadFsFrame => {
                fs_bad += 1;
                fs_ch.req_tx.send_blocking(&[0xde, 0xad]).unwrap();
            }
            EngOp::Socket => {
                net_sent += 1;
                net_ch
                    .req_tx
                    .send_blocking(&NetRequest::Socket.encode(tag))
                    .unwrap();
            }
            EngOp::NetClose(sock) => {
                net_sent += 1;
                let req = NetRequest::Close { sock: *sock }.encode(tag);
                net_ch.req_tx.send_blocking(&req).unwrap();
            }
            EngOp::BadNetFrame => {
                net_bad += 1;
                net_ch.req_tx.send_blocking(&[0xbe]).unwrap();
            }
        }
    }

    // Every frame resolves to exactly one decodable reply — no hangs, no
    // drops, malformed included.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let (mut fs_got, mut net_got) = (0u64, 0u64);
    while (fs_got < fs_sent + fs_bad || net_got < net_sent + net_bad)
        && std::time::Instant::now() < deadline
    {
        let mut idle = true;
        if let Ok(frame) = fs_ch.resp_rx.recv() {
            FsResponse::decode(&frame).expect("undecodable fs reply");
            fs_got += 1;
            idle = false;
        }
        if let Ok(frame) = net_ch.resp_rx.recv() {
            NetResponse::decode(&frame).expect("undecodable net reply");
            net_got += 1;
            idle = false;
        }
        if idle {
            std::thread::yield_now();
        }
    }
    shutdown.store(true, std::sync::atomic::Ordering::Relaxed);
    fs_thread.join().unwrap();
    tcp_thread.join().unwrap();

    assert_eq!((fs_got, net_got), (fs_sent + fs_bad, net_sent + net_bad));
    let o = std::sync::atomic::Ordering::Relaxed;
    assert_eq!(fs_stats.rpcs.load(o), fs_sent, "fs ledger");
    assert_eq!(fs_stats.malformed.load(o), fs_bad, "fs malformed ledger");
    assert_eq!(tcp_stats.rpcs.load(o), net_sent, "net ledger");
    assert_eq!(tcp_stats.malformed.load(o), net_bad, "net malformed ledger");
    assert_eq!(fs_stats.sheds.load(o) + tcp_stats.sheds.load(o), 0);
}

#[test]
fn engine_resolves_every_frame() {
    check::cases(16, |rng| {
        run_engine_case(check::vec(rng, 1..40, gen_eng_op))
    });
}
