//! The data-plane network stub and application API (§4.4.1–§4.4.2).
//!
//! Inbound events arrive on one event ring per co-processor and are
//! distributed to per-socket queues: `Accepted` events feed per-listener
//! accept queues, `Data` events append to per-connection byte streams,
//! `Closed` marks end-of-stream. §4.4.2 routes them through one
//! dispatcher so that only one party touches the inbound ring; here that
//! party is whichever reader holds the stub's lock.
//!
//! A thread blocked in `recv` or `accept` drains the ring itself, under
//! the lock, before every look at its own queue, and waits by
//! [`crate::waitpolicy`]: spin, yield, then arm the event ring's
//! doorbell, drain once more, and park on the bell. Several readers
//! share the bell the way stub threads share a response ring. No thread
//! stands between the proxy engine that pushes an event and the reader
//! it is for, and none drains a ring nobody reads: the proxy never waits
//! on a full event ring — it holds the co-processor's later events back
//! and leaves its inbound bytes in the NIC until a reader drains.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use solros_proto::net_msg::{NetEvent, NetRequest, NetResponse, SockId};
use solros_proto::rpc_error::RpcErr;
use solros_ringbuf::{Consumer, Doorbell};
use solros_simkit::sync::Mutex;

use crate::tcp_proxy::SOCKOPT_EVENTED;
use crate::transport::{RpcClient, Token};
use crate::waitpolicy::{Probe, Sleeper, SpinBudget, WaitPolicy};

#[derive(Default)]
struct NetInner {
    accept_q: HashMap<SockId, VecDeque<(SockId, u64)>>,
    data_q: HashMap<SockId, VecDeque<u8>>,
    closed: HashSet<SockId>,
    /// Listeners being closed by this stub. An `Accepted` event still in
    /// flight when the close raced it must be refused (its connection
    /// closed back), never queued — a queued orphan would hold its
    /// fabric conn open forever and the peer would hang, not sever.
    dead_listeners: HashSet<SockId>,
    /// Connections the last drain refused, closed back once the lock
    /// is dropped.
    refused: Vec<SockId>,
}

impl NetInner {
    /// Applies one event frame; an undecodable one is dropped.
    fn apply(&mut self, frame: &[u8]) {
        match NetEvent::decode_borrowed(frame) {
            Ok(NetEvent::Accepted {
                listen,
                conn,
                peer_addr,
            }) => {
                if self.dead_listeners.contains(&listen) {
                    // The listener closed while this event was on the
                    // ring: refuse the connection instead of queueing an
                    // orphan no accept will reach.
                    self.refused.push(conn);
                } else {
                    self.accept_q
                        .entry(listen)
                        .or_default()
                        .push_back((conn, peer_addr));
                }
            }
            Ok(NetEvent::Data { sock, data }) => {
                self.data_q.entry(sock).or_default().extend(data);
            }
            Ok(NetEvent::Closed { sock }) => {
                self.closed.insert(sock);
            }
            Err(_) => {}
        }
    }

    /// Moves up to `buf.len()` queued bytes of `sock` into `buf`:
    /// `Some(0)` at end-of-stream, `None` while there is nothing to read.
    fn read(&mut self, sock: SockId, buf: &mut [u8]) -> Option<usize> {
        match self.data_q.get_mut(&sock) {
            Some(q) if !q.is_empty() => {
                let n = buf.len().min(q.len());
                let (front, back) = q.as_slices();
                let k = n.min(front.len());
                buf[..k].copy_from_slice(&front[..k]);
                buf[k..n].copy_from_slice(&back[..n - k]);
                q.drain(..n);
                Some(n)
            }
            _ => self.closed.contains(&sock).then_some(0),
        }
    }

    /// Drops every trace of a closed socket.
    fn forget(&mut self, sock: SockId) {
        self.accept_q.remove(&sock);
        self.data_q.remove(&sock);
        self.closed.remove(&sock);
        self.dead_listeners.remove(&sock);
    }
}

struct NetShared {
    inner: Mutex<NetInner>,
    /// The inbound event ring. Only a holder of `inner` receives from it,
    /// which is what keeps per-socket byte order.
    evt_rx: Consumer,
    /// The event ring's doorbell: waiting readers park on it.
    evt_bell: Arc<Doorbell>,
    /// What spinning on this stub's socket queues has earned.
    spin: SpinBudget,
    /// The socket RPC client (refused connections are closed through it).
    client: Arc<RpcClient>,
}

impl NetShared {
    fn new(client: Arc<RpcClient>, evt_rx: Consumer) -> Self {
        Self {
            inner: Mutex::new(NetInner::default()),
            evt_bell: evt_rx.doorbell(),
            evt_rx,
            spin: SpinBudget::new(),
            client,
        }
    }

    fn call(&self, req: NetRequest) -> NetResponse {
        self.client
            .call_with(|tag, frame| req.encode_into(tag, frame), decode_reply)
    }

    /// One look as the drainer: apply every event on the ring, in ring
    /// order, each decoded where it lies, then `take`. Holding `inner` is
    /// what makes the caller the only drainer. Connections the drain
    /// refused are closed back after the lock is dropped.
    fn probe<T>(&self, take: impl FnOnce(&mut NetInner) -> T) -> T {
        let mut g = self.inner.lock();
        while self.evt_rx.recv_with(|frame| g.apply(frame)).is_ok() {}
        let got = take(&mut g);
        let refused = std::mem::take(&mut g.refused);
        drop(g);
        for conn in refused {
            self.close(conn);
        }
        got
    }

    /// Blocks until `take` yields something from the socket queues, or
    /// until `deadline`. Every look drains the event ring first. A ring
    /// is not progress — it may have been another socket's event — so a
    /// woken waiter that still finds nothing goes straight back to sleep.
    fn wait_for<T>(
        &self,
        deadline: Option<Instant>,
        mut take: impl FnMut(&mut NetInner) -> Option<T>,
    ) -> Option<T> {
        let sleeper = Sleeper::new(WaitPolicy::new(&self.spin), &self.evt_bell);
        sleeper.wait_until(deadline, || match self.probe(&mut take) {
            Some(v) => Probe::Got(v),
            None => Probe::Empty,
        })
    }

    /// Closes `sock` through the proxy. Once the proxy has executed the
    /// close, everything it pushed for `sock` is already on the ring: one
    /// more drain applies the last of it, and the socket's entries go.
    /// After an error they stay — a dead-listener mark that outlives its
    /// listener only refuses, an orphan would hang its peer.
    fn close(&self, sock: SockId) -> NetResponse {
        let resp = self.call(NetRequest::Close { sock });
        if resp == NetResponse::Ok {
            self.probe(|g| g.forget(sock));
        }
        resp
    }
}

/// Decodes a reply where it lies; an undecodable one is an I/O error.
fn decode_reply(reply: &[u8]) -> NetResponse {
    match NetResponse::decode(reply) {
        Ok((_, resp)) => resp,
        Err(_) => NetResponse::Error { err: RpcErr::Io },
    }
}

/// `Ok` as `Ok(())`, anything else as its error.
fn expect_ok(resp: NetResponse) -> Result<(), RpcErr> {
    match resp {
        NetResponse::Ok => Ok(()),
        NetResponse::Error { err } => Err(err),
        _ => Err(RpcErr::Io),
    }
}

/// The co-processor network API. Clone to share among threads.
#[derive(Clone)]
pub struct CoprocNet {
    shared: Arc<NetShared>,
}

impl CoprocNet {
    /// Builds the stub over its socket RPC client and the co-processor's
    /// end of the event ring.
    pub fn new(client: Arc<RpcClient>, evt_rx: Consumer) -> Self {
        Self {
            shared: Arc::new(NetShared::new(client, evt_rx)),
        }
    }

    /// Issues a raw socket RPC — the §5 one-to-one syscall mapping,
    /// exposed for the polling (non-evented) path and for tests.
    pub fn raw_call(&self, req: NetRequest) -> NetResponse {
        self.shared.call(req)
    }

    /// The underlying RPC client (for tenant stamping and credit
    /// inspection in tests and tools).
    pub fn client(&self) -> &Arc<RpcClient> {
        &self.shared.client
    }

    /// Rings of this stub's event bell so far — how often an inbound
    /// event found a waiting reader asleep.
    pub fn event_doorbell_rings(&self) -> u64 {
        self.shared.evt_bell.rings()
    }

    /// Creates, binds, and listens — a shared listening socket when other
    /// co-processors listen on the same port (§4.4.3).
    pub fn listen(&self, port: u16, backlog: u32) -> Result<TcpListener, RpcErr> {
        let sock = match self.raw_call(NetRequest::Socket) {
            NetResponse::Socket { sock } => sock,
            NetResponse::Error { err } => return Err(err),
            _ => return Err(RpcErr::Io),
        };
        expect_ok(self.raw_call(NetRequest::Bind { sock, port }))?;
        expect_ok(self.raw_call(NetRequest::Listen { sock, backlog }))?;
        Ok(TcpListener {
            net: self.clone(),
            sock,
        })
    }

    /// Connects outward to `(addr, port)`.
    pub fn connect(&self, addr: u64, port: u16) -> Result<TcpStream, RpcErr> {
        let sock = match self.raw_call(NetRequest::Socket) {
            NetResponse::Socket { sock } => sock,
            NetResponse::Error { err } => return Err(err),
            _ => return Err(RpcErr::Io),
        };
        expect_ok(self.raw_call(NetRequest::Connect { sock, addr, port }))?;
        Ok(self.stream(sock))
    }

    /// Switches a socket between evented and RPC-polled delivery.
    pub fn set_evented(&self, sock: SockId, evented: bool) -> Result<(), RpcErr> {
        expect_ok(self.raw_call(NetRequest::Setsockopt {
            sock,
            opt: SOCKOPT_EVENTED,
            val: evented as u64,
        }))
    }

    /// Enqueues a socket RPC without waiting — the submission half of
    /// [`CoprocNet::raw_call`]. Redeem with [`PendingNet::wait`].
    pub fn submit_call(&self, req: NetRequest) -> Result<PendingNet, RpcErr> {
        self.submit_encoded(|tag, frame| req.encode_into(tag, frame))
    }

    fn submit_encoded(&self, encode: impl FnOnce(u32, &mut Vec<u8>)) -> Result<PendingNet, RpcErr> {
        let token = self.shared.client.submit_encoded(false, encode)?;
        Ok(PendingNet { token })
    }

    /// A stream handle for `sock`, which this stub delivers to.
    fn stream(&self, sock: SockId) -> TcpStream {
        TcpStream {
            net: self.clone(),
            sock,
        }
    }
}

/// An in-flight socket RPC submitted with [`CoprocNet::submit_call`],
/// [`TcpStream::submit_send`], or [`TcpStream::submit_recv`].
#[must_use = "a submitted socket RPC completes only when waited on"]
pub struct PendingNet {
    token: Token,
}

impl PendingNet {
    /// The wire tag of this submission.
    pub fn tag(&self) -> u32 {
        self.token.tag()
    }

    /// Blocks until the reply arrives and decodes it.
    pub fn wait(self, net: &CoprocNet) -> NetResponse {
        net.shared.client.wait_with(self.token, decode_reply)
    }
}

/// A pipelined [`TcpStream::send`]: one token per transport-sized chunk,
/// all in flight at once.
#[must_use = "a submitted send completes only when waited on"]
pub struct PendingSend {
    /// The first chunk, held inline: a send of one chunk (up to 8 KiB)
    /// allocates nothing for its handle.
    first: Option<PendingNet>,
    rest: Vec<PendingNet>,
}

impl PendingSend {
    /// Blocks until every chunk is acknowledged; returns total bytes sent.
    pub fn wait(self, net: &CoprocNet) -> Result<usize, RpcErr> {
        let mut sent = 0;
        let mut first_err = None;
        for p in self.first.into_iter().chain(self.rest) {
            match p.wait(net) {
                NetResponse::Sent { count } => sent += count as usize,
                NetResponse::Error { err } => first_err = first_err.or(Some(err)),
                _ => first_err = first_err.or(Some(RpcErr::Io)),
            }
        }
        match first_err {
            None => Ok(sent),
            Some(err) => Err(err),
        }
    }
}

/// A listening socket on the data plane.
pub struct TcpListener {
    net: CoprocNet,
    sock: SockId,
}

impl TcpListener {
    /// The proxy-assigned socket id.
    pub fn id(&self) -> SockId {
        self.sock
    }

    fn accept_until(&self, deadline: Option<Instant>) -> Option<(TcpStream, u64)> {
        let (conn, peer) = self.net.shared.wait_for(deadline, |g| {
            g.accept_q.get_mut(&self.sock).and_then(VecDeque::pop_front)
        })?;
        Some((self.net.stream(conn), peer))
    }

    /// Waits for a new connection, up to `timeout` (a timeout past the
    /// clock's range waits as [`TcpListener::accept`] does). Returns the
    /// stream and the peer address.
    pub fn accept_timeout(&self, timeout: Duration) -> Option<(TcpStream, u64)> {
        self.accept_until(Instant::now().checked_add(timeout))
    }

    /// Blocking accept.
    ///
    /// Escalates spin→yield→park via [`WaitPolicy`]: a busy listener takes
    /// connections off the queue without ever sleeping, while an idle one
    /// parks on the event ring's doorbell.
    pub fn accept(&self) -> (TcpStream, u64) {
        self.accept_until(None)
            .expect("an untimed wait returns a value")
    }

    /// Closes the listener (leaves the shared port open if other
    /// co-processors still listen).
    ///
    /// Connections delivered to this listener but never accepted are
    /// refused — their sockets closed back through the proxy so the
    /// peer observes a severance rather than a hang. Until the proxy has
    /// closed the listener, a dead-listener mark makes every drain do the
    /// same for any `Accepted` event still in flight on the ring.
    pub fn close(self) -> Result<(), RpcErr> {
        let shared = &self.net.shared;
        let orphans = shared.probe(|g| {
            g.dead_listeners.insert(self.sock);
            g.accept_q.remove(&self.sock)
        });
        for (conn, _) in orphans.into_iter().flatten() {
            shared.close(conn);
        }
        expect_ok(shared.close(self.sock))
    }
}

/// A connected stream on the data plane.
pub struct TcpStream {
    net: CoprocNet,
    sock: SockId,
}

impl TcpStream {
    /// The proxy-assigned socket id.
    pub fn id(&self) -> SockId {
        self.sock
    }

    /// Sends all of `data`, chunking at the transport's element limit
    /// (TCP is a byte stream; framing is the application's business).
    pub fn send(&self, data: &[u8]) -> Result<usize, RpcErr> {
        const CHUNK: usize = 8 * 1024;
        let mut sent = 0;
        for chunk in data.chunks(CHUNK.max(1)) {
            // Encoded from the caller's slice: no owned request is built.
            match self.net.shared.client.call_with(
                |tag, frame| NetRequest::encode_send_into(tag, self.sock, chunk, frame),
                decode_reply,
            ) {
                NetResponse::Sent { count } => sent += count as usize,
                NetResponse::Error { err } => return Err(err),
                _ => return Err(RpcErr::Io),
            }
        }
        Ok(sent)
    }

    /// Receives up to `buf.len()` bytes from this socket's queue, blocking
    /// up to `timeout` (a timeout past the clock's range waits as
    /// [`TcpStream::recv`] does). `Ok(0)` after a peer close means
    /// end-of-stream; `None` means timeout with no data.
    pub fn recv_timeout(&self, buf: &mut [u8], timeout: Duration) -> Option<usize> {
        self.net
            .shared
            .wait_for(Instant::now().checked_add(timeout), |g| {
                g.read(self.sock, buf)
            })
    }

    /// Blocking receive; `Ok(0)` = end-of-stream.
    ///
    /// Uses the shared [`WaitPolicy`] escalation (spin→yield→park) rather
    /// than re-arming a fixed timeout in a tight loop.
    pub fn recv(&self, buf: &mut [u8]) -> usize {
        self.net
            .shared
            .wait_for(None, |g| g.read(self.sock, buf))
            .expect("an untimed wait returns a value")
    }

    /// Enqueues a send of all of `data` without waiting: each
    /// transport-sized chunk becomes one in-flight RPC, so a large send
    /// keeps the request ring full instead of round-tripping per chunk.
    pub fn submit_send(&self, data: &[u8]) -> Result<PendingSend, RpcErr> {
        const CHUNK: usize = 8 * 1024;
        let mut pending = PendingSend {
            first: None,
            rest: Vec::new(),
        };
        for chunk in data.chunks(CHUNK) {
            match self.net.submit_encoded(|tag, frame| {
                NetRequest::encode_send_into(tag, self.sock, chunk, frame)
            }) {
                Ok(p) if pending.first.is_none() => pending.first = Some(p),
                Ok(p) => pending.rest.push(p),
                Err(e) => {
                    // Ring or window full: settle what is already in
                    // flight, then report.
                    let _ = pending.wait(&self.net);
                    return Err(e);
                }
            }
        }
        Ok(pending)
    }

    /// Enqueues a polled-path receive of up to `max` bytes without
    /// waiting (the RPC `Recv`, for sockets taken off evented delivery
    /// with [`CoprocNet::set_evented`]). Redeem with [`PendingNet::wait`];
    /// the reply is `Data { data }`.
    pub fn submit_recv(&self, max: u32) -> Result<PendingNet, RpcErr> {
        self.net.submit_call(NetRequest::Recv {
            sock: self.sock,
            max,
        })
    }

    /// Receives exactly `n` bytes (blocking); returns `None` on EOF.
    pub fn recv_exact(&self, n: usize) -> Option<Vec<u8>> {
        let mut out = vec![0u8; n];
        let mut have = 0;
        while have < n {
            let got = self.recv(&mut out[have..]);
            if got == 0 {
                return None;
            }
            have += got;
        }
        Some(out)
    }

    /// Closes the connection. Once the proxy has closed it, the stub
    /// forgets the socket's queue and end-of-stream mark.
    pub fn close(self) -> Result<(), RpcErr> {
        expect_ok(self.net.shared.close(self.sock))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::{event_ring, Channel};
    use crate::waitpolicy::SPIN_LIMIT;
    use solros_pcie::PcieCounters;
    use solros_ringbuf::Producer;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::thread::JoinHandle;

    /// A stub with no proxy behind its client: only a thread waiting in
    /// it can drain the ring `tx` feeds.
    fn bare_stub() -> (CoprocNet, Producer) {
        let counters = Arc::new(PcieCounters::new());
        let ch = Channel::new(Arc::clone(&counters));
        let (tx, rx) = event_ring(counters);
        let client = RpcClient::new(ch.req_tx, ch.resp_rx);
        (CoprocNet::new(client, rx), tx)
    }

    fn data(tx: &Producer, sock: SockId, bytes: &[u8]) {
        let ev = NetEvent::Data { sock, data: bytes };
        tx.send(&ev.encode()).unwrap();
    }

    /// With nobody else to drain the ring, the reader does: the event
    /// published once it has armed the bell rings it, and the bytes come
    /// out in order across two events.
    #[test]
    fn a_reader_drains_the_ring_itself() {
        let (net, tx) = bare_stub();
        let stream = net.stream(5);
        let rings = net.event_doorbell_rings();
        let bell = Arc::clone(&net.shared.evt_bell);
        let feeder = std::thread::spawn(move || {
            // The reader has run down its spin and yield bands.
            while !bell.is_armed() {
                std::thread::yield_now();
            }
            data(&tx, 5, b"hello ");
            data(&tx, 5, b"world");
            tx
        });
        let mut buf = [0u8; 11];
        let mut have = 0;
        while have < buf.len() {
            have += stream.recv(&mut buf[have..]);
        }
        assert_eq!(&buf, b"hello world");
        assert!(
            net.event_doorbell_rings() > rings,
            "the event rang the bell"
        );
        let tx = feeder.join().unwrap();
        assert_eq!(stream.recv_timeout(&mut buf, Duration::ZERO), None);
        tx.send(&NetEvent::<&[u8]>::Closed { sock: 5 }.encode())
            .unwrap();
        assert_eq!(stream.recv_timeout(&mut buf, Duration::ZERO), Some(0));
    }

    /// Feeds `frame` to the ring once `bell` is armed: the waiter has
    /// passed its first deadline check and parks.
    fn feed_when_parked(tx: Producer, bell: Arc<Doorbell>, frame: Vec<u8>) -> JoinHandle<()> {
        std::thread::spawn(move || {
            while !bell.is_armed() {
                std::thread::yield_now();
            }
            tx.send(&frame).unwrap();
        })
    }

    #[test]
    fn recv_timeout_of_duration_max_waits_for_the_bytes() {
        let (net, tx) = bare_stub();
        let ev = NetEvent::Data {
            sock: 5,
            data: &b"late"[..],
        };
        let feeder = feed_when_parked(tx, Arc::clone(&net.shared.evt_bell), ev.encode());
        let mut buf = [0u8; 8];
        let got = net.stream(5).recv_timeout(&mut buf, Duration::MAX);
        assert_eq!(got, Some(4));
        assert_eq!(&buf[..4], b"late");
        feeder.join().unwrap();
    }

    #[test]
    fn accept_timeout_of_duration_max_waits_for_the_connection() {
        let (net, tx) = bare_stub();
        let ev = NetEvent::<&[u8]>::Accepted {
            listen: 3,
            conn: 9,
            peer_addr: 42,
        };
        let feeder = feed_when_parked(tx, Arc::clone(&net.shared.evt_bell), ev.encode());
        let listener = TcpListener {
            net: net.clone(),
            sock: 3,
        };
        let (stream, peer) = listener.accept_timeout(Duration::MAX).unwrap();
        assert_eq!((stream.id(), peer), (9, 42));
        feeder.join().unwrap();
    }

    /// One busy socket and one idle one on the same stub. Every event for
    /// the busy socket can ring the bell the idle waiter is parked on, so
    /// it may wake once per event — but a wake-up that is not its own
    /// progress must not send it back to the spin band (it used to: ~80
    /// probes of the shared mutex per unrelated event).
    #[test]
    fn idle_waiter_is_not_respun_by_another_sockets_events() {
        const EVENTS: u64 = 300;
        let (net, tx) = bare_stub();
        let probes = Arc::new(AtomicU64::new(0));
        let idle = {
            let (shared, probes) = (Arc::clone(&net.shared), Arc::clone(&probes));
            std::thread::spawn(move || {
                shared.wait_for(None, |g| {
                    probes.fetch_add(1, Ordering::Relaxed);
                    g.closed.contains(&2).then_some(())
                })
            })
        };
        let t0 = Instant::now();
        for i in 0..EVENTS {
            // The proxy's half of a `Data` event for socket 1 ...
            data(&tx, 1, &[i as u8]);
            // ... and its reader's.
            let mut got = [0u8; 1];
            assert_eq!(net.stream(1).recv(&mut got), 1);
            assert_eq!(got[0], i as u8);
            // Time for the idle waiter to do whatever a wake-up makes it do.
            std::thread::sleep(Duration::from_micros(100));
        }
        let seen = probes.load(Ordering::Relaxed);
        let elapsed_ms = t0.elapsed().as_millis() as u64;
        tx.send(&NetEvent::<&[u8]>::Closed { sock: 2 }.encode())
            .unwrap();
        idle.join().unwrap();
        // One escalation to get parked (the yield band is 50 µs of probes
        // that each take the mutex: well under 2000), then a probe needs a
        // wake-up: one per event or one per expired park bound (1 ms).
        let bound = u64::from(SPIN_LIMIT) + 2_000 + EVENTS + elapsed_ms;
        assert!(seen <= bound, "idle waiter probed {seen} times (> {bound})");
    }

    /// A long-running server accepts, echoes and closes connection after
    /// connection: none of them may stay behind in the stub's maps.
    #[test]
    fn closed_sockets_leave_no_state_behind() {
        use solros_netdev::EndKind;
        const CYCLES: u64 = 10_000;
        let sys = crate::control::Solros::boot(solros_machine::MachineConfig::small());
        let net = sys.data_plane(0).net().clone();
        let fabric = Arc::clone(sys.network());
        let sizes = |net: &CoprocNet| {
            let g = net.shared.inner.lock();
            [
                g.accept_q.len(),
                g.data_q.len(),
                g.closed.len(),
                g.dead_listeners.len(),
                g.refused.len(),
            ]
        };
        let before = sizes(&net);
        let listener = net.listen(7400, 16).unwrap();
        let mut buf = [0u8; 4];
        for i in 0..CYCLES {
            let conn = fabric.client_connect(7400, i).unwrap();
            let (stream, peer) = listener.accept();
            assert_eq!(peer, i);
            fabric.send(conn, EndKind::Client, b"ping").unwrap();
            assert_eq!(stream.recv(&mut buf), 4);
            assert_eq!(stream.send(&buf), Ok(4));
            let mut back = Vec::new();
            while back.len() < 4 {
                back.extend(fabric.recv(conn, EndKind::Client, 4).unwrap());
            }
            assert_eq!(back, b"ping");
            // Half the peers hang up first, so `Closed` events are
            // drained on both sides of the stub's close.
            if i % 2 == 0 {
                fabric.close(conn, EndKind::Client).unwrap();
            }
            stream.close().unwrap();
        }
        listener.close().unwrap();
        assert_eq!(sizes(&net), before);
        sys.shutdown();
    }
}
