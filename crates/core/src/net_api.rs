//! The data-plane network stub and application API (§4.4.1–§4.4.2).
//!
//! A single *event dispatcher* thread per co-processor drains the inbound
//! event ring and distributes events to per-socket queues (the design
//! that keeps contention off the inbound ring, §4.4.2): `Accepted` events
//! feed per-listener accept queues, `Data` events append to per-connection
//! byte streams, `Closed` marks end-of-stream. Application threads block
//! on their own socket's queue under a condition variable.
//!
//! Both kinds of waiter follow [`crate::waitpolicy`]: the dispatcher
//! parks on the event ring's doorbell as soon as the ring is empty (it
//! is the third thread in every hand-off, so it takes no turn in the
//! run queue it was not rung for), and socket waiters escalate spin →
//! yield → park on the dispatcher's condition variable.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use solros_proto::net_msg::{NetEvent, NetRequest, NetResponse, SockId};
use solros_proto::rpc_error::RpcErr;
use solros_ringbuf::{Consumer, Doorbell};
use solros_simkit::sync::{Condvar, Mutex};

use crate::tcp_proxy::SOCKOPT_EVENTED;
use crate::transport::{RpcClient, Token};
use crate::waitpolicy::{Sleeper, SpinBudget, Wait, WaitPolicy};

#[derive(Default)]
struct NetInner {
    accept_q: HashMap<SockId, VecDeque<(SockId, u64)>>,
    data_q: HashMap<SockId, VecDeque<u8>>,
    closed: HashSet<SockId>,
    /// Listeners closed by this stub. An `Accepted` event still in
    /// flight when the close raced it must be refused (its connection
    /// closed back), never queued — a queued orphan would hold its
    /// fabric conn open forever and the peer would hang, not sever.
    dead_listeners: HashSet<SockId>,
}

struct NetShared {
    inner: Mutex<NetInner>,
    arrived: Condvar,
    /// What spinning on this stub's socket queues has earned.
    spin: SpinBudget,
    /// The event ring's doorbell (the dispatcher sleeps on it).
    evt_bell: Arc<Doorbell>,
}

impl NetShared {
    /// Blocks until `take` yields something from the socket queues,
    /// escalating spin → yield → park on the dispatcher's condvar. The
    /// dispatcher notifies for *every* socket's events, so a wake-up is
    /// not progress: only `take` succeeding ends the wait, and a waiter
    /// woken by someone else's event goes straight back to sleep.
    fn wait_for<T>(&self, mut take: impl FnMut(&mut NetInner) -> Option<T>) -> T {
        let mut policy = WaitPolicy::new(&self.spin);
        loop {
            let mut g = self.inner.lock();
            if let Some(v) = take(&mut g) {
                return v;
            }
            match policy.advance() {
                Wait::Park(d) => {
                    self.arrived.wait_for(&mut g, d);
                }
                // Spin/yield with the lock released so the dispatcher can
                // deliver.
                Wait::Spin => {
                    drop(g);
                    std::hint::spin_loop();
                }
                Wait::Yield => {
                    drop(g);
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Decodes a reply where it lies; an undecodable one is an I/O error.
fn decode_reply(reply: &[u8]) -> NetResponse {
    match NetResponse::decode(reply) {
        Ok((_, resp)) => resp,
        Err(_) => NetResponse::Error { err: RpcErr::Io },
    }
}

/// Runs the event dispatcher loop (§4.4.2). One thread per co-processor.
fn dispatch_loop(
    evt_rx: Consumer,
    client: Arc<RpcClient>,
    shared: Arc<NetShared>,
    shutdown: Arc<AtomicBool>,
) {
    let bell = Arc::clone(&shared.evt_bell);
    let mut sleeper = Sleeper::new(WaitPolicy::parking(), &bell);
    while !shutdown.load(Ordering::Relaxed) {
        match evt_rx.recv_with(NetEvent::decode) {
            Ok(decoded) => {
                sleeper.progress();
                let Ok(ev) = decoded else {
                    continue;
                };
                let mut g = shared.inner.lock();
                match ev {
                    NetEvent::Accepted {
                        listen,
                        conn,
                        peer_addr,
                    } => {
                        if g.dead_listeners.contains(&listen) {
                            // The listener closed while this event was on
                            // the ring: refuse the connection instead of
                            // queueing an orphan no accept will reach.
                            drop(g);
                            client.call_with(
                                |tag, frame| {
                                    NetRequest::Close { sock: conn }.encode_into(tag, frame)
                                },
                                |_| (),
                            );
                            continue;
                        }
                        g.accept_q
                            .entry(listen)
                            .or_default()
                            .push_back((conn, peer_addr));
                    }
                    NetEvent::Data { sock, data } => {
                        g.data_q.entry(sock).or_default().extend(data);
                    }
                    NetEvent::Closed { sock } => {
                        g.closed.insert(sock);
                    }
                }
                drop(g);
                shared.arrived.notify_all();
            }
            // Bounded parks keep the shutdown flag checked.
            Err(_) => sleeper.idle(),
        }
    }
}

/// The co-processor network API. Clone to share among threads.
#[derive(Clone)]
pub struct CoprocNet {
    client: Arc<RpcClient>,
    shared: Arc<NetShared>,
}

impl CoprocNet {
    /// Builds the stub and spawns the event dispatcher thread.
    pub fn start(
        client: Arc<RpcClient>,
        evt_rx: Consumer,
        shutdown: Arc<AtomicBool>,
    ) -> (Self, std::thread::JoinHandle<()>) {
        let shared = Arc::new(NetShared {
            inner: Mutex::new(NetInner::default()),
            arrived: Condvar::new(),
            spin: SpinBudget::new(),
            evt_bell: evt_rx.doorbell(),
        });
        let shared2 = Arc::clone(&shared);
        let client2 = Arc::clone(&client);
        let handle = std::thread::Builder::new()
            .name("solros-net-dispatch".into())
            .spawn(move || dispatch_loop(evt_rx, client2, shared2, shutdown))
            .expect("spawn dispatcher");
        (Self { client, shared }, handle)
    }

    fn call(&self, req: NetRequest) -> NetResponse {
        self.client
            .call_with(|tag, frame| req.encode_into(tag, frame), decode_reply)
    }

    /// Issues a raw socket RPC — the §5 one-to-one syscall mapping,
    /// exposed for the polling (non-evented) path and for tests.
    pub fn raw_call(&self, req: NetRequest) -> NetResponse {
        self.call(req)
    }

    /// The underlying RPC client (for tenant stamping and credit
    /// inspection in tests and tools).
    pub fn client(&self) -> &Arc<RpcClient> {
        &self.client
    }

    /// Doorbell rings delivered to the event dispatcher so far — how
    /// often an inbound event found it asleep.
    pub fn event_doorbell_rings(&self) -> u64 {
        self.shared.evt_bell.rings()
    }

    fn expect_ok(&self, req: NetRequest) -> Result<(), RpcErr> {
        match self.call(req) {
            NetResponse::Ok => Ok(()),
            NetResponse::Error { err } => Err(err),
            _ => Err(RpcErr::Io),
        }
    }

    /// Creates, binds, and listens — a shared listening socket when other
    /// co-processors listen on the same port (§4.4.3).
    pub fn listen(&self, port: u16, backlog: u32) -> Result<TcpListener, RpcErr> {
        let sock = match self.call(NetRequest::Socket) {
            NetResponse::Socket { sock } => sock,
            NetResponse::Error { err } => return Err(err),
            _ => return Err(RpcErr::Io),
        };
        self.expect_ok(NetRequest::Bind { sock, port })?;
        self.expect_ok(NetRequest::Listen { sock, backlog })?;
        Ok(TcpListener {
            net: self.clone(),
            sock,
        })
    }

    /// Connects outward to `(addr, port)`.
    pub fn connect(&self, addr: u64, port: u16) -> Result<TcpStream, RpcErr> {
        let sock = match self.call(NetRequest::Socket) {
            NetResponse::Socket { sock } => sock,
            NetResponse::Error { err } => return Err(err),
            _ => return Err(RpcErr::Io),
        };
        self.expect_ok(NetRequest::Connect { sock, addr, port })?;
        Ok(TcpStream {
            net: self.clone(),
            sock,
        })
    }

    /// Switches a socket between evented and RPC-polled delivery.
    pub fn set_evented(&self, sock: SockId, evented: bool) -> Result<(), RpcErr> {
        self.expect_ok(NetRequest::Setsockopt {
            sock,
            opt: SOCKOPT_EVENTED,
            val: evented as u64,
        })
    }

    /// Enqueues a socket RPC without waiting — the submission half of
    /// [`CoprocNet::raw_call`]. Redeem with [`PendingNet::wait`].
    pub fn submit_call(&self, req: NetRequest) -> Result<PendingNet, RpcErr> {
        self.submit_encoded(|tag, frame| req.encode_into(tag, frame))
    }

    fn submit_encoded(&self, encode: impl FnOnce(u32, &mut Vec<u8>)) -> Result<PendingNet, RpcErr> {
        let token = self.client.submit_encoded(false, encode)?;
        Ok(PendingNet { token })
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
        net.client.wait_with(self.token, decode_reply)
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

    /// Waits for the dispatcher to deliver a new connection, up to
    /// `timeout`. Returns the stream and the peer address.
    pub fn accept_timeout(&self, timeout: Duration) -> Option<(TcpStream, u64)> {
        let deadline = std::time::Instant::now() + timeout;
        let mut g = self.net.shared.inner.lock();
        loop {
            if let Some((conn, peer)) = g.accept_q.entry(self.sock).or_default().pop_front() {
                return Some((
                    TcpStream {
                        net: self.net.clone(),
                        sock: conn,
                    },
                    peer,
                ));
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            self.net.shared.arrived.wait_for(&mut g, deadline - now);
        }
    }

    /// Blocking accept.
    ///
    /// Escalates spin→yield→park via [`WaitPolicy`]: a busy listener takes
    /// connections off the queue without ever sleeping, while an idle one
    /// parks on the dispatcher's condition variable.
    pub fn accept(&self) -> (TcpStream, u64) {
        let (conn, peer) = self
            .net
            .shared
            .wait_for(|g| g.accept_q.entry(self.sock).or_default().pop_front());
        (
            TcpStream {
                net: self.net.clone(),
                sock: conn,
            },
            peer,
        )
    }

    /// Closes the listener (leaves the shared port open if other
    /// co-processors still listen).
    ///
    /// Connections delivered to this listener but never accepted are
    /// refused — their sockets closed back through the proxy so the
    /// peer observes a severance rather than a hang. The dead-listener
    /// mark makes the dispatcher do the same for any `Accepted` event
    /// still in flight on the ring.
    pub fn close(self) -> Result<(), RpcErr> {
        let orphans: Vec<SockId> = {
            let mut g = self.net.shared.inner.lock();
            g.dead_listeners.insert(self.sock);
            g.accept_q
                .remove(&self.sock)
                .map(|q| q.into_iter().map(|(conn, _)| conn).collect())
                .unwrap_or_default()
        };
        for conn in orphans {
            let _ = self.net.call(NetRequest::Close { sock: conn });
        }
        self.net.expect_ok(NetRequest::Close { sock: self.sock })
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
            match self.net.client.call_with(
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

    /// Receives up to `buf.len()` bytes from the dispatcher's per-socket
    /// queue, blocking up to `timeout`. `Ok(0)` after a peer close means
    /// end-of-stream; `None` means timeout with no data.
    pub fn recv_timeout(&self, buf: &mut [u8], timeout: Duration) -> Option<usize> {
        let deadline = std::time::Instant::now() + timeout;
        let mut g = self.net.shared.inner.lock();
        loop {
            let q = g.data_q.entry(self.sock).or_default();
            if !q.is_empty() {
                let n = buf.len().min(q.len());
                for b in buf[..n].iter_mut() {
                    *b = q.pop_front().expect("checked non-empty");
                }
                return Some(n);
            }
            if g.closed.contains(&self.sock) {
                return Some(0);
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return None;
            }
            self.net.shared.arrived.wait_for(&mut g, deadline - now);
        }
    }

    /// Blocking receive; `Ok(0)` = end-of-stream.
    ///
    /// Uses the shared [`WaitPolicy`] escalation (spin→yield→park) rather
    /// than re-arming a fixed timeout in a tight loop.
    pub fn recv(&self, buf: &mut [u8]) -> usize {
        self.net.shared.wait_for(|g| {
            let q = g.data_q.entry(self.sock).or_default();
            if !q.is_empty() {
                let n = buf.len().min(q.len());
                for b in buf[..n].iter_mut() {
                    *b = q.pop_front().expect("checked non-empty");
                }
                return Some(n);
            }
            g.closed.contains(&self.sock).then_some(0)
        })
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

    /// Closes the connection.
    pub fn close(self) -> Result<(), RpcErr> {
        self.net.expect_ok(NetRequest::Close { sock: self.sock })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::waitpolicy::SPIN_LIMIT;
    use std::sync::atomic::AtomicU64;
    use std::time::Instant;

    /// One busy socket and one idle one on the same stub. The dispatcher
    /// notifies every waiter for every event, so the idle waiter wakes
    /// once per event — but a wake-up that is not its own progress must
    /// not send it back to the spin band (it used to: ~80 probes of the
    /// shared mutex per unrelated event).
    #[test]
    fn idle_waiter_is_not_respun_by_another_sockets_events() {
        const EVENTS: u64 = 300;
        let shared = Arc::new(NetShared {
            inner: Mutex::new(NetInner::default()),
            arrived: Condvar::new(),
            spin: SpinBudget::new(),
            evt_bell: Doorbell::new(),
        });
        let probes = Arc::new(AtomicU64::new(0));
        let idle = {
            let (shared, probes) = (Arc::clone(&shared), Arc::clone(&probes));
            std::thread::spawn(move || {
                shared.wait_for(|g| {
                    probes.fetch_add(1, Ordering::Relaxed);
                    g.closed.contains(&2).then_some(())
                })
            })
        };
        let t0 = Instant::now();
        for i in 0..EVENTS {
            // The dispatcher's half of a `Data` event for socket 1 ...
            shared
                .inner
                .lock()
                .data_q
                .entry(1)
                .or_default()
                .push_back(i as u8);
            shared.arrived.notify_all();
            // ... and its reader's.
            let got = shared.wait_for(|g| g.data_q.get_mut(&1)?.pop_front());
            assert_eq!(got, i as u8);
            // Time for the idle waiter to do whatever a wake-up makes it do.
            std::thread::sleep(Duration::from_micros(100));
        }
        let seen = probes.load(Ordering::Relaxed);
        let elapsed_ms = t0.elapsed().as_millis() as u64;
        shared.inner.lock().closed.insert(2);
        shared.arrived.notify_all();
        idle.join().unwrap();
        // One escalation to get parked (the yield band is 50 µs of probes
        // that each take the mutex: well under 2000), then a probe needs a
        // wake-up: one per event or one per expired park bound (1 ms).
        let bound = u64::from(SPIN_LIMIT) + 2_000 + EVENTS + elapsed_ms;
        assert!(seen <= bound, "idle waiter probed {seen} times (> {bound})");
    }
}
