//! Connection fabric: listeners, establishment, byte streams, teardown.
//!
//! The fabric is symmetric: each connection has a *server* end (terminated
//! by whichever TCP stack runs on the machine under test) and a *client*
//! end (the remote load-generating machine). Data is a byte stream per
//! direction, like TCP after reassembly.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

use solros_simkit::sync::{Mutex, RwLock};

/// Connection identifier.
pub type ConnId = u64;

/// Which end of a connection is acting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndKind {
    /// The machine under test (where the TCP stack terminates).
    Server,
    /// The remote client machine.
    Client,
}

impl EndKind {
    fn peer(self) -> EndKind {
        match self {
            EndKind::Server => EndKind::Client,
            EndKind::Client => EndKind::Server,
        }
    }
}

/// Fabric errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetworkError {
    /// No listener on the port.
    ConnRefused,
    /// Port already has a listener.
    AddrInUse,
    /// Unknown connection.
    NotConnected,
    /// The peer closed its end; no more data will arrive.
    Closed,
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::ConnRefused => write!(f, "connection refused"),
            NetworkError::AddrInUse => write!(f, "address in use"),
            NetworkError::NotConnected => write!(f, "not connected"),
            NetworkError::Closed => write!(f, "connection closed by peer"),
        }
    }
}

impl std::error::Error for NetworkError {}

struct Stream {
    bytes: VecDeque<u8>,
    /// Writer closed: once drained, reads return `Closed`.
    fin: bool,
}

impl Stream {
    fn new() -> Self {
        Self {
            bytes: VecDeque::new(),
            fin: false,
        }
    }
}

struct Conn {
    /// Client → server byte stream.
    to_server: Stream,
    /// Server → client byte stream.
    to_client: Stream,
    /// Remote host id (for `Accepted` events).
    client_addr: u64,
}

struct Listener {
    pending: VecDeque<ConnId>,
    backlog: usize,
}

#[derive(Default)]
struct Inner {
    listeners: HashMap<u16, Listener>,
    conns: HashMap<ConnId, Conn>,
    next_conn: ConnId,
}

/// The simulated network: NIC + remote clients.
///
/// # Examples
///
/// ```
/// use solros_netdev::{EndKind, Network};
///
/// let net = Network::new();
/// net.listen(80, 16).unwrap();
/// let conn = net.client_connect(80, 1).unwrap();
/// assert_eq!(net.poll_accept(80).unwrap(), Some((conn, 1)));
/// net.send(conn, EndKind::Client, b"ping").unwrap();
/// assert_eq!(net.recv(conn, EndKind::Server, 64).unwrap(), b"ping");
/// ```
#[derive(Default)]
pub struct Network {
    inner: Mutex<Inner>,
    /// Called after anything arrives that a server-side poller would
    /// find: a new connection, bytes, a FIN (see [`Network::on_ingress`]).
    ingress_hooks: RwLock<Vec<IngressHook>>,
}

/// A notification callback for [`Network::on_ingress`].
pub type IngressHook = Arc<dyn Fn() + Send + Sync>;

impl Network {
    /// Creates an empty fabric.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Registers `hook` to run after every `client_connect`, `send` and
    /// `close` — the NIC's interrupt line. A proxy that polls the fabric
    /// can then sleep while nothing arrives; hooks must be cheap and
    /// must not call back into the fabric.
    pub fn on_ingress(&self, hook: IngressHook) {
        self.ingress_hooks.write().push(hook);
    }

    fn notify_ingress(&self) {
        for hook in self.ingress_hooks.read().iter() {
            hook();
        }
    }

    /// Registers a listener on `port`.
    pub fn listen(&self, port: u16, backlog: usize) -> Result<(), NetworkError> {
        let mut g = self.inner.lock();
        if g.listeners.contains_key(&port) {
            return Err(NetworkError::AddrInUse);
        }
        g.listeners.insert(
            port,
            Listener {
                pending: VecDeque::new(),
                backlog: backlog.max(1),
            },
        );
        Ok(())
    }

    /// Removes a listener; pending un-accepted connections are reset.
    pub fn unlisten(&self, port: u16) {
        let mut g = self.inner.lock();
        if let Some(l) = g.listeners.remove(&port) {
            for c in l.pending {
                g.conns.remove(&c);
            }
        }
    }

    /// A remote client connects to `port`; `client_addr` identifies it.
    pub fn client_connect(&self, port: u16, client_addr: u64) -> Result<ConnId, NetworkError> {
        let mut g = self.inner.lock();
        let id = g.next_conn;
        let Some(l) = g.listeners.get_mut(&port) else {
            return Err(NetworkError::ConnRefused);
        };
        if l.pending.len() >= l.backlog {
            return Err(NetworkError::ConnRefused);
        }
        l.pending.push_back(id);
        g.next_conn += 1;
        g.conns.insert(
            id,
            Conn {
                to_server: Stream::new(),
                to_client: Stream::new(),
                client_addr,
            },
        );
        drop(g);
        self.notify_ingress();
        Ok(id)
    }

    /// Server side: takes the next pending connection on `port`, returning
    /// `(conn, client_addr)`.
    pub fn poll_accept(&self, port: u16) -> Result<Option<(ConnId, u64)>, NetworkError> {
        let mut g = self.inner.lock();
        let Some(l) = g.listeners.get_mut(&port) else {
            return Err(NetworkError::NotConnected);
        };
        match l.pending.pop_front() {
            Some(id) => {
                let addr = g.conns.get(&id).map(|c| c.client_addr).unwrap_or(0);
                Ok(Some((id, addr)))
            }
            None => Ok(None),
        }
    }

    fn stream_mut(conn: &mut Conn, from: EndKind) -> &mut Stream {
        match from {
            EndKind::Client => &mut conn.to_server,
            EndKind::Server => &mut conn.to_client,
        }
    }

    /// Sends bytes from one end; returns bytes accepted.
    pub fn send(&self, id: ConnId, from: EndKind, data: &[u8]) -> Result<usize, NetworkError> {
        let mut g = self.inner.lock();
        let conn = g.conns.get_mut(&id).ok_or(NetworkError::NotConnected)?;
        let s = Self::stream_mut(conn, from);
        if s.fin {
            return Err(NetworkError::Closed);
        }
        s.bytes.extend(data.iter().copied());
        drop(g);
        self.notify_ingress();
        Ok(data.len())
    }

    /// Receives up to `max` bytes at one end. Empty result means "no data
    /// yet"; `Err(Closed)` means the peer closed and the stream drained.
    pub fn recv(&self, id: ConnId, at: EndKind, max: usize) -> Result<Vec<u8>, NetworkError> {
        self.recv_with(id, at, max, <[u8]>::to_vec)
    }

    /// [`Network::recv`] lending the bytes to `f` where they lie in the
    /// stream, then consuming them: a caller that encodes them onward
    /// needs no buffer of its own. `f` runs under the fabric's lock, so
    /// it must be quick and must not call back into the fabric.
    pub fn recv_with<R>(
        &self,
        id: ConnId,
        at: EndKind,
        max: usize,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, NetworkError> {
        let mut g = self.inner.lock();
        let conn = g.conns.get_mut(&id).ok_or(NetworkError::NotConnected)?;
        let s = Self::stream_mut(conn, at.peer());
        if s.bytes.is_empty() {
            if s.fin {
                // FIN observed; reap once both directions are closed and
                // drained (TIME_WAIT collapses instantly in simulation).
                let both = conn.to_server.fin && conn.to_client.fin;
                let drained = conn.to_server.bytes.is_empty() && conn.to_client.bytes.is_empty();
                if both && drained {
                    g.conns.remove(&id);
                }
                return Err(NetworkError::Closed);
            }
            return Ok(f(&[]));
        }
        let n = max.min(s.bytes.len());
        let out = f(&s.bytes.make_contiguous()[..n]);
        s.bytes.drain(..n);
        Ok(out)
    }

    /// Bytes currently queued toward `at`.
    pub fn pending_bytes(&self, id: ConnId, at: EndKind) -> Result<usize, NetworkError> {
        let mut g = self.inner.lock();
        let conn = g.conns.get_mut(&id).ok_or(NetworkError::NotConnected)?;
        Ok(Self::stream_mut(conn, at.peer()).bytes.len())
    }

    /// Closes one end's write direction (TCP FIN). When both ends have
    /// closed, the connection is reaped.
    pub fn close(&self, id: ConnId, from: EndKind) -> Result<(), NetworkError> {
        let mut g = self.inner.lock();
        let conn = g.conns.get_mut(&id).ok_or(NetworkError::NotConnected)?;
        Self::stream_mut(conn, from).fin = true;
        drop(g);
        self.notify_ingress();
        Ok(())
    }

    /// Number of live connections (tests and leak checks).
    pub fn live_connections(&self) -> usize {
        self.inner.lock().conns.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuse_without_listener() {
        let net = Network::new();
        assert_eq!(net.client_connect(80, 1), Err(NetworkError::ConnRefused));
    }

    #[test]
    fn addr_in_use() {
        let net = Network::new();
        net.listen(80, 4).unwrap();
        assert_eq!(net.listen(80, 4), Err(NetworkError::AddrInUse));
        net.unlisten(80);
        net.listen(80, 4).unwrap();
    }

    #[test]
    fn backlog_limits_pending() {
        let net = Network::new();
        net.listen(80, 2).unwrap();
        net.client_connect(80, 1).unwrap();
        net.client_connect(80, 2).unwrap();
        assert_eq!(net.client_connect(80, 3), Err(NetworkError::ConnRefused));
        // Accepting frees a slot.
        net.poll_accept(80).unwrap().unwrap();
        net.client_connect(80, 3).unwrap();
    }

    #[test]
    fn byte_stream_semantics() {
        let net = Network::new();
        net.listen(80, 4).unwrap();
        let c = net.client_connect(80, 7).unwrap();
        let (conn, addr) = net.poll_accept(80).unwrap().unwrap();
        assert_eq!((conn, addr), (c, 7));
        net.send(c, EndKind::Client, b"hello ").unwrap();
        net.send(c, EndKind::Client, b"world").unwrap();
        // Stream coalesces; partial reads respect max.
        assert_eq!(net.recv(c, EndKind::Server, 8).unwrap(), b"hello wo");
        assert_eq!(net.recv(c, EndKind::Server, 64).unwrap(), b"rld");
        assert!(net.recv(c, EndKind::Server, 64).unwrap().is_empty());
        // Reply direction.
        net.send(c, EndKind::Server, b"ok").unwrap();
        assert_eq!(net.recv(c, EndKind::Client, 64).unwrap(), b"ok");
    }

    #[test]
    fn close_semantics() {
        let net = Network::new();
        net.listen(80, 4).unwrap();
        let c = net.client_connect(80, 1).unwrap();
        net.poll_accept(80).unwrap().unwrap();
        net.send(c, EndKind::Client, b"bye").unwrap();
        net.close(c, EndKind::Client).unwrap();
        // Server drains remaining data, then sees Closed.
        assert_eq!(net.recv(c, EndKind::Server, 64).unwrap(), b"bye");
        assert_eq!(net.recv(c, EndKind::Server, 64), Err(NetworkError::Closed));
        // Sending into a closed write direction fails.
        assert_eq!(
            net.send(c, EndKind::Client, b"x"),
            Err(NetworkError::Closed)
        );
        // Server can still reply until it closes too.
        net.send(c, EndKind::Server, b"ack").unwrap();
        assert_eq!(net.recv(c, EndKind::Client, 64).unwrap(), b"ack");
        net.close(c, EndKind::Server).unwrap();
        assert_eq!(net.recv(c, EndKind::Client, 64), Err(NetworkError::Closed));
        assert_eq!(net.live_connections(), 0, "fully closed connections reaped");
    }

    #[test]
    fn unlisten_resets_pending() {
        let net = Network::new();
        net.listen(80, 4).unwrap();
        let c = net.client_connect(80, 1).unwrap();
        net.unlisten(80);
        assert_eq!(
            net.send(c, EndKind::Client, b"x"),
            Err(NetworkError::NotConnected)
        );
    }

    #[test]
    fn many_concurrent_connections() {
        let net = Network::new();
        net.listen(9000, 1024).unwrap();
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let net = std::sync::Arc::clone(&net);
                std::thread::spawn(move || {
                    for i in 0..50 {
                        let c = net.client_connect(9000, t * 100 + i).unwrap();
                        net.send(c, EndKind::Client, &t.to_le_bytes()).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let mut accepted = 0;
        while let Some((conn, addr)) = net.poll_accept(9000).unwrap() {
            let data = net.recv(conn, EndKind::Server, 8).unwrap();
            assert_eq!(u64::from_le_bytes(data.try_into().unwrap()), addr / 100);
            accepted += 1;
        }
        assert_eq!(accepted, 400);
    }
}
