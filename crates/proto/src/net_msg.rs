//! Network RPC messages and events (§4.4, §5).
//!
//! The paper defines ten RPC messages with a one-to-one mapping to socket
//! system calls, and two event messages for the inbound channel: a new
//! connection (for `accept`) and data arrival (for `recv`). Outbound data
//! rides in the `Send` element itself (the outbound ring master is at the
//! co-processor so host DMA engines pull it, §4.4.1); inbound data rides
//! in the event element (the inbound ring master is at the host so
//! co-processor DMA engines pull it).

use crate::codec::{decode_frame, ProtoError, Reader, Writer};
use crate::rpc_error::RpcErr;

/// Socket identifier assigned by the proxy.
pub type SockId = u64;

/// Requests sent by the data-plane TCP stub (the ten socket RPCs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetRequest {
    /// Create a socket.
    Socket,
    /// Bind to a port.
    Bind {
        /// Socket.
        sock: SockId,
        /// TCP port.
        port: u16,
    },
    /// Start listening. A listening socket may be *shared*: multiple
    /// co-processors listening on the same port (§4.4.3).
    Listen {
        /// Socket.
        sock: SockId,
        /// Backlog hint.
        backlog: u32,
    },
    /// Accept a pending connection (normally driven by events).
    Accept {
        /// Listening socket.
        sock: SockId,
    },
    /// Connect to a remote address.
    Connect {
        /// Socket.
        sock: SockId,
        /// Remote host id.
        addr: u64,
        /// Remote port.
        port: u16,
    },
    /// Send data (payload inline; host DMA pulls it from the outbound
    /// ring).
    Send {
        /// Socket.
        sock: SockId,
        /// Payload.
        data: Vec<u8>,
    },
    /// Poll for received data (normally driven by events).
    Recv {
        /// Socket.
        sock: SockId,
        /// Max bytes.
        max: u32,
    },
    /// Close a socket.
    Close {
        /// Socket.
        sock: SockId,
    },
    /// Set a socket option.
    Setsockopt {
        /// Socket.
        sock: SockId,
        /// Option code.
        opt: u32,
        /// Option value.
        val: u64,
    },
    /// Shut down one or both directions.
    Shutdown {
        /// Socket.
        sock: SockId,
        /// 0 = read, 1 = write, 2 = both.
        how: u8,
    },
}

const T_SOCKET: u8 = 40;
const T_BIND: u8 = 41;
const T_LISTEN: u8 = 42;
const T_ACCEPT: u8 = 43;
const T_CONNECT: u8 = 44;
const T_SEND: u8 = 45;
const T_RECV: u8 = 46;
const T_CLOSE: u8 = 47;
const T_SETSOCKOPT: u8 = 48;
const T_SHUTDOWN: u8 = 49;

impl NetRequest {
    /// Encodes with a caller tag.
    pub fn encode(&self, tag: u32) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(tag, &mut out);
        out
    }

    /// Appends the encoded frame to `out` (a reusable buffer pays no
    /// allocation).
    pub fn encode_into(&self, tag: u32, out: &mut Vec<u8>) {
        match self {
            NetRequest::Socket => Writer::frame(out, T_SOCKET, tag),
            NetRequest::Bind { sock, port } => {
                Writer::frame(out, T_BIND, tag).u64(*sock).u32(*port as u32)
            }
            NetRequest::Listen { sock, backlog } => {
                Writer::frame(out, T_LISTEN, tag).u64(*sock).u32(*backlog)
            }
            NetRequest::Accept { sock } => Writer::frame(out, T_ACCEPT, tag).u64(*sock),
            NetRequest::Connect { sock, addr, port } => Writer::frame(out, T_CONNECT, tag)
                .u64(*sock)
                .u64(*addr)
                .u32(*port as u32),
            NetRequest::Send { sock, data } => {
                return Self::encode_send_into(tag, *sock, data, out)
            }
            NetRequest::Recv { sock, max } => Writer::frame(out, T_RECV, tag).u64(*sock).u32(*max),
            NetRequest::Close { sock } => Writer::frame(out, T_CLOSE, tag).u64(*sock),
            NetRequest::Setsockopt { sock, opt, val } => Writer::frame(out, T_SETSOCKOPT, tag)
                .u64(*sock)
                .u32(*opt)
                .u64(*val),
            NetRequest::Shutdown { sock, how } => {
                Writer::frame(out, T_SHUTDOWN, tag).u64(*sock).u8(*how)
            }
        }
        .finish()
    }

    /// Appends a [`NetRequest::Send`] frame whose payload is borrowed, so
    /// a stub sending from a caller's slice builds no owned request first.
    pub fn encode_send_into(tag: u32, sock: SockId, data: &[u8], out: &mut Vec<u8>) {
        Writer::frame(out, T_SEND, tag)
            .u64(sock)
            .bytes(data)
            .finish()
    }

    /// Decodes a request frame, returning `(tag, request)`.
    pub fn decode(buf: &[u8]) -> Result<(u32, NetRequest), ProtoError> {
        let f = decode_frame(buf)?;
        Ok((f.tag, Self::from_frame(&f)?))
    }

    /// Decodes the request body of an already-parsed frame, so admission
    /// paths that need the header metadata parse each frame exactly once.
    pub fn from_frame(f: &crate::codec::Frame<'_>) -> Result<NetRequest, ProtoError> {
        let mut r = Reader::new(f.body);
        let req = match f.msg_type {
            T_SOCKET => NetRequest::Socket,
            T_BIND => NetRequest::Bind {
                sock: r.u64()?,
                port: r.u32()? as u16,
            },
            T_LISTEN => NetRequest::Listen {
                sock: r.u64()?,
                backlog: r.u32()?,
            },
            T_ACCEPT => NetRequest::Accept { sock: r.u64()? },
            T_CONNECT => NetRequest::Connect {
                sock: r.u64()?,
                addr: r.u64()?,
                port: r.u32()? as u16,
            },
            T_SEND => NetRequest::Send {
                sock: r.u64()?,
                data: r.bytes()?,
            },
            T_RECV => NetRequest::Recv {
                sock: r.u64()?,
                max: r.u32()?,
            },
            T_CLOSE => NetRequest::Close { sock: r.u64()? },
            T_SETSOCKOPT => NetRequest::Setsockopt {
                sock: r.u64()?,
                opt: r.u32()?,
                val: r.u64()?,
            },
            T_SHUTDOWN => NetRequest::Shutdown {
                sock: r.u64()?,
                how: r.u8()?,
            },
            _ => return Err(ProtoError::BadType),
        };
        r.finish()?;
        Ok(req)
    }
}

/// Replies from the TCP proxy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetResponse {
    /// Socket created.
    Socket {
        /// New socket id.
        sock: SockId,
    },
    /// Connection accepted (RPC path).
    Accepted {
        /// New connection socket.
        conn: SockId,
        /// Remote host id.
        peer_addr: u64,
    },
    /// Data sent.
    Sent {
        /// Bytes accepted by the stack.
        count: u64,
    },
    /// Data received (RPC poll path).
    Data {
        /// Payload.
        data: Vec<u8>,
    },
    /// Generic success.
    Ok,
    /// Failure.
    Error {
        /// Error code.
        err: RpcErr,
    },
}

const R_SOCKET: u8 = 140;
const R_ACCEPTED: u8 = 143;
const R_SENT: u8 = 145;
const R_DATA: u8 = 146;
const R_NOK: u8 = 150;
const R_NERROR: u8 = 157;

impl NetResponse {
    /// Encodes with the echoed tag.
    pub fn encode(&self, tag: u32) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(tag, &mut out);
        out
    }

    /// Appends the encoded frame to `out` (a reusable buffer pays no
    /// allocation).
    pub fn encode_into(&self, tag: u32, out: &mut Vec<u8>) {
        match self {
            NetResponse::Socket { sock } => Writer::frame(out, R_SOCKET, tag).u64(*sock),
            NetResponse::Accepted { conn, peer_addr } => Writer::frame(out, R_ACCEPTED, tag)
                .u64(*conn)
                .u64(*peer_addr),
            NetResponse::Sent { count } => Writer::frame(out, R_SENT, tag).u64(*count),
            NetResponse::Data { data } => Writer::frame(out, R_DATA, tag).bytes(data),
            NetResponse::Ok => Writer::frame(out, R_NOK, tag),
            NetResponse::Error { err } => Writer::frame(out, R_NERROR, tag).u32(err.code()),
        }
        .finish()
    }

    /// Decodes a reply frame, returning `(tag, response)`.
    pub fn decode(buf: &[u8]) -> Result<(u32, NetResponse), ProtoError> {
        let f = decode_frame(buf)?;
        let mut r = Reader::new(f.body);
        let resp = match f.msg_type {
            R_SOCKET => NetResponse::Socket { sock: r.u64()? },
            R_ACCEPTED => NetResponse::Accepted {
                conn: r.u64()?,
                peer_addr: r.u64()?,
            },
            R_SENT => NetResponse::Sent { count: r.u64()? },
            R_DATA => NetResponse::Data { data: r.bytes()? },
            R_NOK => NetResponse::Ok,
            R_NERROR => NetResponse::Error {
                err: RpcErr::from_code(r.u32()?).ok_or(ProtoError::Malformed)?,
            },
            _ => return Err(ProtoError::BadType),
        };
        r.finish()?;
        Ok((f.tag, resp))
    }
}

/// Inbound events delivered on the event channel (§4.4.2). Tag is unused
/// (events are unsolicited); the stub routes by socket id.
///
/// `D` is the `Data` payload: owned by default, `&[u8]` for an event
/// encoded from, or decoded into, bytes that stay where they lie
/// ([`NetEvent::decode_borrowed`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetEvent<D = Vec<u8>> {
    /// A new client connected to a listening socket.
    Accepted {
        /// The listening socket.
        listen: SockId,
        /// The new connection socket.
        conn: SockId,
        /// Remote host id.
        peer_addr: u64,
    },
    /// Data arrived on a connection; the payload rides in the inbound
    /// ring element itself.
    Data {
        /// Connection socket.
        sock: SockId,
        /// Payload.
        data: D,
    },
    /// The remote side closed the connection.
    Closed {
        /// Connection socket.
        sock: SockId,
    },
}

const E_ACCEPTED: u8 = 200;
const E_DATA: u8 = 201;
const E_CLOSED: u8 = 202;

impl<D: AsRef<[u8]>> NetEvent<D> {
    /// Encodes the event.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the encoded event frame to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            NetEvent::Accepted {
                listen,
                conn,
                peer_addr,
            } => Writer::frame(out, E_ACCEPTED, 0)
                .u64(*listen)
                .u64(*conn)
                .u64(*peer_addr),
            NetEvent::Data { sock, data } => Writer::frame(out, E_DATA, 0)
                .u64(*sock)
                .bytes(data.as_ref()),
            NetEvent::Closed { sock } => Writer::frame(out, E_CLOSED, 0).u64(*sock),
        }
        .finish()
    }
}

impl<'a> NetEvent<&'a [u8]> {
    /// Decodes an event frame in place: a `Data` payload is lent from
    /// `buf`, not copied.
    pub fn decode_borrowed(buf: &'a [u8]) -> Result<Self, ProtoError> {
        let f = decode_frame(buf)?;
        let mut r = Reader::new(f.body);
        let ev = match f.msg_type {
            E_ACCEPTED => NetEvent::Accepted {
                listen: r.u64()?,
                conn: r.u64()?,
                peer_addr: r.u64()?,
            },
            E_DATA => NetEvent::Data {
                sock: r.u64()?,
                data: r.bytes_borrowed()?,
            },
            E_CLOSED => NetEvent::Closed { sock: r.u64()? },
            _ => return Err(ProtoError::BadType),
        };
        r.finish()?;
        Ok(ev)
    }
}

impl NetEvent {
    /// Decodes an event frame, copying a `Data` payload out.
    pub fn decode(buf: &[u8]) -> Result<NetEvent, ProtoError> {
        Ok(match NetEvent::decode_borrowed(buf)? {
            NetEvent::Accepted {
                listen,
                conn,
                peer_addr,
            } => NetEvent::Accepted {
                listen,
                conn,
                peer_addr,
            },
            NetEvent::Data { sock, data } => NetEvent::Data {
                sock,
                data: data.to_vec(),
            },
            NetEvent::Closed { sock } => NetEvent::Closed { sock },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_ten_requests_roundtrip() {
        let reqs = vec![
            NetRequest::Socket,
            NetRequest::Bind {
                sock: 1,
                port: 8080,
            },
            NetRequest::Listen {
                sock: 1,
                backlog: 128,
            },
            NetRequest::Accept { sock: 1 },
            NetRequest::Connect {
                sock: 2,
                addr: 0xC0A80001,
                port: 80,
            },
            NetRequest::Send {
                sock: 2,
                data: vec![1, 2, 3],
            },
            NetRequest::Recv {
                sock: 2,
                max: 65536,
            },
            NetRequest::Close { sock: 2 },
            NetRequest::Setsockopt {
                sock: 1,
                opt: 7,
                val: 1,
            },
            NetRequest::Shutdown { sock: 2, how: 2 },
        ];
        assert_eq!(reqs.len(), 10, "the paper defines exactly ten socket RPCs");
        for (i, req) in reqs.into_iter().enumerate() {
            let buf = req.encode(i as u32);
            let (tag, got) = NetRequest::decode(&buf).unwrap();
            assert_eq!(tag, i as u32);
            assert_eq!(got, req);
            // Appending to a buffer in use yields the same bytes.
            let mut appended = b"earlier frame".to_vec();
            req.encode_into(i as u32, &mut appended);
            assert_eq!(appended[13..], buf);
        }
    }

    #[test]
    fn responses_roundtrip() {
        for resp in [
            NetResponse::Socket { sock: 9 },
            NetResponse::Accepted {
                conn: 10,
                peer_addr: 1,
            },
            NetResponse::Sent { count: 4096 },
            NetResponse::Data { data: vec![0; 64] },
            NetResponse::Ok,
            NetResponse::Error {
                err: RpcErr::ConnRefused,
            },
        ] {
            let buf = resp.encode(3);
            let (tag, got) = NetResponse::decode(&buf).unwrap();
            assert_eq!(tag, 3);
            assert_eq!(got, resp);
            let mut appended = b"earlier frame".to_vec();
            resp.encode_into(3, &mut appended);
            assert_eq!(appended[13..], buf);
        }
    }

    #[test]
    fn events_roundtrip() {
        for ev in [
            NetEvent::Accepted {
                listen: 1,
                conn: 5,
                peer_addr: 77,
            },
            NetEvent::Data {
                sock: 5,
                data: b"ping".to_vec(),
            },
            NetEvent::Data {
                sock: 5,
                data: vec![],
            },
            NetEvent::Closed { sock: 5 },
        ] {
            let buf = ev.encode();
            assert_eq!(NetEvent::decode(&buf).unwrap(), ev);
            let mut appended = b"earlier frame".to_vec();
            ev.encode_into(&mut appended);
            assert_eq!(appended[13..], buf);
        }
    }

    #[test]
    fn borrowed_send_encodes_the_same_frame() {
        let owned = NetRequest::Send {
            sock: 9,
            data: vec![7; 200],
        };
        let mut borrowed = Vec::new();
        NetRequest::encode_send_into(4, 9, &[7; 200], &mut borrowed);
        assert_eq!(borrowed, owned.encode(4));
    }

    #[test]
    fn borrowed_data_event_is_the_owned_one_in_place() {
        let owned = NetEvent::Data {
            sock: 5,
            data: vec![3; 64],
        };
        let borrowed = NetEvent::Data {
            sock: 5,
            data: &[3u8; 64][..],
        };
        let frame = borrowed.encode();
        assert_eq!(frame, owned.encode());
        assert_eq!(NetEvent::decode_borrowed(&frame), Ok(borrowed));
        let accepted = NetEvent::<&[u8]>::Accepted {
            listen: 1,
            conn: 2,
            peer_addr: 3,
        };
        assert_eq!(NetEvent::decode_borrowed(&accepted.encode()), Ok(accepted));
    }

    #[test]
    fn cross_family_frames_rejected() {
        let fsreq = crate::fs_msg::FsRequest::Fsync { ino: 1 }.encode(0);
        assert_eq!(NetRequest::decode(&fsreq), Err(ProtoError::BadType));
        let netreq = NetRequest::Socket.encode(0);
        assert_eq!(NetEvent::decode(&netreq), Err(ProtoError::BadType));
    }
}
