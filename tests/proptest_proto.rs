//! Property-based tests for the RPC wire protocol: arbitrary messages
//! round-trip exactly, and arbitrary bytes never panic the decoder.

use solros_proto::fs_msg::{FsRequest, FsResponse};
use solros_proto::net_msg::{NetEvent, NetRequest, NetResponse};
use solros_proto::rpc_error::RpcErr;
use solros_simkit::check::{self, vec};
use solros_simkit::DetRng;

/// `[a-z0-9/._-]{0,64}`.
fn path(rng: &mut DetRng) -> String {
    check::string(rng, b"abcdefghijklmnopqrstuvwxyz0123456789/._-", 0..65)
}

fn bytes(rng: &mut DetRng, len: std::ops::Range<usize>) -> Vec<u8> {
    vec(rng, len, |r| r.next_u64() as u8)
}

fn fs_request(rng: &mut DetRng) -> FsRequest {
    match rng.index(12) {
        0 => FsRequest::Open {
            path: path(rng),
            create: rng.chance(0.5),
            truncate: rng.chance(0.5),
            buffered: rng.chance(0.5),
        },
        1 => FsRequest::Create { path: path(rng) },
        2 => FsRequest::Read {
            ino: rng.next_u64(),
            offset: rng.next_u64(),
            count: rng.next_u64(),
            buf_addr: rng.next_u64(),
        },
        3 => FsRequest::Write {
            ino: rng.next_u64(),
            offset: rng.next_u64(),
            count: rng.next_u64(),
            buf_addr: rng.next_u64(),
        },
        4 => FsRequest::Stat { path: path(rng) },
        5 => FsRequest::Fstat {
            ino: rng.next_u64(),
        },
        6 => FsRequest::Unlink { path: path(rng) },
        7 => FsRequest::Mkdir { path: path(rng) },
        8 => FsRequest::Readdir { path: path(rng) },
        9 => FsRequest::Rename {
            from: path(rng),
            to: path(rng),
        },
        10 => FsRequest::Truncate {
            ino: rng.next_u64(),
            size: rng.next_u64(),
        },
        _ => FsRequest::Fsync {
            ino: rng.next_u64(),
        },
    }
}

fn net_request(rng: &mut DetRng) -> NetRequest {
    let sock = rng.next_u64();
    match rng.index(10) {
        0 => NetRequest::Socket,
        1 => NetRequest::Bind {
            sock,
            port: rng.next_u64() as u16,
        },
        2 => NetRequest::Listen {
            sock,
            backlog: rng.next_u64() as u32,
        },
        3 => NetRequest::Accept { sock },
        4 => NetRequest::Connect {
            sock,
            addr: rng.next_u64(),
            port: rng.next_u64() as u16,
        },
        5 => NetRequest::Send {
            sock,
            data: bytes(rng, 0..512),
        },
        6 => NetRequest::Recv {
            sock,
            max: rng.next_u64() as u32,
        },
        7 => NetRequest::Close { sock },
        8 => NetRequest::Setsockopt {
            sock,
            opt: rng.next_u64() as u32,
            val: rng.next_u64(),
        },
        _ => NetRequest::Shutdown {
            sock,
            how: rng.range(0..3) as u8,
        },
    }
}

const CASES: u64 = 256;

#[test]
fn fs_requests_roundtrip() {
    check::cases(CASES, |rng| {
        let req = fs_request(rng);
        let tag = rng.next_u64() as u32;
        let buf = req.encode(tag);
        let (t, got) = FsRequest::decode(&buf).unwrap();
        assert_eq!(t, tag);
        assert_eq!(got, req);
    });
}

#[test]
fn net_requests_roundtrip() {
    check::cases(CASES, |rng| {
        let req = net_request(rng);
        let tag = rng.next_u64() as u32;
        let buf = req.encode(tag);
        let (t, got) = NetRequest::decode(&buf).unwrap();
        assert_eq!(t, tag);
        assert_eq!(got, req);
    });
}

#[test]
fn responses_and_events_roundtrip() {
    check::cases(CASES, |rng| {
        let names = vec(rng, 0..8, |r| {
            check::string(r, b"abcdefghijklmnopqrstuvwxyz", 1..13)
        });
        let count = rng.next_u64();
        let data = bytes(rng, 0..256);
        let sock = rng.next_u64();
        for resp in [
            FsResponse::Open {
                ino: count,
                size: count ^ 7,
            },
            FsResponse::Read { count },
            FsResponse::Readdir {
                names: names.clone(),
            },
            FsResponse::Error {
                err: RpcErr::NoSpace,
            },
        ] {
            let buf = resp.encode(5);
            assert_eq!(FsResponse::decode(&buf).unwrap().1, resp);
        }
        for resp in [
            NetResponse::Data { data: data.clone() },
            NetResponse::Sent { count },
            NetResponse::Ok,
        ] {
            let buf = resp.encode(5);
            assert_eq!(NetResponse::decode(&buf).unwrap().1, resp);
        }
        for ev in [
            NetEvent::Data {
                sock,
                data: data.clone(),
            },
            NetEvent::Accepted {
                listen: sock,
                conn: sock ^ 1,
                peer_addr: count,
            },
            NetEvent::Closed { sock },
        ] {
            let buf = ev.encode();
            assert_eq!(NetEvent::decode(&buf).unwrap(), ev);
        }
    });
}

/// Arbitrary bytes never panic any decoder — they produce errors.
#[test]
fn fuzz_decoders_never_panic() {
    check::cases(CASES, |rng| {
        let bytes = bytes(rng, 0..256);
        let _ = FsRequest::decode(&bytes);
        let _ = FsResponse::decode(&bytes);
        let _ = NetRequest::decode(&bytes);
        let _ = NetResponse::decode(&bytes);
        let _ = NetEvent::decode(&bytes);
    });
}

/// Truncations of valid frames are always rejected, never misparsed.
#[test]
fn truncations_rejected() {
    check::cases(CASES, |rng| {
        let req = fs_request(rng);
        let cut = rng.range(1..16) as usize;
        let buf = req.encode(1);
        if cut < buf.len() {
            let truncated = &buf[..buf.len() - cut];
            assert!(FsRequest::decode(truncated).is_err());
        }
    });
}
