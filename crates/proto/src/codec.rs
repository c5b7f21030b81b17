//! Frame layout and encoding primitives.
//!
//! Every RPC message is one ring-buffer element:
//!
//! ```text
//! [u32 body_len][u8 msg_type][u32 tag][u8 credit][u8 flags][u8 tenant][body...]
//! ```
//!
//! The tag lets many co-processor threads share one request ring: the stub
//! assigns a fresh tag per call and the proxy echoes it in the reply.
//!
//! The credit byte carries QoS backpressure grants piggybacked on replies:
//! a proxy stamps how many new in-flight request slots the stub may use.
//! Requests and pre-QoS peers leave it zero, which grants nothing and is
//! ignored by receivers that do not participate in flow control.
//!
//! The flags byte marks submission-ordering constraints on requests
//! ([`FLAG_BARRIER`]); the tenant byte identifies the submitting tenant
//! for per-tenant QoS accounting. Both default to zero, which preserves
//! pre-pipeline behaviour bit-for-bit apart from the two header bytes.

/// Frame header length in bytes.
pub const HEADER_LEN: usize = 4 + 1 + 4 + 1 + 1 + 1;

/// Byte offset of the credit field inside the header.
const CREDIT_OFFSET: usize = 9;

/// Byte offset of the flags field inside the header.
const FLAGS_OFFSET: usize = 10;

/// Byte offset of the tenant field inside the header.
const TENANT_OFFSET: usize = 11;

/// Flags-byte bit: this request is a barrier — the proxy must complete
/// every previously submitted request from this ring before executing it,
/// and must not start later requests until it completes.
pub const FLAG_BARRIER: u8 = 1 << 0;

/// Shift of the deadline-class nibble inside the flags byte.
///
/// Bits 4–7 of the flags byte carry a 4-bit *deadline class*: 0 means "no
/// deadline", class `k` (1–15) means the submitter expects a reply within
/// [`DEADLINE_BASE_US`]` << (k - 1)` microseconds. Packing the deadline
/// into the existing flags path keeps the wire format and header length
/// unchanged: peers that ignore deadlines see only a nonzero flags byte,
/// which they already pass through untouched.
pub const DEADLINE_SHIFT: u8 = 4;

/// Mask of the deadline-class nibble inside the flags byte.
pub const DEADLINE_MASK: u8 = 0xF0;

/// Deadline of class 1 in microseconds; each class doubles it.
pub const DEADLINE_BASE_US: u64 = 250;

/// Maps a requested deadline to the smallest class covering it (the
/// on-wire deadline rounds *up*, so a peer honoring the class never fires
/// earlier than the submitter asked). Durations beyond class 15
/// (~4.1 s) clamp to class 15; zero means "no deadline" (class 0).
pub fn deadline_class(deadline: std::time::Duration) -> u8 {
    let us = deadline.as_micros() as u64;
    if us == 0 {
        return 0;
    }
    let mut class = 1u8;
    let mut cover = DEADLINE_BASE_US;
    while cover < us && class < 15 {
        cover *= 2;
        class += 1;
    }
    class
}

/// Inverse of [`deadline_class`]: the duration a class encodes, or `None`
/// for class 0 / a flags byte with no deadline nibble set.
pub fn deadline_duration(class: u8) -> Option<std::time::Duration> {
    let class = class & 0xF;
    if class == 0 {
        None
    } else {
        Some(std::time::Duration::from_micros(
            DEADLINE_BASE_US << (class - 1),
        ))
    }
}

/// Extracts the deadline carried by a frame's flags byte, if any.
pub fn flags_deadline(flags: u8) -> Option<std::time::Duration> {
    deadline_duration(flags >> DEADLINE_SHIFT)
}

/// Packs a deadline class into a flags byte, preserving the low bits.
pub fn flags_with_deadline(flags: u8, class: u8) -> u8 {
    (flags & !DEADLINE_MASK) | ((class & 0xF) << DEADLINE_SHIFT)
}

/// Maximum accepted string length (paths, names) on the wire.
pub const MAX_STR: usize = 4096;

/// Decode errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtoError {
    /// Frame shorter than its header or declared body length.
    Truncated,
    /// Unknown message type byte.
    BadType,
    /// Malformed body (bad string, bad enum code, trailing bytes).
    Malformed,
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Truncated => write!(f, "truncated frame"),
            ProtoError::BadType => write!(f, "unknown message type"),
            ProtoError::Malformed => write!(f, "malformed message body"),
        }
    }
}

impl std::error::Error for ProtoError {}

/// A decoded frame: type byte, tag, credit grant, submission flags,
/// tenant id, and body slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Message type discriminator.
    pub msg_type: u8,
    /// Caller-chosen tag echoed in the reply.
    pub tag: u32,
    /// QoS credit grant piggybacked on a reply (0 = none).
    pub credit: u8,
    /// Submission flags on a request ([`FLAG_BARRIER`]); 0 = unordered.
    pub flags: u8,
    /// Tenant id of the submitting data plane (0 = default tenant).
    pub tenant: u8,
    /// Message body.
    pub body: &'a [u8],
}

/// Encodes a frame with no credit grant, no flags, default tenant.
pub fn encode_frame(msg_type: u8, tag: u32, body: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    Writer::frame(&mut out, msg_type, tag).raw(body).finish();
    out
}

/// Stamps a credit grant into an already-encoded frame, in place.
///
/// Proxies use this to piggyback backpressure grants on replies built by
/// the regular encode paths without re-serializing the body.
pub fn stamp_credit(frame: &mut [u8], credit: u8) {
    assert!(frame.len() >= HEADER_LEN, "not a frame");
    frame[CREDIT_OFFSET] = credit;
}

/// Stamps submission flags into an already-encoded frame, in place.
pub fn stamp_flags(frame: &mut [u8], flags: u8) {
    assert!(frame.len() >= HEADER_LEN, "not a frame");
    frame[FLAGS_OFFSET] = flags;
}

/// Stamps the tenant id into an already-encoded frame, in place.
pub fn stamp_tenant(frame: &mut [u8], tenant: u8) {
    assert!(frame.len() >= HEADER_LEN, "not a frame");
    frame[TENANT_OFFSET] = tenant;
}

/// Best-effort tag recovery from a frame whose header bytes are present
/// even if the rest fails validation. Malformed-frame error replies use
/// this so they stay routable to the submitter's pending entry instead
/// of going out with a dead tag.
pub fn peek_tag(buf: &[u8]) -> Option<u32> {
    if buf.len() < HEADER_LEN {
        return None;
    }
    Some(u32::from_le_bytes(buf[5..9].try_into().expect("4 bytes")))
}

/// Decodes and validates a frame.
pub fn decode_frame(buf: &[u8]) -> Result<Frame<'_>, ProtoError> {
    if buf.len() < HEADER_LEN {
        return Err(ProtoError::Truncated);
    }
    let body_len = u32::from_le_bytes(buf[0..4].try_into().expect("4 bytes")) as usize;
    let msg_type = buf[4];
    let tag = u32::from_le_bytes(buf[5..9].try_into().expect("4 bytes"));
    let credit = buf[CREDIT_OFFSET];
    let flags = buf[FLAGS_OFFSET];
    let tenant = buf[TENANT_OFFSET];
    if buf.len() != HEADER_LEN + body_len {
        return Err(ProtoError::Truncated);
    }
    Ok(Frame {
        msg_type,
        tag,
        credit,
        flags,
        tenant,
        body: &buf[HEADER_LEN..],
    })
}

/// Body reader with bounds-checked accessors.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wraps a body slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Splits `len` bytes off the front, or fails leaving the body as is.
    fn take(&mut self, len: usize) -> Result<&'a [u8], ProtoError> {
        if self.buf.len() < len {
            return Err(ProtoError::Malformed);
        }
        let (head, rest) = self.buf.split_at(len);
        self.buf = rest;
        Ok(head)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, ProtoError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, ProtoError> {
        let b = self.take(4)?.try_into().expect("4 bytes");
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, ProtoError> {
        let b = self.take(8)?.try_into().expect("8 bytes");
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a length-prefixed UTF-8 string (≤ [`MAX_STR`]).
    pub fn string(&mut self) -> Result<String, ProtoError> {
        let len = self.u32()? as usize;
        if len > MAX_STR {
            return Err(ProtoError::Malformed);
        }
        let s = std::str::from_utf8(self.take(len)?).map_err(|_| ProtoError::Malformed)?;
        Ok(s.to_string())
    }

    /// Reads a length-prefixed byte blob where it lies in the body.
    pub fn bytes_borrowed(&mut self) -> Result<&'a [u8], ProtoError> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed byte blob into a fresh vector.
    pub fn bytes(&mut self) -> Result<Vec<u8>, ProtoError> {
        self.bytes_borrowed().map(<[u8]>::to_vec)
    }

    /// Asserts the body is fully consumed.
    pub fn finish(self) -> Result<(), ProtoError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(ProtoError::Malformed)
        }
    }
}

/// Bytes a frame's first write into a fresh vector reserves: the header
/// plus every fixed-size body and a small payload, so those are encoded
/// with one allocation — none when the buffer is reused.
const FRAME_RESERVE: usize = 128;

/// Frame writer: builds one frame, header included, at the end of a
/// caller-owned buffer. The bytes are written once, where they stay.
pub struct Writer<'a> {
    out: &'a mut Vec<u8>,
    /// Offset of this frame's header inside `out`.
    start: usize,
}

impl<'a> Writer<'a> {
    /// Appends a header (no credit grant, no flags, default tenant) to
    /// `out`; the body length is filled in by [`Writer::finish`].
    pub fn frame(out: &'a mut Vec<u8>, msg_type: u8, tag: u32) -> Self {
        let start = out.len();
        if out.capacity() == 0 {
            out.reserve(FRAME_RESERVE);
        }
        out.extend_from_slice(&[0; 4]);
        out.push(msg_type);
        out.extend_from_slice(&tag.to_le_bytes());
        out.extend_from_slice(&[0; HEADER_LEN - CREDIT_OFFSET]);
        Self { out, start }
    }

    /// Writes a `u8`.
    pub fn u8(self, v: u8) -> Self {
        self.out.push(v);
        self
    }

    /// Writes a `u32`.
    pub fn u32(self, v: u32) -> Self {
        self.out.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a `u64`.
    pub fn u64(self, v: u64) -> Self {
        self.out.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a length-prefixed string.
    pub fn string(self, s: &str) -> Self {
        self.bytes(s.as_bytes())
    }

    /// Writes a length-prefixed byte blob.
    pub fn bytes(self, b: &[u8]) -> Self {
        self.u32(b.len() as u32).raw(b)
    }

    /// Writes bytes with no length prefix.
    pub fn raw(self, b: &[u8]) -> Self {
        self.out.extend_from_slice(b);
        self
    }

    /// Completes the frame by writing its body length into the header.
    pub fn finish(self) {
        let body_len = (self.out.len() - self.start - HEADER_LEN) as u32;
        self.out[self.start..self.start + 4].copy_from_slice(&body_len.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let f = encode_frame(7, 0xDEAD, b"body!");
        let d = decode_frame(&f).unwrap();
        assert_eq!(d.msg_type, 7);
        assert_eq!(d.tag, 0xDEAD);
        assert_eq!(d.credit, 0);
        assert_eq!(d.flags, 0);
        assert_eq!(d.tenant, 0);
        assert_eq!(d.body, b"body!");
    }

    #[test]
    fn credit_stamp_roundtrip() {
        let mut f = encode_frame(7, 42, b"payload");
        stamp_credit(&mut f, 9);
        let d = decode_frame(&f).unwrap();
        assert_eq!(d.credit, 9);
        assert_eq!(d.tag, 42);
        assert_eq!(d.body, b"payload");
    }

    #[test]
    fn flags_and_tenant_stamps_are_independent() {
        let mut f = encode_frame(3, 77, b"op");
        stamp_flags(&mut f, FLAG_BARRIER);
        stamp_tenant(&mut f, 5);
        stamp_credit(&mut f, 2);
        let d = decode_frame(&f).unwrap();
        assert_eq!(d.flags, FLAG_BARRIER);
        assert_eq!(d.tenant, 5);
        assert_eq!(d.credit, 2);
        assert_eq!(d.tag, 77);
        assert_eq!(d.msg_type, 3);
        assert_eq!(d.body, b"op");
    }

    #[test]
    fn deadline_class_roundtrip() {
        use std::time::Duration;
        assert_eq!(deadline_class(Duration::ZERO), 0);
        assert_eq!(deadline_duration(0), None);
        // Exact powers land on their own class.
        assert_eq!(deadline_class(Duration::from_micros(250)), 1);
        assert_eq!(deadline_class(Duration::from_micros(500)), 2);
        // In-between durations round *up* to the covering class.
        assert_eq!(deadline_class(Duration::from_micros(300)), 2);
        for class in 1u8..=15 {
            let d = deadline_duration(class).unwrap();
            assert_eq!(deadline_class(d), class);
            assert!(deadline_duration(class - 1).is_none_or(|p| p < d));
        }
        // Beyond the top class: clamp.
        assert_eq!(deadline_class(Duration::from_secs(3600)), 15);
    }

    #[test]
    fn deadline_rides_the_flags_byte() {
        let mut f = encode_frame(3, 9, b"op");
        let flags = flags_with_deadline(FLAG_BARRIER, 4);
        stamp_flags(&mut f, flags);
        let d = decode_frame(&f).unwrap();
        assert_eq!(d.flags & FLAG_BARRIER, FLAG_BARRIER, "low bits preserved");
        assert_eq!(
            flags_deadline(d.flags),
            Some(std::time::Duration::from_micros(2_000))
        );
        // No deadline nibble: nothing decoded.
        assert_eq!(flags_deadline(FLAG_BARRIER), None);
    }

    #[test]
    fn truncated_frames_rejected() {
        let f = encode_frame(1, 2, b"abcdef");
        assert_eq!(decode_frame(&f[..3]), Err(ProtoError::Truncated));
        assert_eq!(decode_frame(&f[..f.len() - 1]), Err(ProtoError::Truncated));
        // Extra trailing bytes are also rejected (length must be exact).
        let mut long = f.clone();
        long.push(0);
        assert_eq!(decode_frame(&long), Err(ProtoError::Truncated));
    }

    /// Every golden frame `crates/core/tests/wire_compat.rs` expects from
    /// the proxies, built by hand from the wire layout as that file does:
    /// each decodes to the reply it stands for and that reply encodes back
    /// to the same bytes.
    #[test]
    fn wire_compat_golden_frames_roundtrip() {
        use crate::fs_msg::FsResponse;
        use crate::net_msg::NetResponse;
        use crate::rpc_error::RpcErr;

        fn golden(msg_type: u8, tag: u32, credit: u8, body: &[u8]) -> Vec<u8> {
            let mut f = (body.len() as u32).to_le_bytes().to_vec();
            f.push(msg_type);
            f.extend_from_slice(&tag.to_le_bytes());
            f.extend_from_slice(&[credit, 0, 0]);
            f.extend_from_slice(body);
            f
        }
        let le =
            |words: &[u64]| -> Vec<u8> { words.iter().flat_map(|w| w.to_le_bytes()).collect() };

        let mut stat = le(&[3]);
        stat.push(0);
        stat.extend_from_slice(&le(&[5]));
        let mut lease = le(&[0, 1, 8192]);
        lease.extend_from_slice(&2u32.to_le_bytes());
        for (start, blocks) in [(40u64, 1u32), (97, 1)] {
            lease.extend_from_slice(&start.to_le_bytes());
            lease.extend_from_slice(&blocks.to_le_bytes());
        }
        let error = |err: RpcErr| FsResponse::Error { err };
        let fs = [
            (
                114,
                7,
                stat,
                FsResponse::Stat {
                    ino: 3,
                    is_dir: false,
                    size: 5,
                },
            ),
            (113, 8, le(&[4096]), FsResponse::Write { count: 4096 }),
            (120, 9, vec![], FsResponse::Ok),
            (
                121,
                20,
                lease,
                FsResponse::LeaseGrant {
                    id: 0,
                    generation: 1,
                    data_end: 8192,
                    extents: vec![(40, 1), (97, 1)],
                },
            ),
            (
                127,
                10,
                1u32.to_le_bytes().to_vec(),
                error(RpcErr::NotFound),
            ),
            (127, 23, 8u32.to_le_bytes().to_vec(), error(RpcErr::Invalid)),
        ];
        // Ungated replies carry no credit, gated ones the clamped window.
        for (msg_type, tag, body, reply) in fs {
            for credit in [0, 255] {
                let frame = golden(msg_type, tag, credit, &body);
                assert_eq!(decode_frame(&frame).unwrap().credit, credit);
                assert_eq!(FsResponse::decode(&frame).unwrap(), (tag, reply.clone()));
                let mut again = reply.encode(tag);
                stamp_credit(&mut again, credit);
                assert_eq!(again, frame, "{reply:?}");
            }
        }
        let not_found = NetResponse::Error {
            err: RpcErr::NotFound,
        };
        let net = [
            (140, 1, le(&[1]), NetResponse::Socket { sock: 1 }),
            (150, 2, vec![], NetResponse::Ok),
            (157, 3, 1u32.to_le_bytes().to_vec(), not_found),
            (145, 13, le(&[256]), NetResponse::Sent { count: 256 }),
        ];
        for (msg_type, tag, body, reply) in net {
            let frame = golden(msg_type, tag, 0, &body);
            assert_eq!(NetResponse::decode(&frame).unwrap(), (tag, reply.clone()));
            assert_eq!(reply.encode(tag), frame, "{reply:?}");
        }
    }

    /// The body a writer chain produces, cut out of its finished frame.
    fn body(write: impl FnOnce(Writer<'_>) -> Writer<'_>) -> Vec<u8> {
        let mut frame = Vec::new();
        write(Writer::frame(&mut frame, 1, 0)).finish();
        decode_frame(&frame).unwrap().body.to_vec()
    }

    #[test]
    fn reader_writer_roundtrip() {
        let body = body(|w| {
            w.u8(3)
                .u32(70_000)
                .u64(1 << 40)
                .string("/path/to/file")
                .bytes(&[9, 8, 7])
        });
        let mut r = Reader::new(&body);
        assert_eq!(r.u8().unwrap(), 3);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), 1 << 40);
        assert_eq!(r.string().unwrap(), "/path/to/file");
        assert_eq!(r.bytes().unwrap(), vec![9, 8, 7]);
        r.finish().unwrap();
    }

    #[test]
    fn writer_appends_after_existing_bytes() {
        let mut out = b"earlier".to_vec();
        Writer::frame(&mut out, 7, 0xDEAD).raw(b"body!").finish();
        assert_eq!(&out[..7], b"earlier");
        assert_eq!(out[7..], encode_frame(7, 0xDEAD, b"body!"));
        // A second frame in the same buffer patches its own header.
        let first_end = out.len();
        Writer::frame(&mut out, 8, 1).u64(5).finish();
        assert_eq!(decode_frame(&out[7..first_end]).unwrap().body, b"body!");
        assert_eq!(decode_frame(&out[first_end..]).unwrap().body.len(), 8);
    }

    #[test]
    fn reader_rejects_malformed() {
        let mut r = Reader::new(&[1]);
        assert_eq!(r.u32(), Err(ProtoError::Malformed));

        // String length exceeding the buffer.
        let bad = body(|w| w.u32(100));
        let mut r = Reader::new(&bad);
        assert_eq!(r.string(), Err(ProtoError::Malformed));

        // Invalid UTF-8.
        let bad = body(|w| w.u32(2).raw(&[0xFF, 0xFE]));
        let mut r = Reader::new(&bad);
        assert_eq!(r.string(), Err(ProtoError::Malformed));

        // Oversized string length.
        let huge = body(|w| w.u32(MAX_STR as u32 + 1).raw(&vec![b'a'; MAX_STR + 1]));
        let mut r = Reader::new(&huge);
        assert_eq!(r.string(), Err(ProtoError::Malformed));

        // Trailing garbage.
        let extra = body(|w| w.u8(1).u8(0));
        let mut r = Reader::new(&extra);
        r.u8().unwrap();
        assert_eq!(r.finish(), Err(ProtoError::Malformed));
    }
}
