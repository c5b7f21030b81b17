//! File-system RPC messages (9P-flavoured, §5).
//!
//! `Read` and `Write` are the paper's extended `Tread`/`Twrite`: instead of
//! carrying file data, they carry the *address* of co-processor memory
//! (`buf_addr`, an offset into the co-processor's exported data window).
//! The proxy programs the NVMe DMA engine (or its own host DMA in buffered
//! mode) to move the data — the RPC ring only ever carries control
//! messages, which is the zero-copy property.

use crate::codec::{decode_frame, ProtoError, Reader, Writer};
use crate::rpc_error::RpcErr;

/// Requests sent by the data-plane FS stub.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsRequest {
    /// Open (optionally create/truncate) a file.
    Open {
        /// Absolute path.
        path: String,
        /// Create if missing.
        create: bool,
        /// Truncate on open.
        truncate: bool,
        /// Force buffered I/O (the paper's `O_BUFFER`).
        buffered: bool,
    },
    /// Create a file.
    Create {
        /// Absolute path.
        path: String,
    },
    /// Extended Tread: read into co-processor memory at `buf_addr`.
    Read {
        /// Target inode.
        ino: u64,
        /// Byte offset.
        offset: u64,
        /// Byte count.
        count: u64,
        /// Destination offset in the co-processor data window.
        buf_addr: u64,
    },
    /// Extended Twrite: write from co-processor memory at `buf_addr`.
    Write {
        /// Target inode.
        ino: u64,
        /// Byte offset.
        offset: u64,
        /// Byte count.
        count: u64,
        /// Source offset in the co-processor data window.
        buf_addr: u64,
    },
    /// Stat by path.
    Stat {
        /// Absolute path.
        path: String,
    },
    /// Stat by inode.
    Fstat {
        /// Inode.
        ino: u64,
    },
    /// Unlink a file or empty directory.
    Unlink {
        /// Absolute path.
        path: String,
    },
    /// Create a directory.
    Mkdir {
        /// Absolute path.
        path: String,
    },
    /// List a directory.
    Readdir {
        /// Absolute path.
        path: String,
    },
    /// Rename.
    Rename {
        /// Source path.
        from: String,
        /// Destination path.
        to: String,
    },
    /// Truncate to a size.
    Truncate {
        /// Inode.
        ino: u64,
        /// New size.
        size: u64,
    },
    /// Flush metadata.
    Fsync {
        /// Inode.
        ino: u64,
    },
    /// Acquire an extent lease over a file range (the split data path):
    /// on success the stub reads/writes the range against the NVMe
    /// queues directly, with zero per-op RPCs.
    LeaseAcquire {
        /// Target inode.
        ino: u64,
        /// Byte offset of the requested range (block aligned).
        offset: u64,
        /// Byte length of the requested range.
        len: u64,
        /// True for a write (exclusive) lease, false for read (shared).
        write: bool,
    },
    /// Voluntarily release a lease, reporting how far leased writes
    /// extended the file.
    LeaseRelease {
        /// Lease id from the grant.
        id: u64,
        /// Highest byte offset written under the lease (0 if none).
        written_end: u64,
    },
    /// Acknowledge a recall: the holder has flushed in-flight leased
    /// writes and stopped using the mapping.
    LeaseRecallAck {
        /// Lease id from the grant.
        id: u64,
        /// Highest byte offset written under the lease (0 if none).
        written_end: u64,
    },
}

const T_OPEN: u8 = 10;
const T_CREATE: u8 = 11;
const T_READ: u8 = 12;
const T_WRITE: u8 = 13;
const T_STAT: u8 = 14;
const T_FSTAT: u8 = 15;
const T_UNLINK: u8 = 16;
const T_MKDIR: u8 = 17;
const T_READDIR: u8 = 18;
const T_RENAME: u8 = 19;
const T_TRUNCATE: u8 = 20;
const T_FSYNC: u8 = 21;
const T_LEASE_ACQ: u8 = 22;
const T_LEASE_REL: u8 = 23;
const T_LEASE_ACK: u8 = 24;

impl FsRequest {
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
            FsRequest::Open {
                path,
                create,
                truncate,
                buffered,
            } => Writer::frame(out, T_OPEN, tag)
                .string(path)
                .u8(*create as u8)
                .u8(*truncate as u8)
                .u8(*buffered as u8),
            FsRequest::Create { path } => Writer::frame(out, T_CREATE, tag).string(path),
            FsRequest::Read {
                ino,
                offset,
                count,
                buf_addr,
            } => Writer::frame(out, T_READ, tag)
                .u64(*ino)
                .u64(*offset)
                .u64(*count)
                .u64(*buf_addr),
            FsRequest::Write {
                ino,
                offset,
                count,
                buf_addr,
            } => Writer::frame(out, T_WRITE, tag)
                .u64(*ino)
                .u64(*offset)
                .u64(*count)
                .u64(*buf_addr),
            FsRequest::Stat { path } => Writer::frame(out, T_STAT, tag).string(path),
            FsRequest::Fstat { ino } => Writer::frame(out, T_FSTAT, tag).u64(*ino),
            FsRequest::Unlink { path } => Writer::frame(out, T_UNLINK, tag).string(path),
            FsRequest::Mkdir { path } => Writer::frame(out, T_MKDIR, tag).string(path),
            FsRequest::Readdir { path } => Writer::frame(out, T_READDIR, tag).string(path),
            FsRequest::Rename { from, to } => {
                Writer::frame(out, T_RENAME, tag).string(from).string(to)
            }
            FsRequest::Truncate { ino, size } => {
                Writer::frame(out, T_TRUNCATE, tag).u64(*ino).u64(*size)
            }
            FsRequest::Fsync { ino } => Writer::frame(out, T_FSYNC, tag).u64(*ino),
            FsRequest::LeaseAcquire {
                ino,
                offset,
                len,
                write,
            } => Writer::frame(out, T_LEASE_ACQ, tag)
                .u64(*ino)
                .u64(*offset)
                .u64(*len)
                .u8(*write as u8),
            FsRequest::LeaseRelease { id, written_end } => Writer::frame(out, T_LEASE_REL, tag)
                .u64(*id)
                .u64(*written_end),
            FsRequest::LeaseRecallAck { id, written_end } => Writer::frame(out, T_LEASE_ACK, tag)
                .u64(*id)
                .u64(*written_end),
        }
        .finish()
    }

    /// Decodes a request frame, returning `(tag, request)`.
    pub fn decode(buf: &[u8]) -> Result<(u32, FsRequest), ProtoError> {
        let f = decode_frame(buf)?;
        Ok((f.tag, Self::from_frame(&f)?))
    }

    /// Decodes the request body of an already-parsed frame, so admission
    /// paths that need the header metadata parse each frame exactly once.
    pub fn from_frame(f: &crate::codec::Frame<'_>) -> Result<FsRequest, ProtoError> {
        let mut r = Reader::new(f.body);
        let req = match f.msg_type {
            T_OPEN => {
                let path = r.string()?;
                let create = r.u8()? != 0;
                let truncate = r.u8()? != 0;
                let buffered = r.u8()? != 0;
                FsRequest::Open {
                    path,
                    create,
                    truncate,
                    buffered,
                }
            }
            T_CREATE => FsRequest::Create { path: r.string()? },
            T_READ => FsRequest::Read {
                ino: r.u64()?,
                offset: r.u64()?,
                count: r.u64()?,
                buf_addr: r.u64()?,
            },
            T_WRITE => FsRequest::Write {
                ino: r.u64()?,
                offset: r.u64()?,
                count: r.u64()?,
                buf_addr: r.u64()?,
            },
            T_STAT => FsRequest::Stat { path: r.string()? },
            T_FSTAT => FsRequest::Fstat { ino: r.u64()? },
            T_UNLINK => FsRequest::Unlink { path: r.string()? },
            T_MKDIR => FsRequest::Mkdir { path: r.string()? },
            T_READDIR => FsRequest::Readdir { path: r.string()? },
            T_RENAME => FsRequest::Rename {
                from: r.string()?,
                to: r.string()?,
            },
            T_TRUNCATE => FsRequest::Truncate {
                ino: r.u64()?,
                size: r.u64()?,
            },
            T_FSYNC => FsRequest::Fsync { ino: r.u64()? },
            T_LEASE_ACQ => FsRequest::LeaseAcquire {
                ino: r.u64()?,
                offset: r.u64()?,
                len: r.u64()?,
                write: r.u8()? != 0,
            },
            T_LEASE_REL => FsRequest::LeaseRelease {
                id: r.u64()?,
                written_end: r.u64()?,
            },
            T_LEASE_ACK => FsRequest::LeaseRecallAck {
                id: r.u64()?,
                written_end: r.u64()?,
            },
            _ => return Err(ProtoError::BadType),
        };
        r.finish()?;
        Ok(req)
    }
}

/// Replies sent by the control-plane FS proxy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FsResponse {
    /// Open succeeded.
    Open {
        /// Inode.
        ino: u64,
        /// Current size.
        size: u64,
    },
    /// Create succeeded.
    Create {
        /// Inode.
        ino: u64,
    },
    /// Read completed; data already placed in co-processor memory.
    Read {
        /// Bytes actually read.
        count: u64,
    },
    /// Write completed.
    Write {
        /// Bytes written.
        count: u64,
    },
    /// Stat result.
    Stat {
        /// Inode.
        ino: u64,
        /// Directory flag.
        is_dir: bool,
        /// Size in bytes.
        size: u64,
    },
    /// Directory listing.
    Readdir {
        /// Sorted entry names.
        names: Vec<String>,
    },
    /// Generic success (unlink/mkdir/rename/truncate/fsync).
    Ok,
    /// Mkdir success with inode.
    Mkdir {
        /// Inode.
        ino: u64,
    },
    /// Lease granted: the pre-resolved NVMe extents covering the range,
    /// stamped with the generation the stub must check on every leased op.
    LeaseGrant {
        /// Lease id (echoed on release/recall-ack).
        id: u64,
        /// Generation at grant; a mismatch on the stub's mapped control
        /// page means the mapping is stale and must not be used.
        generation: u64,
        /// Readable end of the file at grant time (byte offset).
        data_end: u64,
        /// Extents as `(start_lba, block_count)` pairs, in range order.
        extents: Vec<(u64, u32)>,
    },
    /// Failure.
    Error {
        /// Error code.
        err: RpcErr,
    },
}

const R_OPEN: u8 = 110;
const R_CREATE: u8 = 111;
const R_READ: u8 = 112;
const R_WRITE: u8 = 113;
const R_STAT: u8 = 114;
const R_READDIR: u8 = 118;
const R_OK: u8 = 120;
const R_MKDIR: u8 = 117;
const R_LEASE: u8 = 121;
const R_ERROR: u8 = 127;

impl FsResponse {
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
            FsResponse::Open { ino, size } => Writer::frame(out, R_OPEN, tag).u64(*ino).u64(*size),
            FsResponse::Create { ino } => Writer::frame(out, R_CREATE, tag).u64(*ino),
            FsResponse::Read { count } => Writer::frame(out, R_READ, tag).u64(*count),
            FsResponse::Write { count } => Writer::frame(out, R_WRITE, tag).u64(*count),
            FsResponse::Stat { ino, is_dir, size } => Writer::frame(out, R_STAT, tag)
                .u64(*ino)
                .u8(*is_dir as u8)
                .u64(*size),
            FsResponse::Readdir { names } => names.iter().fold(
                Writer::frame(out, R_READDIR, tag).u32(names.len() as u32),
                |w, n| w.string(n),
            ),
            FsResponse::Ok => Writer::frame(out, R_OK, tag),
            FsResponse::Mkdir { ino } => Writer::frame(out, R_MKDIR, tag).u64(*ino),
            FsResponse::LeaseGrant {
                id,
                generation,
                data_end,
                extents,
            } => extents.iter().fold(
                Writer::frame(out, R_LEASE, tag)
                    .u64(*id)
                    .u64(*generation)
                    .u64(*data_end)
                    .u32(extents.len() as u32),
                |w, (start, blocks)| w.u64(*start).u32(*blocks),
            ),
            FsResponse::Error { err } => Writer::frame(out, R_ERROR, tag).u32(err.code()),
        }
        .finish()
    }

    /// Decodes a reply frame, returning `(tag, response)`.
    pub fn decode(buf: &[u8]) -> Result<(u32, FsResponse), ProtoError> {
        let f = decode_frame(buf)?;
        let mut r = Reader::new(f.body);
        let resp = match f.msg_type {
            R_OPEN => FsResponse::Open {
                ino: r.u64()?,
                size: r.u64()?,
            },
            R_CREATE => FsResponse::Create { ino: r.u64()? },
            R_READ => FsResponse::Read { count: r.u64()? },
            R_WRITE => FsResponse::Write { count: r.u64()? },
            R_STAT => FsResponse::Stat {
                ino: r.u64()?,
                is_dir: r.u8()? != 0,
                size: r.u64()?,
            },
            R_READDIR => {
                let n = r.u32()? as usize;
                if n > 1_000_000 {
                    return Err(ProtoError::Malformed);
                }
                let mut names = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    names.push(r.string()?);
                }
                FsResponse::Readdir { names }
            }
            R_OK => FsResponse::Ok,
            R_MKDIR => FsResponse::Mkdir { ino: r.u64()? },
            R_LEASE => {
                let id = r.u64()?;
                let generation = r.u64()?;
                let data_end = r.u64()?;
                let n = r.u32()? as usize;
                if n > 1_000_000 {
                    return Err(ProtoError::Malformed);
                }
                let mut extents = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    extents.push((r.u64()?, r.u32()?));
                }
                FsResponse::LeaseGrant {
                    id,
                    generation,
                    data_end,
                    extents,
                }
            }
            R_ERROR => FsResponse::Error {
                err: RpcErr::from_code(r.u32()?).ok_or(ProtoError::Malformed)?,
            },
            _ => return Err(ProtoError::BadType),
        };
        r.finish()?;
        Ok((f.tag, resp))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req_roundtrip(req: FsRequest) {
        let buf = req.encode(42);
        let (tag, got) = FsRequest::decode(&buf).unwrap();
        assert_eq!(tag, 42);
        assert_eq!(got, req);
        // Appending to a buffer in use yields the same bytes.
        let mut appended = b"earlier frame".to_vec();
        req.encode_into(42, &mut appended);
        assert_eq!(appended[13..], buf);
    }

    fn resp_roundtrip(resp: FsResponse) {
        let buf = resp.encode(7);
        let (tag, got) = FsResponse::decode(&buf).unwrap();
        assert_eq!(tag, 7);
        assert_eq!(got, resp);
        let mut appended = b"earlier frame".to_vec();
        resp.encode_into(7, &mut appended);
        assert_eq!(appended[13..], buf);
    }

    #[test]
    fn all_requests_roundtrip() {
        req_roundtrip(FsRequest::Open {
            path: "/a/b".into(),
            create: true,
            truncate: false,
            buffered: true,
        });
        req_roundtrip(FsRequest::Create { path: "/x".into() });
        req_roundtrip(FsRequest::Read {
            ino: 3,
            offset: 1 << 33,
            count: 4096,
            buf_addr: 64,
        });
        req_roundtrip(FsRequest::Write {
            ino: 3,
            offset: 0,
            count: 1,
            buf_addr: 1 << 20,
        });
        req_roundtrip(FsRequest::Stat { path: "/s".into() });
        req_roundtrip(FsRequest::Fstat { ino: 9 });
        req_roundtrip(FsRequest::Unlink { path: "/u".into() });
        req_roundtrip(FsRequest::Mkdir { path: "/d".into() });
        req_roundtrip(FsRequest::Readdir { path: "/".into() });
        req_roundtrip(FsRequest::Rename {
            from: "/a".into(),
            to: "/b".into(),
        });
        req_roundtrip(FsRequest::Truncate { ino: 1, size: 0 });
        req_roundtrip(FsRequest::Fsync { ino: 2 });
        req_roundtrip(FsRequest::LeaseAcquire {
            ino: 5,
            offset: 8192,
            len: 1 << 20,
            write: true,
        });
        req_roundtrip(FsRequest::LeaseRelease {
            id: 77,
            written_end: 4096,
        });
        req_roundtrip(FsRequest::LeaseRecallAck {
            id: 78,
            written_end: 0,
        });
    }

    #[test]
    fn all_responses_roundtrip() {
        resp_roundtrip(FsResponse::Open { ino: 1, size: 2 });
        resp_roundtrip(FsResponse::Create { ino: 3 });
        resp_roundtrip(FsResponse::Read { count: 512 });
        resp_roundtrip(FsResponse::Write { count: 512 });
        resp_roundtrip(FsResponse::Stat {
            ino: 4,
            is_dir: true,
            size: 0,
        });
        resp_roundtrip(FsResponse::Readdir {
            names: vec!["a".into(), "bb".into()],
        });
        resp_roundtrip(FsResponse::Readdir { names: vec![] });
        resp_roundtrip(FsResponse::Ok);
        resp_roundtrip(FsResponse::Mkdir { ino: 5 });
        resp_roundtrip(FsResponse::LeaseGrant {
            id: 9,
            generation: 3,
            data_end: 123_456,
            extents: vec![(100, 32), (4000, 1)],
        });
        resp_roundtrip(FsResponse::LeaseGrant {
            id: 10,
            generation: 1,
            data_end: 0,
            extents: vec![],
        });
        for err in RpcErr::all() {
            resp_roundtrip(FsResponse::Error { err });
        }
    }

    #[test]
    fn bad_type_rejected() {
        let buf = crate::codec::encode_frame(200, 0, &[]);
        assert_eq!(FsRequest::decode(&buf), Err(ProtoError::BadType));
        let buf = crate::codec::encode_frame(5, 0, &[]);
        assert_eq!(FsResponse::decode(&buf), Err(ProtoError::BadType));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = FsRequest::Fsync { ino: 1 }.encode(0);
        // Grow the body and fix the length prefix.
        buf.push(0);
        let n = (buf.len() - crate::codec::HEADER_LEN) as u32;
        buf[0..4].copy_from_slice(&n.to_le_bytes());
        assert_eq!(FsRequest::decode(&buf), Err(ProtoError::Malformed));
    }
}
