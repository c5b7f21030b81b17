//! Single-decode admission type for the shared proxy engine.
//!
//! The engine drains raw frames from a request ring and must know the
//! header metadata (tag, flags, tenant) *and* the parsed request before
//! it can classify the work for QoS. Historically the QoS path peeked at
//! the tenant byte with one `decode_frame` and the handler re-decoded the
//! whole frame a second time. [`AdmittedFrame`] parses the frame exactly
//! once and carries both halves through the scheduler.

use crate::codec::{decode_frame, Frame, ProtoError};
use crate::{FsRequest, NetRequest};

/// A request family the proxy engine can admit: decodable from an
/// already-parsed [`Frame`] without touching the raw bytes again.
pub trait AdmitRequest: Sized {
    /// Decodes the request carried by `frame`'s body.
    fn from_frame(frame: &Frame<'_>) -> Result<Self, ProtoError>;
}

impl AdmitRequest for FsRequest {
    fn from_frame(frame: &Frame<'_>) -> Result<Self, ProtoError> {
        FsRequest::from_frame(frame)
    }
}

impl AdmitRequest for NetRequest {
    fn from_frame(frame: &Frame<'_>) -> Result<Self, ProtoError> {
        NetRequest::from_frame(frame)
    }
}

/// A frame decoded exactly once at admission: the header metadata the
/// engine needs for routing plus the parsed request for the handler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdmittedFrame<R> {
    /// Caller-chosen tag echoed in the reply.
    pub tag: u32,
    /// Submission flags ([`crate::codec::FLAG_BARRIER`]).
    pub flags: u8,
    /// Tenant id of the submitting data plane.
    pub tenant: u8,
    /// The decoded request.
    pub req: R,
}

impl<R: AdmitRequest> AdmittedFrame<R> {
    /// Parses one raw frame into header metadata and request in a single
    /// pass.
    pub fn decode(buf: &[u8]) -> Result<Self, ProtoError> {
        let f = decode_frame(buf)?;
        Ok(Self {
            tag: f.tag,
            flags: f.flags,
            tenant: f.tenant,
            req: R::from_frame(&f)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{stamp_flags, stamp_tenant, FLAG_BARRIER};

    #[test]
    fn admits_fs_and_net_with_metadata() {
        let mut f = FsRequest::Fstat { ino: 9 }.encode(41);
        stamp_flags(&mut f, FLAG_BARRIER);
        stamp_tenant(&mut f, 3);
        let a: AdmittedFrame<FsRequest> = AdmittedFrame::decode(&f).unwrap();
        assert_eq!(a.tag, 41);
        assert_eq!(a.flags, FLAG_BARRIER);
        assert_eq!(a.tenant, 3);
        assert_eq!(a.req, FsRequest::Fstat { ino: 9 });

        let f = NetRequest::Recv { sock: 7, max: 64 }.encode(8);
        let a: AdmittedFrame<NetRequest> = AdmittedFrame::decode(&f).unwrap();
        assert_eq!(a.tag, 8);
        assert_eq!((a.flags, a.tenant), (0, 0));
        assert_eq!(a.req, NetRequest::Recv { sock: 7, max: 64 });
    }

    #[test]
    fn malformed_frames_are_rejected() {
        let f = FsRequest::Fstat { ino: 1 }.encode(1);
        assert!(AdmittedFrame::<FsRequest>::decode(&f[..5]).is_err());
        // An fs frame is not a valid net request.
        assert!(AdmittedFrame::<NetRequest>::decode(&f).is_err());
    }
}
