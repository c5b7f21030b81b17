//! Admission-time job types carried through the scheduler to execution.

/// How a request touches a named resource (an inode, today).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Read-only metadata access; may wait behind exclusive holders.
    Shared,
    /// Mutating access; holds the resource from admission to completion.
    Exclusive,
}

/// One admitted request queued through the QoS gate.
///
/// The frame is decoded exactly once at admission ([`crate::proxy_engine`]
/// fixes the historical double decode by construction: the scheduler item
/// carries the parsed request, so dispatch never re-reads raw bytes).
#[derive(Debug)]
pub struct GateJob<R> {
    /// Lane (co-processor channel) the frame arrived on.
    pub lane: usize,
    /// Wire tag echoed in the reply.
    pub tag: u32,
    /// Submission flags (the barrier bit).
    pub flags: u8,
    /// The decoded request.
    pub req: R,
    /// Resource the request touches, noted at admission so shared
    /// accesses dispatched later can defer behind exclusive holders.
    pub touch: Option<(u64, Access)>,
    /// Tenant charged at admission; carried so a failover wreck can
    /// refund charges for work that will never be served.
    pub tenant: u8,
}

/// One request cleared for execution: past the gate (or FIFO-admitted),
/// past the inheritance lock check, headed for the engine thread — or
/// parked there until a lease it meets settles.
#[derive(Debug)]
pub struct ReadyJob<R> {
    /// Lane whose response ring receives the reply.
    pub lane: usize,
    /// Wire tag echoed in the reply.
    pub tag: u32,
    /// Credit byte to stamp on the reply (QoS path only).
    pub credit: Option<u8>,
    /// The decoded request.
    pub req: R,
    /// `(resource, flow)` to release when the request completes —
    /// present iff the request holds the resource exclusively.
    pub release: Option<(u64, usize)>,
    /// Tenant charged at admission (see [`GateJob::tenant`]).
    pub tenant: u8,
}
