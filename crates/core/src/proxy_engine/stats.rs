//! The engine-owned statistics ledger shared by every proxy.

use std::sync::atomic::AtomicU64;

/// Request-lifecycle counters owned by the proxy engine.
///
/// Both control-plane proxies used to keep private copies of these
/// counters; the engine now maintains one ledger per proxy and the
/// proxy-specific stats structs (`FsProxyStats`, `TcpProxyStats`) deref
/// into it, so existing `.rpcs` / `.worker_panics` call sites keep
/// working unchanged.
#[derive(Debug, Default)]
pub struct ProxyStats {
    /// Requests executed, staged into a wave, or run at a barrier.
    pub rpcs: AtomicU64,
    /// Handler panics contained and converted into `Io` error replies.
    pub worker_panics: AtomicU64,
    /// Frames that failed to decode at admission.
    pub malformed: AtomicU64,
    /// Requests shed by the QoS gate (overload, queue-full, deadline).
    pub sheds: AtomicU64,
    /// Priority-inheritance promotions applied to lock-holding flows.
    pub promotions: AtomicU64,
    /// Shared-access requests deferred behind an exclusively-held
    /// resource (the priority-inheritance wait path).
    pub inherit_deferred: AtomicU64,
    /// Times a request parked behind an external lease holder while the
    /// recall protocol ran (the extent-lease coherence path): at routing,
    /// or handed back by the handler.
    pub lease_deferred: AtomicU64,
    /// Replies discarded by an armed fault hook (crashed-stub model).
    pub dropped_replies: AtomicU64,
    /// Replies settled onto response rings (all producers: executed
    /// requests, handler flush, shed/malformed/credit paths).
    pub replies: AtomicU64,
    /// Batched settlement waves issued — one per `(lane, cycle)` with
    /// pending replies.
    pub reply_waves: AtomicU64,
    /// Control-variable publishes (doorbell-equivalents) the reply rings
    /// actually paid; `reply_publishes / replies` is the reply-side
    /// doorbells-per-op figure E8 sweeps.
    pub reply_publishes: AtomicU64,
}
