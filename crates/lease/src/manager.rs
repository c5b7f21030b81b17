//! Control-plane lease manager: grants, conflicts, and the recall
//! protocol.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use solros_faults::LeaseFaults;
use solros_fs::Extent;
use solros_qos::QosStats;
use solros_simkit::sync::Mutex;

use crate::state::{LeaseKind, LeaseState, SettledLease};

/// Default budget a recalled holder gets to flush and ack before the
/// sweep force-revokes. Generous against the simulator's microsecond
/// device latencies, small enough that a crashed stub can't wedge a
/// conflicting operation for long.
pub const DEFAULT_RECALL_BUDGET: Duration = Duration::from_millis(5);

/// Why a grant was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseError {
    /// P2P DMA from this co-processor would cross a NUMA boundary; the
    /// control plane keeps such traffic on the buffered RPC path.
    Placement,
    /// A conflicting lease survived the recall attempt (or appeared
    /// concurrently); the caller should fall back to RPC and retry
    /// later.
    Busy,
    /// Zero-length or misaligned range.
    Invalid,
}

/// Where the control plane parks conflicting RPC traffic while a lease
/// is out. The proxy engine's external-hold table implements this: a
/// held resource makes conflicting RPC jobs defer (joining the
/// priority-inheritance waiter machinery) until the lease settles and
/// `free` runs.
pub trait RecallSink: Send + Sync {
    /// A lease was granted on `resource`; `exclusive` is true for write
    /// leases, which block all RPC access (read leases only block
    /// exclusive RPC access).
    fn hold(&self, resource: u64, exclusive: bool);
    /// The lease settled; deferred RPC jobs may run again.
    fn free(&self, resource: u64, exclusive: bool);
}

/// Point-in-time accounting of every lease that ever existed. The E6
/// gate requires [`LeaseLedger::clean`] after a recall storm.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeaseLedger {
    /// Leases granted.
    pub granted: u64,
    /// Grants refused because P2P crosses NUMA.
    pub denied_placement: u64,
    /// Grants refused because a conflicting lease would not settle.
    pub denied_busy: u64,
    /// Voluntary releases (holder gave the lease back unprompted).
    pub released: u64,
    /// Recalls issued to holders.
    pub recalls_issued: u64,
    /// Recalls the holder answered with a flush + ack.
    pub recalls_acked: u64,
    /// Recalls the deadline sweep settled without an ack.
    pub forced_revokes: u64,
    /// Leases currently on the books.
    pub outstanding: u64,
    /// Recalls issued but not yet settled either way.
    pub pending_recalls: u64,
}

impl LeaseLedger {
    /// Every recall settled — acked or force-revoked — and none are in
    /// flight. This is the "no recall lost forever" invariant.
    pub fn clean(&self) -> bool {
        self.pending_recalls == 0 && self.recalls_issued == self.recalls_acked + self.forced_revokes
    }
}

#[derive(Default)]
struct Inner {
    next_id: u64,
    leases: HashMap<u64, Arc<LeaseState>>,
    by_ino: HashMap<u64, Vec<u64>>,
    /// Recall deadlines, keyed by lease id. Presence means a recall is
    /// pending; whichever of ack / sweep removes the entry settles it.
    deadlines: HashMap<u64, Instant>,
    /// Monotonic per-inode generation fed to new grants. Bumped on
    /// every settle so a re-grant never reuses a generation a stale
    /// mapping might still carry.
    generations: HashMap<u64, u64>,
    /// Inodes on which new grants are refused (`Busy`), refcounted by
    /// [`GrantBar`]. Destructive control-plane ops (unlink, truncate)
    /// bar the inode so no lease can be granted between their recall
    /// and the operation itself.
    barred: HashMap<u64, u64>,
}

/// The control-plane half of the lease subsystem.
///
/// One manager is shared by every fs proxy in the machine so leases
/// granted through one co-processor's proxy are visible — and
/// recallable — when a conflicting request arrives at another's.
pub struct LeaseManager {
    inner: Mutex<Inner>,
    sinks: Mutex<Vec<Arc<dyn RecallSink>>>,
    recall_budget: Mutex<Duration>,
    faults: Arc<LeaseFaults>,
    granted: AtomicU64,
    denied_placement: AtomicU64,
    denied_busy: AtomicU64,
    released: AtomicU64,
    recalls_issued: AtomicU64,
    recalls_acked: AtomicU64,
    forced_revokes: AtomicU64,
    pending_recalls: AtomicU64,
}

impl Default for LeaseManager {
    fn default() -> Self {
        Self::new()
    }
}

impl LeaseManager {
    /// A manager with no leases and the default recall budget.
    pub fn new() -> Self {
        Self {
            inner: Mutex::new(Inner::default()),
            sinks: Mutex::new(Vec::new()),
            recall_budget: Mutex::new(DEFAULT_RECALL_BUDGET),
            faults: Arc::new(LeaseFaults::new()),
            granted: AtomicU64::new(0),
            denied_placement: AtomicU64::new(0),
            denied_busy: AtomicU64::new(0),
            released: AtomicU64::new(0),
            recalls_issued: AtomicU64::new(0),
            recalls_acked: AtomicU64::new(0),
            forced_revokes: AtomicU64::new(0),
            pending_recalls: AtomicU64::new(0),
        }
    }

    /// Fault-injection hooks consumed by the recall path.
    pub fn faults(&self) -> &Arc<LeaseFaults> {
        &self.faults
    }

    /// Overrides the recall budget (tests tighten it to force sweeps).
    pub fn set_recall_budget(&self, budget: Duration) {
        *self.recall_budget.lock() = budget;
    }

    /// Registers an external-hold sink (one per proxy engine). Every
    /// sink sees every hold so conflicting RPC traffic defers no matter
    /// which proxy it arrives at.
    pub fn attach_sink(&self, sink: Arc<dyn RecallSink>) {
        self.sinks.lock().push(sink);
    }

    /// Counts a placement denial (the proxy checks its own NUMA flag).
    pub fn note_placement_denied(&self) {
        self.denied_placement.fetch_add(1, Ordering::Relaxed);
    }

    /// Grants a lease over `[offset, offset + len)` of `ino`.
    ///
    /// `extents` must pre-resolve the whole range (write leases:
    /// preallocated) and `data_end` is the file size at resolution time
    /// clamped to the range end. Conflicts are checked under the
    /// manager lock, making rule 1 — no two conflicting leases — hold
    /// by construction. On success the external-hold sinks are charged
    /// under the same lock that makes the lease visible, so no settle
    /// can observe the lease before its holds exist.
    #[allow(clippy::too_many_arguments)]
    pub fn grant(
        &self,
        coproc: u8,
        ino: u64,
        offset: u64,
        len: u64,
        kind: LeaseKind,
        extents: Vec<Extent>,
        data_end: u64,
        charge: Option<(Arc<QosStats>, usize)>,
    ) -> Result<Arc<LeaseState>, LeaseError> {
        if len == 0 {
            return Err(LeaseError::Invalid);
        }
        let stale_inject = self.faults.take_stale_generation();
        let st = {
            let mut inner = self.inner.lock();
            let exclusive = kind == LeaseKind::Write;
            if inner.barred.contains_key(&ino) {
                self.denied_busy.fetch_add(1, Ordering::Relaxed);
                return Err(LeaseError::Busy);
            }
            let conflict = inner
                .by_ino
                .get(&ino)
                .map(|ids| {
                    ids.iter().any(|id| {
                        inner
                            .leases
                            .get(id)
                            .is_some_and(|l| Self::conflicts(l, offset, len, exclusive))
                    })
                })
                .unwrap_or(false);
            if conflict {
                self.denied_busy.fetch_add(1, Ordering::Relaxed);
                return Err(LeaseError::Busy);
            }
            let id = inner.next_id;
            inner.next_id += 1;
            let generation = *inner.generations.entry(ino).or_insert(1);
            let st = Arc::new(LeaseState::new(
                id, ino, coproc, offset, len, kind, generation, data_end, extents, charge,
            ));
            inner.leases.insert(id, Arc::clone(&st));
            inner.by_ino.entry(ino).or_default().push(id);
            // Charge the sinks before the inner lock drops: the moment
            // it does, a concurrent settle may run `free_holds`, and a
            // hold installed after that free would leak — parking every
            // conflicting RPC job on the inode forever. The sinks never
            // re-enter the manager, so nesting their lock here is safe.
            for sink in self.sinks.lock().iter() {
                sink.hold(ino, kind == LeaseKind::Write);
            }
            st
        };
        self.granted.fetch_add(1, Ordering::Relaxed);
        if stale_inject {
            // Injected hazard: the mapping goes stale with no recall.
            // The stub's generation check must catch it on next access.
            st.invalidate();
        }
        Ok(st)
    }

    fn conflicts(l: &LeaseState, offset: u64, len: u64, exclusive: bool) -> bool {
        let l_end = l.offset().saturating_add(l.len());
        let end = offset.saturating_add(len);
        let overlap = offset < l_end && l.offset() < end;
        overlap && (exclusive || l.kind() == LeaseKind::Write)
    }

    /// Shared handle for a granted lease (stub adoption path).
    pub fn shared(&self, id: u64) -> Option<Arc<LeaseState>> {
        self.inner.lock().leases.get(&id).cloned()
    }

    /// Any lease currently held by `coproc` on `ino`.
    pub fn lease_for(&self, ino: u64, coproc: u8) -> Option<Arc<LeaseState>> {
        let inner = self.inner.lock();
        inner.by_ino.get(&ino).and_then(|ids| {
            ids.iter()
                .filter_map(|id| inner.leases.get(id))
                .find(|l| l.coproc() == coproc)
                .cloned()
        })
    }

    /// True when any lease is outstanding on `ino`.
    pub fn has_lease(&self, ino: u64) -> bool {
        self.inner
            .lock()
            .by_ino
            .get(&ino)
            .is_some_and(|ids| !ids.is_empty())
    }

    /// Marks every lease on `ino` conflicting with the given access as
    /// recalled (non-blocking). Returns the number newly marked. Used
    /// by the proxy engine when an RPC job defers behind an external
    /// hold: the job parks, the recall races ahead.
    pub fn recall_range(&self, ino: u64, offset: u64, len: u64, exclusive: bool) -> u64 {
        let budget = *self.recall_budget.lock();
        let mut inner = self.inner.lock();
        let ids: Vec<u64> = inner
            .by_ino
            .get(&ino)
            .map(|ids| {
                ids.iter()
                    .filter(|id| {
                        inner
                            .leases
                            .get(id)
                            .is_some_and(|l| Self::conflicts(l, offset, len, exclusive))
                    })
                    .copied()
                    .collect()
            })
            .unwrap_or_default();
        let mut marked = 0;
        for id in ids {
            if self.mark_recall(&mut inner, id, budget) {
                marked += 1;
            }
        }
        marked
    }

    /// Marks conflicting leases recalled and blocks until each settles:
    /// acked by the holder (on its own proxy thread) or force-revoked
    /// once the budget expires. Returns the settled leases so the
    /// caller can apply them to the fs. This is the grant path's
    /// "recall then re-check" step and the barrier's coherence hook.
    pub fn recall_range_sync(
        &self,
        ino: u64,
        offset: u64,
        len: u64,
        exclusive: bool,
    ) -> Vec<SettledLease> {
        let budget = *self.recall_budget.lock();
        let ids: Vec<u64> = {
            let mut inner = self.inner.lock();
            let ids: Vec<u64> = inner
                .by_ino
                .get(&ino)
                .map(|ids| {
                    ids.iter()
                        .filter(|id| {
                            inner
                                .leases
                                .get(id)
                                .is_some_and(|l| Self::conflicts(l, offset, len, exclusive))
                        })
                        .copied()
                        .collect()
                })
                .unwrap_or_default();
            for &id in &ids {
                self.mark_recall(&mut inner, id, budget);
            }
            ids
        };
        let mut settled = Vec::new();
        let mut waiting = ids;
        while !waiting.is_empty() {
            let now = Instant::now();
            let mut overdue = Vec::new();
            {
                let inner = self.inner.lock();
                // A lease or deadline entry that vanished was settled
                // concurrently (ack or sweep) — stop waiting on it.
                waiting
                    .retain(|id| inner.leases.contains_key(id) && inner.deadlines.contains_key(id));
                for &id in &waiting {
                    if inner.deadlines.get(&id).is_some_and(|dl| *dl <= now) {
                        overdue.push(id);
                    }
                }
            }
            for id in overdue {
                if let Some(s) = self.force_revoke(id) {
                    settled.push(s);
                }
            }
            std::thread::yield_now();
        }
        settled
    }

    /// Marks one lease recalled and charges the ledger. Consumes the
    /// lost-recall fault: when armed, the holder-visible flag is *not*
    /// set (the notification vanished in flight) but the deadline still
    /// starts, so the sweep must force-revoke.
    fn mark_recall(&self, inner: &mut Inner, id: u64, budget: Duration) -> bool {
        if inner.deadlines.contains_key(&id) {
            return false; // recall already pending
        }
        let Some(st) = inner.leases.get(&id).cloned() else {
            return false;
        };
        inner.deadlines.insert(id, Instant::now() + budget);
        self.recalls_issued.fetch_add(1, Ordering::Relaxed);
        self.pending_recalls.fetch_add(1, Ordering::Relaxed);
        if !self.faults.take_lost_recall() {
            st.mark_recalled();
        }
        true
    }

    /// Settles a lease from the wire: a voluntary `LeaseRelease`
    /// (`voluntary = true`) or a `LeaseRecallAck`. Idempotent — `None`
    /// when the lease already settled (e.g. the sweep won the race).
    pub fn settle_wire(&self, id: u64, written_end: u64, voluntary: bool) -> Option<SettledLease> {
        let st = self.inner.lock().leases.get(&id).cloned()?;
        // The wire value is untrusted: a read lease writes nothing, and
        // a write lease can never have written past its own range — a
        // misbehaving stub must not be able to extend the file past the
        // leased (preallocated) blocks.
        if st.kind() == LeaseKind::Write {
            st.note_write(written_end.min(st.offset().saturating_add(st.len())));
        }
        st.mark_recalled();
        st.invalidate();
        self.drain_ops(&st);
        let mut inner = self.inner.lock();
        let st = inner.leases.remove(&id)?;
        Self::unindex(&mut inner, &st);
        let was_recall = inner.deadlines.remove(&id).is_some();
        drop(inner);
        if was_recall {
            self.pending_recalls.fetch_sub(1, Ordering::Relaxed);
            self.recalls_acked.fetch_add(1, Ordering::Relaxed);
        } else if voluntary {
            self.released.fetch_add(1, Ordering::Relaxed);
        } else {
            // Ack without a pending recall: the stub detected a stale
            // generation (injected hazard) and gave the lease back.
            self.released.fetch_add(1, Ordering::Relaxed);
        }
        Some(Self::settled_from(&st, false))
    }

    /// Revokes one lease without an ack: invalidate the mapping, drain
    /// in-flight leased ops, then take it off the books.
    fn force_revoke(&self, id: u64) -> Option<SettledLease> {
        let st = self.inner.lock().leases.get(&id).cloned()?;
        // Revocation order matters: the recalled flag goes up first so
        // a begin_op racing the invalidation reads "recalled", not
        // "stale" — a torn-down mapping is not a stale-generation read.
        st.mark_recalled();
        st.invalidate();
        self.drain_ops(&st);
        let mut inner = self.inner.lock();
        let st = inner.leases.remove(&id)?;
        Self::unindex(&mut inner, &st);
        let was_recall = inner.deadlines.remove(&id).is_some();
        drop(inner);
        if was_recall {
            self.pending_recalls.fetch_sub(1, Ordering::Relaxed);
            self.forced_revokes.fetch_add(1, Ordering::Relaxed);
        }
        Some(Self::settled_from(&st, true))
    }

    /// Settles every recall whose deadline has passed. Called from the
    /// proxy engine's idle poll; cheap when nothing is pending.
    pub fn sweep(&self) -> Vec<SettledLease> {
        if self.pending_recalls.load(Ordering::Relaxed) == 0 {
            return Vec::new();
        }
        let now = Instant::now();
        let overdue: Vec<u64> = {
            let inner = self.inner.lock();
            inner
                .deadlines
                .iter()
                .filter(|(_, dl)| **dl <= now)
                .map(|(id, _)| *id)
                .collect()
        };
        overdue
            .into_iter()
            .filter_map(|id| self.force_revoke(id))
            .collect()
    }

    /// Force-recalls every lease held through `coproc`'s proxy — the
    /// domain-failover reclamation path. The holder's domain is fenced,
    /// so no ack can ever arrive: each lease is marked recalled (so the
    /// ledger's issued/settled books balance) and immediately
    /// force-revoked, and its external holds are freed so parked RPC
    /// traffic resumes on the surviving shards. Hot-file I/O against
    /// these inodes degrades to RPC until a fresh grant; unflushed
    /// leased writes die with the domain (crash semantics). Returns the
    /// settled leases, generations already bumped so a re-grant never
    /// reuses one a dead stub's mapping might still carry.
    pub fn revoke_coproc(&self, coproc: u8) -> Vec<SettledLease> {
        let ids: Vec<u64> = {
            let mut inner = self.inner.lock();
            let ids: Vec<u64> = inner
                .leases
                .iter()
                .filter(|(_, l)| l.coproc() == coproc)
                .map(|(id, _)| *id)
                .collect();
            for &id in &ids {
                // Start the recall clock even though nobody is listening:
                // the issued/forced counters must balance for a clean
                // ledger, and a concurrently-arriving ack (a frame the
                // stub sent before dying) settles idempotently.
                self.mark_recall(&mut inner, id, Duration::ZERO);
            }
            ids
        };
        let settled: Vec<SettledLease> = ids
            .into_iter()
            .filter_map(|id| self.force_revoke(id))
            .collect();
        for s in &settled {
            self.free_holds(s.ino, s.kind);
        }
        settled
    }

    /// Silently invalidates every lease on `ino` and bumps the grant
    /// generation. Used for truncate/unlink coherence and by the
    /// stale-generation fault path. Holders detect the mismatch on
    /// next access and fall back; no recall is issued.
    pub fn bump_generation(&self, ino: u64) -> u64 {
        // One lock acquisition for both halves: a grant interleaving
        // between invalidation and the counter bump would be stamped
        // with the old generation and escape the coherence event.
        let mut inner = self.inner.lock();
        let ids = inner.by_ino.get(&ino).cloned().unwrap_or_default();
        for id in &ids {
            if let Some(st) = inner.leases.get(id) {
                st.invalidate();
            }
        }
        let g = inner.generations.entry(ino).or_insert(1);
        *g += 1;
        *g
    }

    /// Bars new grants on `ino` until the returned guard drops; barred
    /// grants fail [`LeaseError::Busy`]. Destructive control-plane ops
    /// (unlink, truncate) hold a bar across recall-then-mutate so no
    /// lease granted through another proxy can slip in between and end
    /// up mapping blocks the operation is about to free.
    pub fn bar_grants(&self, ino: u64) -> GrantBar<'_> {
        *self.inner.lock().barred.entry(ino).or_insert(0) += 1;
        GrantBar { mgr: self, ino }
    }

    /// Frees the external holds charged at grant time. Called by the
    /// proxy *after* applying a settled lease to the fs, so deferred
    /// RPC jobs observe the leased writes.
    pub fn free_holds(&self, ino: u64, kind: LeaseKind) {
        for sink in self.sinks.lock().iter() {
            sink.free(ino, kind == LeaseKind::Write);
        }
    }

    /// Recalls issued but not yet settled.
    pub fn pending(&self) -> u64 {
        self.pending_recalls.load(Ordering::Relaxed)
    }

    /// Snapshot of the lease accounting.
    pub fn ledger(&self) -> LeaseLedger {
        LeaseLedger {
            granted: self.granted.load(Ordering::Relaxed),
            denied_placement: self.denied_placement.load(Ordering::Relaxed),
            denied_busy: self.denied_busy.load(Ordering::Relaxed),
            released: self.released.load(Ordering::Relaxed),
            recalls_issued: self.recalls_issued.load(Ordering::Relaxed),
            recalls_acked: self.recalls_acked.load(Ordering::Relaxed),
            forced_revokes: self.forced_revokes.load(Ordering::Relaxed),
            outstanding: self.inner.lock().leases.len() as u64,
            pending_recalls: self.pending_recalls.load(Ordering::Relaxed),
        }
    }

    /// Spins (bounded) until no leased op is between begin/end on this
    /// lease. The mapping is already invalid, so new ops cannot enter;
    /// the bound only matters if a holder thread is descheduled
    /// mid-DMA, in which case the revocation proceeds anyway and the
    /// straggler's completion is indistinguishable from a pre-revoke
    /// one (same blocks, same generation of data).
    fn drain_ops(&self, st: &LeaseState) {
        let deadline = Instant::now() + Duration::from_millis(2);
        while st.active_ops() > 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
    }

    fn unindex(inner: &mut Inner, st: &LeaseState) {
        if let Some(ids) = inner.by_ino.get_mut(&st.ino()) {
            ids.retain(|id| *id != st.id());
            if ids.is_empty() {
                inner.by_ino.remove(&st.ino());
            }
        }
        // Re-grants must never reuse a generation a stale mapping
        // might still carry.
        *inner.generations.entry(st.ino()).or_insert(1) += 1;
    }

    fn settled_from(st: &LeaseState, forced: bool) -> SettledLease {
        SettledLease {
            id: st.id(),
            ino: st.ino(),
            coproc: st.coproc(),
            kind: st.kind(),
            offset: st.offset(),
            written_end: st.written_end(),
            forced,
        }
    }
}

/// RAII bar on new grants for one inode (see
/// [`LeaseManager::bar_grants`]). Refcounted, so overlapping bars from
/// concurrent destructive ops compose.
pub struct GrantBar<'a> {
    mgr: &'a LeaseManager,
    ino: u64,
}

impl Drop for GrantBar<'_> {
    fn drop(&mut self) {
        let mut inner = self.mgr.inner.lock();
        if let Some(n) = inner.barred.get_mut(&self.ino) {
            *n -= 1;
            if *n == 0 {
                inner.barred.remove(&self.ino);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ext(start: u64, len: u32) -> Extent {
        Extent { start, len }
    }

    fn grant_read(m: &LeaseManager, ino: u64, coproc: u8) -> Arc<LeaseState> {
        m.grant(
            coproc,
            ino,
            0,
            4096,
            LeaseKind::Read,
            vec![ext(10, 1)],
            4096,
            None,
        )
        .expect("grant")
    }

    #[test]
    fn conflicting_grants_are_refused() {
        let m = LeaseManager::new();
        let _w = m
            .grant(
                0,
                7,
                0,
                4096,
                LeaseKind::Write,
                vec![ext(10, 1)],
                4096,
                None,
            )
            .expect("writer");
        // Reader overlapping a writer: refused.
        assert_eq!(
            m.grant(1, 7, 0, 4096, LeaseKind::Read, vec![ext(10, 1)], 4096, None)
                .err(),
            Some(LeaseError::Busy)
        );
        // Disjoint range on the same ino: fine.
        m.grant(
            1,
            7,
            8192,
            4096,
            LeaseKind::Read,
            vec![ext(11, 1)],
            8192,
            None,
        )
        .expect("disjoint");
        assert_eq!(m.ledger().denied_busy, 1);
        assert_eq!(m.ledger().outstanding, 2);
    }

    #[test]
    fn read_leases_coexist_and_exclude_writers() {
        let m = LeaseManager::new();
        let _a = grant_read(&m, 3, 0);
        let _b = grant_read(&m, 3, 1);
        assert_eq!(
            m.grant(2, 3, 0, 4096, LeaseKind::Write, vec![ext(9, 1)], 4096, None)
                .err(),
            Some(LeaseError::Busy)
        );
    }

    #[test]
    fn recall_settles_by_ack() {
        let m = Arc::new(LeaseManager::new());
        let st = grant_read(&m, 1, 0);
        assert_eq!(m.recall_range(1, 0, u64::MAX, true), 1);
        assert!(st.is_recalled());
        let s = m.settle_wire(st.id(), 0, false).expect("settle");
        assert!(!s.forced);
        let ledger = m.ledger();
        assert!(ledger.clean(), "{ledger:?}");
        assert_eq!(ledger.recalls_acked, 1);
        // Second ack is idempotent.
        assert!(m.settle_wire(st.id(), 0, false).is_none());
        assert!(m.ledger().clean());
    }

    #[test]
    fn unanswered_recall_is_force_revoked_by_sweep() {
        let m = LeaseManager::new();
        m.set_recall_budget(Duration::from_millis(0));
        let st = grant_read(&m, 1, 0);
        assert_eq!(m.recall_range(1, 0, u64::MAX, true), 1);
        let settled = m.sweep();
        assert_eq!(settled.len(), 1);
        assert!(settled[0].forced);
        assert!(!st.is_current());
        let ledger = m.ledger();
        assert!(ledger.clean(), "{ledger:?}");
        assert_eq!(ledger.forced_revokes, 1);
    }

    #[test]
    fn lost_recall_never_reaches_holder_but_still_settles() {
        let m = LeaseManager::new();
        m.set_recall_budget(Duration::from_millis(0));
        m.faults().arm_lost_recalls(1);
        let st = grant_read(&m, 1, 0);
        assert_eq!(m.recall_range(1, 0, u64::MAX, true), 1);
        assert!(!st.is_recalled(), "notification was lost in flight");
        let settled = m.sweep();
        assert_eq!(settled.len(), 1);
        assert!(settled[0].forced);
        assert!(m.ledger().clean());
    }

    #[test]
    fn recall_range_sync_returns_settled_writes() {
        let m = LeaseManager::new();
        m.set_recall_budget(Duration::from_millis(0));
        let st = m
            .grant(0, 5, 0, 8192, LeaseKind::Write, vec![ext(20, 2)], 0, None)
            .expect("writer");
        st.note_write(8000);
        let settled = m.recall_range_sync(5, 0, 8192, false);
        assert_eq!(settled.len(), 1);
        assert_eq!(settled[0].written_end, 8000);
        assert!(m.ledger().clean());
        assert_eq!(m.ledger().outstanding, 0);
    }

    #[test]
    fn settle_wire_clamps_untrusted_written_end() {
        let m = LeaseManager::new();
        let w = m
            .grant(0, 5, 0, 8192, LeaseKind::Write, vec![ext(20, 2)], 0, None)
            .expect("writer");
        let s = m.settle_wire(w.id(), u64::MAX, true).expect("settle");
        assert_eq!(s.written_end, 8192, "clamped to the leased range end");
        // A read lease reports no writes, whatever the wire claims.
        let r = grant_read(&m, 6, 0);
        let s = m.settle_wire(r.id(), 12345, true).expect("settle");
        assert_eq!(s.written_end, 0);
    }

    #[test]
    fn barred_inode_refuses_grants_until_the_bar_drops() {
        let m = LeaseManager::new();
        {
            let _bar = m.bar_grants(7);
            assert_eq!(
                m.grant(0, 7, 0, 4096, LeaseKind::Read, vec![ext(10, 1)], 4096, None)
                    .err(),
                Some(LeaseError::Busy)
            );
            // Nested bars compose: still barred after the inner drops.
            drop(m.bar_grants(7));
            assert_eq!(
                m.grant(0, 7, 0, 4096, LeaseKind::Read, vec![ext(10, 1)], 4096, None)
                    .err(),
                Some(LeaseError::Busy)
            );
            // Other inodes are unaffected.
            grant_read(&m, 8, 0);
        }
        grant_read(&m, 7, 0);
        assert_eq!(m.ledger().denied_busy, 2);
    }

    #[test]
    fn revoke_coproc_reclaims_only_the_dead_domains_leases() {
        let m = LeaseManager::new();
        let dead_r = grant_read(&m, 1, 0);
        let dead_w = m
            .grant(0, 2, 0, 8192, LeaseKind::Write, vec![ext(20, 2)], 0, None)
            .expect("writer");
        let live = grant_read(&m, 3, 1);
        let g_before = dead_r.generation();
        let settled = m.revoke_coproc(0);
        assert_eq!(settled.len(), 2);
        assert!(settled.iter().all(|s| s.forced && s.coproc == 0));
        assert!(!dead_r.is_current());
        assert!(!dead_w.is_current());
        assert!(live.is_current(), "surviving domain's lease untouched");
        let ledger = m.ledger();
        assert!(ledger.clean(), "{ledger:?}");
        assert_eq!(ledger.forced_revokes, 2);
        assert_eq!(ledger.outstanding, 1);
        // A re-grant on a reclaimed inode never reuses the generation.
        let again = grant_read(&m, 1, 1);
        assert!(again.generation() > g_before);
        // Idempotent: nothing left to reclaim for that coproc.
        assert!(m.revoke_coproc(0).is_empty());
    }

    #[test]
    fn revoke_coproc_settles_a_recall_already_in_flight() {
        let m = LeaseManager::new();
        let st = grant_read(&m, 9, 2);
        assert_eq!(m.recall_range(9, 0, u64::MAX, true), 1);
        assert!(st.is_recalled());
        let settled = m.revoke_coproc(2);
        assert_eq!(settled.len(), 1);
        assert!(m.ledger().clean(), "{:?}", m.ledger());
    }

    #[test]
    fn generation_bumps_are_monotonic_across_regrants() {
        let m = LeaseManager::new();
        let a = grant_read(&m, 1, 0);
        let g1 = a.generation();
        m.settle_wire(a.id(), 0, true);
        let b = grant_read(&m, 1, 0);
        assert!(b.generation() > g1);
        assert!(!a.is_current(), "old mapping stays dead");
        assert!(b.is_current());
    }

    #[test]
    fn stale_generation_injection_invalidates_at_grant() {
        let m = LeaseManager::new();
        m.faults().arm_stale_generations(1);
        let st = grant_read(&m, 1, 0);
        assert!(!st.is_current(), "injected stale generation");
        assert!(!st.is_recalled(), "no recall was issued");
        assert!(!st.begin_op());
    }
}
