//! External-holder bookkeeping: resources pinned by lease holders that
//! live *outside* the engine's request lifecycle.
//!
//! The inheritance lock model in [`crate::proxy_engine`] tracks holders
//! the engine itself admitted — an exclusive touch holds its resource
//! from gate admission to completion. An extent lease
//! ([`solros_lease::LeaseManager`]) breaks that assumption: the holder
//! is a co-processor doing zero-RPC P2P I/O, so the engine never sees
//! its operations at all. [`ExternalHolds`] is the bridge: the lease
//! manager registers it as a [`solros_lease::RecallSink`], every grant
//! adds a hold on the leased inode, and every settle frees it. The
//! engine consults the table when routing and parks conflicting RPC
//! jobs until the recall protocol settles the lease.

use std::sync::Arc;

use solros_lease::RecallSink;
use solros_ringbuf::Doorbell;
use solros_simkit::sync::Mutex;
use solros_simkit::IntMap;

/// Per-resource external hold counts: `(writers, readers)`.
///
/// Write leases hold exclusively (every RPC job touching the inode
/// defers); read leases hold shared (only exclusive RPC jobs defer —
/// an RPC read coexists with a read lease just fine).
#[derive(Debug, Default)]
pub struct ExternalHolds {
    held: Mutex<IntMap<u64, (u64, u64)>>,
    /// Resources whose hold count dropped, pending an engine drain.
    /// Every `free` pushes here unconditionally so the engine never
    /// misses a wakeup for a job parked between check and settle.
    freed: Mutex<Vec<u64>>,
    /// The engine's doorbell: a free is work for a parked engine.
    bell: Arc<Doorbell>,
}

impl ExternalHolds {
    /// Builds an empty hold table (ringing a bell nobody sleeps on).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty hold table whose frees ring `bell`, the doorbell of the
    /// engine that drains the freed queue.
    pub fn with_doorbell(bell: Arc<Doorbell>) -> Self {
        Self {
            bell,
            ..Self::default()
        }
    }

    /// True when `res` carries any external hold.
    pub fn is_held(&self, res: u64) -> bool {
        self.held.lock().get(&res).is_some_and(|(w, r)| *w + *r > 0)
    }

    /// Whether a job with the given access would conflict with the
    /// external holds on `res`: writers block everything, readers block
    /// only exclusive jobs.
    pub fn blocks(&self, res: u64, exclusive_job: bool) -> bool {
        self.held
            .lock()
            .get(&res)
            .is_some_and(|(w, r)| *w > 0 || (exclusive_job && *r > 0))
    }

    /// Drains the freed-resource queue (engine cycle entry point).
    pub(crate) fn take_freed(&self) -> Vec<u64> {
        std::mem::take(&mut *self.freed.lock())
    }
}

impl RecallSink for ExternalHolds {
    fn hold(&self, resource: u64, exclusive: bool) {
        let mut held = self.held.lock();
        let e = held.entry(resource).or_default();
        if exclusive {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
    }

    fn free(&self, resource: u64, exclusive: bool) {
        {
            let mut held = self.held.lock();
            if let Some(e) = held.get_mut(&resource) {
                if exclusive {
                    e.0 = e.0.saturating_sub(1);
                } else {
                    e.1 = e.1.saturating_sub(1);
                }
                if e.0 + e.1 == 0 {
                    held.remove(&resource);
                }
            }
        }
        self.freed.lock().push(resource);
        self.bell.ring();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_holds_block_everything_read_holds_block_exclusives() {
        let h = ExternalHolds::new();
        h.hold(7, false);
        assert!(h.is_held(7));
        assert!(!h.blocks(7, false), "read lease admits shared jobs");
        assert!(h.blocks(7, true), "read lease defers exclusive jobs");
        h.hold(7, true);
        assert!(h.blocks(7, false), "write lease defers shared jobs");
        h.free(7, true);
        h.free(7, false);
        assert!(!h.is_held(7));
        assert!(!h.blocks(7, true));
        assert_eq!(h.take_freed(), vec![7, 7], "every free queues a wakeup");
        assert!(h.take_freed().is_empty());
    }
}
