#![warn(missing_docs)]

//! An NRK-style operation log for node-replicated control-plane state.
//!
//! The control plane keeps one *logical* state machine (the listener
//! registry and balancer tables, per-tenant QoS ledgers) but every
//! co-processor/NUMA domain holds its own *replica* of it. Mutations are
//! appended to a shared [`OpLog`]; each replica applies the log in order
//! through its private read cursor, so reads are always domain-local and
//! the only cross-domain traffic is the append itself.
//!
//! Three mechanisms keep the log from becoming the next bottleneck:
//!
//! * **Flat-combining batch append** ([`OpLog::append`]): concurrent
//!   appenders publish their operation and elect one *combiner*, which
//!   sequences every published operation in one storage acquisition —
//!   the same idiom the transport's combining ring buffer uses, extended
//!   upward into the control plane. Waiters spin only until their ticket
//!   is sequenced.
//! * **Per-replica read cursors** ([`OpLog::sync`]): a replica applies
//!   `(seq, op)` pairs from its cursor to the published tail. Cursors are
//!   advanced only through an exclusive [`ReplicaCursor`] token, so an
//!   operation is applied *exactly once* per replica by construction.
//! * **Lag-bounded compaction**: the combiner trims the applied prefix
//!   once the log exceeds its high-water mark. A replica lagging more
//!   than `max_lag` entries no longer blocks the trim — the log advances
//!   past it and the straggler's next [`OpLog::sync`] reports
//!   [`SyncOutcome::Overrun`], telling it to rebuild from an
//!   authoritative snapshot and [`OpLog::install_snapshot`] at the
//!   current tail (the ScaleFS/Corfu checkpoint move). A cursor that has
//!   been overrun stops pinning the floor at all — it rebuilds from a
//!   snapshot whatever the log still holds — so one dead-slow replica
//!   costs one overrun, after which the log swings between empty and
//!   its high-water mark. Storage is a deque: a trim costs what it
//!   removes. State machines that cannot snapshot run with an unbounded
//!   lag allowance and gate on the `overruns` tripwire staying zero.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use solros_simkit::sync::{Mutex, RwLock};

/// Construction parameters for one log.
#[derive(Debug, Clone, Copy)]
pub struct LogConfig {
    /// Compaction trigger: the combiner trims the log once more than
    /// this many entries are resident.
    pub high_water: usize,
    /// Maximum entries a replica may lag before compaction is allowed
    /// to advance past it (forcing a snapshot rebuild). `u64::MAX`
    /// disables overruns: the log then grows until every replica syncs.
    pub max_lag: u64,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            high_water: 1024,
            max_lag: u64::MAX,
        }
    }
}

/// A point-in-time copy of one log's counters, surfaced by experiment
/// harnesses (E7 reports log depth and lag beside ops/s).
#[derive(Debug, Clone, Copy, Default)]
pub struct LogStats {
    /// Next sequence number to be assigned (total operations appended).
    pub tail: u64,
    /// Compaction floor: sequence of the oldest resident entry.
    pub head: u64,
    /// Entries currently resident (`tail - head`).
    pub depth: u64,
    /// Individual append calls.
    pub appends: u64,
    /// Storage acquisitions that sequenced at least one operation; the
    /// combine factor is `appends / batches`.
    pub batches: u64,
    /// Largest single combined batch.
    pub max_batch: u64,
    /// Compaction passes run.
    pub compactions: u64,
    /// Times a straggling replica was compacted past (each forces one
    /// snapshot rebuild, however many appends go by before the replica
    /// notices). Non-snapshot state machines gate on zero.
    pub overruns: u64,
    /// Largest current replica lag (entries behind the tail).
    pub max_lag_now: u64,
}

/// What a [`OpLog::sync`] pass found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncOutcome {
    /// `n` operations were applied in order (possibly zero).
    Applied(u64),
    /// Compaction advanced past this replica's cursor: the in-order
    /// prefix is gone. The caller must rebuild its state from an
    /// authoritative snapshot and then [`OpLog::install_snapshot`].
    Overrun,
}

/// An exclusive handle to one replica's read cursor.
///
/// Holding `&mut ReplicaCursor` is the proof that no other thread is
/// applying operations to the same replica, which is what makes
/// exactly-once application a type-system property rather than a
/// convention. Wrap it (and the replica state it guards) in the
/// replica's own lock when multiple threads share one replica.
#[derive(Debug)]
pub struct ReplicaCursor {
    id: usize,
    /// Local copy of the position, so the already-at-tail fast path of
    /// [`OpLog::sync`] is a single atomic load (replica sync sits on
    /// every engine poll, which must stay cheap when the log is quiet).
    at: u64,
    /// Shared cell the combiner reads when computing the compaction
    /// floor; kept in lock-step with `at`.
    cell: Arc<AtomicU64>,
}

impl ReplicaCursor {
    /// The replica's registration index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The next sequence number this replica will apply — i.e. how much
    /// of the log its local state reflects. Snapshot producers pair
    /// their cloned state with this value for
    /// [`OpLog::install_snapshot`] on the consumer's cursor.
    pub fn position(&self) -> u64 {
        self.at
    }
}

struct Store<T> {
    /// Sequence number of `ops[0]`.
    base: u64,
    ops: VecDeque<T>,
}

/// The shared operation log.
pub struct OpLog<T> {
    storage: RwLock<Store<T>>,
    /// Flat-combining publication buffer; ticket order == vec order.
    pending: Mutex<Vec<T>>,
    /// The combiner's other buffer, empty between combines: swapped
    /// with `pending` and drained into the store, so neither buffer is
    /// rebuilt and an append does not allocate once both have grown.
    spare: Mutex<Vec<T>>,
    /// Next ticket to hand out (assigned under the `pending` lock).
    enqueued: AtomicU64,
    /// Published tail: every sequence below this is readable.
    tail: AtomicU64,
    /// Compaction floor (sequence of the oldest resident entry).
    head: AtomicU64,
    combining: AtomicBool,
    cursors: RwLock<Vec<Arc<AtomicU64>>>,
    cfg: LogConfig,
    appends: AtomicU64,
    batches: AtomicU64,
    max_batch: AtomicU64,
    compactions: AtomicU64,
    overruns: AtomicU64,
}

impl<T: Clone> OpLog<T> {
    /// Creates a log with the given tuning.
    pub fn new(cfg: LogConfig) -> Arc<Self> {
        Arc::new(Self {
            storage: RwLock::new(Store {
                base: 0,
                ops: VecDeque::new(),
            }),
            pending: Mutex::new(Vec::new()),
            spare: Mutex::new(Vec::new()),
            enqueued: AtomicU64::new(0),
            tail: AtomicU64::new(0),
            head: AtomicU64::new(0),
            combining: AtomicBool::new(false),
            cursors: RwLock::new(Vec::new()),
            cfg,
            appends: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            max_batch: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            overruns: AtomicU64::new(0),
        })
    }

    /// Registers a replica whose cursor starts at the current tail (the
    /// boot path registers every replica before the first append, so
    /// "current tail" is the empty prefix). Returns its cursor token.
    pub fn register(&self) -> ReplicaCursor {
        let mut cursors = self.cursors.write();
        // A replica born mid-stream starts at the tail: it represents
        // whatever snapshot its state machine was initialised from.
        let at = self.tail.load(Ordering::Acquire);
        let cell = Arc::new(AtomicU64::new(at));
        cursors.push(Arc::clone(&cell));
        ReplicaCursor {
            id: cursors.len() - 1,
            at,
            cell,
        }
    }

    /// Appends one operation, returning its sequence number. Lock-free
    /// for the caller in the common case: the operation is published to
    /// the combining buffer and either this thread wins the combiner
    /// election and sequences the whole buffer in one storage
    /// acquisition, or it spins until another combiner sequences it.
    pub fn append(&self, op: T) -> u64 {
        self.appends.fetch_add(1, Ordering::Relaxed);
        let ticket = {
            let mut pending = self.pending.lock();
            let t = self.enqueued.fetch_add(1, Ordering::Relaxed);
            pending.push(op);
            t
        };
        let mut spins = 0u32;
        while self.tail.load(Ordering::Acquire) <= ticket {
            if self
                .combining
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                self.combine();
                self.combining.store(false, Ordering::Release);
                continue;
            }
            spins += 1;
            if spins.is_multiple_of(64) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        ticket
    }

    /// Sequences every published operation (combiner role). Runs with
    /// the `combining` flag held.
    fn combine(&self) {
        let mut batch = self.spare.lock();
        loop {
            std::mem::swap(&mut *self.pending.lock(), &mut *batch);
            if batch.is_empty() {
                return;
            }
            let n = batch.len() as u64;
            let mut store = self.storage.write();
            store.ops.extend(batch.drain(..));
            let new_tail = self.tail.load(Ordering::Relaxed) + n;
            self.tail.store(new_tail, Ordering::Release);
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.max_batch.fetch_max(n, Ordering::Relaxed);
            if store.ops.len() > self.cfg.high_water {
                self.compact(&mut store, new_tail);
            }
        }
    }

    /// Trims the applied prefix; advances past stragglers lagging more
    /// than `max_lag` (they rebuild from a snapshot on their next sync).
    /// Only cursors the log will still serve pin the floor: a retired
    /// one, or one behind `base` or the lag bound, has nothing left to
    /// wait for.
    fn compact(&self, store: &mut Store<T>, tail: u64) {
        let floor = tail.saturating_sub(self.cfg.max_lag).max(store.base);
        let mut new_head = tail;
        let mut overrun = 0;
        for cursor in self.cursors.read().iter() {
            let at = cursor.load(Ordering::Acquire);
            if at == u64::MAX || at < store.base {
                continue; // retired, or overrun by an earlier pass
            }
            if at < floor {
                overrun += 1;
            } else {
                new_head = new_head.min(at);
            }
        }
        if new_head > store.base {
            self.overruns.fetch_add(overrun, Ordering::Relaxed);
            store.ops.drain(..(new_head - store.base) as usize);
            store.base = new_head;
            self.head.store(new_head, Ordering::Release);
            self.compactions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Applies every operation between the replica's cursor and the
    /// published tail, in sequence order, through `apply(seq, op)`.
    ///
    /// Returns [`SyncOutcome::Overrun`] when compaction has advanced
    /// past the cursor; the caller must rebuild from a snapshot and
    /// [`OpLog::install_snapshot`].
    pub fn sync(&self, cursor: &mut ReplicaCursor, mut apply: impl FnMut(u64, &T)) -> SyncOutcome {
        let at = cursor.at;
        if at >= self.tail.load(Ordering::Acquire) {
            return SyncOutcome::Applied(0);
        }
        let store = self.storage.read();
        if at < store.base {
            return SyncOutcome::Overrun;
        }
        let upto = store.base + store.ops.len() as u64;
        for (i, op) in store.ops.range((at - store.base) as usize..).enumerate() {
            apply(at + i as u64, op);
        }
        cursor.at = upto;
        cursor.cell.store(upto, Ordering::Release);
        SyncOutcome::Applied(upto - at)
    }

    /// Declares the replica rebuilt from a snapshot taken at `seq`
    /// (typically [`OpLog::tail`] observed while the authoritative state
    /// was locked). Subsequent syncs resume from there.
    pub fn install_snapshot(&self, cursor: &mut ReplicaCursor, seq: u64) {
        cursor.at = seq;
        cursor.cell.store(seq, Ordering::Release);
    }

    /// Permanently retires a replica: its cursor stops pinning compaction
    /// and stops contributing to `max_lag_now`. Used when a replica's
    /// owner (an engine shard) is fenced — a dead shard must not hold the
    /// log hostage. The cursor slot is tombstoned, never reused.
    pub fn retire(&self, cursor: &ReplicaCursor) {
        cursor.cell.store(u64::MAX, Ordering::Release);
    }

    /// The published tail (next sequence to be assigned).
    pub fn tail(&self) -> u64 {
        self.tail.load(Ordering::Acquire)
    }

    /// The compaction floor.
    pub fn head(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Entries the replica is behind the published tail.
    pub fn lag(&self, cursor: &ReplicaCursor) -> u64 {
        self.tail().saturating_sub(cursor.at)
    }

    /// A counter snapshot.
    pub fn stats(&self) -> LogStats {
        let tail = self.tail();
        let head = self.head();
        let max_lag_now = self
            .cursors
            .read()
            .iter()
            .map(|c| c.load(Ordering::Acquire))
            .filter(|&at| at != u64::MAX) // retired replicas don't lag
            .map(|at| tail.saturating_sub(at))
            .max()
            .unwrap_or(0);
        LogStats {
            tail,
            head,
            depth: tail - head,
            appends: self.appends.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            max_batch: self.max_batch.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
            overruns: self.overruns.load(Ordering::Relaxed),
            max_lag_now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn append_sync_round_trip() {
        let log = OpLog::new(LogConfig::default());
        let mut r = log.register();
        for i in 0..10u64 {
            assert_eq!(log.append(i), i);
        }
        let mut seen = Vec::new();
        let out = log.sync(&mut r, |seq, op| seen.push((seq, *op)));
        assert_eq!(out, SyncOutcome::Applied(10));
        assert_eq!(seen, (0..10).map(|i| (i, i)).collect::<Vec<_>>());
        // Idempotent: nothing new to apply.
        assert_eq!(log.sync(&mut r, |_, _| panic!()), SyncOutcome::Applied(0));
    }

    #[test]
    fn two_replicas_apply_exactly_once_each() {
        let log = OpLog::new(LogConfig::default());
        let mut a = log.register();
        let mut b = log.register();
        for i in 0..100u64 {
            log.append(i);
        }
        let mut sum_a = 0u64;
        log.sync(&mut a, |_, op| sum_a += op);
        for i in 100..200u64 {
            log.append(i);
        }
        log.sync(&mut a, |_, op| sum_a += op);
        let mut sum_b = 0u64;
        log.sync(&mut b, |_, op| sum_b += op);
        let want: u64 = (0..200).sum();
        assert_eq!(sum_a, want);
        assert_eq!(sum_b, want);
    }

    #[test]
    fn compaction_trims_applied_prefix_only() {
        let log = OpLog::new(LogConfig {
            high_water: 16,
            max_lag: u64::MAX,
        });
        let mut fast = log.register();
        let mut slow = log.register();
        for i in 0..64u64 {
            log.append(i);
            log.sync(&mut fast, |_, _| {});
        }
        // `slow` never synced, so nothing may be trimmed past zero.
        assert_eq!(log.head(), 0);
        let mut n = 0u64;
        assert_eq!(log.sync(&mut slow, |_, _| n += 1), SyncOutcome::Applied(64));
        assert_eq!(n, 64);
        // The next compaction can now trim everything.
        for i in 64..128u64 {
            log.append(i);
        }
        log.sync(&mut fast, |_, _| {});
        log.sync(&mut slow, |_, _| {});
        log.append(128);
        assert!(log.head() >= 64, "head={} after full sync", log.head());
    }

    #[test]
    fn straggler_overruns_and_rebuilds() {
        let log = OpLog::new(LogConfig {
            high_water: 8,
            max_lag: 16,
        });
        let mut fast = log.register();
        let mut slow = log.register();
        for i in 0..100u64 {
            log.append(i);
            log.sync(&mut fast, |_, _| {});
        }
        assert!(log.stats().overruns > 0, "straggler must be overrun");
        assert_eq!(log.sync(&mut slow, |_, _| {}), SyncOutcome::Overrun);
        // Snapshot rebuild: resume from the tail.
        let tail = log.tail();
        log.install_snapshot(&mut slow, tail);
        log.append(100);
        let mut got = Vec::new();
        assert_eq!(
            log.sync(&mut slow, |seq, op| got.push((seq, *op))),
            SyncOutcome::Applied(1)
        );
        assert_eq!(got, vec![(100, 100)]);
    }

    /// One replica that never syncs costs the log one overrun and then
    /// nothing: it stops pinning the floor, so the log swings between
    /// empty and `high_water` instead of sitting at `max_lag` and
    /// trimming (and counting an overrun) on every append.
    #[test]
    fn dead_slow_replica_costs_one_overrun_and_amortised_trims() {
        let cfg = LogConfig {
            high_water: 64,
            max_lag: 256,
        };
        let log = OpLog::new(cfg);
        let mut straggler = log.register();
        let run = |from: u64, to: u64, overruns_before: u64| {
            for i in from..to {
                log.append(i);
                let st = log.stats();
                assert!(st.depth <= cfg.max_lag + 1, "depth {} at {i}", st.depth);
                if st.overruns > overruns_before {
                    assert!(st.depth <= cfg.high_water as u64 + 1, "{st:?} at {i}");
                }
            }
            log.stats()
        };
        let st = run(0, 10_000, 0);
        assert_eq!(st.overruns, 1, "{st:?}");
        assert!(
            st.compactions <= st.appends / cfg.high_water as u64 + 2,
            "{st:?}"
        );
        // Re-installed at the tail it pins again, until it is overrun a
        // second time — and that is the second event, not the 10 000th.
        assert_eq!(log.sync(&mut straggler, |_, _| {}), SyncOutcome::Overrun);
        log.install_snapshot(&mut straggler, log.tail());
        let st = run(10_000, 20_000, 1);
        assert_eq!(st.overruns, 2, "{st:?}");
        assert!(
            st.compactions <= st.appends / cfg.high_water as u64 + 4,
            "{st:?}"
        );
    }

    /// A straggler sleeps through `burst` appends on a log that may
    /// compact past it, then through four more, syncing in between and
    /// recovering (`Overrun` → snapshot at the tail) as often as the log
    /// demands — with a small `max_lag` a recovered replica is overrun
    /// again two appends later. However many rounds that takes: nothing
    /// is applied twice, everything appended after the last installed
    /// snapshot is applied, and every round shows in `LogStats::overruns`.
    /// Returns the number of rounds.
    fn straggler_recovers(burst: u64, max_lag: u64) -> u32 {
        let log = OpLog::new(LogConfig {
            high_water: 8,
            max_lag,
        });
        let mut fresh = log.register();
        let mut straggler = log.register();
        let mut applied: Vec<u64> = Vec::new();
        let mut owed_from = 0;
        let mut rounds = 0;
        let mut counted = 0;
        let mut catch_up = |straggler: &mut ReplicaCursor| loop {
            match log.sync(straggler, |seq, op| {
                assert_eq!(seq, *op, "entry delivered under another's sequence");
                applied.push(seq);
            }) {
                SyncOutcome::Applied(_) => return,
                SyncOutcome::Overrun => {
                    let overruns = log.stats().overruns;
                    assert!(overruns > counted, "an uncounted overrun round");
                    counted = overruns;
                    rounds += 1;
                    owed_from = log.tail();
                    log.install_snapshot(straggler, owed_from);
                }
            }
        };
        for seq in 0..burst {
            log.append(seq);
            log.sync(&mut fresh, |_, _| {});
        }
        catch_up(&mut straggler);
        for i in 0..4 {
            log.append(burst + i);
            log.sync(&mut fresh, |_, _| {});
            if i % 2 == 1 {
                catch_up(&mut straggler);
            }
        }
        assert!(applied.windows(2).all(|w| w[0] < w[1]), "applied twice");
        let owed: Vec<u64> = (owed_from..log.tail()).collect();
        assert!(
            applied.ends_with(&owed),
            "burst {burst}, max_lag {max_lag}: {rounds} round(s), owed {owed:?}, applied {applied:?}"
        );
        assert_eq!(log.lag(&straggler), 0);
        assert_eq!(rounds == 0, log.stats().overruns == 0);
        rounds
    }

    /// The two shapes the old property (`max_lag == 1`, `burst ≡ 7 mod 8`)
    /// called failures: the second append after the burst is the ninth
    /// resident entry, so compaction runs and overruns a straggler that
    /// is legitimately two behind — for the long burst, a second time.
    #[test]
    fn straggler_overrun_right_after_catching_up_still_recovers() {
        assert_eq!(straggler_recovers(7, 1), 1);
        assert_eq!(straggler_recovers(199, 1), 2);
    }

    #[test]
    fn straggler_recovers_over_the_whole_input_space() {
        for burst in 1..200 {
            for max_lag in 1..32 {
                straggler_recovers(burst, max_lag);
            }
        }
        // Generous allowances never overrun at all.
        assert_eq!(straggler_recovers(199, 300), 0);
    }

    #[test]
    fn concurrent_appends_sequence_every_ticket() {
        let log = OpLog::new(LogConfig::default());
        let mut r = log.register();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let log = Arc::clone(&log);
                s.spawn(move || {
                    for i in 0..500u64 {
                        log.append(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(log.tail(), 2000);
        let mut count = 0u64;
        let mut sum = 0u64;
        log.sync(&mut r, |_, op| {
            count += 1;
            sum += op;
        });
        assert_eq!(count, 2000);
        let want: u64 = (0..4)
            .map(|t: u64| (0..500).map(|i| t * 1000 + i).sum::<u64>())
            .sum();
        assert_eq!(sum, want);
        let st = log.stats();
        assert_eq!(st.appends, 2000);
        assert!(st.batches <= st.appends);
    }

    #[test]
    fn retired_replica_neither_pins_nor_lags() {
        let log = OpLog::new(LogConfig {
            high_water: 8,
            max_lag: u64::MAX,
        });
        let mut live = log.register();
        let dead = log.register();
        for i in 0..64u64 {
            log.append(i);
            log.sync(&mut live, |_, _| {});
        }
        // The idle replica pins compaction at zero...
        assert_eq!(log.head(), 0);
        assert_eq!(log.stats().max_lag_now, 64);
        // ...until it is retired, after which the next compaction trims
        // the fully-applied prefix and the lag stat ignores it.
        log.retire(&dead);
        log.append(64);
        log.sync(&mut live, |_, _| {});
        log.append(65);
        assert!(log.head() >= 64, "head={} after retire", log.head());
        log.sync(&mut live, |_, _| {});
        assert_eq!(log.stats().max_lag_now, 0);
    }

    #[test]
    fn stats_report_depth_and_lag() {
        let log = OpLog::new(LogConfig::default());
        let mut r = log.register();
        let _idle = log.register();
        for i in 0..5u64 {
            log.append(i);
        }
        log.sync(&mut r, |_, _| {});
        let st = log.stats();
        assert_eq!(st.tail, 5);
        assert_eq!(st.depth, 5);
        assert_eq!(st.max_lag_now, 5, "idle replica lags the full log");
        assert_eq!(log.lag(&r), 0);
    }
}
