//! Property-based tests for the sharded control plane's replication
//! contract: every replica of an operation log applies every entry
//! exactly once and in order, regardless of how appends from concurrent
//! mutators interleave with syncs — so balancer connection counts never
//! go negative and tenant-ledger charges are never double-counted.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread;

use solros::balancer::{ConnMeta, LeastLoaded, LoadBalancer};
use solros_oplog::{LogConfig, OpLog, SyncOutcome};
use solros_qos::TenantLedger;
use solros_simkit::check::{self, vec};

/// A replica's materialized view for the generic convergence property:
/// the full per-mutator sequence of values it applied, in apply order.
type View = HashMap<u8, Vec<u32>>;

fn apply(view: &mut View, op: &(u8, u32)) {
    view.entry(op.0).or_default().push(op.1);
}

/// Exactly-once, in-order delivery: after all mutators finish, every
/// replica — whether it synced live alongside the appends or only once
/// at the end — holds each mutator's full sequence in order, with no
/// entry missing, duplicated, or reordered. Compaction runs throughout
/// (small high-water), so this also proves trimming never outruns a
/// registered cursor.
fn run_convergence(streams: Vec<Vec<u32>>) {
    let log: Arc<OpLog<(u8, u32)>> = OpLog::new(LogConfig {
        high_water: 32,
        max_lag: u64::MAX,
    });
    let mut live = log.register();
    let mut lazy = log.register();
    let mut live_view = View::new();

    thread::scope(|s| {
        for (id, stream) in streams.iter().enumerate() {
            let log = Arc::clone(&log);
            s.spawn(move || {
                for &v in stream {
                    log.append((id as u8, v));
                }
            });
        }
        // The live replica races the mutators; interleaved partial syncs
        // must still observe each stream as a prefix in order.
        for _ in 0..64 {
            let outcome = log.sync(&mut live, |_, op| apply(&mut live_view, op));
            assert!(!matches!(outcome, SyncOutcome::Overrun));
            for (id, seen) in &live_view {
                let want = &streams[*id as usize];
                assert!(
                    seen.len() <= want.len() && seen[..] == want[..seen.len()],
                    "mid-run view is not an in-order prefix"
                );
            }
            thread::yield_now();
        }
    });

    log.sync(&mut live, |_, op| apply(&mut live_view, op));
    let mut lazy_view = View::new();
    log.sync(&mut lazy, |_, op| apply(&mut lazy_view, op));

    let want: View = streams
        .iter()
        .enumerate()
        .filter(|(_, s)| !s.is_empty())
        .map(|(id, s)| (id as u8, s.clone()))
        .collect();
    assert_eq!(live_view, want, "live replica diverged");
    assert_eq!(lazy_view, want, "lazy replica diverged");
    assert_eq!(log.lag(&live), 0);
    assert_eq!(log.lag(&lazy), 0);
}

/// A lag-bounded log overruns a straggler instead of retaining unbounded
/// history, and it may do so again right after the straggler recovered:
/// with `high_water: 8` the second append after a recovery can be the
/// ninth resident entry, so compaction runs with the straggler two
/// behind against an allowance of one. After any number of `Overrun` →
/// `install_snapshot` rounds, every entry appended after the last
/// installed snapshot is applied exactly once, none is applied twice,
/// and `LogStats::overruns` counts each round. (`solros-oplog`'s own
/// tests run the two shapes that used to fail here, `(7, 1)` and
/// `(199, 1)`, and the whole input space.)
fn run_overrun_recovery(burst: u32, max_lag: u64) {
    let log: Arc<OpLog<u32>> = OpLog::new(LogConfig {
        high_water: 8,
        max_lag,
    });
    let mut fresh = log.register();
    let mut straggler = log.register();
    let mut applied: Vec<u64> = Vec::new();
    let mut owed_from = 0;
    let mut rounds = 0u64;
    let mut counted = 0;
    let mut catch_up = |straggler: &mut solros_oplog::ReplicaCursor| loop {
        match log.sync(straggler, |seq, _| applied.push(seq)) {
            SyncOutcome::Applied(_) => return,
            SyncOutcome::Overrun => {
                // The straggler lost history it can no longer read; a
                // real replica rebuilds from an authoritative snapshot
                // and resumes.
                let overruns = log.stats().overruns;
                assert!(overruns > counted, "an uncounted overrun round");
                counted = overruns;
                rounds += 1;
                owed_from = log.tail();
                log.install_snapshot(straggler, owed_from);
            }
        }
    };
    // The straggler sleeps through the burst...
    let mut fresh_sum: u64 = 0;
    for v in 0..burst {
        log.append(v);
        log.sync(&mut fresh, |_, &op| fresh_sum += u64::from(op));
    }
    assert_eq!(fresh_sum, (0..u64::from(burst)).sum::<u64>());
    catch_up(&mut straggler);
    // ... and through every other append after it.
    for i in 0..4 {
        log.append(7_000_000 + i);
        log.sync(&mut fresh, |_, _| {});
        if i % 2 == 1 {
            catch_up(&mut straggler);
        }
    }
    assert!(applied.windows(2).all(|w| w[0] < w[1]), "applied twice");
    let owed: Vec<u64> = (owed_from..log.tail()).collect();
    assert!(
        applied.ends_with(&owed),
        "entries after the last snapshot must apply exactly once: \
         {rounds} round(s), owed {owed:?}, applied {applied:?}"
    );
    assert_eq!(log.lag(&straggler), 0);
    assert_eq!(rounds == 0, log.stats().overruns == 0);
}

/// Balancer ops as they ride the TCP control log.
#[derive(Debug, Clone, Copy)]
enum LbOp {
    Assign(usize),
    Close(usize),
}

/// Replays a valid assign/close workload (every close matches a prior
/// assign, as the TCP proxy guarantees: `ConnClosed` is only appended
/// for a sock that was accepted) through two forked LeastLoaded
/// replicas via a shared log. Counts must never go negative on either
/// replica, the negative-excursion tripwire must stay zero, and both
/// replicas converge to assigned-minus-closed.
fn run_balancer_replay(interleave: Vec<(u8, bool)>, slots: usize) {
    // Turn the generated schedule into a valid op stream: `bool` picks
    // assign vs close; closes with nothing open become assigns.
    let mut open: Vec<usize> = Vec::new();
    let mut ops: Vec<LbOp> = Vec::new();
    let mut expected = vec![0i64; slots];
    for (slot_seed, close) in interleave {
        let slot = slot_seed as usize % slots;
        if close && !open.is_empty() {
            let victim = open.swap_remove(slot_seed as usize % open.len());
            ops.push(LbOp::Close(victim));
            expected[victim] -= 1;
        } else {
            open.push(slot);
            ops.push(LbOp::Assign(slot));
            expected[slot] += 1;
        }
    }

    let log: Arc<OpLog<LbOp>> = OpLog::new(LogConfig {
        high_water: 16,
        max_lag: u64::MAX,
    });
    // `LoadBalancer::fork` hands each shard a clean replica; concrete
    // `LeastLoaded` values model the same thing while keeping the
    // inspection methods (`in_flight`, `negative_excursions`) reachable.
    let shards: Vec<LeastLoaded> = vec![LeastLoaded::default(), LeastLoaded::default()];
    let mut cursors: Vec<_> = (0..shards.len()).map(|_| log.register()).collect();

    for chunk in ops.chunks(3) {
        for &op in chunk {
            log.append(op);
        }
        // Shards sync at different cadences; each must stay non-negative
        // at every intermediate step because closes follow assigns in
        // log order.
        for (shard, cursor) in shards.iter().zip(cursors.iter_mut()) {
            log.sync(cursor, |_, op| match *op {
                LbOp::Assign(s) => shard.conn_assigned(s),
                LbOp::Close(s) => shard.conn_closed(s),
            });
        }
    }
    for (shard, cursor) in shards.iter().zip(cursors.iter_mut()) {
        log.sync(cursor, |_, op| match *op {
            LbOp::Assign(s) => shard.conn_assigned(s),
            LbOp::Close(s) => shard.conn_closed(s),
        });
    }

    for ll in &shards {
        assert_eq!(ll.negative_excursions(), 0, "count went negative");
        for (slot, &want) in expected.iter().enumerate() {
            assert!(want >= 0);
            assert_eq!(ll.in_flight(slot), want, "slot {slot} diverged");
        }
        // With identical replicated state, every replica makes the same
        // load-based decision: it must prefer a minimum-load slot.
        let pick = ll.pick(
            slots,
            &ConnMeta {
                client_addr: 1,
                port: 80,
            },
        );
        let min = (0..slots).map(|s| ll.in_flight(s)).min().unwrap();
        assert_eq!(ll.in_flight(pick), min, "picked a non-minimum slot");
    }
}

/// The tenant ledger never double-applies a charge: with mutator
/// threads charging concurrently and replicas syncing mid-storm, every
/// replica's totals equal the exact generated sums.
fn run_ledger_storm(charges: Vec<(u8, u8, u16)>, mutators: usize) {
    let ledger = TenantLedger::new();
    let observer = ledger.replica();
    let chunks: Vec<&[(u8, u8, u16)]> = charges.chunks(charges.len() / mutators + 1).collect();
    thread::scope(|s| {
        for chunk in &chunks {
            let ledger = Arc::clone(&ledger);
            s.spawn(move || {
                for &(tenant, ops, bytes) in *chunk {
                    ledger.charge(tenant % 4, u64::from(ops), u64::from(bytes));
                }
            });
        }
        // Observer races the mutators; partial sums only ever grow.
        let mut last = (0, 0);
        for _ in 0..32 {
            let now = observer.total();
            assert!(now.0 >= last.0 && now.1 >= last.1, "totals regressed");
            last = now;
            thread::yield_now();
        }
    });

    // The scope joined every mutator, so `late` registers at the final
    // tail and owns only future charges.
    let late = ledger.replica();
    let want_ops: u64 = charges.iter().map(|&(_, o, _)| u64::from(o)).sum();
    let want_bytes: u64 = charges.iter().map(|&(_, _, b)| u64::from(b)).sum();
    assert_eq!(observer.total(), (want_ops, want_bytes));
    assert_eq!(late.total(), (0, 0), "late replica starts at the tail");
    assert_eq!(observer.lag(), 0);
}

const CASES: u64 = 24;

#[test]
fn replicas_converge_under_concurrent_mutators() {
    check::cases(CASES, |rng| {
        run_convergence(vec(rng, 1..4, |r| vec(r, 0..40, |r| r.next_u64() as u32)));
    });
}

#[test]
fn stragglers_recover_from_overrun_exactly_once() {
    check::cases(CASES, |rng| {
        let burst = rng.range(1..200) as u32;
        let max_lag = rng.range(1..32);
        run_overrun_recovery(burst, max_lag);
    });
}

#[test]
fn balancer_counts_never_negative_across_replicas() {
    check::cases(CASES, |rng| {
        let interleave = vec(rng, 0..100, |r| (r.next_u64() as u8, r.chance(0.5)));
        let slots = rng.range(1..6) as usize;
        run_balancer_replay(interleave, slots);
    });
}

#[test]
fn ledger_charges_apply_exactly_once_per_replica() {
    check::cases(CASES, |rng| {
        let charges = vec(rng, 0..120, |r| {
            (r.next_u64() as u8, r.next_u64() as u8, r.next_u64() as u16)
        });
        let mutators = rng.range(1..4) as usize;
        run_ledger_storm(charges, mutators);
    });
}
