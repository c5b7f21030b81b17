//! Property-based tests for the operation log's replication contract:
//! every replica applies every entry exactly once and in order,
//! regardless of how appends from concurrent mutators interleave with
//! syncs, and a straggler that overruns the log recovers exactly once
//! through a snapshot.

use std::collections::HashMap;
use std::sync::Arc;
use std::thread;

use solros_oplog::{LogConfig, OpLog, SyncOutcome};
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
