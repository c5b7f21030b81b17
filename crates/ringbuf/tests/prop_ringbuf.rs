//! Property tests for the combining infrastructure and locks.

use std::sync::Arc;

use solros_ringbuf::combiner::Combiner;
use solros_ringbuf::locks::{LockedCounter, McsLock, RawLock, TicketLock};
use solros_simkit::check;

// Each case spawns threads; keep the case count moderate.
const CASES: u64 = 12;

/// The combiner applies every submitted operation exactly once, for
/// any thread count, op count, and batching threshold.
#[test]
fn combiner_exactly_once() {
    check::cases(CASES, |rng| {
        let threads = rng.range(1..6) as usize;
        let ops = rng.range(1..800);
        let threshold = rng.range(1..128) as usize;
        let c = Arc::new(Combiner::<u64, u64, u64>::new(0, threshold));
        std::thread::scope(|s| {
            for _ in 0..threads {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..ops {
                        c.submit(
                            1,
                            |state, op| {
                                *state += op;
                                *state
                            },
                            |_| {},
                        );
                    }
                });
            }
        });
        let total = c.submit(
            0,
            |state, op| {
                *state += op;
                *state
            },
            |_| {},
        );
        assert_eq!(total, threads as u64 * ops);
        assert_eq!(c.combined_ops(), threads as u64 * ops + 1);
    });
}

/// Locks provide mutual exclusion for arbitrary contender counts.
#[test]
fn locks_exclusive() {
    check::cases(CASES, |rng| {
        let threads = rng.range(2..6) as usize;
        let iters = rng.range(100..2_000);
        fn hammer<L: RawLock>(threads: usize, iters: u64) -> u64 {
            let counter = Arc::new(LockedCounter::<L>::default());
            std::thread::scope(|s| {
                for _ in 0..threads {
                    let c = Arc::clone(&counter);
                    s.spawn(move || {
                        for _ in 0..iters {
                            c.increment();
                        }
                    });
                }
            });
            counter.get()
        }
        assert_eq!(hammer::<TicketLock>(threads, iters), threads as u64 * iters);
        assert_eq!(hammer::<McsLock>(threads, iters), threads as u64 * iters);
    });
}
