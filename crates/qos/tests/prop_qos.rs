//! Property-based tests for QoS invariants: DWRR freedom from
//! starvation, token-bucket admission bounds, and shed accounting.

use proptest::collection::vec;
use proptest::prelude::*;
use solros_qos::{
    Dispatch, FlowSpec, HostConfig, HostGate, HostScheduler, QosClass, Service, TokenBucket,
    Verdict,
};

fn open_spec(name: String, weight: u32) -> FlowSpec {
    FlowSpec {
        name,
        class: QosClass::Normal,
        weight,
        ops_per_sec: 0,
        bytes_per_sec: 0,
        burst_ops: 0,
        burst_bytes: 0,
        queue_cap: usize::MAX,
        deadline_ns: 0,
        sheddable: false,
    }
}

fn gate(specs: Vec<FlowSpec>, quantum: u64, threshold: usize) -> HostGate<u64> {
    let host = HostScheduler::new(HostConfig::default());
    HostGate::new(specs, quantum, threshold, &host, Service::Fs, 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A non-empty flow is served within one full DWRR round no matter
    /// how aggressively a competing flow is topped up: the scheduler
    /// never starves a backlogged class.
    #[test]
    fn dwrr_never_starves_nonempty_class(
        aggressor_weight in 1u32..16,
        victim_weight in 1u32..16,
        cost in 1u64..4096,
    ) {
        const QUANTUM: u64 = 4096;
        let mut s = gate(
            vec![
                open_spec("aggressor".into(), aggressor_weight),
                open_spec("victim".into(), victim_weight),
            ],
            QUANTUM,
            usize::MAX,
        );
        prop_assert!(matches!(s.submit(1, cost, 0, 0), Verdict::Admitted));
        // One aggressor turn serves at most deficit/cost requests, and the
        // deficit of a flow whose head always fits never exceeds one
        // quantum grant. Give a generous 2x margin.
        let bound = 2 * (aggressor_weight as u64 * QUANTUM / cost + 2);
        let mut waited = 0u64;
        loop {
            // Keep the aggressor permanently backlogged.
            while s.queued(0) < 4 {
                prop_assert!(matches!(s.submit(0, cost, 0, 1), Verdict::Admitted));
            }
            match s.dispatch(0) {
                Dispatch::Run { flow: 1, .. } => break,
                Dispatch::Run { .. } => waited += 1,
                other => {
                    return Err(TestCaseError::fail(format!("unexpected {other:?}")));
                }
            }
            prop_assert!(waited <= bound, "victim starved for {waited} > {bound} dispatches");
        }
    }

    /// Token buckets never admit more than `burst + rate × elapsed`,
    /// regardless of the take pattern.
    #[test]
    fn token_bucket_respects_rate_bound(
        rate in 1u64..100_000,
        burst in 1u64..10_000,
        steps in vec((0u64..10_000_000, 1u64..64), 1..64),
    ) {
        let mut b = TokenBucket::new(rate, burst);
        let mut now = 0u64;
        let mut admitted: u128 = 0;
        for (dt, n) in steps {
            now += dt;
            if b.try_take(n, now) {
                admitted += n as u128;
            }
            // Exact bound in token·ns fixed point (no float slack).
            let cap = burst as u128 * 1_000_000_000 + rate as u128 * now as u128;
            prop_assert!(
                admitted * 1_000_000_000 <= cap,
                "admitted {admitted} tokens by {now} ns exceeds rate bound"
            );
        }
    }

    /// Every request offered to the gate is accounted for: at quiescence,
    /// `admitted + shed == submitted` and `dispatched == admitted` hold
    /// per flow, across arbitrary interleavings of submits, dispatches,
    /// deadlines, queue caps, and overload shedding.
    #[test]
    fn sheds_are_fully_accounted(
        caps in vec(1usize..8, 2..5),
        overload_threshold in 1usize..16,
        deadline_ns in 0u64..2_000,
        events in vec((0usize..5, 0u64..1_500, 1u64..2048), 1..128),
    ) {
        let specs: Vec<FlowSpec> = caps
            .iter()
            .enumerate()
            .map(|(i, &cap)| FlowSpec {
                queue_cap: cap,
                deadline_ns,
                sheddable: i % 2 == 1,
                ..open_spec(format!("f{i}"), 1 + i as u32)
            })
            .collect();
        let nflows = specs.len();
        let mut s = gate(specs, 1024, overload_threshold);
        let mut now = 0u64;
        let mut dispatched = 0u64;
        let mut shed = 0u64;
        let mut submitted = 0u64;
        for (op, dt, bytes) in events {
            now += dt;
            if op < nflows {
                submitted += 1;
                if let Verdict::Shed { .. } = s.submit(op, bytes, now, submitted) {
                    shed += 1;
                }
            } else {
                match s.dispatch(now) {
                    Dispatch::Run { .. } => dispatched += 1,
                    Dispatch::Shed { .. } => shed += 1,
                    Dispatch::Idle => {}
                }
            }
        }
        // Quiesce: drain whatever is still queued (counts as shed).
        shed += s.drain().len() as u64;
        prop_assert_eq!(dispatched + shed, submitted, "requests lost or duplicated");
        for snap in s.stats().snapshot() {
            prop_assert!(
                snap.accounted(),
                "flow {}: admitted {} + shed {} != submitted {}",
                snap.name, snap.admitted, snap.shed, snap.submitted
            );
            prop_assert_eq!(snap.dispatched, snap.admitted);
        }
    }
}
