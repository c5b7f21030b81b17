//! Property-based tests for QoS invariants: DWRR freedom from
//! starvation and shed accounting.

use solros_qos::{
    Dispatch, FlowSpec, HostConfig, HostGate, HostScheduler, QosClass, Service, Verdict,
};
use solros_simkit::check;

fn open_spec(name: String, weight: u32) -> FlowSpec {
    FlowSpec {
        name,
        class: QosClass::Normal,
        weight,
        queue_cap: usize::MAX,
        deadline_ns: 0,
        sheddable: false,
    }
}

fn gate(specs: Vec<FlowSpec>, quantum: u64, threshold: usize) -> HostGate<u64> {
    let host = HostScheduler::new(HostConfig::default());
    HostGate::new(specs, quantum, threshold, &host, Service::Fs, 0)
}

const CASES: u64 = 64;

/// A non-empty flow is served within one full DWRR round no matter
/// how aggressively a competing flow is topped up: the scheduler
/// never starves a backlogged class.
#[test]
fn dwrr_never_starves_nonempty_class() {
    check::cases(CASES, |rng| {
        let aggressor_weight = rng.range(1..16) as u32;
        let victim_weight = rng.range(1..16) as u32;
        let cost = rng.range(1..4096);
        const QUANTUM: u64 = 4096;
        let mut s = gate(
            vec![
                open_spec("aggressor".into(), aggressor_weight),
                open_spec("victim".into(), victim_weight),
            ],
            QUANTUM,
            usize::MAX,
        );
        assert!(matches!(s.submit(1, cost, 0, 0), Verdict::Admitted));
        // One aggressor turn serves at most deficit/cost requests, and the
        // deficit of a flow whose head always fits never exceeds one
        // quantum grant. Give a generous 2x margin.
        let bound = 2 * (aggressor_weight as u64 * QUANTUM / cost + 2);
        let mut waited = 0u64;
        loop {
            // Keep the aggressor permanently backlogged.
            while s.queued(0) < 4 {
                assert!(matches!(s.submit(0, cost, 0, 1), Verdict::Admitted));
            }
            match s.dispatch(0) {
                Dispatch::Run { flow: 1, .. } => break,
                Dispatch::Run { .. } => waited += 1,
                other => {
                    panic!("unexpected {other:?}")
                }
            }
            assert!(
                waited <= bound,
                "victim starved for {waited} > {bound} dispatches"
            );
        }
    });
}

/// Every request offered to the gate is accounted for: at quiescence,
/// `admitted + shed == submitted` and `dispatched == admitted` hold
/// per flow, across arbitrary interleavings of submits, dispatches,
/// deadlines, queue caps, and overload shedding.
#[test]
fn sheds_are_fully_accounted() {
    check::cases(CASES, |rng| {
        let caps = check::vec(rng, 2..5, |r| r.range(1..8) as usize);
        let overload_threshold = rng.range(1..16) as usize;
        let deadline_ns = rng.range(0..2_000);
        let events = check::vec(rng, 1..128, |r| {
            (r.range(0..5) as usize, r.range(0..1_500), r.range(1..2048))
        });
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
        assert_eq!(dispatched + shed, submitted, "requests lost or duplicated");
        for snap in s.stats().snapshot() {
            assert!(
                snap.accounted(),
                "flow {}: admitted {} + shed {} != submitted {}",
                snap.name,
                snap.admitted,
                snap.shed,
                snap.submitted
            );
            assert_eq!(snap.dispatched, snap.admitted);
        }
    });
}
