//! Property tests for the simulation kit: histogram accuracy, engine
//! ordering, resource conservation.

use std::cell::RefCell;
use std::rc::Rc;

use solros_simkit::check::{self, vec};
use solros_simkit::{Engine, FifoResource, Histogram, MultiChannel, SimTime};

const CASES: u64 = 128;

/// Histogram percentiles stay within the documented 1/16 relative
/// error of the exact order statistic.
#[test]
fn histogram_percentile_error_bounded() {
    check::cases(CASES, |rng| {
        let mut samples = vec(rng, 10..400, |r| r.range(1..100_000_000));
        let p = 1.0 + rng.unit() * 98.0;
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(SimTime::from_ns(s));
        }
        samples.sort_unstable();
        let rank = ((p / 100.0) * samples.len() as f64).ceil().max(1.0) as usize;
        let exact = samples[rank - 1] as f64;
        let got = h.percentile(p).as_ns() as f64;
        let err = (got - exact).abs() / exact;
        // 1/16 sub-bucket resolution plus rank rounding slack.
        assert!(err <= 0.20, "p{p}: exact {exact} got {got} err {err}");
    });
}

/// The engine runs every event exactly once, in timestamp order, with
/// ties in schedule order.
#[test]
fn engine_total_order() {
    check::cases(CASES, |rng| {
        let delays = vec(rng, 1..200, |r| r.range(0..1_000));
        let fired: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        let mut e = Engine::new();
        for (seq, &d) in delays.iter().enumerate() {
            let fired = Rc::clone(&fired);
            e.schedule(SimTime::from_ns(d), move |_, now| {
                fired.borrow_mut().push((now.as_ns(), seq));
            });
        }
        let n = e.run();
        assert_eq!(n as usize, delays.len());
        let fired = fired.borrow();
        assert_eq!(fired.len(), delays.len());
        for w in fired.windows(2) {
            assert!(
                w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1),
                "order violated: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    });
}

/// A FIFO resource conserves work: total busy time equals the sum of
/// service times, and completions never overlap.
#[test]
fn fifo_conserves_work() {
    check::cases(CASES, |rng| {
        let jobs = vec(rng, 1..100, |r| (r.range(0..1_000), r.range(1..500)));
        let mut r = FifoResource::new("prop");
        let mut total = SimTime::ZERO;
        let mut prev_done = SimTime::ZERO;
        let mut arrivals: Vec<(SimTime, SimTime)> = jobs
            .iter()
            .map(|&(a, s)| (SimTime::from_ns(a), SimTime::from_ns(s)))
            .collect();
        arrivals.sort_by_key(|(a, _)| *a);
        for (arrive, service) in arrivals {
            let done = r.acquire(arrive, service);
            assert!(done >= arrive + service);
            assert!(done >= prev_done + service, "overlapping service");
            prev_done = done;
            total += service;
        }
        assert_eq!(r.busy_time(), total);
    });
}

/// A multi-channel bank never completes later than a single FIFO
/// server given the same jobs.
#[test]
fn channels_never_hurt() {
    check::cases(CASES, |rng| {
        let jobs = vec(rng, 1..60, |r| r.range(1..500));
        let channels = rng.range(1..8) as usize;
        let mut single = FifoResource::new("one");
        let mut multi = MultiChannel::new("many", channels);
        let mut last_single = SimTime::ZERO;
        let mut last_multi = SimTime::ZERO;
        for &s in &jobs {
            last_single = single.acquire(SimTime::ZERO, SimTime::from_ns(s));
            last_multi = multi.acquire(SimTime::ZERO, SimTime::from_ns(s));
        }
        assert!(last_multi <= last_single);
    });
}
