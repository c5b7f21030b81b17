//! The one wait discipline: earned spinning, then yield, then a doorbell.
//!
//! Every consumer of a ring in this system — a stub thread waiting for
//! its reply, the proxy engines waiting for requests, a socket reader
//! draining the event ring, the event ring's idle backstop — waits the
//! same way:
//!
//! 1. **Spin only while spinning has been paying.** A probe of an empty
//!    ring is not free (a lock, a combiner pass, a remote refresh of the
//!    control-variable replica), and when the peer that must answer
//!    shares this CPU, spinning only delays it. Each wait site owns a
//!    [`SpinBudget`]: a wait that is satisfied inside the spin band
//!    doubles it (up to [`SPIN_LIMIT`]), a wait that has to leave the
//!    band halves it (down to [`SPIN_FLOOR`]). Roughly one wait in
//!    [`PROBE_EVERY`] spins the full [`SPIN_LIMIT`] regardless, and if
//!    that one is answered in-band the budget is restored, so a waiter
//!    whose peer moves to another core re-learns. The signal is what the
//!    running system did, never a configured value.
//! 2. **Yield while the peer was recently active** — at least
//!    [`YIELD_LIMIT`] turns, which on a shared CPU is what lets the peer
//!    run, and until [`YIELD_FOR`] has passed since the last progress. A
//!    park and the wake-up that ends it cost about that much between
//!    them when the woken thread lands on an idle (virtual) CPU, so a
//!    pause shorter than that — the gap between two waves of a closed
//!    loop — is cheaper yielded through than slept through.
//! 3. **Then arm a doorbell and park until it rings**
//!    ([`solros_ringbuf::Doorbell`]): arm, re-check every source, park.
//!    Parks are bounded by [`PARK_BOUND`] so duties that are clocks, not
//!    events — the shard heartbeat (a parked shard must not look wedged
//!    to the supervisor: 8 × 2 ms), the lease sweep against its 5 ms
//!    recall budget, QoS epoch upkeep, the shutdown flag — keep running,
//!    and so that no missed ring can hold a request longer than that.
//!
//! A requester and the engine serving it go through all three steps —
//! a socket reader is a requester too: it drains the event ring itself.
//! A poller nobody waits on by spinning or yielding (the event ring's
//! idle backstop, which only drains a stub no one reads) skips to step
//! 3: see [`WaitPolicy::parking`].
//!
//! [`WaitPolicy`] is the escalation; [`Sleeper`] adds the doorbell half
//! for waiters whose work arrives on rings.

use std::sync::atomic::{AtomicU32, Ordering};
use std::time::{Duration, Instant};

use solros_ringbuf::Doorbell;

/// Cap of the spin budget: probes before the first yield when spinning
/// has been paying.
pub const SPIN_LIMIT: u32 = 64;
/// Floor of the spin budget: probes before the first yield when it has
/// not.
pub const SPIN_FLOOR: u32 = 1;
/// One wait in this many spins the full [`SPIN_LIMIT`] to re-learn.
pub const PROBE_EVERY: u32 = 64;
/// Fewest yield iterations before the policy starts parking.
pub const YIELD_LIMIT: u32 = 16;
/// How long after the last progress a waiter keeps yielding before it
/// parks: about what one park plus one cross-CPU wake-up costs.
pub const YIELD_FOR: Duration = Duration::from_micros(50);
/// Longest a waiter sleeps without looking again.
pub const PARK_BOUND: Duration = Duration::from_millis(1);

/// What a waiter should do next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// Issue a spin-loop hint and retry.
    Spin,
    /// Yield the CPU and retry.
    Yield,
    /// Park on a doorbell for up to this long, then retry.
    Park(Duration),
}

/// The spin budget one wait site has earned (see the module docs).
/// Shared by every thread waiting at that site.
#[derive(Debug)]
pub struct SpinBudget {
    budget: AtomicU32,
    /// Waits that actually had to wait, for the sparse probe.
    waits: AtomicU32,
}

impl Default for SpinBudget {
    fn default() -> Self {
        Self::new()
    }
}

impl SpinBudget {
    /// A full budget: the first waits find out whether it is deserved.
    pub const fn new() -> Self {
        Self {
            budget: AtomicU32::new(SPIN_LIMIT),
            waits: AtomicU32::new(0),
        }
    }

    /// The budget a wait starting now would get (probes aside).
    pub fn current(&self) -> u32 {
        self.budget.load(Ordering::Relaxed)
    }

    /// The spin band for a wait that found nothing on its first look.
    fn begin(&self) -> u32 {
        let n = self.waits.fetch_add(1, Ordering::Relaxed);
        if n % PROBE_EVERY == PROBE_EVERY - 1 {
            SPIN_LIMIT
        } else {
            self.current()
        }
    }

    /// A wait with band `limit` was satisfied inside it.
    fn hit(&self, limit: u32) {
        let b = self.current();
        // Only a probe spins past the budget; one that pays restores it.
        let next = if limit > b { SPIN_LIMIT } else { b * 2 };
        self.budget.store(next.min(SPIN_LIMIT), Ordering::Relaxed);
    }

    /// A wait had to leave its spin band.
    fn miss(&self) {
        let b = self.current();
        self.budget
            .store((b / 2).max(SPIN_FLOOR), Ordering::Relaxed);
    }
}

/// The escalation for one blocking wait.
///
/// Create one per wait, call [`WaitPolicy::pause`] each time the
/// awaited condition is still false, and [`WaitPolicy::reset`] whenever
/// progress is observed. Dropping the policy ends the wait; a wait that
/// ends (or makes progress) inside its spin band counts as a hit for the
/// site's [`SpinBudget`], one that leaves the band as a miss. A wait that
/// never had to wait says nothing and leaves the budget alone.
#[derive(Debug)]
pub struct WaitPolicy<'a> {
    budget: Option<&'a SpinBudget>,
    /// Spin band of this wait, fixed at its first `advance`.
    limit: u32,
    attempts: u32,
    /// When this wait left its spin band.
    yielding_since: Option<Instant>,
    /// False for a waiter that parks as soon as it has nothing to do.
    yields: bool,
}

impl<'a> WaitPolicy<'a> {
    /// A fresh policy spinning on `budget`'s terms.
    pub fn new(budget: &'a SpinBudget) -> Self {
        Self {
            budget: Some(budget),
            limit: 0,
            attempts: 0,
            yielding_since: None,
            yields: true,
        }
    }

    /// A policy with no spin band, for pollers: an idle engine has no
    /// single reply to wait for, it yields while its peers are active
    /// and then parks.
    pub fn yielding() -> Self {
        Self {
            budget: None,
            limit: 0,
            attempts: 0,
            yielding_since: None,
            yields: true,
        }
    }

    /// A policy with neither band: arm and park at once. For a poller
    /// nobody waits on by spinning or yielding *at* it — the event ring's
    /// idle backstop, which drains only while no reader does. A yielding
    /// thread holds a run-queue slot, and with three of them on one CPU
    /// the number of turns a request takes depends on the order the
    /// scheduler happens to rotate them in (a 64 B echo took two, three
    /// or five rounds of the same three threads, run to run, while a
    /// dispatcher thread stood between the engine and the reader). A
    /// parked poller enters the queue only when its producer has rung.
    pub fn parking() -> Self {
        Self {
            yields: false,
            ..Self::yielding()
        }
    }

    /// Settles the band's outcome and rewinds to the spin band after
    /// observed progress.
    pub fn reset(&mut self) {
        if let Some(b) = self.budget {
            if self.attempts > 0 && self.attempts <= self.limit {
                b.hit(self.limit);
            }
        }
        self.attempts = 0;
        self.yielding_since = None;
    }

    /// Advances the policy and returns the next action.
    fn advance(&mut self) -> Wait {
        if self.attempts == 0 {
            self.limit = self.budget.map_or(0, SpinBudget::begin);
        }
        self.attempts = self.attempts.saturating_add(1);
        if self.attempts <= self.limit {
            return Wait::Spin;
        }
        if self.attempts == self.limit + 1 {
            if let Some(b) = self.budget {
                b.miss();
            }
        }
        if !self.yields {
            return Wait::Park(PARK_BOUND);
        }
        let since = *self.yielding_since.get_or_insert_with(Instant::now);
        if self.attempts <= self.limit + YIELD_LIMIT || since.elapsed() < YIELD_FOR {
            Wait::Yield
        } else {
            Wait::Park(PARK_BOUND)
        }
    }

    /// Executes the spin/yield step inline and returns `Some(bound)` once
    /// the policy says to park, leaving the park itself to the caller.
    pub fn pause(&mut self) -> Option<Duration> {
        match self.advance() {
            Wait::Spin => {
                std::hint::spin_loop();
                None
            }
            Wait::Yield => {
                std::thread::yield_now();
                None
            }
            Wait::Park(d) => Some(d),
        }
    }
}

impl Drop for WaitPolicy<'_> {
    fn drop(&mut self) {
        self.reset();
    }
}

/// A [`WaitPolicy`] plus the doorbell half of the discipline, for
/// waiters whose work arrives on rings: call [`Sleeper::idle`] each time
/// every source came up empty and [`Sleeper::progress`] when one did
/// not. Past the yield band, one `idle` arms the bell and returns — so
/// the caller's next pass over its sources is the re-check — and the
/// next `idle` parks.
pub struct Sleeper<'a> {
    policy: WaitPolicy<'a>,
    bell: &'a Doorbell,
    /// The ticket of an `arm` whose re-check is the caller's next pass.
    armed: Option<u64>,
}

impl<'a> Sleeper<'a> {
    /// A sleeper escalating by `policy` and parking on `bell`.
    pub fn new(policy: WaitPolicy<'a>, bell: &'a Doorbell) -> Self {
        Self {
            policy,
            bell,
            armed: None,
        }
    }

    /// A source had work: back to the cheap band.
    pub fn progress(&mut self) {
        self.armed = None;
        self.policy.reset();
    }

    /// Every source was empty: spin, yield, arm, or park — whichever is
    /// next — sleeping at most `bound` (and never past [`PARK_BOUND`]).
    pub fn idle_for(&mut self, bound: Duration) {
        if let Some(ticket) = self.armed.take() {
            self.bell.park(ticket, bound.min(PARK_BOUND));
        } else if self.policy.pause().is_some() {
            self.armed = Some(self.bell.arm());
        }
    }

    /// True when the bell is armed and the next `idle` will park.
    pub fn will_park(&self) -> bool {
        self.armed.is_some()
    }

    /// [`Sleeper::idle_for`] with the full [`PARK_BOUND`].
    pub fn idle(&mut self) {
        self.idle_for(PARK_BOUND);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn escalates_spin_yield_park() {
        let budget = SpinBudget::new();
        let mut p = WaitPolicy::new(&budget);
        for _ in 0..budget.current() {
            assert_eq!(p.advance(), Wait::Spin);
        }
        let t0 = Instant::now();
        assert_eq!(yields_until_park(&mut p), Wait::Park(PARK_BOUND));
        assert!(t0.elapsed() >= YIELD_FOR);
        assert_eq!(p.advance(), Wait::Park(PARK_BOUND));
    }

    /// Advances through the yield band (at least [`YIELD_LIMIT`] turns
    /// and [`YIELD_FOR`] long) and returns the first other action.
    fn yields_until_park(p: &mut WaitPolicy<'_>) -> Wait {
        let mut yields = 0;
        loop {
            match p.advance() {
                Wait::Yield => yields += 1,
                other => {
                    assert!(yields >= YIELD_LIMIT, "only {yields} yields");
                    return other;
                }
            }
        }
    }

    #[test]
    fn yielding_policy_has_no_spin_band() {
        let mut p = WaitPolicy::yielding();
        assert_eq!(yields_until_park(&mut p), Wait::Park(PARK_BOUND));
        p.reset();
        assert_eq!(p.advance(), Wait::Yield);
    }

    #[test]
    fn parking_policy_arms_on_its_first_idle_and_parks_on_its_second() {
        let mut p = WaitPolicy::parking();
        assert_eq!(p.advance(), Wait::Park(PARK_BOUND));
        p.reset();
        assert_eq!(p.advance(), Wait::Park(PARK_BOUND));

        let bell = Doorbell::new();
        let mut s = Sleeper::new(WaitPolicy::parking(), &bell);
        s.idle(); // arms and returns: the caller's next pass is the re-check
        assert!(bell.is_armed() && s.will_park());
        bell.ring();
        let t0 = Instant::now();
        s.idle_for(Duration::from_secs(5)); // the ring landed before the park
        assert!(t0.elapsed() < Duration::from_millis(500));
    }

    #[test]
    fn reset_rewinds_to_spin() {
        let budget = SpinBudget::new();
        let mut p = WaitPolicy::new(&budget);
        for _ in 0..SPIN_LIMIT {
            assert_eq!(p.advance(), Wait::Spin);
        }
        assert!(matches!(yields_until_park(&mut p), Wait::Park(_)));
        p.reset();
        // The rewound wait spins on what the site has earned by now: the
        // overrun above halved it.
        assert_eq!(budget.current(), SPIN_LIMIT / 2);
        for _ in 0..budget.current() {
            assert_eq!(p.advance(), Wait::Spin);
        }
        assert_eq!(p.advance(), Wait::Yield);
    }

    #[test]
    fn budget_halves_after_misses_down_to_the_floor() {
        let budget = SpinBudget::new();
        let mut seen = vec![budget.current()];
        for _ in 0..10 {
            let mut p = WaitPolicy::new(&budget);
            while p.advance() == Wait::Spin {}
            drop(p);
            seen.push(budget.current());
        }
        assert_eq!(seen[..8], [64, 32, 16, 8, 4, 2, 1, 1]);
        assert_eq!(budget.current(), SPIN_FLOOR);
    }

    #[test]
    fn budget_doubles_after_in_band_hits_up_to_the_cap() {
        let budget = SpinBudget::new();
        budget.budget.store(2, Ordering::Relaxed);
        let mut seen = Vec::new();
        for _ in 0..7 {
            let mut p = WaitPolicy::new(&budget);
            assert_eq!(p.advance(), Wait::Spin);
            drop(p); // satisfied after one probe
            seen.push(budget.current());
        }
        assert_eq!(seen, [4, 8, 16, 32, 64, 64, 64]);
    }

    #[test]
    fn a_wait_that_never_waited_leaves_the_budget_alone() {
        let budget = SpinBudget::new();
        budget.budget.store(4, Ordering::Relaxed);
        drop(WaitPolicy::new(&budget));
        assert_eq!(budget.current(), 4);
        assert_eq!(budget.waits.load(Ordering::Relaxed), 0);
    }

    /// One wait for `flag`, as a stub thread would do it; the probe is a
    /// plain load so the test controls who answers and when.
    fn wait_for(budget: &SpinBudget, flag: &AtomicBool) {
        let mut p = WaitPolicy::new(budget);
        while !flag.swap(false, Ordering::SeqCst) {
            if let Some(d) = p.pause() {
                std::thread::sleep(d.min(Duration::from_micros(50)));
            }
        }
    }

    #[test]
    fn a_peer_that_never_answers_in_band_ends_at_the_floor() {
        // The "peer" is this same thread: it can only answer after the
        // waiter has left the spin band, as on a shared CPU.
        let budget = SpinBudget::new();
        for _ in 0..4 * PROBE_EVERY {
            let mut p = WaitPolicy::new(&budget);
            while p.advance() == Wait::Spin {}
        }
        assert_eq!(budget.current(), SPIN_FLOOR);
    }

    #[test]
    fn sparse_probe_restores_a_collapsed_budget_when_a_peer_answers_in_band() {
        let budget = Arc::new(SpinBudget::new());
        budget.budget.store(SPIN_FLOOR, Ordering::Relaxed);
        // A peer on another thread that answers every request at once:
        // ask → answer is a couple of cache misses, well inside a
        // 64-probe band but (almost always) outside a 1-probe one.
        let ask = Arc::new(AtomicBool::new(false));
        let answer = Arc::new(AtomicBool::new(false));
        let stop = Arc::new(AtomicBool::new(false));
        let peer = {
            let (ask, answer, stop) = (Arc::clone(&ask), Arc::clone(&answer), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::SeqCst) {
                    if ask.swap(false, Ordering::SeqCst) {
                        answer.store(true, Ordering::SeqCst);
                    } else {
                        std::hint::spin_loop();
                    }
                }
            })
        };
        // Within a few probe periods the full-band probe is answered
        // in-band and the budget is back at the cap. (On a single
        // hardware thread the peer cannot answer while we spin and the
        // budget rightly stays down, so only assert with ≥ 2 CPUs.)
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut restored = false;
        for _ in 0..64 * PROBE_EVERY {
            ask.store(true, Ordering::SeqCst);
            wait_for(&budget, &answer);
            if budget.current() == SPIN_LIMIT {
                restored = true;
                break;
            }
        }
        stop.store(true, Ordering::SeqCst);
        peer.join().unwrap();
        if cpus >= 2 {
            assert!(restored, "budget stuck at {}", budget.current());
        }
    }

    #[test]
    fn probe_hit_restores_and_probe_miss_does_not() {
        // Deterministic form of the test above: drive the cell by hand.
        let budget = SpinBudget::new();
        budget.budget.store(SPIN_FLOOR, Ordering::Relaxed);
        budget.waits.store(PROBE_EVERY - 1, Ordering::Relaxed);
        let mut p = WaitPolicy::new(&budget);
        for _ in 0..20 {
            assert_eq!(p.advance(), Wait::Spin, "the probe spins the full band");
        }
        drop(p); // answered at the 20th probe
        assert_eq!(budget.current(), SPIN_LIMIT);

        budget.budget.store(SPIN_FLOOR, Ordering::Relaxed);
        budget.waits.store(PROBE_EVERY - 1, Ordering::Relaxed);
        let mut p = WaitPolicy::new(&budget);
        while p.advance() == Wait::Spin {}
        drop(p);
        assert_eq!(budget.current(), SPIN_FLOOR);
    }

    #[test]
    fn sleeper_arms_rechecks_then_parks() {
        let bell = Doorbell::new();
        let mut s = Sleeper::new(WaitPolicy::yielding(), &bell);
        let mut yields = 0;
        while !bell.is_armed() {
            s.idle(); // yields, then arms and returns: the caller re-checks
            yields += 1;
        }
        assert!(yields > YIELD_LIMIT);
        bell.ring();
        let t0 = Instant::now();
        s.idle_for(Duration::from_secs(5)); // the ring landed before the park
        assert!(t0.elapsed() < Duration::from_millis(500));
        s.progress();
        s.idle();
        assert!(!bell.is_armed(), "progress rewinds to the yield band");
    }
}
