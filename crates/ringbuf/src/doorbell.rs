//! Ring doorbells: sleep when a ring is idle, wake when it is not.
//!
//! §4.2.4 replicates the ring's control variables so that neither side
//! polls across PCIe on the common path. A consumer that *waits* by
//! polling defeats that: every empty probe refreshes its tail replica
//! with a remote read. A [`Doorbell`] applies the same rule to
//! notifications. The consumer **arms** the bell before it sleeps — one
//! posted control write into a flag that lives in the *producer's*
//! memory — and the producer, after publishing, tests that flag with a
//! local load and **rings** only if it is set. An unarmed ring costs the
//! producer one fence and one local load and puts nothing on the bus; a
//! ring is one posted write toward the sleeper (counted as a
//! `ctrl_write`). This is the event-idx / NAPI arrangement: poll while
//! busy, take notifications only when idle.
//!
//! # No lost wake-ups
//!
//! ```text
//!   sleeper                              producer
//!   t = bell.arm()   (flags := 1)        publish  (tail := new)
//!   fence(SeqCst)                        fence(SeqCst)
//!   re-check every source                if flag.swap(0) == 1 { wake }
//!   bell.park(t, bound)
//! ```
//!
//! Either the sleeper's re-check observes the publish, or the publish
//! came after the flag store and the producer observes the flag. `wake`
//! bumps an event count before notifying and `arm` samples it before
//! setting the flags, so a ring that lands between the re-check and the
//! park makes [`Doorbell::park`] return at once. The producer clears the
//! flag it found set, so a burst rings once; every wake is a
//! `notify_all`, so several sleepers may share one bell (stub threads
//! share a response ring) — each wakes, re-checks, and re-arms if it
//! still has to wait.

use std::sync::atomic::{fence, AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use solros_pcie::WindowHandle;
use solros_simkit::sync::{Condvar, Mutex};

/// An event count a ring consumer parks on; see the module docs.
///
/// Every ring owns one ([`crate::Consumer::doorbell`]); a poller that
/// serves several rings attaches one bell of its own to all of them
/// ([`crate::Consumer::attach_doorbell`]) and also hands it to whatever
/// else can give it work, which calls [`Doorbell::ring`] directly.
#[derive(Default)]
pub struct Doorbell {
    /// Armed flag for ringers on the sleeper's own side of the bus
    /// ([`Doorbell::ring`]); ring producers test their ring's flag.
    armed: AtomicBool,
    /// Event count: bumped by every delivered ring.
    seq: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
    /// The armed flags of the rings this bell is attached to, mapped
    /// from the consumer's side (a remote store arms a remote producer).
    ring_flags: Mutex<Vec<WindowHandle>>,
}

impl Doorbell {
    /// A bell attached to nothing yet.
    pub fn new() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Registers one ring's armed flag (consumer-side mapping).
    pub(crate) fn add_ring_flag(&self, flag: WindowHandle) {
        self.ring_flags.lock().push(flag);
    }

    /// Arms the bell: from here until the next ring, any attached
    /// producer's publish and any [`Doorbell::ring`] wakes the sleepers.
    /// Returns the ticket to [`Doorbell::park`] on. The caller must
    /// re-check every source of work between `arm` and `park`.
    pub fn arm(&self) -> u64 {
        let ticket = self.seq.load(Ordering::SeqCst);
        self.armed.store(true, Ordering::SeqCst);
        for flag in self.ring_flags.lock().iter() {
            flag.ctrl(0).store(1);
        }
        // Pairs with the fence in `ring` / the producer's publish: the
        // flag stores above are ordered before the caller's re-check.
        fence(Ordering::SeqCst);
        ticket
    }

    /// Sleeps until the bell rings after `ticket` was taken, or `bound`
    /// elapses (a bound past the clock's range waits for the ring alone).
    /// Returns true when it was rung.
    pub fn park(&self, ticket: u64, bound: Duration) -> bool {
        let deadline = std::time::Instant::now().checked_add(bound);
        let mut g = self.lock.lock();
        while self.seq.load(Ordering::SeqCst) == ticket {
            match deadline {
                Some(d) => {
                    if self.cv.wait_until(&mut g, d).timed_out() {
                        break;
                    }
                }
                None => self.cv.wait(&mut g),
            }
        }
        self.seq.load(Ordering::SeqCst) != ticket
    }

    /// Rings the bell if it is armed (for work sources that are not a
    /// ring: a completion queue, an inbox, a NIC). Call *after* making
    /// the work visible. Unarmed, this is one fence and one load.
    pub fn ring(&self) {
        fence(Ordering::SeqCst);
        if self.armed.load(Ordering::SeqCst) && self.armed.swap(false, Ordering::SeqCst) {
            self.wake();
        }
    }

    /// Delivers one ring: bump the event count, wake every sleeper.
    pub(crate) fn wake(&self) {
        self.seq.fetch_add(1, Ordering::SeqCst);
        // Taking the lock orders the bump against a sleeper that has
        // checked the count but not yet started waiting.
        drop(self.lock.lock());
        self.cv.notify_all();
    }

    /// Rings delivered so far (a bell that was armed and then rung).
    pub fn rings(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// True while armed for same-side ringers, i.e. from an
    /// [`Doorbell::arm`] until the next [`Doorbell::ring`] finds it.
    pub fn is_armed(&self) -> bool {
        self.armed.load(Ordering::SeqCst)
    }
}

impl std::fmt::Debug for Doorbell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Doorbell")
            .field("armed", &self.is_armed())
            .field("rings", &self.rings())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ring::{RingBuf, RingConfig};
    use solros_pcie::{PcieCounters, Side};
    use std::time::Instant;

    const LONG: Duration = Duration::from_secs(5);

    fn pcie_ring(counters: &Arc<PcieCounters>) -> RingBuf {
        RingBuf::new(
            RingConfig::over_pcie(4096, Side::Coproc, Side::Coproc, Side::Host),
            Arc::clone(counters),
        )
    }

    /// Receives with no spinning at all: arm → re-check → park, every
    /// park a 5 s one that must end by a ring.
    fn recv_parked(rx: &crate::Consumer) -> Vec<u8> {
        loop {
            if let Ok(v) = rx.recv() {
                return v;
            }
            let bell = rx.doorbell();
            let ticket = bell.arm();
            if let Ok(v) = rx.recv() {
                return v;
            }
            assert!(bell.park(ticket, LONG), "lost wake-up");
        }
    }

    #[test]
    fn armed_then_published_before_park_returns_at_once() {
        let counters = Arc::new(PcieCounters::new());
        let (tx, rx) = pcie_ring(&counters).endpoints();
        let bell = rx.doorbell();
        let ticket = bell.arm();
        tx.send(b"x").unwrap();
        let t0 = Instant::now();
        assert!(bell.park(ticket, LONG), "the publish rang the armed bell");
        assert!(t0.elapsed() < Duration::from_secs(1));
        assert_eq!(bell.rings(), 1);
        assert_eq!(rx.recv().unwrap(), b"x");
    }

    #[test]
    fn unarmed_publish_rings_nothing_and_costs_no_pcie_write() {
        let counters = Arc::new(PcieCounters::new());
        let (tx, rx) = pcie_ring(&counters).endpoints();
        let before = counters.snapshot();
        for _ in 0..100 {
            tx.send(b"quiet").unwrap();
        }
        assert_eq!(counters.snapshot().since(&before).ctrl_writes, 0);
        assert_eq!(rx.doorbell().rings(), 0);

        // Arming is one posted write (the flag lives producer-side), the
        // ring one more; a second publish finds the flag cleared.
        while rx.recv().is_ok() {}
        let before = counters.snapshot();
        let _ticket = rx.doorbell().arm();
        assert_eq!(counters.snapshot().since(&before).ctrl_writes, 1);
        tx.send(b"loud").unwrap();
        tx.send(b"quiet again").unwrap();
        assert_eq!(counters.snapshot().since(&before).ctrl_writes, 2);
        assert_eq!(rx.doorbell().rings(), 1);
    }

    #[test]
    fn timed_out_park_reports_no_ring() {
        let bell = Doorbell::new();
        let ticket = bell.arm();
        assert!(!bell.park(ticket, Duration::from_millis(2)));
        assert!(bell.is_armed(), "a timeout leaves the bell armed");
        bell.ring();
        assert!(!bell.is_armed());
        assert!(bell.park(ticket, LONG));
    }

    #[test]
    fn an_unbounded_park_waits_for_the_ring() {
        let bell = Doorbell::new();
        let ticket = bell.arm();
        let ringer = {
            let bell = Arc::clone(&bell);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                bell.ring();
            })
        };
        assert!(bell.park(ticket, Duration::MAX));
        ringer.join().unwrap();
    }

    /// Ping-pong over two rings, every hand-off a [`recv_parked`]. A
    /// lost wake-up costs a 5 s timeout, so finishing quickly proves
    /// none was lost.
    #[test]
    fn ping_pong_never_loses_a_wake() {
        const ROUNDS: u32 = 100_000;
        let counters = Arc::new(PcieCounters::new());
        let (ping_tx, ping_rx) = pcie_ring(&counters).endpoints();
        let (pong_tx, pong_rx) = pcie_ring(&counters).endpoints();
        let t0 = Instant::now();
        let echo = std::thread::spawn(move || {
            for _ in 0..ROUNDS {
                let v = recv_parked(&ping_rx);
                pong_tx.send(&v).unwrap();
            }
        });
        for i in 0..ROUNDS {
            ping_tx.send(&i.to_le_bytes()).unwrap();
            assert_eq!(recv_parked(&pong_rx), i.to_le_bytes());
        }
        echo.join().unwrap();
        assert!(t0.elapsed() < Duration::from_secs(4), "{:?}", t0.elapsed());
    }

    /// Four sleepers share one ring's bell; each element is taken by
    /// exactly one of them and nobody sleeps through a publish (every
    /// park is a 5 s one and must end by a ring).
    #[test]
    fn four_sleepers_on_one_ring_all_wake() {
        const ITEMS: u64 = 100_000;
        let counters = Arc::new(PcieCounters::new());
        let (tx, rx) = pcie_ring(&counters).endpoints();
        let (ack_tx, ack_rx) = pcie_ring(&counters).endpoints();
        let taken = Arc::new(AtomicU64::new(0));
        let t0 = Instant::now();
        let sleepers: Vec<_> = (0..4)
            .map(|_| {
                let (rx, ack_tx, taken) = (rx.clone(), ack_tx.clone(), Arc::clone(&taken));
                std::thread::spawn(move || {
                    while recv_parked(&rx) != b"stop" {
                        taken.fetch_add(1, Ordering::SeqCst);
                        ack_tx.send_blocking(b"a").unwrap();
                    }
                })
            })
            .collect();
        // One item in flight at a time, so every publish meets parked
        // (or about-to-park) sleepers.
        for _ in 0..ITEMS {
            tx.send(b"item").unwrap();
            recv_parked(&ack_rx);
        }
        for _ in 0..4 {
            tx.send(b"stop").unwrap();
        }
        for s in sleepers {
            s.join().unwrap();
        }
        assert_eq!(taken.load(Ordering::SeqCst), ITEMS);
        assert!(t0.elapsed() < Duration::from_secs(4), "{:?}", t0.elapsed());
    }
}
