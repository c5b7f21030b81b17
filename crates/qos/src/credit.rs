//! Credit-based backpressure for data-plane stubs.
//!
//! A stub may have at most `window` RPCs in flight. The proxy advertises
//! a fresh window on every reply via the frame header's credit byte
//! (derived from its queue headroom, always ≥ 1), so the window tracks
//! congestion without any extra control messages: a flooded proxy shrinks
//! the stub's window toward 1, a recovered proxy grows it back.

use solros_simkit::sync::{Condvar, Mutex};

struct State {
    in_flight: u32,
    window: u32,
}

/// In-flight RPC limiter shared by all caller threads of one stub.
pub struct CreditPool {
    state: Mutex<State>,
    freed: Condvar,
}

impl CreditPool {
    /// Creates a pool with an initial window (must be ≥ 1).
    pub fn new(window: u32) -> Self {
        Self {
            state: Mutex::new(State {
                in_flight: 0,
                window: window.max(1),
            }),
            freed: Condvar::new(),
        }
    }

    /// Blocks until an in-flight slot is free, then claims it.
    ///
    /// Spins briefly for the common uncontended case, then parks on a
    /// condvar; there is no unbounded busy-wait.
    pub fn acquire(&self) {
        for _ in 0..64 {
            if self.try_acquire() {
                return;
            }
            std::hint::spin_loop();
        }
        let mut st = self.state.lock();
        while st.in_flight >= st.window {
            self.freed.wait(&mut st);
        }
        st.in_flight += 1;
    }

    /// Claims a slot if one is free.
    pub fn try_acquire(&self) -> bool {
        let mut st = self.state.lock();
        if st.in_flight < st.window {
            st.in_flight += 1;
            true
        } else {
            false
        }
    }

    /// Releases a slot when its reply arrives, applying the window the
    /// proxy piggybacked on that reply (0 = sender not QoS-aware, keep
    /// the current window).
    pub fn complete(&self, advertised_window: u8) {
        let mut st = self.state.lock();
        st.in_flight = st.in_flight.saturating_sub(1);
        if advertised_window > 0 {
            st.window = advertised_window as u32;
        }
        drop(st);
        self.freed.notify_all();
    }

    /// Current (in_flight, window) pair, for tests and introspection.
    pub fn levels(&self) -> (u32, u32) {
        let st = self.state.lock();
        (st.in_flight, st.window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn window_limits_in_flight() {
        let p = CreditPool::new(2);
        assert!(p.try_acquire());
        assert!(p.try_acquire());
        assert!(!p.try_acquire());
        p.complete(0);
        assert!(p.try_acquire());
    }

    #[test]
    fn reply_resizes_window() {
        let p = CreditPool::new(8);
        p.acquire();
        p.complete(2);
        assert_eq!(p.levels(), (0, 2));
        p.acquire();
        p.acquire();
        assert!(!p.try_acquire());
        // Recovery: a later reply re-opens the window.
        p.complete(200);
        assert_eq!(p.levels().1, 200);
    }

    #[test]
    fn blocked_acquire_wakes_on_complete() {
        let p = Arc::new(CreditPool::new(1));
        p.acquire();
        let p2 = Arc::clone(&p);
        let t = std::thread::spawn(move || {
            p2.acquire();
            p2.complete(0);
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        p.complete(0);
        t.join().unwrap();
        assert_eq!(p.levels().0, 0);
    }
}
