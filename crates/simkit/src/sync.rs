//! The workspace's one lock idiom: `Mutex`, `RwLock` and `Condvar` over
//! `std::sync` without poisoning.
//!
//! `lock()` returns the guard itself and `Condvar` takes the guard by
//! `&mut`. A lock whose holder panicked stays usable: the control plane
//! fences and rebuilds a shard whose handler died (`ShardSupervisor`), so
//! a later request must reach the state rather than trip on the wreck.
//! In exchange, code that updates guarded state keeps it valid at every
//! step or belongs to a shard that recovery path rebuilds.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{self, PoisonError, TryLockError};
use std::time::{Duration, Instant};

/// A mutual-exclusion lock.
#[derive(Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// The held state of a [`Mutex`].
///
/// The inner guard is an `Option` only so [`Condvar`] can move it through
/// `std`'s by-value wait and put it back; it is `Some` whenever user code
/// can see the guard.
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T> Mutex<T> {
    /// A new unlocked mutex.
    pub const fn new(value: T) -> Self {
        Self(sync::Mutex::new(value))
    }

    /// Consumes the mutex and returns the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(self.0.lock().unwrap_or_else(PoisonError::into_inner)))
    }

    /// Takes the lock if it is free.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(TryLockError::Poisoned(p)) => Some(MutexGuard(Some(p.into_inner()))),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// The value, through exclusive access to the mutex.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.write_str("Mutex { <locked> }"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0
            .as_ref()
            .expect("guard present outside Condvar waits")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0
            .as_mut()
            .expect("guard present outside Condvar waits")
    }
}

/// Whether a timed wait ended by timing out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    /// True if the wait timed out rather than being notified.
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// A condition variable.
#[derive(Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// A new condition variable.
    pub const fn new() -> Self {
        Self(sync::Condvar::new())
    }

    /// Releases the lock, blocks until notified, and re-takes the lock.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard present");
        guard.0 = Some(self.0.wait(inner).unwrap_or_else(PoisonError::into_inner));
    }

    /// As [`Condvar::wait`], giving up after `timeout`.
    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.0.take().expect("guard present");
        let (inner, res) = self
            .0
            .wait_timeout(inner, timeout)
            .unwrap_or_else(PoisonError::into_inner);
        guard.0 = Some(inner);
        WaitTimeoutResult(res.timed_out())
    }

    /// As [`Condvar::wait`], giving up at `deadline`.
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        self.wait_for(guard, deadline.saturating_duration_since(Instant::now()))
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

/// A reader-writer lock.
#[derive(Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// A new unlocked lock.
    pub const fn new(value: T) -> Self {
        Self(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Blocks until shared access is held.
    pub fn read(&self) -> sync::RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until exclusive access is held.
    pub fn write(&self) -> sync::RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::sync::Arc;

    #[test]
    fn a_lock_whose_holder_panicked_stays_usable() {
        let m = Arc::new(Mutex::new(1u32));
        let rw = Arc::new(RwLock::new(1u32));
        let (m2, rw2) = (Arc::clone(&m), Arc::clone(&rw));
        let died = std::thread::spawn(move || {
            let _g = m2.lock();
            let _w = rw2.write();
            panic!("holder dies with both locks held");
        })
        .join();
        assert!(died.is_err());
        *m.lock() += 1;
        assert_eq!(*m.try_lock().expect("free"), 2);
        *rw.write() += 1;
        assert_eq!(*rw.read(), 2);
        assert_eq!(Arc::try_unwrap(m).expect("sole owner").into_inner(), 2);
    }

    #[test]
    fn wait_for_times_out_without_a_notify_and_returns_early_with_one() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let mut g = pair.0.lock();
            let t0 = Instant::now();
            assert!(pair
                .1
                .wait_for(&mut g, Duration::from_millis(20))
                .timed_out());
            assert!(t0.elapsed() >= Duration::from_millis(20));
            assert!(!*g, "guard usable after the wait");
        }
        let p2 = Arc::clone(&pair);
        // The notifier sets the flag under the lock, so it cannot run
        // between the waiter's check and its wait.
        let mut g = pair.0.lock();
        let notifier = std::thread::spawn(move || {
            *p2.0.lock() = true;
            p2.1.notify_one();
        });
        let t0 = Instant::now();
        while !*g {
            let res = pair.1.wait_for(&mut g, Duration::from_secs(30));
            assert!(!res.timed_out(), "the notify was lost");
        }
        assert!(t0.elapsed() < Duration::from_secs(30));
        drop(g);
        notifier.join().expect("notifier");
    }

    #[test]
    fn wait_until_with_a_past_deadline_does_not_block() {
        let (m, cv) = (Mutex::new(()), Condvar::new());
        let mut g = m.lock();
        let past = Instant::now() - Duration::from_secs(1);
        let t0 = Instant::now();
        assert!(cv.wait_until(&mut g, past).timed_out());
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn try_lock_under_contention_is_none() {
        let m = Arc::new(Mutex::new(0u32));
        let (held_tx, held_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let m2 = Arc::clone(&m);
        let holder = std::thread::spawn(move || {
            let _g = m2.lock();
            held_tx.send(()).expect("main waits");
            release_rx.recv().expect("main releases");
        });
        held_rx.recv().expect("holder took the lock");
        assert!(m.try_lock().is_none());
        release_tx.send(()).expect("holder waits");
        holder.join().expect("holder");
        assert!(m.try_lock().is_some());
    }
}
