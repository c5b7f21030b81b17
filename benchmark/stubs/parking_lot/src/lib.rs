//! Offline stand-in for `parking_lot` 0.12: `Mutex`, `RwLock` and
//! `Condvar` with the upstream call shapes (no poisoning, guards passed
//! to `Condvar` by `&mut`), implemented over `std::sync`. A lock whose
//! holder panicked stays usable, as upstream.

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
    pub fn notify_one(&self) -> bool {
        self.0.notify_one();
        true
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) -> usize {
        self.0.notify_all();
        0
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Condvar { .. }")
    }
}

/// A reader-writer lock.
#[derive(Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

/// Shared access to a [`RwLock`].
pub type RwLockReadGuard<'a, T> = sync::RwLockReadGuard<'a, T>;
/// Exclusive access to a [`RwLock`].
pub type RwLockWriteGuard<'a, T> = sync::RwLockWriteGuard<'a, T>;

impl<T> RwLock<T> {
    /// A new unlocked lock.
    pub const fn new(value: T) -> Self {
        Self(sync::RwLock::new(value))
    }

    /// Consumes the lock and returns the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Blocks until shared access is held.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until exclusive access is held.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// The value, through exclusive access to the lock.
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0.try_read() {
            Ok(g) => f.debug_struct("RwLock").field("data", &&*g).finish(),
            Err(_) => f.write_str("RwLock { <locked> }"),
        }
    }
}
