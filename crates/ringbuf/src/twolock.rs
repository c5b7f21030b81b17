//! The Michael–Scott two-lock queue — the Figure 8 baseline.
//!
//! This is the "most widely implemented queue algorithm" the paper
//! compares against: an unbounded linked queue with one lock protecting
//! the head (dequeuers) and one protecting the tail (enqueuers), so one
//! enqueuer and one dequeuer can proceed concurrently but all enqueuers
//! (and all dequeuers) serialize on a lock. Parameterized by the spinlock
//! type ([`crate::locks::TicketLock`] or [`crate::locks::McsLock`]) to
//! reproduce both baseline curves.

use std::cell::UnsafeCell;
use std::ptr;

use crate::locks::RawLock;

struct Node {
    value: Option<Vec<u8>>,
    next: *mut Node,
}

/// A two-lock Michael–Scott FIFO queue of byte payloads.
///
/// # Examples
///
/// ```
/// use solros_ringbuf::locks::TicketLock;
/// use solros_ringbuf::TwoLockQueue;
///
/// let q = TwoLockQueue::<TicketLock>::new();
/// q.enqueue(b"a".to_vec());
/// q.enqueue(b"b".to_vec());
/// assert_eq!(q.dequeue().unwrap(), b"a");
/// assert_eq!(q.dequeue().unwrap(), b"b");
/// assert!(q.dequeue().is_none());
/// ```
pub struct TwoLockQueue<L: RawLock> {
    head_lock: L,
    tail_lock: L,
    /// Dummy-node sentinel design: `head` always points at a consumed node.
    head: UnsafeCell<*mut Node>,
    tail: UnsafeCell<*mut Node>,
}

// SAFETY: `head` is only touched under `head_lock` and `tail` under
// `tail_lock`; node handoff between the two is the standard Michael–Scott
// argument (the dummy node means head and tail never alias a node whose
// fields both locks mutate).
unsafe impl<L: RawLock> Send for TwoLockQueue<L> {}
// SAFETY: see above.
unsafe impl<L: RawLock> Sync for TwoLockQueue<L> {}

impl<L: RawLock> Default for TwoLockQueue<L> {
    fn default() -> Self {
        Self::new()
    }
}

impl<L: RawLock> TwoLockQueue<L> {
    /// Creates an empty queue (one dummy node).
    pub fn new() -> Self {
        let dummy = Box::into_raw(Box::new(Node {
            value: None,
            next: ptr::null_mut(),
        }));
        Self {
            head_lock: L::default(),
            tail_lock: L::default(),
            head: UnsafeCell::new(dummy),
            tail: UnsafeCell::new(dummy),
        }
    }

    /// Appends a payload to the queue.
    pub fn enqueue(&self, value: Vec<u8>) {
        let node = Box::into_raw(Box::new(Node {
            value: Some(value),
            next: ptr::null_mut(),
        }));
        self.tail_lock.with(|| {
            // SAFETY: `tail` is owned by `tail_lock`; the pointed-to node's
            // `next` field is only written here (it is the last node).
            unsafe {
                let tail = *self.tail.get();
                // Release ordering is provided by the lock release; within
                // the critical section plain writes are safe.
                (*tail).next = node;
                *self.tail.get() = node;
            }
        });
    }

    /// Removes the oldest payload, or `None` when empty.
    pub fn dequeue(&self) -> Option<Vec<u8>> {
        self.head_lock.with(|| {
            // SAFETY: `head` is owned by `head_lock`. Reading
            // `(*head).next` is safe: `next` of the dummy is written only
            // by an enqueuer that then makes it reachable; the lock
            // acquire/release pair on either lock gives the necessary
            // happens-before because an enqueuer publishes `next` before
            // releasing `tail_lock`, and a racing read here can at worst
            // observe null (treated as empty).
            unsafe {
                let head = *self.head.get();
                let next = std::ptr::read_volatile(&(*head).next);
                if next.is_null() {
                    return None;
                }
                let value = (*next).value.take();
                *self.head.get() = next;
                drop(Box::from_raw(head));
                value
            }
        })
    }
}

impl<L: RawLock> Drop for TwoLockQueue<L> {
    fn drop(&mut self) {
        // SAFETY: exclusive access in Drop; walk and free the chain.
        unsafe {
            let mut cur = *self.head.get();
            while !cur.is_null() {
                let next = (*cur).next;
                drop(Box::from_raw(cur));
                cur = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locks::{McsLock, TicketLock};
    use solros_simkit::sync::Mutex;
    use std::sync::Arc;

    fn fifo_smoke<L: RawLock>() {
        let q = TwoLockQueue::<L>::new();
        assert!(q.dequeue().is_none());
        for i in 0..100u32 {
            q.enqueue(i.to_le_bytes().to_vec());
        }
        for i in 0..100u32 {
            assert_eq!(q.dequeue().unwrap(), i.to_le_bytes());
        }
        assert!(q.dequeue().is_none());
    }

    #[test]
    fn fifo_ticket() {
        fifo_smoke::<TicketLock>();
    }

    #[test]
    fn fifo_mcs() {
        fifo_smoke::<McsLock>();
    }

    fn mpmc_exactness<L: RawLock + 'static>() {
        let q = Arc::new(TwoLockQueue::<L>::new());
        let producers = 4u32;
        let per = 5_000u32;
        let mut handles = Vec::new();
        for p in 0..producers {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    q.enqueue(((p << 24) | i).to_le_bytes().to_vec());
                }
            }));
        }
        let got = Arc::new(Mutex::new(Vec::new()));
        let remaining = Arc::new(std::sync::atomic::AtomicU32::new(producers * per));
        for _ in 0..4 {
            let q = Arc::clone(&q);
            let got = Arc::clone(&got);
            let remaining = Arc::clone(&remaining);
            handles.push(std::thread::spawn(move || {
                let mut local = Vec::new();
                while remaining.load(std::sync::atomic::Ordering::Relaxed) > 0 {
                    if let Some(v) = q.dequeue() {
                        local.push(u32::from_le_bytes(v.try_into().unwrap()));
                        remaining.fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
                    } else {
                        std::thread::yield_now();
                    }
                }
                got.lock().extend(local);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut all = got.lock().clone();
        assert_eq!(all.len() as u32, producers * per);
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len() as u32, producers * per);
    }

    #[test]
    fn mpmc_ticket() {
        mpmc_exactness::<TicketLock>();
    }

    #[test]
    fn mpmc_mcs() {
        mpmc_exactness::<McsLock>();
    }

    #[test]
    fn drop_frees_pending_elements() {
        let q = TwoLockQueue::<TicketLock>::new();
        for _ in 0..100 {
            q.enqueue(vec![0u8; 1024]);
        }
        drop(q); // Miri/asan would flag leaks or double frees here.
    }
}
