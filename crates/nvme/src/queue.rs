//! NVMe submission/completion queue pair.
//!
//! A faithful-but-compact model of the NVMe queueing protocol: the driver
//! writes commands into the submission ring and rings the doorbell; the
//! controller consumes them, executes, and posts entries (with a phase
//! tag) to the completion ring, raising an interrupt; the driver reaps
//! completions and updates the CQ head doorbell. The Solros driver
//! optimization (§5) is visible here: one doorbell ring may cover many
//! queued commands, and the device raises a single interrupt per doorbell
//! batch rather than per command.
//!
//! As on the real device, a submission entry *points at* its command and
//! data (PRP lists in host memory); the ring holds only the command
//! identifiers, handed out as a consecutive range per submission so that
//! a submitter recognises its own completions.

use std::collections::VecDeque;

use crate::error::NvmeError;

/// A completion queue entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// Command identifier echoed from the submission entry.
    pub cid: u16,
    /// Success or error status.
    pub status: Result<(), NvmeError>,
    /// Phase tag, toggling each ring lap (protocol fidelity).
    pub phase: bool,
}

/// A bounded submission/completion ring pair.
pub struct QueuePair {
    depth: usize,
    /// Entries written to the submission ring since the last doorbell.
    sq_pending: usize,
    cq: VecDeque<Completion>,
    next_cid: u16,
    cq_phase: bool,
    cq_posted: u64,
    /// Doorbell write count (protocol statistics).
    pub doorbells: u64,
}

impl QueuePair {
    /// Creates a queue pair with the given ring depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth == 0`.
    pub fn new(depth: usize) -> Self {
        assert!(depth > 0, "queue depth must be positive");
        Self {
            depth,
            sq_pending: 0,
            cq: VecDeque::with_capacity(depth),
            next_cid: 0,
            cq_phase: true,
            cq_posted: 0,
            doorbells: 0,
        }
    }

    /// Returns the ring depth.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Returns the number of submitted-but-unprocessed commands.
    pub fn sq_pending(&self) -> usize {
        self.sq_pending
    }

    /// Returns the number of unreaped completions.
    pub fn cq_pending(&self) -> usize {
        self.cq.len()
    }

    /// Places `n` commands in the submission ring (no doorbell yet).
    /// Returns the identifier of the first; the rest follow consecutively
    /// (wrapping), so command `i` of the submission is `first + i`.
    pub fn submit(&mut self, n: usize) -> Result<u16, NvmeError> {
        if self.sq_pending + n > self.depth {
            return Err(NvmeError::QueueFull);
        }
        let first = self.next_cid;
        self.next_cid = first.wrapping_add(n as u16);
        self.sq_pending += n;
        Ok(first)
    }

    /// Rings the submission doorbell: hands all pending commands to the
    /// controller. Returns how many.
    pub fn ring_doorbell(&mut self) -> usize {
        self.doorbells += 1;
        std::mem::take(&mut self.sq_pending)
    }

    /// Controller side: posts a completion, toggling the phase each lap.
    pub fn post_completion(&mut self, cid: u16, status: Result<(), NvmeError>) {
        let phase = self.cq_phase;
        self.cq.push_back(Completion { cid, status, phase });
        self.cq_posted += 1;
        if self.cq_posted.is_multiple_of(self.depth as u64) {
            self.cq_phase = !self.cq_phase;
        }
    }

    /// Driver side: reaps the oldest completion.
    pub fn reap(&mut self) -> Result<Completion, NvmeError> {
        self.cq.pop_front().ok_or(NvmeError::NoCompletion)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_doorbell_reap_cycle() {
        let mut qp = QueuePair::new(8);
        let a = qp.submit(1).unwrap();
        let b = qp.submit(1).unwrap();
        assert_ne!(a, b);
        assert_eq!(qp.sq_pending(), 2);
        assert_eq!(qp.ring_doorbell(), 2);
        assert_eq!(qp.sq_pending(), 0);
        assert_eq!(qp.doorbells, 1);
        for cid in [a, b] {
            qp.post_completion(cid, Ok(()));
        }
        assert_eq!(qp.reap().unwrap().cid, a);
        assert_eq!(qp.reap().unwrap().cid, b);
        assert_eq!(qp.reap(), Err(NvmeError::NoCompletion));
    }

    #[test]
    fn queue_full() {
        let mut qp = QueuePair::new(2);
        qp.submit(2).unwrap();
        assert_eq!(qp.submit(1), Err(NvmeError::QueueFull));
        qp.ring_doorbell();
        qp.submit(1).unwrap();
        assert_eq!(qp.submit(2), Err(NvmeError::QueueFull), "refused whole");
        assert_eq!(qp.sq_pending(), 1);
    }

    #[test]
    fn phase_toggles_each_lap() {
        let mut qp = QueuePair::new(4);
        let mut phases = Vec::new();
        for i in 0..8 {
            qp.post_completion(i, Ok(()));
        }
        for _ in 0..8 {
            phases.push(qp.reap().unwrap().phase);
        }
        assert_eq!(phases[..4], [true; 4]);
        assert_eq!(phases[4..], [false; 4]);
    }

    #[test]
    fn one_doorbell_many_commands_with_a_consecutive_cid_range() {
        let mut qp = QueuePair::new(64);
        qp.submit(63).unwrap(); // Move off cid 0.
        qp.ring_doorbell();
        let first = qp.submit(32).unwrap();
        let next = qp.submit(1).unwrap();
        assert_eq!(next, first.wrapping_add(32));
        assert_eq!(qp.ring_doorbell(), 33);
        assert_eq!(qp.doorbells, 2);
    }
}
