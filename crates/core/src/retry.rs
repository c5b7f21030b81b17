//! Bounded retry with exponential backoff for transient failures.
//!
//! Every layer of the stack reports transient conditions through typed
//! errors — [`RpcErr::WouldBlock`]/[`RpcErr::Overloaded`]/
//! [`RpcErr::Timeout`] from the transport and QoS gate, media/timeout/
//! queue-full bursts from the NVMe substrate — and every caller used to
//! hand-roll the same loop around them. [`RetryPolicy`] centralizes that
//! loop: a transient failure first burns the yield band of the shared
//! [`WaitPolicy`] (the peer usually recovers within microseconds), then
//! sleeps an exponential backoff per attempt, and gives up after a
//! bounded number of attempts so a permanent failure surfaces instead of
//! looping forever. Non-transient errors are returned immediately.

use std::time::Duration;

use solros_proto::rpc_error::RpcErr;

use crate::waitpolicy::WaitPolicy;

/// Default attempt budget (first try + retries).
pub const DEFAULT_MAX_ATTEMPTS: u32 = 8;
/// Backoff after the first failed attempt, in microseconds.
pub const BACKOFF_BASE_US: u64 = 50;
/// Backoff ceiling, in microseconds.
pub const BACKOFF_CAP_US: u64 = 5_000;

/// A bounded exponential-backoff retry loop for transient failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts before the last error is returned (≥ 1).
    pub max_attempts: u32,
    /// Sleep after the first failed attempt; doubles per attempt.
    pub base: Duration,
    /// Ceiling on the per-attempt sleep.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: DEFAULT_MAX_ATTEMPTS,
            base: Duration::from_micros(BACKOFF_BASE_US),
            cap: Duration::from_micros(BACKOFF_CAP_US),
        }
    }
}

impl RetryPolicy {
    /// The default policy: 8 attempts, 50 µs doubling to a 5 ms cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// The backoff slept after failed attempt number `attempt` (1-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1);
        let us = (self.base.as_micros() as u64)
            .checked_shl(shift)
            .map_or(self.cap.as_micros() as u64, |v| {
                v.min(self.cap.as_micros() as u64)
            });
        Duration::from_micros(us)
    }

    /// Runs `op` until it succeeds, fails permanently, or exhausts the
    /// attempt budget. `op` receives the zero-based attempt index;
    /// `is_transient` decides whether a failure is worth retrying.
    pub fn run<T, E>(
        &self,
        is_transient: impl Fn(&E) -> bool,
        mut op: impl FnMut(u32) -> Result<T, E>,
    ) -> Result<T, E> {
        let mut policy = WaitPolicy::yielding();
        let mut attempt = 0u32;
        loop {
            match op(attempt) {
                Ok(v) => return Ok(v),
                Err(e) => {
                    attempt += 1;
                    if attempt >= self.max_attempts.max(1) || !is_transient(&e) {
                        return Err(e);
                    }
                    self.pause(&mut policy, attempt);
                }
            }
        }
    }

    /// As [`RetryPolicy::run`] with transience decided by
    /// [`RpcErr::is_transient`] — the shape every RPC submit path wants.
    pub fn run_rpc<T>(&self, op: impl FnMut(u32) -> Result<T, RpcErr>) -> Result<T, RpcErr> {
        self.run(|e: &RpcErr| e.is_transient(), op)
    }

    /// One inter-attempt pause: drain the wait policy's yield band
    /// (cheap — the condition usually clears in microseconds), then sleep
    /// this attempt's exponential backoff. A retry waits out a condition
    /// that no ring publishes, so there is no doorbell to park on.
    fn pause(&self, policy: &mut WaitPolicy<'_>, attempt: u32) {
        while policy.pause().is_none() {}
        std::thread::sleep(self.backoff(attempt));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_failures_retry_until_success() {
        let policy = RetryPolicy {
            base: Duration::from_micros(1),
            cap: Duration::from_micros(10),
            ..RetryPolicy::new()
        };
        let out = policy
            .run_rpc(|attempt| {
                if attempt < 3 {
                    Err(RpcErr::WouldBlock)
                } else {
                    Ok(attempt)
                }
            })
            .unwrap();
        assert_eq!(out, 3);
    }

    #[test]
    fn permanent_failures_return_immediately() {
        let mut calls = 0;
        let err = RetryPolicy::new()
            .run_rpc(|_| -> Result<(), _> {
                calls += 1;
                Err(RpcErr::NotFound)
            })
            .unwrap_err();
        assert_eq!(err, RpcErr::NotFound);
        assert_eq!(calls, 1, "non-transient errors must not retry");
    }

    #[test]
    fn attempt_budget_bounds_the_loop() {
        let policy = RetryPolicy {
            max_attempts: 4,
            base: Duration::from_micros(1),
            cap: Duration::from_micros(10),
        };
        let mut calls = 0;
        let err = policy
            .run_rpc(|_| -> Result<(), _> {
                calls += 1;
                Err(RpcErr::Overloaded)
            })
            .unwrap_err();
        assert_eq!(err, RpcErr::Overloaded);
        assert_eq!(calls, 4);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy::new();
        assert_eq!(p.backoff(1), Duration::from_micros(BACKOFF_BASE_US));
        assert_eq!(p.backoff(2), Duration::from_micros(2 * BACKOFF_BASE_US));
        assert_eq!(p.backoff(3), Duration::from_micros(4 * BACKOFF_BASE_US));
        assert_eq!(p.backoff(30), Duration::from_micros(BACKOFF_CAP_US));
        assert_eq!(p.backoff(500), Duration::from_micros(BACKOFF_CAP_US));
    }
}
