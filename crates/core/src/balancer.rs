//! Pluggable forwarding policies for shared listening sockets (§4.4.3).
//!
//! Multiple co-processors may listen on the same port; each incoming
//! connection is assigned to one of them by a [`LoadBalancer`] (the
//! paper implements connection-based round-robin; a content/address-hash
//! policy and a least-loaded policy are provided as pluggable examples).
//!
//! The machine has one policy instance. It lives in the TCP control
//! table (`TcpControl`), and every pick, charge and release happens
//! under that table's lock, so the methods take `&mut self` and the
//! counters are plain integers.

/// Metadata about an incoming connection, fed to the balancer.
#[derive(Debug, Clone, Copy)]
pub struct ConnMeta {
    /// Remote client identifier.
    pub client_addr: u64,
    /// Listening port.
    pub port: u16,
}

/// A pluggable forwarding policy for shared listening sockets (§4.4.3).
pub trait LoadBalancer: Send {
    /// Picks the index of the listener (among `n` candidates, in
    /// registration order) that receives this connection.
    fn pick(&mut self, n: usize, meta: &ConnMeta) -> usize;

    /// Informs the policy that the connection went to listener `idx`
    /// (the value returned by [`LoadBalancer::pick`]). Default: ignored.
    fn conn_assigned(&mut self, idx: usize) {
        let _ = idx;
    }

    /// Informs the policy that a connection previously assigned to
    /// listener `idx` has closed. Default: ignored.
    fn conn_closed(&mut self, idx: usize) {
        let _ = idx;
    }
}

/// The paper's connection-based round-robin policy.
#[derive(Default)]
pub struct RoundRobin {
    next: usize,
}

impl LoadBalancer for RoundRobin {
    fn pick(&mut self, n: usize, _meta: &ConnMeta) -> usize {
        let idx = self.next % n;
        self.next = self.next.wrapping_add(1);
        idx
    }
}

/// A content-based policy: hash the client address, so one client always
/// lands on the same co-processor (example of a user-provided rule).
#[derive(Default)]
pub struct AddrHash;

impl LoadBalancer for AddrHash {
    fn pick(&mut self, n: usize, meta: &ConnMeta) -> usize {
        (meta.client_addr as usize).wrapping_mul(0x9E37_79B9) % n
    }
}

/// Listener slots a [`LeastLoaded`] policy can track. Shared listening
/// sockets have one slot per listening co-processor, so this bound is
/// far above any plausible machine.
const LL_SLOTS: usize = 64;

/// Routes each connection to the listener with the fewest in-flight
/// connections, so a co-processor stuck on long-lived transfers stops
/// receiving new work while its siblings stay busy. Ties break with a
/// rotating cursor, which degrades to round-robin under uniform load.
///
/// Counters are signed, so a close that arrives without its assign
/// cannot wrap to `u64::MAX` and poison the policy. The
/// [`LeastLoaded::negative_excursions`] tripwire counts such closes; the
/// control table's count guard keeps it at zero.
pub struct LeastLoaded {
    in_flight: [i64; LL_SLOTS],
    next: usize,
    negative_excursions: i64,
}

impl Default for LeastLoaded {
    fn default() -> Self {
        LeastLoaded {
            in_flight: [0; LL_SLOTS],
            next: 0,
            negative_excursions: 0,
        }
    }
}

impl LeastLoaded {
    /// Current in-flight count for listener `idx` (testing/observability).
    pub fn in_flight(&self, idx: usize) -> i64 {
        self.in_flight[idx % LL_SLOTS]
    }

    /// Times a counter dipped below zero (close observed before its
    /// assign). Must read 0.
    pub fn negative_excursions(&self) -> i64 {
        self.negative_excursions
    }
}

impl LoadBalancer for LeastLoaded {
    fn pick(&mut self, n: usize, _meta: &ConnMeta) -> usize {
        let n = n.clamp(1, LL_SLOTS);
        let start = self.next;
        let winner = (0..n)
            .map(|k| (start + k) % n)
            .min_by_key(|&i| self.in_flight[i])
            .unwrap_or(0);
        self.next = (winner + 1) % n;
        winner
    }

    fn conn_assigned(&mut self, idx: usize) {
        self.in_flight[idx % LL_SLOTS] += 1;
    }

    fn conn_closed(&mut self, idx: usize) {
        let slot = &mut self.in_flight[idx % LL_SLOTS];
        if *slot <= 0 {
            self.negative_excursions += 1;
        }
        *slot -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles() {
        let mut rr = RoundRobin::default();
        let meta = ConnMeta {
            client_addr: 1,
            port: 80,
        };
        let picks: Vec<usize> = (0..6).map(|_| rr.pick(3, &meta)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn addr_hash_is_sticky() {
        let mut h = AddrHash;
        for addr in 0..50u64 {
            let meta = ConnMeta {
                client_addr: addr,
                port: 80,
            };
            let a = h.pick(4, &meta);
            let b = h.pick(4, &meta);
            assert_eq!(a, b, "same client must land on the same coproc");
            assert!(a < 4);
        }
    }

    #[test]
    fn least_loaded_stays_fair_under_skewed_lifetimes() {
        // Connections landing on co-processor 0 are long-lived (never
        // close); everywhere else they close immediately. Round-robin
        // keeps feeding the overloaded co-processor; least-loaded must
        // divert new work away from it.
        let run = |lb: &mut dyn LoadBalancer, n: usize, arrivals: u64| -> Vec<u64> {
            let mut assigned = vec![0u64; n];
            for addr in 0..arrivals {
                let meta = ConnMeta {
                    client_addr: addr,
                    port: 80,
                };
                let idx = lb.pick(n, &meta);
                lb.conn_assigned(idx);
                assigned[idx] += 1;
                if idx != 0 {
                    lb.conn_closed(idx);
                }
            }
            assigned
        };

        let mut ll = LeastLoaded::default();
        let fair = run(&mut ll, 3, 300);
        // Co-processor 0 accumulates in-flight connections, so it should
        // receive almost nothing beyond its first few picks while the
        // siblings absorb the rest of the skewed arrival stream.
        assert!(
            fair[0] <= 3,
            "least-loaded kept feeding the loaded coproc: {fair:?}"
        );
        assert!(
            fair[1] >= 100 && fair[2] >= 100,
            "siblings starved: {fair:?}"
        );
        assert_eq!(ll.negative_excursions(), 0);

        let mut rr = RoundRobin::default();
        let skewed = run(&mut rr, 3, 300);
        assert_eq!(
            skewed[0], 100,
            "round-robin should ignore load, proving the contrast: {skewed:?}"
        );
    }

    #[test]
    fn close_before_assign_trips_the_negative_tripwire_without_wrapping() {
        let mut ll = LeastLoaded::default();
        ll.conn_closed(1);
        assert_eq!(ll.in_flight(1), -1);
        assert_eq!(ll.negative_excursions(), 1);
        // The late assign restores balance; no wraparound poisoning.
        ll.conn_assigned(1);
        assert_eq!(ll.in_flight(1), 0);
        let meta = ConnMeta {
            client_addr: 1,
            port: 80,
        };
        assert!(ll.pick(4, &meta) < 4);
    }
}
