//! Hashing for integer keys the program mints itself.
//!
//! Tags, inode numbers, block addresses and lease ids are small integers
//! handed out by this program, looked up once or more per request. The
//! standard library's default hasher (SipHash) defends against keys an
//! adversary crafts to collide, which these are not, and costs tens of
//! nanoseconds per lookup; [`IntHasher`] is one multiply and one shift.
//! Keys that arrive from outside the program keep the default hasher.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / φ: the multiplier of Fibonacci (multiply-shift) hashing.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Multiply-shift hasher for integer keys (and tuples of them).
#[derive(Debug, Default, Clone, Copy)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(u64::from(n));
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(GOLDEN);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        // The product's high bits are the well-mixed ones; the table takes
        // its bucket from the low bits, so fold the high half down.
        self.0 ^ (self.0 >> 32)
    }
}

/// A `HashMap` keyed by program-minted integers.
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` of program-minted integers.
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn sequential_and_strided_keys_spread_over_buckets() {
        let build = BuildHasherDefault::<IntHasher>::default();
        for stride in [1u64, 64, 4096, 1 << 20] {
            let mut buckets = [0u32; 256];
            for i in 0..4096u64 {
                buckets[(build.hash_one(i * stride) & 255) as usize] += 1;
            }
            let worst = *buckets.iter().max().unwrap();
            assert!(worst <= 48, "stride {stride}: bucket of {worst} (mean 16)");
        }
    }

    #[test]
    fn maps_behave_like_maps() {
        let mut m: IntMap<u32, &str> = IntMap::default();
        m.insert(7, "seven");
        m.insert(7 + (1 << 16), "far");
        assert_eq!(m.get(&7), Some(&"seven"));
        assert_eq!(m.remove(&(7 + (1 << 16))), Some("far"));
        let mut s: IntSet<(u64, u64)> = IntSet::default();
        assert!(s.insert((1, 2)));
        assert!(!s.insert((1, 2)));
        assert!(s.insert((2, 1)));
    }
}
