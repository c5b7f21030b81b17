//! Seeded property checks as plain `#[test]`s.
//!
//! A property is a closure that draws its inputs from a [`DetRng`] and
//! asserts. [`cases`] runs it on seeds `0..n`, the same cases on every
//! run; when one panics its seed is printed, and [`case`] with that seed
//! replays exactly that input.
//!
//! ```
//! use solros_simkit::check;
//!
//! check::cases(64, |rng| {
//!     let v = check::vec(rng, 1..20, |r| r.range(0..100));
//!     assert!(v.iter().all(|&x| x < 100));
//! });
//! ```

use std::ops::Range;

use crate::DetRng;

/// Runs `prop` once per seed in `0..n`.
pub fn cases(n: u64, prop: impl Fn(&mut DetRng)) {
    for seed in 0..n {
        case(seed, &prop);
    }
}

/// Runs `prop` on the input `seed` generates.
pub fn case(seed: u64, prop: impl FnOnce(&mut DetRng)) {
    /// Names the seed if the property unwinds through it.
    struct Failing(u64);
    impl Drop for Failing {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!(
                    "check: property failed at seed {0}; replay with check::case({0}, ..)",
                    self.0
                );
            }
        }
    }
    let _failing = Failing(seed);
    prop(&mut DetRng::seed(seed));
}

/// A vector whose length is uniform in `len` and whose elements come
/// from `elem`.
pub fn vec<T>(
    rng: &mut DetRng,
    len: Range<usize>,
    mut elem: impl FnMut(&mut DetRng) -> T,
) -> Vec<T> {
    let n = len.start + rng.index(len.end - len.start);
    (0..n).map(|_| elem(rng)).collect()
}

/// An index into `weights`, chosen with probability proportional to its
/// weight.
///
/// # Panics
///
/// Panics if the weights sum to zero.
pub fn pick(rng: &mut DetRng, weights: &[u32]) -> usize {
    let total: u64 = weights.iter().map(|&w| u64::from(w)).sum();
    let mut at = rng.below(total);
    for (i, &w) in weights.iter().enumerate() {
        if at < u64::from(w) {
            return i;
        }
        at -= u64::from(w);
    }
    unreachable!("below(total) is under the sum of the weights")
}

/// A string whose length is uniform in `len`, over the ASCII `alphabet`.
pub fn string(rng: &mut DetRng, alphabet: &[u8], len: Range<usize>) -> String {
    vec(rng, len, |r| char::from(alphabet[r.index(alphabet.len())]))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// A property with a planted defect: "no draw is a multiple of 7".
    fn planted(rng: &mut DetRng) {
        let v = rng.range(1..1000);
        assert!(!v.is_multiple_of(7), "drew {v}");
    }

    #[test]
    fn a_failing_seed_replays_the_same_input() {
        // `cases` sweeps the seeds in order and stops at the first failure.
        let ran = std::cell::Cell::new(0u64);
        let swept = catch_unwind(AssertUnwindSafe(|| {
            cases(1000, |r| {
                ran.set(ran.get() + 1);
                planted(r);
            })
        }));
        assert!(swept.is_err(), "one draw in seven fails");
        let failing = ran.get() - 1;
        // That seed alone reproduces it, from the input it names.
        assert!(catch_unwind(|| case(failing, planted)).is_err());
        assert!(DetRng::seed(failing).range(1..1000).is_multiple_of(7));
        assert!((0..failing).all(|s| !DetRng::seed(s).range(1..1000).is_multiple_of(7)));
    }

    #[test]
    fn generators_respect_their_bounds() {
        cases(200, |rng| {
            let v = vec(rng, 2..5, |r| r.range(10..20));
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|x| (10..20).contains(x)));
            assert_eq!(pick(rng, &[0, 3, 0]), 1);
            let s = string(rng, b"ab/", 0..9);
            assert!(s.len() < 9 && s.bytes().all(|b| b"ab/".contains(&b)));
        });
        let mut rng = DetRng::seed(1);
        let mut hits = [0u32; 3];
        for _ in 0..6000 {
            hits[pick(&mut rng, &[4, 1, 1])] += 1;
        }
        assert!(hits[0] > 3600 && hits[0] < 4400, "{hits:?}");
        assert!(hits[1] > 800 && hits[2] > 800, "{hits:?}");
    }
}
