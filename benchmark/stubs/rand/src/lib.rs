//! Offline stand-in for `rand` 0.8: `SmallRng` (xoshiro256++ seeded by
//! SplitMix64, as upstream on 64-bit targets), `SeedableRng::seed_from_u64`
//! and the `Rng` methods `solros-simkit` calls. Streams are deterministic
//! per seed but are not promised to be bit-identical to upstream.

use std::ops::Range;

/// Seeding from a `u64`.
pub trait SeedableRng: Sized {
    /// Builds the generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// A type `Rng::gen_range` can sample uniformly from a half-open range.
pub trait SampleUniform: Sized {
    /// Draws one value in `range` from `rng`.
    fn sample<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

/// A type `Rng::gen` can produce.
pub trait Standard: Sized {
    /// Draws one value from `rng`.
    fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self;
}

/// The generator interface.
pub trait Rng {
    /// The next raw 64 bits.
    fn next_u64(&mut self) -> u64;

    /// A uniform value in `range`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn gen_range<T: SampleUniform>(&mut self, range: Range<T>) -> T {
        T::sample(self, range)
    }

    /// A uniform value of `T`.
    fn gen<T: Standard>(&mut self) -> T {
        T::draw(self)
    }

    /// Fills `dest` with random bytes.
    fn fill(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

fn below<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    assert!(span > 0, "cannot sample an empty range");
    // Widening multiply with rejection of the biased low zone (Lemire).
    let zone = span.wrapping_neg() % span;
    loop {
        let m = u128::from(rng.next_u64()) * u128::from(span);
        if (m as u64) >= zone {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! uniform_int {
    ($($t:ty),*) => {$(
        impl SampleUniform for $t {
            fn sample<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "cannot sample an empty range");
                let span = (range.end - range.start) as u64;
                range.start + below(rng, span) as $t
            }
        }
        impl Standard for $t {
            fn draw<R: Rng + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
uniform_int!(u8, u16, u32, u64, usize);

impl SampleUniform for f64 {
    fn sample<R: Rng + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "cannot sample an empty range");
        // 53 random mantissa bits give a uniform value in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let v = range.start + unit * (range.end - range.start);
        if v < range.end {
            v
        } else {
            range.start
        }
    }
}

/// Generators.
pub mod rngs {
    use super::{Rng, SeedableRng};

    /// xoshiro256++.
    #[derive(Debug, Clone)]
    pub struct SmallRng {
        s: [u64; 4],
    }

    impl SeedableRng for SmallRng {
        fn seed_from_u64(mut state: u64) -> Self {
            let mut s = [0u64; 4];
            for word in &mut s {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                *word = z ^ (z >> 31);
            }
            Self { s }
        }
    }

    impl Rng for SmallRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            out
        }
    }
}
