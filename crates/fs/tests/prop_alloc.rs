//! Property tests for the block allocation bitmap.

use std::collections::HashSet;

use solros_fs::alloc::Bitmap;
use solros_simkit::check::{self, vec};

const CASES: u64 = 128;

/// Allocated runs never overlap and never exceed the device; frees
/// restore the exact free count.
#[test]
fn never_double_allocates() {
    check::cases(CASES, |rng| {
        let total = rng.range(64..4096);
        let requests = vec(rng, 1..100, |r| r.range(1..64) as u32);
        let mut bm = Bitmap::new(total);
        let mut owned: Vec<(u64, u32)> = Vec::new();
        let mut blocks = HashSet::new();
        for want in requests {
            match bm.alloc_run(want) {
                Ok((start, len)) => {
                    assert!(len >= 1 && len <= want);
                    assert!(start + len as u64 <= total);
                    for b in start..start + len as u64 {
                        assert!(blocks.insert(b), "block {b} handed out twice");
                    }
                    owned.push((start, len));
                }
                Err(_) => {
                    // alloc_run returns partial runs, so NoSpace can only
                    // mean a genuinely full device.
                    assert_eq!(bm.free(), total - blocks.len() as u64);
                    assert_eq!(bm.free(), 0, "NoSpace with free blocks");
                }
            }
        }
        // Free everything; the bitmap must be fully free again.
        for (start, len) in owned {
            for b in start..start + len as u64 {
                bm.release(b);
            }
        }
        assert_eq!(bm.free(), total);
        // And a full-device run is allocatable in pieces.
        let mut regot = 0u64;
        while let Ok((_, l)) = bm.alloc_run(total as u32) {
            regot += l as u64;
        }
        assert_eq!(regot, total);
    });
}

/// Serialization round-trips the exact allocation state.
#[test]
fn bytes_roundtrip() {
    check::cases(CASES, |rng| {
        let total = rng.range(64..2048);
        let allocs = vec(rng, 0..40, |r| r.range(1..32) as u32);
        let mut bm = Bitmap::new(total);
        for want in allocs {
            let _ = bm.alloc_run(want);
        }
        let copy = Bitmap::from_bytes(&bm.to_bytes(), total);
        assert_eq!(copy.free(), bm.free());
        for b in 0..total {
            assert_eq!(copy.is_set(b), bm.is_set(b), "block {}", b);
        }
    });
}
