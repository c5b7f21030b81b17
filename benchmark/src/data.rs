//! Stamped file blocks and payloads: inputs made from the seed, and the
//! checks that read them back.
//!
//! Every 4 KiB block carries its block index, its file id and a version;
//! the rest is a run of consecutive words from a base mixed out of all
//! three and the seed, so a misplaced, stale or torn block cannot verify.

use solros_nvme::BLOCK_SIZE;

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn base(seed: u64, file: u8, idx: u64, version: u32) -> u64 {
    mix(seed ^ mix(idx ^ (u64::from(version) << 40) ^ (u64::from(file) << 56)))
}

/// Word `i` of the block: the two stamps, then the run from the base.
fn word(i: usize, idx: u64, file: u8, version: u32, base: u64) -> u64 {
    match i {
        0 => idx,
        1 => u64::from(version) | (u64::from(file) << 32),
        _ => base.wrapping_add(i as u64),
    }
}

/// Fills one block of `file` at block index `idx` with `version`.
///
/// # Panics
///
/// Panics if `buf` is not exactly one block.
pub fn fill_block(buf: &mut [u8], seed: u64, file: u8, idx: u64, version: u32) {
    assert_eq!(buf.len(), BLOCK_SIZE);
    let b = base(seed, file, idx, version);
    for (i, w) in buf.chunks_exact_mut(8).enumerate() {
        w.copy_from_slice(&word(i, idx, file, version, b).to_le_bytes());
    }
}

/// True when `buf` is exactly what [`fill_block`] wrote for these stamps.
pub fn check_block(buf: &[u8], seed: u64, file: u8, idx: u64, version: u32) -> bool {
    if buf.len() != BLOCK_SIZE {
        return false;
    }
    let b = base(seed, file, idx, version);
    let mut ok = true;
    for (i, w) in buf.chunks_exact(8).enumerate() {
        let got = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
        ok &= got == word(i, idx, file, version, b);
    }
    ok
}

/// Fills `buf` (whole blocks) for blocks `first..` of `file`, taking each
/// block's version from `version_of`.
pub fn fill_range(
    buf: &mut [u8],
    seed: u64,
    file: u8,
    first: u64,
    mut version_of: impl FnMut(u64) -> u32,
) {
    for (i, block) in buf.chunks_exact_mut(BLOCK_SIZE).enumerate() {
        let idx = first + i as u64;
        fill_block(block, seed, file, idx, version_of(idx));
    }
}

/// Checks `buf` (whole blocks) as [`fill_range`] would have written it.
pub fn check_range(
    buf: &[u8],
    seed: u64,
    file: u8,
    first: u64,
    mut version_of: impl FnMut(u64) -> u32,
) -> bool {
    buf.len().is_multiple_of(BLOCK_SIZE)
        && buf.chunks_exact(BLOCK_SIZE).enumerate().all(|(i, block)| {
            let idx = first + i as u64;
            check_block(block, seed, file, idx, version_of(idx))
        })
}

/// A 64-byte network payload: sequence number, then words mixed from it.
pub fn fill_msg(buf: &mut [u8; 64], seed: u64, seq: u64) {
    let b = mix(seed ^ mix(seq));
    for (i, w) in buf.chunks_exact_mut(8).enumerate() {
        let v = if i == 0 {
            seq
        } else {
            b.wrapping_add(i as u64)
        };
        w.copy_from_slice(&v.to_le_bytes());
    }
}

/// True when `buf` is the payload [`fill_msg`] makes for `seq`.
pub fn check_msg(buf: &[u8], seed: u64, seq: u64) -> bool {
    let mut want = [0u8; 64];
    fill_msg(&mut want, seed, seq);
    buf == want
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_verify_only_with_their_own_stamps() {
        let mut b = vec![0u8; BLOCK_SIZE];
        fill_block(&mut b, 7, 1, 42, 3);
        assert!(check_block(&b, 7, 1, 42, 3));
        assert!(!check_block(&b, 7, 1, 42, 4), "stale version");
        assert!(!check_block(&b, 7, 1, 43, 3), "misplaced block");
        assert!(!check_block(&b, 7, 2, 42, 3), "wrong file");
        assert!(!check_block(&b, 8, 1, 42, 3), "wrong seed");
        b[BLOCK_SIZE - 1] ^= 1;
        assert!(!check_block(&b, 7, 1, 42, 3), "torn tail");
    }

    #[test]
    fn messages_verify_only_with_their_sequence() {
        let mut m = [0u8; 64];
        fill_msg(&mut m, 9, 5);
        assert!(check_msg(&m, 9, 5));
        assert!(!check_msg(&m, 9, 6));
        assert!(!check_msg(&m[..63], 9, 5));
    }
}
