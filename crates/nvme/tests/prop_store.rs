//! The chunked block store against a per-block reference model.
//!
//! Random runs of writes, reads and trims — runs that straddle chunk
//! edges, reach into the last partial chunk of a capacity that is not a
//! multiple of the chunk size, or end past the device — must leave the
//! store reading exactly what a plain map of blocks would, count the same
//! resident blocks, and never materialize a block by reading it.

use solros_nvme::{BlockStore, NvmeError, BLOCK_SIZE, MDTS_BLOCKS};
use solros_simkit::{check, DetRng};

const CHUNK: u64 = MDTS_BLOCKS as u64;
/// Bytes a partial write touches: every `PARTIAL_STRIDE`-th of the run.
const PARTIAL_STRIDE: usize = 509;

/// A block per LBA, `None` until written.
struct Model {
    blocks: Vec<Option<Vec<u8>>>,
}

impl Model {
    fn block(&self, lba: u64) -> Vec<u8> {
        self.blocks[lba as usize]
            .clone()
            .unwrap_or_else(|| vec![0; BLOCK_SIZE])
    }

    fn resident(&self) -> usize {
        self.blocks.iter().filter(|b| b.is_some()).count()
    }
}

/// A run that mostly fits the device, sometimes starts on a chunk edge
/// or ends on one, and sometimes runs past the end.
fn run(rng: &mut DetRng, capacity: u64) -> (u64, u64) {
    let lba = match rng.index(4) {
        0 => rng.below(capacity.div_ceil(CHUNK)) * CHUNK,
        1 => (rng.below(capacity.div_ceil(CHUNK)) * CHUNK).saturating_sub(1),
        _ => rng.below(capacity),
    };
    let n = 1 + rng.below(2 * CHUNK);
    if rng.chance(0.8) {
        (lba, n.min(capacity - lba))
    } else {
        (lba, n)
    }
}

fn touched(at: usize, len: usize, partial: bool) -> impl Iterator<Item = usize> {
    (at..at + len).filter(move |i| !partial || i % PARTIAL_STRIDE == 0)
}

#[test]
fn chunked_store_matches_a_per_block_model() {
    check::cases(256, |rng| {
        // Whole chunks, or whole chunks plus a partial last one.
        let chunks = 1 + rng.below(5);
        let capacity = if rng.chance(0.5) {
            chunks * CHUNK
        } else {
            chunks * CHUNK - 1 - rng.below(CHUNK - 1)
        };
        let store = BlockStore::new(capacity);
        let mut model = Model {
            blocks: vec![None; capacity as usize],
        };
        for _ in 0..24 {
            let (lba, n) = run(rng, capacity);
            let fits = lba + n <= capacity;
            match check::pick(rng, &[4, 4, 2]) {
                0 => {
                    let mut data = vec![0u8; n as usize * BLOCK_SIZE];
                    rng.fill(&mut data);
                    let partial = rng.chance(0.3);
                    let mut lent = 0;
                    let res = store.write_run(lba, n, |at, bytes| {
                        assert_eq!(at, lent, "pieces are lent in order, back to back");
                        lent += bytes.len();
                        for i in touched(at, bytes.len(), partial) {
                            bytes[i - at] = data[i];
                        }
                    });
                    if !fits {
                        assert_eq!(res, Err(NvmeError::OutOfRange));
                        assert_eq!(lent, 0, "a run past the end lends nothing");
                        continue;
                    }
                    assert_eq!(res, Ok(()));
                    assert_eq!(lent, data.len());
                    for b in 0..n {
                        let mut block = model.block(lba + b);
                        let at = b as usize * BLOCK_SIZE;
                        for i in touched(at, BLOCK_SIZE, partial) {
                            block[i - at] = data[i];
                        }
                        model.blocks[(lba + b) as usize] = Some(block);
                    }
                }
                1 => {
                    let mut got = Vec::new();
                    let mut pieces = 0;
                    let res = store.read_run(lba, n, |at, bytes| {
                        assert_eq!(at, got.len(), "pieces are lent in order, back to back");
                        got.extend_from_slice(bytes);
                        pieces += 1;
                    });
                    if !fits {
                        assert_eq!(res, Err(NvmeError::OutOfRange));
                        assert!(got.is_empty(), "a run past the end lends nothing");
                        continue;
                    }
                    assert_eq!(res, Ok(()));
                    assert_eq!(pieces, (lba + n - 1) / CHUNK - lba / CHUNK + 1);
                    let want: Vec<u8> = (lba..lba + n).flat_map(|b| model.block(b)).collect();
                    assert!(got == want, "run {lba}+{n} reads what was written");
                }
                _ => {
                    let res = store.trim(lba);
                    assert_eq!(res, Ok(()));
                    model.blocks[lba as usize] = None;
                }
            }
            assert_eq!(store.resident_blocks(), model.resident());
        }
        // Every block, one at a time: contents and zero reads.
        let resident = store.resident_blocks();
        for lba in 0..capacity {
            let want = model.block(lba);
            assert!(store.read_with(lba, |b| b == &want[..]).unwrap());
        }
        assert_eq!(
            store.resident_blocks(),
            resident,
            "reads materialize nothing"
        );
        assert_eq!(
            store.read_with(capacity, |_| ()),
            Err(NvmeError::OutOfRange)
        );
    });
}
