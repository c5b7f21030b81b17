//! Property-based tests for the file system: random operation sequences
//! checked against an in-memory oracle.

use std::collections::HashMap;
use std::sync::Arc;

use solros_fs::{FileSystem, FsError};
use solros_nvme::NvmeDevice;
use solros_simkit::check::{self, vec};
use solros_simkit::DetRng;

#[derive(Debug, Clone)]
enum Op {
    Create(u8),
    Write {
        file: u8,
        offset: u16,
        len: u16,
        fill: u8,
    },
    Read {
        file: u8,
        offset: u16,
        len: u16,
    },
    Truncate {
        file: u8,
        size: u16,
    },
    Unlink(u8),
    Sync,
}

fn gen_op(rng: &mut DetRng) -> Op {
    let file = rng.range(0..6) as u8;
    match rng.index(6) {
        0 => Op::Create(file),
        1 => Op::Write {
            file,
            offset: rng.next_u64() as u16 % 20_000,
            len: rng.range(0..5000) as u16,
            fill: rng.next_u64() as u8,
        },
        2 => Op::Read {
            file,
            offset: rng.next_u64() as u16 % 30_000,
            len: rng.range(0..5000) as u16,
        },
        3 => Op::Truncate {
            file,
            size: rng.range(0..25_000) as u16,
        },
        4 => Op::Unlink(file),
        _ => Op::Sync,
    }
}

const CASES: u64 = 32;

/// The file system agrees with a byte-vector oracle over arbitrary
/// operation sequences (including sparse writes and truncates).
#[test]
fn oracle_equivalence() {
    check::cases(CASES, |rng| run_against_oracle(vec(rng, 1..60, gen_op)));
}

/// Sequences that once failed `oracle_equivalence`, as shrunk when found.
#[test]
fn oracle_equivalence_recorded_failures() {
    run_against_oracle(vec![Op::Create(0), Op::Truncate { file: 0, size: 1 }]);
    let write = |file, offset, len, fill| Op::Write {
        file,
        offset,
        len,
        fill,
    };
    run_against_oracle(vec![
        Op::Create(4),
        write(4, 0, 1, 1),
        Op::Unlink(4),
        Op::Create(4),
        write(4, 1, 4, 144),
        Op::Truncate {
            file: 4,
            size: 22964,
        },
    ]);
    run_against_oracle(vec![
        Op::Create(2),
        write(2, 888, 3209, 1),
        Op::Create(3),
        Op::Truncate { file: 2, size: 0 },
        write(2, 4096, 0, 0),
    ]);
}

fn run_against_oracle(ops: Vec<Op>) {
    let fs = FileSystem::mkfs(NvmeDevice::new(65_536), 256).unwrap();
    // file tag -> (ino, oracle contents)
    let mut oracle: HashMap<u8, (u64, Vec<u8>)> = HashMap::new();
    for op in ops {
        match op {
            Op::Create(tag) => {
                let path = format!("/f{tag}");
                match fs.create(&path) {
                    Ok(ino) => {
                        assert!(!oracle.contains_key(&tag));
                        oracle.insert(tag, (ino, Vec::new()));
                    }
                    Err(FsError::Exists) => {
                        assert!(oracle.contains_key(&tag));
                    }
                    Err(e) => panic!("create: {e}"),
                }
            }
            Op::Write {
                file,
                offset,
                len,
                fill,
            } => {
                if len == 0 {
                    continue; // Zero-length writes are no-ops.
                }
                if let Some((ino, content)) = oracle.get_mut(&file) {
                    let data = vec![fill; len as usize];
                    fs.write(*ino, offset as u64, &data).unwrap();
                    let end = offset as usize + len as usize;
                    if content.len() < end {
                        content.resize(end, 0);
                    }
                    content[offset as usize..end].copy_from_slice(&data);
                }
            }
            Op::Read { file, offset, len } => {
                if let Some((ino, content)) = oracle.get(&file) {
                    let mut buf = vec![0u8; len as usize];
                    let n = fs.read(*ino, offset as u64, &mut buf).unwrap();
                    let off = offset as usize;
                    let want: &[u8] = if off >= content.len() {
                        &[]
                    } else {
                        &content[off..(off + len as usize).min(content.len())]
                    };
                    assert_eq!(n, want.len());
                    assert_eq!(&buf[..n], want);
                }
            }
            Op::Truncate { file, size } => {
                if let Some((ino, content)) = oracle.get_mut(&file) {
                    fs.truncate(*ino, size as u64).unwrap();
                    if (size as usize) < content.len() {
                        content.truncate(size as usize);
                    } else {
                        content.resize(size as usize, 0);
                    }
                }
            }
            Op::Unlink(tag) => {
                let path = format!("/f{tag}");
                match fs.unlink(&path) {
                    Ok(()) => {
                        assert!(oracle.remove(&tag).is_some());
                    }
                    Err(FsError::NotFound) => {
                        assert!(!oracle.contains_key(&tag));
                    }
                    Err(e) => panic!("unlink: {e}"),
                }
            }
            Op::Sync => fs.sync().unwrap(),
        }
    }
    // Structural consistency after arbitrary operation sequences.
    let report = fs.fsck().expect("fsck clean");
    assert_eq!(report.files as usize, oracle.len());
    // Final verification of every live file.
    for (tag, (ino, content)) in &oracle {
        let st = fs.stat(&format!("/f{tag}")).unwrap();
        assert_eq!(st.size, content.len() as u64);
        let mut buf = vec![0u8; content.len()];
        let n = fs.read(*ino, 0, &mut buf).unwrap();
        assert_eq!(n, content.len());
        assert_eq!(&buf, content);
    }
}

/// Remount preserves every file exactly (metadata durability).
#[test]
fn remount_durability() {
    check::cases(CASES, |rng| {
        let files = vec(rng, 1..5, |r| {
            (r.range(1..30_000) as usize, r.next_u64() as u8)
        });
        let dev = NvmeDevice::new(65_536);
        let mut expect = Vec::new();
        {
            let fs = FileSystem::mkfs(Arc::clone(&dev), 64).unwrap();
            for (i, (size, fill)) in files.iter().enumerate() {
                let ino = fs.create(&format!("/file{i}")).unwrap();
                let data = vec![*fill; *size];
                fs.write(ino, 0, &data).unwrap();
                expect.push(data);
            }
            fs.sync().unwrap();
        }
        let fs = FileSystem::mount(dev, 64).unwrap();
        for (i, data) in expect.iter().enumerate() {
            let st = fs.stat(&format!("/file{i}")).unwrap();
            assert_eq!(st.size, data.len() as u64);
            let mut buf = vec![0u8; data.len()];
            fs.read(st.ino, 0, &mut buf).unwrap();
            assert_eq!(&buf, data);
        }
    });
}

/// fiemap covers exactly the requested in-file range, with no overlap
/// between different files' extents.
#[test]
fn fiemap_coverage_and_disjointness() {
    check::cases(CASES, |rng| {
        let sizes = vec(rng, 2..5, |r| r.range(1..60_000) as usize);
        let probe = rng.range(0..60_000);
        let fs = FileSystem::mkfs(NvmeDevice::new(65_536), 64).unwrap();
        let mut all_blocks = std::collections::HashSet::new();
        for (i, size) in sizes.iter().enumerate() {
            let ino = fs.create(&format!("/f{i}")).unwrap();
            fs.write(ino, 0, &vec![1u8; *size]).unwrap();
            let map = fs.fiemap(ino, 0, *size as u64).unwrap();
            let blocks: u64 = map.iter().map(|e| e.len as u64).sum();
            assert_eq!(blocks, (*size as u64).div_ceil(4096), "file {}", i);
            for e in &map {
                for b in e.start..e.start + e.len as u64 {
                    assert!(all_blocks.insert(b), "block {} shared", b);
                }
            }
            // A probe subrange maps to a subset of the file's blocks.
            let sub = fs.fiemap(ino, probe.min(*size as u64), 4096).unwrap();
            let sub_blocks: u64 = sub.iter().map(|e| e.len as u64).sum();
            assert!(sub_blocks <= 2);
        }
    });
}
