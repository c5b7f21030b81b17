//! Property-based tests for the transport service.

use std::sync::Arc;

use solros_pcie::{PcieCounters, Side};
use solros_ringbuf::ring::{CopyMode, RingBuf, RingConfig};
use solros_ringbuf::RingError;
use solros_simkit::check::{self, vec};

fn ring(cfg: RingConfig) -> (solros_ringbuf::Producer, solros_ringbuf::Consumer) {
    RingBuf::new(cfg, Arc::new(PcieCounters::new())).endpoints()
}

const CASES: u64 = 64;

/// Any interleaving of sends and receives preserves content and FIFO
/// order (single-threaded model check against a VecDeque oracle).
#[test]
fn fifo_model_equivalence() {
    check::cases(CASES, |rng| {
        let ops = vec(rng, 1..400, |r| (r.chance(0.5), r.range(1..200) as usize));
        let cap_pow = rng.range(9..14);
        let cap = 1usize << cap_pow;
        let (tx, rx) = ring(RingConfig::local(cap, Side::Host));
        let mut oracle: std::collections::VecDeque<Vec<u8>> = Default::default();
        let mut seq = 0u32;
        for (is_send, size) in ops {
            if is_send {
                let mut data = vec![0u8; size];
                data[0] = seq as u8;
                if size >= 5 {
                    data[1..5].copy_from_slice(&seq.to_le_bytes());
                }
                match tx.send(&data) {
                    Ok(()) => {
                        oracle.push_back(data);
                        seq += 1;
                    }
                    Err(RingError::WouldBlock) => {
                        // Full (or reclaim lag of the last consumed slot);
                        // no state change. A dequeue pass frees space.
                        let _ = rx.dequeue().map(|rb| {
                            let want = oracle.pop_front().expect("oracle tracks ring");
                            let mut got = vec![0u8; rb.len()];
                            rx.copy_from(&rb, &mut got);
                            rx.set_done(rb);
                            assert_eq!(got, want);
                        });
                    }
                    Err(RingError::TooBig) => {
                        assert!(size + 8 > cap / 4, "spurious TooBig for {size}");
                    }
                    Err(RingError::Corrupt) => {
                        panic!("corruption surfaced with no fault injected");
                    }
                }
            } else {
                match rx.recv() {
                    Ok(got) => {
                        let want = oracle.pop_front().expect("ring had no element");
                        assert_eq!(got, want);
                    }
                    Err(_) => assert!(oracle.is_empty(), "element lost"),
                }
            }
        }
        // Drain: everything the oracle holds must come out, in order.
        while let Some(want) = oracle.pop_front() {
            let got = rx.recv_blocking();
            assert_eq!(got, want);
        }
        assert!(matches!(rx.recv(), Err(RingError::WouldBlock)));
    });
}

/// Cross-PCIe rings deliver identical bytes for every size mix and
/// copy mode.
#[test]
fn pcie_ring_integrity() {
    check::cases(CASES, |rng| {
        let sizes = vec(rng, 1..120, |r| r.range(1..2000) as usize);
        let mode = [CopyMode::Memcpy, CopyMode::Dma, CopyMode::Adaptive][rng.index(3)];
        let master_at_producer = rng.chance(0.5);
        let master = if master_at_producer {
            Side::Coproc
        } else {
            Side::Host
        };
        let cfg =
            RingConfig::over_pcie(1 << 14, master, Side::Coproc, Side::Host).with_copy_mode(mode);
        let (tx, rx) = ring(cfg);
        for (i, &size) in sizes.iter().enumerate() {
            let fill = (i % 251) as u8;
            let mut data = vec![fill; size];
            data[0] = (i % 256) as u8;
            tx.send_blocking(&data).unwrap();
            let got = rx.recv_blocking();
            assert_eq!(got, data);
        }
    });
}

/// The decoupled reserve/copy/publish phases never corrupt neighbours
/// even when publication happens out of order.
#[test]
fn out_of_order_publication() {
    check::cases(CASES, |rng| {
        let mut order = vec(rng, 8..9, |r| r.index(8));
        // Make `order` a permutation of 0..8.
        order.sort_unstable();
        order.dedup();
        let extra: Vec<usize> = (0..8).filter(|i| !order.contains(i)).collect();
        order.extend(extra);

        let (tx, rx) = ring(RingConfig::local(1 << 12, Side::Host));
        let bufs: Vec<_> = (0..8u8)
            .map(|i| {
                let rb = tx.enqueue(16).unwrap();
                tx.copy_to(&rb, &[i; 16]);
                rb
            })
            .collect();
        // Publish in arbitrary order.
        let mut bufs: Vec<Option<_>> = bufs.into_iter().map(Some).collect();
        for &i in &order {
            tx.set_ready(bufs[i].take().expect("unique index"));
        }
        tx.kick();
        // FIFO delivery in reservation order regardless.
        for i in 0..8u8 {
            assert_eq!(rx.recv_blocking(), vec![i; 16]);
        }
    });
}

#[test]
fn concurrent_pcie_ring_stress_with_all_copy_modes() {
    for mode in [CopyMode::Memcpy, CopyMode::Dma, CopyMode::Adaptive] {
        let cfg = RingConfig::over_pcie(1 << 15, Side::Coproc, Side::Coproc, Side::Host)
            .with_copy_mode(mode);
        let (tx, rx) = ring(cfg);
        let n = 2_000u32;
        let producer = std::thread::spawn(move || {
            for i in 0..n {
                let size = 4 + (i as usize * 13) % 512;
                let mut data = vec![(i % 256) as u8; size];
                data[..4].copy_from_slice(&i.to_le_bytes());
                tx.send_blocking(&data).unwrap();
            }
        });
        for i in 0..n {
            let v = rx.recv_blocking();
            assert_eq!(
                u32::from_le_bytes(v[..4].try_into().unwrap()),
                i,
                "{mode:?}"
            );
        }
        producer.join().unwrap();
    }
}
