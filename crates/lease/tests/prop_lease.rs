//! Property tests for the lease protocol's coherence rules:
//!
//! 1. No two conflicting leases are ever on the books at once.
//! 2. Every recall settles — acked by the holder or force-revoked by the
//!    deadline sweep — so the ledger is clean at quiescence.
//! 3. Nothing leaks across grant→settle cycles: every grant is accounted
//!    for as a release, an ack, or a forced revoke, and re-grants never
//!    reuse a generation an earlier mapping carried.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use solros_fs::Extent;
use solros_lease::{LeaseKind, LeaseManager, LeaseState};
use solros_simkit::check;

const BS: u64 = 4096;

fn overlap(a: &LeaseState, b: &LeaseState) -> bool {
    a.ino() == b.ino()
        && a.offset() < b.offset().saturating_add(b.len())
        && b.offset() < a.offset().saturating_add(a.len())
}

fn conflicts(a: &LeaseState, b: &LeaseState) -> bool {
    overlap(a, b) && (a.kind() == LeaseKind::Write || b.kind() == LeaseKind::Write)
}

/// Drops a settled lease from the model and records the highest
/// generation that ever left the books for its inode.
fn settle_model(live: &mut Vec<Arc<LeaseState>>, settled_gen: &mut HashMap<u64, u64>, id: u64) {
    if let Some(pos) = live.iter().position(|l| l.id() == id) {
        let st = live.remove(pos);
        let e = settled_gen.entry(st.ino()).or_insert(0);
        *e = (*e).max(st.generation());
    }
}

/// Random grant/release/recall/sweep interleavings: after every step
/// the outstanding set is conflict-free and matches the ledger; at
/// quiescence every grant has settled exactly once and every recall
/// was answered or force-revoked.
#[test]
fn lease_protocol_invariants() {
    check::cases(64, |rng| {
        let ops = check::vec(rng, 1..80, |r| {
            (
                r.range(0..5),
                r.range(1..4),
                r.range(0..8),
                r.range(1..4),
                r.chance(0.5),
            )
        });
        let m = LeaseManager::new();
        // Zero budget: recalls are sweepable the moment they are issued,
        // so the single-threaded model never has to wait out a deadline.
        m.set_recall_budget(Duration::from_millis(0));
        let mut live: Vec<Arc<LeaseState>> = Vec::new();
        // Highest generation that ever left the books, per inode.
        let mut settled_gen: HashMap<u64, u64> = HashMap::new();

        for (op, ino, block, blocks, write) in ops {
            let kind = if write {
                LeaseKind::Write
            } else {
                LeaseKind::Read
            };
            match op {
                // Grant attempt.
                0 => {
                    let offset = block * BS;
                    let len = blocks * BS;
                    let ext = vec![Extent {
                        start: 100 + block,
                        len: blocks as u32,
                    }];
                    match m.grant(0, ino, offset, len, kind, ext, offset + len, None) {
                        Ok(st) => {
                            let gen_floor = settled_gen.get(&ino).copied().unwrap_or(0);
                            assert!(
                                st.generation() > gen_floor,
                                "re-grant reused generation {} (floor {})",
                                st.generation(),
                                gen_floor
                            );
                            live.push(st);
                        }
                        Err(_) => {
                            // A denial must be justified by a real
                            // conflict on the books.
                            assert!(
                                live.iter().any(|l| l.ino() == ino
                                    && l.offset() < offset + len
                                    && offset < l.offset() + l.len()
                                    && (write || l.kind() == LeaseKind::Write)),
                                "grant denied with no conflicting lease"
                            );
                        }
                    }
                }
                // Voluntary release of some live lease.
                1 => {
                    if !live.is_empty() {
                        let idx = (block as usize) % live.len();
                        let id = live[idx].id();
                        assert!(m.settle_wire(id, 0, true).is_some());
                        settle_model(&mut live, &mut settled_gen, id);
                    }
                }
                // Non-blocking recall: marks conflicting leases, leaves
                // them pending for the sweep.
                2 => {
                    m.recall_range(ino, 0, u64::MAX, write);
                }
                // Deadline sweep force-revokes everything pending.
                3 => {
                    for s in m.sweep() {
                        settle_model(&mut live, &mut settled_gen, s.id);
                    }
                }
                // Recall, then the sweep at the (zero) deadline: the
                // conflicting leases settle, and the range is free.
                _ => {
                    let (offset, len) = (block * BS, blocks * BS);
                    m.recall_range(ino, offset, len, write);
                    for s in m.sweep() {
                        settle_model(&mut live, &mut settled_gen, s.id);
                    }
                    assert_eq!(
                        m.recall_range(ino, offset, len, write),
                        0,
                        "a conflicting lease outlived its recall deadline"
                    );
                }
            }

            // Rule 1: the outstanding set is conflict-free.
            for (i, a) in live.iter().enumerate() {
                for b in &live[i + 1..] {
                    assert!(
                        !conflicts(a, b),
                        "conflicting leases coexist: {}/{}",
                        a.id(),
                        b.id()
                    );
                }
            }
            assert_eq!(m.ledger().outstanding, live.len() as u64);
        }

        // Quiesce: recall everything still out, then sweep to settle.
        while !live.is_empty() {
            for l in &live {
                m.recall_range(l.ino(), 0, u64::MAX, true);
            }
            for s in m.sweep() {
                settle_model(&mut live, &mut settled_gen, s.id);
            }
        }

        // Rule 2: every recall settled, none in flight.
        let ledger = m.ledger();
        assert!(ledger.clean(), "dirty ledger at quiescence: {ledger:?}");
        assert_eq!(ledger.outstanding, 0);
        // Rule 3: every grant left the books through exactly one door.
        assert_eq!(
            ledger.granted,
            ledger.released + ledger.recalls_acked + ledger.forced_revokes
        );
    });
}
