//! Property-based test for the submission/completion pipeline's tag
//! lifecycle: across threads interleaving `submit`/`wait`/`wait_any`/
//! `poll` against a proxy that replies out of order, every token
//! completes exactly once with its own payload (no cross-tag delivery),
//! and tokens dropped before redemption leak nothing.

use std::sync::Arc;

use solros::transport::{Channel, RpcClient};
use solros_pcie::counter::PcieCounters;
use solros_proto::fs_msg::{FsRequest, FsResponse};
use solros_simkit::check::{cases, vec};
use solros_simkit::DetRng;

/// How one generated operation redeems its token(s).
#[derive(Debug, Clone, Copy)]
enum Redeem {
    /// `wait(submit(..))` — the blocking path.
    Wait,
    /// Busy `poll` until the reply lands.
    Poll,
    /// Drop the token without redeeming; the reply must be discarded
    /// without leaking a pending-map entry.
    Drop,
    /// Submit a small burst and harvest it with `wait_any`.
    AnyBurst,
}

fn gen_redeem(rng: &mut DetRng) -> Redeem {
    [Redeem::Wait, Redeem::Poll, Redeem::Drop, Redeem::AnyBurst][rng.index(4)]
}

const MAGIC: u64 = 0x5013;

fn check(reply: &[u8], want_tag: u32, want_ino: u64) {
    let (rtag, resp) = FsResponse::decode(reply).unwrap();
    assert_eq!(rtag, want_tag, "reply routed to the wrong tag");
    match resp {
        FsResponse::Stat { ino, size, .. } => {
            assert_eq!(ino, want_ino, "cross-tag payload delivery");
            assert_eq!(size, want_ino ^ MAGIC);
        }
        other => panic!("unexpected response {other:?}"),
    }
}

fn run_case(plans: Vec<Vec<Redeem>>, shuffle_seed: u64) {
    let counters = Arc::new(PcieCounters::new());
    let ch = Channel::new(counters);
    let client = RpcClient::new(ch.req_tx, ch.resp_rx);

    // Each op issues one request, except AnyBurst which issues three.
    let total: usize = plans
        .iter()
        .flatten()
        .map(|r| if matches!(r, Redeem::AnyBurst) { 3 } else { 1 })
        .sum();

    // The proxy stashes requests and flushes them in a shuffled order to
    // force out-of-order completion on every flush.
    let req_rx = ch.req_rx;
    let resp_tx = ch.resp_tx;
    let proxy = std::thread::spawn(move || {
        let mut rng = DetRng::seed(shuffle_seed);
        let mut served = 0usize;
        let mut stash: Vec<(u32, u64)> = Vec::new();
        while served < total {
            match req_rx.recv() {
                Ok(frame) => {
                    let (tag, req) = FsRequest::decode(&frame).unwrap();
                    let ino = match req {
                        FsRequest::Fstat { ino } => ino,
                        other => panic!("unexpected request {other:?}"),
                    };
                    stash.push((tag, ino));
                }
                Err(_) if stash.is_empty() => std::thread::yield_now(),
                Err(_) => {
                    // Fisher-Yates shuffle, then flush the whole stash.
                    for i in (1..stash.len()).rev() {
                        stash.swap(i, rng.below(i as u64 + 1) as usize);
                    }
                    for (tag, ino) in stash.drain(..) {
                        let resp = FsResponse::Stat {
                            ino,
                            is_dir: false,
                            size: ino ^ MAGIC,
                        };
                        resp_tx.send_blocking(&resp.encode(tag)).unwrap();
                        served += 1;
                    }
                }
            }
        }
    });

    std::thread::scope(|scope| {
        for (t, plan) in plans.iter().enumerate() {
            let client = Arc::clone(&client);
            scope.spawn(move || {
                for (i, redeem) in plan.iter().enumerate() {
                    let ino = (t * 10_000 + i) as u64;
                    match redeem {
                        Redeem::Wait => {
                            let tag = client.tag();
                            let token = client
                                .submit_blocking(tag, FsRequest::Fstat { ino }.encode(tag))
                                .unwrap();
                            check(&client.wait(token), tag, ino);
                        }
                        Redeem::Poll => {
                            let tag = client.tag();
                            let token = client
                                .submit_blocking(tag, FsRequest::Fstat { ino }.encode(tag))
                                .unwrap();
                            let reply = loop {
                                if let Some(r) = client.poll(&token) {
                                    break r;
                                }
                                std::thread::yield_now();
                            };
                            check(&reply, tag, ino);
                        }
                        Redeem::Drop => {
                            let tag = client.tag();
                            let token = client
                                .submit_blocking(tag, FsRequest::Fstat { ino }.encode(tag))
                                .unwrap();
                            drop(token);
                        }
                        Redeem::AnyBurst => {
                            let mut tokens = Vec::new();
                            let mut meta = Vec::new();
                            for b in 0..3u64 {
                                let bi = ino + 1_000 * (b + 1);
                                let tag = client.tag();
                                tokens.push(
                                    client
                                        .submit_blocking(
                                            tag,
                                            FsRequest::Fstat { ino: bi }.encode(tag),
                                        )
                                        .unwrap(),
                                );
                                meta.push((tag, bi));
                            }
                            for _ in 0..tokens.len() {
                                let (idx, reply) = client.wait_any(&tokens);
                                check(&reply, meta[idx].0, meta[idx].1);
                            }
                        }
                    }
                }
            });
        }
    });

    proxy.join().unwrap();
    // Replies to dropped tokens may still sit in the reply ring; draining
    // them must clear every abandoned pending-map entry.
    let mut spins = 0;
    while client.pending_len() != 0 {
        client.drain_now();
        std::thread::yield_now();
        spins += 1;
        assert!(spins < 1_000_000, "pending map never emptied (leak)");
    }
    assert_eq!(client.pending_len(), 0, "tag leaked in the pending map");
}

#[test]
fn tag_lifecycle_survives_interleaving() {
    cases(24, |rng| {
        let plans = vec(rng, 1..4, |r| vec(r, 1..24, gen_redeem));
        run_case(plans, rng.next_u64());
    });
}
