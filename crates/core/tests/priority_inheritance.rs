//! Priority inheritance acceptance: a high-class `Fstat` waiting on an
//! inode exclusively held by a best-effort writer must complete ahead of
//! the rest of the best-effort burst, because the engine promotes the
//! holder's flow to the waiter's weight until the hold is released.
//!
//! The test drives the shared proxy engine deterministically with
//! [`ProxyEngine::step`] on a virtual clock and compares two identical
//! runs: inheritance on (default) vs off ([`ProxyEngine::set_inherit`]).
//! With inheritance the promoted best-effort flow banks deficit at the
//! waiter's weight, so the locked writes — and with them the fstat —
//! finish in a handful of cycles; without it the weight-1 flow crawls and
//! the fstat trails the whole normal-class stream by an order of
//! magnitude in cycles.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use solros::fs_proxy::{FsProxy, FsProxyStats, QOS_BULK_BYTES};
use solros::transport::Channel;
use solros::{EngineLane, ProxyEngine};
use solros_fs::FileSystem;
use solros_nvme::NvmeDevice;
use solros_pcie::window::Window;
use solros_pcie::{PcieCounters, Side};
use solros_proto::fs_msg::{FsRequest, FsResponse};
use solros_qos::{FlowSpec, HostConfig, HostGate, HostScheduler, QosClass, Service};

/// Bulk write size: safely above the best-effort classification cutoff
/// and block-aligned so the write takes the P2P path.
const BULK: u64 = QOS_BULK_BYTES + 44 * 1024;
/// Best-effort writes trailing the locked pair (the "burst" the fstat
/// must beat).
const TRAILING_BE: u32 = 10;
/// Normal-class small writes competing for DWRR turns.
const NORMAL_WRITES: u32 = 24;

const FSTAT_TAG: u32 = 3;

struct Outcome {
    /// Engine cycles until the fstat reply surfaced.
    cycles: u64,
    /// Reply tags observed before the fstat reply, in completion order.
    before_fstat: Vec<u32>,
    stats: Arc<FsProxyStats>,
}

/// Builds a proxy + gate, enqueues the contended workload, and steps the
/// engine until the fstat answer arrives.
fn run(inherit: bool) -> Outcome {
    let fs = Arc::new(FileSystem::mkfs(NvmeDevice::new(8192), 256).unwrap());
    let window = Window::new(1 << 20, Side::Coproc, Arc::new(PcieCounters::new()));
    let stats = Arc::new(FsProxyStats::default());
    let proxy = FsProxy::new(
        Arc::clone(&fs),
        Arc::clone(&window),
        false,
        Arc::clone(&stats),
    );

    let spec = |name: &str, class: QosClass, weight: u32| FlowSpec {
        name: name.into(),
        class,
        weight,
        queue_cap: 1024,
        deadline_ns: 0,
        sheddable: false,
    };
    // Flow indices follow QosClass::index, matching the proxy's classify.
    let host = HostScheduler::new(HostConfig::default());
    let gate = HostGate::new(
        vec![
            spec("pi/high", QosClass::High, 16),
            spec("pi/normal", QosClass::Normal, 4),
            spec("pi/best", QosClass::BestEffort, 1),
        ],
        4096,
        usize::MAX,
        &host,
        Service::Fs,
        0,
    );

    let locked = fs.create("/locked").unwrap();
    let write = |ino: u64, count: u64, tag: u32| {
        FsRequest::Write {
            ino,
            offset: 0,
            count,
            buf_addr: 0,
        }
        .encode(tag)
    };

    let ch = Channel::new(Arc::new(PcieCounters::new()));
    // Two bulk writes hold the contended inode, then the high-class
    // fstat arrives behind them, then the rest of the best-effort burst
    // and a stream of normal-class writes.
    ch.req_tx.send_blocking(&write(locked, BULK, 1)).unwrap();
    ch.req_tx.send_blocking(&write(locked, BULK, 2)).unwrap();
    ch.req_tx
        .send_blocking(&FsRequest::Fstat { ino: locked }.encode(FSTAT_TAG))
        .unwrap();
    let mut tag = FSTAT_TAG;
    for i in 0..TRAILING_BE {
        tag += 1;
        let ino = fs.create(&format!("/be{i}")).unwrap();
        ch.req_tx.send_blocking(&write(ino, BULK, tag)).unwrap();
    }
    for i in 0..NORMAL_WRITES {
        tag += 1;
        let ino = fs.create(&format!("/n{i}")).unwrap();
        ch.req_tx.send_blocking(&write(ino, 4096, tag)).unwrap();
    }

    let faults = proxy.faults();
    let mut engine = ProxyEngine::new(
        proxy,
        vec![EngineLane {
            req_rx: ch.req_rx,
            resp_tx: ch.resp_tx,
        }],
        Arc::clone(&stats.engine),
        faults,
        Some(gate),
    );
    engine.set_inherit(inherit);

    let mut before_fstat = Vec::new();
    for cycle in 1..=2000u64 {
        engine.step(cycle * 1000);
        while let Ok(frame) = ch.resp_rx.recv() {
            let (tag, resp) = FsResponse::decode(&frame).unwrap();
            if tag == FSTAT_TAG {
                assert!(
                    matches!(resp, FsResponse::Stat { .. }),
                    "fstat answered {resp:?}"
                );
                return Outcome {
                    cycles: cycle,
                    before_fstat,
                    stats,
                };
            }
            before_fstat.push(tag);
        }
    }
    panic!("fstat never answered; saw {before_fstat:?}");
}

#[test]
fn fstat_beats_best_effort_burst_via_inheritance() {
    let on = run(true);

    // The waiter deferred behind the exclusive holders and promoted them.
    assert!(on.stats.inherit_deferred.load(Ordering::Relaxed) >= 1);
    assert!(on.stats.promotions.load(Ordering::Relaxed) >= 1);

    // Only the two locked writes may precede the fstat from the
    // best-effort flow: the trailing burst must not overtake it.
    let trailing: Vec<u32> = (FSTAT_TAG + 1..=FSTAT_TAG + TRAILING_BE).collect();
    assert!(
        !on.before_fstat.iter().any(|t| trailing.contains(t)),
        "best-effort burst overtook the fstat: {:?}",
        on.before_fstat
    );
    // Both holding writes did complete first (the release path ran).
    assert!(on.before_fstat.contains(&1) && on.before_fstat.contains(&2));
}

#[test]
fn inheritance_shortens_the_wait_by_cycles() {
    let on = run(true);
    let off = run(false);

    // Deferral happens either way; promotion only with inheritance on.
    assert!(off.stats.inherit_deferred.load(Ordering::Relaxed) >= 1);
    assert_eq!(off.stats.promotions.load(Ordering::Relaxed), 0);

    // The promoted holder banks deficit at weight 16 instead of 1, so
    // the locked writes (and the waiting fstat) finish far sooner.
    assert!(
        on.cycles * 4 < off.cycles,
        "inheritance gave no speedup: {} vs {} cycles",
        on.cycles,
        off.cycles
    );
}
