//! Property-based tests for the tenant→service→flow hierarchy:
//! weighted fairness at every level under random tenant churn, GC
//! safety (never reclaim queued work, live pins, or promotions, and
//! the occupancy ledger stays exact), exact tenant charges from gate
//! shards admitting concurrently, and the precedence of priority
//! inheritance over tenant-budget gating.

use std::collections::HashMap;
use std::sync::Arc;

use solros_qos::{
    Dispatch, FlowSpec, HostConfig, HostGate, HostScheduler, QosClass, QosConfig, Service, Verdict,
};
use solros_simkit::check;

/// An unbounded Normal-class spec: fairness comes from the hierarchy
/// alone, not caps.
fn open_spec(name: &str, weight: u32) -> FlowSpec {
    FlowSpec {
        name: name.into(),
        class: QosClass::Normal,
        weight,
        queue_cap: usize::MAX,
        deadline_ns: 0,
        sheddable: false,
    }
}

fn open_gate(host: &Arc<HostScheduler>, service: Service) -> HostGate<u32> {
    HostGate::new(
        vec![open_spec("h/normal", 1)],
        1024,
        usize::MAX,
        host,
        service,
        0,
    )
}

const CASES: u64 = 48;

/// Level 1: two persistently backlogged tenants with random weights
/// split the service in proportion to those weights, within DWRR
/// granularity, while a churn of transient tenants constantly
/// enters, drains, and is GC'd around them. The churn must neither
/// skew the persistent tenants' shares nor leave residue in the
/// flow table.
#[test]
fn tenant_weights_shape_shares_under_churn() {
    check::cases(CASES, |rng| {
        let wa = rng.range(1..8) as u32;
        let wb = rng.range(1..8) as u32;
        let churn = check::vec(rng, 0..64, |r| r.range(1..64));
        let host = HostScheduler::new(HostConfig {
            epoch_ns: 8_000,
            gc_idle_epochs: 2,
            ..HostConfig::default()
        });
        host.set_tenant_weight(1, wa);
        host.set_tenant_weight(2, wb);
        let mut g = open_gate(&host, Service::Fs);
        let fa = g.flow_for_tenant(1, 0);
        let fb = g.flow_for_tenant(2, 0);

        let mut served = [0u64; 2];
        let mut now = 0u64;
        for i in 0..4_000usize {
            now += 1_000;
            // Keep both persistent tenants backlogged.
            while g.queued(fa) < 8 {
                assert!(matches!(g.submit(fa, 1024, now, 0), Verdict::Admitted));
            }
            while g.queued(fb) < 8 {
                assert!(matches!(g.submit(fb, 1024, now, 0), Verdict::Admitted));
            }
            // Transient churn: a fresh tenant id drops one request and
            // never returns; the id pool is offset so it can't collide
            // with the persistent tenants. Arrivals stay below service
            // capacity (one dispatch per iteration) so the transient
            // backlog — and with it the GC-able table — stays bounded.
            if i % 4 == 0 {
                if let Some(&seed) = churn.get((i / 4) % churn.len().max(1)) {
                    let t = 1_000 + (i as u64) * 64 + seed;
                    let tf = g.flow_for_tenant(t, 0);
                    assert!(matches!(g.submit(tf, 1024, now, 0), Verdict::Admitted));
                }
            }
            g.maintain(now);
            match g.dispatch(now) {
                Dispatch::Run { flow, .. } if flow == fa => served[0] += 1,
                Dispatch::Run { flow, .. } if flow == fb => served[1] += 1,
                Dispatch::Run { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        let ratio = served[0] as f64 / served[1].max(1) as f64;
        let want = f64::from(wa) / f64::from(wb);
        assert!(
            ratio >= want / 1.4 && ratio <= want * 1.4,
            "served {served:?}: ratio {ratio:.2} strayed from weights {wa}:{wb} ({want:.2})"
        );
        // Occupancy stayed O(active) while the churn ran: the table
        // never grew toward the hundreds of ids ever admitted.
        let mid = host.snapshot();
        assert!(
            mid.peak_live_flows < 64,
            "flow table peaked at {} entries under transient churn",
            mid.peak_live_flows
        );
        // Drain everything and idle through enough epochs: every
        // dynamic flow (persistent tenants included) goes idle and the
        // table returns to its static skeleton, ledger balanced.
        // (Idle can be transient — one pass grants each flow at most
        // one deficit credit — so drain on the queue depth, not Idle.)
        let mut calls = 0u32;
        while g.queued_total() > 0 {
            calls += 1;
            assert!(calls < 1_000_000, "drain made no progress");
            let _ = g.dispatch(now);
        }
        for _ in 0..4 {
            now += 8_001;
            g.maintain(now);
        }
        let snap = host.snapshot();
        assert_eq!(snap.live_flows, 0, "churn left flow-table residue");
        assert_eq!(
            snap.admitted_flows, snap.reclaimed_flows,
            "occupancy ledger leaked"
        );
    });
}

/// Level 2: a tenant backlogged on *both* services has its FS
/// deficit credit scaled to the FS share of the configured service
/// weights, so a single-service tenant beside it is served
/// `(w_fs + w_tcp) / w_fs` times as fast, for any weight split.
#[test]
fn service_share_tracks_configured_split() {
    check::cases(CASES, |rng| {
        let w_fs = rng.range(1..8) as u32;
        let w_tcp = rng.range(1..8) as u32;
        let host = HostScheduler::new(HostConfig {
            service_weights: [w_fs, w_tcp],
            ..HostConfig::default()
        });
        let mut fs = open_gate(&host, Service::Fs);
        let mut tcp = open_gate(&host, Service::Tcp);
        let both = fs.flow_for_tenant(5, 0);
        let solo = fs.flow_for_tenant(6, 0);
        let both_tcp = tcp.flow_for_tenant(5, 0);
        for _ in 0..2_000u32 {
            assert!(matches!(fs.submit(both, 1024, 0, 0), Verdict::Admitted));
            assert!(matches!(fs.submit(solo, 1024, 0, 0), Verdict::Admitted));
        }
        // A standing TCP backlog keeps level 2 engaged for tenant 5.
        for _ in 0..64u32 {
            assert!(matches!(
                tcp.submit(both_tcp, 1024, 0, 0),
                Verdict::Admitted
            ));
        }
        // A single dispatch pass visits each flow at most once and may
        // transiently report Idle while every backlogged flow is mid
        // deficit accumulation; the engine just calls again next
        // cycle, so the drive loop does too.
        let mut served = [0u64; 2];
        let mut calls = 0u32;
        while served[0] + served[1] < 900 {
            calls += 1;
            assert!(calls < 100_000, "dispatch made no progress: {served:?}");
            match fs.dispatch(0) {
                Dispatch::Run { flow, .. } if flow == both => served[0] += 1,
                Dispatch::Run { flow, .. } if flow == solo => served[1] += 1,
                Dispatch::Idle => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        let ratio = served[1] as f64 / served[0].max(1) as f64;
        let want = f64::from(w_fs + w_tcp) / f64::from(w_fs);
        assert!(
            ratio >= want / 1.5 && ratio <= want * 1.5,
            "served {served:?}: solo/both {ratio:.2} strayed from share {want:.2} \
             (weights fs {w_fs} tcp {w_tcp})"
        );
    });
}

/// GC safety: across arbitrary interleavings of lazy admission,
/// submits, dispatches, pins, promotions, and epoch turnover, the
/// GC never reclaims a flow that holds queued work, a live pin, or
/// an inherited promotion — its slot stays resolvable — and the
/// host occupancy ledger never drifts (admitted == live +
/// reclaimed). Once every guard is released and the table idles,
/// it drains to exactly the static flows.
#[test]
fn gc_never_reclaims_guarded_flows_and_ledger_stays_exact() {
    check::cases(CASES, |rng| {
        let events = check::vec(rng, 1..200, |r| {
            (r.range(0..7), r.range(1..12), r.range(1..2048))
        });
        let host = HostScheduler::new(HostConfig {
            epoch_ns: 1_000,
            gc_idle_epochs: 1,
            ..HostConfig::default()
        });
        let mut g = open_gate(&host, Service::Tcp);
        let mut now = 0u64;
        // Mirrors of the state *we* hold: the last slot each tenant
        // resolved to, and the pins/promotions taken per slot. A slot
        // with a nonzero guard count can never be reclaimed out from
        // under us, so guarded keys stay stable while tracked.
        let mut seen: HashMap<u64, usize> = HashMap::new();
        let mut pins: HashMap<usize, u32> = HashMap::new();
        let mut promos: HashMap<usize, u32> = HashMap::new();

        for (op, tenant, bytes) in events {
            match op {
                0 | 1 => {
                    let f = g.flow_for_tenant(tenant, 0);
                    seen.insert(tenant, f);
                    assert!(matches!(g.submit(f, bytes, now, 0), Verdict::Admitted));
                }
                2 => {
                    let _ = g.dispatch(now);
                }
                3 => {
                    let f = g.flow_for_tenant(tenant, 0);
                    seen.insert(tenant, f);
                    g.pin_flow(f);
                    *pins.entry(f).or_default() += 1;
                }
                4 => {
                    if let Some((&f, _)) = pins.iter().next() {
                        g.unpin_flow(f);
                        let n = pins.get_mut(&f).expect("tracked");
                        *n -= 1;
                        if *n == 0 {
                            pins.remove(&f);
                        }
                    }
                }
                5 => {
                    let f = g.flow_for_tenant(tenant, 0);
                    seen.insert(tenant, f);
                    g.promote_flow(f, 0);
                    *promos.entry(f).or_default() += 1;
                }
                _ => {
                    // Epoch turnover: every still-current mapping whose
                    // flow holds queued work, a pin, or a promotion
                    // must survive the GC at the same slot.
                    now += 1_001;
                    let guarded: Vec<(u64, usize)> = seen
                        .iter()
                        .filter(|&(&t, &s)| g.lookup(t, 0) == Some(s))
                        .filter(|&(_, &s)| {
                            g.queued(s) > 0 || pins.contains_key(&s) || promos.contains_key(&s)
                        })
                        .map(|(&t, &s)| (t, s))
                        .collect();
                    g.maintain(now);
                    for (t, s) in guarded {
                        assert_eq!(
                            g.lookup(t, 0),
                            Some(s),
                            "GC reclaimed the guarded flow of tenant {}",
                            t
                        );
                    }
                }
            }
            let snap = host.snapshot();
            assert_eq!(
                snap.admitted_flows,
                snap.live_flows as u64 + snap.reclaimed_flows,
                "occupancy ledger drifted mid-run"
            );
        }
        // Release every guard, drain, and idle: the table must return
        // to its static skeleton with the ledger balanced.
        for (f, n) in pins.drain() {
            for _ in 0..n {
                g.unpin_flow(f);
            }
        }
        for (f, n) in promos.drain() {
            for _ in 0..n {
                g.demote_flow(f);
            }
        }
        g.drain();
        for _ in 0..4 {
            now += 1_001;
            g.maintain(now);
        }
        let snap = host.snapshot();
        assert_eq!(snap.live_flows, 0, "idle dynamic flows not reclaimed");
        assert_eq!(snap.admitted_flows, snap.reclaimed_flows);
    });
}

/// Tenant charges are exact under concurrent admission: one gate
/// shard per thread, each on its own domain, submits a share of the
/// generated requests over one host directory while an observer reads
/// usage mid-storm. Pass-through classes shed nothing, so every
/// request is admitted and charged once; totals never decrease
/// mid-storm and end at the exact per-tenant sums.
#[test]
fn concurrent_gate_charges_are_exact_per_tenant() {
    const TENANTS: u64 = 4;
    check::cases(24, |rng| {
        let reqs = check::vec(rng, 0..120, |r| {
            (1 + r.range(0..TENANTS), r.range(0..65_536))
        });
        let shards = rng.range(1..4) as usize;
        let host = HostScheduler::new(HostConfig::default());
        // Pinned (at the default weight), so the entries outlive the
        // gates whatever the epoch sweep does.
        for t in 1..=TENANTS {
            host.set_tenant_weight(t, 1);
        }
        let cfg = QosConfig::default();
        let normal = QosClass::Normal.index();
        std::thread::scope(|s| {
            for (domain, chunk) in reqs.chunks(reqs.len() / shards + 1).enumerate() {
                let (host, cfg) = (&host, &cfg);
                s.spawn(move || {
                    let mut g: HostGate<u32> =
                        HostGate::per_class("storm", cfg, host, Service::Fs, domain);
                    for &(tenant, bytes) in chunk {
                        let f = g.flow_for_tenant(tenant, normal);
                        assert!(matches!(g.submit(f, bytes, 0, 0), Verdict::Admitted));
                        let _ = g.dispatch(0);
                    }
                });
            }
            // The observer races the shards; partial sums only grow.
            let mut last = [(0, 0); TENANTS as usize];
            for _ in 0..32 {
                for (t, seen) in (1..=TENANTS).zip(last.iter_mut()) {
                    let u = host.usage(t);
                    assert!(u.ops >= seen.0 && u.bytes >= seen.1, "tenant {t} regressed");
                    *seen = (u.ops, u.bytes);
                }
                std::thread::yield_now();
            }
        });
        for t in 1..=TENANTS {
            let mine = reqs.iter().filter(|&&(rt, _)| rt == t);
            let want_ops = mine.clone().count() as u64;
            let want_bytes: u64 = mine.map(|&(_, b)| b).sum();
            let u = host.usage(t);
            assert_eq!((u.ops, u.bytes), (want_ops, want_bytes), "tenant {t}");
        }
    });
}

/// Priority inheritance outranks tenant-budget gating: while a
/// flow is promoted, an over-budget tenant's frames always admit
/// (the waiter must not starve behind the holder's budget), and
/// the moment the promotion is released the budget gate bites
/// again — for any budget, flood size, and promotion nesting.
#[test]
fn promotion_outranks_tenant_budget_gating() {
    check::cases(CASES, |rng| {
        let budget = rng.range(1..100_000);
        let flood = rng.range(1..100_000);
        let nest = rng.range(1..4) as usize;
        let host = HostScheduler::new(HostConfig::default());
        host.set_tenant_budget(7, Some(budget));
        let mut g = HostGate::new(
            vec![open_spec("h/normal", 1)],
            1024,
            4, // tiny overload threshold so level 1 engages
            &host,
            Service::Fs,
            0,
        );
        let aggr = g.flow_for_tenant(7, 0);
        let victim = g.flow_for_tenant(8, 0);
        // Blow the budget and push the gate into overload.
        assert!(matches!(
            g.submit(aggr, budget + flood, 0, 0),
            Verdict::Admitted
        ));
        for _ in 0..4 {
            assert!(matches!(g.submit(victim, 1, 0, 0), Verdict::Admitted));
        }
        assert!(g.overloaded());
        assert!(host.tenant_over_budget(7));
        assert!(matches!(g.submit(aggr, 1, 0, 0), Verdict::Shed { .. }));

        // Promoted (however deeply nested): immune at every level.
        for _ in 0..nest {
            g.promote_flow(aggr, 0);
        }
        for i in 0..nest {
            assert!(
                matches!(g.submit(aggr, 1, 0, 0), Verdict::Admitted),
                "promoted flow shed at nesting depth {}",
                nest - i
            );
            g.demote_flow(aggr);
        }
        // Fully demoted: the budget gate bites again, while the
        // under-budget tenant keeps admitting throughout.
        assert!(matches!(g.submit(aggr, 1, 0, 0), Verdict::Shed { .. }));
        assert!(matches!(g.submit(victim, 1, 0, 0), Verdict::Admitted));
    });
}
