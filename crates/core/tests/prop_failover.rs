//! Property-based tests for domain failover: under random crash/wedge
//! schedules against a real booted system, every submitted RPC resolves
//! exactly once (calls return; nothing hangs), the stub credit window
//! refills completely after every storm (no credit leaks through a
//! wreck), no extent-lease generation is ever reused across a
//! reclamation, and every surviving control replica converges to one
//! fingerprint.

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

use solros::control::Solros;
use solros_machine::MachineConfig;
use solros_proto::net_msg::NetRequest;
use solros_qos::QosConfig;
use solros_simkit::check;
use solros_simkit::DetRng;

const DOMAINS: usize = 2;
/// Must match `QosConfig::enforcing().credit_window`: the refill check
/// below proves the whole window came back after the storm.
const WINDOW: usize = 64;

/// One injected death in the schedule.
#[derive(Debug, Clone)]
struct KillEvent {
    /// Wedge (frozen heartbeat) instead of crash (down flag).
    wedge: bool,
    /// Domain to kill.
    domain: usize,
    /// Traffic rounds to run before pulling the trigger.
    rounds: u8,
}

fn kill_schedule(rng: &mut DetRng) -> Vec<KillEvent> {
    check::vec(rng, 1..4, |r| KillEvent {
        wedge: r.chance(0.5),
        domain: r.index(DOMAINS),
        rounds: r.range(1..4) as u8,
    })
}

/// Spins until `cond` or `timeout`; true when the condition was met.
fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    cond()
}

/// Runs `f` on a watcher thread and panics with `what` if it does not
/// finish in `timeout` — turns a would-be hang (a lost reply, a leaked
/// credit) into a diagnosed failure.
fn bounded(what: &str, timeout: Duration, f: impl FnOnce() + Send + 'static) {
    let worker = std::thread::spawn(f);
    let done = wait_until(timeout, || worker.is_finished());
    assert!(done, "{what} did not finish within {timeout:?}");
    worker
        .join()
        .unwrap_or_else(|e| std::panic::resume_unwind(e));
}

#[test]
fn random_kill_schedules_keep_the_failover_invariants() {
    check::cases(6, |rng| run_storm(kill_schedule(rng)));
}

/// Failover under multi-tenant overload: a domain dies while every
/// stub floods TCP through churning wire-tenant ids, so its QoS
/// shard is full of live dynamic flows at the moment it is fenced.
/// The wreck path must retire that shard (its flow-table entries
/// stop counting against host occupancy), refund the in-flight
/// tenant charges, and leave the host flow-table ledger exact; the
/// replacement shard then serves a full credit-window burst.
///
/// Three cases, not more: the supervisor judges a wall-clock heartbeat,
/// so a vCPU stalled for tens of ms can fence a second, healthy domain
/// and fail the `domains_failed_over == 1` check (about one case in 500;
/// ROADMAP direction 2 replaces the clock). This test runs in tier-1, and
/// a higher count would only multiply that false alarm.
#[test]
fn failover_under_overload_retires_the_fenced_qos_shard() {
    check::cases(3, |rng| {
        let wedge = rng.chance(0.5);
        let victim = rng.index(DOMAINS);
        run_overload_failover(wedge, victim);
    });
}

fn run_overload_failover(wedge: bool, victim: usize) {
    /// Wire-tenant ids the flood cycles through on each domain.
    const TENANTS: u8 = 5;

    let sys = Solros::boot_qos(
        MachineConfig {
            sockets: DOMAINS as u8,
            coprocs: DOMAINS,
            ssd_blocks: 4_096,
            coproc_window_bytes: 4 << 20,
            host_cache_pages: 64,
        },
        QosConfig::enforcing(),
    );
    let supervisor = Arc::clone(sys.supervisor());
    let host = Arc::clone(sys.host_qos());

    // Tenant-churning TCP flood from every stub: each round stamps a
    // different wire tenant, so the gates populate dynamic per-tenant
    // flows (the lazily admitted level-3 entries) on every domain.
    let stop = Arc::new(AtomicBool::new(false));
    let flood: Vec<_> = (0..DOMAINS)
        .map(|i| {
            let net = sys.data_plane(i).net().clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut per_tenant = [0u64; TENANTS as usize + 1];
                let mut round = 0u64;
                while !stop.load(Relaxed) {
                    round += 1;
                    let tenant = 1 + (round % u64::from(TENANTS)) as u8;
                    net.client().set_tenant(tenant);
                    per_tenant[tenant as usize] += 1;
                    // A dead domain answers with a clean error (`Gone`
                    // surfaces as an error response) — never a hang.
                    if let solros_proto::net_msg::NetResponse::Socket { sock } =
                        net.raw_call(NetRequest::Socket)
                    {
                        per_tenant[tenant as usize] += 1;
                        let _ = net.raw_call(NetRequest::Close { sock });
                    }
                }
                net.client().set_tenant(0);
                per_tenant
            })
        })
        .collect();

    // The flood must be shaping *every* domain's flow table before the
    // kill — one dynamic flow per tenant per gate. (Waiting for any
    // `DOMAINS` flows let one fast stub satisfy it alone, and a victim
    // whose own flood had not started yet died with nothing to reclaim.)
    assert!(
        wait_until(Duration::from_secs(10), || host.snapshot().live_flows
            >= DOMAINS * usize::from(TENANTS)),
        "flood never populated dynamic tenant flows: {:?}",
        host.snapshot()
    );
    let reclaimed_before = host.snapshot().reclaimed_flows;

    let faults = supervisor.shard_faults(victim);
    if wedge {
        faults.arm_domain_wedges(1);
    } else {
        faults.arm_domain_crashes(1);
    }
    assert!(
        wait_until(Duration::from_secs(10), || supervisor.failovers() >= 1),
        "failover under overload was never detected"
    );

    // Let the replacement take load for a moment, then quiesce.
    std::thread::sleep(Duration::from_millis(200));
    stop.store(true, Relaxed);
    let mut submitted = [0u64; TENANTS as usize + 1];
    for t in flood {
        let per_tenant = t.join().expect("flood threads resolve every call");
        for (sum, n) in submitted.iter_mut().zip(per_tenant) {
            *sum += n;
        }
    }

    // The fenced shard was retired: its dynamic flows were reclaimed
    // even though they held queued work when the domain died.
    let snap = host.snapshot();
    assert!(
        snap.reclaimed_flows > reclaimed_before,
        "fencing reclaimed no flow-table entries: {snap:?}"
    );
    // With the flood stopped, the epoch GC drains every surviving
    // dynamic flow and the occupancy ledger balances exactly.
    assert!(
        wait_until(Duration::from_secs(10), || {
            let s = host.snapshot();
            s.live_flows == 0 && s.admitted_flows == s.reclaimed_flows
        }),
        "flow tables did not drain to the static skeleton: {:?}",
        host.snapshot()
    );

    // Charge sanity: a tenant's replicated usage can never exceed what
    // the stubs actually submitted — the wreck refunded charges for
    // admitted-but-never-served work instead of leaking them.
    for tenant in 1..=TENANTS {
        let usage = sys.tenant_usage(tenant);
        assert!(
            usage.ops <= submitted[tenant as usize],
            "tenant {tenant} charged {} ops but submitted {}: wreck charges leaked",
            usage.ops,
            submitted[tenant as usize]
        );
    }

    // The replacement shard serves a full credit-window burst: no
    // credit or flow-table state died with the fenced shard.
    for i in 0..DOMAINS {
        let net = sys.data_plane(i).net().clone();
        bounded(
            &format!("coproc {i} post-failover full-window burst"),
            Duration::from_secs(20),
            move || {
                let pending: Vec<_> = (0..WINDOW)
                    .map(|_| loop {
                        match net.submit_call(NetRequest::Socket) {
                            Ok(p) => break p,
                            Err(_) => std::thread::yield_now(),
                        }
                    })
                    .collect();
                let socks: Vec<u64> = pending
                    .into_iter()
                    .map(|p| match p.wait(&net) {
                        solros_proto::net_msg::NetResponse::Socket { sock } => sock,
                        other => panic!("burst socket call failed: {other:?}"),
                    })
                    .collect();
                for sock in socks {
                    let _ = net.raw_call(NetRequest::Close { sock });
                }
            },
        );
    }

    let fps = supervisor.replica_fingerprints();
    assert_eq!(fps.len(), DOMAINS, "every domain must end live");
    assert!(
        fps.windows(2).all(|w| w[0] == w[1]),
        "surviving replicas diverged: {fps:x?}"
    );
    let report = sys.recovery_report();
    assert_eq!(report.domains_failed_over, 1);
    assert!(report.clean(), "recovery report must be clean: {report:?}");

    sys.shutdown();
}

fn run_storm(events: Vec<KillEvent>) {
    let sys = Solros::boot_qos(
        MachineConfig {
            sockets: DOMAINS as u8,
            coprocs: DOMAINS,
            ssd_blocks: 4_096,
            coproc_window_bytes: 4 << 20,
            host_cache_pages: 64,
        },
        QosConfig::enforcing(),
    );
    let supervisor = Arc::clone(sys.supervisor());
    let lease_mgr = Arc::clone(sys.lease_manager());

    // One leased hot file per co-processor; its grant generation may
    // only ever rise, and must strictly rise across a reclamation.
    let files: Vec<_> = (0..DOMAINS)
        .map(|i| {
            let fs = Arc::clone(sys.data_plane(i).fs());
            let f = fs.create(&format!("/hot{i}")).expect("create");
            fs.write_at(f, 0, &[0xabu8; 4096]).expect("seed");
            (fs, f)
        })
        .collect();
    // The lease plane refuses grants on co-processors whose P2P path
    // crosses a NUMA boundary (placement first); only NUMA-local stubs
    // can hold a lease, so the generation invariant is theirs alone.
    let grantable: Vec<bool> = (0..DOMAINS)
        .map(|i| !sys.machine().ssd_p2p_crosses_numa(i as u8))
        .collect();
    let mut last_gen = [0u64; DOMAINS];
    let acquire = |i: usize, must_exceed: Option<u64>| -> u64 {
        let (fs, f) = &files[i];
        let live = fs.lease_range(*f, 0, 4096, false).expect("lease rpc");
        if !grantable[i] {
            // Cross-NUMA stubs are refused by design (surfaced as a
            // clean `false`); the read path must still work over plain
            // RPC (checked in the rounds loop), and there is no
            // generation to track.
            assert!(!live, "cross-NUMA coproc {i} must never hold a lease");
            return 0;
        }
        assert!(live, "coproc {i} must get a lease grant");
        let gen = lease_mgr
            .lease_for(f.0, i as u8)
            .expect("granted lease is registered")
            .generation();
        if let Some(floor) = must_exceed {
            assert!(
                gen > floor,
                "coproc {i}: generation {gen} reused across a reclamation (held {floor})"
            );
        }
        gen
    };

    // Background listener churn on every stub keeps RPC tags in flight
    // across each kill; a blackout resolves them as `Gone`, never leaves
    // them hanging (the join below is the proof).
    let stop = Arc::new(AtomicBool::new(false));
    let churn: Vec<_> = (0..DOMAINS)
        .map(|i| {
            let net = sys.data_plane(i).net().clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Relaxed) {
                    match net.listen(7_300 + i as u16, 8) {
                        Ok(l) => {
                            let _ = l.close();
                        }
                        Err(_) => std::thread::yield_now(),
                    }
                }
            })
        })
        .collect();

    for (i, slot) in last_gen.iter_mut().enumerate() {
        *slot = acquire(i, None);
    }

    let mut killed = 0u64;
    for ev in &events {
        for _ in 0..ev.rounds {
            for (fs, f) in &files {
                // Leased fast-path reads between kills; a revoked lease
                // degrades to RPC and re-arms on the next acquire.
                let _ = fs.read_to_vec(*f, 0, 512);
            }
        }
        let held = last_gen[ev.domain];
        let faults = supervisor.shard_faults(ev.domain);
        if ev.wedge {
            faults.arm_domain_wedges(1);
        } else {
            faults.arm_domain_crashes(1);
        }
        killed += 1;
        assert!(
            wait_until(Duration::from_secs(10), || supervisor.failovers() >= killed),
            "failover {killed} ({:?}) was never detected",
            if ev.wedge { "wedge" } else { "crash" }
        );
        // Reclamation: the replacement re-grants with a fresh generation.
        last_gen[ev.domain] = acquire(ev.domain, Some(held));
    }

    stop.store(true, Relaxed);
    for t in churn {
        t.join().expect("churn thread resolves every submitted tag");
    }

    // Credit balance: the full stub window must refill after the storm.
    // A credit that died with a wreck (granted but never settled) would
    // cap the in-flight depth below the window forever.
    for i in 0..DOMAINS {
        let net = sys.data_plane(i).net().clone();
        bounded(
            &format!("coproc {i} full-window burst"),
            Duration::from_secs(20),
            move || {
                let pending: Vec<_> = (0..WINDOW)
                    .map(|_| loop {
                        match net.submit_call(NetRequest::Socket) {
                            Ok(p) => break p,
                            Err(_) => std::thread::yield_now(),
                        }
                    })
                    .collect();
                let socks: Vec<u64> = pending
                    .into_iter()
                    .map(|p| match p.wait(&net) {
                        solros_proto::net_msg::NetResponse::Socket { sock } => sock,
                        other => panic!("burst socket call failed: {other:?}"),
                    })
                    .collect();
                for sock in socks {
                    let _ = net.raw_call(NetRequest::Close { sock });
                }
            },
        );
    }

    // Replicated control plane: every live shard ends on one fingerprint.
    let fps = supervisor.replica_fingerprints();
    assert_eq!(fps.len(), DOMAINS, "every domain must end live");
    assert!(
        fps.windows(2).all(|w| w[0] == w[1]),
        "surviving replicas diverged: {fps:x?}"
    );

    let report = sys.recovery_report();
    assert_eq!(report.domains_failed_over, killed);
    assert_eq!(report.event_drops, 0, "no TCP event may be dropped");
    assert!(report.clean(), "recovery report must be clean: {report:?}");

    sys.shutdown();
}
