//! What a booted system does when nothing is asked of it, and how it
//! comes back: idle pollers sleep, and the first request of each kind is
//! served because a doorbell rang, not because a park timed out.
//!
//! One test on purpose: the CPU and wake-up readings are the whole
//! process's (`/proc/self/stat`, `/proc/self/task/*/status`), so a
//! neighbouring test in this binary would pollute them. CI runs the file with `--test-threads=1` as well.

use std::sync::Arc;
use std::time::{Duration, Instant};

use solros::Solros;
use solros_machine::MachineConfig;
use solros_netdev::EndKind;

/// Kernel clock ticks per second for `utime`/`stime` (`USER_HZ`, fixed
/// at 100 on Linux).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds this process has used (`utime + stime`), or `None` where
/// there is no procfs.
fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after ")".
    let mut fields = stat.rsplit_once(')')?.1.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_S)
}

/// How often the threads of an idle boot wake up in the 200 ms window:
/// 1 183–1 199 over six runs at PR 21 and unchanged by ISSUE 22 (two FS
/// engines, two TCP shards and two event backstops parking for at most 1 ms,
/// the supervisor's 2 ms tick). Every one of them can pre-empt a request
/// in flight: `fs_lease_read_4k` serves a read in about a microsecond, so
/// its p99 is one pre-emption away from doubling, and a change that made
/// the idle system wake more often was refused for exactly that. A new
/// timed wait has to fit under this figure × 1.25.
const IDLE_WAKEUPS_PER_200MS: f64 = 1200.0;

/// The same window with one thread blocked in `recv` on a silent socket:
/// 1 403–1 412 over six runs before the reader drained the event ring
/// itself (it parked on a condition variable for at most 1 ms, the
/// dispatcher on the bell), 1 401–1 410 after (the reader parks on the
/// bell, the backstop sleeps 1 ms at a time while it waits).
const READER_WAKEUPS_PER_200MS: f64 = 1410.0;

/// Voluntary context switches of every thread of this process so far —
/// each one a thread that blocked and will be woken — or `None` where
/// there is no procfs.
fn voluntary_switches() -> Option<u64> {
    let mut total = 0;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let status = std::fs::read_to_string(task.ok()?.path().join("status")).ok()?;
        let line = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?;
        total += line.trim().parse::<u64>().ok()?;
    }
    Some(total)
}

/// Voluntary switches over a 200 ms window starting now, scaled to
/// exactly 200 ms.
fn wakeups_per_200ms() -> Option<f64> {
    let w0 = voluntary_switches()?;
    let t0 = Instant::now();
    std::thread::sleep(Duration::from_millis(200));
    let w1 = voluntary_switches()?;
    Some((w1 - w0) as f64 * 0.2 / t0.elapsed().as_secs_f64())
}

#[test]
fn idle_boot_sleeps_and_the_first_requests_wake_it_by_doorbell() {
    // Two co-processors on two sockets: two FS engines (with their worker
    // pools), two TCP shards, two event backstops, one supervisor.
    let sys = Solros::boot(MachineConfig::small());
    let fs = Arc::clone(sys.data_plane(0).fs());
    let net = sys.data_plane(0).net().clone();
    let (file, _size) = fs.open("/idle", true, false, true).expect("open buffered");
    let listener = net.listen(7070, 16).expect("listen");

    // Let every poller run down its yield band and park, then watch.
    std::thread::sleep(Duration::from_millis(50));
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    if let Some(woken) = wakeups_per_200ms() {
        assert!(
            woken <= IDLE_WAKEUPS_PER_200MS * 1.25,
            "an idle system woke {woken:.0} times in 200 ms"
        );
    }
    if let (Some(c0), Some(c1)) = (cpu0, cpu_seconds()) {
        let share = (c1 - c0) / t0.elapsed().as_secs_f64();
        assert!(
            share < 0.25,
            "an idle system used {:.0}% of a core",
            share * 100.0
        );
    }
    assert_eq!(
        sys.supervisor().failovers(),
        0,
        "a parked shard must still beat"
    );

    // First FS call: a buffered write, so it also crosses the worker
    // pool (`worker_completion_rings_a_parked_engine` pins that half).
    let (fs_req0, _) = fs.client().doorbell_rings();
    assert_eq!(fs.write_at(file, 0, b"wake up").expect("write"), 7);
    let (fs_req1, _) = fs.client().doorbell_rings();
    assert!(fs_req1 > fs_req0, "the request did not ring the FS engine");
    assert_eq!(fs.read_to_vec(file, 0, 7).expect("read"), b"wake up");

    // First accept: the fabric's ingress hook rings the TCP shard, whose
    // `Accepted` event rings the stub's event bell (the backstop parks on
    // it while no one reads, a waiting reader while one does).
    std::thread::sleep(Duration::from_millis(20));
    let (net_req0, _) = net.client().doorbell_rings();
    let evt0 = net.event_doorbell_rings();
    let fabric = Arc::clone(sys.network());
    let conn = fabric.client_connect(7070, 9).expect("connect");
    let (stream, peer) = listener
        .accept_timeout(Duration::from_secs(5))
        .expect("accept");
    assert_eq!(peer, 9);
    let (net_req1, _) = net.client().doorbell_rings();
    assert!(
        net_req1 > net_req0,
        "NIC ingress did not ring the TCP shard"
    );
    assert!(
        net.event_doorbell_rings() > evt0,
        "the event did not ring the stub's bell"
    );

    // First echo, again from idle.
    std::thread::sleep(Duration::from_millis(20));
    let (net_req0, _) = net.client().doorbell_rings();
    let evt0 = net.event_doorbell_rings();
    fabric.send(conn, EndKind::Client, b"ping").expect("send");
    let mut buf = [0u8; 8];
    let n = stream.recv(&mut buf);
    assert_eq!(&buf[..n], b"ping");
    assert!(net.client().doorbell_rings().0 > net_req0);
    assert!(
        net.event_doorbell_rings() > evt0,
        "the event did not ring the stub's bell"
    );
    assert_eq!(stream.send(b"pong").expect("reply"), 4);
    let client_recv = |want: &[u8]| {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let got = fabric.recv(conn, EndKind::Client, 8).expect("client recv");
            if !got.is_empty() {
                assert_eq!(got, want);
                break;
            }
            assert!(Instant::now() < deadline, "echo never came back");
            std::thread::yield_now();
        }
    };
    client_recv(b"pong");

    // One reader blocked on a silent socket: it drains the event ring
    // itself and parks on the stub's bell, and the backstop stands down
    // to timed sleeps while it waits.
    let reader = std::thread::spawn(move || {
        let mut buf = [0u8; 8];
        let n = stream.recv(&mut buf);
        (stream, buf[..n].to_vec())
    });
    std::thread::sleep(Duration::from_millis(50));
    if let Some(woken) = wakeups_per_200ms() {
        assert!(
            woken <= READER_WAKEUPS_PER_200MS * 1.25,
            "a system with one blocked reader woke {woken:.0} times in 200 ms"
        );
    }
    fabric.send(conn, EndKind::Client, b"late").expect("send");
    let (stream, got) = reader.join().expect("reader");
    assert_eq!(got, b"late");
    assert_eq!(stream.send(b"echo").expect("reply"), 4);
    client_recv(b"echo");

    assert_eq!(sys.supervisor().failovers(), 0);
    sys.shutdown();
}
