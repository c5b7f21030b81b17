//! Process-level readings from `/proc/self`: CPU time, resident set,
//! context switches and thread count. Linux only, like the sandbox.

use std::fs;
use std::sync::OnceLock;

/// Kernel clock ticks per second for `utime`/`stime` (`USER_HZ`, fixed
/// at 100 on every Linux ABI the toolchain targets).
const TICKS_PER_S: f64 = 100.0;

/// Process CPU time (user + system, exited threads included) in µs.
pub fn cpu_us() -> f64 {
    let stat = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after ")".
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|s| s.parse().ok()).unwrap_or(0.0);
    (utime + stime) / TICKS_PER_S * 1e6
}

/// `VmRSS` in MiB.
pub fn rss_mib() -> f64 {
    status_field("/proc/self/status", "VmRSS:") / 1024.0
}

fn status_field(path: &str, key: &str) -> f64 {
    fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

/// Live threads and their summed voluntary + involuntary context
/// switches. Threads that already exited are not counted.
pub fn threads_and_ctx_switches() -> (u64, u64) {
    let mut threads = 0;
    let mut switches = 0.0;
    if let Ok(dir) = fs::read_dir("/proc/self/task") {
        for entry in dir.flatten() {
            threads += 1;
            let status = entry.path().join("status");
            let status = status.to_string_lossy();
            switches += status_field(&status, "voluntary_ctxt_switches:")
                + status_field(&status, "nonvoluntary_ctxt_switches:");
        }
    }
    (threads, switches as u64)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    started_cpus().len().max(1)
}

extern "C" {
    // `sched_{get,set}affinity(2)`, from the C library `std` already links.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The kernel's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

/// The CPUs this process may run on, lowest first, as of the first call
/// — which the runner makes before it pins anything, so later pinning of
/// the calling thread does not shrink the answer. Empty if the kernel
/// would not say.
pub fn started_cpus() -> &'static [usize] {
    static STARTED_ON: OnceLock<Vec<usize>> = OnceLock::new();
    STARTED_ON.get_or_init(|| {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a live, writable 128-byte buffer and the size
        // passed is its size; the call writes at most that and keeps
        // nothing.
        let ok =
            unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) == 0 };
        if !ok {
            return Vec::new();
        }
        (0..1024)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    })
}

/// Pins the calling thread, and so every thread it spawns from now on,
/// to the first CPU the process was started on. Returns that CPU, or
/// `None` when the kernel refused and the process stays unpinned.
///
/// The booted system keeps four threads busy-polling (two proxy engines,
/// the event dispatcher, the load thread) and they hand work to each
/// other through `yield_now`. On one CPU each yield runs the next poller,
/// so a request's hand-offs cost the same every time. Left on two CPUs
/// the same threads settle into placements whose throughput differs by
/// 2x between runs of one commit, requests that overrun the stub's
/// spin-then-yield budget fall into 50 us parks in one run and not the
/// next, and a proxy starved for 16 ms is fenced by the shard supervisor
/// as wedged (README.md has the measurements).
pub fn pin_process_to_one_cpu() -> Option<usize> {
    let cpu = *started_cpus().first()?;
    let mut mask: CpuSet = [0; 16];
    *mask.get_mut(cpu / 64)? = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised 128-byte buffer and the size
    // passed is its size; the call reads it and keeps no pointer.
    let ok = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 };
    ok.then_some(cpu)
}
