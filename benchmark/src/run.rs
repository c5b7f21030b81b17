//! Running a workload: repeated set-up, warm-up, timed windows, the
//! invariant tripwires, and the fixed-op traced pass with layer replays.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::json::{obj, Value};
use crate::layers::{replay, Counters};
use crate::metrics::{Better, END_TO_END, PER_LAYER};
use crate::procfs;
use crate::trace::{percentile, Tracer};
use crate::workloads::{setup, Bench, DataPath, Workload};

/// Most timed windows per untraced run. Many short windows rather than a
/// few long ones: the reference box slows down in phases and bursts that
/// last from milliseconds to minutes (a pure spin loop shows it, with no
/// steal time reported), and a reported value is taken from the windows
/// that escaped them — see [`best_decile`].
pub const MAX_WINDOWS: usize = 40;
/// Fewest windows, however slow a call is.
pub const MIN_WINDOWS: usize = 3;
/// Calls a window should hold, so that its 99th percentile has a few
/// samples beyond it.
pub const CALLS_PER_WINDOW: f64 = 400.0;

/// Splits `seconds` into windows that each hold [`CALLS_PER_WINDOW`]
/// calls at `calls_per_s` (the rate the warm-up ran at), within
/// [`MIN_WINDOWS`]..=[`MAX_WINDOWS`].
fn window_count(seconds: f64, calls_per_s: f64) -> usize {
    let fit = seconds * calls_per_s / CALLS_PER_WINDOW;
    (fit as usize).clamp(MIN_WINDOWS, MAX_WINDOWS)
}

/// How a run is parameterised.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed for offsets, payloads and the read/write mix.
    pub seed: u64,
    /// Total measured seconds, split evenly over the windows.
    pub seconds: f64,
    /// Warm-up seconds on each boot, counted as set-up time.
    pub warmup_s: f64,
    /// Set-ups (boot + populate + warm-up) per run; `setup_s` is their
    /// median and the first one is measured on.
    pub setups: usize,
    /// Calls in each fixed-count pass of a traced run; `None` picks a
    /// workload's own count ([`Workload::trace_calls`]).
    pub trace_calls: Option<u64>,
    /// Where span files go.
    pub out_dir: PathBuf,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            seed: 0x501705,
            seconds: crate::metrics::RUN_SECONDS as f64,
            warmup_s: 0.25,
            setups: 3,
            trace_calls: None,
            out_dir: PathBuf::from("benchmark/out"),
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from [`crate::metrics`].
    pub name: &'static str,
    /// Unit from [`crate::metrics`].
    pub unit: &'static str,
    /// The reported value: the best decile of `windows` (the median for
    /// `setup_s`), or the one measurement when there are no windows.
    pub value: f64,
    /// The per-window (or per-set-up) values behind `value`.
    pub windows: Vec<f64>,
    /// Latency samples behind a percentile; 0 for other metrics.
    pub samples: u64,
}

/// The result of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Operations attempted, warm-up included.
    pub attempted: u64,
    /// Operations that errored, were refused, or returned wrong bytes.
    pub failed: u64,
    /// Invariants that did not hold; any entry fails the run.
    pub tripwires: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// True when no operation failed and every tripwire held.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.tripwires.is_empty()
    }

    /// The one-line result object the driver reads.
    pub fn driver_line(&self) -> Value {
        self.json(false)
    }

    /// The full record for a result file: also the tripwires and, behind
    /// every metric, the window values and sample count.
    pub fn to_json(&self) -> Value {
        self.json(true)
    }

    fn json(&self, full: bool) -> Value {
        let mut members = vec![
            ("correct", Value::from(self.correct())),
            ("attempted", Value::from(self.attempted)),
            ("failed", Value::from(self.failed)),
        ];
        if full {
            members.push(("tripwires", Value::from(self.tripwires.clone())));
        }
        let metrics = self.metrics.iter().map(|m| {
            let mut fields = vec![
                ("value", Value::from(m.value)),
                ("unit", Value::from(m.unit)),
            ];
            if full {
                fields.push(("windows", Value::from(m.windows.clone())));
                fields.push(("samples", Value::from(m.samples)));
            }
            (m.name, obj(fields))
        });
        members.push(("metrics", obj(metrics)));
        obj(members)
    }

    /// Prints every metric by name with its unit, one per line.
    pub fn print(&self) {
        for m in &self.metrics {
            println!("{} {} = {} {}", self.workload, m.name, m.value, m.unit);
        }
        for t in &self.tripwires {
            println!("{} TRIPWIRE {t}", self.workload);
        }
    }
}

#[derive(Clone, Copy)]
enum Stop {
    After(Duration),
    Calls(u64),
}

/// What one closed-loop pass over a workload observed.
struct Pass {
    secs: f64,
    calls: u64,
    ops: u64,
    failed: u64,
    cpu_us: f64,
    /// Median and 99th-percentile call latency of the pass, in ns.
    p50_ns: f64,
    p99_ns: f64,
}

impl Pass {
    fn good_ops(&self) -> f64 {
        (self.ops - self.failed) as f64
    }

    fn ops_per_s(&self) -> f64 {
        self.good_ops() / self.secs
    }

    /// Adds a later pass of the same length to this one; the percentiles
    /// become the mean of the two passes'.
    fn absorb(&mut self, later: Pass) {
        self.secs += later.secs;
        self.calls += later.calls;
        self.ops += later.ops;
        self.failed += later.failed;
        self.cpu_us += later.cpu_us;
        self.p50_ns = (self.p50_ns + later.p50_ns) / 2.0;
        self.p99_ns = (self.p99_ns + later.p99_ns) / 2.0;
    }
}

/// Latency samples of the pass in progress. One buffer, reserved once and
/// reused by every pass, so that recording a sample never allocates
/// inside a window and the harness adds the same few megabytes to
/// `rss_mb` however many calls a workload completes.
struct Samples(Vec<u64>);

impl Samples {
    fn new() -> Self {
        Samples(Vec::with_capacity(1 << 20))
    }
}

fn drive(wl: &mut dyn Workload, tr: &mut Tracer, lat: &mut Samples, stop: Stop) -> Pass {
    let lat = &mut lat.0;
    lat.clear();
    let (mut calls, mut ops, mut failed) = (0, 0, 0);
    let cpu0 = procfs::cpu_us();
    let t0 = Instant::now();
    loop {
        let c = wl.call(tr);
        calls += 1;
        ops += c.ops;
        failed += c.failed;
        lat.push(c.lat_ns);
        let done = match stop {
            Stop::After(d) => t0.elapsed() >= d,
            Stop::Calls(n) => calls >= n,
        };
        if done {
            break;
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    let cpu_us = procfs::cpu_us() - cpu0;
    Pass {
        secs,
        calls,
        ops,
        failed,
        cpu_us,
        p50_ns: percentile(lat, 50.0),
        p99_ns: percentile(lat, 99.0),
    }
}

/// The value a tenth of the way in from the best window: the 90th
/// percentile of `values` when higher is better, the 10th when lower is.
///
/// Interference from outside the program only ever makes a window worse,
/// so the best windows are the ones that measured the program; the median
/// window of a run on the reference box moves by up to 2x between runs of
/// one commit while this moves by under a tenth. One step in from the
/// very best, so that a single lucky window does not set the figure.
pub fn best_decile(values: &[f64], better: Better) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if better == Better::Higher {
        v.reverse();
    }
    v.get((v.len().saturating_sub(1) as f64 * 0.1).round() as usize)
        .copied()
        .unwrap_or(0.0)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Boots, populates and warms `name` up; returns the bench, the warm-up
/// pass and how long all of it took.
fn set_up(name: &str, opts: &Options, lat: &mut Samples) -> Result<(Bench, Pass, f64), String> {
    let t0 = Instant::now();
    let mut bench = setup(name, opts.seed)?;
    let need = bench.workload.load_threads();
    if need > procfs::nproc() {
        return Err(format!(
            "{name} drives load from {need} threads but only {} cores are available",
            procfs::nproc()
        ));
    }
    let warm = drive(
        bench.workload.as_mut(),
        &mut Tracer::off(),
        lat,
        Stop::After(Duration::from_secs_f64(opts.warmup_s)),
    );
    Ok((bench, warm, t0.elapsed().as_secs_f64()))
}

/// Invariants checked after every workload over the measured interval
/// `d`; each proves the run stayed on the path the workload claims.
fn tripwires(path: DataPath, d: &Counters, pending_left: u64) -> Vec<String> {
    let mut out = Vec::new();
    let mut must_be_zero = |what: &str, v: u64| {
        if v != 0 {
            out.push(format!("{what} = {v}, must be 0"));
        }
    };
    must_be_zero("transport.pending_left", pending_left);
    must_be_zero("engine.malformed", d.malformed);
    must_be_zero("engine.dropped_replies", d.dropped_replies);
    must_be_zero("tcp_proxy.event_drops", d.event_drops);
    must_be_zero("lease.stale_generation_reads", d.stale_generation_reads);
    must_be_zero("nvme.failures", d.nvme_failures);
    // A fenced shard closes its connections and revokes leases; every
    // failure after it is the failover's, not the workload's.
    must_be_zero("supervisor.failovers", d.failovers);
    let data_ops = d.p2p_ops + d.buffered_ops;
    match path {
        DataPath::Leased => {
            must_be_zero("engine.rpcs (leased reads must not RPC)", d.rpcs);
            must_be_zero("lease fallbacks", d.lease_table_fallbacks);
        }
        DataPath::Buffered if d.p2p_ops != 0 || data_ops == 0 => out.push(format!(
            "fs_proxy.buffered_share = {}, must be 1",
            ratio(d.buffered_ops, data_ops)
        )),
        DataPath::P2p if d.buffered_ops != 0 || data_ops == 0 => out.push(format!(
            "fs_proxy.buffered_share = {}, must be 0 with P2P traffic present",
            ratio(d.buffered_ops, data_ops)
        )),
        _ => {}
    }
    out
}

/// The untraced run: end-to-end metrics, wall clock only.
///
/// The first boot is the one measured, so `rss_mb` is the footprint of
/// one system and not of what earlier boots left in the allocator; the
/// remaining set-ups follow it and only add to the `setup_s` median.
///
/// # Errors
///
/// Returns a message when set-up fails or the box has too few cores.
pub fn run_untraced(name: &str, opts: &Options) -> Result<RunResult, String> {
    let mut lat = Samples::new();
    let (Bench { mut workload, sys }, warm, first_setup_s) = set_up(name, opts, &mut lat)?;
    let base = Counters::read(&sys);
    let windows = window_count(opts.seconds, warm.calls as f64 / warm.secs);
    let window = Stop::After(Duration::from_secs_f64(opts.seconds / windows as f64));
    let passes: Vec<Pass> = (0..windows)
        .map(|_| drive(workload.as_mut(), &mut Tracer::off(), &mut lat, window))
        .collect();
    let rss = procfs::rss_mib();
    let delta = Counters::read(&sys).since(&base);
    let trips = tripwires(workload.data_path(), &delta, Counters::pending_left(&sys));
    drop(workload);
    sys.shutdown();

    let mut setup_s = vec![first_setup_s];
    let mut attempted = warm.ops + passes.iter().map(|p| p.ops).sum::<u64>();
    let mut failed = warm.failed + passes.iter().map(|p| p.failed).sum::<u64>();
    for _ in 1..opts.setups {
        let (Bench { workload, sys }, warm, secs) = set_up(name, opts, &mut lat)?;
        setup_s.push(secs);
        attempted += warm.ops;
        failed += warm.failed;
        drop(workload);
        sys.shutdown();
    }

    let samples: u64 = passes.iter().map(|p| p.calls).sum();
    let per_window = |f: fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    let metrics = END_TO_END
        .iter()
        .map(|m| {
            let (windows, samples) = match m.name {
                "ops_per_s" => (per_window(Pass::ops_per_s), 0),
                "lat_p50_us" => (per_window(|p| p.p50_ns / 1e3), samples),
                "lat_p99_us" => (per_window(|p| p.p99_ns / 1e3), samples),
                "cpu_us_per_op" => (per_window(|p| p.cpu_us / p.good_ops().max(1.0)), 0),
                "rss_mb" => (vec![rss], 0),
                "setup_s" => (setup_s.clone(), 0),
                other => unreachable!("end-to-end metric {other} has no measurement"),
            };
            let value = match m.name {
                // Three set-ups have no decile; the manifest asks for
                // their median.
                "setup_s" => median(&windows),
                _ => best_decile(&windows, m.better),
            };
            Metric {
                name: m.name,
                unit: m.unit,
                value,
                windows,
                samples,
            }
        })
        .collect();
    Ok(RunResult {
        workload: name.to_string(),
        attempted,
        failed,
        tripwires: trips,
        metrics,
    })
}

/// Untraced calls per traced call in a traced run.
const PLAIN_PER_TRACED: u64 = 4;

/// The traced run: a fixed number of calls untraced, the same number
/// traced (spans kept in memory, written to `out_dir`), then the layer
/// replays with the system shut down. Fixed counts make every counter
/// ratio repeat exactly.
///
/// # Errors
///
/// Returns a message when set-up fails or the span file cannot be
/// written.
pub fn run_traced(name: &str, opts: &Options) -> Result<RunResult, String> {
    let mut lat = Samples::new();
    let (Bench { mut workload, sys }, warm, _) = set_up(name, opts, &mut lat)?;
    let calls = opts.trace_calls.unwrap_or_else(|| workload.trace_calls());

    // The untraced calls run half before and half after the traced pass,
    // so a drift in the system's speed falls on both sides of the
    // comparison. Together they give the throughput the traced pass is
    // compared with, the call latency the replays are compared with, and
    // enough CPU ticks for `proc.cpu_util`.
    let half = Stop::Calls(PLAIN_PER_TRACED * calls / 2);
    let mut plain = drive(workload.as_mut(), &mut Tracer::off(), &mut lat, half);
    let mut tracer = Tracer::on(calls as usize * workload.spans_per_call());
    let base = Counters::read(&sys);
    let traced = drive(workload.as_mut(), &mut tracer, &mut lat, Stop::Calls(calls));
    let (threads, _) = procfs::threads_and_ctx_switches();
    let d = Counters::read(&sys).since(&base);
    plain.absorb(drive(workload.as_mut(), &mut Tracer::off(), &mut lat, half));
    let pending_left = Counters::pending_left(&sys);
    let trips = tripwires(workload.data_path(), &d, pending_left);
    let shape = workload.shape();
    let app = workload.app_stats();
    drop(workload);
    sys.shutdown();

    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;
    let path = opts.out_dir.join(format!("trace-{name}.json"));
    let mut out = BufWriter::new(File::create(&path).map_err(|e| format!("{path:?}: {e}"))?);
    tracer
        .write_json(&mut out)
        .and_then(|()| out.flush())
        .map_err(|e| format!("{path:?}: {e}"))?;

    let rp = replay(&shape, opts.seed);
    let ops = traced.ops - traced.failed;
    let per_op = |v: u64| ratio(v, ops);
    let cache_hit_ratio = ratio(d.cache_hits, d.cache_hits + d.cache_misses);
    let (tokens, bytes_read) = app.unwrap_or((0, 0));

    let v: BTreeMap<&str, f64> = BTreeMap::from([
        ("stub.submit_p50_ns", tracer.p50_ns("stub.submit")),
        ("stub.wait_p50_ns", tracer.p50_ns("stub.wait")),
        ("stub.batch_p50_ns", tracer.p50_ns("stub.batch")),
        ("stub.call_p50_ns", tracer.p50_ns("stub.call")),
        ("stub.recv_p50_ns", tracer.p50_ns("stub.recv")),
        ("stub.send_p50_ns", tracer.p50_ns("stub.send")),
        ("transport.pending_left", pending_left as f64),
        ("proto.encode_ns", rp.proto_encode_ns),
        ("proto.decode_ns", rp.proto_decode_ns),
        ("proto.allocs_per_frame", rp.proto_allocs_per_frame),
        ("ringbuf.send_ns", rp.ring_send_ns),
        ("ringbuf.recv_ns", rp.ring_recv_ns),
        (
            "ringbuf.batch32_send_ns_per_frame",
            rp.ring_batch32_send_ns_per_frame,
        ),
        ("ringbuf.publishes_per_frame", rp.ring_publishes_per_frame),
        (
            "ringbuf.combiner_batches_per_frame",
            rp.ring_combiner_batches_per_frame,
        ),
        ("pcie.ctrl_reads_per_op", per_op(d.ctrl_reads)),
        ("pcie.ctrl_writes_per_op", per_op(d.ctrl_writes)),
        ("pcie.lines_per_op", per_op(d.lines)),
        ("pcie.dma_bytes_per_op", per_op(d.dma_bytes)),
        (
            "pcie.modelled_us_per_op",
            d.modelled_pcie_us() / (ops as f64).max(1.0),
        ),
        ("engine.rpcs_per_op", per_op(d.rpcs)),
        ("engine.reply_publishes_per_op", per_op(d.reply_publishes)),
        ("engine.replies_per_wave", ratio(d.replies, d.reply_waves)),
        ("engine.sheds", d.sheds as f64),
        ("engine.malformed", d.malformed as f64),
        ("engine.dropped_replies", d.dropped_replies as f64),
        ("engine.lease_deferred", d.lease_deferred as f64),
        ("engine.inherit_deferred", d.inherit_deferred as f64),
        ("engine.settle_ns_per_reply", rp.settle_ns_per_reply),
        ("qos.admit_ns", rp.qos_admit_ns),
        ("qos.allocs_per_admit", rp.qos_allocs_per_admit),
        (
            "fs_proxy.p2p_share",
            ratio(d.p2p_ops, d.p2p_ops + d.buffered_ops),
        ),
        (
            "fs_proxy.buffered_share",
            ratio(d.buffered_ops, d.p2p_ops + d.buffered_ops),
        ),
        (
            "fs_proxy.prefetched_pages_per_op",
            per_op(d.prefetched_pages),
        ),
        ("fs_proxy.lease_fallbacks", d.lease_fallback_rpcs as f64),
        ("fs.fiemap_ns", rp.fiemap_ns),
        ("fs.read_hit_ns", rp.fs_read_hit_ns),
        ("fs.read_miss_ns", rp.fs_read_miss_ns),
        ("fs.write_ns", rp.fs_write_ns),
        ("fs.cache_hit_ratio", cache_hit_ratio),
        ("fs.cache_evictions_per_op", per_op(d.cache_evictions)),
        ("nvme.submit_ns", rp.nvme_submit_ns),
        ("nvme.commands_per_op", per_op(d.nvme_commands)),
        ("nvme.doorbells_per_op", per_op(d.nvme_doorbells)),
        ("nvme.interrupts_per_op", per_op(d.nvme_interrupts)),
        ("nvme.blocks_per_op", per_op(d.nvme_blocks)),
        ("nvme.failures", d.nvme_failures as f64),
        ("lease.read_p50_ns", tracer.p50_ns("lease.read")),
        (
            "lease.hit_ratio",
            ratio(d.leased_reads, d.leased_reads + d.lease_table_fallbacks),
        ),
        ("lease.recall_acks", d.recall_acks as f64),
        (
            "lease.stale_generation_reads",
            d.stale_generation_reads as f64,
        ),
        ("oplog.append_ns", rp.oplog_append_ns),
        ("oplog.appends_per_op", per_op(d.log_appends)),
        ("oplog.batch_avg", ratio(d.log_appends, d.log_batches)),
        ("tcp_proxy.staged_sends_per_op", per_op(d.staged_sends)),
        (
            "tcp_proxy.coalesce_factor",
            ratio(d.staged_sends, d.send_waves),
        ),
        ("tcp_proxy.events_per_op", per_op(d.events)),
        ("tcp_proxy.event_drops", d.event_drops as f64),
        ("netdev.send_ns", rp.netdev_send_ns),
        ("netdev.recv_ns", rp.netdev_recv_ns),
        (
            "apps.tokens_per_s",
            tokens as f64 * traced.calls as f64 / traced.secs,
        ),
        ("apps.bytes_read_per_run", bytes_read as f64),
        ("proc.allocs_per_op", per_op(d.allocs)),
        ("proc.ctx_switches_per_op", per_op(d.ctx_switches)),
        ("proc.threads", threads as f64),
        ("proc.cpu_util", plain.cpu_us / (plain.secs * 1e6)),
        (
            "trace.overhead_ratio",
            traced.ops_per_s() / plain.ops_per_s(),
        ),
        (
            "trace.unattributed_share",
            1.0 - rp.serial_ns_per_call(&shape, cache_hit_ratio) / plain.p50_ns.max(1.0),
        ),
    ]);
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit, _)| Metric {
            name,
            unit,
            value: *v.get(name).expect("every per-layer metric is computed"),
            windows: Vec::new(),
            samples: 0,
        })
        .collect();
    Ok(RunResult {
        workload: name.to_string(),
        attempted: warm.ops + plain.ops + traced.ops,
        failed: warm.failed + plain.failed + traced.failed,
        tripwires: trips,
        metrics,
    })
}

/// Where a result came from: enough to tell two result files apart.
pub fn provenance(opts: &Options) -> Value {
    let tool = |cmd: &str, args: &[&str]| -> String {
        std::process::Command::new(cmd)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string())
    };
    obj([
        ("commit", Value::from(tool("git", &["rev-parse", "HEAD"]))),
        ("rustc", Value::from(tool("rustc", &["--version"]))),
        ("seed", Value::from(opts.seed)),
        ("seconds", Value::from(opts.seconds)),
        ("max_windows", Value::from(MAX_WINDOWS as u64)),
        ("calls_per_window", Value::from(CALLS_PER_WINDOW)),
        ("warmup_s", Value::from(opts.warmup_s)),
        ("setups", Value::from(opts.setups as u64)),
        ("nproc", Value::from(procfs::nproc() as u64)),
        (
            "pinned_cpu",
            procfs::pin_process_to_one_cpu().map_or(Value::Null, |c| Value::from(c as u64)),
        ),
        ("load_threads", Value::from("1; app_text_index 2")),
    ])
}
