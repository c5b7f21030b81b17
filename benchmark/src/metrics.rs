//! The metric tables. `BENCHMARK.json` at the repo root is generated from
//! these (`bench manifest`), the runner reports exactly these names, and
//! `bench compare` takes its bounds from here — one source for all three.

use crate::json::{obj, Value};
use crate::workloads::NAMES;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric and the share of the parent's median by which it
/// may worsen before a change counts as a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Regression bound, a share of the parent's median.
    pub bound: f64,
}

/// What a user of the system sees, per workload. `fail_ratio` is carried
/// by the `attempted`/`failed` counts of every result line instead of a
/// metric here, because a metric that is always 0 has no relative bound.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "lat_p99_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
];

/// A single layer's metric: `(name, unit, better)`. No bound.
pub type PerLayer = (&'static str, &'static str, Better);

use Better::{Higher as H, Lower as L};

/// Per-layer metrics; the prefix is the repo's module name. A metric of
/// a layer that is not on a workload's path reads 0 there.
pub const PER_LAYER: [PerLayer; 68] = [
    ("stub.submit_p50_ns", "ns", L),
    ("stub.wait_p50_ns", "ns", L),
    ("stub.batch_p50_ns", "ns", L),
    ("stub.call_p50_ns", "ns", L),
    ("stub.recv_p50_ns", "ns", L),
    ("stub.send_p50_ns", "ns", L),
    ("transport.pending_left", "count", L),
    ("proto.encode_ns", "ns", L),
    ("proto.decode_ns", "ns", L),
    ("proto.allocs_per_frame", "count", L),
    ("ringbuf.send_ns", "ns", L),
    ("ringbuf.recv_ns", "ns", L),
    ("ringbuf.batch32_send_ns_per_frame", "ns", L),
    ("ringbuf.publishes_per_frame", "count", L),
    ("ringbuf.combiner_batches_per_frame", "count", L),
    ("pcie.ctrl_reads_per_op", "count", L),
    ("pcie.ctrl_writes_per_op", "count", L),
    ("pcie.lines_per_op", "count", L),
    ("pcie.dma_bytes_per_op", "B", L),
    ("pcie.modelled_us_per_op", "us", L),
    ("engine.rpcs_per_op", "count", L),
    ("engine.reply_publishes_per_op", "count", L),
    ("engine.replies_per_wave", "count", H),
    ("engine.sheds", "count", L),
    ("engine.malformed", "count", L),
    ("engine.dropped_replies", "count", L),
    ("engine.lease_deferred", "count", L),
    ("engine.inherit_deferred", "count", L),
    ("engine.settle_ns_per_reply", "ns", L),
    ("qos.admit_ns", "ns", L),
    ("qos.allocs_per_admit", "count", L),
    ("fs_proxy.p2p_share", "ratio", H),
    ("fs_proxy.buffered_share", "ratio", L),
    ("fs_proxy.prefetched_pages_per_op", "count", L),
    ("fs_proxy.lease_fallbacks", "count", L),
    ("fs.fiemap_ns", "ns", L),
    ("fs.read_hit_ns", "ns", L),
    ("fs.read_miss_ns", "ns", L),
    ("fs.write_ns", "ns", L),
    ("fs.cache_hit_ratio", "ratio", H),
    ("fs.cache_evictions_per_op", "count", L),
    ("nvme.submit_ns", "ns", L),
    ("nvme.commands_per_op", "count", L),
    ("nvme.doorbells_per_op", "count", L),
    ("nvme.interrupts_per_op", "count", L),
    ("nvme.blocks_per_op", "count", L),
    ("nvme.failures", "count", L),
    ("lease.read_p50_ns", "ns", L),
    ("lease.hit_ratio", "ratio", H),
    ("lease.recall_acks", "count", L),
    ("lease.stale_generation_reads", "count", L),
    ("oplog.append_ns", "ns", L),
    ("oplog.appends_per_op", "count", L),
    ("oplog.batch_avg", "count", H),
    ("tcp_proxy.staged_sends_per_op", "count", H),
    ("tcp_proxy.coalesce_factor", "count", H),
    ("tcp_proxy.events_per_op", "count", L),
    ("tcp_proxy.event_drops", "count", L),
    ("netdev.send_ns", "ns", L),
    ("netdev.recv_ns", "ns", L),
    ("apps.tokens_per_s", "1/s", H),
    ("apps.bytes_read_per_run", "B", L),
    ("proc.allocs_per_op", "count", L),
    ("proc.ctx_switches_per_op", "count", L),
    ("proc.threads", "count", L),
    ("proc.cpu_util", "cores", L),
    ("trace.overhead_ratio", "ratio", H),
    ("trace.unattributed_share", "ratio", L),
];

/// One line per workload on why it exists (the long form is README.md).
pub const WHY: [&str; 8] = [
    "per-request software cost from stub encode to stub wake dominates; data movement is negligible (Fig 13)",
    "same layers as qd1 but wave batching amortises ring publishes, doorbells and replies to 1/32 per op",
    "data movement, MDTS splitting and extent mapping dominate; bypass workload for every RPC-path change",
    "buffered path: solros-fs, shared LRU cache at 4x working set, writes beside reads on one inode",
    "zero-RPC leased reads: LeaseTable and NVMe queues only; bypass workload for ring and engine changes",
    "64 B ping-pong at depth 1 over event ring, dispatcher wake, TCP proxy and netdev (Fig 1b)",
    "waves of 32 small sends: send staging, coalescing and reply waves do the work",
    "what a user runs (Fig 16): metadata RPCs, chunked reads and tokenising compute, on two threads",
];

/// Seconds one driver run measures.
pub const RUN_SECONDS: u64 = 12;

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    obj([
        ("command", Value::from(command.to_vec())),
        ("paths", Value::from(vec!["benchmark"])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                NAMES
                    .iter()
                    .zip(WHY)
                    .map(|(n, why)| obj([("name", Value::from(*n)), ("why", Value::from(why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Value::from(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", Value::from(m.better.label())),
                            ("bound", Value::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|(name, unit, better)| {
                        obj([
                            ("name", Value::from(*name)),
                            ("unit", Value::from(*unit)),
                            ("better", Value::from(better.label())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.as_bytes()[0].is_ascii_alphanumeric()
            && n.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.bytes()
                .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        let mut seen = HashSet::new();
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
            assert!(seen.insert(m.name));
        }
        for (name, unit, _) in PER_LAYER {
            assert!(name_ok(name) && unit_ok(unit), "{name}");
            assert!(seen.insert(name), "{name} used twice");
        }
        for (n, why) in NAMES.iter().zip(WHY) {
            assert!(name_ok(n) && seen.insert(n));
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(manifest().pretty().len() < 64 * 1024);
    }
}
