//! Benchmark harness regenerating every table and figure of the Solros
//! paper's evaluation (§6).
//!
//! Each `figs::figXX` module regenerates one figure/table as a markdown
//! report (the same rows/series the paper plots) and carries unit tests
//! asserting the *shape* claims — who wins, by roughly what factor, where
//! crossovers fall. [`EXPERIMENTS`] lists every figure, ablation and
//! extension experiment once; the `solros-bench` binary runs them by id
//! (all of them, in the order `EXPERIMENTS.md` records, when given none).
//!
//! Absolute numbers come from the calibrated simulation models
//! (`solros-pcie`, `solros-nvme`, `solros-netdev`, `solros-baseline`) and
//! from *functional* runs of the real transport/FS/network code with PCIe
//! transaction accounting; they are not expected to match the paper's
//! testbed measurements exactly, only to preserve its relationships.

pub mod ablations;
pub mod extensions;
pub mod figs;
pub mod model;

/// Heap-allocation probe backing the zero-alloc regression gate on the
/// QoS admission hot path (E10). A thin counting wrapper over the system
/// allocator: every `alloc`/`realloc`/`alloc_zeroed` bumps one relaxed
/// atomic, so `allocs()` deltas around a single-threaded measured window
/// count exactly the allocations that window performed.
pub mod alloc_probe {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// Counting wrapper over [`System`]; installed as the bench
    /// harness's global allocator.
    pub struct CountingAlloc;

    // SAFETY: defers every operation to `System` unchanged; the counter
    // is a side effect only.
    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.realloc(ptr, layout, new_size) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            unsafe { System.alloc_zeroed(layout) }
        }
    }

    /// Heap allocations performed since process start (all threads).
    pub fn allocs() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

#[global_allocator]
static GLOBAL_ALLOC: alloc_probe::CountingAlloc = alloc_probe::CountingAlloc;

/// What one experiment produced: its markdown report and every gate it
/// failed (empty when it passed or has no gate).
pub struct Run {
    /// Rendered markdown report.
    pub report: String,
    /// One line per failed gate; the binary exits nonzero on any.
    pub failures: Vec<String>,
}

impl Run {
    /// Records `failure` unless `ok` holds.
    pub fn check(&mut self, ok: bool, failure: impl Into<String>) {
        if !ok {
            self.failures.push(failure.into());
        }
    }
}

impl From<String> for Run {
    fn from(report: String) -> Self {
        Run {
            report,
            failures: Vec::new(),
        }
    }
}

/// One registry entry: `solros-bench <id>` prints `## <title>` and the
/// report of `run`.
pub struct Experiment {
    /// Lower-case command-line id (`fig13`, `d5`, `e6`, `e3-engine`).
    pub id: &'static str,
    /// Section heading of the report.
    pub title: &'static str,
    /// Runs the experiment and its gates.
    pub run: fn() -> Run,
}

const fn exp(id: &'static str, title: &'static str, run: fn() -> Run) -> Experiment {
    Experiment { id, title, run }
}

/// Every experiment, in the order of `EXPERIMENTS.md`'s full report: the
/// paper's figures and Table 1, the design ablations, the extensions.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = {
    use ablations as d;
    use extensions as e;
    use figs::*;
    &[
        exp("fig01a", "Figure 1a — file random read throughput vs block size", || fig01a::run().into()),
        exp("fig01b", "Figure 1b — TCP latency, 64-byte messages", || fig01b::run().into()),
        exp("fig04", "Figure 4 — PCIe transfer bandwidth (DMA vs load/store)", || fig04::run().into()),
        exp("fig08", "Figure 8 — ring buffer scalability (measured, this machine)", || fig08::run().into()),
        exp("fig09", "Figure 9 — lazy vs eager control-variable updates over PCIe", || fig09::run().into()),
        exp("fig10", "Figure 10 — copy mechanism vs element size (8 threads)", || fig10::run().into()),
        exp("fig11", "Figure 11 — NVMe random read throughput", || fig11::run().into()),
        exp("fig12", "Figure 12 — NVMe random write throughput", || fig12::run().into()),
        exp("fig13", "Figure 13 — I/O latency breakdown", || fig13::run().into()),
        exp("tab01", "Table 1 — lines of code (this reproduction)", || tab01::run().into()),
        exp("fig14", "Figure 14* — network stream throughput vs message size", || fig14::run().into()),
        exp("fig15", "Figure 15* — shared listening socket scaling", || fig15::run().into()),
        exp("fig16", "Figure 16* — text indexing", || fig16::run().into()),
        exp("fig17", "Figure 17* — image search", || fig17::run().into()),
        exp("fig18", "Figure 18* — control-plane scalability", || fig18::run().into()),
        exp("d1", "D1 — combining threshold", || d::combining_threshold().into()),
        exp("d3", "D3 — adaptive copy threshold", || d::adaptive_threshold().into()),
        exp("d4", "D4 — master ring placement", || d::master_placement().into()),
        exp("d5", "D5 — P2P vs buffered path decision", || d::path_decision().into()),
        exp("d6", "D6 — NVMe command coalescing", || d::nvme_coalescing().into()),
        exp("d7", "D7 — buffered-path readahead (§4.3.2 prefetch)", || d::readahead().into()),
        exp("d8", "D8 — one drainer at a time for inbound events", || d::event_drain_saturation().into()),
        exp("e1", "E1 — TCP latency under load (DES)", || e::latency_under_load().into()),
        exp("e2", "E2 — shared host cache across co-processors", || e::shared_cache().into()),
        exp("e3", "E3 — QoS gate under overload", e::qos_overload),
        exp("e4", "E4 — submission pipeline vs queue depth", e::queue_depth),
        exp("e5", "E5 — fault injection and recovery", e::fault_recovery),
        exp("e6", "E6 — extent-lease data plane", e::lease_data_plane),
        exp("e7", "E7 — sharded control plane: one table off the data path", e::control_plane_scaling),
        exp("e8", "E8 — symmetric reply wave and TCP send coalescing", e::reply_wave),
        exp("e9", "E9 — domain failover under a fault storm", e::domain_failover),
        exp("e10", "E10 — hierarchical QoS under tenant-id churn", e::hierarchical_qos),
        exp("e3-engine", "E3-engine — overload through the shared proxy engine", e::engine_overload_smoke),
    ]
};

/// The registry entry named `id`, if there is one.
pub fn find(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate ids a script or workflow names: the words after
    /// `for gate in` up to `;`, and after `solros-bench --` to the end of
    /// the line.
    fn named_ids(script: &str) -> Vec<&str> {
        script
            .lines()
            .filter_map(|l| {
                let l = l.trim();
                l.strip_prefix("for gate in ")
                    .map(|rest| rest.split(';').next().unwrap_or(""))
                    .or_else(|| l.split_once("solros-bench -- ").map(|(_, ids)| ids))
            })
            .flat_map(str::split_whitespace)
            .collect()
    }

    #[test]
    fn ids_are_unique_and_lower_case() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert_eq!(e.id, e.id.to_lowercase(), "{}", e.id);
            assert!(
                EXPERIMENTS[..i].iter().all(|o| o.id != e.id),
                "duplicate id {}",
                e.id
            );
        }
    }

    #[test]
    fn every_id_ci_names_resolves() {
        let ci = named_ids(include_str!("../../../.github/workflows/ci.yml"));
        let offline = named_ids(include_str!("../../../scripts/offline-check.sh"));
        assert_eq!(ci, ["fig13"]);
        for id in ["e3", "e3-engine", "e4", "e5", "e6", "e7", "e8", "e9", "e10"] {
            assert!(offline.contains(&id), "offline-check.sh skips {id}");
        }
        for id in ci.iter().chain(&offline) {
            assert!(find(id).is_some(), "unknown id {id}");
        }
    }

    #[test]
    fn unknown_ids_are_refused() {
        for id in ["", "e11", "E6", "fig13 ", "extensions"] {
            assert!(find(id).is_none(), "{id:?}");
        }
    }
}
