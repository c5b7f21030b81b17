//! Boot-time QoS configuration.

/// Priority class of a request flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QosClass {
    /// Latency-sensitive work (FS metadata, small control ops).
    High,
    /// Regular data-path traffic.
    Normal,
    /// Bulk traffic shed first under overload.
    BestEffort,
}

impl QosClass {
    /// All classes, highest priority first.
    pub const ALL: [QosClass; 3] = [QosClass::High, QosClass::Normal, QosClass::BestEffort];

    /// Stable index into per-class arrays.
    pub fn index(self) -> usize {
        match self {
            QosClass::High => 0,
            QosClass::Normal => 1,
            QosClass::BestEffort => 2,
        }
    }

    /// Short lowercase label used in flow names and report tables.
    pub fn label(self) -> &'static str {
        match self {
            QosClass::High => "high",
            QosClass::Normal => "normal",
            QosClass::BestEffort => "best-effort",
        }
    }
}

/// Per-class knobs. Zero rates/deadlines mean "unlimited"/"none".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClassConfig {
    /// DWRR weight; throughput shares converge to the weight ratio.
    pub weight: u32,
    /// Operations per second admitted; 0 = unlimited.
    pub ops_per_sec: u64,
    /// Payload bytes per second admitted; 0 = unlimited.
    pub bytes_per_sec: u64,
    /// Token-bucket burst in operations.
    pub burst_ops: u64,
    /// Token-bucket burst in bytes.
    pub burst_bytes: u64,
    /// Queue slots before submissions to this class are shed.
    pub queue_cap: usize,
    /// Shed queued requests older than this at dispatch; 0 = no deadline.
    pub deadline_us: u64,
    /// Shed this class at submit while the gate is overloaded.
    pub sheddable: bool,
}

impl ClassConfig {
    /// Pass-through: unlimited rate, effectively unbounded queue, never shed.
    pub fn pass_through(weight: u32) -> Self {
        Self {
            weight,
            ops_per_sec: 0,
            bytes_per_sec: 0,
            burst_ops: 0,
            burst_bytes: 0,
            queue_cap: usize::MAX,
            deadline_us: 0,
            sheddable: false,
        }
    }
}

/// QoS configuration handed to `Solros::boot`.
///
/// The default is **pass-through**: the gate is disabled, proxies keep
/// their original FIFO service loops, no request is ever shed, and no
/// credit windows are imposed — existing tests and figures are unaffected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QosConfig {
    /// Master switch; `false` keeps the original FIFO service loops.
    pub enabled: bool,
    /// DWRR quantum in bytes credited per weight unit per round.
    pub quantum_bytes: u64,
    /// Total queued requests across a gate's flows that marks overload.
    pub overload_threshold: usize,
    /// Per-class settings, indexed by [`QosClass::index`].
    pub classes: [ClassConfig; 3],
    /// In-flight request window per data-plane stub; 0 = no credit gating.
    pub credit_window: u32,
}

impl Default for QosConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            quantum_bytes: 64 * 1024,
            overload_threshold: usize::MAX,
            classes: [
                ClassConfig::pass_through(8),
                ClassConfig::pass_through(4),
                ClassConfig::pass_through(1),
            ],
            credit_window: 0,
        }
    }
}

impl QosConfig {
    /// An opinionated enabled profile used by experiments and tests:
    /// 8:4:1 weights, bounded queues, a 2 ms best-effort deadline, and
    /// best-effort shedding under overload.
    pub fn enforcing() -> Self {
        let base = ClassConfig {
            weight: 4,
            ops_per_sec: 0,
            bytes_per_sec: 0,
            burst_ops: 0,
            burst_bytes: 0,
            queue_cap: 256,
            deadline_us: 0,
            sheddable: false,
        };
        Self {
            enabled: true,
            quantum_bytes: 64 * 1024,
            overload_threshold: 512,
            classes: [
                ClassConfig {
                    weight: 8,
                    queue_cap: 256,
                    ..base
                },
                ClassConfig { weight: 4, ..base },
                ClassConfig {
                    weight: 1,
                    queue_cap: 128,
                    deadline_us: 2_000,
                    sheddable: true,
                    ..base
                },
            ],
            credit_window: 64,
        }
    }

    /// The canned multi-tenant profile: [`QosConfig::enforcing`] with a
    /// tighter per-stub credit window and smaller queues, sized so that a
    /// handful of tenants sharing one proxy hit per-tenant flow
    /// accounting (the gate's `(tenant, class)` keying) instead of
    /// drowning each other in a deep shared queue. Best-effort keeps its 2 ms deadline
    /// and stays the only sheddable class, so one tenant's bulk traffic
    /// is what gives way under overload.
    pub fn multi_tenant() -> Self {
        let mut cfg = Self::enforcing();
        cfg.credit_window = 32;
        cfg.overload_threshold = 256;
        cfg.classes[QosClass::High.index()].queue_cap = 128;
        cfg.classes[QosClass::Normal.index()].queue_cap = 128;
        cfg.classes[QosClass::BestEffort.index()].queue_cap = 64;
        cfg
    }

    /// Per-class config lookup.
    pub fn class(&self, c: QosClass) -> &ClassConfig {
        &self.classes[c.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_pass_through() {
        let cfg = QosConfig::default();
        assert!(!cfg.enabled);
        assert_eq!(cfg.credit_window, 0);
        for c in QosClass::ALL {
            let cc = cfg.class(c);
            assert_eq!(cc.ops_per_sec, 0);
            assert_eq!(cc.bytes_per_sec, 0);
            assert_eq!(cc.queue_cap, usize::MAX);
            assert!(!cc.sheddable);
        }
    }

    #[test]
    fn enforcing_sheds_best_effort_only() {
        let cfg = QosConfig::enforcing();
        assert!(cfg.enabled);
        assert!(!cfg.class(QosClass::High).sheddable);
        assert!(!cfg.class(QosClass::Normal).sheddable);
        assert!(cfg.class(QosClass::BestEffort).sheddable);
    }

    #[test]
    fn multi_tenant_tightens_enforcing() {
        let cfg = QosConfig::multi_tenant();
        let base = QosConfig::enforcing();
        assert!(cfg.enabled);
        assert!(cfg.credit_window < base.credit_window);
        assert!(cfg.overload_threshold < base.overload_threshold);
        for c in QosClass::ALL {
            assert!(cfg.class(c).queue_cap < base.class(c).queue_cap);
            assert_eq!(cfg.class(c).weight, base.class(c).weight);
            assert_eq!(cfg.class(c).sheddable, base.class(c).sheddable);
        }
        assert_eq!(cfg.class(QosClass::BestEffort).deadline_us, 2_000);
    }
}
