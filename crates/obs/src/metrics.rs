//! The lock-free metrics registry and its deterministic snapshots.

use crate::keys::{Metric, MetricClass, MetricKind, SPECS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Storage for one registered metric.
enum Slot {
    Counter(AtomicU64),
    Gauge(AtomicI64),
    Hist(HistSlot),
}

/// Fixed-bucket histogram storage: one counter per bound plus an overflow
/// bucket, a sample count, and a saturating sample sum.
struct HistSlot {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
}

/// A metrics registry over the static [`crate::keys::SPECS`] table.
///
/// All update paths are lock-free: a metric id indexes a preallocated slot
/// and the update is a relaxed atomic RMW. Snapshots iterate the table in
/// registration order, so two registries that received the same multiset of
/// updates produce byte-identical snapshots regardless of thread
/// interleaving.
pub struct Registry {
    slots: Box<[Slot]>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// A registry with every metric in [`crate::keys::SPECS`] at zero.
    pub fn new() -> Self {
        let slots = SPECS
            .iter()
            .map(|spec| match spec.kind {
                MetricKind::Counter => Slot::Counter(AtomicU64::new(0)),
                MetricKind::Gauge => Slot::Gauge(AtomicI64::new(0)),
                MetricKind::Histogram => Slot::Hist(HistSlot {
                    buckets: (0..=spec.buckets.len()).map(|_| AtomicU64::new(0)).collect(),
                    count: AtomicU64::new(0),
                    sum: AtomicU64::new(0),
                }),
            })
            .collect();
        Registry { slots }
    }

    /// Add `n` to a counter. No-op (debug panic) on a non-counter metric.
    pub fn add(&self, m: Metric, n: u64) {
        match &self.slots[m as usize] {
            Slot::Counter(c) => {
                c.fetch_add(n, Ordering::Relaxed);
            }
            _ => debug_assert!(false, "{} is not a counter", m.name()),
        }
    }

    /// Set a gauge to `v` (last write wins).
    pub fn gauge_set(&self, m: Metric, v: i64) {
        match &self.slots[m as usize] {
            Slot::Gauge(g) => g.store(v, Ordering::Relaxed),
            _ => debug_assert!(false, "{} is not a gauge", m.name()),
        }
    }

    /// Record one histogram sample.
    pub fn observe(&self, m: Metric, v: u64) {
        match &self.slots[m as usize] {
            Slot::Hist(h) => {
                let bounds = m.spec().buckets;
                let idx = bounds.partition_point(|&b| b < v);
                h.buckets[idx].fetch_add(1, Ordering::Relaxed);
                h.count.fetch_add(1, Ordering::Relaxed);
                let mut cur = h.sum.load(Ordering::Relaxed);
                loop {
                    let next = cur.saturating_add(v);
                    match h.sum.compare_exchange_weak(
                        cur,
                        next,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(seen) => cur = seen,
                    }
                }
            }
            _ => debug_assert!(false, "{} is not a histogram", m.name()),
        }
    }

    /// Current value of a counter.
    pub fn counter(&self, m: Metric) -> u64 {
        match &self.slots[m as usize] {
            Slot::Counter(c) => c.load(Ordering::Relaxed),
            _ => 0,
        }
    }

    /// Current value of a gauge.
    pub fn gauge(&self, m: Metric) -> i64 {
        match &self.slots[m as usize] {
            Slot::Gauge(g) => g.load(Ordering::Relaxed),
            _ => 0,
        }
    }

    /// Point-in-time copy of every registered metric, split into the
    /// deterministic, assembly, and volatile sections.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        for (m, spec) in Metric::ALL.iter().zip(SPECS) {
            let section = match spec.class {
                MetricClass::Deterministic => &mut snap.deterministic,
                MetricClass::Assembly => &mut snap.assembly,
                MetricClass::Volatile => &mut snap.volatile,
            };
            match &self.slots[*m as usize] {
                Slot::Counter(c) => {
                    section.counters.insert(spec.name, c.load(Ordering::Relaxed));
                }
                Slot::Gauge(g) => {
                    section.gauges.insert(spec.name, g.load(Ordering::Relaxed));
                }
                Slot::Hist(h) => {
                    section.histograms.insert(
                        spec.name,
                        HistSnapshot {
                            bounds: spec.buckets,
                            counts: h
                                .buckets
                                .iter()
                                .map(|b| b.load(Ordering::Relaxed))
                                .collect(),
                            count: h.count.load(Ordering::Relaxed),
                            sum: h.sum.load(Ordering::Relaxed),
                        },
                    );
                }
            }
        }
        snap
    }

    /// Fold another registry's snapshot into this registry: counters and
    /// histogram buckets add, gauges are last-write-wins (taken only when
    /// the absorbed value is nonzero, so an untouched gauge cannot clobber
    /// a live one).
    ///
    /// This is the primitive behind checkpoint restore (adding a stored
    /// cell's deterministic section to the live run's registry) and
    /// per-cell capture (folding a temporary cell-scoped registry back into
    /// the main one): because every update is an atomic add of the recorded
    /// totals, a registry that executed a cell and a registry that absorbed
    /// the cell's stored section hold identical values.
    pub fn absorb(&self, snap: &Snapshot) {
        for section in [&snap.deterministic, &snap.assembly, &snap.volatile] {
            for (name, v) in &section.counters {
                if *v > 0 {
                    if let Some(m) = Metric::by_name(name) {
                        self.add(m, *v);
                    }
                }
            }
            for (name, v) in &section.gauges {
                if *v != 0 {
                    if let Some(m) = Metric::by_name(name) {
                        self.gauge_set(m, *v);
                    }
                }
            }
            for (name, h) in &section.histograms {
                if h.count > 0 {
                    if let Some(m) = Metric::by_name(name) {
                        self.absorb_hist(m, h);
                    }
                }
            }
        }
    }

    /// Add a histogram snapshot's buckets/count/sum directly into the slot
    /// (bypassing per-sample bucketing — the snapshot already bucketed).
    fn absorb_hist(&self, m: Metric, h: &HistSnapshot) {
        match &self.slots[m as usize] {
            Slot::Hist(slot) => {
                for (bucket, &c) in slot.buckets.iter().zip(&h.counts) {
                    if c > 0 {
                        bucket.fetch_add(c, Ordering::Relaxed);
                    }
                }
                slot.count.fetch_add(h.count, Ordering::Relaxed);
                let mut cur = slot.sum.load(Ordering::Relaxed);
                loop {
                    let next = cur.saturating_add(h.sum);
                    match slot.sum.compare_exchange_weak(
                        cur,
                        next,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => break,
                        Err(seen) => cur = seen,
                    }
                }
            }
            _ => debug_assert!(false, "{} is not a histogram", m.name()),
        }
    }
}

/// Snapshot of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Inclusive upper bounds, from the metric spec.
    pub bounds: &'static [u64],
    /// Per-bucket sample counts; the final entry is the overflow bucket.
    pub counts: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Saturating sum of all samples.
    pub sum: u64,
}

/// One report section: every metric of the matching volatility class,
/// keyed by static name (sorted, so JSON rendering is deterministic).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Section {
    /// Counter values.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge values.
    pub gauges: BTreeMap<&'static str, i64>,
    /// Histogram values.
    pub histograms: BTreeMap<&'static str, HistSnapshot>,
}

impl Section {
    /// Render as one JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{...}}`.
    ///
    /// Keys come from the static table (no escaping needed) and maps are
    /// ordered, so equal sections render to identical bytes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{v}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{k}\":{{\"count\":{},\"sum\":{},\"bounds\":[", h.count, h.sum);
            for (j, b) in h.bounds.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{b}");
            }
            out.push_str("],\"counts\":[");
            for (j, c) in h.counts.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Fold `other` into `self`: counters sum, gauges take the maximum
    /// (shape levels like worker counts merge meaningfully; there are no
    /// deterministic gauges), histograms merge bucketwise.
    ///
    /// Summation is commutative and associative, so merging shard sections
    /// in any order or grouping yields identical bytes — the property the
    /// shard-manifest merge (`snails_core::checkpoint::merge_manifests`)
    /// and its byte-compare gate rely on.
    pub fn merge(&mut self, other: &Section) {
        for (k, v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            let slot = self.gauges.entry(k).or_insert(i64::MIN);
            *slot = (*slot).max(*v);
        }
        for (k, h) in &other.histograms {
            match self.histograms.get_mut(k) {
                Some(mine) => {
                    debug_assert_eq!(mine.bounds, h.bounds, "{k}: bucket bounds diverge");
                    for (a, b) in mine.counts.iter_mut().zip(&h.counts) {
                        *a += b;
                    }
                    mine.count += h.count;
                    mine.sum = mine.sum.saturating_add(h.sum);
                }
                None => {
                    self.histograms.insert(k, h.clone());
                }
            }
        }
    }
}

/// A full registry snapshot: deterministic, assembly, and volatile
/// sections (see [`crate::keys::MetricClass`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Metrics whose values are pure functions of the workload (identical
    /// at any thread count and across run assemblies).
    pub deterministic: Section,
    /// Metrics that are pure functions of (workload, run assembly):
    /// plan-cache and checkpoint accounting — thread-count invariant, but
    /// legitimately different between fresh, resumed, and sharded runs.
    pub assembly: Section,
    /// Wall-clock timings and scheduler-shape metrics.
    pub volatile: Section,
}

impl Snapshot {
    /// Counter value by static key, searching every section (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.deterministic
            .counters
            .get(name)
            .or_else(|| self.assembly.counters.get(name))
            .or_else(|| self.volatile.counters.get(name))
            .copied()
            .unwrap_or(0)
    }

    /// Histogram snapshot by static key, searching every section.
    pub fn histogram(&self, name: &str) -> Option<&HistSnapshot> {
        self.deterministic
            .histograms
            .get(name)
            .or_else(|| self.assembly.histograms.get(name))
            .or_else(|| self.volatile.histograms.get(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::Metric;

    #[test]
    fn counters_accumulate_and_snapshot() {
        let r = Registry::new();
        r.add(Metric::EnginePlanCacheHit, 3);
        r.add(Metric::EnginePlanCacheHit, 4);
        assert_eq!(r.counter(Metric::EnginePlanCacheHit), 7);
        let snap = r.snapshot();
        assert_eq!(snap.counter("engine.plan.cache_hit"), 7);
        assert_eq!(snap.counter("engine.plan.cache_miss"), 0);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let r = Registry::new();
        r.gauge_set(Metric::CoreSchedulerWorkers, 8);
        r.gauge_set(Metric::CoreSchedulerWorkers, 2);
        assert_eq!(r.gauge(Metric::CoreSchedulerWorkers), 2);
    }

    #[test]
    fn histogram_buckets_bound_inclusively_with_overflow() {
        let r = Registry::new();
        // ROWS_BUCKETS starts [1, 2, 4, ...] and ends at 65536.
        r.observe(Metric::EngineOpScanRows, 0); // bucket 0 (<= 1)
        r.observe(Metric::EngineOpScanRows, 1); // bucket 0 (<= 1, inclusive)
        r.observe(Metric::EngineOpScanRows, 2); // bucket 1
        r.observe(Metric::EngineOpScanRows, 3); // bucket 2 (<= 4)
        r.observe(Metric::EngineOpScanRows, 1 << 40); // overflow
        let snap = r.snapshot();
        let h = snap.histogram("engine.op.scan.rows").unwrap();
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 6 + (1 << 40));
        assert_eq!(h.counts[0], 2);
        assert_eq!(h.counts[1], 1);
        assert_eq!(h.counts[2], 1);
        assert_eq!(*h.counts.last().unwrap(), 1, "overflow bucket");
        assert_eq!(h.counts.len(), h.bounds.len() + 1);
    }

    #[test]
    fn equal_update_multisets_render_identical_json() {
        let a = Registry::new();
        let b = Registry::new();
        for i in 0..100u64 {
            a.add(Metric::LlmResilienceAttempts, 1);
            a.observe(Metric::EngineExecSteps, i * 17);
        }
        // Same multiset, different order.
        for i in (0..100u64).rev() {
            b.observe(Metric::EngineExecSteps, i * 17);
            b.add(Metric::LlmResilienceAttempts, 1);
        }
        let (sa, sb) = (a.snapshot(), b.snapshot());
        assert_eq!(sa, sb);
        assert_eq!(sa.deterministic.to_json(), sb.deterministic.to_json());
    }

    #[test]
    fn volatile_metrics_stay_out_of_the_deterministic_section() {
        let r = Registry::new();
        r.add(Metric::CoreSchedulerChunksClaimed, 5);
        r.add(Metric::CoreSchedulerItems, 5);
        let snap = r.snapshot();
        assert!(!snap.deterministic.counters.contains_key("core.scheduler.chunks_claimed"));
        assert_eq!(snap.volatile.counters["core.scheduler.chunks_claimed"], 5);
        assert_eq!(snap.deterministic.counters["core.scheduler.items"], 5);
    }

    #[test]
    fn assembly_metrics_get_their_own_section() {
        let r = Registry::new();
        r.add(Metric::EnginePlanCacheHit, 3);
        r.add(Metric::CkptCorrupt, 1);
        let snap = r.snapshot();
        assert!(!snap.deterministic.counters.contains_key("engine.plan.cache_hit"));
        assert_eq!(snap.assembly.counters["engine.plan.cache_hit"], 3);
        assert_eq!(snap.assembly.counters["checkpoint.corrupt"], 1);
        // Name lookups still see every section.
        assert_eq!(snap.counter("engine.plan.cache_hit"), 3);
    }

    #[test]
    fn absorb_reproduces_the_source_registry() {
        let src = Registry::new();
        src.add(Metric::EngineExecStatements, 4);
        src.add(Metric::EnginePlanCacheMiss, 2);
        src.observe(Metric::EngineOpScanRows, 3);
        src.observe(Metric::EngineOpScanRows, 1 << 40);
        let dst = Registry::new();
        dst.add(Metric::EngineExecStatements, 1);
        dst.absorb(&src.snapshot());
        let snap = dst.snapshot();
        assert_eq!(snap.counter("engine.exec.statements"), 5);
        assert_eq!(snap.counter("engine.plan.cache_miss"), 2);
        let h = snap.histogram("engine.op.scan.rows").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 3 + (1u64 << 40));
        assert_eq!(*h.counts.last().unwrap(), 1, "overflow bucket absorbed");
    }

    #[test]
    fn section_merge_is_order_insensitive() {
        let mk = |hits: u64, rows: &[u64]| {
            let r = Registry::new();
            r.add(Metric::CoreSchedulerItems, hits);
            for &v in rows {
                r.observe(Metric::EngineOpScanRows, v);
            }
            r.snapshot().deterministic
        };
        let (a, b, c) = (mk(1, &[5]), mk(2, &[9, 70000]), mk(4, &[]));
        let mut left = a.clone();
        left.merge(&b);
        left.merge(&c);
        let mut right = c.clone();
        right.merge(&a);
        right.merge(&b);
        assert_eq!(left.to_json(), right.to_json());
        assert_eq!(left.counters["core.scheduler.items"], 7);
        assert_eq!(left.histograms["engine.op.scan.rows"].count, 3);
    }
}
