//! The metrics registry: named per-domain counter + cycle-histogram
//! cells, generalising the kernel's aggregate `Counters` to per-PD /
//! per-VM attribution with snapshot/delta support.

use std::collections::BTreeMap;

/// Histogram buckets: bucket `i` counts values with
/// `floor(log2(value)) == i` (bucket 0 also holds zero).
pub const HIST_BUCKETS: usize = 32;

/// Well-known metric names recorded across the stack, collected here
/// so producers, exporters and test assertions agree on spelling.
pub mod names {
    /// Cycles from issue to completion per disk request, observed by
    /// the disk server.
    pub const DISK_SERVICE_CYCLES: &str = "disk_service_cycles";
    /// Requests accepted per batched disk submission, observed by the
    /// disk server on every batch-portal call.
    pub const DISK_BATCH_SIZE: &str = "disk_batch_size";
    /// Descriptors per paravirtual doorbell ring, observed by the VMM
    /// when the guest rings the batch doorbell.
    pub const PV_BATCH_SIZE: &str = "pv_batch_size";
    /// Paravirtual doorbell exits taken (count metric).
    pub const PV_DOORBELLS: &str = "pv_doorbells";
    /// Coalesced completion interrupts the paravirtual backend
    /// injected (count metric).
    pub const PV_COMPLETION_IRQS: &str = "pv_completion_irqs";
    /// TLB fill walks performed for a guest (count metric) — the
    /// successor of the old `tlb-debug` stderr scaffolding.
    pub const TLB_FILLS: &str = "tlb_fills";
    /// Predecoded-block cache lookups served from the cache (count
    /// metric; domain = TLB tag, like `TLB_FILLS`). With the three
    /// below, a mirror of `nova_hw::blockcache::DecodeCacheStats`.
    pub const DECODE_CACHE_HITS: &str = "decode_cache_hits";
    /// Predecoded-block cache lookups that had to decode.
    pub const DECODE_CACHE_MISSES: &str = "decode_cache_misses";
    /// Cached blocks dropped because their frame was written.
    pub const DECODE_CACHE_INVALIDATIONS: &str = "decode_cache_invalidations";
    /// Cached blocks displaced by a block of another address.
    pub const DECODE_CACHE_EVICTIONS: &str = "decode_cache_evictions";
    /// Malformed guest inputs rejected by a validator without killing
    /// the VM (count metric; domain = guest surface discriminant).
    pub const GUEST_FAULT_REJECTED: &str = "guest_fault_rejected";
    /// Structured VM kills (count metric; domain = the kill's 8-bit
    /// exit code, so per-reason rates are separable).
    pub const VM_KILLS_BY_REASON: &str = "vm_kills_by_reason";
    /// VMM incarnations started by the supervisor beyond the first
    /// (count metric; domain = supervised VM index).
    pub const VMM_RESTARTS: &str = "vmm_restarts";
    /// Serialized checkpoint size in bytes, observed on every capture
    /// (domain = supervised VM index).
    pub const CHECKPOINT_BYTES: &str = "checkpoint_bytes";
    /// Guest pages a capture had to copy — those written since the
    /// previous capture — observed beside `CHECKPOINT_BYTES` (domain =
    /// supervised VM index).
    pub const CHECKPOINT_DIRTY_PAGES: &str = "checkpoint_dirty_pages";
    /// Cycles from crash detection to guest resume, observed per
    /// restore (domain = supervised VM index).
    pub const RESTORE_LATENCY_CYCLES: &str = "restore_latency_cycles";
    /// Escalation-ladder transitions (count metric; domain = the
    /// ladder level entered: 1 = cold reboot, 2 = marked failed).
    pub const ESCALATIONS_BY_LEVEL: &str = "escalations_by_level";
}

/// One metric cell: an event count, a cycle (or value) sum, and a
/// log2 histogram of observed values.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Cell {
    /// Number of recorded observations / counted events.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// log2-bucketed distribution of observed values.
    pub hist: [u64; HIST_BUCKETS],
}

impl Cell {
    /// Mean observed value.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn bucket(value: u64) -> usize {
        (63 - value.max(1).leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }

    fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum += value;
        self.hist[Cell::bucket(value)] += 1;
    }

    fn sub(&self, earlier: &Cell) -> Cell {
        let mut hist = [0u64; HIST_BUCKETS];
        for (i, h) in hist.iter_mut().enumerate() {
            *h = self.hist[i].saturating_sub(earlier.hist[i]);
        }
        Cell {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            hist,
        }
    }
}

/// Named metric cells keyed by `(name, domain)`. The key order (a
/// B-tree over static names and numeric domains) makes iteration —
/// and therefore every export — deterministic.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Metrics {
    cells: BTreeMap<(&'static str, u64), Cell>,
}

impl Metrics {
    /// An empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Adds `n` to the counter `name` for `domain` (a PD or VM id;
    /// use `u64::MAX` for "global").
    pub fn add(&mut self, name: &'static str, domain: u64, n: u64) {
        let c = self.cells.entry((name, domain)).or_default();
        c.count += n;
        c.sum += n;
    }

    /// Records one observation of `value` (typically cycles) under
    /// `name` for `domain`: bumps the count, the sum, and the log2
    /// histogram bucket.
    pub fn observe(&mut self, name: &'static str, domain: u64, value: u64) {
        self.cells.entry((name, domain)).or_default().observe(value);
    }

    /// The cell for `(name, domain)`, if anything was recorded.
    pub fn get(&self, name: &'static str, domain: u64) -> Option<&Cell> {
        self.cells.get(&(name, domain))
    }

    /// Sum of `count` across all domains of `name`.
    pub fn total_count(&self, name: &str) -> u64 {
        self.of(name).map(|(_, c)| c.count).sum()
    }

    /// Sum of `sum` across all domains of `name`.
    pub fn total_sum(&self, name: &str) -> u64 {
        self.of(name).map(|(_, c)| c.sum).sum()
    }

    /// All `(domain, cell)` pairs of one metric, in domain order.
    pub fn of<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (u64, &'a Cell)> + 'a {
        self.cells
            .iter()
            .filter(move |((n, _), _)| *n == name)
            .map(|((_, d), c)| (*d, c))
    }

    /// All cells, in deterministic key order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64, &Cell)> {
        self.cells.iter().map(|((n, d), c)| (*n, *d, c))
    }

    /// A point-in-time copy, for later [`Metrics::delta`].
    pub fn snapshot(&self) -> Metrics {
        self.clone()
    }

    /// What changed since `earlier`: every cell minus its earlier
    /// value (cells absent earlier are returned whole). The result
    /// attributes counts and cycles to the phase between the two
    /// snapshots.
    pub fn delta(&self, earlier: &Metrics) -> Metrics {
        let mut out = Metrics::new();
        for (key, cell) in &self.cells {
            let d = match earlier.cells.get(key) {
                Some(e) => cell.sub(e),
                None => cell.clone(),
            };
            if d.count != 0 || d.sum != 0 {
                out.cells.insert(*key, d);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_per_domain() {
        let mut m = Metrics::new();
        m.add("exits", 1, 3);
        m.add("exits", 1, 2);
        m.add("exits", 2, 7);
        assert_eq!(m.get("exits", 1).unwrap().count, 5);
        assert_eq!(m.total_count("exits"), 12);
    }

    #[test]
    fn observe_fills_log2_buckets() {
        let mut m = Metrics::new();
        for v in [0, 1, 2, 3, 4, 1000, 4096] {
            m.observe("lat", 0, v);
        }
        let c = m.get("lat", 0).unwrap();
        assert_eq!(c.count, 7);
        assert_eq!(c.hist[0], 2, "0 and 1 share bucket 0");
        assert_eq!(c.hist[1], 2, "2 and 3");
        assert_eq!(c.hist[2], 1, "4");
        assert_eq!(c.hist[9], 1, "1000");
        assert_eq!(c.hist[12], 1, "4096");
        assert_eq!(c.sum, 5106);
    }

    #[test]
    fn snapshot_delta_attributes_a_phase() {
        let mut m = Metrics::new();
        m.observe("lat", 0, 100);
        m.add("ops", 3, 1);
        let snap = m.snapshot();
        m.observe("lat", 0, 200);
        m.observe("lat", 1, 50);
        let d = m.delta(&snap);
        assert_eq!(d.get("lat", 0).unwrap().count, 1);
        assert_eq!(d.get("lat", 0).unwrap().sum, 200);
        assert_eq!(d.get("lat", 1).unwrap().sum, 50);
        assert!(d.get("ops", 3).is_none(), "unchanged cells drop out");
    }

    #[test]
    fn iteration_order_is_deterministic() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        for (n, d) in [("z", 1), ("a", 9), ("m", 0), ("a", 1)] {
            a.add(n, d, 1);
        }
        for (n, d) in [("a", 1), ("m", 0), ("a", 9), ("z", 1)] {
            b.add(n, d, 1);
        }
        let ka: Vec<_> = a.iter().map(|(n, d, _)| (n, d)).collect();
        let kb: Vec<_> = b.iter().map(|(n, d, _)| (n, d)).collect();
        assert_eq!(ka, kb);
    }
}
