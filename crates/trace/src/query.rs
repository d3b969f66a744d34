//! Trace queries: derive counts, span cycle totals and percentiles
//! from recorded events, so tests and benches assert cost breakdowns
//! instead of eyeballing printed tables. Histograms are the metrics
//! registry's ([`crate::Cell`]).

use std::collections::BTreeMap;

use crate::event::{Kind, Phase, TraceEvent};

/// Events of one kind, in trace order.
pub fn events_of(events: &[TraceEvent], kind: Kind) -> Vec<TraceEvent> {
    events.iter().filter(|e| e.kind == kind).copied().collect()
}

/// Counts events of `kind` grouped by their `detail` field (e.g. VM
/// exits per exit-reason index).
pub fn count_by_detail(events: &[TraceEvent], kind: Kind) -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    for e in events.iter().filter(|e| e.kind == kind) {
        *out.entry(e.detail).or_insert(0) += 1;
    }
    out
}

/// Durations of every completed span of `kind`, in completion order.
/// For weighted cost kinds the `detail` of each instant event *is*
/// the duration; for span kinds, begin/end pairs are matched
/// innermost-first per (cpu, pd).
pub fn span_durations(events: &[TraceEvent], kind: Kind) -> Vec<u64> {
    if kind.weighted() {
        return events
            .iter()
            .filter(|e| e.kind == kind)
            .map(|e| e.detail)
            .collect();
    }
    let mut open: BTreeMap<(u16, u16), Vec<u64>> = BTreeMap::new();
    let mut out = Vec::new();
    for e in events.iter().filter(|e| e.kind == kind) {
        match e.phase {
            Phase::Begin => open.entry((e.cpu, e.pd)).or_default().push(e.cycle),
            Phase::End => {
                if let Some(start) = open.get_mut(&(e.cpu, e.pd)).and_then(|s| s.pop()) {
                    out.push(e.cycle.saturating_sub(start));
                }
            }
            Phase::Instant => {}
        }
    }
    out
}

/// Total cycles spent in spans of `kind` (see [`span_durations`]).
pub fn span_cycles(events: &[TraceEvent], kind: Kind) -> u64 {
    span_durations(events, kind).iter().sum()
}

/// Nearest-rank percentile of `values` (`p` clamped to `0..=100`).
/// An empty slice returns a well-defined 0 instead of panicking —
/// empty-ring queries are a legal question.
pub fn percentile(values: &[u64], p: u32) -> u64 {
    if values.is_empty() {
        return 0;
    }
    let mut v = values.to_vec();
    v.sort_unstable();
    let n = v.len() as u64;
    let rank = (u64::from(p.min(100)) * n).div_ceil(100).max(1);
    v[(rank - 1).min(n - 1) as usize]
}

/// `(p50, p90, p99)` of `values` (see [`percentile`]).
pub fn percentiles(values: &[u64]) -> (u64, u64, u64) {
    (
        percentile(values, 50),
        percentile(values, 90),
        percentile(values, 99),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::cat;
    use crate::Tracer;

    fn sample() -> Vec<TraceEvent> {
        let mut t = Tracer::new(1, 64, cat::ALL);
        t.emit(0, 1, Kind::VmExit, 3, 100);
        t.emit(0, 1, Kind::VmExit, 3, 200);
        t.emit(0, 1, Kind::VmExit, 6, 300);
        t.emit(0, 1, Kind::CostIpc, 600, 310);
        t.emit(0, 1, Kind::CostIpc, 400, 320);
        t.begin(0, 1, Kind::IpcCall, 7, 1000);
        t.begin(0, 1, Kind::IpcCall, 8, 1100); // nested
        t.end(0, 1, Kind::IpcCall, 8, 1150);
        t.end(0, 1, Kind::IpcCall, 7, 1400);
        t.events()
    }

    #[test]
    fn events_of_and_count_by_detail() {
        let evs = sample();
        assert_eq!(events_of(&evs, Kind::VmExit).len(), 3);
        let by = count_by_detail(&evs, Kind::VmExit);
        assert_eq!(by.get(&3), Some(&2));
        assert_eq!(by.get(&6), Some(&1));
    }

    #[test]
    fn weighted_kinds_sum_their_details() {
        let evs = sample();
        assert_eq!(span_cycles(&evs, Kind::CostIpc), 1000);
    }

    #[test]
    fn nested_spans_match_innermost_first() {
        let evs = sample();
        assert_eq!(span_durations(&evs, Kind::IpcCall), vec![50, 400]);
        assert_eq!(span_cycles(&evs, Kind::IpcCall), 450);
    }

    #[test]
    fn empty_ring_queries_return_defined_zeros() {
        let evs: Vec<TraceEvent> = Vec::new();
        assert!(events_of(&evs, Kind::VmExit).is_empty());
        assert!(count_by_detail(&evs, Kind::VmExit).is_empty());
        assert!(span_durations(&evs, Kind::IpcCall).is_empty());
        assert_eq!(span_cycles(&evs, Kind::IpcCall), 0);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentiles(&[]), (0, 0, 0));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 90), 90);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
        assert_eq!(percentile(&v, 0), 1, "p0 is the minimum");
        assert_eq!(percentile(&[7], 50), 7, "singleton");
        assert_eq!(percentiles(&[3, 1, 2]), (2, 3, 3), "unsorted input");
    }
}
