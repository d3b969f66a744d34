//! Causal request tracing: stitches the per-CPU rings into
//! per-request span trees keyed by the 64-bit trace context every
//! event carries, and attributes each request's end-to-end latency to
//! the layer of the stack that was on its critical path.
//!
//! A context is allocated at a request origin (a guest PV doorbell
//! descriptor, a VM exit, a hypercall) and propagated through kernel
//! IPC, PV ring descriptors, VMM backends and the disk server, so the
//! events of one request can be collected with [`by_context`] no
//! matter how many protection domains it crossed.
//!
//! # Critical-path attribution
//!
//! [`request_tree`] walks a context's cycle-ordered events with a
//! span stack and attributes every inter-event gap to the layer
//! ([`Layer`]) of the innermost open span — or, with no span open, to
//! the layer of the next event. Every gap is attributed exactly once,
//! so the per-layer cycle sums add up to the end-to-end span
//! (`last cycle − first cycle`) by construction; tests assert the
//! identity rather than an approximation.

use std::collections::BTreeMap;

use crate::event::{Kind, Phase, TraceEvent, CTX_NONE};
use crate::query;

/// The stack layer an event's cycles are attributed to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Microhypervisor: exits, scheduling, vTLB, world switches.
    Kernel = 0,
    /// Portal IPC and state transfer.
    Ipc = 1,
    /// VMM: emulation, backends, checkpoint/restore.
    Vmm = 2,
    /// User-level drivers (the disk server's request lifecycle).
    Driver = 3,
    /// Physical hardware: IRQs, DMA, controller service time.
    Hw = 4,
}

/// Number of layers.
pub const LAYER_COUNT: usize = 5;

impl Layer {
    /// All layers, in attribution-array order.
    pub const ALL: [Layer; LAYER_COUNT] = [
        Layer::Kernel,
        Layer::Ipc,
        Layer::Vmm,
        Layer::Driver,
        Layer::Hw,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Kernel => "kernel",
            Layer::Ipc => "ipc",
            Layer::Vmm => "vmm",
            Layer::Driver => "driver",
            Layer::Hw => "hw",
        }
    }
}

/// The layer a tracepoint kind belongs to (total over all kinds).
pub fn layer_of(kind: Kind) -> Layer {
    match kind {
        Kind::Hypercall
        | Kind::SchedDispatch
        | Kind::WatchdogFire
        | Kind::PdDeath
        | Kind::VmExit
        | Kind::ExitHandle
        | Kind::CostTransition
        | Kind::CostKernel
        | Kind::VtlbFill
        | Kind::VtlbFlush
        | Kind::VtlbSwitch
        | Kind::GuestPageFault => Layer::Kernel,
        Kind::IpcCall | Kind::CostIpc => Layer::Ipc,
        Kind::VmmEmulate
        | Kind::CostEmulation
        | Kind::VirqInject
        | Kind::FaultInject
        | Kind::Checkpoint
        | Kind::Restore
        | Kind::PvRequest => Layer::Vmm,
        Kind::DiskAccept
        | Kind::DiskIssue
        | Kind::DiskComplete
        | Kind::DiskRetry
        | Kind::DiskTimeout
        | Kind::DiskReset
        | Kind::DiskSpurious
        | Kind::DiskReject
        | Kind::DriverRestart
        | Kind::LogWrite
        | Kind::BadPortal => Layer::Driver,
        Kind::IrqRaise | Kind::IrqDeliver | Kind::DmaStart | Kind::DmaComplete | Kind::HwIo => {
            Layer::Hw
        }
    }
}

/// One node of a request's span tree: a begin/end span (or an instant
/// leaf, where `begin == end`) with its nested children.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanNode {
    /// Tracepoint kind.
    pub kind: Kind,
    /// The kind-specific detail of the opening event.
    pub detail: u64,
    /// Emitting CPU.
    pub cpu: u16,
    /// Emitting protection domain.
    pub pd: u16,
    /// Opening cycle.
    pub begin: u64,
    /// Closing cycle (== `begin` for instants and unclosed spans).
    pub end: u64,
    /// Spans and instants nested inside this one.
    pub children: Vec<SpanNode>,
}

/// A stitched per-request span tree with critical-path attribution.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RequestTree {
    /// The request's trace context.
    pub ctx: u64,
    /// Request class: the kind of the context's first event (what
    /// kind of origin allocated it).
    pub class: Kind,
    /// Cycle of the first event.
    pub first_cycle: u64,
    /// Cycle of the last event.
    pub last_cycle: u64,
    /// Number of events in the context.
    pub events: usize,
    /// Distinct protection domains the request crossed, in order of
    /// first appearance.
    pub pds: Vec<u16>,
    /// Top-level spans/instants.
    pub roots: Vec<SpanNode>,
    /// Critical-path cycles attributed per [`Layer`] (indexed by the
    /// layer discriminant). Sums exactly to
    /// `last_cycle - first_cycle`.
    pub layers: [u64; LAYER_COUNT],
}

impl RequestTree {
    /// End-to-end request latency in cycles.
    pub fn end_to_end(&self) -> u64 {
        self.last_cycle - self.first_cycle
    }
}

/// Groups events by trace context ([`CTX_NONE`] events are not part
/// of any request and are skipped). Input should be cycle-ordered
/// (e.g. [`crate::Tracer::events`]); order is preserved per context.
pub fn by_context(events: &[TraceEvent]) -> BTreeMap<u64, Vec<TraceEvent>> {
    let mut out: BTreeMap<u64, Vec<TraceEvent>> = BTreeMap::new();
    for e in events {
        if e.ctx != CTX_NONE {
            out.entry(e.ctx).or_default().push(*e);
        }
    }
    out
}

fn leaf(e: &TraceEvent) -> SpanNode {
    SpanNode {
        kind: e.kind,
        detail: e.detail,
        cpu: e.cpu,
        pd: e.pd,
        begin: e.cycle,
        end: e.cycle,
        children: Vec::new(),
    }
}

/// Stitches the cycle-ordered events of one context into a span tree
/// with per-layer critical-path attribution. Returns `None` for an
/// empty slice.
pub fn request_tree(ctx: u64, events: &[TraceEvent]) -> Option<RequestTree> {
    let first = events.first()?;
    let last = events.last()?;
    let mut roots: Vec<SpanNode> = Vec::new();
    // Open spans, outermost first. Children accumulate in the node
    // itself; a node is attached to its parent (or the roots) when it
    // closes.
    let mut stack: Vec<SpanNode> = Vec::new();
    let mut layers = [0u64; LAYER_COUNT];
    let mut pds: Vec<u16> = Vec::new();
    let mut prev_cycle = first.cycle;
    for e in events {
        // Attribute the gap since the previous event to the innermost
        // open span's layer; with nothing open, to the event that ends
        // the gap. Each gap is counted exactly once, so the layer sums
        // equal the end-to-end span.
        let gap = e.cycle.saturating_sub(prev_cycle);
        let layer = stack
            .last()
            .map_or_else(|| layer_of(e.kind), |s| layer_of(s.kind));
        layers[layer as usize] += gap;
        prev_cycle = e.cycle;
        if !pds.contains(&e.pd) {
            pds.push(e.pd);
        }
        match e.phase {
            Phase::Begin => stack.push(leaf(e)),
            Phase::End => {
                // Close the innermost open span of this kind. Spans of
                // one request may genuinely overlap across domains (a
                // hardware I/O window opened inside a submission IPC
                // outlives it), so only the matching span is spliced
                // out; spans opened inside it stay open until their
                // own End arrives.
                if let Some(pos) = stack.iter().rposition(|s| s.kind == e.kind) {
                    let mut node = stack.remove(pos);
                    node.end = e.cycle;
                    match pos.checked_sub(1).and_then(|p| stack.get_mut(p)) {
                        Some(parent) => parent.children.push(node),
                        None => roots.push(node),
                    }
                }
            }
            Phase::Instant => match stack.last_mut() {
                Some(parent) => parent.children.push(leaf(e)),
                None => roots.push(leaf(e)),
            },
        }
    }
    // Spans still open at the end of the context close at its last
    // cycle (the request never finished — a crash window, say).
    while let Some(mut node) = stack.pop() {
        node.end = last.cycle;
        match stack.last_mut() {
            Some(parent) => parent.children.push(node),
            None => roots.push(node),
        }
    }
    Some(RequestTree {
        ctx,
        class: first.kind,
        first_cycle: first.cycle,
        last_cycle: last.cycle,
        events: events.len(),
        pds,
        roots,
        layers,
    })
}

/// Every request tree in the trace, in context order.
pub fn request_trees(events: &[TraceEvent]) -> Vec<RequestTree> {
    by_context(events)
        .iter()
        .filter_map(|(ctx, evs)| request_tree(*ctx, evs))
        .collect()
}

/// Latency statistics for one request class.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClassStats {
    /// Requests of this class.
    pub count: u64,
    /// Summed end-to-end latency.
    pub total_cycles: u64,
    /// Nearest-rank latency percentiles (cycles).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

/// End-to-end log2-latency percentiles per request class (the class
/// is the kind of each context's first event).
pub fn latency_by_class(events: &[TraceEvent]) -> BTreeMap<Kind, ClassStats> {
    let mut latencies: BTreeMap<Kind, Vec<u64>> = BTreeMap::new();
    for (_, evs) in by_context(events) {
        if let (Some(first), Some(last)) = (evs.first(), evs.last()) {
            latencies
                .entry(first.kind)
                .or_default()
                .push(last.cycle - first.cycle);
        }
    }
    latencies
        .into_iter()
        .map(|(class, mut v)| {
            v.sort_unstable();
            let stats = ClassStats {
                count: v.len() as u64,
                total_cycles: v.iter().sum(),
                p50: query::percentile(&v, 50),
                p90: query::percentile(&v, 90),
                p99: query::percentile(&v, 99),
            };
            (class, stats)
        })
        .collect()
}

/// Aggregated per-layer critical-path cycles over every request whose
/// tree contains a span of `marker` (e.g. [`Kind::PvRequest`] selects
/// the batched PV disk requests). Returns the layer sums and the
/// number of requests aggregated.
pub fn critical_path_by_layer(events: &[TraceEvent], marker: Kind) -> ([u64; LAYER_COUNT], u64) {
    let mut layers = [0u64; LAYER_COUNT];
    let mut n = 0;
    for tree in request_trees(events) {
        if tree.class != marker && !tree_contains(&tree.roots, marker) {
            continue;
        }
        for (acc, l) in layers.iter_mut().zip(tree.layers.iter()) {
            *acc += l;
        }
        n += 1;
    }
    (layers, n)
}

fn tree_contains(nodes: &[SpanNode], kind: Kind) -> bool {
    nodes
        .iter()
        .any(|n| n.kind == kind || tree_contains(&n.children, kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::cat;
    use crate::Tracer;

    /// A synthetic two-domain request: a PV span in the VMM (pd 2)
    /// wrapping an IPC call, driver work and a hardware I/O window in
    /// the disk server (pd 3).
    fn sample() -> Vec<TraceEvent> {
        let mut t = Tracer::new(1, 64, cat::ALL);
        let ctx = t.alloc_ctx();
        assert_eq!(ctx, 1);
        t.begin(0, 2, Kind::PvRequest, 5, 1000);
        t.begin(0, 2, Kind::IpcCall, 9, 1100);
        t.emit(0, 3, Kind::DiskAccept, 42, 1150);
        t.emit(0, 3, Kind::DiskIssue, 42, 1200);
        t.begin(0, 3, Kind::HwIo, 42, 1200);
        t.end(0, 2, Kind::IpcCall, 9, 1300);
        t.end(0, 3, Kind::HwIo, 42, 2200);
        t.emit(0, 3, Kind::DiskComplete, 0, 2250);
        t.end(0, 2, Kind::PvRequest, 5, 2400);
        t.set_ctx(CTX_NONE);
        t.emit(0, 0, Kind::Hypercall, 0, 2500); // not part of the request
        t.events()
    }

    #[test]
    fn by_context_groups_and_skips_ctx_none() {
        let evs = sample();
        let by = by_context(&evs);
        assert_eq!(by.len(), 1);
        assert_eq!(by.get(&1).map(Vec::len), Some(9));
    }

    #[test]
    fn layer_mapping_is_total() {
        for k in crate::event::ALL_KINDS {
            let _ = layer_of(k); // must not panic, must compile totally
        }
    }

    #[test]
    fn tree_structure_and_attribution_sum() {
        let evs = sample();
        let by = by_context(&evs);
        let tree = request_tree(1, by.get(&1).unwrap()).unwrap();
        assert_eq!(tree.class, Kind::PvRequest);
        assert_eq!(tree.end_to_end(), 1400);
        assert_eq!(tree.pds, vec![2, 3]);
        // Structure: one root span with the IPC call and HwIo nested.
        assert_eq!(tree.roots.len(), 1);
        let root = &tree.roots[0];
        assert_eq!(root.kind, Kind::PvRequest);
        assert_eq!((root.begin, root.end), (1000, 2400));
        let kinds: Vec<Kind> = root.children.iter().map(|c| c.kind).collect();
        assert!(kinds.contains(&Kind::IpcCall));
        assert!(kinds.contains(&Kind::HwIo));
        assert!(kinds.contains(&Kind::DiskComplete));
        // The HwIo span opened inside the IPC call but outlives it, so
        // it re-parents to the enclosing PV request rather than being
        // truncated at the IPC end.
        // Attribution: every layer sum adds up to the end-to-end span.
        let total: u64 = tree.layers.iter().sum();
        assert_eq!(total, tree.end_to_end());
        // The 900-cycle controller window dominates: it accrues to Hw.
        assert!(tree.layers[Layer::Hw as usize] >= 900);
        assert!(tree.layers[Layer::Ipc as usize] > 0);
        assert!(tree.layers[Layer::Vmm as usize] > 0);
    }

    #[test]
    fn unclosed_spans_close_at_the_last_event() {
        let mut t = Tracer::new(1, 16, cat::ALL);
        t.alloc_ctx();
        t.begin(0, 2, Kind::PvRequest, 0, 100);
        t.emit(0, 3, Kind::DiskIssue, 7, 400); // crash: no End ever
        let by = by_context(&t.events());
        let tree = request_tree(1, by.get(&1).unwrap()).unwrap();
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.roots[0].end, 400);
        assert_eq!(tree.layers.iter().sum::<u64>(), 300);
    }

    #[test]
    fn latency_by_class_uses_percentiles() {
        let mut t = Tracer::new(1, 256, cat::ALL);
        for i in 0..10u64 {
            t.alloc_ctx();
            t.begin(0, 2, Kind::PvRequest, i, i * 1000);
            t.end(0, 2, Kind::PvRequest, i, i * 1000 + 100 * (i + 1));
        }
        t.set_ctx(CTX_NONE);
        let stats = latency_by_class(&t.events());
        let s = stats.get(&Kind::PvRequest).unwrap();
        assert_eq!(s.count, 10);
        assert_eq!(s.p50, 500);
        assert_eq!(s.p90, 900);
        assert_eq!(s.p99, 1000);
    }

    #[test]
    fn critical_path_aggregates_marked_requests() {
        let evs = sample();
        let (layers, n) = critical_path_by_layer(&evs, Kind::PvRequest);
        assert_eq!(n, 1);
        assert_eq!(layers.iter().sum::<u64>(), 1400);
        let (_, none) = critical_path_by_layer(&evs, Kind::Checkpoint);
        assert_eq!(none, 0);
    }

    #[test]
    fn same_events_yield_identical_trees() {
        let a = request_trees(&sample());
        let b = request_trees(&sample());
        assert_eq!(a, b);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
