//! The tracer: fixed-capacity per-CPU event rings behind a category
//! bitmask, a causal trace-context register, and per-PD flight
//! recorders.

use std::collections::BTreeMap;

use crate::event::{Kind, Phase, TraceEvent, CTX_NONE};
use crate::flight::FlightRing;
use crate::metrics::Metrics;

/// Default ring capacity per CPU (events). At ~40 bytes per event
/// this is a few megabytes per CPU — enough for the benchmark
/// workloads without wrapping.
pub const DEFAULT_CAPACITY: usize = 1 << 18;

/// One CPU's fixed-capacity ring. When full, the oldest event is
/// overwritten (and counted), so a long run keeps its most recent
/// window rather than aborting.
struct Ring {
    buf: Vec<TraceEvent>,
    cap: usize,
    /// Next write position.
    next: usize,
    /// Events overwritten after the ring wrapped.
    overwritten: u64,
}

impl Ring {
    fn new(cap: usize) -> Ring {
        Ring {
            buf: Vec::new(),
            cap: cap.max(1),
            next: 0,
            overwritten: 0,
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.overwritten += 1;
        }
        self.next = (self.next + 1) % self.cap;
    }

    /// Events in emission order.
    fn ordered(&self) -> impl Iterator<Item = &TraceEvent> {
        let split = if self.buf.len() < self.cap {
            0
        } else {
            self.next
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }
}

/// The tracer: an enable mask, per-CPU rings, and the metrics
/// registry. Lives on the simulated machine so every layer (devices,
/// kernel, VMM, user components) can reach it.
pub struct Tracer {
    mask: u64,
    rings: Vec<Ring>,
    /// Current causal trace context, stamped into every event.
    cur_ctx: u64,
    /// Next context id [`Tracer::alloc_ctx`] hands out. Starts at 1
    /// (0 is [`CTX_NONE`]) and only ever increments, so ids are unique
    /// for the life of the machine and deterministic per seed.
    next_ctx: u64,
    /// Per-PD flight recorders mirroring that domain's recorded
    /// events (the crash black box).
    flight: BTreeMap<u16, FlightRing>,
    /// Named per-domain counters and cycle histograms.
    pub metrics: Metrics,
}

impl Tracer {
    /// A disabled tracer: the mask is zero, nothing is allocated, and
    /// every tracepoint reduces to one branch. This is every
    /// machine's default.
    pub fn off() -> Tracer {
        Tracer {
            mask: 0,
            rings: Vec::new(),
            cur_ctx: CTX_NONE,
            next_ctx: 1,
            flight: BTreeMap::new(),
            metrics: Metrics::new(),
        }
    }

    /// An enabled tracer with `cpus` rings of `capacity` events each,
    /// recording the categories in `mask` (see [`crate::cat`]).
    pub fn new(cpus: usize, capacity: usize, mask: u64) -> Tracer {
        Tracer {
            mask,
            rings: (0..cpus.max(1)).map(|_| Ring::new(capacity)).collect(),
            cur_ctx: CTX_NONE,
            next_ctx: 1,
            flight: BTreeMap::new(),
            metrics: Metrics::new(),
        }
    }

    /// Carries the causal state (context register, allocator position,
    /// flight-recorder registrations and contents) over from a
    /// previous tracer. Used when re-tuning the mask or capacity
    /// mid-run so context ids stay unique and black boxes survive.
    pub fn carry_over(&mut self, old: &Tracer) {
        self.cur_ctx = old.cur_ctx;
        self.next_ctx = old.next_ctx;
        self.flight = old.flight.clone();
    }

    /// Allocates a fresh trace context at a request origin and makes
    /// it current. Context allocation is always on — it never touches
    /// the cycle clock and costs one increment — so ids are identical
    /// whether or not any category is being recorded.
    #[inline]
    pub fn alloc_ctx(&mut self) -> u64 {
        let id = self.next_ctx;
        self.next_ctx += 1;
        self.cur_ctx = id;
        id
    }

    /// Sets the current trace context (restoring a request's context
    /// on an async completion path, or [`CTX_NONE`] to leave it).
    #[inline]
    pub fn set_ctx(&mut self, ctx: u64) {
        self.cur_ctx = ctx;
    }

    /// The current trace context.
    #[inline]
    pub fn current_ctx(&self) -> u64 {
        self.cur_ctx
    }

    /// Registers (or resets) a flight recorder for `pd`: a fixed-size
    /// black-box ring mirroring the domain's last `capacity` recorded
    /// events, readable after the domain dies.
    pub fn enable_flight(&mut self, pd: u16, capacity: usize) {
        self.flight.insert(pd, FlightRing::new(capacity));
    }

    /// The flight-recorder tail of `pd` (oldest first), empty if no
    /// recorder is registered.
    pub fn flight_tail(&self, pd: u16) -> Vec<TraceEvent> {
        self.flight
            .get(&pd)
            .map(FlightRing::tail)
            .unwrap_or_default()
    }

    /// `true` if any category in `category_mask` is enabled.
    #[inline]
    pub fn on(&self, category_mask: u64) -> bool {
        self.mask & category_mask != 0
    }

    /// `true` if the tracer records anything at all.
    #[inline]
    pub fn active(&self) -> bool {
        self.mask != 0
    }

    /// The enable mask.
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// The tracing-off test, inlined into every tracepoint: with the
    /// mask zero a caller pays this load and branch and marshals no
    /// arguments; everything else lives in [`Tracer::record`].
    #[inline(always)]
    fn push(&mut self, cpu: u16, pd: u16, kind: Kind, phase: Phase, detail: u64, cycle: u64) {
        if self.mask == 0 {
            return;
        }
        self.record(cpu, pd, kind, phase, detail, cycle);
    }

    /// Category filter, ring write and flight mirror. Out of line and
    /// cold so the code of a traced run stays out of the callers'
    /// untraced path.
    #[cold]
    #[inline(never)]
    fn record(&mut self, cpu: u16, pd: u16, kind: Kind, phase: Phase, detail: u64, cycle: u64) {
        if self.mask & kind.category() == 0 || self.rings.is_empty() {
            return;
        }
        let ev = TraceEvent {
            cycle,
            cpu,
            pd,
            kind,
            phase,
            detail,
            ctx: self.cur_ctx,
        };
        let ring = (cpu as usize).min(self.rings.len() - 1);
        self.rings[ring].push(ev);
        if let Some(f) = self.flight.get_mut(&pd) {
            f.push(ev);
        }
    }

    /// Records an instant event.
    #[inline]
    pub fn emit(&mut self, cpu: u16, pd: u16, kind: Kind, detail: u64, cycle: u64) {
        self.push(cpu, pd, kind, Phase::Instant, detail, cycle);
    }

    /// Opens a span.
    #[inline]
    pub fn begin(&mut self, cpu: u16, pd: u16, kind: Kind, detail: u64, cycle: u64) {
        self.push(cpu, pd, kind, Phase::Begin, detail, cycle);
    }

    /// Closes the innermost open span of `kind` on (cpu, pd).
    #[inline]
    pub fn end(&mut self, cpu: u16, pd: u16, kind: Kind, detail: u64, cycle: u64) {
        self.push(cpu, pd, kind, Phase::End, detail, cycle);
    }

    /// All recorded events, merged across CPUs and stably ordered by
    /// cycle (ties keep per-ring emission order, lower CPUs first).
    /// The order is deterministic, which makes exported traces
    /// byte-comparable.
    pub fn events(&self) -> Vec<TraceEvent> {
        let mut out: Vec<TraceEvent> = self
            .rings
            .iter()
            .flat_map(|r| r.ordered().copied())
            .collect();
        out.sort_by_key(|e| e.cycle);
        out
    }

    /// Events overwritten after a ring wrapped. Non-zero means the
    /// capacity was too small for the full run and queries see only
    /// the most recent window.
    pub fn dropped(&self) -> u64 {
        self.rings.iter().map(|r| r.overwritten).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::cat;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::off();
        t.emit(0, 0, Kind::VmExit, 1, 10);
        assert!(t.events().is_empty());
        assert!(!t.active());
    }

    #[test]
    fn mask_filters_categories() {
        let mut t = Tracer::new(1, 16, cat::EXIT);
        t.emit(0, 0, Kind::VmExit, 1, 10); // EXIT: kept
        t.emit(0, 0, Kind::IrqDeliver, 2, 11); // IRQ: filtered
        let evs = t.events();
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, Kind::VmExit);
    }

    #[test]
    fn filtered_category_touches_neither_ring_nor_flight_recorder() {
        let mut t = Tracer::new(1, 16, cat::EXIT);
        t.enable_flight(3, 4);
        t.emit(0, 3, Kind::IrqDeliver, 1, 10);
        t.begin(0, 3, Kind::IpcCall, 2, 11);
        t.end(0, 3, Kind::IpcCall, 2, 12);
        assert!(t.events().is_empty());
        assert!(
            t.flight_tail(3).is_empty(),
            "the black box mirrors records only"
        );
        t.emit(0, 3, Kind::VmExit, 3, 13);
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.flight_tail(3).len(), 1);
    }

    #[test]
    fn off_has_no_rings_and_never_indexes_them() {
        let mut t = Tracer::off();
        t.enable_flight(0, 4);
        for kind in [Kind::VmExit, Kind::IpcCall, Kind::DiskIssue, Kind::HwIo] {
            t.emit(9, 0, kind, 0, 1);
            t.begin(9, 0, kind, 0, 2);
            t.end(9, 0, kind, 0, 3);
        }
        assert!(t.rings.is_empty() && t.events().is_empty() && t.dropped() == 0);
        assert!(t.flight_tail(0).is_empty());
        // The record path keeps its own guard: even with a category
        // forced on, a tracer without rings records nothing.
        t.mask = cat::ALL;
        t.emit(9, 0, Kind::VmExit, 0, 4);
        assert!(t.events().is_empty() && t.flight_tail(0).is_empty());
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut t = Tracer::new(1, 4, cat::ALL);
        for i in 0..10u64 {
            t.emit(0, 0, Kind::Hypercall, i, i);
        }
        let evs = t.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(
            evs.iter().map(|e| e.detail).collect::<Vec<_>>(),
            vec![6, 7, 8, 9],
            "the most recent window survives"
        );
        assert_eq!(t.dropped(), 6);
    }

    #[test]
    fn context_register_stamps_events() {
        let mut t = Tracer::new(1, 16, cat::ALL);
        t.emit(0, 1, Kind::Hypercall, 0, 10);
        let c = t.alloc_ctx();
        assert_eq!(c, 1, "ids start at 1");
        t.emit(0, 1, Kind::DiskIssue, 0, 20);
        t.set_ctx(CTX_NONE);
        t.emit(0, 1, Kind::DiskComplete, 0, 30);
        let evs = t.events();
        assert_eq!(evs[0].ctx, CTX_NONE);
        assert_eq!(evs[1].ctx, c);
        assert_eq!(evs[2].ctx, CTX_NONE);
    }

    #[test]
    fn alloc_ctx_is_always_on_and_deterministic() {
        let mut off = Tracer::off();
        let mut on = Tracer::new(1, 16, cat::ALL);
        for _ in 0..5 {
            assert_eq!(off.alloc_ctx(), on.alloc_ctx());
        }
        assert_eq!(off.current_ctx(), 5);
    }

    #[test]
    fn flight_mirror_keeps_a_domains_tail() {
        let mut t = Tracer::new(1, 64, cat::ALL);
        t.enable_flight(7, 3);
        for i in 0..5u64 {
            t.emit(0, 7, Kind::VmExit, i, i * 10);
            t.emit(0, 8, Kind::VmExit, i, i * 10 + 1); // other pd: not mirrored
        }
        let tail = t.flight_tail(7);
        assert_eq!(tail.len(), 3, "fixed capacity keeps the last N");
        assert_eq!(
            tail.iter().map(|e| e.detail).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        assert!(t.flight_tail(8).is_empty(), "unregistered pd");
        // carry_over preserves the black box and the allocator.
        t.alloc_ctx();
        let mut fresh = Tracer::new(1, 16, cat::ALL);
        fresh.carry_over(&t);
        assert_eq!(fresh.flight_tail(7).len(), 3);
        assert_eq!(fresh.alloc_ctx(), 2);
    }

    #[test]
    fn merge_is_cycle_ordered_and_stable() {
        let mut t = Tracer::new(2, 16, cat::ALL);
        t.emit(1, 0, Kind::VmExit, 0, 5);
        t.emit(0, 0, Kind::Hypercall, 1, 5);
        t.emit(0, 0, Kind::Hypercall, 2, 3);
        let evs = t.events();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].cycle, 3);
        // Tie at cycle 5: CPU 0 sorts before CPU 1.
        assert_eq!(evs[1].cpu, 0);
        assert_eq!(evs[2].cpu, 1);
    }
}
