//! Cycle-accurate tracing, metrics and profiling (`nova-trace`).
//!
//! The paper's evaluation (Fig. 5–9, Table 2, Section 8.5) rests on
//! knowing *where cycles go*: per-exit-reason counts and the
//! transition / IPC / emulation cost decomposition. This crate is the
//! observability layer behind that data: a cycle-stamped,
//! allocation-light event trace plus a named metrics registry, with
//! exporters for `chrome://tracing` timelines and machine-readable
//! benchmark JSON.
//!
//! # Architecture
//!
//! - [`TraceEvent`]: a fixed-size record `{ cycle, cpu, pd, kind,
//!   phase, detail }` written into a fixed-capacity per-CPU ring
//!   ([`Tracer`]). Spans are begin/end pairs; cost attribution events
//!   carry their cycle weight in `detail`.
//! - A global category bitmask ([`cat`]) gates every emission, so a
//!   disabled tracer costs a single branch per tracepoint and
//!   allocates nothing.
//! - [`Metrics`]: named per-domain counter and cycle-histogram cells
//!   generalising the kernel's aggregate counters, with
//!   snapshot/delta support for phase attribution.
//! - [`chrome::export`]: renders the trace as Chrome trace-event JSON
//!   (spans become a flamegraph-style timeline, causal contexts become
//!   flow-event arrows).
//! - [`query`]: `events_of` / `span_cycles` / `percentile` over the
//!   recorded events, so tests assert cost
//!   breakdowns instead of eyeballing printed tables.
//! - [`causal`]: stitches events sharing a trace context (a 64-bit id
//!   allocated at each request origin and propagated through IPC, PV
//!   rings and driver queues) into per-request span trees with
//!   critical-path cycle attribution per layer.
//! - [`flight`]: per-PD black-box rings mirroring a domain's last N
//!   events, and the deterministic `NOVADUMP` postmortem a supervisor
//!   serializes when the domain dies.
//!
//! # Determinism contract
//!
//! Every field of every event derives from deterministic simulation
//! state (the global cycle clock, object ids, seeded fault schedules).
//! The same seed over the same workload therefore yields a
//! byte-identical exported trace — the trace doubles as a golden-test
//! artifact and a replayable profile.
//!
//! The crate is dependency-free on purpose: the hardware layer hosts
//! the tracer, and every other layer (kernel, VMM, user components)
//! reaches it through the machine, so it must sit below all of them.

#![forbid(unsafe_code)]

pub mod causal;
pub mod chrome;
pub mod event;
pub mod flight;
pub mod json;
pub mod metrics;
pub mod query;
pub mod ring;

pub use event::{cat, Kind, Phase, TraceEvent, CTX_NONE, PD_NONE};
pub use metrics::{names, Cell, Metrics, HIST_BUCKETS};
pub use ring::Tracer;
