//! Tracing acceptance tests: the chaos workload run under full
//! tracing must (a) export a byte-identical Chrome trace for the same
//! seed, and (b) agree exactly with the kernel's aggregate `Counters`
//! — every trace-derived count and cycle total is the same number the
//! counters report, so the §8.5 breakdown reproduced from the trace is
//! exact, not approximate.

use nova_core::RunOutcome;
use nova_guest::diskload::{self, DiskLoadParams};
use nova_hw::fault::{FaultKind, FaultPlan};
use nova_trace::{cat, chrome, query, Kind, Tracer};
use nova_vmm::{LaunchOptions, System, VmmConfig};

const TRACE_SEED: u64 = 0x5eed_c0ff_ee01;

/// The chaos workload of `tests/chaos.rs`, with tracing on: a
/// supervised disk-server stack under a seeded five-kind fault plan.
/// Returns the finished system and a counter snapshot taken at the
/// moment tracing was enabled — boot (`System::build`) runs hypercalls
/// and IPC before the tracer exists, so exact trace-vs-counter
/// comparisons must use the delta from this baseline.
fn traced_chaos_run() -> (System, nova_core::Counters) {
    let p = DiskLoadParams {
        requests: 12,
        block_bytes: 4096,
    };
    let mut opts = LaunchOptions::supervised(VmmConfig::full_virt(diskload::build(p), 2048));
    opts.machine.ram = 128 << 20;
    let mut sys = System::build(opts);
    sys.k.machine.set_fault_plan(
        FaultPlan::seeded(TRACE_SEED)
            .with(FaultKind::AhciTaskFileError, 9000, 3)
            .with(FaultKind::AhciLostIrq, 9000, 3)
            .with(FaultKind::AhciSpuriousIrq, 9000, 3)
            .with(FaultKind::AhciStuckDma, 9000, 2)
            .with(FaultKind::IommuFault, 5000, 2),
    );
    // A generous ring so nothing is dropped and counts stay exact.
    let cpus = sys.k.machine.cpus.len().max(1);
    sys.k.machine.bus.trace = Tracer::new(cpus, 1 << 21, cat::ALL);
    let base = sys.k.counters.snapshot();
    let out = sys.run(Some(60_000_000_000));
    assert_eq!(out, RunOutcome::Shutdown(0), "traced run finishes cleanly");
    assert_eq!(sys.k.machine.tracer().dropped(), 0, "ring never wrapped");
    (sys, base)
}

/// Same seed, same workload: the exported Chrome trace is the same
/// byte string — the determinism contract, end to end through the
/// tracer and the exporter.
#[test]
fn same_seed_exports_byte_identical_trace() {
    let (a, _) = traced_chaos_run();
    let (b, _) = traced_chaos_run();
    let ja = chrome::export(a.k.machine.tracer());
    let jb = chrome::export(b.k.machine.tracer());
    assert!(!a.k.machine.tracer().events().is_empty());
    assert_eq!(ja, jb, "same seed, same trace, byte for byte");
    // Sanity: it is a Chrome trace document with real content.
    assert!(ja.starts_with("{\"displayTimeUnit\":\"ns\",\"traceEvents\":["));
    assert!(ja.ends_with("]}"));
    assert!(ja.contains("\"name\":\"vm_exit\""));
    assert!(ja.contains("\"name\":\"fault_inject\""));
}

/// The trace agrees with `Counters` exactly: event counts per kind
/// and the four §8.5 cycle categories, derived purely from trace
/// events, equal the kernel's own accounting.
#[test]
fn trace_counts_and_cycles_match_counters_exactly() {
    let (sys, base) = traced_chaos_run();
    // Everything the counters accumulated since tracing went live —
    // the exact window the trace covers.
    let c = sys.k.counters.delta(&base);
    let events = sys.k.machine.tracer().events();

    // Exit counts: total and per reason index.
    let exits = query::events_of(&events, Kind::VmExit);
    assert_eq!(exits.len() as u64, c.total_exits());
    let by_reason = query::count_by_detail(&events, Kind::VmExit);
    for (idx, &n) in c.exits.iter().enumerate() {
        assert_eq!(
            by_reason.get(&(idx as u64)).copied().unwrap_or(0),
            n,
            "exit reason {idx}"
        );
    }

    // Event counters.
    assert_eq!(
        query::events_of(&events, Kind::Hypercall).len() as u64,
        c.hypercalls
    );
    assert_eq!(
        query::events_of(&events, Kind::VirqInject).len() as u64,
        c.injected_virq
    );
    assert_eq!(
        query::events_of(&events, Kind::VtlbFill).len() as u64,
        c.vtlb_fills
    );
    // IPC spans: one begin per successful portal entry.
    let ipc_begins = query::events_of(&events, Kind::IpcCall)
        .iter()
        .filter(|e| e.phase == nova_trace::Phase::Begin)
        .count() as u64;
    assert_eq!(ipc_begins, c.ipc_calls);

    // §8.5: the weighted cost events sum to the counters exactly —
    // the trace reproduces the transition/IPC/emulation breakdown
    // with zero error (well within the 1% acceptance bound).
    assert_eq!(
        query::span_cycles(&events, Kind::CostTransition),
        c.cycles_transition
    );
    assert_eq!(query::span_cycles(&events, Kind::CostIpc), c.cycles_ipc);
    assert_eq!(
        query::span_cycles(&events, Kind::CostEmulation),
        c.cycles_emulation
    );
    assert_eq!(
        query::span_cycles(&events, Kind::CostKernel),
        c.cycles_kernel
    );

    // Fault-injection events mirror the injector's own trace.
    let injected: u64 = sys.k.machine.faults().injected.iter().sum();
    assert_eq!(
        query::events_of(&events, Kind::FaultInject).len() as u64,
        injected
    );

    // The per-PD metrics registry agrees with the aggregate counters.
    let m = &sys.k.machine.tracer().metrics;
    assert_eq!(m.total_count("exit_cycles"), c.total_exits());
    assert_eq!(m.total_count("disk_service_cycles"), c.disk_ops);
}

/// Tracing off (the default) records nothing and costs nothing
/// observable: the run's final clock is identical with and without
/// tracing enabled.
#[test]
fn tracing_does_not_perturb_the_simulation() {
    let (traced, _) = traced_chaos_run();
    let untraced = {
        let p = DiskLoadParams {
            requests: 12,
            block_bytes: 4096,
        };
        let mut opts = LaunchOptions::supervised(VmmConfig::full_virt(diskload::build(p), 2048));
        opts.machine.ram = 128 << 20;
        let mut sys = System::build(opts);
        sys.k.machine.set_fault_plan(
            FaultPlan::seeded(TRACE_SEED)
                .with(FaultKind::AhciTaskFileError, 9000, 3)
                .with(FaultKind::AhciLostIrq, 9000, 3)
                .with(FaultKind::AhciSpuriousIrq, 9000, 3)
                .with(FaultKind::AhciStuckDma, 9000, 2)
                .with(FaultKind::IommuFault, 5000, 2),
        );
        let out = sys.run(Some(60_000_000_000));
        assert_eq!(out, RunOutcome::Shutdown(0));
        assert!(sys.k.machine.tracer().events().is_empty(), "off by default");
        sys
    };
    assert_eq!(traced.k.machine.clock, untraced.k.machine.clock);
    assert_eq!(traced.k.machine.marks(), untraced.k.machine.marks());
    assert_eq!(
        traced.k.counters.total_exits(),
        untraced.k.counters.total_exits()
    );
}
