//! Cycle-accurate profiling with `nova-trace`: runs the supervised
//! disk workload under a seeded fault plan with full tracing enabled,
//! exports a Chrome-tracing JSON file, and prints the Section 8.5
//! cost breakdown derived purely from the trace events.
//!
//! ```sh
//! cargo run --release --example trace_profile
//! ```
//!
//! Then open `trace_profile.json` in `chrome://tracing` or
//! <https://ui.perfetto.dev> — one track per protection domain, span
//! events for IPC and exit handling, instants for IRQs, DMA, faults
//! and disk requests, all on the simulated cycle timeline.

use nova::guest::diskload::{self, DiskLoadParams};
use nova::guest::pvdiskload::{self, PvDiskLoadParams};
use nova::hw::fault::{FaultKind, FaultPlan};
use nova::hypervisor::RunOutcome;
use nova::trace::{cat, causal, chrome, names, query, Kind};
use nova::vmm::{LaunchOptions, System, VmmConfig};

fn main() {
    let program = diskload::build(DiskLoadParams {
        requests: 12,
        block_bytes: 4096,
    });
    let mut opts = LaunchOptions::supervised(VmmConfig::full_virt(program, 2048));
    opts.machine.ram = 128 << 20;
    let mut sys = System::build(opts);

    // A seeded fault plan makes the trace interesting: retries,
    // controller resets and IOMMU blocks all show up as events.
    sys.k.machine.set_fault_plan(
        FaultPlan::seeded(0x5eed_c0ff_ee01)
            .with(FaultKind::AhciTaskFileError, 9000, 3)
            .with(FaultKind::AhciLostIrq, 9000, 3)
            .with(FaultKind::AhciSpuriousIrq, 9000, 3)
            .with(FaultKind::AhciStuckDma, 9000, 2)
            .with(FaultKind::IommuFault, 5000, 2),
    );

    // Tracing is off by default (zero cost); switch every category on.
    sys.k.machine.enable_tracing(cat::ALL);

    let outcome = sys.run(Some(60_000_000_000));
    assert_eq!(outcome, RunOutcome::Shutdown(0), "workload completed");

    let tracer = sys.k.machine.tracer();
    let events = tracer.events();
    println!(
        "run complete: {} trace events over {} cycles ({} dropped)",
        events.len(),
        sys.k.machine.clock,
        tracer.dropped()
    );

    // The interpreter's two caches, from the CPU's own counters (the
    // metrics registry below mirrors the second per TLB tag).
    let cpu = &sys.k.machine.cpus[0];
    let (tlb, blocks) = (cpu.tlb.stats, cpu.decode_cache_stats());
    let pct = |hits: u64, misses: u64| 100.0 * hits as f64 / (hits + misses).max(1) as f64;
    println!(
        "TLB hit rate {:.2}% ({} lookups); decoded-block cache hit rate {:.2}% \
         ({} lookups, {} invalidations, {} evictions)",
        pct(tlb.hits, tlb.misses),
        tlb.hits + tlb.misses,
        pct(blocks.hits, blocks.misses),
        blocks.hits + blocks.misses,
        blocks.invalidations,
        blocks.evictions
    );

    // Export for chrome://tracing / Perfetto.
    let json = chrome::export(tracer);
    std::fs::write("trace_profile.json", &json).expect("write trace_profile.json");
    println!("wrote trace_profile.json ({} bytes)", json.len());

    // Section 8.5, reconstructed from the trace alone: the weighted
    // cost events sum to the kernel's cycle accounting exactly.
    let transition = query::span_cycles(&events, Kind::CostTransition);
    let ipc = query::span_cycles(&events, Kind::CostIpc);
    let emulation = query::span_cycles(&events, Kind::CostEmulation);
    let kernel = query::span_cycles(&events, Kind::CostKernel);
    let total = transition + ipc + emulation + kernel;
    let exits = query::events_of(&events, Kind::VmExit).len() as u64;
    println!("\nSection 8.5 breakdown (derived from the trace):");
    for (name, cycles) in [
        ("guest/host transitions", transition),
        ("IPC state transfer", ipc),
        ("VMM emulation", emulation),
        ("hypervisor internal", kernel),
    ] {
        println!(
            "  {name:24} {cycles:>14} cycles  {:>5.1}%",
            100.0 * cycles as f64 / total.max(1) as f64
        );
    }
    println!(
        "  {:24} {:>14} exits  {:>7.0} cycles/exit",
        "total",
        exits,
        total as f64 / exits.max(1) as f64
    );

    // Event census: what happened, how often.
    println!("\nEvent counts:");
    for kind in [
        Kind::Hypercall,
        Kind::VirqInject,
        Kind::IrqDeliver,
        Kind::DmaComplete,
        Kind::FaultInject,
        Kind::DiskIssue,
        Kind::DiskRetry,
        Kind::DiskReset,
        Kind::DriverRestart,
    ] {
        let n = query::events_of(&events, kind).len();
        if n > 0 {
            println!("  {:<16} {n}", format!("{kind:?}"));
        }
    }

    // Per-PD service-time distribution from the metrics registry.
    println!("\nMetrics (name/domain: count, mean):");
    for (name, domain, cell) in tracer.metrics.iter() {
        println!(
            "  {name}/{domain}: count={} mean={:.0}",
            cell.count,
            cell.mean()
        );
    }

    // ---- Causal critical-path breakdown over the batched PV path ----
    //
    // A second run with the paravirtual ring: every descriptor gets a
    // 64-bit trace context at the doorbell, carried through the batch
    // IPC into the disk server and back, so each request reconstructs
    // as one cross-PD span tree with per-layer attribution. The VM runs
    // under root's checkpoint cadence, which costs the requests nothing
    // on this clock and shows what standing ready to recover copies.
    let pv_prog = pvdiskload::build(PvDiskLoadParams {
        requests: 32,
        block_bytes: 4096,
        batch: 8,
    });
    let mut cfg = VmmConfig::full_virt(pv_prog, 4096);
    cfg.pv_disk = true;
    let mut pv = System::build(LaunchOptions::microrebootable(cfg));
    pv.k.machine.enable_tracing(cat::ALL);
    let outcome = pv.run(Some(60_000_000_000));
    assert_eq!(outcome, RunOutcome::Shutdown(0), "PV workload completed");
    let pv_events = pv.k.machine.tracer().events();

    let (layers, n) = causal::critical_path_by_layer(&pv_events, Kind::PvRequest);
    let total: u64 = layers.iter().sum();
    println!("\nCritical path, batched PV disk ({n} requests):");
    for (layer, cycles) in causal::Layer::ALL.iter().zip(layers.iter()) {
        println!(
            "  {:<8} {cycles:>12} cycles  {:>5.1}%",
            layer.name(),
            100.0 * *cycles as f64 / total.max(1) as f64
        );
    }
    println!(
        "  {:<8} {total:>12} cycles  {:>7.0} cycles/request",
        "total",
        total as f64 / n.max(1) as f64
    );

    println!("\nLatency percentiles by request class (cycles):");
    for (class, s) in causal::latency_by_class(&pv_events) {
        println!(
            "  {:<14} n={:<4} p50={:<8} p90={:<8} p99={}",
            format!("{class:?}"),
            s.count,
            s.p50,
            s.p90,
            s.p99
        );
    }

    let slot = pv.microreboot.expect("supervised") as u64;
    let metrics = &pv.k.machine.tracer().metrics;
    if let (Some(bytes), Some(dirty)) = (
        metrics.get(names::CHECKPOINT_BYTES, slot),
        metrics.get(names::CHECKPOINT_DIRTY_PAGES, slot),
    ) {
        println!(
            "\nCheckpoints: {} of {:.0} bytes, refreshed in place; guest pages copied per capture:",
            bytes.count,
            bytes.mean()
        );
        for (bucket, &n) in dirty.hist.iter().enumerate().filter(|&(_, &n)| n > 0) {
            let (lo, hi) = (1u64 << bucket, (2u64 << bucket) - 1);
            println!("  {:>5}..={hi:<5} {n}", if bucket == 0 { 0 } else { lo });
        }
    }

    // Full export: events, cross-PD flow arrows, metric counters.
    let json = chrome::export_full(pv.k.machine.tracer());
    std::fs::write("trace_profile_pv.json", &json).expect("write trace_profile_pv.json");
    println!("\nwrote trace_profile_pv.json ({} bytes)", json.len());
}
