//! Recovery microbenchmark: the cost of a VMM microreboot. Runs the
//! batched PV disk workload under root's supervision tree, kills the
//! VMM mid-flight, and reports what the recovery cost — restore
//! latency in cycles, checkpoint size in bytes, and the VM exits spent
//! between the crash and the completed restore — alongside the
//! steady-state checkpoint cadence overhead: how many guest pages the
//! captures copied (`checkpoint_pages_copied`) of the pages a full copy
//! per tick would have (`checkpoint_pages_total`), and the mean and
//! largest number a capture copied when it had an image to refresh
//! (`dirty_pages_per_checkpoint_*`; the first capture builds its image
//! from zeros — it copies every frame written since the machine was
//! built — and is left out of those two; the one after the restore is
//! not: the restore wrote back only the frames that had moved and left
//! the generation table describing them).
//! Deterministic: the same build produces the same JSON byte for byte.

use nova_bench::report::{banner, fmt_count, write_json, Table};
use nova_core::kernel::VMM_CRASH_CODE;
use nova_core::RunOutcome;
use nova_guest::pvdiskload::{self, PvDiskLoadParams};
use nova_trace::json::Json;
use nova_trace::{cat, names, Tracer};
use nova_user::root::RootPm;
use nova_vmm::{LaunchOptions, System, Vmm, VmmConfig};

const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
const BUDGET: u64 = 200_000_000_000;
const REQUESTS: u32 = 32;
const BATCH: u32 = 8;
const CKPT_PERIOD: u64 = 500_000;
const GUEST_PAGES: u64 = 4096;
/// Run slice: shorter than the cadence, so at most one checkpoint
/// lands in each and its page count can be read off the counter.
const SLICE: u64 = 100_000;

fn system() -> System {
    let prog = pvdiskload::build(PvDiskLoadParams {
        requests: REQUESTS,
        block_bytes: 4096,
        batch: BATCH,
    });
    let mut cfg = VmmConfig::full_virt(prog, GUEST_PAGES);
    cfg.pv_disk = true;
    let mut opts = LaunchOptions::microrebootable(cfg);
    opts.microreboot = Some(CKPT_PERIOD);
    let mut sys = System::build(opts);
    let cpus = sys.k.machine.cpus.len().max(1);
    sys.k.machine.bus.trace = Tracer::new(cpus, 1 << 21, cat::ALL);
    sys
}

/// Supervision-record field reads for the measured VM.
fn with_sup<R>(sys: &mut System, f: impl FnOnce(&nova_user::root::VmmSupervision) -> R) -> R {
    let root = sys.root;
    let slot = sys.microreboot.expect("microreboot enabled");
    let rp = sys.k.component_mut::<RootPm>(root).expect("root pm");
    f(rp.vmm_supervision[slot].as_ref().expect("supervised vm"))
}

fn pv_completions(sys: &mut System) -> u64 {
    let (vmm, _) = sys.microreboot_vmm().expect("supervised vmm");
    sys.k
        .component_mut::<Vmm>(vmm)
        .map(|v| v.dev().pvdisk.completions)
        .unwrap_or(0)
}

/// Runs one slice; if a checkpoint was taken in it, logs the pages it
/// copied.
fn run_slice(sys: &mut System, pages_per_capture: &mut Vec<u64>) -> RunOutcome {
    let (taken, copied) = (
        sys.k.counters.checkpoints_taken,
        sys.k.counters.checkpoint_pages_copied,
    );
    let out = sys.run(Some(SLICE));
    match sys.k.counters.checkpoints_taken - taken {
        0 => {}
        1 => pages_per_capture.push(sys.k.counters.checkpoint_pages_copied - copied),
        n => panic!("{n} checkpoints in one slice"),
    }
    out
}

fn run_until(
    sys: &mut System,
    pages_per_capture: &mut Vec<u64>,
    mut done: impl FnMut(&mut System) -> bool,
) {
    loop {
        let out = run_slice(sys, pages_per_capture);
        assert_ne!(out, RunOutcome::Shutdown(0), "guest finished prematurely");
        if done(sys) {
            return;
        }
    }
}

struct Recovery {
    restore_latency_cycles: u64,
    checkpoint_bytes: u64,
    checkpoints_taken: u64,
    exits_during_recovery: u64,
    total_cycles: u64,
    crash_free_cycles: u64,
    pages_copied: u64,
    /// Pages copied by each capture that refreshed an existing image.
    refreshes: Vec<u64>,
}

fn measure() -> Recovery {
    // Crash-free baseline for the end-to-end slowdown column.
    let mut base = system();
    assert_eq!(base.run(Some(BUDGET)), RunOutcome::Shutdown(0));
    let crash_free_cycles = base.k.now();

    let mut sys = system();
    let mut captures = Vec::new();
    run_until(&mut sys, &mut captures, |s| {
        pv_completions(s) >= 8 && with_sup(s, |sup| sup.last_checkpoint.is_some())
    });
    let exits_at_crash = sys.k.counters.total_exits();
    let (_, vmm_pd) = sys.microreboot_vmm().expect("supervised vmm");
    sys.k.pd_fault(vmm_pd, VMM_CRASH_CODE);
    run_until(&mut sys, &mut captures, |s| {
        with_sup(s, |sup| sup.restarts == 1)
    });
    let exits_during_recovery = sys.k.counters.total_exits() - exits_at_crash;

    while run_slice(&mut sys, &mut captures) != RunOutcome::Shutdown(0) {
        assert!(sys.k.now() < BUDGET, "guest never finished");
    }
    assert_eq!(sys.k.counters.vmm_restarts, 1);
    assert_eq!(captures.len() as u64, sys.k.counters.checkpoints_taken);
    assert_eq!(
        captures.iter().sum::<u64>(),
        sys.k.counters.checkpoint_pages_copied
    );

    let slot = sys.microreboot.expect("slot") as u64;
    let m = &sys.k.machine.bus.trace.metrics;
    let lat = m.get(names::RESTORE_LATENCY_CYCLES, slot).expect("metric");
    let ckpt = m.get(names::CHECKPOINT_BYTES, slot).expect("metric");
    Recovery {
        restore_latency_cycles: lat.sum,
        checkpoint_bytes: ckpt.sum / ckpt.count,
        checkpoints_taken: sys.k.counters.checkpoints_taken,
        exits_during_recovery,
        total_cycles: sys.k.now(),
        crash_free_cycles,
        pages_copied: sys.k.counters.checkpoint_pages_copied,
        refreshes: captures.into_iter().skip(1).collect(),
    }
}

fn main() {
    banner("Recovery: VMM microreboot latency and checkpoint cost");
    let r = measure();
    let pages_total = r.checkpoints_taken * GUEST_PAGES;
    let dirty_mean = r.refreshes.iter().sum::<u64>() as f64 / r.refreshes.len().max(1) as f64;
    let dirty_max = r.refreshes.iter().copied().max().unwrap_or(0);

    let mut t = Table::new(&["metric", "value"]);
    t.row(vec![
        "restore latency (cycles)".into(),
        fmt_count(r.restore_latency_cycles),
    ]);
    t.row(vec![
        "checkpoint size (bytes)".into(),
        fmt_count(r.checkpoint_bytes),
    ]);
    t.row(vec![
        "checkpoints taken".into(),
        fmt_count(r.checkpoints_taken),
    ]);
    t.row(vec![
        "guest pages copied / a full copy per tick".into(),
        format!("{} / {}", fmt_count(r.pages_copied), fmt_count(pages_total)),
    ]);
    t.row(vec![
        "dirty pages per refresh (mean / max)".into(),
        format!("{dirty_mean:.2} / {dirty_max}"),
    ]);
    t.row(vec![
        "exits during recovery".into(),
        fmt_count(r.exits_during_recovery),
    ]);
    t.row(vec![
        "crashed run (cycles)".into(),
        fmt_count(r.total_cycles),
    ]);
    t.row(vec![
        "crash-free run (cycles)".into(),
        fmt_count(r.crash_free_cycles),
    ]);
    t.print();

    let path = write_json(
        REPO_ROOT,
        "recovery",
        vec![
            ("requests".into(), Json::U64(REQUESTS as u64)),
            ("ckpt_period_cycles".into(), Json::U64(CKPT_PERIOD)),
            (
                "restore_latency_cycles".into(),
                Json::U64(r.restore_latency_cycles),
            ),
            ("checkpoint_bytes".into(), Json::U64(r.checkpoint_bytes)),
            ("checkpoints_taken".into(), Json::U64(r.checkpoints_taken)),
            (
                "exits_during_recovery".into(),
                Json::U64(r.exits_during_recovery),
            ),
            ("crashed_run_cycles".into(), Json::U64(r.total_cycles)),
            ("crash_free_cycles".into(), Json::U64(r.crash_free_cycles)),
            ("checkpoint_pages_copied".into(), Json::U64(r.pages_copied)),
            ("checkpoint_pages_total".into(), Json::U64(pages_total)),
            (
                "dirty_pages_per_checkpoint_mean".into(),
                Json::F64(dirty_mean),
            ),
            (
                "dirty_pages_per_checkpoint_max".into(),
                Json::U64(dirty_max),
            ),
        ],
    );
    println!("wrote {path}");
}
