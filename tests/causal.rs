//! Cross-PD causal request tracing acceptance tests: a batched PV
//! disk request reconstructs as one complete guest→VMM→disk-server
//! span tree whose per-layer critical-path attribution sums exactly to
//! the end-to-end latency; span trees are byte-identical across
//! same-seed runs; a trace context survives a VMM microreboot (the
//! resubmitted request completes under its original id); context
//! allocation never perturbs the simulation; and a VMM kill produces a
//! deterministic flight-recorder postmortem.

use nova_core::kernel::VMM_CRASH_CODE;
use nova_core::RunOutcome;
use nova_guest::pvdiskload::{self, PvDiskLoadParams};
use nova_trace::{cat, causal, chrome, flight, Kind, Tracer};
use nova_user::root::RootPm;
use nova_vmm::{LaunchOptions, System, Vmm, VmmConfig};

const BLOCK: u32 = 4096;
const BATCH: u32 = 8;
const REQUESTS: u32 = 32;
const BUDGET: u64 = 200_000_000_000;
/// Tight checkpoint cadence so a checkpoint exists well before the
/// workload finishes.
const CKPT_PERIOD: u64 = 500_000;

fn pv_config() -> VmmConfig {
    let prog = pvdiskload::build(PvDiskLoadParams {
        requests: REQUESTS,
        block_bytes: BLOCK,
        batch: BATCH,
    });
    let mut cfg = VmmConfig::full_virt(prog, 4096);
    cfg.pv_disk = true;
    cfg
}

/// Swaps in a large always-on tracer, carrying over the context
/// counter and any flight recorders registered at install time.
fn trace_on(sys: &mut System) {
    let cpus = sys.k.machine.cpus.len().max(1);
    let mut fresh = Tracer::new(cpus, 1 << 21, cat::ALL);
    fresh.carry_over(&sys.k.machine.bus.trace);
    sys.k.machine.bus.trace = fresh;
}

/// Runs the standard (unsupervised) PV workload under full tracing.
fn traced_pv_run() -> System {
    let mut sys = System::build(LaunchOptions::standard(pv_config()));
    trace_on(&mut sys);
    assert_eq!(sys.run(Some(BUDGET)), RunOutcome::Shutdown(0));
    assert_eq!(sys.k.machine.tracer().dropped(), 0, "ring never wrapped");
    sys
}

/// The Issue-8 acceptance criterion: every batched PV disk request
/// reconstructs as a complete span tree that crosses from the VMM's
/// domain into the disk server's, contains the driver lifecycle and
/// the hardware I/O window, and whose per-layer attribution sums
/// exactly to the end-to-end span.
#[test]
fn pv_request_trees_are_complete_across_domains() {
    let sys = traced_pv_run();
    let events = sys.k.machine.tracer().events();
    let trees: Vec<_> = causal::request_trees(&events)
        .into_iter()
        .filter(|t| t.class == Kind::PvRequest)
        .collect();
    assert_eq!(
        trees.len(),
        REQUESTS as usize,
        "one request tree per PV descriptor"
    );
    for t in &trees {
        assert!(
            t.pds.len() >= 2,
            "ctx {} never left the VMM's domain: pds {:?}",
            t.ctx,
            t.pds
        );
        let root = t.roots.first().expect("root span");
        assert_eq!(root.kind, Kind::PvRequest);
        let sum: u64 = t.layers.iter().sum();
        assert_eq!(
            sum,
            t.end_to_end(),
            "ctx {}: layer attribution must sum to the end-to-end span",
            t.ctx
        );
        for kind in [
            Kind::DiskAccept,
            Kind::DiskIssue,
            Kind::DiskComplete,
            Kind::HwIo,
        ] {
            assert!(
                contains(&t.roots, kind),
                "ctx {} tree is missing {kind:?}",
                t.ctx
            );
        }
    }
    // The aggregate query agrees with the per-tree sums, and the
    // latency histogram sees the class.
    let (layers, n) = causal::critical_path_by_layer(&events, Kind::PvRequest);
    assert_eq!(n, REQUESTS as u64);
    let per_tree: u64 = trees.iter().map(|t| t.end_to_end()).sum();
    assert_eq!(layers.iter().sum::<u64>(), per_tree);
    let stats = causal::latency_by_class(&events);
    let s = stats.get(&Kind::PvRequest).expect("pv class");
    assert_eq!(s.count, REQUESTS as u64);
    assert!(s.p50 > 0 && s.p50 <= s.p90 && s.p90 <= s.p99);
}

fn contains(nodes: &[causal::SpanNode], kind: Kind) -> bool {
    nodes
        .iter()
        .any(|n| n.kind == kind || contains(&n.children, kind))
}

/// Same seed, same span trees — the determinism contract extended
/// from raw events to the stitched causal structures, and on through
/// the full Chrome export (events + flow arrows + counters).
#[test]
fn same_seed_builds_identical_span_trees() {
    let a = traced_pv_run();
    let b = traced_pv_run();
    let ta = causal::request_trees(&a.k.machine.tracer().events());
    let tb = causal::request_trees(&b.k.machine.tracer().events());
    assert!(!ta.is_empty());
    assert_eq!(ta, tb, "same seed, same trees");
    let ja = chrome::export_full(a.k.machine.tracer());
    let jb = chrome::export_full(b.k.machine.tracer());
    assert_eq!(ja, jb, "same seed, same full export, byte for byte");
    // Cross-PD requests draw flow arrows; counters are exported.
    assert!(ja.contains("\"cat\":\"flow\""));
    assert!(ja.contains("\"ph\":\"C\""));
}

/// The microrebootable PV system under test.
fn microreboot_system() -> System {
    let mut opts = LaunchOptions::microrebootable(pv_config());
    opts.microreboot = Some(CKPT_PERIOD);
    System::build(opts)
}

fn pv_completions(sys: &mut System) -> u64 {
    let (vmm, _) = sys.microreboot_vmm().expect("supervised vmm");
    sys.k
        .component_mut::<Vmm>(vmm)
        .map(|v| v.dev().pvdisk.completions)
        .unwrap_or(0)
}

fn run_until(sys: &mut System, mut done: impl FnMut(&mut System) -> bool) {
    loop {
        let out = sys.run(Some(100_000));
        assert_ne!(out, RunOutcome::Shutdown(0), "guest finished prematurely");
        if done(sys) {
            return;
        }
    }
}

fn has_checkpoint(sys: &mut System) -> bool {
    let root = sys.root;
    let slot = sys.microreboot.expect("microreboot enabled");
    let rp = sys.k.component_mut::<RootPm>(root).expect("root pm");
    rp.vmm_supervision[slot]
        .as_ref()
        .is_some_and(|s| s.last_checkpoint.is_some())
}

/// Kills the VMM mid-workload and runs to completion; returns the
/// finished system and the crash cycle.
fn crash_run() -> (System, u64) {
    let mut sys = microreboot_system();
    trace_on(&mut sys);
    run_until(&mut sys, |s| pv_completions(s) >= 8 && has_checkpoint(s));
    let (_, vmm_pd) = sys.microreboot_vmm().expect("supervised vmm");
    let crash_at = sys.k.now();
    sys.k.pd_fault(vmm_pd, VMM_CRASH_CODE);
    let out = sys.run(Some(BUDGET));
    assert_eq!(out, RunOutcome::Shutdown(0), "guest completed after crash");
    assert_eq!(sys.k.counters.vmm_restarts, 1);
    (sys, crash_at)
}

/// A trace context allocated before the crash survives the VMM
/// microreboot: the checkpoint serializes each pending request's
/// context, the restore resubmits under it, and the request's tree
/// straddles the crash — events on both sides of the kill, spanning
/// both VMM incarnations' domains and the disk server's.
#[test]
fn trace_context_survives_vmm_microreboot() {
    let (sys, crash_at) = crash_run();
    let events = sys.k.machine.tracer().events();
    let straddling: Vec<_> = causal::request_trees(&events)
        .into_iter()
        .filter(|t| {
            t.class == Kind::PvRequest
                && t.first_cycle < crash_at
                && t.last_cycle > crash_at
                && t.pds.len() >= 2
        })
        .collect();
    assert!(
        !straddling.is_empty(),
        "no request context crossed the microreboot"
    );
    for t in &straddling {
        assert_eq!(t.layers.iter().sum::<u64>(), t.end_to_end());
    }
    // The revive sequence itself exports: checkpoint/restore events
    // and the recovery counters all appear in the full Chrome export.
    let js = chrome::export_full(sys.k.machine.tracer());
    assert!(js.contains("\"name\":\"checkpoint\""));
    assert!(js.contains("\"name\":\"restore\""));
    assert!(js.contains("\"name\":\"vmm_restarts\""));
    assert!(js.contains("\"name\":\"restore_latency_cycles\""));
}

/// Context allocation is always on but free: a fully traced run and a
/// tracing-off run reach the same final clock and the same per-reason
/// exit counts (the Fig. 6 columns), so the observability layer can
/// never perturb what it measures.
#[test]
fn context_plumbing_does_not_perturb_execution() {
    let traced = traced_pv_run();
    let untraced = {
        let mut sys = System::build(LaunchOptions::standard(pv_config()));
        assert_eq!(sys.run(Some(BUDGET)), RunOutcome::Shutdown(0));
        assert!(sys.k.machine.tracer().events().is_empty(), "off by default");
        sys
    };
    assert_eq!(traced.k.machine.clock, untraced.k.machine.clock);
    assert_eq!(traced.k.counters.exits, untraced.k.counters.exits);
    assert_eq!(
        traced.k.counters.total_exits(),
        untraced.k.counters.total_exits()
    );
    assert_eq!(traced.k.machine.marks(), untraced.k.machine.marks());
}

/// A VMM kill serializes a postmortem dump: correct header, the
/// watchdog trigger, the crash fault code recovered from the black
/// box, a checkpoint header, and a non-empty flight tail —
/// byte-identical across two same-seed runs (the CI gate).
#[test]
fn vmm_kill_postmortem_is_deterministic_and_structured() {
    let postmortem = |_: ()| -> Vec<u8> {
        let (mut sys, _) = crash_run();
        let root = sys.root;
        sys.k
            .component_mut::<RootPm>(root)
            .expect("root pm")
            .last_postmortem
            .clone()
            .expect("crash produced a postmortem")
    };
    let a = postmortem(());
    let b = postmortem(());
    assert_eq!(a, b, "same seed, same postmortem, byte for byte");

    assert_eq!(&a[..8], flight::DUMP_MAGIC);
    let field_u32 = |at: usize| u32::from_le_bytes(a[at..at + 4].try_into().unwrap());
    let field_u64 = |at: usize| u64::from_le_bytes(a[at..at + 8].try_into().unwrap());
    assert_eq!(field_u32(8), flight::DUMP_VERSION);
    assert_eq!(a[14], flight::Trigger::Watchdog.code());
    assert_eq!(a[15], 1, "checkpoint header present");
    assert_eq!(field_u64(16), VMM_CRASH_CODE, "reason is the fault code");
    assert!(field_u64(32) >= 1, "checkpoint sequence");
    assert!(field_u64(40) > 0, "checkpoint size");
    let nevents = field_u32(48);
    assert!(nevents > 0, "flight tail is not empty");
    // The tail's last mirrored event is the domain's death record.
    let last = 52 + (nevents as usize - 1) * 31;
    let kind = u16::from_le_bytes(a[last + 28..last + 30].try_into().unwrap());
    assert_eq!(kind, Kind::PdDeath as u16, "black box ends at the death");
}
