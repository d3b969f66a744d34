//! The six workloads: their generated inputs, how each is launched,
//! and one measured repetition (build → boot → run → verify).
//!
//! Every workload is a closed loop: one guest, one vCPU, the next
//! request issued only after the previous one (or batch) completed.

use nova_core::kernel::VMM_CRASH_CODE;
use nova_core::obj::VmPaging;
use nova_core::{Counters, RunOutcome};
use nova_guest::compile::{self, CompileParams};
use nova_guest::diskload::{self, DiskLoadParams};
use nova_guest::os::{build_os, OsParams, Program};
use nova_guest::pvdiskload::{self, PvDiskLoadParams};
use nova_hw::machine::MachineConfig;
use nova_trace::{cat, Tracer};
use nova_user::root::RootPm;
use nova_vmm::{GuestImage, LaunchOptions, System, Vmm, VmmConfig};
use nova_x86::insn::{Cond, MemRef};
use nova_x86::reg::Reg;
use std::time::Instant;

use crate::harness::{alloc_counts, peak_rss_mb, reset_peak_rss, Checks, Rng, Spans};
use crate::traced;

/// Simulated-cycle ceiling of any single run: far above every
/// workload, so hitting it is a failed run, not a measurement.
const BUDGET: u64 = 2_000_000_000_000;
/// Simulated cycles per timed slice of a run (one scheduling quantum:
/// the finest grain `Kernel::run` can be stopped at from outside).
const SLICE: u64 = 1_000_000;
/// Slice of `recover`: fine enough to poll for the kill point and the
/// revive, and to hold at most one checkpoint.
const POLL_SLICE: u64 = 100_000;
/// Checkpoint cadence of `recover`, in simulated cycles.
const CKPT_PERIOD: u64 = 500_000;
/// PV requests per doorbell (`disk_pv`, `recover`).
const PV_BATCH: u32 = 8;
/// Trapped operations in one unrolled pass of the storm loop.
pub const STORM_BLOCK: usize = 96;
/// Ring capacity of the traced run (events; grows on demand). Sized so
/// no workload at its traced size drops an event.
const TRACE_RING: usize = 1 << 24;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Workload {
    /// Fig 5 compile guest under EPT+VPID+2 MB pages: interpreter-bound.
    CompileEpt,
    /// The same image under the vTLB: MMU-virtualization-bound.
    CompileVtlb,
    /// 4 KB reads through the trapped-MMIO virtual AHCI controller.
    DiskAhci,
    /// The same reads through the batched PV ring.
    DiskPv,
    /// A seeded mix of CPUID / port-I/O / MMIO exits: exit-path-bound.
    ExitStorm,
    /// PV diskload under checkpointing with one VMM crash and revive.
    Recover,
}

/// How much work a repetition does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// Measurement scale: 0.1–0.3 s of host time per repetition, short so
    /// that a run holds many of them (the floor wants samples, not length).
    Full,
    /// The scale of the traced run and its untraced twin: `Full`,
    /// except where the full trace would not fit in memory.
    Traced,
    /// A few milliseconds, for `--smoke` and the smoke test.
    Smoke,
}

/// One kind of trapped operation in the storm guest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StormKind {
    /// `cpuid`.
    Cpuid,
    /// `in al, dx` from the virtual UART's line-status register.
    Pio,
    /// A 32-bit read of a virtual AHCI register.
    Mmio,
}

impl StormKind {
    /// All kinds, with their `stack.exit_ns.*` suffix and the index
    /// of the exit reason each one raises.
    pub const ALL: [(StormKind, &'static str, usize); 3] = [
        (StormKind::Cpuid, "cpuid", 2),
        (StormKind::Pio, "pio", 6),
        (StormKind::Mmio, "mmio", 7),
    ];
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 6] = [
        Workload::CompileEpt,
        Workload::CompileVtlb,
        Workload::DiskAhci,
        Workload::DiskPv,
        Workload::ExitStorm,
        Workload::Recover,
    ];

    /// The name used on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CompileEpt => "compile_ept",
            Workload::CompileVtlb => "compile_vtlb",
            Workload::DiskAhci => "disk_ahci",
            Workload::DiskPv => "disk_pv",
            Workload::ExitStorm => "exit_storm",
            Workload::Recover => "recover",
        }
    }

    /// Parses a workload name.
    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the workload is the compile guest (has a native
    /// reference run).
    pub fn is_compile(self) -> bool {
        matches!(self, Workload::CompileEpt | Workload::CompileVtlb)
    }

    /// Units of work per repetition: compile tasks, disk requests, or
    /// passes of the storm block.
    fn work(self, size: Size) -> u32 {
        match (self, size) {
            (Workload::CompileEpt | Workload::CompileVtlb, _) => 1,
            (Workload::DiskAhci | Workload::DiskPv, Size::Smoke) => 16,
            (Workload::DiskAhci | Workload::DiskPv, _) => 400,
            (Workload::ExitStorm, Size::Smoke) => 20,
            (Workload::ExitStorm, Size::Traced) => 1000,
            (Workload::ExitStorm, Size::Full) => 3000,
            (Workload::Recover, Size::Smoke) => 32,
            (Workload::Recover, _) => 128,
        }
    }

    fn guest_pages(self) -> u64 {
        match self {
            // 4 MB: every checkpoint copies all of it, and with 16 MB the
            // copies ran at the speed of the host's shared memory system,
            // which a neighbour can halve (a 31 % spread between runs
            // against 9 % with 4 MB, measured side by side). Still more
            // than half of the run's host time.
            Workload::Recover => 1024,
            _ => nova_bench::configs::GUEST_PAGES,
        }
    }
}

/// A generated guest and what the run is expected to do with it.
pub struct Guest {
    /// The guest image.
    pub prog: Program,
    /// Operations the guest performs: compile tasks, disk requests, or
    /// trapped storm operations. The denominator of the per-request
    /// metrics.
    pub ops: u64,
    /// `recover`: crash the VMM once this many requests completed.
    pub kill_at: Option<u64>,
    /// `exit_storm`: expected exits per kind (reason index, count).
    pub storm_exits: Vec<(usize, u64)>,
}

/// The compile guest at benchmark scale: Fig 5's parameters with the
/// task count cut to fit a repetition.
pub fn compile_params(tasks: u32) -> CompileParams {
    CompileParams {
        tasks,
        ..CompileParams::bench()
    }
}

/// A storm guest: `loops` passes over the unrolled `block`.
pub fn storm_guest(block: &[StormKind], loops: u32) -> Guest {
    let prog = build_os(OsParams::minimal(), |a, _| {
        // CPUID clobbers EAX–EDX, so the pass counter lives in ESI.
        a.mov_ri(Reg::Esi, loops);
        let top = a.here_label();
        for kind in block {
            match kind {
                StormKind::Cpuid => {
                    a.mov_ri(Reg::Eax, 0);
                    a.cpuid();
                }
                StormKind::Pio => {
                    a.mov_ri(Reg::Edx, 0x3fd);
                    a.in_al_dx();
                }
                StormKind::Mmio => a.mov_rm(
                    Reg::Eax,
                    MemRef::abs(nova_hw::machine::AHCI_BASE as u32 + nova_hw::ahci::regs::P0CI),
                ),
            }
        }
        a.dec_r(Reg::Esi);
        a.jcc(Cond::Ne, top);
    });
    let storm_exits = StormKind::ALL
        .iter()
        .map(|&(k, _, reason)| {
            let per_pass = block.iter().filter(|&&b| b == k).count() as u64;
            (reason, per_pass * loops as u64)
        })
        .collect();
    Guest {
        prog,
        ops: block.len() as u64 * loops as u64,
        kill_at: None,
        storm_exits,
    }
}

/// Generates the workload's guest from the seed. Only `exit_storm`
/// (the order of kinds in the block) and `recover` (the kill point)
/// have seeded inputs; the other guests are fixed programs.
pub fn build_guest(w: Workload, seed: u64, size: Size) -> Guest {
    let work = w.work(size);
    let plain = |prog, ops: u32| Guest {
        prog,
        ops: ops as u64,
        kill_at: None,
        storm_exits: Vec::new(),
    };
    let mut rng = Rng(seed);
    match w {
        Workload::CompileEpt | Workload::CompileVtlb => {
            plain(compile::build(compile_params(work)), work)
        }
        Workload::DiskAhci => plain(
            diskload::build(DiskLoadParams {
                requests: work,
                block_bytes: 4096,
            }),
            work,
        ),
        Workload::DiskPv | Workload::Recover => {
            let mut g = plain(
                pvdiskload::build(PvDiskLoadParams {
                    requests: work,
                    block_bytes: 4096,
                    batch: PV_BATCH,
                }),
                work,
            );
            if w == Workload::Recover {
                // Somewhere in the middle half of the run.
                g.kill_at = Some((work / 4) as u64 + rng.below((work / 2) as u64));
            }
            g
        }
        Workload::ExitStorm => {
            // Equal shares of each kind, in seeded order (Fisher–Yates).
            let mut block: Vec<StormKind> =
                (0..STORM_BLOCK).map(|i| StormKind::ALL[i % 3].0).collect();
            for i in (1..block.len()).rev() {
                block.swap(i, rng.below(i as u64 + 1) as usize);
            }
            storm_guest(&block, work)
        }
    }
}

/// The launch options every workload shares: `cost::BLM`, a 96 MB
/// machine, one CPU, the 1 kHz scheduler tick.
pub fn launch_options(w: Workload, prog: &Program, microreboot: bool) -> LaunchOptions {
    let image = GuestImage {
        bytes: prog.bytes.clone(),
        load_gpa: prog.load_gpa,
        entry: prog.entry,
        stack: prog.stack,
    };
    let mut cfg = VmmConfig::full_virt(image, w.guest_pages());
    match w {
        Workload::CompileVtlb => cfg.paging = VmPaging::Shadow,
        Workload::DiskPv | Workload::Recover => cfg.pv_disk = true,
        _ => {}
    }
    let mut opts = if microreboot {
        let mut o = LaunchOptions::microrebootable(cfg);
        o.microreboot = Some(CKPT_PERIOD);
        o
    } else {
        LaunchOptions::standard(cfg)
    };
    opts.machine = MachineConfig {
        cost: nova_hw::cost::BLM,
        ram: 96 << 20,
        iommu: true,
        cpus: 1,
    };
    opts.kernel.scheduler_timer_hz = Some(1000);
    opts
}

/// Everything one repetition produced.
pub struct Rep {
    /// Host-time spans around each call into a layer.
    pub spans: Spans,
    /// Host ns of each slice of `System.run`, in order.
    pub slices_ns: Vec<u64>,
    /// Simulated-clock numbers and counters, by metric name. Identical
    /// for every repetition of one seed, traced or not.
    pub sim: Vec<(&'static str, f64)>,
    /// Numbers only a traced run can give (empty when untraced).
    pub traced: Vec<(&'static str, f64)>,
    /// Heap allocations during `System.run`.
    pub allocs: u64,
    /// Bytes allocated during `System.run`.
    pub alloc_bytes: u64,
    /// Peak RSS over build + run, in MB.
    pub peak_rss_mb: f64,
    /// Operations the guest was asked to perform.
    pub ops: u64,
    /// Operations and end-state checks, attempted and failed.
    pub checks: Checks,
}

impl Rep {
    /// A `sim` number by name (NaN if absent).
    pub fn sim(&self, name: &str) -> f64 {
        self.sim
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(f64::NAN, |(_, v)| *v)
    }

    /// Host seconds of set-up: guest build plus system boot.
    pub fn setup_s(&self) -> f64 {
        (self.spans.total_ns("guest.build") + self.spans.total_ns("vmm.System.build")) as f64 / 1e9
    }

    /// Host nanoseconds inside `System::run`.
    pub fn run_ns(&self) -> f64 {
        self.spans.total_ns("System.run") as f64
    }
}

fn with_sup<R>(sys: &mut System, f: impl FnOnce(&nova_user::root::VmmSupervision) -> R) -> R {
    let root = sys.root;
    let slot = sys.microreboot.expect("microreboot enabled");
    let rp = sys.k.component_mut::<RootPm>(root).expect("root pm");
    f(rp.vmm_supervision[slot].as_ref().expect("supervised vm"))
}

/// The VM's *current* VMM incarnation (a revive replaces it).
fn current_vmm(sys: &mut System) -> &mut Vmm {
    let vmm = match sys.microreboot_vmm() {
        Some((vmm, _)) => vmm,
        None => sys.vmm,
    };
    sys.vmm_by_id(vmm)
}

/// Runs the system in slices of `slice` simulated cycles, timing each
/// one, until `done` holds (→ `None`) or the run ends (→ its outcome).
///
/// `Kernel::run` checks its budget only between scheduling rounds and
/// keeps no state across calls, so a sliced run is cycle-for-cycle the
/// unsliced one — and slice `i` is the same simulated work in every
/// repetition, which is what lets the report take each slice's fastest
/// repetition.
fn run_sliced(
    sys: &mut System,
    slice: u64,
    slices_ns: &mut Vec<u64>,
    mut done: impl FnMut(&mut System) -> bool,
) -> Option<RunOutcome> {
    let deadline = sys.k.now() + BUDGET;
    while sys.k.now() < deadline {
        let t0 = Instant::now();
        let out = sys.run(Some(slice));
        slices_ns.push(t0.elapsed().as_nanos() as u64);
        if out != RunOutcome::Budget {
            return Some(out);
        }
        if done(sys) {
            return None;
        }
    }
    Some(RunOutcome::Budget)
}

/// Runs the guest to shutdown; `recover` crashes its VMM on the way.
fn drive(
    sys: &mut System,
    kill_at: Option<u64>,
    spans: &mut Spans,
    slices_ns: &mut Vec<u64>,
) -> Result<RunOutcome, String> {
    let to_end = |sys: &mut System, slice: u64, slices_ns: &mut Vec<u64>| {
        run_sliced(sys, slice, slices_ns, |_| false).expect("only a finished run returns")
    };
    let Some(kill_at) = kill_at else {
        return Ok(to_end(sys, SLICE, slices_ns));
    };
    let early = spans.time("run.to_crash", |_| {
        run_sliced(sys, POLL_SLICE, slices_ns, |s| {
            current_vmm(s).dev().pvdisk.completions >= kill_at
                && with_sup(s, |sup| sup.last_checkpoint.is_some())
        })
    });
    if let Some(out) = early {
        return Err(format!("run ended {out:?} before the kill point {kill_at}"));
    }
    spans.time("pd_fault", |_| {
        let (_, vmm_pd) = sys.microreboot_vmm().expect("supervised vmm");
        sys.k.pd_fault(vmm_pd, VMM_CRASH_CODE);
    });
    let early = spans.time("run.to_restore", |_| {
        run_sliced(sys, POLL_SLICE, slices_ns, |s| {
            with_sup(s, |sup| sup.restarts == 1)
        })
    });
    if let Some(out) = early {
        return Err(format!("run ended {out:?} before the VMM was revived"));
    }
    // Still the fine slice: at most one checkpoint (a full copy of
    // guest RAM, most of the run's host time) lands in each.
    Ok(spans.time("run.to_end", |_| to_end(sys, POLL_SLICE, slices_ns)))
}

/// The run's simulated-clock numbers and counters: everything that is
/// a pure function of the inputs, read without tracing.
fn sim_numbers(sys: &mut System, ops: u64) -> Vec<(&'static str, f64)> {
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let checkpoint_bytes = match sys.microreboot {
        Some(_) => with_sup(sys, |sup| sup.last_checkpoint.as_ref().map_or(0, Vec::len)),
        None => 0,
    };
    let (doorbells, pv_requests) = {
        let pv = &current_vmm(sys).dev().pvdisk;
        (pv.doorbells, pv.requests)
    };
    let c: Counters = sys.k.counters.clone();
    let cpu = &sys.k.machine.cpus[0];
    let cycles = sys.k.machine.clock;
    let exits = c.total_exits();
    let tlb = cpu.tlb.stats;
    vec![
        ("sim_cycles", cycles as f64),
        (
            "sim_cpu_util_pct",
            100.0 * ratio(cycles - cpu.idle_cycles, cycles),
        ),
        ("sim_exits_per_request", ratio(exits, ops)),
        (
            "sim_cycles_per_exit",
            ratio(
                c.cycles_transition + c.cycles_ipc + c.cycles_emulation + c.cycles_kernel,
                exits,
            ),
        ),
        ("sim_checkpoint_bytes", checkpoint_bytes as f64),
        ("core.exits.total", exits as f64),
        ("core.exits.cpuid", c.exits_of(2) as f64),
        ("core.exits.ioport", c.exits_of(6) as f64),
        ("core.exits.mmio", c.exits_of(7) as f64),
        ("core.exits.hlt", c.exits_of(3) as f64),
        ("core.exits.extint", c.exits_of(0) as f64),
        ("core.exits.movcr", c.exits_of(5) as f64),
        ("core.exits.invlpg", c.exits_of(4) as f64),
        ("core.ipc.calls", c.ipc_calls as f64),
        ("core.hypercalls", c.hypercalls as f64),
        ("core.virq.injected", c.injected_virq as f64),
        ("core.guest_page_faults", c.guest_page_faults as f64),
        ("core.vtlb.fills", c.vtlb_fills as f64),
        ("core.vtlb.flushes", c.vtlb_flushes as f64),
        (
            "core.vtlb.switch_hit_rate",
            ratio(
                c.vtlb_switch_hits,
                c.vtlb_switch_hits + c.vtlb_switch_misses,
            ),
        ),
        ("core.vtlb.evictions", c.vtlb_shadow_evictions as f64),
        ("hw.tlb.hit_rate", ratio(tlb.hits, tlb.hits + tlb.misses)),
        ("hw.cpu.instret", cpu.instret as f64),
        ("hw.cpu.idle_cycles", cpu.idle_cycles as f64),
        ("user.disk.ops", c.disk_ops as f64),
        ("vmm.pv.doorbells", doorbells as f64),
        ("vmm.pv.batch_mean", ratio(pv_requests, doorbells)),
        ("vmm.checkpoints", c.checkpoints_taken as f64),
        ("vmm.restarts", c.vmm_restarts as f64),
    ]
}

/// One repetition: generate the guest, boot the stack, run to
/// shutdown, verify. `microreboot` is false only for `recover`'s
/// checkpoint-free twin.
pub fn run_rep(w: Workload, build: impl FnOnce() -> Guest, trace: bool, microreboot: bool) -> Rep {
    let mut spans = Spans::new();
    reset_peak_rss();

    let guest = spans.time("guest.build", |_| build());
    let supervised = w == Workload::Recover && microreboot;
    let mut sys = spans.time("vmm.System.build", |_| {
        System::build(launch_options(w, &guest.prog, supervised))
    });
    if trace {
        let mut ring = Tracer::new(sys.k.machine.cpus.len(), TRACE_RING, cat::ALL);
        ring.carry_over(sys.k.machine.tracer());
        *sys.k.machine.tracer_mut() = ring;
    }

    let kill_at = guest.kill_at.filter(|_| supervised);
    // Room for every slice, so timing them allocates nothing inside
    // the counted region.
    let mut slices_ns = Vec::with_capacity(1 << 16);
    let before = alloc_counts();
    let outcome = spans.time("System.run", |s| {
        drive(&mut sys, kill_at, s, &mut slices_ns)
    });
    let after = alloc_counts();
    slices_ns.shrink_to_fit();

    let mut checks = Checks::default();
    let (sim, traced) = spans.time("verify", |_| {
        let clean = matches!(outcome, Ok(RunOutcome::Shutdown(0)));
        checks.check(clean, || format!("run ended {outcome:?}, not Shutdown(0)"));
        // Completed operations, counted by the layer that completes
        // them. Compile tasks have no counter: the guest exits 0 only
        // after the last one.
        let done = match w {
            Workload::DiskAhci => sys.k.counters.disk_ops,
            Workload::DiskPv | Workload::Recover => current_vmm(&mut sys).dev().pvdisk.completions,
            Workload::ExitStorm => guest
                .storm_exits
                .iter()
                .map(|&(reason, want)| sys.k.counters.exits_of(reason).min(want))
                .sum(),
            Workload::CompileEpt | Workload::CompileVtlb => guest.ops * clean as u64,
        };
        checks.operations(guest.ops, done, "operations completed");
        if supervised {
            let restarts = sys.k.counters.vmm_restarts;
            checks.check(restarts == 1, || format!("{restarts} VMM restarts, not 1"));
        }
        let traced = if trace {
            traced::analyse(sys.k.machine.tracer(), w, &mut checks)
        } else {
            Vec::new()
        };
        (sim_numbers(&mut sys, guest.ops), traced)
    });

    Rep {
        spans,
        slices_ns,
        sim,
        traced,
        allocs: after.0 - before.0,
        alloc_bytes: after.1 - before.1,
        peak_rss_mb: peak_rss_mb(),
        ops: guest.ops,
        checks,
    }
}
