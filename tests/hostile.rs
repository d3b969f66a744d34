//! Hostile-guest fuzz harness: deterministic Byzantine guests drive
//! every validated guest-input surface (PV disk ring, PV net ring,
//! vAHCI command structures, vTLB-walked page tables, emulator
//! instruction bytes) across a fixed seed sweep. The hypervisor must
//! never panic; every attack must end either in a structured
//! [`VmKill`] with the exact surface/reason exit code or in a
//! guest-visible error the VM survives to report. Sibling VMs must
//! keep making progress while a co-resident VM is being killed, and
//! the whole sweep is byte-reproducible per seed.
//!
//! The default sweep covers 13 seeds per surface (65 scenario runs);
//! set `NOVA_SLOW_TESTS=1` for the full 64-seed-per-surface sweep.

use nova_core::cap::{CapSel, Perms};
use nova_core::obj::{MemRights, VmPaging};
use nova_core::utcb::Utcb;
use nova_core::{CompCtx, Component, Hypercall, Kernel, KernelConfig, RunOutcome};
use nova_guest::diskload::{self, DiskLoadParams};
use nova_guest::hostile::{self, Expect, HostilePlan, HostileRng, Surface};
use nova_guest::os::{build_os, OsParams, Program};
use nova_hw::fault::{FaultKind, FaultPlan};
use nova_hw::guestfault::VmKill;
use nova_hw::machine::{Machine, MachineConfig};
use nova_trace::{cat, names, Tracer};
use nova_user::root::{RootOps, RootPm};
use nova_vmm::{GuestImage, LaunchOptions, System, Vmm, VmmConfig};
use nova_x86::insn::{AluOp, Cond};
use nova_x86::reg::Reg;
use nova_x86::MemRef;

fn image(prog: Program) -> GuestImage {
    GuestImage {
        bytes: prog.bytes,
        load_gpa: prog.load_gpa,
        entry: prog.entry,
        stack: prog.stack,
    }
}

/// The fixed seed sweep: 13 per surface by default (65 scenarios
/// total), 64 per surface under `NOVA_SLOW_TESTS`.
fn seeds() -> std::ops::Range<u64> {
    if std::env::var_os("NOVA_SLOW_TESTS").is_some() {
        0..64
    } else {
        0..13
    }
}

/// Builds the single-VM system a plan asks for.
fn launch(plan: &mut Option<Program>, needs: hostile::Needs) -> System {
    let prog = plan.take().expect("program consumed once");
    let mut cfg = VmmConfig::full_virt(image(prog), hostile::GUEST_PAGES);
    cfg.pv_disk = needs.pv_disk;
    cfg.pv_nic = needs.pv_nic;
    if needs.shadow_paging {
        cfg.paging = VmPaging::Shadow;
    }
    System::build(LaunchOptions::standard(cfg))
}

/// Runs one plan to completion and checks its full contract: the
/// outcome code, the structured kill record (present and exact for
/// kills, absent for survivals), the kill counter, and the rejection
/// floor.
fn check_plan(plan: HostilePlan) -> System {
    let label = format!(
        "{}/{}/seed{}",
        plan.surface.name(),
        plan.mutation,
        plan.seed
    );
    let mut prog = Some(plan.program);
    let mut sys = launch(&mut prog, plan.needs);
    let out = sys.run(Some(2_000_000_000));
    match plan.expect {
        Expect::Kill(kill) => {
            assert_eq!(
                out,
                RunOutcome::Shutdown(kill.exit_code()),
                "{label}: kill exit code"
            );
            assert_eq!(sys.vmm().kill, Some(kill), "{label}: structured record");
            assert!(VmKill::is_kill_code(kill.exit_code()), "{label}");
            assert_eq!(sys.k.counters.vm_kills, 1, "{label}: one kill counted");
        }
        Expect::Exit(code) => {
            assert_eq!(out, RunOutcome::Shutdown(code), "{label}: guest survives");
            assert_eq!(sys.vmm().kill, None, "{label}: no kill record");
            assert_eq!(sys.k.counters.vm_kills, 0, "{label}: no kill counted");
        }
    }
    assert!(
        sys.k.counters.guest_faults_rejected >= plan.min_rejections,
        "{label}: {} rejections < floor {}",
        sys.k.counters.guest_faults_rejected,
        plan.min_rejections
    );
    // Whatever the guest tried, the kernel's delegation state is what
    // its own rule says it is.
    assert_eq!(sys.k.check_invariants(), Ok(()), "{label}");
    sys
}

fn sweep(surface: Surface) {
    for seed in seeds() {
        check_plan(hostile::plan(surface, seed));
    }
}

#[test]
fn hostile_pv_disk_ring_sweep() {
    sweep(Surface::PvDiskRing);
}

#[test]
fn hostile_pv_net_ring_sweep() {
    sweep(Surface::PvNetRing);
}

#[test]
fn hostile_vahci_sweep() {
    sweep(Surface::Vahci);
}

#[test]
fn hostile_vtlb_sweep() {
    sweep(Surface::VtlbWalk);
}

#[test]
fn hostile_emulator_sweep() {
    sweep(Surface::Emulator);
}

/// The same `(surface, seed)` pair reproduces bit-for-bit: identical
/// guest code, identical outcome, identical kill record, identical
/// counters. A fuzz failure is therefore reproducible from its seed.
#[test]
fn hostile_runs_are_byte_reproducible() {
    for surface in Surface::ALL {
        let p1 = hostile::plan(surface, 7);
        let p2 = hostile::plan(surface, 7);
        assert_eq!(p1.program.bytes, p2.program.bytes, "{surface:?} code");
        assert_eq!(p1.mutation, p2.mutation);
        assert_eq!(p1.expect, p2.expect);

        let run = |plan: HostilePlan| {
            let mut prog = Some(plan.program);
            let mut sys = launch(&mut prog, plan.needs);
            let out = sys.run(Some(2_000_000_000));
            let marks: Vec<u32> = sys.k.machine.marks().iter().map(|&(_, v)| v).collect();
            (
                out,
                sys.vmm().kill,
                sys.k.counters.guest_faults_rejected,
                sys.k.counters.vm_kills,
                marks,
            )
        };
        assert_eq!(run(p1), run(p2), "{surface:?} run");
    }
}

/// Checksum the forever-witness reports on iteration `iter`.
fn witness_checksum(iter: u32) -> u32 {
    let mut v = 0x1234_5678u32.wrapping_add(iter);
    let mut s = 0u32;
    for _ in 0..1024 {
        s = s.wrapping_add(v);
        v = v.wrapping_add(0x9e37_79b9);
    }
    s
}

/// A sibling VM that loops forever: fill a page with an
/// iteration-dependent pattern, checksum it, report the sum through
/// the mark port. Progress and integrity are both observable.
fn forever_witness() -> Program {
    build_os(OsParams::minimal(), |a, _| {
        a.mov_ri(Reg::Esi, 0);
        let iter = a.here_label();
        a.mov_ri(Reg::Edi, 0x8000);
        a.mov_ri(Reg::Ecx, 1024);
        a.mov_ri(Reg::Eax, 0x1234_5678);
        a.alu_rr(AluOp::Add, Reg::Eax, Reg::Esi);
        let fill = a.here_label();
        a.mov_mr(MemRef::base_disp(Reg::Edi, 0), Reg::Eax);
        a.add_ri(Reg::Eax, 0x9e37_79b9);
        a.add_ri(Reg::Edi, 4);
        a.dec_r(Reg::Ecx);
        a.jcc(Cond::Ne, fill);
        a.mov_ri(Reg::Edi, 0x8000);
        a.mov_ri(Reg::Ecx, 1024);
        a.mov_ri(Reg::Ebx, 0);
        let sum = a.here_label();
        a.alu_rm(AluOp::Add, Reg::Ebx, MemRef::base_disp(Reg::Edi, 0));
        a.add_ri(Reg::Edi, 4);
        a.dec_r(Reg::Ecx);
        a.jcc(Cond::Ne, sum);
        a.mov_rr(Reg::Eax, Reg::Ebx);
        a.mov_ri(Reg::Edx, 0xf5);
        a.out_dx_eax();
        a.inc_r(Reg::Esi);
        a.jmp(iter);
    })
}

/// Containment: killing a Byzantine VM must not perturb a sibling.
/// The witness VM keeps producing correct checksums before and after
/// the hostile VM is killed, and only the hostile VMM carries a kill
/// record.
#[test]
fn hostile_vm_kill_leaves_sibling_running() {
    let witness = VmmConfig::full_virt(image(forever_witness()), 1024);
    let mut opts = LaunchOptions::standard(witness);
    opts.machine.ram = 128 << 20;
    let mut sys = System::build(opts);

    let plan = hostile::plan(Surface::PvDiskRing, 0);
    let Expect::Kill(kill) = plan.expect else {
        panic!("seed 0 must be a kill plan");
    };
    let hostile_id = sys.add_vm(VmmConfig::full_virt(
        image(plan.program),
        hostile::GUEST_PAGES,
    ));

    // Phase 1: the hostile VM attacks and is killed; its structured
    // exit code surfaces as the shutdown request.
    let out = sys.run(Some(10_000_000_000));
    assert_eq!(out, RunOutcome::Shutdown(kill.exit_code()));
    let hostile_vmm = sys.k.component_mut::<Vmm>(hostile_id).expect("hostile vmm");
    assert_eq!(hostile_vmm.kill, Some(kill));
    assert_eq!(sys.vmm().kill, None, "witness VMM untouched");
    let marks_at_kill = sys.k.machine.marks().len();

    // Phase 2: the system keeps running; the witness makes further
    // progress with bit-exact checksums. A modest budget suffices —
    // hundreds of iterations prove liveness.
    let out = sys.run(Some(25_000_000));
    assert_eq!(out, RunOutcome::Budget, "witness loops forever");
    let vals: Vec<u32> = sys.k.machine.marks().iter().map(|&(_, v)| v).collect();
    assert!(
        vals.len() > marks_at_kill,
        "witness progressed after the kill"
    );
    for (i, &v) in vals.iter().enumerate() {
        assert_eq!(v, witness_checksum(i as u32), "witness checksum {i}");
    }
    assert_eq!(sys.k.counters.vm_kills, 1);
    assert_eq!(sys.k.check_invariants(), Ok(()));
}

/// The kill and rejection paths publish their per-domain metrics:
/// `guest_fault_rejected` keyed by surface, `vm_kills_by_reason`
/// keyed by the structured exit code.
#[test]
fn hostile_kill_publishes_metrics() {
    let plan = hostile::plan(Surface::PvDiskRing, 0);
    let Expect::Kill(kill) = plan.expect else {
        panic!("seed 0 must be a kill plan");
    };
    let mut prog = Some(plan.program);
    let mut sys = launch(&mut prog, plan.needs);
    let cpus = sys.k.machine.cpus.len().max(1);
    sys.k.machine.bus.trace = Tracer::new(cpus, 1 << 21, cat::ALL);
    let out = sys.run(Some(2_000_000_000));
    assert_eq!(out, RunOutcome::Shutdown(kill.exit_code()));

    let m = &sys.k.machine.tracer().metrics;
    let rejected = m
        .get(
            names::GUEST_FAULT_REJECTED,
            nova_hw::guestfault::GuestSurface::PvDiskRing as u64,
        )
        .expect("rejection metric recorded");
    assert!(rejected.count >= 1);
    let kills = m
        .get(names::VM_KILLS_BY_REASON, kill.exit_code() as u64)
        .expect("kill metric recorded");
    assert_eq!(kills.count, 1);
}

/// A do-nothing component lending its PD/EC identity to the
/// hypercall fuzzer.
#[derive(Default)]
struct NullComp;

impl Component for NullComp {
    fn name(&self) -> &str {
        "hc-fuzzer"
    }
    fn on_call(&mut self, _k: &mut Kernel, _c: CompCtx, _p: u64, _u: &mut Utcb) {}
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Hypercall-argument fuzz: an unprivileged component fires wild
/// selectors, counts, ranges and flags at every hypercall family.
/// Every call must return `Ok` or a typed error — a kernel panic
/// fails the test by crashing it — and the kernel must remain fully
/// functional afterwards.
#[test]
fn hostile_hypercall_args_are_contained() {
    let m = Machine::new(MachineConfig::core_i7(64 << 20));
    let cfg = KernelConfig {
        obj_quota: 1 << 20,
        ..KernelConfig::default()
    };
    let mut k = Kernel::new(m, cfg);
    let (root, root_ec) = k.load_component(k.root_pd, 0, Box::new(RootPm::new()));
    k.start_component(root, root_ec);
    let root_ctx = k.component_mut::<RootPm>(root).unwrap().ctx.unwrap();
    let mut ops = RootOps::new(&mut k, root_ctx);
    let cl_sel = ops.alloc_sel();
    let cl_pd = ops.provision("fuzzer", cl_sel, &[]).unwrap();
    ops.grant_mem(cl_sel, 0x400, 64, MemRights::RW, 0).unwrap();
    let (cl_comp, cl_ec) = k.load_component(cl_pd, 0, Box::<NullComp>::default());
    k.start_component(cl_comp, cl_ec);
    let ctx = CompCtx {
        pd: cl_pd,
        ec: cl_ec,
        comp: cl_comp,
    };

    let mut errors = 0u64;
    let mut calls = 0u64;
    for seed in seeds() {
        let mut rng = HostileRng::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
        let wild = |rng: &mut HostileRng| -> u64 {
            match rng.below(4) {
                0 => 0,
                1 => u64::MAX,
                2 => u64::MAX - rng.below(16),
                _ => rng.next(),
            }
        };
        for _ in 0..48 {
            let hc = match rng.below(21) {
                0 => Hypercall::CreatePd {
                    name: "fz".into(),
                    vm: None,
                    dst: rng.below(64) as CapSel,
                },
                1 => Hypercall::DestroyPd {
                    pd: wild(&mut rng) as CapSel,
                },
                2 => Hypercall::CreateEc {
                    pd: wild(&mut rng) as CapSel,
                    vcpu: rng.below(2) == 0,
                    cpu: wild(&mut rng) as usize,
                    dst: rng.below(64) as CapSel,
                },
                3 => Hypercall::CreateSc {
                    ec: wild(&mut rng) as CapSel,
                    prio: rng.next() as u8,
                    quantum: wild(&mut rng),
                    dst: rng.below(64) as CapSel,
                },
                4 => Hypercall::CreatePt {
                    ec: wild(&mut rng) as CapSel,
                    mtd: rng.next() as u32,
                    id: wild(&mut rng),
                    dst: rng.below(64) as CapSel,
                },
                5 => Hypercall::CreateSm {
                    count: wild(&mut rng),
                    dst: rng.below(64) as CapSel,
                },
                6 => Hypercall::DelegateMem {
                    dst_pd: wild(&mut rng) as CapSel,
                    base: wild(&mut rng),
                    count: wild(&mut rng),
                    rights: MemRights::RW,
                    hot: wild(&mut rng),
                },
                7 => Hypercall::DelegateIo {
                    dst_pd: wild(&mut rng) as CapSel,
                    base: rng.next() as u16,
                    count: rng.next() as u16,
                },
                8 => Hypercall::DelegateCap {
                    dst_pd: wild(&mut rng) as CapSel,
                    sel: wild(&mut rng) as CapSel,
                    perms: Perms::ALL,
                    hot: wild(&mut rng) as CapSel,
                },
                9 => Hypercall::RevokeMem {
                    base: wild(&mut rng),
                    count: wild(&mut rng),
                    include_self: rng.below(2) == 0,
                },
                10 => Hypercall::RevokeIo {
                    base: rng.next() as u16,
                    count: rng.next() as u16,
                    include_self: rng.below(2) == 0,
                },
                11 => Hypercall::RevokeCap {
                    sel: wild(&mut rng) as CapSel,
                    include_self: rng.below(2) == 0,
                },
                12 => Hypercall::SmUp {
                    sm: wild(&mut rng) as CapSel,
                },
                13 => Hypercall::SmDown {
                    sm: wild(&mut rng) as CapSel,
                },
                14 => Hypercall::SmBind {
                    sm: wild(&mut rng) as CapSel,
                },
                15 => Hypercall::EcRecall {
                    ec: wild(&mut rng) as CapSel,
                },
                16 => Hypercall::EcResume {
                    ec: wild(&mut rng) as CapSel,
                    inject: None,
                    intwin: rng.below(2) == 0,
                },
                17 => Hypercall::AssignGsi {
                    sm: wild(&mut rng) as CapSel,
                    gsi: rng.next() as u8,
                },
                18 => Hypercall::SetTimer {
                    sm: wild(&mut rng) as CapSel,
                    period: wild(&mut rng),
                },
                19 => Hypercall::AssignDev {
                    pd: wild(&mut rng) as CapSel,
                    device: wild(&mut rng) as usize,
                },
                _ => Hypercall::WatchdogArm {
                    pd: wild(&mut rng) as CapSel,
                    sm: wild(&mut rng) as CapSel,
                    timeout: wild(&mut rng),
                },
            };
            calls += 1;
            if k.hypercall(ctx, hc).is_err() {
                errors += 1;
            }
        }
        assert_eq!(k.check_invariants(), Ok(()), "after seed {seed}");
    }
    assert!(errors > 0, "wild arguments must produce typed errors");
    assert!(calls >= 48, "sweep ran");

    // The kernel is still fully functional: a well-formed create
    // succeeds.
    k.hypercall(
        ctx,
        Hypercall::CreateSm {
            count: 0,
            dst: 0x3f0,
        },
    )
    .expect("kernel survives the fuzz functional");
}

const CHAOS_SEED: u64 = 0x5eed_c0ff_ee01;

/// Combined adversity: platform fault injection (task-file errors,
/// lost/spurious IRQs, stuck DMA, IOMMU faults) against the
/// supervised disk stack *while* a co-resident Byzantine VM attacks
/// the PV disk ring. The hostile VM dies with its structured code,
/// the supervised guest still completes its I/O correctly, and
/// faults were actually injected.
#[test]
fn hostile_guest_under_chaos_plan() {
    let p = DiskLoadParams {
        requests: 12,
        block_bytes: 4096,
    };
    let mut opts = LaunchOptions::supervised(VmmConfig::full_virt(image(diskload::build(p)), 2048));
    opts.machine.ram = 128 << 20;
    let mut sys = System::build(opts);

    let plan = hostile::plan(Surface::PvDiskRing, 0);
    let Expect::Kill(kill) = plan.expect else {
        panic!("seed 0 must be a kill plan");
    };
    let hostile_id = sys.add_vm(VmmConfig::full_virt(
        image(plan.program),
        hostile::GUEST_PAGES,
    ));

    sys.k.machine.set_fault_plan(
        FaultPlan::seeded(CHAOS_SEED)
            .with(FaultKind::AhciTaskFileError, 9000, 3)
            .with(FaultKind::AhciLostIrq, 9000, 3)
            .with(FaultKind::AhciSpuriousIrq, 9000, 3)
            .with(FaultKind::AhciStuckDma, 9000, 2)
            .with(FaultKind::IommuFault, 5000, 2),
    );

    // Each shutdown request pauses the run loop; collect codes until
    // both the hostile kill and the clean diskload completion landed.
    let mut codes = Vec::new();
    for _ in 0..4 {
        match sys.run(Some(60_000_000_000)) {
            RunOutcome::Shutdown(c) => codes.push(c),
            other => panic!("unexpected outcome {other:?} (codes so far: {codes:?})"),
        }
        if codes.contains(&kill.exit_code()) && codes.contains(&0) {
            break;
        }
    }
    assert!(
        codes.contains(&kill.exit_code()) && codes.contains(&0),
        "want kill + clean completion, got {codes:?}"
    );

    let hostile_vmm = sys.k.component_mut::<Vmm>(hostile_id).expect("hostile vmm");
    assert_eq!(hostile_vmm.kill, Some(kill));
    assert_eq!(sys.vmm().kill, None, "diskload VMM untouched");
    let injected: u64 = sys.k.machine.faults().injected.iter().sum();
    assert!(injected >= 1, "chaos plan actually fired");
    assert_eq!(sys.k.check_invariants(), Ok(()));
}
