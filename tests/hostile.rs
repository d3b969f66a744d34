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
//!
//! One level up, a hostile *VMM* — a second VMM's identity, acting as
//! it would if compromised — fires seeded wild IPC through every
//! portal it holds and hypercalls on every capability it holds, beside
//! a sibling VM reading from the same disk server; the sibling must end
//! as it does unattacked (4 seeds, 64 under `NOVA_SLOW_TESTS`).

mod common;

use nova_core::cap::{CapSel, Perms};
use nova_core::obj::{MemRights, ObjRef, VmPaging};
use nova_core::utcb::{Utcb, XferItem};
use nova_core::{CompCtx, CompId, Component, HcErr, Hypercall, Kernel, KernelConfig, RunOutcome};
use nova_guest::diskload::{self, DiskLoadParams};
use nova_guest::hostile::{self, Expect, HostilePlan, HostileRng, Surface};
use nova_guest::os::{build_os, OsParams};
use nova_guest::rt::{self, layout};
use nova_hw::fault::{FaultKind, FaultPlan};
use nova_hw::guestfault::VmKill;
use nova_hw::machine::{GuestImage, Machine, MachineConfig};
use nova_hw::pv;
use nova_trace::{cat, names, Tracer};
use nova_user::disk::CMD_VA;
use nova_user::proto::disk as dproto;
use nova_user::root::{RootOps, RootPm};
use nova_vmm::vmm::GUEST_BASE_PAGE;
use nova_vmm::{LaunchOptions, System, Vmm, VmmConfig};
use nova_x86::insn::{AluOp, Cond};
use nova_x86::reg::{Reg, Regs};
use nova_x86::MemRef;

use common::{guest_bytes, reader_guest, vmm_ctx, READER_BUF};

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
fn launch(plan: &mut Option<GuestImage>, needs: hostile::Needs) -> System {
    let prog = plan.take().expect("program consumed once");
    let mut cfg = VmmConfig::full_virt(prog, hostile::GUEST_PAGES);
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

/// The PV disk queue of a VM given none: FEAT does not offer it, so its
/// registers name nothing — they read 0 and drop writes, as an
/// unassigned offset does. A guest that fills the ring with valid reads
/// and rings it ten times over leaves the VMM as it was: no descriptor
/// tracked, no doorbell counted, nothing to reject.
#[test]
fn an_unoffered_pv_disk_queue_is_refused() {
    const DOORBELLS: u64 = 10;
    let (base, ring) = (pv::PV_BASE as u32, layout::PV_DISK_RING);
    let program = build_os(OsParams::minimal(), |a, _| {
        for i in 0..pv::disk::CAPACITY {
            let d = ring + pv::disk::DESC0 as u32 + i * pv::disk::DESC_SIZE as u32;
            a.mov_mi(MemRef::abs(d + pv::disk::D_OP as u32), pv::disk::OP_READ);
            a.mov_mi(MemRef::abs(d + pv::disk::D_SECTORS as u32), 1);
            a.mov_mi(MemRef::abs(d + pv::disk::D_BUF as u32), layout::DISK_BUF);
        }
        a.mov_mi(MemRef::abs(base + pv::regs::DISK_RING as u32), ring);
        for _ in 0..DOORBELLS {
            let doorbell = MemRef::abs(base + pv::regs::DISK_DOORBELL as u32);
            a.mov_mi(doorbell, pv::disk::CAPACITY);
        }
        rt::emit_exit(a, 0x33);
    });
    let mut sys = launch(&mut Some(program), hostile::Needs::default());
    assert_eq!(sys.run(Some(2_000_000_000)), RunOutcome::Shutdown(0x33));
    let pvdisk = &sys.vmm().dev().pvdisk;
    assert!(!pvdisk.disk.attached(), "no queue was offered");
    assert!(pvdisk.disk.reqs().is_empty(), "no descriptor read");
    assert_eq!((pvdisk.doorbells, pvdisk.requests), (0, 0));
    assert_eq!(sys.k.counters.guest_faults_rejected, 0);
    assert_eq!(sys.k.check_invariants(), Ok(()));
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
fn forever_witness() -> GuestImage {
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
    let witness = VmmConfig::full_virt(forever_witness(), 1024);
    let mut opts = LaunchOptions::standard(witness);
    opts.machine.ram = 128 << 20;
    let mut sys = System::build(opts);

    let plan = hostile::plan(Surface::PvDiskRing, 0);
    let Expect::Kill(kill) = plan.expect else {
        panic!("seed 0 must be a kill plan");
    };
    let mut cfg = VmmConfig::full_virt(plan.program, hostile::GUEST_PAGES);
    cfg.pv_disk = plan.needs.pv_disk;
    let hostile_id = sys.add_vm(cfg);

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
    let ram = Hypercall::DelegateMem {
        dst_pd: cl_sel,
        base: 0x400,
        count: 64,
        rights: MemRights::RW,
        hot: 0,
    };
    k.hypercall(root_ctx, ram).unwrap();
    let (cl_comp, cl_ec) = k.load_component(cl_pd, 0, Box::<NullComp>::default());
    k.start_component(cl_comp, cl_ec);
    let ctx = CompCtx {
        pd: cl_pd,
        ec: cl_ec,
        comp: cl_comp,
    };
    // Portals for the window hypercall: the fuzzer's own at 0x3e0, and
    // one of root's it holds call-only at 0x3e1 and with the right to
    // delegate at 0x3e2.
    let own = Hypercall::CreatePt {
        ec: nova_core::kernel::SEL_SELF_EC,
        mtd: 0,
        id: 1,
        dst: 0x3e0,
    };
    k.hypercall(ctx, own).unwrap();
    let roots = Hypercall::CreatePt {
        ec: nova_core::kernel::SEL_SELF_EC,
        mtd: 0,
        id: 2,
        dst: 0x3e0,
    };
    k.hypercall(root_ctx, roots).unwrap();
    let delegable = Perms::CALL.union(Perms::DELEGATE);
    for (perms, hot) in [(Perms::CALL, 0x3e1), (delegable, 0x3e2)] {
        let pt = Hypercall::DelegateCap {
            dst_pd: cl_sel,
            sel: 0x3e0,
            perms,
            hot,
        };
        k.hypercall(root_ctx, pt).unwrap();
    }
    let window_of = |k: &Kernel, pd, sel| match k.obj.pd(pd).caps.get(sel).map(|c| c.obj) {
        Some(ObjRef::Pt(pt)) => k.obj.windows.get(&pt).copied(),
        other => panic!("no portal: {other:?}"),
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
            let hc = match rng.below(22) {
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
                20 => Hypercall::PtWindow {
                    pt: [0x3e0, 0x3e1, 0x3e2, wild(&mut rng) as CapSel][rng.below(4) as usize],
                    base: wild(&mut rng),
                    count: wild(&mut rng),
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

    // The window is the handler's domain's to set: root's portal is
    // refused to the fuzzer however it holds it, and kept no window
    // through the sweep; the fuzzer's own takes any range that neither
    // wraps nor is too large to walk.
    for pt in [0x3e1, 0x3e2] {
        let window = Hypercall::PtWindow {
            pt,
            base: 0,
            count: 1,
        };
        assert_eq!(k.hypercall(ctx, window), Err(HcErr::NotOwner));
    }
    assert_eq!(window_of(&k, k.root_pd, 0x3e0), None);
    let window = |base, count| Hypercall::PtWindow {
        pt: 0x3e0,
        base,
        count,
    };
    assert_eq!(k.hypercall(ctx, window(u64::MAX, 1)), Err(HcErr::BadParam));
    assert_eq!(k.hypercall(ctx, window(0, u64::MAX)), Err(HcErr::BadParam));
    k.hypercall(ctx, window(0x100, 0x10)).unwrap();
    assert_eq!(window_of(&k, cl_pd, 0x3e0), Some((0x100, 0x10)));

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
    let mut opts = LaunchOptions::supervised(VmmConfig::full_virt(diskload::build(p), 2048));
    opts.machine.ram = 128 << 20;
    let mut sys = System::build(opts);

    let plan = hostile::plan(Surface::PvDiskRing, 0);
    let Expect::Kill(kill) = plan.expect else {
        panic!("seed 0 must be a kill plan");
    };
    let mut cfg = VmmConfig::full_virt(plan.program, hostile::GUEST_PAGES);
    cfg.pv_disk = plan.needs.pv_disk;
    let hostile_id = sys.add_vm(cfg);

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

// ---------------------------------------------------------------------
// A hostile VMM beside a working one
// ---------------------------------------------------------------------

/// Seeds of the hostile-VMM sweep: 4, or 64 under `NOVA_SLOW_TESTS`.
fn vmm_seeds() -> std::ops::Range<u64> {
    if std::env::var_os("NOVA_SLOW_TESTS").is_some() {
        0..64
    } else {
        0..4
    }
}

/// Reads the sibling makes while the hostile VMM attacks.
const SIBLING_READS: u32 = 8;
/// Cycles between two bursts of the attack.
const BURST_EVERY: u64 = 20_000;

/// A supervised disk server with the sibling A at slot 0 running
/// [`reader_guest`] and the hostile B at slot 1, which holds both disk
/// channels and whose guest only halts.
fn sibling_and_hostile_vmm() -> (System, CompId) {
    let mut opts = LaunchOptions::supervised(reader_guest(SIBLING_READS));
    opts.machine.ram = 128 << 20;
    let mut sys = System::build(opts);
    let idle = build_os(OsParams::minimal(), |a, _| {
        let top = a.here_label();
        a.hlt();
        a.jmp(top);
    });
    let mut cfg = VmmConfig::full_virt(idle, 1024);
    cfg.pv_disk = true;
    let b = sys.add_vm(cfg);
    (sys, b)
}

/// What the sibling leaves behind, as a guest or a bystander could tell.
#[derive(Debug, PartialEq)]
struct SiblingEnd {
    marks: Vec<u32>,
    /// FNV-1a of all of the sibling's guest RAM.
    ram: u64,
    console: String,
    disk_ops: u64,
}

/// Runs until the sibling's guest has shut down, calling `between`
/// after every [`BURST_EVERY`] cycles, then lets what else was queued
/// at the disk drain.
fn run_sibling(sys: &mut System, mut between: impl FnMut(&mut System)) -> SiblingEnd {
    while sys.vmm().guest_exit.is_none() {
        assert!(sys.k.machine.clock < 10_000_000_000, "the sibling stalled");
        sys.run(Some(BURST_EVERY));
        between(sys);
    }
    // The drain outlives a kill of the hostile VM, which stops the
    // world once.
    let drained = sys.k.machine.clock + 200_000_000;
    while sys.k.machine.clock < drained {
        let left = drained - sys.k.machine.clock;
        if sys.run(Some(left)) == RunOutcome::Idle {
            break;
        }
    }
    let ram = guest_bytes(sys, sys.vmm, 0, 2048 * 4096)
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        });
    SiblingEnd {
        marks: sys.vmm().guest_marks(),
        ram,
        console: sys.vmm().guest_console(),
        disk_ops: sys.k.counters.disk_ops,
    }
}

/// The hostile VMM: its identity, its seeded choices, and what it got
/// the disk server to accept.
struct HostileVmm {
    b: CompCtx,
    rng: HostileRng,
    /// Tags sent so far, for replays.
    tags: Vec<u64>,
    /// Requests the server accepted from it.
    accepted: u64,
    /// Window hypercalls on its disk portals, every one refused.
    windows_refused: u64,
    calls: u64,
}

impl HostileVmm {
    fn wild(&mut self) -> u64 {
        match self.rng.below(4) {
            0 => 0,
            1 => u64::MAX,
            2 => u64::MAX - self.rng.below(16),
            _ => self.rng.next(),
        }
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.rng.below(from.len() as u64) as usize]
    }

    /// One request body. Half are well formed for B's own window —
    /// reads, and writes far from the sibling's sectors (the disk is one
    /// volume: a client's write is its right, not an attack) — the rest
    /// aim segments at the sibling's window, the server's command page
    /// and every edge of B's window, with wild sizes and counts. At most
    /// 8 sectors: the server bounds how many requests a client has
    /// outstanding, not how many bytes, so reads of 512 KB would slow
    /// the sibling by bandwidth, which is not what this sweep asks.
    /// Returns the page of B's window a well-formed body reads or
    /// writes, for the caller to delegate unless the server holds it.
    fn body(&mut self, msg: &mut Vec<u64>) -> Option<u64> {
        let ring = dproto::RING_WINDOW_PAGE * 4096;
        let a_buf = dproto::window_base(0) * 4096 + READER_BUF as u64;
        let tag = match self.tags.is_empty() || self.rng.below(2) == 0 {
            true => self.rng.next(),
            false => self.pick(&self.tags.clone()),
        };
        self.tags.push(tag);
        let ctx = self.rng.next();
        if self.rng.below(2) == 0 {
            let (op, lba) = match self.rng.below(2) {
                0 => (dproto::OP_READ, self.rng.below(1 << 20)),
                _ => (dproto::OP_WRITE, 0x10_0000 + self.rng.below(1 << 20)),
            };
            let (sectors, page) = (self.pick(&[1u64, 7]), self.rng.below(1024));
            let addr = page * 4096 + self.pick(&[0, 512]);
            msg.extend_from_slice(&[op, lba, sectors, tag, ctx, 1, addr, sectors * 512]);
            return Some(page);
        }
        let op = self.pick(&[dproto::OP_READ, dproto::OP_WRITE, 0, 9]);
        let lba = 0x10_0000 + self.rng.below(1 << 20);
        let wild = self.wild();
        let sectors = self.pick(&[0, 1, 8, dproto::MAX_SECTORS + 1, wild]);
        let wild = self.wild();
        let nsegs = self.pick(&[0, 1, 2, dproto::MAX_SEGMENTS as u64 + 1, wild]);
        msg.extend_from_slice(&[op, lba, sectors, tag, ctx, nsegs]);
        for _ in 0..nsegs.min(dproto::MAX_SEGMENTS as u64 + 1) {
            let next = self.rng.next();
            let addr = self.pick(&[
                0,
                READER_BUF as u64,
                a_buf,
                CMD_VA,
                CMD_VA + 0x1000,
                ring - 512,
                ring,
                dproto::WINDOW_PAGES * 4096 - 512,
                u64::MAX - 511,
                next,
            ]);
            let wild = self.wild();
            let bytes = self.pick(&[512, 4096, 0, wild]);
            msg.extend_from_slice(&[addr, bytes]);
        }
        None
    }

    /// Up to three typed items at every edge of B's window and past it
    /// into the sibling's.
    fn items(&mut self) -> Vec<XferItem> {
        let buf = READER_BUF as u64 / 4096;
        (0..self.rng.below(4))
            .map(|_| {
                let (own, wild) = (self.rng.below(1024), self.wild());
                let base = self.pick(&[GUEST_BASE_PAGE + own, GUEST_BASE_PAGE + buf, wild]);
                let wild = self.wild();
                let count = self.pick(&[1, 1, 2, 0, wild]);
                let (next, ring) = (self.rng.next(), dproto::RING_WINDOW_PAGE);
                let hot = self.pick(&[
                    own,
                    buf,
                    ring - 1,
                    ring,
                    dproto::WINDOW_PAGES,
                    dproto::window_base(0) + buf,
                    u64::MAX,
                    next,
                ]);
                let rights = self.pick(&[MemRights::RW_DMA, MemRights::RW]);
                XferItem {
                    base,
                    count,
                    rights,
                    hot,
                }
            })
            .collect()
    }

    /// A wild call through the portal at `sel`: a request or a batch on
    /// the disk portals (a count past `MAX_BATCH` among them), junk on
    /// B's own exit portals.
    fn ipc(&mut self, sys: &mut System, sel: CapSel) {
        let (mut msg, mut pages) = (Vec::new(), Vec::new());
        if sel == dproto::CLIENT_SEL_BATCH {
            let wild = self.wild();
            let max = dproto::MAX_BATCH as u64;
            let count = self.pick(&[1, 3, max, max + 1, 0, wild]);
            msg.push(count);
            for _ in 0..count.min(max + 1) {
                pages.extend(self.body(&mut msg));
            }
        } else if sel == dproto::CLIENT_SEL_REQ {
            pages.extend(self.body(&mut msg));
        } else {
            msg.extend((0..self.rng.below(8)).map(|_| self.rng.next()));
        }
        // B's clients are 2 (vAHCI) and 3 (PV).
        let client = 2 + (sel == dproto::CLIENT_SEL_BATCH) as usize;
        let srv = sys.k.obj.pds.iter().find(|p| p.name == "disk-server");
        let held =
            |p: &u64| srv.is_some_and(|s| s.mem.lookup(dproto::window_base(client) + p).is_some());
        pages.retain(|p| !held(p));
        pages.sort_unstable();
        pages.dedup();
        let mut utcb = Utcb::new();
        utcb.set_msg(&msg);
        utcb.xfer = pages
            .into_iter()
            .map(|p| XferItem {
                base: GUEST_BASE_PAGE + p,
                count: 1,
                rights: MemRights::RW_DMA,
                hot: p,
            })
            .collect();
        utcb.xfer.extend(self.items());
        if sys.k.ipc_call(self.b, sel, &mut utcb).is_err() {
            return;
        }
        self.accepted += match sel {
            dproto::CLIENT_SEL_REQ => (utcb.word(0) == dproto::OK) as u64,
            dproto::CLIENT_SEL_BATCH => utcb.word(1),
            _ => 0,
        };
    }

    /// A hypercall on the capability at `sel`, with wild arguments,
    /// chosen by what it names. Left out: creating scheduling contexts
    /// and timers shorter than 100 k cycles — the kernel bounds neither
    /// a domain's priorities nor its timer rate, so those take a
    /// sibling's CPU time, which is not what this sweep asks.
    fn hypercall(&mut self, sys: &mut System, sel: CapSel, obj: ObjRef) {
        let dst = 0x400 + self.rng.below(64) as CapSel;
        let hc = match obj {
            ObjRef::Pt(_) => Hypercall::PtWindow {
                pt: sel,
                base: self.wild(),
                count: self.wild(),
            },
            ObjRef::Sm(_) => match self.rng.below(4) {
                0 => Hypercall::SmUp { sm: sel },
                1 => Hypercall::SmDown { sm: sel },
                2 => Hypercall::SmBind { sm: sel },
                _ => {
                    let period = 100_000 + self.rng.below(1 << 20);
                    Hypercall::SetTimer {
                        sm: sel,
                        period: self.pick(&[0, period]),
                    }
                }
            },
            ObjRef::Ec(_) => match self.rng.below(4) {
                0 => Hypercall::EcRecall { ec: sel },
                1 => Hypercall::EcResume {
                    ec: sel,
                    inject: None,
                    intwin: self.rng.below(2) == 0,
                },
                2 => Hypercall::EcSetState {
                    ec: sel,
                    regs: Regs::at(self.rng.next() as u32),
                    resume: self.rng.below(2) == 0,
                },
                _ => Hypercall::CreatePt {
                    ec: sel,
                    mtd: self.rng.next() as u32,
                    id: self.wild(),
                    dst,
                },
            },
            ObjRef::Pd(_) => match self.rng.below(5) {
                0 => Hypercall::DelegateMem {
                    dst_pd: sel,
                    base: GUEST_BASE_PAGE + self.rng.below(1024),
                    count: self.pick(&[1, 16, u64::MAX]),
                    rights: MemRights::RW_DMA,
                    hot: self.wild(),
                },
                1 => Hypercall::DelegateCap {
                    dst_pd: sel,
                    sel: self.pick(&[dproto::CLIENT_SEL_REQ, dproto::CLIENT_SEL_BATCH, 0x41]),
                    perms: Perms::ALL,
                    hot: dst,
                },
                2 => Hypercall::CreateEc {
                    pd: sel,
                    vcpu: self.rng.below(2) == 0,
                    cpu: 0,
                    dst,
                },
                3 => Hypercall::WatchdogArm {
                    pd: sel,
                    sm: 0x40,
                    timeout: self.wild(),
                },
                _ => Hypercall::DestroyPd { pd: sel },
            },
            ObjRef::Sc(_) => return,
        };
        let window = matches!(hc, Hypercall::PtWindow { .. });
        let refused = sys.k.hypercall(self.b, hc);
        if window && [dproto::CLIENT_SEL_REQ, dproto::CLIENT_SEL_BATCH].contains(&sel) {
            assert_eq!(
                refused,
                Err(HcErr::NotOwner),
                "a window on the server's portal"
            );
            self.windows_refused += 1;
        }
    }

    /// Four wild calls — through the disk portals mostly, through any
    /// portal B holds, or a hypercall on any capability it holds — with
    /// the kernel's rule asked after each.
    fn burst(&mut self, sys: &mut System) {
        for _ in 0..4 {
            let caps: Vec<_> = sys.k.obj.pd(self.b.pd).caps.iter().collect();
            let portals: Vec<CapSel> = caps
                .iter()
                .filter(|(_, c)| matches!(c.obj, ObjRef::Pt(_)))
                .map(|&(sel, _)| sel)
                .collect();
            match self.rng.below(4) {
                0 | 1 => {
                    let sel = self.pick(&[dproto::CLIENT_SEL_REQ, dproto::CLIENT_SEL_BATCH]);
                    self.ipc(sys, sel);
                }
                2 if !portals.is_empty() => {
                    let sel = self.pick(&portals);
                    self.ipc(sys, sel);
                }
                _ if !caps.is_empty() => {
                    let (sel, cap) = self.pick(&caps);
                    self.hypercall(sys, sel, cap.obj);
                }
                _ => {}
            }
            self.calls += 1;
            assert_eq!(
                sys.k.check_invariants(),
                Ok(()),
                "after call {}",
                self.calls
            );
        }
    }
}

/// The acceptance test of "a server knows its caller from the portal it
/// was called through": a second VMM, compromised, fires seeded wild
/// IPC through every portal it holds — segments into the sibling's
/// window and onto the server's command page, replayed tags, batch
/// counts past `MAX_BATCH`, typed items at every window edge — and
/// hypercalls on every capability it holds, the window hypercall on its
/// disk portals included. The sibling ends as it does unattacked: the
/// same marks, guest RAM, console, and disk operations but for the ones
/// the server accepted from the attacker; none of its requests
/// degraded, the kernel's rule held after every call, nothing panicked.
#[test]
fn hostile_vmm_sweep_leaves_the_sibling_as_it_was() {
    let reference = {
        let (mut sys, _) = sibling_and_hostile_vmm();
        run_sibling(&mut sys, |_| {})
    };
    assert_eq!(reference.marks, [0x1000, 0x1001]);
    let mut windows_refused = 0;
    for seed in vmm_seeds() {
        let (mut sys, b) = sibling_and_hostile_vmm();
        let mut hostile = HostileVmm {
            b: vmm_ctx(&sys, b),
            rng: HostileRng::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(0x5eed)),
            tags: Vec::new(),
            accepted: 0,
            windows_refused: 0,
            calls: 0,
        };
        let end = run_sibling(&mut sys, |sys| hostile.burst(sys));
        let expect = SiblingEnd {
            marks: reference.marks.clone(),
            console: reference.console.clone(),
            disk_ops: reference.disk_ops + hostile.accepted,
            ..reference
        };
        assert_eq!(end, expect, "seed {seed}: {} calls", hostile.calls);
        assert_eq!(sys.k.counters.client_degraded, 0, "seed {seed}");
        assert_eq!(sys.vmm().kill, None, "seed {seed}");
        windows_refused += hostile.windows_refused;
    }
    assert!(windows_refused > 0, "the window hypercall was tried");
}
