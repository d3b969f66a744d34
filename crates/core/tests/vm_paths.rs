//! Kernel-level tests of the VM memory paths: nested-table mirroring
//! with large pages, splintering on partial revocation, intercept
//! configuration, and vCPU lifecycle.

use nova_core::cap::Perms;
use nova_core::hypercall::{HcErr, Hypercall};
use nova_core::obj::{MemRights, VmPaging};
use nova_core::{CompCtx, Component, Kernel, KernelConfig, PdId, Utcb};
use nova_hw::machine::{Machine, MachineConfig};
use nova_hw::mmu::walk_nested;
use nova_x86::paging::{Access, NestedFormat};

struct Nop;
impl Component for Nop {
    fn name(&self) -> &str {
        "nop"
    }
    fn on_call(&mut self, _: &mut Kernel, _: CompCtx, _: u64, _: &mut Utcb) {}
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn boot() -> (Kernel, CompCtx) {
    let m = Machine::new(MachineConfig::core_i7(64 << 20));
    let mut k = Kernel::new(m, KernelConfig::default());
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::new(Nop));
    k.start_component(comp, ec);
    (
        k,
        CompCtx {
            pd: PdId(0),
            ec,
            comp,
        },
    )
}

fn create_vm(k: &mut Kernel, ctx: CompCtx, fmt: NestedFormat) -> (usize, PdId) {
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name: "vm".into(),
            vm: Some(VmPaging::Nested(fmt)),
            dst: 10,
        },
    )
    .unwrap();
    (10, PdId((k.obj.pds.len() - 1) as u32))
}

#[test]
fn aligned_delegation_uses_large_pages() {
    let (mut k, ctx) = boot();
    let (sel, vm) = create_vm(&mut k, ctx, NestedFormat::Ept4Level);
    // 512 pages, 2 MB-aligned on both sides.
    k.hypercall(
        ctx,
        Hypercall::DelegateMem {
            dst_pd: sel,
            base: 0x1000,
            count: 512,
            rights: MemRights::RW,
            hot: 0,
        },
    )
    .unwrap();
    let root = k.obj.pd(vm).nested_root.unwrap();
    let mut cyc = 0;
    let leaf = walk_nested(
        &k.machine.mem,
        root,
        NestedFormat::Ept4Level,
        0x12345,
        Access::WRITE,
        &k.machine.cost,
        &mut cyc,
    )
    .unwrap();
    assert_eq!(leaf.page_size, 2 << 20, "mirrored as one large page");
    assert_eq!(leaf.hpa, 0x1000 * 4096 + 0x12345);
}

#[test]
fn unaligned_delegation_falls_back_to_small_pages() {
    let (mut k, ctx) = boot();
    let (sel, vm) = create_vm(&mut k, ctx, NestedFormat::Ept4Level);
    k.hypercall(
        ctx,
        Hypercall::DelegateMem {
            dst_pd: sel,
            base: 0x1003, // breaks host alignment
            count: 512,
            rights: MemRights::RW,
            hot: 0,
        },
    )
    .unwrap();
    let root = k.obj.pd(vm).nested_root.unwrap();
    let mut cyc = 0;
    let leaf = walk_nested(
        &k.machine.mem,
        root,
        NestedFormat::Ept4Level,
        0x0,
        Access::READ,
        &k.machine.cost,
        &mut cyc,
    )
    .unwrap();
    assert_eq!(leaf.page_size, 4096);
}

#[test]
fn partial_revocation_splinters_large_mapping() {
    let (mut k, ctx) = boot();
    let (sel, vm) = create_vm(&mut k, ctx, NestedFormat::Ept4Level);
    k.hypercall(
        ctx,
        Hypercall::DelegateMem {
            dst_pd: sel,
            base: 0x1000,
            count: 512,
            rights: MemRights::RW,
            hot: 0,
        },
    )
    .unwrap();
    // Revoke a single page out of the middle of the 2 MB mapping.
    k.hypercall(
        ctx,
        Hypercall::RevokeMem {
            base: 0x1000 + 100,
            count: 1,
            include_self: false,
        },
    )
    .unwrap();
    let root = k.obj.pd(vm).nested_root.unwrap();
    let cost = k.machine.cost;
    let mut cyc = 0;
    // The revoked page faults.
    assert!(
        walk_nested(
            &k.machine.mem,
            root,
            NestedFormat::Ept4Level,
            100 * 4096,
            Access::READ,
            &cost,
            &mut cyc
        )
        .is_err(),
        "revoked page unreachable"
    );
    // Its neighbours survive, now as small pages.
    for probe in [99u64, 101, 0, 511] {
        let leaf = walk_nested(
            &k.machine.mem,
            root,
            NestedFormat::Ept4Level,
            probe * 4096,
            Access::WRITE,
            &cost,
            &mut cyc,
        )
        .unwrap();
        assert_eq!(leaf.page_size, 4096, "splintered to 4 KB");
        assert_eq!(leaf.hpa, (0x1000 + probe) * 4096);
    }
}

/// A VMM cannot run the microhypervisor out of frames. Splintering a
/// chunk (revoking one page of it) gives it a page table; revoking the
/// rest and delegating the chunk whole again puts a large leaf where
/// that table was linked, and the table goes back to the pool: over
/// 1,000 such cycles, in both formats, the pool does not shrink.
#[test]
fn splintering_and_remapping_a_chunk_leaks_no_table_frame() {
    for fmt in [NestedFormat::Ept4Level, NestedFormat::Npt2Level] {
        let (mut k, ctx) = boot();
        let (sel, _) = create_vm(&mut k, ctx, fmt);
        let (base, count) = (0x1000, fmt.large_page_size() / 4096);
        let delegate = Hypercall::DelegateMem {
            dst_pd: sel,
            base,
            count,
            rights: MemRights::RW,
            hot: 0,
        };
        let revoke = |count| Hypercall::RevokeMem {
            base,
            count,
            include_self: false,
        };
        k.hypercall(ctx, delegate.clone()).unwrap();
        let available = k.alloc.available();
        for cycle in 0..1_024 {
            k.hypercall(ctx, revoke(1)).unwrap();
            k.hypercall(ctx, revoke(count)).unwrap();
            k.hypercall(ctx, delegate.clone()).unwrap();
            assert_eq!(k.alloc.available(), available, "{fmt:?}: cycle {cycle}");
        }
        assert_eq!(k.check_invariants(), Ok(()), "{fmt:?}");
    }
}

#[test]
fn npt_mirroring_uses_4mb_pages() {
    let (mut k, ctx) = boot();
    let (sel, vm) = create_vm(&mut k, ctx, NestedFormat::Npt2Level);
    // 1024 pages, 4 MB-aligned.
    k.hypercall(
        ctx,
        Hypercall::DelegateMem {
            dst_pd: sel,
            base: 0x1000,
            count: 1024,
            rights: MemRights::RW,
            hot: 0,
        },
    )
    .unwrap();
    let root = k.obj.pd(vm).nested_root.unwrap();
    let mut cyc = 0;
    let leaf = walk_nested(
        &k.machine.mem,
        root,
        NestedFormat::Npt2Level,
        0x12345,
        Access::READ,
        &k.machine.cost,
        &mut cyc,
    )
    .unwrap();
    assert_eq!(leaf.page_size, 4 << 20, "AMD 4 MB host page");
    assert_eq!(cyc, k.machine.cost.walk_level, "single-level walk");
}

#[test]
fn small_page_config_never_maps_large() {
    let m = Machine::new(MachineConfig::core_i7(64 << 20));
    let mut k = Kernel::new(
        m,
        KernelConfig {
            host_large_pages: false,
            ..KernelConfig::default()
        },
    );
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::new(Nop));
    k.start_component(comp, ec);
    let ctx = CompCtx {
        pd: PdId(0),
        ec,
        comp,
    };
    let (sel, vm) = create_vm(&mut k, ctx, NestedFormat::Ept4Level);
    k.hypercall(
        ctx,
        Hypercall::DelegateMem {
            dst_pd: sel,
            base: 0x1000,
            count: 512,
            rights: MemRights::RW,
            hot: 0,
        },
    )
    .unwrap();
    let root = k.obj.pd(vm).nested_root.unwrap();
    let mut cyc = 0;
    let leaf = walk_nested(
        &k.machine.mem,
        root,
        NestedFormat::Ept4Level,
        0,
        Access::READ,
        &k.machine.cost,
        &mut cyc,
    )
    .unwrap();
    assert_eq!(leaf.page_size, 4096, "4K-pages ablation honoured");
}

#[test]
fn vcpu_creation_and_intercept_config() {
    let (mut k, ctx) = boot();
    let (sel, _vm) = create_vm(&mut k, ctx, NestedFormat::Ept4Level);
    k.hypercall(
        ctx,
        Hypercall::CreateEc {
            pd: sel,
            vcpu: true,
            cpu: 0,
            dst: 20,
        },
    )
    .unwrap();

    // Passing through ports the VM does not hold fails closed.
    let r = k.hypercall(
        ctx,
        Hypercall::EcCtrlVm {
            ec: 20,
            hlt_exit: false,
            extint_exit: false,
            passthrough: vec![(0x3f8, 8)],
        },
    );
    assert_eq!(
        r,
        Err(HcErr::BadPerm),
        "ports must be in the VM's I/O space"
    );

    // Delegate the ports, then it works.
    k.hypercall(
        ctx,
        Hypercall::DelegateIo {
            dst_pd: sel,
            base: 0x3f8,
            count: 8,
        },
    )
    .unwrap();
    k.hypercall(
        ctx,
        Hypercall::EcCtrlVm {
            ec: 20,
            hlt_exit: false,
            extint_exit: false,
            passthrough: vec![(0x3f8, 8)],
        },
    )
    .unwrap();
    let ec = nova_core::EcId((k.obj.ecs.len() - 1) as u16);
    let vmcs = k.obj.ec(ec).vmcs().unwrap();
    assert!(!vmcs.intercept_hlt);
    assert!(!vmcs.intercept_extint);
    assert!(!vmcs.io_intercepted(0x3f8));
    assert!(vmcs.io_intercepted(0x60), "everything else still exits");
}

#[test]
fn vcpu_in_non_vm_domain_rejected() {
    let (mut k, ctx) = boot();
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name: "plain".into(),
            vm: None,
            dst: 11,
        },
    )
    .unwrap();
    let r = k.hypercall(
        ctx,
        Hypercall::CreateEc {
            pd: 11,
            vcpu: true,
            cpu: 0,
            dst: 21,
        },
    );
    assert_eq!(r, Err(HcErr::BadParam));
}

#[test]
fn shadow_vm_gets_per_vcpu_shadow_tables() {
    let (mut k, ctx) = boot();
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name: "svm".into(),
            vm: Some(VmPaging::Shadow),
            dst: 12,
        },
    )
    .unwrap();
    for i in 0..2 {
        k.hypercall(
            ctx,
            Hypercall::CreateEc {
                pd: 12,
                vcpu: true,
                cpu: 0,
                dst: 30 + i,
            },
        )
        .unwrap();
    }
    // Two vCPUs -> two distinct shadow roots.
    let roots: Vec<u64> = k
        .obj
        .ecs
        .iter()
        .filter_map(|e| e.vmcs())
        .map(|v| match v.paging {
            nova_hw::vmx::PagingVirt::Shadow { root } => root,
            _ => panic!("expected shadow"),
        })
        .collect();
    assert_eq!(roots.len(), 2);
    assert_ne!(roots[0], roots[1], "one shadow table per virtual CPU");
}

#[test]
fn delegated_cap_cannot_be_amplified() {
    let (mut k, ctx) = boot();
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name: "a".into(),
            vm: None,
            dst: 13,
        },
    )
    .unwrap();
    let pd_a = PdId((k.obj.pds.len() - 1) as u32);
    k.hypercall(ctx, Hypercall::CreateSm { count: 0, dst: 40 })
        .unwrap();
    // Delegate UP-only.
    k.hypercall(
        ctx,
        Hypercall::DelegateCap {
            dst_pd: 13,
            sel: 40,
            perms: Perms::UP.union(Perms::DELEGATE),
            hot: 5,
        },
    )
    .unwrap();
    // A tries to re-delegate with MORE permissions: masked down.
    let (acomp, aec) = k.load_component(pd_a, 0, Box::new(Nop));
    let actx = CompCtx {
        pd: pd_a,
        ec: aec,
        comp: acomp,
    };
    k.hypercall(
        actx,
        Hypercall::CreatePd {
            name: "b".into(),
            vm: None,
            dst: 6,
        },
    )
    .unwrap();
    let pd_b = PdId((k.obj.pds.len() - 1) as u32);
    k.hypercall(
        actx,
        Hypercall::DelegateCap {
            dst_pd: 6,
            sel: 5,
            perms: Perms::ALL,
            hot: 7,
        },
    )
    .unwrap();
    let cap = k.obj.pd(pd_b).caps.get(7).unwrap();
    assert!(cap.perms.allows(Perms::UP));
    assert!(
        !cap.perms.allows(Perms::DOWN),
        "permissions only ever narrow along delegation"
    );
}

#[test]
fn destroy_pd_tears_everything_down() {
    let (mut k, ctx) = boot();
    let (sel, vm) = create_vm(&mut k, ctx, NestedFormat::Ept4Level);
    k.hypercall(
        ctx,
        Hypercall::DelegateMem {
            dst_pd: sel,
            base: 0x1000,
            count: 512,
            rights: MemRights::RW,
            hot: 0,
        },
    )
    .unwrap();
    k.hypercall(
        ctx,
        Hypercall::CreateEc {
            pd: sel,
            vcpu: true,
            cpu: 0,
            dst: 20,
        },
    )
    .unwrap();
    k.hypercall(
        ctx,
        Hypercall::CreateSc {
            ec: 20,
            prio: 10,
            quantum: 100_000,
            dst: 21,
        },
    )
    .unwrap();
    let frames_before = k.alloc.available();

    k.hypercall(ctx, Hypercall::DestroyPd { pd: sel }).unwrap();

    assert!(k.obj.pd(vm).dying);
    assert_eq!(k.obj.pd(vm).mem.count(), 0, "memory revoked");
    // The creator still holds its own pages.
    assert!(k.obj.pd(k.root_pd).mem.lookup(0x1000).is_some());
    // Nested-table frames returned to the pool.
    assert!(
        k.alloc.available() > frames_before,
        "page-table frames recycled"
    );
    // The vCPU is off the run queue: running the system idles instead
    // of entering the dead guest.
    let out = k.run(Some(10_000_000));
    assert!(matches!(
        out,
        nova_core::RunOutcome::Idle | nova_core::RunOutcome::Budget
    ));
}

#[test]
fn destroy_pd_cascades_to_grandchildren() {
    let (mut k, ctx) = boot();
    // root -> a -> b delegation chain, then destroy a.
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name: "a".into(),
            vm: None,
            dst: 14,
        },
    )
    .unwrap();
    let pd_a = PdId((k.obj.pds.len() - 1) as u32);
    k.hypercall(
        ctx,
        Hypercall::DelegateMem {
            dst_pd: 14,
            base: 0x200,
            count: 4,
            rights: MemRights::RW,
            hot: 0,
        },
    )
    .unwrap();
    let (acomp, aec) = k.load_component(pd_a, 0, Box::new(Nop));
    let actx = CompCtx {
        pd: pd_a,
        ec: aec,
        comp: acomp,
    };
    k.hypercall(
        actx,
        Hypercall::CreatePd {
            name: "b".into(),
            vm: None,
            dst: 8,
        },
    )
    .unwrap();
    let pd_b = PdId((k.obj.pds.len() - 1) as u32);
    k.hypercall(
        actx,
        Hypercall::DelegateMem {
            dst_pd: 8,
            base: 1,
            count: 2,
            rights: MemRights::RO,
            hot: 0x50,
        },
    )
    .unwrap();
    assert!(k.obj.pd(pd_b).mem.lookup(0x50).is_some());

    k.hypercall(ctx, Hypercall::DestroyPd { pd: 14 }).unwrap();
    assert!(
        k.obj.pd(pd_b).mem.lookup(0x50).is_none(),
        "grandchild mappings derived from the dead domain are gone"
    );
    // Calls into the dead domain's portals bounce.
    // (Its ECs are gone from the component registry.)
    assert!(k.obj.pd(pd_a).dying);
}

#[test]
fn root_cannot_be_destroyed() {
    let (mut k, ctx) = boot();
    // Root holds no self-PD cap by default; fabricate one via the
    // loaded component's SEL_SELF_PD, which names root.
    let r = k.hypercall(
        ctx,
        Hypercall::DestroyPd {
            pd: nova_core::kernel::SEL_SELF_PD,
        },
    );
    assert_eq!(r, Err(HcErr::BadParam));
}
