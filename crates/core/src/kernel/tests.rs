#![cfg(test)]

use nova_hw::machine::MachineConfig;
use nova_hw::vmx::{mtd, ExitReason};
use nova_x86::reg::Regs;

use super::*;
use crate::hypercall::{HcReply, Hypercall};
use crate::obj::VmPaging;
use crate::utcb::XferItem;

fn kernel() -> Kernel {
    let m = Machine::new(MachineConfig::core_i7(32 << 20));
    Kernel::new(m, KernelConfig::default())
}

/// A trivial component whose handler doubles the first message
/// word and counts invocations.
#[derive(Default)]
struct Doubler {
    calls: u64,
    portals: Vec<u64>,
    signals: Vec<SmId>,
}

impl Component for Doubler {
    fn name(&self) -> &str {
        "doubler"
    }
    fn on_call(&mut self, k: &mut Kernel, _ctx: CompCtx, portal_id: u64, utcb: &mut Utcb) {
        self.calls += 1;
        self.portals.push(portal_id);
        let v = utcb.word(0);
        utcb.set_msg(&[v * 2, portal_id]);
        k.charge(100);
    }
    fn on_signal(&mut self, _k: &mut Kernel, _ctx: CompCtx, sm: SmId) {
        self.signals.push(sm);
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn root_ctx(k: &Kernel, ec: EcId, comp: CompId) -> CompCtx {
    CompCtx {
        pd: k.root_pd,
        ec,
        comp,
    }
}

#[test]
fn boot_gives_root_resources() {
    let k = kernel();
    let root = k.obj.pd(k.root_pd);
    assert!(root.io.allowed(0x3f8), "root owns the UART");
    assert!(!root.io.allowed(0x20), "hypervisor keeps the PIC");
    assert!(!root.io.allowed(0x40), "hypervisor keeps the PIT");
    assert!(root.mem.lookup(0).is_some());
    // Hypervisor memory excluded.
    let hv_first_page = (32 << 20) as u64 / 4096 - HV_MEM / 4096;
    assert!(root.mem.lookup(hv_first_page).is_none());
}

/// A component learns a semaphore's id from its own capability —
/// not from where `add_sm` happened to put the newest object — and
/// the helper is the two hypercalls it replaces, no more.
#[test]
fn bound_sm_is_named_by_the_callers_capability() {
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);
    let before = k.counters.hypercalls;
    let first = k.create_bound_sm(ctx, 0x40).unwrap();
    assert_eq!(k.counters.hypercalls, before + 2, "CreateSm + SmBind");
    let second = k.create_bound_sm(ctx, 0x41).unwrap();
    assert_ne!(first, second);
    assert_eq!(k.bind_sm(ctx, 0x40), Ok(first), "not the newest semaphore");
    assert_eq!(k.counters.hypercalls, before + 5);
    assert_eq!(k.obj.sm(first).bound, Some(ec));
    assert_eq!(k.bind_sm(ctx, 0x42), Err(HcErr::BadCap));
}

#[test]
fn object_quota_rejects_gracefully() {
    let m = Machine::new(MachineConfig::core_i7(32 << 20));
    let mut k = Kernel::new(
        m,
        KernelConfig {
            obj_quota: 8,
            ..KernelConfig::default()
        },
    );
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);

    // Burn the whole quota on semaphores...
    let mut created = 0;
    for i in 0..64usize {
        match k.hypercall(
            ctx,
            Hypercall::CreateSm {
                count: 0,
                dst: 0x100 + i,
            },
        ) {
            Ok(_) => created += 1,
            Err(HcErr::QuotaExceeded) => break,
            Err(e) => panic!("unexpected error {e:?}"),
        }
    }
    assert_eq!(created, 8, "quota bounds creation");
    // ...and every further creation, of any kind, stays rejected
    // without touching kernel state.
    let pds = k.obj.pds.len();
    assert_eq!(
        k.hypercall(
            ctx,
            Hypercall::CreatePd {
                name: "greedy".into(),
                vm: None,
                dst: 0x200,
            },
        ),
        Err(HcErr::QuotaExceeded)
    );
    assert_eq!(k.obj.pds.len(), pds, "no partial allocation");
    assert!(k.counters.quota_rejections >= 2);
    // The rest of the system still works: non-creating hypercalls
    // are unaffected.
    k.hypercall(ctx, Hypercall::SmUp { sm: 0x100 }).unwrap();
}

/// A rejected `Create*` leaves the caller's object quota where it was:
/// each checks everything before it charges an object.
#[test]
fn a_rejected_create_charges_no_quota() {
    let (mut k, ctx, _) = vm_of_two_queued_vcpus();
    let plain = Hypercall::CreatePd {
        name: "plain".into(),
        vm: None,
        dst: 0x60,
    };
    k.hypercall(ctx, plain).unwrap();
    let ec = |pd, vcpu, cpu| Hypercall::CreateEc {
        pd,
        vcpu,
        cpu,
        dst: 0x61,
    };
    let rejected = [
        Hypercall::CreatePd {
            name: "far".into(),
            vm: None,
            dst: MAX_SEL,
        },
        // A vCPU runs in a VM, and every EC on a CPU that exists.
        ec(0x60, true, 0),
        ec(0x40, true, 99),
        Hypercall::CreateSc {
            ec: 0x41,
            prio: 1,
            quantum: 0,
            dst: 0x61,
        },
        // A portal's handler is a thread.
        Hypercall::CreatePt {
            ec: 0x41,
            mtd: 0,
            id: 1,
            dst: 0x61,
        },
        Hypercall::CreateSm {
            count: 0,
            dst: MAX_SEL,
        },
    ];
    for hc in rejected {
        let (kobjs, what) = (k.obj.pd(k.root_pd).kobjs, format!("{hc:?}"));
        assert_eq!(k.hypercall(ctx, hc), Err(HcErr::BadParam), "{what}");
        assert_eq!(k.obj.pd(k.root_pd).kobjs, kobjs, "{what} charged the quota");
    }
    assert_eq!(k.check_invariants(), Ok(()));
}

#[test]
fn hostile_delegate_ranges_rejected() {
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name: "sub".into(),
            vm: None,
            dst: 0x30,
        },
    )
    .unwrap();
    // A count that wraps the page-number space must fail fast.
    assert_eq!(
        k.hypercall(
            ctx,
            Hypercall::DelegateMem {
                dst_pd: 0x30,
                base: u64::MAX - 2,
                count: 8,
                rights: MemRights::RW,
                hot: 0,
            },
        ),
        Err(HcErr::BadParam)
    );
    assert_eq!(
        k.hypercall(
            ctx,
            Hypercall::RevokeMem {
                base: 4,
                count: u64::MAX,
                include_self: false,
            },
        ),
        Err(HcErr::BadParam)
    );
    assert_eq!(
        k.hypercall(
            ctx,
            Hypercall::DelegateIo {
                dst_pd: 0x30,
                base: 0xfff0,
                count: 0x20,
            },
        ),
        Err(HcErr::BadParam)
    );
}

/// The creator keeps its capability for a domain it destroyed; it
/// can put nothing into the wreck through it.
#[test]
fn a_destroyed_domain_takes_no_delegation_ec_or_device() {
    let (mut k, ctx) = root_with_portal();
    let sub = Hypercall::CreatePd {
        name: "sub".into(),
        vm: None,
        dst: 0x30,
    };
    k.hypercall(ctx, sub).unwrap();
    k.hypercall(ctx, Hypercall::DestroyPd { pd: 0x30 }).unwrap();
    for into_the_wreck in [
        Hypercall::DelegateMem {
            dst_pd: 0x30,
            base: 0x100,
            count: 1,
            rights: MemRights::RW,
            hot: 0x100,
        },
        Hypercall::DelegateIo {
            dst_pd: 0x30,
            base: 0x3f8,
            count: 1,
        },
        Hypercall::DelegateCap {
            dst_pd: 0x30,
            sel: 101,
            perms: Perms::CALL,
            hot: 5,
        },
        Hypercall::DelegateGsi {
            dst_pd: 0x30,
            gsi: 4,
        },
        Hypercall::CreateEc {
            pd: 0x30,
            vcpu: false,
            cpu: 0,
            dst: 0x31,
        },
        Hypercall::AssignDev {
            pd: 0x30,
            device: 0,
        },
    ] {
        let number = into_the_wreck.number();
        let refused = k.hypercall(ctx, into_the_wreck);
        assert_eq!(refused, Err(HcErr::BadCap), "hypercall {number}");
    }
    assert_eq!(k.check_invariants(), Ok(()));
    // Root re-issues the destroy on purpose; that stays a no-op.
    k.hypercall(ctx, Hypercall::DestroyPd { pd: 0x30 }).unwrap();
}

/// A VM's pages stop where its nested table stops reaching: 2^36
/// pages under EPT, 2^20 under NPT; any other domain's where a byte
/// address stops. One page past it is refused; it used to be
/// mirrored at a truncated guest-physical address, where
/// `check_invariants` found a leaf the space does not hold, and to
/// overflow the byte address its teardown computes.
#[test]
fn delegation_into_a_vm_stops_at_its_nested_tables_reach() {
    use nova_x86::paging::NestedFormat;
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);
    for (dst, fmt) in [
        (0x40, Some(NestedFormat::Ept4Level)),
        (0x41, Some(NestedFormat::Npt2Level)),
        (0x42, None),
    ] {
        let vm = Hypercall::CreatePd {
            name: "vm".into(),
            vm: fmt.map(VmPaging::Nested),
            dst,
        };
        k.hypercall(ctx, vm).unwrap();
        let bytes = fmt.map_or(u64::MAX, |f| f.page_size_at(f.levels()));
        let reach = bytes / PAGE_SIZE as u64;
        let into = |hot| Hypercall::DelegateMem {
            dst_pd: dst,
            base: 0x100,
            count: 1,
            rights: MemRights::RW,
            hot,
        };
        assert_eq!(k.hypercall(ctx, into(reach)), Err(HcErr::BadParam));
        k.hypercall(ctx, into(reach - 1)).unwrap();
        assert_eq!(k.check_invariants(), Ok(()), "{fmt:?}");
        k.hypercall(ctx, Hypercall::DestroyPd { pd: dst }).unwrap();
    }
}

/// A capability table grows to the selector it is given: one past
/// `MAX_SEL` is refused before anything is made, where a wild one
/// used to resize the table (`capacity overflow`, or gigabytes).
#[test]
fn a_selector_past_the_table_bound_is_refused() {
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);
    let (pds, sms) = (k.obj.pds.len(), k.obj.sms.len());
    for dst in [MAX_SEL, usize::MAX - 1] {
        let create = Hypercall::CreateSm { count: 0, dst };
        assert_eq!(k.hypercall(ctx, create), Err(HcErr::BadParam));
        let pd = Hypercall::CreatePd {
            name: "pd".into(),
            vm: None,
            dst,
        };
        assert_eq!(k.hypercall(ctx, pd), Err(HcErr::BadParam));
    }
    assert_eq!((k.obj.pds.len(), k.obj.sms.len()), (pds, sms));
    k.hypercall(ctx, Hypercall::CreateSm { count: 0, dst: 5 })
        .unwrap();
    let delegate = |hot| Hypercall::DelegateCap {
        dst_pd: SEL_SELF_PD,
        sel: 5,
        perms: Perms::ALL,
        hot,
    };
    assert_eq!(k.hypercall(ctx, delegate(usize::MAX)), Err(HcErr::BadParam));
    k.hypercall(ctx, delegate(MAX_SEL - 1)).unwrap();
    assert_eq!(k.check_invariants(), Ok(()));
}

#[test]
fn portal_call_roundtrip_with_accounting() {
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);

    k.hypercall(
        ctx,
        Hypercall::CreatePt {
            ec: 100,
            mtd: 0,
            id: 7,
            dst: 101,
        },
    )
    .expect_err("no EC capability yet");

    // Give ourselves the EC capability (boot-style, via install).
    k.install_cap(k.root_pd, 100, ObjRef::Ec(ec));
    k.hypercall(
        ctx,
        Hypercall::CreatePt {
            ec: 100,
            mtd: 0,
            id: 7,
            dst: 101,
        },
    )
    .unwrap();

    let before = k.now();
    let mut utcb = Utcb::new();
    utcb.set_msg(&[21]);
    k.ipc_call(ctx, 101, &mut utcb).unwrap();
    assert_eq!(utcb.word(0), 42);
    assert_eq!(utcb.word(1), 7, "portal id reaches the handler");
    assert!(k.now() > before, "IPC charged cycles");
    assert_eq!(k.counters.ipc_calls, 1);
    assert_eq!(k.component_mut::<Doubler>(comp).unwrap().calls, 1);
}

/// First page and size of the receive window of [`root_with_portal`]'s
/// portal: above the 32 MB of RAM, so nothing is mapped there.
const WINDOW: (u64, u64) = (0x9_0000, 0x10);

/// Root with a [`Doubler`] behind portal selector 101 (id 7), whose
/// receive window is [`WINDOW`].
fn root_with_portal() -> (Kernel, CompCtx) {
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);
    k.install_cap(k.root_pd, 100, ObjRef::Ec(ec));
    let (base, count) = WINDOW;
    for hc in [
        Hypercall::CreatePt {
            ec: 100,
            mtd: 0,
            id: 7,
            dst: 101,
        },
        Hypercall::PtWindow {
            pt: 101,
            base,
            count,
        },
    ] {
        k.hypercall(ctx, hc).unwrap();
    }
    (k, ctx)
}

/// A call carrying `item` is refused with `err` before the handler
/// runs; the items are consumed, their buffer comes back and the
/// `IpcCall` span is closed. Returns the kernel (tracing since
/// before the call), root's context and the call's request context.
fn refuse_typed_item(item: XferItem, err: HcErr) -> (Kernel, CompCtx, u64, Utcb) {
    use nova_trace::{cat, Tracer};
    let (mut k, ctx) = root_with_portal();
    k.machine.bus.trace = Tracer::new(1, 1024, cat::ALL);
    let request = k.machine.bus.trace.alloc_ctx();
    let mut utcb = Utcb::new();
    utcb.set_msg(&[21]);
    utcb.xfer.reserve(8);
    let capacity = utcb.xfer.capacity();
    utcb.xfer.push(item);
    assert_eq!(k.ipc_call(ctx, 101, &mut utcb), Err(err));
    assert!(utcb.xfer.is_empty(), "the refused items are consumed");
    assert_eq!(utcb.xfer.capacity(), capacity, "the buffer comes back");
    assert_eq!(k.component_mut::<Doubler>(ctx.comp).unwrap().calls, 0);
    assert_eq!(ipc_spans(&k), (1, 1));
    assert_eq!(k.check_invariants(), Ok(()));
    (k, ctx, request, utcb)
}

/// `IpcCall` spans the trace saw (begun, ended).
fn ipc_spans(k: &Kernel) -> (usize, usize) {
    use nova_trace::Phase;
    let events = k.machine.tracer().events();
    let ipc = |phase: Phase| {
        let of = |e: &&nova_trace::TraceEvent| e.kind == TraceKind::IpcCall && e.phase == phase;
        events.iter().filter(of).count()
    };
    (ipc(Phase::Begin), ipc(Phase::End))
}

/// Typed items take the one checked way into delegation the
/// hypercalls take: a range that wraps the page-number space…
#[test]
fn hostile_typed_mem_item_rejected() {
    let item = XferItem {
        base: 0x100,
        count: 4,
        rights: MemRights::RW,
        hot: u64::MAX - 1,
    };
    refuse_typed_item(item, HcErr::BadParam);
}

/// …and an item lands at its offset inside the portal's receive
/// window, never where the sender would put it: one page past the
/// last is refused, as is any item at all through a portal without
/// a window. A reply carries no item back.
#[test]
fn typed_items_land_only_inside_the_portals_receive_window() {
    let (base, pages) = WINDOW;
    let item = |hot, count| XferItem {
        base: 0x100,
        count,
        rights: MemRights::RW,
        hot,
    };
    refuse_typed_item(item(pages - 1, 2), HcErr::BadParam);
    refuse_typed_item(item(pages, 1), HcErr::BadParam);

    let (mut k, ctx) = root_with_portal();
    let mut utcb = Utcb::new();
    utcb.xfer.push(item(pages - 2, 2));
    k.ipc_call(ctx, 101, &mut utcb).unwrap();
    let root = &k.obj.pd(k.root_pd).mem;
    let hpa = |p| root.lookup(p).map(|m| m.hpa);
    assert_eq!(hpa(base + pages - 2), Some(0x100 * PAGE_SIZE as u64));
    assert_eq!(hpa(base + pages - 1), Some(0x101 * PAGE_SIZE as u64));
    assert!(utcb.xfer.is_empty(), "no item comes back with the reply");

    k.hypercall(
        ctx,
        Hypercall::PtWindow {
            pt: 101,
            base,
            count: 0,
        },
    )
    .unwrap();
    let mut utcb = Utcb::new();
    utcb.xfer.push(item(0, 1));
    assert_eq!(k.ipc_call(ctx, 101, &mut utcb), Err(HcErr::BadParam));
    assert_eq!(k.check_invariants(), Ok(()));
}

/// The window is the receiver's to name: a domain holding the
/// portal to call it is refused, and a window that wraps the page
/// numbers or is too large to walk is a parameter error.
#[test]
fn only_the_handlers_domain_sets_a_receive_window() {
    let (mut k, ctx) = root_with_portal();
    let pd = Hypercall::CreatePd {
        name: "client".into(),
        vm: None,
        dst: 0x30,
    };
    k.hypercall(ctx, pd).unwrap();
    let call_only = Hypercall::DelegateCap {
        dst_pd: 0x30,
        sel: 101,
        perms: Perms::CALL,
        hot: 0x20,
    };
    k.hypercall(ctx, call_only).unwrap();
    let client = CompCtx {
        pd: PdId((k.obj.pds.len() - 1) as u32),
        ..ctx
    };
    let window = |pt, base, count| Hypercall::PtWindow { pt, base, count };
    assert_eq!(
        k.hypercall(client, window(0x20, 0, 1 << 20)),
        Err(HcErr::NotOwner)
    );
    assert_eq!(k.hypercall(client, window(0x21, 0, 1)), Err(HcErr::BadCap));
    assert_eq!(k.hypercall(ctx, window(100, 0, 1)), Err(HcErr::BadCap));
    for (base, count) in [(u64::MAX, 2), (0, MAX_RANGE_PAGES + 1)] {
        let wild = window(101, base, count);
        assert_eq!(k.hypercall(ctx, wild), Err(HcErr::BadParam));
    }
    let portal = |k: &Kernel| match k.obj.pd(k.root_pd).caps.get(101).unwrap().obj {
        ObjRef::Pt(pt) => k.obj.windows.get(&pt).copied(),
        _ => unreachable!(),
    };
    assert_eq!(portal(&k), Some(WINDOW), "refusals leave the window");
    k.hypercall(ctx, window(101, 7, 3)).unwrap();
    assert_eq!(portal(&k), Some((7, 3)));
}

#[test]
fn refused_typed_item_closes_the_ipc_span_and_hands_the_buffer_back() {
    use nova_trace::causal;
    // The last page of RAM is hypervisor memory: root holds no
    // mapping of it to delegate.
    let foreign = (32 << 20) / PAGE_SIZE as u64 - 1;
    let item = XferItem {
        base: foreign,
        count: 1,
        rights: MemRights::RW,
        hot: 0,
    };
    let (mut k, ctx, request, mut utcb) = refuse_typed_item(item, HcErr::NotOwner);
    k.ipc_call(ctx, 101, &mut utcb).unwrap();
    assert_eq!(utcb.word(0), 42);

    assert_eq!(ipc_spans(&k), (2, 2));
    let events = k.machine.tracer().events();
    // The successful call is a sibling of the refused one, and the
    // handler's work hangs under it alone.
    let tree = causal::request_tree(request, &causal::by_context(&events)[&request]).unwrap();
    let calls: Vec<_> = tree
        .roots
        .iter()
        .filter(|n| n.kind == TraceKind::IpcCall)
        .collect();
    let handled = |n: &causal::SpanNode| {
        n.children
            .iter()
            .any(|c| c.kind == TraceKind::CostEmulation)
    };
    assert_eq!(calls.len(), 2);
    assert!(!handled(calls[0]) && handled(calls[1]));
}

#[test]
fn exits_route_by_the_vcpu_index_stored_at_create_ec() {
    use nova_x86::paging::NestedFormat;
    let (mut k, ctx) = root_with_portal();
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name: "vm".into(),
            vm: Some(VmPaging::Nested(NestedFormat::Ept4Level)),
            dst: 0x40,
        },
    )
    .unwrap();
    let vm = PdId((k.obj.pds.len() - 1) as u32);
    let reason = ExitReason::Cpuid { len: 2 };
    for i in 0..2 {
        let id = (i as u64) << 8 | reason.index() as u64;
        for hc in [
            Hypercall::CreateEc {
                pd: 0x40,
                vcpu: true,
                cpu: 0,
                dst: 0x41 + i,
            },
            Hypercall::CreatePt {
                ec: 100,
                mtd: 0,
                id,
                dst: 0x60 + i,
            },
            Hypercall::DelegateCap {
                dst_pd: 0x40,
                sel: 0x60 + i,
                perms: Perms::CALL,
                hot: EXIT_PORTAL_BASE + i * EXIT_PORTAL_STRIDE + reason.index(),
            },
        ] {
            k.hypercall(ctx, hc).unwrap();
        }
    }
    let (v0, v1) = (k.obj.pd(vm).vcpus[0], k.obj.pd(vm).vcpus[1]);
    assert_eq!(k.obj.ec(v0).vcpu_index, Some(0));
    assert_eq!(k.obj.ec(v1).vcpu_index, Some(1));
    assert_eq!(k.obj.ec(ctx.ec).vcpu_index, None, "threads have none");

    for v in [v0, v1] {
        k.obj.ec_mut(v).vmcs_mut().unwrap().exit = reason;
    }
    k.deliver_exit(v1);
    k.deliver_exit(v0);
    let served = |k: &mut Kernel| {
        k.component_mut::<Doubler>(ctx.comp)
            .unwrap()
            .portals
            .clone()
    };
    assert_eq!(served(&mut k), [0x102, 0x002], "each vCPU, its own stride");
    assert!(!k.obj.ec(v0).blocked && !k.obj.ec(v1).blocked);

    // An EC that is not a vCPU of its domain is parked like one
    // without a portal, not served through vCPU 0's.
    k.obj.ec_mut(v1).vcpu_index = None;
    k.deliver_exit(v1);
    assert!(k.obj.ec(v1).blocked);
    assert_eq!(served(&mut k).len(), 2);
}

/// Root and a VM of two vCPUs, each with an SC, so both are queued.
fn vm_of_two_queued_vcpus() -> (Kernel, CompCtx, [EcId; 2]) {
    use nova_x86::paging::NestedFormat;
    let (mut k, ctx) = root_with_portal();
    let vm = Some(VmPaging::Nested(NestedFormat::Ept4Level));
    let name = "vm".into();
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name,
            vm,
            dst: 0x40,
        },
    )
    .unwrap();
    for i in 0..2 {
        let (pd, vcpu, cpu, dst) = (0x40, true, 0, 0x41 + i);
        k.hypercall(ctx, Hypercall::CreateEc { pd, vcpu, cpu, dst })
            .unwrap();
        let (prio, quantum) = (7 + i as u8, 1000);
        let sc = Hypercall::CreateSc {
            ec: dst,
            prio,
            quantum,
            dst: 0x50 + i,
        };
        k.hypercall(ctx, sc).unwrap();
    }
    let vm = PdId((k.obj.pds.len() - 1) as u32);
    let vcpus = [0, 1].map(|i| k.obj.pd(vm).vcpus[i]);
    (k, ctx, vcpus)
}

/// Clauses 6 and 7 of `check_invariants` against the corruptions
/// each must see.
#[test]
fn check_invariants_sees_the_run_queues_and_the_ec_lists() {
    let (mut k, _, [_, v1]) = vm_of_two_queued_vcpus();
    let sc = k.obj.ec(v1).sc.unwrap();
    assert!(k.sched.cpu_ref(0).contains(sc));
    assert_eq!(k.check_invariants(), Ok(()));
    // A queued SC asked in again at another priority joins the
    // class it is pinned to.
    k.sched.cpu(0).enqueue(sc, 200);
    assert_eq!(k.check_invariants(), Ok(()));

    type Corrupt = fn(&mut Kernel, EcId, EcId, EcId);
    let corruptions: [(&str, Corrupt); 7] = [
        ("6: an SC queued off its priority", |k, _, v1, _| {
            let sc = k.obj.ec(v1).sc.unwrap();
            k.obj.scs[sc.0].prio = 9;
        }),
        ("6: an SC queued off its EC's CPU", |k, _, v1, _| {
            k.obj.ec_mut(v1).cpu = 1
        }),
        ("7: a vCPU index off by one", |k, _, v1, _| {
            k.obj.ec_mut(v1).vcpu_index = Some(2)
        }),
        ("7: the vCPU list out of order", |k, v0, _, _| {
            let vm = k.obj.ec(v0).pd;
            k.obj.pd_mut(vm).vcpus.reverse();
        }),
        ("7: a thread with a vCPU index", |k, _, _, t| {
            k.obj.ec_mut(t).vcpu_index = Some(0)
        }),
        ("7: a vCPU running a component", |k, v0, _, t| {
            k.obj.ec_mut(v0).comp = k.obj.ec(t).comp
        }),
        (
            "7: a destroyed domain's thread running one",
            |k, _, _, t| {
                let pd = k.obj.ec(t).pd;
                k.obj.pd_mut(pd).dying = true;
            },
        ),
    ];
    for (what, corrupt) in corruptions {
        let (mut k, ctx, [v0, v1]) = vm_of_two_queued_vcpus();
        corrupt(&mut k, v0, v1, ctx.ec);
        assert!(k.check_invariants().is_err(), "{what}");
    }
}

#[test]
fn dead_domains_ecs_lose_their_activations_and_component() {
    let (mut k, ctx) = root_with_portal();
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name: "srv".into(),
            vm: None,
            dst: 0x30,
        },
    )
    .unwrap();
    let srv = PdId((k.obj.pds.len() - 1) as u32);
    let (comp, ec) = k.load_component(srv, 0, Box::<Doubler>::default());
    let srv_ctx = CompCtx { pd: srv, ec, comp };
    k.install_cap(k.root_pd, 110, ObjRef::Ec(ec));
    k.hypercall(
        ctx,
        Hypercall::CreatePt {
            ec: 110,
            mtd: 0,
            id: 9,
            dst: 111,
        },
    )
    .unwrap();
    let mut utcb = Utcb::new();
    k.ipc_call(ctx, 111, &mut utcb).unwrap();

    // A signal queued for the server and never dispatched.
    k.hypercall(srv_ctx, Hypercall::CreateSm { count: 0, dst: 20 })
        .unwrap();
    k.hypercall(srv_ctx, Hypercall::SmBind { sm: 20 }).unwrap();
    k.hypercall(srv_ctx, Hypercall::SmUp { sm: 20 }).unwrap();
    assert_eq!(k.obj.ec(ec).activations.len(), 1);

    k.pd_fault(srv, 1);
    assert!(k.obj.ec(ec).activations.is_empty(), "a fault drops them");
    assert_eq!(k.obj.ec(ec).comp, Some(comp), "the binding outlives it");
    k.obj
        .ec_mut(ec)
        .activations
        .push_back(Activation::Signal(SmId(0)));
    k.hypercall(ctx, Hypercall::DestroyPd { pd: 0x30 }).unwrap();
    assert!(k.obj.ec(ec).activations.is_empty());
    assert_eq!(k.obj.ec(ec).comp, None);
    assert_eq!(k.ipc_call(ctx, 111, &mut utcb), Err(HcErr::Busy));
    // Even with the slot's flags cleared, a portal still pointing
    // at the dead EC finds no component behind it.
    k.obj.ec_mut(ec).busy = false;
    k.obj.pd_mut(srv).dying = false;
    assert_eq!(k.ipc_call(ctx, 111, &mut utcb), Err(HcErr::BadParam));
}

#[test]
fn watchdog_fires_on_silence_latches_and_reports_death() {
    let mut k = kernel();
    let (sup, sup_ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, sup_ec, sup);
    k.hypercall(
        ctx,
        Hypercall::CreateSc {
            ec: SEL_SELF_EC,
            prio: 10,
            quantum: 100_000,
            dst: 0x10,
        },
    )
    .unwrap();
    k.hypercall(
        ctx,
        Hypercall::CreateSm {
            count: 0,
            dst: 0x11,
        },
    )
    .unwrap();
    k.hypercall(ctx, Hypercall::SmBind { sm: 0x11 }).unwrap();
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name: "watched".into(),
            vm: None,
            dst: 0x12,
        },
    )
    .unwrap();
    let child = PdId((k.obj.pds.len() - 1) as u32);
    k.hypercall(
        ctx,
        Hypercall::WatchdogArm {
            pd: 0x12,
            sm: 0x11,
            timeout: 1_000_000,
        },
    )
    .unwrap();

    // The watched domain stays silent: the deadline expires even
    // though the system is otherwise idle.
    k.run(Some(5_000_000));
    assert_eq!(k.counters.watchdog_fires, 1);
    assert_eq!(k.component_mut::<Doubler>(sup).unwrap().signals.len(), 1);

    // Latched: silence does not re-fire until re-armed.
    k.run(Some(5_000_000));
    assert_eq!(k.counters.watchdog_fires, 1);

    // Re-arm; a domain fault notifies immediately.
    k.hypercall(
        ctx,
        Hypercall::WatchdogArm {
            pd: 0x12,
            sm: 0x11,
            timeout: 1_000_000,
        },
    )
    .unwrap();
    k.pd_fault(child, 0);
    assert_eq!(k.counters.pd_deaths, 1);
    k.run(Some(1_000_000));
    assert_eq!(k.component_mut::<Doubler>(sup).unwrap().signals.len(), 2);

    // Disarm removes the entry outright.
    k.hypercall(
        ctx,
        Hypercall::WatchdogArm {
            pd: 0x12,
            sm: 0x11,
            timeout: 0,
        },
    )
    .unwrap();
    assert!(k.watchdogs.is_empty());

    // A deadline or period past `MAX_PERIOD` is refused: it used to
    // overflow the clock arithmetic (a debug panic; in release the
    // deadline wrapped and the watchdog fired at once).
    let arm = |timeout| Hypercall::WatchdogArm {
        pd: 0x12,
        sm: 0x11,
        timeout,
    };
    let timer = |period| Hypercall::SetTimer { sm: 0x11, period };
    for hc in [arm(MAX_PERIOD + 1), arm(u64::MAX), timer(u64::MAX)] {
        assert_eq!(k.hypercall(ctx, hc), Err(HcErr::BadParam));
    }
    assert!(k.watchdogs.is_empty() && k.timers.is_empty());
    k.hypercall(ctx, arm(MAX_PERIOD)).unwrap();
    k.hypercall(ctx, timer(MAX_PERIOD)).unwrap();
}

#[test]
fn call_without_perm_fails() {
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);
    k.install_cap(k.root_pd, 100, ObjRef::Ec(ec));
    k.hypercall(
        ctx,
        Hypercall::CreatePt {
            ec: 100,
            mtd: 0,
            id: 0,
            dst: 101,
        },
    )
    .unwrap();
    // Strip CALL from the capability.
    let cap = k.obj.pd(k.root_pd).caps.get(101).unwrap();
    k.obj.pd_mut(k.root_pd).caps.set(
        101,
        Capability {
            obj: cap.obj,
            perms: Perms::NONE,
        },
    );
    let mut utcb = Utcb::new();
    assert_eq!(k.ipc_call(ctx, 101, &mut utcb), Err(HcErr::BadPerm));
}

#[test]
fn delegation_and_recursive_revocation() {
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);

    // Create two child PDs.
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name: "a".into(),
            vm: None,
            dst: 10,
        },
    )
    .unwrap();
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name: "b".into(),
            vm: None,
            dst: 11,
        },
    )
    .unwrap();
    let pd_a = PdId(1);
    let pd_b = PdId(2);

    // Delegate pages 100..104 to A at 0.., then A's pages to B.
    k.hypercall(
        ctx,
        Hypercall::DelegateMem {
            dst_pd: 10,
            base: 100,
            count: 4,
            rights: MemRights::RW,
            hot: 0,
        },
    )
    .unwrap();
    assert!(k.obj.pd(pd_a).mem.lookup(0).is_some());
    assert_eq!(
        k.obj.pd(pd_a).mem.lookup(0).unwrap().hpa,
        100 * 4096,
        "mapped to root's frame"
    );

    // A delegates page 1 to B (kernel-internal path).
    k.delegate_mem(pd_a, pd_b, 1, 1, MemRights::RO, 50).unwrap();
    assert!(k.obj.pd(pd_b).mem.lookup(50).is_some());
    assert!(
        !k.obj.pd(pd_b).mem.lookup(50).unwrap().rights.write,
        "rights reduced on delegation"
    );

    // Root revokes its pages: both children lose them.
    k.hypercall(
        ctx,
        Hypercall::RevokeMem {
            base: 100,
            count: 4,
            include_self: false,
        },
    )
    .unwrap();
    assert!(k.obj.pd(pd_a).mem.lookup(0).is_none());
    assert!(k.obj.pd(pd_b).mem.lookup(50).is_none());
    assert!(
        k.obj.pd(k.root_pd).mem.lookup(100).is_some(),
        "root keeps its own mapping"
    );
}

/// Root with a component context and `names.len()` child domains at
/// selectors 10, 11, … (`PdId` 1, 2, …).
fn root_with_children(names: &[&str]) -> (Kernel, CompCtx) {
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);
    for (i, name) in names.iter().enumerate() {
        let hc = Hypercall::CreatePd {
            name: (*name).into(),
            vm: None,
            dst: 10 + i as CapSel,
        };
        k.hypercall(ctx, hc).unwrap();
    }
    (k, ctx)
}

/// Boot records root's holdings once, in its spaces: the databases
/// learn of a resource with its first delegation. The port space
/// root gets is every port but the PIC's and the PIT's.
#[test]
fn boot_leaves_the_mapping_databases_empty() {
    let k = kernel();
    assert_eq!(k.mapdb_nodes(), (0, 0, 0));
    assert_eq!(k.check_invariants(), Ok(()));
    let root = k.obj.pd(k.root_pd);
    for port in 0..=u16::MAX {
        let claimed = nova_hw::pic::DualPic::owns_port(port) || (0x40..=0x43).contains(&port);
        assert_eq!(root.io.allowed(port), !claimed, "port {port:#x}");
    }
}

/// The own-holding half of revocation, for all three kinds: with
/// `include_self` the owner's holding leaves its space although no
/// node ever tracked it; without, revoking what was never
/// delegated does nothing and makes no node.
#[test]
fn revocation_gives_up_an_untracked_holding_only_with_include_self() {
    let (mut k, ctx) = root_with_children(&[]);
    let sm = Capability {
        obj: ObjRef::Sm(SmId(0)),
        perms: Perms::ALL,
    };
    // Straight into the space, as root's supervisor code does for
    // a dead VM's domain: no hypercall made this one.
    k.obj.pd_mut(k.root_pd).caps.set(77, sm);
    let holds = |k: &Kernel| {
        let root = k.obj.pd(k.root_pd);
        (
            root.mem.lookup(100).is_some(),
            root.io.allowed(0x3f8),
            root.caps.get(77).is_some(),
        )
    };
    let revoke_all = |k: &mut Kernel, include_self: bool| {
        for hc in [
            Hypercall::RevokeMem {
                base: 100,
                count: 1,
                include_self,
            },
            Hypercall::RevokeIo {
                base: 0x3f8,
                count: 1,
                include_self,
            },
            Hypercall::RevokeCap {
                sel: 77,
                include_self,
            },
        ] {
            k.hypercall(ctx, hc).unwrap();
        }
    };
    revoke_all(&mut k, false);
    assert_eq!(holds(&k), (true, true, true), "nothing was delegated");
    assert_eq!(k.mapdb_nodes(), (0, 0, 0), "and no node appeared");
    revoke_all(&mut k, true);
    assert_eq!(holds(&k), (false, false, false), "own holdings given up");
    assert_eq!(k.mapdb_nodes(), (0, 0, 0));
    assert!(
        k.obj.pd(k.root_pd).mem.lookup(101).is_some(),
        "and no other"
    );
    assert!(k.obj.pd(k.root_pd).io.allowed(0x3f9));
    assert_eq!(k.check_invariants(), Ok(()));
}

/// Root → A → B, then root revokes below itself: A's and B's
/// mappings go, root's stays, and the origin the first delegation
/// made for root's page is still there to delegate from.
#[test]
fn revoking_below_an_origin_keeps_it_delegable() {
    let (mut k, ctx) = root_with_children(&["a", "b"]);
    let (pd_a, pd_b) = (PdId(1), PdId(2));
    let to_a = Hypercall::DelegateMem {
        dst_pd: 10,
        base: 100,
        count: 1,
        rights: MemRights::RW,
        hot: 7,
    };
    k.hypercall(ctx, to_a.clone()).unwrap();
    k.delegate_mem(pd_a, pd_b, 7, 1, MemRights::RO, 9).unwrap();
    assert_eq!(k.mapdb_nodes().0, 3, "origin, A's node, B's node");
    assert_eq!(k.mem_db.depth((pd_b.0, 9)), Some(2));
    assert_eq!(k.check_invariants(), Ok(()));

    k.hypercall(
        ctx,
        Hypercall::RevokeMem {
            base: 100,
            count: 1,
            include_self: false,
        },
    )
    .unwrap();
    assert!(k.obj.pd(pd_a).mem.lookup(7).is_none());
    assert!(k.obj.pd(pd_b).mem.lookup(9).is_none());
    assert!(k.obj.pd(k.root_pd).mem.lookup(100).is_some());
    assert_eq!(k.mapdb_nodes().0, 1, "the origin stays");
    assert_eq!(k.check_invariants(), Ok(()));

    k.hypercall(ctx, to_a).unwrap();
    assert_eq!(k.mem_db.parent((pd_a.0, 7)), Some((k.root_pd.0, 100)));
    assert_eq!(k.mapdb_nodes().0, 2);
    assert_eq!(k.check_invariants(), Ok(()));
}

/// `DestroyPd` takes every holding out of the domain's spaces and
/// every node that names the domain out of the databases — what it
/// received, and what others derived from that.
#[test]
fn destroy_pd_removes_every_holding_and_every_node_naming_it() {
    let (mut k, ctx) = root_with_children(&["a", "b"]);
    let (pd_a, pd_b) = (PdId(1), PdId(2));
    k.hypercall(ctx, Hypercall::CreateSm { count: 0, dst: 30 })
        .unwrap();
    for hc in [
        Hypercall::DelegateMem {
            dst_pd: 10,
            base: 100,
            count: 4,
            rights: MemRights::RW,
            hot: 0,
        },
        Hypercall::DelegateIo {
            dst_pd: 10,
            base: 0x3f8,
            count: 8,
        },
        Hypercall::DelegateCap {
            dst_pd: 10,
            sel: 30,
            perms: Perms::UP.union(Perms::DELEGATE),
            hot: 5,
        },
    ] {
        k.hypercall(ctx, hc).unwrap();
    }
    k.delegate_mem(pd_a, pd_b, 1, 2, MemRights::RO, 50).unwrap();
    k.delegate_io(pd_a, pd_b, 0x3f8, 2).unwrap();
    k.delegate_cap(pd_a, pd_b, 5, Perms::UP, 6).unwrap();
    // And one capability A was handed by the kernel, for an object
    // of its own: held, and tracked by nobody.
    let own = Capability {
        obj: ObjRef::Sm(SmId(0)),
        perms: Perms::ALL,
    };
    k.obj.pd_mut(pd_a).caps.set(40, own);
    // A node per range: root's origin, A's range, B's range — for
    // 4 + 4 + 2 pages and 8 + 8 + 2 ports.
    assert_eq!(k.mapdb_nodes(), (3, 3, 3));
    assert_eq!(k.check_invariants(), Ok(()));

    k.hypercall(ctx, Hypercall::DestroyPd { pd: 10 }).unwrap();
    for pd in [pd_a, pd_b] {
        let d = k.obj.pd(pd);
        assert_eq!((d.mem.count(), d.io.count(), d.caps.count()), (0, 0, 0));
    }
    let names = |pd: PdId| {
        let mem = k.mem_db.iter().any(|((p, _), _, _)| p == pd.0);
        let io = k.io_db.iter().any(|((p, _), _, _)| p == pd.0);
        mem || io || k.cap_db.iter().any(|((p, _), _, _)| p == pd.0)
    };
    assert!(!names(pd_a) && !names(pd_b));
    assert_eq!(
        k.mapdb_nodes(),
        (1, 1, 1),
        "root's origins are what is left"
    );
    assert!(k.mem_db.contains(k.root_pd.0, 103) && k.io_db.contains(k.root_pd.0, 0x3ff));
    assert_eq!(k.check_invariants(), Ok(()));
}

#[test]
fn delegate_requires_ownership() {
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name: "a".into(),
            vm: None,
            dst: 10,
        },
    )
    .unwrap();
    // Root does not own hypervisor pages.
    let hv_page = (32 << 20) as u64 / 4096 - 1;
    let r = k.hypercall(
        ctx,
        Hypercall::DelegateMem {
            dst_pd: 10,
            base: hv_page,
            count: 1,
            rights: MemRights::RW,
            hot: 0,
        },
    );
    assert_eq!(r, Err(HcErr::NotOwner), "hypervisor memory is unreachable");
}

#[test]
fn io_delegation_and_revocation() {
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name: "drv".into(),
            vm: None,
            dst: 10,
        },
    )
    .unwrap();
    let drv = PdId(1);
    k.hypercall(
        ctx,
        Hypercall::DelegateIo {
            dst_pd: 10,
            base: 0x3f8,
            count: 8,
        },
    )
    .unwrap();
    assert!(k.obj.pd(drv).io.allowed(0x3f8));
    // PIC ports can never be delegated: root does not own them.
    let r = k.hypercall(
        ctx,
        Hypercall::DelegateIo {
            dst_pd: 10,
            base: 0x20,
            count: 1,
        },
    );
    assert_eq!(r, Err(HcErr::NotOwner));
    k.hypercall(
        ctx,
        Hypercall::RevokeIo {
            base: 0x3f8,
            count: 8,
            include_self: false,
        },
    )
    .unwrap();
    assert!(!k.obj.pd(drv).io.allowed(0x3f8));
}

/// The last port of the space comes back like any other: the range
/// `DelegateIo` accepted up to `0x10000` is revoked whole, and a
/// range past it is refused, as `DelegateIo` refuses one.
#[test]
fn revoke_io_reaches_the_last_port() {
    let (mut k, ctx) = root_with_children(&["drv"]);
    let drv = PdId(1);
    let (base, count) = (0xfff0, 0x10);
    let delegate = Hypercall::DelegateIo {
        dst_pd: 10,
        base,
        count,
    };
    k.hypercall(ctx, delegate).unwrap();
    assert_eq!(k.obj.pd(drv).io.iter().last(), Some(0xffff));
    let revoke = |count| Hypercall::RevokeIo {
        base,
        count,
        include_self: false,
    };
    k.hypercall(ctx, revoke(count)).unwrap();
    assert_eq!(k.obj.pd(drv).io.count(), 0, "the child holds none of them");
    assert_eq!(k.mapdb_nodes().1, 1, "root's origin is what is left");
    assert_eq!(k.hypercall(ctx, revoke(count + 1)), Err(HcErr::BadParam));
    assert!(k.obj.pd(k.root_pd).io.allowed(0xffff));
    assert_eq!(k.check_invariants(), Ok(()));
}

/// `EcCtrlVm` passes a range through up to the last port, and refuses
/// one that runs past it rather than cut it short.
#[test]
fn ec_ctrl_vm_reaches_the_last_port() {
    let (mut k, ctx, [v0, _]) = vm_of_two_queued_vcpus();
    let delegate = Hypercall::DelegateIo {
        dst_pd: 0x40,
        base: 0xff00,
        count: 0x100,
    };
    k.hypercall(ctx, delegate).unwrap();
    let ctrl = |passthrough| Hypercall::EcCtrlVm {
        ec: 0x41,
        hlt_exit: true,
        extint_exit: true,
        passthrough,
    };
    k.hypercall(ctx, ctrl(vec![(0xff00, 0x100)])).unwrap();
    let vmcs = k.obj.ec(v0).vmcs().unwrap();
    assert!(!vmcs.io_intercepted(0xff00) && !vmcs.io_intercepted(0xffff));
    assert!(vmcs.io_intercepted(0xfeff));
    let past = ctrl(vec![(0xfff0, 0x20)]);
    assert_eq!(k.hypercall(ctx, past), Err(HcErr::BadParam));
}

#[test]
fn semaphore_binding_and_signal_dispatch() {
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);
    k.install_cap(k.root_pd, 100, ObjRef::Ec(ec));
    k.hypercall(ctx, Hypercall::CreateSm { count: 0, dst: 20 })
        .unwrap();
    k.hypercall(
        ctx,
        Hypercall::CreateSc {
            ec: 100,
            prio: 5,
            quantum: 10_000,
            dst: 21,
        },
    )
    .unwrap();
    k.hypercall(ctx, Hypercall::SmBind { sm: 20 }).unwrap();
    k.hypercall(ctx, Hypercall::SmUp { sm: 20 }).unwrap();
    // The signal is an activation; run the scheduler to deliver.
    let out = k.run(Some(1_000_000));
    assert_eq!(out, RunOutcome::Idle);
    let d = k.component_mut::<Doubler>(comp).unwrap();
    assert_eq!(d.signals.len(), 1);
}

#[test]
fn unbound_semaphore_counts() {
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);
    k.hypercall(ctx, Hypercall::CreateSm { count: 0, dst: 20 })
        .unwrap();
    k.hypercall(ctx, Hypercall::SmUp { sm: 20 }).unwrap();
    k.hypercall(ctx, Hypercall::SmUp { sm: 20 }).unwrap();
    assert_eq!(
        k.hypercall(ctx, Hypercall::SmDown { sm: 20 }),
        Ok(HcReply::Down { acquired: true })
    );
    assert_eq!(
        k.hypercall(ctx, Hypercall::SmDown { sm: 20 }),
        Ok(HcReply::Down { acquired: true })
    );
    assert_eq!(
        k.hypercall(ctx, Hypercall::SmDown { sm: 20 }),
        Ok(HcReply::Down { acquired: false })
    );
}

#[test]
fn gsi_routing_via_pit() {
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);
    k.install_cap(k.root_pd, 100, ObjRef::Ec(ec));
    k.hypercall(ctx, Hypercall::CreateSm { count: 0, dst: 20 })
        .unwrap();
    k.hypercall(
        ctx,
        Hypercall::CreateSc {
            ec: 100,
            prio: 5,
            quantum: 10_000,
            dst: 21,
        },
    )
    .unwrap();
    k.hypercall(ctx, Hypercall::SmBind { sm: 20 }).unwrap();
    k.hypercall(ctx, Hypercall::AssignGsi { sm: 20, gsi: 0 })
        .unwrap();

    // Pulse IRQ 0 as the PIT would.
    k.machine.bus.pic.pulse(0);
    let out = k.run(Some(1_000_000));
    assert_eq!(out, RunOutcome::Idle);
    let d = k.component_mut::<Doubler>(comp).unwrap();
    assert_eq!(d.signals.len(), 1, "interrupt delivered as signal");
}

#[test]
fn assign_gsi_requires_ownership() {
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);
    // Create a child PD and a component inside it.
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name: "drv".into(),
            vm: None,
            dst: 10,
        },
    )
    .unwrap();
    let drv_pd = PdId(1);
    let (dcomp, dec) = k.load_component(drv_pd, 0, Box::<Doubler>::default());
    let dctx = CompCtx {
        pd: drv_pd,
        ec: dec,
        comp: dcomp,
    };
    k.hypercall(dctx, Hypercall::CreateSm { count: 0, dst: 0 })
        .unwrap();
    assert_eq!(
        k.hypercall(dctx, Hypercall::AssignGsi { sm: 0, gsi: 3 }),
        Err(HcErr::NotOwner)
    );
    // Root passes ownership, then it works.
    k.hypercall(ctx, Hypercall::DelegateGsi { dst_pd: 10, gsi: 3 })
        .unwrap();
    assert_eq!(
        k.hypercall(dctx, Hypercall::AssignGsi { sm: 0, gsi: 3 }),
        Ok(HcReply::Ok)
    );
}

#[test]
fn device_access_requires_io_space() {
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);
    // Root can touch the UART.
    assert!(k.dev_io_write(ctx, 0x3f8, OpSize::Byte, b'x' as u32));
    // But not the PIC.
    assert!(!k.dev_io_write(ctx, 0x20, OpSize::Byte, 0x20));
    assert!(k.dev_io_read(ctx, 0x21, OpSize::Byte).is_none());
}

#[test]
fn mem_access_respects_rights() {
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);
    assert!(k.mem_write_u32(ctx, 0x5000, 0xabcd));
    assert_eq!(k.mem_read_u32(ctx, 0x5000), Some(0xabcd));
    // Hypervisor memory is not mapped.
    let hv = (32 << 20) as u64 - 4096;
    assert!(!k.mem_write_u32(ctx, hv, 1));
    assert_eq!(k.mem_read_u32(ctx, hv), None);
}

/// `mem_refresh` into a dense image of the window: each page handed
/// out is copied to its place.
fn refresh_into(
    k: &Kernel,
    ctx: CompCtx,
    addr: u64,
    runs: &mut WindowRuns,
    image: &mut [u8],
    seen: &mut [u64],
) -> Option<usize> {
    k.mem_refresh(ctx, addr, runs, seen, |i, page| {
        image[i * 4096..(i + 1) * 4096].copy_from_slice(page)
    })
}

#[test]
fn mem_refresh_copies_exactly_the_pages_written_since() {
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);
    let base = 0x8000u64;
    let mut image = vec![0xffu8; 3 * 4096];
    let (mut runs, mut seen) = (WindowRuns::default(), vec![u64::MAX; 3]);
    assert!(k.mem_write(ctx, base + 4096, &[7; 16]));
    assert_eq!(
        refresh_into(&k, ctx, base, &mut runs, &mut image, &mut seen),
        Some(3)
    );
    let mut now = vec![0u8; 3 * 4096];
    k.mem_read_into(ctx, base, &mut now).unwrap();
    assert_eq!(image, now);
    assert_eq!(
        refresh_into(&k, ctx, base, &mut runs, &mut image, &mut seen),
        Some(0)
    );

    // Each kind of kernel-side writer moves its page, and only it.
    assert!(k.mem_write_u32(ctx, base + 8, 1));
    assert_eq!(
        refresh_into(&k, ctx, base, &mut runs, &mut image, &mut seen),
        Some(1)
    );
    assert!(k.mem_fill(ctx, base + 4096 + 100, 4096, 9)); // pages 1 and 2
    assert_eq!(
        refresh_into(&k, ctx, base, &mut runs, &mut image, &mut seen),
        Some(2)
    );
    k.mem_slice_mut(ctx, base + 2 * 4096, 4).unwrap()[0] = 3;
    assert_eq!(
        refresh_into(&k, ctx, base, &mut runs, &mut image, &mut seen),
        Some(1)
    );
    k.mem_read_into(ctx, base, &mut now).unwrap();
    assert_eq!(image, now);

    // A page that moved back to zeros is handed out too: the
    // caller decides what a page of zeros is to it.
    assert!(k.mem_fill(ctx, base, 4096, 0));
    let mut handed = Vec::new();
    k.mem_refresh(ctx, base, &mut runs, &mut seen, |i, p| {
        handed.push((i, p.to_vec()))
    });
    assert_eq!(handed, [(0, vec![0; 4096])]);

    // A refused call hands out nothing: misaligned, or a window
    // that runs into unmapped (hypervisor) memory behind two
    // mapped, dirty pages.
    assert!(k.mem_fill(ctx, base, 3 * 4096, 0x55));
    let seen0 = seen.clone();
    let refused = |k: &Kernel, addr, runs: &mut WindowRuns, seen: &mut [u64]| {
        k.mem_refresh(ctx, addr, runs, seen, |i, _| panic!("page {i} handed out"))
    };
    assert_eq!(refused(&k, base + 1, &mut runs, &mut seen), None);
    let hv = (32 << 20) as u64 - HV_MEM;
    assert!(k.mem_fill(ctx, hv - 2 * 4096, 2 * 4096, 0x66));
    let mut seen_hv = vec![u64::MAX; 3];
    assert_eq!(refused(&k, hv - 2 * 4096, &mut runs, &mut seen_hv), None);
    assert_eq!(seen, seen0);
    assert_eq!(seen_hv, [u64::MAX; 3]);
}

#[test]
fn mem_restore_writes_exactly_the_pages_that_moved() {
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);
    let base = 0x8000u64;
    let gens = |k: &Kernel| [0, 1, 2, 3].map(|p| k.machine.mem.frame_gen(base + p * 4096));
    let read = |k: &Kernel| {
        let mut now = vec![0u8; 4 * 4096];
        k.mem_read_into(ctx, base, &mut now).unwrap();
        now
    };
    assert!(k.mem_write(ctx, base + 4096, &[7; 16]));
    let mut image = vec![0u8; 4 * 4096];
    let (mut runs, mut seen) = (WindowRuns::default(), vec![u64::MAX; 4]);
    assert_eq!(
        refresh_into(&k, ctx, base, &mut runs, &mut image, &mut seen),
        Some(4)
    );
    // The image as a checkpoint keeps it: a page of zeros is absent.
    let restore = |k: &mut Kernel, runs: &mut WindowRuns, image: &[u8], seen: &mut [u64]| {
        k.mem_restore(ctx, base, runs, seen, |i| {
            let page = &image[i * 4096..(i + 1) * 4096];
            page.iter().any(|&b| b != 0).then_some(page)
        })
    };

    // Nothing moved: nothing is written, no generation bumped.
    let at_capture = gens(&k);
    assert_eq!(restore(&mut k, &mut runs, &image, &mut seen), Some(0));
    assert_eq!(gens(&k), at_capture);

    // Pages 0, 1 and 2 move — one of them back to the bytes it had,
    // two of them absent from the image: those read zeros again.
    assert!(k.mem_write_u32(ctx, base + 8, 1));
    assert!(k.mem_write_u32(ctx, base + 4096 + 8, 2));
    assert!(k.mem_write(ctx, base + 2 * 4096, &[0; 4]));
    assert_eq!(restore(&mut k, &mut runs, &image, &mut seen), Some(3));
    assert_eq!(read(&k), image);
    let now = gens(&k);
    assert_eq!(now[3], at_capture[3]);
    assert!((0..3).all(|p| now[p] > at_capture[p]));
    // The table holds the generations the writes left, for both
    // directions: neither a capture nor a restore has work to do.
    assert_eq!(seen, now);
    assert_eq!(
        refresh_into(&k, ctx, base, &mut runs, &mut image, &mut seen),
        Some(0)
    );
    assert_eq!(restore(&mut k, &mut runs, &image, &mut seen), Some(0));

    // `u64::MAX` writes the page whatever its generation.
    image[3 * 4096] = 0x77;
    seen[3] = u64::MAX;
    assert_eq!(restore(&mut k, &mut runs, &image, &mut seen), Some(1));
    assert_eq!(read(&k), image);

    // A refused call writes nothing: misaligned, with every page
    // stale.
    assert!(k.mem_fill(ctx, base, 4 * 4096, 0x55));
    let (mem0, seen0) = (read(&k), seen.clone());
    assert_eq!(
        k.mem_restore(ctx, base + 1, &mut runs, &mut seen, |_| None),
        None
    );
    assert_eq!((read(&k), seen), (mem0, seen0));
}

/// The window sweeps' run cache, tried with each edit that must end
/// it, a window refreshed between each: a page remapped to another
/// frame, a page unmapped, the same window asked for under a second PD
/// (whose space is at the same generation), and a restore after a page
/// was remapped read-only.
#[test]
fn window_runs_are_cut_again_when_their_key_moves() {
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let root = root_ctx(&k, ec, comp);
    let (window, pages) = (0x40u64, 4usize);
    let hc = |k: &mut Kernel, hc| k.hypercall(root, hc).unwrap();
    let give = |dst_pd, base, count, hot, rights| Hypercall::DelegateMem {
        dst_pd,
        base,
        count,
        rights,
        hot,
    };
    let take = |base| Hypercall::RevokeMem {
        base,
        count: 1,
        include_self: false,
    };
    let pd = |k: &mut Kernel, sel, frames| {
        let (name, vm) = ("window".into(), None);
        hc(k, Hypercall::CreatePd { name, vm, dst: sel });
        hc(k, give(sel, frames, pages as u64, window, MemRights::RW));
        match k.obj.pd(k.root_pd).caps.get(sel).map(|c| c.obj) {
            Some(ObjRef::Pd(pd)) => CompCtx { pd, ..root },
            _ => unreachable!(),
        }
    };
    let (a, b) = (pd(&mut k, 0x30, 0x100), pd(&mut k, 0x31, 0x200));
    let gen = |k: &Kernel, c: CompCtx| k.obj.pd(c.pd).mem.gen;
    assert_eq!(gen(&k, a), gen(&k, b), "only the PdId tells them apart");
    for (frame, byte) in [(0x100, 0xa0), (0x200, 0xb0), (0x300, 0xc0)] {
        for p in 0..pages as u64 {
            assert!(k.mem_fill(root, (frame + p) << 12, 4096, byte + p as u8));
        }
    }
    let mut runs = WindowRuns::default();
    let refresh = |k: &Kernel, c: CompCtx, runs: &mut WindowRuns, seen: &mut [u64]| {
        let mut handed = Vec::new();
        let n = k.mem_refresh(c, window << 12, runs, seen, |i, p| handed.push((i, p[0])));
        n.map(|_| handed)
    };
    let (mut seen_a, mut seen_b) = (vec![u64::MAX; pages], vec![u64::MAX; pages]);
    let all = |byte| (0..pages).map(|i| (i, byte + i as u8)).collect::<Vec<_>>();
    assert_eq!(refresh(&k, a, &mut runs, &mut seen_a), Some(all(0xa0)));
    // A second PD's window at the same address: its own frames.
    assert_eq!(refresh(&k, b, &mut runs, &mut seen_b), Some(all(0xb0)));
    assert_eq!(refresh(&k, a, &mut runs, &mut seen_a), Some(vec![]));

    // Page 1 remapped to frame 0x301, at another write generation than
    // the one `seen` holds: the next refresh hands out its bytes.
    hc(&mut k, take(0x101));
    hc(&mut k, give(0x30, 0x301, 1, window + 1, MemRights::RW));
    assert!(k.mem_write_u32(root, 0x301 << 12, 0xc1c1_c1c1));
    assert_ne!(k.machine.mem.frame_gen(0x301 << 12), seen_a[1]);
    assert_eq!(
        refresh(&k, a, &mut runs, &mut seen_a),
        Some(vec![(1, 0xc1)])
    );

    // Page 2 unmapped: refused, `seen` untouched.
    hc(&mut k, take(0x102));
    let before = seen_a.clone();
    assert_eq!(refresh(&k, a, &mut runs, &mut seen_a), None);
    assert_eq!(seen_a, before);

    // Mapped again: a restore cuts the window for writing; then page 2
    // turns read-only. A refresh may read it, a restore after that
    // refresh (page 0 stale again) is refused, memory and `seen`
    // untouched.
    hc(&mut k, give(0x30, 0x102, 1, window + 2, MemRights::RW));
    let image = vec![0x5a; pages * 4096];
    let restore = |k: &mut Kernel, runs: &mut WindowRuns, seen: &mut [u64]| {
        k.mem_restore(a, window << 12, runs, seen, |i| {
            Some(&image[i * 4096..][..4096])
        })
    };
    assert_eq!(restore(&mut k, &mut runs, &mut seen_a), Some(0));
    hc(&mut k, take(0x102));
    hc(&mut k, give(0x30, 0x102, 1, window + 2, MemRights::RO));
    assert!(k.mem_fill(root, 0x100 << 12, 4096, 0xee));
    let got = refresh(&k, a, &mut runs, &mut seen_a);
    assert_eq!(got, Some(vec![(0, 0xee)]));
    assert!(k.mem_fill(root, 0x100 << 12, 4096, 0xef));
    let (before, frame0) = (seen_a.clone(), k.machine.mem.frame_gen(0x100 << 12));
    assert_eq!(restore(&mut k, &mut runs, &mut seen_a), None);
    assert_eq!(seen_a, before);
    assert_eq!(k.machine.mem.frame_gen(0x100 << 12), frame0);
    assert_eq!(k.machine.mem.read_u8(0x100 << 12), 0xef);
}

/// A revocation shoots every affected VM's TLB down — once per
/// hypercall, however many pages the range has — and nobody else's.
#[test]
fn revoking_a_range_flushes_each_affected_vm_once() {
    use nova_hw::tlb::TlbEntry;
    use nova_x86::paging::NestedFormat;
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);
    let vm = |k: &mut Kernel, sel: CapSel| -> u16 {
        let paging = Some(VmPaging::Nested(NestedFormat::Ept4Level));
        for hc in [
            Hypercall::CreatePd {
                name: "vm".into(),
                vm: paging,
                dst: sel,
            },
            Hypercall::DelegateMem {
                dst_pd: sel,
                base: 0x800,
                count: 8,
                rights: MemRights::RW,
                hot: 0,
            },
            Hypercall::CreateEc {
                pd: sel,
                vcpu: true,
                cpu: 0,
                dst: sel + 1,
            },
        ] {
            k.hypercall(ctx, hc).unwrap();
        }
        k.obj.ecs.last().unwrap().vmcs().unwrap().vpid
    };
    let (a, b) = (vm(&mut k, 0x40), vm(&mut k, 0x50));
    let bystander = 0x3ff;
    assert!(a != 0 && b != 0 && a != b, "tagged, one VPID per VM");
    // Eight entries per tag, each tag in TLB sets of its own (the
    // arrays are direct-mapped by page number).
    let tags = [a, b, bystander];
    let warm = |k: &mut Kernel| {
        for (i, vpid) in tags.into_iter().enumerate() {
            for vpn in (i as u64 * 8..).take(8) {
                k.machine.cpus[0].tlb.insert(TlbEntry {
                    vpid,
                    vpn,
                    hpa: (0x800 + vpn % 8) << 12,
                    page_size: 4096,
                    write: true,
                });
            }
        }
    };
    let cached = |k: &mut Kernel| {
        let tlb = &mut k.machine.cpus[0].tlb;
        [0, 1, 2].map(|i| {
            (i as u64 * 8..)
                .take(8)
                .filter(|p| tlb.lookup(tags[i], p << 12).is_some())
                .count()
        })
    };

    warm(&mut k);
    assert_eq!(cached(&mut k), [8, 8, 8]);
    let flushes = k.machine.cpus[0].tlb.stats.flushes;
    k.hypercall(
        ctx,
        Hypercall::RevokeMem {
            base: 0x800,
            count: 8,
            include_self: false,
        },
    )
    .unwrap();
    assert_eq!(k.machine.cpus[0].tlb.stats.flushes - flushes, 2);
    assert_eq!(cached(&mut k), [0, 0, 8]);

    // Teardown: one flush after the domain's pages are revoked,
    // one when its tables are gone — not one per page.
    for sel in [0x40, 0x50] {
        k.hypercall(
            ctx,
            Hypercall::DelegateMem {
                dst_pd: sel,
                base: 0x800,
                count: 8,
                rights: MemRights::RW,
                hot: 0,
            },
        )
        .unwrap();
    }
    warm(&mut k);
    assert_eq!(cached(&mut k), [8, 8, 8]);
    let flushes = k.machine.cpus[0].tlb.stats.flushes;
    k.hypercall(ctx, Hypercall::DestroyPd { pd: 0x40 }).unwrap();
    assert_eq!(k.machine.cpus[0].tlb.stats.flushes - flushes, 2);
    assert_eq!(cached(&mut k), [0, 8, 8]);
}

/// `check_invariants`' hardware-table clause sees each way a nested
/// table or an IOMMU context can hold what the space does not: a
/// stray 4 KB leaf, a large leaf over a chunk one leaf cannot stand
/// for, a page table nothing links to, a device mapping of a page the
/// domain does not hold.
#[test]
fn check_invariants_sees_what_the_hardware_tables_hold() {
    use nova_hw::mmu::nested_entry;
    use nova_x86::paging::NestedFormat;
    let fmt = NestedFormat::Ept4Level;
    let vm = |revoked: u64| {
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);
        let paging = Some(VmPaging::Nested(fmt));
        let device = k.machine.dev.ahci;
        for hc in [
            Hypercall::CreatePd {
                name: "vm".into(),
                vm: paging,
                dst: 0x40,
            },
            Hypercall::AssignDev { pd: 0x40, device },
            Hypercall::DelegateMem {
                dst_pd: 0x40,
                base: 0x800,
                count: 512,
                rights: MemRights::RW_DMA,
                hot: 0,
            },
            Hypercall::RevokeMem {
                base: 0x800,
                count: revoked,
                include_self: false,
            },
        ] {
            k.hypercall(ctx, hc).unwrap();
        }
        assert_eq!(k.check_invariants(), Ok(()));
        let pd = PdId((k.obj.pds.len() - 1) as u32);
        (k, ctx, pd, device)
    };
    let refused = |k: &Kernel, what: &str| {
        let e = k.check_invariants().expect_err(what);
        assert!(e.contains(what), "{e}");
    };

    let (mut k, _, pd, _) = vm(0);
    let table = k.nested.get_mut(&pd).unwrap();
    let stray = table.map_page(&mut k.machine.mem, &mut k.alloc, 1 << 30, 0x9000, false);
    stray.unwrap();
    refused(&k, "nested leaf at level 0 over 0x40000000");

    // The nested table's path to chunk 0's level-1 slot.
    let pd_table = |k: &Kernel, pd: PdId| {
        let mut table = k.obj.pd(pd).nested_root.unwrap();
        for level in [3, 2] {
            table = fmt.decode(nested_entry(&k.machine.mem, fmt, table, 0)).next;
            assert_ne!(table, 0, "level {level} links on");
        }
        table
    };

    // Splintered by the revoke of its first page: a large leaf written
    // back over the chunk stands for a page the space does not hold.
    let (mut k, _, pd, _) = vm(1);
    let slot = pd_table(&k, pd);
    let leaf = fmt.leaf_entry(0x800 << 12, true, true);
    k.machine.mem.write_u64(slot, leaf);
    refused(&k, "nested leaf at level 1 over 0x0");

    // Splintered, then emptied: the chunk's page table is still
    // linked. Unlinking it by hand is the leak the clause is for.
    let (mut k, ctx, pd, _) = vm(1);
    k.hypercall(
        ctx,
        Hypercall::RevokeMem {
            base: 0x801,
            count: 511,
            include_self: false,
        },
    )
    .unwrap();
    assert_eq!(k.check_invariants(), Ok(()));
    let slot = pd_table(&k, pd);
    k.machine.mem.write_u64(slot, 0);
    refused(&k, "nested frames");

    let (mut k, _, _, device) = vm(0);
    k.machine
        .bus
        .iommu
        .map_page(device, 0x40_0000, 0x9000, false);
    refused(&k, &format!("device {device} maps 0x400000"));
}

#[test]
fn mem_fill_respects_rights_and_page_boundaries() {
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);
    assert!(k.mem_write(ctx, 0x5000, &[1; 3 * 4096]));
    assert!(k.mem_fill(ctx, 0x5ffe, 4096 + 4, 0));
    assert_eq!(k.mem_slice(ctx, 0x5ffc, 4).unwrap(), [1, 1, 0, 0]);
    assert_eq!(k.mem_slice(ctx, 0x7000, 4).unwrap(), [0, 0, 1, 1]);
    assert!(k.mem_fill(ctx, 0x5000, 0, 9), "empty fill");
    let hv = (32 << 20) as u64 - 4096;
    assert!(
        !k.mem_fill(ctx, hv, 16, 0),
        "hypervisor memory is not mapped"
    );
}

#[test]
fn cap_delegation_reduces_and_revokes() {
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name: "a".into(),
            vm: None,
            dst: 10,
        },
    )
    .unwrap();
    let pd_a = PdId(1);
    k.hypercall(ctx, Hypercall::CreateSm { count: 0, dst: 30 })
        .unwrap();
    k.hypercall(
        ctx,
        Hypercall::DelegateCap {
            dst_pd: 10,
            sel: 30,
            perms: Perms::UP.union(Perms::DELEGATE),
            hot: 5,
        },
    )
    .unwrap();
    let cap = k.obj.pd(pd_a).caps.get(5).unwrap();
    assert!(cap.perms.allows(Perms::UP));
    assert!(!cap.perms.allows(Perms::DOWN), "permissions reduced");

    k.hypercall(
        ctx,
        Hypercall::RevokeCap {
            sel: 30,
            include_self: false,
        },
    )
    .unwrap();
    assert!(k.obj.pd(pd_a).caps.get(5).is_none(), "revoked recursively");
    assert!(k.obj.pd(k.root_pd).caps.get(30).is_some());
}

#[test]
fn assign_dev_mirrors_dma_memory_into_iommu() {
    let mut k = kernel();
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
    let ctx = root_ctx(&k, ec, comp);
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name: "disk-server".into(),
            vm: None,
            dst: 10,
        },
    )
    .unwrap();
    k.hypercall(
        ctx,
        Hypercall::DelegateMem {
            dst_pd: 10,
            base: 0x100,
            count: 2,
            rights: MemRights::RW_DMA,
            hot: 0x100,
        },
    )
    .unwrap();
    let ahci_dev = k.machine.dev.ahci;
    k.hypercall(
        ctx,
        Hypercall::AssignDev {
            pd: 10,
            device: ahci_dev,
        },
    )
    .unwrap();
    // DMA to the delegated page translates; elsewhere faults.
    assert_eq!(
        k.machine.bus.iommu.translate(ahci_dev, 0x100 * 4096, true),
        Some(0x100 * 4096)
    );
    assert_eq!(
        k.machine.bus.iommu.translate(ahci_dev, 0x900 * 4096, true),
        None
    );
}

#[test]
fn apply_mtd_copies_selected_groups() {
    let mut dst = Regs::default();
    let mut src = Regs::default();
    src.set(nova_x86::Reg::Eax, 1);
    src.set(nova_x86::Reg::Esi, 2);
    src.eip = 0x100;
    src.cr3 = 0x5000;
    apply_mtd(&mut dst, &src, mtd::GPR_ACDB | mtd::EIP);
    assert_eq!(dst.get(nova_x86::Reg::Eax), 1);
    assert_eq!(dst.eip, 0x100);
    assert_eq!(dst.get(nova_x86::Reg::Esi), 0, "group not selected");
    assert_eq!(dst.cr3, 0, "group not selected");
}

/// EC ids are 16 bits (a `CompCtx` fits one register): with 65,536 ECs
/// in the table a `CreateEc` is refused as a full quota is, and leaves
/// nothing behind.
#[test]
fn a_full_ec_table_refuses_create_ec() {
    let (mut k, ctx) = root_with_portal();
    while k.obj.ecs.len() < crate::obj::MAX_ECS {
        k.obj.add_ec(Ec {
            pd: k.root_pd,
            kind: EcKind::Thread,
            cpu: 0,
            utcb: Utcb::new(),
            sc: None,
            blocked: true,
            busy: false,
            comp: None,
            vcpu_index: None,
            activations: VecDeque::new(),
        });
    }
    let create = Hypercall::CreateEc {
        pd: SEL_SELF_PD,
        vcpu: false,
        cpu: 0,
        dst: 0x70,
    };
    let kobjs = k.obj.pd(k.root_pd).kobjs;
    assert_eq!(k.hypercall(ctx, create), Err(HcErr::QuotaExceeded));
    assert_eq!(k.obj.ecs.len(), crate::obj::MAX_ECS);
    assert_eq!(k.obj.pd(k.root_pd).kobjs, kobjs, "no quota charged");
    assert!(k.obj.pd(k.root_pd).caps.get(0x70).is_none());
}
