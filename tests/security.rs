//! Attack-containment integration tests: the Section 4.2 claims,
//! verified on the running system.
//!
//! - A virtual machine cannot reach memory outside its host address
//!   space.
//! - A compromised VMM (issuing arbitrary hypercalls) is an ordinary
//!   untrusted application: it cannot touch other domains' resources.
//! - A driver's DMA is confined by the IOMMU to delegated regions and
//!   revocation cuts it off.
//! - Virtual machines hold no hypercall capabilities.
//! - Two VMs with dedicated VMMs are isolated from each other.
//! - A compromised VMM reaches the disk server as the client its portals
//!   were made for, and nobody else: a request or a typed item aimed
//!   at a sibling's window or the server's own state does not harm the
//!   sibling.

mod common;

use nova_core::cap::{CapSel, Perms};
use nova_core::hypercall::{HcErr, Hypercall};
use nova_core::obj::MemRights;
use nova_core::utcb::{Utcb, XferItem};
use nova_core::{CompCtx, RunOutcome};
use nova_guest::os::{build_os, OsParams};
use nova_guest::rt;
use nova_user::proto::disk as dproto;
use nova_vmm::vmm::GUEST_BASE_PAGE;
use nova_vmm::{LaunchOptions, System, Vmm, VmmConfig};
use nova_x86::insn::MemRef;
use nova_x86::reg::Reg;

use common::{guest_bytes, reader_guest, vmm_ctx, READER_BUF};

/// A guest that tries to read and write far beyond its RAM (at a
/// guest-physical address that would be another VM's memory if the
/// host page tables did not isolate it).
#[test]
fn guest_cannot_escape_its_address_space() {
    let prog = build_os(OsParams::minimal(), |a, _| {
        // Write through an unbacked GPA: must be dropped, not reach
        // another guest's frames.
        a.mov_ri(Reg::Ebx, 0x7000_0000u32);
        a.mov_mi(MemRef::base_disp(Reg::Ebx, 0), 0x41414141);
        // Read back: unbacked space reads as junk, not as data.
        a.mov_rm(Reg::Eax, MemRef::base_disp(Reg::Ebx, 0));
        rt::emit_exit(a, 9);
    });
    let mut sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(
        prog, 2048, // 8 MB guest
    )));
    let before = sys.k.machine.mem.read_u32(0x7000_0000);
    let out = sys.run(Some(3_000_000_000));
    assert_eq!(out, RunOutcome::Shutdown(9));
    // The write did not land anywhere in host memory at that address.
    assert_eq!(sys.k.machine.mem.read_u32(0x7000_0000), before);
}

/// Two VMs, two VMMs: output and memory stay separate, and one guest
/// shutting down does not stop the other's VMM from existing.
#[test]
fn two_vms_with_dedicated_vmms_are_isolated() {
    let prog_a = build_os(OsParams::minimal(), |a, _| {
        rt::emit_puts(a, "A");
        // Leave a signature in guest A's RAM.
        a.mov_mi(MemRef::abs(0x6000), 0xaaaa_aaaa);
        rt::emit_exit(a, 1);
    });
    let prog_b = build_os(OsParams::minimal(), |a, _| {
        rt::emit_puts(a, "B");
        a.mov_mi(MemRef::abs(0x6000), 0xbbbb_bbbb);
        rt::emit_exit(a, 2);
    });

    let mut opts = LaunchOptions::standard(VmmConfig::full_virt(prog_a, 2048));
    opts.machine.ram = 128 << 20;
    let mut sys = System::build(opts);
    let vmm_b = sys.add_vm(VmmConfig::full_virt(prog_b, 2048));

    // Run until both guests have shut down (each shutdown stops the
    // world; restart the scheduler until both are done).
    let mut done = 0;
    for _ in 0..4 {
        match sys.run(Some(5_000_000_000)) {
            RunOutcome::Shutdown(_) => done += 1,
            _ => break,
        }
        if done == 2 {
            break;
        }
    }
    assert_eq!(done, 2, "both guests ran to completion");

    let vmm_a = sys.vmm;
    let a = sys.k.component_mut::<Vmm>(vmm_a).unwrap();
    assert_eq!(a.guest_console(), "A");
    let b = sys.k.component_mut::<Vmm>(vmm_b).unwrap();
    assert_eq!(b.guest_console(), "B", "consoles are per-VMM");

    // The guests' frames are disjoint: both signatures exist at their
    // own host locations.
    let a_sig = sys.k.machine.mem.read_u32(0x1000 * 4096 + 0x6000);
    assert_eq!(a_sig, 0xaaaa_aaaa);
    // Guest B's frames start at the next aligned region.
    let b_base = (0x1000u64 + 2048 + 1).next_multiple_of(512);
    let b_sig = sys.k.machine.mem.read_u32(b_base * 4096 + 0x6000);
    assert_eq!(b_sig, 0xbbbb_bbbb);
}

/// A compromised VMM: from the hypervisor's perspective an ordinary
/// untrusted user application. Fuzz-style: it issues hypercalls naming
/// resources it does not own; every one must fail, and other domains'
/// state must be untouched.
#[test]
fn compromised_vmm_cannot_reach_other_domains() {
    let prog = build_os(OsParams::minimal(), |a, _| {
        rt::emit_exit(a, 0);
    });
    let mut sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(prog, 2048)));
    sys.run(Some(3_000_000_000));

    // Forge the VMM's identity (it is PdId of the "vmm" domain).
    let vmm_pd =
        nova_core::PdId(sys.k.obj.pds.iter().position(|p| p.name == "vmm").unwrap() as u32);
    let vmm_ec = nova_core::EcId(0); // irrelevant for permission checks
    let evil = nova_core::CompCtx {
        pd: vmm_pd,
        ec: vmm_ec,
        comp: sys.vmm,
    };

    // 1. Delegating memory it does not own fails.
    let r = sys.k.hypercall(
        evil,
        Hypercall::DelegateMem {
            dst_pd: nova_core::kernel::SEL_SELF_PD,
            base: 0x10, // root-owned low memory, never delegated to the VMM
            count: 1,
            rights: MemRights::RW,
            hot: 0x9999,
        },
    );
    assert_eq!(r, Err(HcErr::NotOwner));

    // 2. Revoking memory it does not own is a no-op for others.
    let root_has = sys.k.obj.pd(sys.k.root_pd).mem.lookup(0x10).is_some();
    sys.k
        .hypercall(
            evil,
            Hypercall::RevokeMem {
                base: 0x10,
                count: 1,
                include_self: true,
            },
        )
        .unwrap();
    assert_eq!(
        sys.k.obj.pd(sys.k.root_pd).mem.lookup(0x10).is_some(),
        root_has,
        "root's mapping survives a foreign revoke"
    );

    // 3. Touching the disk server's ports: the VMM holds no I/O space
    // for the AHCI GSI or the PIC.
    assert!(sys
        .k
        .dev_io_read(evil, 0x21, nova_x86::insn::OpSize::Byte)
        .is_none());

    // 4. Using selectors that don't exist in its capability space.
    for sel in [0usize, 7, 500, 100_000] {
        let r = sys.k.hypercall(evil, Hypercall::SmUp { sm: sel });
        assert!(
            matches!(r, Err(HcErr::BadCap) | Err(HcErr::BadPerm)),
            "junk selector {sel} rejected: {r:?}"
        );
    }

    // 5. Recalling an EC it has no capability for.
    let r = sys.k.hypercall(evil, Hypercall::EcRecall { ec: 0x3000 });
    assert_eq!(r, Err(HcErr::BadCap));
}

/// VMs hold only exit-portal capabilities — no PD/EC/SC/SM caps, so
/// no hypercall authority at all (Section 4.2: "VMs cannot perform
/// hypercalls").
#[test]
fn vm_capability_space_has_only_exit_portals() {
    let prog = build_os(OsParams::minimal(), |a, _| {
        rt::emit_exit(a, 0);
    });
    let mut sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(prog, 2048)));
    sys.run(Some(3_000_000_000));
    let vm_pd = sys
        .k
        .obj
        .pds
        .iter()
        .position(|p| p.is_vm())
        .map(|i| nova_core::PdId(i as u32))
        .unwrap();
    for (_sel, cap) in sys.k.obj.pd(vm_pd).caps.iter() {
        match cap.obj {
            nova_core::obj::ObjRef::Pt(_) => {
                assert_eq!(cap.perms.0, Perms::CALL.0, "portal caps are call-only");
            }
            other => panic!("VM holds a non-portal capability: {other:?}"),
        }
    }
}

/// Driver confinement: the disk server's DMA is bounded by what was
/// delegated, and revocation reaches the IOMMU (tested end-to-end in
/// nova-user;ここverified again at the system level after a real run).
#[test]
fn driver_dma_confined_after_real_io() {
    let prog = nova_guest::diskload::build(nova_guest::diskload::DiskLoadParams {
        requests: 2,
        block_bytes: 4096,
    });
    let mut sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(prog, 2048)));
    let out = sys.run(Some(10_000_000_000));
    assert_eq!(out, RunOutcome::Shutdown(0));
    assert!(
        sys.k.machine.bus.iommu.faults.is_empty(),
        "no stray DMA during legitimate I/O"
    );
    // After the run the device reaches exactly the disk server's
    // delegated pages (its command memory and the guest's DMA window)
    // and nothing else.
    let ahci = sys.k.machine.dev.ahci;
    // The server's command page is mapped — to the server's own frame.
    let cmd = sys.k.machine.bus.iommu.translate(ahci, 0x10_0000, false);
    assert_eq!(cmd, Some(0x300 * 4096), "command memory, server's frame");
    // Undelegated bus addresses fault: root memory, hypervisor memory.
    for bus in [0x10u64 * 4096, 0x500 * 4096, (96 << 20) - 4096] {
        assert_eq!(
            sys.k.machine.bus.iommu.translate(ahci, bus, true),
            None,
            "bus address {bus:#x} is unreachable for the device"
        );
    }
}

/// Interrupt remapping (Section 4.2): after boot, every device is
/// pinned to its wired vector; a compromised device (or a driver
/// abusing one) cannot assert another device's line.
#[test]
fn iommu_interrupt_remapping_pins_vectors() {
    let prog = build_os(OsParams::minimal(), |a, _| {
        rt::emit_exit(a, 0);
    });
    let mut sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(prog, 2048)));
    sys.run(Some(3_000_000_000));

    let ahci = sys.k.machine.dev.ahci;
    let io = &mut sys.k.machine.bus.iommu;
    // Its own wired line passes.
    assert!(io.irq_permitted(ahci, nova_hw::machine::AHCI_IRQ));
    // Spoofing the timer or keyboard vector is blocked and recorded.
    assert!(!io.irq_permitted(ahci, 0));
    assert!(!io.irq_permitted(ahci, 1));
    assert_eq!(io.irq_faults.len(), 2);
}

/// The Section 4.2 hardening extension: a VMM makes the guest's
/// kernel code read-only; a code-injection attempt (write to the code
/// region) kills the VM instead of succeeding.
#[test]
fn kernel_write_protection_stops_code_injection() {
    let attack = || {
        build_os(OsParams::minimal(), |a, _| {
            rt::emit_puts(a, "patching kernel...");
            // Overwrite our own code page (classic code injection).
            a.mov_mi(MemRef::abs(rt::layout::CODE), 0x90909090);
            rt::emit_puts(a, "unprotected!");
            rt::emit_exit(a, 1);
        })
    };

    // Without protection the write lands and the guest "wins".
    let mut sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(
        attack(),
        2048,
    )));
    assert_eq!(sys.run(Some(3_000_000_000)), RunOutcome::Shutdown(1));
    assert!(sys.vmm().guest_console().contains("unprotected!"));

    // With the code region read-only, the write is a kill.
    let mut cfg = VmmConfig::full_virt(attack(), 2048);
    let code_page = rt::layout::CODE as u64 / 4096;
    cfg.protect_kernel = Some((code_page, 16));
    let mut sys = System::build(LaunchOptions::standard(cfg));
    assert_eq!(
        sys.run(Some(3_000_000_000)),
        RunOutcome::Shutdown(0xfc),
        "injection attempt detected and VM killed"
    );
    let console = sys.vmm().guest_console();
    assert!(console.contains("patching"));
    assert!(
        !console.contains("unprotected!"),
        "execution never passed the blocked write"
    );
    assert_eq!(sys.vmm().guest_exit, Some(0xfc));
}

/// Reads of the sibling in the window probes below.
const READS: u32 = 4;

/// A supervised disk server with two VMs: A (slot 0, client 0) runs
/// [`reader_guest`], B (slot 1, clients 2 and 3: it has the PV queue)
/// only halts; B's VMM identity is returned for the test to act as B
/// compromised.
fn sibling_pair() -> (System, CompCtx) {
    let mut opts = LaunchOptions::supervised(reader_guest(READS));
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
    let ctx = vmm_ctx(&sys, b);
    (sys, ctx)
}

/// B's call through the portal at `sel` of its space.
fn call(
    sys: &mut System,
    b: CompCtx,
    sel: CapSel,
    msg: &[u64],
    items: &[XferItem],
) -> Result<Utcb, HcErr> {
    let mut utcb = Utcb::new();
    utcb.set_msg(msg);
    utcb.xfer.extend_from_slice(items);
    sys.k.ipc_call(b, sel, &mut utcb).map(|()| utcb)
}

/// One page of B's guest RAM, delegated at `hot`.
fn b_page(gpa: u64, hot: u64) -> XferItem {
    XferItem {
        base: GUEST_BASE_PAGE + gpa / 4096,
        count: 1,
        rights: MemRights::RW_DMA,
        hot,
    }
}

/// A ran to its end untouched: its last block in its buffer, both
/// marks, no request degraded, and the kernel's state sound.
fn assert_sibling_unharmed(sys: &mut System) {
    let last = sys.k.machine.ahci().sector((READS as u64 - 1) * 8);
    let a = sys.vmm;
    assert_eq!(guest_bytes(sys, a, READER_BUF as u64, 512), last);
    assert_eq!(sys.vmm().guest_marks(), [0x1000, 0x1001]);
    assert_eq!(sys.k.counters.degraded_errors(), 0, "A degraded nothing");
    assert_eq!(sys.k.check_invariants(), Ok(()));
}

/// B asks the server to read LBA 777 into A's buffer as the server
/// maps it. The request names no client, so it is B's, and the address
/// is an offset past B's window: refused. The same guest address meant
/// as B's own lands in B's buffer and nowhere else. (A server that
/// took the client from word 0 answered B naming A's id with `OK`, and
/// A's buffer held LBA 777.)
#[test]
fn a_request_naming_another_clients_window_lands_only_in_the_callers() {
    let (mut sys, b) = sibling_pair();
    assert_eq!(sys.run(Some(10_000_000_000)), RunOutcome::Shutdown(0));
    let read_777 = |addr| [dproto::OP_READ, 777, 8, 0x55, 0, 1, addr, 4096];
    let a_buf = dproto::window_base(0) * 4096 + READER_BUF as u64;
    let reply = call(&mut sys, b, dproto::CLIENT_SEL_REQ, &read_777(a_buf), &[]);
    assert_eq!(reply.unwrap().word(0), dproto::EINVAL, "A's window refused");
    let own = b_page(READER_BUF as u64, READER_BUF as u64 / 4096);
    let mine = read_777(READER_BUF as u64);
    let reply = call(&mut sys, b, dproto::CLIENT_SEL_REQ, &mine, &[own]);
    assert_eq!(reply.unwrap().word(0), dproto::OK, "B's own window served");
    sys.run(Some(100_000_000));

    assert_eq!(sys.k.counters.disk_ops, READS as u64 + 1);
    let lba_777 = sys.k.machine.ahci().sector(777);
    assert_eq!(guest_bytes(&sys, b.comp, READER_BUF as u64, 512), lba_777);
    assert_sibling_unharmed(&mut sys);
}

/// Before A's first read, B aims a typed item at where A's completions
/// go. The server's selectors are not named by anything B can send —
/// the one typed item left delegates memory, into B's window — so an
/// item at A's ring page fails the call and leaves the page A's, and
/// one whose `hot` spells A's completion-semaphore selector is a page
/// of B's own window. (A `Cap` item used to overwrite the server's
/// selector for A's completion semaphore, and all of A's reads
/// degraded.)
#[test]
fn a_typed_item_aimed_at_the_servers_completion_path_fails_the_call() {
    let (mut sys, b) = sibling_pair();
    let server = |sys: &System, page| {
        let srv = sys.k.obj.pds.iter().find(|p| p.name == "disk-server");
        srv.unwrap().mem.lookup(page).map(|m| m.hpa)
    };
    let a_ring = dproto::window_base(0) + dproto::RING_WINDOW_PAGE;
    let ring_frame = server(&sys, a_ring);
    assert!(ring_frame.is_some(), "root mapped A's ring");
    let sel = dproto::CLIENT_SEL_REQ;
    let reply = call(&mut sys, b, sel, &[], &[b_page(0, a_ring)]);
    assert_eq!(reply.err(), Some(HcErr::BadParam), "A's ring page");
    let sm_sel = dproto::client_sm_sel(0) as u64;
    let reply = call(&mut sys, b, sel, &[], &[b_page(0, sm_sel)]);
    assert_eq!(reply.unwrap().word(0), dproto::EINVAL, "an empty request");
    assert_eq!(server(&sys, a_ring), ring_frame);
    assert!(server(&sys, dproto::window_base(2) + sm_sel).is_some());

    assert_eq!(sys.run(Some(10_000_000_000)), RunOutcome::Shutdown(0));
    assert_sibling_unharmed(&mut sys);
}

/// Before A's first read, B delegates a page of its own into A's
/// window, at A's buffer page, through each of its portals. Each item
/// is past B's window: the call fails before the server runs, and A
/// delegates its buffer when it needs to. (An item placed where B named
/// took A's page, A's own delegation of it was refused, and all of A's
/// reads degraded.)
#[test]
fn a_typed_item_aimed_at_another_clients_window_fails_the_call() {
    let (mut sys, b) = sibling_pair();
    let page = READER_BUF as u64 / 4096;
    for (_, sel) in dproto::CHANNELS {
        for hot in [dproto::window_base(0) + page, dproto::WINDOW_PAGES] {
            let reply = call(&mut sys, b, sel, &[], &[b_page(0, hot)]);
            assert_eq!(reply.err(), Some(HcErr::BadParam), "page {hot:#x}");
        }
    }
    let srv = sys.k.obj.pds.iter().find(|p| p.name == "disk-server");
    assert!(srv
        .unwrap()
        .mem
        .lookup(dproto::window_base(0) + page)
        .is_none());

    assert_eq!(sys.run(Some(10_000_000_000)), RunOutcome::Shutdown(0));
    assert_sibling_unharmed(&mut sys);
}
