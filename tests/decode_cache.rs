//! Coherence of the CPU's predecoded-block cache: every way code can
//! change under the interpreter must be seen by the next fetch.
//!
//! Each test here failed against the unbounded, never-invalidated
//! `HashMap<PAddr, Insn>` this cache replaced: guest stores into code
//! (the running block and an already-executed one), host writes and
//! device DMA over executed code, a page-straddling instruction whose
//! second page is remapped, and a frame reused by a new protection
//! domain after `DestroyPd`. (The restore / cold-reboot case lives in
//! `tests/microreboot.rs`.)

use nova_core::hypercall::Hypercall;
use nova_core::obj::{MemRights, VmPaging};
use nova_core::{CompCtx, Component, Kernel, KernelConfig, PdId, Utcb};
use nova_hw::cpu::{run_guest, NativeStop};
use nova_hw::device::{DevCtx, Device};
use nova_hw::event::Event;
use nova_hw::iommu::Iommu;
use nova_hw::machine::{Machine, MachineConfig, DEBUG_EXIT_PORT};
use nova_hw::vmx::{ExitReason, PagingVirt, Vmcs};
use nova_x86::insn::{AluOp, Cond, MemRef};
use nova_x86::paging::{npte, pte, NestedFormat};
use nova_x86::reg::{cr0, Reg, Regs};
use nova_x86::Asm;

const CODE: u32 = 0x1000;
const STACK: u32 = 0x8000;

fn machine() -> Machine {
    Machine::new(MachineConfig::core_i7(32 << 20))
}

/// Identity EPT over the first 16 MB with 4 KB pages, tables at 24 MB.
fn ident_ept(m: &mut Machine) -> u64 {
    let root = 24 << 20;
    let (l2, l1) = (root + 0x1000, root + 0x2000);
    m.mem.write_u64(root, l2 | npte::RWX);
    m.mem.write_u64(l2, l1 | npte::RWX);
    for t in 0..8u64 {
        let l0 = root + 0x3000 + t * 0x1000;
        m.mem.write_u64(l1 + t * 8, l0 | npte::RWX);
        for i in 0..512 {
            m.mem
                .write_u64(l0 + i * 8, ((t * 512 + i) << 12) | npte::RWX);
        }
    }
    root
}

/// A VMCS whose guest starts at `CODE` with `code` loaded there.
fn guest(m: &mut Machine, code: &[u8]) -> Vmcs {
    let root = ident_ept(m);
    let mut v = Vmcs::new(
        PagingVirt::Nested {
            root,
            fmt: NestedFormat::Ept4Level,
        },
        1,
    );
    m.mem.write_bytes(CODE as u64, code);
    v.guest = Regs::at(CODE);
    v.guest.set(Reg::Esp, STACK);
    v
}

fn enter(m: &mut Machine, v: &mut Vmcs) -> ExitReason {
    let cost = m.cost;
    run_guest(
        &mut m.cpus[0],
        &mut m.mem,
        &mut m.bus,
        &cost,
        &mut m.clock,
        v,
        Some(50_000_000),
    )
}

/// (a) Self-modifying guest: a store into a *later* instruction of the
/// block being executed, a store into an *earlier* one that the loop
/// comes back to, and a store into a function that already ran.
#[test]
fn guest_patching_its_own_code_executes_the_new_bytes() {
    let mut m = machine();
    let mut a = Asm::new(CODE);
    let f = a.label();

    // Later instruction of the running block, different every time
    // round: EBX = 2 + 1.
    a.xor_rr(Reg::Ebx, Reg::Ebx);
    a.mov_ri(Reg::Ecx, 2);
    let top = a.here_label();
    let ahead = a.here() + 6 + 1 + 1; // past the store and the NOP, at the immediate
    a.mov_mr(MemRef::abs(ahead), Reg::Ecx);
    a.nop();
    a.mov_ri(Reg::Eax, 0x55);
    a.alu_rr(AluOp::Add, Reg::Ebx, Reg::Eax);
    a.dec_r(Reg::Ecx);
    a.jcc(Cond::Ne, top);

    // Earlier instruction of the running block, seen on the way back
    // round: ESI = 1 + 7.
    a.xor_rr(Reg::Esi, Reg::Esi);
    a.mov_ri(Reg::Ecx, 2);
    let top = a.here_label();
    let behind = a.here() + 1;
    a.mov_ri(Reg::Eax, 1);
    a.alu_rr(AluOp::Add, Reg::Esi, Reg::Eax);
    a.mov_mi(MemRef::abs(behind), 7);
    a.dec_r(Reg::Ecx);
    a.jcc(Cond::Ne, top);

    // Another block that already executed: EDI = 1, then 9.
    a.call(f);
    a.mov_rr(Reg::Edi, Reg::Eax);
    let f_imm = a.label();
    a.mov_r_label(Reg::Ebp, f_imm);
    a.mov_mi(MemRef::base_disp(Reg::Ebp, 1), 9);
    a.call(f);
    a.cpuid();

    a.bind(f);
    a.bind(f_imm);
    a.mov_ri(Reg::Eax, 1);
    a.ret();

    let code = a.finish();
    let mut v = guest(&mut m, &code);
    assert!(matches!(enter(&mut m, &mut v), ExitReason::Cpuid { .. }));
    assert_eq!(v.guest.get(Reg::Ebx), 3, "store ahead in the running block");
    assert_eq!(
        v.guest.get(Reg::Esi),
        8,
        "store behind in the running block"
    );
    assert_eq!(v.guest.get(Reg::Edi), 1, "first call ran the original");
    assert_eq!(
        v.guest.get(Reg::Eax),
        9,
        "second call ran the patched function"
    );
    assert!(m.cpus[0].decode_cache_stats().invalidations >= 3);
}

/// (b) The host rewrites executed code between two VM entries.
#[test]
fn host_write_over_executed_code_between_entries_is_seen() {
    let mut m = machine();
    let program = |imm| {
        let mut a = Asm::new(CODE);
        a.mov_ri(Reg::Eax, imm);
        a.cpuid();
        a.finish()
    };
    let mut v = guest(&mut m, &program(1));
    assert!(matches!(enter(&mut m, &mut v), ExitReason::Cpuid { .. }));
    assert_eq!(v.guest.get(Reg::Eax), 1);

    m.mem.write_bytes(CODE as u64, &program(2));
    v.guest.eip = CODE;
    assert!(matches!(enter(&mut m, &mut v), ExitReason::Cpuid { .. }));
    assert_eq!(v.guest.get(Reg::Eax), 2, "the rewritten code ran");
}

/// A device that DMAs a fixed byte string to a fixed bus address when
/// its event fires.
struct Patcher {
    addr: u64,
    bytes: Vec<u8>,
}

impl Device for Patcher {
    fn name(&self) -> &'static str {
        "patcher"
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn event(&mut self, ctx: &mut DevCtx, _token: u64) {
        assert!(ctx.dma_write(self.addr, &self.bytes));
    }
}

/// (b) Device DMA lands on a function while the guest is calling it in
/// a loop: calls after the DMA run the new bytes.
#[test]
fn dma_over_code_while_the_guest_runs_is_seen() {
    const CALLS: u32 = 2_000;
    let mut m = machine();
    m.bus.iommu = Iommu::disabled();

    let mut a = Asm::new(CODE);
    let f = a.label();
    a.xor_rr(Reg::Ebx, Reg::Ebx);
    a.mov_ri(Reg::Ecx, CALLS);
    let top = a.here_label();
    a.call(f);
    a.alu_rr(AluOp::Add, Reg::Ebx, Reg::Eax);
    a.dec_r(Reg::Ecx);
    a.jcc(Cond::Ne, top);
    a.cpuid();
    a.align(64);
    a.bind(f);
    let f_at = a.here();
    a.mov_ri(Reg::Eax, 1);
    a.ret();
    let code = a.finish();

    let mut patched = Asm::new(f_at);
    patched.mov_ri(Reg::Eax, 0x1_0000);
    patched.ret();
    let dev = m.bus.add_device(Box::new(Patcher {
        addr: f_at as u64,
        bytes: patched.finish(),
    }));
    // A few hundred calls in.
    m.bus.events.schedule(
        m.clock + 5_000,
        Event {
            device: dev,
            token: 0,
        },
    );

    let mut v = guest(&mut m, &code);
    assert!(matches!(enter(&mut m, &mut v), ExitReason::Cpuid { .. }));
    let sum = v.guest.get(Reg::Ebx);
    let (old, new) = (sum & 0xffff, sum >> 16);
    assert!(old > 0 && new > 0, "the DMA landed mid-loop: {old} + {new}");
    assert_eq!(old + new, CALLS, "every call ran one version or the other");
}

/// (c) An instruction straddling a page boundary whose *second* page is
/// remapped to a frame with different bytes (PTE rewrite + INVLPG).
#[test]
fn straddling_instruction_follows_a_remap_of_its_second_page() {
    const PD: u32 = 0x10000;
    const PT: u32 = 0x11000;
    const V1: u32 = 0x40000; // straddler starts at the end of this page
    const V2: u32 = 0x41000; // ...and ends in this one
    const P2B: u32 = 0x51000; // V2's second backing frame

    let mut m = machine();
    // Identity-map the first 4 MB with 4 KB pages.
    m.mem.write_u32(PD as u64, PT | pte::P | pte::W);
    for i in 0..1024u32 {
        m.mem
            .write_u32(PT as u64 + i as u64 * 4, (i << 12) | pte::P | pte::W);
    }
    // `mov eax, imm32; ret` with the opcode and one immediate byte in
    // V1, the rest in V2 — two versions of the rest.
    m.mem.write_bytes((V2 - 2) as u64, &[0xb8, 0x11]);
    m.mem.write_bytes(V2 as u64, &[0x11, 0x11, 0x11, 0xc3]);
    m.mem.write_bytes(P2B as u64, &[0x22, 0x22, 0x22, 0xc3]);
    assert_eq!(V2 - 2, V1 + 0xffe);

    let mut a = Asm::new(CODE);
    a.mov_ri(Reg::Ebp, V2 - 2);
    a.call_r(Reg::Ebp);
    a.mov_rr(Reg::Ebx, Reg::Eax);
    a.mov_mi(MemRef::abs(PT + (V2 >> 12) * 4), P2B | pte::P | pte::W);
    a.invlpg(MemRef::abs(V2));
    a.call_r(Reg::Ebp);
    a.mov_ri(Reg::Edx, DEBUG_EXIT_PORT as u32);
    a.out_dx_al();
    m.load_image(CODE as u64, &a.finish());

    let cpu = &mut m.cpus[0];
    cpu.regs = Regs::at(CODE);
    cpu.regs.set(Reg::Esp, STACK);
    cpu.regs.cr3 = PD;
    cpu.regs.cr0 = cr0::PE | cr0::PG;
    assert_eq!(m.run_native(Some(1_000_000)), NativeStop::Shutdown(0x11));
    assert_eq!(m.cpus[0].regs.get(Reg::Ebx), 0x1111_1111, "first mapping");
    assert_eq!(
        m.cpus[0].regs.get(Reg::Eax),
        0x2222_2211,
        "second call fetched its tail through the new mapping"
    );
}

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

/// (e) A protection domain is destroyed and its frames are delegated
/// to a new one that runs different code at the same addresses.
#[test]
fn frames_reused_by_a_new_pd_after_destroy_run_the_new_code() {
    const MARK: u32 = 0x3000;
    // Root pages 0x1000.. back guest page 0 onwards.
    const HOST: u64 = 0x1000 * 4096;

    let m = Machine::new(MachineConfig::core_i7(64 << 20));
    let mut k = Kernel::new(m, KernelConfig::default());
    let (comp, ec) = k.load_component(k.root_pd, 0, Box::new(Nop));
    k.start_component(comp, ec);
    let ctx = CompCtx {
        pd: PdId(0),
        ec,
        comp,
    };

    // One VM lifetime: create the domain over the same frames, load
    // `value`'s program, run it until its HLT exit finds no handler.
    let lifetime = |k: &mut Kernel, sel: usize, value: u32| {
        k.hypercall(
            ctx,
            Hypercall::CreatePd {
                name: "vm".into(),
                vm: Some(VmPaging::Nested(NestedFormat::Ept4Level)),
                dst: sel,
            },
        )
        .unwrap();
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
                dst: sel + 1,
            },
        )
        .unwrap();
        let vcpu = nova_core::EcId(k.obj.ecs.len() - 1);

        let mut a = Asm::new(CODE);
        a.mov_mi(MemRef::abs(MARK), value);
        a.hlt();
        k.machine.mem.write_bytes(HOST + CODE as u64, &a.finish());
        k.machine.mem.write_u32(HOST + MARK as u64, 0);
        let vmcs = k.obj.ecs[vcpu.0].vmcs_mut().unwrap();
        vmcs.guest = Regs::at(CODE);
        vmcs.guest.set(Reg::Esp, STACK);

        k.hypercall(
            ctx,
            Hypercall::CreateSc {
                ec: sel + 1,
                prio: 10,
                quantum: 100_000,
                dst: sel + 2,
            },
        )
        .unwrap();
        let _ = k.run(Some(10_000_000));
        let mark = k.machine.mem.read_u32(HOST + MARK as u64);
        k.hypercall(ctx, Hypercall::DestroyPd { pd: sel }).unwrap();
        mark
    };

    assert_eq!(lifetime(&mut k, 10, 0xaaaa_aaaa), 0xaaaa_aaaa);
    assert_eq!(
        lifetime(&mut k, 20, 0xbbbb_bbbb),
        0xbbbb_bbbb,
        "the second domain ran its own code, not the first one's"
    );
}
