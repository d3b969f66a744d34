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
//!
//! The last group is about *closed-loop re-entry* (a block that jumps
//! to its own first instruction is restarted in place, without the
//! fetch translation and the block lookup): each of its tests fails
//! with one of the checks or counters of the restart removed. Their
//! referee is the same entry taken one instruction per call
//! ([`enter_stepping`]), where nothing is skipped.
//!
//! The group after it is about *counted loops*: a block ending in
//! `dec r32` · `jne` retires the pair as one step — with the
//! register–immediate ALU step before it, if there is one — and a loop
//! that is nothing else in closed form. Same referee; each test names
//! the mutation of `hw::cpu::retire_counted` it was shown to fail
//! against.

use nova_core::hypercall::Hypercall;
use nova_core::obj::{MemRights, VmPaging};
use nova_core::{CompCtx, Component, Kernel, KernelConfig, PdId, Utcb};
use nova_hw::blockcache::DecodeCacheStats;
use nova_hw::cpu::{run_guest, NativeStop};
use nova_hw::device::{DevCtx, Device};
use nova_hw::event::Event;
use nova_hw::iommu::Iommu;
use nova_hw::machine::{Machine, MachineConfig, AHCI_BASE, DEBUG_EXIT_PORT};
use nova_hw::vmx::{ExitReason, PagingVirt, Vmcs};
use nova_x86::insn::{AluOp, Cond, MemRef};
use nova_x86::paging::{npte, pte, NestedFormat};
use nova_x86::reg::{cr0, flags, Reg, Regs};
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

/// Longer than any test's guest runs.
const WHOLE_RUN: u64 = 50_000_000;

fn enter(m: &mut Machine, v: &mut Vmcs) -> ExitReason {
    enter_for(m, v, WHOLE_RUN)
}

/// One VM entry of at most `quantum` cycles.
fn enter_for(m: &mut Machine, v: &mut Vmcs, quantum: u64) -> ExitReason {
    let cost = m.cost;
    run_guest(
        &mut m.cpus[0],
        &mut m.mem,
        &mut m.bus,
        &cost,
        &mut m.clock,
        v,
        Some(quantum),
    );
    v.exit
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

// ----------------------------------------------------------------------
// Closed-loop re-entry
// ----------------------------------------------------------------------

/// The same VM entry with re-entry (and every other shortcut of the
/// block executor) out of the picture: a one-cycle quantum makes each
/// call retire one instruction, so every instruction takes the real
/// fetch translation and block lookup and the outer loop's event,
/// interrupt and deadline checks run between any two.
///
/// `quantum` is the entry's own: the stepped entry ends in `Preempt`
/// at the first instruction boundary that many cycles in, as the real
/// one does.
fn enter_stepping(m: &mut Machine, v: &mut Vmcs, quantum: u64) -> ExitReason {
    let deadline = m.clock + quantum;
    loop {
        let exit = enter_for(m, v, 1);
        if exit != ExitReason::Preempt || m.clock >= deadline {
            return exit;
        }
    }
}

/// The same machine built twice, one side for the block executor and
/// one for the stepped entry.
struct Twins {
    m: Machine,
    v: Vmcs,
    stepped: Machine,
    vs: Vmcs,
}

impl Twins {
    fn build(build: impl Fn(&mut Machine) -> Vmcs) -> Twins {
        let (mut m, mut stepped) = (machine(), machine());
        let (v, vs) = (build(&mut m), build(&mut stepped));
        Twins { m, v, stepped, vs }
    }

    /// Enters both sides for at most `quantum` cycles and checks that
    /// the simulated machine cannot tell them apart: same exit at the
    /// same cycle with the same registers (EFLAGS bit for bit),
    /// `instret` and `Tlb::stats`.
    fn enter(&mut self, quantum: u64) -> ExitReason {
        let exit = enter_for(&mut self.m, &mut self.v, quantum);
        let stepped = enter_stepping(&mut self.stepped, &mut self.vs, quantum);
        assert_eq!(exit, stepped);
        assert_eq!(
            self.m.clock, self.stepped.clock,
            "exit {exit:?} at another cycle"
        );
        assert_eq!(self.v.guest, self.vs.guest);
        assert_eq!(self.v.sti_shadow, self.vs.sti_shadow);
        let (cpu, cpu_s) = (&self.m.cpus[0], &self.stepped.cpus[0]);
        assert_eq!(cpu.instret, cpu_s.instret);
        assert_eq!(cpu.tlb.stats, cpu_s.tlb.stats);
        exit
    }
}

/// One whole run of `build`'s guest on both sides of [`Twins`];
/// returns the block executor's.
fn same_as_stepped(build: impl Fn(&mut Machine) -> Vmcs) -> (Machine, Vmcs) {
    let mut t = Twins::build(build);
    t.enter(WHOLE_RUN);
    (t.m, t.v)
}

/// The Fig 5 compute loop: `iterations` strided loads summed in EAX.
fn compile_loop(iterations: u32) -> Vec<u8> {
    let mut a = Asm::new(CODE);
    a.mov_ri(Reg::Edi, 0x10_0000);
    a.mov_ri(Reg::Ecx, iterations);
    a.xor_rr(Reg::Eax, Reg::Eax);
    let top = a.here_label();
    a.alu_rm(AluOp::Add, Reg::Eax, MemRef::base_disp(Reg::Edi, 0));
    a.add_ri(Reg::Edi, 64);
    a.dec_r(Reg::Ecx);
    a.jcc(Cond::Ne, top);
    a.cpuid();
    a.finish()
}

/// A loop that rewrites the immediate of an instruction in its own
/// body sees the new immediate on the very next iteration: the store
/// moves the frame's generation, which the restart checks like any
/// other instruction boundary.
#[test]
fn loop_rewriting_its_own_immediate_sees_it_on_the_next_iteration() {
    let mut a = Asm::new(CODE);
    a.xor_rr(Reg::Ebx, Reg::Ebx);
    a.mov_ri(Reg::Ecx, 5);
    let top = a.here_label();
    let imm = a.here() + 1;
    a.mov_ri(Reg::Eax, 1);
    a.alu_rr(AluOp::Add, Reg::Ebx, Reg::Eax);
    a.mov_mr(MemRef::abs(imm), Reg::Ecx);
    a.dec_r(Reg::Ecx);
    a.jcc(Cond::Ne, top);
    a.cpuid();
    let code = a.finish();
    let (_, v) = same_as_stepped(|m| guest(m, &code));
    // 1, then what each iteration left behind: 5, 4, 3, 2.
    assert_eq!(v.guest.get(Reg::Ebx), 1 + 5 + 4 + 3 + 2);
}

/// Host-side AHCI driver: one command in slot 0 moving one sector
/// between `buf` and `lba`, run to completion if `wait`.
fn ahci_sector(m: &mut Machine, write: bool, lba: u64, buf: u64, wait: bool) {
    use nova_hw::ahci::{cmd, regs, SECTOR};
    use nova_x86::insn::OpSize;
    let (clb, ctba) = (0x20_0000u64, 0x20_1000u64);
    let cfis = cmd::Cfis {
        write,
        lba,
        sectors: 1,
    };
    m.mem
        .write_bytes(clb, &cmd::Header { prdtl: 1, ctba }.encode());
    m.mem.write_bytes(ctba, &cfis.encode());
    m.mem
        .write_bytes(ctba + cmd::PRDT_OFFSET, &cmd::prd::encode(buf, SECTOR));
    let now = m.clock;
    for (reg, val) in [(regs::P0CLB, clb as u32), (regs::P0CI, 1)] {
        m.bus
            .mmio_write(&mut m.mem, now, AHCI_BASE + reg as u64, OpSize::Dword, val);
    }
    if wait {
        let due = m.bus.next_event_due().expect("completion scheduled");
        m.bus.process_events(&mut m.mem, due);
        let is = AHCI_BASE + regs::P0IS as u64;
        let pending = m.bus.mmio_read(&mut m.mem, due, is, OpSize::Dword);
        m.bus
            .mmio_write(&mut m.mem, due, is, OpSize::Dword, pending);
    }
}

/// AHCI DMA lands on the frame a self-loop is running from: the
/// iteration after the transfer already runs the new bytes, and the
/// whole run is indistinguishable from the stepped one.
#[test]
fn ahci_dma_into_the_looping_frame_is_seen_within_one_iteration() {
    // Outlasts the disk's ~250 k-cycle latency at 4 cycles a turn.
    const ITERATIONS: u32 = 100_000;
    // The loop counts its turns in `counter`; one sector of code.
    let program = |counter| {
        let mut a = Asm::new(CODE);
        let top = a.here_label();
        a.mov_ri(Reg::Eax, 1);
        a.alu_rr(AluOp::Add, counter, Reg::Eax);
        a.dec_r(Reg::Ecx);
        a.jcc(Cond::Ne, top);
        a.cpuid();
        let mut sector = a.finish();
        sector.resize(nova_hw::ahci::SECTOR as usize, 0x90);
        sector
    };
    let (_, v) = same_as_stepped(|m| {
        m.bus.iommu = Iommu::disabled();
        // Put the patched program on the disk, then have the
        // controller read it back over the running one.
        m.mem.write_bytes(0x30_0000, &program(Reg::Esi));
        ahci_sector(m, true, 9, 0x30_0000, true);
        let mut v = guest(m, &program(Reg::Ebx));
        v.guest.set(Reg::Ecx, ITERATIONS);
        ahci_sector(m, false, 9, CODE as u64, false);
        v
    });
    let (old, new) = (v.guest.get(Reg::Ebx), v.guest.get(Reg::Esi));
    assert!(old > 0 && new > 0, "the DMA landed mid-loop: {old} + {new}");
    assert_eq!(
        old + new,
        ITERATIONS,
        "every turn ran one version or the other"
    );
}

/// Pulses an interrupt line when its event fires.
struct Pulser(u8);

impl Device for Pulser {
    fn name(&self) -> &'static str {
        "pulser"
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn event(&mut self, ctx: &mut DevCtx, _token: u64) {
        ctx.pulse_irq(self.0);
    }
}

/// Arms a device that pulses IRQ 5 `due` cycles from now, with the PIC
/// unmasked: the guest (which exits on external interrupts) stops
/// there.
fn interrupt_in(m: &mut Machine, due: u64) {
    m.bus.iommu = Iommu::disabled();
    m.bus.pic.io_write(nova_hw::pic::MASTER_DATA, 0);
    let dev = m.bus.add_device(Box::new(Pulser(5)));
    m.bus.events.schedule(
        m.clock + due,
        Event {
            device: dev,
            token: 0,
        },
    );
}

/// An interrupt that becomes due in the middle of a self-loop stops it
/// at the first instruction boundary past its due time — the cycle the
/// stepped run stops at — whichever instruction of the loop that is,
/// the one the restart follows included.
#[test]
fn interrupt_due_mid_loop_exits_at_the_same_cycle_as_stepped() {
    let code = compile_loop(10_000);
    // Two turns of the loop: every phase, twice.
    for due in 7_001..7_013 {
        let (m, v) = same_as_stepped(|m| {
            interrupt_in(m, due);
            guest(m, &code)
        });
        assert!(v.guest.get(Reg::Ecx) > 1, "stopped inside the loop");
        // Independently of either executor: the longest instruction
        // of the loop is the load (1 + `mem_access` cycles; none of
        // these turns starts a new data page, so no walk), hence the
        // first boundary not before `due` is at most `mem_access` late.
        assert!(
            (due..=due + m.cost.mem_access).contains(&m.clock),
            "interrupt due at {due} taken at {}",
            m.clock
        );
    }
}

/// The one way a block's *last* instruction can store is a `call`, and
/// a `call` to the block's own first instruction is a closed loop.
/// With the stack inside the code frame its push rewrites the loop's
/// immediate, and the restart that follows must not run the stale
/// block: the generation is checked after the last instruction too.
#[test]
fn call_closed_loop_pushing_over_its_own_immediate_sees_the_new_bytes() {
    let mut a = Asm::new(CODE);
    let top = a.label();
    a.xor_rr(Reg::Ebx, Reg::Ebx);
    a.jmp(top);
    a.bind(top);
    let imm = a.here() + 1;
    a.mov_ri(Reg::Eax, 1);
    a.alu_rr(AluOp::Add, Reg::Ebx, Reg::Eax);
    a.mov_ri(Reg::Esp, imm + 4);
    a.call(top);
    let pushed = a.here();
    let code = a.finish();
    let (_, v) = same_as_stepped(|m| {
        interrupt_in(m, 200);
        guest(m, &code)
    });
    // The first turn adds the original 1, every later one the return
    // address the `call` left in its place.
    let sum = v.guest.get(Reg::Ebx);
    assert!(sum > 3 * pushed && (sum - 1) % pushed == 0, "sum {sum:#x}");
}

/// The lookups a restart skips are counted as the hits they would have
/// been: `Tlb::stats` equals the stepped run's (one I-side lookup per
/// instruction), and the block cache counts one hit per iteration as
/// if every turn of the loop had looked its block up.
#[test]
fn ten_thousand_iterations_count_every_skipped_lookup() {
    const ITERATIONS: u32 = 10_000;
    let code = compile_loop(ITERATIONS);
    let (m, v) = same_as_stepped(|m| guest(m, &code));
    assert_eq!(v.guest.get(Reg::Ecx), 0);
    // Three blocks are decoded: the entry block (which runs the first
    // iteration), the loop proper, and the CPUID after it. Every later
    // turn of the loop is a hit on the loop's block.
    assert_eq!(
        m.cpus[0].decode_cache_stats(),
        DecodeCacheStats {
            hits: ITERATIONS as u64 - 2,
            misses: 3,
            invalidations: 0,
            evictions: 0,
        }
    );
    let tlb = m.cpus[0].tlb.stats;
    assert_eq!(
        tlb.hits + tlb.misses,
        m.cpus[0].instret + ITERATIONS as u64,
        "one fetch lookup per instruction, one data lookup per load"
    );
}

// ----------------------------------------------------------------------
// Counted loops
// ----------------------------------------------------------------------

/// Register work for a loop body; the `add` rewrites CF and OF (alone
/// in the body it is the tail's step), the `inc` leaves CF alone.
fn emit_body(a: &mut Asm, insns: usize) {
    let body: [fn(&mut Asm); 3] = [
        |a| a.add_ri(Reg::Eax, 0x7fff_fff1),
        |a| a.inc_r(Reg::Ebx),
        |a| a.mov_rr(Reg::Esi, Reg::Eax),
    ];
    for emit in &body[..insns] {
        emit(a);
    }
}

/// `mov ecx, count` · `top:` `body` register instructions · `dec ecx` ·
/// `jne top` · `cpuid`. Every instruction costs one cycle, so trip `n`
/// (from 1) ends `1 + n * (body + 2)` cycles after the first fetch's
/// page walk ([`first_walk`]). With `body` 0 the loop is a pure delay
/// loop: one block, only the tail, closed on itself. A `count` of 0
/// leaves the `mov` out — ECX is 0 at reset — so that the loop's own
/// block is entered with the counter at 0, one cycle earlier.
fn counted_loop(count: u32, body: usize) -> Vec<u8> {
    let mut a = Asm::new(CODE);
    if count != 0 {
        a.mov_ri(Reg::Ecx, count);
    }
    let top = a.here_label();
    emit_body(&mut a, body);
    a.dec_r(Reg::Ecx);
    a.jcc(Cond::Ne, top);
    a.cpuid();
    a.finish()
}

/// Cycles the nested walk for a guest's first instruction fetch takes;
/// all of a test program's code is in that one page.
fn first_walk() -> u64 {
    static WALK: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
    *WALK.get_or_init(|| {
        let mut m = machine();
        let mut v = guest(&mut m, &[0x0f, 0xa2]); // cpuid
        assert!(matches!(enter(&mut m, &mut v), ExitReason::Cpuid { .. }));
        m.clock - 1
    })
}

/// Enters [`counted_loop`] with CF as given, stops it `stop_at` cycles
/// after the first fetch's walk — by an external interrupt or by the
/// end of the quantum — and then lets it finish: stepped and real run
/// must agree at the stop and at the end.
fn stop_counted_loop_at(count: u32, body: usize, carry: bool, stop_at: u64, by_interrupt: bool) {
    let code = counted_loop(count, body);
    let walk = first_walk();
    let mut t = Twins::build(|m| {
        if by_interrupt {
            interrupt_in(m, walk + stop_at);
        }
        let mut v = guest(m, &code);
        if carry {
            v.guest.eflags |= flags::CF;
        }
        v
    });
    let what = format!("count {count} body {body} carry {carry} stop {stop_at} irq {by_interrupt}");
    let quantum = if by_interrupt {
        WHOLE_RUN
    } else {
        walk + stop_at
    };
    let first = t.enter(quantum);
    let end = 1 + count as u64 * (body as u64 + 2);
    if count != 0 && stop_at > end {
        assert!(
            matches!(first, ExitReason::Cpuid { .. }),
            "{what}: {first:?}"
        );
    } else {
        match first {
            ExitReason::ExtInt { .. } if by_interrupt => {}
            ExitReason::Preempt if !by_interrupt => {}
            other => panic!("{what}: {other:?}"),
        }
        assert_eq!(t.m.clock, walk + stop_at.max(1), "{what}");
        if count == 0 {
            // 2^32 trips are not for a stepped run to finish.
            return;
        }
        assert!(
            matches!(t.enter(WHOLE_RUN), ExitReason::Cpuid { .. }),
            "{what}"
        );
    }
    assert_eq!(t.v.guest.get(Reg::Ecx), 0, "{what}");
    assert_eq!(
        t.m.clock,
        walk + end + 1,
        "{what}: the loop, then the CPUID"
    );
}

/// A stop at every cycle of a short counted loop, and at ten
/// consecutive cycles around the first, a middle and the last trip of
/// a long one — so it falls after the `dec`, after the `jne`, inside
/// the body, on the last trip and just past it — leaves the machine
/// where the stepped run leaves it. Bodies of 0 (the closed form) to 3
/// instructions, CF set and clear on entry, stopped by an interrupt
/// and by the quantum.
///
/// Fails with `room / 2` for `(room - 1) / 2` in `retire_counted` (the
/// stop comes one instruction late whenever the horizon is an even
/// number of cycles away), with the flags of the *first* `dec` of a
/// stretch instead of the last (ZF, and so the final `jne`, wrong), and
/// with CF recomputed instead of carried over.
#[test]
fn counted_loop_stopped_anywhere_matches_stepped() {
    for body in 0..=3 {
        let trip = body as u64 + 2;
        for carry in [false, true] {
            for by_interrupt in [false, true] {
                for count in [1, 2, 3, 7] {
                    for stop_at in 0..=1 + count as u64 * trip + 3 {
                        stop_counted_loop_at(count, body, carry, stop_at, by_interrupt);
                    }
                }
                for around in [1, 500, 1000] {
                    let boundary = 1 + around * trip;
                    for stop_at in boundary.saturating_sub(4)..=boundary + 5 {
                        stop_counted_loop_at(1000, body, carry, stop_at, by_interrupt);
                    }
                }
            }
        }
    }
}

/// A counter of 0 means 2^32 trips, not none: a quantum that ends ten
/// thousand trips in finds the counter that far below 2^32 and the loop
/// still running, at every phase of a trip.
///
/// Fails with a counter of 0 taken for no trips left (the loop falls
/// through at once).
#[test]
fn counter_of_zero_wraps_to_two_to_the_32_trips() {
    for body in 0..=3 {
        let boundary = 10_000 * (body as u64 + 2);
        for stop_at in boundary - 4..=boundary + 5 {
            stop_counted_loop_at(0, body, stop_at % 2 == 0, stop_at, false);
        }
    }
    // And the one way such a loop ends inside a test: the counter
    // reaches 0 from the other side.
    let code = counted_loop(0, 0);
    let (m, v) = same_as_stepped(|m| {
        let mut v = guest(m, &code);
        // As if 2^32 - 1,000 trips were already done.
        v.guest.set(Reg::Ecx, 1000);
        v
    });
    assert_eq!(v.guest.get(Reg::Ecx), 0);
    assert_eq!(m.clock, first_walk() + 2_000 + 1);
}

/// The lookups a fused tail and a closed-form stretch skip are counted
/// as the hits they would have been. `Tlb::stats` is the stepped run's
/// (checked by [`Twins`]); the block cache counts, as before, one
/// lookup per turn of the loop.
///
/// Fails with the I-TLB hits or the block hits of `retire_counted`'s
/// iterations left uncounted.
#[test]
fn counted_loops_count_every_skipped_lookup() {
    const TRIPS: u32 = 1000;
    for body in 0..=3 {
        let code = counted_loop(TRIPS, body);
        let (m, _) = same_as_stepped(|m| guest(m, &code));
        // Decoded: the entry block (which runs the first trip), the
        // loop proper, the CPUID. Every later trip is a hit.
        assert_eq!(
            m.cpus[0].decode_cache_stats(),
            DecodeCacheStats {
                hits: TRIPS as u64 - 2,
                misses: 3,
                invalidations: 0,
                evictions: 0,
            },
            "body {body}"
        );
        let tlb = m.cpus[0].tlb.stats;
        assert_eq!(tlb.hits + tlb.misses, m.cpus[0].instret, "body {body}");
    }
    // A stop in the middle of the closed form costs one more lookup,
    // which finds the loop's block again.
    let code = counted_loop(TRIPS, 0);
    let mut t = Twins::build(|m| guest(m, &code));
    assert_eq!(t.enter(first_walk() + 1 + 2 * 400), ExitReason::Preempt);
    assert!(matches!(t.enter(WHOLE_RUN), ExitReason::Cpuid { .. }));
    let stats = t.m.cpus[0].decode_cache_stats();
    assert_eq!((stats.hits, stats.misses), (TRIPS as u64 - 2, 3));
}

/// Inside an STI shadow exactly one instruction runs before the
/// interrupt window opens: the `dec` of a counted tail met there is
/// retired alone, and the window exit finds EIP at the `jne`.
///
/// Fails with the fused tail taken under `single`.
#[test]
fn counted_tail_in_an_sti_shadow_retires_the_dec_alone() {
    let mut a = Asm::new(CODE);
    a.mov_ri(Reg::Ecx, 3);
    let top = a.here_label();
    a.sti();
    let dec_at = a.here();
    a.dec_r(Reg::Ecx);
    a.jcc(Cond::Ne, top);
    a.cpuid();
    let code = a.finish();
    let mut t = Twins::build(|m| {
        let mut v = guest(m, &code);
        v.intwin_exit = true;
        v
    });
    assert_eq!(t.enter(WHOLE_RUN), ExitReason::IntWindow);
    assert_eq!(t.v.guest.eip, dec_at + 1, "between the dec and the jne");
    assert_eq!(t.v.guest.get(Reg::Ecx), 2);
    // The rest of the loop has no shadow to respect (IF stays set).
    assert!(matches!(t.enter(WHOLE_RUN), ExitReason::Cpuid { .. }));
    assert_eq!(t.v.guest.get(Reg::Ecx), 0);
}

// ----------------------------------------------------------------------
// Counted loops with a step
// ----------------------------------------------------------------------

/// `op reg, imm` just before a counted loop's `dec`.
type AluStep = (AluOp, Reg, u32);

/// The compile loop with any step in place of its `add edi, 64`:
/// `mov edi, 0x10_0000` · `mov ecx, trips` · `mov ebx, 0x7fff_fff0` ·
/// `top:` `add eax, [edi]` · `<step>` · `dec ecx` · `jne top` ·
/// `cpuid`. The `add` clears CF every trip (the data is zeros), so CF
/// after a trip is the step's.
fn strided_loop(trips: u32, (op, reg, imm): AluStep) -> Vec<u8> {
    let mut a = Asm::new(CODE);
    a.mov_ri(Reg::Edi, 0x10_0000);
    a.mov_ri(Reg::Ecx, trips);
    a.mov_ri(Reg::Ebx, 0x7fff_fff0);
    let top = a.here_label();
    a.alu_rm(AluOp::Add, Reg::Eax, MemRef::base_disp(Reg::Edi, 0));
    a.alu_ri(op, reg, imm);
    a.dec_r(Reg::Ecx);
    a.jcc(Cond::Ne, top);
    a.cpuid();
    a.finish()
}

/// The compile loop itself, every ALU operation on EBX — an imm32 with
/// the sign bit set and an imm8 of −7 taking turns, so that the adds
/// carry, the subtracts borrow and SF moves — and a step on the counter
/// (ECX falls by three a trip).
fn strided_steps() -> Vec<(u32, AluStep)> {
    let mut loops = vec![(24, (AluOp::Add, Reg::Edi, 64))];
    for n in 0..8 {
        let imm = if n % 2 == 0 {
            0x9e37_79b9
        } else {
            (-7i32) as u32
        };
        loops.push((24, (AluOp::from_num(n), Reg::Ebx, imm)));
    }
    loops.push((3 * 24, (AluOp::Sub, Reg::Ecx, 2)));
    loops
}

/// A stop at every cycle of a window four trips long in the middle of
/// each [`strided_steps`] loop — so that an interrupt is due at every
/// phase of a trip — by interrupt and by quantum, then the rest of the
/// loop: registers (EFLAGS bit for bit, CF from a step that carries
/// included), clock, `instret` and `Tlb::stats` as the stepped run has
/// them at the stop and at the end.
///
/// Fails with the step's CF dropped (the `dec` carrying over the CF from
/// before the step), with the step applied after the `dec`, with
/// `clock + 2 < horizon` as the step tail's condition (the stop comes
/// one instruction late), with `2k` instead of `3k` instructions counted
/// for a trip, and with a `cmp` step that writes its register.
#[test]
fn strided_loop_with_a_step_stopped_anywhere_matches_stepped() {
    let walk = first_walk();
    for (trips, step) in strided_steps() {
        let code = strided_loop(trips, step);
        // The load costs its memory access; the rest one cycle each.
        let trip = 4 + machine().cost.mem_access;
        let start = walk + 3 + 10 * trip;
        let mut saw_carry = false;
        for stop_at in start..start + 4 * trip {
            for by_interrupt in [false, true] {
                let mut t = Twins::build(|m| {
                    if by_interrupt {
                        interrupt_in(m, stop_at);
                    }
                    guest(m, &code)
                });
                let what = format!("{step:?} stop {stop_at} irq {by_interrupt}");
                let quantum = if by_interrupt { WHOLE_RUN } else { stop_at };
                match t.enter(quantum) {
                    ExitReason::ExtInt { .. } if by_interrupt => {}
                    ExitReason::Preempt if !by_interrupt => {}
                    other => panic!("{what}: {other:?}"),
                }
                assert!(t.v.guest.get(Reg::Ecx) > 1, "{what}: inside the loop");
                saw_carry |= t.v.guest.eflags & flags::CF != 0;
                assert!(
                    matches!(t.enter(WHOLE_RUN), ExitReason::Cpuid { .. }),
                    "{what}"
                );
                assert_eq!(t.v.guest.get(Reg::Ecx), 0, "{what}");
            }
        }
        let (op, _, _) = step;
        let carries = matches!(
            op,
            AluOp::Add | AluOp::Adc | AluOp::Sub | AluOp::Sbb | AluOp::Cmp
        );
        assert_eq!(saw_carry, carries && step.1 == Reg::Ebx, "{step:?}");
    }
}

/// The lookups a fused step skips are counted as the hits they would
/// have been: `Tlb::stats` and `instret` as the stepped run has them
/// (checked by [`Twins`]), and one block-cache lookup per trip — the
/// entry block runs the first trip, every later one is a hit on the
/// loop's block.
///
/// Fails with the block hits of a stepped trip left uncounted, and with
/// `2k` instructions counted for it.
#[test]
fn strided_loops_count_every_skipped_lookup() {
    for (trips, step) in strided_steps() {
        let code = strided_loop(trips, step);
        let (m, v) = same_as_stepped(|m| guest(m, &code));
        assert_eq!(v.guest.get(Reg::Ecx), 0);
        let loop_trips = if step.1 == Reg::Ecx { trips / 3 } else { trips };
        assert_eq!(
            m.cpus[0].decode_cache_stats(),
            DecodeCacheStats {
                hits: loop_trips as u64 - 2,
                misses: 3,
                invalidations: 0,
                evictions: 0,
            },
            "{step:?}"
        );
        assert_eq!(
            m.cpus[0].instret,
            3 + 4 * loop_trips as u64 + 1,
            "{step:?}: the set-up, four a trip, the CPUID"
        );
    }
}

/// The same shadow with a step before the `dec`: the step is the one
/// instruction, and the window exit finds EIP at the `dec`.
///
/// Fails with the fused step taken under `single`.
#[test]
fn stepped_tail_in_an_sti_shadow_retires_the_step_alone() {
    let mut a = Asm::new(CODE);
    a.mov_ri(Reg::Ecx, 3);
    let top = a.here_label();
    a.sti();
    a.add_ri(Reg::Ebx, 5);
    let dec_at = a.here();
    a.dec_r(Reg::Ecx);
    a.jcc(Cond::Ne, top);
    a.cpuid();
    let code = a.finish();
    let mut t = Twins::build(|m| {
        let mut v = guest(m, &code);
        v.intwin_exit = true;
        v
    });
    assert_eq!(t.enter(WHOLE_RUN), ExitReason::IntWindow);
    assert_eq!(t.v.guest.eip, dec_at, "between the step and the dec");
    assert_eq!((t.v.guest.get(Reg::Ebx), t.v.guest.get(Reg::Ecx)), (5, 3));
    assert!(matches!(t.enter(WHOLE_RUN), ExitReason::Cpuid { .. }));
    assert_eq!(t.v.guest.get(Reg::Ebx), 15);
}

// ----------------------------------------------------------------------
// Strided reduction loops, a page of trips at a time
// ----------------------------------------------------------------------

/// Trips of every [`reduction_loop`]; the walk leaves its first page
/// on trip [`CROSSING`] (from 0).
const REDUCTION_TRIPS: u32 = 12;
const CROSSING: u32 = 4;

/// Where the data of the reduction loops lies: three pages of seeded
/// words, so every load of a walk reads something different.
const WALKED: u32 = 0x10_0000;

/// `mov edi, first` · `mov ecx, 12` · `top:` `op eax, [edi]` ·
/// `add|sub edi, stride` · `dec ecx` · `jne top` · `cpuid`: the Fig 5
/// compile loop by `op`, walking up or `down` by `stride` from four
/// trips short of a page boundary. Returns the code and `top`.
fn reduction_loop(op: AluOp, stride: u32, down: bool) -> (Vec<u8>, u32) {
    let first = if down {
        WALKED + 0x1000 + (CROSSING - 1) * stride
    } else {
        WALKED + 0x1000 - CROSSING * stride
    };
    let mut a = Asm::new(CODE);
    a.mov_ri(Reg::Edi, first);
    a.mov_ri(Reg::Ecx, REDUCTION_TRIPS);
    let top = a.here();
    let back = a.here_label();
    a.alu_rm(op, Reg::Eax, MemRef::base_disp(Reg::Edi, 0));
    a.alu_ri(if down { AluOp::Sub } else { AluOp::Add }, Reg::Edi, stride);
    a.dec_r(Reg::Ecx);
    a.jcc(Cond::Ne, back);
    a.cpuid();
    (a.finish(), top)
}

/// The seeded words of [`WALKED`]'s three pages.
fn walked_words(m: &mut Machine) {
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for at in (WALKED..WALKED + 0x3000).step_by(4) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        m.mem.write_u32(at as u64, x as u32);
    }
}

/// A guest running `code` over the seeded pages, with CF set on entry.
fn reduction_guest(m: &mut Machine, code: &[u8]) -> Vmcs {
    walked_words(m);
    let mut v = guest(m, code);
    v.guest.eflags |= flags::CF;
    v
}

/// The clock at the start of every trip of the loop at `top`, from a
/// run one instruction at a time.
fn trip_starts(code: &[u8], top: u32) -> Vec<u64> {
    let mut m = machine();
    let mut v = reduction_guest(&mut m, code);
    let mut starts = Vec::new();
    loop {
        if v.guest.eip == top {
            starts.push(m.clock);
        }
        if enter_for(&mut m, &mut v, 1) != ExitReason::Preempt {
            return starts;
        }
    }
}

/// The six operations a reduction loop is batched by, and the two it
/// is not (they read CF).
const REDUCTIONS: [AluOp; 8] = [
    AluOp::Add,
    AluOp::Or,
    AluOp::And,
    AluOp::Sub,
    AluOp::Xor,
    AluOp::Cmp,
    AluOp::Adc,
    AluOp::Sbb,
];

/// A stop at every cycle of a window from two trips before to two
/// trips after the walk leaves its page — by interrupt and by quantum,
/// walking up and down by 4 and by 64 — then the rest of the loop:
/// registers (EFLAGS bit for bit), clock, `instret` and `Tlb::stats`
/// as the stepped run has them at the stop and at the end.
///
/// Fails with the page bound one trip long (the batch reads past the
/// page), with `≤` for `<` in the horizon bound (the stop comes a trip
/// late), with the batch's data-TLB hits left uncounted and with the
/// peek counting a miss.
#[test]
fn strided_reduction_stopped_anywhere_across_a_page_matches_stepped() {
    for (stride, down) in [(4, false), (4, true), (64, false), (64, true)] {
        for op in [AluOp::Add, AluOp::Sub] {
            let (code, top) = reduction_loop(op, stride, down);
            let starts = trip_starts(&code, top);
            assert_eq!(starts.len(), REDUCTION_TRIPS as usize);
            let window = starts[CROSSING as usize - 2]..starts[CROSSING as usize + 2];
            for stop_at in window {
                for by_interrupt in [false, true] {
                    let mut t = Twins::build(|m| {
                        if by_interrupt {
                            interrupt_in(m, stop_at);
                        }
                        reduction_guest(m, &code)
                    });
                    let what =
                        format!("{op:?} by {stride} down {down} stop {stop_at} irq {by_interrupt}");
                    let quantum = if by_interrupt { WHOLE_RUN } else { stop_at };
                    match t.enter(quantum) {
                        ExitReason::ExtInt { .. } if by_interrupt => {}
                        ExitReason::Preempt if !by_interrupt => {}
                        other => panic!("{what}: {other:?}"),
                    }
                    assert!(
                        matches!(t.enter(WHOLE_RUN), ExitReason::Cpuid { .. }),
                        "{what}"
                    );
                    assert_eq!(t.v.guest.get(Reg::Ecx), 0, "{what}");
                    // The code page, then each data page once.
                    assert_eq!(t.m.cpus[0].tlb.stats.misses, 3, "{what}");
                }
            }
        }
    }
}

/// A whole run of each operation's loop in each direction and stride
/// is the stepped run's, reduces the words the walk passes over, and
/// counts what `k` passes of the per-instruction path count: one
/// data-TLB miss per page (the batch peeks, it does not look up), one
/// block lookup per trip, four instructions a trip. `adc` and `sbb`
/// are not batched, and agree too.
///
/// Fails with a `cmp` that writes its register, with `adc` accepted
/// (its carry-in is dropped), with the flags taken from the last load
/// instead of the step, with the page bound one trip long and with the
/// peek counting a miss.
#[test]
fn strided_reductions_reduce_and_count_as_stepped() {
    for (stride, down) in [(4, false), (4, true), (64, false), (64, true)] {
        for op in REDUCTIONS {
            let (code, _) = reduction_loop(op, stride, down);
            let what = format!("{op:?} by {stride} down {down}");
            let (m, v) = same_as_stepped(|m| reduction_guest(m, &code));
            let cpu = &m.cpus[0];
            assert_eq!(
                cpu.decode_cache_stats(),
                DecodeCacheStats {
                    hits: REDUCTION_TRIPS as u64 - 2,
                    misses: 3,
                    invalidations: 0,
                    evictions: 0,
                },
                "{what}"
            );
            assert_eq!(cpu.instret, 2 + 4 * REDUCTION_TRIPS as u64 + 1, "{what}");
            assert_eq!(cpu.tlb.stats.misses, 3, "{what}");
            let first = v.guest.get(Reg::Edi).wrapping_add(if down {
                REDUCTION_TRIPS * stride
            } else {
                (REDUCTION_TRIPS * stride).wrapping_neg()
            });
            let mut want = 0u32;
            for trip in 0..REDUCTION_TRIPS {
                let at = if down {
                    first - trip * stride
                } else {
                    first + trip * stride
                };
                let word = m.mem.read_u32(at as u64);
                want = match op {
                    AluOp::Add => want.wrapping_add(word),
                    AluOp::Or => want | word,
                    AluOp::And => want & word,
                    AluOp::Sub => want.wrapping_sub(word),
                    AluOp::Xor => want ^ word,
                    _ => want,
                };
            }
            if !matches!(op, AluOp::Adc | AluOp::Sbb) {
                assert_eq!(v.guest.get(Reg::Eax), want, "{what}");
            }
        }
    }
}

/// The AHCI register frame, mapped inside guest RAM as a BAR could be:
/// a reduction loop over it reads the registers on every trip (each
/// access costs the device round trip the stepped run charges), never
/// the RAM beneath them.
///
/// Fails with the device-frame filter skipped: the batch folds the
/// zeros of the RAM under the frame.
#[test]
fn a_reduction_over_a_device_frame_reaches_the_device_every_trip() {
    const BAR: u32 = 0x40_0000;
    let mut a = Asm::new(CODE);
    a.mov_ri(Reg::Edi, BAR);
    a.mov_ri(Reg::Ecx, 64);
    let top = a.here_label();
    a.alu_rm(AluOp::Or, Reg::Eax, MemRef::base_disp(Reg::Edi, 0));
    a.add_ri(Reg::Edi, 4);
    a.dec_r(Reg::Ecx);
    a.jcc(Cond::Ne, top);
    a.cpuid();
    let code = a.finish();
    let (m, v) = same_as_stepped(|m| {
        let ahci = m.dev.ahci;
        m.bus.map_mmio(BAR as u64, 0x1000, ahci);
        guest(m, &code)
    });
    assert_ne!(
        v.guest.get(Reg::Eax),
        0,
        "the registers, not the RAM beneath"
    );
    assert!(
        m.clock > 64 * nova_hw::cpu::DEVICE_ACCESS_CYCLES,
        "a device round trip a trip"
    );
}

/// Inside an STI shadow exactly one instruction retires: the load of a
/// reduction loop entered there runs alone, and the window exit finds
/// EIP at the step.
///
/// Fails with the batch taken under `single`.
#[test]
fn reduction_in_an_sti_shadow_retires_the_load_alone() {
    let mut a = Asm::new(CODE);
    a.mov_ri(Reg::Edi, WALKED);
    a.mov_ri(Reg::Ecx, 100);
    // The page is in the data TLB: only the shadow stands between the
    // load and a batch.
    a.mov_rm(Reg::Ebx, MemRef::abs(WALKED + 0x800));
    a.sti();
    let top = a.here_label();
    a.alu_rm(AluOp::Add, Reg::Eax, MemRef::base_disp(Reg::Edi, 0));
    let step_at = a.here();
    a.add_ri(Reg::Edi, 4);
    a.dec_r(Reg::Ecx);
    a.jcc(Cond::Ne, top);
    a.cpuid();
    let code = a.finish();
    let mut t = Twins::build(|m| {
        let mut v = reduction_guest(m, &code);
        v.intwin_exit = true;
        v
    });
    assert_eq!(t.enter(WHOLE_RUN), ExitReason::IntWindow);
    assert_eq!(t.v.guest.eip, step_at, "between the load and the step");
    let first = t.m.mem.read_u32(WALKED as u64);
    assert_eq!(
        (
            t.v.guest.get(Reg::Eax),
            t.v.guest.get(Reg::Edi),
            t.v.guest.get(Reg::Ecx)
        ),
        (first, WALKED, 100)
    );
    assert!(matches!(t.enter(WHOLE_RUN), ExitReason::Cpuid { .. }));
    assert_eq!(t.v.guest.get(Reg::Edi), WALKED + 400);
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
        let vcpu = nova_core::EcId((k.obj.ecs.len() - 1) as u16);

        let mut a = Asm::new(CODE);
        a.mov_mi(MemRef::abs(MARK), value);
        a.hlt();
        k.machine.mem.write_bytes(HOST + CODE as u64, &a.finish());
        k.machine.mem.write_u32(HOST + MARK as u64, 0);
        let vmcs = k.obj.ecs[vcpu.0 as usize].vmcs_mut().unwrap();
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
