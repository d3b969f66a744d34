//! Differential oracle for the block executor.
//!
//! [`reference`] keeps the interpreter the block executor replaced:
//! one instruction per pass of the outer loop, every outer check taken
//! every time, a fresh environment and a full fetch (translate, read,
//! decode — no cache of any kind) per instruction. It is the
//! definition of the simulated machine; `run_native`/`run_guest` must
//! be indistinguishable from it on every simulated observable.
//!
//! The tests drive both over seeded random programs ([`plan`]) in
//! three modes — native, nested paging, shadow paging under a tiny
//! stand-in hypervisor ([`World::handle_exit`]) — and compare, after
//! every stop, the registers, the clock, `instret`, `idle_cycles`,
//! `Tlb::stats`, and at the end all of RAM, the serial output and the
//! benchmark marks.

use super::*;
use crate::machine::{Machine, MachineConfig, DEBUG_EXIT_PORT, MARK_PORT};
use crate::tlb::TlbStats;
use nova_x86::insn::{AluOp, Cond, MemRef};
use nova_x86::paging::{npte, pte, NestedFormat};
use nova_x86::reg::{cr0, flags, vector, Reg8};
use nova_x86::Asm;

/// The per-instruction reference interpreter.
pub(super) mod reference {
    use super::super::*;

    /// Fetches and decodes the instruction at `eip` from memory.
    fn fetch(env: &mut CpuEnv, eip: u32) -> Result<Insn, CpuErr> {
        let hpa = env.translate(eip, Access::FETCH)?;
        let in_page = (4096 - (eip as usize & 0xfff)).min(MAX_INSN_LEN);
        let mut bytes = env.mem.read_bytes(hpa, in_page);
        match decode(&bytes) {
            Ok(i) => Ok(i),
            Err(DecodeError::Truncated) => {
                // Instruction straddles a page: translate the next page too.
                let next = (eip & !0xfff).wrapping_add(0x1000);
                let hpa2 = env.translate(next, Access::FETCH)?;
                let more = env.mem.read_bytes(hpa2, MAX_INSN_LEN - in_page);
                bytes.extend_from_slice(&more);
                decode(&bytes).map_err(|_| CpuErr::Fault(Fault::InvalidOpcode))
            }
            Err(DecodeError::InvalidOpcode) => Err(CpuErr::Fault(Fault::InvalidOpcode)),
        }
    }

    pub fn run_native(
        cpu: &mut Cpu,
        mem: &mut PhysMem,
        bus: &mut DeviceBus,
        cost: &CostModel,
        clock: &mut Cycles,
        budget: Option<Cycles>,
    ) -> NativeStop {
        let deadline = budget.map(|b| *clock + b);
        let mut no_exit = ExitReason::Preempt;
        macro_rules! env {
            () => {
                CpuEnv {
                    tlb: &mut cpu.tlb,
                    mem,
                    bus,
                    cost,
                    clock,
                    mmu: MmuRegs::from_regs(&cpu.regs),
                    guest: None,
                    exit: &mut no_exit,
                    bus_touched: false,
                }
            };
        }
        loop {
            if bus.next_event_due().is_some_and(|d| d <= *clock) {
                bus.process_events(mem, *clock);
            }
            if let Some(code) = bus.ctl.shutdown.take() {
                return NativeStop::Shutdown(code);
            }
            if deadline.is_some_and(|d| *clock >= d) {
                return NativeStop::Budget;
            }

            let shadow_was = cpu.sti_shadow;
            cpu.sti_shadow = false;
            if !shadow_was && cpu.regs.if_set() && bus.pic.intr() {
                if let Some(vec) = bus.pic.ack() {
                    cpu.halted = false;
                    *clock += IRQ_DELIVERY_CYCLES;
                    let mut env = env!();
                    match deliver(&mut cpu.regs, &mut env, vec, None) {
                        Delivery::Done => {}
                        _ => return NativeStop::TripleFault,
                    }
                }
            }

            if cpu.halted {
                match bus.next_event_due() {
                    Some(due) => {
                        let skip = due.saturating_sub(*clock);
                        cpu.idle_cycles += skip;
                        *clock = due;
                        continue;
                    }
                    None => return NativeStop::IdleForever,
                }
            }

            let mut env = env!();
            let step = fetch(&mut env, cpu.regs.eip)
                .and_then(|insn| execute(&insn, &mut cpu.regs, &mut env));
            *clock += 1;
            cpu.instret += 1;

            match step {
                Ok(Exec::Normal) | Ok(Exec::RepContinue) => {}
                Ok(Exec::Halt) => cpu.halted = true,
                Ok(Exec::StiShadow) => cpu.sti_shadow = true,
                Err(CpuErr::Fault(f)) => {
                    if let Fault::Page { addr, .. } = f {
                        cpu.regs.cr2 = addr;
                    }
                    let mut env = env!();
                    match deliver(&mut cpu.regs, &mut env, f.vector(), f.error_code()) {
                        Delivery::Done => {}
                        _ => return NativeStop::TripleFault,
                    }
                }
                Err(CpuErr::Exit) => unreachable!("no VM exits in native mode"),
            }
        }
    }

    pub fn run_guest(
        cpu: &mut Cpu,
        mem: &mut PhysMem,
        bus: &mut DeviceBus,
        cost: &CostModel,
        clock: &mut Cycles,
        vmcs: &mut Vmcs,
        quantum: Option<Cycles>,
    ) -> ExitReason {
        let vpid = vmcs.vpid;
        if vpid == 0 {
            cpu.tlb.flush_all();
        }
        let reason = guest_loop(cpu, mem, bus, cost, clock, vmcs, quantum);
        if vpid == 0 {
            cpu.tlb.flush_all();
        }
        reason
    }

    fn guest_loop(
        cpu: &mut Cpu,
        mem: &mut PhysMem,
        bus: &mut DeviceBus,
        cost: &CostModel,
        clock: &mut Cycles,
        vmcs: &mut Vmcs,
        quantum: Option<Cycles>,
    ) -> ExitReason {
        let ctl = GuestCtx {
            vpid: vmcs.vpid,
            paging: vmcs.paging,
            intercept_pf: vmcs.intercept_pf,
            intercept_hlt: vmcs.intercept_hlt,
            intercept_rdtsc: vmcs.intercept_rdtsc,
            intercept_cr: vmcs.intercept_cr,
            io_passthrough: &vmcs.io_passthrough,
            tsc_offset: vmcs.tsc_offset,
        };
        // The reason an access parked (a fill's nested violation or
        // shadow #PF); returned by value, so the reference does not
        // share the executor's `vmcs.exit` bookkeeping.
        let mut parked = ExitReason::Preempt;
        macro_rules! env {
            () => {
                CpuEnv {
                    tlb: &mut cpu.tlb,
                    mem,
                    bus,
                    cost,
                    clock,
                    mmu: MmuRegs::from_regs(&vmcs.guest),
                    guest: Some(ctl),
                    exit: &mut parked,
                    bus_touched: false,
                }
            };
        }

        if let Some(inj) = vmcs.injection.take() {
            vmcs.halted = false;
            let mut env = env!();
            match deliver(&mut vmcs.guest, &mut env, inj.vector, inj.error_code) {
                Delivery::Done => {}
                Delivery::Exit => {
                    vmcs.injection = Some(inj);
                    return parked;
                }
                Delivery::Fatal => return ExitReason::TripleFault,
            }
        }

        let deadline = quantum.map(|q| *clock + q);

        loop {
            if bus.next_event_due().is_some_and(|d| d <= *clock) {
                bus.process_events(mem, *clock);
            }
            if bus.ctl.shutdown.is_some() {
                return ExitReason::Preempt;
            }
            if vmcs.recall_pending {
                vmcs.recall_pending = false;
                return ExitReason::Recall;
            }
            if deadline.is_some_and(|d| *clock >= d) {
                return ExitReason::Preempt;
            }

            let shadow_was = vmcs.sti_shadow;
            vmcs.sti_shadow = false;
            if bus.pic.intr() {
                if vmcs.intercept_extint {
                    if let Some(vec) = bus.pic.ack() {
                        return ExitReason::ExtInt { vector: vec };
                    }
                } else if !shadow_was && vmcs.guest.if_set() {
                    if let Some(vec) = bus.pic.ack() {
                        vmcs.halted = false;
                        *clock += IRQ_DELIVERY_CYCLES;
                        let mut env = env!();
                        match deliver(&mut vmcs.guest, &mut env, vec, None) {
                            Delivery::Done => {}
                            Delivery::Exit => {
                                vmcs.injection = Some(Injection {
                                    vector: vec,
                                    error_code: None,
                                });
                                return parked;
                            }
                            Delivery::Fatal => return ExitReason::TripleFault,
                        }
                    }
                }
            }

            if vmcs.intwin_exit && !shadow_was && vmcs.guest.if_set() {
                vmcs.intwin_exit = false;
                return ExitReason::IntWindow;
            }

            if vmcs.halted {
                match bus.next_event_due() {
                    Some(due) => {
                        let skip = due.saturating_sub(*clock);
                        cpu.idle_cycles += skip;
                        *clock = due;
                        continue;
                    }
                    None => return ExitReason::TripleFault,
                }
            }

            let mut env = env!();
            let step = fetch(&mut env, vmcs.guest.eip).and_then(|insn| {
                if let Some(reason) = intercept(&insn, &vmcs.guest, &ctl) {
                    return Err(env.exit(reason));
                }
                execute(&insn, &mut vmcs.guest, &mut env)
            });
            *clock += 1;
            cpu.instret += 1;

            match step {
                Ok(Exec::Normal) | Ok(Exec::RepContinue) => {}
                Ok(Exec::Halt) => vmcs.halted = true,
                Ok(Exec::StiShadow) => vmcs.sti_shadow = true,
                Err(CpuErr::Exit) => return parked,
                Err(CpuErr::Fault(f)) => {
                    if let Fault::Page { addr, .. } = f {
                        vmcs.guest.cr2 = addr;
                    }
                    let mut env = env!();
                    match deliver(&mut vmcs.guest, &mut env, f.vector(), f.error_code()) {
                        Delivery::Done => {}
                        Delivery::Exit => return parked,
                        Delivery::Fatal => return ExitReason::TripleFault,
                    }
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Memory map of the generated programs (physical == guest-physical).
// ----------------------------------------------------------------------

const IDT: u32 = 0x1000;
const IDTR: u32 = 0x1800;
const CODE: u32 = 0x4000;
const STACK: u32 = 0x1f000;
/// Four pages of scratch data.
const DATA: u32 = 0x20000;
/// A page the guest's own page table maps read-only.
const RO_PAGE: u32 = 0x24000;
/// Counters the interrupt handlers bump.
const TICKS: u32 = 0x25000;
const GUEST_PD: u32 = 0x30000;
const GUEST_PT: u32 = 0x31000;
/// Sixteen pages the guest's page table leaves not-present.
const PF_HOLE: u32 = 0x30_0000;
/// Sixteen pages the nested table leaves not-present until touched.
const EPT_HOLE: u32 = 0x38_0000;
const EPT_ROOT: u64 = 24 << 20;
const SHADOW_PD: u64 = 0x80_0000;
const SHADOW_PT_POOL: u64 = 0x80_1000;
const VGA: u32 = crate::vga::VGA_BASE as u32;
/// MMIO window of the [`Doorbell`] test device.
const DOORBELL: u32 = 0xa_0000;
const DOORBELL_IRQ: u8 = 5;
const SOFT_VECTOR: u8 = 0x30;
/// Vectors from here up are beyond the IDT limit (#GP on `int`).
const IDT_VECTORS: u32 = 0x40;
/// Every deliberately faulting instruction is this long, so the fault
/// handlers can step over it.
const PF_INSN_LEN: u32 = 6;

/// A device whose register writes have consequences *between*
/// instructions: a write of `n` pulses its interrupt line `n & 0xff`
/// cycles later, a read returns the current cycle. Plain loads and
/// stores reach it, so it is hit in the middle of blocks.
struct Doorbell;

impl crate::device::Device for Doorbell {
    fn name(&self) -> &'static str {
        "doorbell"
    }
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
    fn mmio_read(&mut self, ctx: &mut crate::device::DevCtx, _off: u32, _size: OpSize) -> u32 {
        ctx.now as u32
    }
    fn mmio_write(&mut self, ctx: &mut crate::device::DevCtx, _off: u32, _size: OpSize, val: u32) {
        ctx.schedule(val as u64 & 0xff, 0);
    }
    fn event(&mut self, ctx: &mut crate::device::DevCtx, _token: u64) {
        ctx.pulse_irq(DOORBELL_IRQ);
    }
}

/// Deterministic xorshift RNG, conditioned like `fault::Rng` and
/// `nova_guest::hostile::HostileRng`.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: u64) -> u32 {
        (self.next() % n) as u32
    }

    fn pick<T: Copy>(&mut self, of: &[T]) -> T {
        of[self.below(of.len() as u64) as usize]
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    /// Bare machine; odd seeds run with paging on.
    Native,
    /// Guest under an identity nested table.
    Ept,
    /// Guest under shadow paging filled by the stand-in hypervisor.
    Shadow,
}

/// Registers the generated code may clobber freely (ECX counts loops,
/// EDX names ports, ESP/EBP hold the stack).
const SCRATCH: [Reg; 4] = [Reg::Eax, Reg::Ebx, Reg::Esi, Reg::Edi];

/// Emits straight-line register and memory work.
fn emit_alu(a: &mut Asm, rng: &mut Rng, n: u32) {
    for _ in 0..n {
        let (r, s) = (rng.pick(&SCRATCH), rng.pick(&SCRATCH));
        // Dword slots, some straddling a page boundary.
        let slot = DATA + rng.below(4) * 0x1000 + rng.pick(&[0u32, 0x10, 0x7fc, 0xffc, 0xffe]);
        let m = MemRef::abs(slot);
        let op = rng.pick(&[
            AluOp::Add,
            AluOp::Sub,
            AluOp::Xor,
            AluOp::Or,
            AluOp::And,
            AluOp::Adc,
            AluOp::Cmp,
        ]);
        match rng.below(14) {
            0 => a.alu_rr(op, r, s),
            1 => a.alu_ri(op, r, rng.next() as u32),
            2 => a.alu_mr(op, m, r),
            3 => a.alu_rm(op, r, m),
            4 => a.mov_mr(m, r),
            5 => a.mov_rm(r, m),
            6 => a.mov_ri(r, rng.next() as u32),
            7 => {
                a.push_r(r);
                a.pop_r(s);
            }
            8 => a.shl_ri(r, rng.below(31) as u8 + 1),
            9 => a.imul_rr(r, s),
            10 => a.lea(r, MemRef::base_disp(s, rng.below(256) as i32)),
            11 => a.inc_m(m),
            12 => a.movzx_rm8(r, m),
            _ => a.mov_m8i(m, rng.next() as u8),
        }
    }
}

/// Everything the planner needs to know about the image under
/// construction.
struct Plan<'a> {
    a: &'a mut Asm,
    rng: Rng,
    mode: Mode,
    paged: bool,
    helper: nova_x86::asm::Label,
    helper_imm: nova_x86::asm::Label,
}

impl Plan<'_> {
    /// One fragment of the program body. Every fragment leaves the
    /// stack balanced and terminates on its own.
    fn fragment(&mut self) {
        let a = &mut *self.a;
        let rng = &mut self.rng;
        match rng.below(22) {
            0 | 1 => {
                let n = 1 + rng.below(24);
                emit_alu(a, rng, n);
            }
            2 | 19..=21 => {
                // A counted loop: long enough to cross timer ticks and
                // budgets mid-block. Three in four have the strided
                // shape of the compile guests: a load through EDX
                // (which `emit_alu` leaves alone) by any ALU operation,
                // then a step — EDX's stride, or any ALU operation on a
                // scratch register — just before the `dec`; most of
                // those are nothing else, the executor's batched form.
                let strided = rng.below(4) != 0;
                let stride = 4 << rng.below(4);
                let down = rng.below(2) == 0;
                // Where the walk goes: the data pages (which it never
                // leaves), or from just before a page the guest's or
                // the nested table leaves unmapped, or a device frame,
                // across into it. The load then has a disp32, so that
                // it is the six bytes the #PF handler steps over.
                let (target, pages, disp) = match rng.below(10) {
                    0 => (PF_HOLE, 16, 0x100),
                    1 => (EPT_HOLE, 16, -0x100),
                    2 => (DOORBELL, 1, 0x100),
                    3 => (VGA, 1, -0x100),
                    _ => (DATA, 4, 0),
                };
                let off_page = target != DATA;
                let trips = if !strided {
                    1 + rng.below(400)
                } else if off_page {
                    1 + rng.below(100)
                } else {
                    1 + rng.below(1000.min(0x3ffc / stride) as u64)
                };
                a.mov_ri(Reg::Ecx, trips);
                if strided {
                    // A few trips before the boundary whichever way it
                    // walks, or inside the data pages.
                    let before = rng.below(8) * stride;
                    let end = target + pages * 0x1000;
                    let first = match (off_page, down) {
                        (false, false) => DATA,
                        (false, true) => end - 4,
                        (true, false) => target - 4 - before,
                        (true, true) => end + before,
                    };
                    a.mov_ri(Reg::Edx, first.wrapping_sub(disp as u32));
                }
                let top = a.here_label();
                let n = if !strided {
                    1 + rng.below(6)
                } else if rng.below(8) == 0 {
                    1 + rng.below(3)
                } else {
                    0
                };
                emit_alu(a, rng, n);
                if strided {
                    let r = rng.pick(&SCRATCH);
                    let op = AluOp::from_num(rng.below(8) as u8);
                    a.alu_rm(op, r, MemRef::base_disp(Reg::Edx, disp));
                    if rng.below(8) != 0 {
                        let op = if down { AluOp::Sub } else { AluOp::Add };
                        a.alu_ri(op, Reg::Edx, stride);
                    } else {
                        let op = AluOp::from_num(rng.below(8) as u8);
                        // An imm8 or an imm32 encoding.
                        let (short, long) = (rng.below(256) as i8 as u32, rng.next() as u32);
                        let imm = rng.pick(&[short, long]);
                        a.alu_ri(op, rng.pick(&SCRATCH), imm);
                    }
                }
                a.dec_r(Reg::Ecx);
                a.jcc(Cond::Ne, top);
            }
            3 => {
                a.call(self.helper);
                a.alu_rr(AluOp::Add, Reg::Ebx, Reg::Eax);
            }
            4 => {
                // Self-modification: patch the helper's immediate.
                a.mov_r_label(Reg::Esi, self.helper_imm);
                a.mov_mi(MemRef::base_disp(Reg::Esi, 1), rng.next() as u32);
                a.call(self.helper);
            }
            5 => {
                // rep stosd / rep movsd over the data pages, either
                // direction.
                let dwords = 1 + rng.below(300);
                let backwards = rng.below(4) == 0;
                a.mov_ri(Reg::Ecx, dwords);
                a.mov_ri(Reg::Eax, rng.next() as u32);
                if backwards {
                    a.bytes(&[0xfd]); // std
                    a.mov_ri(Reg::Edi, DATA + 0x2000 + dwords * 4);
                    a.mov_ri(Reg::Esi, DATA + 0x3ffc);
                } else {
                    a.cld();
                    a.mov_ri(Reg::Edi, DATA + rng.below(0x1000));
                    a.mov_ri(Reg::Esi, DATA + 0x2000 + rng.below(0x800));
                }
                if rng.below(2) == 0 {
                    a.rep_stosd();
                } else {
                    a.rep_movsd();
                }
                a.cld();
            }
            6 => {
                // A short rep stosd into the VGA window: one MMIO
                // write per iteration.
                a.cld();
                a.mov_ri(Reg::Ecx, 1 + rng.below(6));
                a.mov_ri(Reg::Edi, VGA + rng.below(64) * 4);
                a.mov_ri(Reg::Eax, 0x0741_0742);
                a.rep_stosd();
            }
            7 => {
                // MMIO load/store in the middle of straight-line code.
                let n = 1 + rng.below(4);
                emit_alu(a, rng, n);
                a.mov_mr(MemRef::abs(VGA + rng.below(128) * 4), Reg::Eax);
                a.mov_rm(Reg::Ebx, MemRef::abs(VGA + rng.below(128) * 4));
                let n = 1 + rng.below(4);
                emit_alu(a, rng, n);
            }
            8 => {
                // Interrupt-flag traffic.
                match rng.below(5) {
                    0 => a.cli(),
                    1 => {
                        a.sti();
                        let n = 1 + rng.below(3);
                        emit_alu(a, rng, n);
                    }
                    2 => {
                        a.pushf();
                        a.cli();
                        let n = 1 + rng.below(8);
                        emit_alu(a, rng, n);
                        a.popf();
                    }
                    3 => {
                        // STI directly followed by STI and CLI: shadows.
                        a.cli();
                        a.sti();
                        a.sti();
                        a.cli();
                        a.sti();
                    }
                    _ => a.int_n(SOFT_VECTOR),
                }
            }
            9 => {
                // Port I/O: the serial port and mark port reach real
                // devices in every mode; 0x80 and 0x61 are unrouted
                // (and exit under a VMCS).
                match rng.below(4) {
                    0 => {
                        a.mov_ri(Reg::Edx, crate::serial::COM1 as u32);
                        a.mov_r8i(Reg8::Al, b'a' + rng.below(26) as u8);
                        a.out_dx_al();
                    }
                    1 => {
                        a.mov_ri(Reg::Edx, MARK_PORT as u32);
                        a.out_dx_eax();
                    }
                    2 => a.out_imm_al(0x80),
                    _ => a.in_al_imm(0x61),
                }
            }
            10 => {
                a.cpuid();
                a.alu_rr(AluOp::Xor, Reg::Ebx, Reg::Eax);
            }
            11 => {
                // The clock itself, folded into the register state.
                a.rdtsc();
                a.alu_rr(AluOp::Add, Reg::Esi, Reg::Eax);
            }
            12 => {
                // Sleep until the next tick (skipped with IF clear: the
                // planner cannot know, so it sets IF first).
                a.sti();
                a.nop();
                a.hlt();
            }
            13 => {
                // Exceptions: #DE, #UD, #GP (vector beyond the IDT).
                match rng.below(3) {
                    0 => {
                        a.xor_rr(Reg::Ebx, Reg::Ebx);
                        a.div_r(Reg::Ebx);
                    }
                    1 => a.bytes(&[0x0f, 0xff]),
                    _ => a.int_n(IDT_VECTORS as u8 + rng.below(16) as u8),
                }
            }
            14 if self.paged => {
                // Page faults (six-byte instructions the handler steps
                // over): not-present read and write, write to a
                // read-only page. Then TLB maintenance.
                let hole = MemRef::abs(PF_HOLE + rng.below(16) * 0x1000 + rng.below(0x3f0) * 4);
                match rng.below(5) {
                    0 => a.mov_rm(Reg::Eax, hole),
                    1 => a.mov_mr(hole, Reg::Eax),
                    2 => a.mov_mr(MemRef::abs(RO_PAGE + rng.below(0x3f0) * 4), Reg::Eax),
                    3 => a.invlpg(MemRef::abs(DATA + rng.below(4) * 0x1000)),
                    _ => {
                        a.mov_r_cr(Reg::Eax, 3);
                        a.mov_cr_r(3, Reg::Eax);
                    }
                }
            }
            15 => {
                // Ring the doorbell from the middle of a block: its
                // interrupt is due within a few instructions.
                let n = 1 + rng.below(4);
                emit_alu(a, rng, n);
                a.mov_mi(MemRef::abs(DOORBELL), rng.pick(&[0, 1, 2, 5, 40, 200]));
                let n = 1 + rng.below(12);
                emit_alu(a, rng, n);
                a.alu_rm(AluOp::Xor, Reg::Edi, MemRef::abs(DOORBELL + 4));
            }
            16 => {
                // Patch an instruction further down the running block.
                let later = a.label();
                a.mov_r_label(Reg::Esi, later);
                a.mov_mi(MemRef::base_disp(Reg::Esi, 1), rng.next() as u32);
                let n = rng.below(3);
                emit_alu(a, rng, n);
                a.bind(later);
                a.mov_ri(Reg::Eax, 0);
                a.alu_rr(AluOp::Add, Reg::Ebx, Reg::Eax);
            }
            18 => {
                // A delay loop, nothing but its `dec`·`jne` tail: the
                // executor's closed form, long enough for budgets and
                // timer ticks to end inside it. One in four opens an
                // interrupt shadow over the `dec` every time round, so
                // the tail is met under `single` too.
                let shadowed = rng.below(4) == 0;
                a.mov_ri(Reg::Ecx, 1 + rng.below(if shadowed { 40 } else { 4000 }));
                let top = a.here_label();
                if shadowed {
                    a.cli();
                    a.sti();
                }
                a.dec_r(Reg::Ecx);
                a.jcc(Cond::Ne, top);
            }
            17 if self.mode == Mode::Ept => {
                // A page the nested table does not map yet.
                let m = MemRef::abs(EPT_HOLE + rng.below(16) * 0x1000 + rng.below(0x3f0) * 4);
                a.mov_mr(m, Reg::Ebx);
                a.alu_rm(AluOp::Add, Reg::Esi, m);
            }
            _ => {
                let n = 1 + rng.below(8);
                emit_alu(a, rng, n);
            }
        }
    }
}

/// A generated program.
struct Image {
    /// Machine code, loaded at `CODE`.
    code: Vec<u8>,
    /// `(vector, handler address)` for the IDT.
    gates: [(u8, u32); 7],
    /// Runs with its own page table enabled.
    paged: bool,
}

/// Builds the image for `(mode, seed)`: handlers, timer set-up, a
/// seeded body, shutdown.
fn plan(mode: Mode, seed: u64) -> Image {
    let mut rng = Rng::new(seed ^ (mode as u64) << 56);
    let paged = mode != Mode::Native || seed & 1 == 1;
    let mut a = Asm::new(CODE);
    let start = a.label();
    a.jmp(start);

    // Handlers.
    let step_over = |a: &mut Asm, errcode: bool, len: u32| {
        if errcode {
            a.add_ri(Reg::Esp, 4);
        }
        a.alu_mi(AluOp::Add, MemRef::base_disp(Reg::Esp, 0), len);
        a.iret();
    };
    let timer = a.here();
    a.push_r(Reg::Eax);
    a.inc_m(MemRef::abs(TICKS));
    a.mov_r8i(Reg8::Al, 0x20);
    a.out_imm_al(crate::pic::MASTER_CMD as u8);
    a.pop_r(Reg::Eax);
    a.iret();
    let soft = a.here();
    a.inc_m(MemRef::abs(TICKS + 4));
    a.iret();
    let doorbell = a.here();
    a.push_r(Reg::Eax);
    a.inc_m(MemRef::abs(TICKS + 8));
    a.mov_r8i(Reg8::Al, 0x20);
    a.out_imm_al(crate::pic::MASTER_CMD as u8);
    a.pop_r(Reg::Eax);
    a.iret();
    let de = a.here();
    step_over(&mut a, false, 2);
    let ud = a.here();
    step_over(&mut a, false, 2);
    let gp = a.here();
    step_over(&mut a, true, 2);
    let pf = a.here();
    step_over(&mut a, true, PF_INSN_LEN);
    let gates = [
        (0x20, timer),
        (0x20 + DOORBELL_IRQ, doorbell),
        (SOFT_VECTOR, soft),
        (vector::DIVIDE_ERROR, de),
        (vector::INVALID_OPCODE, ud),
        (vector::GP_FAULT, gp),
        (vector::PAGE_FAULT, pf),
    ];

    let helper = a.label();
    let helper_imm = a.label();
    a.bind(helper);
    a.bind(helper_imm);
    a.mov_ri(Reg::Eax, 1);
    a.ret();

    a.bind(start);
    a.lidt(MemRef::abs(IDTR));
    // Unmask the timer and the doorbell, start the PIT with a period
    // of a few thousand cycles so ticks land inside blocks all the
    // time.
    a.mov_r8i(Reg8::Al, !(1 | 1 << DOORBELL_IRQ));
    a.out_imm_al(crate::pic::MASTER_DATA as u8);
    a.mov_r8i(Reg8::Al, 0x34);
    a.out_imm_al(crate::pit::MODE as u8);
    a.mov_r8i(Reg8::Al, 2 + rng.below(12) as u8);
    a.out_imm_al(crate::pit::CH0 as u8);
    a.mov_r8i(Reg8::Al, 0);
    a.out_imm_al(crate::pit::CH0 as u8);
    a.sti();

    let fragments = 60 + rng.below(100);
    let mut p = Plan {
        a: &mut a,
        rng,
        mode,
        paged,
        helper,
        helper_imm,
    };
    for _ in 0..fragments {
        p.fragment();
    }

    a.cli();
    a.mov_r8i(Reg8::Al, 0);
    a.mov_ri(Reg::Edx, DEBUG_EXIT_PORT as u32);
    a.out_dx_al();

    Image {
        code: a.finish(),
        gates,
        paged,
    }
}

/// What is compared after every stop.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Snapshot {
    stop: String,
    regs: Regs,
    halted: bool,
    sti_shadow: bool,
    clock: Cycles,
    instret: u64,
    idle_cycles: Cycles,
    tlb: TlbStats,
    tlb_occupancy: usize,
}

/// One machine plus, in the guest modes, its VMCS and the stand-in
/// hypervisor's state.
struct World {
    m: Machine,
    vmcs: Option<Vmcs>,
    rng: Rng,
    next_shadow_pt: u64,
    pending_vector: Option<u8>,
}

impl World {
    fn build(mode: Mode, seed: u64) -> World {
        let mut m = Machine::new(MachineConfig::core_i7(32 << 20));
        let bell = m.bus.add_device(Box::new(Doorbell));
        m.bus.map_mmio(DOORBELL as u64, 0x1000, bell);
        let image = plan(mode, seed);

        // IDT and its descriptor.
        for (vec, handler) in image.gates {
            let gate = IDT as u64 + vec as u64 * 8;
            m.mem.write_u32(gate, (handler & 0xffff) | 8 << 16);
            m.mem.write_u32(gate + 4, (handler & 0xffff_0000) | 0x8e00);
        }
        m.mem.write_u32(IDTR as u64, IDT_VECTORS * 8 - 1);
        m.mem.write_u32(IDTR as u64 + 2, IDT);
        m.load_image(CODE as u64, &image.code);

        // The program's own page table: identity over 4 MB, one
        // read-only page, one hole.
        m.mem.write_u32(GUEST_PD as u64, GUEST_PT | pte::P | pte::W);
        for i in 0..1024u32 {
            let va = i << 12;
            let e = match va {
                RO_PAGE => va | pte::P,
                _ if (PF_HOLE..PF_HOLE + 0x10000).contains(&va) => 0,
                _ => va | pte::P | pte::W,
            };
            m.mem.write_u32(GUEST_PT as u64 + i as u64 * 4, e);
        }
        let mut regs = Regs::at(CODE);
        regs.set(Reg::Esp, STACK);
        regs.eflags = flags::R1;
        if image.paged {
            regs.cr3 = GUEST_PD;
            regs.cr0 = cr0::PE | cr0::PG;
        }

        let mut rng = Rng::new(seed.rotate_left(17) ^ 0xabcd);
        let vmcs = match mode {
            Mode::Native => {
                m.cpus[0].regs = regs;
                None
            }
            Mode::Ept | Mode::Shadow => {
                let mut v = if mode == Mode::Ept {
                    Vmcs::new(
                        PagingVirt::Nested {
                            root: ept(&mut m),
                            fmt: NestedFormat::Ept4Level,
                        },
                        1,
                    )
                } else {
                    Vmcs::new_shadow(SHADOW_PD, 1)
                };
                v.guest = regs;
                // Timer, interrupt controller, serial, debug ports are
                // the guest's own; everything else exits.
                v.passthrough_ports(crate::pic::MASTER_CMD, 2);
                v.passthrough_ports(crate::pit::CH0, 4);
                v.passthrough_ports(crate::serial::COM1, 8);
                v.passthrough_ports(DEBUG_EXIT_PORT, 2);
                v.intercept_hlt = rng.below(2) == 0;
                v.intercept_extint = rng.below(2) == 0;
                v.intercept_rdtsc = rng.below(4) == 0;
                if rng.below(8) == 0 {
                    v.vpid = 0; // untagged: flush on every transition
                }
                Some(v)
            }
        };
        World {
            m,
            vmcs,
            rng,
            next_shadow_pt: SHADOW_PT_POOL,
            pending_vector: None,
        }
    }

    fn snapshot(&self, stop: String) -> Snapshot {
        let cpu = &self.m.cpus[0];
        let (regs, halted, sti_shadow) = match &self.vmcs {
            Some(v) => (v.guest.clone(), v.halted, v.sti_shadow),
            None => (cpu.regs.clone(), cpu.halted, cpu.sti_shadow),
        };
        Snapshot {
            stop,
            regs,
            halted,
            sti_shadow,
            clock: self.m.clock,
            instret: cpu.instret,
            idle_cycles: cpu.idle_cycles,
            tlb: cpu.tlb.stats,
            tlb_occupancy: cpu.tlb.occupancy(),
        }
    }

    /// Runs to shutdown in seeded slices, recording a snapshot per stop.
    fn drive(&mut self, reference: bool) -> Vec<Snapshot> {
        let mut trace = Vec::new();
        for _ in 0..20_000 {
            let slice = Some(500 + self.rng.below(30_000) as u64);
            let m = &mut self.m;
            let cost = m.cost;
            let (cpu, mem, bus, clock) = (&mut m.cpus[0], &mut m.mem, &mut m.bus, &mut m.clock);
            match self.vmcs.as_mut() {
                None => {
                    let stop = if reference {
                        reference::run_native(cpu, mem, bus, &cost, clock, slice)
                    } else {
                        run_native(cpu, mem, bus, &cost, clock, slice)
                    };
                    trace.push(self.snapshot(format!("{stop:?}")));
                    if stop != NativeStop::Budget {
                        return trace;
                    }
                }
                Some(vmcs) => {
                    let exit = if reference {
                        reference::run_guest(cpu, mem, bus, &cost, clock, vmcs, slice)
                    } else {
                        run_guest(cpu, mem, bus, &cost, clock, vmcs, slice);
                        vmcs.exit
                    };
                    trace.push(self.snapshot(format!("{exit:?}")));
                    if self.m.bus.ctl.shutdown.is_some() || exit == ExitReason::TripleFault {
                        return trace;
                    }
                    self.handle_exit(exit);
                }
            }
        }
        panic!("program did not finish");
    }

    /// The stand-in hypervisor: just enough to keep the guest going,
    /// and to exercise injection, interrupt windows, recalls, shadow
    /// fills and nested faults.
    fn handle_exit(&mut self, exit: ExitReason) {
        let m = &mut self.m;
        let v = self.vmcs.as_mut().unwrap();
        let g = &mut v.guest;
        match exit {
            ExitReason::Preempt | ExitReason::Recall => {}
            ExitReason::ExtInt { vector } => self.pending_vector = Some(vector),
            ExitReason::IntWindow => {}
            ExitReason::Cpuid { len } => {
                let r = m.cost.ident.cpuid(g.get(Reg::Eax));
                for (reg, val) in [Reg::Eax, Reg::Ebx, Reg::Ecx, Reg::Edx].into_iter().zip(r) {
                    g.set(reg, val);
                }
                g.eip += len as u32;
            }
            ExitReason::Rdtsc { len } => {
                g.set(Reg::Eax, m.clock as u32);
                g.set(Reg::Edx, (m.clock >> 32) as u32);
                g.eip += len as u32;
            }
            ExitReason::Hlt { len } => {
                g.eip += len as u32;
                v.halted = true;
            }
            ExitReason::Vmcall { len } => g.eip += len as u32,
            ExitReason::IoPort {
                port, write, len, ..
            } => {
                if !write {
                    g.set8(Reg8::Al, port as u8 ^ 0x5a);
                }
                g.eip += len as u32;
            }
            ExitReason::EptViolation { gpa, .. } => {
                assert!((EPT_HOLE as u64..EPT_HOLE as u64 + 0x10000).contains(&gpa));
                let l0 = EPT_ROOT + 0x3000 + (gpa >> 21) * 0x1000;
                m.mem
                    .write_u64(l0 + (gpa >> 12 & 0x1ff) * 8, (gpa & !0xfff) | npte::RWX);
            }
            ExitReason::PageFault { addr, err } => {
                // Shadow fill from the guest's table, or reflect.
                let access = Access {
                    write: err & nova_x86::reg::pf_err::WRITE != 0,
                    fetch: false,
                };
                let mmu = MmuRegs::from_regs(g);
                let leaf = if mmu.paging() {
                    let mut cyc = 0;
                    mmu::walk_2level(&m.mem, g.cr3, addr, access, false, &m.cost, &mut cyc)
                        .map(|l| (l.hpa & !0xfff, l.write))
                } else {
                    Ok((addr as u64 & !0xfff, true))
                };
                match leaf {
                    Ok((frame, write)) => {
                        let pde_at = SHADOW_PD + (addr as u64 >> 22) * 4;
                        let mut pde = m.mem.read_u32(pde_at);
                        if pde & pte::P == 0 {
                            m.mem.fill(self.next_shadow_pt, 4096, 0);
                            pde = self.next_shadow_pt as u32 | pte::P | pte::W;
                            m.mem.write_u32(pde_at, pde);
                            self.next_shadow_pt += 0x1000;
                        }
                        let w = if write { pte::W } else { 0 };
                        m.mem.write_u32(
                            (pde & pte::ADDR) as u64 + (addr as u64 >> 12 & 0x3ff) * 4,
                            frame as u32 | pte::P | w,
                        );
                    }
                    Err(pf) => {
                        g.cr2 = addr;
                        v.injection = Some(Injection {
                            vector: vector::PAGE_FAULT,
                            error_code: Fault::from(pf).error_code(),
                        });
                    }
                }
            }
            ExitReason::MovCr {
                cr,
                write,
                gpr,
                len,
            } => {
                if write {
                    g.set_cr(cr, g.get(gpr));
                    m.mem.fill(SHADOW_PD, 4096, 0);
                    self.next_shadow_pt = SHADOW_PT_POOL;
                    m.cpus[0].tlb.flush_vpids([v.vpid]);
                } else {
                    g.set(gpr, g.get_cr(cr));
                }
                g.eip += len as u32;
            }
            ExitReason::Invlpg { addr, len } => {
                let pde = m.mem.read_u32(SHADOW_PD + (addr as u64 >> 22) * 4);
                if pde & pte::P != 0 {
                    m.mem.write_u32(
                        (pde & pte::ADDR) as u64 + (addr as u64 >> 12 & 0x3ff) * 4,
                        0,
                    );
                }
                m.cpus[0].tlb.invalidate(v.vpid, addr as u64);
                g.eip += len as u32;
            }
            ExitReason::TripleFault => unreachable!("handled by the driver"),
        }

        // A pending interrupt goes in when the guest can take it, and
        // asks for the window otherwise.
        if let Some(vector) = self.pending_vector {
            if v.injection.is_none() && v.guest.if_set() && !v.sti_shadow {
                v.injection = Some(Injection {
                    vector,
                    error_code: None,
                });
                self.pending_vector = None;
            } else {
                v.intwin_exit = true;
            }
        }
        if self.rng.below(16) == 0 {
            v.recall_pending = true;
        }
    }
}

/// Identity nested table over 16 MB in 4 KB pages, minus `EPT_HOLE`.
fn ept(m: &mut Machine) -> u64 {
    let root = super::tests::ident_ept(m, 16);
    assert_eq!(root, EPT_ROOT);
    for page in 0..16 {
        let gpa = EPT_HOLE as u64 + page * 0x1000;
        let l0 = EPT_ROOT + 0x3000 + (gpa >> 21) * 0x1000;
        m.mem.write_u64(l0 + (gpa >> 12 & 0x1ff) * 8, 0);
    }
    root
}

/// What one program exercised, for the coverage asserts.
struct Coverage {
    instret: u64,
    idle_cycles: Cycles,
    /// Timer, software and doorbell interrupts the handlers counted.
    interrupts: [u32; 3],
    /// First word of every stop's `Debug` form.
    stops: Vec<String>,
}

/// Runs `(mode, seed)` on both interpreters and compares everything.
fn differential(mode: Mode, seed: u64) -> Coverage {
    let mut reference = World::build(mode, seed);
    let mut blocks = World::build(mode, seed);
    let want = reference.drive(true);
    let got = blocks.drive(false);
    for (i, (w, g)) in want.iter().zip(&got).enumerate() {
        assert_eq!(w, g, "{mode:?} seed {seed}: stop {i} differs");
    }
    assert_eq!(want.len(), got.len(), "{mode:?} seed {seed}: stop count");
    let (a, b) = (&mut reference.m, &mut blocks.m);
    assert!(
        a.mem.slice(0, a.mem.size()) == b.mem.slice(0, b.mem.size()),
        "{mode:?} seed {seed}: RAM differs"
    );
    assert_eq!(a.marks(), b.marks(), "{mode:?} seed {seed}: marks");
    assert_eq!(a.serial_text(), b.serial_text());
    assert_eq!(a.vga_text(), b.vga_text());
    let last = want.last().expect("at least one stop");
    assert!(
        a.bus.ctl.shutdown.is_some() || last.stop.starts_with("Shutdown"),
        "{mode:?} seed {seed}: program ended in {}",
        last.stop
    );
    let stats = b.cpus[0].decode_cache_stats();
    assert!(stats.hits > 0 && stats.misses > 0);
    Coverage {
        instret: b.cpus[0].instret,
        idle_cycles: b.cpus[0].idle_cycles,
        interrupts: [0, 4, 8].map(|off| b.mem.read_u32(TICKS as u64 + off)),
        stops: want
            .iter()
            .map(|s| s.stop.split([' ', '(']).next().unwrap().to_string())
            .collect(),
    }
}

/// Seeds per mode: 128, and 1,024 in the full sweep CI runs with
/// `NOVA_SLOW_TESTS` set.
fn seeds() -> u64 {
    if std::env::var_os("NOVA_SLOW_TESTS").is_some() {
        1024
    } else {
        128
    }
}

/// Runs every seed of `mode`; returns the totals.
fn sweep(mode: Mode) -> Coverage {
    let mut total = Coverage {
        instret: 0,
        idle_cycles: 0,
        interrupts: [0; 3],
        stops: Vec::new(),
    };
    for seed in 0..seeds() {
        let c = differential(mode, seed);
        total.instret += c.instret;
        total.idle_cycles += c.idle_cycles;
        for (t, n) in total.interrupts.iter_mut().zip(c.interrupts) {
            *t += n;
        }
        total.stops.extend(c.stops);
    }
    assert!(total.instret > 1_000_000, "real work: {}", total.instret);
    assert!(
        total.interrupts.iter().all(|n| *n > 100),
        "timer, software and doorbell interrupts were taken: {:?}",
        total.interrupts
    );
    // Only the block executor's side of this thread's runs counts.
    let [fused, closed, stepped, batched] = COUNTED_RUNS.get();
    assert!(
        fused > 1_000 && closed > 100 && stepped > 1_000 && batched > 1_000,
        "counted loops ran as loops: {fused} fused pairs, {closed} closed-form stretches, \
         {stepped} fused steps, {batched} batched strided runs"
    );
    total
}

fn assert_stops(c: &Coverage, kinds: &[&str]) {
    for kind in kinds {
        assert!(c.stops.iter().any(|s| s == kind), "no {kind} stop");
    }
}

#[test]
fn native_matches_reference() {
    let c = sweep(Mode::Native);
    assert!(c.idle_cycles > 0, "some HLT slept until a tick");
    assert_stops(&c, &["Budget", "Shutdown"]);
}

#[test]
fn nested_paging_matches_reference() {
    let c = sweep(Mode::Ept);
    assert_stops(
        &c,
        &[
            "Preempt",
            "Recall",
            "ExtInt",
            "IntWindow",
            "Cpuid",
            "Hlt",
            "IoPort",
            "EptViolation",
            "Rdtsc",
        ],
    );
}

#[test]
fn shadow_paging_matches_reference() {
    let c = sweep(Mode::Shadow);
    assert_stops(
        &c,
        &[
            "PageFault",
            "MovCr",
            "Invlpg",
            "ExtInt",
            "IntWindow",
            "Preempt",
        ],
    );
}
