//! The CPU core: a cycle-accounting interpreter for the x86 subset,
//! with native execution and VT-x-style guest execution.
//!
//! In **native** mode the core runs an operating system directly:
//! paging through its own CR3, devices reached by port I/O and MMIO,
//! interrupts delivered through its IDT. This is the paper's "Native"
//! baseline.
//!
//! In **guest** mode the core runs under a [`Vmcs`]: sensitive
//! instructions and configured events produce [`ExitReason`]s instead
//! of executing, memory traverses the nested or shadow dimension, and
//! the TLB is tagged with the VPID (or flushed on every transition when
//! tagging is disabled — the "w/o VPID" configuration of Figure 5).

use nova_x86::decode::{decode, DecodeError, MAX_INSN_LEN};
#[cfg(test)]
use nova_x86::exec::execute;
use nova_x86::exec::{
    alu, cond_holds, deliver_event, handler, inc_dec_value, Env, Exec, Fault, Handler,
};
use nova_x86::insn::{AluOp, Cond, Insn, Op, OpSize, Operand};
use nova_x86::paging::{self, Access};
use nova_x86::reg::{Reg, Regs};

use crate::blockcache::{BlockCache, BlockEnd, CountedTail, DecodeCacheStats, LoadStep};
use crate::cost::CostModel;
use crate::device::DeviceBus;
use crate::mem::PhysMem;
use crate::mmu::{self, GuestXlate, MmuRegs, PfInfo};
use crate::tlb::{Tlb, TlbEntry};
use crate::vmx::{io_bitmap_intercepts, ExitReason, Injection, PagingVirt, Vmcs};
use crate::{Cycles, PAddr};

#[cfg(test)]
mod oracle;

/// Cycles charged for a device-register (MMIO or port) access — the
/// uncached bus round trip.
pub const DEVICE_ACCESS_CYCLES: Cycles = 120;

/// Cycles charged for hardware interrupt delivery through the IDT.
pub const IRQ_DELIVERY_CYCLES: Cycles = 80;

/// Why native execution stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NativeStop {
    /// Software wrote the debug-exit port; carries the exit code.
    Shutdown(u8),
    /// Unrecoverable fault during exception delivery.
    TripleFault,
    /// Halted with no pending events: the system would idle forever.
    IdleForever,
    /// The cycle budget given to `run_native` was exhausted.
    Budget,
}

/// One CPU core's microarchitectural state.
pub struct Cpu {
    /// Core number.
    pub id: usize,
    /// Native-mode register file.
    pub regs: Regs,
    /// Native-mode halted flag.
    pub halted: bool,
    /// Native-mode STI interrupt shadow.
    pub sti_shadow: bool,
    /// The TLB (shared between native and guest contexts via tags).
    pub tlb: Tlb,
    /// Retired instruction count.
    pub instret: u64,
    /// Cycles spent idle (halted waiting for events).
    pub idle_cycles: Cycles,
    blocks: BlockCache,
}

impl Cpu {
    /// Creates core `id` in reset state.
    pub fn new(id: usize) -> Cpu {
        Cpu {
            id,
            regs: Regs::default(),
            halted: false,
            sti_shadow: false,
            tlb: Tlb::new(),
            instret: 0,
            idle_cycles: 0,
            blocks: BlockCache::new(),
        }
    }

    /// Statistics of the predecoded-block cache since construction.
    pub fn decode_cache_stats(&self) -> DecodeCacheStats {
        self.blocks.stats
    }
}

/// Error channel of the CPU's execution environment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CpuErr {
    /// Architectural fault to deliver to the running system.
    Fault(Fault),
    /// VM exit (guest mode only). Its reason is already parked where
    /// the hypervisor reads it ([`CpuEnv::exit`]).
    Exit,
}

impl From<Fault> for CpuErr {
    fn from(f: Fault) -> CpuErr {
        CpuErr::Fault(f)
    }
}

impl From<PfInfo> for Fault {
    fn from(pf: PfInfo) -> Fault {
        Fault::Page {
            addr: pf.addr,
            write: pf.write,
            fetch: pf.fetch,
            present: pf.present,
        }
    }
}

/// Guest-mode translation/intercept context: the VMCS controls that
/// stay fixed for one `run_guest` call.
#[derive(Clone, Copy)]
struct GuestCtx<'a> {
    vpid: u16,
    paging: PagingVirt,
    intercept_pf: bool,
    intercept_hlt: bool,
    intercept_rdtsc: bool,
    intercept_cr: bool,
    io_passthrough: &'a [u64],
    tsc_offset: u64,
}

/// The execution environment wired to the machine.
struct CpuEnv<'a> {
    tlb: &'a mut Tlb,
    mem: &'a mut PhysMem,
    bus: &'a mut DeviceBus,
    cost: &'a CostModel,
    clock: &'a mut Cycles,
    mmu: MmuRegs,
    guest: Option<GuestCtx<'a>>,
    /// The VMCS exit-information field ([`Vmcs::exit`]): the one place
    /// an exit's reason is written, by whatever raises
    /// [`CpuErr::Exit`] or returns from [`guest_loop`], right before
    /// it does. Never written in native mode.
    exit: &'a mut ExitReason,
    /// Set by every device-register access (MMIO or port). A device may
    /// then have scheduled an event, moved an interrupt line or
    /// requested shutdown, so the block executor clears it before an
    /// instruction and leaves its fast loop when it finds it set.
    bus_touched: bool,
}

impl CpuEnv<'_> {
    /// Parks `reason` in the exit-information field: the exit that
    /// the returned error reports.
    #[inline(always)]
    fn exit(&mut self, reason: ExitReason) -> CpuErr {
        *self.exit = reason;
        CpuErr::Exit
    }

    fn vpid(&self) -> u16 {
        self.guest.as_ref().map_or(0, |g| g.vpid)
    }

    /// `true` if linear addresses go through the TLB at all (unpaged
    /// native mode has no translation and no TLB traffic).
    fn translates(&self) -> bool {
        self.guest.is_some() || self.mmu.paging()
    }

    /// Translates a linear address, consulting the TLB first. The hit
    /// half is all the block executor's data accesses normally see, so
    /// it is inlined into them; the walk stays out of line.
    #[inline(always)]
    fn translate(&mut self, addr: u32, access: Access) -> Result<PAddr, CpuErr> {
        if !self.translates() {
            return Ok(addr as u64);
        }
        match self.tlb.hit(self.vpid(), addr as u64, access.fetch) {
            Some((hpa, writable)) if writable || !access.write => Ok(hpa),
            // A miss, or a write to a read-only entry: the walk fills
            // the TLB or classifies the fault.
            _ => self.tlb_fill(addr, access),
        }
    }

    /// Loads from host-physical `hpa`: RAM, unless the device-frame
    /// filter flags the frame.
    #[inline(always)]
    fn read_phys(&mut self, hpa: PAddr, size: OpSize) -> u32 {
        if self.bus.maybe_mmio(hpa) {
            return self.read_maybe_mmio(hpa, size);
        }
        self.mem.read_sized(hpa, size)
    }

    #[inline(always)]
    fn write_phys(&mut self, hpa: PAddr, size: OpSize, val: u32) {
        if self.bus.maybe_mmio(hpa) {
            return self.write_maybe_mmio(hpa, size, val);
        }
        self.mem.write_sized(hpa, size, val);
    }

    /// An access to a frame the device filter flags: the exact window
    /// match decides between the device and the RAM beside it (the VGA
    /// window ends 96 bytes short of its frame).
    #[cold]
    #[inline(never)]
    fn read_maybe_mmio(&mut self, hpa: PAddr, size: OpSize) -> u32 {
        if self.bus.mmio_owner(hpa).is_none() {
            return self.mem.read_sized(hpa, size);
        }
        *self.clock += DEVICE_ACCESS_CYCLES;
        self.bus_touched = true;
        self.bus.mmio_read(self.mem, *self.clock, hpa, size)
    }

    #[cold]
    #[inline(never)]
    fn write_maybe_mmio(&mut self, hpa: PAddr, size: OpSize, val: u32) {
        if self.bus.mmio_owner(hpa).is_none() {
            return self.mem.write_sized(hpa, size, val);
        }
        *self.clock += DEVICE_ACCESS_CYCLES;
        self.bus_touched = true;
        self.bus.mmio_write(self.mem, *self.clock, hpa, size, val);
    }

    /// A load that leaves its 4 KB page: byte-wise through both pages'
    /// translations, charged as one memory access. The second page is
    /// looked up (and filled, and may fault or exit) like any other
    /// access; `addr` of its fault is the page's first byte.
    #[cold]
    #[inline(never)]
    fn read_crossing(&mut self, addr: u32, size: OpSize) -> Result<u32, CpuErr> {
        let at = paging::crossing_bytes(addr, |a| self.translate(a, Access::READ))?;
        *self.clock += self.cost.mem_access;
        let mut val = 0;
        for i in 0..size.bytes() {
            val |= self.read_phys(at[i as usize], OpSize::Byte) << (8 * i);
        }
        Ok(val)
    }

    /// A store that leaves its 4 KB page: both pages are translated
    /// for write before any byte is stored, so a fault or nested
    /// violation on the second page leaves memory untouched.
    #[cold]
    #[inline(never)]
    fn write_crossing(&mut self, addr: u32, size: OpSize, val: u32) -> Result<(), CpuErr> {
        let at = paging::crossing_bytes(addr, |a| self.translate(a, Access::WRITE))?;
        *self.clock += self.cost.mem_access;
        for i in 0..size.bytes() {
            self.write_phys(at[i as usize], OpSize::Byte, val >> (8 * i) & 0xff);
        }
        Ok(())
    }

    /// TLB miss: walks the tables of the current mode, charging the
    /// walk to the clock, and caches the leaf.
    #[cold]
    #[inline(never)]
    fn tlb_fill(&mut self, addr: u32, access: Access) -> Result<PAddr, CpuErr> {
        let vpid = self.vpid();
        // Attribute the fill walk to the VPID in the metrics registry
        // (free when tracing is off).
        if self.bus.trace.active() {
            self.bus
                .trace
                .metrics
                .add(nova_trace::names::TLB_FILLS, vpid as u64, 1);
        }

        let leaf = match self.guest {
            None => mmu::walk_2level(
                self.mem,
                self.mmu.cr3,
                addr,
                access,
                self.mmu.pse(),
                self.cost,
                self.clock,
            )
            .map_err(|pf| CpuErr::Fault(pf.into()))?,
            Some(g) => match g.paging {
                PagingVirt::Nested { root, fmt } => mmu::translate_nested_guest(
                    self.mem, &self.mmu, root, fmt, addr, access, self.cost, self.clock,
                )
                .map_err(|e| match e {
                    GuestXlate::GuestFault(pf) => CpuErr::Fault(pf.into()),
                    GuestXlate::Nested(v) => self.exit(ExitReason::EptViolation {
                        gpa: v.gpa,
                        access: v.access,
                    }),
                })?,
                PagingVirt::Shadow { root } => mmu::walk_2level(
                    self.mem,
                    root as u32,
                    addr,
                    access,
                    false,
                    self.cost,
                    self.clock,
                )
                .map_err(|pf| {
                    let fault = Fault::from(pf);
                    if g.intercept_pf {
                        self.exit(ExitReason::PageFault {
                            addr: pf.addr,
                            err: fault.error_code().unwrap_or(0),
                        })
                    } else {
                        CpuErr::Fault(fault)
                    }
                })?,
            },
        };

        self.tlb.insert_for(
            TlbEntry {
                vpid,
                vpn: addr as u64 / leaf.page_size,
                hpa: leaf.hpa & !(leaf.page_size - 1),
                page_size: leaf.page_size,
                write: leaf.write,
            },
            access.fetch,
        );
        Ok(leaf.hpa)
    }
}

impl Env for CpuEnv<'_> {
    type Err = CpuErr;

    #[inline(always)]
    fn read_mem(&mut self, addr: u32, size: OpSize) -> Result<u32, CpuErr> {
        if paging::crosses_page(addr, size.bytes()) {
            return self.read_crossing(addr, size);
        }
        let hpa = self.translate(addr, Access::READ)?;
        *self.clock += self.cost.mem_access;
        Ok(self.read_phys(hpa, size))
    }

    #[inline(always)]
    fn write_mem(&mut self, addr: u32, size: OpSize, val: u32) -> Result<(), CpuErr> {
        if paging::crosses_page(addr, size.bytes()) {
            return self.write_crossing(addr, size, val);
        }
        let hpa = self.translate(addr, Access::WRITE)?;
        *self.clock += self.cost.mem_access;
        self.write_phys(hpa, size, val);
        Ok(())
    }

    fn io_in(&mut self, port: u16, size: OpSize) -> Result<u32, CpuErr> {
        *self.clock += DEVICE_ACCESS_CYCLES;
        self.bus_touched = true;
        Ok(self.bus.io_read(self.mem, *self.clock, port, size))
    }

    fn io_out(&mut self, port: u16, size: OpSize, val: u32) -> Result<(), CpuErr> {
        *self.clock += DEVICE_ACCESS_CYCLES;
        self.bus_touched = true;
        self.bus.io_write(self.mem, *self.clock, port, size, val);
        Ok(())
    }

    fn cpuid(&mut self, leaf: u32) -> [u32; 4] {
        self.cost.ident.cpuid(leaf)
    }

    fn rdtsc(&mut self) -> u64 {
        *self.clock + self.guest.as_ref().map_or(0, |g| g.tsc_offset)
    }

    fn write_cr(&mut self, regs: &mut Regs, n: u8, val: u32) -> Result<(), CpuErr> {
        regs.set_cr(n, val);
        self.mmu = MmuRegs::from_regs(regs);
        if n == 3 || n == 0 || n == 4 {
            // Address-space switch: drop this context's translations.
            self.tlb.flush_vpid(self.vpid());
        }
        Ok(())
    }

    fn invlpg(&mut self, addr: u32) -> Result<(), CpuErr> {
        self.tlb.invalidate(self.vpid(), addr as u64);
        Ok(())
    }
}

/// Fetches and decodes the instruction at `eip` that does not fit in
/// the bytes left of its page (`hpa` is where `eip` translated to):
/// the rest comes through the next page's own translation. Never
/// cached, so a remap of either page is seen on the next execution.
fn fetch_straddler(env: &mut CpuEnv, eip: u32, hpa: PAddr) -> Result<Insn, CpuErr> {
    let in_page = (4096 - (eip as usize & 0xfff)).min(MAX_INSN_LEN);
    let mut bytes = [0u8; MAX_INSN_LEN];
    env.mem.read_into(hpa, &mut bytes[..in_page]);
    let next = (eip & !0xfff).wrapping_add(0x1000);
    let hpa2 = env.translate(next, Access::FETCH)?;
    env.mem.read_into(hpa2, &mut bytes[in_page..]);
    decode(&bytes).map_err(|_| CpuErr::Fault(Fault::InvalidOpcode))
}

/// Outcome of delivering an event into the running context.
enum Delivery {
    /// Delivered; execution continues at the handler.
    Done,
    /// The delivery itself faulted on a missing translation that the
    /// hypervisor must service (shadow-paging fills): registers are
    /// restored and the event must be retried after the exit, whose
    /// reason the faulting access parked.
    Exit,
    /// Unrecoverable double fault during delivery.
    Fatal,
}

/// Delivers an exception or interrupt. On failure the register state
/// is rolled back so the event can be re-delivered after the
/// hypervisor services the exit (vTLB fill on the stack or IDT page).
fn deliver(regs: &mut Regs, env: &mut CpuEnv, vector: u8, err: Option<u32>) -> Delivery {
    let saved = regs.clone();
    match deliver_event(regs, env, vector, err) {
        Ok(()) => Delivery::Done,
        Err(CpuErr::Exit) => {
            *regs = saved;
            Delivery::Exit
        }
        Err(CpuErr::Fault(_)) => {
            *regs = saved;
            Delivery::Fatal
        }
    }
}

/// Checks whether a sensitive instruction must exit under the given
/// VMCS controls, returning the exit reason. Every `Op` matched here
/// ends its block with [`BlockEnd::Outer`], which is what lets the
/// executor skip this check for all other instructions.
fn intercept(insn: &Insn, regs: &Regs, ctl: &GuestCtx) -> Option<ExitReason> {
    let len = insn.len;
    match insn.op {
        Op::Cpuid => Some(ExitReason::Cpuid { len }),
        Op::Vmcall => Some(ExitReason::Vmcall { len }),
        Op::Hlt if ctl.intercept_hlt => Some(ExitReason::Hlt { len }),
        Op::Rdtsc if ctl.intercept_rdtsc => Some(ExitReason::Rdtsc { len }),
        Op::MovToCr | Op::MovFromCr if ctl.intercept_cr => {
            let (cr, write, gpr) = match (insn.op, insn.dst, insn.src) {
                (Op::MovToCr, Operand::Cr(c), Operand::Reg(r)) => (c, true, r),
                (Op::MovFromCr, Operand::Reg(r), Operand::Cr(c)) => (c, false, r),
                _ => (0, false, Reg::Eax),
            };
            Some(ExitReason::MovCr {
                cr,
                write,
                gpr,
                len,
            })
        }
        Op::Invlpg if ctl.intercept_cr => {
            let addr = match insn.dst {
                Operand::Mem(m) => nova_x86::exec::effective_address(&m, regs),
                _ => 0,
            };
            Some(ExitReason::Invlpg { addr, len })
        }
        Op::In | Op::Out => {
            let port_op = if insn.op == Op::In {
                insn.src
            } else {
                insn.dst
            };
            let port = match port_op {
                Operand::Imm(p) => p as u16,
                Operand::Reg(Reg::Edx) => regs.get(Reg::Edx) as u16,
                _ => 0,
            };
            if io_bitmap_intercepts(ctl.io_passthrough, port) {
                Some(ExitReason::IoPort {
                    port,
                    size: insn.size,
                    write: insn.op == Op::Out,
                    len,
                })
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Executes one instruction that an intercept may claim first; `run`
/// is the handler `insn` resolves to.
fn execute_sensitive<'a>(
    insn: &Insn,
    run: Handler<CpuEnv<'a>>,
    regs: &mut Regs,
    env: &mut CpuEnv<'a>,
) -> Result<Exec, CpuErr> {
    if let Some(reason) = env.guest.as_ref().and_then(|g| intercept(insn, regs, g)) {
        return Err(env.exit(reason));
    }
    run(insn, regs, env)
}

/// Why [`run_blocks`] handed control back to the outer loop.
enum Stop {
    /// The outer loop's checks are due: the event horizon was reached,
    /// or the last instruction may have changed something they read
    /// (IF, a control register, a device, the frame being executed) or
    /// raised an exception that has been delivered.
    Outer,
    /// HLT executed.
    Halt,
    /// STI opened a one-instruction interrupt shadow.
    StiShadow,
    /// VM exit (guest mode only); the reason is parked in
    /// [`CpuEnv::exit`].
    Exit,
    /// An exception could not be delivered.
    TripleFault,
}

/// The earliest cycle at which the outer loop has work: the next
/// device event or the caller's deadline.
fn event_horizon(bus: &DeviceBus, deadline: Option<Cycles>) -> Cycles {
    let event = bus.next_event_due().unwrap_or(Cycles::MAX);
    event.min(deadline.unwrap_or(Cycles::MAX))
}

/// Charges one retired instruction its cycle and sorts its outcome:
/// `Ok` carries [`Exec::Normal`] or [`Exec::RepContinue`], everything
/// else — including an exception, which is delivered here — is a
/// [`Stop`]. The caller counts `instret`.
#[inline(always)]
fn retire(step: Result<Exec, CpuErr>, regs: &mut Regs, env: &mut CpuEnv) -> Result<Exec, Stop> {
    // Faulting and intercepted instructions cost their cycle too.
    *env.clock += 1;
    match step {
        Ok(done @ (Exec::Normal | Exec::RepContinue)) => Ok(done),
        other => Err(stop_for(other, regs, env)),
    }
}

/// The [`Stop`] of an instruction that did not simply complete.
#[cold]
#[inline(never)]
fn stop_for(step: Result<Exec, CpuErr>, regs: &mut Regs, env: &mut CpuEnv) -> Stop {
    match step {
        Ok(Exec::Halt) => Stop::Halt,
        Ok(Exec::StiShadow) => Stop::StiShadow,
        Ok(Exec::Normal | Exec::RepContinue) => Stop::Outer,
        Err(CpuErr::Exit) => Stop::Exit,
        Err(CpuErr::Fault(f)) => {
            if let Fault::Page { addr, .. } = f {
                regs.cr2 = addr;
            }
            match deliver(regs, env, f.vector(), f.error_code()) {
                Delivery::Done => Stop::Outer,
                // The faulting instruction will re-execute and re-raise
                // the exception after the hypervisor's fill.
                Delivery::Exit => Stop::Exit,
                Delivery::Fatal => Stop::TripleFault,
            }
        }
    }
}

/// Retires an instruction that ran outside any block (or could not be
/// fetched at all); whatever came of it, the outer loop goes next.
fn retire_alone(
    step: Result<Exec, CpuErr>,
    regs: &mut Regs,
    env: &mut CpuEnv,
    instret: &mut u64,
) -> Stop {
    *instret += 1;
    retire(step, regs, env).err().unwrap_or(Stop::Outer)
}

/// Retires whole iterations of a counted loop's tail — the step if it
/// has one, `dec` the counter, `jne` — from the tail's first
/// instruction at `regs.eip`, and returns how many: one if all of a
/// trip's instructions fit before the horizon, as many as the counter
/// and the horizon allow if the tail is the whole loop (`alone`:
/// nothing else in the block, and the `jne` closes on the `dec`), and 0
/// if not even one fits, which leaves everything to the
/// per-instruction path. A trip of `n` instructions is retired here
/// only if `clock + n < horizon` when it starts, so none of its
/// instructions is the one after which the per-instruction path would
/// have stopped.
///
/// Registers and clock end up as that many passes of the handlers
/// leave them: the step goes through the ALU handlers' [`alu`] (a
/// `cmp` writes flags only) and its result is in its register before
/// the `dec` reads the counter; the flags are those of the last `dec`,
/// which carries over the step's CF (or, without a step, the CF every
/// `dec` before it carried over: nothing else reads or writes flags in
/// between); EIP is the last `jne`'s choice.
#[inline(always)]
fn retire_counted(
    tail: &CountedTail,
    alone: bool,
    regs: &mut Regs,
    clock: &mut Cycles,
    horizon: Cycles,
) -> u64 {
    let room = horizon.saturating_sub(*clock);
    let k = match tail.step {
        // Never the whole loop, so at most one trip: the step, then the
        // pair below.
        Some(step) if room > 3 => {
            let (res, eflags) = alu(
                step.op,
                regs.get(step.reg),
                step.imm,
                OpSize::Dword,
                regs.eflags,
            );
            if step.op != AluOp::Cmp {
                regs.set(step.reg, res);
            }
            regs.eflags = eflags;
            *clock += 1;
            1
        }
        Some(_) => 0,
        // The pair alone. A counter of 0 wraps: 2^32 trips until it is
        // 0 again.
        None if alone && tail.closes => {
            let count = regs.get(tail.counter);
            let trips = if count == 0 { 1 << 32 } else { count as u64 };
            trips.min(room.saturating_sub(1) / 2)
        }
        None => (room > 2) as u64,
    };
    if k == 0 {
        return 0;
    }
    count_down(tail, k, regs.eip.wrapping_add(tail.len as u32), regs);
    *clock += 2 * k;
    #[cfg(test)]
    count_run(if tail.step.is_some() {
        2
    } else {
        (alone && tail.closes) as usize
    });
    k
}

/// The last of `k` passes of a counted loop's `dec` · `jne`, which
/// leaves the counter, the flags and EIP as all `k` do: the counter
/// `k` lower, the flags those of the last `dec` (CF kept from before
/// it), EIP the `jne`'s choice. `next` is the address after the `jne`.
#[inline(always)]
fn count_down(tail: &CountedTail, k: u64, next: u32, regs: &mut Regs) {
    let before_last = regs.get(tail.counter).wrapping_sub((k - 1) as u32);
    let (count, eflags) = inc_dec_value(true, before_last, OpSize::Dword, regs.eflags);
    regs.set(tail.counter, count);
    regs.eflags = eflags;
    regs.eip = if cond_holds(Cond::Ne, eflags) {
        next.wrapping_add(tail.rel)
    } else {
        next
    };
}

/// Retires as many whole trips of a strided reduction loop — a block
/// that is nothing but `op dst, [base + disp]` · `add|sub base, imm` ·
/// `dec counter` · `jne` to itself ([`LoadStep`]), entered at its first
/// instruction — as the counter, the first load's 4 KB page and the
/// horizon allow, and returns how many; 0 (fewer than two fit, or the
/// load is not plain RAM reached through a TLB hit) leaves the block
/// to the per-instruction path, which is its specification.
///
/// A trip costs `4 + mem_access` cycles, and `k` of them are retired
/// only if `clock + k × (4 + mem_access) < horizon`, so no instruction
/// of them is the one after which the per-instruction path would have
/// stopped. Every load of the run lies in the first one's page, which
/// the data TLB maps already (a [`Tlb::peek`], counted as the `k` hits
/// the loads would have been) to RAM that no device claims: no load
/// walks, fills, faults, exits or reaches a device, and none stores,
/// so the frame generation and `bus_touched` have nothing to see.
///
/// Registers end up as `k` passes of the handlers leave them: `dst`
/// holds the `k` words folded by the load's operation (a `cmp` writes
/// nothing), the base has moved `k` strides, the flags are the step's
/// on its last operand (they overwrite every flag the load set) with
/// the last `dec` on top, and EIP is the last `jne`'s choice.
///
/// Out of line: one call retires a page of trips, and inlined, its
/// folds would crowd the block loop every other block runs in.
#[inline(never)]
fn retire_strided(
    tail: &CountedTail,
    load: &LoadStep,
    regs: &mut Regs,
    env: &mut CpuEnv,
    horizon: Cycles,
) -> u64 {
    let Some(step) = tail.step.as_ref() else {
        return 0;
    };
    let base = regs.get(step.reg);
    let addr = base.wrapping_add(load.disp);
    let off = addr & 0xfff;
    let stride = match step.op {
        AluOp::Sub => step.imm.wrapping_neg(),
        _ => step.imm,
    } as i32;
    // Trips whose four bytes stay inside the first load's page: the
    // first one's included, none if it crosses into the next.
    let in_page = match stride {
        _ if off > 0xffc => 0,
        0 => u32::MAX as u64,
        s if s > 0 => ((0xffc - off) / s as u32) as u64 + 1,
        s => (off / s.unsigned_abs()) as u64 + 1,
    };
    let count = regs.get(tail.counter);
    let trips = if count == 0 { 1 << 32 } else { count as u64 };
    let per_trip = 4 + env.cost.mem_access;
    let fit = horizon.saturating_sub(*env.clock).saturating_sub(1) / per_trip;
    let k = trips.min(in_page).min(fit);
    if k < 2 {
        return 0;
    }
    let through_tlb = env.translates();
    let hpa = if through_tlb {
        match env.tlb.peek(env.vpid(), addr as u64, false) {
            Some((hpa, _)) => hpa,
            None => return 0,
        }
    } else {
        addr as u64
    };
    if env.bus.maybe_mmio(hpa) {
        return 0;
    }
    let Some(page) = env.mem.slice(hpa & !0xfff, 4096) else {
        return 0;
    };
    let acc = regs.get(load.dst);
    let (off, k32) = (off as usize, k as u32);
    let folded = match load.op {
        AluOp::Add => fold(page, off, stride, k32, acc, u32::wrapping_add),
        AluOp::Sub => fold(page, off, stride, k32, acc, u32::wrapping_sub),
        AluOp::And => fold(page, off, stride, k32, acc, |a, w| a & w),
        AluOp::Or => fold(page, off, stride, k32, acc, |a, w| a | w),
        AluOp::Xor => fold(page, off, stride, k32, acc, |a, w| a ^ w),
        // `cmp`, and the carrying two `LoadStep::of` refuses.
        _ => acc,
    };
    regs.set(load.dst, folded);
    let before_last = base.wrapping_add((stride as u32).wrapping_mul(k32 - 1));
    let (moved, eflags) = alu(step.op, before_last, step.imm, OpSize::Dword, regs.eflags);
    regs.set(step.reg, moved);
    regs.eflags = eflags;
    // The block closes: its length is the `jne`'s backward reach.
    count_down(tail, k, regs.eip.wrapping_sub(tail.rel), regs);
    *env.clock += k * per_trip;
    if through_tlb {
        env.tlb.stats.hits += k;
    }
    #[cfg(test)]
    count_run(3);
    k
}

/// Folds the `k` little-endian words of `page` at `off`, `off +
/// stride`, … into `acc`; the caller has checked that they all lie in
/// the page.
#[inline(always)]
fn fold(
    page: &[u8],
    off: usize,
    stride: i32,
    k: u32,
    acc: u32,
    f: impl Fn(u32, u32) -> u32,
) -> u32 {
    let mut at = off;
    let mut acc = acc;
    for _ in 0..k {
        let word = page
            .get(at..at + 4)
            .map_or(0, |w| u32::from_le_bytes([w[0], w[1], w[2], w[3]]));
        acc = f(acc, word);
        at = at.wrapping_add(stride as isize as usize);
    }
    acc
}

#[cfg(test)]
thread_local! {
    /// How often a counted tail retired something on this thread:
    /// `[fused pairs, closed-form stretches, fused steps, strided
    /// batches]`. Coverage for the tests only; the simulated machine
    /// has no such counter.
    static COUNTED_RUNS: std::cell::Cell<[u64; 4]> = const { std::cell::Cell::new([0; 4]) };
}

#[cfg(test)]
fn count_run(form: usize) {
    COUNTED_RUNS.with(|runs| {
        let mut r = runs.get();
        r[form] += 1;
        runs.set(r);
    });
}

/// The block executor shared by [`run_native`] and [`run_guest`]:
/// runs instructions from `regs.eip` until the outer loop is needed.
///
/// The outer loops call this only when an instruction is due (no
/// pending event, shutdown, deadline, deliverable interrupt or halt),
/// and per retired instruction they would re-check exactly those
/// conditions, rebuild the environment and translate the fetch. The
/// executor skips all of that for as long as it can prove the checks
/// would come out the same (the *event horizon* argument, written out
/// in DESIGN.md §6i): the event queue, the PIC and the shutdown latch
/// only change through a device access (`bus_touched`), IF and the
/// control registers only through instructions that end their block
/// with [`BlockEnd::Outer`], the STI shadow only through
/// [`Stop::StiShadow`], nothing inside a run sets the recall pin, and
/// the clock is compared against `horizon` after every instruction.
/// `single` (the caller is inside an STI shadow, so its interrupt
/// checks change after one instruction) limits the call to one
/// instruction.
///
/// A [`BlockEnd::Chain`] block whose last instruction jumps to its own
/// first one — the whole of a tight guest loop — is restarted in place
/// once those per-instruction checks have passed, without the fetch
/// translation and the block lookup in between (*closed-loop
/// re-entry*).
///
/// A block that ends in a counted loop's `dec r32` · `jne`
/// ([`CountedTail`]) retires the pair — with the register–immediate ALU
/// step before it, if there is one — as one step when all of it fits
/// before the horizon, and all the iterations that do when the pair is
/// the whole loop ([`retire_counted`]). A block that is nothing but a
/// strided load, its stride and the pair retires, from its first
/// instruction, the trips whose loads stay in the first one's page
/// ([`retire_strided`]). Whenever neither applies — inside an STI
/// shadow, with the horizon inside the trip, a load that would miss
/// the TLB or reach a device — the instructions go through their
/// handlers below, one at a time, as everything else does.
///
/// On the simulated machine this is invisible: every instruction costs
/// the same cycles and counts the same `instret`, and the lookups
/// skipped inside a block and on re-entry are counted as the I-TLB and
/// block-cache hits they would have been.
fn run_blocks(
    blocks: &mut BlockCache,
    instret: &mut u64,
    regs: &mut Regs,
    env: &mut CpuEnv,
    horizon: Cycles,
    single: bool,
) -> Stop {
    loop {
        // Entering a block takes the real fetch translation: TLB
        // lookup, fill walk, fault or exit.
        let eip = regs.eip;
        let hpa = match env.translate(eip, Access::FETCH) {
            Ok(hpa) => hpa,
            Err(e) => return retire_alone(Err(e), regs, env, instret),
        };
        let block = match blocks.lookup(env.mem, hpa) {
            Ok(block) => block,
            Err(e) => {
                // One uncached instruction, then back out: a page
                // straddler or undecodable bytes.
                let step = match e {
                    DecodeError::Truncated => fetch_straddler(env, eip, hpa),
                    DecodeError::InvalidOpcode => Err(CpuErr::Fault(Fault::InvalidOpcode)),
                }
                .and_then(|insn| execute_sensitive(&insn, handler(&insn), regs, env));
                return retire_alone(step, regs, env, instret);
            }
        };

        let last = block.steps.len() - 1;
        // Only the last instruction of an `Outer` block can match an
        // intercept.
        let outer = block.end == BlockEnd::Outer;
        // Fixed for the block: CR writes end it.
        let through_tlb = env.translates();
        // Counted in registers while the block runs and folded into
        // `instret`, `Tlb::stats` and the cache's statistics on the
        // way out: instructions begun after the first, and restarts
        // of the block.
        let mut continued = 0u64;
        let mut reentries = 0u64;
        let mut i = 0;
        // The step at which a counted tail starts. Inside an STI
        // shadow the caller's checks change after one instruction, so
        // nothing is fused.
        let counted = block.counted.filter(|_| !single);
        // Where the tail starts.
        let tail_at = last + 1 - counted.map_or(0, |t| t.insns());
        // Every way of setting it leaves the loop below.
        env.bus_touched = false;
        let stop = loop {
            let k = match counted {
                Some(tail) if i == tail_at => {
                    retire_counted(tail, last == 1, regs, env.clock, horizon)
                }
                // A strided reduction loop: the whole block, from its
                // first instruction.
                Some(tail) if i == 0 => match &tail.load {
                    Some(load) => retire_strided(tail, load, regs, env, horizon),
                    None => 0,
                },
                _ => 0,
            };
            if k != 0 {
                // A trip runs from here to the end of the block.
                let n = (last + 1 - i) as u64;
                // Per iteration `n` instructions, all but the first of
                // which were begun inside the block (I-TLB hits); all
                // but possibly the last iteration come back round to
                // the block's first instruction (another, and a block
                // hit). None of them stores or reaches a device, so the
                // checks below have nothing to see.
                if regs.eip != eip {
                    continued += n * k - 1;
                    reentries += k - 1;
                    break None;
                }
                continued += n * k;
                reentries += k;
                i = 0;
                continue;
            }
            let step = &block.steps[i];
            let at = regs.eip;
            let run = step.run.handler();
            let done = if i == last && outer {
                execute_sensitive(&step.insn, run, regs, env)
            } else {
                debug_assert!(env
                    .guest
                    .as_ref()
                    .is_none_or(|g| intercept(&step.insn, regs, g).is_none()));
                run(&step.insn, regs, env)
            };
            match retire(done, regs, env) {
                Err(stop) => break Some(stop),
                Ok(Exec::RepContinue) => debug_assert_eq!(regs.eip, at),
                Ok(_) => {
                    debug_assert!(i == last || regs.eip == at.wrapping_add(step.insn.len as u32));
                    i += 1;
                }
            }
            // A store into the frame being executed (this block or a
            // later one) must be seen by the very next fetch.
            if single
                || env.bus_touched
                || *env.clock >= horizon
                || env.mem.frame_gen(hpa) != block.gen
            {
                break Some(Stop::Outer);
            }
            if i > last {
                if outer {
                    break Some(Stop::Outer);
                }
                if regs.eip != eip {
                    break None;
                }
                // A loop closed on its own first instruction. Its
                // fetch translation would hit the I-side entry the
                // block was entered through (counted below, like any
                // other fetch inside the block), and its block lookup
                // would find this slot at the generation just
                // checked: count that hit too, and restart in place.
                reentries += 1;
                i = 0;
            }
            // The next instruction lies in the same page, and the
            // I-side TLB arrays are written only by fetch fills,
            // INVLPG and flushes — none of which happen inside a
            // block — so its fetch lookup would hit the entry the
            // block was entered through. Count it, skip it.
            continued += 1;
        };
        *instret += continued + 1;
        if through_tlb {
            env.tlb.stats.hits += continued;
        }
        blocks.stats.hits += reentries;
        if let Some(stop) = stop {
            return stop;
        }
    }
}

/// Mirrors what the block cache counted during one `run_*` call into
/// the tracer's metrics registry, keyed by the TLB tag like
/// [`nova_trace::names::TLB_FILLS`]. Called only while tracing is on.
#[cold]
fn publish_decode_stats(
    bus: &mut DeviceBus,
    vpid: u16,
    before: DecodeCacheStats,
    blocks: &BlockCache,
) {
    use nova_trace::names;
    let now = blocks.stats;
    for (name, delta) in [
        (names::DECODE_CACHE_HITS, now.hits - before.hits),
        (names::DECODE_CACHE_MISSES, now.misses - before.misses),
        (
            names::DECODE_CACHE_INVALIDATIONS,
            now.invalidations - before.invalidations,
        ),
        (
            names::DECODE_CACHE_EVICTIONS,
            now.evictions - before.evictions,
        ),
    ] {
        if delta != 0 {
            bus.trace.metrics.add(name, vpid as u64, delta);
        }
    }
}

/// Runs the core natively until shutdown, triple fault, idle deadlock,
/// or the optional cycle budget elapses.
pub fn run_native(
    cpu: &mut Cpu,
    mem: &mut PhysMem,
    bus: &mut DeviceBus,
    cost: &CostModel,
    clock: &mut Cycles,
    budget: Option<Cycles>,
) -> NativeStop {
    let before = bus.trace.active().then_some(cpu.blocks.stats);
    let stop = native_loop(cpu, mem, bus, cost, clock, budget);
    if let Some(before) = before {
        publish_decode_stats(bus, 0, before, &cpu.blocks);
    }
    stop
}

fn native_loop(
    cpu: &mut Cpu,
    mem: &mut PhysMem,
    bus: &mut DeviceBus,
    cost: &CostModel,
    clock: &mut Cycles,
    budget: Option<Cycles>,
) -> NativeStop {
    let deadline = budget.map(|b| *clock + b);
    // One environment for the whole call: `mmu` follows the register
    // file because every CR write goes through `Env::write_cr`.
    let mut no_exit = ExitReason::Preempt;
    let mut env = CpuEnv {
        tlb: &mut cpu.tlb,
        mem,
        bus,
        cost,
        clock,
        mmu: MmuRegs::from_regs(&cpu.regs),
        guest: None,
        exit: &mut no_exit,
        bus_touched: false,
    };
    loop {
        // Device events and shutdown.
        if env.bus.next_event_due().is_some_and(|d| d <= *env.clock) {
            env.bus.process_events(env.mem, *env.clock);
        }
        if let Some(code) = env.bus.ctl.shutdown.take() {
            return NativeStop::Shutdown(code);
        }
        if deadline.is_some_and(|d| *env.clock >= d) {
            return NativeStop::Budget;
        }

        // Interrupts.
        let shadow_was = cpu.sti_shadow;
        cpu.sti_shadow = false;
        if !shadow_was && cpu.regs.if_set() && env.bus.pic.intr() {
            if let Some(vec) = env.bus.pic.ack() {
                cpu.halted = false;
                *env.clock += IRQ_DELIVERY_CYCLES;
                match deliver(&mut cpu.regs, &mut env, vec, None) {
                    Delivery::Done => {}
                    _ => return NativeStop::TripleFault,
                }
            }
        }

        // Halted: fast-forward to the next event.
        if cpu.halted {
            match env.bus.next_event_due() {
                Some(due) => {
                    let skip = due.saturating_sub(*env.clock);
                    cpu.idle_cycles += skip;
                    *env.clock = due;
                    continue;
                }
                None => return NativeStop::IdleForever,
            }
        }

        let horizon = event_horizon(env.bus, deadline);
        match run_blocks(
            &mut cpu.blocks,
            &mut cpu.instret,
            &mut cpu.regs,
            &mut env,
            horizon,
            shadow_was,
        ) {
            Stop::Outer => {}
            Stop::Halt => cpu.halted = true,
            Stop::StiShadow => cpu.sti_shadow = true,
            Stop::TripleFault => return NativeStop::TripleFault,
            Stop::Exit => unreachable!("no VM exits in native mode"),
        }
    }
}

/// Enters the guest described by `vmcs` and runs until a VM exit,
/// whose reason it leaves in `vmcs.exit`.
///
/// Guest register state lives in `vmcs.guest`. The hardware-side
/// effects of entry/exit are modeled here (injection, STI shadow,
/// untagged TLB flushes); the *cycle cost* of the transition is charged
/// by the hypervisor, which knows the tagging configuration
/// (Section 8.5 splits these costs the same way).
pub fn run_guest(
    cpu: &mut Cpu,
    mem: &mut PhysMem,
    bus: &mut DeviceBus,
    cost: &CostModel,
    clock: &mut Cycles,
    vmcs: &mut Vmcs,
    quantum: Option<Cycles>,
) {
    let vpid = vmcs.vpid;
    let before = bus.trace.active().then_some(cpu.blocks.stats);
    // Untagged TLB: entry and exit flush everything.
    if vpid == 0 {
        cpu.tlb.flush_all();
    }
    guest_loop(cpu, mem, bus, cost, clock, vmcs, quantum);
    if vpid == 0 {
        cpu.tlb.flush_all();
    }
    if let Some(before) = before {
        publish_decode_stats(bus, vpid, before, &cpu.blocks);
    }
}

fn guest_loop(
    cpu: &mut Cpu,
    mem: &mut PhysMem,
    bus: &mut DeviceBus,
    cost: &CostModel,
    clock: &mut Cycles,
    vmcs: &mut Vmcs,
    quantum: Option<Cycles>,
) {
    let mut env = CpuEnv {
        tlb: &mut cpu.tlb,
        mem,
        bus,
        cost,
        clock,
        mmu: MmuRegs::from_regs(&vmcs.guest),
        guest: Some(GuestCtx {
            vpid: vmcs.vpid,
            paging: vmcs.paging,
            intercept_pf: vmcs.intercept_pf,
            intercept_hlt: vmcs.intercept_hlt,
            intercept_rdtsc: vmcs.intercept_rdtsc,
            intercept_cr: vmcs.intercept_cr,
            io_passthrough: &vmcs.io_passthrough,
            tsc_offset: vmcs.tsc_offset,
        }),
        exit: &mut vmcs.exit,
        bus_touched: false,
    };

    // Event injection on entry.
    if let Some(inj) = vmcs.injection.take() {
        vmcs.halted = false;
        match deliver(&mut vmcs.guest, &mut env, inj.vector, inj.error_code) {
            Delivery::Done => {}
            Delivery::Exit => {
                // Retry the injection after the hypervisor services
                // the fault (a shadow-table fill, typically).
                vmcs.injection = Some(inj);
                return;
            }
            Delivery::Fatal => return *env.exit = ExitReason::TripleFault,
        }
    }

    let deadline = quantum.map(|q| *env.clock + q);

    loop {
        if env.bus.next_event_due().is_some_and(|d| d <= *env.clock) {
            env.bus.process_events(env.mem, *env.clock);
        }
        // The debug-exit device stops the machine; hand control back
        // (the caller observes `bus.ctl.shutdown`).
        if env.bus.ctl.shutdown.is_some() {
            return *env.exit = ExitReason::Preempt;
        }

        if vmcs.recall_pending {
            vmcs.recall_pending = false;
            return *env.exit = ExitReason::Recall;
        }
        if deadline.is_some_and(|d| *env.clock >= d) {
            return *env.exit = ExitReason::Preempt;
        }

        // Physical interrupts: exit (full virtualization) or deliver
        // straight into the guest (direct assignment).
        let shadow_was = vmcs.sti_shadow;
        vmcs.sti_shadow = false;
        if env.bus.pic.intr() {
            if vmcs.intercept_extint {
                if let Some(vec) = env.bus.pic.ack() {
                    return *env.exit = ExitReason::ExtInt { vector: vec };
                }
            } else if !shadow_was && vmcs.guest.if_set() {
                if let Some(vec) = env.bus.pic.ack() {
                    vmcs.halted = false;
                    *env.clock += IRQ_DELIVERY_CYCLES;
                    match deliver(&mut vmcs.guest, &mut env, vec, None) {
                        Delivery::Done => {}
                        Delivery::Exit => {
                            vmcs.injection = Some(Injection {
                                vector: vec,
                                error_code: None,
                            });
                            return;
                        }
                        Delivery::Fatal => return *env.exit = ExitReason::TripleFault,
                    }
                }
            }
        }

        // Interrupt-window exiting.
        if vmcs.intwin_exit && !shadow_was && vmcs.guest.if_set() {
            vmcs.intwin_exit = false;
            return *env.exit = ExitReason::IntWindow;
        }

        // Halted guest (HLT not intercepted): idle until an event.
        if vmcs.halted {
            match env.bus.next_event_due() {
                Some(due) => {
                    let skip = due.saturating_sub(*env.clock);
                    cpu.idle_cycles += skip;
                    *env.clock = due;
                    continue;
                }
                None => return *env.exit = ExitReason::TripleFault,
            }
        }

        let horizon = event_horizon(env.bus, deadline);
        match run_blocks(
            &mut cpu.blocks,
            &mut cpu.instret,
            &mut vmcs.guest,
            &mut env,
            horizon,
            shadow_was,
        ) {
            Stop::Outer => {}
            Stop::Halt => vmcs.halted = true,
            Stop::StiShadow => vmcs.sti_shadow = true,
            Stop::Exit => return,
            Stop::TripleFault => return *env.exit = ExitReason::TripleFault,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Machine, MachineConfig};
    use crate::vmx::{Injection, PagingVirt};
    use nova_x86::paging::npte;
    use nova_x86::reg::flags;
    use nova_x86::Asm;

    fn machine() -> Machine {
        Machine::new(MachineConfig::core_i7(32 << 20))
    }

    /// Builds an identity EPT over the first `mb` megabytes with
    /// 4 KB pages, tables placed from 1 MB of a scratch region.
    pub(super) fn ident_ept(m: &mut Machine, mb: u64) -> u64 {
        let root = 24 << 20;
        let l2 = root + 0x1000;
        let l1 = root + 0x2000;
        m.mem.write_u64(root, l2 | npte::RWX);
        m.mem.write_u64(l2, l1 | npte::RWX);
        let pages = mb * 256;
        let tables = pages.div_ceil(512);
        for t in 0..tables {
            let l0 = root + 0x3000 + t * 0x1000;
            m.mem.write_u64(l1 + t * 8, l0 | npte::RWX);
            for i in 0..512 {
                let p = t * 512 + i;
                if p < pages {
                    m.mem.write_u64(l0 + i * 8, (p << 12) | npte::RWX);
                }
            }
        }
        root
    }

    /// Rewrites the leaf entry [`ident_ept`] made for guest-physical
    /// `page` (one of the first 512).
    fn set_ept_leaf(m: &mut Machine, page: u64, entry: u64) {
        m.mem.write_u64((24 << 20) + 0x3000 + page * 8, entry);
    }

    fn guest_vmcs(m: &mut Machine, code: &[u8], entry: u32) -> Vmcs {
        let root = ident_ept(m, 16);
        let mut v = Vmcs::new(
            PagingVirt::Nested {
                root,
                fmt: nova_x86::paging::NestedFormat::Ept4Level,
            },
            1,
        );
        m.mem.write_bytes(entry as u64, code);
        v.guest = Regs::at(entry);
        v.guest.set(Reg::Esp, 0x8000);
        v
    }

    fn run(m: &mut Machine, v: &mut Vmcs, quantum: Option<Cycles>) -> ExitReason {
        let cost = m.cost;
        run_guest(
            &mut m.cpus[0],
            &mut m.mem,
            &mut m.bus,
            &cost,
            &mut m.clock,
            v,
            quantum,
        );
        v.exit
    }

    #[test]
    fn cpuid_always_exits() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        a.nop();
        a.cpuid();
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        let exit = run(&mut m, &mut v, None);
        assert_eq!(exit, ExitReason::Cpuid { len: 2 });
        assert_eq!(v.guest.eip, 0x1001, "EIP points AT the instruction");
    }

    /// One vCPU under shadow paging through three exits in a row, each
    /// reporting its own reason in `vmcs.exit`: a `div` by zero whose
    /// #DE delivery misses the shadow table on the IDT page, then (the
    /// page filled) on the stack page — exits raised inside delivery,
    /// `stop_for`'s `Delivery::Exit` arm — and, both filled, the
    /// handler's CPUID intercepted on the next entry. After every exit
    /// the registers, the clock and the reason are what the
    /// per-instruction reference leaves.
    #[test]
    fn each_exit_parks_its_own_reason() {
        const PD: u64 = 0x20_0000;
        const PT: u64 = 0x20_1000;
        let build = || {
            let mut m = machine();
            let mut a = Asm::new(0x1000);
            a.xor_rr(Reg::Ebx, Reg::Ebx);
            a.mov_ri(Reg::Eax, 1);
            a.div_r(Reg::Ebx);
            let mut h = Asm::new(0x1800);
            h.cpuid();
            h.hlt();
            m.mem.write_bytes(0x1000, &a.finish());
            m.mem.write_bytes(0x1800, &h.finish());
            // Gate 0 (#DE) -> 0x1800.
            m.mem.write_u32(0x5000, 0x0008_1800);
            m.mem.write_u32(0x5004, 0x8e00);
            // The shadow table maps the code page only.
            m.mem.write_u32(PD, PT as u32 | 7);
            m.mem.write_u32(PT + 4, 0x1000 | 7);
            let mut v = Vmcs::new_shadow(PD, 1);
            v.guest = Regs::at(0x1000);
            v.guest.set(Reg::Esp, 0x8000);
            v.guest.idt_base = 0x5000;
            v.guest.idt_limit = 0x7ff;
            (m, v)
        };
        let (mut m, mut v) = build();
        let (mut r, mut rv) = build();
        let mut exits = Vec::new();
        for fill in [Some(0x5000u64), Some(0x7000), None] {
            let exit = run(&mut m, &mut v, None);
            let cost = r.cost;
            let (cpu, mem, bus) = (&mut r.cpus[0], &mut r.mem, &mut r.bus);
            let want =
                oracle::reference::run_guest(cpu, mem, bus, &cost, &mut r.clock, &mut rv, None);
            assert_eq!(exit, want, "exit {}", exits.len());
            assert_eq!((&v.guest, m.clock), (&rv.guest, r.clock));
            exits.push(exit);
            if let Some(page) = fill {
                for m in [&mut m, &mut r] {
                    m.mem.write_u32(PT + (page >> 12) * 4, page as u32 | 7);
                }
            }
        }
        let pf_at = |e: &ExitReason| match *e {
            ExitReason::PageFault { addr, .. } => Some(addr),
            _ => None,
        };
        assert_eq!(
            exits.iter().map(pf_at).collect::<Vec<_>>()[..2],
            [Some(0x5000), Some(0x7ffc)]
        );
        assert_eq!(exits[2], ExitReason::Cpuid { len: 2 });
        assert_eq!(v.guest.eip, 0x1800, "in the handler, at its CPUID");
    }

    #[test]
    fn io_exit_carries_qualification() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        a.mov_r8i(nova_x86::Reg8::Al, 0x7f);
        a.out_imm_al(0x21);
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        let exit = run(&mut m, &mut v, None);
        assert_eq!(
            exit,
            ExitReason::IoPort {
                port: 0x21,
                size: OpSize::Byte,
                write: true,
                len: 2,
            }
        );
        assert_eq!(v.guest.get8(nova_x86::Reg8::Al), 0x7f, "data in AL");
    }

    #[test]
    fn passthrough_port_does_not_exit() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        a.mov_r8i(nova_x86::Reg8::Al, b'Z');
        a.mov_ri(Reg::Edx, crate::serial::COM1 as u32);
        a.out_dx_al();
        a.hlt();
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        v.passthrough_ports(crate::serial::COM1, 8);
        let exit = run(&mut m, &mut v, None);
        assert_eq!(exit, ExitReason::Hlt { len: 1 }, "only HLT exits");
        assert_eq!(m.serial_text(), "Z", "write reached the real UART");
    }

    #[test]
    fn ept_violation_reports_gpa_and_preserves_eip() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Ebx, 0x4000_0000u32); // beyond the identity EPT
        a.mov_mi(nova_x86::MemRef::base_disp(Reg::Ebx, 8), 5);
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        let exit = run(&mut m, &mut v, None);
        match exit {
            ExitReason::EptViolation { gpa, access } => {
                assert_eq!(gpa, 0x4000_0008);
                assert!(access.write);
            }
            other => panic!("expected EPT violation, got {other:?}"),
        }
        assert_eq!(v.guest.eip, 0x1005, "EIP at the faulting instruction");
    }

    #[test]
    fn injection_delivers_through_guest_idt() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        // IDT descriptor at 0x6000 -> IDT at 0x5000; gate 0x21 -> 0x2000.
        a.hlt(); // never reached: injection fires first
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        m.mem.write_u32(0x5000 + 0x21 * 8, 0x0008_2000);
        m.mem.write_u32(0x5000 + 0x21 * 8 + 4, 0x8e00);
        m.mem.write_bytes(0x2000, &[0xf4]); // handler: hlt
        v.guest.idt_base = 0x5000;
        v.guest.idt_limit = 0x7ff;
        v.guest.eflags |= flags::IF;
        v.injection = Some(Injection {
            vector: 0x21,
            error_code: None,
        });
        let exit = run(&mut m, &mut v, None);
        assert_eq!(exit, ExitReason::Hlt { len: 1 });
        assert_eq!(v.guest.eip, 0x2000, "woke in the handler");
        assert!(v.injection.is_none(), "injection consumed");
        assert!(!v.guest.if_set(), "IF cleared by delivery");
        // The pushed frame returns to the original EIP.
        let esp = v.guest.get(Reg::Esp);
        assert_eq!(m.mem.read_u32(esp as u64), 0x1000);
    }

    #[test]
    fn interrupt_window_exit_waits_for_sti() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        a.cli();
        a.nop();
        a.nop();
        a.sti();
        a.nop(); // shadow instruction
        a.nop();
        a.hlt();
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        v.intwin_exit = true;
        let exit = run(&mut m, &mut v, None);
        assert_eq!(exit, ExitReason::IntWindow);
        // The window opened after STI's shadow: one instruction past it.
        assert_eq!(v.guest.eip, 0x1000 + 5, "exited after the shadow insn");
        assert!(!v.intwin_exit, "one-shot");
    }

    #[test]
    fn recall_forces_immediate_exit() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        for _ in 0..100 {
            a.nop();
        }
        a.hlt();
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        v.recall_pending = true;
        let exit = run(&mut m, &mut v, None);
        assert_eq!(exit, ExitReason::Recall);
        assert_eq!(v.guest.eip, 0x1000, "no instruction executed");
        assert!(!v.recall_pending);
    }

    #[test]
    fn preemption_quantum_expires() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        let top = a.here_label();
        a.jmp(top); // spin forever
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        let exit = run(&mut m, &mut v, Some(10_000));
        assert_eq!(exit, ExitReason::Preempt);
        assert!(m.clock >= 10_000);
    }

    #[test]
    fn untagged_vmcs_flushes_tlb_on_transitions() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        a.mov_rm(Reg::Eax, nova_x86::MemRef::abs(0x3000));
        a.cpuid();
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        v.vpid = 0; // no tags
                    // Seed a host entry: it must not survive VM entry.
        m.cpus[0].tlb.insert(crate::tlb::TlbEntry {
            vpid: 0,
            vpn: 0x99,
            hpa: 0x99000,
            page_size: 4096,
            write: true,
        });
        let _ = run(&mut m, &mut v, None);
        assert_eq!(
            m.cpus[0].tlb.occupancy(),
            0,
            "exit flushed everything (no VPID)"
        );
        assert!(m.cpus[0].tlb.stats.flushes >= 2, "entry + exit flushes");
    }

    #[test]
    fn tagged_vmcs_preserves_other_tags() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        a.cpuid();
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        m.cpus[0].tlb.insert(crate::tlb::TlbEntry {
            vpid: 0,
            vpn: 0x99,
            hpa: 0x99000,
            page_size: 4096,
            write: true,
        });
        let _ = run(&mut m, &mut v, None);
        assert!(
            m.cpus[0].tlb.lookup(0, 0x99 << 12).is_some(),
            "host entry survives tagged transitions"
        );
    }

    #[test]
    fn guest_triple_fault_on_bad_idt() {
        let mut m = machine();
        // Division by zero with no IDT: delivery fails -> triple fault.
        let mut a = Asm::new(0x1000);
        a.xor_rr(Reg::Ebx, Reg::Ebx);
        a.mov_ri(Reg::Eax, 1);
        a.div_r(Reg::Ebx);
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        let exit = run(&mut m, &mut v, None);
        assert_eq!(exit, ExitReason::TripleFault);
    }

    /// Guest program for the page-crossing tests: a dword store at
    /// 0x5ffe (two bytes in page 5, two in page 6), then a dword load
    /// from `load_at`, under an identity EPT with guest-physical page 6
    /// remapped to host frame 9.
    fn crossing_guest(load_at: u32) -> (Machine, Vmcs) {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Eax, 0x1122_3344);
        a.mov_ri(Reg::Ebx, 0x5ffe);
        a.mov_mr(nova_x86::MemRef::base_disp(Reg::Ebx, 0), Reg::Eax);
        a.mov_rm(Reg::Ecx, nova_x86::MemRef::abs(load_at));
        a.hlt();
        let v = guest_vmcs(&mut m, &a.finish(), 0x1000);
        set_ept_leaf(&mut m, 6, 0x9000 | npte::RWX);
        (m, v)
    }

    /// A data access that leaves its 4 KB page takes each page's own
    /// translation: the tail of the dword lands in host frame 9, not
    /// in host frame 6 (which may belong to anyone).
    #[test]
    fn page_crossing_store_and_load_follow_both_translations() {
        let (mut m, mut v) = crossing_guest(0x5ffe);
        assert_eq!(run(&mut m, &mut v, None), ExitReason::Hlt { len: 1 });
        assert_eq!(m.mem.read_bytes(0x5ffe, 2), [0x44, 0x33]);
        assert_eq!(m.mem.read_bytes(0x9000, 2), [0x22, 0x11]);
        assert_eq!(m.mem.read_u32(0x6000), 0, "host frame 6 is not the guest's");
        assert_eq!(v.guest.get(Reg::Ecx), 0x1122_3344, "the load crosses too");

        // Charging rule (DESIGN §6i): a crossing access is one
        // `mem_access`, and its second page an ordinary TLB lookup. The
        // same program with the load kept inside page 5 (both pages
        // are in the TLB after the store) costs the same cycles and
        // counts one TLB hit fewer.
        let (mut flat, mut vf) = crossing_guest(0x5ff0);
        assert_eq!(run(&mut flat, &mut vf, None), ExitReason::Hlt { len: 1 });
        assert_eq!(m.clock, flat.clock);
        let (crossing, in_page) = (m.cpus[0].tlb.stats, flat.cpus[0].tlb.stats);
        assert_eq!(crossing.hits, in_page.hits + 1);
        assert_eq!(crossing.misses, in_page.misses);
    }

    /// A crossing store whose second page is not mapped must leave the
    /// first page untouched and report the second page's address.
    #[test]
    fn page_crossing_store_faulting_on_its_second_page_stores_nothing() {
        let (mut m, mut v) = crossing_guest(0x5ffe);
        set_ept_leaf(&mut m, 6, 0); // not present
        match run(&mut m, &mut v, None) {
            ExitReason::EptViolation { gpa, access } => {
                assert_eq!(gpa, 0x6000, "the second page's first byte");
                assert!(access.write);
            }
            other => panic!("expected an EPT violation, got {other:?}"),
        }
        assert_eq!(m.mem.read_bytes(0x5ffe, 2), [0, 0], "nothing stored");
        assert_eq!(v.guest.eip, 0x100a, "EIP at the faulting store");
    }

    /// Runs `code` natively from 0x1000 until it writes the debug-exit
    /// port.
    fn run_native_code(m: &mut Machine, code: &[u8]) {
        m.load_image(0x1000, code);
        m.cpus[0].regs = Regs::at(0x1000);
        m.cpus[0].regs.set(Reg::Esp, 0x8000);
        assert_eq!(m.run_native(Some(1_000_000)), NativeStop::Shutdown(0));
    }

    /// Ends a native test program: `out DEBUG_EXIT_PORT, 0`.
    fn emit_exit(a: &mut Asm) {
        a.mov_r8i(nova_x86::Reg8::Al, 0);
        a.mov_ri(Reg::Edx, crate::machine::DEBUG_EXIT_PORT as u32);
        a.out_dx_al();
    }

    /// The VGA window is 4,000 bytes of a 4,096-byte frame: the frame
    /// filter flags the whole frame, the exact window match still
    /// decides. Byte 0 is the device's, byte 4000 is RAM.
    #[test]
    fn device_filter_keeps_the_ram_behind_a_partial_window() {
        use crate::vga::VGA_BASE;
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        a.mov_mi(nova_x86::MemRef::abs(VGA_BASE as u32), 0x0742_0741); // "AB"
        a.mov_mi(nova_x86::MemRef::abs(VGA_BASE as u32 + 4000), 0x1234_5678);
        a.mov_rm(Reg::Ebx, nova_x86::MemRef::abs(VGA_BASE as u32));
        a.mov_rm(Reg::Ecx, nova_x86::MemRef::abs(VGA_BASE as u32 + 4000));
        emit_exit(&mut a);
        let before = m.clock;
        run_native_code(&mut m, &a.finish());
        assert_eq!(m.vga_text(), "AB", "the window's bytes reach the device");
        assert_eq!(m.mem.read_u32(VGA_BASE), 0, "and not the RAM under it");
        assert_eq!(m.cpus[0].regs.get(Reg::Ebx), 0x0742_0741);
        assert_eq!(m.mem.read_u32(VGA_BASE + 4000), 0x1234_5678, "RAM");
        assert_eq!(m.cpus[0].regs.get(Reg::Ecx), 0x1234_5678);
        // Two device accesses (and the exit port) were charged as such.
        assert_eq!(
            m.clock - before,
            7 + 4 * m.cost.mem_access + 3 * DEVICE_ACCESS_CYCLES
        );
    }

    /// The windows above RAM (AHCI, NIC) are inside the filter's range
    /// and still dispatch to their devices.
    #[test]
    fn device_filter_dispatches_windows_above_ram() {
        use crate::machine::{AHCI_BASE, NIC_BASE};
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        a.mov_rm(
            Reg::Ebx,
            nova_x86::MemRef::abs(AHCI_BASE as u32 + crate::ahci::regs::PI),
        );
        a.mov_mi(
            nova_x86::MemRef::abs(NIC_BASE as u32 + crate::nic::regs::ITR),
            5,
        );
        a.mov_rm(
            Reg::Ecx,
            nova_x86::MemRef::abs(NIC_BASE as u32 + crate::nic::regs::ITR),
        );
        emit_exit(&mut a);
        run_native_code(&mut m, &a.finish());
        assert_eq!(m.cpus[0].regs.get(Reg::Ebx), 1, "AHCI: port 0 implemented");
        assert_eq!(
            m.cpus[0].regs.get(Reg::Ecx),
            5,
            "NIC register written and read"
        );
    }

    /// A window mapped after the CPU has already used the address as
    /// RAM is honoured by the very next access.
    #[test]
    fn device_filter_follows_a_window_mapped_after_the_cpu_ran() {
        const AT: u32 = 0x9_0000;
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        a.mov_mi(nova_x86::MemRef::abs(AT), 0x0742_0741);
        emit_exit(&mut a);
        let code = a.finish();
        run_native_code(&mut m, &code);
        assert_eq!(m.mem.read_u32(AT as u64), 0x0742_0741, "plain RAM so far");

        let dev = m.bus.add_device(Box::new(crate::vga::VgaText::new()));
        m.bus.map_mmio(AT as u64, 0x100, dev);
        m.mem.write_u32(AT as u64, 0);
        run_native_code(&mut m, &code);
        assert_eq!(m.mem.read_u32(AT as u64), 0, "the store left RAM alone");
        let text = m.bus.typed_mut::<crate::vga::VgaText>(dev).unwrap();
        assert_eq!(text.row_text(0).trim_end(), "AB");
    }

    /// A window above the 4 GB the filter covers is reached through
    /// the exact scan, which frames out of range always fall back to.
    #[test]
    fn device_filter_passes_frames_beyond_its_range_to_the_scan() {
        const HIGH: u64 = 0x1_0000_0000;
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        a.mov_mi(nova_x86::MemRef::abs(0x6000), 0x0742_0741);
        a.hlt();
        let mut v = guest_vmcs(&mut m, &a.finish(), 0x1000);
        // Guest-physical page 6 -> a host-physical page above 4 GB
        // that a device window covers.
        set_ept_leaf(&mut m, 6, HIGH | npte::RWX);
        let dev = m.bus.add_device(Box::new(crate::vga::VgaText::new()));
        m.bus.map_mmio(HIGH, 0x1000, dev);
        assert_eq!(run(&mut m, &mut v, None), ExitReason::Hlt { len: 1 });
        let text = m.bus.typed_mut::<crate::vga::VgaText>(dev).unwrap();
        assert_eq!(text.row_text(0).trim_end(), "AB");
    }

    /// The closed form costs the host O(1), not O(trips): a delay loop
    /// entered with a counter of 0 has 2^32 trips ahead of it, and a
    /// budget of 4 × 10^9 cycles ends inside them. Retired one
    /// instruction at a time that is 4 × 10^9 handler calls — minutes
    /// in the debug build this test runs in.
    #[test]
    fn delay_loop_of_two_to_the_32_trips_meets_its_budget_in_constant_time() {
        const BUDGET: Cycles = 4_000_000_000;
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        let top = a.here_label();
        a.dec_r(Reg::Ecx);
        a.jcc(Cond::Ne, top);
        m.load_image(0x1000, &a.finish());
        m.cpus[0].regs = Regs::at(0x1000);
        // A short budget first: entered with the counter at 0 and
        // left with it 500 below 2^32, in one stretch.
        assert_eq!(m.run_native(Some(1_000)), NativeStop::Budget);
        assert_eq!(m.cpus[0].regs.get(Reg::Ecx), 0u32.wrapping_sub(500));
        assert_eq!(COUNTED_RUNS.get(), [0, 1, 0, 0], "one closed-form stretch");
        assert_eq!(m.run_native(Some(BUDGET - 1_000)), NativeStop::Budget);
        assert_eq!(COUNTED_RUNS.get(), [0, 2, 0, 0], "and one more");
        // One cycle an instruction, nothing else on the clock.
        assert_eq!(m.clock, BUDGET);
        assert_eq!(m.cpus[0].instret, BUDGET);
        assert_eq!(
            m.cpus[0].regs.get(Reg::Ecx),
            0u32.wrapping_sub((BUDGET / 2) as u32)
        );
        assert_eq!(m.cpus[0].regs.eip, 0x1000, "stopped at the loop's top");
    }

    #[test]
    fn direct_interrupt_delivery_without_extint_exits() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        // IDT gate 0x20 -> handler at 0x2000 (out 0xf4 to stop).
        a.sti();
        let spin = a.here_label();
        a.jmp(spin);
        let code = a.finish();
        let mut v = guest_vmcs(&mut m, &code, 0x1000);
        m.mem.write_u32(0x5000 + 0x20 * 8, 0x0008_2000);
        m.mem.write_u32(0x5000 + 0x20 * 8 + 4, 0x8e00);
        let mut h = Asm::new(0x2000);
        h.mov_r8i(nova_x86::Reg8::Al, 7);
        h.mov_ri(Reg::Edx, crate::machine::DEBUG_EXIT_PORT as u32);
        h.out_dx_al();
        h.iret();
        m.mem.write_bytes(0x2000, &h.finish());
        v.guest.idt_base = 0x5000;
        v.guest.idt_limit = 0x7ff;
        v.intercept_extint = false;
        v.passthrough_ports(0, u16::MAX);
        v.passthrough_ports(u16::MAX, 1);
        // Unmask and pulse line 0 while the guest spins.
        m.bus.pic.io_write(crate::pic::MASTER_DATA, 0);
        m.bus.pic.pulse(0);
        let exit = run(&mut m, &mut v, Some(100_000));
        // The interrupt was delivered INTO the guest (no ExtInt exit);
        // its handler stopped the machine via the debug port.
        assert_eq!(exit, ExitReason::Preempt, "stopped by shutdown check");
        assert_eq!(m.bus.ctl.shutdown, Some(7));
    }
}
