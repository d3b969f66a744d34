//! Architecture-neutral instruction executor, in staged form.
//!
//! The semantics of every [`Op`] are written once, as a small function
//! generic over *where its operands live* (marker types for a 32-bit
//! register, an 8-bit register, an immediate, memory, or "sort it out
//! at run time") and over the operand size; the ALU, shift and Jcc
//! bodies also take their selector as a constant. [`handler_id`] looks
//! at a decoded [`Insn`] **once** and names the monomorphised instance
//! that executes it; [`HandlerId::handler`] turns the name into a
//! function pointer for a given environment. A predecoded-block cache
//! stores the id beside the instruction, so its inner loop does one
//! indirect call per instruction into a body with no `match` on the
//! operation, the operand kinds or the size left in it. [`execute`] is
//! the one-shot form — resolve, then call — over the same bodies.
//!
//! All memory, port-I/O and system-register accesses go through the
//! [`Env`] trait. Two environments implement it:
//!
//! - the simulated CPU core in `nova-hw`, whose environment translates
//!   addresses through the MMU/TLB and raises VM exits on intercepted
//!   accesses, and
//! - the instruction emulator of the user-level VMM in `nova-vmm`, whose
//!   environment accesses guest-physical memory and dispatches MMIO and
//!   port I/O to virtual device models (paper Section 7.1).
//!
//! The pre-staging executor — one function matching on the operation,
//! then on each operand, then on the size — survives as the test-only
//! `reference` module, the referee of the differential test below.
//!
//! # Interrupt and exception frames
//!
//! Event delivery ([`deliver_event`]) uses real 8-byte IDT gate
//! descriptors but flat segmentation: the pushed frame is
//! `[EFLAGS, CS (constant 0x08), EIP]`, plus an error code on top for
//! faulting exceptions; IRET pops the same frame. The code-segment
//! selector is saved and discarded, never reloaded.

use std::convert::Infallible;

use crate::insn::{AluOp, Cond, Insn, MemRef, Op, OpSize, Operand, ShiftOp};
use crate::paging;
use crate::reg::{flags, Reg, Reg8, Regs};

#[cfg(test)]
mod differential;
#[cfg(test)]
mod reference;

/// Architectural faults raised during execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// #PF — page fault. `present` distinguishes protection violations
    /// from not-present faults; `write` and `fetch` describe the access.
    Page {
        /// Faulting linear address (goes to CR2).
        addr: u32,
        /// The access was a write.
        write: bool,
        /// The access was an instruction fetch.
        fetch: bool,
        /// The translation existed but denied the access.
        present: bool,
    },
    /// #DE — divide error (divide by zero or quotient overflow).
    Divide,
    /// #UD — invalid opcode.
    InvalidOpcode,
    /// #GP — general protection fault.
    Gp,
}

/// Guest-virtual to guest-physical for an instruction emulator of a
/// paged guest: [`paging::walk_2level`] over the guest's tables as
/// `read` supplies them (a table frame that is not guest RAM reads as
/// 0, not present), judged like the hardware walkers judge it
/// ([`paging::hardware_access`]).
///
/// # Errors
///
/// The page fault to inject.
pub fn emulator_gva_to_gpa(
    cr3: u32,
    pse: bool,
    addr: u32,
    write: bool,
    fetch: bool,
    mut read: impl FnMut(u64) -> u32,
) -> Result<u64, Fault> {
    let Ok(walk) = paging::walk_2level(cr3, pse, addr, |at| Ok::<_, Infallible>(read(at)));
    paging::hardware_access(walk, write)
        .map(|w| w.addr)
        .map_err(|present| Fault::Page {
            addr,
            write,
            fetch,
            present,
        })
}

impl Fault {
    /// The exception vector this fault raises.
    pub fn vector(self) -> u8 {
        match self {
            Fault::Page { .. } => crate::reg::vector::PAGE_FAULT,
            Fault::Divide => crate::reg::vector::DIVIDE_ERROR,
            Fault::InvalidOpcode => crate::reg::vector::INVALID_OPCODE,
            Fault::Gp => crate::reg::vector::GP_FAULT,
        }
    }

    /// The error code pushed with the exception, if the vector has one.
    pub fn error_code(self) -> Option<u32> {
        match self {
            Fault::Page {
                write,
                fetch,
                present,
                ..
            } => {
                let mut e = 0;
                if present {
                    e |= crate::reg::pf_err::PRESENT;
                }
                if write {
                    e |= crate::reg::pf_err::WRITE;
                }
                if fetch {
                    e |= crate::reg::pf_err::FETCH;
                }
                Some(e)
            }
            Fault::Gp => Some(0),
            Fault::Divide | Fault::InvalidOpcode => None,
        }
    }
}

/// Execution environment: memory, port I/O, and system-level operations.
///
/// All addresses given to `read_mem`/`write_mem` are *linear* addresses;
/// the environment performs translation (or not, for a flat emulator).
pub trait Env {
    /// Environment error type; architectural faults must convert into it.
    type Err: From<Fault>;

    /// Reads `size` bytes at linear address `addr`, zero-extended.
    fn read_mem(&mut self, addr: u32, size: OpSize) -> Result<u32, Self::Err>;

    /// Writes the low `size` bytes of `val` at linear address `addr`.
    fn write_mem(&mut self, addr: u32, size: OpSize, val: u32) -> Result<(), Self::Err>;

    /// Port input.
    fn io_in(&mut self, port: u16, size: OpSize) -> Result<u32, Self::Err>;

    /// Port output.
    fn io_out(&mut self, port: u16, size: OpSize, val: u32) -> Result<(), Self::Err>;

    /// CPUID: returns `[eax, ebx, ecx, edx]` for the given leaf.
    fn cpuid(&mut self, leaf: u32) -> [u32; 4];

    /// Reads the time-stamp counter.
    fn rdtsc(&mut self) -> u64;

    /// Reads control register `n`.
    fn read_cr(&mut self, regs: &Regs, n: u8) -> Result<u32, Self::Err> {
        Ok(regs.get_cr(n))
    }

    /// Writes control register `n`. Implementations flush TLBs / shadow
    /// state as architecture requires.
    fn write_cr(&mut self, regs: &mut Regs, n: u8, val: u32) -> Result<(), Self::Err> {
        regs.set_cr(n, val);
        Ok(())
    }

    /// Invalidates the TLB entry for `addr`.
    fn invlpg(&mut self, _addr: u32) -> Result<(), Self::Err> {
        Ok(())
    }

    /// VMCALL — hypercall from an enlightened guest. The default raises
    /// #UD (no hypervisor present).
    fn vmcall(&mut self, _regs: &mut Regs) -> Result<(), Self::Err> {
        Err(Fault::InvalidOpcode.into())
    }
}

/// Outcome of executing one instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exec {
    /// Normal completion; EIP has been updated.
    Normal,
    /// HLT executed; the CPU should idle until the next interrupt.
    Halt,
    /// STI executed with IF previously clear: interrupts are inhibited
    /// for one more instruction (the STI shadow).
    StiShadow,
    /// A REP-prefixed string instruction performed one iteration and has
    /// more to do; EIP still points at the instruction.
    RepContinue,
}

/// Evaluates a condition code against EFLAGS.
#[inline]
pub fn cond_holds(cond: Cond, eflags: u32) -> bool {
    let cf = eflags & flags::CF != 0;
    let zf = eflags & flags::ZF != 0;
    let sf = eflags & flags::SF != 0;
    let of = eflags & flags::OF != 0;
    match cond {
        Cond::O => of,
        Cond::No => !of,
        Cond::B => cf,
        Cond::Ae => !cf,
        Cond::E => zf,
        Cond::Ne => !zf,
        Cond::Be => cf || zf,
        Cond::A => !cf && !zf,
        Cond::S => sf,
        Cond::Ns => !sf,
        Cond::P => false,
        Cond::Np => true,
        Cond::L => sf != of,
        Cond::Ge => sf == of,
        Cond::Le => zf || sf != of,
        Cond::G => !zf && sf == of,
    }
}

/// Computes the linear address of a memory operand.
#[inline]
pub fn effective_address(m: &MemRef, regs: &Regs) -> u32 {
    let mut a = m.disp as u32;
    if let Some(b) = m.base {
        a = a.wrapping_add(regs.get(b));
    }
    if let Some((i, s)) = m.index {
        a = a.wrapping_add(regs.get(i).wrapping_mul(s as u32));
    }
    a
}

// ----------------------------------------------------------------------
// Operand accessors
// ----------------------------------------------------------------------

/// Where an operand lives. [`handler_id`] resolves each operand of an
/// instruction to one of the marker types below, once; the instruction
/// bodies are generic over them, so a monomorphised body reads and
/// writes its operands without matching on [`Operand`] again.
trait Loc {
    fn load<E: Env>(op: &Operand, size: OpSize, regs: &Regs, env: &mut E) -> Result<u32, E::Err>;

    fn store<E: Env>(
        op: &Operand,
        size: OpSize,
        val: u32,
        regs: &mut Regs,
        env: &mut E,
    ) -> Result<(), E::Err>;
}

/// A 32-bit general-purpose register ([`Operand::Reg`]).
struct R32;
/// An 8-bit register ([`Operand::Reg8`]).
struct R8;
/// An immediate ([`Operand::Imm`]); storing to it is #UD.
struct Imm;
/// A memory reference ([`Operand::Mem`]).
struct Mem;
/// Any operand at all, told apart when the instruction runs: the
/// accessor of the forms that are not worth an instance of their own,
/// and what makes [`handler_id`] total.
struct Any;

/// A body instantiated for one operand kind met another: [`handler_id`]
/// and the handler table disagree.
#[cold]
#[inline(never)]
fn wrong_kind() -> ! {
    panic!("handler selected for a different operand kind")
}

impl Loc for R32 {
    #[inline(always)]
    fn load<E: Env>(op: &Operand, _: OpSize, regs: &Regs, _: &mut E) -> Result<u32, E::Err> {
        match op {
            Operand::Reg(r) => Ok(regs.get(*r)),
            _ => wrong_kind(),
        }
    }

    #[inline(always)]
    fn store<E: Env>(
        op: &Operand,
        _: OpSize,
        val: u32,
        regs: &mut Regs,
        _: &mut E,
    ) -> Result<(), E::Err> {
        match op {
            Operand::Reg(r) => regs.set(*r, val),
            _ => wrong_kind(),
        }
        Ok(())
    }
}

impl Loc for R8 {
    #[inline(always)]
    fn load<E: Env>(op: &Operand, _: OpSize, regs: &Regs, _: &mut E) -> Result<u32, E::Err> {
        match op {
            Operand::Reg8(r) => Ok(regs.get8(*r) as u32),
            _ => wrong_kind(),
        }
    }

    #[inline(always)]
    fn store<E: Env>(
        op: &Operand,
        _: OpSize,
        val: u32,
        regs: &mut Regs,
        _: &mut E,
    ) -> Result<(), E::Err> {
        match op {
            Operand::Reg8(r) => regs.set8(*r, val as u8),
            _ => wrong_kind(),
        }
        Ok(())
    }
}

impl Loc for Imm {
    #[inline(always)]
    fn load<E: Env>(op: &Operand, _: OpSize, _: &Regs, _: &mut E) -> Result<u32, E::Err> {
        match op {
            Operand::Imm(v) => Ok(*v),
            _ => wrong_kind(),
        }
    }

    #[inline(always)]
    fn store<E: Env>(
        _: &Operand,
        _: OpSize,
        _: u32,
        _: &mut Regs,
        _: &mut E,
    ) -> Result<(), E::Err> {
        Err(Fault::InvalidOpcode.into())
    }
}

impl Loc for Mem {
    #[inline(always)]
    fn load<E: Env>(op: &Operand, size: OpSize, regs: &Regs, env: &mut E) -> Result<u32, E::Err> {
        match op {
            Operand::Mem(m) => env.read_mem(effective_address(m, regs), size),
            _ => wrong_kind(),
        }
    }

    #[inline(always)]
    fn store<E: Env>(
        op: &Operand,
        size: OpSize,
        val: u32,
        regs: &mut Regs,
        env: &mut E,
    ) -> Result<(), E::Err> {
        match op {
            Operand::Mem(m) => env.write_mem(effective_address(m, regs), size, val),
            _ => wrong_kind(),
        }
    }
}

impl Loc for Any {
    fn load<E: Env>(op: &Operand, size: OpSize, regs: &Regs, env: &mut E) -> Result<u32, E::Err> {
        match op {
            Operand::Reg(_) => R32::load(op, size, regs, env),
            Operand::Reg8(_) => R8::load(op, size, regs, env),
            Operand::Imm(_) => Imm::load(op, size, regs, env),
            Operand::Mem(_) => Mem::load(op, size, regs, env),
            Operand::Cr(_) | Operand::None => Err(Fault::InvalidOpcode.into()),
        }
    }

    fn store<E: Env>(
        op: &Operand,
        size: OpSize,
        val: u32,
        regs: &mut Regs,
        env: &mut E,
    ) -> Result<(), E::Err> {
        match op {
            Operand::Reg(_) => R32::store(op, size, val, regs, env),
            Operand::Reg8(_) => R8::store(op, size, val, regs, env),
            Operand::Mem(_) => Mem::store(op, size, val, regs, env),
            Operand::Imm(_) | Operand::Cr(_) | Operand::None => Err(Fault::InvalidOpcode.into()),
        }
    }
}

/// How a JMP or CALL names its target: relative to the next
/// instruction, in a register, or in memory.
trait Target {
    fn target<E: Env>(
        src: &Operand,
        next_eip: u32,
        regs: &Regs,
        env: &mut E,
    ) -> Result<u32, E::Err>;
}

impl Target for Imm {
    #[inline(always)]
    fn target<E: Env>(src: &Operand, next_eip: u32, _: &Regs, _: &mut E) -> Result<u32, E::Err> {
        match src {
            Operand::Imm(rel) => Ok(next_eip.wrapping_add(*rel)),
            _ => wrong_kind(),
        }
    }
}

impl Target for R32 {
    #[inline(always)]
    fn target<E: Env>(src: &Operand, _: u32, regs: &Regs, env: &mut E) -> Result<u32, E::Err> {
        R32::load(src, OpSize::Dword, regs, env)
    }
}

impl Target for Mem {
    #[inline(always)]
    fn target<E: Env>(src: &Operand, _: u32, regs: &Regs, env: &mut E) -> Result<u32, E::Err> {
        Mem::load(src, OpSize::Dword, regs, env)
    }
}

impl Target for Any {
    fn target<E: Env>(
        src: &Operand,
        next_eip: u32,
        regs: &Regs,
        env: &mut E,
    ) -> Result<u32, E::Err> {
        match src {
            Operand::Imm(_) => Imm::target(src, next_eip, regs, env),
            Operand::Reg(_) => R32::target(src, next_eip, regs, env),
            Operand::Mem(_) => Mem::target(src, next_eip, regs, env),
            _ => Err(Fault::InvalidOpcode.into()),
        }
    }
}

/// The operand size a body is instantiated for.
trait Width {
    const SIZE: OpSize;
}

/// 8-bit operands.
struct B;
/// 32-bit operands.
struct D;

impl Width for B {
    const SIZE: OpSize = OpSize::Byte;
}

impl Width for D {
    const SIZE: OpSize = OpSize::Dword;
}

// ----------------------------------------------------------------------
// Flags and stack helpers
// ----------------------------------------------------------------------

/// ZF and SF of a result, as EFLAGS bits.
#[inline(always)]
fn zsf(res: u32, size: OpSize) -> u32 {
    ((res & size.mask() == 0) as u32 * flags::ZF)
        | ((res & size.sign_bit() != 0) as u32 * flags::SF)
}

/// The ALU: the result and the EFLAGS it leaves (CF, OF, ZF and SF
/// computed without branches, everything else carried over). The one
/// statement of the ALU group's semantics: its handlers and the block
/// executor's fused step of a counted loop both go through it. `Cmp`
/// computes what `Sub` does; not storing the result is the caller's.
#[inline(always)]
pub fn alu(op: AluOp, a: u32, b: u32, size: OpSize, eflags: u32) -> (u32, u32) {
    let mask = size.mask();
    let sign = size.sign_bit();
    let a = a & mask;
    let b = b & mask;
    let cin = (eflags & flags::CF != 0) as u32;
    let (res, cf, of) = match op {
        AluOp::Add => {
            let r = a.wrapping_add(b) & mask;
            (r, r < a, (a ^ b ^ sign) & (a ^ r) & sign != 0)
        }
        AluOp::Adc => {
            let wide = a as u64 + b as u64 + cin as u64;
            let r = (wide as u32) & mask;
            (r, wide > mask as u64, (a ^ b ^ sign) & (a ^ r) & sign != 0)
        }
        AluOp::Sub | AluOp::Cmp => {
            let r = a.wrapping_sub(b) & mask;
            (r, a < b, (a ^ b) & (a ^ r) & sign != 0)
        }
        AluOp::Sbb => {
            let sub = b as u64 + cin as u64;
            let r = (a as u64).wrapping_sub(sub) as u32 & mask;
            (r, (a as u64) < sub, (a ^ b) & (a ^ r) & sign != 0)
        }
        AluOp::And => (a & b, false, false),
        AluOp::Or => (a | b, false, false),
        AluOp::Xor => (a ^ b, false, false),
    };
    let status = (cf as u32 * flags::CF) | (of as u32 * flags::OF) | zsf(res, size);
    (res, (eflags & !flags::STATUS) | status)
}

/// Delivers an interrupt or exception through the IDT: pushes
/// `[EFLAGS, CS, EIP]` (+ error code), clears IF, and jumps to the gate's
/// handler offset.
///
/// # Errors
///
/// Propagates environment errors from the IDT read or the stack pushes
/// (e.g. a page fault on the kernel stack); the CPU layer treats a fault
/// here as a triple fault.
pub fn deliver_event<E: Env>(
    regs: &mut Regs,
    env: &mut E,
    vector: u8,
    error_code: Option<u32>,
) -> Result<(), E::Err> {
    let off = vector as u32 * 8;
    if off + 7 > regs.idt_limit as u32 {
        return Err(Fault::Gp.into());
    }
    // Real 8-byte interrupt-gate layout: offset[15:0], selector,
    // reserved/type, offset[31:16].
    let lo = env.read_mem(regs.idt_base + off, OpSize::Dword)?;
    let hi = env.read_mem(regs.idt_base + off + 4, OpSize::Dword)?;
    let handler = (lo & 0xffff) | (hi & 0xffff_0000);

    push(regs, env, regs.eflags)?;
    push(regs, env, 0x08)?; // flat code-segment selector, informational
    push(regs, env, regs.eip)?;
    if let Some(e) = error_code {
        push(regs, env, e)?;
    }
    regs.eflags &= !flags::IF;
    regs.eip = handler;
    Ok(())
}

/// Pushes a dword; ESP moves only once the store went through.
#[inline(always)]
fn push<E: Env>(regs: &mut Regs, env: &mut E, val: u32) -> Result<(), E::Err> {
    let esp = regs.get(Reg::Esp).wrapping_sub(4);
    env.write_mem(esp, OpSize::Dword, val)?;
    regs.set(Reg::Esp, esp);
    Ok(())
}

#[inline(always)]
fn pop<E: Env>(regs: &mut Regs, env: &mut E) -> Result<u32, E::Err> {
    let esp = regs.get(Reg::Esp);
    let v = env.read_mem(esp, OpSize::Dword)?;
    regs.set(Reg::Esp, esp.wrapping_add(4));
    Ok(v)
}

// ----------------------------------------------------------------------
// Instruction bodies: one per `Op`, generic over where the operands live
// ----------------------------------------------------------------------
//
// Shared contract: on success EIP points at the next instruction (or at
// the same one for `Exec::RepContinue`); on error EIP is unchanged and
// whatever the instruction did before the failing access stays done,
// as on hardware. Memory accesses happen in the order written here.

/// The address of the instruction after `insn`.
#[inline(always)]
fn next_eip(insn: &Insn, regs: &Regs) -> u32 {
    regs.eip.wrapping_add(insn.len as u32)
}

/// Completes a fall-through instruction.
#[inline(always)]
fn fall_through<E: Env>(insn: &Insn, regs: &mut Regs) -> Result<Exec, E::Err> {
    regs.eip = next_eip(insn, regs);
    Ok(Exec::Normal)
}

fn nop<E: Env>(insn: &Insn, regs: &mut Regs, _: &mut E) -> Result<Exec, E::Err> {
    fall_through::<E>(insn, regs)
}

fn mov<Dst: Loc, Src: Loc, W: Width, E: Env>(
    insn: &Insn,
    regs: &mut Regs,
    env: &mut E,
) -> Result<Exec, E::Err> {
    let v = Src::load(&insn.src, W::SIZE, regs, env)?;
    Dst::store(&insn.dst, W::SIZE, v, regs, env)?;
    fall_through::<E>(insn, regs)
}

/// MOVZX / MOVSX: a byte source widened into a dword destination.
fn movx<const SIGNED: bool, Dst: Loc, Src: Loc, E: Env>(
    insn: &Insn,
    regs: &mut Regs,
    env: &mut E,
) -> Result<Exec, E::Err> {
    let v = Src::load(&insn.src, OpSize::Byte, regs, env)?;
    let v = if SIGNED {
        v as u8 as i8 as i32 as u32
    } else {
        v & 0xff
    };
    Dst::store(&insn.dst, OpSize::Dword, v, regs, env)?;
    fall_through::<E>(insn, regs)
}

fn xchg<Dst: Loc, Src: Loc, W: Width, E: Env>(
    insn: &Insn,
    regs: &mut Regs,
    env: &mut E,
) -> Result<Exec, E::Err> {
    let a = Dst::load(&insn.dst, W::SIZE, regs, env)?;
    let b = Src::load(&insn.src, W::SIZE, regs, env)?;
    Dst::store(&insn.dst, W::SIZE, b, regs, env)?;
    Src::store(&insn.src, W::SIZE, a, regs, env)?;
    fall_through::<E>(insn, regs)
}

/// The ALU group; `OP` is the [`AluOp`] number. EFLAGS are committed
/// before the result is stored, so a faulting store leaves them set.
fn alu_op<const OP: u8, Dst: Loc, Src: Loc, W: Width, E: Env>(
    insn: &Insn,
    regs: &mut Regs,
    env: &mut E,
) -> Result<Exec, E::Err> {
    let op = AluOp::from_num(OP);
    let a = Dst::load(&insn.dst, W::SIZE, regs, env)?;
    let b = Src::load(&insn.src, W::SIZE, regs, env)?;
    let (res, fl) = alu(op, a, b, W::SIZE, regs.eflags);
    regs.eflags = fl;
    if op != AluOp::Cmp {
        Dst::store(&insn.dst, W::SIZE, res, regs, env)?;
    }
    fall_through::<E>(insn, regs)
}

fn test<Dst: Loc, Src: Loc, W: Width, E: Env>(
    insn: &Insn,
    regs: &mut Regs,
    env: &mut E,
) -> Result<Exec, E::Err> {
    let a = Dst::load(&insn.dst, W::SIZE, regs, env)?;
    let b = Src::load(&insn.src, W::SIZE, regs, env)?;
    regs.eflags = alu(AluOp::And, a, b, W::SIZE, regs.eflags).1;
    fall_through::<E>(insn, regs)
}

/// What INC (`dec` false) or DEC of `a` leaves: the result and EFLAGS —
/// an add or subtract of 1 that preserves CF. The one statement of
/// their flag semantics: the INC/DEC handlers and the block executor's
/// fused `dec`·`jne` tail both go through it.
#[inline(always)]
pub fn inc_dec_value(dec: bool, a: u32, size: OpSize, eflags: u32) -> (u32, u32) {
    let op = if dec { AluOp::Sub } else { AluOp::Add };
    let (res, fl) = alu(op, a, 1, size, eflags);
    (res, (fl & !flags::CF) | (eflags & flags::CF))
}

/// INC / DEC.
fn inc_dec<const DEC: bool, Dst: Loc, W: Width, E: Env>(
    insn: &Insn,
    regs: &mut Regs,
    env: &mut E,
) -> Result<Exec, E::Err> {
    let a = Dst::load(&insn.dst, W::SIZE, regs, env)?;
    let (res, fl) = inc_dec_value(DEC, a, W::SIZE, regs.eflags);
    regs.eflags = fl;
    Dst::store(&insn.dst, W::SIZE, res, regs, env)?;
    fall_through::<E>(insn, regs)
}

fn neg<Dst: Loc, W: Width, E: Env>(
    insn: &Insn,
    regs: &mut Regs,
    env: &mut E,
) -> Result<Exec, E::Err> {
    let a = Dst::load(&insn.dst, W::SIZE, regs, env)?;
    let (res, fl) = alu(AluOp::Sub, 0, a, W::SIZE, regs.eflags);
    regs.eflags = fl;
    Dst::store(&insn.dst, W::SIZE, res, regs, env)?;
    fall_through::<E>(insn, regs)
}

fn not<Dst: Loc, W: Width, E: Env>(
    insn: &Insn,
    regs: &mut Regs,
    env: &mut E,
) -> Result<Exec, E::Err> {
    let a = Dst::load(&insn.dst, W::SIZE, regs, env)?;
    Dst::store(&insn.dst, W::SIZE, !a, regs, env)?;
    fall_through::<E>(insn, regs)
}

/// Unsigned multiply of the accumulator: EDX:EAX (dword) or AX (byte).
fn mul<Src: Loc, W: Width, E: Env>(
    insn: &Insn,
    regs: &mut Regs,
    env: &mut E,
) -> Result<Exec, E::Err> {
    let a = regs.get(Reg::Eax) as u64;
    let b = Src::load(&insn.src, W::SIZE, regs, env)? as u64;
    let overflow = match W::SIZE {
        OpSize::Dword => {
            let wide = a * b;
            regs.set(Reg::Eax, wide as u32);
            regs.set(Reg::Edx, (wide >> 32) as u32);
            wide >> 32 != 0
        }
        OpSize::Byte => {
            let wide = (a as u8 as u64) * (b as u8 as u64);
            regs.set(
                Reg::Eax,
                (regs.get(Reg::Eax) & !0xffff) | (wide as u32 & 0xffff),
            );
            wide > 0xff
        }
    };
    regs.eflags &= !(flags::CF | flags::OF);
    if overflow {
        regs.eflags |= flags::CF | flags::OF;
    }
    fall_through::<E>(insn, regs)
}

/// Two-operand signed multiply; the product is always 32 × 32.
fn imul2<Dst: Loc, Src: Loc, W: Width, E: Env>(
    insn: &Insn,
    regs: &mut Regs,
    env: &mut E,
) -> Result<Exec, E::Err> {
    let a = Dst::load(&insn.dst, W::SIZE, regs, env)? as i32 as i64;
    let b = Src::load(&insn.src, W::SIZE, regs, env)? as i32 as i64;
    let wide = a * b;
    let res = wide as u32;
    regs.eflags &= !(flags::CF | flags::OF);
    if wide != res as i32 as i64 {
        regs.eflags |= flags::CF | flags::OF;
    }
    Dst::store(&insn.dst, W::SIZE, res, regs, env)?;
    fall_through::<E>(insn, regs)
}

/// Unsigned divide of EDX:EAX (dword) or AX (byte); #DE on a zero
/// divisor or a quotient that does not fit.
fn div<Src: Loc, W: Width, E: Env>(
    insn: &Insn,
    regs: &mut Regs,
    env: &mut E,
) -> Result<Exec, E::Err> {
    let b = Src::load(&insn.src, W::SIZE, regs, env)?;
    match W::SIZE {
        OpSize::Dword => {
            let dividend = ((regs.get(Reg::Edx) as u64) << 32) | regs.get(Reg::Eax) as u64;
            if b == 0 {
                return Err(Fault::Divide.into());
            }
            let q = dividend / b as u64;
            if q > u32::MAX as u64 {
                return Err(Fault::Divide.into());
            }
            regs.set(Reg::Eax, q as u32);
            regs.set(Reg::Edx, (dividend % b as u64) as u32);
        }
        OpSize::Byte => {
            let dividend = regs.get(Reg::Eax) & 0xffff;
            let b = b & 0xff;
            if b == 0 {
                return Err(Fault::Divide.into());
            }
            let q = dividend / b;
            if q > 0xff {
                return Err(Fault::Divide.into());
            }
            let r = dividend % b;
            regs.set(Reg::Eax, (regs.get(Reg::Eax) & !0xffff) | (r << 8) | q);
        }
    }
    fall_through::<E>(insn, regs)
}

/// The shift group; `OP` is the [`ShiftOp`] number. The count is always
/// read as a byte; a zero count (after masking to 5 bits) changes
/// nothing, flags included.
fn shift<const OP: u8, Dst: Loc, Src: Loc, W: Width, E: Env>(
    insn: &Insn,
    regs: &mut Regs,
    env: &mut E,
) -> Result<Exec, E::Err> {
    let size = W::SIZE;
    let a = Dst::load(&insn.dst, size, regs, env)?;
    let n = Src::load(&insn.src, OpSize::Byte, regs, env)? & 31;
    if n != 0 {
        let bits = size.bytes() * 8;
        let (res, cf) = if OP == ShiftOp::Shl as u8 {
            let res = if n >= bits { 0 } else { (a << n) & size.mask() };
            (res, n <= bits && (a >> (bits - n)) & 1 != 0)
        } else if OP == ShiftOp::Shr as u8 {
            let a = a & size.mask();
            let res = if n >= bits { 0 } else { a >> n };
            (res, n <= bits && (a >> (n - 1)) & 1 != 0)
        } else {
            let sa = ((a & size.mask()) as i32) << (32 - bits) >> (32 - bits);
            let res = (sa >> n.min(bits - 1)) as u32 & size.mask();
            (res, (sa >> (n - 1).min(bits - 1)) & 1 != 0)
        };
        regs.eflags = (regs.eflags & !flags::STATUS) | (cf as u32 * flags::CF) | zsf(res, size);
        Dst::store(&insn.dst, size, res, regs, env)?;
    }
    fall_through::<E>(insn, regs)
}

fn lea<Dst: Loc, E: Env>(insn: &Insn, regs: &mut Regs, env: &mut E) -> Result<Exec, E::Err> {
    let Operand::Mem(m) = &insn.src else {
        return Err(Fault::InvalidOpcode.into());
    };
    let a = effective_address(m, regs);
    Dst::store(&insn.dst, OpSize::Dword, a, regs, env)?;
    fall_through::<E>(insn, regs)
}

fn push_op<Src: Loc, E: Env>(insn: &Insn, regs: &mut Regs, env: &mut E) -> Result<Exec, E::Err> {
    let v = Src::load(&insn.src, OpSize::Dword, regs, env)?;
    push(regs, env, v)?;
    fall_through::<E>(insn, regs)
}

/// POP: ESP has already moved when the destination is written.
fn pop_op<Dst: Loc, E: Env>(insn: &Insn, regs: &mut Regs, env: &mut E) -> Result<Exec, E::Err> {
    let v = pop(regs, env)?;
    Dst::store(&insn.dst, OpSize::Dword, v, regs, env)?;
    fall_through::<E>(insn, regs)
}

fn pushf<E: Env>(insn: &Insn, regs: &mut Regs, env: &mut E) -> Result<Exec, E::Err> {
    push(regs, env, regs.eflags | flags::R1)?;
    fall_through::<E>(insn, regs)
}

fn popf<E: Env>(insn: &Insn, regs: &mut Regs, env: &mut E) -> Result<Exec, E::Err> {
    let v = pop(regs, env)?;
    regs.eflags = v | flags::R1;
    fall_through::<E>(insn, regs)
}

fn jmp<Src: Target, E: Env>(insn: &Insn, regs: &mut Regs, env: &mut E) -> Result<Exec, E::Err> {
    regs.eip = Src::target(&insn.src, next_eip(insn, regs), regs, env)?;
    Ok(Exec::Normal)
}

/// Jcc; `COND` is the [`Cond`] number.
fn jcc<const COND: u8, E: Env>(insn: &Insn, regs: &mut Regs, _: &mut E) -> Result<Exec, E::Err> {
    if !cond_holds(Cond::from_num(COND), regs.eflags) {
        return fall_through::<E>(insn, regs);
    }
    let Operand::Imm(rel) = insn.src else {
        return Err(Fault::InvalidOpcode.into());
    };
    regs.eip = next_eip(insn, regs).wrapping_add(rel);
    Ok(Exec::Normal)
}

/// CALL: the target is resolved (and may fault) before the return
/// address is pushed.
fn call<Src: Target, E: Env>(insn: &Insn, regs: &mut Regs, env: &mut E) -> Result<Exec, E::Err> {
    let ret = next_eip(insn, regs);
    let target = Src::target(&insn.src, ret, regs, env)?;
    push(regs, env, ret)?;
    regs.eip = target;
    Ok(Exec::Normal)
}

fn ret<E: Env>(_: &Insn, regs: &mut Regs, env: &mut E) -> Result<Exec, E::Err> {
    regs.eip = pop(regs, env)?;
    Ok(Exec::Normal)
}

fn int<E: Env>(insn: &Insn, regs: &mut Regs, env: &mut E) -> Result<Exec, E::Err> {
    let Op::Int(vec) = insn.op else { wrong_kind() };
    // Advance past the INT before delivery so IRET resumes after it.
    let saved = regs.eip;
    regs.eip = next_eip(insn, regs);
    if let Err(e) = deliver_event(regs, env, vec, None) {
        regs.eip = saved;
        return Err(e);
    }
    Ok(Exec::Normal)
}

fn iret<E: Env>(_: &Insn, regs: &mut Regs, env: &mut E) -> Result<Exec, E::Err> {
    let eip = pop(regs, env)?;
    let _cs = pop(regs, env)?;
    let fl = pop(regs, env)?;
    regs.eip = eip;
    regs.eflags = fl | flags::R1;
    Ok(Exec::Normal)
}

fn hlt<E: Env>(insn: &Insn, regs: &mut Regs, _: &mut E) -> Result<Exec, E::Err> {
    regs.eip = next_eip(insn, regs);
    Ok(Exec::Halt)
}

fn cli<E: Env>(insn: &Insn, regs: &mut Regs, _: &mut E) -> Result<Exec, E::Err> {
    regs.eflags &= !flags::IF;
    fall_through::<E>(insn, regs)
}

fn sti<E: Env>(insn: &Insn, regs: &mut Regs, _: &mut E) -> Result<Exec, E::Err> {
    let was_clear = !regs.if_set();
    regs.eflags |= flags::IF;
    regs.eip = next_eip(insn, regs);
    Ok(if was_clear {
        Exec::StiShadow
    } else {
        Exec::Normal
    })
}

fn cld<E: Env>(insn: &Insn, regs: &mut Regs, _: &mut E) -> Result<Exec, E::Err> {
    regs.eflags &= !flags::DF;
    fall_through::<E>(insn, regs)
}

fn std<E: Env>(insn: &Insn, regs: &mut Regs, _: &mut E) -> Result<Exec, E::Err> {
    regs.eflags |= flags::DF;
    fall_through::<E>(insn, regs)
}

/// The port an IN or OUT names: an immediate or DX.
fn port_of(op: &Operand, regs: &Regs) -> Result<u16, Fault> {
    match op {
        Operand::Imm(p) => Ok(*p as u16),
        Operand::Reg(Reg::Edx) => Ok(regs.get(Reg::Edx) as u16),
        _ => Err(Fault::InvalidOpcode),
    }
}

/// The accumulator at an operand size: AL or EAX.
#[inline(always)]
fn acc(regs: &Regs, size: OpSize) -> u32 {
    match size {
        OpSize::Byte => regs.get8(Reg8::Al) as u32,
        OpSize::Dword => regs.get(Reg::Eax),
    }
}

#[inline(always)]
fn set_acc(regs: &mut Regs, size: OpSize, v: u32) {
    match size {
        OpSize::Byte => regs.set8(Reg8::Al, v as u8),
        OpSize::Dword => regs.set(Reg::Eax, v),
    }
}

fn port_in<E: Env>(insn: &Insn, regs: &mut Regs, env: &mut E) -> Result<Exec, E::Err> {
    let port = port_of(&insn.src, regs)?;
    let v = env.io_in(port, insn.size)?;
    set_acc(regs, insn.size, v);
    fall_through::<E>(insn, regs)
}

fn port_out<E: Env>(insn: &Insn, regs: &mut Regs, env: &mut E) -> Result<Exec, E::Err> {
    let port = port_of(&insn.dst, regs)?;
    env.io_out(port, insn.size, acc(regs, insn.size))?;
    fall_through::<E>(insn, regs)
}

fn cpuid<E: Env>(insn: &Insn, regs: &mut Regs, env: &mut E) -> Result<Exec, E::Err> {
    let r = env.cpuid(regs.get(Reg::Eax));
    regs.set(Reg::Eax, r[0]);
    regs.set(Reg::Ebx, r[1]);
    regs.set(Reg::Ecx, r[2]);
    regs.set(Reg::Edx, r[3]);
    fall_through::<E>(insn, regs)
}

fn rdtsc<E: Env>(insn: &Insn, regs: &mut Regs, env: &mut E) -> Result<Exec, E::Err> {
    let t = env.rdtsc();
    regs.set(Reg::Eax, t as u32);
    regs.set(Reg::Edx, (t >> 32) as u32);
    fall_through::<E>(insn, regs)
}

fn mov_from_cr<E: Env>(insn: &Insn, regs: &mut Regs, env: &mut E) -> Result<Exec, E::Err> {
    let (Operand::Reg(r), Operand::Cr(n)) = (insn.dst, insn.src) else {
        return Err(Fault::InvalidOpcode.into());
    };
    let v = env.read_cr(regs, n)?;
    regs.set(r, v);
    fall_through::<E>(insn, regs)
}

fn mov_to_cr<E: Env>(insn: &Insn, regs: &mut Regs, env: &mut E) -> Result<Exec, E::Err> {
    let (Operand::Cr(n), Operand::Reg(r)) = (insn.dst, insn.src) else {
        return Err(Fault::InvalidOpcode.into());
    };
    let v = regs.get(r);
    env.write_cr(regs, n, v)?;
    fall_through::<E>(insn, regs)
}

fn invlpg<E: Env>(insn: &Insn, regs: &mut Regs, env: &mut E) -> Result<Exec, E::Err> {
    let Operand::Mem(m) = &insn.dst else {
        return Err(Fault::InvalidOpcode.into());
    };
    env.invlpg(effective_address(m, regs))?;
    fall_through::<E>(insn, regs)
}

fn lidt<E: Env>(insn: &Insn, regs: &mut Regs, env: &mut E) -> Result<Exec, E::Err> {
    let Operand::Mem(m) = &insn.dst else {
        return Err(Fault::InvalidOpcode.into());
    };
    let a = effective_address(m, regs);
    let limit = env.read_mem(a, OpSize::Dword)? & 0xffff;
    let base = env.read_mem(a.wrapping_add(2), OpSize::Dword)?;
    regs.idt_limit = limit as u16;
    regs.idt_base = base;
    fall_through::<E>(insn, regs)
}

fn vmcall<E: Env>(insn: &Insn, regs: &mut Regs, env: &mut E) -> Result<Exec, E::Err> {
    env.vmcall(regs)?;
    fall_through::<E>(insn, regs)
}

/// `OP` numbers of [`string`].
const MOVS: u8 = 0;
const STOS: u8 = 1;
const LODS: u8 = 2;

/// MOVS / STOS / LODS, one element per execution. With a REP prefix
/// the instruction is architecturally restartable: while ECX has not
/// run out EIP stays on it ([`Exec::RepContinue`]), so interrupts can
/// be taken between iterations.
fn string<const OP: u8, W: Width, E: Env>(
    insn: &Insn,
    regs: &mut Regs,
    env: &mut E,
) -> Result<Exec, E::Err> {
    if insn.rep && regs.get(Reg::Ecx) == 0 {
        return fall_through::<E>(insn, regs);
    }
    let size = W::SIZE;
    let step = if regs.eflags & flags::DF != 0 {
        (size.bytes() as i32).wrapping_neg() as u32
    } else {
        size.bytes()
    };
    let esi = regs.get(Reg::Esi);
    let edi = regs.get(Reg::Edi);
    match OP {
        MOVS => {
            let v = env.read_mem(esi, size)?;
            env.write_mem(edi, size, v)?;
            regs.set(Reg::Esi, esi.wrapping_add(step));
            regs.set(Reg::Edi, edi.wrapping_add(step));
        }
        STOS => {
            env.write_mem(edi, size, acc(regs, size))?;
            regs.set(Reg::Edi, edi.wrapping_add(step));
        }
        _ => {
            let v = env.read_mem(esi, size)?;
            set_acc(regs, size, v);
            regs.set(Reg::Esi, esi.wrapping_add(step));
        }
    }
    if insn.rep {
        let ecx = regs.get(Reg::Ecx).wrapping_sub(1);
        regs.set(Reg::Ecx, ecx);
        if ecx != 0 {
            return Ok(Exec::RepContinue);
        }
    }
    fall_through::<E>(insn, regs)
}

/// Fills the table entries no [`HandlerId`] names.
fn unassigned<E: Env>(_: &Insn, _: &mut Regs, _: &mut E) -> Result<Exec, E::Err> {
    Err(Fault::InvalidOpcode.into())
}

// ----------------------------------------------------------------------
// Handler selection
// ----------------------------------------------------------------------

/// Runs one decoded instruction: what [`handler`] resolves an [`Insn`]
/// to. The instruction passed must be the one it was resolved from.
pub type Handler<E> = fn(&Insn, &mut Regs, &mut E) -> Result<Exec, <E as Env>::Err>;

/// Names the body, operand accessors and operand size that execute an
/// instruction, independently of the environment: a predecoded-block
/// cache stores it beside the [`Insn`] and turns it into a [`Handler`]
/// for its environment with [`HandlerId::handler`] — one table load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HandlerId(u8);

/// Forms a two-operand body is instantiated for, in table order: five
/// dword forms and the dword catch-all, then the same for bytes.
const TWO_OP_FORMS: u8 = 12;

fn two_op_form(insn: &Insn) -> u8 {
    use Operand::{Imm as I, Mem as M, Reg as R, Reg8 as R8};
    match (insn.size, &insn.dst, &insn.src) {
        (OpSize::Dword, R(_), R(_)) => 0,
        (OpSize::Dword, R(_), I(_)) => 1,
        (OpSize::Dword, R(_), M(_)) => 2,
        (OpSize::Dword, M(_), R(_)) => 3,
        (OpSize::Dword, M(_), I(_)) => 4,
        (OpSize::Dword, ..) => 5,
        (OpSize::Byte, R8(_), R8(_)) => 6,
        (OpSize::Byte, R8(_), I(_)) => 7,
        (OpSize::Byte, R8(_), M(_)) => 8,
        (OpSize::Byte, M(_), R8(_)) => 9,
        (OpSize::Byte, M(_), I(_)) => 10,
        (OpSize::Byte, ..) => 11,
    }
}

/// The instances of a two-operand body, in [`two_op_form`] order.
macro_rules! two_op_row {
    ($body:ident $(, $sel:expr)?) => {
        [
            $body::<$({ $sel },)? R32, R32, D, E>,
            $body::<$({ $sel },)? R32, Imm, D, E>,
            $body::<$({ $sel },)? R32, Mem, D, E>,
            $body::<$({ $sel },)? Mem, R32, D, E>,
            $body::<$({ $sel },)? Mem, Imm, D, E>,
            $body::<$({ $sel },)? Any, Any, D, E>,
            $body::<$({ $sel },)? R8, R8, B, E>,
            $body::<$({ $sel },)? R8, Imm, B, E>,
            $body::<$({ $sel },)? R8, Mem, B, E>,
            $body::<$({ $sel },)? Mem, R8, B, E>,
            $body::<$({ $sel },)? Mem, Imm, B, E>,
            $body::<$({ $sel },)? Any, Any, B, E>,
        ]
    };
}

/// Forms a one-operand body is instantiated for: register, memory and
/// catch-all, dword then byte.
const ONE_OP_FORMS: u8 = 6;

fn one_op_form(size: OpSize, op: &Operand) -> u8 {
    match (size, op) {
        (OpSize::Dword, Operand::Reg(_)) => 0,
        (OpSize::Dword, Operand::Mem(_)) => 1,
        (OpSize::Dword, _) => 2,
        (OpSize::Byte, Operand::Reg8(_)) => 3,
        (OpSize::Byte, Operand::Mem(_)) => 4,
        (OpSize::Byte, _) => 5,
    }
}

/// The instances of a one-operand body, in [`one_op_form`] order.
macro_rules! one_op_row {
    ($body:ident $(, $sel:expr)?) => {
        [
            $body::<$({ $sel },)? R32, D, E>,
            $body::<$({ $sel },)? Mem, D, E>,
            $body::<$({ $sel },)? Any, D, E>,
            $body::<$({ $sel },)? R8, B, E>,
            $body::<$({ $sel },)? Mem, B, E>,
            $body::<$({ $sel },)? Any, B, E>,
        ]
    };
}

/// Forms of a shift: a dword register by an immediate or by CL, and
/// the catch-all at either size.
const SHIFT_FORMS: u8 = 4;

fn shift_form(insn: &Insn) -> u8 {
    match (insn.size, &insn.dst, &insn.src) {
        (OpSize::Dword, Operand::Reg(_), Operand::Imm(_)) => 0,
        (OpSize::Dword, Operand::Reg(_), Operand::Reg8(_)) => 1,
        (OpSize::Dword, ..) => 2,
        (OpSize::Byte, ..) => 3,
    }
}

macro_rules! shift_row {
    ($op:expr) => {
        [
            shift::<{ $op as u8 }, R32, Imm, D, E>,
            shift::<{ $op as u8 }, R32, R8, D, E>,
            shift::<{ $op as u8 }, Any, Any, D, E>,
            shift::<{ $op as u8 }, Any, Any, B, E>,
        ]
    };
}

/// Forms of an instruction with a dword register destination and a
/// register-or-memory source (IMUL, MOVZX, MOVSX); `reg_src` tells
/// whether the source is the register kind the instruction takes.
const REG_RM_FORMS: u8 = 3;

fn reg_rm_form(insn: &Insn, reg_src: bool) -> u8 {
    match (&insn.dst, &insn.src) {
        (Operand::Reg(_), _) if reg_src => 0,
        (Operand::Reg(_), Operand::Mem(_)) => 1,
        _ => 2,
    }
}

/// Forms of a source-only instruction (PUSH, JMP, CALL).
const SRC_FORMS: u8 = 4;

fn src_form(src: &Operand) -> u8 {
    match src {
        Operand::Imm(_) => 0,
        Operand::Reg(_) => 1,
        Operand::Mem(_) => 2,
        _ => 3,
    }
}

/// Where each group of instances starts in the handler table.
mod base {
    use super::{ONE_OP_FORMS, REG_RM_FORMS, SHIFT_FORMS, SRC_FORMS, TWO_OP_FORMS};

    pub const ALU: u8 = 0;
    pub const MOV: u8 = ALU + 8 * TWO_OP_FORMS;
    pub const TEST: u8 = MOV + TWO_OP_FORMS;
    pub const XCHG: u8 = TEST + TWO_OP_FORMS;
    pub const INC: u8 = XCHG + TWO_OP_FORMS;
    pub const DEC: u8 = INC + ONE_OP_FORMS;
    pub const NEG: u8 = DEC + ONE_OP_FORMS;
    pub const NOT: u8 = NEG + ONE_OP_FORMS;
    pub const MUL: u8 = NOT + ONE_OP_FORMS;
    pub const DIV: u8 = MUL + ONE_OP_FORMS;
    pub const JCC: u8 = DIV + ONE_OP_FORMS;
    pub const SHIFT: u8 = JCC + 16;
    pub const IMUL2: u8 = SHIFT + 3 * SHIFT_FORMS;
    pub const MOVZX: u8 = IMUL2 + REG_RM_FORMS + 1;
    pub const MOVSX: u8 = MOVZX + REG_RM_FORMS;
    pub const PUSH: u8 = MOVSX + REG_RM_FORMS;
    pub const JMP: u8 = PUSH + SRC_FORMS;
    pub const CALL: u8 = JMP + SRC_FORMS;
    /// LEA and POP: a dword register destination, or the catch-all.
    pub const LEA: u8 = CALL + SRC_FORMS;
    pub const POP: u8 = LEA + 2;
    /// MOVS, STOS, LODS: dword then byte.
    pub const STRING: u8 = POP + 2;
    /// One instance each: see `Single`.
    pub const SINGLE: u8 = STRING + 3 * 2;
}

/// The bodies with one instance each, numbered from [`base::SINGLE`].
#[derive(Clone, Copy)]
#[repr(u8)]
enum Single {
    Nop,
    Pushf,
    Popf,
    Ret,
    Int,
    Iret,
    Hlt,
    Cli,
    Sti,
    Cld,
    Std,
    In,
    Out,
    Cpuid,
    Rdtsc,
    MovFromCr,
    MovToCr,
    Invlpg,
    Lidt,
    Vmcall,
}

impl Single {
    const COUNT: usize = Single::Vmcall as usize + 1;

    const fn id(self) -> u8 {
        base::SINGLE + self as u8
    }
}

// The table is indexed by a `u8` without a bounds check.
const _: () = assert!(base::SINGLE as usize + Single::COUNT <= 256);

/// Resolves an instruction to the instance that executes it. Total:
/// an operand combination [`crate::decode::decode`] never produces gets
/// the catch-all instance of its body, which sorts the operands out as
/// it runs.
pub fn handler_id(insn: &Insn) -> HandlerId {
    // LEA and POP: 0 for a dword register destination, 1 for the
    // catch-all.
    let dst_form = !matches!(insn.dst, Operand::Reg(_)) as u8;
    let by_size = |dword: u8| match insn.size {
        OpSize::Dword => dword,
        OpSize::Byte => dword + 1,
    };
    HandlerId(match insn.op {
        Op::Alu(op) => base::ALU + op as u8 * TWO_OP_FORMS + two_op_form(insn),
        Op::Mov => base::MOV + two_op_form(insn),
        Op::Test => base::TEST + two_op_form(insn),
        Op::Xchg => base::XCHG + two_op_form(insn),
        Op::Inc => base::INC + one_op_form(insn.size, &insn.dst),
        Op::Dec => base::DEC + one_op_form(insn.size, &insn.dst),
        Op::Neg => base::NEG + one_op_form(insn.size, &insn.dst),
        Op::Not => base::NOT + one_op_form(insn.size, &insn.dst),
        Op::Mul => base::MUL + one_op_form(insn.size, &insn.src),
        Op::Div => base::DIV + one_op_form(insn.size, &insn.src),
        Op::Jcc(c) => base::JCC + c as u8,
        Op::Shift(op) => base::SHIFT + op as u8 * SHIFT_FORMS + shift_form(insn),
        // IMUL's operands follow `insn.size`; only the dword forms
        // (all that decode) have instances of their own.
        Op::Imul2 if insn.size == OpSize::Byte => base::IMUL2 + REG_RM_FORMS,
        Op::Imul2 => base::IMUL2 + reg_rm_form(insn, matches!(insn.src, Operand::Reg(_))),
        Op::Movzx => base::MOVZX + reg_rm_form(insn, matches!(insn.src, Operand::Reg8(_))),
        Op::Movsx => base::MOVSX + reg_rm_form(insn, matches!(insn.src, Operand::Reg8(_))),
        Op::Push => base::PUSH + src_form(&insn.src),
        Op::Jmp => base::JMP + src_form(&insn.src),
        Op::Call => base::CALL + src_form(&insn.src),
        Op::Lea => base::LEA + dst_form,
        Op::Pop => base::POP + dst_form,
        Op::Movs => base::STRING + by_size(0),
        Op::Stos => base::STRING + by_size(2),
        Op::Lods => base::STRING + by_size(4),
        Op::Nop => Single::Nop.id(),
        Op::Pushf => Single::Pushf.id(),
        Op::Popf => Single::Popf.id(),
        Op::Ret => Single::Ret.id(),
        Op::Int(_) => Single::Int.id(),
        Op::Iret => Single::Iret.id(),
        Op::Hlt => Single::Hlt.id(),
        Op::Cli => Single::Cli.id(),
        Op::Sti => Single::Sti.id(),
        Op::Cld => Single::Cld.id(),
        Op::Std => Single::Std.id(),
        Op::In => Single::In.id(),
        Op::Out => Single::Out.id(),
        Op::Cpuid => Single::Cpuid.id(),
        Op::Rdtsc => Single::Rdtsc.id(),
        Op::MovFromCr => Single::MovFromCr.id(),
        Op::MovToCr => Single::MovToCr.id(),
        Op::Invlpg => Single::Invlpg.id(),
        Op::Lidt => Single::Lidt.id(),
        Op::Vmcall => Single::Vmcall.id(),
    })
}

/// The handler table of one environment type.
struct Table<E>(core::marker::PhantomData<E>);

impl<E: Env> Table<E> {
    /// Every instance, at the index its [`HandlerId`] holds. Built at
    /// compile time, per environment type.
    const HANDLERS: [Handler<E>; 256] = {
        const fn put<E: Env, const N: usize>(
            table: &mut [Handler<E>; 256],
            at: u8,
            row: [Handler<E>; N],
        ) {
            let mut i = 0;
            while i < N {
                table[at as usize + i] = row[i];
                i += 1;
            }
        }
        let mut t: [Handler<E>; 256] = [unassigned::<E>; 256];
        macro_rules! alu_rows {
            ($($op:ident),*) => {
                $(put(
                    &mut t,
                    base::ALU + TWO_OP_FORMS * AluOp::$op as u8,
                    two_op_row!(alu_op, AluOp::$op as u8),
                );)*
            };
        }
        alu_rows!(Add, Or, Adc, Sbb, And, Sub, Xor, Cmp);
        put(&mut t, base::MOV, two_op_row!(mov));
        put(&mut t, base::TEST, two_op_row!(test));
        put(&mut t, base::XCHG, two_op_row!(xchg));
        put(&mut t, base::INC, one_op_row!(inc_dec, false));
        put(&mut t, base::DEC, one_op_row!(inc_dec, true));
        put(&mut t, base::NEG, one_op_row!(neg));
        put(&mut t, base::NOT, one_op_row!(not));
        put(&mut t, base::MUL, one_op_row!(mul));
        put(&mut t, base::DIV, one_op_row!(div));
        put(
            &mut t,
            base::JCC,
            [
                jcc::<0, E>,
                jcc::<1, E>,
                jcc::<2, E>,
                jcc::<3, E>,
                jcc::<4, E>,
                jcc::<5, E>,
                jcc::<6, E>,
                jcc::<7, E>,
                jcc::<8, E>,
                jcc::<9, E>,
                jcc::<10, E>,
                jcc::<11, E>,
                jcc::<12, E>,
                jcc::<13, E>,
                jcc::<14, E>,
                jcc::<15, E>,
            ],
        );
        macro_rules! shift_rows {
            ($($op:ident),*) => {
                $(put(
                    &mut t,
                    base::SHIFT + SHIFT_FORMS * ShiftOp::$op as u8,
                    shift_row!(ShiftOp::$op),
                );)*
            };
        }
        shift_rows!(Shl, Shr, Sar);
        put(
            &mut t,
            base::IMUL2,
            [
                imul2::<R32, R32, D, E>,
                imul2::<R32, Mem, D, E>,
                imul2::<Any, Any, D, E>,
                imul2::<Any, Any, B, E>,
            ],
        );
        put(
            &mut t,
            base::MOVZX,
            [
                movx::<false, R32, R8, E>,
                movx::<false, R32, Mem, E>,
                movx::<false, Any, Any, E>,
            ],
        );
        put(
            &mut t,
            base::MOVSX,
            [
                movx::<true, R32, R8, E>,
                movx::<true, R32, Mem, E>,
                movx::<true, Any, Any, E>,
            ],
        );
        put(
            &mut t,
            base::PUSH,
            [
                push_op::<Imm, E>,
                push_op::<R32, E>,
                push_op::<Mem, E>,
                push_op::<Any, E>,
            ],
        );
        put(
            &mut t,
            base::JMP,
            [jmp::<Imm, E>, jmp::<R32, E>, jmp::<Mem, E>, jmp::<Any, E>],
        );
        put(
            &mut t,
            base::CALL,
            [
                call::<Imm, E>,
                call::<R32, E>,
                call::<Mem, E>,
                call::<Any, E>,
            ],
        );
        put(&mut t, base::LEA, [lea::<R32, E>, lea::<Any, E>]);
        put(&mut t, base::POP, [pop_op::<R32, E>, pop_op::<Any, E>]);
        put(
            &mut t,
            base::STRING,
            [
                string::<MOVS, D, E>,
                string::<MOVS, B, E>,
                string::<STOS, D, E>,
                string::<STOS, B, E>,
                string::<LODS, D, E>,
                string::<LODS, B, E>,
            ],
        );
        macro_rules! single {
            ($($id:ident => $body:ident),* $(,)?) => {
                $(t[Single::$id.id() as usize] = $body::<E>;)*
            };
        }
        single! {
            Nop => nop,
            Pushf => pushf,
            Popf => popf,
            Ret => ret,
            Int => int,
            Iret => iret,
            Hlt => hlt,
            Cli => cli,
            Sti => sti,
            Cld => cld,
            Std => std,
            In => port_in,
            Out => port_out,
            Cpuid => cpuid,
            Rdtsc => rdtsc,
            MovFromCr => mov_from_cr,
            MovToCr => mov_to_cr,
            Invlpg => invlpg,
            Lidt => lidt,
            Vmcall => vmcall,
        }
        t
    };
}

impl HandlerId {
    /// The instance this id names, for environment `E`.
    #[inline(always)]
    pub fn handler<E: Env>(self) -> Handler<E> {
        let table: &[Handler<E>; 256] = &Table::<E>::HANDLERS;
        table[self.0 as usize]
    }
}

/// Resolves `insn` to the handler that runs it in environment `E`.
#[inline]
pub fn handler<E: Env>(insn: &Insn) -> Handler<E> {
    handler_id(insn).handler()
}

/// Executes one decoded instruction against `regs` and `env`: the
/// one-shot form of `handler(insn)(insn, regs, env)`, for callers that
/// run an instruction once and have nowhere to keep its handler.
///
/// On success EIP points at the next instruction (or at the same
/// instruction for [`Exec::RepContinue`]). On error the register state
/// reflects the partially executed instruction the way real hardware
/// leaves it for restartable faults: EIP is unchanged.
///
/// # Errors
///
/// Environment errors (which include architectural faults via the
/// `From<Fault>` bound) abort the instruction.
#[inline]
pub fn execute<E: Env>(insn: &Insn, regs: &mut Regs, env: &mut E) -> Result<Exec, E::Err> {
    handler::<E>(insn)(insn, regs, env)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::decode;
    use std::collections::HashMap;

    /// A flat test environment: sparse byte-addressable memory, recorded
    /// port I/O, fixed CPUID.
    #[derive(Default)]
    struct Flat {
        mem: HashMap<u32, u8>,
        io_log: Vec<(u16, u32)>,
        io_in_val: u32,
    }

    impl Env for Flat {
        type Err = Fault;

        fn read_mem(&mut self, addr: u32, size: OpSize) -> Result<u32, Fault> {
            let mut v = 0u32;
            for i in 0..size.bytes() {
                v |= (*self.mem.get(&addr.wrapping_add(i)).unwrap_or(&0) as u32) << (8 * i);
            }
            Ok(v)
        }

        fn write_mem(&mut self, addr: u32, size: OpSize, val: u32) -> Result<(), Fault> {
            for i in 0..size.bytes() {
                self.mem
                    .insert(addr.wrapping_add(i), (val >> (8 * i)) as u8);
            }
            Ok(())
        }

        fn io_in(&mut self, _port: u16, _size: OpSize) -> Result<u32, Fault> {
            Ok(self.io_in_val)
        }

        fn io_out(&mut self, port: u16, _size: OpSize, val: u32) -> Result<(), Fault> {
            self.io_log.push((port, val));
            Ok(())
        }

        fn cpuid(&mut self, leaf: u32) -> [u32; 4] {
            [leaf, 0x756e_6547, 0x6c65_746e, 0x4965_6e69]
        }

        fn rdtsc(&mut self) -> u64 {
            0x1234_5678_9abc_def0
        }
    }

    fn run(bytes: &[u8], regs: &mut Regs, env: &mut Flat) -> Exec {
        let insn = decode(bytes).expect("decode");
        execute(&insn, regs, env).expect("execute")
    }

    #[test]
    fn mov_imm_and_alu() {
        let mut regs = Regs::default();
        let mut env = Flat::default();
        run(&[0xb8, 0x05, 0, 0, 0], &mut regs, &mut env); // mov eax, 5
        run(&[0x83, 0xc0, 0x03], &mut regs, &mut env); // add eax, 3
        assert_eq!(regs.get(Reg::Eax), 8);
        assert_eq!(regs.eflags & flags::ZF, 0);
        run(&[0x83, 0xe8, 0x08], &mut regs, &mut env); // sub eax, 8
        assert_eq!(regs.get(Reg::Eax), 0);
        assert_ne!(regs.eflags & flags::ZF, 0);
    }

    #[test]
    fn add_carry_and_overflow() {
        let mut regs = Regs::default();
        let mut env = Flat::default();
        regs.set(Reg::Eax, 0xffff_ffff);
        run(&[0x83, 0xc0, 0x01], &mut regs, &mut env); // add eax, 1
        assert_eq!(regs.get(Reg::Eax), 0);
        assert_ne!(regs.eflags & flags::CF, 0);
        assert_eq!(regs.eflags & flags::OF, 0);

        regs.set(Reg::Eax, 0x7fff_ffff);
        run(&[0x83, 0xc0, 0x01], &mut regs, &mut env);
        assert_ne!(regs.eflags & flags::OF, 0);
        assert_eq!(regs.eflags & flags::CF, 0);
    }

    #[test]
    fn sub_borrow() {
        let mut regs = Regs::default();
        let mut env = Flat::default();
        regs.set(Reg::Ecx, 1);
        run(&[0x83, 0xe9, 0x02], &mut regs, &mut env); // sub ecx, 2
        assert_eq!(regs.get(Reg::Ecx), 0xffff_ffff);
        assert_ne!(regs.eflags & flags::CF, 0);
        assert_ne!(regs.eflags & flags::SF, 0);
    }

    #[test]
    fn memory_via_modrm() {
        let mut regs = Regs::default();
        let mut env = Flat::default();
        regs.set(Reg::Ebx, 0x1000);
        regs.set(Reg::Eax, 0xcafe_babe);
        run(&[0x89, 0x43, 0x10], &mut regs, &mut env); // mov [ebx+0x10], eax
        assert_eq!(env.read_mem(0x1010, OpSize::Dword).unwrap(), 0xcafe_babe);
        run(&[0x8b, 0x4b, 0x10], &mut regs, &mut env); // mov ecx, [ebx+0x10]
        assert_eq!(regs.get(Reg::Ecx), 0xcafe_babe);
    }

    #[test]
    fn push_pop_stack_discipline() {
        let mut regs = Regs::default();
        let mut env = Flat::default();
        regs.set(Reg::Esp, 0x8000);
        regs.set(Reg::Eax, 42);
        run(&[0x50], &mut regs, &mut env); // push eax
        assert_eq!(regs.get(Reg::Esp), 0x7ffc);
        run(&[0x5b], &mut regs, &mut env); // pop ebx
        assert_eq!(regs.get(Reg::Ebx), 42);
        assert_eq!(regs.get(Reg::Esp), 0x8000);
    }

    #[test]
    fn call_ret_roundtrip() {
        let mut regs = Regs::default();
        let mut env = Flat::default();
        regs.set(Reg::Esp, 0x8000);
        regs.eip = 0x100;
        run(&[0xe8, 0x10, 0, 0, 0], &mut regs, &mut env); // call +0x10
        assert_eq!(regs.eip, 0x115);
        run(&[0xc3], &mut regs, &mut env); // ret
        assert_eq!(regs.eip, 0x105);
        assert_eq!(regs.get(Reg::Esp), 0x8000);
    }

    #[test]
    fn conditional_jump() {
        let mut regs = Regs::default();
        let mut env = Flat::default();
        regs.eip = 0x200;
        regs.set(Reg::Eax, 5);
        run(&[0x83, 0xf8, 0x05], &mut regs, &mut env); // cmp eax, 5
        let eip = regs.eip;
        run(&[0x74, 0x10], &mut regs, &mut env); // je +0x10
        assert_eq!(regs.eip, eip + 2 + 0x10);
        run(&[0x75, 0x10], &mut regs, &mut env); // jne +0x10 (not taken)
        assert_eq!(regs.eip, eip + 2 + 0x10 + 2);
    }

    #[test]
    fn signed_conditions() {
        let mut regs = Regs::default();
        let mut env = Flat::default();
        regs.set(Reg::Eax, (-5i32) as u32);
        run(&[0x83, 0xf8, 0x03], &mut regs, &mut env); // cmp eax, 3
        assert!(cond_holds(Cond::L, regs.eflags));
        assert!(!cond_holds(Cond::G, regs.eflags));
        assert!(cond_holds(Cond::Ne, regs.eflags));
        // Unsigned: 0xfffffffb > 3.
        assert!(cond_holds(Cond::A, regs.eflags));
    }

    #[test]
    fn rep_stosd_fills_and_is_restartable() {
        let mut regs = Regs::default();
        let mut env = Flat::default();
        regs.set(Reg::Edi, 0x3000);
        regs.set(Reg::Ecx, 3);
        regs.set(Reg::Eax, 0x11111111);
        let insn = decode(&[0xf3, 0xab]).unwrap();
        assert_eq!(
            execute(&insn, &mut regs, &mut env).unwrap(),
            Exec::RepContinue
        );
        assert_eq!(
            execute(&insn, &mut regs, &mut env).unwrap(),
            Exec::RepContinue
        );
        assert_eq!(execute(&insn, &mut regs, &mut env).unwrap(), Exec::Normal);
        for i in 0..3 {
            assert_eq!(
                env.read_mem(0x3000 + i * 4, OpSize::Dword).unwrap(),
                0x11111111
            );
        }
        assert_eq!(regs.get(Reg::Ecx), 0);
        assert_eq!(regs.get(Reg::Edi), 0x300c);
    }

    #[test]
    fn rep_with_zero_count_is_nop() {
        let mut regs = Regs::default();
        let mut env = Flat::default();
        regs.set(Reg::Ecx, 0);
        regs.set(Reg::Edi, 0x3000);
        let insn = decode(&[0xf3, 0xab]).unwrap();
        assert_eq!(execute(&insn, &mut regs, &mut env).unwrap(), Exec::Normal);
        assert_eq!(env.read_mem(0x3000, OpSize::Dword).unwrap(), 0);
    }

    #[test]
    fn movs_copies() {
        let mut regs = Regs::default();
        let mut env = Flat::default();
        env.write_mem(0x100, OpSize::Dword, 0xaabbccdd).unwrap();
        regs.set(Reg::Esi, 0x100);
        regs.set(Reg::Edi, 0x200);
        run(&[0xa5], &mut regs, &mut env); // movsd
        assert_eq!(env.read_mem(0x200, OpSize::Dword).unwrap(), 0xaabbccdd);
        assert_eq!(regs.get(Reg::Esi), 0x104);
    }

    #[test]
    fn interrupt_frame_roundtrip() {
        let mut regs = Regs::default();
        let mut env = Flat::default();
        // IDT at 0x5000, vector 0x21 handler at 0x1234_5678.
        regs.idt_base = 0x5000;
        regs.idt_limit = 0x7ff;
        let off = 0x5000 + 0x21 * 8;
        env.write_mem(off, OpSize::Dword, 0x0008_5678).unwrap();
        env.write_mem(off + 4, OpSize::Dword, 0x1234_0000).unwrap();
        regs.set(Reg::Esp, 0x8000);
        regs.eip = 0x400;
        regs.eflags |= flags::IF;

        run(&[0xcd, 0x21], &mut regs, &mut env); // int 0x21
        assert_eq!(regs.eip, 0x1234_5678);
        assert!(!regs.if_set(), "IF cleared during delivery");
        assert_eq!(regs.get(Reg::Esp), 0x8000 - 12);

        run(&[0xcf], &mut regs, &mut env); // iret
        assert_eq!(regs.eip, 0x402, "resumes after INT");
        assert!(regs.if_set(), "IF restored by IRET");
        assert_eq!(regs.get(Reg::Esp), 0x8000);
    }

    #[test]
    fn page_fault_error_codes() {
        let f = Fault::Page {
            addr: 0x1000,
            write: true,
            fetch: false,
            present: false,
        };
        assert_eq!(f.vector(), 14);
        assert_eq!(f.error_code(), Some(crate::reg::pf_err::WRITE));
        let f = Fault::Page {
            addr: 0,
            write: false,
            fetch: true,
            present: true,
        };
        assert_eq!(
            f.error_code(),
            Some(crate::reg::pf_err::PRESENT | crate::reg::pf_err::FETCH)
        );
    }

    #[test]
    fn divide_error() {
        let mut regs = Regs::default();
        let mut env = Flat::default();
        regs.set(Reg::Eax, 100);
        regs.set(Reg::Edx, 0);
        regs.set(Reg::Ebx, 0);
        let insn = decode(&[0xf7, 0xf3]).unwrap(); // div ebx
        assert_eq!(execute(&insn, &mut regs, &mut env), Err(Fault::Divide));
        // Quotient overflow also faults.
        regs.set(Reg::Edx, 5);
        regs.set(Reg::Ebx, 1);
        assert_eq!(execute(&insn, &mut regs, &mut env), Err(Fault::Divide));
    }

    #[test]
    fn div_quotient_remainder() {
        let mut regs = Regs::default();
        let mut env = Flat::default();
        regs.set(Reg::Eax, 17);
        regs.set(Reg::Edx, 0);
        regs.set(Reg::Ecx, 5);
        run(&[0xf7, 0xf1], &mut regs, &mut env); // div ecx
        assert_eq!(regs.get(Reg::Eax), 3);
        assert_eq!(regs.get(Reg::Edx), 2);
    }

    #[test]
    fn mul_wide() {
        let mut regs = Regs::default();
        let mut env = Flat::default();
        regs.set(Reg::Eax, 0x8000_0000);
        regs.set(Reg::Ebx, 4);
        run(&[0xf7, 0xe3], &mut regs, &mut env); // mul ebx
        assert_eq!(regs.get(Reg::Eax), 0);
        assert_eq!(regs.get(Reg::Edx), 2);
        assert_ne!(regs.eflags & flags::CF, 0);
    }

    #[test]
    fn hlt_sti_cli() {
        let mut regs = Regs::default();
        let mut env = Flat::default();
        assert_eq!(run(&[0xfb], &mut regs, &mut env), Exec::StiShadow); // sti
        assert!(regs.if_set());
        assert_eq!(run(&[0xfb], &mut regs, &mut env), Exec::Normal); // sti again
        run(&[0xfa], &mut regs, &mut env); // cli
        assert!(!regs.if_set());
        assert_eq!(run(&[0xf4], &mut regs, &mut env), Exec::Halt); // hlt
    }

    #[test]
    fn port_io() {
        let mut regs = Regs::default();
        let mut env = Flat {
            io_in_val: 0xab,
            ..Flat::default()
        };
        run(&[0xe4, 0x60], &mut regs, &mut env); // in al, 0x60
        assert_eq!(regs.get8(Reg8::Al), 0xab);
        regs.set(Reg::Edx, 0x3f8);
        regs.set8(Reg8::Al, 0x41);
        run(&[0xee], &mut regs, &mut env); // out dx, al
        assert_eq!(env.io_log, vec![(0x3f8, 0x41)]);
    }

    #[test]
    fn cpuid_rdtsc() {
        let mut regs = Regs::default();
        let mut env = Flat::default();
        regs.set(Reg::Eax, 1);
        run(&[0x0f, 0xa2], &mut regs, &mut env);
        assert_eq!(regs.get(Reg::Eax), 1);
        assert_eq!(regs.get(Reg::Ebx), 0x756e_6547);
        run(&[0x0f, 0x31], &mut regs, &mut env);
        assert_eq!(regs.get(Reg::Eax), 0x9abc_def0);
        assert_eq!(regs.get(Reg::Edx), 0x1234_5678);
    }

    #[test]
    fn cr_moves_and_lidt() {
        let mut regs = Regs::default();
        let mut env = Flat::default();
        regs.set(Reg::Eax, 0x9000);
        run(&[0x0f, 0x22, 0xd8], &mut regs, &mut env); // mov cr3, eax
        assert_eq!(regs.cr3, 0x9000);
        run(&[0x0f, 0x20, 0xd9], &mut regs, &mut env); // mov ecx, cr3
        assert_eq!(regs.get(Reg::Ecx), 0x9000);

        // lidt [0x7000] with limit 0x7ff, base 0x5000.
        env.write_mem(0x7000, OpSize::Dword, 0x5000_07ff & 0xffff)
            .unwrap();
        env.write_mem(0x7002, OpSize::Dword, 0x5000).unwrap();
        run(
            &[0x0f, 0x01, 0x1d, 0x00, 0x70, 0x00, 0x00],
            &mut regs,
            &mut env,
        );
        assert_eq!(regs.idt_limit, 0x7ff);
        assert_eq!(regs.idt_base, 0x5000);
    }

    #[test]
    fn shifts_semantics() {
        let mut regs = Regs::default();
        let mut env = Flat::default();
        regs.set(Reg::Eax, 0x8000_0001);
        run(&[0xc1, 0xe0, 0x01], &mut regs, &mut env); // shl eax, 1
        assert_eq!(regs.get(Reg::Eax), 2);
        assert_ne!(regs.eflags & flags::CF, 0);
        regs.set(Reg::Eax, 0x8000_0000);
        run(&[0xd1, 0xf8], &mut regs, &mut env); // sar eax, 1
        assert_eq!(regs.get(Reg::Eax), 0xc000_0000);
        regs.set(Reg::Eax, 0x10);
        regs.set8(Reg8::Cl, 4);
        run(&[0xd3, 0xe8], &mut regs, &mut env); // shr eax, cl
        assert_eq!(regs.get(Reg::Eax), 1);
    }

    #[test]
    fn inc_preserves_carry() {
        let mut regs = Regs {
            eflags: flags::R1 | flags::CF,
            ..Regs::default()
        };
        let mut env = Flat::default();
        regs.set(Reg::Eax, 7);
        run(&[0x40], &mut regs, &mut env); // inc eax
        assert_eq!(regs.get(Reg::Eax), 8);
        assert_ne!(regs.eflags & flags::CF, 0, "INC preserves CF");
    }

    #[test]
    fn vmcall_faults_without_hypervisor() {
        let mut regs = Regs::default();
        let mut env = Flat::default();
        let insn = decode(&[0x0f, 0x01, 0xc1]).unwrap();
        assert_eq!(
            execute(&insn, &mut regs, &mut env),
            Err(Fault::InvalidOpcode)
        );
    }
}
