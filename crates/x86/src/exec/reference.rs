//! The executor the staged handlers replaced, kept as the referee.
//!
//! Everything below the imports is the pre-staging `exec.rs` verbatim:
//! one `execute` that matches on [`Op`], then on each [`Operand`], then
//! on the size, with its own copies of the helpers (`alu`, `push`,
//! `pop`, `cond_holds`, …) so that a mistake in the live ones cannot
//! hide here too. The differential test in [`super::tests`] drives
//! both over seeded random instructions, register files and memories
//! and compares results, registers, memory and the ordered list of
//! environment calls.
#![cfg(test)]
#![allow(missing_docs)]

use super::{Env, Exec, Fault};
use crate::insn::{AluOp, Cond, Insn, MemRef, Op, OpSize, Operand, ShiftOp};
use crate::reg::{flags, Reg, Reg8, Regs};

/// Evaluates a condition code against EFLAGS.
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

fn read_operand<E: Env>(
    op: &Operand,
    size: OpSize,
    regs: &Regs,
    env: &mut E,
) -> Result<u32, E::Err> {
    match op {
        Operand::Reg(r) => Ok(regs.get(*r)),
        Operand::Reg8(r) => Ok(regs.get8(*r) as u32),
        Operand::Imm(v) => Ok(*v),
        Operand::Mem(m) => env.read_mem(effective_address(m, regs), size),
        Operand::Cr(_) | Operand::None => Err(Fault::InvalidOpcode.into()),
    }
}

fn write_operand<E: Env>(
    op: &Operand,
    size: OpSize,
    val: u32,
    regs: &mut Regs,
    env: &mut E,
) -> Result<(), E::Err> {
    match op {
        Operand::Reg(r) => {
            regs.set(*r, val);
            Ok(())
        }
        Operand::Reg8(r) => {
            regs.set8(*r, val as u8);
            Ok(())
        }
        Operand::Mem(m) => env.write_mem(effective_address(m, regs), size, val),
        _ => Err(Fault::InvalidOpcode.into()),
    }
}

fn set_zsf(eflags: &mut u32, res: u32, size: OpSize) {
    *eflags &= !(flags::ZF | flags::SF);
    if res & size.mask() == 0 {
        *eflags |= flags::ZF;
    }
    if res & size.sign_bit() != 0 {
        *eflags |= flags::SF;
    }
}

fn alu(op: AluOp, a: u32, b: u32, size: OpSize, eflags: &mut u32) -> u32 {
    let mask = size.mask();
    let sign = size.sign_bit();
    let a = a & mask;
    let b = b & mask;
    let cin = (*eflags & flags::CF != 0) as u32;
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
    *eflags &= !(flags::CF | flags::OF);
    if cf {
        *eflags |= flags::CF;
    }
    if of {
        *eflags |= flags::OF;
    }
    set_zsf(eflags, res, size);
    res
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

fn push<E: Env>(regs: &mut Regs, env: &mut E, val: u32) -> Result<(), E::Err> {
    let esp = regs.get(Reg::Esp).wrapping_sub(4);
    env.write_mem(esp, OpSize::Dword, val)?;
    regs.set(Reg::Esp, esp);
    Ok(())
}

fn pop<E: Env>(regs: &mut Regs, env: &mut E) -> Result<u32, E::Err> {
    let esp = regs.get(Reg::Esp);
    let v = env.read_mem(esp, OpSize::Dword)?;
    regs.set(Reg::Esp, esp.wrapping_add(4));
    Ok(v)
}

/// Executes one decoded instruction against `regs` and `env`.
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
pub fn execute<E: Env>(insn: &Insn, regs: &mut Regs, env: &mut E) -> Result<Exec, E::Err> {
    let next_eip = regs.eip.wrapping_add(insn.len as u32);
    let size = insn.size;

    match insn.op {
        Op::Nop => {}
        Op::Mov => {
            let v = read_operand(&insn.src, size, regs, env)?;
            write_operand(&insn.dst, size, v, regs, env)?;
        }
        Op::Movzx => {
            let v = read_operand(&insn.src, OpSize::Byte, regs, env)?;
            write_operand(&insn.dst, OpSize::Dword, v & 0xff, regs, env)?;
        }
        Op::Movsx => {
            let v = read_operand(&insn.src, OpSize::Byte, regs, env)?;
            write_operand(
                &insn.dst,
                OpSize::Dword,
                v as u8 as i8 as i32 as u32,
                regs,
                env,
            )?;
        }
        Op::Xchg => {
            let a = read_operand(&insn.dst, size, regs, env)?;
            let b = read_operand(&insn.src, size, regs, env)?;
            write_operand(&insn.dst, size, b, regs, env)?;
            write_operand(&insn.src, size, a, regs, env)?;
        }
        Op::Alu(op) => {
            let a = read_operand(&insn.dst, size, regs, env)?;
            let b = read_operand(&insn.src, size, regs, env)?;
            let mut fl = regs.eflags;
            let res = alu(op, a, b, size, &mut fl);
            regs.eflags = fl;
            if op != AluOp::Cmp {
                write_operand(&insn.dst, size, res, regs, env)?;
            }
        }
        Op::Test => {
            let a = read_operand(&insn.dst, size, regs, env)?;
            let b = read_operand(&insn.src, size, regs, env)?;
            let mut fl = regs.eflags;
            alu(AluOp::And, a, b, size, &mut fl);
            regs.eflags = fl;
        }
        Op::Inc | Op::Dec => {
            let a = read_operand(&insn.dst, size, regs, env)?;
            let cf = regs.eflags & flags::CF; // INC/DEC preserve CF
            let mut fl = regs.eflags;
            let res = alu(
                if insn.op == Op::Inc {
                    AluOp::Add
                } else {
                    AluOp::Sub
                },
                a,
                1,
                size,
                &mut fl,
            );
            regs.eflags = (fl & !flags::CF) | cf;
            write_operand(&insn.dst, size, res, regs, env)?;
        }
        Op::Neg => {
            let a = read_operand(&insn.dst, size, regs, env)?;
            let mut fl = regs.eflags;
            let res = alu(AluOp::Sub, 0, a, size, &mut fl);
            regs.eflags = fl;
            write_operand(&insn.dst, size, res, regs, env)?;
        }
        Op::Not => {
            let a = read_operand(&insn.dst, size, regs, env)?;
            write_operand(&insn.dst, size, !a, regs, env)?;
        }
        Op::Mul => {
            let a = regs.get(Reg::Eax) as u64;
            let b = read_operand(&insn.src, size, regs, env)? as u64;
            match size {
                OpSize::Dword => {
                    let wide = a * b;
                    regs.set(Reg::Eax, wide as u32);
                    regs.set(Reg::Edx, (wide >> 32) as u32);
                    let hi = (wide >> 32) as u32;
                    regs.eflags &= !(flags::CF | flags::OF);
                    if hi != 0 {
                        regs.eflags |= flags::CF | flags::OF;
                    }
                }
                OpSize::Byte => {
                    let wide = (a as u8 as u64) * (b as u8 as u64);
                    regs.set(
                        Reg::Eax,
                        (regs.get(Reg::Eax) & !0xffff) | (wide as u32 & 0xffff),
                    );
                    regs.eflags &= !(flags::CF | flags::OF);
                    if wide > 0xff {
                        regs.eflags |= flags::CF | flags::OF;
                    }
                }
            }
        }
        Op::Imul2 => {
            let a = read_operand(&insn.dst, size, regs, env)? as i32 as i64;
            let b = read_operand(&insn.src, size, regs, env)? as i32 as i64;
            let wide = a * b;
            let res = wide as u32;
            regs.eflags &= !(flags::CF | flags::OF);
            if wide != res as i32 as i64 {
                regs.eflags |= flags::CF | flags::OF;
            }
            write_operand(&insn.dst, size, res, regs, env)?;
        }
        Op::Div => {
            let b = read_operand(&insn.src, size, regs, env)?;
            match size {
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
        }
        Op::Shift(op) => {
            let a = read_operand(&insn.dst, size, regs, env)?;
            let n = read_operand(&insn.src, OpSize::Byte, regs, env)? & 31;
            if n != 0 {
                let bits = size.bytes() * 8;
                let (res, cf) = match op {
                    ShiftOp::Shl => {
                        let res = if n >= bits { 0 } else { (a << n) & size.mask() };
                        let cf = if n <= bits {
                            (a >> (bits - n)) & 1 != 0
                        } else {
                            false
                        };
                        (res, cf)
                    }
                    ShiftOp::Shr => {
                        let a = a & size.mask();
                        let res = if n >= bits { 0 } else { a >> n };
                        let cf = if n <= bits {
                            (a >> (n - 1)) & 1 != 0
                        } else {
                            false
                        };
                        (res, cf)
                    }
                    ShiftOp::Sar => {
                        let sa = ((a & size.mask()) as i32) << (32 - bits) >> (32 - bits);
                        let res = (sa >> n.min(bits - 1)) as u32 & size.mask();
                        let cf = (sa >> (n - 1).min(bits - 1)) & 1 != 0;
                        (res, cf)
                    }
                };
                regs.eflags &= !(flags::CF | flags::OF);
                if cf {
                    regs.eflags |= flags::CF;
                }
                set_zsf(&mut regs.eflags, res, size);
                write_operand(&insn.dst, size, res, regs, env)?;
            }
        }
        Op::Lea => {
            if let Operand::Mem(m) = insn.src {
                let a = effective_address(&m, regs);
                write_operand(&insn.dst, OpSize::Dword, a, regs, env)?;
            } else {
                return Err(Fault::InvalidOpcode.into());
            }
        }
        Op::Push => {
            let v = read_operand(&insn.src, OpSize::Dword, regs, env)?;
            push(regs, env, v)?;
        }
        Op::Pop => {
            let v = pop(regs, env)?;
            write_operand(&insn.dst, OpSize::Dword, v, regs, env)?;
        }
        Op::Pushf => {
            push(regs, env, regs.eflags | flags::R1)?;
        }
        Op::Popf => {
            let v = pop(regs, env)?;
            regs.eflags = v | flags::R1;
        }
        Op::Jmp => {
            regs.eip = jump_target(insn, next_eip, regs, env)?;
            return Ok(Exec::Normal);
        }
        Op::Jcc(c) => {
            if cond_holds(c, regs.eflags) {
                if let Operand::Imm(rel) = insn.src {
                    regs.eip = next_eip.wrapping_add(rel);
                    return Ok(Exec::Normal);
                }
                return Err(Fault::InvalidOpcode.into());
            }
        }
        Op::Call => {
            let target = jump_target(insn, next_eip, regs, env)?;
            push(regs, env, next_eip)?;
            regs.eip = target;
            return Ok(Exec::Normal);
        }
        Op::Ret => {
            regs.eip = pop(regs, env)?;
            return Ok(Exec::Normal);
        }
        Op::Int(vec) => {
            // Advance past the INT before delivery so IRET resumes after it.
            let saved = regs.eip;
            regs.eip = next_eip;
            if let Err(e) = deliver_event(regs, env, vec, None) {
                regs.eip = saved;
                return Err(e);
            }
            return Ok(Exec::Normal);
        }
        Op::Iret => {
            let eip = pop(regs, env)?;
            let _cs = pop(regs, env)?;
            let fl = pop(regs, env)?;
            regs.eip = eip;
            regs.eflags = fl | flags::R1;
            return Ok(Exec::Normal);
        }
        Op::Hlt => {
            regs.eip = next_eip;
            return Ok(Exec::Halt);
        }
        Op::Cli => {
            regs.eflags &= !flags::IF;
        }
        Op::Sti => {
            let was_clear = !regs.if_set();
            regs.eflags |= flags::IF;
            regs.eip = next_eip;
            return Ok(if was_clear {
                Exec::StiShadow
            } else {
                Exec::Normal
            });
        }
        Op::Cld => {
            regs.eflags &= !flags::DF;
        }
        Op::Std => {
            regs.eflags |= flags::DF;
        }
        Op::In => {
            let port = port_of(&insn.src, regs)?;
            let v = env.io_in(port, size)?;
            match size {
                OpSize::Byte => regs.set8(Reg8::Al, v as u8),
                OpSize::Dword => regs.set(Reg::Eax, v),
            }
        }
        Op::Out => {
            let port = port_of(&insn.dst, regs)?;
            let v = match size {
                OpSize::Byte => regs.get8(Reg8::Al) as u32,
                OpSize::Dword => regs.get(Reg::Eax),
            };
            env.io_out(port, size, v)?;
        }
        Op::Cpuid => {
            let r = env.cpuid(regs.get(Reg::Eax));
            regs.set(Reg::Eax, r[0]);
            regs.set(Reg::Ebx, r[1]);
            regs.set(Reg::Ecx, r[2]);
            regs.set(Reg::Edx, r[3]);
        }
        Op::Rdtsc => {
            let t = env.rdtsc();
            regs.set(Reg::Eax, t as u32);
            regs.set(Reg::Edx, (t >> 32) as u32);
        }
        Op::MovFromCr => {
            if let (Operand::Reg(r), Operand::Cr(n)) = (insn.dst, insn.src) {
                let v = env.read_cr(regs, n)?;
                regs.set(r, v);
            } else {
                return Err(Fault::InvalidOpcode.into());
            }
        }
        Op::MovToCr => {
            if let (Operand::Cr(n), Operand::Reg(r)) = (insn.dst, insn.src) {
                let v = regs.get(r);
                env.write_cr(regs, n, v)?;
            } else {
                return Err(Fault::InvalidOpcode.into());
            }
        }
        Op::Invlpg => {
            if let Operand::Mem(m) = insn.dst {
                let a = effective_address(&m, regs);
                env.invlpg(a)?;
            } else {
                return Err(Fault::InvalidOpcode.into());
            }
        }
        Op::Lidt => {
            if let Operand::Mem(m) = insn.dst {
                let a = effective_address(&m, regs);
                let limit = env.read_mem(a, OpSize::Dword)? & 0xffff;
                let base = env.read_mem(a.wrapping_add(2), OpSize::Dword)?;
                regs.idt_limit = limit as u16;
                regs.idt_base = base;
            } else {
                return Err(Fault::InvalidOpcode.into());
            }
        }
        Op::Movs | Op::Stos | Op::Lods => {
            return exec_string(insn, regs, env, next_eip);
        }
        Op::Vmcall => {
            env.vmcall(regs)?;
        }
    }

    regs.eip = next_eip;
    Ok(Exec::Normal)
}

fn jump_target<E: Env>(
    insn: &Insn,
    next_eip: u32,
    regs: &mut Regs,
    env: &mut E,
) -> Result<u32, E::Err> {
    match insn.src {
        Operand::Imm(rel) => Ok(next_eip.wrapping_add(rel)),
        Operand::Reg(r) => Ok(regs.get(r)),
        Operand::Mem(m) => env.read_mem(effective_address(&m, regs), OpSize::Dword),
        _ => Err(Fault::InvalidOpcode.into()),
    }
}

fn port_of(op: &Operand, regs: &Regs) -> Result<u16, Fault> {
    match op {
        Operand::Imm(p) => Ok(*p as u16),
        Operand::Reg(Reg::Edx) => Ok(regs.get(Reg::Edx) as u16),
        _ => Err(Fault::InvalidOpcode),
    }
}

fn exec_string<E: Env>(
    insn: &Insn,
    regs: &mut Regs,
    env: &mut E,
    next_eip: u32,
) -> Result<Exec, E::Err> {
    if insn.rep && regs.get(Reg::Ecx) == 0 {
        regs.eip = next_eip;
        return Ok(Exec::Normal);
    }
    let sz = insn.size.bytes();
    let step = if regs.eflags & flags::DF != 0 {
        (sz as i32).wrapping_neg() as u32
    } else {
        sz
    };
    let esi = regs.get(Reg::Esi);
    let edi = regs.get(Reg::Edi);
    match insn.op {
        Op::Movs => {
            let v = env.read_mem(esi, insn.size)?;
            env.write_mem(edi, insn.size, v)?;
            regs.set(Reg::Esi, esi.wrapping_add(step));
            regs.set(Reg::Edi, edi.wrapping_add(step));
        }
        Op::Stos => {
            let v = match insn.size {
                OpSize::Byte => regs.get8(Reg8::Al) as u32,
                OpSize::Dword => regs.get(Reg::Eax),
            };
            env.write_mem(edi, insn.size, v)?;
            regs.set(Reg::Edi, edi.wrapping_add(step));
        }
        Op::Lods => {
            let v = env.read_mem(esi, insn.size)?;
            match insn.size {
                OpSize::Byte => regs.set8(Reg8::Al, v as u8),
                OpSize::Dword => regs.set(Reg::Eax, v),
            }
            regs.set(Reg::Esi, esi.wrapping_add(step));
        }
        _ => unreachable!(),
    }
    if insn.rep {
        let ecx = regs.get(Reg::Ecx).wrapping_sub(1);
        regs.set(Reg::Ecx, ecx);
        if ecx != 0 {
            // Architecturally restartable: EIP still points at the
            // instruction so interrupts can be taken between iterations.
            return Ok(Exec::RepContinue);
        }
    }
    regs.eip = next_eip;
    Ok(Exec::Normal)
}
