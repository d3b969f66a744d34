//! Instruction decoder for the implemented x86-32 subset.
//!
//! The decoder consumes raw opcode bytes (real x86 encodings: optional
//! prefixes, one- or two-byte opcode, ModRM, SIB, displacement,
//! immediate) and produces an [`Insn`]. It is used by the simulated CPU
//! for execution and by the VMM's instruction emulator for handling
//! MMIO faults, exactly as the paper describes in Section 7.1.

use crate::insn::{AluOp, Cond, Insn, MemRef, Op, OpSize, Operand, ShiftOp};
use crate::reg::{Reg, Reg8};

/// Maximum x86 instruction length in bytes.
pub const MAX_INSN_LEN: usize = 15;

/// Decoding failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The byte stream ended before the instruction was complete; the
    /// caller must fetch at least this many bytes and retry.
    Truncated,
    /// The opcode (or opcode + ModRM reg extension) is not part of the
    /// implemented subset. Architecturally this raises #UD.
    InvalidOpcode,
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.bytes.get(self.pos).ok_or(DecodeError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        let mut v = 0u32;
        for i in 0..4 {
            v |= (self.u8()? as u32) << (8 * i);
        }
        Ok(v)
    }

    fn i8ext(&mut self) -> Result<u32, DecodeError> {
        Ok(self.u8()? as i8 as i32 as u32)
    }
}

/// A decoded ModRM byte with its addressing-form operand.
struct ModRm {
    /// The `reg` field (register number or group opcode extension).
    reg: u8,
    /// The `r/m` operand: register or memory reference.
    rm: RmOperand,
}

enum RmOperand {
    Reg(u8),
    Mem(MemRef),
}

fn decode_modrm(c: &mut Cursor) -> Result<ModRm, DecodeError> {
    let modrm = c.u8()?;
    let md = modrm >> 6;
    let reg = (modrm >> 3) & 7;
    let rm = modrm & 7;

    if md == 3 {
        return Ok(ModRm {
            reg,
            rm: RmOperand::Reg(rm),
        });
    }

    let mut mem = MemRef::default();

    if rm == 4 {
        // SIB byte follows.
        let sib = c.u8()?;
        let scale = 1u8 << (sib >> 6);
        let index = (sib >> 3) & 7;
        let base = sib & 7;
        if index != 4 {
            mem.index = Some((Reg::from_num(index), scale));
        }
        if base == 5 && md == 0 {
            mem.disp = c.u32()? as i32;
        } else {
            mem.base = Some(Reg::from_num(base));
        }
    } else if rm == 5 && md == 0 {
        // Absolute disp32.
        mem.disp = c.u32()? as i32;
    } else {
        mem.base = Some(Reg::from_num(rm));
    }

    match md {
        1 => mem.disp = mem.disp.wrapping_add(c.u8()? as i8 as i32),
        2 => mem.disp = mem.disp.wrapping_add(c.u32()? as i32),
        _ => {}
    }

    Ok(ModRm {
        reg,
        rm: RmOperand::Mem(mem),
    })
}

fn rm_operand(rm: RmOperand, size: OpSize) -> Operand {
    match rm {
        RmOperand::Reg(n) => match size {
            OpSize::Byte => Operand::Reg8(Reg8::from_num(n)),
            OpSize::Dword => Operand::Reg(Reg::from_num(n)),
        },
        RmOperand::Mem(m) => Operand::Mem(m),
    }
}

fn reg_operand(n: u8, size: OpSize) -> Operand {
    match size {
        OpSize::Byte => Operand::Reg8(Reg8::from_num(n)),
        OpSize::Dword => Operand::Reg(Reg::from_num(n)),
    }
}

fn insn(op: Op, dst: Operand, src: Operand, size: OpSize, rep: bool, len: usize) -> Insn {
    Insn {
        op,
        dst,
        src,
        size,
        rep,
        len: len as u8,
    }
}

/// Decodes one instruction from `bytes` (which should start at the
/// instruction pointer and contain up to [`MAX_INSN_LEN`] bytes).
///
/// # Errors
///
/// [`DecodeError::Truncated`] if more bytes are needed, or
/// [`DecodeError::InvalidOpcode`] if the encoding is outside the subset.
pub fn decode(bytes: &[u8]) -> Result<Insn, DecodeError> {
    let mut c = Cursor { bytes, pos: 0 };
    let mut rep = false;

    // Prefixes.
    let mut opcode = c.u8()?;
    while opcode == 0xf3 || opcode == 0xf2 {
        rep = true;
        opcode = c.u8()?;
    }

    // rel8/rel32 jump targets are stored as immediates; the executor adds
    // them to the end-of-instruction EIP.
    macro_rules! done {
        ($op:expr, $dst:expr, $src:expr, $size:expr) => {
            return Ok(insn($op, $dst, $src, $size, rep, c.pos))
        };
    }

    match opcode {
        // ALU group: 8 operations x 6 forms. Opcodes with a low octal
        // digit of 6 or 7 in this range (segment pushes, the 0x0F escape,
        // segment prefixes, DAA-family) fail the guard and fall through.
        0x00..=0x3d if opcode & 7 <= 5 => {
            let alu = AluOp::from_num(opcode >> 3);
            let form = opcode & 7;
            match form {
                0 | 1 => {
                    let size = if form == 0 {
                        OpSize::Byte
                    } else {
                        OpSize::Dword
                    };
                    let m = decode_modrm(&mut c)?;
                    let reg = reg_operand(m.reg, size);
                    done!(Op::Alu(alu), rm_operand(m.rm, size), reg, size);
                }
                2 | 3 => {
                    let size = if form == 2 {
                        OpSize::Byte
                    } else {
                        OpSize::Dword
                    };
                    let m = decode_modrm(&mut c)?;
                    let reg = reg_operand(m.reg, size);
                    done!(Op::Alu(alu), reg, rm_operand(m.rm, size), size);
                }
                4 => {
                    let imm = c.u8()? as u32;
                    done!(
                        Op::Alu(alu),
                        Operand::Reg8(Reg8::Al),
                        Operand::Imm(imm),
                        OpSize::Byte
                    );
                }
                _ => {
                    let imm = c.u32()?;
                    done!(
                        Op::Alu(alu),
                        Operand::Reg(Reg::Eax),
                        Operand::Imm(imm),
                        OpSize::Dword
                    );
                }
            }
        }
        0x40..=0x47 => done!(
            Op::Inc,
            Operand::Reg(Reg::from_num(opcode - 0x40)),
            Operand::None,
            OpSize::Dword
        ),
        0x48..=0x4f => done!(
            Op::Dec,
            Operand::Reg(Reg::from_num(opcode - 0x48)),
            Operand::None,
            OpSize::Dword
        ),
        0x50..=0x57 => done!(
            Op::Push,
            Operand::None,
            Operand::Reg(Reg::from_num(opcode - 0x50)),
            OpSize::Dword
        ),
        0x58..=0x5f => done!(
            Op::Pop,
            Operand::Reg(Reg::from_num(opcode - 0x58)),
            Operand::None,
            OpSize::Dword
        ),
        0x68 => {
            let imm = c.u32()?;
            done!(Op::Push, Operand::None, Operand::Imm(imm), OpSize::Dword);
        }
        0x6a => {
            let imm = c.i8ext()?;
            done!(Op::Push, Operand::None, Operand::Imm(imm), OpSize::Dword);
        }
        0x70..=0x7f => {
            let cond = Cond::from_num(opcode - 0x70);
            let rel = c.i8ext()?;
            done!(
                Op::Jcc(cond),
                Operand::None,
                Operand::Imm(rel),
                OpSize::Dword
            );
        }
        0x80 | 0x81 | 0x83 => {
            let size = if opcode == 0x80 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let m = decode_modrm(&mut c)?;
            let alu = AluOp::from_num(m.reg);
            let imm = match opcode {
                0x80 => c.u8()? as u32,
                0x81 => c.u32()?,
                _ => c.i8ext()?,
            };
            done!(
                Op::Alu(alu),
                rm_operand(m.rm, size),
                Operand::Imm(imm),
                size
            );
        }
        0x84 | 0x85 => {
            let size = if opcode == 0x84 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let m = decode_modrm(&mut c)?;
            let reg = reg_operand(m.reg, size);
            done!(Op::Test, rm_operand(m.rm, size), reg, size);
        }
        0x86 | 0x87 => {
            let size = if opcode == 0x86 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let m = decode_modrm(&mut c)?;
            let reg = reg_operand(m.reg, size);
            done!(Op::Xchg, rm_operand(m.rm, size), reg, size);
        }
        0x88 | 0x89 => {
            let size = if opcode == 0x88 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let m = decode_modrm(&mut c)?;
            let reg = reg_operand(m.reg, size);
            done!(Op::Mov, rm_operand(m.rm, size), reg, size);
        }
        0x8a | 0x8b => {
            let size = if opcode == 0x8a {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let m = decode_modrm(&mut c)?;
            let reg = reg_operand(m.reg, size);
            done!(Op::Mov, reg, rm_operand(m.rm, size), size);
        }
        0x8d => {
            let m = decode_modrm(&mut c)?;
            match m.rm {
                RmOperand::Mem(mem) => done!(
                    Op::Lea,
                    Operand::Reg(Reg::from_num(m.reg)),
                    Operand::Mem(mem),
                    OpSize::Dword
                ),
                RmOperand::Reg(_) => Err(DecodeError::InvalidOpcode),
            }
        }
        0x90 => done!(Op::Nop, Operand::None, Operand::None, OpSize::Dword),
        0x9c => done!(Op::Pushf, Operand::None, Operand::None, OpSize::Dword),
        0x9d => done!(Op::Popf, Operand::None, Operand::None, OpSize::Dword),
        0xa0 | 0xa1 => {
            let size = if opcode == 0xa0 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let addr = c.u32()?;
            let acc = if opcode == 0xa0 {
                Operand::Reg8(Reg8::Al)
            } else {
                Operand::Reg(Reg::Eax)
            };
            done!(Op::Mov, acc, Operand::Mem(MemRef::abs(addr)), size);
        }
        0xa2 | 0xa3 => {
            let size = if opcode == 0xa2 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let addr = c.u32()?;
            let acc = if opcode == 0xa2 {
                Operand::Reg8(Reg8::Al)
            } else {
                Operand::Reg(Reg::Eax)
            };
            done!(Op::Mov, Operand::Mem(MemRef::abs(addr)), acc, size);
        }
        0xa4 | 0xa5 => {
            let size = if opcode == 0xa4 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            done!(Op::Movs, Operand::None, Operand::None, size);
        }
        0xa8 | 0xa9 => {
            let size = if opcode == 0xa8 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let (acc, imm) = if opcode == 0xa8 {
                (Operand::Reg8(Reg8::Al), c.u8()? as u32)
            } else {
                (Operand::Reg(Reg::Eax), c.u32()?)
            };
            done!(Op::Test, acc, Operand::Imm(imm), size);
        }
        0xaa | 0xab => {
            let size = if opcode == 0xaa {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            done!(Op::Stos, Operand::None, Operand::None, size);
        }
        0xac | 0xad => {
            let size = if opcode == 0xac {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            done!(Op::Lods, Operand::None, Operand::None, size);
        }
        0xb0..=0xb7 => {
            let imm = c.u8()? as u32;
            done!(
                Op::Mov,
                Operand::Reg8(Reg8::from_num(opcode - 0xb0)),
                Operand::Imm(imm),
                OpSize::Byte
            );
        }
        0xb8..=0xbf => {
            let imm = c.u32()?;
            done!(
                Op::Mov,
                Operand::Reg(Reg::from_num(opcode - 0xb8)),
                Operand::Imm(imm),
                OpSize::Dword
            );
        }
        0xc0 | 0xc1 => {
            let size = if opcode == 0xc0 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let m = decode_modrm(&mut c)?;
            let shift = shift_from_group(m.reg)?;
            let imm = c.u8()? as u32;
            done!(
                Op::Shift(shift),
                rm_operand(m.rm, size),
                Operand::Imm(imm),
                size
            );
        }
        0xc3 => done!(Op::Ret, Operand::None, Operand::None, OpSize::Dword),
        0xc6 | 0xc7 => {
            let size = if opcode == 0xc6 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let m = decode_modrm(&mut c)?;
            if m.reg != 0 {
                return Err(DecodeError::InvalidOpcode);
            }
            let imm = match size {
                OpSize::Byte => c.u8()? as u32,
                OpSize::Dword => c.u32()?,
            };
            done!(Op::Mov, rm_operand(m.rm, size), Operand::Imm(imm), size);
        }
        0xcd => {
            let vec = c.u8()?;
            done!(Op::Int(vec), Operand::None, Operand::None, OpSize::Dword);
        }
        0xcf => done!(Op::Iret, Operand::None, Operand::None, OpSize::Dword),
        0xd1 | 0xd3 => {
            let m = decode_modrm(&mut c)?;
            let shift = shift_from_group(m.reg)?;
            let count = if opcode == 0xd1 {
                Operand::Imm(1)
            } else {
                Operand::Reg8(Reg8::Cl)
            };
            done!(
                Op::Shift(shift),
                rm_operand(m.rm, OpSize::Dword),
                count,
                OpSize::Dword
            );
        }
        0xe4 | 0xe5 => {
            let size = if opcode == 0xe4 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let port = c.u8()? as u32;
            let acc = acc_operand(size);
            done!(Op::In, acc, Operand::Imm(port), size);
        }
        0xe6 | 0xe7 => {
            let size = if opcode == 0xe6 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let port = c.u8()? as u32;
            let acc = acc_operand(size);
            done!(Op::Out, Operand::Imm(port), acc, size);
        }
        0xe8 => {
            let rel = c.u32()?;
            done!(Op::Call, Operand::None, Operand::Imm(rel), OpSize::Dword);
        }
        0xe9 => {
            let rel = c.u32()?;
            done!(Op::Jmp, Operand::None, Operand::Imm(rel), OpSize::Dword);
        }
        0xeb => {
            let rel = c.i8ext()?;
            done!(Op::Jmp, Operand::None, Operand::Imm(rel), OpSize::Dword);
        }
        0xec | 0xed => {
            let size = if opcode == 0xec {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let acc = acc_operand(size);
            done!(Op::In, acc, Operand::Reg(Reg::Edx), size);
        }
        0xee | 0xef => {
            let size = if opcode == 0xee {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let acc = acc_operand(size);
            done!(Op::Out, Operand::Reg(Reg::Edx), acc, size);
        }
        0xf4 => done!(Op::Hlt, Operand::None, Operand::None, OpSize::Dword),
        0xf6 | 0xf7 => {
            let size = if opcode == 0xf6 {
                OpSize::Byte
            } else {
                OpSize::Dword
            };
            let m = decode_modrm(&mut c)?;
            let rm = rm_operand(m.rm, size);
            match m.reg {
                0 => {
                    let imm = match size {
                        OpSize::Byte => c.u8()? as u32,
                        OpSize::Dword => c.u32()?,
                    };
                    done!(Op::Test, rm, Operand::Imm(imm), size);
                }
                2 => done!(Op::Not, rm, Operand::None, size),
                3 => done!(Op::Neg, rm, Operand::None, size),
                4 => done!(Op::Mul, Operand::None, rm, size),
                6 => done!(Op::Div, Operand::None, rm, size),
                _ => Err(DecodeError::InvalidOpcode),
            }
        }
        0xfa => done!(Op::Cli, Operand::None, Operand::None, OpSize::Dword),
        0xfb => done!(Op::Sti, Operand::None, Operand::None, OpSize::Dword),
        0xfc => done!(Op::Cld, Operand::None, Operand::None, OpSize::Dword),
        0xfd => done!(Op::Std, Operand::None, Operand::None, OpSize::Dword),
        0xfe => {
            let m = decode_modrm(&mut c)?;
            let rm = rm_operand(m.rm, OpSize::Byte);
            match m.reg {
                0 => done!(Op::Inc, rm, Operand::None, OpSize::Byte),
                1 => done!(Op::Dec, rm, Operand::None, OpSize::Byte),
                _ => Err(DecodeError::InvalidOpcode),
            }
        }
        0xff => {
            let m = decode_modrm(&mut c)?;
            let rm = rm_operand(m.rm, OpSize::Dword);
            match m.reg {
                0 => done!(Op::Inc, rm, Operand::None, OpSize::Dword),
                1 => done!(Op::Dec, rm, Operand::None, OpSize::Dword),
                2 => done!(Op::Call, Operand::None, rm, OpSize::Dword),
                4 => done!(Op::Jmp, Operand::None, rm, OpSize::Dword),
                6 => done!(Op::Push, Operand::None, rm, OpSize::Dword),
                _ => Err(DecodeError::InvalidOpcode),
            }
        }
        0x0f => decode_0f(&mut c, rep),
        _ => Err(DecodeError::InvalidOpcode),
    }
}

fn acc_operand(size: OpSize) -> Operand {
    match size {
        OpSize::Byte => Operand::Reg8(Reg8::Al),
        OpSize::Dword => Operand::Reg(Reg::Eax),
    }
}

fn shift_from_group(reg: u8) -> Result<ShiftOp, DecodeError> {
    match reg {
        4 => Ok(ShiftOp::Shl),
        5 => Ok(ShiftOp::Shr),
        7 => Ok(ShiftOp::Sar),
        _ => Err(DecodeError::InvalidOpcode),
    }
}

fn decode_0f(c: &mut Cursor, rep: bool) -> Result<Insn, DecodeError> {
    let op2 = c.u8()?;

    macro_rules! done {
        ($op:expr, $dst:expr, $src:expr, $size:expr) => {
            return Ok(insn($op, $dst, $src, $size, rep, c.pos))
        };
    }

    match op2 {
        0x01 => {
            // Peek the ModRM: mod=11 rm=001 reg=000 encodes VMCALL (0F 01 C1).
            let next = *c.bytes.get(c.pos).ok_or(DecodeError::Truncated)?;
            if next == 0xc1 {
                c.pos += 1;
                done!(Op::Vmcall, Operand::None, Operand::None, OpSize::Dword);
            }
            let m = decode_modrm(c)?;
            let mem = match m.rm {
                RmOperand::Mem(mem) => mem,
                RmOperand::Reg(_) => return Err(DecodeError::InvalidOpcode),
            };
            match m.reg {
                3 => done!(Op::Lidt, Operand::Mem(mem), Operand::None, OpSize::Dword),
                7 => done!(Op::Invlpg, Operand::Mem(mem), Operand::None, OpSize::Dword),
                _ => Err(DecodeError::InvalidOpcode),
            }
        }
        0x20 => {
            let m = decode_modrm(c)?;
            match m.rm {
                RmOperand::Reg(n) => done!(
                    Op::MovFromCr,
                    Operand::Reg(Reg::from_num(n)),
                    Operand::Cr(m.reg),
                    OpSize::Dword
                ),
                RmOperand::Mem(_) => Err(DecodeError::InvalidOpcode),
            }
        }
        0x22 => {
            let m = decode_modrm(c)?;
            match m.rm {
                RmOperand::Reg(n) => done!(
                    Op::MovToCr,
                    Operand::Cr(m.reg),
                    Operand::Reg(Reg::from_num(n)),
                    OpSize::Dword
                ),
                RmOperand::Mem(_) => Err(DecodeError::InvalidOpcode),
            }
        }
        0x31 => done!(Op::Rdtsc, Operand::None, Operand::None, OpSize::Dword),
        0x80..=0x8f => {
            let cond = Cond::from_num(op2 - 0x80);
            let rel = c.u32()?;
            done!(
                Op::Jcc(cond),
                Operand::None,
                Operand::Imm(rel),
                OpSize::Dword
            );
        }
        0xa2 => done!(Op::Cpuid, Operand::None, Operand::None, OpSize::Dword),
        0xaf => {
            let m = decode_modrm(c)?;
            done!(
                Op::Imul2,
                Operand::Reg(Reg::from_num(m.reg)),
                rm_operand(m.rm, OpSize::Dword),
                OpSize::Dword
            );
        }
        0xb6 => {
            let m = decode_modrm(c)?;
            done!(
                Op::Movzx,
                Operand::Reg(Reg::from_num(m.reg)),
                rm_operand(m.rm, OpSize::Byte),
                OpSize::Dword
            );
        }
        0xbe => {
            let m = decode_modrm(c)?;
            done!(
                Op::Movsx,
                Operand::Reg(Reg::from_num(m.reg)),
                rm_operand(m.rm, OpSize::Byte),
                OpSize::Dword
            );
        }
        _ => Err(DecodeError::InvalidOpcode),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(bytes: &[u8]) -> Insn {
        decode(bytes).expect("decode")
    }

    #[test]
    fn mov_r_imm32() {
        let i = d(&[0xb8, 0x78, 0x56, 0x34, 0x12]);
        assert_eq!(i.op, Op::Mov);
        assert_eq!(i.dst, Operand::Reg(Reg::Eax));
        assert_eq!(i.src, Operand::Imm(0x1234_5678));
        assert_eq!(i.len, 5);
    }

    #[test]
    fn mov_rm_r_register_form() {
        // mov ebx, ecx -> 89 CB (mod=11 reg=ecx rm=ebx)
        let i = d(&[0x89, 0xcb]);
        assert_eq!(i.op, Op::Mov);
        assert_eq!(i.dst, Operand::Reg(Reg::Ebx));
        assert_eq!(i.src, Operand::Reg(Reg::Ecx));
    }

    #[test]
    fn mov_mem_base_disp8() {
        // mov [ebp-4], eax -> 89 45 FC
        let i = d(&[0x89, 0x45, 0xfc]);
        assert_eq!(i.dst, Operand::Mem(MemRef::base_disp(Reg::Ebp, -4)));
        assert_eq!(i.src, Operand::Reg(Reg::Eax));
        assert_eq!(i.len, 3);
    }

    #[test]
    fn mov_mem_abs32() {
        // mov eax, [0xdeadbeef] -> 8B 05 ef be ad de
        let i = d(&[0x8b, 0x05, 0xef, 0xbe, 0xad, 0xde]);
        assert_eq!(i.src, Operand::Mem(MemRef::abs(0xdead_beef)));
        assert_eq!(i.len, 6);
    }

    #[test]
    fn sib_scaled_index() {
        // mov eax, [ebx + esi*4 + 0x10] -> 8B 44 B3 10
        let i = d(&[0x8b, 0x44, 0xb3, 0x10]);
        match i.src {
            Operand::Mem(m) => {
                assert_eq!(m.base, Some(Reg::Ebx));
                assert_eq!(m.index, Some((Reg::Esi, 4)));
                assert_eq!(m.disp, 0x10);
            }
            other => panic!("bad operand {other:?}"),
        }
    }

    #[test]
    fn sib_no_base_disp32() {
        // mov eax, [esi*8 + 0x1000] -> 8B 04 F5 00 10 00 00
        let i = d(&[0x8b, 0x04, 0xf5, 0x00, 0x10, 0x00, 0x00]);
        match i.src {
            Operand::Mem(m) => {
                assert_eq!(m.base, None);
                assert_eq!(m.index, Some((Reg::Esi, 8)));
                assert_eq!(m.disp, 0x1000);
            }
            other => panic!("bad operand {other:?}"),
        }
    }

    #[test]
    fn alu_group_forms() {
        // add eax, 0x12345678 -> 05 78 56 34 12
        let i = d(&[0x05, 0x78, 0x56, 0x34, 0x12]);
        assert_eq!(i.op, Op::Alu(AluOp::Add));
        // sub ecx, 8 -> 83 E9 08 (sign-extended imm8)
        let i = d(&[0x83, 0xe9, 0x08]);
        assert_eq!(i.op, Op::Alu(AluOp::Sub));
        assert_eq!(i.dst, Operand::Reg(Reg::Ecx));
        assert_eq!(i.src, Operand::Imm(8));
        // cmp byte [ebx], 0 -> 80 3B 00
        let i = d(&[0x80, 0x3b, 0x00]);
        assert_eq!(i.op, Op::Alu(AluOp::Cmp));
        assert_eq!(i.size, OpSize::Byte);
        // xor edx, edx -> 31 D2
        let i = d(&[0x31, 0xd2]);
        assert_eq!(i.op, Op::Alu(AluOp::Xor));
        assert_eq!(i.dst, Operand::Reg(Reg::Edx));
        assert_eq!(i.src, Operand::Reg(Reg::Edx));
    }

    #[test]
    fn sign_extended_imm8_wraps() {
        // add eax, -1 -> 83 C0 FF
        let i = d(&[0x83, 0xc0, 0xff]);
        assert_eq!(i.src, Operand::Imm(0xffff_ffff));
    }

    #[test]
    fn jcc_rel8_sign_extends() {
        // jne -6 -> 75 FA
        let i = d(&[0x75, 0xfa]);
        assert_eq!(i.op, Op::Jcc(Cond::Ne));
        assert_eq!(i.src, Operand::Imm((-6i32) as u32));
        assert_eq!(i.len, 2);
    }

    #[test]
    fn jcc_rel32() {
        // je +0x100 -> 0F 84 00 01 00 00
        let i = d(&[0x0f, 0x84, 0x00, 0x01, 0x00, 0x00]);
        assert_eq!(i.op, Op::Jcc(Cond::E));
        assert_eq!(i.src, Operand::Imm(0x100));
        assert_eq!(i.len, 6);
    }

    #[test]
    fn port_io_forms() {
        let i = d(&[0xe4, 0x60]); // in al, 0x60
        assert_eq!(i.op, Op::In);
        assert_eq!(i.size, OpSize::Byte);
        assert_eq!(i.src, Operand::Imm(0x60));
        let i = d(&[0xef]); // out dx, eax
        assert_eq!(i.op, Op::Out);
        assert_eq!(i.size, OpSize::Dword);
        assert_eq!(i.dst, Operand::Reg(Reg::Edx));
    }

    #[test]
    fn sensitive_two_byte() {
        assert_eq!(d(&[0x0f, 0xa2]).op, Op::Cpuid);
        assert_eq!(d(&[0x0f, 0x31]).op, Op::Rdtsc);
        assert_eq!(d(&[0xf4]).op, Op::Hlt);
        // mov cr3, eax -> 0F 22 D8
        let i = d(&[0x0f, 0x22, 0xd8]);
        assert_eq!(i.op, Op::MovToCr);
        assert_eq!(i.dst, Operand::Cr(3));
        assert_eq!(i.src, Operand::Reg(Reg::Eax));
        // mov eax, cr0 -> 0F 20 C0
        let i = d(&[0x0f, 0x20, 0xc0]);
        assert_eq!(i.op, Op::MovFromCr);
        assert_eq!(i.src, Operand::Cr(0));
        // invlpg [eax] -> 0F 01 38
        let i = d(&[0x0f, 0x01, 0x38]);
        assert_eq!(i.op, Op::Invlpg);
        // vmcall -> 0F 01 C1
        assert_eq!(d(&[0x0f, 0x01, 0xc1]).op, Op::Vmcall);
    }

    #[test]
    fn string_ops_and_rep() {
        let i = d(&[0xf3, 0xa5]); // rep movsd
        assert_eq!(i.op, Op::Movs);
        assert!(i.rep);
        assert_eq!(i.size, OpSize::Dword);
        assert_eq!(i.len, 2);
        let i = d(&[0xaa]); // stosb
        assert_eq!(i.op, Op::Stos);
        assert!(!i.rep);
        assert_eq!(i.size, OpSize::Byte);
    }

    #[test]
    fn group_f7() {
        // not eax -> F7 D0; neg ecx -> F7 D9; mul ebx -> F7 E3; div esi -> F7 F6
        assert_eq!(d(&[0xf7, 0xd0]).op, Op::Not);
        assert_eq!(d(&[0xf7, 0xd9]).op, Op::Neg);
        assert_eq!(d(&[0xf7, 0xe3]).op, Op::Mul);
        assert_eq!(d(&[0xf7, 0xf6]).op, Op::Div);
        // test eax, imm32 -> F7 C0 xx
        let i = d(&[0xf7, 0xc0, 0x01, 0x00, 0x00, 0x00]);
        assert_eq!(i.op, Op::Test);
        assert_eq!(i.src, Operand::Imm(1));
    }

    #[test]
    fn group_ff() {
        // inc dword [eax] -> FF 00
        let i = d(&[0xff, 0x00]);
        assert_eq!(i.op, Op::Inc);
        // call eax -> FF D0
        let i = d(&[0xff, 0xd0]);
        assert_eq!(i.op, Op::Call);
        assert_eq!(i.src, Operand::Reg(Reg::Eax));
        // jmp [ebx] -> FF 23
        let i = d(&[0xff, 0x23]);
        assert_eq!(i.op, Op::Jmp);
    }

    #[test]
    fn shifts() {
        // shl eax, 4 -> C1 E0 04
        let i = d(&[0xc1, 0xe0, 0x04]);
        assert_eq!(i.op, Op::Shift(ShiftOp::Shl));
        assert_eq!(i.src, Operand::Imm(4));
        // shr edx, cl -> D3 EA
        let i = d(&[0xd3, 0xea]);
        assert_eq!(i.op, Op::Shift(ShiftOp::Shr));
        assert_eq!(i.src, Operand::Reg8(Reg8::Cl));
        // sar eax, 1 -> D1 F8
        let i = d(&[0xd1, 0xf8]);
        assert_eq!(i.op, Op::Shift(ShiftOp::Sar));
        assert_eq!(i.src, Operand::Imm(1));
    }

    #[test]
    fn truncated_reports_need_more() {
        assert_eq!(decode(&[0xb8, 0x01]), Err(DecodeError::Truncated));
        assert_eq!(decode(&[0x0f]), Err(DecodeError::Truncated));
        assert_eq!(decode(&[0x8b]), Err(DecodeError::Truncated));
    }

    #[test]
    fn invalid_opcode() {
        assert_eq!(decode(&[0x0f, 0xff]), Err(DecodeError::InvalidOpcode));
        // lea with register operand is invalid.
        assert_eq!(decode(&[0x8d, 0xc0]), Err(DecodeError::InvalidOpcode));
    }

    /// What callers that decode a whole fetched chunk at once rely on
    /// (`nova-vmm`'s `fetch_insn`): over the prefixes of one byte
    /// string the decoder says `Truncated` up to some length `k` and
    /// from `k` on gives one answer — the same instruction, no longer
    /// than `k`, or `InvalidOpcode` — however many more bytes follow.
    fn assert_prefix_stable(b: &[u8]) {
        let mut settled: Option<(usize, Result<Insn, DecodeError>)> = None;
        for n in 1..=b.len() {
            let r = decode(&b[..n]);
            match settled {
                None if r == Err(DecodeError::Truncated) => {}
                None => {
                    if let Ok(insn) = r {
                        assert_eq!(
                            insn.len as usize, n,
                            "{b:02x?}: settles with bytes to spare"
                        );
                    }
                    settled = Some((n, r));
                }
                Some((k, first)) => assert_eq!(r, first, "{b:02x?}: {k} bytes vs {n}"),
            }
        }
    }

    #[test]
    fn decode_is_prefix_stable() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for draw in 0..400_000u32 {
            let (lo, hi) = (next().to_le_bytes(), next().to_le_bytes());
            let mut b = [0u8; MAX_INSN_LEN];
            b[..8].copy_from_slice(&lo);
            b[8..].copy_from_slice(&hi[..7]);
            // Every opcode byte leads its share of the draws, alone and
            // behind a REP prefix and the two-byte escape.
            match draw % 4 {
                0 => {}
                1 => b[0] = (draw >> 2) as u8,
                2 => (b[0], b[1]) = (0xf3, (draw >> 2) as u8),
                _ => (b[0], b[1]) = (0x0f, (draw >> 2) as u8),
            }
            assert_prefix_stable(&b);
        }
        // Nothing but prefixes: truncated at every length.
        assert_prefix_stable(&[0xf3; MAX_INSN_LEN]);
        assert_eq!(decode(&[0xf3; MAX_INSN_LEN]), Err(DecodeError::Truncated));
        assert_eq!(decode(&[]), Err(DecodeError::Truncated));
    }

    #[test]
    fn every_asm_encoding_is_prefix_stable() {
        use crate::asm::Asm;
        let mems = [
            MemRef::abs(0x1234_5678),
            MemRef::base_disp(Reg::Ebx, 0),
            MemRef::base_disp(Reg::Ebp, -4),
            MemRef::base_disp(Reg::Esp, 0x1000),
            MemRef {
                base: Some(Reg::Ebx),
                index: Some((Reg::Esi, 4)),
                disp: 0x10,
            },
            MemRef {
                base: None,
                index: Some((Reg::Edi, 8)),
                disp: 0x2000,
            },
        ];
        let mut a = Asm::new(0x1000);
        let top = a.here_label();
        let fwd = a.label();
        for m in mems {
            a.mov_rm(Reg::Eax, m);
            a.mov_mr(m, Reg::Ecx);
            a.mov_mi(m, 0xdead_beef);
            a.mov_r8m(Reg8::Al, m);
            a.mov_m8r(m, Reg8::Dl);
            a.mov_m8i(m, 0x5a);
            a.movzx_rm8(Reg::Edx, m);
            a.lea(Reg::Esi, m);
            a.alu_rm(AluOp::Add, Reg::Eax, m);
            a.alu_mr(AluOp::Xor, m, Reg::Ebx);
            a.alu_mi(AluOp::Cmp, m, 1);
            a.alu_mi(AluOp::And, m, 0x1_0000);
            a.inc_m(m);
            a.invlpg(m);
            a.lidt(m);
        }
        a.mov_ri(Reg::Eax, 0x1234_5678);
        a.mov_r_label(Reg::Ebx, top);
        a.mov_rr(Reg::Ecx, Reg::Edx);
        a.mov_r8i(Reg8::Bl, 7);
        a.alu_rr(AluOp::Sub, Reg::Eax, Reg::Ebx);
        a.alu_ri(AluOp::Or, Reg::Ecx, 3);
        a.alu_ri(AluOp::Adc, Reg::Ecx, 0x1_0000);
        a.add_ri(Reg::Eax, 1);
        a.sub_ri(Reg::Eax, 0x400);
        a.cmp_ri(Reg::Edi, 9);
        a.cmp_rr(Reg::Eax, Reg::Ebx);
        a.xor_rr(Reg::Edx, Reg::Edx);
        a.alu_al_imm(AluOp::And, 0x0f);
        a.test_rr(Reg::Eax, Reg::Eax);
        a.inc_r(Reg::Esi);
        a.dec_r(Reg::Ecx);
        a.shl_ri(Reg::Eax, 1);
        a.shl_ri(Reg::Eax, 4);
        a.shr_ri(Reg::Ebx, 1);
        a.shr_ri(Reg::Ebx, 12);
        a.imul_rr(Reg::Eax, Reg::Edx);
        a.mul_r(Reg::Ebx);
        a.div_r(Reg::Esi);
        a.push_r(Reg::Ebp);
        a.pop_r(Reg::Ebp);
        a.push_i(0x1000);
        a.pushf();
        a.popf();
        a.jmp(top);
        a.jmp(fwd);
        a.jmp_r(Reg::Eax);
        a.jcc(Cond::Ne, top);
        a.jcc(Cond::E, fwd);
        a.call(top);
        a.call(fwd);
        a.call_r(Reg::Ecx);
        a.bind(fwd);
        a.ret();
        a.int_n(0x80);
        a.iret();
        a.hlt();
        a.cli();
        a.sti();
        a.cld();
        a.nop();
        a.in_al_imm(0x60);
        a.in_eax_dx();
        a.in_al_dx();
        a.out_imm_al(0x80);
        a.out_dx_al();
        a.out_dx_eax();
        a.cpuid();
        a.rdtsc();
        a.mov_cr_r(3, Reg::Eax);
        a.mov_r_cr(Reg::Eax, 0);
        a.vmcall();
        a.rep_movsd();
        a.rep_stosd();
        a.lodsd();
        a.stosd();
        // Whatever follows the last instruction in memory.
        a.bytes(&[0xcc; MAX_INSN_LEN]);
        let code = a.finish();

        let mut pos = 0;
        while pos + MAX_INSN_LEN < code.len() {
            let window = &code[pos..pos + MAX_INSN_LEN];
            let insn = decode(window).unwrap_or_else(|e| panic!("{window:02x?}: {e:?}"));
            assert_prefix_stable(window);
            pos += insn.len as usize;
        }
        assert_eq!(pos + MAX_INSN_LEN, code.len(), "walk ends on the padding");
    }

    #[test]
    fn int_and_iret() {
        let i = d(&[0xcd, 0x80]);
        assert_eq!(i.op, Op::Int(0x80));
        assert_eq!(d(&[0xcf]).op, Op::Iret);
    }

    #[test]
    fn lidt() {
        // lidt [0x7000] -> 0F 01 1D 00 70 00 00
        let i = d(&[0x0f, 0x01, 0x1d, 0x00, 0x70, 0x00, 0x00]);
        assert_eq!(i.op, Op::Lidt);
        assert_eq!(i.dst, Operand::Mem(MemRef::abs(0x7000)));
    }

    #[test]
    fn movzx_movsx() {
        // movzx eax, byte [ebx] -> 0F B6 03
        let i = d(&[0x0f, 0xb6, 0x03]);
        assert_eq!(i.op, Op::Movzx);
        assert_eq!(i.dst, Operand::Reg(Reg::Eax));
        // movsx ecx, cl -> 0F BE C9
        let i = d(&[0x0f, 0xbe, 0xc9]);
        assert_eq!(i.op, Op::Movsx);
        assert_eq!(i.src, Operand::Reg8(Reg8::Cl));
    }

    #[test]
    fn imul_two_operand() {
        // imul eax, edx -> 0F AF C2
        let i = d(&[0x0f, 0xaf, 0xc2]);
        assert_eq!(i.op, Op::Imul2);
        assert_eq!(i.dst, Operand::Reg(Reg::Eax));
        assert_eq!(i.src, Operand::Reg(Reg::Edx));
    }
}
