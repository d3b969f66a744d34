//! Decoded-instruction representation shared by the CPU and the VMM's
//! instruction emulator.

use crate::reg::{Reg, Reg8};

/// Operand size of an instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpSize {
    /// 8-bit operands.
    Byte,
    /// 32-bit operands.
    Dword,
}

impl OpSize {
    /// Operand width in bytes.
    #[inline]
    pub fn bytes(self) -> u32 {
        match self {
            OpSize::Byte => 1,
            OpSize::Dword => 4,
        }
    }

    /// Mask selecting the low `bytes()` of a 32-bit value.
    #[inline]
    pub fn mask(self) -> u32 {
        match self {
            OpSize::Byte => 0xff,
            OpSize::Dword => 0xffff_ffff,
        }
    }

    /// Position of the sign bit.
    #[inline]
    pub fn sign_bit(self) -> u32 {
        match self {
            OpSize::Byte => 1 << 7,
            OpSize::Dword => 1 << 31,
        }
    }
}

/// A memory operand: `[base + index*scale + disp]`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct MemRef {
    /// Base register, if any.
    pub base: Option<Reg>,
    /// Index register and scale (1, 2, 4 or 8), if any.
    pub index: Option<(Reg, u8)>,
    /// Signed displacement.
    pub disp: i32,
}

impl MemRef {
    /// An absolute-address operand (`[disp32]`).
    pub fn abs(addr: u32) -> MemRef {
        MemRef {
            base: None,
            index: None,
            disp: addr as i32,
        }
    }

    /// A base-register operand with displacement (`[reg + disp]`).
    pub fn base_disp(base: Reg, disp: i32) -> MemRef {
        MemRef {
            base: Some(base),
            index: None,
            disp,
        }
    }
}

/// An instruction operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operand {
    /// No operand.
    None,
    /// A 32-bit general-purpose register.
    Reg(Reg),
    /// An 8-bit register.
    Reg8(Reg8),
    /// An immediate value (already sign/zero-extended as required).
    Imm(u32),
    /// A memory reference.
    Mem(MemRef),
    /// A control register (for MOV to/from CRn).
    Cr(u8),
}

/// ALU operation selector for the 0x00–0x3D / 0x80–0x83 opcode groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum AluOp {
    Add = 0,
    Or = 1,
    Adc = 2,
    Sbb = 3,
    And = 4,
    Sub = 5,
    Xor = 6,
    Cmp = 7,
}

impl AluOp {
    /// Decodes the 3-bit group number.
    #[inline]
    pub fn from_num(n: u8) -> AluOp {
        [
            AluOp::Add,
            AluOp::Or,
            AluOp::Adc,
            AluOp::Sbb,
            AluOp::And,
            AluOp::Sub,
            AluOp::Xor,
            AluOp::Cmp,
        ][(n & 7) as usize]
    }
}

/// Condition codes for Jcc, in hardware encoding order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Cond {
    /// Overflow.
    O = 0,
    /// Not overflow.
    No = 1,
    /// Below (unsigned).
    B = 2,
    /// Above or equal (unsigned).
    Ae = 3,
    /// Equal / zero.
    E = 4,
    /// Not equal / not zero.
    Ne = 5,
    /// Below or equal (unsigned).
    Be = 6,
    /// Above (unsigned).
    A = 7,
    /// Sign.
    S = 8,
    /// Not sign.
    Ns = 9,
    /// Parity (unimplemented flag; decodes but never taken).
    P = 10,
    /// Not parity.
    Np = 11,
    /// Less (signed).
    L = 12,
    /// Greater or equal (signed).
    Ge = 13,
    /// Less or equal (signed).
    Le = 14,
    /// Greater (signed).
    G = 15,
}

impl Cond {
    /// Decodes the 4-bit condition number.
    #[inline]
    pub fn from_num(n: u8) -> Cond {
        [
            Cond::O,
            Cond::No,
            Cond::B,
            Cond::Ae,
            Cond::E,
            Cond::Ne,
            Cond::Be,
            Cond::A,
            Cond::S,
            Cond::Ns,
            Cond::P,
            Cond::Np,
            Cond::L,
            Cond::Ge,
            Cond::Le,
            Cond::G,
        ][(n & 15) as usize]
    }
}

/// Shift operation selector for the 0xC0/0xC1/0xD1/0xD3 groups.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShiftOp {
    /// Logical left shift.
    Shl,
    /// Logical right shift.
    Shr,
    /// Arithmetic right shift.
    Sar,
}

/// Instruction operations in the implemented subset.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Data move (MOV, including moffs forms).
    Mov,
    /// Zero-extending byte load (MOVZX r32, r/m8).
    Movzx,
    /// Sign-extending byte load (MOVSX r32, r/m8).
    Movsx,
    /// Exchange (XCHG).
    Xchg,
    /// ALU group operation.
    Alu(AluOp),
    /// TEST (AND without result).
    Test,
    /// Increment.
    Inc,
    /// Decrement.
    Dec,
    /// Two's complement negation.
    Neg,
    /// One's complement.
    Not,
    /// Unsigned multiply EDX:EAX = EAX * r/m.
    Mul,
    /// Signed multiply (two-operand form IMUL r32, r/m32).
    Imul2,
    /// Unsigned divide EAX = EDX:EAX / r/m, EDX = remainder.
    Div,
    /// Shift group operation.
    Shift(ShiftOp),
    /// Load effective address.
    Lea,
    /// Push onto stack.
    Push,
    /// Pop from stack.
    Pop,
    /// Push EFLAGS.
    Pushf,
    /// Pop EFLAGS.
    Popf,
    /// Unconditional jump (relative or indirect).
    Jmp,
    /// Conditional jump.
    Jcc(Cond),
    /// Call (relative or indirect).
    Call,
    /// Near return.
    Ret,
    /// Software interrupt INT n.
    Int(u8),
    /// Interrupt return.
    Iret,
    /// Halt until interrupt.
    Hlt,
    /// Clear interrupt flag.
    Cli,
    /// Set interrupt flag.
    Sti,
    /// Clear direction flag.
    Cld,
    /// Set direction flag.
    Std,
    /// Port input. `dst` = AL/EAX, `src` = Imm(port) or Reg(EDX).
    In,
    /// Port output. `dst` = Imm(port) or Reg(EDX), `src` = AL/EAX.
    Out,
    /// CPU identification.
    Cpuid,
    /// Read time-stamp counter.
    Rdtsc,
    /// MOV from control register (`dst` = GPR, `src` = Cr).
    MovFromCr,
    /// MOV to control register (`dst` = Cr, `src` = GPR).
    MovToCr,
    /// TLB entry invalidation; `dst` is the memory operand whose
    /// address is invalidated.
    Invlpg,
    /// Load IDT register from a 6-byte memory descriptor.
    Lidt,
    /// String move (`[EDI] <- [ESI]`, advance both).
    Movs,
    /// String store (`[EDI] <- AL/EAX`, advance EDI).
    Stos,
    /// String load (`AL/EAX <- [ESI]`, advance ESI).
    Lods,
    /// Hypercall from an enlightened guest (VMCALL).
    Vmcall,
    /// No operation.
    Nop,
}

/// A fully decoded instruction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Insn {
    /// The operation.
    pub op: Op,
    /// Destination operand.
    pub dst: Operand,
    /// Source operand.
    pub src: Operand,
    /// Operand size.
    pub size: OpSize,
    /// REP prefix present (string instructions only).
    pub rep: bool,
    /// Encoded length in bytes.
    pub len: u8,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opsize_properties() {
        assert_eq!(OpSize::Byte.bytes(), 1);
        assert_eq!(OpSize::Dword.bytes(), 4);
        assert_eq!(OpSize::Byte.mask(), 0xff);
        assert_eq!(OpSize::Dword.mask(), u32::MAX);
        assert_eq!(OpSize::Byte.sign_bit(), 0x80);
        assert_eq!(OpSize::Dword.sign_bit(), 0x8000_0000);
    }

    #[test]
    fn aluop_decode_order() {
        assert_eq!(AluOp::from_num(0), AluOp::Add);
        assert_eq!(AluOp::from_num(5), AluOp::Sub);
        assert_eq!(AluOp::from_num(7), AluOp::Cmp);
    }

    #[test]
    fn cond_decode_order() {
        assert_eq!(Cond::from_num(4), Cond::E);
        assert_eq!(Cond::from_num(5), Cond::Ne);
        assert_eq!(Cond::from_num(15), Cond::G);
    }
}
