//! Architectural register state: general-purpose registers, EFLAGS,
//! control registers, and the interrupt descriptor table register.

/// 32-bit general-purpose registers, numbered with their hardware
/// encoding (the `reg` field of a ModRM byte).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Reg {
    Eax = 0,
    Ecx = 1,
    Edx = 2,
    Ebx = 3,
    Esp = 4,
    Ebp = 5,
    Esi = 6,
    Edi = 7,
}

impl Reg {
    /// All registers in encoding order.
    pub const ALL: [Reg; 8] = [
        Reg::Eax,
        Reg::Ecx,
        Reg::Edx,
        Reg::Ebx,
        Reg::Esp,
        Reg::Ebp,
        Reg::Esi,
        Reg::Edi,
    ];

    /// Decodes a 3-bit hardware register number.
    #[inline]
    pub fn from_num(n: u8) -> Reg {
        Self::ALL[(n & 7) as usize]
    }

    /// The hardware encoding of the register.
    #[inline]
    pub fn num(self) -> u8 {
        self as u8
    }
}

/// 8-bit register names, numbered with their hardware encoding.
/// `Al..Bl` alias the low byte of `Eax..Ebx`; `Ah..Bh` alias bits 8–15.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Reg8 {
    Al = 0,
    Cl = 1,
    Dl = 2,
    Bl = 3,
    Ah = 4,
    Ch = 5,
    Dh = 6,
    Bh = 7,
}

impl Reg8 {
    /// All 8-bit registers in encoding order.
    pub const ALL: [Reg8; 8] = [
        Reg8::Al,
        Reg8::Cl,
        Reg8::Dl,
        Reg8::Bl,
        Reg8::Ah,
        Reg8::Ch,
        Reg8::Dh,
        Reg8::Bh,
    ];

    /// Decodes a 3-bit hardware register number.
    #[inline]
    pub fn from_num(n: u8) -> Reg8 {
        Self::ALL[(n & 7) as usize]
    }

    /// The 32-bit register this 8-bit register aliases.
    #[inline]
    pub fn parent(self) -> Reg {
        Reg::from_num(self as u8 & 3)
    }

    /// `true` if this names bits 8–15 of the parent register (AH/CH/DH/BH).
    #[inline]
    pub fn is_high(self) -> bool {
        self as u8 >= 4
    }
}

/// EFLAGS bit positions and masks.
pub mod flags {
    /// Carry flag.
    pub const CF: u32 = 1 << 0;
    /// Reserved bit 1; always set on real hardware.
    pub const R1: u32 = 1 << 1;
    /// Zero flag.
    pub const ZF: u32 = 1 << 6;
    /// Sign flag.
    pub const SF: u32 = 1 << 7;
    /// Interrupt-enable flag.
    pub const IF: u32 = 1 << 9;
    /// Direction flag.
    pub const DF: u32 = 1 << 10;
    /// Overflow flag.
    pub const OF: u32 = 1 << 11;

    /// The arithmetic status flags updated by ALU operations.
    pub const STATUS: u32 = CF | ZF | SF | OF;
}

/// Exception vector numbers used by the subset.
pub mod vector {
    /// #DE — divide error.
    pub const DIVIDE_ERROR: u8 = 0;
    /// #UD — invalid opcode.
    pub const INVALID_OPCODE: u8 = 6;
    /// #GP — general protection fault.
    pub const GP_FAULT: u8 = 13;
    /// #PF — page fault.
    pub const PAGE_FAULT: u8 = 14;
}

/// CR0 bit masks.
pub mod cr0 {
    /// Protected-mode enable (always set in our flat model).
    pub const PE: u32 = 1 << 0;
    /// Monitor coprocessor (lazy-FPU plumbing; not paging-relevant).
    pub const MP: u32 = 1 << 1;
    /// Task switched (toggled on every context switch by lazy-FPU
    /// kernels; not paging-relevant).
    pub const TS: u32 = 1 << 3;
    /// Write protect: when set, supervisor writes honor read-only PTEs.
    pub const WP: u32 = 1 << 16;
    /// Paging enable.
    pub const PG: u32 = 1 << 31;

    /// The bits whose value changes paging semantics — the only CR0
    /// writes that may invalidate cached translations.
    pub const PAGING_MASK: u32 = PE | WP | PG;
}

/// CR4 bit masks.
pub mod cr4 {
    /// Page-size extensions (4 MB guest pages).
    pub const PSE: u32 = 1 << 4;
    /// Physical-address extension (unsupported; tracked for flushes).
    pub const PAE: u32 = 1 << 5;
    /// Page global enable (honors [`crate::paging::pte::G`]).
    pub const PGE: u32 = 1 << 7;

    /// The bits whose value changes paging semantics — the only CR4
    /// writes that may invalidate cached translations.
    pub const PAGING_MASK: u32 = PSE | PAE | PGE;
}

/// Page-fault error-code bits (pushed with #PF).
pub mod pf_err {
    /// Fault caused by a protection violation (page present).
    pub const PRESENT: u32 = 1 << 0;
    /// Fault caused by a write access.
    pub const WRITE: u32 = 1 << 1;
    /// Fault taken while in user mode (CPL 3).
    pub const USER: u32 = 1 << 2;
    /// Fault caused by an instruction fetch.
    pub const FETCH: u32 = 1 << 4;
}

/// The full architectural register file of one (virtual) CPU.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Regs {
    /// General-purpose registers indexed by [`Reg`] encoding.
    pub gpr: [u32; 8],
    /// Instruction pointer.
    pub eip: u32,
    /// Flags register.
    pub eflags: u32,
    /// Control register 0 (PE, PG).
    pub cr0: u32,
    /// Control register 2 (page-fault linear address).
    pub cr2: u32,
    /// Control register 3 (page-directory base).
    pub cr3: u32,
    /// Control register 4 (PSE).
    pub cr4: u32,
    /// IDT base linear address (loaded by LIDT).
    pub idt_base: u32,
    /// IDT limit in bytes (loaded by LIDT).
    pub idt_limit: u16,
}

impl Default for Regs {
    fn default() -> Self {
        Regs {
            gpr: [0; 8],
            eip: 0,
            eflags: flags::R1,
            cr0: cr0::PE,
            cr2: 0,
            cr3: 0,
            cr4: 0,
            idt_base: 0,
            idt_limit: 0,
        }
    }
}

impl Regs {
    /// Creates a register file with execution starting at `eip`.
    pub fn at(eip: u32) -> Regs {
        Regs {
            eip,
            ..Regs::default()
        }
    }

    /// Reads a 32-bit register.
    #[inline]
    pub fn get(&self, r: Reg) -> u32 {
        self.gpr[r as usize]
    }

    /// Writes a 32-bit register.
    #[inline]
    pub fn set(&mut self, r: Reg, v: u32) {
        self.gpr[r as usize] = v;
    }

    /// Reads an 8-bit register.
    #[inline]
    pub fn get8(&self, r: Reg8) -> u8 {
        let v = self.gpr[r.parent() as usize];
        if r.is_high() {
            (v >> 8) as u8
        } else {
            v as u8
        }
    }

    /// Writes an 8-bit register.
    #[inline]
    pub fn set8(&mut self, r: Reg8, v: u8) {
        let p = r.parent() as usize;
        if r.is_high() {
            self.gpr[p] = (self.gpr[p] & !0xff00) | ((v as u32) << 8);
        } else {
            self.gpr[p] = (self.gpr[p] & !0xff) | v as u32;
        }
    }

    /// Reads a control register by number. Only CR0, CR2, CR3, CR4 exist.
    pub fn get_cr(&self, n: u8) -> u32 {
        match n {
            0 => self.cr0,
            2 => self.cr2,
            3 => self.cr3,
            4 => self.cr4,
            _ => 0,
        }
    }

    /// Writes a control register by number.
    pub fn set_cr(&mut self, n: u8, v: u32) {
        match n {
            0 => self.cr0 = v,
            2 => self.cr2 = v,
            3 => self.cr3 = v,
            4 => self.cr4 = v,
            _ => {}
        }
    }

    /// `true` if paging is enabled (CR0.PG).
    #[inline]
    pub fn paging(&self) -> bool {
        self.cr0 & cr0::PG != 0
    }

    /// `true` if maskable interrupts are enabled (EFLAGS.IF).
    #[inline]
    pub fn if_set(&self) -> bool {
        self.eflags & flags::IF != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_roundtrip() {
        for (i, r) in Reg::ALL.iter().enumerate() {
            assert_eq!(r.num() as usize, i);
            assert_eq!(Reg::from_num(i as u8), *r);
        }
    }

    #[test]
    fn reg8_aliasing() {
        let mut regs = Regs::default();
        regs.set(Reg::Eax, 0xdead_beef);
        assert_eq!(regs.get8(Reg8::Al), 0xef);
        assert_eq!(regs.get8(Reg8::Ah), 0xbe);
        regs.set8(Reg8::Ah, 0x12);
        assert_eq!(regs.get(Reg::Eax), 0xdead_12ef);
        regs.set8(Reg8::Al, 0x34);
        assert_eq!(regs.get(Reg::Eax), 0xdead_1234);
    }

    #[test]
    fn reg8_parents() {
        assert_eq!(Reg8::Al.parent(), Reg::Eax);
        assert_eq!(Reg8::Ah.parent(), Reg::Eax);
        assert_eq!(Reg8::Bh.parent(), Reg::Ebx);
        assert!(Reg8::Dh.is_high());
        assert!(!Reg8::Dl.is_high());
    }

    #[test]
    fn cr_access() {
        let mut regs = Regs::default();
        regs.set_cr(3, 0x1000);
        assert_eq!(regs.get_cr(3), 0x1000);
        assert_eq!(regs.cr3, 0x1000);
        regs.set_cr(0, cr0::PE | cr0::PG);
        assert!(regs.paging());
    }

    #[test]
    fn default_flags_have_reserved_bit() {
        let regs = Regs::default();
        assert_eq!(regs.eflags & flags::R1, flags::R1);
        assert!(!regs.if_set());
    }
}
