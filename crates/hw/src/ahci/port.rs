//! The AHCI register file of a one-port HBA: generic host control and
//! port 0, as the driver sees it. The platform controller, the VMM's
//! virtual controller and the monolithic baseline's in-kernel model
//! are each a [`PortRegs`] plus whatever moves the data; the offsets
//! are decoded here and nowhere else.

/// Register offsets (subset of AHCI).
pub mod regs {
    /// Host capabilities (RO).
    pub const CAP: u32 = 0x00;
    /// Global host control.
    pub const GHC: u32 = 0x04;
    /// Interrupt status (one bit per port, write-1-to-clear).
    pub const IS: u32 = 0x08;
    /// Ports implemented (RO).
    pub const PI: u32 = 0x0c;
    /// Port 0 command-list base.
    pub const P0CLB: u32 = 0x100;
    /// Port 0 command-list base, upper 32 bits.
    pub const P0CLB2: u32 = 0x104;
    /// Port 0 FIS base.
    pub const P0FB: u32 = 0x108;
    /// Port 0 interrupt status (W1C).
    pub const P0IS: u32 = 0x110;
    /// Port 0 interrupt enable.
    pub const P0IE: u32 = 0x114;
    /// Port 0 command/status.
    pub const P0CMD: u32 = 0x118;
    /// Port 0 task-file data.
    pub const P0TFD: u32 = 0x120;
    /// Port 0 command issue (doorbell).
    pub const P0CI: u32 = 0x138;
}

/// `P0IS` bit: device-to-host register FIS received (a command
/// completed).
pub const P0IS_DHRS: u32 = 1 << 0;
/// `P0IS` bit: task-file error (a command failed).
pub const P0IS_TFES: u32 = 1 << 30;

/// What a register write asks of the controller behind the registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PortEvent {
    /// Nothing beyond the register update.
    None,
    /// `P0CI` write: the mask of command slots that were idle and are
    /// now issued (see [`slots`]); bits for busy slots are dropped.
    Doorbell(u32),
    /// `GHC.HR` was written. The registers are *not* cleared: a
    /// controller that implements the reset replaces them with
    /// [`PortRegs::default`] and aborts what is in flight.
    Reset,
}

/// The slot numbers set in a [`PortEvent::Doorbell`] mask, ascending.
#[inline]
pub fn slots(mask: u32) -> impl Iterator<Item = u8> {
    (0..32u8).filter(move |s| mask & (1 << s) != 0)
}

/// The register file. No field constrains another — software can
/// write-1-to-clear `IS` and leave `P0IS` set — so they are public:
/// checkpoints and tests read and write them directly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PortRegs {
    /// Command-list base (`P0CLB` / `P0CLB2`).
    pub clb: u64,
    /// Received-FIS base (`P0FB`).
    pub fb: u64,
    /// HBA interrupt status (bit 0 = port 0).
    pub is: u32,
    /// Port 0 interrupt status.
    pub p0is: u32,
    /// Port 0 interrupt enable.
    pub p0ie: u32,
    /// Issued command slots.
    pub ci: u32,
}

impl PortRegs {
    /// Register read at byte offset `off`.
    #[inline]
    pub fn read(&self, off: u32) -> u32 {
        match off {
            regs::CAP => 0x4000_0000, // 64-bit addressing, 1 port
            regs::GHC => 0x8000_0002, // AE | IE
            regs::IS => self.is,
            regs::PI => 1,
            regs::P0CLB => self.clb as u32,
            regs::P0CLB2 => (self.clb >> 32) as u32,
            regs::P0FB => self.fb as u32,
            regs::P0IS => self.p0is,
            regs::P0IE => self.p0ie,
            regs::P0CMD => 0x0000_c011, // started, FIS receive enabled
            regs::P0TFD => 0x50,        // ready, no error
            regs::P0CI => self.ci,
            _ => 0,
        }
    }

    /// Register write at byte offset `off`.
    #[inline]
    pub fn write(&mut self, off: u32, val: u32) -> PortEvent {
        match off {
            regs::GHC if val & 1 != 0 => return PortEvent::Reset,
            regs::IS => self.is &= !val,
            regs::P0CLB => self.clb = (self.clb & !0xffff_ffff) | val as u64,
            regs::P0CLB2 => self.clb = (self.clb & 0xffff_ffff) | (val as u64) << 32,
            regs::P0FB => self.fb = val as u64,
            regs::P0IS => self.p0is &= !val,
            regs::P0IE => self.p0ie = val,
            regs::P0CI => {
                let new = val & !self.ci;
                self.ci |= val;
                return PortEvent::Doorbell(new);
            }
            _ => {}
        }
        PortEvent::None
    }

    /// Retires the command in `slot`: frees the slot, posts `DHRS`
    /// (`ok`) or `TFES`, and sets the port's bit in `IS`. Returns
    /// `true` if the port's interrupts are enabled — the line should
    /// rise.
    #[inline]
    pub fn complete(&mut self, slot: u8, ok: bool) -> bool {
        self.ci &= !1u32.wrapping_shl(slot as u32);
        self.p0is |= if ok { P0IS_DHRS } else { P0IS_TFES };
        self.is |= 1;
        self.p0ie != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doorbell_reports_only_idle_slots() {
        let mut r = PortRegs::default();
        assert_eq!(r.write(regs::P0CI, 0b101), PortEvent::Doorbell(0b101));
        assert_eq!(r.write(regs::P0CI, 0b111), PortEvent::Doorbell(0b010));
        assert_eq!(r.write(regs::P0CI, 0b001), PortEvent::Doorbell(0));
        assert_eq!(r.read(regs::P0CI), 0b111);
        assert_eq!(slots(0b1010_0001).collect::<Vec<_>>(), [0, 5, 7]);
    }

    #[test]
    fn completion_sequence_and_write_one_to_clear() {
        let mut r = PortRegs::default();
        r.write(regs::P0CI, 0b11);
        assert!(!r.complete(0, true), "interrupts off: no line");
        r.write(regs::P0IE, 1);
        assert!(r.complete(1, false));
        assert_eq!(r.ci, 0);
        assert_eq!(r.read(regs::P0IS), P0IS_DHRS | P0IS_TFES);
        assert_eq!(r.read(regs::IS), 1);
        // W1C of a bit that is not set clears nothing.
        r.write(regs::P0IS, 1 << 5);
        assert_eq!(r.p0is, P0IS_DHRS | P0IS_TFES);
        r.write(regs::P0IS, P0IS_TFES);
        assert_eq!(r.p0is, P0IS_DHRS);
        r.write(regs::IS, 1);
        assert_eq!(r.is, 0);
    }

    #[test]
    fn command_list_base_is_two_halves() {
        let mut r = PortRegs::default();
        r.write(regs::P0CLB2, 0x1);
        r.write(regs::P0CLB, 0x8000_0400);
        assert_eq!(r.clb, 0x1_8000_0400);
        assert_eq!(
            (r.read(regs::P0CLB), r.read(regs::P0CLB2)),
            (0x8000_0400, 1)
        );
    }

    #[test]
    fn reset_is_reported_not_applied() {
        let mut r = PortRegs::default();
        r.write(regs::P0IE, 1);
        assert_eq!(r.write(regs::GHC, 1), PortEvent::Reset);
        assert_eq!(r.p0ie, 1, "the controller decides what a reset clears");
        assert_eq!(r.write(regs::GHC, 0x8000_0002), PortEvent::None);
        assert_eq!(r.read(regs::GHC), 0x8000_0002);
    }
}
