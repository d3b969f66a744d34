//! Dual 8259A programmable interrupt controller.
//!
//! The platform PIC pair routes 16 interrupt lines to the CPU. The same
//! model type is reused by the VMM as its *virtual* interrupt
//! controller (Section 7): masking, acknowledging and unmasking at the
//! virtual PIC is what produces the port-I/O exits that dominate
//! Table 2's EPT column.
//!
//! The model implements the usual operating subset: edge-triggered
//! requests, the IMR, non-specific EOI, ICW1/ICW2 initialization for
//! the vector offsets, and master/slave cascading on line 2.

/// Fixed-priority resolution (line 0 highest): the lowest ready line
/// wins unless a line at or above its priority is in service — a line
/// in service blocks itself and everything below. Both counts read 8
/// on an empty register, so nothing ready resolves to `None`.
fn resolve(ready: u8, isr: u8) -> Option<u8> {
    let line = ready.trailing_zeros();
    (line < isr.trailing_zeros()).then_some(line as u8)
}

/// One 8259 chip.
#[derive(Clone, Debug)]
struct Chip {
    /// Interrupt request register (pending lines).
    irr: u8,
    /// In-service register.
    isr: u8,
    /// Interrupt mask register (1 = masked).
    imr: u8,
    /// Vector offset programmed by ICW2.
    offset: u8,
    /// Initialization state machine: number of ICWs still expected.
    init_state: u8,
}

impl Chip {
    fn new(offset: u8) -> Chip {
        Chip {
            irr: 0,
            isr: 0,
            imr: 0xff,
            offset,
            init_state: 0,
        }
    }

    /// Highest-priority pending, unmasked line, honouring in-service
    /// priority.
    fn best(&self) -> Option<u8> {
        resolve(self.irr & !self.imr, self.isr)
    }

    fn ack(&mut self, line: u8) {
        self.irr &= !(1 << line);
        self.isr |= 1 << line;
    }

    fn eoi(&mut self) {
        // Non-specific EOI: clear the highest-priority in-service bit.
        for l in 0..8 {
            if self.isr & (1 << l) != 0 {
                self.isr &= !(1 << l);
                return;
            }
        }
    }

    fn command(&mut self, val: u8) {
        if val & 0x10 != 0 {
            // ICW1: begin initialization; expect ICW2..ICW4.
            self.init_state = 3;
            self.imr = 0;
            self.isr = 0;
            self.irr = 0;
        } else if val & 0x20 != 0 {
            self.eoi();
        }
    }

    fn data_write(&mut self, val: u8) {
        match self.init_state {
            3 => {
                self.offset = val & 0xf8;
                self.init_state = 2;
            }
            2 => self.init_state = 1, // ICW3 (cascade wiring) ignored
            1 => self.init_state = 0, // ICW4 ignored
            _ => self.imr = val,      // OCW1
        }
    }

    fn data_read(&self) -> u8 {
        self.imr
    }
}

/// The master/slave 8259 pair (lines 0–7 master, 8–15 slave cascaded
/// on master line 2).
#[derive(Clone, Debug)]
pub struct DualPic {
    master: Chip,
    slave: Chip,
    /// Level state of the 16 input lines (for edge detection).
    lines: u16,
}

/// Master PIC command port.
pub const MASTER_CMD: u16 = 0x20;
/// Master PIC data port.
pub const MASTER_DATA: u16 = 0x21;
/// Slave PIC command port.
pub const SLAVE_CMD: u16 = 0xa0;
/// Slave PIC data port.
pub const SLAVE_DATA: u16 = 0xa1;

impl Default for DualPic {
    fn default() -> Self {
        Self::new()
    }
}

impl DualPic {
    /// Creates the pair with the conventional remapped offsets 0x20 /
    /// 0x28 and all lines masked.
    pub fn new() -> DualPic {
        DualPic {
            master: Chip::new(0x20),
            slave: Chip::new(0x28),
            lines: 0,
        }
    }

    /// `true` if `port` belongs to the PIC pair.
    pub fn owns_port(port: u16) -> bool {
        matches!(port, MASTER_CMD | MASTER_DATA | SLAVE_CMD | SLAVE_DATA)
    }

    /// Drives interrupt line `line` (0–15) to `level`; a rising edge
    /// latches a request.
    pub fn set_line(&mut self, line: u8, level: bool) {
        let bit = 1u16 << line;
        let was = self.lines & bit != 0;
        if level && !was {
            if line < 8 {
                self.master.irr |= 1 << line;
            } else {
                self.slave.irr |= 1 << (line - 8);
            }
        }
        if level {
            self.lines |= bit;
        } else {
            self.lines &= !bit;
        }
    }

    /// Pulses a line (edge-triggered request).
    pub fn pulse(&mut self, line: u8) {
        self.set_line(line, true);
        self.set_line(line, false);
    }

    /// Master arbitration with the slave's INT output mirrored onto
    /// line 2: the winning master line, honouring IMR and in-service
    /// priority. A pending slave request only wins if line 2 is the
    /// master's highest-priority ready line.
    fn master_best(&self) -> Option<u8> {
        let cascade = if self.slave.best().is_some() {
            1 << 2
        } else {
            0
        };
        resolve(
            (self.master.irr | cascade) & !self.master.imr,
            self.master.isr,
        )
    }

    /// `true` if any unmasked interrupt is pending (the INTR pin).
    /// With both request registers empty nothing is, whatever the
    /// masks and in-service bits say.
    #[inline]
    pub fn intr(&self) -> bool {
        if self.master.irr | self.slave.irr == 0 {
            return false;
        }
        self.master_best()
            .is_some_and(|l| l != 2 || self.slave.best().is_some())
    }

    /// CPU interrupt acknowledge: returns the vector of the
    /// highest-priority pending interrupt and moves it in-service.
    pub fn ack(&mut self) -> Option<u8> {
        let l = self.master_best()?;
        if l == 2 {
            // Slave interrupts arrive through master line 2.
            let sl = self.slave.best()?;
            self.slave.ack(sl);
            self.master.irr |= 1 << 2;
            self.master.ack(2);
            return Some(self.slave.offset + sl);
        }
        self.master.ack(l);
        Some(self.master.offset + l)
    }

    /// Port read (CPU or VMM access).
    pub fn io_read(&mut self, port: u16) -> u8 {
        match port {
            MASTER_CMD => self.master.irr,
            MASTER_DATA => self.master.data_read(),
            SLAVE_CMD => self.slave.irr,
            SLAVE_DATA => self.slave.data_read(),
            _ => 0,
        }
    }

    /// Port write (CPU or VMM access).
    pub fn io_write(&mut self, port: u16, val: u8) {
        match port {
            MASTER_CMD => self.master.command(val),
            MASTER_DATA => self.master.data_write(val),
            SLAVE_CMD => self.slave.command(val),
            SLAVE_DATA => self.slave.data_write(val),
            _ => {}
        }
    }

    /// The current interrupt mask as a 16-bit word (diagnostics).
    pub fn mask(&self) -> u16 {
        self.master.imr as u16 | (self.slave.imr as u16) << 8
    }

    /// Serializes the full controller state (both chips plus the line
    /// levels) into [`DualPic::STATE_LEN`] bytes. Together with
    /// [`DualPic::import_state`] this lets a supervisor checkpoint a
    /// virtual PIC without the model exposing its registers.
    pub fn export_state(&self) -> [u8; Self::STATE_LEN] {
        [
            self.master.irr,
            self.master.isr,
            self.master.imr,
            self.master.offset,
            self.master.init_state,
            self.slave.irr,
            self.slave.isr,
            self.slave.imr,
            self.slave.offset,
            self.slave.init_state,
            (self.lines & 0xff) as u8,
            (self.lines >> 8) as u8,
        ]
    }

    /// Restores state produced by [`DualPic::export_state`].
    pub fn import_state(&mut self, s: &[u8; Self::STATE_LEN]) {
        self.master.irr = s[0];
        self.master.isr = s[1];
        self.master.imr = s[2];
        self.master.offset = s[3];
        self.master.init_state = s[4];
        self.slave.irr = s[5];
        self.slave.isr = s[6];
        self.slave.imr = s[7];
        self.slave.offset = s[8];
        self.slave.init_state = s[9];
        self.lines = s[10] as u16 | (s[11] as u16) << 8;
    }

    /// Size of the serialized state from [`DualPic::export_state`].
    pub const STATE_LEN: usize = 12;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unmasked() -> DualPic {
        let mut p = DualPic::new();
        p.io_write(MASTER_DATA, 0x00);
        p.io_write(SLAVE_DATA, 0x00);
        p
    }

    #[test]
    fn masked_by_default() {
        let mut p = DualPic::new();
        p.pulse(0);
        assert!(!p.intr());
    }

    #[test]
    fn ack_returns_offset_vector() {
        let mut p = unmasked();
        p.pulse(0);
        assert!(p.intr());
        assert_eq!(p.ack(), Some(0x20));
        assert!(!p.intr(), "in-service until EOI");
    }

    #[test]
    fn priority_order() {
        let mut p = unmasked();
        p.pulse(4);
        p.pulse(1);
        assert_eq!(p.ack(), Some(0x21), "line 1 beats line 4");
        p.io_write(MASTER_CMD, 0x20); // EOI
        assert_eq!(p.ack(), Some(0x24));
    }

    #[test]
    fn eoi_reenables_lower_priority() {
        let mut p = unmasked();
        p.pulse(3);
        assert_eq!(p.ack(), Some(0x23));
        p.pulse(5);
        assert!(!p.intr(), "lower priority blocked while 3 in service");
        p.io_write(MASTER_CMD, 0x20);
        assert!(p.intr());
        assert_eq!(p.ack(), Some(0x25));
    }

    #[test]
    fn imr_masks_line() {
        let mut p = unmasked();
        p.io_write(MASTER_DATA, 1 << 4);
        p.pulse(4);
        assert!(!p.intr());
        p.io_write(MASTER_DATA, 0);
        assert!(p.intr(), "request latched while masked");
    }

    #[test]
    fn slave_cascade() {
        let mut p = unmasked();
        p.pulse(11);
        assert!(p.intr());
        assert_eq!(p.ack(), Some(0x28 + 3));
        p.io_write(SLAVE_CMD, 0x20);
        p.io_write(MASTER_CMD, 0x20);
        assert!(!p.intr());
    }

    #[test]
    fn icw_reprogram_offset() {
        let mut p = DualPic::new();
        p.io_write(MASTER_CMD, 0x11); // ICW1
        p.io_write(MASTER_DATA, 0x40); // ICW2: offset 0x40
        p.io_write(MASTER_DATA, 0x04); // ICW3
        p.io_write(MASTER_DATA, 0x01); // ICW4
        p.io_write(MASTER_DATA, 0x00); // OCW1: unmask all
        p.pulse(2 + 1);
        assert_eq!(p.ack(), Some(0x43));
    }

    #[test]
    fn export_import_round_trips() {
        let mut p = unmasked();
        p.pulse(11);
        p.pulse(1);
        assert_eq!(p.ack(), Some(0x21));
        p.set_line(6, true);
        let snap = p.export_state();
        let mut q = DualPic::new();
        q.import_state(&snap);
        assert_eq!(q.export_state(), snap);
        assert_eq!(q.mask(), p.mask());
        assert_eq!(q.intr(), p.intr());
        assert_eq!(q.ack(), p.ack(), "restored PIC acks the same vector");
    }

    /// The 8-step scan `resolve` replaced, kept as the reference.
    fn scan(ready: u8, isr: u8) -> Option<u8> {
        for l in 0..8 {
            if isr & (1 << l) != 0 {
                return None;
            }
            if ready & (1 << l) != 0 {
                return Some(l);
            }
        }
        None
    }

    fn chip_best_ref(c: &Chip) -> Option<u8> {
        scan(c.irr & !c.imr, c.isr)
    }

    fn master_best_ref(p: &DualPic) -> Option<u8> {
        let cascade = if chip_best_ref(&p.slave).is_some() {
            1 << 2
        } else {
            0
        };
        scan((p.master.irr | cascade) & !p.master.imr, p.master.isr)
    }

    fn intr_ref(p: &DualPic) -> bool {
        master_best_ref(p).is_some_and(|l| l != 2 || chip_best_ref(&p.slave).is_some())
    }

    fn ack_ref(p: &mut DualPic) -> Option<u8> {
        let l = master_best_ref(p)?;
        if l == 2 {
            let sl = chip_best_ref(&p.slave)?;
            p.slave.ack(sl);
            p.master.irr |= 1 << 2;
            p.master.ack(2);
            return Some(p.slave.offset + sl);
        }
        p.master.ack(l);
        Some(p.master.offset + l)
    }

    #[test]
    fn chip_best_equals_the_scan_over_every_register_state() {
        let mut c = Chip::new(0x20);
        for state in 0..1u32 << 24 {
            c.irr = state as u8;
            c.imr = (state >> 8) as u8;
            c.isr = (state >> 16) as u8;
            assert_eq!(c.best(), chip_best_ref(&c), "irr/imr/isr {state:#08x}");
        }
    }

    #[test]
    fn dual_pic_arbitration_equals_the_scan_over_a_seeded_sweep() {
        // Registers are drawn sparse (the AND of two draws) half the
        // time so the cascade cases — slave pending with master line 2
        // masked, in service, or outranked — all turn up.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let (mut cascade_masked, mut cascade_in_service, mut via_slave) = (0, 0, 0);
        for _ in 0..200_000 {
            let (a, b) = (next().to_le_bytes(), next().to_le_bytes());
            let reg = |i: usize| if b[6] & 1 == 0 { a[i] } else { a[i] & b[i] };
            let mut p = DualPic::new();
            (p.master.irr, p.master.imr, p.master.isr) = (reg(0), reg(1), reg(2));
            (p.slave.irr, p.slave.imr, p.slave.isr) = (reg(3), reg(4), reg(5));
            let slave_pending = chip_best_ref(&p.slave).is_some();
            cascade_masked += (slave_pending && p.master.imr & 4 != 0) as u32;
            cascade_in_service += (slave_pending && p.master.isr & 4 != 0) as u32;

            assert_eq!(p.master_best(), master_best_ref(&p), "{p:?}");
            assert_eq!(p.intr(), intr_ref(&p), "{p:?}");
            let mut q = p.clone();
            let (got, want) = (p.ack(), ack_ref(&mut q));
            assert_eq!(got, want, "{q:?}");
            assert_eq!(p.export_state(), q.export_state(), "state after ack");
            via_slave += got.is_some_and(|v| v >= 0x28) as u32;
        }
        assert!(cascade_masked > 1000 && cascade_in_service > 1000 && via_slave > 1000);
    }

    #[test]
    fn edge_triggered_no_retrigger_on_level() {
        let mut p = unmasked();
        p.set_line(6, true);
        assert_eq!(p.ack(), Some(0x26));
        p.io_write(MASTER_CMD, 0x20);
        // Line still high: no new edge, no new request.
        assert!(!p.intr());
        p.set_line(6, false);
        p.set_line(6, true);
        assert!(p.intr());
    }
}
