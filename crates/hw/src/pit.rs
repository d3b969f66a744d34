//! Intel 8254 programmable interval timer (channel 0, rate generator):
//! the register protocol and nothing else.
//!
//! The guest OS and the microhypervisor's scheduling timer both
//! program channel 0 with a divisor of the 1.193182 MHz input clock;
//! the pulses on IRQ 0 are the "Hardware Interrupts" rows of Table 2.
//! Like [`crate::pic::DualPic`], the one struct here is instantiated
//! by the platform bus ([`crate::platform::Pit`]), by the VMM's
//! virtual timer and by the monolithic baseline. Each of them brings
//! its own clock (a bus event, a hypervisor timer, a deadline in the
//! run loop) and its own way to IRQ 0; none of them knows the latch.

use crate::Cycles;

/// PIT input clock in Hz.
pub const PIT_HZ: u64 = 1_193_182;

/// Channel 0 data port.
pub const CH0: u16 = 0x40;
/// Mode/command port.
pub const MODE: u16 = 0x43;

/// IRQ line pulsed by channel 0.
pub const IRQ: u8 = 0;

/// The 8254's channel 0 in lobyte/hibyte access mode (channels 1–2
/// are legacy DRAM refresh / speaker and unused here).
#[derive(Clone, Debug)]
pub struct Pit8254 {
    divisor: u32,
    /// Low byte of a divisor write in progress.
    lo: Option<u8>,
}

impl Default for Pit8254 {
    fn default() -> Self {
        Self::new()
    }
}

impl Pit8254 {
    /// The chip at hardware reset: divisor 65536, no write in progress.
    pub fn new() -> Pit8254 {
        Pit8254 {
            divisor: 0x1_0000,
            lo: None,
        }
    }

    /// Size of the record [`Pit8254::export_state`] writes.
    pub const STATE_LEN: usize = 6;

    /// The chip's whole state as a checkpoint record: the divisor,
    /// then whether a divisor write is in progress and its low byte.
    pub fn export_state(&self) -> [u8; Self::STATE_LEN] {
        let d = self.divisor.to_le_bytes();
        [
            d[0],
            d[1],
            d[2],
            d[3],
            self.lo.is_some() as u8,
            self.lo.unwrap_or(0),
        ]
    }

    /// Restores a record [`Pit8254::export_state`] wrote.
    pub fn import_state(&mut self, s: &[u8; Self::STATE_LEN]) {
        self.divisor = u32::from_le_bytes([s[0], s[1], s[2], s[3]]);
        self.lo = (s[4] != 0).then_some(s[5]);
    }

    /// Port write; `true` when it completed a divisor (the counter
    /// reloads and the owner restarts its clock). A mode write abandons
    /// a half-written divisor; a divisor of 0 counts 65536.
    #[inline]
    pub fn write(&mut self, port: u16, val: u8) -> bool {
        match port {
            MODE => self.lo = None,
            CH0 => match self.lo.take() {
                None => self.lo = Some(val),
                Some(lo) => {
                    let d = (val as u32) << 8 | lo as u32;
                    self.divisor = if d == 0 { 0x1_0000 } else { d };
                    return true;
                }
            },
            _ => {}
        }
        false
    }

    /// Port read. Counter latch reads are not modeled (the count reads
    /// 0); the unused channels and the write-only mode port float.
    #[inline]
    pub fn read(&self, port: u16) -> u8 {
        if port == CH0 {
            0
        } else {
            0xff
        }
    }

    /// Cycles between IRQ pulses at the current divisor on a CPU
    /// clocked at `cpu_hz`.
    pub fn period_cycles(&self, cpu_hz: u64) -> Cycles {
        (self.divisor as u64 * cpu_hz / PIT_HZ).max(1)
    }

    /// The divisor that makes channel 0 tick `hz` times a second.
    pub fn divisor_for(hz: u64) -> u16 {
        (PIT_HZ / hz.max(1)).clamp(1, 0xffff) as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(p: &mut Pit8254, divisor: u16) -> bool {
        p.write(MODE, 0x34);
        assert!(!p.write(CH0, divisor as u8), "low byte only latches");
        p.write(CH0, (divisor >> 8) as u8)
    }

    #[test]
    fn lobyte_hibyte_completes_on_the_second_write() {
        let mut p = Pit8254::new();
        assert!(program(&mut p, 0x03e8));
        assert_eq!((p.divisor, p.lo), (0x3e8, None));
        assert_eq!(p.period_cycles(PIT_HZ), 1000);
    }

    #[test]
    fn mode_write_abandons_a_half_written_divisor() {
        let mut p = Pit8254::new();
        assert!(!p.write(CH0, 0x11));
        assert_eq!(p.lo, Some(0x11));
        assert!(program(&mut p, 0x2000));
        assert_eq!(p.divisor, 0x2000, "0x11 was dropped, not used as low");
    }

    #[test]
    fn zero_divisor_means_65536() {
        let mut p = Pit8254::new();
        assert_eq!(p.period_cycles(PIT_HZ), 0x1_0000, "reset value");
        program(&mut p, 5);
        assert!(program(&mut p, 0));
        assert_eq!(p.divisor, 0x1_0000);
    }

    #[test]
    fn state_round_trips_mid_write() {
        let mut p = Pit8254::new();
        program(&mut p, 0x1234);
        p.write(CH0, 0x56);
        let mut q = Pit8254::new();
        q.import_state(&p.export_state());
        assert_eq!((q.divisor, q.lo), (0x1234, Some(0x56)));
        assert!(q.write(CH0, 0x78), "the restored chip finishes the write");
        assert_eq!(q.divisor, 0x7856);
    }

    #[test]
    fn period_scales_with_cpu_clock() {
        let p = Pit8254::new();
        assert_eq!(p.period_cycles(2 * PIT_HZ), 2 * p.period_cycles(PIT_HZ));
    }

    #[test]
    fn only_the_count_reads_back() {
        let p = Pit8254::new();
        assert_eq!(p.read(CH0), 0);
        assert_eq!((p.read(0x41), p.read(MODE)), (0xff, 0xff));
    }

    #[test]
    fn divisor_for_a_tick_rate() {
        assert_eq!(Pit8254::divisor_for(1000), 1193);
        assert_eq!(Pit8254::divisor_for(1), 0xffff, "clamped to 16 bits");
        assert_eq!(Pit8254::divisor_for(0), 0xffff);
    }
}
