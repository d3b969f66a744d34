//! 16550-style UART: the register file, by offset from the base port.
//! Output is captured into a buffer so guests can log; the transmitter
//! is always ready. The platform's COM1, the VMM's virtual UART and the
//! monolithic baseline's console are all this struct.

/// COM1 base port.
pub const COM1: u16 = 0x3f8;

/// COM1's last port: the UART has eight registers.
pub const COM1_LAST: u16 = COM1 + 7;

/// Line-status register offset.
const LSR: u16 = 5;

/// The UART.
#[derive(Default)]
pub struct Uart16550 {
    /// Captured transmitted bytes.
    pub output: Vec<u8>,
}

impl Uart16550 {
    /// Register read at `off` from the base port.
    #[inline]
    pub fn read(&self, off: u16) -> u8 {
        match off {
            LSR => 0x60, // transmitter empty + holding register empty
            _ => 0,
        }
    }

    /// Register write: offset 0 transmits, the rest (IER, LCR, ...) is
    /// accepted and ignored.
    #[inline]
    pub fn write(&mut self, off: u16, val: u8) {
        if off == 0 {
            self.output.push(val);
        }
    }

    /// The chip's state as a checkpoint record: what it transmitted.
    pub fn export_state(&self) -> &[u8] {
        &self.output
    }

    /// Restores a record [`Uart16550::export_state`] wrote.
    pub fn import_state(&mut self, s: &[u8]) {
        self.output = s.to_vec();
    }

    /// Captured output as a lossy string.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.output).into_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn captures_data_writes_only() {
        let mut s = Uart16550::default();
        s.write(0, b'o');
        s.write(0, b'k');
        s.write(1, 0xff); // IER write, not data
        assert_eq!(s.text(), "ok");
        assert_eq!(s.read(LSR) & 0x20, 0x20, "transmitter ready");
        assert_eq!(s.read(0), 0);
    }
}
