//! i8042 keyboard controller (PS/2): one of the legacy devices the
//! paper's NOVA environment drives (Section 4). Scancodes are injected
//! by whoever owns the keyboard (the harness standing in for a human,
//! or the VMM's owner) and drained through ports 0x60/0x64. This is
//! the output buffer alone; IRQ 1 belongs to the platform adapter
//! ([`crate::platform::Kbd`]) and to the VMM's device dispatch.

use std::collections::VecDeque;

/// Data port.
pub const DATA: u16 = 0x60;
/// Status/command port.
pub const STATUS: u16 = 0x64;
/// Interrupt line.
pub const IRQ: u8 = 1;

/// Status bit: output buffer full.
pub const STS_OBF: u8 = 1 << 0;

/// The controller's output buffer.
#[derive(Default)]
pub struct I8042 {
    /// Scancodes not yet read, oldest first.
    pub queue: VecDeque<u8>,
}

impl I8042 {
    /// Queues a scancode as if a key was pressed.
    pub fn inject(&mut self, scancode: u8) {
        self.queue.push_back(scancode);
    }

    /// The controller's state as a checkpoint record: the scancodes
    /// not yet read, oldest first.
    pub fn export_state(&self) -> Vec<u8> {
        self.queue.iter().copied().collect()
    }

    /// Restores a record [`I8042::export_state`] wrote.
    pub fn import_state(&mut self, s: &[u8]) {
        self.queue = s.iter().copied().collect();
    }

    /// `true` while scancodes wait in the output buffer.
    pub fn pending(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Port read: the data port pops the oldest scancode (0 when
    /// empty), the status port reports OBF.
    #[inline]
    pub fn read(&mut self, port: u16) -> u8 {
        match port {
            DATA => self.queue.pop_front().unwrap_or(0),
            STATUS if self.pending() => STS_OBF,
            STATUS => 0,
            _ => 0xff,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scancodes_drain_in_order() {
        let mut k = I8042::default();
        k.inject(0x1e); // 'a'
        k.inject(0x30); // 'b'
        assert_eq!(k.read(STATUS), STS_OBF);
        assert_eq!((k.read(DATA), k.read(DATA)), (0x1e, 0x30));
        assert_eq!(k.read(STATUS), 0);
        assert_eq!(k.read(DATA), 0, "empty reads 0");
    }
}
