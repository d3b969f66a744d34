//! The platform's side of the legacy chips: each register core
//! ([`Pit8254`], [`Uart16550`], [`I8042`], [`PciConfig`]) on the
//! device bus. What is here is what only the bare machine has — time
//! arriving as bus events, interrupts leaving through [`DevCtx`] and
//! the IOMMU's interrupt remapping — never a register protocol.

use nova_x86::insn::OpSize;

use crate::device::{DevCtx, Device};
use crate::kbd::{self, I8042};
use crate::pci::PciConfig;
use crate::pit::{self, Pit8254};
use crate::serial::{Uart16550, COM1};
use crate::Cycles;

/// The 8254 on the bus: channel 0 pulses IRQ 0 once per period.
pub struct Pit {
    chip: Pit8254,
    cpu_hz: u64,
    running: bool,
    /// Generation counter: stale scheduled events are ignored.
    generation: u64,
    /// Total IRQ pulses generated.
    pub ticks: u64,
}

impl Pit {
    /// Creates the timer for a CPU clocked at `cpu_hz`.
    pub fn new(cpu_hz: u64) -> Pit {
        Pit {
            chip: Pit8254::new(),
            cpu_hz,
            running: false,
            generation: 0,
            ticks: 0,
        }
    }

    /// Cycles between IRQ pulses at the current divisor.
    pub fn period_cycles(&self) -> Cycles {
        self.chip.period_cycles(self.cpu_hz)
    }
}

impl Device for Pit {
    fn name(&self) -> &'static str {
        "i8254"
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn io_write(&mut self, ctx: &mut DevCtx, port: u16, _size: OpSize, val: u32) {
        if self.chip.write(port, val as u8) {
            self.generation += 1;
            self.running = true;
            ctx.schedule(self.period_cycles(), self.generation);
        }
    }

    fn io_read(&mut self, _ctx: &mut DevCtx, port: u16, _size: OpSize) -> u32 {
        self.chip.read(port) as u32
    }

    fn event(&mut self, ctx: &mut DevCtx, token: u64) {
        if token != self.generation || !self.running {
            return; // stale timer from before a reprogram
        }
        self.ticks += 1;
        ctx.pulse_irq(pit::IRQ);
        ctx.schedule(self.period_cycles(), self.generation);
    }
}

impl Device for Uart16550 {
    fn name(&self) -> &'static str {
        "16550"
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn io_read(&mut self, _ctx: &mut DevCtx, port: u16, _size: OpSize) -> u32 {
        self.read(port - COM1) as u32
    }

    fn io_write(&mut self, _ctx: &mut DevCtx, port: u16, _size: OpSize, val: u32) {
        self.write(port - COM1, val as u8);
    }
}

/// The i8042 on the bus: IRQ 1 follows the output buffer.
#[derive(Default)]
pub struct Kbd {
    /// The controller (scancodes are injected here).
    pub chip: I8042,
    /// Scancodes consumed by software.
    pub read_count: u64,
}

impl Device for Kbd {
    fn name(&self) -> &'static str {
        "i8042"
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn io_read(&mut self, ctx: &mut DevCtx, port: u16, _size: OpSize) -> u32 {
        let v = self.chip.read(port);
        if port == kbd::DATA {
            self.read_count += 1;
            if self.chip.pending() {
                ctx.pulse_irq(kbd::IRQ);
            } else {
                ctx.lower_irq(kbd::IRQ);
            }
        }
        v as u32
    }

    fn event(&mut self, ctx: &mut DevCtx, _token: u64) {
        // Injection kick: assert the line while data waits.
        if self.chip.pending() {
            ctx.pulse_irq(kbd::IRQ);
        }
    }
}

impl Device for PciConfig {
    fn name(&self) -> &'static str {
        "pci-host"
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn io_read(&mut self, _ctx: &mut DevCtx, port: u16, size: OpSize) -> u32 {
        self.read(port, size)
    }

    fn io_write(&mut self, _ctx: &mut DevCtx, port: u16, _size: OpSize, val: u32) {
        self.write(port, val);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceBus;
    use crate::iommu::Iommu;
    use crate::mem::PhysMem;
    use crate::pic;
    use crate::pit::{CH0, MODE, PIT_HZ};

    fn pit_bus(cpu_hz: u64) -> (DeviceBus, PhysMem) {
        let mut bus = DeviceBus::new(Iommu::disabled());
        let dev = bus.add_device(Box::new(Pit::new(cpu_hz)));
        bus.map_ports(CH0, MODE, dev);
        bus.pic.io_write(pic::MASTER_DATA, 0); // unmask
        (bus, PhysMem::new(4096))
    }

    fn program(bus: &mut DeviceBus, mem: &mut PhysMem, divisor: u16) {
        bus.io_write(mem, 0, MODE, OpSize::Byte, 0x34);
        bus.io_write(mem, 0, CH0, OpSize::Byte, divisor as u32 & 0xff);
        bus.io_write(mem, 0, CH0, OpSize::Byte, (divisor >> 8) as u32);
    }

    #[test]
    fn periodic_ticks() {
        let (mut bus, mut mem) = pit_bus(PIT_HZ); // 1 cycle per PIT tick
        program(&mut bus, &mut mem, 1000);
        // First tick due at 1000 cycles.
        bus.process_events(&mut mem, 999);
        assert!(!bus.pic.intr());
        bus.process_events(&mut mem, 1000);
        assert!(bus.pic.intr());
        assert_eq!(bus.pic.ack(), Some(0x20));
        bus.pic.io_write(pic::MASTER_CMD, 0x20);
        // Second tick at 2000.
        bus.process_events(&mut mem, 2000);
        assert!(bus.pic.intr());
    }

    #[test]
    fn reprogram_cancels_old_cadence() {
        let (mut bus, mut mem) = pit_bus(PIT_HZ);
        program(&mut bus, &mut mem, 1000);
        // Immediately reprogram to 4000 before the first tick.
        program(&mut bus, &mut mem, 4000);
        bus.process_events(&mut mem, 1500);
        assert!(!bus.pic.intr(), "old 1000-cycle tick must not fire");
        bus.process_events(&mut mem, 4000);
        assert!(bus.pic.intr());
    }

    #[test]
    fn uart_answers_at_com1() {
        let mut bus = DeviceBus::new(Iommu::disabled());
        let dev = bus.add_device(Box::new(Uart16550::default()));
        bus.map_ports(COM1, COM1 + 7, dev);
        let mut mem = PhysMem::new(16);
        for b in b"hi" {
            bus.io_write(&mut mem, 0, COM1, OpSize::Byte, *b as u32);
        }
        assert_eq!(bus.typed_mut::<Uart16550>(dev).unwrap().text(), "hi");
        // LSR reports ready.
        assert_eq!(
            bus.io_read(&mut mem, 0, COM1 + 5, OpSize::Byte) & 0x20,
            0x20
        );
    }

    #[test]
    fn scancodes_drain_in_order_with_irq() {
        let mut bus = DeviceBus::new(Iommu::disabled());
        let dev = bus.add_device(Box::<Kbd>::default());
        bus.map_ports(kbd::DATA, kbd::STATUS, dev);
        bus.pic.io_write(pic::MASTER_DATA, 0);
        let mut mem = PhysMem::new(16);

        let k = bus.typed_mut::<Kbd>(dev).unwrap();
        k.chip.inject(0x1e); // 'a'
        k.chip.inject(0x30); // 'b'
        bus.events.schedule(
            0,
            crate::event::Event {
                device: dev,
                token: 0,
            },
        );
        bus.process_events(&mut mem, 0);
        assert!(bus.pic.intr());
        assert_eq!(bus.pic.ack(), Some(0x21), "IRQ 1");

        assert_eq!(
            bus.io_read(&mut mem, 0, kbd::STATUS, OpSize::Byte),
            kbd::STS_OBF as u32
        );
        assert_eq!(bus.io_read(&mut mem, 0, kbd::DATA, OpSize::Byte), 0x1e);
        assert_eq!(bus.io_read(&mut mem, 0, kbd::DATA, OpSize::Byte), 0x30);
        assert_eq!(bus.io_read(&mut mem, 0, kbd::STATUS, OpSize::Byte), 0);
        assert_eq!(bus.typed_mut::<Kbd>(dev).unwrap().read_count, 2);
    }
}
