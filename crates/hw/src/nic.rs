//! Gigabit Ethernet controller model (Intel 82567-like) with a receive
//! descriptor ring and interrupt coalescing, plus a token-bucket
//! traffic generator standing in for the paper's Netperf sender
//! (Section 8.3).
//!
//! Interrupt coalescing delays the next interrupt until multiple
//! packets have arrived (or the throttle interval expires), limiting
//! the rate to ~20 000 interrupts per second — the plateau at which the
//! native and direct curves of Figure 7 converge.

use nova_x86::insn::OpSize;

use crate::device::{DevCtx, Device};
use crate::fault::FaultKind;
use crate::Cycles;

/// Register offsets (subset of the e1000e layout).
pub mod regs {
    /// Device control.
    pub const CTRL: u32 = 0x0000;
    /// Device status (RO).
    pub const STATUS: u32 = 0x0008;
    /// Interrupt cause read (read-to-clear).
    pub const ICR: u32 = 0x00c0;
    /// Interrupt throttle (coalescing interval, device ticks).
    pub const ITR: u32 = 0x00c4;
    /// Interrupt mask set.
    pub const IMS: u32 = 0x00d0;
    /// Interrupt mask clear.
    pub const IMC: u32 = 0x00d8;
    /// Receive descriptor base (low).
    pub const RDBAL: u32 = 0x2800;
    /// Receive descriptor base (high).
    pub const RDBAH: u32 = 0x2804;
    /// Receive descriptor ring length in bytes.
    pub const RDLEN: u32 = 0x2808;
    /// Receive descriptor head (device-owned).
    pub const RDH: u32 = 0x2810;
    /// Receive descriptor tail (driver-owned).
    pub const RDT: u32 = 0x2818;
}

/// ICR bit: receive timer expired (packets delivered).
pub const ICR_RXT0: u32 = 1 << 7;
/// Receive descriptor status: descriptor done.
pub const RXD_STAT_DD: u8 = 1 << 0;

/// Descriptor size in bytes (legacy receive descriptor).
pub const DESC_SIZE: u64 = 16;

const EV_PACKET: u64 = 1;
const EV_ITR: u64 = 2;

/// A stream the generator produces: fixed-size packets at a constant
/// bandwidth (token-bucket shaped, as in the paper's sender setup).
#[derive(Clone, Copy, Debug)]
pub struct Stream {
    /// Payload size in bytes (the paper uses 64, 1472 and 9188).
    pub packet_bytes: u32,
    /// Cycles between packet arrivals.
    pub interarrival: Cycles,
    /// Packets remaining to generate.
    pub remaining: u64,
}

/// The NIC.
pub struct Nic {
    irq_line: u8,
    cpu_hz: u64,
    icr: u32,
    ims: u32,
    itr: u32,
    rdba: u64,
    rdlen: u32,
    rdh: u32,
    rdt: u32,
    stream: Option<Stream>,
    /// Packets delivered since the last interrupt (coalescing counter).
    coalesced: u32,
    /// Whether the throttle timer is armed.
    itr_armed: bool,
    seq: u64,
    /// The packet being delivered: reused for every packet.
    payload: Vec<u8>,
    /// Packets delivered into the ring.
    pub rx_delivered: u64,
    /// Packets dropped for lack of descriptors.
    pub rx_dropped: u64,
    /// Interrupts raised.
    pub irqs: u64,
    /// Bytes delivered.
    pub rx_bytes: u64,
}

impl Nic {
    /// Creates the controller on `irq_line` for a CPU clocked at
    /// `cpu_hz` (used to convert the ITR to cycles).
    pub fn new(irq_line: u8, cpu_hz: u64) -> Nic {
        Nic {
            irq_line,
            cpu_hz,
            icr: 0,
            ims: 0,
            itr: 0,
            rdba: 0,
            rdlen: 0,
            rdh: 0,
            rdt: 0,
            stream: None,
            coalesced: 0,
            itr_armed: false,
            seq: 0,
            payload: Vec::new(),
            rx_delivered: 0,
            rx_dropped: 0,
            irqs: 0,
            rx_bytes: 0,
        }
    }

    /// Starts the traffic generator (the simulated Netperf sender).
    /// The caller schedules the first arrival: a device event with the
    /// packet token (1) on the bus's queue.
    pub fn set_stream(&mut self, stream: Stream) {
        self.stream = Some(stream);
    }

    /// Interrupt-throttle interval in cycles (~51.2 µs granularity on
    /// real parts; modeled as ITR value × 256 ns).
    fn itr_cycles(&self) -> Cycles {
        if self.itr == 0 {
            // Even "unthrottled", back-to-back interrupts are limited
            // by the ~20k/s plateau the paper measures.
            self.cpu_hz / 20_000
        } else {
            (self.itr as u64 * 256 * self.cpu_hz / 1_000_000_000).max(1)
        }
    }

    fn ring_size(&self) -> u32 {
        (self.rdlen as u64 / DESC_SIZE) as u32
    }

    fn deliver_packet(&mut self, ctx: &mut DevCtx, bytes: u32) {
        if ctx.roll_fault(FaultKind::NicPacketDrop, self.seq) {
            // Dropped on the wire: the sequence number is consumed, so
            // the driver observes a gap in the stream.
            self.seq += 1;
            return;
        }
        let ring = self.ring_size();
        if ring == 0 || self.rdh == self.rdt {
            self.rx_dropped += 1;
            return;
        }
        let desc_addr = self.rdba + self.rdh as u64 * DESC_SIZE;
        let mut desc = [0u8; DESC_SIZE as usize];
        if !ctx.dma_read_into(desc_addr, &mut desc) {
            self.rx_dropped += 1;
            return;
        }
        let buf = u64::from_le_bytes(desc[0..8].try_into().unwrap());

        // Packet payload: sequence number then a fill pattern.
        let payload = &mut self.payload;
        payload.clear();
        payload.extend_from_slice(&self.seq.to_le_bytes());
        payload.resize(bytes as usize, (self.seq & 0xff) as u8);
        if ctx
            .fault
            .roll(ctx.now, FaultKind::NicPacketCorrupt, self.seq)
            && payload.len() > 8
        {
            // Corrupt the fill pattern, leaving the sequence number
            // intact: the driver sees a payload-integrity error rather
            // than a gap.
            payload[8] ^= 0xff;
        }
        self.seq += 1;
        if !ctx.dma_write(buf, payload) {
            self.rx_dropped += 1;
            return;
        }
        // Write back length + DD status.
        let mut wb = desc;
        wb[8] = bytes as u8;
        wb[9] = (bytes >> 8) as u8;
        wb[12] = RXD_STAT_DD;
        if !ctx.dma_write(desc_addr, &wb) {
            self.rx_dropped += 1;
            return;
        }
        self.rdh = (self.rdh + 1) % ring;
        self.rx_delivered += 1;
        self.rx_bytes += bytes as u64;
        self.coalesced += 1;

        if !self.itr_armed {
            self.itr_armed = true;
            ctx.schedule(self.itr_cycles(), EV_ITR);
        }
    }
}

impl Device for Nic {
    fn name(&self) -> &'static str {
        "e1000e"
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn mmio_read(&mut self, ctx: &mut DevCtx, off: u32, _size: OpSize) -> u32 {
        match off {
            regs::STATUS => 0x80080783, // link up, full duplex
            regs::ICR => {
                let v = self.icr;
                self.icr = 0; // read-to-clear
                ctx.lower_irq(self.irq_line);
                v
            }
            regs::ITR => self.itr,
            regs::IMS => self.ims,
            regs::RDH => self.rdh,
            regs::RDT => self.rdt,
            regs::RDLEN => self.rdlen,
            _ => 0,
        }
    }

    fn mmio_write(&mut self, _ctx: &mut DevCtx, off: u32, _size: OpSize, val: u32) {
        match off {
            regs::ITR => self.itr = val,
            regs::IMS => self.ims |= val,
            regs::IMC => self.ims &= !val,
            regs::RDBAL => self.rdba = (self.rdba & !0xffff_ffff) | val as u64,
            regs::RDBAH => self.rdba = (self.rdba & 0xffff_ffff) | (val as u64) << 32,
            regs::RDLEN => self.rdlen = val,
            regs::RDH => self.rdh = val,
            regs::RDT => self.rdt = val % self.ring_size().max(1),
            _ => {}
        }
    }

    fn event(&mut self, ctx: &mut DevCtx, token: u64) {
        match token {
            EV_PACKET => {
                let Some(mut s) = self.stream else { return };
                if s.remaining == 0 {
                    self.stream = None;
                    return;
                }
                s.remaining -= 1;
                self.deliver_packet(ctx, s.packet_bytes);
                self.stream = Some(s);
                ctx.schedule(s.interarrival, EV_PACKET);
            }
            EV_ITR => {
                self.itr_armed = false;
                if self.coalesced > 0 {
                    self.coalesced = 0;
                    self.icr |= ICR_RXT0;
                    if self.ims & ICR_RXT0 != 0 {
                        self.irqs += 1;
                        ctx.raise_irq(self.irq_line);
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceBus;
    use crate::iommu::Iommu;
    use crate::mem::PhysMem;
    use crate::pic;

    const BASE: u64 = 0xfeb1_0000;
    const IRQ: u8 = 10;
    const HZ: u64 = 2_670_000_000;

    fn setup(ring_entries: u32) -> (DeviceBus, PhysMem, usize) {
        let mut bus = DeviceBus::new(Iommu::disabled());
        let dev = bus.add_device(Box::new(Nic::new(IRQ, HZ)));
        bus.map_mmio(BASE, 0x4000, dev);
        bus.pic.io_write(pic::MASTER_DATA, 0);
        bus.pic.io_write(pic::SLAVE_DATA, 0);
        let mut mem = PhysMem::new(16 << 20);
        // Ring at 0x10_0000, buffers at 0x20_0000 + i*16K.
        for i in 0..ring_entries as u64 {
            mem.write_u64(0x10_0000 + i * DESC_SIZE, 0x20_0000 + i * 0x4000);
        }
        let w = |bus: &mut DeviceBus, mem: &mut PhysMem, off: u32, val: u32| {
            bus.mmio_write(mem, 0, BASE + off as u64, OpSize::Dword, val);
        };
        w(&mut bus, &mut mem, regs::RDBAL, 0x10_0000);
        w(
            &mut bus,
            &mut mem,
            regs::RDLEN,
            ring_entries * DESC_SIZE as u32,
        );
        w(&mut bus, &mut mem, regs::RDH, 0);
        w(&mut bus, &mut mem, regs::RDT, ring_entries - 1);
        w(&mut bus, &mut mem, regs::IMS, ICR_RXT0);
        (bus, mem, dev)
    }

    fn start_stream(bus: &mut DeviceBus, mem: &mut PhysMem, dev: usize, s: Stream) {
        // Configure the generator through the typed device handle, then
        // kick it via an immediate event.
        {
            let d = bus.device_mut(dev).unwrap();
            // Safe downcast by name contract: tests construct the Nic.
            let _ = d;
        }
        // Re-fetch with concrete type through a helper on the bus is not
        // available; schedule the first arrival manually.
        bus.typed_mut::<Nic>(dev).unwrap().set_stream(s);
        bus.events.schedule(
            s.interarrival,
            crate::event::Event {
                device: dev,
                token: EV_PACKET,
            },
        );
        let _ = mem;
    }

    #[test]
    fn packets_land_in_ring_and_coalesce() {
        let (mut bus, mut mem, dev) = setup(64);
        let s = Stream {
            packet_bytes: 1472,
            interarrival: 10_000,
            remaining: 10,
        };
        start_stream(&mut bus, &mut mem, dev, s);
        // Run long enough for all 10 packets + the throttle timer.
        bus.process_events(&mut mem, 10_000 * 12 + HZ / 20_000 + 1);
        assert!(bus.pic.intr(), "coalesced interrupt raised");
        // First descriptor written back with DD.
        assert_eq!(mem.read_u8(0x10_0000 + 12), RXD_STAT_DD);
        // First packet has sequence 0 and the pattern fill.
        assert_eq!(mem.read_u64(0x20_0000), 0);
        {
            let n = bus.typed_mut::<Nic>(dev).unwrap();
            assert_eq!(n.rx_delivered, 10);
            assert_eq!(n.rx_dropped, 0);
            assert!(
                n.irqs < 10,
                "coalescing must merge interrupts, got {}",
                n.irqs
            );
        }
    }

    #[test]
    fn icr_read_clears_and_lowers_line() {
        let (mut bus, mut mem, dev) = setup(64);
        start_stream(
            &mut bus,
            &mut mem,
            dev,
            Stream {
                packet_bytes: 64,
                interarrival: 1000,
                remaining: 1,
            },
        );
        bus.process_events(&mut mem, HZ); // plenty
        assert!(bus.pic.intr());
        assert_eq!(bus.pic.ack(), Some(0x28 + 2), "IRQ 10 via slave line 2");
        let icr = bus.mmio_read(&mut mem, 0, BASE + regs::ICR as u64, OpSize::Dword);
        assert_ne!(icr & ICR_RXT0, 0);
        let icr2 = bus.mmio_read(&mut mem, 0, BASE + regs::ICR as u64, OpSize::Dword);
        assert_eq!(icr2, 0, "read-to-clear");
        bus.pic.io_write(crate::pic::SLAVE_CMD, 0x20);
        bus.pic.io_write(crate::pic::MASTER_CMD, 0x20);
        assert!(!bus.pic.intr(), "no retrigger after ICR read and EOI");
    }

    #[test]
    fn ring_exhaustion_drops() {
        let (mut bus, mut mem, dev) = setup(4);
        // Tail at 3: 3 usable descriptors before head meets tail.
        start_stream(
            &mut bus,
            &mut mem,
            dev,
            Stream {
                packet_bytes: 64,
                interarrival: 100,
                remaining: 10,
            },
        );
        bus.process_events(&mut mem, HZ);
        {
            let n = bus.typed_mut::<Nic>(dev).unwrap();
            assert_eq!(n.rx_delivered, 3);
            assert_eq!(n.rx_dropped, 7);
        }
    }

    #[test]
    fn interrupt_rate_plateaus_near_20k() {
        let (mut bus, mut mem, dev) = setup(256);
        // A hammering stream: 1 packet per 1000 cycles for ~0.05 s.
        let duration = HZ / 20;
        start_stream(
            &mut bus,
            &mut mem,
            dev,
            Stream {
                packet_bytes: 64,
                interarrival: 1000,
                remaining: duration / 1000,
            },
        );
        // Keep refilling the tail so nothing drops.
        let mut t = 0;
        while t < duration + HZ / 10_000 {
            t += 100_000;
            bus.process_events(&mut mem, t);
            let rdh = bus.mmio_read(&mut mem, t, BASE + regs::RDH as u64, OpSize::Dword);
            let newtail = if rdh == 0 { 255 } else { rdh - 1 };
            bus.mmio_write(&mut mem, t, BASE + regs::RDT as u64, OpSize::Dword, newtail);
            bus.mmio_read(&mut mem, t, BASE + regs::ICR as u64, OpSize::Dword);
        }
        {
            let n = bus.typed_mut::<Nic>(dev).unwrap();
            let secs = duration as f64 / HZ as f64;
            let rate = n.irqs as f64 / secs;
            assert!(
                (10_000.0..=25_000.0).contains(&rate),
                "coalesced irq rate {rate:.0}/s should plateau near 20k"
            );
            assert_eq!(n.rx_dropped, 0);
        }
    }
}
