//! Device bus: MMIO/port routing, the device trait, and the context
//! devices use for DMA, interrupts and event scheduling.

use nova_trace::{Kind, Tracer, PD_NONE};
use nova_x86::insn::OpSize;

use crate::event::{Event, EventQueue};
use crate::fault::{FaultInjector, FaultKind};
use crate::iommu::{DmaFault, Iommu};
use crate::mem::PhysMem;
use crate::pic::DualPic;
use crate::{Cycles, PAddr};

/// Out-of-band machine control state writable by devices (the debug
/// exit port and benchmark marks).
#[derive(Default)]
pub struct BusCtl {
    /// Set when the running software requested shutdown (debug-exit
    /// port); carries the exit code.
    pub shutdown: Option<u8>,
    /// Benchmark marks: (cycle, value) pairs written to the mark port.
    pub marks: Vec<(Cycles, u32)>,
}

/// Execution context handed to a device during a register access or
/// event callback.
pub struct DevCtx<'a> {
    /// Physical memory (DMA goes through [`DevCtx::dma_read_into`] /
    /// [`DevCtx::dma_write`], which enforce the IOMMU).
    pub mem: &'a mut PhysMem,
    /// Platform interrupt controller.
    pub pic: &'a mut DualPic,
    /// Event queue for completion timing.
    pub events: &'a mut EventQueue,
    /// The IOMMU (consulted by the DMA helpers).
    pub iommu: &'a mut Iommu,
    /// Machine control state.
    pub ctl: &'a mut BusCtl,
    /// Fault injector (consulted at device fault sites).
    pub fault: &'a mut FaultInjector,
    /// Event tracer (IRQ, DMA and injected-fault tracepoints).
    pub trace: &'a mut Tracer,
    /// Current cycle.
    pub now: Cycles,
    /// This device's bus index (its IOMMU requester id).
    pub dev: usize,
}

impl DevCtx<'_> {
    /// Schedules an event for this device `delay` cycles from now.
    pub fn schedule(&mut self, delay: Cycles, token: u64) {
        self.events.schedule(
            self.now + delay,
            Event {
                device: self.dev,
                token,
            },
        );
    }

    /// Raises this device's interrupt line — subject to the IOMMU's
    /// interrupt remapping: a device restricted to another vector
    /// cannot assert this one (Section 4.2).
    pub fn raise_irq(&mut self, line: u8) {
        if self.iommu.irq_permitted(self.dev, line) {
            self.trace
                .emit(0, PD_NONE, Kind::IrqRaise, line as u64, self.now);
            self.pic.set_line(line, true);
        }
    }

    /// Lowers this device's interrupt line.
    pub fn lower_irq(&mut self, line: u8) {
        self.pic.set_line(line, false);
    }

    /// Pulses an interrupt line (edge), subject to interrupt
    /// remapping.
    pub fn pulse_irq(&mut self, line: u8) {
        if self.iommu.irq_permitted(self.dev, line) {
            self.trace
                .emit(0, PD_NONE, Kind::IrqRaise, line as u64, self.now);
            self.pic.pulse(line);
        }
    }

    /// Consults the fault plan at a device fault site (see
    /// [`FaultInjector::roll`]), recording injected faults in the
    /// event trace as well.
    pub fn roll_fault(&mut self, kind: FaultKind, detail: u64) -> bool {
        let hit = self.fault.roll(self.now, kind, detail);
        if hit {
            self.trace
                .emit(0, PD_NONE, Kind::FaultInject, kind as u64, self.now);
        }
        hit
    }

    /// DMA write: moves `data` into memory at bus address `addr`,
    /// translated and permission-checked page-by-page by the IOMMU.
    /// Returns `false` (and records a fault) if any page is blocked;
    /// the transfer stops at the first blocked page.
    pub fn dma_write(&mut self, addr: u64, data: &[u8]) -> bool {
        self.trace.emit(0, PD_NONE, Kind::DmaStart, addr, self.now);
        if self.inject_iommu_fault(addr, true) {
            return false;
        }
        let mut off = 0usize;
        while off < data.len() {
            let a = addr + off as u64;
            let in_page = (4096 - (a & 0xfff)) as usize;
            let chunk = in_page.min(data.len() - off);
            match self.iommu.translate(self.dev, a, true) {
                Some(hpa) => self.mem.write_bytes(hpa, &data[off..off + chunk]),
                None => return false,
            }
            off += chunk;
        }
        self.trace
            .emit(0, PD_NONE, Kind::DmaComplete, data.len() as u64, self.now);
        true
    }

    /// DMA read: fills `out` from bus address `addr`, translated and
    /// permission-checked page-by-page by the IOMMU. Returns `false`
    /// (and records a fault) if any page is blocked; the transfer stops
    /// at the first blocked page and the rest of `out` is unspecified.
    pub fn dma_read_into(&mut self, addr: u64, out: &mut [u8]) -> bool {
        self.trace.emit(0, PD_NONE, Kind::DmaStart, addr, self.now);
        if self.inject_iommu_fault(addr, false) {
            return false;
        }
        let mut off = 0usize;
        while off < out.len() {
            let a = addr + off as u64;
            let in_page = (4096 - (a & 0xfff)) as usize;
            let chunk = in_page.min(out.len() - off);
            match self.iommu.translate(self.dev, a, false) {
                Some(hpa) => self.mem.read_into(hpa, &mut out[off..off + chunk]),
                None => return false,
            }
            off += chunk;
        }
        self.trace
            .emit(0, PD_NONE, Kind::DmaComplete, out.len() as u64, self.now);
        true
    }

    /// Fault site: a DMA transaction blocked as if its IOMMU mapping
    /// were stale. Recorded as an ordinary [`DmaFault`] so the fault
    /// is observable exactly like a real blocked transfer.
    fn inject_iommu_fault(&mut self, addr: u64, write: bool) -> bool {
        if self.roll_fault(FaultKind::IommuFault, addr) {
            self.iommu.faults.push(DmaFault {
                device: self.dev,
                addr,
                write,
            });
            return true;
        }
        false
    }
}

/// A bus device. Default implementations read zero and drop writes, so
/// devices implement only the surfaces they have.
pub trait Device {
    /// Human-readable name (diagnostics).
    fn name(&self) -> &'static str;

    /// Typed access for host-side drivers and tests.
    fn as_any(&mut self) -> &mut dyn std::any::Any;

    /// MMIO read at `off` bytes into the device's window.
    fn mmio_read(&mut self, _ctx: &mut DevCtx, _off: u32, _size: OpSize) -> u32 {
        0
    }

    /// MMIO write.
    fn mmio_write(&mut self, _ctx: &mut DevCtx, _off: u32, _size: OpSize, _val: u32) {}

    /// Port read.
    fn io_read(&mut self, _ctx: &mut DevCtx, _port: u16, _size: OpSize) -> u32 {
        0
    }

    /// Port write.
    fn io_write(&mut self, _ctx: &mut DevCtx, _port: u16, _size: OpSize, _val: u32) {}

    /// A scheduled event fired.
    fn event(&mut self, _ctx: &mut DevCtx, _token: u64) {}
}

struct PortRange {
    first: u16,
    last: u16,
    dev: usize,
}

struct MmioRange {
    base: PAddr,
    size: u64,
    dev: usize,
}

/// Frames the device-frame filter covers: the 4 GB a 32-bit
/// physical address can name. Frames beyond answer "maybe".
const FILTER_FRAMES: usize = 1 << 20;

/// The device bus: devices, routing tables, interrupt controller,
/// event queue, IOMMU.
pub struct DeviceBus {
    devices: Vec<Option<Box<dyn Device>>>,
    ports: Vec<PortRange>,
    mmio: Vec<MmioRange>,
    /// One bit per 4 KB frame: set if some MMIO window overlaps the
    /// frame. Written by [`DeviceBus::map_mmio`] only and never
    /// cleared; a set bit is a hint, [`DeviceBus::mmio_owner`] is the
    /// truth (a window need not cover its whole frame).
    mmio_frames: Vec<u64>,
    /// Platform interrupt controller.
    pub pic: DualPic,
    /// Device event queue.
    pub events: EventQueue,
    /// DMA remapping unit.
    pub iommu: Iommu,
    /// Machine control state.
    pub ctl: BusCtl,
    /// Platform fault injector (inert unless a plan is attached).
    pub fault: FaultInjector,
    /// Platform tracer (off — zero rings, zero mask — by default).
    pub trace: Tracer,
}

impl DeviceBus {
    /// Creates an empty bus with the given IOMMU.
    pub fn new(iommu: Iommu) -> DeviceBus {
        DeviceBus {
            devices: Vec::new(),
            ports: Vec::new(),
            mmio: Vec::new(),
            mmio_frames: vec![0; FILTER_FRAMES / 64],
            pic: DualPic::new(),
            events: EventQueue::new(),
            iommu,
            ctl: BusCtl::default(),
            fault: FaultInjector::disabled(),
            trace: Tracer::off(),
        }
    }

    /// Registers a device, returning its bus index.
    pub fn add_device(&mut self, dev: Box<dyn Device>) -> usize {
        self.devices.push(Some(dev));
        self.devices.len() - 1
    }

    /// Routes port range `first..=last` to device `dev`.
    pub fn map_ports(&mut self, first: u16, last: u16, dev: usize) {
        self.ports.push(PortRange { first, last, dev });
    }

    /// Routes MMIO window `base..base+size` to device `dev`.
    pub fn map_mmio(&mut self, base: PAddr, size: u64, dev: usize) {
        self.mmio.push(MmioRange { base, size, dev });
        if size == 0 {
            return;
        }
        let last = ((base + size - 1) >> 12).min(FILTER_FRAMES as u64 - 1);
        for frame in base >> 12..=last {
            self.mmio_frames[frame as usize / 64] |= 1 << (frame % 64);
        }
    }

    /// `false` only if no MMIO window overlaps the 4 KB frame of
    /// `addr`, so the access is RAM without asking
    /// [`DeviceBus::mmio_owner`]. `true` means "ask": the frame holds
    /// part of a window, or lies beyond the filter.
    #[inline]
    pub fn maybe_mmio(&self, addr: PAddr) -> bool {
        let frame = addr >> 12;
        match self.mmio_frames.get((frame / 64) as usize) {
            Some(word) => word >> (frame % 64) & 1 != 0,
            None => true,
        }
    }

    /// The device owning `port`, if any.
    pub fn port_owner(&self, port: u16) -> Option<usize> {
        self.ports
            .iter()
            .find(|r| (r.first..=r.last).contains(&port))
            .map(|r| r.dev)
    }

    /// The device owning physical address `addr`, and the offset into
    /// its window.
    pub fn mmio_owner(&self, addr: PAddr) -> Option<(usize, u32)> {
        self.mmio
            .iter()
            .find(|r| addr >= r.base && addr < r.base + r.size)
            .map(|r| (r.dev, (addr - r.base) as u32))
    }

    fn dispatch<R>(
        &mut self,
        mem: &mut PhysMem,
        now: Cycles,
        dev: usize,
        f: impl FnOnce(&mut dyn Device, &mut DevCtx) -> R,
    ) -> Option<R> {
        let mut d = self.devices.get_mut(dev)?.take()?;
        let mut ctx = DevCtx {
            mem,
            pic: &mut self.pic,
            events: &mut self.events,
            iommu: &mut self.iommu,
            ctl: &mut self.ctl,
            fault: &mut self.fault,
            trace: &mut self.trace,
            now,
            dev,
        };
        let r = f(d.as_mut(), &mut ctx);
        self.devices[dev] = Some(d);
        Some(r)
    }

    /// Port read; the PIC is handled inline, unrouted ports read as
    /// `0xFF..` (floating bus).
    pub fn io_read(&mut self, mem: &mut PhysMem, now: Cycles, port: u16, size: OpSize) -> u32 {
        if DualPic::owns_port(port) {
            return self.pic.io_read(port) as u32;
        }
        match self.port_owner(port) {
            Some(dev) => self
                .dispatch(mem, now, dev, |d, ctx| d.io_read(ctx, port, size))
                .unwrap_or(size.mask()),
            None => size.mask(),
        }
    }

    /// Port write.
    pub fn io_write(&mut self, mem: &mut PhysMem, now: Cycles, port: u16, size: OpSize, val: u32) {
        if DualPic::owns_port(port) {
            self.pic.io_write(port, val as u8);
            return;
        }
        if let Some(dev) = self.port_owner(port) {
            self.dispatch(mem, now, dev, |d, ctx| d.io_write(ctx, port, size, val));
        }
    }

    /// MMIO read at a physical address inside a device window.
    pub fn mmio_read(&mut self, mem: &mut PhysMem, now: Cycles, addr: PAddr, size: OpSize) -> u32 {
        match self.mmio_owner(addr) {
            Some((dev, off)) => self
                .dispatch(mem, now, dev, |d, ctx| d.mmio_read(ctx, off, size))
                .unwrap_or(size.mask()),
            None => size.mask(),
        }
    }

    /// MMIO write.
    pub fn mmio_write(
        &mut self,
        mem: &mut PhysMem,
        now: Cycles,
        addr: PAddr,
        size: OpSize,
        val: u32,
    ) {
        if let Some((dev, off)) = self.mmio_owner(addr) {
            self.dispatch(mem, now, dev, |d, ctx| d.mmio_write(ctx, off, size, val));
        }
    }

    /// Fires every event due at or before `now`, each at its own due
    /// time (so periodic devices rescheduling themselves cascade
    /// correctly within one call).
    pub fn process_events(&mut self, mem: &mut PhysMem, now: Cycles) {
        while let Some((due, ev)) = self.events.pop_due(now) {
            self.dispatch(mem, due, ev.device, |d, ctx| d.event(ctx, ev.token));
        }
    }

    /// The due time of the next pending device event.
    #[inline]
    pub fn next_event_due(&self) -> Option<Cycles> {
        self.events.next_due()
    }

    /// Direct (typed) access to a registered device, for host-side
    /// drivers and tests. Returns `None` if the index is bad or the
    /// device is mid-dispatch.
    pub fn device_mut(&mut self, dev: usize) -> Option<&mut (dyn Device + '_)> {
        match self.devices.get_mut(dev) {
            Some(Some(d)) => Some(d.as_mut()),
            _ => None,
        }
    }

    /// Downcast access to a device of a concrete type.
    pub fn typed_mut<T: 'static>(&mut self, dev: usize) -> Option<&mut T> {
        match self.devices.get_mut(dev) {
            Some(Some(d)) => d.as_any().downcast_mut::<T>(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A loopback test device: remembers writes, schedules an echo
    /// event that raises IRQ 5.
    #[derive(Default)]
    struct Echo {
        last: u32,
        events_seen: Vec<u64>,
    }

    impl Device for Echo {
        fn name(&self) -> &'static str {
            "echo"
        }

        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }

        fn mmio_read(&mut self, _ctx: &mut DevCtx, off: u32, _size: OpSize) -> u32 {
            self.last + off
        }

        fn mmio_write(&mut self, ctx: &mut DevCtx, _off: u32, _size: OpSize, val: u32) {
            self.last = val;
            ctx.schedule(100, 7);
        }

        fn io_write(&mut self, ctx: &mut DevCtx, _port: u16, _size: OpSize, val: u32) {
            self.last = val;
            ctx.raise_irq(5);
        }

        fn event(&mut self, ctx: &mut DevCtx, token: u64) {
            self.events_seen.push(token);
            ctx.raise_irq(5);
        }
    }

    fn setup() -> (DeviceBus, PhysMem, usize) {
        let mut bus = DeviceBus::new(Iommu::disabled());
        let dev = bus.add_device(Box::new(Echo::default()));
        bus.map_ports(0x100, 0x107, dev);
        bus.map_mmio(0xfeb0_0000, 0x1000, dev);
        (bus, PhysMem::new(1 << 20), dev)
    }

    #[test]
    fn port_routing() {
        let (mut bus, mut mem, _) = setup();
        bus.io_write(&mut mem, 0, 0x100, OpSize::Dword, 42);
        assert_eq!(bus.mmio_read(&mut mem, 0, 0xfeb0_0004, OpSize::Dword), 46);
        // Unrouted port reads as floating bus.
        assert_eq!(bus.io_read(&mut mem, 0, 0x999, OpSize::Byte), 0xff);
    }

    #[test]
    fn frame_filter_is_a_superset_of_the_windows() {
        let (mut bus, _, dev) = setup();
        // Every byte of a window answers "maybe"; so does the rest of
        // a frame the window only partly covers.
        bus.map_mmio(0xb8000, 4000, dev);
        assert!(bus.maybe_mmio(0xb8000) && bus.maybe_mmio(0xb8f9f));
        assert!(bus.maybe_mmio(0xb8fa0), "same frame: ask the scan");
        assert!(bus.mmio_owner(0xb8fa0).is_none(), "the scan says RAM");
        assert!(!bus.maybe_mmio(0xb7fff) && !bus.maybe_mmio(0xb9000));
        // A window spanning frames flags each of them.
        bus.map_mmio(0x10_0ff0, 0x1020, dev);
        for frame in [0x10_0000, 0x10_1000, 0x10_2000] {
            assert!(bus.maybe_mmio(frame));
        }
        assert!(!bus.maybe_mmio(0x10_3000));
        assert!(bus.maybe_mmio(0xfeb0_0000), "mapped by setup()");
        // Beyond the filter: always "maybe", mapped or not.
        assert!(bus.maybe_mmio(1 << 32));
        bus.map_mmio((1 << 32) + 0x5000, 0x1000, dev);
        assert!(bus.mmio_owner((1 << 32) + 0x5000).is_some());
        // An empty window flags nothing.
        bus.map_mmio(0x20_0000, 0, dev);
        assert!(!bus.maybe_mmio(0x20_0000));
    }

    #[test]
    fn event_scheduling_and_irq() {
        let (mut bus, mut mem, _) = setup();
        bus.pic.io_write(crate::pic::MASTER_DATA, 0); // unmask
        bus.mmio_write(&mut mem, 0, 0xfeb0_0000, OpSize::Dword, 1);
        assert_eq!(bus.next_event_due(), Some(100));
        bus.process_events(&mut mem, 99);
        assert!(!bus.pic.intr(), "not due yet");
        bus.process_events(&mut mem, 100);
        assert!(bus.pic.intr());
        assert_eq!(bus.pic.ack(), Some(0x25));
    }

    #[test]
    fn pic_ports_handled_inline() {
        let (mut bus, mut mem, _) = setup();
        bus.io_write(&mut mem, 0, crate::pic::MASTER_DATA, OpSize::Byte, 0xfe);
        assert_eq!(
            bus.io_read(&mut mem, 0, crate::pic::MASTER_DATA, OpSize::Byte),
            0xfe
        );
    }

    #[test]
    fn dma_respects_iommu() {
        let mut bus = DeviceBus::new(Iommu::enabled());
        struct DmaDev;
        impl Device for DmaDev {
            fn name(&self) -> &'static str {
                "dma"
            }
            fn as_any(&mut self) -> &mut dyn std::any::Any {
                self
            }
            fn io_write(&mut self, ctx: &mut DevCtx, _p: u16, _s: OpSize, val: u32) {
                let ok = ctx.dma_write(0x4000, &val.to_le_bytes());
                assert_eq!(ok, val == 1, "only the mapped case succeeds");
            }
        }
        let dev = bus.add_device(Box::new(DmaDev));
        bus.map_ports(0x200, 0x200, dev);
        let mut mem = PhysMem::new(1 << 20);

        // Unmapped: blocked.
        bus.io_write(&mut mem, 0, 0x200, OpSize::Dword, 0);
        assert_eq!(bus.iommu.faults.len(), 1);
        assert_eq!(mem.read_u32(0x4000), 0);

        // Mapped: goes through to the *translated* page.
        bus.iommu.map_page(dev, 0x4000, 0x9000, true);
        bus.io_write(&mut mem, 0, 0x200, OpSize::Dword, 1);
        assert_eq!(mem.read_u32(0x9000), 1);
        assert_eq!(mem.read_u32(0x4000), 0, "bus address is not identity");
    }

    #[test]
    fn dma_crosses_page_boundaries() {
        let mut bus = DeviceBus::new(Iommu::enabled());
        struct Span;
        impl Device for Span {
            fn name(&self) -> &'static str {
                "span"
            }
            fn as_any(&mut self) -> &mut dyn std::any::Any {
                self
            }
            fn event(&mut self, ctx: &mut DevCtx, _t: u64) {
                let data = vec![0xaa; 8192];
                assert!(ctx.dma_write(0x1800, &data));
                let mut back = vec![0; 8192];
                assert!(ctx.dma_read_into(0x1800, &mut back));
                assert_eq!(back, data);
                // The last page is not mapped: the read stops there.
                assert!(!ctx.dma_read_into(0x4800, &mut back));
            }
        }
        let dev = bus.add_device(Box::new(Span));
        for p in 0..4 {
            bus.iommu
                .map_page(dev, 0x1000 + p * 0x1000, 0x2_0000 + p * 0x1000, true);
        }
        let mut mem = PhysMem::new(1 << 20);
        bus.events.schedule(
            0,
            Event {
                device: dev,
                token: 0,
            },
        );
        bus.process_events(&mut mem, 0);
        assert_eq!(mem.read_u8(0x2_0800), 0xaa);
        assert_eq!(mem.read_u8(0x2_2800 - 1), 0xaa);
    }
}
