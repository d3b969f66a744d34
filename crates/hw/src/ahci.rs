//! AHCI SATA host bus adapter with an attached disk model.
//!
//! The register interface follows the AHCI layout closely enough that a
//! driver performs the same accesses the paper counts (Section 8.2):
//! one MMIO write to issue a command (P0CI doorbell) and five MMIO
//! accesses to process the completion interrupt (read IS, clear IS,
//! read P0IS, clear P0IS, read P0CI) — six per request, which under
//! full virtualization become the six MMIO exits of Table 2, and which
//! interrupt virtualization doubles.
//!
//! Commands are fetched from memory: a command header in the command
//! list points at a command table holding a host-to-device FIS (READ /
//! WRITE DMA EXT) and a PRDT scatter-gather list. All of it moves by
//! DMA through the IOMMU.
//!
//! The disk model charges a fixed per-request latency plus a
//! bandwidth-proportional transfer time, giving Figure 6 its crossover:
//! below ~8 KB the request rate is latency-bound and CPU utilization is
//! flat; above it the disk bandwidth limits throughput.
//!
//! Command structures arrive by DMA from driver-owned memory and are
//! untrusted: malformed headers degrade to a task-file error (TFES),
//! never a model panic. The module is lint-gated panic-free.

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::panic)]

pub mod cmd;
mod port;

use std::collections::HashMap;

use nova_x86::insn::OpSize;

pub use self::port::{regs, slots, PortEvent, PortRegs, P0IS_DHRS, P0IS_TFES};
use crate::device::{DevCtx, Device};
use crate::fault::FaultKind;
use crate::Cycles;

/// Sector size in bytes.
pub const SECTOR: u32 = 512;

/// Disk timing and geometry parameters.
#[derive(Clone, Copy, Debug)]
pub struct DiskParams {
    /// Fixed cycles per request (command, seek, rotation).
    pub fixed_latency: Cycles,
    /// Sustained bandwidth in bytes per cycle (fractional via ratio).
    pub bytes_per_kcycle: u64,
    /// Capacity in sectors.
    pub sectors: u64,
}

impl DiskParams {
    /// A SATA disk resembling the paper's 250 GB Hitachi behind a
    /// 2.67 GHz clock: ~34 µs fixed latency (90 kcycles), ~120 MB/s.
    pub fn sata_250g() -> DiskParams {
        DiskParams {
            fixed_latency: 240_000,
            bytes_per_kcycle: 45, // ~120 MB/s at 2.67 GHz
            sectors: 250 * 1_000_000_000 / SECTOR as u64,
        }
    }

    /// Cycles to transfer `bytes` at the sustained rate.
    pub fn transfer_cycles(&self, bytes: u64) -> Cycles {
        bytes * 1000 / self.bytes_per_kcycle
    }
}

struct Request {
    cfis: cmd::Cfis,
    /// PRDT entries: (bus address, byte count).
    prdt: Vec<(u64, u32)>,
    slot: u8,
}

/// The HBA + disk.
pub struct Ahci {
    params: DiskParams,
    irq_line: u8,
    regs: PortRegs,
    /// In-flight request (one outstanding command modeled).
    inflight: Option<Request>,
    /// Written sectors (overlay over the deterministic pattern).
    store: HashMap<u64, Vec<u8>>,
    /// Completed requests since construction.
    pub completed: u64,
    /// Total bytes moved.
    pub bytes_moved: u64,
    /// Commands that failed to parse or faulted on DMA.
    pub errors: u64,
    /// Controller resets via GHC.HR (drivers use this to recover from
    /// a wedged DMA engine).
    pub resets: u64,
}

impl Ahci {
    /// Creates the adapter on interrupt line `irq_line`.
    pub fn new(params: DiskParams, irq_line: u8) -> Ahci {
        Ahci {
            params,
            irq_line,
            regs: PortRegs::default(),
            inflight: None,
            store: HashMap::new(),
            completed: 0,
            bytes_moved: 0,
            errors: 0,
            resets: 0,
        }
    }

    /// Deterministic content of an unwritten sector.
    fn pattern(lba: u64) -> Vec<u8> {
        let mut v = Vec::with_capacity(SECTOR as usize);
        let mut x = lba.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        for _ in 0..SECTOR / 8 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v.extend_from_slice(&x.to_le_bytes());
        }
        v
    }

    /// Reads sector content (overlay or pattern).
    pub fn sector(&self, lba: u64) -> Vec<u8> {
        self.store
            .get(&lba)
            .cloned()
            .unwrap_or_else(|| Self::pattern(lba))
    }

    /// Fetches the command in `slot` by DMA. The structures come from
    /// driver-owned memory: a read the IOMMU blocks or a FIS that is
    /// not a DMA transfer yields `None`; nothing else is checked.
    fn parse_command(&mut self, ctx: &mut DevCtx, slot: u8) -> Option<Request> {
        let at = self.regs.clb + slot as u64 * cmd::HEADER_LEN as u64;
        let hdr = ctx.dma_read(at, cmd::HEADER_LEN)?;
        let hdr = cmd::Header::decode(hdr.as_slice().try_into().ok()?);
        let cfis = ctx.dma_read(hdr.ctba, cmd::CFIS_LEN)?;
        let cfis = cmd::Cfis::decode(cfis.as_slice().try_into().ok()?).ok()?;
        let prdt = ctx.dma_read(
            hdr.ctba + cmd::PRDT_OFFSET,
            hdr.prdtl as usize * cmd::PRD_LEN,
        )?;
        let (prdt, _) = prdt.as_chunks::<{ cmd::PRD_LEN }>();
        let prdt = prdt.iter().map(cmd::prd::decode).collect();
        Some(Request { cfis, prdt, slot })
    }

    fn issue(&mut self, ctx: &mut DevCtx, slot: u8) {
        match self.parse_command(ctx, slot) {
            Some(req) => {
                if ctx.roll_fault(FaultKind::AhciStuckDma, slot as u64) {
                    // DMA engine wedges: the command is accepted (CI
                    // stays set) but never completes until GHC.HR.
                    self.inflight = Some(req);
                    return;
                }
                let bytes = req.cfis.sectors as u64 * SECTOR as u64;
                let delay = self.params.fixed_latency + self.params.transfer_cycles(bytes);
                self.inflight = Some(req);
                ctx.schedule(delay, slot as u64);
                if self.regs.p0ie != 0 && ctx.roll_fault(FaultKind::AhciSpuriousIrq, slot as u64) {
                    // Interrupt with no completion pending: the driver
                    // will find IS clear.
                    ctx.pulse_irq(self.irq_line);
                }
            }
            None => {
                // Report a task-file error: completion with error status.
                self.errors += 1;
                if self.regs.complete(slot, false) {
                    ctx.raise_irq(self.irq_line);
                }
            }
        }
    }
}

impl Device for Ahci {
    fn name(&self) -> &'static str {
        "ahci"
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn mmio_read(&mut self, _ctx: &mut DevCtx, off: u32, _size: OpSize) -> u32 {
        self.regs.read(off)
    }

    fn mmio_write(&mut self, ctx: &mut DevCtx, off: u32, _size: OpSize, val: u32) {
        match self.regs.write(off, val) {
            // The line is level-triggered: it falls once software has
            // cleared every cause in P0IS.
            PortEvent::None => {
                if self.regs.p0is == 0 {
                    ctx.lower_irq(self.irq_line);
                }
            }
            PortEvent::Doorbell(new) => {
                for slot in slots(new) {
                    self.issue(ctx, slot);
                }
            }
            PortEvent::Reset => {
                // HR: full HBA reset. Aborts any in-flight command
                // (including a wedged one) and clears all state.
                self.resets += 1;
                self.regs = PortRegs::default();
                self.inflight = None;
                ctx.lower_irq(self.irq_line);
            }
        }
    }

    fn event(&mut self, ctx: &mut DevCtx, _token: u64) {
        let Some(req) = self.inflight.take() else {
            return;
        };
        if ctx.roll_fault(FaultKind::AhciTaskFileError, req.slot as u64) {
            // Media error: the command completes with TFES and no data.
            self.errors += 1;
            if self.regs.complete(req.slot, false) {
                ctx.raise_irq(self.irq_line);
            }
            return;
        }
        // Move the data through the PRDT.
        let Request { cfis, prdt, slot } = req;
        let total = cfis.sectors as u64 * SECTOR as u64;
        let mut moved = 0u64;
        let mut lba = cfis.lba;
        let mut pending: Vec<u8> = Vec::new();
        let mut ok = true;
        for (dba, dbc) in &prdt {
            if moved >= total {
                break;
            }
            let chunk = (*dbc as u64).min(total - moved);
            if cfis.write {
                match ctx.dma_read(*dba, chunk as usize) {
                    Some(d) => pending.extend_from_slice(&d),
                    None => {
                        ok = false;
                        break;
                    }
                }
            } else {
                let mut data = Vec::with_capacity(chunk as usize);
                while (data.len() as u64) < chunk {
                    data.extend_from_slice(&self.sector(lba));
                    lba += 1;
                }
                data.truncate(chunk as usize);
                if !ctx.dma_write(*dba, &data) {
                    ok = false;
                    break;
                }
            }
            moved += chunk;
        }
        if cfis.write && ok {
            for (i, s) in pending.chunks(SECTOR as usize).enumerate() {
                let mut sec = s.to_vec();
                sec.resize(SECTOR as usize, 0);
                self.store.insert(cfis.lba + i as u64, sec);
            }
        }

        if ok {
            self.completed += 1;
            self.bytes_moved += moved;
        } else {
            self.errors += 1;
        }
        if self.regs.complete(slot, ok) {
            if ctx.roll_fault(FaultKind::AhciLostIrq, slot as u64) {
                // Completion state is all set, but the interrupt is
                // lost — the driver must time out and poll.
            } else {
                ctx.raise_irq(self.irq_line);
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::device::DeviceBus;
    use crate::iommu::Iommu;
    use crate::mem::PhysMem;
    use crate::pic;

    const BASE: u64 = 0xfeb0_0000;
    const IRQ: u8 = 11;

    fn setup() -> (DeviceBus, PhysMem, usize) {
        let mut bus = DeviceBus::new(Iommu::disabled());
        let dev = bus.add_device(Box::new(Ahci::new(DiskParams::sata_250g(), IRQ)));
        bus.map_mmio(BASE, 0x1000, dev);
        bus.pic.io_write(pic::MASTER_DATA, 0);
        bus.pic.io_write(pic::SLAVE_DATA, 0);
        (bus, PhysMem::new(16 << 20), dev)
    }

    const CLB: u64 = 0x10_0000;
    const CTBA: u64 = 0x10_1000;

    /// Writes a one-descriptor command for slot 0 into memory, programs
    /// the command-list base, enables interrupts and rings the doorbell.
    fn issue(bus: &mut DeviceBus, mem: &mut PhysMem, now: Cycles, cfis: [u8; 64], buf: u64) {
        let hdr = cmd::Header {
            prdtl: 1,
            ctba: CTBA,
        };
        let bytes = cmd::Cfis::decode(&cfis).map_or(0, |c| c.sectors as u32 * SECTOR);
        mem.write_bytes(CLB, &hdr.encode());
        mem.write_bytes(CTBA, &cfis);
        mem.write_bytes(CTBA + cmd::PRDT_OFFSET, &cmd::prd::encode(buf, bytes));
        for (reg, val) in [(regs::P0CLB, CLB as u32), (regs::P0IE, 1), (regs::P0CI, 1)] {
            bus.mmio_write(mem, now, BASE + reg as u64, OpSize::Dword, val);
        }
    }

    /// Issues a read; returns the number of MMIO accesses performed
    /// per request (the figure the paper counts).
    fn issue_read(
        bus: &mut DeviceBus,
        mem: &mut PhysMem,
        now: Cycles,
        lba: u64,
        sectors: u16,
        buf: u64,
    ) -> u32 {
        let cfis = cmd::Cfis {
            write: false,
            lba,
            sectors,
        };
        issue(bus, mem, now, cfis.encode(), buf);
        1 // the doorbell is the single per-request issue access
    }

    /// The five-access completion sequence the paper's driver performs.
    fn complete(bus: &mut DeviceBus, mem: &mut PhysMem, now: Cycles) -> u32 {
        let is = bus.mmio_read(mem, now, BASE + regs::IS as u64, OpSize::Dword);
        bus.mmio_write(mem, now, BASE + regs::IS as u64, OpSize::Dword, is);
        let p0is = bus.mmio_read(mem, now, BASE + regs::P0IS as u64, OpSize::Dword);
        bus.mmio_write(mem, now, BASE + regs::P0IS as u64, OpSize::Dword, p0is);
        let _ci = bus.mmio_read(mem, now, BASE + regs::P0CI as u64, OpSize::Dword);
        5
    }

    #[test]
    fn read_completes_with_irq_and_data() {
        let (mut bus, mut mem, _) = setup();
        let accesses = issue_read(&mut bus, &mut mem, 0, 100, 8, 0x20_0000);
        assert!(!bus.pic.intr(), "no completion yet");
        let due = bus.next_event_due().expect("completion scheduled");
        bus.process_events(&mut mem, due);
        assert!(bus.pic.intr(), "completion interrupt");
        assert_eq!(bus.pic.ack(), Some(0x28 + 3)); // IRQ 11 via slave
        let accesses = accesses + complete(&mut bus, &mut mem, due);
        assert_eq!(accesses, 6, "six MMIO accesses per request (paper)");
        assert!(!bus.pic.intr(), "line lowered after P0IS clear");

        // Data landed: compare against the device's pattern.
        let expect = Ahci::pattern(100);
        assert_eq!(mem.read_bytes(0x20_0000, 16), expect[..16].to_vec());
        // CI bit cleared.
        assert_eq!(
            bus.mmio_read(&mut mem, due, BASE + regs::P0CI as u64, OpSize::Dword),
            0
        );
    }

    #[test]
    fn latency_scales_with_size() {
        let (mut bus, mut mem, _) = setup();
        issue_read(&mut bus, &mut mem, 0, 0, 1, 0x20_0000);
        let small = bus.next_event_due().unwrap();
        let due = small;
        bus.process_events(&mut mem, due);
        complete(&mut bus, &mut mem, due);

        issue_read(&mut bus, &mut mem, due, 0, 128, 0x20_0000);
        let large = bus.next_event_due().unwrap() - due;
        assert!(
            large > small,
            "128-sector transfer ({large}) slower than 1 ({small})"
        );
        let p = DiskParams::sata_250g();
        assert_eq!(small, p.fixed_latency + p.transfer_cycles(512));
    }

    #[test]
    fn write_then_read_back() {
        let (mut bus, mut mem, _) = setup();
        // Write: put payload in memory, build WRITE command.
        mem.write_bytes(0x30_0000, &[0xabu8; 512]);
        let cfis = cmd::Cfis {
            write: true,
            lba: 7,
            sectors: 1,
        };
        issue(&mut bus, &mut mem, 0, cfis.encode(), 0x30_0000);
        let due = bus.next_event_due().unwrap();
        bus.process_events(&mut mem, due);
        complete(&mut bus, &mut mem, due);

        // Read LBA 7 back into a different buffer.
        issue_read(&mut bus, &mut mem, due, 7, 1, 0x40_0000);
        let due2 = bus.next_event_due().unwrap();
        bus.process_events(&mut mem, due2);
        assert_eq!(mem.read_bytes(0x40_0000, 512), vec![0xab; 512]);
    }

    #[test]
    fn bad_fis_reports_error() {
        let (mut bus, mut mem, _) = setup();
        // Garbage FIS type.
        let mut cfis = [0; 64];
        cfis[0] = 0x99;
        issue(&mut bus, &mut mem, 0, cfis, 0);
        let p0is = bus.mmio_read(&mut mem, 0, BASE + regs::P0IS as u64, OpSize::Dword);
        assert_ne!(p0is & (1 << 30), 0, "task-file error set");
        assert_eq!(
            bus.mmio_read(&mut mem, 0, BASE + regs::P0CI as u64, OpSize::Dword),
            0,
            "slot freed"
        );
    }

    #[test]
    fn iommu_blocks_unauthorized_dma() {
        let mut bus = DeviceBus::new(Iommu::enabled());
        let dev = bus.add_device(Box::new(Ahci::new(DiskParams::sata_250g(), IRQ)));
        bus.map_mmio(BASE, 0x1000, dev);
        let mut mem = PhysMem::new(16 << 20);
        // No mappings at all: even fetching the command header faults.
        issue_read(&mut bus, &mut mem, 0, 0, 1, 0x20_0000);
        assert!(!bus.iommu.faults.is_empty(), "command fetch blocked");
        // The request errored out instead of completing.
        let p0is = bus.mmio_read(&mut mem, 0, BASE + regs::P0IS as u64, OpSize::Dword);
        assert_ne!(p0is & (1 << 30), 0);
    }
}
