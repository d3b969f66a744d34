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

/// Bytes per sector, as a buffer length.
const SECTOR_BYTES: usize = SECTOR as usize;

/// A command slot: the command accepted in it, and its decoded PRDT —
/// kept across commands, so a command allocates nothing once the slot
/// has held one as long.
#[derive(Default)]
struct Slot {
    /// The command in flight, from its doorbell until it retires or a
    /// reset aborts it (a wedged command stays until the reset).
    cfis: Option<cmd::Cfis>,
    /// PRDT entries: (bus address, byte count).
    prdt: Vec<(u64, u32)>,
}

/// The HBA + disk.
pub struct Ahci {
    params: DiskParams,
    irq_line: u8,
    regs: PortRegs,
    /// One command per slot; a slot's completion event carries the
    /// slot number as its token.
    slots: [Slot; 32],
    /// Staging for a command's PRDT bytes and for the data of each
    /// transfer: grows to the largest one and is reused.
    buf: Vec<u8>,
    /// Written sectors (overlay over the deterministic pattern).
    store: HashMap<u64, [u8; SECTOR_BYTES]>,
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

/// The first `len` bytes of `buf`, grown to hold them.
fn staged(buf: &mut Vec<u8>, len: usize) -> &mut [u8] {
    if buf.len() < len {
        buf.resize(len, 0);
    }
    buf.get_mut(..len).unwrap_or_default()
}

/// Writes the deterministic content of unwritten sector `lba` into
/// `out`, one sector.
fn pattern(lba: u64, out: &mut [u8]) {
    let mut x = lba.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    for word in out.chunks_exact_mut(8) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        word.copy_from_slice(&x.to_le_bytes());
    }
}

/// Writes the content of sector `lba` (overlay or pattern) into `out`,
/// one sector.
fn read_sector(store: &HashMap<u64, [u8; SECTOR_BYTES]>, lba: u64, out: &mut [u8]) {
    match store.get(&lba) {
        Some(s) => out.copy_from_slice(s),
        None => pattern(lba, out),
    }
}

/// Sectors whose patterns [`read_sectors`] runs side by side.
const LANES: usize = 8;
/// 64-bit words per sector.
const WORDS: usize = SECTOR_BYTES / 8;

/// The xorshift64 states of the streams of sectors `first`,
/// `first + 1`, … (wrapping), before their first word, as [`pattern`]
/// seeds each.
fn seeds(first: u64) -> [u64; LANES] {
    std::array::from_fn(|j| {
        first
            .wrapping_add(j as u64)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            | 1
    })
}

/// [`pattern`]'s step.
#[inline(always)]
fn step(x: &mut u64) -> [u8; 8] {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    x.to_le_bytes()
}

/// Writes the content of sectors `lba`, `lba + 1`, … (wrapping) into
/// `out`, the last one cut where `out` ends: byte for byte what
/// [`read_sector`] gives for each. The patterns run [`LANES`] sectors
/// at a time, one stream per lane, interleaved so that the lanes'
/// dependency chains overlap, each word stored where its sector lies;
/// a partial last group runs only the lanes it fills. Overlay sectors
/// are copied over theirs, looked up only when there are any.
fn read_sectors(store: &HashMap<u64, [u8; SECTOR_BYTES]>, lba: u64, out: &mut [u8]) {
    let (words, _) = out.as_chunks_mut::<8>();
    let (sectors, _) = words.as_chunks_mut::<WORDS>();
    let (groups, _) = sectors.as_chunks_mut::<LANES>();
    let mut first = lba;
    for group in groups.iter_mut() {
        let mut x = seeds(first);
        for w in 0..WORDS {
            for (x, sector) in x.iter_mut().zip(group.iter_mut()) {
                if let Some(word) = sector.get_mut(w) {
                    *word = step(x);
                }
            }
        }
        first = first.wrapping_add(LANES as u64);
    }
    let done = groups.len() * LANES * SECTOR_BYTES;
    let tail = out.get_mut(done..).unwrap_or_default();
    let lanes = tail.len().div_ceil(SECTOR_BYTES);
    let mut x = seeds(first);
    for w in 0..WORDS {
        for (j, x) in x.iter_mut().enumerate().take(lanes) {
            let bytes = step(x);
            let at = j * SECTOR_BYTES + w * 8;
            if let Some(word) = tail.get_mut(at..tail.len().min(at + 8)) {
                word.copy_from_slice(bytes.get(..word.len()).unwrap_or_default());
            }
        }
    }
    if !store.is_empty() {
        for (i, s) in out.chunks_mut(SECTOR_BYTES).enumerate() {
            if let Some(o) = store.get(&lba.wrapping_add(i as u64)) {
                s.copy_from_slice(o.get(..s.len()).unwrap_or_default());
            }
        }
    }
}

impl Ahci {
    /// Creates the adapter on interrupt line `irq_line`.
    pub fn new(params: DiskParams, irq_line: u8) -> Ahci {
        Ahci {
            params,
            irq_line,
            regs: PortRegs::default(),
            slots: Default::default(),
            buf: Vec::new(),
            store: HashMap::new(),
            completed: 0,
            bytes_moved: 0,
            errors: 0,
            resets: 0,
        }
    }

    /// Reads sector content (overlay or pattern).
    pub fn sector(&self, lba: u64) -> [u8; SECTOR_BYTES] {
        let mut s = [0; SECTOR_BYTES];
        read_sector(&self.store, lba, &mut s);
        s
    }

    /// Fetches the command in `slot` by DMA: returns its FIS and leaves
    /// its PRDT in the slot. The structures come from driver-owned
    /// memory: a read the IOMMU blocks or a FIS that is not a DMA
    /// transfer yields `None`; nothing else is checked.
    fn fetch_command(&mut self, ctx: &mut DevCtx, slot: u8) -> Option<cmd::Cfis> {
        let at = self.regs.clb + slot as u64 * cmd::HEADER_LEN as u64;
        let mut hdr = [0; cmd::HEADER_LEN];
        if !ctx.dma_read_into(at, &mut hdr) {
            return None;
        }
        let hdr = cmd::Header::decode(&hdr);
        let mut cfis = [0; cmd::CFIS_LEN];
        if !ctx.dma_read_into(hdr.ctba, &mut cfis) {
            return None;
        }
        let cfis = cmd::Cfis::decode(&cfis).ok()?;
        let raw = staged(&mut self.buf, hdr.prdtl as usize * cmd::PRD_LEN);
        if !ctx.dma_read_into(hdr.ctba + cmd::PRDT_OFFSET, raw) {
            return None;
        }
        let prdt = &mut self.slots.get_mut(slot as usize)?.prdt;
        prdt.clear();
        prdt.extend(raw.as_chunks().0.iter().map(cmd::prd::decode));
        Some(cfis)
    }

    fn issue(&mut self, ctx: &mut DevCtx, slot: u8) {
        match self.fetch_command(ctx, slot) {
            Some(cfis) => {
                if let Some(s) = self.slots.get_mut(slot as usize) {
                    s.cfis = Some(cfis);
                }
                if ctx.roll_fault(FaultKind::AhciStuckDma, slot as u64) {
                    // DMA engine wedges: the command is accepted (CI
                    // stays set) but never completes until GHC.HR.
                    return;
                }
                let bytes = cfis.sectors as u64 * SECTOR as u64;
                let delay = self.params.fixed_latency + self.params.transfer_cycles(bytes);
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

    /// Moves the data of command `cfis` through the PRDT of `slot`:
    /// each entry is one DMA of up to its byte count, until the
    /// command's sectors are moved; a read advances `lba` by the whole
    /// sectors each entry touched, a write is stored once all of it
    /// arrived. Returns the bytes moved, or `None` — having stored
    /// nothing — if the IOMMU blocked a transfer.
    fn transfer(&mut self, ctx: &mut DevCtx, slot: usize, cfis: cmd::Cfis) -> Option<u64> {
        let Ahci {
            slots, buf, store, ..
        } = self;
        let prdt = slots.get(slot).map_or(&[][..], |s| s.prdt.as_slice());
        let total = cfis.sectors as u64 * SECTOR as u64;
        let (mut moved, mut lba) = (0u64, cfis.lba);
        for &(dba, dbc) in prdt {
            if moved >= total {
                break;
            }
            let chunk = (dbc as u64).min(total - moved) as usize;
            if cfis.write {
                // Staged behind what the earlier entries brought in.
                let at = moved as usize;
                let data = staged(buf, at + chunk).get_mut(at..).unwrap_or_default();
                if !ctx.dma_read_into(dba, data) {
                    return None;
                }
            } else {
                let data = staged(buf, chunk);
                read_sectors(store, lba, data);
                lba += chunk.div_ceil(SECTOR_BYTES) as u64;
                if !ctx.dma_write(dba, data) {
                    return None;
                }
            }
            moved += chunk as u64;
        }
        if cfis.write {
            let data = buf.get(..moved as usize).unwrap_or_default();
            for (i, s) in data.chunks(SECTOR_BYTES).enumerate() {
                let mut sector = [0; SECTOR_BYTES];
                let (head, _) = sector.split_at_mut(s.len());
                head.copy_from_slice(s);
                store.insert(cfis.lba + i as u64, sector);
            }
        }
        Some(moved)
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
                // HR: full HBA reset. Aborts every in-flight command
                // (including a wedged one) and clears all state.
                self.resets += 1;
                self.regs = PortRegs::default();
                for s in &mut self.slots {
                    s.cfis = None;
                }
                ctx.lower_irq(self.irq_line);
            }
        }
    }

    fn event(&mut self, ctx: &mut DevCtx, token: u64) {
        let slot = token as u8;
        let taken = self.slots.get_mut(token as usize).map(|s| s.cfis.take());
        let Some(Some(cfis)) = taken else {
            return;
        };
        if ctx.roll_fault(FaultKind::AhciTaskFileError, slot as u64) {
            // Media error: the command completes with TFES and no data.
            self.errors += 1;
            if self.regs.complete(slot, false) {
                ctx.raise_irq(self.irq_line);
            }
            return;
        }
        let moved = self.transfer(ctx, slot as usize, cfis);
        match moved {
            Some(bytes) => {
                self.completed += 1;
                self.bytes_moved += bytes;
            }
            None => self.errors += 1,
        }
        if self.regs.complete(slot, moved.is_some()) {
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
        let bytes = cmd::Cfis::decode(&cfis).map_or(0, |c| c.sectors as u32 * SECTOR);
        issue_prdt(bus, mem, now, cfis, &[(buf, bytes)]);
    }

    /// [`issue`] with the descriptors `prdt`, `(bus address, bytes)`.
    fn issue_prdt(
        bus: &mut DeviceBus,
        mem: &mut PhysMem,
        now: Cycles,
        cfis: [u8; 64],
        prdt: &[(u64, u32)],
    ) {
        let hdr = cmd::Header {
            prdtl: prdt.len() as u16,
            ctba: CTBA,
        };
        mem.write_bytes(CLB, &hdr.encode());
        mem.write_bytes(CTBA, &cfis);
        for (i, &(dba, bytes)) in prdt.iter().enumerate() {
            let at = CTBA + cmd::PRDT_OFFSET + (i * cmd::PRD_LEN) as u64;
            mem.write_bytes(at, &cmd::prd::encode(dba, bytes));
        }
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
        let mut expect = [0; SECTOR_BYTES];
        pattern(100, &mut expect);
        assert_eq!(mem.read_bytes(0x20_0000, 16), expect[..16].to_vec());
        // CI bit cleared.
        assert_eq!(
            bus.mmio_read(&mut mem, due, BASE + regs::P0CI as u64, OpSize::Dword),
            0
        );
    }

    /// Writes a one-sector read of `lba` into `buf` as the command of
    /// `slot`, each slot with a command table of its own.
    fn put_read(mem: &mut PhysMem, slot: u64, lba: u64, buf: u64) {
        let ctba = CTBA + slot * 0x1000;
        let hdr = cmd::Header { prdtl: 1, ctba };
        let cfis = cmd::Cfis {
            write: false,
            lba,
            sectors: 1,
        };
        mem.write_bytes(CLB + slot * cmd::HEADER_LEN as u64, &hdr.encode());
        mem.write_bytes(ctba, &cfis.encode());
        mem.write_bytes(ctba + cmd::PRDT_OFFSET, &cmd::prd::encode(buf, SECTOR));
    }

    /// Every slot a doorbell names is a command of its own — one
    /// doorbell naming two slots, or a second doorbell while the first
    /// command is in flight — and each completes into its own buffer.
    /// A reset aborts all of them.
    #[test]
    fn each_slot_holds_its_own_command() {
        let (mut bus, mut mem, dev) = setup();
        let ci = |bus: &mut DeviceBus, mem: &mut PhysMem, at| {
            bus.mmio_read(mem, at, BASE + regs::P0CI as u64, OpSize::Dword)
        };
        put_read(&mut mem, 0, 100, 0x20_0000);
        put_read(&mut mem, 1, 200, 0x21_0000);
        for (reg, val) in [
            (regs::P0CLB, CLB as u32),
            (regs::P0IE, 1),
            (regs::P0CI, 0b11),
        ] {
            bus.mmio_write(&mut mem, 0, BASE + reg as u64, OpSize::Dword, val);
        }
        let due = bus.next_event_due().unwrap();
        bus.process_events(&mut mem, due);
        assert_eq!(ci(&mut bus, &mut mem, due), 0, "both slots retired");

        // Slot 0 again, then slot 1 before slot 0 completes.
        put_read(&mut mem, 0, 300, 0x22_0000);
        put_read(&mut mem, 1, 400, 0x23_0000);
        let p0ci = BASE + regs::P0CI as u64;
        bus.mmio_write(&mut mem, due, p0ci, OpSize::Dword, 0b01);
        bus.mmio_write(&mut mem, due + 10, p0ci, OpSize::Dword, 0b10);
        bus.process_events(&mut mem, due + 10_000_000);
        assert_eq!(ci(&mut bus, &mut mem, due), 0, "both slots retired again");

        let ahci = bus.typed_mut::<Ahci>(dev).unwrap();
        assert_eq!((ahci.completed, ahci.errors), (4, 0));
        let expect = [100, 200, 300, 400].map(|lba| ahci.sector(lba));
        for (i, want) in expect.iter().enumerate() {
            let got = mem.read_bytes(0x20_0000 + i as u64 * 0x1_0000, 512);
            assert_eq!(got, want, "command {i}");
        }

        // A reset aborts both commands: their events find nothing.
        let now = due + 10_000_000;
        bus.mmio_write(&mut mem, now, p0ci, OpSize::Dword, 0b11);
        bus.mmio_write(&mut mem, now, BASE + regs::GHC as u64, OpSize::Dword, 1);
        bus.process_events(&mut mem, now + 10_000_000);
        assert_eq!(ci(&mut bus, &mut mem, now), 0);
        let ahci = bus.typed_mut::<Ahci>(dev).unwrap();
        assert_eq!((ahci.completed, ahci.resets), (4, 1));
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

    /// A seeded stream of test choices (xorshift64*).
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n
        }
    }

    /// The bytes the one-sector specification gives for `len` bytes
    /// from `lba`: `sector(lba)`, `sector(lba + 1)`, … (wrapping), cut.
    fn expected(ahci: &Ahci, lba: u64, len: usize) -> Vec<u8> {
        let sectors = len.div_ceil(SECTOR_BYTES) as u64;
        let mut v: Vec<u8> = (0..sectors)
            .flat_map(|i| ahci.sector(lba.wrapping_add(i)))
            .collect();
        v.truncate(len);
        v
    }

    const GUARD: u8 = 0xa5;
    /// Guard bytes checked after each buffer.
    const GUARDS: usize = 64;
    /// Where read buffers start, one per descriptor, this far apart.
    const BUFS: u64 = 0x20_0000;
    const BUF_STRIDE: u64 = 0x8000;

    /// The read path's batch against the one-sector specification, over
    /// 1,000 seeded cases. Each case reads 1–40 sectors through the
    /// device, its PRDT split at byte offsets that need not be sector
    /// multiples, after (every other case) writing overlay sectors into
    /// the range; each descriptor must receive `sector(lba + i)` for the
    /// sectors it touched, cut at its length, and the guard bytes after
    /// each buffer and after the staged bytes must stay. Each case also
    /// runs the batch directly over LBAs that include the last eight
    /// below `u64::MAX` (whose lane seeds wrap), with overlay sectors
    /// there, into a guarded buffer of any length.
    #[test]
    fn the_batch_is_the_sector_specification() {
        let (mut bus, mut mem, dev) = setup();
        let mut rng = Rng(0x5eed_a4c1);
        let mut now = 0;
        let mut run = |bus: &mut DeviceBus, mem: &mut PhysMem, cfis: cmd::Cfis, prdt: &[_]| {
            issue_prdt(bus, mem, now, cfis.encode(), prdt);
            now = bus.next_event_due().unwrap();
            bus.process_events(mem, now);
            complete(bus, mem, now);
        };
        for case in 0..1000 {
            let lba = match rng.below(3) {
                0 => rng.below(100),
                1 => (1 << 48) - 1 - rng.below(48),
                _ => rng.below(1 << 48),
            };
            let sectors = 1 + rng.below(40) as u16;
            if case % 2 == 1 {
                let n = 1 + rng.below(4) as u16;
                let at = (lba + rng.below(sectors as u64 + 2)).saturating_sub(1);
                let data: Vec<u8> = (0..n as u64 * 512).map(|_| rng.below(256) as u8).collect();
                mem.write_bytes(0x30_0000, &data);
                let write = cmd::Cfis {
                    write: true,
                    lba: at,
                    sectors: n,
                };
                run(&mut bus, &mut mem, write, &[(0x30_0000, n as u32 * SECTOR)]);
            }
            // Descriptors: the transfer cut at up to three random offsets.
            let total = sectors as u32 * SECTOR;
            let mut cuts: Vec<u32> = (0..rng.below(4))
                .map(|_| 1 + rng.below(total as u64 - 1) as u32)
                .collect();
            cuts.extend([0, total]);
            cuts.sort_unstable();
            cuts.dedup();
            let prdt: Vec<(u64, u32)> = cuts
                .windows(2)
                .enumerate()
                .map(|(e, w)| (BUFS + e as u64 * BUF_STRIDE, w[1] - w[0]))
                .collect();
            for &(dba, n) in &prdt {
                mem.write_bytes(dba, &vec![GUARD; n as usize + GUARDS]);
            }
            // Guards over the whole staging buffer: a case stages at most
            // its PRDT and its largest descriptor.
            let ahci = bus.typed_mut::<Ahci>(dev).unwrap();
            ahci.buf = vec![GUARD; 1 << 16];
            let read = cmd::Cfis {
                write: false,
                lba,
                sectors,
            };
            run(&mut bus, &mut mem, read, &prdt);

            let ahci = bus.typed_mut::<Ahci>(dev).unwrap();
            let mut at = lba;
            for (e, &(dba, n)) in prdt.iter().enumerate() {
                let got = mem.read_bytes(dba, n as usize + GUARDS);
                let want = expected(ahci, at, n as usize);
                assert!(
                    got[..n as usize] == want[..],
                    "case {case}: descriptor {e} of {prdt:?} from LBA {lba}"
                );
                assert!(
                    got[n as usize..].iter().all(|&b| b == GUARD),
                    "case {case}: past descriptor {e}"
                );
                at += (n as u64).div_ceil(512);
            }
            let staged = prdt
                .iter()
                .map(|&(_, n)| n as usize)
                .max()
                .unwrap_or(0)
                .max(prdt.len() * cmd::PRD_LEN);
            assert!(
                ahci.buf[staged..].iter().all(|&b| b == GUARD),
                "case {case}: staged past the transfer"
            );

            // The batch alone, where the seeds wrap.
            let lba = match rng.below(2) {
                0 => u64::MAX - rng.below(8),
                _ => rng.below(u64::MAX),
            };
            let len = 1 + rng.below(40 * 512) as usize;
            if rng.below(2) == 0 {
                let over = lba.wrapping_add(rng.below(len.div_ceil(512) as u64));
                ahci.store.insert(over, [case as u8; SECTOR_BYTES]);
            }
            let mut out = vec![GUARD; len + GUARDS];
            read_sectors(&ahci.store, lba, &mut out[..len]);
            assert!(
                out[..len] == expected(ahci, lba, len)[..],
                "case {case}: {len} bytes from LBA {lba}"
            );
            assert!(
                out[len..].iter().all(|&b| b == GUARD),
                "case {case}: past {len} bytes"
            );
        }
        let ahci = bus.typed_mut::<Ahci>(dev).unwrap();
        assert_eq!((ahci.completed, ahci.errors), (1500, 0));
    }
}
