//! The network driver: a deprivileged user-level driver for the
//! gigabit NIC.
//!
//! It owns the controller's MMIO window and interrupt, sets up the
//! receive descriptor ring in its own (DMA-delegated) memory, and
//! processes packets on coalesced interrupts — the host-side
//! counterpart of the Section 8.3 measurements (in which the guest
//! drives the NIC directly; this driver serves host networking and the
//! remote-attack containment tests).

use nova_core::cap::CapSel;
use nova_core::{CompCtx, Component, Hypercall, Kernel, Utcb};
use nova_hw::nic::{regs, DESC_SIZE, ICR_RXT0, RXD_STAT_DD};
use nova_x86::insn::OpSize;

/// Driver layout and platform facts.
#[derive(Clone, Copy, Debug)]
pub struct NetDriverConfig {
    /// VA of the NIC MMIO window.
    pub mmio_va: u64,
    /// VA of the descriptor ring (1 page, DMA-delegated).
    pub ring_va: u64,
    /// VA of the packet buffers (`ring_entries` × 16 KB, DMA).
    pub buf_va: u64,
    /// Ring size in descriptors.
    pub ring_entries: u32,
    /// NIC GSI.
    pub gsi: u8,
    /// Scheduling priority.
    pub prio: u8,
}

impl NetDriverConfig {
    /// The conventional layout used by the system builder.
    pub fn standard() -> NetDriverConfig {
        NetDriverConfig {
            mmio_va: nova_hw::machine::NIC_BASE,
            ring_va: 0x0030_0000,
            buf_va: 0x0034_0000,
            ring_entries: 64,
            gsi: nova_hw::machine::NIC_IRQ,
            prio: 32,
        }
    }
}

const SEL_IRQ_SM: CapSel = 0x10;
const SEL_SC: CapSel = 0x11;

/// Receive statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct NetStats {
    /// Packets received.
    pub packets: u64,
    /// Bytes received.
    pub bytes: u64,
    /// Interrupts serviced.
    pub irqs: u64,
    /// Sequence gaps detected in the generator's packet stream.
    pub seq_errors: u64,
    /// Payload-integrity failures (fill byte diverges from the
    /// sequence-derived pattern — wire corruption).
    pub corrupt_errors: u64,
}

/// The network-driver component.
pub struct NetDriver {
    cfg: NetDriverConfig,
    head: u32,
    next_seq: u64,
    /// Statistics.
    pub stats: NetStats,
    /// Modeled per-packet processing cost (header parse + bookkeeping).
    pub per_packet_cost: u64,
}

impl NetDriver {
    /// Creates the driver.
    pub fn new(cfg: NetDriverConfig) -> NetDriver {
        NetDriver {
            cfg,
            head: 0,
            next_seq: 0,
            stats: NetStats::default(),
            per_packet_cost: 450,
        }
    }

    fn mmio_write(&self, k: &mut Kernel, ctx: CompCtx, reg: u32, val: u32) {
        k.dev_mmio_write(ctx, self.cfg.mmio_va + reg as u64, OpSize::Dword, val);
    }

    fn mmio_read(&self, k: &mut Kernel, ctx: CompCtx, reg: u32) -> u32 {
        k.dev_mmio_read(ctx, self.cfg.mmio_va + reg as u64, OpSize::Dword)
            .unwrap_or(0)
    }
}

impl Component for NetDriver {
    fn name(&self) -> &str {
        "net-driver"
    }

    fn on_start(&mut self, k: &mut Kernel, ctx: CompCtx) {
        k.hypercall(
            ctx,
            Hypercall::CreateSc {
                ec: nova_core::kernel::SEL_SELF_EC,
                prio: self.cfg.prio,
                quantum: 100_000,
                dst: SEL_SC,
            },
        )
        .expect("net driver SC");
        k.hypercall(
            ctx,
            Hypercall::CreateSm {
                count: 0,
                dst: SEL_IRQ_SM,
            },
        )
        .expect("irq semaphore");
        k.hypercall(ctx, Hypercall::SmBind { sm: SEL_IRQ_SM })
            .expect("bind");
        k.hypercall(
            ctx,
            Hypercall::AssignGsi {
                sm: SEL_IRQ_SM,
                gsi: self.cfg.gsi,
            },
        )
        .expect("gsi routed to net driver");

        // Fill the descriptor ring with buffer addresses (domain
        // addresses; the device reaches them through the IOMMU).
        for i in 0..self.cfg.ring_entries as u64 {
            let desc = self.cfg.ring_va + i * DESC_SIZE;
            let buf = self.cfg.buf_va + i * 0x4000;
            k.mem_write(ctx, desc, &buf.to_le_bytes());
            k.mem_write_u32(ctx, desc + 12, 0);
        }

        // Program the controller.
        self.mmio_write(k, ctx, regs::RDBAL, self.cfg.ring_va as u32);
        self.mmio_write(k, ctx, regs::RDBAH, (self.cfg.ring_va >> 32) as u32);
        self.mmio_write(
            k,
            ctx,
            regs::RDLEN,
            self.cfg.ring_entries * DESC_SIZE as u32,
        );
        self.mmio_write(k, ctx, regs::RDH, 0);
        self.mmio_write(k, ctx, regs::RDT, self.cfg.ring_entries - 1);
        self.mmio_write(k, ctx, regs::IMS, ICR_RXT0);
    }

    fn on_call(&mut self, _k: &mut Kernel, _ctx: CompCtx, _portal_id: u64, utcb: &mut Utcb) {
        // Status query portal: report statistics.
        utcb.set_msg(&[
            self.stats.packets,
            self.stats.bytes,
            self.stats.irqs,
            self.stats.seq_errors,
            self.stats.corrupt_errors,
        ]);
    }

    fn on_signal(&mut self, k: &mut Kernel, ctx: CompCtx, _sm: nova_core::SmId) {
        let icr = self.mmio_read(k, ctx, regs::ICR);
        if icr & ICR_RXT0 == 0 {
            return; // spurious
        }
        self.stats.irqs += 1;

        // Drain completed descriptors.
        loop {
            let desc = self.cfg.ring_va + (self.head as u64) * DESC_SIZE;
            let status = k.mem_read_u8(ctx, desc + 12).unwrap_or(0);
            if status & RXD_STAT_DD == 0 {
                break;
            }
            let mut raw = [0u8; 2];
            let len = k
                .mem_read_into(ctx, desc + 8, &mut raw)
                .map_or(0, |()| u16::from_le_bytes(raw) as u64);
            // Check the generator's sequence number (first 8 bytes).
            let buf = self.cfg.buf_va + (self.head as u64) * 0x4000;
            if len >= 8 {
                let seq = k.mem_read_u64(ctx, buf).unwrap_or(0);
                if seq != self.next_seq {
                    self.stats.seq_errors += 1;
                }
                if len > 8 {
                    // The generator fills the payload with the low
                    // sequence byte; anything else is corruption.
                    let fill = k.mem_read_u8(ctx, buf + 8).unwrap_or(0);
                    if fill != (seq & 0xff) as u8 {
                        self.stats.corrupt_errors += 1;
                    }
                }
                self.next_seq = seq + 1;
            }
            k.charge(self.per_packet_cost);
            self.stats.packets += 1;
            self.stats.bytes += len;

            // Recycle the descriptor and advance the tail.
            k.mem_write_u32(ctx, desc + 12, 0);
            let tail = self.head; // previous head becomes the new tail
            self.head = (self.head + 1) % self.cfg.ring_entries;
            self.mmio_write(k, ctx, regs::RDT, tail);
        }
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::root::{RootOps, RootPm};
    use nova_core::obj::MemRights;
    use nova_core::{KernelConfig, RunOutcome};
    use nova_hw::machine::{Machine, MachineConfig};
    use nova_hw::nic::{Nic, Stream};

    fn boot() -> (Kernel, nova_core::CompId) {
        let m = Machine::new(MachineConfig::core_i7(64 << 20));
        let mut k = Kernel::new(m, KernelConfig::default());
        let (rc, re) = k.load_component(k.root_pd, 0, Box::new(RootPm::new()));
        k.start_component(rc, re);
        let root_ctx = k.component_mut::<RootPm>(rc).unwrap().ctx.unwrap();

        let cfg = NetDriverConfig::standard();
        let nic_dev = k.machine.dev.nic;
        let mut ops = RootOps::new(&mut k, root_ctx);
        let sel = ops.alloc_sel();
        let pd = ops.provision("net", sel, &[]).unwrap();
        // MMIO window (4 pages).
        ops.grant_mem(
            sel,
            nova_hw::machine::NIC_BASE / 4096,
            4,
            MemRights::RW,
            cfg.mmio_va / 4096,
        )
        .unwrap();
        // Ring page + 64 buffers x 16 KB = 256 pages, DMA-able.
        ops.grant_mem(sel, 0x600, 1, MemRights::RW_DMA, cfg.ring_va / 4096)
            .unwrap();
        ops.grant_mem(sel, 0x700, 256, MemRights::RW_DMA, cfg.buf_va / 4096)
            .unwrap();
        ops.grant_gsi(sel, cfg.gsi).unwrap();
        ops.assign_device(sel, nic_dev).unwrap();

        let (comp, ec) = k.load_component(pd, 0, Box::new(NetDriver::new(cfg)));
        k.start_component(comp, ec);
        (k, comp)
    }

    fn start_traffic(k: &mut Kernel, packets: u64, bytes: u32, interarrival: u64) {
        let dev = k.machine.dev.nic;
        k.machine
            .bus
            .typed_mut::<Nic>(dev)
            .unwrap()
            .set_stream(Stream {
                packet_bytes: bytes,
                interarrival,
                remaining: packets,
            });
        k.machine.bus.events.schedule(
            k.machine.clock + interarrival,
            nova_hw::event::Event {
                device: dev,
                token: 1, // EV_PACKET
            },
        );
    }

    #[test]
    fn receives_stream_without_loss() {
        let (mut k, comp) = boot();
        start_traffic(&mut k, 50, 1472, 20_000);
        let out = k.run(Some(500_000_000));
        assert_eq!(out, RunOutcome::Idle);
        let stats = k.component_mut::<NetDriver>(comp).unwrap().stats;
        assert_eq!(stats.packets, 50);
        assert_eq!(stats.bytes, 50 * 1472);
        assert_eq!(stats.seq_errors, 0, "in-order, lossless");
        assert!(
            stats.irqs < 50,
            "interrupt coalescing merged deliveries ({} irqs)",
            stats.irqs
        );
        let dev = k.machine.dev.nic;
        let nic = k.machine.bus.typed_mut::<Nic>(dev).unwrap();
        assert_eq!(nic.rx_dropped, 0);
    }

    /// Injected wire faults are *detected*, never silently absorbed:
    /// every dropped packet is missing from the receive count and
    /// every corrupted one fails the payload-integrity check.
    #[test]
    fn injected_drops_and_corruption_detected() {
        use nova_hw::fault::{FaultKind, FaultPlan};
        let (mut k, comp) = boot();
        k.machine.set_fault_plan(
            FaultPlan::seeded(11)
                .with(FaultKind::NicPacketDrop, 4000, 4)
                .with(FaultKind::NicPacketCorrupt, 4000, 4),
        );
        start_traffic(&mut k, 200, 256, 20_000);
        let out = k.run(Some(8_000_000_000));
        assert_eq!(out, RunOutcome::Idle);

        let dropped = k.machine.faults().count(FaultKind::NicPacketDrop);
        let corrupted = k.machine.faults().count(FaultKind::NicPacketCorrupt);
        assert!(dropped > 0 && corrupted > 0, "plan actually fired");

        let stats = k.component_mut::<NetDriver>(comp).unwrap().stats;
        // Conservation: received + dropped accounts for every packet.
        assert_eq!(stats.packets + dropped, 200);
        // Every drop shows up as a sequence gap (gaps of consecutive
        // drops merge, so this is a lower bound of one per run).
        assert!(stats.seq_errors >= 1 && stats.seq_errors <= dropped);
        // Every corruption is caught by the integrity check.
        assert_eq!(stats.corrupt_errors, corrupted);
    }

    #[test]
    fn dma_is_confined_by_iommu() {
        let (mut k, _comp) = boot();
        start_traffic(&mut k, 10, 64, 10_000);
        k.run(Some(100_000_000));
        assert!(
            k.machine.bus.iommu.faults.is_empty(),
            "all NIC DMA hit delegated pages"
        );
        // Packets landed in the *driver's* frames (0x700..), nowhere else.
        assert_eq!(k.machine.mem.read_u64(0x700 * 4096), 0, "seq 0 packet");
    }
}
