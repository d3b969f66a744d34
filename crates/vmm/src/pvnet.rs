//! The paravirtual NIC backend (the VMM side of [`nova_hw::pv`]'s
//! net queue) — the "virtual NIC" configuration of Fig. 7.
//!
//! The VMM owns the physical e1000e (root granted it the register
//! window, the GSI and the IOMMU mapping). The guest posts receive
//! buffers into a shared PV ring and rings one doorbell per *refill*;
//! the backend turns them into real hardware descriptors in the second
//! page of the guest's ring allocation, and the device DMAs payloads
//! *directly into the guest's buffers* (zero copy). On the physical
//! interrupt the backend publishes lengths and status words into the
//! PV ring and the queue core raises one coalesced virtual interrupt.
//!
//! No guest exit per packet: one doorbell exit per refill and one ISR
//! acknowledge per interrupt. A posted buffer outside guest RAM — a
//! DMA into foreign memory — is a structural kill ([`crate::pvqueue`])
//! before it reaches a hardware descriptor. Lint-gated panic-free.

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::panic)]

use nova_core::{CompCtx, Kernel};
use nova_hw::nic::{regs as hw, ICR_RXT0, RXD_STAT_DD};
use nova_hw::pv::net as ring;
use nova_hw::GuestFault;

use crate::checkpoint::{Dec, Enc};
use crate::pvqueue::{Queue, QueueCore, Reg};
use crate::vmm::guest_va;

/// VMM page where the launcher maps the physical NIC's register
/// window for a paravirtual-NIC VMM (the direct-assignment path uses
/// `0x7_0010`; this window is the VMM's own, never the guest's).
pub const PVNET_MMIO_PAGE: u64 = 0x7_0020;

/// Hardware receive-descriptor ring entries: one backend-private page,
/// more than the PV ring's [`ring::CAPACITY`], so the hardware tail
/// never laps the head while the guest obeys its own ring bound.
const HW_ENTRIES: u64 = 256;

/// The paravirtual NIC backend.
pub struct PvNet {
    /// The queue core: ring base, ISR, coalescing and the fatal latch.
    pub q: QueueCore,
    /// Cumulative receive buffers the guest posted.
    posted: u64,
    /// Cumulative packets published back to the guest.
    used: u64,
}

impl PvNet {
    /// Creates the backend for a guest of `guest_pages` pages.
    pub fn new(guest_pages: u64) -> PvNet {
        PvNet {
            q: QueueCore::new(Queue::Net, guest_pages),
            posted: 0,
            used: 0,
        }
    }

    fn reg_write(&self, k: &mut Kernel, ctx: CompCtx, reg: u32, val: u32) {
        let va = PVNET_MMIO_PAGE * 4096 + reg as u64;
        k.dev_mmio_write(ctx, va, nova_x86::insn::OpSize::Dword, val);
    }

    /// Guest write of one of this queue's registers; `true` if the line
    /// should be raised (an ISR re-raise after acknowledge).
    pub fn write(&mut self, k: &mut Kernel, ctx: CompCtx, reg: Reg, val: u32) -> bool {
        match reg {
            // The second ring page holds real DMA descriptors.
            Reg::Ring if self.q.set_ring(k, val) => self.init_hw(k, ctx),
            Reg::Ring => {}
            Reg::Doorbell => self.doorbell(k, ctx, val),
            Reg::Isr => return self.q.ack(val, true, self.used),
        }
        false
    }

    /// Programs the physical receive ring into the second ring page. The
    /// NIC is assigned to the VMM's protection domain, so a device DMA
    /// address is the VMM address of the guest byte.
    fn init_hw(&mut self, k: &mut Kernel, ctx: CompCtx) {
        let base = guest_va(self.q.ring_gpa + 4096);
        self.reg_write(k, ctx, hw::RDBAL, base as u32);
        self.reg_write(k, ctx, hw::RDBAH, (base >> 32) as u32);
        self.reg_write(k, ctx, hw::RDLEN, (HW_ENTRIES * 16) as u32);
        self.reg_write(k, ctx, hw::RDH, 0);
        self.reg_write(k, ctx, hw::RDT, 0);
        self.reg_write(k, ctx, hw::IMS, ICR_RXT0);
    }

    /// Doorbell: translate `count` freshly posted PV entries into
    /// hardware descriptors and advance the NIC's tail — the one exit
    /// per refill batch.
    fn doorbell(&mut self, k: &mut Kernel, ctx: CompCtx, count: u32) {
        if self.q.ring_gpa == 0 {
            return;
        }
        // Each refill batch is one request origin (buffer posting is
        // batch-granular; packets have no per-descriptor identity on
        // the wire).
        k.machine.bus.trace.alloc_ctx();
        // The backend keeps nothing per posted buffer: a guest posting
        // past its ring bound laps the hardware ring and grows nothing.
        for _ in 0..self.q.doorbell(k, count, 0) {
            let entry = self.q.slot(self.posted);
            let buf = k.mem_read_u64(ctx, entry + ring::E_BUF).unwrap_or(0);
            let cap = k.mem_read_u32(ctx, entry + ring::E_LEN).unwrap_or(0) as u64;
            // A DMA target: capacity included and at least one byte, or
            // the guest aims the NIC at memory it does not own. Stop the
            // batch — the hardware ring stays consistent with `posted`.
            if !self.q.in_ram(buf, cap.max(1)) {
                self.q.reject(k, Some(GuestFault::BufferOutOfRange));
                break;
            }
            let hwd = guest_va(self.q.ring_gpa + 4096 + (self.posted % HW_ENTRIES) * 16);
            let dva = guest_va(buf);
            k.mem_write_u32(ctx, hwd, dva as u32);
            k.mem_write_u32(ctx, hwd + 4, (dva >> 32) as u32);
            k.mem_write_u32(ctx, hwd + 8, 0);
            k.mem_write_u32(ctx, hwd + 12, 0);
            self.posted += 1;
        }
        self.reg_write(k, ctx, hw::RDT, (self.posted % HW_ENTRIES) as u32);
    }

    /// Physical-interrupt handler: acknowledge the NIC, publish every
    /// hardware-completed descriptor into the PV ring, and report
    /// whether the (coalesced) virtual interrupt should be raised.
    pub fn on_irq(&mut self, k: &mut Kernel, ctx: CompCtx) -> bool {
        if self.q.ring_gpa == 0 {
            return false;
        }
        // Each drain of hardware completions is one request origin.
        k.machine.bus.trace.alloc_ctx();
        // Read-to-clear: drops the physical line.
        let icr = PVNET_MMIO_PAGE * 4096 + hw::ICR as u64;
        let _ = k.dev_mmio_read(ctx, icr, nova_x86::insn::OpSize::Dword);
        let mut advanced = false;
        while self.used < self.posted {
            let hwd = guest_va(self.q.ring_gpa + 4096 + (self.used % HW_ENTRIES) * 16);
            let status = k.mem_read_u32(ctx, hwd + 12).unwrap_or(0);
            if status & RXD_STAT_DD as u32 == 0 {
                break;
            }
            let len = k.mem_read_u32(ctx, hwd + 8).unwrap_or(0) & 0xffff;
            let entry = self.q.slot(self.used);
            k.mem_write_u32(ctx, entry + ring::E_LEN, len);
            k.mem_write_u32(ctx, entry + ring::E_STATUS, 1);
            k.mem_write_u32(ctx, hwd + 12, 0);
            self.used += 1;
            advanced = true;
        }
        let raise = advanced && self.q.publish(k, ctx, self.used, true);
        self.q.count_irq(k, raise)
    }

    /// Serializes the guest-visible queue state for a checkpoint; not
    /// the NIC's ring, which restore reprograms: packets in flight across
    /// the crash are lost (the documented lossy-network limitation).
    pub fn export_state(&self, e: &mut Enc) {
        self.q.export_state(e, &[self.posted, self.used]);
    }

    /// Restores checkpointed state and reprograms the NIC's registers
    /// (the memory restore already rewrote the hardware descriptors).
    pub fn import_state(&mut self, k: &mut Kernel, ctx: CompCtx, d: &mut Dec) -> Option<()> {
        [self.posted, self.used] = self.q.import_state(d)?;
        if self.q.ring_gpa != 0 {
            self.init_hw(k, ctx);
            self.reg_write(k, ctx, hw::RDT, (self.posted % HW_ENTRIES) as u32);
        }
        Some(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::diskclient::tests::setup;
    use nova_hw::GuestSurface;
    use nova_trace::{cat, names, Tracer};

    /// A doorbell past the ring's capacity is one rejected guest input
    /// on the NIC's surface, as it is on the disk's; the VM lives and
    /// the ring takes a full capacity.
    #[test]
    fn an_over_capacity_doorbell_is_a_rejected_input() {
        let (mut k, ctx, _) = setup();
        k.machine.bus.trace = Tracer::new(1, 1 << 16, cat::ALL);
        let mut net = PvNet::new(1024);
        net.write(&mut k, ctx, Reg::Ring, 0x2000);
        net.write(&mut k, ctx, Reg::Doorbell, ring::CAPACITY + 1);
        assert_eq!(k.counters.guest_faults_rejected, 1);
        let surface = GuestSurface::PvNetRing as u64;
        let metric = k
            .machine
            .tracer()
            .metrics
            .get(names::GUEST_FAULT_REJECTED, surface);
        assert_eq!(metric.map(|m| m.count), Some(1));
        assert_eq!((net.posted, net.q.fatal), (ring::CAPACITY as u64, None));
    }
}
