//! The paravirtual NIC backend (the VMM side of [`nova_hw::pv`]'s
//! net queue) — the "virtual NIC" configuration of Fig. 7.
//!
//! The VMM owns the physical e1000e: root granted it the register
//! window, the GSI and the IOMMU mapping. The guest never touches
//! NIC registers; it posts receive buffers into a shared PV ring and
//! rings one doorbell per ring *refill*. The backend translates the
//! posted buffers into real hardware descriptors in a backend-private
//! page (the second page of the guest's ring allocation) and programs
//! the NIC's tail register — the device then DMAs packet payloads
//! *directly into the guest's buffers* (zero copy: guest RAM is
//! DMA-mapped in the VMM's address space). On the physical interrupt
//! the backend publishes lengths and status words into the PV ring,
//! advances the cumulative `used` counter, and injects one coalesced
//! virtual interrupt.
//!
//! Exit accounting per delivered packet: zero guest exits on the data
//! path. The guest pays one doorbell exit per refill batch and one
//! ISR-acknowledge exit per (already hardware-coalesced) interrupt.
//!
//! Because the backend programs guest-supplied addresses into a real
//! DMA engine, posted buffers are the most security-critical guest
//! input in the VMM: every buffer is bounds-checked against guest RAM
//! *before* it reaches a hardware descriptor, and a buffer outside
//! guest RAM — an attempted DMA into foreign memory — is a structural
//! [`VmKill`], not a per-packet error. Same for an unusable ring
//! base. The module is lint-gated panic-free.

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::panic)]

use nova_core::{CompCtx, Kernel};
use nova_hw::nic::{regs as hw, ICR_RXT0, RXD_STAT_DD};
use nova_hw::pv::{net as ring, regs};
use nova_hw::{GuestFault, GuestSurface, VmKill};

use crate::checkpoint::{Dec, Enc};
use crate::devices::count_rejected;
use crate::vmm::guest_va;

/// VMM page where the launcher maps the physical NIC's register
/// window for a paravirtual-NIC VMM (the direct-assignment path uses
/// `0x7_0010`; this window is the VMM's own, never the guest's).
pub const PVNET_MMIO_PAGE: u64 = 0x7_0020;

/// Hardware receive-descriptor ring entries: one full backend-private
/// page. Strictly larger than the PV ring's [`ring::CAPACITY`], so
/// the hardware tail can never lap the head while the guest obeys its
/// own ring bound.
const HW_ENTRIES: u64 = 256;

/// The paravirtual NIC backend.
pub struct PvNet {
    guest_pages: u64,
    /// VMM virtual address of the NIC register window.
    mmio_va: u64,
    /// Guest-physical address of the ring allocation (2 pages).
    ring_gpa: u64,
    /// Cumulative receive buffers the guest posted.
    posted: u64,
    /// Cumulative packets published back to the guest.
    used: u64,
    /// Latched receive-interrupt bit ([`regs::NET_ISR`]).
    isr: u32,
    raised_used: u64,
    /// Structurally fatal guest input awaiting escalation by the VMM.
    fatal: Option<VmKill>,
}

impl PvNet {
    /// Creates the backend for a guest of `guest_pages` pages.
    pub fn new(guest_pages: u64) -> PvNet {
        PvNet {
            guest_pages,
            mmio_va: PVNET_MMIO_PAGE * 4096,
            ring_gpa: 0,
            posted: 0,
            used: 0,
            isr: 0,
            raised_used: 0,
            fatal: None,
        }
    }

    /// Takes the pending fatal kill, if Byzantine input reached the
    /// DMA path.
    pub fn take_fatal(&mut self) -> Option<VmKill> {
        self.fatal.take()
    }

    /// Records one rejected guest input on this surface and arms the
    /// structural kill: anything invalid here was headed for a real
    /// DMA engine.
    fn reject_fatal(&mut self, k: &mut Kernel, reason: GuestFault) {
        count_rejected(k, GuestSurface::PvNetRing);
        if self.fatal.is_none() {
            self.fatal = Some(VmKill::new(GuestSurface::PvNetRing, reason));
        }
    }

    fn reg_write(&self, k: &mut Kernel, ctx: CompCtx, reg: u32, val: u32) {
        k.dev_mmio_write(
            ctx,
            self.mmio_va + reg as u64,
            nova_x86::insn::OpSize::Dword,
            val,
        );
    }

    fn reg_read(&self, k: &mut Kernel, ctx: CompCtx, reg: u32) -> u32 {
        k.dev_mmio_read(
            ctx,
            self.mmio_va + reg as u64,
            nova_x86::insn::OpSize::Dword,
        )
        .unwrap_or(0)
    }

    /// Guest MMIO read of a PV register this backend owns.
    pub fn mmio_read(&self, off: u64) -> u32 {
        match off {
            regs::NET_ISR => self.isr,
            _ => 0,
        }
    }

    /// Guest MMIO write. Returns `true` if the virtual interrupt line
    /// should be raised (ISR re-raise after acknowledge).
    pub fn mmio_write(&mut self, k: &mut Kernel, ctx: CompCtx, off: u64, val: u32) -> bool {
        match off {
            regs::NET_RING => {
                // Two whole pages (shared ring + backend-private
                // hardware ring) inside guest RAM, page-aligned; the
                // hardware ring page holds real DMA descriptors, so an
                // unusable base is structurally fatal.
                let gpa = val as u64;
                let reason = if gpa & 0xfff != 0 {
                    Some(GuestFault::Misaligned)
                } else if !nova_hw::pv::buffer_in_ram(gpa, 2 * 4096, self.guest_pages) {
                    Some(GuestFault::BadBase)
                } else {
                    None
                };
                if let Some(reason) = reason {
                    self.reject_fatal(k, reason);
                    return false;
                }
                self.ring_gpa = gpa;
                self.init_hw(k, ctx);
                false
            }
            regs::NET_DOORBELL => {
                self.doorbell(k, ctx, val);
                false
            }
            regs::NET_ISR => {
                self.isr &= !val;
                if self.isr == 0 && self.used != self.raised_used {
                    self.raise()
                } else {
                    false
                }
            }
            _ => false,
        }
    }

    /// Programs the physical receive ring into the backend-private
    /// second page of the guest's ring allocation. The NIC is assigned
    /// to the VMM's protection domain, so a device DMA address is the
    /// VMM address of the guest byte.
    fn init_hw(&mut self, k: &mut Kernel, ctx: CompCtx) {
        let base = guest_va(self.ring_gpa + 4096);
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
        if self.ring_gpa == 0 {
            return;
        }
        // Each refill batch is one request origin (buffer posting is
        // batch-granular; packets have no per-descriptor identity on
        // the wire).
        k.machine.bus.trace.alloc_ctx();
        if k.machine.bus.trace.active() {
            k.machine
                .bus
                .trace
                .metrics
                .add(nova_trace::names::PV_DOORBELLS, 1, 1);
        }
        let count = (count as u64).min(ring::CAPACITY as u64);
        for _ in 0..count {
            let idx = self.posted;
            let slot = idx % ring::CAPACITY as u64;
            let entry = guest_va(self.ring_gpa + ring::ENTRY0 + slot * ring::ENTRY_SIZE);
            let buf = k.mem_read_u64(ctx, entry + ring::E_BUF).unwrap_or(0);
            let cap = k.mem_read_u32(ctx, entry + ring::E_LEN).unwrap_or(0) as u64;
            // The posted buffer becomes a hardware DMA target: it must
            // lie entirely inside guest RAM (capacity included, and at
            // least one byte) or the guest is aiming the NIC at memory
            // it does not own. Stop the batch — the hardware ring
            // stays consistent with `posted` — and escalate.
            if !nova_hw::pv::buffer_in_ram(buf, cap.max(1), self.guest_pages) {
                self.reject_fatal(k, GuestFault::BufferOutOfRange);
                break;
            }
            let hwd = guest_va(self.ring_gpa + 4096 + (idx % HW_ENTRIES) * 16);
            let dva = guest_va(buf);
            k.mem_write_u32(ctx, hwd, dva as u32);
            k.mem_write_u32(ctx, hwd + 4, (dva >> 32) as u32);
            k.mem_write_u32(ctx, hwd + 8, 0);
            k.mem_write_u32(ctx, hwd + 12, 0);
            self.posted += 1;
        }
        self.reg_write(k, ctx, hw::RDT, (self.posted % HW_ENTRIES) as u32);
    }

    fn raise(&mut self) -> bool {
        self.raised_used = self.used;
        if self.isr == 0 {
            self.isr = 1;
            true
        } else {
            false
        }
    }

    /// Physical-interrupt handler: acknowledge the NIC, publish every
    /// hardware-completed descriptor into the PV ring, and report
    /// whether the (coalesced) virtual interrupt should be raised.
    pub fn on_irq(&mut self, k: &mut Kernel, ctx: CompCtx) -> bool {
        if self.ring_gpa == 0 {
            return false;
        }
        // Each drain of hardware completions is one request origin.
        k.machine.bus.trace.alloc_ctx();
        // Read-to-clear: drops the physical line.
        let _ = self.reg_read(k, ctx, hw::ICR);
        let mut advanced = false;
        while self.used < self.posted {
            let hwd = guest_va(self.ring_gpa + 4096 + (self.used % HW_ENTRIES) * 16);
            let status = k.mem_read_u32(ctx, hwd + 12).unwrap_or(0);
            if status & RXD_STAT_DD as u32 == 0 {
                break;
            }
            let len = k.mem_read_u32(ctx, hwd + 8).unwrap_or(0) & 0xffff;
            let slot = self.used % ring::CAPACITY as u64;
            let entry = guest_va(self.ring_gpa + ring::ENTRY0 + slot * ring::ENTRY_SIZE);
            k.mem_write_u32(ctx, entry + ring::E_LEN, len);
            k.mem_write_u32(ctx, entry + ring::E_STATUS, 1);
            k.mem_write_u32(ctx, hwd + 12, 0);
            self.used += 1;
            advanced = true;
        }
        if !advanced {
            return false;
        }
        k.mem_write_u32(ctx, guest_va(self.ring_gpa + ring::USED), self.used as u32);
        let raise = self.raise();
        if raise && k.machine.bus.trace.active() {
            k.machine
                .bus
                .trace
                .metrics
                .add(nova_trace::names::PV_COMPLETION_IRQS, 1, 1);
        }
        raise
    }

    /// Serializes the guest-visible queue state for a checkpoint.
    /// Deliberately minimal: the physical NIC's descriptor ring is
    /// *not* captured — restore reprograms the hardware ring from
    /// scratch via [`PvNet::import_state`], and packets that were
    /// physically in flight across the crash are lost (the documented
    /// lossy-network limitation; guests already tolerate drops).
    pub fn export_state(&self, e: &mut Enc) {
        e.u64(self.ring_gpa);
        e.u64(self.posted);
        e.u64(self.used);
        e.u32(self.isr);
        e.u64(self.raised_used);
    }

    /// Restores checkpointed state and reprograms the physical
    /// receive ring (the hardware descriptors live in the
    /// backend-private guest page, which the memory restore already
    /// rewrote; only the NIC registers need re-deriving).
    pub fn import_state(&mut self, k: &mut Kernel, ctx: CompCtx, d: &mut Dec) -> Option<()> {
        self.ring_gpa = d.u64()?;
        self.posted = d.u64()?;
        self.used = d.u64()?;
        self.isr = d.u32()?;
        self.raised_used = d.u64()?;
        self.fatal = None;
        if self.ring_gpa != 0 {
            self.init_hw(k, ctx);
            self.reg_write(k, ctx, hw::RDT, (self.posted % HW_ENTRIES) as u32);
        }
        Some(())
    }
}
