//! The paravirtual device's queue core: what its two queues, the
//! batched disk ([`crate::pvdisk`]) and the NIC's receive queue
//! ([`crate::pvnet`]), share of [`nova_hw::pv`], once — the decode of
//! the PV page, the ring base and its check, the bounds check on guest
//! buffers, the doorbell clamp, the write-1-to-clear ISR and its
//! coalescing rule, the `used` word, the doorbell and interrupt counts,
//! and the latch of the [`VmKill`] the VMM files after a fatal input.

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::panic)]

use nova_core::{CompCtx, Kernel};
use nova_hw::pv::{self, regs};
use nova_hw::{GuestFault, GuestSurface, VmKill};
use nova_trace::names;

use crate::checkpoint::{Dec, Enc};
use crate::devices::count_rejected;
use crate::vmm::guest_va;

/// One of the device's queues.
#[derive(Clone, Copy)]
pub enum Queue {
    Disk,
    Net,
}

/// A queue's register: the ring base, the doorbell (entries newly
/// published) and the interrupt status (write 1 to acknowledge).
#[derive(Clone, Copy)]
pub enum Reg {
    Ring,
    Doorbell,
    Isr,
}

/// The one decode of the PV page: the queue and register at `off`, or
/// `None` ([`regs::FEAT`] and unassigned offsets).
pub fn decode(off: u64) -> Option<(Queue, Reg)> {
    Some(match off {
        regs::DISK_RING => (Queue::Disk, Reg::Ring),
        regs::DISK_DOORBELL => (Queue::Disk, Reg::Doorbell),
        regs::DISK_ISR => (Queue::Disk, Reg::Isr),
        regs::NET_RING => (Queue::Net, Reg::Ring),
        regs::NET_DOORBELL => (Queue::Net, Reg::Doorbell),
        regs::NET_ISR => (Queue::Net, Reg::Isr),
        _ => return None,
    })
}

/// What sets one queue apart: the surface its rejections and kills
/// name, its counts' metric domain, its ring's pages, slot count (the
/// most one doorbell may publish), first slot and stride, and line.
pub struct Kind {
    surface: GuestSurface,
    domain: u64,
    ring_pages: u64,
    capacity: u32,
    slots: (u64, u64),
    pub irq: u8,
}

impl Queue {
    /// The queue's constants.
    pub fn kind(self) -> &'static Kind {
        match self {
            // One ring page; a free slave-PIC line (the vAHCI keeps
            // `AHCI_IRQ`).
            Queue::Disk => &Kind {
                surface: GuestSurface::PvDiskRing,
                domain: 0,
                ring_pages: 1,
                capacity: pv::disk::CAPACITY,
                slots: (pv::disk::DESC0, pv::disk::DESC_SIZE),
                irq: 9,
            },
            // The shared ring page and a backend-private page for the
            // hardware descriptors; the physical NIC's line.
            Queue::Net => &Kind {
                surface: GuestSurface::PvNetRing,
                domain: 1,
                ring_pages: 2,
                capacity: pv::net::CAPACITY,
                slots: (pv::net::ENTRY0, pv::net::ENTRY_SIZE),
                irq: nova_hw::machine::NIC_IRQ,
            },
        }
    }
}

// Both rings keep their cumulative `used` word at the same offset.
const _: () = assert!(pv::disk::USED == pv::net::USED);

/// The state every queue holds, embedded in its backend.
pub struct QueueCore {
    queue: Queue,
    guest_pages: u64,
    /// Guest-physical base of the ring allocation (0 = unset).
    pub ring_gpa: u64,
    /// Latched completion-interrupt bit ([`Reg::Isr`]).
    pub isr: u32,
    /// The `used` count at the last interrupt raise (coalescing state).
    raised_used: u64,
    /// Fatal guest input the VMM takes after the exit and kills for.
    pub fatal: Option<VmKill>,
}

impl QueueCore {
    /// The core of queue `q` of a guest of `guest_pages` pages.
    pub fn new(q: Queue, guest_pages: u64) -> QueueCore {
        QueueCore {
            queue: q,
            guest_pages,
            ring_gpa: 0,
            isr: 0,
            raised_used: 0,
            fatal: None,
        }
    }

    /// Counts one rejected guest input; a `fatal` reason also latches
    /// the structural kill (the first one latched stays).
    pub fn reject(&mut self, k: &mut Kernel, fatal: Option<GuestFault>) {
        let surface = self.queue.kind().surface;
        count_rejected(k, surface);
        let kill = fatal.map(|reason| VmKill::new(surface, reason));
        self.fatal = self.fatal.or(kill);
    }

    /// `true` if `[buf, buf + len)` lies inside guest RAM: the check on
    /// every guest-supplied buffer before use.
    pub fn in_ram(&self, buf: u64, len: u64) -> bool {
        pv::buffer_in_ram(buf, len, self.guest_pages)
    }

    /// [`Reg::Ring`]: page-aligned whole pages inside guest RAM, or the
    /// queue cannot be serviced at all — a structural kill, not a
    /// per-request error. `true` if accepted.
    pub fn set_ring(&mut self, k: &mut Kernel, val: u32) -> bool {
        let gpa = val as u64;
        let reason = if gpa & 0xfff != 0 {
            GuestFault::Misaligned
        } else if !self.in_ram(gpa, self.queue.kind().ring_pages * 4096) {
            GuestFault::BadBase
        } else {
            self.ring_gpa = gpa;
            return true;
        };
        self.reject(k, Some(reason));
        false
    }

    /// [`Reg::Doorbell`]: counts it and clamps its count to the ring's
    /// free slots, the capacity less the `in_flight` entries still
    /// holding theirs (a larger one is rejected input), bounding one
    /// exit's work and what the queue holds.
    pub fn doorbell(&mut self, k: &mut Kernel, count: u32, in_flight: u64) -> u32 {
        let kind = self.queue.kind();
        let free = (kind.capacity as u64).saturating_sub(in_flight) as u32;
        if count > free {
            self.reject(k, None);
        }
        let trace = &mut k.machine.bus.trace;
        if trace.active() {
            trace.metrics.add(names::PV_DOORBELLS, kind.domain, 1);
        }
        count.min(free)
    }

    /// VMM address of the ring slot of cumulative index `idx`.
    pub fn slot(&self, idx: u64) -> u64 {
        let kind = self.queue.kind();
        let (first, stride) = kind.slots;
        guest_va(self.ring_gpa + first + idx % kind.capacity as u64 * stride)
    }

    /// Writes the cumulative `used` word. Coalescing: completions land
    /// silently while work is in flight; the one interrupt fires once
    /// the queue is `idle`. `true` if the line should be raised.
    pub fn publish(&mut self, k: &mut Kernel, ctx: CompCtx, used: u64, idle: bool) -> bool {
        k.mem_write_u32(ctx, guest_va(self.ring_gpa + pv::disk::USED), used as u32);
        idle && self.raise(used)
    }

    /// [`Reg::Isr`] write-1-to-clear; re-raises at once if the queue is
    /// `idle` and completions arrived while the bit was latched.
    pub fn ack(&mut self, val: u32, idle: bool, used: u64) -> bool {
        self.isr &= !val;
        self.isr == 0 && idle && used != self.raised_used && self.raise(used)
    }

    /// Latches the ISR; `true` if a new interrupt fires — at most one
    /// until the guest acknowledges.
    fn raise(&mut self, used: u64) -> bool {
        self.raised_used = used;
        let fire = self.isr == 0;
        self.isr = 1;
        fire
    }

    /// Counts the completion interrupt `raise` asks for; returns it.
    pub fn count_irq(&self, k: &mut Kernel, raise: bool) -> bool {
        let (trace, domain) = (&mut k.machine.bus.trace, self.queue.kind().domain);
        if raise && trace.active() {
            trace.metrics.add(names::PV_COMPLETION_IRQS, domain, 1);
        }
        raise
    }

    /// Checkpoint record: the ring base, the backend's cumulative
    /// `counters`, then the ISR and the coalescing state.
    pub fn export_state(&self, e: &mut Enc, counters: &[u64]) {
        e.u64(self.ring_gpa);
        counters.iter().for_each(|&c| e.u64(c));
        e.u32(self.isr);
        e.u64(self.raised_used);
    }

    /// Restores [`QueueCore::export_state`] bytes, nothing fatal
    /// pending; returns the backend's counters.
    pub fn import_state<const N: usize>(&mut self, d: &mut Dec) -> Option<[u64; N]> {
        self.ring_gpa = d.u64()?;
        let mut counters = [0; N];
        for c in &mut counters {
            *c = d.u64()?;
        }
        self.isr = d.u32()?;
        self.raised_used = d.u64()?;
        self.fatal = None;
        Some(counters)
    }
}
