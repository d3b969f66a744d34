//! The virtual AHCI controller (Sections 7.2–7.3, Figure 4).
//!
//! The register interface is identical to the physical controller
//! model, so the same guest driver runs against both. When the guest
//! rings the command doorbell, the VMM parses the command structures
//! out of guest memory, delegates the guest's DMA buffer pages to the
//! disk server, and submits the request over IPC; the physical
//! controller then DMAs *directly into guest memory* — no payload
//! copy. On the completion notification the VMM updates the virtual
//! controller's state machine and raises the virtual interrupt line.
//!
//! The channel to the disk server — delegations, wire format, the
//! completion ring, the table of requests in flight with its checkpoint
//! record, and the timeout/retry/degrade policy — is
//! [`crate::diskclient`]; the register file and the byte layout of a
//! command are the platform controller's (`nova_hw::ahci::{PortRegs,
//! cmd}`). This module is what lies between: the validation of the
//! guest's command structures ([`parse_command`], which the monolithic
//! baseline's doorbell calls too), and command slots as request tags
//! (one IPC per slot).
//!
//! Every structure the controller parses — command list, command
//! table, CFIS, PRDT — lives in guest memory and is Byzantine input:
//! all reads are bounds-checked against guest RAM, all rejections
//! surface to the guest as a task-file error (TFES) on the offending
//! slot, and nothing the guest writes can panic the VMM or index
//! outside its own window (lint-gated below).

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::panic)]

use nova_core::{CompCtx, Kernel};
use nova_hw::ahci::{cmd, regs, slots, PortEvent, PortRegs, SECTOR};
use nova_hw::{GuestFault, GuestSurface};
use nova_user::proto::disk as proto;
use nova_x86::insn::OpSize;

use crate::checkpoint::{Dec, Enc};
use crate::devices::count_rejected;
use crate::diskclient::{DiskClient, Due, Req};
use crate::vmm::guest_va;

/// Command slots of the port: a request's tag is its slot number.
const SLOTS: u8 = 32;

/// Commands the table holds before it grows: a guest driver that waits
/// for each command keeps one outstanding.
const TABLE_SLOTS: usize = 1;

/// The virtual AHCI controller.
pub struct VAhci {
    /// Guest RAM size in pages — the bound every guest-supplied
    /// address is validated against.
    guest_pages: u64,
    /// The channel to the disk server and the outstanding commands,
    /// tagged by slot.
    pub disk: DiskClient,
    /// The guest-visible register file.
    pub regs: PortRegs,
}

impl VAhci {
    /// Creates the model for a guest of `guest_pages` pages.
    pub fn new(guest_pages: u64) -> VAhci {
        VAhci {
            guest_pages,
            disk: DiskClient::with_capacity(TABLE_SLOTS),
            regs: PortRegs::default(),
        }
    }

    /// Reports a task-file error for `slot` to the guest and forgets
    /// its request: the degradation path — the guest sees an error
    /// status, never a hung vCPU.
    fn fail_slot(&mut self, slot: u8) {
        self.regs.complete(slot, false);
        self.disk.take(slot as u64);
    }

    /// A malformed guest command structure: count the typed rejection,
    /// then degrade the slot with a task-file error.
    fn fail_guest(&mut self, k: &mut Kernel, slot: u8, _fault: GuestFault) {
        count_rejected(k, GuestSurface::Vahci);
        self.fail_slot(slot);
    }

    /// Handles a doorbell write: parse the guest's command structures
    /// ([`parse_command`]) and forward the request to the disk server.
    fn issue(&mut self, k: &mut Kernel, ctx: CompCtx, slot: u8) {
        let read = |gpa, out: &mut [u8]| k.mem_read_into(ctx, guest_va(gpa), out);
        let command = parse_command(read, self.guest_pages, self.regs.clb, slot);
        let Command { fis, segs, nsegs } = match command {
            Ok(c) => c,
            Err(fault) => return self.fail_guest(k, slot, fault),
        };
        if self.disk.find(slot as u64).is_some() {
            // The slot is still outstanding; a well-behaved guest
            // never re-rings it.
            return self.fail_guest(k, slot, GuestFault::Rerung);
        }

        // Each accepted doorbell command is a request origin.
        let rctx = k.machine.bus.trace.alloc_ctx();
        self.disk.track(Req {
            tag: slot as u64,
            op: if fis.write {
                proto::OP_WRITE
            } else {
                proto::OP_READ
            },
            lba: fis.lba,
            sectors: fis.sectors as u32,
            segs,
            nsegs,
            ctx: rctx,
            ..Req::default()
        });
        self.submit(k, ctx, slot);
    }

    /// Sends the request tracked for `slot` and folds the server's
    /// answer into the slot state. Returns `true` if the guest's
    /// interrupt line should be raised (terminal failure with
    /// interrupts on).
    fn submit(&mut self, k: &mut Kernel, ctx: CompCtx, slot: u8) -> bool {
        let tag = slot as u64;
        let reply = self.disk.send(k, ctx, &[], |r| r.tag == tag);
        match reply.map(|(status, _)| status) {
            Some(proto::OK) => {
                if let Some(req) = self.disk.find(tag) {
                    req.accepted = true;
                }
                false
            }
            // Transient (EBUSY, or the IPC did not go through): the
            // maintenance sweep re-sends after the retry delay.
            Some(proto::EBUSY) | None => false,
            // Definitive rejection: fail the slot towards the guest.
            Some(_) => {
                self.fail_slot(slot);
                self.regs.p0ie != 0
            }
        }
    }

    /// Walks the outstanding slots in order: `verdict` decides per
    /// request whether it is sent again, failed towards the guest, or
    /// left alone. Returns `true` if the guest's interrupt line should
    /// be raised.
    pub fn sweep(
        &mut self,
        k: &mut Kernel,
        ctx: CompCtx,
        mut verdict: impl FnMut(&mut Kernel, &mut Req) -> Due,
    ) -> bool {
        let mut raise = false;
        for slot in 0..SLOTS {
            let Some(req) = self.disk.find(slot as u64) else {
                continue;
            };
            match verdict(k, req) {
                Due::Wait => {}
                Due::Resubmit => raise |= self.submit(k, ctx, slot),
                Due::GiveUp => {
                    self.fail_slot(slot);
                    raise |= self.regs.p0ie != 0;
                }
            }
        }
        raise
    }

    /// Consumes completion records from the server's shared ring;
    /// returns `true` if the virtual interrupt line should be raised.
    pub fn drain_completions(&mut self, k: &mut Kernel, ctx: CompCtx) -> bool {
        let mut raised = false;
        let prev_ctx = k.machine.bus.trace.current_ctx();
        while let Some((req, ok)) = self.disk.next_completion(k, ctx) {
            // Completion work runs on the completed request's context.
            k.machine.bus.trace.set_ctx(req.ctx);
            // DHRS, or TFES on a device error.
            raised |= self.regs.complete(req.tag as u8, ok);
        }
        k.machine.bus.trace.set_ctx(prev_ctx);
        raised
    }

    /// Guest MMIO write.
    pub fn mmio_write(&mut self, k: &mut Kernel, ctx: CompCtx, off: u32, _size: OpSize, val: u32) {
        // No received-FIS area: this controller posts no FISes to guest
        // memory, and the checkpoint has no field for the base, so it
        // reads 0 before a microreboot as it would after one.
        if off == regs::P0FB {
            return;
        }
        // A reset request (GHC.HR) is ignored: requests already with
        // the disk server cannot be aborted.
        if let PortEvent::Doorbell(new) = self.regs.write(off, val) {
            for slot in slots(new) {
                self.issue(k, ctx, slot);
            }
        }
    }

    /// Serializes the guest-visible controller state and the
    /// outstanding commands ([`DiskClient::export_state`]) for a
    /// checkpoint.
    pub fn export_state(&self, e: &mut Enc) {
        e.u64(self.regs.clb);
        e.u32(self.regs.is);
        e.u32(self.regs.p0is);
        e.u32(self.regs.p0ie);
        e.u32(self.regs.ci);
        self.disk.export_state(e);
    }

    /// Restores checkpointed state into a freshly attached controller;
    /// a request tagged past the last slot is not one it wrote. The
    /// caller replays the requests
    /// ([`crate::devices::VDevices::restart_disks`]) once guest memory
    /// is back in place.
    pub fn import_state(&mut self, d: &mut Dec) -> Option<()> {
        self.regs.clb = d.u64()?;
        self.regs.is = d.u32()?;
        self.regs.p0is = d.u32()?;
        self.regs.p0ie = d.u32()?;
        self.regs.ci = d.u32()?;
        self.disk.import_state(d)?;
        let slots = self.disk.reqs().iter().all(|r| r.tag < SLOTS as u64);
        slots.then_some(())
    }
}

/// A guest's disk command, parsed and bounded against guest RAM.
#[derive(Clone, Copy, Debug)]
pub struct Command {
    /// The transfer: direction, first sector and sector count.
    pub fis: cmd::Cfis,
    /// The data buffers (guest-physical address, bytes), `nsegs` used.
    pub segs: [(u64, u32); proto::MAX_SEGMENTS],
    /// Buffers in use.
    pub nsegs: usize,
}

/// Parses the command in `slot` of the command list at `clb`, reading
/// guest RAM with `read` (`None` where it cannot). Every field is
/// untrusted guest input and is bounded against `guest_pages` of RAM:
/// what does not describe one DMA transfer into guest RAM is the fault
/// the slot fails with.
pub fn parse_command(
    mut read: impl FnMut(u64, &mut [u8]) -> Option<()>,
    guest_pages: u64,
    clb: u64,
    slot: u8,
) -> Result<Command, GuestFault> {
    let in_ram = |at, len| nova_hw::pv::buffer_in_ram(at, len, guest_pages);
    // The command list must fit in guest RAM before the header is
    // dereferenced; `clb` is two raw guest-written registers.
    if !in_ram(clb, 32 * cmd::HEADER_LEN as u64) {
        return Err(GuestFault::BadBase);
    }
    let mut hdr = [0u8; cmd::HEADER_LEN];
    read(clb + slot as u64 * cmd::HEADER_LEN as u64, &mut hdr).ok_or(GuestFault::BadBase)?;
    let cmd::Header { prdtl, ctba } = cmd::Header::decode(&hdr);
    let prdtl = prdtl as usize;
    // Command table: 64-byte CFIS plus the PRDT at +0x80. All 64 bits
    // of the base are bounded — a table "above 4 GB" is outside guest
    // RAM, not an alias of its low half.
    let table = cmd::PRDT_OFFSET + (proto::MAX_SEGMENTS * cmd::PRD_LEN) as u64;
    if !in_ram(ctba, table) {
        return Err(GuestFault::BadBase);
    }
    let mut cfis = [0u8; cmd::CFIS_LEN];
    read(ctba, &mut cfis).ok_or(GuestFault::BadBase)?;
    let fis = cmd::Cfis::decode(&cfis).map_err(|_| GuestFault::BadOpcode)?;
    if fis.sectors == 0 {
        return Err(GuestFault::BadLength);
    }
    if prdtl == 0 || prdtl > proto::MAX_SEGMENTS {
        return Err(GuestFault::IndexOutOfRange);
    }

    // The PRDT, every entry of it. Buffers need not be page aligned
    // (the window address the server programs carries the in-page
    // offset), but the entries must cover the transfer exactly — a
    // mismatch is a guest driver bug and fails the slot instead of
    // transferring to the wrong window address.
    let mut prdt_buf = [0u8; proto::MAX_SEGMENTS * cmd::PRD_LEN];
    let prdt = prdt_buf
        .get_mut(..prdtl * cmd::PRD_LEN)
        .ok_or(GuestFault::IndexOutOfRange)?;
    read(ctba + cmd::PRDT_OFFSET, prdt).ok_or(GuestFault::BadBase)?;
    let mut segs = [(0u64, 0u32); proto::MAX_SEGMENTS];
    let mut total = 0u64;
    for (seg, e) in segs.iter_mut().zip(prdt.as_chunks::<{ cmd::PRD_LEN }>().0) {
        let (dba, bytes) = cmd::prd::decode(e);
        // Each segment is a future DMA target in guest RAM.
        if !in_ram(dba, bytes as u64) {
            return Err(GuestFault::BufferOutOfRange);
        }
        *seg = (dba, bytes);
        total += bytes as u64;
    }
    if total != fis.sectors as u64 * SECTOR as u64 {
        return Err(GuestFault::BadLength);
    }
    Ok(Command {
        fis,
        segs,
        nsegs: prdtl,
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::diskclient::tests::{channel, put_record, setup, RING_VA};

    /// A late completion for a slot already failed towards the guest
    /// (or never issued) must not surface as a fresh success.
    #[test]
    fn completion_for_an_idle_slot_completes_nothing() {
        let (mut k, ctx, _) = setup();
        let mut v = VAhci::new(1024);
        v.disk.attach(channel(0x20));
        v.regs.p0ie = 1;
        put_record(&mut k, ctx, 0, 5, 0);
        k.mem_write_u32(ctx, RING_VA + 4092, 1);
        assert!(!v.drain_completions(&mut k, ctx), "no interrupt");
        assert_eq!((v.regs.p0is, v.regs.is), (0, 0));
    }
}
