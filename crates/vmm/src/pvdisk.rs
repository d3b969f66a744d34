//! The paravirtual batched disk backend (the VMM side of
//! [`nova_hw::pv`]).
//!
//! Where the virtual AHCI controller costs the guest ~6 MMIO exits per
//! request, this queue takes descriptors from a shared ring page on one
//! doorbell write per *batch* and forwards them to the disk server's
//! batch portal ([`proto::PORTAL_BATCH`]), up to [`proto::MAX_BATCH`]
//! per IPC. Completions land in the ring (a status word per descriptor
//! and the `used` word) without a guest exit.
//!
//! The queue is the disk server's *second* client of its VMM. Requests
//! in flight and their recovery are [`crate::diskclient`]'s; the ring
//! base, doorbell, interrupt and fatal latch are [`crate::pvqueue`]'s.
//! This queue's own: the descriptors (Byzantine input, validated before
//! use; a malformed one completes with [`ring::ST_ERROR`]), batching
//! within the server's window, and in-order publication. The module is
//! lint-gated panic-free.

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::panic)]

use std::collections::BTreeMap;

use nova_core::{CompCtx, Kernel};
use nova_hw::ahci::SECTOR;
use nova_hw::pv::disk as ring;
use nova_hw::GuestFault;
use nova_user::proto::disk as proto;

use crate::checkpoint::{Dec, Enc};
use crate::diskclient::{DiskClient, Due, Req};
use crate::pvqueue::{Queue, QueueCore, Reg};
use crate::vmm::guest_va;

/// A PV descriptor's scatter-gather list: its one contiguous buffer.
fn one_segment(buf: u64, bytes: u32) -> [(u64, u32); proto::MAX_SEGMENTS] {
    std::array::from_fn(|i| if i == 0 { (buf, bytes) } else { (0, 0) })
}

/// The paravirtual disk queue backend.
pub struct PvDisk {
    /// The queue core: ring base, ISR, coalescing and the fatal latch.
    pub q: QueueCore,
    /// The channel to the disk server and the descriptors in flight,
    /// tagged by cumulative descriptor index.
    pub disk: DiskClient,
    /// Cumulative count of descriptors the guest has published: the
    /// index of the next one to ingest.
    pub requests: u64,
    /// Cumulative count of completions published back to the guest:
    /// the ring's `used` word.
    pub completions: u64,
    /// Cumulative error completions (mirrored into the ring page).
    used_errors: u64,
    /// Out-of-order completions awaiting in-order publication:
    /// descriptor index → (ring status word, trace context).
    done: BTreeMap<u64, (u32, u64)>,
    /// Doorbell writes (one per guest batch). The one statistic kept
    /// here and in the checkpoint: `benchmark/` reads it by this name.
    pub doorbells: u64,
}

impl PvDisk {
    /// Creates the backend for a guest of `guest_pages` pages.
    pub fn new(guest_pages: u64) -> PvDisk {
        PvDisk {
            q: QueueCore::new(Queue::Disk, guest_pages),
            disk: DiskClient::default(),
            requests: 0,
            completions: 0,
            used_errors: 0,
            done: BTreeMap::new(),
            doorbells: 0,
        }
    }

    /// Guest write of one of this queue's registers. Returns `true` if
    /// the virtual interrupt line should be raised.
    pub fn write(&mut self, k: &mut Kernel, ctx: CompCtx, reg: Reg, val: u32) -> bool {
        match reg {
            Reg::Ring => {
                self.q.set_ring(k, val);
                false
            }
            Reg::Doorbell => self.doorbell(k, ctx, val),
            Reg::Isr => self.q.ack(val, !self.disk.has_pending(), self.completions),
        }
    }

    /// Doorbell write: ingest `count` freshly published descriptors,
    /// submit everything submittable in as few batch IPCs as
    /// possible, and publish any synchronous failures.
    fn doorbell(&mut self, k: &mut Kernel, ctx: CompCtx, count: u32) -> bool {
        // A descriptor holds its slot until its completion is published.
        let count = self.q.doorbell(k, count, self.requests - self.completions);
        self.doorbells += 1;
        if k.machine.bus.trace.active() {
            let batch = nova_trace::names::PV_BATCH_SIZE;
            k.machine.bus.trace.metrics.observe(batch, 0, count as u64);
        }
        let pd16 = ctx.pd.0 as u16;
        for _ in 0..count {
            let idx = self.requests;
            self.requests += 1;
            // Each descriptor is a request origin: allocate its causal
            // context before touching it so the validation, the batch
            // IPC and the server's spans all stitch to this id.
            let (at, trace) = (k.now(), &mut k.machine.bus.trace);
            let rctx = trace.alloc_ctx();
            trace.begin(0, pd16, nova_trace::Kind::PvRequest, idx, at);
            match self.read_desc(k, ctx, idx) {
                Ok(mut req) => {
                    req.ctx = rctx;
                    self.disk.track(req);
                }
                Err(_) => {
                    // Malformed descriptor: complete it with an error
                    // status without involving the server.
                    self.q.reject(k, None);
                    self.done.insert(idx, (ring::ST_ERROR, rctx));
                }
            }
        }
        let mut raise = self.submit_ready(k, ctx);
        raise |= self.publish(k, ctx);
        raise
    }

    /// Reads and validates the guest descriptor at cumulative index
    /// `idx`. Every field is untrusted; the error names the first
    /// validation that failed.
    fn read_desc(&self, k: &Kernel, ctx: CompCtx, idx: u64) -> Result<Req, GuestFault> {
        if self.q.ring_gpa == 0 {
            return Err(GuestFault::BadBase);
        }
        let base = self.q.slot(idx);
        let rd = |off: u64| k.mem_read_u32(ctx, base + off).ok_or(GuestFault::BadBase);
        let rd64 = |off: u64| k.mem_read_u64(ctx, base + off).ok_or(GuestFault::BadBase);
        let op = rd(ring::D_OP)?;
        let sectors = rd(ring::D_SECTORS)?;
        let lba = rd64(ring::D_LBA)?;
        let buf = rd64(ring::D_BUF)?;
        let op = match op {
            ring::OP_READ => proto::OP_READ,
            ring::OP_WRITE => proto::OP_WRITE,
            _ => return Err(GuestFault::BadOpcode),
        };
        if sectors == 0 || sectors as u64 > proto::MAX_SECTORS {
            return Err(GuestFault::BadLength);
        }
        let bytes = sectors * SECTOR;
        // The buffer must lie inside guest RAM — out-of-range pages
        // could not be delegated to the server anyway.
        if !self.q.in_ram(buf, bytes as u64) {
            return Err(GuestFault::BufferOutOfRange);
        }
        Ok(Req {
            tag: idx,
            op,
            lba,
            sectors,
            segs: one_segment(buf, bytes),
            nsegs: 1,
            submitted_at: k.now(),
            ..Req::default()
        })
    }

    /// Submits as many unaccepted descriptors as the server's
    /// outstanding window allows, batching up to [`proto::MAX_BATCH`]
    /// per IPC; a descriptor queued behind a full window is neither
    /// sent nor charged. Returns `true` if the interrupt line should
    /// be raised (a descriptor failed terminally).
    fn submit_ready(&mut self, k: &mut Kernel, ctx: CompCtx) -> bool {
        let mut raise = false;
        // A definitive EINVAL removes one entry and retries the rest;
        // bound the loop by the pending count.
        for _ in 0..=self.disk.reqs().len() {
            let reqs = self.disk.reqs();
            let queued = reqs.iter().filter(|p| !p.accepted).count();
            let n = proto::MAX_OUTSTANDING
                .saturating_sub(reqs.len() - queued)
                .min(proto::MAX_BATCH)
                .min(queued);
            if n == 0 || !self.disk.attached() {
                return raise;
            }
            // The batch: the first `n` unaccepted descriptors.
            let mut left = n;
            let batch = |p: &Req| {
                let take = !p.accepted && left > 0;
                left -= take as usize;
                take
            };
            // Dead portal (restart underway): retry via the
            // maintenance timer.
            let Some((status, accepted)) = self.disk.send(k, ctx, &[n as u64], batch) else {
                return raise;
            };
            let accepted = (accepted as usize).min(n);
            let batch = self.disk.reqs_mut().iter_mut().filter(|p| !p.accepted);
            batch.take(accepted).for_each(|p| p.accepted = true);
            // OK, or EBUSY (window full at the server: the rest retries
            // when completions free slots). Anything else: the entry
            // right after the accepted prefix is definitively bad —
            // fail it and resubmit the remainder.
            if matches!(status, proto::OK | proto::EBUSY) || accepted == n {
                return raise;
            }
            let bad = self.disk.reqs().iter().find(|p| !p.accepted).map(|p| p.tag);
            let Some(p) = bad.and_then(|tag| self.disk.take(tag)) else {
                return raise;
            };
            DiskClient::give_up(k);
            self.done.insert(p.tag, (ring::ST_ERROR, p.ctx));
            raise = true;
        }
        raise
    }

    /// Publishes in-order completions into the guest's ring: status
    /// words, then the cumulative `used`/`errors` counters. Returns
    /// `true` if the interrupt line should be raised.
    fn publish(&mut self, k: &mut Kernel, ctx: CompCtx) -> bool {
        if self.q.ring_gpa == 0 {
            return false;
        }
        let pd16 = ctx.pd.0 as u16;
        let prev_ctx = k.machine.bus.trace.current_ctx();
        let mut advanced = false;
        while let Some((status, rctx)) = self.done.remove(&self.completions) {
            let base = self.q.slot(self.completions);
            k.mem_write_u32(ctx, base + ring::D_STATUS, status);
            // Publish the request's context into the descriptor's free
            // word (observational; the guest driver ignores it) and
            // close the request span under its own context.
            k.mem_write_u32(ctx, base + ring::D_CTX, rctx as u32);
            let (at, trace) = (k.now(), &mut k.machine.bus.trace);
            trace.set_ctx(rctx);
            trace.end(0, pd16, nova_trace::Kind::PvRequest, self.completions, at);
            if status != ring::ST_OK {
                self.used_errors += 1;
            }
            self.completions += 1;
            advanced = true;
        }
        k.machine.bus.trace.set_ctx(prev_ctx);
        if !advanced {
            return false;
        }
        let errors = guest_va(self.q.ring_gpa + ring::ERRORS);
        k.mem_write_u32(ctx, errors, self.used_errors as u32);
        // A batch-synchronous guest wakes once per batch. (With nothing
        // in flight the loop above leaves no gap: nothing is stranded.)
        let idle = !self.disk.has_pending();
        self.q.publish(k, ctx, self.completions, idle)
    }

    /// Consumes completion records from the server's ring and
    /// publishes them to the guest; returns `true` if the interrupt
    /// line should be raised.
    pub fn drain_completions(&mut self, k: &mut Kernel, ctx: CompCtx) -> bool {
        let mut drained = false;
        while let Some((p, ok)) = self.disk.next_completion(k, ctx) {
            let status = if ok { ring::ST_OK } else { ring::ST_ERROR };
            self.done.insert(p.tag, (status, p.ctx));
            drained = true;
        }
        // Freed window: push queued descriptors to the server.
        let mut raise = drained && self.submit_ready(k, ctx);
        raise |= self.publish(k, ctx);
        self.q.count_irq(k, raise)
    }

    /// Walks the in-flight descriptors in order: `verdict` decides per
    /// descriptor whether it joins the next batch, completes with an
    /// error status, or is left alone.
    pub fn sweep(
        &mut self,
        k: &mut Kernel,
        ctx: CompCtx,
        mut verdict: impl FnMut(&mut Kernel, &mut Req) -> Due,
    ) -> bool {
        let mut resubmit = false;
        let mut raise = false;
        let mut i = 0;
        while let Some(p) = self.disk.reqs_mut().get_mut(i) {
            match verdict(k, p) {
                Due::Wait => {}
                Due::Resubmit => resubmit = true,
                Due::GiveUp => {
                    let tag = p.tag;
                    self.done.insert(tag, (ring::ST_ERROR, p.ctx));
                    self.disk.take(tag);
                    raise = true;
                    continue;
                }
            }
            i += 1;
        }
        if resubmit {
            raise |= self.submit_ready(k, ctx);
        }
        raise |= self.publish(k, ctx);
        raise
    }

    /// Serializes the queue for a checkpoint: the core's record, the
    /// descriptors in flight ([`DiskClient::export_state`]), the
    /// completions not yet published, and the doorbell count.
    pub fn export_state(&self, e: &mut Enc) {
        let counters = [self.requests, self.completions, self.used_errors];
        self.q.export_state(e, &counters);
        self.disk.export_state(e);
        e.u32(self.done.len() as u32);
        for (&idx, &(status, ctx)) in &self.done {
            e.u64(idx);
            e.u32(status);
            e.u64(ctx);
        }
        e.u64(self.doorbells);
    }

    /// Restores checkpointed state, every descriptor in flight marked
    /// unaccepted for the replay ([`crate::devices::VDevices::restart_disks`]);
    /// completions out of index order are not a record this queue wrote.
    pub fn import_state(&mut self, d: &mut Dec) -> Option<()> {
        [self.requests, self.completions, self.used_errors] = self.q.import_state(d)?;
        self.disk.import_state(d)?;
        let ndone = d.u32()? as usize;
        if ndone > d.remaining() / 8 {
            return None;
        }
        self.done.clear();
        for _ in 0..ndone {
            let idx = d.u64()?;
            let last = self.done.keys().next_back();
            if last.is_some_and(|&last| last >= idx) {
                return None;
            }
            let status = d.u32()?;
            let ctx = d.u64()?;
            self.done.insert(idx, (status, ctx));
        }
        self.doorbells = d.u64()?;
        Some(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use crate::diskclient::tests::{channel, setup};

    /// A restore is a replay, not a failed delivery: a microreboot must
    /// not burn one of a pending descriptor's attempts.
    #[test]
    fn restore_replay_does_not_charge_the_attempt_budget() {
        let (mut k, ctx, _) = setup();
        let mut pv = PvDisk::new(1024);
        pv.disk.attach(channel(0x20));
        // One descriptor in a ring page at guest 0x2000: read sector 0
        // into guest 0x8000.
        let desc = guest_va(0x2000 + ring::DESC0);
        k.mem_write_u32(ctx, desc + ring::D_OP, ring::OP_READ);
        k.mem_write_u32(ctx, desc + ring::D_SECTORS, 1);
        k.mem_write_u32(ctx, desc + ring::D_BUF, 0x8000);
        pv.write(&mut k, ctx, Reg::Ring, 0x2000);
        pv.write(&mut k, ctx, Reg::Doorbell, 1);
        assert!(pv.disk.reqs()[0].accepted, "the stub server took it");
        let before = pv.disk.reqs()[0].attempts;

        let mut e = Enc::new();
        pv.export_state(&mut e);
        let blob = e.finish();
        // The next incarnation, over a server that holds none of the
        // dead one's delegations (they were revoked with its PD).
        let (mut k, ctx, _) = setup();
        let mut revived = PvDisk::new(1024);
        revived.disk.attach(channel(0x20));
        revived.import_state(&mut Dec::new(&blob)).unwrap();
        let now = k.now();
        revived.sweep(&mut k, ctx, |_, p| DiskClient::replay(p, now));
        let replayed = revived.disk.reqs()[0];
        assert!(replayed.accepted, "replayed into the server");
        assert_eq!((before, replayed.attempts), (1, 1));
    }

    /// A guest that publishes past the descriptors still in flight
    /// overruns its ring: with no channel to send them on, ten
    /// doorbells of a full ring track one ring's worth, and each
    /// doorbell past it is a counted rejection.
    #[test]
    fn tracked_descriptors_are_bounded_by_the_ring() {
        let (mut k, ctx, _) = setup();
        let mut pv = PvDisk::new(1024);
        for i in 0..ring::CAPACITY as u64 {
            let desc = guest_va(0x2000 + ring::DESC0 + i * ring::DESC_SIZE);
            k.mem_write_u32(ctx, desc + ring::D_OP, ring::OP_READ);
            k.mem_write_u32(ctx, desc + ring::D_SECTORS, 1);
            k.mem_write_u32(ctx, desc + ring::D_BUF, 0x8000);
        }
        pv.write(&mut k, ctx, Reg::Ring, 0x2000);
        for _ in 0..10 {
            pv.write(&mut k, ctx, Reg::Doorbell, ring::CAPACITY);
        }
        let tracked = pv.disk.reqs().len();
        assert_eq!(tracked, ring::CAPACITY as usize, "one ring's worth");
        assert_eq!((pv.requests, pv.doorbells), (ring::CAPACITY as u64, 10));
        assert_eq!(k.counters.guest_faults_rejected, 9);
    }
}
