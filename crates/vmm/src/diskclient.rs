//! The disk-server client (Section 7.3, Figure 4): everything between
//! "the guest handed a front end a request" and "the front end reports
//! its completion". One channel to the server — a portal root wired to
//! this client alone, a shared completion ring, standing delegations of
//! the guest's DMA pages — one wire encoder, one table of the requests
//! in flight with its checkpoint record, and one recovery policy,
//! shared by the virtual AHCI controller ([`crate::vahci`]) and the
//! paravirtual queue ([`crate::pvdisk`]). The front ends keep what is
//! device-specific: parsing and validating guest structures, choosing
//! which tracked requests one IPC carries, and reporting completions the
//! way their guest interface demands.
//!
//! The recovery policy is three constants and two rules. A request the
//! server refused or never received is re-sent after `RETRY_DELAY`;
//! one it accepted and then lost is re-sent after `REQUEST_TIMEOUT`;
//! after `MAX_ATTEMPTS` sends the front end fails it towards the
//! guest — an error status, never a hung virtual CPU. A re-send after
//! a disk-server restart is charged against that budget
//! ([`DiskClient::retry`]); a re-send after a VMM restore is not
//! ([`DiskClient::replay`]): it repeats the send the dead incarnation
//! already paid for.
//!
//! Every address in a [`Req`] was bounds-checked against guest RAM by
//! the front end that built it; nothing here indexes or unwraps on
//! what a guest or the server supplies (lint-gated below).

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::panic)]

use std::collections::HashSet;

use nova_core::cap::CapSel;
use nova_core::obj::MemRights;
use nova_core::utcb::XferItem;
use nova_core::{CompCtx, Kernel, Utcb};
use nova_user::proto::disk as proto;

use crate::checkpoint::{Dec, Enc};
use crate::vmm::GUEST_BASE_PAGE;

/// Cycles an accepted request may stay uncompleted before it is
/// re-sent. Longer than the disk server's own recovery chain, so this
/// only triggers when the server truly lost the request (e.g. it
/// crashed and was restarted).
const REQUEST_TIMEOUT: u64 = 16_000_000;

/// Cycles before re-sending a request the server refused (EBUSY) or
/// that failed to reach it (dead portal while a restart is underway).
const RETRY_DELAY: u64 = 2_000_000;

/// Sends per request before the front end gives up and reports an
/// error to the guest.
const MAX_ATTEMPTS: u32 = 6;

/// How the VMM reaches storage.
#[derive(Clone, Copy, Debug)]
pub struct DiskChannel {
    /// Submission portal selector in the VMM's capability space
    /// ([`proto::PORTAL_REQUEST`] or [`proto::PORTAL_BATCH`]).
    pub req_sel: CapSel,
    /// VA of the shared completion ring in the VMM's space.
    pub ring_va: u64,
}

/// A request a guest issued that has not completed yet: everything
/// needed to send it again after a timeout, a server restart or a VMM
/// restore.
#[derive(Clone, Copy, Default)]
pub struct Req {
    /// What the server echoes in the completion record (the vAHCI's
    /// command slot, the PV queue's cumulative descriptor index).
    pub tag: u64,
    /// [`proto::OP_READ`] or [`proto::OP_WRITE`].
    pub op: u64,
    /// First sector.
    pub lba: u64,
    /// Sector count.
    pub sectors: u32,
    /// Scatter-gather list as (guest-physical byte address, byte
    /// count); only the first `nsegs` entries are meaningful. Buffers
    /// need not be page-aligned — the in-page offset is carried through
    /// to the server's window addresses.
    pub segs: [(u64, u32); proto::MAX_SEGMENTS],
    /// Segments in use.
    pub nsegs: usize,
    /// Cycle stamp of the last send.
    pub submitted_at: u64,
    /// Sends so far.
    pub attempts: u32,
    /// Whether the server accepted the last send.
    pub accepted: bool,
    /// Causal trace context allocated when the guest issued the
    /// request; carried to the server and restored around completion.
    pub ctx: u64,
}

/// What the maintenance sweep owes a pending request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Due {
    /// Nothing yet.
    Wait,
    /// Send it again.
    Resubmit,
    /// The attempt budget is spent: fail it towards the guest.
    GiveUp,
}

/// One front end's connection to the disk server and the requests it
/// has in flight there. The server sees guest page `g` at page `g` of
/// this client's window; where the window and the completion ring lie
/// in the server's space is root's wiring.
#[derive(Default)]
pub struct DiskClient {
    channel: Option<DiskChannel>,
    /// Every request the guest issued that has not completed, sent or
    /// not, in tag order.
    reqs: Vec<Req>,
    /// Consumer cursor of the server's completion ring.
    ring_tail: u32,
    /// Guest pages the server holds. Delegations are left standing
    /// across requests (guests reuse their DMA buffers) and torn down
    /// wholesale with the VM or the server — the security implications
    /// are the ones Section 4.2 discusses for delegated buffers.
    delegated: HashSet<u64>,
    /// The submission message: cleared by every send, its capacity
    /// kept, so a send allocates nothing once it was as long.
    utcb: Utcb,
}

impl DiskClient {
    /// A client whose table holds `reqs` requests before it grows.
    pub fn with_capacity(reqs: usize) -> DiskClient {
        DiskClient {
            reqs: Vec::with_capacity(reqs),
            ..DiskClient::default()
        }
    }

    /// Attaches the channel root wired (VMM start).
    pub fn attach(&mut self, ch: DiskChannel) {
        self.channel = Some(ch);
    }

    /// Starts over against a server that knows nothing of this client
    /// (a server restart, a VMM restore): it holds none of the guest's
    /// pages and produces from zero into the ring, which is zeroed so
    /// that a producer word left by the previous incarnation of either
    /// side does not survive. The requests stay for the front end to
    /// re-send.
    pub fn restart(&mut self, k: &mut Kernel, ctx: CompCtx) {
        if let Some(ch) = self.channel {
            k.mem_write(ctx, ch.ring_va, &[0u8; 4096]);
        }
        self.ring_tail = 0;
        self.delegated.clear();
    }

    /// `true` once a channel is attached.
    pub fn attached(&self) -> bool {
        self.channel.is_some()
    }

    /// `true` while any request awaits completion — the VMM keeps its
    /// maintenance timer armed exactly that long.
    pub fn has_pending(&self) -> bool {
        !self.reqs.is_empty()
    }

    /// Tracks a request the guest just issued; it waits for a send.
    pub fn track(&mut self, r: Req) {
        let at = self.reqs.partition_point(|p| p.tag < r.tag);
        self.reqs.insert(at, r);
    }

    /// The tracked request tagged `tag`.
    pub fn find(&mut self, tag: u64) -> Option<&mut Req> {
        let at = self.reqs.binary_search_by_key(&tag, |r| r.tag).ok()?;
        self.reqs.get_mut(at)
    }

    /// Stops tracking the request tagged `tag` and returns it.
    pub fn take(&mut self, tag: u64) -> Option<Req> {
        let at = self.reqs.binary_search_by_key(&tag, |r| r.tag).ok()?;
        Some(self.reqs.remove(at))
    }

    /// The tracked requests, in tag order.
    pub fn reqs(&self) -> &[Req] {
        &self.reqs
    }

    /// The tracked requests, in tag order, to mark.
    pub fn reqs_mut(&mut self) -> &mut [Req] {
        &mut self.reqs
    }

    /// One submission IPC carrying `header ‖ one body per request`
    /// for the tracked requests `pick` chooses, in tag order, each body
    /// `(op, lba, sectors, tag, ctx, nsegs, (addr, bytes) × nsegs)`
    /// with guest-physical addresses, plus transfer items for
    /// the guest pages the server does not hold yet. Every request is
    /// charged one attempt and stamped, sent or not. Returns the first
    /// two words of the reply — `(status, accepted)`, the second only
    /// from the batch portal — if the IPC went through: the server may
    /// still have refused the requests, but the delegations stand.
    /// `None` if nothing was transferred (no channel, dead portal or
    /// busy handler while a restart is underway).
    pub fn send(
        &mut self,
        k: &mut Kernel,
        ctx: CompCtx,
        header: &[u64],
        mut pick: impl FnMut(&Req) -> bool,
    ) -> Option<(u64, u64)> {
        let now = k.now();
        let utcb = &mut self.utcb;
        utcb.clear();
        utcb.msg.extend_from_slice(header);
        let mut first_ctx = None;
        for r in self.reqs.iter_mut().filter(|r| pick(r)) {
            r.attempts += 1;
            r.submitted_at = now;
            first_ctx.get_or_insert(r.ctx);
            let body = [r.op, r.lba, r.sectors as u64, r.tag, r.ctx, r.nsegs as u64];
            utcb.msg.extend_from_slice(&body);
            for &(addr, bytes) in r.segs.get(..r.nsegs).unwrap_or(&[]) {
                // A page the server lacks is recorded as held as it is
                // sent; a failed call takes it back below.
                for p in (addr >> 12)..=((addr + bytes as u64 - 1) >> 12) {
                    if self.delegated.insert(p) {
                        utcb.xfer.push(XferItem {
                            base: GUEST_BASE_PAGE + p,
                            count: 1,
                            rights: MemRights::RW_DMA,
                            hot: p,
                        });
                    }
                }
                utcb.msg.extend_from_slice(&[addr, bytes as u64]);
            }
        }
        let sent = utcb.xfer.len();
        let called = match self.channel {
            Some(ch) => {
                // The IPC runs on the first request's context, so its
                // span and the server's land inside that request's tree.
                if let Some(c) = first_ctx {
                    k.machine.bus.trace.set_ctx(c);
                }
                k.ipc_call(ctx, ch.req_sel, utcb).is_ok()
            }
            None => false,
        };
        if called {
            return Some((utcb.word(0), utcb.word(1)));
        }
        if utcb.xfer.len() == sent {
            // Refused before any item moved: the server holds none.
            for i in &utcb.xfer {
                self.delegated.remove(&i.hot);
            }
        } else {
            // The kernel consumed the items and refused one part-way:
            // what the server holds is unknown, so assume nothing.
            self.delegated.clear();
        }
        None
    }

    /// Consumes records of the server's completion ring up to the next
    /// one that names a tracked request, and returns that request,
    /// untracked, with whether it completed without error. A record
    /// whose tag names none — a late completion for a request already
    /// failed towards the guest — completes nothing. Tags compare as
    /// the ring's `u32`.
    pub fn next_completion(&mut self, k: &Kernel, ctx: CompCtx) -> Option<(Req, bool)> {
        let ch = self.channel?;
        loop {
            let head = k.mem_read_u32(ctx, ch.ring_va + 4092).unwrap_or(0);
            if self.ring_tail == head {
                return None;
            }
            let rec = ch.ring_va + (self.ring_tail as usize % proto::RING_RECORDS) as u64 * 16;
            self.ring_tail = self.ring_tail.wrapping_add(1);
            let tag = k.mem_read_u32(ctx, rec).unwrap_or(0);
            let status = k.mem_read_u32(ctx, rec + 4).unwrap_or(1);
            if let Some(at) = self.reqs.iter().position(|r| r.tag as u32 == tag) {
                return Some((self.reqs.remove(at), status == 0));
            }
        }
    }

    /// The checkpoint record of the tracked requests: a `u32` count,
    /// then per request `tag, op, lba, sectors, nsegs, nsegs × (addr,
    /// bytes), attempts, ctx` (`u64, u64, u64, u32, u8, (u64, u32),
    /// u32, u64`). The channel, the ring cursor, the delegations and
    /// the send stamps are not captured: they belong to the dead
    /// incarnation's server and are started over ([`Self::restart`]).
    pub fn export_state(&self, e: &mut Enc) {
        e.u32(self.reqs.len() as u32);
        for r in &self.reqs {
            e.u64(r.tag);
            e.u64(r.op);
            e.u64(r.lba);
            e.u32(r.sectors);
            e.u8(r.nsegs as u8);
            for &(addr, bytes) in r.segs.get(..r.nsegs).unwrap_or(&[]) {
                e.u64(addr);
                e.u32(bytes);
            }
            e.u32(r.attempts);
            e.u64(r.ctx);
        }
    }

    /// Restores [`Self::export_state`] bytes, every request unaccepted
    /// for the front end's replay. Refuses what the encoder would not
    /// write: more requests than bytes left, more than
    /// [`proto::MAX_SEGMENTS`] segments, tags out of order.
    pub fn import_state(&mut self, d: &mut Dec) -> Option<()> {
        let n = d.u32()? as usize;
        if n > d.remaining() / 8 {
            return None;
        }
        self.reqs.clear();
        for _ in 0..n {
            let (tag, op, lba, sectors) = (d.u64()?, d.u64()?, d.u64()?, d.u32()?);
            let nsegs = d.u8()? as usize;
            if nsegs > proto::MAX_SEGMENTS || self.reqs.last().is_some_and(|r| r.tag >= tag) {
                return None;
            }
            let mut segs = [(0u64, 0u32); proto::MAX_SEGMENTS];
            for s in segs.get_mut(..nsegs).unwrap_or(&mut []) {
                *s = (d.u64()?, d.u32()?);
            }
            self.reqs.push(Req {
                tag,
                op,
                lba,
                sectors,
                segs,
                nsegs,
                attempts: d.u32()?,
                ctx: d.u64()?,
                ..Req::default()
            });
        }
        Some(())
    }

    /// The maintenance sweep's verdict on one pending request at cycle
    /// `now`. [`Due::Resubmit`] has already counted the retry; the
    /// caller sends. [`Due::GiveUp`] has counted the degradation; the
    /// caller fails the request towards the guest.
    pub fn due(k: &mut Kernel, r: &mut Req, now: u64) -> Due {
        let limit = if r.accepted {
            REQUEST_TIMEOUT
        } else {
            RETRY_DELAY
        };
        if now.saturating_sub(r.submitted_at) < limit {
            return Due::Wait;
        }
        if r.accepted {
            k.counters.client_timeouts += 1;
        }
        if r.attempts >= MAX_ATTEMPTS {
            return Self::give_up(k);
        }
        Self::retry(k, r)
    }

    /// Counts a request the front end is about to fail towards its
    /// guest: the attempt budget is spent, or the server refused it for
    /// good.
    pub fn give_up(k: &mut Kernel) -> Due {
        k.counters.client_degraded += 1;
        Due::GiveUp
    }

    /// Marks `r` for a charged re-send: the delivery failed (timeout,
    /// refusal) or the server that held it restarted.
    pub fn retry(k: &mut Kernel, r: &mut Req) -> Due {
        r.accepted = false;
        k.counters.client_resubmits += 1;
        Due::Resubmit
    }

    /// Marks a restored request for an uncharged re-send after a VMM
    /// microreboot: the next send re-uses the attempt the dead
    /// incarnation spent on it. The restored stamp is not a time, so
    /// a request queued behind the server's window waits from `now`.
    pub fn replay(r: &mut Req, now: u64) -> Due {
        r.accepted = false;
        r.attempts = r.attempts.saturating_sub(1);
        r.submitted_at = now;
        Due::Resubmit
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic, clippy::indexing_slicing)]
pub(crate) mod tests {
    use super::*;
    use nova_core::obj::PdId;
    use nova_core::{CompId, Component, Hypercall, KernelConfig};
    use nova_hw::machine::{Machine, MachineConfig};
    use nova_user::RootPm;

    /// Root VA of the completion-ring page of [`channel`].
    pub(crate) const RING_VA: u64 = 0x300 * 4096;

    /// First page of the stub's receive window: wherever the server
    /// puts it, the client names only offsets into it.
    const WINDOW: u64 = 0x4_0000;

    /// A server portal that accepts everything (`[OK, MAX_BATCH]`) and
    /// keeps the last message it was sent.
    pub(crate) struct Stub(pub Vec<u64>);
    impl Component for Stub {
        fn name(&self) -> &str {
            "stub"
        }
        fn on_call(&mut self, _k: &mut Kernel, _c: CompCtx, _p: u64, u: &mut Utcb) {
            self.0 = std::mem::take(&mut u.msg);
            u.set_msg(&[proto::OK, proto::MAX_BATCH as u64]);
        }
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// A kernel whose root PD stands in for the VMM, with a [`Stub`]
    /// server in a PD of its own behind root's selector 0x20, its
    /// receive window at [`WINDOW`].
    pub(crate) fn setup() -> (Kernel, CompCtx, CompId) {
        let m = Machine::new(MachineConfig::core_i7(64 << 20));
        let mut k = Kernel::new(m, KernelConfig::default());
        let (rc, re) = k.load_component(k.root_pd, 0, Box::new(RootPm::new()));
        k.start_component(rc, re);
        let ctx = k.component_mut::<RootPm>(rc).unwrap().ctx.unwrap();
        let pd = Hypercall::CreatePd {
            name: "stub".into(),
            vm: None,
            dst: 10,
        };
        k.hypercall(ctx, pd).unwrap();
        let pd = PdId((k.obj.pds.len() - 1) as u32);
        let (comp, ec) = k.load_component(pd, 0, Box::new(Stub(Vec::new())));
        k.start_component(comp, ec);
        let pt = Hypercall::CreatePt {
            ec: nova_core::kernel::SEL_SELF_EC,
            mtd: 0,
            id: proto::portal_id(3, proto::PORTAL_BATCH),
            dst: 0x20,
        };
        let window = Hypercall::PtWindow {
            pt: 0x20,
            base: WINDOW,
            count: proto::RING_WINDOW_PAGE,
        };
        for hc in [pt, window] {
            k.hypercall(CompCtx { pd, ec, comp }, hc).unwrap();
        }
        let cap = k.obj.pd(pd).caps.get(0x20).unwrap();
        k.obj.pd_mut(k.root_pd).caps.set(0x20, cap);
        (k, ctx, comp)
    }

    /// A channel through selector `req_sel` (0x20 is the stub, anything
    /// else a dead portal).
    pub(crate) fn channel(req_sel: CapSel) -> DiskChannel {
        DiskChannel {
            req_sel,
            ring_va: RING_VA,
        }
    }

    /// Writes completion record `i` of the ring at [`RING_VA`].
    pub(crate) fn put_record(k: &mut Kernel, ctx: CompCtx, i: u64, tag: u32, status: u32) {
        k.mem_write_u32(ctx, RING_VA + i * 16, tag);
        k.mem_write_u32(ctx, RING_VA + i * 16 + 4, status);
    }

    fn req(tag: u64, attempts: u32, accepted: bool) -> Req {
        let mut segs = [(0, 0); proto::MAX_SEGMENTS];
        segs[0] = (0x5f00, 512);
        Req {
            tag,
            op: proto::OP_READ,
            lba: 9,
            sectors: 1,
            segs,
            nsegs: 1,
            submitted_at: 1_000,
            attempts,
            accepted,
            ctx: 77,
        }
    }

    #[test]
    fn due_knows_both_limits_and_the_budget() {
        let (mut k, _, _) = setup();
        // (accepted, age, attempts) → verdict, and what it counted:
        // client_timeouts / client_resubmits / client_degraded.
        let table = [
            (false, RETRY_DELAY - 1, 1, Due::Wait, [0, 0, 0]),
            (false, RETRY_DELAY, 1, Due::Resubmit, [0, 1, 0]),
            (true, RETRY_DELAY, 1, Due::Wait, [0, 0, 0]),
            (true, REQUEST_TIMEOUT - 1, 1, Due::Wait, [0, 0, 0]),
            (true, REQUEST_TIMEOUT, 1, Due::Resubmit, [1, 1, 0]),
            (
                false,
                RETRY_DELAY,
                MAX_ATTEMPTS - 1,
                Due::Resubmit,
                [0, 1, 0],
            ),
            (false, RETRY_DELAY, MAX_ATTEMPTS, Due::GiveUp, [0, 0, 1]),
            (true, REQUEST_TIMEOUT, MAX_ATTEMPTS, Due::GiveUp, [1, 0, 1]),
        ];
        for (accepted, age, attempts, verdict, moved) in table {
            let mut r = req(0, attempts, accepted);
            let before = k.counters.snapshot();
            assert_eq!(DiskClient::due(&mut k, &mut r, 1_000 + age), verdict);
            let d = k.counters.delta(&before);
            let counted = [d.client_timeouts, d.client_resubmits, d.client_degraded];
            assert_eq!(counted, moved);
            assert_eq!(r.accepted, accepted && verdict != Due::Resubmit);
            assert_eq!((r.attempts, r.submitted_at), (attempts, 1_000));
        }
    }

    /// Channels through the stub (0x20) and a dead portal (0x21).
    fn attached(req_sel: CapSel) -> DiskClient {
        let mut c = DiskClient::default();
        c.attach(channel(req_sel));
        c
    }

    #[test]
    fn send_charges_always_and_commits_delegations_only_when_applied() {
        let (mut k, ctx, stub) = setup();
        k.charge(5_000);
        let mut c = attached(0x21);
        c.track(req(4, 0, false));

        assert!(c.send(&mut k, ctx, &[], |_| true).is_none(), "dead portal");
        assert!(c.delegated.is_empty(), "nothing was transferred");
        let r = c.reqs[0];
        assert_eq!((r.attempts, r.submitted_at), (1, k.now()));

        c.attach(channel(0x20));
        let reply = c.send(&mut k, ctx, &[1], |_| true).expect("live portal");
        assert_eq!(reply, (proto::OK, proto::MAX_BATCH as u64));
        assert_eq!(c.reqs[0].attempts, 2);
        // The unaligned buffer straddles guest pages 5 and 6: they are
        // the window's pages 5 and 6, and the wire names the guest
        // address.
        assert_eq!(c.delegated, HashSet::from([5, 6]));
        let wire = [1, proto::OP_READ, 9, 1, 4, 77, 1, 0x5f00, 512];
        assert_eq!(k.component_mut::<Stub>(stub).unwrap().0, wire);
        let server = &k.obj.pd(PdId(1)).mem;
        let held = |page| server.lookup(WINDOW + page).map(|m| m.hpa);
        let frame = |page: u64| Some(page * 4096);
        assert_eq!(held(5), frame(GUEST_BASE_PAGE + 5));
    }

    /// The table keeps tag order however requests arrive, a send
    /// carries only what `pick` chose, and `take` forgets one.
    #[test]
    fn the_table_is_kept_in_tag_order_and_send_carries_what_is_picked() {
        let (mut k, ctx, stub) = setup();
        let mut c = attached(0x20);
        for tag in [9, 2, 5] {
            c.track(req(tag, 0, false));
        }
        let tags = |c: &DiskClient| c.reqs().iter().map(|r| r.tag).collect::<Vec<_>>();
        assert_eq!(tags(&c), [2, 5, 9]);
        c.send(&mut k, ctx, &[], |r| r.tag != 5).expect("sent");
        let wire = &k.component_mut::<Stub>(stub).unwrap().0;
        let sent: Vec<u64> = wire.chunks(8).map(|body| body[3]).collect();
        assert_eq!(sent, [2, 9], "tag order, 5 left out");
        let attempts: Vec<u32> = c.reqs().iter().map(|r| r.attempts).collect();
        assert_eq!(attempts, [1, 0, 1]);
        assert_eq!(c.find(5).map(|r| r.tag), Some(5));
        assert!(c.find(4).is_none());
        assert_eq!(c.take(5).map(|r| r.tag), Some(5));
        assert!(c.take(5).is_none());
        assert_eq!(tags(&c), [2, 9]);
        assert!(c.has_pending());
    }

    #[test]
    fn next_completion_wraps_at_ring_records_and_skips_unknown_tags() {
        let (mut k, ctx, _) = setup();
        let mut c = attached(0x20);
        assert!(c.next_completion(&k, ctx).is_none(), "zeroed ring is empty");
        c.track(req(7, 1, true));
        c.track(req(8, 1, true));
        let last = proto::RING_RECORDS as u32 - 1;
        c.ring_tail = last;
        put_record(&mut k, ctx, last as u64, 7, 0);
        put_record(&mut k, ctx, 0, 3, 0);
        put_record(&mut k, ctx, 1, 8, proto::STATUS_ERROR);
        k.mem_write_u32(ctx, RING_VA + 4092, last + 3);
        let done = |d: Option<(Req, bool)>| d.map(|(r, ok)| (r.tag, ok));
        assert_eq!(done(c.next_completion(&k, ctx)), Some((7, true)));
        assert_eq!(
            done(c.next_completion(&k, ctx)),
            Some((8, false)),
            "3 is no one's"
        );
        assert!(c.next_completion(&k, ctx).is_none());
        assert!(!c.has_pending());
        c.delegated.insert(5);
        c.restart(&mut k, ctx);
        assert_eq!((c.ring_tail, c.attached()), (0, true));
        assert!(c.delegated.is_empty());
        assert_eq!(k.mem_read_u32(ctx, RING_VA + 4092), Some(0), "ring zeroed");
    }

    #[test]
    fn retry_is_charged_and_replay_is_not() {
        let (mut k, ctx, _) = setup();
        let mut c = attached(0x20);
        let retries = k.counters.client_resubmits;

        c.track(req(0, 3, true));
        let r = c.find(0).unwrap();
        assert_eq!(DiskClient::retry(&mut k, r), Due::Resubmit);
        c.send(&mut k, ctx, &[], |_| true);
        assert_eq!((c.reqs[0].attempts, c.reqs[0].accepted), (4, false));
        assert_eq!(k.counters.client_resubmits, retries + 1);

        c.reqs[0] = req(0, 3, true);
        assert_eq!(DiskClient::replay(&mut c.reqs[0], 2_000), Due::Resubmit);
        let r = c.reqs[0];
        assert_eq!((r.attempts, r.accepted, r.submitted_at), (2, false, 2_000));
        c.send(&mut k, ctx, &[], |_| true);
        assert_eq!(
            c.reqs[0].attempts, 3,
            "the dead incarnation's attempt is re-used"
        );
        assert_eq!(k.counters.client_resubmits, retries + 1, "and not counted");
    }

    /// The one record of a request: what it holds, byte for byte, and
    /// the bounds its parser keeps — the two the front ends' decoders
    /// had (segments, count against the bytes left) and tag order.
    #[test]
    fn the_request_record_round_trips_and_refuses_what_was_not_written() {
        let mut c = DiskClient::default();
        let mut two = req(6, 2, true);
        two.segs[1] = (0x9000, 1024);
        two.nsegs = 2;
        c.track(two);
        c.track(req(1, 1, true));
        let mut e = Enc::new();
        c.export_state(&mut e);
        let blob = e.finish();
        let mut want = vec![2, 0, 0, 0];
        let one = [(0x5f00u64, 512u32)];
        let two = [(0x5f00, 512), (0x9000, 1024)];
        for (tag, attempts, segs) in [(1u64, 1u32, &one[..]), (6, 2, &two[..])] {
            want.extend(tag.to_le_bytes());
            want.extend(proto::OP_READ.to_le_bytes());
            want.extend(9u64.to_le_bytes());
            want.extend(1u32.to_le_bytes());
            want.push(segs.len() as u8);
            for &(addr, bytes) in segs {
                want.extend(addr.to_le_bytes());
                want.extend(bytes.to_le_bytes());
            }
            want.extend(attempts.to_le_bytes());
            want.extend(77u64.to_le_bytes());
        }
        assert_eq!(blob, want);

        let parse = |b: &[u8]| {
            let mut c = DiskClient::default();
            let mut d = Dec::new(b);
            c.import_state(&mut d).filter(|_| d.done()).map(|_| c)
        };
        let back = parse(&blob).expect("parses");
        assert!(back
            .reqs()
            .iter()
            .all(|r| !r.accepted && r.submitted_at == 0));
        let mut e = Enc::new();
        back.export_state(&mut e);
        assert_eq!(e.finish(), blob);

        let nsegs_at = 4 + 8 * 3 + 4;
        let mut too_many = blob.clone();
        too_many[nsegs_at] = proto::MAX_SEGMENTS as u8 + 1;
        assert!(parse(&too_many).is_none(), "nsegs > MAX_SEGMENTS");
        let mut count = blob.clone();
        count[..4].copy_from_slice(&(blob.len() as u32).to_le_bytes());
        assert!(
            parse(&count).is_none(),
            "a count larger than the bytes left"
        );
        let mut order = blob.clone();
        order[4] = 6;
        assert!(parse(&order).is_none(), "two requests tagged 6");
    }
}
