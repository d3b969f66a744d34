//! The disk server: a deprivileged user-level driver for the AHCI
//! controller (Sections 4 and 7.3, Figure 4).
//!
//! Each client (a virtual-machine monitor's vAHCI or PV channel) calls
//! a portal of its own, which root created in the server's domain: the
//! portal id names the client, and the portal's receive window is the
//! client's window ([`proto::window_base`]) below the page where root
//! mapped the client's completion ring; the client delegates its DMA
//! buffer pages into it with its requests. The server programs the
//! physical controller; the device
//! DMAs *directly into the delegated pages* through the IOMMU, so the
//! server never copies payload data and can only reach memory
//! explicitly delegated to it — and for a request, only the calling
//! client's window, never another client's or its own command memory.
//! On the completion interrupt the server writes a record into the
//! client's ring and signals the completion semaphore root granted it.
//!
//! A per-client outstanding-request bound implements the
//! denial-of-service throttling of Section 4.2.

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::panic)]

use std::collections::VecDeque;

use nova_core::cap::CapSel;
use nova_core::{CompCtx, Component, Hypercall, Kernel, Utcb};
use nova_hw::ahci::{cmd, regs, SECTOR};
use nova_hw::machine::{AHCI_BASE, AHCI_IRQ};
use nova_hw::Cycles;
use nova_trace::Kind as TraceKind;
use nova_x86::insn::OpSize;

use crate::proto::disk as proto;

/// What the root partition manager chooses for a disk server.
#[derive(Clone, Copy, Debug)]
pub struct DiskServerConfig {
    /// Self-check/heartbeat period in cycles; 0 disables the tick.
    /// With a tick the server pets its watchdog, polls for lost
    /// completion interrupts, and resets a wedged controller.
    pub heartbeat: Cycles,
}

impl DiskServerConfig {
    /// No self-check tick: an unsupervised launch.
    pub fn standard() -> DiskServerConfig {
        DiskServerConfig { heartbeat: 0 }
    }

    /// The self-check tick on — what a supervised launch uses.
    pub fn supervised() -> DiskServerConfig {
        DiskServerConfig {
            heartbeat: 1_000_000,
        }
    }
}

/// VA of the server's private command memory: two pages, the command
/// list and the command table. (The AHCI register window is mapped at
/// its bus address, [`nova_hw::machine::AHCI_BASE`].)
pub const CMD_VA: u64 = 0x0010_0000;

/// Scheduling priority of the server EC.
const PRIO: u8 = 32;

/// Modeled cycles of server work per request submission.
const SUBMIT_COST: Cycles = 1400;

/// Modeled cycles of server work per completion.
const COMPLETE_COST: Cycles = 1100;

/// Well-known selectors inside the server's capability space.
const SEL_IRQ_SM: CapSel = 0x10;
const SEL_SC: CapSel = 0x11;
const SEL_TICK_SM: CapSel = 0x12;

/// How many times a request is issued (initial attempt plus retries
/// after task-file errors or controller resets) before the server
/// gives up and reports an error completion.
const MAX_ISSUE_ATTEMPTS: u32 = 3;

/// How long an issued command may stay incomplete before the
/// self-check declares it lost or stuck. Must exceed the worst-case
/// legitimate latency (seek plus the largest transfer).
const REQUEST_TIMEOUT: Cycles = 4_000_000;

#[derive(Clone, Copy, Default)]
struct Client {
    ring_head: u32,
    outstanding: usize,
    /// The VMM incarnation behind the client died: its requests are
    /// refused and its completions dropped instead of written into a
    /// ring nobody reads, until root wires the client again.
    detached: bool,
}

#[derive(Clone, Copy)]
struct Request {
    client: usize,
    write: bool,
    lba: u64,
    sectors: u32,
    /// Scatter-gather list of (window byte address, byte count)
    /// segments; only the first `nsegs` entries are meaningful. The
    /// addresses carry any in-page offset of the client's buffers.
    segs: [(u64, u32); proto::MAX_SEGMENTS],
    nsegs: usize,
    tag: u64,
    attempts: u32,
    /// Causal trace context carried on the wire from the client; the
    /// server runs each request's accept/issue/complete work under it
    /// so its spans stitch into the originating request's tree.
    ctx: u64,
}

/// The disk-server component.
pub struct DiskServer {
    cfg: DiskServerConfig,
    clients: [Client; proto::MAX_CLIENTS],
    queue: VecDeque<Request>,
    inflight: Option<Request>,
    issued_at: Cycles,
    irq_sm: Option<nova_core::SmId>,
    tick_sm: Option<nova_core::SmId>,
}

impl DiskServer {
    /// Creates the server.
    pub fn new(cfg: DiskServerConfig) -> DiskServer {
        DiskServer {
            cfg,
            clients: [Client::default(); proto::MAX_CLIENTS],
            queue: VecDeque::new(),
            inflight: None,
            issued_at: 0,
            irq_sm: None,
            tick_sm: None,
        }
    }

    fn mmio_write(&self, k: &mut Kernel, ctx: CompCtx, reg: u32, val: u32) {
        let ok = k.dev_mmio_write(ctx, AHCI_BASE + reg as u64, OpSize::Dword, val);
        debug_assert!(ok, "disk server lost its MMIO mapping");
    }

    fn mmio_read(&self, k: &mut Kernel, ctx: CompCtx, reg: u32) -> u32 {
        k.dev_mmio_read(ctx, AHCI_BASE + reg as u64, OpSize::Dword)
            .unwrap_or(0)
    }

    /// Emits a disk-server tracepoint stamped with the current cycle.
    fn trace(k: &mut Kernel, ctx: CompCtx, kind: TraceKind, detail: u64) {
        let at = k.now();
        k.machine
            .bus
            .trace
            .emit(0, ctx.pd.0 as u16, kind, detail, at);
    }

    /// Programs the physical controller with `req` (Figure 4, step 3).
    fn issue(&mut self, k: &mut Kernel, ctx: CompCtx, req: Request) {
        k.machine.bus.trace.set_ctx(req.ctx);
        Self::trace(k, ctx, TraceKind::DiskIssue, req.lba);
        // The physical-controller service window opens here and closes
        // when the command's completion is disposed of — the `hw`
        // layer of the request's critical path.
        let at = k.now();
        k.machine
            .bus
            .trace
            .begin(0, ctx.pd.0 as u16, TraceKind::HwIo, req.lba, at);
        k.charge(SUBMIT_COST);
        let clb = CMD_VA;
        let ctba = CMD_VA + 0x1000;

        // Command header slot 0: one PRDT entry per segment.
        let hdr = cmd::Header {
            prdtl: req.nsegs as u16,
            ctba,
        };
        k.mem_write(ctx, clb, &hdr.encode());

        // CFIS: host-to-device, READ/WRITE DMA EXT.
        let cfis = cmd::Cfis {
            write: req.write,
            lba: req.lba,
            sectors: req.sectors as u16,
        };
        k.mem_write(ctx, ctba, &cfis.encode());

        // PRDT: one entry per delegated-window segment (domain
        // addresses; the IOMMU translates, and blocks anything not
        // delegated).
        for (i, &(addr, bytes)) in req.segs.iter().take(req.nsegs).enumerate() {
            let e = ctba + cmd::PRDT_OFFSET + (i * cmd::PRD_LEN) as u64;
            k.mem_write(ctx, e, &cmd::prd::encode(addr, bytes));
        }

        // Doorbell: the one per-request MMIO write.
        self.mmio_write(k, ctx, regs::P0CI, 1);
        self.inflight = Some(req);
        self.issued_at = k.now();
    }

    /// Programs command-list base and interrupt enable — done at
    /// start-up and again after every controller reset (which clears
    /// both).
    fn init_controller(&self, k: &mut Kernel, ctx: CompCtx) {
        self.mmio_write(k, ctx, regs::P0CLB, CMD_VA as u32);
        self.mmio_write(k, ctx, regs::P0CLB2, (CMD_VA >> 32) as u32);
        self.mmio_write(k, ctx, regs::P0IE, 1);
    }

    /// Disposes of the in-flight request after the controller finished
    /// it: retry on a device error while budget remains, otherwise
    /// complete towards the client.
    fn finish_inflight(&mut self, k: &mut Kernel, ctx: CompCtx, error: bool) {
        let Some(mut req) = self.inflight.take() else {
            return;
        };
        k.machine.bus.trace.set_ctx(req.ctx);
        let at = k.now();
        k.machine
            .bus
            .trace
            .end(0, ctx.pd.0 as u16, TraceKind::HwIo, req.lba, at);
        if error && req.attempts + 1 < MAX_ISSUE_ATTEMPTS {
            req.attempts += 1;
            k.counters.disk_media_retries += 1;
            Self::trace(k, ctx, TraceKind::DiskRetry, req.attempts as u64);
            self.issue(k, ctx, req);
            return;
        }
        let status = if error { proto::STATUS_ERROR } else { 0 };
        self.complete(k, ctx, req, status);
    }

    fn complete(&mut self, k: &mut Kernel, ctx: CompCtx, req: Request, status: u32) {
        k.machine.bus.trace.set_ctx(req.ctx);
        Self::trace(k, ctx, TraceKind::DiskComplete, status as u64);
        if k.machine.bus.trace.active() {
            let served = k.now().saturating_sub(self.issued_at);
            k.machine.bus.trace.metrics.observe(
                nova_trace::names::DISK_SERVICE_CYCLES,
                ctx.pd.0 as u64,
                served,
            );
        }
        k.charge(COMPLETE_COST);
        let bytes = req.sectors as u64 * SECTOR as u64;
        k.counters.disk_ops += 1;
        k.counters.disk_bytes += bytes;
        k.counters.disk_failed += (status != 0) as u64;

        // Completion record into the client's shared ring page
        // (Figure 4, step 7's shared-memory channel). A detached
        // client's completion is dropped: it belongs to a VMM that is
        // gone, and the window's ring page to whichever one is next.
        if let Some(c) = self.clients.get_mut(req.client).filter(|c| !c.detached) {
            c.outstanding = c.outstanding.saturating_sub(1);
            let slot = c.ring_head as usize % proto::RING_RECORDS;
            c.ring_head = c.ring_head.wrapping_add(1);
            let ring_va = (proto::window_base(req.client) + proto::RING_WINDOW_PAGE) * 4096;
            let rec = ring_va + slot as u64 * 16;
            k.mem_write_u32(ctx, rec, req.tag as u32);
            k.mem_write_u32(ctx, rec + 4, status);
            k.mem_write_u32(ctx, rec + 8, bytes as u32);
            let head = c.ring_head;
            k.mem_write_u32(ctx, ring_va + 4092, head);
            // Signal the client's completion semaphore.
            let sm = proto::client_sm_sel(req.client);
            let _ = k.hypercall(ctx, Hypercall::SmUp { sm });
        }

        // Next queued request.
        if let Some(next) = self.queue.pop_front() {
            self.issue(k, ctx, next);
        }
    }

    /// Parses and validates one request body
    /// `(op, lba, sectors, tag, ctx, nsegs, (addr, bytes) × nsegs)`
    /// starting at word `at` of `utcb`, on behalf of `client`. Returns
    /// the request — its segments moved into the client's window — and
    /// the number of words consumed, or `None` when the body is
    /// malformed or a segment touches memory outside the client's
    /// window or not delegated.
    fn parse_request(
        &self,
        k: &Kernel,
        ctx: CompCtx,
        utcb: &Utcb,
        at: usize,
        client: usize,
    ) -> Option<(Request, usize)> {
        let op = utcb.word(at);
        let lba = utcb.word(at + 1);
        let sectors = utcb.word(at + 2) as u32;
        let tag = utcb.word(at + 3);
        let rctx = utcb.word(at + 4);
        let nsegs = utcb.word(at + 5) as usize;
        if self.clients.get(client).is_none_or(|c| c.detached)
            || sectors == 0
            || sectors as u64 > proto::MAX_SECTORS
            || (op != proto::OP_READ && op != proto::OP_WRITE)
            || nsegs == 0
            || nsegs > proto::MAX_SEGMENTS
        {
            return None;
        }
        let window = proto::window_base(client) * 4096;
        let mut segs = [(0u64, 0u32); proto::MAX_SEGMENTS];
        let mut total = 0u64;
        for (i, seg) in segs.iter_mut().take(nsegs).enumerate() {
            let addr = utcb.word(at + 6 + i * 2);
            let bytes = utcb.word(at + 7 + i * 2);
            if bytes == 0 || bytes > proto::MAX_SECTORS * SECTOR as u64 {
                return None;
            }
            // `addr` is an offset into the caller's window, which the
            // segment must not leave for its ring page or beyond —
            // another client's window, the server's command memory —
            // and every page it touches must be delegated.
            if addr.checked_add(bytes)? > proto::RING_WINDOW_PAGE * 4096 {
                return None;
            }
            let addr = window + addr;
            for p in (addr >> 12)..=((addr + bytes - 1) >> 12) {
                k.obj.pd(ctx.pd).mem.lookup(p)?;
            }
            *seg = (addr, bytes as u32);
            total += bytes;
        }
        if total != sectors as u64 * SECTOR as u64 {
            return None;
        }
        Some((
            Request {
                client,
                write: op == proto::OP_WRITE,
                lba,
                sectors,
                segs,
                nsegs,
                tag,
                attempts: 0,
                ctx: rctx,
            },
            6 + nsegs * 2,
        ))
    }

    /// Throttles the channel (Section 4.2): `true`, counted and traced,
    /// if `req`'s client already has its window of requests
    /// outstanding.
    fn throttled(&self, k: &mut Kernel, ctx: CompCtx, req: &Request) -> bool {
        let outstanding = self.clients.get(req.client).map_or(0, |c| c.outstanding);
        let full = outstanding >= proto::MAX_OUTSTANDING;
        if full {
            k.counters.disk_rejected += 1;
            Self::trace(k, ctx, TraceKind::DiskReject, req.lba);
        }
        full
    }

    /// Accepts a validated request onto the channel: bumps the
    /// outstanding count and either issues it immediately or queues it
    /// behind the in-flight command.
    fn accept(&mut self, k: &mut Kernel, ctx: CompCtx, req: Request) {
        if let Some(c) = self.clients.get_mut(req.client) {
            c.outstanding += 1;
        }
        k.counters.disk_accepted += 1;
        k.machine.bus.trace.set_ctx(req.ctx);
        Self::trace(k, ctx, TraceKind::DiskAccept, req.lba);
        if self.inflight.is_none() {
            self.issue(k, ctx, req);
        } else {
            self.queue.push_back(req);
        }
    }

    /// Detaches a client whose owner (VMM incarnation) died: queued
    /// requests are dropped, and any in-flight command finishes against
    /// a suppressed ring until [`DiskServer::attach_client`]. Called by
    /// root's supervisor before it revives the VMM, so stale
    /// completions can never corrupt the successor's ring.
    pub fn detach_client(&mut self, client: usize) {
        if let Some(c) = self.clients.get_mut(client) {
            *c = Client {
                detached: true,
                ..Client::default()
            };
        }
        self.queue.retain(|r| r.client != client);
    }

    /// Serves `client` from a fresh ring again: root wired it to the
    /// next VMM incarnation.
    pub fn attach_client(&mut self, client: usize) {
        if let Some(c) = self.clients.get_mut(client) {
            *c = Client::default();
        }
    }

    /// Periodic self-check: heartbeat plus recovery of requests whose
    /// completion never arrived. A lost interrupt is recovered by
    /// polling; a command the controller never finished is recovered
    /// by resetting the controller and re-issuing.
    fn tick(&mut self, k: &mut Kernel, ctx: CompCtx) {
        // Heartbeat: a healthy server shows the watchdog a sign of
        // life every tick. A crashed server's tick never runs, so the
        // heartbeat stops and the watchdog fires.
        let _ = k.hypercall(ctx, Hypercall::WatchdogPet);

        if self.inflight.is_none() || k.now().saturating_sub(self.issued_at) < REQUEST_TIMEOUT {
            return;
        }
        k.counters.disk_timeouts += 1;
        Self::trace(k, ctx, TraceKind::DiskTimeout, 0);
        let ci = self.mmio_read(k, ctx, regs::P0CI);
        if ci & 1 == 0 {
            // The command finished but its interrupt was lost: drain
            // status by polling and complete normally.
            let is = self.mmio_read(k, ctx, regs::IS);
            self.mmio_write(k, ctx, regs::IS, is);
            let p0is = self.mmio_read(k, ctx, regs::P0IS);
            self.mmio_write(k, ctx, regs::P0IS, p0is);
            k.counters.disk_lost_irq_recovered += 1;
            self.finish_inflight(k, ctx, p0is & (1 << 30) != 0);
            return;
        }
        // CI still set: the transfer is wedged. Reset the controller
        // (dropping the stuck command), re-program it, and re-issue
        // while the attempt budget lasts.
        k.counters.controller_resets += 1;
        Self::trace(k, ctx, TraceKind::DiskReset, 0);
        self.mmio_write(k, ctx, regs::GHC, 1);
        self.init_controller(k, ctx);
        let Some(mut req) = self.inflight.take() else {
            return;
        };
        // The stuck command's controller window ends with the reset.
        k.machine.bus.trace.set_ctx(req.ctx);
        let at = k.now();
        k.machine
            .bus
            .trace
            .end(0, ctx.pd.0 as u16, TraceKind::HwIo, req.lba, at);
        if req.attempts + 1 < MAX_ISSUE_ATTEMPTS {
            req.attempts += 1;
            k.counters.disk_reset_reissues += 1;
            self.issue(k, ctx, req);
        } else {
            self.complete(k, ctx, req, proto::STATUS_ERROR);
        }
    }
}

impl Component for DiskServer {
    fn name(&self) -> &str {
        "disk-server"
    }

    fn on_start(&mut self, k: &mut Kernel, ctx: CompCtx) {
        // Scheduling context for interrupt activations.
        k.hypercall(
            ctx,
            Hypercall::CreateSc {
                ec: nova_core::kernel::SEL_SELF_EC,
                prio: PRIO,
                quantum: 100_000,
                dst: SEL_SC,
            },
        )
        .expect("disk server SC");

        // Interrupt semaphore bound to this EC, attached to the GSI.
        self.irq_sm = Some(k.create_bound_sm(ctx, SEL_IRQ_SM).expect("irq semaphore"));
        k.hypercall(
            ctx,
            Hypercall::AssignGsi {
                sm: SEL_IRQ_SM,
                gsi: AHCI_IRQ,
            },
        )
        .expect("gsi routed to disk server");

        // Self-check tick: heartbeat for the supervisor's watchdog and
        // the poll that recovers lost interrupts / stuck commands.
        if self.cfg.heartbeat > 0 {
            self.tick_sm = Some(k.create_bound_sm(ctx, SEL_TICK_SM).expect("tick semaphore"));
            k.hypercall(
                ctx,
                Hypercall::SetTimer {
                    sm: SEL_TICK_SM,
                    period: self.cfg.heartbeat,
                },
            )
            .expect("tick timer");
        }

        // Controller bring-up. The reset first: a restarted server
        // must not inherit command state (or a pending completion)
        // from a previous incarnation.
        self.mmio_write(k, ctx, regs::GHC, 1);
        self.init_controller(k, ctx);
    }

    fn on_call(&mut self, k: &mut Kernel, ctx: CompCtx, portal_id: u64, utcb: &mut Utcb) {
        // The caller is the client root created the portal for
        // (`proto::portal_id`); nothing in the message says who it is.
        let client = (portal_id >> 8) as usize;
        match portal_id & 0xff {
            proto::PORTAL_REQUEST => {
                let Some((req, _)) = self.parse_request(k, ctx, utcb, 0, client) else {
                    utcb.set_msg(&[proto::EINVAL]);
                    return;
                };
                if self.throttled(k, ctx, &req) {
                    utcb.set_msg(&[proto::EBUSY]);
                    return;
                }
                self.accept(k, ctx, req);
                utcb.set_msg(&[proto::OK]);
            }
            proto::PORTAL_BATCH => {
                let count = utcb.word(0) as usize;
                if count == 0 || count > proto::MAX_BATCH {
                    utcb.set_msg(&[proto::EINVAL, 0]);
                    return;
                }
                let mut at = 1;
                let mut accepted = 0u64;
                let mut status = proto::OK;
                for _ in 0..count {
                    let Some((req, used)) = self.parse_request(k, ctx, utcb, at, client) else {
                        status = proto::EINVAL;
                        break;
                    };
                    at += used;
                    if self.throttled(k, ctx, &req) {
                        status = proto::EBUSY;
                        break;
                    }
                    self.accept(k, ctx, req);
                    accepted += 1;
                }
                if k.machine.bus.trace.active() {
                    k.machine.bus.trace.metrics.observe(
                        nova_trace::names::DISK_BATCH_SIZE,
                        ctx.pd.0 as u64,
                        accepted,
                    );
                }
                utcb.set_msg(&[status, accepted]);
            }
            _ => utcb.set_msg(&[proto::EINVAL]),
        }
    }

    fn on_signal(&mut self, k: &mut Kernel, ctx: CompCtx, sm: nova_core::SmId) {
        if self.tick_sm == Some(sm) {
            self.tick(k, ctx);
            return;
        }
        // The five-access completion sequence (Section 8.2): read and
        // clear the global and port interrupt status, confirm CI.
        let is = self.mmio_read(k, ctx, regs::IS);
        if is == 0 {
            k.counters.spurious_irqs += 1;
            Self::trace(k, ctx, TraceKind::DiskSpurious, 0);
            return;
        }
        self.mmio_write(k, ctx, regs::IS, is);
        let p0is = self.mmio_read(k, ctx, regs::P0IS);
        self.mmio_write(k, ctx, regs::P0IS, p0is);
        let ci = self.mmio_read(k, ctx, regs::P0CI);
        if ci & 1 == 0 {
            self.finish_inflight(k, ctx, p0is & (1 << 30) != 0);
        }
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use nova_core::cap::Perms;
    use nova_core::obj::MemRights;
    use nova_core::utcb::XferItem;
    use nova_core::{HcErr, KernelConfig, RunOutcome};
    use nova_hw::machine::{Machine, MachineConfig};

    use crate::root::{
        spawn_disk_server, wire_disk_client, DiskRecipe, DiskServerRef, Grant, RootOps, RootPm,
    };

    /// A test client that records completion signals and reads its
    /// ring.
    #[derive(Default)]
    struct TestClient {
        signals: u64,
    }

    impl Component for TestClient {
        fn name(&self) -> &str {
            "test-client"
        }
        fn on_call(&mut self, _k: &mut Kernel, _c: CompCtx, _p: u64, _u: &mut Utcb) {}
        fn on_signal(&mut self, _k: &mut Kernel, _c: CompCtx, _sm: nova_core::SmId) {
            self.signals += 1;
        }
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Channels of slot 0: client 0 calls the request portal, client 1
    /// the batch portal.
    const AHCI: usize = 0;
    const PV: usize = 1;

    struct Setup {
        k: Kernel,
        srv_ctx: CompCtx,
        client_ctx: CompCtx,
        client_comp: nova_core::CompId,
    }

    /// Boots root + disk server + a test client wired at slot 0 the way
    /// `System::build` wires a VMM: the client's pages 1 and 2 as the
    /// two completion rings, root's completion semaphore, the server's
    /// `UP` on it, the client's `DOWN`.
    fn setup() -> Setup {
        let m = Machine::new(MachineConfig::core_i7(64 << 20));
        let mut k = Kernel::new(m, KernelConfig::default());
        let (root_comp, root_ec) = k.load_component(k.root_pd, 0, Box::new(RootPm::new()));
        k.start_component(root_comp, root_ec);
        let root_ctx = k.component_mut::<RootPm>(root_comp).unwrap().ctx.unwrap();

        // The server, from the recipe the system builder boots it from.
        let recipe = DiskRecipe::new(DiskServerConfig::standard(), k.machine.dev.ahci);
        let mut ops = RootOps::new(&mut k, root_ctx);
        let (srv_sel, cl_sel, done) = (ops.alloc_sel(), ops.alloc_sel(), ops.alloc_sel());
        let srv_ctx = spawn_disk_server(&mut k, root_ctx, srv_sel, &recipe).unwrap();

        // Client PD with some memory.
        let client_ram = Grant::Mem {
            base: 0x400,
            count: 64,
            rights: MemRights::RW_DMA,
            hot: 0,
        };
        let mut ops = RootOps::new(&mut k, root_ctx);
        let cl_pd = ops.provision("client", cl_sel, &[client_ram]).unwrap();
        let sm = Hypercall::CreateSm {
            count: 0,
            dst: done,
        };
        k.hypercall(root_ctx, sm).unwrap();
        let down = Hypercall::DelegateCap {
            dst_pd: cl_sel,
            sel: done,
            perms: Perms::DOWN,
            hot: 0x40,
        };
        k.hypercall(root_ctx, down).unwrap();
        let (client_comp, client_ec) = k.load_component(cl_pd, 0, Box::<TestClient>::default());
        k.start_component(client_comp, client_ec);
        let client_ctx = CompCtx {
            pd: cl_pd,
            ec: client_ec,
            comp: client_comp,
        };

        // Root wires the client, with the server's identity where the
        // server delegates; the server holds no client PD capability
        // before it.
        let portal = Hypercall::DelegateCap {
            dst_pd: 0x30,
            sel: 0x20,
            perms: Perms::CALL,
            hot: 0x20,
        };
        k.hypercall(srv_ctx, portal)
            .expect_err("no client PD capability");
        let srv = DiskServerRef {
            sel: srv_sel,
            ctx: srv_ctx,
        };
        wire_disk_client(&mut k, root_ctx, srv, cl_sel, 0, done, 0x401, 2).unwrap();

        // Client binds the completion semaphore and needs an SC so
        // completion signals can run.
        k.bind_sm(client_ctx, 0x40).unwrap();
        k.hypercall(
            client_ctx,
            Hypercall::CreateSc {
                ec: nova_core::kernel::SEL_SELF_EC,
                prio: 16,
                quantum: 100_000,
                dst: 0x22,
            },
        )
        .unwrap();

        Setup {
            k,
            srv_ctx,
            client_ctx,
            client_comp,
        }
    }

    /// Calls `channel`'s portal with `msg` and `items`.
    fn call(s: &mut Setup, channel: usize, msg: &[u64], items: &[XferItem]) -> Result<Utcb, HcErr> {
        let mut utcb = Utcb::new();
        utcb.set_msg(msg);
        utcb.xfer.extend_from_slice(items);
        let (_, sel) = proto::CHANNELS[channel];
        s.k.ipc_call(s.client_ctx, sel, &mut utcb)?;
        Ok(utcb)
    }

    /// Client pages 8.. delegated at window page `page` onward.
    fn buffer(page: u64, pages: u64) -> XferItem {
        XferItem {
            base: 8,
            count: pages,
            rights: MemRights::RW_DMA,
            hot: page,
        }
    }

    /// A read of `sectors` from `lba` into the client's buffer at
    /// window page `page`; the server's status.
    fn submit_read(s: &mut Setup, lba: u64, sectors: u32, page: u64) -> u64 {
        let bytes = sectors as u64 * SECTOR as u64;
        let msg = [
            proto::OP_READ,
            lba,
            sectors as u64,
            99,
            0,
            1,
            page * 4096,
            bytes,
        ];
        let items = [buffer(page, bytes.div_ceil(4096))];
        call(s, AHCI, &msg, &items).unwrap().word(0)
    }

    fn signals(s: &mut Setup) -> u64 {
        let comp = s.client_comp;
        s.k.component_mut::<TestClient>(comp).unwrap().signals
    }

    #[test]
    fn read_end_to_end() {
        let mut s = setup();
        assert_eq!(submit_read(&mut s, 100, 8, 0), proto::OK);

        // Run until the completion interrupt is processed.
        let out = s.k.run(Some(100_000_000));
        assert_eq!(out, RunOutcome::Idle);

        // Client got its signal.
        assert_eq!(signals(&mut s), 1);
        // Data landed in the client's pages (8..) — compare with the
        // disk's deterministic pattern for LBA 100.
        let mut got = [0u8; 16];
        s.k.mem_read_into(s.client_ctx, 8 * 4096, &mut got).unwrap();
        let expect = s.k.machine.ahci().sector(100);
        assert_eq!(got[..], expect[..16]);
        // Ring record written into client page 1: tag 99, status 0.
        let rec = s.k.mem_read_u32(s.client_ctx, 4096).unwrap();
        assert_eq!(rec, 99);
        let c = &s.k.counters;
        assert_eq!((c.disk_ops, c.disk_bytes), (1, 8 * 512));
    }

    #[test]
    fn queueing_and_throttling() {
        let mut s = setup();
        // Submit more than MAX_OUTSTANDING requests back to back.
        let mut ok = 0;
        let mut busy = 0;
        for i in 0..(proto::MAX_OUTSTANDING + 3) {
            match submit_read(&mut s, i as u64, 1, i as u64) {
                proto::OK => ok += 1,
                proto::EBUSY => busy += 1,
                other => panic!("unexpected status {other}"),
            }
        }
        assert_eq!(ok, proto::MAX_OUTSTANDING);
        assert_eq!(busy, 3, "channel throttled (Section 4.2)");

        s.k.run(Some(1_000_000_000));
        assert_eq!(s.k.counters.disk_ops, proto::MAX_OUTSTANDING as u64);
        assert_eq!(signals(&mut s), proto::MAX_OUTSTANDING as u64);
    }

    #[test]
    fn invalid_requests_rejected() {
        let mut s = setup();
        let mut status = |msg: &[u64]| call(&mut s, AHCI, msg, &[]).unwrap().word(0);
        // Zero sectors.
        assert_eq!(
            status(&[proto::OP_READ, 0, 0, 1, 0, 1, 0, 512]),
            proto::EINVAL
        );
        // Window page never delegated.
        let undelegated = [proto::OP_READ, 0, 8, 1, 0, 1, 0x40_0000, 8 * 512];
        assert_eq!(status(&undelegated), proto::EINVAL, "undelegated page");
        // Segment lengths that do not cover the transfer.
        let short = [proto::OP_READ, 0, 8, 1, 0, 1, 0, 512];
        assert_eq!(status(&short), proto::EINVAL, "short scatter list");
        // Too many segments.
        let mut msg = vec![proto::OP_READ, 0, 9, 1, 0, 9];
        for i in 0..9u64 {
            msg.extend_from_slice(&[i * 512, 512]);
        }
        assert_eq!(status(&msg), proto::EINVAL, "segment bound enforced");
    }

    /// A scatter-gather read whose segments start at odd in-page
    /// offsets: the PRDT entries must carry the offsets through, so
    /// the payload lands exactly where the client pointed.
    #[test]
    fn scatter_gather_with_unaligned_segments() {
        let mut s = setup();
        // 8 sectors split across two segments at offsets 512 and 256
        // of window pages 0 and 1.
        let msg = [proto::OP_READ, 42, 8, 7, 0, 2, 512, 2048, 4096 + 256, 2048];
        let reply = call(&mut s, AHCI, &msg, &[buffer(0, 2)]).unwrap();
        assert_eq!(reply.word(0), proto::OK);
        s.k.run(Some(100_000_000));

        // First half of the transfer at client page 8 offset 512,
        // second half at page 9 offset 256.
        let mut expect = Vec::new();
        for lba in 42..50 {
            expect.extend_from_slice(&s.k.machine.ahci().sector(lba));
        }
        let (mut got_a, mut got_b) = ([0u8; 2048], [0u8; 2048]);
        let (at_a, at_b) = (8 * 4096 + 512, 9 * 4096 + 256);
        s.k.mem_read_into(s.client_ctx, at_a, &mut got_a).unwrap();
        s.k.mem_read_into(s.client_ctx, at_b, &mut got_b).unwrap();
        assert_eq!(got_a[..], expect[..2048]);
        assert_eq!(got_b[..], expect[2048..]);
        assert!(s.k.machine.bus.iommu.faults.is_empty());
    }

    /// One batched call submits a full channel's worth of requests and
    /// a follow-up batch is refused with the accepted-prefix count. The
    /// batch portal is client 1's: its pages and its ring go to client
    /// 1's window, whatever client 0's holds.
    #[test]
    fn batched_submission_fills_channel_in_one_call() {
        let mut s = setup();
        let mut msg = vec![proto::MAX_BATCH as u64];
        let mut items = Vec::new();
        for i in 0..proto::MAX_BATCH as u64 {
            msg.extend_from_slice(&[proto::OP_READ, 10 + i, 1, i, 0, 1, i * 4096, 512]);
            items.push(XferItem {
                base: 8 + i,
                count: 1,
                rights: MemRights::RW_DMA,
                hot: i,
            });
        }
        let reply = call(&mut s, PV, &msg, &items).unwrap();
        assert_eq!(reply.word(0), proto::OK);
        assert_eq!(reply.word(1), proto::MAX_BATCH as u64, "all accepted");
        let held = |s: &Setup, page| s.k.obj.pd(s.srv_ctx.pd).mem.lookup(page).is_some();
        assert!(held(&s, proto::window_base(PV)) && !held(&s, proto::window_base(AHCI)));

        // The channel is full now: another batch accepts nothing.
        let full = [1, proto::OP_READ, 99, 1, 77, 0, 1, 0, 512];
        let reply = call(&mut s, PV, &full, &[]).unwrap();
        assert_eq!((reply.word(0), reply.word(1)), (proto::EBUSY, 0));

        s.k.run(Some(1_000_000_000));
        let c = &s.k.counters;
        assert_eq!((c.disk_ops, c.disk_rejected), (proto::MAX_BATCH as u64, 1));
        // Every request got its own completion record and signal, in
        // the PV channel's ring (client page 2).
        assert_eq!(signals(&mut s), proto::MAX_BATCH as u64);
        let head = s.k.mem_read_u32(s.client_ctx, 2 * 4096 + 4092).unwrap();
        assert_eq!(head, proto::MAX_BATCH as u32);
    }

    #[test]
    fn dma_confined_to_delegated_window() {
        let mut s = setup();
        submit_read(&mut s, 5, 8, 0);
        s.k.run(Some(100_000_000));
        // No IOMMU faults: everything the device touched was delegated.
        assert!(s.k.machine.bus.iommu.faults.is_empty());
        // And the client revoking its pages cuts the server's access.
        s.k.hypercall(
            s.client_ctx,
            Hypercall::RevokeMem {
                base: 8,
                count: 1,
                include_self: false,
            },
        )
        .unwrap();
        let (ahci_dev, window) = (s.k.machine.dev.ahci, proto::window_base(AHCI));
        assert_eq!(
            s.k.machine
                .bus
                .iommu
                .translate(ahci_dev, window * 4096, true),
            None,
            "revocation reached the IOMMU"
        );
    }

    /// A client names only offsets into its own window: a segment that
    /// runs onto its ring page, past the window into the next client's,
    /// or wraps the address space is refused, and an item aimed at the
    /// ring page or past it fails the call before the server runs. The
    /// device touches nothing.
    #[test]
    fn a_segment_outside_the_clients_window_is_refused() {
        let mut s = setup();
        let ring = proto::RING_WINDOW_PAGE * 4096;
        for (addr, page) in [
            (ring - 2048, proto::RING_WINDOW_PAGE - 1),
            (proto::WINDOW_PAGES * 4096, 0),
            (u64::MAX - 1023, 1),
        ] {
            let msg = [proto::OP_READ, 5, 8, 1, 0, 1, addr, 4096];
            let reply = call(&mut s, AHCI, &msg, &[buffer(page, 1)]).unwrap();
            assert_eq!(reply.word(0), proto::EINVAL, "segment at {addr:#x}");
        }
        // The ring page is root's to map, and past it the next window.
        for page in [proto::RING_WINDOW_PAGE, proto::WINDOW_PAGES] {
            let msg = [proto::OP_READ, 5, 8, 1, 0, 1, 0, 4096];
            let refused = call(&mut s, AHCI, &msg, &[buffer(page, 1)]).err();
            assert_eq!(refused, Some(HcErr::BadParam), "item at {page:#x}");
        }
        let next = proto::window_base(AHCI + 1);
        assert!(s.k.obj.pd(s.srv_ctx.pd).mem.lookup(next).is_none());

        s.k.run(Some(100_000_000));
        let c = &s.k.counters;
        assert_eq!((c.disk_accepted, c.disk_ops), (0, 0), "nothing issued");
        let mut got = [0u8; 4096];
        s.k.mem_read_into(s.client_ctx, 8 * 4096, &mut got).unwrap();
        assert!(got.iter().all(|&b| b == 0), "the client's page untouched");
    }

    /// A detached client is refused and its completions dropped; wired
    /// again, it is served from a fresh ring.
    #[test]
    fn a_detached_client_is_served_again_once_attached() {
        let mut s = setup();
        let comp = s.srv_ctx.comp;
        assert_eq!(submit_read(&mut s, 100, 8, 0), proto::OK);
        s.k.invoke_component::<DiskServer, _>(comp, |d, _| d.detach_client(AHCI));
        assert_eq!(submit_read(&mut s, 101, 8, 1), proto::EINVAL);
        s.k.run(Some(100_000_000));
        assert_eq!((s.k.counters.disk_ops, signals(&mut s)), (1, 0));
        assert_eq!(s.k.mem_read_u32(s.client_ctx, 4096 + 4092), Some(0));

        s.k.invoke_component::<DiskServer, _>(comp, |d, _| d.attach_client(AHCI));
        assert_eq!(submit_read(&mut s, 102, 8, 2), proto::OK);
        s.k.run(Some(100_000_000));
        assert_eq!((s.k.counters.disk_ops, signals(&mut s)), (2, 1));
        assert_eq!(s.k.mem_read_u32(s.client_ctx, 4096), Some(99));
    }
}
