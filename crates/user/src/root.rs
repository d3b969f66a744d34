//! The root partition manager (Section 6).
//!
//! At boot the microhypervisor hands the root domain capabilities for
//! all memory, I/O ports and interrupts it did not claim itself. The
//! root partition manager makes the initial allocation decisions:
//! creating protection domains for services and virtual machines and
//! delegating the resources each needs — and nothing more.
//!
//! What a protection domain gets is data: a recipe is an ordered list
//! of [`Grant`]s plus the component's configuration, and
//! [`RootOps::provision`] is the one place that turns a list into
//! `CreatePd` and delegations. The disk server's recipe
//! ([`DiskRecipe`]) is replayed by [`spawn_disk_server`]; a VMM's lives
//! in the VMM crate behind [`VmRecipe`]. Boot is the first replay of
//! each, a respawn or revive every later one — there is no second copy
//! of the sequence to keep in step.
//!
//! Root is also the top of the crash-only supervision tree: it watches
//! the disk server and every VMM through kernel watchdogs and, when one
//! dies, replays its recipe. A half-built incarnation belongs to the
//! recipe from `CreatePd` on, so a failed attempt is torn down by the
//! next one: a failed step schedules a bounded-backoff retry
//! ([`Backoff`]) and, for VMs, climbs an escalation ladder (resume from
//! checkpoint → cold reboot → mark failed) instead of panicking root
//! itself.

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::panic)]

use nova_core::cap::{CapSel, Perms};
use nova_core::kernel::SEL_SELF_EC;
use nova_core::obj::{MemRights, ObjRef, PdId};
use nova_core::utcb::Utcb;
use nova_core::{CompCtx, Component, Counters, HcErr, HcReply, Hypercall, Kernel, SmId};
use nova_hw::machine::{AHCI_BASE, AHCI_IRQ};
use nova_trace::{flight, Kind as TraceKind};

use crate::disk::{DiskServer, DiskServerConfig, CMD_VA};
use crate::proto::disk as dproto;

/// One resource root delegates into a protection domain it provisions.
/// These are the four kinds the recipes hand out; a list's order is the
/// order of the hypercalls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Grant {
    /// `count` of root's pages from `base`, mapped at page `hot`.
    Mem {
        /// First root page.
        base: u64,
        /// Pages.
        count: u64,
        /// Rights the receiver gets.
        rights: MemRights,
        /// First page in the receiver's space.
        hot: u64,
    },
    /// `count` I/O ports from `base`.
    Io {
        /// First port.
        base: u16,
        /// Ports.
        count: u16,
    },
    /// Ownership of an interrupt line.
    Gsi(u8),
    /// A device (bus index): its DMA goes through the receiver's IOMMU
    /// domain.
    Dev(usize),
}

/// The disk server's recipe: the grants its protection domain gets and
/// the configuration every incarnation runs with.
pub struct DiskRecipe {
    /// What root delegates, in order.
    pub grants: Vec<Grant>,
    /// Server configuration.
    pub cfg: DiskServerConfig,
}

impl DiskRecipe {
    /// The server's standard grants: the AHCI register window, two
    /// DMA-able pages of root's frames as private command memory, the
    /// controller's interrupt and the controller itself.
    pub fn new(cfg: DiskServerConfig, ahci_dev: usize) -> DiskRecipe {
        DiskRecipe {
            grants: vec![
                Grant::Mem {
                    base: AHCI_BASE / 4096,
                    count: 1,
                    rights: MemRights::RW,
                    hot: AHCI_BASE / 4096,
                },
                Grant::Mem {
                    base: 0x300,
                    count: 2,
                    rights: MemRights::RW_DMA,
                    hot: CMD_VA / 4096,
                },
                Grant::Gsi(AHCI_IRQ),
                Grant::Dev(ahci_dev),
            ],
            cfg,
        }
    }
}

/// The live disk server, as its clients' wiring needs it.
#[derive(Clone, Copy, Debug)]
pub struct DiskServerRef {
    /// Root's capability selector for the server PD.
    pub sel: CapSel,
    /// The server's identity (for server-side delegations).
    pub ctx: CompCtx,
}

/// A VMM the supervisor rewires to the disk server after every restart.
#[derive(Clone, Copy, Debug)]
pub struct SupervisedClient {
    /// Root's capability selector for the client's (VMM's) PD.
    pub vmm_sel: CapSel,
    /// Root's selector for the restart semaphore it signals once the
    /// respawned server is wired to the VMM.
    pub restart_sm_sel: CapSel,
    /// Root's selector for the VM's completion semaphore, which the
    /// server signals.
    pub done_sm_sel: CapSel,
    /// Root's page of the VM's first completion ring (the vAHCI's; the
    /// PV queue's follows).
    pub rings: u64,
    /// How many of the VMM's channels (`dproto::CHANNELS`) are wired:
    /// 2 with the PV queue, 1 without.
    pub channels: usize,
}

/// Everything root needs to supervise the disk server: the watchdog
/// channel, the recipe, and the clients to rewire after a respawn.
pub struct DiskSupervision {
    /// Root's capability selector for the current server PD. Moves to
    /// a respawn attempt's selector before its `CreatePd`, so whatever
    /// a failed attempt built is destroyed by the next one.
    pub srv_sel: CapSel,
    /// The current server's component identity (refreshed by every
    /// incarnation that got as far as starting).
    pub srv_ctx: CompCtx,
    /// Root's selector for the watchdog semaphore.
    pub wd_sm_sel: CapSel,
    /// The watchdog semaphore's identity (to recognize the signal).
    pub wd_sm: SmId,
    /// Watchdog deadline in cycles.
    pub timeout: u64,
    /// What every incarnation is built from.
    pub recipe: DiskRecipe,
    /// Clients to rewire after a restart; a client's index is its
    /// server-side PD-capability slot.
    pub clients: Vec<SupervisedClient>,
}

/// Why a respawn recipe step failed. Carrying the step name keeps the
/// error actionable without threading strings through every caller.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RespawnError {
    /// The named recipe step's hypercall was refused by the kernel.
    Step(&'static str, HcErr),
    /// Supervision state the recipe depends on was missing or
    /// inconsistent (named for diagnosis).
    State(&'static str),
}

impl RespawnError {
    /// For `map_err`: names the step whose hypercall was refused.
    pub fn step(name: &'static str) -> impl Fn(HcErr) -> RespawnError {
        move |e| RespawnError::Step(name, e)
    }
}

/// One incarnation of the disk server at root's selector `srv_sel`:
/// `CreatePd`, the recipe's grants, the server component loaded and
/// started. Its portals are its clients', made by [`wire_disk_client`].
/// Boot and every respawn attempt run this; the caller owns `srv_sel`
/// whatever the outcome.
pub fn spawn_disk_server(
    k: &mut Kernel,
    ctx: CompCtx,
    srv_sel: CapSel,
    recipe: &DiskRecipe,
) -> Result<CompCtx, RespawnError> {
    let pd = RootOps::new(k, ctx).provision("disk-server", srv_sel, &recipe.grants)?;
    let (comp, ec) = k.load_component(pd, 0, Box::new(DiskServer::new(recipe.cfg)));
    k.start_component(comp, ec);
    Ok(CompCtx { pd, ec, comp })
}

/// Wires VMM slot `slot` to the disk server as its first `channels`
/// clients ([`dproto::slot_clients`]). Root hands the server the VMM's PD
/// capability at its per-slot selector and, per client, `UP` on the
/// VM's completion semaphore `done_sm` at [`dproto::client_sm_sel`].
/// On the server incarnation's first wiring of a client, root makes its
/// portal with the server's identity — the id names the client
/// ([`dproto::portal_id`]), the receive window is the guest part of
/// the client's window — and maps the client's completion ring, root's
/// page `rings + i` for channel `i`, at [`dproto::RING_WINDOW_PAGE`].
/// The server delegates the portal call-only to the channel's selector
/// in the VMM's space and serves the client from a fresh ring. Done for
/// every VMM incarnation and for every client of a respawned server
/// (the old capabilities die with either PD).
#[allow(clippy::too_many_arguments)]
pub fn wire_disk_client(
    k: &mut Kernel,
    root_ctx: CompCtx,
    srv: DiskServerRef,
    vmm_sel: CapSel,
    slot: usize,
    done_sm: CapSel,
    rings: u64,
    channels: usize,
) -> Result<(), RespawnError> {
    let pd_hot = 0x30 + slot;
    RootOps::new(k, root_ctx)
        .grant_cap(srv.sel, vmm_sel, Perms::ALL, pd_hot)
        .map_err(RespawnError::step("client pd cap"))?;
    let clients = dproto::slot_clients(slot).zip(dproto::CHANNELS);
    for (i, (c, (kind, to))) in clients.take(channels).enumerate() {
        let pt = 0x20 + c;
        let base = dproto::window_base(c);
        let fresh = k.obj.pd(srv.ctx.pd).caps.get(pt).is_none();
        let mut ops = RootOps::new(k, root_ctx);
        ops.grant_cap(srv.sel, done_sm, Perms::UP, dproto::client_sm_sel(c))
            .map_err(RespawnError::step("completion sm grant"))?;
        let ring = base + dproto::RING_WINDOW_PAGE;
        if fresh {
            ops.grant_mem(srv.sel, rings + i as u64, 1, MemRights::RW, ring)
                .map_err(RespawnError::step("completion ring"))?;
        }
        let portal = [
            Hypercall::CreatePt {
                ec: SEL_SELF_EC,
                mtd: 0,
                id: dproto::portal_id(c, kind),
                dst: pt,
            },
            Hypercall::PtWindow {
                pt,
                base,
                count: dproto::RING_WINDOW_PAGE,
            },
        ];
        let call_only = Hypercall::DelegateCap {
            dst_pd: pd_hot,
            sel: pt,
            perms: Perms::CALL,
            hot: to,
        };
        for hc in portal.into_iter().filter(|_| fresh).chain([call_only]) {
            k.hypercall(srv.ctx, hc)
                .map_err(RespawnError::step("client portal"))?;
        }
        k.invoke_component::<DiskServer, _>(srv.ctx.comp, |s, _| s.attach_client(c));
    }
    Ok(())
}

/// Respawn attempts per escalation rung before climbing to the next.
pub const REVIVE_ATTEMPTS: u32 = 3;
/// Initial retry backoff after a failed respawn step, in cycles.
pub const RETRY_BACKOFF: u64 = 250_000;
/// Ceiling for the exponential retry backoff, in cycles.
pub const BACKOFF_CAP: u64 = 8_000_000;
/// A crash this soon after a restore means the current escalation rung
/// does not hold; the supervisor climbs instead of looping on it.
pub const STABILITY_WINDOW: u64 = 2_000_000;
/// Escalation rung: resume the guest from the last checkpoint.
pub const LEVEL_RESUME: u8 = 0;
/// Escalation rung: discard the checkpoint and cold-boot the guest.
pub const LEVEL_COLD: u8 = 1;
/// Escalation rung: give up on this VM; siblings keep running.
pub const LEVEL_FAILED: u8 = 2;
/// Events retained in each supervised VMM's flight-recorder black box.
pub const FLIGHT_CAPACITY: usize = 64;

/// A retry channel: the timer semaphore a failed respawn or revive
/// waits on, and the bounded exponential backoff both ladders share.
/// The disk side creates its channel on the first failure (the happy
/// path allocates nothing); a supervised VM gets one up front.
pub struct Backoff {
    /// Root's selector for the retry timer semaphore.
    pub sm_sel: CapSel,
    /// The semaphore's identity (to recognize the signal).
    pub sm: SmId,
    /// Failed attempts since the last reset.
    pub attempts: u32,
    /// Next retry delay in cycles (doubles per failure, capped).
    pub delay: u64,
}

impl Backoff {
    fn new((sm_sel, sm): (CapSel, SmId)) -> Backoff {
        Backoff {
            sm_sel,
            sm,
            attempts: 0,
            delay: RETRY_BACKOFF,
        }
    }

    /// Arms the timer for the current delay and doubles it. The kernel
    /// timer is periodic; whoever handles the signal disarms it.
    fn arm(&mut self, k: &mut Kernel, ctx: CompCtx) -> Result<(), HcErr> {
        k.hypercall(
            ctx,
            Hypercall::SetTimer {
                sm: self.sm_sel,
                period: self.delay,
            },
        )?;
        self.delay = self.delay.saturating_mul(2).min(BACKOFF_CAP);
        Ok(())
    }

    fn disarm(&self, k: &mut Kernel, ctx: CompCtx) {
        let _ = k.hypercall(
            ctx,
            Hypercall::SetTimer {
                sm: self.sm_sel,
                period: 0,
            },
        );
    }

    fn reset(&mut self) {
        self.attempts = 0;
        self.delay = RETRY_BACKOFF;
    }
}

/// How the supervisor checkpoints and rebuilds one VM. Implemented
/// outside this crate (the VMM crate knows how to provision itself);
/// root only drives the policy: when to checkpoint, when to revive,
/// when to climb the escalation ladder. Root hands the recipe what is
/// root's to give — itself, for selector allocation, and the live disk
/// server — so a recipe caches neither.
pub trait VmRecipe {
    /// Serializes a consistent checkpoint of the running VM (vCPU
    /// state, guest memory, virtual-device state) tagged with `seq`
    /// into `blob`. The supervisor passes the previous checkpoint (or
    /// an empty `Vec`) so the recipe can reuse whatever of it is still
    /// current. On `Ok`, `blob` is exactly what a capture into an
    /// empty `Vec` would have produced, and the value is the number of
    /// guest pages the capture copied; on `Err`, `blob` is untouched.
    fn checkpoint(
        &mut self,
        k: &mut Kernel,
        ctx: CompCtx,
        seq: u64,
        blob: &mut Vec<u8>,
    ) -> Result<u64, RespawnError>;

    /// Tears down the dead incarnation (VM and VMM protection
    /// domains), provisions a fresh VMM wired to `disk`, and either
    /// restores `checkpoint` into it or — when `None` — cold-boots the
    /// guest image. Returns root's capability selector for the new VMM
    /// PD so the supervisor can re-arm its watchdog. Must be
    /// idempotent: a failed attempt may be retried from the top.
    fn revive(
        &mut self,
        k: &mut Kernel,
        ctx: CompCtx,
        root: &mut RootPm,
        disk: Option<DiskServerRef>,
        checkpoint: Option<&[u8]>,
    ) -> Result<CapSel, RespawnError>;

    /// Final teardown when the supervisor marks the VM failed; best
    /// effort, must not panic.
    fn abandon(
        &mut self,
        _k: &mut Kernel,
        _ctx: CompCtx,
        _root: &mut RootPm,
        _disk: Option<DiskServerRef>,
    ) {
    }

    /// Downcast access for launchers and tests that track
    /// recipe-specific state (e.g. the current VMM component id).
    fn as_any(&mut self) -> &mut dyn std::any::Any;
}

/// Everything root holds to supervise one VMM: the signal channels,
/// the rebuild recipe, the last checkpoint, and the escalation-ladder
/// bookkeeping.
pub struct VmmSupervision {
    /// Index of this entry in `RootPm::vmm_supervision` (metric
    /// domain).
    pub slot: usize,
    /// Root's capability selector for the current VMM PD (refreshed on
    /// every revive).
    pub vmm_sel: CapSel,
    /// The current VMM incarnation's protection domain (refreshed on
    /// every revive); keys this VM's flight-recorder black box.
    pub vmm_pd: u16,
    /// Root's selector for the watchdog semaphore.
    pub wd_sm_sel: CapSel,
    /// The watchdog semaphore's identity.
    pub wd_sm: SmId,
    /// Root's selector for the periodic checkpoint timer semaphore.
    pub ckpt_sm_sel: CapSel,
    /// The checkpoint timer semaphore's identity.
    pub ckpt_sm: SmId,
    /// The one-shot revive-retry channel; `attempts` counts the failed
    /// revives on the current rung.
    pub retry: Backoff,
    /// Watchdog deadline in cycles.
    pub timeout: u64,
    /// Checkpoint cadence in cycles.
    pub ckpt_period: u64,
    /// How to checkpoint and rebuild this VM.
    pub recipe: Box<dyn VmRecipe>,
    /// The most recent consistent checkpoint, if any was taken.
    pub last_checkpoint: Option<Vec<u8>>,
    /// Sequence number of `last_checkpoint`.
    pub seq: u64,
    /// Current escalation rung (`LEVEL_*`).
    pub level: u8,
    /// Why the most recent failed revive attempt failed, for the
    /// operator reading a postmortem.
    pub last_error: Option<RespawnError>,
    /// Successful revives of this VM so far: what the stability window
    /// asks about, and this VM's share of `Counters::vmm_restarts`.
    pub restarts: u64,
    /// True between crash detection and a successful revive; gates the
    /// checkpoint cadence off a dead incarnation.
    pub reviving: bool,
    /// Index of this VM's entry in `DiskSupervision::clients`, when it
    /// is a supervised disk client: a successful revive refreshes that
    /// entry's `vmm_sel` so later disk-server restarts rewire the new
    /// incarnation, not the dead one.
    pub disk_client_slot: Option<usize>,
    /// The supervisor gave up on this VM; the slot stays allocated so
    /// sibling indices (and metric domains) remain stable.
    pub failed: bool,
    /// When the current (or last) crash was detected, for restore
    /// latency accounting.
    pub crash_at: u64,
    /// When the last successful revive finished, for the stability
    /// window.
    pub last_restore_at: u64,
}

/// The root partition manager component.
#[derive(Default)]
pub struct RootPm {
    /// The component's kernel identity, captured at start.
    pub ctx: Option<CompCtx>,
    /// Disk-server supervision state, installed by a supervised
    /// launch.
    pub supervision: Option<DiskSupervision>,
    /// Disk respawn retry channel (created on the first failure).
    pub disk_retry: Option<Backoff>,
    /// The disk respawn budget is exhausted; the service stays down
    /// but root and every VM keep running.
    pub disk_failed: bool,
    /// Why the most recent failed disk respawn attempt failed.
    pub disk_last_error: Option<RespawnError>,
    /// Per-VM supervision entries, indexed by install order.
    pub vmm_supervision: Vec<Option<VmmSupervision>>,
    /// The most recent postmortem dump ([`flight::postmortem`]),
    /// serialized when a supervised VMM dies or the escalation ladder
    /// climbs; replaced on every incident. Operators (tests, examples,
    /// CI) read it here to persist the black box.
    pub last_postmortem: Option<Vec<u8>>,
    next_sel: CapSel,
}

impl RootPm {
    /// Creates the root partition manager.
    pub fn new() -> RootPm {
        RootPm {
            // Low selectors stay free for well-known assignments.
            next_sel: 0x100,
            ..RootPm::default()
        }
    }

    /// The supervised disk server alive now, for wiring a client.
    pub fn disk_server(&self) -> Option<DiskServerRef> {
        self.supervision.as_ref().map(|s| DiskServerRef {
            sel: s.srv_sel,
            ctx: s.srv_ctx,
        })
    }

    /// Allocates a fresh capability selector in root's space.
    pub fn alloc_sel(&mut self) -> CapSel {
        let s = self.next_sel;
        self.next_sel += 1;
        s
    }

    /// A fresh semaphore root is bound to, so its signals run root's
    /// handler.
    fn bound_sm(&mut self, k: &mut Kernel, ctx: CompCtx) -> Result<(CapSel, SmId), RespawnError> {
        let sel = self.alloc_sel();
        let sm = k
            .create_bound_sm(ctx, sel)
            .map_err(RespawnError::step("supervision sm"))?;
        Ok((sel, sm))
    }

    /// Puts the domain at `pd_sel` under a kernel watchdog: a semaphore
    /// for the kernel to fire when the domain dies or goes silent for
    /// `timeout` cycles, and — before the first domain is watched — an
    /// SC of root's own so that signal actually schedules it.
    fn watch(
        &mut self,
        k: &mut Kernel,
        ctx: CompCtx,
        pd_sel: CapSel,
        timeout: u64,
    ) -> Result<(CapSel, SmId), RespawnError> {
        if self.supervision.is_none() && self.vmm_supervision.is_empty() {
            let dst = self.alloc_sel();
            k.hypercall(
                ctx,
                Hypercall::CreateSc {
                    ec: SEL_SELF_EC,
                    prio: 48,
                    quantum: 100_000,
                    dst,
                },
            )
            .map_err(RespawnError::step("supervisor sc"))?;
        }
        let (sm_sel, sm) = self.bound_sm(k, ctx)?;
        k.hypercall(
            ctx,
            Hypercall::WatchdogArm {
                pd: pd_sel,
                sm: sm_sel,
                timeout,
            },
        )
        .map_err(RespawnError::step("watchdog arm"))?;
        Ok((sm_sel, sm))
    }

    /// Takes the running disk server `srv` under supervision: arms its
    /// watchdog and keeps `recipe` for the respawns.
    pub fn supervise_disk_server(
        &mut self,
        k: &mut Kernel,
        ctx: CompCtx,
        srv: DiskServerRef,
        recipe: DiskRecipe,
        timeout: u64,
    ) -> Result<(), RespawnError> {
        let (wd_sm_sel, wd_sm) = self.watch(k, ctx, srv.sel, timeout)?;
        self.supervision = Some(DiskSupervision {
            srv_sel: srv.sel,
            srv_ctx: srv.ctx,
            wd_sm_sel,
            wd_sm,
            timeout,
            recipe,
            clients: Vec::new(),
        });
        Ok(())
    }

    /// Takes the running VMM at `vmm_sel` under supervision: watchdog,
    /// checkpoint-cadence and revive-retry channels, the cadence timer
    /// armed, the black box recording. Returns the VM's slot.
    #[allow(clippy::too_many_arguments)]
    pub fn supervise_vm(
        &mut self,
        k: &mut Kernel,
        ctx: CompCtx,
        recipe: Box<dyn VmRecipe>,
        vmm_sel: CapSel,
        disk_client_slot: Option<usize>,
        timeout: u64,
        ckpt_period: u64,
    ) -> Result<usize, RespawnError> {
        let vmm_pd = Self::pd_behind(k, ctx, vmm_sel)
            .ok_or(RespawnError::State("vmm selector names no domain"))?;
        let (wd_sm_sel, wd_sm) = self.watch(k, ctx, vmm_sel, timeout)?;
        let (ckpt_sm_sel, ckpt_sm) = self.bound_sm(k, ctx)?;
        let retry = Backoff::new(self.bound_sm(k, ctx)?);
        k.hypercall(
            ctx,
            Hypercall::SetTimer {
                sm: ckpt_sm_sel,
                period: ckpt_period,
            },
        )
        .map_err(RespawnError::step("checkpoint cadence timer"))?;
        // The black box records from the first incarnation's first
        // event; a revive re-keys it to each successor domain.
        k.machine.bus.trace.enable_flight(vmm_pd, FLIGHT_CAPACITY);
        let slot = self.vmm_supervision.len();
        self.vmm_supervision.push(Some(VmmSupervision {
            slot,
            vmm_sel,
            vmm_pd,
            wd_sm_sel,
            wd_sm,
            ckpt_sm_sel,
            ckpt_sm,
            retry,
            timeout,
            ckpt_period,
            recipe,
            last_checkpoint: None,
            seq: 0,
            level: LEVEL_RESUME,
            last_error: None,
            restarts: 0,
            reviving: false,
            disk_client_slot,
            failed: false,
            crash_at: 0,
            last_restore_at: 0,
        }));
        Ok(slot)
    }

    /// The protection domain root's selector `sel` names.
    fn pd_behind(k: &Kernel, ctx: CompCtx, sel: CapSel) -> Option<u16> {
        match k.obj.pd(ctx.pd).caps.get(sel).map(|c| c.obj) {
            Some(ObjRef::Pd(p)) => Some(p.0 as u16),
            _ => None,
        }
    }

    /// Tears down the (dead or wedged) disk server and brings up a
    /// fresh incarnation. A failed recipe step does not panic root: it
    /// schedules a bounded exponential-backoff retry, and when the
    /// attempt budget runs out the service is marked failed — degraded,
    /// not fatal, because every VM keeps running on its own timeouts.
    pub fn restart_disk_server(&mut self, k: &mut Kernel, ctx: CompCtx) {
        if self.disk_failed {
            return;
        }
        // Disarm before attempting, so a success does not leave a
        // stray signal behind.
        if let Some(r) = &self.disk_retry {
            r.disarm(k, ctx);
        }
        match self.respawn_disk_server(k, ctx) {
            Ok(()) => {
                if let Some(r) = &mut self.disk_retry {
                    r.reset();
                }
            }
            Err(e) => {
                self.disk_last_error = Some(e);
                self.schedule_disk_retry(k, ctx);
            }
        }
    }

    /// One respawn attempt: `DestroyPd` recursively revokes everything
    /// the previous incarnation held — every client DMA window standing
    /// in the IOMMU, the interrupt and the device assignment included —
    /// then the recipe is replayed into a new PD, every client is
    /// rewired, the watchdog re-armed and each client signalled to
    /// resubmit. The supervision record moves to the new selector
    /// before anything is built there, so what a failed attempt leaves
    /// behind is what the next attempt destroys first.
    fn respawn_disk_server(&mut self, k: &mut Kernel, ctx: CompCtx) -> Result<(), RespawnError> {
        let srv_sel = self.alloc_sel();
        let Some(sup) = self.supervision.as_mut() else {
            return Err(RespawnError::State("no disk supervision installed"));
        };
        // The old PD may already be gone (death notification) — a
        // failed destroy is not an error.
        let _ = k.hypercall(ctx, Hypercall::DestroyPd { pd: sup.srv_sel });
        sup.srv_sel = srv_sel;
        sup.srv_ctx = spawn_disk_server(k, ctx, srv_sel, &sup.recipe)?;
        let srv = DiskServerRef {
            sel: srv_sel,
            ctx: sup.srv_ctx,
        };
        for (i, c) in sup.clients.iter().enumerate() {
            let (done, rings) = (c.done_sm_sel, c.rings);
            wire_disk_client(k, ctx, srv, c.vmm_sel, i, done, rings, c.channels)?;
        }
        k.hypercall(
            ctx,
            Hypercall::WatchdogArm {
                pd: srv_sel,
                sm: sup.wd_sm_sel,
                timeout: sup.timeout,
            },
        )
        .map_err(RespawnError::step("watchdog re-arm"))?;
        for c in &sup.clients {
            let _ = k.hypercall(
                ctx,
                Hypercall::SmUp {
                    sm: c.restart_sm_sel,
                },
            );
        }

        k.counters.driver_restarts += 1;
        let at = k.now();
        k.machine.bus.trace.emit(
            0,
            ctx.pd.0 as u16,
            TraceKind::DriverRestart,
            k.counters.driver_restarts,
            at,
        );
        Ok(())
    }

    /// Books a failed disk respawn attempt: arm a one-shot backoff
    /// timer, or mark the service failed when the budget is exhausted
    /// (or there is no timer channel for the retry loop to run on).
    fn schedule_disk_retry(&mut self, k: &mut Kernel, ctx: CompCtx) {
        if self.disk_retry.is_none() {
            self.disk_retry = self.bound_sm(k, ctx).ok().map(Backoff::new);
        }
        let armed = self.disk_retry.as_mut().is_some_and(|r| {
            r.attempts += 1;
            r.attempts < REVIVE_ATTEMPTS && r.arm(k, ctx).is_ok()
        });
        self.disk_failed = !armed;
    }

    // ------------------------------------------------------------------
    // VM supervision: checkpoint cadence and the escalation ladder
    // ------------------------------------------------------------------

    fn store_vm(&mut self, idx: usize, sup: VmmSupervision) {
        if let Some(slot) = self.vmm_supervision.get_mut(idx) {
            *slot = Some(sup);
        }
    }

    /// The dead domain's fault code, recovered from its black box: the
    /// detail of the last `PdDeath` event mirrored for the PD (0 when
    /// the watchdog fired on a silent wedge).
    fn death_reason(k: &Kernel, pd: u16) -> u64 {
        k.machine
            .bus
            .trace
            .flight_tail(pd)
            .iter()
            .rev()
            .find(|e| e.kind as u16 == TraceKind::PdDeath as u16)
            .map_or(0, |e| e.detail)
    }

    /// Serializes the deterministic postmortem for a dead (or
    /// escalating) VM — flight-recorder tail, last checkpoint header,
    /// trigger, reason, metrics snapshot — and parks it on root for
    /// the operator to persist.
    fn record_postmortem(
        &mut self,
        k: &Kernel,
        sup: &VmmSupervision,
        trigger: flight::Trigger,
        reason: u64,
    ) {
        let ckpt = sup
            .last_checkpoint
            .as_ref()
            .map(|b| (sup.seq, b.len() as u64));
        self.last_postmortem = Some(flight::postmortem(
            &k.machine.bus.trace,
            sup.vmm_pd,
            trigger,
            reason,
            k.now(),
            ckpt,
        ));
    }

    /// Climbs one rung of the escalation ladder and serializes an
    /// escalation postmortem: the black-box tail explains *why* the
    /// rung below did not hold. Every rung above resume has given up
    /// on the checkpoint, so it is dropped — once the postmortem has
    /// named it.
    fn escalate(&mut self, k: &mut Kernel, sup: &mut VmmSupervision) {
        sup.level = sup.level.saturating_add(1);
        sup.retry.reset();
        k.count(
            |c| &mut c.escalations,
            nova_trace::names::ESCALATIONS_BY_LEVEL,
            sup.level as u64,
        );
        self.record_postmortem(k, sup, flight::Trigger::Escalation, sup.level as u64);
        sup.last_checkpoint = None;
    }

    /// Retires the VM: stop its timers, let the recipe tear down any
    /// remnants, and keep the slot so sibling indices stay stable.
    fn mark_failed(&mut self, k: &mut Kernel, ctx: CompCtx, sup: &mut VmmSupervision) {
        if sup.failed {
            return;
        }
        sup.failed = true;
        sup.reviving = false;
        let _ = k.hypercall(
            ctx,
            Hypercall::SetTimer {
                sm: sup.ckpt_sm_sel,
                period: 0,
            },
        );
        sup.retry.disarm(k, ctx);
        let disk = self.disk_server();
        sup.recipe.abandon(k, ctx, self, disk);
        let at = k.now();
        k.machine.bus.trace.emit(
            0,
            ctx.pd.0 as u16,
            TraceKind::Restore,
            LEVEL_FAILED as u64,
            at,
        );
    }

    /// Watchdog fired for VM `idx`: its VMM died (or wedged past the
    /// deadline). Start — or continue — the revive state machine.
    pub fn handle_vmm_death(&mut self, k: &mut Kernel, ctx: CompCtx, idx: usize) {
        let Some(mut sup) = self.vmm_supervision.get_mut(idx).and_then(Option::take) else {
            return;
        };
        if sup.failed {
            self.store_vm(idx, sup);
            return;
        }
        let now = k.now();
        if !sup.reviving {
            sup.crash_at = now;
        }
        sup.reviving = true;
        // Serialize the black box before anything tears the wreck
        // down: the watchdog postmortem is the only record of the dead
        // incarnation's final events.
        let reason = Self::death_reason(k, sup.vmm_pd);
        self.record_postmortem(k, &sup, flight::Trigger::Watchdog, reason);
        // A crash right after a restore means the current rung does
        // not hold (the checkpoint itself reproduces the crash, or the
        // cold image does) — climb instead of looping.
        if sup.restarts > 0 && now.saturating_sub(sup.last_restore_at) < STABILITY_WINDOW {
            self.escalate(k, &mut sup);
        }
        self.try_revive(k, ctx, idx, sup);
    }

    /// One revive attempt at the current escalation rung.
    fn try_revive(&mut self, k: &mut Kernel, ctx: CompCtx, idx: usize, mut sup: VmmSupervision) {
        if sup.level >= LEVEL_FAILED {
            self.mark_failed(k, ctx, &mut sup);
            self.store_vm(idx, sup);
            return;
        }
        // The revive sequence is a request of its own: one fresh trace
        // context ties checkpoint restore, rewiring and the Restore
        // record into a single flow in the exported trace.
        k.machine.bus.trace.alloc_ctx();
        // The server the new incarnation is wired to is the one alive
        // now, which a respawn may have replaced since the last revive.
        let disk = self.disk_server();
        let ckpt = match sup.level {
            LEVEL_RESUME => sup.last_checkpoint.as_deref(),
            _ => None,
        };
        let outcome = sup.recipe.revive(k, ctx, self, disk, ckpt);
        let outcome = outcome.and_then(|new_sel| {
            k.hypercall(
                ctx,
                Hypercall::WatchdogArm {
                    pd: new_sel,
                    sm: sup.wd_sm_sel,
                    timeout: sup.timeout,
                },
            )
            .map(|_| new_sel)
            .map_err(|e| RespawnError::Step("vmm watchdog re-arm", e))
        });
        match outcome {
            Ok(new_sel) => {
                let now = k.now();
                sup.vmm_sel = new_sel;
                // Re-key the flight recorder to the new incarnation's
                // domain so its black box starts recording from birth.
                if let Some(pd) = Self::pd_behind(k, ctx, new_sel) {
                    sup.vmm_pd = pd;
                }
                k.machine
                    .bus
                    .trace
                    .enable_flight(sup.vmm_pd, FLIGHT_CAPACITY);
                // Keep the disk supervisor pointing at the live
                // incarnation for its own future restarts.
                if let Some(cs) = sup.disk_client_slot {
                    if let Some(c) = self
                        .supervision
                        .as_mut()
                        .and_then(|ds| ds.clients.get_mut(cs))
                    {
                        c.vmm_sel = new_sel;
                    }
                }
                sup.restarts += 1;
                sup.retry.reset();
                sup.reviving = false;
                sup.last_restore_at = now;
                let dom = sup.slot as u64;
                k.count(
                    |c| &mut c.vmm_restarts,
                    nova_trace::names::VMM_RESTARTS,
                    dom,
                );
                k.machine.bus.trace.emit(
                    0,
                    ctx.pd.0 as u16,
                    TraceKind::Restore,
                    sup.level as u64,
                    now,
                );
                if k.machine.bus.trace.active() {
                    k.machine.bus.trace.metrics.observe(
                        nova_trace::names::RESTORE_LATENCY_CYCLES,
                        dom,
                        now.saturating_sub(sup.crash_at),
                    );
                }
                self.store_vm(idx, sup);
            }
            Err(e) => {
                sup.last_error = Some(e);
                sup.retry.attempts += 1;
                if sup.retry.attempts >= REVIVE_ATTEMPTS {
                    self.escalate(k, &mut sup);
                }
                // One-shot backoff retry (the handler disarms it).
                // Without a timer channel the ladder cannot make
                // progress, so fail the VM now rather than hang.
                if sup.level < LEVEL_FAILED && sup.retry.arm(k, ctx).is_err() {
                    sup.level = LEVEL_FAILED;
                }
                if sup.level >= LEVEL_FAILED {
                    self.mark_failed(k, ctx, &mut sup);
                }
                self.store_vm(idx, sup);
            }
        }
    }

    /// Backoff timer fired for VM `idx`: retry the revive.
    fn retry_vm(&mut self, k: &mut Kernel, ctx: CompCtx, idx: usize) {
        if let Some(s) = self.vmm_supervision.get(idx).and_then(|s| s.as_ref()) {
            // The kernel timer is periodic; make it one-shot.
            s.retry.disarm(k, ctx);
        }
        let Some(sup) = self.vmm_supervision.get_mut(idx).and_then(Option::take) else {
            return;
        };
        if sup.failed || !sup.reviving {
            self.store_vm(idx, sup);
            return;
        }
        self.try_revive(k, ctx, idx, sup);
    }

    /// Checkpoint cadence tick for VM `idx`: capture a fresh
    /// checkpoint. Success de-escalates the ladder — the next crash
    /// resumes from a state known to be consistent.
    pub fn checkpoint_vm(&mut self, k: &mut Kernel, ctx: CompCtx, idx: usize) {
        let Some(mut sup) = self.vmm_supervision.get_mut(idx).and_then(Option::take) else {
            return;
        };
        if sup.failed || sup.reviving {
            self.store_vm(idx, sup);
            return;
        }
        let seq = sup.seq + 1;
        let mut blob = sup.last_checkpoint.take().unwrap_or_default();
        let captured = sup.recipe.checkpoint(k, ctx, seq, &mut blob);
        // A failed capture leaves `blob` as it was: the previous
        // checkpoint (or none) is kept and the cadence tries again.
        if let Ok(copied) = captured {
            sup.seq = seq;
            let (at, bytes, dom) = (k.now(), blob.len() as u64, sup.slot as u64);
            k.machine
                .bus
                .trace
                .emit(0, ctx.pd.0 as u16, TraceKind::Checkpoint, bytes, at);
            observe(
                k,
                |c| &mut c.checkpoints_taken,
                1,
                nova_trace::names::CHECKPOINT_BYTES,
                dom,
                bytes,
            );
            observe(
                k,
                |c| &mut c.checkpoint_pages_copied,
                copied,
                nova_trace::names::CHECKPOINT_DIRTY_PAGES,
                dom,
                copied,
            );
            sup.level = LEVEL_RESUME;
            sup.retry.reset();
        }
        sup.last_checkpoint = (!blob.is_empty()).then_some(blob);
        self.store_vm(idx, sup);
    }
}

impl Component for RootPm {
    fn name(&self) -> &str {
        "root-pm"
    }

    fn on_start(&mut self, _k: &mut Kernel, ctx: CompCtx) {
        self.ctx = Some(ctx);
    }

    fn on_call(&mut self, _k: &mut Kernel, _ctx: CompCtx, _portal_id: u64, utcb: &mut Utcb) {
        // The root partition manager exposes no services; callers get
        // an empty reply.
        utcb.clear();
    }

    fn on_signal(&mut self, k: &mut Kernel, ctx: CompCtx, sm: SmId) {
        // Disk-server supervision: watchdog (inactivity deadline or
        // death notification) and the respawn-retry backoff timer.
        if self.supervision.as_ref().is_some_and(|s| s.wd_sm == sm)
            || self.disk_retry.as_ref().is_some_and(|r| r.sm == sm)
        {
            self.restart_disk_server(k, ctx);
            return;
        }
        // VM supervision: each slot owns three channels — watchdog,
        // checkpoint cadence, revive-retry backoff.
        enum Vs {
            Death,
            Ckpt,
            Retry,
        }
        let mut hit = None;
        for (i, slot) in self.vmm_supervision.iter().enumerate() {
            let Some(s) = slot else { continue };
            if s.wd_sm == sm {
                hit = Some((i, Vs::Death));
                break;
            }
            if s.ckpt_sm == sm {
                hit = Some((i, Vs::Ckpt));
                break;
            }
            if s.retry.sm == sm {
                hit = Some((i, Vs::Retry));
                break;
            }
        }
        match hit {
            Some((i, Vs::Death)) => self.handle_vmm_death(k, ctx, i),
            Some((i, Vs::Ckpt)) => self.checkpoint_vm(k, ctx, i),
            Some((i, Vs::Retry)) => self.retry_vm(k, ctx, i),
            None => {}
        }
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// [`Kernel::count`] for a metric that observes a value: adds `n` to
/// `field` of the kernel's counters always and observes `value` under
/// `metric` for `domain` while tracing is on — the one way such a pair
/// is written, so the two cannot drift apart.
fn observe(
    k: &mut Kernel,
    field: impl FnOnce(&mut Counters) -> &mut u64,
    n: u64,
    metric: &'static str,
    domain: u64,
    value: u64,
) {
    *field(&mut k.counters) += n;
    if k.machine.bus.trace.active() {
        k.machine.bus.trace.metrics.observe(metric, domain, value);
    }
}

/// Root-side system construction helpers. Each operates with root's
/// identity (its `CompCtx`) through the ordinary hypercall interface —
/// root has no special kernel access, only a rich initial capability
/// set.
pub struct RootOps<'a> {
    /// The kernel.
    pub k: &'a mut Kernel,
    /// Root's identity.
    pub ctx: CompCtx,
}

impl<'a> RootOps<'a> {
    /// Binds helpers to the kernel and root identity.
    pub fn new(k: &'a mut Kernel, ctx: CompCtx) -> RootOps<'a> {
        RootOps { k, ctx }
    }

    /// Allocates a selector from the root component's allocator — for
    /// harnesses acting as root while root itself is not executing.
    pub fn alloc_sel(&mut self) -> CapSel {
        let comp = self.ctx.comp;
        self.k
            .component_mut::<RootPm>(comp)
            .expect("root component")
            .alloc_sel()
    }

    /// Creates a protection domain at root's selector `dst` and
    /// replays `grants` into it, in order — the one body behind every
    /// domain root builds, at boot and after a death alike. On `Err`
    /// the domain may exist half-provisioned; `dst` names it.
    pub fn provision(
        &mut self,
        name: &str,
        dst: CapSel,
        grants: &[Grant],
    ) -> Result<PdId, RespawnError> {
        self.hc(Hypercall::CreatePd {
            name: name.into(),
            vm: None,
            dst,
        })
        .map_err(RespawnError::step("pd create"))?;
        let pd = PdId(self.k.obj.pds.len() - 1);
        for &g in grants {
            match g {
                Grant::Mem {
                    base,
                    count,
                    rights,
                    hot,
                } => self
                    .grant_mem(dst, base, count, rights, hot)
                    .map_err(RespawnError::step("mem grant")),
                Grant::Io { base, count } => self
                    .grant_io(dst, base, count)
                    .map_err(RespawnError::step("io grant")),
                Grant::Gsi(gsi) => self
                    .grant_gsi(dst, gsi)
                    .map_err(RespawnError::step("gsi grant")),
                Grant::Dev(dev) => self
                    .assign_device(dst, dev)
                    .map_err(RespawnError::step("device assignment")),
            }?;
        }
        Ok(pd)
    }

    /// Delegates a contiguous range of root's memory pages to a PD.
    pub fn grant_mem(
        &mut self,
        pd_sel: CapSel,
        base_page: u64,
        count: u64,
        rights: MemRights,
        hot_page: u64,
    ) -> Result<(), HcErr> {
        self.k.hypercall(
            self.ctx,
            Hypercall::DelegateMem {
                dst_pd: pd_sel,
                base: base_page,
                count,
                rights,
                hot: hot_page,
            },
        )?;
        Ok(())
    }

    /// Delegates an I/O port range.
    pub fn grant_io(&mut self, pd_sel: CapSel, base: u16, count: u16) -> Result<(), HcErr> {
        self.k.hypercall(
            self.ctx,
            Hypercall::DelegateIo {
                dst_pd: pd_sel,
                base,
                count,
            },
        )?;
        Ok(())
    }

    /// Delegates one of root's capabilities to a PD.
    pub fn grant_cap(
        &mut self,
        pd_sel: CapSel,
        sel: CapSel,
        perms: Perms,
        hot: CapSel,
    ) -> Result<(), HcErr> {
        self.k.hypercall(
            self.ctx,
            Hypercall::DelegateCap {
                dst_pd: pd_sel,
                sel,
                perms,
                hot,
            },
        )?;
        Ok(())
    }

    /// Passes GSI ownership to a PD.
    pub fn grant_gsi(&mut self, pd_sel: CapSel, gsi: u8) -> Result<(), HcErr> {
        self.k.hypercall(
            self.ctx,
            Hypercall::DelegateGsi {
                dst_pd: pd_sel,
                gsi,
            },
        )?;
        Ok(())
    }

    /// Assigns a device to a PD (IOMMU domain).
    pub fn assign_device(&mut self, pd_sel: CapSel, device: usize) -> Result<(), HcErr> {
        self.k
            .hypercall(self.ctx, Hypercall::AssignDev { pd: pd_sel, device })?;
        Ok(())
    }

    /// Raw hypercall passthrough with root identity.
    pub fn hc(&mut self, hc: Hypercall) -> Result<HcReply, HcErr> {
        self.k.hypercall(self.ctx, hc)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use nova_core::KernelConfig;
    use nova_hw::machine::{Machine, MachineConfig};

    fn boot() -> (Kernel, CompCtx) {
        let m = Machine::new(MachineConfig::core_i7(32 << 20));
        let mut k = Kernel::new(m, KernelConfig::default());
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::new(RootPm::new()));
        k.start_component(comp, ec);
        let ctx = k.component_mut::<RootPm>(comp).unwrap().ctx.unwrap();
        (k, ctx)
    }

    #[test]
    fn root_captures_identity() {
        let (k, ctx) = boot();
        assert_eq!(ctx.pd, k.root_pd);
    }

    #[test]
    fn create_pd_and_grant() {
        let (mut k, ctx) = boot();
        let mut ops = RootOps::new(&mut k, ctx);
        let sel = ops.alloc_sel();
        let grants = [
            Grant::Mem {
                base: 0x100,
                count: 4,
                rights: MemRights::RW,
                hot: 0x10,
            },
            Grant::Io {
                base: 0x3f8,
                count: 8,
            },
        ];
        let pd = ops.provision("svc", sel, &grants).unwrap();
        assert!(k.obj.pd(pd).mem.lookup(0x10).is_some());
        assert!(k.obj.pd(pd).io.allowed(0x3f8));
    }

    #[test]
    fn selector_allocation_is_unique() {
        let (mut k, ctx) = boot();
        let mut ops = RootOps::new(&mut k, ctx);
        let (a, b) = (ops.alloc_sel(), ops.alloc_sel());
        assert_ne!(a, b);
        let pd_a = ops.provision("a", a, &[]).unwrap();
        let pd_b = ops.provision("b", b, &[]).unwrap();
        assert_ne!(pd_a, pd_b);
    }
}
