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
//!
//! Each fact a replay needs has one holder. Root holds the live disk
//! server (read through [`RootPm::disk_server`]) and
//! each VM slot's disk wiring ([`RootPm::clients`], written only by
//! [`RootPm::wire_client`] and, for a VM given up on,
//! [`RootPm::forget_client`]); a VMM's incarnation lives in its recipe
//! ([`VmRecipe::vmm`]), and each ladder's state in its supervision
//! record. Only this module reaches into the disk server.

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::panic)]

use nova_core::cap::{CapSel, Perms};
use nova_core::kernel::SEL_SELF_EC;
use nova_core::obj::{MemRights, PdId};
use nova_core::utcb::Utcb;
use nova_core::{CompCtx, Component, Counters, HcErr, Hypercall, Kernel, SmId};
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

/// A VM slot's disk wiring, as root replays it: for every VMM
/// incarnation ([`RootPm::wire_client`]) and for every client of a
/// respawned server.
#[derive(Clone, Copy, Debug)]
pub struct SupervisedClient {
    /// Root's capability selector for the incarnation last wired (the
    /// VMM's PD).
    pub vmm_sel: CapSel,
    /// Root's selector for the VM's completion semaphore, which the
    /// server signals.
    pub done_sm_sel: CapSel,
    /// Root's selector for the restart semaphore it signals once a
    /// respawned server is wired to the VMM; a client of an unsupervised
    /// server has none.
    pub restart_sm_sel: Option<CapSel>,
    /// Root's page of the VM's first completion ring (the vAHCI's; the
    /// PV queue's follows).
    pub rings: u64,
    /// How many of the VMM's channels (`dproto::CHANNELS`) are wired:
    /// 2 with the PV queue, 1 without.
    pub channels: usize,
}

/// Everything root needs to supervise the disk server: the watchdog
/// channel, the recipe, and the respawn ladder's state.
pub struct DiskSupervision {
    /// Root's selector for the watchdog semaphore.
    pub wd_sm_sel: CapSel,
    /// The watchdog semaphore's identity (to recognize the signal).
    pub wd_sm: SmId,
    /// Watchdog deadline in cycles.
    pub timeout: u64,
    /// What every incarnation is built from.
    pub recipe: DiskRecipe,
    /// Respawn retry channel (created on the first failure).
    pub retry: Option<Backoff>,
    /// The respawn budget is exhausted; the service stays down but root
    /// and every VM keep running.
    pub failed: bool,
    /// Why the most recent failed respawn attempt failed.
    pub last_error: Option<RespawnError>,
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
    let pd_cap = Hypercall::DelegateCap {
        dst_pd: srv.sel,
        sel: vmm_sel,
        perms: Perms::ALL,
        hot: pd_hot,
    };
    k.hypercall(root_ctx, pd_cap)
        .map_err(RespawnError::step("client pd cap"))?;
    let clients = dproto::slot_clients(slot).zip(dproto::CHANNELS);
    for (i, (c, (kind, to))) in clients.take(channels).enumerate() {
        let pt = 0x20 + c;
        let base = dproto::window_base(c);
        let fresh = k.obj.pd(srv.ctx.pd).caps.get(pt).is_none();
        let done_up = Hypercall::DelegateCap {
            dst_pd: srv.sel,
            sel: done_sm,
            perms: Perms::UP,
            hot: dproto::client_sm_sel(c),
        };
        k.hypercall(root_ctx, done_up)
            .map_err(RespawnError::step("completion sm grant"))?;
        if fresh {
            let ring = Hypercall::DelegateMem {
                dst_pd: srv.sel,
                base: rings + i as u64,
                count: 1,
                rights: MemRights::RW,
                hot: base + dproto::RING_WINDOW_PAGE,
            };
            k.hypercall(root_ctx, ring)
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
/// when to climb the escalation ladder. Root hands the recipe itself —
/// for selector allocation and the disk-client wiring — and the recipe
/// alone holds which incarnation is current.
pub trait VmRecipe {
    /// Root's capability selector for the current VMM incarnation's
    /// protection domain, and the domain.
    fn vmm(&self) -> (CapSel, PdId);

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
    /// domains), provisions a fresh VMM wired to root's live disk
    /// server, and either restores `checkpoint` into it or — when
    /// `None` — cold-boots the guest image. On `Ok`, [`Self::vmm`]
    /// names the new incarnation, whose watchdog the supervisor
    /// re-arms. Must be idempotent: a failed attempt may be retried
    /// from the top.
    fn revive(
        &mut self,
        k: &mut Kernel,
        ctx: CompCtx,
        root: &mut RootPm,
        checkpoint: Option<&[u8]>,
    ) -> Result<(), RespawnError>;

    /// Final teardown when the supervisor marks the VM failed; best
    /// effort, must not panic.
    fn abandon(&mut self, _k: &mut Kernel, _ctx: CompCtx, _root: &mut RootPm) {}

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
    /// How to checkpoint and rebuild this VM; holds its current
    /// incarnation.
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

impl VmmSupervision {
    /// The current incarnation's domain, which keys its flight-recorder
    /// black box.
    fn vmm_pd(&self) -> u16 {
        self.recipe.vmm().1 .0 as u16
    }
}

/// The root partition manager component.
#[derive(Default)]
pub struct RootPm {
    /// The component's kernel identity, captured at start.
    pub ctx: Option<CompCtx>,
    /// The live disk server, recorded whenever root spawns one
    /// (supervised or not). A respawn moves it to the attempt's selector
    /// before its `CreatePd`, so whatever a failed attempt built is
    /// destroyed by the next one.
    disk: Option<DiskServerRef>,
    /// Each VMM slot's disk wiring, by slot ([`dproto::slot_clients`]).
    pub clients: [Option<SupervisedClient>; dproto::MAX_CLIENTS / 2],
    /// Disk-server supervision state, installed by a supervised
    /// launch.
    pub supervision: Option<DiskSupervision>,
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

    /// The disk server alive now, for wiring a client.
    pub fn disk_server(&self) -> Option<DiskServerRef> {
        self.disk
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

    /// Spawns the disk server from `recipe` at a fresh selector of
    /// root's and records it as the live one.
    pub fn start_disk_server(
        &mut self,
        k: &mut Kernel,
        ctx: CompCtx,
        recipe: &DiskRecipe,
    ) -> Result<(), RespawnError> {
        let sel = self.alloc_sel();
        let srv = spawn_disk_server(k, ctx, sel, recipe)?;
        self.disk = Some(DiskServerRef { sel, ctx: srv });
        Ok(())
    }

    /// Takes the live disk server under supervision: arms its watchdog
    /// and keeps `recipe` for the respawns.
    pub fn supervise_disk_server(
        &mut self,
        k: &mut Kernel,
        ctx: CompCtx,
        recipe: DiskRecipe,
        timeout: u64,
    ) -> Result<(), RespawnError> {
        let srv = self
            .disk
            .ok_or(RespawnError::State("no disk server to supervise"))?;
        let (wd_sm_sel, wd_sm) = self.watch(k, ctx, srv.sel, timeout)?;
        self.supervision = Some(DiskSupervision {
            wd_sm_sel,
            wd_sm,
            timeout,
            recipe,
            retry: None,
            failed: false,
            last_error: None,
        });
        Ok(())
    }

    /// Wires VMM slot `slot`'s incarnation at root's `vmm_sel` to the
    /// live disk server: on the slot's first wiring root creates the
    /// VM's completion semaphore and — for a supervised server's
    /// client — its restart semaphore; every time it records the
    /// incarnation, runs [`wire_disk_client`] with the VM's `rings`
    /// and `channels`, and delegates `DOWN` on both semaphores to the
    /// VMM at [`dproto::CLIENT_SEL_DONE`] and
    /// [`dproto::CLIENT_SEL_RESTART`].
    pub fn wire_client(
        &mut self,
        k: &mut Kernel,
        ctx: CompCtx,
        slot: usize,
        vmm_sel: CapSel,
        rings: u64,
        channels: usize,
    ) -> Result<(), RespawnError> {
        let srv = self
            .disk
            .ok_or(RespawnError::State("no disk server to wire to"))?;
        let entry = self.clients.get(slot).copied();
        let c = match entry.ok_or(RespawnError::State("disk client slot out of range"))? {
            Some(held) => SupervisedClient { vmm_sel, ..held },
            None => {
                let done_sm_sel = self.create_sm(k, ctx)?;
                let supervised = self.supervision.is_some();
                let restart_sm_sel = supervised.then(|| self.create_sm(k, ctx)).transpose()?;
                SupervisedClient {
                    vmm_sel,
                    done_sm_sel,
                    restart_sm_sel,
                    rings,
                    channels,
                }
            }
        };
        if let Some(entry) = self.clients.get_mut(slot) {
            *entry = Some(c);
        }
        wire_disk_client(k, ctx, srv, vmm_sel, slot, c.done_sm_sel, rings, channels)?;
        let restart = c.restart_sm_sel.map(|sm| (sm, dproto::CLIENT_SEL_RESTART));
        let downs = [(c.done_sm_sel, dproto::CLIENT_SEL_DONE)]
            .into_iter()
            .chain(restart);
        for (sel, hot) in downs {
            let down = Hypercall::DelegateCap {
                dst_pd: vmm_sel,
                sel,
                perms: Perms::DOWN,
                hot,
            };
            k.hypercall(ctx, down)
                .map_err(RespawnError::step("disk sm grant"))?;
        }
        Ok(())
    }

    /// Detaches VMM slot `slot`'s clients at the live server, so stale
    /// completions never reach a successor's ring. The slot's wiring
    /// stays for the next incarnation.
    pub fn unwire_client(&self, k: &mut Kernel, slot: usize) {
        let Some(srv) = self.disk else { return };
        for c in dproto::slot_clients(slot) {
            k.invoke_component::<DiskServer, _>(srv.ctx.comp, |s, _| s.detach_client(c));
        }
    }

    /// Forgets VMM slot `slot`'s disk wiring: its VM was given up on,
    /// so no respawn of the server rewires or signals the destroyed
    /// VMM. A revive keeps the wiring for the next incarnation.
    pub fn forget_client(&mut self, slot: usize) {
        if let Some(entry) = self.clients.get_mut(slot) {
            *entry = None;
        }
    }

    /// A fresh semaphore of root's, which root keeps `UP` on.
    fn create_sm(&mut self, k: &mut Kernel, ctx: CompCtx) -> Result<CapSel, RespawnError> {
        let dst = self.alloc_sel();
        k.hypercall(ctx, Hypercall::CreateSm { count: 0, dst })
            .map_err(RespawnError::step("disk sm"))?;
        Ok(dst)
    }

    /// Takes the running VMM `recipe` names under supervision:
    /// watchdog, checkpoint-cadence and revive-retry channels, the
    /// cadence timer armed, the black box recording. Returns the VM's
    /// slot.
    pub fn supervise_vm(
        &mut self,
        k: &mut Kernel,
        ctx: CompCtx,
        recipe: Box<dyn VmRecipe>,
        timeout: u64,
        ckpt_period: u64,
    ) -> Result<usize, RespawnError> {
        let (wd_sm_sel, wd_sm) = self.watch(k, ctx, recipe.vmm().0, timeout)?;
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
        let slot = self.vmm_supervision.len();
        let sup = VmmSupervision {
            slot,
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
            failed: false,
            crash_at: 0,
            last_restore_at: 0,
        };
        // The black box records from the first incarnation's first
        // event; a revive re-keys it to each successor domain.
        k.machine
            .bus
            .trace
            .enable_flight(sup.vmm_pd(), FLIGHT_CAPACITY);
        self.vmm_supervision.push(Some(sup));
        Ok(slot)
    }

    /// Tears down the (dead or wedged) disk server and brings up a
    /// fresh incarnation. A failed recipe step does not panic root: it
    /// schedules a bounded exponential-backoff retry, and when the
    /// attempt budget runs out the service is marked failed — degraded,
    /// not fatal, because every VM keeps running on its own timeouts.
    fn restart_disk_server(&mut self, k: &mut Kernel, ctx: CompCtx) {
        let Some(mut sup) = self.supervision.take() else {
            return;
        };
        if !sup.failed {
            // Disarm before attempting, so a success does not leave a
            // stray signal behind.
            if let Some(r) = &sup.retry {
                r.disarm(k, ctx);
            }
            match self.respawn_disk_server(k, ctx, &sup) {
                Ok(()) => {
                    if let Some(r) = &mut sup.retry {
                        r.reset();
                    }
                }
                Err(e) => {
                    sup.last_error = Some(e);
                    // Arm a one-shot backoff timer, or mark the service
                    // failed when the budget is exhausted (or there is
                    // no timer channel for the retry loop to run on).
                    if sup.retry.is_none() {
                        sup.retry = self.bound_sm(k, ctx).ok().map(Backoff::new);
                    }
                    let armed = sup.retry.as_mut().is_some_and(|r| {
                        r.attempts += 1;
                        r.attempts < REVIVE_ATTEMPTS && r.arm(k, ctx).is_ok()
                    });
                    sup.failed = !armed;
                }
            }
        }
        self.supervision = Some(sup);
    }

    /// One respawn attempt: `DestroyPd` recursively revokes everything
    /// the previous incarnation held — every client DMA window standing
    /// in the IOMMU, the interrupt and the device assignment included —
    /// then the recipe is replayed into a new PD, every client is
    /// rewired, the watchdog re-armed and each client signalled to
    /// resubmit. The live server moves to the new selector before
    /// anything is built there, so what a failed attempt leaves behind
    /// is what the next attempt destroys first.
    fn respawn_disk_server(
        &mut self,
        k: &mut Kernel,
        ctx: CompCtx,
        sup: &DiskSupervision,
    ) -> Result<(), RespawnError> {
        let srv_sel = self.alloc_sel();
        let Some(srv) = self.disk.as_mut() else {
            return Err(RespawnError::State("no disk server to respawn"));
        };
        // The old PD may already be gone (death notification) — a
        // failed destroy is not an error.
        let _ = k.hypercall(ctx, Hypercall::DestroyPd { pd: srv.sel });
        srv.sel = srv_sel;
        srv.ctx = spawn_disk_server(k, ctx, srv_sel, &sup.recipe)?;
        let srv = *srv;
        for (slot, c) in self.clients.iter().enumerate() {
            let Some(c) = c else { continue };
            let (done, rings) = (c.done_sm_sel, c.rings);
            wire_disk_client(k, ctx, srv, c.vmm_sel, slot, done, rings, c.channels)?;
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
        for c in self.clients.iter().flatten() {
            if let Some(sm) = c.restart_sm_sel {
                let _ = k.hypercall(ctx, Hypercall::SmUp { sm });
            }
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
            sup.vmm_pd(),
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
        sup.recipe.abandon(k, ctx, self);
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
        let reason = Self::death_reason(k, sup.vmm_pd());
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
        let ckpt = match sup.level {
            LEVEL_RESUME => sup.last_checkpoint.as_deref(),
            _ => None,
        };
        let outcome = sup.recipe.revive(k, ctx, self, ckpt).and_then(|()| {
            k.hypercall(
                ctx,
                Hypercall::WatchdogArm {
                    pd: sup.recipe.vmm().0,
                    sm: sup.wd_sm_sel,
                    timeout: sup.timeout,
                },
            )
            .map_err(|e| RespawnError::Step("vmm watchdog re-arm", e))
        });
        match outcome {
            Ok(_) => {
                let now = k.now();
                // Re-key the flight recorder to the new incarnation's
                // domain so its black box starts recording from birth.
                k.machine
                    .bus
                    .trace
                    .enable_flight(sup.vmm_pd(), FLIGHT_CAPACITY);
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
        let disk =
            |s: &DiskSupervision| s.wd_sm == sm || s.retry.as_ref().is_some_and(|r| r.sm == sm);
        if self.supervision.as_ref().is_some_and(disk) {
            self.restart_disk_server(k, ctx);
            return;
        }
        // VM supervision: each slot owns three channels — watchdog,
        // checkpoint cadence, revive-retry backoff.
        type Handler = fn(&mut RootPm, &mut Kernel, CompCtx, usize);
        let hit = self.vmm_supervision.iter().enumerate().find_map(|(i, s)| {
            let s = s.as_ref()?;
            let handler: Handler = match sm {
                _ if sm == s.wd_sm => Self::handle_vmm_death,
                _ if sm == s.ckpt_sm => Self::checkpoint_vm,
                _ if sm == s.retry.sm => Self::retry_vm,
                _ => return None,
            };
            Some((handler, i))
        });
        if let Some((handler, i)) = hit {
            handler(self, k, ctx, i);
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
        let pd = Hypercall::CreatePd {
            name: name.into(),
            vm: None,
            dst,
        };
        self.k
            .hypercall(self.ctx, pd)
            .map_err(RespawnError::step("pd create"))?;
        let pd = PdId((self.k.obj.pds.len() - 1) as u32);
        for &g in grants {
            let (hc, step) = match g {
                Grant::Mem {
                    base,
                    count,
                    rights,
                    hot,
                } => (
                    Hypercall::DelegateMem {
                        dst_pd: dst,
                        base,
                        count,
                        rights,
                        hot,
                    },
                    "mem grant",
                ),
                Grant::Io { base, count } => (
                    Hypercall::DelegateIo {
                        dst_pd: dst,
                        base,
                        count,
                    },
                    "io grant",
                ),
                Grant::Gsi(gsi) => (Hypercall::DelegateGsi { dst_pd: dst, gsi }, "gsi grant"),
                Grant::Dev(device) => (
                    Hypercall::AssignDev { pd: dst, device },
                    "device assignment",
                ),
            };
            self.k
                .hypercall(self.ctx, hc)
                .map_err(RespawnError::step(step))?;
        }
        Ok(pd)
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
