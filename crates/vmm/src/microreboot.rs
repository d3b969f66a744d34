//! VMM microreboot: the recipe root uses to checkpoint a running VM
//! and rebuild it after its VMM dies.
//!
//! The crash-only design splits recovery state in two:
//!
//! * **Captured** — guest vCPU register state (exported by the kernel,
//!   so it survives the VMM's death), guest-physical memory (root kept
//!   its identity view of the backing frames), and serialized
//!   virtual-device state ([`Vmm::save_state`]).
//! * **Reconstructed** — everything else: protection domains, ECs,
//!   SCs, portals, semaphores, delegations, IOMMU mappings. A fresh
//!   VMM incarnation re-provisions all of it in `on_start`, exactly as
//!   at boot, and the checkpoint is layered on top.
//!
//! Checkpoints are taken on a periodic cadence from root's timer — a
//! crash-time capture would freeze a half-updated incarnation, so the
//! guest instead resumes from the last consistent snapshot (bounded,
//! guest-transparent rollback). In-flight disk requests are replayed
//! through the PR-3 resubmit protocol after restore, which makes the
//! rollback invisible to storage: requests are idempotent reads/writes
//! against the restored buffer contents.
//!
//! Supported configurations: full-virtualization guests with the
//! served disk paths (vAHCI and/or the PV queue). Direct device
//! assignment and the PV NIC hold hardware ownership (GSI routing,
//! IOMMU domains) that cannot be re-granted after the owner dies, so
//! those configurations refuse supervision up front.

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::panic)]

use nova_core::cap::{CapSel, Perms};
use nova_core::kernel::SEL_SELF_EC;
use nova_core::obj::{MemRights, ObjRef, PdId};
use nova_core::{Capability, CompCtx, CompId, HcErr, Hypercall, Kernel};
use nova_user::disk::DiskServer;
use nova_user::root::{
    wire_disk_client, RespawnError, RootPm, VmRecipe, VmmSupervision, FLIGHT_CAPACITY,
    LEVEL_RESUME, RETRY_BACKOFF,
};

use crate::checkpoint::{self, View};
use crate::vmm::{sel, Vmm, VmmConfig, SEL_RESTART_SM};

/// Watchdog deadline for a supervised VMM. The VMM's maintenance
/// timer makes a hypercall at least every million cycles, so a healthy
/// but idle VMM pets well inside this window.
pub const VMM_WATCHDOG_TIMEOUT: u64 = 10_000_000;

/// Default checkpoint cadence in cycles.
pub const DEFAULT_CKPT_PERIOD: u64 = 2_000_000;

/// Disk-server wiring the recipe replays for every incarnation.
#[derive(Clone, Copy)]
pub struct DiskWiring {
    /// Root's capability selector for the disk-server PD.
    pub srv_sel: CapSel,
    /// The disk server's identity (for server-side delegations).
    pub srv_ctx: CompCtx,
    /// This VM's index in `DiskSupervision::clients` — also the
    /// server-side PD-capability slot (`0x30 + client_slot`).
    pub client_slot: usize,
    /// Root's selector for the restart-notification semaphore, reused
    /// across incarnations so disk-server restarts keep reaching the
    /// live VMM.
    pub restart_sel: CapSel,
}

/// What the recipe knows about the guest image inside the one
/// checkpoint blob it last wrote. The blob itself stays with root; a
/// blob that is not that one — none yet, dropped by a cold reboot,
/// swapped or cut short — is recaptured in full.
#[derive(Default)]
pub(crate) struct CapturedImage {
    /// Write generation of each guest frame when its page of the image
    /// was copied (`u64::MAX`: never).
    seen: Vec<u64>,
    /// Sequence number and length of the blob `seen` describes.
    blob: Option<(u64, usize)>,
}

/// The microreboot recipe for one VM: everything root needs to capture
/// its state and to rebuild the VMM from scratch.
pub struct MicrorebootRecipe {
    /// The root partition manager component.
    pub root: CompId,
    /// Current VMM component id (refreshed on every revive).
    pub vmm: CompId,
    /// Root's capability selector for the current VMM PD.
    pub vmm_sel: CapSel,
    /// The current VMM's protection domain.
    pub vmm_pd: PdId,
    /// First physical frame page of the guest's RAM (root identity
    /// view); the two completion-ring frames follow the guest pages.
    pub frames: u64,
    /// The VMM configuration used for every incarnation.
    pub cfg: VmmConfig,
    /// Disk-server wiring, when storage is attached.
    pub disk: Option<DiskWiring>,
    /// Private selector range in root's space. Root's own allocator is
    /// unreachable while root executes (its component is checked out),
    /// so the recipe brings its own disjoint range.
    pub next_sel: CapSel,
    /// Bookkeeping for the in-place checkpoint refresh; starts empty.
    pub(crate) image: CapturedImage,
}

impl MicrorebootRecipe {
    fn alloc_sel(&mut self) -> CapSel {
        let s = self.next_sel;
        self.next_sel += 1;
        s
    }

    /// Destroys whatever is left of the current incarnation — the VM
    /// protection domain first (root manufactures a control capability
    /// for it, boot-equivalent wiring since root owns everything),
    /// then the VMM PD — and detaches its disk channels so stale
    /// completions can never reach a successor's ring.
    fn teardown_dead(&mut self, k: &mut Kernel, ctx: CompCtx) {
        let dead_clients = k
            .component_mut::<Vmm>(self.vmm)
            .map(|v| v.disk_client_ids())
            .unwrap_or_default();
        if let Some(w) = self.disk {
            for id in dead_clients {
                k.invoke_component::<DiskServer, _>(w.srv_ctx.comp, |s, _k| s.detach_client(id));
            }
        }
        let vm_pd = match k.obj.pd(self.vmm_pd).caps.get(sel::VM_PD).map(|c| c.obj) {
            Some(ObjRef::Pd(p)) => Some(p),
            _ => None,
        };
        if let Some(vm_pd) = vm_pd {
            let s = self.alloc_sel();
            k.obj.pd_mut(k.root_pd).caps.set(
                s,
                Capability {
                    obj: ObjRef::Pd(vm_pd),
                    perms: Perms::CTRL,
                },
            );
            let _ = k.hypercall(ctx, Hypercall::DestroyPd { pd: s });
        }
        let _ = k.hypercall(ctx, Hypercall::DestroyPd { pd: self.vmm_sel });
    }
}

impl VmRecipe for MicrorebootRecipe {
    /// Captures vCPU state through the kernel's export path, device
    /// and ring bookkeeping through [`Vmm::save_state`], and guest
    /// memory through root's identity view of the backing frames —
    /// into `blob`, in place: only the pages whose frame was written
    /// since `blob` was last brought up to date are copied. The
    /// serialization is deterministic: identical machine state yields
    /// byte-identical checkpoints, whatever `blob` held before.
    fn checkpoint(
        &mut self,
        k: &mut Kernel,
        ctx: CompCtx,
        seq: u64,
        blob: &mut Vec<u8>,
    ) -> Result<(), RespawnError> {
        // Everything that can fail runs before `blob` is touched.
        let mut vcpus = Vec::with_capacity(self.cfg.vcpus);
        for i in 0..self.cfg.vcpus {
            let snap = k
                .export_vcpu(ctx.pd, self.vmm_sel, sel::vcpu(i))
                .map_err(|e| RespawnError::Step("vcpu export", e))?;
            vcpus.push(snap);
        }
        let vmm_state = k
            .component_mut::<Vmm>(self.vmm)
            .ok_or(RespawnError::State("vmm component missing"))?
            .save_state();
        let pages = self.cfg.guest_pages as usize;
        let mem_len = pages * 4096;
        let ours = self.image.blob.is_some_and(|(seq, len)| {
            len == blob.len() && checkpoint::image_header(blob) == Some((seq, mem_len))
        });
        if !ours {
            self.image.seen.clear();
            self.image.seen.resize(pages, u64::MAX);
        }
        let (window, seen) = (self.frames * 4096, &mut self.image.seen);
        let copied = checkpoint::refresh(blob, seq, mem_len, &vcpus, &vmm_state, |image| {
            k.mem_refresh(ctx, window, image, seen)
        })
        .ok_or(RespawnError::State("guest memory window unreadable"))?;
        self.image.blob = Some((seq, blob.len()));
        k.counters.checkpoint_pages_copied += copied as u64;
        Ok(())
    }

    /// Tears down the dead incarnation, provisions a fresh VMM with the
    /// same grants the launcher made at boot, and layers the checkpoint
    /// (or a cold boot) on top. Idempotent: the recipe re-points at the
    /// new incarnation as soon as it exists, so a retry after a partial
    /// failure tears the half-built one down and starts over.
    fn revive(
        &mut self,
        k: &mut Kernel,
        ctx: CompCtx,
        checkpoint: Option<&[u8]>,
    ) -> Result<CapSel, RespawnError> {
        let step = |name: &'static str| move |e: HcErr| RespawnError::Step(name, e);
        if self.cfg.pv_nic || self.cfg.exitless_direct || !self.cfg.direct_gsis.is_empty() {
            return Err(RespawnError::State(
                "direct-hardware configurations cannot microreboot",
            ));
        }
        // A revive cannot complete against a dead disk server: the
        // fresh VMM's boot-time registration would fail on a blocked
        // portal. Fail the attempt cleanly instead; the backoff retry
        // fires after the server's own supervisor has respawned it
        // (root rewires this recipe to the new server first).
        if let Some(w) = self.disk {
            if k.obj.ec(w.srv_ctx.ec).blocked {
                return Err(RespawnError::State("disk server dead; deferring revive"));
            }
        }
        // Parse before destroying anything: a corrupt checkpoint must
        // not cost us the current (possibly still debuggable) wreck.
        let parsed = match checkpoint {
            Some(bytes) => {
                let ck = View::parse(bytes).ok_or(RespawnError::State("corrupt checkpoint"))?;
                if ck.vcpus.len() != self.cfg.vcpus {
                    return Err(RespawnError::State("checkpoint vcpu count mismatch"));
                }
                if ck.guest_mem.len() as u64 != self.cfg.guest_pages * 4096 {
                    return Err(RespawnError::State("checkpoint guest memory size mismatch"));
                }
                Some(ck)
            }
            None => None,
        };

        self.teardown_dead(k, ctx);

        // ---- Fresh VMM PD with the boot-time grants ----
        let vmm_sel = self.alloc_sel();
        k.hypercall(
            ctx,
            Hypercall::CreatePd {
                name: "vmm".into(),
                vm: None,
                dst: vmm_sel,
            },
        )
        .map_err(step("vmm pd"))?;
        let vmm_pd = PdId(k.obj.pds.len() - 1);
        // Re-point at the new incarnation immediately: if a later step
        // fails, the retry tears this half-built PD down instead of
        // leaking it.
        self.vmm_sel = vmm_sel;
        self.vmm_pd = vmm_pd;

        k.hypercall(
            ctx,
            Hypercall::DelegateMem {
                dst_pd: vmm_sel,
                base: self.frames,
                count: self.cfg.guest_pages,
                rights: MemRights::RW_DMA,
                hot: self.cfg.guest_base_page,
            },
        )
        .map_err(step("guest ram grant"))?;
        k.hypercall(
            ctx,
            Hypercall::DelegateMem {
                dst_pd: vmm_sel,
                base: self.frames + self.cfg.guest_pages,
                count: 1,
                rights: MemRights::RW,
                hot: self.cfg.ring_page,
            },
        )
        .map_err(step("ring grant"))?;
        k.hypercall(
            ctx,
            Hypercall::DelegateMem {
                dst_pd: vmm_sel,
                base: self.frames + self.cfg.guest_pages + 1,
                count: 1,
                rights: MemRights::RW,
                hot: self.cfg.pv_ring_page,
            },
        )
        .map_err(step("pv ring grant"))?;
        k.hypercall(
            ctx,
            Hypercall::DelegateIo {
                dst_pd: vmm_sel,
                base: crate::devices::PORT_EXIT,
                count: 2,
            },
        )
        .map_err(step("exit port grant"))?;
        // VGA window (already listed in cfg.direct_mmio since boot).
        k.hypercall(
            ctx,
            Hypercall::DelegateMem {
                dst_pd: vmm_sel,
                base: nova_hw::vga::VGA_BASE / 4096,
                count: 1,
                rights: MemRights::RW,
                hot: nova_hw::vga::VGA_BASE / 4096,
            },
        )
        .map_err(step("vga grant"))?;

        // Cold boot starts from cleared RAM (and clean rings) so every
        // incarnation of the same image is byte-identical; a restore
        // overwrites memory from the checkpoint below instead.
        if parsed.is_none() {
            let len = ((self.cfg.guest_pages + 2) * 4096) as usize;
            if !k.mem_fill(ctx, self.frames * 4096, len, 0) {
                return Err(RespawnError::State("guest memory window unwritable"));
            }
        }

        let (comp, ec) = k.load_component(vmm_pd, 0, Box::new(Vmm::new(self.cfg.clone())));
        self.vmm = comp;

        // ---- Disk wiring (server-side delegations, restart channel) ----
        if let Some(w) = self.disk {
            wire_disk_client(k, ctx, w.srv_sel, w.srv_ctx, vmm_sel, w.client_slot)?;
            k.hypercall(
                ctx,
                Hypercall::DelegateCap {
                    dst_pd: vmm_sel,
                    sel: w.restart_sel,
                    perms: Perms::DOWN,
                    hot: SEL_RESTART_SM,
                },
            )
            .map_err(step("restart sm grant"))?;
        }

        // The fresh incarnation provisions its VM, vCPUs and channels
        // exactly as at boot. Nothing executes until root's signal
        // handler returns, so the restore below can never race guest
        // execution.
        k.start_component(comp, ec);

        if let Some(ck) = parsed {
            // Guest memory first: the device resubmit protocol reads
            // request buffers out of the restored image.
            if !k.mem_write(ctx, self.frames * 4096, ck.guest_mem) {
                return Err(RespawnError::State("guest memory restore failed"));
            }
            for (i, snap) in ck.vcpus.iter().enumerate() {
                k.import_vcpu(ctx.pd, vmm_sel, sel::vcpu(i), snap)
                    .map_err(step("vcpu import"))?;
            }
            let ok = k
                .invoke_component::<Vmm, _>(comp, |v, k| v.restore_state(k, ck.vmm_state))
                .unwrap_or(false);
            if !ok {
                return Err(RespawnError::State("vmm device-state restore failed"));
            }
        }
        Ok(vmm_sel)
    }

    fn abandon(&mut self, k: &mut Kernel, ctx: CompCtx) {
        self.teardown_dead(k, ctx);
    }

    fn rewire_disk(&mut self, srv_sel: CapSel, srv_ctx: CompCtx) {
        if let Some(w) = self.disk.as_mut() {
            w.srv_sel = srv_sel;
            w.srv_ctx = srv_ctx;
        }
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Wires a VM into root's supervision tree: creates the watchdog,
/// checkpoint-cadence and revive-retry channels, arms the watchdog and
/// the cadence timer, and registers the recipe with the root partition
/// manager. Called at launch time, while root is not executing.
pub fn install(
    k: &mut Kernel,
    root: CompId,
    root_ctx: CompCtx,
    recipe: MicrorebootRecipe,
    timeout: u64,
    ckpt_period: u64,
) -> Result<usize, RespawnError> {
    let step = |name: &'static str| move |e: HcErr| RespawnError::Step(name, e);
    let vmm_sel = recipe.vmm_sel;
    let vmm_pd = recipe.vmm_pd.0 as u16;
    let disk_client_slot = recipe.disk.as_ref().map(|w| w.client_slot);
    let (need_sc, sc_sel, wd_sel, ckpt_sel, retry_sel) = {
        let rp = k
            .component_mut::<RootPm>(root)
            .ok_or(RespawnError::State("root component missing"))?;
        // Root needs an SC of its own so supervision signals schedule
        // it; disk supervision or an earlier install may already have
        // created one.
        let need_sc = rp.supervision.is_none() && rp.vmm_supervision.is_empty();
        (
            need_sc,
            rp.alloc_sel(),
            rp.alloc_sel(),
            rp.alloc_sel(),
            rp.alloc_sel(),
        )
    };
    if need_sc {
        k.hypercall(
            root_ctx,
            Hypercall::CreateSc {
                ec: SEL_SELF_EC,
                prio: 48,
                quantum: 100_000,
                dst: sc_sel,
            },
        )
        .map_err(step("supervisor sc"))?;
    }
    let mut sms = [nova_core::SmId(0); 3];
    for (slot, sel) in sms.iter_mut().zip([wd_sel, ckpt_sel, retry_sel]) {
        k.hypercall(root_ctx, Hypercall::CreateSm { count: 0, dst: sel })
            .map_err(step("supervision sm"))?;
        *slot = nova_core::SmId(k.obj.sms.len() - 1);
        k.hypercall(root_ctx, Hypercall::SmBind { sm: sel })
            .map_err(step("supervision sm bind"))?;
    }
    let [wd_sm, ckpt_sm, retry_sm] = sms;
    k.hypercall(
        root_ctx,
        Hypercall::WatchdogArm {
            pd: vmm_sel,
            sm: wd_sel,
            timeout,
        },
    )
    .map_err(step("vmm watchdog arm"))?;
    k.hypercall(
        root_ctx,
        Hypercall::SetTimer {
            sm: ckpt_sel,
            period: ckpt_period,
        },
    )
    .map_err(step("checkpoint cadence timer"))?;

    // The black box records from the first incarnation's first event;
    // root re-keys it to each successor domain on revive.
    k.machine.bus.trace.enable_flight(vmm_pd, FLIGHT_CAPACITY);

    let sup = VmmSupervision {
        slot: 0,
        vmm_sel,
        vmm_pd,
        wd_sm_sel: wd_sel,
        wd_sm,
        ckpt_sm_sel: ckpt_sel,
        ckpt_sm,
        retry_sm_sel: retry_sel,
        retry_sm,
        timeout,
        ckpt_period,
        recipe: Box::new(recipe),
        last_checkpoint: None,
        seq: 0,
        level: LEVEL_RESUME,
        attempts: 0,
        backoff: RETRY_BACKOFF,
        restarts: 0,
        escalations: 0,
        reviving: false,
        disk_client_slot,
        failed: false,
        crash_at: 0,
        last_restore_at: 0,
    };
    let rp = k
        .component_mut::<RootPm>(root)
        .ok_or(RespawnError::State("root component missing"))?;
    Ok(rp.install_vm_supervision(sup))
}
