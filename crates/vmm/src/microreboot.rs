//! The VMM's recipe: how root provisions a VMM protection domain — for
//! the first incarnation at boot and for every one after a crash — and
//! how it checkpoints and restores the VM on top.
//!
//! A [`MicrorebootRecipe`] is data: the guest's frames, the
//! [`VmmConfig`] every incarnation runs with, and an ordered list of
//! [`Grant`]s. [`MicrorebootRecipe::provision`] replays it — `CreatePd`,
//! the grants, the component, root's disk wiring of its slot — and is
//! the only such sequence: the launcher calls it for the first
//! incarnation, [`VmRecipe::revive`] calls it for each successor
//! (teardown → provision → start → restore). The recipe is the one
//! holder of the current incarnation ([`VmRecipe::vmm`]); root holds the
//! slot's disk wiring and the live server. A half-built incarnation
//! belongs to the recipe from `CreatePd` on, so a retry starts by
//! destroying it.
//!
//! The crash-only design splits recovery state in two:
//!
//! * **Captured** — guest vCPU register state (exported by the kernel,
//!   so it survives the VMM's death), guest-physical memory (root kept
//!   its identity view of the backing frames), and serialized
//!   virtual-device state ([`Vmm::save_state`]).
//! * **Reconstructed** — everything else: protection domains, ECs,
//!   SCs, portals, semaphores, delegations, IOMMU mappings. The recipe
//!   re-provisions the VMM's domain, the fresh incarnation builds its
//!   VM in `on_start`, and the checkpoint is layered on top.
//!
//! Checkpoints are taken on a periodic cadence from root's timer — a
//! crash-time capture would freeze a half-updated incarnation, so the
//! guest instead resumes from the last consistent snapshot (bounded,
//! guest-transparent rollback). In-flight disk requests are replayed
//! through the PR-3 resubmit protocol after restore, which makes the
//! rollback invisible to storage: requests are idempotent reads/writes
//! against the restored buffer contents.
//!
//! Supported configurations for revive: full-virtualization guests
//! with the served disk paths (vAHCI and/or the PV queue). Direct
//! device assignment and the PV NIC hold hardware ownership (GSI
//! routing, IOMMU domains) that cannot be re-granted after the owner
//! dies, so a recipe carrying those grants boots but refuses to revive.

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::panic)]

use nova_core::cap::{CapSel, Perms};
use nova_core::kernel::{VcpuSnapshot, WindowRuns};
use nova_core::obj::{MemRights, ObjRef, PdId};
use nova_core::{Capability, CompCtx, CompId, EcId, Hypercall, Kernel};
use nova_user::proto::disk as disk_proto;
use nova_user::root::{Grant, RespawnError, RootOps, RootPm, VmRecipe};

use crate::checkpoint::{self, View};
use crate::vmm::{sel, Vmm, VmmConfig, GUEST_BASE_PAGE, PV_RING_PAGE, RING_PAGE};

/// Watchdog deadline for a supervised VMM. The VMM's maintenance
/// timer makes a hypercall at least every million cycles, so a healthy
/// but idle VMM pets well inside this window.
pub const VMM_WATCHDOG_TIMEOUT: u64 = 10_000_000;

/// Default checkpoint cadence in cycles.
pub const DEFAULT_CKPT_PERIOD: u64 = 2_000_000;

/// What the recipe knows about the guest image inside the one
/// checkpoint blob it last wrote or restored. The blob itself stays
/// with root; a blob that is not that one — swapped, or any blob before
/// the recipe's first — is recaptured, or restored, in full, and where
/// there is no image to update (none yet, dropped by a cold reboot, cut
/// short) the capture starts from zeros and copies what was written.
#[derive(Default)]
pub(crate) struct CapturedImage {
    /// Write generation of each guest frame when it last equalled its
    /// page of the image — copied out by a capture or written back by a
    /// restore ([`NEVER`] if it has not).
    seen: Vec<u64>,
    /// Root's window onto guest RAM, cut into runs of frames by the
    /// kernel's sweeps and kept for the next.
    runs: WindowRuns,
    /// Sequence number and length of the blob `seen` describes.
    blob: Option<(u64, usize)>,
}

/// A generation no frame is at: the page is copied whatever it holds.
const NEVER: u64 = u64::MAX;

impl CapturedImage {
    /// The generation table and the window's runs to sync a blob of
    /// `len` bytes with guest RAM of `pages` pages in either direction.
    /// `held` is the sequence number of the blob's image if it holds
    /// one of that size: the table is kept if the blob is the one it
    /// describes, otherwise reset: to [`NEVER`], as a foreign image
    /// could hold anything, or to 0 for a blob holding no image, which
    /// `checkpoint::refresh` replaces by zeros — as every frame still
    /// at write generation 0 is (`Kernel::mem_refresh`), so the first
    /// capture copies the frames somebody wrote, not all of guest RAM.
    fn table_for(
        &mut self,
        held: Option<u64>,
        len: usize,
        pages: usize,
    ) -> (&mut WindowRuns, &mut [u64]) {
        if held.is_none_or(|seq| self.blob != Some((seq, len))) {
            self.seen.clear();
            self.seen.resize(pages, held.map_or(0, |_| NEVER));
        }
        (&mut self.runs, &mut self.seen)
    }
}

/// The recipe for one VM's VMM: everything root needs to build an
/// incarnation, to capture the VM's state and to rebuild it from
/// scratch.
pub struct MicrorebootRecipe {
    /// Current VMM component id (set by every [`Self::provision`]).
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
    /// What root delegates to the VMM PD, in order: guest RAM, the two
    /// completion rings, the exit ports and the VGA window, then any
    /// hardware the launcher assigned.
    pub grants: Vec<Grant>,
    /// This VMM's slot at the disk server, when storage is attached:
    /// its clients are `proto::disk::slot_clients(disk_slot)`, and root
    /// holds its wiring at `RootPm::clients[disk_slot]`.
    pub disk_slot: Option<usize>,
    /// Bookkeeping for the in-place checkpoint refresh; starts empty.
    pub(crate) image: CapturedImage,
    /// The vCPU records of the last capture, and its device state:
    /// buffers every capture refills, so a tick allocates nothing.
    vcpus: Vec<VcpuSnapshot>,
    vmm_state: Vec<u8>,
}

impl MicrorebootRecipe {
    /// The recipe for a VM whose RAM is root's frames from `frames`,
    /// with the grants every VMM gets. `disk_slot` makes it a client of
    /// the disk server (at the protocol's well-known selectors, so a
    /// restarted server re-delegates to the same slots). Nothing exists
    /// yet: [`Self::provision`] builds the first incarnation.
    ///
    /// # Panics
    ///
    /// A disk client whose guest RAM reaches its completion ring in the
    /// disk-server window ([`disk_proto::WINDOW_PAGES`]), or whose slot
    /// has no clients at the server ([`disk_proto::MAX_CLIENTS`]), is a
    /// configuration error.
    pub fn new(frames: u64, mut cfg: VmmConfig, disk_slot: Option<usize>) -> MicrorebootRecipe {
        if let Some(slot) = disk_slot {
            assert!(
                cfg.guest_pages < disk_proto::WINDOW_PAGES,
                "guest RAM exceeds the disk-server window"
            );
            assert!(
                disk_proto::slot_clients(slot).end <= disk_proto::MAX_CLIENTS,
                "disk-server slot {slot} out of range"
            );
        }
        let vga = nova_hw::vga::VGA_BASE / 4096;
        let page = |base, hot| Grant::Mem {
            base,
            count: 1,
            rights: MemRights::RW,
            hot,
        };
        let grants = vec![
            Grant::Mem {
                base: frames,
                count: cfg.guest_pages,
                rights: MemRights::RW_DMA,
                hot: GUEST_BASE_PAGE,
            },
            // Completion-ring pages: one for the vAHCI path, one for
            // the PV batched queue (a second disk-server client).
            page(frames + cfg.guest_pages, RING_PAGE),
            page(frames + cfg.guest_pages + 1, PV_RING_PAGE),
            // Debug/mark ports so the guest's shutdown stops the world.
            Grant::Io {
                base: crate::devices::PORT_EXIT,
                count: 2,
            },
            // VGA window, direct-mapped into the guest by the VMM.
            page(vga, vga),
        ];
        cfg.direct_mmio.push((vga, vga, 1));
        cfg.disk = disk_slot.is_some();
        let image = CapturedImage {
            runs: WindowRuns::for_pages(cfg.guest_pages as usize),
            ..CapturedImage::default()
        };
        MicrorebootRecipe {
            vmm: CompId(u16::MAX),
            vmm_sel: 0,
            vmm_pd: PdId(u32::MAX),
            frames,
            cfg,
            grants,
            disk_slot,
            image,
            vcpus: Vec::new(),
            vmm_state: Vec::new(),
        }
    }

    /// Builds one incarnation, up to but not including its start:
    /// `CreatePd`, the grants, the VMM component and root's wiring of
    /// its disk slot ([`RootPm::wire_client`]: the semaphores its
    /// `on_start` binds, at their well-known selectors). The recipe
    /// points at the new incarnation as soon as any of it can exist, so
    /// a retry after a failed step tears the half-built one down
    /// instead of leaking it. Returns the EC to start.
    pub fn provision(
        &mut self,
        k: &mut Kernel,
        ctx: CompCtx,
        root: &mut RootPm,
    ) -> Result<EcId, RespawnError> {
        // A supervised server's clients start over after its restarts.
        self.cfg.supervised_disk = self.disk_slot.is_some() && root.supervision.is_some();
        self.vmm_sel = root.alloc_sel();
        self.vmm_pd = RootOps::new(k, ctx).provision("vmm", self.vmm_sel, &self.grants)?;
        let (comp, ec) = k.load_component(self.vmm_pd, 0, Box::new(Vmm::new(self.cfg.clone())));
        self.vmm = comp;
        if let Some(slot) = self.disk_slot {
            let (rings, channels) = self.disk_channels();
            root.wire_client(k, ctx, slot, self.vmm_sel, rings, channels)?;
        }
        Ok(ec)
    }

    /// Root's page of the VM's first completion ring (the PV queue's
    /// follows it) and how many disk channels the VMM has.
    fn disk_channels(&self) -> (u64, usize) {
        let rings = self.frames + self.cfg.guest_pages;
        (rings, 1 + self.cfg.pv_disk as usize)
    }

    /// Destroys whatever is left of the current incarnation — the VM
    /// protection domain first (root manufactures a control capability
    /// for it, boot-equivalent wiring since root owns everything),
    /// then the VMM PD — and detaches its slot's disk clients so stale
    /// completions can never reach a successor's ring.
    fn teardown_dead(&mut self, k: &mut Kernel, ctx: CompCtx, root: &mut RootPm) {
        if let Some(slot) = self.disk_slot {
            root.unwire_client(k, slot);
        }
        let vm_pd = match k.obj.pd(self.vmm_pd).caps.get(sel::VM_PD).map(|c| c.obj) {
            Some(ObjRef::Pd(p)) => Some(p),
            _ => None,
        };
        if let Some(vm_pd) = vm_pd {
            let s = root.alloc_sel();
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
    fn vmm(&self) -> (CapSel, PdId) {
        (self.vmm_sel, self.vmm_pd)
    }

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
    ) -> Result<u64, RespawnError> {
        // Everything that can fail runs before `blob` is touched.
        self.vcpus.clear();
        for i in 0..self.cfg.vcpus {
            let snap = k
                .export_vcpu(ctx.pd, self.vmm_sel, sel::vcpu(i))
                .map_err(|e| RespawnError::Step("vcpu export", e))?;
            self.vcpus.push(snap);
        }
        k.component_mut::<Vmm>(self.vmm)
            .ok_or(RespawnError::State("vmm component missing"))?
            .save_state(&mut self.vmm_state);
        let (pages, len) = (self.cfg.guest_pages as usize, blob.len());
        let (window, captured) = (self.frames * 4096, &mut self.image);
        let (vcpus, vmm_state) = (&self.vcpus, &self.vmm_state);
        let copied = checkpoint::refresh(blob, seq, pages * 4096, vcpus, vmm_state, |image| {
            let (runs, seen) = captured.table_for(image.held(), len, pages);
            k.mem_refresh(ctx, window, runs, seen, |i, bytes| image.put(i, bytes))
        })
        .ok_or(RespawnError::State("guest memory window unreadable"))?;
        self.image.blob = Some((seq, blob.len()));
        Ok(copied as u64)
    }

    /// Tears down the dead incarnation, provisions a fresh one from the
    /// same recipe the first was built from, and layers the checkpoint
    /// (or a cold boot) on top. Idempotent: whatever a failed attempt
    /// built, the retry's teardown destroys.
    fn revive(
        &mut self,
        k: &mut Kernel,
        ctx: CompCtx,
        root: &mut RootPm,
        checkpoint: Option<&[u8]>,
    ) -> Result<(), RespawnError> {
        if self.cfg.pv_nic || !self.cfg.direct_gsis.is_empty() {
            return Err(RespawnError::State(
                "direct-hardware configurations cannot microreboot",
            ));
        }
        // A revive cannot complete against a dead disk server: it would
        // wire the fresh VMM to portals nobody serves. Fail the attempt
        // cleanly instead; the backoff retry fires after the server's
        // own supervisor has respawned it.
        if let (Some(_), Some(srv)) = (self.disk_slot, root.disk_server()) {
            if k.obj.ec(srv.ctx.ec).blocked {
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
                if ck.mem_len as u64 != self.cfg.guest_pages * 4096 {
                    return Err(RespawnError::State("checkpoint guest memory size mismatch"));
                }
                Some(ck)
            }
            None => None,
        };

        self.teardown_dead(k, ctx, root);
        let ec = self.provision(k, ctx, root)?;

        // Cold boot starts from cleared RAM (and clean rings) so every
        // incarnation of the same image is byte-identical; a restore
        // overwrites memory from the checkpoint below instead.
        if parsed.is_none() {
            let len = ((self.cfg.guest_pages + 2) * 4096) as usize;
            if !k.mem_fill(ctx, self.frames * 4096, len, 0) {
                return Err(RespawnError::State("guest memory window unwritable"));
            }
        }

        // The fresh incarnation builds its VM, vCPUs and channels in
        // `on_start`. Nothing executes until root's signal handler
        // returns, so the restore below can never race guest
        // execution.
        k.start_component(self.vmm, ec);

        if let Some((ck, blob)) = parsed.zip(checkpoint) {
            // Guest memory first: the device resubmit protocol reads
            // request buffers out of the restored image. Only the
            // frames written since they last equalled `blob`'s image
            // are written back; a page the image does not store is
            // zeros.
            let pages = self.cfg.guest_pages as usize;
            let (runs, seen) = self.image.table_for(Some(ck.seq), blob.len(), pages);
            k.mem_restore(ctx, self.frames * 4096, runs, seen, |i| ck.page(i))
                .ok_or(RespawnError::State("guest memory restore failed"))?;
            self.image.blob = Some((ck.seq, blob.len()));
            for (i, snap) in ck.vcpus.iter().enumerate() {
                k.import_vcpu(ctx.pd, self.vmm_sel, sel::vcpu(i), snap)
                    .map_err(RespawnError::step("vcpu import"))?;
            }
            let ok = k
                .invoke_component::<Vmm, _>(self.vmm, |v, k| v.restore_state(k, ck.vmm_state))
                .unwrap_or(false);
            if !ok {
                return Err(RespawnError::State("vmm device-state restore failed"));
            }
        }
        Ok(())
    }

    fn abandon(&mut self, k: &mut Kernel, ctx: CompCtx, root: &mut RootPm) {
        self.teardown_dead(k, ctx, root);
        if let Some(slot) = self.disk_slot {
            root.forget_client(slot);
        }
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GuestImage;

    /// A guest that reaches the ring page of a disk-server window boots
    /// without storage and is refused as a disk client; one that stops
    /// below it is not.
    #[test]
    #[should_panic(expected = "guest RAM exceeds the disk-server window")]
    fn a_disk_client_larger_than_its_window_is_a_configuration_error() {
        let image = GuestImage {
            bytes: vec![0xf4],
            load_gpa: 0,
            entry: 0,
            stack: 0,
        };
        let cfg = |pages| VmmConfig::full_virt(image.clone(), pages);
        let max = disk_proto::RING_WINDOW_PAGE;
        MicrorebootRecipe::new(0x1000, cfg(max), Some(0));
        MicrorebootRecipe::new(0x1000, cfg(max + 1), None);
        MicrorebootRecipe::new(0x1000, cfg(max + 1), Some(0));
    }

    /// Slot 7 is the last with two clients at the server; slot 8 is a
    /// configuration error, as an oversized guest is.
    #[test]
    #[should_panic(expected = "disk-server slot 8 out of range")]
    fn a_disk_slot_past_the_servers_clients_is_a_configuration_error() {
        let image = GuestImage {
            bytes: vec![0xf4],
            load_gpa: 0,
            entry: 0,
            stack: 0,
        };
        let cfg = VmmConfig::full_virt(image, 1024);
        MicrorebootRecipe::new(0x1000, cfg.clone(), Some(7));
        MicrorebootRecipe::new(0x1000, cfg, Some(8));
    }
}
