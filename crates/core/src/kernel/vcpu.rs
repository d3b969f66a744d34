//! vCPU state capture for a supervisor checkpoint, and its replay into
//! a respawned VMM's vCPU (DESIGN.md §6e).

use nova_hw::vmx::Injection;
use nova_x86::reg::Regs;

use super::Kernel;
use crate::cap::{CapSel, Perms};
use crate::hypercall::HcErr;
use crate::obj::PdId;

/// The architectural state of one virtual CPU, as captured by
/// [`Kernel::export_vcpu`] for a supervisor checkpoint and replayed by
/// [`Kernel::import_vcpu`] into a fresh vCPU after a VMM microreboot.
///
/// Only *guest-owned* state is here. Host-side VMCS configuration
/// (intercepts, passthrough bitmaps, paging mode, VPID) is policy the
/// respawned VMM re-derives from its own configuration, and the vTLB
/// shadow tables are a cache the kernel rebuilds on demand — neither
/// is captured (DESIGN.md §6e). The record a checkpoint stores it as
/// is the checkpoint format's business (`nova_vmm::checkpoint`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VcpuSnapshot {
    /// Guest architectural registers.
    pub regs: Regs,
    /// Guest was halted (activity state).
    pub halted: bool,
    /// Guest was in the one-instruction STI shadow.
    pub sti_shadow: bool,
    /// Event that was pending injection.
    pub injection: Option<Injection>,
    /// An interrupt-window exit was requested.
    pub intwin_exit: bool,
    /// A recall was pending.
    pub recall_pending: bool,
    /// TSC offset.
    pub tsc_offset: u64,
    /// The EC was blocked in the kernel (parked after HLT or a
    /// `reply_block`).
    pub blocked: bool,
}

impl Kernel {
    /// Exports the architectural state of a virtual CPU for a
    /// supervisor checkpoint. `pd_sel` must be a CTRL-bearing
    /// capability of `caller` to the owning VMM's domain; `vcpu_sel`
    /// names the vCPU inside *that* domain's capability space (where
    /// it must carry EC_CTRL permission). The path deliberately works
    /// on a faulted-but-not-yet-destroyed domain: [`Kernel::pd_fault`]
    /// leaves capabilities in place precisely so the supervisor can
    /// capture state before it issues `DestroyPd`.
    pub fn export_vcpu(
        &self,
        caller: PdId,
        pd_sel: CapSel,
        vcpu_sel: CapSel,
    ) -> Result<VcpuSnapshot, HcErr> {
        let owner = self.lookup_pd(caller, pd_sel, Perms::CTRL)?;
        let ec_id = self.lookup_ec(owner, vcpu_sel, Perms::EC_CTRL)?;
        let ec = self.obj.ec(ec_id);
        let vmcs = ec.vmcs().ok_or(HcErr::BadParam)?;
        Ok(VcpuSnapshot {
            regs: vmcs.guest.clone(),
            halted: vmcs.halted,
            sti_shadow: vmcs.sti_shadow,
            injection: vmcs.injection,
            intwin_exit: vmcs.intwin_exit,
            recall_pending: vmcs.recall_pending,
            tsc_offset: vmcs.tsc_offset,
            blocked: ec.blocked,
        })
    }

    /// Imports a [`VcpuSnapshot`] into a virtual CPU: the restore half
    /// of a VMM microreboot, aimed at the fresh vCPU a respawned VMM
    /// just created. Same capability path as [`Kernel::export_vcpu`].
    /// The vCPU resumes exactly where the checkpoint caught it:
    /// running vCPUs are requeued, parked ones stay blocked until
    /// their VMM resumes them.
    pub fn import_vcpu(
        &mut self,
        caller: PdId,
        pd_sel: CapSel,
        vcpu_sel: CapSel,
        snap: &VcpuSnapshot,
    ) -> Result<(), HcErr> {
        let owner = self.lookup_pd(caller, pd_sel, Perms::CTRL)?;
        let ec_id = self.lookup_ec(owner, vcpu_sel, Perms::EC_CTRL)?;
        let vmcs = self.obj.ec_mut(ec_id).vmcs_mut().ok_or(HcErr::BadParam)?;
        vmcs.guest = snap.regs.clone();
        vmcs.halted = snap.halted;
        vmcs.sti_shadow = snap.sti_shadow;
        vmcs.injection = snap.injection;
        vmcs.intwin_exit = snap.intwin_exit;
        vmcs.recall_pending = snap.recall_pending;
        vmcs.tsc_offset = snap.tsc_offset;
        if snap.regs.paging() {
            // Bind the fresh (empty) shadow to the restored CR3 so the
            // guest's next reload of the same value is a cache hit
            // instead of a spurious rebuild.
            if let Some(cache) = self.shadows.get_mut(&ec_id) {
                cache.rebind_active_tag(snap.regs.cr3);
            }
        }
        if snap.blocked {
            self.obj.ec_mut(ec_id).blocked = true;
        } else {
            self.unblock(ec_id);
        }
        Ok(())
    }
}
