//! The capability-based hypercall interface (Section 5).
//!
//! Every operation names its objects through capability selectors in
//! the calling protection domain's capability space; the kernel checks
//! the required permission bits before acting. Virtual machines hold
//! no hypercall capabilities at all — their only channel is the
//! VM-exit portal IPC (Section 4.2).
//!
//! Arguments arrive from untrusted components: every variant's fields
//! are range-checked by the kernel before use, and violations come
//! back as a typed [`HcErr`] — including [`HcErr::QuotaExceeded`]
//! when a domain tries to exhaust kernel object memory. The module is
//! lint-gated panic-free.

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::panic)]

use nova_hw::vmx::Injection;
use nova_hw::Cycles;
use nova_x86::reg::Regs;

use crate::cap::{CapSel, Perms};
use crate::obj::{MemRights, VmPaging};

/// A hypercall request.
#[derive(Clone, Debug)]
pub enum Hypercall {
    /// Creates a protection domain; installs a CTRL+DELEGATE
    /// capability at `dst` in the caller's space. `vm` makes it a VM
    /// domain with the given paging virtualization.
    CreatePd {
        /// Diagnostic name.
        name: String,
        /// VM paging configuration; `None` for an ordinary domain.
        vm: Option<VmPaging>,
        /// Destination selector for the new capability.
        dst: CapSel,
    },
    /// Destroys a protection domain (requires CTRL): recursively
    /// revokes every resource delegated from it, tears down its
    /// hardware page tables and IOMMU domains, and removes its
    /// execution contexts from scheduling. The creator's destroy
    /// authority of Section 6.
    DestroyPd {
        /// The domain to destroy.
        pd: CapSel,
    },
    /// Creates an execution context inside a PD (requires CTRL on the
    /// PD capability).
    CreateEc {
        /// The owning PD.
        pd: CapSel,
        /// `true` to create a virtual CPU (only in VM domains).
        vcpu: bool,
        /// Physical CPU binding.
        cpu: usize,
        /// Destination selector.
        dst: CapSel,
    },
    /// Creates a scheduling context attached to an EC.
    CreateSc {
        /// The EC to attach to (requires EC_CTRL).
        ec: CapSel,
        /// Priority (higher wins).
        prio: u8,
        /// Time quantum in cycles.
        quantum: Cycles,
        /// Destination selector.
        dst: CapSel,
    },
    /// Creates a portal whose handler is a thread EC of the caller's
    /// domain.
    CreatePt {
        /// Handler EC (requires EC_CTRL).
        ec: CapSel,
        /// Message transfer descriptor for VM-exit messages.
        mtd: u32,
        /// Opaque id passed to the handler.
        id: u64,
        /// Destination selector.
        dst: CapSel,
    },
    /// Sets a portal's memory receive window — the pages of the
    /// handler's space a typed item sent through the portal may land
    /// in: item page `hot` at `base + hot`, and every page of the item
    /// below `base + count`. Only the domain of the portal's handler
    /// may set it; `count == 0` closes the window.
    PtWindow {
        /// The portal.
        pt: CapSel,
        /// First page of the window in the handler's space.
        base: u64,
        /// Window size in pages.
        count: u64,
    },
    /// Creates a semaphore.
    CreateSm {
        /// Initial count.
        count: u64,
        /// Destination selector.
        dst: CapSel,
    },
    /// Delegates memory pages to another domain (requires CTRL or
    /// DELEGATE on the target PD capability).
    DelegateMem {
        /// Target PD.
        dst_pd: CapSel,
        /// First page number in the caller's space.
        base: u64,
        /// Page count.
        count: u64,
        /// Rights ceiling.
        rights: MemRights,
        /// First page number in the target's space.
        hot: u64,
    },
    /// Delegates I/O ports.
    DelegateIo {
        /// Target PD.
        dst_pd: CapSel,
        /// First port.
        base: u16,
        /// Port count.
        count: u16,
    },
    /// Delegates a capability with (possibly reduced) permissions.
    DelegateCap {
        /// Target PD.
        dst_pd: CapSel,
        /// Source selector in the caller's space.
        sel: CapSel,
        /// Permission ceiling.
        perms: Perms,
        /// Destination selector in the target's space.
        hot: CapSel,
    },
    /// Recursively revokes memory pages delegated from the caller's
    /// space (Section 6).
    RevokeMem {
        /// First page number.
        base: u64,
        /// Page count.
        count: u64,
        /// Also remove the caller's own mapping.
        include_self: bool,
    },
    /// Recursively revokes I/O ports.
    RevokeIo {
        /// First port.
        base: u16,
        /// Port count.
        count: u16,
        /// Also remove the caller's own grant.
        include_self: bool,
    },
    /// Recursively revokes a delegated capability.
    RevokeCap {
        /// Selector in the caller's space.
        sel: CapSel,
        /// Also remove the caller's own capability.
        include_self: bool,
    },
    /// Semaphore up (requires UP).
    SmUp {
        /// Semaphore selector.
        sm: CapSel,
    },
    /// Semaphore down (requires DOWN): consumes a count if available.
    SmDown {
        /// Semaphore selector.
        sm: CapSel,
    },
    /// Binds the calling EC to receive `on_signal` activations from
    /// the semaphore (requires DOWN) — the run-to-completion form of a
    /// blocking down-loop.
    SmBind {
        /// Semaphore selector.
        sm: CapSel,
    },
    /// Sets a virtual CPU's architectural state (requires EC_CTRL) —
    /// used by the VMM's virtual BIOS for boot and AP bring-up.
    EcSetState {
        /// vCPU selector.
        ec: CapSel,
        /// New guest register state.
        regs: Regs,
        /// Make the vCPU runnable (false leaves it blocked until a
        /// later resume).
        resume: bool,
    },
    /// Configures a virtual CPU's intercept controls (requires
    /// EC_CTRL): HLT/external-interrupt exiting and port passthrough.
    /// Every passed-through port must be present in the VM domain's
    /// I/O space — direct access still obeys the space.
    EcCtrlVm {
        /// vCPU selector.
        ec: CapSel,
        /// Exit on HLT.
        hlt_exit: bool,
        /// Exit on physical interrupts (clearing this yields the
        /// paper's exit-free "Direct" configuration).
        extint_exit: bool,
        /// Port ranges `(first, count)` the guest accesses directly.
        passthrough: Vec<(u16, u16)>,
    },
    /// Forces a virtual CPU to exit to its VMM (requires EC_CTRL) —
    /// the recall operation of Section 7.5.
    EcRecall {
        /// vCPU selector.
        ec: CapSel,
    },
    /// Unblocks a halted virtual CPU, optionally injecting an event
    /// (requires EC_CTRL).
    EcResume {
        /// vCPU selector.
        ec: CapSel,
        /// Event to inject on the next entry.
        inject: Option<Injection>,
        /// Request an interrupt-window exit.
        intwin: bool,
    },
    /// Routes a global system interrupt to a semaphore (requires UP on
    /// the semaphore; the caller must own the GSI).
    AssignGsi {
        /// Semaphore selector.
        sm: CapSel,
        /// GSI number (platform interrupt line).
        gsi: u8,
    },
    /// Passes ownership of a global system interrupt to another
    /// domain (root policy; requires current ownership).
    DelegateGsi {
        /// Target PD.
        dst_pd: CapSel,
        /// GSI number.
        gsi: u8,
    },
    /// Arms (or with `period == 0` cancels) a periodic hypervisor
    /// timer that signals a semaphore (requires UP). The hypervisor
    /// owns the physical scheduling timer; this is how user components
    /// obtain time (e.g. the VMM's virtual PIT).
    SetTimer {
        /// Semaphore selector.
        sm: CapSel,
        /// Period in cycles (0 cancels).
        period: Cycles,
    },
    /// Assigns a device to a protection domain: its DMA is remapped
    /// through the domain's memory space (requires CTRL on the PD).
    AssignDev {
        /// Target PD.
        pd: CapSel,
        /// Device bus index.
        device: usize,
    },
    /// Arms (or with `timeout == 0` cancels) a deadman watchdog on a
    /// protection domain (requires CTRL on the PD and UP on the
    /// semaphore). If the watched domain executes no hypercall for
    /// `timeout` cycles — or faults — the kernel signals `sm` once;
    /// the supervisor re-arms after recovery. This is the death/
    /// exception notification channel of the paper's fault-containment
    /// story: drivers fail, the system above notices and recovers.
    WatchdogArm {
        /// The domain to watch.
        pd: CapSel,
        /// Semaphore signalled on expiry or fault.
        sm: CapSel,
        /// Inactivity deadline in cycles (0 disarms).
        timeout: Cycles,
    },
    /// Explicit sign of life for any watchdog watching the caller's
    /// domain. Every hypercall already counts as activity; this is the
    /// heartbeat for components with nothing else to say.
    WatchdogPet,
}

impl Hypercall {
    /// Stable ordinal of the hypercall, used as the `detail` payload of
    /// `hypercall` trace events.
    pub fn number(&self) -> u64 {
        match self {
            Hypercall::CreatePd { .. } => 0,
            Hypercall::DestroyPd { .. } => 1,
            Hypercall::CreateEc { .. } => 2,
            Hypercall::CreateSc { .. } => 3,
            Hypercall::CreatePt { .. } => 4,
            Hypercall::CreateSm { .. } => 5,
            Hypercall::DelegateMem { .. } => 6,
            Hypercall::DelegateIo { .. } => 7,
            Hypercall::DelegateCap { .. } => 8,
            Hypercall::RevokeMem { .. } => 9,
            Hypercall::RevokeIo { .. } => 10,
            Hypercall::RevokeCap { .. } => 11,
            Hypercall::SmUp { .. } => 12,
            Hypercall::SmDown { .. } => 13,
            Hypercall::SmBind { .. } => 14,
            Hypercall::EcSetState { .. } => 15,
            Hypercall::EcCtrlVm { .. } => 16,
            Hypercall::EcRecall { .. } => 17,
            Hypercall::EcResume { .. } => 18,
            Hypercall::AssignGsi { .. } => 19,
            Hypercall::DelegateGsi { .. } => 20,
            Hypercall::SetTimer { .. } => 21,
            Hypercall::AssignDev { .. } => 22,
            Hypercall::WatchdogArm { .. } => 23,
            Hypercall::WatchdogPet => 24,
            Hypercall::PtWindow { .. } => 25,
        }
    }
}

/// Successful hypercall result.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HcReply {
    /// Completed with no return value.
    Ok,
    /// Semaphore down: whether a count was consumed.
    Down {
        /// `true` if the counter was positive.
        acquired: bool,
    },
}

/// Hypercall failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HcErr {
    /// The selector names no capability or one of the wrong type.
    BadCap,
    /// The capability lacks the required permission.
    BadPerm,
    /// A parameter is out of range or inconsistent.
    BadParam,
    /// The target execution context is busy (re-entrant call).
    Busy,
    /// The caller does not own the resource being delegated.
    NotOwner,
    /// The caller's domain hit its kernel-object quota: creating more
    /// PDs/ECs/SCs/portals/semaphores would exhaust kernel memory.
    /// Graceful backpressure instead of an allocation failure deep in
    /// the kernel (Section 4.1's resource-accountability argument).
    QuotaExceeded,
}
