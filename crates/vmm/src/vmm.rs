//! The virtual-machine monitor component (Section 7).
//!
//! One instance per virtual machine. At start it constructs the VM:
//! creates the VM protection domain and virtual CPUs, delegates
//! guest-physical memory out of its own address space (Section 7:
//! "The VMM manages the guest-physical memory of its associated
//! virtual machine by mapping a subset of its own address space into
//! the host address space of the VM"), installs per-vCPU, per-event
//! exit portals with minimized transfer descriptors, boots the guest
//! through the integrated virtual BIOS (Section 7.4), and attaches its
//! disk front ends to the portals root wired to the disk server.
//!
//! At run time it handles VM-exit messages: emulating CPUID/RDTSC,
//! dispatching port I/O to the virtual device models, decoding and
//! executing MMIO instructions with the instruction emulator, and
//! injecting virtual interrupts — recalling running virtual CPUs when
//! an interrupt becomes pending (Section 7.5).

use nova_core::cap::Perms;
use nova_core::kernel::{EXIT_PORTAL_BASE, EXIT_PORTAL_STRIDE, SEL_SELF_PD};
use nova_core::obj::{MemRights, VmPaging};
use nova_core::{CompCtx, Component, Hypercall, Kernel, SmId, Utcb};
use nova_hw::machine::GuestImage;
use nova_hw::vmx::{mtd, ExitReason};
use nova_hw::{Cycles, GuestFault, GuestSurface, VmKill};
use nova_trace::Kind as TraceKind;
use nova_user::proto::disk as disk_proto;
use nova_x86::insn::OpSize;
use nova_x86::reg::{flags, vector, Reg, Regs};

use crate::bios;
use crate::checkpoint::{Dec, Enc};
use crate::devices::{SpecialPorts, VDevices};
use crate::diskclient::{DiskChannel, DiskClient};
use crate::emu::VmmHost;
use crate::exit::{self, next_irq, Exit, Irq};
use crate::pvdisk::PvDisk;
use crate::pvnet::PvNet;
use crate::vahci::VAhci;

/// VMM configuration, provided by the launcher (acting as the root
/// partition manager's policy).
#[derive(Clone, Debug)]
pub struct VmmConfig {
    /// VM name.
    pub name: String,
    /// Memory-virtualization mode of the VM.
    pub paging: VmPaging,
    /// Guest RAM size in pages.
    pub guest_pages: u64,
    /// Number of virtual CPUs.
    pub vcpus: usize,
    /// Physical CPU for each vCPU (index i for vCPU i; missing
    /// entries default to CPU 0). True multiprocessor placement puts
    /// each vCPU — and its handler EC — on its own core
    /// (Section 7.5).
    pub vcpu_cpus: Vec<usize>,
    /// Priority for vCPU scheduling contexts.
    pub vcpu_prio: u8,
    /// vCPU time quantum.
    pub quantum: Cycles,
    /// Guest image.
    pub image: GuestImage,
    /// Storage is attached: root wired the disk server's portals to the
    /// protocol's client selectors (`nova_user::proto::disk::CLIENT_SEL_*`),
    /// the VM's completion semaphore among them. Set by the recipe from
    /// its disk slot.
    pub(crate) disk: bool,
    /// Attach the paravirtual batched disk queue (the VMM's second
    /// disk-server client, with its own completion ring at
    /// [`PV_RING_PAGE`]).
    pub pv_disk: bool,
    /// Attach the paravirtual NIC backend: the launcher granted the
    /// VMM the physical NIC window at [`crate::pvnet::PVNET_MMIO_PAGE`],
    /// its GSI, and the IOMMU mapping.
    pub pv_nic: bool,
    /// Direct-mapped MMIO: `(gpa_page, vmm_page, count)` delegated
    /// into the VM (device windows granted to the VMM by root).
    pub direct_mmio: Vec<(u64, u64, u64)>,
    /// GSIs whose interrupts the VMM forwards into the guest (direct
    /// device assignment; root must have passed ownership). A device
    /// assigned to the VM DMAs into guest memory, so guest memory is
    /// delegated with DMA rights exactly when this is non-empty.
    pub direct_gsis: Vec<u8>,
    /// Ablation: use full-state transfer descriptors on every portal
    /// instead of per-event minimal ones (Section 5.2).
    pub mtd_full: bool,
    /// Kernel-hardening extension suggested by Section 4.2 ("a VMM
    /// can ... make regions of guest-physical memory corresponding to
    /// kernel code read-only"): the page range `(first, count)` is
    /// mapped read-only; a guest write there is treated as a
    /// code-injection attempt and kills the VM with exit code 0xfc.
    pub protect_kernel: Option<(u64, u64)>,
    /// The disk server runs under root supervision: the VMM binds the
    /// restart semaphore root pre-delegated at
    /// `nova_user::proto::disk::CLIENT_SEL_RESTART` and
    /// starts its channels over whenever the supervisor respawns the
    /// server; outstanding requests are timed out and resubmitted via
    /// a maintenance timer instead of hanging the guest forever. Set by
    /// the recipe when root supervises the server it wires to.
    pub(crate) supervised_disk: bool,
}

impl VmmConfig {
    /// A full-virtualization VM with the given image and memory size.
    pub fn full_virt(image: GuestImage, guest_pages: u64) -> VmmConfig {
        VmmConfig {
            name: "vm".into(),
            paging: VmPaging::Nested(nova_x86::paging::NestedFormat::Ept4Level),
            guest_pages,
            vcpus: 1,
            vcpu_cpus: Vec::new(),
            vcpu_prio: 16,
            quantum: 1_000_000,
            image,
            disk: false,
            pv_disk: false,
            pv_nic: false,
            direct_mmio: Vec::new(),
            direct_gsis: Vec::new(),
            mtd_full: false,
            protect_kernel: None,
            supervised_disk: false,
        }
    }
}

/// First VMM page of the guest-RAM window: guest-physical page `g` is
/// VMM page `GUEST_BASE_PAGE + g`.
pub const GUEST_BASE_PAGE: u64 = 0x1000;

/// VMM page of the vAHCI client's disk completion ring.
pub const RING_PAGE: u64 = 0x800;

/// VMM page of the PV disk queue's completion ring.
pub const PV_RING_PAGE: u64 = 0x801;

/// The VMM address of guest-physical byte `gpa`.
pub(crate) const fn guest_va(gpa: u64) -> u64 {
    GUEST_BASE_PAGE * 4096 + gpa
}

/// Well-known selectors inside the VMM's capability space (public so
/// the microreboot recipe can address the VM PD and the vCPUs of a
/// dead incarnation through its still-standing capability space).
pub mod sel {
    use nova_core::cap::CapSel;
    /// Timer semaphore.
    pub const TIMER_SM: CapSel = 0x40;
    /// Maintenance timer semaphore (request-timeout sweep).
    pub const MAINT_SM: CapSel = 0x43;
    /// Physical-NIC interrupt semaphore (paravirtual NIC backend).
    pub const PVNET_SM: CapSel = 0x47;
    /// The VM protection domain.
    pub const VM_PD: CapSel = 0x50;
    /// SC of the VMM's own EC (activations).
    pub const OWN_SC: CapSel = 0x51;
    /// vCPU `i`.
    pub const fn vcpu(i: usize) -> CapSel {
        0x60 + i
    }
    /// SC of vCPU `i`.
    pub const fn vcpu_sc(i: usize) -> CapSel {
        0x70 + i
    }
    /// Handler EC for vCPU `i`.
    pub const fn handler(i: usize) -> CapSel {
        0x80 + i
    }
    /// GSI semaphore `g`.
    pub const fn gsi_sm(g: u8) -> CapSel {
        0x90 + g as CapSel
    }
    /// Portal for vCPU `i`, exit reason `r`.
    pub const fn portal(i: usize, r: usize) -> CapSel {
        0x100 + i * 32 + r
    }
}

/// Per-vCPU runtime state tracked by the VMM.
#[derive(Clone, Copy, Default)]
struct VcpuState {
    /// The vCPU is blocked in the kernel after a HLT: `Some(open)`,
    /// whether its interrupt window was open. With it closed no vector
    /// wakes it, as none wakes a CPU halted with IF clear.
    halted: Option<bool>,
    /// Pending direct-injection vector (IPI), bypassing the vPIC.
    pending_ipi: Option<u8>,
    /// The vCPU has been recalled and will inject on its Recall exit.
    recall_armed: bool,
}

/// The VMM.
pub struct Vmm {
    cfg: VmmConfig,
    ctx: Option<CompCtx>,
    dev: Option<VDevices>,
    vcpu_state: Vec<VcpuState>,
    timer_sm: Option<SmId>,
    disk_sm: Option<SmId>,
    restart_sm: Option<SmId>,
    maint_sm: Option<SmId>,
    pvnet_sm: Option<SmId>,
    maint_armed: bool,
    gsi_sms: Vec<(SmId, u8)>,
    /// Benchmark marks the guest wrote (in order).
    pub marks: Vec<u32>,
    /// Guest's exit code once it shut down.
    pub guest_exit: Option<u8>,
    /// Structured record of why the VMM killed the guest, if it did
    /// (voluntary guest exits leave this `None`).
    pub kill: Option<VmKill>,
}

impl Vmm {
    /// Creates the VMM for `cfg`.
    pub fn new(cfg: VmmConfig) -> Vmm {
        let vcpus = cfg.vcpus;
        Vmm {
            cfg,
            ctx: None,
            dev: None,
            vcpu_state: vec![VcpuState::default(); vcpus],
            timer_sm: None,
            disk_sm: None,
            restart_sm: None,
            maint_sm: None,
            pvnet_sm: None,
            maint_armed: false,
            gsi_sms: Vec::new(),
            marks: Vec::new(),
            guest_exit: None,
            kill: None,
        }
    }

    /// The guest's captured console output.
    pub fn guest_console(&self) -> String {
        self.dev
            .as_ref()
            .map(|d| d.legacy.serial.text())
            .unwrap_or_default()
    }

    /// Benchmark marks the guest wrote.
    pub fn guest_marks(&self) -> Vec<u32> {
        self.marks.clone()
    }

    /// The virtual device complex (panics before [`Vmm::on_start`]).
    pub fn dev(&self) -> &crate::devices::VDevices {
        self.dev.as_ref().expect("devices")
    }

    /// Types scancodes at the guest's virtual keyboard and raises its
    /// interrupt. Call [`Vmm::kick_keyboard`] with kernel access to
    /// deliver.
    pub fn type_scancodes(&mut self, codes: &[u8]) {
        if let Some(dev) = self.dev.as_mut() {
            for c in codes {
                dev.legacy.kbd.inject(*c);
            }
            dev.legacy.pic.pulse(1);
        }
    }

    /// Wakes or recalls vCPU 0 after queued keyboard input.
    pub fn kick_keyboard(&mut self, k: &mut Kernel) {
        if let Some(ctx) = self.ctx {
            self.kick_vcpu(k, ctx, 0);
        }
    }

    /// The per-event message transfer descriptor (Section 5.2): only
    /// the state each handler actually needs.
    fn mtd_for(&self, reason: usize) -> u32 {
        if self.cfg.mtd_full {
            return mtd::ALL;
        }
        // Indices follow ExitReason::index().
        match reason {
            2 => mtd::GPR_ACDB | mtd::EIP, // CPUID: "only the general-purpose registers, instruction pointer and instruction length"
            3 => mtd::EIP | mtd::STA | mtd::INJ, // HLT
            6 => mtd::GPR_ACDB | mtd::EIP | mtd::QUAL | mtd::STA | mtd::INJ, // port I/O
            7 => mtd::ALL,                 // MMIO: the emulator needs everything
            1 | 11 => mtd::STA | mtd::INJ, // interrupt window / recall
            9 | 10 => mtd::GPR_ACDB | mtd::EIP, // VMCALL / RDTSC
            _ => mtd::EIP | mtd::STA,
        }
    }

    /// [`next_irq`] over vCPU `vcpu`'s pending vectors: its IPI, and
    /// the vPIC's if it is vCPU 0 (the one wired to it, as on real
    /// boards).
    fn next_irq(&mut self, vcpu: usize, window: bool) -> Irq {
        let ipi = &mut self.vcpu_state[vcpu].pending_ipi;
        let dev = self.dev.as_mut().filter(|_| vcpu == 0);
        next_irq(ipi, dev.map(|d| &mut d.legacy.pic), window)
    }

    /// Wakes or recalls a vCPU after a virtual interrupt became
    /// pending (Section 7.5). A halted vCPU's window is the one it
    /// halted with; a running one's opens at its recall exit.
    fn kick_vcpu(&mut self, k: &mut Kernel, ctx: CompCtx, vcpu: usize) {
        let (s, ec) = (self.vcpu_state[vcpu], sel::vcpu(vcpu));
        match self.next_irq(vcpu, s.halted == Some(true)) {
            Irq::Inject(inj) => {
                self.vcpu_state[vcpu].halted = None;
                let _ = k.hypercall(
                    ctx,
                    Hypercall::EcResume {
                        ec,
                        inject: Some(inj),
                        intwin: false,
                    },
                );
            }
            Irq::Window if s.halted.is_none() && !s.recall_armed => {
                self.vcpu_state[vcpu].recall_armed = true;
                let _ = k.hypercall(ctx, Hypercall::EcRecall { ec });
            }
            _ => {}
        }
    }

    /// The containment path (Section 4): terminates this VM — and only
    /// this VM — with a structured, machine-readable kill record.
    ///
    /// Files the [`VmKill`], sets the guest exit code from it, counts
    /// it in the registry's `vm_kills` and the per-reason `nova-trace`
    /// metric (domain = exit code), and forwards the code
    /// to the physical debug port so supervisors observe the death.
    /// The caller still owns the exit message and must park the vCPU
    /// (`reply_block`).
    fn kill_vm(&mut self, k: &mut Kernel, ctx: CompCtx, kill: VmKill) {
        let code = kill.exit_code();
        // First kill wins: a cascade of exits after the fatal one must
        // not rewrite the recorded root cause.
        if self.kill.is_none() {
            self.kill = Some(kill);
        }
        self.guest_exit = Some(code);
        k.count(
            |c| &mut c.vm_kills,
            nova_trace::names::VM_KILLS_BY_REASON,
            code as u64,
        );
        let _ = k.dev_io_write(ctx, crate::devices::PORT_EXIT, OpSize::Byte, code as u32);
    }

    /// Applies out-of-band port effects (shutdown, marks, AP starts,
    /// IPIs).
    fn apply_special(&mut self, k: &mut Kernel, ctx: CompCtx, current_vcpu: usize) {
        let special: SpecialPorts = {
            let dev = self.dev.as_mut().expect("devices");
            if dev.legacy.special.is_empty() {
                return;
            }
            std::mem::take(&mut dev.legacy.special)
        };
        // Record marks for harnesses (forwarded below exactly once).
        self.marks.extend_from_slice(&special.marks);
        if let Some(code) = special.exit_code {
            self.guest_exit = Some(code);
            // Forward to the physical debug port (granted by root) so
            // the whole simulation stops.
            let _ = k.dev_io_write(ctx, crate::devices::PORT_EXIT, OpSize::Byte, code as u32);
        }
        for m in special.marks {
            let _ = k.dev_io_write(ctx, crate::devices::PORT_MARK, OpSize::Dword, m);
        }
        for (vcpu, page) in special.ap_starts {
            if vcpu == 0 || vcpu >= self.cfg.vcpus {
                continue;
            }
            let mut regs = Regs::at(page << 12);
            regs.set(Reg::Esp, self.cfg.image.stack);
            regs.eflags = flags::R1;
            let _ = k.hypercall(
                ctx,
                Hypercall::EcSetState {
                    ec: sel::vcpu(vcpu),
                    regs,
                    resume: true,
                },
            );
            self.vcpu_state[vcpu].halted = None;
        }
        for vector in special.ipis {
            for v in 0..self.cfg.vcpus {
                if v != current_vcpu {
                    self.vcpu_state[v].pending_ipi = Some(vector);
                    self.kick_vcpu(k, ctx, v);
                }
            }
        }
    }

    /// Runs one exit through [`exit::handle`] under the VMM's policy:
    /// the kernel-protection check before it, the reply descriptor, the
    /// out-of-band port effects and the kill path after it, and the
    /// injection rule last.
    /// The message is read and the reply written in place, in the
    /// UTCB the kernel filled.
    fn handle_exit(&mut self, k: &mut Kernel, ctx: CompCtx, vcpu: usize, utcb: &mut Utcb) {
        let Some(msg) = utcb.vm.as_mut() else {
            return;
        };
        let reason_idx = msg.reason.index() as u64;
        let pd16 = ctx.pd.0 as u16;
        let at = k.now();
        let trace = &mut k.machine.bus.trace;
        trace.begin(0, pd16, TraceKind::VmmEmulate, reason_idx, at);
        let protected = |gpa: u64| {
            let range = self.cfg.protect_kernel.map(|(pf, pc)| pf..pf + pc);
            range.is_some_and(|r| r.contains(&(gpa >> 12)))
        };
        let exit = match msg.reason {
            // The injection rule below injects if something is pending.
            ExitReason::IntWindow | ExitReason::Recall => {
                self.vcpu_state[vcpu].recall_armed = false;
                None
            }
            // Writes into a protected kernel region are a
            // code-injection attempt: kill the VM (Section 4.2).
            ExitReason::EptViolation { gpa, access } if access.write && protected(gpa) => {
                let fault = GuestFault::ProtectedRangeWrite;
                Some(Exit::Kill(VmKill::new(GuestSurface::GuestMemory, fault)))
            }
            ref reason => {
                let dev = self.dev.as_mut().expect("devices");
                let (host, pages) = (&mut VmmHost { k, ctx, dev }, self.cfg.guest_pages);
                Some(exit::handle(host, pages, reason, &mut msg.regs))
            }
        };
        match exit {
            None => {}
            Some(Exit::Resume) => {
                msg.reply_mtd = match msg.reason {
                    // The emulator may have written any register.
                    ExitReason::EptViolation { .. } => {
                        mtd::GPR_ACDB | mtd::GPR_BSD | mtd::ESP | mtd::EIP | mtd::EFL
                    }
                    _ => mtd::GPR_ACDB | mtd::EIP,
                };
                self.apply_special(k, ctx, vcpu);
                // A device backend may have flagged the input it just
                // consumed as structurally hostile.
                if let Some(kill) = self.dev.as_mut().and_then(VDevices::take_fatal) {
                    self.kill_vm(k, ctx, kill);
                }
                // The guest powered off: park the vCPU for good.
                msg.reply_block = self.guest_exit.is_some();
            }
            Some(Exit::Halt) => msg.reply_mtd = mtd::EIP,
            Some(Exit::Inject(inj)) => {
                if inj.vector == vector::PAGE_FAULT {
                    msg.reply_mtd = mtd::CR;
                }
                msg.reply_inject = Some(inj);
            }
            Some(Exit::Kill(kill)) => {
                self.kill_vm(k, ctx, kill);
                msg.reply_block = true;
            }
        }
        // A pending vector enters through an open window; a halted vCPU
        // that takes none blocks.
        if !msg.reply_block && msg.reply_inject.is_none() {
            match (self.next_irq(vcpu, msg.window_open), exit) {
                (Irq::Inject(inj), _) => msg.reply_inject = Some(inj),
                (_, Some(Exit::Halt)) => msg.reply_block = true,
                (Irq::Window, _) => msg.reply_intwin = true,
                (Irq::Idle, _) => {}
            }
        }
        if msg.reply_block {
            let open = exit != Some(Exit::Halt) || msg.window_open;
            self.vcpu_state[vcpu].halted = Some(open);
        }
        let at = k.now();
        let trace = &mut k.machine.bus.trace;
        trace.end(0, pd16, TraceKind::VmmEmulate, reason_idx, at);
    }

    /// Handles a disk-server restart notification: each disk channel
    /// starts over with the new server incarnation — the portals root
    /// rewired, a zeroed ring — and resubmits every request that was in
    /// flight when the old one died.
    fn reconnect_disk(&mut self, k: &mut Kernel, ctx: CompCtx) {
        let dev = self.dev.as_mut().expect("devices");
        if dev.restart_disks(k, ctx, DiskClient::retry) {
            self.kick_vcpu(k, ctx, 0);
        }
    }

    /// Arms the maintenance timer while disk requests are outstanding
    /// and cancels it when the last one drains, so an idle supervised
    /// VM still reports [`nova_core::RunOutcome::Idle`].
    fn update_maint_timer(&mut self, k: &mut Kernel, ctx: CompCtx) {
        if self.maint_sm.is_none() {
            return;
        }
        let want = self.dev.as_ref().is_some_and(VDevices::disks_pending);
        if want == self.maint_armed {
            return;
        }
        let period = if want { MAINT_PERIOD } else { 0 };
        if k.hypercall(
            ctx,
            Hypercall::SetTimer {
                sm: sel::MAINT_SM,
                period,
            },
        )
        .is_ok()
        {
            self.maint_armed = want;
        }
    }

    /// The VMM's configuration (the supervisor's recipe replays it
    /// into the fresh incarnation).
    pub fn config(&self) -> &VmmConfig {
        &self.cfg
    }

    /// Serializes the VMM's runtime and virtual-device state for a
    /// checkpoint into `out`, replacing what it held and keeping its
    /// capacity: per-vCPU bookkeeping, guest marks and exit code, and
    /// every device model. Deterministic byte-for-byte (the CI gate
    /// relies on it).
    pub fn save_state(&self, out: &mut Vec<u8>) {
        out.clear();
        let mut e = Enc::over(std::mem::take(out));
        e.u32(self.vcpu_state.len() as u32);
        for s in &self.vcpu_state {
            e.flag(s.halted.is_some());
            e.flag(s.pending_ipi.is_some());
            e.u8(s.pending_ipi.unwrap_or(0));
            e.u8(s.recall_armed as u8 | ((s.halted == Some(false)) as u8) << 1);
        }
        e.u32(self.marks.len() as u32);
        for &m in &self.marks {
            e.u32(m);
        }
        e.flag(self.guest_exit.is_some());
        e.u8(self.guest_exit.unwrap_or(0));
        match self.dev.as_ref() {
            None => e.flag(false),
            Some(dev) => {
                e.flag(true);
                dev.export_state(&mut e);
            }
        }
        *out = e.finish();
    }

    /// Restores [`Vmm::save_state`] bytes into this (freshly started)
    /// incarnation. Must run *after* guest memory has been rewritten
    /// and the vCPUs imported: the PV disk replay publishes straight
    /// into guest ring memory. Clears the stale completion-ring pages
    /// (the fresh server clients produce from zero), replays every
    /// in-flight disk request, and re-arms the maintenance timer.
    /// Returns `false` — leaving the VMM as a cold boot — on any
    /// malformed input.
    pub fn restore_state(&mut self, k: &mut Kernel, bytes: &[u8]) -> bool {
        let Some(ctx) = self.ctx else {
            return false;
        };
        let Some(has_dev) = self.import_state(k, ctx, bytes) else {
            return false;
        };
        let Some(dev) = self.dev.as_mut().filter(|_| has_dev) else {
            return true;
        };
        // The re-granted ring pages still hold the previous
        // incarnation's producer head word; each client zeroes its own
        // before any completion is consumed against a zero ring tail.
        // Then the same resubmit protocol used after a disk-server
        // restart, uncharged.
        let now = k.now();
        dev.restart_disks(k, ctx, |_, r| DiskClient::replay(r, now));
        self.update_maint_timer(k, ctx);
        self.kick_vcpu(k, ctx, 0);
        true
    }

    /// Parses [`Vmm::save_state`] bytes into this incarnation: whether
    /// they held a device record, or `None` if they are malformed.
    fn import_state(&mut self, k: &mut Kernel, ctx: CompCtx, bytes: &[u8]) -> Option<bool> {
        let mut d = Dec::new(bytes);
        if d.u32()? as usize != self.vcpu_state.len() {
            return None;
        }
        for s in &mut self.vcpu_state {
            let bits = (d.flag()?, d.flag()?, d.u8()?, d.u8().filter(|b| *b < 4)?);
            let (halted, has_ipi, ipi, bits) = bits;
            s.halted = halted.then_some(bits & 2 == 0);
            s.pending_ipi = has_ipi.then_some(ipi);
            // Recalls of the dead incarnation died with it (bit 0); a
            // restored pending interrupt re-kicks.
            s.recall_armed = false;
        }
        let nmarks = d.u32()?;
        self.marks.clear();
        for _ in 0..nmarks {
            self.marks.push(d.u32()?);
        }
        let (has_exit, code) = (d.flag()?, d.u8()?);
        self.guest_exit = has_exit.then_some(code);
        let has_dev = d.flag()?;
        let dev = self.dev.as_mut()?;
        if has_dev {
            dev.import_state(k, ctx, &mut d)?;
        }
        d.done().then_some(has_dev)
    }
}

/// Maintenance-timer period: how often a supervised VMM sweeps its
/// outstanding disk requests for timeouts (a fraction of the vAHCI
/// request timeout so degradation is detected promptly).
const MAINT_PERIOD: Cycles = 1_000_000;

impl Component for Vmm {
    fn name(&self) -> &str {
        "vmm"
    }

    fn on_start(&mut self, k: &mut Kernel, ctx: CompCtx) {
        self.ctx = Some(ctx);
        let cpu_hz = k.machine.cost.ident.hz();

        // Own SC so semaphore signals (timer, disk) get scheduled.
        k.hypercall(
            ctx,
            Hypercall::CreateSc {
                ec: nova_core::kernel::SEL_SELF_EC,
                prio: 40,
                quantum: 100_000,
                dst: sel::OWN_SC,
            },
        )
        .expect("vmm SC");

        // Timer semaphore for the virtual PIT.
        self.timer_sm = Some(k.create_bound_sm(ctx, sel::TIMER_SM).expect("timer sm"));

        // Disk channels: root wired the portals and the completion
        // semaphore.
        let mut vahci = VAhci::new(self.cfg.guest_pages);
        let mut pvdisk = PvDisk::new(self.cfg.guest_pages);
        if self.cfg.disk {
            let done = disk_proto::CLIENT_SEL_DONE;
            self.disk_sm = Some(k.bind_sm(ctx, done).expect("bind disk sm"));

            if self.cfg.supervised_disk {
                // Restart notification: root pre-delegated a semaphore
                // (with DOWN permission) at CLIENT_SEL_RESTART and ups
                // it after every disk-server respawn.
                let restart = disk_proto::CLIENT_SEL_RESTART;
                self.restart_sm = Some(k.bind_sm(ctx, restart).expect("bind restart"));

                // Maintenance timer for the request-timeout sweep,
                // armed only while guest requests are outstanding (so
                // idle VMs stay idle).
                self.maint_sm = Some(k.create_bound_sm(ctx, sel::MAINT_SM).expect("maint sm"));
            }

            vahci.disk.attach(DiskChannel {
                req_sel: disk_proto::CLIENT_SEL_REQ,
                ring_va: RING_PAGE * 4096,
            });
            // The PV batched queue is a second client with its own
            // portal and completion ring, sharing the completion
            // semaphore (one signal drains both rings).
            if self.cfg.pv_disk {
                pvdisk.disk.attach(DiskChannel {
                    req_sel: disk_proto::CLIENT_SEL_BATCH,
                    ring_va: PV_RING_PAGE * 4096,
                });
            }
        }
        let pvnet = self.cfg.pv_nic.then(|| {
            // The launcher granted the physical NIC window, GSI, and
            // IOMMU mapping; the backend gets its interrupt via a
            // dedicated semaphore.
            self.pvnet_sm = Some(k.create_bound_sm(ctx, sel::PVNET_SM).expect("pvnet sm"));
            k.hypercall(
                ctx,
                Hypercall::AssignGsi {
                    sm: sel::PVNET_SM,
                    gsi: nova_hw::machine::NIC_IRQ,
                },
            )
            .expect("assign nic gsi (root must delegate ownership first)");
            PvNet::new(self.cfg.guest_pages)
        });
        self.dev = Some(VDevices::new(cpu_hz, sel::TIMER_SM, vahci, pvdisk, pvnet));

        // Direct-assignment interrupt forwarding.
        for (i, &gsi) in self.cfg.direct_gsis.clone().iter().enumerate() {
            let s = sel::gsi_sm(i as u8);
            let sm = k.create_bound_sm(ctx, s).expect("gsi sm");
            k.hypercall(ctx, Hypercall::AssignGsi { sm: s, gsi })
                .expect("assign gsi (root must delegate ownership first)");
            self.gsi_sms.push((sm, gsi));
        }

        // The VM protection domain.
        k.hypercall(
            ctx,
            Hypercall::CreatePd {
                name: self.cfg.name.clone(),
                vm: Some(self.cfg.paging),
                dst: sel::VM_PD,
            },
        )
        .expect("vm pd");

        // Guest-physical memory: a subset of the VMM's own space.
        let rights = if !self.cfg.direct_gsis.is_empty() {
            MemRights::RW_DMA
        } else {
            MemRights::RW
        };
        // Leave the legacy PC hole (0xA0000–0xFFFFF) unbacked (the
        // VGA window direct-maps into it, exactly as on real boards),
        // and map any protected kernel range read-only (Section 4.2's
        // hardening suggestion).
        const HOLE_START: u64 = 0xa0;
        const HOLE_END: u64 = 0x100;
        let ro = MemRights {
            write: false,
            ..rights
        };
        let protected = self.cfg.protect_kernel;
        let mut segments: Vec<(u64, u64)> = Vec::new();
        segments.push((0, self.cfg.guest_pages.min(HOLE_START)));
        if self.cfg.guest_pages > HOLE_END {
            segments.push((HOLE_END, self.cfg.guest_pages - HOLE_END));
        }
        for (start, count) in segments {
            // Split each RAM segment around the protected range.
            let mut cursor = start;
            let end = start + count;
            while cursor < end {
                let (next, r) = match protected {
                    Some((pf, pc)) if cursor >= pf && cursor < pf + pc => ((pf + pc).min(end), ro),
                    Some((pf, _)) if cursor < pf => (pf.min(end), rights),
                    _ => (end, rights),
                };
                k.hypercall(
                    ctx,
                    Hypercall::DelegateMem {
                        dst_pd: sel::VM_PD,
                        base: GUEST_BASE_PAGE + cursor,
                        count: next - cursor,
                        rights: r,
                        hot: cursor,
                    },
                )
                .expect("guest memory");
                cursor = next;
            }
        }

        // Direct-mapped device windows (VGA framebuffer and any
        // directly assigned devices).
        for &(gpa_page, vmm_page, count) in &self.cfg.direct_mmio.clone() {
            k.hypercall(
                ctx,
                Hypercall::DelegateMem {
                    dst_pd: sel::VM_PD,
                    base: vmm_page,
                    count,
                    rights: MemRights::RW,
                    hot: gpa_page,
                },
            )
            .expect("direct mmio window");
        }

        // Virtual BIOS: load the image and prepare boot state
        // (Section 7.4 — the BIOS lives in the VMM, not the guest).
        let boot_regs = bios::install(k, ctx, &self.cfg);

        // Virtual CPUs, their handler ECs and exit portals. Each
        // handler EC resides on the same physical processor as its
        // virtual CPU (Section 7.5).
        for i in 0..self.cfg.vcpus {
            let pcpu = self.cfg.vcpu_cpus.get(i).copied().unwrap_or(0);
            k.hypercall(
                ctx,
                Hypercall::CreateEc {
                    pd: sel::VM_PD,
                    vcpu: true,
                    cpu: pcpu,
                    dst: sel::vcpu(i),
                },
            )
            .expect("vcpu");
            // Dedicated handler EC (Section 7.5: one handler per vCPU).
            k.hypercall(
                ctx,
                Hypercall::CreateEc {
                    pd: SEL_SELF_PD,
                    vcpu: false,
                    cpu: pcpu,
                    dst: sel::handler(i),
                },
            )
            .expect("handler ec");

            for r in 0..ExitReason::COUNT {
                let pt_sel = sel::portal(i, r);
                k.hypercall(
                    ctx,
                    Hypercall::CreatePt {
                        ec: sel::handler(i),
                        mtd: self.mtd_for(r),
                        id: ((i as u64) << 8) | r as u64,
                        dst: pt_sel,
                    },
                )
                .expect("exit portal");
                k.hypercall(
                    ctx,
                    Hypercall::DelegateCap {
                        dst_pd: sel::VM_PD,
                        sel: pt_sel,
                        perms: Perms::CALL,
                        hot: EXIT_PORTAL_BASE + i * EXIT_PORTAL_STRIDE + r,
                    },
                )
                .expect("install exit portal in VM");
            }

            // Initial state: BSP runs the BIOS-prepared entry; APs
            // wait for the bring-up port.
            let mut regs = boot_regs.clone();
            if i > 0 {
                regs.eip = 0;
            }
            k.hypercall(
                ctx,
                Hypercall::EcSetState {
                    ec: sel::vcpu(i),
                    regs,
                    resume: i == 0,
                },
            )
            .expect("vcpu state");
            if i > 0 {
                self.vcpu_state[i].halted = Some(true);
            }

            k.hypercall(
                ctx,
                Hypercall::CreateSc {
                    ec: sel::vcpu(i),
                    prio: self.cfg.vcpu_prio,
                    quantum: self.cfg.quantum,
                    dst: sel::vcpu_sc(i),
                },
            )
            .expect("vcpu sc");
        }
    }

    fn on_call(&mut self, k: &mut Kernel, ctx: CompCtx, portal_id: u64, utcb: &mut Utcb) {
        let vcpu = (portal_id >> 8) as usize;
        if vcpu < self.cfg.vcpus {
            self.handle_exit(k, ctx, vcpu, utcb);
        }
        self.update_maint_timer(k, ctx);
    }

    fn on_signal(&mut self, k: &mut Kernel, ctx: CompCtx, sm: SmId) {
        if Some(sm) == self.timer_sm {
            if let Some(dev) = self.dev.as_mut() {
                dev.legacy.pic.pulse(0);
            }
            self.kick_vcpu(k, ctx, 0);
        } else if Some(sm) == self.disk_sm {
            if self.dev.as_mut().expect("devices").drain_disks(k, ctx) {
                self.kick_vcpu(k, ctx, 0);
            }
        } else if Some(sm) == self.maint_sm {
            if self.dev.as_mut().expect("devices").sweep_disks(k, ctx) {
                self.kick_vcpu(k, ctx, 0);
            }
        } else if Some(sm) == self.pvnet_sm {
            if self.dev.as_mut().expect("devices").drain_net(k, ctx) {
                self.kick_vcpu(k, ctx, 0);
            }
        } else if Some(sm) == self.restart_sm {
            self.reconnect_disk(k, ctx);
        } else if let Some(&(_, gsi)) = self.gsi_sms.iter().find(|(s, _)| *s == sm) {
            if let Some(dev) = self.dev.as_mut() {
                dev.legacy.pic.pulse(gsi);
            }
            self.kick_vcpu(k, ctx, 0);
        }
        self.update_maint_timer(k, ctx);
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::{LaunchOptions, System};
    use nova_hw::ahci::{cmd, regs as ahci};
    use nova_hw::machine::AHCI_BASE;
    use nova_hw::pv::{disk as ring, regs as pv, PV_BASE};

    const CMD_LIST: u64 = 0x3_0000;
    const CMD_TABLE: u64 = 0x3_1000;
    const RING: u64 = 0x4_2000;
    /// (first sector, guest buffer, sectors) of a vAHCI read and two PV
    /// reads.
    type Reads = [(u64, u64, u32); 3];
    /// Three reads into three pages.
    const READS: Reads = [(16, 0x3_8000, 8), (40, 0x4_8000, 8), (48, 0x4_9000, 8)];

    /// A VM with both disk front ends whose guest only halts, and in
    /// its memory what a guest driver writes before it rings the
    /// doorbells: `reads[0]` as a vAHCI command in slot 0, the other two
    /// as PV descriptors.
    fn staged_vm(reads: Reads) -> System {
        let image = GuestImage {
            bytes: vec![0xf4, 0xeb, 0xfd], // hlt; jmp to it
            load_gpa: 0x10_0000,
            entry: 0x10_0000,
            stack: 0x9_0000,
        };
        let mut cfg = VmmConfig::full_virt(image, 1024);
        cfg.pv_disk = true;
        let mut sys = System::build(LaunchOptions::standard(cfg));
        let vmm = sys.vmm;
        sys.k.invoke_component::<Vmm, _>(vmm, |v, k| {
            let ctx = v.ctx.expect("started");
            let guest = guest_va(0);
            let [(lba, buf, sectors), pv_reads @ ..] = reads;
            let header = cmd::Header {
                prdtl: 1,
                ctba: CMD_TABLE,
            };
            let cfis = cmd::Cfis {
                write: false,
                lba,
                sectors: sectors as u16,
            };
            k.mem_write(ctx, guest + CMD_LIST, &header.encode());
            k.mem_write(ctx, guest + CMD_TABLE, &cfis.encode());
            let prd = cmd::prd::encode(buf, sectors * 512);
            k.mem_write(ctx, guest + CMD_TABLE + cmd::PRDT_OFFSET, &prd);
            for (i, (lba, buf, sectors)) in pv_reads.into_iter().enumerate() {
                let desc = guest + RING + ring::DESC0 + i as u64 * ring::DESC_SIZE;
                k.mem_write_u32(ctx, desc + ring::D_OP, ring::OP_READ);
                k.mem_write_u32(ctx, desc + ring::D_SECTORS, sectors);
                k.mem_write_u32(ctx, desc + ring::D_LBA, lba as u32);
                k.mem_write_u32(ctx, desc + ring::D_BUF, buf as u32);
            }
        });
        sys
    }

    /// Rings both front ends' doorbells for what [`staged_vm`] staged.
    fn ring_doorbells(v: &mut Vmm, k: &mut Kernel) {
        let ctx = v.ctx.expect("started");
        let dev = v.dev.as_mut().expect("devices");
        let size = OpSize::Dword;
        dev.mmio_write(
            k,
            ctx,
            AHCI_BASE + ahci::P0CLB as u64,
            size,
            CMD_LIST as u32,
        );
        dev.mmio_write(k, ctx, AHCI_BASE + ahci::P0CI as u64, size, 1);
        dev.mmio_write(k, ctx, PV_BASE + pv::DISK_RING, size, RING as u32);
        dev.mmio_write(k, ctx, PV_BASE + pv::DISK_DOORBELL, size, 2);
        assert!(dev.vahci.disk.has_pending() && dev.pvdisk.disk.has_pending());
    }

    /// Runs `sys` until its disk requests drain and checks that `reads`
    /// brought the disk's sectors into guest memory.
    fn assert_read(sys: &mut System, reads: Reads) {
        sys.run(Some(100_000_000));
        assert!(!sys.vmm().dev().disks_pending(), "all three completed");
        assert_eq!(sys.vmm().dev().pvdisk.completions, 2);
        assert_eq!(sys.k.counters.disk_ops, 3);
        assert_eq!(sys.k.counters.degraded_errors(), 0);
        for (lba, buf, sectors) in reads {
            for s in 0..sectors as u64 {
                let host = 0x1000 * 4096 + buf + s * 512;
                let got = sys.k.machine.mem.read_bytes(host, 512);
                assert_eq!(got, sys.k.machine.ahci().sector(lba + s), "sector {lba}");
            }
        }
    }

    /// The checkpoint end to end: a VMM with a vAHCI command and two PV
    /// descriptors in flight, its vCPU halted with its window closed,
    /// saves its state; a fresh incarnation over the same guest memory
    /// restores it — the vCPU still halted with its window closed —
    /// replays all three requests into its own disk server with their
    /// attempts intact — its state then serializes to the very bytes it
    /// was given — and the data arrives.
    #[test]
    fn state_round_trips_with_requests_in_flight_on_both_front_ends() {
        let mut dead = staged_vm(READS);
        let vmm = dead.vmm;
        let blob = dead.k.invoke_component::<Vmm, _>(vmm, |v, k| {
            ring_doorbells(v, k);
            v.vcpu_state[0].halted = Some(false);
            let mut blob = Vec::new();
            v.save_state(&mut blob);
            blob
        });
        let blob = blob.expect("vmm");

        let mut sys = staged_vm(READS);
        let vmm = sys.vmm;
        let again = sys.k.invoke_component::<Vmm, _>(vmm, |v, k| {
            assert!(v.restore_state(k, &blob), "the record restores");
            let halted = v.vcpu_state[0].halted;
            assert_eq!(halted, Some(false), "halted with its window closed");
            let pv = &v.dev().pvdisk;
            assert_eq!((pv.doorbells, pv.requests, pv.completions), (1, 2, 0));
            // Over a buffer that held something else.
            let mut again = vec![0xee; 3];
            v.save_state(&mut again);
            again
        });
        assert_eq!(again, Some(blob), "nothing lost, no attempt charged");
        assert_read(&mut sys, READS);
    }

    /// The device record is the one record the checkpoint parser hands
    /// on unread, so it keeps the parser's rule itself: with requests in
    /// flight on both front ends, every seeded single-byte corruption of
    /// the record in [`Vmm::save_state`] is either refused by
    /// [`VDevices::import_state`] — the parse `restore_state` runs
    /// before it replays anything — or exports back to exactly those
    /// bytes. Each front end's record also refuses the two bounds its
    /// decoder always had: more segments than `MAX_SEGMENTS`, and a
    /// request count larger than the bytes left.
    #[test]
    fn a_corrupted_device_record_is_refused_or_round_trips_to_itself() {
        let mut sys = staged_vm(READS);
        let vmm = sys.vmm;
        sys.k.invoke_component::<Vmm, _>(vmm, |v, k| {
            ring_doorbells(v, k);
            let mut blob = Vec::new();
            v.save_state(&mut blob);
            let ctx = v.ctx.expect("started");
            let dev = v.dev.as_mut().expect("devices");
            let export = |dev: &VDevices| {
                let mut e = Enc::new();
                dev.export_state(&mut e);
                e.finish()
            };
            let record = export(dev);
            assert!(blob.ends_with(&record), "the tail of the VMM's state");
            let mut reparse = |c: &[u8]| {
                let mut d = Dec::new(c);
                let parsed = dev.import_state(k, ctx, &mut d).is_some() && d.done();
                parsed.then(|| export(dev))
            };
            assert_eq!(reparse(&record).as_ref(), Some(&record));
            let mut x = 0x2545_f491_4f6c_dd1du64;
            let mut next = move || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            };
            let (mut parsed, mut refused) = (0, 0);
            for _ in 0..4_000 {
                let mut c = record.clone();
                let at = next() as usize % c.len();
                c[at] ^= 1 + (next() % 255) as u8;
                match reparse(&c) {
                    None => refused += 1,
                    Some(again) => {
                        assert!(again == c, "byte {at} parses but does not export back");
                        parsed += 1;
                    }
                }
            }
            assert!(
                parsed > 500 && refused > 500,
                "{parsed} parsed, {refused} refused"
            );

            // Each front end's record on its own: the client's count
            // behind the vAHCI's 24 register bytes and the PV queue's 44,
            // the first request's `nsegs` 28 bytes behind the count.
            let ahci = |c: &[u8]| VAhci::new(1024).import_state(&mut Dec::new(c));
            let pv = |c: &[u8]| PvDisk::new(1024).import_state(&mut Dec::new(c));
            let mut e = Enc::new();
            dev.vahci.export_state(&mut e);
            let ahci_record = e.finish();
            let mut e = Enc::new();
            dev.pvdisk.export_state(&mut e);
            let pv_record = e.finish();
            type Parse<'a> = &'a dyn Fn(&[u8]) -> Option<()>;
            for (record, count_at, parse) in [
                (&ahci_record, 24, &ahci as Parse),
                (&pv_record, 44, &pv as Parse),
            ] {
                assert!(parse(record).is_some());
                let nsegs_at = count_at + 4 + 28;
                assert_eq!(record[nsegs_at], 1, "one segment");
                let mut c = record.clone();
                c[nsegs_at] = disk_proto::MAX_SEGMENTS as u8 + 1;
                assert!(parse(&c).is_none(), "nsegs > MAX_SEGMENTS");
                let mut c = record.clone();
                let left = (record.len() - count_at - 4) as u32;
                c[count_at..count_at + 4].copy_from_slice(&(left + 1).to_le_bytes());
                assert!(parse(&c).is_none(), "a count larger than the bytes left");
            }
        });
    }

    /// One VM's vAHCI and PV clients read into one guest page: each
    /// delegates it into its own window at the server, so the second
    /// delegation does not collide with the first.
    #[test]
    fn vahci_and_pv_clients_read_into_one_page() {
        let one_page = [(16, 0x3_8000, 2), (40, 0x3_8400, 2), (48, 0x3_8800, 4)];
        let mut sys = staged_vm(one_page);
        let vmm = sys.vmm;
        sys.k.invoke_component::<Vmm, _>(vmm, ring_doorbells);
        assert_read(&mut sys, one_page);
    }
}
