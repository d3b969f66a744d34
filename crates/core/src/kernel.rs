//! The kernel proper: object lifecycle, the IPC path with
//! scheduling-context donation, the per-CPU scheduler loop, VM-exit
//! routing, delegation and recursive revocation with hardware-table
//! mirroring, interrupt-to-semaphore delivery, and the IOMMU policy.
//!
//! User-level code is a set of [`Component`]s. The kernel dispatches
//! into them through portals (a NOVA `call`) and semaphore signals;
//! they call back through the typed hypercall interface. Every
//! boundary crossing is charged with the measured costs of Figure 8.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};

use nova_hw::cpu::run_guest;
use nova_hw::fault::FaultKind;
use nova_hw::iommu::Iommu;
use nova_hw::machine::Machine;
use nova_hw::mem::PhysMem;
use nova_hw::vmx::{mtd, ExitReason, Injection, PagingVirt, Vmcs};
use nova_hw::Cycles;
use nova_trace::{Kind as TraceKind, PD_NONE};
use nova_x86::insn::OpSize;
use nova_x86::paging::{Access, PAGE_SIZE};
use nova_x86::reg::Regs;

use crate::cap::{CapSel, Capability, Perms};
use crate::counters::Counters;
use crate::hostpt::{FrameAllocator, NestedTable};
use crate::hypercall::{HcErr, HcReply, Hypercall};
use crate::mdb::MapDb;
use crate::obj::{
    Activation, Ec, EcId, EcKind, MemMapping, MemRights, MemSpace, ObjRef, Objects, Pd, PdId,
    Portal, PtId, Sc, ScId, Semaphore, SmId, VmPaging, LEAF_ENTRIES,
};
use crate::sched::Scheduler;
use crate::utcb::{Utcb, VmExitMsg};
use crate::vtlb::{self, CrOutcome, ShadowCache, VtlbOutcome};

/// Component handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CompId(pub usize);

/// The identity of the execution context a component callback runs as.
#[derive(Clone, Copy, Debug)]
pub struct CompCtx {
    /// The component's protection domain.
    pub pd: PdId,
    /// The executing EC.
    pub ec: EcId,
    /// The component itself.
    pub comp: CompId,
}

/// A deprivileged user-level component (root partition manager, VMM,
/// driver, service). The run-to-completion analogue of a NOVA
/// user process: portal calls arrive as [`Component::on_call`],
/// semaphore signals as [`Component::on_signal`].
pub trait Component {
    /// Diagnostic name.
    fn name(&self) -> &str;

    /// Invoked once when the system starts (boot protocol).
    fn on_start(&mut self, _k: &mut Kernel, _ctx: CompCtx) {}

    /// A portal owned by one of this component's ECs was called.
    /// The reply is written into `utcb` in place.
    fn on_call(&mut self, k: &mut Kernel, ctx: CompCtx, portal_id: u64, utcb: &mut Utcb);

    /// A semaphore this component's EC is bound to was signalled.
    fn on_signal(&mut self, _k: &mut Kernel, _ctx: CompCtx, _sm: SmId) {}

    /// Typed access for harnesses and tests.
    fn as_any(&mut self) -> &mut dyn std::any::Any;
}

/// Kernel-wide configuration (the Figure 5 ablation knobs).
#[derive(Clone, Copy, Debug)]
pub struct KernelConfig {
    /// Use VPID/ASID TLB tags when the CPU supports them.
    pub use_tags: bool,
    /// Use large host pages when mirroring VM memory into nested
    /// tables.
    pub host_large_pages: bool,
    /// Frequency of the hypervisor's scheduling timer (the physical
    /// PIT it claims at boot); `None` disables the tick. Each tick
    /// that lands while a guest runs is a hardware-interrupt VM exit
    /// (the dominant interrupt class of Table 2).
    pub scheduler_timer_hz: Option<u32>,
    /// Kernel objects (PDs, ECs, SCs, portals, semaphores) any single
    /// domain may create. Creation beyond the quota fails with
    /// [`HcErr::QuotaExceeded`] — graceful backpressure instead of
    /// kernel memory exhaustion by a hostile or runaway component.
    pub obj_quota: usize,
    /// Shadow page tables cached per virtual CPU, keyed by guest CR3:
    /// a CR3 reload that hits the cache switches shadow roots instead
    /// of rebuilding (1 reproduces flush-per-switch behaviour).
    pub vtlb_cache_slots: usize,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            use_tags: true,
            host_large_pages: true,
            scheduler_timer_hz: None,
            obj_quota: 4096,
            vtlb_cache_slots: 8,
        }
    }
}

/// Hypervisor private memory (page-table frames), in bytes, reserved
/// at the top of RAM.
pub const HV_MEM: u64 = 16 << 20;

/// Largest page count a single delegate/revoke hypercall may name:
/// enough for any realistic RAM range (64 GB of 4 KB pages), small
/// enough that a hostile count cannot stall the kernel walking it.
const MAX_RANGE_PAGES: u64 = 1 << 24;

/// Selectors a capability may be installed at: a capability table grows
/// to the selector it is given, so a hostile one must not size it.
const MAX_SEL: CapSel = 1 << 16;

/// Longest timer period or watchdog deadline (about a day at 3 GHz):
/// a longer one could run the clock past what it counts.
const MAX_PERIOD: Cycles = 1 << 48;

/// Why [`Kernel::run`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunOutcome {
    /// Software requested shutdown with this code.
    Shutdown(u8),
    /// Nothing runnable and no pending events.
    Idle,
    /// The cycle budget elapsed.
    Budget,
}

/// First capability selector of the VM-exit portal tables in a VM
/// domain's capability space. Every virtual CPU has its own set of
/// VM-exit portals (Section 5.2):
/// selector = base + vcpu_index * stride + exit-reason index.
pub const EXIT_PORTAL_BASE: CapSel = 0;

/// Selector stride between the per-vCPU exit-portal tables.
pub const EXIT_PORTAL_STRIDE: CapSel = 32;

/// Well-known selector where every loaded component finds a capability
/// for its own main execution context (so it can create its SC and
/// portals). VM domains have no components, so this never collides
/// with the exit-portal table.
pub const SEL_SELF_EC: CapSel = 0x3f;

/// Well-known selector of a component's own protection-domain
/// capability (for creating further execution contexts inside it).
pub const SEL_SELF_PD: CapSel = 0x3e;

/// Cycles charged for the hypervisor's internal handling of an
/// interrupt exit (acknowledge, semaphore up, wakeup).
const IRQ_KERNEL_CYCLES: Cycles = 300;

/// The microhypervisor kernel plus the machine it owns.
pub struct Kernel {
    /// The hardware.
    pub machine: Machine,
    /// Kernel objects.
    pub obj: Objects,
    /// Event counters (Table 2).
    pub counters: Counters,
    /// Kernel configuration.
    pub config: KernelConfig,
    /// The root partition manager's domain.
    pub root_pd: PdId,
    /// Frame allocator over hypervisor memory.
    pub alloc: FrameAllocator,

    sched: Scheduler,
    mem_db: MapDb<u64>,
    io_db: MapDb<u16>,
    /// Capability selectors, as `u64`.
    cap_db: MapDb<u64>,
    components: Vec<Option<Box<dyn Component>>>,
    nested: HashMap<PdId, NestedTable>,
    shadows: HashMap<EcId, ShadowCache>,
    large_chunks: HashMap<PdId, HashSet<u64>>,
    gsi_owner: HashMap<u8, PdId>,
    gsi_sm: HashMap<u8, SmId>,
    timers: Vec<KernelTimer>,
    watchdogs: Vec<Watchdog>,
    next_vpid: u16,
}

/// A deadman watchdog on a protection domain: if the domain shows no
/// sign of life (any hypercall) for `timeout` cycles, or faults, the
/// kernel signals `sm` once so a supervisor can tear the domain down
/// and restart it. The latch (`fired`) prevents signal storms; the
/// supervisor re-arms after recovery.
struct Watchdog {
    pd: PdId,
    sm: SmId,
    timeout: Cycles,
    stamp: Cycles,
    fired: bool,
}

/// A hypervisor timer signalling a semaphore: the mechanism behind
/// user-level virtual timers (the hypervisor owns the physical
/// scheduling timer; components multiplex it through semaphores).
struct KernelTimer {
    sm: SmId,
    due: Cycles,
    period: Cycles,
}

/// Fault code the kernel files when it crashes a VMM via injected
/// [`FaultKind::VmmCrash`], so supervisors can tell an injected death
/// from an organic one in the trace.
pub const VMM_CRASH_CODE: u64 = 0xc4a5;

/// The architectural state of one virtual CPU, as captured by
/// [`Kernel::export_vcpu`] for a supervisor checkpoint and replayed by
/// [`Kernel::import_vcpu`] into a fresh vCPU after a VMM microreboot.
///
/// Only *guest-owned* state is here. Host-side VMCS configuration
/// (intercepts, passthrough bitmaps, paging mode, VPID) is policy the
/// respawned VMM re-derives from its own configuration, and the vTLB
/// shadow tables are a cache the kernel rebuilds on demand — neither
/// is captured (DESIGN.md §6e).
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

impl VcpuSnapshot {
    /// Serialized size in bytes: 16 little-endian u32 register words,
    /// the u64 TSC offset, five flag bytes, and a 7-byte injection
    /// record (present, vector, error code, error-code present).
    pub const BYTES: usize = 16 * 4 + 8 + 5 + 7;

    /// Deterministic little-endian serialization.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::BYTES);
        self.write_to(&mut out);
        out
    }

    /// Appends the [`VcpuSnapshot::BYTES`]-byte serialization to `out`.
    pub fn write_to(&self, out: &mut Vec<u8>) {
        out.extend(self.bytes());
    }

    /// The serialization, byte by byte.
    fn bytes(&self) -> impl Iterator<Item = u8> {
        let (r, inj) = (&self.regs, self.injection);
        let words = [r.eip, r.eflags, r.cr0, r.cr2, r.cr3, r.cr4, r.idt_base];
        let words = r.gpr.into_iter().chain(words).chain([r.idt_limit as u32]);
        let flags = [self.halted, self.sti_shadow, self.intwin_exit];
        let flags = flags.into_iter().chain([self.recall_pending, self.blocked]);
        let code = inj.and_then(|i| i.error_code);
        (words.flat_map(u32::to_le_bytes))
            .chain(self.tsc_offset.to_le_bytes())
            .chain(flags.chain([inj.is_some()]).map(u8::from))
            .chain([inj.map_or(0, |i| i.vector)])
            .chain(code.unwrap_or(0).to_le_bytes())
            .chain([code.is_some() as u8])
    }

    /// Inverse of [`VcpuSnapshot::to_bytes`]; `None` on a short record
    /// or one `to_bytes` would not have written (a flag byte other than
    /// 0 or 1, say), so that whatever decodes encodes back to itself.
    pub fn from_bytes(b: &[u8]) -> Option<VcpuSnapshot> {
        if b.len() < Self::BYTES {
            return None;
        }
        let u32_at = |o: usize| -> u32 { u32::from_le_bytes([b[o], b[o + 1], b[o + 2], b[o + 3]]) };
        let mut regs = Regs::default();
        for gpr in 0..8 {
            regs.gpr[gpr] = u32_at(gpr * 4);
        }
        regs.eip = u32_at(32);
        regs.eflags = u32_at(36);
        regs.cr0 = u32_at(40);
        regs.cr2 = u32_at(44);
        regs.cr3 = u32_at(48);
        regs.cr4 = u32_at(52);
        regs.idt_base = u32_at(56);
        regs.idt_limit = u32_at(60) as u16;
        let tsc_offset =
            u64::from_le_bytes([b[64], b[65], b[66], b[67], b[68], b[69], b[70], b[71]]);
        let injection = (b[77] != 0).then(|| Injection {
            vector: b[78],
            error_code: (b[83] != 0).then(|| u32_at(79)),
        });
        let snap = VcpuSnapshot {
            regs,
            halted: b[72] != 0,
            sti_shadow: b[73] != 0,
            injection,
            intwin_exit: b[74] != 0,
            recall_pending: b[75] != 0,
            tsc_offset,
            blocked: b[76] != 0,
        };
        snap.bytes()
            .eq(b[..Self::BYTES].iter().copied())
            .then_some(snap)
    }
}

impl Kernel {
    /// Boots the microhypervisor on `machine`: claims hypervisor
    /// memory and security-critical devices, then creates the root
    /// protection domain holding capabilities for every remaining
    /// resource (Section 6).
    pub fn new(mut machine: Machine, config: KernelConfig) -> Kernel {
        let ram = machine.mem.size() as u64;
        assert!(HV_MEM < ram, "hypervisor memory exceeds RAM");
        let hv_base = ram - HV_MEM;
        let alloc = FrameAllocator::new(hv_base, HV_MEM);

        // The hypervisor restricts each device to its wired interrupt
        // vector through the IOMMU (Section 4.2: "restricts the
        // interrupt vectors available to drivers").
        for (dev, line) in machine.wired_irqs() {
            machine.bus.iommu.restrict_irq(dev, line);
        }

        // The hypervisor drives the platform interrupt controller and
        // the scheduling timer itself: unmask everything; interrupts
        // are routed to semaphores.
        machine.bus.pic.io_write(nova_hw::pic::MASTER_DATA, 0);
        machine.bus.pic.io_write(nova_hw::pic::SLAVE_DATA, 0);
        if let Some(hz) = config.scheduler_timer_hz {
            let divisor = nova_hw::pit::Pit8254::divisor_for(hz as u64);
            let now = machine.clock;
            machine
                .bus
                .io_write(&mut machine.mem, now, 0x43, OpSize::Byte, 0x34);
            machine.bus.io_write(
                &mut machine.mem,
                now,
                0x40,
                OpSize::Byte,
                divisor as u32 & 0xff,
            );
            machine.bus.io_write(
                &mut machine.mem,
                now,
                0x40,
                OpSize::Byte,
                (divisor >> 8) as u32,
            );
        }

        let mut obj = Objects::default();
        let mut root = Pd::new("root");

        // Root owns all I/O ports except the interrupt controllers
        // (PIC) and the scheduling timer (PIT).
        use nova_hw::{pic, pit};
        root.io.grant_range(0, 1 << 16);
        let pic_ports = [
            pic::MASTER_CMD,
            pic::MASTER_DATA,
            pic::SLAVE_CMD,
            pic::SLAVE_DATA,
        ];
        for port in pic_ports.into_iter().chain(pit::CH0..=pit::MODE) {
            root.io.revoke(port);
        }

        let cpus = machine.cpus.len();
        let sched = Scheduler::new(cpus);

        // Root owns all RAM below the hypervisor region, identity
        // mapped, and the device MMIO windows. Its spaces say so and
        // nothing else does: the mapping databases start empty and
        // learn of a resource when root first delegates it.
        let mut identity = |base: u64, pages: u64, rights: MemRights| {
            let first = base / PAGE_SIZE as u64;
            root.mem.map_run(first, pages, |i| MemMapping {
                hpa: (first + i) * PAGE_SIZE as u64,
                rights,
            });
        };
        identity(0, hv_base / PAGE_SIZE as u64, MemRights::RW_DMA);
        identity(nova_hw::machine::AHCI_BASE, 4, MemRights::RW);
        identity(nova_hw::machine::NIC_BASE, 4, MemRights::RW);
        // VGA text window.
        identity(nova_hw::vga::VGA_BASE, 1, MemRights::RW);

        let root_id = obj.add_pd(root);

        let mut gsi_owner = HashMap::new();
        for gsi in 0..16u8 {
            gsi_owner.insert(gsi, root_id);
        }

        Kernel {
            machine,
            obj,
            counters: Counters::new(),
            config,
            root_pd: root_id,
            alloc,
            sched,
            mem_db: MapDb::new(),
            io_db: MapDb::new(),
            cap_db: MapDb::new(),
            components: Vec::new(),
            nested: HashMap::new(),
            shadows: HashMap::new(),
            large_chunks: HashMap::new(),
            gsi_owner,
            gsi_sm: HashMap::new(),
            timers: Vec::new(),
            watchdogs: Vec::new(),
            next_vpid: 1,
        }
    }

    // ------------------------------------------------------------------
    // Component management (boot-time program loading)
    // ------------------------------------------------------------------

    /// Loads a component into a protection domain, creating its main
    /// thread EC on `cpu`. This models program loading, which sits
    /// outside the hypercall ABI.
    pub fn load_component(
        &mut self,
        pd: PdId,
        cpu: usize,
        comp: Box<dyn Component>,
    ) -> (CompId, EcId) {
        self.components.push(Some(comp));
        let comp_id = CompId(self.components.len() - 1);
        let ec = self.obj.add_ec(Ec {
            pd,
            kind: EcKind::Thread,
            cpu,
            utcb: Utcb::new(),
            sc: None,
            blocked: false,
            busy: false,
            comp: Some(comp_id),
            vcpu_index: None,
            activations: VecDeque::new(),
        });
        self.install_cap(
            pd,
            SEL_SELF_EC,
            Capability {
                obj: ObjRef::Ec(ec),
                perms: Perms::EC_CTRL.union(Perms::DELEGATE),
            },
        );
        self.install_cap(
            pd,
            SEL_SELF_PD,
            Capability {
                obj: ObjRef::Pd(pd),
                perms: Perms::CTRL,
            },
        );
        (comp_id, ec)
    }

    /// Runs a component's `on_start` (boot protocol).
    pub fn start_component(&mut self, comp: CompId, ec: EcId) {
        let ctx = CompCtx {
            pd: self.obj.ec(ec).pd,
            ec,
            comp,
        };
        self.with_component(comp, |c, k| c.on_start(k, ctx));
    }

    /// Invokes a closure on a typed component with kernel access
    /// (the component is temporarily taken out of the registry, as in
    /// portal dispatch). Used by harnesses to drive component-side
    /// surfaces such as the VMM's virtual keyboard.
    pub fn invoke_component<T: 'static, R>(
        &mut self,
        comp: CompId,
        f: impl FnOnce(&mut T, &mut Kernel) -> R,
    ) -> Option<R> {
        let mut c = self.components.get_mut(comp.0)?.take()?;
        let r = c.as_any().downcast_mut::<T>().map(|t| f(t, self));
        self.components[comp.0] = Some(c);
        r
    }

    /// Typed access to a component (harness/test use).
    pub fn component_mut<T: 'static>(&mut self, comp: CompId) -> Option<&mut T> {
        self.components
            .get_mut(comp.0)?
            .as_mut()?
            .as_any()
            .downcast_mut::<T>()
    }

    fn with_component<R>(
        &mut self,
        comp: CompId,
        f: impl FnOnce(&mut dyn Component, &mut Kernel) -> R,
    ) -> Option<R> {
        let mut c = self.components.get_mut(comp.0)?.take()?;
        let r = f(c.as_mut(), self);
        self.components[comp.0] = Some(c);
        Some(r)
    }

    // ------------------------------------------------------------------
    // Cycle accounting helpers
    // ------------------------------------------------------------------

    /// The current cycle.
    pub fn now(&self) -> Cycles {
        self.machine.clock
    }

    /// Charges modeled component work (instruction emulation, device
    /// state-machine updates) to the clock.
    pub fn charge(&mut self, cycles: Cycles) {
        let at = self.machine.clock;
        self.machine.clock += cycles;
        self.counters.cycles_emulation += cycles;
        self.machine
            .bus
            .trace
            .emit(0, PD_NONE, TraceKind::CostEmulation, cycles, at);
    }

    fn charge_kernel(&mut self, cycles: Cycles) {
        let at = self.machine.clock;
        self.machine.clock += cycles;
        self.counters.cycles_kernel += cycles;
        self.machine
            .bus
            .trace
            .emit(0, PD_NONE, TraceKind::CostKernel, cycles, at);
    }

    fn charge_ipc(&mut self, cycles: Cycles) {
        let at = self.machine.clock;
        self.machine.clock += cycles;
        self.counters.cycles_ipc += cycles;
        self.machine
            .bus
            .trace
            .emit(0, PD_NONE, TraceKind::CostIpc, cycles, at);
    }

    /// Counts one event that the metrics registry attributes per
    /// `domain` under `metric`: `field` of the aggregate counters
    /// always, the metrics cell while tracing is on. The one way such
    /// a pair is bumped, so the two cannot drift apart.
    #[inline]
    pub fn count(
        &mut self,
        field: impl FnOnce(&mut Counters) -> &mut u64,
        metric: &'static str,
        domain: u64,
    ) {
        *field(&mut self.counters) += 1;
        if self.machine.bus.trace.active() {
            self.machine.bus.trace.metrics.add(metric, domain, 1);
        }
    }

    /// Shorthand for emitting a kernel tracepoint at the current cycle.
    #[inline]
    fn trace_emit(&mut self, pd: u16, kind: TraceKind, detail: u64) {
        let at = self.machine.clock;
        self.machine.bus.trace.emit(0, pd, kind, detail, at);
    }

    /// Span begin/end at the current cycle.
    #[inline]
    fn trace_emit_span(&mut self, pd: u16, kind: TraceKind, detail: u64, begin: bool) {
        let at = self.machine.clock;
        if begin {
            self.machine.bus.trace.begin(0, pd, kind, detail, at);
        } else {
            self.machine.bus.trace.end(0, pd, kind, detail, at);
        }
    }

    // ------------------------------------------------------------------
    // Capability helpers
    // ------------------------------------------------------------------

    fn lookup(&self, pd: PdId, sel: CapSel, need: Perms) -> Result<Capability, HcErr> {
        let cap = self.obj.pd(pd).caps.get(sel).ok_or(HcErr::BadCap)?;
        if !cap.perms.allows(need) {
            return Err(HcErr::BadPerm);
        }
        Ok(cap)
    }

    fn lookup_pd(&self, pd: PdId, sel: CapSel, need: Perms) -> Result<PdId, HcErr> {
        match self.lookup(pd, sel, need)?.obj {
            ObjRef::Pd(id) => Ok(id),
            _ => Err(HcErr::BadCap),
        }
    }

    /// `pd`, unless it was destroyed: its creator still holds the
    /// capability, but a wreck takes no resource, EC or device.
    fn live(&self, pd: PdId) -> Result<PdId, HcErr> {
        if self.obj.pd(pd).dying {
            return Err(HcErr::BadCap);
        }
        Ok(pd)
    }

    fn lookup_ec(&self, pd: PdId, sel: CapSel, need: Perms) -> Result<EcId, HcErr> {
        match self.lookup(pd, sel, need)?.obj {
            ObjRef::Ec(id) => Ok(id),
            _ => Err(HcErr::BadCap),
        }
    }

    fn lookup_sm(&self, pd: PdId, sel: CapSel, need: Perms) -> Result<SmId, HcErr> {
        match self.lookup(pd, sel, need)?.obj {
            ObjRef::Sm(id) => Ok(id),
            _ => Err(HcErr::BadCap),
        }
    }

    /// Charges one kernel object against `pd`'s creation quota, or
    /// rejects with [`HcErr::QuotaExceeded`]. Called before any
    /// allocation, so a rejected hypercall leaves no partial state.
    fn charge_quota(&mut self, pd: PdId) -> Result<(), HcErr> {
        if self.obj.pd(pd).kobjs >= self.config.obj_quota {
            self.counters.quota_rejections += 1;
            return Err(HcErr::QuotaExceeded);
        }
        self.obj.pd_mut(pd).kobjs += 1;
        Ok(())
    }

    fn install_cap(&mut self, pd: PdId, sel: CapSel, cap: Capability) {
        self.obj.pd_mut(pd).caps.set(sel, cap);
    }

    // ------------------------------------------------------------------
    // Hypercalls
    // ------------------------------------------------------------------

    /// `SmBind` for a component that keeps the semaphore's identity to
    /// recognise its signals by: binds the calling EC to the semaphore
    /// at `sel` and returns the id the caller's own capability names.
    pub fn bind_sm(&mut self, ctx: CompCtx, sel: CapSel) -> Result<SmId, HcErr> {
        self.hypercall(ctx, Hypercall::SmBind { sm: sel })?;
        self.lookup_sm(ctx.pd, sel, Perms::DOWN)
    }

    /// `CreateSm` (count 0) at `dst`, then [`Kernel::bind_sm`].
    pub fn create_bound_sm(&mut self, ctx: CompCtx, dst: CapSel) -> Result<SmId, HcErr> {
        self.hypercall(ctx, Hypercall::CreateSm { count: 0, dst })?;
        self.bind_sm(ctx, dst)
    }

    /// Executes a hypercall on behalf of `ctx`. Charges the
    /// user/kernel boundary crossing.
    pub fn hypercall(&mut self, ctx: CompCtx, hc: Hypercall) -> Result<HcReply, HcErr> {
        self.counters.hypercalls += 1;
        // A hypercall arriving outside any request window (no current
        // context) is itself a request origin; one arriving inside a
        // window (e.g. from the VMM while it services an exit) stays
        // on the originating request's context.
        if self.machine.bus.trace.current_ctx() == nova_trace::CTX_NONE {
            self.machine.bus.trace.alloc_ctx();
        }
        self.trace_emit(ctx.pd.0 as u16, TraceKind::Hypercall, hc.number());
        // Any hypercall is a sign of life for watchdogs on the caller.
        self.watchdog_stamp(ctx.pd);
        let ee = self.machine.cost.syscall_entry_exit;
        self.charge_kernel(ee);
        let caller = ctx.pd;
        if let Hypercall::CreatePd { dst, .. }
        | Hypercall::CreateEc { dst, .. }
        | Hypercall::CreateSc { dst, .. }
        | Hypercall::CreatePt { dst, .. }
        | Hypercall::CreateSm { dst, .. }
        | Hypercall::DelegateCap { hot: dst, .. } = &hc
        {
            if *dst >= MAX_SEL {
                return Err(HcErr::BadParam);
            }
        }
        match hc {
            Hypercall::CreatePd { name, vm, dst } => {
                self.charge_quota(caller)?;
                let mut pd = Pd::new(name);
                pd.vm_paging = vm;
                pd.large_pages = self.config.host_large_pages;
                let id = self.obj.add_pd(pd);
                if let Some(VmPaging::Nested(fmt)) = vm {
                    let t = NestedTable::new(fmt, &mut self.alloc, &mut self.machine.mem);
                    self.obj.pd_mut(id).nested_root = Some(t.root);
                    self.nested.insert(id, t);
                }
                self.install_cap(
                    caller,
                    dst,
                    Capability {
                        obj: ObjRef::Pd(id),
                        perms: Perms::ALL,
                    },
                );
                Ok(HcReply::Ok)
            }
            Hypercall::DestroyPd { pd } => {
                let target = self.lookup_pd(caller, pd, Perms::CTRL)?;
                if target == self.root_pd {
                    return Err(HcErr::BadParam);
                }
                self.destroy_pd(target);
                Ok(HcReply::Ok)
            }
            Hypercall::CreateEc { pd, vcpu, cpu, dst } => {
                let target = self.live(self.lookup_pd(caller, pd, Perms::CTRL)?)?;
                if cpu >= self.machine.cpus.len() {
                    return Err(HcErr::BadParam);
                }
                self.charge_quota(caller)?;
                let kind = if vcpu {
                    let paging = self.obj.pd(target).vm_paging.ok_or(HcErr::BadParam)?;
                    let tagged = self.config.use_tags && self.machine.cost.has_tagged_tlb;
                    let vmcs = match paging {
                        VmPaging::Nested(fmt) => {
                            let vpid = if tagged {
                                let v = self.next_vpid;
                                self.next_vpid += 1;
                                v
                            } else {
                                0
                            };
                            let root = self.obj.pd(target).nested_root.ok_or(HcErr::BadParam)?;
                            Box::new(Vmcs::new(PagingVirt::Nested { root, fmt }, vpid))
                        }
                        VmPaging::Shadow => {
                            // Each cached shadow space owns its own TLB
                            // tag, so the vCPU claims a consecutive
                            // block of VPIDs.
                            let slots = self.config.vtlb_cache_slots;
                            let base_vpid = if tagged {
                                let v = self.next_vpid;
                                self.next_vpid += ShadowCache::vpid_span(slots);
                                v
                            } else {
                                0
                            };
                            let cache = ShadowCache::new(
                                &mut self.machine.mem,
                                &mut self.alloc,
                                slots,
                                base_vpid,
                            );
                            let vmcs = Box::new(Vmcs::new_shadow(
                                cache.active_root(),
                                cache.active_vpid(),
                            ));
                            // Stash the cache keyed by the EC id we are
                            // about to create.
                            let ec_id = EcId(self.obj.ecs.len());
                            self.shadows.insert(ec_id, cache);
                            vmcs
                        }
                    };
                    EcKind::Vcpu { vmcs }
                } else {
                    EcKind::Thread
                };
                let id = self.obj.add_ec(Ec {
                    pd: target,
                    kind,
                    cpu,
                    utcb: Utcb::new(),
                    sc: None,
                    blocked: false,
                    busy: false,
                    // Thread ECs created by a component belong to it.
                    comp: (!vcpu).then_some(ctx.comp),
                    vcpu_index: vcpu.then(|| self.obj.pd(target).vcpus.len()),
                    activations: VecDeque::new(),
                });
                if vcpu {
                    self.obj.pd_mut(target).vcpus.push(id);
                }
                self.install_cap(
                    caller,
                    dst,
                    Capability {
                        obj: ObjRef::Ec(id),
                        perms: Perms::EC_CTRL.union(Perms::DELEGATE),
                    },
                );
                Ok(HcReply::Ok)
            }
            Hypercall::CreateSc {
                ec,
                prio,
                quantum,
                dst,
            } => {
                let ec_id = self.lookup_ec(caller, ec, Perms::EC_CTRL)?;
                if quantum == 0 {
                    return Err(HcErr::BadParam);
                }
                self.charge_quota(caller)?;
                let sc = self.obj.add_sc(Sc {
                    ec: ec_id,
                    prio,
                    quantum,
                    left: quantum,
                });
                self.obj.ec_mut(ec_id).sc = Some(sc);
                let cpu = self.obj.ec(ec_id).cpu;
                // vCPUs become runnable immediately; thread ECs run on
                // activations.
                if matches!(self.obj.ec(ec_id).kind, EcKind::Vcpu { .. }) {
                    self.sched.cpu(cpu).enqueue(sc, prio);
                }
                self.install_cap(
                    caller,
                    dst,
                    Capability {
                        obj: ObjRef::Sc(sc),
                        perms: Perms::SC_CTRL.union(Perms::DELEGATE),
                    },
                );
                Ok(HcReply::Ok)
            }
            Hypercall::CreatePt { ec, mtd, id, dst } => {
                let ec_id = self.lookup_ec(caller, ec, Perms::EC_CTRL)?;
                if self.obj.ec(ec_id).vmcs().is_some() {
                    return Err(HcErr::BadParam); // handler must be a thread
                }
                self.charge_quota(caller)?;
                let pt = self.obj.add_pt(Portal { ec: ec_id, mtd, id });
                self.install_cap(
                    caller,
                    dst,
                    Capability {
                        obj: ObjRef::Pt(pt),
                        perms: Perms::CALL.union(Perms::DELEGATE),
                    },
                );
                Ok(HcReply::Ok)
            }
            Hypercall::PtWindow { pt, base, count } => {
                let ObjRef::Pt(pt) = self.lookup(caller, pt, Perms::NONE)?.obj else {
                    return Err(HcErr::BadCap);
                };
                if self.obj.ec(self.obj.pt(pt).ec).pd != caller {
                    return Err(HcErr::NotOwner);
                }
                if count > MAX_RANGE_PAGES || base.checked_add(count).is_none() {
                    return Err(HcErr::BadParam);
                }
                self.obj.windows.insert(pt, (base, count));
                Ok(HcReply::Ok)
            }
            Hypercall::CreateSm { count, dst } => {
                self.charge_quota(caller)?;
                let sm = self.obj.add_sm(Semaphore {
                    count,
                    bound: None,
                    gsi: None,
                });
                self.install_cap(
                    caller,
                    dst,
                    Capability {
                        obj: ObjRef::Sm(sm),
                        perms: Perms::UP.union(Perms::DOWN).union(Perms::DELEGATE),
                    },
                );
                Ok(HcReply::Ok)
            }
            Hypercall::DelegateMem {
                dst_pd,
                base,
                count,
                rights,
                hot,
            } => {
                let target = self.lookup_pd(caller, dst_pd, Perms::CTRL)?;
                self.delegate_mem(caller, target, base, count, rights, hot)?;
                Ok(HcReply::Ok)
            }
            Hypercall::DelegateIo {
                dst_pd,
                base,
                count,
            } => {
                let target = self.lookup_pd(caller, dst_pd, Perms::CTRL)?;
                self.delegate_io(caller, target, base, count)?;
                Ok(HcReply::Ok)
            }
            Hypercall::DelegateCap {
                dst_pd,
                sel,
                perms,
                hot,
            } => {
                let target = self.lookup_pd(caller, dst_pd, Perms::CTRL)?;
                self.delegate_cap(caller, target, sel, perms, hot)?;
                Ok(HcReply::Ok)
            }
            Hypercall::RevokeMem {
                base,
                count,
                include_self,
            } => {
                if count > MAX_RANGE_PAGES || base.checked_add(count).is_none() {
                    return Err(HcErr::BadParam);
                }
                self.revoke_mem_ranges(caller, &[(base, count)], include_self);
                Ok(HcReply::Ok)
            }
            Hypercall::RevokeIo {
                base,
                count,
                include_self,
            } => {
                if u32::from(base) + u32::from(count) > 0x1_0000 {
                    return Err(HcErr::BadParam);
                }
                self.revoke_io_ranges(caller, &[(base.into(), count.into())], include_self);
                Ok(HcReply::Ok)
            }
            Hypercall::RevokeCap { sel, include_self } => {
                self.revoke_cap(caller, sel, include_self);
                Ok(HcReply::Ok)
            }
            Hypercall::SmUp { sm } => {
                let sm_id = self.lookup_sm(caller, sm, Perms::UP)?;
                self.sm_up(sm_id);
                Ok(HcReply::Ok)
            }
            Hypercall::SmDown { sm } => {
                let sm_id = self.lookup_sm(caller, sm, Perms::DOWN)?;
                let s = self.obj.sm_mut(sm_id);
                if s.count > 0 {
                    s.count -= 1;
                    Ok(HcReply::Down { acquired: true })
                } else {
                    Ok(HcReply::Down { acquired: false })
                }
            }
            Hypercall::SmBind { sm } => {
                let sm_id = self.lookup_sm(caller, sm, Perms::DOWN)?;
                self.obj.sm_mut(sm_id).bound = Some(ctx.ec);
                Ok(HcReply::Ok)
            }
            Hypercall::EcSetState { ec, regs, resume } => {
                let ec_id = self.lookup_ec(caller, ec, Perms::EC_CTRL)?;
                let ec_obj = self.obj.ec_mut(ec_id);
                let Some(vmcs) = ec_obj.vmcs_mut() else {
                    return Err(HcErr::BadParam);
                };
                vmcs.guest = regs;
                vmcs.halted = false;
                if resume {
                    self.unblock(ec_id);
                } else {
                    self.obj.ec_mut(ec_id).blocked = true;
                }
                Ok(HcReply::Ok)
            }
            Hypercall::EcCtrlVm {
                ec,
                hlt_exit,
                extint_exit,
                passthrough,
            } => {
                let ec_id = self.lookup_ec(caller, ec, Perms::EC_CTRL)?;
                let pd = self.obj.ec(ec_id).pd;
                for &(first, count) in &passthrough {
                    for p in first..first.saturating_add(count) {
                        if !self.obj.pd(pd).io.allowed(p) {
                            return Err(HcErr::BadPerm);
                        }
                    }
                }
                let Some(vmcs) = self.obj.ec_mut(ec_id).vmcs_mut() else {
                    return Err(HcErr::BadParam);
                };
                vmcs.intercept_hlt = hlt_exit;
                vmcs.intercept_extint = extint_exit;
                for (first, count) in passthrough {
                    vmcs.passthrough_ports(first, count);
                }
                Ok(HcReply::Ok)
            }
            Hypercall::EcRecall { ec } => {
                let ec_id = self.lookup_ec(caller, ec, Perms::EC_CTRL)?;
                let vmcs = self.obj.ec_mut(ec_id).vmcs_mut().ok_or(HcErr::BadParam)?;
                vmcs.recall_pending = true;
                Ok(HcReply::Ok)
            }
            Hypercall::EcResume { ec, inject, intwin } => {
                let ec_id = self.lookup_ec(caller, ec, Perms::EC_CTRL)?;
                self.obj.ec(ec_id).vmcs().ok_or(HcErr::BadParam)?;
                if let Some(inj) = inject {
                    self.inject_virq(ec_id, inj);
                }
                if intwin {
                    if let Some(vmcs) = self.obj.ec_mut(ec_id).vmcs_mut() {
                        vmcs.intwin_exit = true;
                    }
                }
                self.unblock(ec_id);
                Ok(HcReply::Ok)
            }
            Hypercall::AssignGsi { sm, gsi } => {
                if self.gsi_owner.get(&gsi) != Some(&caller) {
                    return Err(HcErr::NotOwner);
                }
                let sm_id = self.lookup_sm(caller, sm, Perms::UP)?;
                self.obj.sm_mut(sm_id).gsi = Some(gsi);
                self.gsi_sm.insert(gsi, sm_id);
                Ok(HcReply::Ok)
            }
            Hypercall::DelegateGsi { dst_pd, gsi } => {
                if self.gsi_owner.get(&gsi) != Some(&caller) {
                    return Err(HcErr::NotOwner);
                }
                let target = self.live(self.lookup_pd(caller, dst_pd, Perms::CTRL)?)?;
                self.gsi_owner.insert(gsi, target);
                Ok(HcReply::Ok)
            }
            Hypercall::SetTimer { sm, period } => {
                let sm_id = self.lookup_sm(caller, sm, Perms::UP)?;
                if period > MAX_PERIOD {
                    return Err(HcErr::BadParam);
                }
                self.timers.retain(|t| t.sm != sm_id);
                if period > 0 {
                    self.timers.push(KernelTimer {
                        sm: sm_id,
                        due: self.machine.clock + period,
                        period,
                    });
                }
                Ok(HcReply::Ok)
            }
            Hypercall::AssignDev { pd, device } => {
                if caller != self.root_pd {
                    return Err(HcErr::NotOwner);
                }
                let target = self.live(self.lookup_pd(caller, pd, Perms::CTRL)?)?;
                self.obj.pd_mut(target).devices.push(device);
                // Mirror the domain's DMA-able memory into the IOMMU.
                let held = self.obj.pd(target).mem.iter();
                map_dma(&mut self.machine.bus.iommu, &[device], held);
                Ok(HcReply::Ok)
            }
            Hypercall::WatchdogArm { pd, sm, timeout } => {
                let target = self.lookup_pd(caller, pd, Perms::CTRL)?;
                let sm_id = self.lookup_sm(caller, sm, Perms::UP)?;
                if timeout > MAX_PERIOD {
                    return Err(HcErr::BadParam);
                }
                self.watchdogs.retain(|w| w.pd != target);
                if timeout > 0 {
                    self.watchdogs.push(Watchdog {
                        pd: target,
                        sm: sm_id,
                        timeout,
                        stamp: self.machine.clock,
                        fired: false,
                    });
                }
                Ok(HcReply::Ok)
            }
            Hypercall::WatchdogPet => {
                // The generic stamp at hypercall entry already did the
                // work; the variant exists so an otherwise-idle
                // component has a heartbeat to send.
                Ok(HcReply::Ok)
            }
        }
    }

    // ------------------------------------------------------------------
    // Delegation / revocation internals
    // ------------------------------------------------------------------

    fn delegate_mem(
        &mut self,
        from: PdId,
        to: PdId,
        base: u64,
        count: u64,
        rights: MemRights,
        hot: u64,
    ) -> Result<(), HcErr> {
        self.live(to)?;
        // Hostile ranges: a count that wraps the page-number space (or
        // one sized to stall the kernel walking it) is a parameter
        // error, not a loop. Nor may pages run past what the receiver
        // reaches: a VM's nested table (past it they would be mirrored
        // at a truncated guest-physical address), any space the pages a
        // byte address can name.
        let reach = self.nested.get(&to).map(|t| t.fmt);
        let reach = reach.map_or(u64::MAX, |f| f.page_size_at(f.levels())) / PAGE_SIZE as u64;
        if count > MAX_RANGE_PAGES
            || base.checked_add(count).is_none()
            || hot.checked_add(count).is_none_or(|end| end > reach)
        {
            return Err(HcErr::BadParam);
        }
        // Validate ownership of the entire range first: the source is
        // held in `from`'s space (the database is not asked), and the
        // destination pages are free — whichever fails first, page by
        // page, names the error.
        let src = &self.obj.pd(from).mem;
        let hole = src.slices(base, count).flatten().position(Option::is_none);
        let hole = hole.map(|h| h as u64);
        let dst = self.obj.pd(to).mem.slices(hot, hole.unwrap_or(count));
        if dst.flatten().any(Option::is_some) {
            return Err(HcErr::BadParam);
        }
        if hole.is_some() {
            return Err(HcErr::NotOwner);
        }
        // One record for the range, cut where the source's nodes are.
        self.mem_db
            .delegate_range((from.0, base), (to.0, hot), count);
        // A source leaf at a time. Every source page is mapped and no
        // destination page is, so the two ranges are disjoint even
        // within one space: nothing mapped below can have taken a
        // source page away.
        let mut done = 0;
        while done < count {
            let mut run = [None; LEAF_ENTRIES];
            let src = &self.obj.pd(from).mem;
            let src = src
                .slices(base + done, count - done)
                .next()
                .expect("pages left");
            run[..src.len()].copy_from_slice(src);
            let n = src.len() as u64;
            self.obj.pd_mut(to).mem.map_run(hot + done, n, |i| {
                let src = run[i as usize].expect("source range validated above");
                MemMapping {
                    rights: src.rights.mask(rights),
                    ..src
                }
            });
            done += n;
        }
        // IOMMU: devices assigned to the receiver see its DMA pages.
        let to_pd = self.obj.pd(to);
        if !to_pd.devices.is_empty() {
            let held = (hot..).zip(to_pd.mem.slices(hot, count).flatten());
            let held = held.map(|(p, m)| (p, m.expect("mapped above")));
            map_dma(&mut self.machine.bus.iommu, &to_pd.devices, held);
        }
        // Mirror into the VM's nested table, using large host pages
        // for aligned physically-contiguous runs when enabled.
        if self.obj.pd(to).is_vm() {
            self.mirror_nested(to, hot, count);
        }
        Ok(())
    }

    /// Mirrors the `count` pages from `hot` of `pd`'s space into its
    /// nested table: a whole chunk as one large leaf where its pages
    /// are contiguous from an aligned frame with one write right, every
    /// other page as a 4 KB leaf, in ascending order.
    fn mirror_nested(&mut self, pd: PdId, hot: u64, count: u64) {
        let Some(table) = self.nested.get_mut(&pd) else {
            return;
        };
        let ms = &self.obj.pds[pd.0].mem;
        let cp = table.fmt.large_page_size() / PAGE_SIZE as u64;
        let use_large = self.obj.pds[pd.0].large_pages;
        let mut i = 0;
        while i < count {
            let gpage = hot + i;
            if use_large && gpage.is_multiple_of(cp) && count - i >= cp {
                if let Some(first) = uniform_chunk(ms, gpage, cp) {
                    table.map_large(
                        &mut self.machine.mem,
                        &mut self.alloc,
                        gpage * PAGE_SIZE as u64,
                        first.hpa,
                        first.rights.write,
                    );
                    self.large_chunks.entry(pd).or_default().insert(gpage);
                    i += cp;
                    continue;
                }
            }
            // Up to the next chunk boundary at 4 KB. A large leaf stands
            // only over a chunk whose every page is mapped, and a
            // delegation's destination pages were not.
            let n = (cp - gpage % cp).min(count - i);
            for (p, m) in (gpage..).zip(ms.slices(gpage, n).flatten()) {
                let Some(m) = m else { continue };
                let (gpa, w) = (p * PAGE_SIZE as u64, m.rights.write);
                let mapped = table.map_page(&mut self.machine.mem, &mut self.alloc, gpa, m.hpa, w);
                mapped.expect("a delegated page lies under no large leaf");
            }
            i += n;
        }
    }

    fn delegate_io(&mut self, from: PdId, to: PdId, base: u16, count: u16) -> Result<(), HcErr> {
        self.live(to)?;
        if u32::from(base) + u32::from(count) > 0x1_0000 {
            return Err(HcErr::BadParam);
        }
        if !(0..count).all(|i| self.obj.pd(from).io.allowed(base + i)) {
            return Err(HcErr::NotOwner);
        }
        self.obj.pd_mut(to).io.grant_range(base, count.into());
        self.io_db
            .delegate_range((from.0, base), (to.0, base), count.into());
        Ok(())
    }

    fn delegate_cap(
        &mut self,
        from: PdId,
        to: PdId,
        sel: CapSel,
        perms: Perms,
        hot: CapSel,
    ) -> Result<(), HcErr> {
        self.live(to)?;
        let cap = self.obj.pd(from).caps.get(sel).ok_or(HcErr::BadCap)?;
        if !cap.perms.allows(Perms::DELEGATE) {
            return Err(HcErr::BadPerm);
        }
        let reduced = Capability {
            obj: cap.obj,
            perms: cap.perms.mask(perms),
        };
        self.obj.pd_mut(to).caps.set(hot, reduced);
        // A selector may be reused; drop any stale tree first.
        let (sel, hot) = (sel as u64, hot as u64);
        self.cap_db.revoke((to.0, hot), true, &mut |_| {});
        self.cap_db.delegate((from.0, sel), (to.0, hot));
        Ok(())
    }

    /// Revokes `owner`'s delegations of each `(base, count)` page range
    /// of `ranges` (and its own mappings with `include_self`): the
    /// database gives up whole ranges, and each one leaves its space,
    /// IOMMU and nested table in ascending order — a nested table's
    /// chunk at a time, so a large leaf over a chunk the range covers
    /// whole goes at once and one over a chunk it covers in part is
    /// splintered. Then the TLBs of every VM that lost a page are shot
    /// down — once, after all of it: nothing runs a guest in between,
    /// and in `PdId` order, so a seed's flush sequence does not depend
    /// on a map's.
    fn revoke_mem_ranges(&mut self, owner: PdId, ranges: &[(u64, u64)], include_self: bool) {
        let mut removed: Vec<((usize, u64), u64)> = Vec::new();
        for &(base, count) in ranges {
            self.mem_db
                .revoke_range((owner.0, base), count, include_self, &mut removed);
        }
        let mut affected_vms: BTreeSet<PdId> = BTreeSet::new();
        for ((pd_idx, base), count) in removed {
            let pd = PdId(pd_idx);
            // A nested table's chunk at a time; the whole range at once
            // for a space without one.
            let cp = self
                .nested
                .get(&pd)
                .map(|t| t.fmt.large_page_size() / PAGE_SIZE as u64);
            let (mut at, end) = (base, base + count);
            while at < end {
                let n = cp.map_or(end, |cp| (at - at % cp + cp).min(end)) - at;
                if self.unmap_pages(pd, at, n) && self.obj.pd(pd).is_vm() {
                    affected_vms.insert(pd);
                }
                at += n;
            }
        }
        for pd in affected_vms {
            self.flush_vm_tlbs(pd);
        }
    }

    /// Unmaps the `n` pages from `at` — inside one chunk of `pd`'s
    /// nested table, if it has one — from `pd`'s space, and each one
    /// removed from its devices' IOMMU domains and from the nested
    /// table. A large leaf over the chunk goes first: a chunk the pages
    /// cover whole has no leaf left to clear, one they cover in part is
    /// splintered — its other pages are mapped again at 4 KB. `true` if
    /// anything was mapped.
    fn unmap_pages(&mut self, pd: PdId, at: u64, n: u64) -> bool {
        let (obj, machine) = (&mut self.obj, &mut self.machine);
        let Pd { mem, devices, .. } = obj.pd_mut(pd);
        let mut table = self.nested.get_mut(&pd);
        if let Some(t) = table.as_deref_mut() {
            let cp = t.fmt.large_page_size() / PAGE_SIZE as u64;
            let chunk = at - at % cp;
            let large = self
                .large_chunks
                .get_mut(&pd)
                .is_some_and(|s| s.remove(&chunk));
            if large {
                t.unmap_page(&mut machine.mem, chunk * PAGE_SIZE as u64);
                let held = (chunk..).zip(mem.slices(chunk, cp).flatten());
                for (p, m) in held.filter(|(p, _)| !(at..at + n).contains(p)) {
                    let Some(m) = m else { continue };
                    let (gpa, w) = (p * PAGE_SIZE as u64, m.rights.write);
                    let mapped = t.map_page(&mut machine.mem, &mut self.alloc, gpa, m.hpa, w);
                    mapped.expect("the large leaf is gone");
                }
                table = None;
            }
        }
        let mut any = false;
        mem.unmap_run(at, n, |page, _| {
            any = true;
            let gpa = page * PAGE_SIZE as u64;
            for &dev in devices.iter() {
                machine.bus.iommu.unmap_page(dev, gpa);
            }
            if let Some(t) = table.as_deref_mut() {
                t.unmap_page(&mut machine.mem, gpa);
            }
        });
        any
    }

    fn flush_vm_tlbs(&mut self, pd: PdId) {
        let vcpus = self.obj.pd(pd).vcpus.clone();
        for ec in vcpus {
            let cpu = self.obj.ec(ec).cpu;
            // A shadow-paging vCPU owns one VPID per cached address
            // space; every one of them must go.
            if let Some(cache) = self.shadows.get(&ec) {
                let vpids = cache.vpids();
                self.machine.cpus[cpu].tlb.flush_vpids(vpids);
                continue;
            }
            let vpid = self.obj.ec(ec).vmcs().map(|v| v.vpid).unwrap_or(0);
            if vpid == 0 {
                self.machine.cpus[cpu].tlb.flush_all();
            } else {
                self.machine.cpus[cpu].tlb.flush_vpid(vpid);
            }
        }
    }

    /// Applies the hardware-TLB maintenance the vCPU's shadow cache
    /// queued while handling an exit.
    fn drain_tlb_ops(&mut self, ec_id: EcId) {
        let cpu = self.obj.ec(ec_id).cpu;
        if let Some(cache) = self.shadows.get_mut(&ec_id) {
            vtlb::apply_tlb_ops(&mut self.machine.cpus[cpu].tlb, cache.take_tlb_ops());
        }
    }

    /// [`Kernel::revoke_mem_ranges`] for ports: `(base, count)` ranges
    /// of `owner`'s port space, which may end at `0x10000`.
    fn revoke_io_ranges(&mut self, owner: PdId, ranges: &[(u64, u64)], include_self: bool) {
        let mut removed: Vec<((usize, u16), u64)> = Vec::new();
        for &(base, count) in ranges {
            self.io_db
                .revoke_range((owner.0, base as u16), count, include_self, &mut removed);
        }
        for ((pd_idx, base), count) in removed {
            for p in u64::from(base)..u64::from(base) + count {
                self.obj.pd_mut(PdId(pd_idx)).io.revoke(p as u16);
            }
        }
    }

    fn revoke_cap(&mut self, owner: PdId, sel: CapSel, include_self: bool) {
        let mut removed: Vec<((usize, u64), u64)> = Vec::new();
        self.cap_db
            .revoke_range((owner.0, sel as u64), 1, include_self, &mut removed);
        // One selector's revocation removes one-selector ranges.
        for ((pd_idx, s), _) in removed {
            self.obj.pd_mut(PdId(pd_idx)).caps.remove(s as CapSel);
        }
    }

    /// Nodes in the memory, I/O-port and capability mapping databases.
    pub fn mapdb_nodes(&self) -> (usize, usize, usize) {
        (self.mem_db.len(), self.io_db.len(), self.cap_db.len())
    }

    /// Checks the delegation state against the rule it is kept by —
    /// spaces hold, the mapping databases derive — at a quiescent
    /// point (between hypercalls).
    ///
    /// 1. Every page, port and selector a node of a domain covers is
    ///    held in that domain's space; a destroyed domain holds nothing
    ///    and no node names it.
    /// 2. Each database is a forest of ranges: no node is empty and an
    ///    owner's nodes do not overlap; every child is listed under its
    ///    parent, every listed child exists with that parent, and each
    ///    is derived from keys one node of the parent covers; nothing
    ///    loops.
    /// 3. Every page and port held by a domain other than root lies in
    ///    a node with a parent: memory and ports only ever arrive by
    ///    delegation. (Capabilities are also made by the kernel, for
    ///    the creator of an object.)
    /// 4. Each page of a memory node maps the frame the matching page
    ///    of its parent maps, with no right the parent lacks.
    /// 5. The hardware tables hold nothing the space does not: each 4 KB
    ///    nested leaf maps the space's frame with write rights no wider;
    ///    a large leaf stands exactly over each chunk listed as large,
    ///    whose pages one leaf can stand for; the nested table's frames
    ///    are the frames its root reaches (none leaked); each assigned
    ///    device's IOMMU context maps only pages held with `dma`.
    /// 6. Every queued SC sits in the run-queue class of its own
    ///    priority on its EC's CPU, as often as the side map says.
    /// 7. Every `vcpus[i]` of a domain is a vCPU EC of it with
    ///    `vcpu_index == Some(i)`, and every vCPU EC is listed so; no
    ///    vCPU, and no EC of a destroyed domain, runs a component, and
    ///    the latter hold no activation.
    ///
    /// The first violation found is described in the error.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.mem_db
            .check_links()
            .map_err(|e| format!("mem_db: {e}"))?;
        self.io_db
            .check_links()
            .map_err(|e| format!("io_db: {e}"))?;
        self.cap_db
            .check_links()
            .map_err(|e| format!("cap_db: {e}"))?;

        let pd_of = |pd: usize| self.obj.pds.get(pd).ok_or(format!("a node names pd {pd}"));
        // Straight from the radix leaves: a checker neither trusts nor
        // disturbs the translation cache.
        for ((pd, base), len, parent) in self.mem_db.iter() {
            let d = pd_of(pd)?;
            let from = parent.map(|(p, pbase)| pd_of(p).map(|p| p.mem.slices(pbase, len)));
            let mut from = from.transpose()?.into_iter().flatten().flatten();
            for (page, m) in (base..).zip(d.mem.slices(base, len).flatten()) {
                let Some(m) = m else {
                    return Err(format!("mem_db: {} does not map page {page:#x}", d.name));
                };
                // The parent's own holding is this loop's business when
                // it comes round to the parent.
                let Some(pm) = from.next().copied().flatten() else {
                    continue;
                };
                if m.hpa != pm.hpa || m.rights.mask(pm.rights) != m.rights {
                    return Err(format!(
                        "mem_db: {} page {page:#x} is {m:?}, derived from {pm:?}",
                        d.name
                    ));
                }
            }
        }
        for ((pd, base), len, _) in self.io_db.iter() {
            let d = pd_of(pd)?;
            let ports = u64::from(base)..u64::from(base) + len;
            if let Some(port) = ports.into_iter().find(|&p| !d.io.allowed(p as u16)) {
                return Err(format!("io_db: pd {pd} does not hold port {port:#x}"));
            }
        }
        for ((pd, base), len, _) in self.cap_db.iter() {
            let d = pd_of(pd)?;
            if let Some(sel) = (base..base + len).find(|&s| d.caps.get(s as CapSel).is_none()) {
                return Err(format!("cap_db: pd {pd} does not hold selector {sel:#x}"));
            }
        }

        for (pd, d) in self.obj.pds.iter().enumerate() {
            if d.dying && (d.mem.count(), d.io.count(), d.caps.count()) != (0, 0, 0) {
                // With the clauses above: no node names it either.
                return Err(format!(
                    "{} was destroyed and still holds something",
                    d.name
                ));
            }
            self.check_hw_tables(PdId(pd))
                .map_err(|e| format!("{}: {e}", d.name))?;
            if PdId(pd) == self.root_pd {
                continue;
            }
            if let Some((page, _)) = d
                .mem
                .iter()
                .find(|(p, _)| self.mem_db.parent((pd, *p)).is_none())
            {
                return Err(format!("{} maps page {page:#x} underived", d.name));
            }
            if let Some(port) = d.io.iter().find(|p| self.io_db.parent((pd, *p)).is_none()) {
                return Err(format!("{} holds port {port:#x} underived", d.name));
            }
        }
        // 6. The run queues.
        for cpu in 0..self.sched.cpus() {
            for (class, sc) in self.sched.cpu_ref(cpu).occurrences()? {
                let s = self.obj.sc(sc);
                let at = (s.prio, self.obj.ec(s.ec).cpu);
                if (class, cpu) != at {
                    return Err(format!(
                        "{sc:?} is queued at {class} on cpu {cpu}, not {at:?}"
                    ));
                }
            }
        }
        // 7. Each EC against its domain's lists.
        for (id, ec) in self.obj.ecs.iter().enumerate() {
            let (d, vcpu, i) = (self.obj.pd(ec.pd), ec.vmcs().is_some(), ec.vcpu_index);
            let listed = i.map(|i| d.vcpus.get(i) == Some(&EcId(id)));
            let runs = ec.comp.is_some() || !ec.activations.is_empty();
            if listed != vcpu.then_some(true) || (runs && (vcpu || d.dying)) {
                let name = &d.name;
                return Err(format!(
                    "EC {id} of {name}: vCPU {vcpu}, index {i:?}, runs {runs}"
                ));
            }
        }
        for (pd, d) in self.obj.pds.iter().enumerate() {
            for (i, v) in d.vcpus.iter().enumerate() {
                let ec = self.obj.ecs.get(v.0);
                if !ec.is_some_and(|e| e.pd == PdId(pd) && e.vcpu_index == Some(i)) {
                    return Err(format!("vCPU {i} of {} is {v:?}", d.name));
                }
            }
        }
        Ok(())
    }

    /// Clause 5 of [`Kernel::check_invariants`] for `pd`: its nested
    /// table and the IOMMU contexts of its devices hold nothing its
    /// space does not. A large leaf is held to [`uniform_chunk`], the
    /// rule that made it: every page mapped, the frames consecutive
    /// from the leaf's, one write right no narrower than the leaf's.
    fn check_hw_tables(&self, pd: PdId) -> Result<(), String> {
        let ms = &self.obj.pd(pd).mem;
        let held = |page: u64| ms.slices(page, 1).next().and_then(|s| s[0]);
        if let Some(t) = self.nested.get(&pd) {
            let cp = t.fmt.large_page_size() / PAGE_SIZE as u64;
            let chunks = self.large_chunks.get(&pd);
            let (mut large, mut bad) = (0, None);
            let mut tables = t.leaves(&self.machine.mem, |gpa, level, e| {
                let fits = |m: MemMapping| m.hpa == e.next && m.rights.write >= e.write;
                let page = gpa / PAGE_SIZE as u64;
                large += (level > 0) as usize;
                let ok = match level {
                    0 => held(page).is_some_and(fits),
                    _ => {
                        chunks.is_some_and(|c| c.contains(&page))
                            && uniform_chunk(ms, page, cp).is_some_and(fits)
                    }
                };
                let what = || format!("nested leaf at level {level} over {gpa:#x} is {e:?}");
                bad = bad.take().or_else(|| (!ok).then(what));
            });
            bad.map_or(Ok(()), Err)?;
            let listed = chunks.map_or(0, HashSet::len);
            let mut frames = t.frames().to_vec();
            frames.sort_unstable();
            tables.sort_unstable();
            if (large, &frames) != (listed, &tables) {
                let e = format!("{large} large leaves over {listed} chunks; nested frames");
                return Err(format!("{e} {frames:x?}, reached {tables:x?}"));
            }
        }
        for &dev in &self.obj.pd(pd).devices {
            let mappings = self.machine.bus.iommu.mappings(dev);
            for (bus, hpa, write) in mappings.ok_or(format!("device {dev} reaches everything"))? {
                let m = held(bus / PAGE_SIZE as u64);
                if !m.is_some_and(|m| m.rights.dma && m.hpa == hpa && m.rights.write >= write) {
                    return Err(format!(
                        "device {dev} maps {bus:#x} to {hpa:#x}, held {m:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Destroys a protection domain: the teardown path behind the
    /// creator's destroy capability (Section 6). Every resource the
    /// domain held — and everything it delegated onward — is revoked;
    /// its execution contexts stop being schedulable; its hardware
    /// tables and IOMMU domains are dismantled.
    fn destroy_pd(&mut self, pd: PdId) {
        if self.obj.pd(pd).dying {
            return;
        }
        self.obj.pd_mut(pd).dying = true;

        // Memory: revoke each run of owned pages (children included).
        let pages = runs(self.obj.pd(pd).mem.iter().map(|(p, _)| p));
        self.revoke_mem_ranges(pd, &pages, true);
        // Every unmap above already bumped the generation; this makes
        // the cold-cache contract explicit for teardown.
        self.obj.pd_mut(pd).mem.invalidate_cache();
        // I/O ports, run by run.
        let ports = runs(self.obj.pd(pd).io.iter().map(u64::from));
        self.revoke_io_ranges(pd, &ports, true);
        // Capabilities (and everything delegated from them).
        let sels: Vec<CapSel> = self.obj.pd(pd).caps.iter().map(|(s, _)| s).collect();
        for sel in sels {
            self.revoke_cap(pd, sel, true);
        }

        // Execution contexts: block and dequeue.
        let ecs: Vec<EcId> = (0..self.obj.ecs.len())
            .map(EcId)
            .filter(|e| self.obj.ec(*e).pd == pd)
            .collect();
        for ec in &ecs {
            self.obj.ec_mut(*ec).blocked = true;
            self.obj.ec_mut(*ec).busy = true; // refuses future calls
            if let Some(sc) = self.obj.ec(*ec).sc {
                let cpu = self.obj.ec(*ec).cpu;
                self.sched.cpu(cpu).remove(sc);
            }
            let dead = self.obj.ec_mut(*ec);
            dead.activations = VecDeque::new();
            dead.comp = None;
        }
        // Unbind semaphores pointed at dead ECs, and cancel kernel
        // timers feeding them: a destroyed VMM's periodic timers must
        // not keep signalling into the void (the machine would never
        // go idle again).
        let mut orphaned: Vec<SmId> = Vec::new();
        for (i, sm) in self.obj.sms.iter_mut().enumerate() {
            if sm.bound.is_some_and(|e| ecs.contains(&e)) {
                sm.bound = None;
                orphaned.push(SmId(i));
            }
        }
        self.timers.retain(|t| !orphaned.contains(&t.sm));
        // Interrupt routes into the dead domain revert to root, so
        // the supervisor can re-grant them to a restarted driver.
        let root = self.root_pd;
        for owner in self.gsi_owner.values_mut() {
            if *owner == pd {
                *owner = root;
            }
        }
        // Watchdogs on the dead domain are gone with it.
        self.watchdogs.retain(|w| w.pd != pd);

        // Hardware teardown: nested tables back to the frame pool,
        // IOMMU domains dropped.
        if let Some(table) = self.nested.remove(&pd) {
            for f in table.frames() {
                self.alloc.release(*f);
            }
        }
        self.large_chunks.remove(&pd);
        for ec in &ecs {
            if let Some(mut cache) = self.shadows.remove(ec) {
                // Sub-table frames go back to the pool with the domain.
                cache.release_all(&mut self.machine.mem, &mut self.alloc);
            }
        }
        let devices = std::mem::take(&mut self.obj.pd_mut(pd).devices);
        for dev in devices {
            self.machine.bus.iommu.clear_device(dev);
        }
        self.flush_vm_tlbs(pd);
    }

    // ------------------------------------------------------------------
    // IPC (Section 5.2)
    // ------------------------------------------------------------------

    /// Performs a portal call on behalf of a component: the
    /// run-to-completion form of NOVA's `call` with scheduling-context
    /// donation. The reply lands in `utcb`.
    pub fn ipc_call(&mut self, ctx: CompCtx, pt_sel: CapSel, utcb: &mut Utcb) -> Result<(), HcErr> {
        let cap = self.lookup(ctx.pd, pt_sel, Perms::CALL)?;
        let pt = match cap.obj {
            ObjRef::Pt(id) => id,
            _ => Err(HcErr::BadCap)?,
        };
        self.ipc_to_portal(ctx.pd, pt, utcb)
    }

    fn ipc_to_portal(&mut self, caller_pd: PdId, pt: PtId, utcb: &mut Utcb) -> Result<(), HcErr> {
        let portal = &self.obj.pts[pt.0];
        let handler_ec = portal.ec;
        let portal_id = portal.id;
        let handler = self.obj.ec(handler_ec);
        let handler_pd = handler.pd;
        if handler.busy || self.obj.pd(handler_pd).dying {
            return Err(HcErr::Busy);
        }
        let comp = handler.comp.ok_or(HcErr::BadParam)?;
        self.trace_emit_span(caller_pd.0 as u16, TraceKind::IpcCall, portal_id, true);

        // Call-direction accounting: entry/exit, IPC path, TLB effects
        // on a cross-AS traversal, per-word payload (Figure 8).
        let cost = self.machine.cost;
        let cross = caller_pd != handler_pd;
        let words = utcb.len_words() as u64;
        let one_way = cost.syscall_entry_exit
            + cost.ipc_path
            + if cross { cost.ipc_tlb_effects } else { 0 }
            + words * cost.ipc_per_word;
        self.charge_ipc(one_way);
        self.counters.ipc_calls += 1;

        // Typed items: delegation from caller to handler, into the
        // portal's receive window. A refused item fails the call before
        // the handler runs.
        if let Err(e) = self.move_xfer(caller_pd, handler_pd, pt, utcb) {
            self.trace_emit_span(caller_pd.0 as u16, TraceKind::IpcCall, portal_id, false);
            return Err(e);
        }

        // Dispatch with the SC donated: the handler runs to completion
        // on the caller's time (charged to the shared clock).
        self.obj.ec_mut(handler_ec).busy = true;
        let hctx = CompCtx {
            pd: handler_pd,
            ec: handler_ec,
            comp,
        };
        self.with_component(comp, |c, k| c.on_call(k, hctx, portal_id, utcb));
        self.obj.ec_mut(handler_ec).busy = false;

        // Reply-direction accounting. A reply carries no typed items:
        // the caller named no window for them.
        let words = utcb.len_words() as u64;
        let reply_cost = cost.syscall_entry_exit
            + cost.ipc_path
            + if cross { cost.ipc_tlb_effects } else { 0 }
            + words * cost.ipc_per_word;
        self.charge_ipc(reply_cost);
        utcb.xfer.clear();
        self.trace_emit_span(caller_pd.0 as u16, TraceKind::IpcCall, portal_id, false);
        Ok(())
    }

    /// Delegates and consumes the UTCB's typed items, each into the
    /// receive window `(first page, pages)` of `to` that portal `pt`
    /// has: item page `hot` lands at `first + hot`, and an item that does
    /// not end inside the window — or any item, without one — is
    /// refused. Taking the buffer (rather than draining into a fresh
    /// Vec) keeps the common zero-item call allocation-free; it is
    /// handed back emptied on success and on refusal alike, so the
    /// caller's next message reuses its capacity.
    fn move_xfer(&mut self, from: PdId, to: PdId, pt: PtId, utcb: &mut Utcb) -> Result<(), HcErr> {
        let mut items = std::mem::take(&mut utcb.xfer);
        let moved = items.iter().try_for_each(|i| {
            let window = self.obj.windows.get(&pt).copied();
            let (first, pages) = window.ok_or(HcErr::BadParam)?;
            if i.hot.checked_add(i.count).is_none_or(|end| end > pages) {
                return Err(HcErr::BadParam);
            }
            self.delegate_mem(from, to, i.base, i.count, i.rights, first + i.hot)
        });
        items.clear();
        utcb.xfer = items;
        moved
    }

    // ------------------------------------------------------------------
    // Semaphores and interrupts
    // ------------------------------------------------------------------

    fn sm_up(&mut self, sm: SmId) {
        let bound = self.obj.sm(sm).bound;
        match bound {
            Some(ec) => {
                self.obj
                    .ec_mut(ec)
                    .activations
                    .push_back(Activation::Signal(sm));
                self.make_thread_runnable(ec);
            }
            None => self.obj.sm_mut(sm).count += 1,
        }
    }

    fn make_thread_runnable(&mut self, ec: EcId) {
        let Some(sc) = self.obj.ec(ec).sc else {
            return;
        };
        let cpu = self.obj.ec(ec).cpu;
        let prio = self.obj.sc(sc).prio;
        if !self.sched.cpu(cpu).contains(sc) {
            self.sched.cpu(cpu).enqueue(sc, prio);
        }
    }

    /// Queues a VMM's virtual interrupt on vCPU `ec` — with a resume
    /// or with an exit reply — and wakes it from HLT.
    #[inline]
    fn inject_virq(&mut self, ec: EcId, inj: Injection) {
        let target = &mut self.obj.ecs[ec.0];
        let pd16 = target.pd.0 as u16;
        let vmcs = target.vmcs_mut().expect("vCPU");
        vmcs.injection = Some(inj);
        vmcs.halted = false;
        self.counters.injected_virq += 1;
        self.trace_emit(pd16, TraceKind::VirqInject, inj.vector as u64);
    }

    fn unblock(&mut self, ec: EcId) {
        self.obj.ec_mut(ec).blocked = false;
        if let Some(sc) = self.obj.ec(ec).sc {
            let cpu = self.obj.ec(ec).cpu;
            let prio = self.obj.sc(sc).prio;
            if !self.sched.cpu(cpu).contains(sc) {
                self.sched.cpu(cpu).enqueue(sc, prio);
            }
        }
    }

    /// Delivers a physical interrupt vector: acknowledge at the PIC,
    /// signal the bound semaphore, EOI.
    fn deliver_vector(&mut self, vector: u8) {
        self.charge_kernel(IRQ_KERNEL_CYCLES);
        self.trace_emit(PD_NONE, TraceKind::IrqDeliver, vector as u64);
        let gsi = vector.wrapping_sub(0x20);
        // EOI the physical controller (slave interrupts need both).
        if gsi >= 8 {
            self.machine.bus.pic.io_write(nova_hw::pic::SLAVE_CMD, 0x20);
        }
        self.machine
            .bus
            .pic
            .io_write(nova_hw::pic::MASTER_CMD, 0x20);
        if let Some(&sm) = self.gsi_sm.get(&gsi) {
            self.sm_up(sm);
        }
    }

    /// Signals each timer that is due, in table order. Walked by
    /// index: `sm_up` touches no timer.
    fn fire_timers(&mut self) {
        let now = self.machine.clock;
        for i in 0..self.timers.len() {
            let t = &mut self.timers[i];
            if t.due > now {
                continue;
            }
            t.due += t.period.max(1);
            if t.due <= now {
                // Catch up without a signal storm.
                t.due = now + t.period.max(1);
            }
            let sm = t.sm;
            self.sm_up(sm);
        }
    }

    fn poll_interrupts(&mut self) {
        while self.machine.bus.pic.intr() {
            match self.machine.bus.pic.ack() {
                Some(v) => self.deliver_vector(v),
                None => break,
            }
        }
    }

    // ------------------------------------------------------------------
    // Watchdogs and death notification
    // ------------------------------------------------------------------

    fn watchdog_stamp(&mut self, pd: PdId) {
        let now = self.machine.clock;
        for w in &mut self.watchdogs {
            if w.pd == pd {
                w.stamp = now;
            }
        }
    }

    /// Fires each silent watchdog once, in table order. Walked by
    /// index: neither the trace nor `sm_up` touches a watchdog.
    fn check_watchdogs(&mut self) {
        let now = self.machine.clock;
        for i in 0..self.watchdogs.len() {
            let w = &mut self.watchdogs[i];
            if w.fired || now < w.stamp + w.timeout {
                continue;
            }
            w.fired = true;
            let (sm, pd) = (w.sm, w.pd);
            self.counters.watchdog_fires += 1;
            self.trace_emit(pd.0 as u16, TraceKind::WatchdogFire, 0);
            self.sm_up(sm);
        }
    }

    /// Reports a fatal fault in a protection domain (an unhandled
    /// exception, a self-declared failure): its execution contexts are
    /// blocked and refused further calls, and any watchdog on the
    /// domain fires immediately — the death notification a supervisor
    /// uses to trigger teardown and restart. The domain's resources
    /// stay in place until the supervisor issues `DestroyPd`.
    pub fn pd_fault(&mut self, pd: PdId, code: u64) {
        if self.obj.pd(pd).dying {
            return;
        }
        let ecs: Vec<EcId> = (0..self.obj.ecs.len())
            .map(EcId)
            .filter(|e| self.obj.ec(*e).pd == pd)
            .collect();
        for ec in &ecs {
            self.obj.ec_mut(*ec).blocked = true;
            self.obj.ec_mut(*ec).busy = true; // refuses future calls
            if let Some(sc) = self.obj.ec(*ec).sc {
                let cpu = self.obj.ec(*ec).cpu;
                self.sched.cpu(cpu).remove(sc);
            }
            self.obj.ec_mut(*ec).activations = VecDeque::new();
        }
        // Semaphores bound into the dead domain stop delivering — a
        // crashed driver must not keep handling its interrupts — and
        // kernel timers feeding those semaphores are cancelled, so a
        // dead VMM's periodic virtual timers cannot livelock the idle
        // loop while the supervisor recovers.
        let mut orphaned: Vec<SmId> = Vec::new();
        for (i, sm) in self.obj.sms.iter_mut().enumerate() {
            if sm.bound.is_some_and(|e| ecs.contains(&e)) {
                sm.bound = None;
                orphaned.push(SmId(i));
            }
        }
        self.timers.retain(|t| !orphaned.contains(&t.sm));
        self.counters.pd_deaths += 1;
        self.trace_emit(pd.0 as u16, TraceKind::PdDeath, code);
        let mut fired = Vec::new();
        for w in &mut self.watchdogs {
            if w.pd == pd && !w.fired {
                w.fired = true;
                fired.push(w.sm);
            }
        }
        for sm in fired {
            self.sm_up(sm);
        }
    }

    // ------------------------------------------------------------------
    // vCPU state capture (supervisor checkpoint/restore)
    // ------------------------------------------------------------------

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
        let cap = self.obj.pd(owner).caps.get(vcpu_sel).ok_or(HcErr::BadCap)?;
        if !cap.perms.allows(Perms::EC_CTRL) {
            return Err(HcErr::BadPerm);
        }
        let ec_id = match cap.obj {
            ObjRef::Ec(id) => id,
            _ => return Err(HcErr::BadCap),
        };
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
        let cap = self.obj.pd(owner).caps.get(vcpu_sel).ok_or(HcErr::BadCap)?;
        if !cap.perms.allows(Perms::EC_CTRL) {
            return Err(HcErr::BadPerm);
        }
        let ec_id = match cap.obj {
            ObjRef::Ec(id) => id,
            _ => return Err(HcErr::BadCap),
        };
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

    // ------------------------------------------------------------------
    // Component-side machine access (permission-checked)
    // ------------------------------------------------------------------

    /// Reads bytes from the component's address space into a
    /// caller-provided buffer, without allocating. Returns `None` if
    /// any touched page is unmapped; the buffer contents are
    /// unspecified in that case.
    pub fn mem_read_into(&self, ctx: CompCtx, addr: u64, out: &mut [u8]) -> Option<()> {
        let ms = &self.obj.pd(ctx.pd).mem;
        let len = out.len();
        let mut off = 0;
        while off < len {
            let a = addr + off as u64;
            let chunk = ((PAGE_SIZE as u64 - (a & 0xfff)) as usize).min(len - off);
            let hpa = ms.translate(a)?;
            self.machine.mem.read_into(hpa, &mut out[off..off + chunk]);
            off += chunk;
        }
        Some(())
    }

    /// Hands `copy` each page of the `seen.len()`-page window at `addr`
    /// of the component's address space whose frame was written since
    /// the caller's copy of it: page `i` goes to `copy(i, bytes)` only
    /// if its frame's write generation
    /// ([`nova_hw::mem::PhysMem::frame_gen`]) is not `seen[i]`, and the
    /// generation handed out is recorded there. `u64::MAX` means "never
    /// copied" — generations start at 0 and only rise — and 0 may stand
    /// for a copy of zeros: a frame at generation 0 is a zero page,
    /// because [`PhysMem::new`] (the only constructor) zeroes RAM and
    /// every mutator bumps the generation of the frames it touches. A
    /// run of frames whose generations all equal `seen` is passed over
    /// as one comparison. Returns the number of pages handed out, or
    /// `None` — having called `copy` never and left `seen` untouched —
    /// if `addr` is not page-aligned or any page is unmapped.
    pub fn mem_refresh(
        &self,
        ctx: CompCtx,
        addr: u64,
        seen: &mut [u64],
        mut copy: impl FnMut(usize, &[u8]),
    ) -> Option<usize> {
        let runs = window_runs(&self.obj.pd(ctx.pd).mem, addr, seen.len(), false)?;
        let (mem, page) = (&self.machine.mem, PAGE_SIZE as usize);
        let mut copied = 0;
        for (at, first, n) in runs {
            let (gens, seen) = (mem.frame_gens(first, n), &mut seen[at..at + n]);
            if gens == seen {
                continue;
            }
            // Frames past the end of RAM are at generation 0 and zeros.
            let gens = gens.iter().chain(std::iter::repeat(&0));
            for (j, (&gen, seen)) in gens.zip(seen).enumerate() {
                if gen != *seen {
                    let frame = mem.slice(first + (j * page) as u64, page);
                    copy(at + j, frame.unwrap_or(&[0; PAGE_SIZE as usize]));
                    *seen = gen;
                    copied += 1;
                }
            }
        }
        Some(copied)
    }

    /// The inverse of [`Kernel::mem_refresh`]: brings the `seen.len()`-
    /// page window at `addr` of the component's address space back to an
    /// image whose page `i` is `page(i)` — one page — or zeros where
    /// that is `None`. Page `i` is written only if its frame's write
    /// generation is not `seen[i]`, and the generation the write leaves
    /// is recorded there — so the caller must hold `seen` for *this*
    /// image (frame at `seen[i]` ⇒ frame equals image page `i`), or
    /// pass `u64::MAX` to have the page written regardless. Returns the
    /// number of pages written, or `None` — with memory and `seen`
    /// untouched — if `addr` is not page-aligned or any page is
    /// unmapped or read-only.
    pub fn mem_restore<'a>(
        &mut self,
        ctx: CompCtx,
        addr: u64,
        seen: &mut [u64],
        page: impl Fn(usize) -> Option<&'a [u8]>,
    ) -> Option<usize> {
        let runs = window_runs(&self.obj.pd(ctx.pd).mem, addr, seen.len(), true)?;
        let (mem, size) = (&mut self.machine.mem, PAGE_SIZE as usize);
        let mut written = 0;
        for (at, first, n) in runs {
            let frames = (first..).step_by(size);
            for (i, (seen, hpa)) in (at..).zip(seen[at..at + n].iter_mut().zip(frames)) {
                if mem.frame_gen(hpa) != *seen {
                    match page(i) {
                        Some(src) => mem.write_bytes(hpa, src),
                        None => mem.fill(hpa, size, 0),
                    }
                    *seen = mem.frame_gen(hpa);
                    written += 1;
                }
            }
        }
        Some(written)
    }

    /// Borrows `len` bytes of the component's address space in place
    /// (zero-copy). The range must lie within one page (contiguity of
    /// host frames across page boundaries is not guaranteed) and be
    /// RAM-backed: device MMIO windows are not `PhysMem`-backed, so a
    /// returned slice can never alias live device state. Returns
    /// `None` on a page-crossing range — callers fall back to
    /// [`Kernel::mem_read_into`].
    pub fn mem_slice(&self, ctx: CompCtx, addr: u64, len: usize) -> Option<&[u8]> {
        if len == 0 {
            return Some(&[]);
        }
        if (addr & 0xfff) as usize + len > PAGE_SIZE as usize {
            return None;
        }
        let hpa = self.obj.pd(ctx.pd).mem.translate(addr)?;
        self.machine.mem.slice(hpa, len)
    }

    /// Mutably borrows `len` bytes of the component's address space in
    /// place (zero-copy; write rights required). Same single-page and
    /// RAM-backed contract as [`Kernel::mem_slice`].
    pub fn mem_slice_mut(&mut self, ctx: CompCtx, addr: u64, len: usize) -> Option<&mut [u8]> {
        if len == 0 {
            return Some(&mut []);
        }
        if (addr & 0xfff) as usize + len > PAGE_SIZE as usize {
            return None;
        }
        let m = self.obj.pd(ctx.pd).mem.lookup(addr >> 12)?;
        if !m.rights.write {
            return None;
        }
        self.machine.mem.slice_mut(m.hpa + (addr & 0xfff), len)
    }

    /// Walks `addr..addr + len` of the component's address space page
    /// by page, handing `write` the host address, the offset into the
    /// range and the length of each piece; stops with `false` at the
    /// first page that is unmapped or not writable.
    fn for_writable_chunks(
        &mut self,
        ctx: CompCtx,
        addr: u64,
        len: usize,
        mut write: impl FnMut(&mut PhysMem, u64, usize, usize),
    ) -> bool {
        let mut off = 0;
        while off < len {
            let a = addr + off as u64;
            let chunk = ((PAGE_SIZE as u64 - (a & 0xfff)) as usize).min(len - off);
            let m = match self.obj.pd(ctx.pd).mem.lookup(a >> 12) {
                Some(m) if m.rights.write => m,
                _ => return false,
            };
            write(&mut self.machine.mem, m.hpa + (a & 0xfff), off, chunk);
            off += chunk;
        }
        true
    }

    /// Writes bytes into the component's address space (write rights
    /// required on every page).
    pub fn mem_write(&mut self, ctx: CompCtx, addr: u64, data: &[u8]) -> bool {
        self.for_writable_chunks(ctx, addr, data.len(), |mem, hpa, off, n| {
            mem.write_bytes(hpa, &data[off..off + n])
        })
    }

    /// Fills `len` bytes of the component's address space with `val`
    /// (write rights required on every page).
    pub fn mem_fill(&mut self, ctx: CompCtx, addr: u64, len: usize, val: u8) -> bool {
        self.for_writable_chunks(ctx, addr, len, |mem, hpa, _, n| mem.fill(hpa, n, val))
    }

    /// Reads one byte from the component's address space.
    pub fn mem_read_u8(&self, ctx: CompCtx, addr: u64) -> Option<u8> {
        let hpa = self.obj.pd(ctx.pd).mem.translate(addr)?;
        Some(self.machine.mem.read_u8(hpa))
    }

    /// Reads a u32 from the component's address space: one direct load,
    /// or four byte loads when the read crosses a page boundary.
    pub fn mem_read_u32(&self, ctx: CompCtx, addr: u64) -> Option<u32> {
        let ms = &self.obj.pd(ctx.pd).mem;
        if addr & 0xfff <= 0xffc {
            let hpa = ms.translate(addr)?;
            Some(self.machine.mem.read_u32(hpa))
        } else {
            // Page-crossing: compose bytes through per-byte translation.
            let mut v = 0u32;
            for i in 0..4 {
                let hpa = ms.translate(addr + i)?;
                v |= (self.machine.mem.read_u8(hpa) as u32) << (8 * i);
            }
            Some(v)
        }
    }

    /// Reads a u64 from the component's address space (direct load).
    pub fn mem_read_u64(&self, ctx: CompCtx, addr: u64) -> Option<u64> {
        let ms = &self.obj.pd(ctx.pd).mem;
        if addr & 0xfff <= 0xff8 {
            let hpa = ms.translate(addr)?;
            Some(self.machine.mem.read_u64(hpa))
        } else {
            let mut v = 0u64;
            for i in 0..8 {
                let hpa = ms.translate(addr + i)?;
                v |= (self.machine.mem.read_u8(hpa) as u64) << (8 * i);
            }
            Some(v)
        }
    }

    /// Writes a u32 into the component's address space.
    pub fn mem_write_u32(&mut self, ctx: CompCtx, addr: u64, val: u32) -> bool {
        if addr & 0xfff <= 0xffc {
            let Some(m) = self.obj.pd(ctx.pd).mem.lookup(addr >> 12) else {
                return false;
            };
            if !m.rights.write {
                return false;
            }
            self.machine.mem.write_u32(m.hpa + (addr & 0xfff), val);
            true
        } else {
            self.mem_write(ctx, addr, &val.to_le_bytes())
        }
    }

    /// Device MMIO read: the page must be mapped in the component's
    /// space and resolve into a device window.
    pub fn dev_mmio_read(&mut self, ctx: CompCtx, addr: u64, size: OpSize) -> Option<u32> {
        let hpa = self.obj.pd(ctx.pd).mem.translate(addr)?;
        self.machine.bus.mmio_owner(hpa)?;
        self.machine.clock += nova_hw::cpu::DEVICE_ACCESS_CYCLES;
        Some(
            self.machine
                .bus
                .mmio_read(&mut self.machine.mem, self.machine.clock, hpa, size),
        )
    }

    /// Device MMIO write.
    pub fn dev_mmio_write(&mut self, ctx: CompCtx, addr: u64, size: OpSize, val: u32) -> bool {
        let Some(hpa) = self.obj.pd(ctx.pd).mem.translate(addr) else {
            return false;
        };
        if self.machine.bus.mmio_owner(hpa).is_none() {
            return false;
        }
        self.machine.clock += nova_hw::cpu::DEVICE_ACCESS_CYCLES;
        self.machine
            .bus
            .mmio_write(&mut self.machine.mem, self.machine.clock, hpa, size, val);
        true
    }

    /// Port read (I/O space checked).
    pub fn dev_io_read(&mut self, ctx: CompCtx, port: u16, size: OpSize) -> Option<u32> {
        if !self.obj.pd(ctx.pd).io.allowed(port) {
            return None;
        }
        self.machine.clock += nova_hw::cpu::DEVICE_ACCESS_CYCLES;
        Some(
            self.machine
                .bus
                .io_read(&mut self.machine.mem, self.machine.clock, port, size),
        )
    }

    /// Port write (I/O space checked).
    pub fn dev_io_write(&mut self, ctx: CompCtx, port: u16, size: OpSize, val: u32) -> bool {
        if !self.obj.pd(ctx.pd).io.allowed(port) {
            return false;
        }
        self.machine.clock += nova_hw::cpu::DEVICE_ACCESS_CYCLES;
        self.machine
            .bus
            .io_write(&mut self.machine.mem, self.machine.clock, port, size, val);
        true
    }

    // ------------------------------------------------------------------
    // VM execution and exit handling
    // ------------------------------------------------------------------

    fn dispatch_vcpu(&mut self, sc_id: ScId) {
        let ec_id = self.obj.sc(sc_id).ec;
        if self.obj.ec(ec_id).blocked {
            return; // stays off the runqueue until resumed
        }
        // Run on the remaining quantum; it is consumed across exits so
        // an interrupt does not steal the rest of the timeslice
        // (Section 5.1's round-robin among equal priorities).
        let quantum = self.obj.sc(sc_id).left.max(1);
        let cpu = self.obj.ec(ec_id).cpu;
        let entered = self.machine.clock;

        let cost = self.machine.cost;
        let reason = {
            let ec = &mut self.obj.ecs[ec_id.0];
            let EcKind::Vcpu { vmcs } = &mut ec.kind else {
                return;
            };
            let m = &mut self.machine;
            run_guest(
                &mut m.cpus[cpu],
                &mut m.mem,
                &mut m.bus,
                &cost,
                &mut m.clock,
                vmcs,
                Some(quantum),
            )
        };

        self.counters.count_exit(&reason);
        let pd16 = self.obj.ec(ec_id).pd.0 as u16;
        let cpu16 = cpu as u16;
        // Each VM exit is a request origin: allocate a fresh causal
        // trace context so everything the exit sets in motion (the
        // exit portal IPC, VMM emulation, PV backend work, disk-server
        // spans) is stamped with one id.
        self.machine.bus.trace.alloc_ctx();
        let at = self.machine.clock;
        self.machine
            .bus
            .trace
            .emit(cpu16, pd16, TraceKind::VmExit, reason.index() as u64, at);
        let tagged = self
            .obj
            .ec(ec_id)
            .vmcs()
            .map(|v| v.vpid != 0)
            .unwrap_or(false);
        let tc = self.machine.cost.vm_transition_cost(tagged);
        self.machine
            .bus
            .trace
            .emit(cpu16, pd16, TraceKind::CostTransition, tc, at);
        self.machine.clock += tc;
        self.counters.cycles_transition += tc;

        let guest_elapsed = self.machine.clock - entered;
        let at = self.machine.clock;
        self.machine.bus.trace.begin(
            cpu16,
            pd16,
            TraceKind::ExitHandle,
            reason.index() as u64,
            at,
        );
        self.handle_exit(ec_id, reason);
        let handled = self.machine.clock;
        self.machine.bus.trace.end(
            cpu16,
            pd16,
            TraceKind::ExitHandle,
            reason.index() as u64,
            handled,
        );
        if self.machine.bus.trace.active() {
            self.machine
                .bus
                .trace
                .metrics
                .observe("exit_cycles", pd16 as u64, handled - entered);
        }
        // The exit's synchronous window is over; async continuations
        // (pending disk work) carry the id themselves.
        self.machine.bus.trace.set_ctx(nova_trace::CTX_NONE);

        // Quantum accounting and requeue (unless blocked).
        let sc = self.obj.sc_mut(sc_id);
        sc.left = sc.left.saturating_sub(guest_elapsed);
        let exhausted = sc.left == 0 || reason == ExitReason::Preempt;
        if exhausted {
            sc.left = sc.quantum;
        }
        if !self.obj.ec(ec_id).blocked {
            let prio = self.obj.sc(sc_id).prio;
            let cpu = self.obj.ec(ec_id).cpu;
            if exhausted {
                self.sched.cpu(cpu).enqueue(sc_id, prio);
            } else {
                // The turn continues: stay at the head of the class.
                self.sched.cpu(cpu).enqueue_front(sc_id, prio);
            }
        }
    }

    fn handle_exit(&mut self, ec_id: EcId, reason: ExitReason) {
        match reason {
            ExitReason::Preempt => {}
            ExitReason::ExtInt { vector } => self.deliver_vector(vector),
            ExitReason::PageFault { addr, err } => self.handle_vtlb_fault(ec_id, addr, err),
            ExitReason::MovCr {
                cr,
                write,
                gpr,
                len,
            } if self.is_shadow(ec_id) => {
                // vTLB-related exits are handled inside the
                // microhypervisor (Section 5.3), not the VMM.
                let cost = self.machine.cost;
                self.charge_kernel(2 * cost.vmread + cost.emul_simple / 2);
                let pd = self.obj.ec(ec_id).pd;
                let cache = self.shadows.get_mut(&ec_id).expect("shadow exists");
                let vmcs = match &mut self.obj.ecs[ec_id.0].kind {
                    EcKind::Vcpu { vmcs } => vmcs,
                    EcKind::Thread => return,
                };
                let ms = &self.obj.pds[pd.0].mem;
                let outcome = vtlb::handle_cr_access(
                    &mut self.machine.mem,
                    &mut self.alloc,
                    ms,
                    cache,
                    vmcs,
                    cr,
                    write,
                    gpr,
                    len,
                );
                let pd16 = pd.0 as u16;
                // A cold switch rebuilds the shadow from scratch — the
                // cost class the flush counter has always measured.
                let cold = matches!(outcome, CrOutcome::Switch { hit: false, .. });
                self.counters.vtlb_flushes += (cold || outcome == CrOutcome::Flush) as u64;
                match outcome {
                    CrOutcome::None => {}
                    CrOutcome::Flush => {
                        self.trace_emit(pd16, TraceKind::VtlbFlush, cr as u64);
                    }
                    CrOutcome::Switch { hit, evicted } => {
                        if hit {
                            self.counters.vtlb_switch_hits += 1;
                        } else {
                            self.counters.vtlb_switch_misses += 1;
                        }
                        if evicted {
                            self.counters.vtlb_shadow_evictions += 1;
                        }
                        self.trace_emit(pd16, TraceKind::VtlbSwitch, hit as u64);
                    }
                }
                self.drain_tlb_ops(ec_id);
            }
            ExitReason::Invlpg { addr, len } if self.is_shadow(ec_id) => {
                let cost = self.machine.cost;
                self.charge_kernel(2 * cost.vmread + cost.emul_simple / 2);
                let cache = self.shadows.get_mut(&ec_id).expect("shadow exists");
                let vmcs = match &mut self.obj.ecs[ec_id.0].kind {
                    EcKind::Vcpu { vmcs } => vmcs,
                    EcKind::Thread => return,
                };
                vtlb::handle_invlpg(&mut self.machine.mem, cache, vmcs, addr, len);
                let cpu = self.obj.ec(ec_id).cpu;
                let vpid = self.obj.ec(ec_id).vmcs().unwrap().vpid;
                self.machine.cpus[cpu].tlb.invalidate(vpid, addr as u64);
            }
            ExitReason::TripleFault
            | ExitReason::IntWindow
            | ExitReason::Cpuid { .. }
            | ExitReason::Hlt { .. }
            | ExitReason::Invlpg { .. }
            | ExitReason::MovCr { .. }
            | ExitReason::IoPort { .. }
            | ExitReason::EptViolation { .. }
            | ExitReason::Vmcall { .. }
            | ExitReason::Rdtsc { .. }
            | ExitReason::Recall => self.deliver_exit(ec_id, reason),
        }
    }

    fn is_shadow(&self, ec_id: EcId) -> bool {
        matches!(
            self.obj.ec(ec_id).vmcs().map(|v| v.paging),
            Some(PagingVirt::Shadow { .. })
        )
    }

    fn handle_vtlb_fault(&mut self, ec_id: EcId, addr: u32, err: u32) {
        // Figure 9: six VMREADs to determine the cause, then the fill.
        let cost = self.machine.cost;
        self.charge_kernel(6 * cost.vmread + cost.vtlb_fill_sw);

        let pd = self.obj.ec(ec_id).pd;
        let Some(cache) = self.shadows.get_mut(&ec_id) else {
            return;
        };
        let vmcs = match &mut self.obj.ecs[ec_id.0].kind {
            EcKind::Vcpu { vmcs } => vmcs,
            EcKind::Thread => return,
        };
        let ms = &self.obj.pds[pd.0].mem;
        let outcome = vtlb::handle_page_fault(
            &mut self.machine.mem,
            &mut self.alloc,
            ms,
            cache,
            vmcs,
            addr,
            err,
        );
        match outcome {
            VtlbOutcome::Filled => {
                self.counters.vtlb_fills += 1;
                self.trace_emit(pd.0 as u16, TraceKind::VtlbFill, addr as u64);
            }
            VtlbOutcome::InjectPf { err } => {
                self.counters.guest_page_faults += 1;
                self.trace_emit(pd.0 as u16, TraceKind::GuestPageFault, addr as u64);
                let vmcs = self.obj.ecs[ec_id.0].vmcs_mut().unwrap();
                vmcs.guest.cr2 = addr;
                vmcs.injection = Some(nova_hw::vmx::Injection {
                    vector: nova_x86::reg::vector::PAGE_FAULT,
                    error_code: Some(err),
                });
            }
            VtlbOutcome::Mmio { gpa, write } => {
                // Route to the VMM as an MMIO event.
                let access = if write { Access::WRITE } else { Access::READ };
                self.deliver_exit(ec_id, ExitReason::EptViolation { gpa, access });
            }
        }
    }

    /// Sends the VM-exit message through the event-specific portal in
    /// the VM's capability space and applies the VMM's reply
    /// (Section 5.2, Figure 3).
    fn deliver_exit(&mut self, ec_id: EcId, reason: ExitReason) {
        let pd = self.obj.ec(ec_id).pd;
        // An EC that is no vCPU of its domain has no portal table, and
        // a vCPU may have no handler installed: either way the VM
        // cannot make progress.
        let cap = self.obj.ec(ec_id).vcpu_index.and_then(|i| {
            let sel = EXIT_PORTAL_BASE + i * EXIT_PORTAL_STRIDE + reason.index();
            self.obj.pd(pd).caps.get(sel)
        });
        let Some(cap) = cap else {
            self.obj.ec_mut(ec_id).blocked = true;
            return;
        };
        let pt = match cap.obj {
            ObjRef::Pt(id) if cap.perms.allows(Perms::CALL) => id,
            _ => {
                self.obj.ec_mut(ec_id).blocked = true;
                return;
            }
        };

        // Fault site: the VMM process dies just before this exit is
        // delivered to it. The handler EC's domain is the VMM (root is
        // never crashed); the vCPU parks exactly as it would if the
        // portal were gone, and the supervisor's watchdog takes it
        // from there.
        let handler_pd = self.obj.ec(self.obj.pt(pt).ec).pd;
        if handler_pd != self.root_pd {
            let now = self.machine.clock;
            if self
                .machine
                .bus
                .fault
                .roll(now, FaultKind::VmmCrash, handler_pd.0 as u64)
            {
                self.trace_emit(
                    handler_pd.0 as u16,
                    TraceKind::FaultInject,
                    FaultKind::VmmCrash as u64,
                );
                self.pd_fault(handler_pd, VMM_CRASH_CODE);
                self.obj.ec_mut(ec_id).blocked = true;
                return;
            }
        }

        // Read the guest state selected by the portal's MTD out of the
        // VMCS (the Section 5.2 optimization: fewer groups = fewer
        // VMREADs).
        let mtd_bits = self.obj.pt(pt).mtd;
        let cost = self.machine.cost;
        let vmread_cost = mtd::group_count(mtd_bits) as Cycles * cost.vmread;
        self.charge_ipc(vmread_cost);

        let vmcs = self.obj.ec(ec_id).vmcs().expect("vCPU");
        let mut msg = VmExitMsg::new(reason, mtd_bits, vmcs.guest.clone());
        msg.window_open = vmcs.guest.if_set() && !vmcs.sti_shadow;
        msg.halted = vmcs.halted;

        let mut utcb = Utcb::new();
        utcb.vm = Some(msg);

        if self.ipc_to_portal(pd, pt, &mut utcb).is_err() {
            self.obj.ec_mut(ec_id).blocked = true;
            return;
        }

        // Apply the reply.
        let Some(reply) = utcb.vm else { return };
        let wb_cost = mtd::group_count(reply.reply_mtd) as Cycles * cost.vmread;
        self.charge_ipc(wb_cost);

        let vmcs = self.obj.ecs[ec_id.0].vmcs_mut().expect("vCPU");
        apply_mtd(&mut vmcs.guest, &reply.regs, reply.reply_mtd);
        if let Some(inj) = reply.reply_inject {
            self.inject_virq(ec_id, inj);
        }
        let vmcs = self.obj.ecs[ec_id.0].vmcs_mut().unwrap();
        if reply.reply_intwin {
            vmcs.intwin_exit = true;
        }
        if reply.reply_block {
            vmcs.halted = false; // blocking is kernel-side, not hw
            self.obj.ec_mut(ec_id).blocked = true;
        }
    }

    // ------------------------------------------------------------------
    // The scheduler loop
    // ------------------------------------------------------------------

    fn dispatch_thread(&mut self, sc_id: ScId) {
        let ec_id = self.obj.sc(sc_id).ec;
        if self.obj.ec(ec_id).blocked {
            // A faulted (or dying) domain's thread never runs again;
            // whatever activations raced in with its death are dropped.
            self.obj.ec_mut(ec_id).activations = VecDeque::new();
            return;
        }
        let ec = self.obj.ec_mut(ec_id);
        let Some(act) = ec.activations.pop_front() else {
            return;
        };
        let Some(comp) = ec.comp else {
            return;
        };
        let ctx = CompCtx {
            pd: self.obj.ec(ec_id).pd,
            ec: ec_id,
            comp,
        };
        // Each thread activation is a request origin of its own
        // (doorbell service, completion drain, supervisor tick); the
        // component may overwrite the context with a carried one once
        // it knows which request it is working for.
        self.machine.bus.trace.alloc_ctx();
        // The activation enters the component through the kernel: one
        // boundary round trip.
        self.trace_emit(ctx.pd.0 as u16, TraceKind::SchedDispatch, ec_id.0 as u64);
        let cost = self.machine.cost;
        self.charge_ipc(cost.ipc_cross_as());
        match act {
            Activation::Signal(sm) => {
                self.with_component(comp, |c, k| c.on_signal(k, ctx, sm));
            }
        }
        self.machine.bus.trace.set_ctx(nova_trace::CTX_NONE);
        // More pending activations keep the SC runnable.
        if !self.obj.ec(ec_id).activations.is_empty() {
            let prio = self.obj.sc(sc_id).prio;
            let cpu = self.obj.ec(ec_id).cpu;
            self.sched.cpu(cpu).enqueue(sc_id, prio);
        }
    }

    /// Runs the system: schedules SCs across all CPUs until shutdown,
    /// idle deadlock, or the optional cycle budget elapses.
    pub fn run(&mut self, budget: Option<Cycles>) -> RunOutcome {
        let deadline = budget.map(|b| self.machine.clock + b);
        loop {
            if let Some(code) = self.machine.bus.ctl.shutdown.take() {
                return RunOutcome::Shutdown(code);
            }
            if deadline.is_some_and(|d| self.machine.clock >= d) {
                return RunOutcome::Budget;
            }
            // Process due device events and interrupts noticed while
            // in host mode.
            let now = self.machine.clock;
            self.machine.bus.process_events(&mut self.machine.mem, now);
            self.poll_interrupts();
            self.fire_timers();
            self.check_watchdogs();

            let mut ran = false;
            for cpu in 0..self.sched.cpus() {
                if let Some(sc) = self.sched.cpu(cpu).pick() {
                    ran = true;
                    let ec = self.obj.sc(sc).ec;
                    match self.obj.ec(ec).kind {
                        EcKind::Vcpu { .. } => self.dispatch_vcpu(sc),
                        EcKind::Thread => self.dispatch_thread(sc),
                    }
                }
            }
            if !ran {
                // Idle: fast-forward to the next device event, timer,
                // or watchdog deadline.
                let next_timer = self.timers.iter().map(|t| t.due).min();
                let next_wd = self
                    .watchdogs
                    .iter()
                    .filter(|w| !w.fired)
                    .map(|w| w.stamp + w.timeout)
                    .min();
                let next = [self.machine.bus.next_event_due(), next_timer, next_wd]
                    .into_iter()
                    .flatten()
                    .min();
                match next {
                    Some(due) => {
                        let skip = due.saturating_sub(self.machine.clock);
                        self.machine.cpus[0].idle_cycles += skip;
                        self.machine.clock = self.machine.clock.max(due);
                        let now = self.machine.clock;
                        self.machine.bus.process_events(&mut self.machine.mem, now);
                        self.poll_interrupts();
                        self.fire_timers();
                        self.check_watchdogs();
                    }
                    None => return RunOutcome::Idle,
                }
            }
        }
    }
}

/// Copies the register groups selected by `mtd` from `src` to `dst`.
pub fn apply_mtd(dst: &mut Regs, src: &Regs, mtd_bits: u32) {
    use nova_x86::reg::Reg;
    if mtd_bits & mtd::GPR_ACDB != 0 {
        for r in [Reg::Eax, Reg::Ecx, Reg::Edx, Reg::Ebx] {
            dst.set(r, src.get(r));
        }
    }
    if mtd_bits & mtd::GPR_BSD != 0 {
        for r in [Reg::Ebp, Reg::Esi, Reg::Edi] {
            dst.set(r, src.get(r));
        }
    }
    if mtd_bits & mtd::ESP != 0 {
        dst.set(Reg::Esp, src.get(Reg::Esp));
    }
    if mtd_bits & mtd::EIP != 0 {
        dst.eip = src.eip;
    }
    if mtd_bits & mtd::EFL != 0 {
        dst.eflags = src.eflags;
    }
    if mtd_bits & mtd::CR != 0 {
        dst.cr0 = src.cr0;
        dst.cr2 = src.cr2;
        dst.cr3 = src.cr3;
        dst.cr4 = src.cr4;
    }
    if mtd_bits & mtd::IDT != 0 {
        dst.idt_base = src.idt_base;
        dst.idt_limit = src.idt_limit;
    }
}

/// Ascending `keys` as `(base, count)` runs of consecutive keys.
fn runs(keys: impl Iterator<Item = u64>) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for k in keys {
        match out.last_mut() {
            Some((base, count)) if *base + *count == k => *count += 1,
            _ => out.push((k, 1)),
        }
    }
    out
}

/// The frames behind the `pages`-page window at `addr` of `ms`, as runs
/// `(first window page, first frame, pages)` of consecutive frames:
/// `None` unless `addr` is page-aligned and every page is mapped —
/// writable, if `write`. Nothing has been touched by then.
fn window_runs(
    ms: &MemSpace,
    addr: u64,
    pages: usize,
    write: bool,
) -> Option<impl Iterator<Item = (usize, u64, usize)> + '_> {
    if addr & 0xfff != 0 {
        return None;
    }
    let unusable = |m: &Option<MemMapping>| m.is_none_or(|m| write && !m.rights.write);
    if ms.slices(addr >> 12, pages as u64).flatten().any(unusable) {
        return None;
    }
    let adjacent = |a: &Option<MemMapping>, b: &Option<MemMapping>| {
        a.zip(*b)
            .is_some_and(|(a, b)| b.hpa == a.hpa + PAGE_SIZE as u64)
    };
    let runs = ms
        .slices(addr >> 12, pages as u64)
        .flat_map(move |s| s.chunk_by(adjacent));
    let mut at = 0;
    Some(runs.map(move |run| {
        at += run.len();
        let first = run[0].expect("validated above").hpa;
        (at - run.len(), first, run.len())
    }))
}

/// Maps each `(page, mapping)` of `held` with `dma` rights into the
/// IOMMU domain of each of `devices`, a page at a time.
fn map_dma(iommu: &mut Iommu, devices: &[usize], held: impl Iterator<Item = (u64, MemMapping)>) {
    for (page, m) in held.filter(|(_, m)| m.rights.dma) {
        for &dev in devices {
            iommu.map_page(dev, page * PAGE_SIZE as u64, m.hpa, m.rights.write);
        }
    }
}

/// The first mapping of the `cp`-page chunk at `page` of `ms` if one
/// large leaf can stand for the chunk: every page mapped, the frames
/// consecutive from a chunk-aligned one, one write right throughout.
fn uniform_chunk(ms: &MemSpace, page: u64, cp: u64) -> Option<MemMapping> {
    let first = ms.slices(page, 1).next()?[0]?;
    let size = cp * PAGE_SIZE as u64;
    let fits = |(j, m): (u64, &Option<MemMapping>)| {
        m.is_some_and(|m| {
            m.hpa == first.hpa + j * PAGE_SIZE as u64 && m.rights.write == first.rights.write
        })
    };
    let whole = (0..).zip(ms.slices(page, cp).flatten()).all(fits);
    (first.hpa.is_multiple_of(size) && whole).then_some(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::utcb::XferItem;
    use nova_hw::machine::MachineConfig;

    fn kernel() -> Kernel {
        let m = Machine::new(MachineConfig::core_i7(32 << 20));
        Kernel::new(m, KernelConfig::default())
    }

    /// A trivial component whose handler doubles the first message
    /// word and counts invocations.
    #[derive(Default)]
    struct Doubler {
        calls: u64,
        portals: Vec<u64>,
        signals: Vec<SmId>,
    }

    impl Component for Doubler {
        fn name(&self) -> &str {
            "doubler"
        }
        fn on_call(&mut self, k: &mut Kernel, _ctx: CompCtx, portal_id: u64, utcb: &mut Utcb) {
            self.calls += 1;
            self.portals.push(portal_id);
            let v = utcb.word(0);
            utcb.set_msg(&[v * 2, portal_id]);
            k.charge(100);
        }
        fn on_signal(&mut self, _k: &mut Kernel, _ctx: CompCtx, sm: SmId) {
            self.signals.push(sm);
        }
        fn as_any(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    fn root_ctx(k: &Kernel, ec: EcId, comp: CompId) -> CompCtx {
        CompCtx {
            pd: k.root_pd,
            ec,
            comp,
        }
    }

    #[test]
    fn boot_gives_root_resources() {
        let k = kernel();
        let root = k.obj.pd(k.root_pd);
        assert!(root.io.allowed(0x3f8), "root owns the UART");
        assert!(!root.io.allowed(0x20), "hypervisor keeps the PIC");
        assert!(!root.io.allowed(0x40), "hypervisor keeps the PIT");
        assert!(root.mem.lookup(0).is_some());
        // Hypervisor memory excluded.
        let hv_first_page = (32 << 20) as u64 / 4096 - HV_MEM / 4096;
        assert!(root.mem.lookup(hv_first_page).is_none());
    }

    /// A component learns a semaphore's id from its own capability —
    /// not from where `add_sm` happened to put the newest object — and
    /// the helper is the two hypercalls it replaces, no more.
    #[test]
    fn bound_sm_is_named_by_the_callers_capability() {
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);
        let before = k.counters.hypercalls;
        let first = k.create_bound_sm(ctx, 0x40).unwrap();
        assert_eq!(k.counters.hypercalls, before + 2, "CreateSm + SmBind");
        let second = k.create_bound_sm(ctx, 0x41).unwrap();
        assert_ne!(first, second);
        assert_eq!(k.bind_sm(ctx, 0x40), Ok(first), "not the newest semaphore");
        assert_eq!(k.counters.hypercalls, before + 5);
        assert_eq!(k.obj.sm(first).bound, Some(ec));
        assert_eq!(k.bind_sm(ctx, 0x42), Err(HcErr::BadCap));
    }

    #[test]
    fn object_quota_rejects_gracefully() {
        let m = Machine::new(MachineConfig::core_i7(32 << 20));
        let mut k = Kernel::new(
            m,
            KernelConfig {
                obj_quota: 8,
                ..KernelConfig::default()
            },
        );
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);

        // Burn the whole quota on semaphores...
        let mut created = 0;
        for i in 0..64usize {
            match k.hypercall(
                ctx,
                Hypercall::CreateSm {
                    count: 0,
                    dst: 0x100 + i,
                },
            ) {
                Ok(_) => created += 1,
                Err(HcErr::QuotaExceeded) => break,
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        assert_eq!(created, 8, "quota bounds creation");
        // ...and every further creation, of any kind, stays rejected
        // without touching kernel state.
        let pds = k.obj.pds.len();
        assert_eq!(
            k.hypercall(
                ctx,
                Hypercall::CreatePd {
                    name: "greedy".into(),
                    vm: None,
                    dst: 0x200,
                },
            ),
            Err(HcErr::QuotaExceeded)
        );
        assert_eq!(k.obj.pds.len(), pds, "no partial allocation");
        assert!(k.counters.quota_rejections >= 2);
        // The rest of the system still works: non-creating hypercalls
        // are unaffected.
        k.hypercall(ctx, Hypercall::SmUp { sm: 0x100 }).unwrap();
    }

    #[test]
    fn hostile_delegate_ranges_rejected() {
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);
        k.hypercall(
            ctx,
            Hypercall::CreatePd {
                name: "sub".into(),
                vm: None,
                dst: 0x30,
            },
        )
        .unwrap();
        // A count that wraps the page-number space must fail fast.
        assert_eq!(
            k.hypercall(
                ctx,
                Hypercall::DelegateMem {
                    dst_pd: 0x30,
                    base: u64::MAX - 2,
                    count: 8,
                    rights: MemRights::RW,
                    hot: 0,
                },
            ),
            Err(HcErr::BadParam)
        );
        assert_eq!(
            k.hypercall(
                ctx,
                Hypercall::RevokeMem {
                    base: 4,
                    count: u64::MAX,
                    include_self: false,
                },
            ),
            Err(HcErr::BadParam)
        );
        assert_eq!(
            k.hypercall(
                ctx,
                Hypercall::DelegateIo {
                    dst_pd: 0x30,
                    base: 0xfff0,
                    count: 0x20,
                },
            ),
            Err(HcErr::BadParam)
        );
    }

    /// The creator keeps its capability for a domain it destroyed; it
    /// can put nothing into the wreck through it.
    #[test]
    fn a_destroyed_domain_takes_no_delegation_ec_or_device() {
        let (mut k, ctx) = root_with_portal();
        let sub = Hypercall::CreatePd {
            name: "sub".into(),
            vm: None,
            dst: 0x30,
        };
        k.hypercall(ctx, sub).unwrap();
        k.hypercall(ctx, Hypercall::DestroyPd { pd: 0x30 }).unwrap();
        for into_the_wreck in [
            Hypercall::DelegateMem {
                dst_pd: 0x30,
                base: 0x100,
                count: 1,
                rights: MemRights::RW,
                hot: 0x100,
            },
            Hypercall::DelegateIo {
                dst_pd: 0x30,
                base: 0x3f8,
                count: 1,
            },
            Hypercall::DelegateCap {
                dst_pd: 0x30,
                sel: 101,
                perms: Perms::CALL,
                hot: 5,
            },
            Hypercall::DelegateGsi {
                dst_pd: 0x30,
                gsi: 4,
            },
            Hypercall::CreateEc {
                pd: 0x30,
                vcpu: false,
                cpu: 0,
                dst: 0x31,
            },
            Hypercall::AssignDev {
                pd: 0x30,
                device: 0,
            },
        ] {
            let number = into_the_wreck.number();
            let refused = k.hypercall(ctx, into_the_wreck);
            assert_eq!(refused, Err(HcErr::BadCap), "hypercall {number}");
        }
        assert_eq!(k.check_invariants(), Ok(()));
        // Root re-issues the destroy on purpose; that stays a no-op.
        k.hypercall(ctx, Hypercall::DestroyPd { pd: 0x30 }).unwrap();
    }

    /// A VM's pages stop where its nested table stops reaching: 2^36
    /// pages under EPT, 2^20 under NPT; any other domain's where a byte
    /// address stops. One page past it is refused; it used to be
    /// mirrored at a truncated guest-physical address, where
    /// `check_invariants` found a leaf the space does not hold, and to
    /// overflow the byte address its teardown computes.
    #[test]
    fn delegation_into_a_vm_stops_at_its_nested_tables_reach() {
        use nova_x86::paging::NestedFormat;
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);
        for (dst, fmt) in [
            (0x40, Some(NestedFormat::Ept4Level)),
            (0x41, Some(NestedFormat::Npt2Level)),
            (0x42, None),
        ] {
            let vm = Hypercall::CreatePd {
                name: "vm".into(),
                vm: fmt.map(VmPaging::Nested),
                dst,
            };
            k.hypercall(ctx, vm).unwrap();
            let bytes = fmt.map_or(u64::MAX, |f| f.page_size_at(f.levels()));
            let reach = bytes / PAGE_SIZE as u64;
            let into = |hot| Hypercall::DelegateMem {
                dst_pd: dst,
                base: 0x100,
                count: 1,
                rights: MemRights::RW,
                hot,
            };
            assert_eq!(k.hypercall(ctx, into(reach)), Err(HcErr::BadParam));
            k.hypercall(ctx, into(reach - 1)).unwrap();
            assert_eq!(k.check_invariants(), Ok(()), "{fmt:?}");
            k.hypercall(ctx, Hypercall::DestroyPd { pd: dst }).unwrap();
        }
    }

    /// A capability table grows to the selector it is given: one past
    /// `MAX_SEL` is refused before anything is made, where a wild one
    /// used to resize the table (`capacity overflow`, or gigabytes).
    #[test]
    fn a_selector_past_the_table_bound_is_refused() {
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);
        let (pds, sms) = (k.obj.pds.len(), k.obj.sms.len());
        for dst in [MAX_SEL, usize::MAX - 1] {
            let create = Hypercall::CreateSm { count: 0, dst };
            assert_eq!(k.hypercall(ctx, create), Err(HcErr::BadParam));
            let pd = Hypercall::CreatePd {
                name: "pd".into(),
                vm: None,
                dst,
            };
            assert_eq!(k.hypercall(ctx, pd), Err(HcErr::BadParam));
        }
        assert_eq!((k.obj.pds.len(), k.obj.sms.len()), (pds, sms));
        k.hypercall(ctx, Hypercall::CreateSm { count: 0, dst: 5 })
            .unwrap();
        let delegate = |hot| Hypercall::DelegateCap {
            dst_pd: SEL_SELF_PD,
            sel: 5,
            perms: Perms::ALL,
            hot,
        };
        assert_eq!(k.hypercall(ctx, delegate(usize::MAX)), Err(HcErr::BadParam));
        k.hypercall(ctx, delegate(MAX_SEL - 1)).unwrap();
        assert_eq!(k.check_invariants(), Ok(()));
    }

    #[test]
    fn portal_call_roundtrip_with_accounting() {
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);

        k.hypercall(
            ctx,
            Hypercall::CreatePt {
                ec: 100,
                mtd: 0,
                id: 7,
                dst: 101,
            },
        )
        .expect_err("no EC capability yet");

        // Give ourselves the EC capability (boot-style, via install).
        k.install_cap(
            k.root_pd,
            100,
            Capability {
                obj: ObjRef::Ec(ec),
                perms: Perms::ALL,
            },
        );
        k.hypercall(
            ctx,
            Hypercall::CreatePt {
                ec: 100,
                mtd: 0,
                id: 7,
                dst: 101,
            },
        )
        .unwrap();

        let before = k.now();
        let mut utcb = Utcb::new();
        utcb.set_msg(&[21]);
        k.ipc_call(ctx, 101, &mut utcb).unwrap();
        assert_eq!(utcb.word(0), 42);
        assert_eq!(utcb.word(1), 7, "portal id reaches the handler");
        assert!(k.now() > before, "IPC charged cycles");
        assert_eq!(k.counters.ipc_calls, 1);
        assert_eq!(k.component_mut::<Doubler>(comp).unwrap().calls, 1);
    }

    /// First page and size of the receive window of [`root_with_portal`]'s
    /// portal: above the 32 MB of RAM, so nothing is mapped there.
    const WINDOW: (u64, u64) = (0x9_0000, 0x10);

    /// Root with a [`Doubler`] behind portal selector 101 (id 7), whose
    /// receive window is [`WINDOW`].
    fn root_with_portal() -> (Kernel, CompCtx) {
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);
        k.install_cap(
            k.root_pd,
            100,
            Capability {
                obj: ObjRef::Ec(ec),
                perms: Perms::ALL,
            },
        );
        let (base, count) = WINDOW;
        for hc in [
            Hypercall::CreatePt {
                ec: 100,
                mtd: 0,
                id: 7,
                dst: 101,
            },
            Hypercall::PtWindow {
                pt: 101,
                base,
                count,
            },
        ] {
            k.hypercall(ctx, hc).unwrap();
        }
        (k, ctx)
    }

    /// A call carrying `item` is refused with `err` before the handler
    /// runs; the items are consumed, their buffer comes back and the
    /// `IpcCall` span is closed. Returns the kernel (tracing since
    /// before the call), root's context and the call's request context.
    fn refuse_typed_item(item: XferItem, err: HcErr) -> (Kernel, CompCtx, u64, Utcb) {
        use nova_trace::{cat, Tracer};
        let (mut k, ctx) = root_with_portal();
        k.machine.bus.trace = Tracer::new(1, 1024, cat::ALL);
        let request = k.machine.bus.trace.alloc_ctx();
        let mut utcb = Utcb::new();
        utcb.set_msg(&[21]);
        utcb.xfer.reserve(8);
        let capacity = utcb.xfer.capacity();
        utcb.xfer.push(item);
        assert_eq!(k.ipc_call(ctx, 101, &mut utcb), Err(err));
        assert!(utcb.xfer.is_empty(), "the refused items are consumed");
        assert_eq!(utcb.xfer.capacity(), capacity, "the buffer comes back");
        assert_eq!(k.component_mut::<Doubler>(ctx.comp).unwrap().calls, 0);
        assert_eq!(ipc_spans(&k), (1, 1));
        assert_eq!(k.check_invariants(), Ok(()));
        (k, ctx, request, utcb)
    }

    /// `IpcCall` spans the trace saw (begun, ended).
    fn ipc_spans(k: &Kernel) -> (usize, usize) {
        use nova_trace::Phase;
        let events = k.machine.tracer().events();
        let ipc = |phase: Phase| {
            let of = |e: &&nova_trace::TraceEvent| e.kind == TraceKind::IpcCall && e.phase == phase;
            events.iter().filter(of).count()
        };
        (ipc(Phase::Begin), ipc(Phase::End))
    }

    /// Typed items take the one checked way into delegation the
    /// hypercalls take: a range that wraps the page-number space…
    #[test]
    fn hostile_typed_mem_item_rejected() {
        let item = XferItem {
            base: 0x100,
            count: 4,
            rights: MemRights::RW,
            hot: u64::MAX - 1,
        };
        refuse_typed_item(item, HcErr::BadParam);
    }

    /// …and an item lands at its offset inside the portal's receive
    /// window, never where the sender would put it: one page past the
    /// last is refused, as is any item at all through a portal without
    /// a window. A reply carries no item back.
    #[test]
    fn typed_items_land_only_inside_the_portals_receive_window() {
        let (base, pages) = WINDOW;
        let item = |hot, count| XferItem {
            base: 0x100,
            count,
            rights: MemRights::RW,
            hot,
        };
        refuse_typed_item(item(pages - 1, 2), HcErr::BadParam);
        refuse_typed_item(item(pages, 1), HcErr::BadParam);

        let (mut k, ctx) = root_with_portal();
        let mut utcb = Utcb::new();
        utcb.xfer.push(item(pages - 2, 2));
        k.ipc_call(ctx, 101, &mut utcb).unwrap();
        let root = &k.obj.pd(k.root_pd).mem;
        let hpa = |p| root.lookup(p).map(|m| m.hpa);
        assert_eq!(hpa(base + pages - 2), Some(0x100 * PAGE_SIZE as u64));
        assert_eq!(hpa(base + pages - 1), Some(0x101 * PAGE_SIZE as u64));
        assert!(utcb.xfer.is_empty(), "no item comes back with the reply");

        k.hypercall(
            ctx,
            Hypercall::PtWindow {
                pt: 101,
                base,
                count: 0,
            },
        )
        .unwrap();
        let mut utcb = Utcb::new();
        utcb.xfer.push(item(0, 1));
        assert_eq!(k.ipc_call(ctx, 101, &mut utcb), Err(HcErr::BadParam));
        assert_eq!(k.check_invariants(), Ok(()));
    }

    /// The window is the receiver's to name: a domain holding the
    /// portal to call it is refused, and a window that wraps the page
    /// numbers or is too large to walk is a parameter error.
    #[test]
    fn only_the_handlers_domain_sets_a_receive_window() {
        let (mut k, ctx) = root_with_portal();
        let pd = Hypercall::CreatePd {
            name: "client".into(),
            vm: None,
            dst: 0x30,
        };
        k.hypercall(ctx, pd).unwrap();
        let call_only = Hypercall::DelegateCap {
            dst_pd: 0x30,
            sel: 101,
            perms: Perms::CALL,
            hot: 0x20,
        };
        k.hypercall(ctx, call_only).unwrap();
        let client = CompCtx {
            pd: PdId(k.obj.pds.len() - 1),
            ..ctx
        };
        let window = |pt, base, count| Hypercall::PtWindow { pt, base, count };
        assert_eq!(
            k.hypercall(client, window(0x20, 0, 1 << 20)),
            Err(HcErr::NotOwner)
        );
        assert_eq!(k.hypercall(client, window(0x21, 0, 1)), Err(HcErr::BadCap));
        assert_eq!(k.hypercall(ctx, window(100, 0, 1)), Err(HcErr::BadCap));
        for (base, count) in [(u64::MAX, 2), (0, MAX_RANGE_PAGES + 1)] {
            let wild = window(101, base, count);
            assert_eq!(k.hypercall(ctx, wild), Err(HcErr::BadParam));
        }
        let portal = |k: &Kernel| match k.obj.pd(k.root_pd).caps.get(101).unwrap().obj {
            ObjRef::Pt(pt) => k.obj.windows.get(&pt).copied(),
            _ => unreachable!(),
        };
        assert_eq!(portal(&k), Some(WINDOW), "refusals leave the window");
        k.hypercall(ctx, window(101, 7, 3)).unwrap();
        assert_eq!(portal(&k), Some((7, 3)));
    }

    #[test]
    fn refused_typed_item_closes_the_ipc_span_and_hands_the_buffer_back() {
        use nova_trace::causal;
        // The last page of RAM is hypervisor memory: root holds no
        // mapping of it to delegate.
        let foreign = (32 << 20) / PAGE_SIZE as u64 - 1;
        let item = XferItem {
            base: foreign,
            count: 1,
            rights: MemRights::RW,
            hot: 0,
        };
        let (mut k, ctx, request, mut utcb) = refuse_typed_item(item, HcErr::NotOwner);
        k.ipc_call(ctx, 101, &mut utcb).unwrap();
        assert_eq!(utcb.word(0), 42);

        assert_eq!(ipc_spans(&k), (2, 2));
        let events = k.machine.tracer().events();
        // The successful call is a sibling of the refused one, and the
        // handler's work hangs under it alone.
        let tree = causal::request_tree(request, &causal::by_context(&events)[&request]).unwrap();
        let calls: Vec<_> = tree
            .roots
            .iter()
            .filter(|n| n.kind == TraceKind::IpcCall)
            .collect();
        let handled = |n: &causal::SpanNode| {
            n.children
                .iter()
                .any(|c| c.kind == TraceKind::CostEmulation)
        };
        assert_eq!(calls.len(), 2);
        assert!(!handled(calls[0]) && handled(calls[1]));
    }

    #[test]
    fn exits_route_by_the_vcpu_index_stored_at_create_ec() {
        use nova_x86::paging::NestedFormat;
        let (mut k, ctx) = root_with_portal();
        k.hypercall(
            ctx,
            Hypercall::CreatePd {
                name: "vm".into(),
                vm: Some(VmPaging::Nested(NestedFormat::Ept4Level)),
                dst: 0x40,
            },
        )
        .unwrap();
        let vm = PdId(k.obj.pds.len() - 1);
        let reason = ExitReason::Cpuid { len: 2 };
        for i in 0..2 {
            let id = (i as u64) << 8 | reason.index() as u64;
            for hc in [
                Hypercall::CreateEc {
                    pd: 0x40,
                    vcpu: true,
                    cpu: 0,
                    dst: 0x41 + i,
                },
                Hypercall::CreatePt {
                    ec: 100,
                    mtd: 0,
                    id,
                    dst: 0x60 + i,
                },
                Hypercall::DelegateCap {
                    dst_pd: 0x40,
                    sel: 0x60 + i,
                    perms: Perms::CALL,
                    hot: EXIT_PORTAL_BASE + i * EXIT_PORTAL_STRIDE + reason.index(),
                },
            ] {
                k.hypercall(ctx, hc).unwrap();
            }
        }
        let (v0, v1) = (k.obj.pd(vm).vcpus[0], k.obj.pd(vm).vcpus[1]);
        assert_eq!(k.obj.ec(v0).vcpu_index, Some(0));
        assert_eq!(k.obj.ec(v1).vcpu_index, Some(1));
        assert_eq!(k.obj.ec(ctx.ec).vcpu_index, None, "threads have none");

        k.deliver_exit(v1, reason);
        k.deliver_exit(v0, reason);
        let served = |k: &mut Kernel| {
            k.component_mut::<Doubler>(ctx.comp)
                .unwrap()
                .portals
                .clone()
        };
        assert_eq!(served(&mut k), [0x102, 0x002], "each vCPU, its own stride");
        assert!(!k.obj.ec(v0).blocked && !k.obj.ec(v1).blocked);

        // An EC that is not a vCPU of its domain is parked like one
        // without a portal, not served through vCPU 0's.
        k.obj.ec_mut(v1).vcpu_index = None;
        k.deliver_exit(v1, reason);
        assert!(k.obj.ec(v1).blocked);
        assert_eq!(served(&mut k).len(), 2);
    }

    /// A vCPU record decodes to the snapshot that wrote it, and only a
    /// record some snapshot writes decodes at all: every byte whose
    /// change the decoder would not carry back is refused.
    #[test]
    fn vcpu_records_decode_canonically() {
        let mut snap = VcpuSnapshot::from_bytes(&[0; VcpuSnapshot::BYTES]).unwrap();
        snap.regs.eip = 0x7c00;
        snap.regs.idt_limit = 0x3ff;
        snap.halted = true;
        snap.tsc_offset = u64::MAX - 5;
        for injection in [None, Some((0x0e, None)), Some((0x0d, Some(0x10)))] {
            snap.injection = injection.map(|(vector, error_code)| Injection { vector, error_code });
            let b = snap.to_bytes();
            assert_eq!(b.len(), VcpuSnapshot::BYTES);
            assert_eq!(VcpuSnapshot::from_bytes(&b), Some(snap.clone()));
            assert_eq!(VcpuSnapshot::from_bytes(&b[..b.len() - 1]), None);
            for at in 0..b.len() {
                let mut c = b.clone();
                c[at] ^= 0x42;
                if let Some(other) = VcpuSnapshot::from_bytes(&c) {
                    assert_eq!(other.to_bytes(), c, "byte {at} decodes, not back");
                }
            }
            // A flag byte of 2 reads as true; it is not what `true` writes.
            let mut c = b.clone();
            c[72] = 2;
            assert_eq!(VcpuSnapshot::from_bytes(&c), None);
        }
    }

    /// Root and a VM of two vCPUs, each with an SC, so both are queued.
    fn vm_of_two_queued_vcpus() -> (Kernel, CompCtx, [EcId; 2]) {
        use nova_x86::paging::NestedFormat;
        let (mut k, ctx) = root_with_portal();
        let vm = Some(VmPaging::Nested(NestedFormat::Ept4Level));
        let name = "vm".into();
        k.hypercall(
            ctx,
            Hypercall::CreatePd {
                name,
                vm,
                dst: 0x40,
            },
        )
        .unwrap();
        for i in 0..2 {
            let (pd, vcpu, cpu, dst) = (0x40, true, 0, 0x41 + i);
            k.hypercall(ctx, Hypercall::CreateEc { pd, vcpu, cpu, dst })
                .unwrap();
            let (prio, quantum) = (7 + i as u8, 1000);
            let sc = Hypercall::CreateSc {
                ec: dst,
                prio,
                quantum,
                dst: 0x50 + i,
            };
            k.hypercall(ctx, sc).unwrap();
        }
        let vm = PdId(k.obj.pds.len() - 1);
        let vcpus = [0, 1].map(|i| k.obj.pd(vm).vcpus[i]);
        (k, ctx, vcpus)
    }

    /// Clauses 6 and 7 of `check_invariants` against the corruptions
    /// each must see.
    #[test]
    fn check_invariants_sees_the_run_queues_and_the_ec_lists() {
        let (mut k, _, [_, v1]) = vm_of_two_queued_vcpus();
        let sc = k.obj.ec(v1).sc.unwrap();
        assert!(k.sched.cpu_ref(0).contains(sc));
        assert_eq!(k.check_invariants(), Ok(()));
        // A queued SC asked in again at another priority joins the
        // class it is pinned to.
        k.sched.cpu(0).enqueue(sc, 200);
        assert_eq!(k.check_invariants(), Ok(()));

        type Corrupt = fn(&mut Kernel, EcId, EcId, EcId);
        let corruptions: [(&str, Corrupt); 7] = [
            ("6: an SC queued off its priority", |k, _, v1, _| {
                let sc = k.obj.ec(v1).sc.unwrap();
                k.obj.scs[sc.0].prio = 9;
            }),
            ("6: an SC queued off its EC's CPU", |k, _, v1, _| {
                k.obj.ec_mut(v1).cpu = 1
            }),
            ("7: a vCPU index off by one", |k, _, v1, _| {
                k.obj.ec_mut(v1).vcpu_index = Some(2)
            }),
            ("7: the vCPU list out of order", |k, v0, _, _| {
                let vm = k.obj.ec(v0).pd;
                k.obj.pd_mut(vm).vcpus.reverse();
            }),
            ("7: a thread with a vCPU index", |k, _, _, t| {
                k.obj.ec_mut(t).vcpu_index = Some(0)
            }),
            ("7: a vCPU running a component", |k, v0, _, t| {
                k.obj.ec_mut(v0).comp = k.obj.ec(t).comp
            }),
            (
                "7: a destroyed domain's thread running one",
                |k, _, _, t| {
                    let pd = k.obj.ec(t).pd;
                    k.obj.pd_mut(pd).dying = true;
                },
            ),
        ];
        for (what, corrupt) in corruptions {
            let (mut k, ctx, [v0, v1]) = vm_of_two_queued_vcpus();
            corrupt(&mut k, v0, v1, ctx.ec);
            assert!(k.check_invariants().is_err(), "{what}");
        }
    }

    #[test]
    fn dead_domains_ecs_lose_their_activations_and_component() {
        let (mut k, ctx) = root_with_portal();
        k.hypercall(
            ctx,
            Hypercall::CreatePd {
                name: "srv".into(),
                vm: None,
                dst: 0x30,
            },
        )
        .unwrap();
        let srv = PdId(k.obj.pds.len() - 1);
        let (comp, ec) = k.load_component(srv, 0, Box::<Doubler>::default());
        let srv_ctx = CompCtx { pd: srv, ec, comp };
        k.install_cap(
            k.root_pd,
            110,
            Capability {
                obj: ObjRef::Ec(ec),
                perms: Perms::ALL,
            },
        );
        k.hypercall(
            ctx,
            Hypercall::CreatePt {
                ec: 110,
                mtd: 0,
                id: 9,
                dst: 111,
            },
        )
        .unwrap();
        let mut utcb = Utcb::new();
        k.ipc_call(ctx, 111, &mut utcb).unwrap();

        // A signal queued for the server and never dispatched.
        k.hypercall(srv_ctx, Hypercall::CreateSm { count: 0, dst: 20 })
            .unwrap();
        k.hypercall(srv_ctx, Hypercall::SmBind { sm: 20 }).unwrap();
        k.hypercall(srv_ctx, Hypercall::SmUp { sm: 20 }).unwrap();
        assert_eq!(k.obj.ec(ec).activations.len(), 1);

        k.pd_fault(srv, 1);
        assert!(k.obj.ec(ec).activations.is_empty(), "a fault drops them");
        assert_eq!(k.obj.ec(ec).comp, Some(comp), "the binding outlives it");
        k.obj
            .ec_mut(ec)
            .activations
            .push_back(Activation::Signal(SmId(0)));
        k.hypercall(ctx, Hypercall::DestroyPd { pd: 0x30 }).unwrap();
        assert!(k.obj.ec(ec).activations.is_empty());
        assert_eq!(k.obj.ec(ec).comp, None);
        assert_eq!(k.ipc_call(ctx, 111, &mut utcb), Err(HcErr::Busy));
        // Even with the slot's flags cleared, a portal still pointing
        // at the dead EC finds no component behind it.
        k.obj.ec_mut(ec).busy = false;
        k.obj.pd_mut(srv).dying = false;
        assert_eq!(k.ipc_call(ctx, 111, &mut utcb), Err(HcErr::BadParam));
    }

    #[test]
    fn watchdog_fires_on_silence_latches_and_reports_death() {
        let mut k = kernel();
        let (sup, sup_ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, sup_ec, sup);
        k.hypercall(
            ctx,
            Hypercall::CreateSc {
                ec: SEL_SELF_EC,
                prio: 10,
                quantum: 100_000,
                dst: 0x10,
            },
        )
        .unwrap();
        k.hypercall(
            ctx,
            Hypercall::CreateSm {
                count: 0,
                dst: 0x11,
            },
        )
        .unwrap();
        k.hypercall(ctx, Hypercall::SmBind { sm: 0x11 }).unwrap();
        k.hypercall(
            ctx,
            Hypercall::CreatePd {
                name: "watched".into(),
                vm: None,
                dst: 0x12,
            },
        )
        .unwrap();
        let child = PdId(k.obj.pds.len() - 1);
        k.hypercall(
            ctx,
            Hypercall::WatchdogArm {
                pd: 0x12,
                sm: 0x11,
                timeout: 1_000_000,
            },
        )
        .unwrap();

        // The watched domain stays silent: the deadline expires even
        // though the system is otherwise idle.
        k.run(Some(5_000_000));
        assert_eq!(k.counters.watchdog_fires, 1);
        assert_eq!(k.component_mut::<Doubler>(sup).unwrap().signals.len(), 1);

        // Latched: silence does not re-fire until re-armed.
        k.run(Some(5_000_000));
        assert_eq!(k.counters.watchdog_fires, 1);

        // Re-arm; a domain fault notifies immediately.
        k.hypercall(
            ctx,
            Hypercall::WatchdogArm {
                pd: 0x12,
                sm: 0x11,
                timeout: 1_000_000,
            },
        )
        .unwrap();
        k.pd_fault(child, 0);
        assert_eq!(k.counters.pd_deaths, 1);
        k.run(Some(1_000_000));
        assert_eq!(k.component_mut::<Doubler>(sup).unwrap().signals.len(), 2);

        // Disarm removes the entry outright.
        k.hypercall(
            ctx,
            Hypercall::WatchdogArm {
                pd: 0x12,
                sm: 0x11,
                timeout: 0,
            },
        )
        .unwrap();
        assert!(k.watchdogs.is_empty());

        // A deadline or period past `MAX_PERIOD` is refused: it used to
        // overflow the clock arithmetic (a debug panic; in release the
        // deadline wrapped and the watchdog fired at once).
        let arm = |timeout| Hypercall::WatchdogArm {
            pd: 0x12,
            sm: 0x11,
            timeout,
        };
        let timer = |period| Hypercall::SetTimer { sm: 0x11, period };
        for hc in [arm(MAX_PERIOD + 1), arm(u64::MAX), timer(u64::MAX)] {
            assert_eq!(k.hypercall(ctx, hc), Err(HcErr::BadParam));
        }
        assert!(k.watchdogs.is_empty() && k.timers.is_empty());
        k.hypercall(ctx, arm(MAX_PERIOD)).unwrap();
        k.hypercall(ctx, timer(MAX_PERIOD)).unwrap();
    }

    #[test]
    fn call_without_perm_fails() {
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);
        k.install_cap(
            k.root_pd,
            100,
            Capability {
                obj: ObjRef::Ec(ec),
                perms: Perms::ALL,
            },
        );
        k.hypercall(
            ctx,
            Hypercall::CreatePt {
                ec: 100,
                mtd: 0,
                id: 0,
                dst: 101,
            },
        )
        .unwrap();
        // Strip CALL from the capability.
        let cap = k.obj.pd(k.root_pd).caps.get(101).unwrap();
        k.obj.pd_mut(k.root_pd).caps.set(
            101,
            Capability {
                obj: cap.obj,
                perms: Perms::NONE,
            },
        );
        let mut utcb = Utcb::new();
        assert_eq!(k.ipc_call(ctx, 101, &mut utcb), Err(HcErr::BadPerm));
    }

    #[test]
    fn delegation_and_recursive_revocation() {
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);

        // Create two child PDs.
        k.hypercall(
            ctx,
            Hypercall::CreatePd {
                name: "a".into(),
                vm: None,
                dst: 10,
            },
        )
        .unwrap();
        k.hypercall(
            ctx,
            Hypercall::CreatePd {
                name: "b".into(),
                vm: None,
                dst: 11,
            },
        )
        .unwrap();
        let pd_a = PdId(1);
        let pd_b = PdId(2);

        // Delegate pages 100..104 to A at 0.., then A's pages to B.
        k.hypercall(
            ctx,
            Hypercall::DelegateMem {
                dst_pd: 10,
                base: 100,
                count: 4,
                rights: MemRights::RW,
                hot: 0,
            },
        )
        .unwrap();
        assert!(k.obj.pd(pd_a).mem.lookup(0).is_some());
        assert_eq!(
            k.obj.pd(pd_a).mem.lookup(0).unwrap().hpa,
            100 * 4096,
            "mapped to root's frame"
        );

        // A delegates page 1 to B (kernel-internal path).
        k.delegate_mem(pd_a, pd_b, 1, 1, MemRights::RO, 50).unwrap();
        assert!(k.obj.pd(pd_b).mem.lookup(50).is_some());
        assert!(
            !k.obj.pd(pd_b).mem.lookup(50).unwrap().rights.write,
            "rights reduced on delegation"
        );

        // Root revokes its pages: both children lose them.
        k.hypercall(
            ctx,
            Hypercall::RevokeMem {
                base: 100,
                count: 4,
                include_self: false,
            },
        )
        .unwrap();
        assert!(k.obj.pd(pd_a).mem.lookup(0).is_none());
        assert!(k.obj.pd(pd_b).mem.lookup(50).is_none());
        assert!(
            k.obj.pd(k.root_pd).mem.lookup(100).is_some(),
            "root keeps its own mapping"
        );
    }

    /// Root with a component context and `names.len()` child domains at
    /// selectors 10, 11, … (`PdId` 1, 2, …).
    fn root_with_children(names: &[&str]) -> (Kernel, CompCtx) {
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);
        for (i, name) in names.iter().enumerate() {
            let hc = Hypercall::CreatePd {
                name: (*name).into(),
                vm: None,
                dst: 10 + i as CapSel,
            };
            k.hypercall(ctx, hc).unwrap();
        }
        (k, ctx)
    }

    /// Boot records root's holdings once, in its spaces: the databases
    /// learn of a resource with its first delegation. The port space
    /// root gets is every port but the PIC's and the PIT's.
    #[test]
    fn boot_leaves_the_mapping_databases_empty() {
        let k = kernel();
        assert_eq!(k.mapdb_nodes(), (0, 0, 0));
        assert_eq!(k.check_invariants(), Ok(()));
        let root = k.obj.pd(k.root_pd);
        for port in 0..=u16::MAX {
            let claimed = nova_hw::pic::DualPic::owns_port(port) || (0x40..=0x43).contains(&port);
            assert_eq!(root.io.allowed(port), !claimed, "port {port:#x}");
        }
    }

    /// The own-holding half of revocation, for all three kinds: with
    /// `include_self` the owner's holding leaves its space although no
    /// node ever tracked it; without, revoking what was never
    /// delegated does nothing and makes no node.
    #[test]
    fn revocation_gives_up_an_untracked_holding_only_with_include_self() {
        let (mut k, ctx) = root_with_children(&[]);
        let sm = Capability {
            obj: ObjRef::Sm(SmId(0)),
            perms: Perms::ALL,
        };
        // Straight into the space, as root's supervisor code does for
        // a dead VM's domain: no hypercall made this one.
        k.obj.pd_mut(k.root_pd).caps.set(77, sm);
        let holds = |k: &Kernel| {
            let root = k.obj.pd(k.root_pd);
            (
                root.mem.lookup(100).is_some(),
                root.io.allowed(0x3f8),
                root.caps.get(77).is_some(),
            )
        };
        let revoke_all = |k: &mut Kernel, include_self: bool| {
            for hc in [
                Hypercall::RevokeMem {
                    base: 100,
                    count: 1,
                    include_self,
                },
                Hypercall::RevokeIo {
                    base: 0x3f8,
                    count: 1,
                    include_self,
                },
                Hypercall::RevokeCap {
                    sel: 77,
                    include_self,
                },
            ] {
                k.hypercall(ctx, hc).unwrap();
            }
        };
        revoke_all(&mut k, false);
        assert_eq!(holds(&k), (true, true, true), "nothing was delegated");
        assert_eq!(k.mapdb_nodes(), (0, 0, 0), "and no node appeared");
        revoke_all(&mut k, true);
        assert_eq!(holds(&k), (false, false, false), "own holdings given up");
        assert_eq!(k.mapdb_nodes(), (0, 0, 0));
        assert!(
            k.obj.pd(k.root_pd).mem.lookup(101).is_some(),
            "and no other"
        );
        assert!(k.obj.pd(k.root_pd).io.allowed(0x3f9));
        assert_eq!(k.check_invariants(), Ok(()));
    }

    /// Root → A → B, then root revokes below itself: A's and B's
    /// mappings go, root's stays, and the origin the first delegation
    /// made for root's page is still there to delegate from.
    #[test]
    fn revoking_below_an_origin_keeps_it_delegable() {
        let (mut k, ctx) = root_with_children(&["a", "b"]);
        let (pd_a, pd_b) = (PdId(1), PdId(2));
        let to_a = Hypercall::DelegateMem {
            dst_pd: 10,
            base: 100,
            count: 1,
            rights: MemRights::RW,
            hot: 7,
        };
        k.hypercall(ctx, to_a.clone()).unwrap();
        k.delegate_mem(pd_a, pd_b, 7, 1, MemRights::RO, 9).unwrap();
        assert_eq!(k.mapdb_nodes().0, 3, "origin, A's node, B's node");
        assert_eq!(k.mem_db.depth((pd_b.0, 9)), Some(2));
        assert_eq!(k.check_invariants(), Ok(()));

        k.hypercall(
            ctx,
            Hypercall::RevokeMem {
                base: 100,
                count: 1,
                include_self: false,
            },
        )
        .unwrap();
        assert!(k.obj.pd(pd_a).mem.lookup(7).is_none());
        assert!(k.obj.pd(pd_b).mem.lookup(9).is_none());
        assert!(k.obj.pd(k.root_pd).mem.lookup(100).is_some());
        assert_eq!(k.mapdb_nodes().0, 1, "the origin stays");
        assert_eq!(k.check_invariants(), Ok(()));

        k.hypercall(ctx, to_a).unwrap();
        assert_eq!(k.mem_db.parent((pd_a.0, 7)), Some((k.root_pd.0, 100)));
        assert_eq!(k.mapdb_nodes().0, 2);
        assert_eq!(k.check_invariants(), Ok(()));
    }

    /// `DestroyPd` takes every holding out of the domain's spaces and
    /// every node that names the domain out of the databases — what it
    /// received, and what others derived from that.
    #[test]
    fn destroy_pd_removes_every_holding_and_every_node_naming_it() {
        let (mut k, ctx) = root_with_children(&["a", "b"]);
        let (pd_a, pd_b) = (PdId(1), PdId(2));
        k.hypercall(ctx, Hypercall::CreateSm { count: 0, dst: 30 })
            .unwrap();
        for hc in [
            Hypercall::DelegateMem {
                dst_pd: 10,
                base: 100,
                count: 4,
                rights: MemRights::RW,
                hot: 0,
            },
            Hypercall::DelegateIo {
                dst_pd: 10,
                base: 0x3f8,
                count: 8,
            },
            Hypercall::DelegateCap {
                dst_pd: 10,
                sel: 30,
                perms: Perms::UP.union(Perms::DELEGATE),
                hot: 5,
            },
        ] {
            k.hypercall(ctx, hc).unwrap();
        }
        k.delegate_mem(pd_a, pd_b, 1, 2, MemRights::RO, 50).unwrap();
        k.delegate_io(pd_a, pd_b, 0x3f8, 2).unwrap();
        k.delegate_cap(pd_a, pd_b, 5, Perms::UP, 6).unwrap();
        // And one capability A was handed by the kernel, for an object
        // of its own: held, and tracked by nobody.
        let own = Capability {
            obj: ObjRef::Sm(SmId(0)),
            perms: Perms::ALL,
        };
        k.install_cap(pd_a, 40, own);
        // A node per range: root's origin, A's range, B's range — for
        // 4 + 4 + 2 pages and 8 + 8 + 2 ports.
        assert_eq!(k.mapdb_nodes(), (3, 3, 3));
        assert_eq!(k.check_invariants(), Ok(()));

        k.hypercall(ctx, Hypercall::DestroyPd { pd: 10 }).unwrap();
        for pd in [pd_a, pd_b] {
            let d = k.obj.pd(pd);
            assert_eq!((d.mem.count(), d.io.count(), d.caps.count()), (0, 0, 0));
        }
        let names = |pd: PdId| {
            let mem = k.mem_db.iter().any(|((p, _), _, _)| p == pd.0);
            let io = k.io_db.iter().any(|((p, _), _, _)| p == pd.0);
            mem || io || k.cap_db.iter().any(|((p, _), _, _)| p == pd.0)
        };
        assert!(!names(pd_a) && !names(pd_b));
        assert_eq!(
            k.mapdb_nodes(),
            (1, 1, 1),
            "root's origins are what is left"
        );
        assert!(k.mem_db.contains(k.root_pd.0, 103) && k.io_db.contains(k.root_pd.0, 0x3ff));
        assert_eq!(k.check_invariants(), Ok(()));
    }

    #[test]
    fn delegate_requires_ownership() {
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);
        k.hypercall(
            ctx,
            Hypercall::CreatePd {
                name: "a".into(),
                vm: None,
                dst: 10,
            },
        )
        .unwrap();
        // Root does not own hypervisor pages.
        let hv_page = (32 << 20) as u64 / 4096 - 1;
        let r = k.hypercall(
            ctx,
            Hypercall::DelegateMem {
                dst_pd: 10,
                base: hv_page,
                count: 1,
                rights: MemRights::RW,
                hot: 0,
            },
        );
        assert_eq!(r, Err(HcErr::NotOwner), "hypervisor memory is unreachable");
    }

    #[test]
    fn io_delegation_and_revocation() {
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);
        k.hypercall(
            ctx,
            Hypercall::CreatePd {
                name: "drv".into(),
                vm: None,
                dst: 10,
            },
        )
        .unwrap();
        let drv = PdId(1);
        k.hypercall(
            ctx,
            Hypercall::DelegateIo {
                dst_pd: 10,
                base: 0x3f8,
                count: 8,
            },
        )
        .unwrap();
        assert!(k.obj.pd(drv).io.allowed(0x3f8));
        // PIC ports can never be delegated: root does not own them.
        let r = k.hypercall(
            ctx,
            Hypercall::DelegateIo {
                dst_pd: 10,
                base: 0x20,
                count: 1,
            },
        );
        assert_eq!(r, Err(HcErr::NotOwner));
        k.hypercall(
            ctx,
            Hypercall::RevokeIo {
                base: 0x3f8,
                count: 8,
                include_self: false,
            },
        )
        .unwrap();
        assert!(!k.obj.pd(drv).io.allowed(0x3f8));
    }

    /// The last port of the space comes back like any other: the range
    /// `DelegateIo` accepted up to `0x10000` is revoked whole, and a
    /// range past it is refused, as `DelegateIo` refuses one.
    #[test]
    fn revoke_io_reaches_the_last_port() {
        let (mut k, ctx) = root_with_children(&["drv"]);
        let drv = PdId(1);
        let (base, count) = (0xfff0, 0x10);
        let delegate = Hypercall::DelegateIo {
            dst_pd: 10,
            base,
            count,
        };
        k.hypercall(ctx, delegate).unwrap();
        assert_eq!(k.obj.pd(drv).io.iter().last(), Some(0xffff));
        let revoke = |count| Hypercall::RevokeIo {
            base,
            count,
            include_self: false,
        };
        k.hypercall(ctx, revoke(count)).unwrap();
        assert_eq!(k.obj.pd(drv).io.count(), 0, "the child holds none of them");
        assert_eq!(k.mapdb_nodes().1, 1, "root's origin is what is left");
        assert_eq!(k.hypercall(ctx, revoke(count + 1)), Err(HcErr::BadParam));
        assert!(k.obj.pd(k.root_pd).io.allowed(0xffff));
        assert_eq!(k.check_invariants(), Ok(()));
    }

    #[test]
    fn semaphore_binding_and_signal_dispatch() {
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);
        k.install_cap(
            k.root_pd,
            100,
            Capability {
                obj: ObjRef::Ec(ec),
                perms: Perms::ALL,
            },
        );
        k.hypercall(ctx, Hypercall::CreateSm { count: 0, dst: 20 })
            .unwrap();
        k.hypercall(
            ctx,
            Hypercall::CreateSc {
                ec: 100,
                prio: 5,
                quantum: 10_000,
                dst: 21,
            },
        )
        .unwrap();
        k.hypercall(ctx, Hypercall::SmBind { sm: 20 }).unwrap();
        k.hypercall(ctx, Hypercall::SmUp { sm: 20 }).unwrap();
        // The signal is an activation; run the scheduler to deliver.
        let out = k.run(Some(1_000_000));
        assert_eq!(out, RunOutcome::Idle);
        let d = k.component_mut::<Doubler>(comp).unwrap();
        assert_eq!(d.signals.len(), 1);
    }

    #[test]
    fn unbound_semaphore_counts() {
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);
        k.hypercall(ctx, Hypercall::CreateSm { count: 0, dst: 20 })
            .unwrap();
        k.hypercall(ctx, Hypercall::SmUp { sm: 20 }).unwrap();
        k.hypercall(ctx, Hypercall::SmUp { sm: 20 }).unwrap();
        assert_eq!(
            k.hypercall(ctx, Hypercall::SmDown { sm: 20 }),
            Ok(HcReply::Down { acquired: true })
        );
        assert_eq!(
            k.hypercall(ctx, Hypercall::SmDown { sm: 20 }),
            Ok(HcReply::Down { acquired: true })
        );
        assert_eq!(
            k.hypercall(ctx, Hypercall::SmDown { sm: 20 }),
            Ok(HcReply::Down { acquired: false })
        );
    }

    #[test]
    fn gsi_routing_via_pit() {
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);
        k.install_cap(
            k.root_pd,
            100,
            Capability {
                obj: ObjRef::Ec(ec),
                perms: Perms::ALL,
            },
        );
        k.hypercall(ctx, Hypercall::CreateSm { count: 0, dst: 20 })
            .unwrap();
        k.hypercall(
            ctx,
            Hypercall::CreateSc {
                ec: 100,
                prio: 5,
                quantum: 10_000,
                dst: 21,
            },
        )
        .unwrap();
        k.hypercall(ctx, Hypercall::SmBind { sm: 20 }).unwrap();
        k.hypercall(ctx, Hypercall::AssignGsi { sm: 20, gsi: 0 })
            .unwrap();

        // Pulse IRQ 0 as the PIT would.
        k.machine.bus.pic.pulse(0);
        let out = k.run(Some(1_000_000));
        assert_eq!(out, RunOutcome::Idle);
        let d = k.component_mut::<Doubler>(comp).unwrap();
        assert_eq!(d.signals.len(), 1, "interrupt delivered as signal");
    }

    #[test]
    fn assign_gsi_requires_ownership() {
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);
        // Create a child PD and a component inside it.
        k.hypercall(
            ctx,
            Hypercall::CreatePd {
                name: "drv".into(),
                vm: None,
                dst: 10,
            },
        )
        .unwrap();
        let drv_pd = PdId(1);
        let (dcomp, dec) = k.load_component(drv_pd, 0, Box::<Doubler>::default());
        let dctx = CompCtx {
            pd: drv_pd,
            ec: dec,
            comp: dcomp,
        };
        k.hypercall(dctx, Hypercall::CreateSm { count: 0, dst: 0 })
            .unwrap();
        assert_eq!(
            k.hypercall(dctx, Hypercall::AssignGsi { sm: 0, gsi: 3 }),
            Err(HcErr::NotOwner)
        );
        // Root passes ownership, then it works.
        k.hypercall(ctx, Hypercall::DelegateGsi { dst_pd: 10, gsi: 3 })
            .unwrap();
        assert_eq!(
            k.hypercall(dctx, Hypercall::AssignGsi { sm: 0, gsi: 3 }),
            Ok(HcReply::Ok)
        );
    }

    #[test]
    fn device_access_requires_io_space() {
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);
        // Root can touch the UART.
        assert!(k.dev_io_write(ctx, 0x3f8, OpSize::Byte, b'x' as u32));
        // But not the PIC.
        assert!(!k.dev_io_write(ctx, 0x20, OpSize::Byte, 0x20));
        assert!(k.dev_io_read(ctx, 0x21, OpSize::Byte).is_none());
    }

    #[test]
    fn mem_access_respects_rights() {
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);
        assert!(k.mem_write_u32(ctx, 0x5000, 0xabcd));
        assert_eq!(k.mem_read_u32(ctx, 0x5000), Some(0xabcd));
        // Hypervisor memory is not mapped.
        let hv = (32 << 20) as u64 - 4096;
        assert!(!k.mem_write_u32(ctx, hv, 1));
        assert_eq!(k.mem_read_u32(ctx, hv), None);
    }

    /// `mem_refresh` into a dense image of the window: each page handed
    /// out is copied to its place.
    fn refresh_into(
        k: &Kernel,
        ctx: CompCtx,
        addr: u64,
        image: &mut [u8],
        seen: &mut [u64],
    ) -> Option<usize> {
        k.mem_refresh(ctx, addr, seen, |i, page| {
            image[i * 4096..(i + 1) * 4096].copy_from_slice(page)
        })
    }

    #[test]
    fn mem_refresh_copies_exactly_the_pages_written_since() {
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);
        let base = 0x8000u64;
        let mut image = vec![0xffu8; 3 * 4096];
        let mut seen = vec![u64::MAX; 3];
        assert!(k.mem_write(ctx, base + 4096, &[7; 16]));
        assert_eq!(refresh_into(&k, ctx, base, &mut image, &mut seen), Some(3));
        let mut now = vec![0u8; 3 * 4096];
        k.mem_read_into(ctx, base, &mut now).unwrap();
        assert_eq!(image, now);
        assert_eq!(refresh_into(&k, ctx, base, &mut image, &mut seen), Some(0));

        // Each kind of kernel-side writer moves its page, and only it.
        assert!(k.mem_write_u32(ctx, base + 8, 1));
        assert_eq!(refresh_into(&k, ctx, base, &mut image, &mut seen), Some(1));
        assert!(k.mem_fill(ctx, base + 4096 + 100, 4096, 9)); // pages 1 and 2
        assert_eq!(refresh_into(&k, ctx, base, &mut image, &mut seen), Some(2));
        k.mem_slice_mut(ctx, base + 2 * 4096, 4).unwrap()[0] = 3;
        assert_eq!(refresh_into(&k, ctx, base, &mut image, &mut seen), Some(1));
        k.mem_read_into(ctx, base, &mut now).unwrap();
        assert_eq!(image, now);

        // A page that moved back to zeros is handed out too: the
        // caller decides what a page of zeros is to it.
        assert!(k.mem_fill(ctx, base, 4096, 0));
        let mut handed = Vec::new();
        k.mem_refresh(ctx, base, &mut seen, |i, p| handed.push((i, p.to_vec())));
        assert_eq!(handed, [(0, vec![0; 4096])]);

        // A refused call hands out nothing: misaligned, or a window
        // that runs into unmapped (hypervisor) memory behind two
        // mapped, dirty pages.
        assert!(k.mem_fill(ctx, base, 3 * 4096, 0x55));
        let seen0 = seen.clone();
        let refused = |k: &Kernel, addr, seen: &mut [u64]| {
            k.mem_refresh(ctx, addr, seen, |i, _| panic!("page {i} handed out"))
        };
        assert_eq!(refused(&k, base + 1, &mut seen), None);
        let hv = (32 << 20) as u64 - HV_MEM;
        assert!(k.mem_fill(ctx, hv - 2 * 4096, 2 * 4096, 0x66));
        let mut seen_hv = vec![u64::MAX; 3];
        assert_eq!(refused(&k, hv - 2 * 4096, &mut seen_hv), None);
        assert_eq!(seen, seen0);
        assert_eq!(seen_hv, [u64::MAX; 3]);
    }

    #[test]
    fn mem_restore_writes_exactly_the_pages_that_moved() {
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);
        let base = 0x8000u64;
        let gens = |k: &Kernel| [0, 1, 2, 3].map(|p| k.machine.mem.frame_gen(base + p * 4096));
        let read = |k: &Kernel| {
            let mut now = vec![0u8; 4 * 4096];
            k.mem_read_into(ctx, base, &mut now).unwrap();
            now
        };
        assert!(k.mem_write(ctx, base + 4096, &[7; 16]));
        let mut image = vec![0u8; 4 * 4096];
        let mut seen = vec![u64::MAX; 4];
        assert_eq!(refresh_into(&k, ctx, base, &mut image, &mut seen), Some(4));
        // The image as a checkpoint keeps it: a page of zeros is absent.
        let restore = |k: &mut Kernel, image: &[u8], seen: &mut [u64]| {
            k.mem_restore(ctx, base, seen, |i| {
                let page = &image[i * 4096..(i + 1) * 4096];
                page.iter().any(|&b| b != 0).then_some(page)
            })
        };

        // Nothing moved: nothing is written, no generation bumped.
        let at_capture = gens(&k);
        assert_eq!(restore(&mut k, &image, &mut seen), Some(0));
        assert_eq!(gens(&k), at_capture);

        // Pages 0, 1 and 2 move — one of them back to the bytes it had,
        // two of them absent from the image: those read zeros again.
        assert!(k.mem_write_u32(ctx, base + 8, 1));
        assert!(k.mem_write_u32(ctx, base + 4096 + 8, 2));
        assert!(k.mem_write(ctx, base + 2 * 4096, &[0; 4]));
        assert_eq!(restore(&mut k, &image, &mut seen), Some(3));
        assert_eq!(read(&k), image);
        let now = gens(&k);
        assert_eq!(now[3], at_capture[3]);
        assert!((0..3).all(|p| now[p] > at_capture[p]));
        // The table holds the generations the writes left, for both
        // directions: neither a capture nor a restore has work to do.
        assert_eq!(seen, now);
        assert_eq!(refresh_into(&k, ctx, base, &mut image, &mut seen), Some(0));
        assert_eq!(restore(&mut k, &image, &mut seen), Some(0));

        // `u64::MAX` writes the page whatever its generation.
        image[3 * 4096] = 0x77;
        seen[3] = u64::MAX;
        assert_eq!(restore(&mut k, &image, &mut seen), Some(1));
        assert_eq!(read(&k), image);

        // A refused call writes nothing: misaligned, with every page
        // stale.
        assert!(k.mem_fill(ctx, base, 4 * 4096, 0x55));
        let (mem0, seen0) = (read(&k), seen.clone());
        assert_eq!(k.mem_restore(ctx, base + 1, &mut seen, |_| None), None);
        assert_eq!((read(&k), seen), (mem0, seen0));
    }

    /// A revocation shoots every affected VM's TLB down — once per
    /// hypercall, however many pages the range has — and nobody else's.
    #[test]
    fn revoking_a_range_flushes_each_affected_vm_once() {
        use nova_hw::tlb::TlbEntry;
        use nova_x86::paging::NestedFormat;
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);
        let vm = |k: &mut Kernel, sel: CapSel| -> u16 {
            let paging = Some(VmPaging::Nested(NestedFormat::Ept4Level));
            for hc in [
                Hypercall::CreatePd {
                    name: "vm".into(),
                    vm: paging,
                    dst: sel,
                },
                Hypercall::DelegateMem {
                    dst_pd: sel,
                    base: 0x800,
                    count: 8,
                    rights: MemRights::RW,
                    hot: 0,
                },
                Hypercall::CreateEc {
                    pd: sel,
                    vcpu: true,
                    cpu: 0,
                    dst: sel + 1,
                },
            ] {
                k.hypercall(ctx, hc).unwrap();
            }
            k.obj.ecs.last().unwrap().vmcs().unwrap().vpid
        };
        let (a, b) = (vm(&mut k, 0x40), vm(&mut k, 0x50));
        let bystander = 0x3ff;
        assert!(a != 0 && b != 0 && a != b, "tagged, one VPID per VM");
        // Eight entries per tag, each tag in TLB sets of its own (the
        // arrays are direct-mapped by page number).
        let tags = [a, b, bystander];
        let warm = |k: &mut Kernel| {
            for (i, vpid) in tags.into_iter().enumerate() {
                for vpn in (i as u64 * 8..).take(8) {
                    k.machine.cpus[0].tlb.insert(TlbEntry {
                        vpid,
                        vpn,
                        hpa: (0x800 + vpn % 8) << 12,
                        page_size: 4096,
                        write: true,
                    });
                }
            }
        };
        let cached = |k: &mut Kernel| {
            let tlb = &mut k.machine.cpus[0].tlb;
            [0, 1, 2].map(|i| {
                (i as u64 * 8..)
                    .take(8)
                    .filter(|p| tlb.lookup(tags[i], p << 12).is_some())
                    .count()
            })
        };

        warm(&mut k);
        assert_eq!(cached(&mut k), [8, 8, 8]);
        let flushes = k.machine.cpus[0].tlb.stats.flushes;
        k.hypercall(
            ctx,
            Hypercall::RevokeMem {
                base: 0x800,
                count: 8,
                include_self: false,
            },
        )
        .unwrap();
        assert_eq!(k.machine.cpus[0].tlb.stats.flushes - flushes, 2);
        assert_eq!(cached(&mut k), [0, 0, 8]);

        // Teardown: one flush after the domain's pages are revoked,
        // one when its tables are gone — not one per page.
        for sel in [0x40, 0x50] {
            k.hypercall(
                ctx,
                Hypercall::DelegateMem {
                    dst_pd: sel,
                    base: 0x800,
                    count: 8,
                    rights: MemRights::RW,
                    hot: 0,
                },
            )
            .unwrap();
        }
        warm(&mut k);
        assert_eq!(cached(&mut k), [8, 8, 8]);
        let flushes = k.machine.cpus[0].tlb.stats.flushes;
        k.hypercall(ctx, Hypercall::DestroyPd { pd: 0x40 }).unwrap();
        assert_eq!(k.machine.cpus[0].tlb.stats.flushes - flushes, 2);
        assert_eq!(cached(&mut k), [0, 8, 8]);
    }

    /// `check_invariants`' hardware-table clause sees each way a nested
    /// table or an IOMMU context can hold what the space does not: a
    /// stray 4 KB leaf, a large leaf over a chunk not listed as large, a
    /// page table nothing links to, a device mapping of a page the
    /// domain does not hold.
    #[test]
    fn check_invariants_sees_what_the_hardware_tables_hold() {
        use nova_hw::mmu::nested_entry;
        use nova_x86::paging::NestedFormat;
        let fmt = NestedFormat::Ept4Level;
        let vm = |revoked: u64| {
            let mut k = kernel();
            let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
            let ctx = root_ctx(&k, ec, comp);
            let paging = Some(VmPaging::Nested(fmt));
            let device = k.machine.dev.ahci;
            for hc in [
                Hypercall::CreatePd {
                    name: "vm".into(),
                    vm: paging,
                    dst: 0x40,
                },
                Hypercall::AssignDev { pd: 0x40, device },
                Hypercall::DelegateMem {
                    dst_pd: 0x40,
                    base: 0x800,
                    count: 512,
                    rights: MemRights::RW_DMA,
                    hot: 0,
                },
                Hypercall::RevokeMem {
                    base: 0x800,
                    count: revoked,
                    include_self: false,
                },
            ] {
                k.hypercall(ctx, hc).unwrap();
            }
            assert_eq!(k.check_invariants(), Ok(()));
            let pd = PdId(k.obj.pds.len() - 1);
            (k, ctx, pd, device)
        };
        let refused = |k: &Kernel, what: &str| {
            let e = k.check_invariants().expect_err(what);
            assert!(e.contains(what), "{e}");
        };

        let (mut k, _, pd, _) = vm(0);
        let table = k.nested.get_mut(&pd).unwrap();
        let stray = table.map_page(&mut k.machine.mem, &mut k.alloc, 1 << 30, 0x9000, false);
        stray.unwrap();
        refused(&k, "nested leaf at level 0 over 0x40000000");

        let (mut k, _, pd, _) = vm(0);
        k.large_chunks.get_mut(&pd).unwrap().clear();
        refused(&k, "nested leaf at level 1 over 0x0");

        // Splintered, then emptied: the chunk's page table is still
        // linked. Unlinking it by hand is the leak the clause is for.
        let (mut k, ctx, pd, _) = vm(1);
        k.hypercall(
            ctx,
            Hypercall::RevokeMem {
                base: 0x801,
                count: 511,
                include_self: false,
            },
        )
        .unwrap();
        assert_eq!(k.check_invariants(), Ok(()));
        let mut table = k.obj.pd(pd).nested_root.unwrap();
        for level in [3, 2] {
            table = fmt.decode(nested_entry(&k.machine.mem, fmt, table, 0)).next;
            assert_ne!(table, 0, "level {level} links on");
        }
        k.machine.mem.write_u64(table, 0);
        refused(&k, "nested frames");

        let (mut k, _, _, device) = vm(0);
        k.machine
            .bus
            .iommu
            .map_page(device, 0x40_0000, 0x9000, false);
        refused(&k, &format!("device {device} maps 0x400000"));
    }

    #[test]
    fn mem_fill_respects_rights_and_page_boundaries() {
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);
        assert!(k.mem_write(ctx, 0x5000, &[1; 3 * 4096]));
        assert!(k.mem_fill(ctx, 0x5ffe, 4096 + 4, 0));
        assert_eq!(k.mem_slice(ctx, 0x5ffc, 4).unwrap(), [1, 1, 0, 0]);
        assert_eq!(k.mem_slice(ctx, 0x7000, 4).unwrap(), [0, 0, 1, 1]);
        assert!(k.mem_fill(ctx, 0x5000, 0, 9), "empty fill");
        let hv = (32 << 20) as u64 - 4096;
        assert!(
            !k.mem_fill(ctx, hv, 16, 0),
            "hypervisor memory is not mapped"
        );
    }

    #[test]
    fn cap_delegation_reduces_and_revokes() {
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);
        k.hypercall(
            ctx,
            Hypercall::CreatePd {
                name: "a".into(),
                vm: None,
                dst: 10,
            },
        )
        .unwrap();
        let pd_a = PdId(1);
        k.hypercall(ctx, Hypercall::CreateSm { count: 0, dst: 30 })
            .unwrap();
        k.hypercall(
            ctx,
            Hypercall::DelegateCap {
                dst_pd: 10,
                sel: 30,
                perms: Perms::UP.union(Perms::DELEGATE),
                hot: 5,
            },
        )
        .unwrap();
        let cap = k.obj.pd(pd_a).caps.get(5).unwrap();
        assert!(cap.perms.allows(Perms::UP));
        assert!(!cap.perms.allows(Perms::DOWN), "permissions reduced");

        k.hypercall(
            ctx,
            Hypercall::RevokeCap {
                sel: 30,
                include_self: false,
            },
        )
        .unwrap();
        assert!(k.obj.pd(pd_a).caps.get(5).is_none(), "revoked recursively");
        assert!(k.obj.pd(k.root_pd).caps.get(30).is_some());
    }

    #[test]
    fn assign_dev_mirrors_dma_memory_into_iommu() {
        let mut k = kernel();
        let (comp, ec) = k.load_component(k.root_pd, 0, Box::<Doubler>::default());
        let ctx = root_ctx(&k, ec, comp);
        k.hypercall(
            ctx,
            Hypercall::CreatePd {
                name: "disk-server".into(),
                vm: None,
                dst: 10,
            },
        )
        .unwrap();
        k.hypercall(
            ctx,
            Hypercall::DelegateMem {
                dst_pd: 10,
                base: 0x100,
                count: 2,
                rights: MemRights::RW_DMA,
                hot: 0x100,
            },
        )
        .unwrap();
        let ahci_dev = k.machine.dev.ahci;
        k.hypercall(
            ctx,
            Hypercall::AssignDev {
                pd: 10,
                device: ahci_dev,
            },
        )
        .unwrap();
        // DMA to the delegated page translates; elsewhere faults.
        assert_eq!(
            k.machine.bus.iommu.translate(ahci_dev, 0x100 * 4096, true),
            Some(0x100 * 4096)
        );
        assert_eq!(
            k.machine.bus.iommu.translate(ahci_dev, 0x900 * 4096, true),
            None
        );
    }

    #[test]
    fn apply_mtd_copies_selected_groups() {
        let mut dst = Regs::default();
        let mut src = Regs::default();
        src.set(nova_x86::Reg::Eax, 1);
        src.set(nova_x86::Reg::Esi, 2);
        src.eip = 0x100;
        src.cr3 = 0x5000;
        apply_mtd(&mut dst, &src, mtd::GPR_ACDB | mtd::EIP);
        assert_eq!(dst.get(nova_x86::Reg::Eax), 1);
        assert_eq!(dst.eip, 0x100);
        assert_eq!(dst.get(nova_x86::Reg::Esi), 0, "group not selected");
        assert_eq!(dst.cr3, 0, "group not selected");
    }
}
