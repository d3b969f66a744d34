//! The kernel proper: object lifecycle, the IPC path with
//! scheduling-context donation, the per-CPU scheduler loop, VM-exit
//! routing, delegation and recursive revocation with hardware-table
//! mirroring, interrupt-to-semaphore delivery, and the IOMMU policy.
//!
//! User-level code is a set of [`Component`]s. The kernel dispatches
//! into them through portals (a NOVA `call`) and semaphore signals;
//! they call back through the typed hypercall interface. Every
//! boundary crossing is charged with the measured costs of Figure 8.
//!
//! This module holds the [`Kernel`] itself, boot, the component
//! registry, cycle charging and the scheduler loop; each mechanism is a
//! child module with one `impl Kernel` of its own: `calls` (the
//! hypercall dispatcher), `delegate` (delegation, revocation, teardown
//! and [`Kernel::check_invariants`]), `ipc` (portal calls and
//! semaphores), `exit` (VM exits and the vTLB), `memory` (component
//! access to memory and devices), `time` (interrupts, timers,
//! watchdogs and faults) and `vcpu` (vCPU export and import).

use std::collections::{HashMap, VecDeque};

use nova_hw::machine::Machine;
use nova_hw::Cycles;
use nova_trace::{Kind as TraceKind, PD_NONE};
use nova_x86::insn::OpSize;
use nova_x86::paging::PAGE_SIZE;

use crate::cap::{CapSel, Capability, Perms};
use crate::counters::Counters;
use crate::hostpt::{FrameAllocator, NestedTable};
use crate::hypercall::HcErr;
use crate::mdb::MapDb;
use crate::obj::{
    Activation, Ec, EcId, EcKind, MemMapping, MemRights, ObjRef, Objects, Pd, PdId, ScId, SmId,
};
use crate::sched::Scheduler;
use crate::utcb::Utcb;
use crate::vtlb::ShadowCache;

mod calls;
mod delegate;
mod exit;
mod ipc;
mod memory;
mod tests;
mod time;
mod vcpu;

pub use exit::apply_mtd;
pub use memory::WindowRuns;
pub use vcpu::VcpuSnapshot;

/// Component handle.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct CompId(pub u16);

/// The identity of the execution context a component callback runs as.
/// Eight bytes (see the id types in `obj`), so it is passed in a
/// register rather than through a copy in memory.
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

/// The ports `base..base + count`, or [`HcErr::BadParam`] if they run
/// past the last one, `0xffff`.
fn port_range(base: u16, count: u16) -> Result<std::ops::Range<u32>, HcErr> {
    let (base, end) = (u32::from(base), u32::from(base) + u32::from(count));
    if end > 0x1_0000 {
        return Err(HcErr::BadParam);
    }
    Ok(base..end)
}

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
    gsi_owner: HashMap<u8, PdId>,
    gsi_sm: [Option<SmId>; 256],
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
/// [`nova_hw::fault::FaultKind::VmmCrash`], so supervisors can tell an
/// injected death from an organic one in the trace.
pub const VMM_CRASH_CODE: u64 = 0xc4a5;

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
            // Channel 0 as a rate generator, its divisor low byte first.
            use nova_hw::pit::{Pit8254, CH0, MODE};
            let divisor = u32::from(Pit8254::divisor_for(hz as u64));
            let now = machine.clock;
            for (port, val) in [(MODE, 0x34), (CH0, divisor & 0xff), (CH0, divisor >> 8)] {
                machine
                    .bus
                    .io_write(&mut machine.mem, now, port, OpSize::Byte, val);
            }
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
            gsi_owner,
            gsi_sm: [None; 256],
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
        let comp_id =
            CompId(u16::try_from(self.components.len() - 1).expect("one component per EC"));
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
        self.install_cap(pd, SEL_SELF_EC, ObjRef::Ec(ec));
        let own_pd = Capability {
            obj: ObjRef::Pd(pd),
            perms: Perms::CTRL,
        };
        self.obj.pd_mut(pd).caps.set(SEL_SELF_PD, own_pd);
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
        let mut c = self.components.get_mut(comp.0 as usize)?.take()?;
        let r = c.as_any().downcast_mut::<T>().map(|t| f(t, self));
        self.components[comp.0 as usize] = Some(c);
        r
    }

    /// Typed access to a component (harness/test use).
    pub fn component_mut<T: 'static>(&mut self, comp: CompId) -> Option<&mut T> {
        self.components
            .get_mut(comp.0 as usize)?
            .as_mut()?
            .as_any()
            .downcast_mut::<T>()
    }

    fn with_component<R>(
        &mut self,
        comp: CompId,
        f: impl FnOnce(&mut dyn Component, &mut Kernel) -> R,
    ) -> Option<R> {
        let mut c = self.components.get_mut(comp.0 as usize)?.take()?;
        let r = f(c.as_mut(), self);
        self.components[comp.0 as usize] = Some(c);
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
    #[inline]
    pub fn charge(&mut self, cycles: Cycles) {
        self.charge_as(TraceKind::CostEmulation, cycles);
    }

    /// Advances the clock by `cycles` of the cost class `kind` — kernel
    /// (`CostKernel`), IPC (`CostIpc`) or else emulation — and counts
    /// and traces them under it.
    #[inline]
    fn charge_as(&mut self, kind: TraceKind, cycles: Cycles) {
        let at = self.machine.clock;
        self.machine.clock += cycles;
        let c = &mut self.counters;
        *match kind {
            TraceKind::CostKernel => &mut c.cycles_kernel,
            TraceKind::CostIpc => &mut c.cycles_ipc,
            _ => &mut c.cycles_emulation,
        } += cycles;
        self.machine.bus.trace.emit(0, PD_NONE, kind, cycles, at);
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

    /// Installs at `sel` of `pd` the capability the creator of `obj`
    /// gets: every right of its kind, and the right to delegate them.
    fn install_cap(&mut self, pd: PdId, sel: CapSel, obj: ObjRef) {
        let perms = match obj {
            ObjRef::Pd(_) => Perms::ALL,
            ObjRef::Ec(_) => Perms::EC_CTRL,
            ObjRef::Sc(_) => Perms::SC_CTRL,
            ObjRef::Pt(_) => Perms::CALL,
            ObjRef::Sm(_) => Perms::UP.union(Perms::DOWN),
        };
        let perms = perms.union(Perms::DELEGATE);
        self.obj.pd_mut(pd).caps.set(sel, Capability { obj, perms });
    }

    // ------------------------------------------------------------------
    // The scheduler loop
    // ------------------------------------------------------------------

    /// Queues `ec`'s SC on its CPU, unless it has none or is queued.
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

    /// Releases `ec` from a kernel-side block and makes it runnable.
    #[inline]
    fn unblock(&mut self, ec: EcId) {
        self.obj.ec_mut(ec).blocked = false;
        self.make_thread_runnable(ec);
    }

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
        let cross = self.machine.cost.ipc_cross_as();
        self.charge_as(TraceKind::CostIpc, cross);
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

    /// Processes what fell due while in host mode: device events,
    /// interrupts, kernel timers and watchdog deadlines.
    fn host_events(&mut self) {
        let now = self.machine.clock;
        if self.machine.bus.next_event_due().is_some_and(|d| d <= now) {
            self.machine.bus.process_events(&mut self.machine.mem, now);
        }
        self.poll_interrupts();
        self.fire_timers();
        self.check_watchdogs();
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
            self.host_events();

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
                        self.host_events();
                    }
                    None => return RunOutcome::Idle,
                }
            }
        }
    }
}
