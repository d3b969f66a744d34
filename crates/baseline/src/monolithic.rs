//! A monolithic hypervisor in the style of KVM (Section 3.2): CPU
//! virtualization, the instruction emulator, the virtual devices and
//! the host device driver all execute in one privileged component, so
//! exit handling involves no IPC and no protection-domain crossings —
//! at the price of a trusted computing base that includes all of it
//! (Figure 1).
//!
//! A cost model ([`MonoModel`]) turns the same engine into the
//! paravirtualized comparators: Xen PV replaces the VM-transition cost
//! with a syscall-priced trap (direct execution), and L4Linux adds what
//! removing the small-space optimization costs — a full TLB flush and
//! refill on every kernel entry.

use nova_core::counters::Counters;
use nova_core::hostpt::{FrameAllocator, NestedTable};
use nova_core::obj::{MemMapping, MemRights, MemSpace, VmPaging};
use nova_core::vtlb::{self, ShadowCache, ShadowExit, ShadowParts};
use nova_hw::ahci::{cmd, regs, slots, PortEvent, PortRegs};
use nova_hw::cost::CostModel;
use nova_hw::cpu::run_guest;
use nova_hw::machine::{GuestImage, Machine, MachineConfig, AHCI_BASE, AHCI_IRQ};
use nova_hw::tlb::Tlb;
use nova_hw::vmx::{ExitReason, PagingVirt, Vmcs};
use nova_hw::Cycles;
use nova_vmm::devices::LegacyDevices;
use nova_vmm::emu::EmuHost;
use nova_vmm::exit::{self, next_irq, Exit, ExitHost, Irq};
use nova_vmm::vahci::parse_command;
use nova_x86::cpuid::CpuIdent;
use nova_x86::insn::OpSize;
use nova_x86::paging::{Access, NestedFormat};

use crate::RunResult;

/// Which monolithic hypervisor's exit costs the engine charges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MonoModel {
    /// KVM: VT-x transitions and a heavy in-kernel exit path.
    Kvm,
    /// Xen PV: direct execution, syscall-priced traps, writable page
    /// tables with batched validation.
    XenPv,
    /// L4Linux: paravirtual traps plus a full TLB flush per trap (the
    /// removed small-space optimization, Section 8.1) and page-granular
    /// mapping IPC.
    L4Linux,
}

/// What a [`MonoModel`] charges.
struct Costs {
    /// Flat software cost per exit (the in-kernel handling path;
    /// monolithic kernels have heavier, less specialized exit paths
    /// than the microhypervisor's portal dispatch).
    exit_sw: Cycles,
    /// Paravirt mode: privileged operations are syscall-priced traps
    /// instead of VM transitions (no VT-x).
    pv_trap: Option<Cycles>,
    /// Full TLB flush + refill on every trap.
    flush_per_trap: bool,
    /// Software cost of shadow-class exits (vTLB fill / CR / INVLPG)
    /// in place of `exit_sw` — these paths are short even in
    /// monolithic kernels.
    shadow_sw: Cycles,
    /// Pages mapped per shadow fault: KVM's shadow code prefetches
    /// neighbouring entries; Xen PV validates whole batches of
    /// writable-page-table updates per trap.
    shadow_prefetch: u32,
}

impl MonoModel {
    fn costs(self) -> Costs {
        match self {
            MonoModel::Kvm => Costs {
                exit_sw: 2900,
                pv_trap: None,
                flush_per_trap: false,
                shadow_sw: 450,
                shadow_prefetch: 4,
            },
            MonoModel::XenPv => Costs {
                exit_sw: 900,
                pv_trap: Some(250),
                flush_per_trap: false,
                shadow_sw: 250,
                shadow_prefetch: 24,
            },
            MonoModel::L4Linux => Costs {
                exit_sw: 900,
                pv_trap: Some(350),
                flush_per_trap: true,
                shadow_sw: 250,
                shadow_prefetch: 8,
            },
        }
    }
}

/// Configuration of the monolithic comparator.
#[derive(Clone, Copy, Debug)]
pub struct MonoConfig {
    /// Paging mode.
    pub paging: VmPaging,
    /// Use tagged TLB entries.
    pub use_tags: bool,
    /// Use large host pages in the nested table.
    pub large_pages: bool,
    /// Whose exit costs are charged.
    pub model: MonoModel,
}

impl MonoConfig {
    /// KVM-like: EPT, tags, large pages.
    pub fn kvm_ept() -> MonoConfig {
        MonoConfig {
            paging: VmPaging::Nested(NestedFormat::Ept4Level),
            use_tags: true,
            large_pages: true,
            model: MonoModel::Kvm,
        }
    }

    /// KVM-like with shadow paging.
    pub fn kvm_shadow() -> MonoConfig {
        MonoConfig {
            paging: VmPaging::Shadow,
            ..MonoConfig::kvm_ept()
        }
    }

    /// Xen-PV-like: writable page tables are modeled as shadow paging
    /// with a large per-trap batch.
    pub fn xen_pv() -> MonoConfig {
        MonoConfig {
            paging: VmPaging::Shadow,
            use_tags: true,
            large_pages: true,
            model: MonoModel::XenPv,
        }
    }

    /// L4Linux-like, on Xen PV's paging.
    pub fn l4linux() -> MonoConfig {
        MonoConfig {
            model: MonoModel::L4Linux,
            ..MonoConfig::xen_pv()
        }
    }
}

/// Guest physical frames start at this host page (16 MB).
const GUEST_BASE_PAGE: u64 = 0x1000;
/// The host driver's command list, in a host-private frame below
/// guest RAM.
const HOST_LIST: u64 = (GUEST_BASE_PAGE - 4) * 4096;
/// The host driver's command tables, one per slot (a CFIS and a full
/// PRDT each), in the frames between the list and guest RAM.
const HOST_TABLES: u64 = (GUEST_BASE_PAGE - 3) * 4096;

/// The monolithic hypervisor instance: everything in one struct,
/// everything privileged.
pub struct Monolithic {
    /// The machine.
    pub machine: Machine,
    cfg: MonoConfig,
    vmcs: Vmcs,
    ms: MemSpace,
    alloc: FrameAllocator,
    _nested: Option<NestedTable>,
    shadow: Option<ShadowCache>,
    guest_pages: u64,
    /// In-kernel device models: the VMM's legacy set, with the timer
    /// deadline behind its PIT, and the AHCI port's registers.
    pub legacy: LegacyDevices,
    vpit_deadline: Option<Cycles>,
    disk: PortRegs,
    /// Guest slots at the physical controller (guest slot *s* is
    /// physical slot *s*).
    disk_inflight: u32,
    /// Event counters (same classes as the microhypervisor's).
    pub counters: Counters,
    /// The guest's exit code, once it has shut down.
    pub guest_exit: Option<u8>,
}

impl Monolithic {
    /// Builds the hypervisor with a guest of `guest_pages` pages,
    /// booted from `image`.
    pub fn new(
        machine_cfg: MachineConfig,
        cfg: MonoConfig,
        guest_pages: u64,
        image: &GuestImage,
    ) -> Monolithic {
        let mut machine = Machine::new(machine_cfg);
        let ram = machine.mem.size() as u64;
        let mut alloc = FrameAllocator::new(ram - (16 << 20), 16 << 20);

        // Guest memory: identity-offset mapping, with the legacy hole.
        let mut ms = MemSpace::default();
        for p in 0..guest_pages {
            if (0xa0..0x100).contains(&p) {
                continue;
            }
            ms.map(
                p,
                MemMapping {
                    hpa: (GUEST_BASE_PAGE + p) * 4096,
                    rights: MemRights::RW,
                },
            );
        }
        // VGA window direct-mapped.
        ms.map(
            nova_hw::vga::VGA_BASE / 4096,
            MemMapping {
                hpa: nova_hw::vga::VGA_BASE,
                rights: MemRights::RW,
            },
        );

        let vpid = u16::from(cfg.use_tags && machine.cost.has_tagged_tlb);
        let (nested, shadow, mut vmcs) = match cfg.paging {
            VmPaging::Nested(fmt) => {
                let mut t = NestedTable::new(fmt, &mut alloc, &mut machine.mem);
                // Guest RAM and the VGA window.
                let span = (0, guest_pages.max(nova_hw::vga::VGA_BASE / 4096 + 1));
                t.mirror(&mut machine.mem, &mut alloc, &ms, span, cfg.large_pages);
                let vmcs = Vmcs::new(PagingVirt::Nested { root: t.root, fmt }, vpid);
                (Some(t), None, vmcs)
            }
            VmPaging::Shadow => {
                // Monolithic shadow implementations rebuild the shadow
                // table on every address-space switch; the legacy
                // single-slot cache reproduces exactly that.
                let s = ShadowCache::legacy(&mut machine.mem, &mut alloc, vpid);
                let vmcs = Vmcs::new_shadow(s.active_root(), vpid);
                (None, Some(s), vmcs)
            }
        };

        // Boot state.
        let mem = &mut machine.mem;
        vmcs.guest = image.boot(guest_pages, 1, |gpa, bytes| {
            mem.write_bytes(GUEST_BASE_PAGE * 4096 + gpa, bytes)
        });

        // Unmask the physical interrupt lines the host driver uses.
        machine.bus.pic.io_write(nova_hw::pic::MASTER_DATA, 0);
        machine.bus.pic.io_write(nova_hw::pic::SLAVE_DATA, 0);

        Monolithic {
            machine,
            cfg,
            vmcs,
            ms,
            alloc,
            _nested: nested,
            shadow,
            guest_pages,
            legacy: LegacyDevices::default(),
            vpit_deadline: None,
            disk: PortRegs::default(),
            disk_inflight: 0,
            counters: Counters::new(),
            guest_exit: None,
        }
    }

    /// The guest console output so far.
    pub fn console(&self) -> String {
        self.legacy.serial.text()
    }

    /// Where guest-physical `gpa` lives in host memory (`None` outside
    /// guest RAM and the VGA window).
    pub fn gpa_hpa(&self, gpa: u64) -> Option<u64> {
        self.ms.translate(gpa)
    }

    /// Cycles between virtual timer ticks at the guest's divisor.
    pub fn vpit_period(&self) -> Cycles {
        self.legacy.pit.period_cycles(self.machine.cost.ident.hz())
    }

    /// Virtual AHCI MMIO read (in-kernel model, driving the physical
    /// controller directly — no IPC, no separate driver domain).
    pub fn disk_mmio_read(&mut self, off: u32) -> u32 {
        self.disk.read(off)
    }

    /// Virtual AHCI MMIO write. A reset request (GHC.HR) is ignored.
    pub fn disk_mmio_write(&mut self, off: u32, val: u32) {
        if let PortEvent::Doorbell(new) = self.disk.write(off, val) {
            for slot in slots(new) {
                self.disk_issue(slot);
            }
        }
    }

    /// Forwards a guest disk command to the physical controller: the
    /// in-kernel host driver path. The vAHCI's parser reads the guest's
    /// command structures; a command it rejects fails the slot at the
    /// doorbell. An accepted one is copied into the slot's host-owned
    /// table with its buffers' bus addresses rewritten to host-physical
    /// (identity offset; the IOMMU is not consulted — in-kernel drivers
    /// are trusted, Section 4.2) and issued in the same physical slot.
    fn disk_issue(&mut self, slot: u8) {
        let read = |gpa, out: &mut [u8]| self.ram(gpa, out.len()).map(|s| out.copy_from_slice(s));
        let Ok(c) = parse_command(read, self.guest_pages, self.disk.clb, slot) else {
            if self.disk.complete(slot, false) {
                self.legacy.pic.pulse(AHCI_IRQ);
            }
            return;
        };
        let table_len = cmd::PRDT_OFFSET + (c.segs.len() * cmd::PRD_LEN) as u64;
        let table = HOST_TABLES + slot as u64 * table_len;
        let mem = &mut self.machine.mem;
        mem.write_bytes(table, &c.fis.encode());
        for (i, &(dba, bytes)) in c.segs.iter().take(c.nsegs).enumerate() {
            let prd = cmd::prd::encode(GUEST_BASE_PAGE * 4096 + dba, bytes);
            mem.write_bytes(table + cmd::PRDT_OFFSET + (i * cmd::PRD_LEN) as u64, &prd);
        }
        let hdr = cmd::Header {
            prdtl: c.nsegs as u16,
            ctba: table,
        };
        let at = HOST_LIST + slot as u64 * cmd::HEADER_LEN as u64;
        mem.write_bytes(at, &hdr.encode());

        let now = self.machine.clock;
        let m = &mut self.machine;
        m.bus.iommu.set_passthrough(m.dev.ahci);
        for (reg, val) in [
            (regs::P0CLB, HOST_LIST as u32),
            (regs::P0IE, 1),
            (regs::P0CI, 1 << slot),
        ] {
            m.bus
                .mmio_write(&mut m.mem, now, AHCI_BASE + reg as u64, OpSize::Dword, val);
        }
        self.disk_inflight |= 1 << slot;
    }

    /// Physical AHCI interrupt: acknowledge the controller, complete
    /// every virtual command whose physical slot is free, raise the
    /// virtual line.
    fn disk_irq(&mut self) {
        let now = self.machine.clock;
        let m = &mut self.machine;
        for reg in [regs::IS, regs::P0IS] {
            let at = AHCI_BASE + reg as u64;
            let pending = m.bus.mmio_read(&mut m.mem, now, at, OpSize::Dword);
            m.bus
                .mmio_write(&mut m.mem, now, at, OpSize::Dword, pending);
        }
        let ci = AHCI_BASE + regs::P0CI as u64;
        let busy = m.bus.mmio_read(&mut m.mem, now, ci, OpSize::Dword);
        for slot in slots(self.disk_inflight & !busy) {
            if self.disk.complete(slot, true) {
                self.legacy.pic.pulse(AHCI_IRQ);
            }
            self.counters.disk_ops += 1;
        }
        self.disk_inflight &= busy;
    }

    /// Services an acknowledged physical interrupt vector: EOI the
    /// controller and run the in-kernel host driver.
    fn service_physical(&mut self, vector: u8) {
        if vector >= 0x28 {
            self.machine.bus.pic.io_write(nova_hw::pic::SLAVE_CMD, 0x20);
        }
        self.machine
            .bus
            .pic
            .io_write(nova_hw::pic::MASTER_CMD, 0x20);
        if vector == 0x28 + 3 {
            self.disk_irq();
        }
    }

    fn charge_exit(&mut self, shadow_class: bool) {
        let tagged = self.vmcs.vpid != 0;
        let cost = &self.machine.cost;
        let model = self.cfg.model.costs();
        let sw_base = if shadow_class {
            model.shadow_sw
        } else {
            model.exit_sw
        };
        let (trans, sw) = match model.pv_trap {
            // Paravirtual trap: syscall-priced, no VMX transition.
            Some(pv) => (2 * cost.syscall_entry_exit, pv.min(sw_base)),
            None => (cost.vm_transition_cost(tagged), sw_base),
        };
        self.machine.clock += trans + sw;
        self.counters.cycles_transition += trans;
        self.counters.cycles_emulation += sw;
        if model.flush_per_trap {
            // L4Linux: no small spaces — full flush + refill per trap.
            let occ = self.machine.cpus[0].tlb.occupancy();
            self.machine.cpus[0].tlb.flush_all();
            let refill = Tlb::refill_penalty(occ, cost.tlb_refill_per_entry);
            self.machine.clock += refill;
            self.counters.cycles_kernel += refill;
        }
    }

    /// Runs until the guest exits or the budget elapses, and reports
    /// the run under `label`.
    pub fn run(&mut self, label: &str, budget: Option<Cycles>) -> RunResult {
        let deadline = budget.map(|b| self.machine.clock + b);
        loop {
            if self.guest_exit.is_some() {
                break;
            }
            if deadline.is_some_and(|d| self.machine.clock >= d) {
                break;
            }

            // Device events, physical interrupts, virtual timer.
            let now = self.machine.clock;
            self.machine.bus.process_events(&mut self.machine.mem, now);
            while self.machine.bus.pic.intr() {
                match self.machine.bus.pic.ack() {
                    Some(v) => self.service_physical(v),
                    None => break,
                }
            }
            if let Some(dl) = self.vpit_deadline {
                if self.machine.clock >= dl {
                    self.legacy.pic.pulse(0);
                    self.vpit_deadline = Some(dl + self.vpit_period());
                }
            }
            // The VMM's injection rule, on the guest's own window.
            if self.vmcs.injection.is_none() {
                let window = self.vmcs.guest.if_set() && !self.vmcs.sti_shadow;
                match next_irq(&mut None, Some(&mut self.legacy.pic), window) {
                    Irq::Inject(inj) => {
                        self.vmcs.injection = Some(inj);
                        self.vmcs.halted = false;
                        self.counters.injected_virq += 1;
                    }
                    Irq::Window => self.vmcs.intwin_exit = true,
                    Irq::Idle => {}
                }
            }

            // Idle guest: fast-forward.
            if self.vmcs.halted && self.vmcs.injection.is_none() {
                let next = [self.machine.bus.next_event_due(), self.vpit_deadline]
                    .into_iter()
                    .flatten()
                    .min();
                match next {
                    Some(due) if due > self.machine.clock => {
                        self.machine.cpus[0].idle_cycles += due - self.machine.clock;
                        self.machine.clock = due;
                        continue;
                    }
                    Some(_) => continue,
                    None => break,
                }
            }

            // Enter the guest.
            let quantum = self
                .vpit_deadline
                .map(|d| d.saturating_sub(self.machine.clock).max(1000))
                .unwrap_or(1_000_000);
            let m = &mut self.machine;
            run_guest(
                &mut m.cpus[0],
                &mut m.mem,
                &mut m.bus,
                &m.cost,
                &mut m.clock,
                &mut self.vmcs,
                Some(quantum),
            );
            self.counters.count_exit(&self.vmcs.exit);
            let shadow_class = matches!(
                self.vmcs.exit,
                ExitReason::PageFault { .. } | ExitReason::MovCr { .. } | ExitReason::Invlpg { .. }
            );
            self.charge_exit(shadow_class);
            self.handle_exit();
            // Shutdown and benchmark marks, at the exit's clock; the MP
            // ports are the VMM's (the baseline runs one vCPU).
            let special = &mut self.legacy.special;
            self.guest_exit = special.exit_code.take().or(self.guest_exit);
            let now = self.machine.clock;
            let marks = special.marks.drain(..).map(|v| (now, v));
            self.machine.bus.ctl.marks.extend(marks);
            special.ap_starts.clear();
            special.ipis.clear();
        }
        RunResult::new(
            label,
            &self.machine,
            self.guest_exit,
            Some(self.counters.clone()),
            self.console(),
        )
    }

    /// Handles the exit in `vmcs.exit` in the kernel: the physical and
    /// shadow-paging ones here, the rest (a device page's shadow fault
    /// too) in the VMM's.
    fn handle_exit(&mut self) {
        let reason = match self.vmcs.exit {
            ExitReason::Preempt | ExitReason::IntWindow => {
                self.vmcs.intwin_exit = false;
                return;
            }
            // The exit already acknowledged the vector at the PIC: it
            // must be serviced here or its in-service bit wedges.
            ExitReason::ExtInt { vector } => return self.service_physical(vector),
            ExitReason::PageFault { .. } | ExitReason::MovCr { .. } | ExitReason::Invlpg { .. } => {
                if let ExitReason::PageFault { .. } = self.vmcs.exit {
                    // Figure 9: six VMREADs to determine the cause.
                    let cost = &self.machine.cost;
                    self.machine.clock += 6 * cost.vmread + cost.vtlb_fill_sw;
                }
                let Some(cache) = self.shadow.as_mut() else {
                    return;
                };
                let m = &mut self.machine;
                let parts = ShadowParts {
                    mem: &mut m.mem,
                    alloc: &mut self.alloc,
                    ms: &self.ms,
                    cache,
                    vmcs: &mut self.vmcs,
                    tlb: &mut m.cpus[0].tlb,
                    counters: &mut self.counters,
                };
                let prefetch = self.cfg.model.costs().shadow_prefetch;
                match vtlb::handle_exit(parts, prefetch) {
                    // The per-entry cost of the batch.
                    Some(ShadowExit::Filled(n)) => {
                        self.machine.clock += 60 * (n as Cycles - 1);
                        return;
                    }
                    Some(ShadowExit::Mmio { gpa, write }) => {
                        let access = if write { Access::WRITE } else { Access::READ };
                        ExitReason::EptViolation { gpa, access }
                    }
                    _ => return,
                }
            }
            reason => reason,
        };
        let mut regs = self.vmcs.guest.clone();
        let exit = exit::handle(self, self.guest_pages, &reason, &mut regs);
        self.vmcs.guest = regs;
        match exit {
            Exit::Resume => {}
            Exit::Halt => self.vmcs.halted = true,
            Exit::Inject(inj) => self.vmcs.injection = Some(inj),
            Exit::Kill(kill) => self.guest_exit = Some(kill.exit_code()),
        }
    }
}

/// The monolithic kernel's [`ExitHost`]: its flat `exit_sw` already
/// paid for the handling, so a charge adds nothing.
impl ExitHost for Monolithic {
    fn charge(&mut self, _: impl FnOnce(&CostModel) -> Cycles) {}

    fn legacy(&mut self) -> &mut LegacyDevices {
        &mut self.legacy
    }
}

/// Guest RAM is the host frames from `GUEST_BASE_PAGE` on, the legacy
/// hole included; the in-kernel AHCI model is the one device window.
impl EmuHost for Monolithic {
    fn ram(&self, gpa: u64, len: usize) -> Option<&[u8]> {
        self.machine.mem.slice(GUEST_BASE_PAGE * 4096 + gpa, len)
    }

    fn ram_mut(&mut self, gpa: u64, len: usize) -> Option<&mut [u8]> {
        self.machine
            .mem
            .slice_mut(GUEST_BASE_PAGE * 4096 + gpa, len)
    }

    fn mmio_read(&mut self, gpa: u64, _size: OpSize) -> Option<u32> {
        Some(self.disk_mmio_read(ahci_reg(gpa)?))
    }

    fn mmio_write(&mut self, gpa: u64, _size: OpSize, val: u32) -> bool {
        let Some(off) = ahci_reg(gpa) else {
            return false;
        };
        self.disk_mmio_write(off, val);
        true
    }

    fn io_in(&mut self, port: u16, size: OpSize) -> u32 {
        self.legacy.io_read(port, size)
    }

    fn io_out(&mut self, port: u16, _size: OpSize, val: u32) {
        if self.legacy.io_write(port, val) {
            self.vpit_deadline = Some(self.machine.clock + self.vpit_period());
        }
    }

    fn ident(&self) -> &CpuIdent {
        &self.machine.cost.ident
    }

    fn now(&self) -> u64 {
        self.machine.clock
    }
}

/// The in-kernel AHCI model's register at guest-physical `gpa`, if
/// its page holds `gpa`.
fn ahci_reg(gpa: u64) -> Option<u32> {
    let page = AHCI_BASE..AHCI_BASE + 0x1000;
    page.contains(&gpa).then(|| (gpa - AHCI_BASE) as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_guest::compile::{self, CompileParams};

    fn run_cfg(cfg: MonoConfig) -> RunResult {
        let prog = compile::build(CompileParams::smoke());
        let mut m = Monolithic::new(MachineConfig::core_i7(96 << 20), cfg, 8192, &prog);
        m.run("KVM", Some(60_000_000_000))
    }

    #[test]
    fn kvm_ept_runs_compile() {
        let out = run_cfg(MonoConfig::kvm_ept());
        assert!(out.ok, "guest completed: {out:?}");
        let counters = out.counters.expect("a hypervisor counts");
        assert_eq!(counters.exits_of(8), 0, "no #PF exits under EPT");
        assert!(counters.exits_of(6) > 0);
    }

    #[test]
    fn kvm_shadow_runs_compile() {
        let out = run_cfg(MonoConfig::kvm_shadow());
        assert!(out.ok);
        let counters = out.counters.expect("a hypervisor counts");
        assert!(counters.vtlb_fills > 0);
        assert!(counters.guest_page_faults > 0);
    }

    #[test]
    fn paravirt_runs_compile_cheaper_than_shadow() {
        let pv = run_cfg(MonoConfig::xen_pv());
        assert!(pv.ok);
        let sh = run_cfg(MonoConfig::kvm_shadow());
        assert!(
            pv.cycles < sh.cycles,
            "paravirt ({}) beats shadow paging ({})",
            pv.cycles,
            sh.cycles
        );
    }

    #[test]
    fn l4linux_slower_than_xen_pv() {
        let xen = run_cfg(MonoConfig::xen_pv());
        let l4 = run_cfg(MonoConfig::l4linux());
        assert!(l4.ok);
        assert!(
            l4.cycles > xen.cycles,
            "TLB flushes per trap cost: l4 {} vs xen {}",
            l4.cycles,
            xen.cycles
        );
    }

    /// A 4 KB read whose buffer lies past guest RAM fails at the
    /// doorbell with `TFES`, as a header outside RAM does, and reaches
    /// neither host memory nor the physical controller.
    #[test]
    fn a_data_buffer_outside_guest_ram_fails_the_slot() {
        const RAM_PAGES: u64 = 1024;
        let halt = GuestImage {
            bytes: vec![0xf4, 0xeb, 0xfd], // hlt; jmp to it
            load_gpa: 0x1000,
            entry: 0x1000,
            stack: 0x8000,
        };
        let cfg = MachineConfig::core_i7(32 << 20);
        let mut mono = Monolithic::new(cfg, MonoConfig::kvm_ept(), RAM_PAGES, &halt);
        let (clb, ctba) = (0x2000, 0x3000);
        let header = cmd::Header { prdtl: 1, ctba };
        let cfis = cmd::Cfis {
            write: false,
            lba: 5,
            sectors: 8,
        };
        let prd = cmd::prd::encode((RAM_PAGES + 1) * 4096, 4096);
        for (gpa, bytes) in [
            (clb, &header.encode()[..]),
            (ctba, &cfis.encode()[..]),
            (ctba + cmd::PRDT_OFFSET, &prd[..]),
        ] {
            let hpa = mono.gpa_hpa(gpa).expect("in guest RAM");
            mono.machine.mem.write_bytes(hpa, bytes);
        }
        let frame0 = mono.machine.mem.read_bytes(0, 4096);

        mono.disk_mmio_write(regs::P0CLB, clb as u32);
        mono.disk_mmio_write(regs::P0IE, 1);
        mono.disk_mmio_write(regs::P0CI, 1);
        mono.run("KVM", Some(100_000_000));

        assert!(
            mono.machine.mem.read_bytes(0, 4096) == frame0,
            "host frame 0 moved"
        );
        assert_ne!(
            mono.disk_mmio_read(regs::P0IS) & nova_hw::ahci::P0IS_TFES,
            0
        );
        assert_eq!(mono.disk_mmio_read(regs::P0CI), 0, "the slot is free");
        let m = &mut mono.machine;
        for reg in [regs::P0CLB, regs::P0CI] {
            let at = AHCI_BASE + reg as u64;
            let val = m.bus.mmio_read(&mut m.mem, m.clock, at, OpSize::Dword);
            assert_eq!(val, 0, "the physical controller was programmed");
        }
    }
}
