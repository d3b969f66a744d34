//! The assembled evaluation machine: RAM, CPU cores, and the platform
//! devices of the paper's testbed (Section 8) at fixed addresses.

use nova_trace::{ring::DEFAULT_CAPACITY, Tracer};
use nova_x86::insn::OpSize;
use nova_x86::reg::{Reg, Regs};

use crate::ahci::{Ahci, DiskParams};
use crate::cost::CostModel;
use crate::cpu::{run_native, Cpu, NativeStop};
use crate::device::{DevCtx, Device, DeviceBus};
use crate::fault::{FaultInjector, FaultPlan};
use crate::iommu::Iommu;
use crate::mem::PhysMem;
use crate::nic::Nic;
use crate::pci::{PciConfig, PciFunction};
use crate::platform::{Kbd, Pit};
use crate::serial::Uart16550;
use crate::vga::VgaText;
use crate::{Cycles, PAddr};

/// AHCI controller MMIO base.
pub const AHCI_BASE: PAddr = 0xfeb0_0000;
/// NIC MMIO base.
pub const NIC_BASE: PAddr = 0xfeb1_0000;
/// AHCI interrupt line.
pub const AHCI_IRQ: u8 = 11;
/// NIC interrupt line.
pub const NIC_IRQ: u8 = 10;
/// The AHCI controller's PCI function: device 2 on the platform's bus
/// and — so the same guest driver works in both worlds — on every
/// VM's virtual one.
pub const AHCI_FUNCTION: PciFunction = PciFunction {
    device: 2,
    vendor_id: 0x8086,
    device_id: 0x2922,
    class: 0x0106,
    bar0: AHCI_BASE as u32,
    bar0_size: 0x1000,
    irq_line: AHCI_IRQ,
};
/// The NIC's PCI function.
pub const NIC_FUNCTION: PciFunction = PciFunction {
    device: 3,
    vendor_id: 0x8086,
    device_id: 0x10de,
    class: 0x0200,
    bar0: NIC_BASE as u32,
    bar0_size: 0x4000,
    irq_line: NIC_IRQ,
};
/// Debug-exit port: a byte write stops the machine with that code.
pub const DEBUG_EXIT_PORT: u16 = 0xf4;
/// Benchmark-mark port: a dword write records (cycle, value).
pub const MARK_PORT: u16 = 0xf5;

/// QEMU-style debug exit / benchmark mark device.
struct DebugPort;

impl Device for DebugPort {
    fn name(&self) -> &'static str {
        "debug-port"
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn io_write(&mut self, ctx: &mut DevCtx, port: u16, _size: OpSize, val: u32) {
        match port {
            DEBUG_EXIT_PORT => ctx.ctl.shutdown = Some(val as u8),
            MARK_PORT => ctx.ctl.marks.push((ctx.now, val)),
            _ => {}
        }
    }
}

/// A guest program image: the bytes a loader puts in guest-physical
/// memory and the register state the guest starts in. Every stack
/// loads the same image — the bare machine, the Direct limit, the
/// monolithic baseline and the VMM's virtual BIOS.
#[derive(Clone, Debug, Default)]
pub struct GuestImage {
    /// Raw machine code.
    pub bytes: Vec<u8>,
    /// Guest-physical load address.
    pub load_gpa: u64,
    /// Initial instruction pointer.
    pub entry: u32,
    /// Initial stack pointer.
    pub stack: u32,
}

/// Multiboot bootloader magic a guest finds in EAX at entry.
pub const MULTIBOOT_MAGIC: u32 = 0x2bad_b002;

/// Guest-physical address of the boot-information block (EBX at entry).
pub const BOOT_INFO_GPA: u64 = 0x500;

impl GuestImage {
    /// The boot handoff, the same on every stack: `write` places the
    /// boot-information block (u32 fields: RAM size in pages, number of
    /// vCPUs, the AHCI MMIO base, this vCPU's index) and then the image
    /// in guest-physical memory — an image that covers the block keeps
    /// its own bytes — and the boot processor enters in flat protected
    /// mode with the multiboot magic in EAX and the block's address in
    /// EBX.
    pub fn boot(&self, ram_pages: u64, vcpus: usize, mut write: impl FnMut(u64, &[u8])) -> Regs {
        let info = [ram_pages as u32, vcpus as u32, AHCI_BASE as u32, 0];
        for (at, word) in (BOOT_INFO_GPA..).step_by(4).zip(info) {
            write(at, &word.to_le_bytes());
        }
        write(self.load_gpa, &self.bytes);
        let mut regs = Regs::at(self.entry);
        regs.set(Reg::Esp, self.stack);
        regs.set(Reg::Eax, MULTIBOOT_MAGIC);
        regs.set(Reg::Ebx, BOOT_INFO_GPA as u32);
        regs
    }
}

/// Machine construction parameters.
#[derive(Clone, Copy)]
pub struct MachineConfig {
    /// CPU cost model (selects the Table 1 processor).
    pub cost: CostModel,
    /// RAM size in bytes.
    pub ram: usize,
    /// Whether the platform has an IOMMU.
    pub iommu: bool,
    /// Number of CPU cores.
    pub cpus: usize,
}

impl MachineConfig {
    /// The paper's primary machine: Core i7 (Bloomfield), IOMMU
    /// present.
    pub fn core_i7(ram: usize) -> MachineConfig {
        MachineConfig {
            cost: crate::cost::BLM,
            ram,
            iommu: true,
            cpus: 1,
        }
    }
}

/// Well-known device bus indices on the assembled machine.
#[derive(Clone, Copy, Debug)]
pub struct DeviceIds {
    /// 8254 timer.
    pub pit: usize,
    /// COM1 UART.
    pub serial: usize,
    /// i8042 keyboard controller.
    pub kbd: usize,
    /// VGA text buffer.
    pub vga: usize,
    /// AHCI controller.
    pub ahci: usize,
    /// Ethernet controller.
    pub nic: usize,
    /// PCI host bridge.
    pub pci: usize,
    /// Debug/exit port.
    pub debug: usize,
}

/// The machine.
pub struct Machine {
    /// The cost model in effect.
    pub cost: CostModel,
    /// RAM.
    pub mem: PhysMem,
    /// Devices, interrupt controller, IOMMU, event queue.
    pub bus: DeviceBus,
    /// CPU cores.
    pub cpus: Vec<Cpu>,
    /// Global cycle clock.
    pub clock: Cycles,
    /// Bus indices of the platform devices.
    pub dev: DeviceIds,
}

impl Machine {
    /// Builds the platform.
    pub fn new(config: MachineConfig) -> Machine {
        let iommu = if config.iommu {
            Iommu::enabled()
        } else {
            Iommu::disabled()
        };
        let mut bus = DeviceBus::new(iommu);
        let hz = config.cost.ident.hz();

        let pit = bus.add_device(Box::new(Pit::new(hz)));
        bus.map_ports(0x40, 0x43, pit);

        let serial = bus.add_device(Box::<Uart16550>::default());
        bus.map_ports(crate::serial::COM1, crate::serial::COM1_LAST, serial);

        let kbd = bus.add_device(Box::<Kbd>::default());
        bus.map_ports(crate::kbd::DATA, crate::kbd::STATUS, kbd);

        let vga = bus.add_device(Box::new(VgaText::new()));
        bus.map_mmio(
            crate::vga::VGA_BASE,
            (crate::vga::COLS * crate::vga::ROWS * 2) as u64,
            vga,
        );

        let ahci = bus.add_device(Box::new(Ahci::new(DiskParams::sata_250g(), AHCI_IRQ)));
        bus.map_mmio(AHCI_BASE, 0x1000, ahci);

        let nic = bus.add_device(Box::new(Nic::new(NIC_IRQ, hz)));
        bus.map_mmio(NIC_BASE, 0x4000, nic);

        let pci = bus.add_device(Box::new(PciConfig::new(&[AHCI_FUNCTION, NIC_FUNCTION])));
        bus.map_ports(
            crate::pci::CONFIG_ADDRESS,
            crate::pci::CONFIG_DATA_LAST,
            pci,
        );

        let debug = bus.add_device(Box::new(DebugPort));
        bus.map_ports(DEBUG_EXIT_PORT, MARK_PORT, debug);

        Machine {
            cost: config.cost,
            mem: PhysMem::new(config.ram),
            bus,
            cpus: (0..config.cpus.max(1)).map(Cpu::new).collect(),
            clock: 0,
            dev: DeviceIds {
                pit,
                serial,
                kbd,
                vga,
                ahci,
                nic,
                pci,
                debug,
            },
        }
    }

    /// Loads a program image at a physical address.
    pub fn load_image(&mut self, addr: PAddr, image: &[u8]) {
        self.mem.write_bytes(addr, image);
    }

    /// Runs CPU 0 natively (no virtualization) until it stops.
    pub fn run_native(&mut self, budget: Option<Cycles>) -> NativeStop {
        let (cpu0, rest) = self.cpus.split_first_mut().expect("at least one CPU");
        let _ = rest;
        run_native(
            cpu0,
            &mut self.mem,
            &mut self.bus,
            &self.cost,
            &mut self.clock,
            budget,
        )
    }

    /// Captured serial output.
    pub fn serial_text(&mut self) -> String {
        let id = self.dev.serial;
        self.bus
            .typed_mut::<Uart16550>(id)
            .map(|s| s.text())
            .unwrap_or_default()
    }

    /// Rendered VGA text screen.
    pub fn vga_text(&mut self) -> String {
        let id = self.dev.vga;
        self.bus
            .typed_mut::<VgaText>(id)
            .map(|v| v.screen_text())
            .unwrap_or_default()
    }

    /// Typed handle to the AHCI controller.
    pub fn ahci(&mut self) -> &mut Ahci {
        let id = self.dev.ahci;
        self.bus.typed_mut::<Ahci>(id).expect("ahci present")
    }

    /// Typed handle to the NIC.
    pub fn nic(&mut self) -> &mut Nic {
        let id = self.dev.nic;
        self.bus.typed_mut::<Nic>(id).expect("nic present")
    }

    /// Attaches a fault-injection plan to the platform. Devices roll
    /// against it at their fault sites from then on; the same seed over
    /// the same workload reproduces the same fault trace.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.bus.fault = FaultInjector::new(plan);
    }

    /// The fault injector (for counters and the fault trace).
    pub fn faults(&self) -> &FaultInjector {
        &self.bus.fault
    }

    /// Turns on cycle-stamped tracing with the given category mask
    /// (see `nova_trace::cat`), one ring per CPU. Replaces any
    /// previously recorded trace, but carries the causal state
    /// (context allocator/register, flight recorders) over so trace
    /// context ids stay unique for the life of the machine.
    pub fn enable_tracing(&mut self, mask: u64) {
        let mut fresh = Tracer::new(self.cpus.len().max(1), DEFAULT_CAPACITY, mask);
        fresh.carry_over(&self.bus.trace);
        self.bus.trace = fresh;
    }

    /// The platform tracer (events, metrics, drop count).
    pub fn tracer(&self) -> &Tracer {
        &self.bus.trace
    }

    /// Mutable tracer handle, for kernel- and user-level tracepoints.
    pub fn tracer_mut(&mut self) -> &mut Tracer {
        &mut self.bus.trace
    }

    /// Benchmark marks recorded so far.
    pub fn marks(&self) -> &[(Cycles, u32)] {
        &self.bus.ctl.marks
    }

    /// The platform's device-to-interrupt-line wiring, for the
    /// hypervisor's interrupt-remapping setup.
    pub fn wired_irqs(&self) -> Vec<(usize, u8)> {
        vec![
            (self.dev.pit, crate::pit::IRQ),
            (self.dev.kbd, crate::kbd::IRQ),
            (self.dev.ahci, AHCI_IRQ),
            (self.dev.nic, NIC_IRQ),
        ]
    }

    /// Types a sequence of scancodes at the keyboard and kicks its
    /// interrupt line.
    pub fn type_scancodes(&mut self, codes: &[u8]) {
        let id = self.dev.kbd;
        if let Some(k) = self.bus.typed_mut::<Kbd>(id) {
            k.chip.queue.extend(codes);
        }
        self.bus.events.schedule(
            self.clock + 1,
            crate::event::Event {
                device: id,
                token: 0,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_x86::reg::Reg;
    use nova_x86::Asm;

    fn machine() -> Machine {
        Machine::new(MachineConfig::core_i7(16 << 20))
    }

    #[test]
    fn native_halt_and_exit() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Eax, 0x2a);
        a.mov_ri(Reg::Edx, DEBUG_EXIT_PORT as u32);
        a.out_dx_al();
        let img = a.finish();
        m.load_image(0x1000, &img);
        m.cpus[0].regs.eip = 0x1000;
        m.cpus[0].regs.set(Reg::Esp, 0x8000);
        assert_eq!(m.run_native(None), NativeStop::Shutdown(0x2a));
    }

    #[test]
    fn native_serial_output() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        for b in b"hello" {
            a.mov_r8i(nova_x86::Reg8::Al, *b);
            a.mov_ri(Reg::Edx, crate::serial::COM1 as u32);
            a.out_dx_al();
        }
        a.mov_ri(Reg::Edx, DEBUG_EXIT_PORT as u32);
        a.out_dx_al();
        let img = a.finish();
        m.load_image(0x1000, &img);
        m.cpus[0].regs.eip = 0x1000;
        m.cpus[0].regs.set(Reg::Esp, 0x8000);
        m.run_native(None);
        assert_eq!(m.serial_text(), "hello");
    }

    #[test]
    fn native_vga_mmio() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Ebx, crate::vga::VGA_BASE as u32);
        a.mov_m8i(nova_x86::MemRef::base_disp(Reg::Ebx, 0), b'X');
        a.mov_ri(Reg::Edx, DEBUG_EXIT_PORT as u32);
        a.out_dx_al();
        let img = a.finish();
        m.load_image(0x1000, &img);
        m.cpus[0].regs.eip = 0x1000;
        m.cpus[0].regs.set(Reg::Esp, 0x8000);
        m.run_native(None);
        assert!(m.vga_text().starts_with('X'));
    }

    #[test]
    fn native_timer_interrupt_wakes_hlt() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);

        // IDT at 0x7000; install vector 0x20 -> handler.
        let handler = a.label();
        // lidt descriptor at 0x6000: limit, base.
        a.mov_ri(Reg::Ebx, 0x6000);
        a.mov_mi(
            nova_x86::MemRef::base_disp(Reg::Ebx, 0),
            0x7000_07ff & 0xffff,
        );
        a.mov_mi(nova_x86::MemRef::base_disp(Reg::Ebx, 2), 0x7000);
        a.lidt(nova_x86::MemRef::base_disp(Reg::Ebx, 0));
        // Gate 0x20 at 0x7000 + 0x20*8.
        a.mov_ri(Reg::Ebx, 0x7000 + 0x20 * 8);
        a.mov_r_label(Reg::Ecx, handler);
        // offset low 16 | selector(8)<<16 ... write dword lo: (off & 0xffff) | 8<<16
        a.mov_rr(Reg::Eax, Reg::Ecx);
        a.alu_ri(nova_x86::AluOp::And, Reg::Eax, 0xffff);
        a.alu_ri(nova_x86::AluOp::Or, Reg::Eax, 0x8 << 16);
        a.mov_mr(nova_x86::MemRef::base_disp(Reg::Ebx, 0), Reg::Eax);
        a.mov_rr(Reg::Eax, Reg::Ecx);
        a.alu_ri(nova_x86::AluOp::And, Reg::Eax, 0xffff_0000u32);
        a.alu_ri(nova_x86::AluOp::Or, Reg::Eax, 0x8e00);
        a.mov_mr(nova_x86::MemRef::base_disp(Reg::Ebx, 4), Reg::Eax);

        // Unmask IRQ0 at the PIC, program the PIT, sti, hlt.
        a.mov_r8i(nova_x86::Reg8::Al, 0xfe); // mask all but line 0
        a.out_imm_al(0x21);
        a.mov_r8i(nova_x86::Reg8::Al, 0x34);
        a.out_imm_al(0x43);
        a.mov_r8i(nova_x86::Reg8::Al, 0xe8); // divisor 1000 = 0x3e8
        a.out_imm_al(0x40);
        a.mov_r8i(nova_x86::Reg8::Al, 0x03);
        a.out_imm_al(0x40);
        a.sti();
        a.hlt();
        // Falls through here after the handler returns: exit.
        a.mov_r8i(nova_x86::Reg8::Al, 7);
        a.mov_ri(Reg::Edx, DEBUG_EXIT_PORT as u32);
        a.out_dx_al();

        a.bind(handler);
        a.mov_r8i(nova_x86::Reg8::Al, 0x20); // EOI
        a.out_imm_al(0x20);
        a.iret();

        let img = a.finish();
        m.load_image(0x1000, &img);
        m.cpus[0].regs.eip = 0x1000;
        m.cpus[0].regs.set(Reg::Esp, 0x8000);
        assert_eq!(m.run_native(Some(100_000_000)), NativeStop::Shutdown(7));
        assert!(m.cpus[0].idle_cycles > 0, "HLT idled until the tick");
    }

    #[test]
    fn marks_record_cycles() {
        let mut m = machine();
        let mut a = Asm::new(0x1000);
        a.mov_ri(Reg::Eax, 1);
        a.mov_ri(Reg::Edx, MARK_PORT as u32);
        a.out_dx_eax();
        a.mov_ri(Reg::Eax, 2);
        a.out_dx_eax();
        a.mov_ri(Reg::Edx, DEBUG_EXIT_PORT as u32);
        a.out_dx_al();
        let img = a.finish();
        m.load_image(0x1000, &img);
        m.cpus[0].regs.eip = 0x1000;
        m.cpus[0].regs.set(Reg::Esp, 0x8000);
        m.run_native(None);
        let marks = m.marks();
        assert_eq!(marks.len(), 2);
        assert_eq!(marks[0].1, 1);
        assert_eq!(marks[1].1, 2);
        assert!(marks[1].0 > marks[0].0);
    }
}
