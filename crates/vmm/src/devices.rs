//! Virtual device models (Section 7.2): software state machines that
//! mimic the behaviour of the corresponding hardware devices — and are
//! the same structs as the platform's (`nova_hw::{pic, pit, serial,
//! kbd, pci}`): the interrupt controller, the UART capturing the
//! guest's console, the keyboard controller and the PCI configuration
//! space exposing the virtual AHCI controller are instantiated here
//! as they are, in one [`LegacyDevices`] set that the monolithic
//! baseline holds too; the virtual timer adds the hypervisor's timer
//! service in place of the bus clock.

use nova_core::cap::CapSel;
use nova_core::{CompCtx, Hypercall, Kernel};
use nova_hw::kbd::{self, I8042};
use nova_hw::machine::{AHCI_BASE, AHCI_IRQ};
use nova_hw::pci::{self, PciConfig};
use nova_hw::pic::DualPic;
use nova_hw::pit::{self, Pit8254};
use nova_hw::pv::{self, PV_BASE, PV_SIZE};
use nova_hw::serial::{Uart16550, COM1, COM1_LAST};
use nova_hw::GuestSurface;
use nova_x86::insn::OpSize;

use crate::checkpoint::{Dec, Enc};
use crate::diskclient::{DiskClient, Due, Req};
use crate::pvdisk::PvDisk;
use crate::pvnet::PvNet;
use crate::pvqueue::{self, Queue, Reg};
use crate::vahci::VAhci;

/// Counts one malformed guest input that a back end rejected at
/// `surface` — the registry's `guest_faults_rejected`, per surface in
/// the `guest_fault_rejected` metric. Every back end counts here.
pub(crate) fn count_rejected(k: &mut Kernel, surface: GuestSurface) {
    k.count(
        |c| &mut c.guest_faults_rejected,
        nova_trace::names::GUEST_FAULT_REJECTED,
        surface as u64,
    );
}

/// Pseudo-port effects the VMM acts on after emulation: guest
/// shutdown, benchmark marks, AP bring-up and IPI broadcast
/// (the simplified MP interface documented in DESIGN.md).
#[derive(Default)]
pub struct SpecialPorts {
    /// Guest requested shutdown with this code.
    pub exit_code: Option<u8>,
    /// Benchmark marks written by the guest.
    pub marks: Vec<u32>,
    /// AP start requests: (vcpu index, entry page).
    pub ap_starts: Vec<(usize, u32)>,
    /// Broadcast-IPI vectors requested (TLB shootdown, Section 7.5).
    pub ipis: Vec<u8>,
}

impl SpecialPorts {
    /// `true` if no effect waits.
    pub fn is_empty(&self) -> bool {
        let SpecialPorts {
            exit_code,
            marks,
            ap_starts,
            ipis,
        } = self;
        exit_code.is_none() && marks.is_empty() && ap_starts.is_empty() && ipis.is_empty()
    }
}

/// Guest debug-exit port.
pub const PORT_EXIT: u16 = 0xf4;
/// Guest benchmark-mark port.
pub const PORT_MARK: u16 = 0xf5;
/// AP bring-up port: `out eax` with `(vcpu << 16) | entry_page`.
pub const PORT_AP_START: u16 = 0x99;
/// Broadcast-IPI port: `out al` with the vector.
pub const PORT_IPI: u16 = 0x9a;

/// A register of a virtual MMIO window: the AHCI page's, the PV page's
/// FEAT, an offered PV queue's, or a PV offset that names nothing the
/// VM was offered.
enum Window {
    Ahci(u32),
    Feat,
    Pv(Queue, Reg),
    Unassigned,
}

/// The kernel-free chips of a PC — interrupt controller, PIT, UART,
/// keyboard controller and PCI configuration space — and the pseudo
/// ports, with their one port router: every hypervisor that models
/// a legacy device (the VMM, the monolithic baseline) holds this set.
pub struct LegacyDevices {
    /// Dual PIC (same state machine as the platform PIC).
    pub pic: DualPic,
    /// PIT chip; who owns the timer behind it arms it.
    pub pit: Pit8254,
    /// UART at COM1: captures the guest's console output.
    pub serial: Uart16550,
    /// Keyboard controller: scancodes injected by the owner surface at
    /// ports 0x60/0x64 with IRQ 1.
    pub kbd: I8042,
    /// PCI configuration space: the AHCI controller is the one
    /// function, the platform's own.
    pub pci: PciConfig,
    /// Pending out-of-band effects.
    pub special: SpecialPorts,
}

impl Default for LegacyDevices {
    fn default() -> LegacyDevices {
        LegacyDevices {
            pic: DualPic::new(),
            pit: Pit8254::new(),
            serial: Uart16550::default(),
            kbd: I8042::default(),
            pci: PciConfig::new(&[nova_hw::machine::AHCI_FUNCTION]),
            special: SpecialPorts::default(),
        }
    }
}

impl LegacyDevices {
    /// Guest port input.
    pub fn io_read(&mut self, port: u16, size: OpSize) -> u32 {
        match port {
            0x20 | 0x21 | 0xa0 | 0xa1 => self.pic.io_read(port) as u32,
            pit::CH0..=pit::MODE => self.pit.read(port) as u32,
            kbd::DATA | kbd::STATUS => {
                let v = self.kbd.read(port) as u32;
                // More scancodes waiting: keep the interrupt coming.
                if port == kbd::DATA && self.kbd.pending() {
                    self.pic.pulse(kbd::IRQ);
                }
                v
            }
            COM1..=COM1_LAST => self.serial.read(port - COM1) as u32,
            pci::CONFIG_ADDRESS..=pci::CONFIG_DATA_LAST => self.pci.read(port, size),
            _ => size.mask(),
        }
    }

    /// Guest port output; `true` if it reloaded the PIT's divisor.
    pub fn io_write(&mut self, port: u16, val: u32) -> bool {
        match port {
            0x20 | 0x21 | 0xa0 | 0xa1 => self.pic.io_write(port, val as u8),
            pit::CH0..=pit::MODE => return self.pit.write(port, val as u8),
            COM1..=COM1_LAST => self.serial.write(port - COM1, val as u8),
            pci::CONFIG_ADDRESS..=pci::CONFIG_DATA_LAST => self.pci.write(port, val),
            PORT_EXIT => self.special.exit_code = Some(val as u8),
            PORT_MARK => self.special.marks.push(val),
            PORT_AP_START => self
                .special
                .ap_starts
                .push(((val >> 16) as usize, val & 0xffff)),
            PORT_IPI => self.special.ipis.push(val as u8),
            _ => {}
        }
        false
    }
}

/// All virtual devices of one VM, with the port/MMIO routing table.
/// This is the one place that enumerates them: routing, interrupt
/// lines, the disk front ends' event fan-out, and the order device
/// state is serialized in.
pub struct VDevices {
    /// The kernel-free chips and the pseudo ports.
    pub legacy: LegacyDevices,
    /// The clock the PIT's period is counted in.
    cpu_hz: u64,
    /// The VMM's timer semaphore: a guest divisor write to the PIT
    /// arms a hypervisor timer that signals it, and the VMM raises
    /// virtual IRQ 0.
    timer_sm_sel: CapSel,
    /// The guest completed a divisor write, so a kernel timer feeds
    /// the timer semaphore (checkpoint/restore must re-arm it — the
    /// divisor alone cannot distinguish armed from default).
    timer_armed: bool,
    /// Virtual disk controller.
    pub vahci: VAhci,
    /// Paravirtual batched disk queue (second disk-server client).
    pub pvdisk: PvDisk,
    /// Paravirtual NIC backend (present when the VMM owns the NIC).
    pub pvnet: Option<PvNet>,
}

impl VDevices {
    /// Creates the device complement.
    pub fn new(
        cpu_hz: u64,
        timer_sm_sel: CapSel,
        vahci: VAhci,
        pvdisk: PvDisk,
        pvnet: Option<PvNet>,
    ) -> VDevices {
        VDevices {
            legacy: LegacyDevices::default(),
            cpu_hz,
            timer_sm_sel,
            timer_armed: false,
            vahci,
            pvdisk,
            pvnet,
        }
    }

    /// Guest port output: the legacy set's, and a reloaded PIT divisor
    /// arms the kernel timer.
    pub fn io_write(&mut self, k: &mut Kernel, ctx: CompCtx, port: u16, val: u32) {
        if self.legacy.io_write(port, val) && self.set_timer(k, ctx) {
            self.timer_armed = true;
        }
    }

    /// Points the hypervisor timer at the timer semaphore with the
    /// PIT's current period.
    fn set_timer(&self, k: &mut Kernel, ctx: CompCtx) -> bool {
        let period = self.legacy.pit.period_cycles(self.cpu_hz);
        let sm = self.timer_sm_sel;
        k.hypercall(ctx, Hypercall::SetTimer { sm, period }).is_ok()
    }

    /// Pulses `line` if `raise` (a front end asked for it), and returns
    /// `raise`: whether vCPU 0 has a new interrupt to be kicked for.
    fn pulse(&mut self, line: u8, raise: bool) -> bool {
        if raise {
            self.legacy.pic.pulse(line);
        }
        raise
    }

    /// The NIC's interrupt: the receive queue publishes what the
    /// hardware delivered; `true` if vCPU 0 is to be kicked.
    pub fn drain_net(&mut self, k: &mut Kernel, ctx: CompCtx) -> bool {
        let raise = self.pvnet.as_mut().is_some_and(|n| n.on_irq(k, ctx));
        self.pulse(Queue::Net.kind().irq, raise)
    }

    /// `true` while either disk front end has a request outstanding.
    pub fn disks_pending(&self) -> bool {
        self.vahci.disk.has_pending() || self.pvdisk.disk.has_pending()
    }

    /// Completion semaphore: one signal serves both disk clients; each
    /// drains its own ring and raises its own interrupt line.
    pub fn drain_disks(&mut self, k: &mut Kernel, ctx: CompCtx) -> bool {
        let ahci = self.vahci.drain_completions(k, ctx);
        let pv = self.pvdisk.drain_completions(k, ctx);
        self.pulse(AHCI_IRQ, ahci) | self.pulse(Queue::Disk.kind().irq, pv)
    }

    /// Maintenance tick: the request-timeout sweep of both clients,
    /// each against the clock as its sweep starts. Re-sends refused
    /// requests and accepted ones the server lost, and fails those
    /// whose attempt budget ran out.
    pub fn sweep_disks(&mut self, k: &mut Kernel, ctx: CompCtx) -> bool {
        let now = k.now();
        let ahci = self.vahci.sweep(k, ctx, |k, r| DiskClient::due(k, r, now));
        let now = k.now();
        let pv = self.pvdisk.sweep(k, ctx, |k, r| DiskClient::due(k, r, now));
        self.pulse(AHCI_IRQ, ahci) | self.pulse(Queue::Disk.kind().irq, pv)
    }

    /// Starts both front ends' channels over with a server that holds
    /// none of their pages and produces into zeroed rings — the PV queue
    /// is a client of its own — and re-sends what was in flight as
    /// `verdict` marks it: charged after a disk-server restart
    /// (`DiskClient::retry`), not after a VMM restore
    /// (`DiskClient::replay`).
    pub fn restart_disks(
        &mut self,
        k: &mut Kernel,
        ctx: CompCtx,
        mut verdict: impl FnMut(&mut Kernel, &mut Req) -> Due,
    ) -> bool {
        self.vahci.disk.restart(k, ctx);
        self.pvdisk.disk.restart(k, ctx);
        let ahci = self.vahci.sweep(k, ctx, &mut verdict);
        let pv = self.pvdisk.disk.attached() && self.pvdisk.sweep(k, ctx, &mut verdict);
        self.pulse(AHCI_IRQ, ahci) | self.pulse(Queue::Disk.kind().irq, pv)
    }

    /// Serializes every device model for a checkpoint: each core
    /// writes its own record.
    pub fn export_state(&self, e: &mut Enc) {
        let l = &self.legacy;
        e.raw(&l.pic.export_state());
        e.raw(&l.pit.export_state());
        e.flag(self.timer_armed);
        e.bytes(l.serial.export_state());
        e.bytes(&l.kbd.export_state());
        e.raw(&l.pci.export_state());
        self.vahci.export_state(e);
        self.pvdisk.export_state(e);
        e.flag(self.pvnet.is_some());
        if let Some(n) = self.pvnet.as_ref() {
            n.export_state(e);
        }
    }

    /// Restores [`VDevices::export_state`] bytes; `None` on malformed
    /// input or a device complement that does not match. A PIT record
    /// that would not write back (a half-written divisor's byte with no
    /// half written) is refused; a timer the previous incarnation had
    /// running is re-armed (the old one died with the old VMM's
    /// protection domain).
    pub fn import_state(&mut self, k: &mut Kernel, ctx: CompCtx, d: &mut Dec) -> Option<()> {
        self.legacy.pic.import_state(&d.array()?);
        let chip = d.array()?;
        self.legacy.pit.import_state(&chip);
        (self.legacy.pit.export_state() == chip).then_some(())?;
        self.timer_armed = d.flag()?;
        if self.timer_armed {
            self.set_timer(k, ctx);
        }
        let l = &mut self.legacy;
        l.serial.import_state(d.bytes()?);
        l.kbd.import_state(d.bytes()?);
        l.pci.import_state(&d.array()?);
        self.vahci.import_state(d)?;
        self.pvdisk.import_state(d)?;
        match (d.flag()?, self.pvnet.as_mut()) {
            (true, Some(net)) => net.import_state(k, ctx, d),
            (false, _) => Some(()),
            (true, None) => None,
        }
    }

    /// Takes the first structurally fatal guest input any queue
    /// latched during this exit's device work (containment: the VMM
    /// converts it into a [`nova_hw::VmKill`]).
    pub fn take_fatal(&mut self) -> Option<nova_hw::VmKill> {
        let net = self.pvnet.as_mut().map(|n| &mut n.q.fatal);
        self.pvdisk.q.fatal.take().or_else(|| net?.take())
    }

    /// `true` if FEAT offers queue `q`: the disk queue once its channel
    /// is attached, the NIC's if the VM has one.
    fn offers(&self, q: Queue) -> bool {
        match q {
            Queue::Disk => self.pvdisk.disk.attached(),
            Queue::Net => self.pvnet.is_some(),
        }
    }

    /// The register `gpa` names, if it falls in a window. The registers
    /// of a queue FEAT does not offer name nothing: they read 0 and
    /// drop writes, as an unassigned offset does.
    fn window(&self, gpa: u64) -> Option<Window> {
        if (AHCI_BASE..AHCI_BASE + 0x1000).contains(&gpa) {
            return Some(Window::Ahci((gpa - AHCI_BASE) as u32));
        }
        let off = gpa.checked_sub(PV_BASE).filter(|&off| off < PV_SIZE)?;
        Some(match pvqueue::decode(off) {
            Some((q, reg)) if self.offers(q) => Window::Pv(q, reg),
            None if off == pv::regs::FEAT => Window::Feat,
            _ => Window::Unassigned,
        })
    }

    /// `true` if `gpa` belongs to a virtual MMIO window.
    pub fn owns_gpa(&self, gpa: u64) -> bool {
        self.window(gpa).is_some()
    }

    /// Guest MMIO read. FEAT offers the queues that are attached.
    pub fn mmio_read(&self, gpa: u64, size: OpSize) -> u32 {
        let net = self.pvnet.as_ref().map(|n| &n.q);
        let feat = |q, bit| if self.offers(q) { bit } else { 0 };
        match self.window(gpa) {
            Some(Window::Ahci(off)) => self.vahci.regs.read(off),
            Some(Window::Feat) => feat(Queue::Disk, pv::FEAT_DISK) | feat(Queue::Net, pv::FEAT_NET),
            Some(Window::Pv(Queue::Disk, Reg::Isr)) => self.pvdisk.q.isr,
            Some(Window::Pv(Queue::Net, Reg::Isr)) => net.map_or(0, |q| q.isr),
            Some(Window::Pv(..) | Window::Unassigned) => 0,
            None => size.mask(),
        }
    }

    /// Guest MMIO write; a queue that asks for it has its line pulsed.
    pub fn mmio_write(&mut self, k: &mut Kernel, ctx: CompCtx, gpa: u64, size: OpSize, val: u32) {
        match self.window(gpa) {
            Some(Window::Ahci(off)) => self.vahci.mmio_write(k, ctx, off, size, val),
            Some(Window::Pv(q, reg)) => {
                let raise = match q {
                    Queue::Disk => self.pvdisk.write(k, ctx, reg, val),
                    Queue::Net => self
                        .pvnet
                        .as_mut()
                        .is_some_and(|n| n.write(k, ctx, reg, val)),
                };
                self.pulse(q.kind().irq, raise);
            }
            Some(Window::Feat | Window::Unassigned) | None => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_core::KernelConfig;
    use nova_hw::machine::{Machine, MachineConfig};
    use nova_hw::pv::regs;
    use nova_user::RootPm;

    fn vpci() -> PciConfig {
        PciConfig::new(&[nova_hw::machine::AHCI_FUNCTION])
    }

    #[test]
    fn vpci_exposes_vahci() {
        let mut p = vpci();
        p.write(0xcf8, 0x8000_0000 | 2 << 11);
        assert_eq!(p.read(0xcfc, OpSize::Dword), 0x2922_8086);
        p.write(0xcf8, 0x8000_0000 | 2 << 11 | 0x10);
        assert_eq!(
            p.read(0xcfc, OpSize::Dword),
            nova_hw::machine::AHCI_BASE as u32
        );
        // Absent device.
        p.write(0xcf8, 0x8000_0000 | 5 << 11);
        assert_eq!(p.read(0xcfc, OpSize::Dword), 0xffff_ffff);
    }

    /// Device 2 is one function on one bus — not one per bus and
    /// function number — and what names no device reads all-ones of the
    /// access size.
    #[test]
    fn vpci_has_one_function_on_bus_zero() {
        let mut p = vpci();
        for (bus, func) in [(0u32, 1u32), (0, 7), (1, 0), (255, 3)] {
            p.write(0xcf8, 0x8000_0000 | bus << 16 | 2 << 11 | func << 8);
            assert_eq!(
                p.read(0xcfc, OpSize::Dword),
                0xffff_ffff,
                "bus {bus} function {func} names no device"
            );
            assert_eq!(p.read(0xcfd, OpSize::Byte), 0xff, "all-ones of a byte");
        }
        p.write(0xcf8, 0x8000_0000 | 2 << 11);
        assert_eq!(p.read(0xcfd, OpSize::Byte), 0x80, "bus 0 function 0 does");
    }

    /// A VM given no PV queue: the queues' registers name nothing. The
    /// disk ring pointed somewhere and its doorbell rung leave the
    /// backend as it was, and every queue register reads 0, as an
    /// unassigned offset does.
    #[test]
    fn an_unoffered_queue_decodes_nothing() {
        let m = Machine::new(MachineConfig::core_i7(64 << 20));
        let mut k = Kernel::new(m, KernelConfig::default());
        let (rc, re) = k.load_component(k.root_pd, 0, Box::new(RootPm::new()));
        k.start_component(rc, re);
        let ctx = k.component_mut::<RootPm>(rc).unwrap().ctx.unwrap();
        let (pvdisk, size) = (PvDisk::new(1024), OpSize::Dword);
        let mut dev = VDevices::new(2_670_000_000, 0, VAhci::new(1024), pvdisk, None);
        let at = |r| PV_BASE + r;
        assert_eq!(dev.mmio_read(at(regs::FEAT), size), 0, "nothing offered");

        dev.mmio_write(&mut k, ctx, at(regs::DISK_RING), size, 0x1_0000);
        dev.mmio_write(&mut k, ctx, at(regs::DISK_DOORBELL), size, 4);
        dev.mmio_write(&mut k, ctx, at(regs::NET_DOORBELL), size, 4);
        let d = &dev.pvdisk;
        assert_eq!((d.doorbells, d.requests, d.completions), (0, 0, 0));
        assert!(d.disk.reqs().is_empty() && dev.take_fatal().is_none());
        for r in [
            regs::DISK_RING,
            regs::DISK_DOORBELL,
            regs::DISK_ISR,
            regs::NET_RING,
            regs::NET_DOORBELL,
            regs::NET_ISR,
        ] {
            assert!(dev.owns_gpa(at(r)), "the PV page is the VMM's");
            assert_eq!(dev.mmio_read(at(r), size), 0, "offset {r:#x}");
        }
    }
}
