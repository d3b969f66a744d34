//! Virtual device models (Section 7.2): software state machines that
//! mimic the behaviour of the corresponding hardware devices. The
//! virtual interrupt controller reuses the same dual-8259 state
//! machine as the platform model; the virtual timer multiplexes the
//! hypervisor's timer service; the UART captures guest console output;
//! the PCI configuration space exposes the virtual AHCI controller.

use nova_core::cap::CapSel;
use nova_core::{CompCtx, Hypercall, Kernel};
use nova_hw::pic::DualPic;
use nova_hw::pit::PIT_HZ;
use nova_hw::Cycles;
use nova_x86::insn::OpSize;

use crate::checkpoint::{Dec, Enc};
use crate::diskclient::DiskChannel;
use crate::pvdisk::{PvDisk, PV_DISK_IRQ};
use crate::pvnet::PvNet;
use crate::vahci::VAhci;

/// The virtual PIT (channel 0 rate generator): guest divisor writes
/// arm a hypervisor timer that signals the VMM, which then raises
/// virtual IRQ 0.
pub struct VPit {
    cpu_hz: u64,
    timer_sm_sel: CapSel,
    state: Option<u8>, // low byte latched
    /// The guest completed a divisor write, so a kernel timer feeds
    /// the VMM's timer semaphore (checkpoint/restore must re-arm it —
    /// the divisor alone cannot distinguish armed from default).
    armed: bool,
    /// Current divisor.
    pub divisor: u32,
    /// Ticks delivered to the guest.
    pub ticks: u64,
}

impl VPit {
    /// Creates the model; `timer_sm_sel` names the VMM's timer
    /// semaphore in its capability space.
    pub fn new(cpu_hz: u64, timer_sm_sel: CapSel) -> VPit {
        VPit {
            cpu_hz,
            timer_sm_sel,
            state: None,
            armed: false,
            divisor: 0x1_0000,
            ticks: 0,
        }
    }

    /// Cycles per tick at the current divisor.
    pub fn period_cycles(&self) -> Cycles {
        (self.divisor as u64 * self.cpu_hz / PIT_HZ).max(1)
    }

    /// Guest port write.
    pub fn io_write(&mut self, k: &mut Kernel, ctx: CompCtx, port: u16, val: u8) {
        match port {
            0x43 => self.state = None,
            0x40 => match self.state.take() {
                None => self.state = Some(val),
                Some(lo) => {
                    let d = (val as u32) << 8 | lo as u32;
                    self.divisor = if d == 0 { 0x1_0000 } else { d };
                    let period = self.period_cycles();
                    if k.hypercall(
                        ctx,
                        Hypercall::SetTimer {
                            sm: self.timer_sm_sel,
                            period,
                        },
                    )
                    .is_ok()
                    {
                        self.armed = true;
                    }
                }
            },
            _ => {}
        }
    }

    /// Guest port read (counter latch unsupported; reads zero).
    pub fn io_read(&mut self, _port: u16) -> u8 {
        0
    }

    /// Serializes the timer state for a checkpoint.
    pub fn export_state(&self, e: &mut Enc) {
        e.u32(self.divisor);
        e.u64(self.ticks);
        e.flag(self.armed);
        e.flag(self.state.is_some());
        e.u8(self.state.unwrap_or(0));
    }

    /// Restores checkpointed state, re-arming the kernel timer if the
    /// previous incarnation had one running (the old timer died with
    /// the old VMM's protection domain).
    pub fn import_state(&mut self, k: &mut Kernel, ctx: CompCtx, d: &mut Dec) -> Option<()> {
        self.divisor = d.u32()?;
        self.ticks = d.u64()?;
        self.armed = d.flag()?;
        let latched = d.flag()?;
        let lo = d.u8()?;
        self.state = latched.then_some(lo);
        if self.armed {
            let period = self.period_cycles();
            let _ = k.hypercall(
                ctx,
                Hypercall::SetTimer {
                    sm: self.timer_sm_sel,
                    period,
                },
            );
        }
        Some(())
    }
}

/// The virtual keyboard controller (i8042): scancodes injected by
/// the VMM's owner surface at the guest's ports 0x60/0x64 with
/// virtual IRQ 1.
#[derive(Default)]
pub struct VKbd {
    queue: std::collections::VecDeque<u8>,
}

impl VKbd {
    /// Queues a scancode.
    pub fn inject(&mut self, code: u8) {
        self.queue.push_back(code);
    }

    /// `true` while scancodes wait.
    pub fn pending(&self) -> bool {
        !self.queue.is_empty()
    }

    /// Guest port read.
    pub fn io_read(&mut self, port: u16) -> u8 {
        match port {
            nova_hw::kbd::DATA => self.queue.pop_front().unwrap_or(0),
            nova_hw::kbd::STATUS => {
                if self.pending() {
                    nova_hw::kbd::STS_OBF
                } else {
                    0
                }
            }
            _ => 0xff,
        }
    }

    /// Serializes the undelivered scancode queue.
    pub fn export_state(&self, e: &mut Enc) {
        let bytes: Vec<u8> = self.queue.iter().copied().collect();
        e.bytes(&bytes);
    }

    /// Restores the scancode queue.
    pub fn import_state(&mut self, d: &mut Dec) -> Option<()> {
        self.queue = d.bytes()?.iter().copied().collect();
        Some(())
    }
}

/// The virtual UART: captures the guest's console output.
#[derive(Default)]
pub struct VSerial {
    /// Captured bytes.
    pub output: Vec<u8>,
}

impl VSerial {
    /// Guest port write.
    pub fn io_write(&mut self, port: u16, base: u16, val: u8) {
        if port == base {
            self.output.push(val);
        }
    }

    /// Guest port read.
    pub fn io_read(&self, port: u16, base: u16) -> u8 {
        if port == base + 5 {
            0x60 // LSR: transmitter ready
        } else {
            0
        }
    }

    /// The captured console as text.
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.output).into_owned()
    }
}

/// The virtual PCI configuration space: exposes the virtual AHCI
/// controller at device 2 (mirroring the physical platform, so the
/// same guest driver works in both worlds).
#[derive(Default)]
pub struct VPci {
    address: u32,
}

impl VPci {
    fn config_read(&self) -> u32 {
        if self.address & 0x8000_0000 == 0 {
            return 0xffff_ffff;
        }
        let dev = (self.address >> 11) & 0x1f;
        let reg = self.address & 0xfc;
        if dev != 2 {
            return 0xffff_ffff;
        }
        match reg {
            0x00 => 0x2922_8086, // same AHCI id as the host controller
            0x08 => 0x0106 << 16,
            0x10 => nova_hw::machine::AHCI_BASE as u32,
            0x3c => 0x0100 | nova_hw::machine::AHCI_IRQ as u32,
            _ => 0,
        }
    }

    /// Guest port read.
    pub fn io_read(&self, port: u16, size: OpSize) -> u32 {
        match port {
            0xcf8 => self.address,
            0xcfc..=0xcff => {
                let v = self.config_read();
                match size {
                    OpSize::Dword => v,
                    OpSize::Byte => (v >> (8 * (port - 0xcfc) as u32)) & 0xff,
                }
            }
            _ => 0xffff_ffff,
        }
    }

    /// Guest port write.
    pub fn io_write(&mut self, port: u16, val: u32) {
        if port == 0xcf8 {
            self.address = val;
        }
    }

    /// Serializes the latched config address.
    pub fn export_state(&self, e: &mut Enc) {
        e.u32(self.address);
    }

    /// Restores the latched config address.
    pub fn import_state(&mut self, d: &mut Dec) -> Option<()> {
        self.address = d.u32()?;
        Some(())
    }
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

/// Guest debug-exit port.
pub const PORT_EXIT: u16 = 0xf4;
/// Guest benchmark-mark port.
pub const PORT_MARK: u16 = 0xf5;
/// AP bring-up port: `out eax` with `(vcpu << 16) | entry_page`.
pub const PORT_AP_START: u16 = 0x99;
/// Broadcast-IPI port: `out al` with the vector.
pub const PORT_IPI: u16 = 0x9a;

/// All virtual devices of one VM, with the port/MMIO routing table.
/// This is the one place that enumerates them: routing, interrupt
/// lines, the disk front ends' event fan-out, and the order device
/// state is serialized in.
pub struct VDevices {
    /// Virtual dual PIC (same state machine as the platform PIC).
    pub vpic: DualPic,
    /// Virtual timer.
    pub vpit: VPit,
    /// Virtual UART.
    pub vserial: VSerial,
    /// Virtual keyboard controller.
    pub vkbd: VKbd,
    /// Virtual disk controller.
    pub vahci: VAhci,
    /// Paravirtual batched disk queue (second disk-server client).
    pub pvdisk: PvDisk,
    /// Paravirtual NIC backend (present when the VMM owns the NIC).
    pub pvnet: Option<PvNet>,
    /// Virtual PCI configuration space.
    pub vpci: VPci,
    /// Pending out-of-band effects.
    pub special: SpecialPorts,
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
        let mut vpic = DualPic::new();
        // Guests usually program the PIC themselves, but start usable.
        let _ = &mut vpic;
        VDevices {
            vpic,
            vpit: VPit::new(cpu_hz, timer_sm_sel),
            vserial: VSerial::default(),
            vkbd: VKbd::default(),
            vahci,
            pvdisk,
            pvnet,
            vpci: VPci::default(),
            special: SpecialPorts::default(),
        }
    }

    /// Guest port input.
    pub fn io_read(&mut self, k: &mut Kernel, ctx: CompCtx, port: u16, size: OpSize) -> u32 {
        let _ = (k, ctx);
        match port {
            0x20 | 0x21 | 0xa0 | 0xa1 => self.vpic.io_read(port) as u32,
            0x40..=0x43 => self.vpit.io_read(port) as u32,
            0x60 | 0x64 => {
                let v = self.vkbd.io_read(port) as u32;
                // More scancodes waiting: keep the interrupt coming.
                if port == nova_hw::kbd::DATA && self.vkbd.pending() {
                    self.vpic.pulse(1);
                }
                v
            }
            0x3f8..=0x3ff => self.vserial.io_read(port, 0x3f8) as u32,
            0xcf8..=0xcff => self.vpci.io_read(port, size),
            _ => size.mask(),
        }
    }

    /// Guest port output.
    pub fn io_write(&mut self, k: &mut Kernel, ctx: CompCtx, port: u16, size: OpSize, val: u32) {
        match port {
            0x20 | 0x21 | 0xa0 | 0xa1 => self.vpic.io_write(port, val as u8),
            0x40..=0x43 => self.vpit.io_write(k, ctx, port, val as u8),
            0x3f8..=0x3ff => self.vserial.io_write(port, 0x3f8, val as u8),
            0xcf8..=0xcff => self.vpci.io_write(port, val),
            PORT_EXIT => self.special.exit_code = Some(val as u8),
            PORT_MARK => self.special.marks.push(val),
            PORT_AP_START => self
                .special
                .ap_starts
                .push(((val >> 16) as usize, val & 0xffff)),
            PORT_IPI => self.special.ipis.push(val as u8),
            _ => {}
        }
        let _ = size;
    }

    /// Pulses the interrupt line of each disk front end that asked for
    /// it; `true` if vCPU 0 has a new interrupt to be kicked for.
    fn raise_disks(&mut self, ahci: bool, pv: bool) -> bool {
        if ahci {
            self.vpic.pulse(nova_hw::machine::AHCI_IRQ);
        }
        if pv {
            self.vpic.pulse(PV_DISK_IRQ);
        }
        ahci || pv
    }

    /// `true` while either disk front end has a request outstanding.
    pub fn disks_pending(&self) -> bool {
        self.vahci.has_pending() || self.pvdisk.has_pending()
    }

    /// Completion semaphore: one signal serves both disk clients; each
    /// drains its own ring and raises its own interrupt line.
    pub fn drain_disks(&mut self, k: &mut Kernel, ctx: CompCtx) -> bool {
        let ahci = self.vahci.drain_completions(k, ctx);
        let pv = self.pvdisk.drain_completions(k, ctx);
        self.raise_disks(ahci, pv)
    }

    /// Maintenance tick: the request-timeout sweep of both clients.
    pub fn sweep_disks(&mut self, k: &mut Kernel, ctx: CompCtx) -> bool {
        let ahci = self.vahci.check_timeouts(k, ctx);
        let pv = self.pvdisk.check_timeouts(k, ctx);
        self.raise_disks(ahci, pv)
    }

    /// Disk-server restart: each client registers anew through
    /// `register(k, is_pv)` — the PV queue is a separate client with
    /// its own ring — and re-sends what was in flight when the old
    /// server died. Nothing happens unless the vAHCI's registration
    /// succeeds.
    pub fn reconnect_disks(
        &mut self,
        k: &mut Kernel,
        ctx: CompCtx,
        mut register: impl FnMut(&mut Kernel, bool) -> Option<DiskChannel>,
    ) -> bool {
        let Some(ch) = register(k, false) else {
            return false;
        };
        let ahci = self.vahci.reconnect(k, ctx, ch);
        let pv = self.pvdisk.enabled()
            && register(k, true).is_some_and(|ch| self.pvdisk.reconnect(k, ctx, ch));
        self.raise_disks(ahci, pv)
    }

    /// VMM restore: replays every restored in-flight disk request into
    /// the (fresh or surviving) server.
    pub fn replay_disks(&mut self, k: &mut Kernel, ctx: CompCtx) -> bool {
        let ahci = self.vahci.restore_resubmit(k, ctx);
        let pv = self.pvdisk.enabled() && self.pvdisk.restore_resubmit(k, ctx);
        self.raise_disks(ahci, pv)
    }

    /// Serializes every device model for a checkpoint.
    pub fn export_state(&self, e: &mut Enc) {
        e.raw(&self.vpic.export_state());
        self.vpit.export_state(e);
        e.bytes(&self.vserial.output);
        self.vkbd.export_state(e);
        self.vpci.export_state(e);
        self.vahci.export_state(e);
        self.pvdisk.export_state(e);
        e.flag(self.pvnet.is_some());
        if let Some(n) = self.pvnet.as_ref() {
            n.export_state(e);
        }
    }

    /// Restores [`VDevices::export_state`] bytes; `None` on malformed
    /// input or a device complement that does not match.
    pub fn import_state(&mut self, k: &mut Kernel, ctx: CompCtx, d: &mut Dec) -> Option<()> {
        let pic: [u8; DualPic::STATE_LEN] = d.take(DualPic::STATE_LEN)?.try_into().ok()?;
        self.vpic.import_state(&pic);
        self.vpit.import_state(k, ctx, d)?;
        self.vserial.output = d.bytes()?.to_vec();
        self.vkbd.import_state(d)?;
        self.vpci.import_state(d)?;
        self.vahci.import_state(d)?;
        self.pvdisk.import_state(d)?;
        match (d.flag()?, self.pvnet.as_mut()) {
            (true, Some(net)) => net.import_state(k, ctx, d),
            (false, _) => Some(()),
            (true, None) => None,
        }
    }

    /// Takes the first structurally fatal guest input any backend
    /// recorded during this exit's device work (containment: the VMM
    /// converts it into a [`nova_hw::VmKill`]).
    pub fn take_fatal(&mut self) -> Option<nova_hw::VmKill> {
        self.pvdisk
            .take_fatal()
            .or_else(|| self.pvnet.as_mut().and_then(|n| n.take_fatal()))
    }

    /// `true` if `gpa` belongs to a virtual MMIO window.
    pub fn owns_gpa(&self, gpa: u64) -> bool {
        (nova_hw::machine::AHCI_BASE..nova_hw::machine::AHCI_BASE + 0x1000).contains(&gpa)
            || (nova_hw::pv::PV_BASE..nova_hw::pv::PV_BASE + nova_hw::pv::PV_SIZE).contains(&gpa)
    }

    /// Guest MMIO read.
    pub fn mmio_read(&mut self, k: &mut Kernel, ctx: CompCtx, gpa: u64, size: OpSize) -> u32 {
        if (nova_hw::machine::AHCI_BASE..nova_hw::machine::AHCI_BASE + 0x1000).contains(&gpa) {
            let off = (gpa - nova_hw::machine::AHCI_BASE) as u32;
            return self.vahci.mmio_read(k, ctx, off, size);
        }
        if (nova_hw::pv::PV_BASE..nova_hw::pv::PV_BASE + nova_hw::pv::PV_SIZE).contains(&gpa) {
            let _ = (k, ctx);
            let off = gpa - nova_hw::pv::PV_BASE;
            return match off {
                nova_hw::pv::regs::FEAT => {
                    let mut f = 0;
                    if self.pvdisk.enabled() {
                        f |= nova_hw::pv::FEAT_DISK;
                    }
                    if self.pvnet.is_some() {
                        f |= nova_hw::pv::FEAT_NET;
                    }
                    f
                }
                nova_hw::pv::regs::NET_RING
                | nova_hw::pv::regs::NET_DOORBELL
                | nova_hw::pv::regs::NET_ISR => {
                    self.pvnet.as_ref().map(|n| n.mmio_read(off)).unwrap_or(0)
                }
                _ => self.pvdisk.mmio_read(off),
            };
        }
        size.mask()
    }

    /// Guest MMIO write.
    pub fn mmio_write(&mut self, k: &mut Kernel, ctx: CompCtx, gpa: u64, size: OpSize, val: u32) {
        if (nova_hw::machine::AHCI_BASE..nova_hw::machine::AHCI_BASE + 0x1000).contains(&gpa) {
            let off = (gpa - nova_hw::machine::AHCI_BASE) as u32;
            self.vahci.mmio_write(k, ctx, off, size, val);
        }
        if (nova_hw::pv::PV_BASE..nova_hw::pv::PV_BASE + nova_hw::pv::PV_SIZE).contains(&gpa) {
            let off = gpa - nova_hw::pv::PV_BASE;
            match off {
                nova_hw::pv::regs::NET_RING
                | nova_hw::pv::regs::NET_DOORBELL
                | nova_hw::pv::regs::NET_ISR => {
                    if let Some(n) = self.pvnet.as_mut() {
                        if n.mmio_write(k, ctx, off, val) {
                            self.vpic.pulse(nova_hw::machine::NIC_IRQ);
                        }
                    }
                }
                _ => {
                    if self.pvdisk.mmio_write(k, ctx, off, val) {
                        self.vpic.pulse(PV_DISK_IRQ);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpci_exposes_vahci() {
        let mut p = VPci::default();
        p.io_write(0xcf8, 0x8000_0000 | 2 << 11);
        assert_eq!(p.io_read(0xcfc, OpSize::Dword), 0x2922_8086);
        p.io_write(0xcf8, 0x8000_0000 | 2 << 11 | 0x10);
        assert_eq!(
            p.io_read(0xcfc, OpSize::Dword),
            nova_hw::machine::AHCI_BASE as u32
        );
        // Absent device.
        p.io_write(0xcf8, 0x8000_0000 | 5 << 11);
        assert_eq!(p.io_read(0xcfc, OpSize::Dword), 0xffff_ffff);
    }

    #[test]
    fn vserial_captures() {
        let mut s = VSerial::default();
        s.io_write(0x3f8, 0x3f8, b'o');
        s.io_write(0x3f8, 0x3f8, b'k');
        s.io_write(0x3f9, 0x3f8, 0xff); // IER write, not data
        assert_eq!(s.text(), "ok");
        assert_eq!(s.io_read(0x3fd, 0x3f8) & 0x20, 0x20);
    }

    #[test]
    fn vpit_divisor_state_machine() {
        // No kernel interaction needed for the latch protocol itself.
        let mut p = VPit::new(1_193_182, 0);
        assert_eq!(p.divisor, 0x1_0000);
        p.state = Some(0xe8);
        // Completing the write requires a kernel for SetTimer; the
        // divisor math is testable directly.
        p.divisor = 0x3e8;
        assert_eq!(p.period_cycles(), 1000);
    }
}
