//! The one VM-exit handler (Section 7) and the one interrupt-injection
//! rule, which the VMM and the monolithic baseline both run: each wraps
//! [`handle`] in its own policy (the VMM its protection check, reply
//! descriptors and kill path; the baseline its flat exit charge) and
//! asks [`next_irq`] when a pending vector enters the guest. Dispatch
//! is static and the path allocates nothing.

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::panic)]

use nova_hw::cost::CostModel;
use nova_hw::mmu::MmuRegs;
use nova_hw::pic::DualPic;
use nova_hw::vmx::{ExitReason, Injection};
use nova_hw::{Cycles, GuestFault, GuestSurface, VmKill};
use nova_x86::exec::Fault;
use nova_x86::insn::OpSize;
use nova_x86::reg::{Reg, Reg8, Regs};

use crate::devices::LegacyDevices;
use crate::emu::{emulate_one, virtual_cpuid, EmuEnv, EmuErr, EmuHost, VmmHost};

/// What the exit handler reaches on its hypervisor besides the
/// emulator's host.
pub trait ExitHost: EmuHost {
    /// Charges the exit handling that `cycles` prices on the machine's
    /// cost model to the clock.
    fn charge(&mut self, cycles: impl FnOnce(&CostModel) -> Cycles);
    /// The legacy device set, where a VMCALL's console byte and
    /// shutdown code go.
    fn legacy(&mut self) -> &mut LegacyDevices;
}

impl ExitHost for VmmHost<'_> {
    fn charge(&mut self, cycles: impl FnOnce(&CostModel) -> Cycles) {
        self.k.charge(cycles(&self.k.machine.cost));
    }

    fn legacy(&mut self) -> &mut LegacyDevices {
        &mut self.dev.legacy
    }
}

/// What an exit came to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exit {
    /// Handled: the guest goes on. A shutdown or a mark it asked for
    /// waits in [`LegacyDevices::special`].
    Resume,
    /// The guest halted, EIP past the HLT: [`next_irq`] says whether a
    /// vector wakes it.
    Halt,
    /// Inject this exception (CR2 holds a page fault's address).
    Inject(Injection),
    /// The guest must die.
    Kill(VmKill),
}

/// Handles `reason` for a guest of `guest_pages` pages whose registers
/// are `regs`. The hypervisor's own exits — interrupt windows, recalls,
/// physical interrupts, preemptions, shadow paging — come back as
/// [`Exit::Resume`] untouched.
pub fn handle<H: ExitHost>(
    host: &mut H,
    guest_pages: u64,
    reason: &ExitReason,
    regs: &mut Regs,
) -> Exit {
    let (len, exit) = match *reason {
        ExitReason::Cpuid { len } => {
            host.charge(|c| c.emul_simple);
            let r = virtual_cpuid(host.ident(), regs.get(Reg::Eax));
            for (reg, val) in [Reg::Eax, Reg::Ebx, Reg::Ecx, Reg::Edx].into_iter().zip(r) {
                regs.set(reg, val);
            }
            (len, Exit::Resume)
        }
        ExitReason::Rdtsc { len } => {
            // Charged before the clock is read.
            host.charge(|c| c.emul_simple);
            let t = host.now();
            regs.set(Reg::Eax, t as u32);
            regs.set(Reg::Edx, (t >> 32) as u32);
            (len, Exit::Resume)
        }
        ExitReason::Hlt { len } => {
            host.charge(|c| c.emul_simple);
            (len, Exit::Halt)
        }
        ExitReason::IoPort {
            port,
            size,
            write,
            len,
        } => {
            // Charged before a PIT write arms the timer.
            host.charge(|c| c.emul_device);
            if write {
                let val = match size {
                    OpSize::Byte => regs.get8(Reg8::Al) as u32,
                    OpSize::Dword => regs.get(Reg::Eax),
                };
                host.io_out(port, size, val);
            } else {
                let val = host.io_in(port, size);
                match size {
                    OpSize::Byte => regs.set8(Reg8::Al, val as u8),
                    OpSize::Dword => regs.set(Reg::Eax, val),
                }
            }
            (len, Exit::Resume)
        }
        ExitReason::EptViolation { .. } => return mmio(host, guest_pages, regs),
        ExitReason::Vmcall { len } => {
            // Paravirtual services for enlightened guests.
            host.charge(|c| c.emul_simple);
            match regs.get(Reg::Eax) {
                0 => host.legacy().serial.output.push(regs.get8(Reg8::Bl)),
                1 => host.legacy().special.exit_code = Some(regs.get(Reg::Ebx) as u8),
                _ => {}
            }
            (len, Exit::Resume)
        }
        ExitReason::TripleFault => {
            let kill = VmKill::new(GuestSurface::CpuState, GuestFault::UnrecoverableCpuState);
            return Exit::Kill(kill);
        }
        _ => return Exit::Resume,
    };
    regs.eip = regs.eip.wrapping_add(len as u32);
    exit
}

/// The MMIO arm: the instruction at EIP through the emulator, its
/// registers kept only if it completes.
fn mmio<H: ExitHost>(host: &mut H, guest_pages: u64, regs: &mut Regs) -> Exit {
    host.charge(|c| c.emul_decode);
    let mut after = regs.clone();
    let mut env = EmuEnv::new(host, guest_pages, MmuRegs::from_regs(regs));
    let res = emulate_one(&mut env, &mut after);
    let device_ops = env.device_ops as Cycles;
    host.charge(|c| device_ops * c.emul_device);
    match res {
        Ok(_) => {
            *regs = after;
            Exit::Resume
        }
        Err(EmuErr::Fault(f)) => {
            if let Fault::Page { addr, .. } = f {
                regs.cr2 = addr;
            }
            Exit::Inject(Injection {
                vector: f.vector(),
                error_code: f.error_code(),
            })
        }
        // The paper's VMM would have a wider emulator; ours treats
        // this as a fatal guest error.
        Err(EmuErr::Unsupported) => Exit::Kill(VmKill::new(
            GuestSurface::Emulator,
            GuestFault::UndecodableInstruction,
        )),
    }
}

/// What [`next_irq`] decides.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Irq {
    /// Deliver this vector now (it is acknowledged).
    Inject(Injection),
    /// A vector waits behind a closed window: ask for the exit that
    /// opens it.
    Window,
    /// No vector waits.
    Idle,
}

/// The one injection rule, the hardware's: a pending vector — a
/// directly injected `ipi` first, then the virtual `pic`'s — is
/// acknowledged and delivered only through an open `window` (IF set,
/// no STI shadow). So a vCPU that halted with its window closed stays
/// halted, as a CPU halted with IF clear does.
pub fn next_irq(ipi: &mut Option<u8>, pic: Option<&mut DualPic>, window: bool) -> Irq {
    let pending = ipi.is_some() || pic.as_ref().is_some_and(|p| p.intr());
    match (pending, window) {
        (false, _) => Irq::Idle,
        (true, false) => Irq::Window,
        (true, true) => match ipi.take().or_else(|| pic?.ack()) {
            Some(vector) => Irq::Inject(Injection {
                vector,
                error_code: None,
            }),
            None => Irq::Idle,
        },
    }
}
