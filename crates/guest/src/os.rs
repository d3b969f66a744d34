//! The miniature guest operating system: boot, IDT, PIC remap,
//! optional paging with demand-fault handling, optional timer and disk
//! driver bring-up — then a workload body, then shutdown.

use nova_hw::machine::GuestImage;
use nova_x86::Asm;

use crate::rt::{self, layout, vars};

/// A second name for [`GuestImage`]: the host-clock benchmark
/// (`benchmark/`, built apart from this workspace) names its guests so.
pub type Program = GuestImage;

/// Guest OS feature selection.
#[derive(Clone, Copy, Debug)]
pub struct OsParams {
    /// Enable paging (4 MB kernel identity map + CR3 infrastructure).
    pub paging: bool,
    /// Install the demand-paging #PF handler.
    pub pf_handler: bool,
    /// Program the timer with this divisor (None = no timer).
    pub timer_divisor: Option<u16>,
    /// Initialize the AHCI driver and unmask its interrupt.
    pub disk: bool,
    /// Unmask the NIC interrupt (the workload installs its handler).
    pub nic: bool,
    /// Initialize the paravirtual batched disk driver (shared ring +
    /// doorbell) and unmask its interrupt.
    pub pv_disk: bool,
    /// Unmask the paravirtual NIC interrupt (the workload installs
    /// its handler and posts the ring).
    pub pv_net: bool,
}

impl OsParams {
    /// A minimal unpaged OS with no devices.
    pub fn minimal() -> OsParams {
        OsParams {
            paging: false,
            pf_handler: false,
            timer_divisor: None,
            disk: false,
            nic: false,
            pv_disk: false,
            pv_net: false,
        }
    }
}

/// Interrupt vector of the timer (PIC line 0 after remap).
pub const VEC_TIMER: u8 = 0x20;
/// Interrupt vector of the AHCI controller (line 11).
pub const VEC_DISK: u8 = 0x2b;
/// Interrupt vector of the NIC (line 10).
pub const VEC_NIC: u8 = 0x2a;
/// Interrupt vector of the paravirtual disk queue (line 9).
pub const VEC_PV_DISK: u8 = 0x29;

/// Handler labels the body may wire further vectors to.
pub struct OsLabels {
    /// The default (spurious) handler.
    pub default_handler: nova_x86::asm::Label,
}

/// Builds the guest OS around a workload `body`. The body runs with
/// the machine initialized per `params`; falling out of the body shuts
/// the guest down with exit code 0.
pub fn build_os(params: OsParams, body: impl FnOnce(&mut Asm, &OsLabels)) -> GuestImage {
    let mut a = Asm::new(layout::CODE);

    // Handlers live behind the entry jump.
    let start = a.label();
    a.jmp(start);

    let default_handler = rt::emit_default_handler(&mut a);
    let timer_handler = rt::emit_timer_handler(&mut a);
    let pf_handler = rt::emit_pf_handler(&mut a);
    let disk_handler = rt::emit_disk_handler(&mut a);
    let pv_disk_handler = rt::emit_pv_disk_handler(&mut a);

    a.bind(start);
    a.cld();
    a.mov_ri(nova_x86::Reg::Esp, layout::STACK);

    rt::emit_idt_setup(&mut a, default_handler);
    if params.timer_divisor.is_some() {
        rt::emit_idt_install(&mut a, VEC_TIMER, timer_handler);
    }
    if params.pf_handler {
        rt::emit_idt_install(&mut a, nova_x86::reg::vector::PAGE_FAULT, pf_handler);
    }
    if params.disk {
        rt::emit_idt_install(&mut a, VEC_DISK, disk_handler);
    }
    if params.pv_disk {
        rt::emit_idt_install(&mut a, VEC_PV_DISK, pv_disk_handler);
    }

    // PIC masks: clear bits for enabled lines; the cascade (line 2)
    // must be open for any slave interrupt.
    let mut master_mask: u8 = 0xff;
    let mut slave_mask: u8 = 0xff;
    if params.timer_divisor.is_some() {
        master_mask &= !(1 << 0);
    }
    if params.disk || params.nic || params.pv_disk || params.pv_net {
        master_mask &= !(1 << 2);
    }
    if params.disk {
        slave_mask &= !(1 << (11 - 8));
    }
    if params.nic || params.pv_net {
        slave_mask &= !(1 << (10 - 8));
    }
    if params.pv_disk {
        slave_mask &= !(1 << (9 - 8));
    }
    rt::emit_pic_init(&mut a, master_mask, slave_mask);

    if params.paging {
        rt::emit_enable_paging(&mut a);
    }
    a.mov_mi(rt::var(vars::NEXT_FRAME), layout::FRAME_POOL);

    if params.disk {
        rt::emit_disk_init(&mut a);
    }
    if params.pv_disk {
        rt::emit_pv_disk_init(&mut a);
    }

    if let Some(div) = params.timer_divisor {
        rt::out_byte(&mut a, 0x43, 0x34);
        rt::out_byte(&mut a, 0x40, div as u8);
        rt::out_byte(&mut a, 0x40, (div >> 8) as u8);
    }
    if params.timer_divisor.is_some()
        || params.disk
        || params.nic
        || params.pv_disk
        || params.pv_net
    {
        a.sti();
    }

    body(&mut a, &OsLabels { default_handler });

    rt::emit_exit(&mut a, 0);

    GuestImage {
        bytes: a.finish(),
        load_gpa: layout::CODE as u64,
        entry: layout::CODE,
        stack: layout::STACK,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_core::RunOutcome;
    use nova_vmm::{LaunchOptions, System, VmmConfig};

    /// Boots a trivial guest under full virtualization: prints to the
    /// virtual console, writes VGA text, CPUIDs, and exits.
    #[test]
    fn hello_guest_boots_under_full_virtualization() {
        let prog = build_os(OsParams::minimal(), |a, _| {
            rt::emit_puts(a, "hello from the guest\n");
            // CPUID leaf 0 — a mandatory intercept.
            a.mov_ri(nova_x86::Reg::Eax, 0);
            a.cpuid();
            // Write to the direct-mapped VGA window: no exit.
            a.mov_ri(nova_x86::Reg::Ebx, nova_hw::vga::VGA_BASE as u32);
            a.mov_m8i(nova_x86::MemRef::base_disp(nova_x86::Reg::Ebx, 0), b'G');
            rt::emit_exit(a, 42);
        });
        let mut sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(
            prog, 4096, // 16 MB guest
        )));
        let out = sys.run(Some(2_000_000_000));
        assert_eq!(out, RunOutcome::Shutdown(42));
        assert_eq!(sys.vmm().guest_console(), "hello from the guest\n");
        assert!(sys.k.counters.exits_of(2) >= 1, "cpuid");
        assert!(sys.k.counters.exits_of(6) > 20, "console bytes exit");
        // The VGA write went straight through the nested table.
        assert!(sys.k.machine.vga_text().starts_with('G'));
        // Exit accounting matches Table 2's classes.
        let io = sys.k.counters.exits_of(6);
        assert!(io > 0, "port I/O exits counted");
    }

    /// The same guest runs with paging enabled and a demand-fault
    /// handler: touching unmapped memory self-heals inside the guest.
    #[test]
    fn paged_guest_demand_faults_internally() {
        let params = OsParams {
            paging: true,
            pf_handler: true,
            ..OsParams::minimal()
        };
        let prog = build_os(params, |a, _| {
            // Touch 8 unmapped task pages: 8 guest page faults.
            a.mov_ri(nova_x86::Reg::Edi, layout::TASK_VA);
            a.mov_ri(nova_x86::Reg::Ecx, 8);
            let top = a.here_label();
            a.mov_mi(nova_x86::MemRef::base_disp(nova_x86::Reg::Edi, 0), 0x77);
            a.add_ri(nova_x86::Reg::Edi, 4096);
            a.dec_r(nova_x86::Reg::Ecx);
            a.jcc(nova_x86::Cond::Ne, top);
            // Read one back to prove the mapping works.
            a.mov_rm(nova_x86::Reg::Eax, nova_x86::MemRef::abs(layout::TASK_VA));
            a.cmp_ri(nova_x86::Reg::Eax, 0x77);
            let ok = a.label();
            a.jcc(nova_x86::Cond::E, ok);
            rt::emit_exit(a, 1);
            a.bind(ok);
            rt::emit_exit(a, 7);
        });
        let mut sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(
            prog, 8192, // 32 MB
        )));
        let out = sys.run(Some(2_000_000_000));
        assert_eq!(out, RunOutcome::Shutdown(7));
        // With nested paging, guest page faults cause no VM exits
        // (the nested-paging win of Section 5.3).
        assert_eq!(sys.k.counters.exits_of(8), 0, "no #PF exits under EPT");
    }
}
