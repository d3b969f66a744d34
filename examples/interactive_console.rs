//! Interactive console: the keyboard path through the whole stack.
//! The harness "types" at the VM's virtual i8042; each keystroke is a
//! virtual IRQ 1 whose handler reads the data port (a port-I/O exit to
//! the VMM) and echoes to the serial console — the keyboard driver the
//! paper lists among NOVA's legacy device support (Section 4).
//!
//! ```sh
//! cargo run --release --example interactive_console
//! ```

use nova::guest::os::{build_os, OsParams};
use nova::guest::rt::{self, vars};
use nova::hypervisor::RunOutcome;
use nova::vmm::{GuestImage, LaunchOptions, System, VmmConfig};
use nova::x86::insn::Cond;
use nova::x86::reg::{Reg, Reg8};

const INPUT: &[u8] = b"echo hello, nova";

fn guest() -> GuestImage {
    build_os(OsParams::minimal(), |a, _| {
        // Keyboard handler (vector 0x21): read the scancode, echo it
        // to the UART, count it, mask/ack/unmask at the PIC.
        let after = a.label();
        a.jmp(after);
        let handler = a.here_label();
        a.push_r(Reg::Eax);
        a.push_r(Reg::Edx);
        a.in_al_imm(nova::hw::kbd::DATA as u8);
        a.mov_ri(Reg::Edx, 0x3f8);
        a.out_dx_al();
        a.inc_m(rt::var(vars::SCRATCH));
        rt::emit_pic_mask_ack_unmask(a, 1);
        a.pop_r(Reg::Edx);
        a.pop_r(Reg::Eax);
        a.iret();

        a.bind(after);
        rt::emit_idt_install(a, 0x21, handler);
        // Unmask IRQ 1 (keyboard) at the master PIC.
        a.in_al_imm(0x21);
        a.alu_al_imm(nova::x86::AluOp::And, !(1 << 1));
        a.out_imm_al(0x21);
        rt::emit_puts(a, "type> ");

        // Wait for the full line, then power off.
        let wait = a.here_label();
        a.sti();
        a.hlt();
        a.mov_rm(Reg::Eax, rt::var(vars::SCRATCH));
        a.cmp_ri(Reg::Eax, INPUT.len() as u32);
        a.jcc(Cond::B, wait);
        a.mov_r8i(Reg8::Al, b'\n');
        a.mov_ri(Reg::Edx, 0x3f8);
        a.out_dx_al();
        rt::emit_exit(a, 0);
    })
}

fn main() {
    let mut opts = LaunchOptions::standard(VmmConfig::full_virt(guest(), 2048));
    opts.with_disk = false;
    let mut sys = System::build(opts);

    // Let the guest boot and reach its HLT loop, then start typing.
    assert_eq!(sys.run(Some(5_000_000)), RunOutcome::Budget);
    // This model passes ASCII through as "scancodes" — a real driver
    // would translate set-1 codes; the interrupt path is identical.
    sys.type_to_vm(INPUT);
    let out = sys.run(Some(2_000_000_000));
    assert_eq!(out, RunOutcome::Shutdown(0));

    println!("guest console: {:?}", sys.vmm().guest_console());
    assert!(sys.vmm().guest_console().contains("echo hello, nova"));
    let c = &sys.k.counters;
    println!(
        "keystrokes: {} | port-I/O exits: {} | injections: {}",
        INPUT.len(),
        c.exits_of(6),
        c.injected_virq
    );
    println!(
        "\nEach key: vIRQ 1 inject -> guest IN 0x60 (exit) -> UART echo (exit) -> \
         PIC mask/ack/unmask (exits) -> HLT (exit) — the interrupt-virtualization \
         path of Section 8.2, one keystroke at a time."
    );
}
