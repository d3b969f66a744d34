//! Quickstart: boot an unmodified guest under the full NOVA stack —
//! microhypervisor, root partition manager, disk server, and a
//! dedicated user-level VMM — and watch it run.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use nova::guest::os::{build_os, OsParams};
use nova::guest::rt;
use nova::hypervisor::RunOutcome;
use nova::vmm::{LaunchOptions, System, VmmConfig};
use nova::x86::reg::Reg;

fn main() {
    // 1. Write a tiny guest operating system (real x86 machine code,
    //    assembled here): print a banner, identify the CPU, write to
    //    the VGA text console, and power off.
    let program = build_os(OsParams::minimal(), |a, _| {
        rt::emit_puts(a, "Hello from a fully virtualized guest!\n");

        // CPUID is a mandatory VM exit: the VMM answers it.
        a.mov_ri(Reg::Eax, 0);
        a.cpuid();

        // The VGA frame buffer is direct-mapped into the VM (no exit).
        a.mov_ri(Reg::Ebx, nova::hw::vga::VGA_BASE as u32);
        for (i, ch) in b"NOVA".iter().enumerate() {
            a.mov_m8i(nova::x86::MemRef::base_disp(Reg::Ebx, (i * 2) as i32), *ch);
        }

        rt::emit_exit(a, 0);
    });

    // 2. Boot the system: hypervisor, root PM, disk server, VMM, VM.
    let mut sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(program, 4096)));

    // 3. Run until the guest powers off.
    let outcome = sys.run(Some(10_000_000_000));
    println!("outcome        : {outcome:?}");
    assert_eq!(outcome, RunOutcome::Shutdown(0));

    // 4. Inspect the world.
    println!("guest console  : {:?}", sys.vmm().guest_console());
    println!("vga row 0      : {:?}", sys.k.machine.vga_text());
    let c = &sys.k.counters;
    println!(
        "vm exits       : {} total ({} port I/O, {} MMIO, {} CPUID, {} HLT)",
        c.total_exits(),
        c.exits_of(6),
        c.exits_of(7),
        c.exits_of(2),
        c.exits_of(3),
    );
    println!("ipc calls      : {}", c.ipc_calls);
    println!("injected vIRQs : {}", c.injected_virq);
    println!(
        "cycles         : {} ({} idle)",
        sys.k.machine.clock, sys.k.machine.cpus[0].idle_cycles
    );
    println!("\nEvery exit travelled: guest -> microhypervisor -> portal IPC -> VMM -> reply.");
}
