//! Server consolidation, the paper's headline use case: multiple
//! unmodified guests on one machine, each with a *dedicated* VMM so a
//! compromised monitor impairs only its own VM (Section 4.2).
//!
//! ```sh
//! cargo run --release --example multi_vm
//! ```

use nova::guest::os::{build_os, OsParams};
use nova::guest::rt;
use nova::hypervisor::RunOutcome;
use nova::vmm::{GuestImage, LaunchOptions, System, Vmm, VmmConfig};
use nova::x86::insn::{AluOp, Cond, MemRef};
use nova::x86::reg::Reg;

/// A guest that computes for a while and reports.
fn worker(name: &'static str, rounds: u32, exit: u8) -> GuestImage {
    build_os(OsParams::minimal(), |a, _| {
        rt::emit_puts(a, name);
        rt::emit_puts(a, ": online\n");
        a.mov_ri(Reg::Esi, rounds);
        let outer = a.here_label();
        a.mov_ri(Reg::Ecx, 50_000);
        a.xor_rr(Reg::Eax, Reg::Eax);
        let inner = a.here_label();
        a.alu_ri(AluOp::Add, Reg::Eax, 7);
        a.dec_r(Reg::Ecx);
        a.jcc(Cond::Ne, inner);
        a.mov_mr(MemRef::abs(0x7000), Reg::Eax);
        a.dec_r(Reg::Esi);
        a.jcc(Cond::Ne, outer);
        rt::emit_puts(a, name);
        rt::emit_puts(a, ": done\n");
        rt::emit_exit(a, exit);
    })
}

fn main() {
    // First VM via the standard launch; more VMs via add_vm, each
    // getting its own protection domains, VMM, and exit portals.
    let mut opts = LaunchOptions::standard(VmmConfig::full_virt(worker("web", 40, 1), 2048));
    opts.machine.ram = 192 << 20;
    opts.with_disk = false;
    let mut sys = System::build(opts);
    let db = sys.add_vm(VmmConfig::full_virt(worker("db", 60, 2), 2048));
    let cache = sys.add_vm(VmmConfig::full_virt(worker("cache", 20, 3), 2048));

    // The scheduler interleaves all three VMs; each guest shutdown
    // pauses the world, so resume until everyone finished.
    let mut exits = Vec::new();
    for _ in 0..6 {
        match sys.run(Some(20_000_000_000)) {
            RunOutcome::Shutdown(code) => exits.push(code),
            other => panic!("unexpected outcome {other:?}"),
        }
        if exits.len() == 3 {
            break;
        }
    }
    exits.sort_unstable();
    assert_eq!(exits, vec![1, 2, 3], "all three guests completed");

    println!("domains on this machine:");
    for (i, pd) in sys.k.obj.pds.iter().enumerate() {
        println!(
            "  pd{}: {:<12} vm={} mem={} pages, io={} ports, caps={}",
            i,
            pd.name,
            pd.is_vm(),
            pd.mem.count(),
            pd.io.count(),
            pd.caps.count(),
        );
    }

    let web = sys.vmm;
    for (label, id) in [("web", web), ("db", db), ("cache", cache)] {
        let vmm = sys.k.component_mut::<Vmm>(id).unwrap();
        println!("\n[{label}] console:\n{}", vmm.guest_console().trim_end());
    }
    println!(
        "\nvm exits total: {} across {} VMs — each handled by that VM's own VMM",
        sys.k.counters.total_exits(),
        sys.vmms.len()
    );
}
