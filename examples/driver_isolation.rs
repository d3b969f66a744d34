//! Driver isolation (Section 4.2, "Device-Driver Attacks"): the disk
//! server is a deprivileged user component whose DMA the IOMMU
//! restricts to explicitly delegated memory. This example probes the
//! boundary from three directions: hostile requests, raw DMA reach,
//! and revocation.
//!
//! ```sh
//! cargo run --release --example driver_isolation
//! ```

use nova::guest::diskload::{self, DiskLoadParams};
use nova::hypervisor::{Hypercall, RunOutcome};
use nova::vmm::{LaunchOptions, System, VmmConfig};

fn main() {
    // Boot a system that actually uses the disk, so the delegations
    // are the real, live ones.
    let program = diskload::build(DiskLoadParams {
        requests: 4,
        block_bytes: 8192,
    });
    let mut sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(program, 4096)));
    let outcome = sys.run(Some(50_000_000_000));
    assert_eq!(outcome, RunOutcome::Shutdown(0));
    println!("guest completed 4 disk reads through the user-level disk server");
    println!(
        "IOMMU faults during legitimate operation: {}",
        sys.k.machine.bus.iommu.faults.len()
    );

    // --- Probe 1: what can the device actually reach? ---
    let ahci = sys.k.machine.dev.ahci;
    // The server sees guest page g at page g of the VM's window.
    let window_page =
        nova::user::proto::disk::window_base(0) + nova::guest::rt::layout::DISK_BUF as u64 / 4096;
    let probes = [
        ("disk server command memory", 0x10_0000u64),
        ("guest DMA window (delegated)", window_page * 4096),
        ("root partition memory", 0x50_0000),
        ("hypervisor page tables", (96 << 20) - 4096),
    ];
    println!("\nDMA reachability (bus address -> host translation):");
    for (what, bus) in probes {
        let t = sys.k.machine.bus.iommu.translate(ahci, bus, true);
        println!(
            "  {:35} {:#012x} -> {}",
            what,
            bus,
            t.map(|h| format!("{h:#x}"))
                .unwrap_or_else(|| "BLOCKED".into())
        );
    }

    // --- Probe 2: a compromised driver tries raw DMA ---
    let faults_before = sys.k.machine.bus.iommu.faults.len();
    let reachable = sys.k.machine.bus.iommu.translate(ahci, 0x50_0000, true);
    assert_eq!(reachable, None);
    println!(
        "\nhostile DMA to root memory: blocked and recorded ({} -> {} faults)",
        faults_before,
        sys.k.machine.bus.iommu.faults.len()
    );

    // --- Probe 3: revocation cuts standing delegations ---
    // The VMM revokes the guest pages it delegated to the server
    // (e.g. when tearing the VM down). Afterwards the device cannot
    // touch them either: revocation propagated to the IOMMU.
    let vmm_pd =
        nova::hypervisor::PdId(sys.k.obj.pds.iter().position(|p| p.name == "vmm").unwrap() as u32);
    let vmm_ctx = nova::hypervisor::CompCtx {
        pd: vmm_pd,
        ec: nova::hypervisor::EcId(0),
        comp: sys.vmm,
    };
    let before = sys
        .k
        .machine
        .bus
        .iommu
        .translate(ahci, window_page * 4096, true);
    sys.k
        .hypercall(
            vmm_ctx,
            Hypercall::RevokeMem {
                base: 0x1000, // the VMM's whole guest window
                count: 4096,
                include_self: false,
            },
        )
        .unwrap();
    let after = sys
        .k
        .machine
        .bus
        .iommu
        .translate(ahci, window_page * 4096, true);
    println!(
        "\nrevocation: window page translated {} before, {} after",
        before
            .map(|h| format!("{h:#x}"))
            .unwrap_or_else(|| "-".into()),
        after
            .map(|h| format!("{h:#x}"))
            .unwrap_or_else(|| "BLOCKED".into()),
    );
    assert_eq!(after, None, "recursive revocation reached the IOMMU");
    println!(
        "\nA compromised or malicious driver can corrupt only what was delegated to \
         it — never the hypervisor, root, or other domains (Section 4.2)."
    );
}
