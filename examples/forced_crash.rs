//! Forced-crash postmortem scenario (the CI byte-identity gate): a
//! microrebootable PV disk workload runs under full tracing, the VMM
//! is killed mid-flight, and root serializes the flight-recorder
//! postmortem — the dead incarnation's last trace events, the header
//! of the checkpoint the guest resumed from, the kill reason and a
//! metrics snapshot. Everything is seeded, so two runs of this
//! example produce byte-for-byte identical dumps; CI runs it twice
//! and diffs the artifacts.
//!
//! ```sh
//! cargo run --release --example forced_crash [postmortem.bin]
//! ```

use nova::guest::pvdiskload::{self, PvDiskLoadParams};
use nova::hypervisor::kernel::VMM_CRASH_CODE;
use nova::hypervisor::RunOutcome;
use nova::trace::{cat, flight, Tracer};
use nova::user::root::RootPm;
use nova::vmm::{LaunchOptions, System, Vmm, VmmConfig};

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "postmortem.bin".into());

    let prog = pvdiskload::build(PvDiskLoadParams {
        requests: 32,
        block_bytes: 4096,
        batch: 8,
    });
    let mut cfg = VmmConfig::full_virt(prog, 4096);
    cfg.pv_disk = true;
    let mut opts = LaunchOptions::microrebootable(cfg);
    opts.microreboot = Some(500_000); // tight checkpoint cadence

    let mut sys = System::build(opts);
    // Full tracing, carrying over the flight recorder registered for
    // the supervised VMM at install time.
    let cpus = sys.k.machine.cpus.len().max(1);
    let mut fresh = Tracer::new(cpus, 1 << 21, cat::ALL);
    fresh.carry_over(&sys.k.machine.bus.trace);
    sys.k.machine.bus.trace = fresh;

    // Run until the guest has real progress and a checkpoint exists,
    // then kill the VMM.
    loop {
        let out = sys.run(Some(100_000));
        assert_ne!(out, RunOutcome::Shutdown(0), "guest finished too early");
        let (vmm, _) = sys.microreboot_vmm().expect("supervised vmm");
        let completions = sys
            .k
            .component_mut::<Vmm>(vmm)
            .map(|v| v.dev().pvdisk.completions)
            .unwrap_or(0);
        let root = sys.root;
        let slot = sys.microreboot.expect("microreboot enabled");
        let has_ckpt = sys
            .k
            .component_mut::<RootPm>(root)
            .and_then(|rp| rp.vmm_supervision[slot].as_ref())
            .is_some_and(|s| s.last_checkpoint.is_some());
        if completions >= 8 && has_ckpt {
            break;
        }
    }
    let (_, vmm_pd) = sys.microreboot_vmm().expect("supervised vmm");
    let crash_at = sys.k.now();
    sys.k.pd_fault(vmm_pd, VMM_CRASH_CODE);

    let out = sys.run(Some(200_000_000_000));
    assert_eq!(out, RunOutcome::Shutdown(0), "guest completed after crash");
    assert_eq!(sys.k.counters.vmm_restarts, 1, "one restore");

    let root = sys.root;
    let dump = sys
        .k
        .component_mut::<RootPm>(root)
        .expect("root pm")
        .last_postmortem
        .clone()
        .expect("crash produced a postmortem");
    std::fs::write(&out_path, &dump).expect("write postmortem");

    // Decode the header for the log.
    let u32_at = |at: usize| u32::from_le_bytes(dump[at..at + 4].try_into().unwrap());
    let u64_at = |at: usize| u64::from_le_bytes(dump[at..at + 8].try_into().unwrap());
    assert_eq!(&dump[..8], flight::DUMP_MAGIC);
    println!("wrote {out_path} ({} bytes)", dump.len());
    println!(
        "  crashed pd     {}",
        u16::from_le_bytes([dump[12], dump[13]])
    );
    println!("  trigger        {} (1 = watchdog)", dump[14]);
    println!("  kill reason    {:#x}", u64_at(16));
    println!("  dump cycle     {} (killed at {crash_at})", u64_at(24));
    println!("  checkpoint     seq {} / {} bytes", u64_at(32), u64_at(40));
    println!("  flight events  {}", u32_at(48));
}
