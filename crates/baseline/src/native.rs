//! The bare-metal baseline: the guest image runs natively on the
//! simulated machine — its own IDT and page tables on the real MMU,
//! physical devices, physical interrupts. This is the "Native" bar of
//! Figures 5–7.

use nova_hw::cpu::NativeStop;
use nova_hw::machine::{GuestImage, Machine, MachineConfig};
use nova_hw::Cycles;

use crate::RunResult;

/// Runs a guest image natively on a fresh machine. `prepare` can
/// adjust the machine (e.g. start a traffic generator) before
/// execution.
pub fn run_native_image(
    config: MachineConfig,
    image: &GuestImage,
    budget: Option<Cycles>,
    prepare: impl FnOnce(&mut Machine),
) -> RunResult {
    let mut m = Machine::new(config);
    // Bare metal: no hypervisor programs the IOMMU, so DMA is
    // unrestricted (the exact trust problem Section 4.2 describes).
    m.bus.iommu = nova_hw::iommu::Iommu::disabled();
    let ram_pages = config.ram as u64 / 4096;
    m.cpus[0].regs = image.boot(ram_pages, 1, |gpa, bytes| m.mem.write_bytes(gpa, bytes));
    prepare(&mut m);
    let exit = match m.run_native(budget) {
        NativeStop::Shutdown(code) => Some(code),
        _ => None,
    };
    let console = m.serial_text();
    RunResult::new("Native", &m, exit, None, console)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_guest::compile::{self, CompileParams};
    use nova_guest::diskload::{self, DiskLoadParams};

    #[test]
    fn compile_workload_runs_natively() {
        let prog = compile::build(CompileParams::smoke());
        let out = run_native_image(
            MachineConfig::core_i7(64 << 20),
            &prog,
            Some(2_000_000_000),
            |_| {},
        );
        assert!(out.ok);
        assert!(out.instret > 10_000);
    }

    #[test]
    fn disk_workload_runs_natively_with_idle_time() {
        let prog = diskload::build(DiskLoadParams {
            requests: 4,
            block_bytes: 8192,
        });
        let out = run_native_image(
            MachineConfig::core_i7(64 << 20),
            &prog,
            Some(10_000_000_000),
            |_| {},
        );
        assert!(out.ok);
        assert!(out.idle > 0, "waits for the disk");
        assert!(out.utilization() < 0.9);
        assert_eq!(out.marks.len(), 2);
    }
}
