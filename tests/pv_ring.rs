//! Integration tests for the batched paravirtual I/O rings: exit
//! structure versus the trap-and-emulate vAHCI path, cross-path data
//! identity, and the fault-injection / driver-recovery suite run over
//! the new path. The two guest workloads issue the same sequential
//! reads, so any divergence is a ring-protocol bug, not a workload
//! difference.

use nova_core::{PdId, RunOutcome};
use nova_guest::diskload::{self, DiskLoadParams};
use nova_guest::pvdiskload::{self, PvDiskLoadParams};
use nova_guest::rt::layout;
use nova_hw::fault::{FaultKind, FaultPlan};
use nova_vmm::{LaunchOptions, System, VmmConfig};

const BLOCK: u32 = 4096;
const BATCH: u32 = 8;
const BUDGET: u64 = 200_000_000_000;

/// Runs the trap-and-emulate diskload guest to completion.
fn run_trap(requests: u32) -> System {
    let prog = diskload::build(DiskLoadParams {
        requests,
        block_bytes: BLOCK,
    });
    let mut sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(prog, 2048)));
    assert_eq!(sys.run(Some(BUDGET)), RunOutcome::Shutdown(0));
    sys
}

/// Runs the batched PV-ring guest to completion.
fn run_pv(requests: u32) -> System {
    let prog = pvdiskload::build(PvDiskLoadParams {
        requests,
        block_bytes: BLOCK,
        batch: BATCH,
    });
    let mut cfg = VmmConfig::full_virt(prog, 4096);
    cfg.pv_disk = true;
    let mut sys = System::build(LaunchOptions::standard(cfg));
    assert_eq!(sys.run(Some(BUDGET)), RunOutcome::Shutdown(0));
    sys
}

/// The headline acceptance criterion: at batch size 8 the PV path
/// costs at most 1/8 the exits per request of the trap-and-emulate
/// vAHCI. Measured as a marginal delta (80 vs. 16 requests) so boot
/// and teardown exits cancel out of both columns.
#[test]
fn batched_exits_per_request_at_most_an_eighth_of_trap() {
    let trap_lo = run_trap(16).k.counters.total_exits();
    let trap_hi = run_trap(80).k.counters.total_exits();
    let pv_lo = run_pv(16).k.counters.total_exits();
    let pv_hi = run_pv(80).k.counters.total_exits();

    let trap_marginal = trap_hi - trap_lo; // 64 extra requests
    let pv_marginal = pv_hi - pv_lo;
    assert!(trap_marginal > 0, "trap path must scale with requests");
    assert!(
        8 * pv_marginal <= trap_marginal,
        "PV exits/request not <= 1/8 of trap: {pv_marginal} vs {trap_marginal} per 64 requests"
    );
}

/// Byte-identical disk contents across the two submission paths: the
/// last block the trap guest reads and the last descriptor the PV
/// guest reads cover the same LBAs and must land bit-exact.
#[test]
fn pv_and_trap_paths_read_identical_bytes() {
    let trap = run_trap(16);
    let mut pv = run_pv(16);

    let trap_host = 0x1000 * 4096 + layout::DISK_BUF as u64;
    // Request 15 lands in batch slot 15 % 8 = 7.
    let pv_host = 0x1000 * 4096 + (layout::PV_DISK_BUF + 7 * 4096) as u64;
    let t = trap.k.machine.mem.read_bytes(trap_host, BLOCK as usize);
    let p = pv.k.machine.mem.read_bytes(pv_host, BLOCK as usize);
    assert_eq!(t, p, "both paths deliver byte-identical block contents");

    // And both match the disk model: request 15 reads LBAs 120..128.
    let mut expect = Vec::new();
    for lba in 120..128 {
        expect.extend_from_slice(&pv.k.machine.ahci().sector(lba));
    }
    assert_eq!(t, expect, "contents match the backing store");
}

/// The chaos suite over the new path: five fault kinds injected into
/// a live PV-ring run; every request completes successfully (the
/// server's degraded-mode recovery absorbs all of it) and the data is
/// correct.
#[test]
fn chaos_plan_over_the_pv_ring_path() {
    let prog = pvdiskload::build(PvDiskLoadParams {
        requests: 32,
        block_bytes: BLOCK,
        batch: BATCH,
    });
    let mut cfg = VmmConfig::full_virt(prog, 4096);
    cfg.pv_disk = true;
    let mut sys = System::build(LaunchOptions::supervised(cfg));
    sys.k.machine.set_fault_plan(
        FaultPlan::seeded(0x5eed_c0ff_ee02)
            .with(FaultKind::AhciTaskFileError, 9000, 3)
            .with(FaultKind::AhciLostIrq, 9000, 3)
            .with(FaultKind::AhciSpuriousIrq, 9000, 3)
            .with(FaultKind::AhciStuckDma, 9000, 2)
            .with(FaultKind::IommuFault, 5000, 2),
    );
    let out = sys.run(Some(BUDGET));
    assert_eq!(
        out,
        RunOutcome::Shutdown(0),
        "PV guest finishes under chaos"
    );
    let injected: u64 = sys.k.machine.faults().injected.iter().sum();
    assert!(injected >= 5, "fault plan barely fired ({injected} faults)");

    // The last descriptor of the last batch is bit-exact.
    let host = 0x1000 * 4096 + (layout::PV_DISK_BUF + 7 * 4096) as u64;
    let got = sys.k.machine.mem.read_bytes(host, 16);
    let expect = sys.k.machine.ahci().sector(31 * (BLOCK as u64 / 512));
    assert_eq!(got, expect[..16].to_vec(), "data correct under faults");

    // No request leaked out as a guest-visible error.
    assert_eq!(sys.vmm().dev().pvdisk.completions, 32);
    let c = &sys.k.counters;
    assert_eq!(c.guest_faults_rejected, 0);
    assert_eq!(c.degraded_errors(), 0, "no retry budget was exhausted");
}

/// Driver crash mid-PV-workload: the disk server dies while batches
/// are in flight; the watchdog restarts it, root rewires the backend's
/// portal, the backend resubmits, and the guest finishes with correct
/// data, never seeing the crash.
#[test]
fn driver_crash_mid_pv_workload_recovers() {
    let prog = pvdiskload::build(PvDiskLoadParams {
        requests: 32,
        block_bytes: BLOCK,
        batch: BATCH,
    });
    let mut cfg = VmmConfig::full_virt(prog, 4096);
    cfg.pv_disk = true;
    let mut sys = System::build(LaunchOptions::supervised(cfg));

    // Run until the server has completed a couple of requests.
    loop {
        let out = sys.run(Some(100_000));
        assert_ne!(
            out,
            RunOutcome::Shutdown(0),
            "guest finished before the crash"
        );
        if sys.k.counters.disk_ops >= 2 {
            break;
        }
    }

    let srv_pd = PdId(
        sys.k
            .obj
            .pds
            .iter()
            .position(|pd| pd.name == "disk-server")
            .unwrap() as u32,
    );
    sys.k.pd_fault(srv_pd, 0xdead);
    assert_eq!(sys.k.counters.pd_deaths, 1);

    let out = sys.run(Some(BUDGET));
    assert_eq!(out, RunOutcome::Shutdown(0), "guest completed after crash");
    assert_eq!(sys.k.counters.driver_restarts, 1);

    // Data integrity across the restart.
    let host = 0x1000 * 4096 + (layout::PV_DISK_BUF + 7 * 4096) as u64;
    let got = sys.k.machine.mem.read_bytes(host, 16);
    let expect = sys.k.machine.ahci().sector(31 * (BLOCK as u64 / 512));
    assert_eq!(got, expect[..16].to_vec(), "data correct across restart");
    // The guest never saw the crash: both marks, exit code 0.
    let vals: Vec<u32> = sys.k.machine.marks().iter().map(|&(_, v)| v).collect();
    assert_eq!(vals, vec![0x1000, 0x1001]);
    assert_eq!(sys.k.counters.guest_faults_rejected, 0);
}
