//! Virtual-AHCI error paths: malformed guest commands must produce a
//! task-file error for the guest, never crash the VMM or reach the
//! disk server.

use nova_core::RunOutcome;
use nova_guest::os::{build_os, OsParams};
use nova_guest::rt::{self, layout};
use nova_vmm::{GuestImage, LaunchOptions, System, VmmConfig};
use nova_x86::insn::MemRef;
use nova_x86::reg::Reg;

/// The guest rings the doorbell with a garbage FIS: the virtual
/// controller reports TFES in P0IS and frees the slot; the machine
/// keeps running.
#[test]
fn malformed_guest_command_reports_task_file_error() {
    use nova_hw::ahci::regs;
    let base = nova_hw::machine::AHCI_BASE as u32;
    let prog = build_os(
        OsParams {
            disk: true,
            ..OsParams::minimal()
        },
        |a, _| {
            // Corrupt the command table: FIS type 0x99.
            a.mov_mi(MemRef::abs(layout::DISK_CTBA), 0x0099_0099);
            a.mov_mi(MemRef::abs(layout::DISK_CMD), 1 << 16);
            a.mov_mi(MemRef::abs(layout::DISK_CMD + 8), layout::DISK_CTBA);
            a.mov_mi(MemRef::abs(base + regs::P0CI), 1);
            // Read back the port status and report it as a mark.
            a.mov_rm(Reg::Eax, MemRef::abs(base + regs::P0IS));
            a.mov_ri(Reg::Edx, 0xf5);
            a.out_dx_eax();
            // The slot must be free again.
            a.mov_rm(Reg::Eax, MemRef::abs(base + regs::P0CI));
            a.out_dx_eax();
            rt::emit_exit(a, 0);
        },
    );
    let mut sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(prog, 2048)));
    assert_eq!(sys.run(Some(5_000_000_000)), RunOutcome::Shutdown(0));
    let marks = sys.vmm().guest_marks();
    assert_eq!(marks.len(), 2);
    assert_ne!(marks[0] & (1 << 30), 0, "TFES visible to the guest");
    assert_eq!(marks[1], 0, "command slot freed");
    // Nothing reached the disk server.
    assert_eq!(sys.k.counters.disk_accepted, 0);
    assert_eq!(sys.k.counters.disk_ops, 0);
}

/// A *physical* task-file error propagates through every layer: the
/// fault injector makes the real controller fail the command three
/// times, the disk server burns its retry budget and completes the
/// request with `STATUS_ERROR`, and the virtual controller translates
/// that into TFES in the guest's P0IS.
#[test]
fn physical_task_file_error_propagates_to_guest() {
    use nova_hw::ahci::regs;
    use nova_hw::fault::{FaultKind, FaultPlan};
    let base = nova_hw::machine::AHCI_BASE as u32;
    let prog = build_os(OsParams::minimal(), |a, _| {
        // A well-formed READ DMA EXT for LBA 5, 8 sectors: H2D FIS,
        // one PRDT entry into DISK_BUF.
        a.mov_mi(MemRef::abs(layout::DISK_CTBA), 0x0025_0027);
        a.mov_mi(MemRef::abs(layout::DISK_CTBA + 4), 5);
        a.mov_mi(MemRef::abs(layout::DISK_CTBA + 8), 0);
        a.mov_mi(MemRef::abs(layout::DISK_CTBA + 12), 8);
        a.mov_mi(MemRef::abs(layout::DISK_CTBA + 0x80), layout::DISK_BUF);
        a.mov_mi(MemRef::abs(layout::DISK_CTBA + 0x84), 0);
        a.mov_mi(MemRef::abs(layout::DISK_CTBA + 0x8c), 4096 - 1);
        a.mov_mi(MemRef::abs(layout::DISK_CMD), 1 << 16);
        a.mov_mi(MemRef::abs(layout::DISK_CMD + 8), layout::DISK_CTBA);
        a.mov_mi(MemRef::abs(base + regs::P0CLB), layout::DISK_CMD);
        a.mov_mi(MemRef::abs(base + regs::P0CLB2), 0);
        a.mov_mi(MemRef::abs(base + regs::P0CI), 1);
        // Interrupts stay off: poll the slot until the virtual
        // controller retires the command, then report P0IS.
        let poll = a.here_label();
        a.mov_rm(Reg::Eax, MemRef::abs(base + regs::P0CI));
        a.cmp_ri(Reg::Eax, 0);
        a.jcc(nova_x86::insn::Cond::Ne, poll);
        a.mov_rm(Reg::Eax, MemRef::abs(base + regs::P0IS));
        a.mov_ri(Reg::Edx, 0xf5);
        a.out_dx_eax();
        rt::emit_exit(a, 0);
    });
    let mut sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(prog, 2048)));
    // Every issue of the command hits a task-file error until the cap
    // of three — exactly the server's attempt budget — is spent.
    sys.k
        .machine
        .set_fault_plan(FaultPlan::seeded(7).with(FaultKind::AhciTaskFileError, 65536, 3));
    assert_eq!(sys.run(Some(5_000_000_000)), RunOutcome::Shutdown(0));

    let marks = sys.vmm().guest_marks();
    assert_eq!(marks.len(), 1);
    assert_ne!(marks[0] & (1 << 30), 0, "TFES visible to the guest");

    // The server retried twice, then completed the request degraded.
    let c = &sys.k.counters;
    assert_eq!(c.disk_accepted, 1);
    assert_eq!(c.disk_ops, 1);
    assert_eq!(c.disk_media_retries, 2);
    assert_eq!(c.disk_failed, 1);
    assert_eq!(
        sys.k.machine.faults().count(FaultKind::AhciTaskFileError),
        3
    );
    // …and nothing else retried or gave up.
    assert_eq!(c.request_retries(), 2);
    assert_eq!(c.degraded_errors(), 1);
}

/// Builds a polling guest that issues one READ DMA EXT through the
/// virtual AHCI with an arbitrary PRDT, waits for the slot to retire,
/// and reports P0IS as a mark.
fn one_read(lba: u64, sectors: u32, prdt: &[(u32, u32)]) -> GuestImage {
    one_read_ctbau(0, lba, sectors, prdt)
}

/// [`one_read`] with the upper half of the command-table base
/// (header dword 3, `CTBAU`) set to `ctbau`.
fn one_read_ctbau(ctbau: u32, lba: u64, sectors: u32, prdt: &[(u32, u32)]) -> GuestImage {
    use nova_hw::ahci::regs;
    let base = nova_hw::machine::AHCI_BASE as u32;
    let prdt = prdt.to_vec();
    build_os(OsParams::minimal(), move |a, _| {
        // H2D FIS, READ DMA EXT; all six LBA bytes (4, 5, 6, 8, 9, 10).
        a.mov_mi(MemRef::abs(layout::DISK_CTBA), 0x0025_0027);
        a.mov_mi(MemRef::abs(layout::DISK_CTBA + 4), (lba & 0xff_ffff) as u32);
        a.mov_mi(
            MemRef::abs(layout::DISK_CTBA + 8),
            ((lba >> 24) & 0xff_ffff) as u32,
        );
        a.mov_mi(MemRef::abs(layout::DISK_CTBA + 12), sectors);
        for (i, &(dba, bytes)) in prdt.iter().enumerate() {
            let e = layout::DISK_CTBA + 0x80 + 16 * i as u32;
            a.mov_mi(MemRef::abs(e), dba);
            a.mov_mi(MemRef::abs(e + 4), 0);
            a.mov_mi(MemRef::abs(e + 12), bytes - 1);
        }
        a.mov_mi(MemRef::abs(layout::DISK_CMD), (prdt.len() as u32) << 16);
        a.mov_mi(MemRef::abs(layout::DISK_CMD + 8), layout::DISK_CTBA);
        if ctbau != 0 {
            a.mov_mi(MemRef::abs(layout::DISK_CMD + 12), ctbau);
        }
        a.mov_mi(MemRef::abs(base + regs::P0CLB), layout::DISK_CMD);
        a.mov_mi(MemRef::abs(base + regs::P0CLB2), 0);
        a.mov_mi(MemRef::abs(base + regs::P0CI), 1);
        let poll = a.here_label();
        a.mov_rm(Reg::Eax, MemRef::abs(base + regs::P0CI));
        a.cmp_ri(Reg::Eax, 0);
        a.jcc(nova_x86::insn::Cond::Ne, poll);
        a.mov_rm(Reg::Eax, MemRef::abs(base + regs::P0IS));
        a.mov_ri(Reg::Edx, 0xf5);
        a.out_dx_eax();
        rt::emit_exit(a, 0);
    })
}

/// Runs `prog` to completion and returns the finished system plus the
/// single P0IS mark.
fn run_read(prog: GuestImage) -> (System, u32) {
    let mut sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(prog, 2048)));
    assert_eq!(sys.run(Some(5_000_000_000)), RunOutcome::Shutdown(0));
    let marks = sys.vmm().guest_marks();
    assert_eq!(marks.len(), 1);
    let is = marks[0];
    (sys, is)
}

fn guest_bytes(sys: &System, gpa: u32, len: usize) -> Vec<u8> {
    sys.k
        .machine
        .mem
        .read_bytes(0x1000 * 4096 + gpa as u64, len)
}

/// Regression: a data buffer at an odd byte offset must transfer
/// correctly. The old DBA handling rounded to page granularity, so
/// the in-page offset was lost and data landed 3 bytes early.
#[test]
fn unaligned_buffer_transfers_to_exact_address() {
    let buf = layout::DISK_BUF + 3;
    let (mut sys, is) = run_read(one_read(9, 8, &[(buf, 4096)]));
    assert_eq!(is & (1 << 30), 0, "no TFES: {is:#x}");
    let mut expect = Vec::new();
    for lba in 9..17 {
        expect.extend_from_slice(&sys.k.machine.ahci().sector(lba));
    }
    assert_eq!(guest_bytes(&sys, buf, 4096), expect);
    // The byte before the buffer was not clobbered.
    assert_eq!(guest_bytes(&sys, buf - 1, 1), vec![0]);
}

/// Regression: a command whose PRDT scatters one transfer across
/// several discontiguous entries must fill each segment in order (the
/// old code only honored entry 0).
#[test]
fn multi_prdt_entries_scatter_across_buffers() {
    let seg0 = layout::DISK_BUF;
    let seg1 = layout::DISK_BUF + 0x3000;
    let seg2 = layout::DISK_BUF + 0x7100;
    let (mut sys, is) = run_read(one_read(
        100,
        8,
        &[(seg0, 1024), (seg1, 1024), (seg2, 2048)],
    ));
    assert_eq!(is & (1 << 30), 0, "no TFES: {is:#x}");
    let mut expect = Vec::new();
    for lba in 100..108 {
        expect.extend_from_slice(&sys.k.machine.ahci().sector(lba));
    }
    let mut got = guest_bytes(&sys, seg0, 1024);
    got.extend(guest_bytes(&sys, seg1, 1024));
    got.extend(guest_bytes(&sys, seg2, 2048));
    assert_eq!(got, expect);
}

/// Regression: LBA bytes 4 and 5 of the upper word (FIS bytes 9/10)
/// must be decoded — a read beyond the 2 TB boundary (sector 2^32)
/// previously aliased back into the low disk.
#[test]
fn lba_beyond_2tb_uses_all_six_bytes() {
    let lba = (1u64 << 32) + 0x1234; // > 2 TB in 512-byte sectors
    let (mut sys, is) = run_read(one_read(lba, 1, &[(layout::DISK_BUF, 512)]));
    assert_eq!(is & (1 << 30), 0, "no TFES: {is:#x}");
    let expect = sys.k.machine.ahci().sector(lba);
    assert_eq!(guest_bytes(&sys, layout::DISK_BUF, 512), expect);
    // Specifically *not* the aliased low sector.
    assert_ne!(
        guest_bytes(&sys, layout::DISK_BUF, 512),
        sys.k.machine.ahci().sector(0x1234)
    );
}

/// A command header whose table base has `CTBAU = 1` names memory
/// above 4 GB — outside guest RAM — even though its low half points at
/// a well-formed table. The platform controller's DMA to that address
/// fails with a task-file error, and so must the virtual controller:
/// reading only the low dword would serve the request from an alias.
#[test]
fn command_table_base_above_4gb_is_rejected_not_aliased() {
    let prog = one_read_ctbau(1, 9, 8, &[(layout::DISK_BUF, 4096)]);
    let (sys, is) = run_read(prog);
    assert_ne!(is & (1 << 30), 0, "TFES: {is:#x}");
    assert_eq!(is & 1, 0, "and no completion");
    assert_eq!(sys.k.counters.guest_faults_rejected, 1, "one BadBase");
    assert_eq!(guest_bytes(&sys, layout::DISK_BUF, 4096), vec![0; 4096]);
    assert_eq!(
        sys.k.counters.disk_accepted, 0,
        "nothing reached the disk server"
    );
}

/// A doorbell with no command list programmed: rejected cleanly.
#[test]
fn doorbell_without_setup_fails_cleanly() {
    use nova_hw::ahci::regs;
    let base = nova_hw::machine::AHCI_BASE as u32;
    let prog = build_os(OsParams::minimal(), |a, _| {
        a.mov_mi(MemRef::abs(base + regs::P0CI), 1);
        a.mov_rm(Reg::Eax, MemRef::abs(base + regs::P0IS));
        a.mov_ri(Reg::Edx, 0xf5);
        a.out_dx_eax();
        rt::emit_exit(a, 0);
    });
    let mut sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(prog, 2048)));
    assert_eq!(sys.run(Some(5_000_000_000)), RunOutcome::Shutdown(0));
    let marks = sys.vmm().guest_marks();
    assert_ne!(marks[0] & (1 << 30), 0, "error status reported");
}
