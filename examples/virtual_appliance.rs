//! A secure virtual appliance (Section 4 of the paper): "a prepackaged
//! software image that consists of a small kernel and few
//! special-purpose applications", here an audit appliance that reads
//! transaction records from disk, checksums them, and reports — while
//! keeping its trusted computing base to the microhypervisor, the thin
//! user environment and its dedicated VMM.
//!
//! ```sh
//! cargo run --release --example virtual_appliance
//! ```

use nova::guest::os::{build_os, OsParams};
use nova::guest::rt::{self, layout};
use nova::hypervisor::RunOutcome;
use nova::vmm::{GuestImage, LaunchOptions, System, VmmConfig};
use nova::x86::insn::{AluOp, Cond, MemRef};
use nova::x86::reg::Reg;

const RECORDS: u32 = 16;
const RECORD_SECTORS: u32 = 8; // 4 KB records

fn appliance() -> GuestImage {
    let params = OsParams {
        paging: true,
        pf_handler: true,
        timer_divisor: None,
        disk: true,
        nic: false,
        pv_disk: false,
        pv_net: false,
    };
    build_os(params, |a, _| {
        rt::emit_puts(a, "audit appliance: verifying ledger\n");

        // For each record: read it from disk, fold a checksum over it,
        // and accumulate into EBP.
        a.xor_rr(Reg::Ebp, Reg::Ebp);
        a.mov_mi(rt::var(nova::guest::rt::vars::SCRATCH), 0);
        let next = a.here_label();

        // Read record i at LBA i*8.
        a.mov_rm(Reg::Esi, rt::var(nova::guest::rt::vars::SCRATCH));
        a.mov_rr(Reg::Eax, Reg::Esi);
        a.shl_ri(Reg::Eax, 3);
        a.mov_ri(Reg::Ebx, RECORD_SECTORS);
        a.mov_ri(Reg::Ecx, layout::DISK_BUF);
        rt::emit_disk_read_sync(a);

        // Checksum the 4 KB record.
        a.mov_ri(Reg::Edi, layout::DISK_BUF);
        a.mov_ri(Reg::Ecx, RECORD_SECTORS * 512 / 4);
        a.xor_rr(Reg::Eax, Reg::Eax);
        let sum = a.here_label();
        a.alu_rm(AluOp::Add, Reg::Eax, MemRef::base_disp(Reg::Edi, 0));
        a.add_ri(Reg::Edi, 4);
        a.dec_r(Reg::Ecx);
        a.jcc(Cond::Ne, sum);
        a.alu_rr(AluOp::Add, Reg::Ebp, Reg::Eax);

        a.inc_m(rt::var(nova::guest::rt::vars::SCRATCH));
        a.mov_rm(Reg::Esi, rt::var(nova::guest::rt::vars::SCRATCH));
        a.cmp_ri(Reg::Esi, RECORDS);
        a.jcc(Cond::B, next);

        // Publish the ledger checksum as a benchmark mark and report.
        a.mov_rr(Reg::Eax, Reg::Ebp);
        a.mov_ri(Reg::Edx, 0xf5);
        a.out_dx_eax();
        rt::emit_puts(a, "ledger verified\n");
        rt::emit_exit(a, 0);
    })
}

fn main() {
    let mut sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(
        appliance(),
        4096,
    )));
    let outcome = sys.run(Some(100_000_000_000));
    assert_eq!(outcome, RunOutcome::Shutdown(0));

    println!("console:\n{}", sys.vmm().guest_console());

    // Independently recompute the expected checksum from the disk
    // model and compare with what the appliance reported.
    let mut expect: u32 = 0;
    for rec in 0..RECORDS {
        for s in 0..RECORD_SECTORS {
            let sector = sys.k.machine.ahci().sector((rec * 8 + s) as u64);
            for chunk in sector.chunks_exact(4) {
                expect = expect.wrapping_add(u32::from_le_bytes(chunk.try_into().unwrap()));
            }
        }
    }
    let reported = sys.k.machine.marks().last().map(|m| m.1).unwrap();
    println!("appliance checksum : {reported:#010x}");
    println!("host recomputation : {expect:#010x}");
    assert_eq!(
        reported, expect,
        "every byte DMAed intact through the stack"
    );

    println!(
        "\ndisk server: {} requests, {} bytes, all DMA IOMMU-confined ({} faults)",
        sys.k.counters.disk_ops,
        sys.k.counters.disk_bytes,
        sys.k.machine.bus.iommu.faults.len()
    );
    println!(
        "vm exits: {} | ipc calls: {} | injected vIRQs: {}",
        sys.k.counters.total_exits(),
        sys.k.counters.ipc_calls,
        sys.k.counters.injected_virq
    );
    println!(
        "\nThe appliance trusts only the microhypervisor, the thin user environment \
         and its own VMM — not a monolithic host OS (Figure 1 of the paper)."
    );
}
