//! The sequential direct-I/O disk-read workload (Section 8.2,
//! Figure 6): issues back-to-back reads of a fixed block size and
//! halts between completions, exactly like the paper's benchmark with
//! the buffer cache bypassed.

use nova_hw::machine::GuestImage;
use nova_x86::insn::Cond;
use nova_x86::reg::Reg;

use crate::os::{build_os, OsParams};
use crate::rt::{self, layout};

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct DiskLoadParams {
    /// Number of read requests.
    pub requests: u32,
    /// Block size in bytes (must be a multiple of 512).
    pub block_bytes: u32,
}

impl DiskLoadParams {
    /// A short smoke run.
    pub fn smoke() -> DiskLoadParams {
        DiskLoadParams {
            requests: 4,
            block_bytes: 4096,
        }
    }
}

/// Builds the workload.
pub fn build(p: DiskLoadParams) -> GuestImage {
    assert_eq!(p.block_bytes % 512, 0);
    let sectors = p.block_bytes / 512;
    let params = OsParams {
        paging: false,
        pf_handler: false,
        timer_divisor: None,
        disk: true,
        nic: false,
        pv_disk: false,
        pv_net: false,
    };
    build_os(params, |a, _| {
        rt::emit_mark(a, 0x1000); // benchmark start
        a.mov_ri(Reg::Esi, 0); // request counter / LBA cursor

        let req = a.here_label();
        // Sequential: LBA advances by the block size.
        a.mov_rr(Reg::Eax, Reg::Esi);
        a.mov_ri(Reg::Ebx, sectors);
        a.mul_r(Reg::Ebx); // EAX = request * sectors
        a.mov_ri(Reg::Ebx, sectors);
        a.mov_ri(Reg::Ecx, layout::DISK_BUF);
        rt::emit_disk_read_sync(a);

        // Per-request kernel work (the block layer, request queue and
        // completion path a real OS runs — the bulk of the paper's
        // native CPU utilization).
        a.mov_ri(Reg::Ecx, 2500);
        let spin = a.here_label();
        a.dec_r(Reg::Ecx);
        a.jcc(Cond::Ne, spin);
        // Touch the data once (checksum pass: per-byte cost).
        a.mov_ri(Reg::Edi, layout::DISK_BUF);
        a.mov_ri(Reg::Ecx, p.block_bytes / 4);
        let sum = a.here_label();
        a.alu_rm(
            nova_x86::insn::AluOp::Add,
            Reg::Eax,
            nova_x86::insn::MemRef::base_disp(Reg::Edi, 0),
        );
        a.add_ri(Reg::Edi, 4);
        a.dec_r(Reg::Ecx);
        a.jcc(Cond::Ne, sum);

        a.inc_r(Reg::Esi);
        a.cmp_ri(Reg::Esi, p.requests);
        a.jcc(Cond::B, req);

        rt::emit_mark(a, 0x1001); // benchmark end
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_core::RunOutcome;
    use nova_vmm::{LaunchOptions, System, VmmConfig};

    #[test]
    fn virtualized_disk_reads_complete_with_correct_data() {
        let p = DiskLoadParams {
            requests: 3,
            block_bytes: 8192,
        };
        let mut sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(
            build(p),
            4096,
        )));
        let out = sys.run(Some(8_000_000_000));
        assert_eq!(out, RunOutcome::Shutdown(0));

        // The device DMAed straight into guest memory: check the last
        // block against the disk's pattern. Guest GPA DISK_BUF lives at
        // host frame 0x1000 + DISK_BUF/4096.
        let host = 0x1000 * 4096 + layout::DISK_BUF as u64;
        let got = sys.k.machine.mem.read_bytes(host, 16);
        let lba_last = 2 * (8192 / 512);
        let expect = sys.k.machine.ahci().sector(lba_last);
        assert_eq!(got, expect[..16].to_vec());

        // Structure of Figure 6's virtualized path: ~6 MMIO exits per
        // request (doorbell + interrupt handling) plus interrupt
        // virtualization exits.
        let mmio = sys.k.counters.exits_of(7);
        assert!(
            (15..=30).contains(&mmio),
            "3 requests x ~6 MMIO exits, got {mmio}"
        );
        assert!(sys.k.counters.exits_of(3) >= 3, "HLT exit per request");
        assert!(sys.k.counters.injected_virq >= 3, "vIRQ per completion");
        // Both marks arrived.
        assert_eq!(sys.k.machine.marks().len(), 2);
    }

    #[test]
    fn more_requests_more_exits_same_per_request_cost() {
        let run = |n: u32| {
            let p = DiskLoadParams {
                requests: n,
                block_bytes: 4096,
            };
            let mut sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(
                build(p),
                4096,
            )));
            sys.run(Some(30_000_000_000));
            sys.k.counters.exits_of(7)
        };
        let three = run(3);
        let six = run(6);
        let per_req_3 = three as f64 / 3.0;
        let per_req_6 = six as f64 / 6.0;
        assert!(
            (per_req_3 - per_req_6).abs() <= 1.5,
            "MMIO exits per request stable: {per_req_3} vs {per_req_6}"
        );
    }
}
