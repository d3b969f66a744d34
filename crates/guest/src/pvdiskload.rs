//! The batched paravirtual disk-read workload (the "virtual" — i.e.
//! paravirtualized — column of Figure 6): the same sequential
//! direct-I/O access pattern as [`crate::diskload`], but driven
//! through the shared-memory descriptor ring of [`nova_hw::pv`]. The
//! guest publishes a whole batch of requests, rings the doorbell
//! once, and halts until the ring's `used` counter catches up —
//! replacing the ~6 MMIO exits per request of the trap-and-emulate
//! AHCI path with roughly one exit per *batch*.

use nova_hw::machine::GuestImage;
use nova_x86::insn::{AluOp, Cond, MemRef};
use nova_x86::reg::Reg;

use crate::os::{build_os, OsParams};
use crate::rt::{self, layout};

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct PvDiskLoadParams {
    /// Number of read requests (rounded up to a whole batch).
    pub requests: u32,
    /// Block size in bytes (must be a multiple of 512).
    pub block_bytes: u32,
    /// Requests per doorbell.
    pub batch: u32,
}

impl PvDiskLoadParams {
    /// A short smoke run.
    pub fn smoke() -> PvDiskLoadParams {
        PvDiskLoadParams {
            requests: 8,
            block_bytes: 4096,
            batch: 8,
        }
    }
}

/// Builds the workload.
pub fn build(p: PvDiskLoadParams) -> GuestImage {
    assert_eq!(p.block_bytes % 512, 0);
    assert!(p.batch >= 1 && p.batch <= nova_hw::pv::disk::CAPACITY);
    let sectors = p.block_bytes / 512;
    let batches = p.requests.div_ceil(p.batch);
    let params = OsParams {
        pv_disk: true,
        ..OsParams::minimal()
    };
    build_os(params, |a, _| {
        rt::emit_mark(a, 0x1000); // benchmark start
        a.mov_ri(Reg::Esi, 0); // batch counter

        let batch_top = a.here_label();
        rt::emit_pv_disk_batch_read(a, p.batch, sectors);

        // Per-request kernel work plus a checksum pass over the whole
        // batch — the same per-byte cost as the trap-and-emulate
        // workload, so the two columns differ only in exit structure.
        a.mov_ri(Reg::Ecx, 2500 * p.batch);
        let spin = a.here_label();
        a.dec_r(Reg::Ecx);
        a.jcc(Cond::Ne, spin);
        a.mov_ri(Reg::Edi, layout::PV_DISK_BUF);
        a.mov_ri(Reg::Ecx, p.batch * p.block_bytes / 4);
        let sum = a.here_label();
        a.alu_rm(AluOp::Add, Reg::Eax, MemRef::base_disp(Reg::Edi, 0));
        a.add_ri(Reg::Edi, 4);
        a.dec_r(Reg::Ecx);
        a.jcc(Cond::Ne, sum);

        a.inc_r(Reg::Esi);
        a.cmp_ri(Reg::Esi, batches);
        a.jcc(Cond::B, batch_top);

        // Any error completion fails the run.
        a.mov_rm(
            Reg::Eax,
            MemRef::abs(layout::PV_DISK_RING + nova_hw::pv::disk::ERRORS as u32),
        );
        a.test_rr(Reg::Eax, Reg::Eax);
        let clean = a.label();
        a.jcc(Cond::E, clean);
        rt::emit_exit(a, 1);
        a.bind(clean);

        rt::emit_mark(a, 0x1001); // benchmark end
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_core::RunOutcome;
    use nova_vmm::{LaunchOptions, System, VmmConfig};

    #[test]
    fn batched_reads_complete_with_correct_data() {
        let p = PvDiskLoadParams {
            requests: 16,
            block_bytes: 4096,
            batch: 8,
        };
        let mut cfg = VmmConfig::full_virt(build(p), 4096);
        cfg.pv_disk = true;
        let mut sys = System::build(LaunchOptions::standard(cfg));
        let out = sys.run(Some(20_000_000_000));
        assert_eq!(out, RunOutcome::Shutdown(0));

        // The disk server wrote straight into guest memory: check the
        // last block of the second batch against the disk pattern.
        let host = 0x1000 * 4096 + (layout::PV_DISK_BUF + 7 * 4096) as u64;
        let got = sys.k.machine.mem.read_bytes(host, 16);
        let lba_last = 15 * (4096 / 512);
        let expect = sys.k.machine.ahci().sector(lba_last);
        assert_eq!(got, expect[..16].to_vec());

        // Exit structure: two doorbells (one per batch), far fewer
        // MMIO exits than 16 trap-and-emulate requests would cost
        // (~6 each).
        assert_eq!(sys.vmm().dev().pvdisk.doorbells, 2);
        assert_eq!(sys.vmm().dev().pvdisk.completions, 16);
        assert_eq!(sys.k.counters.guest_faults_rejected, 0);
        let mmio = sys.k.counters.exits_of(7);
        assert!(mmio < 16, "16 requests took {mmio} MMIO exits");
        assert_eq!(sys.k.machine.marks().len(), 2);
    }
}
