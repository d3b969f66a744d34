//! The kernel-compile-like workload (Section 8.1, Figure 5, Table 2).
//!
//! A compilation run is process churn: for every "compilation unit"
//! the guest OS switches to a fresh address space (CR3 write), demand-
//! faults a working set in (#PF + page-table construction), computes
//! over it (TLB pressure), recycles buffers (INVLPG), takes timer
//! interrupts, and periodically reads a source file from disk. The
//! parameters control the mix, so the harness can reproduce the trap
//! distribution of Table 2:
//!
//! - under nested paging, only the timer/disk I/O traps remain;
//! - under the vTLB, every demand fault costs a fill exit and every
//!   address-space switch a CR exit. With the tagged shadow cache the
//!   switch reuses the cached shadow table (fills track guest faults
//!   ≈ 1:1); in legacy flush-per-switch mode (the monolithic shadow
//!   baselines) every switch rebuilds the shadow table and
//!   context-switch rounds multiply fills over guest faults, giving
//!   the fills ≫ guest-faults structure of the paper's vTLB column.

use nova_hw::machine::GuestImage;
use nova_x86::insn::{AluOp, Cond, MemRef};
use nova_x86::reg::Reg;
use nova_x86::Asm;

use crate::os::{build_os, OsParams};
use crate::rt::{self, layout, vars, KERNEL_PDES};

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct CompileParams {
    /// Number of compilation units (tasks).
    pub tasks: u32,
    /// Pages demand-faulted per task.
    pub task_pages: u32,
    /// Compute passes over the working set per context-switch round.
    pub compute_loops: u32,
    /// Address-space switch rounds per task (re-faulting the working
    /// set into the shadow table under the vTLB).
    pub switches_per_task: u32,
    /// INVLPG operations per task (buffer recycling).
    pub invlpg_per_task: u32,
    /// Read one 4 KB source file from disk every N tasks (0 = never).
    pub disk_every: u32,
    /// Timer divisor (None = no timer interrupts).
    pub timer_divisor: Option<u16>,
}

impl CompileParams {
    /// A short smoke-test run.
    pub fn smoke() -> CompileParams {
        CompileParams {
            tasks: 4,
            task_pages: 16,
            compute_loops: 2,
            switches_per_task: 2,
            invlpg_per_task: 2,
            disk_every: 2,
            timer_divisor: Some(1193),
        }
    }

    /// The benchmark-scale run used by the Figure 5 harness,
    /// calibrated so the trap mix amortizes the way the paper's kernel
    /// compilation does (~1% overhead under EPT+VPID, 20–30% under the
    /// vTLB).
    pub fn bench() -> CompileParams {
        CompileParams {
            tasks: 60,
            task_pages: 96,
            compute_loops: 16,
            switches_per_task: 8,
            invlpg_per_task: 4,
            disk_every: 5,
            timer_divisor: Some(1193),
        }
    }
}

/// First page-directory index of the task VA window.
const TASK_PDE: u32 = layout::TASK_VA >> 22;

/// Emits the per-task page-directory preparation: copy kernel PDEs,
/// clear the task window, commit CR3. Expects the task index in ESI;
/// clobbers everything.
fn emit_switch_address_space(a: &mut Asm) {
    // EBX = TASK_PD[esi & 1].
    a.mov_rr(Reg::Ebx, Reg::Esi);
    a.alu_ri(AluOp::And, Reg::Ebx, 1);
    a.shl_ri(Reg::Ebx, 12);
    a.add_ri(Reg::Ebx, layout::TASK_PD[0]);

    // Copy kernel identity PDEs from the boot directory.
    a.mov_ri(Reg::Esi, layout::BOOT_PD);
    a.mov_rr(Reg::Edi, Reg::Ebx);
    a.mov_ri(Reg::Ecx, KERNEL_PDES);
    a.rep_movsd();

    // Carry the device-window mapping over.
    a.mov_rm(Reg::Eax, MemRef::abs(layout::BOOT_PD + rt::DEVICE_PDE * 4));
    a.mov_mr(
        MemRef::base_disp(Reg::Ebx, (rt::DEVICE_PDE * 4) as i32),
        Reg::Eax,
    );

    // Clear 32 task-window PDEs.
    a.lea(Reg::Edi, MemRef::base_disp(Reg::Ebx, (TASK_PDE * 4) as i32));
    a.xor_rr(Reg::Eax, Reg::Eax);
    a.mov_ri(Reg::Ecx, 32);
    a.rep_stosd();

    // Commit: current PD, fresh frame pool, CR3 (TLB/shadow flush).
    a.mov_mr(rt::var(vars::CUR_PD), Reg::Ebx);
    a.mov_mi(rt::var(vars::NEXT_FRAME), layout::FRAME_POOL);
    a.mov_cr_r(3, Reg::Ebx);
}

/// Builds the workload.
pub fn build(p: CompileParams) -> GuestImage {
    let params = OsParams {
        paging: true,
        pf_handler: true,
        timer_divisor: p.timer_divisor,
        disk: p.disk_every > 0,
        nic: false,
        pv_disk: false,
        pv_net: false,
    };
    build_os(params, |a, _| {
        a.mov_mi(rt::var(vars::SCRATCH), 0); // task counter

        let task_loop = a.here_label();

        // --- New address space for the task ---
        a.mov_rm(Reg::Esi, rt::var(vars::SCRATCH));
        emit_switch_address_space(a);

        // --- Demand-fault the working set (guest page faults) ---
        a.mov_ri(Reg::Edi, layout::TASK_VA);
        a.mov_ri(Reg::Ecx, p.task_pages);
        let touch = a.here_label();
        a.mov_mr(MemRef::base_disp(Reg::Edi, 0), Reg::Ecx);
        a.add_ri(Reg::Edi, 4096);
        a.dec_r(Reg::Ecx);
        a.jcc(Cond::Ne, touch);

        // --- Context-switch rounds: reload CR3 and recompute ---
        a.mov_ri(Reg::Ebp, p.switches_per_task.max(1));
        let round = a.here_label();

        a.mov_rm(Reg::Eax, rt::var(vars::CUR_PD));
        a.mov_cr_r(3, Reg::Eax);

        // Compute pass: strided reads over the working set.
        a.mov_ri(Reg::Edx, p.compute_loops);
        let pass = a.here_label();
        a.mov_ri(Reg::Edi, layout::TASK_VA);
        a.mov_ri(Reg::Ecx, p.task_pages << 6); // 64 reads per page
        a.xor_rr(Reg::Eax, Reg::Eax);
        let inner = a.here_label();
        a.alu_rm(AluOp::Add, Reg::Eax, MemRef::base_disp(Reg::Edi, 0));
        a.add_ri(Reg::Edi, 64);
        a.dec_r(Reg::Ecx);
        a.jcc(Cond::Ne, inner);
        a.dec_r(Reg::Edx);
        a.jcc(Cond::Ne, pass);

        a.dec_r(Reg::Ebp);
        a.jcc(Cond::Ne, round);

        // --- Buffer recycling: INVLPG a few working-set pages ---
        for i in 0..p.invlpg_per_task {
            a.mov_ri(Reg::Eax, layout::TASK_VA + (i % p.task_pages.max(1)) * 4096);
            a.invlpg(MemRef::base_disp(Reg::Eax, 0));
        }

        // --- Source-file read every `disk_every` tasks ---
        if p.disk_every > 0 {
            a.mov_rm(Reg::Esi, rt::var(vars::SCRATCH));
            a.mov_rr(Reg::Eax, Reg::Esi);
            a.xor_rr(Reg::Edx, Reg::Edx);
            a.mov_ri(Reg::Ecx, p.disk_every);
            a.div_r(Reg::Ecx);
            a.test_rr(Reg::Edx, Reg::Edx);
            let skip = a.label();
            a.jcc(Cond::Ne, skip);
            // Read 8 sectors at LBA = task * 8 into the disk buffer.
            a.mov_rr(Reg::Eax, Reg::Esi);
            a.shl_ri(Reg::Eax, 3);
            a.mov_ri(Reg::Ebx, 8);
            a.mov_ri(Reg::Ecx, layout::DISK_BUF);
            rt::emit_disk_read_sync(a);
            a.bind(skip);
        }

        // --- Next task ---
        a.inc_m(rt::var(vars::SCRATCH));
        a.mov_rm(Reg::Esi, rt::var(vars::SCRATCH));
        a.cmp_ri(Reg::Esi, p.tasks);
        a.jcc(Cond::B, task_loop);

        // Report observed ticks as a benchmark mark.
        a.mov_rm(Reg::Eax, rt::var(vars::TICKS));
        a.mov_ri(Reg::Edx, 0xf5);
        a.out_dx_eax();
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_core::obj::VmPaging;
    use nova_core::RunOutcome;
    use nova_vmm::{LaunchOptions, System, VmmConfig};

    #[test]
    fn compile_workload_runs_under_ept() {
        let mut sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(
            build(CompileParams::smoke()),
            8192,
        )));
        let out = sys.run(Some(4_000_000_000));
        assert_eq!(out, RunOutcome::Shutdown(0));
        assert!(sys.k.counters.exits_of(7) > 0, "vAHCI MMIO exits");
        let c = &sys.k.counters;
        assert_eq!(c.exits_of(8), 0, "no #PF exits under nested paging");
        assert!(c.exits_of(6) > 0, "port I/O exits (PIC/timer)");
        assert!(c.injected_virq > 0, "timer/disk injections");
        assert_eq!(c.disk_ops, 2, "two source-file reads in four tasks");
    }

    #[test]
    fn compile_workload_runs_under_vtlb() {
        let mut cfg = VmmConfig::full_virt(build(CompileParams::smoke()), 8192);
        cfg.paging = VmPaging::Shadow;
        let mut sys = System::build(LaunchOptions::standard(cfg));
        let out = sys.run(Some(40_000_000_000));
        assert_eq!(out, RunOutcome::Shutdown(0));
        let c = &sys.k.counters;
        assert!(c.vtlb_fills > 0, "vTLB fills happened");
        assert!(c.guest_page_faults > 0, "demand faults forwarded");
        assert!(c.vtlb_flushes > 0, "CR3 switches flushed the shadow");
        assert!(
            c.vtlb_fills > c.guest_page_faults,
            "fills ({}) outnumber guest faults ({}) — the Table 2 shape",
            c.vtlb_fills,
            c.guest_page_faults
        );
        assert!(c.exits_of(5) > 0, "CR read/write exits under vTLB");
        assert!(c.exits_of(4) > 0, "INVLPG exits under vTLB");
    }

    #[test]
    fn vtlb_has_several_fold_more_exits_than_ept() {
        let mut ept = System::build(LaunchOptions::standard(VmmConfig::full_virt(
            build(CompileParams::smoke()),
            8192,
        )));
        ept.run(Some(40_000_000_000));
        let ept_exits = ept.k.counters.total_exits();

        let mut cfg = VmmConfig::full_virt(build(CompileParams::smoke()), 8192);
        cfg.paging = VmPaging::Shadow;
        let mut vtlb = System::build(LaunchOptions::standard(cfg));
        vtlb.run(Some(40_000_000_000));
        let vtlb_exits = vtlb.k.counters.total_exits();

        // Nested paging eliminates the fill/CR/INVLPG exit classes
        // entirely, so the vTLB still takes several times more exits.
        // The gap used to be >10x when every CR3 write rebuilt the
        // shadow table; the tagged shadow cache reuses shadows across
        // address-space switches (measured ~6.5x on this workload), so
        // the bound reflects the cached vTLB with headroom.
        assert!(
            vtlb_exits > 3 * ept_exits,
            "nested paging eliminates most exits: vtlb {vtlb_exits} vs ept {ept_exits}"
        );
        assert!(
            vtlb.k.counters.vtlb_switch_hits > 0,
            "the narrowed gap comes from shadow-cache hits on CR3 reloads"
        );
    }
}
