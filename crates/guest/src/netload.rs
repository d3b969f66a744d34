//! The UDP-receive workload (Section 8.3, Figure 7): the guest drives
//! the (directly assigned) NIC with its own ring-buffer driver, copies
//! every received payload once (the data-transfer cost the paper
//! identifies), and halts between coalesced interrupts.

use nova_hw::machine::GuestImage;
use nova_x86::insn::{AluOp, Cond, MemRef};
use nova_x86::reg::Reg;

use crate::os::{build_os, OsParams, VEC_NIC};
use crate::rt::{self, layout, vars};

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct NetLoadParams {
    /// Stop after receiving this many packets.
    pub target_packets: u32,
    /// Ring entries (must divide the NIC's view; 64 standard).
    pub ring_entries: u32,
}

impl NetLoadParams {
    /// A short smoke run.
    pub fn smoke() -> NetLoadParams {
        NetLoadParams {
            target_packets: 10,
            ring_entries: 64,
        }
    }

    /// The benchmark configuration: a full 256-descriptor ring.
    pub fn bench(target_packets: u32) -> NetLoadParams {
        NetLoadParams {
            target_packets,
            ring_entries: 256,
        }
    }
}

/// Application copy destination for received payloads.
const APP_BUF: u32 = 0x16_0000;

/// Builds the workload.
pub fn build(p: NetLoadParams) -> GuestImage {
    use nova_hw::nic::regs;
    let base = nova_hw::machine::NIC_BASE as u32;

    let params = OsParams {
        paging: false,
        pf_handler: false,
        timer_divisor: None,
        disk: false,
        nic: true,
        pv_disk: false,
        pv_net: false,
    };
    build_os(params, |a, _| {
        // --- NIC interrupt handler ---
        let after = a.label();
        a.jmp(after);
        let handler = a.here_label();
        a.push_r(Reg::Eax);
        a.push_r(Reg::Ebx);
        a.push_r(Reg::Ecx);
        a.push_r(Reg::Edx);
        a.push_r(Reg::Esi);
        a.push_r(Reg::Edi);

        // Read ICR (read-to-clear).
        a.mov_rm(Reg::Eax, MemRef::abs(base + regs::ICR));

        // Drain descriptors with the DD bit set.
        let drain = a.here_label();
        // EBX = ring slot address = NIC_RING + head*16.
        a.mov_rm(Reg::Ebx, rt::var(vars::RX_HEAD));
        a.shl_ri(Reg::Ebx, 4);
        a.add_ri(Reg::Ebx, layout::NIC_RING);
        // Status byte at +12.
        a.movzx_rm8(Reg::Eax, MemRef::base_disp(Reg::Ebx, 12));
        a.test_rr(Reg::Eax, Reg::Eax);
        let done = a.label();
        a.jcc(Cond::E, done);

        // Length at +8 (16 bits; read dword, mask).
        a.mov_rm(Reg::Ecx, MemRef::base_disp(Reg::Ebx, 8));
        a.alu_ri(AluOp::And, Reg::Ecx, 0xffff);
        a.alu_mr(AluOp::Add, rt::var(vars::RX_BYTES), Reg::Ecx);

        // Copy the payload to the application buffer (dword count).
        a.mov_rm(Reg::Esi, rt::var(vars::RX_HEAD));
        a.shl_ri(Reg::Esi, 14); // * 16 KiB
        a.add_ri(Reg::Esi, layout::NIC_BUF);
        a.mov_ri(Reg::Edi, APP_BUF);
        a.add_ri(Reg::Ecx, 3);
        a.shr_ri(Reg::Ecx, 2);
        a.rep_movsd();

        // Clear the status and recycle the descriptor as the new tail.
        a.mov_m8i(MemRef::base_disp(Reg::Ebx, 12), 0);
        a.mov_rm(Reg::Eax, rt::var(vars::RX_HEAD));
        a.mov_mr(MemRef::abs(base + regs::RDT), Reg::Eax);

        // Advance head modulo ring size; count the packet.
        a.mov_rm(Reg::Eax, rt::var(vars::RX_HEAD));
        a.inc_r(Reg::Eax);
        a.alu_ri(AluOp::And, Reg::Eax, p.ring_entries - 1);
        a.mov_mr(rt::var(vars::RX_HEAD), Reg::Eax);
        a.inc_m(rt::var(vars::PKT_COUNT));
        a.jmp(drain);

        a.bind(done);
        rt::emit_eoi_both(a);
        a.pop_r(Reg::Edi);
        a.pop_r(Reg::Esi);
        a.pop_r(Reg::Edx);
        a.pop_r(Reg::Ecx);
        a.pop_r(Reg::Ebx);
        a.pop_r(Reg::Eax);
        a.iret();

        a.bind(after);
        rt::emit_idt_install(a, VEC_NIC, handler);

        // --- Ring initialization ---
        a.mov_ri(Reg::Edi, layout::NIC_RING);
        a.mov_ri(Reg::Eax, layout::NIC_BUF);
        a.mov_ri(Reg::Ecx, p.ring_entries);
        let fill = a.here_label();
        a.mov_mr(MemRef::base_disp(Reg::Edi, 0), Reg::Eax); // buffer low
        a.mov_mi(MemRef::base_disp(Reg::Edi, 4), 0); // buffer high
        a.mov_mi(MemRef::base_disp(Reg::Edi, 12), 0); // status
        a.add_ri(Reg::Eax, 0x4000);
        a.add_ri(Reg::Edi, 16);
        a.dec_r(Reg::Ecx);
        a.jcc(Cond::Ne, fill);

        // --- Controller programming (direct MMIO: no exits) ---
        a.mov_mi(MemRef::abs(base + regs::RDBAL), layout::NIC_RING);
        a.mov_mi(MemRef::abs(base + regs::RDBAH), 0);
        a.mov_mi(MemRef::abs(base + regs::RDLEN), p.ring_entries * 16);
        a.mov_mi(MemRef::abs(base + regs::RDH), 0);
        a.mov_mi(MemRef::abs(base + regs::RDT), p.ring_entries - 1);
        a.mov_mi(MemRef::abs(base + regs::IMS), nova_hw::nic::ICR_RXT0);

        rt::emit_mark(a, 0x2000); // ready: the harness starts traffic

        // --- Main loop: halt until the target is reached ---
        let wait = a.here_label();
        a.sti();
        a.hlt();
        a.mov_rm(Reg::Eax, rt::var(vars::PKT_COUNT));
        a.cmp_ri(Reg::Eax, p.target_packets);
        a.jcc(Cond::B, wait);

        rt::emit_mark(a, 0x2001);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_core::RunOutcome;
    use nova_hw::nic::{Nic, Stream};
    use nova_vmm::{LaunchOptions, System, VmmConfig};

    #[test]
    fn direct_assigned_nic_stream_reaches_guest() {
        let p = NetLoadParams {
            target_packets: 12,
            ring_entries: 64,
        };
        let mut cfg = VmmConfig::full_virt(build(p), 4096);
        cfg.name = "net-vm".into();
        let mut opts = LaunchOptions::standard(cfg);
        opts.with_disk = false;
        opts.direct_nic = true;
        let mut sys = System::build(opts);

        // Start the traffic generator: 12+ packets of 1472 bytes.
        let dev = sys.k.machine.dev.nic;
        sys.k
            .machine
            .bus
            .typed_mut::<Nic>(dev)
            .unwrap()
            .set_stream(Stream {
                packet_bytes: 1472,
                interarrival: 200_000,
                remaining: 16,
            });
        sys.k.machine.bus.events.schedule(
            sys.k.machine.clock + 200_000,
            nova_hw::event::Event {
                device: dev,
                token: 1,
            },
        );

        let out = sys.run(Some(20_000_000_000));
        assert_eq!(out, RunOutcome::Shutdown(0));

        // The NIC DMAed into *guest* frames through the IOMMU.
        assert!(sys.k.machine.bus.iommu.faults.is_empty());
        // Guest counted its packets: PKT_COUNT at guest VARS.
        let host_vars = 0x1000 * 4096 + layout::VARS as u64;
        let pkts = sys
            .k
            .machine
            .mem
            .read_u32(host_vars + vars::PKT_COUNT as u64);
        assert!(pkts >= 12, "guest saw {pkts} packets");
        let bytes = sys
            .k
            .machine
            .mem
            .read_u32(host_vars + vars::RX_BYTES as u64);
        assert_eq!(bytes, pkts * 1472);

        // Figure 7 structure: device registers never exit; each
        // coalesced interrupt reaches the guest as an injection (via an
        // ExtInt exit when the guest was running, or a host-mode wakeup
        // when it was halted).
        assert_eq!(
            sys.k.counters.exits_of(7),
            0,
            "no MMIO exits with direct assignment"
        );
        assert!(sys.k.counters.injected_virq > 0);
        assert!(sys.k.counters.exits_of(6) > 0, "PIC EOIs exit");
    }
}
