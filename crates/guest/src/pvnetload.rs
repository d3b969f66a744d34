//! The paravirtual UDP-receive workload (the "virtual NIC" column of
//! Figure 7): the same packet sink as [`crate::netload`], but the
//! guest never touches NIC registers. It posts receive buffers into
//! the shared PV ring ([`nova_hw::pv::net`]), rings the doorbell once
//! per ring refill, and consumes filled entries straight from shared
//! memory. The VMM backend drives the physical e1000e and DMAs packet
//! payloads directly into the guest's buffers (zero copy), so the
//! per-packet guest cost is one memory copy — exits happen only per
//! coalesced interrupt and per refill batch.

use nova_hw::machine::GuestImage;
use nova_x86::insn::{AluOp, Cond, MemRef};
use nova_x86::reg::Reg;

use crate::os::{build_os, OsParams, VEC_NIC};
use crate::rt::{self, layout, vars};

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct PvNetLoadParams {
    /// Stop after receiving this many packets.
    pub target_packets: u32,
    /// Receive buffers kept posted (16 KB each; at most the PV ring
    /// capacity).
    pub buffers: u32,
}

impl PvNetLoadParams {
    /// A short smoke run.
    pub fn smoke() -> PvNetLoadParams {
        PvNetLoadParams {
            target_packets: 10,
            buffers: 64,
        }
    }
}

/// Application copy destination for received payloads.
const APP_BUF: u32 = 0x16_0000;

/// Builds the workload.
pub fn build(p: PvNetLoadParams) -> GuestImage {
    use nova_hw::pv::{net, regs, PV_BASE};
    let base = PV_BASE as u32;
    let ring = layout::PV_NET_RING;
    assert!(p.buffers >= 1 && p.buffers <= net::CAPACITY);

    let params = OsParams {
        pv_net: true,
        ..OsParams::minimal()
    };
    build_os(params, |a, _| {
        // --- PV receive interrupt handler ---
        let after = a.label();
        a.jmp(after);
        let handler = a.here_label();
        a.push_r(Reg::Eax);
        a.push_r(Reg::Ebx);
        a.push_r(Reg::Ecx);
        a.push_r(Reg::Edx);
        a.push_r(Reg::Esi);
        a.push_r(Reg::Edi);

        // Acknowledge the coalesced interrupt (write-1-to-clear): the
        // one register access of the whole handler.
        a.mov_mi(MemRef::abs(base + regs::NET_ISR as u32), 1);
        a.mov_mi(rt::var(vars::SCRATCH), 0); // buffers to repost

        // Drain filled entries straight from the shared ring page.
        let drain = a.here_label();
        // EBX = entry address = ring + ENTRY0 + head * ENTRY_SIZE.
        a.mov_rm(Reg::Ebx, rt::var(vars::RX_HEAD));
        a.shl_ri(Reg::Ebx, 4);
        a.add_ri(Reg::Ebx, ring + net::ENTRY0 as u32);
        a.mov_rm(Reg::Eax, MemRef::base_disp(Reg::Ebx, net::E_STATUS as i32));
        a.test_rr(Reg::Eax, Reg::Eax);
        let done = a.label();
        a.jcc(Cond::E, done);

        // Packet length, byte accounting.
        a.mov_rm(Reg::Ecx, MemRef::base_disp(Reg::Ebx, net::E_LEN as i32));
        a.alu_mr(AluOp::Add, rt::var(vars::RX_BYTES), Reg::Ecx);

        // Copy the payload to the application buffer (dword count) —
        // the one per-packet data-transfer cost.
        a.mov_rm(Reg::Esi, MemRef::base_disp(Reg::Ebx, net::E_BUF as i32));
        a.mov_ri(Reg::Edi, APP_BUF);
        a.add_ri(Reg::Ecx, 3);
        a.shr_ri(Reg::Ecx, 2);
        a.rep_movsd();

        // Consume the entry and advance the head (wrap at capacity).
        a.mov_mi(MemRef::base_disp(Reg::Ebx, net::E_STATUS as i32), 0);
        a.inc_m(rt::var(vars::PKT_COUNT));
        a.mov_rm(Reg::Eax, rt::var(vars::RX_HEAD));
        a.inc_r(Reg::Eax);
        a.cmp_ri(Reg::Eax, net::CAPACITY);
        let no_wrap_h = a.label();
        a.jcc(Cond::B, no_wrap_h);
        a.xor_rr(Reg::Eax, Reg::Eax);
        a.bind(no_wrap_h);
        a.mov_mr(rt::var(vars::RX_HEAD), Reg::Eax);

        // Repost the freed buffer at the producer slot. Buffers cycle
        // with the posting order, so the slot being reposted always
        // reuses the buffer just consumed.
        a.mov_rm(Reg::Ebx, rt::var(vars::PV_SLOT));
        a.shl_ri(Reg::Ebx, 4);
        a.add_ri(Reg::Ebx, ring + net::ENTRY0 as u32);
        a.mov_rm(Reg::Edx, rt::var(vars::PV_AUX));
        a.shl_ri(Reg::Edx, 14); // * 16 KiB
        a.add_ri(Reg::Edx, layout::NIC_BUF);
        a.mov_mr(MemRef::base_disp(Reg::Ebx, net::E_BUF as i32), Reg::Edx);
        a.mov_mi(MemRef::base_disp(Reg::Ebx, net::E_BUF as i32 + 4), 0);
        a.mov_mi(MemRef::base_disp(Reg::Ebx, net::E_LEN as i32), 0x4000);
        a.mov_mi(MemRef::base_disp(Reg::Ebx, net::E_STATUS as i32), 0);
        // Advance slot (wrap at ring capacity) and buffer index
        // (wrap at the buffer count).
        a.mov_rm(Reg::Eax, rt::var(vars::PV_SLOT));
        a.inc_r(Reg::Eax);
        a.cmp_ri(Reg::Eax, net::CAPACITY);
        let no_wrap_s = a.label();
        a.jcc(Cond::B, no_wrap_s);
        a.xor_rr(Reg::Eax, Reg::Eax);
        a.bind(no_wrap_s);
        a.mov_mr(rt::var(vars::PV_SLOT), Reg::Eax);
        a.mov_rm(Reg::Eax, rt::var(vars::PV_AUX));
        a.inc_r(Reg::Eax);
        a.cmp_ri(Reg::Eax, p.buffers);
        let no_wrap_b = a.label();
        a.jcc(Cond::B, no_wrap_b);
        a.xor_rr(Reg::Eax, Reg::Eax);
        a.bind(no_wrap_b);
        a.mov_mr(rt::var(vars::PV_AUX), Reg::Eax);
        a.inc_m(rt::var(vars::SCRATCH));
        a.jmp(drain);

        a.bind(done);
        // One doorbell for the whole refill, only if anything drained.
        a.mov_rm(Reg::Eax, rt::var(vars::SCRATCH));
        a.test_rr(Reg::Eax, Reg::Eax);
        let no_refill = a.label();
        a.jcc(Cond::E, no_refill);
        a.mov_mr(MemRef::abs(base + regs::NET_DOORBELL as u32), Reg::Eax);
        a.bind(no_refill);
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

        // --- Initial ring fill: post every buffer ---
        a.mov_ri(Reg::Edi, ring + net::ENTRY0 as u32);
        a.mov_ri(Reg::Eax, layout::NIC_BUF);
        a.mov_ri(Reg::Ecx, p.buffers);
        let fill = a.here_label();
        a.mov_mr(MemRef::base_disp(Reg::Edi, net::E_BUF as i32), Reg::Eax);
        a.mov_mi(MemRef::base_disp(Reg::Edi, net::E_BUF as i32 + 4), 0);
        a.mov_mi(MemRef::base_disp(Reg::Edi, net::E_LEN as i32), 0x4000);
        a.mov_mi(MemRef::base_disp(Reg::Edi, net::E_STATUS as i32), 0);
        a.add_ri(Reg::Eax, 0x4000);
        a.add_ri(Reg::Edi, net::ENTRY_SIZE as u32);
        a.dec_r(Reg::Ecx);
        a.jcc(Cond::Ne, fill);
        a.mov_mi(rt::var(vars::PV_SLOT), p.buffers);
        a.mov_mi(rt::var(vars::PV_AUX), 0);

        // --- Backend bring-up: ring address, then the initial refill
        // doorbell (two MMIO exits, ever) ---
        a.mov_mi(MemRef::abs(base + regs::NET_RING as u32), ring);
        a.mov_mi(MemRef::abs(base + regs::NET_DOORBELL as u32), p.buffers);

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
    fn pv_nic_stream_reaches_guest_without_register_exits() {
        let p = PvNetLoadParams {
            target_packets: 12,
            buffers: 64,
        };
        let mut cfg = VmmConfig::full_virt(build(p), 4096);
        cfg.name = "pvnet-vm".into();
        cfg.pv_nic = true;
        let mut opts = LaunchOptions::standard(cfg);
        opts.with_disk = false;
        let mut sys = System::build(opts);

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

        // Zero copy: the NIC DMAed into guest frames through the
        // VMM's IOMMU mapping.
        assert!(sys.k.machine.bus.iommu.faults.is_empty());
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

        // Exit structure: bring-up, then one ISR ack and one refill
        // doorbell per coalesced interrupt (the only interrupt source
        // this guest has) — nothing per packet on the data path.
        let mmio = sys.k.counters.exits_of(7);
        let virqs = sys.k.counters.injected_virq;
        assert!(virqs > 0);
        assert!(mmio <= 2 + 2 * virqs, "{mmio} MMIO exits, {virqs} irqs");
    }
}
