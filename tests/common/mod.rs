//! Guests and helpers more than one integration suite runs.

#![allow(dead_code)]

use nova_core::{CompCtx, CompId};
use nova_guest::os::{build_os, OsParams};
use nova_guest::rt;
use nova_vmm::vmm::GUEST_BASE_PAGE;
use nova_vmm::{System, VmmConfig};
use nova_x86::insn::Cond;
use nova_x86::reg::Reg;

/// The guest-physical buffer [`reader_guest`] reads into.
pub const READER_BUF: u32 = 0x20_0000;

/// `requests` sequential 4 KB reads into [`READER_BUF`], marks around
/// them: request `i` reads sectors `8·i ..`.
pub fn reader_guest(requests: u32) -> VmmConfig {
    let params = OsParams {
        disk: true,
        ..OsParams::minimal()
    };
    let prog = build_os(params, |a, _| {
        rt::emit_mark(a, 0x1000);
        a.mov_ri(Reg::Esi, 0);
        let req = a.here_label();
        a.mov_rr(Reg::Eax, Reg::Esi);
        a.shl_ri(Reg::Eax, 3);
        a.mov_ri(Reg::Ebx, 8);
        a.mov_ri(Reg::Ecx, READER_BUF);
        rt::emit_disk_read_sync(a);
        a.inc_r(Reg::Esi);
        a.cmp_ri(Reg::Esi, requests);
        a.jcc(Cond::B, req);
        rt::emit_mark(a, 0x1001);
    });
    VmmConfig::full_virt(prog, 2048)
}

/// The identity of VMM `vmm` — its domain and main EC — for a test that
/// acts as that VMM would if it were compromised.
pub fn vmm_ctx(sys: &System, vmm: CompId) -> CompCtx {
    let ec = sys.k.obj.ecs.iter().position(|e| e.comp == Some(vmm));
    let ec = nova_core::EcId(ec.expect("the VMM's main EC") as u16);
    CompCtx {
        pd: sys.k.obj.ec(ec).pd,
        ec,
        comp: vmm,
    }
}

/// `len` bytes of guest-physical memory from `gpa` of the VM behind
/// VMM `vmm`, read through the VMM's mapping of guest RAM.
pub fn guest_bytes(sys: &System, vmm: CompId, gpa: u64, len: usize) -> Vec<u8> {
    let pd = vmm_ctx(sys, vmm).pd;
    let page = GUEST_BASE_PAGE + gpa / 4096;
    let host = sys.k.obj.pd(pd).mem.lookup(page).expect("guest RAM").hpa;
    sys.k.machine.mem.read_bytes(host + gpa % 4096, len)
}
