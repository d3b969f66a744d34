//! Deterministic hostile-guest generator: seeded Byzantine guest
//! programs that attack every guest-input surface the hypervisor
//! validates — the paravirtual disk and net rings, the vAHCI command
//! structures, the page tables walked by the shadow-paging vTLB, and
//! the instruction bytes fed to the emulator.
//!
//! [`plan`] is a pure function of `(surface, seed)`: the same pair
//! always yields byte-identical machine code and the same expected
//! outcome, so a fuzz failure is reproducible from its seed alone.
//! The RNG mirrors the fault injector's conditioning and xorshift
//! step, keeping the platform's "deterministic adversity" idiom in
//! one recognizable shape.
//!
//! Each plan states its contract: either the hypervisor must kill the
//! VM with one specific [`VmKill`] (surface + reason, checked through
//! the structured exit code), or the guest must survive the attack
//! and report a guest-visible error through its own exit code. A
//! hypervisor panic is never acceptable — that is the harness's core
//! assertion.

use nova_hw::guestfault::{GuestFault, GuestSurface, VmKill};
use nova_hw::machine::{GuestImage, AHCI_BASE};
use nova_hw::pv;
use nova_x86::asm::Asm;
use nova_x86::insn::{AluOp, Cond};
use nova_x86::reg::Reg;
use nova_x86::MemRef;

use crate::os::{build_os, OsParams};
use crate::rt::{self, layout};

/// Guest RAM size (pages) every hostile plan assumes: 16 MB.
pub const GUEST_PAGES: u64 = 4096;

/// Guest RAM size in bytes.
pub const RAM_BYTES: u32 = (GUEST_PAGES as u32) * 4096;

/// Exit code of a surviving hostile PV-disk guest that saw every
/// malformed descriptor answered with `ST_ERROR`.
pub const EXIT_PV_DISK_OK: u8 = 0x30;
/// Exit code of a surviving hostile vAHCI guest that observed the
/// task-file-error response.
pub const EXIT_VAHCI_OK: u8 = 0x40;
/// Exit code of a surviving hostile vTLB guest whose #PF handler ran.
pub const EXIT_VTLB_OK: u8 = 0x55;

/// Deterministic xorshift RNG, seeded exactly like the fault
/// injector's stream (splitmix-style conditioning, forced odd).
pub struct HostileRng {
    state: u64,
}

impl HostileRng {
    /// Conditions `seed` the same way `nova_hw::fault` does.
    pub fn new(seed: u64) -> HostileRng {
        HostileRng {
            state: seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
        }
    }

    /// Next raw 64-bit value.
    #[allow(clippy::should_implement_trait)] // not an Iterator; mirrors fault::Rng
    pub fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Uniform-ish value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The attack surfaces the fuzzer drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Surface {
    /// Paravirtual disk ring registers and descriptors.
    PvDiskRing,
    /// Paravirtual net ring registers and entries.
    PvNetRing,
    /// vAHCI command list / table / PRDT structures.
    Vahci,
    /// Guest page tables walked by the shadow-paging vTLB.
    VtlbWalk,
    /// Instruction bytes reaching the MMIO emulator.
    Emulator,
}

impl Surface {
    /// All fuzzed surfaces.
    pub const ALL: [Surface; 5] = [
        Surface::PvDiskRing,
        Surface::PvNetRing,
        Surface::Vahci,
        Surface::VtlbWalk,
        Surface::Emulator,
    ];

    /// Stable diagnostic name.
    pub fn name(self) -> &'static str {
        match self {
            Surface::PvDiskRing => "pv-disk-ring",
            Surface::PvNetRing => "pv-net-ring",
            Surface::Vahci => "vahci",
            Surface::VtlbWalk => "vtlb-walk",
            Surface::Emulator => "emulator",
        }
    }
}

/// The contract a hostile plan imposes on the hypervisor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Expect {
    /// The VM must be killed with exactly this structured record.
    Kill(VmKill),
    /// The VM must survive and exit voluntarily with this code (the
    /// attack is answered with a guest-visible error instead).
    Exit(u8),
}

/// VM features the launching test must configure for a plan.
#[derive(Clone, Copy, Debug, Default)]
pub struct Needs {
    /// Attach the paravirtual disk backend.
    pub pv_disk: bool,
    /// Attach the paravirtual NIC backend (primary-VM only wiring).
    pub pv_nic: bool,
    /// Run under shadow paging (vTLB) instead of nested paging.
    pub shadow_paging: bool,
}

/// One deterministic hostile-guest scenario.
pub struct HostilePlan {
    /// Surface under attack.
    pub surface: Surface,
    /// Seed the plan was derived from.
    pub seed: u64,
    /// Human-readable mutation label (stable per `(surface, seed)`).
    pub mutation: &'static str,
    /// Required outcome.
    pub expect: Expect,
    /// VM configuration the launcher must apply.
    pub needs: Needs,
    /// Lower bound on `guest_faults_rejected` after the run.
    pub min_rejections: u64,
    /// The guest program.
    pub program: GuestImage,
}

/// An infinite spin — used after a write that must be fatal, so a
/// hypervisor that wrongly tolerates the input hits the cycle budget
/// instead of exiting cleanly.
fn spin(a: &mut Asm) {
    let l = a.here_label();
    a.jmp(l);
}

/// A page-aligned guest-physical address strictly outside guest RAM.
fn oob_page(rng: &mut HostileRng) -> u32 {
    RAM_BYTES + ((rng.below(0xf00) as u32) << 12)
}

/// Builds the deterministic plan for `(surface, seed)`. Pure: the
/// same arguments always produce byte-identical programs and the
/// same expectations.
pub fn plan(surface: Surface, seed: u64) -> HostilePlan {
    let mut rng = HostileRng::new(seed ^ ((surface as u64) << 56));
    match surface {
        Surface::PvDiskRing => plan_pv_disk(seed, &mut rng),
        Surface::PvNetRing => plan_pv_net(seed, &mut rng),
        Surface::Vahci => plan_vahci(seed, &mut rng),
        Surface::VtlbWalk => plan_vtlb(seed, &mut rng),
        Surface::Emulator => plan_emulator(seed, &mut rng),
    }
}

/// PV disk ring attacks: a misaligned ring, a ring outside RAM (both
/// structural kills), or a batch of malformed descriptors the backend
/// must answer with `ST_ERROR` while the VM survives.
fn plan_pv_disk(seed: u64, rng: &mut HostileRng) -> HostilePlan {
    let base = pv::PV_BASE as u32;
    match seed % 3 {
        0 => {
            let off = 4 + (rng.below(1022) as u32) * 4;
            let program = build_os(OsParams::minimal(), |a, _| {
                a.mov_mi(
                    MemRef::abs(base + pv::regs::DISK_RING as u32),
                    layout::PV_DISK_RING + off,
                );
                spin(a);
            });
            HostilePlan {
                surface: Surface::PvDiskRing,
                seed,
                mutation: "ring-misaligned",
                expect: Expect::Kill(VmKill::new(
                    GuestSurface::PvDiskRing,
                    GuestFault::Misaligned,
                )),
                needs: Needs {
                    pv_disk: true,
                    ..Needs::default()
                },
                min_rejections: 1,
                program,
            }
        }
        1 => {
            let gpa = oob_page(rng);
            let program = build_os(OsParams::minimal(), |a, _| {
                a.mov_mi(MemRef::abs(base + pv::regs::DISK_RING as u32), gpa);
                spin(a);
            });
            HostilePlan {
                surface: Surface::PvDiskRing,
                seed,
                mutation: "ring-out-of-ram",
                expect: Expect::Kill(VmKill::new(GuestSurface::PvDiskRing, GuestFault::BadBase)),
                needs: Needs {
                    pv_disk: true,
                    ..Needs::default()
                },
                min_rejections: 1,
                program,
            }
        }
        _ => {
            // Malformed descriptors: each one carries exactly one bad
            // field, and the backend must complete all of them with
            // `ST_ERROR` synchronously at the doorbell — the VM lives.
            let count = 1 + rng.below(6) as u32;
            let mut descs = Vec::new();
            for _ in 0..count {
                let (op, sectors, buf) = match rng.below(3) {
                    0 => (3 + rng.below(250) as u32, 8, layout::DISK_BUF),
                    1 => {
                        let sectors = if rng.below(2) == 0 {
                            0
                        } else {
                            1025 + rng.below(7000) as u32
                        };
                        (pv::disk::OP_READ, sectors, layout::DISK_BUF)
                    }
                    _ => (pv::disk::OP_WRITE, 8, oob_page(rng)),
                };
                descs.push((op, sectors, buf));
            }
            let program = build_os(
                OsParams {
                    pv_disk: true,
                    ..OsParams::minimal()
                },
                |a, _| {
                    let ring = layout::PV_DISK_RING;
                    for (i, &(op, sectors, buf)) in descs.iter().enumerate() {
                        let d =
                            ring + pv::disk::DESC0 as u32 + i as u32 * pv::disk::DESC_SIZE as u32;
                        a.mov_mi(MemRef::abs(d + pv::disk::D_OP as u32), op);
                        a.mov_mi(MemRef::abs(d + pv::disk::D_SECTORS as u32), sectors);
                        a.mov_mi(MemRef::abs(d + pv::disk::D_LBA as u32), 0);
                        a.mov_mi(MemRef::abs(d + pv::disk::D_LBA as u32 + 4), 0);
                        a.mov_mi(MemRef::abs(d + pv::disk::D_BUF as u32), buf);
                        a.mov_mi(MemRef::abs(d + pv::disk::D_BUF as u32 + 4), 0);
                        a.mov_mi(MemRef::abs(d + pv::disk::D_STATUS as u32), 0xdead);
                    }
                    a.mov_mi(MemRef::abs(base + pv::regs::DISK_DOORBELL as u32), count);
                    // All rejections are synchronous: USED and ERRORS
                    // must both already equal the batch size.
                    let fail = a.label();
                    a.mov_rm(Reg::Eax, MemRef::abs(ring + pv::disk::USED as u32));
                    a.cmp_ri(Reg::Eax, count);
                    a.jcc(Cond::Ne, fail);
                    a.mov_rm(Reg::Eax, MemRef::abs(ring + pv::disk::ERRORS as u32));
                    a.cmp_ri(Reg::Eax, count);
                    a.jcc(Cond::Ne, fail);
                    rt::emit_exit(a, EXIT_PV_DISK_OK);
                    a.bind(fail);
                    rt::emit_exit(a, 0x31);
                },
            );
            HostilePlan {
                surface: Surface::PvDiskRing,
                seed,
                mutation: "descriptors-malformed",
                expect: Expect::Exit(EXIT_PV_DISK_OK),
                needs: Needs {
                    pv_disk: true,
                    ..Needs::default()
                },
                min_rejections: count as u64,
                program,
            }
        }
    }
}

/// PV net ring attacks. The net backend treats every malformed input
/// as structural (there is no per-descriptor error lane), so all
/// three mutations must kill the VM on the `PvNetRing` surface.
/// Assembly fragment that plants one mutation into a guest program.
type BodyFn = Box<dyn FnOnce(&mut Asm)>;

fn plan_pv_net(seed: u64, rng: &mut HostileRng) -> HostilePlan {
    let base = pv::PV_BASE as u32;
    let (mutation, reason, body): (_, _, BodyFn) = match seed % 3 {
        0 => {
            let off = 4 + (rng.below(1022) as u32) * 4;
            (
                "ring-misaligned",
                GuestFault::Misaligned,
                Box::new(move |a: &mut Asm| {
                    a.mov_mi(
                        MemRef::abs(base + pv::regs::NET_RING as u32),
                        layout::PV_NET_RING + off,
                    );
                }),
            )
        }
        1 => {
            let gpa = oob_page(rng);
            (
                "ring-out-of-ram",
                GuestFault::BadBase,
                Box::new(move |a: &mut Asm| {
                    a.mov_mi(MemRef::abs(base + pv::regs::NET_RING as u32), gpa);
                }),
            )
        }
        _ => {
            let buf = oob_page(rng);
            let len = 1 + rng.below(2048) as u32;
            (
                "buffer-out-of-ram",
                GuestFault::BufferOutOfRange,
                Box::new(move |a: &mut Asm| {
                    let e = layout::PV_NET_RING + pv::net::ENTRY0 as u32;
                    a.mov_mi(MemRef::abs(e + pv::net::E_BUF as u32), buf);
                    a.mov_mi(MemRef::abs(e + pv::net::E_BUF as u32 + 4), 0);
                    a.mov_mi(MemRef::abs(e + pv::net::E_LEN as u32), len);
                    a.mov_mi(MemRef::abs(e + pv::net::E_STATUS as u32), 0);
                    a.mov_mi(
                        MemRef::abs(base + pv::regs::NET_RING as u32),
                        layout::PV_NET_RING,
                    );
                    a.mov_mi(MemRef::abs(base + pv::regs::NET_DOORBELL as u32), 1);
                }),
            )
        }
    };
    let program = build_os(OsParams::minimal(), |a, _| {
        body(a);
        spin(a);
    });
    HostilePlan {
        surface: Surface::PvNetRing,
        seed,
        mutation,
        expect: Expect::Kill(VmKill::new(GuestSurface::PvNetRing, reason)),
        needs: Needs {
            pv_nic: true,
            ..Needs::default()
        },
        min_rejections: 1,
        program,
    }
}

/// vAHCI attacks: seven single-field corruptions of the command list
/// / command table / PRDT. The device answers each with a task-file
/// error (`P0IS` bit 30) and the VM survives to observe it — AHCI has
/// an in-band error lane, so nothing here is a kill.
fn plan_vahci(seed: u64, rng: &mut HostileRng) -> HostilePlan {
    use nova_hw::ahci::regs;
    let mut clb = layout::DISK_CMD;
    let mut ctba_field = layout::DISK_CTBA;
    let mut fis0 = 0x27u32;
    let mut cmd = 0x25u32;
    let mut sectors = 8u32;
    let mut prdtl = 1u32;
    let mut buf = layout::DISK_BUF;
    let mutation = match seed % 7 {
        0 => {
            clb = oob_page(rng);
            "command-list-out-of-ram"
        }
        1 => {
            ctba_field = oob_page(rng);
            "command-table-out-of-ram"
        }
        2 => {
            fis0 = 0x28 + rng.below(0x50) as u32;
            "fis-type-invalid"
        }
        3 => {
            cmd = [0x20u32, 0x30, 0xc8, 0xec][rng.below(4) as usize];
            "ata-command-unsupported"
        }
        4 => {
            sectors = 0;
            "sector-count-zero"
        }
        5 => {
            prdtl = if rng.below(2) == 0 {
                0
            } else {
                9 + rng.below(56) as u32
            };
            "prdtl-out-of-range"
        }
        _ => {
            buf = oob_page(rng);
            "prd-buffer-out-of-ram"
        }
    };
    let dbc = sectors.max(1) * 512 - 1;
    let program = build_os(OsParams::minimal(), |a, _| {
        let base = AHCI_BASE as u32;
        // Command structures are always built in valid RAM; the
        // mutated *field values* carry the hostility.
        a.mov_mi(MemRef::abs(layout::DISK_CMD), (prdtl << 16) | 5);
        a.mov_mi(MemRef::abs(layout::DISK_CMD + 4), 0);
        a.mov_mi(MemRef::abs(layout::DISK_CMD + 8), ctba_field);
        a.mov_mi(MemRef::abs(layout::DISK_CMD + 12), 0);
        let t = layout::DISK_CTBA;
        a.mov_mi(MemRef::abs(t), fis0 | 0x80 << 8 | cmd << 16);
        a.mov_mi(MemRef::abs(t + 4), 0x40 << 24);
        a.mov_mi(MemRef::abs(t + 8), 0);
        a.mov_mi(MemRef::abs(t + 12), sectors & 0xffff);
        a.mov_mi(MemRef::abs(t + 0x80), buf);
        a.mov_mi(MemRef::abs(t + 0x84), 0);
        a.mov_mi(MemRef::abs(t + 0x88), 0);
        a.mov_mi(MemRef::abs(t + 0x8c), dbc);
        a.mov_mi(MemRef::abs(base + regs::P0CLB), clb);
        a.mov_mi(MemRef::abs(base + regs::P0CLB2), 0);
        a.mov_mi(MemRef::abs(base + regs::P0CI), 1);
        // The rejection is synchronous: the task-file-error bit must
        // already be latched in P0IS.
        let good = a.label();
        a.mov_rm(Reg::Eax, MemRef::abs(base + regs::P0IS));
        a.alu_ri(AluOp::And, Reg::Eax, 1 << 30);
        a.jcc(Cond::Ne, good);
        rt::emit_exit(a, 0x41);
        a.bind(good);
        rt::emit_exit(a, EXIT_VAHCI_OK);
    });
    HostilePlan {
        surface: Surface::Vahci,
        seed,
        mutation,
        expect: Expect::Exit(EXIT_VAHCI_OK),
        needs: Needs::default(),
        min_rejections: 1,
        program,
    }
}

/// vTLB attacks under shadow paging: a page-table entry pointing
/// outside RAM must surface as an architectural #PF in the guest
/// (whose handler proves it survived); a CR3 outside RAM on a guest
/// with no IDT wedges the vCPU and must be a structured triple-fault
/// kill. The vTLB deliberately does not count walk rejections — the
/// #PF injection *is* the rejection — so `min_rejections` is zero.
fn plan_vtlb(seed: u64, rng: &mut HostileRng) -> HostilePlan {
    if seed.is_multiple_of(2) {
        let idx = 1 + rng.below(rt::KERNEL_PDES as u64 - 1) as u32;
        let frame = 0x0400_0000 + ((rng.below(0xf00) as u32) << 12);
        let va = (idx << 22) | ((rng.below(1024) as u32) << 12);
        let program = build_os(OsParams::minimal(), |a, _| {
            let after = a.label();
            a.jmp(after);
            let handler = a.here_label();
            rt::emit_exit(a, EXIT_VTLB_OK);
            a.bind(after);
            rt::emit_idt_install(a, 14, handler);
            rt::emit_enable_paging(a);
            // Corrupt one kernel PDE: present + writable but not a
            // large page, so the walk dereferences a PTE frame that
            // lies outside guest RAM.
            a.mov_mi(
                MemRef::abs(layout::BOOT_PD + idx * 4),
                frame | nova_x86::paging::pte::P | nova_x86::paging::pte::W,
            );
            a.mov_ri(Reg::Eax, layout::BOOT_PD);
            a.mov_cr_r(3, Reg::Eax);
            a.mov_rm(Reg::Eax, MemRef::abs(va));
            rt::emit_exit(a, 0x56);
        });
        HostilePlan {
            surface: Surface::VtlbWalk,
            seed,
            mutation: "pde-bad-table-frame",
            expect: Expect::Exit(EXIT_VTLB_OK),
            needs: Needs {
                shadow_paging: true,
                ..Needs::default()
            },
            min_rejections: 0,
            program,
        }
    } else {
        let bad = 0x0400_0000 + ((rng.below(0xf00) as u32) << 12);
        let mut a = Asm::new(layout::CODE);
        a.mov_ri(Reg::Eax, bad);
        a.mov_cr_r(3, Reg::Eax);
        a.mov_r_cr(Reg::Eax, 0);
        a.alu_ri(AluOp::Or, Reg::Eax, nova_x86::reg::cr0::PG);
        a.mov_cr_r(0, Reg::Eax);
        spin(&mut a);
        let program = GuestImage {
            bytes: a.finish(),
            load_gpa: layout::CODE as u64,
            entry: layout::CODE,
            stack: layout::STACK,
        };
        HostilePlan {
            surface: Surface::VtlbWalk,
            seed,
            mutation: "cr3-out-of-ram",
            expect: Expect::Kill(VmKill::new(
                GuestSurface::CpuState,
                GuestFault::UnrecoverableCpuState,
            )),
            needs: Needs {
                shadow_paging: true,
                ..Needs::default()
            },
            min_rejections: 0,
            program,
        }
    }
}

/// Emulator attacks: redirect execution into an MMIO hole, so the
/// instruction fetch yields no decodable bytes. The emulator must
/// refuse and the VMM must kill the VM with the undecodable-
/// instruction record.
fn plan_emulator(seed: u64, rng: &mut HostileRng) -> HostilePlan {
    let (mutation, hole) = if seed.is_multiple_of(2) {
        ("execute-pv-mmio", pv::PV_BASE as u32)
    } else {
        ("execute-ahci-mmio", AHCI_BASE as u32)
    };
    let target = hole + rng.below(0xf00) as u32;
    let program = build_os(OsParams::minimal(), |a, _| {
        a.mov_ri(Reg::Eax, target);
        a.jmp_r(Reg::Eax);
    });
    HostilePlan {
        surface: Surface::Emulator,
        seed,
        mutation,
        expect: Expect::Kill(VmKill::new(
            GuestSurface::Emulator,
            GuestFault::UndecodableInstruction,
        )),
        needs: Needs::default(),
        min_rejections: 0,
        program,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_matches_conditioning() {
        let mut a = HostileRng::new(42);
        let mut b = HostileRng::new(42);
        for _ in 0..64 {
            assert_eq!(a.next(), b.next());
        }
        // Different seeds diverge immediately.
        assert_ne!(HostileRng::new(1).next(), HostileRng::new(2).next());
    }

    #[test]
    fn plans_are_byte_reproducible() {
        for surface in Surface::ALL {
            for seed in 0..8u64 {
                let p1 = plan(surface, seed);
                let p2 = plan(surface, seed);
                assert_eq!(p1.program.bytes, p2.program.bytes, "{surface:?}/{seed}");
                assert_eq!(p1.mutation, p2.mutation);
                assert_eq!(p1.expect, p2.expect);
                assert_eq!(p1.min_rejections, p2.min_rejections);
            }
        }
    }

    #[test]
    fn every_surface_reaches_every_mutation() {
        use std::collections::BTreeSet;
        for surface in Surface::ALL {
            let muts: BTreeSet<&str> = (0..16).map(|s| plan(surface, s).mutation).collect();
            let want = match surface {
                Surface::PvDiskRing | Surface::PvNetRing => 3,
                Surface::Vahci => 7,
                Surface::VtlbWalk | Surface::Emulator => 2,
            };
            assert_eq!(muts.len(), want, "{surface:?}: {muts:?}");
        }
    }

    #[test]
    fn kill_expectations_carry_stable_exit_codes() {
        let p = plan(Surface::PvDiskRing, 0);
        match p.expect {
            Expect::Kill(k) => assert_eq!(k.exit_code(), 0xe0),
            Expect::Exit(_) => panic!("seed 0 must be a kill plan"),
        }
        let p = plan(Surface::Emulator, 0);
        match p.expect {
            Expect::Kill(k) => assert_eq!(k.exit_code(), 0xfe),
            Expect::Exit(_) => panic!("emulator plans are kills"),
        }
    }
}
