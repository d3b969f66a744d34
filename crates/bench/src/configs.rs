//! Configuration runners: execute a guest workload under every
//! virtualization architecture of Figure 5 and summarize the result.

use nova_baseline::{MonoConfig, Monolithic};
use nova_core::hostpt::NestedTable;
use nova_core::kernel::HV_MEM;
use nova_core::obj::{MemMapping, MemRights, MemSpace, VmPaging};
use nova_core::RunOutcome;
use nova_hw::cost::CostModel;
use nova_hw::cpu::run_guest;
use nova_hw::machine::{Machine, MachineConfig};
use nova_hw::vmx::{PagingVirt, Vmcs};
use nova_hw::Cycles;
use nova_vmm::{GuestImage, LaunchOptions, System, VmmConfig};
use nova_x86::paging::NestedFormat;

pub use nova_baseline::RunResult;

/// Guest memory for workload runs (32 MB).
pub const GUEST_PAGES: u64 = 8192;

fn machine_cfg(cost: CostModel) -> MachineConfig {
    MachineConfig {
        cost,
        ram: 96 << 20,
        iommu: true,
        cpus: 1,
    }
}

/// Native bare-metal run.
pub fn run_native(cost: CostModel, prog: &GuestImage, budget: Cycles) -> RunResult {
    nova_baseline::run_native_image(machine_cfg(cost), prog, Some(budget), |_| {})
}

/// The "Direct" limit configuration: guest mode with nested paging,
/// every intercept disabled, all devices and interrupts delivered
/// straight to the guest — no virtualization software runs at all
/// (Section 8.1: "this bar represents a limit ... which no virtual
/// environment using nested paging can exceed").
pub fn run_direct_limit(
    cost: CostModel,
    fmt: NestedFormat,
    large_pages: bool,
    tagged: bool,
    prog: &GuestImage,
    budget: Cycles,
) -> RunResult {
    let mut m = Machine::new(machine_cfg(cost));
    m.bus.iommu = nova_hw::iommu::Iommu::disabled();
    let ram = m.mem.size() as u64;
    let mut alloc = nova_core::hostpt::FrameAllocator::new(ram - HV_MEM, HV_MEM);

    // Identity nested table over the whole low RAM + device windows.
    let identity = |p: u64| MemMapping {
        hpa: p * 4096,
        rights: MemRights::RW,
    };
    let mut ms = MemSpace::default();
    ms.map_run(0, (ram - HV_MEM) / 4096, identity); // VGA included
    let nic = nova_hw::machine::NIC_BASE / 4096;
    let devices = [
        nova_hw::machine::AHCI_BASE / 4096,
        nic,
        nic + 1,
        nic + 2,
        nic + 3,
    ];
    for p in devices {
        ms.map(p, identity(p));
    }
    let mut t = NestedTable::new(fmt, &mut alloc, &mut m.mem);
    t.mirror(&mut m.mem, &mut alloc, &ms, (0, nic + 4), large_pages);

    let vpid = if tagged && cost.has_tagged_tlb { 1 } else { 0 };
    let mut vmcs = Vmcs::new(PagingVirt::Nested { root: t.root, fmt }, vpid);
    vmcs.intercept_hlt = false;
    vmcs.intercept_extint = false;
    vmcs.passthrough_ports(0, u16::MAX);
    vmcs.passthrough_ports(u16::MAX, 1);
    let ram_pages = (ram - HV_MEM) / 4096;
    vmcs.guest = prog.boot(ram_pages, 1, |gpa, bytes| m.mem.write_bytes(gpa, bytes));
    m.bus.pic.io_write(nova_hw::pic::MASTER_DATA, 0);
    m.bus.pic.io_write(nova_hw::pic::SLAVE_DATA, 0);

    let mut exit = None;
    while m.clock < budget {
        let cost = m.cost;
        run_guest(
            &mut m.cpus[0],
            &mut m.mem,
            &mut m.bus,
            &cost,
            &mut m.clock,
            &mut vmcs,
            Some(10_000_000),
        );
        exit = m.bus.ctl.shutdown.take();
        if exit.is_some() {
            break;
        }
        if vmcs.halted && m.bus.next_event_due().is_none() {
            break;
        }
    }
    let console = m.serial_text();
    RunResult::new("Direct", &m, exit, None, console)
}

/// NOVA configuration knobs for a Figure 5 run.
#[derive(Clone, Copy, Debug)]
pub struct NovaKnobs {
    /// Memory-virtualization mode of the VM.
    pub paging: VmPaging,
    /// VPID/ASID tags on.
    pub tags: bool,
    /// Large host pages in the nested table.
    pub large_pages: bool,
    /// Full-state transfer descriptors (the MTD ablation).
    pub mtd_full: bool,
}

impl NovaKnobs {
    /// The paper's best configuration: EPT + VPID + large pages.
    pub fn best() -> NovaKnobs {
        NovaKnobs {
            paging: VmPaging::Nested(NestedFormat::Ept4Level),
            tags: true,
            large_pages: true,
            mtd_full: false,
        }
    }
}

/// Builds a NOVA system (microhypervisor + disk server + VMM + VM) for
/// `prog` on a `cost` machine, as `tweak` adjusts the standard launch,
/// lets `before_run` prime the machine, and runs it for `budget`.
fn run_system(
    cost: CostModel,
    prog: &GuestImage,
    budget: Cycles,
    label: &str,
    tweak: impl FnOnce(&mut LaunchOptions),
    before_run: impl FnOnce(&mut Machine),
) -> RunResult {
    let mut opts = LaunchOptions::standard(VmmConfig::full_virt(prog.clone(), GUEST_PAGES));
    opts.machine = machine_cfg(cost);
    tweak(&mut opts);
    let mut sys = System::build(opts);
    before_run(&mut sys.k.machine);
    let exit = match sys.run(Some(budget)) {
        RunOutcome::Shutdown(code) => Some(code),
        _ => None,
    };
    let console = sys.vmm().guest_console();
    RunResult::new(
        label,
        &sys.k.machine,
        exit,
        Some(sys.k.counters.clone()),
        console,
    )
}

/// Full NOVA run (microhypervisor + disk server + VMM + VM).
pub fn run_nova(
    cost: CostModel,
    knobs: NovaKnobs,
    label: &str,
    prog: &GuestImage,
    budget: Cycles,
) -> RunResult {
    let tweak = |o: &mut LaunchOptions| {
        o.vmm.paging = knobs.paging;
        o.vmm.mtd_full = knobs.mtd_full;
        o.kernel.use_tags = knobs.tags;
        o.kernel.host_large_pages = knobs.large_pages;
    };
    run_system(cost, prog, budget, label, tweak, |_| {})
}

/// NOVA run with the disk assigned directly to the VM (Figure 6's
/// "Direct" series: interrupt virtualization only).
pub fn run_nova_direct_disk(cost: CostModel, prog: &GuestImage, budget: Cycles) -> RunResult {
    let tweak = |o: &mut LaunchOptions| {
        o.with_disk = false;
        o.direct_disk = true;
    };
    run_system(cost, prog, budget, "NOVA direct disk", tweak, |_| {})
}

/// NOVA run with the NIC assigned directly (Figure 7).
pub fn run_nova_direct_nic(
    cost: CostModel,
    prog: &GuestImage,
    budget: Cycles,
    start_traffic: impl FnOnce(&mut Machine),
) -> RunResult {
    let tweak = |o: &mut LaunchOptions| {
        o.with_disk = false;
        o.direct_nic = true;
    };
    run_system(cost, prog, budget, "NOVA direct NIC", tweak, start_traffic)
}

/// NOVA run with the paravirtual batched disk ring enabled (Figure
/// 6's "virtual" series: one doorbell exit per request batch instead
/// of ~6 trapped MMIO accesses per request).
pub fn run_nova_pv_disk(cost: CostModel, prog: &GuestImage, budget: Cycles) -> RunResult {
    let tweak = |o: &mut LaunchOptions| o.vmm.pv_disk = true;
    run_system(cost, prog, budget, "NOVA virtual disk", tweak, |_| {})
}

/// NOVA run with the paravirtual NIC backend (Figure 7's "virtual"
/// series: the VMM owns the physical NIC; the guest posts receive
/// buffers through the PV ring and takes zero exits per packet).
pub fn run_nova_pv_nic(
    cost: CostModel,
    prog: &GuestImage,
    budget: Cycles,
    start_traffic: impl FnOnce(&mut Machine),
) -> RunResult {
    let tweak = |o: &mut LaunchOptions| {
        o.vmm.pv_nic = true;
        o.with_disk = false;
    };
    run_system(cost, prog, budget, "NOVA virtual NIC", tweak, start_traffic)
}

/// Monolithic comparator run.
pub fn run_mono(
    cost: CostModel,
    cfg: MonoConfig,
    label: &str,
    prog: &GuestImage,
    budget: Cycles,
) -> RunResult {
    Monolithic::new(machine_cfg(cost), cfg, GUEST_PAGES, prog).run(label, Some(budget))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_guest::compile::{self, CompileParams};

    #[test]
    fn direct_limit_runs_the_compile_workload() {
        let prog = compile::build(CompileParams {
            disk_every: 0, // direct limit has no disk server
            ..CompileParams::smoke()
        });
        let r = run_direct_limit(
            nova_hw::cost::BLM,
            NestedFormat::Ept4Level,
            true,
            true,
            &prog,
            20_000_000_000,
        );
        assert!(r.ok, "direct run finished");
        assert_eq!(r.exits(), 0);
    }

    #[test]
    fn direct_limit_close_to_native() {
        let prog = compile::build(CompileParams {
            disk_every: 0,
            timer_divisor: None,
            ..CompileParams::smoke()
        });
        let native = run_native(nova_hw::cost::BLM, &prog, 20_000_000_000);
        let direct = run_direct_limit(
            nova_hw::cost::BLM,
            NestedFormat::Ept4Level,
            true,
            true,
            &prog,
            20_000_000_000,
        );
        assert!(native.ok && direct.ok);
        // The smoke workload is tiny, so the two-dimensional walk
        // cost is not amortized the way the benchmark-scale workload
        // amortizes it (Figure 5's Direct bar is 99.4%).
        let rel = native.cycles as f64 / direct.cycles as f64;
        assert!(
            (0.7..=1.0).contains(&rel),
            "direct within range of native: {rel}"
        );
        assert!(
            direct.cycles >= native.cycles,
            "nested page walks cannot be free"
        );
    }

    /// Every stack of Figure 5 runs the same image to the same marks,
    /// the same console and the same end — shut down with 0, or halted
    /// for good: the stacks differ by architecture alone. Direct has no
    /// disk server, so it runs only the diskless guests.
    #[test]
    fn every_stack_runs_the_same_guest_to_the_same_marks() {
        use nova_x86::{MemRef, Reg};
        const BUDGET: Cycles = 20_000_000_000;
        let blm = nova_hw::cost::BLM;
        let nova = |paging, large_pages| NovaKnobs {
            paging,
            large_pages,
            ..NovaKnobs::best()
        };
        let ept = VmPaging::Nested(NestedFormat::Ept4Level);
        let npt = VmPaging::Nested(NestedFormat::Npt2Level);
        type Runner = Box<dyn Fn(&GuestImage) -> RunResult>;
        let with_disk: Vec<Runner> = vec![
            Box::new(move |p| run_native(blm, p, BUDGET)),
            Box::new(move |p| run_nova(blm, nova(ept, true), "NOVA EPT 2M", p, BUDGET)),
            Box::new(move |p| run_nova(blm, nova(ept, false), "NOVA EPT 4K", p, BUDGET)),
            Box::new(move |p| {
                let amd = nova_hw::cost::PHENOM_X3;
                run_nova(amd, nova(npt, true), "NOVA NPT", p, BUDGET)
            }),
            Box::new(move |p| run_nova(blm, nova(VmPaging::Shadow, true), "NOVA vTLB", p, BUDGET)),
            Box::new(move |p| run_mono(blm, MonoConfig::kvm_ept(), "KVM EPT", p, BUDGET)),
            Box::new(move |p| run_mono(blm, MonoConfig::kvm_shadow(), "KVM shadow", p, BUDGET)),
            Box::new(move |p| run_mono(blm, MonoConfig::xen_pv(), "Xen PV", p, BUDGET)),
        ];
        let direct: Runner = Box::new(move |p| {
            run_direct_limit(blm, NestedFormat::Ept4Level, true, true, p, BUDGET)
        });

        let diskless = compile::build(CompileParams {
            disk_every: 0,
            ..CompileParams::smoke()
        });
        let diskload = nova_guest::diskload::build(nova_guest::diskload::DiskLoadParams {
            requests: 4,
            block_bytes: 8192,
        });
        // Stores to the legacy PC hole, reloads the word and reads one
        // it never wrote: RAM to the guest, whichever stack backs it.
        let hole = nova_guest::os::build_os(nova_guest::os::OsParams::minimal(), |a, _| {
            a.mov_mi(MemRef::abs(0xa_0000), 0x1234_5678);
            for at in [0xa_0000, 0xa_1000] {
                a.mov_rm(Reg::Eax, MemRef::abs(at));
                a.mov_ri(Reg::Edx, 0xf5);
                a.out_dx_eax();
            }
        });
        // The AHCI port driven without interrupts: `bytes` stored at
        // guest-physical `at`, one dword move each.
        use nova_guest::rt::layout::{DISK_BUF, DISK_CMD, DISK_CTBA};
        use nova_hw::ahci::{cmd, regs};
        use nova_hw::machine::AHCI_BASE;
        let store = |a: &mut nova_x86::asm::Asm, at: u32, bytes: &[u8]| {
            for (i, dword) in bytes.chunks_exact(4).enumerate() {
                let val = u32::from_le_bytes(dword.try_into().unwrap());
                a.mov_mi(MemRef::abs(at + 4 * i as u32), val);
            }
        };
        let port = |reg: u32| MemRef::abs(AHCI_BASE as u32 + reg);
        let mark_eax = |a: &mut nova_x86::asm::Asm| {
            a.mov_ri(Reg::Edx, 0xf5);
            a.out_dx_eax();
        };
        // EAX, EBX and boot-information words 1–3, marked before the
        // guest writes anything: the handoff every stack enters a guest
        // with (word 0, the RAM size, is each stack's own).
        let handoff = {
            use nova_guest::rt::{emit_exit, layout};
            let mut a = nova_x86::asm::Asm::new(layout::CODE);
            mark_eax(&mut a);
            a.mov_rr(Reg::Eax, Reg::Ebx);
            mark_eax(&mut a);
            for word in 1..4 {
                let info = nova_hw::machine::BOOT_INFO_GPA as u32 + 4 * word;
                a.mov_rm(Reg::Eax, MemRef::abs(info));
                mark_eax(&mut a);
            }
            emit_exit(&mut a, 0);
            GuestImage {
                bytes: a.finish(),
                load_gpa: layout::CODE as u64,
                entry: layout::CODE,
                stack: layout::STACK,
            }
        };
        // Two reads in slots 0 and 1, rung in one doorbell write and
        // polled to completion; then each buffer's first dword.
        let two_slots = nova_guest::os::build_os(nova_guest::os::OsParams::minimal(), |a, _| {
            a.mov_mi(port(regs::P0CLB), DISK_CMD);
            for slot in 0..2u32 {
                let (ctba, buf) = (DISK_CTBA + 0x100 * slot, DISK_BUF + 0x1000 * slot);
                let header = cmd::Header {
                    prdtl: 1,
                    ctba: ctba as u64,
                };
                store(a, DISK_CMD + 32 * slot, &header.encode());
                let fis = cmd::Cfis {
                    write: false,
                    lba: 16 + 24 * slot as u64,
                    sectors: 8,
                };
                store(a, ctba, &fis.encode()[..16]);
                let prd = cmd::prd::encode(buf as u64, 4096);
                store(a, ctba + cmd::PRDT_OFFSET as u32, &prd);
            }
            a.mov_mi(port(regs::P0CI), 0b11);
            let poll = a.here_label();
            a.mov_rm(Reg::Eax, port(regs::P0CI));
            a.test_rr(Reg::Eax, Reg::Eax);
            a.jcc(nova_x86::insn::Cond::Ne, poll);
            for at in [DISK_BUF, DISK_BUF + 0x1000] {
                a.mov_rm(Reg::Eax, MemRef::abs(at));
                mark_eax(a);
            }
        });
        // The PCI ID of 00:02.0, the i8042's status byte, and P0CI and
        // P0IS after ringing slot 0 over a zeroed command table.
        let legacy = nova_guest::os::build_os(nova_guest::os::OsParams::minimal(), |a, _| {
            a.mov_ri(Reg::Edx, 0xcf8);
            a.mov_ri(Reg::Eax, 1 << 31 | 2 << 11);
            a.out_dx_eax();
            a.mov_ri(Reg::Edx, 0xcfc);
            a.in_eax_dx();
            mark_eax(a);
            a.xor_rr(Reg::Eax, Reg::Eax);
            a.in_al_imm(0x64);
            mark_eax(a);
            a.mov_mi(port(regs::P0CLB), DISK_CMD);
            let header = cmd::Header {
                prdtl: 1,
                ctba: DISK_CTBA as u64,
            };
            store(a, DISK_CMD, &header.encode());
            a.mov_mi(port(regs::P0CI), 1);
            for reg in [regs::P0CI, regs::P0IS] {
                a.mov_rm(Reg::Eax, port(reg));
                mark_eax(a);
            }
        });
        // With interrupts off, one AHCI read rung and the vCPU halted —
        // at once, or once P0CI reads 0, so that the completion
        // interrupt is pending at the HLT — then `DISK_DONE` marked. No
        // interrupt wakes a CPU halted with IF clear.
        let masked_halt = |poll: bool| {
            use nova_guest::os::{build_os, OsParams};
            let disk = OsParams {
                disk: true,
                ..OsParams::minimal()
            };
            build_os(disk, |a, _| {
                a.cli();
                a.mov_ri(Reg::Eax, 0x11);
                mark_eax(a);
                let header = cmd::Header {
                    prdtl: 1,
                    ctba: DISK_CTBA as u64,
                };
                store(a, DISK_CMD, &header.encode());
                let fis = cmd::Cfis {
                    write: false,
                    lba: 16,
                    sectors: 8,
                };
                store(a, DISK_CTBA, &fis.encode()[..16]);
                let prd = cmd::prd::encode(DISK_BUF as u64, 4096);
                store(a, DISK_CTBA + cmd::PRDT_OFFSET as u32, &prd);
                a.mov_mi(port(regs::P0CI), 1);
                if poll {
                    let busy = a.here_label();
                    a.mov_rm(Reg::Eax, port(regs::P0CI));
                    a.test_rr(Reg::Eax, Reg::Eax);
                    a.jcc(nova_x86::insn::Cond::Ne, busy);
                }
                a.hlt();
                use nova_guest::rt::{var, vars};
                a.mov_rm(Reg::Eax, var(vars::DISK_DONE));
                mark_eax(a);
            })
        };
        // (name, image, Direct runs it, it shuts down with 0)
        let guests = [
            ("boot handoff", &handoff, true, true),
            ("legacy hole", &hole, true, true),
            ("two AHCI slots in one doorbell", &two_slots, false, true),
            ("legacy devices", &legacy, false, true),
            ("compile without disk", &diskless, true, true),
            (
                "compile",
                &compile::build(CompileParams::smoke()),
                false,
                true,
            ),
            ("diskload", &diskload, false, true),
            ("halt with IF clear", &masked_halt(false), false, false),
            (
                "halt with IF clear, IRQ pending",
                &masked_halt(true),
                false,
                false,
            ),
        ];
        for (guest, image, diskless, shuts_down) in guests {
            let runs: Vec<RunResult> = with_disk
                .iter()
                .chain(diskless.then_some(&direct))
                .map(|run| run(image))
                .collect();
            let values = |r: &RunResult| r.marks.iter().map(|&(_, v)| v).collect::<Vec<_>>();
            let native = &runs[0];
            assert!(
                !native.marks.is_empty(),
                "{guest}: the guest marks its phases"
            );
            for r in &runs {
                let end = ["halted for good", "shut down with 0"][shuts_down as usize];
                assert_eq!(r.ok, shuts_down, "{guest} under {}: not {end}", r.label);
                assert_eq!(
                    values(r),
                    values(native),
                    "{guest} under {}: marks",
                    r.label
                );
                assert_eq!(
                    r.console, native.console,
                    "{guest} under {}: console",
                    r.label
                );
            }
        }
    }
}
