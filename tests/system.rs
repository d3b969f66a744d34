//! Cross-crate integration tests: the full stack (microhypervisor,
//! root partition manager, disk server, VMM, guest OS) exercised
//! end-to-end.

use nova_core::RunOutcome;
use nova_guest::compile::{self, CompileParams};
use nova_guest::diskload::{self, DiskLoadParams};
use nova_guest::os::{build_os, OsParams};
use nova_guest::rt;
use nova_hw::ahci::{Ahci, DiskParams};
use nova_vmm::{LaunchOptions, System, VmmConfig};
use nova_x86::reg::Reg;

/// The slowest tests in this file run only when `NOVA_SLOW_TESTS` is
/// set, keeping the default `cargo test` job inside its wall-clock
/// budget. CI runs an additional full sweep with the variable set.
fn slow_tests_enabled() -> bool {
    std::env::var_os("NOVA_SLOW_TESTS").is_some()
}

/// Returns `true` (and prints a note) when a slow test should be
/// skipped under the fast default configuration.
macro_rules! skip_unless_slow {
    () => {
        if !slow_tests_enabled() {
            eprintln!("skipped: slow test; set NOVA_SLOW_TESTS=1 to run");
            return;
        }
    };
}

#[test]
fn full_stack_guest_console_and_exit_code() {
    let prog = build_os(OsParams::minimal(), |a, _| {
        rt::emit_puts(a, "nova-rs integration\n");
        rt::emit_exit(a, 55);
    });
    let mut sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(prog, 2048)));
    assert_eq!(sys.run(Some(3_000_000_000)), RunOutcome::Shutdown(55));
    assert_eq!(sys.vmm().guest_console(), "nova-rs integration\n");
    assert_eq!(sys.vmm().guest_exit, Some(55));
}

#[test]
fn guest_cpuid_sees_virtualized_identity() {
    let prog = build_os(OsParams::minimal(), |a, _| {
        // CPUID leaf 1 -> report ECX (bit 5 = VMX) via the mark port.
        a.mov_ri(Reg::Eax, 1);
        a.cpuid();
        a.mov_rr(Reg::Eax, Reg::Ecx);
        a.mov_ri(Reg::Edx, 0xf5);
        a.out_dx_eax();
        rt::emit_exit(a, 0);
    });
    let mut sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(prog, 2048)));
    sys.run(Some(3_000_000_000));
    let marks = sys.k.machine.marks().to_vec();
    assert_eq!(marks.len(), 1);
    assert_eq!(
        marks[0].1 & nova_x86::cpuid::feature::VMX,
        0,
        "the VMM hides hardware virtualization from the guest"
    );
}

#[test]
fn disk_data_round_trips_through_all_layers() {
    // Guest reads LBA 777 through vAHCI -> IPC -> disk server -> real
    // controller -> DMA into guest memory.
    let p = DiskLoadParams {
        requests: 1,
        block_bytes: 4096,
    };
    let prog = diskload::build(p);
    let mut sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(prog, 2048)));
    assert_eq!(sys.run(Some(10_000_000_000)), RunOutcome::Shutdown(0));

    let host = 0x1000 * 4096 + rt::layout::DISK_BUF as u64;
    let got = sys.k.machine.mem.read_bytes(host, 4096);
    let expect: Vec<u8> = (0..8)
        .flat_map(|lba| sys.k.machine.ahci().sector(lba))
        .collect();
    assert_eq!(got, expect, "payload identical through the whole stack");

    // The paper's Figure 4 flow left its fingerprints: IPC calls,
    // injected vIRQ, disk-server completion.
    assert!(sys.k.counters.ipc_calls > 0);
    assert!(sys.k.counters.injected_virq >= 1);
    assert_eq!(sys.k.counters.disk_ops, 1);
    assert_eq!(sys.k.counters.disk_bytes, 4096);
}

/// The disk's contents, pinned: one FNV-1a over `Ahci::sector` of
/// LBAs 0–63, 1,000,000 and `u64::MAX − 3`. The guests' checksums steer
/// no branch that a committed report records, so nothing else fails if
/// the bytes a read returns drift.
#[test]
fn the_disk_contents_are_pinned() {
    let disk = Ahci::new(DiskParams::sata_250g(), 11);
    let lbas = (0..64).chain([1_000_000, u64::MAX - 3]);
    let fnv = lbas
        .flat_map(|lba| disk.sector(lba))
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        });
    assert_eq!(
        fnv, 0x0458_e54f_bc31_68f8,
        "disk contents moved: {fnv:#018x}"
    );
}

#[test]
fn compile_workload_event_shape_under_ept() {
    skip_unless_slow!();
    let prog = compile::build(CompileParams::smoke());
    let mut sys = System::build(LaunchOptions::standard(VmmConfig::full_virt(prog, 8192)));
    assert_eq!(sys.run(Some(30_000_000_000)), RunOutcome::Shutdown(0));
    let c = &sys.k.counters;
    // Table 2 EPT column shape: no paging exits at all.
    assert_eq!(c.exits_of(8), 0, "no #PF exits");
    assert_eq!(c.exits_of(5), 0, "no CR exits");
    assert_eq!(c.exits_of(4), 0, "no INVLPG exits");
    assert!(c.exits_of(6) > 0, "port I/O present");
    assert!(c.exits_of(7) > 0, "MMIO present (virtual disk)");
    assert!(c.injected_virq > 0);
    // Section 8.5: the IPC share of exit handling is a minority.
    let total = c.cycles_transition + c.cycles_ipc + c.cycles_emulation + c.cycles_kernel;
    assert!(
        (c.cycles_ipc as f64) < 0.4 * total as f64,
        "IPC share bounded (paper: 15%)"
    );
}

#[test]
fn relative_performance_sanity() {
    skip_unless_slow!();
    // A quick, smoke-scale version of Figure 5's ordering:
    // native <= direct-ish <= EPT <= vTLB runtimes.
    let p = CompileParams {
        disk_every: 0,
        timer_divisor: None,
        ..CompileParams::smoke()
    };
    let prog = compile::build(p);

    let native = nova_baseline::run_native_image(
        nova_hw::machine::MachineConfig::core_i7(96 << 20),
        &prog,
        Some(30_000_000_000),
        |_| {},
    );
    assert!(native.ok);

    let run = |paging| {
        let mut cfg = VmmConfig::full_virt(prog.clone(), 8192);
        cfg.paging = paging;
        let mut opts = LaunchOptions::standard(cfg);
        opts.with_disk = false;
        let mut sys = System::build(opts);
        assert_eq!(sys.run(Some(60_000_000_000)), RunOutcome::Shutdown(0));
        sys.k.machine.clock
    };
    let ept = run(nova_core::obj::VmPaging::Nested(
        nova_x86::paging::NestedFormat::Ept4Level,
    ));
    let vtlb = run(nova_core::obj::VmPaging::Shadow);

    assert!(native.cycles <= ept, "virtualization is not free");
    assert!(
        ept < vtlb,
        "nested paging beats shadow paging: {ept} vs {vtlb}"
    );
}

#[test]
fn mtd_full_costs_more_ipc() {
    skip_unless_slow!();
    let prog = compile::build(CompileParams::smoke());
    let run = |mtd_full| {
        let mut cfg = VmmConfig::full_virt(prog.clone(), 8192);
        cfg.mtd_full = mtd_full;
        let mut sys = System::build(LaunchOptions::standard(cfg));
        assert_eq!(sys.run(Some(30_000_000_000)), RunOutcome::Shutdown(0));
        sys.k.counters.cycles_ipc
    };
    let lean = run(false);
    let full = run(true);
    assert!(
        full > lean,
        "full-state transfer costs more VMREADs: {full} vs {lean}"
    );
}

/// Scheduling fairness between VMs (the Section 9 direction): two
/// guests with different time quanta share the CPU roughly in
/// proportion to their quanta under round-robin at equal priority.
#[test]
fn scheduler_shares_cpu_by_quantum() {
    // Each guest increments a counter forever.
    let spinner = || {
        build_os(OsParams::minimal(), |a, _| {
            let top = a.here_label();
            a.inc_m(nova_x86::MemRef::abs(0x6000));
            a.jmp(top);
        })
    };
    let mut cfg_a = VmmConfig::full_virt(spinner(), 1024);
    cfg_a.quantum = 3_000_000; // 3x the share of B
    let mut opts = LaunchOptions::standard(cfg_a);
    opts.with_disk = false;
    opts.machine.ram = 128 << 20;
    let mut sys = System::build(opts);
    let mut cfg_b = VmmConfig::full_virt(spinner(), 1024);
    cfg_b.quantum = 1_000_000;
    sys.add_vm(cfg_b);

    // A dozen round-robin rotations are plenty to establish the
    // ratio; the slow sweep runs the original long horizon.
    let budget = if slow_tests_enabled() {
        400_000_000
    } else {
        50_000_000
    };
    assert_eq!(sys.run(Some(budget)), RunOutcome::Budget);

    let a_count = sys.k.machine.mem.read_u32(0x1000 * 4096 + 0x6000) as f64;
    let b_base = (0x1000u64 + 1024 + 1).next_multiple_of(512);
    let b_count = sys.k.machine.mem.read_u32(b_base * 4096 + 0x6000) as f64;
    assert!(a_count > 0.0 && b_count > 0.0, "both guests made progress");
    let ratio = a_count / b_count;
    assert!(
        (2.0..=4.5).contains(&ratio),
        "3:1 quanta give roughly 3:1 progress, got {ratio:.2}"
    );
}

/// Priorities strictly dominate: a higher-priority VM that never
/// yields starves a lower-priority one (the scheduler dispatches the
/// highest-priority ready SC, Section 5.1).
#[test]
fn scheduler_priority_dominates() {
    let spinner = || {
        build_os(OsParams::minimal(), |a, _| {
            let top = a.here_label();
            a.inc_m(nova_x86::MemRef::abs(0x6000));
            a.jmp(top);
        })
    };
    let mut cfg_hi = VmmConfig::full_virt(spinner(), 1024);
    cfg_hi.vcpu_prio = 32;
    let mut opts = LaunchOptions::standard(cfg_hi);
    opts.with_disk = false;
    opts.machine.ram = 128 << 20;
    let mut sys = System::build(opts);
    let mut cfg_lo = VmmConfig::full_virt(spinner(), 1024);
    cfg_lo.vcpu_prio = 8;
    sys.add_vm(cfg_lo);

    let budget = if slow_tests_enabled() {
        100_000_000
    } else {
        30_000_000
    };
    assert_eq!(sys.run(Some(budget)), RunOutcome::Budget);
    let hi = sys.k.machine.mem.read_u32(0x1000 * 4096 + 0x6000);
    let b_base = (0x1000u64 + 1024 + 1).next_multiple_of(512);
    let lo = sys.k.machine.mem.read_u32(b_base * 4096 + 0x6000);
    assert!(hi > 0);
    assert_eq!(lo, 0, "lower priority never ran against a spinning high");
}

/// Every vCPU has its own stride of the VM's exit-portal table
/// (Section 5.2): in a 2-vCPU guest each exit, recognised by the
/// physical CPU it was taken on, is delivered through a portal whose
/// id names that vCPU.
#[test]
fn each_vcpu_exits_through_its_own_portal_stride() {
    use nova_trace::{cat, causal, Kind, Phase, Tracer};
    let prog = nova_guest::mp::build(nova_guest::mp::MpParams { shootdowns: 2 });
    let mut cfg = VmmConfig::full_virt(prog, 4096);
    cfg.vcpus = 2;
    cfg.vcpu_cpus = vec![0, 1];
    let mut opts = LaunchOptions::standard(cfg);
    opts.with_disk = false;
    opts.machine.cpus = 2;
    let mut sys = System::build(opts);
    sys.k.machine.bus.trace = Tracer::new(2, 1 << 20, cat::EXIT | cat::KERNEL);
    // A misrouted exit wedges the guest: judge the routing first, over
    // a budget a thousand times what the run needs.
    let out = sys.run(Some(100_000_000));
    assert_eq!(sys.k.machine.tracer().dropped(), 0);

    let mut delivered = [0u32; 2];
    for events in causal::by_context(&sys.k.machine.tracer().events()).values() {
        let Some(exit) = events.iter().find(|e| e.kind == Kind::VmExit) else {
            continue;
        };
        let calls = events
            .iter()
            .filter(|e| e.kind == Kind::IpcCall && e.phase == Phase::Begin && e.pd == exit.pd);
        for call in calls {
            assert_eq!(
                call.detail >> 8,
                exit.cpu as u64,
                "exit {exit:?} via {call:?}"
            );
            assert_eq!(
                call.detail & 0xff,
                exit.detail,
                "reason {exit:?} via {call:?}"
            );
            delivered[exit.cpu as usize] += 1;
        }
    }
    assert!(delivered[0] > 0 && delivered[1] > 0, "{delivered:?}");
    assert_eq!(out, RunOutcome::Shutdown(0));
}

/// True multiprocessor virtualization (Section 7.5): a 2-vCPU guest
/// with each virtual CPU on its own physical processor; the TLB
/// shootdown flows across cores through recall + injection.
#[test]
fn mp_guest_on_two_physical_cpus() {
    skip_unless_slow!();
    let prog = nova_guest::mp::build(nova_guest::mp::MpParams { shootdowns: 2 });
    let mut cfg = VmmConfig::full_virt(prog, 4096);
    cfg.vcpus = 2;
    cfg.vcpu_cpus = vec![0, 1];
    let mut opts = LaunchOptions::standard(cfg);
    opts.with_disk = false;
    opts.machine.cpus = 2;
    let mut sys = System::build(opts);
    let out = sys.run(Some(60_000_000_000));
    assert_eq!(out, RunOutcome::Shutdown(0));
    let host_vars = 0x1000 * 4096 + rt::layout::VARS as u64;
    let acks = sys
        .k
        .machine
        .mem
        .read_u32(host_vars + rt::vars::SHOOT_ACK as u64);
    assert_eq!(acks, 2, "both shootdowns acknowledged across cores");
    // Both physical CPUs actually executed guest code.
    assert!(sys.k.machine.cpus[0].instret > 0);
    assert!(sys.k.machine.cpus[1].instret > 0);
}
