//! Table 2: distribution of virtualization events for the kernel
//! compilation (under nested paging and under the vTLB) and the 4 KB
//! disk benchmark, plus the Section 8.5 per-exit cost decomposition.

use nova_bench::configs::*;
use nova_bench::paper::{self, TABLE2};
use nova_bench::report::{banner, fmt_count, write_json, Table};
use nova_core::Counters;
use nova_guest::compile::{self, CompileParams};
use nova_guest::diskload::{self, DiskLoadParams};
use nova_trace::json::Json;

const BUDGET: u64 = 3_000_000_000_000;

/// Repository root, relative to this crate (benches run with the
/// package directory as cwd).
const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

/// Extracts the Table 2 row values from measured counters.
fn row_values(c: &Counters, runtime_s: f64) -> Vec<(&'static str, u64)> {
    vec![
        ("vTLB Fill", c.vtlb_fills),
        ("Guest Page Fault", c.guest_page_faults),
        ("CR Read/Write", c.exits_of(5)),
        ("vTLB Flush", c.vtlb_flushes),
        ("Port I/O", c.exits_of(6)),
        ("INVLPG", c.exits_of(4)),
        ("Hardware Interrupts", c.exits_of(0) + c.exits_of(12)),
        ("Memory-Mapped I/O", c.exits_of(7)),
        ("HLT", c.exits_of(3)),
        ("Interrupt Window", c.exits_of(1)),
        ("Total VM Exits", c.total_exits()),
        ("Injected vIRQ", c.injected_virq),
        ("Disk Operations", c.disk_ops),
        ("Runtime (seconds)", (runtime_s * 1000.0) as u64), // milliseconds
    ]
}

fn main() {
    banner("Table 2: distribution of virtualization events");
    let blm = nova_hw::cost::BLM;
    let hz = blm.ident.hz() as f64;

    let prog = compile::build(CompileParams::bench());
    let ept = run_nova(blm, NovaKnobs::best(), "EPT", &prog, BUDGET);
    assert!(ept.ok, "EPT run finished");
    let shadow = NovaKnobs {
        paging: nova_core::obj::VmPaging::Shadow,
        ..NovaKnobs::best()
    };
    let vtlb = run_nova(blm, shadow, "vTLB", &prog, BUDGET);
    assert!(vtlb.ok, "vTLB run finished");

    let disk_prog = diskload::build(DiskLoadParams {
        requests: 512,
        block_bytes: 4096,
    });
    let disk = run_nova(blm, NovaKnobs::best(), "Disk 4k", &disk_prog, BUDGET);
    assert!(disk.ok, "disk run finished");

    let ec = ept.counters.as_ref().unwrap();
    let vc = vtlb.counters.as_ref().unwrap();
    let dc = disk.counters.as_ref().unwrap();
    let er = row_values(ec, ept.cycles as f64 / hz);
    let vr = row_values(vc, vtlb.cycles as f64 / hz);
    let dr = row_values(dc, disk.cycles as f64 / hz);

    let mut t = Table::new(&[
        "Event",
        "EPT",
        "vTLB",
        "Disk4k",
        "paper EPT",
        "paper vTLB",
        "paper Disk4k",
    ]);
    for (i, p) in TABLE2.iter().enumerate() {
        let fmt_opt = |v: Option<u64>| v.map(fmt_count).unwrap_or_else(|| "-".into());
        let name = p.name;
        let label = if name == "Runtime (seconds)" {
            "Runtime (ms here / s paper)"
        } else {
            name
        };
        t.row(vec![
            label.to_string(),
            fmt_count(er[i].1),
            fmt_count(vr[i].1),
            fmt_count(dr[i].1),
            fmt_opt(p.ept),
            fmt_opt(p.vtlb),
            fmt_opt(p.disk),
        ]);
    }
    t.print();

    let opt = |v: Option<u64>| v.map(Json::U64).unwrap_or(Json::Null);
    let rows = Json::Arr(
        TABLE2
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Json::obj()
                    .field("event", Json::from(p.name))
                    .field("ept", Json::U64(er[i].1))
                    .field("vtlb", Json::U64(vr[i].1))
                    .field("disk4k", Json::U64(dr[i].1))
                    .field("paper_ept", opt(p.ept))
                    .field("paper_vtlb", opt(p.vtlb))
                    .field("paper_disk4k", opt(p.disk))
            })
            .collect(),
    );
    let path = write_json(
        REPO_ROOT,
        "tab2",
        vec![
            (
                "note".into(),
                Json::from("Runtime rows are milliseconds here, seconds in the paper"),
            ),
            ("rows".into(), rows),
        ],
    );
    println!("\nwrote {path}");

    let ratio = vc.total_exits() as f64 / ec.total_exits().max(1) as f64;
    println!(
        "\nShape check: nested paging reduces VM exits by {:.0}x here (paper: ~234x — \
         two orders of magnitude); vTLB fills dominate the vTLB column; MMIO + \
         interrupt-path exits dominate the disk column.",
        ratio
    );

    banner("Section 8.5: average VM-exit cost decomposition (EPT compile run)");
    let total = ec.cycles_transition + ec.cycles_ipc + ec.cycles_emulation + ec.cycles_kernel;
    let avg = ec.avg_exit_cycles();
    let mut t = Table::new(&["component", "cycles", "share %", "paper share %"]);
    t.row(vec![
        "guest/host transitions".into(),
        fmt_count(ec.cycles_transition),
        format!("{:.0}", 100.0 * ec.cycles_transition as f64 / total as f64),
        format!("{:.0}", 100.0 * paper::S85_TRANSITION_SHARE),
    ]);
    t.row(vec![
        "IPC state transfer".into(),
        fmt_count(ec.cycles_ipc),
        format!("{:.0}", 100.0 * ec.cycles_ipc as f64 / total as f64),
        format!("{:.0}", 100.0 * paper::S85_IPC_SHARE),
    ]);
    t.row(vec![
        "VMM emulation".into(),
        fmt_count(ec.cycles_emulation),
        format!("{:.0}", 100.0 * ec.cycles_emulation as f64 / total as f64),
        format!("{:.0}", 100.0 * paper::S85_EMULATION_SHARE),
    ]);
    t.row(vec![
        "hypervisor internal".into(),
        fmt_count(ec.cycles_kernel),
        format!("{:.0}", 100.0 * ec.cycles_kernel as f64 / total as f64),
        "-".into(),
    ]);
    t.print();
    println!(
        "\nAverage cycles per exit: {avg:.0} (paper: ~{:.0}). Only the IPC share is a \
         direct consequence of the decomposed architecture (Section 8.5).",
        paper::S85_AVG_EXIT_CYCLES
    );

    let comp = |cycles: u64, paper_share: Option<f64>| {
        let o = Json::obj()
            .field("cycles", Json::U64(cycles))
            .field("share", Json::F64(cycles as f64 / total as f64));
        match paper_share {
            Some(s) => o.field("paper_share", Json::F64(s)),
            None => o.field("paper_share", Json::Null),
        }
    };
    let path = write_json(
        REPO_ROOT,
        "s85",
        vec![
            ("workload".into(), Json::from("EPT compile run")),
            ("total_exits".into(), Json::U64(ec.total_exits())),
            ("total_cycles".into(), Json::U64(total)),
            ("avg_exit_cycles".into(), Json::F64(avg)),
            (
                "paper_avg_exit_cycles".into(),
                Json::F64(paper::S85_AVG_EXIT_CYCLES),
            ),
            (
                "transition".into(),
                comp(ec.cycles_transition, Some(paper::S85_TRANSITION_SHARE)),
            ),
            (
                "ipc".into(),
                comp(ec.cycles_ipc, Some(paper::S85_IPC_SHARE)),
            ),
            (
                "emulation".into(),
                comp(ec.cycles_emulation, Some(paper::S85_EMULATION_SHARE)),
            ),
            ("kernel".into(), comp(ec.cycles_kernel, None)),
        ],
    );
    println!("wrote {path}");

    fault_injection_section();
}

/// Robustness addendum: the 4 KB disk run repeated under a seeded
/// fault plan, with the injected counts against the recovery and
/// degradation counters they must balance.
fn fault_injection_section() {
    use nova_hw::fault::{FaultKind, FaultPlan};
    use nova_vmm::{LaunchOptions, System, VmmConfig};

    banner("Robustness: seeded fault injection on the 4 KB disk run");
    let prog = diskload::build(DiskLoadParams {
        requests: 64,
        block_bytes: 4096,
    });
    let mut sys = System::build(LaunchOptions::supervised(VmmConfig::full_virt(prog, 2048)));
    sys.k.machine.set_fault_plan(
        FaultPlan::seeded(0x7ab2)
            .with(FaultKind::AhciTaskFileError, 4000, 8)
            .with(FaultKind::AhciLostIrq, 4000, 8)
            .with(FaultKind::AhciSpuriousIrq, 4000, 8)
            .with(FaultKind::AhciStuckDma, 4000, 4)
            .with(FaultKind::IommuFault, 2000, 4),
    );
    let ok = matches!(sys.run(Some(BUDGET)), nova_core::RunOutcome::Shutdown(0));
    assert!(ok, "faulted disk run finished");

    let inj = |k: FaultKind| sys.k.machine.faults().injected[k as usize];
    let injected: Vec<(&str, u64)> = vec![
        ("AHCI task-file error", inj(FaultKind::AhciTaskFileError)),
        ("AHCI lost interrupt", inj(FaultKind::AhciLostIrq)),
        ("AHCI spurious interrupt", inj(FaultKind::AhciSpuriousIrq)),
        ("AHCI stuck DMA", inj(FaultKind::AhciStuckDma)),
        ("IOMMU-blocked DMA", inj(FaultKind::IommuFault)),
    ];
    let iommu_blocks = sys.k.machine.bus.iommu.faults.len() as u64;
    // Every row is the registry's: it outlives any disk-server respawn
    // the plan provokes, so `completed` stays true beside `restarts`.
    let c = &sys.k.counters;
    let mut t = Table::new(&["event", "count"]);
    for (name, v) in injected {
        t.row(vec![format!("injected: {name}"), fmt_count(v)]);
    }
    for (name, v) in [
        ("recovered: media retries", c.disk_media_retries),
        ("recovered: lost-IRQ polls", c.disk_lost_irq_recovered),
        ("recovered: controller resets", c.controller_resets),
        ("absorbed: spurious interrupts", c.spurious_irqs),
        ("logged: IOMMU fault records", iommu_blocks),
        ("degraded: error completions", c.degraded_errors()),
        ("supervision: request timeouts", c.request_timeouts()),
        ("supervision: request retries", c.request_retries()),
        ("supervision: watchdog fires", c.watchdog_fires),
        ("supervision: PD deaths", c.pd_deaths),
        ("supervision: driver restarts", c.driver_restarts),
        ("completed requests", c.disk_ops),
        ("failed requests", c.disk_failed),
    ] {
        t.row(vec![name.into(), fmt_count(v)]);
    }
    t.print();
    println!(
        "\nSame seed, same schedule: the fault trace is deterministic, so every \
         recovery counter above balances its injected cause exactly."
    );
}
