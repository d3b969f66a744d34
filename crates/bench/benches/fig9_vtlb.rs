//! Figure 9: the vTLB-miss microbenchmark — cost of one intercepted
//! guest page fault handled by the microhypervisor's shadow-paging
//! code, across Intel CPU generations and with/without VPID tags.
//!
//! Measured by running a guest that strides over 1024 kernel pages
//! twice under shadow paging: the first pass takes one vTLB fill exit
//! per page, the second pass hits the shadow table and takes none.
//! The per-fill cost is the timed difference.

use nova_bench::paper;
use nova_bench::report::{banner, write_json, Table};
use nova_core::obj::VmPaging;
use nova_core::KernelConfig;
use nova_guest::os::{build_os, OsParams};
use nova_guest::rt;
use nova_hw::cost::{CostModel, FIG9_MODELS};
use nova_vmm::{GuestImage, LaunchOptions, System, VmmConfig};
use nova_x86::insn::{AluOp, Cond, MemRef};
use nova_x86::reg::Reg;

const PAGES: u32 = 1024;
const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn guest() -> GuestImage {
    build_os(
        OsParams {
            paging: true,
            pf_handler: false,
            timer_divisor: None,
            disk: false,
            nic: false,
            pv_disk: false,
            pv_net: false,
        },
        |a, _| {
            // Two identical passes over 4 MB..8 MB (PSE-mapped kernel
            // region), marks around each.
            for mark in [0x9000u32, 0x9001, 0x9002] {
                if mark != 0x9000 {
                    // Stride pass.
                    a.mov_ri(Reg::Edi, 4 << 20);
                    a.mov_ri(Reg::Ecx, PAGES);
                    let top = a.here_label();
                    a.alu_rm(AluOp::Add, Reg::Eax, MemRef::base_disp(Reg::Edi, 0));
                    a.add_ri(Reg::Edi, 4096);
                    a.dec_r(Reg::Ecx);
                    a.jcc(Cond::Ne, top);
                }
                rt::emit_mark(a, mark);
            }
        },
    )
}

/// Runs the two-pass guest under shadow paging; returns measured
/// cycles per vTLB fill.
fn measure(cost: CostModel, tags: bool) -> (f64, u64) {
    let mut cfg = VmmConfig::full_virt(guest(), 4096);
    cfg.paging = VmPaging::Shadow;
    let mut opts = LaunchOptions::standard(cfg);
    opts.with_disk = false;
    opts.machine = nova_hw::machine::MachineConfig {
        cost,
        ram: 64 << 20,
        iommu: true,
        cpus: 1,
    };
    opts.kernel = KernelConfig {
        use_tags: tags,
        ..KernelConfig::default()
    };
    let mut sys = System::build(opts);
    let out = sys.run(Some(1_000_000_000_000));
    assert!(
        matches!(out, nova_core::RunOutcome::Shutdown(_)),
        "guest finished: {out:?}"
    );
    let marks = sys.k.machine.marks().to_vec();
    assert_eq!(marks.len(), 3, "three marks");
    let pass1 = marks[1].0 - marks[0].0;
    let pass2 = marks[2].0 - marks[1].0;
    let fills = sys.k.counters.vtlb_fills;
    ((pass1.saturating_sub(pass2)) as f64 / PAGES as f64, fills)
}

fn main() {
    banner("Figure 9: vTLB miss microbenchmark");

    let mut t = Table::new(&[
        "CPU",
        "tags",
        "measured cyc/fill",
        "model cyc",
        "measured ns",
        "paper ns",
    ]);

    let cases: Vec<(CostModel, bool, f64)> = FIG9_MODELS.iter().map(|m| (*m, false, 0.0)).collect();
    let paper_ns = paper::FIG9_VTLB_NS;
    for (i, (m, _, _)) in cases.iter().enumerate() {
        let (cyc, fills) = measure(*m, false);
        assert!(fills >= PAGES as u64, "every page filled ({fills})");
        let model = m.vtlb_miss_cost(false);
        t.row(vec![
            paper_ns[i].0.to_string(),
            "no".into(),
            format!("{cyc:.0}"),
            format!("{model}"),
            format!("{:.0}", m.ident.cycles_to_ns(cyc as u64)),
            format!("{:.0}", paper_ns[i].1),
        ]);
    }
    // BLM with VPID tags.
    let blm = nova_hw::cost::BLM;
    let (cyc, _) = measure(blm, true);
    t.row(vec![
        "BLM VPID".into(),
        "yes".into(),
        format!("{cyc:.0}"),
        format!("{}", blm.vtlb_miss_cost(true)),
        format!("{:.0}", blm.ident.cycles_to_ns(cyc as u64)),
        format!("{:.0}", paper_ns[4].1),
    ]);
    t.print();

    let path = write_json(REPO_ROOT, "fig9", vec![("rows".into(), t.to_json())]);
    println!("wrote {path}");

    println!("\nDecomposition (from the calibrated cost model):");
    let mut t = Table::new(&["CPU", "exit+resume", "6x VMREAD", "vTLB fill sw"]);
    for m in FIG9_MODELS {
        t.row(vec![
            m.ident.core.to_string(),
            format!("{}", m.vm_transition_cost(false)),
            format!("{}", 6 * m.vmread),
            format!("{}", m.vtlb_fill_sw),
        ]);
    }
    t.print();
    println!(
        "\nPaper: the hardware transition accounts for ~80% of the total vTLB miss \
         cost, and transitions get cheaper with each processor generation."
    );
}
