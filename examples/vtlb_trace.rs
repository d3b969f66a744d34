//! Deterministic vTLB trace export (the CI byte-identity gate for the
//! tagged shadow-page-table cache): runs the compile workload under
//! shadow paging with TLB-category tracing enabled and dumps every
//! fill/flush/switch/guest-fault event plus the final vTLB counters
//! as line-oriented JSON. The whole machine is seeded, so two runs
//! produce byte-for-byte identical files; CI runs the example twice
//! and diffs the artifacts — any nondeterminism in shadow-cache
//! lookup, eviction order or resync invalidation shows up as a diff.
//!
//! ```sh
//! cargo run --release --example vtlb_trace [vtlb_trace.jsonl]
//! ```

use std::fmt::Write as _;

use nova::guest::compile::{self, CompileParams};
use nova::hypervisor::obj::VmPaging;
use nova::hypervisor::RunOutcome;
use nova::trace::{cat, Kind};
use nova::vmm::{LaunchOptions, System, VmmConfig};

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "vtlb_trace.jsonl".into());

    let prog = compile::build(CompileParams::smoke());
    let mut cfg = VmmConfig::full_virt(prog, 8192);
    cfg.paging = VmPaging::Shadow;
    let mut sys = System::build(LaunchOptions::standard(cfg));
    sys.k.machine.enable_tracing(cat::TLB);

    let outcome = sys.run(Some(40_000_000_000));
    assert_eq!(outcome, RunOutcome::Shutdown(0), "workload completed");

    let events = sys.k.machine.tracer().events();
    let mut dump = String::new();
    for e in events.iter().filter(|e| {
        matches!(
            e.kind,
            Kind::VtlbFill | Kind::VtlbFlush | Kind::VtlbSwitch | Kind::GuestPageFault
        )
    }) {
        writeln!(
            dump,
            "{{\"cycle\":{},\"pd\":{},\"kind\":\"{:?}\",\"detail\":{}}}",
            e.cycle, e.pd, e.kind, e.detail
        )
        .expect("format event");
    }
    let c = &sys.k.counters;
    writeln!(
        dump,
        "{{\"vtlb_fills\":{},\"vtlb_flushes\":{},\"vtlb_switch_hits\":{},\
         \"vtlb_switch_misses\":{},\"vtlb_shadow_evictions\":{},\"guest_page_faults\":{}}}",
        c.vtlb_fills,
        c.vtlb_flushes,
        c.vtlb_switch_hits,
        c.vtlb_switch_misses,
        c.vtlb_shadow_evictions,
        c.guest_page_faults
    )
    .expect("format summary");
    std::fs::write(&out_path, &dump).expect("write vTLB trace dump");

    println!("wrote {out_path} ({} bytes)", dump.len());
    println!(
        "vTLB: {} fills, {} flushes, CR3 switches {} hit / {} miss, {} evictions, \
         {} guest faults",
        c.vtlb_fills,
        c.vtlb_flushes,
        c.vtlb_switch_hits,
        c.vtlb_switch_misses,
        c.vtlb_shadow_evictions,
        c.guest_page_faults
    );
    assert!(c.vtlb_fills > 0, "shadow fills happened");
    assert!(
        c.vtlb_switch_hits > 0,
        "the tagged shadow cache served CR3 reloads"
    );
}
