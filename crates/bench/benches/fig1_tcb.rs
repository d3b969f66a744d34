//! Figure 1: trusted-computing-base size comparison.
//!
//! Counts the lines of this reproduction's components and prints them
//! next to the paper's published sizes for NOVA and the contemporary
//! virtualization stacks (which cannot be rebuilt here; their numbers
//! are the paper's). Writes `BENCH_fig1.json`, so the size of the
//! privileged layer has a committed trajectory like every other number
//! — and so has the configuration surface (`config_values`: the `pub`
//! fields of `loc::CONFIG_STRUCTS`), and the reachability census
//! (`unreached`: `pub` fns and consts named only where declared,
//! `loc::unreached_items`).

use nova_bench::loc;
use nova_bench::paper::FIG1_TCB_KLOC;
use nova_bench::report::{banner, write_json, Table};
use nova_trace::json::Json;

const REPO_ROOT: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");

fn main() {
    banner("Figure 1: TCB size of virtual environments");

    println!("\nThis reproduction (counted from source, non-comment lines;");
    println!("`product` leaves out `#[cfg(test)]` items, as the paper's figures do):\n");
    let mut t = Table::new(&[
        "component",
        "product",
        "linked",
        "product+linked",
        "with_tests",
        "privileged",
    ]);
    let mut hv = 0;
    let mut total = loc::Loc::default();
    let tcb = loc::nova_tcb();
    for c in &tcb {
        let linked = loc::files_loc(c.linked.iter().copied()).product;
        if c.privileged {
            hv += c.own.product;
        }
        total += c.own;
        t.row(vec![
            c.label.to_string(),
            c.own.product.to_string(),
            linked.to_string(),
            (c.own.product + linked).to_string(),
            c.own.with_tests.to_string(),
            if c.privileged { "yes" } else { "no" }.into(),
        ]);
    }
    let components = t.to_json();
    // A file two components link is one file of the stack.
    let linked = loc::files_loc(tcb.iter().flat_map(|c| c.linked.iter().copied())).product;
    t.row(vec![
        "TOTAL (per-VM TCB)".into(),
        total.product.to_string(),
        linked.to_string(),
        (total.product + linked).to_string(),
        total.with_tests.to_string(),
        String::new(),
    ]);
    t.print();
    println!(
        "\n`linked`: files of `nova_hw` a component instantiates as its own code (the \
         device register cores and the AHCI command layout), each counted once in TOTAL."
    );

    let share = 100.0 * hv as f64 / (total.product + linked) as f64;
    println!("\nPrivileged (hypervisor) share: {hv} LoC — {share:.0}% of the stack");

    let surface = loc::config_surface();
    let config_values: usize = surface.iter().map(|(_, f)| f.len()).sum();
    println!("\nWhat a caller can configure: {config_values} settable values");
    for (name, fields) in &surface {
        println!("  {name:17} {:2}  {}", fields.len(), fields.join(", "));
    }

    let unreached = loc::unreached_items();
    println!(
        "\n`pub` fns and consts named only where declared: {}",
        unreached.len()
    );
    for item in &unreached {
        println!("  {item}");
    }

    println!("\nPaper's Figure 1 (KLOC):\n");
    let mut t = Table::new(&["system", "privileged", "total stack"]);
    for (name, p, tot) in FIG1_TCB_KLOC {
        t.row(vec![name.into(), format!("{p}K"), format!("{tot}K")]);
    }
    t.print();

    let path = write_json(
        REPO_ROOT,
        "fig1",
        vec![
            ("components".into(), components),
            ("privileged_loc".into(), Json::U64(hv as u64)),
            ("total_loc".into(), Json::U64(total.product as u64)),
            ("config_values".into(), Json::U64(config_values as u64)),
            ("unreached".into(), Json::U64(unreached.len() as u64)),
            ("total_linked_loc".into(), Json::U64(linked as u64)),
            (
                "total_loc_with_tests".into(),
                Json::U64(total.with_tests as u64),
            ),
            (
                "privileged_share_pct".into(),
                Json::F64((share * 10.0).round() / 10.0),
            ),
            ("paper_kloc".into(), t.to_json()),
        ],
    );
    println!("\nwrote {path}");

    let nova_paper_total = 36.0;
    let smallest_other = FIG1_TCB_KLOC[1..]
        .iter()
        .map(|(_, _, t)| *t as f64)
        .fold(f64::INFINITY, f64::min);
    println!(
        "\nShape check: paper's NOVA stack ({nova_paper_total}K) is {:.0}x smaller than \
         the smallest contemporary stack ({smallest_other}K) — 'at least an order of \
         magnitude' holds for the privileged component (9K vs 100K+).",
        smallest_other / nova_paper_total
    );
}
