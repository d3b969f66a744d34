//! The source gates: rules about where code lives and how large it
//! grows, read off the product source (outside `#[cfg(test)]` items) by
//! the Figure 1 census's scanner, `nova_bench::loc`. They run with the
//! tier-1 tests, so a second bump site, a new knob, a larger kernel or
//! a pattern outside its one home fails under its own name here.

use nova_bench::loc;

/// Every "one home" rule of `loc::HOMES`: a pattern named in product
/// code outside its homes is a second copy of what the home holds, and
/// a home that no longer holds its pattern is a stale rule.
#[test]
fn every_pattern_is_in_its_one_home() {
    let faults = loc::home_faults();
    assert!(faults.is_empty(), "{faults:#?}");
}

/// A workspace crate that a crate lists under `[dependencies]` is named
/// in the product code of its `src/` or in its `benches/`; one only its
/// tests name is a `[dev-dependencies]` entry.
#[test]
fn workspace_crates_name_what_they_depend_on() {
    let faults = loc::unnamed_dependencies();
    assert!(faults.is_empty(), "{faults:#?}");
}

/// The registry rule (DESIGN.md §6b): every name in the
/// `Counters` table is bumped at exactly one site of the NOVA
/// stack, which shares the kernel's registry, and at no more than
/// one of the monolithic baseline, which is another system with a
/// registry of its own.
#[test]
fn every_counter_name_has_one_bump_site() {
    let files = loc::product_sources();
    let (baseline, stack): (Vec<_>, Vec<_>) =
        files.iter().partition(|(p, _)| p.starts_with("baseline/"));
    assert!(!baseline.is_empty() && stack.len() > 50);
    for (name, _) in nova_core::Counters::new().iter() {
        let sites = |files: &[&(String, String)]| -> Vec<String> {
            files
                .iter()
                .flat_map(|(p, text)| vec![p.clone(); loc::bumps(text, name)])
                .collect()
        };
        let (in_stack, in_baseline) = (sites(&stack), sites(&baseline));
        assert_eq!(in_stack.len(), 1, "`{name}` is bumped at {in_stack:?}");
        assert!(in_baseline.len() <= 1, "`{name}`: {in_baseline:?}");
    }
}

/// A metric cell that `Kernel::count` or root's `observe` pairs
/// with a counter is written nowhere else, so pair and cell cannot
/// drift apart.
#[test]
fn a_paired_metric_is_added_only_by_the_helper() {
    let files = loc::product_sources();
    /// The last path segment of a call's argument that starts
    /// `text`: `a::b::NAME,…` → `NAME`.
    fn arg(text: &str) -> &str {
        let arg = text.split([',', ')']).next().unwrap_or("");
        arg.rsplit("::").next().unwrap_or(arg)
    }
    // The metric is the helper's second argument behind the field
    // closure for `count(field, metric, …)`, the third for
    // `observe(k, field, n, metric, …)`.
    let helpers = [(".count(|c|&mutc.", 1), ("observe(k,|c|&mutc.", 2)];
    let paired: std::collections::BTreeSet<&str> = files
        .iter()
        .flat_map(|(_, text)| {
            helpers.iter().flat_map(move |&(helper, skip)| {
                let calls = text.split(helper).skip(1);
                calls.filter_map(move |call| call.splitn(skip + 2, ',').nth(skip).map(arg))
            })
        })
        .collect();
    let expect = [
        "CHECKPOINT_BYTES",
        "CHECKPOINT_DIRTY_PAGES",
        "ESCALATIONS_BY_LEVEL",
        "GUEST_FAULT_REJECTED",
        "VMM_RESTARTS",
        "VM_KILLS_BY_REASON",
    ];
    assert_eq!(paired.iter().copied().collect::<Vec<_>>(), expect);
    for (path, text) in &files {
        for by_hand in ["metrics.add(", "metrics.observe("] {
            for call in text.split(by_hand).skip(1) {
                assert!(
                    !paired.contains(arg(call)),
                    "{path} writes the paired metric {} by hand",
                    arg(call)
                );
            }
        }
    }
}

/// The configuration surface, pinned: a new knob — or one that goes
/// — shows up here as a visible diff. Each field is a value some
/// caller sets to something else than its neighbours do (DESIGN.md,
/// "What a caller can configure").
#[test]
fn the_configuration_surface_is_pinned() {
    let expect: [(&str, &[&str]); 7] = [
        (
            "KernelConfig",
            &[
                "use_tags",
                "host_large_pages",
                "scheduler_timer_hz",
                "obj_quota",
                "vtlb_cache_slots",
            ],
        ),
        ("MachineConfig", &["cost", "ram", "iommu", "cpus"]),
        (
            "LaunchOptions",
            &[
                "machine",
                "kernel",
                "with_disk",
                "direct_disk",
                "direct_nic",
                "supervise",
                "microreboot",
                "vmm",
            ],
        ),
        (
            "VmmConfig",
            &[
                "name",
                "paging",
                "guest_pages",
                "vcpus",
                "vcpu_cpus",
                "vcpu_prio",
                "quantum",
                "image",
                "pv_disk",
                "pv_nic",
                "direct_mmio",
                "direct_gsis",
                "mtd_full",
                "protect_kernel",
            ],
        ),
        ("DiskServerConfig", &["heartbeat"]),
        ("DiskServer", &[]),
        (
            "MonoConfig",
            &["paging", "use_tags", "large_pages", "model"],
        ),
    ];
    let got = loc::config_surface();
    for ((name, fields), (want, want_fields)) in got.iter().zip(expect) {
        assert_eq!(*name, want);
        assert_eq!(fields, want_fields, "`{name}`'s pub fields");
    }
    assert_eq!(got.iter().map(|(_, f)| f.len()).sum::<usize>(), 36);
}

/// The long documents, capped in bytes: one that would grow past its
/// cap makes room first. The caps are only ever lowered.
#[test]
fn the_long_documents_are_capped() {
    for (doc, cap) in [
        ("DESIGN.md", 118_878),
        ("EXPERIMENTS.md", 200_545),
        ("CHANGES.md", 187_364),
    ] {
        let path = loc::workspace_root().join(doc);
        let bytes = std::fs::metadata(&path).expect(doc).len();
        assert!(bytes <= cap, "{doc} is {bytes} bytes, capped at {cap}");
    }
}

/// The privileged layer's size, pinned at what `BENCH_fig1.json`
/// commits as the Microhypervisor's `product`: a change that grows
/// the kernel fails here until it moves the pin — and says why.
#[test]
fn the_privileged_layer_is_pinned() {
    const PIN: usize = 4015;
    let product = loc::crate_loc("core").product;
    assert!(
        product <= PIN,
        "the microhypervisor is {product} lines, pinned at {PIN}"
    );
}

/// Every `pub` fn and const of the product is named somewhere
/// besides its declaration: what nothing builds against is deleted,
/// not carried.
#[test]
fn no_pub_item_is_named_only_where_it_is_declared() {
    let unreached = loc::unreached_items();
    assert!(
        unreached.is_empty(),
        "named only where declared: {unreached:#?}"
    );
}
