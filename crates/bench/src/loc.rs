//! Source-line census for the Figure 1 TCB comparison: counts
//! non-blank, non-comment Rust lines per crate of this repository, and
//! says how many of them ship. The paper's 9 KLOC is product code, so a
//! component's size here is its `product` figure — what is left when
//! the `#[cfg(test)]` items (unit-test modules, test-only helpers) are
//! taken out; `with_tests` is everything.

use std::collections::HashMap;
use std::ops::AddAssign;
use std::path::{Path, PathBuf};

/// A line count, with and without `#[cfg(test)]` items.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Loc {
    /// Lines outside `#[cfg(test)]` items: what a release build compiles.
    pub product: usize,
    /// All lines.
    pub with_tests: usize,
}

impl AddAssign for Loc {
    fn add_assign(&mut self, o: Loc) {
        self.product += o.product;
        self.with_tests += o.with_tests;
    }
}

/// Calls `line(text, product)` for every line of code in `src`
/// (non-blank, non-`//` lines, trimmed; `/* */` blocks tracked across
/// lines). A `#[cfg(test)]` attribute takes the item it is on out of
/// the product — further attributes, then either a `;`-terminated line
/// or everything up to the matching close brace — and a file whose first
/// line of code is `#![cfg(test)]` is a test module all through. Braces
/// are counted as characters, which `rustfmt`-ed code with balanced
/// format strings satisfies.
fn scan<'a>(src: &'a str, mut line: impl FnMut(&'a str, bool)) {
    /// Where the scan is relative to a `#[cfg(test)]` item.
    enum Test {
        Outside,
        /// Past the attribute, before the item's `{` or `;`.
        Header,
        /// Inside the item's braces, this many deep.
        Body(usize),
    }
    let mut in_block = false;
    let mut test = Test::Outside;
    let mut test_file = None;
    for l in src.lines() {
        let t = l.trim();
        if in_block {
            if t.contains("*/") {
                in_block = false;
            }
            continue;
        }
        if t.is_empty() || t.starts_with("//") {
            continue;
        }
        if t.starts_with("/*") {
            if !t.contains("*/") {
                in_block = true;
            }
            continue;
        }
        let test_file = *test_file.get_or_insert(t.starts_with("#![cfg(test)]"));
        let opens = t.matches('{').count();
        let closes = t.matches('}').count();
        let mut product = false;
        test = match test {
            Test::Outside if t.starts_with("#[cfg(test)]") => Test::Header,
            Test::Outside => {
                product = true;
                Test::Outside
            }
            Test::Header if t.starts_with("#[") => Test::Header,
            Test::Header if opens > closes => Test::Body(opens - closes),
            Test::Header if opens > 0 || t.ends_with(';') => Test::Outside,
            Test::Header => Test::Header,
            Test::Body(depth) if depth + opens > closes => Test::Body(depth + opens - closes),
            Test::Body(_) => Test::Outside,
        };
        line(t, product && !test_file);
    }
}

/// Lines of code in one file, with and without its `#[cfg(test)]`
/// items.
pub fn count_file(src: &str) -> Loc {
    let mut n = Loc::default();
    scan(src, |_, product| {
        n.with_tests += 1;
        n.product += product as usize;
    });
    n
}

/// Calls `file(path, source)` for every `.rs` file under `dir`, outside
/// build output (`target/`) and hidden directories.
fn each_rs_file(dir: &Path, file: &mut impl FnMut(&Path, &str)) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if name == "target" || name.starts_with('.') {
            continue;
        }
        if p.is_dir() {
            each_rs_file(&p, file);
        } else if p.extension().is_some_and(|x| x == "rs") {
            if let Ok(src) = std::fs::read_to_string(&p) {
                file(&p, &src);
            }
        }
    }
}

/// Recursively counts `.rs` lines under a directory.
pub fn count_dir(dir: &Path) -> Loc {
    let mut total = Loc::default();
    each_rs_file(dir, &mut |_, src| total += count_file(src));
    total
}

/// Locates the workspace root (walks up from this crate's manifest).
pub fn workspace_root() -> PathBuf {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.pop(); // crates/
    p.pop(); // root
    p
}

/// LoC of one workspace crate's `src/`.
pub fn crate_loc(name: &str) -> Loc {
    count_dir(&workspace_root().join("crates").join(name).join("src"))
}

/// The device register cores and the AHCI command codec: files of
/// `nova_hw` that are the simulated machine's chips *and*, instantiated
/// again, the VMM's virtual devices.
const DEVICE_CORES: [&str; 7] = [
    "hw/src/pic.rs",
    "hw/src/pit.rs",
    "hw/src/serial.rs",
    "hw/src/kbd.rs",
    "hw/src/pci.rs",
    "hw/src/ahci/port.rs",
    "hw/src/ahci/cmd.rs",
];

/// What the disk server's driver shares with the controller it drives:
/// the register offsets and the command layout.
const AHCI_LAYOUT: [&str; 2] = ["hw/src/ahci/port.rs", "hw/src/ahci/cmd.rs"];

/// One bar segment of Figure 1.
pub struct Component {
    /// Row label.
    pub label: &'static str,
    /// The component's own crate.
    pub own: Loc,
    /// Files outside its crate that it instantiates as its own code
    /// (paths under `crates/`), so that code moved into a shared crate
    /// does not leave the census.
    pub linked: &'static [&'static str],
    /// Runs in the privileged layer.
    pub privileged: bool,
}

/// Lines of the files in `paths` (relative to `crates/`), each counted
/// once.
pub fn files_loc<'a>(paths: impl IntoIterator<Item = &'a str>) -> Loc {
    let mut seen = std::collections::BTreeSet::new();
    let mut total = Loc::default();
    for p in paths.into_iter().filter(|p| seen.insert(*p)) {
        let src = std::fs::read_to_string(workspace_root().join("crates").join(p));
        total += count_file(&src.unwrap_or_else(|e| panic!("census file {p}: {e}")));
    }
    total
}

/// The TCB components of this reproduction, mirroring Figure 1's NOVA
/// bar. `nova_x86` (decoder, executor, paging formats), which the
/// microhypervisor and the VMM both link, is still counted for neither
/// row — ROADMAP item 3.
pub fn nova_tcb() -> Vec<Component> {
    let row = |label, name, linked, privileged| Component {
        label,
        own: crate_loc(name),
        linked,
        privileged,
    };
    vec![
        row("Microhypervisor", "core", &[], true),
        row(
            "User environment (root PM, drivers)",
            "user",
            &AHCI_LAYOUT,
            false,
        ),
        row("VMM", "vmm", &DEVICE_CORES, false),
    ]
}

/// The code of `src` that ships — what [`Loc::product`] counts — with
/// all whitespace taken out, so that a source gate sees a statement the
/// same however `rustfmt` broke it over lines.
fn product_text(src: &str) -> String {
    let mut text = String::new();
    scan(src, |l, product| {
        if product {
            text.extend(l.split_whitespace());
        }
    });
    text
}

/// `(path, product_text)` of every `.rs` file under `crates/*/src`, in
/// path order.
fn product_sources() -> Vec<(String, String)> {
    let mut out = Vec::new();
    let crates = std::fs::read_dir(workspace_root().join("crates"));
    for c in crates.into_iter().flatten().flatten() {
        each_rs_file(&c.path().join("src"), &mut |p, src| {
            out.push((p.display().to_string(), product_text(src)));
        });
    }
    out.sort();
    out
}

/// The structs whose `pub` fields are everything a caller of the stack
/// can set: the kernel, the machine, the launcher, the VMM, the disk
/// server and the monolithic baseline (DESIGN.md, "What a caller can
/// configure").
pub const CONFIG_STRUCTS: [&str; 7] = [
    "KernelConfig",
    "MachineConfig",
    "LaunchOptions",
    "VmmConfig",
    "DiskServerConfig",
    "DiskServer",
    "MonoConfig",
];

/// The `pub` fields of `name`'s definition in whitespace-free product
/// text, or `None` if `text` does not define it.
fn pub_fields(text: &str, name: &str) -> Option<Vec<String>> {
    let start = text.find(&format!("pubstruct{name}{{"))? + name.len() + 10;
    let mut fields = Vec::new();
    let (mut depth, mut field) = (0usize, String::new());
    for c in text[start..].chars() {
        match c {
            '<' | '(' | '[' => depth += 1,
            '>' | ')' | ']' => depth = depth.saturating_sub(1),
            ',' | '}' if depth == 0 => {
                if let Some(f) = field.strip_prefix("pub").filter(|f| !f.starts_with('(')) {
                    fields.push(f.split(':').next().unwrap_or(f).to_string());
                }
                if c == '}' {
                    return Some(fields);
                }
                field.clear();
                continue;
            }
            _ => {}
        }
        field.push(c);
    }
    None
}

/// `(struct, pub fields)` of each of [`CONFIG_STRUCTS`], read off the
/// product source of `crates/`: the settable-value census.
pub fn config_surface() -> Vec<(&'static str, Vec<String>)> {
    let files = product_sources();
    CONFIG_STRUCTS
        .iter()
        .map(|&name| {
            let mut defs = files.iter().filter_map(|(_, text)| pub_fields(text, name));
            let fields = defs
                .next()
                .unwrap_or_else(|| panic!("no `{name}` in crates/"));
            assert!(defs.next().is_none(), "`{name}` is defined twice");
            (name, fields)
        })
        .collect()
}

/// The name a line of code declares as a `pub fn`, `pub const fn` or
/// `pub const`, if it does.
fn pub_item(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("pub ")?;
    let rest = match rest.strip_prefix("const ") {
        Some(c) => c.strip_prefix("fn ").unwrap_or(c),
        None => rest.strip_prefix("fn ")?,
    };
    let end = rest.find(|c: char| !is_ident(c)).unwrap_or(rest.len());
    Some(&rest[..end]).filter(|n| !n.is_empty())
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// The reachability census, by name: `path: name` of every `pub` fn and
/// const of the workspace's product (`src/` of the root package and of
/// each crate) whose name appears exactly once in the code of all its
/// Rust sources — product, tests, benches, examples and `benchmark/` —
/// leaving out the declaring file's own `#[cfg(test)]` items: that is,
/// only where it is declared and by its own unit tests.
/// `BENCH_fig1.json` reports how many as `unreached`.
pub fn unreached_items() -> Vec<String> {
    let root = workspace_root();
    let mut files = Vec::new();
    each_rs_file(&root, &mut |path, src| {
        let path = path.strip_prefix(&root).unwrap_or(path);
        files.push((path.display().to_string(), src.to_string()));
    });
    unreached_in(files.iter().map(|(p, s)| (p.as_str(), s.as_str())))
}

/// [`unreached_items`] over `(path relative to the workspace, source)`
/// pairs.
fn unreached_in<'a>(files: impl Iterator<Item = (&'a str, &'a str)>) -> Vec<String> {
    let mut declared = Vec::new();
    let mut named = HashMap::<&str, usize>::new();
    // Mentions in the test code of the file they are made in.
    let mut own_tests = HashMap::<(&str, &str), usize>::new();
    for (path, src) in files {
        let product_file = path.starts_with("src/")
            || path.starts_with("crates/") && path.split('/').nth(2) == Some("src");
        scan(src, |line, product| {
            for word in line.split(|c: char| !is_ident(c)).filter(|w| !w.is_empty()) {
                *named.entry(word).or_default() += 1;
                if !product {
                    *own_tests.entry((path, word)).or_default() += 1;
                }
            }
            if let Some(name) = pub_item(line).filter(|_| product && product_file) {
                declared.push((path, name));
            }
        });
    }
    let mut unreached: Vec<String> = declared
        .into_iter()
        .filter(|&(path, name)| {
            let tests = own_tests.get(&(path, name)).copied().unwrap_or(0);
            named.get(name).map(|n| n - tests) == Some(1)
        })
        .map(|(path, name)| format!("{path}: {name}"))
        .collect();
    unreached.sort();
    unreached
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comment_and_blank_lines_excluded() {
        let src = "fn f() {\n// comment\n\n/* block\nstill block\n*/\nlet x = 1;\n}\n";
        let n = count_file(src);
        assert_eq!((n.product, n.with_tests), (3, 3)); // fn, let, brace
    }

    #[test]
    fn cfg_test_items_are_not_product() {
        let src = "\
fn shipped() {
    let s = format!(\"{}\", 1);
}
#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    #[test]
    fn t() {
        if true {
            shipped();
        }
    }
}
#[cfg(test)]
use helper::thing;
#[cfg(test)]
fn only_for_tests(
    a: u32,
) -> u32 {
    a
}
fn also_shipped() {}
";
        let n = count_file(src);
        assert_eq!(n.product, 4, "the two shipped fns");
        assert_eq!(n.with_tests, 23);
    }

    #[test]
    fn a_file_that_opens_with_cfg_test_is_test_code() {
        let test_file = "//! Tests.\n\n#![cfg(test)]\n\nuse super::*;\n\n#[test]\nfn t() {}\n";
        assert_eq!(
            count_file(test_file),
            Loc {
                product: 0,
                with_tests: 4
            }
        );
        let later = "fn shipped() {}\n#![cfg(test)]\n";
        assert_eq!(
            count_file(later).product,
            2,
            "only as its first line of code"
        );
    }

    #[test]
    fn counts_this_workspace() {
        let hv = crate_loc("core");
        assert!(hv.product > 500, "microhypervisor has substance: {hv:?}");
        assert!(
            hv.with_tests > hv.product + 500,
            "and unit tests the census leaves out of the TCB: {hv:?}"
        );
        let total: usize = nova_tcb().iter().map(|c| c.own.product).sum();
        assert!(total > 2000);
    }

    #[test]
    fn linked_files_exist_and_a_shared_one_counts_once() {
        let tcb = nova_tcb();
        let vmm = files_loc(tcb[2].linked.iter().copied());
        assert!(vmm.product > 300, "the device cores: {vmm:?}");
        let all = files_loc(tcb.iter().flat_map(|c| c.linked.iter().copied()));
        assert_eq!(all, vmm, "the disk server's two files are among the VMM's");
    }

    /// How often `text` bumps the counter `name`: directly
    /// (`counters.name +=`) or through `Kernel::count`'s field closure
    /// (`&mut c.name`).
    fn bumps(text: &str, name: &str) -> usize {
        let closure = format!("&mutc.{name}");
        let through_count = text
            .match_indices(&closure)
            .filter(|(at, m)| {
                let next = text[at + m.len()..].chars().next();
                !next.is_some_and(|c| c.is_alphanumeric() || c == '_')
            })
            .count();
        text.matches(&format!("counters.{name}+=")).count() + through_count
    }

    /// The registry rule (DESIGN.md §6b), by grep: every name in the
    /// `Counters` table is bumped at exactly one site of the NOVA
    /// stack, which shares the kernel's registry, and at no more than
    /// one of the monolithic baseline, which is another system with a
    /// registry of its own.
    #[test]
    fn every_counter_name_has_one_bump_site() {
        let files = product_sources();
        let (baseline, stack): (Vec<_>, Vec<_>) = files
            .iter()
            .partition(|(p, _)| p.contains("crates/baseline/"));
        assert!(!baseline.is_empty() && stack.len() > 50);
        for (name, _) in nova_core::Counters::new().iter() {
            let sites = |files: &[&(String, String)]| -> Vec<String> {
                files
                    .iter()
                    .flat_map(|(p, text)| vec![p.clone(); bumps(text, name)])
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
        let files = product_sources();
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
        let got = config_surface();
        for ((name, fields), (want, want_fields)) in got.iter().zip(expect) {
            assert_eq!(*name, want);
            assert_eq!(fields, want_fields, "`{name}`'s pub fields");
        }
        assert_eq!(got.iter().map(|(_, f)| f.len()).sum::<usize>(), 36);
    }

    /// The two long documents, capped in bytes: one that would grow past
    /// its cap makes room first. The caps are only ever lowered.
    #[test]
    fn the_long_documents_are_capped() {
        for (doc, cap) in [("DESIGN.md", 119_000), ("EXPERIMENTS.md", 201_000)] {
            let path = workspace_root().join(doc);
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
        let product = crate_loc("core").product;
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
        let unreached = unreached_items();
        assert!(
            unreached.is_empty(),
            "named only where declared: {unreached:#?}"
        );
    }

    #[test]
    fn the_census_reads_pub_fields_only() {
        let text = product_text(
            "#[derive(Clone)]\npub struct Cfg {\n    /// Doc.\n    pub a: Option<(u64, u64)>,\n    \
             b: u8,\n    pub(crate) c: u8,\n    pub d: Vec<(u16, [u8; 2])>\n}\npub struct CfgX {\n    pub e: u8,\n}\n",
        );
        assert_eq!(pub_fields(&text, "Cfg").unwrap(), ["a", "d"]);
        assert_eq!(pub_fields(&text, "CfgX").unwrap(), ["e"]);
        assert_eq!(pub_fields(&text, "Cf"), None);
    }

    #[test]
    fn the_gates_see_what_they_look_for() {
        let text = product_text(
            "fn f(k: &mut K) {\n    k.counters.disk_ops += 1;\n    k.count(\n        \
             |c| &mut c.vm_kills,\n        names::X,\n        0,\n    );\n}\n\
             #[cfg(test)]\nmod t {\n    fn g(k: &mut K) {\n        k.counters.disk_ops += 1;\n    }\n}\n",
        );
        assert_eq!((bumps(&text, "disk_ops"), bumps(&text, "vm_kills")), (1, 1));
        assert_eq!((bumps(&text, "disk_op"), bumps(&text, "vm_kill")), (0, 0));
        let items = [
            ("pub fn f<T>(x: T) {", Some("f")),
            ("pub const fn g() -> u8 {", Some("g")),
            ("pub const LEN: usize = 4;", Some("LEN")),
            ("pub(crate) fn h() {", None),
            ("pub struct S;", None),
            ("fn i() {}", None),
        ];
        for (line, name) in items {
            assert_eq!(pub_item(line), name, "{line}");
        }
        // An item only its own unit tests name is unreached; one a test
        // of another file names is not.
        let lib = "pub fn called() {}\npub fn tested() {}\n\
                   #[cfg(test)]\nmod tests {\n    #[test]\n    fn t() {\n        \
                   super::tested();\n        super::called();\n    }\n}\n";
        let caller = "#[test]\nfn t() {\n    x::called();\n}\n";
        let files = [("crates/x/src/lib.rs", lib), ("tests/t.rs", caller)];
        assert_eq!(
            unreached_in(files.into_iter()),
            ["crates/x/src/lib.rs: tested"]
        );
    }
}
