//! Source-line census for the Figure 1 TCB comparison: counts
//! non-blank, non-comment Rust lines per crate of this repository, and
//! says how many of them ship. The paper's 9 KLOC is product code, so a
//! component's size here is its `product` figure — what is left when
//! the `#[cfg(test)]` items (unit-test modules, test-only helpers) are
//! taken out; `with_tests` is everything.

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

/// Lines of code in one file (non-blank, non-`//` lines; `/* */`
/// blocks tracked across lines). A `#[cfg(test)]` attribute takes the
/// item it is on out of `product` — further attributes, then either a
/// `;`-terminated line or everything up to the matching close brace.
/// Braces are counted as characters, which `rustfmt`-ed code with
/// balanced format strings satisfies.
pub fn count_file(src: &str) -> Loc {
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
    let mut n = Loc::default();
    for line in src.lines() {
        let t = line.trim();
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
        n.with_tests += 1;
        let opens = t.matches('{').count();
        let closes = t.matches('}').count();
        test = match test {
            Test::Outside if t.starts_with("#[cfg(test)]") => Test::Header,
            Test::Outside => {
                n.product += 1;
                Test::Outside
            }
            Test::Header if t.starts_with("#[") => Test::Header,
            Test::Header if opens > closes => Test::Body(opens - closes),
            Test::Header if opens > 0 || t.ends_with(';') => Test::Outside,
            Test::Header => Test::Header,
            Test::Body(depth) if depth + opens > closes => Test::Body(depth + opens - closes),
            Test::Body(_) => Test::Outside,
        };
    }
    n
}

/// Recursively counts `.rs` lines under a directory.
pub fn count_dir(dir: &Path) -> Loc {
    let mut total = Loc::default();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return total;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            total += count_dir(&p);
        } else if p.extension().is_some_and(|x| x == "rs") {
            if let Ok(src) = std::fs::read_to_string(&p) {
                total += count_file(&src);
            }
        }
    }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comment_and_blank_lines_excluded() {
        let src = "fn f() {\n// comment\n\n/* block\nstill block\n*/\nlet x = 1;\n}\n";
        let n = count_file(src);
        assert_eq!((n.product, n.with_tests), (3, 3)); // fn, let, }
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
}
