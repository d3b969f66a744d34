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

/// Calls `line(number, text, product)` for every line of code in `src`
/// (non-blank, non-`//` lines, trimmed, numbered from 1; `/* */` blocks
/// tracked across lines). A `#[cfg(test)]` attribute takes the item it
/// is on out of the product — further attributes, then either a
/// `;`-terminated line or everything up to the matching close brace —
/// and a file whose first line of code is `#![cfg(test)]` is a test
/// module all through. Braces are counted as characters, which
/// `rustfmt`-ed code with balanced format strings satisfies.
fn scan<'a>(src: &'a str, mut line: impl FnMut(usize, &'a str, bool)) {
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
    for (n, l) in src.lines().enumerate() {
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
        line(n + 1, t, product && !test_file);
    }
}

/// Lines of code in one file, with and without its `#[cfg(test)]`
/// items.
pub fn count_file(src: &str) -> Loc {
    let mut n = Loc::default();
    scan(src, |_, _, product| {
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
/// row (ROADMAP: "Count `nova_x86` in a row of the TCB census").
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
    scan(src, |_, l, product| {
        if product {
            text.extend(l.split_whitespace());
        }
    });
    text
}

/// `(path under crates/, source)` of every `.rs` file under
/// `crates/*/src`, in path order.
fn crate_sources() -> Vec<(String, String)> {
    let crates = workspace_root().join("crates");
    let mut out = Vec::new();
    for c in std::fs::read_dir(&crates).into_iter().flatten().flatten() {
        each_rs_file(&c.path().join("src"), &mut |p, src| {
            let p = p.strip_prefix(&crates).unwrap_or(p);
            out.push((p.display().to_string(), src.to_string()));
        });
    }
    out.sort();
    out
}

/// `(path under crates/, product_text)` of every `.rs` file under
/// `crates/*/src`, in path order.
pub fn product_sources() -> Vec<(String, String)> {
    let mut files = crate_sources();
    for (_, src) in &mut files {
        *src = product_text(src);
    }
    files
}

/// How often whitespace-free product text bumps the counter `name`:
/// directly (`counters.name +=`) or through `Kernel::count`'s field
/// closure (`&mut c.name`).
pub fn bumps(text: &str, name: &str) -> usize {
    let closure = format!("&mutc.{name}");
    let through_count = text
        .match_indices(&closure)
        .filter(|(at, m)| !text[at + m.len()..].starts_with(is_ident))
        .count();
    text.matches(&format!("counters.{name}+=")).count() + through_count
}

/// A "one home" rule: the product lines of `scope` that `matches` are
/// allowed only under `homes`, and each home still holds one. A rule
/// with no home is a ban.
pub struct Home {
    /// Whether a trimmed line of code names the pattern.
    pub matches: fn(&str) -> bool,
    /// Path prefixes under `crates/` the rule reads; empty: all of
    /// `crates/*/src`.
    pub scope: &'static [&'static str],
    /// Path prefixes under `crates/` where the pattern belongs.
    pub homes: &'static [&'static str],
    /// The DESIGN.md passage that says why.
    pub why: &'static str,
}

/// Whether `l` holds one of `parts`.
fn has(l: &str, parts: &[&str]) -> bool {
    parts.iter().any(|p| l.contains(p))
}

/// Whether `l` names one of `words` with an identifier boundary on
/// each side.
fn word(l: &str, words: &[&str]) -> bool {
    words.iter().any(|w| {
        l.match_indices(w)
            .any(|(at, _)| !l[..at].ends_with(is_ident) && !l[at + w.len()..].starts_with(is_ident))
    })
}

/// Whether `l` calls one of `fns`: names it after an identifier
/// boundary and before `(`, other than where it declares it (`fn f(`).
fn calls(l: &str, fns: &[&str]) -> bool {
    fns.iter().any(|f| {
        l.match_indices(f).any(|(at, _)| {
            let before = &l[..at];
            l[at + f.len()..].starts_with('(')
                && !before.ends_with(is_ident)
                && !before.ends_with("fn ")
        })
    })
}

/// Whether `l` is a `match` arm on one of `consts`: the constant is
/// followed by `=>` before any `;`, or follows a `|`.
fn arm(l: &str, consts: &[&str]) -> bool {
    consts.iter().any(|c| {
        l.match_indices(c).any(|(at, _)| {
            let rest = l[at + c.len()..].split(';').next().unwrap_or("");
            rest.contains("=>") || l[..at].trim_end().ends_with('|')
        })
    })
}

const DEVICES: &str = "DESIGN §4, \"Device models live once in `nova_hw`\"";
const COMPARATOR: &str = "DESIGN §7, \"The comparator runs the kernel's and the VMM's code\"";
const PV_DEVICE: &str = "DESIGN §6c, \"One device, two queues\"";

/// Every "one home" rule of the product source, checked by
/// [`home_faults`].
pub const HOMES: [Home; 19] = [
    // One description of each paging format: the large-frame mask of
    // the two-level format and a nested entry's address and size bits.
    Home {
        matches: |l| has(l, &["pte::ADDR_LARGE", "npte::ADDR", "npte::PS"]),
        scope: &[],
        homes: &["x86/src/paging.rs"],
        why: "DESIGN §4, \"Paging formats live in `nova_x86::paging`\"",
    },
    // A semaphore's id comes through the caller's capability, never
    // from the length of the kernel's object table.
    Home {
        matches: |l| has(l, &["obj.sms.len()"]),
        scope: &[],
        homes: &[],
        why: "DESIGN §7, \"A component names a semaphore by its own capability\"",
    },
    // The AHCI port-0 registers are decoded where `ahci::PortRegs` is.
    Home {
        matches: |l| arm(l, &["regs::P0CI", "regs::P0IS"]),
        scope: &[],
        homes: &["hw/src/"],
        why: DEVICES,
    },
    // The FIS type byte and the ATA opcodes: the command codec's.
    Home {
        matches: |l| word(l, &["0x27", "ATA_READ_DMA_EXT", "ATA_WRITE_DMA_EXT"]),
        scope: &[],
        homes: &["hw/src/ahci/cmd.rs"],
        why: DEVICES,
    },
    // The 8254's input clock.
    Home {
        matches: |l| has(l, &["PIT_HZ"]),
        scope: &[],
        homes: &["hw/src/pit.rs"],
        why: DEVICES,
    },
    // A VMM names no place in the disk server: its window, ring page
    // and selectors are root's wiring.
    Home {
        matches: |l| word(l, &["window_base", "ring_page", "client_sm_sel"]),
        scope: &["vmm/src/"],
        homes: &[],
        why: "DESIGN §7, \"Disk-server DMA windows\"",
    },
    // Only root reaches into the disk server or writes a slot's wiring.
    Home {
        matches: |l| has(l, &["invoke_component::<DiskServer", "SupervisedClient {"]),
        scope: &[],
        homes: &["user/src/root.rs"],
        why: "DESIGN §6e, \"Each fact a replay needs has one holder\"",
    },
    // A guest image is described once ...
    Home {
        matches: |l| word(l, &["struct GuestImage"]),
        scope: &[],
        homes: &["hw/src/machine.rs"],
        why: "DESIGN §7, \"One image, one record\"",
    },
    // ... and by no second struct.
    Home {
        matches: |l| word(l, &["struct Program"]),
        scope: &[],
        homes: &[],
        why: "DESIGN §7, \"One image, one record\"",
    },
    // One instruction emulator, which the baseline runs over its own
    // host ...
    Home {
        matches: |l| calls(l, &["emulator_gva_to_gpa"]),
        scope: &[],
        homes: &["vmm/src/emu.rs"],
        why: COMPARATOR,
    },
    // ... beside the interpreter, the one other `x86::exec::Env` ...
    Home {
        matches: |l| word(l, &["impl"]) && word(l, &["Env for"]),
        scope: &[],
        homes: &["hw/src/cpu.rs", "vmm/src/emu.rs"],
        why: COMPARATOR,
    },
    // ... and one builder of large nested leaves.
    Home {
        matches: |l| calls(l, &["map_large"]),
        scope: &[],
        homes: &["core/src/hostpt.rs"],
        why: COMPARATOR,
    },
    // One vTLB exit entry ...
    Home {
        matches: |l| {
            calls(
                l,
                &[
                    "handle_page_fault",
                    "handle_cr_access",
                    "handle_invlpg",
                    "apply_tlb_ops",
                ],
            )
        },
        scope: &[],
        homes: &["core/src/vtlb.rs"],
        why: COMPARATOR,
    },
    // ... one legacy device set ...
    Home {
        matches: |l| calls(l, &["DualPic::new", "Uart16550::default", "Pit8254::new"]),
        scope: &[],
        homes: &["hw/", "vmm/src/devices.rs"],
        why: COMPARATOR,
    },
    // ... one AHCI command parser ...
    Home {
        matches: |l| calls(l, &["Header::decode"]),
        scope: &[],
        homes: &["hw/src/ahci.rs", "vmm/src/vahci.rs"],
        why: COMPARATOR,
    },
    // ... and one exit handler, whichever hypervisor runs them.
    Home {
        matches: |l| calls(l, &["cpuid_exit", "port_io_exit", "emulate_one"]),
        scope: &[],
        homes: &["vmm/src/exit.rs"],
        why: COMPARATOR,
    },
    // One paravirtual device: the disk and NIC queues share one core
    // (coalescing state, doorbell and interrupt counts, the
    // guest-buffer bounds check) ...
    Home {
        matches: |l| word(l, &["raised_used", "PV_DOORBELLS", "PV_COMPLETION_IRQS"]),
        scope: &["vmm/src/"],
        homes: &["vmm/src/pvqueue.rs"],
        why: PV_DEVICE,
    },
    Home {
        matches: |l| calls(l, &["buffer_in_ram"]),
        scope: &["vmm/src/"],
        homes: &["vmm/src/pvqueue.rs", "vmm/src/vahci.rs"],
        why: PV_DEVICE,
    },
    // ... which decodes the PV page's registers, not `VDevices`.
    Home {
        matches: |l| word(l, &["NET_RING", "NET_DOORBELL", "NET_ISR"]),
        scope: &["vmm/src/devices.rs"],
        homes: &[],
        why: PV_DEVICE,
    },
];

/// What breaks [`HOMES`] in the product source of `crates/*/src`.
pub fn home_faults() -> Vec<String> {
    home_faults_in(&crate_sources())
}

/// Every product line of `files` (`(path under crates/, source)`)
/// that a [`HOMES`] rule reads and matches outside the rule's homes,
/// and every home that holds no such line: one report each. This file,
/// which spells every pattern, is not read.
fn home_faults_in(files: &[(String, String)]) -> Vec<String> {
    let mut held: Vec<Vec<bool>> = HOMES.iter().map(|r| vec![false; r.homes.len()]).collect();
    let mut faults = Vec::new();
    for (path, src) in files.iter().filter(|(p, _)| p != "bench/src/loc.rs") {
        let under = |prefixes: &[&str]| prefixes.iter().position(|p| path.starts_with(p));
        scan(src, |n, l, product| {
            for (i, rule) in HOMES.iter().enumerate() {
                let read = rule.scope.is_empty() || under(rule.scope).is_some();
                if !product || !read || !(rule.matches)(l) {
                    continue;
                }
                match under(rule.homes) {
                    Some(h) => held[i][h] = true,
                    None => faults.push(format!(
                        "crates/{path}:{n}: `{l}` is outside the homes of HOMES[{i}] ({})",
                        rule.why
                    )),
                }
            }
        });
    }
    for (i, rule) in HOMES.iter().enumerate() {
        for (home, _) in rule.homes.iter().zip(&held[i]).filter(|(_, &h)| !h) {
            faults.push(format!(
                "HOMES[{i}] ({}) is stale: crates/{home} holds no line it matches",
                rule.why
            ));
        }
    }
    faults
}

/// The workspace crates (`nova-*`) that `toml` lists under
/// `[dependencies]` and no product line of `sources` names.
fn unnamed_deps<'a>(toml: &'a str, sources: &[String]) -> Vec<&'a str> {
    let mut code = Vec::new();
    for src in sources {
        scan(src, |_, l, product| {
            if product {
                code.push(l);
            }
        });
    }
    let mut section = "";
    let mut unnamed = Vec::new();
    for l in toml.lines().map(str::trim) {
        if l.starts_with('[') {
            section = l;
            continue;
        }
        let dep = l.split(['.', '=', ' ', '\t']).next().unwrap_or("");
        let ident = dep.replace('-', "_");
        if section == "[dependencies]"
            && dep.starts_with("nova-")
            && !code.iter().any(|l| word(l, &[ident.as_str()]))
        {
            unnamed.push(dep);
        }
    }
    unnamed
}

/// The dependency rule: a workspace crate that a crate lists under
/// `[dependencies]` is named in the product code of its `src/` or of
/// its `benches/`. One only its tests name is a `[dev-dependencies]`
/// entry, and one nothing names is not listed. One report per
/// dependency that breaks it.
pub fn unnamed_dependencies() -> Vec<String> {
    let crates = workspace_root().join("crates");
    let mut dirs: Vec<PathBuf> = std::fs::read_dir(&crates)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .collect();
    dirs.sort();
    let mut faults = Vec::new();
    for dir in dirs {
        let Ok(toml) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let mut sources = Vec::new();
        for sub in ["src", "benches"] {
            each_rs_file(&dir.join(sub), &mut |_, src| sources.push(src.to_string()));
        }
        let name = dir.strip_prefix(&crates).unwrap_or(&dir).display();
        for dep in unnamed_deps(&toml, &sources) {
            faults.push(format!(
                "crates/{name}/Cargo.toml: [dependencies] lists {dep}, which the product code \
                 of its src/ and benches/ never names"
            ));
        }
    }
    faults
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
        scan(src, |_, line, product| {
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

    /// The tree with `planted` added: `(path under crates/, line)`, each
    /// line the second of a file of its own.
    fn with_planted(planted: &[(&str, &str)]) -> Vec<(String, String)> {
        let mut files = crate_sources();
        for (path, line) in planted {
            files.push((
                path.to_string(),
                format!("fn planted() {{\n    {line}\n}}\n"),
            ));
        }
        files
    }

    /// One line per [`HOMES`] row, planted outside the row's homes: the
    /// check names the file, the line and the row of each, and nothing
    /// else. The first and fifth are the private copies of
    /// EXPERIMENTS.md's page-walk and 8254 mutations.
    #[test]
    fn every_home_rule_flags_its_planted_line() {
        let planted: [(&str, &str); 19] = [
            (
                "vmm/src/emu.rs",
                "return Ok((pde & pte::ADDR_LARGE) as u64 + off);",
            ),
            ("user/src/root.rs", "let sm = SmId(k.obj.sms.len() as u32);"),
            ("vmm/src/vahci.rs", "regs::P0CI => self.start(k, val),"),
            ("vmm/src/vahci.rs", "if fis[0] != 0x27 {"),
            (
                "vmm/src/devices.rs",
                "(self.divisor as u64 * self.cpu_hz / PIT_HZ).max(1)",
            ),
            (
                "vmm/src/diskclient.rs",
                "let at = window_base(client) + page;",
            ),
            (
                "vmm/src/lib.rs",
                "k.invoke_component::<DiskServer, _>(srv, |d, _| d.detach_client(0));",
            ),
            ("guest/src/os.rs", "pub struct GuestImage {"),
            ("hw/src/machine.rs", "pub struct Program {"),
            (
                "baseline/src/monolithic.rs",
                "let gpa = emulator_gva_to_gpa(cr3, pse, addr, w, f, read)?;",
            ),
            (
                "baseline/src/monolithic.rs",
                "impl<'a> x86::exec::Env for MonoEnv<'a> {",
            ),
            (
                "core/src/kernel/memory.rs",
                "table.map_large(gpa, hpa, rights);",
            ),
            (
                "baseline/src/monolithic.rs",
                "vtlb::handle_page_fault(parts, addr, err);",
            ),
            ("baseline/src/monolithic.rs", "pic: DualPic::new(),"),
            ("user/src/disk.rs", "let h = cmd::Header::decode(&raw);"),
            (
                "baseline/src/monolithic.rs",
                "let exit = cpuid_exit(&mut host, regs);",
            ),
            ("vmm/src/pvnet.rs", "self.raised_used = used;"),
            (
                "vmm/src/pvnet.rs",
                "if !pv::buffer_in_ram(buf, len, pages) {",
            ),
            (
                "vmm/src/devices.rs",
                "NET_DOORBELL => self.pvnet.doorbell(k, val),",
            ),
        ];
        let faults = home_faults_in(&with_planted(&planted));
        assert_eq!(faults.len(), planted.len(), "{faults:#?}");
        for (row, ((path, line), fault)) in planted.iter().zip(&faults).enumerate() {
            let at = format!("crates/{path}:2: `{line}` is outside the homes of HOMES[{row}] (");
            assert!(fault.starts_with(&at), "{fault}");
        }
    }

    /// What the rules allow: a pattern in its home, in a `#[cfg(test)]`
    /// item or a test-only file, on a `//` line, and a declaration of
    /// a function whose calls have a home.
    #[test]
    fn the_home_rules_pass_legal_lines() {
        let mut files = with_planted(&[
            ("x86/src/paging.rs", "let large = pde & pte::ADDR_LARGE;"),
            ("hw/src/pic.rs", "let pic = DualPic::new();"),
            (
                "vmm/src/devices.rs",
                "// the VMM's PV page is not NET_RING's",
            ),
            (
                "core/src/vtlb.rs",
                "pub fn handle_page_fault(parts: ShadowParts) {",
            ),
            (
                "x86/src/exec.rs",
                "pub fn emulate_one<E: Env>(env: &mut E) {",
            ),
            ("vmm/src/pvnet.rs", "fn buffer_in_ram(&self) -> bool {"),
        ]);
        files.push((
            "vmm/src/devices.rs".into(),
            "#[cfg(test)]\nmod t {\n    const HZ: u64 = nova_hw::pit::PIT_HZ;\n}\n".into(),
        ));
        files.push((
            "vmm/src/emu/tests.rs".into(),
            "#![cfg(test)]\n\nimpl Env for Flat {\n}\n".into(),
        ));
        assert_eq!(home_faults_in(&files), Vec::<String>::new());
    }

    /// A home that loses its pattern — the pattern renamed there, or
    /// the file moved — is reported as a stale rule.
    #[test]
    fn a_home_that_no_longer_holds_its_pattern_is_stale() {
        let mut files = crate_sources();
        for (path, src) in &mut files {
            if path == "hw/src/pit.rs" {
                *src = src.replace("PIT_HZ", "INPUT_HZ");
            }
        }
        assert_eq!(
            home_faults_in(&files),
            [format!(
                "HOMES[4] ({}) is stale: crates/hw/src/pit.rs holds no line it matches",
                HOMES[4].why
            )]
        );
        let mut files = crate_sources();
        for (path, _) in &mut files {
            if path == "core/src/hostpt.rs" {
                *path = "core/src/nested.rs".into();
            }
        }
        let faults = home_faults_in(&files);
        assert!(faults.len() > 1, "{faults:#?}");
        assert!(faults[..faults.len() - 1]
            .iter()
            .all(|f| f.starts_with("crates/core/src/nested.rs:") && f.contains("HOMES[11]")));
        assert!(faults[faults.len() - 1]
            .starts_with("HOMES[11] (DESIGN §7, \"The comparator runs the kernel's and the VMM's code\") is stale: crates/core/src/hostpt.rs"));
    }

    /// A workspace dependency is named by product code: one named only
    /// in a comment or inside a `#[cfg(test)]` module is reported, as is
    /// one nothing names; `[dev-dependencies]` entries are not read.
    #[test]
    fn the_dependency_rule_reads_product_code_only() {
        let toml = "[package]\nname = \"nova-x\"\n\n[dependencies]\nnova-hw.workspace = true\n\
                    nova-core = { path = \"../core\" }\nnova-trace.workspace = true\n\
                    nova-x86.workspace = true\n\n[dev-dependencies]\nnova-user.workspace = true\n";
        let src = "use nova_hw::pit;\n// nova_trace, in a comment\nfn f() -> nova_x86_extra::T {}\n\
                   #[cfg(test)]\nmod tests {\n    use nova_core::Kernel;\n    use nova_user::root;\n}\n";
        assert_eq!(
            unnamed_deps(toml, &[src.to_string()]),
            ["nova-core", "nova-trace", "nova-x86"]
        );
        let bench = "fn main() {\n    nova_core::run();\n}\n".to_string();
        assert_eq!(
            unnamed_deps(toml, &[src.to_string(), bench]),
            ["nova-trace", "nova-x86"]
        );
    }
}
