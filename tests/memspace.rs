//! Memory-space acceptance tests: the radix `MemSpace` must answer
//! exactly like a sorted map of the same mappings under random
//! map/unmap sequences and their run forms, the per-PD translation
//! cache must never serve a stale entry through any kernel mutation
//! path, delegation and revocation must leave every space, nested table
//! and IOMMU context well-formed and every child mapping backed by its
//! parent's (`Kernel::check_invariants`, asked after every hypercall of
//! a random script), boot must leave the mapping databases no bigger
//! than what was delegated, page-crossing u32/u64 accessors must agree
//! with byte-wise composition, and the window sweeps (`slices`,
//! `mem_refresh`, `mem_restore`) must see every hole and do what their
//! per-page loops do.

use std::collections::BTreeMap;

use nova_core::kernel::WindowRuns;
use nova_core::obj::{MemMapping, MemRights, MemSpace, PdId, VmPaging};
use nova_core::{CompCtx, Hypercall, Kernel, KernelConfig};
use nova_guest::os::{build_os, OsParams};
use nova_hw::machine::{Machine, MachineConfig};
use nova_user::RootPm;
use nova_vmm::{LaunchOptions, System, VmmConfig};
use nova_x86::paging::NestedFormat;

/// Deterministic xorshift64* generator (same idiom as `tests/props.rs`).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed | 1)
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn random_rights(rng: &mut Rng) -> MemRights {
    match rng.below(3) {
        0 => MemRights::RW_DMA,
        1 => MemRights::RW,
        _ => MemRights::RO,
    }
}

/// Page numbers drawn from the interesting regions: within one leaf,
/// across the leaf span, straddling the directory/overflow boundary
/// (2^24), and deep in the overflow map.
fn random_page(rng: &mut Rng) -> u64 {
    match rng.below(4) {
        0 => rng.below(512),
        1 => rng.below(1 << 15),
        2 => (1 << 24) - 8 + rng.below(16),
        _ => (1 << 24) + rng.below(1 << 10),
    }
}

/// Slots in `MemSpace`'s direct-mapped translation cache: pages that
/// differ by a multiple of this share a slot.
const TC_SLOTS: u64 = 64;

/// A page in the translation-cache slot `page` occupies: `page` itself
/// or `page ± 64·k`.
fn slot_alias(rng: &mut Rng, page: u64) -> u64 {
    let d = TC_SLOTS * rng.below(4);
    match rng.below(2) {
        0 => page.checked_sub(d).unwrap_or(page + d),
        _ => page + d,
    }
}

/// A `(page, count)` run for `map_run` / `unmap_run`: mostly a few
/// pages, one in eight up to 1,100 (across two leaf boundaries), placed
/// across a leaf boundary, across the directory/overflow boundary at
/// 2^24, against the end of the page-number space, or at a random page.
fn random_run(rng: &mut Rng, prev: u64) -> (u64, u64) {
    let len = match rng.below(8) {
        0 => rng.below(1100),
        _ => rng.below(9),
    };
    let page = match rng.below(6) {
        0 => 512 * (1 + rng.below(64)),
        1 => 1 << 24,
        2 => u64::MAX,
        3 => prev,
        _ => random_page(rng),
    };
    let page = page.saturating_sub(rng.below(len + 1));
    (page, len.min((u64::MAX - page).saturating_add(1)))
}

/// Property: after any sequence of maps (delegations install mappings
/// with masked rights — same entry point), unmaps (revocations) and
/// their run forms, `MemSpace` and a `BTreeMap` of the same mappings
/// agree on lookup (cold and through the translation cache), translate,
/// `slices` over a run around the probe, what each unmap removes and in
/// which order, count and full ascending iteration — the last two after
/// every step. A quarter of the mutations hit the page probed last,
/// whose translation is cached, and a quarter of the probes land in the
/// cache slot the last probe filled, so an entry that outlives its
/// mapping (generation check) or answers for a page it aliases (tag
/// check) is asked for directly; a run always covers a page whose
/// translation was just cached, so one generation bump per run must
/// invalidate it. Runs cross leaves, holes, the overflow boundary and
/// the end of the page-number space (`random_run`). `NOVA_SLOW_TESTS`
/// widens it from 4 seeds to 64.
#[test]
fn memspace_equals_btreemap_oracle_under_random_sequences() {
    let seeds = if std::env::var_os("NOVA_SLOW_TESTS").is_some() {
        64
    } else {
        4
    };
    for seed in (1..=seeds).map(|s| s * 0x11) {
        let mut rng = Rng::new(seed);
        let mut ms = MemSpace::default();
        let mut oracle: BTreeMap<u64, MemMapping> = BTreeMap::new();
        let mut prev = 0;
        for step in 0..4000 {
            let frame = |rng: &mut Rng| MemMapping {
                hpa: rng.next() & 0xffff_ffff_f000,
                rights: random_rights(rng),
            };
            // One step in four leaves the generation alone, so its probe
            // meets the entry the last one cached while it is still live.
            match rng.below(8) {
                0 | 1 => {}
                2 => {
                    let (page, count) = random_run(&mut rng, prev);
                    let cached = page + rng.below(count.max(1));
                    assert_eq!(ms.lookup(cached), oracle.get(&cached).copied());
                    let base = frame(&mut rng);
                    let at = |i: u64| MemMapping {
                        hpa: base.hpa.wrapping_add(i << 12),
                        rights: base.rights,
                    };
                    ms.map_run(page, count, at);
                    for i in 0..count {
                        oracle.insert(page + i, at(i));
                    }
                    let want = oracle.get(&cached).copied();
                    assert_eq!(ms.lookup(cached), want, "map_run({page:#x}, {count})");
                }
                3 => {
                    let (page, count) = random_run(&mut rng, prev);
                    let cached = page + rng.below(count.max(1));
                    assert_eq!(ms.lookup(cached), oracle.get(&cached).copied());
                    let mut got = Vec::new();
                    ms.unmap_run(page, count, |p, m| got.push((p, m)));
                    let want: Vec<(u64, MemMapping)> = match count {
                        0 => Vec::new(),
                        _ => oracle
                            .range(page..=page + (count - 1))
                            .map(|(p, m)| (*p, *m))
                            .collect(),
                    };
                    for (p, _) in &want {
                        oracle.remove(p);
                    }
                    assert_eq!(
                        got, want,
                        "unmap_run({page:#x}, {count}): removed, in order"
                    );
                    let want = oracle.get(&cached).copied();
                    assert_eq!(ms.lookup(cached), want, "unmap_run({page:#x}, {count})");
                }
                _ => {
                    let page = match rng.below(4) {
                        0 => prev,
                        _ => random_page(&mut rng),
                    };
                    if rng.below(100) < 55 {
                        let m = frame(&mut rng);
                        ms.map(page, m);
                        oracle.insert(page, m);
                    } else {
                        assert_eq!(ms.unmap(page), oracle.remove(&page), "unmap({page:#x})");
                    }
                }
            }
            assert_eq!(
                ms.count(),
                oracle.len(),
                "seed {seed:#x} step {step}: count"
            );
            let same = ms.iter().eq(oracle.iter().map(|(p, m)| (*p, *m)));
            assert!(
                same,
                "seed {seed:#x} step {step}: iteration order and contents"
            );
            let probe = match rng.below(4) {
                0 => slot_alias(&mut rng, prev),
                _ => random_page(&mut rng),
            };
            let want = oracle.get(&probe).copied();
            assert_eq!(ms.lookup(probe), want, "lookup({probe:#x})");
            assert_eq!(ms.lookup(probe), want, "cached lookup({probe:#x})");
            let addr = (probe << 12) | rng.below(4096);
            assert_eq!(ms.translate(addr), want.map(|m| m.hpa + (addr & 0xfff)));
            // A run around the probe: mostly short, one in eight long
            // enough to cross a leaf or the directory/overflow boundary.
            let len = match rng.below(8) {
                0 => rng.below(600),
                _ => rng.below(8),
            };
            let start = probe.saturating_sub(rng.below(len + 1));
            assert_slices(&ms, &oracle, start, len);
            prev = probe;
        }
    }
}

/// `slices(start, len)` yields the oracle's mappings of the pages from
/// `start` up to the last page number, one slice per leaf touched and
/// one per page above 2^24.
fn assert_slices(ms: &MemSpace, oracle: &BTreeMap<u64, MemMapping>, start: u64, len: u64) {
    let mut got: Vec<Option<MemMapping>> = Vec::new();
    let mut at = start;
    for s in ms.slices(start, len) {
        let last = at + (s.len() as u64 - 1);
        let one_leaf = at >> 9 == last >> 9 && (at < 1 << 24 || s.len() == 1);
        assert!(
            one_leaf,
            "slices({start:#x}, {len}): {} pages from {at:#x}",
            s.len()
        );
        got.extend_from_slice(s);
        at = at.wrapping_add(s.len() as u64);
    }
    let want: Vec<Option<MemMapping>> = (0..len)
        .map_while(|i| start.checked_add(i))
        .map(|p| oracle.get(&p).copied())
        .collect();
    assert!(got == want, "slices({start:#x}, {len})");
}

/// `MemSpace::slices` on the shapes a window sweep can meet, each
/// named: holes inside a leaf, a run across a leaf boundary, a leaf
/// `unmap` gave back, a leaf never allocated beyond the directory's
/// end, the directory/overflow boundary at page 2^24, the end of the
/// page-number space, and the empty run.
#[test]
fn range_reads_runs_across_leaves_holes_and_overflow() {
    let mut ms = MemSpace::default();
    let mut oracle: BTreeMap<u64, MemMapping> = BTreeMap::new();
    let frame = |page: u64| MemMapping {
        hpa: page << 12,
        rights: if page & 1 == 0 {
            MemRights::RO
        } else {
            MemRights::RW
        },
    };
    let over = 1u64 << 24;
    let runs = [
        0..4,               // where a run off the end would wrap to
        500..530,           // crosses the leaf 0 / leaf 1 boundary
        1024..1536,         // all of leaf 2, freed again below
        2050..2052,         // leaf 4: leaf 3 stays unallocated
        over - 4..over + 4, // last leaf of the directory into the overflow map
        over + 100..over + 103,
        u64::MAX - 1..u64::MAX,
    ];
    for p in runs.iter().cloned().flatten() {
        if p % 7 != 0 {
            ms.map(p, frame(p)); // every seventh page is a hole
            oracle.insert(p, frame(p));
        }
    }
    for p in 1024..1536 {
        assert_eq!(ms.unmap(p), oracle.remove(&p));
    }
    let windows = [
        (0, 0),
        (505, 0),
        (490, 60),
        (511, 2),
        (1000, 1100), // leaf 1's tail, freed leaf 2, unallocated leaf 3, into leaf 4
        (4000, 600),  // past the directory's last allocated leaf
        (over - 8, 16),
        (over + 98, 8),
        (u64::MAX - 3, 8), // runs off the end of the page-number space
    ];
    for (start, len) in windows {
        assert_slices(&ms, &oracle, start, len);
    }
    let pages = |start, len| ms.slices(start, len).map(<[_]>::len).sum::<usize>();
    assert_eq!(pages(u64::MAX - 3, 8), 4, "up to the last page number");
    assert_eq!(pages(1000, 1100), 1100);
    assert_eq!(ms.slices(1000, 1100).count(), 4, "a slice per leaf");
    assert!(ms.slices(0, 5000).flatten().flatten().count() > 20);

    // A sweep reads the leaves, not the translation cache: it sees an
    // unmap at once, whatever a lookup cached before it.
    assert_eq!(ms.lookup(501), Some(frame(501)));
    assert_eq!(ms.unmap(501), Some(frame(501)));
    assert_eq!(ms.slices(501, 1).next(), Some(&[None][..]));
}

fn kernel_with_root() -> (Kernel, nova_core::CompCtx) {
    let m = Machine::new(MachineConfig::core_i7(64 << 20));
    let mut k = Kernel::new(m, KernelConfig::default());
    let (rc, re) = k.load_component(k.root_pd, 0, Box::new(RootPm::new()));
    k.start_component(rc, re);
    let ctx = k.component_mut::<RootPm>(rc).unwrap().ctx.unwrap();
    (k, ctx)
}

/// A stretch inside one of the `granted` `(base, count)` ranges — off
/// both of its ends when it is long enough — or `or` when nothing was
/// granted.
fn part_of(rng: &mut Rng, granted: &[(u64, u64)], or: (u64, u64)) -> (u64, u64) {
    if granted.is_empty() {
        return or;
    }
    let (base, count) = granted[rng.below(granted.len() as u64) as usize];
    if count < 3 {
        return (base, count);
    }
    let lo = base + 1 + rng.below(count - 2);
    (lo, 1 + rng.below(base + count - 1 - lo))
}

/// A randomized delegate/revoke hypercall script — root to a child,
/// the child on to a grandchild at other page numbers, ports alongside,
/// revocations from both levels with and without the revoker's own
/// holding, and the child destroyed and rebuilt half way — keeps
/// `Kernel::check_invariants` true after every single hypercall, and
/// leaves every memory space well-formed: `count()` is the number of
/// mappings `iter()` yields, in strictly ascending page order, and
/// every page the child holds is backed by root's mapping of the same
/// frame with rights no wider than root's. Ranges are up to 63 pages or
/// ports long, and a good part of the script works inside the last
/// ranges root granted: the child re-delegates a stretch of one, and
/// either level revokes a stretch of one — so mapping-database nodes
/// are cut at both ends, below both levels. Between those calls, a
/// second generator has root delegate chunk-aligned ranges to an EPT VM
/// (with a device assigned) and an NPT VM, and revoke whole chunks and
/// parts of chunks from them, so large leaves are mapped, dropped,
/// splintered and mapped again over splintered chunks; the EPT VM is
/// destroyed and rebuilt once. `NOVA_SLOW_TESTS` runs 16 scripts, not
/// one.
#[test]
fn kernel_delegation_script_preserves_memspace_invariants() {
    let scripts = if std::env::var_os("NOVA_SLOW_TESTS").is_some() {
        16
    } else {
        1
    };
    let large: u64 = (0..scripts)
        .map(|i| delegation_script(0xdead_beef + i, 0x5eed + i))
        .sum();
    assert!(
        large >= 8 * scripts,
        "{large} whole chunks delegated to the VMs"
    );
}

/// One script of `kernel_delegation_script_preserves_memspace_invariants`
/// from the two generators' seeds; returns how many whole chunks it
/// delegated to the VMs.
fn delegation_script(seed: u64, vm_seed: u64) -> u64 {
    let (mut k, ctx) = kernel_with_root();
    assert_eq!(k.mapdb_nodes(), (0, 0, 0), "boot delegated nothing");
    let create_as = |k: &mut Kernel, ctx: CompCtx, name: &str, dst, vm| {
        let name = name.into();
        k.hypercall(ctx, Hypercall::CreatePd { name, vm, dst })
            .unwrap();
        PdId((k.obj.pds.len() - 1) as u32)
    };
    let create = |k: &mut Kernel, ctx: CompCtx, name: &str, dst| create_as(k, ctx, name, dst, None);
    // (selector, chunk pages, first host page of the frames it gets);
    // the EPT VM has the disk controller assigned.
    let vms = [(0x32, 512, 4096), (0x33, 1024, 8192)];
    let ept_vm = |k: &mut Kernel| {
        let vm = Some(VmPaging::Nested(NestedFormat::Ept4Level));
        create_as(k, ctx, "ept-vm", 0x32, vm);
        let device = k.machine.dev.ahci;
        k.hypercall(ctx, Hypercall::AssignDev { pd: 0x32, device })
            .unwrap();
    };
    ept_vm(&mut k);
    let vm = Some(VmPaging::Nested(NestedFormat::Npt2Level));
    create_as(&mut k, ctx, "npt-vm", 0x33, vm);
    let mut vm_rng = Rng::new(vm_seed);
    let mut large_maps = 0;
    let mut child = create(&mut k, ctx, "child", 0x30);
    // The child acts for itself: its own selector space, its own
    // grandchild.
    let mut child_ctx = CompCtx { pd: child, ..ctx };
    create(&mut k, child_ctx, "grandchild", 0x31);
    /// Where the grandchild sees the child's page `p`.
    const SHIFT: u64 = 0x1_0000;
    let mut rng = Rng::new(seed);
    // The last ranges of pages and ports root granted the child.
    let mut pages: Vec<(u64, u64)> = Vec::new();
    let mut ports: Vec<(u64, u64)> = Vec::new();
    for step in 0..600 {
        let base = rng.below(2000);
        let count = match rng.below(4) {
            0 => 8 + rng.below(56),
            _ => 1 + rng.below(8),
        };
        let port = 0x300 + rng.below(64);
        let include_self = rng.below(4) == 0;
        let either = if rng.below(2) == 0 { ctx } else { child_ctx };
        let (who, hc) = match rng.below(100) {
            0..=29 => {
                pages.push((base, count));
                let rights = random_rights(&mut rng);
                let hot = base;
                let hc = Hypercall::DelegateMem {
                    dst_pd: 0x30,
                    base,
                    count,
                    rights,
                    hot,
                };
                (ctx, hc)
            }
            30..=44 => {
                let (base, count) = part_of(&mut rng, &pages, (base, count));
                let rights = random_rights(&mut rng);
                let hot = base + SHIFT;
                let hc = Hypercall::DelegateMem {
                    dst_pd: 0x31,
                    base,
                    count,
                    rights,
                    hot,
                };
                (child_ctx, hc)
            }
            45..=54 => {
                let (from, dst_pd) = if rng.below(2) == 0 {
                    ports.push((port, count));
                    ((port, count), 0x30)
                } else {
                    (part_of(&mut rng, &ports, (port, count)), 0x31)
                };
                let (base, count) = (from.0 as u16, from.1 as u16);
                let hc = Hypercall::DelegateIo {
                    dst_pd,
                    base,
                    count,
                };
                (if dst_pd == 0x30 { ctx } else { child_ctx }, hc)
            }
            55..=79 => {
                let (base, count) = match rng.below(3) {
                    0 => (base, count),
                    _ => part_of(&mut rng, &pages, (base, count)),
                };
                let hc = Hypercall::RevokeMem {
                    base,
                    count,
                    include_self,
                };
                (either, hc)
            }
            _ => {
                let (base, count) = match rng.below(3) {
                    0 => (port, count),
                    _ => part_of(&mut rng, &ports, (port, count)),
                };
                let (base, count) = (base as u16, count as u16);
                let hc = Hypercall::RevokeIo {
                    base,
                    count,
                    include_self,
                };
                (either, hc)
            }
        };
        for granted in [&mut pages, &mut ports] {
            let old = granted.len().saturating_sub(8);
            granted.drain(..old);
        }
        let _ = k.hypercall(who, hc);
        assert_eq!(k.check_invariants(), Ok(()), "after step {step}");
        if vm_rng.below(2) == 0 {
            // Whole chunks (one or two) or a stretch of one, into a VM
            // or out of it.
            let (dst_pd, cp, host) = vms[vm_rng.below(2) as usize];
            let chunk = vm_rng.below(4);
            let (off, count) = match vm_rng.below(3) {
                0 => (0, cp * (1 + vm_rng.below(2)).min(4 - chunk)),
                _ => {
                    let off = vm_rng.below(cp);
                    (off, (1 + vm_rng.below(64)).min(cp - off))
                }
            };
            let base = host + chunk * cp + off;
            let hc = match vm_rng.below(2) {
                0 => Hypercall::DelegateMem {
                    dst_pd,
                    base,
                    count,
                    rights: random_rights(&mut vm_rng),
                    hot: cp * vm_rng.below(4) + off,
                },
                _ => Hypercall::RevokeMem {
                    base,
                    count,
                    include_self: false,
                },
            };
            let whole = off == 0 && matches!(hc, Hypercall::DelegateMem { .. });
            if k.hypercall(ctx, hc).is_ok() && whole {
                large_maps += 1;
            }
            assert_eq!(k.check_invariants(), Ok(()), "after step {step}'s VM call");
        }
        if step == 450 {
            k.hypercall(ctx, Hypercall::DestroyPd { pd: 0x32 }).unwrap();
            assert_eq!(k.check_invariants(), Ok(()), "after the VM's DestroyPd");
            ept_vm(&mut k);
        }
        if step == 300 {
            assert!(k.obj.pd(child).mem.count() > 0, "something to destroy");
            k.hypercall(ctx, Hypercall::DestroyPd { pd: 0x30 }).unwrap();
            assert_eq!(k.check_invariants(), Ok(()), "after DestroyPd");
            child = create(&mut k, ctx, "child", 0x30);
            child_ctx = CompCtx { pd: child, ..ctx };
            create(&mut k, child_ctx, "grandchild", 0x31);
            (pages, ports) = (Vec::new(), Vec::new());
        }
    }
    let grandchild = PdId(child.0 + 1);
    let root = &k.obj.pd(k.root_pd).mem;
    let child = &k.obj.pd(child).mem;
    let grandchild = &k.obj.pd(grandchild).mem;
    assert!(child.count() > 0, "script delegated something");
    assert!(grandchild.count() > 0, "and the child passed some of it on");
    for ms in [child, grandchild, root] {
        let pages: Vec<u64> = ms.iter().map(|(p, _)| p).collect();
        assert_eq!(ms.count(), pages.len());
        assert!(pages.windows(2).all(|w| w[0] < w[1]), "iter() ascending");
    }
    for (page, m) in child.iter() {
        let r = root.lookup(page).expect("child page mapped in root");
        assert_eq!(m.hpa, r.hpa, "page {page:#x}: same frame");
        assert_eq!(m.rights.mask(r.rights), m.rights, "page {page:#x}: rights");
    }
    for (page, m) in grandchild.iter() {
        let c = child.lookup(page - SHIFT).expect("backed by the child");
        assert_eq!(m.hpa, c.hpa, "page {page:#x}: same frame");
    }
    large_maps
}

/// What boot leaves in the mapping databases: nothing after
/// `Kernel::new` — root's holdings are in its spaces — and after
/// `System::build` a node per range that was actually delegated (root's
/// origins, the VMM's ranges, the VM's), a handful of ports, and no
/// more: not one per frame of RAM and port of the machine, and not one
/// per page delegated either — a 1,024-page and an 8,192-page guest
/// leave the same number of nodes.
#[test]
fn boot_footprint_is_what_was_delegated() {
    let (k, _) = kernel_with_root();
    assert_eq!(k.mapdb_nodes(), (0, 0, 0));
    assert!(k.obj.pd(k.root_pd).mem.count() > 10_000);
    assert!(k.obj.pd(k.root_pd).io.count() > 65_000);

    let boot = |guest_pages: u64| {
        let prog = build_os(OsParams::minimal(), |a, _| nova_guest::rt::emit_exit(a, 0));
        let vmm = VmmConfig::full_virt(prog, guest_pages);
        let sys = System::build(LaunchOptions::standard(vmm));
        assert_eq!(sys.k.check_invariants(), Ok(()));
        let vm = sys.k.obj.pds.iter().find(|d| d.is_vm()).expect("a VM");
        (sys.k.mapdb_nodes(), vm.mem.count())
    };
    let ((mem, io, _), small) = boot(1024);
    assert!((1..=32).contains(&mem), "{mem} memory nodes");
    assert!((1..=16).contains(&io), "{io} port nodes");
    let ((mem_large, _, _), large) = boot(8192);
    assert!(large > 7 * small, "{small} → {large} guest pages");
    assert_eq!(mem_large, mem, "memory nodes independent of guest size");
}

/// The translation cache fronting the radix table must never serve
/// a stale entry after unmap, revoke, or PD destruction — exercised
/// through the kernel's own mutation paths, with reads in between to
/// keep the cache hot.
#[test]
fn translation_cache_invalidated_by_kernel_paths() {
    let (mut k, ctx) = kernel_with_root();
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name: "victim".into(),
            vm: None,
            dst: 0x30,
        },
    )
    .unwrap();
    k.hypercall(
        ctx,
        Hypercall::DelegateMem {
            dst_pd: 0x30,
            base: 0x200,
            count: 4,
            rights: MemRights::RW,
            hot: 0x200,
        },
    )
    .unwrap();
    let child = PdId(1);
    // Warm the child's translation cache.
    for p in 0x200..0x204u64 {
        assert!(k.obj.pd(child).mem.translate(p << 12).is_some());
    }
    // Revoke from the root: the child's mapping must vanish, cache
    // included.
    k.hypercall(
        ctx,
        Hypercall::RevokeMem {
            base: 0x200,
            count: 1,
            include_self: false,
        },
    )
    .unwrap();
    assert_eq!(
        k.obj.pd(child).mem.translate(0x200 << 12),
        None,
        "stale hit"
    );
    assert!(k.obj.pd(child).mem.translate(0x201 << 12).is_some());
    // Re-delegate the same page at different rights: the cache must
    // yield the fresh mapping.
    k.hypercall(
        ctx,
        Hypercall::DelegateMem {
            dst_pd: 0x30,
            base: 0x200,
            count: 1,
            rights: MemRights::RO,
            hot: 0x200,
        },
    )
    .unwrap();
    let m = k.obj.pd(child).mem.lookup(0x200).expect("remapped");
    assert!(!m.rights.write, "fresh rights, not the cached RW entry");
    // Destroy the PD: every cached translation dies with it.
    k.hypercall(ctx, Hypercall::DestroyPd { pd: 0x30 }).unwrap();
    assert_eq!(k.obj.pd(child).mem.count(), 0);
    for p in 0x200..0x204u64 {
        assert_eq!(k.obj.pd(child).mem.translate(p << 12), None);
    }
}

/// Page-crossing u32/u64 reads and writes agree with byte-wise
/// composition, including the partially-unmapped case (the regression
/// the direct loads must not introduce).
#[test]
fn page_crossing_u32_u64_reads() {
    let (mut k, ctx) = kernel_with_root();
    // A recognizable pattern across the 0x5000 page boundary.
    let pattern: Vec<u8> = (0u8..16).map(|i| 0xa0 + i).collect();
    assert!(k.mem_write(ctx, 0x5000 - 8, &pattern));
    for off in 0..8u64 {
        let addr = 0x5000 - 8 + off;
        let v32 = k.mem_read_u32(ctx, addr).unwrap();
        let v64 = k.mem_read_u64(ctx, addr).unwrap();
        let mut bytes = [0u8; 8];
        k.mem_read_into(ctx, addr, &mut bytes).unwrap();
        let e32 = u32::from_le_bytes(bytes[..4].try_into().unwrap());
        let e64 = u64::from_le_bytes(bytes[..8].try_into().unwrap());
        assert_eq!(v32, e32, "u32 at boundary-{off}");
        assert_eq!(v64, e64, "u64 at boundary-{off}");
    }
    // A page-crossing write lands byte-exactly.
    assert!(k.mem_write_u32(ctx, 0x6000 - 2, 0x1122_3344));
    let mut bytes = [0u8; 4];
    k.mem_read_into(ctx, 0x6000 - 2, &mut bytes).unwrap();
    assert_eq!(bytes, [0x44, 0x33, 0x22, 0x11]);
    // Crossing into an unmapped page fails: the child only holds one
    // page.
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name: "onepage".into(),
            vm: None,
            dst: 0x30,
        },
    )
    .unwrap();
    k.hypercall(
        ctx,
        Hypercall::DelegateMem {
            dst_pd: 0x30,
            base: 0x100,
            count: 1,
            rights: MemRights::RW,
            hot: 0x100,
        },
    )
    .unwrap();
    let child_ctx = nova_core::CompCtx {
        pd: PdId(1),
        ec: ctx.ec,
        comp: ctx.comp,
    };
    assert_eq!(k.mem_read_u32(child_ctx, (0x100 << 12) + 0xffe), None);
    assert_eq!(k.mem_read_u64(child_ctx, (0x100 << 12) + 0xffa), None);
    assert!(k.mem_read_u32(child_ctx, (0x100 << 12) + 0xffc).is_some());
}

/// The frames behind the `pages`-page window at `addr` of `ctx`'s
/// space, looked up page by page: `None` for a misaligned window, a
/// hole or — with `write` — a read-only page.
fn frames_per_page(
    k: &Kernel,
    ctx: CompCtx,
    addr: u64,
    pages: usize,
    write: bool,
) -> Option<Vec<u64>> {
    if addr & 0xfff != 0 {
        return None;
    }
    let ms = &k.obj.pd(ctx.pd).mem;
    let frame = |i| {
        ms.lookup((addr >> 12) + i)
            .filter(|m| m.rights.write || !write)
    };
    (0..pages as u64).map(|i| frame(i).map(|m| m.hpa)).collect()
}

/// `Kernel::mem_refresh` into a dense image, as a loop over the pages:
/// the reference the leaf-slice sweep is held to.
fn refresh_per_page(
    k: &Kernel,
    ctx: CompCtx,
    addr: u64,
    image: &mut [u8],
    seen: &mut [u64],
) -> Option<usize> {
    let frames = frames_per_page(k, ctx, addr, seen.len(), false)?;
    let mut copied = 0;
    for ((dst, seen), hpa) in image.chunks_exact_mut(4096).zip(seen).zip(frames) {
        let gen = k.machine.mem.frame_gen(hpa);
        if gen != *seen {
            k.machine.mem.read_into(hpa, dst);
            *seen = gen;
            copied += 1;
        }
    }
    Some(copied)
}

/// `Kernel::mem_restore` from a dense image, as a loop over the pages.
fn restore_per_page(
    k: &mut Kernel,
    ctx: CompCtx,
    addr: u64,
    image: &[u8],
    seen: &mut [u64],
) -> Option<usize> {
    let frames = frames_per_page(k, ctx, addr, seen.len(), true)?;
    let mut written = 0;
    for ((src, seen), hpa) in image.chunks_exact(4096).zip(seen).zip(frames) {
        if k.machine.mem.frame_gen(hpa) != *seen {
            k.machine.mem.write_bytes(hpa, src);
            *seen = k.machine.mem.frame_gen(hpa);
            written += 1;
        }
    }
    Some(written)
}

/// Two kernels built and driven alike: the window sweeps run on the
/// first, their per-page references on the second.
struct Twins {
    ks: [Kernel; 2],
    /// The first kernel's cut of whichever window was swept last, one
    /// for every window and both directions.
    runs: WindowRuns,
    /// Root's context and the window domain's, the same in both.
    root: CompCtx,
    child: CompCtx,
}

/// Host pages root gives the window domain, as `(root page, count,
/// child page)`: eight across a leaf boundary (0x1fc..0x204), seven of
/// an eight-page window (its last page a hole), two stretches of four
/// from frames that are not adjacent, and six across the
/// directory/overflow boundary at page 2^24.
const WINDOWS: [(u64, u64, u64); 5] = [
    (0x1fc, 8, 0x1fc),
    (0x300, 7, 0x300),
    (0x500, 4, 0x400),
    (0x600, 4, 0x404),
    (0x700, 6, (1 << 24) - 2),
];

impl Twins {
    fn new() -> Twins {
        let build = || {
            let (mut k, root) = kernel_with_root();
            let (name, vm) = ("window".into(), None);
            k.hypercall(
                root,
                Hypercall::CreatePd {
                    name,
                    vm,
                    dst: 0x30,
                },
            )
            .unwrap();
            (k, root)
        };
        let ((k, root), (r, _)) = (build(), build());
        let child = CompCtx {
            pd: PdId(1),
            ..root
        };
        let mut t = Twins {
            ks: [k, r],
            runs: WindowRuns::default(),
            root,
            child,
        };
        for (base, count, hot) in WINDOWS {
            t.grant(base, count, hot, MemRights::RW);
        }
        t
    }

    fn each(&mut self, f: impl Fn(&mut Kernel, CompCtx, CompCtx)) {
        for k in &mut self.ks {
            f(k, self.root, self.child);
        }
    }

    fn grant(&mut self, base: u64, count: u64, hot: u64, rights: MemRights) {
        self.each(|k, root, _| {
            let hc = Hypercall::DelegateMem {
                dst_pd: 0x30,
                base,
                count,
                rights,
                hot,
            };
            k.hypercall(root, hc).unwrap();
        });
    }

    fn revoke(&mut self, base: u64) {
        self.each(|k, root, _| {
            let hc = Hypercall::RevokeMem {
                base,
                count: 1,
                include_self: false,
            };
            k.hypercall(root, hc).unwrap();
        });
    }

    /// Fills the mapped pages of the child's `pages`-page window at
    /// `page` with `byte`.
    fn fill(&mut self, page: u64, pages: u64, byte: u8) {
        self.each(|k, _, child| {
            for p in page..page + pages {
                if k.obj.pd(child.pd).mem.lookup(p).is_some() {
                    assert!(k.mem_fill(child, p << 12, 4096, byte));
                }
            }
        });
    }

    /// The bytes and write generations of every frame root gave the
    /// child, equal in both kernels.
    fn memory(&self) -> (Vec<u8>, Vec<u64>) {
        let of = |k: &Kernel| -> (Vec<u8>, Vec<u64>) {
            let frames = WINDOWS
                .iter()
                .flat_map(|&(base, count, _)| base..base + count);
            let mem = &k.machine.mem;
            let bytes = frames.clone().flat_map(|f| mem.read_bytes(f << 12, 4096));
            (
                bytes.collect(),
                frames.map(|f| mem.frame_gen(f << 12)).collect(),
            )
        };
        let (a, b) = (of(&self.ks[0]), of(&self.ks[1]));
        assert!(a == b, "memory behind the windows differs");
        a
    }

    /// `mem_refresh`, each page it hands out copied into `image`,
    /// against its reference from the same image and table: the same
    /// return value, image bytes and `seen`.
    fn refresh(&mut self, page: u64, image: &mut [u8], seen: &mut [u64]) -> Option<usize> {
        let (mut image2, mut seen2) = (image.to_vec(), seen.to_vec());
        let (k, runs) = (&self.ks[0], &mut self.runs);
        let got = k.mem_refresh(self.child, page << 12, runs, seen, |i, bytes| {
            image[i * 4096..(i + 1) * 4096].copy_from_slice(bytes)
        });
        let want = refresh_per_page(&self.ks[1], self.child, page << 12, &mut image2, &mut seen2);
        assert_eq!(
            (got, &*seen),
            (want, &seen2[..]),
            "mem_refresh at page {page:#x}"
        );
        assert!(*image == image2[..], "mem_refresh at page {page:#x}: image");
        got
    }

    /// `mem_restore` from `image` as a checkpoint holds it — a page of
    /// zeros absent — against its reference from the dense image: the
    /// same return value, `seen` and memory.
    fn restore(&mut self, page: u64, image: &[u8], seen: &mut [u64]) -> Option<usize> {
        let mut seen2 = seen.to_vec();
        let [k, r] = &mut self.ks;
        let got = k.mem_restore(self.child, page << 12, &mut self.runs, seen, |i| {
            let page = &image[i * 4096..(i + 1) * 4096];
            page.iter().any(|&b| b != 0).then_some(page)
        });
        let want = restore_per_page(r, self.child, page << 12, image, &mut seen2);
        assert_eq!(
            (got, &*seen),
            (want, &seen2[..]),
            "mem_restore at page {page:#x}"
        );
        self.memory();
        got
    }
}

/// `mem_refresh` and `mem_restore` agree with their per-page loops on
/// every window shape — across a leaf boundary, with a hole in its last
/// page, over two runs of frames that are not adjacent, across into the
/// overflow map — and validate the whole window before touching
/// anything: a hole in the middle or at the end — or, for the restore, a
/// read-only page — refuses the call with the image, the table and
/// guest memory exactly as they were, although the pages in front of it
/// are mapped, writable and stale.
#[test]
fn window_sweeps_refuse_holes_and_read_only_pages_untouched() {
    let mut t = Twins::new();
    let windows = [(0x1fc, 8), (0x300, 8), (0x400, 8), ((1 << 24) - 2, 6)];
    for (i, (page, pages)) in windows.into_iter().enumerate() {
        let len = pages as usize * 4096;
        let (mut image, mut seen) = (vec![0u8; len], vec![u64::MAX; pages as usize]);
        let whole = (page != 0x300).then_some(pages as usize);
        t.fill(page, pages, 0x40 + i as u8);
        assert_eq!(t.refresh(page, &mut image, &mut seen), whole);
        t.fill(page + 1, 1, 0x50);
        assert_eq!(t.refresh(page, &mut image, &mut seen), whole.map(|_| 1));
        // Only the last run moves, behind runs that did not; a page
        // turns to zeros, which the restore below finds absent.
        t.fill(page + pages - 1, 1, 0x58);
        t.fill(page + 2, 1, 0);
        assert_eq!(t.refresh(page, &mut image, &mut seen), whole.map(|_| 2));
        t.fill(page, pages, 0x60);
        let before = t.memory();
        assert_eq!(t.restore(page, &image, &mut seen), whole);
        if whole.is_none() {
            assert!(t.memory() == before, "a refused restore writes nothing");
        }
    }

    // Eight pages straddling a leaf boundary (0x1fc..0x204).
    let (first, pages, mid) = (0x1fcu64, 8usize, 0x201u64);
    let mut image = vec![0u8; pages * 4096];
    let mut seen = vec![u64::MAX; pages];
    t.fill(first, pages as u64, 0x11);
    assert_eq!(t.refresh(first, &mut image, &mut seen), Some(pages));

    // Every page goes stale, then the middle one becomes a hole.
    t.fill(first, pages as u64, 0x22);
    t.revoke(mid);
    let before = (image.clone(), seen.clone(), t.memory());
    assert_eq!(t.refresh(first, &mut image, &mut seen), None);
    assert_eq!(t.restore(first, &image, &mut seen), None);
    assert!((image.clone(), seen.clone(), t.memory()) == before);

    // Read-only in the middle: a capture reads it, a restore refuses.
    t.grant(mid, 1, mid, MemRights::RO);
    assert_eq!(t.restore(first, &image, &mut seen), None);
    assert!((image.clone(), seen.clone(), t.memory()) == before);
    assert_eq!(t.refresh(first, &mut image, &mut seen), Some(pages));
    assert!(image.iter().all(|&b| b == 0x22));

    // Writable again: the restore goes through, and only now.
    t.revoke(mid);
    t.grant(mid, 1, mid, MemRights::RW);
    t.fill(first, pages as u64, 0x33);
    assert_eq!(t.restore(first, &image, &mut seen), Some(pages));
    assert!(t.ks[0].machine.mem.read_bytes(first << 12, pages * 4096) == image);
}
