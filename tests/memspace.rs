//! Memory-space acceptance tests: the radix `MemSpace` must answer
//! exactly like a sorted map of the same mappings under random
//! map/unmap sequences, the per-PD translation cache must never serve
//! a stale entry through any kernel mutation path, delegation and
//! revocation must leave every space well-formed and every child
//! mapping backed by its parent's (`Kernel::check_invariants`, asked
//! after every hypercall of a random script), boot must leave the
//! mapping databases no bigger than what was delegated, page-crossing
//! u32/u64 accessors must agree with byte-wise composition, and the
//! window sweeps (`range`, `mem_refresh`, `mem_restore`) must see every
//! hole.

use std::collections::BTreeMap;

use nova_core::obj::{MemMapping, MemRights, MemSpace, PdId};
use nova_core::{CompCtx, Hypercall, Kernel, KernelConfig};
use nova_guest::os::{build_os, OsParams};
use nova_hw::machine::{Machine, MachineConfig};
use nova_user::RootPm;
use nova_vmm::{GuestImage, LaunchOptions, System, VmmConfig};

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

/// Property: after any sequence of maps (delegations install mappings
/// with masked rights — same entry point) and unmaps (revocations),
/// `MemSpace` and a `BTreeMap` of the same mappings agree on lookup
/// (cold and through the translation cache), translate, `range` over a
/// run around the probe, unmap results, count, and full ascending
/// iteration. A quarter of the mutations hit
/// the page probed last, whose translation is cached, and a quarter of
/// the probes land in the cache slot the last probe filled, so an
/// entry that outlives its mapping (generation check) or answers for a
/// page it aliases (tag check) is asked for directly.
#[test]
fn memspace_equals_btreemap_oracle_under_random_sequences() {
    for seed in [0x11, 0x22, 0x33, 0x44] {
        let mut rng = Rng::new(seed);
        let mut ms = MemSpace::default();
        let mut oracle: BTreeMap<u64, MemMapping> = BTreeMap::new();
        let mut prev = 0;
        for _ in 0..4000 {
            // One step in four leaves the generation alone, so its probe
            // meets the entry the last one cached while it is still live.
            if rng.below(4) != 0 {
                let page = match rng.below(4) {
                    0 => prev,
                    _ => random_page(&mut rng),
                };
                if rng.below(100) < 55 {
                    let m = MemMapping {
                        hpa: rng.next() & 0xffff_ffff_f000,
                        rights: random_rights(&mut rng),
                    };
                    ms.map(page, m);
                    oracle.insert(page, m);
                } else {
                    assert_eq!(ms.unmap(page), oracle.remove(&page), "unmap({page:#x})");
                }
            }
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
            assert_range(&ms, &oracle, start, len as usize);
            prev = probe;
        }
        assert_eq!(ms.count(), oracle.len());
        let a: Vec<(u64, MemMapping)> = ms.iter().collect();
        let b: Vec<(u64, MemMapping)> = oracle.iter().map(|(p, m)| (*p, *m)).collect();
        assert_eq!(a, b, "iteration order and contents");
    }
}

fn assert_range(ms: &MemSpace, oracle: &BTreeMap<u64, MemMapping>, start: u64, len: usize) {
    let got: Vec<Option<MemMapping>> = ms.range(start, len).collect();
    let want: Vec<Option<MemMapping>> = (0..len as u64)
        .map(|i| start.checked_add(i).and_then(|p| oracle.get(&p).copied()))
        .collect();
    assert!(got == want, "range({start:#x}, {len})");
}

/// `MemSpace::range` on the shapes a window sweep can meet, each named:
/// holes inside a leaf, a run across a leaf boundary, a leaf `unmap`
/// gave back, a leaf never allocated beyond the directory's end, the
/// directory/overflow boundary at page 2^24, the end of the page-number
/// space, and the empty run.
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
        assert_range(&ms, &oracle, start, len);
    }
    assert_eq!(ms.range(u64::MAX - 3, 8).count(), 8, "always `count` items");
    assert!(ms.range(0, 5000).flatten().count() > 20);

    // A sweep reads the leaves, not the translation cache: it sees an
    // unmap at once, whatever a lookup cached before it.
    assert_eq!(ms.lookup(501), Some(frame(501)));
    assert_eq!(ms.unmap(501), Some(frame(501)));
    assert_eq!(ms.range(501, 1).next(), Some(None));
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
/// are cut at both ends, below both levels.
#[test]
fn kernel_delegation_script_preserves_memspace_invariants() {
    let (mut k, ctx) = kernel_with_root();
    assert_eq!(k.mapdb_nodes(), (0, 0, 0), "boot delegated nothing");
    let create = |k: &mut Kernel, ctx: CompCtx, name: &str, dst| {
        let vm = None;
        let name = name.into();
        k.hypercall(ctx, Hypercall::CreatePd { name, vm, dst })
            .unwrap();
        PdId(k.obj.pds.len() - 1)
    };
    let mut child = create(&mut k, ctx, "child", 0x30);
    // The child acts for itself: its own selector space, its own
    // grandchild.
    let mut child_ctx = CompCtx { pd: child, ..ctx };
    create(&mut k, child_ctx, "grandchild", 0x31);
    /// Where the grandchild sees the child's page `p`.
    const SHIFT: u64 = 0x1_0000;
    let mut rng = Rng::new(0xdead_beef);
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
        let image = GuestImage {
            bytes: prog.bytes,
            load_gpa: prog.load_gpa,
            entry: prog.entry,
            stack: prog.stack,
        };
        let vmm = VmmConfig::full_virt(image, guest_pages);
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

/// `mem_refresh` and `mem_restore` validate the whole window before
/// touching anything: a hole in the middle — or, for the restore, a
/// read-only page — refuses the call with the image, the table and
/// guest memory exactly as they were, although the pages in front of it
/// are mapped, writable and stale.
#[test]
fn window_sweeps_refuse_holes_and_read_only_pages_untouched() {
    let (mut k, ctx) = kernel_with_root();
    k.hypercall(
        ctx,
        Hypercall::CreatePd {
            name: "window".into(),
            vm: None,
            dst: 0x30,
        },
    )
    .unwrap();
    // Eight pages straddling a leaf boundary (0x1fc..0x204).
    let (first, pages, mid) = (0x1fcu64, 8usize, 0x201u64);
    let grant = |k: &mut Kernel, base: u64, count: u64, rights: MemRights| {
        k.hypercall(
            ctx,
            Hypercall::DelegateMem {
                dst_pd: 0x30,
                base,
                count,
                rights,
                hot: base,
            },
        )
        .unwrap();
    };
    let revoke = |k: &mut Kernel, base: u64| {
        k.hypercall(
            ctx,
            Hypercall::RevokeMem {
                base,
                count: 1,
                include_self: false,
            },
        )
        .unwrap();
    };
    grant(&mut k, first, pages as u64, MemRights::RW);
    let child = nova_core::CompCtx {
        pd: PdId(1),
        ec: ctx.ec,
        comp: ctx.comp,
    };
    let window = first << 12;
    let memory = |k: &Kernel| {
        let mem = &k.machine.mem;
        let gens: Vec<u64> = (0..pages as u64)
            .map(|p| mem.frame_gen(window + p * 4096))
            .collect();
        (mem.read_bytes(window, pages * 4096), gens)
    };
    assert!(k.mem_fill(child, window, pages * 4096, 0x11));
    let mut image = vec![0u8; pages * 4096];
    let mut seen = vec![u64::MAX; pages];
    assert_eq!(
        k.mem_refresh(child, window, &mut image, &mut seen),
        Some(pages)
    );

    // Every page goes stale, then the middle one becomes a hole.
    assert!(k.mem_fill(child, window, pages * 4096, 0x22));
    revoke(&mut k, mid);
    let before = (image.clone(), seen.clone(), memory(&k));
    assert_eq!(k.mem_refresh(child, window, &mut image, &mut seen), None);
    assert_eq!(k.mem_restore(child, window, &image, &mut seen), None);
    assert!((image.clone(), seen.clone(), memory(&k)) == before);

    // Read-only in the middle: a capture reads it, a restore refuses.
    grant(&mut k, mid, 1, MemRights::RO);
    assert_eq!(k.mem_restore(child, window, &image, &mut seen), None);
    assert!((image.clone(), seen.clone(), memory(&k)) == before);
    assert_eq!(
        k.mem_refresh(child, window, &mut image, &mut seen),
        Some(pages)
    );
    assert!(image.iter().all(|&b| b == 0x22));

    // Writable again: the restore goes through, and only now.
    revoke(&mut k, mid);
    grant(&mut k, mid, 1, MemRights::RW);
    assert!(k.mem_fill(child, window, pages * 4096, 0x33));
    assert_eq!(k.mem_restore(child, window, &image, &mut seen), Some(pages));
    assert!(memory(&k).0 == image);
}
