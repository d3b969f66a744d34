//! Hypervisor-owned hardware page tables: the frame allocator over the
//! hypervisor's memory region, the nested (EPT/NPT) table builder for
//! VM domains, and the shadow tables used by the vTLB algorithm.
//!
//! These are *real* tables in simulated physical memory — the MMU in
//! `nova-hw` walks them entry by entry, so host-page-size choices
//! (2 MB/4 MB vs 4 KB) change walk depth and TLB pressure exactly as
//! the paper measures in Figure 5.

use nova_hw::mem::PhysMem;
use nova_hw::mmu::nested_entry;
use nova_hw::PAddr;
use nova_x86::paging::{pte, NestedEntry, NestedFormat, PAGE_SIZE};

use crate::obj::{MemMapping, MemSpace};

/// Bump allocator over the hypervisor's private memory region, with a
/// free list for recycled frames.
pub struct FrameAllocator {
    next: PAddr,
    end: PAddr,
    free: Vec<PAddr>,
    /// Frames handed out (diagnostics).
    pub allocated: u64,
}

impl FrameAllocator {
    /// Manages the region `[base, base + size)`; both 4 KB aligned.
    pub fn new(base: PAddr, size: u64) -> FrameAllocator {
        assert_eq!(base % PAGE_SIZE as u64, 0);
        FrameAllocator {
            next: base,
            end: base + size,
            free: Vec::new(),
            allocated: 0,
        }
    }

    /// Allocates one zeroed frame.
    ///
    /// # Panics
    ///
    /// Panics when the hypervisor region is exhausted — a
    /// configuration error, not a runtime condition.
    pub fn alloc(&mut self, mem: &mut PhysMem) -> PAddr {
        let frame = match self.free.pop() {
            Some(f) => f,
            None => {
                assert!(self.next < self.end, "hypervisor memory exhausted");
                let f = self.next;
                self.next += PAGE_SIZE as u64;
                f
            }
        };
        mem.fill(frame, PAGE_SIZE as usize, 0);
        self.allocated += 1;
        frame
    }

    /// Returns a frame to the pool.
    pub fn release(&mut self, frame: PAddr) {
        self.free.push(frame);
    }

    /// Remaining capacity in frames (fresh region + free list).
    pub fn available(&self) -> u64 {
        (self.end - self.next) / PAGE_SIZE as u64 + self.free.len() as u64
    }
}

/// [`NestedTable::map_page`]'s refusal: a large leaf already maps the
/// page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UnderLargeLeaf;

/// A nested page table (EPT or NPT) under construction.
pub struct NestedTable {
    /// Root physical address (goes into the VMCS).
    pub root: PAddr,
    /// Format.
    pub fmt: NestedFormat,
    frames: Vec<PAddr>,
}

impl NestedTable {
    /// Allocates an empty table.
    pub fn new(fmt: NestedFormat, alloc: &mut FrameAllocator, mem: &mut PhysMem) -> NestedTable {
        let root = alloc.alloc(mem);
        NestedTable {
            root,
            fmt,
            frames: vec![root],
        }
    }

    fn write_entry(&self, mem: &mut PhysMem, table: PAddr, idx: u64, val: u64) {
        match self.fmt.entry_size() {
            8 => mem.write_u64(table + idx * 8, val),
            _ => mem.write_u32(table + idx * 4, val as u32),
        }
    }

    /// Descends from the root towards the table at `leaf_level` and
    /// returns the slot `(table, index, level)` that maps `gpa`: at
    /// `leaf_level`, or higher up where a large leaf already covers
    /// `gpa`. A missing table on the way is allocated and linked with
    /// `alloc`; without, it ends the descent with `None`.
    fn descend(
        &mut self,
        mem: &mut PhysMem,
        gpa: u64,
        leaf_level: u32,
        mut alloc: Option<&mut FrameAllocator>,
    ) -> Option<(PAddr, u64, u32)> {
        let mut table = self.root;
        let mut level = self.fmt.levels() - 1;
        while level > leaf_level {
            let idx = self.fmt.index_of(level, gpa);
            let e = self.fmt.decode(nested_entry(mem, self.fmt, table, idx));
            table = if !e.present {
                let f = alloc.as_deref_mut()?.alloc(mem);
                self.frames.push(f);
                self.write_entry(mem, table, idx, self.fmt.table_entry(f));
                f
            } else if e.large {
                return Some((table, idx, level));
            } else {
                e.next
            };
            level -= 1;
        }
        Some((table, self.fmt.index_of(leaf_level, gpa), leaf_level))
    }

    /// Maps one small (4 KB) page: GPA → HPA. A page a large mapping
    /// already covers is refused and stays under it, nothing written:
    /// whoever made the large mapping unmaps it first (the kernel
    /// splinters a chunk before it maps finer, `revoke_mem_ranges`).
    pub fn map_page(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut FrameAllocator,
        gpa: u64,
        hpa: PAddr,
        write: bool,
    ) -> Result<(), UnderLargeLeaf> {
        let leaf = self.fmt.leaf_entry(hpa & !0xfff, write, false);
        let slot = self.descend(mem, gpa, 0, Some(alloc)).filter(|s| s.2 == 0);
        let (table, idx, _) = slot.ok_or(UnderLargeLeaf)?;
        self.write_entry(mem, table, idx, leaf);
        Ok(())
    }

    /// Maps one large page (2 MB for EPT, 4 MB for NPT): GPA → HPA,
    /// both aligned to the large size. A page table the leaf takes the
    /// place of goes back to `alloc`: it maps nothing, because whoever
    /// maps a chunk whole has unmapped every page of it (the kernel
    /// maps only into free destination pages).
    pub fn map_large(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut FrameAllocator,
        gpa: u64,
        hpa: PAddr,
        write: bool,
    ) {
        let size = self.fmt.large_page_size();
        debug_assert_eq!(gpa % size, 0);
        debug_assert_eq!(hpa % size, 0);
        let leaf = self.fmt.leaf_entry(hpa, write, true);
        if let Some((table, idx, 1)) = self.descend(mem, gpa, 1, Some(alloc)) {
            let old = self.fmt.decode(nested_entry(mem, self.fmt, table, idx));
            self.write_entry(mem, table, idx, leaf);
            if old.present && !old.large {
                let empty = mem.slice(old.next, PAGE_SIZE as usize);
                debug_assert!(empty.is_some_and(|t| t.iter().all(|&b| b == 0)));
                self.frames.retain(|&f| f != old.next);
                alloc.release(old.next);
            }
        }
    }

    /// Mirrors the `count` pages from `hot` of `ms` into the table, at
    /// the same guest-physical addresses: a whole chunk as one large
    /// leaf where `large` allows and one leaf can stand for it (every
    /// page mapped, the frames consecutive from a chunk-aligned one,
    /// one write right), every other mapped page as a 4 KB leaf, in
    /// ascending order. The pages must lie under no large leaf yet.
    pub fn mirror(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut FrameAllocator,
        ms: &MemSpace,
        (hot, count): (u64, u64),
        large: bool,
    ) {
        let cp = self.fmt.large_page_size() / PAGE_SIZE as u64;
        let mut i = 0;
        while i < count {
            let gpage = hot + i;
            if large && gpage.is_multiple_of(cp) && count - i >= cp {
                if let Some(first) = uniform_chunk(ms, gpage, cp) {
                    let gpa = gpage * PAGE_SIZE as u64;
                    self.map_large(mem, alloc, gpa, first.hpa, first.rights.write);
                    i += cp;
                    continue;
                }
            }
            // Up to the next chunk boundary at 4 KB.
            let n = (cp - gpage % cp).min(count - i);
            for (p, m) in (gpage..).zip(ms.slices(gpage, n).flatten()) {
                let Some(m) = m else { continue };
                let (gpa, w) = (p * PAGE_SIZE as u64, m.rights.write);
                let mapped = self.map_page(mem, alloc, gpa, m.hpa, w);
                mapped.expect("a mirrored page lies under no large leaf");
            }
            i += n;
        }
    }

    /// Whether a large leaf maps `gpa`.
    pub fn is_large(&self, mem: &PhysMem, gpa: u64) -> bool {
        let mut table = self.root;
        for level in (1..self.fmt.levels()).rev() {
            let idx = self.fmt.index_of(level, gpa);
            let e = self.fmt.decode(nested_entry(mem, self.fmt, table, idx));
            if !e.present || e.large {
                return e.present;
            }
            table = e.next;
        }
        false
    }

    /// Unmaps the small page covering `gpa` (clears the leaf entry;
    /// intermediate tables are kept). Clearing a large page drops the
    /// whole range.
    pub fn unmap_page(&mut self, mem: &mut PhysMem, gpa: u64) {
        if let Some((table, idx, _)) = self.descend(mem, gpa, 0, None) {
            self.write_entry(mem, table, idx, 0);
        }
    }

    /// Frames owned by this table (for teardown).
    pub fn frames(&self) -> &[PAddr] {
        &self.frames
    }

    /// Walks the whole table: `f(gpa, level, entry)` for every present
    /// leaf, in ascending guest-physical order (a leaf above level 0 is
    /// large). Returns the table frames the walk went through, the root
    /// first.
    pub fn leaves(&self, mem: &PhysMem, mut f: impl FnMut(u64, u32, NestedEntry)) -> Vec<PAddr> {
        let mut tables = Vec::new();
        let top = self.fmt.levels() - 1;
        self.visit(mem, self.root, top, 0, &mut f, &mut tables);
        tables
    }

    fn visit(
        &self,
        mem: &PhysMem,
        table: PAddr,
        level: u32,
        base: u64,
        f: &mut impl FnMut(u64, u32, NestedEntry),
        tables: &mut Vec<PAddr>,
    ) {
        tables.push(table);
        for idx in 0..1u64 << self.fmt.index_bits() {
            let e = self.fmt.decode(nested_entry(mem, self.fmt, table, idx));
            let gpa = base + idx * self.fmt.page_size_at(level);
            if e.present && (level == 0 || e.large) {
                f(gpa, level, e);
            } else if e.present {
                self.visit(mem, e.next, level - 1, gpa, f, tables);
            }
        }
    }
}

/// The first mapping of the `cp`-page chunk at `page` of `ms` if one
/// large leaf can stand for the chunk: every page mapped, the frames
/// consecutive from a chunk-aligned one, one write right throughout.
pub(crate) fn uniform_chunk(ms: &MemSpace, page: u64, cp: u64) -> Option<MemMapping> {
    let first = ms.slices(page, 1).next()?[0]?;
    let size = cp * PAGE_SIZE as u64;
    let fits = |(j, m): (u64, &Option<MemMapping>)| {
        m.is_some_and(|m| {
            m.hpa == first.hpa + j * PAGE_SIZE as u64 && m.rights.write == first.rights.write
        })
    };
    let whole = (0..).zip(ms.slices(page, cp).flatten()).all(fits);
    (first.hpa.is_multiple_of(size) && whole).then_some(first)
}

/// A shadow page table (32-bit two-level) maintained by the vTLB
/// algorithm, with frame recycling across flushes.
pub struct ShadowPt {
    /// Root physical address (the table the hardware walks).
    pub root: PAddr,
    subs: Vec<(u32, PAddr)>,
    pool: Vec<PAddr>,
}

impl ShadowPt {
    /// Allocates an empty shadow table.
    pub fn new(alloc: &mut FrameAllocator, mem: &mut PhysMem) -> ShadowPt {
        ShadowPt {
            root: alloc.alloc(mem),
            subs: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// Installs a 4 KB translation `gva` → `hpa`. `write` and `user`
    /// are the effective guest rights for the page (already intersected
    /// across the guest walk).
    pub fn fill(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut FrameAllocator,
        gva: u32,
        hpa: PAddr,
        write: bool,
        user: bool,
    ) {
        let (di, ti, _) = nova_x86::paging::split_2level(gva);
        let pde_addr = self.root + di as u64 * 4;
        let pde = mem.read_u32(pde_addr);
        let pt = if pde & pte::P != 0 {
            (pde & pte::ADDR) as u64
        } else {
            let f = match self.pool.pop() {
                Some(f) => {
                    mem.fill(f, PAGE_SIZE as usize, 0);
                    f
                }
                None => alloc.alloc(mem),
            };
            self.subs.push((di, f));
            // The PDE is always writable/user; per-page rights live in
            // PTEs.
            mem.write_u32(pde_addr, f as u32 | pte::P | pte::W | pte::US);
            f
        };
        let mut e = hpa as u32 & pte::ADDR | pte::P;
        if write {
            e |= pte::W;
        }
        if user {
            e |= pte::US;
        }
        mem.write_u32(pt + ti as u64 * 4, e);
    }

    /// Removes the translation for `gva` (INVLPG handling).
    pub fn invalidate(&mut self, mem: &mut PhysMem, gva: u32) {
        let (di, ti, _) = nova_x86::paging::split_2level(gva);
        let pde = mem.read_u32(self.root + di as u64 * 4);
        if pde & pte::P != 0 {
            mem.write_u32((pde & pte::ADDR) as u64 + ti as u64 * 4, 0);
        }
    }

    /// Drops the whole 4 MB region under directory slot `di`, recycling
    /// its sub-table frame (precise invalidation after the guest
    /// repointed or cleared a PDE).
    pub fn clear_pde(&mut self, mem: &mut PhysMem, di: u32) {
        mem.write_u32(self.root + di as u64 * 4, 0);
        if let Some(pos) = self.subs.iter().position(|(d, _)| *d == di) {
            let (_, f) = self.subs.swap_remove(pos);
            self.pool.push(f);
        }
    }

    /// Drops every translation (guest address-space switch), recycling
    /// the sub-table frames.
    pub fn flush(&mut self, mem: &mut PhysMem) {
        mem.fill(self.root, PAGE_SIZE as usize, 0);
        self.pool.extend(self.subs.drain(..).map(|(_, f)| f));
    }

    /// Flushes and returns every sub-table frame (live and pooled) to
    /// the global allocator — cache eviction gives the frames back to
    /// the hypervisor pool instead of hoarding them per slot.
    pub fn release_frames(&mut self, mem: &mut PhysMem, alloc: &mut FrameAllocator) {
        self.flush(mem);
        for f in self.pool.drain(..) {
            alloc.release(f);
        }
    }

    /// Number of live sub-tables (diagnostics).
    pub fn sub_tables(&self) -> usize {
        self.subs.len()
    }
}

/// Convenience: rounds a byte count up to whole pages.
pub fn pages(bytes: u64) -> u64 {
    bytes.div_ceil(PAGE_SIZE as u64)
}

/// Convenience: the number of large pages covering `bytes` for `fmt`.
pub fn large_pages(bytes: u64, fmt: NestedFormat) -> u64 {
    bytes.div_ceil(fmt.large_page_size())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nova_hw::cost::BLM;
    use nova_hw::mmu::walk_nested;
    use nova_x86::paging::Access;

    fn setup() -> (PhysMem, FrameAllocator) {
        let mem = PhysMem::new(32 << 20);
        let alloc = FrameAllocator::new(24 << 20, 8 << 20);
        (mem, alloc)
    }

    #[test]
    fn frame_allocator_recycles() {
        let (mut mem, mut alloc) = setup();
        let a = alloc.alloc(&mut mem);
        let b = alloc.alloc(&mut mem);
        assert_ne!(a, b);
        mem.write_u32(a, 0xdead);
        alloc.release(a);
        let c = alloc.alloc(&mut mem);
        assert_eq!(c, a, "free list reused");
        assert_eq!(mem.read_u32(c), 0, "recycled frame zeroed");
    }

    #[test]
    fn ept_map_then_walk() {
        let (mut mem, mut alloc) = setup();
        let mut t = NestedTable::new(NestedFormat::Ept4Level, &mut alloc, &mut mem);
        t.map_page(&mut mem, &mut alloc, 0x5000, 0x9000, true)
            .unwrap();
        let mut cyc = 0;
        let leaf = walk_nested(
            &mem,
            t.root,
            NestedFormat::Ept4Level,
            0x5123,
            Access::WRITE,
            &BLM,
            &mut cyc,
        )
        .unwrap();
        assert_eq!(leaf.hpa, 0x9123);
        // Unmapped neighbour faults.
        assert!(walk_nested(
            &mem,
            t.root,
            NestedFormat::Ept4Level,
            0x6000,
            Access::READ,
            &BLM,
            &mut cyc
        )
        .is_err());
    }

    #[test]
    fn ept_read_only_blocks_writes() {
        let (mut mem, mut alloc) = setup();
        let mut t = NestedTable::new(NestedFormat::Ept4Level, &mut alloc, &mut mem);
        t.map_page(&mut mem, &mut alloc, 0x5000, 0x9000, false)
            .unwrap();
        let mut cyc = 0;
        assert!(walk_nested(
            &mem,
            t.root,
            NestedFormat::Ept4Level,
            0x5000,
            Access::READ,
            &BLM,
            &mut cyc
        )
        .is_ok());
        assert!(walk_nested(
            &mem,
            t.root,
            NestedFormat::Ept4Level,
            0x5000,
            Access::WRITE,
            &BLM,
            &mut cyc
        )
        .is_err());
    }

    #[test]
    fn ept_large_page_walk_is_shorter() {
        let (mut mem, mut alloc) = setup();
        let mut t = NestedTable::new(NestedFormat::Ept4Level, &mut alloc, &mut mem);
        t.map_large(&mut mem, &mut alloc, 0, 2 << 20, true);
        let mut cyc_large = 0;
        let leaf = walk_nested(
            &mem,
            t.root,
            NestedFormat::Ept4Level,
            0x12345,
            Access::READ,
            &BLM,
            &mut cyc_large,
        )
        .unwrap();
        assert_eq!(leaf.hpa, (2 << 20) + 0x12345);
        assert_eq!(leaf.page_size, 2 << 20);

        let mut t2 = NestedTable::new(NestedFormat::Ept4Level, &mut alloc, &mut mem);
        t2.map_page(&mut mem, &mut alloc, 0x12000, (2 << 20) + 0x12000, true)
            .unwrap();
        let mut cyc_small = 0;
        walk_nested(
            &mem,
            t2.root,
            NestedFormat::Ept4Level,
            0x12345,
            Access::READ,
            &BLM,
            &mut cyc_small,
        )
        .unwrap();
        assert!(cyc_large < cyc_small, "large page saves a level");
    }

    #[test]
    fn npt_2level_map_and_walk() {
        let (mut mem, mut alloc) = setup();
        let mut t = NestedTable::new(NestedFormat::Npt2Level, &mut alloc, &mut mem);
        t.map_large(&mut mem, &mut alloc, 0, 4 << 20, true);
        t.map_page(&mut mem, &mut alloc, 0x40_0000, 0x80_0000, true)
            .unwrap();
        let mut cyc = 0;
        let l1 = walk_nested(
            &mem,
            t.root,
            NestedFormat::Npt2Level,
            0x1234,
            Access::READ,
            &BLM,
            &mut cyc,
        )
        .unwrap();
        assert_eq!(l1.hpa, (4 << 20) + 0x1234);
        assert_eq!(l1.page_size, 4 << 20);
        let l2 = walk_nested(
            &mem,
            t.root,
            NestedFormat::Npt2Level,
            0x40_0abc,
            Access::READ,
            &BLM,
            &mut cyc,
        )
        .unwrap();
        assert_eq!(l2.hpa, 0x80_0abc);
    }

    #[test]
    fn unmap_page_clears_leaf() {
        let (mut mem, mut alloc) = setup();
        let mut t = NestedTable::new(NestedFormat::Ept4Level, &mut alloc, &mut mem);
        t.map_page(&mut mem, &mut alloc, 0x5000, 0x9000, true)
            .unwrap();
        t.unmap_page(&mut mem, 0x5000);
        let mut cyc = 0;
        assert!(walk_nested(
            &mem,
            t.root,
            NestedFormat::Ept4Level,
            0x5000,
            Access::READ,
            &BLM,
            &mut cyc
        )
        .is_err());
    }

    /// A 4 KB mapping asked for where a large leaf stands is refused and
    /// leaves the leaf in charge; the large frame is never taken for a
    /// table.
    #[test]
    fn map_page_under_a_large_leaf_never_writes_through_it() {
        for fmt in [NestedFormat::Ept4Level, NestedFormat::Npt2Level] {
            let (mut mem, mut alloc) = setup();
            let mut t = NestedTable::new(fmt, &mut alloc, &mut mem);
            let frame = fmt.large_page_size();
            t.map_large(&mut mem, &mut alloc, 0, frame, true);
            let gen = mem.frame_gen(frame);
            let refused = t.map_page(&mut mem, &mut alloc, 0x5000, 0x9000, true);
            assert_eq!(refused, Err(UnderLargeLeaf), "{fmt:?}");
            assert_eq!(mem.frame_gen(frame), gen, "{fmt:?}: guest frame untouched");
            let mut cyc = 0;
            let leaf = walk_nested(&mem, t.root, fmt, 0x5123, Access::READ, &BLM, &mut cyc);
            assert_eq!(leaf.map(|l| l.hpa), Ok(frame + 0x5123));
        }
    }

    #[test]
    fn shadow_fill_flush_recycle() {
        let (mut mem, mut alloc) = setup();
        let mut s = ShadowPt::new(&mut alloc, &mut mem);
        s.fill(&mut mem, &mut alloc, 0x40_0000, 0x9000, true, true);
        s.fill(&mut mem, &mut alloc, 0x40_1000, 0xa000, false, true);
        let mut cyc = 0;
        let leaf = nova_hw::mmu::walk_2level(
            &mem,
            s.root as u32,
            0x40_0123,
            Access::WRITE,
            false,
            &BLM,
            &mut cyc,
        )
        .unwrap();
        assert_eq!(leaf.hpa, 0x9123);
        // Read-only fill rejects writes.
        assert!(nova_hw::mmu::walk_2level(
            &mem,
            s.root as u32,
            0x40_1000,
            Access::WRITE,
            false,
            &BLM,
            &mut cyc
        )
        .is_err());

        let before = alloc.allocated;
        s.flush(&mut mem);
        assert!(nova_hw::mmu::walk_2level(
            &mem,
            s.root as u32,
            0x40_0123,
            Access::READ,
            false,
            &BLM,
            &mut cyc
        )
        .is_err());
        // Refill after flush reuses pooled frames: no new allocation.
        s.fill(&mut mem, &mut alloc, 0x40_0000, 0x9000, true, true);
        assert_eq!(alloc.allocated, before, "sub-table frame recycled");
    }

    #[test]
    fn shadow_invalidate_single() {
        let (mut mem, mut alloc) = setup();
        let mut s = ShadowPt::new(&mut alloc, &mut mem);
        s.fill(&mut mem, &mut alloc, 0x1000, 0x9000, true, true);
        s.fill(&mut mem, &mut alloc, 0x2000, 0xa000, true, true);
        s.invalidate(&mut mem, 0x1000);
        let mut cyc = 0;
        assert!(nova_hw::mmu::walk_2level(
            &mem,
            s.root as u32,
            0x1000,
            Access::READ,
            false,
            &BLM,
            &mut cyc
        )
        .is_err());
        assert!(nova_hw::mmu::walk_2level(
            &mem,
            s.root as u32,
            0x2000,
            Access::READ,
            false,
            &BLM,
            &mut cyc
        )
        .is_ok());
    }
}
