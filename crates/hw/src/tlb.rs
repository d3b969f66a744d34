//! Translation lookaside buffer with tagged entries.
//!
//! The TLB caches final linear→host-physical translations. Entries are
//! tagged with a virtual-processor identifier (VPID on Intel, ASID on
//! AMD; tag 0 is the host/native context), which lets the hardware skip
//! the full flush on VM transitions — the effect the paper measures in
//! the "EPT with VPID" vs "EPT w/o VPID" bars of Figure 5.
//!
//! The model is direct-mapped with separate small- and large-page
//! arrays. Small host pages therefore cause more capacity/conflict
//! evictions than 2 MB/4 MB pages — the ~2% "small pages" overhead of
//! Figure 5 comes from exactly this pressure.

use crate::Cycles;

/// Number of small-page entries (direct-mapped).
pub const SMALL_SETS: usize = 256;
/// Number of large-page entries (direct-mapped).
pub const LARGE_SETS: usize = 48;

/// One cached translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TlbEntry {
    /// Tag: virtual-processor identifier (0 = host).
    pub vpid: u16,
    /// Linear page frame number (address >> page bits).
    pub vpn: u64,
    /// Host-physical base address of the mapped page.
    pub hpa: u64,
    /// Page size in bytes (4 KB, 2 MB or 4 MB).
    pub page_size: u64,
    /// Write permission.
    pub write: bool,
}

impl TlbEntry {
    /// log2 of the page size. Page sizes are powers of two, so the
    /// per-access compares shift instead of issuing a 64-bit divide.
    fn page_shift(&self) -> u32 {
        self.page_size.trailing_zeros()
    }

    /// `true` if linear address `addr` lies in the page this entry maps.
    fn covers(&self, addr: u64) -> bool {
        addr >> self.page_shift() == self.vpn
    }
}

/// TLB hit/miss/flush statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Full flushes performed.
    pub flushes: u64,
    /// Entries discarded by full flushes (refill pressure indicator).
    pub flushed_entries: u64,
}

/// The TLB: split instruction/data arrays (as on the paper's
/// processors), each direct-mapped with separate small- and large-page
/// sets.
pub struct Tlb {
    small: [Vec<Option<TlbEntry>>; 2],
    large: [Vec<Option<TlbEntry>>; 2],
    /// Statistics since construction.
    pub stats: TlbStats,
}

impl Default for Tlb {
    fn default() -> Self {
        Self::new()
    }
}

impl Tlb {
    /// Creates an empty TLB.
    pub fn new() -> Tlb {
        Tlb {
            small: [vec![None; SMALL_SETS], vec![None; SMALL_SETS]],
            large: [vec![None; LARGE_SETS], vec![None; LARGE_SETS]],
            stats: TlbStats::default(),
        }
    }

    /// Set index of a large-page entry covering `addr`. Indexed at
    /// 4 MB granularity: the largest page size, and one no smaller
    /// large page ever straddles — so insert and lookup always agree.
    fn large_set(addr: u64) -> usize {
        ((addr >> 22) as usize) % LARGE_SETS
    }

    /// The entry covering linear address `addr` under `vpid` in the
    /// instruction (`fetch`) or data array. Over the arrays alone, so
    /// that a caller holding the entry can still count in `stats`.
    #[inline(always)]
    fn find<'a>(
        small: &'a [Vec<Option<TlbEntry>>; 2],
        large: &'a [Vec<Option<TlbEntry>>; 2],
        vpid: u16,
        addr: u64,
        fetch: bool,
    ) -> Option<&'a TlbEntry> {
        let side = fetch as usize;
        // Large pages first: a hit there covers the small lookup.
        let vpn = addr >> 12;
        match (
            &large[side][Self::large_set(addr)],
            &small[side][(vpn as usize) % SMALL_SETS],
        ) {
            (Some(e), _) if e.vpid == vpid && e.covers(addr) => Some(e),
            (_, Some(e)) if e.vpid == vpid && e.vpn == vpn => Some(e),
            _ => None,
        }
    }

    /// [`Tlb::find`], counting a hit or a miss.
    #[inline(always)]
    fn probe(&mut self, vpid: u16, addr: u64, fetch: bool) -> Option<&TlbEntry> {
        let hit = Self::find(&self.small, &self.large, vpid, addr, fetch);
        match hit {
            Some(_) => self.stats.hits += 1,
            None => self.stats.misses += 1,
        }
        hit
    }

    /// The hit path of a translation: the host-physical address
    /// `addr` maps to and whether the entry permits writes, without
    /// copying the entry out. Counts a hit or a miss like
    /// [`Tlb::lookup`].
    #[inline(always)]
    pub fn hit(&mut self, vpid: u16, addr: u64, fetch: bool) -> Option<(u64, bool)> {
        self.probe(vpid, addr, fetch)
            .map(|e| (e.hpa + (addr & (e.page_size - 1)), e.write))
    }

    /// What [`Tlb::hit`] would return, counting nothing: the block
    /// executor looks before it retires a run of loads from one page
    /// and counts their hits itself.
    #[inline(always)]
    pub fn peek(&self, vpid: u16, addr: u64, fetch: bool) -> Option<(u64, bool)> {
        Self::find(&self.small, &self.large, vpid, addr, fetch)
            .map(|e| (e.hpa + (addr & (e.page_size - 1)), e.write))
    }

    /// Data-side lookup of the whole entry.
    pub fn lookup(&mut self, vpid: u16, addr: u64) -> Option<TlbEntry> {
        self.probe(vpid, addr, false).copied()
    }

    /// Inserts a translation into the instruction or data array,
    /// evicting whatever occupies its set.
    pub fn insert_for(&mut self, e: TlbEntry, fetch: bool) {
        let side = fetch as usize;
        if e.page_size > 4096 {
            let set = Self::large_set(e.vpn << e.page_shift());
            self.large[side][set] = Some(e);
        } else {
            let set = (e.vpn as usize) % SMALL_SETS;
            self.small[side][set] = Some(e);
        }
    }

    /// Data-side insert (compatibility helper).
    pub fn insert(&mut self, e: TlbEntry) {
        self.insert_for(e, false)
    }

    /// Invalidates the entries mapping linear address `addr` for
    /// `vpid` in both arrays (INVLPG semantics).
    pub fn invalidate(&mut self, vpid: u16, addr: u64) {
        for side in 0..2 {
            let vpn = addr >> 12;
            let set = (vpn as usize) % SMALL_SETS;
            if let Some(e) = self.small[side][set] {
                if e.vpid == vpid && e.vpn == vpn {
                    self.small[side][set] = None;
                }
            }
            let lset = Self::large_set(addr);
            if let Some(e) = self.large[side][lset] {
                if e.vpid == vpid && e.covers(addr) {
                    self.large[side][lset] = None;
                }
            }
        }
    }

    /// Flushes all entries of one tag (address-space switch with tagged
    /// TLB, or vTLB flush).
    pub fn flush_vpid(&mut self, vpid: u16) {
        let mut discarded = 0;
        for arr in self.small.iter_mut().chain(self.large.iter_mut()) {
            for e in arr.iter_mut() {
                if e.is_some_and(|x| x.vpid == vpid) {
                    *e = None;
                    discarded += 1;
                }
            }
        }
        self.stats.flushes += 1;
        self.stats.flushed_entries += discarded;
    }

    /// Flushes every tag of a set (a vCPU whose shadow-table cache owns
    /// one VPID per cached address space releases them all at once on
    /// teardown). Tag 0 widens to a full flush — an untagged TLB cannot
    /// flush selectively.
    pub fn flush_vpids(&mut self, vpids: impl IntoIterator<Item = u16>) {
        for v in vpids {
            if v == 0 {
                self.flush_all();
            } else {
                self.flush_vpid(v);
            }
        }
    }

    /// Flushes everything (untagged VM transition, CR3 write on a CPU
    /// without tags).
    pub fn flush_all(&mut self) {
        let mut discarded = 0;
        for arr in self.small.iter_mut().chain(self.large.iter_mut()) {
            for e in arr.iter_mut() {
                if e.is_some() {
                    *e = None;
                    discarded += 1;
                }
            }
        }
        self.stats.flushes += 1;
        self.stats.flushed_entries += discarded;
    }

    /// Number of currently valid entries.
    pub fn occupancy(&self) -> usize {
        self.small
            .iter()
            .chain(self.large.iter())
            .flat_map(|a| a.iter())
            .filter(|e| e.is_some())
            .count()
    }

    /// Amortized cycle penalty of the refills caused by the most recent
    /// full flush, given a per-entry refill cost.
    pub fn refill_penalty(occupancy_before: usize, per_entry: Cycles) -> Cycles {
        occupancy_before as Cycles * per_entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_entry(vpid: u16, vpn: u64) -> TlbEntry {
        TlbEntry {
            vpid,
            vpn,
            hpa: vpn << 12,
            page_size: 4096,
            write: true,
        }
    }

    #[test]
    fn hit_after_insert() {
        let mut t = Tlb::new();
        t.insert(small_entry(1, 0x10));
        let e = t.lookup(1, 0x10_123).expect("hit");
        assert_eq!(e.hpa, 0x10_000);
        assert_eq!(t.stats.hits, 1);
    }

    #[test]
    fn vpid_tags_isolate() {
        let mut t = Tlb::new();
        t.insert(small_entry(1, 0x10));
        assert!(t.lookup(2, 0x10_000).is_none(), "other tag must miss");
        assert_eq!(t.stats.misses, 1);
    }

    #[test]
    fn large_page_covers_range() {
        let mut t = Tlb::new();
        t.insert(TlbEntry {
            vpid: 0,
            vpn: 0x4020_0000 / (2 << 20),
            hpa: 0x80_0000,
            page_size: 2 << 20,
            write: true,
        });
        assert!(t.lookup(0, 0x4020_0000).is_some());
        assert!(t.lookup(0, 0x4030_0000).is_some()); // same 2 MB page
        assert!(t.lookup(0, 0x4040_0000).is_none()); // next page
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut t = Tlb::new();
        t.insert(small_entry(0, 5));
        t.insert(small_entry(0, 5 + SMALL_SETS as u64)); // same set
        assert!(t.lookup(0, 5 << 12).is_none(), "conflicting entry evicted");
    }

    #[test]
    fn invalidate_single_entry() {
        let mut t = Tlb::new();
        t.insert(small_entry(3, 7));
        t.invalidate(3, 7 << 12);
        assert!(t.lookup(3, 7 << 12).is_none());
    }

    #[test]
    fn flush_vpid_spares_other_tags() {
        let mut t = Tlb::new();
        t.insert(small_entry(1, 1));
        t.insert(small_entry(2, 2));
        t.flush_vpid(1);
        assert!(t.lookup(1, 1 << 12).is_none());
        assert!(t.lookup(2, 2 << 12).is_some());
        assert_eq!(t.stats.flushes, 1);
        assert_eq!(t.stats.flushed_entries, 1);
    }

    #[test]
    fn flush_all_counts_occupancy() {
        let mut t = Tlb::new();
        for i in 0..10 {
            t.insert(small_entry(0, i));
        }
        assert_eq!(t.occupancy(), 10);
        t.flush_all();
        assert_eq!(t.occupancy(), 0);
        assert_eq!(t.stats.flushed_entries, 10);
    }

    /// `peek` answers what `hit` answers on the same state, and counts
    /// nothing: seeded inserts (small and large, both sides, three
    /// tags), invalidations and flushes, each followed by probes.
    #[test]
    fn peek_agrees_with_hit_and_counts_nothing() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        let mut t = Tlb::new();
        let (mut hits, mut misses) = (0, 0);
        for _ in 0..20_000 {
            let vpid = next(3) as u16;
            // Addresses in a 64 MB window, so sets collide often.
            let addr = next(64 << 20);
            let fetch = next(2) == 0;
            match next(16) {
                0..=5 => {
                    let page_size = [4096, 2 << 20, 4 << 20][next(3) as usize];
                    t.insert_for(
                        TlbEntry {
                            vpid,
                            vpn: addr / page_size,
                            hpa: next(1 << 20) * page_size,
                            page_size,
                            write: next(2) == 0,
                        },
                        fetch,
                    );
                }
                6 => t.invalidate(vpid, addr),
                7 if next(64) == 0 => t.flush_vpid(vpid),
                _ => {}
            }
            let before = t.stats;
            let peeked = t.peek(vpid, addr, fetch);
            assert_eq!(t.stats, before, "a peek counts nothing");
            let got = t.hit(vpid, addr, fetch);
            assert_eq!(peeked, got, "vpid {vpid} addr {addr:#x} fetch {fetch}");
            hits += got.is_some() as u32;
            misses += got.is_none() as u32;
        }
        assert!(
            hits > 1_000 && misses > 1_000,
            "{hits} hits, {misses} misses"
        );
    }

    #[test]
    fn refill_penalty_scales() {
        assert_eq!(Tlb::refill_penalty(10, 16), 160);
        assert_eq!(Tlb::refill_penalty(0, 16), 0);
    }
}
