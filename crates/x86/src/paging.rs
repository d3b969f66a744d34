//! Page-table entry formats: 32-bit two-level guest paging (with 4 MB
//! page-size extension) and the nested-paging formats used by the host —
//! 4-level EPT (the Intel model in the paper) and 2-level NPT with 4 MB
//! pages (the AMD model, whose shallower host walk explains the lower
//! overhead measured on the Phenom in Figure 5).
//!
//! This module is the only place that knows how an entry of either
//! format is laid out and in which order a walk reads them:
//! [`walk_2level`] is the one reader of a guest PDE and PTE, and
//! [`NestedFormat::decode`] the one decoder of a nested entry. Every
//! walker elsewhere (`nova-hw::mmu`, `nova-core::{vtlb, hostpt}`, the
//! VMM's and the monolithic baseline's emulators) is an adapter that
//! supplies the memory reads and adds its own cost charges, frame
//! tracking or fault type.

/// Size of a small page.
pub const PAGE_SIZE: u32 = 4096;
/// Number of low bits covered by a small page.
pub const PAGE_BITS: u32 = 12;
/// Size of a 32-bit large page (PDE.PS).
pub const LARGE_PAGE_SIZE: u32 = 4 << 20;

/// Bits of a 32-bit page-directory or page-table entry.
pub mod pte {
    /// Present.
    pub const P: u32 = 1 << 0;
    /// Writable.
    pub const W: u32 = 1 << 1;
    /// User-accessible (carried, not enforced by the flat-privilege CPU).
    pub const U: u32 = 1 << 2;
    /// User/supervisor — the architectural name for [`U`]. The guest
    /// walker intersects it across PDE and PTE.
    pub const US: u32 = U;
    /// Accessed.
    pub const A: u32 = 1 << 5;
    /// Dirty.
    pub const D: u32 = 1 << 6;
    /// Page size (PDE only): maps a 4 MB page.
    pub const PS: u32 = 1 << 7;
    /// Global (PTE / PS PDE): survives CR3 reloads when CR4.PGE is set.
    pub const G: u32 = 1 << 8;
    /// Mask of the physical frame address.
    pub const ADDR: u32 = 0xffff_f000;
    /// Mask of the 4 MB frame address in a PS PDE.
    pub const ADDR_LARGE: u32 = 0xffc0_0000;
}

/// Bits of a nested (EPT/NPT) page-table entry. Stored as u64 in host
/// tables; guest-physical space is 32-bit (max 3 GB, Section 5.3).
pub mod npte {
    /// Readable.
    pub const R: u64 = 1 << 0;
    /// Writable.
    pub const W: u64 = 1 << 1;
    /// Executable.
    pub const X: u64 = 1 << 2;
    /// Large page (terminates the walk above level 0).
    pub const PS: u64 = 1 << 7;
    /// Mask of the physical frame address.
    pub const ADDR: u64 = 0x000f_ffff_ffff_f000;
    /// All permissions.
    pub const RWX: u64 = R | W | X;
}

/// Splits a 32-bit linear address into (directory index, table index,
/// offset).
pub fn split_2level(addr: u32) -> (u32, u32, u32) {
    (addr >> 22, (addr >> 12) & 0x3ff, addr & 0xfff)
}

/// What [`walk_2level`] found for a present translation: the entries
/// it read and where, before any permission is applied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Walk {
    /// What the linear address translates to, in the address space the
    /// table pointers live in.
    pub addr: u64,
    /// Size of the mapping: [`PAGE_SIZE`] or [`LARGE_PAGE_SIZE`].
    pub page_size: u32,
    /// The page-directory entry.
    pub pde: u32,
    /// Where the page-directory entry was read.
    pub pde_at: u64,
    /// The page-table entry and where it was read; `None` when the PDE
    /// maps a 4 MB page.
    pub pte: Option<(u32, u64)>,
}

impl Walk {
    /// The bits both levels grant (a 4 MB page has one level).
    #[inline]
    fn granted(&self) -> u32 {
        self.pde & self.pte.map_or(!0, |(e, _)| e)
    }

    /// W at every level.
    #[inline]
    pub fn write(&self) -> bool {
        self.granted() & pte::W != 0
    }

    /// US at every level.
    #[inline]
    pub fn user(&self) -> bool {
        self.granted() & pte::US != 0
    }

    /// Whether a store by this class of access goes through: W at every
    /// level, or a supervisor store with `CR0.WP` clear.
    #[inline]
    pub fn may_write(&self, user: bool, wp: bool) -> bool {
        self.write() || (!user && !wp)
    }

    /// The permission rule of the two-level format.
    #[inline]
    pub fn permits(&self, write: bool, user: bool, wp: bool) -> bool {
        (!user || self.user()) && (!write || self.may_write(user, wp))
    }
}

/// What the hardware walkers of this model (native, nested, shadow) and
/// the instruction emulators make of a walk: every access is a
/// supervisor access with `CR0.WP` set. Only the vTLB's software walk
/// passes the guest's own privilege and `CR0.WP` to [`Walk::permits`].
///
/// # Errors
///
/// The `present` bit of the page fault: `false` for a missing
/// translation, `true` for a denied store.
#[inline]
pub fn hardware_access(walk: Option<Walk>, write: bool) -> Result<Walk, bool> {
    match walk {
        Some(w) if w.permits(write, false, true) => Ok(w),
        denied => Err(denied.is_some()),
    }
}

/// Walks the two-level table rooted at `cr3` for `addr`: reads the PDE
/// and then, unless `pse` and PDE.PS make it a 4 MB page, the PTE —
/// each through `read`, which is handed the address of the entry.
/// `Ok(None)` is a not-present entry at either level; a failing `read`
/// is the only other stop. Permissions are the caller's to apply
/// ([`Walk::permits`]), as are cost charges and accessed/dirty updates.
///
/// # Errors
///
/// Whatever `read` failed with.
#[inline]
pub fn walk_2level<E>(
    cr3: u32,
    pse: bool,
    addr: u32,
    mut read: impl FnMut(u64) -> Result<u32, E>,
) -> Result<Option<Walk>, E> {
    let (di, ti, _) = split_2level(addr);
    let pde_at = (cr3 & pte::ADDR) as u64 + di as u64 * 4;
    let pde = read(pde_at)?;
    if pde & pte::P == 0 {
        return Ok(None);
    }
    let (frame, page_size, pte) = if pse && pde & pte::PS != 0 {
        (pde & pte::ADDR_LARGE, LARGE_PAGE_SIZE, None)
    } else {
        let pte_at = (pde & pte::ADDR) as u64 + ti as u64 * 4;
        let pte_v = read(pte_at)?;
        if pte_v & pte::P == 0 {
            return Ok(None);
        }
        (pte_v & pte::ADDR, PAGE_SIZE, Some((pte_v, pte_at)))
    };
    Ok(Some(Walk {
        addr: (frame + (addr & (page_size - 1))) as u64,
        page_size,
        pde,
        pde_at,
        pte,
    }))
}

/// `true` if a `bytes`-byte access at linear `addr` leaves its 4 KB page.
#[inline(always)]
pub fn crosses_page(addr: u32, bytes: u32) -> bool {
    (addr & (PAGE_SIZE - 1)) + bytes > PAGE_SIZE
}

/// Where each of the (up to four) bytes from `addr` on lives when the
/// access leaves its page: both pages are translated, first page first,
/// before the caller moves a byte — so a failure on the second page
/// (whose `translate` is handed that page's first byte) leaves memory
/// untouched. Adjacent linear pages need not be adjacent behind the
/// translation.
///
/// # Errors
///
/// Whatever `translate` failed with, for the page that failed.
pub fn crossing_bytes<E>(
    addr: u32,
    mut translate: impl FnMut(u32) -> Result<u64, E>,
) -> Result<[u64; 4], E> {
    let first = translate(addr)?;
    let second = translate((addr & !(PAGE_SIZE - 1)).wrapping_add(PAGE_SIZE))?;
    let in_first = (PAGE_SIZE - (addr & (PAGE_SIZE - 1))) as u64;
    Ok(std::array::from_fn(|i| match i as u64 {
        i if i < in_first => first + i,
        i => second + (i - in_first),
    }))
}

/// Access rights requested of or granted by a translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct Access {
    /// Write access.
    pub write: bool,
    /// Instruction fetch.
    pub fetch: bool,
}

impl Access {
    /// A data read.
    pub const READ: Access = Access {
        write: false,
        fetch: false,
    };
    /// A data write.
    pub const WRITE: Access = Access {
        write: true,
        fetch: false,
    };
    /// An instruction fetch.
    pub const FETCH: Access = Access {
        write: false,
        fetch: true,
    };
}

/// Host paging format used for the nested dimension, selecting both the
/// entry layout and the walk depth (which the paper shows dominates the
/// nested-paging overhead).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NestedFormat {
    /// Intel EPT: 4-level, 2 MB large pages.
    Ept4Level,
    /// AMD NPT: 2-level 32-bit format, 4 MB large pages.
    Npt2Level,
}

/// A nested entry as [`NestedFormat::decode`] reads it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NestedEntry {
    /// The entry translates (EPT: readable; NPT: P).
    pub present: bool,
    /// Stores are allowed through it.
    pub write: bool,
    /// PS: above level 0 the entry is a leaf.
    pub large: bool,
    /// The 4 KB-aligned address it holds: the next table, or the frame
    /// (a large leaf's low bits are the walker's to mask by page size).
    pub next: u64,
}

impl NestedFormat {
    /// Decodes one entry. 64-bit EPT entries use the R/W/X layout;
    /// 32-bit NPT entries reuse the classic PTE layout (P/W bits).
    pub fn decode(self, entry: u64) -> NestedEntry {
        match self {
            NestedFormat::Ept4Level => NestedEntry {
                present: entry & npte::R != 0,
                write: entry & npte::W != 0,
                large: entry & npte::PS != 0,
                next: entry & npte::ADDR,
            },
            NestedFormat::Npt2Level => NestedEntry {
                present: entry & pte::P as u64 != 0,
                write: entry & pte::W as u64 != 0,
                large: entry & pte::PS as u64 != 0,
                next: (entry as u32 & pte::ADDR) as u64,
            },
        }
    }

    /// An entry pointing at the table `next` (all permissions; rights
    /// live in leaves).
    pub fn table_entry(self, next: u64) -> u64 {
        match self {
            NestedFormat::Ept4Level => next | npte::RWX,
            NestedFormat::Npt2Level => next | (pte::P | pte::W) as u64,
        }
    }

    /// A leaf mapping the frame at `hpa`, `large` above level 0.
    pub fn leaf_entry(self, hpa: u64, write: bool, large: bool) -> u64 {
        let (present, w, ps) = match self {
            NestedFormat::Ept4Level => (npte::R | npte::X, npte::W, npte::PS),
            NestedFormat::Npt2Level => (pte::P as u64, pte::W as u64, pte::PS as u64),
        };
        hpa | present | if write { w } else { 0 } | if large { ps } else { 0 }
    }

    /// Bytes mapped by a leaf at `level` (level 0 is the 4 KB page).
    pub fn page_size_at(self, level: u32) -> u64 {
        1 << (PAGE_BITS + level * self.index_bits())
    }

    /// Number of page-table levels walked for a small-page translation.
    pub fn levels(self) -> u32 {
        match self {
            NestedFormat::Ept4Level => 4,
            NestedFormat::Npt2Level => 2,
        }
    }

    /// Large-page size in bytes.
    pub fn large_page_size(self) -> u64 {
        self.page_size_at(1)
    }

    /// Index bits consumed per level (9 for 64-bit entries, 10 for
    /// 32-bit entries).
    pub fn index_bits(self) -> u32 {
        match self {
            NestedFormat::Ept4Level => 9,
            NestedFormat::Npt2Level => 10,
        }
    }

    /// Bytes per entry.
    pub fn entry_size(self) -> u32 {
        match self {
            NestedFormat::Ept4Level => 8,
            NestedFormat::Npt2Level => 4,
        }
    }

    /// Index of `addr`'s entry in a table at `level` (0 is the leaf
    /// table).
    pub fn index_of(self, level: u32, addr: u64) -> u64 {
        let shift = PAGE_BITS + level * self.index_bits();
        (addr >> shift) & ((1 << self.index_bits()) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_2level_indices() {
        let (pd, pt, off) = split_2level(0xc030_2123);
        assert_eq!(pd, 0xc030_2123 >> 22);
        assert_eq!(pt, (0xc030_2123 >> 12) & 0x3ff);
        assert_eq!(off, 0x123);
    }

    #[test]
    fn nested_format_geometry() {
        assert_eq!(NestedFormat::Ept4Level.levels(), 4);
        assert_eq!(NestedFormat::Npt2Level.levels(), 2);
        assert_eq!(NestedFormat::Ept4Level.large_page_size(), 2 << 20);
        assert_eq!(NestedFormat::Npt2Level.large_page_size(), 4 << 20);
    }

    #[test]
    fn nested_indices() {
        // EPT: level 3..0 indices of a 36-bit address.
        let a = 0x1_2345_6789u64;
        let f = NestedFormat::Ept4Level;
        assert_eq!(f.index_of(0, a), (a >> 12) & 0x1ff);
        assert_eq!(f.index_of(1, a), (a >> 21) & 0x1ff);
        assert_eq!(f.index_of(2, a), (a >> 30) & 0x1ff);
        assert_eq!(f.index_of(3, a), (a >> 39) & 0x1ff);
        let f = NestedFormat::Npt2Level;
        assert_eq!(f.index_of(0, a), (a >> 12) & 0x3ff);
        assert_eq!(f.index_of(1, a), (a >> 22) & 0x3ff);
    }

    /// A sparse table memory for the walk tests: the listed words, zero
    /// elsewhere, unreadable from 1 MB up.
    fn reader(cells: &[(u64, u32)]) -> impl FnMut(u64) -> Result<u32, u64> + '_ {
        move |at| {
            if at >= 0x10_0000 {
                return Err(at);
            }
            Ok(cells.iter().find(|c| c.0 == at).map_or(0, |c| c.1))
        }
    }

    #[test]
    fn walk_reads_pde_then_pte_and_reports_where() {
        let va = 0x0040_3123u32;
        let cells = [
            (0x1000 + 4, 0x2000 | pte::P | pte::W),
            (0x2000 + 3 * 4, 0x7000 | pte::P),
        ];
        let mut order = Vec::new();
        let mut read = reader(&cells);
        let w = walk_2level(0x1fff, false, va, |at| {
            order.push(at);
            read(at)
        })
        .unwrap()
        .unwrap();
        assert_eq!(order, [0x1004, 0x200c], "PDE first; CR3's low bits ignored");
        assert_eq!((w.addr, w.page_size), (0x7123, PAGE_SIZE));
        assert_eq!((w.pde_at, w.pte), (0x1004, Some((0x7000 | pte::P, 0x200c))));
        // Not present at either level, and a reader failure, are the
        // only stops.
        assert_eq!(
            walk_2level(0x1000, false, 0x0080_0000, reader(&cells)),
            Ok(None)
        );
        assert_eq!(
            walk_2level(0x1000, false, 0x0040_4000, reader(&cells)),
            Ok(None)
        );
        let far = [(0x1000, 0x0080_0000 | pte::P)];
        assert_eq!(
            walk_2level(0x1000, false, 0x1000, reader(&far)),
            Err(0x80_0004)
        );
    }

    #[test]
    fn ps_is_a_large_page_only_under_pse() {
        let cells = [(0x1004, 0x0080_0000 | pte::P | pte::PS | pte::W | pte::US)];
        let w = walk_2level(0x1000, true, 0x0041_2345, reader(&cells))
            .unwrap()
            .unwrap();
        assert_eq!(
            (w.addr, w.page_size, w.pte),
            (0x0081_2345, LARGE_PAGE_SIZE, None)
        );
        assert!(w.write() && w.user());
        // Without PSE the PDE is a table pointer: its PTE is read.
        assert_eq!(
            walk_2level(0x1000, false, 0x0041_2345, reader(&cells)),
            Err(0x80_0048)
        );
    }

    #[test]
    fn permits_intersects_both_levels_and_honours_wp() {
        let walk = |pde: u32, pte_v: u32| Walk {
            addr: 0,
            page_size: PAGE_SIZE,
            pde: pde | pte::P,
            pde_at: 0,
            pte: Some((pte_v | pte::P, 0)),
        };
        for (pde, pte_v) in [(0, pte::W), (pte::W, 0), (0, 0)] {
            let w = walk(pde | pte::US, pte_v | pte::US);
            assert!(w.permits(false, false, true) && w.permits(false, true, true));
            assert!(!w.permits(true, false, true), "W needs both levels");
            assert!(!w.permits(true, true, false), "WP is a supervisor matter");
            assert!(w.permits(true, false, false), "supervisor store, WP clear");
        }
        assert!(walk(pte::W | pte::US, pte::W | pte::US).permits(true, true, true));
        for (pde, pte_v) in [(0, pte::US), (pte::US, 0)] {
            let w = walk(pde | pte::W, pte_v | pte::W);
            assert!(!w.permits(false, true, true), "US needs both levels");
            assert!(w.permits(true, false, true));
        }
    }

    #[test]
    fn crossing_bytes_translates_both_pages_first_page_first() {
        assert!(!crosses_page(0x1ffc, 4) && crosses_page(0x1ffd, 4));
        assert!(!crosses_page(0x1fff, 1));
        let mut asked = Vec::new();
        let at = crossing_bytes(0x1ffe, |a| {
            asked.push(a);
            Ok::<_, ()>(if a < 0x2000 {
                0x5_0000 + (a & 0xfff) as u64
            } else {
                0x9_0000
            })
        })
        .unwrap();
        assert_eq!(asked, [0x1ffe, 0x2000]);
        assert_eq!(at, [0x5_0ffe, 0x5_0fff, 0x9_0000, 0x9_0001]);
        // The second page's failure names that page's first byte; the
        // top page wraps to 0.
        assert_eq!(
            crossing_bytes(0xffff_ffff, |a| if a == 0 { Err(a) } else { Ok(0) }),
            Err(0)
        );
    }

    #[test]
    fn nested_codec_round_trips() {
        for f in [NestedFormat::Ept4Level, NestedFormat::Npt2Level] {
            let t = f.decode(f.table_entry(0x5000));
            assert_eq!(
                (t.present, t.write, t.large, t.next),
                (true, true, false, 0x5000)
            );
            for (write, large) in [(false, false), (true, false), (false, true), (true, true)] {
                let hpa = if large {
                    f.large_page_size() * 3
                } else {
                    0x9000
                };
                let e = f.decode(f.leaf_entry(hpa, write, large));
                assert_eq!(
                    (e.present, e.write, e.large, e.next),
                    (true, write, large, hpa)
                );
            }
            assert!(!f.decode(0).present);
            assert_eq!(f.page_size_at(0), PAGE_SIZE as u64);
            assert_eq!(f.page_size_at(1), f.large_page_size());
        }
    }

    #[test]
    fn pte_masks_disjoint() {
        assert_eq!(pte::ADDR & 0xfff, 0);
        assert_eq!(pte::ADDR_LARGE & (LARGE_PAGE_SIZE - 1), 0);
        assert_eq!(npte::ADDR & 0xfff, 0);
    }
}
