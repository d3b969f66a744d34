//! Memory-management unit: page-table walks.
//!
//! Three walk flavours exist, matching Section 5.3 of the paper:
//!
//! - **Native**: two-level 32-bit walk of the running system's own page
//!   table (`CR3`), used when no hypervisor is interposed and for the
//!   paper's "Native" baselines.
//! - **Nested**: two-dimensional GVA→GPA→HPA translation. The guest's
//!   two-level table is walked, and *every* guest-table access itself
//!   requires a nested EPT/NPT walk, which is exactly why nested TLB
//!   fills are more expensive than native fills (the "Direct" bar of
//!   Figure 5 is 0.6% below native for this reason). Large host pages
//!   shorten the nested dimension; the AMD 2-level NPT format shortens
//!   it further, reproducing the Intel/AMD gap in Figure 5.
//! - **Shadow**: in vTLB mode the hardware walks only the shadow page
//!   table maintained by the microhypervisor. Any miss or permission
//!   violation is reported to the hypervisor (as a #PF VM exit), never
//!   directly to the guest.
//!
//! The entry layouts and the order a walk reads them in live in
//! `nova_x86::paging`; the walkers here supply the memory reads and
//! charge for them.
//!
//! Accessed/dirty-bit maintenance is omitted *here*: these walkers
//! model the hardware's lookup path only. For shadow paging, the
//! architectural A/D (and user/supervisor) semantics of the *guest*
//! table are maintained in software by the vTLB walker in
//! `nova-core::vtlb`, which sets A on every successful walk, D on
//! writes, and fills writable-but-clean pages read-only so the first
//! guest write faults and dirties the guest entry.

use std::convert::Infallible;

use nova_x86::paging::{self, Access, NestedFormat, Walk};
use nova_x86::reg::{cr0, cr4, Regs};

use crate::cost::CostModel;
use crate::mem::PhysMem;
use crate::{Cycles, PAddr};

/// The subset of the register file the MMU consults. The CPU's
/// execution environment carries a copy, updated on CR writes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MmuRegs {
    /// CR0 (PG bit).
    pub cr0: u32,
    /// CR3 (table root).
    pub cr3: u32,
    /// CR4 (PSE bit).
    pub cr4: u32,
}

impl MmuRegs {
    /// Extracts the MMU-relevant registers.
    pub fn from_regs(r: &Regs) -> MmuRegs {
        MmuRegs {
            cr0: r.cr0,
            cr3: r.cr3,
            cr4: r.cr4,
        }
    }

    /// `true` if paging is enabled.
    pub fn paging(&self) -> bool {
        self.cr0 & cr0::PG != 0
    }

    /// `true` if 4 MB pages are enabled.
    pub fn pse(&self) -> bool {
        self.cr4 & cr4::PSE != 0
    }
}

/// A successful translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Leaf {
    /// Host-physical address of the byte.
    pub hpa: PAddr,
    /// Size of the mapping the translation came from.
    pub page_size: u64,
    /// Whether writes are permitted by every level.
    pub write: bool,
}

/// Page-fault details (delivered to whoever owns the walked table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PfInfo {
    /// Faulting linear address.
    pub addr: u32,
    /// The access was a write.
    pub write: bool,
    /// The access was an instruction fetch.
    pub fetch: bool,
    /// A translation existed but denied the access.
    pub present: bool,
}

/// A nested-walk failure: the guest-physical address missed the host
/// page table. Reported to the hypervisor as an EPT violation VM exit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NestedViolation {
    /// The guest-physical address that failed to translate.
    pub gpa: u64,
    /// The offending access.
    pub access: Access,
}

/// Failure of a guest-mode translation under nested paging.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GuestXlate {
    /// The guest's own page table denied the access: deliver #PF *into*
    /// the guest without any VM exit (the nested-paging win).
    GuestFault(PfInfo),
    /// The host dimension is missing a translation: VM exit.
    Nested(NestedViolation),
}

/// A hardware walk's verdict on `walk` (no accessed/dirty bits are
/// written; DESIGN §6g records how the vTLB's software walk differs).
fn leaf_or_fault(walk: Option<Walk>, addr: u32, access: Access) -> Result<Walk, PfInfo> {
    paging::hardware_access(walk, access.write).map_err(|present| PfInfo {
        addr,
        write: access.write,
        fetch: access.fetch,
        present,
    })
}

/// Walks a two-level 32-bit page table rooted at `root` for `addr`.
///
/// `pse` enables 4 MB pages via PDE.PS. `cost` accumulates
/// `walk_level` cycles per level referenced.
///
/// # Errors
///
/// [`PfInfo`] describing the architectural page fault.
pub fn walk_2level(
    mem: &PhysMem,
    root: u32,
    addr: u32,
    access: Access,
    pse: bool,
    cost: &CostModel,
    cycles: &mut Cycles,
) -> Result<Leaf, PfInfo> {
    let Ok(walk) = paging::walk_2level(root, pse, addr, |at| {
        *cycles += cost.walk_level;
        Ok::<_, Infallible>(mem.read_u32(at))
    });
    let w = leaf_or_fault(walk, addr, access)?;
    Ok(Leaf {
        hpa: w.addr,
        page_size: w.page_size as u64,
        write: w.write(),
    })
}

/// Reads entry `idx` of the nested table at `table`.
pub fn nested_entry(mem: &PhysMem, fmt: NestedFormat, table: PAddr, idx: u64) -> u64 {
    match fmt.entry_size() {
        8 => mem.read_u64(table + idx * 8),
        _ => mem.read_u32(table + idx * 4) as u64,
    }
}

/// Walks the nested (host) dimension: GPA→HPA through an EPT or NPT
/// table rooted at `root`.
///
/// # Errors
///
/// [`NestedViolation`] when a level is non-present or denies the access.
pub fn walk_nested(
    mem: &PhysMem,
    root: PAddr,
    fmt: NestedFormat,
    gpa: u64,
    access: Access,
    cost: &CostModel,
    cycles: &mut Cycles,
) -> Result<Leaf, NestedViolation> {
    let viol = NestedViolation { gpa, access };
    let mut table = root;
    let mut level = fmt.levels() - 1;

    loop {
        *cycles += cost.walk_level;
        let e = fmt.decode(nested_entry(mem, fmt, table, fmt.index_of(level, gpa)));
        if !e.present {
            return Err(viol);
        }
        // PS in a level-0 entry is not a size bit.
        if level == 0 || e.large {
            if access.write && !e.write {
                return Err(viol);
            }
            let page_size = fmt.page_size_at(level);
            return Ok(Leaf {
                hpa: (e.next & !(page_size - 1)) + (gpa & (page_size - 1)),
                page_size,
                write: e.write,
            });
        }
        table = e.next;
        level -= 1;
    }
}

/// Full guest-mode translation under nested paging: the two-dimensional
/// GVA→GPA→HPA walk. Every guest-table entry read performs its own
/// nested walk (functionally and in cycle cost).
///
/// # Errors
///
/// [`GuestXlate::GuestFault`] for faults the guest kernel must handle;
/// [`GuestXlate::Nested`] for EPT violations the hypervisor must handle.
#[allow(clippy::too_many_arguments)]
pub fn translate_nested_guest(
    mem: &PhysMem,
    regs: &MmuRegs,
    nested_root: PAddr,
    fmt: NestedFormat,
    addr: u32,
    access: Access,
    cost: &CostModel,
    cycles: &mut Cycles,
) -> Result<Leaf, GuestXlate> {
    if !regs.paging() {
        // Guest runs unpaged: GVA == GPA.
        return walk_nested(mem, nested_root, fmt, addr as u64, access, cost, cycles)
            .map_err(GuestXlate::Nested);
    }

    // Each guest entry lives at a guest-physical address: reading it is
    // a nested walk and then the load.
    let walk = paging::walk_2level(regs.cr3, regs.pse(), addr, |gpa| {
        let at = walk_nested(mem, nested_root, fmt, gpa, Access::READ, cost, cycles)?;
        *cycles += cost.mem_access;
        Ok(mem.read_u32(at.hpa))
    })
    .map_err(GuestXlate::Nested)?;
    let w = leaf_or_fault(walk, addr, access).map_err(GuestXlate::GuestFault)?;

    // Final data translation through the nested dimension.
    let leaf = walk_nested(mem, nested_root, fmt, w.addr, access, cost, cycles)
        .map_err(GuestXlate::Nested)?;

    // The effective entry covers the smaller of the two dimensions.
    Ok(Leaf {
        hpa: leaf.hpa,
        page_size: (w.page_size as u64).min(leaf.page_size),
        write: w.write() && leaf.write,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost;
    use nova_x86::paging::{npte, pte};

    const C: CostModel = cost::BLM;

    fn mem() -> PhysMem {
        PhysMem::new(16 << 20)
    }

    /// Builds a one-page mapping va -> pa in a fresh 2-level table at
    /// `root`, with a page table at `root + 0x1000`.
    fn map_2level(m: &mut PhysMem, root: u32, va: u32, pa: u32, flags: u32) {
        let (di, ti, _) = nova_x86::paging::split_2level(va);
        let pt = root + 0x1000 + di * 0x1000;
        m.write_u32(root as u64 + di as u64 * 4, pt | pte::P | pte::W);
        m.write_u32(pt as u64 + ti as u64 * 4, (pa & pte::ADDR) | flags);
    }

    #[test]
    fn native_walk_hits() {
        let mut m = mem();
        let root = 0x10_0000;
        map_2level(&mut m, root, 0x40_0000, 0x20_0000, pte::P | pte::W);
        let mut cyc = 0;
        let leaf = walk_2level(&m, root, 0x40_0123, Access::READ, false, &C, &mut cyc).unwrap();
        assert_eq!(leaf.hpa, 0x20_0123);
        assert_eq!(leaf.page_size, 4096);
        assert!(leaf.write);
        assert_eq!(cyc, 2 * C.walk_level, "two levels referenced");
    }

    #[test]
    fn native_walk_not_present() {
        let m = mem();
        let mut cyc = 0;
        let err =
            walk_2level(&m, 0x10_0000, 0x1234, Access::READ, false, &C, &mut cyc).unwrap_err();
        assert!(!err.present);
        assert_eq!(err.addr, 0x1234);
    }

    #[test]
    fn native_walk_write_protect() {
        let mut m = mem();
        let root = 0x10_0000;
        map_2level(&mut m, root, 0x40_0000, 0x20_0000, pte::P); // read-only
        let mut cyc = 0;
        let err = walk_2level(&m, root, 0x40_0000, Access::WRITE, false, &C, &mut cyc).unwrap_err();
        assert!(err.present, "protection fault, not missing");
        assert!(err.write);
        // Reads still fine.
        assert!(walk_2level(&m, root, 0x40_0000, Access::READ, false, &C, &mut cyc).is_ok());
    }

    #[test]
    fn native_large_page() {
        let mut m = mem();
        let root = 0x10_0000;
        // PDE with PS mapping 4 MB at 0x0080_0000.
        let di = 0x40_0000 >> 22;
        m.write_u32(
            root as u64 + di as u64 * 4,
            0x0080_0000 | pte::P | pte::W | pte::PS,
        );
        let mut cyc = 0;
        let leaf = walk_2level(&m, root, 0x40_1234, Access::WRITE, true, &C, &mut cyc).unwrap();
        assert_eq!(leaf.hpa, 0x0080_1234);
        assert_eq!(leaf.page_size, 4 << 20);
        assert_eq!(cyc, C.walk_level, "one level for a large page");
        // Without PSE the PS bit is ignored and the walk descends.
        let mut cyc2 = 0;
        assert!(
            walk_2level(&m, root, 0x40_1234, Access::READ, false, &C, &mut cyc2).is_err(),
            "PS entry treated as table pointer without PSE"
        );
    }

    /// Builds an identity EPT mapping for the first `pages` small pages.
    fn ept_identity(m: &mut PhysMem, root: u64, pages: u64) {
        // 4 levels: L3 at root, then chained tables.
        let l2 = root + 0x1000;
        let l1 = root + 0x2000;
        let l0 = root + 0x3000;
        m.write_u64(root, l2 | npte::RWX);
        m.write_u64(l2, l1 | npte::RWX);
        m.write_u64(l1, l0 | npte::RWX);
        for p in 0..pages {
            m.write_u64(l0 + p * 8, (p << 12) | npte::RWX);
        }
    }

    #[test]
    fn ept_walk_4level() {
        let mut m = mem();
        let root = 0x40_0000;
        ept_identity(&mut m, root, 16);
        let mut cyc = 0;
        let leaf = walk_nested(
            &m,
            root,
            NestedFormat::Ept4Level,
            0x3abc,
            Access::READ,
            &C,
            &mut cyc,
        )
        .unwrap();
        assert_eq!(leaf.hpa, 0x3abc);
        assert_eq!(cyc, 4 * C.walk_level);
        let err = walk_nested(
            &m,
            root,
            NestedFormat::Ept4Level,
            16 << 12,
            Access::READ,
            &C,
            &mut cyc,
        )
        .unwrap_err();
        assert_eq!(err.gpa, 16 << 12);
    }

    #[test]
    fn ept_large_page_short_walk() {
        let mut m = mem();
        let root = 0x40_0000;
        let l2 = root + 0x1000;
        let l1 = root + 0x2000;
        m.write_u64(root, l2 | npte::RWX);
        m.write_u64(l2, l1 | npte::RWX);
        // 2 MB page at L1 level.
        m.write_u64(l1, 0x0060_0000 | npte::RWX | npte::PS);
        let mut cyc = 0;
        let leaf = walk_nested(
            &m,
            root,
            NestedFormat::Ept4Level,
            0x12_3456,
            Access::WRITE,
            &C,
            &mut cyc,
        )
        .unwrap();
        assert_eq!(leaf.page_size, 2 << 20);
        assert_eq!(leaf.hpa, 0x0060_0000 + 0x12_3456);
        assert_eq!(cyc, 3 * C.walk_level, "large page saves one level");
    }

    #[test]
    fn npt_2level_walk() {
        let mut m = mem();
        let root = 0x40_0000u64;
        // 4 MB host page, single level.
        m.write_u32(root, 0x0080_0000 | pte::P | pte::W | pte::PS);
        let mut cyc = 0;
        let leaf = walk_nested(
            &m,
            root,
            NestedFormat::Npt2Level,
            0x12_3456,
            Access::WRITE,
            &C,
            &mut cyc,
        )
        .unwrap();
        assert_eq!(leaf.hpa, 0x0080_0000 + 0x12_3456);
        assert_eq!(leaf.page_size, 4 << 20);
        assert_eq!(cyc, C.walk_level, "single-level AMD host walk");
    }

    #[test]
    fn two_dimensional_walk_costs_more_than_native() {
        let mut m = mem();
        // Guest table at GPA 0x10_0000 mapping GVA 0x40_0000 -> GPA 0x5000.
        let groot = 0x10_0000u32;
        map_2level(&mut m, groot, 0x40_0000, 0x5000, pte::P | pte::W);
        // EPT identity for the first 4 MB.
        let eroot = 0x60_0000u64;
        ept_identity(&mut m, eroot, 1024);

        let regs = MmuRegs {
            cr3: groot,
            cr0: nova_x86::reg::cr0::PG | nova_x86::reg::cr0::PE,
            cr4: 0,
        };

        let mut cyc = 0;
        let leaf = translate_nested_guest(
            &m,
            &regs,
            eroot,
            NestedFormat::Ept4Level,
            0x40_0123,
            Access::READ,
            &C,
            &mut cyc,
        )
        .unwrap();
        assert_eq!(leaf.hpa, 0x5123);

        let mut native_cyc = 0;
        walk_2level(
            &m,
            groot,
            0x40_0123,
            Access::READ,
            false,
            &C,
            &mut native_cyc,
        )
        .unwrap();
        assert!(
            cyc > 2 * native_cyc,
            "2-D walk ({cyc}) must dwarf native ({native_cyc})"
        );
    }

    #[test]
    fn guest_fault_vs_ept_violation() {
        let mut m = mem();
        let groot = 0x10_0000u32;
        map_2level(&mut m, groot, 0x40_0000, 0x5000, pte::P | pte::W);
        let eroot = 0x60_0000u64;
        ept_identity(&mut m, eroot, 1024);

        let regs = MmuRegs {
            cr3: groot,
            cr0: nova_x86::reg::cr0::PG | nova_x86::reg::cr0::PE,
            cr4: 0,
        };

        let mut cyc = 0;
        // Unmapped GVA -> guest's own #PF, no exit.
        match translate_nested_guest(
            &m,
            &regs,
            eroot,
            NestedFormat::Ept4Level,
            0x80_0000,
            Access::READ,
            &C,
            &mut cyc,
        ) {
            Err(GuestXlate::GuestFault(pf)) => assert_eq!(pf.addr, 0x80_0000),
            other => panic!("expected guest fault, got {other:?}"),
        }

        // Guest maps GVA to a GPA beyond the EPT -> violation.
        map_2level(&mut m, groot, 0x44_0000, 0x4000_0000, pte::P | pte::W);
        match translate_nested_guest(
            &m,
            &regs,
            eroot,
            NestedFormat::Ept4Level,
            0x44_0000,
            Access::READ,
            &C,
            &mut cyc,
        ) {
            Err(GuestXlate::Nested(v)) => assert_eq!(v.gpa, 0x4000_0000),
            other => panic!("expected EPT violation, got {other:?}"),
        }
    }

    #[test]
    fn unpaged_guest_gva_equals_gpa() {
        let mut m = mem();
        let eroot = 0x60_0000u64;
        ept_identity(&mut m, eroot, 16);
        let regs = MmuRegs::default(); // paging off
        let mut cyc = 0;
        let leaf = translate_nested_guest(
            &m,
            &regs,
            eroot,
            NestedFormat::Ept4Level,
            0x2345,
            Access::READ,
            &C,
            &mut cyc,
        )
        .unwrap();
        assert_eq!(leaf.hpa, 0x2345);
    }
}
