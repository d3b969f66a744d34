//! The five kernel object types of Section 5: protection domains,
//! execution contexts, scheduling contexts, portals and semaphores,
//! plus the typed object tables holding them.

use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};

use nova_hw::vmx::Vmcs;
use nova_hw::{Cycles, PAddr};

use crate::cap::CapSpace;
use crate::kernel::CompId;
use crate::utcb::Utcb;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident($repr:ty)) => {
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        pub struct $name(pub $repr);
    };
}

// A `CompCtx` — domain, EC, component — is 8 bytes, so it travels in
// one register through every component callback and hypercall rather
// than as a stack copy: a domain id is 32 bits wide, an EC id (and so
// a component id, one per EC at most) 16 bits.
id_type!(
    /// Protection-domain id.
    PdId(u32)
);
id_type!(
    /// Execution-context id: at most [`MAX_ECS`] exist.
    EcId(u16)
);

/// The most ECs the kernel holds: their ids are 16 bits wide. Creating
/// one more fails as a full quota does.
pub const MAX_ECS: usize = 1 << 16;
id_type!(
    /// Scheduling-context id.
    ScId(usize)
);
id_type!(
    /// Portal id.
    PtId(usize)
);
id_type!(
    /// Semaphore id.
    SmId(usize)
);

/// A reference to any kernel object (what a capability designates).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ObjRef {
    /// Protection domain.
    Pd(PdId),
    /// Execution context.
    Ec(EcId),
    /// Scheduling context.
    Sc(ScId),
    /// Portal.
    Pt(PtId),
    /// Semaphore.
    Sm(SmId),
}

/// Rights attached to a delegated memory page.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemRights {
    /// Write permission.
    pub write: bool,
    /// The page may be mapped for device DMA (enters the IOMMU domain
    /// of devices assigned to the PD).
    pub dma: bool,
}

impl MemRights {
    /// Read/write, DMA-able.
    pub const RW_DMA: MemRights = MemRights {
        write: true,
        dma: true,
    };
    /// Read/write, no DMA.
    pub const RW: MemRights = MemRights {
        write: true,
        dma: false,
    };
    /// Read-only.
    pub const RO: MemRights = MemRights {
        write: false,
        dma: false,
    };

    /// Intersection of rights (delegation can only reduce).
    pub fn mask(self, other: MemRights) -> MemRights {
        MemRights {
            write: self.write && other.write,
            dma: self.dma && other.dma,
        }
    }
}

/// One mapped page in a protection domain's memory space.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemMapping {
    /// Host-physical frame backing the page.
    pub hpa: PAddr,
    /// Access rights.
    pub rights: MemRights,
}

/// Pages per radix leaf (one directory slot spans `2^LEAF_BITS` pages).
const LEAF_BITS: usize = 9;
/// Entries in one radix leaf: the longest slice
/// [`MemSpace::slices`] yields.
pub(crate) const LEAF_ENTRIES: usize = 1 << LEAF_BITS;
/// What [`MemSpace::slices`] yields for a leaf that was never
/// allocated or has been given back.
static HOLES: [Option<MemMapping>; LEAF_ENTRIES] = [None; LEAF_ENTRIES];
/// Directory slots the radix table will grow to at most. Pages whose
/// leaf index is at or above this cap (page numbers ≥ 2^24, i.e. 64 GiB
/// of address space) fall back to a sorted overflow map so a hostile
/// delegation of a huge page number cannot balloon the directory.
const DIR_MAX_LEAVES: usize = 1 << 15;
/// Slots in the per-space direct-mapped translation cache.
const TC_SLOTS: usize = 64;

/// One 512-entry radix leaf plus its population count.
struct Leaf {
    slots: [Option<MemMapping>; LEAF_ENTRIES],
    used: u16,
}

impl Leaf {
    fn new() -> Box<Leaf> {
        Box::new(Leaf {
            slots: [None; LEAF_ENTRIES],
            used: 0,
        })
    }
}

/// A validated translation-cache entry: `page → m`, valid while the
/// space's generation counter still equals `gen`.
#[derive(Clone, Copy)]
struct TcEntry {
    page: u64,
    m: MemMapping,
    gen: u64,
}

/// The memory space of a protection domain: its "host page table",
/// mapping domain-virtual (or guest-physical, for VMs) page numbers to
/// host-physical frames. For VM domains the kernel mirrors this table
/// into real EPT/NPT/shadow structures in hypervisor memory.
///
/// The backing store is a two-level radix table: a flat directory of
/// 512-entry leaves (O(1) lookup), with a sorted overflow map for page
/// numbers beyond the directory span. Lookups go through a small
/// direct-mapped software translation cache invalidated wholesale by a
/// generation counter that every mutation bumps.
///
/// Whole ranges are mapped, unmapped and read a leaf at a time
/// ([`MemSpace::map_run`], [`MemSpace::unmap_run`],
/// [`MemSpace::slices`]); `map` and `unmap` are their one-page case.
pub struct MemSpace {
    dir: Vec<Option<Box<Leaf>>>,
    /// Pages at or above `DIR_MAX_LEAVES << LEAF_BITS`, each value
    /// `Some` (a one-page slice of it is what `slices` hands out).
    /// `iter()` stays page-ordered because every overflow page number
    /// sorts after every directory page.
    overflow: BTreeMap<u64, Option<MemMapping>>,
    /// Number of mapped pages, directory and overflow together.
    count: usize,
    /// Generation stamp: bumped once by every `map_run`/`unmap_run`
    /// (which covers `delegate_mem`, revocation and PD teardown — they
    /// all mutate through those two entry points) and on explicit
    /// invalidation: what was read from the space while it held is
    /// still true of it.
    pub(crate) gen: u64,
    /// Direct-mapped translation cache, filled from `&self` lookups.
    tc: [Cell<Option<TcEntry>>; TC_SLOTS],
}

impl Default for MemSpace {
    fn default() -> Self {
        MemSpace {
            dir: Vec::new(),
            overflow: BTreeMap::new(),
            count: 0,
            gen: 0,
            tc: std::array::from_fn(|_| Cell::new(None)),
        }
    }
}

impl MemSpace {
    /// Looks up the mapping covering page number `page`.
    pub fn lookup(&self, page: u64) -> Option<MemMapping> {
        let slot = &self.tc[(page as usize) & (TC_SLOTS - 1)];
        if let Some(e) = slot.get() {
            if e.page == page && e.gen == self.gen {
                return Some(e.m);
            }
        }
        let found = self.slices(page, 1).next()?[0];
        if let Some(m) = found {
            slot.set(Some(TcEntry {
                page,
                m,
                gen: self.gen,
            }));
        }
        found
    }

    /// Translates a byte address through the space.
    pub fn translate(&self, addr: u64) -> Option<PAddr> {
        self.lookup(addr >> 12).map(|m| m.hpa + (addr & 0xfff))
    }

    /// The mappings of the `count` consecutive pages from `page` (up to
    /// the last page number), in order and `None` for a hole, as
    /// slices of the radix leaves: one slice per leaf the run touches,
    /// a one-page slice per page above 2^24. A sweep longer than the
    /// translation cache neither consults nor evicts it.
    pub fn slices(&self, page: u64, count: u64) -> impl Iterator<Item = &[Option<MemMapping>]> {
        let mut left = count.min((u64::MAX - page).saturating_add(1));
        let mut at = page;
        std::iter::from_fn(move || {
            if left == 0 {
                return None;
            }
            let li = (at >> LEAF_BITS) as usize;
            let run: &[Option<MemMapping>] = if li < DIR_MAX_LEAVES {
                let off = at as usize & (LEAF_ENTRIES - 1);
                let n = (LEAF_ENTRIES - off).min(left as usize);
                match self.dir.get(li).and_then(|l| l.as_deref()) {
                    Some(l) => &l.slots[off..off + n],
                    None => &HOLES[..n],
                }
            } else {
                self.overflow
                    .get(&at)
                    .map_or(&HOLES[..1], std::slice::from_ref)
            };
            left -= run.len() as u64;
            at = at.wrapping_add(run.len() as u64);
            Some(run)
        })
    }

    /// Installs `f(i)` at page `page + i` for each `i < count`, a leaf
    /// at a time, with one generation bump for the whole run. The run
    /// must not pass the last page number.
    pub fn map_run(&mut self, page: u64, count: u64, mut f: impl FnMut(u64) -> MemMapping) {
        self.each_slot(page, count, true, |p, slot| *slot = Some(f(p - page)));
    }

    /// Removes the mappings of the `count` pages from `page`, a leaf at
    /// a time, with one generation bump for the whole run, and hands
    /// each one removed to `f` in ascending page order. The run must
    /// not pass the last page number.
    pub fn unmap_run(&mut self, page: u64, count: u64, mut f: impl FnMut(u64, MemMapping)) {
        self.each_slot(page, count, false, |p, slot| {
            if let Some(m) = slot.take() {
                f(p, m);
            }
        });
    }

    /// Hands `f` the slot of each of the `count` pages from `page`, in
    /// order — a leaf at a time, a page at a time above 2^24 — after one
    /// generation bump, and keeps the counts to what `f` leaves there:
    /// a leaf `f` empties gives its memory back, and a missing leaf is
    /// made for `f` only with `grow` (without, its pages are skipped).
    fn each_slot(
        &mut self,
        page: u64,
        count: u64,
        grow: bool,
        mut f: impl FnMut(u64, &mut Option<MemMapping>),
    ) {
        self.gen = self.gen.wrapping_add(1);
        let mut i = 0;
        while i < count {
            let p = page + i;
            let li = (p >> LEAF_BITS) as usize;
            if li >= DIR_MAX_LEAVES {
                let mut slot = self.overflow.remove(&p).flatten();
                self.count -= slot.is_some() as usize;
                f(p, &mut slot);
                if slot.is_some() {
                    self.overflow.insert(p, slot);
                    self.count += 1;
                }
                i += 1;
                continue;
            }
            if grow && self.dir.len() <= li {
                self.dir.resize_with(li + 1, || None);
            }
            let off = p as usize & (LEAF_ENTRIES - 1);
            let n = (LEAF_ENTRIES - off).min((count - i) as usize);
            let leaf = self.dir.get_mut(li).and_then(|l| match grow {
                true => Some(l.get_or_insert_with(Leaf::new)),
                false => l.as_mut(),
            });
            if let Some(l) = leaf {
                let before = l.used as usize;
                for (q, slot) in (p..).zip(&mut l.slots[off..off + n]) {
                    let had = slot.is_some() as u16;
                    f(q, slot);
                    l.used = l.used + slot.is_some() as u16 - had;
                }
                self.count = self.count + l.used as usize - before;
                if l.used == 0 {
                    self.dir[li] = None; // return the leaf's memory
                }
            }
            i += n as u64;
        }
    }

    /// Installs a mapping: the one-page [`MemSpace::map_run`].
    pub fn map(&mut self, page: u64, m: MemMapping) {
        self.map_run(page, 1, |_| m);
    }

    /// Removes a mapping: the one-page [`MemSpace::unmap_run`].
    pub fn unmap(&mut self, page: u64) -> Option<MemMapping> {
        let mut old = None;
        self.unmap_run(page, 1, |_, m| old = Some(m));
        old
    }

    /// Drops every translation-cache entry without touching the
    /// mappings. `map`/`unmap` invalidate implicitly; this is for
    /// paths that want the cache cold by contract (PD teardown).
    pub fn invalidate_cache(&mut self) {
        self.gen = self.gen.wrapping_add(1);
    }

    /// Number of mapped pages.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Iterates over `(page, mapping)` in page order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, MemMapping)> + '_ {
        self.dir
            .iter()
            .enumerate()
            .filter_map(|(li, l)| l.as_deref().map(|l| (li, l)))
            .flat_map(|(li, l)| {
                l.slots
                    .iter()
                    .enumerate()
                    .filter_map(move |(si, s)| s.map(|m| ((((li << LEAF_BITS) | si) as u64), m)))
            })
            .chain(self.overflow.iter().filter_map(|(p, m)| m.map(|m| (*p, m))))
    }
}

/// The I/O port space: a permission bitmap over the 16-bit port range.
pub struct IoSpace {
    bitmap: Vec<u64>,
}

impl Default for IoSpace {
    fn default() -> Self {
        IoSpace {
            bitmap: vec![0; 1024],
        }
    }
}

impl IoSpace {
    /// An empty space (no ports).
    pub fn new() -> IoSpace {
        IoSpace::default()
    }

    /// `true` if the domain may access `port`.
    pub fn allowed(&self, port: u16) -> bool {
        self.bitmap[port as usize / 64] & (1 << (port % 64)) != 0
    }

    /// Grants a port.
    pub fn grant(&mut self, port: u16) {
        self.bitmap[port as usize / 64] |= 1 << (port % 64);
    }

    /// Grants the `count` ports from `base` (clipped to the port
    /// space), a bitmap word at a time.
    pub fn grant_range(&mut self, base: u16, count: usize) {
        let end = (base as usize + count).min(1 << 16);
        let mut at = base as usize;
        while at < end {
            let upto = end.min((at / 64 + 1) * 64);
            let run = u64::MAX >> (64 - (upto - at));
            self.bitmap[at / 64] |= run << (at % 64);
            at = upto;
        }
    }

    /// Revokes a port.
    pub fn revoke(&mut self, port: u16) {
        self.bitmap[port as usize / 64] &= !(1 << (port % 64));
    }

    /// The granted ports in ascending order, at the cost of the ports
    /// granted (plus one test per bitmap word), not of the port space.
    pub fn iter(&self) -> impl Iterator<Item = u16> + '_ {
        self.bitmap.iter().enumerate().flat_map(|(word, &bits)| {
            let mut left = bits;
            std::iter::from_fn(move || {
                (left != 0).then(|| {
                    let bit = left.trailing_zeros();
                    left &= left - 1;
                    (word * 64) as u16 + bit as u16
                })
            })
        })
    }

    /// Number of granted ports.
    pub fn count(&self) -> usize {
        self.bitmap.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Paging configuration of a VM protection domain's hardware tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VmPaging {
    /// Hardware nested paging in the given format.
    Nested(nova_x86::paging::NestedFormat),
    /// Software shadow paging (vTLB).
    Shadow,
}

/// A protection domain (Section 5): resource container with memory,
/// I/O and capability spaces. Abstracts over user applications and
/// virtual machines.
pub struct Pd {
    /// Diagnostic name.
    pub name: String,
    /// Capability space.
    pub caps: CapSpace,
    /// Memory space.
    pub mem: MemSpace,
    /// I/O port space.
    pub io: IoSpace,
    /// VM paging configuration; `None` for ordinary (host) domains.
    pub vm_paging: Option<VmPaging>,
    /// Hardware nested-table root (VM domains with nested paging).
    pub nested_root: Option<PAddr>,
    /// Host large pages allowed when mirroring mappings into the
    /// nested table (the Figure 5 "small pages" ablation clears this).
    pub large_pages: bool,
    /// Bus ids of devices directly assigned to this domain (their DMA
    /// is remapped through the domain's memory space).
    pub devices: Vec<usize>,
    /// Virtual-CPU execution contexts of this domain (for TLB
    /// shootdowns and recalls).
    pub vcpus: Vec<EcId>,
    /// Whether the domain is being destroyed.
    pub dying: bool,
    /// Kernel objects this domain has created (PDs, ECs, SCs,
    /// portals, semaphores) — charged against
    /// [`KernelConfig::obj_quota`](crate::KernelConfig) so no single
    /// domain can exhaust kernel object memory.
    pub kobjs: usize,
}

impl Pd {
    /// Creates an empty host protection domain.
    pub fn new(name: impl Into<String>) -> Pd {
        Pd {
            name: name.into(),
            caps: CapSpace::new(),
            mem: MemSpace::default(),
            io: IoSpace::new(),
            vm_paging: None,
            nested_root: None,
            large_pages: true,
            devices: Vec::new(),
            vcpus: Vec::new(),
            dying: false,
            kobjs: 0,
        }
    }

    /// `true` for VM domains.
    pub fn is_vm(&self) -> bool {
        self.vm_paging.is_some()
    }
}

/// What an execution context is (Section 5): a thread bound to a
/// user component, or a virtual CPU with its VMCS.
pub enum EcKind {
    /// Host thread: activations dispatch into the component registered
    /// for it.
    Thread,
    /// Virtual CPU.
    Vcpu {
        /// The hardware virtualization state.
        vmcs: Box<Vmcs>,
    },
}

/// An execution context.
pub struct Ec {
    /// Owning protection domain.
    pub pd: PdId,
    /// Thread or virtual CPU.
    pub kind: EcKind,
    /// Physical CPU this EC is bound to.
    pub cpu: usize,
    /// User thread control block (message area).
    pub utcb: Utcb,
    /// Attached scheduling context, if any.
    pub sc: Option<ScId>,
    /// Blocked (vCPU halted waiting for an event, or thread waiting).
    pub blocked: bool,
    /// Currently servicing a call (prevents re-entrant portal calls).
    pub busy: bool,
    /// The component a thread EC's portal calls and activations
    /// dispatch into; `None` for a virtual CPU and for every EC of a
    /// destroyed domain.
    pub comp: Option<CompId>,
    /// Position of a virtual CPU among its domain's vCPUs, fixed at
    /// `CreateEc`: selects its stride of the VM-exit portal table.
    pub vcpu_index: Option<usize>,
    /// Signals delivered to this thread EC and not yet dispatched.
    pub(crate) activations: VecDeque<Activation>,
}

/// A pending callback into a thread EC's component.
pub(crate) enum Activation {
    /// A semaphore bound to the EC was upped.
    Signal(SmId),
}

impl Ec {
    /// The VMCS of a vCPU EC.
    pub fn vmcs(&self) -> Option<&Vmcs> {
        match &self.kind {
            EcKind::Vcpu { vmcs } => Some(vmcs),
            EcKind::Thread => None,
        }
    }

    /// Mutable VMCS access.
    pub fn vmcs_mut(&mut self) -> Option<&mut Vmcs> {
        match &mut self.kind {
            EcKind::Vcpu { vmcs } => Some(vmcs),
            EcKind::Thread => None,
        }
    }
}

/// A scheduling context: priority + quantum, attached to an EC
/// (Section 5.1).
pub struct Sc {
    /// The execution context this SC dispatches.
    pub ec: EcId,
    /// Priority (higher runs first).
    pub prio: u8,
    /// Full time quantum in cycles.
    pub quantum: Cycles,
    /// Remaining quantum in the current round.
    pub left: Cycles,
}

/// A portal: a dedicated entry point into the domain that created it
/// (Section 5.2).
pub struct Portal {
    /// Handler execution context (must be a thread EC).
    pub ec: EcId,
    /// Message transfer descriptor: which guest-state groups the
    /// hypervisor transmits on VM-exit messages through this portal.
    pub mtd: u32,
    /// Opaque id passed to the handler (encodes the event type).
    pub id: u64,
}

/// A semaphore (Section 5): counting semaphore whose `up` is also how
/// the hypervisor signals hardware interrupts to user components.
pub struct Semaphore {
    /// Counter.
    pub count: u64,
    /// EC bound to consume signals (run-to-completion adaptation of a
    /// blocked-waiter queue).
    pub bound: Option<EcId>,
    /// GSI this semaphore is attached to, if it delivers interrupts.
    pub gsi: Option<u8>,
}

/// Typed object tables (slabs) for all kernel objects.
#[derive(Default)]
pub struct Objects {
    /// Protection domains.
    pub pds: Vec<Pd>,
    /// Execution contexts.
    pub ecs: Vec<Ec>,
    /// Scheduling contexts.
    pub scs: Vec<Sc>,
    /// Portals.
    pub pts: Vec<Portal>,
    /// Semaphores.
    pub sms: Vec<Semaphore>,
    /// Memory receive windows `(first page, pages)` in the handler's
    /// space of the portals that have one, set by
    /// [`Hypercall::PtWindow`](crate::Hypercall::PtWindow): where typed
    /// items sent through the portal land. A portal without one accepts
    /// none.
    pub windows: BTreeMap<PtId, (u64, u64)>,
}

impl Objects {
    /// Adds a PD, returning its id.
    pub fn add_pd(&mut self, pd: Pd) -> PdId {
        self.pds.push(pd);
        PdId((self.pds.len() - 1) as u32)
    }

    /// Adds an EC.
    ///
    /// # Panics
    ///
    /// If [`MAX_ECS`] exist already; the `CreateEc` hypercall refuses
    /// before it gets here.
    pub fn add_ec(&mut self, ec: Ec) -> EcId {
        let id = EcId(u16::try_from(self.ecs.len()).expect("at most MAX_ECS ECs"));
        self.ecs.push(ec);
        id
    }

    /// Adds an SC.
    pub fn add_sc(&mut self, sc: Sc) -> ScId {
        self.scs.push(sc);
        ScId(self.scs.len() - 1)
    }

    /// Adds a portal.
    pub fn add_pt(&mut self, pt: Portal) -> PtId {
        self.pts.push(pt);
        PtId(self.pts.len() - 1)
    }

    /// Adds a semaphore.
    pub fn add_sm(&mut self, sm: Semaphore) -> SmId {
        self.sms.push(sm);
        SmId(self.sms.len() - 1)
    }

    /// PD accessor.
    pub fn pd(&self, id: PdId) -> &Pd {
        &self.pds[id.0 as usize]
    }

    /// Mutable PD accessor.
    pub fn pd_mut(&mut self, id: PdId) -> &mut Pd {
        &mut self.pds[id.0 as usize]
    }

    /// EC accessor.
    pub fn ec(&self, id: EcId) -> &Ec {
        &self.ecs[id.0 as usize]
    }

    /// Mutable EC accessor.
    pub fn ec_mut(&mut self, id: EcId) -> &mut Ec {
        &mut self.ecs[id.0 as usize]
    }

    /// SC accessor.
    pub fn sc(&self, id: ScId) -> &Sc {
        &self.scs[id.0]
    }

    /// Mutable SC accessor.
    pub fn sc_mut(&mut self, id: ScId) -> &mut Sc {
        &mut self.scs[id.0]
    }

    /// Portal accessor.
    pub fn pt(&self, id: PtId) -> &Portal {
        &self.pts[id.0]
    }

    /// Semaphore accessor.
    pub fn sm(&self, id: SmId) -> &Semaphore {
        &self.sms[id.0]
    }

    /// Mutable semaphore accessor.
    pub fn sm_mut(&mut self, id: SmId) -> &mut Semaphore {
        &mut self.sms[id.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memspace_translate() {
        // Every answer is checked against a `BTreeMap` holding the
        // same mappings, the oracle for what a memory space means.
        let mut ms = MemSpace::default();
        let mut oracle: BTreeMap<u64, MemMapping> = BTreeMap::new();
        let agree = |ms: &MemSpace, oracle: &BTreeMap<u64, MemMapping>| {
            for addr in [0x40_abc, 0x41_000, (0x40 + TC_SLOTS as u64) << 12] {
                let want = oracle.get(&(addr >> 12)).map(|m| m.hpa + (addr & 0xfff));
                assert_eq!(ms.translate(addr), want, "translate({addr:#x})");
            }
            assert_eq!(ms.count(), oracle.len());
            assert!(ms.iter().eq(oracle.iter().map(|(p, m)| (*p, *m))));
        };
        let m = MemMapping {
            hpa: 0x123000,
            rights: MemRights::RW,
        };
        ms.map(0x40, m);
        oracle.insert(0x40, m);
        assert_eq!(ms.translate(0x40_abc), Some(0x123abc));
        agree(&ms, &oracle);
        assert_eq!(ms.unmap(0x40), oracle.remove(&0x40));
        assert_eq!(ms.translate(0x40_abc), None);
        agree(&ms, &oracle);
    }

    #[test]
    fn memspace_overflow_pages_and_iter_order() {
        // Pages beyond the directory span land in the overflow map and
        // still iterate in page order after all directory pages.
        let mut ms = MemSpace::default();
        let far = (super::DIR_MAX_LEAVES as u64) << super::LEAF_BITS;
        for p in [far + 7, 3, far, 0x1_0000, 512, 0] {
            ms.map(
                p,
                MemMapping {
                    hpa: p << 12,
                    rights: MemRights::RW,
                },
            );
        }
        assert_eq!(ms.count(), 6);
        let pages: Vec<u64> = ms.iter().map(|(p, _)| p).collect();
        assert_eq!(pages, vec![0, 3, 512, 0x1_0000, far, far + 7]);
        for (p, m) in ms.iter() {
            assert_eq!(m.hpa, p << 12);
            assert_eq!(ms.lookup(p).unwrap().hpa, p << 12);
        }
        assert_eq!(ms.unmap(far).unwrap().hpa, far << 12);
        assert_eq!(ms.lookup(far), None);
        assert_eq!(ms.count(), 5);
    }

    #[test]
    fn memspace_cache_no_stale_hits() {
        // A cached translation must not survive unmap or remap: the
        // generation bump invalidates every cached entry at once.
        let mut ms = MemSpace::default();
        let m1 = MemMapping {
            hpa: 0xa000,
            rights: MemRights::RW,
        };
        ms.map(7, m1);
        assert_eq!(ms.lookup(7), Some(m1)); // fills the cache
        assert_eq!(ms.lookup(7), Some(m1)); // hits the cache
        ms.unmap(7);
        assert_eq!(ms.lookup(7), None);
        let m2 = MemMapping {
            hpa: 0xb000,
            rights: MemRights::RO,
        };
        ms.map(7, m2);
        assert_eq!(ms.lookup(7), Some(m2));
        // Aliasing: pages 7 and 7 + TC_SLOTS share a cache slot; each
        // probe must verify the tag, not just the slot.
        let m3 = MemMapping {
            hpa: 0xc000,
            rights: MemRights::RW_DMA,
        };
        ms.map(7 + super::TC_SLOTS as u64, m3);
        assert_eq!(ms.lookup(7 + super::TC_SLOTS as u64), Some(m3));
        assert_eq!(ms.lookup(7), Some(m2));
        ms.invalidate_cache();
        assert_eq!(ms.lookup(7), Some(m2));
    }

    #[test]
    fn iospace_grant_revoke() {
        let mut io = IoSpace::new();
        assert!(!io.allowed(0x3f8));
        io.grant(0x3f8);
        io.grant(0x3f9);
        assert!(io.allowed(0x3f8));
        assert_eq!(io.count(), 2);
        io.revoke(0x3f8);
        assert!(!io.allowed(0x3f8));
        assert!(io.allowed(0x3f9));
    }

    /// `grant_range` and `iter` against the per-port `grant` and
    /// `allowed` they stand in for, on ranges that start, end and lie
    /// inside, on and across bitmap words, and at both ends of the
    /// port space.
    #[test]
    fn iospace_ranges_agree_with_the_per_port_operations() {
        let ranges = [
            (0u16, 0usize),
            (0, 1),
            (0, 64),
            (1, 62),
            (63, 2),
            (60, 200),
            (0x3f8, 8),
            (0xffc0, 64),
            (0xfffe, 9),
            (0, 1 << 16),
        ];
        for (base, count) in ranges {
            let (mut ranged, mut single) = (IoSpace::new(), IoSpace::new());
            ranged.grant(7);
            single.grant(7);
            ranged.grant_range(base, count);
            for port in (base as usize..base as usize + count).take_while(|p| *p < 1 << 16) {
                single.grant(port as u16);
            }
            let want: Vec<u16> = (0..=u16::MAX).filter(|p| single.allowed(*p)).collect();
            assert_eq!(
                ranged.bitmap, single.bitmap,
                "grant_range({base:#x}, {count})"
            );
            assert_eq!(ranged.iter().collect::<Vec<_>>(), want);
            assert_eq!(ranged.count(), want.len());
        }
    }

    #[test]
    fn mem_rights_mask_reduces() {
        let r = MemRights::RW_DMA.mask(MemRights::RO);
        assert!(!r.write);
        assert!(!r.dma);
        let r = MemRights::RW_DMA.mask(MemRights::RW);
        assert!(r.write);
        assert!(!r.dma);
    }

    #[test]
    fn object_tables() {
        let mut o = Objects::default();
        let pd = o.add_pd(Pd::new("root"));
        assert_eq!(o.pd(pd).name, "root");
        assert!(!o.pd(pd).is_vm());
        let sm = o.add_sm(Semaphore {
            count: 0,
            bound: None,
            gsi: Some(1),
        });
        o.sm_mut(sm).count += 1;
        assert_eq!(o.sm(sm).count, 1);
    }
}
