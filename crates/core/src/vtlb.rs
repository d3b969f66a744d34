//! The virtual TLB algorithm (Section 5.3): shadow-page-table
//! maintenance for hardware without nested paging.
//!
//! The hardware walks only the shadow table; every miss arrives here
//! as an intercepted #PF. The hypervisor parses the guest's page
//! table, translates the resulting guest-physical address through the
//! VM's host memory space, and either fills the shadow table (a *vTLB
//! fill*), injects the #PF into the guest (a *guest page fault*), or —
//! when the guest-physical address is unbacked — reports an MMIO
//! access for the VMM to emulate.
//!
//! # The tagged shadow cache
//!
//! A shadow table is a software TLB, and the paper's Figure 5 shows
//! that discarding it on every `mov cr3` — a full rebuild per guest
//! context switch — is what makes the vTLB column expensive. The
//! [`ShadowCache`] therefore keeps a bounded set of shadow tables,
//! each *tagged* with the guest CR3 it shadows and backed by its own
//! hardware-TLB tag (VPID), so reloading a recently used CR3 switches
//! the active root instead of flushing (LRU eviction bounds the set).
//!
//! Coherence uses the TLB's own contract: the guest may edit its page
//! tables freely, and x86 only guarantees the edits take effect after
//! `invlpg` or a CR3 reload. Every guest page-directory/-table frame
//! consumed by a walk is *tracked* with a snapshot of its entries; on
//! each activation the cache re-reads the tracked frames and
//! invalidates precisely the shadow entries whose guest entries
//! changed (ignoring A/D-bit churn), queueing the matching hardware
//! [`TlbOp`]s. Entries that were not present before need no
//! invalidation — a TLB never caches non-present translations. This
//! costs zero extra VM exits: no guest-table write protection, no
//! hidden faults.
//!
//! One honest limitation: DMA into a guest page-table frame between
//! two activations of the same tag is invisible to the snapshot diff
//! until the next activation — the same window a physical TLB has, but
//! real hypervisors close it with an IOMMU fault. The workloads here
//! DMA only into data buffers.
//!
//! # Architectural semantics
//!
//! The guest walk implements the checks a 32-bit two-level MMU makes:
//! user/supervisor (US intersected across PDE and PTE, `pf_err::USER`
//! reported), write permission honoring CR0.WP for supervisor
//! accesses, and accessed/dirty maintenance (A set on every level of a
//! successful walk, D on write). Writable-but-clean pages are filled
//! read-only so the first guest write faults back in and sets D —
//! without this, guest page replacement would see eternally clean
//! pages.
//!
//! # Trust model
//!
//! Every value the walk consumes — CR3, PDE, PTE — is guest-written
//! and may point anywhere, including outside guest RAM, at the
//! guest's own page tables, or into a device window. A table frame
//! the memory space cannot translate is indistinguishable (to the
//! guest) from a not-present entry, so the walk answers with an
//! injected #PF, never a hypervisor panic. The module is lint-gated
//! panic-free.

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::panic)]

use std::collections::BTreeMap;

use nova_hw::mem::PhysMem;
use nova_hw::tlb::Tlb;
use nova_hw::vmx::{ExitReason, Injection, Vmcs};
use nova_hw::PAddr;
use nova_x86::paging::{self, pte, split_2level, PAGE_SIZE};
use nova_x86::reg::{cr0, cr4, pf_err, vector};

use crate::counters::Counters;
use crate::hostpt::{FrameAllocator, ShadowPt};
use crate::obj::MemSpace;

/// Entries per 32-bit page-directory/-table frame.
const PT_ENTRIES: usize = (PAGE_SIZE / 4) as usize;

/// Result of handling one intercepted #PF.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VtlbOutcome {
    /// The shadow table was filled; resume the guest (vTLB fill).
    Filled,
    /// The guest's own table denies the access: inject #PF with this
    /// error code.
    InjectPf {
        /// Architectural error code for the guest.
        err: u32,
    },
    /// The guest-physical address has no backing memory: a device
    /// access the VMM must emulate.
    Mmio {
        /// Guest-physical address.
        gpa: u64,
        /// `true` for a write.
        write: bool,
    },
}

/// Result of an intercepted CR access, telling the caller what the
/// shadow cache did (and what to count).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrOutcome {
    /// No shadow maintenance (CR reads, CR2 writes, non-paging bits).
    None,
    /// The cache was dropped (paging-relevant CR0/CR4 toggle, or a CR3
    /// write in legacy flush-per-switch mode).
    Flush,
    /// A CR3 write switched the active shadow root.
    Switch {
        /// `true` if the new CR3 was already cached (no rebuild).
        hit: bool,
        /// `true` if a tagged victim was evicted to make room.
        evicted: bool,
    },
}

/// A hardware-TLB maintenance operation the shadow cache owes the CPU.
/// The cache queues these while handling an exit; [`handle_exit`]
/// drains them into the exiting CPU's TLB.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlbOp {
    /// Flush every entry (untagged TLB).
    FlushAll,
    /// Flush one tag's entries.
    FlushVpid(u16),
    /// Invalidate one page of one tag.
    Invl {
        /// The tag.
        vpid: u16,
        /// Page-aligned linear address.
        gva: u32,
    },
}

/// Applies queued maintenance to the hardware TLB of the CPU the vCPU
/// runs on, leaving the queue empty (and its storage in place). Tag 0
/// is the untagged TLB: flushing it is a full flush.
fn apply_tlb_ops(tlb: &mut Tlb, ops: &mut Vec<TlbOp>) {
    for op in ops.drain(..) {
        match op {
            TlbOp::FlushAll | TlbOp::FlushVpid(0) => tlb.flush_all(),
            TlbOp::FlushVpid(v) => tlb.flush_vpid(v),
            TlbOp::Invl { vpid, gva } => tlb.invalidate(vpid, gva as u64),
        }
    }
}

/// Snapshot of one tracked guest page-directory/-table frame, scoped
/// to one cache slot (a frame shared between address spaces — e.g. a
/// kernel page table — diffs independently per slot).
struct TrackedPt {
    /// The frame is (also) the slot's page directory.
    root: bool,
    /// Directory slots this frame serves as a page table under.
    dis: Vec<u32>,
    /// Entry values the slot's shadow state was last derived from.
    snap: Vec<u32>,
}

/// One cached shadow table: the table itself, its guest-CR3 tag, its
/// hardware-TLB tag, and the tracked guest frames backing it.
struct Slot {
    pt: ShadowPt,
    vpid: u16,
    tag: Option<u32>,
    tracked: BTreeMap<u64, TrackedPt>,
    lru: u64,
}

/// A bounded per-vCPU cache of shadow page tables keyed by guest CR3.
pub struct ShadowCache {
    slots: Vec<Slot>,
    active: usize,
    /// Deterministic LRU clock (bumped per activation).
    clock: u64,
    /// `true` reproduces the pre-cache behaviour — every CR3 write
    /// flushes — for the monolithic-baseline cost models.
    legacy_flush: bool,
    pending: Vec<TlbOp>,
}

impl ShadowCache {
    /// Creates a cache of `slots` empty shadow tables (at least one).
    /// `base_vpid == 0` leaves every slot untagged (the "w/o VPID"
    /// configuration); otherwise slot *i* owns tag `base_vpid + i`.
    pub fn new(
        mem: &mut PhysMem,
        alloc: &mut FrameAllocator,
        slots: usize,
        base_vpid: u16,
    ) -> Self {
        let n = slots.max(1);
        ShadowCache {
            slots: (0..n)
                .map(|i| Slot {
                    pt: ShadowPt::new(alloc, mem),
                    vpid: if base_vpid == 0 {
                        0
                    } else {
                        base_vpid + i as u16
                    },
                    tag: None,
                    tracked: BTreeMap::new(),
                    lru: 0,
                })
                .collect(),
            active: 0,
            clock: 0,
            legacy_flush: false,
            pending: Vec::new(),
        }
    }

    /// A single-slot cache that flushes on every CR3 write — the
    /// behaviour of shadow implementations that rebuild per switch
    /// (KVM/Xen baselines in the cost models).
    pub fn legacy(mem: &mut PhysMem, alloc: &mut FrameAllocator, vpid: u16) -> Self {
        let mut c = ShadowCache::new(mem, alloc, 1, vpid);
        c.legacy_flush = true;
        c
    }

    /// Number of VPIDs a cache with `slots` slots consumes.
    pub fn vpid_span(slots: usize) -> u16 {
        slots.max(1) as u16
    }

    /// Root of the active shadow table (for the VMCS).
    pub fn active_root(&self) -> PAddr {
        self.slots.get(self.active).map(|s| s.pt.root).unwrap_or(0)
    }

    /// Hardware-TLB tag of the active shadow table.
    pub fn active_vpid(&self) -> u16 {
        self.slots.get(self.active).map(|s| s.vpid).unwrap_or(0)
    }

    /// Every slot's hardware-TLB tag (teardown must flush them all).
    pub fn vpids(&self) -> Vec<u16> {
        self.slots.iter().map(|s| s.vpid).collect()
    }

    /// Drains the queued hardware-TLB operations.
    #[cfg(test)]
    pub fn take_tlb_ops(&mut self) -> Vec<TlbOp> {
        std::mem::take(&mut self.pending)
    }

    /// Releases every slot's sub-table frames back to the allocator
    /// (domain teardown). Root frames stay with the cache.
    pub fn release_all(&mut self, mem: &mut PhysMem, alloc: &mut FrameAllocator) {
        for s in self.slots.iter_mut() {
            s.pt.release_frames(mem, alloc);
            s.tracked.clear();
            s.tag = None;
        }
    }

    /// Re-tags the active slot to `cr3` without touching its contents
    /// (vCPU state import: the empty fresh shadow matches any tag, and
    /// binding it avoids a spurious rebuild on the guest's next reload
    /// of the same CR3).
    pub fn rebind_active_tag(&mut self, cr3: u32) {
        if let Some(s) = self.slots.get_mut(self.active) {
            s.tag = Some(cr3 & pte::ADDR);
        }
    }

    fn active_slot_mut(&mut self) -> Option<&mut Slot> {
        self.slots.get_mut(self.active)
    }

    /// Drops every cached shadow (paging-relevant CR0/CR4 toggle): all
    /// translations may have changed meaning, so precise invalidation
    /// has no basis. Slots keep their root frames; the active slot is
    /// re-tagged to the current CR3 so subsequent fills land correctly.
    fn drop_all(&mut self, mem: &mut PhysMem, vmcs: &Vmcs) {
        for s in self.slots.iter_mut() {
            if s.tag.is_some() || s.pt.sub_tables() > 0 {
                s.pt.flush(mem);
            }
            s.tracked.clear();
            s.tag = None;
            self.pending.push(TlbOp::FlushVpid(s.vpid));
        }
        if let Some(s) = self.slots.get_mut(self.active) {
            s.tag = Some(vmcs.guest.cr3 & pte::ADDR);
        }
    }

    /// Legacy CR3 write: flush the single slot and re-tag it.
    fn flush_active(&mut self, mem: &mut PhysMem, vmcs: &Vmcs) {
        let tag = vmcs.guest.cr3 & pte::ADDR;
        if let Some(s) = self.slots.get_mut(self.active) {
            s.pt.flush(mem);
            s.tracked.clear();
            s.tag = Some(tag);
            self.pending.push(TlbOp::FlushVpid(s.vpid));
        }
    }

    /// Activates the slot for the (just written) guest CR3: hit →
    /// resynchronize against tracked guest frames; miss → claim the
    /// LRU victim. Updates the VMCS root/tag. Returns `(hit, evicted)`.
    fn activate(
        &mut self,
        mem: &mut PhysMem,
        alloc: &mut FrameAllocator,
        ms: &MemSpace,
        vmcs: &mut Vmcs,
    ) -> (bool, bool) {
        let tag = vmcs.guest.cr3 & pte::ADDR;
        self.clock += 1;
        let clock = self.clock;
        let (idx, hit, evicted) = match self.slots.iter().position(|s| s.tag == Some(tag)) {
            Some(i) => (i, true, false),
            None => {
                let i = self
                    .slots
                    .iter()
                    .position(|s| s.tag.is_none())
                    .or_else(|| {
                        self.slots
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, s)| s.lru)
                            .map(|(i, _)| i)
                    })
                    .unwrap_or(0);
                let mut evicted = false;
                if let Some(s) = self.slots.get_mut(i) {
                    evicted = s.tag.is_some();
                    if evicted {
                        // Give the victim's sub-table frames back to
                        // the hypervisor pool and retire its TLB tag.
                        s.pt.release_frames(mem, alloc);
                        s.tracked.clear();
                        self.pending.push(TlbOp::FlushVpid(s.vpid));
                    } else if s.pt.sub_tables() > 0 {
                        // Untagged slots can still hold pre-paging
                        // identity fills.
                        s.pt.flush(mem);
                        self.pending.push(TlbOp::FlushVpid(s.vpid));
                    }
                    s.tag = Some(tag);
                }
                (i, false, evicted)
            }
        };
        self.active = idx;
        if let Some(s) = self.slots.get_mut(idx) {
            s.lru = clock;
            if hit {
                resync(s, mem, ms, &mut self.pending);
            }
            vmcs.set_shadow(s.pt.root, s.vpid);
            if s.vpid == 0 {
                // An untagged hardware TLB flushes on every mov cr3.
                self.pending.push(TlbOp::FlushAll);
            }
        }
        (hit, evicted)
    }
}

/// Re-reads every guest frame the slot's shadow state was derived from
/// and invalidates what changed — the architectural flush point of a
/// CR3 reload, applied precisely. A/D-bit churn (the hypervisor's own
/// writes plus benign guest copies) is masked out of the diff; entries
/// that were non-present before need no invalidation.
fn resync(slot: &mut Slot, mem: &mut PhysMem, ms: &MemSpace, pending: &mut Vec<TlbOp>) {
    let mut tracked = std::mem::take(&mut slot.tracked);
    let mut dead: Vec<u64> = Vec::new();
    let mut unlink: Vec<(u64, u32)> = Vec::new();
    let mut flush_slot = false;
    let mut flush_vpid = false;
    for (&frame, t) in tracked.iter_mut() {
        let Some(hpa) = ms.translate(frame) else {
            // The backing of a tracked frame vanished: drop what was
            // derived from it, conservatively.
            if t.root {
                flush_slot = true;
                break;
            }
            for &di in &t.dis {
                slot.pt.clear_pde(mem, di);
            }
            flush_vpid = true;
            dead.push(frame);
            continue;
        };
        // One borrow of the whole guest frame beats 1024 bounds-checked
        // word reads; the shadow structures the loop body writes live
        // in hypervisor frames, never in this guest frame, so snapshot-
        // then-diff is equivalent to interleaved reads.
        let mut new_page = [0u32; PT_ENTRIES];
        match mem.slice(hpa, PT_ENTRIES * 4) {
            Some(bytes) => {
                for (dst, c) in new_page.iter_mut().zip(bytes.chunks_exact(4)) {
                    *dst = u32::from_le_bytes(c.try_into().unwrap_or([0; 4]));
                }
            }
            None => {
                for (idx, dst) in new_page.iter_mut().enumerate() {
                    *dst = mem.read_u32(hpa + idx as u64 * 4);
                }
            }
        }
        for (idx, &new) in new_page.iter().enumerate() {
            let Some(old_cell) = t.snap.get_mut(idx) else {
                continue;
            };
            let old = *old_cell;
            if (old ^ new) & !(pte::A | pte::D) == 0 {
                *old_cell = new;
                continue;
            }
            if old & pte::P != 0 {
                if t.root {
                    // A repointed/cleared PDE drops its whole 4 MB
                    // shadow region.
                    slot.pt.clear_pde(mem, idx as u32);
                    flush_vpid = true;
                    if old & pte::PS == 0 {
                        unlink.push(((old & pte::ADDR) as u64, idx as u32));
                    }
                }
                for &di in &t.dis {
                    let gva = (di << 22) | ((idx as u32) << 12);
                    slot.pt.invalidate(mem, gva);
                    pending.push(TlbOp::Invl {
                        vpid: slot.vpid,
                        gva,
                    });
                }
            }
            *old_cell = new;
        }
    }
    if flush_slot {
        slot.pt.flush(mem);
        tracked.clear();
        pending.push(TlbOp::FlushVpid(slot.vpid));
    } else {
        for (frame, di) in unlink {
            if let Some(t) = tracked.get_mut(&frame) {
                t.dis.retain(|d| *d != di);
                if t.dis.is_empty() && !t.root {
                    dead.push(frame);
                }
            }
        }
        for f in dead {
            tracked.remove(&f);
        }
        if flush_vpid {
            pending.push(TlbOp::FlushVpid(slot.vpid));
        }
    }
    slot.tracked = tracked;
}

/// Starts (or extends) tracking of a guest PD/PT frame in the slot,
/// snapshotting its current entries. Untranslatable frames are not
/// tracked — the walk fails on them anyway.
fn track_frame(
    slot: &mut Slot,
    mem: &PhysMem,
    ms: &MemSpace,
    frame_gpa: u64,
    root: bool,
    di: Option<u32>,
) {
    match slot.tracked.entry(frame_gpa) {
        std::collections::btree_map::Entry::Occupied(o) => {
            let t = o.into_mut();
            if root {
                t.root = true;
            }
            if let Some(di) = di {
                if !t.dis.contains(&di) {
                    t.dis.push(di);
                    t.dis.sort_unstable();
                }
            }
        }
        std::collections::btree_map::Entry::Vacant(v) => {
            let Some(hpa) = ms.translate(frame_gpa) else {
                return;
            };
            let mut snap = Vec::with_capacity(PT_ENTRIES);
            match mem.slice(hpa, PT_ENTRIES * 4) {
                Some(bytes) => snap.extend(
                    bytes
                        .chunks_exact(4)
                        .map(|c| u32::from_le_bytes(c.try_into().unwrap_or([0; 4]))),
                ),
                None => {
                    for idx in 0..PT_ENTRIES {
                        snap.push(mem.read_u32(hpa + idx as u64 * 4));
                    }
                }
            }
            v.insert(TrackedPt {
                root,
                dis: di.into_iter().collect(),
                snap,
            });
        }
    }
}

/// Records `val` as the value index `idx` of tracked frame `frame_gpa`
/// that the shadow state was (re-)derived from.
fn refresh_snap(slot: &mut Slot, frame_gpa: u64, idx: usize, val: u32) {
    if let Some(t) = slot.tracked.get_mut(&frame_gpa) {
        if let Some(cell) = t.snap.get_mut(idx) {
            *cell = val;
        }
    }
}

/// The guest-walk result before host translation.
struct GuestLeaf {
    gpa: u64,
    /// The access class may write (guest W bits, or supervisor with
    /// CR0.WP clear).
    writable: bool,
    /// User-accessible (US intersected across levels).
    user: bool,
    /// D already set (post-update): a writable shadow fill is safe.
    dirty: bool,
}

/// Walks the guest's two-level page table (guest-physical pointers,
/// resolved through the VM's host memory space), enforcing US/W/WP and
/// maintaining A/D bits; tracks the frames it consumes in `slot`.
///
/// The order of effects is part of what a seed reproduces: the root
/// frame is tracked before the PDE is read, the page-table frame once
/// the access is known to be permitted, and then PDE and PTE are
/// written back — every time, even with A/D already set, which moves
/// the two frames' write generations.
fn walk_guest(
    mem: &mut PhysMem,
    ms: &MemSpace,
    vmcs: &Vmcs,
    slot: &mut Slot,
    addr: u32,
    err: u32,
) -> Result<GuestLeaf, u32> {
    // The injected error code: the access as the exit reported it.
    let access = err & (pf_err::WRITE | pf_err::USER | pf_err::FETCH);
    let fault = |present: bool| access | if present { pf_err::PRESENT } else { 0 };
    let (write, user) = (err & pf_err::WRITE != 0, err & pf_err::USER != 0);

    if !vmcs.guest.paging() {
        // Real-mode-style flat guest: GVA == GPA, everything writable.
        return Ok(GuestLeaf {
            gpa: addr as u64,
            writable: true,
            user: true,
            dirty: true,
        });
    }

    let wp = vmcs.guest.cr0 & cr0::WP != 0;
    let pse = vmcs.guest.cr4 & cr4::PSE != 0;
    let (di, ti, _) = split_2level(addr);

    let root_gpa = (vmcs.guest.cr3 & pte::ADDR) as u64;
    track_frame(slot, mem, ms, root_gpa, true, None);

    // Host-physical homes of the entries read (PDE, then PTE), for the
    // write-back. A table frame the memory space cannot translate stops
    // the walk like a not-present entry.
    let mut homes = [0 as PAddr; 2];
    let mut reads = homes.iter_mut();
    let w = paging::walk_2level(vmcs.guest.cr3, pse, addr, |gpa| {
        let Some(hpa) = ms.translate(gpa) else {
            return Err(());
        };
        if let Some(home) = reads.next() {
            *home = hpa;
        }
        Ok(mem.read_u32(hpa))
    })
    .unwrap_or(None)
    .ok_or(fault(false))?;
    if !w.permits(write, user, wp) {
        return Err(fault(true));
    }
    let [pde_hpa, pte_hpa] = homes;

    let dirty = if write { pte::D } else { 0 };
    let leaf = match w.pte {
        None => {
            let pde = w.pde | pte::A | dirty;
            mem.write_u32(pde_hpa, pde);
            refresh_snap(slot, root_gpa, di as usize, pde);
            pde
        }
        Some((pte_v, pte_at)) => {
            let pt_gpa = pte_at & !(PAGE_SIZE as u64 - 1);
            track_frame(slot, mem, ms, pt_gpa, false, Some(di));
            let pde = w.pde | pte::A;
            mem.write_u32(pde_hpa, pde);
            refresh_snap(slot, root_gpa, di as usize, pde);
            let pte_v = pte_v | pte::A | dirty;
            mem.write_u32(pte_hpa, pte_v);
            refresh_snap(slot, pt_gpa, ti as usize, pte_v);
            pte_v
        }
    };

    Ok(GuestLeaf {
        gpa: w.addr,
        writable: w.may_write(user, wp),
        user: w.user(),
        dirty: leaf & pte::D != 0,
    })
}

/// Handles one intercepted guest page fault: fill, inject, or MMIO.
///
/// `err` is the architectural error code from the exit; `ms` is the
/// VM's host memory space; `cache` the vCPU's shadow cache (the active
/// slot is filled).
pub fn handle_page_fault(
    mem: &mut PhysMem,
    alloc: &mut FrameAllocator,
    ms: &MemSpace,
    cache: &mut ShadowCache,
    vmcs: &Vmcs,
    addr: u32,
    err: u32,
) -> VtlbOutcome {
    let Some(slot) = cache.active_slot_mut() else {
        return VtlbOutcome::InjectPf { err };
    };
    let leaf = match walk_guest(mem, ms, vmcs, slot, addr, err) {
        Ok(l) => l,
        Err(e) => return VtlbOutcome::InjectPf { err: e },
    };

    // Guest-physical to host-physical through the VM's memory space.
    let page_gpa = leaf.gpa & !0xfff;
    let Some(hpa) = ms.translate(page_gpa) else {
        return VtlbOutcome::Mmio {
            gpa: leaf.gpa,
            write: err & pf_err::WRITE != 0,
        };
    };
    let host_write = ms
        .lookup(page_gpa >> 12)
        .map(|m| m.rights.write)
        .unwrap_or(false);

    // Splinter large guest pages into 4 KB shadow entries (standard
    // vTLB behaviour) and intersect guest and host write permissions.
    // Writable-but-clean pages fill read-only (`dirty` gates W): the
    // first write faults back here and sets D.
    slot.pt.fill(
        mem,
        alloc,
        addr & !0xfff,
        hpa & !0xfff,
        leaf.writable && host_write && leaf.dirty,
        leaf.user,
    );
    VtlbOutcome::Filled
}

/// Emulates an intercepted guest CR access (MOV to/from CRn) and
/// maintains the shadow cache: CR3 writes switch the active shadow
/// root (resynchronizing on a hit); CR0/CR4 writes drop the cache only
/// when paging-relevant bits change. [`handle_exit`] drains the queued
/// TLB maintenance and counts the returned [`CrOutcome`].
#[allow(clippy::too_many_arguments)]
pub fn handle_cr_access(
    mem: &mut PhysMem,
    alloc: &mut FrameAllocator,
    ms: &MemSpace,
    cache: &mut ShadowCache,
    vmcs: &mut Vmcs,
    cr: u8,
    write: bool,
    gpr: nova_x86::Reg,
    len: u8,
) -> CrOutcome {
    let mut outcome = CrOutcome::None;
    if write {
        let val = vmcs.guest.get(gpr);
        match cr {
            0 | 4 => {
                let old = vmcs.guest.get_cr(cr);
                vmcs.guest.set_cr(cr, val);
                let mask = if cr == 0 {
                    cr0::PAGING_MASK
                } else {
                    cr4::PAGING_MASK
                };
                // Only paging-relevant toggles invalidate the cache;
                // CR0.TS/MP churn (lazy FPU) stays free.
                if (old ^ val) & mask != 0 {
                    cache.drop_all(mem, vmcs);
                    outcome = CrOutcome::Flush;
                }
            }
            3 => {
                vmcs.guest.cr3 = val;
                if cache.legacy_flush {
                    cache.flush_active(mem, vmcs);
                    outcome = CrOutcome::Flush;
                } else {
                    let (hit, evicted) = cache.activate(mem, alloc, ms, vmcs);
                    outcome = CrOutcome::Switch { hit, evicted };
                }
            }
            _ => vmcs.guest.set_cr(cr, val),
        }
    } else {
        let val = vmcs.guest.get_cr(cr);
        vmcs.guest.set(gpr, val);
    }
    vmcs.guest.eip = vmcs.guest.eip.wrapping_add(len as u32);
    outcome
}

/// Emulates an intercepted INVLPG: drops the active shadow's entry
/// (precise, active tag only — INVLPG removes even global entries, and
/// other tags keep theirs until their own activation resynchronizes).
pub fn handle_invlpg(
    mem: &mut PhysMem,
    cache: &mut ShadowCache,
    vmcs: &mut Vmcs,
    addr: u32,
    len: u8,
) {
    if let Some(slot) = cache.active_slot_mut() {
        slot.pt.invalidate(mem, addr);
    }
    vmcs.guest.eip = vmcs.guest.eip.wrapping_add(len as u32);
}

/// What a vTLB exit works on, borrowed at once: guest memory, the
/// frame pool, the VM's memory space, the vCPU's shadow cache and VMCS,
/// the exiting CPU's hardware TLB and the event counters.
pub struct ShadowParts<'a> {
    /// Guest (and shadow-table) memory.
    pub mem: &'a mut PhysMem,
    /// Frames for new shadow sub-tables.
    pub alloc: &'a mut FrameAllocator,
    /// The VM's host memory space.
    pub ms: &'a MemSpace,
    /// The vCPU's shadow cache.
    pub cache: &'a mut ShadowCache,
    /// The vCPU's VMCS.
    pub vmcs: &'a mut Vmcs,
    /// The hardware TLB of the CPU the vCPU exited on.
    pub tlb: &'a mut Tlb,
    /// Where fills, guest faults, flushes and switches are counted.
    pub counters: &'a mut Counters,
}

/// What a vTLB exit did. The caller charges for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShadowExit {
    /// A #PF filled this many shadow entries: the faulting page and the
    /// prefetched pages after it.
    Filled(u32),
    /// A #PF the guest's own table denies: CR2 and the #PF injection
    /// are set.
    GuestFault,
    /// A #PF on guest-physical memory with no backing: a device access
    /// for the caller to emulate.
    Mmio {
        /// Guest-physical address.
        gpa: u64,
        /// `true` for a write.
        write: bool,
    },
    /// A CR access, emulated.
    Cr(CrOutcome),
    /// An INVLPG, emulated.
    Invlpg,
}

/// The one entry for the three shadow-paging exits — #PF, MOV CR and
/// INVLPG, read from `vmcs.exit` — whoever handles them: the
/// microhypervisor and the monolithic baseline. A fill prefetches the translations of up to
/// `prefetch - 1` following pages in the same trap (KVM's shadow-page
/// batching, Xen's batched updates); the queued TLB maintenance is
/// applied to the exiting CPU's TLB. `None` for any other exit.
pub fn handle_exit(p: ShadowParts<'_>, prefetch: u32) -> Option<ShadowExit> {
    let done = match p.vmcs.exit {
        ExitReason::PageFault { addr, err } => {
            let mut fill =
                |gva, err| handle_page_fault(p.mem, p.alloc, p.ms, p.cache, p.vmcs, gva, err);
            match fill(addr, err) {
                VtlbOutcome::Filled => {
                    let next = |i: u32| addr.wrapping_add(i * PAGE_SIZE);
                    let read = err & !pf_err::WRITE;
                    let more =
                        (1..prefetch).take_while(|&i| fill(next(i), read) == VtlbOutcome::Filled);
                    let n = 1 + more.count() as u32;
                    p.counters.vtlb_fills += n as u64;
                    ShadowExit::Filled(n)
                }
                VtlbOutcome::InjectPf { err } => {
                    p.counters.guest_page_faults += 1;
                    p.vmcs.guest.cr2 = addr;
                    p.vmcs.injection = Some(Injection {
                        vector: vector::PAGE_FAULT,
                        error_code: Some(err),
                    });
                    ShadowExit::GuestFault
                }
                VtlbOutcome::Mmio { gpa, write } => ShadowExit::Mmio { gpa, write },
            }
        }
        ExitReason::MovCr {
            cr,
            write,
            gpr,
            len,
        } => {
            let outcome =
                handle_cr_access(p.mem, p.alloc, p.ms, p.cache, p.vmcs, cr, write, gpr, len);
            // A cold switch rebuilds the shadow from scratch — the cost
            // class the flush counter has always measured.
            let cold = matches!(outcome, CrOutcome::Switch { hit: false, .. });
            p.counters.vtlb_flushes += (cold || outcome == CrOutcome::Flush) as u64;
            if let CrOutcome::Switch { hit, evicted } = outcome {
                p.counters.vtlb_switch_hits += hit as u64;
                p.counters.vtlb_switch_misses += !hit as u64;
                p.counters.vtlb_shadow_evictions += evicted as u64;
            }
            ShadowExit::Cr(outcome)
        }
        ExitReason::Invlpg { addr, len } => {
            handle_invlpg(p.mem, p.cache, p.vmcs, addr, len);
            p.tlb.invalidate(p.vmcs.vpid, addr as u64);
            ShadowExit::Invlpg
        }
        _ => return None,
    };
    apply_tlb_ops(p.tlb, &mut p.cache.pending);
    Some(done)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::panic, clippy::indexing_slicing)]
mod tests {
    use super::*;
    use nova_x86::reg::cr0;

    use crate::obj::{MemMapping, MemRights};

    fn setup() -> (PhysMem, FrameAllocator, MemSpace, ShadowCache) {
        setup_slots(4)
    }

    fn setup_slots(slots: usize) -> (PhysMem, FrameAllocator, MemSpace, ShadowCache) {
        let mut mem = PhysMem::new(32 << 20);
        let mut alloc = FrameAllocator::new(24 << 20, 8 << 20);
        let cache = ShadowCache::new(&mut mem, &mut alloc, slots, 1);
        // VM memory space: GPA pages 0..1024 backed at HPA 4 MB + page.
        let mut ms = MemSpace::default();
        for p in 0..1024u64 {
            ms.map(
                p,
                MemMapping {
                    hpa: (4 << 20) + p * 4096,
                    rights: MemRights::RW,
                },
            );
        }
        (mem, alloc, ms, cache)
    }

    fn vmcs_for(cache: &ShadowCache) -> Vmcs {
        Vmcs::new_shadow(cache.active_root(), cache.active_vpid())
    }

    /// Reads the guest PDE/PTE pair for `gva` under `groot`.
    fn guest_entries(mem: &PhysMem, ms: &MemSpace, groot: u32, gva: u32) -> (u32, u32) {
        let (di, ti, _) = split_2level(gva);
        let pde_hpa = ms.translate(groot as u64 + di as u64 * 4).unwrap();
        let pde = mem.read_u32(pde_hpa);
        let pte_hpa = ms
            .translate((pde & pte::ADDR) as u64 + ti as u64 * 4)
            .unwrap();
        (pde, mem.read_u32(pte_hpa))
    }

    fn shadow_walk(
        mem: &PhysMem,
        cache: &ShadowCache,
        gva: u32,
        access: nova_x86::paging::Access,
    ) -> Result<u64, ()> {
        let mut cyc = 0;
        nova_hw::mmu::walk_2level(
            mem,
            cache.active_root() as u32,
            gva,
            access,
            false,
            &nova_hw::cost::BLM,
            &mut cyc,
        )
        .map(|l| l.hpa)
        .map_err(|_| ())
    }

    /// Builds a guest page table *in guest-physical memory* at
    /// `groot_gpa` mapping GVA 0x40_0000 -> GPA `target` with `flags`
    /// on the PTE (PDE is P|W|US).
    fn build_guest_pt_at(
        mem: &mut PhysMem,
        ms: &MemSpace,
        groot_gpa: u32,
        gpt_gpa: u32,
        target: u32,
        flags: u32,
    ) -> u32 {
        let di = 0x40_0000u32 >> 22;
        let pde_hpa = ms.translate(groot_gpa as u64 + di as u64 * 4).unwrap();
        mem.write_u32(pde_hpa, gpt_gpa | pte::P | pte::W | pte::US);
        let pte_hpa = ms.translate(gpt_gpa as u64).unwrap();
        mem.write_u32(pte_hpa, target | flags);
        groot_gpa
    }

    /// Builds a guest page table mapping GVA 0x40_0000 -> GPA 0x5000
    /// (writable per `w`, user-accessible).
    fn build_guest_pt(mem: &mut PhysMem, ms: &MemSpace, w: bool) -> u32 {
        let flags = if w {
            pte::P | pte::W | pte::US
        } else {
            pte::P | pte::US
        };
        build_guest_pt_at(mem, ms, 0x10_000, 0x11_000, 0x5000, flags)
    }

    fn mov_cr3(
        mem: &mut PhysMem,
        alloc: &mut FrameAllocator,
        ms: &MemSpace,
        cache: &mut ShadowCache,
        vmcs: &mut Vmcs,
        val: u32,
    ) -> CrOutcome {
        vmcs.guest.set(nova_x86::Reg::Eax, val);
        handle_cr_access(mem, alloc, ms, cache, vmcs, 3, true, nova_x86::Reg::Eax, 3)
    }

    #[test]
    fn fill_on_valid_guest_mapping() {
        let (mut mem, mut alloc, ms, mut cache) = setup();
        let groot = build_guest_pt(&mut mem, &ms, true);
        let mut vmcs = vmcs_for(&cache);
        vmcs.guest.cr3 = groot;
        vmcs.guest.cr0 = cr0::PE | cr0::PG;

        let out = handle_page_fault(
            &mut mem,
            &mut alloc,
            &ms,
            &mut cache,
            &vmcs,
            0x40_0123,
            pf_err::WRITE,
        );
        assert_eq!(out, VtlbOutcome::Filled);

        // The shadow table now translates GVA to the *host* frame.
        let hpa = shadow_walk(&mem, &cache, 0x40_0123, nova_x86::paging::Access::WRITE).unwrap();
        assert_eq!(hpa, (4 << 20) + 0x5123);
    }

    #[test]
    fn walk_sets_accessed_and_dirty_bits() {
        let (mut mem, mut alloc, ms, mut cache) = setup();
        let groot = build_guest_pt(&mut mem, &ms, true);
        let mut vmcs = vmcs_for(&cache);
        vmcs.guest.cr3 = groot;
        vmcs.guest.cr0 = cr0::PE | cr0::PG;

        // A read sets A on both levels but leaves D clear.
        handle_page_fault(&mut mem, &mut alloc, &ms, &mut cache, &vmcs, 0x40_0000, 0);
        let (pde, pte_v) = guest_entries(&mem, &ms, groot, 0x40_0000);
        assert_ne!(pde & pte::A, 0, "PDE.A after read");
        assert_ne!(pte_v & pte::A, 0, "PTE.A after read");
        assert_eq!(pte_v & pte::D, 0, "clean after read");

        // A write sets D.
        handle_page_fault(
            &mut mem,
            &mut alloc,
            &ms,
            &mut cache,
            &vmcs,
            0x40_0000,
            pf_err::WRITE,
        );
        let (_, pte_v) = guest_entries(&mem, &ms, groot, 0x40_0000);
        assert_ne!(pte_v & pte::D, 0, "dirty after write");
    }

    #[test]
    fn clean_page_fills_read_only_until_dirtied() {
        let (mut mem, mut alloc, ms, mut cache) = setup();
        let groot = build_guest_pt(&mut mem, &ms, true);
        let mut vmcs = vmcs_for(&cache);
        vmcs.guest.cr3 = groot;
        vmcs.guest.cr0 = cr0::PE | cr0::PG;

        // First touch is a read: the page is writable but clean, so the
        // shadow entry must be read-only — otherwise the guest's D bit
        // would never be set by the write that follows.
        let out = handle_page_fault(&mut mem, &mut alloc, &ms, &mut cache, &vmcs, 0x40_0000, 0);
        assert_eq!(out, VtlbOutcome::Filled);
        assert!(shadow_walk(&mem, &cache, 0x40_0000, nova_x86::paging::Access::READ).is_ok());
        assert!(
            shadow_walk(&mem, &cache, 0x40_0000, nova_x86::paging::Access::WRITE).is_err(),
            "clean page filled read-only"
        );

        // The guest's write faults again (dirty-on-second-fault), sets
        // D, and upgrades the shadow entry to writable.
        let out = handle_page_fault(
            &mut mem,
            &mut alloc,
            &ms,
            &mut cache,
            &vmcs,
            0x40_0000,
            pf_err::WRITE,
        );
        assert_eq!(out, VtlbOutcome::Filled);
        let (_, pte_v) = guest_entries(&mem, &ms, groot, 0x40_0000);
        assert_ne!(pte_v & pte::D, 0);
        assert!(shadow_walk(&mem, &cache, 0x40_0000, nova_x86::paging::Access::WRITE).is_ok());
    }

    #[test]
    fn inject_when_guest_unmapped() {
        let (mut mem, mut alloc, ms, mut cache) = setup();
        let groot = build_guest_pt(&mut mem, &ms, true);
        let mut vmcs = vmcs_for(&cache);
        vmcs.guest.cr3 = groot;
        vmcs.guest.cr0 = cr0::PE | cr0::PG;

        let out = handle_page_fault(
            &mut mem, &mut alloc, &ms, &mut cache, &vmcs, 0x80_0000, // no guest mapping
            0,
        );
        assert_eq!(out, VtlbOutcome::InjectPf { err: 0 });
    }

    #[test]
    fn inject_protection_fault_on_guest_readonly() {
        let (mut mem, mut alloc, ms, mut cache) = setup();
        let groot = build_guest_pt(&mut mem, &ms, false); // read-only
        let mut vmcs = vmcs_for(&cache);
        vmcs.guest.cr3 = groot;
        // WP set: supervisor writes honor the R/O PTE.
        vmcs.guest.cr0 = cr0::PE | cr0::PG | cr0::WP;

        let out = handle_page_fault(
            &mut mem,
            &mut alloc,
            &ms,
            &mut cache,
            &vmcs,
            0x40_0000,
            pf_err::WRITE,
        );
        assert_eq!(
            out,
            VtlbOutcome::InjectPf {
                err: pf_err::PRESENT | pf_err::WRITE
            }
        );
        // Reads still fill.
        let out = handle_page_fault(&mut mem, &mut alloc, &ms, &mut cache, &vmcs, 0x40_0000, 0);
        assert_eq!(out, VtlbOutcome::Filled);
    }

    #[test]
    fn wp_clear_lets_supervisor_write_readonly_pages() {
        let (mut mem, mut alloc, ms, mut cache) = setup();
        let groot = build_guest_pt(&mut mem, &ms, false); // read-only
        let mut vmcs = vmcs_for(&cache);
        vmcs.guest.cr3 = groot;
        vmcs.guest.cr0 = cr0::PE | cr0::PG; // WP clear

        // Supervisor write to an R/O page is architecturally legal with
        // CR0.WP clear; it must fill and set D.
        let out = handle_page_fault(
            &mut mem,
            &mut alloc,
            &ms,
            &mut cache,
            &vmcs,
            0x40_0000,
            pf_err::WRITE,
        );
        assert_eq!(out, VtlbOutcome::Filled);
        let (_, pte_v) = guest_entries(&mem, &ms, groot, 0x40_0000);
        assert_ne!(pte_v & pte::D, 0);

        // A *user* write must still fault regardless of WP.
        let out = handle_page_fault(
            &mut mem,
            &mut alloc,
            &ms,
            &mut cache,
            &vmcs,
            0x40_0000,
            pf_err::WRITE | pf_err::USER,
        );
        assert_eq!(
            out,
            VtlbOutcome::InjectPf {
                err: pf_err::PRESENT | pf_err::WRITE | pf_err::USER
            }
        );
    }

    #[test]
    fn user_access_to_supervisor_page_injects_us_fault() {
        let (mut mem, mut alloc, ms, mut cache) = setup();
        // Writable but supervisor-only PTE (no US).
        let groot = build_guest_pt_at(&mut mem, &ms, 0x10_000, 0x11_000, 0x5000, pte::P | pte::W);
        let mut vmcs = vmcs_for(&cache);
        vmcs.guest.cr3 = groot;
        vmcs.guest.cr0 = cr0::PE | cr0::PG;

        let out = handle_page_fault(
            &mut mem,
            &mut alloc,
            &ms,
            &mut cache,
            &vmcs,
            0x40_0000,
            pf_err::USER,
        );
        assert_eq!(
            out,
            VtlbOutcome::InjectPf {
                err: pf_err::PRESENT | pf_err::USER
            }
        );
        // The same page is fine for the supervisor.
        let out = handle_page_fault(&mut mem, &mut alloc, &ms, &mut cache, &vmcs, 0x40_0000, 0);
        assert_eq!(out, VtlbOutcome::Filled);
    }

    #[test]
    fn us_intersects_across_pde_and_pte() {
        let (mut mem, mut alloc, ms, mut cache) = setup();
        // US on the PTE but not the PDE: user access must still fault.
        let groot_gpa = 0x10_000u32;
        let gpt_gpa = 0x11_000u32;
        let di = 0x40_0000u32 >> 22;
        let pde_hpa = ms.translate(groot_gpa as u64 + di as u64 * 4).unwrap();
        mem.write_u32(pde_hpa, gpt_gpa | pte::P | pte::W); // no US
        let pte_hpa = ms.translate(gpt_gpa as u64).unwrap();
        mem.write_u32(pte_hpa, 0x5000 | pte::P | pte::W | pte::US);

        let mut vmcs = vmcs_for(&cache);
        vmcs.guest.cr3 = groot_gpa;
        vmcs.guest.cr0 = cr0::PE | cr0::PG;

        let out = handle_page_fault(
            &mut mem,
            &mut alloc,
            &ms,
            &mut cache,
            &vmcs,
            0x40_0000,
            pf_err::USER,
        );
        assert_eq!(
            out,
            VtlbOutcome::InjectPf {
                err: pf_err::PRESENT | pf_err::USER
            }
        );
    }

    #[test]
    fn mmio_when_gpa_unbacked() {
        let (mut mem, mut alloc, ms, mut cache) = setup();
        // Guest maps GVA 0x44_0000 to GPA 0xfeb0_0000 (device window).
        let groot = build_guest_pt(&mut mem, &ms, true);
        let (di, ti, _) = split_2level(0x44_0000);
        let gpt2_gpa = 0x12_000u32;
        let pde_hpa = ms.translate(groot as u64 + di as u64 * 4).unwrap();
        mem.write_u32(pde_hpa, gpt2_gpa | pte::P | pte::W);
        let pte_hpa = ms.translate(gpt2_gpa as u64 + ti as u64 * 4).unwrap();
        mem.write_u32(pte_hpa, 0xfeb0_0000u32 | pte::P | pte::W);

        let mut vmcs = vmcs_for(&cache);
        vmcs.guest.cr3 = groot;
        vmcs.guest.cr0 = cr0::PE | cr0::PG;

        let out = handle_page_fault(
            &mut mem,
            &mut alloc,
            &ms,
            &mut cache,
            &vmcs,
            0x44_0038,
            pf_err::WRITE,
        );
        assert_eq!(
            out,
            VtlbOutcome::Mmio {
                gpa: 0xfeb0_0038,
                write: true
            }
        );
    }

    #[test]
    fn unpaged_guest_identity_fill() {
        let (mut mem, mut alloc, ms, mut cache) = setup();
        let vmcs = vmcs_for(&cache);
        let out = handle_page_fault(&mut mem, &mut alloc, &ms, &mut cache, &vmcs, 0x2345, 0);
        assert_eq!(out, VtlbOutcome::Filled);
        let hpa = shadow_walk(&mem, &cache, 0x2345, nova_x86::paging::Access::READ).unwrap();
        assert_eq!(hpa, (4 << 20) + 0x2345, "identity GPA through host space");
    }

    #[test]
    fn inject_when_cr3_outside_guest_ram() {
        // A hostile guest loads CR3 with a frame far beyond its RAM:
        // the PDE fetch cannot be translated, so the walk answers
        // with a non-present #PF instead of dereferencing wild memory.
        let (mut mem, mut alloc, ms, mut cache) = setup();
        let mut vmcs = vmcs_for(&cache);
        vmcs.guest.cr3 = 0xfff0_0000;
        vmcs.guest.cr0 = cr0::PE | cr0::PG;

        let out = handle_page_fault(
            &mut mem,
            &mut alloc,
            &ms,
            &mut cache,
            &vmcs,
            0x40_0123,
            pf_err::WRITE,
        );
        assert_eq!(out, VtlbOutcome::InjectPf { err: pf_err::WRITE });
    }

    #[test]
    fn inject_when_pte_frame_outside_guest_ram() {
        // Valid PDE whose page-table pointer aims outside guest RAM
        // (e.g. at a device window): the PTE fetch fails to translate
        // and the guest gets a #PF, not the hypervisor a bad read.
        let (mut mem, mut alloc, ms, mut cache) = setup();
        let groot_gpa = 0x10_000u32;
        let di = 0x40_0000u32 >> 22;
        let pde_hpa = ms.translate(groot_gpa as u64 + di as u64 * 4).unwrap();
        mem.write_u32(pde_hpa, 0xfeb2_0000u32 | pte::P | pte::W);

        let mut vmcs = vmcs_for(&cache);
        vmcs.guest.cr3 = groot_gpa;
        vmcs.guest.cr0 = cr0::PE | cr0::PG;

        let out = handle_page_fault(&mut mem, &mut alloc, &ms, &mut cache, &vmcs, 0x40_0000, 0);
        assert_eq!(out, VtlbOutcome::InjectPf { err: 0 });
    }

    #[test]
    fn self_mapping_guest_table_fills() {
        // A guest table that points a PTE at its own page-table frame
        // is weird but legal: the walk must terminate and fill.
        let (mut mem, mut alloc, ms, mut cache) = setup();
        let groot_gpa = 0x10_000u32;
        let gpt_gpa = 0x11_000u32;
        let di = 0x40_0000u32 >> 22;
        let pde_hpa = ms.translate(groot_gpa as u64 + di as u64 * 4).unwrap();
        mem.write_u32(pde_hpa, gpt_gpa | pte::P | pte::W);
        let pte_hpa = ms.translate(gpt_gpa as u64).unwrap();
        mem.write_u32(pte_hpa, gpt_gpa | pte::P | pte::W); // maps itself

        let mut vmcs = vmcs_for(&cache);
        vmcs.guest.cr3 = groot_gpa;
        vmcs.guest.cr0 = cr0::PE | cr0::PG;

        let out = handle_page_fault(&mut mem, &mut alloc, &ms, &mut cache, &vmcs, 0x40_0000, 0);
        assert_eq!(out, VtlbOutcome::Filled);
    }

    #[test]
    fn cr3_round_trip_reuses_cached_shadow() {
        let (mut mem, mut alloc, ms, mut cache) = setup();
        // Space A maps 0x40_0000 -> 0x5000; space B -> 0x7000.
        let root_a = build_guest_pt(&mut mem, &ms, true);
        let root_b = build_guest_pt_at(
            &mut mem,
            &ms,
            0x20_000,
            0x21_000,
            0x7000,
            pte::P | pte::W | pte::US,
        );
        let mut vmcs = vmcs_for(&cache);
        vmcs.guest.cr0 = cr0::PE | cr0::PG;

        // Enter space A (cold miss) and fill.
        let out = mov_cr3(&mut mem, &mut alloc, &ms, &mut cache, &mut vmcs, root_a);
        assert_eq!(
            out,
            CrOutcome::Switch {
                hit: false,
                evicted: false
            }
        );
        handle_page_fault(
            &mut mem,
            &mut alloc,
            &ms,
            &mut cache,
            &vmcs,
            0x40_0000,
            pf_err::WRITE,
        );
        let vpid_a = vmcs.vpid;

        // Switch to B (miss, different slot), fill there.
        let out = mov_cr3(&mut mem, &mut alloc, &ms, &mut cache, &mut vmcs, root_b);
        assert_eq!(
            out,
            CrOutcome::Switch {
                hit: false,
                evicted: false
            }
        );
        assert_ne!(vmcs.vpid, vpid_a, "per-tag VPID");
        handle_page_fault(
            &mut mem,
            &mut alloc,
            &ms,
            &mut cache,
            &vmcs,
            0x40_0000,
            pf_err::WRITE,
        );
        assert_eq!(
            shadow_walk(&mem, &cache, 0x40_0000, nova_x86::paging::Access::WRITE).unwrap(),
            (4 << 20) + 0x7000
        );

        // Back to A: hit — the cached shadow still translates without
        // a single refill, under A's original VPID.
        let out = mov_cr3(&mut mem, &mut alloc, &ms, &mut cache, &mut vmcs, root_a);
        assert_eq!(
            out,
            CrOutcome::Switch {
                hit: true,
                evicted: false
            }
        );
        assert_eq!(vmcs.vpid, vpid_a);
        assert_eq!(
            shadow_walk(&mem, &cache, 0x40_0000, nova_x86::paging::Access::WRITE).unwrap(),
            (4 << 20) + 0x5000,
            "cached shadow survived the round trip"
        );
    }

    #[test]
    fn resync_invalidates_entries_the_guest_changed() {
        let (mut mem, mut alloc, ms, mut cache) = setup();
        let root_a = build_guest_pt(&mut mem, &ms, true);
        // Second mapping in space A at 0x40_1000 -> 0x6000.
        let pte_hpa = ms.translate(0x11_000u64 + 4).unwrap();
        mem.write_u32(pte_hpa, 0x6000 | pte::P | pte::W | pte::US);
        let root_b = build_guest_pt_at(
            &mut mem,
            &ms,
            0x20_000,
            0x21_000,
            0x7000,
            pte::P | pte::W | pte::US,
        );
        let mut vmcs = vmcs_for(&cache);
        vmcs.guest.cr0 = cr0::PE | cr0::PG;

        mov_cr3(&mut mem, &mut alloc, &ms, &mut cache, &mut vmcs, root_a);
        for gva in [0x40_0000u32, 0x40_1000] {
            handle_page_fault(
                &mut mem,
                &mut alloc,
                &ms,
                &mut cache,
                &vmcs,
                gva,
                pf_err::WRITE,
            );
        }
        mov_cr3(&mut mem, &mut alloc, &ms, &mut cache, &mut vmcs, root_b);

        // While B runs, the guest repoints A's first PTE to 0x8000.
        let pte_hpa = ms.translate(0x11_000u64).unwrap();
        mem.write_u32(pte_hpa, 0x8000 | pte::P | pte::W | pte::US);

        // Reactivating A is still a hit, but the changed entry is gone
        // while the untouched neighbour survived.
        let out = mov_cr3(&mut mem, &mut alloc, &ms, &mut cache, &mut vmcs, root_a);
        assert_eq!(
            out,
            CrOutcome::Switch {
                hit: true,
                evicted: false
            }
        );
        assert!(
            shadow_walk(&mem, &cache, 0x40_0000, nova_x86::paging::Access::READ).is_err(),
            "changed entry resynchronized away"
        );
        assert_eq!(
            shadow_walk(&mem, &cache, 0x40_1000, nova_x86::paging::Access::READ).unwrap(),
            (4 << 20) + 0x6000,
            "unchanged entry kept"
        );
        // The queued TLB ops cover the dropped page.
        let ops = cache.take_tlb_ops();
        assert!(ops
            .iter()
            .any(|o| matches!(o, TlbOp::Invl { gva: 0x40_0000, .. } | TlbOp::FlushVpid(_))));
    }

    #[test]
    fn lru_eviction_under_bounded_cache() {
        let (mut mem, mut alloc, ms, mut cache) = setup_slots(2);
        let roots: Vec<u32> = (0..3)
            .map(|i| {
                build_guest_pt_at(
                    &mut mem,
                    &ms,
                    0x30_000 + i * 0x2000,
                    0x31_000 + i * 0x2000,
                    0x5000,
                    pte::P | pte::W | pte::US,
                )
            })
            .collect();
        let mut vmcs = vmcs_for(&cache);
        vmcs.guest.cr0 = cr0::PE | cr0::PG;

        assert_eq!(
            mov_cr3(&mut mem, &mut alloc, &ms, &mut cache, &mut vmcs, roots[0]),
            CrOutcome::Switch {
                hit: false,
                evicted: false
            }
        );
        assert_eq!(
            mov_cr3(&mut mem, &mut alloc, &ms, &mut cache, &mut vmcs, roots[1]),
            CrOutcome::Switch {
                hit: false,
                evicted: false
            }
        );
        let cached = |c: &ShadowCache| c.slots.iter().filter(|s| s.tag.is_some()).count();
        assert_eq!(cached(&cache), 2);
        // Third space evicts the LRU (roots[0]).
        assert_eq!(
            mov_cr3(&mut mem, &mut alloc, &ms, &mut cache, &mut vmcs, roots[2]),
            CrOutcome::Switch {
                hit: false,
                evicted: true
            }
        );
        assert_eq!(cached(&cache), 2, "bounded");
        // roots[1] is still cached; roots[0] was the victim.
        assert_eq!(
            mov_cr3(&mut mem, &mut alloc, &ms, &mut cache, &mut vmcs, roots[1]),
            CrOutcome::Switch {
                hit: true,
                evicted: false
            }
        );
        assert_eq!(
            mov_cr3(&mut mem, &mut alloc, &ms, &mut cache, &mut vmcs, roots[0]),
            CrOutcome::Switch {
                hit: false,
                evicted: true
            }
        );
    }

    #[test]
    fn eviction_recycles_frames_to_the_allocator() {
        let (mut mem, mut alloc, ms, mut cache) = setup_slots(1);
        let root_a = build_guest_pt(&mut mem, &ms, true);
        let root_b = build_guest_pt_at(
            &mut mem,
            &ms,
            0x20_000,
            0x21_000,
            0x7000,
            pte::P | pte::W | pte::US,
        );
        let mut vmcs = vmcs_for(&cache);
        vmcs.guest.cr0 = cr0::PE | cr0::PG;

        mov_cr3(&mut mem, &mut alloc, &ms, &mut cache, &mut vmcs, root_a);
        handle_page_fault(
            &mut mem,
            &mut alloc,
            &ms,
            &mut cache,
            &vmcs,
            0x40_0000,
            pf_err::WRITE,
        );
        let allocated = alloc.allocated;
        // Evict A (single slot), enter B, fill: the sub-table frame
        // must come back from the global free list, not fresh memory.
        let free_before = alloc.available();
        mov_cr3(&mut mem, &mut alloc, &ms, &mut cache, &mut vmcs, root_b);
        assert!(alloc.available() >= free_before, "frames released");
        handle_page_fault(
            &mut mem,
            &mut alloc,
            &ms,
            &mut cache,
            &vmcs,
            0x40_0000,
            pf_err::WRITE,
        );
        assert_eq!(
            alloc.allocated,
            allocated + 1,
            "refill reused the released frame via the allocator free list"
        );
    }

    #[test]
    fn cr0_ts_toggle_keeps_the_cache() {
        let (mut mem, mut alloc, ms, mut cache) = setup();
        let groot = build_guest_pt(&mut mem, &ms, true);
        let mut vmcs = vmcs_for(&cache);
        vmcs.guest.cr0 = cr0::PE | cr0::PG;
        mov_cr3(&mut mem, &mut alloc, &ms, &mut cache, &mut vmcs, groot);
        handle_page_fault(
            &mut mem,
            &mut alloc,
            &ms,
            &mut cache,
            &vmcs,
            0x40_0000,
            pf_err::WRITE,
        );

        // Lazy-FPU CR0.TS/MP churn must not cost a shadow rebuild.
        vmcs.guest
            .set(nova_x86::Reg::Ecx, cr0::PE | cr0::PG | cr0::TS | cr0::MP);
        let out = handle_cr_access(
            &mut mem,
            &mut alloc,
            &ms,
            &mut cache,
            &mut vmcs,
            0,
            true,
            nova_x86::Reg::Ecx,
            3,
        );
        assert_eq!(out, CrOutcome::None);
        assert_eq!(vmcs.guest.cr0, cr0::PE | cr0::PG | cr0::TS | cr0::MP);
        assert!(
            shadow_walk(&mem, &cache, 0x40_0000, nova_x86::paging::Access::WRITE).is_ok(),
            "shadow survived a non-paging CR0 write"
        );
    }

    #[test]
    fn paging_relevant_cr_toggle_drops_the_cache() {
        let (mut mem, mut alloc, ms, mut cache) = setup();
        let groot = build_guest_pt(&mut mem, &ms, true);
        let mut vmcs = vmcs_for(&cache);
        vmcs.guest.cr0 = cr0::PE | cr0::PG;
        mov_cr3(&mut mem, &mut alloc, &ms, &mut cache, &mut vmcs, groot);
        handle_page_fault(
            &mut mem,
            &mut alloc,
            &ms,
            &mut cache,
            &vmcs,
            0x40_0000,
            pf_err::WRITE,
        );

        // Setting CR0.WP changes what every cached W bit means.
        vmcs.guest
            .set(nova_x86::Reg::Ecx, cr0::PE | cr0::PG | cr0::WP);
        let out = handle_cr_access(
            &mut mem,
            &mut alloc,
            &ms,
            &mut cache,
            &mut vmcs,
            0,
            true,
            nova_x86::Reg::Ecx,
            3,
        );
        assert_eq!(out, CrOutcome::Flush);
        assert!(
            shadow_walk(&mem, &cache, 0x40_0000, nova_x86::paging::Access::READ).is_err(),
            "cache dropped on WP toggle"
        );
    }

    #[test]
    fn legacy_mode_flushes_on_every_cr3_write() {
        let (mut mem, mut alloc, ms, _) = setup();
        let mut cache = ShadowCache::legacy(&mut mem, &mut alloc, 1);
        let groot = build_guest_pt(&mut mem, &ms, true);
        let mut vmcs = vmcs_for(&cache);
        vmcs.guest.cr3 = groot;
        vmcs.guest.cr0 = cr0::PE | cr0::PG;
        handle_page_fault(&mut mem, &mut alloc, &ms, &mut cache, &vmcs, 0x40_0000, 0);

        let eip = vmcs.guest.eip;
        let out = mov_cr3(&mut mem, &mut alloc, &ms, &mut cache, &mut vmcs, 0x20_000);
        assert_eq!(out, CrOutcome::Flush);
        assert_eq!(vmcs.guest.cr3, 0x20_000);
        assert_eq!(vmcs.guest.eip, eip + 3, "instruction skipped");
        assert!(
            shadow_walk(&mem, &cache, 0x40_0000, nova_x86::paging::Access::READ).is_err(),
            "legacy mode drops the shadow on address-space switch"
        );
    }

    #[test]
    fn cr_read_returns_virtual_value() {
        let (mut mem, mut alloc, ms, mut cache) = setup();
        let mut vmcs = vmcs_for(&cache);
        vmcs.guest.cr3 = 0xabc000;
        let out = handle_cr_access(
            &mut mem,
            &mut alloc,
            &ms,
            &mut cache,
            &mut vmcs,
            3,
            false,
            nova_x86::Reg::Ebx,
            3,
        );
        assert_eq!(out, CrOutcome::None);
        assert_eq!(vmcs.guest.get(nova_x86::Reg::Ebx), 0xabc000);
    }

    #[test]
    fn invlpg_drops_single_entry() {
        let (mut mem, mut alloc, ms, mut cache) = setup();
        let groot = build_guest_pt(&mut mem, &ms, true);
        let mut vmcs = vmcs_for(&cache);
        vmcs.guest.cr3 = groot;
        vmcs.guest.cr0 = cr0::PE | cr0::PG;
        handle_page_fault(&mut mem, &mut alloc, &ms, &mut cache, &vmcs, 0x40_0000, 0);
        handle_invlpg(&mut mem, &mut cache, &mut vmcs, 0x40_0000, 3);
        assert!(shadow_walk(&mem, &cache, 0x40_0000, nova_x86::paging::Access::READ).is_err());
    }

    #[test]
    fn untagged_cache_queues_full_flush_per_switch() {
        let (mut mem, mut alloc, ms, _) = setup();
        let mut cache = ShadowCache::new(&mut mem, &mut alloc, 4, 0);
        let groot = build_guest_pt(&mut mem, &ms, true);
        let mut vmcs = vmcs_for(&cache);
        vmcs.guest.cr0 = cr0::PE | cr0::PG;
        mov_cr3(&mut mem, &mut alloc, &ms, &mut cache, &mut vmcs, groot);
        assert!(
            cache.take_tlb_ops().contains(&TlbOp::FlushAll),
            "without VPIDs, mov cr3 must flush the hardware TLB"
        );
    }
}
