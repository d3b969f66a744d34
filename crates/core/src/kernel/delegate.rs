//! Delegation and recursive revocation of memory, I/O ports and
//! capabilities, mirrored into the nested tables and the IOMMU;
//! domain teardown; and [`Kernel::check_invariants`], the rule the
//! mapping databases are kept by (Sections 4.1, 6).

use std::collections::BTreeSet;

use nova_hw::iommu::Iommu;
use nova_x86::paging::PAGE_SIZE;

use super::{port_range, Kernel, MAX_RANGE_PAGES};
use crate::cap::{CapSel, Capability, Perms};
use crate::hostpt::uniform_chunk;
use crate::hypercall::HcErr;
use crate::obj::{EcId, MemMapping, MemRights, Pd, PdId, LEAF_ENTRIES};

impl Kernel {
    pub(super) fn delegate_mem(
        &mut self,
        from: PdId,
        to: PdId,
        base: u64,
        count: u64,
        rights: MemRights,
        hot: u64,
    ) -> Result<(), HcErr> {
        self.live(to)?;
        // Hostile ranges: a count that wraps the page-number space (or
        // one sized to stall the kernel walking it) is a parameter
        // error, not a loop. Nor may pages run past what the receiver
        // reaches: a VM's nested table (past it they would be mirrored
        // at a truncated guest-physical address), any space the pages a
        // byte address can name.
        let reach = self.nested.get(&to).map(|t| t.fmt);
        let reach = reach.map_or(u64::MAX, |f| f.page_size_at(f.levels())) / PAGE_SIZE as u64;
        if count > MAX_RANGE_PAGES
            || base.checked_add(count).is_none()
            || hot.checked_add(count).is_none_or(|end| end > reach)
        {
            return Err(HcErr::BadParam);
        }
        // Validate ownership of the entire range first: the source is
        // held in `from`'s space (the database is not asked), and the
        // destination pages are free — whichever fails first, page by
        // page, names the error.
        let src = &self.obj.pd(from).mem;
        let hole = src.slices(base, count).flatten().position(Option::is_none);
        let hole = hole.map(|h| h as u64);
        let dst = self.obj.pd(to).mem.slices(hot, hole.unwrap_or(count));
        if dst.flatten().any(Option::is_some) {
            return Err(HcErr::BadParam);
        }
        if hole.is_some() {
            return Err(HcErr::NotOwner);
        }
        // One record for the range, cut where the source's nodes are.
        self.mem_db
            .delegate_range((from.0, base), (to.0, hot), count);
        // A source leaf at a time. Every source page is mapped and no
        // destination page is, so the two ranges are disjoint even
        // within one space: nothing mapped below can have taken a
        // source page away.
        let mut done = 0;
        while done < count {
            let mut run = [None; LEAF_ENTRIES];
            let src = &self.obj.pd(from).mem;
            let src = src
                .slices(base + done, count - done)
                .next()
                .expect("pages left");
            run[..src.len()].copy_from_slice(src);
            let n = src.len() as u64;
            self.obj.pd_mut(to).mem.map_run(hot + done, n, |i| {
                let src = run[i as usize].expect("source range validated above");
                MemMapping {
                    rights: src.rights.mask(rights),
                    ..src
                }
            });
            done += n;
        }
        // IOMMU: devices assigned to the receiver see its DMA pages.
        let to_pd = self.obj.pd(to);
        if !to_pd.devices.is_empty() {
            let held = (hot..).zip(to_pd.mem.slices(hot, count).flatten());
            let held = held.map(|(p, m)| (p, m.expect("mapped above")));
            map_dma(&mut self.machine.bus.iommu, &to_pd.devices, held);
        }
        // Mirror into the VM's nested table, using large host pages
        // for aligned physically-contiguous runs when enabled. A
        // delegation's destination pages were free, so no large leaf
        // stands over them.
        if let Some(table) = self.nested.get_mut(&to) {
            let d = &self.obj.pds[to.0 as usize];
            let (mem, alloc) = (&mut self.machine.mem, &mut self.alloc);
            table.mirror(mem, alloc, &d.mem, (hot, count), d.large_pages);
        }
        Ok(())
    }

    pub(super) fn delegate_io(
        &mut self,
        from: PdId,
        to: PdId,
        base: u16,
        count: u16,
    ) -> Result<(), HcErr> {
        self.live(to)?;
        if !port_range(base, count)?.all(|p| self.obj.pd(from).io.allowed(p as u16)) {
            return Err(HcErr::NotOwner);
        }
        self.obj.pd_mut(to).io.grant_range(base, count.into());
        self.io_db
            .delegate_range((from.0, base), (to.0, base), count.into());
        Ok(())
    }

    pub(super) fn delegate_cap(
        &mut self,
        from: PdId,
        to: PdId,
        sel: CapSel,
        perms: Perms,
        hot: CapSel,
    ) -> Result<(), HcErr> {
        self.live(to)?;
        let cap = self.obj.pd(from).caps.get(sel).ok_or(HcErr::BadCap)?;
        if !cap.perms.allows(Perms::DELEGATE) {
            return Err(HcErr::BadPerm);
        }
        let reduced = Capability {
            obj: cap.obj,
            perms: cap.perms.mask(perms),
        };
        self.obj.pd_mut(to).caps.set(hot, reduced);
        // A selector may be reused; drop any stale tree first.
        let (sel, hot) = (sel as u64, hot as u64);
        self.cap_db.revoke((to.0, hot), true, &mut |_| {});
        self.cap_db.delegate((from.0, sel), (to.0, hot));
        Ok(())
    }

    /// Revokes `owner`'s delegations of each `(base, count)` page range
    /// of `ranges` (and its own mappings with `include_self`): the
    /// database gives up whole ranges, and each one leaves its space,
    /// IOMMU and nested table in ascending order — a nested table's
    /// chunk at a time, so a large leaf over a chunk the range covers
    /// whole goes at once and one over a chunk it covers in part is
    /// splintered. Then the TLBs of every VM that lost a page are shot
    /// down — once, after all of it: nothing runs a guest in between,
    /// and in `PdId` order, so a seed's flush sequence does not depend
    /// on a map's.
    pub(super) fn revoke_mem_ranges(
        &mut self,
        owner: PdId,
        ranges: &[(u64, u64)],
        include_self: bool,
    ) {
        let mut removed: Vec<((u32, u64), u64)> = Vec::new();
        for &(base, count) in ranges {
            self.mem_db
                .revoke_range((owner.0, base), count, include_self, &mut removed);
        }
        let mut affected_vms: BTreeSet<PdId> = BTreeSet::new();
        for ((pd_idx, base), count) in removed {
            let pd = PdId(pd_idx);
            // A nested table's chunk at a time; the whole range at once
            // for a space without one.
            let cp = self
                .nested
                .get(&pd)
                .map(|t| t.fmt.large_page_size() / PAGE_SIZE as u64);
            let (mut at, end) = (base, base + count);
            while at < end {
                let n = cp.map_or(end, |cp| (at - at % cp + cp).min(end)) - at;
                if self.unmap_pages(pd, at, n) && self.obj.pd(pd).is_vm() {
                    affected_vms.insert(pd);
                }
                at += n;
            }
        }
        for pd in affected_vms {
            self.flush_vm_tlbs(pd);
        }
    }

    /// Unmaps the `n` pages from `at` — inside one chunk of `pd`'s
    /// nested table, if it has one — from `pd`'s space, and each one
    /// removed from its devices' IOMMU domains and from the nested
    /// table. A large leaf over the chunk goes first: a chunk the pages
    /// cover whole has no leaf left to clear, one they cover in part is
    /// splintered — its other pages are mapped again at 4 KB. `true` if
    /// anything was mapped.
    fn unmap_pages(&mut self, pd: PdId, at: u64, n: u64) -> bool {
        let (obj, machine) = (&mut self.obj, &mut self.machine);
        let Pd { mem, devices, .. } = obj.pd_mut(pd);
        let mut table = self.nested.get_mut(&pd);
        if let Some(t) = table.as_deref_mut() {
            let cp = t.fmt.large_page_size() / PAGE_SIZE as u64;
            let chunk = at - at % cp;
            if t.is_large(&machine.mem, chunk * PAGE_SIZE as u64) {
                t.unmap_page(&mut machine.mem, chunk * PAGE_SIZE as u64);
                let held = (chunk..).zip(mem.slices(chunk, cp).flatten());
                for (p, m) in held.filter(|(p, _)| !(at..at + n).contains(p)) {
                    let Some(m) = m else { continue };
                    let (gpa, w) = (p * PAGE_SIZE as u64, m.rights.write);
                    let mapped = t.map_page(&mut machine.mem, &mut self.alloc, gpa, m.hpa, w);
                    mapped.expect("the large leaf is gone");
                }
                table = None;
            }
        }
        let mut any = false;
        mem.unmap_run(at, n, |page, _| {
            any = true;
            let gpa = page * PAGE_SIZE as u64;
            for &dev in devices.iter() {
                machine.bus.iommu.unmap_page(dev, gpa);
            }
            if let Some(t) = table.as_deref_mut() {
                t.unmap_page(&mut machine.mem, gpa);
            }
        });
        any
    }

    fn flush_vm_tlbs(&mut self, pd: PdId) {
        let vcpus = self.obj.pd(pd).vcpus.clone();
        for ec in vcpus {
            let cpu = self.obj.ec(ec).cpu;
            // A shadow-paging vCPU owns one VPID per cached address
            // space; every one of them must go.
            if let Some(cache) = self.shadows.get(&ec) {
                let vpids = cache.vpids();
                self.machine.cpus[cpu].tlb.flush_vpids(vpids);
                continue;
            }
            let vpid = self.obj.ec(ec).vmcs().map(|v| v.vpid).unwrap_or(0);
            if vpid == 0 {
                self.machine.cpus[cpu].tlb.flush_all();
            } else {
                self.machine.cpus[cpu].tlb.flush_vpid(vpid);
            }
        }
    }

    /// [`Kernel::revoke_mem_ranges`] for ports: `(base, count)` ranges
    /// of `owner`'s port space, which may end at `0x10000`.
    pub(super) fn revoke_io_ranges(
        &mut self,
        owner: PdId,
        ranges: &[(u64, u64)],
        include_self: bool,
    ) {
        let mut removed: Vec<((u32, u16), u64)> = Vec::new();
        for &(base, count) in ranges {
            self.io_db
                .revoke_range((owner.0, base as u16), count, include_self, &mut removed);
        }
        for ((pd_idx, base), count) in removed {
            for p in u64::from(base)..u64::from(base) + count {
                self.obj.pd_mut(PdId(pd_idx)).io.revoke(p as u16);
            }
        }
    }

    pub(super) fn revoke_cap(&mut self, owner: PdId, sel: CapSel, include_self: bool) {
        let mut removed: Vec<((u32, u64), u64)> = Vec::new();
        self.cap_db
            .revoke_range((owner.0, sel as u64), 1, include_self, &mut removed);
        // One selector's revocation removes one-selector ranges.
        for ((pd_idx, s), _) in removed {
            self.obj.pd_mut(PdId(pd_idx)).caps.remove(s as CapSel);
        }
    }

    /// Nodes in the memory, I/O-port and capability mapping databases.
    pub fn mapdb_nodes(&self) -> (usize, usize, usize) {
        (self.mem_db.len(), self.io_db.len(), self.cap_db.len())
    }

    /// Checks the delegation state against the rule it is kept by —
    /// spaces hold, the mapping databases derive — at a quiescent
    /// point (between hypercalls).
    ///
    /// 1. Every page, port and selector a node of a domain covers is
    ///    held in that domain's space; a destroyed domain holds nothing
    ///    and no node names it.
    /// 2. Each database is a forest of ranges: no node is empty and an
    ///    owner's nodes do not overlap; every child is listed under its
    ///    parent, every listed child exists with that parent, and each
    ///    is derived from keys one node of the parent covers; nothing
    ///    loops.
    /// 3. Every page and port held by a domain other than root lies in
    ///    a node with a parent: memory and ports only ever arrive by
    ///    delegation. (Capabilities are also made by the kernel, for
    ///    the creator of an object.)
    /// 4. Each page of a memory node maps the frame the matching page
    ///    of its parent maps, with no right the parent lacks.
    /// 5. The hardware tables hold nothing the space does not: each 4 KB
    ///    nested leaf maps the space's frame with write rights no wider;
    ///    a large leaf stands only over a chunk whose pages one leaf can
    ///    stand for; the nested table's frames
    ///    are the frames its root reaches (none leaked); each assigned
    ///    device's IOMMU context maps only pages held with `dma`.
    /// 6. Every queued SC sits in the run-queue class of its own
    ///    priority on its EC's CPU, as often as the side map says.
    /// 7. Every `vcpus[i]` of a domain is a vCPU EC of it with
    ///    `vcpu_index == Some(i)`, and every vCPU EC is listed so; no
    ///    vCPU, and no EC of a destroyed domain, runs a component, and
    ///    the latter hold no activation.
    ///
    /// The first violation found is described in the error.
    pub fn check_invariants(&self) -> Result<(), String> {
        self.mem_db
            .check_links()
            .map_err(|e| format!("mem_db: {e}"))?;
        self.io_db
            .check_links()
            .map_err(|e| format!("io_db: {e}"))?;
        self.cap_db
            .check_links()
            .map_err(|e| format!("cap_db: {e}"))?;

        let pd_of = |pd: u32| {
            self.obj
                .pds
                .get(pd as usize)
                .ok_or(format!("a node names pd {pd}"))
        };
        // Straight from the radix leaves: a checker neither trusts nor
        // disturbs the translation cache.
        for ((pd, base), len, parent) in self.mem_db.iter() {
            let d = pd_of(pd)?;
            let from = parent.map(|(p, pbase)| pd_of(p).map(|p| p.mem.slices(pbase, len)));
            let mut from = from.transpose()?.into_iter().flatten().flatten();
            for (page, m) in (base..).zip(d.mem.slices(base, len).flatten()) {
                let Some(m) = m else {
                    return Err(format!("mem_db: {} does not map page {page:#x}", d.name));
                };
                // The parent's own holding is this loop's business when
                // it comes round to the parent.
                let Some(pm) = from.next().copied().flatten() else {
                    continue;
                };
                if m.hpa != pm.hpa || m.rights.mask(pm.rights) != m.rights {
                    return Err(format!(
                        "mem_db: {} page {page:#x} is {m:?}, derived from {pm:?}",
                        d.name
                    ));
                }
            }
        }
        for ((pd, base), len, _) in self.io_db.iter() {
            let d = pd_of(pd)?;
            let ports = u64::from(base)..u64::from(base) + len;
            if let Some(port) = ports.into_iter().find(|&p| !d.io.allowed(p as u16)) {
                return Err(format!("io_db: pd {pd} does not hold port {port:#x}"));
            }
        }
        for ((pd, base), len, _) in self.cap_db.iter() {
            let d = pd_of(pd)?;
            if let Some(sel) = (base..base + len).find(|&s| d.caps.get(s as CapSel).is_none()) {
                return Err(format!("cap_db: pd {pd} does not hold selector {sel:#x}"));
            }
        }

        for (pd, d) in (0..).zip(&self.obj.pds) {
            if d.dying && (d.mem.count(), d.io.count(), d.caps.count()) != (0, 0, 0) {
                // With the clauses above: no node names it either.
                return Err(format!(
                    "{} was destroyed and still holds something",
                    d.name
                ));
            }
            self.check_hw_tables(PdId(pd))
                .map_err(|e| format!("{}: {e}", d.name))?;
            if PdId(pd) == self.root_pd {
                continue;
            }
            if let Some((page, _)) = d
                .mem
                .iter()
                .find(|(p, _)| self.mem_db.parent((pd, *p)).is_none())
            {
                return Err(format!("{} maps page {page:#x} underived", d.name));
            }
            if let Some(port) = d.io.iter().find(|p| self.io_db.parent((pd, *p)).is_none()) {
                return Err(format!("{} holds port {port:#x} underived", d.name));
            }
        }
        // 6. The run queues.
        for cpu in 0..self.sched.cpus() {
            for (class, sc) in self.sched.cpu_ref(cpu).occurrences()? {
                let s = self.obj.sc(sc);
                let at = (s.prio, self.obj.ec(s.ec).cpu);
                if (class, cpu) != at {
                    return Err(format!(
                        "{sc:?} is queued at {class} on cpu {cpu}, not {at:?}"
                    ));
                }
            }
        }
        // 7. Each EC against its domain's lists.
        for (id, ec) in (0..=u16::MAX).zip(&self.obj.ecs) {
            let (d, vcpu, i) = (self.obj.pd(ec.pd), ec.vmcs().is_some(), ec.vcpu_index);
            let listed = i.map(|i| d.vcpus.get(i) == Some(&EcId(id)));
            let runs = ec.comp.is_some() || !ec.activations.is_empty();
            if listed != vcpu.then_some(true) || (runs && (vcpu || d.dying)) {
                let name = &d.name;
                return Err(format!(
                    "EC {id} of {name}: vCPU {vcpu}, index {i:?}, runs {runs}"
                ));
            }
        }
        for (pd, d) in (0..).zip(&self.obj.pds) {
            for (i, v) in d.vcpus.iter().enumerate() {
                let ec = self.obj.ecs.get(v.0 as usize);
                if !ec.is_some_and(|e| e.pd == PdId(pd) && e.vcpu_index == Some(i)) {
                    return Err(format!("vCPU {i} of {} is {v:?}", d.name));
                }
            }
        }
        Ok(())
    }

    /// Clause 5 of [`Kernel::check_invariants`] for `pd`: its nested
    /// table and the IOMMU contexts of its devices hold nothing its
    /// space does not. A large leaf is held to [`uniform_chunk`], the
    /// rule that made it: every page mapped, the frames consecutive
    /// from the leaf's, one write right no narrower than the leaf's.
    fn check_hw_tables(&self, pd: PdId) -> Result<(), String> {
        let ms = &self.obj.pd(pd).mem;
        let held = |page: u64| ms.slices(page, 1).next().and_then(|s| s[0]);
        if let Some(t) = self.nested.get(&pd) {
            let cp = t.fmt.large_page_size() / PAGE_SIZE as u64;
            let mut bad = None;
            let mut tables = t.leaves(&self.machine.mem, |gpa, level, e| {
                let fits = |m: MemMapping| m.hpa == e.next && m.rights.write >= e.write;
                let page = gpa / PAGE_SIZE as u64;
                let ok = match level {
                    0 => held(page).is_some_and(fits),
                    _ => uniform_chunk(ms, page, cp).is_some_and(fits),
                };
                let what = || format!("nested leaf at level {level} over {gpa:#x} is {e:?}");
                bad = bad.take().or_else(|| (!ok).then(what));
            });
            bad.map_or(Ok(()), Err)?;
            let mut frames = t.frames().to_vec();
            frames.sort_unstable();
            tables.sort_unstable();
            if frames != tables {
                return Err(format!("nested frames {frames:x?}, reached {tables:x?}"));
            }
        }
        for &dev in &self.obj.pd(pd).devices {
            let mappings = self.machine.bus.iommu.mappings(dev);
            for (bus, hpa, write) in mappings.ok_or(format!("device {dev} reaches everything"))? {
                let m = held(bus / PAGE_SIZE as u64);
                if !m.is_some_and(|m| m.rights.dma && m.hpa == hpa && m.rights.write >= write) {
                    return Err(format!(
                        "device {dev} maps {bus:#x} to {hpa:#x}, held {m:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Destroys a protection domain: the teardown path behind the
    /// creator's destroy capability (Section 6). Every resource the
    /// domain held — and everything it delegated onward — is revoked;
    /// its execution contexts stop being schedulable; its hardware
    /// tables and IOMMU domains are dismantled.
    pub(super) fn destroy_pd(&mut self, pd: PdId) {
        if self.obj.pd(pd).dying {
            return;
        }
        self.obj.pd_mut(pd).dying = true;

        // Memory: revoke each run of owned pages (children included).
        let pages = runs(self.obj.pd(pd).mem.iter().map(|(p, _)| p));
        self.revoke_mem_ranges(pd, &pages, true);
        // Every unmap above already bumped the generation; this makes
        // the cold-cache contract explicit for teardown.
        self.obj.pd_mut(pd).mem.invalidate_cache();
        // I/O ports, run by run.
        let ports = runs(self.obj.pd(pd).io.iter().map(u64::from));
        self.revoke_io_ranges(pd, &ports, true);
        // Capabilities (and everything delegated from them).
        let sels: Vec<CapSel> = self.obj.pd(pd).caps.iter().map(|(s, _)| s).collect();
        for sel in sels {
            self.revoke_cap(pd, sel, true);
        }

        // Execution contexts: stopped, and no component runs as one
        // again.
        let ecs = self.stop_ecs(pd);
        for &ec in &ecs {
            self.obj.ec_mut(ec).comp = None;
        }
        // Interrupt routes into the dead domain revert to root, so
        // the supervisor can re-grant them to a restarted driver.
        let root = self.root_pd;
        for owner in self.gsi_owner.values_mut() {
            if *owner == pd {
                *owner = root;
            }
        }
        // Watchdogs on the dead domain are gone with it.
        self.watchdogs.retain(|w| w.pd != pd);

        // Hardware teardown: nested tables back to the frame pool,
        // IOMMU domains dropped.
        if let Some(table) = self.nested.remove(&pd) {
            for f in table.frames() {
                self.alloc.release(*f);
            }
        }
        for ec in &ecs {
            if let Some(mut cache) = self.shadows.remove(ec) {
                // Sub-table frames go back to the pool with the domain.
                cache.release_all(&mut self.machine.mem, &mut self.alloc);
            }
        }
        let devices = std::mem::take(&mut self.obj.pd_mut(pd).devices);
        for dev in devices {
            self.machine.bus.iommu.clear_device(dev);
        }
        self.flush_vm_tlbs(pd);
    }
}

/// Ascending `keys` as `(base, count)` runs of consecutive keys.
fn runs(keys: impl Iterator<Item = u64>) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for k in keys {
        match out.last_mut() {
            Some((base, count)) if *base + *count == k => *count += 1,
            _ => out.push((k, 1)),
        }
    }
    out
}

/// Maps each `(page, mapping)` of `held` with `dma` rights into the
/// IOMMU domain of each of `devices`, a page at a time.
pub(super) fn map_dma(
    iommu: &mut Iommu,
    devices: &[usize],
    held: impl Iterator<Item = (u64, MemMapping)>,
) {
    for (page, m) in held.filter(|(_, m)| m.rights.dma) {
        for &dev in devices {
            iommu.map_page(dev, page * PAGE_SIZE as u64, m.hpa, m.rights.write);
        }
    }
}
