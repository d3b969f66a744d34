//! The hypercall dispatcher: every [`Hypercall`] a component issues
//! is checked against the caller's capabilities here and handed to the
//! mechanism that carries it out (Section 4.1).

use std::collections::VecDeque;

use nova_hw::vmx::{PagingVirt, Vmcs};

use super::delegate::map_dma;
use super::{
    port_range, CompCtx, Kernel, KernelTimer, TraceKind, Watchdog, MAX_PERIOD, MAX_RANGE_PAGES,
    MAX_SEL,
};
use crate::cap::{CapSel, Perms};
use crate::hostpt::NestedTable;
use crate::hypercall::{HcErr, HcReply, Hypercall};
use crate::obj::{Ec, EcId, EcKind, ObjRef, Pd, Portal, Sc, Semaphore, SmId, VmPaging, MAX_ECS};
use crate::utcb::Utcb;
use crate::vtlb::ShadowCache;

impl Kernel {
    /// `SmBind` for a component that keeps the semaphore's identity to
    /// recognise its signals by: binds the calling EC to the semaphore
    /// at `sel` and returns the id the caller's own capability names.
    pub fn bind_sm(&mut self, ctx: CompCtx, sel: CapSel) -> Result<SmId, HcErr> {
        self.hypercall(ctx, Hypercall::SmBind { sm: sel })?;
        self.lookup_sm(ctx.pd, sel, Perms::DOWN)
    }

    /// `CreateSm` (count 0) at `dst`, then [`Kernel::bind_sm`].
    pub fn create_bound_sm(&mut self, ctx: CompCtx, dst: CapSel) -> Result<SmId, HcErr> {
        self.hypercall(ctx, Hypercall::CreateSm { count: 0, dst })?;
        self.bind_sm(ctx, dst)
    }

    /// Executes a hypercall on behalf of `ctx`. Charges the
    /// user/kernel boundary crossing.
    pub fn hypercall(&mut self, ctx: CompCtx, hc: Hypercall) -> Result<HcReply, HcErr> {
        self.counters.hypercalls += 1;
        // A hypercall arriving outside any request window (no current
        // context) is itself a request origin; one arriving inside a
        // window (e.g. from the VMM while it services an exit) stays
        // on the originating request's context.
        if self.machine.bus.trace.current_ctx() == nova_trace::CTX_NONE {
            self.machine.bus.trace.alloc_ctx();
        }
        self.trace_emit(ctx.pd.0 as u16, TraceKind::Hypercall, hc.number());
        // Any hypercall is a sign of life for watchdogs on the caller.
        self.watchdog_stamp(ctx.pd);
        let ee = self.machine.cost.syscall_entry_exit;
        self.charge_as(TraceKind::CostKernel, ee);
        let caller = ctx.pd;
        if let Hypercall::CreatePd { dst, .. }
        | Hypercall::CreateEc { dst, .. }
        | Hypercall::CreateSc { dst, .. }
        | Hypercall::CreatePt { dst, .. }
        | Hypercall::CreateSm { dst, .. }
        | Hypercall::DelegateCap { hot: dst, .. } = &hc
        {
            if *dst >= MAX_SEL {
                return Err(HcErr::BadParam);
            }
        }
        match hc {
            Hypercall::CreatePd { name, vm, dst } => {
                self.charge_quota(caller)?;
                let mut pd = Pd::new(name);
                pd.vm_paging = vm;
                pd.large_pages = self.config.host_large_pages;
                let id = self.obj.add_pd(pd);
                if let Some(VmPaging::Nested(fmt)) = vm {
                    let t = NestedTable::new(fmt, &mut self.alloc, &mut self.machine.mem);
                    self.obj.pd_mut(id).nested_root = Some(t.root);
                    self.nested.insert(id, t);
                }
                self.install_cap(caller, dst, ObjRef::Pd(id));
                Ok(HcReply::Ok)
            }
            Hypercall::DestroyPd { pd } => {
                let target = self.lookup_pd(caller, pd, Perms::CTRL)?;
                if target == self.root_pd {
                    return Err(HcErr::BadParam);
                }
                self.destroy_pd(target);
                Ok(HcReply::Ok)
            }
            Hypercall::CreateEc { pd, vcpu, cpu, dst } => {
                let target = self.live(self.lookup_pd(caller, pd, Perms::CTRL)?)?;
                if cpu >= self.machine.cpus.len() {
                    return Err(HcErr::BadParam);
                }
                // Validated before the quota is charged: a rejected
                // call leaves nothing behind. A vCPU runs in a VM, and
                // under nested paging it starts on the table's root.
                let nested = match self.obj.pd(target).vm_paging {
                    _ if !vcpu => None,
                    None => return Err(HcErr::BadParam),
                    Some(VmPaging::Nested(fmt)) => {
                        let root = self.obj.pd(target).nested_root.ok_or(HcErr::BadParam)?;
                        Some(PagingVirt::Nested { root, fmt })
                    }
                    Some(VmPaging::Shadow) => None,
                };
                // EC ids are 16 bits: a full table refuses as a full
                // quota does.
                if self.obj.ecs.len() >= MAX_ECS {
                    return Err(HcErr::QuotaExceeded);
                }
                self.charge_quota(caller)?;
                let kind = if vcpu {
                    // Each cached shadow space owns its own TLB tag, so a
                    // shadow-paging vCPU claims a consecutive block of
                    // VPIDs.
                    let slots = self.config.vtlb_cache_slots;
                    let span = nested.map_or(ShadowCache::vpid_span(slots), |_| 1);
                    let mut vpid = 0;
                    if self.config.use_tags && self.machine.cost.has_tagged_tlb {
                        vpid = self.next_vpid;
                        self.next_vpid += span;
                    }
                    let vmcs = match nested {
                        Some(paging) => Box::new(Vmcs::new(paging, vpid)),
                        None => {
                            let (mem, alloc) = (&mut self.machine.mem, &mut self.alloc);
                            let cache = ShadowCache::new(mem, alloc, slots, vpid);
                            let (root, vpid) = (cache.active_root(), cache.active_vpid());
                            // Stashed under the id of the EC about to be
                            // created.
                            self.shadows.insert(EcId(self.obj.ecs.len() as u16), cache);
                            Box::new(Vmcs::new_shadow(root, vpid))
                        }
                    };
                    EcKind::Vcpu { vmcs }
                } else {
                    EcKind::Thread
                };
                let id = self.obj.add_ec(Ec {
                    pd: target,
                    kind,
                    cpu,
                    utcb: Utcb::new(),
                    sc: None,
                    blocked: false,
                    busy: false,
                    // Thread ECs created by a component belong to it.
                    comp: (!vcpu).then_some(ctx.comp),
                    vcpu_index: vcpu.then(|| self.obj.pd(target).vcpus.len()),
                    activations: VecDeque::new(),
                });
                if vcpu {
                    self.obj.pd_mut(target).vcpus.push(id);
                }
                self.install_cap(caller, dst, ObjRef::Ec(id));
                Ok(HcReply::Ok)
            }
            Hypercall::CreateSc {
                ec,
                prio,
                quantum,
                dst,
            } => {
                let ec_id = self.lookup_ec(caller, ec, Perms::EC_CTRL)?;
                if quantum == 0 {
                    return Err(HcErr::BadParam);
                }
                self.charge_quota(caller)?;
                let sc = self.obj.add_sc(Sc {
                    ec: ec_id,
                    prio,
                    quantum,
                    left: quantum,
                });
                self.obj.ec_mut(ec_id).sc = Some(sc);
                let cpu = self.obj.ec(ec_id).cpu;
                // vCPUs become runnable immediately; thread ECs run on
                // activations.
                if matches!(self.obj.ec(ec_id).kind, EcKind::Vcpu { .. }) {
                    self.sched.cpu(cpu).enqueue(sc, prio);
                }
                self.install_cap(caller, dst, ObjRef::Sc(sc));
                Ok(HcReply::Ok)
            }
            Hypercall::CreatePt { ec, mtd, id, dst } => {
                let ec_id = self.lookup_ec(caller, ec, Perms::EC_CTRL)?;
                if self.obj.ec(ec_id).vmcs().is_some() {
                    return Err(HcErr::BadParam); // handler must be a thread
                }
                self.charge_quota(caller)?;
                let pt = self.obj.add_pt(Portal { ec: ec_id, mtd, id });
                self.install_cap(caller, dst, ObjRef::Pt(pt));
                Ok(HcReply::Ok)
            }
            Hypercall::PtWindow { pt, base, count } => {
                let ObjRef::Pt(pt) = self.lookup(caller, pt, Perms::NONE)?.obj else {
                    return Err(HcErr::BadCap);
                };
                if self.obj.ec(self.obj.pt(pt).ec).pd != caller {
                    return Err(HcErr::NotOwner);
                }
                if count > MAX_RANGE_PAGES || base.checked_add(count).is_none() {
                    return Err(HcErr::BadParam);
                }
                self.obj.windows.insert(pt, (base, count));
                Ok(HcReply::Ok)
            }
            Hypercall::CreateSm { count, dst } => {
                self.charge_quota(caller)?;
                let sm = self.obj.add_sm(Semaphore {
                    count,
                    bound: None,
                    gsi: None,
                });
                self.install_cap(caller, dst, ObjRef::Sm(sm));
                Ok(HcReply::Ok)
            }
            Hypercall::DelegateMem {
                dst_pd,
                base,
                count,
                rights,
                hot,
            } => {
                let target = self.lookup_pd(caller, dst_pd, Perms::CTRL)?;
                self.delegate_mem(caller, target, base, count, rights, hot)?;
                Ok(HcReply::Ok)
            }
            Hypercall::DelegateIo {
                dst_pd,
                base,
                count,
            } => {
                let target = self.lookup_pd(caller, dst_pd, Perms::CTRL)?;
                self.delegate_io(caller, target, base, count)?;
                Ok(HcReply::Ok)
            }
            Hypercall::DelegateCap {
                dst_pd,
                sel,
                perms,
                hot,
            } => {
                let target = self.lookup_pd(caller, dst_pd, Perms::CTRL)?;
                self.delegate_cap(caller, target, sel, perms, hot)?;
                Ok(HcReply::Ok)
            }
            Hypercall::RevokeMem {
                base,
                count,
                include_self,
            } => {
                if count > MAX_RANGE_PAGES || base.checked_add(count).is_none() {
                    return Err(HcErr::BadParam);
                }
                self.revoke_mem_ranges(caller, &[(base, count)], include_self);
                Ok(HcReply::Ok)
            }
            Hypercall::RevokeIo {
                base,
                count,
                include_self,
            } => {
                port_range(base, count)?;
                self.revoke_io_ranges(caller, &[(base.into(), count.into())], include_self);
                Ok(HcReply::Ok)
            }
            Hypercall::RevokeCap { sel, include_self } => {
                self.revoke_cap(caller, sel, include_self);
                Ok(HcReply::Ok)
            }
            Hypercall::SmUp { sm } => {
                let sm_id = self.lookup_sm(caller, sm, Perms::UP)?;
                self.sm_up(sm_id);
                Ok(HcReply::Ok)
            }
            Hypercall::SmDown { sm } => {
                let sm_id = self.lookup_sm(caller, sm, Perms::DOWN)?;
                let s = self.obj.sm_mut(sm_id);
                let acquired = s.count > 0;
                s.count -= u64::from(acquired);
                Ok(HcReply::Down { acquired })
            }
            Hypercall::SmBind { sm } => {
                let sm_id = self.lookup_sm(caller, sm, Perms::DOWN)?;
                self.obj.sm_mut(sm_id).bound = Some(ctx.ec);
                Ok(HcReply::Ok)
            }
            Hypercall::EcSetState { ec, regs, resume } => {
                let ec_id = self.lookup_ec(caller, ec, Perms::EC_CTRL)?;
                let ec_obj = self.obj.ec_mut(ec_id);
                let Some(vmcs) = ec_obj.vmcs_mut() else {
                    return Err(HcErr::BadParam);
                };
                vmcs.guest = regs;
                vmcs.halted = false;
                if resume {
                    self.unblock(ec_id);
                } else {
                    self.obj.ec_mut(ec_id).blocked = true;
                }
                Ok(HcReply::Ok)
            }
            Hypercall::EcCtrlVm {
                ec,
                hlt_exit,
                extint_exit,
                passthrough,
            } => {
                let ec_id = self.lookup_ec(caller, ec, Perms::EC_CTRL)?;
                let pd = self.obj.ec(ec_id).pd;
                for &(first, count) in &passthrough {
                    if !port_range(first, count)?.all(|p| self.obj.pd(pd).io.allowed(p as u16)) {
                        return Err(HcErr::BadPerm);
                    }
                }
                let Some(vmcs) = self.obj.ec_mut(ec_id).vmcs_mut() else {
                    return Err(HcErr::BadParam);
                };
                vmcs.intercept_hlt = hlt_exit;
                vmcs.intercept_extint = extint_exit;
                for (first, count) in passthrough {
                    vmcs.passthrough_ports(first, count);
                }
                Ok(HcReply::Ok)
            }
            Hypercall::EcRecall { ec } => {
                let ec_id = self.lookup_ec(caller, ec, Perms::EC_CTRL)?;
                let vmcs = self.obj.ec_mut(ec_id).vmcs_mut().ok_or(HcErr::BadParam)?;
                vmcs.recall_pending = true;
                Ok(HcReply::Ok)
            }
            Hypercall::EcResume { ec, inject, intwin } => {
                let ec_id = self.lookup_ec(caller, ec, Perms::EC_CTRL)?;
                let vmcs = self.obj.ec_mut(ec_id).vmcs_mut().ok_or(HcErr::BadParam)?;
                vmcs.intwin_exit |= intwin;
                if let Some(inj) = inject {
                    self.inject_virq(ec_id, inj);
                }
                self.unblock(ec_id);
                Ok(HcReply::Ok)
            }
            Hypercall::AssignGsi { sm, gsi } => {
                if self.gsi_owner.get(&gsi) != Some(&caller) {
                    return Err(HcErr::NotOwner);
                }
                let sm_id = self.lookup_sm(caller, sm, Perms::UP)?;
                self.obj.sm_mut(sm_id).gsi = Some(gsi);
                self.gsi_sm[gsi as usize] = Some(sm_id);
                Ok(HcReply::Ok)
            }
            Hypercall::DelegateGsi { dst_pd, gsi } => {
                if self.gsi_owner.get(&gsi) != Some(&caller) {
                    return Err(HcErr::NotOwner);
                }
                let target = self.live(self.lookup_pd(caller, dst_pd, Perms::CTRL)?)?;
                self.gsi_owner.insert(gsi, target);
                Ok(HcReply::Ok)
            }
            Hypercall::SetTimer { sm, period } => {
                let sm_id = self.lookup_sm(caller, sm, Perms::UP)?;
                if period > MAX_PERIOD {
                    return Err(HcErr::BadParam);
                }
                self.timers.retain(|t| t.sm != sm_id);
                if period > 0 {
                    self.timers.push(KernelTimer {
                        sm: sm_id,
                        due: self.machine.clock + period,
                        period,
                    });
                }
                Ok(HcReply::Ok)
            }
            Hypercall::AssignDev { pd, device } => {
                if caller != self.root_pd {
                    return Err(HcErr::NotOwner);
                }
                let target = self.live(self.lookup_pd(caller, pd, Perms::CTRL)?)?;
                self.obj.pd_mut(target).devices.push(device);
                // Mirror the domain's DMA-able memory into the IOMMU.
                let held = self.obj.pd(target).mem.iter();
                map_dma(&mut self.machine.bus.iommu, &[device], held);
                Ok(HcReply::Ok)
            }
            Hypercall::WatchdogArm { pd, sm, timeout } => {
                let target = self.lookup_pd(caller, pd, Perms::CTRL)?;
                let sm_id = self.lookup_sm(caller, sm, Perms::UP)?;
                if timeout > MAX_PERIOD {
                    return Err(HcErr::BadParam);
                }
                self.watchdogs.retain(|w| w.pd != target);
                if timeout > 0 {
                    self.watchdogs.push(Watchdog {
                        pd: target,
                        sm: sm_id,
                        timeout,
                        stamp: self.machine.clock,
                        fired: false,
                    });
                }
                Ok(HcReply::Ok)
            }
            Hypercall::WatchdogPet => {
                // The generic stamp at hypercall entry already did the
                // work; the variant exists so an otherwise-idle
                // component has a heartbeat to send.
                Ok(HcReply::Ok)
            }
        }
    }
}
