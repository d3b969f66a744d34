//! VM execution and exit handling: running a vCPU, the vTLB exits the
//! microhypervisor handles itself (Section 5.3), and the delivery of
//! every other exit to the VMM through its portal (Section 5.2).

use nova_hw::cpu::run_guest;
use nova_hw::fault::FaultKind;
use nova_hw::mem::PhysMem;
use nova_hw::vmx::{mtd, ExitReason, Injection, PagingVirt, Vmcs};
use nova_hw::Cycles;
use nova_x86::paging::Access;
use nova_x86::reg::Regs;

use super::{Kernel, TraceKind, EXIT_PORTAL_BASE, EXIT_PORTAL_STRIDE, VMM_CRASH_CODE};
use crate::cap::{Capability, Perms};
use crate::hostpt::FrameAllocator;
use crate::obj::{EcId, EcKind, MemSpace, ObjRef, ScId};
use crate::utcb::{Utcb, VmExitMsg};
use crate::vtlb::{self, CrOutcome, ShadowCache, VtlbOutcome};

/// See [`Kernel::vtlb_parts`].
type VtlbParts<'a> = (
    &'a mut PhysMem,
    &'a mut FrameAllocator,
    &'a MemSpace,
    &'a mut ShadowCache,
    &'a mut Vmcs,
);

impl Kernel {
    pub(super) fn dispatch_vcpu(&mut self, sc_id: ScId) {
        let ec_id = self.obj.sc(sc_id).ec;
        if self.obj.ec(ec_id).blocked {
            return; // stays off the runqueue until resumed
        }
        // Run on the remaining quantum; it is consumed across exits so
        // an interrupt does not steal the rest of the timeslice
        // (Section 5.1's round-robin among equal priorities).
        let quantum = self.obj.sc(sc_id).left.max(1);
        let cpu = self.obj.ec(ec_id).cpu;
        let entered = self.machine.clock;

        let cost = self.machine.cost;
        let reason = {
            let ec = &mut self.obj.ecs[ec_id.0];
            let EcKind::Vcpu { vmcs } = &mut ec.kind else {
                return;
            };
            let m = &mut self.machine;
            run_guest(
                &mut m.cpus[cpu],
                &mut m.mem,
                &mut m.bus,
                &cost,
                &mut m.clock,
                vmcs,
                Some(quantum),
            )
        };

        self.counters.count_exit(&reason);
        let pd16 = self.obj.ec(ec_id).pd.0 as u16;
        let cpu16 = cpu as u16;
        let tagged = self.obj.ec(ec_id).vmcs().is_some_and(|v| v.vpid != 0);
        let tc = self.machine.cost.vm_transition_cost(tagged);
        let (at, detail) = (self.machine.clock, reason.index() as u64);
        // Each VM exit is a request origin: allocate a fresh causal
        // trace context so everything the exit sets in motion (the
        // exit portal IPC, VMM emulation, PV backend work, disk-server
        // spans) is stamped with one id.
        let trace = &mut self.machine.bus.trace;
        trace.alloc_ctx();
        trace.emit(cpu16, pd16, TraceKind::VmExit, detail, at);
        trace.emit(cpu16, pd16, TraceKind::CostTransition, tc, at);
        trace.begin(cpu16, pd16, TraceKind::ExitHandle, detail, at + tc);
        self.machine.clock += tc;
        self.counters.cycles_transition += tc;
        let guest_elapsed = self.machine.clock - entered;
        self.handle_exit(ec_id, reason);
        let handled = self.machine.clock;
        let trace = &mut self.machine.bus.trace;
        trace.end(cpu16, pd16, TraceKind::ExitHandle, detail, handled);
        if trace.active() {
            trace
                .metrics
                .observe("exit_cycles", pd16 as u64, handled - entered);
        }
        // The exit's synchronous window is over; async continuations
        // (pending disk work) carry the id themselves.
        trace.set_ctx(nova_trace::CTX_NONE);

        // Quantum accounting and requeue (unless blocked).
        let sc = self.obj.sc_mut(sc_id);
        sc.left = sc.left.saturating_sub(guest_elapsed);
        let exhausted = sc.left == 0 || reason == ExitReason::Preempt;
        if exhausted {
            sc.left = sc.quantum;
        }
        if !self.obj.ec(ec_id).blocked {
            let prio = self.obj.sc(sc_id).prio;
            let cpu = self.obj.ec(ec_id).cpu;
            if exhausted {
                self.sched.cpu(cpu).enqueue(sc_id, prio);
            } else {
                // The turn continues: stay at the head of the class.
                self.sched.cpu(cpu).enqueue_front(sc_id, prio);
            }
        }
    }

    fn handle_exit(&mut self, ec_id: EcId, reason: ExitReason) {
        match reason {
            ExitReason::Preempt => {}
            ExitReason::ExtInt { vector } => self.deliver_vector(vector),
            ExitReason::PageFault { addr, err } => self.handle_vtlb_fault(ec_id, addr, err),
            ExitReason::MovCr {
                cr,
                write,
                gpr,
                len,
            } if self.is_shadow(ec_id) => {
                // vTLB-related exits are handled inside the
                // microhypervisor (Section 5.3), not the VMM.
                let cost = self.machine.cost;
                self.charge_as(
                    TraceKind::CostKernel,
                    2 * cost.vmread + cost.emul_simple / 2,
                );
                let pd16 = self.obj.ec(ec_id).pd.0 as u16;
                let Some((mem, alloc, ms, cache, vmcs)) = self.vtlb_parts(ec_id) else {
                    return;
                };
                let outcome =
                    vtlb::handle_cr_access(mem, alloc, ms, cache, vmcs, cr, write, gpr, len);
                // A cold switch rebuilds the shadow from scratch — the
                // cost class the flush counter has always measured.
                let cold = matches!(outcome, CrOutcome::Switch { hit: false, .. });
                self.counters.vtlb_flushes += (cold || outcome == CrOutcome::Flush) as u64;
                match outcome {
                    CrOutcome::None => {}
                    CrOutcome::Flush => {
                        self.trace_emit(pd16, TraceKind::VtlbFlush, cr as u64);
                    }
                    CrOutcome::Switch { hit, evicted } => {
                        if hit {
                            self.counters.vtlb_switch_hits += 1;
                        } else {
                            self.counters.vtlb_switch_misses += 1;
                        }
                        if evicted {
                            self.counters.vtlb_shadow_evictions += 1;
                        }
                        self.trace_emit(pd16, TraceKind::VtlbSwitch, hit as u64);
                    }
                }
                self.drain_tlb_ops(ec_id);
            }
            ExitReason::Invlpg { addr, len } if self.is_shadow(ec_id) => {
                let cost = self.machine.cost;
                self.charge_as(
                    TraceKind::CostKernel,
                    2 * cost.vmread + cost.emul_simple / 2,
                );
                let Some((mem, _, _, cache, vmcs)) = self.vtlb_parts(ec_id) else {
                    return;
                };
                vtlb::handle_invlpg(mem, cache, vmcs, addr, len);
                let vpid = vmcs.vpid;
                let cpu = self.obj.ec(ec_id).cpu;
                self.machine.cpus[cpu].tlb.invalidate(vpid, addr as u64);
            }
            ExitReason::TripleFault
            | ExitReason::IntWindow
            | ExitReason::Cpuid { .. }
            | ExitReason::Hlt { .. }
            | ExitReason::Invlpg { .. }
            | ExitReason::MovCr { .. }
            | ExitReason::IoPort { .. }
            | ExitReason::EptViolation { .. }
            | ExitReason::Vmcall { .. }
            | ExitReason::Rdtsc { .. }
            | ExitReason::Recall => self.deliver_exit(ec_id, reason),
        }
    }

    fn is_shadow(&self, ec_id: EcId) -> bool {
        matches!(
            self.obj.ec(ec_id).vmcs().map(|v| v.paging),
            Some(PagingVirt::Shadow { .. })
        )
    }

    /// What a vTLB exit of `ec_id` works on, borrowed at once: guest
    /// memory, the frame pool, the domain's space, the vCPU's shadow
    /// cache and its VMCS. `None` unless `ec_id` is a shadow-paging
    /// vCPU.
    fn vtlb_parts(&mut self, ec_id: EcId) -> Option<VtlbParts<'_>> {
        let cache = self.shadows.get_mut(&ec_id)?;
        let ec = &mut self.obj.ecs[ec_id.0];
        let ms = &self.obj.pds[ec.pd.0].mem;
        let vmcs = ec.vmcs_mut()?;
        Some((&mut self.machine.mem, &mut self.alloc, ms, cache, vmcs))
    }

    fn handle_vtlb_fault(&mut self, ec_id: EcId, addr: u32, err: u32) {
        // Figure 9: six VMREADs to determine the cause, then the fill.
        let cost = self.machine.cost;
        self.charge_as(TraceKind::CostKernel, 6 * cost.vmread + cost.vtlb_fill_sw);

        let pd = self.obj.ec(ec_id).pd;
        let Some((mem, alloc, ms, cache, vmcs)) = self.vtlb_parts(ec_id) else {
            return;
        };
        let outcome = vtlb::handle_page_fault(mem, alloc, ms, cache, vmcs, addr, err);
        match outcome {
            VtlbOutcome::Filled => {
                self.counters.vtlb_fills += 1;
                self.trace_emit(pd.0 as u16, TraceKind::VtlbFill, addr as u64);
            }
            VtlbOutcome::InjectPf { err } => {
                self.counters.guest_page_faults += 1;
                self.trace_emit(pd.0 as u16, TraceKind::GuestPageFault, addr as u64);
                let vmcs = self.obj.ecs[ec_id.0].vmcs_mut().unwrap();
                vmcs.guest.cr2 = addr;
                vmcs.injection = Some(nova_hw::vmx::Injection {
                    vector: nova_x86::reg::vector::PAGE_FAULT,
                    error_code: Some(err),
                });
            }
            VtlbOutcome::Mmio { gpa, write } => {
                // Route to the VMM as an MMIO event.
                let access = if write { Access::WRITE } else { Access::READ };
                self.deliver_exit(ec_id, ExitReason::EptViolation { gpa, access });
            }
        }
    }

    /// Sends the VM-exit message through the event-specific portal in
    /// the VM's capability space and applies the VMM's reply
    /// (Section 5.2, Figure 3).
    pub(super) fn deliver_exit(&mut self, ec_id: EcId, reason: ExitReason) {
        let pd = self.obj.ec(ec_id).pd;
        // An EC that is no vCPU of its domain has no portal table, and
        // a vCPU may have no handler installed: either way the VM
        // cannot make progress.
        let pt = self.obj.ec(ec_id).vcpu_index.and_then(|i| {
            let sel = EXIT_PORTAL_BASE + i * EXIT_PORTAL_STRIDE + reason.index();
            match self.obj.pd(pd).caps.get(sel)? {
                Capability {
                    obj: ObjRef::Pt(id),
                    perms,
                } if perms.allows(Perms::CALL) => Some(id),
                _ => None,
            }
        });
        let Some(pt) = pt else {
            self.obj.ec_mut(ec_id).blocked = true;
            return;
        };

        // Fault site: the VMM process dies just before this exit is
        // delivered to it. The handler EC's domain is the VMM (root is
        // never crashed); the vCPU parks exactly as it would if the
        // portal were gone, and the supervisor's watchdog takes it
        // from there.
        let handler_pd = self.obj.ec(self.obj.pt(pt).ec).pd;
        if handler_pd != self.root_pd {
            let now = self.machine.clock;
            if self
                .machine
                .bus
                .fault
                .roll(now, FaultKind::VmmCrash, handler_pd.0 as u64)
            {
                self.trace_emit(
                    handler_pd.0 as u16,
                    TraceKind::FaultInject,
                    FaultKind::VmmCrash as u64,
                );
                self.pd_fault(handler_pd, VMM_CRASH_CODE);
                self.obj.ec_mut(ec_id).blocked = true;
                return;
            }
        }

        // Read the guest state selected by the portal's MTD out of the
        // VMCS (the Section 5.2 optimization: fewer groups = fewer
        // VMREADs).
        let mtd_bits = self.obj.pt(pt).mtd;
        let cost = self.machine.cost;
        let vmread_cost = mtd::group_count(mtd_bits) as Cycles * cost.vmread;
        self.charge_as(TraceKind::CostIpc, vmread_cost);

        let vmcs = self.obj.ec(ec_id).vmcs().expect("vCPU");
        let mut msg = VmExitMsg::new(reason, mtd_bits, vmcs.guest.clone());
        msg.window_open = vmcs.guest.if_set() && !vmcs.sti_shadow;
        msg.halted = vmcs.halted;

        let mut utcb = Utcb::new();
        utcb.vm = Some(msg);

        if self.ipc_to_portal(pd, pt, &mut utcb).is_err() {
            self.obj.ec_mut(ec_id).blocked = true;
            return;
        }

        // Apply the reply.
        let Some(reply) = utcb.vm else { return };
        let wb_cost = mtd::group_count(reply.reply_mtd) as Cycles * cost.vmread;
        self.charge_as(TraceKind::CostIpc, wb_cost);

        let vmcs = self.obj.ecs[ec_id.0].vmcs_mut().expect("vCPU");
        apply_mtd(&mut vmcs.guest, &reply.regs, reply.reply_mtd);
        vmcs.intwin_exit |= reply.reply_intwin;
        if reply.reply_block {
            vmcs.halted = false; // blocking is kernel-side, not hw
            self.obj.ec_mut(ec_id).blocked = true;
        }
        if let Some(inj) = reply.reply_inject {
            self.inject_virq(ec_id, inj);
        }
    }

    /// Queues a VMM's virtual interrupt on vCPU `ec` — with a resume
    /// or with an exit reply — and wakes it from HLT.
    #[inline]
    pub(super) fn inject_virq(&mut self, ec: EcId, inj: Injection) {
        let target = &mut self.obj.ecs[ec.0];
        let pd16 = target.pd.0 as u16;
        let vmcs = target.vmcs_mut().expect("vCPU");
        vmcs.injection = Some(inj);
        vmcs.halted = false;
        self.counters.injected_virq += 1;
        self.trace_emit(pd16, TraceKind::VirqInject, inj.vector as u64);
    }

    /// Applies the hardware-TLB maintenance the vCPU's shadow cache
    /// queued while handling an exit.
    fn drain_tlb_ops(&mut self, ec_id: EcId) {
        let cpu = self.obj.ec(ec_id).cpu;
        if let Some(cache) = self.shadows.get_mut(&ec_id) {
            vtlb::apply_tlb_ops(&mut self.machine.cpus[cpu].tlb, cache.take_tlb_ops());
        }
    }
}

/// Copies the register groups selected by `mtd` from `src` to `dst`.
pub fn apply_mtd(dst: &mut Regs, src: &Regs, mtd_bits: u32) {
    use nova_x86::reg::Reg;
    if mtd_bits & mtd::GPR_ACDB != 0 {
        for r in [Reg::Eax, Reg::Ecx, Reg::Edx, Reg::Ebx] {
            dst.set(r, src.get(r));
        }
    }
    if mtd_bits & mtd::GPR_BSD != 0 {
        for r in [Reg::Ebp, Reg::Esi, Reg::Edi] {
            dst.set(r, src.get(r));
        }
    }
    if mtd_bits & mtd::ESP != 0 {
        dst.set(Reg::Esp, src.get(Reg::Esp));
    }
    if mtd_bits & mtd::EIP != 0 {
        dst.eip = src.eip;
    }
    if mtd_bits & mtd::EFL != 0 {
        dst.eflags = src.eflags;
    }
    if mtd_bits & mtd::CR != 0 {
        dst.cr0 = src.cr0;
        dst.cr2 = src.cr2;
        dst.cr3 = src.cr3;
        dst.cr4 = src.cr4;
    }
    if mtd_bits & mtd::IDT != 0 {
        dst.idt_base = src.idt_base;
        dst.idt_limit = src.idt_limit;
    }
}
