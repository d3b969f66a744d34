//! VM execution and exit handling: running a vCPU, the vTLB exits the
//! microhypervisor handles itself (Section 5.3), and the delivery of
//! every other exit to the VMM through its portal (Section 5.2).

use nova_hw::cpu::run_guest;
use nova_hw::fault::FaultKind;
use nova_hw::vmx::{mtd, ExitReason, Injection};
use nova_hw::Cycles;
use nova_x86::paging::Access;
use nova_x86::reg::Regs;

use super::{Kernel, TraceKind, EXIT_PORTAL_BASE, EXIT_PORTAL_STRIDE, VMM_CRASH_CODE};
use crate::cap::{Capability, Perms};
use crate::obj::{EcId, EcKind, ObjRef, ScId};
use crate::utcb::{Utcb, VmExitMsg};
use crate::vtlb::{self, CrOutcome, ShadowExit, ShadowParts};

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

        // The reason stays in the VMCS's exit-information field, where
        // the CPU wrote it: read in place here, by `handle_exit` and
        // by `deliver_exit`, never copied whole.
        let (detail, preempt, tagged) = {
            let ec = &mut self.obj.ecs[ec_id.0 as usize];
            let EcKind::Vcpu { vmcs } = &mut ec.kind else {
                return;
            };
            let m = &mut self.machine;
            run_guest(
                &mut m.cpus[cpu],
                &mut m.mem,
                &mut m.bus,
                &m.cost,
                &mut m.clock,
                vmcs,
                Some(quantum),
            );
            self.counters.count_exit(&vmcs.exit);
            let preempt = vmcs.exit == ExitReason::Preempt;
            (vmcs.exit.index() as u64, preempt, vmcs.vpid != 0)
        };

        let pd16 = self.obj.ec(ec_id).pd.0 as u16;
        let cpu16 = cpu as u16;
        let tc = self.machine.cost.vm_transition_cost(tagged);
        let at = self.machine.clock;
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
        self.handle_exit(ec_id);
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
        let exhausted = sc.left == 0 || preempt;
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

    /// Handles the exit in `ec_id`'s `vmcs.exit`.
    fn handle_exit(&mut self, ec_id: EcId) {
        let vmcs = self.obj.ec(ec_id).vmcs().expect("vCPU");
        // vTLB exits are handled inside the microhypervisor (Section
        // 5.3), not the VMM. Figure 9: a #PF takes six VMREADs to
        // determine its cause, then the fill.
        let c = &self.machine.cost;
        let (charge, detail) = match vmcs.exit {
            ExitReason::Preempt => return,
            ExitReason::ExtInt { vector } => return self.deliver_vector(vector),
            ExitReason::PageFault { addr, .. } => (6 * c.vmread + c.vtlb_fill_sw, addr),
            ExitReason::MovCr { cr, .. } => (2 * c.vmread + c.emul_simple / 2, cr as u32),
            ExitReason::Invlpg { .. } => (2 * c.vmread + c.emul_simple / 2, 0),
            // Every other exit is the VMM's (Section 5.2).
            _ => return self.deliver_exit(ec_id),
        };
        if !self.shadows.contains_key(&ec_id) {
            return self.deliver_exit(ec_id);
        }
        self.charge_as(TraceKind::CostKernel, charge);
        let pd16 = self.obj.ec(ec_id).pd.0 as u16;
        let (kind, detail) = match vtlb::handle_exit(self.shadow_parts(ec_id), 1) {
            Some(ShadowExit::Filled(_)) => (TraceKind::VtlbFill, detail as u64),
            Some(ShadowExit::GuestFault) => (TraceKind::GuestPageFault, detail as u64),
            Some(ShadowExit::Cr(CrOutcome::Flush)) => (TraceKind::VtlbFlush, detail as u64),
            Some(ShadowExit::Cr(CrOutcome::Switch { hit, .. })) => {
                (TraceKind::VtlbSwitch, hit as u64)
            }
            Some(ShadowExit::Mmio { gpa, write }) => {
                // Route to the VMM as the MMIO exit nested paging would
                // have raised.
                let access = if write { Access::WRITE } else { Access::READ };
                let vmcs = self.obj.ecs[ec_id.0 as usize].vmcs_mut().expect("vCPU");
                vmcs.exit = ExitReason::EptViolation { gpa, access };
                return self.deliver_exit(ec_id);
            }
            _ => return,
        };
        self.trace_emit(pd16, kind, detail);
    }

    /// What a vTLB exit of the shadow-paging vCPU `ec_id` works on
    /// ([`vtlb::ShadowParts`]).
    fn shadow_parts(&mut self, ec_id: EcId) -> ShadowParts<'_> {
        let cache = self.shadows.get_mut(&ec_id).expect("a shadow-paging vCPU");
        let ec = &mut self.obj.ecs[ec_id.0 as usize];
        let ms = &self.obj.pds[ec.pd.0 as usize].mem;
        let m = &mut self.machine;
        ShadowParts {
            mem: &mut m.mem,
            alloc: &mut self.alloc,
            ms,
            cache,
            tlb: &mut m.cpus[ec.cpu].tlb,
            vmcs: ec.vmcs_mut().expect("vCPU"),
            counters: &mut self.counters,
        }
    }

    /// Sends the exit in `ec_id`'s `vmcs.exit` through the
    /// event-specific portal in the VM's capability space and applies
    /// the VMM's reply (Section 5.2, Figure 3). The message is written
    /// once, into the UTCB the handler reads, and the reply is read
    /// where the handler left it.
    pub(super) fn deliver_exit(&mut self, ec_id: EcId) {
        let ec = self.obj.ec(ec_id);
        let (pd, reason) = (ec.pd, ec.vmcs().expect("vCPU").exit.index());
        // An EC that is no vCPU of its domain has no portal table, and
        // a vCPU may have no handler installed: either way the VM
        // cannot make progress.
        let pt = ec.vcpu_index.and_then(|i| {
            let sel = EXIT_PORTAL_BASE + i * EXIT_PORTAL_STRIDE + reason;
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
        let vmread = self.machine.cost.vmread;
        let vmread_cost = mtd::group_count(mtd_bits) as Cycles * vmread;
        self.charge_as(TraceKind::CostIpc, vmread_cost);

        let vmcs = self.obj.ec(ec_id).vmcs().expect("vCPU");
        let mut utcb = Utcb::new();
        utcb.vm = Some(VmExitMsg {
            mtd: mtd_bits,
            reason: vmcs.exit,
            regs: vmcs.guest.clone(),
            window_open: vmcs.guest.if_set() && !vmcs.sti_shadow,
            halted: vmcs.halted,
            reply_mtd: 0,
            reply_inject: None,
            reply_intwin: false,
            reply_block: false,
        });

        if self.ipc_to_portal(pd, pt, &mut utcb).is_err() {
            self.obj.ec_mut(ec_id).blocked = true;
            return;
        }

        // Apply the reply.
        let Some(reply) = &utcb.vm else { return };
        let wb_cost = mtd::group_count(reply.reply_mtd) as Cycles * vmread;
        self.charge_as(TraceKind::CostIpc, wb_cost);

        let vmcs = self.obj.ecs[ec_id.0 as usize].vmcs_mut().expect("vCPU");
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
        let target = &mut self.obj.ecs[ec.0 as usize];
        let pd16 = target.pd.0 as u16;
        let vmcs = target.vmcs_mut().expect("vCPU");
        vmcs.injection = Some(inj);
        vmcs.halted = false;
        self.counters.injected_virq += 1;
        self.trace_emit(pd16, TraceKind::VirqInject, inj.vector as u64);
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
