//! Portal IPC with scheduling-context donation, typed-item transfer
//! into a portal's receive window, and semaphores (Section 5.2).

use super::{CompCtx, Kernel, TraceKind};
use crate::cap::{CapSel, Perms};
use crate::hypercall::HcErr;
use crate::obj::{Activation, ObjRef, PdId, PtId, SmId};
use crate::utcb::Utcb;

impl Kernel {
    /// Performs a portal call on behalf of a component: the
    /// run-to-completion form of NOVA's `call` with scheduling-context
    /// donation. The reply lands in `utcb`.
    pub fn ipc_call(&mut self, ctx: CompCtx, pt_sel: CapSel, utcb: &mut Utcb) -> Result<(), HcErr> {
        let cap = self.lookup(ctx.pd, pt_sel, Perms::CALL)?;
        let pt = match cap.obj {
            ObjRef::Pt(id) => id,
            _ => Err(HcErr::BadCap)?,
        };
        self.ipc_to_portal(ctx.pd, pt, utcb)
    }

    pub(super) fn ipc_to_portal(
        &mut self,
        caller_pd: PdId,
        pt: PtId,
        utcb: &mut Utcb,
    ) -> Result<(), HcErr> {
        let portal = &self.obj.pts[pt.0];
        let handler_ec = portal.ec;
        let portal_id = portal.id;
        let handler = self.obj.ec(handler_ec);
        let handler_pd = handler.pd;
        if handler.busy || self.obj.pd(handler_pd).dying {
            return Err(HcErr::Busy);
        }
        let comp = handler.comp.ok_or(HcErr::BadParam)?;
        self.trace_emit_span(caller_pd.0 as u16, TraceKind::IpcCall, portal_id, true);

        // Each direction costs entry/exit, the IPC path, TLB effects on
        // a cross-AS traversal and the per-word payload (Figure 8).
        let cost = &self.machine.cost;
        let tlb = if caller_pd != handler_pd {
            cost.ipc_tlb_effects
        } else {
            0
        };
        let (fixed, per_word) = (
            cost.syscall_entry_exit + cost.ipc_path + tlb,
            cost.ipc_per_word,
        );
        let one_way = |utcb: &Utcb| fixed + utcb.len_words() as u64 * per_word;
        self.charge_as(TraceKind::CostIpc, one_way(utcb));
        self.counters.ipc_calls += 1;

        // Typed items: delegation from caller to handler, into the
        // portal's receive window. A refused item fails the call before
        // the handler runs.
        if let Err(e) = self.move_xfer(caller_pd, handler_pd, pt, utcb) {
            self.trace_emit_span(caller_pd.0 as u16, TraceKind::IpcCall, portal_id, false);
            return Err(e);
        }

        // Dispatch with the SC donated: the handler runs to completion
        // on the caller's time (charged to the shared clock).
        self.obj.ec_mut(handler_ec).busy = true;
        let hctx = CompCtx {
            pd: handler_pd,
            ec: handler_ec,
            comp,
        };
        self.with_component(comp, |c, k| c.on_call(k, hctx, portal_id, utcb));
        self.obj.ec_mut(handler_ec).busy = false;

        // The reply. It carries no typed items: the caller named no
        // window for them.
        self.charge_as(TraceKind::CostIpc, one_way(utcb));
        utcb.xfer.clear();
        self.trace_emit_span(caller_pd.0 as u16, TraceKind::IpcCall, portal_id, false);
        Ok(())
    }

    /// Delegates and consumes the UTCB's typed items, each into the
    /// receive window `(first page, pages)` of `to` that portal `pt`
    /// has: item page `hot` lands at `first + hot`, and an item that does
    /// not end inside the window — or any item, without one — is
    /// refused. Taking the buffer (rather than draining into a fresh
    /// Vec) keeps the common zero-item call allocation-free; it is
    /// handed back emptied on success and on refusal alike, so the
    /// caller's next message reuses its capacity.
    fn move_xfer(&mut self, from: PdId, to: PdId, pt: PtId, utcb: &mut Utcb) -> Result<(), HcErr> {
        let mut items = std::mem::take(&mut utcb.xfer);
        let moved = items.iter().try_for_each(|i| {
            let window = self.obj.windows.get(&pt).copied();
            let (first, pages) = window.ok_or(HcErr::BadParam)?;
            if i.hot.checked_add(i.count).is_none_or(|end| end > pages) {
                return Err(HcErr::BadParam);
            }
            self.delegate_mem(from, to, i.base, i.count, i.rights, first + i.hot)
        });
        items.clear();
        utcb.xfer = items;
        moved
    }

    pub(super) fn sm_up(&mut self, sm: SmId) {
        let bound = self.obj.sm(sm).bound;
        match bound {
            Some(ec) => {
                self.obj
                    .ec_mut(ec)
                    .activations
                    .push_back(Activation::Signal(sm));
                self.make_thread_runnable(ec);
            }
            None => self.obj.sm_mut(sm).count += 1,
        }
    }
}
