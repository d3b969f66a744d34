//! Interrupt delivery to semaphores, kernel timers, watchdogs, and the
//! death of a domain that faulted.

use std::collections::VecDeque;

use super::{Kernel, TraceKind, IRQ_KERNEL_CYCLES, PD_NONE};
use crate::obj::{EcId, PdId, SmId};

impl Kernel {
    /// Delivers a physical interrupt vector: acknowledge at the PIC,
    /// signal the bound semaphore, EOI.
    pub(super) fn deliver_vector(&mut self, vector: u8) {
        self.charge_as(TraceKind::CostKernel, IRQ_KERNEL_CYCLES);
        self.trace_emit(PD_NONE, TraceKind::IrqDeliver, vector as u64);
        let gsi = vector.wrapping_sub(0x20);
        // EOI the physical controller (slave interrupts need both).
        if gsi >= 8 {
            self.machine.bus.pic.io_write(nova_hw::pic::SLAVE_CMD, 0x20);
        }
        self.machine
            .bus
            .pic
            .io_write(nova_hw::pic::MASTER_CMD, 0x20);
        if let Some(sm) = self.gsi_sm[gsi as usize] {
            self.sm_up(sm);
        }
    }

    /// Signals each timer that is due, in table order. Walked by
    /// index: `sm_up` touches no timer.
    pub(super) fn fire_timers(&mut self) {
        let now = self.machine.clock;
        for i in 0..self.timers.len() {
            let t = &mut self.timers[i];
            if t.due > now {
                continue;
            }
            t.due += t.period.max(1);
            if t.due <= now {
                // Catch up without a signal storm.
                t.due = now + t.period.max(1);
            }
            let sm = t.sm;
            self.sm_up(sm);
        }
    }

    pub(super) fn poll_interrupts(&mut self) {
        while self.machine.bus.pic.intr() {
            match self.machine.bus.pic.ack() {
                Some(v) => self.deliver_vector(v),
                None => break,
            }
        }
    }

    // ------------------------------------------------------------------
    // Watchdogs and death notification
    // ------------------------------------------------------------------

    pub(super) fn watchdog_stamp(&mut self, pd: PdId) {
        let now = self.machine.clock;
        for w in &mut self.watchdogs {
            if w.pd == pd {
                w.stamp = now;
            }
        }
    }

    /// Fires each silent watchdog once, in table order. Walked by
    /// index: neither the trace nor `sm_up` touches a watchdog.
    pub(super) fn check_watchdogs(&mut self) {
        let now = self.machine.clock;
        for i in 0..self.watchdogs.len() {
            let w = &mut self.watchdogs[i];
            if w.fired || now < w.stamp + w.timeout {
                continue;
            }
            w.fired = true;
            let (sm, pd) = (w.sm, w.pd);
            self.counters.watchdog_fires += 1;
            self.trace_emit(pd.0 as u16, TraceKind::WatchdogFire, 0);
            self.sm_up(sm);
        }
    }

    /// Reports a fatal fault in a protection domain (an unhandled
    /// exception, a self-declared failure): its execution contexts are
    /// blocked and refused further calls, and any watchdog on the
    /// domain fires immediately — the death notification a supervisor
    /// uses to trigger teardown and restart. The domain's resources
    /// stay in place until the supervisor issues `DestroyPd`.
    pub fn pd_fault(&mut self, pd: PdId, code: u64) {
        if self.obj.pd(pd).dying {
            return;
        }
        self.stop_ecs(pd);
        self.counters.pd_deaths += 1;
        self.trace_emit(pd.0 as u16, TraceKind::PdDeath, code);
        let mut fired = Vec::new();
        for w in &mut self.watchdogs {
            if w.pd == pd && !w.fired {
                w.fired = true;
                fired.push(w.sm);
            }
        }
        for sm in fired {
            self.sm_up(sm);
        }
    }

    /// Stops every EC of `pd` for good and returns them: each is
    /// blocked, refuses further calls, leaves the run queues and drops
    /// its activations. Semaphores bound to them stop delivering — a
    /// crashed driver must not keep handling its interrupts — and the
    /// kernel timers feeding those are cancelled, so a dead VMM's
    /// periodic virtual timers cannot keep the machine from going idle
    /// while the supervisor recovers.
    pub(super) fn stop_ecs(&mut self, pd: PdId) -> Vec<EcId> {
        let ecs: Vec<EcId> = (0..=u16::MAX)
            .zip(&self.obj.ecs)
            .filter(|(_, e)| e.pd == pd)
            .map(|(i, _)| EcId(i))
            .collect();
        for &ec in &ecs {
            let e = self.obj.ec_mut(ec);
            e.blocked = true;
            e.busy = true;
            e.activations = VecDeque::new();
            if let Some(sc) = e.sc {
                let cpu = e.cpu;
                self.sched.cpu(cpu).remove(sc);
            }
        }
        let mut orphaned: Vec<SmId> = Vec::new();
        for (i, sm) in self.obj.sms.iter_mut().enumerate() {
            if sm.bound.is_some_and(|e| ecs.contains(&e)) {
                sm.bound = None;
                orphaned.push(SmId(i));
            }
        }
        self.timers.retain(|t| !orphaned.contains(&t.sm));
        ecs
    }
}
