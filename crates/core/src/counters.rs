//! Virtualization-event counters: the raw data behind Table 2 and the
//! Section 8.5 per-exit cost breakdown.

use nova_hw::vmx::ExitReason;

/// Declares [`Counters`]: one line per scalar count. The struct field,
/// its share of [`Counters::delta`] and its entry in
/// [`Counters::iter`] all come from that line, so adding a count is
/// adding a line.
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// The counter registry: every event and cycle count of the
        /// stack, kept by the microhypervisor — the one component that
        /// outlives every driver and every VMM — and bumped at one site
        /// per name (DESIGN.md §6b). Whatever else reports a count reads
        /// it from here.
        #[derive(Clone, Debug, Default)]
        pub struct Counters {
            /// VM exits by reason index (see [`ExitReason::index`]).
            pub exits: [u64; ExitReason::COUNT],
            $($(#[$doc])* pub $name: u64,)*
        }

        impl Counters {
            /// Every scalar count as `(name, value)`, in table order.
            pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> {
                [$((stringify!($name), self.$name),)*].into_iter()
            }

            /// Counter-wise difference against an `earlier` snapshot:
            /// what happened between the two points. Every count
            /// saturates at zero: snapshots taken the wrong way round
            /// read as nothing happened, not as a wrapped number.
            pub fn delta(&self, earlier: &Counters) -> Counters {
                Counters {
                    exits: std::array::from_fn(|i| self.exits[i].saturating_sub(earlier.exits[i])),
                    $($name: self.$name.saturating_sub(earlier.$name),)*
                }
            }

            /// The count called `name`, to write.
            #[cfg(test)]
            fn by_name(&mut self, name: &str) -> &mut u64 {
                match name {
                    $(stringify!($name) => &mut self.$name,)*
                    _ => panic!("no counter {name}"),
                }
            }
        }
    };
}

counters! {
    /// vTLB fills (subset of the #PF exits).
    vtlb_fills,
    /// vTLB flushes (CR writes that dropped or rebuilt a shadow table:
    /// paging-relevant CR0/CR4 toggles and cold CR3 switches).
    vtlb_flushes,
    /// CR3 reloads that hit the shadow-table cache (the shadow was
    /// kept and merely resynchronized — no rebuild).
    vtlb_switch_hits,
    /// CR3 reloads that missed the shadow-table cache (a fresh shadow
    /// is built for the new address space).
    vtlb_switch_misses,
    /// Cached shadow tables evicted to make room (bounded cache).
    vtlb_shadow_evictions,
    /// Page faults forwarded to the guest kernel.
    guest_page_faults,
    /// Virtual interrupts injected by VMMs.
    injected_virq,
    /// Portal calls (IPC rendezvous) performed.
    ipc_calls,
    /// Hypercalls executed.
    hypercalls,

    /// Watchdog deadlines that expired and signalled a supervisor.
    watchdog_fires,
    /// Protection-domain faults reported to supervisors.
    pd_deaths,
    /// Hypercalls refused because a PD exhausted its kernel-object
    /// quota.
    quota_rejections,

    /// Disk requests completed by the disk server.
    disk_ops,
    /// Payload bytes of those requests.
    disk_bytes,
    /// Disk requests the server accepted onto a client's channel.
    disk_accepted,
    /// Disk requests the server refused with EBUSY (channel throttle).
    disk_rejected,
    /// In-flight disk commands the server's self-check found overdue.
    disk_timeouts,
    /// Disk commands re-issued after an error completion.
    disk_media_retries,
    /// Disk commands re-issued after the controller reset that dropped
    /// them.
    disk_reset_reissues,
    /// Disk completions the server recovered by polling after a lost
    /// interrupt.
    disk_lost_irq_recovered,
    /// Disk requests the server completed with an error status, its
    /// retry budget spent.
    disk_failed,
    /// Spurious device interrupts absorbed by drivers.
    spurious_irqs,
    /// Device controller resets performed during recovery.
    controller_resets,

    /// Accepted requests a disk client found overdue at the server.
    client_timeouts,
    /// Charged re-sends by a disk client (timeout, refusal, server
    /// restart).
    client_resubmits,
    /// Requests a disk client failed towards its guest: attempt budget
    /// spent, or refused for good.
    client_degraded,
    /// Malformed guest inputs rejected by a validator (per-request
    /// degradation, not a kill); per surface in the
    /// `guest_fault_rejected` metric.
    guest_faults_rejected,
    /// Structured VM kills filed by VMMs (Byzantine-guest containment);
    /// per exit code in the `vm_kills_by_reason` metric.
    vm_kills,

    /// Driver/server restarts performed by a supervisor.
    driver_restarts,
    /// VMM checkpoints captured by the supervisor.
    checkpoints_taken,
    /// 4 KB guest pages those checkpoints copied: only the pages
    /// written since the previous capture are.
    checkpoint_pages_copied,
    /// VMM incarnations started beyond the first (microreboots); per
    /// supervised VM in the `vmm_restarts` metric.
    vmm_restarts,
    /// Escalation-ladder transitions (resume → cold reboot → failed);
    /// per level entered in the `escalations_by_level` metric.
    escalations,

    /// Cycles spent in guest/host transitions (Section 8.5: 26%).
    cycles_transition,
    /// Cycles spent transferring state via IPC (Section 8.5: 15%).
    cycles_ipc,
    /// Cycles spent in VMM instruction/device emulation (59%).
    cycles_emulation,
    /// Cycles spent in hypervisor-internal handling (vTLB and
    /// interrupt paths).
    cycles_kernel,
}

impl Counters {
    /// Fresh counters.
    pub fn new() -> Counters {
        Counters::default()
    }

    /// Records an exit.
    pub fn count_exit(&mut self, reason: &ExitReason) {
        self.exits[reason.index()] += 1;
    }

    /// Exits of one reason.
    pub fn exits_of(&self, reason_index: usize) -> u64 {
        self.exits[reason_index]
    }

    /// Total VM exits (every reason, including preemptions).
    pub fn total_exits(&self) -> u64 {
        self.exits.iter().sum()
    }

    /// Average cycles per exit over all four accounted categories —
    /// transition, IPC, emulation, **and** hypervisor-internal
    /// (`cycles_kernel`, the vTLB and interrupt paths) — matching the
    /// paper's ~3900-cycle figure for the compile workload. The kernel
    /// share is zero in the pure EPT configuration but dominates #PF
    /// handling under shadow paging.
    pub fn avg_exit_cycles(&self) -> f64 {
        let total = self.total_exits();
        if total == 0 {
            return 0.0;
        }
        (self.cycles_transition + self.cycles_ipc + self.cycles_emulation + self.cycles_kernel)
            as f64
            / total as f64
    }

    /// A point-in-time copy, for later [`Counters::delta`].
    pub fn snapshot(&self) -> Counters {
        self.clone()
    }

    /// Cross-PD requests that timed out awaiting completion, at the
    /// disk server or at a client.
    pub fn request_timeouts(&self) -> u64 {
        self.disk_timeouts + self.client_timeouts
    }

    /// Re-submissions of timed-out or error-completed requests, by the
    /// disk server or by a client.
    pub fn request_retries(&self) -> u64 {
        self.disk_media_retries + self.disk_reset_reissues + self.client_resubmits
    }

    /// Requests degraded to an error reply after recovery gave up, at
    /// the disk server or at a client.
    pub fn degraded_errors(&self) -> u64 {
        self.disk_failed + self.client_degraded
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_and_totals() {
        let mut c = Counters::new();
        c.count_exit(&ExitReason::Cpuid { len: 2 });
        c.count_exit(&ExitReason::Cpuid { len: 2 });
        c.count_exit(&ExitReason::Hlt { len: 1 });
        assert_eq!(c.exits_of(ExitReason::Cpuid { len: 2 }.index()), 2);
        assert_eq!(c.total_exits(), 3);
    }

    #[test]
    fn avg_exit_cycles() {
        let mut c = Counters::new();
        assert_eq!(c.avg_exit_cycles(), 0.0);
        c.count_exit(&ExitReason::Hlt { len: 1 });
        c.cycles_transition = 1000;
        c.cycles_ipc = 600;
        c.cycles_emulation = 2300;
        assert!((c.avg_exit_cycles() - 3900.0).abs() < 1e-9);
        // The kernel-internal share (vTLB, interrupt paths) counts too.
        c.cycles_kernel = 100;
        assert!((c.avg_exit_cycles() - 4000.0).abs() < 1e-9);
        c.count_exit(&ExitReason::Hlt { len: 1 });
        assert!((c.avg_exit_cycles() - 2000.0).abs() < 1e-9);
    }

    /// Every line of the table is a field of its own: set alone, it is
    /// what `delta` against a fresh registry shows and nothing else is,
    /// and `iter` names it once.
    #[test]
    fn every_table_line_is_its_own_field_in_delta_and_iter() {
        let names: Vec<_> = Counters::new().iter().map(|(n, _)| n).collect();
        for (i, &name) in names.iter().enumerate() {
            assert!(!names[..i].contains(&name), "{name} listed twice");
            let mut c = Counters::new();
            *c.by_name(name) = 7 + i as u64;
            let d = c.delta(&Counters::new());
            let moved: Vec<_> = d.iter().filter(|&(_, v)| v != 0).collect();
            assert_eq!(moved, [(name, 7 + i as u64)]);
            assert_eq!(d.total_exits(), 0);
            // Against itself nothing moved, and the other way round the
            // difference saturates instead of wrapping.
            assert!(c.delta(&c).iter().all(|(_, v)| v == 0));
            assert!(Counters::new().delta(&c).iter().all(|(_, v)| v == 0));
        }
    }

    #[test]
    fn snapshot_delta_isolates_a_phase_of_exits() {
        let mut c = Counters::new();
        c.count_exit(&ExitReason::Hlt { len: 1 });
        let snap = c.snapshot();
        c.count_exit(&ExitReason::Hlt { len: 1 });
        c.count_exit(&ExitReason::Cpuid { len: 2 });
        let d = c.delta(&snap);
        assert_eq!(d.total_exits(), 2);
        assert_eq!(d.exits_of(ExitReason::Hlt { len: 1 }.index()), 1);
        // The wrong way round saturates instead of wrapping.
        assert_eq!(snap.delta(&c).total_exits(), 0);
    }
}
