//! Virtualization-event counters: the raw data behind Table 2 and the
//! Section 8.5 per-exit cost breakdown.

use nova_hw::vmx::ExitReason;
use nova_hw::Cycles;

/// Event and cycle counters maintained by the microhypervisor.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// VM exits by reason index (see [`ExitReason::index`]).
    pub exits: [u64; ExitReason::COUNT],
    /// vTLB fills (subset of the #PF exits).
    pub vtlb_fills: u64,
    /// vTLB flushes (CR writes that dropped or rebuilt a shadow table:
    /// paging-relevant CR0/CR4 toggles and cold CR3 switches).
    pub vtlb_flushes: u64,
    /// CR3 reloads that hit the shadow-table cache (the shadow was
    /// kept and merely resynchronized — no rebuild).
    pub vtlb_switch_hits: u64,
    /// CR3 reloads that missed the shadow-table cache (a fresh shadow
    /// is built for the new address space).
    pub vtlb_switch_misses: u64,
    /// Cached shadow tables evicted to make room (bounded cache).
    pub vtlb_shadow_evictions: u64,
    /// Page faults forwarded to the guest kernel.
    pub guest_page_faults: u64,
    /// Virtual interrupts injected by VMMs.
    pub injected_virq: u64,
    /// Disk requests completed by the disk server.
    pub disk_ops: u64,
    /// Portal calls (IPC rendezvous) performed.
    pub ipc_calls: u64,
    /// Hypercalls executed.
    pub hypercalls: u64,

    /// Watchdog deadlines that expired and signalled a supervisor.
    pub watchdog_fires: u64,
    /// Protection-domain faults reported to supervisors.
    pub pd_deaths: u64,
    /// Driver/server restarts performed by a supervisor.
    pub driver_restarts: u64,
    /// Cross-PD requests that timed out awaiting completion.
    pub request_timeouts: u64,
    /// Re-submissions of timed-out or error-completed requests.
    pub request_retries: u64,
    /// Requests degraded to an error reply after recovery gave up.
    pub degraded_errors: u64,
    /// Spurious device interrupts absorbed by drivers.
    pub spurious_irqs: u64,
    /// Device controller resets performed during recovery.
    pub controller_resets: u64,
    /// Malformed guest inputs rejected by a validator (per-request
    /// degradation, not a kill).
    pub guest_faults_rejected: u64,
    /// Structured VM kills filed by VMMs (Byzantine-guest
    /// containment).
    pub vm_kills: u64,
    /// Hypercalls refused because a PD exhausted its kernel-object
    /// quota.
    pub quota_rejections: u64,
    /// VMM checkpoints captured by the supervisor.
    pub checkpoints_taken: u64,
    /// 4 KB guest pages those checkpoints copied: only the pages
    /// written since the previous capture are.
    pub checkpoint_pages_copied: u64,
    /// VMM incarnations started beyond the first (microreboots).
    pub vmm_restarts: u64,
    /// Escalation-ladder transitions (resume → cold reboot → failed).
    pub escalations: u64,

    /// Cycles spent in guest/host transitions (Section 8.5: 26%).
    pub cycles_transition: Cycles,
    /// Cycles spent transferring state via IPC (Section 8.5: 15%).
    pub cycles_ipc: Cycles,
    /// Cycles spent in VMM instruction/device emulation (59%).
    pub cycles_emulation: Cycles,
    /// Cycles spent in hypervisor-internal handling (vTLB and
    /// interrupt paths).
    pub cycles_kernel: Cycles,
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

    /// Counter-wise difference against an `earlier` snapshot: what
    /// happened between the two points. Every field saturates at zero,
    /// so a reset between the snapshots degrades to the current value
    /// instead of wrapping.
    pub fn delta(&self, earlier: &Counters) -> Counters {
        let mut d = self.clone();
        for (i, e) in earlier.exits.iter().enumerate() {
            d.exits[i] = d.exits[i].saturating_sub(*e);
        }
        d.vtlb_fills = d.vtlb_fills.saturating_sub(earlier.vtlb_fills);
        d.vtlb_flushes = d.vtlb_flushes.saturating_sub(earlier.vtlb_flushes);
        d.vtlb_switch_hits = d.vtlb_switch_hits.saturating_sub(earlier.vtlb_switch_hits);
        d.vtlb_switch_misses = d
            .vtlb_switch_misses
            .saturating_sub(earlier.vtlb_switch_misses);
        d.vtlb_shadow_evictions = d
            .vtlb_shadow_evictions
            .saturating_sub(earlier.vtlb_shadow_evictions);
        d.guest_page_faults = d
            .guest_page_faults
            .saturating_sub(earlier.guest_page_faults);
        d.injected_virq = d.injected_virq.saturating_sub(earlier.injected_virq);
        d.disk_ops = d.disk_ops.saturating_sub(earlier.disk_ops);
        d.ipc_calls = d.ipc_calls.saturating_sub(earlier.ipc_calls);
        d.hypercalls = d.hypercalls.saturating_sub(earlier.hypercalls);
        d.watchdog_fires = d.watchdog_fires.saturating_sub(earlier.watchdog_fires);
        d.pd_deaths = d.pd_deaths.saturating_sub(earlier.pd_deaths);
        d.driver_restarts = d.driver_restarts.saturating_sub(earlier.driver_restarts);
        d.request_timeouts = d.request_timeouts.saturating_sub(earlier.request_timeouts);
        d.request_retries = d.request_retries.saturating_sub(earlier.request_retries);
        d.degraded_errors = d.degraded_errors.saturating_sub(earlier.degraded_errors);
        d.spurious_irqs = d.spurious_irqs.saturating_sub(earlier.spurious_irqs);
        d.controller_resets = d
            .controller_resets
            .saturating_sub(earlier.controller_resets);
        d.guest_faults_rejected = d
            .guest_faults_rejected
            .saturating_sub(earlier.guest_faults_rejected);
        d.vm_kills = d.vm_kills.saturating_sub(earlier.vm_kills);
        d.quota_rejections = d.quota_rejections.saturating_sub(earlier.quota_rejections);
        d.checkpoints_taken = d
            .checkpoints_taken
            .saturating_sub(earlier.checkpoints_taken);
        d.checkpoint_pages_copied = d
            .checkpoint_pages_copied
            .saturating_sub(earlier.checkpoint_pages_copied);
        d.vmm_restarts = d.vmm_restarts.saturating_sub(earlier.vmm_restarts);
        d.escalations = d.escalations.saturating_sub(earlier.escalations);
        d.cycles_transition = d
            .cycles_transition
            .saturating_sub(earlier.cycles_transition);
        d.cycles_ipc = d.cycles_ipc.saturating_sub(earlier.cycles_ipc);
        d.cycles_emulation = d.cycles_emulation.saturating_sub(earlier.cycles_emulation);
        d.cycles_kernel = d.cycles_kernel.saturating_sub(earlier.cycles_kernel);
        d
    }

    /// Resets everything (between benchmark phases).
    pub fn reset(&mut self) {
        *self = Counters::default();
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
        c.reset();
        assert_eq!(c.total_exits(), 0);
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

    #[test]
    fn snapshot_delta_isolates_a_phase() {
        let mut c = Counters::new();
        c.count_exit(&ExitReason::Hlt { len: 1 });
        c.ipc_calls = 5;
        c.cycles_kernel = 100;
        let snap = c.snapshot();
        c.count_exit(&ExitReason::Hlt { len: 1 });
        c.count_exit(&ExitReason::Cpuid { len: 2 });
        c.ipc_calls = 9;
        c.cycles_kernel = 250;
        let d = c.delta(&snap);
        assert_eq!(d.total_exits(), 2);
        assert_eq!(d.exits_of(ExitReason::Hlt { len: 1 }.index()), 1);
        assert_eq!(d.ipc_calls, 4);
        assert_eq!(d.cycles_kernel, 150);
        // A reset between snapshots saturates instead of wrapping.
        let big = c.snapshot();
        c.reset();
        let d2 = c.delta(&big);
        assert_eq!(d2.total_exits(), 0);
        assert_eq!(d2.ipc_calls, 0);
    }
}
