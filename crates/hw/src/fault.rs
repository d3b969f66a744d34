//! Deterministic, seeded fault injection for the simulated platform.
//!
//! Real hardware fails: disks report task-file errors, completion
//! interrupts get lost or fire spuriously, DMA engines wedge, NICs
//! drop or corrupt packets, and the IOMMU blocks transfers. NOVA's
//! architectural claim is that user-level drivers and VMMs *contain*
//! those failures; this module makes them injectable so the claim is
//! continuously exercised rather than merely asserted.
//!
//! A [`FaultPlan`] attaches to the machine ([`crate::machine::Machine::
//! set_fault_plan`]) and drives a [`FaultInjector`] carried on the
//! device bus. Devices consult the injector at their fault sites
//! through [`crate::device::DevCtx`]. Injection is a pure function of
//! the plan's seed and the (deterministic) simulation schedule, so the
//! same seed always reproduces the same fault trace — a requirement
//! for debugging recovery paths.

use crate::Cycles;

/// The kinds of fault the platform can inject.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// AHCI completes a valid command with a task-file error (TFES)
    /// instead of data.
    AhciTaskFileError = 0,
    /// AHCI completes a command (data moved, CI cleared) but the
    /// completion interrupt is lost.
    AhciLostIrq = 1,
    /// AHCI raises an interrupt with no completion pending.
    AhciSpuriousIrq = 2,
    /// AHCI accepts a command but the DMA engine wedges: the request
    /// never completes until the controller is reset (GHC.HR).
    AhciStuckDma = 3,
    /// The NIC drops an inbound packet.
    NicPacketDrop = 4,
    /// The NIC delivers a packet with corrupted payload.
    NicPacketCorrupt = 5,
    /// A DMA transaction is blocked at the IOMMU (recorded as a
    /// [`crate::iommu::DmaFault`]), as if the mapping were stale.
    IommuFault = 6,
    /// A user-level VMM dies mid-exit: the kernel faults the VMM's PD
    /// just before delivering a VM exit to it, as if the VMM process
    /// had crashed. Exercises the root supervisor's microreboot path.
    VmmCrash = 7,
}

/// Number of fault kinds.
pub const KINDS: usize = 8;

/// All kinds, in discriminant order.
pub const ALL_KINDS: [FaultKind; KINDS] = [
    FaultKind::AhciTaskFileError,
    FaultKind::AhciLostIrq,
    FaultKind::AhciSpuriousIrq,
    FaultKind::AhciStuckDma,
    FaultKind::NicPacketDrop,
    FaultKind::NicPacketCorrupt,
    FaultKind::IommuFault,
    FaultKind::VmmCrash,
];

/// A seeded schedule of faults: per-kind probabilities and caps.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// PRNG seed; the same seed reproduces the same fault schedule.
    pub seed: u64,
    /// Per-kind injection probability in units of 1/65536 per fault
    /// site visit (0 = never, 65536 = always).
    pub rate: [u32; KINDS],
    /// Per-kind cap on total injections (`u64::MAX` = unlimited).
    pub max: [u64; KINDS],
}

impl FaultPlan {
    /// A plan that injects nothing (the default for every machine).
    pub fn none() -> FaultPlan {
        FaultPlan {
            seed: 0,
            rate: [0; KINDS],
            max: [u64::MAX; KINDS],
        }
    }

    /// An empty plan with the given seed; add kinds with
    /// [`FaultPlan::with`].
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::none()
        }
    }

    /// Enables `kind` at `rate_per_64k`/65536 probability, capped at
    /// `max` total injections.
    pub fn with(mut self, kind: FaultKind, rate_per_64k: u32, max: u64) -> FaultPlan {
        self.rate[kind as usize] = rate_per_64k;
        self.max[kind as usize] = max;
        self
    }

    /// `true` if any kind can fire.
    pub fn active(&self) -> bool {
        self.rate.iter().any(|&r| r > 0)
    }
}

/// One injected fault, in order of injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRecord {
    /// Simulation cycle at which the fault was injected.
    pub at: Cycles,
    /// The kind injected.
    pub kind: FaultKind,
    /// Site-specific detail (slot, sequence number, bus address…).
    pub detail: u64,
}

/// The injector: plan + PRNG state + accounting.
pub struct FaultInjector {
    plan: FaultPlan,
    state: u64,
    /// Per-kind injected counts (indexed by `FaultKind as usize`).
    pub injected: [u64; KINDS],
    /// Ordered trace of every injected fault (determinism checks and
    /// the chaos test's accounting).
    pub trace: Vec<FaultRecord>,
}

impl FaultInjector {
    /// Builds an injector for `plan`.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector {
            plan,
            // splitmix-style seed conditioning so seed 0 works too.
            state: plan.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1,
            injected: [0; KINDS],
            trace: Vec::new(),
        }
    }

    /// An injector that never fires.
    pub fn disabled() -> FaultInjector {
        FaultInjector::new(FaultPlan::none())
    }

    /// The active plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Consults the plan at a fault site: returns `true` if the fault
    /// should be injected now, recording it in the counters and trace.
    #[inline]
    pub fn roll(&mut self, now: Cycles, kind: FaultKind, detail: u64) -> bool {
        let k = kind as usize;
        let rate = self.plan.rate[k];
        if rate == 0 || self.injected[k] >= self.plan.max[k] {
            return false;
        }
        let hit = (self.next() & 0xffff) < rate as u64;
        if hit {
            self.injected[k] += 1;
            self.trace.push(FaultRecord {
                at: now,
                kind,
                detail,
            });
        }
        hit
    }

    /// Injected count for one kind.
    pub fn count(&self, kind: FaultKind) -> u64 {
        self.injected[kind as usize]
    }

    /// Total faults injected across all kinds.
    pub fn total(&self) -> u64 {
        self.injected.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_fires() {
        let mut f = FaultInjector::disabled();
        for i in 0..10_000 {
            assert!(!f.roll(i, FaultKind::AhciTaskFileError, 0));
        }
        assert_eq!(f.total(), 0);
        assert!(f.trace.is_empty());
    }

    #[test]
    fn rates_and_caps_respected() {
        let plan = FaultPlan::seeded(42)
            .with(FaultKind::NicPacketDrop, 65536, 5)
            .with(FaultKind::AhciLostIrq, 32768, u64::MAX);
        let mut f = FaultInjector::new(plan);
        for i in 0..1000 {
            f.roll(i, FaultKind::NicPacketDrop, i);
            f.roll(i, FaultKind::AhciLostIrq, i);
        }
        assert_eq!(f.count(FaultKind::NicPacketDrop), 5, "cap respected");
        let lost = f.count(FaultKind::AhciLostIrq);
        assert!(
            (300..700).contains(&lost),
            "~half of 1000 rolls at rate 1/2, got {lost}"
        );
        assert_eq!(f.total() as usize, f.trace.len());
    }

    #[test]
    fn same_seed_same_trace() {
        let plan = FaultPlan::seeded(7)
            .with(FaultKind::AhciTaskFileError, 20000, u64::MAX)
            .with(FaultKind::IommuFault, 100, u64::MAX);
        let run = || {
            let mut f = FaultInjector::new(plan);
            for i in 0..500 {
                f.roll(i * 3, FaultKind::AhciTaskFileError, i);
                f.roll(i * 3 + 1, FaultKind::IommuFault, i);
            }
            f.trace
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seed_different_trace() {
        let mk = |seed| {
            let mut f = FaultInjector::new(FaultPlan::seeded(seed).with(
                FaultKind::NicPacketDrop,
                32768,
                u64::MAX,
            ));
            for i in 0..64 {
                f.roll(i, FaultKind::NicPacketDrop, i);
            }
            f.trace
        };
        assert_ne!(mk(1), mk(2));
    }
}
