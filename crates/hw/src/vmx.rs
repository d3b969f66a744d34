//! Hardware virtualization extension: VMCS, intercept controls and VM
//! exit reasons (the Intel VT-x / AMD-V model of the paper).
//!
//! The virtual-machine control structure holds the guest's register
//! state plus the controls the hypervisor programs: the I/O intercept
//! bitmap, exception intercepts, instruction intercepts, the nested
//! paging or shadow-paging root, the VPID tag, pending event injection,
//! and the preemption quantum. Reading guest state out of the VMCS
//! costs [`crate::cost::CostModel::vmread`] per field group — the paper
//! optimizes exactly this with per-portal message transfer descriptors
//! (Section 5.2).

use nova_x86::paging::{Access, NestedFormat};
use nova_x86::reg::Regs;

use crate::{Cycles, PAddr};

/// Guest-state field groups, the granularity of VMREAD/VMWRITE and of
/// the message transfer descriptor (MTD) stored in NOVA portals.
pub mod mtd {
    /// EAX, ECX, EDX, EBX.
    pub const GPR_ACDB: u32 = 1 << 0;
    /// EBP, ESI, EDI.
    pub const GPR_BSD: u32 = 1 << 1;
    /// ESP.
    pub const ESP: u32 = 1 << 2;
    /// EIP and instruction length.
    pub const EIP: u32 = 1 << 3;
    /// EFLAGS.
    pub const EFL: u32 = 1 << 4;
    /// Control registers CR0, CR2, CR3, CR4.
    pub const CR: u32 = 1 << 5;
    /// IDT register.
    pub const IDT: u32 = 1 << 6;
    /// Exit qualification (fault address, port number, ...).
    pub const QUAL: u32 = 1 << 7;
    /// Interruptibility / activity state.
    pub const STA: u32 = 1 << 8;
    /// Event injection field.
    pub const INJ: u32 = 1 << 9;
    /// Time-stamp counter offset.
    pub const TSC: u32 = 1 << 10;
    /// Every group.
    pub const ALL: u32 = (1 << 11) - 1;

    /// Number of set groups (each costs one VMREAD). Asked twice per
    /// exit, so the eleven group bits index a table rather than run the
    /// baseline target's software popcount; bits outside [`ALL`] — a
    /// hostile VMM's MTD — are counted the slow way, still exactly.
    #[inline]
    pub fn group_count(mtd: u32) -> u32 {
        match GROUPS_SET.get(mtd as usize) {
            Some(n) => *n as u32,
            None => mtd.count_ones(),
        }
    }

    /// [`group_count`] of every value of the eleven group bits.
    const GROUPS_SET: [u8; ALL as usize + 1] = {
        let mut t = [0u8; ALL as usize + 1];
        let mut i = 1;
        while i < t.len() {
            t[i] = t[i >> 1] + (i & 1) as u8;
            i += 1;
        }
        t
    };
}

/// Why a virtual CPU left guest mode. Mirrors the paper's Table 2 event
/// classes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExitReason {
    /// A physical interrupt arrived while the virtual CPU ran.
    ExtInt {
        /// Vector acknowledged from the platform interrupt controller.
        vector: u8,
    },
    /// The guest opened its interrupt window after an injection was
    /// requested.
    IntWindow,
    /// CPUID executed.
    Cpuid {
        /// Instruction length (hardware-reported).
        len: u8,
    },
    /// HLT executed.
    Hlt {
        /// Instruction length.
        len: u8,
    },
    /// INVLPG executed (intercepted only in vTLB mode).
    Invlpg {
        /// The linear address being invalidated.
        addr: u32,
        /// Instruction length.
        len: u8,
    },
    /// MOV to/from a control register.
    MovCr {
        /// Control register number.
        cr: u8,
        /// `true` for MOV to CR (write).
        write: bool,
        /// The GPR operand.
        gpr: nova_x86::Reg,
        /// Instruction length.
        len: u8,
    },
    /// IN/OUT hit an intercepted port.
    IoPort {
        /// Port number.
        port: u16,
        /// Operand size.
        size: nova_x86::OpSize,
        /// `true` for OUT.
        write: bool,
        /// Instruction length.
        len: u8,
    },
    /// A guest-physical access missed the nested page table (MMIO or an
    /// unbacked page). The VMM decodes the faulting instruction.
    EptViolation {
        /// Guest-physical address.
        gpa: u64,
        /// The offending access.
        access: Access,
    },
    /// #PF intercepted (vTLB / shadow-paging mode only).
    PageFault {
        /// Faulting linear address (would-be CR2).
        addr: u32,
        /// Architectural error code.
        err: u32,
    },
    /// VMCALL from an enlightened guest.
    Vmcall {
        /// Instruction length.
        len: u8,
    },
    /// RDTSC executed (intercepted only when configured).
    Rdtsc {
        /// Instruction length.
        len: u8,
    },
    /// The hypervisor recalled this virtual CPU (Section 7.5).
    Recall,
    /// The preemption quantum expired.
    Preempt,
    /// The guest triple-faulted; the VMM decides what to do.
    TripleFault,
}

impl ExitReason {
    /// Stable index for per-reason counting (Table 2 rows).
    pub fn index(&self) -> usize {
        match self {
            ExitReason::ExtInt { .. } => 0,
            ExitReason::IntWindow => 1,
            ExitReason::Cpuid { .. } => 2,
            ExitReason::Hlt { .. } => 3,
            ExitReason::Invlpg { .. } => 4,
            ExitReason::MovCr { .. } => 5,
            ExitReason::IoPort { .. } => 6,
            ExitReason::EptViolation { .. } => 7,
            ExitReason::PageFault { .. } => 8,
            ExitReason::Vmcall { .. } => 9,
            ExitReason::Rdtsc { .. } => 10,
            ExitReason::Recall => 11,
            ExitReason::Preempt => 12,
            ExitReason::TripleFault => 13,
        }
    }

    /// Number of distinct exit reasons.
    pub const COUNT: usize = 14;

    /// Human-readable name (Table 2 row labels).
    pub fn name(&self) -> &'static str {
        match self {
            ExitReason::ExtInt { .. } => "Hardware Interrupt",
            ExitReason::IntWindow => "Interrupt Window",
            ExitReason::Cpuid { .. } => "CPUID",
            ExitReason::Hlt { .. } => "HLT",
            ExitReason::Invlpg { .. } => "INVLPG",
            ExitReason::MovCr { .. } => "CR Read/Write",
            ExitReason::IoPort { .. } => "Port I/O",
            ExitReason::EptViolation { .. } => "Memory-Mapped I/O",
            ExitReason::PageFault { .. } => "Page Fault",
            ExitReason::Vmcall { .. } => "VMCALL",
            ExitReason::Rdtsc { .. } => "RDTSC",
            ExitReason::Recall => "Recall",
            ExitReason::Preempt => "Preemption",
            ExitReason::TripleFault => "Triple Fault",
        }
    }
}

/// Memory-virtualization mode of a VMCS.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PagingVirt {
    /// Hardware nested paging; the root of the host dimension and its
    /// format.
    Nested {
        /// Physical address of the EPT/NPT root table.
        root: PAddr,
        /// Table format (Intel 4-level or AMD 2-level).
        fmt: NestedFormat,
    },
    /// Software shadow paging (vTLB): the hardware walks only the
    /// shadow table; #PF always exits.
    Shadow {
        /// Physical address of the active shadow page table.
        root: PAddr,
    },
}

/// An event pending injection into the guest on the next VM entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Injection {
    /// Vector to deliver.
    pub vector: u8,
    /// Error code, for faulting exceptions.
    pub error_code: Option<u32>,
}

/// The virtual-machine control structure of one virtual CPU.
#[derive(Clone, Debug)]
pub struct Vmcs {
    /// Guest architectural registers.
    pub guest: Regs,
    /// Memory-virtualization configuration.
    pub paging: PagingVirt,
    /// VPID / ASID tag; 0 disables tagging (forcing TLB flushes on
    /// every transition, the "w/o VPID" configuration of Figure 5).
    pub vpid: u16,
    /// Intercepted I/O ports. `None` = intercept everything (the
    /// full-virtualization default); `Some(bitmap)` with clear bits for
    /// directly assigned ports.
    pub io_passthrough: Vec<u64>,
    /// Intercept HLT.
    pub intercept_hlt: bool,
    /// Exit on physical interrupts (cleared only for the paper's
    /// exit-free "Direct" configuration, which delivers them through
    /// the guest IDT).
    pub intercept_extint: bool,
    /// Intercept MOV CR and INVLPG (required in shadow mode).
    pub intercept_cr: bool,
    /// Intercept #PF (required in shadow mode).
    pub intercept_pf: bool,
    /// Intercept RDTSC.
    pub intercept_rdtsc: bool,
    /// Exit when the guest opens its interrupt window.
    pub intwin_exit: bool,
    /// Event injected on next entry.
    pub injection: Option<Injection>,
    /// Guest is halted (activity state).
    pub halted: bool,
    /// Guest is in the one-instruction STI shadow.
    pub sti_shadow: bool,
    /// Remaining preemption quantum in cycles (None = no preemption).
    pub quantum: Option<Cycles>,
    /// Recall request pin: forces an exit before the next instruction.
    pub recall_pending: bool,
    /// TSC offset added to RDTSC results.
    pub tsc_offset: u64,
    /// Exit-information field: why the last VM exit happened. The CPU
    /// writes it once per exit, where the exit is raised; the
    /// hypervisor reads it in place (VT-x's exit-reason field).
    pub exit: ExitReason,
}

impl Vmcs {
    /// Creates a VMCS with full-virtualization defaults: everything
    /// intercepted, no ports passed through.
    pub fn new(paging: PagingVirt, vpid: u16) -> Vmcs {
        Vmcs {
            guest: Regs::default(),
            paging,
            vpid,
            io_passthrough: vec![0; 1024], // 65536 ports / 64
            intercept_hlt: true,
            intercept_extint: true,
            intercept_cr: false,
            intercept_pf: false,
            intercept_rdtsc: false,
            intwin_exit: false,
            injection: None,
            halted: false,
            sti_shadow: false,
            quantum: None,
            recall_pending: false,
            tsc_offset: 0,
            exit: ExitReason::Preempt,
        }
    }

    /// Creates a shadow-paging VMCS with the CR/#PF intercepts the vTLB
    /// algorithm requires.
    pub fn new_shadow(root: PAddr, vpid: u16) -> Vmcs {
        let mut v = Vmcs::new(PagingVirt::Shadow { root }, vpid);
        v.intercept_cr = true;
        v.intercept_pf = true;
        v
    }

    /// Repoints a shadow-paging VMCS at a (possibly different) shadow
    /// root and its TLB tag — the vTLB address-space-switch path, where
    /// the hypervisor swaps cached shadow tables instead of rebuilding
    /// one.
    pub fn set_shadow(&mut self, root: PAddr, vpid: u16) {
        self.paging = PagingVirt::Shadow { root };
        self.vpid = vpid;
    }

    /// Marks the ports `first..first + count` as directly assigned (no
    /// intercept).
    ///
    /// # Panics
    ///
    /// If the range runs past the last port, `0xffff`.
    pub fn passthrough_ports(&mut self, first: u16, count: u16) {
        let end = u32::from(first) + u32::from(count);
        assert!(
            end <= 0x1_0000,
            "ports {first:#x}+{count:#x} run past 0xffff"
        );
        for p in u32::from(first)..end {
            self.io_passthrough[p as usize / 64] |= 1 << (p % 64);
        }
    }

    /// `true` if accessing `port` exits.
    pub fn io_intercepted(&self, port: u16) -> bool {
        io_bitmap_intercepts(&self.io_passthrough, port)
    }
}

/// `true` if `port`'s bit is clear in a [`Vmcs::io_passthrough`]
/// bitmap, i.e. the access exits.
pub(crate) fn io_bitmap_intercepts(passthrough: &[u64], port: u16) -> bool {
    passthrough[port as usize / 64] & (1 << (port % 64)) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_intercepts_all_io() {
        let v = Vmcs::new(
            PagingVirt::Nested {
                root: 0x1000,
                fmt: NestedFormat::Ept4Level,
            },
            1,
        );
        assert!(v.io_intercepted(0x60));
        assert!(v.io_intercepted(0x3f8));
        assert!(v.intercept_hlt);
        assert!(!v.intercept_cr, "CR exits unnecessary with nested paging");
    }

    #[test]
    fn passthrough_clears_intercept() {
        let mut v = Vmcs::new(
            PagingVirt::Nested {
                root: 0,
                fmt: NestedFormat::Ept4Level,
            },
            1,
        );
        v.passthrough_ports(0x1f0, 8);
        assert!(!v.io_intercepted(0x1f0));
        assert!(!v.io_intercepted(0x1f7));
        assert!(v.io_intercepted(0x1f8));
        assert!(v.io_intercepted(0x1ef));
    }

    #[test]
    fn shadow_mode_forces_vtlb_intercepts() {
        let v = Vmcs::new_shadow(0x2000, 3);
        assert!(v.intercept_cr);
        assert!(v.intercept_pf);
    }

    #[test]
    fn mtd_group_count() {
        assert_eq!(mtd::group_count(mtd::ALL), 11);
        assert_eq!(mtd::group_count(mtd::GPR_ACDB | mtd::EIP), 2);
        assert_eq!(mtd::group_count(0), 0);
        for v in 0..=mtd::ALL {
            assert_eq!(mtd::group_count(v), v.count_ones(), "{v:#x}");
        }
        // Bits beyond the groups still count.
        for v in [mtd::ALL + 1, u32::MAX, 1 << 31 | mtd::EIP, 0x0001_0801] {
            assert_eq!(mtd::group_count(v), v.count_ones(), "{v:#x}");
        }
    }

    #[test]
    fn exit_reason_indices_unique() {
        let reasons = [
            ExitReason::ExtInt { vector: 0 },
            ExitReason::IntWindow,
            ExitReason::Cpuid { len: 2 },
            ExitReason::Hlt { len: 1 },
            ExitReason::Invlpg { addr: 0, len: 3 },
            ExitReason::MovCr {
                cr: 0,
                write: false,
                gpr: nova_x86::Reg::Eax,
                len: 3,
            },
            ExitReason::IoPort {
                port: 0,
                size: nova_x86::OpSize::Byte,
                write: false,
                len: 1,
            },
            ExitReason::EptViolation {
                gpa: 0,
                access: Access::READ,
            },
            ExitReason::PageFault { addr: 0, err: 0 },
            ExitReason::Vmcall { len: 3 },
            ExitReason::Rdtsc { len: 2 },
            ExitReason::Recall,
            ExitReason::Preempt,
            ExitReason::TripleFault,
        ];
        let mut seen = std::collections::HashSet::new();
        for r in reasons {
            assert!(seen.insert(r.index()), "duplicate index for {r:?}");
            assert!(r.index() < ExitReason::COUNT);
            assert!(!r.name().is_empty());
        }
        assert_eq!(seen.len(), ExitReason::COUNT);
    }
}
