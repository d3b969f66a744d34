//! Simulated x86 hardware platform for the NOVA reproduction.
//!
//! This crate substitutes for the physical evaluation machines of the
//! paper (Section 8, Table 1): a cycle-accounting CPU core interpreting
//! real x86 machine code, VT-x-like virtualization extensions (VMCS,
//! intercept controls, VM exits, VPID-tagged TLB), an MMU performing
//! two-level guest page walks and nested EPT/NPT walks, an IOMMU that
//! enforces DMA remapping on every device transaction, interrupt
//! controllers, timers, and device models (AHCI disk controller, NIC
//! with interrupt coalescing, serial port, VGA text buffer, PCI
//! configuration space).
//!
//! All timing flows from [`cost::CostModel`], whose per-generation
//! constants are anchored to the paper's measured transition costs
//! (Figures 8 and 9, Section 8.5).

#![forbid(unsafe_code)]

pub mod ahci;
pub mod blockcache;
pub mod cost;
pub mod cpu;
pub mod device;
pub mod event;
pub mod fault;
pub mod guestfault;
pub mod iommu;
pub mod kbd;
pub mod machine;
pub mod mem;
pub mod mmu;
pub mod nic;
pub mod pci;
pub mod pic;
pub mod pit;
pub mod platform;
pub mod pv;
pub mod serial;
pub mod tlb;
pub mod vga;
pub mod vmx;

/// CPU clock cycles — the unit of all simulated time.
pub type Cycles = u64;

/// Host-physical address.
pub type PAddr = u64;

pub use cost::CostModel;
pub use guestfault::{GuestFault, GuestSurface, VmKill};
pub use machine::Machine;
