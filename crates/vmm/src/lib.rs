//! The NOVA user-level virtual-machine monitor (Section 7).
//!
//! One VMM instance manages exactly one virtual machine — the
//! per-VM-VMM isolation of Section 4.2. It creates the VM's protection
//! domain and virtual CPUs, installs the per-vCPU VM-exit portals with
//! per-event message transfer descriptors, emulates sensitive
//! instructions with a decode-and-execute instruction emulator, models
//! virtual devices (interrupt controller, timer, UART, AHCI disk
//! controller, PCI configuration space), integrates the virtual BIOS
//! (Section 7.4), talks to the user-level disk server over IPC
//! (Figure 4), and virtualizes multiprocessor guests with the recall
//! mechanism (Section 7.5).

#![forbid(unsafe_code)]

pub mod bios;
pub mod checkpoint;
pub mod devices;
pub mod diskclient;
pub mod emu;
pub mod exit;
pub mod launch;
pub mod microreboot;
pub mod pvdisk;
pub mod pvnet;
pub mod pvqueue;
pub mod vahci;
pub mod vmm;

pub use checkpoint::Checkpoint;
pub use launch::{LaunchOptions, System};
pub use microreboot::MicrorebootRecipe;
pub use nova_hw::machine::GuestImage;
pub use vmm::{Vmm, VmmConfig};
