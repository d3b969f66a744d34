//! Guest operating system and benchmark workloads, written in the
//! simulated x86 subset via the assembler.
//!
//! The guest OS substitutes for the paper's unmodified Linux 2.6.32:
//! it boots multiboot-style from the virtual BIOS, installs a real IDT
//! and remaps the PICs, optionally enables paging with 4 MB kernel
//! mappings and a demand-paging #PF handler, and drives the AHCI disk
//! controller and the NIC with the same register-level protocols as
//! the host drivers. The workloads reproduce the trap mix of the
//! paper's benchmarks: the kernel-compile-like process churn
//! (Figure 5, Table 2), the direct-I/O disk reader (Figure 6), the UDP
//! receiver (Figure 7), and a multiprocessor TLB-shootdown exercise
//! (Section 7.5).

#![forbid(unsafe_code)]

pub mod compile;
pub mod diskload;
pub mod hostile;
pub mod mp;
pub mod netload;
pub mod os;
pub mod pvdiskload;
pub mod pvnetload;
pub mod rt;

pub use os::{build_os, OsParams};
