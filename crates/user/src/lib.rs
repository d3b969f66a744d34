//! The NOVA user-level environment (Sections 4 and 6): the root
//! partition manager and the deprivileged system services — the disk
//! server and a log service — that provide OS functionality to the
//! rest of the system from outside the hypervisor, keeping the trusted
//! computing base minimal.

#![forbid(unsafe_code)]

pub mod disk;
pub mod log;
pub mod proto;
pub mod root;

pub use disk::DiskServer;
pub use log::LogService;
pub use root::RootPm;
