//! Comparator virtualization architectures for the Figure 5 evaluation:
//!
//! - [`native`]: the bare-metal baseline — the guest image runs
//!   directly on the simulated machine with physical devices.
//! - [`monolithic`]: a KVM-like monolithic hypervisor — virtualization
//!   support, instruction emulation, device models and host drivers in
//!   one privileged component. No IPC, no decomposition; the
//!   architectural contrast to NOVA (Section 3.2, Figure 1). Also
//!   models the paravirtualized Xen-PV / L4Linux configurations via
//!   its cost knobs.
//! - [`record`]: the [`RunResult`] every stack's run reports, NOVA's
//!   and the Direct limit's included.

#![forbid(unsafe_code)]

pub mod monolithic;
pub mod native;
pub mod record;

pub use monolithic::{MonoConfig, MonoModel, Monolithic};
pub use native::run_native_image;
pub use record::RunResult;
