//! The repository's benchmark: six workloads, two clocks, every layer
//! measured from outside through public functions and counters. See
//! `README.md` for the metric map and how to run, read and compare.

pub mod compare;
pub mod harness;
pub mod json;
pub mod layers;
pub mod report;
pub mod run;
pub mod traced;
pub mod workloads;

#[global_allocator]
static ALLOC: harness::CountingAlloc = harness::CountingAlloc;
