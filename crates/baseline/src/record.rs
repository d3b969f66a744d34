//! What a run of a guest image reports, whichever stack ran it.

use nova_core::Counters;
use nova_hw::machine::Machine;
use nova_hw::Cycles;

/// The record of one run: the same fields for the bare machine, the
/// Direct limit, the monolithic baseline and NOVA.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Configuration label.
    pub label: String,
    /// The guest shut down with exit code 0.
    pub ok: bool,
    /// Wall-clock cycles of the whole run.
    pub cycles: Cycles,
    /// Cycles CPU 0 spent halted.
    pub idle: Cycles,
    /// Instructions CPU 0 retired.
    pub instret: u64,
    /// Event counters, if the run had a hypervisor.
    pub counters: Option<Counters>,
    /// The guest's serial console.
    pub console: String,
    /// Benchmark marks (cycle, value).
    pub marks: Vec<(Cycles, u32)>,
}

impl RunResult {
    /// Reads a finished run off the machine that ran it — its clock,
    /// CPU 0's idle cycles and retired instructions, the marks — and
    /// takes what only the stack knows: the guest's exit code (`None`
    /// if it did not shut down), the counters and the console.
    pub fn new(
        label: &str,
        m: &Machine,
        exit: Option<u8>,
        counters: Option<Counters>,
        console: String,
    ) -> RunResult {
        RunResult {
            label: label.into(),
            ok: exit == Some(0),
            cycles: m.clock,
            idle: m.cpus[0].idle_cycles,
            instret: m.cpus[0].instret,
            counters,
            console,
            marks: m.marks().to_vec(),
        }
    }

    /// Total VM exits (0 without a hypervisor).
    pub fn exits(&self) -> u64 {
        self.counters.as_ref().map_or(0, Counters::total_exits)
    }

    /// CPU utilization over the whole run.
    pub fn utilization(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        (self.cycles - self.idle) as f64 / self.cycles as f64
    }
}
