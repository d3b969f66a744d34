//! What only the traced run can give: the per-layer split of simulated
//! cycles along each request's critical path, the §8.5 cost shares and
//! request-latency percentiles, all read from the simulator's own
//! trace — plus the writer of the benchmark's host-time span file.

use nova_trace::causal::{self, Layer, SpanNode};
use nova_trace::json::Json;
use nova_trace::{names, query, Kind, Tracer};

use crate::harness::{Checks, Spans};
use crate::workloads::Workload;

fn contains(nodes: &[SpanNode], kind: Kind) -> bool {
    nodes
        .iter()
        .any(|n| n.kind == kind || contains(&n.children, kind))
}

/// Per-layer numbers of one traced run. A dropped event makes every
/// number here wrong, so it is a failure, not a footnote.
pub fn analyse(tracer: &Tracer, w: Workload, checks: &mut Checks) -> Vec<(&'static str, f64)> {
    let events = tracer.events();
    let dropped = tracer.dropped();
    checks.check(dropped == 0, || {
        format!("trace ring dropped {dropped} events")
    });

    // A "request" is a disk request where the workload has them (its
    // tree holds a hardware I/O window), else one VM exit.
    let marker = if w.is_compile() || w == Workload::ExitStorm {
        Kind::VmExit
    } else {
        Kind::HwIo
    };
    let mut layers = [0u64; causal::LAYER_COUNT];
    let mut latencies = Vec::new();
    for tree in causal::request_trees(&events) {
        if tree.class == marker || contains(&tree.roots, marker) {
            for (acc, l) in layers.iter_mut().zip(tree.layers) {
                *acc += l;
            }
            latencies.push(tree.end_to_end());
        }
    }

    let cost = [
        Kind::CostTransition,
        Kind::CostIpc,
        Kind::CostEmulation,
        Kind::CostKernel,
    ]
    .map(|k| query::span_cycles(&events, k));
    let total: u64 = cost.iter().sum();
    let share = |c: u64| c as f64 / total.max(1) as f64;

    vec![
        (
            "sim.layer.kernel_cycles",
            layers[Layer::Kernel as usize] as f64,
        ),
        ("sim.layer.ipc_cycles", layers[Layer::Ipc as usize] as f64),
        ("sim.layer.vmm_cycles", layers[Layer::Vmm as usize] as f64),
        (
            "sim.layer.driver_cycles",
            layers[Layer::Driver as usize] as f64,
        ),
        ("sim.layer.hw_cycles", layers[Layer::Hw as usize] as f64),
        ("sim.s85.transition_share", share(cost[0])),
        ("sim.s85.ipc_share", share(cost[1])),
        ("sim.s85.emulation_share", share(cost[2])),
        ("sim.s85.kernel_share", share(cost[3])),
        (
            "sim.req.p50_cycles",
            query::percentile(&latencies, 50) as f64,
        ),
        (
            "sim.req.p99_cycles",
            query::percentile(&latencies, 99) as f64,
        ),
        (
            "sim_restore_latency_cycles",
            tracer.metrics.total_sum(names::RESTORE_LATENCY_CYCLES) as f64,
        ),
        ("trace.events", events.len() as f64),
        ("trace.dropped", dropped as f64),
    ]
}

/// The benchmark's own spans of one traced repetition, as JSON:
/// name, start, end, parent and workload for every call it made into
/// a layer.
pub fn spans_json(w: Workload, spans: &Spans, numbers: &[(&'static str, f64)]) -> Json {
    let rows = spans
        .spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            Json::obj()
                .field("id", Json::U64(id as u64))
                .field("name", Json::from(s.name))
                .field(
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                )
                .field("workload", Json::from(w.name()))
                .field("start_ns", Json::U64(s.start_ns))
                .field("end_ns", Json::U64(s.end_ns))
        })
        .collect();
    let mut sim = Json::obj();
    for (name, v) in numbers {
        sim = sim.field(name, Json::F64(*v));
    }
    Json::obj()
        .field("workload", Json::from(w.name()))
        .field("clock", Json::from("host ns since the repetition began"))
        .field("spans", Json::Arr(rows))
        .field("traced_run", sim)
}
