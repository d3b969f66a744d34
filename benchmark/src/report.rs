//! Turns repetitions into named metrics: the end-to-end table of each
//! workload, its per-layer table, and their JSON forms.

use nova_trace::json::Json;

use crate::harness::{Checks, Stats};
use crate::workloads::{Rep, Workload};

/// One reported number.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name, or `-` for a metric of the machine or a layer
    /// that no workload parameterizes.
    pub workload: String,
    /// Metric name, as in `BENCHMARK.json`.
    pub metric: String,
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Median and quartiles of the samples behind a microbenchmark
    /// (informational: the value itself is the fastest sample).
    pub spread: Option<Stats>,
    /// The same estimate from the even and from the odd repetitions.
    pub halves: Option<(f64, f64)>,
    /// A pure function of the inputs: identical on every run of one
    /// seed, so two commits compare exactly.
    pub exact: bool,
}

impl Row {
    /// A workload-independent per-layer metric: the best sample, with
    /// the spread beside it.
    pub fn layer(metric: &str, unit: &'static str, s: Stats) -> Row {
        Row {
            spread: Some(s),
            ..Row::derived(metric, unit, s.best)
        }
    }

    /// A workload-independent metric computed from other metrics.
    pub fn derived(metric: &str, unit: &'static str, value: f64) -> Row {
        Row {
            workload: "-".into(),
            metric: metric.into(),
            value,
            unit,
            spread: None,
            halves: None,
            exact: false,
        }
    }

    fn exact(w: Workload, metric: &str, value: f64) -> Row {
        Row {
            exact: true,
            ..Row::of(w, metric, sim_unit(metric), value)
        }
    }

    fn of(w: Workload, metric: &str, unit: &'static str, value: f64) -> Row {
        Row {
            workload: w.name().into(),
            ..Row::derived(metric, unit, value)
        }
    }

    /// The same metric, reported for workload `w`.
    pub fn for_workload(mut self, w: Workload) -> Row {
        self.workload = w.name().into();
        self
    }
}

/// Units of the exact numbers a repetition reports.
fn sim_unit(name: &str) -> &'static str {
    if name.ends_with("_per_kinsn") {
        "1/kinsn"
    } else if name.ends_with("_mb") {
        "MB"
    } else if name.ends_with("_pct") {
        "%"
    } else if name.ends_with("_rate") || name.ends_with("_share") || name.ends_with("_mean") {
        "ratio"
    } else if name.ends_with("_bytes") {
        "bytes"
    } else if name.contains("cycles") {
        "cycles"
    } else {
        "count"
    }
}

/// Names in a repetition's `sim` list that are end-to-end metrics on
/// every workload (the rest are per-layer counts).
const SIM_END_TO_END: [&str; 4] = [
    "sim_cycles",
    "sim_cpu_util_pct",
    "sim_exits_per_request",
    "sim_cycles_per_exit",
];

const MB: f64 = (1u64 << 20) as f64;

/// The interference-free host time of a run repeated several times:
/// every repetition runs the same slices of simulated work, so each
/// slice is as fast as its fastest repetition, and the run is the sum
/// of those. Falls back to the fastest whole repetition if the
/// repetitions disagree on the slicing (then they are not
/// deterministic, and the exactness check says so).
pub fn floor_ns<'a>(runs: impl IntoIterator<Item = &'a [u64]>) -> f64 {
    let runs: Vec<&[u64]> = runs.into_iter().collect();
    let n = runs.first().map_or(0, |r| r.len());
    if runs.iter().any(|r| r.len() != n) {
        return runs
            .iter()
            .map(|r| r.iter().sum::<u64>())
            .min()
            .unwrap_or(0) as f64;
    }
    (0..n)
        .map(|i| runs.iter().map(|r| r[i]).min().unwrap_or(0))
        .sum::<u64>() as f64
}

fn run_floor_ns<'a>(reps: impl IntoIterator<Item = &'a Rep>) -> f64 {
    floor_ns(reps.into_iter().map(|r| r.slices_ns.as_slice()))
}

/// The run-time and set-up metrics of a set of repetitions of one
/// seed: `(name, unit, value)`.
///
/// Host interference only ever adds time and the simulated work is
/// identical, so run time is the slice-wise floor and set-up the
/// fastest set-up.
fn timings(reps: &[&Rep]) -> [(&'static str, &'static str, f64); 4] {
    let first = reps[0];
    let run_ns = run_floor_ns(reps.iter().copied());
    let setup = reps
        .iter()
        .map(|r| r.setup_s())
        .fold(f64::INFINITY, f64::min);
    [
        ("setup_s", "s", setup),
        (
            "guest_mips",
            "MIPS",
            first.sim("hw.cpu.instret") * 1e3 / run_ns,
        ),
        (
            "host_ns_per_exit",
            "ns",
            run_ns / first.sim("core.exits.total"),
        ),
        ("host_us_per_request", "us", run_ns / 1e3 / first.ops as f64),
    ]
}

/// The end-to-end table of one workload from its untraced
/// repetitions, and the check that everything exact repeated exactly.
///
/// Beside each timing ride the same estimate made from the even and
/// from the odd repetitions alone: how far those two disagree is how
/// well the repetitions resolve the value.
pub fn end_to_end(w: Workload, reps: &[Rep], checks: &mut Checks) -> Vec<Row> {
    let first = &reps[0];
    for r in reps {
        checks.absorb(&r.checks);
        checks.check(
            r.sim == first.sim && (r.allocs, r.alloc_bytes) == (first.allocs, first.alloc_bytes),
            || format!("{}: exact metrics differ between repetitions", w.name()),
        );
    }
    let half = |parity: usize| {
        let part: Vec<&Rep> = reps.iter().skip(parity).step_by(2).collect();
        (reps.len() >= 2).then(|| timings(&part))
    };
    let (even, odd) = (half(0), half(1));
    let mut rows: Vec<Row> = timings(&reps.iter().collect::<Vec<_>>())
        .into_iter()
        .enumerate()
        .map(|(i, (name, unit, value))| Row {
            halves: even.zip(odd).map(|(a, b)| (a[i].2, b[i].2)),
            ..Row::of(w, name, unit, value)
        })
        .collect();

    // Memory the allocator kept from earlier work only adds to a peak
    // (in the whole-set run only the first round is free of the heap
    // other workloads left behind): the smallest peak is the workload's.
    let rss = reps
        .iter()
        .map(|r| r.peak_rss_mb)
        .fold(f64::INFINITY, f64::min);
    rows.push(Row::of(w, "peak_rss_mb", "MB", rss));
    let instret = first.sim("hw.cpu.instret");
    rows.push(Row::exact(
        w,
        "host_allocs_per_kinsn",
        first.allocs as f64 * 1e3 / instret,
    ));
    rows.push(Row::exact(
        w,
        "host_alloc_mb",
        first.alloc_bytes as f64 / MB,
    ));
    for name in SIM_END_TO_END {
        rows.push(Row::exact(w, name, first.sim(name)));
    }
    rows
}

/// The per-layer table of one workload: the counts of its traced
/// runs, what the trace itself gives, and what the traced runs show
/// against their untraced twins (tracing overhead; the
/// zero-perturbation guarantee).
pub fn per_layer(
    w: Workload,
    untraced: &[Rep],
    traced: &[Rep],
    native_compile_cycles: f64,
    checks: &mut Checks,
) -> Vec<Row> {
    let (plain, first) = (&untraced[0], &traced[0]);
    for r in untraced.iter().chain(traced) {
        checks.absorb(&r.checks);
        checks.check(r.sim == plain.sim, || {
            format!(
                "{}: runs of one seed differ (tracing must not perturb the simulation)",
                w.name()
            )
        });
    }
    let mut rows: Vec<Row> = first
        .sim
        .iter()
        .chain(&first.traced)
        .filter(|(name, _)| !SIM_END_TO_END.contains(name))
        .map(|&(name, v)| Row::exact(w, name, v))
        .collect();
    let rel_native = if w.is_compile() {
        100.0 * native_compile_cycles / first.sim("sim_cycles")
    } else {
        0.0
    };
    rows.push(Row::exact(w, "sim_rel_native_pct", rel_native));
    rows.push(Row::of(
        w,
        "trace.overhead_pct",
        "%",
        100.0 * (run_floor_ns(traced) / run_floor_ns(untraced) - 1.0),
    ));
    let build_ns = untraced
        .iter()
        .chain(traced)
        .map(|r| r.spans.total_ns("guest.build"))
        .min();
    rows.push(Row::of(
        w,
        "guest.build_ms",
        "ms",
        build_ns.unwrap_or(0) as f64 / 1e6,
    ));
    rows
}

fn value_and_unit(r: &Row) -> Json {
    Json::obj()
        .field("value", Json::F64(r.value))
        .field("unit", Json::from(r.unit))
}

/// The one-line result the benchmark driver reads.
pub fn driver_json(rows: &[Row], checks: &Checks) -> Json {
    let mut metrics = Json::obj();
    for r in rows {
        metrics = metrics.field(&r.metric, value_and_unit(r));
    }
    Json::obj()
        .field("correct", Json::Bool(checks.failed == 0))
        .field("attempted", Json::U64(checks.attempted.max(1)))
        .field("failed", Json::U64(checks.failed))
        .field("metrics", metrics)
}

/// `result.json`: run parameters plus every row, keyed by workload and
/// metric so two files compare by name.
pub fn result_json(meta: Json, rows: &[Row], checks: &Checks) -> Json {
    let rows = rows
        .iter()
        .map(|r| {
            let mut j = Json::obj()
                .field("workload", Json::from(r.workload.as_str()))
                .field("metric", Json::from(r.metric.as_str()))
                .field("value", Json::F64(r.value))
                .field("unit", Json::from(r.unit))
                .field("exact", Json::Bool(r.exact));
            if let Some(s) = r.spread {
                j = j
                    .field("p25", Json::F64(s.p25))
                    .field("med", Json::F64(s.med))
                    .field("p75", Json::F64(s.p75))
                    .field("n", Json::U64(s.n as u64));
            }
            if let Some((a, b)) = r.halves {
                j = j
                    .field("half_a", Json::F64(a))
                    .field("half_b", Json::F64(b));
            }
            j
        })
        .collect();
    meta.field("correct", Json::Bool(checks.failed == 0))
        .field("attempted", Json::U64(checks.attempted))
        .field("failed", Json::U64(checks.failed))
        .field(
            "failures",
            Json::Arr(
                checks
                    .failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        )
        .field("rows", Json::Arr(rows))
}

/// The paper's value for a simulated metric, where it gives one
/// (`nova_bench::paper`): the accuracy reference printed beside it.
fn paper_reference(r: &Row) -> Option<String> {
    use nova_bench::paper;
    let fig5 = |label: &str| {
        let bar = paper::FIG5_RELATIVE.iter().find(|(l, _)| *l == label)?.1;
        Some(format!(
            "paper Fig 5: {bar} %; this guest is Fig 5's cut to 1 task, so boot is amortized less"
        ))
    };
    match (r.workload.as_str(), r.metric.as_str()) {
        ("compile_ept", "sim_rel_native_pct") => fig5("NOVA EPT+VPID 2M"),
        ("compile_vtlb", "sim_rel_native_pct") => fig5("NOVA shadow paging"),
        ("compile_ept", "sim.s85.transition_share") => {
            Some(format!("paper §8.5: {}", paper::S85_TRANSITION_SHARE))
        }
        ("compile_ept", "sim.s85.ipc_share") => {
            Some(format!("paper §8.5: {}", paper::S85_IPC_SHARE))
        }
        ("compile_ept", "sim.s85.emulation_share") => {
            Some(format!("paper §8.5: {}", paper::S85_EMULATION_SHARE))
        }
        _ => None,
    }
}

/// Prints one `workload metric value unit` line per row, with the
/// spread of its samples and the paper's value beside it where known.
pub fn print_rows(rows: &[Row]) {
    for r in rows {
        print!("{} {} {} {}", r.workload, r.metric, r.value, r.unit);
        if let Some(reference) = paper_reference(r) {
            print!("   [{reference}]");
        }
        if let Some(s) = r.spread {
            print!(
                "   (med {:.6} p25 {:.6} p75 {:.6} n {})",
                s.med, s.p25, s.p75, s.n
            );
        }
        if let Some((a, b)) = r.halves {
            print!("   (even reps {a:.6}, odd reps {b:.6})");
        }
        println!();
    }
}
