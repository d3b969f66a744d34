//! The two ways to run the benchmark: one workload for a time budget
//! (what the benchmark driver invokes), or the whole set round-robin.

use std::time::Instant;

use nova_trace::json::Json;

use crate::harness::{calib_ns, stats, Checks};
use crate::layers::{self, Effort, Layers};
use crate::report::{end_to_end, per_layer, Row};
use crate::traced::spans_json;
use crate::workloads::{build_guest, run_rep, Rep, Size, Workload};

/// Where `result.json` and `trace_<workload>.json` go.
pub const OUT_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Rows plus the correctness tally behind them.
pub struct Outcome {
    /// Every metric measured.
    pub rows: Vec<Row>,
    /// Operations and checks attempted and failed.
    pub checks: Checks,
}

fn rep(w: Workload, seed: u64, size: Size, trace: bool) -> Rep {
    run_rep(w, || build_guest(w, seed, size), trace, true)
}

fn fail_rate(w: Workload, checks: &Checks) -> Row {
    Row::derived(
        "fail_rate",
        "ratio",
        checks.failed as f64 / checks.attempted.max(1) as f64,
    )
    .for_workload(w)
}

/// Untraced repetitions of `w` until `seconds` of host time are spent
/// (at least three), reduced to its end-to-end table.
pub fn end_to_end_for(w: Workload, seed: u64, size: Size, seconds: f64) -> Outcome {
    let started = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < 3 || started.elapsed().as_secs_f64() < seconds {
        reps.push(rep(w, seed, size, false));
    }
    let mut checks = Checks::default();
    let rows = end_to_end(w, &reps, &mut checks);
    Outcome { rows, checks }
}

/// The traced pairs of `w` (an untraced twin, then the traced run at
/// the same inputs, `pairs` times over), reduced to its per-layer
/// table; writes `trace_<workload>.json`.
fn per_layer_for(w: Workload, seed: u64, size: Size, pairs: usize, layers: &Layers) -> Outcome {
    let size = if size == Size::Full {
        Size::Traced
    } else {
        size
    };
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for _ in 0..pairs {
        untraced.push(rep(w, seed, size, false));
        traced.push(rep(w, seed, size, true));
    }
    let mut checks = Checks::default();
    let rows = per_layer(
        w,
        &untraced,
        &traced,
        layers.native_compile_cycles,
        &mut checks,
    );

    let shown = &traced[0];
    let numbers: Vec<_> = shown.sim.iter().chain(&shown.traced).copied().collect();
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        std::fs::write(
            format!("{OUT_DIR}/trace_{}.json", w.name()),
            spans_json(w, &shown.spans, &numbers).render(),
        )
    });
    checks.check(written.is_ok(), || {
        format!("writing the trace file: {written:?}")
    });
    Outcome { rows, checks }
}

fn calib_row(samples: &[f64]) -> Row {
    Row::layer("calib.ns", "ns", stats(samples))
}

/// Every per-layer metric, as seen from workload `w`: the layer table
/// (workload-independent) plus `w`'s traced pair.
pub fn per_layer_table(w: Workload, seed: u64, size: Size) -> Outcome {
    let effort = Effort::of(size);
    let calib: Vec<f64> = (0..5).map(|_| calib_ns()).collect();
    let layers = layers::measure(effort, seed);
    let mut out = per_layer_for(w, seed, size, effort.run_reps, &layers);
    out.rows.push(fail_rate(w, &out.checks));
    out.rows
        .extend(layers.rows.into_iter().map(|r| r.for_workload(w)));
    out.rows.push(calib_row(&calib).for_workload(w));
    out
}

/// The whole benchmark from one process: `reps` repetitions of every
/// workload, round-robin so a noisy spell hits all of them, the
/// calibration loop between rounds, then each workload's traced pair
/// and the layer table.
pub fn full_set(seed: u64, reps: usize, smoke: bool) -> (Outcome, Json) {
    let size = if smoke { Size::Smoke } else { Size::Full };
    let mut by_workload: Vec<Vec<Rep>> = Workload::ALL.iter().map(|_| Vec::new()).collect();
    let mut calib = vec![calib_ns()];
    for _ in 0..reps {
        for (w, done) in Workload::ALL.into_iter().zip(&mut by_workload) {
            done.push(rep(w, seed, size, false));
        }
        calib.push(calib_ns());
    }
    let effort = Effort::of(size);
    let layers = layers::measure(effort, seed);

    let mut out = Outcome {
        rows: Vec::new(),
        checks: Checks::default(),
    };
    for (w, done) in Workload::ALL.into_iter().zip(&by_workload) {
        let mut checks = Checks::default();
        out.rows.extend(end_to_end(w, done, &mut checks));
        let layer = per_layer_for(w, seed, size, effort.run_reps, &layers);
        checks.absorb(&layer.checks);
        out.rows.extend(layer.rows);
        out.rows.push(fail_rate(w, &checks));
        out.checks.absorb(&checks);
    }
    out.rows.extend(layers.rows);
    let calib = calib_row(&calib);
    let meta = Json::obj()
        .field("seed", Json::U64(seed))
        .field("reps", Json::U64(reps as u64))
        .field("smoke", Json::Bool(smoke))
        .field(
            "nproc",
            Json::U64(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        )
        .field("calib_ns", Json::F64(calib.value));
    out.rows.push(calib);
    (out, meta)
}
