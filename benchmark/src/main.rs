//! Command line of the benchmark.
//!
//! ```text
//! nova-benchmark --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line
//! nova-benchmark [--seed N] [--reps R] [--smoke]                 the whole set → out/result.json
//! nova-benchmark compare a.json b.json                           before/after verdicts
//! ```

use std::process::ExitCode;

use nova_benchmark::compare;
use nova_benchmark::json;
use nova_benchmark::report::{driver_json, print_rows, result_json};
use nova_benchmark::run::{end_to_end_for, full_set, per_layer_table, OUT_DIR};
use nova_benchmark::workloads::{Size, Workload};

const DEFAULT_SEED: u64 = 0x5eed;
const DEFAULT_REPS: usize = 41;
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

fn read_json(path: &str) -> Result<json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn run_compare(a: &str, b: &str) -> Result<bool, String> {
    let rules = compare::rules(&read_json(BENCHMARK_JSON)?)?;
    let rows = compare::compare(&rules, &read_json(a)?, &read_json(b)?);
    if rows.is_empty() {
        return Err("the two files share no metric that BENCHMARK.json names".into());
    }
    Ok(compare::print(&rows))
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: usize,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        reps: DEFAULT_REPS,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            out.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("{flag} {value}: not understood");
        match flag.as_str() {
            "--workload" => out.workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => out.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--reps" => out.reps = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if out.reps == 0 {
        return Err("--reps must be at least 1".into());
    }
    Ok(out)
}

fn run(args: &[String]) -> Result<bool, String> {
    if let [cmd, a, b] = args {
        if cmd == "compare" {
            return run_compare(a, b).map(|worse| !worse);
        }
    }
    let args = parse_args(args)?;
    let size = if args.smoke { Size::Smoke } else { Size::Full };
    if let Some(w) = args.workload {
        let out = if args.trace {
            per_layer_table(w, args.seed, size)
        } else {
            end_to_end_for(w, args.seed, size, args.seconds)
        };
        for f in &out.checks.failures {
            eprintln!("FAILED: {f}");
        }
        println!("{}", driver_json(&out.rows, &out.checks).render());
        return Ok(out.checks.failed == 0);
    }

    let (out, meta) = full_set(args.seed, args.reps, args.smoke);
    print_rows(&out.rows);
    let path = format!("{OUT_DIR}/result.json");
    std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&path, result_json(meta, &out.rows, &out.checks).render()))
        .map_err(|e| format!("{path}: {e}"))?;
    println!("wrote {path}");
    for f in &out.checks.failures {
        println!("FAILED: {f}");
    }
    println!(
        "{} of {} operations and checks failed",
        out.checks.failed, out.checks.attempted
    );
    Ok(out.checks.failed == 0)
}

fn main() -> ExitCode {
    nova_benchmark::harness::keep_freed_memory();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("nova-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
