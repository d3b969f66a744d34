//! Smoke test: every workload at tiny scale, every metric
//! `BENCHMARK.json` names present, finite and carrying a unit, and
//! everything exact repeating exactly.

use std::collections::BTreeSet;

use nova_benchmark::json::{parse, Value};
use nova_benchmark::report::{driver_json, Row};
use nova_benchmark::run::{end_to_end_for, full_set, per_layer_table};
use nova_benchmark::workloads::{Size, Workload};

const SEED: u64 = 7;

fn spec() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn names(spec: &Value, list: &str) -> BTreeSet<String> {
    spec.get(list)
        .expect("list present")
        .items()
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn assert_well_formed(rows: &[Row]) {
    for r in rows {
        assert!(
            r.value.is_finite(),
            "{} {} = {}",
            r.workload,
            r.metric,
            r.value
        );
        assert!(!r.unit.is_empty(), "{} has no unit", r.metric);
    }
}

/// The keys of the driver's JSON line, checked to parse back.
fn driver_keys(rows: &[Row], checks: &nova_benchmark::harness::Checks) -> BTreeSet<String> {
    let line = driver_json(rows, checks).render();
    let parsed = parse(&line).expect("driver line parses");
    assert_eq!(parsed.get("correct"), Some(&Value::Bool(true)), "{line}");
    assert_eq!(parsed.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(parsed.get("attempted").and_then(Value::as_f64) >= Some(1.0));
    match parsed.get("metrics") {
        Some(Value::Obj(m)) => {
            for (name, v) in m {
                assert!(v.get("value").and_then(Value::as_f64).is_some(), "{name}");
                assert!(v.get("unit").and_then(Value::as_str).is_some(), "{name}");
            }
            m.keys().cloned().collect()
        }
        other => panic!("metrics: {other:?}"),
    }
}

/// One test: the allocation counter and the peak-RSS watermark are
/// process-wide, so benchmark runs must not overlap.
#[test]
fn smoke() {
    let spec = spec();
    let listed = names(&spec, "workloads");
    let ours: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(listed, ours);

    // One workload at a time, as the driver runs it: exactly the named
    // metrics, each a number with a unit.
    let mut one_by_one = Vec::new();
    for w in Workload::ALL {
        let out = end_to_end_for(w, SEED, Size::Smoke, 0.0);
        assert_eq!(out.checks.failures, Vec::<String>::new());
        assert_well_formed(&out.rows);
        assert_eq!(
            driver_keys(&out.rows, &out.checks),
            names(&spec, "end_to_end"),
            "{}",
            w.name()
        );
        one_by_one.extend(out.rows);
    }
    let out = per_layer_table(Workload::Recover, SEED, Size::Smoke);
    assert_eq!(out.checks.failures, Vec::<String>::new());
    assert_well_formed(&out.rows);
    assert_eq!(
        driver_keys(&out.rows, &out.checks),
        names(&spec, "per_layer")
    );
    one_by_one.extend(out.rows);

    // The whole set from one process: every named metric present for
    // every workload.
    let (set, _) = full_set(SEED, 1, true);
    assert_eq!(set.checks.failures, Vec::<String>::new());
    assert_well_formed(&set.rows);
    let find = |w: &str, m: &str| set.rows.iter().find(|r| r.workload == w && r.metric == m);
    for w in Workload::ALL {
        for m in names(&spec, "end_to_end") {
            assert!(find(w.name(), &m).is_some(), "{} lacks {m}", w.name());
        }
        for m in names(&spec, "per_layer") {
            assert!(
                find(w.name(), &m).or(find("-", &m)).is_some(),
                "{} lacks {m}",
                w.name()
            );
        }
    }

    // Two runs of one seed agree exactly on every exact metric.
    let exact: Vec<&Row> = one_by_one.iter().filter(|r| r.exact).collect();
    assert!(exact.len() >= 60, "exact metrics are reported");
    for r in exact {
        let again = find(&r.workload, &r.metric).expect("also in the whole set");
        assert!(again.exact);
        assert_eq!(
            r.value.to_bits(),
            again.value.to_bits(),
            "{} {}: {} then {}",
            r.workload,
            r.metric,
            r.value,
            again.value
        );
    }
}
