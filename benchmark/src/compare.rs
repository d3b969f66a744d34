//! `compare a.json b.json`: the before/after tool. Applies each
//! end-to-end metric's direction and bound from `BENCHMARK.json` to two
//! `result.json` files and says, per workload, whether `b` is better,
//! the same, worse, or unresolved.

use std::collections::BTreeMap;

use crate::json::Value;

/// Direction and bound of one metric, from `BENCHMARK.json`.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    /// Larger is better.
    pub higher: bool,
    /// Share of the old value the metric may worsen by; `None` for
    /// per-layer metrics, which are reported but never fail.
    pub bound: Option<f64>,
}

/// The rules of every metric `BENCHMARK.json` names.
pub fn rules(benchmark: &Value) -> Result<BTreeMap<String, Rule>, String> {
    let mut out = BTreeMap::new();
    for list in ["end_to_end", "per_layer"] {
        for m in benchmark.get(list).ok_or(format!("no `{list}`"))?.items() {
            let name = m
                .get("name")
                .and_then(Value::as_str)
                .ok_or("unnamed metric")?;
            let higher = match m.get("better").and_then(Value::as_str) {
                Some("higher") => true,
                Some("lower") => false,
                _ => return Err(format!("{name}: `better` must be higher or lower")),
            };
            let bound = m.get("bound").and_then(Value::as_f64);
            out.insert(name.to_string(), Rule { higher, bound });
        }
    }
    Ok(out)
}

/// A verdict on one workload × metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound.
    Better,
    /// Within the bound either way.
    Same,
    /// Worsened by more than the bound.
    Worse,
    /// The repetitions behind a value resolve it no better than the
    /// bound (its two half-sets disagree by more), and the change is no
    /// larger than that disagreement: the data cannot tell.
    Unresolved,
    /// A per-layer metric: shown for attribution, never judged.
    Layer,
}

struct Sample {
    value: f64,
    /// How well the repetitions resolve `value`, as a share of it: the
    /// disagreement of its two half-set estimates, or the quartile
    /// spread where the row carries quartiles instead; 0 if exact.
    spread: f64,
}

fn samples(result: &Value) -> BTreeMap<(String, String), Sample> {
    let mut out = BTreeMap::new();
    for r in result.get("rows").map_or(&[][..], Value::items) {
        let text = |k| r.get(k).and_then(Value::as_str).map(str::to_string);
        let num = |k| r.get(k).and_then(Value::as_f64);
        if let (Some(w), Some(m), Some(value)) = (text("workload"), text("metric"), num("value")) {
            let spread = match (num("half_a"), num("half_b"), num("p25"), num("p75")) {
                (Some(a), Some(b), ..) | (None, None, Some(a), Some(b)) if value != 0.0 => {
                    (a - b).abs() / value.abs()
                }
                _ => 0.0,
            };
            out.insert((w, m), Sample { value, spread });
        }
    }
    out
}

/// One compared row.
pub struct Compared {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Value in `a`.
    pub a: f64,
    /// Value in `b`.
    pub b: f64,
    /// By how much `b` is worse than `a`, as a share of `a` (negative
    /// when it is better).
    pub worse_by: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compares every workload × metric present in both results and named
/// in `rules`.
pub fn compare(rules: &BTreeMap<String, Rule>, a: &Value, b: &Value) -> Vec<Compared> {
    let (sa, sb) = (samples(a), samples(b));
    let mut out = Vec::new();
    for ((workload, metric), x) in &sa {
        let (Some(y), Some(rule)) = (
            sb.get(&(workload.clone(), metric.clone())),
            rules.get(metric),
        ) else {
            continue;
        };
        let change = if x.value == y.value {
            0.0
        } else {
            (y.value - x.value) / x.value.abs().max(f64::MIN_POSITIVE)
        };
        let worse_by = if rule.higher { -change } else { change };
        let verdict = match rule.bound {
            None => Verdict::Layer,
            Some(bound) => {
                let spread = x.spread.max(y.spread);
                if spread > bound && worse_by.abs() <= spread {
                    Verdict::Unresolved
                } else if worse_by > bound {
                    Verdict::Worse
                } else if worse_by < -bound {
                    Verdict::Better
                } else {
                    Verdict::Same
                }
            }
        };
        out.push(Compared {
            workload: workload.clone(),
            metric: metric.clone(),
            a: x.value,
            b: y.value,
            worse_by,
            verdict,
        });
    }
    out
}

/// Prints the comparison, end-to-end rows first; true if any is worse.
pub fn print(rows: &[Compared]) -> bool {
    let label = |v| match v {
        Verdict::Better => "better",
        Verdict::Same => "same",
        Verdict::Worse => "worse",
        Verdict::Unresolved => "unresolved",
        Verdict::Layer => "(layer)",
    };
    for judged in [true, false] {
        for r in rows
            .iter()
            .filter(|r| (r.verdict != Verdict::Layer) == judged)
        {
            println!(
                "{:13} {:34} {:>16.6} {:>16.6} {:>+8.2}% worse  {}",
                r.workload,
                r.metric,
                r.a,
                r.b,
                100.0 * r.worse_by,
                label(r.verdict)
            );
        }
    }
    rows.iter().any(|r| r.verdict == Verdict::Worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn result(mips: f64, p25: f64, p75: f64, cycles: f64) -> Value {
        parse(&format!(
            r#"{{"rows":[
              {{"workload":"w","metric":"guest_mips","value":{mips},"unit":"MIPS","half_a":{p25},"half_b":{p75}}},
              {{"workload":"w","metric":"sim_cycles","value":{cycles},"unit":"cycles"}},
              {{"workload":"w","metric":"x86.decode.ns","value":{cycles},"unit":"ns"}}]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let spec = parse(
            r#"{"end_to_end":[{"name":"guest_mips","unit":"MIPS","better":"higher","bound":0.1},
                              {"name":"sim_cycles","unit":"cycles","better":"lower","bound":0.01}],
                "per_layer":[{"name":"x86.decode.ns","unit":"ns","better":"lower"}]}"#,
        )
        .unwrap();
        let rules = rules(&spec).unwrap();
        let verdict = |a: &Value, b: &Value, metric: &str| {
            compare(&rules, a, b)
                .into_iter()
                .find(|r| r.metric == metric)
                .unwrap()
                .verdict
        };
        let base = result(10.0, 9.9, 10.1, 1000.0);
        assert_eq!(
            verdict(&base, &result(8.0, 7.9, 8.1, 1000.0), "guest_mips"),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &result(12.0, 11.9, 12.1, 1000.0), "guest_mips"),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &result(9.5, 9.4, 9.6, 1000.0), "guest_mips"),
            Verdict::Same
        );
        // A set whose halves disagree hides a change smaller than that.
        assert_eq!(
            verdict(&base, &result(8.5, 7.0, 10.0, 1000.0), "guest_mips"),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&base, &result(10.0, 9.9, 10.1, 1020.0), "sim_cycles"),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&base, &result(10.0, 9.9, 10.1, 1020.0), "x86.decode.ns"),
            Verdict::Layer
        );
        assert!(print(&compare(
            &rules,
            &base,
            &result(8.0, 7.9, 8.1, 1000.0)
        )));
    }
}
