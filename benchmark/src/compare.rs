//! `bench compare a.json b.json`: one row per (workload, end-to-end
//! metric) with both figures, the change, the bound and a verdict.

use crate::json::{parse, Value};
use crate::metrics::{Better, END_TO_END};
use crate::workloads::NAMES;

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// `b` is no worse than `a` by more than the bound.
    Ok,
    /// `b` is worse than `a` by more than the bound.
    Worse,
    /// The best third of one side's windows spread wider than the bound,
    /// so the two figures cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One row of the comparison.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// Reported value in the first file.
    pub a: f64,
    /// Reported value in the second file.
    pub b: f64,
    /// How much worse `b` is than `a`, as a share of `a` (negative when
    /// `b` is better).
    pub worse_by: f64,
    /// Wider best-third window spread of the two sides, as a share of the
    /// reported value.
    pub spread: f64,
    /// The metric's regression bound.
    pub bound: f64,
    /// The verdict.
    pub verdict: Verdict,
}

fn metric<'a>(doc: &'a Value, workload: &str, name: &str) -> Option<&'a Value> {
    doc.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get("metrics")?
        .get(name)
}

/// How far apart the best third of a metric's windows are, as a share
/// of the reported value: the distance from the best window to the one a
/// third of the way in. The reported value is the best decile, so this is
/// how much it would move if "a tenth" had been "a third".
fn spread(m: &Value, better: Better) -> f64 {
    let mut w: Vec<f64> = m
        .get("windows")
        .and_then(Value::as_arr)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default();
    let value = m.get("value").and_then(Value::as_f64).unwrap_or(0.0);
    if w.len() < 3 || value == 0.0 {
        return 0.0;
    }
    w.sort_by(f64::total_cmp);
    if better == Better::Higher {
        w.reverse();
    }
    (w[0] - w[(w.len() - 1) / 3]).abs() / value.abs()
}

fn fail_ratio(doc: &Value, workload: &str) -> Option<f64> {
    let e = doc.get("workloads")?.get(workload)?.get("end_to_end")?;
    let failed = e.get("failed")?.as_f64()?;
    let attempted = e.get("attempted")?.as_f64()?;
    Some(failed / attempted.max(1.0))
}

/// Compares two result documents. Returns the rows and the workloads
/// whose `fail_ratio` rose from `a` to `b`.
///
/// # Errors
///
/// Returns a message naming the first metric missing from either file.
pub fn compare(a: &Value, b: &Value) -> Result<(Vec<Row>, Vec<&'static str>), String> {
    let mut rows = Vec::new();
    let mut more_failures = Vec::new();
    for workload in NAMES {
        for m in END_TO_END {
            let missing = |side| format!("{side}: no {workload} / {}", m.name);
            let ma = metric(a, workload, m.name).ok_or_else(|| missing("a"))?;
            let mb = metric(b, workload, m.name).ok_or_else(|| missing("b"))?;
            let va = ma
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| missing("a"))?;
            let vb = mb
                .get("value")
                .and_then(Value::as_f64)
                .ok_or_else(|| missing("b"))?;
            let change = (vb - va) / va.abs().max(f64::MIN_POSITIVE);
            let worse_by = match m.better {
                Better::Lower => change,
                Better::Higher => -change,
            };
            let spread = spread(ma, m.better).max(spread(mb, m.better));
            let verdict = if spread > m.bound {
                Verdict::Unresolved
            } else if worse_by > m.bound {
                Verdict::Worse
            } else {
                Verdict::Ok
            };
            rows.push(Row {
                workload,
                metric: m.name,
                a: va,
                b: vb,
                worse_by,
                spread,
                bound: m.bound,
                verdict,
            });
        }
        let fa = fail_ratio(a, workload).ok_or(format!("a: no counts for {workload}"))?;
        let fb = fail_ratio(b, workload).ok_or(format!("b: no counts for {workload}"))?;
        if fb > fa {
            more_failures.push(workload);
        }
    }
    Ok((rows, more_failures))
}

/// Reads both files, prints the table, and returns the process exit
/// code: 1 on any `worse` row or a higher `fail_ratio`, else 0.
///
/// # Errors
///
/// Returns a message when a file cannot be read or parsed.
pub fn main(path_a: &str, path_b: &str) -> Result<i32, String> {
    let load = |p: &str| -> Result<Value, String> {
        parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
            .map_err(|e| format!("{p}: {e}"))
    };
    let (rows, more_failures) = compare(&load(path_a)?, &load(path_b)?)?;
    println!(
        "{:<18} {:<14} {:>14} {:>14} {:>9} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "worse by", "spread", "bound"
    );
    for r in &rows {
        println!(
            "{:<18} {:<14} {:>14.4} {:>14.4} {:>8.1}% {:>7.1}% {:>5.0}%  {}",
            r.workload,
            r.metric,
            r.a,
            r.b,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            r.verdict.label()
        );
    }
    for w in &more_failures {
        println!("{w}: fail_ratio rose");
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} worse, {} unresolved, {} workloads with more failures",
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved),
        more_failures.len()
    );
    Ok(i32::from(
        count(Verdict::Worse) > 0 || !more_failures.is_empty(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    fn doc(ops: f64, windows: [f64; 5], failed: u64) -> Value {
        let metrics = obj(END_TO_END.iter().map(|m| {
            let (value, windows) = if m.name == "ops_per_s" {
                (ops, windows.to_vec())
            } else {
                (10.0, vec![10.0; 5])
            };
            (
                m.name,
                obj([
                    ("value", Value::from(value)),
                    ("windows", Value::from(windows)),
                ]),
            )
        }));
        let one = obj([(
            "end_to_end",
            obj([
                ("attempted", Value::from(100u64)),
                ("failed", Value::from(failed)),
                ("metrics", metrics),
            ]),
        )]);
        obj([("workloads", obj(NAMES.map(|n| (n, one.clone()))))])
    }

    fn ops_verdict(a: &Value, b: &Value) -> Verdict {
        let (rows, _) = compare(a, b).unwrap();
        rows.iter()
            .find(|r| r.metric == "ops_per_s")
            .unwrap()
            .verdict
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = doc(1000.0, [980.0, 990.0, 1000.0, 1010.0, 1020.0], 0);
        assert_eq!(ops_verdict(&base, &base), Verdict::Ok);
        let slower = doc(700.0, [690.0, 695.0, 700.0, 705.0, 710.0], 0);
        assert_eq!(ops_verdict(&base, &slower), Verdict::Worse);
        assert_eq!(ops_verdict(&slower, &base), Verdict::Ok, "faster is fine");
        let noisy = doc(880.0, [600.0, 640.0, 700.0, 800.0, 1100.0], 0);
        assert_eq!(ops_verdict(&base, &noisy), Verdict::Unresolved);
    }

    #[test]
    fn more_failures_are_reported() {
        let a = doc(1000.0, [1000.0; 5], 0);
        let b = doc(1000.0, [1000.0; 5], 1);
        assert_eq!(compare(&a, &b).unwrap().1.len(), NAMES.len());
        assert!(compare(&b, &a).unwrap().1.is_empty());
        assert!(compare(&a, &obj([("workloads", obj::<&str>([]))])).is_err());
    }
}
