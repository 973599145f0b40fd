//! Repeatability tooling. `--runs N` runs every (workload, run) in a fresh
//! child process, alternating the workload order, and prints each metric's
//! median and quartiles; with `--trace 1` it also checks that the exact
//! counters repeat. `--compare` applies each end-to-end metric's bound to
//! two result files written by `--runs ... --out`.

use std::collections::BTreeMap;
use std::process::{Command, Stdio};

use mm_json::Json;

use crate::metrics::{self, END_TO_END};
use crate::stats::quartiles;
use crate::Args;

/// Values of each metric, per workload, in run order.
type Table = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

pub fn runs(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let n = args.runs.unwrap_or(1);
    let mut table = Table::new();
    let mut all_correct = true;
    for i in 0..n {
        let mut order = args.workloads.clone();
        if i % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let output = Command::new(&exe)
                .args(["--workload", w.name()])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let doc = mm_json::parse(last)
                .map_err(|_| format!("{} run {i} printed no result", w.name()))?;
            all_correct &=
                output.status.success() && doc.get("correct").and_then(Json::as_bool) == Some(true);
            let row = table.entry(w.name().to_string()).or_default();
            for (name, m) in doc
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap_or_default()
            {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                row.entry(name.clone()).or_default().push(value);
            }
        }
    }
    let mut exact_ok = true;
    for (workload, row) in &table {
        for (name, values) in row {
            let def = metrics::find(name).ok_or(format!("unknown metric {name}"))?;
            let (q1, med, q3) = quartiles(values);
            let spread = if med != 0.0 {
                (q3 - q1) / med.abs()
            } else {
                0.0
            };
            let repeats = values.iter().all(|v| v.to_bits() == values[0].to_bits());
            let note = if def.exact && !repeats {
                exact_ok = false;
                "  COUNT DIFFERS ACROSS RUNS"
            } else if def.bound > 0.0 && spread > def.bound {
                "  spread exceeds bound"
            } else {
                ""
            };
            println!(
                "{workload:<13} {name:<30} {med:>14.6} {:<6} [{q1:.6}, {q3:.6}] spread {:.1}%{note}",
                def.unit,
                spread * 100.0
            );
        }
    }
    if let Some(path) = &args.out {
        let doc = Json::obj([
            ("seed", Json::Int(args.seed as i64)),
            ("seconds", Json::Int(args.seconds as i64)),
            ("trace", Json::Bool(args.trace)),
            ("runs", Json::Int(n as i64)),
            ("workloads", to_json(&table)),
        ]);
        std::fs::write(path, doc.to_pretty()).map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(all_correct && exact_ok)
}

fn to_json(table: &Table) -> Json {
    Json::Obj(
        table
            .iter()
            .map(|(w, row)| {
                let metrics = row.iter().map(|(name, values)| {
                    let (q1, med, q3) = quartiles(values);
                    let unit = metrics::find(name).map_or("", |d| d.unit);
                    (
                        name.clone(),
                        Json::obj([
                            ("unit", Json::str(unit)),
                            ("median", Json::Float(med)),
                            ("q1", Json::Float(q1)),
                            ("q3", Json::Float(q3)),
                            (
                                "values",
                                Json::Arr(values.iter().map(|&v| Json::Float(v)).collect()),
                            ),
                        ]),
                    )
                });
                (w.clone(), Json::obj(metrics))
            })
            .collect(),
    )
}

fn load(path: &str) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = mm_json::parse(&text).map_err(|e| format!("cannot parse {path}: {}", e.message))?;
    let mut table = Table::new();
    for (w, row) in doc
        .get("workloads")
        .and_then(Json::as_obj)
        .unwrap_or_default()
    {
        for (name, m) in row.as_obj().unwrap_or_default() {
            let values = m
                .get("values")
                .and_then(Json::as_arr)
                .unwrap_or_default()
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            table
                .entry(w.clone())
                .or_default()
                .insert(name.clone(), values);
        }
    }
    Ok(table)
}

/// Compares two `--runs --out` files metric by metric. A metric regresses
/// when the change's median is worse than the parent's by more than its
/// bound; it is unresolved when the parent's own spread is wider than the
/// bound (unless every change run beats every parent run); it is a gain
/// when the change wins at least nine tenths of the paired runs and the
/// medians differ by more than the parent's quartile spread.
pub fn compare(parent: &str, change: &str) -> Result<bool, String> {
    let (parent, change) = (load(parent)?, load(change)?);
    let mut clean = true;
    for (workload, prow) in &parent {
        let Some(crow) = change.get(workload) else {
            continue;
        };
        for def in &END_TO_END {
            let (Some(p), Some(c)) = (prow.get(def.name), crow.get(def.name)) else {
                continue;
            };
            let sign = if def.higher_is_better { -1.0 } else { 1.0 };
            let (pq1, pm, pq3) = quartiles(p);
            let (_, cm, _) = quartiles(c);
            let worse = sign * (cm - pm) / pm.abs().max(f64::MIN_POSITIVE);
            let spread = (pq3 - pq1) / pm.abs().max(f64::MIN_POSITIVE);
            let better = |a: f64, b: f64| sign * (a - b) < 0.0;
            let dominates = c.iter().all(|&cv| p.iter().all(|&pv| better(cv, pv)));
            let pairs = p.len().min(c.len());
            let wins = p.iter().zip(c).filter(|(&pv, &cv)| better(cv, pv)).count();
            let verdict = if spread > def.bound && !dominates {
                "unresolved"
            } else if worse > def.bound {
                clean = false;
                "REGRESSION"
            } else if pairs > 0 && wins * 10 >= pairs * 9 && (cm - pm).abs() > pq3 - pq1 {
                "gain"
            } else {
                "within bound"
            };
            println!(
                "{workload:<13} {:<16} parent {pm:>12.6} change {cm:>12.6} {:<4} {:+6.1}% (bound {:.0}%, spread {:.1}%, wins {wins}/{pairs}): {verdict}",
                def.name,
                def.unit,
                (cm - pm) / pm.abs().max(f64::MIN_POSITIVE) * 100.0,
                def.bound * 100.0,
                spread * 100.0,
            );
        }
    }
    Ok(clean)
}
