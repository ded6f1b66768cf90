//! The subcommands over whole sweeps: `run`, `trace`, `compare`, `repeat`.
//! A sweep runs every workload once, each in a child process of its own, so
//! no workload inherits another's heap, page cache pressure or threads.

use crate::json::{obj, parse, Value};
use crate::proc::machine_descriptor;
use crate::spec::{Better, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use crate::stats::{extremes, iqr_share, median, range_share};
use crate::workloads::out_dir;
use crate::Args;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// Runs one workload in a child process and returns its report line,
/// with the workload's name added.
fn run_child(workload: &str, seed: u64, traced: bool) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &RUN_SECONDS.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: cannot start child: {e}"))?;
    if !output.status.success() {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no output"))?;
    match parse(line).map_err(|e| format!("{workload}: bad report line: {e}"))? {
        Value::Obj(mut pairs) => {
            pairs.insert(0, ("workload".to_string(), Value::from(workload)));
            Ok(Value::Obj(pairs))
        }
        _ => Err(format!("{workload}: report line is not an object")),
    }
}

/// One sweep over all workloads (`reverse` runs them last to first, which
/// tells order effects from workload effects).
fn sweep(seed: u64, reverse: bool, traced: bool) -> Result<Value, String> {
    let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
    if reverse {
        names.reverse();
    }
    let runs = names
        .into_iter()
        .map(|name| run_child(name, seed, traced))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(obj([
        ("seed", Value::from(seed)),
        (
            "order",
            Value::from(if reverse { "reverse" } else { "forward" }),
        ),
        ("runs", Value::Arr(runs)),
    ]))
}

fn metric_value(run: &Value, metric: &str) -> Option<f64> {
    run.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

fn failed_share(run: &Value) -> f64 {
    let count = |key| run.get(key).and_then(Value::as_f64).unwrap_or(0.0);
    count("failed") / count("attempted").max(1.0)
}

/// Prints one sweep's end-to-end metrics by name, with units.
fn print_end_to_end(sweep: &Value) {
    println!("{:<20} {:<20} {:>16}  unit", "workload", "metric", "value");
    for run in sweep
        .get("runs")
        .and_then(Value::as_arr)
        .unwrap_or_default()
    {
        let workload = run.get("workload").and_then(Value::as_str).unwrap_or("?");
        for m in &END_TO_END {
            let value = metric_value(run, m.name).unwrap_or(f64::NAN);
            println!("{workload:<20} {:<20} {value:>16.4}  {}", m.name, m.unit);
        }
        println!(
            "{workload:<20} {:<20} {:>16}  of {} attempted",
            "failed",
            run.get("failed")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN),
            run.get("attempted")
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN),
        );
    }
}

fn write_result(file: &str, sweeps: Vec<Value>, extra: Vec<(&str, Value)>) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut pairs = vec![
        ("machine", machine_descriptor(&dir)),
        ("run_seconds", Value::from(RUN_SECONDS)),
        ("sweeps", Value::Arr(sweeps)),
    ];
    pairs.extend(extra);
    let path = dir.join(file);
    std::fs::write(&path, obj(pairs).to_json_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    Ok(())
}

fn load_sweeps(path: &Path) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(doc
        .get("sweeps")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: no \"sweeps\" array", path.display()))?
        .to_vec())
}

fn any_failed(sweeps: &[Value]) -> bool {
    runs_of(sweeps).any(|run| failed_share(run) > 0.0)
}

fn runs_of(sweeps: &[Value]) -> impl Iterator<Item = &Value> {
    sweeps
        .iter()
        .flat_map(|s| s.get("runs").and_then(Value::as_arr).unwrap_or_default())
}

/// `run`: one gated sweep, printed and written to `benchmark/out/run.json`.
pub fn run(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.number("--seed", 1)?;
    let done = sweep(seed, args.flag("--reverse"), false)?;
    print_end_to_end(&done);
    let mut sweeps = if args.flag("--append") {
        load_sweeps(&out_dir().join("run.json")).unwrap_or_default()
    } else {
        Vec::new()
    };
    sweeps.push(done);
    let failed = any_failed(&sweeps[sweeps.len() - 1..]);
    write_result("run.json", sweeps, Vec::new())?;
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `trace`: one traced sweep; per-layer metrics side by side per workload,
/// span dumps in `benchmark/out/trace-<workload>.json`.
pub fn trace(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.number("--seed", 1)?;
    let done = sweep(seed, false, true)?;
    let runs = done.get("runs").and_then(Value::as_arr).unwrap_or_default();
    print!(
        "{:<36} {:<9}",
        "per-layer metric (0 = not exercised)", "unit"
    );
    for w in &WORKLOADS {
        print!(" {:>18}", w.name);
    }
    println!();
    for m in &PER_LAYER {
        print!("{:<36} {:<9}", m.name, m.unit);
        for run in runs {
            print!(" {:>18.6}", metric_value(run, m.name).unwrap_or(f64::NAN));
        }
        println!();
    }
    let failed = any_failed(std::slice::from_ref(&done));
    write_result("trace.json", vec![done], Vec::new())?;
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// How set B's median of one metric on one workload stands against set A's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The run-to-run spread exceeds the bound and the two sets overlap:
    /// the runs cannot tell.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The verdict on one metric: `a` is the baseline set, `b` the candidate.
/// `worse` means B's median is worse than A's by more than `bound` (a share
/// of A's median). When either set's inter-quartile spread exceeds the
/// bound, a verdict needs every run of one set to beat every run of the
/// other; anything else is `unresolved`.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    // Positive = B worse, as a share of A's median.
    let worsening = sign * (median(b) - median(a)) / median(a).abs();
    let spread = iqr_share(a).max(iqr_share(b));
    let ((min_a, max_a), (min_b, max_b)) = (extremes(a), extremes(b));
    let (worst_a, best_a, worst_b, best_b) = match better {
        Better::Lower => (max_a, min_a, max_b, min_b),
        Better::Higher => (-min_a, -max_a, -min_b, -max_b),
    };
    if spread > bound {
        return if worst_b < best_a {
            Verdict::Better
        } else if best_b > worst_a && worsening > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -spread && worst_b < best_a {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

fn values_of(sweeps: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    runs_of(sweeps)
        .filter(|run| run.get("workload").and_then(Value::as_str) == Some(workload))
        .filter_map(|run| metric_value(run, metric))
        .collect()
}

/// Compares two sets of sweeps; prints a row per workload × metric and
/// returns the rows plus whether anything is `worse` (or fails more).
fn compare_sets(a: &[Value], b: &[Value]) -> Result<(Value, bool), String> {
    let mut rows = Vec::new();
    let mut regressed = false;
    println!(
        "{:<20} {:<20} {:>14} {:>14} {:>9} {:>8} {:>8}  verdict",
        "workload", "metric", "median A", "median B", "B vs A", "iqr A", "iqr B"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let (va, vb) = (values_of(a, w.name, m.name), values_of(b, w.name, m.name));
            if va.is_empty() || vb.is_empty() {
                return Err(format!(
                    "{} / {}: missing from one of the sets",
                    w.name, m.name
                ));
            }
            let v = verdict(&va, &vb, m.better, m.bound);
            regressed |= v == Verdict::Worse;
            let change = (median(&vb) - median(&va)) / median(&va).abs();
            println!(
                "{:<20} {:<20} {:>14.4} {:>14.4} {:>+8.2}% {:>7.2}% {:>7.2}%  {}",
                w.name,
                m.name,
                median(&va),
                median(&vb),
                change * 100.0,
                iqr_share(&va) * 100.0,
                iqr_share(&vb) * 100.0,
                v.as_str()
            );
            rows.push(obj([
                ("workload", Value::from(w.name)),
                ("metric", Value::from(m.name)),
                ("median_a", Value::from(median(&va))),
                ("median_b", Value::from(median(&vb))),
                ("change", Value::from(change)),
                ("iqr_share_a", Value::from(iqr_share(&va))),
                ("iqr_share_b", Value::from(iqr_share(&vb))),
                ("bound", Value::from(m.bound)),
                ("verdict", Value::from(v.as_str())),
            ]));
        }
        let share = |set: &[Value]| {
            let runs: Vec<f64> = runs_of(set)
                .filter(|run| run.get("workload").and_then(Value::as_str) == Some(w.name))
                .map(failed_share)
                .collect();
            runs.iter().sum::<f64>() / runs.len().max(1) as f64
        };
        if share(b) > share(a) {
            println!(
                "{:<20} failed share rose from {} to {}",
                w.name,
                share(a),
                share(b)
            );
            regressed = true;
        }
    }
    Ok((Value::Arr(rows), regressed))
}

/// `compare A.json B.json`: exit 1 on any `worse` or any rise in failures.
pub fn compare(paths: &[String]) -> Result<ExitCode, String> {
    let [a, b] = paths else {
        return Err("compare needs two result files: compare A.json B.json".to_string());
    };
    let (_, regressed) = compare_sets(&load_sweeps(Path::new(a))?, &load_sweeps(Path::new(b))?)?;
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// Sweeps per set of `repeat`.
const REPEAT_SWEEPS: usize = 5;

/// `repeat` fails when a metric's (max − min) ÷ median over its ten runs
/// exceeds this …
const MAX_RANGE_SHARE: f64 = 0.10;

/// … or when a run's `setup_s` is below this many seconds: shorter set-ups
/// are timings too small to repeat (PR 12's moved by 4–60 %).
const MIN_SETUP_S: f64 = 2.0;

/// `repeat`: two interleaved sets A B A B … of the same binary, each sweep
/// on another seed and in alternating order, then `compare` between them
/// and the spread over all ten runs. Exit 1 if `compare` calls the second
/// set `worse` anywhere (the benchmark would then report a regression that
/// is not there), if any metric's range exceeds [`MAX_RANGE_SHARE`], if any
/// `setup_s` is below [`MIN_SETUP_S`], or if an operation failed.
pub fn repeat(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.number("--seed", 1)?;
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for i in 0..2 * REPEAT_SWEEPS {
        let done = sweep(seed + i as u64, i % 4 >= 2, false)?;
        print_end_to_end(&done);
        if i % 2 == 0 { &mut a } else { &mut b }.push(done);
    }
    let (rows, regressed) = compare_sets(&a, &b)?;
    let all: Vec<Value> = a.iter().chain(&b).cloned().collect();
    let mut spreads = Vec::new();
    let mut unsteady = false;
    println!(
        "{:<20} {:<20} {:>13} {:>9} {:>7}",
        "workload", "metric", "(max-min)/med", "iqr/med", "bound"
    );
    for w in &WORKLOADS {
        for m in &END_TO_END {
            let values = values_of(&all, w.name, m.name);
            let (range, iqr) = (range_share(&values), iqr_share(&values));
            let (min, max) = extremes(&values);
            let mut remarks = String::new();
            if range > MAX_RANGE_SHARE {
                remarks += &format!("  range above {:.0}%", MAX_RANGE_SHARE * 100.0);
            }
            if iqr > m.bound {
                remarks += "  iqr above the bound";
            }
            if m.name == "setup_s" && min < MIN_SETUP_S {
                remarks += &format!("  a set-up below {MIN_SETUP_S} s");
            }
            unsteady |= !remarks.is_empty();
            println!(
                "{:<20} {:<20} {:>12.2}% {:>8.2}% {:>6.0}%{remarks}",
                w.name,
                m.name,
                range * 100.0,
                iqr * 100.0,
                m.bound * 100.0,
            );
            spreads.push(obj([
                ("workload", Value::from(w.name)),
                ("metric", Value::from(m.name)),
                ("min", Value::from(min)),
                ("median", Value::from(median(&values))),
                ("max", Value::from(max)),
                ("range_share", Value::from(range)),
                ("iqr_share", Value::from(iqr)),
                ("steady", Value::from(remarks.is_empty())),
            ]));
        }
    }
    let failed = any_failed(&all);
    let passed = !(regressed || unsteady || failed);
    println!(
        "repeat: {}",
        if passed {
            "every metric repeats within its limits"
        } else {
            "NOT MET - see the remarks above"
        }
    );
    write_result(
        "repeat.json",
        all,
        vec![
            ("compare_a_b", rows),
            ("spread_over_all_runs", Value::Arr(spreads)),
            ("max_range_share", Value::from(MAX_RANGE_SHARE)),
            ("min_setup_s", Value::from(MIN_SETUP_S)),
            ("passed", Value::from(passed)),
        ],
    )?;
    Ok(if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `BENCHMARK.json` as spec.rs states it (`spec` prints this).
pub fn benchmark_json() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    obj([
        ("command", Value::Arr(command.map(Value::from).to_vec())),
        ("paths", Value::Arr(vec![Value::from("benchmark")])),
        ("run_seconds", Value::from(RUN_SECONDS)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| obj([("name", Value::from(w.name)), ("why", Value::from(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Value::from(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", Value::from(m.better.as_str())),
                            ("bound", Value::from(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj([
                            ("name", Value::from(m.name)),
                            ("unit", Value::from(m.unit)),
                            ("better", Value::from(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use Better::{Higher, Lower};

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound either way: same.
        assert_eq!(
            verdict(&base, &[102.0, 103.0, 101.0, 102.5, 101.5], Lower, 0.05),
            Verdict::Same
        );
        // Median 8 % worse, tight spread: worse — in the metric's own direction.
        let slow = [108.0, 109.0, 107.0, 108.5, 107.5];
        assert_eq!(verdict(&base, &slow, Lower, 0.05), Verdict::Worse);
        assert_eq!(verdict(&base, &slow, Higher, 0.05), Verdict::Better);
        assert_eq!(verdict(&slow, &base, Higher, 0.05), Verdict::Worse);
        // Every run better than every baseline run: better.
        assert_eq!(
            verdict(&base, &[90.0, 91.0, 89.0, 90.5, 89.5], Lower, 0.05),
            Verdict::Better
        );
        // Overlapping runs inside the bound are never "better".
        assert_eq!(
            verdict(&base, &[99.0, 100.0, 98.0, 99.5, 100.5], Lower, 0.05),
            Verdict::Same
        );
    }

    #[test]
    fn wide_spread_is_unresolved_unless_sets_separate() {
        let noisy = [100.0, 120.0, 80.0, 110.0, 90.0];
        // Spread ≫ bound and the sets overlap: the runs cannot tell.
        assert_eq!(
            verdict(&noisy, &[108.0, 125.0, 85.0, 115.0, 95.0], Lower, 0.05),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &[92.0, 112.0, 75.0, 102.0, 85.0], Lower, 0.05),
            Verdict::Unresolved
        );
        // … unless every run of one set beats every run of the other.
        assert_eq!(
            verdict(&noisy, &[60.0, 70.0, 50.0, 65.0, 55.0], Lower, 0.05),
            Verdict::Better
        );
        assert_eq!(
            verdict(&noisy, &[160.0, 170.0, 150.0, 165.0, 155.0], Lower, 0.05),
            Verdict::Worse
        );
        // A single run per side has no spread to speak of.
        assert_eq!(verdict(&[100.0], &[104.0], Lower, 0.05), Verdict::Same);
        assert_eq!(verdict(&[100.0], &[106.0], Lower, 0.05), Verdict::Worse);
    }

    #[test]
    fn benchmark_json_has_the_contract_shape() {
        let doc = benchmark_json();
        let command = doc.get("command").unwrap().as_arr().unwrap();
        assert!(command.len() <= 32);
        assert!(doc.to_json_pretty().len() < 64 * 1024);
        assert_eq!(parse(&doc.to_json_pretty()).unwrap(), doc);
    }
}
