//! Running the whole set: every workload in a fresh child process of this
//! binary (so process-wide LP skeleton caches and the peak-RSS high-water
//! mark never leak from one workload into the next), and the `--repeat`
//! self-check that holds two sets of runs of the same build against the
//! bounds in `BENCHMARK.json`.

use crate::inputs::Kind;
use crate::json::Json;
use crate::stats;
use crate::Args;
use std::process::{Command, Stdio};

/// One child run's result line.
struct ChildResult {
    correct: bool,
    failed: u64,
    /// `(name, value, unit)` in printed order.
    metrics: Vec<(String, f64, String)>,
}

fn run_child(kind: Kind, seed: u64, seconds: f64, trace: bool) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let line = Json::parse(last).map_err(|e| {
        format!(
            "{} seed {seed}: child exited with {} and no result line ({e})",
            kind.name(),
            output.status
        )
    })?;
    let metrics = line
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("result line without metrics")?
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            (name.clone(), value, unit.to_string())
        })
        .collect();
    Ok(ChildResult {
        correct: line.get("correct").and_then(Json::as_bool) == Some(true),
        failed: line.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        metrics,
    })
}

/// The bound and direction `BENCHMARK.json` fixes per end-to-end metric.
struct Contract {
    /// `(name, lower_is_better, bound)`.
    end_to_end: Vec<(String, bool, f64)>,
}

impl Contract {
    fn read() -> Result<Contract, String> {
        let text = std::fs::read_to_string("BENCHMARK.json")
            .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
        let json = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let end_to_end = json
            .get("end_to_end")
            .and_then(Json::as_array)
            .ok_or("BENCHMARK.json has no end_to_end list")?
            .iter()
            .map(|m| {
                Some((
                    m.get("name")?.as_str()?.to_string(),
                    m.get("better")?.as_str()? == "lower",
                    m.get("bound")?.as_f64()?,
                ))
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("BENCHMARK.json: malformed end_to_end entry")?;
        Ok(Contract { end_to_end })
    }
}

pub fn run(args: &Args) -> Result<bool, String> {
    let kinds: Vec<Kind> = args.workload.map_or(Kind::ALL.to_vec(), |k| vec![k]);
    match args.repeat {
        None => run_once(&kinds, args),
        Some(k) => self_check(&kinds, args, k),
    }
}

/// Every workload once (plus its traced run when asked), metrics by name.
fn run_once(kinds: &[Kind], args: &Args) -> Result<bool, String> {
    let mut ok = true;
    for &kind in kinds {
        for trace in [false, true] {
            if trace && !args.trace {
                continue;
            }
            let child = run_child(kind, args.seed, args.seconds, trace)?;
            ok &= child.correct;
            for (name, value, unit) in &child.metrics {
                println!("{:<13} {name:<28} {value} {unit}", kind.name());
            }
            println!("{:<13} {:<28} {}", kind.name(), "failed_ops", child.failed);
        }
    }
    Ok(ok)
}

/// Two sets of `k` runs per workload (seeds `seed .. seed + k`, the same in
/// both sets), compared the way the driver compares them: within a set the
/// inter-quartile spread of each end-to-end metric as a share of its median
/// (needs `k ≥ 2`), across the sets how much worse the second median is.
/// Both must stay within the metric's bound (the spread of `setup_s` is
/// printed but not held to it), and no operation may fail.
fn self_check(kinds: &[Kind], args: &Args, k: usize) -> Result<bool, String> {
    let contract = Contract::read()?;
    let mut ok = true;
    for &kind in kinds {
        let mut sets: Vec<Vec<ChildResult>> = Vec::new();
        for _ in 0..2 {
            let mut set = Vec::with_capacity(k);
            for i in 0..k as u64 {
                let child = run_child(kind, args.seed + i, args.seconds, false)?;
                if !child.correct {
                    println!(
                        "{} seed {}: {} failed operations",
                        kind.name(),
                        args.seed + i,
                        child.failed
                    );
                    ok = false;
                }
                set.push(child);
            }
            sets.push(set);
        }
        for (name, lower_is_better, bound) in &contract.end_to_end {
            let values = |set: &[ChildResult]| -> Result<Vec<f64>, String> {
                set.iter()
                    .map(|c| {
                        c.metrics
                            .iter()
                            .find(|(n, _, _)| n == name)
                            .map(|(_, v, _)| *v)
                            .ok_or_else(|| format!("{}: `{name}` was not printed", kind.name()))
                    })
                    .collect()
            };
            let (first, second) = (values(&sets[0])?, values(&sets[1])?);
            let (m1, m2) = (stats::median(&first), stats::median(&second));
            let worse = if *lower_is_better { m2 - m1 } else { m1 - m2 } / m1.abs();
            let spread = |v: &[f64]| if k >= 2 { stats::iqr_share(v) } else { 0.0 };
            let (s1, s2) = (spread(&first), spread(&second));
            let spread_ok = name == "setup_s" || (s1 <= *bound && s2 <= *bound);
            let verdict = if worse <= *bound && spread_ok {
                "ok"
            } else {
                ok = false;
                "BEYOND BOUND"
            };
            println!(
                "{:<13} {name:<17} median {m1:.6} then {m2:.6}  worse by {:+.3}%  spread {:.3}% then {:.3}%  bound {:.4}%  {verdict}",
                kind.name(),
                worse * 100.0,
                s1 * 100.0,
                s2 * 100.0,
                bound * 100.0,
            );
            println!(
                "{:<13} {name:<17} per seed: {}",
                kind.name(),
                first
                    .iter()
                    .zip(&second)
                    .map(|(a, b)| format!("{a:.4}/{b:.4}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            );
        }
    }
    Ok(ok)
}
