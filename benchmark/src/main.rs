//! The repository's benchmark of record for the bound → plan → execute →
//! serve path.  See `README.md` beside this package for what each workload
//! and metric is for; `BENCHMARK.json` at the repository root is the
//! contract (names, units, directions, regression bounds).
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//! runs one workload in this process and prints every metric by name, then
//! one JSON object as the last line.  Without `--workload` every workload
//! runs, each in a fresh child process of this binary; `--repeat <k>` turns
//! that into the run-to-run self-check.

mod inputs;
mod json;
mod probes;
mod reference;
mod stats;
mod suite;
mod trace;
mod workloads;

use inputs::{bound_log2, generate, Kind, Schedule};
use json::Json;
use probes::{metric, Metric, TracedRun};
use std::process::ExitCode;
use std::time::Instant;
use trace::Recorder;

/// Timed seconds per run when `--seconds` is not given; `BENCHMARK.json`'s
/// `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 25.0;

/// How often a run sets up before it measures; `setup_s` is the mean of the
/// fastest three quarters of them.
#[derive(Debug, Clone, Copy)]
pub struct SetUps {
    /// At least this many,
    pub at_least: usize,
    /// then more until this many seconds have gone into set-ups,
    pub until_s: f64,
    /// but never more than this many.
    pub at_most: usize,
}

const SET_UPS: SetUps = SetUps {
    at_least: 3,
    until_s: 3.0,
    at_most: 40,
};

/// Share of a run's set-ups, counted from the fastest, that `setup_s`
/// averages: what else runs on the host only ever slows a set-up down.
const SET_UPS_KEPT: f64 = 0.75;

/// Windows the timed loop is cut into (fewer when it has fewer cycles).
const WINDOWS: usize = 10;

/// Where in a run's passes, slowest last, `plan-cold` reads its throughput.
const SLOW_PASS: f64 = 0.75;

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<Kind>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub repeat: Option<usize>,
}

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: None,
            seed: 1,
            seconds: DEFAULT_SECONDS,
            trace: false,
            repeat: None,
        };
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value"))?;
            let bad = || format!("bad value `{value}` for `{flag}`");
            match flag.as_str() {
                "--workload" => out.workload = Some(Kind::from_name(&value).ok_or_else(bad)?),
                "--seed" => out.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    out.seconds = value.parse().map_err(|_| bad())?;
                    if !(out.seconds > 0.0 && out.seconds <= 3600.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                "--repeat" => {
                    let k: usize = value.parse().map_err(|_| bad())?;
                    if !(1..=100).contains(&k) {
                        return Err(bad());
                    }
                    out.repeat = Some(k);
                }
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        if out.repeat.is_some() && out.trace {
            return Err("`--repeat` compares end-to-end metrics; drop `--trace 1`".into());
        }
        Ok(out)
    }
}

/// One workload's run, ready to print.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Unbounded context printed beside the metrics: sample counts, shares.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn result_line(&self) -> Json {
        let metrics = self.metrics.iter().map(|m| {
            (
                m.name,
                Json::obj([
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]),
            )
        });
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Of a metric's values over the windows of a run, the second best (the
/// best when there is one window).  Interference on a shared box only ever
/// makes a window worse, so the good end of the windows is what the program
/// itself does; passing over the single best keeps one lucky window (on
/// `serve-churn`, one with few misses) from setting the number.
fn second_best(mut values: Vec<f64>, higher_is_better: bool) -> f64 {
    stats::sort(&mut values);
    if higher_is_better {
        values.reverse();
    }
    values.get(1).or(values.first()).copied().unwrap_or(0.0)
}

/// `throughput_qps`, `latency_p50_ms` and `latency_p95_ms` of a timed loop.
///
/// Each is read off the second-best of ten windows, except two on
/// `plan-cold`.  That workload has a dozen passes, not hundreds of cycles,
/// and the program plans `large-mixed-12` in one of two ways from call to
/// call (a fast and a slow one, about evenly; see the README), so a window of
/// one or two passes reads whichever it drew.  Its p95 is therefore over the
/// whole run's operations, where it falls inside the slow plans, and its
/// throughput is the operations of a pass over the upper-quartile pass time:
/// quantiles that sit inside one cluster and stay there from run to run,
/// where a mean or a median of the passes moves with how many of each the
/// run drew.  Its p50 is `misleading-chain` in every window and stays windowed.
fn timings(kind: Kind, timed: &workloads::Timed) -> [f64; 3] {
    let windows = timed.windows(WINDOWS);
    let per_window = |p: f64| -> Vec<f64> {
        windows
            .iter()
            .map(|w| stats::percentile(&w.latencies_ms, p))
            .collect()
    };
    let p50_ms = second_best(per_window(0.5), false);
    if kind == Kind::PlanCold {
        let mut passes: Vec<f64> = timed
            .clients
            .iter()
            .flat_map(|c| &c.cycle_s)
            .copied()
            .collect();
        stats::sort(&mut passes);
        let ops_per_pass = timed.succeeded() as f64 / passes.len().max(1) as f64;
        return [
            ops_per_pass / stats::percentile(&passes, SLOW_PASS),
            p50_ms,
            stats::percentile(&timed.latencies_ms(), 0.95),
        ];
    }
    [
        second_best(windows.iter().map(|w| w.qps).collect(), true),
        p50_ms,
        second_best(per_window(0.95), false),
    ]
}

fn note(notes: &mut Vec<(String, String)>, key: &str, value: impl ToString) {
    notes.push((key.to_string(), value.to_string()));
}

/// Run one workload in this process.  Untraced: the set-ups, then the timed
/// loop, the end-to-end metrics.  Traced: one set-up, half the seconds
/// untraced and half traced, the per-layer metrics.
pub fn run_workload(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    set_ups: SetUps,
) -> Result<Outcome, String> {
    let schedule = Schedule::new(seed);
    let mut notes = Vec::new();

    let (timed_runs, metrics) = if !trace {
        let mut set_up_s: Vec<f64> = Vec::new();
        let mut workload = workloads::set_up_timed(kind, &mut set_up_s)?;
        while set_up_s.len() < set_ups.at_most
            && (set_up_s.len() < set_ups.at_least || set_up_s.iter().sum::<f64>() < set_ups.until_s)
        {
            drop(workload);
            workload = workloads::set_up_timed(kind, &mut set_up_s)?;
        }
        let timed = workload.run(seconds, schedule, None);
        let [qps, p50_ms, p95_ms] = timings(kind, &timed);
        let sorted = timed.latencies_ms();
        note(&mut notes, "ops", timed.succeeded().to_string());
        note(&mut notes, "failed_ops", timed.failed.to_string());
        note(&mut notes, "samples", sorted.len().to_string());
        note(
            &mut notes,
            "samples_beyond_p95",
            stats::samples_beyond(sorted.len(), 0.95).to_string(),
        );
        note(
            &mut notes,
            "p95_has_ten_samples_beyond",
            stats::percentile_is_supported(sorted.len(), 0.95).to_string(),
        );
        note(&mut notes, "set_ups", set_up_s.len().to_string());
        let cycles = timed.clients.iter().map(|c| c.cycle_s.len()).min();
        note(
            &mut notes,
            "cycles_per_client",
            cycles.unwrap_or(0).to_string(),
        );
        note(&mut notes, "timed_s", timed.elapsed_s.to_string());
        // The same three timings over the whole run, interference included.
        note(&mut notes, "whole_run_qps", timed.mean_qps().to_string());
        let whole = |p: f64| stats::percentile(&sorted, p).to_string();
        note(&mut notes, "whole_run_p50_ms", whole(0.5));
        note(&mut notes, "whole_run_p95_ms", whole(0.95));
        if workload.service().is_some() {
            let cold = timed.misses as f64 / timed.succeeded().max(1) as f64;
            note(&mut notes, "cold_share", cold.to_string());
            note(&mut notes, "publishes", timed.publishes.to_string());
        }
        let metrics = vec![
            metric(
                "setup_s",
                stats::mean_of_fastest(&set_up_s, SET_UPS_KEPT),
                "s",
            ),
            metric("throughput_qps", qps, "1/s"),
            metric("latency_p50_ms", p50_ms, "ms"),
            metric("latency_p95_ms", p95_ms, "ms"),
            metric("peak_rss_mb", peak_rss_mib()?, "MiB"),
            metric("peak_rows", workload.facts().peak_rows, "rows"),
            metric(
                "bound_slack_log2",
                workload.facts().bound_slack_log2,
                "bits",
            ),
        ];
        (vec![timed], metrics)
    } else {
        // The process's first bound, LP skeletons cold, before anything else
        // builds them.
        let data = generate(kind);
        let t = Instant::now();
        bound_log2(&data.queries[0], &data.catalogs[data.catalog_of[0]])?;
        let first_bound_ms = t.elapsed().as_secs_f64() * 1e3;
        drop(data);

        let workload = workloads::set_up(kind)?;
        let untraced = workload.run(seconds / 2.0, schedule, None);
        let before = workload.service().map(|s| s.stats());
        let mut recorder = Recorder::new(Instant::now());
        let traced = workload.run(seconds / 2.0, schedule, Some(&mut recorder));
        let after = workload.service().map(|s| s.stats());
        let metrics = probes::per_layer(&TracedRun {
            kind,
            workload: workload.as_ref(),
            untraced: &untraced,
            traced: &traced,
            recorder: &recorder,
            serve_stats: before.zip(after),
            first_bound_ms,
        })?;
        for (name, roll) in recorder.roll_up() {
            note(
                &mut notes,
                &format!("span {name}"),
                format!(
                    "count {} total_ms {} self_ms {}",
                    roll.count,
                    roll.total_us / 1e3,
                    roll.self_us / 1e3
                ),
            );
        }
        let path = write_trace(kind, seed, &recorder)?;
        note(&mut notes, "trace_file", path);
        (vec![untraced, traced], metrics)
    };

    for failure in timed_runs.iter().flat_map(|t| &t.failures) {
        eprintln!("failed op: {failure}");
    }
    if let Some(bad) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric `{}` is not a number", bad.name));
    }
    let attempted: u64 = timed_runs.iter().map(|t| t.attempted).sum();
    let failed: u64 = timed_runs.iter().map(|t| t.failed).sum();
    Ok(Outcome {
        correct: failed == 0 && attempted > 0,
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Write the spans beside the executable (inside the build directory, so
/// inside the checkout and ignored by git).
fn write_trace(kind: Kind, seed: u64, recorder: &Recorder) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = exe
        .parent()
        .ok_or_else(|| "the executable has no directory".to_string())?
        .join("benchmark-trace");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join(format!("trace-{}.json", kind.name()));
    std::fs::write(&path, recorder.to_json(kind.name(), seed).to_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

fn print_outcome(kind: Kind, args: &Args, outcome: &Outcome) {
    println!(
        "workload {} seed {} seconds {} trace {} nproc {} serve_clients {}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, usize::from),
        workloads::serve_clients(),
    );
    for m in &outcome.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    for (key, value) in &outcome.notes {
        println!("note {key} {value}");
    }
    println!("{}", outcome.result_line());
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}");
            eprintln!(
                "usage: benchmark [--workload <{}>] [--seed <n>] [--seconds <s>] [--trace <0|1>] [--repeat <k>]",
                Kind::ALL.map(Kind::name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload {
        Some(kind) if args.repeat.is_none() => {
            run_workload(kind, args.seed, args.seconds, args.trace, SET_UPS).map(|outcome| {
                print_outcome(kind, &args, &outcome);
                outcome.correct
            })
        }
        _ => suite::run(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ONE_SET_UP: SetUps = SetUps {
        at_least: 1,
        until_s: 0.0,
        at_most: 1,
    };

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn the_second_best_window_sets_a_metric() {
        assert_eq!(second_best(vec![3.0, 9.0, 5.0], true), 5.0);
        assert_eq!(second_best(vec![3.0, 9.0, 5.0], false), 5.0);
        assert_eq!(second_best(vec![4.0, 1.0, 2.0, 8.0], false), 2.0);
        assert_eq!(second_best(vec![7.0], true), 7.0);
        assert_eq!(second_best(Vec::new(), true), 0.0);
    }

    #[test]
    fn plan_cold_reads_whole_run_quantiles_that_stay_inside_one_mode() {
        // Eight passes of two operations: a steady small one and a plan that
        // is fast (1 s) in three passes and slow (2 s) in five.
        let plans = [2.0, 1.0, 2.0, 2.0, 1.0, 2.0, 1.0, 2.0];
        let timed = workloads::Timed {
            attempted: 16,
            clients: vec![workloads::ClientCycles {
                ops_per_cycle: 2,
                cycle_s: plans.iter().map(|p| p + 0.01).collect(),
                latencies_ms: plans.iter().flat_map(|p| [10.0, p * 1e3]).collect(),
            }],
            ..workloads::Timed::default()
        };
        let [qps, p50, p95] = timings(Kind::PlanCold, &timed);
        assert_eq!(qps, 2.0 / (2.0 + 0.01));
        assert_eq!(p50, 10.0);
        assert_eq!(p95, 2000.0);
        // The windows of the other workloads would have picked a fast pass.
        assert_eq!(timings(Kind::BoundOnly, &timed)[0], 2.0 / (1.0 + 0.01));
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse(&[
            "--workload",
            "serve-churn",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload, Some(Kind::ServeChurn));
        assert_eq!((args.seed, args.seconds, args.trace), (42, 10.0, true));
        assert_eq!(parse(&[]).unwrap().seconds, DEFAULT_SECONDS);
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--repeat", "2", "--trace", "1"]).is_err());
    }

    /// The contract file, read from the repository root.
    fn contract() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap()
    }

    fn names(contract: &Json, key: &str) -> Vec<(String, String)> {
        contract
            .get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn the_contract_names_the_workloads_and_the_default_run_length() {
        let contract = contract();
        let workloads: Vec<String> = names(&contract, "workloads")
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(workloads, Kind::ALL.map(Kind::name));
        assert_eq!(
            contract.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }

    /// A one-second smoke of `kind`: with tracing off it prints exactly the
    /// contract's end-to-end metrics, with tracing on exactly its per-layer
    /// metrics, each once, each with the contract's unit, none failing.
    fn smoke(kind: Kind) {
        let contract = contract();
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let outcome = run_workload(kind, 3, 1.0, trace, ONE_SET_UP).unwrap();
            assert!(outcome.correct, "{}: failed operations", kind.name());
            assert_eq!(outcome.failed, 0);
            assert!(outcome.attempted >= 1);
            let printed: Vec<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(printed, names(&contract, key), "{} {key}", kind.name());
            let line = Json::parse(&outcome.result_line().to_string()).unwrap();
            let metrics = line.get("metrics").and_then(Json::as_object).unwrap();
            assert_eq!(metrics.len(), printed.len());
            if !trace {
                for m in &outcome.metrics {
                    assert!(m.value > 0.0, "{} {} is {}", kind.name(), m.name, m.value);
                }
            }
        }
    }

    #[test]
    fn serve_steady_smoke() {
        smoke(Kind::ServeSteady);
        // Every shape was planned in warm-up: the timed loop only hits.
        let outcome = run_workload(Kind::ServeSteady, 5, 1.0, true, ONE_SET_UP).unwrap();
        let value = |name: &str| {
            outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .unwrap()
                .value
        };
        assert_eq!(value("serve.cache_hit_rate"), 1.0);
        // (`lp.*` counts the whole process, other tests' solves included.)
        assert_eq!(value("serve.plan_pivots"), 0.0);
        assert_eq!(value("serve.batches"), 0.0);
    }

    #[test]
    fn serve_churn_smoke_and_cold_share() {
        smoke(Kind::ServeChurn);
        let outcome = run_workload(Kind::ServeChurn, 4, 1.0, false, ONE_SET_UP).unwrap();
        let cold: f64 = outcome
            .notes
            .iter()
            .find(|(k, _)| k == "cold_share")
            .unwrap()
            .1
            .parse()
            .unwrap();
        assert!((0.2..=0.45).contains(&cold), "cold share {cold}");
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "plans a 12-atom query several times: minutes unoptimized, run with --release"
    )]
    fn plan_cold_smoke() {
        smoke(Kind::PlanCold);
    }

    #[test]
    fn bound_only_smoke() {
        smoke(Kind::BoundOnly);
        // No planner, executor or service on this workload's path.
        let outcome = run_workload(Kind::BoundOnly, 1, 1.0, true, ONE_SET_UP).unwrap();
        for m in &outcome.metrics {
            if m.name.starts_with("exec.") || m.name.starts_with("serve.") {
                assert_eq!(m.value, 0.0, "{}", m.name);
            }
        }
    }
}
