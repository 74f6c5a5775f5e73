//! Regression bench for the decision quantum's compute path.
//!
//! Runs the actual runtime — not a micro-benchmark — over the paper-default
//! and two-service scenarios twice each: once on the legacy cold path
//! ([`PerfConfig::cold`]: spawn-per-quantum threads, cold-started SGD)
//! and once on the fast path ([`PerfConfig::fast`]: persistent worker pool,
//! warm-started reconstruction). Per-stage wall times come from the pipeline's own
//! [`StageTelemetry`], aggregated as mean/p99 over the steady-state quanta
//! (the first quantum is cold on every path and is excluded).
//!
//! Usage: `decision_loop [--slices N] [--threads N] [--json [path]]
//! [--check <baseline.json>] [--profile <stage>]`
//!
//! * `--slices N` — quanta per run (default 20).
//! * `--threads N` — worker-pool width for the fast path (default: the
//!   pool's machine-sized default).
//! * `--json [path]` — write the report as JSON (default path
//!   `BENCH_decision_loop.json`, or `BENCH_decision_loop_<stage>.json`
//!   under `--profile`). The document carries a flat `metrics` object so
//!   the checker below needs no JSON parser.
//! * `--check <baseline>` — compare against a previously recorded report
//!   and exit non-zero if any stage mean regressed by more than 25 %.
//! * `--profile <stage>` — report one pipeline stage alone. The intended
//!   use is `--profile search`: the DDS search is the decision loop's
//!   dominant optimizable cost, and isolating it gives the search a
//!   regression gate of its own (pinned baseline:
//!   `results/bench_baseline_decision_loop_search.json`) that is not
//!   diluted by reconstruct noise. The whole pipeline still executes —
//!   stages feed each other, so a stage cannot run out of context — but
//!   the report and `--check` cover only the profiled stage's columns.
//!
//! [`StageTelemetry`]: cuttlesys::telemetry::StageTelemetry

use std::path::PathBuf;
use std::process::ExitCode;

use bench::report::{emit_json, JsonValue};
use bench::Table;
use cuttlesys::runtime::{CuttleSysManager, PerfConfig};
use cuttlesys::testbed::run_scenario;
use cuttlesys::types::Scenario;
use workloads::loadgen::LoadPattern;

/// Fractional regression in a stage mean that fails `--check`.
const REGRESSION_TOLERANCE: f64 = 0.25;

/// Stage means below this are dominated by timer noise (the qos and repair
/// stages run in single-digit microseconds) and are exempt from the gate.
const NOISE_FLOOR_MS: f64 = 0.05;

/// Telemetry stages timed per quantum, in pipeline order. Profile cost is
/// simulated sampling time by construction; the rest are host wall-clock.
const STAGES: [&str; 5] = ["profile_sim", "reconstruct", "qos", "search", "repair"];

struct StageStat {
    mean: f64,
    p99: f64,
}

fn stat(values: &mut [f64]) -> StageStat {
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    values.sort_by(|a, b| a.total_cmp(b));
    let idx = ((values.len() as f64 * 0.99).ceil() as usize).clamp(1, values.len()) - 1;
    StageStat {
        mean,
        p99: values[idx],
    }
}

/// One measured run of a scenario under one perf configuration.
struct PathMetrics {
    stages: Vec<(&'static str, StageStat)>,
    warm_solves: usize,
    /// Mean reconstruct + search wall time — the compute the tentpole
    /// optimizations target, and the speedup's numerator/denominator.
    reconstruct_search_mean: f64,
}

fn measure(scenario: &Scenario, perf: PerfConfig) -> PathMetrics {
    let mut manager = CuttleSysManager::for_scenario(scenario).with_perf(perf);
    let record = run_scenario(scenario, &mut manager);
    let tels: Vec<_> = record
        .slices
        .iter()
        .skip(1)
        .filter_map(|s| s.telemetry.as_ref())
        .collect();
    assert!(!tels.is_empty(), "run produced no steady-state telemetry");
    let mut columns: Vec<Vec<f64>> = STAGES.iter().map(|_| Vec::new()).collect();
    for t in &tels {
        columns[0].push(t.profile_sim_ms);
        columns[1].push(t.reconstruct_wall_ms);
        columns[2].push(t.qos_wall_ms);
        columns[3].push(t.search_wall_ms);
        columns[4].push(t.repair_wall_ms);
    }
    let reconstruct_search_mean =
        (columns[1].iter().sum::<f64>() + columns[3].iter().sum::<f64>()) / tels.len() as f64;
    let stages = STAGES
        .iter()
        .zip(&mut columns)
        .map(|(name, col)| (*name, stat(col)))
        .collect();
    PathMetrics {
        stages,
        warm_solves: tels.iter().map(|t| t.warm_solves).sum(),
        reconstruct_search_mean,
    }
}

fn scenarios(slices: usize) -> Vec<(&'static str, Scenario)> {
    let paper = Scenario {
        cap: LoadPattern::Constant(0.7),
        duration_slices: slices,
        noise: 0.0,
        phases: false,
        ..Scenario::paper_default()
    }
    .with_load(LoadPattern::Constant(0.8));
    let two = Scenario {
        cap: LoadPattern::Constant(0.7),
        duration_slices: slices,
        noise: 0.0,
        phases: false,
        ..Scenario::two_service()
    };
    vec![("paper_default", paper), ("two_service", two)]
}

/// Pulls `"key":<number>` out of a JSON document without a parser — the
/// report's `metrics` object is flat and its keys contain no escapes, so a
/// literal scan is exact.
fn extract_number(body: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    let rest = &body[at..];
    let end = rest.find([',', '}', ']']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

struct CliArgs {
    slices: usize,
    threads: Option<usize>,
    json: Option<PathBuf>,
    check: Option<PathBuf>,
    profile: Option<&'static str>,
}

fn parse_args() -> CliArgs {
    let mut args = CliArgs {
        slices: 20,
        threads: None,
        json: None,
        check: None,
        profile: None,
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut it = raw.into_iter().peekable();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--slices" => {
                args.slices = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--slices takes a positive integer");
            }
            "--threads" => {
                args.threads = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .expect("--threads takes a positive integer"),
                );
            }
            "--json" => {
                // The path operand is optional: a following flag (or
                // nothing) means the default output name, resolved in
                // main once --profile (which may come later) is known.
                let path = match it.peek() {
                    Some(p) if !p.starts_with("--") => PathBuf::from(it.next().expect("peeked")),
                    _ => PathBuf::new(),
                };
                args.json = Some(path);
            }
            "--check" => {
                args.check = Some(PathBuf::from(
                    it.next().expect("--check takes a baseline path"),
                ));
            }
            "--profile" => {
                let stage = it.next().expect("--profile takes a stage name");
                args.profile = Some(
                    STAGES
                        .iter()
                        .find(|s| **s == stage)
                        .copied()
                        .unwrap_or_else(|| {
                            panic!("--profile takes one of {STAGES:?}, got \"{stage}\"")
                        }),
                );
            }
            other => panic!("unknown argument: {other}"),
        }
    }
    assert!(args.slices >= 2, "need at least 2 slices for steady state");
    args
}

fn main() -> ExitCode {
    let args = parse_args();
    let fast_perf = match args.threads {
        Some(n) => PerfConfig {
            pool_threads: n,
            ..PerfConfig::fast()
        },
        None => PerfConfig::fast(),
    };

    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut tables = Vec::new();
    for (name, scenario) in scenarios(args.slices) {
        let cold = measure(&scenario, PerfConfig::cold());
        let fast = measure(&scenario, fast_perf);

        let scope = match args.profile {
            Some(stage) => format!(" [{stage} stage only]"),
            None => String::new(),
        };
        let mut table = Table::new(
            &format!(
                "decision_loop: {name}{scope} ({} steady-state quanta, {} pool threads)",
                args.slices - 1,
                fast_perf.pool_threads
            ),
            &[
                "stage",
                "cold mean ms",
                "cold p99 ms",
                "fast mean ms",
                "fast p99 ms",
                "speedup",
            ],
        );
        for ((stage, c), (_, f)) in cold
            .stages
            .iter()
            .zip(&fast.stages)
            .filter(|((s, _), _)| args.profile.is_none_or(|p| p == *s))
        {
            table.row(vec![
                (*stage).into(),
                format!("{:.3}", c.mean),
                format!("{:.3}", c.p99),
                format!("{:.3}", f.mean),
                format!("{:.3}", f.p99),
                if f.mean > 0.0 {
                    format!("{:.2}x", c.mean / f.mean)
                } else {
                    "-".into()
                },
            ]);
            for (path, s) in [("cold", c), ("fast", f)] {
                metrics.push((format!("{name}.{path}.{stage}.mean"), s.mean));
                metrics.push((format!("{name}.{path}.{stage}.p99"), s.p99));
            }
        }
        table.print();
        match args.profile {
            Some("search") => {
                let (_, cold_s) = &cold.stages[3];
                let (_, fast_s) = &fast.stages[3];
                let speedup = if fast_s.mean > 0.0 {
                    cold_s.mean / fast_s.mean
                } else {
                    0.0
                };
                println!(
                    "{name}: search {:.3} ms -> {:.3} ms ({:.2}x)",
                    cold_s.mean, fast_s.mean, speedup
                );
                metrics.push((format!("{name}.speedup_search"), speedup));
            }
            Some(_) => {}
            None => {
                let speedup = cold.reconstruct_search_mean / fast.reconstruct_search_mean;
                println!(
                    "{name}: reconstruct+search {:.3} ms -> {:.3} ms ({:.2}x), \
                     {} warm solves",
                    cold.reconstruct_search_mean,
                    fast.reconstruct_search_mean,
                    speedup,
                    fast.warm_solves
                );
                metrics.push((format!("{name}.speedup_reconstruct_search"), speedup));
                metrics.push((format!("{name}.fast.warm_solves"), fast.warm_solves as f64));
            }
        }
        println!();
        tables.push(table.to_json());
    }

    if let Some(path) = &args.json {
        let path = if path.as_os_str().is_empty() {
            PathBuf::from(match args.profile {
                Some(stage) => format!("BENCH_decision_loop_{stage}.json"),
                None => "BENCH_decision_loop.json".to_string(),
            })
        } else {
            path.clone()
        };
        let bench_name = match args.profile {
            Some(stage) => format!("decision_loop_{stage}"),
            None => "decision_loop".to_string(),
        };
        let doc = JsonValue::Obj(vec![
            ("bench".into(), JsonValue::Str(bench_name)),
            (
                "threads".into(),
                JsonValue::Num(fast_perf.pool_threads as f64),
            ),
            ("slices".into(), JsonValue::Num(args.slices as f64)),
            (
                "metrics".into(),
                JsonValue::Obj(
                    metrics
                        .iter()
                        .map(|(k, v)| (k.clone(), JsonValue::Num(*v)))
                        .collect(),
                ),
            ),
            ("tables".into(), JsonValue::Arr(tables)),
        ]);
        emit_json(&path, &doc).expect("write JSON report");
        println!("JSON report written to {}", path.display());
    }

    if let Some(baseline_path) = &args.check {
        let baseline = std::fs::read_to_string(baseline_path).expect("read baseline JSON");
        let mut regressions = 0usize;
        let mut compared = 0usize;
        for (key, measured) in &metrics {
            if !key.ends_with(".mean") {
                continue;
            }
            let Some(base) = extract_number(&baseline, key) else {
                continue;
            };
            compared += 1;
            if base > 0.0
                && *measured > NOISE_FLOOR_MS
                && *measured > base * (1.0 + REGRESSION_TOLERANCE)
            {
                println!(
                    "REGRESSION {key}: {measured:.3} ms vs baseline {base:.3} ms \
                     (> {:.0}% over)",
                    100.0 * REGRESSION_TOLERANCE
                );
                regressions += 1;
            }
        }
        assert!(compared > 0, "baseline shares no stage-mean metrics");
        if regressions > 0 {
            println!("{regressions} of {compared} stage means regressed");
            return ExitCode::FAILURE;
        }
        println!("check passed: {compared} stage means within tolerance");
    }
    ExitCode::SUCCESS
}
