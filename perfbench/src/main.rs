//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a table of its metrics (with the sample
//! count behind each), then, as the last line of standard output, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics`. Exits non-zero
//! when an output check failed.

use std::process::ExitCode;

use perfbench::{run, Options, Sizes, Workload, REF_NOMINAL_MS};

const USAGE: &str = "usage: perfbench --workload <node_steady|fleet_diurnal|sweep_grid> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse(args: &[String]) -> Result<Options, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .ok_or_else(|| format!("--seconds: bad value {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        sizes: Sizes::full(),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    for problem in &report.problems {
        eprintln!("check failed: {problem}");
    }
    for finding in &report.findings {
        eprintln!("finding: {finding}");
    }
    println!(
        "# {} seed {} trace {}: {} attempted, {} failed, digest {:016x}",
        opts.workload.name(),
        opts.seed,
        u8::from(opts.trace),
        report.attempted,
        report.failed,
        report.digest
    );
    if !opts.trace {
        println!(
            "# host probe median chunk {:.6} ms (reference speed {REF_NOMINAL_MS} ms): host \
             times are at the reference speed, raw = as the host ran",
            report.host_ref_ms
        );
    }
    for m in &report.metrics {
        let raw = m.raw.map_or(String::new(), |r| format!(" raw={r:.6}"));
        println!(
            "# {:<30} {:>14.6} {:<6} n={}{raw}",
            m.name, m.value, m.unit, m.samples
        );
    }
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
