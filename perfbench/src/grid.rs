//! `sweep_grid`: the decision code used as many short runs.
//!
//! The spec in `sweep_grid.json` is soak-shaped: one node, Xapian plus two
//! batch jobs, steady and ramp load, `clean` and `lossy-sensors` fault
//! profiles, two quanta per run. The benchmark replaces its seed list with
//! `sweep_seeds` seeds derived from `--seed` and runs one
//! `sweep::run_sweep` per seed (every grid cell, in parallel on a
//! `WorkerPool` of the default width), rendering `summary.json` and the
//! tables after each. The cost is manager and pool construction, cold
//! tail buckets, the degradation ladder, the detectors and the summary
//! render; DDS does almost nothing. A gain in `node_steady` that moves
//! cost into set-up shows here.

use std::time::Instant;

use cuttlesys::types::Scenario;
use cuttlesys::{CuttleSysManager, RunRecord};
use sweep::runner::grid;
use sweep::SweepSpec;
use sweep::{
    load_spec, render_tables, run_sweep, summary_json, RunMetrics, RunOutcome, SweepOutcome,
};
use util::WorkerPool;

use crate::trace::{driver_pass, BucketTracker, TimedManager};
use crate::{drive, ms, os_threads, HostSpeed, Options, Report, Sample, SimTotals, Sizes, Tally};

const SPEC: &str = include_str!("../sweep_grid.json");

/// The grid spec with `count` seeds derived from `seed`.
pub fn spec(seed: u64, count: usize) -> Result<SweepSpec, String> {
    let mut spec = load_spec(SPEC).map_err(|e| format!("sweep_grid.json: {e}"))?;
    let base = seed.wrapping_mul(count as u64);
    spec.seeds = (0..count as u64).map(|k| base.wrapping_add(k)).collect();
    spec.seeds.sort_unstable();
    spec.seeds.dedup();
    Ok(spec)
}

/// One pass over the grid: a sweep per seed.
struct GridPass {
    setup_s: Sample,
    /// Per sweep: its wall time over the node-quanta it ran.
    per_quantum_ms: Vec<Sample>,
    /// Per sweep: its wall time.
    sweep_ms: Vec<Sample>,
    summary_ms: Vec<f64>,
    node_quanta: usize,
    runs: usize,
    /// One line per run whose detectors tripped.
    findings: Vec<String>,
    /// Sweeps whose `summary.json` verdict disagrees with their runs.
    verdict_mismatches: usize,
    /// Every sweep's `summary.json`, in seed order.
    summaries: String,
    outcomes: Vec<SweepOutcome>,
}

/// The spec narrowed to one seed: one sweep.
fn one(spec: &SweepSpec, seed: u64) -> SweepSpec {
    SweepSpec {
        seeds: vec![seed],
        ..spec.clone()
    }
}

/// Probes the host's speed, then builds the sweep's worker pool and warms
/// it with one throwaway sweep of the first seed: what `setup_s` times.
/// Returns the pool and those seconds.
fn start(spec: &SweepSpec, host: &mut HostSpeed) -> (WorkerPool, Sample) {
    host.probe();
    let t0 = Instant::now();
    let pool = WorkerPool::new(WorkerPool::default_threads());
    let first = one(spec, spec.seeds[0]);
    let warm = run_sweep(&first, &pool);
    std::hint::black_box(summary_json(&first, &warm).to_string());
    (pool, host.sample(t0.elapsed().as_secs_f64()))
}

fn grid_pass(spec: &SweepSpec, host: &mut HostSpeed) -> GridPass {
    let (pool, setup_s) = start(spec, host);
    let mut pass = GridPass {
        setup_s,
        per_quantum_ms: Vec::with_capacity(spec.seeds.len()),
        sweep_ms: Vec::with_capacity(spec.seeds.len()),
        summary_ms: Vec::with_capacity(spec.seeds.len()),
        node_quanta: 0,
        runs: 0,
        findings: Vec::new(),
        verdict_mismatches: 0,
        summaries: String::new(),
        outcomes: Vec::with_capacity(spec.seeds.len()),
    };
    for &seed in &spec.seeds {
        let sub = one(spec, seed);
        let t = Instant::now();
        let outcome = run_sweep(&sub, &pool);
        let t_summary = Instant::now();
        let summary = summary_json(&sub, &outcome).to_string();
        let tables = render_tables(&sub, &outcome);
        pass.summary_ms.push(ms(t_summary));
        let quanta: usize = outcome
            .cells
            .iter()
            .flat_map(|c| &c.runs)
            .map(|r| r.metrics.quanta)
            .sum();
        let sweep_ms = ms(t);
        pass.sweep_ms.push(host.sample(sweep_ms));
        pass.per_quantum_ms
            .push(host.sample(sweep_ms / quanta.max(1) as f64));
        std::hint::black_box(tables);
        pass.node_quanta += quanta;
        pass.runs += outcome.total_runs();
        for cell in &outcome.cells {
            for run in cell.runs.iter().filter(|r| r.tripped()) {
                let tripped: Vec<&str> = run
                    .findings
                    .iter()
                    .filter(|f| f.tripped)
                    .map(|f| f.detector)
                    .collect();
                pass.findings.push(format!(
                    "sweep seed {seed}, cell {}: {} tripped",
                    cell.cell.label(),
                    tripped.join(", ")
                ));
            }
        }
        let verdict = if outcome.tripped() { "fail" } else { "pass" };
        if !summary.contains(&format!("\"verdict\":\"{verdict}\"")) {
            pass.verdict_mismatches += 1;
        }
        pass.summaries.push_str(&summary);
        pass.summaries.push('\n');
        pass.outcomes.push(outcome);
        host.probe();
    }
    pass
}

impl SimTotals {
    fn add_run(&mut self, run: &RunOutcome) {
        let m = &run.metrics;
        self.node_quanta += m.quanta;
        self.batch_instructions += m.batch_instructions;
        self.qos_violations += m.qos_violations;
        self.power_violations += m.power_violations;
        self.degraded_quanta += m.degraded_quanta;
        self.sweep_runs += 1;
        self.tripped_runs += usize::from(run.tripped());
    }
}

pub fn run(opts: &Options) -> Report {
    let sizes = opts.sizes;
    let spec = match spec(opts.seed, sizes.sweep_seeds) {
        Ok(spec) => spec,
        Err(msg) => {
            return Report {
                attempted: 1,
                failed: 1,
                problems: vec![msg],
                findings: Vec::new(),
                digest: 0,
                host_ref_ms: f64::NAN,
                metrics: Vec::new(),
            }
        }
    };
    drive(
        opts,
        |t| {
            let pass = grid_pass(&spec, &mut t.host);
            let contradicted = if pass.verdict_mismatches > 0 {
                t.problems.push(format!(
                    "{} summaries state a verdict their runs contradict",
                    pass.verdict_mismatches
                ));
                pass.runs
            } else {
                0
            };
            t.pass(
                "summary.json",
                pass.runs,
                contradicted,
                pass.summaries.clone(),
            );
            if t.findings.is_empty() {
                t.findings.clone_from(&pass.findings);
            }
            if opts.trace {
                for &x in &pass.summary_ms {
                    t.ledger.push("sweep.summary_ms", x);
                }
                for run in pass
                    .outcomes
                    .iter()
                    .flat_map(|o| &o.cells)
                    .flat_map(|c| &c.runs)
                {
                    let trips = run.findings.iter().filter(|f| f.tripped).count();
                    t.ledger.push("sweep.detector_trips", trips as f64);
                }
                traced_runs(&spec, &sizes, &pass.outcomes, t);
            } else {
                t.e.setups_s.push(pass.setup_s);
                t.e.quanta_ms.extend(&pass.per_quantum_ms);
                t.e.repeats.push((pass.node_quanta, pass.sweep_ms.clone()));
                for run in pass
                    .outcomes
                    .iter()
                    .flat_map(|o| &o.cells)
                    .flat_map(|c| &c.runs)
                {
                    t.e.sim.add_run(run);
                }
            }
        },
        |host| Ok(start(&spec, host).1),
    )
}

/// Re-runs the first seeds' runs one at a time through the same public
/// construction path the sweep runner uses: each run once with a bare
/// manager and once with the timing wrapper around it, back to back, so
/// their iteration walls give `trace.overhead_frac`. Both must reproduce
/// the sweep's metrics for the run.
fn traced_runs(spec: &SweepSpec, sizes: &Sizes, outcomes: &[SweepOutcome], t: &mut Tally) {
    let build = |scenario: &Scenario| {
        CuttleSysManager::for_scenario(scenario)
            .with_perf(spec.overrides.perf)
            .with_resilience(spec.overrides.resilience)
    };
    for (&seed, outcome) in spec
        .seeds
        .iter()
        .zip(outcomes)
        .take(sizes.sweep_traced_seeds)
    {
        for (cell, cell_outcome) in grid(spec).iter().zip(&outcome.cells) {
            let scenario = spec.scenario_for(&cell.shape, cell.cap, &cell.fault, seed);
            let expected = cell_outcome.runs.first().map(|r| &r.metrics);

            let (bare_ms, bare) = driver_pass(&scenario, 0, build(&scenario), |_, _, _, _| {});

            let ledger = &mut t.ledger;
            let t_run = Instant::now();
            let manager = build(&scenario);
            ledger.push("core.manager_build_ms", ms(t_run));
            ledger.max("util.os_threads", os_threads());
            let mut buckets = BucketTracker::new(&scenario);
            let (traced_ms, traced) = driver_pass(
                &scenario,
                0,
                TimedManager::new(manager),
                |m, record, step_ms, _| {
                    let first_touch = buckets.observe(record);
                    ledger.traced_quantum(m.spans.last(), step_ms, first_touch);
                },
            );
            ledger.push("sweep.run_ms", ms(t_run));

            t.bare_ms.extend(bare_ms);
            t.traced_ms.extend(traced_ms);
            for (which, record) in [("bare", bare), ("traced", traced)] {
                t.e.attempted += 1;
                if expected.is_none_or(|m| !same_run(m, &record)) {
                    t.e.failed += 1;
                    t.problems.push(format!(
                        "{which} run of {} seed {seed} differs from the sweep's",
                        cell.label()
                    ));
                }
            }
        }
    }
}

/// Whether a traced run's record reproduces the sweep's metrics for it.
fn same_run(m: &RunMetrics, r: &RunRecord) -> bool {
    m.quanta == r.slices.len()
        && m.qos_violations == r.qos_violations()
        && m.power_violations == r.power_violations()
        && m.batch_instructions.to_bits() == r.batch_instructions().to_bits()
        && m.worst_tail_ratio.to_bits() == r.worst_tail_ratio().to_bits()
        && m.degraded_quanta == r.degraded_quanta()
        && m.safe_mode_quanta == r.safe_mode_quanta()
        && m.injected_fault_slices == r.injected_fault_slices()
}
