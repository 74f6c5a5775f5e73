//! End-to-end and per-layer benchmark of the shipped CuttleSys
//! configuration.
//!
//! Three workloads ([`Workload`]) drive the decision loop the way its
//! users do: one node behind the control-plane service, a four-node fleet
//! under diurnal load with a crash, and a grid of short sweep runs. Every
//! manager, coordinator, service and pool is built by the program's own
//! constructors, so the measured configuration is `PerfConfig::default()`
//! at the default pool width. The driver is one closed-loop thread: the
//! next quantum is issued when the previous one returns.
//!
//! A run with `trace` off reports the end-to-end metrics (`end_to_end`);
//! a traced run reports the per-layer metrics (`PER_LAYER`). All timing
//! is taken here, around calls into each crate's public functions.
//! End-to-end host times are reported at a fixed reference speed of the
//! host (`host.rs`), so that the host's own drift between runs does not
//! read as a change of the program.
//! `NOTES.md` maps every metric to the workloads it applies to.

mod fleet;
mod grid;
mod host;
mod node;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::time::Instant;

use cuttlesys::telemetry::StageTelemetry;
use util::{JsonValue, WorkerPool};

pub use crate::host::REF_NOMINAL_MS;
pub(crate) use crate::host::{HostSpeed, Sample};
use crate::trace::ManagerSpans;

/// How a metric is reduced from the samples recorded under its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reduce {
    /// Timing samples reported as `<name>.p50` and `<name>.p95`.
    Timing,
    /// One count per quantum (or per run), reported as their mean.
    PerQuantum,
    /// A value set once per run.
    Value,
}

/// The per-layer metrics, `(name, unit, reduction)`, reported by a traced
/// run. Timings expand to `.p50` and `.p95` entries.
pub(crate) const PER_LAYER: &[(&str, &str, Reduce)] = &[
    ("dds.search_ms", "ms", Reduce::Timing),
    ("dds.evaluations", "count", Reduce::PerQuantum),
    ("dds.cache_hit_ratio", "frac", Reduce::Value),
    ("dds.cache_lookups", "count", Reduce::PerQuantum),
    ("recsys.reconstruct_ms", "ms", Reduce::Timing),
    ("recsys.sgd_epochs", "count", Reduce::PerQuantum),
    ("recsys.warm_solves", "count", Reduce::PerQuantum),
    ("core.new_tail_buckets", "count", Reduce::PerQuantum),
    ("core.profile_ms", "ms", Reduce::Timing),
    ("core.qos_ms", "ms", Reduce::Timing),
    ("core.repair_ms", "ms", Reduce::Timing),
    ("core.observe_ms", "ms", Reduce::Timing),
    ("core.control_self_ms", "ms", Reduce::Timing),
    ("core.manager_build_ms", "ms", Reduce::Timing),
    ("simulator.frame_ms", "ms", Reduce::Timing),
    ("simulator.steady_ms", "ms", Reduce::Timing),
    ("service.step_rtt_ms", "ms", Reduce::Timing),
    ("service.dispatch_ms", "ms", Reduce::Timing),
    ("service.metrics_render_ms", "ms", Reduce::Timing),
    ("service.metrics_bytes", "bytes", Reduce::PerQuantum),
    ("service.bus_lagged", "count", Reduce::PerQuantum),
    ("cluster.step_ms", "ms", Reduce::Timing),
    ("cluster.node_decision_ms", "ms", Reduce::Timing),
    ("cluster.cross_node_ms", "ms", Reduce::Timing),
    ("cluster.evacuations", "count", Reduce::PerQuantum),
    ("cluster.shares_shifted", "count", Reduce::PerQuantum),
    ("cluster.displaced_peak", "count", Reduce::Value),
    ("sweep.run_ms", "ms", Reduce::Timing),
    ("sweep.summary_ms", "ms", Reduce::Timing),
    ("sweep.detector_trips", "count", Reduce::PerQuantum),
    ("util.os_threads", "count", Reduce::Value),
    ("util.pool_width", "count", Reduce::Value),
    ("trace.overhead_frac", "frac", Reduce::Value),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One node behind `service::Service`, constant load.
    NodeSteady,
    /// A four-node `ClusterCoordinator` under diurnal load, one crash.
    FleetDiurnal,
    /// Many short `sweep::run_sweep` runs.
    SweepGrid,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::NodeSteady,
        Workload::FleetDiurnal,
        Workload::SweepGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::NodeSteady => "node_steady",
            Workload::FleetDiurnal => "fleet_diurnal",
            Workload::SweepGrid => "sweep_grid",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Workload sizes. [`Sizes::full`] is what the benchmark command runs;
/// [`Sizes::smoke`] is a shortened copy for the self-check tests.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Untimed quanta stepped after construction, counted in `setup_s`.
    pub node_warmup: usize,
    /// Timed quanta per node_steady repeat.
    pub node_quanta: usize,
    pub fleet_warmup: usize,
    /// Timed lockstep quanta per fleet_diurnal repeat.
    pub fleet_quanta: usize,
    /// Seeds in the sweep grid (each seed is one sweep of every cell).
    pub sweep_seeds: usize,
    /// Seeds whose runs the traced sweep pass re-runs one by one.
    pub sweep_traced_seeds: usize,
    /// Fewest set-ups timed in one run (extra set-ups are built and
    /// dropped without a measured phase).
    pub min_setups: usize,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            node_warmup: 5,
            node_quanta: 600,
            fleet_warmup: 2,
            fleet_quanta: 200,
            sweep_seeds: 100,
            sweep_traced_seeds: 50,
            min_setups: 11,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            node_warmup: 2,
            node_quanta: 12,
            fleet_warmup: 1,
            fleet_quanta: 12,
            sweep_seeds: 3,
            sweep_traced_seeds: 2,
            min_setups: 3,
        }
    }
}

/// Fewest repeats of a workload in one untraced run: repeats are compared
/// for identical digests, so at least two.
pub(crate) const MIN_REPEATS: usize = 2;

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    /// Measured time budget; repeats stop once the next would overrun it.
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
}

/// Decides whether another repeat fits: always until `min` are done,
/// then only while the next (estimated from the slowest so far) ends
/// within the budget.
pub(crate) struct Budget {
    start: Instant,
    seconds: f64,
    slowest: f64,
    done: usize,
}

impl Budget {
    pub fn new(seconds: f64) -> Budget {
        Budget {
            start: Instant::now(),
            seconds,
            slowest: 0.0,
            done: 0,
        }
    }

    pub fn another(&self, min: usize) -> bool {
        self.done < min || self.start.elapsed().as_secs_f64() + self.slowest <= self.seconds
    }

    /// Records one finished repeat that started at `started`.
    pub fn finished(&mut self, started: Instant) {
        self.slowest = self.slowest.max(started.elapsed().as_secs_f64());
        self.done += 1;
    }
}

/// Milliseconds since `since`.
pub(crate) fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

/// Samples recorded under metric names during one run.
#[derive(Debug, Default)]
pub(crate) struct Ledger {
    samples: BTreeMap<&'static str, Vec<f64>>,
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Records one sample (a timing in ms, or one quantum's count).
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Keeps the largest value set under `name`.
    pub fn max(&mut self, name: &'static str, value: f64) {
        let slot = self.values.entry(name).or_insert(value);
        *slot = slot.max(value);
    }

    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// One decision quantum's stage telemetry. `spans` carries what the
    /// traced wrapper saw around the manager, when it wrapped it.
    pub fn decision(&mut self, tel: &StageTelemetry, spans: Option<&ManagerSpans>) {
        self.push("dds.search_ms", tel.search_wall_ms);
        self.push("dds.evaluations", tel.search_evaluations as f64);
        self.push(
            "dds.cache_lookups",
            (tel.cache_hits + tel.cache_misses) as f64,
        );
        self.push("dds.cache_hits", tel.cache_hits as f64);
        self.push("recsys.reconstruct_ms", tel.reconstruct_wall_ms);
        self.push("recsys.sgd_epochs", tel.sgd_epochs as f64);
        self.push("recsys.warm_solves", tel.warm_solves as f64);
        self.push("core.qos_ms", tel.qos_wall_ms);
        self.push("core.repair_ms", tel.repair_wall_ms);
        if let Some(s) = spans {
            // The profile stage's wall time includes the probe calls it
            // makes; those are simulator frames, not profile-stage work.
            self.push("core.profile_ms", tel.profile_wall_ms - s.probe_ms);
            self.push("simulator.frame_ms", s.probe_ms);
            self.push("core.observe_ms", s.observe_ms);
            self.push("core.control_self_ms", s.plan_ms - tel.total_wall_ms());
        }
    }

    /// One quantum stepped through a `TimedManager`: its
    /// decision, the steady phase around it and its first-touch buckets.
    pub fn traced_quantum(
        &mut self,
        spans: Option<&ManagerSpans>,
        step_ms: f64,
        first_touch: usize,
    ) {
        self.push("core.new_tail_buckets", first_touch as f64);
        if let Some(s) = spans {
            if let Some(tel) = &s.telemetry {
                self.decision(tel, Some(s));
            }
            // The step minus the manager's calls: the steady frame and the
            // record assembly.
            self.push("simulator.steady_ms", step_ms - s.plan_ms - s.observe_ms);
        }
    }

    /// Reduces the ledger to the per-layer metrics. A layer a workload
    /// does not exercise reads 0 (`NOTES.md` lists which apply where).
    pub fn per_layer(&self) -> Vec<Metric> {
        let mut out = Vec::new();
        for &(name, unit, reduce) in PER_LAYER {
            match reduce {
                Reduce::Timing => {
                    let xs = self.samples(name);
                    let (p50, p95) = if xs.is_empty() {
                        (0.0, 0.0)
                    } else {
                        (stats::median(xs), stats::quantile(xs, 0.95))
                    };
                    out.push(Metric::new(format!("{name}.p50"), p50, unit, xs.len()));
                    out.push(Metric::new(format!("{name}.p95"), p95, unit, xs.len()));
                }
                Reduce::PerQuantum => {
                    let xs = self.samples(name);
                    out.push(Metric::new(
                        name.to_string(),
                        stats::mean(xs),
                        unit,
                        xs.len(),
                    ));
                }
                Reduce::Value => {
                    let v = self.values.get(name).copied().unwrap_or(0.0);
                    out.push(Metric::new(name.to_string(), v, unit, 1));
                }
            }
        }
        // The hit ratio's base is `dds.cache_lookups`; it is reported, never
        // checked, because the cache counters race benignly.
        let lookups: f64 = self.samples("dds.cache_lookups").iter().sum();
        if lookups > 0.0 {
            let hits: f64 = self.samples("dds.cache_hits").iter().sum();
            if let Some(m) = out.iter_mut().find(|m| m.name == "dds.cache_hit_ratio") {
                m.value = hits / lookups;
                m.samples = self.samples("dds.cache_lookups").len();
            }
        }
        out
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value was reduced from.
    pub samples: usize,
    /// For a host time reported at the reference speed: the same figure
    /// unscaled, as the host ran.
    pub raw: Option<f64>,
}

impl Metric {
    pub fn new(name: String, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric {
            name,
            value,
            unit,
            samples,
            raw: None,
        }
    }

    fn with_raw(self, raw: f64) -> Metric {
        Metric {
            raw: Some(raw),
            ..self
        }
    }
}

/// The outcome of one run: the output check and the metrics.
#[derive(Debug, Clone)]
pub struct Report {
    /// Quanta (or sweep runs) attempted.
    pub attempted: usize,
    /// Attempts that returned an error or failed an output check.
    pub failed: usize,
    /// Problems found by the output checks, for the log.
    pub problems: Vec<String>,
    /// Outcomes worth a line in the log that are not failures: sweep runs
    /// whose detectors tripped (counted by `sim_detectors_pass_frac`).
    pub findings: Vec<String>,
    /// The digest every repeat agreed on (FNV-64 of its text).
    pub digest: u64,
    /// Median of the run's host-speed probes (ms).
    pub host_ref_ms: f64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::Obj(vec![
            ("correct".into(), JsonValue::Bool(self.correct())),
            ("attempted".into(), JsonValue::Num(self.attempted as f64)),
            ("failed".into(), JsonValue::Num(self.failed as f64)),
            (
                "metrics".into(),
                JsonValue::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                JsonValue::Obj(vec![
                                    ("value".into(), JsonValue::Num(m.value)),
                                    ("unit".into(), JsonValue::Str(m.unit.into())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

/// Checks each pass's digest against the run's first.
#[derive(Debug, Default)]
struct DigestCheck {
    first: Option<String>,
}

impl DigestCheck {
    /// Returns whether `digest` matches the first digest seen.
    fn check(&mut self, digest: String) -> bool {
        match &self.first {
            None => {
                self.first = Some(digest);
                true
            }
            Some(first) => *first == digest,
        }
    }

    fn fingerprint(&self) -> u64 {
        self.first
            .as_deref()
            .map_or(0, |d| stats::fnv64(d.as_bytes()))
    }
}

/// Everything the rounds of one run add up to: the end-to-end figures of
/// untraced rounds, the per-layer ledger of traced ones, and the output
/// checks of both.
#[derive(Debug, Default)]
pub(crate) struct Tally {
    pub e: EndToEnd,
    pub ledger: Ledger,
    pub problems: Vec<String>,
    /// Outcomes worth a line in the log that are not failures.
    pub findings: Vec<String>,
    /// Closed-loop iteration walls of a traced round's bare and traced
    /// passes, for `trace.overhead_frac`.
    pub bare_ms: Vec<f64>,
    pub traced_ms: Vec<f64>,
    pub host: HostSpeed,
    digests: DigestCheck,
}

impl Tally {
    /// Counts one pass of `units` quanta (or sweep runs), `errors` of which
    /// returned an error, and checks its digest against the run's first
    /// pass; on a mismatch every unit of the pass fails.
    pub fn pass(&mut self, which: &str, units: usize, errors: usize, digest: String) {
        self.e.attempted += units;
        if self.digests.check(digest) {
            self.e.failed += errors;
        } else {
            self.problems
                .push(format!("{which} digest differs from the run's first pass"));
            self.e.failed += units;
        }
    }

    /// Counts a pass of `units` that could not run at all.
    pub fn lost(&mut self, units: usize, problem: String) {
        self.e.attempted += units;
        self.e.failed += units;
        self.problems.push(problem);
    }
}

/// The loop every workload shares. `round` runs one repeat (an untraced
/// pass, or a traced round when `opts.trace` is set) into the tally;
/// rounds repeat while the next fits the time budget, at least
/// [`MIN_REPEATS`] times untraced and once traced. `set_up` builds and
/// warms the workload once more and returns its set-up seconds; it tops
/// up `setup_s` to `min_setups` samples.
pub(crate) fn drive(
    opts: &Options,
    mut round: impl FnMut(&mut Tally),
    mut set_up: impl FnMut(&mut HostSpeed) -> Result<Sample, String>,
) -> Report {
    let mut t = Tally::default();
    let mut budget = Budget::new(opts.seconds);
    let min_rounds = if opts.trace { 1 } else { MIN_REPEATS };
    while budget.another(min_rounds) {
        let started = Instant::now();
        round(&mut t);
        budget.finished(started);
    }
    let metrics = if opts.trace {
        t.ledger
            .set("util.pool_width", WorkerPool::default_threads() as f64);
        t.ledger.set(
            "trace.overhead_frac",
            stats::median(&t.traced_ms) / stats::median(&t.bare_ms) - 1.0,
        );
        t.ledger.per_layer()
    } else {
        while t.e.setups_s.len() < opts.sizes.min_setups {
            match set_up(&mut t.host) {
                Ok(s) => t.e.setups_s.push(s),
                Err(msg) => {
                    t.problems.push(format!("extra set-up: {msg}"));
                    break;
                }
            }
        }
        end_to_end(&t.e, &t.host)
    };
    Report {
        attempted: t.e.attempted,
        failed: t.e.failed,
        problems: t.problems,
        findings: t.findings,
        digest: t.digests.fingerprint(),
        host_ref_ms: t.host.median_ms(),
        metrics,
    }
}

/// A `kB` field of `/proc/self/status`, or a count field such as
/// `Threads`.
fn proc_status(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim_start_matches(':')
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub(crate) fn peak_rss_mb() -> f64 {
    proc_status("VmHWM").map_or(0.0, |kb| kb / 1024.0)
}

/// OS threads of this process right now.
pub(crate) fn os_threads() -> f64 {
    proc_status("Threads").unwrap_or(0.0)
}

/// End-to-end figures one workload measured, reduced by [`end_to_end`].
#[derive(Debug, Default)]
pub(crate) struct EndToEnd {
    pub setups_s: Vec<Sample>,
    pub quanta_ms: Vec<Sample>,
    /// One per repeat: its node-quanta and the walls (ms) of the timed
    /// iterations that ran them.
    pub repeats: Vec<(usize, Vec<Sample>)>,
    pub attempted: usize,
    pub failed: usize,
    /// Simulated totals over the timed quanta.
    pub sim: SimTotals,
}

/// Simulated outcomes summed over timed node-quanta (from `RunRecord`
/// accessors).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct SimTotals {
    pub node_quanta: usize,
    pub batch_instructions: f64,
    pub qos_violations: usize,
    pub power_violations: usize,
    pub degraded_quanta: usize,
    /// Sweep runs, and those with a tripped detector.
    pub sweep_runs: usize,
    pub tripped_runs: usize,
}

impl SimTotals {
    /// Adds the quanta of `record` after its first `warmup`.
    pub fn add_record(&mut self, record: &cuttlesys::RunRecord, warmup: usize) {
        let record = cuttlesys::RunRecord {
            scheme: record.scheme.clone(),
            slices: record.slices[warmup.min(record.slices.len())..].to_vec(),
        };
        self.node_quanta += record.slices.len();
        self.batch_instructions += record.batch_instructions();
        self.qos_violations += record.qos_violations();
        self.power_violations += record.power_violations();
        self.degraded_quanta += record.degraded_quanta();
    }
}

/// Reduces one workload's figures to the end-to-end metrics. Host times
/// are reported at the reference speed, each with its unscaled twin.
pub(crate) fn end_to_end(e: &EndToEnd, host: &HostSpeed) -> Vec<Metric> {
    let sim = e.sim;
    let quanta = sim.node_quanta.max(1) as f64;
    let sim_seconds = quanta * cuttlesys::types::TIMESLICE_MS / 1000.0;
    let (setups, raw_setups) = host.scale_all(&e.setups_s);
    let (q, raw_q) = host.scale_all(&e.quanta_ms);
    let (rates, raw_rates): (Vec<f64>, Vec<f64>) = e
        .repeats
        .iter()
        .map(|(n, walls)| {
            let (walls, raw_walls) = host.scale_all(walls);
            let per_s = |ms: Vec<f64>| *n as f64 * 1e3 / ms.iter().sum::<f64>();
            (per_s(walls), per_s(raw_walls))
        })
        .unzip();
    let ok = 1.0 - e.failed as f64 / e.attempted.max(1) as f64;
    vec![
        Metric::new("setup_s".into(), stats::median(&setups), "s", setups.len())
            .with_raw(stats::median(&raw_setups)),
        Metric::new("quantum_p50_ms".into(), stats::median(&q), "ms", q.len())
            .with_raw(stats::median(&raw_q)),
        Metric::new(
            "quantum_p95_ms".into(),
            stats::quantile(&q, 0.95),
            "ms",
            q.len(),
        )
        .with_raw(stats::quantile(&raw_q, 0.95)),
        Metric::new(
            "node_quanta_per_s".into(),
            stats::median(&rates),
            "1/s",
            rates.len(),
        )
        .with_raw(stats::median(&raw_rates)),
        Metric::new("peak_rss_mb".into(), peak_rss_mb(), "MB", 1),
        Metric::new("ok_frac".into(), ok, "frac", e.attempted),
        Metric::new(
            "sim_batch_bips".into(),
            sim.batch_instructions / sim_seconds / 1e9,
            "BIPS",
            sim.node_quanta,
        ),
        Metric::new(
            "sim_qos_met_frac".into(),
            1.0 - sim.qos_violations as f64 / quanta,
            "frac",
            sim.node_quanta,
        ),
        Metric::new(
            "sim_power_met_frac".into(),
            1.0 - sim.power_violations as f64 / quanta,
            "frac",
            sim.node_quanta,
        ),
        Metric::new(
            "sim_undegraded_frac".into(),
            1.0 - sim.degraded_quanta as f64 / quanta,
            "frac",
            sim.node_quanta,
        ),
        Metric::new(
            "sim_detectors_pass_frac".into(),
            1.0 - sim.tripped_runs as f64 / sim.sweep_runs.max(1) as f64,
            "frac",
            sim.sweep_runs,
        ),
    ]
}

/// Runs one workload.
pub fn run(opts: &Options) -> Report {
    match opts.workload {
        Workload::NodeSteady => node::run(opts),
        Workload::FleetDiurnal => fleet::run(opts),
        Workload::SweepGrid => grid::run(opts),
    }
}
