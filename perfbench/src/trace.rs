//! The traced decision quantum: a [`ResourceManager`] wrapper that times
//! the manager's public entry points from outside, and the per-quantum
//! span ledger it fills.
//!
//! The wrapper times `plan`, every `probe` call the manager makes from
//! inside `plan` (each one is a simulator frame), and `observe`; the stage
//! split inside `plan` comes from the manager's own
//! [`StageTelemetry`]. Every call is forwarded unchanged, so a traced run
//! produces the same record as an untraced one.

use std::collections::BTreeSet;
use std::time::Instant;

use cuttlesys::matrices::{bucket_for, effective_load};
use cuttlesys::telemetry::StageTelemetry;
use cuttlesys::types::{
    Plan, ProfilePlan, ProfileSample, ResourceManager, RunRecord, Scenario, SliceInfo,
    SliceOutcome, SliceRecord,
};
use cuttlesys::ScenarioDriver;

use crate::ms;

/// Spans of one quantum, as seen from outside the manager.
#[derive(Debug, Clone, Copy, Default)]
pub struct ManagerSpans {
    /// Wall time of `plan` (ms).
    pub plan_ms: f64,
    /// Summed wall time of the probe calls made inside `plan` (ms).
    pub probe_ms: f64,
    /// Wall time of `observe` (ms).
    pub observe_ms: f64,
    /// The manager's stage telemetry for the quantum.
    pub telemetry: Option<StageTelemetry>,
}

/// Forwards every call to `inner`, recording [`ManagerSpans`] per quantum.
pub struct TimedManager<M> {
    inner: M,
    current: ManagerSpans,
    /// One entry per completed quantum (`plan` through `observe`).
    pub spans: Vec<ManagerSpans>,
}

impl<M: ResourceManager> TimedManager<M> {
    pub fn new(inner: M) -> TimedManager<M> {
        TimedManager {
            inner,
            current: ManagerSpans::default(),
            spans: Vec::new(),
        }
    }
}

impl<M: ResourceManager> ResourceManager for TimedManager<M> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn plan(
        &mut self,
        info: &SliceInfo,
        probe: &mut dyn FnMut(&ProfilePlan, f64) -> ProfileSample,
    ) -> Plan {
        let mut probe_ms = 0.0;
        let mut timed_probe = |pp: &ProfilePlan, ms: f64| {
            let t = Instant::now();
            let sample = probe(pp, ms);
            probe_ms += t.elapsed().as_secs_f64() * 1e3;
            sample
        };
        let t = Instant::now();
        let plan = self.inner.plan(info, &mut timed_probe);
        self.current = ManagerSpans {
            plan_ms: t.elapsed().as_secs_f64() * 1e3,
            probe_ms,
            ..ManagerSpans::default()
        };
        plan
    }

    fn observe(&mut self, outcome: &SliceOutcome) {
        let t = Instant::now();
        self.inner.observe(outcome);
        self.current.observe_ms = t.elapsed().as_secs_f64() * 1e3;
        self.spans.push(self.current);
    }

    fn take_telemetry(&mut self) -> Option<StageTelemetry> {
        let telemetry = self.inner.take_telemetry();
        self.current.telemetry = telemetry;
        telemetry
    }
}

/// Steps `manager` through all of `scenario` on a bare `ScenarioDriver`.
/// `each` sees every quantum: the manager, the quantum's record, the
/// step's wall time and whether the quantum is past the first `warmup`.
/// Returns the closed-loop iteration walls of those timed quanta (the step
/// plus `each`, so a tracing callback's own cost counts) and the record.
pub fn driver_pass<M: ResourceManager>(
    scenario: &Scenario,
    warmup: usize,
    mut manager: M,
    mut each: impl FnMut(&M, &SliceRecord, f64, bool),
) -> (Vec<f64>, RunRecord) {
    let mut driver = ScenarioDriver::new(scenario);
    let mut iterations = Vec::new();
    let mut k = 0;
    while !driver.is_done() {
        let t = Instant::now();
        let record = driver.step(&mut manager);
        let step_ms = ms(t);
        let is_timed = k >= warmup;
        each(&manager, record, step_ms, is_timed);
        if is_timed {
            iterations.push(ms(t));
        }
        k += 1;
    }
    (iterations, driver.into_record(manager.name()))
}

/// Counts first-touch tail buckets of one manager: the load buckets whose
/// training tail rows the manager must characterize before it can use
/// them (the cache is per manager, shared by its LC tenants). A slice's
/// bucket is keyed on the tenant's load and the cores it held going into
/// the slice, as the manager's reconstruction keys it.
pub struct BucketTracker {
    seen: BTreeSet<usize>,
    cores: Vec<usize>,
}

impl BucketTracker {
    pub fn new(scenario: &Scenario) -> BucketTracker {
        BucketTracker {
            seen: BTreeSet::new(),
            cores: scenario.lc_jobs().iter().map(|lc| lc.cores).collect(),
        }
    }

    /// Buckets first touched by `record`'s slice.
    pub fn observe(&mut self, record: &SliceRecord) -> usize {
        let mut fresh = 0;
        for (lc, cores) in record.lc.iter().zip(self.cores.iter_mut()) {
            if self
                .seen
                .insert(bucket_for(effective_load(lc.load, *cores)))
            {
                fresh += 1;
            }
            *cores = lc.cores;
        }
        fresh
    }
}
