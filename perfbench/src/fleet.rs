//! `fleet_diurnal`: a four-node fleet stepped in lockstep by the
//! `ClusterCoordinator`, serially.
//!
//! Each node runs one Xapian tenant and four batch jobs under a diurnal
//! load from 0.3 to 0.9 (one period per run), with traffic balancing and
//! auto-migration on; the last node crashes a third of the way through.
//! Search is small here (four dimensions), but every node characterizes
//! the same load buckets on its own as the load sweeps through them, and
//! the crash drives evacuation and placement churn. Per-node work
//! duplicated across nodes, the coordinator's cross-node phases and the
//! per-node worker pools show here and are idle in `node_steady`.

use std::time::Instant;

use cluster::{
    BalanceConfig, ClusterConfig, ClusterCoordinator, ClusterEvent, ClusterRecord, ClusterScenario,
    FleetFaultPlan, MigrationConfig, NodeId,
};
use cuttlesys::types::Scenario;
use workloads::batch;
use workloads::loadgen::LoadPattern;

use crate::trace::BucketTracker;
use crate::{drive, ms, os_threads, HostSpeed, Ledger, Options, Report, Sample, Sizes};

pub const NODES: usize = 4;
/// Batch jobs per node.
const BATCH_JOBS: usize = 4;
/// Seed of the batch mix every node runs (fixed, like the paper's mix).
const MIX_SEED: u64 = 0xC0FFEE;
/// Lockstep quanta between two host-speed probes.
const PROBE_EVERY: usize = 3;

/// The fleet, its policies and its fault plan for one seed.
pub fn setup(seed: u64, quanta: usize) -> (ClusterScenario, ClusterConfig, FleetFaultPlan) {
    let period_s = quanta as f64 * cuttlesys::types::TIMESLICE_MS / 1000.0;
    let base = Scenario::paper_default()
        .with_mix(batch::mix(BATCH_JOBS, MIX_SEED))
        .with_load(LoadPattern::Diurnal {
            min: 0.3,
            max: 0.9,
            period_s,
        })
        .with_cap(LoadPattern::Constant(0.7))
        .with_noise(0.02)
        .with_seed(seed)
        .with_duration_slices(quanta);
    let config = ClusterConfig {
        balance: Some(BalanceConfig::default()),
        migration: MigrationConfig {
            auto_tail_ratio: Some(1.0),
            ..MigrationConfig::default()
        },
        ..ClusterConfig::default()
    };
    let crash = FleetFaultPlan::none().with_crash(NodeId::from_index(NODES - 1), quanta / 3);
    (ClusterScenario::uniform(&base, NODES), config, crash)
}

/// Probes the host's speed, then builds the fleet for `seed` and steps its
/// warm-up quanta: what `setup_s` times. Returns the coordinator and those
/// seconds.
fn start(
    seed: u64,
    sizes: &Sizes,
    host: &mut HostSpeed,
) -> Result<(ClusterCoordinator, Sample), String> {
    let (cs, config, crash) = setup(seed, sizes.fleet_warmup + sizes.fleet_quanta);
    host.probe();
    let t0 = Instant::now();
    let mut coord = ClusterCoordinator::with_faults(&cs, config, crash);
    for q in 0..sizes.fleet_warmup {
        coord
            .step_quantum()
            .map_err(|e| format!("warm-up quantum {q}: {e}"))?;
        coord.drain_events();
    }
    Ok((coord, host.sample(t0.elapsed().as_secs_f64())))
}

/// One fleet run's timings, errors and record.
struct FleetPass {
    setup_s: Sample,
    /// Closed-loop iteration walls: the lockstep quantum, its event drain
    /// and the pass's callback.
    iterations_ms: Vec<Sample>,
    errors: usize,
    record: ClusterRecord,
}

/// One fleet run: set-up with warm-up, then the timed lockstep quanta.
/// `each` sees the coordinator after every timed quantum, with the wall
/// time of the step plus its event drain, and the events it queued.
fn fleet_pass(
    seed: u64,
    sizes: &Sizes,
    host: &mut HostSpeed,
    problems: &mut Vec<String>,
    mut each: impl FnMut(&ClusterCoordinator, f64, &[ClusterEvent]),
) -> Result<FleetPass, String> {
    let (mut coord, setup_s) = start(seed, sizes, host)?;
    let mut errors = 0;
    let mut iterations_ms = Vec::with_capacity(sizes.fleet_quanta);
    for q in 0..sizes.fleet_quanta {
        let t = Instant::now();
        let stepped = coord.step_quantum();
        let events = coord.drain_events();
        let step_ms = ms(t);
        if let Err(e) = stepped {
            errors += 1;
            problems.push(format!("quantum {q}: {e}"));
        }
        each(&coord, step_ms, &events);
        iterations_ms.push(host.sample(ms(t)));
        if (q + 1) % PROBE_EVERY == 0 {
            host.probe();
        }
    }
    if let Err(e) = coord.shutdown() {
        problems.push(format!("shutdown: {e}"));
    }
    Ok(FleetPass {
        setup_s,
        iterations_ms,
        errors,
        record: coord.into_record(),
    })
}

/// The exact comparable record, as text (`Debug` prints every float with
/// all the digits it needs to round-trip).
fn digest(record: &ClusterRecord) -> String {
    format!("{:?}", record.clone().comparable())
}

pub fn run(opts: &Options) -> Report {
    let sizes = opts.sizes;
    let quanta = sizes.fleet_quanta;
    drive(
        opts,
        |t| {
            let pass = match fleet_pass(
                opts.seed,
                &sizes,
                &mut t.host,
                &mut t.problems,
                |_, _, _| {},
            ) {
                Ok(pass) => pass,
                Err(msg) => return t.lost(quanta, msg),
            };
            t.pass("fleet record", quanta, pass.errors, digest(&pass.record));
            if opts.trace {
                t.bare_ms.extend(pass.iterations_ms.iter().map(|s| s.value));
                match traced_pass(
                    opts.seed,
                    &sizes,
                    &mut t.host,
                    &mut t.ledger,
                    &mut t.problems,
                ) {
                    Ok(traced) => {
                        t.traced_ms
                            .extend(traced.iterations_ms.iter().map(|s| s.value));
                        t.pass(
                            "traced fleet record",
                            quanta,
                            traced.errors,
                            digest(&traced.record),
                        );
                    }
                    Err(msg) => t.lost(quanta, msg),
                }
            } else {
                t.e.setups_s.push(pass.setup_s);
                t.e.quanta_ms.extend(&pass.iterations_ms);
                let before = t.e.sim.node_quanta;
                for r in &pass.record.nodes {
                    t.e.sim.add_record(r, sizes.fleet_warmup);
                }
                t.e.repeats
                    .push((t.e.sim.node_quanta - before, pass.iterations_ms));
            }
        },
        |host| {
            let (mut coord, setup_s) = start(opts.seed, &sizes, host)?;
            coord.shutdown().map_err(|e| format!("shutdown: {e}"))?;
            Ok(setup_s)
        },
    )
}

/// A fleet pass that reads each node's decision telemetry and the
/// coordinator's counters after every timed lockstep quantum. The reads
/// fall inside the pass's iteration walls, so `trace.overhead_frac` is
/// their cost.
fn traced_pass(
    seed: u64,
    sizes: &Sizes,
    host: &mut HostSpeed,
    ledger: &mut Ledger,
    problems: &mut Vec<String>,
) -> Result<FleetPass, String> {
    let (cs, _, _) = setup(seed, sizes.fleet_warmup + sizes.fleet_quanta);
    let mut buckets: Vec<BucketTracker> = cs.nodes.iter().map(BucketTracker::new).collect();
    let mut seen = [0usize; NODES];
    let mut evacuations = 0;
    fleet_pass(seed, sizes, host, problems, |coord, step_ms, events| {
        let (mut decision_ms, mut fresh) = (0.0, 0);
        for (i, tracker) in buckets.iter_mut().enumerate() {
            let Some(node) = coord.node(NodeId::from_index(i)) else {
                continue;
            };
            let records = node.core().records();
            for (slice, record) in records.iter().enumerate().skip(seen[i]) {
                let first_touch = tracker.observe(record);
                if slice < sizes.fleet_warmup {
                    continue;
                }
                fresh += first_touch;
                if let Some(tel) = &record.telemetry {
                    decision_ms += tel.total_wall_ms();
                    ledger.push("cluster.node_decision_ms", tel.total_wall_ms());
                    ledger.decision(tel, None);
                }
            }
            seen[i] = records.len();
        }
        ledger.push("cluster.step_ms", step_ms);
        // An upper bound on the coordinator's own phases: the lockstep
        // quantum minus the nodes' decision stages still holds each node's
        // simulator frames and control bookkeeping.
        ledger.push("cluster.cross_node_ms", step_ms - decision_ms);
        ledger.push("core.new_tail_buckets", fresh as f64);
        let total = coord.evacuations_total();
        ledger.push("cluster.evacuations", (total - evacuations) as f64);
        evacuations = total;
        let shifted = events
            .iter()
            .filter(|ev| matches!(ev, ClusterEvent::SharesShifted { .. }))
            .count();
        ledger.push("cluster.shares_shifted", shifted as f64);
        ledger.max("cluster.displaced_peak", coord.displaced_tenants() as f64);
        ledger.max("util.os_threads", os_threads());
    })
}
