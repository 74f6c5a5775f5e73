//! `node_steady`: the paper's single server behind the control-plane
//! service.
//!
//! Xapian on 16 cores with the paper's 16-job batch mix at constant 0.8
//! load, a 0.7 power cap and 2 % measurement noise, stepped through
//! `service::Service` with manual pacing, one bus subscriber drained every
//! quantum and a `/metrics` scrape every tenth quantum. After the first
//! quantum every tail bucket the load touches is characterized, so the
//! quantum is almost all SGD reconstruction and 16-dimensional DDS search:
//! this is where recsys and dds changes show.

use std::time::Instant;

use cuttlesys::types::{RunRecord, Scenario};
use cuttlesys::{ControlEvent, CuttleSysManager};
use service::bus::{Received, Subscriber};
use service::{Service, ServiceBuilder};
use workloads::loadgen::LoadPattern;

use crate::trace::{driver_pass, BucketTracker, TimedManager};
use crate::{drive, ms, os_threads, HostSpeed, Options, Report, Sample, Sizes, Tally};

/// Quanta between two `/metrics` scrapes.
const SCRAPE_EVERY: usize = 10;
/// Quanta between two host-speed probes.
const PROBE_EVERY: usize = 10;

/// The node's scenario; the seed drives measurement noise and phases.
pub fn scenario(seed: u64, quanta: usize) -> Scenario {
    Scenario::paper_default()
        .with_load(LoadPattern::Constant(0.8))
        .with_cap(LoadPattern::Constant(0.7))
        .with_noise(0.02)
        .with_seed(seed)
        .with_duration_slices(quanta)
}

/// Events the subscriber was told it missed while draining the bus.
fn drain(events: &mut Subscriber<ControlEvent>) -> u64 {
    let mut lagged = 0;
    while let Ok(Some(got)) = events.try_recv() {
        if let Received::Lagged(n) = got {
            lagged += n;
        }
    }
    lagged
}

fn digest(record: RunRecord) -> String {
    record.comparable().to_json().to_string()
}

/// A started service past its warm-up, with its one bus subscriber.
struct Started {
    service: Service,
    events: Subscriber<ControlEvent>,
    /// Construction plus warm-up.
    setup_s: Sample,
}

/// Probes the host's speed, then starts the node's service and steps its
/// warm-up quanta: what `setup_s` times.
fn start(scenario: &Scenario, sizes: &Sizes, host: &mut HostSpeed) -> Result<Started, String> {
    host.probe();
    let t0 = Instant::now();
    let service = ServiceBuilder::new(scenario)
        .start()
        .map_err(|e| format!("service start: {e}"))?;
    let mut events = service.subscribe();
    for _ in 0..sizes.node_warmup {
        service
            .step_quantum()
            .map_err(|e| format!("warm-up: {e}"))?;
        drain(&mut events);
    }
    Ok(Started {
        service,
        events,
        setup_s: host.sample(t0.elapsed().as_secs_f64()),
    })
}

/// One service run: set-up, warm-up, then the timed closed loop.
struct ServicePass {
    setup_s: Sample,
    /// Closed-loop iteration: step, bus drain, and the scrape when due.
    quantum_ms: Vec<Sample>,
    /// The step request's round trip alone.
    rtt_ms: Vec<f64>,
    /// Round trips of a `snapshot` request: reactor dispatch with next to
    /// no work behind it (traced passes only).
    dispatch_ms: Vec<f64>,
    render_ms: Vec<f64>,
    render_bytes: Vec<f64>,
    lagged: Vec<f64>,
    errors: usize,
    record: RunRecord,
    threads: f64,
}

fn service_pass(
    scenario: &Scenario,
    sizes: &Sizes,
    traced: bool,
    host: &mut HostSpeed,
    problems: &mut Vec<String>,
) -> Result<ServicePass, String> {
    let Started {
        service,
        mut events,
        setup_s,
    } = start(scenario, sizes, host)?;
    let mut pass = ServicePass {
        setup_s,
        quantum_ms: Vec::with_capacity(sizes.node_quanta),
        rtt_ms: Vec::with_capacity(sizes.node_quanta),
        dispatch_ms: Vec::new(),
        render_ms: Vec::new(),
        render_bytes: Vec::new(),
        lagged: Vec::with_capacity(sizes.node_quanta),
        errors: 0,
        record: RunRecord {
            scheme: String::new(),
            slices: Vec::new(),
        },
        threads: os_threads(),
    };
    for k in 1..=sizes.node_quanta {
        let t = Instant::now();
        let stepped = service.step_quantum();
        pass.rtt_ms.push(ms(t));
        if let Err(e) = stepped {
            pass.errors += 1;
            problems.push(format!("quantum {k}: {e}"));
        }
        pass.lagged.push(drain(&mut events) as f64);
        if k % SCRAPE_EVERY == 0 {
            let t_scrape = Instant::now();
            match service.metrics() {
                Ok(text) => {
                    pass.render_ms.push(ms(t_scrape));
                    pass.render_bytes.push(text.len() as f64);
                    let expect = format!("cuttlesys_quanta_total {}\n", sizes.node_warmup + k);
                    if !text.contains(&expect) {
                        problems.push(format!("scrape after quantum {k} lacks {expect:?}"));
                    }
                }
                Err(e) => problems.push(format!("scrape after quantum {k}: {e}")),
            }
        }
        pass.quantum_ms.push(host.sample(ms(t)));
        if traced {
            let t_snapshot = Instant::now();
            if service.snapshot().is_ok() {
                pass.dispatch_ms.push(ms(t_snapshot));
            }
        }
        if k % PROBE_EVERY == 0 {
            host.probe();
        }
        if k == 1 {
            pass.threads = pass.threads.max(os_threads());
        }
    }
    pass.record = service.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    Ok(pass)
}

pub fn run(opts: &Options) -> Report {
    let sizes = opts.sizes;
    let scn = scenario(opts.seed, sizes.node_warmup + sizes.node_quanta);
    drive(
        opts,
        |t| {
            let pass = match service_pass(&scn, &sizes, opts.trace, &mut t.host, &mut t.problems) {
                Ok(pass) => pass,
                Err(msg) => return t.lost(sizes.node_quanta, msg),
            };
            t.pass(
                "service run",
                sizes.node_quanta,
                pass.errors,
                digest(pass.record.clone()),
            );
            t.ledger.max("util.os_threads", pass.threads);
            if opts.trace {
                trace_round(&scn, &sizes, &pass, t);
            } else {
                t.e.setups_s.push(pass.setup_s);
                t.e.quanta_ms.extend(&pass.quantum_ms);
                t.e.repeats
                    .push((pass.quantum_ms.len(), pass.quantum_ms.clone()));
                t.e.sim.add_record(&pass.record, sizes.node_warmup);
            }
        },
        |host| {
            let started = start(&scn, &sizes, host)?;
            started
                .service
                .shutdown()
                .map_err(|e| format!("shutdown: {e}"))?;
            Ok(started.setup_s)
        },
    )
}

/// The traced part of one round: the service pass's own spans, then the
/// same scenario on a bare driver and on a driver with the timing wrapper,
/// whose iteration walls give `trace.overhead_frac`.
fn trace_round(scn: &Scenario, sizes: &Sizes, pass: &ServicePass, t: &mut Tally) {
    let ledger = &mut t.ledger;
    for (name, xs) in [
        ("service.step_rtt_ms", &pass.rtt_ms),
        ("service.dispatch_ms", &pass.dispatch_ms),
        ("service.metrics_render_ms", &pass.render_ms),
        ("service.metrics_bytes", &pass.render_bytes),
        ("service.bus_lagged", &pass.lagged),
    ] {
        for &x in xs {
            ledger.push(name, x);
        }
    }

    let t_build = Instant::now();
    let bare = CuttleSysManager::for_scenario(scn);
    ledger.push("core.manager_build_ms", ms(t_build));
    let (bare_ms, bare_record) = driver_pass(scn, sizes.node_warmup, bare, |_, _, _, _| {});

    let t_build = Instant::now();
    let traced = TimedManager::new(CuttleSysManager::for_scenario(scn));
    ledger.push("core.manager_build_ms", ms(t_build));
    let mut buckets = BucketTracker::new(scn);
    let (traced_ms, traced_record) = driver_pass(
        scn,
        sizes.node_warmup,
        traced,
        |m, record, step_ms, is_timed| {
            let first_touch = buckets.observe(record);
            if is_timed {
                ledger.traced_quantum(m.spans.last(), step_ms, first_touch);
            }
        },
    );

    t.bare_ms.extend(bare_ms);
    t.traced_ms.extend(traced_ms);
    t.pass("bare driver", sizes.node_quanta, 0, digest(bare_record));
    t.pass("traced driver", sizes.node_quanta, 0, digest(traced_record));
}
