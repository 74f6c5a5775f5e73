//! Shortened runs of the three workloads: every metric `BENCHMARK.json`
//! names is printed, repeats agree on their digests, and the traced runs
//! together cover every layer.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::{run, Options, Report, Sizes, Workload};
use util::json::{parse, JsonValue};

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let doc = parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(JsonValue::as_array)
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(workload: Workload, trace: bool) -> Report {
    run(&Options {
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
        sizes: Sizes::smoke(),
    })
}

/// The report passes its checks and prints exactly the declared metrics.
fn assert_prints(report: &Report, section: &str) {
    assert!(report.correct(), "checks failed: {:?}", report.problems);
    assert!(report.attempted > 0);
    let printed: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    assert_eq!(printed, declared(section));
    for m in &report.metrics {
        assert!(m.value.is_finite(), "{} is not finite", m.name);
    }
    let line = report.to_json().to_string();
    let back = parse(&line).expect("result line parses");
    assert_eq!(
        back.get("metrics")
            .and_then(JsonValue::entries)
            .map(<[_]>::len),
        Some(printed.len())
    );
}

#[test]
fn every_workload_prints_every_metric_and_agrees_with_itself() {
    let mut layers_seen = std::collections::BTreeSet::new();
    for workload in Workload::ALL {
        let plain = smoke(workload, false);
        assert_prints(&plain, "end_to_end");
        for m in &plain.metrics {
            assert!(
                m.value > 0.0,
                "{} reads {} on {}",
                m.name,
                m.value,
                workload.name()
            );
        }

        let traced = smoke(workload, true);
        assert_prints(&traced, "per_layer");
        assert_eq!(
            traced.digest,
            plain.digest,
            "{}: the traced run's digest differs from the untraced run's",
            workload.name()
        );
        for m in &traced.metrics {
            if m.samples > 0 && m.value != 0.0 {
                layers_seen.insert(m.name.split('.').next().expect("layer").to_string());
            }
        }
    }
    let layers: std::collections::BTreeSet<String> = declared("per_layer")
        .into_iter()
        .map(|(name, _)| name.split('.').next().expect("layer").to_string())
        .collect();
    assert_eq!(
        layers_seen, layers,
        "some layer was measured by no workload"
    );
}
