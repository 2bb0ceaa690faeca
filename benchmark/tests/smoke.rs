//! Smoke test of the benchmark harness at tiny sizes: every workload
//! runs untraced and traced, passes its own checks, and emits exactly
//! the metrics `BENCHMARK.json` declares.
//!
//! One test function: the harness keeps process-wide state (the tracing
//! switch, the span sink, the training-thread count), so the runs must
//! not overlap.

use querc_benchmark::run::{run, Options};
use querc_benchmark::spec::{self, Spec};
use std::path::PathBuf;

fn name_is_well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let spec = Spec::load().expect("BENCHMARK.json parses");
    assert_eq!(
        spec.workloads,
        spec::plans().iter().map(|p| p.name).collect::<Vec<_>>(),
        "BENCHMARK.json and spec::plans() must name the same workloads"
    );
    for m in spec.end_to_end.iter().chain(&spec.per_layer) {
        assert!(name_is_well_formed(&m.name), "metric name {:?}", m.name);
    }
    assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
    assert!(spec
        .end_to_end
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s"));

    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("smoke-{}", std::process::id()));
    for plan in spec::plans() {
        let tiny = spec::tiny(&plan);
        for traced in [false, true] {
            let opts = Options {
                seed: 7,
                seconds: 0.2,
                traced,
                out_dir: out_dir.clone(),
            };
            let outcome = run(&tiny, &spec, &opts)
                .unwrap_or_else(|e| panic!("{} traced={traced}: {e}", plan.name));
            assert!(
                outcome.correct,
                "{} traced={traced} failed its checks:\n{}",
                plan.name, outcome.log
            );
            assert!(outcome.attempted >= 1 && outcome.failed == 0);
            let declared = if traced {
                &spec.per_layer
            } else {
                &spec.end_to_end
            };
            // `to_json` fails on a declared metric that was not measured,
            // on a measured one that is not declared, and on a value
            // that is not finite; `Metrics::put` panics on a duplicate.
            let json = outcome
                .metrics
                .to_json(declared)
                .unwrap_or_else(|e| panic!("{} traced={traced}: {e}", plan.name));
            for m in declared {
                assert!(
                    json.contains(&format!("\"{}\": {{\"value\": ", m.name))
                        && json.contains(&format!("\"unit\": \"{}\"", m.unit)),
                    "{} traced={traced}: {} is missing its value or unit",
                    plan.name,
                    m.name
                );
            }
            if !traced {
                for m in &spec.end_to_end {
                    let v = outcome.metrics.get(&m.name).expect("checked by to_json");
                    assert!(
                        v > 0.0,
                        "{}: end-to-end metric {} is {v}",
                        plan.name,
                        m.name
                    );
                }
            }
            if traced && plan.name == "serve_warm" {
                let share = outcome
                    .generator_self_share
                    .expect("a traced run reports the generator thread's self-time share");
                assert!(
                    (share - 1.0).abs() <= 0.05,
                    "layer self times on the generator thread sum to {share} of its wall time"
                );
            }
        }
    }
    std::fs::remove_dir_all(&out_dir).expect("the smoke run's own output directory");
}
