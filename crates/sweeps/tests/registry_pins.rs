//! Exact metric vectors of the registry runners that no golden table covers.
//!
//! The golden tables under `crates/experiments/tests/golden/` pin `rumor` on
//! the dense and fault-free hybrid backends, `majority-sampler`,
//! `bft-compare` and every Breathe runner.  The cells below cover the rest of
//! the `rumor`/`rumor-zealot` backend arms and the three consensus
//! comparators.  Each cell runs two trials; the values were recorded before
//! the runners shared one engine interface, and every refactor since must
//! reproduce them bit for bit, with and without a telemetry hub and at one
//! and two round lanes.  A metric vector is pinned as its `Debug` text,
//! whose floats are the shortest strings that read back exactly.

use std::collections::BTreeMap;

use flip_model::Backend;
use sweeps::{ProtocolRegistry, ScenarioSpec, TelemetryHub, TrialContext};

fn cell(
    protocol: &str,
    backend: &str,
    faults: &str,
    rounds: u64,
    params: &[(&str, f64)],
) -> ScenarioSpec {
    ScenarioSpec {
        protocol: protocol.into(),
        backend: backend.parse::<Backend>().expect("valid backend"),
        trials: 2,
        base_seed: 0x0917,
        point: 3,
        rounds,
        params: params
            .iter()
            .map(|(k, v)| ((*k).to_string(), *v))
            .collect::<BTreeMap<_, _>>(),
        faults: faults.into(),
    }
}

/// Each pinned cell with the metrics of its trials 0 and 1.
fn pins() -> Vec<(ScenarioSpec, [&'static str; 2])> {
    let rumor = [("n", 3_000.0), ("epsilon", 0.2), ("informed", 3.0)];
    let zealot = [
        ("n", 4_000.0),
        ("epsilon", 0.25),
        ("informed", 5.0),
        ("zealots", 40.0),
    ];
    let consensus = [("n", 120.0), ("epsilon", 0.3), ("phase_len", 9.0)];
    vec![
        (
            cell("rumor", "agents", "", 400, &rumor),
            [
                r#"[("rounds", 21.0), ("fraction_correct", 0.506), ("messages_sent", 32869.0)]"#,
                r#"[("rounds", 18.0), ("fraction_correct", 0.5093333333333333), ("messages_sent", 23885.0)]"#,
            ],
        ),
        (
            cell("rumor", "agents", "byz:0.05", 400, &rumor),
            [
                r#"[("rounds", 400.0), ("fraction_correct", 0.377), ("messages_sent", 1186726.0)]"#,
                r#"[("rounds", 400.0), ("fraction_correct", 0.39966666666666667), ("messages_sent", 1186523.0)]"#,
            ],
        ),
        (
            cell("rumor", "hybrid:160", "byz:0.05", 400, &rumor),
            [
                r#"[("rounds", 400.0), ("fraction_correct", 0.4106666666666667), ("messages_sent", 1186668.0)]"#,
                r#"[("rounds", 400.0), ("fraction_correct", 0.4056666666666667), ("messages_sent", 1186601.0)]"#,
            ],
        ),
        (
            cell("rumor-zealot", "agents", "", 300, &zealot),
            [
                r#"[("rounds", 16.0), ("fraction_correct", 0.419), ("messages_sent", 37530.0)]"#,
                r#"[("rounds", 19.0), ("fraction_correct", 0.43875), ("messages_sent", 49778.0)]"#,
            ],
        ),
        (
            cell("rumor-zealot", "dense", "", 300, &zealot),
            [
                r#"[("rounds", 15.0), ("fraction_correct", 0.46475), ("messages_sent", 33540.0)]"#,
                r#"[("rounds", 15.0), ("fraction_correct", 0.4405), ("messages_sent", 33547.0)]"#,
            ],
        ),
        (
            cell("rumor-zealot", "hybrid:16", "", 300, &zealot),
            [
                r#"[("rounds", 15.0), ("fraction_correct", 0.468), ("messages_sent", 34090.0)]"#,
                r#"[("rounds", 14.0), ("fraction_correct", 0.419), ("messages_sent", 29605.0)]"#,
            ],
        ),
        (
            cell("ben-or", "agents", "", 400, &consensus),
            [
                r#"[("rounds", 63.0), ("fraction_correct", 0.7), ("decided_fraction", 1.0), ("decided_correct_fraction", 0.7), ("messages_sent", 7560.0)]"#,
                r#"[("rounds", 81.0), ("fraction_correct", 0.675), ("decided_fraction", 1.0), ("decided_correct_fraction", 0.675), ("messages_sent", 9720.0)]"#,
            ],
        ),
        (
            cell("ben-or", "agents", "byz:0.1", 400, &consensus),
            [
                r#"[("rounds", 108.0), ("fraction_correct", 0.6037735849056604), ("decided_fraction", 1.0), ("decided_correct_fraction", 0.6037735849056604), ("messages_sent", 12960.0)]"#,
                r#"[("rounds", 81.0), ("fraction_correct", 0.6875), ("decided_fraction", 1.0), ("decided_correct_fraction", 0.6875), ("messages_sent", 9720.0)]"#,
            ],
        ),
        (
            cell("bv-broadcast", "agents", "byz:0.1", 120, &consensus),
            [
                r#"[("rounds", 120.0), ("delivered_one_fraction", 0.8584905660377359), ("delivered_zero_fraction", 0.9622641509433962), ("messages_sent", 14400.0)]"#,
                r#"[("rounds", 120.0), ("delivered_one_fraction", 0.9285714285714286), ("delivered_zero_fraction", 0.9642857142857143), ("messages_sent", 14400.0)]"#,
            ],
        ),
        (
            cell("safe-bbc", "agents", "equiv:0.1", 400, &consensus),
            [
                r#"[("rounds", 216.0), ("fraction_correct", 0.8962264150943396), ("decided_fraction", 1.0), ("decided_correct_fraction", 0.8962264150943396), ("messages_sent", 25920.0)]"#,
                r#"[("rounds", 180.0), ("fraction_correct", 0.7767857142857143), ("decided_fraction", 1.0), ("decided_correct_fraction", 0.7767857142857143), ("messages_sent", 21600.0)]"#,
            ],
        ),
    ]
}

#[test]
fn registry_runners_reproduce_their_pinned_metrics() {
    let registry = ProtocolRegistry::builtin();
    let mut mismatches = Vec::new();
    for (spec, expected) in pins() {
        let label = format!("{} on {} {}", spec.protocol, spec.backend, spec.faults);
        for (trial, expected) in expected.iter().enumerate() {
            let trial = trial as u64;
            let plain = registry.run_trial(&spec, trial).expect("trial runs");
            let hub = TelemetryHub::new();
            let context = TrialContext::new(2).with_hub(&hub);
            let observed = registry
                .run_trial_with_context(&spec, trial, &context)
                .expect("trial runs");
            assert_eq!(
                plain, observed,
                "{label} trial {trial}: telemetry and lanes must not move a metric"
            );
            let plain = format!("{plain:?}");
            if plain != *expected {
                mismatches.push(format!("{label} trial {trial}: {plain}"));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "metrics moved:\n{}",
        mismatches.join("\n")
    );
}
