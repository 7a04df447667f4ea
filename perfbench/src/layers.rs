//! Per-layer metrics of the traced run, derived from the spans, the counts
//! taken at the same boundaries and the engines' imported telemetry.
//!
//! Every workload reports every name (0 where a layer is not exercised), so
//! the traced output always has the same shape.

use std::collections::BTreeMap;
use std::mem::size_of;

use experiments::report::REPORT_MEMBERS;
use flip_model::{Delivery, Event, Opinion, Phase};

use crate::trace::Usage;
use crate::workloads::Counters;

/// Round-pool lanes reported (the benchmark never runs wider than this).
pub const LANES: usize = 2;

/// Protocols implemented by the `breathe` (core) crate.
const CORE: [&str; 4] = [
    "broadcast",
    "broadcast-detailed",
    "async-broadcast",
    "majority-consensus",
];

/// Protocols implemented by the `baselines` crate.
const BASELINES: [&str; 3] = ["baseline-compare", "chain-relay", "mc-boost"];

/// Every protocol some workload runs; each gets a `registry.trial_s.<id>`.
const PROTOCOLS: [&str; 9] = [
    "broadcast",
    "broadcast-detailed",
    "mc-boost",
    "majority-consensus",
    "async-broadcast",
    "baseline-compare",
    "chain-relay",
    "two-party-samples",
    "rumor",
];

/// One metric value with its unit.
pub type Metrics = Vec<(String, f64, &'static str)>;

/// Inputs to the per-layer computation besides spans and counters.
pub struct RunFacts {
    pub traced_wall_s: f64,
    pub untraced_wall_s: f64,
    pub cpu_s: f64,
    pub unattributed_s: f64,
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric, in reporting order.
pub fn per_layer(
    usage: &BTreeMap<(&'static str, String), Usage>,
    counters: &Counters,
    facts: &RunFacts,
) -> Metrics {
    let total = |name: &str| -> u64 {
        usage
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, u)| u.total_ns)
            .sum()
    };
    let count = |name: &str| -> u64 {
        usage
            .iter()
            .filter(|((n, _), _)| *n == name)
            .map(|(_, u)| u.count)
            .sum()
    };
    let labelled = |name: &str, keep: &dyn Fn(&str) -> bool| -> u64 {
        usage
            .iter()
            .filter(|((n, label), _)| *n == name && keep(label))
            .map(|(_, u)| u.total_ns)
            .sum()
    };
    let trial_ns = |protocol: &str| {
        labelled("registry.trial", &|label: &str| {
            label.split('@').next() == Some(protocol)
        })
    };
    let recorder = &counters.recorder;
    let phase = |p: Phase| recorder.phases().get(p).total_ns;
    let routing_ns = phase(Phase::RngReserve)
        + phase(Phase::Scatter)
        + phase(Phase::WindowResolve)
        + phase(Phase::SweepEmit);
    let step_ns = match total("engine.step") {
        0 => Phase::ALL.iter().map(|p| phase(*p)).sum(),
        spans => spans,
    };
    let lanes: Vec<f64> = recorder.lane_nanos()[..LANES]
        .iter()
        .map(|ns| secs(*ns))
        .collect();
    let lane_mean = lanes.iter().sum::<f64>() / LANES as f64;
    let lane_max = lanes.iter().copied().fold(0.0, f64::max);
    let dense_ns = labelled("registry.trial", &|label: &str| label.ends_with("@dense"));
    let busy_ns = total("registry.trial") + total("engine.new") + total("engine.step");

    let mut m: Metrics = Vec::new();
    let mut push = |name: String, value: f64, unit: &'static str| m.push((name, value, unit));

    push(
        "core.trial_s".into(),
        secs(CORE.iter().map(|p| trial_ns(p)).sum()),
        "s",
    );
    push(
        "baselines.trial_s".into(),
        secs(BASELINES.iter().map(|p| trial_ns(p)).sum()),
        "s",
    );
    for protocol in PROTOCOLS {
        push(
            format!("registry.trial_s.{protocol}"),
            secs(trial_ns(protocol)),
            "s",
        );
    }

    push("engine.step_s".into(), secs(step_ns), "s");
    push(
        "engine.protocol_step_s".into(),
        secs(phase(Phase::ProtocolStep)),
        "s",
    );
    push(
        "engine.noise_merge_s".into(),
        secs(phase(Phase::NoiseMerge)),
        "s",
    );
    push(
        "engine.census_apply_s".into(),
        secs(phase(Phase::CensusApply)),
        "s",
    );
    push("engine.rounds".into(), counters.rounds, "count");
    push("engine.messages".into(), counters.messages, "count");
    push(
        "engine.ns_per_agent_round".into(),
        ratio(step_ns as f64, counters.telemetry_agent_rounds),
        "ns",
    );
    push("engine.setup_s".into(), secs(total("engine.new")), "s");

    push(
        "scheduler.rng_reserve_s".into(),
        secs(phase(Phase::RngReserve)),
        "s",
    );
    push(
        "scheduler.scatter_s".into(),
        secs(phase(Phase::Scatter)),
        "s",
    );
    push(
        "scheduler.window_resolve_s".into(),
        secs(phase(Phase::WindowResolve)),
        "s",
    );
    push(
        "scheduler.sweep_emit_s".into(),
        secs(phase(Phase::SweepEmit)),
        "s",
    );
    push(
        "scheduler.ns_per_message".into(),
        ratio(routing_ns as f64, counters.telemetry_messages),
        "ns",
    );
    // Computed, not measured: each routed message is written once into the
    // send buffer and emitted once as a delivery.
    push(
        "scheduler.computed_bytes".into(),
        counters.telemetry_messages * (size_of::<(u32, Opinion)>() + size_of::<Delivery>()) as f64,
        "bytes",
    );
    push(
        "scheduler.radix_spills".into(),
        recorder.event(Event::RadixSpills) as f64,
        "count",
    );
    push(
        "scheduler.staging_high_water".into(),
        recorder.event(Event::StagingHighWater) as f64,
        "count",
    );
    push(
        "scheduler.lemire_redraws".into(),
        recorder.event(Event::LemireRedraws) as f64,
        "count",
    );

    for (lane, busy) in lanes.iter().enumerate() {
        push(format!("pool.lane_busy_s.{lane}"), *busy, "s");
    }
    push(
        "pool.lane_imbalance".into(),
        ratio(lane_max, lane_mean).max(1.0) - 1.0,
        "ratio",
    );

    push("stratified.trial_s".into(), secs(dense_ns), "s");
    push(
        "stratified.us_per_round".into(),
        ratio(dense_ns as f64 / 1e3, counters.dense_rounds),
        "us",
    );

    push("spec.expand_s".into(), secs(total("spec.expand")), "s");
    push("spec.hash_s".into(), secs(total("spec.hash")), "s");
    push("spec.cells".into(), counters.cells as f64, "count");
    push(
        "registry.resolve_s".into(),
        secs(total("registry.resolve")),
        "s",
    );
    push(
        "registry.trial_s".into(),
        secs(total("registry.trial")),
        "s",
    );
    push(
        "registry.trials".into(),
        count("registry.trial") as f64,
        "count",
    );

    push(
        "orchestrator.overhead_s".into(),
        secs(total("orchestrator.cell")) - secs(busy_ns),
        "s",
    );
    push(
        "orchestrator.lane_idle_ratio".into(),
        1.0 - ratio(
            total("orchestrator.cell") as f64,
            counters.lane_capacity_ns as f64,
        ),
        "ratio",
    );

    push(
        "aggregate.fold_s".into(),
        secs(total("aggregate.fold")),
        "s",
    );
    push(
        "aggregate.observations".into(),
        counters.observations as f64,
        "count",
    );

    push("store.create_s".into(), secs(total("store.create")), "s");
    push("store.append_s".into(), secs(total("store.append")), "s");
    push("store.appends".into(), counters.appends as f64, "count");
    push(
        "store.bytes_written".into(),
        counters.bytes_written as f64,
        "bytes",
    );
    push("store.load_s".into(), secs(total("store.load")), "s");
    push(
        "store.records_loaded".into(),
        counters.records_loaded as f64,
        "count",
    );
    push(
        "store.bytes_read".into(),
        counters.bytes_read as f64,
        "bytes",
    );

    push("export.csv_s".into(), secs(total("export.csv")), "s");
    push("export.json_s".into(), secs(total("export.json")), "s");
    push("export.bytes".into(), counters.export_bytes as f64, "bytes");

    for member in REPORT_MEMBERS {
        let value = secs(labelled("compose.member", &|label: &str| label == member));
        push(format!("compose.member_s.{member}"), value, "s");
    }
    push("specs.build_s".into(), secs(total("specs.build")), "s");
    push("specs.render_s".into(), secs(total("specs.render")), "s");

    push("process.cpu_s".into(), facts.cpu_s, "s");
    push(
        "process.cpu_util".into(),
        ratio(facts.cpu_s, facts.traced_wall_s),
        "ratio",
    );
    push("unattributed_s".into(), facts.unattributed_s, "s");
    push(
        "telemetry.overhead_ratio".into(),
        ratio(facts.traced_wall_s, facts.untraced_wall_s) - 1.0,
        "ratio",
    );
    m
}

/// The per-layer self-time table: one row per span name, largest first,
/// with the root's uncovered time as an explicit `unattributed_s` row.
pub fn self_time_table(
    workload: &str,
    usage: &BTreeMap<(&'static str, String), Usage>,
    facts: &RunFacts,
) -> String {
    let mut rows: BTreeMap<&str, Usage> = BTreeMap::new();
    for ((name, _), u) in usage {
        if *name == "workload" {
            continue;
        }
        let row = rows.entry(name).or_default();
        row.total_ns += u.total_ns;
        row.self_ns += u.self_ns;
        row.count += u.count;
    }
    let mut rows: Vec<_> = rows.into_iter().collect();
    rows.sort_by_key(|(_, u)| std::cmp::Reverse(u.self_ns));
    let mut out = format!(
        "per-layer self time, workload {workload} (traced wall {:.3} s; spans on parallel \
         workers can sum past it)\n{:<28} {:>12} {:>12} {:>10}\n",
        facts.traced_wall_s, "layer", "self_s", "total_s", "calls"
    );
    for (name, u) in rows {
        out.push_str(&format!(
            "{name:<28} {:>12.6} {:>12.6} {:>10}\n",
            secs(u.self_ns),
            secs(u.total_ns),
            u.count
        ));
    }
    out.push_str(&format!(
        "{:<28} {:>12.6}\n{:<28} {:>12.4}\n",
        "unattributed_s",
        facts.unattributed_s,
        "telemetry.overhead_ratio",
        ratio(facts.traced_wall_s, facts.untraced_wall_s) - 1.0
    ));
    out
}
