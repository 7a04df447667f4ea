//! The repository benchmark's measuring program.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--out DIR] [--toy] [--corrupt-export] [--record-reference]
//! ```
//!
//! With `--trace 0` it runs one untimed warm-up pass of the workload through
//! the public entry points (telemetry off), then repeats timed passes for
//! `--seconds`, sets the workload up several times after every pass, and
//! prints every end-to-end metric: medians over the passes and set-ups, each
//! time scaled to a nominal host speed by the calibration timed between
//! passes (see `calibrate`), and the first pass's peak memory.  With
//! `--trace 1` it runs one untraced pass and one traced pass and prints every
//! per-layer metric plus the self-time table.  Every pass's exported output
//! is checked against the first pass, the traced pass and, at the default
//! seed, the digests recorded in `reference.json`; failures are counted,
//! never fatal.  Human-readable lines go to stderr; the last line on stdout
//! is one JSON object: `correct`, `attempted`, `failed` and `metrics`.
//!
//! Usually launched through `run.py`, which builds this package first.

mod calibrate;
mod layers;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use sweeps::json::{parse, Json};
use sweeps::spec::fnv1a;
use sweeps::ProtocolRegistry;

use layers::RunFacts;
use workloads::{run_pass, run_traced, setup, Inputs, TraceCtx, Workload, DEFAULT_SEED};

const REFERENCE: &str = include_str!("../reference.json");
const REFERENCE_PATH: &str = "perfbench/reference.json";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    toy: bool,
    corrupt_export: bool,
    record_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ReportQuick,
        seed: DEFAULT_SEED,
        seconds: 40.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
        toy: false,
        corrupt_export: false,
        record_reference: false,
    };
    let mut workload = None;
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--out" => args.out = PathBuf::from(value()?),
            "--toy" => args.toy = true,
            "--corrupt-export" => args.corrupt_export = true,
            "--record-reference" => args.record_reference = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    args.workload = Workload::parse(&name).ok_or(format!(
        "unknown workload {name}; known: {}",
        Workload::ALL.map(Workload::name).join(", ")
    ))?;
    Ok(args)
}

/// Counted output checks; `failed / attempted` is the failed fraction.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {what}");
        }
    }

    /// Every piece of `got` must equal the same-labelled piece of `want`.
    fn same_pieces(&mut self, want: &[(String, String)], got: &[(String, String)], what: &str) {
        self.check(want.len() == got.len(), &format!("{what}: piece count"));
        for ((label, a), (other, b)) in want.iter().zip(got) {
            self.check(
                label == other && a == b,
                &format!("{what}: {label} differs"),
            );
        }
    }

    /// At the default seed, every piece must match its recorded digest.
    fn reference(&mut self, args: &Args, pieces: &[(String, String)]) {
        if args.seed != DEFAULT_SEED || args.toy || args.record_reference {
            return;
        }
        let refs = reference_digests(args.workload);
        self.check(
            refs.len() == pieces.len(),
            &format!(
                "reference lists {} pieces, pass made {}",
                refs.len(),
                pieces.len()
            ),
        );
        for (label, text) in pieces {
            let ok = refs.get(label) == Some(&digest(text));
            self.check(
                ok,
                &format!("{label} differs from the seed commit's reference"),
            );
        }
    }

    /// Each sweep's records cover its grid, one per cell, with every trial.
    fn complete(&mut self, results: &workloads::PassOutput) {
        for (spec, pairs) in &results.results {
            let grid = spec.expand().expect("generated specs expand");
            let ok = grid.len() == pairs.len()
                && grid.iter().zip(pairs).all(|(cell, (paired, record))| {
                    cell == paired
                        && record.hash == cell.hash_hex()
                        && record.point == cell.point
                        && record.trials == spec.trials
                });
            self.check(ok, &format!("{}: records cover the grid", spec.name));
        }
    }
}

fn digest(text: &str) -> String {
    format!("{:016x}", fnv1a(text.as_bytes()))
}

fn reference_digests(workload: Workload) -> BTreeMap<String, String> {
    let doc = parse(REFERENCE).expect("reference.json is valid JSON");
    let mut out = BTreeMap::new();
    if let Some(Json::Object(pairs)) = doc.get(workload.name()) {
        for (label, value) in pairs {
            if let Some(hex) = value.as_str() {
                out.insert(label.clone(), hex.to_string());
            }
        }
    }
    out
}

/// Rewrites `reference.json` with this workload's digests replaced.
fn record_reference(workload: Workload, pieces: &[(String, String)]) -> std::io::Result<()> {
    let mut all: BTreeMap<String, BTreeMap<String, String>> = BTreeMap::new();
    let current = std::fs::read_to_string(REFERENCE_PATH).unwrap_or_else(|_| "{}".into());
    for w in Workload::ALL {
        let digests = match parse(&current).ok().and_then(|d| d.get(w.name()).cloned()) {
            Some(Json::Object(pairs)) => pairs
                .into_iter()
                .filter_map(|(k, v)| v.as_str().map(|s| (k, s.to_string())))
                .collect(),
            _ => BTreeMap::new(),
        };
        if !digests.is_empty() {
            all.insert(w.name().into(), digests);
        }
    }
    all.insert(
        workload.name().into(),
        pieces.iter().map(|(l, t)| (l.clone(), digest(t))).collect(),
    );
    let mut text = String::from("{\n");
    for (i, (w, digests)) in all.iter().enumerate() {
        text.push_str(&format!("  \"{w}\": {{\n"));
        for (j, (label, hex)) in digests.iter().enumerate() {
            let comma = if j + 1 < digests.len() { "," } else { "" };
            text.push_str(&format!("    \"{label}\": \"{hex}\"{comma}\n"));
        }
        let comma = if i + 1 < all.len() { "," } else { "" };
        text.push_str(&format!("  }}{comma}\n"));
    }
    text.push_str("}\n");
    std::fs::write(REFERENCE_PATH, text)
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median, the highest percentile with at least ten samples beyond it, and
/// the sample count.
fn describe(values: &[f64]) -> String {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let tail = if n > 10 {
        let rank = n - 10;
        format!(
            "p{:.0} {:.6}",
            100.0 * rank as f64 / n as f64,
            sorted[rank - 1]
        )
    } else {
        "no percentile with 10 samples beyond it".to_string()
    };
    format!("median {:.6}, {tail}, n = {n}", median(values))
}

/// Peak resident set size of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process (all threads, live or exited).
fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(vec![], |(_, rest)| rest.split_whitespace().collect());
    // Fields 14 and 15 of proc(5) (utime, stime), in USER_HZ = 100 ticks.
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / 100.0
}

fn corrupt(pieces: &mut [(String, String)]) {
    if let Some((_, text)) = pieces.last_mut() {
        let mut bytes = std::mem::take(text).into_bytes();
        if let Some(b) = bytes.iter_mut().rev().find(|b| b.is_ascii_digit()) {
            *b = if *b == b'9' { b'0' } else { *b + 1 };
        }
        *text = String::from_utf8(bytes).expect("digit swap keeps UTF-8");
    }
}

/// The checks every untraced pass gets on its own.
fn check_pass(args: &Args, checks: &mut Checks, pass: &workloads::PassOutput) {
    checks.complete(pass);
    checks.reference(args, &pass.pieces);
    if let Some(ok) = pass.round_trip_ok {
        checks.check(ok, "JSON export parses back into the store's records");
    }
}

type Metric = (String, f64, &'static str);

fn end_to_end(args: &Args, scratch: &Path, checks: &mut Checks) -> Vec<Metric> {
    let inputs = Inputs::generate(args.workload, args.seed, args.toy);
    let registry = ProtocolRegistry::builtin();

    let start = Instant::now();
    // The first pass warms caches and the allocator up and is not timed; its
    // output is the repeats' reference.
    let mut first = run_pass(&inputs, &registry, scratch);
    // The peak of a fresh process's first pass, before repeats, set-ups and
    // the calibration table add to it.
    let peak_rss = peak_rss_mb();
    if args.corrupt_export {
        corrupt(&mut first.pieces);
    }
    check_pass(args, checks, &first);
    if args.record_reference {
        record_reference(args.workload, &first.pieces).expect("reference.json is writable");
    }

    let calibration = calibrate::Calibration::new();
    let mut calibrations = vec![calibration.measure()];
    let (mut walls, mut raw_walls, mut setups) = (vec![], vec![], vec![]);
    let (mut exports, mut resumes, mut rounds) = (vec![], vec![], vec![]);
    let mut last_wall = first.wall_s;
    while walls.is_empty() || start.elapsed().as_secs_f64() + last_wall <= args.seconds {
        let pass = run_pass(&inputs, &registry, scratch);
        let before = calibrations[calibrations.len() - 1];
        let after = calibration.measure();
        calibrations.push(after);
        let scale = calibrate::REFERENCE_S / ((before + after) / 2.0);
        eprintln!(
            "pass {}: {:.4} s raw, calibration {:.4} s, {:.4} s scaled",
            walls.len() + 1,
            pass.wall_s,
            after,
            pass.wall_s * scale
        );
        // Set-up is sampled in a burst after every pass, each lasting 5% of
        // the pass, so the samples span the run as the passes do.  The
        // calibration just taken scales them.
        let burst = Instant::now();
        let mut taken = 0;
        while taken < 2 || burst.elapsed().as_secs_f64() < 0.05 * pass.wall_s {
            let raw = setup(args.workload, args.seed, args.toy, scratch);
            setups.push(raw * calibrate::REFERENCE_S / after);
            taken += 1;
        }
        check_pass(args, checks, &pass);
        checks.same_pieces(&first.pieces, &pass.pieces, "repeat");
        last_wall = pass.wall_s;
        raw_walls.push(pass.wall_s);
        walls.push(pass.wall_s * scale);
        exports.push(pass.export_s * scale);
        resumes.extend(pass.resume_s.map(|s| s * scale));
        rounds.push(pass.agent_rounds);
    }

    let wall_s = median(&walls);
    eprintln!("calibration_s (raw): {}", describe(&calibrations));
    eprintln!("wall_s (raw): {}", describe(&raw_walls));
    eprintln!("wall_s: {}", describe(&walls));
    eprintln!("setup_s: {}", describe(&setups));
    eprintln!("export_s: {}", describe(&exports));
    if !resumes.is_empty() {
        eprintln!("resume_s: {}", describe(&resumes));
    }
    let agent_rounds = median(&rounds);
    vec![
        ("wall_s".into(), wall_s, "s"),
        ("setup_s".into(), median(&setups), "s"),
        ("cells_per_s".into(), inputs.cells() as f64 / wall_s, "1/s"),
        (
            "trials_per_s".into(),
            inputs.trials() as f64 / wall_s,
            "1/s",
        ),
        ("agent_rounds_per_s".into(), agent_rounds / wall_s, "1/s"),
        ("peak_rss_mb".into(), peak_rss, "MB"),
    ]
}

fn traced(args: &Args, scratch: &Path, checks: &mut Checks) -> Vec<Metric> {
    let inputs = Inputs::generate(args.workload, args.seed, args.toy);
    let registry = ProtocolRegistry::builtin();
    let mut untraced = run_pass(&inputs, &registry, scratch);
    if args.corrupt_export {
        corrupt(&mut untraced.pieces);
    }
    check_pass(args, checks, &untraced);

    let ctx = TraceCtx::new();
    let cpu_before = cpu_seconds();
    let root = ctx.tracer.open(None, "workload", args.workload.name());
    let root_id = root.id();
    let pieces = run_traced(
        &ctx, root_id, &inputs, &registry, scratch, args.seed, args.toy,
    );
    ctx.tracer.close(root);
    let cpu_s = cpu_seconds() - cpu_before;
    checks.same_pieces(&untraced.pieces, &pieces, "traced pass");

    let counters = ctx.counters.into_inner().expect("counter lock");
    let spans = ctx.tracer.into_spans();
    let root_span = spans.iter().find(|s| s.id == root_id).expect("root span");
    let usage = trace::usage(&spans);
    let facts = RunFacts {
        traced_wall_s: root_span.duration_ns() as f64 / 1e9,
        untraced_wall_s: untraced.wall_s,
        cpu_s,
        unattributed_s: usage[&("workload", args.workload.name().to_string())].self_ns as f64 / 1e9,
    };
    let path = args.out.join(format!(
        "spans-{}-{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    if let Err(e) = trace::write_jsonl(&path, args.workload.name(), &spans) {
        eprintln!("could not write {}: {e}", path.display());
    }
    eprint!(
        "{}",
        layers::self_time_table(args.workload.name(), &usage, &facts)
    );
    eprintln!("spans: {} written to {}", spans.len(), path.display());
    layers::per_layer(&usage, &counters, &facts)
}

fn json_line(checks: &Checks, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let scratch = args.out.join(format!(
        "scratch-{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    std::fs::create_dir_all(&scratch).expect("scratch directory is creatable");
    let mut checks = Checks::default();
    let metrics = if args.trace {
        traced(&args, &scratch, &mut checks)
    } else {
        end_to_end(&args, &scratch, &mut checks)
    };
    let _ = std::fs::remove_dir_all(&scratch);

    let inputs = Inputs::generate(args.workload, args.seed, args.toy);
    eprintln!(
        "workload {} seed {}: {} cells, {} trials, {} thread(s); failed_frac = {}/{} = {}",
        args.workload.name(),
        args.seed,
        inputs.cells(),
        inputs.trials(),
        inputs.threads,
        checks.failed,
        checks.attempted,
        checks.failed as f64 / checks.attempted.max(1) as f64
    );
    for (name, value, unit) in &metrics {
        eprintln!("  {name:<34} {value:>18.6} {unit}");
    }
    println!("{}", json_line(&checks, &metrics));
    ExitCode::SUCCESS
}
