//! `sweep` — the command-line face of the declarative sweep subsystem.
//!
//! ```text
//! sweep list                          # builtin specs (grouped by family),
//!                                     #   composed specs, registry protocols
//! sweep gen e01 [--full] [--trials N] [--seed N]
//!                                     # print a builtin spec as JSON
//! sweep table e01 [--full] [--backend agents|dense|hybrid:k] [--trials N]
//!                 [--threads N] [--seed N] [--faults D]
//!                                     # run an experiment in memory and
//!                                     #   print its tables as markdown
//! sweep run spec.json --out DIR [--threads N] [--max-cells N]
//!                    [--telemetry] [--progress]
//!                                     # execute, checkpointing each cell
//! sweep run report --out DIR [--full] [--trials N] [--seed N] [...]
//!                                     # the composed full report: E1-E12 as
//!                                     #   one resumable run, shared budget
//! sweep resume DIR [--threads N] [--telemetry] [--progress]
//!                                     # finish a killed/interrupted sweep or
//!                                     #   composed report (auto-detected)
//! sweep export DIR --csv|--json [--out FILE] [--partial]
//!                                     # deterministic, grid-ordered export
//! sweep report DIR [--telemetry]      # completion status + phase profile
//! ```
//!
//! A sweep directory holds a manifest (the spec plus its hash) and JSONL
//! shards of completed cells; `run` on an existing directory, like `resume`,
//! skips persisted cells.  Because every cell is a deterministic function of
//! its hash-addressed spec, an interrupted-then-resumed sweep exports
//! byte-identical output to an uninterrupted one.  A composed report store
//! (`report.json` plus `members/<name>/` sub-stores) extends the same
//! contract across sweeps: one shared `--max-cells` budget drains member by
//! member, and `resume` continues from the first missing cell of the first
//! incomplete member.
//!
//! `--telemetry` (or a non-empty, non-`0` `FLIP_TELEMETRY` environment
//! variable) additionally records per-cell phase profiles — engine phase
//! timers, event counters, per-lane busy time — into JSONL shards under
//! `DIR/telemetry/`, kill-safe alongside the result shards, and prints the
//! sweep-wide aggregate table to stderr.  Telemetry reads the monotonic
//! clock only, never the RNG stream: results are bit-identical with it on
//! or off.  `--progress` streams per-cell completion lines (cells/s,
//! trials/s, ETA) to stderr.  `sweep report DIR --telemetry` re-renders the
//! profile table from the persisted shards of any past run.

use std::error::Error;
use std::path::Path;
use std::process::ExitCode;

use experiments::cli::{self, Args};
use experiments::{specs, ExperimentConfig};
use sweeps::{
    export_csv, export_json, is_report_store, ordered_cells, ProtocolRegistry, ReportRunner,
    ReportSpec, ReportStore, SweepError, SweepRunner, SweepSpec, SweepStore,
};
use telemetry::Recorder;

const USAGE: &str = "usage:
  sweep list
  sweep gen <name> [--full] [--trials N] [--seed N] [--rounds N] [--faults D] [--allow-supermajority-faults]
  sweep table <experiment> [--full] [--backend B] [--trials N] [--threads N] [--seed N] [--faults D] [--allow-supermajority-faults]
  sweep run <spec.json> --out <dir> [--threads N] [--max-cells N] [--telemetry] [--progress]
  sweep run report --out <dir> [--full] [--trials N] [--seed N] [--threads N] [--max-cells N] [--telemetry] [--progress]
  sweep resume <dir> [--threads N] [--max-cells N] [--telemetry] [--progress]
  sweep export <dir> --csv|--json [--out FILE] [--partial]
  sweep report <dir> [--telemetry]
(--trials, --threads, --max-cells and --rounds all require values >= 1:
 a zero would silently produce empty runs or empty aggregates;
 --telemetry is also honoured via the FLIP_TELEMETRY environment variable)";

// What each command takes: the words of its `USAGE` line, for `cli::parse`.
const LIST: &[&str] = &[];
const GEN: &[&str] = &[
    "<name>",
    "--full",
    "--trials",
    "--seed",
    "--rounds",
    "--faults",
    "--allow-supermajority-faults",
];
const TABLE: &[&str] = &[
    "<experiment>",
    "--full",
    "--backend",
    "--trials",
    "--threads",
    "--seed",
    "--faults",
    "--allow-supermajority-faults",
];
const RUN: &[&str] = &[
    "<spec.json>",
    "--out",
    "--threads",
    "--max-cells",
    "--telemetry",
    "--progress",
];
const RUN_REPORT: &[&str] = &[
    "--out",
    "--full",
    "--trials",
    "--seed",
    "--threads",
    "--max-cells",
    "--telemetry",
    "--progress",
];
const RESUME: &[&str] = &[
    "<dir>",
    "--threads",
    "--max-cells",
    "--telemetry",
    "--progress",
];
const EXPORT: &[&str] = &["<dir>", "--csv", "--json", "--out", "--partial"];
const REPORT: &[&str] = &["<dir>", "--telemetry"];

/// Environment opt-in for `--telemetry`: any non-empty value except `0`.
const TELEMETRY_ENV: &str = "FLIP_TELEMETRY";

/// A command's result: a parser message or a library error, each printed
/// as itself.
type Outcome = Result<(), Box<dyn Error>>;

/// `println!` through [`cli::print`]: a reader that closes stdout early ends
/// the run quietly.
macro_rules! out {
    ($($arg:tt)*) => {
        cli::print("sweep", format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = args.get(1..).unwrap_or_default();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(rest),
        Some("gen") => cmd_gen(rest),
        Some("table") => cmd_table(rest),
        Some("run") => cmd_run(rest),
        Some("resume") => cmd_resume(rest),
        Some("export") => cmd_export(rest),
        Some("report") => cmd_report(rest),
        Some("--help" | "-h" | "help") | None => {
            out!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n{USAGE}").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("sweep: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Whether this invocation records telemetry: the `--telemetry` flag or
/// the `FLIP_TELEMETRY` environment opt-in.
fn telemetry_requested(args: &Args) -> bool {
    args.telemetry || std::env::var(TELEMETRY_ENV).is_ok_and(|v| !v.is_empty() && v != "0")
}

fn cmd_list(args: &[String]) -> Outcome {
    cli::parse("sweep list", args, LIST)?;
    out!("builtin sweeps (sweep gen <name>), by experiment family:");
    let cfg = ExperimentConfig::quick();
    let mut family = "";
    for experiment in specs::EXPERIMENTS {
        if experiment.family != family {
            family = experiment.family;
            out!("  {family}:");
        }
        let spec = (experiment.build)(&cfg);
        out!(
            "    {:<10} protocol={} backend={} cells={}",
            experiment.name,
            spec.protocol,
            spec.backend,
            spec.grid_len()
        );
    }
    let report = specs::report_spec(&cfg);
    out!("composed specs (sweep run report --out <dir>):");
    out!(
        "    {:<10} members={} cells={} — E1-E12 as one resumable run",
        specs::REPORT_SPEC_NAME,
        report.members.len(),
        report.total_cells()?,
    );
    out!("registered protocols:");
    for (id, backends) in ProtocolRegistry::builtin().list() {
        let names: Vec<&str> = backends.iter().map(|b| b.as_str()).collect();
        out!("  {id:<20} backends: {}", names.join(", "));
    }
    Ok(())
}

/// Parses `gen`/`table` arguments, which take the name first, then flags.
fn parse_named(command: &str, args: &[String], accepted: &[&str]) -> Result<Args, String> {
    match args.first() {
        None => Err(format!("`{command}` needs a name\n{USAGE}")),
        Some(name) if name.starts_with('-') => Err(format!(
            "`{command}` takes the name first, then flags (got `{name}`)\n{USAGE}"
        )),
        Some(_) => cli::parse(command, args, accepted),
    }
}

fn cmd_gen(args: &[String]) -> Outcome {
    let args = parse_named("sweep gen", args, GEN)?;
    let name = &args.positional[0];
    if name == specs::REPORT_SPEC_NAME {
        return Err(
            "the composed report is not a single spec; run it with: sweep run report --out <dir>"
                .into(),
        );
    }
    let mut spec = specs::builtin(name, &args.config).ok_or_else(|| {
        let suggestion = specs::nearest_builtin(name)
            .map(|near| format!(" did you mean `{near}`?"))
            .unwrap_or_default();
        let names: Vec<&str> = specs::EXPERIMENTS.iter().map(|e| e.name).collect();
        SweepError::Spec(format!(
            "unknown builtin sweep `{name}`;{suggestion} available: {}",
            names.join(", ")
        ))
    })?;
    if let Some(rounds) = args.config.rounds {
        // Zero was rejected at parse time, so this can only tighten or
        // loosen a real cap.
        spec.rounds = rounds;
    }
    out!("{}", spec.to_pretty_json());
    Ok(())
}

/// `sweep table`: runs an experiment's builtin sweeps in memory and prints
/// their tables as markdown.  `--backend` picks the experiment's sweep on
/// that engine family (`e01 --backend dense` runs `e01-dense`).
fn cmd_table(args: &[String]) -> Outcome {
    let args = parse_named("sweep table", args, TABLE)?;
    for name in specs::binary_sweeps(&args.positional[0], &args.config)? {
        out!("{}", specs::table(name, &args.config).to_markdown());
    }
    Ok(())
}

fn build_runner(args: &Args) -> SweepRunner {
    let mut runner = SweepRunner::new()
        .with_telemetry(telemetry_requested(args))
        .with_progress(args.progress);
    if let Some(threads) = args.config.threads {
        runner = runner.with_threads(threads);
    }
    if let Some(max_cells) = args.max_cells {
        runner = runner.with_max_cells(max_cells);
    }
    runner
}

fn execute(spec: &SweepSpec, store: &SweepStore, args: &Args) -> Outcome {
    let outcome = build_runner(args).run(spec, &ProtocolRegistry::builtin(), Some(store))?;
    if let Some(recorder) = &outcome.telemetry {
        if !recorder.is_empty() {
            // stderr, like the progress stream: stdout stays reserved for
            // the run summary and exports.
            eprintln!(
                "telemetry profile (aggregate over {} executed cells):",
                outcome.executed
            );
            eprint!("{}", recorder.render());
        }
    }
    out!(
        "sweep `{}` ({}): {} cells total, {} executed, {} already persisted",
        spec.name,
        spec.hash_hex(),
        outcome.total,
        outcome.executed,
        outcome.skipped,
    );
    if outcome.completed {
        out!(
            "complete; export with: sweep export {} --csv",
            store.dir().display()
        );
    } else {
        out!(
            "incomplete ({}/{} cells); continue with: sweep resume {}",
            outcome.skipped + outcome.executed,
            outcome.total,
            store.dir().display()
        );
    }
    Ok(())
}

fn cmd_run(args: &[String]) -> Outcome {
    // The composed report is a builtin composition, not a spec file on disk.
    if args.first().is_some_and(|a| a == specs::REPORT_SPEC_NAME) {
        return cmd_run_report(&args[1..]);
    }
    let args = cli::parse("sweep run", args, RUN)?;
    let spec_path = &args.positional[0];
    let text = std::fs::read_to_string(spec_path).map_err(|e| {
        // An unreadable path that is nearly a builtin name is almost always
        // a typo for one, not a missing file — say so.
        let suggestion = match specs::nearest_builtin(spec_path) {
            Some(near) if near == specs::REPORT_SPEC_NAME => {
                "; did you mean the composed report? run it with: sweep run report --out <dir>"
                    .to_string()
            }
            Some(near) => format!(
                "; did you mean the builtin sweep `{near}`? generate it with: \
                 sweep gen {near} > {near}.json"
            ),
            None => String::new(),
        };
        SweepError::Spec(format!("cannot read {spec_path}: {e}{suggestion}"))
    })?;
    let spec = SweepSpec::from_json_text(&text)?;
    let out = args.out.as_deref().ok_or("`sweep run` needs --out <dir>")?;
    let store = SweepStore::create(out, &spec)?;
    execute(&spec, &store, &args)
}

/// `sweep run report`: the composed full report as one resumable run.
///
/// The config flags (`--full`, `--trials`, `--seed`) select the member
/// grids exactly as they do for `full_report` and `sweep gen`; the sweep
/// flags (`--out`, `--threads`, `--max-cells`, `--telemetry`, `--progress`)
/// mean what they mean for a single sweep, with `--max-cells` budgeting the
/// whole composition.
fn cmd_run_report(args: &[String]) -> Outcome {
    let args = cli::parse("sweep run report", args, RUN_REPORT)?;
    let out = args
        .out
        .as_deref()
        .ok_or("`sweep run report` needs --out <dir>")?;
    let spec = specs::report_spec(&args.config);
    let store = ReportStore::create(out, &spec)?;
    execute_report(&spec, &store, &args)
}

fn execute_report(spec: &ReportSpec, store: &ReportStore, args: &Args) -> Outcome {
    let mut runner = ReportRunner::new()
        .with_telemetry(telemetry_requested(args))
        .with_progress(args.progress);
    if let Some(threads) = args.config.threads {
        runner = runner.with_threads(threads);
    }
    if let Some(max_cells) = args.max_cells {
        runner = runner.with_max_cells(max_cells);
    }
    let outcome = runner.run(spec, &ProtocolRegistry::builtin(), Some(store))?;
    out!(
        "report `{}` ({}): {} members, {} cells total, {} executed, {} already persisted",
        spec.name,
        spec.hash_hex(),
        spec.members.len(),
        outcome.total,
        outcome.executed,
        outcome.skipped,
    );
    if outcome.completed {
        out!(
            "complete; render with: full_report --store {} --export report.md \
             (same config flags)",
            store.dir().display()
        );
    } else {
        out!(
            "incomplete ({}/{} cells); continue with: sweep resume {}",
            outcome.skipped + outcome.executed,
            outcome.total,
            store.dir().display()
        );
    }
    Ok(())
}

fn cmd_resume(args: &[String]) -> Outcome {
    let args = cli::parse("sweep resume", args, RESUME)?;
    let dir = Path::new(&args.positional[0]);
    if is_report_store(dir) {
        let (store, spec) = ReportStore::open(dir)?;
        return execute_report(&spec, &store, &args);
    }
    let (store, spec) = SweepStore::open(dir)?;
    execute(&spec, &store, &args)
}

fn cmd_export(args: &[String]) -> Outcome {
    let args = cli::parse("sweep export", args, EXPORT)?;
    let dir = &args.positional[0];
    if args.csv == args.json {
        return Err("`sweep export` needs exactly one of --csv or --json".into());
    }
    if is_report_store(Path::new(dir)) {
        return Err(SweepError::Spec(format!(
            "{dir} is a composed report store; export its members individually \
             (sweep export {dir}/members/<name> --csv) or render the markdown report \
             with: full_report --store {dir} --export report.md"
        ))
        .into());
    }
    let (store, spec) = SweepStore::open(Path::new(dir))?;
    let records = store.load_cells()?;
    let (pairs, missing) = ordered_cells(&spec, &records)?;
    if missing > 0 && !args.partial {
        return Err(SweepError::Incomplete {
            done: pairs.len(),
            total: pairs.len() + missing,
        }
        .into());
    }
    let document = if args.csv {
        export_csv(&pairs)
    } else {
        export_json(&spec, &pairs)
    };
    match &args.out {
        Some(path) => cli::write(path, &document)?,
        None => cli::print("sweep", format_args!("{document}")),
    }
    Ok(())
}

/// `sweep report`: completion status plus, with `--telemetry`, the profile
/// aggregate merged across cells.  A composed store reports per member; a
/// plain store reports as a one-member list without member lines.
fn cmd_report(args: &[String]) -> Outcome {
    let args = cli::parse("sweep report", args, REPORT)?;
    let dir = Path::new(&args.positional[0]);
    let composed = is_report_store(dir);
    let (title, members, stores, rerun) = if composed {
        let (store, spec) = ReportStore::open(dir)?;
        let stores = spec
            .members
            .iter()
            .map(|member| store.member_store(member))
            .collect::<Result<Vec<_>, _>>()?;
        let title = format!("report `{}` ({})", spec.name, store.report_hash());
        (title, spec.members, stores, "sweep run report")
    } else {
        let (store, spec) = SweepStore::open(dir)?;
        let title = format!("sweep `{}` ({})", spec.name, spec.hash_hex());
        (title, vec![spec], vec![store], "sweep run <spec.json>")
    };
    let telemetry = telemetry_requested(&args);
    let mut member_lines = Vec::with_capacity(members.len());
    let (mut persisted, mut total) = (0usize, 0usize);
    let mut merged = Recorder::default();
    let (mut profiles, mut trials, mut cell_ns) = (0usize, 0u64, 0u64);
    for (member, store) in members.iter().zip(&stores) {
        let found = grid_cells_persisted(member, store)?;
        let cells = member.grid_len();
        member_lines.push(format!(
            "  member `{}`: {found}/{cells} cells persisted",
            member.name,
        ));
        persisted += found;
        total += cells;
        if telemetry {
            // `Recorder::merge` is commutative, so the merged table equals
            // the aggregate a live `--telemetry` run prints.
            for profile in store.load_telemetry()?.values() {
                merged.merge(&profile.recorder);
                profiles += 1;
                trials += profile.trials;
                cell_ns += profile.elapsed_ns;
            }
        }
    }
    out!("{title}: {persisted}/{total} cells persisted");
    if composed {
        for line in member_lines {
            out!("{line}");
        }
    }
    if !telemetry {
        return Ok(());
    }
    if profiles == 0 {
        out!(
            "no telemetry profiles recorded; capture them with: {rerun} --out {} --telemetry",
            dir.display()
        );
        return Ok(());
    }
    out!(
        "telemetry: {profiles} cell profiles, {trials} trials, {:.2}s total cell time",
        cell_ns as f64 / 1.0e9,
    );
    if merged.is_empty() {
        // Counts-only backends (dense strata) have no per-message engine
        // work to time; the shards still carry trial counts and wall time.
        out!("profiles contain no engine phases (counts-only backend)");
    } else {
        cli::print("sweep", format_args!("{}", merged.render()));
    }
    Ok(())
}

/// How many of `spec`'s grid cells `store` holds a record for.  Records of
/// other cells (a shard copied from another sweep) are not counted.
fn grid_cells_persisted(spec: &SweepSpec, store: &SweepStore) -> Result<usize, SweepError> {
    let records = store.load_cells()?;
    Ok(spec
        .expand()?
        .iter()
        .filter(|cell| records.contains_key(&cell.hash_hex()))
        .count())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The command and the accepted words of each command line of `USAGE`:
    /// `<placeholders>` and flags, skipping each flag's value.
    fn usage_lines() -> Vec<(String, Vec<String>)> {
        USAGE
            .lines()
            .filter(|line| line.starts_with("  sweep "))
            .map(|line| {
                let tokens: Vec<&str> = line
                    .split(|c: char| c.is_whitespace() || "[]|".contains(c))
                    .filter(|token| !token.is_empty())
                    .collect();
                let command_len = tokens
                    .iter()
                    .position(|token| token.starts_with(['<', '-']))
                    .unwrap_or(tokens.len());
                let mut words = Vec::new();
                for (i, token) in tokens.iter().enumerate().skip(command_len) {
                    let is_value = !token.starts_with("--") && tokens[i - 1].starts_with("--");
                    if token.starts_with(['<', '-']) && !is_value {
                        words.push((*token).to_string());
                    }
                }
                (tokens[..command_len].join(" "), words)
            })
            .collect()
    }

    #[test]
    fn every_command_takes_exactly_its_usage_line() {
        let commands = [
            ("sweep list", LIST),
            ("sweep gen", GEN),
            ("sweep table", TABLE),
            ("sweep run", RUN),
            ("sweep run report", RUN_REPORT),
            ("sweep resume", RESUME),
            ("sweep export", EXPORT),
            ("sweep report", REPORT),
        ];
        let lines = usage_lines();
        assert_eq!(lines.len(), commands.len(), "{lines:?}");
        for ((command, accepted), (line_command, words)) in commands.iter().zip(&lines) {
            assert_eq!(command, line_command);
            assert_eq!(accepted, words, "`{command}` against its usage line");
        }
    }
}
