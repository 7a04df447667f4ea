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

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use experiments::{cli, specs, ExperimentConfig};
use sweeps::{
    export_csv, export_json, is_report_store, ordered_cells, ProtocolRegistry, ReportRunner,
    ReportSpec, ReportStore, SweepError, SweepRunner, SweepSpec, SweepStore,
};
use telemetry::Recorder;

const USAGE: &str = "usage:
  sweep list
  sweep gen <name> [--full] [--trials N] [--seed N] [--rounds N] [--faults D]
  sweep table <experiment> [--full] [--backend B] [--trials N] [--threads N] [--seed N] [--faults D] [--allow-supermajority-faults]
  sweep run <spec.json> --out <dir> [--threads N] [--max-cells N] [--telemetry] [--progress]
  sweep run report --out <dir> [--full] [--trials N] [--seed N] [--threads N] [--max-cells N] [--telemetry] [--progress]
  sweep resume <dir> [--threads N] [--max-cells N] [--telemetry] [--progress]
  sweep export <dir> --csv|--json [--out FILE] [--partial]
  sweep report <dir> [--telemetry]
(--trials, --threads, --max-cells and --rounds all require values >= 1:
 a zero would silently produce empty runs or empty aggregates;
 --telemetry is also honoured via the FLIP_TELEMETRY environment variable)";

/// Environment opt-in for `--telemetry`: any non-empty value except `0`.
const TELEMETRY_ENV: &str = "FLIP_TELEMETRY";

/// `println!` through [`cli::print`]: a reader that closes stdout early ends
/// the run quietly.
macro_rules! out {
    ($($arg:tt)*) => {
        cli::print("sweep", format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("gen") => cmd_gen(&args[1..]),
        Some("table") => cmd_table(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("resume") => cmd_resume(&args[1..]),
        Some("export") => cmd_export(&args[1..]),
        Some("report") => cmd_report(&args[1..]),
        Some("--help" | "-h" | "help") | None => {
            out!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(SweepError::Spec(format!(
            "unknown subcommand `{other}`\n{USAGE}"
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("sweep: {err}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_list() -> Result<(), SweepError> {
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

/// Splits `gen`/`table` arguments into the name and the experiment-config
/// flags after it.  Requiring the name up front keeps `gen --trials 2 e01`
/// from misreading `2` as the name and `e01` as a flag value.
fn name_first<'a>(
    command: &str,
    args: &'a [String],
) -> Result<(&'a String, &'a [String]), SweepError> {
    let Some((name, cfg_args)) = args.split_first() else {
        return Err(SweepError::Spec(format!("{command} needs a name\n{USAGE}")));
    };
    if name.starts_with('-') {
        return Err(SweepError::Spec(format!(
            "{command} takes the name first, then flags (got `{name}`)\n{USAGE}"
        )));
    }
    Ok((name, cfg_args))
}

fn cmd_gen(args: &[String]) -> Result<(), SweepError> {
    let (name, cfg_args) = name_first("gen", args)?;
    if name == specs::REPORT_SPEC_NAME {
        return Err(SweepError::Spec(
            "the composed report is not a single spec; run it with: sweep run report --out <dir>"
                .into(),
        ));
    }
    let cfg = cli::parse_config(cfg_args.to_vec());
    let mut spec = specs::builtin(name, &cfg).ok_or_else(|| {
        let suggestion = specs::nearest_builtin(name)
            .map(|near| format!(" did you mean `{near}`?"))
            .unwrap_or_default();
        let names: Vec<&str> = specs::EXPERIMENTS.iter().map(|e| e.name).collect();
        SweepError::Spec(format!(
            "unknown builtin sweep `{name}`;{suggestion} available: {}",
            names.join(", ")
        ))
    })?;
    if let Some(rounds) = cfg.rounds {
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
fn cmd_table(args: &[String]) -> Result<(), SweepError> {
    let (binary, cfg_args) = name_first("table", args)?;
    let cfg = cli::parse_config(cfg_args.to_vec());
    cli::require_no_rounds_override(&cfg, &format!("sweep table {binary}"));
    for name in specs::binary_sweeps(binary, &cfg).map_err(SweepError::Spec)? {
        out!("{}", specs::table(name, &cfg).to_markdown());
    }
    Ok(())
}

/// Shared flag parsing for `run` / `resume` / `export`.
struct Flags {
    positional: Vec<String>,
    out: Option<PathBuf>,
    threads: Option<usize>,
    max_cells: Option<usize>,
    csv: bool,
    json: bool,
    partial: bool,
    telemetry: bool,
    progress: bool,
}

impl Flags {
    /// Whether this invocation records telemetry: the `--telemetry` flag or
    /// the `FLIP_TELEMETRY` environment opt-in.
    fn telemetry_requested(&self) -> bool {
        self.telemetry || std::env::var(TELEMETRY_ENV).is_ok_and(|v| !v.is_empty() && v != "0")
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, SweepError> {
    let mut flags = Flags {
        positional: Vec::new(),
        out: None,
        threads: None,
        max_cells: None,
        csv: false,
        json: false,
        partial: false,
        telemetry: false,
        progress: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) => (f, Some(v.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = |name: &str| -> Result<String, SweepError> {
            inline.clone().map_or_else(
                || {
                    iter.next()
                        .cloned()
                        .ok_or_else(|| SweepError::Spec(format!("{name} requires a value")))
                },
                Ok,
            )
        };
        match flag {
            "--out" => flags.out = Some(PathBuf::from(value("--out")?)),
            "--threads" => {
                flags.threads = Some(parse_positive(&value("--threads")?, "--threads")?);
            }
            "--max-cells" => {
                flags.max_cells = Some(parse_positive(&value("--max-cells")?, "--max-cells")?);
            }
            "--csv" => flags.csv = true,
            "--json" => flags.json = true,
            "--partial" => flags.partial = true,
            "--telemetry" => flags.telemetry = true,
            "--progress" => flags.progress = true,
            // Single-dash typos (`-threads`) must not pass as positionals.
            other if other.starts_with('-') => {
                return Err(SweepError::Spec(format!("unknown flag `{other}`\n{USAGE}")));
            }
            _ => flags.positional.push(arg.clone()),
        }
    }
    Ok(flags)
}

fn parse_positive(raw: &str, flag: &str) -> Result<usize, SweepError> {
    match raw.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(SweepError::Spec(format!(
            "invalid {flag} value `{raw}`: expected an integer >= 1"
        ))),
    }
}

fn build_runner(flags: &Flags) -> SweepRunner {
    let mut runner = SweepRunner::new()
        .with_telemetry(flags.telemetry_requested())
        .with_progress(flags.progress);
    if let Some(threads) = flags.threads {
        runner = runner.with_threads(threads);
    }
    if let Some(max_cells) = flags.max_cells {
        runner = runner.with_max_cells(max_cells);
    }
    runner
}

fn execute(spec: &SweepSpec, store: &SweepStore, flags: &Flags) -> Result<(), SweepError> {
    let outcome = build_runner(flags).run(spec, &ProtocolRegistry::builtin(), Some(store))?;
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

fn cmd_run(args: &[String]) -> Result<(), SweepError> {
    // The composed report is a builtin composition, not a spec file on disk.
    if args.first().is_some_and(|a| a == specs::REPORT_SPEC_NAME) {
        return cmd_run_report(&args[1..]);
    }
    let flags = parse_flags(args)?;
    let [spec_path] = flags.positional.as_slice() else {
        return Err(SweepError::Spec(format!(
            "run needs exactly one spec file\n{USAGE}"
        )));
    };
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
    let out = flags
        .out
        .clone()
        .ok_or_else(|| SweepError::Spec("run needs --out <dir>".into()))?;
    let store = SweepStore::create(&out, &spec)?;
    execute(&spec, &store, &flags)
}

/// `sweep run report`: the composed full report as one resumable run.
///
/// The config flags (`--full`, `--trials`, `--seed`) select the member
/// grids exactly as they do for `full_report` and `sweep gen`; the sweep
/// flags (`--out`, `--threads`, `--max-cells`, `--telemetry`, `--progress`)
/// mean what they mean for a single sweep, with `--max-cells` budgeting the
/// whole composition.
fn cmd_run_report(args: &[String]) -> Result<(), SweepError> {
    let (cfg_args, sweep_args) = split_config_flags(args);
    let flags = parse_flags(&sweep_args)?;
    if let Some(stray) = flags.positional.first() {
        return Err(SweepError::Spec(format!(
            "run report takes flags only (got `{stray}`)\n{USAGE}"
        )));
    }
    let out = flags
        .out
        .clone()
        .ok_or_else(|| SweepError::Spec("run report needs --out <dir>".into()))?;
    let cfg = cli::parse_config(cfg_args);
    let spec = specs::report_spec(&cfg);
    let store = ReportStore::create(&out, &spec)?;
    execute_report(&spec, &store, &flags)
}

/// Splits `sweep run report` arguments into experiment-config flags (fed to
/// the shared parser) and sweep flags (fed to [`parse_flags`]).
fn split_config_flags(args: &[String]) -> (Vec<String>, Vec<String>) {
    let mut cfg_args = Vec::new();
    let mut sweep_args = Vec::new();
    let mut iter = args.iter().peekable();
    while let Some(arg) = iter.next() {
        match arg.split_once('=').map_or(arg.as_str(), |(flag, _)| flag) {
            "--full" => cfg_args.push(arg.clone()),
            "--trials" | "--seed" => {
                cfg_args.push(arg.clone());
                if !arg.contains('=') {
                    if let Some(value) = iter.next() {
                        cfg_args.push(value.clone());
                    }
                }
            }
            _ => sweep_args.push(arg.clone()),
        }
    }
    (cfg_args, sweep_args)
}

fn execute_report(spec: &ReportSpec, store: &ReportStore, flags: &Flags) -> Result<(), SweepError> {
    let mut runner = ReportRunner::new()
        .with_telemetry(flags.telemetry_requested())
        .with_progress(flags.progress);
    if let Some(threads) = flags.threads {
        runner = runner.with_threads(threads);
    }
    if let Some(max_cells) = flags.max_cells {
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

fn cmd_resume(args: &[String]) -> Result<(), SweepError> {
    let flags = parse_flags(args)?;
    let [dir] = flags.positional.as_slice() else {
        return Err(SweepError::Spec(format!(
            "resume needs exactly one store directory\n{USAGE}"
        )));
    };
    let dir = Path::new(dir);
    if is_report_store(dir) {
        let (store, spec) = ReportStore::open(dir)?;
        return execute_report(&spec, &store, &flags);
    }
    let (store, spec) = SweepStore::open(dir)?;
    execute(&spec, &store, &flags)
}

fn cmd_export(args: &[String]) -> Result<(), SweepError> {
    let flags = parse_flags(args)?;
    let [dir] = flags.positional.as_slice() else {
        return Err(SweepError::Spec(format!(
            "export needs exactly one store directory\n{USAGE}"
        )));
    };
    if flags.csv == flags.json {
        return Err(SweepError::Spec(
            "export needs exactly one of --csv or --json".into(),
        ));
    }
    if is_report_store(Path::new(dir)) {
        return Err(SweepError::Spec(format!(
            "{dir} is a composed report store; export its members individually \
             (sweep export {dir}/members/<name> --csv) or render the markdown report \
             with: full_report --store {dir} --export report.md"
        )));
    }
    let (store, spec) = SweepStore::open(Path::new(dir))?;
    let records = store.load_cells()?;
    let (pairs, missing) = ordered_cells(&spec, &records)?;
    if missing > 0 && !flags.partial {
        return Err(SweepError::Incomplete {
            done: pairs.len(),
            total: pairs.len() + missing,
        });
    }
    let document = if flags.csv {
        export_csv(&pairs)
    } else {
        export_json(&spec, &pairs)
    };
    match &flags.out {
        Some(path) => std::fs::write(path, document)?,
        None => cli::print("sweep", format_args!("{document}")),
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), SweepError> {
    let flags = parse_flags(args)?;
    let [dir] = flags.positional.as_slice() else {
        return Err(SweepError::Spec(format!(
            "report needs exactly one store directory\n{USAGE}"
        )));
    };
    if is_report_store(Path::new(dir)) {
        return cmd_report_composed(Path::new(dir), &flags);
    }
    let (store, spec) = SweepStore::open(Path::new(dir))?;
    out!(
        "sweep `{}` ({}): {}/{} cells persisted",
        spec.name,
        spec.hash_hex(),
        grid_cells_persisted(&spec, &store)?,
        spec.grid_len(),
    );
    if !flags.telemetry_requested() {
        return Ok(());
    }
    let profiles = store.load_telemetry()?;
    if profiles.is_empty() {
        out!(
            "no telemetry profiles recorded; capture them with: sweep run <spec.json> --out {dir} \
             --telemetry"
        );
        return Ok(());
    }
    // `Recorder::merge` is commutative, so the merged table equals the
    // sweep-wide aggregate a live `--telemetry` run prints.
    let mut merged = Recorder::default();
    let mut trials = 0u64;
    let mut cell_ns = 0u64;
    for cell in profiles.values() {
        merged.merge(&cell.recorder);
        trials += cell.trials;
        cell_ns += cell.elapsed_ns;
    }
    out!(
        "telemetry: {} cell profiles, {} trials, {:.2}s total cell time",
        profiles.len(),
        trials,
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

/// `sweep report` on a composed report store: per-member completion status
/// plus, with `--telemetry`, the profile aggregate merged across members.
fn cmd_report_composed(dir: &Path, flags: &Flags) -> Result<(), SweepError> {
    let (store, spec) = ReportStore::open(dir)?;
    let mut member_lines = Vec::with_capacity(spec.members.len());
    let mut persisted = 0usize;
    let mut total = 0usize;
    let mut merged = Recorder::default();
    let mut profiles = 0usize;
    let mut trials = 0u64;
    let mut cell_ns = 0u64;
    for member in &spec.members {
        let sub = store.member_store(member)?;
        let found = grid_cells_persisted(member, &sub)?;
        let cells = member.grid_len();
        member_lines.push(format!(
            "  member `{}`: {found}/{cells} cells persisted",
            member.name,
        ));
        persisted += found;
        total += cells;
        if flags.telemetry_requested() {
            for profile in sub.load_telemetry()?.values() {
                merged.merge(&profile.recorder);
                profiles += 1;
                trials += profile.trials;
                cell_ns += profile.elapsed_ns;
            }
        }
    }
    out!(
        "report `{}` ({}): {persisted}/{total} cells persisted",
        spec.name,
        store.report_hash(),
    );
    for line in member_lines {
        out!("{line}");
    }
    if !flags.telemetry_requested() {
        return Ok(());
    }
    if profiles == 0 {
        out!(
            "no telemetry profiles recorded; capture them with: sweep run report --out {} \
             --telemetry",
            dir.display()
        );
        return Ok(());
    }
    out!(
        "telemetry: {profiles} cell profiles, {trials} trials, {:.2}s total cell time",
        cell_ns as f64 / 1.0e9,
    );
    if merged.is_empty() {
        out!("profiles contain no engine phases (counts-only backend)");
    } else {
        cli::print("sweep", format_args!("{}", merged.render()));
    }
    Ok(())
}
