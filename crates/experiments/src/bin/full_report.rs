//! `full_report` — every experiment (E1–E12) as **one composed, resumable
//! sweep**, rendered as a single markdown document.
//!
//! ```text
//! full_report [--full] [--trials N] [--threads N] [--seed N]
//!                                     # in-memory run, markdown to stdout
//! full_report --store DIR [--max-cells N] [--export FILE] [--progress] [...]
//!                                     # persistent run: checkpoint each cell,
//!                                     #   resume by re-running, render when
//!                                     #   complete
//! ```
//!
//! Both modes run the same composed [`sweeps::ReportSpec`] (built by
//! `specs::report_spec`) through the same orchestrator and renderers, so a
//! store-backed run — killed at any point and resumed with the same flags —
//! produces markdown **byte-identical** to an uninterrupted in-memory run.
//! `--max-cells` caps newly executed cells across the whole composition (the
//! deterministic kill stand-in); an incomplete run prints its status and
//! resumes from the first missing cell on the next invocation.  `--export`
//! writes the rendered markdown to a file instead of stdout and refuses
//! while the store is incomplete.

use std::path::PathBuf;
use std::process::ExitCode;

use experiments::report::{Report, REPORT_PREAMBLE, REPORT_TITLE};
use experiments::{cli, specs};
use flip_model::Backend;
use sweeps::{ProtocolRegistry, ReportOutcome, ReportRunner, ReportSpec, ReportStore};

const USAGE: &str = "usage: full_report [--full] [--trials N] [--threads N] [--seed N]
                   [--store DIR] [--max-cells N] [--export FILE] [--progress]
(--max-cells needs --store: a cut run without a checkpoint store is lost work)";

struct ReportFlags {
    store: Option<PathBuf>,
    export: Option<PathBuf>,
    max_cells: Option<usize>,
    progress: bool,
}

/// Splits the report-only flags from the shared experiment-config flags.
fn split_args<I: Iterator<Item = String>>(
    mut iter: I,
) -> Result<(ReportFlags, Vec<String>), String> {
    let mut flags = ReportFlags {
        store: None,
        export: None,
        max_cells: None,
        progress: false,
    };
    let mut cfg_args = Vec::new();
    while let Some(arg) = iter.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = |name: &str| -> Result<String, String> {
            match inline.clone() {
                Some(value) => Ok(value),
                None => iter
                    .next()
                    .ok_or_else(|| format!("{name} requires a value\n{USAGE}")),
            }
        };
        match flag {
            "--store" => flags.store = Some(PathBuf::from(value("--store")?)),
            "--export" => flags.export = Some(PathBuf::from(value("--export")?)),
            "--max-cells" => {
                let raw = value("--max-cells")?;
                flags.max_cells = Some(match raw.parse::<usize>() {
                    Ok(n) if n >= 1 => n,
                    _ => {
                        return Err(format!(
                            "invalid --max-cells value `{raw}`: expected an integer >= 1"
                        ))
                    }
                });
            }
            "--progress" => flags.progress = true,
            _ => cfg_args.push(arg.clone()),
        }
    }
    if flags.max_cells.is_some() && flags.store.is_none() {
        return Err(format!("--max-cells needs --store\n{USAGE}"));
    }
    Ok((flags, cfg_args))
}

/// Renders a completed composed run into the report markdown: the report
/// title and preamble, then each member's table from its builtin renderer.
fn render(spec: &ReportSpec, outcome: &ReportOutcome) -> String {
    let mut report = Report::new(REPORT_TITLE).with_preamble(REPORT_PREAMBLE);
    for (member, result) in spec.members.iter().zip(&outcome.members) {
        let grid = member.expand().expect("a member that ran also expands");
        let pairs: specs::CellPairs = grid.into_iter().zip(result.outcome.cells.clone()).collect();
        report.push(specs::render(&result.name, &pairs));
    }
    report.to_markdown()
}

fn main() -> ExitCode {
    let (flags, cfg_args) = match split_args(std::env::args().skip(1)) {
        Ok(split) => split,
        Err(message) => {
            eprintln!("full_report: {message}");
            return ExitCode::FAILURE;
        }
    };
    let cfg = cli::parse_config(cfg_args);
    if cfg.backend != Backend::Agents {
        eprintln!(
            "full_report: the report's members run on the per-agent engine; drop --backend {}",
            cfg.backend
        );
        return ExitCode::FAILURE;
    }
    cli::require_no_rounds_override(&cfg, "full_report");

    let spec = specs::report_spec(&cfg);
    let run = || -> Result<(), sweeps::SweepError> {
        let store = flags
            .store
            .as_deref()
            .map(|dir| ReportStore::create(dir, &spec))
            .transpose()?;
        let mut runner = ReportRunner::new().with_progress(flags.progress);
        if let Some(threads) = cfg.threads {
            runner = runner.with_threads(threads);
        }
        if let Some(max_cells) = flags.max_cells {
            runner = runner.with_max_cells(max_cells);
        }
        let outcome = runner.run(&spec, &ProtocolRegistry::builtin(), store.as_ref())?;
        if !outcome.completed {
            let dir = flags
                .store
                .as_deref()
                .expect("in-memory runs always complete");
            cli::print(
                "full_report",
                format_args!(
                    "report `{}` ({}): incomplete ({}/{} cells); resume by re-running \
                     with --store {}\n",
                    spec.name,
                    spec.hash_hex(),
                    outcome.skipped + outcome.executed,
                    outcome.total,
                    dir.display(),
                ),
            );
            if flags.export.is_some() {
                return Err(sweeps::SweepError::Incomplete {
                    done: outcome.skipped + outcome.executed,
                    total: outcome.total,
                });
            }
            return Ok(());
        }
        let markdown = render(&spec, &outcome);
        match &flags.export {
            Some(path) => std::fs::write(path, markdown)?,
            None => cli::print("full_report", format_args!("{markdown}")),
        }
        Ok(())
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("full_report: {err}");
            ExitCode::FAILURE
        }
    }
}
