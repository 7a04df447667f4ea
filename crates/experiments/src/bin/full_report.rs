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

use std::error::Error;
use std::process::ExitCode;

use experiments::report::{Report, REPORT_PREAMBLE, REPORT_TITLE};
use experiments::{cli, specs};
use sweeps::{ProtocolRegistry, ReportOutcome, ReportRunner, ReportSpec, ReportStore};

const USAGE: &str = "usage: full_report [--full] [--trials N] [--threads N] [--seed N]
                   [--store DIR] [--max-cells N] [--export FILE] [--progress]
(--max-cells needs --store: a cut run without a checkpoint store is lost work)";

/// The flags of the `USAGE` line, for `cli::parse`.
const ACCEPTED: &[&str] = &[
    "--full",
    "--trials",
    "--threads",
    "--seed",
    "--store",
    "--max-cells",
    "--export",
    "--progress",
];

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
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("full_report: {err}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), Box<dyn Error>> {
    let args = cli::parse("full_report", args, ACCEPTED)?;
    if args.max_cells.is_some() && args.store.is_none() {
        return Err(format!("--max-cells needs --store\n{USAGE}").into());
    }
    let spec = specs::report_spec(&args.config);
    let store = args
        .store
        .as_deref()
        .map(|dir| ReportStore::create(dir, &spec))
        .transpose()?;
    let mut runner = ReportRunner::new().with_progress(args.progress);
    if let Some(threads) = args.config.threads {
        runner = runner.with_threads(threads);
    }
    if let Some(max_cells) = args.max_cells {
        runner = runner.with_max_cells(max_cells);
    }
    let outcome = runner.run(&spec, &ProtocolRegistry::builtin(), store.as_ref())?;
    if !outcome.completed {
        let dir = args
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
        if args.export.is_some() {
            return Err(sweeps::SweepError::Incomplete {
                done: outcome.skipped + outcome.executed,
                total: outcome.total,
            }
            .into());
        }
        return Ok(());
    }
    let markdown = render(&spec, &outcome);
    match &args.export {
        Some(path) => cli::write(path, &markdown)?,
        None => cli::print("full_report", format_args!("{markdown}")),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn takes_exactly_its_usage_line() {
        let (usage, _note) = USAGE.split_once("\n(").expect("a note follows the usage");
        let flags: Vec<&str> = usage
            .split(|c: char| c.is_whitespace() || "[]".contains(c))
            .filter(|word| word.starts_with("--"))
            .collect();
        assert_eq!(flags, ACCEPTED);
    }
}
