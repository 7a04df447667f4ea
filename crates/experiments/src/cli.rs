//! The one command-line parser of the `sweep` and `full_report` binaries.
//!
//! Every command reads its arguments through [`parse`], passing the words
//! of its usage line: the flags it lists and a `<placeholder>` for each
//! positional word it takes.  Any other flag or word is an error that names
//! the command and the offending argument, so a typo, or a flag that
//! another command reads, never silently runs a default configuration.
//! Errors are returned, never panicked; each binary prints them as
//! `<binary>: <message>` and exits with status 1.
//!
//! A flag means the same thing in every command that takes it:
//!
//! | flag                         | effect                                               |
//! |------------------------------|------------------------------------------------------|
//! | `--full`                     | full-scale grids and trials (default: quick)         |
//! | `--backend agents\|dense\|hybrid:k` | engine selection where a variant exists       |
//! | `--trials N`                 | trials per configuration point                       |
//! | `--threads N`                | worker-thread cap (`FLIP_THREADS` env is honoured when absent) |
//! | `--seed N`                   | base seed override                                   |
//! | `--rounds N`                 | round-cap override of a generated spec               |
//! | `--faults DIRECTIVE`         | fault injection (`byz:F`, `equiv:F`, `flip:F`, `crash:F@R`) where supported |
//! | `--allow-supermajority-faults` | waive the `f/n < 1/3` sanity bound on `--faults`   |
//! | `--out PATH`, `--store DIR`, `--export FILE` | where a command writes             |
//! | `--max-cells N`              | stop after N newly executed cells                    |
//! | `--csv`, `--json`, `--partial` | export format, and export of an incomplete store   |
//! | `--telemetry`, `--progress`  | phase profiles, and per-cell progress on stderr      |
//!
//! All flags that take a value accept both `--flag value` and
//! `--flag=value`.  Zero values for `--trials`, `--threads`, `--rounds` and
//! `--max-cells` are rejected: a zero would not error downstream, it would
//! silently produce empty runs and empty aggregates.  The same holds for
//! `--faults`: a zero fraction (`byz:0`) and an unknown fault kind are
//! errors naming the flag, and a fraction at or past the
//! Byzantine-consensus bound `1/3` needs the explicit
//! `--allow-supermajority-faults` waiver (the E13 family sweeps past the
//! bound on purpose; a stray `byz:0.4` elsewhere is a typo).
//!
//! Both binaries write their stdout through [`print()`], so a reader that
//! closes the pipe early (`sweep list | head -n 3`) ends the run quietly
//! instead of panicking.

use std::fmt;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::process;
use std::str::FromStr;

use crate::ExperimentConfig;

/// Everything one command line said.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The experiment configuration: the preset (`--full`) with `--backend`,
    /// `--trials`, `--threads`, `--seed`, `--rounds`, `--faults` and
    /// `--allow-supermajority-faults` applied.
    pub config: ExperimentConfig,
    /// `--out PATH`: a sweep's store directory, or an export's file.
    pub out: Option<PathBuf>,
    /// `--store DIR`: the checkpoint store of a composed report.
    pub store: Option<PathBuf>,
    /// `--export FILE`: where a rendered report goes instead of stdout.
    pub export: Option<PathBuf>,
    /// `--max-cells N`: the budget of newly executed cells.
    pub max_cells: Option<usize>,
    /// `--csv`: export as CSV.
    pub csv: bool,
    /// `--json`: export as JSON.
    pub json: bool,
    /// `--partial`: export an incomplete store.
    pub partial: bool,
    /// `--telemetry`: record or report phase profiles.
    pub telemetry: bool,
    /// `--progress`: stream per-cell progress lines to stderr.
    pub progress: bool,
    /// The positional words, in order, one per `<placeholder>` accepted.
    pub positional: Vec<String>,
}

/// Parses the arguments of `command` (as named in messages, `sweep export`).
///
/// `accepted` holds the words of the command's usage line: each flag it
/// takes, and a `<placeholder>` for each positional word it needs.
///
/// # Errors
///
/// A message naming the command and the argument when a flag is not in
/// `accepted`, a word is one too many or a positional word is missing, and
/// a message naming the flag when its value is missing, malformed or zero,
/// or when `--faults` passes the `1/3` bound without the waiver.
pub fn parse(command: &str, args: &[String], accepted: &[&str]) -> Result<Args, String> {
    let takes = || match accepted {
        [] => "it takes no arguments".to_string(),
        words => format!("it takes {}", words.join(" ")),
    };
    let wanted: Vec<&str> = accepted
        .iter()
        .copied()
        .filter(|word| word.starts_with('<'))
        .collect();
    let full = args.iter().any(|arg| arg == "--full");
    let mut parsed = Args {
        config: if full {
            ExperimentConfig::full()
        } else {
            ExperimentConfig::quick()
        },
        out: None,
        store: None,
        export: None,
        max_cells: None,
        csv: false,
        json: false,
        partial: false,
        telemetry: false,
        progress: false,
        positional: Vec::new(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        // Anything starting with `-` is a flag, so a single-dash typo
        // (`-threads 4`) fails instead of passing as a word.
        if !arg.starts_with('-') {
            if parsed.positional.len() == wanted.len() {
                return Err(format!("`{command}` does not take `{arg}`; {}", takes()));
            }
            parsed.positional.push(arg.clone());
            continue;
        }
        let (flag, inline) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value)),
            None => (arg.as_str(), None),
        };
        if !accepted.contains(&flag) {
            return Err(format!("`{command}` does not take {flag}; {}", takes()));
        }
        // A flag that takes no value: `--csv=no` must not read as `--csv`.
        let switch = || match inline {
            Some(_) => Err(format!("{flag} takes no value")),
            None => Ok(true),
        };
        let mut value = || match inline {
            Some(value) => Ok(value.to_string()),
            None => iter
                .next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value")),
        };
        let cfg = &mut parsed.config;
        match flag {
            "--full" => {
                switch()?;
            }
            "--backend" => {
                cfg.backend = value()?
                    .parse()
                    .map_err(|e| format!("invalid --backend value: {e}"))?;
            }
            "--trials" => cfg.trials = count(flag, &value()?)?,
            "--threads" => cfg.threads = Some(count(flag, &value()?)?),
            "--rounds" => cfg.rounds = Some(count(flag, &value()?)?),
            "--seed" => {
                let raw = value()?;
                cfg.base_seed = raw
                    .parse()
                    .map_err(|_| format!("invalid --seed value `{raw}`: expected a number"))?;
            }
            "--faults" => {
                let directive = value()?;
                cfg.faults = Some(
                    directive
                        .parse()
                        .map_err(|e| format!("invalid --faults value `{directive}`: {e}"))?,
                );
            }
            "--allow-supermajority-faults" => cfg.allow_supermajority_faults = switch()?,
            "--out" => parsed.out = Some(value()?.into()),
            "--store" => parsed.store = Some(value()?.into()),
            "--export" => parsed.export = Some(value()?.into()),
            "--max-cells" => parsed.max_cells = Some(count(flag, &value()?)?),
            "--csv" => parsed.csv = switch()?,
            "--json" => parsed.json = switch()?,
            "--partial" => parsed.partial = switch()?,
            "--telemetry" => parsed.telemetry = switch()?,
            "--progress" => parsed.progress = switch()?,
            other => return Err(format!("`{command}` does not take {other}; {}", takes())),
        }
    }
    if let Some(missing) = wanted.get(parsed.positional.len()) {
        return Err(format!("`{command}` needs {missing}; {}", takes()));
    }
    if let Some(spec) = parsed.config.faults {
        if spec.fraction >= 1.0 / 3.0 && !parsed.config.allow_supermajority_faults {
            return Err(format!(
                "--faults {spec} puts {:.1}% of the population at or past the \
                 Byzantine-consensus bound f/n < 1/3; pass --allow-supermajority-faults if \
                 charting the collapse is intentional",
                spec.fraction * 100.0
            ));
        }
    }
    Ok(parsed)
}

/// The value of a count flag: an integer `>= 1`.
fn count<T: FromStr + PartialEq + From<u8>>(flag: &str, raw: &str) -> Result<T, String> {
    match raw.parse::<T>() {
        Ok(n) if n != T::from(0) => Ok(n),
        _ => Err(format!(
            "invalid {flag} value `{raw}`: expected an integer >= 1 (a zero would silently \
             produce empty runs and empty aggregates)"
        )),
    }
}

/// Writes `text` to stdout and flushes it.
///
/// A reader that has closed the pipe (`ErrorKind::BrokenPipe`) wants no
/// more output, so the process ends with status 0 and nothing on stderr.
/// Any other write error is reported as `<binary>: <error>` and ends the
/// process with status 1.
pub fn print(binary: &str, text: fmt::Arguments<'_>) {
    let mut stdout = io::stdout().lock();
    match stdout.write_fmt(text).and_then(|()| stdout.flush()) {
        Ok(()) => {}
        Err(err) if err.kind() == io::ErrorKind::BrokenPipe => process::exit(0),
        Err(err) => {
            eprintln!("{binary}: {err}");
            process::exit(1);
        }
    }
}

/// Writes `text` to the file at `path`.
///
/// # Errors
///
/// `cannot write <path>: <error>` when the write fails.
pub fn write(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use flip_model::Backend;

    /// Every experiment-config flag, as `sweep table` and `sweep gen`
    /// together take them.
    const CONFIG_FLAGS: &[&str] = &[
        "--full",
        "--backend",
        "--trials",
        "--threads",
        "--seed",
        "--rounds",
        "--faults",
        "--allow-supermajority-faults",
    ];

    fn owned(args: &[&str]) -> Vec<String> {
        args.iter().map(ToString::to_string).collect()
    }

    fn config(args: &[&str]) -> ExperimentConfig {
        parse("test", &owned(args), CONFIG_FLAGS)
            .unwrap_or_else(|e| panic!("{args:?} must parse: {e}"))
            .config
    }

    fn error(args: &[&str]) -> String {
        match parse("test", &owned(args), CONFIG_FLAGS) {
            Ok(_) => panic!("{args:?} must be rejected"),
            Err(message) => message,
        }
    }

    #[test]
    fn extended_flags_parse_in_both_spellings() {
        let cfg = config(&["--trials", "17", "--threads=2", "--seed", "99"]);
        assert_eq!(cfg.trials, 17);
        assert_eq!(cfg.threads, Some(2));
        assert_eq!(cfg.base_seed, 99);
        assert!(cfg.quick);

        let cfg = config(&["--full", "--trials=3", "--backend=dense"]);
        assert_eq!(cfg.trials, 3);
        assert!(!cfg.quick);
        assert_eq!(cfg.backend, Backend::Dense);
        assert_eq!(cfg.threads, None);

        let cfg = config(&["--backend", "hybrid:64"]);
        assert_eq!(cfg.backend, Backend::Hybrid(64));

        let accepted = ["<dir>", "--out", "--max-cells", "--csv", "--progress"];
        let args = parse(
            "test",
            &owned(&["d", "--out=x.csv", "--max-cells", "4", "--csv"]),
            &accepted,
        )
        .unwrap();
        assert_eq!(args.positional, ["d"]);
        assert_eq!(args.out, Some(PathBuf::from("x.csv")));
        assert_eq!(args.max_cells, Some(4));
        assert!(args.csv && !args.progress);
    }

    #[test]
    fn hybrid_backend_without_a_tracked_count_fails_naming_the_flag() {
        // `--backend hybrid` and `--backend hybrid:0` would both run with a
        // silently-chosen subpopulation if defaulted; they must be rejected
        // with a message that names the flag (the zero-value convention).
        for bad in [&["--backend", "hybrid"][..], &["--backend=hybrid:0"]] {
            let message = error(bad);
            assert!(
                message.contains("--backend") && message.contains("subpopulation"),
                "{bad:?} rejection must name the flag and the missing size, got: {message}"
            );
        }
    }

    #[test]
    fn faults_flag_parses_every_directive_kind() {
        use flip_model::{FaultKind, FaultSpec};
        let cfg = config(&["--faults", "byz:0.1"]);
        assert_eq!(
            cfg.faults,
            Some(FaultSpec::new(FaultKind::Byzantine, 0.1).unwrap())
        );
        assert!(!cfg.allow_supermajority_faults);
        let cfg = config(&["--faults=crash:0.05@20"]);
        assert_eq!(
            cfg.faults,
            Some(FaultSpec::new(FaultKind::Crash { round: 20 }, 0.05).unwrap())
        );
        assert_eq!(config(&[]).faults, None);
    }

    #[test]
    fn degenerate_fault_directives_fail_naming_the_flag() {
        // `--faults byz:0` would silently run a fault-free experiment that
        // claims to be faulty, and an unknown kind must not be guessed at —
        // both reject with a message naming `--faults` (the zero-value
        // convention, same as `hybrid:0` above).
        for bad in [
            &["--faults", "byz:0"][..],
            &["--faults=byz:0"],
            &["--faults", "gremlin:0.1"],
            &["--faults", "byz:1.5"],
            &["--faults", "crash:0.1"],
        ] {
            let message = error(bad);
            assert!(
                message.contains("--faults"),
                "{bad:?} rejection must name the flag, got: {message}"
            );
        }
    }

    #[test]
    fn supermajority_fault_fractions_need_the_explicit_waiver() {
        // f/n >= 1/3 is past what any binary consensus can tolerate, so it
        // is almost always a typo; the waiver flag makes the intent loud.
        let message = error(&["--faults", "byz:0.4"]);
        assert!(
            message.contains("--faults") && message.contains("--allow-supermajority-faults"),
            "rejection must name both flags, got: {message}"
        );
        let cfg = config(&["--faults", "byz:0.4", "--allow-supermajority-faults"]);
        assert!(cfg.allow_supermajority_faults);
        assert_eq!(cfg.faults.unwrap().fraction, 0.4);
        // Just under the bound needs no waiver.
        assert!(config(&["--faults", "byz:0.33"]).faults.is_some());
    }

    #[test]
    fn non_flag_arguments_are_ignored() {
        // Words fill the command's positional slots and never change the
        // configuration; a word past the last slot is an error naming it.
        let args = parse("test", &owned(&["e01", "quick"]), &["<a>", "<b>"]).unwrap();
        assert_eq!(args.config, ExperimentConfig::quick());
        assert_eq!(args.positional, ["e01", "quick"]);
        let message = parse("sweep list", &owned(&["extra"]), &[]).unwrap_err();
        assert!(
            message.contains("sweep list") && message.contains("`extra`"),
            "{message}"
        );
        let message = parse("sweep export", &[], &["<dir>", "--csv"]).unwrap_err();
        assert!(message.contains("needs <dir>"), "{message}");
    }

    #[test]
    fn rounds_override_parses_and_reaches_the_config() {
        let cfg = config(&["--rounds", "500"]);
        assert_eq!(cfg.rounds, Some(500));
        let cfg = config(&["--rounds=1"]);
        assert_eq!(cfg.rounds, Some(1));
        assert_eq!(config(&[]).rounds, None);
    }

    #[test]
    fn experiment_binaries_reject_an_unconsumed_rounds_override() {
        // `sweep table e01 --rounds 50` must not silently run e01's default
        // schedule: a command whose usage line lists no `--rounds` rejects
        // it, naming the command and the flag.
        let table = ["<experiment>", "--trials"];
        assert!(parse("sweep table", &owned(&["e01"]), &table).is_ok());
        for bad in [&["e01", "--rounds", "50"][..], &["e01", "--rounds=50"]] {
            let message = parse("sweep table", &owned(bad), &table).unwrap_err();
            assert!(
                message.contains("`sweep table`") && message.contains("--rounds"),
                "{bad:?}: {message}"
            );
        }
    }

    #[test]
    fn zero_valued_flags_are_rejected_with_guidance() {
        // A zero here would not error downstream — it would silently run an
        // empty experiment — so the parser must refuse with a message that
        // names the flag.
        for (args, needle) in [
            (&["--trials", "0"][..], "--trials"),
            (&["--trials=0"], "--trials"),
            (&["--threads", "0"], "--threads"),
            (&["--rounds", "0"], "--rounds"),
            (&["--rounds=0"], "--rounds"),
        ] {
            let message = error(args);
            assert!(
                message.contains(needle),
                "{args:?} rejection must name the flag, got: {message}"
            );
        }
        let message = parse("test", &owned(&["--max-cells=0"]), &["--max-cells"]).unwrap_err();
        assert!(message.contains("--max-cells"), "{message}");
    }

    #[test]
    fn invalid_inputs_fail_loudly() {
        for bad in [
            &["--trials"][..],
            &["--trials", "zero"],
            &["--trials=0"],
            &["--threads", "0"],
            &["--rounds", "none"],
            &["--verbose"],
            &["--seed", "abc"],
            // Single-dash typos must not silently run defaults.
            &["-threads", "4"],
            &["-full"],
            // A switch takes no value.
            &["--full=yes"],
        ] {
            error(bad);
        }
    }
}
