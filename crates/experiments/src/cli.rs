//! The shared command-line convention of the experiment surfaces.
//!
//! `sweep table`, `sweep gen`, `sweep run report` and `full_report` all
//! parse their experiment flags with [`parse_config`], so a flag means the
//! same thing everywhere:
//!
//! | flag                         | effect                                               |
//! |------------------------------|------------------------------------------------------|
//! | `--full`                     | full-scale grids and trials (default: quick)         |
//! | `--backend agents\|dense\|hybrid:k` | engine selection where a variant exists       |
//! | `--trials N`                 | trials per configuration point                       |
//! | `--threads N`                | worker-thread cap (`FLIP_THREADS` env is honoured when absent) |
//! | `--seed N`                   | base seed override                                   |
//! | `--rounds N`                 | round-cap override (`sweep gen` applies it to generated specs) |
//! | `--faults DIRECTIVE`         | fault injection (`byz:F`, `equiv:F`, `flip:F`, `crash:F@R`) where supported |
//! | `--allow-supermajority-faults` | waive the `f/n < 1/3` sanity bound on `--faults`   |
//!
//! All flags accept both `--flag value` and `--flag=value`.  Unknown `--`
//! flags panic with a usage message — a typo must never silently run a
//! default configuration.  Zero values for `--trials`, `--threads` and
//! `--rounds` are rejected with an explicit message: a zero would not error
//! downstream, it would silently produce empty runs and empty aggregates.
//! The same convention covers `--faults`: a zero fraction (`byz:0`) and an
//! unknown fault kind both panic naming the flag, and a fraction at or past
//! the Byzantine-consensus bound `1/3` needs the explicit
//! `--allow-supermajority-faults` waiver (the E13 family sweeps past the
//! bound on purpose; a stray `byz:0.4` elsewhere is a typo).
//!
//! Both binaries write their stdout through [`print()`], so a reader that
//! closes the pipe early (`sweep list | head -n 3`) ends the run quietly
//! instead of panicking.

use std::fmt;
use std::io::{self, Write};
use std::process;

use crate::ExperimentConfig;

/// Parses the shared flags into an [`ExperimentConfig`].
///
/// # Panics
///
/// Panics with a usage message on unknown `--` flags, missing values or
/// unparseable numbers.
#[must_use]
pub fn parse_config<I: IntoIterator<Item = String>>(args: I) -> ExperimentConfig {
    let args: Vec<String> = args.into_iter().collect();
    let mut cfg = if args.iter().any(|a| a == "--full") {
        ExperimentConfig::full()
    } else {
        ExperimentConfig::quick()
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--full" || !arg.starts_with('-') {
            // Bare words (argv[0]-style) pass through; `--full` was handled
            // above.  Anything starting with `-` falls through to the flag
            // match so a single-dash typo (`-threads 4`) fails loudly
            // instead of silently running a default configuration.
            continue;
        }
        let (flag, value) = match arg.split_once('=') {
            Some((flag, value)) => (flag, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        let mut value = || {
            value.clone().unwrap_or_else(|| {
                iter.next()
                    .unwrap_or_else(|| panic!("{flag} requires a value"))
                    .clone()
            })
        };
        match flag {
            "--backend" => {
                cfg.backend = value()
                    .parse()
                    .unwrap_or_else(|e| panic!("invalid --backend value: {e}"));
            }
            "--trials" => {
                cfg.trials = parse_number(flag, &value());
                assert!(
                    cfg.trials >= 1,
                    "--trials must be >= 1: zero trials would silently produce empty tables"
                );
            }
            "--threads" => {
                let threads: usize = parse_number(flag, &value());
                assert!(threads >= 1, "--threads must be >= 1");
                cfg.threads = Some(threads);
            }
            "--rounds" => {
                let rounds: u64 = parse_number(flag, &value());
                assert!(
                    rounds >= 1,
                    "--rounds must be >= 1: a zero round cap would silently produce \
                     empty runs and empty aggregates"
                );
                cfg.rounds = Some(rounds);
            }
            "--seed" => cfg.base_seed = parse_number(flag, &value()),
            "--faults" => {
                let directive = value();
                cfg.faults = Some(
                    directive
                        .parse()
                        .unwrap_or_else(|e| panic!("invalid --faults value `{directive}`: {e}")),
                );
            }
            "--allow-supermajority-faults" => cfg.allow_supermajority_faults = true,
            other => panic!(
                "unknown flag `{other}`; supported: --full --backend --trials --threads \
                 --seed --rounds --faults --allow-supermajority-faults"
            ),
        }
    }
    if let Some(spec) = cfg.faults {
        assert!(
            spec.fraction < 1.0 / 3.0 || cfg.allow_supermajority_faults,
            "--faults {spec} puts {:.1}% of the population at or past the Byzantine-consensus \
             bound f/n < 1/3; pass --allow-supermajority-faults if charting the collapse is \
             intentional",
            spec.fraction * 100.0
        );
    }
    cfg
}

fn parse_number<T: std::str::FromStr>(flag: &str, raw: &str) -> T {
    raw.parse()
        .unwrap_or_else(|_| panic!("invalid {flag} value `{raw}`: expected a number"))
}

/// Rejects a `--rounds` override on surfaces that do not consume it.
///
/// `sweep table` and `full_report` run each experiment's own schedule; only
/// `sweep gen` applies `cfg.rounds` (to the generated spec).  Accepting the
/// flag and ignoring it would silently run a default configuration — the
/// exact failure mode this module exists to prevent.
///
/// # Panics
///
/// Panics when `cfg.rounds` is set.
pub fn require_no_rounds_override(cfg: &ExperimentConfig, binary: &str) {
    assert!(
        cfg.rounds.is_none(),
        "`{binary}` runs its experiment's own round schedule and does not honour \
         --rounds; the override only applies to `sweep gen`"
    );
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

#[cfg(test)]
mod tests {
    use super::*;
    use flip_model::Backend;

    fn parse(args: &[&str]) -> ExperimentConfig {
        parse_config(args.iter().map(ToString::to_string))
    }

    #[test]
    fn extended_flags_parse_in_both_spellings() {
        let cfg = parse(&["--trials", "17", "--threads=2", "--seed", "99"]);
        assert_eq!(cfg.trials, 17);
        assert_eq!(cfg.threads, Some(2));
        assert_eq!(cfg.base_seed, 99);
        assert!(cfg.quick);

        let cfg = parse(&["--full", "--trials=3", "--backend=dense"]);
        assert_eq!(cfg.trials, 3);
        assert!(!cfg.quick);
        assert_eq!(cfg.backend, Backend::Dense);
        assert_eq!(cfg.threads, None);

        let cfg = parse(&["--backend", "hybrid:64"]);
        assert_eq!(cfg.backend, Backend::Hybrid(64));
    }

    #[test]
    fn hybrid_backend_without_a_tracked_count_fails_naming_the_flag() {
        // `--backend hybrid` and `--backend hybrid:0` would both run with a
        // silently-chosen subpopulation if defaulted; they must panic with a
        // message that names the flag (the PR-5 zero-value convention).
        for bad in [vec!["--backend", "hybrid"], vec!["--backend=hybrid:0"]] {
            let owned: Vec<String> = bad.iter().map(ToString::to_string).collect();
            let result = std::panic::catch_unwind(|| parse_config(owned.clone()));
            let message = match result {
                Ok(_) => panic!("{bad:?} must be rejected"),
                Err(payload) => payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
                    .unwrap_or_default(),
            };
            assert!(
                message.contains("--backend") && message.contains("subpopulation"),
                "{bad:?} rejection must name the flag and the missing size, got: {message}"
            );
        }
    }

    #[test]
    fn faults_flag_parses_every_directive_kind() {
        use flip_model::{FaultKind, FaultSpec};
        let cfg = parse(&["--faults", "byz:0.1"]);
        assert_eq!(
            cfg.faults,
            Some(FaultSpec::new(FaultKind::Byzantine, 0.1).unwrap())
        );
        assert!(!cfg.allow_supermajority_faults);
        let cfg = parse(&["--faults=crash:0.05@20"]);
        assert_eq!(
            cfg.faults,
            Some(FaultSpec::new(FaultKind::Crash { round: 20 }, 0.05).unwrap())
        );
        assert_eq!(parse(&[]).faults, None);
    }

    #[test]
    fn degenerate_fault_directives_fail_naming_the_flag() {
        // `--faults byz:0` would silently run a fault-free experiment that
        // claims to be faulty, and an unknown kind must not be guessed at —
        // both reject with a message naming `--faults` (the PR-5 zero-value
        // convention, same as `hybrid:0` above).
        for bad in [
            vec!["--faults", "byz:0"],
            vec!["--faults=byz:0"],
            vec!["--faults", "gremlin:0.1"],
            vec!["--faults", "byz:1.5"],
            vec!["--faults", "crash:0.1"],
        ] {
            let owned: Vec<String> = bad.iter().map(ToString::to_string).collect();
            let result = std::panic::catch_unwind(|| parse_config(owned.clone()));
            let message = match result {
                Ok(_) => panic!("{bad:?} must be rejected"),
                Err(payload) => payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
                    .unwrap_or_default(),
            };
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
        let result = std::panic::catch_unwind(|| parse(&["--faults", "byz:0.4"]));
        let message = match result {
            Ok(_) => panic!("byz:0.4 without the waiver must be rejected"),
            Err(payload) => payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
                .unwrap_or_default(),
        };
        assert!(
            message.contains("--faults") && message.contains("--allow-supermajority-faults"),
            "rejection must name both flags, got: {message}"
        );
        let cfg = parse(&["--faults", "byz:0.4", "--allow-supermajority-faults"]);
        assert!(cfg.allow_supermajority_faults);
        assert_eq!(cfg.faults.unwrap().fraction, 0.4);
        // Just under the bound needs no waiver.
        assert!(parse(&["--faults", "byz:0.33"]).faults.is_some());
    }

    #[test]
    fn non_flag_arguments_are_ignored() {
        // argv[0]-style words pass through untouched.
        let cfg = parse(&["e01", "quick"]);
        assert_eq!(cfg, ExperimentConfig::quick());
    }

    #[test]
    fn rounds_override_parses_and_reaches_the_config() {
        let cfg = parse(&["--rounds", "500"]);
        assert_eq!(cfg.rounds, Some(500));
        let cfg = parse(&["--rounds=1"]);
        assert_eq!(cfg.rounds, Some(1));
        assert_eq!(parse(&[]).rounds, None);
    }

    #[test]
    fn experiment_binaries_reject_an_unconsumed_rounds_override() {
        // `e01 --rounds 50` must not silently run e01's default schedule.
        require_no_rounds_override(&parse(&[]), "e01");
        let cfg = parse(&["--rounds", "50"]);
        let result = std::panic::catch_unwind(|| require_no_rounds_override(&cfg, "e01"));
        assert!(result.is_err(), "ignored --rounds must be rejected loudly");
    }

    #[test]
    fn zero_valued_flags_are_rejected_with_guidance() {
        // A zero here would not error downstream — it would silently run an
        // empty experiment — so the parser must refuse with a message that
        // names the flag.
        for (args, needle) in [
            (vec!["--trials", "0"], "--trials"),
            (vec!["--trials=0"], "--trials"),
            (vec!["--threads", "0"], "--threads"),
            (vec!["--rounds", "0"], "--rounds"),
            (vec!["--rounds=0"], "--rounds"),
        ] {
            let owned: Vec<String> = args.iter().map(ToString::to_string).collect();
            let result = std::panic::catch_unwind(|| parse_config(owned.clone()));
            let message = match result {
                Ok(_) => panic!("{args:?} must be rejected"),
                Err(payload) => payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(ToString::to_string))
                    .unwrap_or_default(),
            };
            assert!(
                message.contains(needle),
                "{args:?} rejection must name the flag, got: {message}"
            );
        }
    }

    #[test]
    fn invalid_inputs_fail_loudly() {
        for bad in [
            vec!["--trials"],
            vec!["--trials", "zero"],
            vec!["--trials=0"],
            vec!["--threads", "0"],
            vec!["--rounds", "none"],
            vec!["--verbose"],
            vec!["--seed", "abc"],
            // Single-dash typos must not silently run defaults.
            vec!["-threads", "4"],
            vec!["-full"],
        ] {
            let owned: Vec<String> = bad.iter().map(ToString::to_string).collect();
            let result = std::panic::catch_unwind(|| parse_config(owned.clone()));
            assert!(result.is_err(), "{bad:?} must be rejected");
        }
    }
}
