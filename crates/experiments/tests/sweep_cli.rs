//! End-to-end tests of the `sweep` binary: run, interrupt, resume, export —
//! and the byte-identity guarantee that holds it all together.
//!
//! The interruption is simulated two ways: deterministically with
//! `--max-cells` (stop after N cells, exactly what a kill between
//! checkpoints leaves behind) and destructively by truncating a shard file
//! mid-line (exactly what a kill *during* a checkpoint write leaves behind).
//! In both cases `sweep resume` must complete the grid and `sweep export`
//! must emit bytes identical to an uninterrupted run's.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A tiny 4-cell rumor sweep that runs in well under a second.
const TINY_SPEC: &str = r#"{
  "name": "cli-tiny",
  "protocol": "rumor",
  "backend": "agents",
  "trials": 3,
  "base_seed": 99,
  "point_base": 0,
  "rounds": 120,
  "defaults": {"epsilon": 0.25, "informed": 5.0},
  "axes": [{"key": "n", "values": [60.0, 90.0, 120.0, 150.0]}]
}"#;

fn sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        // Telemetry-off assertions (and byte-identity references) must not
        // depend on an ambient opt-in from the harness environment; the
        // tests that want telemetry pass --telemetry or set the variable
        // explicitly.
        .env_remove("FLIP_TELEMETRY")
        .output()
        .expect("sweep binary runs")
}

fn sweep_ok(args: &[&str]) -> String {
    let out = sweep(args);
    assert!(
        out.status.success(),
        "sweep {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("sweep-cli-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_spec(dir: &Path) -> PathBuf {
    let path = dir.join("spec.json");
    fs::write(&path, TINY_SPEC).unwrap();
    path
}

fn export(dir: &Path, format: &str) -> String {
    sweep_ok(&["export", dir.to_str().unwrap(), format])
}

#[test]
fn interrupted_then_resumed_sweep_exports_byte_identical_output() {
    let root = scratch("resume");
    let spec = write_spec(&root);
    let spec = spec.to_str().unwrap();

    // Reference: an uninterrupted run.
    let full_dir = root.join("full");
    let stdout = sweep_ok(&[
        "run",
        spec,
        "--out",
        full_dir.to_str().unwrap(),
        "--threads",
        "2",
    ]);
    assert!(stdout.contains("4 executed"), "{stdout}");
    let reference_csv = export(&full_dir, "--csv");
    let reference_json = export(&full_dir, "--json");

    // Interrupted: stop after 2 cells, then resume.
    let cut_dir = root.join("interrupted");
    let stdout = sweep_ok(&[
        "run",
        spec,
        "--out",
        cut_dir.to_str().unwrap(),
        "--max-cells",
        "2",
    ]);
    assert!(stdout.contains("incomplete (2/4"), "{stdout}");
    // Exporting an incomplete store refuses without --partial.
    let refused = sweep(&["export", cut_dir.to_str().unwrap(), "--csv"]);
    assert!(!refused.status.success());
    assert!(String::from_utf8_lossy(&refused.stderr).contains("incomplete"));

    let stdout = sweep_ok(&["resume", cut_dir.to_str().unwrap()]);
    assert!(stdout.contains("2 already persisted"), "{stdout}");
    assert_eq!(
        export(&cut_dir, "--csv"),
        reference_csv,
        "CSV must be byte-identical"
    );
    assert_eq!(
        export(&cut_dir, "--json"),
        reference_json,
        "JSON must be byte-identical"
    );

    // Resuming a complete sweep is a no-op.
    let stdout = sweep_ok(&["resume", cut_dir.to_str().unwrap()]);
    assert!(stdout.contains("0 executed"), "{stdout}");
}

#[test]
fn resume_with_a_different_thread_count_exports_byte_identical_output() {
    // The shard-to-worker mapping is a scheduling detail: a sweep killed
    // mid-run and resumed with a *different* `--threads` (or `FLIP_THREADS`)
    // than the original run must still export byte for byte what an
    // uninterrupted single-threaded run exports.  Worker counts change the
    // shard file layout, never the records.
    let root = scratch("resume-threads");
    let spec = write_spec(&root);
    let spec = spec.to_str().unwrap();

    // Reference: uninterrupted, three workers.
    let full_dir = root.join("full");
    sweep_ok(&[
        "run",
        spec,
        "--out",
        full_dir.to_str().unwrap(),
        "--threads",
        "3",
    ]);
    let reference_csv = export(&full_dir, "--csv");
    let reference_json = export(&full_dir, "--json");

    // Interrupted run at 2 threads, then a simulated kill during the last
    // checkpoint append (torn final line in the biggest shard).
    let cut_dir = root.join("cut");
    sweep_ok(&[
        "run",
        spec,
        "--out",
        cut_dir.to_str().unwrap(),
        "--threads",
        "2",
        "--max-cells",
        "3",
    ]);
    let shards: Vec<PathBuf> = fs::read_dir(cut_dir.join("shards"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    let victim = shards
        .iter()
        .max_by_key(|p| fs::metadata(p).unwrap().len())
        .unwrap();
    let content = fs::read(victim).unwrap();
    fs::write(victim, &content[..content.len() - 20]).unwrap();

    // Resume wider than the original run ever was.
    let stdout = sweep_ok(&["resume", cut_dir.to_str().unwrap(), "--threads", "5"]);
    assert!(stdout.contains("executed"), "{stdout}");
    assert_eq!(
        export(&cut_dir, "--csv"),
        reference_csv,
        "CSV must not depend on worker counts"
    );
    assert_eq!(
        export(&cut_dir, "--json"),
        reference_json,
        "JSON must not depend on worker counts"
    );

    // And a FLIP_THREADS override on a fresh single-cell-at-a-time run
    // still converges to the same bytes.
    let env_dir = root.join("env");
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["run", spec, "--out", env_dir.to_str().unwrap()])
        .env("FLIP_THREADS", "1")
        .output()
        .expect("sweep binary runs");
    assert!(out.status.success());
    assert_eq!(export(&env_dir, "--csv"), reference_csv);
}

#[test]
fn a_kill_mid_checkpoint_write_loses_only_the_torn_cell() {
    let root = scratch("torn");
    let spec = write_spec(&root);
    let dir = root.join("store");
    sweep_ok(&[
        "run",
        spec.to_str().unwrap(),
        "--out",
        dir.to_str().unwrap(),
    ]);
    let reference_csv = export(&dir, "--csv");

    // Simulate `kill -9` during a checkpoint append: truncate one shard
    // inside its final line.
    let shards: Vec<PathBuf> = fs::read_dir(dir.join("shards"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    let victim = shards
        .iter()
        .max_by_key(|p| fs::metadata(p).unwrap().len())
        .unwrap();
    let content = fs::read(victim).unwrap();
    fs::write(victim, &content[..content.len() - 25]).unwrap();

    // The torn cell re-runs on resume; the export is unchanged.
    let stdout = sweep_ok(&["resume", dir.to_str().unwrap()]);
    assert!(stdout.contains("1 executed"), "{stdout}");
    assert_eq!(export(&dir, "--csv"), reference_csv);
}

#[test]
fn telemetry_run_is_bit_identical_and_report_renders_the_profile() {
    let root = scratch("telemetry");
    let spec = write_spec(&root);
    let spec = spec.to_str().unwrap();

    // Reference: a plain run with telemetry off.
    let plain_dir = root.join("plain");
    sweep_ok(&["run", spec, "--out", plain_dir.to_str().unwrap()]);
    let reference_csv = export(&plain_dir, "--csv");

    // Telemetry on: results must not move by a bit, and the aggregate
    // profile table streams to stderr alongside the progress lines.
    let tele_dir = root.join("tele");
    let out = sweep(&[
        "run",
        spec,
        "--out",
        tele_dir.to_str().unwrap(),
        "--telemetry",
        "--progress",
    ]);
    assert!(out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("telemetry profile"), "{stderr}");
    assert!(stderr.contains("protocol_step"), "{stderr}");
    assert!(stderr.contains("[sweep] cell"), "{stderr}");
    assert_eq!(
        export(&tele_dir, "--csv"),
        reference_csv,
        "telemetry must never change results"
    );
    // Profile shards live beside — never inside — the result shards.
    assert!(tele_dir.join("telemetry").is_dir());

    // `report --telemetry` re-renders the profile from persisted shards.
    let report = sweep_ok(&["report", tele_dir.to_str().unwrap(), "--telemetry"]);
    assert!(report.contains("4/4 cells persisted"), "{report}");
    assert!(report.contains("4 cell profiles"), "{report}");
    assert!(report.contains("protocol_step"), "{report}");

    // A store that never recorded telemetry reports that, not an error.
    let plain_report = sweep_ok(&["report", plain_dir.to_str().unwrap(), "--telemetry"]);
    assert!(
        plain_report.contains("no telemetry profiles"),
        "{plain_report}"
    );

    // The FLIP_TELEMETRY environment opt-in is equivalent to the flag.
    let env_dir = root.join("env");
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["run", spec, "--out", env_dir.to_str().unwrap()])
        .env("FLIP_TELEMETRY", "1")
        .output()
        .expect("sweep binary runs");
    assert!(out.status.success());
    assert!(env_dir.join("telemetry").is_dir());
    assert_eq!(export(&env_dir, "--csv"), reference_csv);
}

#[test]
fn telemetry_shards_survive_interruption_and_resume() {
    let root = scratch("telemetry-resume");
    let spec = write_spec(&root);
    let spec = spec.to_str().unwrap();
    let dir = root.join("store");
    let dir_str = dir.to_str().unwrap();

    // Interrupt after 2 of 4 cells, then resume with telemetry still on.
    sweep_ok(&[
        "run",
        spec,
        "--out",
        dir_str,
        "--max-cells",
        "2",
        "--telemetry",
    ]);
    let report = sweep_ok(&["report", dir_str, "--telemetry"]);
    assert!(report.contains("2/4 cells persisted"), "{report}");
    assert!(report.contains("2 cell profiles"), "{report}");

    sweep_ok(&["resume", dir_str, "--telemetry"]);
    let report = sweep_ok(&["report", dir_str, "--telemetry"]);
    assert!(report.contains("4/4 cells persisted"), "{report}");
    assert!(report.contains("4 cell profiles"), "{report}");

    // A resume without --telemetry completes fine and keeps the profiles
    // already persisted (a no-op resume here: the grid is complete).
    let stdout = sweep_ok(&["resume", dir_str]);
    assert!(stdout.contains("0 executed"), "{stdout}");
}

#[test]
fn run_rejects_a_store_holding_a_different_spec() {
    let root = scratch("mismatch");
    let spec = write_spec(&root);
    let dir = root.join("store");
    sweep_ok(&[
        "run",
        spec.to_str().unwrap(),
        "--out",
        dir.to_str().unwrap(),
    ]);

    let edited = root.join("edited.json");
    fs::write(&edited, TINY_SPEC.replace("\"trials\": 3", "\"trials\": 5")).unwrap();
    let out = sweep(&[
        "run",
        edited.to_str().unwrap(),
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("fresh --out"));
}

#[test]
fn gen_list_and_generated_specs_are_runnable() {
    let listing = sweep_ok(&["list"]);
    for name in ["e01", "e01-dense", "e08", "e08-dense", "a2"] {
        assert!(listing.contains(name), "list must mention {name}");
    }
    assert!(listing.contains("majority-sampler"));

    // `gen` output parses and carries the legacy seed points.
    let generated = sweep_ok(&["gen", "e01", "--trials", "2"]);
    assert!(generated.contains("\"point_base\": 0"));
    assert!(generated.contains("broadcast"));
    let spec = sweeps::SweepSpec::from_json_text(&generated).expect("gen output parses");
    assert_eq!(spec.trials, 2);
    assert_eq!(spec.base_seed, 0xBEA7_4E5E);

    let unknown = sweep(&["gen", "e99"]);
    assert!(!unknown.status.success());

    // A flag before the name is a clean usage error, not a misparse.
    let swapped = sweep(&["gen", "--trials", "2", "e01"]);
    assert!(!swapped.status.success());
    assert!(String::from_utf8_lossy(&swapped.stderr).contains("name first"));
}

#[test]
fn zero_valued_flags_fail_loudly_instead_of_running_empty() {
    // `--threads 0`, `--max-cells 0` and `--rounds 0` must all refuse with
    // a message naming the flag — a zero here would not crash, it would
    // silently produce an empty run or an empty aggregate.
    let root = scratch("zeros");
    let spec = write_spec(&root);
    let spec = spec.to_str().unwrap();
    let dir = root.join("store");
    let dir = dir.to_str().unwrap();
    for (args, needle) in [
        (
            vec!["run", spec, "--out", dir, "--threads", "0"],
            "--threads",
        ),
        (
            vec!["run", spec, "--out", dir, "--max-cells", "0"],
            "--max-cells",
        ),
        (vec!["run", spec, "--out", dir, "--threads=0"], "--threads"),
        (vec!["resume", dir, "--max-cells=0"], "--max-cells"),
        (vec!["gen", "e01", "--rounds", "0"], "--rounds"),
        (vec!["gen", "e01", "--trials", "0"], "--trials"),
    ] {
        let out = sweep(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "{args:?} must name {needle}, got: {stderr}"
        );
    }
    // No store directory may have been created by the refused runs.
    assert!(!Path::new(dir).exists(), "refused runs must not touch disk");

    // The positive counterpart: a --rounds override lands in gen output.
    let generated = sweep_ok(&["gen", "e01", "--rounds", "777"]);
    assert!(generated.contains("\"rounds\": 777"), "{generated}");
}

#[test]
fn usage_errors_exit_nonzero_with_guidance() {
    for bad in [
        vec!["run"],
        vec!["run", "/nonexistent/spec.json", "--out", "/tmp/x"],
        vec!["export", "/nonexistent-dir", "--csv"],
        vec!["export"],
        vec!["frobnicate"],
        // Single-dash typos must fail, not pass as positionals.
        vec!["resume", "/tmp/x", "-threads", "4"],
    ] {
        let out = sweep(&bad);
        assert!(!out.status.success(), "{bad:?} must fail");
        assert!(!out.stderr.is_empty(), "{bad:?} must explain itself");
    }
    // And --help succeeds.
    let help = sweep_ok(&["--help"]);
    assert!(help.contains("sweep run"));
}

#[test]
fn unknown_sweep_names_suggest_the_nearest_builtin() {
    let root = scratch("suggest");
    let dir = root.join("store");
    let dir = dir.to_str().unwrap();

    // A near-miss spec path is almost always a typo for a builtin name.
    let run = sweep(&["run", "e0", "--out", dir]);
    assert!(!run.status.success());
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        stderr.contains("did you mean the builtin sweep `e01`"),
        "run e0 must suggest e01, got: {stderr}"
    );
    assert!(!Path::new(dir).exists(), "refused runs must not touch disk");

    // A near-miss of the composed report points at `run report`.
    let report = sweep(&["run", "repor", "--out", dir]);
    let stderr = String::from_utf8_lossy(&report.stderr);
    assert!(
        stderr.contains("did you mean the composed report"),
        "run repor must suggest the composed report, got: {stderr}"
    );

    // `gen` gives the same courtesy.
    let gen = sweep(&["gen", "e08-dens"]);
    assert!(!gen.status.success());
    let stderr = String::from_utf8_lossy(&gen.stderr);
    assert!(
        stderr.contains("did you mean `e08-dense`"),
        "gen e08-dens must suggest e08-dense, got: {stderr}"
    );

    // A name nothing like a builtin gets the plain error, no wild guess.
    let far = sweep(&["run", "/nonexistent/spec.json", "--out", dir]);
    let stderr = String::from_utf8_lossy(&far.stderr);
    assert!(!stderr.contains("did you mean"), "no guess for {stderr}");
}

#[test]
fn list_groups_builtins_by_family_and_marks_composed_specs() {
    let listing = sweep_ok(&["list"]);
    for family in [
        "scaling (E1-E3)",
        "stage claims (E4-E7)",
        "consensus (E8)",
        "comparisons (E9-E12)",
        "ablations (A1-A3)",
        "fault injection (E13)",
    ] {
        assert!(listing.contains(family), "list must group by {family}");
    }
    assert!(listing.contains("composed specs"), "{listing}");
    assert!(listing.contains("members=13"), "{listing}");
    // The composed entry precedes the protocol listing, after the families.
    let report_at = listing.find("composed specs").unwrap();
    let protocols_at = listing.find("registered protocols").unwrap();
    assert!(report_at < protocols_at);
}

#[test]
fn a_closed_stdout_ends_every_command_quietly() {
    // `sweep list | head -n 1` and friends: once the reader is gone the
    // command stops with status 0 and says nothing on stderr.
    let dir = scratch("closed-stdout");
    let spec = write_spec(&dir);
    let out = dir.join("out");
    sweep_ok(&[
        "run",
        spec.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    let store = out.to_str().unwrap();
    for args in [
        vec!["list"],
        vec!["gen", "e01"],
        vec!["report", store],
        vec!["export", store, "--csv"],
    ] {
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let run = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(&args)
            .env_remove("FLIP_TELEMETRY")
            .stdout(writer)
            .output()
            .expect("sweep binary runs");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(
            run.status.success() && stderr.is_empty(),
            "sweep {args:?}: {}, stderr: {stderr}",
            run.status
        );
    }
}

/// Appends to the first shard of the store at `dir` a copy of its first
/// record under a hash no grid cell has.
fn append_foreign_record(dir: &Path) {
    let shard = fs::read_dir(dir.join("shards"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "jsonl"))
        .min()
        .expect("the store has a shard");
    let mut content = fs::read_to_string(&shard).unwrap();
    let line = content.lines().next().unwrap().to_string();
    let hash = line.find("\"cell\":\"").unwrap() + "\"cell\":\"".len();
    content.push_str(&format!(
        "{}{}{}\n",
        &line[..hash],
        "f".repeat(16),
        &line[hash + 16..]
    ));
    fs::write(&shard, content).unwrap();
}

#[test]
fn report_counts_only_grid_cells() {
    let root = scratch("report-foreign");
    let spec = write_spec(&root);
    let dir = root.join("store");
    let dir_str = dir.to_str().unwrap();
    sweep_ok(&[
        "run",
        spec.to_str().unwrap(),
        "--out",
        dir_str,
        "--max-cells",
        "3",
    ]);
    append_foreign_record(&dir);
    let report = sweep_ok(&["report", dir_str]);
    assert!(report.contains(": 3/4 cells persisted"), "{report}");

    // The same in a composed report: the member line and the total.
    let composed = root.join("report");
    let composed_str = composed.to_str().unwrap();
    sweep_ok(&[
        "run",
        "report",
        "--out",
        composed_str,
        "--trials",
        "1",
        "--max-cells",
        "2",
    ]);
    append_foreign_record(&composed.join("members").join("e01"));
    let status = sweep_ok(&["report", composed_str]);
    let total = status.lines().next().unwrap();
    assert!(total.contains(": 2/"), "{status}");
    assert!(status.contains("member `e01`: 2/"), "{status}");
}

#[test]
fn composed_report_runs_resume_and_refuse_flat_export() {
    let root = scratch("composed");
    let dir = root.join("report");
    let dir = dir.to_str().unwrap();

    // `gen report` is meaningless — the composition is not one spec.
    let gen = sweep(&["gen", "report"]);
    assert!(!gen.status.success());
    assert!(String::from_utf8_lossy(&gen.stderr).contains("sweep run report"));

    // `run report` without --out must refuse before touching disk.
    let no_out = sweep(&["run", "report", "--trials", "1"]);
    assert!(!no_out.status.success());
    assert!(String::from_utf8_lossy(&no_out.stderr).contains("--out"));

    // A budgeted composed run persists a cut and reports it as such.
    let cut = sweep_ok(&[
        "run",
        "report",
        "--out",
        dir,
        "--trials",
        "1",
        "--max-cells",
        "2",
    ]);
    assert!(cut.contains("13 members"), "{cut}");
    assert!(cut.contains("2 executed"), "{cut}");
    assert!(cut.contains("incomplete"), "{cut}");
    assert!(Path::new(dir).join("report.json").is_file());

    // The composed store resumes through the generic `resume`, budget again.
    let resumed = sweep_ok(&["resume", dir, "--max-cells", "1"]);
    assert!(resumed.contains("2 already persisted"), "{resumed}");
    assert!(resumed.contains("1 executed"), "{resumed}");

    // `report` renders per-member status for a composed store.
    let status = sweep_ok(&["report", dir]);
    assert!(status.contains("member `e01`"), "{status}");
    assert!(status.contains("member `e12`"), "{status}");

    // Flat export is refused with a pointer at the member stores.
    let export = sweep(&["export", dir, "--csv"]);
    assert!(!export.status.success());
    let stderr = String::from_utf8_lossy(&export.stderr);
    assert!(stderr.contains("composed report store"), "{stderr}");
    assert!(stderr.contains("full_report --store"), "{stderr}");
}

#[test]
fn table_threads_the_exact_backend_value_into_the_sweep() {
    // `--backend hybrid:3` must run 3 tracked agents, not the builtin
    // spec's DEFAULT_HYBRID_TRACKED.
    let hybrid = sweep_ok(&["table", "e01", "--backend", "hybrid:3", "--trials", "1"]);
    assert!(hybrid.contains("(backend = hybrid:3,"), "{hybrid}");
    assert_eq!(hybrid.matches("### ").count(), 1, "{hybrid}");

    // The default backend runs the experiment's own sweeps, one table each.
    let e12 = sweep_ok(&["table", "e12", "--trials", "1"]);
    assert!(e12.starts_with("### E12: "), "{e12}");
    assert!(e12.ends_with("|\n\n"), "each table ends with a blank line");
}

#[test]
fn table_rejects_a_backend_without_a_variant_naming_the_flag() {
    for (args, needles) in [
        (
            vec!["table", "e08", "--backend", "hybrid:4"],
            vec!["--backend", "agents, dense"],
        ),
        (
            vec!["table", "e03", "--backend", "dense"],
            vec!["--backend"],
        ),
        (
            vec!["table", "ablations", "--backend=hybrid:2"],
            vec!["--backend"],
        ),
    ] {
        let out = sweep(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must print no table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        for needle in needles {
            assert!(
                stderr.contains(needle),
                "{args:?} must name {needle}: {stderr}"
            );
        }
    }
}

#[test]
fn table_rejects_rounds_overrides_and_unknown_experiments() {
    for (args, needle) in [
        // The tables run each experiment's own round schedule.
        (vec!["table", "e01", "--rounds", "5"], "--rounds"),
        (vec!["table", "ablations", "--rounds=5"], "--rounds"),
        (vec!["table", "e99"], "unknown experiment `e99`"),
        // A sweep name is not an experiment: e01-dense is `e01 --backend dense`.
        (vec!["table", "e01-dense"], "available: e01, e02"),
        (vec!["table"], "needs a name"),
        (vec!["table", "--trials", "1", "e01"], "name first"),
        (vec!["table", "e01", "--trials", "0"], "--trials"),
    ] {
        let out = sweep(&args);
        assert!(!out.status.success(), "{args:?} must fail");
        assert!(out.stdout.is_empty(), "{args:?} must print no table");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(needle),
            "{args:?} must name {needle}: {stderr}"
        );
    }
}

/// Runs `binary` (`sweep` or `full_report`) and requires the flag error a
/// usage mistake must end in: status 1, a `<binary>: ` message containing
/// `needle`, and no panic.
fn assert_flag_error(binary: &str, args: &[&str], needle: &str) {
    let path = match binary {
        "sweep" => env!("CARGO_BIN_EXE_sweep"),
        _ => env!("CARGO_BIN_EXE_full_report"),
    };
    let out = Command::new(path)
        .args(args)
        .env_remove("FLIP_TELEMETRY")
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{binary} {args:?}: {stderr}");
    assert!(
        out.stdout.is_empty(),
        "{binary} {args:?} must print nothing"
    );
    assert!(
        stderr.starts_with(&format!("{binary}: "))
            && stderr.contains(needle)
            && !stderr.contains("panicked"),
        "{binary} {args:?} must name {needle} without a panic, got: {stderr}"
    );
}

#[test]
fn every_command_rejects_what_its_usage_line_does_not_list() {
    // Each of these once exited 0 and ignored the flag or word.
    let root = scratch("rejects");
    let spec = write_spec(&root);
    let spec = spec.to_str().unwrap();
    let store = root.join("store");
    let store = store.to_str().unwrap();
    sweep_ok(&["run", spec, "--out", store]);
    let never = root.join("never");
    let never = never.to_str().unwrap();
    for (binary, args, needle) in [
        (
            "sweep",
            vec![
                "export",
                store,
                "--csv",
                "--max-cells",
                "3",
                "--threads",
                "2",
                "--progress",
            ],
            "--max-cells",
        ),
        (
            "sweep",
            vec!["report", store, "--csv", "--max-cells", "3"],
            "--csv",
        ),
        (
            "sweep",
            vec!["run", spec, "--out", never, "--csv", "--partial"],
            "--csv",
        ),
        ("sweep", vec!["list", "--bogus", "extra"], "--bogus"),
        ("sweep", vec!["list", "extra"], "`extra`"),
        ("full_report", vec!["--trials", "1", "extra"], "`extra`"),
        (
            "sweep",
            vec!["gen", "e01", "--backend", "dense", "--threads", "4", "e02"],
            "--backend",
        ),
        ("sweep", vec!["gen", "e01", "e02"], "`e02`"),
    ] {
        assert_flag_error(binary, &args, needle);
    }
    assert!(
        !Path::new(never).exists(),
        "refused runs must not touch disk"
    );
}

#[test]
fn flag_errors_exit_with_a_message_not_a_panic() {
    for (binary, args, needle) in [
        ("sweep", &["table", "e01", "--trials", "0"][..], "--trials"),
        ("sweep", &["gen", "e01", "--bogus"], "--bogus"),
        ("sweep", &["table", "e11", "--rounds", "5"], "--rounds"),
        ("full_report", &["--threads", "0"], "--threads"),
        // Every case of the parser's own unit tests, through a command
        // that takes the flag.
        (
            "sweep",
            &["table", "e01", "--backend", "hybrid"],
            "--backend",
        ),
        (
            "sweep",
            &["table", "e01", "--backend=hybrid:0"],
            "--backend",
        ),
        ("sweep", &["gen", "e01", "--faults", "byz:0"], "--faults"),
        ("sweep", &["gen", "e01", "--faults=byz:0"], "--faults"),
        (
            "sweep",
            &["gen", "e01", "--faults", "gremlin:0.1"],
            "--faults",
        ),
        ("sweep", &["gen", "e01", "--faults", "byz:1.5"], "--faults"),
        (
            "sweep",
            &["gen", "e01", "--faults", "crash:0.1"],
            "--faults",
        ),
        (
            "sweep",
            &["gen", "e01", "--faults", "byz:0.4"],
            "--allow-supermajority-faults",
        ),
        ("sweep", &["gen", "e01", "--trials", "0"], "--trials"),
        ("sweep", &["gen", "e01", "--trials=0"], "--trials"),
        ("sweep", &["table", "e01", "--threads", "0"], "--threads"),
        ("sweep", &["gen", "e01", "--rounds", "0"], "--rounds"),
        ("sweep", &["gen", "e01", "--rounds=0"], "--rounds"),
        ("sweep", &["gen", "e01", "--trials"], "--trials"),
        ("sweep", &["gen", "e01", "--trials", "zero"], "--trials"),
        ("sweep", &["gen", "e01", "--rounds", "none"], "--rounds"),
        ("sweep", &["gen", "e01", "--verbose"], "--verbose"),
        ("sweep", &["gen", "e01", "--seed", "abc"], "--seed"),
        ("sweep", &["table", "e01", "-threads", "4"], "-threads"),
        ("sweep", &["gen", "e01", "-full"], "-full"),
        ("sweep", &["gen", "e01", "--full=yes"], "--full"),
        ("sweep", &["table", "e01", "--backend", "gpu"], "--backend"),
    ] {
        assert_flag_error(binary, args, needle);
    }
}

#[test]
fn a_failed_export_write_names_the_file_not_the_store() {
    let root = scratch("unwritable");
    let spec = write_spec(&root);
    let store = root.join("store");
    sweep_ok(&[
        "run",
        spec.to_str().unwrap(),
        "--out",
        store.to_str().unwrap(),
    ]);
    let target = root.join("missing").join("cells.csv");
    let target = target.to_str().unwrap();
    let out = sweep(&["export", store.to_str().unwrap(), "--csv", "--out", target]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with(&format!("sweep: cannot write {target}: "))
            && !stderr.replace(target, "").contains("store"),
        "{stderr}"
    );
}
