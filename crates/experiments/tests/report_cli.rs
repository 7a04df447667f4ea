//! End-to-end tests of the composed `full_report` binary: one resumable run
//! covering every experiment, byte-identical however it is interrupted.
//!
//! The contract under test: `full_report --store DIR` may be cut by a
//! drained `--max-cells` budget or killed outright (SIGKILL, no cleanup),
//! and re-running the same command completes the store and renders markdown
//! **byte-identical** to an uninterrupted in-memory run.  All runs here use
//! `--trials 1` to keep the grid cheap; identity is about bytes, not scale.

use std::fs;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::OnceLock;

use experiments::report::REPORT_MEMBERS;
use experiments::specs;

const CONFIG: [&str; 4] = ["--trials", "1", "--threads", "2"];

fn full_report(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_full_report"))
        .args(CONFIG)
        .args(args)
        // Byte-identity references must not depend on an ambient telemetry
        // opt-in from the harness environment.
        .env_remove("FLIP_TELEMETRY")
        .output()
        .expect("full_report binary runs")
}

fn full_report_ok(args: &[&str]) -> String {
    let out = full_report(args);
    assert!(
        out.status.success(),
        "full_report {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("report-cli-{tag}"));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The uninterrupted in-memory report — computed once, shared by every test.
fn reference() -> &'static str {
    static REFERENCE: OnceLock<String> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let markdown = full_report_ok(&[]);
        assert!(
            markdown.starts_with("# Breathe before Speaking"),
            "report markdown lost its title:\n{markdown}"
        );
        markdown
    })
}

#[test]
fn a_store_backed_run_exports_the_in_memory_markdown() {
    let root = scratch("store");
    let store = root.join("store");
    let export = root.join("report.md");
    full_report_ok(&[
        "--store",
        store.to_str().unwrap(),
        "--export",
        export.to_str().unwrap(),
    ]);
    assert!(store.join("report.json").is_file(), "composed manifest");
    assert!(store.join("members").is_dir(), "member sub-stores");
    assert_eq!(fs::read_to_string(&export).unwrap(), reference());
}

#[test]
fn a_cut_run_resumes_to_the_identical_report() {
    let root = scratch("cut");
    let store = root.join("store");
    let store = store.to_str().unwrap();
    let export = root.join("report.md");

    // The cut: two cells of budget, nowhere near the full grid.
    let cut = full_report_ok(&["--store", store, "--max-cells", "2"]);
    assert!(cut.contains("incomplete"), "cut run reports status: {cut}");

    // Exporting from an incomplete store is refused, loudly.
    let refused = full_report(&[
        "--store",
        store,
        "--max-cells",
        "2",
        "--export",
        export.to_str().unwrap(),
    ]);
    assert!(!refused.status.success(), "incomplete export must fail");
    assert!(!export.exists(), "no partial export file");

    // Resume with the same command, uncapped: byte-identical markdown.
    full_report_ok(&["--store", store, "--export", export.to_str().unwrap()]);
    assert_eq!(fs::read_to_string(&export).unwrap(), reference());
}

#[test]
fn a_killed_run_resumes_to_the_identical_report() {
    let root = scratch("kill");
    let store = root.join("store");
    let store = store.to_str().unwrap();
    let export = root.join("report.md");

    // Run with live progress and SIGKILL the process after its first
    // checkpointed cell — no cleanup, no atexit, exactly a crash.
    let mut child = Command::new(env!("CARGO_BIN_EXE_full_report"))
        .args(CONFIG)
        .args(["--store", store, "--export", export.to_str().unwrap()])
        .arg("--progress")
        .env_remove("FLIP_TELEMETRY")
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("full_report binary spawns");
    let progress = BufReader::new(child.stderr.take().unwrap());
    let mut saw_cell = false;
    for line in progress.lines() {
        let line = line.unwrap_or_default();
        if line.contains("[sweep] cell") {
            saw_cell = true;
            let _ = child.kill();
            break;
        }
    }
    let _ = child.wait();
    assert!(saw_cell, "progress stream showed at least one cell");

    // Resume with the same command: the store skips every persisted cell
    // (dropping any torn shard line) and the export matches the reference.
    full_report_ok(&["--store", store, "--export", export.to_str().unwrap()]);
    assert_eq!(fs::read_to_string(&export).unwrap(), reference());
}

#[test]
fn the_report_renders_every_member_table_in_order() {
    // One section per report member, in member order, each a titled table
    // with a header, a separator and at least one row.
    let markdown = reference();
    let sections: Vec<&str> = markdown.split("\n### ").skip(1).collect();
    assert_eq!(sections.len(), REPORT_MEMBERS.len(), "{markdown}");
    for (name, section) in REPORT_MEMBERS.iter().zip(sections) {
        let title = specs::render(name, &Vec::new()).title().to_string();
        assert!(
            section.starts_with(&format!("{title}\n")),
            "member `{name}` must render `{title}`, got:\n{section}"
        );
        let lines: Vec<&str> = section.lines().collect();
        assert!(lines[2].starts_with("| ") && lines[3].starts_with("|---"));
        assert!(
            lines.len() > 4 && lines[4].starts_with("| "),
            "member `{name}` has no rows:\n{section}"
        );
    }
}

#[test]
fn a_closed_stdout_ends_the_report_quietly() {
    // `full_report | head -n 1`: once the reader is gone the report stops
    // with status 0 and says nothing on stderr.
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let run = Command::new(env!("CARGO_BIN_EXE_full_report"))
        .args(CONFIG)
        .env_remove("FLIP_TELEMETRY")
        .stdout(writer)
        .output()
        .expect("full_report binary runs");
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(
        run.status.success() && stderr.is_empty(),
        "{}, stderr: {stderr}",
        run.status
    );
}

#[test]
fn a_cut_without_a_store_is_refused() {
    let out = full_report(&["--max-cells", "2"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--max-cells needs --store"), "{stderr}");
}

#[test]
fn a_failed_export_write_names_the_file_not_the_store() {
    let root = scratch("unwritable");
    let target = root.join("missing").join("report.md");
    let target = target.to_str().unwrap();
    let out = full_report(&["--export", target]);
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.starts_with(&format!("full_report: cannot write {target}: "))
            && !stderr.replace(target, "").contains("store"),
        "{stderr}"
    );
}
