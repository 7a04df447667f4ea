//! Assembling experiment tables into a markdown report.
//!
//! The report's member list, title and preamble live here so the in-memory
//! [`full_report`] and the composed, resumable `full_report` binary (which
//! runs the same members through the `sweeps` store) render byte-identical
//! markdown from the same definitions.

use analysis::Table;

use crate::{specs, ExperimentConfig};

/// The builtin sweeps assembled into the full report, in presentation order:
/// every quantitative claim of the paper, E1–E12.
pub const REPORT_MEMBERS: [&str; 13] = [
    "e01", "e02", "e03", "e04", "e05", "e06", "e07a", "e07b", "e08", "e09", "e10", "e11", "e12",
];

/// The full report's document title.
pub const REPORT_TITLE: &str = "Breathe before Speaking — experiment report";

/// The full report's preamble paragraph.
pub const REPORT_PREAMBLE: &str =
    "Measured reproductions of every quantitative claim of the paper; see the paper-section \
     index in docs/ARCHITECTURE.md for the code behind each experiment.";

/// A named collection of result tables rendered as one markdown document.
#[derive(Debug, Clone, Default)]
pub struct Report {
    title: String,
    preamble: String,
    tables: Vec<Table>,
}

impl Report {
    /// Creates an empty report.
    #[must_use]
    pub fn new(title: &str) -> Self {
        Self {
            title: title.to_string(),
            preamble: String::new(),
            tables: Vec::new(),
        }
    }

    /// Sets free-form text shown between the title and the tables.
    #[must_use]
    pub fn with_preamble(mut self, preamble: &str) -> Self {
        self.preamble = preamble.to_string();
        self
    }

    /// Adds a table to the report.
    pub fn push(&mut self, table: Table) {
        self.tables.push(table);
    }

    /// Adds several tables to the report.
    pub fn extend<I: IntoIterator<Item = Table>>(&mut self, tables: I) {
        self.tables.extend(tables);
    }

    /// The tables collected so far.
    #[must_use]
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Renders the whole report as markdown.
    #[must_use]
    pub fn to_markdown(&self) -> String {
        let mut out = format!("# {}\n\n", self.title);
        if !self.preamble.is_empty() {
            out.push_str(&self.preamble);
            out.push_str("\n\n");
        }
        for table in &self.tables {
            out.push_str(&table.to_markdown());
            out.push('\n');
        }
        out
    }
}

/// Runs every experiment (E1–E12) in memory and assembles the full report.
///
/// Each member is the registry-backed builtin sweep rendered through
/// [`specs::render`] — the same path the persistent, resumable composed run
/// uses, so both produce identical markdown for the same config.  With
/// [`ExperimentConfig::quick`] this takes a few minutes on a laptop; the
/// full preset runs the paper-scale sizes.
#[must_use]
pub fn full_report(cfg: &ExperimentConfig) -> Report {
    let mut report = Report::new(REPORT_TITLE).with_preamble(REPORT_PREAMBLE);
    for name in REPORT_MEMBERS {
        let spec = specs::builtin(name, cfg).expect("report members are builtin sweeps");
        report.push(specs::render(name, &specs::run_in_memory(&spec, cfg)));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_renders_title_preamble_and_tables() {
        let mut report = Report::new("demo").with_preamble("hello");
        let mut table = Table::new("t1", &["a"]);
        table.push_row(&["1"]);
        report.push(table);
        report.extend(vec![Table::new("t2", &["b"])]);
        assert_eq!(report.tables().len(), 2);
        let md = report.to_markdown();
        assert!(md.starts_with("# demo"));
        assert!(md.contains("hello"));
        assert!(md.contains("### t1"));
        assert!(md.contains("### t2"));
    }

    #[test]
    fn report_members_are_all_builtin() {
        let cfg = ExperimentConfig::quick();
        for name in REPORT_MEMBERS {
            assert!(
                specs::builtin(name, &cfg).is_some(),
                "report member `{name}` is not a builtin sweep"
            );
        }
    }
}
