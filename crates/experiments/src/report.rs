//! Assembling experiment tables into a markdown report.
//!
//! The report's member list, title and preamble live here; the composed,
//! resumable `full_report` binary runs the members through the `sweeps`
//! orchestrator (in memory or against a store) and renders them with
//! [`crate::specs::render`].

use analysis::Table;

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{specs, ExperimentConfig};

    #[test]
    fn report_renders_title_preamble_and_tables() {
        let mut report = Report::new("demo").with_preamble("hello");
        let mut table = Table::new("t1", &["a"]);
        table.push_row(&["1"]);
        report.push(table);
        report.push(Table::new("t2", &["b"]));
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
