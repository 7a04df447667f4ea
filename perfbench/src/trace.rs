//! In-memory span recording for the traced run.
//!
//! Spans are recorded around calls into each layer's public functions from
//! the benchmark's own code; nothing inside the crates is instrumented.
//! Engine phase timers (the `telemetry` recorders the engines already keep)
//! are imported as child spans of the call that produced them.  Spans stay
//! in memory until the run ends and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies one span within a run (0 is never used).
pub type SpanId = u64;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    /// The layer function, e.g. `registry.trial`.
    pub name: &'static str,
    /// A qualifier: the protocol, member or engine phase the call served.
    pub label: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Whether the span was imported from an engine telemetry recorder.
    /// Imported spans carry the phase's total time laid out from the
    /// parent's start, not the phase's real instants.
    pub imported: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span that has started and not yet ended.
#[must_use]
pub struct Open {
    id: SpanId,
    parent: Option<SpanId>,
    name: &'static str,
    label: String,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> SpanId {
        self.id
    }
}

/// Thread-safe span sink for one traced pass.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts under 500 years")
    }

    pub fn open(&self, parent: Option<SpanId>, name: &'static str, label: &str) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            label: label.to_string(),
            start_ns: self.now_ns(),
        }
    }

    /// Ends `open`, returning its id and start instant.
    pub fn close(&self, open: Open) -> (SpanId, u64) {
        let end_ns = self.now_ns();
        let (id, start_ns) = (open.id, open.start_ns);
        self.push(Span {
            id,
            parent: open.parent,
            name: open.name,
            label: open.label,
            start_ns,
            end_ns,
            imported: false,
        });
        (id, start_ns)
    }

    /// Runs `f` inside a span; `f` receives the span's id for its children.
    pub fn span<R>(
        &self,
        parent: Option<SpanId>,
        name: &'static str,
        label: &str,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let open = self.open(parent, name, label);
        let out = f(open.id());
        self.close(open);
        out
    }

    /// Imports engine phase totals as children of `parent`, laid end to end
    /// from `start_ns`.
    pub fn import(&self, parent: SpanId, start_ns: u64, phases: &[(&'static str, u64)]) {
        let mut at = start_ns;
        for &(phase, ns) in phases {
            if ns == 0 {
                continue;
            }
            self.push(Span {
                id: self.next.fetch_add(1, Ordering::Relaxed),
                parent: Some(parent),
                name: "engine.phase",
                label: phase.to_string(),
                start_ns: at,
                end_ns: at + ns,
                imported: true,
            });
            at += ns;
        }
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span sink lock").push(span);
    }

    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("span sink lock");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Total, self time and call count of one `(name, label)` pair.
#[derive(Debug, Default, Clone, Copy)]
pub struct Usage {
    pub total_ns: u64,
    pub self_ns: u64,
    pub count: u64,
}

/// Per-`(name, label)` usage.  A span's self time is its duration minus the
/// part of its interval its children cover (children on parallel threads may
/// overlap; their union counts once).
pub fn usage(spans: &[Span]) -> BTreeMap<(&'static str, String), Usage> {
    let mut children: BTreeMap<SpanId, Vec<(u64, u64)>> = BTreeMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            children
                .entry(parent)
                .or_default()
                .push((span.start_ns, span.end_ns));
        }
    }
    let mut table: BTreeMap<(&'static str, String), Usage> = BTreeMap::new();
    for span in spans {
        let covered = children
            .get_mut(&span.id)
            .map_or(0, |kids| covered_ns(kids, span.start_ns, span.end_ns));
        let entry = table.entry((span.name, span.label.clone())).or_default();
        entry.total_ns += span.duration_ns();
        entry.self_ns += span.duration_ns().saturating_sub(covered);
        entry.count += 1;
    }
    table
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Writes every span as one JSON line tagged with the workload id.
pub fn write_jsonl(path: &Path, workload: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"workload\":\"{workload}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"imported\":{}}}",
            s.id,
            s.parent.map_or_else(|| "null".to_string(), |p| p.to_string()),
            s.name,
            s.label,
            s.start_ns,
            s.end_ns,
            s.imported
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overlapping_children_count_once_toward_coverage() {
        let mut kids = vec![(10, 30), (20, 40), (50, 60), (95, 120)];
        assert_eq!(covered_ns(&mut kids, 0, 100), 30 + 10 + 5);
    }

    #[test]
    fn self_time_excludes_children() {
        let tracer = Tracer::new();
        tracer.span(None, "root", "", |root| {
            tracer.span(Some(root), "child", "", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        });
        let spans = tracer.into_spans();
        let table = usage(&spans);
        let root = table[&("root", String::new())];
        let child = table[&("child", String::new())];
        assert!(child.total_ns >= 5_000_000);
        assert_eq!(root.self_ns + child.total_ns, root.total_ns);
    }
}
