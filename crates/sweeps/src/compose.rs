//! Composed reports: several sweeps run and resumed as one unit.
//!
//! A [`ReportSpec`] is an ordered list of member [`SweepSpec`]s under one
//! name; a [`ReportStore`] is one directory holding a shared `report.json`
//! manifest plus one [`SweepStore`] per member under `members/<name>/`.
//! The [`ReportRunner`] executes members sequentially — each member fans its
//! cells out over the full thread budget, so sequencing costs no parallelism
//! — while one `max_cells` budget is shared across the whole composition
//! (the deterministic kill stand-in, exactly like a single sweep's).
//!
//! Resume is cross-member: a killed run re-opens the same store, skips every
//! persisted cell of every member (completed members are pure skips) and
//! continues mid-member from the first missing cell.  Because every member
//! record is a deterministic function of its hash-addressed cell spec, a
//! killed-and-resumed composed run renders byte-identical reports to an
//! uninterrupted one.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use crate::error::SweepError;
use crate::json::{parse, Json};
use crate::orchestrator::{SweepOutcome, SweepRunner};
use crate::registry::ProtocolRegistry;
use crate::runner::default_threads;
use crate::spec::{fnv1a, SweepSpec};
use crate::store::{atomic_write, SweepStore};

/// The report-store format version written to `report.json`.
pub const REPORT_FORMAT: u64 = 1;

/// An ordered composition of member sweeps run as one resumable unit.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSpec {
    /// The composition's name (the `report` builtin for the full report).
    pub name: String,
    /// The member sweeps, in presentation order.
    pub members: Vec<SweepSpec>,
}

impl ReportSpec {
    /// Builds a report spec, validating the member list.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Spec`] when the member list is empty, a member
    /// name is empty, collides with another member's, or contains characters
    /// unfit for a `members/<name>/` directory.
    pub fn new(name: &str, members: Vec<SweepSpec>) -> Result<Self, SweepError> {
        if members.is_empty() {
            return Err(SweepError::Spec(format!(
                "report `{name}` has no member sweeps"
            )));
        }
        let mut seen = BTreeSet::new();
        for member in &members {
            if member.name.is_empty()
                || !member
                    .name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
                || member.name.starts_with('.')
            {
                return Err(SweepError::Spec(format!(
                    "report member name `{}` is not a valid store directory name",
                    member.name
                )));
            }
            if !seen.insert(member.name.as_str()) {
                return Err(SweepError::Spec(format!(
                    "report `{name}` lists member `{}` twice",
                    member.name
                )));
            }
        }
        Ok(Self {
            name: name.to_string(),
            members,
        })
    }

    /// The report's content address: FNV-1a over the report name and every
    /// member's name and sweep hash, as 16 hex digits.  Any member edit
    /// changes the report hash, so a stale store is detected at the top
    /// level before any member store is touched.
    #[must_use]
    pub fn hash_hex(&self) -> String {
        let mut canonical = self.name.clone();
        for member in &self.members {
            canonical.push('\n');
            canonical.push_str(&member.name);
            canonical.push(' ');
            canonical.push_str(&member.hash_hex());
        }
        format!("{:016x}", fnv1a(canonical.as_bytes()))
    }

    /// The total cell count across every member grid.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Spec`] when a member fails to expand.
    pub fn total_cells(&self) -> Result<usize, SweepError> {
        let mut total = 0;
        for member in &self.members {
            total += member.expand()?.len();
        }
        Ok(total)
    }
}

/// A composed report's on-disk store: `report.json` plus member sub-stores.
///
/// ```text
/// out/
///   report.json          # {"format":1,"report_hash":"…","name":…,"members":[…]}
///   members/
///     e01/               # a full SweepStore (manifest + shards)
///     e02/
/// ```
#[derive(Debug)]
pub struct ReportStore {
    dir: PathBuf,
    report_hash: String,
}

impl ReportStore {
    /// Creates (or re-opens) the store for `spec` at `dir`.
    ///
    /// A fresh directory gets a manifest plus one member store per member;
    /// an existing one must carry the same report hash — pointing an edited
    /// report at an old store is an error, never silent reuse.  Each member
    /// store re-checks its own sweep hash on top.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Io`] on filesystem failures and
    /// [`SweepError::Store`] on a manifest mismatch.
    pub fn create(dir: &Path, spec: &ReportSpec) -> Result<Self, SweepError> {
        let report_hash = spec.hash_hex();
        let manifest_path = dir.join("report.json");
        if manifest_path.exists() {
            let manifest = read_report_manifest(&manifest_path)?;
            if manifest.report_hash != report_hash {
                return Err(SweepError::Store(format!(
                    "report store at {} holds report {}, but the given spec hashes to \
                     {report_hash}; use a fresh --store directory for an edited report",
                    dir.display(),
                    manifest.report_hash
                )));
            }
        } else {
            fs::create_dir_all(dir.join("members"))?;
            let manifest = Json::object(vec![
                ("format".into(), Json::UInt(REPORT_FORMAT)),
                ("report_hash".into(), Json::Str(report_hash.clone())),
                ("name".into(), Json::Str(spec.name.clone())),
                (
                    "members".into(),
                    Json::Array(
                        spec.members
                            .iter()
                            .map(|m| Json::Str(m.name.clone()))
                            .collect(),
                    ),
                ),
            ]);
            atomic_write(&manifest_path, manifest.to_string().as_bytes())?;
        }
        for member in &spec.members {
            SweepStore::create(&member_dir(dir, &member.name), member)?;
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            report_hash,
        })
    }

    /// Opens an existing report store, reconstructing the [`ReportSpec`]
    /// from the member manifests (what a composed `resume` runs from).
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Store`] when the directory has no valid report
    /// manifest, a member store is missing, or the member manifests no
    /// longer hash to the recorded report hash.
    pub fn open(dir: &Path) -> Result<(Self, ReportSpec), SweepError> {
        let manifest = read_report_manifest(&dir.join("report.json"))?;
        let mut members = Vec::with_capacity(manifest.member_names.len());
        for name in &manifest.member_names {
            let (_, member) = SweepStore::open(&member_dir(dir, name))?;
            if member.name != *name {
                return Err(SweepError::Store(format!(
                    "member store {} holds sweep `{}`, not `{name}`",
                    member_dir(dir, name).display(),
                    member.name
                )));
            }
            members.push(member);
        }
        let spec = ReportSpec::new(&manifest.name, members)?;
        if spec.hash_hex() != manifest.report_hash {
            return Err(SweepError::Store(
                "report.json report_hash does not match its member manifests".into(),
            ));
        }
        Ok((
            Self {
                dir: dir.to_path_buf(),
                report_hash: manifest.report_hash,
            },
            spec,
        ))
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The report hash this store is bound to.
    #[must_use]
    pub fn report_hash(&self) -> &str {
        &self.report_hash
    }

    /// The member's sub-store (created on first use, hash-checked always).
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Store`] when the existing member store holds a
    /// different sweep.
    pub fn member_store(&self, member: &SweepSpec) -> Result<SweepStore, SweepError> {
        SweepStore::create(&member_dir(&self.dir, &member.name), member)
    }
}

/// Whether `dir` is a composed report store (vs a single-sweep store).
#[must_use]
pub fn is_report_store(dir: &Path) -> bool {
    dir.join("report.json").is_file()
}

fn member_dir(dir: &Path, name: &str) -> PathBuf {
    dir.join("members").join(name)
}

struct ReportManifest {
    report_hash: String,
    name: String,
    member_names: Vec<String>,
}

fn read_report_manifest(path: &Path) -> Result<ReportManifest, SweepError> {
    let text = fs::read_to_string(path).map_err(|e| {
        SweepError::Store(format!(
            "{} is not a report store ({e}); create one with --store on a fresh directory",
            path.display()
        ))
    })?;
    let doc = parse(&text).map_err(|e| SweepError::Store(format!("report manifest: {e}")))?;
    let format = doc
        .get("format")
        .and_then(Json::as_u64)
        .ok_or_else(|| SweepError::Store("report manifest has no `format`".into()))?;
    if format != REPORT_FORMAT {
        return Err(SweepError::Store(format!(
            "report manifest format {format} is not the supported {REPORT_FORMAT}"
        )));
    }
    let report_hash = doc
        .get("report_hash")
        .and_then(Json::as_str)
        .ok_or_else(|| SweepError::Store("report manifest has no `report_hash`".into()))?
        .to_string();
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| SweepError::Store("report manifest has no `name`".into()))?
        .to_string();
    let member_names = doc
        .get("members")
        .and_then(Json::as_array)
        .ok_or_else(|| SweepError::Store("report manifest has no `members`".into()))?
        .iter()
        .map(|item| {
            item.as_str()
                .map(ToString::to_string)
                .ok_or_else(|| SweepError::Store("report manifest member is not a string".into()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ReportManifest {
        report_hash,
        name,
        member_names,
    })
}

/// One member's slice of a composed run.
#[derive(Debug)]
pub struct MemberOutcome {
    /// The member sweep's name.
    pub name: String,
    /// The member's sweep outcome (cells in grid order, counters).
    pub outcome: SweepOutcome,
}

/// Result of one [`ReportRunner::run`] call.
#[derive(Debug)]
pub struct ReportOutcome {
    /// Per-member outcomes, in member order.
    pub members: Vec<MemberOutcome>,
    /// Cells executed by this call, across all members.
    pub executed: usize,
    /// Cells skipped because member stores already held them.
    pub skipped: usize,
    /// Cells across every member grid.
    pub total: usize,
    /// Whether every member is now complete.
    pub completed: bool,
}

/// Orchestrates a composed report: member sequencing, one shared budget.
#[derive(Debug, Clone, Default)]
pub struct ReportRunner {
    threads: Option<usize>,
    max_cells: Option<usize>,
    telemetry: bool,
    progress: bool,
}

impl ReportRunner {
    /// A runner with the default thread budget (see [`SweepRunner::new`]).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides the total thread budget of every member run.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Stops after executing at most `max_cells` new cells across the whole
    /// composition — the budget drains member by member, so a cut can land
    /// mid-member exactly like a kill would.
    #[must_use]
    pub fn with_max_cells(mut self, max_cells: usize) -> Self {
        self.max_cells = Some(max_cells);
        self
    }

    /// Enables per-cell telemetry in every member run (see
    /// [`SweepRunner::with_telemetry`]).
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: bool) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Enables the live stderr progress stream: the per-cell lines of each
    /// member run plus one summary line per finished member.
    #[must_use]
    pub fn with_progress(mut self, progress: bool) -> Self {
        self.progress = progress;
        self
    }

    /// Runs `spec`'s members in order, skipping cells persisted in `store`,
    /// checkpointing each newly completed cell to its member sub-store.
    /// Pass `store = None` for a purely in-memory run (the default
    /// `full_report` invocation).
    ///
    /// Members past an exhausted `max_cells` budget execute nothing but
    /// still report their persisted/total counts, so the outcome always
    /// describes the whole composition.
    ///
    /// # Errors
    ///
    /// Returns the first member error hit; earlier members' completed cells
    /// remain persisted — a failed run resumes like a killed one.
    pub fn run(
        &self,
        spec: &ReportSpec,
        registry: &ProtocolRegistry,
        store: Option<&ReportStore>,
    ) -> Result<ReportOutcome, SweepError> {
        let threads = self.threads.unwrap_or_else(default_threads);
        let mut budget = self.max_cells;
        let mut members = Vec::with_capacity(spec.members.len());
        for member in &spec.members {
            let sub = match store {
                Some(store) => Some(store.member_store(member)?),
                None => None,
            };
            let mut runner = SweepRunner::new()
                .with_threads(threads)
                .with_telemetry(self.telemetry)
                .with_progress(self.progress);
            if let Some(limit) = budget {
                runner = runner.with_max_cells(limit);
            }
            let outcome = runner.run(member, registry, sub.as_ref())?;
            if let Some(remaining) = &mut budget {
                *remaining = remaining.saturating_sub(outcome.executed);
            }
            if self.progress {
                eprintln!(
                    "[report] member `{}`: {}/{} cells ({} executed, {} already persisted)",
                    member.name,
                    outcome.skipped + outcome.executed,
                    outcome.total,
                    outcome.executed,
                    outcome.skipped,
                );
            }
            members.push(MemberOutcome {
                name: member.name.clone(),
                outcome,
            });
        }
        let executed = members.iter().map(|m| m.outcome.executed).sum();
        let skipped = members.iter().map(|m| m.outcome.skipped).sum();
        let total = members.iter().map(|m| m.outcome.total).sum();
        let completed = members.iter().all(|m| m.outcome.completed);
        Ok(ReportOutcome {
            members,
            executed,
            skipped,
            total,
            completed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Axis;
    use flip_model::Backend;
    use std::collections::BTreeMap;

    fn member(name: &str, seed: u64, ns: &[f64]) -> SweepSpec {
        SweepSpec {
            name: name.into(),
            protocol: "rumor".into(),
            backend: Backend::Agents,
            trials: 2,
            base_seed: seed,
            point_base: 0,
            rounds: 100,
            faults: String::new(),
            defaults: BTreeMap::from([
                ("epsilon".to_string(), 0.25),
                ("informed".to_string(), 4.0),
            ]),
            axes: vec![Axis {
                key: "n".into(),
                values: ns.to_vec(),
            }],
        }
    }

    fn demo_report() -> ReportSpec {
        ReportSpec::new(
            "demo-report",
            vec![
                member("alpha", 7, &[60.0, 90.0]),
                member("beta", 11, &[70.0, 100.0, 130.0]),
            ],
        )
        .unwrap()
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("report-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn degenerate_member_lists_are_rejected() {
        assert!(ReportSpec::new("empty", vec![]).is_err());
        let twice = ReportSpec::new(
            "dup",
            vec![member("same", 1, &[60.0]), member("same", 2, &[60.0])],
        );
        assert!(twice.is_err());
        let traversal = ReportSpec::new("evil", vec![member("../up", 1, &[60.0])]);
        assert!(traversal.is_err());
    }

    #[test]
    fn report_hash_tracks_every_member() {
        let base = demo_report();
        assert_eq!(base.hash_hex(), demo_report().hash_hex());
        let mut edited = demo_report();
        edited.members[1].trials = 9;
        assert_ne!(base.hash_hex(), edited.hash_hex());
        assert_eq!(base.total_cells().unwrap(), 5);
    }

    #[test]
    fn in_memory_composed_run_covers_every_member() {
        let outcome = ReportRunner::new()
            .with_threads(2)
            .run(&demo_report(), &ProtocolRegistry::builtin(), None)
            .unwrap();
        assert!(outcome.completed);
        assert_eq!(outcome.total, 5);
        assert_eq!(outcome.executed, 5);
        assert_eq!(outcome.members.len(), 2);
        assert_eq!(outcome.members[0].outcome.cells.len(), 2);
        assert_eq!(outcome.members[1].outcome.cells.len(), 3);
    }

    #[test]
    fn shared_budget_cuts_mid_member_and_resume_completes_identically() {
        let dir = temp_dir("budget");
        let spec = demo_report();
        let registry = ProtocolRegistry::builtin();

        let reference = ReportRunner::new()
            .with_threads(1)
            .run(&spec, &registry, None)
            .unwrap();

        // 3 cells of budget: all of `alpha` (2) plus one cell of `beta`.
        let store = ReportStore::create(&dir, &spec).unwrap();
        let cut = ReportRunner::new()
            .with_threads(1)
            .with_max_cells(3)
            .run(&spec, &registry, Some(&store))
            .unwrap();
        assert!(!cut.completed);
        assert_eq!(cut.executed, 3);
        assert!(cut.members[0].outcome.completed);
        assert_eq!(cut.members[1].outcome.executed, 1);

        // Resume from a fresh open: the store alone reconstructs the spec.
        let (reopened, recovered) = ReportStore::open(&dir).unwrap();
        assert_eq!(recovered, spec);
        let resumed = ReportRunner::new()
            .with_threads(3)
            .run(&recovered, &registry, Some(&reopened))
            .unwrap();
        assert!(resumed.completed);
        assert_eq!(resumed.executed, 2);
        assert_eq!(resumed.skipped, 3);
        for (a, b) in reference.members.iter().zip(&resumed.members) {
            assert_eq!(a.outcome.cells, b.outcome.cells, "member `{}`", a.name);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_drained_budget_still_reports_unreached_members() {
        let outcome = ReportRunner::new()
            .with_threads(1)
            .with_max_cells(1)
            .run(&demo_report(), &ProtocolRegistry::builtin(), None)
            .unwrap();
        assert!(!outcome.completed);
        assert_eq!(outcome.executed, 1);
        assert_eq!(outcome.total, 5, "unreached members still count");
        assert_eq!(outcome.members[1].outcome.executed, 0);
        assert_eq!(outcome.members[1].outcome.total, 3);
    }

    #[test]
    fn edited_reports_are_rejected_by_an_existing_store() {
        let dir = temp_dir("mismatch");
        let spec = demo_report();
        ReportStore::create(&dir, &spec).unwrap();
        assert!(is_report_store(&dir));
        let mut edited = demo_report();
        edited.members[0].base_seed = 999;
        let err = ReportStore::create(&dir, &edited).unwrap_err();
        assert!(err.to_string().contains("fresh --store"), "{err}");
        // The original still opens and re-creates fine.
        assert!(ReportStore::create(&dir, &spec).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn opening_a_non_report_store_fails_with_guidance() {
        let dir = temp_dir("nonstore");
        fs::create_dir_all(&dir).unwrap();
        assert!(!is_report_store(&dir));
        let err = ReportStore::open(&dir).unwrap_err();
        assert!(err.to_string().contains("not a report store"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
