//! The resumable result store: a manifest plus JSONL shards.
//!
//! Layout of a store directory:
//!
//! ```text
//! out/
//!   manifest.json          # {"format":1,"sweep_hash":"…","spec":{…}}
//!   shards/
//!     shard-0001-00.jsonl  # one CellRecord per line, appended + flushed
//!     shard-0001-01.jsonl  #   as cells complete (generation 1, worker 1)
//!     shard-0002-00.jsonl  # a resumed run appends a new generation
//!   telemetry/             # with telemetry on, one CellTelemetry line per
//!     telemetry-0001-00.jsonl  # cell, written after the cell's result line
//! ```
//!
//! Each worker thread owns one shard file per run *generation*, so no line is
//! ever written concurrently and no lock guards the hot path.  A completed
//! cell is checkpointed by appending its record and flushing; a run killed
//! mid-write leaves at most a torn **final** line per shard, which the loader
//! drops (the cell simply re-runs on resume).  Because every record is a
//! deterministic function of its hash-addressed spec, re-running loses
//! nothing and the final export is byte-identical to an uninterrupted run.
//!
//! # Loading on lanes
//!
//! Result shards and telemetry shards go through one loader.  It reads the
//! `*.jsonl` files in sorted name order, splits their lines into one
//! contiguous share per lane of the thread budget (cut into runs at file
//! boundaries, so a single-shard store also uses every lane), decodes the
//! shares on scoped threads — the calling thread is lane 0, so a budget of
//! one spawns nothing — and merges them in file and line order.  The result
//! is the sequential loader's, whatever the lane count: the same map (a
//! hash read twice keeps the later read), the same torn-final-line rule per
//! file, and the same first error, reported as `path:line`.  The exports
//! format on the same fan-out (`on_lanes`).

use std::collections::BTreeMap;
use std::fmt::Display;
use std::fs;
use std::io::Write;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};

use crate::aggregate::CellRecord;
use crate::error::SweepError;
use crate::json::{parse, Json};
use crate::observe::CellTelemetry;
use crate::runner::{default_threads, on_lanes};
use crate::spec::SweepSpec;

/// The store format version written to manifests.
pub const STORE_FORMAT: u64 = 1;

/// A sweep's on-disk result store.
#[derive(Debug)]
pub struct SweepStore {
    dir: PathBuf,
    sweep_hash: String,
}

impl SweepStore {
    /// Creates (or re-opens) the store for `spec` at `dir`.
    ///
    /// A fresh directory gets a manifest; an existing one must carry the
    /// same sweep hash — pointing a different spec at an existing store is
    /// an error, never silent reuse.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Io`] on filesystem failures and
    /// [`SweepError::Store`] on a manifest/spec mismatch.
    pub fn create(dir: &Path, spec: &SweepSpec) -> Result<Self, SweepError> {
        fs::create_dir_all(dir.join("shards"))?;
        let manifest_path = dir.join("manifest.json");
        let sweep_hash = spec.hash_hex();
        if manifest_path.exists() {
            let (existing_hash, _) = read_manifest(&manifest_path)?;
            if existing_hash != sweep_hash {
                return Err(SweepError::Store(format!(
                    "store at {} holds sweep {existing_hash}, but the given spec hashes to \
                     {sweep_hash}; use a fresh --out directory for an edited spec",
                    dir.display()
                )));
            }
        } else {
            let manifest = Json::object(vec![
                ("format".into(), Json::UInt(STORE_FORMAT)),
                ("sweep_hash".into(), Json::Str(sweep_hash.clone())),
                ("spec".into(), spec.to_json()),
            ]);
            atomic_write(&manifest_path, manifest.to_string().as_bytes())?;
        }
        Ok(Self {
            dir: dir.to_path_buf(),
            sweep_hash,
        })
    }

    /// Opens an existing store and returns it with the spec its manifest
    /// recorded (what `sweep resume` and `sweep export` run from).
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Store`] when the directory has no valid
    /// manifest.
    pub fn open(dir: &Path) -> Result<(Self, SweepSpec), SweepError> {
        let (sweep_hash, spec) = read_manifest(&dir.join("manifest.json"))?;
        Ok((
            Self {
                dir: dir.to_path_buf(),
                sweep_hash,
            },
            spec,
        ))
    }

    /// The store directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sweep hash this store is bound to.
    #[must_use]
    pub fn sweep_hash(&self) -> &str {
        &self.sweep_hash
    }

    /// Loads every persisted cell record, keyed by cell hash.
    ///
    /// Shards are read in sorted filename order and decoded on
    /// [`default_threads`] lanes (the `FLIP_THREADS` override or the machine
    /// width, the budget [`SweepRunner::new`](crate::SweepRunner::new)
    /// starts from); the lanes' records merge in file and line order, so
    /// the result does not depend on the lane count.  A record whose hash
    /// appears twice keeps the later read (identical by construction).  A
    /// torn **final** line — the signature of a killed run — is dropped;
    /// a malformed line anywhere else is corruption and fails loudly, and
    /// the first such line in file and line order is the one reported.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Io`] on read failures, [`SweepError::Store`]
    /// on mid-file corruption.
    pub fn load_cells(&self) -> Result<BTreeMap<String, CellRecord>, SweepError> {
        self.load_cells_on(default_threads())
    }

    /// [`Self::load_cells`] on a budget of `threads` lanes (at least one;
    /// one decodes on the calling thread).
    pub(crate) fn load_cells_on(
        &self,
        threads: usize,
    ) -> Result<BTreeMap<String, CellRecord>, SweepError> {
        load_shards(
            &self.dir.join(CellRecord::DIR),
            threads,
            CellRecord::from_json_line,
            |record| &record.hash,
        )
    }

    /// Opens one result shard writer per worker for a new run generation.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Io`] when the shards directory is unreadable.
    pub fn open_shards(&self, workers: usize) -> Result<Vec<ShardWriter<CellRecord>>, SweepError> {
        self.open_writers(workers)
    }

    /// Opens one telemetry shard writer per worker for a new run generation.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Io`] when the telemetry directory cannot be
    /// created or scanned.
    pub fn open_telemetry_shards(
        &self,
        workers: usize,
    ) -> Result<Vec<ShardWriter<CellTelemetry>>, SweepError> {
        self.open_writers(workers)
    }

    /// The one opener: one writer per worker under `R`'s directory, named
    /// for the generation after the highest one already there.
    fn open_writers<R: ShardRecord>(
        &self,
        workers: usize,
    ) -> Result<Vec<ShardWriter<R>>, SweepError> {
        let dir = self.dir.join(R::DIR);
        fs::create_dir_all(&dir)?;
        let generation = next_generation(&dir, R::PREFIX)?;
        Ok((0..workers)
            .map(|worker| ShardWriter {
                path: dir.join(format!("{}{generation:04}-{worker:02}.jsonl", R::PREFIX)),
                file: None,
                line: String::new(),
                record: PhantomData,
            })
            .collect())
    }

    /// Loads every persisted per-cell telemetry record, keyed by cell hash.
    ///
    /// Same loader and tolerance contract as [`Self::load_cells`]: shards
    /// decode on [`default_threads`] lanes, a torn final line is dropped
    /// (the kill signature), mid-file corruption fails loudly, and a store
    /// that never ran with telemetry yields an empty map.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Io`] on read failures, [`SweepError::Store`]
    /// on mid-file corruption.
    pub fn load_telemetry(&self) -> Result<BTreeMap<String, CellTelemetry>, SweepError> {
        let telemetry_dir = self.dir.join(CellTelemetry::DIR);
        if !telemetry_dir.is_dir() {
            return Ok(BTreeMap::new());
        }
        load_shards(
            &telemetry_dir,
            default_threads(),
            CellTelemetry::from_json_line,
            |record| &record.hash,
        )
    }
}

/// A contiguous run of one shard file's lines.
struct Run {
    /// Index of the file in the sorted shard list.
    file: usize,
    /// Index of the run's first line in its file.
    first: usize,
    /// Lines in the run.
    len: usize,
}

/// The first undecodable line a lane met: file index, line index, error.
type LaneError<E> = (usize, usize, E);

/// Loads every `*.jsonl` file in `dir`, keyed by `key`: the one shard
/// loader behind [`SweepStore::load_cells`] and
/// [`SweepStore::load_telemetry`].
///
/// The files' lines, in sorted file order, are cut into one contiguous
/// share per lane (`threads` lanes at most, one per line at most); a share
/// is a list of [`Run`]s, each inside one file.  Lane 0 decodes on the
/// calling thread and the others on scoped threads.  Each lane stops at its
/// first error, so the first lane (in share order) that failed holds the
/// first error in file and line order.  The merge walks the lanes in order
/// and inserts every record, so a hash read twice keeps the later read.
/// Blank lines are skipped, and a file's last line may fail to decode only
/// when the file does not end in a newline (a torn write).  A file that
/// cannot be read fails the load after the decode errors of the files
/// before it, in the order a file-by-file loader would meet them.
fn load_shards<T: Send, E: Display + Send>(
    dir: &Path,
    threads: usize,
    decode: impl Fn(&str) -> Result<T, E> + Sync,
    key: impl Fn(&T) -> &str,
) -> Result<BTreeMap<String, T>, SweepError> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|entry| entry.path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    paths.sort();
    let mut contents = Vec::with_capacity(paths.len());
    let mut read_error = None;
    for path in &paths {
        match fs::read_to_string(path) {
            Ok(content) => contents.push(content),
            Err(err) => {
                read_error = Some(err);
                break;
            }
        }
    }
    let lines: Vec<Vec<&str>> = contents.iter().map(|c| c.lines().collect()).collect();

    let total: usize = lines.iter().map(Vec::len).sum();
    let lanes = threads.min(total).max(1);
    let mut shares: Vec<Vec<Run>> = Vec::with_capacity(lanes);
    let (mut file, mut line) = (0, 0);
    for lane in 0..lanes {
        let mut quota = (lane + 1) * total / lanes - lane * total / lanes;
        let mut runs = Vec::new();
        while quota > 0 {
            while line == lines[file].len() {
                file += 1;
                line = 0;
            }
            let len = quota.min(lines[file].len() - line);
            runs.push(Run {
                file,
                first: line,
                len,
            });
            line += len;
            quota -= len;
        }
        shares.push(runs);
    }

    let decode_share = |runs: &[Run]| -> Result<Vec<T>, LaneError<E>> {
        let mut records = Vec::with_capacity(runs.iter().map(|run| run.len).sum());
        for run in runs {
            let file_lines = &lines[run.file];
            let may_tear = !contents[run.file].ends_with('\n');
            for (i, text) in file_lines.iter().enumerate().skip(run.first).take(run.len) {
                if text.trim().is_empty() {
                    continue;
                }
                match decode(text) {
                    Ok(record) => records.push(record),
                    // Torn final line from a killed writer: the cell never
                    // checkpointed, so resuming re-runs it.
                    Err(_) if may_tear && i + 1 == file_lines.len() => {}
                    Err(err) => return Err((run.file, i, err)),
                }
            }
        }
        Ok(records)
    };
    let mut cells = BTreeMap::new();
    for share in on_lanes(shares, |runs| decode_share(&runs)) {
        match share {
            Ok(records) => {
                for record in records {
                    cells.insert(key(&record).to_owned(), record);
                }
            }
            Err((file, i, err)) => {
                return Err(SweepError::Store(format!(
                    "{}:{}: {err}",
                    paths[file].display(),
                    i + 1
                )));
            }
        }
    }
    match read_error {
        Some(err) => Err(err.into()),
        None => Ok(cells),
    }
}

/// One past the highest run generation among `prefix`-named files in `dir`.
fn next_generation(dir: &Path, prefix: &str) -> Result<u64, SweepError> {
    let mut generation = 0u64;
    for entry in fs::read_dir(dir)? {
        let name = entry?.file_name();
        if let Some(gen) = name
            .to_str()
            .and_then(|s| s.strip_prefix(prefix))
            .and_then(|s| s.split('-').next())
            .and_then(|s| s.parse::<u64>().ok())
        {
            generation = generation.max(gen);
        }
    }
    Ok(generation + 1)
}

/// A record kind with shards of its own.
///
/// Telemetry lives in its own `telemetry/` directory: [`SweepStore::load_cells`]
/// treats every `*.jsonl` under `shards/` as cell records, so profile data
/// must never land there.
pub trait ShardRecord {
    /// The store subdirectory holding this kind's shards.
    const DIR: &'static str;
    /// The file-name prefix of this kind's shards.
    const PREFIX: &'static str;
    /// Appends the record's JSON line, without its newline, to `line`.
    fn write_line(&self, line: &mut String);
}

impl ShardRecord for CellRecord {
    const DIR: &'static str = "shards";
    const PREFIX: &'static str = "shard-";
    fn write_line(&self, line: &mut String) {
        self.write_json(line);
    }
}

impl ShardRecord for CellTelemetry {
    const DIR: &'static str = "telemetry";
    const PREFIX: &'static str = "telemetry-";
    fn write_line(&self, line: &mut String) {
        line.push_str(&self.to_json_line());
    }
}

/// An append-only writer for one shard file of `R` records.
///
/// The file is created lazily on the first append, so workers that never
/// receive a cell leave no empty shard behind.  Each record is serialized
/// into one reused line buffer and handed to the file in a single write.
#[derive(Debug)]
pub struct ShardWriter<R> {
    path: PathBuf,
    file: Option<fs::File>,
    line: String,
    record: PhantomData<fn(&R)>,
}

impl<R: ShardRecord> ShardWriter<R> {
    /// Appends one record's line to the file in a single write, with
    /// nothing held back in a user-space buffer — the checkpoint that makes
    /// a kill at any later instant lose at most the in-flight cells.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Io`] on write failures.
    pub fn append(&mut self, record: &R) -> Result<(), SweepError> {
        if self.file.is_none() {
            self.file = Some(
                fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&self.path)?,
            );
        }
        let file = self.file.as_mut().expect("just created");
        self.line.clear();
        record.write_line(&mut self.line);
        self.line.push('\n');
        file.write_all(self.line.as_bytes())?;
        Ok(())
    }

    /// The shard's path (for diagnostics).
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }
}

fn read_manifest(path: &Path) -> Result<(String, SweepSpec), SweepError> {
    let text = fs::read_to_string(path).map_err(|e| {
        SweepError::Store(format!(
            "{} is not a sweep store ({e}); run `sweep run` first",
            path.display()
        ))
    })?;
    let doc = parse(&text).map_err(|e| SweepError::Store(format!("manifest: {e}")))?;
    let format = doc
        .get("format")
        .and_then(Json::as_u64)
        .ok_or_else(|| SweepError::Store("manifest has no `format`".into()))?;
    if format != STORE_FORMAT {
        return Err(SweepError::Store(format!(
            "manifest format {format} is not the supported {STORE_FORMAT}"
        )));
    }
    let hash = doc
        .get("sweep_hash")
        .and_then(Json::as_str)
        .ok_or_else(|| SweepError::Store("manifest has no `sweep_hash`".into()))?
        .to_string();
    let spec = SweepSpec::from_json(
        doc.get("spec")
            .ok_or_else(|| SweepError::Store("manifest has no `spec`".into()))?,
    )?;
    if spec.hash_hex() != hash {
        return Err(SweepError::Store(
            "manifest sweep_hash does not match its own spec".into(),
        ));
    }
    Ok((hash, spec))
}

/// Writes via a temp file + rename so a kill never leaves a half manifest.
pub(crate) fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), SweepError> {
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Axis, SweepSpec};
    use flip_model::Backend;
    use std::collections::BTreeMap as Map;

    fn demo_spec() -> SweepSpec {
        SweepSpec {
            name: "store-demo".into(),
            protocol: "rumor".into(),
            backend: Backend::Agents,
            trials: 2,
            base_seed: 3,
            point_base: 0,
            rounds: 100,
            faults: String::new(),
            defaults: Map::from([("epsilon".to_string(), 0.2), ("informed".to_string(), 4.0)]),
            axes: vec![Axis {
                key: "n".into(),
                values: vec![64.0, 128.0],
            }],
        }
    }

    fn demo_record(hash: &str, point: u64) -> CellRecord {
        let trials = vec![vec![("x", 1.0)], vec![("x", 3.0)]];
        CellRecord::from_trials(hash.to_string(), point, &trials)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("sweep-store-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn create_open_and_reload_round_trip() {
        let dir = temp_dir("roundtrip");
        let spec = demo_spec();
        let store = SweepStore::create(&dir, &spec).unwrap();
        assert!(store.load_cells().unwrap().is_empty());

        let mut shards = store.open_shards(2).unwrap();
        shards[0].append(&demo_record("aaaa", 0)).unwrap();
        shards[1].append(&demo_record("bbbb", 1)).unwrap();

        let (reopened, stored_spec) = SweepStore::open(&dir).unwrap();
        assert_eq!(stored_spec, spec);
        assert_eq!(reopened.sweep_hash(), spec.hash_hex());
        let cells = reopened.load_cells().unwrap();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells["aaaa"].point, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_generations_never_collide() {
        let dir = temp_dir("generations");
        let store = SweepStore::create(&dir, &demo_spec()).unwrap();
        let mut first = store.open_shards(1).unwrap();
        first[0].append(&demo_record("aaaa", 0)).unwrap();
        let mut second = store.open_shards(1).unwrap();
        assert_ne!(first[0].path(), second[0].path());
        second[0].append(&demo_record("bbbb", 1)).unwrap();
        assert_eq!(store.load_cells().unwrap().len(), 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_lines_are_dropped_but_mid_file_corruption_fails() {
        let dir = temp_dir("torn");
        let store = SweepStore::create(&dir, &demo_spec()).unwrap();
        let mut shards = store.open_shards(1).unwrap();
        shards[0].append(&demo_record("aaaa", 0)).unwrap();
        shards[0].append(&demo_record("bbbb", 1)).unwrap();

        // Simulate a kill mid-write: truncate the shard inside the last line.
        let path = shards[0].path().to_path_buf();
        drop(shards);
        let content = fs::read_to_string(&path).unwrap();
        let cut = content.len() - 20;
        fs::write(&path, &content[..cut]).unwrap();
        let cells = store.load_cells().unwrap();
        assert_eq!(cells.len(), 1, "torn cell must be treated as not-run");
        assert!(cells.contains_key("aaaa"));

        // Corruption before the end is a hard error.
        fs::write(&path, "garbage\n{\"also\":\"bad\"}\n").unwrap();
        assert!(store.load_cells().is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A sequential reference loader: file by file, line by line, on the
    /// calling thread.
    fn load_sequentially(dir: &Path) -> Result<BTreeMap<String, CellRecord>, String> {
        let mut cells = BTreeMap::new();
        let mut paths: Vec<PathBuf> = fs::read_dir(dir.join("shards"))
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .filter(|p| p.extension().is_some_and(|ext| ext == "jsonl"))
            .collect();
        paths.sort();
        for path in paths {
            let content = fs::read_to_string(&path).unwrap();
            let lines: Vec<&str> = content.lines().collect();
            for (i, line) in lines.iter().enumerate() {
                if line.trim().is_empty() {
                    continue;
                }
                match CellRecord::from_json_line(line) {
                    Ok(record) => {
                        cells.insert(record.hash.clone(), record);
                    }
                    Err(_) if i + 1 == lines.len() && !content.ends_with('\n') => {}
                    Err(err) => {
                        let message = format!("{}:{}: {err}", path.display(), i + 1);
                        return Err(SweepError::Store(message).to_string());
                    }
                }
            }
        }
        Ok(cells)
    }

    /// A store whose shards directory holds exactly `shards` (name, lines).
    fn store_with_shards(dir: &Path, shards: &[(String, Vec<String>)]) -> SweepStore {
        let _ = fs::remove_dir_all(dir);
        let store = SweepStore::create(dir, &demo_spec()).unwrap();
        for (name, lines) in shards {
            fs::write(dir.join("shards").join(name), lines.concat()).unwrap();
        }
        store
    }

    /// Loads `store` at 1, 2, 3 and 8 lanes and checks each result against
    /// the sequential loader's; returns that result.
    fn load_at_every_width(store: &SweepStore) -> Result<BTreeMap<String, CellRecord>, String> {
        let reference = load_sequentially(store.dir());
        for lanes in [1, 2, 3, 8] {
            let loaded = store.load_cells_on(lanes).map_err(|e| e.to_string());
            assert_eq!(loaded, reference, "{lanes} lanes");
        }
        reference
    }

    /// Shard layouts: three files of 7, 1 and 12 lines (plus a file that is
    /// not a shard), and a single file of 20 lines.  Hashes repeat across
    /// and within files with different points, so the later read shows.
    fn layouts() -> Vec<Vec<(String, Vec<String>)>> {
        let line = |i: u64| {
            format!(
                "{}\n",
                demo_record(&format!("cell-{}", i % 13), i).to_json_line()
            )
        };
        let file = |name: &str, points: std::ops::Range<u64>| {
            (name.to_string(), points.map(line).collect::<Vec<_>>())
        };
        vec![
            vec![
                file("shard-0001-00.jsonl", 0..7),
                file("shard-0001-01.jsonl", 7..8),
                file("shard-0002-00.jsonl", 8..20),
                ("notes.txt".to_string(), vec!["not a shard\n".to_string()]),
            ],
            vec![file("shard-0001-00.jsonl", 0..20)],
        ]
    }

    #[test]
    fn lane_loads_match_the_sequential_loader() {
        let dir = temp_dir("lanes");
        for shards in layouts() {
            let store = store_with_shards(&dir, &shards);
            let cells = load_at_every_width(&store).unwrap();
            assert_eq!(cells.len(), 13);
            // The later read wins: the last point of each hash.
            assert_eq!(cells["cell-0"].point, 13);
            assert_eq!(cells["cell-6"].point, 19);
            assert_eq!(cells["cell-7"].point, 7);

            // Blank lines are skipped.
            let mut spaced = shards.clone();
            spaced[0].1.insert(2, " \n".to_string());
            spaced[0].1.push("\n".to_string());
            let store = store_with_shards(&dir, &spaced);
            assert_eq!(load_at_every_width(&store).unwrap(), cells);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lane_loads_drop_every_torn_final_line() {
        let dir = temp_dir("lanes-torn");
        for mut shards in layouts() {
            // What survives: every shard line but the last, later reads
            // winning.
            let mut kept = BTreeMap::new();
            for (name, lines) in &mut shards {
                if name.ends_with(".jsonl") {
                    for line in &lines[..lines.len() - 1] {
                        let record = CellRecord::from_json_line(line.trim_end()).unwrap();
                        kept.insert(record.hash.clone(), record);
                    }
                    let last = lines.last_mut().unwrap();
                    last.truncate(last.len() / 2);
                }
            }
            let store = store_with_shards(&dir, &shards);
            assert_eq!(load_at_every_width(&store).unwrap(), kept);
        }

        // A final line without its newline that still decodes is kept.
        let mut whole = layouts().remove(1);
        whole[0].1.last_mut().unwrap().pop();
        let store = store_with_shards(&dir, &whole);
        assert_eq!(load_at_every_width(&store).unwrap().len(), 13);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lane_loads_report_the_first_corrupt_line() {
        let dir = temp_dir("lanes-corrupt");
        for mut shards in layouts() {
            // Corrupt a middle line of the first shard and, when there is
            // one, of the last; the single shard gets two corrupt lines.
            let last = if shards.len() > 1 { 2 } else { 0 };
            shards[0].1[3] = "{\"cell\":\n".to_string();
            shards[last].1[9] = "garbage\n".to_string();
            let store = store_with_shards(&dir, &shards);
            let err = load_at_every_width(&store).unwrap_err();
            let first = store.dir().join("shards").join(&shards[0].0);
            assert!(err.contains(&format!("{}:4: ", first.display())), "{err}");
        }

        // A bad final line is torn only when its file lacks the closing
        // newline; with the newline it is corruption, in any shard.
        for mut shards in layouts() {
            let last = shards.len().min(3) - 1;
            let lines = &mut shards[last].1;
            let at = lines.len();
            lines[at - 1] = "{\"cell\":\"x\"}\n".to_string();
            let store = store_with_shards(&dir, &shards);
            let err = load_at_every_width(&store).unwrap_err();
            let path = store.dir().join("shards").join(&shards[last].0);
            assert!(err.contains(&format!("{}:{at}: ", path.display())), "{err}");
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn telemetry_shards_live_beside_results_and_tolerate_kills() {
        use telemetry::{Phase, Recorder};

        let dir = temp_dir("telemetry");
        let store = SweepStore::create(&dir, &demo_spec()).unwrap();
        assert!(store.load_telemetry().unwrap().is_empty(), "no dir yet");

        let mut recorder = Recorder::new();
        recorder.record_phase(Phase::ProtocolStep, 1_000);
        let record = |hash: &str, point| CellTelemetry {
            hash: hash.into(),
            point,
            worker: 0,
            trials: 2,
            elapsed_ns: 5_000,
            recorder: recorder.clone(),
        };
        let mut shards = store.open_telemetry_shards(1).unwrap();
        shards[0].append(&record("aaaa", 0)).unwrap();
        shards[0].append(&record("bbbb", 1)).unwrap();
        let path = shards[0].path().to_path_buf();
        drop(shards);

        // The result loader must never see telemetry lines.
        assert!(store.load_cells().unwrap().is_empty());
        assert_eq!(store.load_telemetry().unwrap().len(), 2);

        // A kill mid-write tears the final line; the loader drops it.
        let content = fs::read_to_string(&path).unwrap();
        fs::write(&path, &content[..content.len() - 15]).unwrap();
        let loaded = store.load_telemetry().unwrap();
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded["aaaa"].recorder, recorder);

        // Resumed generations get fresh file names.
        let resumed = store.open_telemetry_shards(1).unwrap();
        assert_ne!(resumed[0].path(), path);

        // Mid-file corruption is a hard error.
        fs::write(&path, "garbage\n{\"also\":\"bad\"}\n").unwrap();
        assert!(store.load_telemetry().is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_specs_are_rejected() {
        let dir = temp_dir("mismatch");
        SweepStore::create(&dir, &demo_spec()).unwrap();
        let mut edited = demo_spec();
        edited.trials = 9;
        let err = SweepStore::create(&dir, &edited).unwrap_err();
        assert!(err.to_string().contains("fresh --out"), "{err}");
        // The original spec still opens fine.
        assert!(SweepStore::create(&dir, &demo_spec()).is_ok());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn opening_a_non_store_fails_with_guidance() {
        let dir = temp_dir("nonstore");
        fs::create_dir_all(&dir).unwrap();
        let err = SweepStore::open(&dir).unwrap_err();
        assert!(err.to_string().contains("sweep run"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
