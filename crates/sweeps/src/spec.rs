//! Declarative scenario and sweep descriptions.
//!
//! A [`ScenarioSpec`] describes **one cell** of a sweep: which protocol to
//! run (a [`crate::ProtocolRegistry`] id), on which engine, with which
//! numeric parameters, for how many trials, and under which seed stream.  A
//! [`SweepSpec`] describes a whole **grid**: shared settings plus axes whose
//! cross product expands into cells.
//!
//! Both are plain JSON documents.  A cell is *hash-addressed*: its identity
//! is the FNV-1a hash of its canonical serialization, so any change to any
//! parameter (including seeds and trial counts) yields a different address —
//! that is what lets the result store skip already-computed cells on resume
//! while never serving stale data for an edited spec.
//!
//! # Seed policy
//!
//! Trial `t` of the cell with seed point `p` runs with
//! `stream_seed(stream_seed(base_seed, p), t)`, where `stream_seed` is
//! [`flip_model::SimRng::stream_seed`] — exactly the derivation the
//! hand-rolled experiment harness uses (`ExperimentConfig::seed_for`), so a
//! migrated experiment reproduces its historical trials bit for bit.

use std::collections::BTreeMap;
use std::fmt;

use flip_model::{Backend, SimRng};

use crate::error::SweepError;
use crate::json::{parse, push, write_f64, write_str, write_u64, Json};

/// One cell of a sweep: a fully resolved, hash-addressable scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Protocol id resolved against the [`crate::ProtocolRegistry`].
    pub protocol: String,
    /// Which engine executes the cell.
    pub backend: Backend,
    /// Independent trials to run and aggregate.
    pub trials: u32,
    /// The sweep-wide master seed.
    pub base_seed: u64,
    /// The cell's seed-stream point (see the module docs).
    pub point: u64,
    /// Round cap for protocols that run "until done or cap"; `0` lets the
    /// protocol's own schedule decide.
    pub rounds: u64,
    /// Named numeric parameters (must include `n` and `epsilon`; the rest is
    /// protocol-specific).  Sorted by key, which keeps the canonical form —
    /// and therefore the hash — independent of construction order.
    pub params: BTreeMap<String, f64>,
    /// Fault injection directive in [`flip_model::FaultSpec`] string form
    /// (e.g. `byz:0.1`), or empty for a fault-free cell.  Empty is *omitted*
    /// from the canonical JSON, so every pre-fault spec keeps its historical
    /// hash address.  A `fault_fraction` param overrides the fraction (with
    /// `0` meaning fault-free), which is how sweeps put f/n on an axis.
    pub faults: String,
}

impl ScenarioSpec {
    /// The population size (the `n` parameter).
    ///
    /// # Panics
    ///
    /// Panics when `n` is missing or not a non-negative integer — expansion
    /// and parsing validate it, so reaching the panic means the spec was
    /// built by hand incorrectly.
    #[must_use]
    pub fn n(&self) -> u64 {
        let raw = *self
            .params
            .get("n")
            .unwrap_or_else(|| panic!("scenario `{}` is missing the `n` parameter", self.protocol));
        assert!(
            raw >= 0.0 && raw.fract() == 0.0 && raw <= 2f64.powi(53),
            "scenario `{}` has a non-integral n = {raw}",
            self.protocol
        );
        raw as u64
    }

    /// The noise margin (the `epsilon` parameter).
    ///
    /// # Panics
    ///
    /// Panics when `epsilon` is missing (see [`ScenarioSpec::n`]).
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        *self.params.get("epsilon").unwrap_or_else(|| {
            panic!(
                "scenario `{}` is missing the `epsilon` parameter",
                self.protocol
            )
        })
    }

    /// A named parameter, or `default` when absent.
    #[must_use]
    pub fn param_or(&self, key: &str, default: f64) -> f64 {
        self.params.get(key).copied().unwrap_or(default)
    }

    /// The deterministic seed for one trial of this cell (see the module
    /// docs for the derivation).
    #[must_use]
    pub fn seed_for_trial(&self, trial: u64) -> u64 {
        SimRng::stream_seed(SimRng::stream_seed(self.base_seed, self.point), trial)
    }

    /// Writes the canonical JSON form: fixed field order, sorted params.
    /// The `faults` field appears only when non-empty, keeping fault-free
    /// specs hash-stable with pre-fault builds.  The one writer behind both
    /// [`ScenarioSpec::hash_hex`] (written straight into the hash) and the
    /// JSON export's `spec` echo.
    pub(crate) fn write_canonical_json<W: fmt::Write>(&self, out: &mut W) {
        push(out, "{\"protocol\":");
        write_str(out, &self.protocol);
        push(out, ",\"backend\":");
        write_str(out, &self.backend.to_string());
        for (key, value) in [
            (",\"trials\":", u64::from(self.trials)),
            (",\"base_seed\":", self.base_seed),
            (",\"point\":", self.point),
            (",\"rounds\":", self.rounds),
        ] {
            push(out, key);
            write_u64(out, value);
        }
        if !self.faults.is_empty() {
            push(out, ",\"faults\":");
            write_str(out, &self.faults);
        }
        push(out, ",\"params\":{");
        for (i, (key, value)) in self.params.iter().enumerate() {
            if i > 0 {
                push(out, ",");
            }
            write_str(out, key);
            push(out, ":");
            write_f64(out, *value);
        }
        push(out, "}}");
    }

    /// The cell's address: FNV-1a (64-bit) over the canonical JSON, as 16
    /// hex digits.
    #[must_use]
    pub fn hash_hex(&self) -> String {
        let mut hash = Fnv1a::new();
        self.write_canonical_json(&mut hash);
        format!("{:016x}", hash.0)
    }

    /// Parses a cell from its canonical JSON form.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Spec`] on missing/ill-typed fields.
    pub fn from_json(doc: &Json) -> Result<Self, SweepError> {
        let protocol = require_str(doc, "protocol")?.to_string();
        let backend = parse_backend(require_str(doc, "backend")?)?;
        let trials = u32::try_from(require_u64(doc, "trials")?)
            .map_err(|_| SweepError::Spec("`trials` does not fit in u32".into()))?;
        let base_seed = require_u64(doc, "base_seed")?;
        let point = require_u64(doc, "point")?;
        let rounds = require_u64(doc, "rounds")?;
        let params = parse_params(
            doc.get("params")
                .ok_or_else(|| SweepError::Spec("missing `params`".into()))?,
        )?;
        let faults = optional_str(doc, "faults")?;
        let spec = Self {
            protocol,
            backend,
            trials,
            base_seed,
            point,
            rounds,
            params,
            faults,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// Checks the invariants expansion guarantees.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Spec`] when `n`/`epsilon` are missing or
    /// out of range, or `trials` is zero.
    pub fn validate(&self) -> Result<(), SweepError> {
        if self.trials == 0 {
            return Err(SweepError::Spec("`trials` must be >= 1".into()));
        }
        let n = self
            .params
            .get("n")
            .copied()
            .ok_or_else(|| SweepError::Spec("missing `n` in params".into()))?;
        if !(n >= 1.0 && n.fract() == 0.0 && n <= 2f64.powi(53)) {
            return Err(SweepError::Spec(format!(
                "`n` must be a positive integer, got {n}"
            )));
        }
        let epsilon = self
            .params
            .get("epsilon")
            .copied()
            .ok_or_else(|| SweepError::Spec("missing `epsilon` in params".into()))?;
        if !(epsilon > 0.0 && epsilon <= 0.5) {
            return Err(SweepError::Spec(format!(
                "`epsilon` must be in (0, 0.5], got {epsilon}"
            )));
        }
        if !self.faults.is_empty() {
            self.faults
                .parse::<flip_model::FaultSpec>()
                .map_err(|e| SweepError::Spec(e.to_string()))?;
        }
        Ok(())
    }
}

/// One grid axis: a parameter key and the values it sweeps.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// The parameter this axis varies.
    pub key: String,
    /// The values, in sweep order.
    pub values: Vec<f64>,
}

/// A whole sweep: shared settings plus axes expanded as a cross product.
///
/// Expansion is **row-major with the first axis outermost** and assigns the
/// cell at flat index `i` the seed point `point_base + i` — matching how the
/// hand-rolled experiment loops numbered their configuration points, which
/// is what makes migrated sweeps seed-compatible.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Human-readable sweep name (also the export header comment).
    pub name: String,
    /// Protocol id shared by every cell.
    pub protocol: String,
    /// Engine shared by every cell.
    pub backend: Backend,
    /// Trials per cell.
    pub trials: u32,
    /// Master seed (see the module docs).
    pub base_seed: u64,
    /// Seed point of the first cell.
    pub point_base: u64,
    /// Round cap shared by every cell (`0` = protocol schedule).
    pub rounds: u64,
    /// Fault injection directive shared by every cell (empty = fault-free;
    /// see [`ScenarioSpec::faults`]).  Sweeps vary the *fraction* through a
    /// `fault_fraction` axis rather than through this string.
    pub faults: String,
    /// Parameters shared by every cell (axes override on collision).
    pub defaults: BTreeMap<String, f64>,
    /// The grid axes; empty means a single cell built from `defaults`.
    pub axes: Vec<Axis>,
}

impl SweepSpec {
    /// Expands the grid into scenario cells, in deterministic grid order.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Spec`] when any expanded cell fails
    /// [`ScenarioSpec::validate`] (e.g. missing `n`/`epsilon`).
    pub fn expand(&self) -> Result<Vec<ScenarioSpec>, SweepError> {
        let mut cells = Vec::with_capacity(self.grid_len());
        let mut indices = vec![0usize; self.axes.len()];
        loop {
            let mut params = self.defaults.clone();
            for (axis, &idx) in self.axes.iter().zip(&indices) {
                params.insert(axis.key.clone(), axis.values[idx]);
            }
            let cell = ScenarioSpec {
                protocol: self.protocol.clone(),
                backend: self.backend,
                trials: self.trials,
                base_seed: self.base_seed,
                point: self.point_base + cells.len() as u64,
                rounds: self.rounds,
                params,
                faults: self.faults.clone(),
            };
            cell.validate()?;
            cells.push(cell);

            // Odometer increment, last axis fastest (row-major).
            let mut dim = self.axes.len();
            loop {
                if dim == 0 {
                    return Ok(cells);
                }
                dim -= 1;
                indices[dim] += 1;
                if indices[dim] < self.axes[dim].values.len() {
                    break;
                }
                indices[dim] = 0;
            }
        }
    }

    /// The number of cells the grid expands to.
    #[must_use]
    pub fn grid_len(&self) -> usize {
        self.axes.iter().map(|a| a.values.len().max(1)).product()
    }

    /// The canonical JSON form of the whole sweep.  As with cells, `faults`
    /// is omitted when empty so fault-free sweep files and hashes are
    /// unchanged from pre-fault builds.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("protocol".into(), Json::Str(self.protocol.clone())),
            ("backend".into(), Json::Str(self.backend.to_string())),
            ("trials".into(), Json::UInt(u64::from(self.trials))),
            ("base_seed".into(), Json::UInt(self.base_seed)),
            ("point_base".into(), Json::UInt(self.point_base)),
            ("rounds".into(), Json::UInt(self.rounds)),
        ];
        if !self.faults.is_empty() {
            fields.push(("faults".into(), Json::Str(self.faults.clone())));
        }
        fields.extend([
            (
                "defaults".into(),
                Json::Object(
                    self.defaults
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::Float(*v)))
                        .collect(),
                ),
            ),
            (
                "axes".into(),
                Json::Array(
                    self.axes
                        .iter()
                        .map(|axis| {
                            Json::object(vec![
                                ("key".into(), Json::Str(axis.key.clone())),
                                (
                                    "values".into(),
                                    Json::Array(
                                        axis.values.iter().map(|&v| Json::Float(v)).collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        Json::object(fields)
    }

    /// A pretty (indented) rendering of [`SweepSpec::to_json`] for spec
    /// files meant to be read and edited by people.
    #[must_use]
    pub fn to_pretty_json(&self) -> String {
        pretty(&self.to_json(), 0)
    }

    /// The sweep's address: the FNV-1a hash of its canonical JSON.
    #[must_use]
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", fnv1a(self.to_json().to_string().as_bytes()))
    }

    /// Parses a sweep spec from JSON text.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Spec`] on syntax errors, missing fields or an
    /// invalid expanded grid.
    pub fn from_json_text(text: &str) -> Result<Self, SweepError> {
        let doc = parse(text).map_err(SweepError::Spec)?;
        Self::from_json(&doc)
    }

    /// Parses a sweep spec from a JSON document.
    ///
    /// # Errors
    ///
    /// Returns [`SweepError::Spec`] on missing/ill-typed fields or an
    /// invalid expanded grid.
    pub fn from_json(doc: &Json) -> Result<Self, SweepError> {
        let axes = doc
            .get("axes")
            .and_then(Json::as_array)
            .ok_or_else(|| SweepError::Spec("missing `axes` array".into()))?
            .iter()
            .map(|axis| {
                let key = require_str(axis, "key")?.to_string();
                let values = axis
                    .get("values")
                    .and_then(Json::as_array)
                    .ok_or_else(|| SweepError::Spec(format!("axis `{key}` has no `values`")))?
                    .iter()
                    .map(|v| {
                        v.as_f64().ok_or_else(|| {
                            SweepError::Spec(format!("axis `{key}` has a non-numeric value"))
                        })
                    })
                    .collect::<Result<Vec<f64>, _>>()?;
                if values.is_empty() {
                    return Err(SweepError::Spec(format!("axis `{key}` is empty")));
                }
                Ok(Axis { key, values })
            })
            .collect::<Result<Vec<_>, SweepError>>()?;
        let spec = Self {
            name: require_str(doc, "name")?.to_string(),
            protocol: require_str(doc, "protocol")?.to_string(),
            backend: parse_backend(require_str(doc, "backend")?)?,
            trials: u32::try_from(require_u64(doc, "trials")?)
                .map_err(|_| SweepError::Spec("`trials` does not fit in u32".into()))?,
            base_seed: require_u64(doc, "base_seed")?,
            point_base: require_u64(doc, "point_base")?,
            rounds: require_u64(doc, "rounds")?,
            faults: optional_str(doc, "faults")?,
            defaults: parse_params(
                doc.get("defaults")
                    .ok_or_else(|| SweepError::Spec("missing `defaults`".into()))?,
            )?,
            axes,
        };
        // Validate the whole grid now so `run` cannot fail halfway through.
        spec.expand()?;
        Ok(spec)
    }
}

/// 64-bit FNV-1a: tiny, dependency-free, stable across platforms — exactly
/// what a content address needs (this is not a cryptographic commitment).
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = Fnv1a::new();
    hash.update(bytes);
    hash.0
}

/// A running FNV-1a hash that is also a [`fmt::Write`] sink, so a canonical
/// form can be hashed as it is written, without building its text.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

impl fmt::Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

fn parse_backend(raw: &str) -> Result<Backend, SweepError> {
    raw.parse::<Backend>()
        .map_err(|e| SweepError::Spec(e.to_string()))
}

fn require_str<'a>(doc: &'a Json, key: &str) -> Result<&'a str, SweepError> {
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| SweepError::Spec(format!("missing or non-string `{key}`")))
}

/// Reads an optional string field; absent means empty, but a present
/// non-string value is still an error.
fn optional_str(doc: &Json, key: &str) -> Result<String, SweepError> {
    match doc.get(key) {
        None => Ok(String::new()),
        Some(value) => value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| SweepError::Spec(format!("non-string `{key}`"))),
    }
}

fn require_u64(doc: &Json, key: &str) -> Result<u64, SweepError> {
    doc.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| SweepError::Spec(format!("missing or non-integer `{key}`")))
}

fn parse_params(doc: &Json) -> Result<BTreeMap<String, f64>, SweepError> {
    match doc {
        Json::Object(pairs) => pairs
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|v| (k.clone(), v))
                    .ok_or_else(|| SweepError::Spec(format!("param `{k}` is not numeric")))
            })
            .collect(),
        _ => Err(SweepError::Spec("params must be an object".into())),
    }
}

/// Two-space-indented JSON rendering (spec files only; stores and hashes use
/// the canonical single-line form).
fn pretty(value: &Json, indent: usize) -> String {
    let pad = "  ".repeat(indent + 1);
    let close = "  ".repeat(indent);
    match value {
        Json::Array(items) if !items.is_empty() => {
            let inner = items
                .iter()
                .map(|v| format!("{pad}{}", pretty(v, indent + 1)))
                .collect::<Vec<_>>()
                .join(",\n");
            format!("[\n{inner}\n{close}]")
        }
        Json::Object(pairs) if !pairs.is_empty() => {
            let inner = pairs
                .iter()
                .map(|(k, v)| format!("{pad}{}: {}", Json::Str(k.clone()), pretty(v, indent + 1)))
                .collect::<Vec<_>>()
                .join(",\n");
            format!("{{\n{inner}\n{close}}}")
        }
        other => other.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn canonical_json(cell: &ScenarioSpec) -> String {
        let mut text = String::new();
        cell.write_canonical_json(&mut text);
        text
    }

    fn demo_sweep() -> SweepSpec {
        SweepSpec {
            name: "demo".into(),
            protocol: "rumor".into(),
            backend: Backend::Agents,
            trials: 3,
            base_seed: 7,
            point_base: 100,
            rounds: 50,
            faults: String::new(),
            defaults: BTreeMap::from([("epsilon".to_string(), 0.2), ("informed".to_string(), 8.0)]),
            axes: vec![
                Axis {
                    key: "n".into(),
                    values: vec![100.0, 200.0],
                },
                Axis {
                    key: "epsilon".into(),
                    values: vec![0.1, 0.2, 0.3],
                },
            ],
        }
    }

    #[test]
    fn expansion_is_row_major_with_sequential_points() {
        let cells = demo_sweep().expand().unwrap();
        assert_eq!(cells.len(), 6);
        assert_eq!(cells[0].n(), 100);
        assert_eq!(cells[0].epsilon(), 0.1);
        assert_eq!(cells[1].epsilon(), 0.2);
        assert_eq!(cells[3].n(), 200);
        for (i, cell) in cells.iter().enumerate() {
            assert_eq!(cell.point, 100 + i as u64);
            assert_eq!(cell.param_or("informed", 0.0), 8.0);
        }
    }

    #[test]
    fn empty_axes_yield_a_single_cell() {
        let mut spec = demo_sweep();
        spec.axes.clear();
        spec.defaults.insert("n".into(), 500.0);
        let cells = spec.expand().unwrap();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].n(), 500);
        assert_eq!(cells[0].point, 100);
    }

    #[test]
    fn seeds_match_the_experiment_harness_derivation() {
        let cells = demo_sweep().expand().unwrap();
        let cell = &cells[2];
        let expected = SimRng::stream_seed(SimRng::stream_seed(7, cell.point), 1);
        assert_eq!(cell.seed_for_trial(1), expected);
        assert_ne!(cell.seed_for_trial(0), cell.seed_for_trial(1));
    }

    #[test]
    fn hashes_address_content_not_construction() {
        let cells = demo_sweep().expand().unwrap();
        let same = demo_sweep().expand().unwrap();
        assert_eq!(cells[0].hash_hex(), same[0].hash_hex());
        assert_ne!(cells[0].hash_hex(), cells[1].hash_hex());
        // Any parameter change moves the address — including the seed.
        let mut reseeded = cells[0].clone();
        reseeded.base_seed += 1;
        assert_ne!(cells[0].hash_hex(), reseeded.hash_hex());
        assert_eq!(cells[0].hash_hex().len(), 16);
    }

    #[test]
    fn sweep_json_round_trips_through_text() {
        let spec = demo_sweep();
        let parsed = SweepSpec::from_json_text(&spec.to_json().to_string()).unwrap();
        assert_eq!(parsed, spec);
        let pretty_parsed = SweepSpec::from_json_text(&spec.to_pretty_json()).unwrap();
        assert_eq!(pretty_parsed, spec);
        assert_eq!(parsed.hash_hex(), spec.hash_hex());
    }

    #[test]
    fn scenario_json_round_trips() {
        let cell = demo_sweep().expand().unwrap().pop().unwrap();
        let parsed = ScenarioSpec::from_json(&parse(&canonical_json(&cell)).unwrap()).unwrap();
        assert_eq!(parsed, cell);
        assert_eq!(parsed.hash_hex(), cell.hash_hex());
    }

    #[test]
    fn invalid_specs_fail_loudly() {
        // Missing n.
        let mut spec = demo_sweep();
        spec.axes.clear();
        assert!(spec.expand().is_err());
        // Zero trials.
        let mut spec = demo_sweep();
        spec.trials = 0;
        assert!(spec.expand().is_err());
        // Bad epsilon.
        let mut spec = demo_sweep();
        spec.axes[1].values = vec![0.9];
        assert!(spec.expand().is_err());
        // Unknown backend in text form.
        assert!(SweepSpec::from_json_text("{\"name\":\"x\",\"backend\":\"gpu\"}").is_err());
        // A bare `hybrid` (no tracked count) must not default silently.
        assert!(SweepSpec::from_json_text("{\"name\":\"x\",\"backend\":\"hybrid\"}").is_err());
        assert!(SweepSpec::from_json_text("not json").is_err());
    }

    #[test]
    fn fault_free_specs_omit_the_faults_key_and_keep_their_hashes() {
        // Hash stability for everything that predates fault injection: an
        // empty `faults` field must be invisible in the canonical JSON ...
        let spec = demo_sweep();
        assert!(!spec.to_json().to_string().contains("\"faults\""));
        let cell = &spec.expand().unwrap()[0];
        assert!(!canonical_json(cell).contains("\"faults\""));
        // ... and round-trip back to empty.
        let parsed = SweepSpec::from_json_text(&spec.to_json().to_string()).unwrap();
        assert_eq!(parsed.faults, "");
        // A fault-injected twin gets a *different* address.
        let mut faulty = cell.clone();
        faulty.faults = "byz:0.1".into();
        assert_ne!(cell.hash_hex(), faulty.hash_hex());
    }

    #[test]
    fn faulty_sweeps_round_trip_and_validate_the_directive() {
        let mut spec = demo_sweep();
        spec.faults = "crash:0.2@10".into();
        let parsed = SweepSpec::from_json_text(&spec.to_pretty_json()).unwrap();
        assert_eq!(parsed, spec);
        for cell in parsed.expand().unwrap() {
            assert_eq!(cell.faults, "crash:0.2@10");
        }
        // A malformed directive fails expansion loudly, naming `faults`.
        spec.faults = "gremlin:0.2".into();
        let err = spec.expand().unwrap_err().to_string();
        assert!(err.contains("faults"), "must name the field: {err}");
        // `byz:0` is rejected at the spec layer too.
        spec.faults = "byz:0".into();
        assert!(spec.expand().is_err());
    }

    #[test]
    fn hybrid_backend_round_trips_with_its_tracked_count() {
        let mut spec = demo_sweep();
        spec.backend = Backend::Hybrid(64);
        let parsed = SweepSpec::from_json_text(&spec.to_json().to_string()).unwrap();
        assert_eq!(parsed.backend, Backend::Hybrid(64));
        let cell = &spec.expand().unwrap()[0];
        let reparsed = ScenarioSpec::from_json(&parse(&canonical_json(cell)).unwrap()).unwrap();
        assert_eq!(reparsed.backend, Backend::Hybrid(64));
    }

    #[test]
    fn canonical_form_and_hash_are_pinned() {
        // Bytes and addresses written by the tree-building writer this one
        // replaced: a faulty hybrid cell with a key that needs escaping, and
        // its fault-free dense twin.
        let mut cell = ScenarioSpec {
            protocol: "rumor".into(),
            backend: Backend::Hybrid(64),
            trials: 3,
            base_seed: 7,
            point: 12,
            rounds: 400,
            params: BTreeMap::from([
                ("epsilon".to_string(), 0.1),
                ("fault_fraction".to_string(), 0.05),
                ("n".to_string(), 1e6),
                ("odd \"key\"\n".to_string(), -0.0),
            ]),
            faults: "byz:0.1".into(),
        };
        assert_eq!(
            canonical_json(&cell),
            "{\"protocol\":\"rumor\",\"backend\":\"hybrid:64\",\"trials\":3,\"base_seed\":7,\
             \"point\":12,\"rounds\":400,\"faults\":\"byz:0.1\",\"params\":{\"epsilon\":0.1,\
             \"fault_fraction\":0.05,\"n\":1000000.0,\"odd \\\"key\\\"\\n\":-0.0}}"
        );
        assert_eq!(cell.hash_hex(), "a3da8f5e4ee19070");
        assert_eq!(
            cell.hash_hex(),
            format!("{:016x}", fnv1a(canonical_json(&cell).as_bytes()))
        );
        cell.faults.clear();
        cell.backend = Backend::Dense;
        assert_eq!(cell.hash_hex(), "bff7202714bff7f4");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
