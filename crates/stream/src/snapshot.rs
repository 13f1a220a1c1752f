//! Whole-pipeline snapshots: everything `zeroer ingest` needs to resume
//! scoring against a batch-fitted model from a plain JSON file.
//!
//! A [`zeroer_core::ModelSnapshot`] freezes a generative model and its
//! feature replay state; the [`PipelineSnapshot`] adds the pipeline-level
//! frozen decisions — schema, inferred attribute types (which fix the
//! feature layout), the blocking-index configuration and the bootstrap
//! provenance — so a fresh process can rebuild an identical scoring path.
//! One type serves both topologies: its [`SnapshotModel`] variant is the
//! kind, which the JSON `format` marker records.

use crate::engine::Topology;
use crate::index::IndexConfig;
use crate::link::Linkage;
use crate::pipeline::{Dedup, StreamError};
use zeroer_core::json::{Json, JsonError};
use zeroer_core::{LinkageSnapshot, ModelSnapshot};
use zeroer_tabular::{AttrType, Record, Schema, Table};

/// The `format` marker of dedup snapshots.
const DEDUP_FORMAT: &str = "zeroer-pipeline-snapshot";
/// The `format` marker of linkage snapshots.
const LINK_FORMAT: &str = "zeroer-link-snapshot";

/// The frozen model of a [`PipelineSnapshot`]. Its variant is the
/// snapshot's kind.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotModel {
    /// A dedup snapshot (`zeroer-pipeline-snapshot`): one model.
    Dedup(ModelSnapshot),
    /// A linkage snapshot (`zeroer-link-snapshot`): the cross model that
    /// scores, plus the within-table models that calibrated its fit.
    Linkage(Box<LinkageSnapshot>),
}

impl SnapshotModel {
    /// The kind, as [`Topology::KIND`] names it: `dedup` or `linkage`.
    pub fn kind(&self) -> &'static str {
        match self {
            Self::Dedup(_) => Dedup::KIND,
            Self::Linkage(_) => Linkage::KIND,
        }
    }

    /// The model candidates are scored with (for linkage, the cross
    /// model).
    pub fn scoring(&self) -> &ModelSnapshot {
        match self {
            Self::Dedup(model) => model,
            Self::Linkage(linkage) => &linkage.cross,
        }
    }
}

/// Provenance of one bootstrap table, which seeding checks the table
/// against.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BaseTable {
    /// Records the table held (0 when the origin pipeline recorded none).
    pub len: usize,
    /// Order-sensitive FNV-1a digest of the records (ids + values), so
    /// seeding can reject a table that merely *looks* compatible (same
    /// length and schema, different or reordered records). 0 = unknown
    /// (older snapshots): only the length is checked.
    pub digest: u64,
}

impl BaseTable {
    /// The provenance of `table`.
    pub fn of(table: &Table) -> Self {
        Self {
            len: table.len(),
            digest: records_digest(table.records()),
        }
    }

    /// Checks `table` against the recorded length and digest; `name`
    /// names the table in the error.
    pub(crate) fn check(&self, name: &str, table: &Table) -> Result<(), StreamError> {
        if table.len() != self.len {
            return Err(StreamError(format!(
                "{name} table has {} records but the snapshot was bootstrapped on {}",
                table.len(),
                self.len
            )));
        }
        if self.digest != 0 && records_digest(table.records()) != self.digest {
            return Err(StreamError(format!(
                "{name} table does not match the records the snapshot was bootstrapped on \
                 (same length, different or reordered records); the persisted batch \
                 decisions cannot be replayed onto it"
            )));
        }
        Ok(())
    }
}

/// Order-sensitive FNV-1a digest of a record sequence (ids + values),
/// used to pin persisted bootstrap decisions to the exact table they
/// were made on: replaying merge pairs onto different or reordered
/// records would silently produce wrong clusters.
fn records_digest(records: &[Record]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in records {
        eat(&r.id.to_le_bytes());
        for v in &r.values {
            match v.as_text() {
                Some(t) => {
                    eat(&[0xff]);
                    eat(t.as_bytes());
                }
                None => eat(&[0xfe]),
            }
        }
    }
    h
}

/// A serializable freeze of a streaming pipeline of either topology.
#[derive(Debug, Clone)]
pub struct PipelineSnapshot {
    /// Attribute names, in schema order (both linkage sides share one
    /// schema).
    pub schema: Vec<String>,
    /// Frozen attribute types (fixes the feature layout; for linkage,
    /// of the cross leg — the within-table layouts live inside their
    /// models).
    pub attr_types: Vec<AttrType>,
    /// Blocking-index configuration, shared by every index.
    pub index: IndexConfig,
    /// The frozen model, whose variant is the snapshot's kind.
    pub model: SnapshotModel,
    /// Provenance of each bootstrap table, in [`Topology::TABLES`]
    /// order: the one table for dedup, left then right for linkage.
    /// `Pipeline::from_snapshot` requires exactly one entry per table.
    pub bootstrap: Vec<BaseTable>,
    /// The bootstrap match decisions in decision order: candidate pairs
    /// whose posterior cleared the assignment threshold at fit time, as
    /// store indices (for linkage, left records first, then right —
    /// always cross pairs, since the within-table models calibrate the
    /// fit but never merge). Seeding replays these so `zeroer ingest`
    /// preserves the batch decisions instead of re-scoring the base
    /// records.
    pub bootstrap_pairs: Vec<(usize, usize)>,
    /// Retracted record indices, ascending. Seeding replays these after
    /// the bootstrap decisions; restore refuses indices at or beyond
    /// [`PipelineSnapshot::bootstrap_len`] (streamed records are not
    /// persisted, so their retractions cannot be reconstructed). Empty
    /// for pre-retraction snapshots.
    pub tombstones: Vec<usize>,
    /// Pipeline epoch at save time (retraction + compaction counter);
    /// 0 for pre-retraction snapshots.
    pub epoch: u64,
}

impl PipelineSnapshot {
    /// Rebuilds the [`Schema`].
    ///
    /// # Panics
    /// Panics if the stored names are empty or duplicated.
    pub fn to_schema(&self) -> Schema {
        Schema::new(self.schema.iter().cloned())
    }

    /// Bootstrap records over every table (0 for a dedup snapshot that
    /// recorded no bootstrap decisions).
    pub fn bootstrap_len(&self) -> usize {
        self.bootstrap.iter().map(|t| t.len).sum()
    }

    /// Serializes to JSON text in its kind's format.
    ///
    /// # Panics
    /// Panics if `bootstrap` does not hold one entry per table of the
    /// kind.
    pub fn to_json(&self) -> String {
        let _span = zeroer_obs::histogram("snapshot.save.ns").start();
        let num = |n: usize| Json::Num(n as f64);
        // Hex, not Num: JSON numbers are f64 and cannot hold every u64
        // exactly.
        let hex = |d: u64| Json::Str(format!("{d:016x}"));
        let pairs = fields::pairs_json(&self.bootstrap_pairs);
        let (format, bootstrap, model) = match (&self.model, &self.bootstrap[..]) {
            (SnapshotModel::Dedup(model), [base]) => (
                DEDUP_FORMAT,
                vec![
                    ("len".into(), num(base.len)),
                    ("pairs".into(), pairs),
                    ("digest".into(), hex(base.digest)),
                ],
                ("model", model.to_json_value()),
            ),
            (SnapshotModel::Linkage(linkage), [left, right]) => (
                LINK_FORMAT,
                vec![
                    ("left_len".into(), num(left.len)),
                    ("right_len".into(), num(right.len)),
                    ("left_digest".into(), hex(left.digest)),
                    ("right_digest".into(), hex(right.digest)),
                    ("pairs".into(), pairs),
                ],
                ("linkage", linkage.to_json_value()),
            ),
            (model, tables) => panic!(
                "a {} snapshot cannot record {} bootstrap tables",
                model.kind(),
                tables.len()
            ),
        };
        Json::Obj(vec![
            ("format".into(), Json::Str(format.into())),
            ("version".into(), Json::Num(1.0)),
            ("schema".into(), fields::schema_json(&self.schema)),
            (
                "attr_types".into(),
                fields::attr_types_json(&self.attr_types),
            ),
            ("index".into(), fields::index_json(&self.index)),
            ("bootstrap".into(), Json::Obj(bootstrap)),
            (
                "retraction".into(),
                fields::retraction_json(self.epoch, &self.tombstones),
            ),
            (model.0.into(), model.1),
        ])
        .render()
    }

    /// Deserializes JSON text of either kind; the `format` marker picks
    /// it.
    ///
    /// # Errors
    /// Fails on malformed JSON or schema violations (an unknown format
    /// marker, a repeated attribute name, out-of-range or — for linkage —
    /// same-side pair indices, unsorted tombstones, a blocking attribute
    /// outside the schema).
    pub fn from_json(text: &str) -> Result<Self, JsonError> {
        let _span = zeroer_obs::histogram("snapshot.load.ns").start();
        let j = Json::parse(text)?;
        let linkage = match j.get("format").and_then(Json::as_str) {
            Some(DEDUP_FORMAT) => false,
            Some(LINK_FORMAT) => true,
            _ => return Err(JsonError::schema("not a zeroer pipeline snapshot")),
        };
        if j.get("version").and_then(Json::as_f64) != Some(1.0) {
            return Err(JsonError::schema(
                "unsupported pipeline-snapshot version (expected 1)",
            ));
        }
        let schema = fields::parse_strings(&j, "schema")?;
        let attr_types = fields::parse_attr_types(&fields::parse_strings(&j, "attr_types")?)?;
        if schema.is_empty() || schema.len() != attr_types.len() {
            return Err(JsonError::schema("schema/attr_types arity mismatch"));
        }
        if let Some(name) = schema
            .iter()
            .enumerate()
            .find_map(|(i, a)| schema[..i].contains(a).then_some(a))
        {
            return Err(JsonError::schema(format!(
                "duplicate schema attribute name {name:?}"
            )));
        }
        let index = fields::parse_index(&j)?;
        if index.attr >= schema.len() {
            return Err(JsonError::schema("blocking attribute out of schema range"));
        }
        if index.min_token_overlap == 0 {
            return Err(JsonError::schema("min_token_overlap must be at least 1"));
        }
        if index.max_bucket == 0 {
            return Err(JsonError::schema("max_bucket must be at least 1"));
        }
        // The bootstrap section arrived after the dedup format's first
        // release; absence (old snapshots) reads as "no recorded
        // decisions", which callers treat as the legacy re-score
        // behavior. Linkage snapshots always carry it.
        let boot = if linkage {
            Some(j.require("bootstrap")?)
        } else {
            j.get("bootstrap")
        };
        let (bootstrap, bootstrap_pairs) = match boot {
            None => (vec![BaseTable::default()], Vec::new()),
            Some(boot) => {
                let table = |len: &str, digest: &str| -> Result<BaseTable, JsonError> {
                    Ok(BaseTable {
                        len: boot.require(len)?.as_usize().ok_or_else(|| {
                            JsonError::schema(format!("bootstrap.{len} must be an integer"))
                        })?,
                        // Older writers: digest absent reads as unknown (0).
                        digest: fields::parse_digest(boot, digest)?,
                    })
                };
                let tables = if linkage {
                    vec![
                        table("left_len", "left_digest")?,
                        table("right_len", "right_digest")?,
                    ]
                } else {
                    vec![table("len", "digest")?]
                };
                let total = tables.iter().map(|t| t.len).sum();
                let pairs = fields::parse_pairs(boot, "pairs", total)?;
                // Linkage decisions are cross pairs; enforce the
                // orientation so a corrupted or hand-edited snapshot cannot
                // smuggle same-side merges past seeding (the digests cover
                // the tables, not this array).
                let left_len = tables[0].len;
                if linkage && pairs.iter().any(|&(l, r)| l >= left_len || r < left_len) {
                    return Err(JsonError::schema(
                        "bootstrap.pairs must be cross pairs: [left index, left_len + right index]",
                    ));
                }
                (tables, pairs)
            }
        };
        // The retraction section arrived with retraction support;
        // absence (older snapshots) reads as "nothing ever retracted".
        let (epoch, tombstones) = fields::parse_retraction(&j)?;
        let model = if linkage {
            SnapshotModel::Linkage(Box::new(LinkageSnapshot::from_json_value(
                j.require("linkage")?,
            )?))
        } else {
            SnapshotModel::Dedup(ModelSnapshot::from_json_value(j.require("model")?)?)
        };
        Ok(Self {
            schema,
            attr_types,
            index,
            model,
            bootstrap,
            bootstrap_pairs,
            tombstones,
            epoch,
        })
    }
}

/// Field renderers and parsers of the two snapshot formats.
mod fields {
    use super::*;

    pub(super) fn schema_json(schema: &[String]) -> Json {
        Json::Arr(schema.iter().map(|s| Json::Str(s.clone())).collect())
    }

    pub(super) fn attr_types_json(types: &[AttrType]) -> Json {
        Json::Arr(types.iter().map(|t| Json::Str(t.name().into())).collect())
    }

    pub(super) fn index_json(index: &IndexConfig) -> Json {
        Json::Obj(vec![
            ("attr".into(), Json::Num(index.attr as f64)),
            ("qgram".into(), Json::Num(index.qgram as f64)),
            ("max_bucket".into(), Json::Num(index.max_bucket as f64)),
            (
                "min_token_overlap".into(),
                Json::Num(index.min_token_overlap as f64),
            ),
        ])
    }

    pub(super) fn pairs_json(pairs: &[(usize, usize)]) -> Json {
        Json::Arr(
            pairs
                .iter()
                .map(|&(a, b)| Json::nums(&[a as f64, b as f64]))
                .collect(),
        )
    }

    pub(super) fn retraction_json(epoch: u64, tombstones: &[usize]) -> Json {
        Json::Obj(vec![
            ("epoch".into(), Json::Num(epoch as f64)),
            (
                "tombstones".into(),
                Json::Arr(tombstones.iter().map(|&t| Json::Num(t as f64)).collect()),
            ),
        ])
    }

    pub(super) fn parse_strings(j: &Json, key: &str) -> Result<Vec<String>, JsonError> {
        j.require(key)?
            .as_arr()
            .ok_or_else(|| JsonError::schema(format!("{key} must be an array")))?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(String::from)
                    .ok_or_else(|| JsonError::schema(format!("{key} must hold strings")))
            })
            .collect()
    }

    pub(super) fn parse_attr_types(names: &[String]) -> Result<Vec<AttrType>, JsonError> {
        names
            .iter()
            .map(|name| {
                AttrType::from_name(name)
                    .ok_or_else(|| JsonError::schema(format!("unknown attr type {name:?}")))
            })
            .collect()
    }

    pub(super) fn parse_index(j: &Json) -> Result<IndexConfig, JsonError> {
        let idx = j.require("index")?;
        let field = |key: &str| -> Result<usize, JsonError> {
            idx.require(key)?
                .as_usize()
                .ok_or_else(|| JsonError::schema(format!("index.{key} must be an integer")))
        };
        Ok(IndexConfig {
            attr: field("attr")?,
            qgram: field("qgram")?,
            max_bucket: field("max_bucket")?,
            min_token_overlap: field("min_token_overlap")?,
        })
    }

    pub(super) fn parse_pairs(
        j: &Json,
        key: &str,
        limit: usize,
    ) -> Result<Vec<(usize, usize)>, JsonError> {
        j.require(key)?
            .as_arr()
            .ok_or_else(|| JsonError::schema(format!("{key} must be an array")))?
            .iter()
            .map(|pair| {
                let err = || JsonError::schema(format!("each {key} pair must be [i, j]"));
                let xs = pair.as_arr().ok_or_else(err)?;
                if xs.len() != 2 {
                    return Err(err());
                }
                let a = xs[0].as_usize().ok_or_else(err)?;
                let b = xs[1].as_usize().ok_or_else(err)?;
                if a >= limit || b >= limit {
                    return Err(JsonError::schema(format!(
                        "{key} pair indices must lie below the bootstrap record count"
                    )));
                }
                Ok((a, b))
            })
            .collect()
    }

    pub(super) fn parse_digest(j: &Json, key: &str) -> Result<u64, JsonError> {
        match j.get(key) {
            None => Ok(0),
            Some(d) => u64::from_str_radix(
                d.as_str()
                    .ok_or_else(|| JsonError::schema(format!("{key} must be a string")))?,
                16,
            )
            .map_err(|_| JsonError::schema(format!("{key} must be hex"))),
        }
    }

    pub(super) fn parse_retraction(j: &Json) -> Result<(u64, Vec<usize>), JsonError> {
        match j.get("retraction") {
            None => Ok((0, Vec::new())),
            Some(retr) => {
                let epoch = retr
                    .require("epoch")?
                    .as_usize()
                    .ok_or_else(|| JsonError::schema("retraction.epoch must be an integer"))?
                    as u64;
                let tombstones: Vec<usize> = retr
                    .require("tombstones")?
                    .as_arr()
                    .ok_or_else(|| JsonError::schema("retraction.tombstones must be an array"))?
                    .iter()
                    .map(|t| {
                        t.as_usize().ok_or_else(|| {
                            JsonError::schema("retraction.tombstones must hold integers")
                        })
                    })
                    .collect::<Result<_, _>>()?;
                if tombstones.windows(2).any(|w| w[0] >= w[1]) {
                    return Err(JsonError::schema(
                        "retraction.tombstones must be strictly ascending",
                    ));
                }
                Ok((epoch, tombstones))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model() -> ModelSnapshot {
        ModelSnapshot {
            pi_m: 0.1,
            group_sizes: vec![1, 2],
            mean_m: vec![0.9, 0.8, 0.85],
            mean_u: vec![0.1, 0.2, 0.15],
            cov_m: vec![vec![0.01], vec![0.02, 0.0, 0.0, 0.02]],
            cov_u: vec![vec![0.03], vec![0.04, 0.0, 0.0, 0.04]],
            ranges: vec![(0.0, 1.0); 3],
            impute_means: vec![0.5; 3],
            feature_names: vec!["a_x".into(), "b_x".into(), "b_y".into()],
        }
    }

    #[test]
    fn round_trip() {
        let snap = PipelineSnapshot {
            schema: vec!["name".into(), "year".into()],
            attr_types: vec![AttrType::StrMedium, AttrType::Numeric],
            index: IndexConfig::default(),
            model: SnapshotModel::Dedup(tiny_model()),
            bootstrap: vec![BaseTable {
                len: 4,
                digest: 0xdead_beef_0123_4567,
            }],
            bootstrap_pairs: vec![(0, 1), (1, 3)],
            tombstones: vec![1, 3],
            epoch: 5,
        };
        let text = snap.to_json();
        let back = PipelineSnapshot::from_json(&text).unwrap();
        assert_eq!(back.schema, snap.schema);
        assert_eq!(back.attr_types, snap.attr_types);
        assert_eq!(back.index.attr, snap.index.attr);
        assert_eq!(back.index.qgram, snap.index.qgram);
        assert_eq!(back.model, snap.model);
        assert_eq!(back.bootstrap, snap.bootstrap);
        assert_eq!(back.bootstrap_pairs, snap.bootstrap_pairs);
        assert_eq!(back.tombstones, snap.tombstones);
        assert_eq!(back.epoch, snap.epoch);
    }

    #[test]
    fn missing_bootstrap_section_reads_as_empty() {
        // Pre-bootstrap-section snapshots (PR 1 format) must stay
        // readable: strip the section and parse.
        let snap = PipelineSnapshot {
            schema: vec!["name".into()],
            attr_types: vec![AttrType::StrShort],
            index: IndexConfig::default(),
            model: SnapshotModel::Dedup(tiny_model()),
            bootstrap: vec![BaseTable { len: 2, digest: 7 }],
            bootstrap_pairs: vec![(0, 1)],
            tombstones: vec![0],
            epoch: 1,
        };
        let json = Json::parse(&snap.to_json()).unwrap();
        let Json::Obj(fields) = json else {
            panic!("snapshot must render an object")
        };
        let stripped = Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "bootstrap")
                .collect(),
        )
        .render();
        let back = PipelineSnapshot::from_json(&stripped).expect("legacy snapshot must parse");
        assert_eq!(back.bootstrap_len(), 0);
        assert!(back.bootstrap_pairs.is_empty());
    }

    #[test]
    fn missing_retraction_section_reads_as_never_retracted() {
        // Pre-retraction snapshots (PR 1–3 formats) must stay readable:
        // strip the section and parse.
        let snap = PipelineSnapshot {
            schema: vec!["name".into()],
            attr_types: vec![AttrType::StrShort],
            index: IndexConfig::default(),
            model: SnapshotModel::Dedup(tiny_model()),
            bootstrap: vec![BaseTable { len: 2, digest: 7 }],
            bootstrap_pairs: vec![(0, 1)],
            tombstones: vec![0],
            epoch: 3,
        };
        let json = Json::parse(&snap.to_json()).unwrap();
        let Json::Obj(fields) = json else {
            panic!("snapshot must render an object")
        };
        let stripped = Json::Obj(
            fields
                .into_iter()
                .filter(|(k, _)| k != "retraction")
                .collect(),
        )
        .render();
        let back = PipelineSnapshot::from_json(&stripped).expect("legacy snapshot must parse");
        assert!(back.tombstones.is_empty());
        assert_eq!(back.epoch, 0);
    }

    #[test]
    fn rejects_unsorted_or_duplicated_tombstones() {
        let snap = PipelineSnapshot {
            schema: vec!["name".into()],
            attr_types: vec![AttrType::StrShort],
            index: IndexConfig::default(),
            model: SnapshotModel::Dedup(tiny_model()),
            bootstrap: vec![BaseTable { len: 4, digest: 0 }],
            bootstrap_pairs: Vec::new(),
            tombstones: vec![2, 2],
            epoch: 2,
        };
        assert!(
            PipelineSnapshot::from_json(&snap.to_json()).is_err(),
            "duplicated tombstone indices must be rejected"
        );
    }

    fn tiny_link_snapshot() -> PipelineSnapshot {
        PipelineSnapshot {
            schema: vec!["name".into(), "year".into()],
            attr_types: vec![AttrType::StrMedium, AttrType::Numeric],
            index: IndexConfig::default(),
            model: SnapshotModel::Linkage(Box::new(LinkageSnapshot {
                cross: tiny_model(),
                left: None,
                right: Some(tiny_model()),
                transitivity: true,
            })),
            bootstrap: vec![
                BaseTable {
                    len: 3,
                    digest: 0x0123_4567_89ab_cdef,
                },
                BaseTable {
                    len: 2,
                    digest: 0xfedc_ba98_7654_3210,
                },
            ],
            bootstrap_pairs: vec![(0, 3), (2, 4)],
            tombstones: vec![1],
            epoch: 2,
        }
    }

    #[test]
    fn link_snapshot_round_trip() {
        let snap = tiny_link_snapshot();
        let text = snap.to_json();
        let back = PipelineSnapshot::from_json(&text).unwrap();
        assert_eq!(back.schema, snap.schema);
        assert_eq!(back.attr_types, snap.attr_types);
        assert_eq!(back.model, snap.model);
        assert_eq!(back.bootstrap, snap.bootstrap);
        assert_eq!(back.bootstrap_pairs, snap.bootstrap_pairs);
        assert_eq!(back.tombstones, snap.tombstones);
        assert_eq!(back.epoch, snap.epoch);
        assert_eq!(back.to_json(), text, "re-serialization is byte-identical");
    }

    #[test]
    fn link_snapshot_rejects_non_cross_pairs() {
        // Decisions are cross pairs by construction; a same-side pair in
        // the file means corruption or hand editing, and seed_base must
        // never replay it.
        let mut snap = tiny_link_snapshot();
        snap.bootstrap_pairs = vec![(0, 1)]; // both below left_len: a left-left merge
        assert!(
            PipelineSnapshot::from_json(&snap.to_json()).is_err(),
            "same-side bootstrap pairs must be rejected"
        );
        let mut snap = tiny_link_snapshot();
        snap.bootstrap_pairs = vec![(3, 4)]; // both at/after left_len: right-right
        assert!(PipelineSnapshot::from_json(&snap.to_json()).is_err());
    }

    #[test]
    fn link_snapshot_rejects_dedup_format_and_vice_versa() {
        // Both formats parse into the one snapshot type, each as its own
        // kind; a snapshot restores only the pipeline of its kind.
        let link = PipelineSnapshot::from_json(&tiny_link_snapshot().to_json()).unwrap();
        assert_eq!(link.model.kind(), "linkage");
        let err = crate::StreamPipeline::from_snapshot(&link, 0.5)
            .err()
            .expect("a linkage snapshot must not restore a dedup pipeline");
        assert!(err.to_string().contains("cannot restore a dedup"), "{err}");
        let dedup = PipelineSnapshot {
            schema: vec!["name".into()],
            attr_types: vec![AttrType::StrShort],
            index: IndexConfig::default(),
            model: SnapshotModel::Dedup(tiny_model()),
            bootstrap: vec![BaseTable::default()],
            bootstrap_pairs: Vec::new(),
            tombstones: Vec::new(),
            epoch: 0,
        };
        let dedup = PipelineSnapshot::from_json(&dedup.to_json()).unwrap();
        assert_eq!(dedup.model.kind(), "dedup");
        let err = crate::LinkPipeline::from_snapshot(&dedup, 0.5)
            .err()
            .expect("a dedup snapshot must not restore a linkage pipeline");
        assert!(
            err.to_string().contains("cannot restore a linkage"),
            "{err}"
        );
    }

    #[test]
    fn rejects_wrong_format_and_bad_types() {
        assert!(PipelineSnapshot::from_json("{\"format\":\"other\"}").is_err());
        let snap = PipelineSnapshot {
            schema: vec!["name".into()],
            attr_types: vec![AttrType::StrShort],
            index: IndexConfig {
                attr: 3,
                ..Default::default()
            },
            model: SnapshotModel::Dedup(tiny_model()),
            bootstrap: vec![BaseTable { len: 0, digest: 0 }],
            bootstrap_pairs: Vec::new(),
            tombstones: Vec::new(),
            epoch: 0,
        };
        let text = snap.to_json();
        assert!(
            PipelineSnapshot::from_json(&text).is_err(),
            "blocking attr outside the schema must be rejected"
        );
        let no_cap = PipelineSnapshot {
            index: IndexConfig {
                max_bucket: 0,
                ..Default::default()
            },
            ..snap.clone()
        };
        let err = PipelineSnapshot::from_json(&no_cap.to_json())
            .expect_err("a zero bucket cap must be rejected");
        assert!(
            err.to_string().contains("max_bucket must be at least 1"),
            "{err}"
        );
        let repeated = PipelineSnapshot {
            schema: vec!["name".into(), "year".into(), "name".into()],
            attr_types: vec![AttrType::StrShort; 3],
            index: IndexConfig::default(),
            ..snap
        };
        let err = PipelineSnapshot::from_json(&repeated.to_json())
            .expect_err("a repeated schema name must be rejected");
        assert!(
            err.to_string()
                .contains("duplicate schema attribute name \"name\""),
            "{err}"
        );
    }

    #[test]
    fn rejects_out_of_range_bootstrap_pairs() {
        let snap = PipelineSnapshot {
            schema: vec!["name".into()],
            attr_types: vec![AttrType::StrShort],
            index: IndexConfig::default(),
            model: SnapshotModel::Dedup(tiny_model()),
            bootstrap: vec![BaseTable { len: 2, digest: 0 }],
            bootstrap_pairs: vec![(0, 5)],
            tombstones: Vec::new(),
            epoch: 0,
        };
        assert!(
            PipelineSnapshot::from_json(&snap.to_json()).is_err(),
            "pair index beyond bootstrap.len must be rejected"
        );
    }
}
