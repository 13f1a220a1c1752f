//! The bulk pair featurizer, built on the shared record-derivation
//! layer (`zeroer_textsim::derive`).

use crate::registry::{functions_for, SetBag, SimFunction};
use std::collections::hash_map::{Entry, HashMap};
use zeroer_linalg::block::GroupLayout;
use zeroer_linalg::stats::{apply_min_max, min_max_normalize};
use zeroer_linalg::{ColMatrix, Matrix};
use zeroer_tabular::table::infer_joint_types;
use zeroer_tabular::{AttrType, Table};
use zeroer_textsim::derive::{AttrDerived, DeriveConfig, DerivedRecord, Deriver};
use zeroer_textsim::intern::Interner;
use zeroer_textsim::{
    exact_match_lowercase, jaro_winkler_with, monge_elkan_fixed_with, monge_elkan_with,
    set_counts_fixed_with, EditCounts, FixedBag, SetCounts, SimScratch, TokenBag,
};

/// The output of feature generation: the `N × d` similarity matrix plus
/// the grouping metadata ZeroER's block-diagonal covariance needs.
#[derive(Debug, Clone)]
pub struct FeatureSet {
    /// `N × d` feature matrix, one row per candidate pair.
    pub matrix: Matrix,
    /// Columns grouped by source attribute (§3.2).
    pub layout: GroupLayout,
    /// Magellan-style feature names, e.g. `title_jac_qgm3`.
    pub names: Vec<String>,
    /// Min-max ranges recorded by [`FeatureSet::normalize`], if called.
    pub ranges: Option<Vec<(f64, f64)>>,
    /// Per-column means used to impute missing similarities (0 for
    /// all-missing columns) — the replay state frozen-model scoring needs
    /// to treat unseen pairs like training pairs.
    pub impute_means: Vec<f64>,
}

impl FeatureSet {
    /// Number of pairs (rows).
    pub fn len(&self) -> usize {
        self.matrix.rows()
    }

    /// Whether there are no pairs.
    pub fn is_empty(&self) -> bool {
        self.matrix.rows() == 0
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.matrix.cols()
    }

    /// Min-max normalizes every column to `[0, 1]` in place (§6),
    /// recording the ranges for [`FeatureSet::normalize_like`].
    pub fn normalize(&mut self) {
        self.ranges = Some(min_max_normalize(&mut self.matrix));
    }

    /// Normalizes with ranges learned elsewhere (e.g. applying a
    /// train-fraction fit to the full dataset, Figure 4(c)).
    pub fn normalize_like(&mut self, other: &FeatureSet) {
        let ranges = other
            .ranges
            .as_ref()
            .expect("normalize_like requires `other` to be normalized first");
        apply_min_max(&mut self.matrix, ranges);
        self.ranges = Some(ranges.clone());
    }

    /// A row-subset copy (used by the sensitivity experiments).
    pub fn subset(&self, rows: &[usize]) -> FeatureSet {
        let d = self.dim();
        let mut data = Vec::with_capacity(rows.len() * d);
        for &r in rows {
            data.extend_from_slice(self.matrix.row(r));
        }
        FeatureSet {
            matrix: Matrix::from_vec(rows.len(), d, data),
            layout: self.layout.clone(),
            names: self.names.clone(),
            ranges: self.ranges.clone(),
            impute_means: self.impute_means.clone(),
        }
    }
}

/// Computes one similarity value from two derived attributes, `NaN`
/// when either side is missing, through the allocating kernels. This is
/// the scalar oracle behind [`RowFeaturizer::raw_row_into`], which the
/// parity suites hold the bulk paths to; both attributes must come from
/// derivations over `interner`.
fn sim_value(f: SimFunction, interner: &Interner, l: &AttrDerived, r: &AttrDerived) -> f64 {
    if !(l.present && r.present) {
        return f64::NAN;
    }
    match f {
        SimFunction::AbsDiff => match (l.number, r.number) {
            (Some(x), Some(y)) => zeroer_textsim::abs_diff_sim(x, y),
            _ => f64::NAN,
        },
        SimFunction::RelDiff => match (l.number, r.number) {
            (Some(x), Some(y)) => zeroer_textsim::rel_diff_sim(x, y),
            _ => f64::NAN,
        },
        SimFunction::JaccardQgm3 | SimFunction::CosineQgm3 => {
            f.apply_tokens(interner, &l.qgm3, &r.qgm3)
        }
        SimFunction::JaccardWord
        | SimFunction::CosineWord
        | SimFunction::DiceWord
        | SimFunction::OverlapWord
        | SimFunction::MongeElkan => f.apply_tokens(interner, &l.word, &r.word),
        _ => f.apply_text(&l.text, &r.text),
    }
}

/// [`sim_value`] with the allocation-heavy kernels routed through
/// `scratch`-reusing or non-allocating variants: the per-pair dispatcher
/// of [`BatchFeaturizer::fill_columns`], the one bulk fill path, for
/// every column it has no batch form for. Bit-identical to [`sim_value`]
/// (the allocating kernels delegate to the same `*_with` code with a
/// fresh scratch, and [`exact_match_lowercase`] equals the lowercased
/// comparison); strictly faster in a loop because the buffers are
/// reused across calls.
fn sim_value_with(
    scratch: &mut SimScratch,
    f: SimFunction,
    interner: &Interner,
    l: &AttrDerived,
    r: &AttrDerived,
) -> f64 {
    if !(l.present && r.present) {
        return f64::NAN;
    }
    match f {
        SimFunction::JaroWinkler => jaro_winkler_with(scratch, &l.text, &r.text),
        SimFunction::MongeElkan => monge_elkan_with(scratch, interner, &l.word, &r.word),
        SimFunction::ExactMatch => exact_match_lowercase(&l.text, &r.text),
        _ => sim_value(f, interner, l, r),
    }
}

/// Generates similarity features for candidate pairs between two tables
/// (or one table against itself for dedup).
///
/// The featurizer owns the tables' **derivation**: one interner shared
/// by both sides and one [`DerivedRecord`] per record, produced in a
/// single pass. When left and right are the same table (`dedup`), the
/// table is derived once, and callers that also need blocking keys can
/// request them through [`PairFeaturizer::with_config`] — batch
/// blocking then consumes [`PairFeaturizer::left_derived`] /
/// [`PairFeaturizer::right_derived`] instead of re-tokenizing, and the
/// streaming bootstrap hands the whole derivation to the entity store
/// via [`PairFeaturizer::into_parts`].
pub struct PairFeaturizer {
    attr_names: Vec<String>,
    /// The inferred types' feature layout and the fill path
    /// [`PairFeaturizer::featurize`] runs through.
    batch: BatchFeaturizer,
    interner: Interner,
    left: Vec<DerivedRecord>,
    /// `None` when featurizing a table against itself (derived once).
    right: Option<Vec<DerivedRecord>>,
}

impl PairFeaturizer {
    /// Builds the featurizer: infers joint attribute types, selects
    /// function sets, and derives both tables (no blocking keys).
    ///
    /// # Panics
    /// Panics if the schemas are not aligned.
    pub fn new(left: &Table, right: &Table) -> Self {
        Self::with_config(left, right, DeriveConfig::default())
    }

    /// [`PairFeaturizer::new`] with an explicit derivation configuration
    /// — pass a blocking [`zeroer_textsim::derive::BlockSpec`] to get
    /// blocking keys extracted in the same pass.
    ///
    /// # Panics
    /// Panics if the schemas are not aligned, or if `cfg` blocks on an
    /// attribute the schema lacks (a misconfiguration that would
    /// otherwise silently derive empty key sets for every record).
    pub fn with_config(left: &Table, right: &Table, cfg: DeriveConfig) -> Self {
        if let Some(block) = &cfg.block {
            assert!(
                block.attr < left.schema().arity(),
                "blocking attribute {} out of range for arity {}",
                block.attr,
                left.schema().arity()
            );
        }
        let batch = BatchFeaturizer::new(&infer_joint_types(left, right));
        let mut deriver = Deriver::new(cfg);
        let left_recs: Vec<DerivedRecord> = left
            .records()
            .iter()
            .map(|r| deriver.derive(&r.values))
            .collect();
        let right_recs = if std::ptr::eq(left, right) {
            None
        } else {
            Some(
                right
                    .records()
                    .iter()
                    .map(|r| deriver.derive(&r.values))
                    .collect(),
            )
        };
        Self {
            attr_names: left.schema().attributes().to_vec(),
            batch,
            interner: deriver.into_interner(),
            left: left_recs,
            right: right_recs,
        }
    }

    /// Inferred attribute types (aligned with the schema).
    pub fn attr_types(&self) -> &[AttrType] {
        self.batch.attr_types()
    }

    /// The shared interner both tables were derived against.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The left table's derivation.
    pub fn left_derived(&self) -> &[DerivedRecord] {
        &self.left
    }

    /// The right table's derivation (the left one for dedup
    /// featurizers).
    pub fn right_derived(&self) -> &[DerivedRecord] {
        self.right.as_deref().unwrap_or(&self.left)
    }

    /// Consumes a *dedup* featurizer, yielding its interner and derived
    /// records — the bootstrap path hands these to the streaming entity
    /// store so records are derived exactly once.
    ///
    /// # Panics
    /// Panics on a cross-table featurizer.
    pub fn into_parts(self) -> (Interner, Vec<DerivedRecord>) {
        assert!(
            self.right.is_none(),
            "into_parts is only meaningful for dedup featurizers"
        );
        (self.interner, self.left)
    }

    /// Consumes a *cross-table* featurizer, yielding its interner and
    /// both tables' derived records — the streaming-linkage bootstrap
    /// hands these to the entity store so neither table is derived
    /// twice, and both sides' token bags stay directly comparable (one
    /// symbol space).
    ///
    /// # Panics
    /// Panics on a dedup featurizer (use [`PairFeaturizer::into_parts`]).
    pub fn into_parts_cross(self) -> (Interner, Vec<DerivedRecord>, Vec<DerivedRecord>) {
        let right = self
            .right
            .expect("into_parts_cross is only meaningful for cross-table featurizers");
        (self.interner, self.left, right)
    }

    /// Total feature dimensionality.
    pub fn dim(&self) -> usize {
        self.batch.dim()
    }

    /// Feature group sizes, one per attribute (the §3.2 grouping).
    pub fn group_sizes(&self) -> &[usize] {
        self.batch.group_sizes()
    }

    /// Generated feature names, `<attr>_<fn>` in column order.
    pub fn feature_names(&self) -> Vec<String> {
        let mut names = Vec::with_capacity(self.dim());
        for (attr, funcs) in self.attr_names.iter().zip(&self.batch.row.functions) {
            for f in *funcs {
                names.push(format!("{attr}_{}", f.short_name()));
            }
        }
        names
    }

    /// Generates the feature matrix for `pairs` (record *indices* into the
    /// left/right tables), parallelized over row chunks.
    ///
    /// Each chunk's worker fills every run of consecutive pairs that
    /// share a left record through [`BatchFeaturizer::fill_columns`] —
    /// the streaming score path, so a run gets its fixed-side memo and
    /// per-value dedup — and copies the columns into its rows. One
    /// [`FillScratch`] and one column buffer per worker serve every run,
    /// so the fill stops allocating once they have grown. The values are
    /// bit-identical to [`RowFeaturizer::raw_row_into`]'s before
    /// imputation.
    ///
    /// Missing similarities (`NaN`) are imputed with the column mean of
    /// the computable rows; an all-missing column becomes all zeros.
    pub fn featurize(&self, pairs: &[(usize, usize)]) -> FeatureSet {
        let n = pairs.len();
        let d = self.dim();
        let mut data = vec![0.0f64; n * d];

        let threads = std::thread::available_parallelism()
            .map_or(1, |p| p.get())
            .min(8);
        let chunk_rows = n.div_ceil(threads.max(1)).max(1);
        let right = self.right_derived();
        crossbeam::thread::scope(|scope| {
            for (chunk, out_chunk) in pairs
                .chunks(chunk_rows)
                .zip(data.chunks_mut(chunk_rows * d))
            {
                scope.spawn(move |_| {
                    let mut scratch = FillScratch::new();
                    let mut cols = ColMatrix::new();
                    let mut start = 0;
                    for run in chunk.chunk_by(|x, y| x.0 == y.0) {
                        self.batch.fill_columns(
                            &mut scratch,
                            &self.interner,
                            run.len(),
                            |i| (&self.left[run[i].0], &right[run[i].1]),
                            &mut cols,
                        );
                        let rows = &mut out_chunk[start * d..(start + run.len()) * d];
                        for j in 0..d {
                            for (v, &x) in rows[j..].iter_mut().step_by(d).zip(cols.col(j)) {
                                *v = x;
                            }
                        }
                        start += run.len();
                    }
                });
            }
        })
        .expect("feature generation thread panicked");

        let mut matrix = Matrix::from_vec(n, d, data);
        let impute_means = impute_column_means(&mut matrix);

        FeatureSet {
            matrix,
            layout: GroupLayout::from_sizes(self.group_sizes()),
            names: self.feature_names(),
            ranges: None,
            impute_means,
        }
    }
}

/// A featurizer frozen to a fixed attribute-type assignment, producing
/// raw feature rows for *individual* record pairs from per-record
/// derivations.
///
/// This is the streaming counterpart of [`PairFeaturizer`]: the batch
/// path infers attribute types jointly over full tables, while the
/// streaming path must keep the bootstrap-time types (and therefore the
/// exact feature layout) fixed no matter what arrives later.
#[derive(Debug, Clone)]
pub struct RowFeaturizer {
    attr_types: Vec<AttrType>,
    functions: Vec<&'static [SimFunction]>,
    /// Cached per-attribute function counts — computed once so the hot
    /// paths that need the §3.2 grouping never allocate for it.
    group_sizes: Vec<usize>,
    dim: usize,
}

impl RowFeaturizer {
    /// Builds a featurizer for a frozen attribute-type assignment.
    pub fn new(attr_types: &[AttrType]) -> Self {
        let functions: Vec<&'static [SimFunction]> =
            attr_types.iter().map(|&t| functions_for(t)).collect();
        let group_sizes: Vec<usize> = functions.iter().map(|f| f.len()).collect();
        let dim = group_sizes.iter().sum();
        Self {
            attr_types: attr_types.to_vec(),
            functions,
            group_sizes,
            dim,
        }
    }

    /// The frozen attribute types.
    pub fn attr_types(&self) -> &[AttrType] {
        &self.attr_types
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Feature group sizes, one per attribute (cached at construction).
    pub fn group_sizes(&self) -> &[usize] {
        &self.group_sizes
    }

    /// One pair's raw feature row (`NaN` marks not-computable entries).
    /// Both records must be derived against `interner`.
    ///
    /// # Panics
    /// Panics if either record's arity differs from the frozen types.
    pub fn raw_row(
        &self,
        interner: &Interner,
        left: &DerivedRecord,
        right: &DerivedRecord,
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dim);
        self.raw_row_into(interner, left, right, &mut out);
        out
    }

    /// Fills `out` with one pair's raw feature row, reusing the buffer's
    /// allocation — the scoring hot loop calls this once per candidate
    /// with a per-worker buffer, making steady-state scoring
    /// allocation-free (see `bench_stream` for the measured delta).
    ///
    /// # Panics
    /// Panics if either record's arity differs from the frozen types.
    pub fn raw_row_into(
        &self,
        interner: &Interner,
        left: &DerivedRecord,
        right: &DerivedRecord,
        out: &mut Vec<f64>,
    ) {
        assert_eq!(
            left.arity(),
            self.functions.len(),
            "left record arity mismatch"
        );
        assert_eq!(
            right.arity(),
            self.functions.len(),
            "right record arity mismatch"
        );
        out.clear();
        out.reserve(self.dim);
        for (a, funcs) in self.functions.iter().enumerate() {
            let (l, r) = (left.attr(a), right.attr(a));
            for &f in *funcs {
                out.push(sim_value(f, interner, l, r));
            }
        }
    }
}

/// The struct-of-arrays batch counterpart of [`RowFeaturizer`]: gathers
/// N candidate pairs and fills a column-major feature matrix one feature
/// column at a time.
///
/// Filling by column instead of by row buys two things on the scoring
/// hot path: work that depends on one attribute pair is done once for
/// all the columns that read it, and each similarity kernel writes a
/// contiguous stripe the autovectorizer can work with. The values are
/// the exact `sim_value` outputs of [`RowFeaturizer::raw_row_into`] —
/// where a column shares work across pairs, the shared parts are the
/// same float operations on the same operands — so transposing the
/// resulting matrix reproduces the scalar rows bit-for-bit. See
/// `crates/features/README.md` for the design note.
#[derive(Debug, Clone)]
pub struct BatchFeaturizer {
    row: RowFeaturizer,
}

/// The reusable buffers of [`BatchFeaturizer::fill_columns`]: the
/// kernels' [`SimScratch`] (DP buffers, the Monge-Elkan memo, the
/// set-count bitset) and the fill's per-attribute slot tables and value
/// columns. Keep one per ingest path, parallel worker, read handle or
/// featurize worker; once its buffers have grown to the largest batch
/// they have served, a fill allocates only to lowercase non-ASCII texts
/// for exact match ([`exact_match_lowercase`]).
#[derive(Debug, Default)]
pub struct FillScratch {
    kernels: SimScratch,
    /// Value key → the first slot of a value with that key.
    slot_by_key: HashMap<u64, u32>,
    /// Each pair's slot.
    slot_of: Vec<u32>,
    /// Each slot's representative: the first pair carrying its value.
    reps: Vec<u32>,
    /// Whether both sides of each slot are present.
    present: Vec<bool>,
    /// Each slot's q-gram and word set counts, and its edit counts.
    qgm_counts: Vec<SetCounts>,
    word_counts: Vec<SetCounts>,
    edit_counts: Vec<EditCounts>,
    /// One column's values, one per slot.
    vals: Vec<f64>,
}

impl FillScratch {
    /// Empty buffers; they grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

impl BatchFeaturizer {
    /// Builds a batch featurizer for a frozen attribute-type assignment.
    pub fn new(attr_types: &[AttrType]) -> Self {
        Self {
            row: RowFeaturizer::new(attr_types),
        }
    }

    /// Wraps an existing [`RowFeaturizer`], sharing its frozen layout.
    pub fn from_row(row: RowFeaturizer) -> Self {
        Self { row }
    }

    /// The scalar row featurizer this batch featurizer wraps: the oracle
    /// the batched-vs-scalar parity suites compare
    /// [`BatchFeaturizer::fill_columns`] against, row by row.
    pub fn row(&self) -> &RowFeaturizer {
        &self.row
    }

    /// The frozen attribute types.
    pub fn attr_types(&self) -> &[AttrType] {
        self.row.attr_types()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.row.dim()
    }

    /// Feature group sizes, one per attribute.
    pub fn group_sizes(&self) -> &[usize] {
        self.row.group_sizes()
    }

    /// Fills `out` with the raw feature matrix of `n` candidate pairs,
    /// column-major: `out[(i, j)]` is feature `j` of the pair
    /// `pair_of(i)`. `NaN` marks not-computable entries, exactly like
    /// [`RowFeaturizer::raw_row_into`]. The matrix is reshaped in place,
    /// so a reused `out` stops allocating once it has seen its largest
    /// batch, and so does the fill itself (see [`FillScratch`]): its
    /// buffers and the kernels' live in `scratch`, which also carries
    /// the Monge-Elkan memo between calls.
    ///
    /// This is the one bulk fill path: streaming ingest and resolve call
    /// it with one record against its candidate list, and
    /// [`PairFeaturizer::featurize`] with each run of pairs that share a
    /// left record. Its optimizations ride on the column-major shape,
    /// and each preserves bit-identity with the scalar path:
    ///
    /// * the sequence kernels (Levenshtein, Jaro-Winkler,
    ///   Needleman-Wunsch, Monge-Elkan) run through `scratch` instead of
    ///   allocating DP buffers per pair, and exact match compares ASCII
    ///   texts without lowercased copies ([`exact_match_lowercase`]);
    /// * the set measures over one attribute's q-gram bags, and those
    ///   over its word bags, share one intersection count per pair
    ///   ([`SetCounts`]), counted against a bitset of one side's bag
    ///   ([`set_counts_fixed_with`]); normalized Levenshtein and
    ///   Needleman-Wunsch share one edit distance ([`EditCounts`]);
    /// * when one side of every pair is the *same* record — detected by
    ///   pointer identity — duplicate values on the varying side are
    ///   detected per attribute by their derived value key
    ///   ([`AttrDerived::key`], confirmed by comparing the values), and
    ///   each distinct value's similarities are computed once, then
    ///   scattered to every pair that shares the value. Identical inputs
    ///   produce identical bits, so copying is exact; low-cardinality
    ///   attributes (city, category, price bands) collapse to a handful
    ///   of kernel evaluations per column;
    /// * with that fixed side, the set counts mark the fixed bag once,
    ///   and Monge-Elkan memoizes its Jaro-Winkler work per token across
    ///   the batch and reads each outer bag's stored text order
    ///   ([`monge_elkan_fixed_with`]).
    ///
    /// All records must be derived against `interner`.
    ///
    /// # Panics
    /// Panics if any record's arity differs from the frozen types.
    pub fn fill_columns<'a, F>(
        &self,
        scratch: &mut FillScratch,
        interner: &Interner,
        n: usize,
        pair_of: F,
        out: &mut ColMatrix,
    ) where
        F: Fn(usize) -> (&'a DerivedRecord, &'a DerivedRecord),
    {
        out.reset(n, self.row.dim);
        let arity = self.row.functions.len();
        let pairs = u32::try_from(n).expect("fewer than 2^32 pairs per fill");

        // One fixed record against every candidate, named by its
        // Monge-Elkan role: the left record's bag is the outer one.
        // Detected by pointer identity, which is exact and free of false
        // positives — and the only shape where per-attribute value
        // deduplication on the varying side is sound without comparing
        // the fixed side too.
        let (mut same_left, mut same_right) = (n >= 2, n >= 2);
        let mut first = None;
        for i in 0..n {
            let (l, r) = pair_of(i);
            assert_eq!(l.arity(), arity, "left record {i} arity mismatch");
            assert_eq!(r.arity(), arity, "right record {i} arity mismatch");
            let (l0, r0) = *first.get_or_insert((l, r));
            same_left &= std::ptr::eq(l, l0);
            same_right &= std::ptr::eq(r, r0);
        }
        let fixed = if same_left {
            Some(FixedBag::Outer)
        } else if same_right {
            Some(FixedBag::Inner)
        } else {
            None
        };

        let FillScratch {
            kernels,
            slot_by_key,
            slot_of,
            reps,
            present,
            qgm_counts,
            word_counts,
            edit_counts,
            vals,
        } = scratch;
        let mut col = 0;
        for (a, funcs) in self.row.functions.iter().enumerate() {
            let attrs = |i: u32| {
                let (l, r) = pair_of(i as usize);
                (l.attr(a), r.attr(a))
            };

            // Per-attribute slots: `slot_of[i]` maps pair `i` to its
            // value slot, `reps[slot]` is the first pair carrying the
            // value. Without a fixed side every pair is its own slot.
            slot_by_key.clear();
            slot_of.clear();
            reps.clear();
            present.clear();
            for i in 0..pairs {
                let (l, r) = attrs(i);
                if let Some(side) = fixed {
                    let v = by_side(side, (l, r)).1;
                    match slot_by_key.entry(v.key()) {
                        Entry::Occupied(e) => {
                            let s = *e.get();
                            if same_value(by_side(side, attrs(reps[s as usize])).1, v) {
                                slot_of.push(s);
                                continue;
                            }
                        }
                        Entry::Vacant(e) => {
                            e.insert(reps.len() as u32);
                        }
                    }
                }
                slot_of.push(reps.len() as u32);
                reps.push(i);
                present.push(l.present && r.present);
            }

            // Every set measure over one bag reads the same intersection,
            // and the Levenshtein-based measures the same distance.
            let needs = |bag| {
                funcs
                    .iter()
                    .any(|f| f.set_measure().is_some_and(|(b, _)| b == bag))
            };
            qgm_counts.clear();
            if needs(SetBag::Qgm3) {
                slot_set_counts(
                    kernels,
                    interner,
                    fixed,
                    reps,
                    attrs,
                    |x| &x.qgm3,
                    qgm_counts,
                );
            }
            word_counts.clear();
            if needs(SetBag::Word) {
                slot_set_counts(
                    kernels,
                    interner,
                    fixed,
                    reps,
                    attrs,
                    |x| &x.word,
                    word_counts,
                );
            }
            edit_counts.clear();
            if funcs.iter().any(|f| f.edit_measure().is_some()) {
                edit_counts.extend(reps.iter().map(|&p| {
                    let (l, r) = attrs(p);
                    EditCounts::with(kernels, &l.text, &r.text)
                }));
            }

            for &f in *funcs {
                vals.clear();
                if let Some((bag, measure)) = f.set_measure() {
                    let counts = match bag {
                        SetBag::Qgm3 => &*qgm_counts,
                        SetBag::Word => &*word_counts,
                    };
                    vals.extend(counts.iter().map(|&c| measure(c)));
                } else if let Some(measure) = f.edit_measure() {
                    vals.extend(edit_counts.iter().map(|&c| measure(c)));
                } else if let (SimFunction::MongeElkan, Some(side)) = (f, fixed) {
                    let fixed_attr = by_side(side, attrs(reps[0])).0;
                    let others = reps.iter().map(|&p| by_side(side, attrs(p)).1);
                    monge_elkan_fixed_with(kernels, interner, fixed_attr, side, others, vals);
                } else {
                    vals.extend(reps.iter().map(|&p| {
                        let (l, r) = attrs(p);
                        sim_value_with(kernels, f, interner, l, r)
                    }));
                }
                for (v, &ok) in vals.iter_mut().zip(present.iter()) {
                    if !ok {
                        *v = f64::NAN;
                    }
                }
                for (o, &s) in out.col_mut(col).iter_mut().zip(slot_of.iter()) {
                    *o = vals[s as usize];
                }
                col += 1;
            }
        }
    }
}

/// Appends the set counts of each slot's bag pair to `out`, `bag`
/// picking the bag. With a fixed side, one batch call marks the fixed
/// bag once; without one, each pair marks its own left bag.
fn slot_set_counts<'a>(
    kernels: &mut SimScratch,
    interner: &Interner,
    fixed: Option<FixedBag>,
    reps: &[u32],
    attrs: impl Fn(u32) -> (&'a AttrDerived, &'a AttrDerived),
    bag: impl Fn(&'a AttrDerived) -> &'a TokenBag,
    out: &mut Vec<SetCounts>,
) {
    match fixed {
        Some(side) => {
            let fixed_bag = bag(by_side(side, attrs(reps[0])).0);
            let others = reps.iter().map(|&p| bag(by_side(side, attrs(p)).1));
            set_counts_fixed_with(kernels, interner, fixed_bag, side, others, out);
        }
        None => {
            for &p in reps {
                let (l, r) = attrs(p);
                set_counts_fixed_with(kernels, interner, bag(l), FixedBag::Outer, [bag(r)], out);
            }
        }
    }
}

/// A pair's `(fixed, varying)` sides in a batch whose `side` is fixed
/// (the left record is Monge-Elkan's outer side).
fn by_side<T>(side: FixedBag, (l, r): (T, T)) -> (T, T) {
    match side {
        FixedBag::Outer => (l, r),
        FixedBag::Inner => (r, l),
    }
}

/// Whether every input a similarity kernel reads is equal between two
/// derived values: presence, number bits, text and both token bags. A
/// value-key match alone does not show this (see [`AttrDerived::key`]).
fn same_value(x: &AttrDerived, y: &AttrDerived) -> bool {
    x.present == y.present
        && x.number.map(f64::to_bits) == y.number.map(f64::to_bits)
        && x.text == y.text
        && x.qgm3 == y.qgm3
        && x.word == y.word
}

/// Replaces NaN entries with the column mean of the non-NaN entries
/// (0 when the entire column is NaN), returning the per-column means
/// applied.
///
/// Both passes walk the row-major matrix row by row (per-column
/// accumulators instead of a column-outer loop), so large feature
/// matrices stream through cache linearly. Each column's additions still
/// happen in ascending-row order, so the means are bit-identical to the
/// column-at-a-time formulation.
fn impute_column_means(m: &mut Matrix) -> Vec<f64> {
    let (n, d) = (m.rows(), m.cols());
    let mut sums = vec![0.0f64; d];
    let mut cnts = vec![0usize; d];
    for i in 0..n {
        for ((&v, sum), cnt) in m.row(i).iter().zip(&mut sums).zip(&mut cnts) {
            if v.is_finite() {
                *sum += v;
                *cnt += 1;
            }
        }
    }
    let means: Vec<f64> = sums
        .iter()
        .zip(&cnts)
        .map(|(&s, &c)| if c > 0 { s / c as f64 } else { 0.0 })
        .collect();
    for i in 0..n {
        for (v, &mean) in m.row_mut(i).iter_mut().zip(&means) {
            if !v.is_finite() {
                *v = mean;
            }
        }
    }
    means
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroer_tabular::{Record, Schema, Value};
    use zeroer_textsim::normalize;

    fn restaurant_tables() -> (Table, Table) {
        let schema = Schema::new(["name", "city", "year"]);
        let mut l = Table::new("l", schema.clone());
        l.push(Record::new(
            0,
            vec![
                "Ritz Carlton Cafe".into(),
                "new york".into(),
                Value::Int(1999),
            ],
        ));
        l.push(Record::new(
            1,
            vec!["Joe's Diner".into(), "boston".into(), Value::Int(2005)],
        ));
        let mut r = Table::new("r", schema);
        r.push(Record::new(
            0,
            vec![
                "Ritz-Carlton Café".into(),
                "new york city".into(),
                Value::Int(1999),
            ],
        ));
        r.push(Record::new(
            1,
            vec!["Completely Different".into(), "seattle".into(), Value::Null],
        ));
        (l, r)
    }

    #[test]
    fn featurizer_shapes_and_names() {
        let (l, r) = restaurant_tables();
        let fz = PairFeaturizer::new(&l, &r);
        assert_eq!(fz.group_sizes().len(), 3);
        assert_eq!(fz.feature_names().len(), fz.dim());
        assert!(fz.feature_names()[0].starts_with("name_"));
        // Year is numeric → 3 functions.
        assert_eq!(*fz.group_sizes().last().unwrap(), 3);
    }

    #[test]
    fn matching_pair_scores_higher_than_nonmatching() {
        let (l, r) = restaurant_tables();
        let fz = PairFeaturizer::new(&l, &r);
        let fs = fz.featurize(&[(0, 0), (0, 1), (1, 1)]);
        assert_eq!(fs.len(), 3);
        let row_match: f64 = fs.matrix.row(0).iter().sum();
        let row_non: f64 = fs.matrix.row(1).iter().sum();
        assert!(
            row_match > row_non,
            "near-duplicate pair must out-score a non-match ({row_match} vs {row_non})"
        );
    }

    #[test]
    fn missing_values_are_imputed_not_nan() {
        let (l, r) = restaurant_tables();
        let fz = PairFeaturizer::new(&l, &r);
        // Pair (1,1) has a null year on the right → numeric features NaN
        // pre-imputation; afterwards every entry must be finite.
        let fs = fz.featurize(&[(0, 0), (1, 1)]);
        assert!(!fs.matrix.has_non_finite());
    }

    #[test]
    fn normalize_bounds_features() {
        let (l, r) = restaurant_tables();
        let fz = PairFeaturizer::new(&l, &r);
        let mut fs = fz.featurize(&[(0, 0), (0, 1), (1, 0), (1, 1)]);
        fs.normalize();
        for i in 0..fs.len() {
            for &v in fs.matrix.row(i) {
                assert!((0.0..=1.0).contains(&v));
            }
        }
        assert!(fs.ranges.is_some());
    }

    #[test]
    fn empty_pair_list_yields_empty_set() {
        let (l, r) = restaurant_tables();
        let fz = PairFeaturizer::new(&l, &r);
        let fs = fz.featurize(&[]);
        assert!(fs.is_empty());
        assert_eq!(fs.dim(), fz.dim());
    }

    #[test]
    fn subset_selects_rows() {
        let (l, r) = restaurant_tables();
        let fz = PairFeaturizer::new(&l, &r);
        let fs = fz.featurize(&[(0, 0), (0, 1), (1, 1)]);
        let sub = fs.subset(&[2, 0]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.matrix.row(0), fs.matrix.row(2));
        assert_eq!(sub.matrix.row(1), fs.matrix.row(0));
    }

    #[test]
    fn dedup_self_featurization_works() {
        let (l, _) = restaurant_tables();
        let fz = PairFeaturizer::new(&l, &l);
        assert!(
            fz.right.is_none(),
            "same table on both sides must be derived once"
        );
        let fs = fz.featurize(&[(0, 1)]);
        assert_eq!(fs.len(), 1);
        // Identical record compared with itself scores 1 everywhere.
        let fs_self = fz.featurize(&[(0, 0)]);
        for &v in fs_self.matrix.row(0) {
            assert!(
                (v - 1.0).abs() < 1e-9,
                "self-pair feature should be 1.0, got {v}"
            );
        }
    }

    #[test]
    fn batch_featurizer_columns_match_row_featurizer_bitwise() {
        let (l, r) = restaurant_tables();
        let fz = PairFeaturizer::with_config(&l, &r, DeriveConfig::blocking(0, 4));
        let row_fz = RowFeaturizer::new(fz.attr_types());
        let batch_fz = BatchFeaturizer::new(fz.attr_types());
        assert_eq!(batch_fz.dim(), row_fz.dim());
        assert_eq!(batch_fz.group_sizes(), row_fz.group_sizes());
        let pairs = [(0usize, 0usize), (1, 1), (0, 1), (1, 0)];
        let mut cols = ColMatrix::new();
        let mut scratch = FillScratch::new();
        batch_fz.fill_columns(
            &mut scratch,
            fz.interner(),
            pairs.len(),
            |i| {
                let (li, ri) = pairs[i];
                (&fz.left_derived()[li], &fz.right_derived()[ri])
            },
            &mut cols,
        );
        let mut buf = Vec::new();
        for (i, &(li, ri)) in pairs.iter().enumerate() {
            row_fz.raw_row_into(
                fz.interner(),
                &fz.left_derived()[li],
                &fz.right_derived()[ri],
                &mut buf,
            );
            for (j, &v) in buf.iter().enumerate() {
                assert_eq!(
                    cols.get(i, j).to_bits(),
                    v.to_bits(),
                    "row {i} col {j} (NaN patterns must match too)"
                );
            }
        }
        // Reuse with a smaller batch reshapes in place.
        batch_fz.fill_columns(
            &mut scratch,
            fz.interner(),
            1,
            |_| (&fz.left_derived()[0], &fz.right_derived()[0]),
            &mut cols,
        );
        assert_eq!(cols.rows(), 1);
        assert_eq!(cols.cols(), row_fz.dim());
        // Empty batches are legal (a record with no candidates).
        batch_fz.fill_columns(
            &mut scratch,
            fz.interner(),
            0,
            |_| unreachable!(),
            &mut cols,
        );
        assert_eq!(cols.rows(), 0);
    }

    /// Fills each record of `rows` against every other, with it fixed on
    /// the left and then on the right, and holds every cell to the
    /// scalar row's bits, NaN patterns included.
    fn assert_fixed_side_fills_match_rows(rows: &[(&str, &str, Value)]) {
        let schema = Schema::new(["name", "city", "year"]);
        let mut t = Table::new("t", schema);
        for (i, (name, city, year)) in rows.iter().enumerate() {
            t.push(Record::new(
                i as u32,
                vec![(*name).into(), (*city).into(), year.clone()],
            ));
        }
        let fz = PairFeaturizer::new(&t, &t);
        let batch_fz = BatchFeaturizer::new(fz.attr_types());
        let derived = fz.left_derived();
        let mut scratch = FillScratch::new();
        let (mut cols, mut buf) = (ColMatrix::new(), Vec::new());
        for fixed in 0..rows.len() {
            let candidates: Vec<usize> = (0..rows.len()).filter(|&c| c != fixed).collect();
            for new_on_left in [true, false] {
                let pair = |c: usize| {
                    if new_on_left {
                        (&derived[fixed], &derived[c])
                    } else {
                        (&derived[c], &derived[fixed])
                    }
                };
                batch_fz.fill_columns(
                    &mut scratch,
                    fz.interner(),
                    candidates.len(),
                    |i| pair(candidates[i]),
                    &mut cols,
                );
                for (i, &c) in candidates.iter().enumerate() {
                    let (l, r) = pair(c);
                    batch_fz.row().raw_row_into(fz.interner(), l, r, &mut buf);
                    for (j, &v) in buf.iter().enumerate() {
                        let b = cols.get(i, j);
                        assert_eq!(
                            v.to_bits(),
                            b.to_bits(),
                            "fixed={fixed} new_on_left={new_on_left} row {i} col {j}: {v} vs {b}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fixed_side_memoized_fill_matches_row_featurizer_bitwise() {
        // The streaming shape: one fixed record against a candidate list
        // with heavy value duplication (shared cities, repeated names,
        // nulls) — the batch fill must dedup per attribute yet reproduce
        // the scalar rows to the bit.
        assert_fixed_side_fills_match_rows(&[
            ("Ritz Carlton Cafe", "new york", Value::Int(1999)),
            ("Joe's Diner", "new york", Value::Int(2005)),
            ("Joe's Diner", "boston", Value::Null),
            ("Ritz-Carlton Café", "new york", Value::Int(1999)),
            ("Joe's Diner", "new york", Value::Int(2005)),
            ("Totally Other", "boston", Value::Null),
        ]);
    }

    #[test]
    fn fixed_side_slots_survive_unicode_case_folding() {
        // Equal lowercased texts, hence equal value keys, over different
        // token bags: `"ΟΔΟΣ"` lowercases to `"οδος"` (final sigma) but
        // normalizes to the token `"οδοσ"`, and `"İstanbul"` lowercases
        // to `"i̇stanbul"` but splits at the combining dot. A fill that
        // shared a slot on the key alone would copy one value's set
        // measures to the other.
        let (i_dot, i_dot_lower) = ("İstanbul", "i\u{307}stanbul");
        assert_ne!(normalize(i_dot), normalize(i_dot_lower));
        assert_eq!(i_dot.to_lowercase(), i_dot_lower.to_lowercase());
        assert_ne!(normalize("ΟΔΟΣ"), normalize("οδος"));
        assert_eq!("ΟΔΟΣ".to_lowercase(), "οδος".to_lowercase());
        assert_fixed_side_fills_match_rows(&[
            ("ΟΔΟΣ", i_dot, Value::Int(1)),
            ("οδος", i_dot_lower, Value::Int(1)),
            ("ΟΔΟΣ", i_dot_lower, Value::Null),
            ("οδος", i_dot, Value::Int(2)),
            ("Οδος", "istanbul", Value::Int(1)),
            ("ΟΔΟΣ", i_dot, Value::Int(1)),
            ("οδος", i_dot_lower, Value::Null),
        ]);
    }

    #[test]
    fn row_featurizer_matches_batch_rows_bitwise() {
        let (l, r) = restaurant_tables();
        let fz = PairFeaturizer::with_config(&l, &r, DeriveConfig::blocking(0, 4));
        let fs = fz.featurize(&[(0, 0), (1, 1), (0, 1)]);
        let row_fz = RowFeaturizer::new(fz.attr_types());
        for (i, &(li, ri)) in [(0usize, 0usize), (1, 1), (0, 1)].iter().enumerate() {
            let raw = row_fz.raw_row(
                fz.interner(),
                &fz.left_derived()[li],
                &fz.right_derived()[ri],
            );
            for (j, &v) in raw.iter().enumerate() {
                let batch = fs.matrix[(i, j)];
                if v.is_nan() {
                    // Batch imputes missing entries; raw rows keep NaN.
                    continue;
                }
                assert_eq!(v.to_bits(), batch.to_bits(), "row {i} col {j}");
            }
        }
    }
}
