//! Paper-scale synthetic corpora with exact ground truth.
//!
//! The profile generators in [`crate::dataset`] reproduce the paper's six
//! benchmark datasets, whose sizes are fixed by Table 1 (`scale` can only
//! shrink them). This module is the opposite direction: an **open-ended**
//! corpus synthesizer for scale testing — scale 1 is tens of thousands of
//! records, scale 100 is millions — with the properties the ROADMAP's
//! "production scale" work needs:
//!
//! * **skewed (Zipfian) token distributions**: token ranks are drawn from
//!   a Zipf law, so blocking sees the real-world shape — a few stop-word
//!   buckets that blow past the frequency cap plus a long tail of rare
//!   discriminative tokens. The vocabulary grows with the corpus so
//!   larger scales genuinely stress the interner;
//! * a **mixed text/numeric schema** (`name, category, description,
//!   quantity, price`) exercising every featurizer path;
//! * a **controlled duplicate rate**: exactly `round(n · duplicate_rate)`
//!   records are corrupted copies of a base entity, so accuracy against
//!   the emitted ground truth is exact, not hand-labeled;
//! * **typo / abbreviation / token-drop / field-swap corruption** of the
//!   duplicates (numeric jitter included), reusing the [`Perturber`]
//!   noise models plus a record-level swap of two compatible text fields;
//! * fully **deterministic generation per seed**: one sequential RNG
//!   drives everything, so the same [`CorpusSpec`] always yields
//!   byte-identical tables and ground truth.
//!
//! [`generate_dedup`] emits one table plus an entity id per record (the
//! ground-truth clustering); [`generate_linkage`] emits two tables plus
//! exact `(left, right)` match pairs. Both validate the spec first and
//! return a clean [`CorpusError`] instead of panicking on degenerate
//! input — the contract `zeroer gen` and `bench_scale` rely on to fail
//! without partial output.

use crate::perturb::{DirtLevel, Perturber};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use zeroer_tabular::{Record, Schema, Table, Value};

/// Records at `scale == 1.0`. Scale 10 ≈ 200 k records, scale 100 ≈ 2 M.
pub const BASE_RECORDS: usize = 20_000;

/// Smallest corpus worth generating: below this, duplicate counts round
/// to noise and accuracy against ground truth is meaningless.
pub const MIN_RECORDS: usize = 24;

/// A corpus recipe: everything generation depends on, so two equal specs
/// always produce byte-identical corpora.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorpusSpec {
    /// Size multiplier: `records = round(scale · BASE_RECORDS)`.
    pub scale: f64,
    /// RNG seed; every table cell and ground-truth edge derives from it.
    pub seed: u64,
    /// Fraction of records that are corrupted copies of a base entity,
    /// in `(0, 1)`. Exactly `round(records · duplicate_rate)` duplicates
    /// are emitted.
    pub duplicate_rate: f64,
    /// Zipf exponent of the token-rank distribution (1.0–1.2 is the
    /// classic text regime; higher = more skew).
    pub zipf_exponent: f64,
    /// Probability a duplicate swaps its two non-blocking text fields
    /// (`category` ↔ `description`) — the field-swap corruption real
    /// dirty data shows when columns are mis-mapped.
    pub field_swap_rate: f64,
    /// Noise applied to duplicate copies.
    pub dirt: DirtLevel,
}

impl Default for CorpusSpec {
    fn default() -> Self {
        Self {
            scale: 0.1,
            seed: 42,
            duplicate_rate: 0.3,
            zipf_exponent: 1.07,
            field_swap_rate: 0.05,
            dirt: corpus_dirt(),
        }
    }
}

/// The default duplicate-corruption regime: typos, abbreviations,
/// dropped/swapped tokens, missing fields and numeric jitter — but no
/// paraphrasing (the corpus vocabulary is synthetic, so replacement from
/// a real-word pool would leak out-of-vocabulary tokens).
pub fn corpus_dirt() -> DirtLevel {
    DirtLevel {
        typo_rate: 0.06,
        token_drop_rate: 0.08,
        abbrev_rate: 0.06,
        token_swap_rate: 0.06,
        missing_rate: 0.03,
        numeric_jitter: 0.15,
        paraphrase_rate: 0.0,
        inject_rate: 0.0,
    }
}

/// Why a [`CorpusSpec`] cannot be generated.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusError(pub String);

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CorpusError {}

impl CorpusSpec {
    /// Total record count this spec generates.
    pub fn records(&self) -> usize {
        (self.scale * BASE_RECORDS as f64).round() as usize
    }

    /// Rejects degenerate specs with a clean error — the gate every
    /// generator runs before touching the RNG, so callers never see
    /// partial output from an impossible recipe.
    pub fn validate(&self) -> Result<(), CorpusError> {
        if !self.scale.is_finite() || self.scale <= 0.0 {
            return Err(CorpusError(format!(
                "scale must be a positive number, got {}",
                self.scale
            )));
        }
        if self.records() < MIN_RECORDS {
            return Err(CorpusError(format!(
                "scale {} yields {} records; at least {MIN_RECORDS} are needed for a \
                 meaningful duplicate rate (scale ≥ {:.4})",
                self.scale,
                self.records(),
                MIN_RECORDS as f64 / BASE_RECORDS as f64
            )));
        }
        if !self.duplicate_rate.is_finite()
            || self.duplicate_rate <= 0.0
            || self.duplicate_rate >= 1.0
        {
            return Err(CorpusError(format!(
                "duplicate rate must lie strictly inside (0, 1), got {}; 0 leaves no \
                 ground-truth pairs to score against and 1 leaves no base entities",
                self.duplicate_rate
            )));
        }
        if !self.zipf_exponent.is_finite() || self.zipf_exponent <= 0.0 {
            return Err(CorpusError(format!(
                "Zipf exponent must be positive, got {}",
                self.zipf_exponent
            )));
        }
        if !self.field_swap_rate.is_finite() || !(0.0..=1.0).contains(&self.field_swap_rate) {
            return Err(CorpusError(format!(
                "field-swap rate must lie in [0, 1], got {}",
                self.field_swap_rate
            )));
        }
        Ok(())
    }
}

/// The fixed corpus schema: three text attributes (attribute 0 is the
/// blocking key) and two numeric ones.
pub fn corpus_schema() -> Schema {
    Schema::new(["name", "category", "description", "quantity", "price"])
}

/// A generated dedup corpus: one table plus the exact clustering.
#[derive(Debug, Clone)]
pub struct DedupCorpus {
    /// The corpus table, rows in shuffled (ingest) order.
    pub table: Table,
    /// Ground truth: `entity_of[record_index]` is the base-entity id.
    pub entity_of: Vec<usize>,
}

impl DedupCorpus {
    /// Ground-truth duplicate pairs `(i, j)` with `i < j`, in sorted
    /// order — every within-entity record pair.
    pub fn truth_pairs(&self) -> Vec<(usize, usize)> {
        let n_entities = self.entity_of.iter().copied().max().map_or(0, |m| m + 1);
        let mut members: Vec<Vec<usize>> = vec![Vec::new(); n_entities];
        for (rec, &e) in self.entity_of.iter().enumerate() {
            members[e].push(rec);
        }
        let mut pairs = Vec::new();
        for group in members {
            for i in 0..group.len() {
                for j in i + 1..group.len() {
                    pairs.push((group[i], group[j]));
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    /// The ground-truth cluster file body: `record,entity` CSV.
    pub fn truth_csv(&self) -> String {
        let mut out = String::from("record,entity\n");
        for (rec, e) in self.entity_of.iter().enumerate() {
            out.push_str(&format!("{rec},{e}\n"));
        }
        out
    }
}

/// A generated linkage corpus: two tables plus exact match pairs.
#[derive(Debug, Clone)]
pub struct LinkageCorpus {
    /// Left relation (clean-ish renderings of distinct entities).
    pub left: Table,
    /// Right relation (corrupted copies of some left entities plus fresh
    /// right-only entities), rows shuffled.
    pub right: Table,
    /// Ground-truth matches as `(left index, right index)`, sorted.
    pub matches: Vec<(usize, usize)>,
}

impl LinkageCorpus {
    /// The ground-truth match file body: `left,right` CSV.
    pub fn truth_csv(&self) -> String {
        let mut out = String::from("left,right\n");
        for &(l, r) in &self.matches {
            out.push_str(&format!("{l},{r}\n"));
        }
        out
    }
}

/// Zipf-distributed rank sampler over `0..vocab`: precomputed cumulative
/// weights + binary search, deterministic given the caller's RNG.
struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    fn new(vocab: usize, exponent: f64) -> Self {
        let mut cumulative = Vec::with_capacity(vocab);
        let mut total = 0.0f64;
        for rank in 0..vocab {
            total += 1.0 / ((rank + 1) as f64).powf(exponent);
            cumulative.push(total);
        }
        Self { cumulative }
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty vocabulary");
        let u = rng.gen_range(0.0..total);
        self.cumulative.partition_point(|&c| c <= u)
    }
}

/// Token text for a vocabulary rank: five base-26 letters of the rank
/// scrambled through a multiplicative bijection (numeric suffix beyond
/// the 11.8 M five-letter tokens). Unique per rank by construction, and
/// the scramble matters: without it, nearby ranks share letter prefixes,
/// unrelated tokens share most of their 4-grams, and the q-gram blocking
/// leg floods candidate generation with mid-similarity non-matches until
/// the EM fit degenerates — distinct tokens must look distinct to a
/// character-gram featurizer, the way real words do.
fn token_text(rank: usize) -> String {
    const SPACE: u64 = 26u64.pow(5);
    const K: u64 = 9_999_991; // odd and coprime to 13 → bijective mod 26^5
    let mut x = (rank as u64 % SPACE).wrapping_mul(K) % SPACE;
    let mut letters = [0u8; 5];
    for l in &mut letters {
        *l = b'a' + (x % 26) as u8;
        x /= 26;
    }
    let base = std::str::from_utf8(&letters)
        .expect("ascii letters")
        .to_string();
    if (rank as u64) < SPACE {
        base
    } else {
        format!("{base}{}", rank as u64 / SPACE)
    }
}

const CATEGORIES: [&str; 12] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "theta", "kappa", "lambda", "sigma",
    "omega", "prime",
];

/// Shared vocabulary + samplers for one corpus generation run.
struct EntityGen {
    /// Head-skewed rank distribution for name tokens.
    name_zipf: Zipf,
    /// Same shape over the (larger) description vocabulary.
    desc_zipf: Zipf,
    vocab: usize,
}

impl EntityGen {
    fn new(records: usize, exponent: f64) -> Self {
        // The vocabulary grows with the corpus (√-ish) so bigger scales
        // stress the interner instead of recycling a fixed token set:
        // scale 0.1 → ~1 000 tokens, scale 1 → ~5 000, scale 100 → 500 k.
        let vocab = (records / 4).max(1_000);
        Self {
            name_zipf: Zipf::new(vocab, exponent),
            desc_zipf: Zipf::new(vocab, exponent),
            vocab,
        }
    }

    /// One clean base entity. `uid` must be unique per entity: the name
    /// leads with an identity token derived from it (ranks past the
    /// Zipf vocabulary, so it collides with nothing), followed by
    /// Zipf-drawn tokens. Real names work the same way — a rare
    /// discriminative surname amid common words — and without the rare
    /// token, the Zipf head floods blocking with quadratic candidate
    /// sets and the EM fit degenerates (every pair looks alike).
    fn entity(&self, uid: usize, rng: &mut StdRng) -> Vec<Value> {
        let n_name = rng.gen_range(1..=2usize);
        let mut name = vec![token_text(self.vocab + uid)];
        name.extend((0..n_name).map(|_| token_text(self.name_zipf.sample(rng))));
        let category = CATEGORIES[rng.gen_range(0..CATEGORIES.len())];
        let n_desc = rng.gen_range(6..=12usize);
        let desc: Vec<String> = (0..n_desc)
            .map(|_| token_text(self.desc_zipf.sample(rng)))
            .collect();
        let quantity = rng.gen_range(1..=500i64);
        let price = (rng.gen_range(100..250_000) as f64) / 100.0;
        vec![
            Value::Str(name.join(" ")),
            Value::Str(category.to_string()),
            Value::Str(desc.join(" ")),
            Value::Int(quantity),
            Value::Float(price),
        ]
    }
}

/// A corrupted copy of `base`: per-value [`Perturber`] noise (the name —
/// the blocking key — gets a lightened dirt level so duplicates stay
/// *findable*, as in the profile generators), plus the record-level
/// field swap of the two non-blocking text attributes.
fn corrupt(
    base: &[Value],
    pert: &Perturber,
    key_pert: &Perturber,
    field_swap_rate: f64,
    rng: &mut StdRng,
) -> Vec<Value> {
    let mut values: Vec<Value> = base
        .iter()
        .enumerate()
        .map(|(a, v)| {
            if a == 0 {
                key_pert.perturb_value(v, rng)
            } else {
                pert.perturb_value(v, rng)
            }
        })
        .collect();
    if field_swap_rate > 0.0 && rng.gen_bool(field_swap_rate) {
        values.swap(1, 2); // category ↔ description: compatible text fields
    }
    values
}

/// The lightened blocking-key dirt: keys stay present and un-abbreviated
/// (mirrors `dataset::generate`'s treatment of attribute 0).
fn key_dirt(d: DirtLevel) -> DirtLevel {
    DirtLevel {
        missing_rate: 0.0,
        abbrev_rate: d.abbrev_rate * 0.25,
        token_drop_rate: d.token_drop_rate * 0.5,
        ..d
    }
}

/// The paraphrase pool handed to [`Perturber`]; unused because
/// [`corpus_dirt`] zeroes the paraphrase and inject rates, but the
/// constructor requires one.
fn unused_pool() -> &'static [&'static str] {
    &CATEGORIES
}

/// Generates a dedup corpus: `spec.records()` rows in shuffled order,
/// of which `round(records · duplicate_rate)` are corrupted copies of a
/// uniformly chosen base entity.
pub fn generate_dedup(spec: &CorpusSpec) -> Result<DedupCorpus, CorpusError> {
    spec.validate()?;
    let n = spec.records();
    let n_dups = ((n as f64) * spec.duplicate_rate).round() as usize;
    let n_entities = n - n_dups;
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let gen = EntityGen::new(n, spec.zipf_exponent);
    let pert = Perturber::new(spec.dirt, unused_pool());
    let key_pert = Perturber::new(key_dirt(spec.dirt), unused_pool());

    // Base entities, rendered clean.
    let entities: Vec<Vec<Value>> = (0..n_entities).map(|e| gen.entity(e, &mut rng)).collect();

    // Row plan: every entity once + n_dups corrupted copies of uniformly
    // drawn entities; then one shuffle fixes the ingest order.
    let mut rows: Vec<(usize, Vec<Value>)> = Vec::with_capacity(n);
    for (e, values) in entities.iter().enumerate() {
        rows.push((e, values.clone()));
    }
    for _ in 0..n_dups {
        let e = rng.gen_range(0..n_entities);
        rows.push((
            e,
            corrupt(
                &entities[e],
                &pert,
                &key_pert,
                spec.field_swap_rate,
                &mut rng,
            ),
        ));
    }
    rows.shuffle(&mut rng);

    let mut table = Table::new(format!("corpus-{}", spec.seed), corpus_schema());
    let mut entity_of = Vec::with_capacity(n);
    for (idx, (e, values)) in rows.into_iter().enumerate() {
        entity_of.push(e);
        table.push(Record::new(idx as u32, values));
    }
    Ok(DedupCorpus { table, entity_of })
}

/// Generates a linkage corpus: the left table holds `records / 2`
/// distinct entities; the right table holds one corrupted copy of
/// `round(right_len · duplicate_rate)` of them (one-to-one) plus fresh
/// right-only entities, shuffled.
pub fn generate_linkage(spec: &CorpusSpec) -> Result<LinkageCorpus, CorpusError> {
    spec.validate()?;
    let n = spec.records();
    let n_left = n / 2;
    let n_right = n - n_left;
    let n_matches = ((n_right as f64) * spec.duplicate_rate).round() as usize;
    let n_matches = n_matches.min(n_left).max(1);
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let gen = EntityGen::new(n, spec.zipf_exponent);
    let pert = Perturber::new(spec.dirt, unused_pool());
    let key_pert = Perturber::new(key_dirt(spec.dirt), unused_pool());

    let left_entities: Vec<Vec<Value>> = (0..n_left).map(|e| gen.entity(e, &mut rng)).collect();
    let mut left = Table::new(format!("corpus-{}-left", spec.seed), corpus_schema());
    for (i, values) in left_entities.iter().enumerate() {
        left.push(Record::new(i as u32, values.clone()));
    }

    // The first n_matches left entities get one corrupted right-side
    // copy each (which left entities are "shared" is irrelevant to the
    // matcher — entity identity is random anyway); the rest of the right
    // table is fresh entities.
    let mut right_rows: Vec<(Option<usize>, Vec<Value>)> = Vec::with_capacity(n_right);
    for (li, values) in left_entities.iter().enumerate().take(n_matches) {
        right_rows.push((
            Some(li),
            corrupt(values, &pert, &key_pert, spec.field_swap_rate, &mut rng),
        ));
    }
    for i in n_matches..n_right {
        // Fresh right-only entities: uids continue past the left table's
        // so their identity tokens collide with nothing.
        right_rows.push((None, gen.entity(n_left + i, &mut rng)));
    }
    right_rows.shuffle(&mut rng);

    let mut right = Table::new(format!("corpus-{}-right", spec.seed), corpus_schema());
    let mut matches = Vec::new();
    for (ri, (source, values)) in right_rows.into_iter().enumerate() {
        if let Some(li) = source {
            matches.push((li, ri));
        }
        right.push(Record::new(ri as u32, values));
    }
    matches.sort_unstable();
    let _ = gen.vocab;
    Ok(LinkageCorpus {
        left,
        right,
        matches,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use zeroer_tabular::csv::write_table;

    fn small_spec(seed: u64) -> CorpusSpec {
        CorpusSpec {
            scale: 0.01, // 200 records
            seed,
            ..CorpusSpec::default()
        }
    }

    #[test]
    fn dedup_corpus_hits_the_controlled_duplicate_rate() {
        let spec = small_spec(7);
        let c = generate_dedup(&spec).expect("valid spec");
        let n = spec.records();
        assert_eq!(c.table.len(), n);
        assert_eq!(c.entity_of.len(), n);
        let n_dups = ((n as f64) * spec.duplicate_rate).round() as usize;
        let n_entities = n - n_dups;
        assert_eq!(
            c.entity_of.iter().copied().max().unwrap() + 1,
            n_entities,
            "every base entity appears"
        );
        // Exactly n_dups records beyond the one-per-entity originals.
        assert_eq!(
            c.entity_of.len() - n_entities,
            n_dups,
            "duplicate count is exact, not expected-value"
        );
        assert!(!c.truth_pairs().is_empty());
    }

    #[test]
    fn generation_is_byte_identical_per_seed() {
        let a = generate_dedup(&small_spec(3)).unwrap();
        let b = generate_dedup(&small_spec(3)).unwrap();
        assert_eq!(write_table(&a.table), write_table(&b.table));
        assert_eq!(a.truth_csv(), b.truth_csv());
        let c = generate_dedup(&small_spec(4)).unwrap();
        assert_ne!(write_table(&a.table), write_table(&c.table));
    }

    #[test]
    fn token_distribution_is_zipf_skewed() {
        let c = generate_dedup(&CorpusSpec {
            scale: 0.05,
            ..CorpusSpec::default()
        })
        .unwrap();
        let mut counts: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
        for r in c.table.records() {
            if let Some(text) = r.values[2].as_text() {
                for t in text.split(' ') {
                    *counts.entry(t.to_string()).or_insert(0) += 1;
                }
            }
        }
        let mut freqs: Vec<usize> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let median = freqs[freqs.len() / 2];
        assert!(
            freqs[0] >= median * 20,
            "head token frequency {} must dwarf the median {median}",
            freqs[0]
        );
    }

    #[test]
    fn schema_mixes_text_and_numeric() {
        let c = generate_dedup(&small_spec(1)).unwrap();
        let types = c.table.infer_types();
        let names: Vec<_> = types.iter().map(|t| t.name()).collect();
        assert_eq!(c.table.schema().arity(), 5);
        assert!(
            names.iter().any(|n| n.starts_with("str")) && names.contains(&"numeric"),
            "schema must mix text and numeric attribute types: {names:?}"
        );
    }

    #[test]
    fn duplicates_are_corrupted_but_findable() {
        let c = generate_dedup(&small_spec(11)).unwrap();
        let pairs = c.truth_pairs();
        let mut changed = 0usize;
        let mut share_name_token = 0usize;
        for &(i, j) in &pairs {
            let a = &c.table.record(i).values;
            let b = &c.table.record(j).values;
            changed += usize::from(a != b);
            let (Some(na), Some(nb)) = (a[0].as_text(), b[0].as_text()) else {
                continue;
            };
            let ta: std::collections::HashSet<&str> = na.split(' ').collect();
            share_name_token += usize::from(nb.split(' ').any(|t| ta.contains(t)));
        }
        assert!(
            changed * 10 >= pairs.len() * 7,
            "corruption must actually dirty most duplicates ({changed}/{})",
            pairs.len()
        );
        assert!(
            share_name_token * 10 >= pairs.len() * 8,
            "most duplicates must stay reachable through name-token blocking \
             ({share_name_token}/{})",
            pairs.len()
        );
    }

    #[test]
    fn linkage_corpus_is_one_to_one_with_exact_truth() {
        let spec = small_spec(5);
        let c = generate_linkage(&spec).expect("valid spec");
        let n = spec.records();
        assert_eq!(c.left.len(), n / 2);
        assert_eq!(c.right.len(), n - n / 2);
        let expected = ((c.right.len() as f64) * spec.duplicate_rate).round() as usize;
        assert_eq!(c.matches.len(), expected.min(c.left.len()).max(1));
        let mut lefts: Vec<usize> = c.matches.iter().map(|m| m.0).collect();
        let mut rights: Vec<usize> = c.matches.iter().map(|m| m.1).collect();
        let before = lefts.len();
        lefts.sort_unstable();
        lefts.dedup();
        rights.sort_unstable();
        rights.dedup();
        assert_eq!(lefts.len(), before, "one-to-one left endpoints");
        assert_eq!(rights.len(), before, "one-to-one right endpoints");
        for &(l, r) in &c.matches {
            assert!(l < c.left.len() && r < c.right.len());
        }
    }

    #[test]
    fn degenerate_specs_are_rejected_cleanly() {
        let bad = [
            CorpusSpec {
                scale: 0.0,
                ..CorpusSpec::default()
            },
            CorpusSpec {
                scale: -1.0,
                ..CorpusSpec::default()
            },
            CorpusSpec {
                scale: f64::NAN,
                ..CorpusSpec::default()
            },
            CorpusSpec {
                scale: 0.0001, // 2 records: under the floor
                ..CorpusSpec::default()
            },
            CorpusSpec {
                duplicate_rate: 0.0,
                ..CorpusSpec::default()
            },
            CorpusSpec {
                duplicate_rate: 1.0,
                ..CorpusSpec::default()
            },
            CorpusSpec {
                duplicate_rate: f64::NAN,
                ..CorpusSpec::default()
            },
            CorpusSpec {
                zipf_exponent: 0.0,
                ..CorpusSpec::default()
            },
            CorpusSpec {
                field_swap_rate: 1.5,
                ..CorpusSpec::default()
            },
        ];
        for spec in bad {
            let err = generate_dedup(&spec).expect_err("must reject");
            assert!(!err.to_string().is_empty());
            assert!(generate_linkage(&spec).is_err());
        }
    }

    #[test]
    fn token_text_is_unique_per_rank() {
        let mut seen = std::collections::HashSet::new();
        for rank in (0..30_000).step_by(7) {
            assert!(seen.insert(token_text(rank)), "rank {rank} collided");
        }
    }

    #[test]
    fn truth_csv_round_trips_entity_ids() {
        let c = generate_dedup(&small_spec(2)).unwrap();
        let csv = c.truth_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("record,entity"));
        for (rec, line) in lines.enumerate() {
            let (r, e) = line.split_once(',').expect("two columns");
            assert_eq!(r.parse::<usize>().unwrap(), rec);
            assert_eq!(e.parse::<usize>().unwrap(), c.entity_of[rec]);
        }
    }
}
