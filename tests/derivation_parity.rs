//! Old-vs-new derivation parity: the regression guard for the interned
//! one-pass derivation layer.
//!
//! The [`reference`] module preserves the *pre-interning* implementation
//! verbatim — string-keyed `HashMap` token bags, string blocking keys,
//! string-keyed inverted-index blocking — and the proptests assert that
//! the interned derivation produces **identical** word/q-gram bags,
//! blocking keys, candidate sets, and feature rows (the latter down to
//! `f64::to_bits`) on generated records.
//!
//! Two facts derivation stores for the batch fill are checked here too:
//! each word bag's text order, and value keys that do not depend on
//! interner history.
//!
//! The interner itself is checked against a first-seen `HashMap` over
//! long token streams that cross several doublings of its slot array
//! (`interner_matches_first_seen_map`, which includes two distinct
//! tokens with equal FNV-1a hashes).

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use zeroer::blocking::{standard_candidates_derived, PairMode};
use zeroer::features::{functions_for, DeriveConfig, PairFeaturizer, RowFeaturizer, SimFunction};
use zeroer::tabular::{Record, Schema, Table, Value};
use zeroer::textsim::derive::{DerivedRecord, Deriver};
use zeroer::textsim::{fnv1a, jaro_winkler, Interner, Sym, TokenBag};

/// The retired string-based tokenizers and blockers, kept as the parity
/// reference. This is a line-for-line port of the pre-refactor code,
/// except for the blocking join, which counts shared keys per pair under
/// the current two-key rule.
mod reference {
    use std::collections::HashMap;

    pub fn normalize(s: &str) -> String {
        let mut out = String::with_capacity(s.len());
        let mut last_space = true;
        for ch in s.chars() {
            if ch.is_alphanumeric() {
                out.extend(ch.to_lowercase());
                last_space = false;
            } else if !last_space {
                out.push(' ');
                last_space = true;
            }
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out
    }

    pub fn words(s: &str) -> HashMap<String, u32> {
        let mut bag = HashMap::new();
        for t in normalize(s).split(' ').filter(|w| !w.is_empty()) {
            *bag.entry(t.to_string()).or_insert(0) += 1;
        }
        bag
    }

    pub fn qgrams(s: &str, q: usize) -> HashMap<String, u32> {
        assert!(q > 0);
        let norm = normalize(s);
        let mut bag = HashMap::new();
        if norm.is_empty() {
            return bag;
        }
        let pad = "#".repeat(q - 1);
        let padded: Vec<char> = format!("{pad}{norm}{pad}").chars().collect();
        if padded.len() < q {
            bag.insert(padded.iter().collect(), 1);
            return bag;
        }
        for w in padded.windows(q) {
            *bag.entry(w.iter().collect::<String>()).or_insert(0) += 1;
        }
        bag
    }

    pub fn token_keys(s: &str) -> Vec<String> {
        let mut keys: Vec<String> = words(s).into_keys().filter(|t| t.len() > 1).collect();
        keys.sort();
        keys.dedup();
        keys
    }

    pub fn qgram_keys(s: &str, q: usize) -> Vec<String> {
        let mut keys: Vec<String> = qgrams(s, q).into_keys().collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// Adds one per pair and shared key of one leg to `counts`,
    /// skipping stop-word buckets (dedup mode).
    pub fn count_shared(
        index: &HashMap<String, Vec<usize>>,
        max_bucket: usize,
        counts: &mut HashMap<(usize, usize), usize>,
    ) {
        for members in index.values() {
            if members.len() * members.len() > max_bucket * max_bucket {
                continue;
            }
            for &a in members {
                for &b in members {
                    if a < b {
                        *counts.entry((a, b)).or_insert(0) += 1;
                    }
                }
            }
        }
    }

    /// The standard dedup recipe: the pairs sharing at least two keys
    /// over the token and q-gram legs together.
    pub fn standard_dedup_pairs(
        names: &[String],
        q: usize,
        max_bucket: usize,
    ) -> Vec<(usize, usize)> {
        let mut tok: HashMap<String, Vec<usize>> = HashMap::new();
        let mut qgm: HashMap<String, Vec<usize>> = HashMap::new();
        for (i, n) in names.iter().enumerate() {
            for k in token_keys(n) {
                tok.entry(k).or_default().push(i);
            }
            for k in qgram_keys(n, q) {
                qgm.entry(k).or_default().push(i);
            }
        }
        let mut counts = HashMap::new();
        count_shared(&tok, max_bucket, &mut counts);
        count_shared(&qgm, max_bucket, &mut counts);
        let pairs: std::collections::BTreeSet<(usize, usize)> = counts
            .into_iter()
            .filter(|&(_, c)| c >= 2)
            .map(|(p, _)| p)
            .collect();
        pairs.into_iter().collect()
    }
}

/// Renders an interned bag as text → count for comparison.
fn bag_to_map(bag: &TokenBag, interner: &Interner) -> BTreeMap<String, u32> {
    bag.iter()
        .map(|(s, c)| (interner.resolve(s).to_string(), c))
        .collect()
}

fn syms_to_sorted_texts(syms: &[Sym], interner: &Interner) -> Vec<String> {
    let mut v: Vec<String> = syms
        .iter()
        .map(|&s| interner.resolve(s).to_string())
        .collect();
    v.sort();
    v
}

fn to_map(bag: HashMap<String, u32>) -> BTreeMap<String, u32> {
    bag.into_iter().collect()
}

/// Messy attribute text: words, punctuation, unicode, digits.
fn attr_text() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9 ,.!_-]{0,24}"
}

/// Short words over a small mixed alphabet, so tokens recur across
/// records and text order differs from first-intern order.
fn order_text() -> impl Strategy<Value = String> {
    "[abcéΣσς日 ]{0,16}"
}

/// Each attribute's stored word order is its bag's distinct symbols
/// sorted by resolved text.
fn assert_text_order(rec: &DerivedRecord, it: &Interner) {
    for a in 0..rec.arity() {
        let attr = rec.attr(a);
        let mut want: Vec<Sym> = attr.word.syms().collect();
        want.sort_by(|&x, &y| it.resolve(x).cmp(it.resolve(y)));
        assert_eq!(attr.word_order(), &want[..], "attribute {a}");
    }
}

/// One-attribute rows of `texts`.
fn rows_of(texts: &[String]) -> Vec<Vec<Value>> {
    texts.iter().map(|t| vec![Value::Str(t.clone())]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Word and q-gram bags are identical to the string-based reference.
    #[test]
    fn bags_match_reference(s in attr_text(), q in 1usize..6) {
        let mut deriver = Deriver::new(DeriveConfig::blocking(0, q));
        let rec = deriver.derive(&[Value::Str(s.clone())]);
        let it = deriver.interner();
        prop_assert_eq!(
            bag_to_map(&rec.attr(0).word, it),
            to_map(reference::words(&s)),
            "word bags diverge on {:?}", s
        );
        prop_assert_eq!(
            bag_to_map(&rec.attr(0).qgm3, it),
            to_map(reference::qgrams(&s, 3)),
            "3-gram bags diverge on {:?}", s
        );
    }

    /// Blocking keys (token and q-gram) are identical to the reference
    /// extractors.
    #[test]
    fn blocking_keys_match_reference(s in attr_text(), q in 1usize..6) {
        let mut deriver = Deriver::new(DeriveConfig::blocking(0, q));
        let rec = deriver.derive(&[Value::Str(s.clone())]);
        let it = deriver.interner();
        prop_assert_eq!(
            syms_to_sorted_texts(&rec.keys().tokens, it),
            reference::token_keys(&s),
            "token keys diverge on {:?}", s
        );
        prop_assert_eq!(
            syms_to_sorted_texts(&rec.keys().qgrams, it),
            reference::qgram_keys(&s, q),
            "q-gram keys diverge on {:?}", s
        );
    }

    /// The standard dedup candidate set over the derived keys equals the
    /// string-keyed inverted indexes' per-pair two-key count exactly.
    #[test]
    fn candidate_sets_match_reference(
        names in proptest::collection::vec(attr_text(), 16),
        max_bucket in 2usize..12,
    ) {
        let mut deriver = Deriver::new(DeriveConfig::blocking(0, 4));
        let derived: Vec<_> = names
            .iter()
            .map(|n| deriver.derive(&[Value::Str(n.clone())]))
            .collect();
        let got: BTreeSet<(usize, usize)> =
            standard_candidates_derived(&derived, None, PairMode::Dedup, 1, max_bucket)
                .pairs()
                .iter()
                .copied()
                .collect();
        let want: BTreeSet<(usize, usize)> =
            reference::standard_dedup_pairs(&names, 4, max_bucket).into_iter().collect();
        prop_assert_eq!(got, want, "candidate sets diverge on {:?}", names);
    }

    /// Feature rows are bit-identical to rows computed with the
    /// string-based reference bags.
    #[test]
    fn feature_rows_match_reference_bitwise(
        texts in proptest::collection::vec(attr_text(), 6),
        nums in proptest::collection::vec(-1e6f64..1e6, 6),
        null_mask in proptest::collection::vec(0usize..4, 6),
    ) {
        let mut table = Table::new("t", Schema::new(["name", "score"]));
        for (i, s) in texts.iter().enumerate() {
            let v = if null_mask[i] == 0 {
                Value::Null
            } else {
                Value::Float(nums[i])
            };
            table.push(Record::new(i as u32, vec![Value::Str(s.clone()), v]));
        }
        let fz = PairFeaturizer::with_config(&table, &table, DeriveConfig::blocking(0, 4));
        let row_fz = RowFeaturizer::new(fz.attr_types());
        let pairs: Vec<(usize, usize)> = (1..texts.len()).map(|j| (0, j)).collect();
        for &(a, b) in &pairs {
            let got = row_fz.raw_row(
                fz.interner(),
                &fz.left_derived()[a],
                &fz.right_derived()[b],
            );
            let want = reference_row(&table, a, b, fz.attr_types());
            prop_assert_eq!(got.len(), want.len());
            for (col, (g, w)) in got.iter().zip(&want).enumerate() {
                if g.is_nan() && w.is_nan() {
                    continue;
                }
                prop_assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "col {} diverges on pair ({}, {}): {} vs {}", col, a, b, g, w
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Derivation stores Monge-Elkan's canonical order with the word bag.
    /// The base interner knows the words of the first `known` rows only,
    /// so derivation meets both known tokens and fresh ones.
    #[test]
    fn derivation_stores_text_order(
        texts in proptest::collection::vec(order_text(), 8),
        known in 0usize..8,
    ) {
        let rows = rows_of(&texts);
        let mut d = Deriver::new(DeriveConfig::blocking(0, 3));
        for r in rows.iter().take(known) {
            d.derive(r);
        }
        for r in &rows {
            let rec = d.derive(r);
            assert_text_order(&rec, d.interner());
        }
    }

    /// A value's key reads no symbol: the same values derived after
    /// different interner histories get the same keys.
    #[test]
    fn value_keys_do_not_depend_on_interner_history(
        values in proptest::collection::vec(order_text(), 6),
        history in proptest::collection::vec(order_text(), 6),
        nums in proptest::collection::vec(-1e3f64..1e3, 6),
        null_mask in proptest::collection::vec(0usize..3, 6),
    ) {
        let rows: Vec<Vec<Value>> = values
            .iter()
            .zip(nums.iter().zip(&null_mask))
            .map(|(t, (&n, &null))| {
                let v = if null == 0 { Value::Null } else { Value::Float(n) };
                vec![Value::Str(t.clone()), v]
            })
            .collect();
        let keys = |recs: Vec<DerivedRecord>| -> Vec<u64> {
            recs.iter()
                .flat_map(|r| (0..r.arity()).map(|a| r.attr(a).key()).collect::<Vec<_>>())
                .collect()
        };
        let mut fresh = Deriver::new(DeriveConfig::default());
        let want = keys(rows.iter().map(|r| fresh.derive(r)).collect());

        let mut warm = Deriver::new(DeriveConfig::default());
        for h in rows_of(&history).iter().rev() {
            warm.derive(&[h[0].clone(), Value::Int(7)]);
        }
        prop_assert_eq!(&keys(rows.iter().map(|r| warm.derive(r)).collect()), &want);
    }
}

/// Two 11-char tokens with equal 64-bit FNV-1a hashes
/// (`0x531a_2caa_df56_16fd`), found by a Pollard-rho search over such
/// strings: an interner that trusted a hash match without comparing text
/// would give them one symbol.
const FNV1A_TWINS: [&str; 2] = ["BcWugYjVchJ", "uAmGjGvd_lN"];

#[test]
fn fnv1a_twins_collide() {
    assert_ne!(FNV1A_TWINS[0], FNV1A_TWINS[1]);
    assert_eq!(fnv1a(FNV1A_TWINS[0]), 0x531a_2caa_df56_16fd);
    assert_eq!(fnv1a(FNV1A_TWINS[1]), 0x531a_2caa_df56_16fd);
}

/// Interns `stream` into `it` and into the first-seen reference `map`
/// (text → symbol index, plus the texts in symbol order), asserting
/// each symbol as it is assigned.
fn intern_both(
    it: &mut Interner,
    map: &mut HashMap<String, usize>,
    texts: &mut Vec<String>,
    stream: &[String],
) {
    for t in stream {
        let want = *map.entry(t.clone()).or_insert_with(|| {
            texts.push(t.clone());
            texts.len() - 1
        });
        let got = it.intern(t);
        assert_eq!(got.index(), want, "intern({t:?})");
        assert_eq!(it.resolve(got), t);
    }
}

/// The whole observable state of `it` against the reference: every
/// token's symbol and text, misses, `len` and `bytes`.
fn assert_interner_state(it: &Interner, map: &HashMap<String, usize>, texts: &[String]) {
    assert_eq!(it.len(), texts.len());
    assert_eq!(it.is_empty(), texts.is_empty());
    assert_eq!(it.bytes(), texts.iter().map(String::len).sum::<usize>());
    for (i, t) in texts.iter().enumerate() {
        let sym = it.get(t).unwrap_or_else(|| panic!("get({t:?}) missed"));
        assert_eq!(sym.index(), i);
        assert_eq!(it.resolve(sym), t);
    }
    // Texts no stream draws: an empty token, longer runs, another
    // alphabet, and interned texts with one char more.
    for miss in ["", "abcde", "zz", "éé日日本", "ΣΣ"] {
        assert!(!map.contains_key(miss));
        assert_eq!(it.get(miss), None, "get({miss:?})");
    }
    for t in texts.iter().take(64) {
        assert_eq!(it.get(&format!("{t}x")), None);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The interner assigns the first-seen numbering of a `HashMap`
    /// reference over ASCII, mixed and non-ASCII token streams of 1,204
    /// tokens heavy on repeats, with several hundred distinct ones (at
    /// least six doublings of the slot array); a clone taken at `cut`
    /// continues exactly like the original.
    #[test]
    fn interner_matches_first_seen_map(
        ascii in proptest::collection::vec("[a-d]{1,4}", 600),
        mixed in proptest::collection::vec("[a-cé日]{1,3}", 300),
        non_ascii in proptest::collection::vec("[éüß日本]{1,3}", 300),
        cut in 0usize..1200,
        twins_at in 0usize..1200,
    ) {
        let mut stream = Vec::with_capacity(1204);
        for (i, a) in ascii.into_iter().enumerate() {
            stream.push(a);
            if let (Some(m), Some(n)) = (mixed.get(i), non_ascii.get(i)) {
                stream.push(m.clone());
                stream.push(n.clone());
            }
        }
        let twins: Vec<String> = FNV1A_TWINS.iter().map(|t| t.to_string()).collect();
        stream.splice(twins_at..twins_at, twins.iter().cloned().chain(twins.iter().cloned()));

        let (mut it, mut map, mut texts) = (Interner::new(), HashMap::new(), Vec::new());
        intern_both(&mut it, &mut map, &mut texts, &stream[..cut]);
        assert_interner_state(&it, &map, &texts);
        let (mut twin, mut twin_map, mut twin_texts) = (it.clone(), map.clone(), texts.clone());

        intern_both(&mut it, &mut map, &mut texts, &stream[cut..]);
        assert_interner_state(&it, &map, &texts);
        prop_assert!(texts.len() > 256, "premise: {} distinct tokens", texts.len());
        intern_both(&mut twin, &mut twin_map, &mut twin_texts, &stream[cut..]);
        assert_interner_state(&twin, &map, &texts);
    }
}

/// One pair's feature row computed entirely from the string-based
/// reference bags (token measures) and the shared sequence/numeric
/// kernels.
fn reference_row(
    table: &Table,
    a: usize,
    b: usize,
    attr_types: &[zeroer::tabular::AttrType],
) -> Vec<f64> {
    let mut out = Vec::new();
    for (attr, &ty) in attr_types.iter().enumerate() {
        let va = table.value(a, attr);
        let vb = table.value(b, attr);
        for &f in functions_for(ty) {
            out.push(reference_sim(f, va, vb));
        }
    }
    out
}

fn set_of(bag: &HashMap<String, u32>) -> BTreeSet<&str> {
    bag.keys().map(String::as_str).collect()
}

fn reference_sim(f: SimFunction, a: &Value, b: &Value) -> f64 {
    if a.is_null() || b.is_null() {
        return f64::NAN;
    }
    let ta = a.as_text().unwrap_or_default();
    let tb = b.as_text().unwrap_or_default();
    let token_sets = |q: Option<usize>| {
        let (ba, bb) = match q {
            Some(q) => (reference::qgrams(&ta, q), reference::qgrams(&tb, q)),
            None => (reference::words(&ta), reference::words(&tb)),
        };
        (ba, bb)
    };
    let set_measure = |q: Option<usize>, f: &dyn Fn(usize, usize, usize) -> f64| {
        let (ba, bb) = token_sets(q);
        if ba.is_empty() && bb.is_empty() {
            return 1.0;
        }
        let (sa, sb) = (set_of(&ba), set_of(&bb));
        let inter = sa.intersection(&sb).count();
        f(inter, sa.len(), sb.len())
    };
    match f {
        SimFunction::JaccardQgm3 => set_measure(Some(3), &|i, na, nb| {
            let union = na + nb - i;
            if union == 0 {
                0.0
            } else {
                i as f64 / union as f64
            }
        }),
        SimFunction::CosineQgm3 => set_measure(Some(3), &|i, na, nb| {
            if na == 0 || nb == 0 {
                0.0
            } else {
                i as f64 / ((na as f64) * (nb as f64)).sqrt()
            }
        }),
        SimFunction::JaccardWord => set_measure(None, &|i, na, nb| {
            let union = na + nb - i;
            if union == 0 {
                0.0
            } else {
                i as f64 / union as f64
            }
        }),
        SimFunction::CosineWord => set_measure(None, &|i, na, nb| {
            if na == 0 || nb == 0 {
                0.0
            } else {
                i as f64 / ((na as f64) * (nb as f64)).sqrt()
            }
        }),
        SimFunction::DiceWord => set_measure(None, &|i, na, nb| {
            if na + nb == 0 {
                0.0
            } else {
                2.0 * i as f64 / (na + nb) as f64
            }
        }),
        SimFunction::OverlapWord => set_measure(None, &|i, na, nb| {
            let min = na.min(nb);
            if min == 0 {
                0.0
            } else {
                i as f64 / min as f64
            }
        }),
        SimFunction::MongeElkan => {
            let (ba, bb) = token_sets(None);
            if ba.is_empty() && bb.is_empty() {
                return 1.0;
            }
            if ba.is_empty() || bb.is_empty() {
                return 0.0;
            }
            // Canonical token-text order — the documented summation
            // order of the interned implementation.
            let toks_a: BTreeSet<&str> = set_of(&ba);
            let toks_b: Vec<&str> = set_of(&bb).into_iter().collect();
            let mut total = 0.0;
            for ta in &toks_a {
                let best = toks_b
                    .iter()
                    .map(|tb| jaro_winkler(ta, tb))
                    .fold(0.0f64, f64::max);
                total += best;
            }
            total / toks_a.len() as f64
        }
        // The sequence/numeric kernels were never touched by the
        // refactor; apply the production code directly. The cached path
        // feeds sequence measures the *lowercased* text form, so the
        // reference must too.
        SimFunction::AbsDiff | SimFunction::RelDiff | SimFunction::ExactMatch => {
            f.apply(a, b).unwrap_or(f64::NAN)
        }
        _ => f.apply_text(&ta.to_lowercase(), &tb.to_lowercase()),
    }
}
