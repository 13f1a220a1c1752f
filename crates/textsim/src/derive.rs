//! The record-derivation layer: every derived form of a record, computed
//! in **one pass** over its raw values.
//!
//! Historically the pipeline tokenized each record up to three times —
//! the batch table cache, the streaming record cache, and blocking-key
//! extraction each re-ran `normalize`/`words`/`qgrams` on the raw
//! strings. This module is now the single place raw attribute text is
//! tokenized: one `normalize` per value into a reusable buffer, then the
//! word bag, the 3-gram bag (the feature layer's `qgm_3` tokenizer), the
//! numeric interpretation, and — for the configured blocking attribute —
//! the blocking keys, all from that one normalized form. Everything
//! downstream (feature generation, batch blocking, streaming indexes)
//! consumes the resulting [`DerivedRecord`]s.
//!
//! Derivation also stores, per attribute, two facts the batch fill would
//! otherwise recompute for every candidate pair: a value key over what
//! the similarity kernels read besides the bags ([`AttrDerived::key`]),
//! and the word bag's text order, which is Monge-Elkan's summation order
//! ([`AttrDerived::word_order`]).
//!
//! ## Determinism
//!
//! Tokens are interned into one [`Interner`], whose symbol numbering is
//! the first-intern order, so the same records derived in the same order
//! get the same symbols. The streaming subsystem keeps that order fixed
//! by deriving on its single writer, in ingest order, at any thread
//! count; its workers only read derivations.

use crate::intern::{fnv1a_extend, Interner, Sym, FNV1A_OFFSET};
use crate::tokenize::{normalize_into, qgrams_from_norm, TokenBag};
use zeroer_tabular::Value;

/// Which blocking keys the derivation pass should extract alongside the
/// feature bags: the token keys of one attribute and, when `qgram > 0`,
/// its q-gram keys.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSpec {
    /// Attribute index used as the blocking key.
    pub attr: usize,
    /// q-gram size for q-gram blocking keys (0 disables them).
    pub qgram: usize,
}

/// Derivation configuration. The default extracts no blocking keys
/// (feature bags only).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeriveConfig {
    /// Blocking-key extraction, if any.
    pub block: Option<BlockSpec>,
}

impl DeriveConfig {
    /// Keys for token (+ optional q-gram) blocking on `attr`.
    pub fn blocking(attr: usize, qgram: usize) -> Self {
        Self {
            block: Some(BlockSpec { attr, qgram }),
        }
    }
}

/// One attribute's derived forms.
///
/// Besides the forms the similarity kernels read, derivation stores two
/// facts about them that depend on this value alone, so a batch fill
/// computes them once per record instead of once per candidate pair:
/// the value key ([`AttrDerived::key`]) and the word bag's text order
/// ([`AttrDerived::word_order`]). Only derivation builds an
/// `AttrDerived`, so both always agree with the forms they describe.
#[derive(Debug, Clone, PartialEq)]
pub struct AttrDerived {
    /// Lowercased textual form (empty for nulls; see `present`).
    pub text: String,
    /// Word token bag.
    pub word: TokenBag,
    /// 3-gram token bag.
    pub qgm3: TokenBag,
    /// Numeric interpretation, when available.
    pub number: Option<f64>,
    /// Whether the original value was non-null.
    pub present: bool,
    /// `word`'s distinct symbols in token-text order.
    word_order: Box<[Sym]>,
    /// FNV-1a over `present`, `number`'s bits and `text`.
    key: u64,
}

impl AttrDerived {
    /// A 64-bit key over everything the similarity kernels read of this
    /// value besides its token bags: presence, the number's bits and the
    /// lowercased text, hashed with FNV-1a.
    ///
    /// It reads no symbol, so equal values get equal keys under any
    /// interner history. Equal keys do not make equal values: keys can
    /// collide, and equal lowercased texts can tokenize differently
    /// (`"ΟΔΟΣ"` and `"οδος"` both lowercase to `"οδος"`, but their word
    /// tokens are `"οδοσ"` and `"οδος"`). Sharing work on a key match
    /// must still compare the fields and both bags.
    pub fn key(&self) -> u64 {
        self.key
    }

    /// The word bag's distinct symbols in token-text order: Monge-Elkan's
    /// canonical summation order ([`crate::token::monge_elkan`]). Built at
    /// derivation from the normalized tokens, so it depends on their
    /// texts, not on how the interner numbered them.
    pub fn word_order(&self) -> &[Sym] {
        &self.word_order
    }
}

/// The value key of [`AttrDerived::key`].
fn value_key(present: bool, number: Option<f64>, text: &str) -> u64 {
    let h = fnv1a_extend(FNV1A_OFFSET, &[u8::from(present)]);
    let h = match number {
        Some(x) => fnv1a_extend(fnv1a_extend(h, &[1]), &x.to_bits().to_le_bytes()),
        None => fnv1a_extend(h, &[0]),
    };
    fnv1a_extend(h, text.as_bytes())
}

/// Blocking keys of one record: the two legs the standard blocking rule
/// counts together. Empty when the key attribute is null (null rows
/// never block). Symbol lists are sorted and deduplicated.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KeySet {
    /// Word-token keys: tokens longer than one byte (single characters
    /// are noise).
    pub tokens: Vec<Sym>,
    /// Character q-gram keys.
    pub qgrams: Vec<Sym>,
}

/// All derived forms of one record: per-attribute feature forms plus the
/// blocking keys the [`DeriveConfig`] asked for.
#[derive(Debug, Clone, PartialEq)]
pub struct DerivedRecord {
    attrs: Box<[AttrDerived]>,
    keys: KeySet,
}

impl DerivedRecord {
    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// One attribute's derived forms.
    pub fn attr(&self, a: usize) -> &AttrDerived {
        &self.attrs[a]
    }

    /// The record's blocking keys.
    pub fn keys(&self) -> &KeySet {
        &self.keys
    }

    /// A zero-arity placeholder derivation. The streaming store swaps
    /// this in for retracted records at compaction time to release their
    /// token bags; a retracted record's derivation is never read again
    /// (retraction captures its blocking keys up front and candidates
    /// are filtered to live records).
    pub fn empty() -> Self {
        Self {
            attrs: Box::new([]),
            keys: KeySet::default(),
        }
    }

    /// Approximate heap bytes this derivation owns (attribute texts,
    /// token-bag entries, word text orders and value keys, blocking-key
    /// symbols) — what compaction reclaims when it clears a retracted
    /// record's derivation.
    pub fn heap_bytes(&self) -> usize {
        let sym_entry = std::mem::size_of::<(Sym, u32)>();
        let sym = std::mem::size_of::<Sym>();
        let mut bytes = 0;
        for a in self.attrs.iter() {
            bytes += a.text.capacity();
            bytes += (a.word.len() + a.qgm3.len()) * sym_entry;
            bytes += a.word_order.len() * sym + std::mem::size_of::<u64>();
        }
        bytes += (self.keys.tokens.len() + self.keys.qgrams.len()) * std::mem::size_of::<Sym>();
        bytes
    }
}

/// Reusable scratch buffers for the derivation pass.
#[derive(Debug, Clone, Default)]
struct DeriveBufs {
    norm: String,
    chars: Vec<char>,
    tok: String,
    syms: Vec<Sym>,
    key_toks: Vec<Sym>,
    /// Each word token's symbol and byte range in `norm`.
    spans: Vec<(Sym, usize, usize)>,
}

/// The single-pass derivation core: every derived form of one record,
/// its tokens interned in the order they occur.
fn derive_record(
    interner: &mut Interner,
    bufs: &mut DeriveBufs,
    cfg: &DeriveConfig,
    values: &[Value],
) -> DerivedRecord {
    let mut attrs = Vec::with_capacity(values.len());
    let mut keys = KeySet::default();
    for (a, v) in values.iter().enumerate() {
        let text = v.as_text();
        let present = text.is_some();
        let t = text.unwrap_or_default();
        normalize_into(&t, &mut bufs.norm);
        let key_spec = cfg.block.as_ref().filter(|b| b.attr == a && present);

        // Word tokens (and token keys for the blocking attribute) in one
        // sweep over the normalized buffer.
        bufs.syms.clear();
        bufs.key_toks.clear();
        bufs.spans.clear();
        let mut start = 0;
        for tok in bufs.norm.split(' ') {
            let span = (start, start + tok.len());
            start = span.1 + 1;
            if tok.is_empty() {
                continue;
            }
            let s = interner.intern(tok);
            bufs.syms.push(s);
            bufs.spans.push((s, span.0, span.1));
            if key_spec.is_some() && tok.len() > 1 {
                bufs.key_toks.push(s);
            }
        }
        let word = TokenBag::from_sym_buf(&mut bufs.syms);
        // The distinct words in text order, sorted while their texts are
        // at hand: equal texts are equal symbols, so they end up adjacent.
        let norm = &bufs.norm;
        bufs.spans
            .sort_unstable_by(|x, y| norm[x.1..x.2].cmp(&norm[y.1..y.2]));
        bufs.spans.dedup_by_key(|x| x.0);
        let word_order: Box<[Sym]> = bufs.spans.iter().map(|x| x.0).collect();

        // 3-gram bag (the feature layer's qgm_3 tokenizer), windows over
        // the same normalized buffer.
        qgrams_from_norm(
            interner,
            &bufs.norm,
            3,
            &mut bufs.chars,
            &mut bufs.tok,
            &mut bufs.syms,
        );
        let qgm3 = TokenBag::from_sym_buf(&mut bufs.syms);

        if let Some(spec) = key_spec {
            bufs.key_toks.sort_unstable();
            bufs.key_toks.dedup();
            keys.tokens = bufs.key_toks.clone();
            if spec.qgram == 3 {
                // The key q-grams *are* the feature 3-grams: reuse.
                keys.qgrams = qgm3.syms().collect();
            } else if spec.qgram > 0 {
                qgrams_from_norm(
                    interner,
                    &bufs.norm,
                    spec.qgram,
                    &mut bufs.chars,
                    &mut bufs.tok,
                    &mut bufs.syms,
                );
                bufs.syms.sort_unstable();
                bufs.syms.dedup();
                keys.qgrams = bufs.syms.clone();
                bufs.syms.clear();
            }
        }

        let text = if present {
            t.to_lowercase()
        } else {
            String::new()
        };
        let number = v.as_number();
        attrs.push(AttrDerived {
            key: value_key(present, number, &text),
            text,
            word,
            qgm3,
            number,
            present,
            word_order,
        });
    }
    DerivedRecord {
        attrs: attrs.into_boxed_slice(),
        keys,
    }
}

/// The deriver: owns the [`Interner`] and the scratch buffers, and
/// derives records one at a time.
#[derive(Debug, Clone, Default)]
pub struct Deriver {
    interner: Interner,
    cfg: DeriveConfig,
    bufs: DeriveBufs,
}

impl Deriver {
    /// A fresh deriver with an empty interner.
    pub fn new(cfg: DeriveConfig) -> Self {
        Self {
            interner: Interner::new(),
            cfg,
            bufs: DeriveBufs::default(),
        }
    }

    /// A deriver continuing an existing interner (e.g. one handed over
    /// from the bootstrap featurizer to the streaming store).
    pub fn with_interner(interner: Interner, cfg: DeriveConfig) -> Self {
        Self {
            interner,
            cfg,
            bufs: DeriveBufs::default(),
        }
    }

    /// Derives all forms of one record's values.
    pub fn derive(&mut self, values: &[Value]) -> DerivedRecord {
        derive_record(&mut self.interner, &mut self.bufs, &self.cfg, values)
    }

    /// The interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// Consumes the deriver, yielding the interner.
    pub fn into_interner(self) -> Interner {
        self.interner
    }

    /// The derivation configuration.
    pub fn config(&self) -> &DeriveConfig {
        &self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::{qgrams, words};

    fn cfg4() -> DeriveConfig {
        DeriveConfig::blocking(0, 4)
    }

    #[test]
    fn derivation_tracks_presence_text_and_numbers() {
        let mut d = Deriver::new(DeriveConfig::default());
        let rec = d.derive(&["Alpha Beta".into(), Value::Int(1999)]);
        assert_eq!(rec.arity(), 2);
        assert!(rec.attr(0).present);
        assert_eq!(rec.attr(0).text, "alpha beta");
        assert_eq!(rec.attr(0).word.count_text(d.interner(), "alpha"), 1);
        assert_eq!(rec.attr(1).number, Some(1999.0));

        let nul = d.derive(&[Value::Null, "2001".into()]);
        assert!(!nul.attr(0).present);
        assert!(nul.attr(0).word.is_empty());
        assert_eq!(nul.attr(1).number, Some(2001.0));
    }

    #[test]
    fn derived_bags_match_convenience_tokenizers() {
        let mut d = Deriver::new(cfg4());
        let rec = d.derive(&["Golden Dragon, Palace!".into()]);
        let mut check = Interner::new();
        let w = words(&mut check, "Golden Dragon, Palace!");
        let q = qgrams(&mut check, "Golden Dragon, Palace!", 3);
        assert_eq!(rec.attr(0).word.distinct(), w.distinct());
        assert_eq!(rec.attr(0).word.len(), w.len());
        assert_eq!(rec.attr(0).qgm3.distinct(), q.distinct());
        assert_eq!(rec.attr(0).qgm3.len(), q.len());
    }

    #[test]
    fn keys_filter_single_characters_and_dedup() {
        let mut d = Deriver::new(DeriveConfig::blocking(0, 2));
        let rec = d.derive(&["a Red RED fox".into()]);
        let qgrams = &rec.keys().qgrams;
        assert!(
            qgrams.windows(2).all(|w| w[0] < w[1]),
            "q-gram keys sorted and deduplicated (\"re\" occurs twice)"
        );
        let texts: Vec<&str> = rec
            .keys()
            .tokens
            .iter()
            .map(|&s| d.interner().resolve(s))
            .collect();
        let mut sorted = texts.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(texts.len(), sorted.len(), "keys deduplicated");
        assert!(texts.contains(&"red") && texts.contains(&"fox"));
        assert!(!texts.contains(&"a"), "single characters are noise");
    }

    #[test]
    fn null_key_attribute_yields_no_keys() {
        let mut d = Deriver::new(cfg4());
        let rec = d.derive(&[Value::Null, "other".into()]);
        assert!(rec.keys().tokens.is_empty());
        assert!(rec.keys().qgrams.is_empty());
    }

    #[test]
    fn qgram3_keys_reuse_the_feature_bag() {
        let mut d = Deriver::new(DeriveConfig::blocking(0, 3));
        let rec = d.derive(&["abc".into()]);
        let bag_syms: Vec<Sym> = rec.attr(0).qgm3.syms().collect();
        assert_eq!(rec.keys().qgrams, bag_syms);
    }
}
