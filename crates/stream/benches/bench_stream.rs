//! Streaming-ingest throughput: bootstrap on 70 % of a dedup dataset,
//! then measure ingest over the remaining 30 % — sequentially, across a
//! scaling worker pool, and with/without per-candidate allocation.
//!
//! Sections:
//! 1. derivation throughput: the retired string-based per-record caches
//!    (HashMap token bags, separate blocking-key tokenization — what the
//!    pre-interning code ran) vs. the one-pass interned derivation, with
//!    interner size and bytes saved;
//! 2. sequential per-record ingest latency (incremental blocking +
//!    frozen-model scoring + cluster assignment);
//! 3. scoring-loop allocation delta: `raw_row` (one `Vec` per candidate)
//!    vs. `raw_row_into` (one reused buffer) over the same pairs;
//!    followed by the batched-scoring delta in the production shape —
//!    one new record against its whole candidate window, the way
//!    `score_candidates` actually batches — comparing the scalar
//!    row-at-a-time oracle against the struct-of-arrays `fill_columns` +
//!    `score_batch` path the pipelines run, with a bit-identity
//!    assertion and a ≥ 1.3× speedup criterion;
//! 4. multi-thread batch-ingest scaling (`ingest_batch_parallel`), with
//!    a cluster-parity check across thread counts;
//! 5. retraction throughput + compaction reclaim;
//! 6. streaming record linkage: freeze a three-model fit, stream
//!    right-side records through the frozen cross model, thread-parity
//!    check.
//!
//! The first output line after the banner is a machine-readable JSON
//! header carrying the detected core count, scales, seed and RSS: on a
//! 1-core machine section 4 is SKIPPED and the >1.5×@4-threads
//! criterion stays unproven — rerun on multi-core hardware.
//!
//! Section 2 additionally measures the `zeroer-obs` instrumentation
//! overhead (metrics-on vs metrics-off sequential ingest over
//! identical cold pipelines; criterion: < 5 %) and pulls per-record
//! latency percentiles out of the metrics registry.
//!
//! Besides the human-readable report, the run writes
//! `BENCH_stream.json` (schema `zeroer-bench-stream-v1`, path
//! overridable via `ZEROER_BENCH_OUT`) with per-section throughput for
//! dashboards and CI.
//!
//! Knobs: `ZEROER_SCALE` (default 0.25, sections 1–3 and 5–6),
//! `ZEROER_SCALE_PAR` (default 1.0, section 4), `ZEROER_SEED`
//! (default 42), `ZEROER_MAX_THREADS` (default 8), `ZEROER_BENCH_OUT`
//! (default `BENCH_stream.json`).

use std::time::Instant;
use zeroer_core::ScoreBatch;
use zeroer_datagen::generate;
use zeroer_datagen::profiles::rest_fz;
use zeroer_features::{BatchFeaturizer, FillScratch, RowFeaturizer};
use zeroer_obs::json::{Arr, Obj};
use zeroer_stream::{
    IndexConfig, LinkPipeline, PipelineSnapshot, Side, StreamOptions, StreamPipeline,
};
use zeroer_tabular::{Record, Table};
use zeroer_textsim::derive::{DerivedRecord, Deriver};

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Bootstrap table (first 70 %) and streamed tail (last 30 %).
fn split(scale: f64, seed: u64) -> (Table, Vec<Record>) {
    let ds = generate(&rest_fz(), scale, seed);
    let (table, _) = ds.dedup_table();
    let cut = table.len() * 7 / 10;
    let mut boot = Table::new("boot", table.schema().clone());
    for r in table.records().iter().take(cut) {
        boot.push(r.clone());
    }
    let tail: Vec<Record> = table.records()[cut..].to_vec();
    (boot, tail)
}

fn cold(snap: &PipelineSnapshot, boot: &Table) -> StreamPipeline {
    let mut p = StreamPipeline::from_snapshot(snap, StreamOptions::default().threshold)
        .expect("snapshot restores");
    p.seed_base(boot).expect("bootstrap decisions replay");
    p
}

/// The pre-interning per-record derivation work, reproduced verbatim for
/// the before/after comparison: one `HashMap<String, u32>` bag per
/// tokenizer per attribute plus a separate string-keyed blocking-key
/// extraction (`normalize` ran up to three times per value).
mod reference {
    use std::collections::HashMap;
    use zeroer_tabular::Record;

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
        let norm = normalize(s);
        let mut bag = HashMap::new();
        if norm.is_empty() {
            return bag;
        }
        let pad = "#".repeat(q - 1);
        let padded: Vec<char> = format!("{pad}{norm}{pad}").chars().collect();
        for w in padded.windows(q) {
            *bag.entry(w.iter().collect::<String>()).or_insert(0) += 1;
        }
        bag
    }

    /// Lowercased text plus the 3-gram and word bags of one attribute.
    pub type OldAttr = (String, HashMap<String, u32>, HashMap<String, u32>);

    /// One record's worth of the old cache + blocking-key work.
    pub struct OldCache {
        pub bags: Vec<OldAttr>,
        pub token_keys: Vec<String>,
        pub qgram_keys: Vec<String>,
    }

    pub fn build(record: &Record, block_attr: usize, block_q: usize) -> OldCache {
        let bags = record
            .values
            .iter()
            .map(|v| {
                let t = v.as_text().unwrap_or_default();
                (t.to_lowercase(), qgrams(&t, 3), words(&t))
            })
            .collect();
        let (token_keys, qgram_keys) = match record.values[block_attr].as_text() {
            None => (Vec::new(), Vec::new()),
            Some(t) => {
                let mut tk: Vec<String> = words(&t).into_keys().filter(|k| k.len() > 1).collect();
                tk.sort();
                let mut qk: Vec<String> = qgrams(&t, block_q).into_keys().collect();
                qk.sort();
                (tk, qk)
            }
        };
        OldCache {
            bags,
            token_keys,
            qgram_keys,
        }
    }

    /// Bytes of token text the old representation stored for one record
    /// (every bag and key list owned its strings).
    pub fn token_bytes(c: &OldCache) -> usize {
        let mut b = 0;
        for (_, qgm, word) in &c.bags {
            b += qgm.keys().map(String::len).sum::<usize>();
            b += word.keys().map(String::len).sum::<usize>();
        }
        b += c.token_keys.iter().map(String::len).sum::<usize>();
        b += c.qgram_keys.iter().map(String::len).sum::<usize>();
        b
    }
}

fn main() {
    let scale = env_f64("ZEROER_SCALE", 0.25);
    let scale_par = env_f64("ZEROER_SCALE_PAR", 1.0);
    let seed = env_f64("ZEROER_SEED", 42.0) as u64;
    let max_threads = env_f64("ZEROER_MAX_THREADS", 8.0) as usize;

    let (boot, tail) = split(scale, seed);
    let all: Vec<Record> = boot
        .records()
        .iter()
        .cloned()
        .chain(tail.iter().cloned())
        .collect();

    // The JSON document mirrored into BENCH_stream.json at the end;
    // sections append to it as they finish.
    let mut bench_sections = Obj::new();

    // ---- Machine-readable header -----------------------------------
    // The core count lives HERE, not in the final summary: tooling that
    // ingests pasted bench output reads one JSON line up front to learn
    // whether parallel-scaling numbers below were measured or SKIPPED.
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("== bench_stream ==");
    let mut header = Obj::new();
    header
        .str("bench", "zeroer-bench-stream-v1")
        .u64("cores", cores as u64)
        .f64("scale", scale)
        .f64("scale_par", scale_par)
        .u64("seed", seed);
    match zeroer_obs::rss_bytes() {
        Some(rss) => header.u64("rss_bytes", rss),
        None => header.raw("rss_bytes", "null"),
    };
    let header_json = header.finish();
    println!("header: {header_json}");
    println!(
        "dataset Rest-FZ at scale {scale}: {} records, bootstrap on {}\n",
        all.len(),
        boot.len()
    );

    // ---- Section 1: derivation throughput -------------------------
    let cfg = IndexConfig::default();
    let reps = (20_000 / all.len().max(1)).max(1);
    println!(
        "== derivation: string-based caches vs one-pass interned ({} records × {reps} reps) ==",
        all.len()
    );

    let t_ref = Instant::now();
    let mut naive_bytes = 0usize;
    for rep in 0..reps {
        for r in &all {
            let c = reference::build(r, cfg.attr, cfg.qgram);
            if rep == 0 {
                naive_bytes += reference::token_bytes(&c);
            }
            std::hint::black_box(&c);
        }
    }
    let ref_secs = t_ref.elapsed().as_secs_f64();

    let t_new = Instant::now();
    let mut last: Option<(Deriver, Vec<DerivedRecord>)> = None;
    for _ in 0..reps {
        let mut deriver = Deriver::new(cfg.derive_config());
        let derived: Vec<DerivedRecord> = all.iter().map(|r| deriver.derive(&r.values)).collect();
        last = Some((deriver, derived));
    }
    let new_secs = t_new.elapsed().as_secs_f64();
    let (deriver, _derived) = last.expect("at least one rep");

    let per = (all.len() * reps) as f64;
    println!(
        "string-based caches (reference): {:.0} records/s ({:.1} µs/record)",
        per / ref_secs,
        ref_secs * 1e6 / per
    );
    println!(
        "one-pass interned derivation:    {:.0} records/s ({:.1} µs/record) → {:.2}×",
        per / new_secs,
        new_secs * 1e6 / per,
        ref_secs / new_secs
    );
    println!(
        "interner: {} distinct tokens, {} bytes; string-bag token storage: {} bytes ({:.1}% saved)\n",
        deriver.interner().len(),
        deriver.interner().bytes(),
        naive_bytes,
        100.0 * (1.0 - deriver.interner().bytes() as f64 / naive_bytes.max(1) as f64)
    );
    let mut o = Obj::new();
    o.f64("reference_records_per_s", per / ref_secs)
        .f64("interned_records_per_s", per / new_secs)
        .f64("speedup", ref_secs / new_secs)
        .u64("interned_tokens", deriver.interner().len() as u64)
        .u64("interned_bytes", deriver.interner().bytes() as u64);
    bench_sections.raw("derivation", &o.finish());

    // ---- Section 2: sequential per-record ingest -------------------
    let t0 = Instant::now();
    let (pipeline, report) =
        StreamPipeline::bootstrap(&boot, StreamOptions::default()).expect("bootstrap");
    let bootstrap_secs = t0.elapsed().as_secs_f64();
    println!(
        "== sequential ingest (bootstrap: {:.3} s, {} candidate pairs, {} EM iterations) ==",
        bootstrap_secs,
        report.pairs.len(),
        report.em_iterations
    );
    let snap_seq = pipeline.snapshot();
    drop(pipeline);

    let n = tail.len();
    // One untimed warmup pass so neither timed run below gets a cold
    // allocator/cache advantage over the other.
    let mut warm = cold(&snap_seq, &boot);
    for r in tail.clone() {
        warm.ingest(r);
    }
    drop(warm);

    // Metrics-on run: the headline numbers, and the source of the
    // per-record latency percentiles (registry histogram
    // `stream.ingest.ns`). Reset first so the percentiles cover exactly
    // this loop. Clones happen outside the timed region: the measured
    // loop should pay for ingest, not for Record copies.
    zeroer_obs::reset();
    let mut pipeline = cold(&snap_seq, &boot);
    let tail_seq = tail.clone();
    let t1 = Instant::now();
    let mut scored = 0usize;
    let mut matched = 0usize;
    for r in tail_seq {
        let out = pipeline.ingest(r);
        scored += out.candidates;
        matched += usize::from(!out.is_new_entity());
    }
    let ingest_secs = t1.elapsed().as_secs_f64();

    // Metrics-off run over an identical cold pipeline: the
    // instrumentation-overhead check (criterion: < 5 %).
    let mut off = cold(&snap_seq, &boot);
    off.set_metrics(false);
    let tail_off = tail.clone();
    let t_off = Instant::now();
    for r in tail_off {
        off.ingest(r);
    }
    let off_secs = t_off.elapsed().as_secs_f64();
    assert_eq!(
        pipeline.clusters(),
        off.clusters(),
        "metrics must be observational"
    );
    drop(off);

    let ingest_hist = zeroer_obs::histogram("stream.ingest.ns").snapshot();
    let overhead_pct = (ingest_secs / off_secs - 1.0) * 100.0;
    println!(
        "ingest: {n} records in {:.4} s → {:.0} records/s ({:.1} µs/record)",
        ingest_secs,
        n as f64 / ingest_secs,
        ingest_secs * 1e6 / n as f64
    );
    println!(
        "        {scored} candidates scored, {matched} records joined existing entities, {} clusters",
        pipeline.clusters().len()
    );
    println!(
        "        per-record latency p50 {:.1} µs / p95 {:.1} µs / p99 {:.1} µs (stream.ingest.ns)",
        ingest_hist.percentile(50.0) / 1e3,
        ingest_hist.percentile(95.0) / 1e3,
        ingest_hist.percentile(99.0) / 1e3
    );
    println!(
        "        instrumentation overhead: metrics-off {:.1} µs/record → {overhead_pct:+.2} % (criterion < 5 %)\n",
        off_secs * 1e6 / n as f64
    );
    let mut o = Obj::new();
    o.u64("records", n as u64)
        .f64("records_per_s", n as f64 / ingest_secs)
        .f64("us_per_record", ingest_secs * 1e6 / n as f64)
        .f64("p50_ns", ingest_hist.percentile(50.0))
        .f64("p95_ns", ingest_hist.percentile(95.0))
        .f64("p99_ns", ingest_hist.percentile(99.0))
        .f64("metrics_overhead_pct", overhead_pct);
    bench_sections.raw("sequential_ingest", &o.finish());

    // ---- Section 3: scoring-loop allocation delta ------------------
    // Same feature rows, same scorer; the only difference is one Vec
    // allocation per candidate (raw_row) vs. one reused buffer
    // (raw_row_into, what ingest actually runs).
    let snap = pipeline.snapshot();
    let featurizer = RowFeaturizer::new(&snap.attr_types);
    let scorer = snap.model.scoring().scorer().expect("snapshot scorer");
    let mut score_deriver = Deriver::new(cfg.derive_config());
    let caches: Vec<DerivedRecord> = boot
        .records()
        .iter()
        .map(|r| score_deriver.derive(&r.values))
        .collect();
    let interner = score_deriver.interner();
    let pairs: Vec<(usize, usize)> = (0..caches.len().saturating_sub(1))
        .map(|i| (i, i + 1))
        .collect();
    let score_reps = (20_000 / pairs.len().max(1)).max(1);

    let t2 = Instant::now();
    let mut acc_alloc = 0.0f64;
    for _ in 0..score_reps {
        for &(i, j) in &pairs {
            let mut row = featurizer.raw_row(interner, &caches[i], &caches[j]);
            acc_alloc += scorer.score_raw(&mut row);
        }
    }
    let alloc_secs = t2.elapsed().as_secs_f64();

    let t3 = Instant::now();
    let mut acc_reuse = 0.0f64;
    let mut buf: Vec<f64> = Vec::new();
    for _ in 0..score_reps {
        for &(i, j) in &pairs {
            featurizer.raw_row_into(interner, &caches[i], &caches[j], &mut buf);
            acc_reuse += scorer.score_raw(&mut buf);
        }
    }
    let reuse_secs = t3.elapsed().as_secs_f64();
    assert_eq!(acc_alloc.to_bits(), acc_reuse.to_bits(), "paths must agree");
    let per = (pairs.len() * score_reps) as f64;
    println!(
        "== scoring-loop allocation delta ({} scores) ==",
        pairs.len() * score_reps
    );
    println!(
        "raw_row (alloc/candidate): {:.3} µs/score | raw_row_into (reused buffer): {:.3} µs/score → {:+.1} %\n",
        alloc_secs * 1e6 / per,
        reuse_secs * 1e6 / per,
        (reuse_secs / alloc_secs - 1.0) * 100.0
    );
    let mut o = Obj::new();
    o.f64("raw_row_us_per_score", alloc_secs * 1e6 / per)
        .f64("raw_row_into_us_per_score", reuse_secs * 1e6 / per)
        .f64("delta_pct", (reuse_secs / alloc_secs - 1.0) * 100.0);
    bench_sections.raw("scoring_alloc", &o.finish());

    // ---- Section 3b: batched struct-of-arrays scoring --------------
    // The production shape: each record is scored as the "new" arrival
    // against a window of previous records — exactly how
    // `score_candidates` batches one ingest's candidate list. Scalar =
    // raw_row_into + score_raw per candidate (the oracle); batched = one
    // fill_columns + score_batch per arrival (what the pipelines run).
    // The batched path must be bit-identical AND
    // faster: it reuses one DP scratch across the whole column fill,
    // dedups repeated candidate values per attribute (low-cardinality
    // columns collapse to a handful of kernel calls), and evaluates
    // each covariance block once per batch instead of re-walking the
    // block layout per row.
    let batch_fz = BatchFeaturizer::new(&snap.attr_types);
    const WINDOW: usize = 48;
    let windows: Vec<(usize, usize)> = (1..caches.len())
        .map(|i| (i, i.saturating_sub(WINDOW)))
        .collect();
    let batch_scores: usize = windows.iter().map(|&(i, lo)| i - lo).sum();
    let batch_reps = (20_000 / batch_scores.max(1)).max(1);

    let t4 = Instant::now();
    let mut acc_scalar = 0.0f64;
    for _ in 0..batch_reps {
        for &(i, lo) in &windows {
            for j in lo..i {
                featurizer.raw_row_into(interner, &caches[i], &caches[j], &mut buf);
                acc_scalar += scorer.score_raw(&mut buf);
            }
        }
    }
    let scalar_secs = t4.elapsed().as_secs_f64();

    let t5 = Instant::now();
    let mut acc_batched = 0.0f64;
    let mut batch = ScoreBatch::new();
    let mut scratch = FillScratch::new();
    for _ in 0..batch_reps {
        for &(i, lo) in &windows {
            batch_fz.fill_columns(
                &mut scratch,
                interner,
                i - lo,
                |k| (&caches[i], &caches[lo + k]),
                batch.cols_mut(),
            );
            for &p in scorer.score_batch(&mut batch) {
                acc_batched += p;
            }
        }
    }
    let batched_secs = t5.elapsed().as_secs_f64();
    assert_eq!(
        acc_scalar.to_bits(),
        acc_batched.to_bits(),
        "batched scoring must be bit-identical to scalar"
    );
    let speedup = scalar_secs / batched_secs;
    let batch_per = (batch_scores * batch_reps) as f64;
    println!(
        "== batched struct-of-arrays scoring ({} scores, window {WINDOW}) ==",
        batch_scores * batch_reps
    );
    println!(
        "scalar (row-at-a-time): {:.3} µs/score | batched (fill_columns + score_batch): \
         {:.3} µs/score → {speedup:.2}× (criterion ≥ 1.3×)\n",
        scalar_secs * 1e6 / batch_per,
        batched_secs * 1e6 / batch_per
    );
    let mut o = Obj::new();
    o.u64("scores", (batch_scores * batch_reps) as u64)
        .f64("scalar_us_per_score", scalar_secs * 1e6 / batch_per)
        .f64("batched_us_per_score", batched_secs * 1e6 / batch_per)
        .f64("speedup", speedup);
    bench_sections.raw("scoring_kernels", &o.finish());

    // ---- Section 4: multi-thread batch-ingest scaling --------------
    let (boot_par, tail_par) = split(scale_par, seed);
    let (fitted, _) =
        StreamPipeline::bootstrap(&boot_par, StreamOptions::default()).expect("bootstrap");
    let snap_par = fitted.snapshot();
    println!(
        "== parallel batch ingest (Rest-FZ at scale {scale_par}: {} streamed records, {cores} core(s) available) ==",
        tail_par.len()
    );
    let mut parallel = Obj::new();
    parallel.bool("skipped", cores < 2);
    if cores < 2 {
        // Speedup numbers off a single core are pure pool overhead and
        // read as a scaling regression; don't print misleading 1.0×
        // lines, just prove determinism at one multi-thread point.
        println!(
            "SKIPPED: parallel-scaling timings need >1 core (available_parallelism = 1); \
             run on multi-core hardware for the speedup numbers."
        );
        let mut seq = cold(&snap_par, &boot_par);
        seq.ingest_batch_parallel(tail_par.clone(), 1);
        let mut par = cold(&snap_par, &boot_par);
        par.ingest_batch_parallel(tail_par.clone(), 4);
        let identical = seq.clusters() == par.clusters();
        println!(
            "determinism check (threads 1 vs 4): {}\n",
            if identical {
                "identical clusters"
            } else {
                "CLUSTER MISMATCH"
            }
        );
        parallel.bool("determinism_1_vs_4", identical);
    } else {
        let mut baseline = f64::NAN;
        let mut reference_clusters: Option<Vec<Vec<usize>>> = None;
        let mut threads = 1;
        let mut rows = Arr::new();
        while threads <= max_threads {
            let mut p = cold(&snap_par, &boot_par);
            let t = Instant::now();
            let outcomes = p.ingest_batch_parallel(tail_par.clone(), threads);
            let secs = t.elapsed().as_secs_f64();
            if threads == 1 {
                baseline = secs;
            }
            let clusters = p.clusters();
            let parity = match &reference_clusters {
                None => {
                    reference_clusters = Some(clusters);
                    "reference"
                }
                Some(reference) if *reference == clusters => "identical clusters",
                Some(_) => "CLUSTER MISMATCH",
            };
            println!(
                "threads={threads}: {:.4} s → {:.0} records/s ({:.2}× vs 1 thread, {} outcomes, {parity})",
                secs,
                tail_par.len() as f64 / secs,
                baseline / secs,
                outcomes.len()
            );
            let mut row = Obj::new();
            row.u64("threads", threads as u64)
                .f64("records_per_s", tail_par.len() as f64 / secs)
                .f64("speedup_vs_1", baseline / secs)
                .bool("cluster_parity", parity != "CLUSTER MISMATCH");
            rows.raw(&row.finish());
            threads *= 2;
        }
        parallel.raw("threads", &rows.finish());
        println!();
    }
    bench_sections.raw("parallel_ingest", &parallel.finish());

    // ---- Section 5: retraction + compaction ------------------------
    // Retract ~40 % of the store, then compact. Per-retraction latency
    // includes the component rebuild and the watermark check (the
    // default 0.5 watermark stays armed; a line is printed if it
    // fires).
    let mut p = cold(&snap_par, &boot_par);
    p.ingest_batch_parallel(tail_par.clone(), 1.max(cores));
    let total = p.len();
    let victims: Vec<usize> = (0..total).filter(|i| i % 3 == 0 || i % 10 == 9).collect();
    println!(
        "== retraction + compaction ({} of {} records retracted) ==",
        victims.len(),
        total
    );
    let t4 = Instant::now();
    let mut max_component = 0usize;
    for &v in &victims {
        let r = p.retract(v).expect("live record");
        max_component = max_component.max(r.component_size);
        if let Some(auto) = r.auto_compaction {
            println!(
                "watermark compaction fired at epoch {}: {} bytes reclaimed",
                auto.epoch,
                auto.bytes_reclaimed()
            );
        }
    }
    let retract_secs = t4.elapsed().as_secs_f64();
    println!(
        "retract: {} records in {:.4} s → {:.0} retractions/s ({:.1} µs each, largest component rebuilt: {max_component})",
        victims.len(),
        retract_secs,
        victims.len() as f64 / retract_secs,
        retract_secs * 1e6 / victims.len() as f64
    );
    let stats = p.stats();
    let t5 = Instant::now();
    let report = p.compact();
    let compact_secs = t5.elapsed().as_secs_f64();
    println!(
        "compact: {:.4} s → {} bytes reclaimed ({} of {} postings dropped, {} buckets freed, {} log edges pruned)",
        compact_secs,
        report.bytes_reclaimed(),
        report.index.postings_dropped,
        stats.index.postings(),
        report.index.buckets_freed,
        report.store.decisions_pruned
    );
    let mut o = Obj::new();
    o.u64("retracted", victims.len() as u64)
        .f64("retractions_per_s", victims.len() as f64 / retract_secs)
        .f64("compact_secs", compact_secs)
        .u64("bytes_reclaimed", report.bytes_reclaimed() as u64);
    bench_sections.raw("retraction", &o.finish());

    // ---- Section 6: streaming record linkage -----------------------
    // Freeze a three-model linkage fit on (left, 70 % of right), then
    // stream the remaining right-side records through the frozen cross
    // model: sequential throughput plus a thread-parity check.
    let ds = generate(&rest_fz(), scale, seed);
    let cut = ds.right.len() * 7 / 10;
    let mut boot_right = Table::new("right-boot", ds.right.schema().clone());
    for r in ds.right.records().iter().take(cut) {
        boot_right.push(r.clone());
    }
    let link_tail: Vec<Record> = ds.right.records()[cut..].to_vec();
    let t6 = Instant::now();
    let (link, link_report) =
        LinkPipeline::bootstrap(&ds.left, &boot_right, StreamOptions::default())
            .expect("linkage bootstrap");
    let link_boot_secs = t6.elapsed().as_secs_f64();
    let link_snap = link.snapshot();
    println!(
        "\n== streaming linkage (Rest-FZ at scale {scale}: left {} + right {} bootstrap, {} streamed) ==",
        ds.left.len(),
        cut,
        link_tail.len()
    );
    println!(
        "bootstrap: {:.3} s ({} cross candidates, {} EM iterations, snapshot {} bytes)",
        link_boot_secs,
        link_report.pairs.len(),
        link_report.em_iterations,
        link_snap.to_json().len()
    );
    let cold_link = || {
        let mut p = LinkPipeline::from_snapshot(&link_snap, StreamOptions::default().threshold)
            .expect("link snapshot restores");
        p.seed_base(&ds.left, &boot_right).expect("seed");
        p
    };
    let mut p = cold_link();
    let t7 = Instant::now();
    let mut linked = 0usize;
    for r in &link_tail {
        if !p.ingest(r.clone(), Side::Right).is_new_entity() {
            linked += 1;
        }
    }
    let link_secs = t7.elapsed().as_secs_f64();
    println!(
        "sequential right-side ingest: {:.0} records/s ({:.1} µs/record, {} of {} linked across)",
        link_tail.len() as f64 / link_secs,
        link_secs * 1e6 / link_tail.len().max(1) as f64,
        linked,
        link_tail.len()
    );
    let mut par = cold_link();
    par.ingest_batch_parallel(link_tail.clone(), Side::Right, 4);
    let link_parity = p.clusters() == par.clusters();
    println!(
        "thread parity (1 vs 4): {}",
        if link_parity {
            "identical clusters"
        } else {
            "CLUSTER MISMATCH"
        }
    );
    let mut o = Obj::new();
    o.u64("streamed", link_tail.len() as u64)
        .f64(
            "records_per_s",
            link_tail.len() as f64 / link_secs.max(f64::MIN_POSITIVE),
        )
        .bool("thread_parity", link_parity);
    bench_sections.raw("linkage", &o.finish());

    // ---- BENCH_stream.json + summary -------------------------------
    // The core count already sits in the machine-readable header up
    // top; the summary only restates whether the parallel-scaling
    // criterion (>1.5× at 4 threads) was measured or SKIPPED — a
    // 1-core run proves determinism, never speedup.
    let mut doc = Obj::new();
    doc.str("schema", "zeroer-bench-stream-v1")
        .raw("header", &header_json)
        .raw("sections", &bench_sections.finish());
    let out_path = std::env::var("ZEROER_BENCH_OUT").unwrap_or_else(|_| "BENCH_stream.json".into());
    match std::fs::write(&out_path, doc.finish() + "\n") {
        Ok(()) => println!("\nmachine-readable results written to {out_path}"),
        Err(e) => println!("\nWARNING: cannot write {out_path}: {e}"),
    }
    println!(
        "== summary{} ==",
        if cores < 2 {
            ": parallel-scaling timings were SKIPPED — rerun on multi-core hardware \
             to demonstrate the >1.5×@4-threads criterion"
        } else {
            ""
        }
    );
}
