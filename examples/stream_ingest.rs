//! Streaming entity resolution: bootstrap once, ingest forever.
//!
//! Generates a synthetic Fodors-Zagat-style dedup workload, fits the
//! ZeroER model on the first 70 % (one EM run), freezes it into a JSON
//! snapshot, and streams the remaining 30 % through the incremental
//! path: per-record blocking against everything already resolved and
//! frozen-model scoring — zero EM iterations at ingest time.
//!
//! Run with `cargo run --release --example stream_ingest`.

use zeroer::datagen::generate;
use zeroer::datagen::profiles::rest_fz;
use zeroer::pipeline::{PipelineSnapshot, StreamOptions, StreamPipeline};
use zeroer::tabular::Table;

fn main() {
    // A dedup workload: both sides of the linkage benchmark in one table.
    let ds = generate(&rest_fz(), 0.2, 7);
    let (table, _truth) = ds.dedup_table();
    let cut = table.len() * 7 / 10;
    let mut initial = Table::new("initial", table.schema().clone());
    for r in table.records().iter().take(cut) {
        initial.push(r.clone());
    }

    // One-shot setup: batch fit + freeze.
    let (mut pipeline, report) =
        StreamPipeline::bootstrap(&initial, StreamOptions::default()).expect("bootstrap");
    println!(
        "bootstrap: {} records, {} candidate pairs, {} EM iterations, {} clusters",
        initial.len(),
        report.pairs.len(),
        report.em_iterations,
        pipeline.clusters().len()
    );

    // The snapshot is plain JSON — persist it, ship it, reload it.
    let json = pipeline.snapshot().to_json();
    let reloaded = PipelineSnapshot::from_json(&json).expect("snapshot round-trips");
    println!(
        "snapshot: {} bytes of JSON, {} features",
        json.len(),
        reloaded.model.scoring().dim()
    );

    // Online phase: ingest the remaining records one at a time.
    let mut joined = 0usize;
    for r in table.records()[cut..].iter().cloned() {
        let out = pipeline.ingest(r);
        if let Some(&(best, p)) = out.matches.first() {
            joined += 1;
            if joined <= 5 {
                let name = |i: usize| pipeline.store().table().value(i, 0).to_string();
                println!(
                    "  record {:>3} {:<38} → entity of {:<38} (p = {p:.3})",
                    out.index,
                    name(out.index),
                    name(best)
                );
            }
        }
    }
    println!(
        "ingested {} records: {} joined existing entities, {} duplicate clusters total",
        table.len() - cut,
        joined,
        pipeline.clusters().len()
    );
}
