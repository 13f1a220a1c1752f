//! `stream-ingest`: ingest the held-out tail into a snapshot-restored
//! pipeline one record at a time, then again on a fresh restore with
//! `ingest_batch_parallel` at 2 threads. The store grows during the
//! run, so candidates per record rise with it; EM does no work.
//!
//! Ingest's derive/block/score/decide stages sit inside one public
//! call, so the traced run reads the `stream.*` meters the pipeline
//! already records. The traced run then serves the same set-up over
//! TCP (see `serve.rs`) for the serve, publish and admission layers.

use crate::common::{
    canonical, fit_head, pair_f1, restore, secs, Args, FittedHead, Gauge, F1_FLOOR,
};
use crate::report::{histogram_tail_us, median, peak_rss_mb, Latencies, Report};
use std::hint::black_box;
use std::time::Instant;
use zeroer::obs;
use zeroer::pipeline::StreamPipeline;

/// Ingests the tail one `ingest` call at a time, timing each call.
fn ingest_sequential(fitted: &FittedHead, metrics: bool, lat: &mut Latencies) -> StreamPipeline {
    let mut p = restore(&fitted.snap, &fitted.head, metrics);
    for r in &fitted.tail {
        let t = Instant::now();
        black_box(p.ingest(r.clone()));
        lat.push(t);
    }
    p
}

/// Ingests the tail with `ingest_batch_parallel` at 2 threads; returns
/// the pipeline and the wall time of the call.
fn ingest_parallel(fitted: &FittedHead, metrics: bool) -> (StreamPipeline, f64) {
    let mut p = restore(&fitted.snap, &fitted.head, metrics);
    let records = fitted.tail.clone();
    let t = Instant::now();
    black_box(p.ingest_batch_parallel(records, 2));
    let wall = secs(t);
    (p, wall)
}

pub fn run(args: &Args, rep: &mut Report) {
    let fitted = fit_head(args.seed);
    rep.set("setup_s", fitted.setup_s);
    rep.set("core.fit_s", fitted.fit_s);
    let n = fitted.tail.len();
    if args.trace {
        traced(args, rep, &fitted);
        return;
    }
    // Client-side latency of every 1-thread `ingest` call after the
    // first pass, which warms the heap and caches and is checked, not
    // timed.
    let mut lat = Latencies::default();
    let mut gauge = Gauge::default();
    let mut reference: Option<Vec<Vec<usize>>> = None;
    let (mut pass, start) = (0, Instant::now());
    while pass < 3 || start.elapsed() < args.seconds {
        let mut pass_lat = Latencies::default();
        let seq = ingest_sequential(&fitted, false, &mut pass_lat);
        let (par, wall_2t) = ingest_parallel(&fitted, false);
        rep.ops(2 * n, 0);
        pass += 1;
        println!(
            "pass {pass}: 1 thread {:.4} s, 2 threads {wall_2t:.4} s",
            pass_lat.total() / 1e3
        );
        if pass > 1 {
            lat.0.extend(pass_lat.0);
            gauge.sample();
        }
        let clusters = canonical(seq.clusters());
        rep.check(
            "1-thread and 2-thread ingest give identical clusters",
            clusters == canonical(par.clusters()),
        );
        match &reference {
            None => {
                let f1 = pair_f1(&clusters, &fitted.order, &fitted.truth);
                rep.check(&format!("pair_f1 {f1:.4} >= {F1_FLOOR}"), f1 >= F1_FLOOR);
                rep.set("pair_f1", f1);
                reference = Some(clusters);
            }
            Some(c) => rep.check(
                "a repeated ingest pass gives identical clusters",
                *c == clusters,
            ),
        }
    }
    lat.tail("ingest latency");
    let rate = lat.0.len() as f64 / (lat.total() / 1e3);
    println!("wall: {rate:.1} ops/s");
    let scale = gauge.scale("measured phase");
    rep.set("ops_per_s", rate / scale);
    rep.set("op_p50_ms", lat.p50() * scale);
    rep.set("peak_rss_mb", peak_rss_mb());
}

fn traced(args: &Args, rep: &mut Report, fitted: &FittedHead) {
    let n = fitted.tail.len();
    let (mut untraced, mut traced) = (Latencies::default(), Latencies::default());
    let (mut layers, mut walls, mut queue_wait, mut rps_2t) = (vec![], vec![], vec![], vec![]);
    let (mut score_tail, mut candidates, mut bytes) = (vec![], 0.0, 0.0);
    let start = Instant::now();
    while walls.is_empty() || start.elapsed() < args.seconds {
        obs::set_enabled(false);
        drop(ingest_sequential(fitted, false, &mut untraced));

        obs::set_enabled(true);
        obs::reset();
        let before = traced.total();
        let seq = ingest_sequential(fitted, true, &mut traced);
        let wall = (traced.total() - before) / 1e3;
        let stage = |name: &str| obs::histogram(name).snapshot().sum as f64 / 1e9;
        let parts = [
            stage("stream.derive.ns"),
            stage("stream.block.ns"),
            stage("stream.score.ns"),
            stage("stream.decide.ns"),
        ];
        let score = obs::histogram("stream.score.ns").snapshot();
        score_tail.push(histogram_tail_us("stream score (server meter)", &score));
        let scored = obs::histogram("stream.score.batch_candidates").snapshot();
        if walls.is_empty() {
            let stats = seq.stats();
            candidates = obs::counter("stream.candidates").get() as f64 / n as f64;
            bytes = (stats.interned_bytes + 8 * stats.index.postings()) as f64 / seq.len() as f64;
            rep.set("stream.score_candidates_per_record", scored.mean());
            let f1 = pair_f1(&seq.clusters(), &fitted.order, &fitted.truth);
            rep.check(&format!("pair_f1 {f1:.4} >= {F1_FLOOR}"), f1 >= F1_FLOOR);
            rep.set("pair_f1", f1);
        }
        obs::reset();
        let (par, wall_2t) = ingest_parallel(fitted, true);
        queue_wait.push(stage("stream.queue_wait.ns"));
        rps_2t.push(n as f64 / wall_2t);
        rep.ops(3 * n, 0);
        rep.check(
            "1-thread and 2-thread ingest give identical clusters",
            canonical(seq.clusters()) == canonical(par.clusters()),
        );
        layers.push(parts);
        walls.push(wall);
    }
    let stage = |i: usize| median(&layers.iter().map(|l| l[i]).collect::<Vec<_>>());
    rep.set("stream.derive_s", stage(0));
    rep.set("stream.block_s", stage(1));
    rep.set("stream.score_s", stage(2));
    rep.set("stream.decide_s", stage(3));
    rep.set("stream.score_tail_us", median(&score_tail));
    rep.set("stream.queue_wait_s", median(&queue_wait));
    rep.set("stream.bytes_per_record", bytes);
    rep.set("stream.snapshot_bytes", fitted.snapshot_bytes as f64);
    rep.set("stream.restore_s", fitted.restore_s);
    rep.set("blocking.candidates_per_record", candidates);
    rep.set("core.em_iterations", fitted.em_iterations as f64);
    rep.set("client.op_tail_ms", traced.tail("traced ingest latency"));
    rep.set("client.ingest_rps_2t", median(&rps_2t));
    let sum: f64 = (0..4).map(stage).sum();
    let wall = median(&walls);
    println!("stages sum to {sum:.4} s against 1-thread ingest wall {wall:.4} s");
    rep.set("bench.unaccounted_s", wall - sum);
    rep.set("obs.trace_overhead_ratio", traced.mean() / untraced.mean());
    crate::serve::measure(args, rep, fitted);
}
