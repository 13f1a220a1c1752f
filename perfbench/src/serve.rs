//! The serve phase of `stream-ingest`'s traced run: an in-process
//! `zeroer_serve::Server` on the restored bootstrap snapshot, driven
//! over TCP by one closed-loop resolver connection (probes drawn in
//! seeded order from the whole corpus, so some hit stored entities and
//! some hit records not yet ingested) and one writer connection sending
//! the held-out tail in batches on a fixed open-loop schedule spread
//! over the run. Publish, admission and the frame layer run only here.

use crate::common::{pair_f1, permutation, restore, secs, Args, FittedHead, F1_FLOOR};
use crate::report::{histogram_tail_us, Latencies, Report};
use std::time::Instant;
use zeroer::obs;
use zeroer::serve::{Client, Server};
use zeroer::tabular::Record;

/// Records per writer batch.
const WRITE_BATCH: usize = 5;
/// Wire resolves compared with in-process resolves after the drain.
const SAMPLE: usize = 50;

/// What one serve phase measured, client-side.
struct Phase {
    resolves: Latencies,
    matched: usize,
    candidates: usize,
    resolver_s: f64,
    acks: Latencies,
    late: Latencies,
    failed: usize,
}

/// Runs the server, meters on, under the mixed load for `seconds`,
/// checks the outputs, and returns the client-side measurements.
fn phase(args: &Args, rep: &mut Report, fitted: &FittedHead) -> Phase {
    let pipeline = restore(&fitted.snap, &fitted.head, true);
    let server = Server::bind(pipeline, "127.0.0.1:0", 1).expect("binding a loopback port");
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());

    let batches: Vec<Vec<Record>> = fitted
        .tail
        .chunks(WRITE_BATCH)
        .map(<[Record]>::to_vec)
        .collect();
    let interval = args.seconds.div_f64(batches.len() as f64);
    let start = Instant::now();
    let writer = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connecting the writer");
        let (mut acks, mut late, mut failed) = (Latencies::default(), Latencies::default(), 0);
        for (k, batch) in batches.iter().enumerate() {
            let due = start + interval.mul_f64(k as f64);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            late.push(due);
            let ok = matches!(client.ingest(batch), Ok(out) if out.len() == batch.len());
            failed += usize::from(!ok);
            acks.push(due);
        }
        (acks, late, failed)
    });

    let probes: Vec<&Record> = permutation(
        fitted.corpus.table.len(),
        fitted.corpus.table.len() as u64 ^ args.seed,
    )
    .into_iter()
    .map(|i| &fitted.corpus.table.records()[i])
    .collect();
    let mut client = Client::connect(addr).expect("connecting the resolver");
    let mut resolves = Latencies::default();
    let (mut matched, mut candidates, mut failed) = (0, 0, 0);
    while !writer.is_finished() {
        let probe = probes[resolves.0.len() % probes.len()];
        let t = Instant::now();
        match client.resolve(&probe.values) {
            Ok(out) => {
                matched += usize::from(out.cluster.is_some());
                candidates += out.candidates;
            }
            Err(_) => failed += 1,
        }
        resolves.push(t);
    }
    let resolver_s = secs(start);
    let (acks, late, write_failed) = writer.join().expect("the writer thread");
    rep.ops(
        resolves.0.len() + acks.0.len() * WRITE_BATCH,
        failed + write_failed,
    );

    // Every write is acknowledged, so the last published view holds the
    // whole corpus: wire resolves must equal in-process resolves.
    let sample: Vec<&Record> = probes.iter().take(SAMPLE).copied().collect();
    let wire: Vec<_> = sample
        .iter()
        .map(|r| client.resolve(&r.values).ok())
        .collect();
    client.admin("shutdown").expect("shutting the server down");
    let pipeline = server_thread.join().expect("the server thread");
    let mut local = pipeline.pin_read_handle();
    let same = sample.iter().zip(&wire).all(|(r, w)| {
        let l = local.resolve(r);
        w.as_ref().is_some_and(|w| {
            w.candidates == l.candidates
                && w.cluster == l.cluster
                && w.matches.len() == l.matches.len()
                && w.matches
                    .iter()
                    .zip(&l.matches)
                    .all(|(a, b)| a.0 == b.0 && a.1.to_bits() == b.1.to_bits())
        })
    });
    rep.check(
        &format!("{SAMPLE} wire resolves equal in-process ReadHandle::resolve after the drain"),
        same,
    );
    rep.check(
        "the server stored every record",
        pipeline.len() == fitted.corpus.table.len(),
    );
    let f1 = pair_f1(&pipeline.clusters(), &fitted.order, &fitted.truth);
    rep.check(
        &format!("served pair_f1 {f1:.4} >= {F1_FLOOR}"),
        f1 >= F1_FLOOR,
    );
    Phase {
        resolves,
        matched,
        candidates,
        resolver_s,
        acks,
        late,
        failed: failed + write_failed,
    }
}

/// The serve phase of `stream-ingest`'s traced run, with every meter
/// on: the serve, publish and admission layers, and the client-side
/// resolve and write-ack latencies.
pub fn measure(args: &Args, rep: &mut Report, fitted: &FittedHead) {
    println!(
        "serve phase: writer sends {} records in batches of {WRITE_BATCH} over {:?}",
        fitted.tail.len(),
        args.seconds
    );
    obs::set_enabled(true);
    obs::reset();
    let p = phase(args, rep, fitted);
    println!(
        "resolver: {} resolves ({} matched, {} failed) in {:.3} s",
        p.resolves.0.len(),
        p.matched,
        p.failed,
        p.resolver_s
    );
    let h = |name: &str| obs::histogram(name).snapshot();
    let resolve = h("serve.resolve.ns");
    let publish = h("stream.publish.ns");
    let n = p.resolves.0.len().max(1) as f64;
    rep.set(
        "serve.resolve_server_p50_us",
        resolve.percentile(50.0) / 1e3,
    );
    rep.set(
        "serve.resolve_server_tail_us",
        histogram_tail_us("server resolve", &resolve),
    );
    rep.set(
        "serve.wire_mean_us",
        (p.resolves.total() * 1e3 - resolve.sum as f64 / 1e3) / resolve.count.max(1) as f64,
    );
    rep.set(
        "serve.ingest_server_tail_us",
        histogram_tail_us("server ingest", &h("serve.ingest.ns")),
    );
    rep.set("serve.resolves", p.resolves.0.len() as f64);
    rep.set("serve.resolve_matched_ratio", p.matched as f64 / n);
    rep.set("serve.resolve_candidates", p.candidates as f64 / n);
    rep.set("stream.publish_s", publish.sum as f64 / 1e9);
    rep.set(
        "stream.publish_tail_us",
        histogram_tail_us("publish", &publish),
    );
    rep.set(
        "stream.publishes_per_record",
        publish.count as f64 / fitted.tail.len() as f64,
    );
    rep.set(
        "stream.admit_batch_records",
        h("stream.admit.batch_records").mean(),
    );
    rep.set("client.resolve_p50_ms", p.resolves.p50());
    rep.set(
        "client.resolve_tail_ms",
        p.resolves.tail("resolve round trip"),
    );
    rep.set(
        "client.write_ack_tail_ms",
        p.acks.tail("write ack from due time"),
    );
    rep.set("loadgen.late_tail_ms", p.late.tail("writer lateness"));
}
