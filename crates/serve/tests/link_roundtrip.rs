//! Linkage serving over real TCP sockets, through the one `Server` that
//! serves both pipelines.
//!
//! What is under test:
//! - side-tagged wire resolves make the **same match decisions to
//!   `f64::to_bits`** as the in-process [`zeroer_stream::ReadHandle`],
//!   on both sides;
//! - a side-tagged wire ingest equals [`LinkPipeline::ingest_batch`] on
//!   a twin pipeline, bit for bit;
//! - the side tag is enforced in both directions (a linkage server
//!   requires it, a dedup server rejects it) with `{"ok":false}` replies
//!   that keep the connection open.

use zeroer_datagen::generate;
use zeroer_datagen::profiles::{pub_da, rest_fz};
use zeroer_serve::protocol::{ingest_request, resolve_request};
use zeroer_serve::{Client, Server};
use zeroer_stream::{
    IngestOutcome, LinkPipeline, ResolveOutcome, Side, StreamOptions, StreamPipeline,
};
use zeroer_tabular::{Record, Table};

fn assert_resolution_bits(wire: &zeroer_serve::WireResolution, local: &ResolveOutcome) {
    assert_eq!(wire.epoch, local.epoch);
    assert_eq!(wire.candidates, local.candidates);
    assert_eq!(wire.cluster, local.cluster);
    assert_eq!(wire.matches.len(), local.matches.len());
    for ((wi, wp), (li, lp)) in wire.matches.iter().zip(&local.matches) {
        assert_eq!(wi, li);
        assert_eq!(
            wp.to_bits(),
            lp.to_bits(),
            "posterior changed across the wire: {wp} vs {lp}"
        );
    }
}

fn assert_ingest_bits(wire: &[zeroer_serve::WireIngest], local: &[IngestOutcome]) {
    assert_eq!(wire.len(), local.len());
    for (w, l) in wire.iter().zip(local) {
        assert_eq!(w.index, l.index);
        assert_eq!(w.candidates, l.candidates, "record {}", l.index);
        assert_eq!(w.cluster, l.cluster, "record {}", l.index);
        assert_eq!(w.new_entity, l.is_new_entity(), "record {}", l.index);
        assert_eq!(w.matches.len(), l.matches.len(), "record {}", l.index);
        for ((wi, wp), (li, lp)) in w.matches.iter().zip(&l.matches) {
            assert_eq!(wi, li);
            assert_eq!(wp.to_bits(), lp.to_bits(), "record {}", l.index);
        }
    }
}

fn head(table: &Table, n: usize) -> Table {
    let mut t = Table::new("head", table.schema().clone());
    for r in table.records().iter().take(n) {
        t.push(r.clone());
    }
    t
}

/// One linkage server lifetime covering resolve parity on both sides,
/// wire-ingest parity, side-tag enforcement, and shutdown; then a dedup
/// server rejecting sides. One test because the obs registry is
/// process-global.
#[test]
fn link_resolve_over_the_wire_is_bit_identical_with_in_process() {
    let ds = generate(&pub_da(), 0.03, 5);
    let opts = StreamOptions {
        min_token_overlap: 2,
        ..StreamOptions::default()
    };
    let cut = ds.right.len() * 2 / 3;
    let boot_right = head(&ds.right, cut);
    let (live, _) = LinkPipeline::bootstrap(&ds.left, &boot_right, opts).expect("bootstrap");
    let snap = live.snapshot();
    let restore = || {
        let mut p = LinkPipeline::from_snapshot(&snap, StreamOptions::default().threshold)
            .expect("snapshot restores");
        p.seed_base(&ds.left, &boot_right).expect("seed");
        p
    };
    let served = restore();
    let mut twin = restore();

    // In-process reference answers for probes on both sides.
    let right_probes: Vec<Record> = ds.right.records().iter().take(6).cloned().collect();
    let left_probes: Vec<Record> = ds.left.records().iter().take(6).cloned().collect();
    let mut local = served.pin_read_handle();
    let local_right: Vec<_> = right_probes
        .iter()
        .map(|r| local.resolve(r, Side::Right))
        .collect();
    let local_left: Vec<_> = left_probes
        .iter()
        .map(|r| local.resolve(r, Side::Left))
        .collect();

    let server = Server::bind(served, "127.0.0.1:0", 2).expect("bind");
    let addr = server.local_addr();
    let server_thread = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect");

    let pong = client.admin("ping").expect("ping");
    assert_eq!(pong.get("pong").and_then(|v| v.as_bool()), Some(true));

    // Wire resolve parity, both sides, to f64::to_bits.
    let mut matched_any = false;
    for (side, probes, locals) in [
        (Side::Right, &right_probes, &local_right),
        (Side::Left, &left_probes, &local_left),
    ] {
        for (probe, local) in probes.iter().zip(locals) {
            let wire = client.resolve_side(&probe.values, side).expect("resolve");
            assert_resolution_bits(&wire, local);
            matched_any |= wire.cluster.is_some();
        }
    }
    assert!(matched_any, "no probe matched — parity test is vacuous");

    // Wire ingest parity against the twin, one batch per side.
    let tail: Vec<Record> = ds.right.records()[cut..].to_vec();
    assert!(!tail.is_empty());
    let wire = client.ingest_side(&tail, Side::Right).expect("ingest");
    let want = twin.ingest_batch(tail.clone(), Side::Right);
    assert!(
        want.iter().any(|o| !o.is_new_entity()),
        "no streamed record linked — ingest parity is vacuous"
    );
    assert_ingest_bits(&wire, &want);
    let left_new: Vec<Record> = left_probes
        .iter()
        .map(|r| Record::new(r.id + 100_000, r.values.clone()))
        .collect();
    let wire = client.ingest_side(&left_new, Side::Left).expect("ingest");
    assert_ingest_bits(&wire, &twin.ingest_batch(left_new.clone(), Side::Left));

    // A linkage server requires the side tag on resolve and ingest, and
    // rejects junk sides — every time with an error reply on a
    // connection that stays open.
    let err = client
        .resolve(&right_probes[0].values)
        .expect_err("no side");
    assert!(err.to_string().contains("side"), "{err}");
    let err = client.ingest(&tail[..1]).expect_err("no side");
    assert!(err.to_string().contains("side"), "{err}");
    for request in [
        resolve_request(&right_probes[0].values, Some("middle")),
        ingest_request(&tail[..1], Some("middle")),
    ] {
        let raw = client.call_raw(&request).expect("error response");
        assert!(raw.contains("\"ok\":false"), "{raw}");
    }
    client
        .admin("ping")
        .expect("connection survives rejected requests");

    let ack = client.admin("shutdown").expect("shutdown");
    assert_eq!(ack.get("stopping").and_then(|v| v.as_bool()), Some(true));
    let served = server_thread.join().expect("server thread");
    assert_eq!(
        served.len(),
        twin.len(),
        "rejected requests applied nothing"
    );
    assert_eq!(served.clusters(), twin.clusters());

    // And the other direction: a dedup server rejects side-tagged
    // resolves and ingests instead of silently ignoring the tag.
    let ds = generate(&rest_fz(), 0.15, 3);
    let (table, _) = ds.dedup_table();
    let (dedup, _) =
        StreamPipeline::bootstrap(&table, StreamOptions::default()).expect("bootstrap");
    let snap = dedup.snapshot();
    let mut cold = StreamPipeline::from_snapshot(&snap, StreamOptions::default().threshold)
        .expect("snapshot restores");
    cold.seed_base(&table).expect("seed");
    let probe = table.records()[0].clone();

    let server = Server::bind(cold, "127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr();
    let dedup_thread = std::thread::spawn(move || server.run());
    let mut client = Client::connect(addr).expect("connect");
    let err = client
        .resolve_side(&probe.values, Side::Left)
        .expect_err("dedup server must reject side");
    assert!(err.to_string().contains("dedup"), "{err}");
    let err = client
        .ingest_side(std::slice::from_ref(&probe), Side::Left)
        .expect_err("dedup server must reject side");
    assert!(err.to_string().contains("dedup"), "{err}");
    // The same values without a side still resolve fine.
    client.resolve(&probe.values).expect("plain resolve");
    client.admin("shutdown").expect("shutdown");
    let drained = dedup_thread.join().expect("server thread");
    assert_eq!(
        drained.len(),
        table.len(),
        "the rejected ingest applied nothing"
    );
}
