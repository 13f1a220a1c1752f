//! Unit/integration tests for the metrics layer: primitive
//! semantics, bucket math, percentile interpolation, snapshot merge,
//! the JSON round trip (parsed back with `zeroer-core`'s reader) and
//! the schema self-check.

use zeroer_core::json::Json;
use zeroer_obs as obs;
use zeroer_obs::{bucket_bound, bucket_of, HistogramSnapshot, MetricsSnapshot, BUCKETS};

/// Tests in this binary share the process-global registry and the
/// global enabled flag, and cargo runs them on parallel threads; any
/// test that flips the flag (or asserts absolute registry contents)
/// must hold this lock so a concurrent test doesn't observe a
/// half-disabled world.
static ENABLED_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    ENABLED_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn counter_and_gauge_basics() {
    let _g = lock();
    let c = obs::counter("test.basics.counter");
    c.add(3);
    c.incr();
    assert_eq!(c.get(), 4);
    // Same name resolves to the same handle.
    assert_eq!(obs::counter("test.basics.counter").get(), 4);

    let g = obs::gauge("test.basics.gauge");
    g.set(17);
    g.set(5);
    assert_eq!(g.get(), 5);
}

#[test]
fn bucket_math_edges() {
    assert_eq!(bucket_of(0), 0);
    assert_eq!(bucket_of(1), 1);
    assert_eq!(bucket_of(2), 2);
    assert_eq!(bucket_of(3), 2);
    assert_eq!(bucket_of(4), 3);
    assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    assert_eq!(bucket_bound(0), 0);
    assert_eq!(bucket_bound(1), 1);
    assert_eq!(bucket_bound(2), 3);
    assert_eq!(bucket_bound(BUCKETS - 1), u64::MAX);
    // Every value lands in the bucket whose bound covers it.
    for v in [0u64, 1, 2, 7, 8, 1023, 1024, 1 << 40] {
        let b = bucket_of(v);
        assert!(v <= bucket_bound(b), "value {v} above bound of bucket {b}");
        if b > 0 {
            assert!(
                v > bucket_bound(b - 1),
                "value {v} fits a lower bucket than {b}"
            );
        }
    }
}

#[test]
fn histogram_percentiles_interpolate_within_bucket_error() {
    let _g = lock();
    let h = obs::histogram("test.percentile.uniform");
    for v in 1..=1000u64 {
        h.record(v);
    }
    let snap = h.snapshot();
    assert_eq!(snap.count, 1000);
    assert_eq!(snap.sum, 500_500);
    assert_eq!(snap.min, 1);
    assert_eq!(snap.max, 1000);
    // Uniform 1..=1000: interpolation inside the log2 bucket keeps
    // the estimate close even though buckets are coarse.
    let p50 = snap.percentile(50.0);
    assert!((p50 - 500.0).abs() < 64.0, "p50 = {p50}");
    let p99 = snap.percentile(99.0);
    assert!((950.0..=1000.0).contains(&p99), "p99 = {p99}");
    // Percentiles are clamped to the observed range.
    assert!(snap.percentile(0.0) >= 1.0);
    assert!(snap.percentile(100.0) <= 1000.0);
}

#[test]
fn single_valued_histogram_reports_exact_percentiles() {
    let _g = lock();
    let h = obs::histogram("test.percentile.single");
    for _ in 0..5 {
        h.record(777);
    }
    let snap = h.snapshot();
    for p in [0.0, 50.0, 95.0, 99.0, 100.0] {
        assert_eq!(snap.percentile(p), 777.0, "p{p}");
    }
}

#[test]
fn empty_histogram_is_all_zero() {
    let snap = HistogramSnapshot::empty();
    assert_eq!(snap.count, 0);
    assert_eq!(snap.percentile(50.0), 0.0);
    assert_eq!(snap.mean(), 0.0);
}

#[test]
fn merge_equals_recording_into_one_histogram() {
    let _g = lock();
    let a = obs::histogram("test.merge.a");
    let b = obs::histogram("test.merge.b");
    let combined = obs::histogram("test.merge.combined");
    for v in [3u64, 90, 1_000_000, 7] {
        a.record(v);
        combined.record(v);
    }
    for v in [1u64, 0, 250_000, 40_000_000_000] {
        b.record(v);
        combined.record(v);
    }
    let mut merged = a.snapshot();
    merged.merge(&b.snapshot());
    assert_eq!(merged, combined.snapshot());
    for p in [50.0, 95.0, 99.0] {
        assert_eq!(merged.percentile(p), combined.snapshot().percentile(p));
    }
    // Merging an empty snapshot is the identity, both ways.
    let mut from_empty = HistogramSnapshot::empty();
    from_empty.merge(&merged);
    assert_eq!(from_empty, merged);
    let mut into_empty = merged.clone();
    into_empty.merge(&HistogramSnapshot::empty());
    assert_eq!(into_empty, merged);
}

#[test]
fn disabled_recording_is_a_no_op_but_closures_still_run() {
    let _g = lock();
    let c = obs::counter("test.disabled.counter");
    let ga = obs::gauge("test.disabled.gauge");
    let h = obs::histogram("test.disabled.hist");
    obs::set_enabled(false);
    c.add(10);
    ga.set(10);
    h.record(10);
    let mut ran = false;
    let out = obs::time("test.disabled.time", || {
        ran = true;
        42
    });
    obs::set_enabled(true);
    assert!(ran);
    assert_eq!(out, 42);
    assert_eq!(c.get(), 0);
    assert_eq!(ga.get(), 0);
    assert_eq!(h.snapshot().count, 0);
    assert_eq!(obs::histogram("test.disabled.time").snapshot().count, 0);
}

#[test]
fn stopwatch_and_stage_timer_record_laps() {
    let _g = lock();
    let lap1 = obs::histogram("test.sw.lap1");
    let lap2 = obs::histogram("test.sw.lap2");
    let total = obs::histogram("test.sw.total");
    let before = (lap1.count(), lap2.count(), total.count());
    let mut sw = obs::Stopwatch::new(true);
    sw.lap(lap1);
    sw.lap(lap2);
    sw.total(total);
    assert_eq!(lap1.count(), before.0 + 1);
    assert_eq!(lap2.count(), before.1 + 1);
    assert_eq!(total.count(), before.2 + 1);

    // A disabled stopwatch records nothing.
    let mut off = obs::Stopwatch::new(false);
    off.lap(lap1);
    off.total(total);
    assert_eq!(lap1.count(), before.0 + 1);
    assert_eq!(total.count(), before.2 + 1);

    // Guard-style span records on drop.
    let span = obs::histogram("test.sw.span");
    span.start().stop();
    {
        let _t = span.start();
    }
    assert_eq!(span.count(), 2);
}

#[test]
fn json_round_trips_through_the_core_reader() {
    let _g = lock();
    obs::counter("test.json.candidates").add(12);
    obs::gauge("test.json.live_bytes").set(4096);
    let h = obs::histogram("test.json.stage.ns");
    for v in [100u64, 200, 400, 800] {
        h.record(v);
    }
    let text = obs::to_json();
    let doc = Json::parse(&text).expect("metrics JSON parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(zeroer_obs::SCHEMA)
    );
    let counters = doc.get("counters").expect("counters section");
    assert!(
        counters
            .get("test.json.candidates")
            .and_then(Json::as_usize)
            >= Some(12)
    );
    let gauges = doc.get("gauges").expect("gauges section");
    assert_eq!(
        gauges.get("test.json.live_bytes").and_then(Json::as_usize),
        Some(4096)
    );
    let hist = doc
        .get("histograms")
        .and_then(|h| h.get("test.json.stage.ns"))
        .expect("histogram entry");
    assert_eq!(hist.get("unit").and_then(Json::as_str), Some("ns"));
    let count = hist.get("count").and_then(Json::as_usize).expect("count");
    assert!(count >= 4);
    // Bucket pairs are [bound, count] and their occupancy matches.
    let buckets = hist.get("buckets").and_then(Json::as_arr).expect("buckets");
    let occupancy: usize = buckets
        .iter()
        .map(|p| p.as_arr().unwrap()[1].as_usize().unwrap())
        .sum();
    assert_eq!(occupancy, count);
    let p50 = hist.get("p50").and_then(Json::as_f64).expect("p50");
    assert!((100.0..=800.0).contains(&p50), "p50 = {p50}");
}

#[test]
fn self_check_accepts_live_snapshots_and_rejects_corrupt_ones() {
    let _g = lock();
    obs::histogram("test.selfcheck.h").record(5);
    let snap = obs::snapshot();
    snap.self_check().expect("live snapshot passes self-check");

    // Bucket occupancy disagreeing with count is rejected.
    let mut broken = HistogramSnapshot::empty();
    broken.count = 3;
    let bad = MetricsSnapshot {
        counters: vec![],
        gauges: vec![],
        histograms: vec![("x".into(), broken)],
    };
    assert!(bad.self_check().is_err());

    // Unsorted names are rejected.
    let bad = MetricsSnapshot {
        counters: vec![("b".into(), 0), ("a".into(), 0)],
        gauges: vec![],
        histograms: vec![],
    };
    assert!(bad.self_check().is_err());
}

#[test]
fn json_builder_escapes_and_formats() {
    use zeroer_obs::json::{Arr, Obj};
    let mut o = Obj::new();
    o.str("quote\"key", "line\nbreak")
        .u64("big", u64::MAX)
        .f64("half", 0.5)
        .f64("bad", f64::NAN)
        .bool("on", true);
    let mut a = Arr::new();
    a.u64(1).u64(2);
    o.raw("arr", &a.finish());
    let text = o.finish();
    let doc = Json::parse(&text).expect("builder output parses");
    assert_eq!(
        doc.get("quote\"key").and_then(Json::as_str),
        Some("line\nbreak")
    );
    assert_eq!(doc.get("half").and_then(Json::as_f64), Some(0.5));
    assert_eq!(doc.get("bad"), Some(&Json::Null));
    assert_eq!(doc.get("on"), Some(&Json::Bool(true)));
    assert_eq!(
        doc.get("arr").and_then(Json::as_arr).map(<[Json]>::len),
        Some(2)
    );
}

#[test]
fn rss_is_reported_on_linux() {
    let rss = obs::rss_bytes();
    if cfg!(target_os = "linux") {
        assert!(rss.unwrap_or(0) > 0, "VmRSS should be readable: {rss:?}");
    }
}
