//! Result collection: counted operations and output checks, the named
//! metrics, honest percentiles, and the one-line JSON result.

use std::collections::BTreeMap;
use zeroer::obs::json::{f64_value, Obj};
use zeroer::obs::HistogramSnapshot;

/// End-to-end metrics, reported by every workload when tracing is off.
/// "op" is one call of the workload's primary entry point:
/// `dedup_table` (batch-dedup) and `StreamPipeline::ingest`
/// (stream-ingest, which fits its model during set-up).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pair_f1", "ratio"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
];

/// Per-layer metrics, reported by every workload when tracing is on;
/// a layer the workload bypasses reports 0. `*_tail_*` metrics are the
/// highest percentile (p99 at most) with at least ten samples beyond
/// it; the printed report names the percentile and the sample count.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("features.derive_s", "s"),
    ("features.featurize_s", "s"),
    ("features.pairs_per_s", "1/s"),
    ("blocking.block_s", "s"),
    ("blocking.candidates_per_record", "count"),
    ("blocking.pair_completeness", "ratio"),
    ("blocking.reduction_ratio", "ratio"),
    ("core.fit_s", "s"),
    ("core.em_s", "s"),
    ("core.em_iterations", "count"),
    ("core.em_s_per_iteration", "s"),
    ("core.cluster_s", "s"),
    ("stream.derive_s", "s"),
    ("stream.block_s", "s"),
    ("stream.score_s", "s"),
    ("stream.decide_s", "s"),
    ("stream.score_tail_us", "us"),
    ("stream.score_candidates_per_record", "count"),
    ("stream.queue_wait_s", "s"),
    ("stream.bytes_per_record", "bytes"),
    ("stream.snapshot_bytes", "bytes"),
    ("stream.restore_s", "s"),
    ("stream.publish_s", "s"),
    ("stream.publish_tail_us", "us"),
    ("stream.publishes_per_record", "ratio"),
    ("stream.admit_batch_records", "count"),
    ("serve.resolve_server_p50_us", "us"),
    ("serve.resolve_server_tail_us", "us"),
    ("serve.wire_mean_us", "us"),
    ("serve.ingest_server_tail_us", "us"),
    ("serve.resolve_matched_ratio", "ratio"),
    ("serve.resolves", "count"),
    ("serve.resolve_candidates", "count"),
    ("client.op_tail_ms", "ms"),
    ("client.ingest_rps_2t", "1/s"),
    ("client.resolve_p50_ms", "ms"),
    ("client.resolve_tail_ms", "ms"),
    ("client.write_ack_tail_ms", "ms"),
    ("loadgen.late_tail_ms", "ms"),
    ("bench.unaccounted_s", "s"),
    ("obs.trace_overhead_ratio", "ratio"),
];

/// What one workload run counted, checked and measured.
pub struct Report {
    trace: bool,
    attempted: u64,
    failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn new(trace: bool) -> Self {
        Report {
            trace,
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
        }
    }

    /// Counts `attempted` operations, `failed` of which failed.
    pub fn ops(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    /// Counts one output check and prints its outcome.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.ops(1, usize::from(!ok));
        println!("check {}: {what}", if ok { "ok    " } else { "FAILED" });
    }

    /// Records a metric value; `name` must be one of the declared metrics.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "undeclared metric {name}"
        );
        self.values.insert(name, value);
    }

    /// Prints every recorded metric with its unit, then the one-line
    /// JSON result of this run's mode (end-to-end or per-layer).
    /// Returns whether every operation and check succeeded.
    pub fn finish(mut self) -> bool {
        let declared = if self.trace { PER_LAYER } else { END_TO_END };
        for &(name, _) in declared {
            if !self.values.contains_key(name) {
                if self.trace {
                    // A layer this workload bypasses.
                    self.values.insert(name, 0.0);
                } else {
                    self.check(&format!("end-to-end metric {name} was measured"), false);
                }
            }
        }
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(v) = self.values.get(name) {
                println!("metric {name} = {v} {unit}");
            }
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "error_ratio = {ratio} ({} failed of {} operations and checks)",
            self.failed, self.attempted
        );
        let mut metrics = Obj::new();
        for &(name, unit) in declared {
            let mut m = Obj::new();
            m.raw("value", &f64_value(self.values[name]))
                .str("unit", unit);
            metrics.raw(name, &m.finish());
        }
        let correct = self.failed == 0 && self.attempted > 0;
        let mut out = Obj::new();
        out.bool("correct", correct)
            .u64("attempted", self.attempted.max(1))
            .u64("failed", self.failed)
            .raw("metrics", &metrics.finish());
        println!("{}", out.finish());
        correct
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile `q` in `[0, 1]` of `v` (0 when empty).
fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest of p99/p95/p90/p50 with at least ten of `n` samples
/// beyond it (p50 when even that is not supported).
fn tail_percentile(n: u64) -> f64 {
    [99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(50.0)
}

/// Client-side latency samples of one operation, in milliseconds.
#[derive(Default)]
pub struct Latencies(pub Vec<f64>);

impl Latencies {
    pub fn push(&mut self, started: std::time::Instant) {
        self.0.push(started.elapsed().as_secs_f64() * 1e3);
    }

    pub fn p50(&self) -> f64 {
        median(&self.0)
    }

    pub fn mean(&self) -> f64 {
        self.0.iter().sum::<f64>() / self.0.len().max(1) as f64
    }

    pub fn total(&self) -> f64 {
        self.0.iter().sum()
    }

    /// The tail percentile (see [`PER_LAYER`]), printed with its label
    /// and sample count.
    pub fn tail(&self, label: &str) -> f64 {
        let p = tail_percentile(self.0.len() as u64);
        let v = quantile(&self.0, p / 100.0);
        println!(
            "{label}: p50 {:.4} ms, p{p} {v:.4} ms (n={})",
            self.p50(),
            self.0.len()
        );
        v
    }
}

/// The tail percentile of a `zeroer-obs` nanosecond histogram, in
/// microseconds, printed with its label and sample count.
pub fn histogram_tail_us(label: &str, h: &HistogramSnapshot) -> f64 {
    let p = tail_percentile(h.count);
    let v = h.percentile(p) / 1e3;
    println!(
        "{label}: p50 {:.1} us, p{p} {v:.1} us (n={}, log2 buckets)",
        h.percentile(50.0) / 1e3,
        h.count
    );
    v
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
