//! Runs the `stream-ingest` workload twice on one seed with tracing on:
//! the machine-independent counts and pair-F1 must repeat exactly.
//! Runs it once more on a second seed with tracing off, which must
//! succeed. Every run must report exactly the metrics `BENCHMARK.json`
//! declares for its mode.

use std::collections::BTreeMap;
use std::process::Command;
use zeroer::core::json::Json;

/// Metric values of one run: the JSON result's, plus `pair_f1` from the
/// printed report (traced runs do not put it in the JSON).
fn run(seed: u64, trace: u8) -> BTreeMap<String, String> {
    let out = Command::new(env!("CARGO_BIN_EXE_zeroer-perfbench"))
        .args(["--workload", "stream-ingest", "--seconds", "1"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(out.status.success(), "run failed:\n{stdout}");
    let result = Json::parse(stdout.lines().last().expect("a result line")).expect("JSON result");
    assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Json::as_usize), Some(0));
    let mut values: BTreeMap<String, String> = match result.get("metrics") {
        Some(Json::Obj(m)) => m
            .iter()
            .map(|(k, v)| (k.clone(), format!("{:?}", v.get("value"))))
            .collect(),
        other => panic!("no metrics object: {other:?}"),
    };
    let f1 = stdout
        .lines()
        .find_map(|l| l.strip_prefix("metric pair_f1 = "))
        .expect("pair_f1 is printed");
    values.insert("pair_f1".into(), f1.to_string());
    values
}

/// Metric names `BENCHMARK.json` declares under `key`.
fn declared(key: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let mut names: Vec<String> = doc
        .get(key)
        .and_then(Json::as_arr)
        .expect("a metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("a name")
                .to_string()
        })
        .collect();
    names.sort();
    names
}

#[test]
fn counts_repeat_and_a_second_seed_runs() {
    const COUNTS: &[&str] = &[
        "pair_f1",
        "blocking.candidates_per_record",
        "core.em_iterations",
        "stream.score_candidates_per_record",
        "stream.bytes_per_record",
        "stream.snapshot_bytes",
    ];
    let (a, b) = (run(7, 1), run(7, 1));
    for name in COUNTS {
        assert_eq!(a.get(*name), b.get(*name), "{name} differs between runs");
    }
    let mut traced: Vec<String> = a.keys().filter(|k| *k != "pair_f1").cloned().collect();
    traced.sort();
    assert_eq!(traced, declared("per_layer"));

    let other = run(8, 0);
    assert_eq!(other.keys().cloned().collect::<Vec<_>>(), {
        let mut e = declared("end_to_end");
        e.sort();
        e
    });
}
