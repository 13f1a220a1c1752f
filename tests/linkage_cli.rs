//! The whole snapshot lifecycle of a linkage snapshot through the real
//! binary: `link --save-model` → `retract` → `compact` → `refresh` →
//! `ingest --side`, then `serve` answering a side-tagged resolve. Every
//! snapshot command takes the two bootstrap tables through
//! `--base-left`/`--base-right`, as a dedup snapshot takes `--base`.

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use zeroer::core::json::Json;
use zeroer::pipeline::{PipelineSnapshot, Side};
use zeroer::serve::Client;
use zeroer::tabular::csv::{read_table, write_table};
use zeroer::tabular::{Record, Table, Value};

fn zeroer_bin() -> &'static str {
    env!("CARGO_BIN_EXE_zeroer")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("zeroer-linkage-cli-{name}-{}", std::process::id()))
}

fn run(args: &[&str]) -> Output {
    Command::new(zeroer_bin())
        .args(args)
        .output()
        .expect("spawn zeroer")
}

/// Runs `args`, asserts success, and returns stderr.
fn ok(args: &[&str]) -> String {
    let out = run(args);
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    assert!(out.status.success(), "{args:?} failed: {stderr}");
    stderr
}

fn load(path: &Path) -> Table {
    let text = std::fs::read_to_string(path).expect("read CSV");
    read_table("t", &text).expect("parse CSV")
}

fn snapshot(path: &Path) -> PipelineSnapshot {
    PipelineSnapshot::from_json(&std::fs::read_to_string(path).expect("read snapshot"))
        .expect("parse snapshot")
}

/// Kills the child on drop so a failing assertion never leaks a
/// listening server process.
struct Reap(Child);

impl Drop for Reap {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn linkage_snapshot_runs_the_whole_cli_lifecycle() {
    let dir = tmp("corpus");
    std::fs::remove_dir_all(&dir).ok();
    let d = dir.to_str().unwrap();
    ok(&[
        "gen",
        "--linkage",
        "--scale",
        "0.01",
        "--seed",
        "7",
        "--out",
        d,
    ]);
    let (left, right) = (dir.join("left.csv"), dir.join("right.csv"));
    let (l, r) = (left.to_str().unwrap(), right.to_str().unwrap());
    let (left_table, right_table) = (load(&left), load(&right));
    let nl = left_table.len();
    let snap = tmp("snap.json");
    let s = snap.to_str().unwrap();
    let metrics = tmp("metrics.json");
    let bases = ["--base-left", l, "--base-right", r];

    // Batch linkage + freeze; the fit records the batch stage meters.
    ok(&[
        "link",
        l,
        r,
        "--save-model",
        s,
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    let doc = Json::parse(&std::fs::read_to_string(&metrics).expect("metrics written"))
        .expect("metrics JSON parses");
    let fit_count = doc
        .get("histograms")
        .and_then(|h| h.get("batch.fit.ns"))
        .and_then(|h| h.get("count"))
        .and_then(Json::as_f64);
    assert!(
        fit_count.is_some_and(|c| c >= 1.0),
        "link --save-model must time its fit"
    );
    let candidates = doc
        .get("counters")
        .and_then(|c| c.get("batch.candidates"))
        .and_then(Json::as_f64);
    assert!(candidates.is_some_and(|c| c > 0.0));
    assert_eq!(snapshot(&snap).model.kind(), "linkage");

    // Retract one left and one right record; the tombstones persist.
    let ids = tmp("ids.txt");
    std::fs::write(&ids, format!("0\n{nl}\n")).expect("write ids");
    let stderr = ok(&[
        &["retract", "--ids", ids.to_str().unwrap(), "--model", s],
        &bases[..],
    ]
    .concat());
    assert!(stderr.contains("retracted 2 records"), "{stderr}");
    assert_eq!(snapshot(&snap).tombstones, vec![0, nl]);

    // Compact reclaims their index state; the tombstones stay.
    let stderr = ok(&[&["compact", "--model", s], &bases[..]].concat());
    assert!(stderr.contains("compaction reclaimed"), "{stderr}");
    assert_eq!(snapshot(&snap).tombstones, vec![0, nl]);

    // Refresh re-fits the three models over the live records only.
    let stderr = ok(&[&["refresh", "--model", s], &bases[..]].concat());
    let live = nl + right_table.len() - 2;
    assert!(
        stderr.contains(&format!("model re-fitted on {live} live records")),
        "{stderr}"
    );
    let refreshed = snapshot(&snap);
    assert_eq!(refreshed.model.kind(), "linkage");
    assert_eq!(refreshed.tombstones, vec![0, nl]);

    // Side-tagged ingest against the refreshed snapshot: a right-side
    // copy of a live left record links across, an unseen one does not.
    let copy = &left_table.records()[1];
    let mut arrivals = Table::new("stream", left_table.schema().clone());
    arrivals.push(copy.clone());
    let unseen = vec![Value::Str("Qwxzv Plmk Zzyzx".into()); copy.values.len()];
    arrivals.push(Record::new(1, unseen));
    let stream = tmp("stream.csv");
    std::fs::write(&stream, write_table(&arrivals)).expect("write stream");
    let out = run(&[
        &[
            "ingest",
            stream.to_str().unwrap(),
            "--model",
            s,
            "--side",
            "right",
        ],
        &bases[..],
    ]
    .concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    assert!(stderr.contains("preserved batch decisions"), "{stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "one line per streamed record: {stdout}");
    assert!(!lines[1].ends_with(",,"), "the copy must link: {stdout}");
    assert!(
        lines[2].ends_with(",,"),
        "the unseen record is fresh: {stdout}"
    );

    // Serve the linkage snapshot; resolves carry a side.
    let child = Command::new(zeroer_bin())
        .args(
            [
                &[
                    "serve",
                    "--model",
                    s,
                    "--addr",
                    "127.0.0.1:0",
                    "--threads",
                    "1",
                ],
                &bases[..],
            ]
            .concat(),
        )
        .stderr(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .expect("spawn zeroer serve");
    let mut child = Reap(child);
    let mut server_err = BufReader::new(child.0.stderr.take().expect("stderr piped"));
    let addr = loop {
        let mut line = String::new();
        assert_ne!(
            server_err.read_line(&mut line).expect("read server stderr"),
            0,
            "server exited before announcing its address"
        );
        if let Some(rest) = line.trim().strip_prefix("zeroer: serving on ") {
            break rest.to_string();
        }
    };
    let mut client = Client::connect(addr.as_str()).expect("connect to served address");
    let hit = client
        .resolve_side(&copy.values, Side::Right)
        .expect("side-tagged resolve");
    assert!(
        hit.matches.iter().any(|&(i, _)| i == 1),
        "a right-side copy of left record 1 must resolve to it: {hit:?}"
    );
    assert!(
        hit.matches.iter().all(|&(i, _)| i < nl),
        "a right-side resolve probes the left side only: {hit:?}"
    );
    assert!(
        client.resolve(&copy.values).is_err(),
        "a linkage server needs a side"
    );
    client.admin("shutdown").expect("shutdown");
    let status = child.0.wait().expect("server exits");
    assert!(status.success(), "server exited with {status:?}");

    for p in [&snap, &metrics, &ids, &stream] {
        std::fs::remove_file(p).ok();
    }
    std::fs::remove_dir_all(&dir).ok();
}
