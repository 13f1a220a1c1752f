//! Integration tests for the `zeroer` CLI binary.

use std::process::Command;

fn zeroer_bin() -> &'static str {
    env!("CARGO_BIN_EXE_zeroer")
}

fn write_tmp(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("zeroer-cli-test-{name}-{}", std::process::id()));
    std::fs::write(&path, content).expect("write temp CSV");
    path
}

const LEFT: &str = "title,year\n\
    efficient query processing systems,2014\n\
    adaptive learning frameworks,2016\n\
    graph mining at scale,2012\n\
    distributed storage engines,2018\n";

const RIGHT: &str = "title,year\n\
    efficient query procesing systems,2014\n\
    completely unrelated survey,2015\n\
    graph mining at scale,2012\n\
    distributed storage engine,2018\n";

#[test]
fn match_command_emits_expected_pairs() {
    let l = write_tmp("l1", LEFT);
    let r = write_tmp("r1", RIGHT);
    let out = Command::new(zeroer_bin())
        .args(["match", l.to_str().unwrap(), r.to_str().unwrap()])
        .output()
        .expect("spawn zeroer");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("left_id,right_id,probability"));
    assert!(stdout.contains("0,0,"), "typo'd title must match: {stdout}");
    assert!(stdout.contains("2,2,"), "exact title must match: {stdout}");
    assert!(
        !stdout.contains("1,1,"),
        "unrelated rows must not match: {stdout}"
    );
}

#[test]
fn threshold_flag_filters_output() {
    let l = write_tmp("l2", LEFT);
    let r = write_tmp("r2", RIGHT);
    let out = Command::new(zeroer_bin())
        .args([
            "match",
            l.to_str().unwrap(),
            r.to_str().unwrap(),
            "--threshold",
            "1.1",
        ])
        .output()
        .expect("spawn zeroer");
    assert!(
        !out.status.success(),
        "threshold outside [0,1] must be rejected"
    );
}

#[test]
fn out_flag_writes_file() {
    let l = write_tmp("l3", LEFT);
    let r = write_tmp("r3", RIGHT);
    let dst = std::env::temp_dir().join(format!("zeroer-out-{}.csv", std::process::id()));
    let out = Command::new(zeroer_bin())
        .args([
            "match",
            l.to_str().unwrap(),
            r.to_str().unwrap(),
            "--out",
            dst.to_str().unwrap(),
        ])
        .output()
        .expect("spawn zeroer");
    assert!(out.status.success());
    let written = std::fs::read_to_string(&dst).expect("output file written");
    assert!(written.starts_with("left_id,right_id,probability"));
    std::fs::remove_file(dst).ok();
}

#[test]
fn dedup_command_runs() {
    let t = write_tmp(
        "d1",
        "name\nGolden Dragon Palace\nGolden Dragon Palce\nBlue Sky Tavern\nRustic Oak Kitchen\n",
    );
    let out = Command::new(zeroer_bin())
        .args(["dedup", t.to_str().unwrap()])
        .output()
        .expect("spawn zeroer");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("0,1,"),
        "near-duplicate names must pair: {stdout}"
    );
}

/// `--overlap 0` is a usage error on every batch command, with or
/// without `--save-model`: a clean message naming the flag, no panic and
/// no snapshot file.
#[test]
fn overlap_zero_is_a_usage_error() {
    let l = write_tmp("ov0-l", LEFT);
    let r = write_tmp("ov0-r", RIGHT);
    let t = write_tmp(
        "ov0-t",
        "name\nGolden Dragon Palace\nGolden Dragon Palce\nBlue Sky Tavern\n",
    );
    let (l, r, t) = (
        l.to_str().unwrap(),
        r.to_str().unwrap(),
        t.to_str().unwrap(),
    );
    for (command, files) in [
        ("match", vec![l, r]),
        ("link", vec![l, r]),
        ("dedup", vec![t]),
    ] {
        for save in [false, true] {
            let snap = std::env::temp_dir().join(format!(
                "zeroer-ov0-{command}-{save}-{}.json",
                std::process::id()
            ));
            let mut args = vec![command];
            args.extend(&files);
            args.extend(["--overlap", "0"]);
            if save {
                args.extend(["--save-model", snap.to_str().unwrap()]);
            }
            let out = Command::new(zeroer_bin())
                .args(&args)
                .output()
                .expect("spawn zeroer");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{args:?} must fail");
            assert_ne!(out.status.code(), Some(101), "{args:?} panicked: {stderr}");
            assert!(
                stderr.contains("--overlap must be at least 1"),
                "{args:?}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
            assert!(!snap.exists(), "{args:?} wrote a snapshot");
        }
    }
}

#[test]
fn save_model_then_ingest_round_trip() {
    let base = write_tmp(
        "sm1",
        "name,city\n\
         Golden Dragon Palace,new york\n\
         Golden Dragon Palce,new york\n\
         Blue Sky Tavern,austin\n\
         Rustic Oak Kitchen,denver\n\
         Harbor View Bistro,portland\n\
         Smoky Cellar Tavern,chicago\n",
    );
    let stream = write_tmp(
        "sm2",
        "name,city\n\
         Golden Dragon Palace,new york\n\
         Totally Unseen Steakhouse,miami\n",
    );
    let snap = std::env::temp_dir().join(format!("zeroer-snap-{}.json", std::process::id()));

    // Batch path with --save-model.
    let out = Command::new(zeroer_bin())
        .args([
            "dedup",
            base.to_str().unwrap(),
            "--save-model",
            snap.to_str().unwrap(),
        ])
        .output()
        .expect("spawn zeroer dedup");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let snap_text = std::fs::read_to_string(&snap).expect("snapshot written");
    assert!(snap_text.contains("zeroer-pipeline-snapshot"));

    // Streaming path against the frozen snapshot.
    let out = Command::new(zeroer_bin())
        .args([
            "ingest",
            stream.to_str().unwrap(),
            "--model",
            snap.to_str().unwrap(),
            "--base",
            base.to_str().unwrap(),
        ])
        .output()
        .expect("spawn zeroer ingest");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "record,cluster,best_match,probability");
    assert_eq!(lines.len(), 3, "one line per ingested record: {stdout}");
    assert!(
        !lines[1].ends_with(",,"),
        "the exact duplicate must join an existing entity: {stdout}"
    );
    assert!(
        lines[2].ends_with(",,"),
        "the unseen restaurant must mint a fresh entity: {stdout}"
    );
    std::fs::remove_file(snap).ok();
}

#[test]
fn ingest_base_preserves_batch_decisions() {
    let base = write_tmp(
        "bp1",
        "name,city\n\
         Golden Dragon Palace,new york\n\
         Golden Dragon Palce,new york\n\
         Blue Sky Tavern,austin\n\
         Rustic Oak Kitchen,denver\n\
         Harbor View Bistro,portland\n\
         Smoky Cellar Tavern,chicago\n",
    );
    let stream = write_tmp(
        "bp2",
        "name,city\n\
         Golden Dragon Palace,new york\n\
         Totally Unseen Steakhouse,miami\n",
    );
    let snap = std::env::temp_dir().join(format!("zeroer-snap-bp-{}.json", std::process::id()));

    let out = Command::new(zeroer_bin())
        .args([
            "dedup",
            base.to_str().unwrap(),
            "--save-model",
            snap.to_str().unwrap(),
        ])
        .output()
        .expect("spawn zeroer dedup");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    // "zeroer: N candidates, M duplicate pairs, K clusters"
    let dedup_stderr = String::from_utf8_lossy(&out.stderr).to_string();
    let batch_clusters: usize = dedup_stderr
        .lines()
        .find_map(|l| {
            l.strip_suffix(" clusters")
                .and_then(|rest| rest.rsplit(' ').next())
                .and_then(|n| n.parse().ok())
        })
        .expect("dedup must report a cluster count");

    // The snapshot must carry the bootstrap decisions.
    let snap_text = std::fs::read_to_string(&snap).expect("snapshot written");
    assert!(
        snap_text.contains("\"bootstrap\""),
        "snapshot must persist bootstrap decisions"
    );

    let out = Command::new(zeroer_bin())
        .args([
            "ingest",
            stream.to_str().unwrap(),
            "--model",
            snap.to_str().unwrap(),
            "--base",
            base.to_str().unwrap(),
            "--threads",
            "2",
        ])
        .output()
        .expect("spawn zeroer ingest");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("preserved batch decisions"),
        "base records must replay batch decisions, not re-score: {stderr}"
    );
    let preserved_clusters: usize = stderr
        .lines()
        .find(|l| l.contains("preserved batch decisions"))
        .and_then(|l| {
            l.split('(')
                .nth(1)
                .and_then(|tail| tail.split(' ').next())
                .and_then(|n| n.parse().ok())
        })
        .expect("ingest must report the preserved cluster count");
    assert_eq!(
        preserved_clusters, batch_clusters,
        "replayed base clustering must equal the batch dedup clustering"
    );

    // The exact duplicate joins an existing (batch-decided) cluster; the
    // unseen record mints a fresh entity.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "record,cluster,best_match,probability");
    assert!(!lines[1].ends_with(",,"), "{stdout}");
    assert!(lines[2].ends_with(",,"), "{stdout}");
    std::fs::remove_file(snap).ok();
}

#[test]
fn retract_then_compact_round_trip_through_the_snapshot() {
    let base = write_tmp(
        "rc1",
        "name,city\n\
         Golden Dragon Palace,new york\n\
         Golden Dragon Palce,new york\n\
         Blue Sky Tavern,austin\n\
         Rustic Oak Kitchen,denver\n\
         Harbor View Bistro,portland\n\
         Smoky Cellar Tavern,chicago\n",
    );
    let ids = write_tmp("rc-ids", "1\n3 # retired listing\n\n");
    let snap = std::env::temp_dir().join(format!("zeroer-snap-rc-{}.json", std::process::id()));

    let out = Command::new(zeroer_bin())
        .args([
            "dedup",
            base.to_str().unwrap(),
            "--save-model",
            snap.to_str().unwrap(),
        ])
        .output()
        .expect("spawn zeroer dedup");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Retract 2 of 6 base records (≥ 30 % of the store); tombstones
    // persist back into the snapshot.
    let out = Command::new(zeroer_bin())
        .args([
            "retract",
            "--ids",
            ids.to_str().unwrap(),
            "--model",
            snap.to_str().unwrap(),
            "--base",
            base.to_str().unwrap(),
        ])
        .output()
        .expect("spawn zeroer retract");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("retracted 2 records"), "{stderr}");
    assert!(
        stderr.contains("snapshot with 2 tombstones written"),
        "{stderr}"
    );
    let snap_text = std::fs::read_to_string(&snap).expect("snapshot rewritten");
    assert!(
        snap_text.contains("\"retraction\""),
        "tombstones must be persisted"
    );

    // Compact: reclaimed bytes > 0, and --stats shows zero dead
    // postings / zero retired buckets afterwards.
    let out = Command::new(zeroer_bin())
        .args([
            "compact",
            "--model",
            snap.to_str().unwrap(),
            "--base",
            base.to_str().unwrap(),
            "--stats",
        ])
        .output()
        .expect("spawn zeroer compact");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    let reclaimed: usize = stderr
        .lines()
        .find_map(|l| {
            l.strip_prefix("zeroer: compaction reclaimed ")
                .and_then(|rest| rest.split(' ').next())
                .and_then(|n| n.parse().ok())
        })
        .expect("compact must report reclaimed bytes");
    assert!(reclaimed > 0, "reclaimed bytes must be positive: {stderr}");
    // ", 0 dead)" is an exact token — a regressed "10 dead)" or
    // "20 dead)" must not satisfy it — and both legs must report it.
    let legs_line = stderr
        .lines()
        .find(|l| l.contains("blocking legs:"))
        .expect("--stats must print the blocking-legs line");
    assert_eq!(
        legs_line.matches(", 0 dead)").count(),
        2,
        "stats after compact must show zero dead postings on both legs: {legs_line}"
    );
    assert_eq!(
        legs_line.matches(" 0 retired buckets").count(),
        2,
        "stats after compact must show zero retired buckets on both legs: {legs_line}"
    );
    assert!(
        stderr.contains("2 retracted records"),
        "tombstones survive compaction: {stderr}"
    );

    // The compacted snapshot still serves ingest, with the retracted
    // near-duplicate (record 1) gone: an exact copy of record 0 still
    // joins record 0's entity.
    let stream = write_tmp(
        "rc2",
        "name,city\n\
         Golden Dragon Palace,new york\n",
    );
    let out = Command::new(zeroer_bin())
        .args([
            "ingest",
            stream.to_str().unwrap(),
            "--model",
            snap.to_str().unwrap(),
            "--base",
            base.to_str().unwrap(),
        ])
        .output()
        .expect("spawn zeroer ingest");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        lines[1].starts_with("6,") && !lines[1].ends_with(",,"),
        "the duplicate must still match a live record: {stdout}"
    );
    std::fs::remove_file(snap).ok();
}

#[test]
fn compact_replaces_the_model_file_instead_of_truncating_it() {
    // A snapshot rewrite must land as a whole new file renamed over
    // `--model`: writing in place would truncate the one copy of the
    // model first, so a crash or a full disk mid-write would lose it.
    // A hard link to the old file tells the two apart — an in-place
    // write changes the shared inode under it too.
    let dir = tmp_dir("atomic-compact");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let base = dir.join("base.csv");
    std::fs::write(
        &base,
        "name,city\n\
         Golden Dragon Palace,new york\n\
         Golden Dragon Palce,new york\n\
         Blue Sky Tavern,austin\n\
         Rustic Oak Kitchen,denver\n\
         Harbor View Bistro,portland\n\
         Smoky Cellar Tavern,chicago\n",
    )
    .expect("write base CSV");
    let model = dir.join("model.json");
    let alias = dir.join("model-alias.json");
    let out = Command::new(zeroer_bin())
        .args(["dedup", base.to_str().unwrap(), "--save-model"])
        .arg(&model)
        .output()
        .expect("spawn zeroer dedup");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::hard_link(&model, &alias).expect("hard-link the model");
    let original = std::fs::read(&model).expect("read model");

    let out = Command::new(zeroer_bin())
        .args(["compact", "--model"])
        .arg(&model)
        .args(["--base", base.to_str().unwrap()])
        .output()
        .expect("spawn zeroer compact");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    assert_eq!(
        std::fs::read(&alias).expect("read alias"),
        original,
        "the rewrite went through the old file's inode instead of replacing it"
    );
    let rewritten = std::fs::read_to_string(&model).expect("read rewritten model");
    assert_ne!(
        rewritten.as_bytes(),
        original,
        "compaction advances the epoch"
    );
    zeroer::pipeline::PipelineSnapshot::from_json(&rewritten).expect("the new model parses");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("list dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    names.sort();
    assert_eq!(
        names,
        ["base.csv", "model-alias.json", "model.json"],
        "no temporary file is left behind"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn retract_flag_validation() {
    // --ids is retract-only.
    let out = Command::new(zeroer_bin())
        .args(["dedup", "t.csv", "--ids", "x.txt"])
        .output()
        .expect("spawn zeroer");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("only supported by the `retract`"));

    // retract requires --ids, --model and --base.
    let out = Command::new(zeroer_bin())
        .args(["retract", "--model", "m.json", "--base", "b.csv"])
        .output()
        .expect("spawn zeroer");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires --ids"));

    let out = Command::new(zeroer_bin())
        .args(["retract", "--ids", "x.txt", "--model", "m.json"])
        .output()
        .expect("spawn zeroer");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires --base"));

    // compact takes no positional files.
    let out = Command::new(zeroer_bin())
        .args(["compact", "t.csv", "--model", "m.json", "--base", "b.csv"])
        .output()
        .expect("spawn zeroer");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no positional files"));
}

#[test]
fn retract_rejects_bad_ids_cleanly() {
    let base = write_tmp(
        "ri1",
        "name,city\n\
         Golden Dragon Palace,new york\n\
         Golden Dragon Palce,new york\n\
         Blue Sky Tavern,austin\n\
         Rustic Oak Kitchen,denver\n\
         Harbor View Bistro,portland\n\
         Smoky Cellar Tavern,chicago\n",
    );
    let snap = std::env::temp_dir().join(format!("zeroer-snap-ri-{}.json", std::process::id()));
    let out = Command::new(zeroer_bin())
        .args([
            "dedup",
            base.to_str().unwrap(),
            "--save-model",
            snap.to_str().unwrap(),
        ])
        .output()
        .expect("spawn zeroer dedup");
    assert!(out.status.success());

    // An out-of-range index fails with a clear message and does not
    // rewrite the snapshot.
    let before = std::fs::read_to_string(&snap).unwrap();
    let ids = write_tmp("ri-ids", "42\n");
    let out = Command::new(zeroer_bin())
        .args([
            "retract",
            "--ids",
            ids.to_str().unwrap(),
            "--model",
            snap.to_str().unwrap(),
            "--base",
            base.to_str().unwrap(),
        ])
        .output()
        .expect("spawn zeroer retract");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown record index"));
    assert_eq!(
        std::fs::read_to_string(&snap).unwrap(),
        before,
        "a failed retraction must not rewrite the snapshot"
    );

    // A non-numeric ids file is rejected with file/line context.
    let ids = write_tmp("ri-ids2", "banana\n");
    let out = Command::new(zeroer_bin())
        .args([
            "retract",
            "--ids",
            ids.to_str().unwrap(),
            "--model",
            snap.to_str().unwrap(),
            "--base",
            base.to_str().unwrap(),
        ])
        .output()
        .expect("spawn zeroer retract");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("is not a record index"));
    std::fs::remove_file(snap).ok();
}

#[test]
fn repeated_schema_name_in_a_snapshot_is_a_clean_error() {
    let dir = tmp_dir("dup-schema");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let base = dir.join("base.csv");
    std::fs::write(
        &base,
        "name,city\n\
         Golden Dragon Palace,new york\n\
         Golden Dragon Palce,new york\n\
         Blue Sky Tavern,austin\n\
         Rustic Oak Kitchen,denver\n\
         Harbor View Bistro,portland\n\
         Smoky Cellar Tavern,chicago\n",
    )
    .expect("write base CSV");
    let model = dir.join("model.json");
    let out = Command::new(zeroer_bin())
        .args(["dedup", base.to_str().unwrap(), "--save-model"])
        .arg(&model)
        .output()
        .expect("spawn zeroer dedup");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&model).expect("read model");
    let dup_text = text.replace(r#""schema":["name","city"]"#, r#""schema":["name","name"]"#);
    assert_ne!(dup_text, text, "the snapshot names its schema");
    let dup = dir.join("dup.json");
    std::fs::write(&dup, dup_text).expect("write edited model");

    let out = Command::new(zeroer_bin())
        .args(["ingest", base.to_str().unwrap(), "--model"])
        .arg(&dup)
        .args(["--base", base.to_str().unwrap()])
        .output()
        .expect("spawn zeroer ingest");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("duplicate schema attribute name \"name\""),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_max_bucket_in_a_snapshot_is_a_clean_error() {
    // A cap of 0 would retire every blocking bucket at its first posting:
    // an ingest of the base's own records would then report six new
    // entities instead of joining them.
    let dir = tmp_dir("zero-cap");
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let base = dir.join("base.csv");
    std::fs::write(
        &base,
        "name,city\n\
         Golden Dragon Palace,new york\n\
         Golden Dragon Palce,new york\n\
         Blue Sky Tavern,austin\n\
         Rustic Oak Kitchen,denver\n\
         Harbor View Bistro,portland\n\
         Smoky Cellar Tavern,chicago\n",
    )
    .expect("write base CSV");
    let model = dir.join("model.json");
    let out = Command::new(zeroer_bin())
        .args(["dedup", base.to_str().unwrap(), "--save-model"])
        .arg(&model)
        .output()
        .expect("spawn zeroer dedup");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&model).expect("read model");
    let zero_text = text.replace(r#""max_bucket":400"#, r#""max_bucket":0"#);
    assert_ne!(zero_text, text, "the snapshot records the bucket cap");
    let zero = dir.join("zero.json");
    std::fs::write(&zero, zero_text).expect("write edited model");

    let out = Command::new(zeroer_bin())
        .args(["ingest", base.to_str().unwrap(), "--model"])
        .arg(&zero)
        .args(["--base", base.to_str().unwrap()])
        .output()
        .expect("spawn zeroer ingest");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("max_bucket must be at least 1"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn threads_flag_is_ingest_only_and_validated() {
    let out = Command::new(zeroer_bin())
        .args(["match", "a.csv", "b.csv", "--threads", "4"])
        .output()
        .expect("spawn zeroer");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("only supported by the `ingest`"));

    let out = Command::new(zeroer_bin())
        .args(["ingest", "s.csv", "--model", "m.json", "--threads", "0"])
        .output()
        .expect("spawn zeroer");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads must be at least 1"));
}

#[test]
fn ingest_requires_model_flag() {
    let stream = write_tmp("sm3", "name\nwhatever\n");
    let out = Command::new(zeroer_bin())
        .args(["ingest", stream.to_str().unwrap()])
        .output()
        .expect("spawn zeroer");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--model"));
}

#[test]
fn save_model_is_dedup_only() {
    let out = Command::new(zeroer_bin())
        .args(["match", "a.csv", "b.csv", "--save-model", "x.json"])
        .output()
        .expect("spawn zeroer");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("only supported by the `dedup`"));
}

#[test]
fn unknown_flag_is_an_error_with_usage() {
    let out = Command::new(zeroer_bin())
        .args(["match", "a.csv", "b.csv", "--bogus"])
        .output()
        .expect("spawn zeroer");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag"));
    assert!(stderr.contains("USAGE"));
}

#[test]
fn missing_file_reports_cleanly() {
    let out = Command::new(zeroer_bin())
        .args(["match", "/nonexistent/a.csv", "/nonexistent/b.csv"])
        .output()
        .expect("spawn zeroer");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn block_on_validates_attribute_names() {
    let l = write_tmp("l4", LEFT);
    let r = write_tmp("r4", RIGHT);
    let out = Command::new(zeroer_bin())
        .args([
            "match",
            l.to_str().unwrap(),
            r.to_str().unwrap(),
            "--block-on",
            "ghost_column",
        ])
        .output()
        .expect("spawn zeroer");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no attribute named"));
}

#[test]
fn stats_flag_prints_observability_and_is_rejected_on_match() {
    let base = write_tmp(
        "st1",
        "name,city\n\
         Golden Dragon Palace,new york\n\
         Golden Dragon Palce,new york\n\
         Blue Sky Tavern,austin\n\
         Rustic Oak Kitchen,denver\n\
         Harbor View Bistro,portland\n\
         Smoky Cellar Tavern,chicago\n",
    );
    let snap = std::env::temp_dir().join(format!("zeroer-stats-snap-{}.json", std::process::id()));

    // dedup --stats: derivation observability on the batch path.
    let out = Command::new(zeroer_bin())
        .args([
            "dedup",
            base.to_str().unwrap(),
            "--stats",
            "--save-model",
            snap.to_str().unwrap(),
        ])
        .output()
        .expect("spawn zeroer dedup --stats");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("distinct tokens interned"),
        "dedup --stats must report interner stats: {stderr}"
    );
    assert!(
        stderr.contains("candidate pairs generated"),
        "dedup --stats must report candidate counts: {stderr}"
    );

    // ingest --stats: interner plus per-leg bucket counts.
    let stream = write_tmp(
        "st2",
        "name,city\n\
         Golden Dragon Palace,new york\n\
         Totally Unseen Steakhouse,miami\n",
    );
    let out = Command::new(zeroer_bin())
        .args([
            "ingest",
            stream.to_str().unwrap(),
            "--model",
            snap.to_str().unwrap(),
            "--base",
            base.to_str().unwrap(),
            "--stats",
        ])
        .output()
        .expect("spawn zeroer ingest --stats");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("distinct tokens interned"),
        "ingest --stats must report interner stats: {stderr}"
    );
    assert!(
        stderr.contains("blocking legs: token"),
        "ingest --stats must report per-leg bucket counts: {stderr}"
    );
    assert!(
        stderr.contains("candidate pairs generated"),
        "ingest --stats must report candidate counts: {stderr}"
    );

    // match has no streaming index or persistent derivation: rejected.
    let l = write_tmp("st3", LEFT);
    let r = write_tmp("st4", RIGHT);
    let out = Command::new(zeroer_bin())
        .args(["match", l.to_str().unwrap(), r.to_str().unwrap(), "--stats"])
        .output()
        .expect("spawn zeroer match --stats");
    assert!(!out.status.success(), "--stats is dedup/ingest-only");
    assert!(String::from_utf8_lossy(&out.stderr).contains("only supported by the `dedup`"));
}

#[test]
fn link_save_model_then_side_ingest_round_trip() {
    let left = write_tmp(
        "lk-l",
        "name,city\n\
         Golden Dragon Palace,new york\n\
         Blue Sky Tavern,austin\n\
         Rustic Oak Kitchen,denver\n\
         Harbor View Bistro,portland\n\
         Smoky Cellar Tavern,chicago\n",
    );
    let right = write_tmp(
        "lk-r",
        "name,city\n\
         Golden Dragon Palce,new york\n\
         Rustic Oak Kitchn,denver\n\
         Totally Unrelated Bistro,miami\n\
         Smoky Cellar Tavern,chicago\n",
    );
    let stream = write_tmp(
        "lk-s",
        "name,city\n\
         Golden Dragon Palace,new york\n\
         Totally Unseen Steakhouse,reno\n",
    );
    let snap = std::env::temp_dir().join(format!("zeroer-link-{}.json", std::process::id()));

    // `link` requires --save-model.
    let out = Command::new(zeroer_bin())
        .args(["link", left.to_str().unwrap(), right.to_str().unwrap()])
        .output()
        .expect("spawn zeroer link");
    assert!(!out.status.success(), "link without --save-model must fail");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--save-model"));

    // Batch linkage + freeze.
    let out = Command::new(zeroer_bin())
        .args([
            "link",
            left.to_str().unwrap(),
            right.to_str().unwrap(),
            "--save-model",
            snap.to_str().unwrap(),
        ])
        .output()
        .expect("spawn zeroer link --save-model");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("left_id,right_id,probability"));
    assert!(stdout.contains("0,0,"), "Golden Dragon must link: {stdout}");
    assert!(stdout.contains("2,1,"), "Rustic Oak must link: {stdout}");
    let snap_text = std::fs::read_to_string(&snap).expect("snapshot written");
    assert!(snap_text.contains("zeroer-link-snapshot"));
    assert!(
        snap_text.contains("zeroer-linkage-snapshot"),
        "the three-model core snapshot is embedded"
    );

    // Streaming right-side ingest against the frozen linkage snapshot,
    // with --stats observability.
    let out = Command::new(zeroer_bin())
        .args([
            "ingest",
            stream.to_str().unwrap(),
            "--model",
            snap.to_str().unwrap(),
            "--side",
            "right",
            "--base-left",
            left.to_str().unwrap(),
            "--base-right",
            right.to_str().unwrap(),
            "--stats",
        ])
        .output()
        .expect("spawn zeroer ingest --side right");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines[0], "record,cluster,best_match,probability");
    assert_eq!(lines.len(), 3, "one line per streamed record: {stdout}");
    assert!(
        !lines[1].ends_with(",,"),
        "the Golden Dragon twin must link across tables: {stdout}"
    );
    assert!(
        lines[2].ends_with(",,"),
        "the unseen steakhouse must mint a fresh entity: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("preserved batch decisions"),
        "base tables must replay batch decisions: {stderr}"
    );
    assert!(
        stderr.contains("distinct tokens interned"),
        "--stats must report interner stats: {stderr}"
    );
    assert!(
        stderr.contains("blocking legs: token"),
        "--stats must report per-leg bucket counts: {stderr}"
    );
    std::fs::remove_file(snap).ok();
}

#[test]
fn metrics_flag_dumps_schema_valid_json_on_batch_and_streaming_paths() {
    use zeroer::core::json::Json;

    let base = write_tmp(
        "mx1",
        "name,city\n\
         Golden Dragon Palace,new york\n\
         Golden Dragon Palce,new york\n\
         Blue Sky Tavern,austin\n\
         Rustic Oak Kitchen,denver\n\
         Harbor View Bistro,portland\n\
         Smoky Cellar Tavern,chicago\n",
    );
    let stream = write_tmp(
        "mx2",
        "name,city\n\
         Golden Dragon Palace,new york\n\
         Totally Unseen Steakhouse,miami\n",
    );
    let pid = std::process::id();
    let snap = std::env::temp_dir().join(format!("zeroer-mx-snap-{pid}.json"));
    let m_dedup = std::env::temp_dir().join(format!("zeroer-mx-dedup-{pid}.json"));
    let m_ingest = std::env::temp_dir().join(format!("zeroer-mx-ingest-{pid}.json"));

    // Round-trip helper: the metrics dump (written by zeroer-obs's own
    // JSON writer) must parse with the workspace's JSON reader.
    let load = |path: &std::path::Path| -> Json {
        let text = std::fs::read_to_string(path).expect("metrics file written");
        let doc = Json::parse(&text).expect("metrics JSON parses");
        assert_eq!(
            doc.get("schema").and_then(|s| s.as_str()),
            Some("zeroer-metrics-v1"),
            "metrics dump must carry its schema identifier"
        );
        doc
    };
    let num = |doc: &Json, section: &str, name: &str| -> f64 {
        doc.get(section)
            .and_then(|s| s.get(name))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("{section}.{name} missing"))
    };
    let hist_field = |doc: &Json, name: &str, field: &str| -> f64 {
        doc.get("histograms")
            .and_then(|s| s.get(name))
            .and_then(|h| h.get(field))
            .and_then(|v| v.as_f64())
            .unwrap_or_else(|| panic!("histograms.{name}.{field} missing"))
    };

    // Batch path: `dedup --metrics` records the batch stage timers.
    let out = Command::new(zeroer_bin())
        .args([
            "dedup",
            base.to_str().unwrap(),
            "--save-model",
            snap.to_str().unwrap(),
            "--metrics",
            m_dedup.to_str().unwrap(),
        ])
        .output()
        .expect("spawn zeroer dedup --metrics");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("metrics written to"),
        "the dump must be announced on stderr"
    );
    let doc = load(&m_dedup);
    assert!(
        num(&doc, "gauges", "derive.interned_tokens") > 0.0,
        "derivation gauges must be published"
    );
    assert!(num(&doc, "gauges", "block.candidate_pairs") > 0.0);
    assert!(
        hist_field(&doc, "stream.bootstrap.ns", "count") >= 1.0
            && hist_field(&doc, "stream.bootstrap.ns", "sum") > 0.0,
        "the save-model path times its bootstrap fit"
    );
    // The save-model fit runs the batch recipe, so it records the batch
    // stage meters plain `dedup` records.
    for h in [
        "batch.derive.ns",
        "batch.block.ns",
        "batch.featurize.ns",
        "batch.fit.ns",
    ] {
        assert!(
            hist_field(&doc, h, "count") >= 1.0,
            "{h} must time the save-model fit"
        );
    }
    assert!(
        num(&doc, "counters", "batch.candidates") > 0.0,
        "the save-model fit counts its candidate pairs"
    );
    assert!(
        hist_field(&doc, "snapshot.save.ns", "count") >= 1.0,
        "snapshot serialization is timed"
    );

    // Streaming path: `ingest --threads 1 --metrics` must show nonzero
    // per-record stage timings and candidate/record counters.
    let out = Command::new(zeroer_bin())
        .args([
            "ingest",
            stream.to_str().unwrap(),
            "--model",
            snap.to_str().unwrap(),
            "--base",
            base.to_str().unwrap(),
            "--threads",
            "1",
            "--metrics",
            m_ingest.to_str().unwrap(),
        ])
        .output()
        .expect("spawn zeroer ingest --metrics");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = load(&m_ingest);
    for h in [
        "stream.derive.ns",
        "stream.block.ns",
        "stream.score.ns",
        "stream.ingest.ns",
    ] {
        assert!(
            hist_field(&doc, h, "count") > 0.0,
            "{h} must record per-record stage timings"
        );
    }
    assert!(
        hist_field(&doc, "stream.ingest.ns", "sum") > 0.0,
        "stage timings must be nonzero"
    );
    let p50 = hist_field(&doc, "stream.ingest.ns", "p50");
    let min = hist_field(&doc, "stream.ingest.ns", "min");
    let max = hist_field(&doc, "stream.ingest.ns", "max");
    assert!(
        min <= p50 && p50 <= max,
        "percentiles must lie within [min, max]: {min} <= {p50} <= {max}"
    );
    assert!(
        num(&doc, "counters", "stream.candidates") > 0.0,
        "candidate counter must be populated"
    );
    assert!(num(&doc, "counters", "stream.records") > 0.0);
    assert!(
        num(&doc, "gauges", "index.token.live_buckets") > 0.0,
        "streaming index gauges must be published even without --stats"
    );

    for p in [&snap, &m_dedup, &m_ingest] {
        std::fs::remove_file(p).ok();
    }
}

#[test]
fn side_flag_and_snapshot_kinds_are_cross_checked() {
    let base = write_tmp(
        "xk-b",
        "name,city\n\
         Golden Dragon Palace,new york\n\
         Golden Dragon Palce,new york\n\
         Blue Sky Tavern,austin\n\
         Rustic Oak Kitchen,denver\n\
         Harbor View Bistro,portland\n\
         Smoky Cellar Tavern,chicago\n",
    );
    let stream = write_tmp("xk-s", "name,city\nGolden Dragon Palace,new york\n");
    let snap = std::env::temp_dir().join(format!("zeroer-xk-{}.json", std::process::id()));

    let out = Command::new(zeroer_bin())
        .args([
            "dedup",
            base.to_str().unwrap(),
            "--save-model",
            snap.to_str().unwrap(),
        ])
        .output()
        .expect("spawn zeroer dedup");
    assert!(out.status.success());

    // A dedup snapshot with --side must be rejected with a useful hint.
    let out = Command::new(zeroer_bin())
        .args([
            "ingest",
            stream.to_str().unwrap(),
            "--model",
            snap.to_str().unwrap(),
            "--side",
            "right",
            "--base-left",
            base.to_str().unwrap(),
            "--base-right",
            base.to_str().unwrap(),
        ])
        .output()
        .expect("spawn zeroer ingest --side");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("dedup snapshot"),
        "mismatched snapshot kind needs a clear error"
    );

    // --side without the base tables is rejected up front.
    let out = Command::new(zeroer_bin())
        .args([
            "ingest",
            stream.to_str().unwrap(),
            "--model",
            snap.to_str().unwrap(),
            "--side",
            "left",
        ])
        .output()
        .expect("spawn zeroer ingest --side (no bases)");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--base-left"));

    // Bad --side values are rejected.
    let out = Command::new(zeroer_bin())
        .args([
            "ingest",
            stream.to_str().unwrap(),
            "--model",
            snap.to_str().unwrap(),
            "--side",
            "middle",
        ])
        .output()
        .expect("spawn zeroer ingest --side middle");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("left or right"));
    std::fs::remove_file(snap).ok();
}

/// A scratch directory under the system temp dir, unique per test.
fn tmp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("zeroer-gen-test-{name}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

#[test]
fn gen_writes_dedup_corpus_with_ground_truth() {
    let dir = tmp_dir("dedup");
    let out = Command::new(zeroer_bin())
        .args([
            "gen",
            "--out",
            dir.to_str().unwrap(),
            "--scale",
            "0.005",
            "--seed",
            "7",
        ])
        .output()
        .expect("spawn zeroer gen");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let corpus = std::fs::read_to_string(dir.join("corpus.csv")).expect("corpus.csv written");
    let truth = std::fs::read_to_string(dir.join("truth.csv")).expect("truth.csv written");
    assert!(corpus.starts_with("name,category,description,quantity,price"));
    assert!(truth.starts_with("record,entity"));
    // 0.005 × 20 000 = 100 records, one truth line per record.
    assert_eq!(corpus.lines().count(), 101);
    assert_eq!(truth.lines().count(), 101);

    // Same seed ⇒ byte-identical output; different seed ⇒ different.
    let dir2 = tmp_dir("dedup2");
    let args = |d: &std::path::Path, seed: &str| {
        vec![
            "gen".to_string(),
            "--out".into(),
            d.to_str().unwrap().into(),
            "--scale".into(),
            "0.005".into(),
            "--seed".into(),
            seed.into(),
        ]
    };
    let out = Command::new(zeroer_bin())
        .args(args(&dir2, "7"))
        .output()
        .expect("spawn zeroer gen (repeat)");
    assert!(out.status.success());
    assert_eq!(
        corpus,
        std::fs::read_to_string(dir2.join("corpus.csv")).unwrap(),
        "same seed must be byte-identical"
    );
    assert_eq!(
        truth,
        std::fs::read_to_string(dir2.join("truth.csv")).unwrap()
    );
    let dir3 = tmp_dir("dedup3");
    let out = Command::new(zeroer_bin())
        .args(args(&dir3, "8"))
        .output()
        .expect("spawn zeroer gen (other seed)");
    assert!(out.status.success());
    assert_ne!(
        corpus,
        std::fs::read_to_string(dir3.join("corpus.csv")).unwrap(),
        "a different seed must change the corpus"
    );
    for d in [dir, dir2, dir3] {
        std::fs::remove_dir_all(d).ok();
    }
}

#[test]
fn gen_linkage_writes_two_tables_and_matches() {
    let dir = tmp_dir("linkage");
    let out = Command::new(zeroer_bin())
        .args([
            "gen",
            "--out",
            dir.to_str().unwrap(),
            "--scale",
            "0.005",
            "--linkage",
            "--dup-rate",
            "0.4",
        ])
        .output()
        .expect("spawn zeroer gen --linkage");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let left = std::fs::read_to_string(dir.join("left.csv")).expect("left.csv written");
    let right = std::fs::read_to_string(dir.join("right.csv")).expect("right.csv written");
    let truth = std::fs::read_to_string(dir.join("truth.csv")).expect("truth.csv written");
    assert!(left.starts_with("name,category,description,quantity,price"));
    assert_eq!(left.lines().count(), 51, "100 records split 50/50");
    assert_eq!(right.lines().count(), 51);
    assert!(truth.starts_with("left,right"));
    // dup-rate 0.4 of 50 right records ⇒ exactly 20 match lines.
    assert_eq!(truth.lines().count(), 21);
    assert!(!std::fs::exists(dir.join("corpus.csv")).unwrap_or(false));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn gen_rejects_degenerate_specs_without_partial_output() {
    let cases: &[(&str, &str)] = &[
        ("0", "positive"),           // scale zero
        ("-1", "positive"),          // negative scale
        ("0.00001", "at least"),     // rounds below the minimum corpus
        ("abc", "must be a number"), // unparseable
    ];
    for (scale, needle) in cases {
        let dir = tmp_dir(&format!("bad-scale-{scale}"));
        let out = Command::new(zeroer_bin())
            .args(["gen", "--out", dir.to_str().unwrap(), "--scale", scale])
            .output()
            .expect("spawn zeroer gen (bad scale)");
        assert!(!out.status.success(), "scale {scale} must be rejected");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(needle), "scale {scale}: {stderr}");
        assert!(
            !dir.exists(),
            "scale {scale}: no output directory may be created on a failed spec"
        );
    }
    for dup in ["0", "1", "-0.5", "2"] {
        let dir = tmp_dir(&format!("bad-dup-{dup}"));
        let out = Command::new(zeroer_bin())
            .args([
                "gen",
                "--out",
                dir.to_str().unwrap(),
                "--scale",
                "0.005",
                "--dup-rate",
                dup,
            ])
            .output()
            .expect("spawn zeroer gen (bad dup-rate)");
        assert!(!out.status.success(), "dup-rate {dup} must be rejected");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("duplicate rate"),
            "dup-rate {dup} must name the invalid knob"
        );
        assert!(!dir.exists(), "dup-rate {dup}: no partial output");
    }
}

#[test]
fn gen_reports_unwritable_out_dir_cleanly() {
    // A regular file where the output directory should go: create_dir_all
    // fails, and nothing may be left behind.
    let blocker = write_tmp("gen-blocker", "not a directory");
    let out = Command::new(zeroer_bin())
        .args([
            "gen",
            "--out",
            blocker.to_str().unwrap(),
            "--scale",
            "0.005",
        ])
        .output()
        .expect("spawn zeroer gen (blocked out dir)");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot create output directory"),
        "stderr: {stderr}"
    );
    assert_eq!(
        std::fs::read_to_string(&blocker).unwrap(),
        "not a directory",
        "the blocking file must be untouched"
    );
    std::fs::remove_file(blocker).ok();

    // Nested variant: a path *under* a regular file.
    let nested = blocker_nested_path();
    let out = Command::new(zeroer_bin())
        .args(["gen", "--out", nested.to_str().unwrap(), "--scale", "0.005"])
        .output()
        .expect("spawn zeroer gen (nested blocked out dir)");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot create output directory"));
}

/// A would-be output path nested under a regular file.
fn blocker_nested_path() -> std::path::PathBuf {
    let file = write_tmp("gen-blocker-parent", "flat file");
    file.join("corpus-out")
}

#[test]
fn gen_flags_are_gen_only_and_validated() {
    // gen flags on other commands are rejected.
    let t = write_tmp("gen-flags", LEFT);
    let out = Command::new(zeroer_bin())
        .args(["dedup", t.to_str().unwrap(), "--scale", "0.1"])
        .output()
        .expect("spawn zeroer dedup --scale");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("only supported by the `gen`"));

    // gen without --out is rejected.
    let out = Command::new(zeroer_bin())
        .args(["gen", "--scale", "0.1"])
        .output()
        .expect("spawn zeroer gen (no out)");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("requires --out"));

    // gen takes no positional files.
    let out = Command::new(zeroer_bin())
        .args(["gen", "stray.csv", "--out", "/tmp/unused-zeroer-gen"])
        .output()
        .expect("spawn zeroer gen stray.csv");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("takes no positional files"));
}

#[test]
fn every_flag_is_rejected_outside_its_commands() {
    const COMMANDS: [&str; 9] = [
        "match", "link", "dedup", "ingest", "retract", "compact", "refresh", "serve", "gen",
    ];
    const BATCH: &[&str] = &["match", "link", "dedup"];
    const SNAPSHOT: &[&str] = &["ingest", "retract", "compact", "refresh", "serve"];
    const GEN: &[&str] = &["gen"];
    // (flag, its value if it takes one, the commands that accept it)
    let scopes: [(&str, Option<&str>, &[&str]); 20] = [
        ("--threshold", Some("0.5"), &COMMANDS[..8]),
        ("--overlap", Some("2"), BATCH),
        ("--block-on", Some("name"), BATCH),
        ("--kappa", Some("0.2"), BATCH),
        ("--no-transitivity", None, BATCH),
        (
            "--out",
            Some("out.csv"),
            &[
                "match", "link", "dedup", "ingest", "retract", "compact", "refresh", "gen",
            ],
        ),
        ("--save-model", Some("m.json"), &["dedup", "link"]),
        ("--model", Some("m.json"), SNAPSHOT),
        ("--base", Some("b.csv"), SNAPSHOT),
        ("--base-left", Some("l.csv"), SNAPSHOT),
        ("--base-right", Some("r.csv"), SNAPSHOT),
        ("--side", Some("left"), &["ingest"]),
        ("--threads", Some("2"), &["ingest", "serve"]),
        ("--ids", Some("ids.txt"), &["retract"]),
        ("--addr", Some("127.0.0.1:0"), &["serve"]),
        (
            "--stats",
            None,
            &[
                "dedup", "link", "ingest", "retract", "compact", "refresh", "serve",
            ],
        ),
        ("--scale", Some("0.1"), GEN),
        ("--seed", Some("3"), GEN),
        ("--dup-rate", Some("0.2"), GEN),
        ("--linkage", None, GEN),
    ];
    for (flag, value, accepted) in scopes {
        for command in COMMANDS.iter().filter(|c| !accepted.contains(c)) {
            let mut args = vec![*command, flag];
            args.extend(value);
            let out = Command::new(zeroer_bin())
                .args(&args)
                .output()
                .expect("spawn zeroer");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{args:?} must be rejected");
            assert!(
                stderr.contains(&format!("{flag} is only supported by the")),
                "{args:?}: {stderr}"
            );
            for ok in accepted {
                assert!(
                    stderr.contains(&format!("`{ok}`")),
                    "{args:?} must name `{ok}`: {stderr}"
                );
            }
        }
    }
}

#[test]
fn base_flags_must_fit_the_snapshot_kind() {
    let table = write_tmp("kind-t", LEFT);
    let other = write_tmp("kind-o", RIGHT);
    let (t, o) = (table.to_str().unwrap(), other.to_str().unwrap());
    let pid = std::process::id();
    let dedup = std::env::temp_dir().join(format!("zeroer-kind-dedup-{pid}.json"));
    let link = std::env::temp_dir().join(format!("zeroer-kind-link-{pid}.json"));
    let (d, l) = (dedup.to_str().unwrap(), link.to_str().unwrap());
    for args in [
        vec!["dedup", t, "--save-model", d],
        vec!["link", t, o, "--save-model", l],
    ] {
        let out = Command::new(zeroer_bin())
            .args(&args)
            .output()
            .expect("spawn zeroer");
        assert!(
            out.status.success(),
            "{args:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    let ids = write_tmp("kind-ids", "0\n");
    let ids = ids.to_str().unwrap();
    // Each snapshot command, given the other kind's base flags, names
    // the flags this snapshot takes, and leaves the snapshot untouched.
    let cases = [
        (
            d,
            "dedup",
            vec!["--base-left", t, "--base-right", o],
            &["takes `--base`;"][..],
        ),
        (
            l,
            "linkage",
            vec!["--base", t],
            &["`--base-left`", "`--base-right`"],
        ),
    ];
    for (model, kind, bases, needs) in cases {
        let before = std::fs::read_to_string(model).expect("snapshot written");
        for command in [
            vec!["ingest", t],
            vec!["retract", "--ids", ids],
            vec!["compact"],
            vec!["refresh"],
            vec!["serve"],
        ] {
            let mut args = command.clone();
            args.extend(["--model", model]);
            args.extend(&bases);
            let out = Command::new(zeroer_bin())
                .args(&args)
                .output()
                .expect("spawn zeroer");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(!out.status.success(), "{args:?} must be rejected");
            assert!(
                stderr.contains(&format!("is a {kind} snapshot"))
                    && needs.iter().all(|flag| stderr.contains(flag)),
                "{args:?}: {stderr}"
            );
        }
        assert_eq!(std::fs::read_to_string(model).unwrap(), before);
    }
    // A linkage ingest also needs the side of its records.
    let out = Command::new(zeroer_bin())
        .args([
            "ingest",
            t,
            "--model",
            l,
            "--base-left",
            t,
            "--base-right",
            o,
        ])
        .output()
        .expect("spawn zeroer");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("`--side left|right`"));
    std::fs::remove_file(dedup).ok();
    std::fs::remove_file(link).ok();
}
