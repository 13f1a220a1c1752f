//! The `zeroer` command-line tool: unsupervised entity resolution over
//! CSV files.
//!
//! ```text
//! zeroer match <left.csv> <right.csv> [--threshold 0.5] [--overlap N]
//!              [--block-on ATTR] [--kappa K] [--no-transitivity] [--out pairs.csv]
//! zeroer link  <left.csv> <right.csv> --save-model link.json [same flags]
//! zeroer dedup <table.csv>          [same flags] [--save-model snap.json]
//! zeroer ingest <stream.csv>        --model snap.json [--base resolved.csv]
//!                                   [--threads N] [--threshold 0.5] [--out assign.csv]
//! zeroer ingest <stream.csv>        --model link.json --side left|right
//!                                   --base-left left.csv --base-right right.csv [same flags]
//! zeroer retract --ids <file>       --model snap.json --base resolved.csv [--out snap.json]
//! zeroer compact                    --model snap.json --base resolved.csv [--stats]
//! zeroer serve                      --model snap.json [--base resolved.csv]
//!                                   [--addr 127.0.0.1:7878] [--threads N]
//! zeroer gen --out dir              [--scale S] [--seed N] [--dup-rate R] [--linkage]
//! ```
//!
//! `match` links records across two CSVs with identical headers; `dedup`
//! finds duplicate rows inside one CSV. Output is CSV on stdout (or
//! `--out`): `left_id,right_id,probability` sorted by descending
//! probability, thresholded at `--threshold`.
//!
//! `dedup --save-model` additionally freezes the fitted model into a
//! JSON snapshot; `ingest` then streams new records against it — no EM
//! at ingest time — emitting one line per record:
//! `record,cluster,best_match,probability` (empty match fields for fresh
//! entities).
//!
//! `link` is the record-linkage (`match`-path) counterpart of `dedup
//! --save-model`: it fits the three-model linkage trainer and freezes
//! all three models into a linkage snapshot. `ingest --side left|right`
//! then streams side-tagged records against it: each record blocks only
//! against the *opposite* side's index and is scored with the frozen
//! cross model; `--base-left`/`--base-right` replay the persisted batch
//! decisions for the bootstrap tables.
//!
//! `serve` keeps the rebuilt pipeline resident and answers resolve /
//! ingest / admin requests over a length-prefixed TCP protocol (see
//! `crates/serve/README.md`): resolves run on the lock-free read path,
//! ingests are micro-batched through the single-writer write path.
//!
//! `retract` withdraws base records by index (one per line in the
//! `--ids` file): their clusters are rebuilt as if never ingested and
//! the tombstones are persisted back into the snapshot. `compact`
//! reclaims the index memory those tombstones pin (dead postings, empty
//! buckets, dead decision-log edges) and reports the freed bytes.

use std::process::ExitCode;
use zeroer::core::ZeroErConfig;
use zeroer::pipeline::{
    dedup_table, dedup_table_with_snapshot, match_tables, match_tables_with_snapshot,
    IngestOutcome, LinkPipeline, LinkSnapshot, MatchOptions, PipelineSnapshot, Side,
    StreamPipeline,
};
use zeroer::tabular::csv::{read_table, write_table};
use zeroer::tabular::{Schema, Table};

struct Args {
    command: String,
    files: Vec<String>,
    threshold: f64,
    overlap: usize,
    block_on: Option<String>,
    kappa: f64,
    transitivity: bool,
    out: Option<String>,
    save_model: Option<String>,
    model: Option<String>,
    base: Option<String>,
    base_left: Option<String>,
    base_right: Option<String>,
    side: Option<Side>,
    ids: Option<String>,
    threads: Option<usize>,
    stats: bool,
    metrics: Option<String>,
    addr: Option<String>,
    scale: f64,
    seed: u64,
    dup_rate: f64,
    linkage: bool,
}

fn usage() -> &'static str {
    "zeroer — entity resolution with zero labeled examples (SIGMOD 2020)\n\
     \n\
     USAGE:\n\
       zeroer match <left.csv> <right.csv> [flags]   link records across two tables\n\
       zeroer link <left.csv> <right.csv> --save-model <link.json> [flags]\n\
                                                     `match` + freeze the three-model linkage\n\
                                                     fit into a streaming snapshot\n\
       zeroer dedup <table.csv>            [flags]   find duplicates inside one table\n\
       zeroer ingest <stream.csv> --model <snap.json> [flags]\n\
                                                     stream records against a frozen model\n\
       zeroer ingest <stream.csv> --model <link.json> --side left|right\n\
                     --base-left <csv> --base-right <csv> [flags]\n\
                                                     stream side-tagged records against a\n\
                                                     frozen linkage snapshot (cross-table)\n\
       zeroer retract --ids <file> --model <snap.json> --base <csv> [flags]\n\
                                                     withdraw base records (indices, one per\n\
                                                     line); tombstones persist in the snapshot\n\
       zeroer compact --model <snap.json> --base <csv> [flags]\n\
                                                     drop tombstoned index state, report the\n\
                                                     reclaimed bytes\n\
       zeroer refresh --model <snap.json> --base <csv> [flags]\n\
                                                     re-fit the model over the snapshot's live\n\
                                                     records and write the refreshed snapshot\n\
       zeroer refresh --model <link.json> --base-left <csv> --base-right <csv> [flags]\n\
                                                     same, for a frozen linkage snapshot\n\
                                                     (re-runs the three-model joint fit)\n\
       zeroer serve --model <snap.json> [--base <csv>] [--addr <host:port>] [flags]\n\
                                                     serve resolve/ingest/admin requests over\n\
                                                     TCP until an admin shutdown arrives\n\
       zeroer gen --out <dir> [--scale <s>] [--seed <n>] [--dup-rate <r>] [--linkage]\n\
                                                     synthesize a seeded corpus with exact\n\
                                                     ground truth: corpus.csv + truth.csv\n\
                                                     (or left/right/truth.csv with --linkage)\n\
     \n\
     FLAGS:\n\
       --threshold <p>     posterior cut-off for reporting a match (default 0.5)\n\
       --overlap <n>       min shared title tokens for a candidate pair (default 1)\n\
       --block-on <attr>   attribute name to block on (default: first column)\n\
       --kappa <k>         regularization strength (default 0.15, the paper's)\n\
       --no-transitivity   disable the transitivity soft constraint\n\
       --out <file>        write results to a CSV file instead of stdout\n\
       --save-model <file> (dedup, link) freeze the fitted model(s) to a JSON snapshot\n\
       --model <file>      (ingest, retract, compact, refresh, serve) snapshot\n\
                           produced by --save-model\n\
       --base <csv>        (ingest) the resolved bootstrap records; their batch\n\
                           cluster decisions are replayed from the snapshot (never\n\
                           re-scored) when the snapshot carries them\n\
       --side <l|r>        (ingest) which table the streamed records belong to;\n\
                           requires a linkage snapshot from `zeroer link`\n\
       --base-left <csv>   (ingest --side) the left bootstrap table\n\
       --base-right <csv>  (ingest --side) the right bootstrap table\n\
       --threads <n>       (ingest, serve) ingest worker threads (default: all\n\
                           cores); results are identical for every thread count\n\
       --addr <host:port>  (serve) address to bind (default 127.0.0.1:0, an\n\
                           ephemeral port; the bound address is printed to stderr)\n\
       --ids <file>        (retract) record indices to withdraw, one per line\n\
                           ('#' comments and blank lines are skipped)\n\
       --scale <s>         (gen) size multiplier: records = s × 20000 (default 0.1;\n\
                           scale 1 ≈ 20k records, 10 ≈ 200k, 100 ≈ 2M)\n\
       --seed <n>          (gen) corpus RNG seed (default 42); the same seed always\n\
                           yields a byte-identical corpus and ground truth\n\
       --dup-rate <r>      (gen) fraction of records that are corrupted duplicates,\n\
                           strictly inside (0, 1) (default 0.3)\n\
       --linkage           (gen) emit a two-table linkage corpus instead of one\n\
                           dedup table\n\
       --stats             (dedup, link, ingest, retract, compact, serve) print derivation/\n\
                           blocking observability to stderr: tokens interned,\n\
                           live/retired buckets and live/dead postings per leg,\n\
                           candidate pairs, live/retracted records, epoch\n\
       --metrics <file>    (all commands) write every recorded counter, gauge and\n\
                           stage-latency histogram as JSON (schema zeroer-metrics-v1,\n\
                           documented in crates/obs/README.md)\n"
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        command: String::new(),
        files: Vec::new(),
        threshold: 0.5,
        overlap: 1,
        block_on: None,
        kappa: 0.15,
        transitivity: true,
        out: None,
        save_model: None,
        model: None,
        base: None,
        base_left: None,
        base_right: None,
        side: None,
        ids: None,
        threads: None,
        stats: false,
        metrics: None,
        addr: None,
        scale: 0.1,
        seed: 42,
        dup_rate: 0.3,
        linkage: false,
    };
    let mut gen_flags: Vec<&'static str> = Vec::new();
    let mut batch_flags: Vec<&'static str> = Vec::new();
    let mut it = argv.iter().peekable();
    let take_value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                      flag: &str|
     -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => {
                args.threshold = take_value(&mut it, "--threshold")?
                    .parse()
                    .map_err(|_| "--threshold must be a number".to_string())?;
            }
            "--overlap" => {
                batch_flags.push("--overlap");
                args.overlap = take_value(&mut it, "--overlap")?
                    .parse()
                    .map_err(|_| "--overlap must be an integer".to_string())?;
            }
            "--block-on" => {
                batch_flags.push("--block-on");
                args.block_on = Some(take_value(&mut it, "--block-on")?);
            }
            "--kappa" => {
                batch_flags.push("--kappa");
                args.kappa = take_value(&mut it, "--kappa")?
                    .parse()
                    .map_err(|_| "--kappa must be a number".to_string())?;
            }
            "--no-transitivity" => {
                batch_flags.push("--no-transitivity");
                args.transitivity = false;
            }
            "--threads" => {
                let n: usize = take_value(&mut it, "--threads")?
                    .parse()
                    .map_err(|_| "--threads must be an integer".to_string())?;
                if n == 0 {
                    return Err("--threads must be at least 1".into());
                }
                args.threads = Some(n);
            }
            "--stats" => args.stats = true,
            "--metrics" => args.metrics = Some(take_value(&mut it, "--metrics")?),
            "--out" => args.out = Some(take_value(&mut it, "--out")?),
            "--save-model" => args.save_model = Some(take_value(&mut it, "--save-model")?),
            "--model" => args.model = Some(take_value(&mut it, "--model")?),
            "--base" => args.base = Some(take_value(&mut it, "--base")?),
            "--base-left" => args.base_left = Some(take_value(&mut it, "--base-left")?),
            "--base-right" => args.base_right = Some(take_value(&mut it, "--base-right")?),
            "--side" => {
                args.side = Some(match take_value(&mut it, "--side")?.as_str() {
                    "left" => Side::Left,
                    "right" => Side::Right,
                    other => return Err(format!("--side must be left or right, got {other:?}")),
                });
            }
            "--ids" => args.ids = Some(take_value(&mut it, "--ids")?),
            "--addr" => args.addr = Some(take_value(&mut it, "--addr")?),
            "--scale" => {
                gen_flags.push("--scale");
                args.scale = take_value(&mut it, "--scale")?
                    .parse()
                    .map_err(|_| "--scale must be a number".to_string())?;
            }
            "--seed" => {
                gen_flags.push("--seed");
                args.seed = take_value(&mut it, "--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a non-negative integer".to_string())?;
            }
            "--dup-rate" => {
                gen_flags.push("--dup-rate");
                args.dup_rate = take_value(&mut it, "--dup-rate")?
                    .parse()
                    .map_err(|_| "--dup-rate must be a number".to_string())?;
            }
            "--linkage" => {
                gen_flags.push("--linkage");
                args.linkage = true;
            }
            "-h" | "--help" => return Err(String::new()),
            flag if flag.starts_with("--") => return Err(format!("unknown flag: {flag}")),
            positional => {
                if args.command.is_empty() {
                    args.command = positional.to_string();
                } else {
                    args.files.push(positional.to_string());
                }
            }
        }
    }
    if !(0.0..=1.0).contains(&args.threshold) {
        return Err("--threshold must lie in [0, 1]".into());
    }
    if args.save_model.is_some() && !matches!(args.command.as_str(), "dedup" | "link") {
        return Err("--save-model is only supported on the `dedup` and `link` batch paths".into());
    }
    if args.stats && args.command == "match" {
        return Err(
            "--stats is only supported by the `dedup`, `link`, `ingest`, `retract` and \
             `compact` commands"
                .into(),
        );
    }
    let snapshot_command = matches!(
        args.command.as_str(),
        "ingest" | "retract" | "compact" | "refresh" | "serve"
    );
    if !snapshot_command {
        if args.model.is_some() {
            return Err(
                "--model is only supported by the `ingest`, `retract`, `compact` and `serve` \
                 commands"
                    .into(),
            );
        }
        if args.base.is_some() {
            return Err(
                "--base is only supported by the `ingest`, `retract`, `compact` and `serve` \
                 commands"
                    .into(),
            );
        }
    } else if let Some(flag) = batch_flags.first() {
        return Err(format!(
            "{flag} configures the batch fit and is frozen in the snapshot; \
             it cannot be changed after fitting"
        ));
    }
    if args.side.is_some() && args.command != "ingest" {
        return Err("--side is only supported by the `ingest` command".into());
    }
    if (args.base_left.is_some() || args.base_right.is_some())
        && !matches!(args.command.as_str(), "ingest" | "refresh")
    {
        return Err(
            "--base-left/--base-right are only supported by the `ingest` and `refresh` commands"
                .into(),
        );
    }
    if args.command == "ingest" {
        if args.side.is_some() {
            if args.base.is_some() {
                return Err(
                    "--base is the dedup-path seed; linkage ingest takes --base-left and \
                     --base-right"
                        .into(),
                );
            }
            if args.base_left.is_none() || args.base_right.is_none() {
                return Err(
                    "`ingest --side` requires --base-left <csv> and --base-right <csv> (the \
                     bootstrap tables the linkage snapshot was fitted on)"
                        .into(),
                );
            }
        } else if args.base_left.is_some() || args.base_right.is_some() {
            return Err("--base-left/--base-right require --side left|right".into());
        }
    }
    if args.threads.is_some() && !matches!(args.command.as_str(), "ingest" | "serve") {
        return Err("--threads is only supported by the `ingest` and `serve` commands".into());
    }
    if args.ids.is_some() && args.command != "retract" {
        return Err("--ids is only supported by the `retract` command".into());
    }
    if args.addr.is_some() && args.command != "serve" {
        return Err("--addr is only supported by the `serve` command".into());
    }
    if args.command != "gen" {
        if let Some(flag) = gen_flags.first() {
            return Err(format!("{flag} is only supported by the `gen` command"));
        }
    }
    let need_model = |args: &Args, cmd: &str| -> Result<(), String> {
        if args.model.is_none() {
            return Err(format!("`{cmd}` requires --model <snapshot.json>"));
        }
        Ok(())
    };
    match (args.command.as_str(), args.files.len()) {
        ("match", 2) | ("dedup", 1) => Ok(args),
        ("gen", 0) => {
            if args.out.is_none() {
                return Err("`gen` requires --out <dir> (the corpus output directory)".into());
            }
            if let Some(flag) = batch_flags.first() {
                return Err(format!(
                    "{flag} configures the batch fit; it does not apply to `gen`"
                ));
            }
            Ok(args)
        }
        ("gen", n) => Err(format!(
            "`gen` takes no positional files (got {n}); the corpus is synthesized \
             from --scale/--seed"
        )),
        ("link", 2) => {
            if args.save_model.is_none() {
                return Err(
                    "`link` requires --save-model <link.json> (use `match` for a one-shot \
                     linkage without freezing)"
                        .into(),
                );
            }
            Ok(args)
        }
        ("ingest", 1) => {
            need_model(&args, "ingest")?;
            Ok(args)
        }
        ("retract", 0) => {
            need_model(&args, "retract")?;
            if args.ids.is_none() {
                return Err(
                    "`retract` requires --ids <file> (record indices, one per line)".into(),
                );
            }
            if args.base.is_none() {
                return Err(
                    "`retract` requires --base <csv> (the bootstrap records the \
                            snapshot indices refer to)"
                        .into(),
                );
            }
            Ok(args)
        }
        ("serve", 0) => {
            need_model(&args, "serve")?;
            Ok(args)
        }
        ("refresh", 0) => {
            need_model(&args, "refresh")?;
            let dedup_base = args.base.is_some();
            let link_base = args.base_left.is_some() && args.base_right.is_some();
            if dedup_base == link_base {
                return Err(
                    "`refresh` requires either --base <csv> (dedup snapshot) or \
                     --base-left <csv> --base-right <csv> (linkage snapshot)"
                        .into(),
                );
            }
            Ok(args)
        }
        ("compact", 0) => {
            need_model(&args, "compact")?;
            if args.base.is_none() {
                return Err(
                    "`compact` requires --base <csv> (the bootstrap records the \
                            snapshot tombstones refer to)"
                        .into(),
                );
            }
            Ok(args)
        }
        ("match", n) => Err(format!("`match` needs exactly two CSV files, got {n}")),
        ("link", n) => Err(format!("`link` needs exactly two CSV files, got {n}")),
        ("dedup", n) => Err(format!("`dedup` needs exactly one CSV file, got {n}")),
        ("ingest", n) => Err(format!(
            "`ingest` needs exactly one stream CSV file, got {n}"
        )),
        ("retract", n) | ("compact", n) | ("refresh", n) | ("serve", n) => Err(format!(
            "`{}` takes no positional files (got {n}); the store is rebuilt from \
             --model and --base",
            args.command
        )),
        (other, _) => Err(format!("unknown command: {other:?}")),
    }
}

fn load(path: &str) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    read_table(path, &text).map_err(|e| format!("cannot parse {path}: {e}"))
}

fn options(args: &Args, schema_probe: &Table) -> Result<MatchOptions, String> {
    let blocking_attr = match &args.block_on {
        None => 0,
        Some(name) => schema_probe
            .schema()
            .index_of(name)
            .ok_or_else(|| format!("no attribute named {name:?} in the input schema"))?,
    };
    Ok(MatchOptions {
        config: ZeroErConfig {
            kappa: args.kappa,
            transitivity: args.transitivity,
            ..Default::default()
        },
        blocking_attr,
        min_token_overlap: args.overlap,
    })
}

fn emit(rows: &[(usize, usize, f64)], out: &Option<String>) -> Result<(), String> {
    let mut text = String::from("left_id,right_id,probability\n");
    for (l, r, p) in rows {
        text.push_str(&format!("{l},{r},{p:.4}\n"));
    }
    match out {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    dispatch(&args)?;
    if let Some(path) = &args.metrics {
        std::fs::write(path, zeroer::obs::to_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("zeroer: metrics written to {path}");
    }
    Ok(())
}

/// Runs the selected subcommand. Metric recording happens as a side
/// effect; `run` dumps the registry afterwards when `--metrics` asks
/// for it.
fn dispatch(args: &Args) -> Result<(), String> {
    let mut rows: Vec<(usize, usize, f64)>;
    match args.command.as_str() {
        "match" => {
            let left = load(&args.files[0])?;
            let right = load(&args.files[1])?;
            let opts = options(args, &left)?;
            let result = match_tables(&left, &right, &opts);
            rows = result
                .pairs
                .iter()
                .zip(&result.probabilities)
                .filter(|(_, &p)| p >= args.threshold)
                .map(|(&(l, r), &p)| (l, r, p))
                .collect();
            eprintln!(
                "zeroer: {} candidates, {} matches at threshold {}",
                result.pairs.len(),
                rows.len(),
                args.threshold
            );
        }
        "dedup" => {
            let table = load(&args.files[0])?;
            let opts = options(args, &table)?;
            let result = match &args.save_model {
                None => dedup_table(&table, &opts),
                Some(path) => {
                    let (result, pipeline) = dedup_table_with_snapshot(&table, &opts)
                        .map_err(|e| format!("cannot fit a model to freeze: {e}"))?;
                    write_snapshot(path, &pipeline.snapshot().to_json())?;
                    eprintln!("zeroer: model snapshot written to {path}");
                    result
                }
            };
            rows = result
                .pairs
                .iter()
                .zip(&result.probabilities)
                .filter(|(_, &p)| p >= args.threshold)
                .map(|(&(a, b), &p)| (a, b, p))
                .collect();
            eprintln!(
                "zeroer: {} candidates, {} duplicate pairs, {} clusters",
                result.pairs.len(),
                rows.len(),
                result.clusters.len()
            );
            if args.stats {
                render_stats();
            }
        }
        "gen" => return run_gen(args),
        "link" => return run_link(args),
        "ingest" => return run_ingest(args),
        "retract" => return run_retract(args),
        "compact" => return run_compact(args),
        "refresh" => return run_refresh(args),
        "serve" => return run_serve(args),
        _ => unreachable!("validated in parse_args"),
    }
    rows.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite probabilities"));
    emit(&rows, &args.out)
}

/// The `gen` subcommand: synthesize a seeded corpus with exact ground
/// truth into `--out <dir>`. The spec is validated and the corpus fully
/// generated in memory *before* the first filesystem write, and a failed
/// write removes everything this run already wrote — callers never see
/// partial output.
fn run_gen(args: &Args) -> Result<(), String> {
    use zeroer::datagen::{generate_dedup, generate_linkage, CorpusSpec};
    let spec = CorpusSpec {
        scale: args.scale,
        seed: args.seed,
        duplicate_rate: args.dup_rate,
        ..CorpusSpec::default()
    };
    let dir = std::path::Path::new(args.out.as_deref().expect("validated in parse_args"));

    // (file name, body) pairs — generation errors surface here, before
    // any directory or file exists.
    let outputs: Vec<(&'static str, String)> = if args.linkage {
        let corpus = generate_linkage(&spec).map_err(|e| format!("cannot generate: {e}"))?;
        eprintln!(
            "zeroer: generated linkage corpus (scale {}, seed {}): {} left + {} right records, \
             {} ground-truth matches",
            spec.scale,
            spec.seed,
            corpus.left.len(),
            corpus.right.len(),
            corpus.matches.len()
        );
        vec![
            ("left.csv", write_table(&corpus.left)),
            ("right.csv", write_table(&corpus.right)),
            ("truth.csv", corpus.truth_csv()),
        ]
    } else {
        let corpus = generate_dedup(&spec).map_err(|e| format!("cannot generate: {e}"))?;
        let pairs = corpus.truth_pairs().len();
        eprintln!(
            "zeroer: generated dedup corpus (scale {}, seed {}): {} records, \
             {} ground-truth duplicate pairs",
            spec.scale,
            spec.seed,
            corpus.table.len(),
            pairs
        );
        vec![
            ("corpus.csv", write_table(&corpus.table)),
            ("truth.csv", corpus.truth_csv()),
        ]
    };

    std::fs::create_dir_all(dir)
        .map_err(|e| format!("cannot create output directory {}: {e}", dir.display()))?;
    let mut written: Vec<std::path::PathBuf> = Vec::new();
    for (name, body) in &outputs {
        let path = dir.join(name);
        if let Err(e) = std::fs::write(&path, body) {
            for done in &written {
                let _ = std::fs::remove_file(done);
            }
            let _ = std::fs::remove_file(&path);
            return Err(format!(
                "cannot write {}: {e} (removed partial output)",
                path.display()
            ));
        }
        written.push(path);
    }
    for path in &written {
        eprintln!("zeroer: wrote {}", path.display());
    }
    Ok(())
}

/// The `link` subcommand: batch record linkage + freeze the three-model
/// fit into a linkage snapshot for `ingest --side`.
fn run_link(args: &Args) -> Result<(), String> {
    let left = load(&args.files[0])?;
    let right = load(&args.files[1])?;
    let opts = options(args, &left)?;
    let (result, pipeline) = match_tables_with_snapshot(&left, &right, &opts)
        .map_err(|e| format!("cannot fit a linkage model to freeze: {e}"))?;
    let path = args.save_model.as_deref().expect("validated in parse_args");
    write_snapshot(path, &pipeline.snapshot().to_json())?;
    eprintln!("zeroer: linkage snapshot (3 models) written to {path}");
    let mut rows: Vec<(usize, usize, f64)> = result
        .pairs
        .iter()
        .zip(&result.probabilities)
        .filter(|(_, &p)| p >= args.threshold)
        .map(|(&(l, r), &p)| (l, r, p))
        .collect();
    eprintln!(
        "zeroer: {} cross candidates, {} matches at threshold {} ({} entity clusters)",
        result.pairs.len(),
        rows.len(),
        args.threshold,
        pipeline.clusters().len()
    );
    pipeline.stats().publish();
    if args.stats {
        render_stats();
    }
    rows.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite probabilities"));
    emit(&rows, &args.out)
}

/// The `ingest --side` subcommand: stream side-tagged records against a
/// frozen linkage snapshot.
fn run_link_ingest(args: &Args, side: Side) -> Result<(), String> {
    let model_path = args.model.as_deref().expect("validated in parse_args");
    let text = std::fs::read_to_string(model_path)
        .map_err(|e| format!("cannot read {model_path}: {e}"))?;
    let snapshot = LinkSnapshot::from_json(&text).map_err(|e| {
        if text.contains("zeroer-pipeline-snapshot") {
            format!(
                "{model_path} is a dedup snapshot (from `zeroer dedup --save-model`); \
                 `ingest --side` needs a linkage snapshot from `zeroer link --save-model`"
            )
        } else {
            format!("cannot parse {model_path}: {e}")
        }
    })?;
    let mut pipeline = LinkPipeline::from_snapshot(&snapshot, args.threshold)
        .map_err(|e| format!("cannot rebuild pipeline from {model_path}: {e}"))?;
    let schema = pipeline.store().table().schema().clone();

    let base_left = load(args.base_left.as_deref().expect("validated"))?;
    let base_right = load(args.base_right.as_deref().expect("validated"))?;
    check_snapshot_schema(&schema, &base_left)?;
    check_snapshot_schema(&schema, &base_right)?;
    pipeline
        .seed_base(&base_left, &base_right)
        .map_err(|e| format!("cannot seed base records: {e}"))?;
    eprintln!(
        "zeroer: pre-loaded {} left + {} right base records with preserved batch decisions \
         ({} clusters)",
        base_left.len(),
        base_right.len(),
        pipeline.clusters().len()
    );
    let base_offset = pipeline.len();

    let stream = load(&args.files[0])?;
    check_snapshot_schema(&schema, &stream)?;
    let threads = args
        .threads
        .unwrap_or_else(zeroer::stream::pipeline::available_threads);
    let outcomes = pipeline.ingest_batch_parallel(stream.records().to_vec(), side, threads);
    let fresh = outcomes.iter().filter(|o| o.is_new_entity()).count();
    let text = outcomes_csv(&outcomes, &|i| pipeline.store().find_readonly(i));
    eprintln!(
        "zeroer: ingested {} {}-side records ({} new entities, {} linked across; store {} → {} \
         records, {} clusters)",
        stream.len(),
        side.name(),
        fresh,
        stream.len() - fresh,
        base_offset,
        pipeline.len(),
        pipeline.clusters().len()
    );
    pipeline.stats().publish();
    if args.stats {
        render_stats();
    }
    emit_text(text, &args.out)
}

/// The `serve` subcommand: rebuild the pipeline from a frozen snapshot,
/// split it into read/write paths, and answer resolve/ingest/admin
/// requests over TCP until an admin `shutdown` arrives.
fn run_serve(args: &Args) -> Result<(), String> {
    let model_path = args.model.as_deref().expect("validated in parse_args");
    let text = std::fs::read_to_string(model_path)
        .map_err(|e| format!("cannot read {model_path}: {e}"))?;
    let snapshot = PipelineSnapshot::from_json(&text).map_err(|e| {
        if text.contains("zeroer-link-snapshot") {
            format!(
                "{model_path} is a linkage snapshot (from `zeroer link --save-model`); \
                 `serve` needs a dedup snapshot from `zeroer dedup --save-model`"
            )
        } else {
            format!("cannot parse {model_path}: {e}")
        }
    })?;
    let mut pipeline = StreamPipeline::from_snapshot(&snapshot, args.threshold)
        .map_err(|e| format!("cannot rebuild pipeline from {model_path}: {e}"))?;
    let schema = pipeline.store().table().schema().clone();
    let threads = args
        .threads
        .unwrap_or_else(zeroer::stream::pipeline::available_threads);
    if let Some(base_path) = &args.base {
        let base = load(base_path)?;
        check_snapshot_schema(&schema, &base)?;
        if snapshot.bootstrap_len > 0 {
            pipeline
                .seed_base(&base)
                .map_err(|e| format!("cannot seed base records from {base_path}: {e}"))?;
        } else {
            pipeline.ingest_batch_parallel(base.records().to_vec(), threads);
        }
        eprintln!(
            "zeroer: pre-loaded {} base records ({} clusters)",
            base.len(),
            pipeline.clusters().len()
        );
    }
    let server = zeroer::serve::Server::bind(
        pipeline,
        args.addr.as_deref().unwrap_or("127.0.0.1:0"),
        threads,
    )
    .map_err(|e| {
        format!(
            "cannot bind {}: {e}",
            args.addr.as_deref().unwrap_or("127.0.0.1:0")
        )
    })?;
    eprintln!("zeroer: serving on {}", server.local_addr());
    let pipeline = server.run();
    eprintln!(
        "zeroer: server drained ({} records, {} clusters)",
        pipeline.store().len(),
        pipeline.clusters().len()
    );
    pipeline.stats().publish();
    if args.stats {
        render_stats();
    }
    Ok(())
}

/// The `ingest` subcommand: stream records against a frozen snapshot.
fn run_ingest(args: &Args) -> Result<(), String> {
    if let Some(side) = args.side {
        return run_link_ingest(args, side);
    }
    let model_path = args.model.as_deref().expect("validated in parse_args");
    let text = std::fs::read_to_string(model_path)
        .map_err(|e| format!("cannot read {model_path}: {e}"))?;
    let snapshot = PipelineSnapshot::from_json(&text).map_err(|e| {
        if text.contains("zeroer-link-snapshot") {
            format!(
                "{model_path} is a linkage snapshot (from `zeroer link --save-model`); \
                 pass --side left|right (with --base-left/--base-right) to stream against it"
            )
        } else {
            format!("cannot parse {model_path}: {e}")
        }
    })?;
    let mut pipeline = StreamPipeline::from_snapshot(&snapshot, args.threshold)
        .map_err(|e| format!("cannot rebuild pipeline from {model_path}: {e}"))?;
    let schema = pipeline.store().table().schema().clone();

    let threads = args
        .threads
        .unwrap_or_else(zeroer::stream::pipeline::available_threads);

    if let Some(base_path) = &args.base {
        let base = load(base_path)?;
        check_snapshot_schema(&schema, &base)?;
        if snapshot.bootstrap_len > 0 {
            // The snapshot carries the batch fit's cluster decisions:
            // replay them exactly instead of re-scoring the base records
            // through the streaming path.
            pipeline
                .seed_base(&base)
                .map_err(|e| format!("cannot seed base records from {base_path}: {e}"))?;
            eprintln!(
                "zeroer: pre-loaded {} base records with preserved batch decisions ({} clusters)",
                base.len(),
                pipeline.clusters().len()
            );
        } else {
            // Legacy snapshot without bootstrap decisions: the only
            // option is streaming re-scoring.
            eprintln!(
                "zeroer: warning: {model_path} predates bootstrap persistence; \
                 re-scoring base records through the streaming path"
            );
            pipeline.ingest_batch_parallel(base.records().to_vec(), threads);
            eprintln!(
                "zeroer: pre-loaded {} base records ({} clusters)",
                base.len(),
                pipeline.clusters().len()
            );
        }
    }
    let base_offset = pipeline.store().len();

    let stream = load(&args.files[0])?;
    check_snapshot_schema(&schema, &stream)?;
    let outcomes = pipeline.ingest_batch_parallel(stream.records().to_vec(), threads);
    let fresh = outcomes.iter().filter(|o| o.is_new_entity()).count();
    let text = outcomes_csv(&outcomes, &|i| pipeline.store().find_readonly(i));
    eprintln!(
        "zeroer: ingested {} records ({} new entities, {} joined existing; store {} → {} records, {} duplicate clusters)",
        stream.len(),
        fresh,
        stream.len() - fresh,
        base_offset,
        pipeline.store().len(),
        pipeline.clusters().len()
    );
    pipeline.stats().publish();
    if args.stats {
        render_stats();
    }
    emit_text(text, &args.out)
}

/// Rejects a table whose schema differs from the snapshot's — shared by
/// every snapshot-seeded path.
fn check_snapshot_schema(expected: &Schema, table: &Table) -> Result<(), String> {
    if table.schema() != expected {
        return Err(format!(
            "schema of {} does not match the snapshot ({:?} vs {:?})",
            table.name(),
            table.schema().attributes(),
            expected.attributes()
        ));
    }
    Ok(())
}

/// The `record,cluster,best_match,probability` block both ingest paths
/// emit. Cluster ids are resolved only after the whole stream is
/// ingested: a later record can merge two earlier clusters, so each
/// record's *final* representative is what consumers should group by.
fn outcomes_csv(outcomes: &[IngestOutcome], cluster_of: &dyn Fn(usize) -> usize) -> String {
    let mut text = String::from("record,cluster,best_match,probability\n");
    for out in outcomes {
        let cluster = cluster_of(out.index);
        match out.matches.first() {
            Some(&(best, p)) => {
                text.push_str(&format!("{},{cluster},{best},{p:.4}\n", out.index));
            }
            None => {
                text.push_str(&format!("{},{cluster},,\n", out.index));
            }
        }
    }
    text
}

/// stdout-or-file result emit shared by the ingest paths.
fn emit_text(text: String, out: &Option<String>) -> Result<(), String> {
    match out {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

/// The `--stats` observability block shared by every subcommand that
/// supports it. The text itself is rendered by the shared
/// [`zeroer::pipeline::render_stats`] — the same function the serve
/// admin `stats` verb answers with, so CLI and wire output are
/// byte-identical.
fn render_stats() {
    eprint!("{}", zeroer::stream::render_stats());
}

/// Rebuilds a seeded pipeline from `--model` + `--base` — the shared
/// entry of the `retract` and `compact` subcommands, which both operate
/// on the bootstrap-record store.
fn load_pipeline_with_base(args: &Args) -> Result<StreamPipeline, String> {
    let model_path = args.model.as_deref().expect("validated in parse_args");
    let base_path = args.base.as_deref().expect("validated in parse_args");
    let text = std::fs::read_to_string(model_path)
        .map_err(|e| format!("cannot read {model_path}: {e}"))?;
    let snapshot = PipelineSnapshot::from_json(&text)
        .map_err(|e| format!("cannot parse {model_path}: {e}"))?;
    if snapshot.bootstrap_len == 0 {
        return Err(format!(
            "{model_path} carries no bootstrap decisions; `{}` needs a snapshot written \
             by `zeroer dedup --save-model`",
            args.command
        ));
    }
    let mut pipeline = StreamPipeline::from_snapshot(&snapshot, args.threshold)
        .map_err(|e| format!("cannot rebuild pipeline from {model_path}: {e}"))?;
    let base = load(base_path)?;
    check_snapshot_schema(pipeline.store().table().schema(), &base)?;
    pipeline
        .seed_base(&base)
        .map_err(|e| format!("cannot seed base records from {base_path}: {e}"))?;
    Ok(pipeline)
}

/// Parses a `--ids` file: record indices, one per line; `#` comments and
/// blank lines are skipped.
fn parse_ids(path: &str) -> Result<Vec<usize>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let mut ids = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        ids.push(
            line.parse()
                .map_err(|_| format!("{path}:{}: {line:?} is not a record index", lineno + 1))?,
        );
    }
    Ok(ids)
}

/// The `retract` subcommand: withdraw base records, persist tombstones.
fn run_retract(args: &Args) -> Result<(), String> {
    let mut pipeline = load_pipeline_with_base(args)?;
    let ids_path = args.ids.as_deref().expect("validated in parse_args");
    let ids = parse_ids(ids_path)?;
    if ids.is_empty() {
        return Err(format!("no record indices found in {ids_path}"));
    }
    let reports = pipeline
        .retract_batch(&ids)
        .map_err(|e| format!("cannot retract: {e}"))?;
    let postings: usize = reports.iter().map(|r| r.postings_tombstoned).sum();
    let largest = reports.iter().map(|r| r.component_size).max().unwrap_or(0);
    eprintln!(
        "zeroer: retracted {} records ({postings} index postings tombstoned, \
         largest component rebuilt: {largest} records; epoch {})",
        reports.len(),
        pipeline.epoch()
    );
    for auto in reports.iter().filter_map(|r| r.auto_compaction) {
        eprintln!(
            "zeroer: watermark compaction reclaimed {} bytes \
             ({} postings dropped, {} buckets freed)",
            auto.bytes_reclaimed(),
            auto.index.postings_dropped,
            auto.index.buckets_freed
        );
    }
    pipeline.stats().publish();
    if args.stats {
        render_stats();
    }
    let model_path = args.model.as_deref().expect("validated in parse_args");
    let out_path = args.out.as_deref().unwrap_or(model_path);
    write_snapshot(out_path, &pipeline.snapshot().to_json())?;
    eprintln!(
        "zeroer: snapshot with {} tombstones written to {out_path}",
        pipeline.store().retracted_count()
    );
    Ok(())
}

/// Writes a model snapshot crash-safely: the JSON goes to a temporary
/// file in the target's directory, is synced to disk, and is then
/// renamed over the target, and the directory is synced so the rename
/// itself is durable. A crash or a full disk mid-write leaves the old
/// file or the new one, never a truncated model — which matters
/// because `retract`, `compact` and `refresh` overwrite `--model`.
fn write_snapshot(path: &str, json: &str) -> Result<(), String> {
    use std::io::Write as _;
    let target = std::path::Path::new(path);
    let name = target
        .file_name()
        .ok_or_else(|| format!("cannot write {path}: not a file path"))?;
    let mut tmp_name = std::ffi::OsString::from(".");
    tmp_name.push(name);
    tmp_name.push(format!(".tmp-{}", std::process::id()));
    let tmp = target.with_file_name(tmp_name);
    let dir = match target.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => std::path::Path::new("."),
    };
    let written = std::fs::File::create(&tmp).and_then(|mut f| {
        f.write_all(json.as_bytes())?;
        f.sync_all()?;
        std::fs::rename(&tmp, target)?;
        std::fs::File::open(dir)?.sync_all()
    });
    written.map_err(|e| {
        let _ = std::fs::remove_file(&tmp);
        format!("cannot write {path}: {e}")
    })
}

/// The `compact` subcommand: reclaim tombstoned index/store state.
fn run_compact(args: &Args) -> Result<(), String> {
    let mut pipeline = load_pipeline_with_base(args)?;
    let report = pipeline.compact();
    eprintln!(
        "zeroer: compaction reclaimed {} bytes ({} postings dropped, {} buckets freed, \
         {} decision edges pruned, {} derivation bytes freed; epoch {})",
        report.bytes_reclaimed(),
        report.index.postings_dropped,
        report.index.buckets_freed,
        report.store.decisions_pruned,
        report.store.derived_bytes_freed,
        report.epoch
    );
    pipeline.stats().publish();
    if args.stats {
        render_stats();
    }
    let model_path = args.model.as_deref().expect("validated in parse_args");
    let out_path = args.out.as_deref().unwrap_or(model_path);
    write_snapshot(out_path, &pipeline.snapshot().to_json())?;
    Ok(())
}

/// The `refresh` subcommand: re-fit the frozen model over the
/// snapshot's live records and write the refreshed snapshot — the
/// offline entry to the snapshot lifecycle (`admin refresh` is the
/// online one). Which flavor ran is decided by the base flags:
/// `--base` seeds a dedup snapshot, `--base-left`/`--base-right` a
/// linkage snapshot.
fn run_refresh(args: &Args) -> Result<(), String> {
    let model_path = args.model.as_deref().expect("validated in parse_args");
    let report = if args.base.is_some() {
        let mut pipeline = load_pipeline_with_base(args)?;
        let report = pipeline
            .refit()
            .map_err(|e| format!("cannot refresh {model_path}: {e}"))?;
        pipeline.stats().publish();
        if args.stats {
            render_stats();
        }
        let out_path = args.out.as_deref().unwrap_or(model_path);
        write_snapshot(out_path, &pipeline.snapshot().to_json())?;
        eprintln!("zeroer: refreshed snapshot written to {out_path}");
        report
    } else {
        let text = std::fs::read_to_string(model_path)
            .map_err(|e| format!("cannot read {model_path}: {e}"))?;
        let snapshot = LinkSnapshot::from_json(&text).map_err(|e| {
            if text.contains("zeroer-pipeline-snapshot") {
                format!(
                    "{model_path} is a dedup snapshot (from `zeroer dedup --save-model`); \
                     refreshing it takes --base <csv>, not --base-left/--base-right"
                )
            } else {
                format!("cannot parse {model_path}: {e}")
            }
        })?;
        let mut pipeline = LinkPipeline::from_snapshot(&snapshot, args.threshold)
            .map_err(|e| format!("cannot rebuild pipeline from {model_path}: {e}"))?;
        let schema = pipeline.store().table().schema().clone();
        let base_left = load(args.base_left.as_deref().expect("validated"))?;
        let base_right = load(args.base_right.as_deref().expect("validated"))?;
        check_snapshot_schema(&schema, &base_left)?;
        check_snapshot_schema(&schema, &base_right)?;
        pipeline
            .seed_base(&base_left, &base_right)
            .map_err(|e| format!("cannot seed base records: {e}"))?;
        let report = pipeline
            .refit()
            .map_err(|e| format!("cannot refresh {model_path}: {e}"))?;
        pipeline.stats().publish();
        if args.stats {
            render_stats();
        }
        let out_path = args.out.as_deref().unwrap_or(model_path);
        write_snapshot(out_path, &pipeline.snapshot().to_json())?;
        eprintln!("zeroer: refreshed linkage snapshot written to {out_path}");
        report
    };
    eprintln!(
        "zeroer: model re-fitted on {} live records ({} candidate pairs, {} EM iterations; \
         generation {})",
        report.records, report.pairs, report.em_iterations, report.generation
    );
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) if msg.is_empty() => {
            eprint!("{}", usage());
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", usage());
            ExitCode::FAILURE
        }
    }
}
