//! The `zeroer` command-line tool: unsupervised entity resolution over
//! CSV files.
//!
//! ```text
//! zeroer match <left.csv> <right.csv> [--threshold 0.5] [--overlap N]
//!              [--block-on ATTR] [--kappa K] [--no-transitivity] [--out pairs.csv]
//! zeroer link  <left.csv> <right.csv> --save-model link.json [same flags]
//! zeroer dedup <table.csv>          [same flags] [--save-model snap.json]
//! zeroer ingest <stream.csv>        --model snap.json [BASE] [--side left|right]
//!                                   [--threads N] [--threshold 0.5] [--out assign.csv]
//! zeroer retract --ids <file>       --model snap.json BASE [--out snap.json]
//! zeroer compact                    --model snap.json BASE [--out snap.json]
//! zeroer refresh                    --model snap.json BASE [--out snap.json]
//! zeroer serve                      --model snap.json [BASE]
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
//! JSON snapshot, and `link` (the record-linkage counterpart) freezes
//! the three-model linkage fit. The snapshot commands — `ingest`,
//! `retract`, `compact`, `refresh` and `serve` — read the kind from the
//! snapshot and run one body for both. BASE replays the persisted batch
//! decisions onto the bootstrap tables: `--base <csv>` for a dedup
//! snapshot, `--base-left <csv> --base-right <csv>` for a linkage one.
//!
//! `ingest` streams new records against the snapshot — no EM at ingest
//! time — emitting one line per record:
//! `record,cluster,best_match,probability` (empty match fields for fresh
//! entities). Against a linkage snapshot it takes `--side left|right`:
//! each record blocks only against the *opposite* side's index and is
//! scored with the frozen cross model.
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
//! `refresh` re-fits the model over the snapshot's live records.

use std::process::ExitCode;
use zeroer::core::ZeroErConfig;
use zeroer::pipeline::{
    dedup_table, dedup_table_with_snapshot, match_tables, match_tables_with_snapshot,
    IngestOutcome, MatchOptions, PipelineSnapshot, Side, SnapshotModel,
};
use zeroer::stream::{Dedup, Linkage, Pipeline, Topology};
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
    /// The base-table paths, indexed like [`BASE_FLAGS`].
    bases: [Option<String>; 3],
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

/// The base-table flags, each with the bootstrap table it names (see
/// [`Topology::TABLES`]): a dedup snapshot takes `--base`, a linkage
/// snapshot `--base-left` and `--base-right`.
const BASE_FLAGS: [(&str, &str); 3] = [
    ("--base", "base"),
    ("--base-left", "left"),
    ("--base-right", "right"),
];

const BATCH: &[&str] = &["match", "link", "dedup"];
const SNAPSHOT: &[&str] = &["ingest", "retract", "compact", "refresh", "serve"];
const GEN: &[&str] = &["gen"];

/// The commands each flag applies to; flags not listed (`--metrics`)
/// apply to every command. Parsing rejects a flag given to any other
/// command, and the error names the commands listed here.
const FLAG_SCOPES: &[(&str, &[&str])] = &[
    (
        "--threshold",
        &[
            "match", "link", "dedup", "ingest", "retract", "compact", "refresh", "serve",
        ],
    ),
    ("--overlap", BATCH),
    ("--block-on", BATCH),
    ("--kappa", BATCH),
    ("--no-transitivity", BATCH),
    (
        "--out",
        &[
            "match", "link", "dedup", "ingest", "retract", "compact", "refresh", "gen",
        ],
    ),
    ("--save-model", &["dedup", "link"]),
    ("--model", SNAPSHOT),
    ("--base", SNAPSHOT),
    ("--base-left", SNAPSHOT),
    ("--base-right", SNAPSHOT),
    ("--side", &["ingest"]),
    ("--threads", &["ingest", "serve"]),
    ("--ids", &["retract"]),
    ("--addr", &["serve"]),
    (
        "--stats",
        &[
            "dedup", "link", "ingest", "retract", "compact", "refresh", "serve",
        ],
    ),
    ("--scale", GEN),
    ("--seed", GEN),
    ("--dup-rate", GEN),
    ("--linkage", GEN),
];

/// "`a`, `b` and `c`".
fn and_list(items: &[&str]) -> String {
    let quoted: Vec<String> = items.iter().map(|i| format!("`{i}`")).collect();
    match quoted.split_last() {
        Some((last, [])) => last.clone(),
        Some((last, rest)) => format!("{} and {last}", rest.join(", ")),
        None => String::new(),
    }
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
       zeroer ingest <stream.csv> --model <snap.json> [BASE] [--side left|right] [flags]\n\
                                                     stream records against a frozen model\n\
                                                     (--side for a linkage snapshot)\n\
       zeroer retract --ids <file> --model <snap.json> BASE [flags]\n\
                                                     withdraw base records (indices, one per\n\
                                                     line); tombstones persist in the snapshot\n\
       zeroer compact --model <snap.json> BASE [flags]\n\
                                                     drop tombstoned index state, report the\n\
                                                     reclaimed bytes\n\
       zeroer refresh --model <snap.json> BASE [flags]\n\
                                                     re-fit the model over the snapshot's live\n\
                                                     records and write the refreshed snapshot\n\
       zeroer serve --model <snap.json> [BASE] [--addr <host:port>] [flags]\n\
                                                     serve resolve/ingest/admin requests over\n\
                                                     TCP until an admin shutdown arrives\n\
       zeroer gen --out <dir> [--scale <s>] [--seed <n>] [--dup-rate <r>] [--linkage]\n\
                                                     synthesize a seeded corpus with exact\n\
                                                     ground truth: corpus.csv + truth.csv\n\
                                                     (or left/right/truth.csv with --linkage)\n\
     \n\
       BASE is --base <csv> for a dedup snapshot (from `dedup --save-model`) or\n\
       --base-left <csv> --base-right <csv> for a linkage snapshot (from `link`):\n\
       the bootstrap tables, whose batch decisions are replayed from the snapshot.\n\
     \n\
     FLAGS:\n\
       --threshold <p>     (all but gen) posterior cut-off for a match (default 0.5)\n\
       --overlap <n>       (match, link, dedup) blocking overlap floor, at least 1:\n\
                           a candidate pair needs max(n, 2) shared blocking keys;\n\
                           at 1 (default) title tokens and 4-grams count\n\
                           together, at n >= 2 only title tokens count\n\
       --block-on <attr>   (match, link, dedup) attribute name to block on\n\
                           (default: first column)\n\
       --kappa <k>         (match, link, dedup) regularization strength (default\n\
                           0.15, the paper's)\n\
       --no-transitivity   (match, link, dedup) disable the transitivity soft\n\
                           constraint\n\
       --out <file>        (all but serve) write results to a file instead of stdout;\n\
                           retract, compact and refresh write the snapshot there\n\
                           instead of over --model; gen writes into this directory\n\
       --save-model <file> (dedup, link) freeze the fitted model(s) to a JSON snapshot\n\
       --model <file>      (ingest, retract, compact, refresh, serve) snapshot\n\
                           produced by --save-model\n\
       --base <csv>        (ingest, retract, compact, refresh, serve) the bootstrap\n\
                           table of a dedup snapshot\n\
       --base-left <csv>   (ingest, retract, compact, refresh, serve) the left\n\
                           bootstrap table of a linkage snapshot\n\
       --base-right <csv>  (ingest, retract, compact, refresh, serve) the right\n\
                           bootstrap table of a linkage snapshot\n\
       --side <l|r>        (ingest) which table the streamed records belong to;\n\
                           requires a linkage snapshot from `zeroer link`\n\
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
       --stats             (dedup, link, ingest, retract, compact, refresh, serve)\n\
                           print derivation/blocking observability to stderr: tokens\n\
                           interned, live/retired buckets and live/dead postings per\n\
                           leg, candidate pairs, live/retracted records, epoch\n\
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
        bases: Default::default(),
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
    // The scoped flags given, checked once the command is known.
    let mut scoped: Vec<(&str, &[&str])> = Vec::new();
    let mut it = argv.iter().peekable();
    let take_value = |it: &mut std::iter::Peekable<std::slice::Iter<String>>,
                      flag: &str|
     -> Result<String, String> {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} requires a value"))
    };
    while let Some(a) = it.next() {
        if let Some(&scope) = FLAG_SCOPES.iter().find(|(flag, _)| flag == a) {
            scoped.push(scope);
        }
        match a.as_str() {
            "--threshold" => {
                args.threshold = take_value(&mut it, "--threshold")?
                    .parse()
                    .map_err(|_| "--threshold must be a number".to_string())?;
            }
            "--overlap" => {
                args.overlap = take_value(&mut it, "--overlap")?
                    .parse()
                    .map_err(|_| "--overlap must be an integer".to_string())?;
                if args.overlap == 0 {
                    return Err("--overlap must be at least 1".into());
                }
            }
            "--block-on" => args.block_on = Some(take_value(&mut it, "--block-on")?),
            "--kappa" => {
                args.kappa = take_value(&mut it, "--kappa")?
                    .parse()
                    .map_err(|_| "--kappa must be a number".to_string())?;
            }
            "--no-transitivity" => args.transitivity = false,
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
            flag @ ("--base" | "--base-left" | "--base-right") => {
                let i = BASE_FLAGS
                    .iter()
                    .position(|&(f, _)| f == flag)
                    .expect("a base flag");
                args.bases[i] = Some(take_value(&mut it, flag)?);
            }
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
                args.scale = take_value(&mut it, "--scale")?
                    .parse()
                    .map_err(|_| "--scale must be a number".to_string())?;
            }
            "--seed" => {
                args.seed = take_value(&mut it, "--seed")?
                    .parse()
                    .map_err(|_| "--seed must be a non-negative integer".to_string())?;
            }
            "--dup-rate" => {
                args.dup_rate = take_value(&mut it, "--dup-rate")?
                    .parse()
                    .map_err(|_| "--dup-rate must be a number".to_string())?;
            }
            "--linkage" => args.linkage = true,
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
    let command = args.command.as_str();
    if let Some((flag, commands)) = scoped.iter().find(|(_, cmds)| !cmds.contains(&command)) {
        let noun = if commands.len() == 1 {
            "command"
        } else {
            "commands"
        };
        return Err(format!(
            "{flag} is only supported by the {} {noun}",
            and_list(commands)
        ));
    }
    let need_model = |args: &Args| -> Result<(), String> {
        if args.model.is_none() {
            return Err(format!("`{command}` requires --model <snapshot.json>"));
        }
        Ok(())
    };
    let has_base = args.bases.iter().any(Option::is_some);
    match (command, args.files.len()) {
        ("match", 2) | ("dedup", 1) => Ok(args),
        ("gen", 0) => {
            if args.out.is_none() {
                return Err("`gen` requires --out <dir> (the corpus output directory)".into());
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
        ("ingest", 1) | ("serve", 0) => {
            need_model(&args)?;
            let side_bases = ["left", "right"].map(|table| &args.bases[base_flag(table)]);
            if args.side.is_some() && side_bases.iter().any(|base| base.is_none()) {
                return Err(
                    "`ingest --side` requires --base-left <csv> and --base-right <csv> (the \
                     bootstrap tables the linkage snapshot was fitted on)"
                        .into(),
                );
            }
            Ok(args)
        }
        ("retract", 0) | ("compact", 0) | ("refresh", 0) => {
            need_model(&args)?;
            if command == "retract" && args.ids.is_none() {
                return Err(
                    "`retract` requires --ids <file> (record indices, one per line)".into(),
                );
            }
            if !has_base {
                return Err(format!(
                    "`{command}` requires --base <csv> (dedup snapshot) or --base-left <csv> \
                     --base-right <csv> (linkage snapshot): the bootstrap records the \
                     snapshot indices refer to"
                ));
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
            "`{command}` takes no positional files (got {n}); the store is rebuilt from \
             --model and the base tables"
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
        _ => return run_snapshot_command(args),
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
    report_stats(args, &pipeline);
    rows.sort_by(|a, b| b.2.partial_cmp(&a.2).expect("finite probabilities"));
    emit(&rows, &args.out)
}

/// The snapshot commands — `ingest`, `retract`, `compact`, `refresh`
/// and `serve`: read the snapshot, then run the command's one body for
/// the snapshot's kind.
fn run_snapshot_command(args: &Args) -> Result<(), String> {
    let path = args.model.as_deref().expect("validated in parse_args");
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let snap =
        PipelineSnapshot::from_json(&text).map_err(|e| format!("cannot parse {path}: {e}"))?;
    match snap.model {
        SnapshotModel::Dedup(_) => run_on::<Dedup>(args, path, &snap),
        SnapshotModel::Linkage(_) => run_on::<Linkage>(args, path, &snap),
    }
}

/// The index in [`BASE_FLAGS`] of the flag naming bootstrap table `name`.
fn base_flag(name: &str) -> usize {
    BASE_FLAGS
        .iter()
        .position(|&(_, table)| table == name)
        .expect("every bootstrap table has a base flag")
}

/// Rejects base and side flags that do not fit a `T` snapshot, naming
/// the flags it takes.
fn check_kind<T: Topology>(args: &Args, path: &str) -> Result<(), String> {
    let takes: Vec<usize> = T::TABLES.iter().map(|&(name, _)| base_flag(name)).collect();
    let given: Vec<usize> = (0..BASE_FLAGS.len())
        .filter(|&i| args.bases[i].is_some())
        .collect();
    let ingest = args.command == "ingest";
    let bases_fit = given.is_empty() || given == takes;
    if bases_fit && (!ingest || T::tag(args.side).is_ok()) {
        return Ok(());
    }
    let mut needs: Vec<&str> = takes.iter().map(|&i| BASE_FLAGS[i].0).collect();
    if ingest && T::tag(None).is_err() {
        needs.push("--side left|right");
    }
    let mut got: Vec<&str> = given.iter().map(|&i| BASE_FLAGS[i].0).collect();
    if args.side.is_some() && T::tag(args.side).is_err() {
        got.insert(0, "--side");
    }
    Err(format!(
        "{path} is a {} snapshot: `{}` takes {}; got {}",
        T::KIND,
        args.command,
        and_list(&needs),
        if got.is_empty() {
            "none".into()
        } else {
            and_list(&got)
        }
    ))
}

/// Restores a `T` pipeline from `snap`, seeds it with the base tables
/// given, and runs the command on it.
fn run_on<T: Topology>(args: &Args, path: &str, snap: &PipelineSnapshot) -> Result<(), String> {
    check_kind::<T>(args, path)?;
    let mut pipeline = Pipeline::<T>::from_snapshot(snap, args.threshold)
        .map_err(|e| format!("cannot rebuild pipeline from {path}: {e}"))?;
    let schema = pipeline.store().table().schema().clone();
    let threads = args
        .threads
        .unwrap_or_else(zeroer::stream::pipeline::available_threads);
    let mut bases = Vec::new();
    for &(name, _) in T::TABLES {
        if let Some(base) = args.bases[base_flag(name)].as_deref() {
            let table = load(base)?;
            check_snapshot_schema(&schema, &table)?;
            bases.push(table);
        }
    }
    if !bases.is_empty() {
        let records: usize = bases.iter().map(Table::len).sum();
        if snap.bootstrap_len() > 0 {
            // The snapshot carries the batch fit's cluster decisions:
            // replay them exactly instead of re-scoring the base records
            // through the streaming path.
            pipeline
                .seed(&bases.iter().collect::<Vec<_>>())
                .map_err(|e| format!("cannot seed base records: {e}"))?;
            eprintln!(
                "zeroer: pre-loaded {records} base records with preserved batch decisions \
                 ({} clusters)",
                pipeline.clusters().len()
            );
        } else if matches!(args.command.as_str(), "ingest" | "serve") {
            // Legacy snapshot without bootstrap decisions: the only
            // option is streaming re-scoring.
            eprintln!(
                "zeroer: warning: {path} predates bootstrap persistence; re-scoring base \
                 records through the streaming path"
            );
            for (table, &(_, tag)) in bases.iter().zip(T::TABLES) {
                pipeline.ingest_tagged(table.records().to_vec(), tag, threads);
            }
            eprintln!(
                "zeroer: pre-loaded {records} base records ({} clusters)",
                pipeline.clusters().len()
            );
        } else {
            return Err(format!(
                "{path} carries no bootstrap decisions; `{}` needs a snapshot written by \
                 `zeroer dedup --save-model` or `zeroer link`",
                args.command
            ));
        }
    }
    match args.command.as_str() {
        "ingest" => ingest(args, pipeline, threads),
        "retract" => retract(args, path, pipeline),
        "compact" => compact(args, path, pipeline),
        "refresh" => refresh(args, path, pipeline),
        "serve" => serve(args, pipeline, threads),
        _ => unreachable!("validated in parse_args"),
    }
}

/// The `ingest` subcommand: stream records against the snapshot.
fn ingest<T: Topology>(
    args: &Args,
    mut pipeline: Pipeline<T>,
    threads: usize,
) -> Result<(), String> {
    let tag = T::tag(args.side).expect("checked against the snapshot kind");
    let base_offset = pipeline.len();
    let stream = load(&args.files[0])?;
    check_snapshot_schema(pipeline.store().table().schema(), &stream)?;
    let outcomes = pipeline.ingest_tagged(stream.records().to_vec(), tag, threads);
    let fresh = outcomes.iter().filter(|o| o.is_new_entity()).count();
    let text = outcomes_csv(&outcomes, &|i| pipeline.store().find_readonly(i));
    eprintln!(
        "zeroer: ingested {} records ({} new entities, {} joined existing; store {} → {} \
         records, {} clusters)",
        stream.len(),
        fresh,
        stream.len() - fresh,
        base_offset,
        pipeline.len(),
        pipeline.clusters().len()
    );
    report_stats(args, &pipeline);
    emit_text(text, &args.out)
}

/// The `serve` subcommand: split the pipeline into read/write paths and
/// answer resolve/ingest/admin requests over TCP until an admin
/// `shutdown` arrives.
fn serve<T: Topology>(args: &Args, pipeline: Pipeline<T>, threads: usize) -> Result<(), String> {
    let addr = args.addr.as_deref().unwrap_or("127.0.0.1:0");
    let server = zeroer::serve::Server::bind(pipeline, addr, threads)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    eprintln!("zeroer: serving on {}", server.local_addr());
    let pipeline = server.run();
    eprintln!(
        "zeroer: server drained ({} records, {} clusters)",
        pipeline.len(),
        pipeline.clusters().len()
    );
    report_stats(args, &pipeline);
    Ok(())
}

/// The `retract` subcommand: withdraw base records, persist tombstones.
fn retract<T: Topology>(args: &Args, path: &str, mut pipeline: Pipeline<T>) -> Result<(), String> {
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
    report_stats(args, &pipeline);
    let out_path = save(args, path, &pipeline)?;
    eprintln!(
        "zeroer: snapshot with {} tombstones written to {out_path}",
        pipeline.store().retracted_count()
    );
    Ok(())
}

/// The `compact` subcommand: reclaim tombstoned index/store state.
fn compact<T: Topology>(args: &Args, path: &str, mut pipeline: Pipeline<T>) -> Result<(), String> {
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
    report_stats(args, &pipeline);
    save(args, path, &pipeline)?;
    Ok(())
}

/// The `refresh` subcommand: re-fit the frozen model over the
/// snapshot's live records and write the refreshed snapshot — the
/// offline entry to the snapshot lifecycle (`admin refresh` is the
/// online one).
fn refresh<T: Topology>(args: &Args, path: &str, mut pipeline: Pipeline<T>) -> Result<(), String> {
    let report = pipeline
        .refit()
        .map_err(|e| format!("cannot refresh {path}: {e}"))?;
    report_stats(args, &pipeline);
    let out_path = save(args, path, &pipeline)?;
    eprintln!("zeroer: refreshed snapshot written to {out_path}");
    eprintln!(
        "zeroer: model re-fitted on {} live records ({} candidate pairs, {} EM iterations; \
         generation {})",
        report.records, report.pairs, report.em_iterations, report.generation
    );
    Ok(())
}

/// Publishes the pipeline's gauges (so `--metrics` sees them) and prints
/// the `--stats` block when asked.
fn report_stats<T: Topology>(args: &Args, pipeline: &Pipeline<T>) {
    pipeline.stats().publish();
    if args.stats {
        render_stats();
    }
}

/// Writes the pipeline's snapshot to `--out`, or back over `--model`;
/// returns the path written.
fn save<'a, T: Topology>(
    args: &'a Args,
    model_path: &'a str,
    pipeline: &Pipeline<T>,
) -> Result<&'a str, String> {
    let out_path = args.out.as_deref().unwrap_or(model_path);
    write_snapshot(out_path, &pipeline.snapshot().to_json())?;
    Ok(out_path)
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
