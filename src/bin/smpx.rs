//! `smpx` — command-line XML prefilter.
//!
//! ```text
//! USAGE:
//!   smpx --dtd SCHEMA.dtd (--paths P1,P2,… | --query XPATH [--query XPATH ...])
//!        [INPUT.xml | - ...] [-o OUT.xml] [--mmap] [--chunk-kb N] [--threads N]
//!        [--shard-mb N] [--add-query XPATH] [--remove-query ID]
//!        [--stats] [--stats-json PATH|-] [--metrics PATH|-]
//!
//! EXAMPLES:
//!   smpx --dtd site.dtd --query '//australia//description' big.xml -o small.xml --stats
//!   smpx --dtd site.dtd --query '//name' --query '//price' shard*.xml > union.xml
//!   smpx --dtd site.dtd --paths '/*,//name#' --mmap --threads 0 shard*.xml > all.xml
//!   cat big.xml | smpx --dtd site.dtd --paths '/*,/site/people/person/name#' > small.xml
//!   smpx --dtd site.dtd --paths '/*,//name#' head.xml - tail.xml > all.xml
//! ```
//!
//! `--query` is repeatable. With several queries the whole workload is
//! compiled into one shared multi-query automaton
//! (`smpx_core::QueryRegistry`): each document is scanned **once**, the
//! union projection is written to the output, and a per-file verdict
//! line on stderr names the queries the document matched (`q0`, `q1`, …
//! in flag order). Verdicts carry the single-query false-positive
//! contract: a flagged query may turn out to have no answers once
//! predicates are evaluated, but a query with answers is always flagged.
//!
//! Document delivery is pluggable (`smpx_core::runtime::source`): files
//! stream through the paper's chunked window by default (`--chunk-kb`
//! sizes it), `--mmap` maps them zero-copy instead, and stdin — either
//! implicitly (no inputs) or as the explicit non-seekable `-` operand
//! anywhere in the input list — always streams through a reader
//! backend, even under `--mmap`. Several inputs are prefiltered as one
//! batch through a single compiled automaton; their projected outputs are
//! concatenated in argument order.
//!
//! `--threads N` runs the batch through the work-stealing pool
//! (`smpx_core::runtime::parallel`) with `N` workers sharing the one
//! frozen automaton (`0` = the machine's available parallelism). Outputs
//! remain byte-identical and in argument order; per-file `--stats` rows
//! stay tagged with their backend, and the total row is accumulated on
//! the main thread from the ordered results, so no counter is ever
//! updated concurrently. In parallel mode each worker buffers its
//! documents' projected bytes before the ordered write-out, and at most
//! `N` inputs are open at once (sources open right before their run, as
//! in sequential mode).
//!
//! `--add-query XPATH` / `--remove-query ID` put the run in **dynamic
//! lifecycle mode** (`smpx_core::lifecycle`): the `--query` flags seed
//! generation 0 of a [`SharedPrefilter`], and the edits apply *between*
//! input files in argument order —
//!
//! ```text
//! smpx --dtd site.dtd --query '//name' a.xml \
//!      --add-query '//price' b.xml --remove-query 0 c.xml --stats
//! ```
//!
//! filters `a.xml` with `q0` alone, `b.xml` with `q0`+`q1`, and `c.xml`
//! with `q1` alone. Each edit's recompile runs on the lifecycle's
//! background compiler thread; the CLI settles (waits for the publish)
//! before the next batch so the demonstration is deterministic, and
//! `--stats` prints the generation number each batch ran on. Query ids
//! are stable across generations — a removed id keeps its slot and
//! reports unmatched; ids are never reused.
//!
//! `--stats-json PATH|-` writes the `--stats` rows (per file + total)
//! as JSON-lines; `--metrics PATH|-` (or `SMPX_METRICS`, flag wins)
//! enables the process-wide observability registry (`smpx_core::obs`)
//! and dumps one snapshot at exit — Prometheus text, or JSON-lines for
//! a `.json`/`.jsonl` path. `-` targets stderr in both cases, because
//! stdout carries the projected XML.
//!
//! A *single* large input with `--threads != 1` is sharded **within** the
//! document (`Prefilter::run_sharded`): the pool speculates from
//! top-level record boundaries and the stitched projection is
//! byte-identical to the sequential run. This engages automatically for
//! one file of at least 8 MiB; `--shard-mb N` forces it with N-MiB shards
//! (`--shard-mb 0` forces it with auto-sized shards). Stdin never shards
//! (a pipe has no known length and must stream).

use smpx::bench::json::{JsonSink, Value};
use smpx::core::obs::{self, MetricsTarget};
use smpx::core::runtime::source::{DocSource, MmapSource, ReaderSource, SourceKind};
use smpx::core::runtime::DEFAULT_CHUNK;
use smpx::core::{
    CoreError, MultiVerdict, Pool, Prefilter, QueryId, QueryRegistry, RunStats, SharedPrefilter,
    DEFAULT_AUTO_SHARD_BYTES,
};
use std::io::Write;
use std::process::ExitCode;

use smpx::dtd::Dtd;
use smpx::paths::{extract, PathSet};

struct Args {
    dtd: String,
    paths: Option<String>,
    queries: Vec<String>,
    inputs: Vec<String>,
    output: Option<String>,
    stats: bool,
    mmap: bool,
    chunk: usize,
    threads: usize,
    shard_mb: Option<usize>,
    /// `--metrics <path|->`: enable the process-wide observability
    /// registry and dump a snapshot at exit — `-` writes Prometheus text
    /// to stderr, a `.json`/`.jsonl` path the JSON-lines snapshot, any
    /// other path the Prometheus exposition. `SMPX_METRICS` is the
    /// env-var twin; the flag wins when both are present.
    metrics: Option<String>,
    /// `--stats-json <path|->`: machine-readable twin of `--stats` —
    /// the per-file and total rows as JSON-lines (appended to the path,
    /// or stderr for `-`).
    stats_json: Option<String>,
    /// Inputs and lifecycle edits in argument order. Only consulted when
    /// an `--add-query`/`--remove-query` flag put the run in lifecycle
    /// mode; plain runs keep using `inputs`.
    ops: Vec<LifeOp>,
}

/// One argument-order step of a lifecycle run: prefilter an input, or
/// edit the live query set between inputs.
enum LifeOp {
    Input(String),
    Add(String),
    Remove(u32),
}

fn usage() -> ! {
    eprintln!(
        "usage: smpx --dtd SCHEMA.dtd (--paths 'P1,P2,…' | --query XPATH [--query XPATH ...]) \
         [INPUT.xml | - ...] [-o OUT.xml] [--mmap] [--chunk-kb N] [--threads N] \
         [--shard-mb N] [--add-query XPATH] [--remove-query ID] [--stats] \
         [--stats-json PATH|-] [--metrics PATH|-]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        dtd: String::new(),
        paths: None,
        queries: Vec::new(),
        inputs: Vec::new(),
        output: None,
        stats: false,
        mmap: false,
        chunk: DEFAULT_CHUNK,
        threads: 1,
        shard_mb: None,
        metrics: None,
        stats_json: None,
        ops: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dtd" => args.dtd = it.next().unwrap_or_else(|| usage()),
            "--paths" => args.paths = Some(it.next().unwrap_or_else(|| usage())),
            "--query" => args.queries.push(it.next().unwrap_or_else(|| usage())),
            "-o" | "--output" => args.output = Some(it.next().unwrap_or_else(|| usage())),
            "--stats" => args.stats = true,
            "--stats-json" => args.stats_json = Some(it.next().unwrap_or_else(|| usage())),
            "--metrics" => args.metrics = Some(it.next().unwrap_or_else(|| usage())),
            "--mmap" => args.mmap = true,
            "--chunk-kb" => {
                let kb: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&kb| kb > 0)
                    .unwrap_or_else(|| usage());
                // KiB -> bytes can overflow usize; an absurd chunk size is
                // an operator error, not something to wrap silently.
                args.chunk = kb.checked_mul(1024).unwrap_or_else(|| usage());
            }
            "--threads" => {
                // 0 is meaningful: available parallelism.
                args.threads = it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage());
            }
            "--shard-mb" => {
                // 0 is meaningful: force sharding with auto-sized shards.
                args.shard_mb =
                    Some(it.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| usage()));
            }
            "--add-query" => {
                args.ops.push(LifeOp::Add(it.next().unwrap_or_else(|| usage())));
            }
            "--remove-query" => {
                // Accept the verdict-line spelling ("q3") as well as the
                // bare number.
                let id: u32 = it
                    .next()
                    .and_then(|v| v.trim().trim_start_matches('q').parse().ok())
                    .unwrap_or_else(|| usage());
                args.ops.push(LifeOp::Remove(id));
            }
            "-h" | "--help" => usage(),
            "-" => {
                args.inputs.push("-".to_string());
                args.ops.push(LifeOp::Input("-".to_string()));
            }
            other if !other.starts_with('-') => {
                args.inputs.push(other.to_string());
                args.ops.push(LifeOp::Input(other.to_string()));
            }
            _ => usage(),
        }
    }
    if args.dtd.is_empty() || (args.paths.is_none() && args.queries.is_empty()) {
        usage();
    }
    if args.mmap && args.inputs.iter().all(|p| p == "-") {
        eprintln!("smpx: --mmap requires file inputs (stdin cannot be mapped)");
        std::process::exit(2);
    }
    if args.inputs.iter().filter(|p| *p == "-").count() > 1 {
        eprintln!("smpx: the stdin operand '-' may appear at most once");
        std::process::exit(2);
    }
    args
}

/// Open one input through the backend the flags select. The non-seekable
/// `-` operand always takes a reader backend over stdin — `--mmap` and
/// slice paths cannot apply to a pipe, so it routes instead of erroring.
/// At most one input is open per worker at any time (sources open right
/// before their run).
fn open_source(path: &str, args: &Args) -> Result<(Box<dyn DocSource + Send>, String), CoreError> {
    let reader_tag = format!("{}/{}KiB", SourceKind::Reader, args.chunk / 1024);
    if path == "-" {
        // `Stdin` handles chunked reads itself; workers never share one.
        return Ok((Box::new(ReaderSource::new(std::io::stdin(), args.chunk)), reader_tag));
    }
    if args.mmap {
        let m = MmapSource::open(path)?;
        // Honest tag: empty and non-regular files take the read-to-Vec
        // fallback inside the mmap backend.
        let tag = if m.is_mapped() {
            SourceKind::Mmap.as_str().to_string()
        } else {
            format!("{}/read-fallback", SourceKind::Mmap)
        };
        Ok((Box::new(m), tag))
    } else {
        let f = std::fs::File::open(path)?;
        Ok((Box::new(ReaderSource::new(std::io::BufReader::new(f), args.chunk)), reader_tag))
    }
}

/// One `--stats-json` record: the machine-readable twin of a
/// `print_stats` line (same per-file and total rows, JSON-lines shape).
fn stats_json_row(sink: &mut JsonSink, label: &str, source: &str, stats: &RunStats) {
    sink.push(&[
        ("file", Value::S(label.into())),
        ("source", Value::S(source.into())),
        ("input_bytes", Value::U(stats.input_bytes)),
        ("output_bytes", Value::U(stats.output_bytes)),
        ("chars_compared", Value::U(stats.chars_compared)),
        ("bytes_scanned", Value::U(stats.bytes_scanned)),
        ("avg_shift", Value::F(stats.avg_shift())),
        ("jump_pct", Value::F(stats.initial_jumps_pct())),
        ("char_pct", Value::F(stats.char_comp_pct())),
        ("scan_pct", Value::F(stats.scanned_pct())),
        ("tokens_matched", Value::U(stats.tokens_matched)),
        ("false_matches", Value::U(stats.false_matches)),
        ("shards", Value::U(stats.shards)),
    ]);
}

fn print_stats(label: &str, source: &str, stats: &RunStats) {
    let pct = if stats.input_bytes > 0 {
        format!(
            " ({:.1}% of {} input bytes)",
            100.0 * stats.output_bytes as f64 / stats.input_bytes as f64,
            stats.input_bytes
        )
    } else {
        String::new()
    };
    eprintln!(
        "smpx: {label} [{source}]: wrote {} bytes{pct}; inspected {} chars; \
         vector-scanned {} bytes; avg shift {:.2}; initial jumps {} chars; \
         {} tokens; {} false matches",
        stats.output_bytes,
        stats.chars_compared,
        stats.bytes_scanned,
        stats.avg_shift(),
        stats.initial_jump_chars,
        stats.tokens_matched,
        stats.false_matches,
    );
}

/// Prefilter the inputs queued in `pending` as one pooled batch on the
/// *settled* generation (every preceding edit compiled and published —
/// the CLI demonstrates the edit-visible points; servers would keep
/// running on the current generation instead). Writes projections to
/// `out` in argument order, prints a per-file verdict line in stable
/// external ids, and accumulates stats rows. `Err(())` means the failure
/// was already reported.
fn lifecycle_flush(
    shared: &SharedPrefilter,
    pending: &mut Vec<String>,
    args: &Args,
    out: &mut dyn Write,
    total: &mut RunStats,
    rows: &mut usize,
    sink: &mut Option<JsonSink>,
) -> Result<(), ()> {
    if pending.is_empty() {
        return Ok(());
    }
    let generation = shared.settle().map_err(|e| eprintln!("smpx: lifecycle: {e}"))?;
    if args.stats {
        eprintln!(
            "smpx: generation {} ({} live / {} allocated queries)",
            generation.gen_no(),
            generation.live_queries(),
            generation.id_width()
        );
    }
    let mut batch: Vec<(Box<dyn DocSource + Send>, Vec<u8>)> = Vec::new();
    let mut tags: Vec<String> = Vec::new();
    let mut sizes: Vec<Option<u64>> = Vec::new();
    for p in pending.iter() {
        sizes.push(if p == "-" {
            None
        } else {
            match std::fs::metadata(p) {
                Ok(m) => m.is_file().then_some(m.len()),
                Err(e) => {
                    eprintln!("smpx: cannot read {p}: {e}");
                    return Err(());
                }
            }
        });
        let (src, tag) = open_source(p, args).map_err(|e| {
            eprintln!("smpx: cannot open {p}: {e}");
        })?;
        batch.push((src, Vec::new()));
        tags.push(tag);
    }
    match shared.run_multi_batch_parallel(batch, args.threads) {
        Ok(done) => {
            for (i, (buf, verdict, mut stats)) in done.into_iter().enumerate() {
                if stats.input_bytes == 0 {
                    stats.input_bytes = sizes[i].unwrap_or(0);
                }
                out.write_all(&buf).map_err(|e| eprintln!("smpx: {e}"))?;
                let ids: Vec<String> =
                    verdict.matched_ids().iter().map(|q| q.to_string()).collect();
                eprintln!(
                    "smpx: {}: matched {}/{} queries [{}] (generation {})",
                    pending[i],
                    ids.len(),
                    verdict.n_queries,
                    ids.join(" "),
                    generation.gen_no()
                );
                if args.stats {
                    print_stats(&pending[i], &tags[i], &stats);
                }
                if let Some(sink) = sink {
                    stats_json_row(sink, &pending[i], &tags[i], &stats);
                }
                total.accumulate(&stats);
                *rows += 1;
            }
        }
        Err(e) => {
            eprintln!("smpx: {}: {}", pending[e.index], e.error);
            return Err(());
        }
    }
    pending.clear();
    Ok(())
}

/// The dynamic-lifecycle run: seed the registry from `--query` flags,
/// then walk inputs and `--add-query`/`--remove-query` edits in argument
/// order — contiguous inputs form one pooled batch, each edit is applied
/// (and, before the next batch, compiled and published) between batches.
fn run_lifecycle(args: &Args, dtd: Dtd, query_sets: Vec<PathSet>) -> ExitCode {
    let mut reg = QueryRegistry::new(dtd);
    for q in query_sets {
        reg.add_paths(q);
    }
    let shared = match reg.compile_shared() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("smpx: compile error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.stats {
        let g = shared.generation();
        let t = g.frozen().tables();
        eprintln!(
            "smpx: lifecycle mode: {} seed queries, {} states ({} CW + {} BM)",
            g.live_queries(),
            t.state_count(),
            t.cw_states(),
            t.bm_states()
        );
    }
    let mut out: Box<dyn Write> = match &args.output {
        Some(p) => match std::fs::File::create(p) {
            Ok(f) => Box::new(std::io::BufWriter::new(f)),
            Err(e) => {
                eprintln!("smpx: cannot create {p}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Box::new(std::io::BufWriter::new(std::io::stdout())),
    };
    let mut total = RunStats::default();
    let mut rows = 0usize;
    let mut sink = args.stats_json.as_ref().map(|p| JsonSink::to_path(p.clone()));
    let mut pending: Vec<String> = Vec::new();
    for op in &args.ops {
        match op {
            LifeOp::Input(p) => pending.push(p.clone()),
            LifeOp::Add(text) => {
                if lifecycle_flush(
                    &shared,
                    &mut pending,
                    args,
                    &mut out,
                    &mut total,
                    &mut rows,
                    &mut sink,
                )
                .is_err()
                {
                    return ExitCode::FAILURE;
                }
                match shared.add_query(text) {
                    Ok(id) => eprintln!("smpx: added query {id}: {text}"),
                    Err(e) => {
                        eprintln!("smpx: --add-query {text}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            LifeOp::Remove(n) => {
                if lifecycle_flush(
                    &shared,
                    &mut pending,
                    args,
                    &mut out,
                    &mut total,
                    &mut rows,
                    &mut sink,
                )
                .is_err()
                {
                    return ExitCode::FAILURE;
                }
                match shared.remove_query(QueryId(*n)) {
                    Ok(()) => eprintln!("smpx: removed query q{n}"),
                    Err(e) => {
                        eprintln!("smpx: --remove-query {n}: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }
    if lifecycle_flush(&shared, &mut pending, args, &mut out, &mut total, &mut rows, &mut sink)
        .is_err()
    {
        return ExitCode::FAILURE;
    }
    // Trailing edits with no input after them still compile — surface
    // their errors rather than dropping them at exit.
    let last = match shared.settle() {
        Ok(g) => g,
        Err(e) => {
            eprintln!("smpx: lifecycle: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = out.flush() {
        eprintln!("smpx: {e}");
        return ExitCode::FAILURE;
    }
    if args.stats {
        if rows > 1 {
            print_stats("total", "lifecycle", &total);
        }
        eprintln!(
            "smpx: final generation {} ({} live / {} allocated queries)",
            last.gen_no(),
            last.live_queries(),
            last.id_width()
        );
    }
    if let Some(sink) = &mut sink {
        if rows > 1 {
            stats_json_row(sink, "total", "lifecycle", &total);
        }
        if let Err(e) = sink.flush() {
            eprintln!("smpx: --stats-json: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// `--metrics` beats `SMPX_METRICS`; a flag value that names no
/// destination is a usage error (the env path merely warns, because env
/// vars travel further from the invocation than flags do).
fn resolve_metrics(args: &Args) -> MetricsTarget {
    match &args.metrics {
        Some(v) => match obs::parse_metrics_value(v) {
            Ok(t) => t,
            Err(()) => {
                eprintln!(
                    "smpx: --metrics {v:?} names no destination; \
                     use a file path or `-` for stderr"
                );
                std::process::exit(2);
            }
        },
        None => obs::metrics_target_from_env(),
    }
}

fn main() -> ExitCode {
    let args = parse_args();
    let metrics = resolve_metrics(&args);
    if !matches!(metrics, MetricsTarget::Disabled) {
        obs::enable();
    }
    let code = run(args);
    // The snapshot covers the whole run, success or failure — a failed
    // run's counters are exactly what a postmortem wants.
    if let Err(e) = obs::emit(&metrics) {
        eprintln!("smpx: cannot write metrics snapshot: {e}");
        return ExitCode::FAILURE;
    }
    code
}

fn run(args: Args) -> ExitCode {
    let dtd_text = match std::fs::read(&args.dtd) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("smpx: cannot read DTD {}: {e}", args.dtd);
            return ExitCode::FAILURE;
        }
    };
    let dtd = match Dtd::parse(&dtd_text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("smpx: DTD error: {e}");
            return ExitCode::FAILURE;
        }
    };

    // Per-query path sets (`--query`, repeatable). One query compiles the
    // classic single-query automaton; several compile one shared
    // multi-query automaton whose verdicts attribute each document to the
    // queries it matches.
    let mut query_sets: Vec<PathSet> = Vec::with_capacity(args.queries.len());
    for q in &args.queries {
        match extract::extract_from_text(q) {
            Ok(p) => query_sets.push(p),
            Err(e) => {
                eprintln!("smpx: query {q}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    // Any --add-query/--remove-query flag makes the run *dynamic*: the
    // --query workload seeds generation 0 of a lifecycle handle, and the
    // edits apply between input files in argument order.
    if args.ops.iter().any(|op| !matches!(op, LifeOp::Input(_))) {
        if args.paths.is_some() || query_sets.is_empty() {
            eprintln!(
                "smpx: --add-query/--remove-query need a --query seed workload \
                 (--paths has no query ids to edit)"
            );
            std::process::exit(2);
        }
        return run_lifecycle(&args, dtd, query_sets);
    }

    let multi = query_sets.len() > 1;

    let paths: PathSet = if multi {
        // Union for display and state accounting; the compiled automaton
        // additionally carries per-query attribution.
        query_sets.iter().fold(PathSet::new(vec![]), |u, q| u.union(q))
    } else if let Some(p) = query_sets.pop() {
        p
    } else {
        let texts: Vec<&str> = args.paths.as_deref().unwrap_or("").split(',').collect();
        match PathSet::parse(&texts) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("smpx: path error: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    // A `--paths` or single-`--query` run is a one-query workload for the
    // total-row accounting.
    let query_count = if multi { query_sets.len() } else { 1 };

    let compiled = if multi {
        Prefilter::compile_multi(&dtd, &query_sets)
    } else {
        Prefilter::compile(&dtd, &paths)
    };
    let mut pf = match compiled {
        Ok(p) => p,
        Err(e) => {
            eprintln!("smpx: compile error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.stats {
        let t = pf.tables();
        eprintln!(
            "smpx: projection paths: {paths}\nsmpx: {} states ({} CW + {} BM)",
            t.state_count(),
            t.cw_states(),
            t.bm_states()
        );
        if multi {
            eprintln!("smpx: {} registered queries on one shared automaton", query_sets.len());
        }
    }

    // One output writer; inputs concatenate into it in order.
    let mut out: Box<dyn Write> = match &args.output {
        Some(p) => match std::fs::File::create(p) {
            Ok(f) => Box::new(std::io::BufWriter::new(f)),
            Err(e) => {
                eprintln!("smpx: cannot create {p}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => Box::new(std::io::BufWriter::new(std::io::stdout())),
    };

    // Validate every input up front (early, well-labeled failure before
    // any output is written), remembering the known file lengths so
    // reader-delivered stats — whose sources cannot know their length up
    // front — still report percentages. The `-` operand is stdin: no
    // metadata, no length.
    let mut sizes: Vec<Option<u64>> = Vec::new();
    for p in &args.inputs {
        if p == "-" {
            sizes.push(None);
            continue;
        }
        match std::fs::metadata(p) {
            Ok(m) => sizes.push(m.is_file().then_some(m.len())),
            Err(e) => {
                eprintln!("smpx: cannot read {p}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    let mut results: Vec<(String, String, RunStats, Option<MultiVerdict>)> = Vec::new();
    if args.inputs.is_empty() {
        // Pure pipe mode: prefilter stdin through the streaming window.
        let (src, tag) = match open_source("-", &args) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("smpx: <stdin>: {e}");
                return ExitCode::FAILURE;
            }
        };
        let run = if multi {
            pf.run_multi(src, &mut out).map(|(_, v, s)| (s, Some(v)))
        } else {
            pf.filter_source(src, &mut out).map(|s| (s, None))
        };
        match run {
            Ok((stats, verdict)) => results.push(("<stdin>".into(), tag, stats, verdict)),
            Err(e) => {
                eprintln!("smpx: <stdin>: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if args.inputs.len() == 1
        && args.inputs[0] != "-"
        && (args.shard_mb.is_some()
            || (args.threads != 1 && sizes[0].is_some_and(|l| l >= DEFAULT_AUTO_SHARD_BYTES)))
    {
        // One file, many workers: shard *within* the document. Explicit
        // `--shard-mb` always routes here (0 = auto-sized shards); without
        // it the route engages only for a large file in pool mode. The
        // stitched projection, verdict, and token counters are
        // byte-identical to the sequential run; a document with no safe
        // split point falls back to one sequential pass (shards stays 0).
        let p = args.inputs[0].clone();
        let (src, tag) = match open_source(&p, &args) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("smpx: cannot open {p}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let shard_bytes = args.shard_mb.unwrap_or(0).saturating_mul(1 << 20);
        let run = if multi {
            pf.run_sharded_multi(src, &mut out, args.threads, shard_bytes)
                .map(|(_, v, s)| (s, Some(v)))
        } else {
            pf.run_sharded(src, &mut out, args.threads, shard_bytes).map(|(_, s)| (s, None))
        };
        match run {
            Ok((mut stats, verdict)) => {
                if stats.input_bytes == 0 {
                    stats.input_bytes = sizes[0].unwrap_or(0);
                }
                if args.stats {
                    // Honest effective width: the pool clamps to the
                    // machine, and an unsplittable document reports 0
                    // stitched segments rather than a fictional split.
                    let width = Pool::new(args.threads).threads();
                    if stats.shards > 0 {
                        eprintln!(
                            "smpx: {p}: stitched {} shard segments over {width} pool \
                             worker{}",
                            stats.shards,
                            if width == 1 { "" } else { "s" }
                        );
                    } else {
                        eprintln!("smpx: {p}: no safe split, ran as one sequential pass");
                    }
                }
                results.push((p, tag, stats, verdict));
            }
            Err(e) => {
                eprintln!("smpx: {p}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if args.threads == 1 {
        // Sequential batch through the one compiled automaton, opening
        // each document's source right before its run — at most one fd or
        // mapping is ever open, so many-thousand-file batches stay under
        // any ulimit.
        for (p, size) in args.inputs.iter().zip(&sizes) {
            let src = match open_source(p, &args) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("smpx: cannot open {p}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let (src, tag) = src;
            let run = if multi {
                pf.run_multi(src, &mut out).map(|(_, v, s)| (s, Some(v)))
            } else {
                pf.filter_source(src, &mut out).map(|s| (s, None))
            };
            match run {
                Ok((mut stats, verdict)) => {
                    if stats.input_bytes == 0 {
                        stats.input_bytes = size.unwrap_or(0);
                    }
                    results.push((p.clone(), tag, stats, verdict));
                }
                Err(e) => {
                    // Name the failing input: with a long batch the output
                    // already contains every earlier projection.
                    eprintln!("smpx: {p}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
    } else {
        // Parallel batch: the frozen automaton is shared read-only across
        // the pool's workers; each task opens its source inside the
        // worker (at most `threads` inputs open at once) and buffers its
        // projected bytes, which the main thread then writes out in
        // argument order. The first failing input cancels the batch —
        // in-flight documents drain, queued ones are abandoned, and the
        // failing input is named below. Nothing has been written to `out`
        // at that point: all writing happens after a fully successful run.
        let frozen = pf.freeze();
        let pool = Pool::new(args.threads);
        let tasks: Vec<(String, Option<u64>)> =
            args.inputs.iter().cloned().zip(sizes.iter().copied()).collect();
        let run = pool.run(
            tasks,
            |_| frozen.worker(),
            |wpf, (path, size)| -> Result<_, CoreError> {
                let (src, tag) = open_source(&path, &args)?;
                let mut buf = Vec::new();
                let (mut stats, verdict) = if multi {
                    let (_, v, s) = wpf.run_multi(src, &mut buf)?;
                    (s, Some(v))
                } else {
                    (wpf.filter_source(src, &mut buf)?, None)
                };
                if stats.input_bytes == 0 {
                    stats.input_bytes = size.unwrap_or(0);
                }
                Ok((path, tag, buf, stats, verdict))
            },
        );
        match run {
            Ok(ordered) => {
                for (path, tag, buf, stats, verdict) in ordered {
                    if let Err(e) = out.write_all(&buf) {
                        eprintln!("smpx: {e}");
                        return ExitCode::FAILURE;
                    }
                    results.push((path, tag, stats, verdict));
                }
            }
            Err((index, e)) => {
                eprintln!("smpx: {}: {e}", args.inputs[index]);
                return ExitCode::FAILURE;
            }
        }
        if args.stats {
            // Pool::run clamps its width to the task count; report the
            // workers that actually existed, not just the configuration.
            eprintln!(
                "smpx: batch of {} inputs over {} pool workers",
                args.inputs.len(),
                pool.threads().min(args.inputs.len())
            );
        }
    }
    if let Err(e) = out.flush() {
        eprintln!("smpx: {e}");
        return ExitCode::FAILURE;
    }

    // Per-file verdict column (multi-query mode): which registered
    // queries each document matched, in input order. Stderr like the
    // stats rows, so piped projection output stays clean.
    if multi {
        for (label, _, _, verdict) in &results {
            if let Some(v) = verdict {
                let ids: Vec<String> = v.matched_ids().iter().map(|q| q.to_string()).collect();
                eprintln!(
                    "smpx: {label}: matched {}/{} queries [{}]",
                    ids.len(),
                    v.n_queries,
                    ids.join(" ")
                );
            }
        }
    }

    if args.stats {
        // Totals accumulate on this thread from the input-ordered rows —
        // per-file attribution and the sums are identical whatever the
        // completion order was.
        let mut total = RunStats::default();
        for (label, tag, stats, _) in &results {
            print_stats(label, tag, stats);
            total.accumulate(stats);
        }
        if results.len() > 1 {
            // The total's tag comes from the rows themselves: a `-`
            // operand inside an `--mmap` batch makes delivery mixed, and
            // the total row must say so rather than claim one backend.
            let first = results[0].1.as_str();
            let tag = if results.iter().all(|(_, t, _, _)| t == first) {
                first.to_string()
            } else {
                "mixed".to_string()
            };
            print_stats("total", &tag, &total);
            // The workload size belongs on the total row: one shared pass
            // answered this many queries per document.
            eprintln!(
                "smpx: total: {} quer{} per document in one pass",
                query_count,
                if query_count == 1 { "y" } else { "ies" }
            );
        }
    }

    // Machine-readable twin of the `--stats` rows: one JSON object per
    // input plus a total row, same fields, same tag semantics.
    if let Some(path) = &args.stats_json {
        let mut sink = JsonSink::to_path(path.clone());
        let mut total = RunStats::default();
        for (label, tag, stats, _) in &results {
            stats_json_row(&mut sink, label, tag, stats);
            total.accumulate(stats);
        }
        if results.len() > 1 {
            let first = results[0].1.as_str();
            let tag = if results.iter().all(|(_, t, _, _)| t == first) {
                first.to_string()
            } else {
                "mixed".to_string()
            };
            stats_json_row(&mut sink, "total", &tag, &total);
        }
        if let Err(e) = sink.flush() {
            eprintln!("smpx: --stats-json: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}
