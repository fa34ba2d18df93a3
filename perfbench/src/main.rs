//! `smpx_perfbench`: one seeded benchmark for smpx.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <xmark-stream|pubsub-live> \
//!     --seed <n> --seconds <s> --trace <0|1> [--corrupt-output]
//! ```
//!
//! Each run generates its inputs from `--seed`, sets the workload up
//! several times (`setup_s` is the median), warms it, and runs it as a
//! closed loop with one client for `--seconds`. With `--trace 0` it prints
//! the end-to-end metrics; with `--trace 1` it runs the loop untraced and
//! then traced (with the `obs` registry on), probes every layer with
//! spans, and prints the per-layer metrics. Every output is checked
//! against an oracle. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed`, `metrics`. A record with the
//! host, inputs and sample summaries goes to `.bench_data/results/`, and
//! the spans of a traced run to `.bench_data/trace-*.json`.
//!
//! `--corrupt-output` is the oracle's self-test: it flips a byte in every
//! fourth output before the check, so `error_rate` must come out non-zero.

mod inputs;
mod json;
mod layers;
mod pubsub;
mod stats;
mod sys;
mod trace;
mod xmark;

use json::Json;
use stats::{median, quartiles, Tally};
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// A seed that no development run used, kept for confirming claims.
pub const HELD_OUT_SEED: u64 = 20_080_407;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS_XMARK: usize = 31;
const SETUP_REPS_PUBSUB: usize = 9;

/// The percentile of the per-cycle figures that `throughput_mib_s` and
/// `cpu_s_per_gib` report, from the slow side: the level that nine in ten
/// cycles reach. Other tenants of a shared host slow a run by up to 1.7x
/// in spells of seconds, and the share of slow spells differs from run to
/// run; the slow level itself holds steady, where the mean and the median
/// move with that share.
const CYCLE_PERCENTILE: f64 = 90.0;

/// Share of `--seconds` given to each loop of a traced run (untraced,
/// then traced); the layer probes take the rest.
const TRACE_LOOP_SHARE: f64 = 0.3;

/// The end-to-end metrics a `--trace 0` run prints: name, unit, which
/// way is better, and the bound (the share of the parent's median by
/// which a later commit may make it worse). They mirror `end_to_end` in
/// `BENCHMARK.json`. Ten runs of one commit spread (interquartile range
/// over median) by at most 0.06 on a shared two-vCPU host, and up to 0.3
/// before the figures were read from the slow side; 0.25 is the largest
/// bound `BENCHMARK.json` accepts.
const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("throughput_mib_s", "MiB/s", "higher", 0.25),
    ("cpu_s_per_gib", "s/GiB", "lower", 0.25),
];

/// The per-layer metrics a `--trace 1` run prints; they mirror
/// `per_layer` in `BENCHMARK.json`.
const PER_LAYER: &[(&str, &str)] = &[
    ("compile.dtd_parse_s", "s"),
    ("compile.tables_s", "s"),
    ("compile.states", "count"),
    ("compile.table_bytes", "bytes"),
    ("compile.matchers_warm_s", "s"),
    ("source.drain_s", "s"),
    ("source.drain_mib_s", "MiB/s"),
    ("source.window_peak_bytes", "bytes"),
    ("source.io_wait_s", "s"),
    ("stream.pass_s", "s"),
    ("runtime.scan_s", "s"),
    ("runtime.emit_s", "s"),
    ("stream.unattributed_s", "s"),
    ("stream.drain_share_pct", "%"),
    ("stream.scan_share_pct", "%"),
    ("stream.emit_share_pct", "%"),
    ("stream.unattributed_share_pct", "%"),
    ("runtime.tokens_matched", "count"),
    ("runtime.false_matches", "count"),
    ("runtime.match_events", "count"),
    ("runtime.output_bytes", "bytes"),
    ("stringmatch.chars_compared", "count"),
    ("stringmatch.bytes_scanned", "bytes"),
    ("stringmatch.shifts", "count"),
    ("stringmatch.avg_shift", "bytes"),
    ("stringmatch.initial_jump_chars", "count"),
    ("stringmatch.find_all_s", "s"),
    ("parallel.seq_s", "s"),
    ("parallel.sharded_s", "s"),
    ("parallel.speedup", "ratio"),
    ("parallel.cpu_util", "ratio"),
    ("parallel.speculation_hits", "count"),
    ("parallel.repairs", "count"),
    ("parallel.fallbacks", "count"),
    ("parallel.repair_ratio", "ratio"),
    ("parallel.steals", "count"),
    ("parallel.parks", "count"),
    ("parallel.busy_s", "s"),
    ("lifecycle.resolve_s", "s"),
    ("lifecycle.worker_mint_s", "s"),
    ("registry.run_warm_s", "s"),
    ("registry.verdict_size", "count"),
    ("lifecycle.validate_s", "s"),
    ("lifecycle.recompile_s", "s"),
    ("lifecycle.compile_obs_s", "s"),
    ("lifecycle.generations", "count"),
    ("trace.overhead_pct", "%"),
];

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Times of one set-up, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub total_s: f64,
    pub dtd_parse_s: f64,
    pub tables_s: f64,
}

/// What one closed-loop phase measured. Wall and CPU time accrue only
/// while a measuring window is open (`resume` .. `pause`), so the
/// harness's own work between calls, such as the output checks, is not
/// counted.
pub struct Phase {
    started: Instant,
    /// The open window's start: wall clock and process CPU seconds.
    window: Option<(Instant, f64)>,
    /// Per-operation times: one per pass or per document.
    pub op_ms: Vec<f64>,
    /// `doc_p50_ms`, as the workload defines it from `op_ms`.
    pub doc_p50_ms: f64,
    pub input_bytes: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Input MiB per second of measured wall time, one per whole cycle.
    pub cycle_mib_s: Vec<f64>,
    /// Process CPU seconds per GiB of input, one per whole cycle.
    pub cycle_cpu_s_per_gib: Vec<f64>,
    /// `input_bytes`, `wall_s` and `cpu_s` when the current cycle began.
    cycle_start: (u64, f64, f64),
    pub tally: Tally,
    pub window_peak: u64,
    /// Edit submit to its publication (`SharedPrefilter::settle`).
    pub publish_ms: Vec<f64>,
}

impl Phase {
    pub fn start() -> Phase {
        Phase {
            started: Instant::now(),
            window: None,
            // Reserved up front so that the harness does not reallocate
            // inside the measured loop.
            op_ms: Vec::with_capacity(1 << 17),
            doc_p50_ms: 0.0,
            input_bytes: 0,
            wall_s: 0.0,
            cpu_s: 0.0,
            cycle_mib_s: Vec::with_capacity(1 << 10),
            cycle_cpu_s_per_gib: Vec::with_capacity(1 << 10),
            cycle_start: (0, 0.0, 0.0),
            tally: Tally::default(),
            window_peak: 0,
            publish_ms: Vec::with_capacity(1 << 10),
        }
    }

    /// Time since the phase started, measured or not; it ends the loop.
    pub fn elapsed_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Open a measuring window.
    pub fn resume(&mut self) {
        debug_assert!(self.window.is_none(), "window already open");
        self.window = Some((Instant::now(), sys::cpu_seconds()));
    }

    /// Close the measuring window and add its wall and CPU time.
    pub fn pause(&mut self) {
        let (t0, cpu0) = self.window.take().expect("an open window");
        self.cpu_s += sys::cpu_seconds() - cpu0;
        self.wall_s += t0.elapsed().as_secs_f64();
    }

    /// Close a cycle: record its throughput and CPU per GiB and start the
    /// next.
    pub fn end_cycle(&mut self) {
        let (bytes, wall_s, cpu_s) = self.cycle_start;
        let bytes = self.input_bytes - bytes;
        self.cycle_mib_s.push(stats::mib_per_s(bytes, self.wall_s - wall_s));
        self.cycle_cpu_s_per_gib.push(stats::cpu_s_per_gib(self.cpu_s - cpu_s, bytes));
        self.cycle_start = (self.input_bytes, self.wall_s, self.cpu_s);
    }

    /// `throughput_mib_s`: the throughput that nine in ten cycles reach.
    fn throughput_mib_s(&self) -> f64 {
        stats::percentile(&self.cycle_mib_s, 100.0 - CYCLE_PERCENTILE)
            .expect("a phase runs at least one cycle")
    }

    /// `cpu_s_per_gib`: the CPU per GiB that nine in ten cycles stay within.
    fn cpu_s_per_gib(&self) -> f64 {
        stats::percentile(&self.cycle_cpu_s_per_gib, CYCLE_PERCENTILE)
            .expect("a phase runs at least one cycle")
    }
}

/// A benchmark workload.
pub trait Workload {
    /// Build the serving state anew; returns how long that took.
    fn setup(&mut self, tracer: &mut Tracer) -> Result<SetupTimes>;
    /// Run the closed loop for at least `seconds` (and one whole cycle).
    fn phase(&mut self, seconds: f64, tracer: &mut Tracer, corrupt_output: bool) -> Result<Phase>;
    /// The traced run's layer probes.
    fn probe(
        &mut self,
        tracer: &mut Tracer,
        tally: &mut Tally,
        out: &mut Vec<Metric>,
    ) -> Result<()>;
    /// Input sizes and digests for the result record.
    fn describe_inputs(&self) -> Json;
}

/// The self-test's corruption: flip one byte of every fourth output.
pub fn corrupt(out: &mut [u8], op: u64, enabled: bool) {
    if enabled && op.is_multiple_of(4) && !out.is_empty() {
        let mid = out.len() / 2;
        out[mid] ^= 0x20;
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    corrupt_output: bool,
}

const WORKLOADS: [&str; 2] = ["xmark-stream", "pubsub-live"];

fn parse_args(args: &[String]) -> std::result::Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        corrupt_output: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?.clone(),
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds.is_finite() && a.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--corrupt-output" => a.corrupt_output = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(a)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<()> {
    let threads = sys::nproc().min(2);
    let t_inputs = Instant::now();
    let mut workload: Box<dyn Workload> = match args.workload.as_str() {
        "xmark-stream" => Box::new(xmark::Xmark::new(args.seed, threads)?),
        _ => Box::new(pubsub::Pubsub::new(args.seed, threads)?),
    };
    eprintln!(
        "perfbench: inputs and references ready in {:.1} s",
        t_inputs.elapsed().as_secs_f64()
    );

    let mut tracer = Tracer::new(false);
    let mut tally = Tally::default();
    let reps = if args.workload == "pubsub-live" { SETUP_REPS_PUBSUB } else { SETUP_REPS_XMARK };
    let mut setups = Vec::with_capacity(reps);
    for _ in 0..reps {
        setups.push(workload.setup(&mut tracer)?);
    }
    let setup_of = |f: fn(&SetupTimes) -> f64| {
        median(&setups.iter().map(f).collect::<Vec<_>>()).expect("reps > 0")
    };
    let setup_s = setup_of(|s| s.total_s);

    // Warm-up: one whole cycle, checked but not timed.
    tally.merge(workload.phase(0.0, &mut tracer, args.corrupt_output)?.tally);

    let mut metrics = Vec::new();
    let mut samples = Json::obj();
    let mut report = Vec::new();
    if !args.trace {
        let phase = workload.phase(args.seconds, &mut tracer, args.corrupt_output)?;
        tally.merge(phase.tally);
        metrics.push(Metric::new("setup_s", setup_s, "s"));
        metrics.push(Metric::new("throughput_mib_s", phase.throughput_mib_s(), "MiB/s"));
        metrics.push(Metric::new("cpu_s_per_gib", phase.cpu_s_per_gib(), "s/GiB"));
        report.push(Metric::new("doc_p50_ms", phase.doc_p50_ms, "ms"));
        if phase.op_ms.len() > 100 * stats::TAIL_MIN_BEYOND {
            report.push(Metric::new(
                "doc_p99_ms",
                stats::percentile(&phase.op_ms, 99.0).expect("samples"),
                "ms",
            ));
        }
        if let Some(p50) = median(&phase.publish_ms) {
            report.push(Metric::new("edit_publish_p50_ms", p50, "ms"));
        }
        report.push(Metric::new(
            "window_peak_mib",
            phase.window_peak as f64 / (1 << 20) as f64,
            "MiB",
        ));
        samples
            .set("op_ms", summary(&phase.op_ms))
            .set("cycle_mib_s", summary(&phase.cycle_mib_s))
            .set("cycle_cpu_s_per_gib", summary(&phase.cycle_cpu_s_per_gib))
            .set("edit_publish_ms", summary(&phase.publish_ms));
        samples.set("setup_s", summary(&setups.iter().map(|s| s.total_s).collect::<Vec<_>>()));
    } else {
        let untraced =
            workload.phase(args.seconds * TRACE_LOOP_SHARE, &mut tracer, args.corrupt_output)?;
        smpx_core::obs::enable();
        tracer.set_enabled(true);
        // The set-ups above ran untraced; trace one more for the record.
        workload.setup(&mut tracer)?;
        tally.merge(workload.phase(0.0, &mut tracer, args.corrupt_output)?.tally);
        let traced =
            workload.phase(args.seconds * TRACE_LOOP_SHARE, &mut tracer, args.corrupt_output)?;
        tally.merge(untraced.tally);
        tally.merge(traced.tally);
        metrics.push(Metric::new("compile.dtd_parse_s", setup_of(|s| s.dtd_parse_s), "s"));
        metrics.push(Metric::new("compile.tables_s", setup_of(|s| s.tables_s), "s"));
        workload.probe(&mut tracer, &mut tally, &mut metrics)?;
        let overhead = 100.0 * (1.0 - traced.throughput_mib_s() / untraced.throughput_mib_s());
        metrics.push(Metric::new("trace.overhead_pct", overhead, "%"));
        samples
            .set("untraced_op_ms", summary(&untraced.op_ms))
            .set("traced_op_ms", summary(&traced.op_ms));
        let trace_path =
            inputs::data_dir()?.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(&trace_path, tracer.to_json().render())?;
        eprintln!("perfbench: {} spans written to {}", tracer.len(), trace_path.display());
    }
    report.push(Metric::new("error_rate", tally.error_rate(), "ratio"));

    let expected: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.to_vec()
    } else {
        END_TO_END.iter().map(|&(name, unit, _, _)| (name, unit)).collect()
    };
    let metrics = in_declared_order(metrics, &expected)?;
    let record = result_record(args, workload.describe_inputs(), &metrics, &report, samples, tally);
    let record_path = inputs::data_dir()?.join("results");
    std::fs::create_dir_all(&record_path)?;
    let record_path = record_path.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&record_path, record.render() + "\n")?;

    println!(
        "perfbench {} seed {} trace {} ({} s)",
        args.workload,
        args.seed,
        u8::from(args.trace),
        args.seconds
    );
    for m in metrics.iter().chain(&report) {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("  {:<32} {:>16} / {}", "failed / attempted", tally.failed, tally.attempted);
    println!("  record: {}", record_path.display());
    println!("{}", final_line(&metrics, tally).render());
    Ok(())
}

/// `metrics` reordered as `expected` declares them; an error when one is
/// missing, has another unit, or is not declared.
fn in_declared_order(metrics: Vec<Metric>, expected: &[(&str, &str)]) -> Result<Vec<Metric>> {
    if metrics.len() != expected.len() {
        let names: Vec<&str> = metrics.iter().map(|m| m.name).collect();
        return Err(format!("measured {names:?}, expected {} metrics", expected.len()).into());
    }
    expected
        .iter()
        .map(|(name, unit)| {
            let m = metrics
                .iter()
                .find(|m| m.name == *name)
                .ok_or(format!("metric {name} was not measured"))?;
            if m.unit != *unit {
                return Err(
                    format!("metric {name} measured in {}, declared in {unit}", m.unit).into()
                );
            }
            Ok(m.clone())
        })
        .collect()
}

/// The result line: the last line of standard output.
fn final_line(metrics: &[Metric], tally: Tally) -> Json {
    let mut m = Json::obj();
    for metric in metrics {
        let mut v = Json::obj();
        v.set("value", metric.value).set("unit", metric.unit);
        m.set(metric.name, v);
    }
    let mut line = Json::obj();
    line.set("correct", tally.failed == 0)
        .set("attempted", tally.attempted)
        .set("failed", tally.failed)
        .set("metrics", m);
    line
}

/// Sample count, median and quartiles, and a tail only where at least ten
/// samples lie beyond it.
fn summary(xs: &[f64]) -> Json {
    let mut o = Json::obj();
    o.set("n", xs.len());
    if let Some([q1, q2, q3]) = quartiles(xs) {
        o.set("median", q2).set("q1", q1).set("q3", q3);
    }
    if let Some((p, v)) = stats::tail(xs) {
        let mut t = Json::obj();
        t.set("percentile", p).set("value", v);
        o.set("tail", t);
    }
    o
}

fn result_record(
    args: &Args,
    inputs: Json,
    metrics: &[Metric],
    report: &[Metric],
    samples: Json,
    tally: Tally,
) -> Json {
    let mut host = Json::obj();
    host.set("nproc", sys::nproc()).set("cpu_model", sys::cpu_model()).set("kernel", sys::kernel());
    let mut code = Json::obj();
    code.set("git_rev", git_rev(Path::new(".")))
        .set("source_digest", format!("{:016x}", source_digest(Path::new("."))));
    let as_obj = |ms: &[Metric]| {
        let mut o = Json::obj();
        for m in ms {
            let mut v = Json::obj();
            v.set("value", m.value).set("unit", m.unit);
            o.set(m.name, v);
        }
        o
    };
    let mut r = Json::obj();
    r.set("workload", args.workload.as_str())
        .set("seed", args.seed)
        .set("held_out_seed", HELD_OUT_SEED)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set("corrupt_output", args.corrupt_output)
        .set("host", host)
        .set("code", code)
        .set("inputs", inputs)
        .set("metrics", as_obj(metrics))
        .set("report", as_obj(report))
        .set("samples", samples)
        .set("attempted", tally.attempted)
        .set("failed", tally.failed);
    r
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a git checkout.
fn git_rev(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else { return Some(head.to_owned()) };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
}

/// Digest of the code under test — every manifest and Rust source of the
/// repository outside `target` directories and this benchmark — so a
/// result names its code even where no git metadata exists.
fn source_digest(root: &Path) -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                if !name.starts_with('.') && name != "target" && name != "perfbench" {
                    walk(&path, out);
                }
            } else if name.ends_with(".rs") || name == "Cargo.toml" || name == "Cargo.lock" {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(root, &mut files);
    files.sort();
    let mut all = Vec::new();
    for f in files {
        all.extend_from_slice(f.to_string_lossy().as_bytes());
        all.extend_from_slice(&std::fs::read(&f).unwrap_or_default());
    }
    inputs::digest(&all)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(xs: &[&str]) -> Vec<String> {
        xs.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "pubsub-live",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("pubsub-live", 7, 10.0, true)
        );
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "xmark-stream", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "xmark-stream", "--seed"])).is_err());
    }

    #[test]
    fn corrupted_output_fails_the_check_and_raises_error_rate() {
        let reference = inputs::Fingerprint::of(b"<site><x>kept</x></site>");
        let mut tally = Tally::default();
        for op in 0..8 {
            let mut out = b"<site><x>kept</x></site>".to_vec();
            corrupt(&mut out, op, true);
            tally.record(inputs::Fingerprint::of(&out) == reference);
        }
        assert_eq!(tally, Tally { attempted: 8, failed: 2 });
        assert!(tally.error_rate() > 0.0);
        let mut out = b"<site/>".to_vec();
        corrupt(&mut out, 0, false);
        assert_eq!(out, b"<site/>");
    }

    #[test]
    fn cycle_figures_are_read_from_the_slow_side() {
        let mut phase = Phase::start();
        let cycle = |phase: &mut Phase, slow: bool| {
            // 1 GiB in 1 s of wall and CPU time, or in a slow spell 2 s
            // of wall and 3 s of CPU time.
            phase.input_bytes += 1 << 30;
            phase.wall_s += if slow { 2.0 } else { 1.0 };
            phase.cpu_s += if slow { 3.0 } else { 1.0 };
            phase.end_cycle();
        };
        for i in 0..20 {
            cycle(&mut phase, i == 3);
        }
        // One slow cycle in twenty stays beyond the tenth percentile.
        assert_eq!(phase.cycle_mib_s.len(), 20);
        assert_eq!(phase.throughput_mib_s(), 1024.0);
        assert_eq!(phase.cpu_s_per_gib(), 1.0);
        // Three in twenty-two reach it.
        cycle(&mut phase, true);
        cycle(&mut phase, true);
        assert_eq!(phase.throughput_mib_s(), 512.0);
        assert_eq!(phase.cpu_s_per_gib(), 3.0);
    }

    #[test]
    fn final_line_has_exactly_the_result_keys() {
        let line =
            final_line(&[Metric::new("setup_s", 0.5, "s")], Tally { attempted: 3, failed: 0 })
                .render();
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}"#
        );
    }

    #[test]
    fn metrics_are_checked_against_the_declared_list() {
        let declared = &[("a", "s"), ("b", "ms")];
        let ok = in_declared_order(
            vec![Metric::new("b", 2.0, "ms"), Metric::new("a", 1.0, "s")],
            declared,
        )
        .unwrap();
        assert_eq!(ok[0].name, "a");
        assert!(in_declared_order(vec![Metric::new("a", 1.0, "s")], declared).is_err());
        assert!(in_declared_order(
            vec![Metric::new("a", 1.0, "ms"), Metric::new("b", 2.0, "ms")],
            declared
        )
        .is_err());
    }

    fn benchmark_json() -> String {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        text.split_whitespace().collect::<Vec<_>>().join(" ")
    }

    /// `BENCHMARK.json` at the repository root declares the same metrics,
    /// units and workloads as this program.
    #[test]
    fn benchmark_json_matches_the_program() {
        let compact = benchmark_json();
        let end_to_end = END_TO_END.iter().map(|&(name, unit, _, _)| (name, unit));
        for (name, unit) in end_to_end.chain(PER_LAYER.iter().copied()) {
            let entry = format!(r#""name": "{name}", "unit": "{unit}""#);
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(compact.matches(r#""unit":"#).count(), END_TO_END.len() + PER_LAYER.len());
        for w in WORKLOADS {
            assert!(compact.contains(&format!(r#""name": "{w}""#)), "workload {w}");
        }
    }

    /// Each end-to-end entry of `BENCHMARK.json` has the direction and
    /// bound kept here, and every bound is within the contract's 0.25.
    #[test]
    fn benchmark_json_bounds_match_the_program() {
        let compact = benchmark_json();
        for &(name, unit, better, bound) in END_TO_END {
            assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
            let entry = format!(
                r#"{{"name": "{name}", "unit": "{unit}", "better": "{better}", "bound": {bound}}}"#
            );
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(compact.matches(r#""bound":"#).count(), END_TO_END.len());
    }
}
