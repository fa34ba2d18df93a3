//! The traced run's layer probes: spans around the public call into each
//! layer, run over the workload's own documents and automata.
//!
//! A probe's time is per document pass: each round runs the call once per
//! unit (an automaton over a document; for delivery alone, a document),
//! the round's total is divided by the number of units, and the value is
//! the median over rounds. Counts are per document pass too.

use crate::inputs::Fingerprint;
use crate::stats::{median, Tally};
use crate::sys::cpu_seconds;
use crate::trace::Tracer;
use crate::{Metric, Result};
use smpx_core::obs::{self, CounterId};
use smpx_core::runtime::DEFAULT_CHUNK;
use smpx_core::{
    DocSource, FrozenPrefilter, Generation, MmapSource, MultiVerdict, Prefilter, QueryId,
    ReaderSource, RunStats, SharedPrefilter, SliceSource,
};
use smpx_paths::PathSet;
use smpx_stringmatch::CommentzWalter;
use std::collections::VecDeque;
use std::fs::File;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Rounds per probe; values are medians over rounds.
pub const ROUNDS: usize = 5;

/// One automaton and the reference fingerprint of its projection of each
/// target document.
pub struct Automaton {
    pub frozen: FrozenPrefilter,
    pub refs: Vec<Fingerprint>,
}

/// What the probes run over: the workload's documents (and the file
/// they were read from, when the workload reads one) and automata.
pub struct Target<'a> {
    pub docs: Vec<&'a [u8]>,
    pub file: Option<&'a Path>,
    pub automata: Vec<Automaton>,
    pub threads: usize,
}

/// Run `f(unit)` for `units` units per round, each inside a span named
/// `name`; the median over rounds of the per-unit mean, in seconds.
fn timed(
    tracer: &mut Tracer,
    name: &'static str,
    units: usize,
    mut f: impl FnMut(usize) -> Result<()>,
) -> Result<f64> {
    let mut means = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let mut total = 0.0;
        for unit in 0..units {
            let span = tracer.begin(name, (round * units + unit) as u64);
            let t = Instant::now();
            f(unit)?;
            total += t.elapsed().as_secs_f64();
            tracer.end(span);
        }
        means.push(total / units as f64);
    }
    Ok(median(&means).expect("ROUNDS > 0"))
}

/// Global `obs` counter value (the registry is enabled in traced runs).
fn counter(id: CounterId) -> u64 {
    obs::global().counter(id)
}

/// Deliver `src` through the public `DocSource` methods alone, raising
/// the discard guard every chunk; returns the bytes delivered.
fn drain<S: DocSource>(src: &mut S) -> Result<usize> {
    loop {
        let end = src.base() + src.resident().len();
        src.set_guard(end);
        if !src.grow()? {
            return Ok(end);
        }
    }
}

/// Probe every layer the target exercises. `tally` counts each checked
/// output.
pub fn probe(
    t: &Target<'_>,
    tracer: &mut Tracer,
    tally: &mut Tally,
    out: &mut Vec<Metric>,
) -> Result<()> {
    let n_docs = t.docs.len();
    let units = t.automata.len() * n_docs;
    let unit = |u: usize| (u / n_docs, u % n_docs);
    let mut buf = Vec::new();
    let check = |tally: &mut Tally, fp: Fingerprint, a: usize, d: usize| {
        tally.record(fp == t.automata[a].refs[d]);
    };

    // compile: tables, states and matcher warm-up on fresh workers.
    let mut workers: Vec<Prefilter> = t.automata.iter().map(|a| a.frozen.worker()).collect();
    let table_bytes: usize = workers.iter().map(Prefilter::memory_bytes).sum();
    let states: usize = t.automata.iter().map(|a| a.frozen.tables().state_count()).sum();
    let warm = timed(tracer, "compile.precompile_matchers", t.automata.len(), |a| {
        let mut fresh = t.automata[a].frozen.worker();
        fresh.precompile_matchers();
        std::hint::black_box(&fresh);
        Ok(())
    })?;
    for w in &mut workers {
        w.precompile_matchers();
    }
    out.push(Metric::new("compile.states", states as f64, "count"));
    out.push(Metric::new("compile.table_bytes", table_bytes as f64, "bytes"));
    out.push(Metric::new("compile.matchers_warm_s", warm * t.automata.len() as f64, "s"));

    // core::runtime::source: delivery alone through ReaderSource.
    let io_wait0 = counter(CounterId::StageIoWaitNanos);
    let mut window_peak = 0usize;
    let drain_s = timed(tracer, "source.drain", n_docs, |d| {
        let (bytes, peak) = match t.file {
            Some(p) => {
                let mut src = ReaderSource::new(File::open(p)?, DEFAULT_CHUNK);
                (drain(&mut src)?, src.peak_io_bytes())
            }
            None => {
                let mut src = ReaderSource::new(t.docs[d], DEFAULT_CHUNK);
                (drain(&mut src)?, src.peak_io_bytes())
            }
        };
        window_peak = window_peak.max(peak);
        tally.record(bytes == t.docs[d].len());
        Ok(())
    })?;
    let io_wait_s =
        (counter(CounterId::StageIoWaitNanos) - io_wait0) as f64 * 1e-9 / (ROUNDS * n_docs) as f64;
    let doc_bytes = t.docs.iter().map(|d| d.len()).sum::<usize>() as f64 / n_docs as f64;
    out.push(Metric::new("source.drain_s", drain_s, "s"));
    out.push(Metric::new("source.drain_mib_s", doc_bytes / (1 << 20) as f64 / drain_s, "MiB/s"));
    out.push(Metric::new("source.window_peak_bytes", window_peak as f64, "bytes"));
    out.push(Metric::new("source.io_wait_s", io_wait_s, "s"));

    // A streamed pass: delivery, search, verification and emit together.
    let pass_s = timed(tracer, "runtime.filter_stream", units, |u| {
        let (a, d) = unit(u);
        buf.clear();
        match t.file {
            Some(p) => workers[a].filter_stream(File::open(p)?, &mut buf, DEFAULT_CHUNK)?,
            None => workers[a].filter_stream(t.docs[d], &mut buf, DEFAULT_CHUNK)?,
        };
        check(tally, Fingerprint::of(&buf), a, d);
        Ok(())
    })?;

    // core::runtime: the same run from memory into a sink (search,
    // verification and scans) and into a `Vec` (plus emit), interleaved
    // per unit so that drift cancels in their difference.
    let mut counts = RunStats::default();
    let (mut scan_means, mut emit_means) = (Vec::new(), Vec::new());
    for round in 0..ROUNDS {
        let (mut scan, mut both) = (0.0, 0.0);
        for u in 0..units {
            let (a, d) = unit(u);
            let op = (round * units + u) as u64;
            let span = tracer.begin("runtime.scan", op);
            let t0 = Instant::now();
            workers[a].filter_source(SliceSource::new(t.docs[d]), io::sink())?;
            scan += t0.elapsed().as_secs_f64();
            tracer.end(span);
            buf.clear();
            let span = tracer.begin("runtime.scan_emit", op);
            let t0 = Instant::now();
            let stats = workers[a].filter_source(SliceSource::new(t.docs[d]), &mut buf)?;
            both += t0.elapsed().as_secs_f64();
            tracer.end(span);
            check(tally, Fingerprint::of(&buf), a, d);
            counts.accumulate(&stats);
        }
        scan_means.push(scan / units as f64);
        emit_means.push((both - scan) / units as f64);
    }
    let scan_s = median(&scan_means).expect("ROUNDS > 0");
    let emit_s = median(&emit_means).expect("ROUNDS > 0");
    let unattributed_s = pass_s - (drain_s + scan_s + emit_s);
    out.push(Metric::new("runtime.scan_s", scan_s, "s"));
    out.push(Metric::new("runtime.emit_s", emit_s, "s"));
    out.push(Metric::new("stream.pass_s", pass_s, "s"));
    out.push(Metric::new("stream.unattributed_s", unattributed_s, "s"));
    for (name, part) in [
        ("stream.drain_share_pct", drain_s),
        ("stream.scan_share_pct", scan_s),
        ("stream.emit_share_pct", emit_s),
        ("stream.unattributed_share_pct", unattributed_s),
    ] {
        out.push(Metric::new(name, 100.0 * part / pass_s, "%"));
    }
    let per_op = |x: u64| x as f64 / (ROUNDS * units) as f64;
    out.push(Metric::new("runtime.tokens_matched", per_op(counts.tokens_matched), "count"));
    out.push(Metric::new("runtime.false_matches", per_op(counts.false_matches), "count"));
    out.push(Metric::new("runtime.match_events", per_op(counts.match_events), "count"));
    out.push(Metric::new("runtime.output_bytes", per_op(counts.output_bytes), "bytes"));

    // stringmatch: counters of the runs above, and the public
    // Commentz-Walter matcher over the union of each automaton's keywords.
    out.push(Metric::new("stringmatch.chars_compared", per_op(counts.chars_compared), "count"));
    out.push(Metric::new("stringmatch.bytes_scanned", per_op(counts.bytes_scanned), "bytes"));
    out.push(Metric::new("stringmatch.shifts", per_op(counts.shifts), "count"));
    out.push(Metric::new("stringmatch.avg_shift", counts.avg_shift(), "bytes"));
    out.push(Metric::new(
        "stringmatch.initial_jump_chars",
        per_op(counts.initial_jump_chars),
        "count",
    ));
    let matchers: Vec<CommentzWalter> = t
        .automata
        .iter()
        .map(|a| {
            let mut kws: Vec<&[u8]> = a
                .frozen
                .tables()
                .states
                .iter()
                .flat_map(|s| s.keywords.iter().map(|k| k.bytes.as_slice()))
                .collect();
            kws.sort_unstable();
            kws.dedup();
            CommentzWalter::new(&kws)
        })
        .collect();
    let mut hits: Vec<Option<usize>> = vec![None; units];
    let find_s = timed(tracer, "stringmatch.find_all", units, |u| {
        let (a, d) = unit(u);
        let n = matchers[a].find_iter(t.docs[d]).count();
        // Deterministic: every round must find the same matches.
        tally.record(*hits[u].get_or_insert(n) == n && n > 0);
        Ok(())
    })?;
    out.push(Metric::new("stringmatch.find_all_s", find_s, "s"));

    // core::runtime::parallel: sequential against sharded, same source.
    let seq_s = timed(tracer, "parallel.filter_source", units, |u| {
        let (a, d) = unit(u);
        buf.clear();
        match t.file {
            Some(p) => workers[a].filter_source(MmapSource::open(p)?, &mut buf)?,
            None => workers[a].filter_source(SliceSource::new(t.docs[d]), &mut buf)?,
        };
        check(tally, Fingerprint::of(&buf), a, d);
        Ok(())
    })?;
    let before = ParallelCounters::read();
    let (cpu0, wall0) = (cpu_seconds(), Instant::now());
    let sharded_s = timed(tracer, "parallel.run_sharded", units, |u| {
        let (a, d) = unit(u);
        buf.clear();
        let frozen = &t.automata[a].frozen;
        match t.file {
            Some(p) => frozen.run_sharded(MmapSource::open(p)?, &mut buf, t.threads, 0)?,
            None => frozen.run_sharded(SliceSource::new(t.docs[d]), &mut buf, t.threads, 0)?,
        };
        check(tally, Fingerprint::of(&buf), a, d);
        Ok(())
    })?;
    let cpu_util = (cpu_seconds() - cpu0) / wall0.elapsed().as_secs_f64();
    let delta = ParallelCounters::read().minus(&before);
    let ops = (ROUNDS * units) as f64;
    out.push(Metric::new("parallel.seq_s", seq_s, "s"));
    out.push(Metric::new("parallel.sharded_s", sharded_s, "s"));
    out.push(Metric::new("parallel.speedup", seq_s / sharded_s, "ratio"));
    out.push(Metric::new("parallel.cpu_util", cpu_util, "ratio"));
    out.push(Metric::new("parallel.speculation_hits", delta.hits as f64 / ops, "count"));
    out.push(Metric::new("parallel.repairs", delta.repairs as f64 / ops, "count"));
    out.push(Metric::new("parallel.fallbacks", delta.fallbacks as f64 / ops, "count"));
    let attempts = delta.hits + delta.repairs;
    let ratio = if attempts == 0 { 0.0 } else { delta.repairs as f64 / attempts as f64 };
    out.push(Metric::new("parallel.repair_ratio", ratio, "ratio"));
    out.push(Metric::new("parallel.steals", delta.steals as f64 / ops, "count"));
    out.push(Metric::new("parallel.parks", delta.parks as f64 / ops, "count"));
    out.push(Metric::new("parallel.busy_s", delta.busy_ns as f64 * 1e-9 / ops, "s"));
    Ok(())
}

/// The `obs` series the sharded probe reads, as one snapshot.
struct ParallelCounters {
    hits: u64,
    repairs: u64,
    fallbacks: u64,
    steals: u64,
    parks: u64,
    busy_ns: u64,
}

impl ParallelCounters {
    fn read() -> ParallelCounters {
        ParallelCounters {
            hits: counter(CounterId::ShardSpeculationHits),
            repairs: counter(CounterId::ShardRepairs),
            fallbacks: counter(CounterId::ShardFallbacks),
            steals: counter(CounterId::PoolSteals),
            parks: counter(CounterId::PoolParks),
            busy_ns: counter(CounterId::PoolBusyNanos),
        }
    }

    fn minus(&self, before: &ParallelCounters) -> ParallelCounters {
        ParallelCounters {
            hits: self.hits - before.hits,
            repairs: self.repairs - before.repairs,
            fallbacks: self.fallbacks - before.fallbacks,
            steals: self.steals - before.steals,
            parks: self.parks - before.parks,
            busy_ns: self.busy_ns - before.busy_ns,
        }
    }
}

/// Seconds of lifecycle compilation the `obs` registry has recorded.
fn lifecycle_compile_s() -> f64 {
    counter(CounterId::LifecycleCompileNanos) as f64 * 1e-9
}

/// Probe `core::registry` and `core::lifecycle` on `shared`: resolve,
/// worker mint and a warm `run_multi` per document, then `rounds` edits
/// (add the query `next_query` returns, remove the oldest live one).
/// `expected(ext, doc)` says whether external query `ext` matches
/// document `doc` on its own.
#[allow(clippy::too_many_arguments)]
pub fn probe_lifecycle(
    shared: &SharedPrefilter,
    docs: &[&[u8]],
    live: &mut VecDeque<QueryId>,
    next_query: &mut dyn FnMut() -> PathSet,
    expected: &dyn Fn(QueryId, usize) -> bool,
    tracer: &mut Tracer,
    tally: &mut Tally,
    out: &mut Vec<Metric>,
) -> Result<()> {
    let n = docs.len();
    let resolve_s = timed(tracer, "lifecycle.generation", n, |_| {
        std::hint::black_box(shared.generation());
        Ok(())
    })?;
    let g = shared.generation();
    let mint_s = timed(tracer, "lifecycle.worker", n, |_| {
        std::hint::black_box(g.frozen().worker());
        Ok(())
    })?;
    let mut worker = g.frozen().worker();
    worker.precompile_matchers();
    let live_now = live_set(&g);
    let mut buf = Vec::new();
    let mut matched = 0usize;
    let run_s = timed(tracer, "registry.run_multi_warm", n, |d| {
        buf.clear();
        let (_, verdict, _) = worker.run_multi(SliceSource::new(docs[d]), &mut buf)?;
        let verdict = g.remap_verdict(&verdict);
        matched += verdict.matched.len();
        tally.record(verdict_ok(&verdict, &live_now, |q| expected(q, d)));
        Ok(())
    })?;
    out.push(Metric::new("lifecycle.resolve_s", resolve_s, "s"));
    out.push(Metric::new("lifecycle.worker_mint_s", mint_s, "s"));
    out.push(Metric::new("registry.run_warm_s", run_s, "s"));
    out.push(Metric::new("registry.verdict_size", matched as f64 / (ROUNDS * n) as f64, "count"));

    let (mut validate, mut recompile) = (Vec::new(), Vec::new());
    let compile0 = lifecycle_compile_s();
    let mut last = g;
    for round in 0..ROUNDS as u64 {
        let next = next_query();
        let oldest = live.pop_front().expect("a live query to remove");
        let t0 = Instant::now();
        let id = tracer.wrap("lifecycle.add_paths", round, || shared.add_paths(next))?;
        validate.push(t0.elapsed().as_secs_f64());
        tracer.wrap("lifecycle.remove_query", round, || shared.remove_query(oldest))?;
        live.push_back(id);
        last = tracer.wrap("lifecycle.settle", round, || shared.settle())?;
        recompile.push(t0.elapsed().as_secs_f64());
        let now_live = live_set(&last);
        tally.record(now_live.get(id.0 as usize) == Some(&true) && !now_live[oldest.0 as usize]);
    }
    let compile_s = (lifecycle_compile_s() - compile0) / ROUNDS as f64;
    out.push(Metric::new("lifecycle.validate_s", median(&validate).expect("rounds"), "s"));
    out.push(Metric::new("lifecycle.recompile_s", median(&recompile).expect("rounds"), "s"));
    out.push(Metric::new("lifecycle.compile_obs_s", compile_s, "s"));
    out.push(Metric::new("lifecycle.generations", (last.gen_no() + 1) as f64, "count"));
    Ok(())
}

/// Which external ids `g` answers for, indexed by id.
pub fn live_set(g: &Generation) -> Vec<bool> {
    let mut live = vec![false; g.id_width() as usize];
    for c in 0..g.live_queries() as u32 {
        if let Some(ext) = g.external_id(QueryId(c)) {
            live[ext.0 as usize] = true;
        }
    }
    live
}

/// A verdict is right when it spans every allocated id and lists exactly
/// the live queries whose own single-query run matches.
pub fn verdict_ok(
    verdict: &MultiVerdict,
    live: &[bool],
    matches: impl Fn(QueryId) -> bool,
) -> bool {
    verdict.n_queries as usize == live.len()
        && (0..live.len() as u32).all(|q| {
            let q = QueryId(q);
            verdict.is_matched(q) == (live[q.0 as usize] && matches(q))
        })
}
