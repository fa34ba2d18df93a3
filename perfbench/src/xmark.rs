//! `xmark-stream`: full passes over one seeded 128 MiB XMark document,
//! read as a file through the bounded-window streaming entry
//! (`Prefilter::filter_stream`, `DEFAULT_CHUNK`) on one thread, cycling
//! the sparse queries XM5 and XM13.
//!
//! An operation is one pass of one query; a cycle is one pass of each
//! query. Only the passes themselves are timed. Every output is checked
//! against the reference projection of `smpx_baselines::TokenProjector`.
//! The traced run also probes `MmapSource` and
//! `FrozenPrefilter::run_sharded` over the same file.

use crate::inputs::{self, cached_reference, table1, Fingerprint, Query, XmarkInput};
use crate::json::Json;
use crate::layers::{self, Automaton, Target};
use crate::stats::{median, Tally};
use crate::trace::Tracer;
use crate::{corrupt, Metric, Phase, Result, SetupTimes, Workload};
use smpx_baselines::TokenProjector;
use smpx_core::runtime::DEFAULT_CHUNK;
use smpx_core::{FrozenPrefilter, Prefilter, QueryId, SharedPrefilter};
use smpx_datagen::xmark::XMARK_DTD;
use smpx_dtd::Dtd;
use std::collections::VecDeque;
use std::fs::File;
use std::io;
use std::time::Instant;

pub struct Xmark {
    seed: u64,
    threads: usize,
    queries: Vec<Query>,
    input: XmarkInput,
    refs: Vec<Fingerprint>,
    /// Whether each query's own run selects anything (registry oracle).
    matches: Vec<bool>,
    prefilters: Vec<Prefilter>,
    frozen: Vec<FrozenPrefilter>,
    out: Vec<u8>,
    ops: u64,
}

impl Xmark {
    pub fn new(seed: u64, threads: usize) -> Result<Xmark> {
        let queries: Vec<Query> = ["XM5", "XM13"].iter().map(|id| table1(id)).collect();
        let input = inputs::xmark_input(seed)?;
        let refs = references(&input, &queries)?;
        Ok(Xmark {
            seed,
            threads,
            matches: vec![false; queries.len()],
            queries,
            input,
            refs,
            prefilters: Vec::new(),
            frozen: Vec::new(),
            out: Vec::new(),
            ops: 0,
        })
    }
}

/// The `TokenProjector` reference of every query, computed once per
/// document digest and query (two queries at a time, one per thread).
fn references(input: &XmarkInput, queries: &[Query]) -> Result<Vec<Fingerprint>> {
    let dir = inputs::data_dir()?;
    std::thread::scope(|s| {
        let handles: Vec<_> = queries
            .iter()
            .map(|q| {
                let dir = &dir;
                s.spawn(move || {
                    cached_reference(dir, input.digest, q.digest(), || {
                        let projected = TokenProjector::new(&q.path_set())
                            .project(&input.doc)
                            .map_err(|e| io::Error::other(format!("oracle on {}: {e:?}", q.id)))?;
                        Ok(Fingerprint::of(&projected))
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked").map_err(Into::into))
            .collect()
    })
}

/// `doc_p50_ms` of the `xmark-stream` loop: each query's median pass time,
/// averaged over the queries. The loop runs the queries in turn, so
/// `op_ms[i]` is a pass of query `i % queries`; one median over both
/// queries' passes would fall in the gap between their two levels.
fn per_query_median_ms(op_ms: &[f64], queries: usize) -> f64 {
    let medians = (0..queries).map(|q| {
        let passes: Vec<f64> = op_ms.iter().skip(q).step_by(queries).copied().collect();
        median(&passes).expect("each query ran at least once")
    });
    medians.sum::<f64>() / queries as f64
}

impl Workload for Xmark {
    fn setup(&mut self, tracer: &mut Tracer) -> Result<SetupTimes> {
        let t0 = Instant::now();
        let dtd = tracer.wrap("compile.dtd_parse", 0, || Dtd::parse(XMARK_DTD.as_bytes()))?;
        let dtd_parse_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let mut prefilters = Vec::with_capacity(self.queries.len());
        for (i, q) in self.queries.iter().enumerate() {
            let paths = q.path_set();
            prefilters.push(
                tracer.wrap("compile.tables", i as u64, || Prefilter::compile(&dtd, &paths))?,
            );
        }
        let frozen = prefilters.iter().map(Prefilter::freeze).collect();
        let times = SetupTimes {
            total_s: t0.elapsed().as_secs_f64(),
            dtd_parse_s,
            tables_s: t1.elapsed().as_secs_f64(),
        };
        self.prefilters = prefilters;
        self.frozen = frozen;
        Ok(times)
    }

    fn phase(&mut self, seconds: f64, tracer: &mut Tracer, corrupt_output: bool) -> Result<Phase> {
        let mut phase = Phase::start();
        loop {
            for q in 0..self.queries.len() {
                let op = self.ops;
                self.ops += 1;
                self.out.clear();
                phase.resume();
                let span = tracer.begin("op.pass", op);
                let t = Instant::now();
                let pf = &mut self.prefilters[q];
                let result = tracer.wrap("runtime.filter_stream", op, || {
                    let f = File::open(&self.input.path)?;
                    pf.filter_stream(f, &mut self.out, DEFAULT_CHUNK)
                });
                let dt = t.elapsed().as_secs_f64();
                tracer.end(span);
                phase.pause();
                phase.op_ms.push(dt * 1e3);
                phase.input_bytes += self.input.doc.len() as u64;
                let ok = match result {
                    Ok(stats) => {
                        phase.window_peak = phase.window_peak.max(stats.io_window_bytes);
                        self.matches[q] = stats.match_events > 0;
                        corrupt(&mut self.out, op, corrupt_output);
                        Fingerprint::of(&self.out) == self.refs[q]
                    }
                    Err(_) => false,
                };
                phase.tally.record(ok);
            }
            phase.end_cycle();
            if phase.elapsed_s() >= seconds {
                break;
            }
        }
        phase.doc_p50_ms = per_query_median_ms(&phase.op_ms, self.queries.len());
        Ok(phase)
    }

    fn probe(
        &mut self,
        tracer: &mut Tracer,
        tally: &mut Tally,
        out: &mut Vec<Metric>,
    ) -> Result<()> {
        let dtd = Dtd::parse(XMARK_DTD.as_bytes())?;
        let target = Target {
            docs: vec![&self.input.doc],
            file: Some(&self.input.path),
            automata: self
                .frozen
                .iter()
                .zip(&self.refs)
                .map(|(frozen, r)| Automaton { frozen: frozen.clone(), refs: vec![*r] })
                .collect(),
            threads: self.threads,
        };
        layers::probe(&target, tracer, tally, out)?;

        // The workload's queries as a live registry over the same document.
        let shared = SharedPrefilter::new(dtd, self.queries.iter().map(Query::path_set).collect())?;
        let mut live: VecDeque<QueryId> = (0..self.queries.len() as u32).map(QueryId).collect();
        let pool = inputs::pubsub_pool();
        let mut rng = inputs::Rng::new(inputs::derive(self.seed, 3));
        let expected = |q: QueryId, _doc: usize| -> bool {
            // Ids past the workload's queries are edits, whose answer on
            // this document the probe does not know; they never serve a
            // document, because the warm runs precede the edits.
            self.matches.get(q.0 as usize).copied().unwrap_or(false)
        };
        layers::probe_lifecycle(
            &shared,
            &[&self.input.doc],
            &mut live,
            &mut || pool[rng.below(pool.len())].path_set(),
            &expected,
            tracer,
            tally,
            out,
        )
    }

    fn describe_inputs(&self) -> Json {
        let mut o = Json::obj();
        o.set("document", self.input.path.display().to_string())
            .set("document_bytes", self.input.doc.len())
            .set("document_digest", format!("{:016x}", self.input.digest))
            .set(
                "queries",
                self.queries.iter().map(|q| Json::from(q.id.as_str())).collect::<Vec<_>>(),
            )
            .set("threads", self.threads);
        o
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn doc_p50_is_the_mean_of_per_query_medians() {
        // Query 0 passes: 10, 12, 100 (median 12); query 1: 50, 52, 51 (median 51).
        let op_ms = [10.0, 50.0, 12.0, 52.0, 100.0, 51.0];
        assert_eq!(super::per_query_median_ms(&op_ms, 2), (12.0 + 51.0) / 2.0);
        assert_eq!(super::per_query_median_ms(&[3.0, 1.0, 2.0], 1), 2.0);
    }
}
