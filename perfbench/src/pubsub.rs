//! `pubsub-live`: a live `SharedPrefilter` with 100 standing queries
//! serving 256 seeded 32 KiB XMark documents one at a time, while every
//! 500 documents one query is added and the oldest live one removed.
//!
//! The queries are drawn from a seeded order of the candidate pool, taken
//! round and round: the standing queries are its first 100 places and
//! each added query the next place. The live queries are thus always 100
//! consecutive places, holding every pool query as often as any other
//! (give or take one), so the serving cost does not drift with the edits
//! or hinge on which queries a seed happens to draw twice.
//!
//! An operation is one document, from `generation()` to the verdict of
//! `Generation::run_multi` on a slice; it and the edit submissions are
//! timed, the checks between documents are not. After submitting an
//! edit the loop waits, untimed, until the lifecycle's compiler thread
//! has published it (`settle`), and serves on. The recompile thus never
//! runs beside measured serving: on a shared two-vCPU host, serving
//! beside it ran at half speed in some spells and at full speed in
//! others, so the figures of a run hinged on the spell. The recompile is
//! timed on its own (`edit_publish_p50_ms`), and set-up compiles the 100
//! queries (`setup_s`).
//!
//! Oracles:
//! * every verdict against single-query runs of every live query;
//! * every union projection against a single-query prefilter compiled
//!   for the union of the generation's live path sets;
//! * that union reference against `smpx_baselines::TokenProjector` on the
//!   whole corpus for the first generation, and on a sample of the
//!   documents served by every later union.

use crate::inputs::{self, cached_reference, digest, Fingerprint, Query, Rng, PUBSUB_DOCS};
use crate::layers::{self, live_set, verdict_ok, Automaton, Target};
use crate::stats::{median, Tally};
use crate::trace::Tracer;
use crate::{corrupt, json::Json, Metric, Phase, Result, SetupTimes, Workload};
use smpx_baselines::TokenProjector;
use smpx_core::{Generation, Prefilter, QueryId, SharedPrefilter, SliceSource};
use smpx_datagen::xmark::XMARK_DTD;
use smpx_dtd::Dtd;
use smpx_paths::PathSet;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Standing queries at start.
const STANDING: usize = 100;
/// Documents between edits.
const EDIT_EVERY: u64 = 500;
/// Documents per later union whose reference `TokenProjector` re-checks.
const TP_SAMPLE: usize = 4;

/// One served document, checked after the measured phase.
struct Served {
    gen: u64,
    doc: usize,
    fp: Fingerprint,
    verdict_ok: bool,
}

pub struct Pubsub {
    seed: u64,
    threads: usize,
    pool: Vec<Query>,
    corpus: Vec<Vec<u8>>,
    corpus_digest: u64,
    /// `single[p][d]`: does pool query `p` alone match document `d`?
    single: Vec<Vec<bool>>,
    /// The seeded order of the pool; place `i` of the draw is
    /// `order[i % order.len()]`.
    order: Vec<usize>,
    shared: Option<SharedPrefilter>,
    /// Pool index of every external query id.
    pool_of: Vec<usize>,
    /// Live external ids, oldest first.
    live: VecDeque<QueryId>,
    /// Place in the draw of the next added query.
    next_draw: usize,
    served_total: u64,
    /// Live set of every generation seen, by generation number.
    gens: BTreeMap<u64, Vec<bool>>,
    /// Union references by live-pool signature.
    unions: HashMap<u64, UnionRef>,
    out: Vec<u8>,
}

/// The union reference of one set of live pool queries.
struct UnionRef {
    paths: PathSet,
    prefilter: Prefilter,
    docs: Vec<Option<Fingerprint>>,
    /// `TokenProjector` disagreed with the reference on these documents.
    oracle_bad: Vec<bool>,
    tp_checked: usize,
}

impl Pubsub {
    pub fn new(seed: u64, threads: usize) -> Result<Pubsub> {
        let pool = inputs::pubsub_pool();
        let corpus = inputs::pubsub_corpus(seed);
        let corpus_digest = digest(
            &corpus.iter().map(|d| inputs::digest(d).to_le_bytes()).collect::<Vec<_>>().concat(),
        );
        let dtd = Dtd::parse(XMARK_DTD.as_bytes())?;
        let mut single = Vec::with_capacity(pool.len());
        for q in &pool {
            let mut pf = Prefilter::compile(&dtd, &q.path_set())?;
            let row = corpus
                .iter()
                .map(|d| Ok(pf.filter_source(SliceSource::new(d), io::sink())?.match_events > 0))
                .collect::<Result<Vec<bool>>>()?;
            single.push(row);
        }
        let order = Rng::new(inputs::derive(seed, 2)).permutation(pool.len());
        Ok(Pubsub {
            seed,
            threads,
            pool,
            corpus,
            corpus_digest,
            single,
            order,
            shared: None,
            pool_of: Vec::new(),
            live: VecDeque::new(),
            next_draw: STANDING,
            served_total: 0,
            gens: BTreeMap::new(),
            unions: HashMap::new(),
            out: Vec::new(),
        })
    }

    /// Pool index of place `i` of the draw.
    fn drawn(&self, i: usize) -> usize {
        self.order[i % self.order.len()]
    }

    fn shared(&self) -> &SharedPrefilter {
        self.shared.as_ref().expect("set up before serving")
    }

    /// Live set of `g`, remembered by generation number.
    fn note_generation(&mut self, g: &Generation) -> &[bool] {
        self.gens.entry(g.gen_no()).or_insert_with(|| live_set(g))
    }

    /// Signature of a live set: a digest of the sorted distinct path
    /// texts of the pool queries it holds, so a cached reference names its
    /// paths and not their place in the pool.
    fn signature(&self, live: &[bool]) -> (u64, Vec<usize>) {
        let mut pools: Vec<usize> =
            live.iter().enumerate().filter(|(_, &l)| l).map(|(q, _)| self.pool_of[q]).collect();
        pools.sort_unstable();
        pools.dedup();
        let mut paths: Vec<&str> =
            pools.iter().flat_map(|&p| self.pool[p].paths.iter().map(String::as_str)).collect();
        paths.sort_unstable();
        paths.dedup();
        (digest(paths.join("\n").as_bytes()), pools)
    }

    /// The union reference for `live`, compiled on first use.
    fn union_ref(&mut self, live: &[bool]) -> Result<u64> {
        let (sig, pools) = self.signature(live);
        if !self.unions.contains_key(&sig) {
            let paths = pools
                .iter()
                .fold(PathSet::new(vec![]), |acc, &p| acc.union(&self.pool[p].path_set()));
            let dtd = Dtd::parse(XMARK_DTD.as_bytes())?;
            let prefilter = Prefilter::compile(&dtd, &paths)?;
            self.unions.insert(
                sig,
                UnionRef {
                    paths,
                    prefilter,
                    docs: vec![None; PUBSUB_DOCS],
                    oracle_bad: vec![false; PUBSUB_DOCS],
                    tp_checked: 0,
                },
            );
        }
        Ok(sig)
    }

    /// Reference fingerprint of document `d` under union `sig`; when
    /// `with_tp`, also confirm it against `TokenProjector` (cached on
    /// disk by document and union).
    fn reference(&mut self, sig: u64, d: usize, with_tp: bool) -> Result<Fingerprint> {
        let doc = &self.corpus[d];
        let u = self.unions.get_mut(&sig).expect("union compiled");
        let fp = match u.docs[d] {
            Some(fp) => fp,
            None => {
                let mut buf = Vec::new();
                u.prefilter.filter_source(SliceSource::new(doc), &mut buf)?;
                let fp = Fingerprint::of(&buf);
                u.docs[d] = Some(fp);
                fp
            }
        };
        if with_tp {
            let dir = inputs::data_dir()?;
            let tp = cached_reference(&dir, inputs::digest(doc), sig, || {
                let projected = TokenProjector::new(&u.paths)
                    .project(doc)
                    .map_err(|e| io::Error::other(format!("oracle on document {d}: {e:?}")))?;
                Ok(Fingerprint::of(&projected))
            })?;
            u.oracle_bad[d] = tp != fp;
        }
        Ok(fp)
    }

    /// Check every served document: verdict (already judged in the loop)
    /// and union projection.
    fn check(&mut self, served: &[Served], tally: &mut Tally) -> Result<()> {
        let first_gen = *self.gens.keys().next().expect("served at least one generation");
        for s in served {
            let live = self.gens[&s.gen].clone();
            let sig = self.union_ref(&live)?;
            let u = &self.unions[&sig];
            let full = s.gen == first_gen && u.tp_checked < PUBSUB_DOCS;
            let with_tp = u.docs[s.doc].is_none() && (full || u.tp_checked < TP_SAMPLE);
            let fp = self.reference(sig, s.doc, with_tp)?;
            let u = self.unions.get_mut(&sig).expect("union compiled");
            u.tp_checked += usize::from(with_tp);
            tally.record(s.verdict_ok && s.fp == fp && !u.oracle_bad[s.doc]);
        }
        Ok(())
    }
}

impl Workload for Pubsub {
    fn setup(&mut self, tracer: &mut Tracer) -> Result<SetupTimes> {
        // The previous set-up's registry (and its compiler thread) goes
        // first, outside the timed region.
        self.shared = None;
        let t0 = Instant::now();
        let dtd = tracer.wrap("compile.dtd_parse", 0, || Dtd::parse(XMARK_DTD.as_bytes()))?;
        let dtd_parse_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let standing: Vec<usize> = (0..STANDING).map(|i| self.drawn(i)).collect();
        let sets: Vec<PathSet> = standing.iter().map(|&p| self.pool[p].path_set()).collect();
        let shared = tracer.wrap("compile.tables", 0, || SharedPrefilter::new(dtd, sets))?;
        let first = tracer.wrap("lifecycle.generation", 0, || shared.generation());
        let tables_s = t1.elapsed().as_secs_f64();
        let total_s = t0.elapsed().as_secs_f64();
        drop(first);
        self.shared = Some(shared);
        self.pool_of = standing;
        self.next_draw = STANDING;
        self.live = (0..STANDING as u32).map(QueryId).collect();
        self.gens.clear();
        self.served_total = 0;
        Ok(SetupTimes { total_s, dtd_parse_s, tables_s })
    }

    fn phase(&mut self, seconds: f64, tracer: &mut Tracer, corrupt_output: bool) -> Result<Phase> {
        let mut phase = Phase::start();
        let mut served = Vec::with_capacity(1 << 17);
        let mut current: Option<(u64, Vec<bool>)> = None;
        // `doc_p50_ms` is the mean of each cycle's median document time:
        // other tenants of a shared host slow it in spells of seconds, and
        // the mean moves with the share of slow spells, where one median
        // over all documents jumps between the fast and the slow level.
        let mut cycle_p50_ms = Vec::with_capacity(1 << 10);
        loop {
            let op = self.served_total;
            self.served_total += 1;
            phase.resume();
            if op > 0 && op.is_multiple_of(EDIT_EVERY) {
                let p = self.drawn(self.next_draw);
                self.next_draw += 1;
                let removed = self.live.pop_front().expect("live queries");
                let submitted = Instant::now();
                let shared = self.shared.as_ref().expect("set up before serving");
                let added = tracer.wrap("lifecycle.add_paths", op, || {
                    shared.add_paths(self.pool[p].path_set())
                })?;
                tracer.wrap("lifecycle.remove_query", op, || shared.remove_query(removed))?;
                phase.pause();
                tracer.wrap("lifecycle.settle", op, || shared.settle())?;
                phase.publish_ms.push(submitted.elapsed().as_secs_f64() * 1e3);
                self.pool_of.push(p);
                self.live.push_back(added);
                phase.resume();
            }
            let d = (op % PUBSUB_DOCS as u64) as usize;
            self.out.clear();
            let span = tracer.begin("op.document", op);
            let t = Instant::now();
            let g: Arc<Generation> =
                tracer.wrap("lifecycle.generation", op, || self.shared().generation());
            let doc = &self.corpus[d];
            let out = &mut self.out;
            let verdict = tracer
                .wrap("registry.run_multi", op, || g.run_multi(SliceSource::new(doc), out))
                .map(|(_, verdict, _)| verdict);
            let done = Instant::now();
            tracer.end(span);
            phase.pause();
            phase.op_ms.push((done - t).as_secs_f64() * 1e3);
            phase.input_bytes += doc.len() as u64;

            if current.as_ref().map(|(n, _)| *n) != Some(g.gen_no()) {
                current = Some((g.gen_no(), self.note_generation(&g).to_vec()));
            }
            let live = &current.as_ref().expect("just set").1;
            match verdict {
                Ok(verdict) => {
                    let single = &self.single;
                    let pool_of = &self.pool_of;
                    let ok = verdict_ok(&verdict, live, |q| single[pool_of[q.0 as usize]][d]);
                    corrupt(&mut self.out, op, corrupt_output);
                    served.push(Served {
                        gen: g.gen_no(),
                        doc: d,
                        fp: Fingerprint::of(&self.out),
                        verdict_ok: ok,
                    });
                }
                Err(_) => phase.tally.record(false),
            }
            if d == PUBSUB_DOCS - 1 {
                let cycle = &phase.op_ms[phase.op_ms.len().saturating_sub(PUBSUB_DOCS)..];
                cycle_p50_ms.push(median(cycle).expect("a whole cycle"));
                phase.end_cycle();
                if phase.elapsed_s() >= seconds {
                    break;
                }
            }
        }
        phase.doc_p50_ms = cycle_p50_ms.iter().sum::<f64>() / cycle_p50_ms.len() as f64;
        self.check(&served, &mut phase.tally)?;
        Ok(phase)
    }

    fn probe(
        &mut self,
        tracer: &mut Tracer,
        tally: &mut Tally,
        out: &mut Vec<Metric>,
    ) -> Result<()> {
        let g = self.shared().generation();
        let live = self.note_generation(&g).to_vec();
        let sig = self.union_ref(&live)?;
        let refs =
            (0..PUBSUB_DOCS).map(|d| self.reference(sig, d, false)).collect::<Result<Vec<_>>>()?;
        let target = Target {
            docs: self.corpus.iter().map(Vec::as_slice).collect(),
            file: None,
            automata: vec![Automaton { frozen: g.frozen().clone(), refs }],
            threads: self.threads,
        };
        layers::probe(&target, tracer, tally, out)?;
        drop(target);

        let shared = self.shared.take().expect("set up before probing");
        let docs: Vec<&[u8]> = self.corpus.iter().map(Vec::as_slice).collect();
        let (pool, single) = (&self.pool, &self.single);
        let pool_of = std::cell::RefCell::new(std::mem::take(&mut self.pool_of));
        let mut rng = Rng::new(inputs::derive(self.seed, 5));
        let result = layers::probe_lifecycle(
            &shared,
            &docs,
            &mut self.live,
            &mut || {
                let p = rng.below(pool.len());
                pool_of.borrow_mut().push(p);
                pool[p].path_set()
            },
            &|q, d| single[pool_of.borrow()[q.0 as usize]][d],
            tracer,
            tally,
            out,
        );
        self.pool_of = pool_of.into_inner();
        self.shared = Some(shared);
        result
    }

    fn describe_inputs(&self) -> Json {
        let mut o = Json::obj();
        o.set("documents", self.corpus.len())
            .set("corpus_bytes", self.corpus.iter().map(Vec::len).sum::<usize>())
            .set("corpus_digest", format!("{:016x}", self.corpus_digest))
            .set("standing_queries", STANDING)
            .set("candidate_pool", self.pool.len())
            .set("edit_every_documents", EDIT_EVERY)
            .set("generations_seen", self.gens.len())
            .set("unions_checked", self.unions.len());
        o
    }
}
