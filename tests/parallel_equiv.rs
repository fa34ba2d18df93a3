//! Parallel ≡ sequential equivalence suite for the work-stealing batch
//! executor: `run_batch_parallel` against the sequential `run_batch` /
//! per-document reference across thread counts {1, 2, 4, 8} (plus 0 = the
//! machine's parallelism) × delivery backends {slice, mmap, reader} ×
//! SIMD/scalar modes.
//!
//! What is pinned, per cell of that matrix:
//!
//! * **byte-identical sinks** — each document's projected bytes equal the
//!   sequential run's, in input order;
//! * **equal per-document match sets and stats** — full `RunStats`
//!   equality (for the reader backend both sides use the same chunk, so
//!   even the chunk-dependent stream counters must agree);
//! * **equal accumulated totals** — folding the per-document stats with
//!   `RunStats::accumulate` gives the same totals, independent of which
//!   worker completed what when.
//!
//! Plus error injection: a failing document cancels the batch, the
//! reported `BatchError` carries exactly that input's index (the CLI maps
//! it to the file name), and nothing is poisoned — the same frozen
//! automaton runs the next batch successfully.
//!
//! The SIMD/scalar toggle (`memscan::force_accel`) is process-global, so
//! every test in this binary serializes on [`mode_lock`].

mod common;

use common::{random_doc, random_dtd, random_paths, Rand, TempDoc};
use smpx_core::runtime::source::{MmapSource, ReaderSource, SliceSource};
use smpx_core::{CoreError, Prefilter, RunStats};
use smpx_dtd::Dtd;
use smpx_paths::PathSet;
use smpx_stringmatch::memscan;
use std::sync::{Mutex, OnceLock};

const THREADS: &[usize] = &[0, 1, 2, 4, 8];
const CHUNK: usize = 64;
const BATCH: usize = 9;

fn mode_lock() -> &'static Mutex<()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
}

/// Run `f` once with the vectorized paths forced on and once forced off,
/// restoring the environment-selected mode afterwards.
fn with_both_modes(mut f: impl FnMut(bool)) {
    let _guard = mode_lock().lock().unwrap();
    let env_accel = std::env::var_os("SMPX_NO_SIMD").is_none_or(|v| v != "1");
    memscan::force_accel(true);
    f(true);
    memscan::force_accel(false);
    f(false);
    memscan::force_accel(env_accel);
}

/// One fixture: a DTD, a path set, and a batch of valid documents.
struct Fixture {
    dtd: Dtd,
    paths: PathSet,
    docs: Vec<Vec<u8>>,
}

/// Random fixture from the shared generators: one schema, many documents.
fn random_fixture(seed: u64) -> Fixture {
    let mut r = Rand::new(seed);
    let dtd = random_dtd(&mut r);
    let paths = random_paths(&dtd, &mut r);
    let docs = (0..BATCH).map(|_| random_doc(&dtd, &mut r)).collect();
    Fixture { dtd, paths, docs }
}

/// Recursive fixture: nested subtrees with quote/slash/gt traps, so the
/// balanced scan and the tag-end scan both cross worker-owned windows.
fn recursive_fixture() -> Fixture {
    let dtd = Dtd::parse(
        b"<!ELEMENT r (x|t)*> <!ELEMENT x (x?)> <!ELEMENT t (#PCDATA)> \
          <!ATTLIST x a CDATA #IMPLIED>",
    )
    .expect("recursive DTD parses");
    let paths = PathSet::parse(&["/*", "/r/t#"]).expect("paths parse");
    let mut docs = Vec::new();
    for i in 0..BATCH {
        let mut doc = Vec::from(&b"<r>"[..]);
        for d in 0..=i {
            let attr = match d % 4 {
                0 => " a=\"x>y\"",
                1 => " a='//>'",
                2 => "",
                _ => " a='it\"s'",
            };
            doc.extend_from_slice(format!("<x{attr}>").as_bytes());
        }
        doc.extend_from_slice(b"<x/>");
        for _ in 0..=i {
            doc.extend_from_slice(b"</x>");
        }
        doc.extend_from_slice(format!("<t>payload{i}</t></r>").as_bytes());
        docs.push(doc);
    }
    Fixture { dtd, paths, docs }
}

/// Sequential reference over an owned-source-opening closure (the
/// borrowed slice backend is inlined at its call site instead — a
/// `SliceSource` borrows per document, which a single generic `S` cannot
/// express).
fn sequential<S: smpx_core::DocSource>(
    fx: &Fixture,
    mut open: impl FnMut(&[u8]) -> S,
) -> Vec<(Vec<u8>, RunStats)> {
    let mut pf = Prefilter::compile(&fx.dtd, &fx.paths).expect("compile");
    fx.docs
        .iter()
        .map(|d| {
            let mut out = Vec::new();
            let stats = pf.filter_source(open(d), &mut out).expect("sequential filter");
            (out, stats)
        })
        .collect()
}

/// Assert the parallel run equals the sequential reference per document
/// and in accumulated totals.
fn assert_equivalent(
    label: &str,
    threads: usize,
    got: Vec<(Vec<u8>, RunStats)>,
    want: &[(Vec<u8>, RunStats)],
) {
    assert_eq!(got.len(), want.len(), "{label} t={threads}: result count");
    let mut got_total = RunStats::default();
    let mut want_total = RunStats::default();
    for (i, ((go, gs), (wo, ws))) in got.iter().zip(want).enumerate() {
        assert_eq!(go, wo, "{label} t={threads} doc {i}: sink bytes diverged");
        assert_eq!(gs, ws, "{label} t={threads} doc {i}: stats diverged");
        got_total.accumulate(gs);
        want_total.accumulate(ws);
    }
    assert_eq!(got_total, want_total, "{label} t={threads}: accumulated totals diverged");
}

/// The full matrix for one fixture in the current SIMD/scalar mode.
fn sweep_fixture(fx: &Fixture, label: &str) {
    let pf = Prefilter::compile(&fx.dtd, &fx.paths).expect("compile");

    // Slice delivery.
    let want: Vec<(Vec<u8>, RunStats)> = {
        let mut seq_pf = Prefilter::compile(&fx.dtd, &fx.paths).expect("compile");
        fx.docs
            .iter()
            .map(|d| {
                let mut out = Vec::new();
                let stats = seq_pf
                    .filter_source(SliceSource::new(d), &mut out)
                    .expect("sequential slice filter");
                (out, stats)
            })
            .collect()
    };
    for &t in THREADS {
        let got = pf
            .run_batch_parallel(fx.docs.iter().map(|d| (SliceSource::new(d), Vec::new())), t)
            .expect("parallel slice batch");
        assert_equivalent(&format!("{label}/slice"), t, got, &want);
    }

    // Mmap delivery over real temp files.
    let tmps: Vec<TempDoc> = fx.docs.iter().map(|d| TempDoc::new(d)).collect();
    let want: Vec<(Vec<u8>, RunStats)> = {
        let mut seq_pf = Prefilter::compile(&fx.dtd, &fx.paths).expect("compile");
        tmps.iter()
            .map(|tmp| {
                let mut out = Vec::new();
                let stats = seq_pf
                    .filter_source(MmapSource::open(tmp.path()).expect("map doc"), &mut out)
                    .expect("sequential mmap filter");
                (out, stats)
            })
            .collect()
    };
    for &t in THREADS {
        let got = pf
            .run_batch_parallel(
                tmps.iter().map(|tmp| (MmapSource::open(tmp.path()).expect("map doc"), Vec::new())),
                t,
            )
            .expect("parallel mmap batch");
        assert_equivalent(&format!("{label}/mmap"), t, got, &want);
    }

    // Reader delivery (chunked window; same chunk on both sides, so even
    // the chunk-dependent stream counters must agree).
    let want = sequential(fx, |d| ReaderSource::new(std::io::Cursor::new(d.to_vec()), CHUNK));
    for &t in THREADS {
        let got = pf
            .run_batch_parallel(
                fx.docs.iter().map(|d| {
                    (ReaderSource::new(std::io::Cursor::new(d.clone()), CHUNK), Vec::new())
                }),
                t,
            )
            .expect("parallel reader batch");
        assert_equivalent(&format!("{label}/reader"), t, got, &want);
    }
}

#[test]
fn parallel_equals_sequential_across_backends_threads_and_modes() {
    for seed in [3u64, 11, 42] {
        let fx = random_fixture(seed);
        with_both_modes(|mode| sweep_fixture(&fx, &format!("seed {seed} accel={mode}")));
    }
}

#[test]
fn recursive_batch_equals_sequential_across_modes() {
    let fx = recursive_fixture();
    with_both_modes(|mode| sweep_fixture(&fx, &format!("recursive accel={mode}")));
}

#[test]
fn error_injection_cancels_names_the_input_and_poisons_nothing() {
    let _guard = mode_lock().lock().unwrap();
    let fx = recursive_fixture();
    let pf = Prefilter::compile(&fx.dtd, &fx.paths).expect("compile");
    let frozen = pf.freeze();

    // Doc 4 never closes its subtree: the balanced scan hits EOF.
    let mut docs = fx.docs.clone();
    docs[4] = b"<r><x><t>truncated</t>".to_vec();

    for &t in THREADS {
        let err = frozen
            .run_batch_parallel(docs.iter().map(|d| (SliceSource::new(d), Vec::new())), t)
            .expect_err("doc 4 is truncated");
        // The failing input is identified by its batch index — exactly
        // what the CLI needs to print the file name — and the display
        // carries it too.
        assert_eq!(err.index, 4, "t={t}");
        assert!(matches!(err.error, CoreError::UnexpectedEof { .. }), "t={t}: {}", err.error);
        assert!(err.to_string().contains("#4"), "t={t}: display {err}");

        // Nothing is poisoned: the same frozen automaton immediately runs
        // the clean batch, completely and correctly.
        let good = frozen
            .run_batch_parallel(fx.docs.iter().map(|d| (SliceSource::new(d), Vec::new())), t)
            .expect("clean batch after a cancelled one");
        assert_eq!(good.len(), fx.docs.len(), "t={t}");
        assert!(good.iter().all(|(out, _)| !out.is_empty()), "t={t}");
    }

    // Same story over mapped files: the error names the right shard.
    let tmps: Vec<TempDoc> = docs.iter().map(|d| TempDoc::new(d)).collect();
    let err = frozen
        .run_batch_parallel(
            tmps.iter().map(|tmp| (MmapSource::open(tmp.path()).expect("map doc"), Vec::new())),
            4,
        )
        .expect_err("mapped doc 4 is truncated");
    assert_eq!(err.index, 4);
}
