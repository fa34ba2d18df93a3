//! End-to-end pipelines over the three generated datasets at realistic
//! (test-sized) volumes: SMP output equals the token-level oracle, is
//! well-formed, agrees between slice and streaming modes, and the
//! statistics stay in the paper's corridors.

use smpx_baselines::TokenProjector;
use smpx_core::{CoreError, Prefilter, ReaderSource};
use smpx_datagen::{medline, protein, xmark, GenOptions};
use smpx_dtd::Dtd;
use smpx_paths::PathSet;

const SIZE: usize = 512 * 1024;

fn check_dataset(name: &str, dtd_text: &str, doc: &[u8], path_sets: &[&[&str]]) {
    let dtd = Dtd::parse(dtd_text.as_bytes()).unwrap();
    for (i, texts) in path_sets.iter().enumerate() {
        let paths = PathSet::parse(texts).unwrap();
        let mut pf =
            Prefilter::compile(&dtd, &paths).unwrap_or_else(|e| panic!("{name}[{i}] compile: {e}"));
        let (out, stats) = pf.filter_to_vec(doc).unwrap();

        // Oracle equality.
        let oracle = TokenProjector::new(&paths).project(doc).unwrap();
        assert_eq!(out, oracle, "{name}[{i}]: SMP and oracle disagree (paths {paths})");

        // Well-formed output.
        if !out.is_empty() {
            smpx_xml::check_well_formed(&out)
                .unwrap_or_else(|e| panic!("{name}[{i}]: output malformed: {e}"));
        }

        // The headline property: the scan inspects a strict subset of the
        // characters (paper corridor: 8–23%; we allow headroom for small
        // documents and dense queries).
        assert!(
            stats.char_comp_pct() < 65.0,
            "{name}[{i}]: inspected {:.1}%",
            stats.char_comp_pct()
        );
        assert!(stats.avg_shift() > 1.0, "{name}[{i}]: no skipping happened");

        // Streaming equivalence at the paper's chunk size and a hostile one.
        for chunk in [smpx_core::runtime::DEFAULT_CHUNK, 37] {
            let mut streamed = Vec::new();
            pf.filter_stream(doc, &mut streamed, chunk).unwrap();
            assert_eq!(streamed, out, "{name}[{i}] chunk {chunk}");
        }
    }
}

#[test]
fn xmark_end_to_end() {
    let doc = xmark::generate(GenOptions::sized(SIZE));
    check_dataset(
        "xmark",
        xmark::XMARK_DTD,
        &doc,
        &[
            &[
                "/*",
                "/site/regions/australia/item/name#",
                "/site/regions/australia/item/description#",
            ],
            &["/*", "/site//item/name#", "/site//item/description#"],
            &["/*", "/site/regions//item"],
            &["/*", "//description", "//annotation", "//emailaddress"],
            &["/*", "/site/people/person", "/site/people/person/name#"],
            &["/*", "/site/open_auctions/open_auction/bidder/increase#"],
        ],
    );
}

#[test]
fn medline_end_to_end() {
    let doc = medline::generate(GenOptions::sized(SIZE));
    check_dataset(
        "medline",
        medline::MEDLINE_DTD,
        &doc,
        &[
            &["/*", "/MedlineCitationSet//CollectionTitle#"],
            &[
                "/*",
                "/MedlineCitationSet//DataBank/DataBankName#",
                "/MedlineCitationSet//DataBank/AccessionNumberList#",
            ],
            &["/*", "/MedlineCitationSet//CopyrightInformation#"],
            &[
                "/*",
                "/MedlineCitationSet/MedlineCitation/MedlineJournalInfo#",
                "/MedlineCitationSet/MedlineCitation/DateCompleted#",
            ],
        ],
    );
}

#[test]
fn protein_end_to_end() {
    let doc = protein::generate(GenOptions::sized(SIZE));
    check_dataset(
        "protein",
        protein::PROTEIN_DTD,
        &doc,
        &[
            &["/*", "/ProteinDatabase/ProteinEntry/protein/name#"],
            &["/*", "//refinfo/authors#"],
            &["/*", "/ProteinDatabase/ProteinEntry/sequence#"],
            &["/*", "//keyword"],
        ],
    );
}

/// Compiling once and filtering many documents must be deterministic and
/// reusable (lazy matcher tables persist across runs).
#[test]
fn prefilter_reuse_across_documents() {
    let dtd = Dtd::parse(xmark::XMARK_DTD.as_bytes()).unwrap();
    let paths = PathSet::parse(&["/*", "/site/regions/australia/item/name#"]).unwrap();
    let mut pf = Prefilter::compile(&dtd, &paths).unwrap();
    let mut sizes = Vec::new();
    for seed in 0..3u64 {
        let doc = xmark::generate(GenOptions::sized(128 * 1024).with_seed(seed));
        let (a, _) = pf.filter_to_vec(&doc).unwrap();
        let (b, _) = pf.filter_to_vec(&doc).unwrap();
        assert_eq!(a, b, "same document must project identically");
        sizes.push(a.len());
    }
    assert!(sizes.iter().any(|&s| s > 0));
}

/// A reader that yields `left` bytes of text, then fails with `msg`.
struct FailAfter {
    left: usize,
    msg: &'static str,
}

impl std::io::Read for FailAfter {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.left == 0 {
            return Err(std::io::Error::other(self.msg));
        }
        let n = self.left.min(buf.len());
        buf[..n].fill(b'q');
        self.left -= n;
        Ok(n)
    }
}

/// A read failure in the middle of a streamed document reaches the
/// caller of `filter_source` as `CoreError::Io`, wording intact.
#[test]
fn mid_stream_error_surfaces_through_filter_source() {
    let dtd = Dtd::parse(b"<!ELEMENT r (#PCDATA)>").unwrap();
    let paths = PathSet::parse(&["/*"]).unwrap();
    let mut pf = Prefilter::compile(&dtd, &paths).unwrap();
    const MSG: &str = "injected mid-stream failure";
    let err = pf
        .filter_source(ReaderSource::new(FailAfter { left: 96, msg: MSG }, 32), std::io::sink())
        .expect_err("the stream fails before it ends");
    assert!(matches!(err, CoreError::Io(_)), "error kind: {err}");
    assert_eq!(err.to_string(), format!("I/O error: {MSG}"));
}

/// The paper's scale claim in miniature: the fraction of inspected
/// characters stays flat as the document grows.
#[test]
fn char_comp_ratio_is_scale_invariant() {
    let dtd = Dtd::parse(xmark::XMARK_DTD.as_bytes()).unwrap();
    let paths = PathSet::parse(&["/*", "/site/closed_auctions/closed_auction/price#"]).unwrap();
    let mut ratios = Vec::new();
    for size in [256 * 1024, 512 * 1024, 1024 * 1024] {
        let doc = xmark::generate(GenOptions::sized(size));
        let mut pf = Prefilter::compile(&dtd, &paths).unwrap();
        let (_, stats) = pf.filter_to_vec(&doc).unwrap();
        ratios.push(stats.char_comp_pct());
    }
    let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = ratios.iter().cloned().fold(0.0, f64::max);
    assert!(max - min < 6.0, "the paper observes tiny deviations across sizes; got {ratios:?}");
}
