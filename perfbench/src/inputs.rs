//! Seeded inputs: the XMark documents, the query sets, and the digests
//! and reference cache the correctness checks key on.
//!
//! Everything here derives from the `--seed` argument; the program under
//! test sees only the generated documents and path sets.

use smpx_datagen::{xmark, GenOptions};
use smpx_paths::PathSet;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Where generated inputs, reference digests, traces and result records
/// live, relative to the checkout root the benchmark runs from.
pub const DATA_DIR: &str = ".bench_data";

/// Size of the `xmark-stream` document.
pub const XMARK_BYTES: usize = 128 << 20;

/// `pubsub-live` corpus: this many documents of [`PUBSUB_DOC_BYTES`].
pub const PUBSUB_DOCS: usize = 256;
pub const PUBSUB_DOC_BYTES: usize = 32 << 10;

/// One query: a name and its projection paths (the well-formedness
/// default `/*` included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    pub id: String,
    pub paths: Vec<String>,
}

impl Query {
    fn new(id: &str, paths: &[&str]) -> Query {
        Query { id: id.into(), paths: paths.iter().map(|p| (*p).to_owned()).collect() }
    }

    /// The parsed path set.
    pub fn path_set(&self) -> PathSet {
        PathSet::parse(&self.paths).expect("benchmark path sets are valid")
    }

    /// Digest of the path texts, for reference-cache keys.
    pub fn digest(&self) -> u64 {
        digest(self.paths.join("\n").as_bytes())
    }
}

/// The paper's Table I path sets for XMark (XM15/XM16 need the recursive
/// description lists the paper excludes).
const TABLE1: &[(&str, &[&str])] = &[
    ("XM1", &["/*", "/site/people/person", "/site/people/person/name#"]),
    ("XM2", &["/*", "/site/open_auctions/open_auction/bidder/increase#"]),
    ("XM3", &["/*", "/site/open_auctions/open_auction/bidder/increase#"]),
    (
        "XM4",
        &[
            "/*",
            "/site/open_auctions/open_auction/bidder/personref",
            "/site/open_auctions/open_auction/initial#",
        ],
    ),
    ("XM5", &["/*", "/site/closed_auctions/closed_auction/price#"]),
    ("XM6", &["/*", "/site/regions//item"]),
    ("XM7", &["/*", "//description", "//annotation", "//emailaddress"]),
    (
        "XM8",
        &[
            "/*",
            "/site/people/person",
            "/site/people/person/name#",
            "/site/closed_auctions/closed_auction/buyer",
        ],
    ),
    (
        "XM9",
        &[
            "/*",
            "/site/people/person",
            "/site/people/person/name#",
            "/site/closed_auctions/closed_auction/buyer",
            "/site/closed_auctions/closed_auction/itemref",
            "/site/regions/europe/item",
            "/site/regions/europe/item/name#",
        ],
    ),
    (
        "XM10",
        &[
            "/*",
            "/site/people/person/profile/interest",
            "/site/people/person/profile",
            "/site/people/person/name#",
            "/site/people/person/emailaddress#",
            "/site/people/person/homepage#",
            "/site/people/person/creditcard#",
            "/site/people/person/profile/gender#",
            "/site/people/person/profile/age#",
            "/site/people/person/profile/education#",
            "/site/people/person/profile/business#",
            "/site/people/person/address#",
        ],
    ),
    (
        "XM11",
        &[
            "/*",
            "/site/people/person/name#",
            "/site/people/person/profile",
            "/site/open_auctions/open_auction/initial#",
        ],
    ),
    (
        "XM12",
        &[
            "/*",
            "/site/people/person/name#",
            "/site/people/person/profile",
            "/site/open_auctions/open_auction/initial#",
        ],
    ),
    (
        "XM13",
        &["/*", "/site/regions/australia/item/name#", "/site/regions/australia/item/description#"],
    ),
    ("XM14", &["/*", "/site//item/name#", "/site//item/description#"]),
    ("XM17", &["/*", "/site/people/person/name#", "/site/people/person/homepage#"]),
    ("XM18", &["/*", "/site/open_auctions/open_auction/reserve#"]),
    ("XM19", &["/*", "/site/regions//item/name#", "/site/regions//item/location#"]),
    ("XM20", &["/*", "/site/people/person/profile", "/site/people/person"]),
];

/// A Table I query by id.
pub fn table1(id: &str) -> Query {
    let (id, paths) = TABLE1.iter().find(|(q, _)| *q == id).expect("a Table I query id");
    Query::new(id, paths)
}

/// The `pubsub-live` candidate pool: every Table I path set, plus one
/// variant per XMark region of each set that walks `/site/regions`
/// (`XM13@asia` asks XM13's question of the Asian items). Path sets
/// that repeat an earlier one are dropped.
pub fn pubsub_pool() -> Vec<Query> {
    let mut pool: Vec<Query> = TABLE1.iter().map(|(id, p)| Query::new(id, p)).collect();
    for (id, paths) in TABLE1 {
        if !paths.iter().any(|p| p.starts_with("/site/regions/")) {
            continue;
        }
        for region in xmark::REGIONS {
            let paths = paths.iter().map(|p| with_region(p, region)).collect::<Vec<_>>();
            let q = Query { id: format!("{id}@{region}"), paths };
            if !pool.iter().any(|e| e.paths == q.paths) {
                pool.push(q);
            }
        }
    }
    pool
}

/// `p` with its region step (named or `//`) pinned to `region`.
fn with_region(p: &str, region: &str) -> String {
    let Some(rest) = p.strip_prefix("/site/regions/") else { return p.to_owned() };
    let tail = match rest.strip_prefix('/') {
        Some(descendant) => descendant,
        None => rest.split_once('/').map_or("", |(_, t)| t),
    };
    if tail.is_empty() {
        format!("/site/regions/{region}")
    } else {
        format!("/site/regions/{region}/{tail}")
    }
}

/// SplitMix64: the benchmark's own seeded stream, so its inputs do not
/// depend on any other crate's generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform-enough index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded order of `0..n` (Fisher-Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.below(i + 1));
        }
        v
    }
}

/// The seed of sub-stream `stream` of workload seed `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93)).next_u64()
}

/// A 64-bit content digest (four multiply-rotate lanes). It guards
/// against corrupted or divergent outputs, not against adversaries.
pub fn digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut lanes = [
        0x243F_6A88_85A3_08D3u64,
        0x1319_8A2E_0370_7344,
        0xA409_3822_299F_31D0,
        0x082E_FA98_EC4E_6C89,
    ];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let w = u64::from_le_bytes(word.try_into().expect("8-byte word"));
            *lane = (*lane ^ w).wrapping_mul(K).rotate_left(29);
        }
    }
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = (h ^ lane).wrapping_mul(K).rotate_left(31);
    }
    for &b in blocks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(K).rotate_left(17);
    }
    h ^ (h >> 29)
}

/// An output's fingerprint: its length and digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint {
    pub len: u64,
    pub digest: u64,
}

impl Fingerprint {
    pub fn of(bytes: &[u8]) -> Fingerprint {
        Fingerprint { len: bytes.len() as u64, digest: digest(bytes) }
    }
}

/// The data directory, created on first use.
pub fn data_dir() -> io::Result<PathBuf> {
    let dir = PathBuf::from(DATA_DIR);
    fs::create_dir_all(dir.join("refs"))?;
    Ok(dir)
}

/// The seeded 128 MiB XMark document, in memory and as a file. The file
/// is synced before returning so that write-back does not overlap the
/// measured phase; documents of other seeds are removed to bound disk use.
pub struct XmarkInput {
    pub doc: Vec<u8>,
    pub path: PathBuf,
    pub digest: u64,
}

pub fn xmark_input(seed: u64) -> io::Result<XmarkInput> {
    let doc = xmark::generate(GenOptions::sized(XMARK_BYTES).with_seed(derive(seed, 1)));
    let dir = data_dir()?;
    let name = format!("xmark-{seed}.xml");
    for entry in fs::read_dir(&dir)? {
        let entry = entry?;
        let other = entry.file_name().to_string_lossy().into_owned();
        if other.starts_with("xmark-") && other.ends_with(".xml") && other != name {
            fs::remove_file(entry.path())?;
        }
    }
    let path = dir.join(name);
    let mut f = fs::File::create(&path)?;
    f.write_all(&doc)?;
    f.sync_all()?;
    let digest = digest(&doc);
    Ok(XmarkInput { doc, path, digest })
}

/// The seeded `pubsub-live` corpus.
pub fn pubsub_corpus(seed: u64) -> Vec<Vec<u8>> {
    (0..PUBSUB_DOCS as u64)
        .map(|i| {
            xmark::generate(GenOptions::sized(PUBSUB_DOC_BYTES).with_seed(derive(seed, 100 + i)))
        })
        .collect()
}

/// Reference fingerprints cached on disk by (input digest, query digest),
/// so an oracle result is computed once per input and query.
pub fn cached_reference(
    dir: &Path,
    doc_digest: u64,
    query_digest: u64,
    compute: impl FnOnce() -> io::Result<Fingerprint>,
) -> io::Result<Fingerprint> {
    let file = dir.join("refs").join(format!("{doc_digest:016x}-{query_digest:016x}"));
    if let Ok(text) = fs::read_to_string(&file) {
        let mut it = text.split_whitespace().map(|w| u64::from_str_radix(w, 16));
        if let (Some(Ok(len)), Some(Ok(digest))) = (it.next(), it.next()) {
            return Ok(Fingerprint { len, digest });
        }
    }
    let fp = compute()?;
    fs::write(&file, format!("{:x} {:x}\n", fp.len, fp.digest))?;
    Ok(fp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_sees_single_byte_changes_and_lengths() {
        let a = vec![7u8; 1000];
        let mut b = a.clone();
        b[500] ^= 1;
        assert_ne!(digest(&a), digest(&b));
        assert_ne!(digest(&a[..999]), digest(&a));
        assert_ne!(digest(b"abc"), digest(b"acb"));
        assert_eq!(digest(&a), digest(&a.clone()));
    }

    #[test]
    fn region_variants_pin_the_region_step() {
        assert_eq!(
            with_region("/site/regions//item/name#", "asia"),
            "/site/regions/asia/item/name#"
        );
        assert_eq!(with_region("/site/regions/europe/item", "africa"), "/site/regions/africa/item");
        assert_eq!(with_region("/site/people/person", "asia"), "/site/people/person");
        let pool = pubsub_pool();
        assert!(pool.iter().any(|q| q.id == "XM13@asia"));
        assert!(!pool.iter().any(|q| q.id == "XM13@australia"), "duplicates XM13");
        for q in &pool {
            q.path_set();
        }
    }

    #[test]
    fn seeds_derive_distinct_reproducible_streams() {
        assert_eq!(derive(1, 5), derive(1, 5));
        assert_ne!(derive(1, 5), derive(2, 5));
        assert_ne!(derive(1, 5), derive(1, 6));
        let mut r = Rng::new(3);
        assert!((0..100).all(|_| r.below(7) < 7));
        let order = Rng::new(3).permutation(40);
        assert_eq!(order, Rng::new(3).permutation(40));
        assert_ne!(order, Rng::new(4).permutation(40));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..40).collect::<Vec<_>>());
    }
}
