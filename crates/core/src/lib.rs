//! SMP — XML prefiltering as a string matching problem.
//!
//! The primary contribution of Koch, Scherzinger, Schmidt (ICDE 2008),
//! reproduced in full:
//!
//! * **Static analysis** ([`compile`]): from a non-recursive DTD and a set
//!   of projection paths, select the automaton states the runtime must
//!   visit (Fig. 6 steps (a)–(c)), contract the DTD-automaton to the
//!   subgraph automaton `D|S` (Def. 4) with minimal-gap annotations,
//!   determinize it, and emit the four lookup tables `A` (transitions),
//!   `V` (frontier vocabularies), `J` (initial jump offsets) and `T`
//!   (actions) — packaged as [`CompiledTables`].
//! * **Runtime** ([`runtime`]): the Fig. 4 loop. In each automaton state
//!   the frontier vocabulary is searched with Boyer–Moore (one keyword) or
//!   Commentz–Walter (several), after an initial jump of `J[q]` characters;
//!   the trailing `>`/`/>` is sought locally; the state transition fires the
//!   associated copy action. Only a fraction of the input is ever
//!   inspected.
//!
//! # Quick start
//!
//! ```
//! use smpx_core::Prefilter;
//! use smpx_dtd::Dtd;
//! use smpx_paths::PathSet;
//!
//! let dtd = Dtd::parse(br#"<!DOCTYPE a [
//!     <!ELEMENT a (b|c)*> <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>"#).unwrap();
//! let paths = PathSet::parse(&["/*", "/a/b#"]).unwrap();
//! let mut pf = Prefilter::compile(&dtd, &paths).unwrap();
//!
//! let doc = b"<a><c><b>skip me</b></c><b>keep me</b><c><b>no</b></c></a>";
//! let (out, stats) = pf.filter_to_vec(doc).unwrap();
//! assert_eq!(out, b"<a><b>keep me</b></a>");
//! assert!(stats.chars_compared < doc.len() as u64);
//! ```

// `unsafe` is denied crate-wide and allowed back in exactly one place:
// the `extern "C"` mmap shim in `runtime::source::mmap`, each call with
// its bounds argument spelled out (same policy as
// `smpx_stringmatch::memscan`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod compile;
mod error;
pub mod idset;
pub mod lifecycle;
pub mod obs;
pub mod registry;
pub mod runtime;
mod stats;

pub use compile::{Action, Attribution, CompiledTables, RtState};
pub use error::CoreError;
pub use idset::{QueryId, QueryIdSet};
pub use lifecycle::{Generation, SharedPrefilter};
pub use registry::{MultiPrefilter, QueryRegistry};
pub use runtime::parallel::{BatchError, FrozenPrefilter, Pool, DEFAULT_AUTO_SHARD_BYTES};
pub use runtime::source::{DocSource, MmapSource, ReaderSource, SliceSource, SourceKind};
pub use runtime::Prefilter;
pub use stats::{MultiVerdict, RunStats};
