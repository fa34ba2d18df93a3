//! End-to-end CLI coverage for the dynamic lifecycle mode, the
//! numeric-override regression fixes and the `--stats-json` row
//! encoding, driving the real `smpx` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

const DTD: &str =
    r#"<!DOCTYPE a [ <!ELEMENT a (b|c)*> <!ELEMENT b (#PCDATA)> <!ELEMENT c (b,b?)> ]>"#;

/// A scratch directory with the shared DTD and three documents; removed
/// on drop so reruns stay clean.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("smpx-cli-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        std::fs::write(dir.join("a.dtd"), DTD).expect("write dtd");
        std::fs::write(dir.join("one.xml"), "<a><b>one</b></a>").expect("write doc");
        std::fs::write(dir.join("two.xml"), "<a><c><b>two</b></c></a>").expect("write doc");
        std::fs::write(dir.join("three.xml"), "<a><b>three</b><c><b>four</b></c></a>")
            .expect("write doc");
        Scratch { dir }
    }

    fn path(&self, name: &str) -> String {
        self.dir.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn smpx(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_smpx")).args(args).output().expect("run smpx")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn chunk_kb_overflow_is_rejected_as_usage_error() {
    let s = Scratch::new("chunk-overflow");
    // KiB -> bytes on this value overflows usize; the old code wrapped it
    // into a tiny/zero chunk in release and panicked in debug.
    let huge = (usize::MAX / 2).to_string();
    let out = smpx(&[
        "--dtd",
        &s.path("a.dtd"),
        "--query",
        "/a/b",
        "--chunk-kb",
        &huge,
        &s.path("one.xml"),
    ]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("usage:"), "stderr: {}", stderr_of(&out));
    assert!(out.stdout.is_empty(), "no output on a rejected invocation");
}

#[test]
fn chunk_kb_zero_and_garbage_are_rejected_but_valid_values_work() {
    let s = Scratch::new("chunk-valid");
    for bad in ["0", "forty", ""] {
        let out = smpx(&[
            "--dtd",
            &s.path("a.dtd"),
            "--query",
            "/a/b",
            "--chunk-kb",
            bad,
            &s.path("one.xml"),
        ]);
        assert_eq!(out.status.code(), Some(2), "--chunk-kb {bad:?} must be a usage error");
    }
    let out = smpx(&[
        "--dtd",
        &s.path("a.dtd"),
        "--query",
        "/a/b",
        "--chunk-kb",
        "4",
        &s.path("one.xml"),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    assert_eq!(out.stdout, b"<a><b>one</b></a>");
}

#[test]
fn lifecycle_edits_apply_between_inputs_and_print_generations() {
    let s = Scratch::new("lifecycle");
    let out = smpx(&[
        "--dtd",
        &s.path("a.dtd"),
        "--query",
        "/a/b",
        &s.path("one.xml"),
        "--add-query",
        "//c",
        &s.path("two.xml"),
        "--remove-query",
        "0",
        &s.path("three.xml"),
        "--stats",
    ]);
    let err = stderr_of(&out);
    assert!(out.status.success(), "stderr: {err}");
    // one.xml under {q0=/a/b}; two.xml under {q0, q1=//c}; three.xml
    // under {q1} alone — its /a/b content is projected away.
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "<a><b>one</b></a><a><c><b>two</b></c></a><a><c><b>four</b></c></a>"
    );
    assert!(err.contains("generation 0 (1 live / 1 allocated queries)"), "stderr: {err}");
    assert!(err.contains("added query q1: //c"), "stderr: {err}");
    assert!(err.contains("generation 1 (2 live / 2 allocated queries)"), "stderr: {err}");
    assert!(err.contains("removed query q0"), "stderr: {err}");
    assert!(err.contains("generation 2 (1 live / 2 allocated queries)"), "stderr: {err}");
    // Verdicts stay in stable external ids: two.xml matches only the
    // added query, three.xml reports the removed id unmatched at width 2.
    assert!(err.contains("matched 1/1 queries [q0] (generation 0)"), "stderr: {err}");
    assert!(err.contains("matched 1/2 queries [q1] (generation 1)"), "stderr: {err}");
    assert!(err.contains("matched 1/2 queries [q1] (generation 2)"), "stderr: {err}");
    assert!(err.contains("final generation 2"), "stderr: {err}");
}

#[test]
fn lifecycle_rejects_bad_edits_and_paths_workloads() {
    let s = Scratch::new("lifecycle-errors");
    // Removing an id that was never allocated fails the run.
    let out = smpx(&[
        "--dtd",
        &s.path("a.dtd"),
        "--query",
        "/a/b",
        &s.path("one.xml"),
        "--remove-query",
        "9",
        &s.path("two.xml"),
    ]);
    assert_eq!(out.status.code(), Some(1), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("never registered"), "stderr: {}", stderr_of(&out));

    // Lifecycle edits need a --query seed; --paths has no query ids.
    let out = smpx(&[
        "--dtd",
        &s.path("a.dtd"),
        "--paths",
        "/a/b",
        "--add-query",
        "//c",
        &s.path("one.xml"),
    ]);
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr_of(&out));
    assert!(stderr_of(&out).contains("--query seed"), "stderr: {}", stderr_of(&out));
}

#[test]
fn lifecycle_mode_works_pooled() {
    let s = Scratch::new("lifecycle-pooled");
    let out = smpx(&[
        "--dtd",
        &s.path("a.dtd"),
        "--query",
        "/a/b",
        "--threads",
        "4",
        &s.path("one.xml"),
        &s.path("three.xml"),
        "--add-query",
        "//c",
        "--remove-query",
        "0",
        &s.path("two.xml"),
        &s.path("three.xml"),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    // Batch 1 under /a/b keeps b-content; batch 2 — after the back-to-back
    // add+remove swapped the workload to //c alone — keeps only
    // c-subtrees. (The add must precede the remove: dropping the last
    // live query is refused.)
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "<a><b>one</b></a><a><b>three</b></a><a><c><b>two</b></c></a><a><c><b>four</b></c></a>"
    );
}

#[test]
fn stats_json_escapes_control_characters_in_file_names() {
    let s = Scratch::new("stats-json");
    let weird = s.path("we\tird.xml");
    std::fs::write(&weird, "<a><b>one</b></a>").expect("write doc");
    let rows = s.path("rows.json");
    let out = smpx(&["--dtd", &s.path("a.dtd"), "--query", "/a/b", "--stats-json", &rows, &weird]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let json = std::fs::read_to_string(&rows).expect("stats rows written");
    let row = json.lines().find(|l| l.contains("ird.xml")).expect("a row for the input");
    assert!(row.contains("we\\u0009ird.xml"), "tab not escaped: {row:?}");
    assert!(!row.bytes().any(|b| b < 0x20), "raw control byte in {row:?}");
}
