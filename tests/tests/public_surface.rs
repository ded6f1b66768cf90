//! Public-surface census (ROADMAP items 11 and 16): every `pub fn` in a
//! library must be named, as a whole word, outside that library — `pub`
//! means "crosses a crate boundary". Offenders are reported as
//! `crate::name`, where `crate` is the directory under `crates/`; there is
//! no allow-list.
//!
//! A library is `crates/<crate>/src` minus its binaries (`src/bin/`,
//! `src/main.rs`). Everything else scanned is outside it: other crates, the
//! crate's own `tests/`, `benches/` and binaries, and `tests/`,
//! `examples/`, `benchmark/src/` and `spechd/`. Code in a doc-comment code
//! block is outside too, because rustdoc compiles it as another crate. A
//! name used only by the library itself, its `#[cfg(test)]` modules
//! included, should be `pub(crate)`, test-only or gone.
//!
//! It is a word census, not name resolution — a `pub fn` sharing its name
//! with any identifier outside its library passes — so it under-reports;
//! what it does report has no caller outside its library.

use std::collections::{BTreeSet, HashMap};
use std::path::{Path, PathBuf};

const SCANNED: [&str; 5] = ["crates", "tests", "examples", "benchmark/src", "spechd"];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display()));
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

fn words(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
}

/// The crate whose library `rel` (relative to the root) belongs to, if any.
fn library_of(rel: &Path) -> Option<&str> {
    let parts: Vec<&str> = rel
        .components()
        .map(|c| c.as_os_str().to_str().expect("utf-8 path"))
        .collect();
    match parts.as_slice() {
        ["crates", _, "src", "bin", ..] | ["crates", _, "src", "main.rs"] => None,
        ["crates", krate, "src", ..] => Some(krate),
        _ => None,
    }
}

/// Splits a library file into its own code and the code of its doc-comment
/// code blocks, which rustdoc builds as another crate.
fn split_doc_code(text: &str) -> (String, String) {
    let (mut own, mut doc_code) = (String::new(), String::new());
    let mut in_block = false;
    for line in text.lines() {
        let trimmed = line.trim_start();
        let doc = trimmed
            .strip_prefix("///")
            .or_else(|| trimmed.strip_prefix("//!"));
        match doc {
            Some(doc) if doc.trim_start().starts_with("```") => in_block = !in_block,
            Some(doc) if in_block => {
                doc_code.push_str(doc);
                doc_code.push('\n');
            }
            _ => {
                in_block &= doc.is_some();
                own.push_str(line);
                own.push('\n');
            }
        }
    }
    (own, doc_code)
}

/// `crate::name` of every library `pub fn` that nothing outside its library
/// names, and the number of `pub fn` definitions looked at.
fn census(root: &Path) -> (BTreeSet<String>, usize) {
    let mut files = Vec::new();
    for dir in SCANNED {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();

    // (library or "" for outside, text) for every scanned piece of code.
    let mut pieces: Vec<(&str, String)> = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        match library_of(file.strip_prefix(root).expect("under the root")) {
            Some(krate) => {
                let (own, doc_code) = split_doc_code(&text);
                pieces.push((krate, own));
                pieces.push(("", doc_code));
            }
            None => pieces.push(("", text)),
        }
    }

    // For each word, the first place naming it and whether another does.
    let mut named_in: HashMap<&str, (&str, bool)> = HashMap::new();
    for (place, text) in &pieces {
        for word in words(text) {
            let entry = named_in.entry(word).or_insert((place, false));
            entry.1 |= entry.0 != *place;
        }
    }

    let mut offenders = BTreeSet::new();
    let mut defined = 0;
    for (place, text) in &pieces {
        if place.is_empty() {
            continue;
        }
        for (at, _) in text.match_indices("pub fn ") {
            let rest = &text[at + "pub fn ".len()..];
            let name = words(rest).next().expect("a name follows `pub fn`");
            defined += 1;
            let (first, elsewhere) = named_in[name];
            if first == *place && !elsewhere {
                offenders.insert(format!("{place}::{name}"));
            }
        }
    }
    (offenders, defined)
}

#[test]
fn every_pub_fn_is_named_outside_its_library() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ sits in the repo root");
    let (offenders, defined) = census(root);
    assert!(
        defined > 400,
        "census saw only {defined} `pub fn`: wrong root?"
    );
    assert!(
        offenders.is_empty(),
        "`pub fn` named nowhere outside its library — call it from another crate, \
         make it `pub(crate)` or test-only, or delete it: {offenders:?}"
    );
}
