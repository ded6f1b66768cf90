//! Public-surface census (ROADMAP items 11 and 16): `pub` means "crosses
//! a boundary", checked by two word censuses with no allow-list.
//!
//! - Every `pub fn` in a library must be named, as a whole word, outside
//!   that library. Offenders are reported as `crate::name`, where `crate`
//!   is the directory under `crates/`.
//! - Every `pub struct`, `pub enum` and `pub trait` must be named outside
//!   the file that defines it — by a re-export, another module, another
//!   crate — or say in one line of its doc, starting `Public as`, what
//!   makes it public. Offenders are reported as `file::name`.
//!
//! A library is `crates/<crate>/src` minus its binaries (`src/bin/`,
//! `src/main.rs`). Everything else scanned is outside it: other crates, the
//! crate's own `tests/`, `benches/` and binaries, and `tests/`,
//! `examples/`, `benchmark/src/` and `spechd/`. Code in a doc-comment code
//! block is outside too, because rustdoc compiles it as another crate. A
//! name used only by the library itself, its `#[cfg(test)]` modules
//! included, should be `pub(crate)`, test-only or gone.
//!
//! It is a word census, not name resolution — an item sharing its name
//! with any identifier outside its scope passes — so it under-reports;
//! what it does report has no user outside its scope.

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

/// What a definition must be named outside of.
#[derive(Clone, Copy, PartialEq)]
enum Scope {
    Library,
    File,
}

/// Whether the doc comment above byte `at` of `text` has a line starting
/// `Public as`.
fn justified(text: &str, at: usize) -> bool {
    let above = text[..text[..at].rfind('\n').unwrap_or(0)].lines().rev();
    let doc = above
        .map(str::trim_start)
        .skip_while(|line| line.starts_with("#["))
        .take_while(|line| line.starts_with("///"));
    doc.into_iter().any(|line| {
        line.trim_start_matches('/')
            .trim_start()
            .starts_with("Public as")
    })
}

/// `place::name` of every library item one of `keywords` (`"pub fn "`, …)
/// defines that nothing outside its `scope` names, and the number of
/// definitions looked at.
fn census(keywords: &[&str], scope: Scope) -> (BTreeSet<String>, usize) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("tests/ sits in the repo root");
    let mut files = Vec::new();
    for dir in SCANNED {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();

    // (scope, or "" for outside every library, text) for every scanned
    // piece of code.
    let mut pieces: Vec<(String, String)> = Vec::new();
    for file in &files {
        let text = std::fs::read_to_string(file)
            .unwrap_or_else(|e| panic!("read {}: {e}", file.display()));
        let rel = file.strip_prefix(root).expect("under the root");
        match library_of(rel) {
            Some(krate) => {
                let (own, doc_code) = split_doc_code(&text);
                let place = match scope {
                    Scope::Library => krate.to_string(),
                    Scope::File => rel.display().to_string(),
                };
                pieces.push((place, own));
                pieces.push((String::new(), doc_code));
            }
            None => pieces.push((String::new(), text)),
        }
    }

    // For each word, the first place naming it and whether another does.
    let mut named_in: HashMap<&str, (&str, bool)> = HashMap::new();
    for (place, text) in &pieces {
        for word in words(text) {
            let entry = named_in.entry(word).or_insert((place, false));
            entry.1 |= entry.0 != place;
        }
    }

    let mut offenders = BTreeSet::new();
    let mut defined = 0;
    for (place, text) in &pieces {
        if place.is_empty() {
            continue;
        }
        for keyword in keywords {
            for (at, _) in text.match_indices(keyword) {
                let rest = &text[at + keyword.len()..];
                let name = words(rest).next().expect("a name follows the keyword");
                defined += 1;
                let (first, elsewhere) = named_in[name];
                let exempt = scope == Scope::File && justified(text, at);
                if first == place && !elsewhere && !exempt {
                    offenders.insert(format!("{place}::{name}"));
                }
            }
        }
    }
    (offenders, defined)
}

#[test]
fn every_pub_fn_is_named_outside_its_library() {
    let (offenders, defined) = census(&["pub fn "], Scope::Library);
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

/// A `pub struct`, `pub enum` or `pub trait` no other file names, and
/// whose doc does not say what makes it public, is `pub(crate)` or gone.
#[test]
fn every_pub_type_is_named_outside_its_file() {
    let (offenders, defined) = census(&["pub struct ", "pub enum ", "pub trait "], Scope::File);
    assert!(
        defined > 100,
        "census saw only {defined} `pub` types: wrong root?"
    );
    assert!(
        offenders.is_empty(),
        "`pub` type named in no file but its own — make it `pub(crate)`, delete it, or \
         say in a `/// Public as …` doc line what makes it public: {offenders:?}"
    );
}
