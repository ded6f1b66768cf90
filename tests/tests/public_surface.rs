//! Public-surface census (ROADMAP item 11): every `pub fn` under
//! `crates/*/src` must be named, as a whole word, in some `.rs` file other
//! than the one that defines it — under `crates/`, `tests/`, `examples/`,
//! `benchmark/src/` or `spechd/`. Offenders are reported as `crate::name`,
//! where `crate` is the directory under `crates/`; there is no allow-list.
//!
//! It is a word census, not name resolution — a `pub fn` sharing its name
//! with any identifier in another file passes — so it under-reports; what
//! it does report has no caller anywhere.

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

/// `crate::name` of every `pub fn` in `crates/<crate>/src/**` that no other
/// scanned file names, and the number of `pub fn` definitions looked at.
fn census(root: &Path) -> (BTreeSet<String>, usize) {
    let mut files = Vec::new();
    for dir in SCANNED {
        rust_files(&root.join(dir), &mut files);
    }
    files.sort();
    let texts: Vec<String> = files
        .iter()
        .map(|f| std::fs::read_to_string(f).unwrap_or_else(|e| panic!("read {}: {e}", f.display())))
        .collect();

    // For each word, the first file naming it and whether a second one does.
    let mut named_in: HashMap<&str, (usize, bool)> = HashMap::new();
    for (file, text) in texts.iter().enumerate() {
        for word in words(text) {
            let entry = named_in.entry(word).or_insert((file, false));
            entry.1 |= entry.0 != file;
        }
    }

    let mut offenders = BTreeSet::new();
    let mut defined = 0;
    for (file, text) in texts.iter().enumerate() {
        let rel = files[file].strip_prefix(root).expect("under the root");
        let mut parts = rel
            .components()
            .map(|c| c.as_os_str().to_str().expect("utf-8 path"));
        let (Some("crates"), Some(krate), Some("src")) = (parts.next(), parts.next(), parts.next())
        else {
            continue;
        };
        for (at, _) in text.match_indices("pub fn ") {
            let rest = &text[at + "pub fn ".len()..];
            let name = words(rest).next().expect("a name follows `pub fn`");
            defined += 1;
            let (first, elsewhere) = named_in[name];
            if first == file && !elsewhere {
                offenders.insert(format!("{krate}::{name}"));
            }
        }
    }
    (offenders, defined)
}

#[test]
fn every_pub_fn_is_named_outside_its_file_or_allow_listed() {
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
        "`pub fn` named in no file but its own — call it, make it private or delete it: \
         {offenders:?}"
    );
}
