//! ROADMAP item 13, the cheap half: a file the docs name is a file that
//! exists. README.md and DESIGN.md are read for every repo-relative path with
//! an extension under `crates/`, `tests/`, `src/`, `benchmark/` or `results/`
//! (a glob or a `{a,b}` set is not a path and is skipped), and each must be
//! there — so a rename or a deletion has to touch the sentence that names it.
//! What `.gitignore` lists by name is an output a run leaves behind, absent
//! from a fresh checkout by design.

use std::path::Path;

const ROOTS: [&str; 5] = ["crates/", "tests/", "src/", "benchmark/", "results/"];

/// Characters a path is made of; anything else ends it.
fn in_path(c: char) -> bool {
    c.is_ascii_alphanumeric() || matches!(c, '/' | '_' | '-' | '.')
}

/// Every `ROOTS`-prefixed path with an extension in `text`, with its line.
fn named_paths(text: &str) -> Vec<(usize, &str)> {
    let mut found = Vec::new();
    for (n, line) in text.lines().enumerate() {
        for root in ROOTS {
            for (at, _) in line.match_indices(root) {
                // `crates/engine/tests/x.rs` is one path, not also `tests/x.rs`.
                if line[..at].chars().next_back().is_some_and(in_path) {
                    continue;
                }
                let rest = &line[at..];
                let end = rest.find(|c| !in_path(c)).unwrap_or(rest.len());
                // A glob or a brace set continues past what was taken.
                if rest[end..].starts_with(['*', '{', '<']) {
                    continue;
                }
                let path = rest[..end].trim_end_matches('.');
                let file = path.rsplit('/').next().unwrap_or(path);
                if file.rsplit_once('.').is_some_and(|(stem, ext)| {
                    !stem.is_empty() && !ext.is_empty() && ext.chars().all(char::is_alphanumeric)
                }) {
                    found.push((n + 1, path));
                }
            }
        }
    }
    found
}

#[test]
fn docs_name_files_that_exist() {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let read = |file: &str| std::fs::read_to_string(repo.join(file)).expect("readable");
    let ignored = read(".gitignore");
    let mut missing = Vec::new();
    let mut checked = 0;
    for doc in ["README.md", "DESIGN.md"] {
        let text = read(doc);
        for (line, path) in named_paths(&text) {
            checked += 1;
            let output = ignored.lines().any(|l| l.strip_prefix('/') == Some(path));
            if !output && !repo.join(path).exists() {
                missing.push(format!("{doc}:{line}: {path}"));
            }
        }
    }
    assert!(checked > 15, "scanner broken? {checked} paths");
    let missing = missing.join("\n");
    assert!(
        missing.is_empty(),
        "docs name files that are not there:\n{missing}"
    );
}

#[test]
fn the_scanner_reads_paths_the_way_the_docs_write_them() {
    let text = "see `crates/engine/tests/x_y.rs`, tests/a-b.rs. and (results/B.json);\n\
                not crates/{core,engine}/src/lib.rs, results/BENCH_*.json, src/ or tests/dir";
    let paths: Vec<&str> = named_paths(text).into_iter().map(|(_, p)| p).collect();
    assert_eq!(
        paths,
        [
            "crates/engine/tests/x_y.rs",
            "tests/a-b.rs",
            "results/B.json"
        ]
    );
}
