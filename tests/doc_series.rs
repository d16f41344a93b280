//! The docs name only series the program registers.
//!
//! Every fully spelled `qens_*` name in README, DESIGN and EXPERIMENTS
//! must occur as a string literal in the non-test source of
//! `crates/*/src` (the lines above each file's first `#[cfg(test)]`).
//! Brace lists (`qens_index_{rebuilds,patches}_total`) expand to one
//! name each, the `_bucket`, `_sum` and `_count` sample suffixes are
//! stripped, a label set (`{node="3"}`, `{version,profile}`) ends the
//! name, and a prefix
//! that ends in `_` (`qens_fault_*`) names a family, not a series.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

const DOCS: [&str; 3] = ["README.md", "DESIGN.md", "EXPERIMENTS.md"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// The `.rs` files under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("read source dir") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `"qens_…"` string literal in the non-test source.
fn source_literals() -> BTreeSet<String> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(repo_root().join("crates")).expect("read crates") {
        let src = krate.expect("crate entry").path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    let mut literals = BTreeSet::new();
    for file in files {
        let text = std::fs::read_to_string(&file).expect("read source file");
        for line in text.lines().take_while(|l| l.trim() != "#[cfg(test)]") {
            for (i, quoted) in line.split('"').enumerate() {
                if i % 2 == 1 && quoted.starts_with("qens_") {
                    literals.insert(quoted.to_string());
                }
            }
        }
    }
    literals
}

/// The series names `text` spells out in full.
fn named_series(text: &str) -> BTreeSet<String> {
    let is_name = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
    let mut names = BTreeSet::new();
    for (start, _) in text.match_indices("qens_") {
        // Not the tail of a longer identifier (`xqens_`).
        if text[..start].chars().next_back().is_some_and(is_name) {
            continue;
        }
        let rest = &text[start..];
        let end = rest
            .find(|c: char| !(is_name(c) || "{},".contains(c)))
            .unwrap_or(rest.len());
        for name in expand(rest[..end].trim_end_matches(',')) {
            let name = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|s| name.strip_suffix(s))
                .unwrap_or(&name)
                .to_string();
            if !name.ends_with('_') {
                names.insert(name);
            }
        }
    }
    names
}

/// Expands the brace lists in `token`. A brace that ends the token, or
/// that the token does not close (`{node="3"}` is cut at the `=`), is a
/// label set: the name ends before it.
fn expand(token: &str) -> Vec<String> {
    let Some(open) = token.find('{') else {
        return vec![token.to_string()];
    };
    let close = token[open..].find('}').map(|c| open + c);
    let Some(close) = close.filter(|&c| c + 1 < token.len()) else {
        return vec![token[..open].to_string()];
    };
    token[open + 1..close]
        .split(',')
        .flat_map(|alt| expand(&format!("{}{alt}{}", &token[..open], &token[close + 1..])))
        .collect()
}

#[test]
fn brace_lists_expand_and_suffixes_strip() {
    let names = named_series(
        "`qens_index_{rebuilds,patches}_total`, qens_x_nanos_bucket, \
         `qens_fault_*`, qens_node_selected_total{node=\"3\"}, qens_build_info{version,profile} \
         and qens_y_count.",
    );
    let want = [
        "qens_build_info",
        "qens_index_patches_total",
        "qens_index_rebuilds_total",
        "qens_node_selected_total",
        "qens_x_nanos",
        "qens_y",
    ];
    assert_eq!(names.iter().map(String::as_str).collect::<Vec<_>>(), want);
}

#[test]
fn every_series_the_docs_name_is_in_the_source() {
    let literals = source_literals();
    assert!(
        literals.contains("qens_fedlearn_run_query_nanos"),
        "the source scan found the registered names"
    );
    let mut stale = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(repo_root().join(doc)).expect("read doc");
        for name in named_series(&text) {
            if !literals.contains(&name) {
                stale.push(format!("{doc}: {name}"));
            }
        }
    }
    assert!(
        stale.is_empty(),
        "the docs name series no source registers:\n{}",
        stale.join("\n")
    );
}
