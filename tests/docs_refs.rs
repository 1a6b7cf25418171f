//! The docs checked against the tree: every backticked `crates/…`,
//! `tests/…`, `results/…` or `scripts/…` path, every `exp_*` binary, every
//! `--test name` and every benchmark metric name that README.md, DESIGN.md,
//! EXPERIMENTS.md, ROADMAP.md or the verify skill mentions has to exist.
//! What a document quotes as *gone* is listed in [`QUOTED_AS_DELETED`].

mod source_scan;

use std::collections::BTreeSet;
use std::fs;

use source_scan::root;

const DOCS: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    "ROADMAP.md",
    ".claude/skills/verify/SKILL.md",
];

/// Names the documents mention to say they were removed.
const QUOTED_AS_DELETED: &[&str] = &[];

/// The code of `doc`: its backticked spans and the lines of its fenced
/// blocks, one entry each.
fn code_spans(doc: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if fenced {
            spans.push(line);
        } else {
            spans.extend(line.split('`').skip(1).step_by(2));
        }
    }
    spans
}

/// `a/{b,c}.rs` → `a/b.rs`, `a/c.rs` (one level, which is all the docs use).
fn expand_braces(token: &str) -> Vec<String> {
    match (token.find('{'), token.find('}')) {
        (Some(open), Some(close)) if open < close => token[open + 1..close]
            .split(',')
            .map(|alt| format!("{}{}{}", &token[..open], alt.trim(), &token[close + 1..]))
            .collect(),
        _ => vec![token.to_owned()],
    }
}

/// Whether `path` names something in the tree. A wildcard (`*`, `<N>`, `…`)
/// is checked up to the directory before it.
fn path_exists(path: &str) -> bool {
    let path = path.split("::").next().unwrap_or(path);
    let path = path.trim_end_matches(|c: char| !c.is_alphanumeric() && c != '/' && c != '*');
    let path = match path.rsplit_once(':') {
        Some((file, line)) if line.chars().all(|c| c.is_ascii_digit()) => file,
        _ => path,
    };
    match path.find(['*', '<', '…']) {
        Some(wild) => {
            let dir = path[..wild].rsplit_once('/').map_or("", |(dir, _)| dir);
            root().join(dir).is_dir()
        }
        None => root().join(path).exists(),
    }
}

/// The metric names `BENCHMARK.json` declares.
fn benchmark_metrics() -> BTreeSet<String> {
    let json = fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let names = json.split("\"name\": \"").skip(1);
    names
        .filter_map(|rest| rest.split('"').next())
        .map(str::to_owned)
        .collect()
}

fn is_test_target(name: &str) -> bool {
    let in_crate = |krate: fs::DirEntry| krate.path().join("tests").join(name).exists();
    root().join("tests").join(name).exists()
        || fs::read_dir(root().join("crates")).is_ok_and(|crates| crates.flatten().any(in_crate))
}

#[test]
fn every_name_the_docs_mention_exists() {
    let metrics = benchmark_metrics();
    assert!(metrics.len() > 60, "the scan read the benchmark's metrics");
    // A dotted name is a benchmark metric when it ends the way one does
    // (`….busy_s`, `….ms_p50`, …): then it has to be one.
    let endings: BTreeSet<&str> = metrics
        .iter()
        .filter_map(|name| name.rsplit_once('.'))
        .map(|(_, last)| last)
        .filter(|last| last.contains('_'))
        .collect();
    let mut missing = BTreeSet::new();
    for doc in DOCS {
        let text = fs::read_to_string(root().join(doc)).expect("readable document");
        for span in code_spans(&text) {
            let words: Vec<&str> = span.split_whitespace().collect();
            for (i, word) in words.iter().enumerate() {
                let word = word.trim_matches(|c: char| "()[],;\"'".contains(c));
                let is_path = ["crates/", "tests/", "results/", "scripts/"]
                    .iter()
                    .any(|dir| word.starts_with(dir));
                let stem = word.split(['.', ':', '/']).next().unwrap_or(word);
                let is_binary = stem.starts_with("exp_") && stem.len() > 4 && !stem.contains('*');
                let is_metric = word
                    .rsplit_once('.')
                    .is_some_and(|(_, last)| endings.contains(last))
                    && !word.contains(['*', '/', '<']);
                let found = if i > 0 && words[i - 1] == "--test" {
                    is_test_target(&format!("{word}.rs"))
                } else if is_path {
                    expand_braces(word).iter().all(|path| path_exists(path))
                } else if is_binary {
                    path_exists(&format!("crates/bench/src/bin/{stem}.rs"))
                } else if is_metric {
                    metrics.contains(word)
                } else {
                    true
                };
                if !found && !QUOTED_AS_DELETED.contains(&word) {
                    missing.insert(format!("{doc}: {word}"));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "the docs name what the tree does not have — fix the text, or list the name as quoted \
         because it is gone: {missing:#?}"
    );
}

#[test]
fn the_scan_reads_spans_braces_wildcards_and_line_suffixes() {
    let doc = "see `tests/a.rs` and\n```sh\ncargo test --test b\n```\nnot tests/c.rs";
    assert_eq!(code_spans(doc), ["tests/a.rs", "cargo test --test b"]);
    assert_eq!(
        expand_braces("tests/{a, b}.rs"),
        ["tests/a.rs", "tests/b.rs"]
    );
    assert!(path_exists("tests/docs_refs.rs:12"));
    assert!(path_exists("crates/core/src/tuning.rs::best_initial"));
    assert!(path_exists("results/pairs/pr<N>_*.csv"));
    assert!(path_exists("crates/*/src"));
    assert!(!path_exists("tests/no_such_test.rs"));
    assert!(!path_exists("no_such_dir/*.rs"));
    assert!(is_test_target("docs_refs.rs") && is_test_target("properties.rs"));
}
