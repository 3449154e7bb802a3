//! `json::to_string` and `json::to_string_pretty` return text allocated to its
//! exact length (`capacity() == len()`), so a caller that keeps encoded strings
//! keeps no growth slack. Checked on empty and small values, on every checked-in
//! request file (the inputs of the streaming-decode suite, each line of the JSONL
//! example included) and on every JSON golden.

use std::path::{Path, PathBuf};

use serde::json;
use serde::{Serialize, Value};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// JSON files in a repository directory, in name order.
fn json_files(dir: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(repo_root().join(dir))
        .unwrap_or_else(|error| panic!("cannot list {dir}: {error}"))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| {
            path.extension()
                .is_some_and(|ext| ext == "json" || ext == "jsonl")
        })
        .collect();
    files.sort();
    files
}

fn assert_exact<T: Serialize + ?Sized>(label: &str, value: &T) {
    for (encoder, text) in [
        ("to_string", json::to_string(value)),
        ("to_string_pretty", json::to_string_pretty(value)),
    ] {
        assert_eq!(text.capacity(), text.len(), "{label} via {encoder}");
    }
}

#[test]
fn empty_and_small_values_encode_to_exact_capacity() {
    assert_exact("null", &Value::Null);
    assert_exact("empty string", "");
    assert_exact("empty array", &Vec::<u64>::new());
    assert_exact("empty object", &Value::Object(Vec::new()));
    assert_exact("none", &None::<u64>);
    assert_exact("bool", &true);
    assert_exact("integer", &42u64);
    assert_exact("negative integer", &-7i64);
    assert_exact("float", &1.5f64);
    assert_exact("escaped string", "tab\there \"quoted\" \u{1}");
    assert_exact("array", &[1u64, 2, 3]);
    assert_exact(
        "object",
        &Value::Object(vec![
            ("id".to_string(), Value::Uint(7)),
            ("kind".to_string(), Value::Str("stats".to_string())),
            ("nested".to_string(), Value::Array(vec![Value::Null])),
        ]),
    );
}

#[test]
fn request_files_and_goldens_encode_to_exact_capacity() {
    let mut checked = 0;
    for path in json_files("requests")
        .into_iter()
        .chain(json_files("results/golden"))
    {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|error| panic!("cannot read {}: {error}", path.display()));
        let documents: Vec<&str> = if path.extension().is_some_and(|ext| ext == "jsonl") {
            text.lines()
                .filter(|line| !line.trim().is_empty())
                .collect()
        } else {
            vec![&text]
        };
        for (line, document) in documents.into_iter().enumerate() {
            let value = json::parse(document)
                .unwrap_or_else(|error| panic!("{} line {line}: {error}", path.display()));
            assert_exact(&format!("{} line {line}", path.display()), &value);
            checked += 1;
        }
    }
    assert!(checked >= 6, "only {checked} documents found");
}
