//! End-to-end tests for the observability surface: `pxml batch
//! --metrics/--trace-json` and `pxml check --metrics`, driven through
//! the real binary exactly as the CI smoke does.

use std::path::PathBuf;
use std::process::Command;

use pxml_core::fixtures::fig2_instance;
use pxml_query::QueryTrace;
use pxml_storage::to_text;

fn pxml_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pxml"))
}

fn temp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pxml-observability-cli");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let path = temp_path(name);
    std::fs::write(&path, contents).expect("write fixture");
    path
}

const QUERIES: &str = "POINT T2 IN R.book.title\n\
                       EXISTS R.book\n\
                       CHAIN R.B1\n\
                       POINT T2 IN R.book.title\n";
const QUERY_COUNT: u64 = 4;

/// A strict structural check of the Prometheus text exposition format:
/// every non-empty line is a `# HELP` / `# TYPE` comment or a
/// `name[{labels}] value` sample with a parseable value, and every
/// sample belongs to a family announced by a preceding `# TYPE`.
fn assert_valid_exposition(text: &str) {
    let mut announced: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or_default();
            let name = parts.next().unwrap_or_default();
            assert!(
                keyword == "HELP" || keyword == "TYPE",
                "unknown comment keyword in {line:?}"
            );
            assert!(parts.next().is_some(), "comment missing text: {line:?}");
            if keyword == "TYPE" {
                announced.push(name.to_string());
            }
            continue;
        }
        let (name_part, value_part) =
            line.rsplit_once(' ').unwrap_or_else(|| panic!("sample without value: {line:?}"));
        let bare = name_part.split('{').next().unwrap_or_default();
        assert!(
            announced.iter().any(|a| bare == a
                || bare.strip_prefix(a.as_str()).is_some_and(|suffix| matches!(
                    suffix,
                    "_bucket" | "_sum" | "_count"
                ))),
            "sample {bare:?} has no preceding # TYPE"
        );
        if name_part.contains('{') {
            assert!(name_part.ends_with('}'), "unbalanced labels in {line:?}");
        }
        assert!(
            value_part.parse::<f64>().is_ok() || matches!(value_part, "+Inf" | "-Inf" | "NaN"),
            "unparseable sample value in {line:?}"
        );
    }
    assert!(!announced.is_empty(), "exposition had no metric families");
}

#[test]
fn batch_writes_metrics_and_trace_jsonl() {
    let instance = write_temp("fig2.pxml", &to_text(&fig2_instance()));
    let queries = write_temp("queries.txt", QUERIES);
    let metrics = temp_path("batch.prom");
    let traces = temp_path("batch-traces.jsonl");

    // One worker: query 3 repeats query 0, and only a sequential batch
    // guarantees query 0's result is memoised before query 3 runs.
    let out = pxml_bin()
        .arg("batch")
        .arg(&instance)
        .arg(&queries)
        .args(["--threads", "1"])
        .args(["--metrics".as_ref(), metrics.as_os_str()])
        .args(["--trace-json".as_ref(), traces.as_os_str()])
        .output()
        .expect("spawn pxml");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count() as u64, QUERY_COUNT, "one answer per query: {stdout}");

    // The metrics dump parses and carries the headline families.
    let text = std::fs::read_to_string(&metrics).expect("metrics file");
    assert_valid_exposition(&text);
    assert!(text.contains(&format!("\npxml_queries_total {QUERY_COUNT}\n")), "{text}");
    assert!(text.contains("\npxml_batches_total 1\n"), "{text}");
    assert!(text.contains("pxml_cache_hits_total{table=\"result\"} 1"), "{text}");
    assert!(text.contains("pxml_query_duration_seconds_bucket{le=\"+Inf\"}"), "{text}");
    assert!(text.contains(&format!("\npxml_query_duration_seconds_count {QUERY_COUNT}\n")), "{text}");
    assert!(text.contains("pxml_storage_crc_verifications_total"), "{text}");
    // --trace-json implies full tracing.
    assert!(text.contains("\npxml_trace_mode 2.0\n"), "{text}");

    // One JSONL record per query, each round-tripping through the
    // parser, in input order with coherent spans.
    let jsonl = std::fs::read_to_string(&traces).expect("trace file");
    let records: Vec<QueryTrace> = jsonl
        .lines()
        .map(|l| QueryTrace::from_json(l).expect("trace line parses"))
        .collect();
    assert_eq!(records.len() as u64, QUERY_COUNT);
    for t in &records {
        assert!(t.total_nanos > 0, "{t:?}");
        assert!(
            t.locate_nanos + t.marginal_nanos + t.normalise_nanos <= t.total_nanos,
            "{t:?}"
        );
        let reparsed = QueryTrace::from_json(&t.to_json()).expect("re-encoded line parses");
        assert_eq!(&reparsed, t);
    }
    assert_eq!(records[0].query, "POINT T2 IN R.book.title");
    assert!(records[3].result_hit, "duplicate query must hit the result memo");
    assert!(!records[0].result_hit);
}

#[test]
fn batch_metrics_without_tracing_uses_timing_mode() {
    let instance = write_temp("fig2-timing.pxml", &to_text(&fig2_instance()));
    let queries = write_temp("queries-timing.txt", QUERIES);
    let metrics = temp_path("timing.prom");

    let out = pxml_bin()
        .arg("batch")
        .arg(&instance)
        .arg(&queries)
        .args(["--metrics".as_ref(), metrics.as_os_str()])
        .output()
        .expect("spawn pxml");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&metrics).expect("metrics file");
    assert_valid_exposition(&text);
    assert!(text.contains("\npxml_trace_mode 1.0\n"), "{text}");
    // Timing mode still populates the latency histogram.
    assert!(text.contains(&format!("\npxml_query_duration_seconds_count {QUERY_COUNT}\n")), "{text}");
}

#[test]
fn check_metrics_reports_lint_timing_and_crc_verifications() {
    let pi = fig2_instance();
    let instance = temp_path("fig2.pxmlb");
    pxml_storage::write_binary_file(&pi, &instance).expect("write binary");
    let metrics = temp_path("check.prom");

    let out = pxml_bin()
        .arg("check")
        .arg(&instance)
        .args(["--metrics".as_ref(), metrics.as_os_str()])
        .output()
        .expect("spawn pxml");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&metrics).expect("metrics file");
    assert_valid_exposition(&text);
    assert!(text.contains("pxml_lint_duration_seconds"), "{text}");
    assert!(text.contains("pxml_lint_findings{severity=\"error\"} 0"), "{text}");
    assert!(text.contains("pxml_lint_findings{severity=\"warning\"} 0"), "{text}");
    assert!(text.contains("\npxml_lint_complete 1.0\n"), "{text}");
    // Loading a .pxmlb verifies its CRC footer at least once.
    let crc_line = text
        .lines()
        .find(|l| l.starts_with("pxml_storage_crc_verifications_total "))
        .expect("crc sample present");
    let n: u64 = crc_line.split(' ').nth(1).and_then(|v| v.parse().ok()).expect("crc value");
    assert!(n >= 1, "{crc_line}");
}
