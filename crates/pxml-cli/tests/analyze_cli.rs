//! Golden output of `pxml analyze` on Figure 2 (`data/fig2.pxml`): a
//! query file that reaches every diagnostic code but AQ006, plus clean
//! lines with their step, memo and ceiling figures, and the same file
//! under `--max-steps 2`, which adds AQ006 and exits 3. The output is
//! compared byte for byte, so a change to the analyser that moves a
//! verdict, a bound or a message shows up here.

use std::path::PathBuf;
use std::process::Command;

const QUERIES: &str = r#"# Figure 2: every analyser outcome but AQ006
EXISTS R.book.title
POINT T2 IN R.book.title
POINT T1 IN R.book.title
EXISTS R.book
CHAIN R.B1.A1.I1
CHAIN R.B3.T2
EXISTS R.book.author
POINT A1 IN R.book.author
EXISTS R.book.book
POINT B1 IN R.book.title
SELECT VALUE R.book.title = "Nope"
SELECT VALUE R.book.title @ B1 = "VQDB"
CHAIN R.T1
CHAIN B1.T1
FROBNICATE R
POINT NOPE IN R.book
EXISTS R.nosuchlabel
POINT R IN R
PROJECT ANCESTOR R.book.title
SELECT R.book = B1
"#;

const REPORT: &str = r#"line 1: clean (steps <= 3, exact, memo <= 104 B, p <= 1.000000)
line 2: clean (steps <= 2, exact, memo <= 104 B, p <= 0.800000)
line 3: clean (steps <= 2, exact, memo <= 104 B, p <= 0.440000)
line 4: clean (steps <= 1, exact, memo <= 100 B, p <= 1.000000)
line 5: clean (steps <= 3, exact, memo <= 232 B, p <= 0.480000)
line 6: clean (steps <= 2, exact, memo <= 188 B, p <= 0.800000)
line 7: AQ008 non-tree-region: kept region is not tree-shaped at o#5: ungoverned evaluation returns NotTreeShaped, governed evaluation falls back to DAG inclusion–exclusion
line 8: AQ008 non-tree-region: kept region is not tree-shaped at o#5: ungoverned evaluation returns NotTreeShaped, governed evaluation falls back to DAG inclusion–exclusion
line 9: AQ001 provably-zero: no object is reachable via the 2-label path; the located set is empty
line 10: AQ001 provably-zero: target o#1 is not located by the path
line 11: AQ002 out-of-domain-value: literal Str("Nope") lies outside every located leaf's value domain; the selection condition can never hold
line 12: AQ003 dead-branch: "B1" is never located by the path; the `@` anchor selects nothing
line 13: AQ004 will-error: o#4 is not a potential child of o#0
line 14: AQ004 will-error: chain starts at o#1, not the instance root
line 15: AQ004 will-error: parse error: parse error at token 0: expected PROJECT/SELECT/POINT/EXISTS/CHAIN/PROB/WORLDS/RENDER
line 16: AQ005 unknown-name: unknown object "NOPE"
line 17: AQ005 unknown-name: unknown label "nosuchlabel"
line 18: AQ007 non-canonical-plan: point query on a singleton located set; canonical form is EXISTS on the same path
line 19: clean
line 20: clean
analyzed 20 queries: 8 clean, 12 flagged, 0 budget-rejected
"#;

const REPORT_MAX_STEPS_2: &str = r#"line 1: AQ006 budget-rejected: predicted 3 steps exceed the 2-step budget
line 2: clean (steps <= 2, exact, memo <= 104 B, p <= 0.800000)
line 3: clean (steps <= 2, exact, memo <= 104 B, p <= 0.440000)
line 4: clean (steps <= 1, exact, memo <= 100 B, p <= 1.000000)
line 5: AQ006 budget-rejected: predicted 3 steps exceed the 2-step budget
line 6: clean (steps <= 2, exact, memo <= 188 B, p <= 0.800000)
line 7: AQ008 non-tree-region: kept region is not tree-shaped at o#5: ungoverned evaluation returns NotTreeShaped, governed evaluation falls back to DAG inclusion–exclusion
line 8: AQ008 non-tree-region: kept region is not tree-shaped at o#5: ungoverned evaluation returns NotTreeShaped, governed evaluation falls back to DAG inclusion–exclusion
line 9: AQ001 provably-zero: no object is reachable via the 2-label path; the located set is empty
line 10: AQ001 provably-zero: target o#1 is not located by the path
line 11: AQ002 out-of-domain-value: literal Str("Nope") lies outside every located leaf's value domain; the selection condition can never hold
line 12: AQ003 dead-branch: "B1" is never located by the path; the `@` anchor selects nothing
line 13: AQ004 will-error: o#4 is not a potential child of o#0
line 14: AQ004 will-error: chain starts at o#1, not the instance root
line 15: AQ004 will-error: parse error: parse error at token 0: expected PROJECT/SELECT/POINT/EXISTS/CHAIN/PROB/WORLDS/RENDER
line 16: AQ005 unknown-name: unknown object "NOPE"
line 17: AQ005 unknown-name: unknown label "nosuchlabel"
line 18: AQ007 non-canonical-plan: point query on a singleton located set; canonical form is EXISTS on the same path
line 19: clean
line 20: clean
analyzed 20 queries: 6 clean, 14 flagged, 2 budget-rejected
"#;

/// Runs `pxml analyze data/fig2.pxml <QUERIES> <extra…>`.
fn analyze(extra: &[&str]) -> std::process::Output {
    let tag = format!("{}-{}", std::process::id(), extra.join(""));
    let dir = std::env::temp_dir().join(format!("pxml-analyze-cli-{tag}"));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let queries = dir.join("queries.txt");
    std::fs::write(&queries, QUERIES).expect("write queries");
    let fig2 = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../data/fig2.pxml");
    let out = Command::new(env!("CARGO_BIN_EXE_pxml"))
        .arg("analyze")
        .arg(&fig2)
        .arg(&queries)
        .args(extra)
        .output()
        .expect("spawn pxml");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn analyze_output_is_pinned() {
    let out = analyze(&[]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(String::from_utf8_lossy(&out.stdout), REPORT);
}

#[test]
fn analyze_under_a_step_budget_rejects_and_exits_3() {
    let out = analyze(&["--max-steps", "2"]);
    assert_eq!(out.status.code(), Some(3));
    assert_eq!(String::from_utf8_lossy(&out.stdout), REPORT_MAX_STEPS_2);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("2 of 20 queries would exhaust their budget"), "{stderr}");
}
