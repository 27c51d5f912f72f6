//! End-to-end tests for `pxml mutate`: drive the real binary over
//! instance + ops files and gate on the documented exit taxonomy
//! (0 applied, 1 op failed to apply, 2 malformed ops file).

use std::path::PathBuf;
use std::process::Command;

use pxml_core::fixtures::fig2_instance;
use pxml_storage::to_text;

fn pxml_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pxml"))
}

fn write_temp(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("pxml-mutate-cli");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(name);
    std::fs::write(&path, contents).expect("write fixture");
    path
}

#[test]
fn valid_ops_exit_zero_and_rewrite_instance() {
    let path = write_temp("valid.pxml", &to_text(&fig2_instance()));
    let before = std::fs::read_to_string(&path).unwrap();
    let ops = write_temp(
        "valid.ops",
        "# steady-state entry updates plus one structural op\n\
         SETEDGE R B1 PROB 0.25\n\
         SETVAL T1 STR VQDB PROB 0.9\n\
         INSERT B9 UNDER R LABEL book PROB 0.0\n",
    );
    let out =
        pxml_bin().arg("mutate").arg(&path).arg(&ops).arg("--audit").output().expect("spawn");
    assert!(
        out.status.success(),
        "stderr: {}\nstdout: {}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("applied 3 ops"), "{stdout}");
    let after = std::fs::read_to_string(&path).unwrap();
    assert_ne!(before, after, "instance file must be rewritten");
    assert!(after.contains("B9"), "inserted object must be persisted");
}

#[test]
fn malformed_ops_exit_two_and_leave_file_untouched() {
    let path = write_temp("malformed.pxml", &to_text(&fig2_instance()));
    let before = std::fs::read_to_string(&path).unwrap();
    let ops = write_temp("malformed.ops", "SETEDGE R B1 PROB 0.25\nFROBNICATE everything\n");
    let out = pxml_bin().arg("mutate").arg(&path).arg(&ops).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2), "malformed ops file is a usage error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "{stderr}");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), before, "file must be untouched");
}

#[test]
fn unresolvable_name_is_a_parse_error_exit_two() {
    let path = write_temp("badname.pxml", &to_text(&fig2_instance()));
    let ops = write_temp("badname.ops", "DELETE NO_SUCH_OBJECT\n");
    let out = pxml_bin().arg("mutate").arg(&path).arg(&ops).output().expect("spawn");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown object"), "{stderr}");
}

#[test]
fn failing_apply_exits_one_and_leaves_file_untouched() {
    let path = write_temp("applyfail.pxml", &to_text(&fig2_instance()));
    let before = std::fs::read_to_string(&path).unwrap();
    // Parses fine, but card(B1, author) = [1,2] is saturated: a third
    // author with positive probability violates PC(B1).
    let ops = write_temp(
        "applyfail.ops",
        "SETEDGE R B1 PROB 0.25\nINSERT A9 UNDER B1 LABEL author PROB 0.5\n",
    );
    let out = pxml_bin().arg("mutate").arg(&path).arg(&ops).output().expect("spawn");
    assert_eq!(out.status.code(), Some(1), "apply failure is an operational error");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("op 2 failed"), "{stderr}");
    assert_eq!(std::fs::read_to_string(&path).unwrap(), before, "file must be untouched");
}

#[test]
fn out_flag_preserves_the_input_file() {
    let path = write_temp("outflag.pxml", &to_text(&fig2_instance()));
    let before = std::fs::read_to_string(&path).unwrap();
    let ops = write_temp("outflag.ops", "SETEDGE R B1 PROB 0.33\n");
    let dest = std::env::temp_dir().join("pxml-mutate-cli").join("outflag.mutated.pxml");
    let out = pxml_bin()
        .arg("mutate")
        .arg(&path)
        .arg(&ops)
        .arg("--out")
        .arg(&dest)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(std::fs::read_to_string(&path).unwrap(), before, "--out keeps the input");
    assert!(dest.exists(), "--out target must be written");
}

#[test]
fn metrics_expose_mutation_counters() {
    let path = write_temp("metrics.pxml", &to_text(&fig2_instance()));
    let ops = write_temp("metrics.ops", "SETEDGE R B1 PROB 0.4\nSETEDGE R B2 PROB 0.6\n");
    let metrics = std::env::temp_dir().join("pxml-mutate-cli").join("mutate.prom");
    let out = pxml_bin()
        .arg("mutate")
        .arg(&path)
        .arg(&ops)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = std::fs::read_to_string(&metrics).unwrap();
    assert!(text.contains("pxml_mutations_total 2"), "{text}");
    assert!(text.contains("pxml_invalidations_total"), "{text}");
    assert!(text.contains("pxml_mutation_nanos_total"), "{text}");
}

#[test]
fn audit_checks_a_warm_cache_and_reports_real_evictions() {
    // The shipped Figure 2 file, written to `--out` so it stays as is.
    let fig2 = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../data/fig2.pxml");
    let ops = write_temp("audit.ops", "SETEDGE R B1 PROB 0.25\n");
    let dest = std::env::temp_dir().join("pxml-mutate-cli").join("audit.mutated.pxml");
    let out = pxml_bin()
        .arg("mutate")
        .arg(&fig2)
        .arg(&ops)
        .arg("--audit")
        .arg("--out")
        .arg(&dest)
        .output()
        .expect("spawn");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let evicted: u64 = stdout
        .split(", ")
        .nth(1)
        .and_then(|s| s.split(' ').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no eviction count in {stdout:?}"));
    assert!(evicted > 0, "the audit must run over a warm cache: {stdout}");
}
