//! Deterministic fault-injection harness for the untrusted-input paths.
//!
//! Three surfaces take bytes from outside the process — the `.pxmlb`
//! binary codec, the `.pxml` text parser, and the PXML-QL query string —
//! and all three promise the same contract: **any** input yields
//! `Ok(..)` or a typed error, never a panic. This harness byte-mutates
//! well-formed seeds with a fixed xorshift64* generator
//! (`tests/common`), so every run replays the exact same 20 000
//! mutations per surface; a failure reproduces from the iteration index
//! alone.
//!
//! The second half seeds *semantic* corruption — coherence violations
//! that survive structural parsing — and asserts the deep linter behind
//! `pxml check` reports each class.

mod common;

use std::panic::{catch_unwind, AssertUnwindSafe};

use common::{mutate_bytes, XorShift64};
use pxml::core::fixtures::fig2_instance;
use pxml::core::lint::{is_clean, lint};
use pxml::storage::{
    from_binary, from_binary_unchecked, from_text, from_text_unchecked, to_binary, to_text,
};

const MUTATIONS: usize = 20_000;

#[test]
fn binary_decoder_never_panics_on_mutated_input() {
    let seed = to_binary(&fig2_instance()).expect("fig2 encodes");
    let mut rng = XorShift64::new(0xB1A2_C3D4_0001);
    let mut rejected = 0usize;
    for i in 0..MUTATIONS {
        let mutated = mutate_bytes(&mut rng, &seed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let strict = from_binary(&mutated).is_err();
            let lenient = from_binary_unchecked(&mutated).is_err();
            (strict, lenient)
        }));
        match outcome {
            Ok((strict_err, _)) => rejected += usize::from(strict_err),
            Err(_) => panic!("binary decoder panicked on mutation #{i}"),
        }
    }
    // Sanity: the harness is actually corrupting things, not no-opping.
    assert!(rejected > MUTATIONS / 2, "only {rejected} mutations rejected");
}

#[test]
fn text_parser_never_panics_on_mutated_input() {
    let seed = to_text(&fig2_instance()).into_bytes();
    let mut rng = XorShift64::new(0xB1A2_C3D4_0002);
    let mut rejected = 0usize;
    for i in 0..MUTATIONS {
        let mutated = mutate_bytes(&mut rng, &seed);
        let text = String::from_utf8_lossy(&mutated).into_owned();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let strict = from_text(&text).is_err();
            let lenient = from_text_unchecked(&text).is_err();
            (strict, lenient)
        }));
        match outcome {
            Ok((strict_err, _)) => rejected += usize::from(strict_err),
            Err(_) => panic!("text parser panicked on mutation #{i}"),
        }
    }
    assert!(rejected > MUTATIONS / 2, "only {rejected} mutations rejected");
}

#[test]
fn query_language_never_panics_on_mutated_input() {
    let pi = fig2_instance();
    let seeds: [&str; 6] = [
        "POINT T2 IN R.book.title",
        "SELECT VALUE R.book.title @ T1 = \"VQDB\"",
        "PROJECT DESCENDANT R.book.author",
        "CHAIN R.B1.A1",
        "WORLDS TOP 3",
        "PROB B1",
    ];
    let mut rng = XorShift64::new(0xB1A2_C3D4_0003);
    for i in 0..MUTATIONS {
        let seed = seeds[i % seeds.len()].as_bytes();
        let mutated = mutate_bytes(&mut rng, seed);
        let text = String::from_utf8_lossy(&mutated).into_owned();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            // Parsing must never panic; when the mutation still parses,
            // resolution + execution must not panic either.
            let _ = pxml::ql::run(&pi, &text);
        }));
        assert!(outcome.is_ok(), "query pipeline panicked on mutation #{i}: {text:?}");
    }
}

#[test]
fn static_analyzer_never_panics_on_mutated_input() {
    // Two analyzer surfaces take hostile input: unchecked lowering
    // of instances decoded leniently from mutated bytes (the `pxml
    // analyze <instance>` path), and the textual analysis entry point
    // over mutated query strings. Both promise totality: diagnostics or
    // typed errors, never a panic.
    let pi = fig2_instance();
    let arena = pxml::core::ArenaInstance::lower_unchecked(&pi);
    let instance_seed = to_binary(&pi).expect("fig2 encodes");
    let query_seeds: [&str; 6] = [
        "POINT T2 IN R.book.title",
        "EXISTS R.book.author",
        "CHAIN R.B1.A1",
        "SELECT VALUE R.book.title @ T1 = \"VQDB\"",
        "PROJECT ANCESTOR R.book.title",
        "SELECT R.book = B1",
    ];
    let mut rng = XorShift64::new(0xB1A2_C3D4_0004);
    for i in 0..MUTATIONS {
        let outcome = if i % 2 == 0 {
            // Mutated instance bytes → lenient decode → unchecked
            // lowering (+ one analysis over it when the decode survives).
            let mutated = mutate_bytes(&mut rng, &instance_seed);
            catch_unwind(AssertUnwindSafe(|| {
                if let Ok(hostile) = from_binary_unchecked(&mutated) {
                    let a = pxml::core::ArenaInstance::lower_unchecked(&hostile);
                    let _ = pxml::ql::analyze_text(&hostile, &a, "EXISTS R.book");
                    let _ = a.label_paths(4, 64);
                }
            }))
        } else {
            // Mutated query text against the pristine arena.
            let seed = query_seeds[i % query_seeds.len()].as_bytes();
            let mutated = mutate_bytes(&mut rng, seed);
            let text = String::from_utf8_lossy(&mutated).into_owned();
            catch_unwind(AssertUnwindSafe(|| {
                let _ = pxml::ql::analyze_text(&pi, &arena, &text);
            }))
        };
        assert!(outcome.is_ok(), "static analyzer panicked on mutation #{i}");
    }
}

#[test]
fn ops_parser_never_panics_and_failed_applies_leave_the_instance_untouched() {
    // The fourth byte-taking surface: `pxml mutate` ops files. Contract:
    // any bytes parse to typed `BadOps` errors or a valid op list, never
    // a panic — and an op that fails to *apply* leaves the instance
    // bytewise unchanged (checked through the binary codec).
    let pi = fig2_instance();
    let seed_ops = "SETEDGE R B1 PROB 0.25\n\
                    SETVAL T1 STR VQDB PROB 0.7\n\
                    INSERT B9 UNDER R LABEL book PROB 0.0\n\
                    LINK B3 author A1 PROB 0.3\n\
                    UNLINK B1 T1\n\
                    DELETE B2\n";
    let mut rng = XorShift64::new(0xB1A2_C3D4_0005);
    let mut parse_rejected = 0usize;
    for i in 0..MUTATIONS {
        let mutated = mutate_bytes(&mut rng, seed_ops.as_bytes());
        let text = String::from_utf8_lossy(&mutated).into_owned();
        let outcome = catch_unwind(AssertUnwindSafe(|| match pxml::core::parse_ops(&pi, &text) {
            Err(_) => 1usize,
            Ok(ops) => {
                let mut work = pi.clone();
                for op in &ops {
                    let before = to_binary(&work).expect("encodes");
                    if work.apply(op).is_err() {
                        let after = to_binary(&work).expect("still encodes");
                        assert_eq!(before, after, "failed op changed the instance: {op:?}");
                    }
                }
                0
            }
        }));
        match outcome {
            Ok(rejected) => parse_rejected += rejected,
            Err(_) => panic!("ops pipeline panicked on mutation #{i}: {text:?}"),
        }
    }
    assert!(parse_rejected > MUTATIONS / 2, "only {parse_rejected} mutations rejected");
}

#[test]
fn mutations_against_lenient_instances_never_panic() {
    // Instances loaded through the *lenient* decoders can be incoherent
    // (that is the point of `pxml check`); mutating them must still be
    // total — apply cleanly or fail with a typed error, never panic.
    let seed = to_binary(&fig2_instance()).expect("fig2 encodes");
    let ops_text = "SETEDGE R B1 PROB 0.4\nDELETE B3\nINSERT Z1 UNDER R LABEL book PROB 0.1\n";
    let mut rng = XorShift64::new(0xB1A2_C3D4_0006);
    for i in 0..MUTATIONS {
        let mutated = mutate_bytes(&mut rng, &seed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let Ok(hostile) = from_binary_unchecked(&mutated) else { return };
            // Generated entry-level ops: valid against whatever survived.
            let mut work = hostile.clone();
            for op in pxml::gen::random_mutations(&hostile, 4, i as u64) {
                let _ = work.apply(&op);
            }
            // Parsed ops: names resolve only when the catalog survived.
            if let Ok(ops) = pxml::core::parse_ops(&hostile, ops_text) {
                let mut work = hostile;
                for op in &ops {
                    let _ = work.apply(op);
                }
            }
        }));
        assert!(outcome.is_ok(), "mutation pipeline panicked on lenient instance #{i}");
    }
}

// ---------------------------------------------------------------------
// Seeded semantic corruption: each case plants exactly one coherence
// violation in the Figure 2 text serialisation, loads it through the
// lenient parser (the `pxml check` path), and asserts the linter
// reports the expected class.
// ---------------------------------------------------------------------

/// Applies `edit` to the pristine Figure 2 text and returns the lint
/// codes of the corrupted instance. Panics if the edit was a no-op —
/// that means the needle drifted from the writer's output.
fn lint_after(edit: impl Fn(&str) -> String) -> Vec<&'static str> {
    let base = to_text(&fig2_instance());
    let corrupted = edit(&base);
    assert_ne!(base, corrupted, "corruption edit did not change the text");
    let pi = from_text_unchecked(&corrupted).expect("corrupted text still parses structurally");
    lint(&pi).iter().map(|f| f.class.code()).collect()
}

#[test]
fn check_catches_unnormalised_opf() {
    let codes =
        lint_after(|t| t.replace("[\"B1\", \"B2\", \"B3\"] : 0.4", "[\"B1\", \"B2\", \"B3\"] : 0.9"));
    assert!(codes.contains(&"not-normalized"), "{codes:?}");
}

#[test]
fn check_catches_negative_probability() {
    let codes = lint_after(|t| t.replace("[\"B1\", \"B2\"] : 0.2", "[\"B1\", \"B2\"] : -0.2"));
    assert!(codes.contains(&"probability-out-of-range"), "{codes:?}");
}

#[test]
fn check_catches_non_finite_probability() {
    // 2e308 overflows f64 to +inf during lexing; the linter must flag it.
    let codes = lint_after(|t| t.replace("[\"B1\", \"B2\"] : 0.2", "[\"B1\", \"B2\"] : 2e308"));
    assert!(codes.contains(&"non-finite-probability"), "{codes:?}");
}

#[test]
fn check_catches_unsatisfiable_card() {
    let codes = lint_after(|t| t.replace("card \"book\" = [2, 3]", "card \"book\" = [4, 5]"));
    assert!(codes.contains(&"card-unsatisfiable"), "{codes:?}");
}

#[test]
fn check_catches_unreachable_object() {
    let codes = lint_after(|t| {
        let body = t.trim_end().strip_suffix('}').expect("instance block close");
        format!("{body}  object \"Zombie\" {{\n  }}\n}}\n")
    });
    assert!(codes.contains(&"unreachable"), "{codes:?}");
}

#[test]
fn check_catches_cycle() {
    // B3 gains a back-edge to the root: R → B3 → R.
    let codes = lint_after(|t| {
        t.replace(
            "lch \"author\" = [\"A3\"]",
            "lch \"author\" = [\"A3\"]\n    lch \"back\" = [\"R\"]",
        )
    });
    assert!(codes.contains(&"cycle"), "{codes:?}");
}

#[test]
fn check_catches_missing_opf() {
    let r_opf = "    opf {\n      [\"B1\", \"B2\"] : 0.2\n      [\"B1\", \"B3\"] : 0.2\n      \
                 [\"B2\", \"B3\"] : 0.2\n      [\"B1\", \"B2\", \"B3\"] : 0.4\n    }\n";
    let codes = lint_after(|t| t.replace(r_opf, ""));
    assert!(codes.contains(&"missing-opf"), "{codes:?}");
}

#[test]
fn check_catches_missing_vpf() {
    let t1_vpf = "    vpf {\n      str \"VQDB\" : 0.4\n      str \"Lore\" : 0.6\n    }\n";
    let codes = lint_after(|t| t.replacen(t1_vpf, "", 1));
    assert!(codes.contains(&"missing-vpf"), "{codes:?}");
}

#[test]
fn check_catches_vpf_value_outside_domain() {
    let codes = lint_after(|t| t.replace("str \"Lore\" : 0.6", "str \"Borges\" : 0.6"));
    assert!(codes.contains(&"vpf-value-outside-domain"), "{codes:?}");
}

#[test]
fn check_warns_on_near_zero_mass() {
    // T2's VPF keeps total mass ≈ 1 but one entry drops below the
    // ε-normalisation floor — a warning, not an error.
    let codes = lint_after(|t| {
        t.replace("str \"VQDB\" : 0.5\n      str \"Lore\" : 0.5", "str \"VQDB\" : 1e-13\n      str \"Lore\" : 0.9999999999999")
    });
    assert!(codes.contains(&"near-zero-mass"), "{codes:?}");
    let base = to_text(&fig2_instance());
    let corrupted = base.replace(
        "str \"VQDB\" : 0.5\n      str \"Lore\" : 0.5",
        "str \"VQDB\" : 1e-13\n      str \"Lore\" : 0.9999999999999",
    );
    let pi = from_text_unchecked(&corrupted).expect("parses");
    assert!(is_clean(&lint(&pi)), "near-zero mass alone must stay warning-severity");
}

#[test]
fn corrupted_instances_survive_a_binary_round_trip_for_diagnosis() {
    // `pxml check` must work on .pxmlb files too: incoherent instances
    // encode, decode through the lenient loader, and lint identically.
    for (needle, replacement, code) in [
        ("[\"B1\", \"B2\", \"B3\"] : 0.4", "[\"B1\", \"B2\", \"B3\"] : 0.9", "not-normalized"),
        ("card \"book\" = [2, 3]", "card \"book\" = [4, 5]", "card-unsatisfiable"),
    ] {
        let corrupted = to_text(&fig2_instance()).replace(needle, replacement);
        let pi = from_text_unchecked(&corrupted).expect("parses");
        let bytes = to_binary(&pi).expect("incoherent instances still encode");
        let back = from_binary_unchecked(&bytes).expect("decodes leniently");
        let codes: Vec<_> = lint(&back).iter().map(|f| f.class.code()).collect();
        assert!(codes.contains(&code), "{code} lost in round-trip: {codes:?}");
    }
}

// ---------------------------------------------------------------------
// Torn-write / truncation injection against the crash-safe writer.
//
// `write_binary_file` promises: bytes land in a temp file, are fsynced,
// and are renamed over the destination — so a crash at *any* byte
// boundary leaves either the old complete file or the new complete
// file. These tests simulate the observable crash states (partial temp
// file present, rename never happened, truncated destination) and
// assert the loaders always see a complete version or a typed error,
// never a panic or a half-decoded hybrid.
// ---------------------------------------------------------------------

/// A scratch directory unique to this test process, removed on drop.
struct Scratch(std::path::PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir()
            .join(format!("pxml-torn-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }
    fn path(&self, name: &str) -> std::path::PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn every_truncation_point_is_a_clean_error_or_a_complete_decode() {
    let pi = fig2_instance();
    let bytes = to_binary(&pi).expect("encodes");
    let full = from_binary(&bytes).expect("pristine decodes");
    for cut in 0..bytes.len() {
        let outcome = catch_unwind(AssertUnwindSafe(|| from_binary(&bytes[..cut])));
        match outcome {
            Err(_) => panic!("decoder panicked at truncation {cut}"),
            // Cutting exactly the 8-byte footer leaves a valid legacy
            // (footer-less) payload — decoding it *completely* is
            // correct, and it must equal the original.
            Ok(Ok(decoded)) => {
                assert_eq!(cut, bytes.len() - 8, "unexpected success at cut {cut}");
                assert_eq!(decoded.object_count(), full.object_count());
            }
            Ok(Err(_)) => {} // clean typed error: the contract
        }
    }
}

#[test]
fn torn_write_leaves_old_version_intact_never_a_hybrid() {
    use pxml::core::fixtures::chain;
    use pxml::storage::{read_binary_file, write_binary_file};

    let scratch = Scratch::new("atomic");
    let dest = scratch.path("instance.pxmlb");

    // Install version 1 through the atomic writer.
    let v1 = fig2_instance();
    write_binary_file(&v1, &dest).expect("v1 writes");
    let v1_count = read_binary_file(&dest).expect("v1 reads").object_count();

    // Simulate a crash after k bytes of version 2 reached the temp file
    // but before the rename: the destination must still read as v1.
    let v2 = chain(3, 0.5);
    let v2_bytes = to_binary(&v2).expect("v2 encodes");
    for k in [0, 1, v2_bytes.len() / 2, v2_bytes.len() - 1] {
        let tmp = scratch.path(".instance.pxmlb.crashed.tmp");
        std::fs::write(&tmp, &v2_bytes[..k]).expect("partial temp write");
        let survivor = read_binary_file(&dest).expect("old version must stay readable");
        assert_eq!(survivor.object_count(), v1_count, "torn write at {k} bytes leaked");
        // The abandoned temp file itself must be a clean error, not a
        // panic or a half-instance (k = 0 and k = len are the only
        // complete states, and k = len never occurs pre-crash here).
        assert!(read_binary_file(&tmp).is_err(), "partial temp at {k} bytes decoded");
        std::fs::remove_file(&tmp).expect("cleanup");
    }

    // The completed protocol swaps in version 2 wholesale.
    write_binary_file(&v2, &dest).expect("v2 writes");
    assert_eq!(
        read_binary_file(&dest).expect("v2 reads").object_count(),
        v2.object_count()
    );
    // And the writer left no stray temp files behind.
    let leftovers: Vec<_> = std::fs::read_dir(&scratch.0)
        .expect("scratch listing")
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name() != "instance.pxmlb")
        .collect();
    assert!(leftovers.is_empty(), "stray files: {leftovers:?}");
}

#[test]
fn truncated_destination_is_corrupt_or_error_never_half_state() {
    use pxml::storage::{read_binary_file, write_binary_file, StorageError};

    let scratch = Scratch::new("trunc");
    let dest = scratch.path("instance.pxmlb");
    let pi = fig2_instance();
    write_binary_file(&pi, &dest).expect("writes");
    let full = std::fs::read(&dest).expect("reads back");

    // A destination truncated out from under us (filesystem corruption,
    // not our writer) must never yield a silently different instance.
    for cut in [8, full.len() / 3, full.len() - 9, full.len() - 8, full.len() - 1] {
        std::fs::write(&dest, &full[..cut]).expect("truncate");
        match read_binary_file(&dest) {
            Ok(decoded) => {
                // Only the exact footer-strip point may decode, and then
                // it must be the complete original payload.
                assert_eq!(cut, full.len() - 8);
                assert_eq!(decoded.object_count(), pi.object_count());
            }
            Err(StorageError::Io(_)) => panic!("truncation surfaced as I/O error"),
            Err(_) => {}
        }
    }

    // A flipped byte inside the payload surfaces as the typed Corrupt
    // error carrying both checksums.
    let mut flipped = full.clone();
    flipped[20] ^= 0x01;
    std::fs::write(&dest, &flipped).expect("flip");
    match read_binary_file(&dest) {
        Err(StorageError::Corrupt { expected, actual }) => assert_ne!(expected, actual),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn atomic_writer_cleans_up_temp_on_failure() {
    use pxml::storage::write_binary_file;

    let scratch = Scratch::new("fail");
    // Destination inside a directory that does not exist: the write
    // must fail with a typed error and leave nothing behind anywhere.
    let dest = scratch.path("missing-subdir/instance.pxmlb");
    assert!(write_binary_file(&fig2_instance(), &dest).is_err());
    let leftovers: Vec<_> = std::fs::read_dir(&scratch.0)
        .expect("scratch listing")
        .filter_map(|e| e.ok())
        .collect();
    assert!(leftovers.is_empty(), "stray files: {leftovers:?}");
}

// ---------------------------------------------------------------------
// Duplicate-edge declarations: every ingress path must reject or report
// them with a *typed* diagnostic — silently collapsing (or silently
// keeping) the duplicate row was the bug.
// ---------------------------------------------------------------------

#[test]
fn duplicate_edge_declarations_are_typed_errors_on_every_path() {
    use pxml::core::{CoreError, WeakInstance};

    // Builder path: the duplicate row is dropped and the build fails
    // with the typed error (same child twice under one label, and the
    // same child under two labels).
    let mut b = WeakInstance::builder();
    let (r, a) = (b.object("R"), b.object("A"));
    let l = b.label("x");
    b.lch(r, l, &[a]).lch(r, l, &[a]);
    assert!(matches!(b.build(r), Err(CoreError::DuplicateChild { .. })));

    let mut b = WeakInstance::builder();
    let (r, a) = (b.object("R"), b.object("A"));
    let (l1, l2) = (b.label("x"), b.label("y"));
    b.lch(r, l1, &[a]).lch(r, l2, &[a]);
    assert!(matches!(b.build(r), Err(CoreError::AmbiguousChildLabel { .. })));

    // Ops-file path: a LINK naming an existing `(parent, child)` edge
    // must fail typed and leave the instance bytewise untouched.
    let pi = fig2_instance();
    let before = to_binary(&pi).expect("encodes");
    let dup = pxml::core::parse_ops(&pi, "LINK B1 title T1 PROB 0.5\n").expect("parses");
    let mut work = pi.clone();
    assert!(matches!(work.apply(&dup[0]), Err(CoreError::DuplicateChild { .. })));
    assert_eq!(to_binary(&work).expect("encodes"), before, "failed LINK mutated state");
    let amb = pxml::core::parse_ops(&pi, "LINK B1 author T1 PROB 0.5\n").expect("parses");
    let mut work = pi.clone();
    assert!(matches!(work.apply(&amb[0]), Err(CoreError::AmbiguousChildLabel { .. })));
    assert_eq!(to_binary(&work).expect("encodes"), before, "failed LINK mutated state");
}

#[test]
fn check_catches_duplicate_and_ambiguous_child_rows() {
    // The lenient text parser keeps duplicate universe rows verbatim (no
    // builder dedupe), so `pxml check` must report them.
    let codes =
        lint_after(|t| t.replace("lch \"author\" = [\"A3\"]", "lch \"author\" = [\"A3\", \"A3\"]"));
    assert!(codes.contains(&"duplicate-child"), "{codes:?}");
    let codes = lint_after(|t| {
        t.replace(
            "lch \"author\" = [\"A3\"]",
            "lch \"author\" = [\"A3\"]\n    lch \"editor\" = [\"A3\"]",
        )
    });
    assert!(codes.contains(&"ambiguous-child-label"), "{codes:?}");
}

// ---------------------------------------------------------------------
// Arena lowering totality: `lower_unchecked` (and its debug-asserted
// layout invariants) plus the flat §6.1 pipeline must be total over
// whatever the lenient decoders let through.
// ---------------------------------------------------------------------

#[test]
fn arena_lowering_is_total_on_hostile_instances() {
    use pxml::core::ArenaInstance;

    // Deterministic worst cases first: each planted coherence violation
    // (duplicate rows, cycles, dangling children, zombies) must lower
    // without panicking, with the checked path refusing it typed.
    let base = to_text(&fig2_instance());
    for (needle, replacement) in [
        ("lch \"author\" = [\"A3\"]", "lch \"author\" = [\"A3\", \"A3\"]"),
        ("lch \"author\" = [\"A3\"]", "lch \"author\" = [\"A3\"]\n    lch \"back\" = [\"R\"]"),
        ("card \"book\" = [2, 3]", "card \"book\" = [4, 5]"),
    ] {
        let hostile = from_text_unchecked(&base.replace(needle, replacement))
            .expect("corruption parses structurally");
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = ArenaInstance::lower(&hostile);
            let _ = ArenaInstance::lower_unchecked(&hostile).debug_validate();
        }));
        assert!(outcome.is_ok(), "seeded corruption {replacement:?} panicked the lowering");
    }

    // Then the byte-mutation stream, over the *text* codec — the binary
    // CRC rejects nearly every mutant before it can reach the arena.
    let seed = to_text(&fig2_instance()).into_bytes();
    let mut rng = XorShift64::new(0xB1A2_C3D4_0008);
    let mut lowered = 0usize;
    for i in 0..MUTATIONS {
        let mutated = mutate_bytes(&mut rng, &seed);
        let text = String::from_utf8_lossy(&mutated).into_owned();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let Ok(hostile) = from_text_unchecked(&text) else { return false };
            // Checked lowering: Ok or a typed error, never a panic.
            let _ = ArenaInstance::lower(&hostile);
            // Unchecked lowering runs with debug assertions on in this
            // harness, so the layout invariants themselves are under
            // test; `debug_validate` may report Err on incoherent input
            // but must not panic, and neither may the flat pipeline.
            let arena = ArenaInstance::lower_unchecked(&hostile);
            let _ = arena.debug_validate();
            if let Some(labels) = hostile
                .weak()
                .node(hostile.root())
                .and_then(|n| n.universe().iter().next().map(|(_, _, l)| vec![l]))
            {
                let _ = arena.exists_flat(&labels);
            }
            true
        }));
        match outcome {
            Ok(l) => lowered += usize::from(l),
            Err(_) => panic!("arena lowering panicked on mutation #{i}"),
        }
    }
    // Sanity: a meaningful fraction of mutants survived decode and
    // actually exercised the lowering.
    assert!(lowered > MUTATIONS / 100, "only {lowered} mutants reached the arena");
}

#[test]
fn pristine_fixtures_lint_clean() {
    let pi = fig2_instance();
    let findings = lint(&pi);
    assert!(findings.is_empty(), "{findings:?}");
    // And through both serialisation paths.
    let text_pi = from_text_unchecked(&to_text(&pi)).expect("parses");
    assert!(lint(&text_pi).is_empty());
    let bin_pi = from_binary_unchecked(&to_binary(&pi).expect("encodes")).expect("decodes");
    assert!(lint(&bin_pi).is_empty());
}

// ---------------------------------------------------------------------
// WAL segment recovery: torn tails and arbitrary corruption
// ---------------------------------------------------------------------

/// Builds a valid multi-record WAL segment on disk and returns its bytes
/// plus the valid end offset of each record.
fn seed_wal_segment(tag: &str, records: &[&str]) -> (Vec<u8>, Vec<u64>) {
    use pxml::storage::{FsyncPolicy, Wal};
    let scratch = Scratch::new(tag);
    let (mut wal, _, _) =
        Wal::attach(&scratch.0, "seed", 0xFEED_FACE, FsyncPolicy::Os).expect("attach");
    for r in records {
        wal.append(r).expect("append");
    }
    wal.sync().expect("sync");
    let path = wal.path().to_path_buf();
    drop(wal);
    let bytes = std::fs::read(&path).expect("read segment");
    let seg = pxml::storage::recover_segment_bytes(&bytes).expect("pristine recovers");
    assert_eq!(seg.records.len(), records.len());
    assert!(!seg.torn);
    (bytes, seg.offsets)
}

#[test]
fn wal_recovery_never_panics_on_mutated_segments() {
    use pxml::storage::recover_segment_bytes;

    let records: Vec<String> =
        (0..40).map(|i| format!("SETEDGE R B{} PROB 0.{:02}", i % 7, i + 1)).collect();
    let refs: Vec<&str> = records.iter().map(String::as_str).collect();
    let (seed, _) = seed_wal_segment("fuzz", &refs);
    let mut rng = XorShift64::new(0xB1A2_C3D4_0007);
    let mut rejected = 0usize;
    for i in 0..MUTATIONS {
        let mutated = mutate_bytes(&mut rng, &seed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            match recover_segment_bytes(&mutated) {
                Err(_) => true,
                Ok(seg) => {
                    // Internal consistency of whatever prefix survived:
                    // the declared valid length re-recovers to exactly
                    // the same records with no torn tail.
                    assert!(seg.valid_len as usize <= mutated.len());
                    assert_eq!(seg.offsets.len(), seg.records.len());
                    let again = recover_segment_bytes(&mutated[..seg.valid_len as usize])
                        .expect("valid prefix re-recovers");
                    assert!(!again.torn, "valid prefix reported torn");
                    assert_eq!(again.records, seg.records, "prefix recovery not idempotent");
                    seg.torn || seg.records.len() < refs.len()
                }
            }
        }));
        match outcome {
            Ok(changed) => rejected += usize::from(changed),
            Err(_) => panic!("wal recovery panicked on mutation #{i}"),
        }
    }
    assert!(rejected > MUTATIONS / 2, "only {rejected} mutations rejected");
}

#[test]
fn wal_truncation_always_yields_longest_valid_prefix() {
    let records: Vec<String> =
        (0..25).map(|i| format!("UNLINK R B{i} # rec {i}")).collect();
    let refs: Vec<&str> = records.iter().map(String::as_str).collect();
    let (seed, offsets) = seed_wal_segment("trunc", &refs);

    // Every byte-level cut point in the file: recovery must return
    // exactly the records whose frames end at or before the cut.
    for cut in 28..=seed.len() {
        let truncated = &seed[..cut];
        let expect_n = offsets.iter().filter(|&&end| end <= cut as u64).count();
        let seg = pxml::storage::recover_segment_bytes(truncated)
            .expect("intact header always recovers");
        assert_eq!(
            seg.records.len(),
            expect_n,
            "cut at byte {cut}: expected {expect_n} records, got {}",
            seg.records.len()
        );
        assert_eq!(seg.records, records[..expect_n], "cut at byte {cut}");
        assert_eq!(seg.torn, cut as u64 > offsets.get(expect_n.wrapping_sub(1)).copied().unwrap_or(28), "cut at byte {cut}");
    }
    // Cutting into the header is a typed error, never a panic.
    for cut in 0..28 {
        assert!(pxml::storage::recover_segment_bytes(&seed[..cut]).is_err());
    }
}
