#!/usr/bin/env bash
# Offline CI gate: build, test, lint. Mirrors the tier-1 verify of
# ROADMAP.md plus clippy with warnings denied. Everything runs with
# --offline — the workspace's dependencies are the local stand-ins
# under vendor/, so no network (or registry cache) is ever needed.
set -euo pipefail
cd "$(dirname "$0")/.."

# A CI run must leave the tracked tree as it found it: the last step
# fails if `git status` changed (a committed report rewritten in place,
# a stray output file). Outside a git work tree there is nothing to
# compare, so the check is skipped.
in_git=0
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  in_git=1
  status_before="$(git status --porcelain)"
fi

echo "==> cargo build --release"
cargo build --release --offline --workspace

echo "==> cargo test -q"
cargo test -q --offline --workspace

echo "==> cargo clippy -- -D warnings"
cargo clippy --offline --workspace --all-targets -- -D warnings

# Rustdoc with warnings denied, so a doc link to a deleted or private
# item fails CI. Libraries only: the binaries of two packages are both
# named `pxml`, and documenting both would collide.
echo "==> cargo doc -- -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --lib --offline

# Panic-free guarantee on the untrusted-input crates: their sources deny
# clippy::unwrap_used / expect_used / panic outside test code via
# cfg_attr attributes (enforced by the clippy pass above, which compiles
# the lib targets with the attributes active). Guard the attributes
# themselves so the gate cannot be silently dropped.
echo "==> panic-free lint attributes present (storage/ql/cli)"
for f in crates/pxml-storage/src/lib.rs crates/pxml-ql/src/lib.rs \
         crates/pxml-cli/src/main.rs crates/pxml-cli/src/lib.rs; do
  grep -q 'deny(clippy::unwrap_used' "$f" || {
    echo "error: $f lost its panic-free lint attribute"; exit 1;
  }
done

# The deterministic fault-injection harness (20k byte-mutations per
# input surface, fixed xorshift seed — replays identically everywhere),
# now including the torn-write / truncation injection tests for the
# atomic `.pxmlb` writer, CRC footer, and the mutation-ops surface
# (byte-mutated ops files + mutations against lenient instances).
echo "==> fuzz robustness harness (incl. torn-write + mutation-ops injection)"
cargo test -q --offline --test fuzz_robustness

# Incremental-mutation differential suite: random mutation sequences
# interleaved with point/exists/chain queries; every answer from the
# dirty-set-invalidated engines must equal fresh-instance
# recomputation slot-for-slot (1 vs 4 threads, governed and not), and
# audit_cache must find zero stale retained entries after every op.
echo "==> mutation differential suite"
cargo test -q --offline --test mutation_differential

# Pinned answer checksums at the benchmark scale: FNV-1a over the
# to_bits of every cold_reads_1e5 pool answer and of the mixed_rw_1e4
# warm-up replay (with its writes applied) must equal the pinned values,
# so no change moves a served answer by one bit. Ignored by default (the
# pools are slow to build in debug), hence the release run here.
echo "==> answer checksums (cold_reads_1e5 pool, mixed_rw_1e4 warm-up)"
cargo test --release --offline -p pxml-cli --test answer_checksums -- --ignored

# Arena/CSR flat-pipeline benchmark: every answer must be bit-equal to
# the legacy recursion, and the cold marginalisation pool at the
# 10^5-object scale >= 2x faster on the arena (asserted inside the
# binary). The report goes to a temporary file, so a CI run leaves the
# committed BENCH_arena.json alone; debug-assert layout invariants are
# additionally exercised by the fuzz harness above.
echo "==> arena flat-pipeline benchmark (bit-equal answers, >=2x cold)"
arena_out="$(mktemp)"
target/release/bench_arena --out "$arena_out" --reps 3
rm -f "$arena_out"

# Resource-governance contracts: any budget is exact-or-bracketing,
# exhaustion accounting is thread-count independent, and the dense
# 2^24-term acceptance instance brackets under a 500 ms deadline.
echo "==> resource governance proptests + acceptance"
cargo test -q --offline --test resource_budget
cargo test -q --offline --test governance_acceptance

# CLI governance smoke on a generated dense instance: R has 24
# always-present children that all point at one shared leaf, so the
# kept region is not tree-shaped and exact evaluation is a 2^24-term
# DAG inclusion–exclusion — guaranteed to blow a 1 ms deadline on any
# machine. With --degrade interval that must exit 0 with a degraded
# query in --stats (printed on stderr); under the default error policy
# the same deadline must exit 3 (documented taxonomy: 0 ok,
# 1 operational, 2 usage, 3 budget exhausted).
echo "==> cli governance smoke (dense 2^24-term instance)"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
{
  echo 'pxml v1'
  echo 'types {'
  echo '  type "t" { str "v" }'
  echo '}'
  echo 'instance root="R" {'
  mids=$(printf '"M%d", ' $(seq 0 23)); mids=${mids%, }
  echo '  object "R" {'
  echo "    lch \"a\" = [$mids]"
  echo "    opf { [$mids] : 1.0 }"
  echo '  }'
  for i in $(seq 0 23); do
    echo "  object \"M$i\" { lch \"b\" = [\"T\"] opf { [\"T\"] : 0.5 [] : 0.5 } }"
  done
  echo '  leaf "T" : "t" { vpf { str "v" : 1.0 } }'
  echo '}'
} > "$smoke_dir/dense24.pxml"
printf 'EXISTS R.a.b\n' > "$smoke_dir/queries.txt"
out="$(target/release/pxml batch "$smoke_dir/dense24.pxml" "$smoke_dir/queries.txt" \
  --timeout 1ms --degrade interval --stats 2>&1)" || {
  echo "error: --degrade interval exited nonzero under a 1 ms deadline"; exit 1;
}
echo "$out" | grep -Eq 'degraded [1-9]' || {
  echo "error: dense governed batch reported no degraded queries:"; echo "$out"; exit 1;
}
set +e
target/release/pxml batch "$smoke_dir/dense24.pxml" "$smoke_dir/queries.txt" \
  --timeout 1ms --degrade error >/dev/null 2>&1
code=$?
set -e
[ "$code" -eq 3 ] || {
  echo "error: --degrade error under a 1 ms deadline exited $code, want 3"; exit 1;
}

# Observability smoke on the same dense instance (no deadline, so every
# query completes): --metrics must produce a structurally-valid
# Prometheus text exposition dump, --trace-json one JSON-lines record
# per input query, and `check --metrics` the lint-timing families.
echo "==> cli observability smoke (--metrics / --trace-json)"
printf 'EXISTS R.a\nCHAIN R.M0\nEXISTS R.a\n' > "$smoke_dir/obs-queries.txt"
target/release/pxml batch "$smoke_dir/dense24.pxml" "$smoke_dir/obs-queries.txt" \
  --metrics "$smoke_dir/batch.prom" --trace-json "$smoke_dir/traces.jsonl" >/dev/null
# Every non-comment line is `name[{labels}] value`; every value parses
# as a float (awk accepts the exposition's 1e-9-style numbers).
awk '
  /^$/ { next }
  /^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* / { types += /^# TYPE/; next }
  /^#/ { print "bad comment: " $0; bad = 1; next }
  {
    if (NF != 2) { print "bad sample: " $0; bad = 1; next }
    if ($1 !~ /^[a-zA-Z_:][a-zA-Z0-9_:]*(\{.*\})?$/) { print "bad name: " $0; bad = 1 }
    if ($2 + 0 != $2 && $2 !~ /^[+-]Inf$|^NaN$/) { print "bad value: " $0; bad = 1 }
    samples++
  }
  END { if (bad || types == 0 || samples == 0) exit 1 }
' "$smoke_dir/batch.prom" || {
  echo "error: --metrics dump is not valid exposition format"; exit 1;
}
grep -q '^pxml_queries_total 3$' "$smoke_dir/batch.prom" || {
  echo "error: exposition dump missed pxml_queries_total 3"; exit 1;
}
[ "$(wc -l < "$smoke_dir/traces.jsonl")" -eq 3 ] || {
  echo "error: expected 3 trace records, got $(wc -l < "$smoke_dir/traces.jsonl")"; exit 1;
}
grep -c '^{"seq":' "$smoke_dir/traces.jsonl" | grep -qx 3 || {
  echo "error: trace JSONL lines are not trace objects"; exit 1;
}
target/release/pxml check "$smoke_dir/dense24.pxml" \
  --metrics "$smoke_dir/check.prom" >/dev/null
grep -q '^pxml_lint_duration_seconds ' "$smoke_dir/check.prom" || {
  echo "error: check --metrics missed pxml_lint_duration_seconds"; exit 1;
}

# Static budget-checkpoint lint: every expansion loop in the evaluator
# crates must charge a budget (or carry an explicit exemption comment),
# so a new §6 expansion loop cannot silently dodge governance.
echo "==> budget checkpoint lint"
python3 scripts/lint_checkpoints.py

# Static query-analysis smoke, exercising the documented exit taxonomy:
# clean analysis exits 0, missing arguments exit 2, and an admission
# rejection (predicted steps over --max-steps, AQ006) exits 3. On the
# dense instance `EXISTS R.a` is tree-shaped and costs exactly one
# expansion step, so a zero-step budget must reject it statically.
echo "==> cli static-analysis smoke (pxml analyze)"
printf 'EXISTS R.a\n' > "$smoke_dir/analyze-queries.txt"
out="$(target/release/pxml analyze "$smoke_dir/dense24.pxml" "$smoke_dir/analyze-queries.txt")"
echo "$out" | grep -q 'line 1: clean' || {
  echo "error: analyze did not report EXISTS R.a as clean:"; echo "$out"; exit 1;
}
set +e
target/release/pxml analyze >/dev/null 2>&1
code=$?
set -e
[ "$code" -eq 2 ] || {
  echo "error: analyze without arguments exited $code, want 2 (usage)"; exit 1;
}
set +e
target/release/pxml analyze "$smoke_dir/dense24.pxml" "$smoke_dir/analyze-queries.txt" \
  --max-steps 0 >/dev/null 2>&1
code=$?
set -e
[ "$code" -eq 3 ] || {
  echo "error: analyze --max-steps 0 exited $code, want 3 (AQ006 rejection)"; exit 1;
}
# On the shipped Figure 2 instance the paper's author query shares A1
# between two books (AQ008), and a path no edge takes is provably zero
# (AQ001).
printf 'EXISTS R.book.author\nEXISTS R.book.book\n' > "$smoke_dir/fig2-analyze.txt"
out="$(target/release/pxml analyze data/fig2.pxml "$smoke_dir/fig2-analyze.txt")"
echo "$out" | grep -q '^line 1: AQ008 ' || {
  echo "error: analyze did not report EXISTS R.book.author as AQ008:"; echo "$out"; exit 1;
}
echo "$out" | grep -q '^line 2: AQ001 ' || {
  echo "error: analyze did not report EXISTS R.book.book as AQ001:"; echo "$out"; exit 1;
}
# The batch pre-flight short-circuits a provably-dead query to exact 0
# and reports it in --stats.
printf 'EXISTS R.b\n' > "$smoke_dir/preflight-queries.txt"
out="$(target/release/pxml batch "$smoke_dir/dense24.pxml" "$smoke_dir/preflight-queries.txt" \
  --preflight --stats 2>&1)"
echo "$out" | grep -Eq 'preflight +zeros 1' || {
  echo "error: batch --preflight did not short-circuit the dead query:"; echo "$out"; exit 1;
}

# Mutation smoke, exercising the documented exit taxonomy on the
# shipped Figure 2 instance: a valid ops file applies (exit 0, file
# rewritten, --audit warming the cache and recomputing every retained
# entry, so the ops must evict some), a malformed ops file is a usage
# error (exit 2) that leaves the instance untouched.
echo "==> cli mutation smoke (pxml mutate)"
cp data/fig2.pxml "$smoke_dir/mutate.pxml"
printf 'SETEDGE R B1 PROB 0.25\nSETVAL T1 STR VQDB PROB 0.9\n' > "$smoke_dir/ops.txt"
out="$(target/release/pxml mutate "$smoke_dir/mutate.pxml" "$smoke_dir/ops.txt" --audit --stats 2>&1)" || {
  echo "error: valid mutate run exited nonzero:"; echo "$out"; exit 1;
}
echo "$out" | grep -q 'applied 2 ops' || {
  echo "error: mutate did not report applied ops:"; echo "$out"; exit 1;
}
echo "$out" | grep -Eq ' [1-9][0-9]* cache entries evicted' || {
  echo "error: mutate --audit evicted nothing from its warmed cache:"; echo "$out"; exit 1;
}
cmp -s data/fig2.pxml "$smoke_dir/mutate.pxml" && {
  echo "error: mutate did not rewrite the instance file"; exit 1;
}
cp data/fig2.pxml "$smoke_dir/mutate.pxml"
printf 'SETEDGE R B1 PROB 0.25\nFROBNICATE everything\n' > "$smoke_dir/bad-ops.txt"
set +e
target/release/pxml mutate "$smoke_dir/mutate.pxml" "$smoke_dir/bad-ops.txt" >/dev/null 2>&1
code=$?
set -e
[ "$code" -eq 2 ] || {
  echo "error: malformed ops file exited $code, want 2 (usage)"; exit 1;
}
cmp -s data/fig2.pxml "$smoke_dir/mutate.pxml" || {
  echo "error: failed mutate run modified the instance file"; exit 1;
}

# Serve smoke: boot the daemon on a scratch unix socket, drive a mixed
# query/mutate batch through `pxml request` (wire status digits become
# exit codes), scrape the Prometheus exposition, then SIGTERM — the
# daemon must drain and exit 0.
echo "==> cli serve smoke (pxml serve / pxml request)"
sock="$smoke_dir/serve.sock"
cp data/fig2.pxml "$smoke_dir/fig2.pxml"
target/release/pxml serve "$smoke_dir/fig2.pxml" --socket "$sock" \
  --trace-json "$smoke_dir/serve-traces.jsonl" 2> "$smoke_dir/serve.log" &
serve_pid=$!
up=0
for _ in $(seq 1 100); do
  if target/release/pxml request --socket "$sock" ping >/dev/null 2>&1; then
    up=1; break
  fi
  sleep 0.1
done
[ "$up" -eq 1 ] || {
  echo "error: serve daemon never answered ping"; cat "$smoke_dir/serve.log"; exit 1;
}
out="$(target/release/pxml request --socket "$sock" query fig2 'EXISTS R.book')"
echo "$out" | grep -Eq '^[0-9]+\.[0-9]{6}$' || {
  echo "error: served query answer is not a probability: $out"; exit 1;
}
printf 'SETEDGE R B1 PROB 0.25\n' > "$smoke_dir/serve-ops.txt"
out="$(target/release/pxml request --socket "$sock" mutate fig2 --ops "$smoke_dir/serve-ops.txt")"
echo "$out" | grep -q 'applied 1 ops' || {
  echo "error: served mutation did not apply: $out"; exit 1;
}
# Unknown instances are bad requests: wire status 2 becomes exit 2.
set +e
target/release/pxml request --socket "$sock" query nope 'EXISTS R.book' >/dev/null 2>&1
code=$?
set -e
[ "$code" -eq 2 ] || {
  echo "error: unknown instance exited $code, want 2 (bad request)"; exit 1;
}
target/release/pxml request --socket "$sock" metrics > "$smoke_dir/serve.prom"
grep -q '^pxml_serve_requests_total{' "$smoke_dir/serve.prom" || {
  echo "error: /metrics missed pxml_serve_requests_total"; exit 1;
}
grep -q 'instance="fig2"' "$smoke_dir/serve.prom" || {
  echo "error: /metrics missed the per-instance families"; exit 1;
}
kill -TERM "$serve_pid"
set +e
wait "$serve_pid"
code=$?
set -e
[ "$code" -eq 0 ] || {
  echo "error: SIGTERM drain exited $code, want 0"; cat "$smoke_dir/serve.log"; exit 1;
}
[ "$(wc -l < "$smoke_dir/serve-traces.jsonl")" -ge 4 ] || {
  echo "error: --trace-json recorded fewer requests than were sent"; exit 1;
}
grep -q '^{"verb":"MUTATE","status":0' "$smoke_dir/serve-traces.jsonl" || {
  echo "error: trace JSONL missed the mutation record"; exit 1;
}
# The MUTATE record splits out its writer-lock wait and WAL time.
grep '^{"verb":"MUTATE"' "$smoke_dir/serve-traces.jsonl" \
  | grep -Eq '"micros":[0-9]+,"lock_wait_us":[0-9]+,"wal_us":[0-9]+,' || {
  echo "error: the MUTATE trace record lacks lock_wait_us/wal_us"; exit 1;
}

# Crash-recovery smoke: boot a WAL-backed daemon over a scratch copy of
# Figure 2, acknowledge mutations under --fsync always, then kill -9 —
# no drain, no checkpoint. A reboot over the same --wal dir must replay
# exactly the acknowledged ops (journal metrics say so) and answer like
# an oracle instance mutated offline with the same ops; CHECKPOINT then
# folds the journal into the snapshot and `pxml check` stays green.
echo "==> cli crash-recovery smoke (pxml serve --wal, kill -9, replay)"
crash_sock="$smoke_dir/crash.sock"
crash_wal="$smoke_dir/crash-wal"
cp data/fig2.pxml "$smoke_dir/crash.pxml"
target/release/pxml serve "$smoke_dir/crash.pxml" --socket "$crash_sock" \
  --wal "$crash_wal" --fsync always 2> "$smoke_dir/crash-serve.log" &
crash_pid=$!
up=0
for _ in $(seq 1 100); do
  if target/release/pxml request --socket "$crash_sock" ping >/dev/null 2>&1; then
    up=1; break
  fi
  sleep 0.1
done
[ "$up" -eq 1 ] || {
  echo "error: wal daemon never answered ping"; cat "$smoke_dir/crash-serve.log"; exit 1;
}
printf 'SETEDGE R B1 PROB 0.25\n' > "$smoke_dir/crash-op1.txt"
printf 'SETVAL T1 STR VQDB PROB 0.9\n' > "$smoke_dir/crash-op2.txt"
# Two structural ops in one MUTATE: replay must re-lower through an
# inserted object and a deleted one (I1 keeps an empty arena row).
printf 'INSERT B9 UNDER R LABEL book PROB 0.0\nDELETE I1\n' > "$smoke_dir/crash-op3.txt"
out="$(target/release/pxml request --socket "$crash_sock" mutate crash --ops "$smoke_dir/crash-op1.txt")"
echo "$out" | grep -q 'applied 1 ops' || { echo "error: wal mutation 1 not acknowledged: $out"; exit 1; }
out="$(target/release/pxml request --socket "$crash_sock" mutate crash --ops "$smoke_dir/crash-op2.txt")"
echo "$out" | grep -q 'applied 1 ops' || { echo "error: wal mutation 2 not acknowledged: $out"; exit 1; }
out="$(target/release/pxml request --socket "$crash_sock" mutate crash --ops "$smoke_dir/crash-op3.txt")"
echo "$out" | grep -q 'applied 2 ops' || { echo "error: wal mutation 3 not acknowledged: $out"; exit 1; }
kill -9 "$crash_pid"
set +e
wait "$crash_pid" 2>/dev/null
set -e
cmp -s data/fig2.pxml "$smoke_dir/crash.pxml" || {
  echo "error: un-checkpointed mutations must not touch the snapshot file"; exit 1;
}
target/release/pxml serve "$smoke_dir/crash.pxml" --socket "$crash_sock" \
  --wal "$crash_wal" --fsync always 2>> "$smoke_dir/crash-serve.log" &
crash_pid=$!
up=0
for _ in $(seq 1 100); do
  if target/release/pxml request --socket "$crash_sock" ping >/dev/null 2>&1; then
    up=1; break
  fi
  sleep 0.1
done
[ "$up" -eq 1 ] || {
  echo "error: wal daemon never came back"; cat "$smoke_dir/crash-serve.log"; exit 1;
}
target/release/pxml request --socket "$crash_sock" metrics > "$smoke_dir/crash.prom"
grep -q '^pxml_wal_replayed_total{instance="crash"} 4$' "$smoke_dir/crash.prom" || {
  echo "error: reboot did not replay exactly the 4 acknowledged ops"; exit 1;
}
# Oracle: the same ops applied offline to a copy of the same snapshot.
cp data/fig2.pxml "$smoke_dir/crash-oracle.pxml"
cat "$smoke_dir/crash-op1.txt" "$smoke_dir/crash-op2.txt" "$smoke_dir/crash-op3.txt" \
  > "$smoke_dir/crash-ops.txt"
target/release/pxml mutate "$smoke_dir/crash-oracle.pxml" "$smoke_dir/crash-ops.txt" >/dev/null
crash_queries=('POINT T2 IN R.book.title' 'EXISTS R.book' 'EXISTS R.book.title' 'POINT B9 IN R.book')
printf '%s\n' "${crash_queries[@]}" > "$smoke_dir/crash-queries.txt"
expected="$(target/release/pxml batch "$smoke_dir/crash-oracle.pxml" "$smoke_dir/crash-queries.txt")"
got=()
for q in "${crash_queries[@]}"; do
  got+=("$(target/release/pxml request --socket "$crash_sock" query crash "$q")")
done
[ "$(printf '%s\n' "${got[@]}")" = "$expected" ] || {
  echo "error: replayed daemon diverges from the offline oracle:";
  echo "daemon: ${got[*]}"; echo "oracle: $expected"; exit 1;
}
# CHECKPOINT folds the journal into the snapshot; the file must now be
# a valid instance and the journal rotated.
out="$(target/release/pxml request --socket "$crash_sock" checkpoint crash)"
echo "$out" | grep -q 'checkpointed crash' || { echo "error: checkpoint failed: $out"; exit 1; }
target/release/pxml request --socket "$crash_sock" metrics > "$smoke_dir/crash.prom"
grep -q '^pxml_wal_rotations_total{instance="crash"} 1$' "$smoke_dir/crash.prom" || {
  echo "error: checkpoint did not rotate the journal"; exit 1;
}
cmp -s data/fig2.pxml "$smoke_dir/crash.pxml" && {
  echo "error: checkpoint did not rewrite the snapshot"; exit 1;
}
target/release/pxml check "$smoke_dir/crash.pxml" >/dev/null || {
  echo "error: checkpointed snapshot fails pxml check"; exit 1;
}
kill -TERM "$crash_pid"
set +e
wait "$crash_pid"
code=$?
set -e
[ "$code" -eq 0 ] || {
  echo "error: wal daemon SIGTERM drain exited $code, want 0"; cat "$smoke_dir/crash-serve.log"; exit 1;
}

# End-to-end benchmark smokes against the release daemon (python3
# e2ebench/run.py; its last stdout line is the JSON result): a short
# mixed read/write run of mixed_rw_1e4, and a short cold_reads_1e5 run
# whose reads mostly miss the cache and so run the served §6.1 sweep.
# Every read answer is checked against an in-process engine, so each
# step fails unless the result says correct and no request failed.
e2e_smoke() { # workload, trace
  echo "==> e2ebench smoke ($1, 3 s, --trace $2)"
  e2e_out="$(python3 e2ebench/run.py --workload "$1" --seed 1 --seconds 3 --trace "$2")" || {
    echo "error: e2ebench $1 run exited nonzero:"; echo "$e2e_out"; exit 1;
  }
  e2e_line="$(printf '%s\n' "$e2e_out" | tail -n 1)"
  python3 -c '
import json, sys
r = json.loads(sys.argv[1])
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)
' "$e2e_line" || {
    echo "error: e2ebench $1 smoke not correct or had failures: $e2e_line"; exit 1;
  }
}
for workload in mixed_rw_1e4 cold_reads_1e5; do
  e2e_smoke "$workload" 0
done
# The traced runs also replay the workload in process (e2ebench's
# trace.rs): engine stats, governed mutation, re-lowering and the STATS
# parse, none of which the untraced smokes reach. The traced
# cold_reads_1e5 run also checks that workload's uniform-mix premise
# (a result hit ratio of at most 0.10 under its cache ceiling).
e2e_smoke mixed_rw_1e4 1
e2e_smoke cold_reads_1e5 1

if [ "$in_git" -eq 1 ]; then
  echo "==> tracked files untouched"
  status_after="$(git status --porcelain)"
  [ "$status_after" = "$status_before" ] || {
    echo "error: ci.sh changed the work tree:"
    diff <(printf '%s\n' "$status_before") <(printf '%s\n' "$status_after") || true
    exit 1
  }
fi

echo "==> ci.sh: all green"
