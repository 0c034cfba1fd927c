#!/usr/bin/env bash
# Tier-1 verification, fully offline.
#
# The workspace is hermetic: no external crates, so a path-only Cargo.lock
# is committed and `CARGO_NET_OFFLINE=true` must never be a constraint.
# Run from anywhere inside the repository.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

# Scratch space for the persistence smoke; removed however the run ends.
CI_TMP="$(mktemp -d "${TMPDIR:-/tmp}/stcfa-ci.XXXXXX")"
trap 'rm -rf "$CI_TMP"' EXIT INT TERM

echo "== tier-1: formatting =="
cargo fmt --check

echo "== tier-1: release build =="
cargo build --release --offline

echo "== tier-1: test suite =="
cargo test -q --offline

echo "== tier-1: clippy (warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== tier-1: query-engine batch at several worker counts =="
# batch_default reads STCFA_QUERY_THREADS; every count must be
# byte-identical to single-threaded (the suite asserts it).
for t in 1 2 8; do
  echo "-- STCFA_QUERY_THREADS=$t"
  STCFA_QUERY_THREADS=$t cargo test -q --offline --test query_engine
done

echo "== lint: machine-readable corpus report is stable =="
# `stcfa lint --format json` over the whole corpus, digested. The digest is
# pinned so a renderer or rule change that shifts any diagnostic shows up
# here as well as in tests/lint_snapshot.rs (which pins the same reports).
LINT_DIGEST_WANT="1591454845"
lint_report="$(for f in corpus/*.ml; do
  echo "== $f"
  ./target/release/stcfa lint "$f" --format json --threads 1
done)"
LINT_DIGEST_GOT="$(printf '%s\n' "$lint_report" | cksum | cut -d' ' -f1)"
if [ "$LINT_DIGEST_GOT" != "$LINT_DIGEST_WANT" ]; then
  echo "lint digest drifted: want $LINT_DIGEST_WANT got $LINT_DIGEST_GOT" >&2
  printf '%s\n' "$lint_report" >&2
  exit 1
fi
echo "-- corpus lint digest ok ($LINT_DIGEST_GOT)"

echo "== rules: differential gate (rule engine vs hand-fused lints) =="
# STCFA002/004/005 exist twice — hand-fused loops and declarative rule
# programs. The gate pins byte-identical reports over corpus and
# synthesized programs at 1/2/8 threads, plus 0-CFA oracle soundness
# for the rule-backed STCFA007/008.
cargo test -q --offline --test rules_differential

echo "== rules: corpus STCFA007/008 findings are pinned =="
# The new rule-backed lints, extracted from the corpus-wide JSON report
# and digested separately from LINT_DIGEST_WANT so a drift in the rule
# layer is attributed to it directly.
RULES_DIGEST_WANT="2082882043"
rules_report="$(for f in corpus/*.ml; do
  echo "== $f"
  ./target/release/stcfa lint "$f" --format json --threads 1 \
    | grep -E '"code":"STCFA00[78]"' || true
done)"
RULES_DIGEST_GOT="$(printf '%s\n' "$rules_report" | cksum | cut -d' ' -f1)"
if [ "$RULES_DIGEST_GOT" != "$RULES_DIGEST_WANT" ]; then
  echo "rules digest drifted: want $RULES_DIGEST_WANT got $RULES_DIGEST_GOT" >&2
  printf '%s\n' "$rules_report" >&2
  exit 1
fi
echo "-- corpus rules digest ok ($RULES_DIGEST_GOT)"

echo "== rules: corpus \`rule dominators\` output is pinned =="
# `stcfa rule <f> --name dominators` over the whole corpus, digested.
# The pin was taken from the stratified Datalog evaluation the dominator
# tree replaced, so it holds the tree to byte-identical output.
DOMINATORS_DIGEST_WANT="3106577595"
dominators_report="$(for f in corpus/*.ml; do
  echo "== $f"
  ./target/release/stcfa rule "$f" --name dominators
done)"
DOMINATORS_DIGEST_GOT="$(printf '%s\n' "$dominators_report" | cksum | cut -d' ' -f1)"
if [ "$DOMINATORS_DIGEST_GOT" != "$DOMINATORS_DIGEST_WANT" ]; then
  echo "dominators digest drifted: want $DOMINATORS_DIGEST_WANT got $DOMINATORS_DIGEST_GOT" >&2
  printf '%s\n' "$dominators_report" >&2
  exit 1
fi
echo "-- corpus dominators digest ok ($DOMINATORS_DIGEST_GOT)"

echo "== rules: clippy on the rule crate (warnings are errors) =="
cargo clippy -p stcfa-rules --all-targets --offline -- -D warnings

echo "== opt: corpus differential gate at several worker counts =="
# The optimizer must agree with the CBV evaluator on every corpus program
# under all 16 pass combinations, never grow a program, and never create
# warning-severity findings — at every thread count, since evidence
# batching must not change any rewrite decision.
for t in 1 2 8; do
  echo "-- STCFA_QUERY_THREADS=$t"
  STCFA_QUERY_THREADS=$t cargo test -q --offline --test opt_differential
done

echo "== opt: pretty-printer round-trip gate =="
# `--emit` output must re-parse to the same arena (size, label count,
# per-abstraction shape) and print as a fixed point.
cargo test -q --offline --test pretty_roundtrip

echo "== opt: clippy on the optimizer crate (warnings are errors) =="
cargo clippy -p stcfa-opt --all-targets --offline -- -D warnings

echo "== opt: CLI smoke (dead_code.ml must shrink) =="
opt_json="$(./target/release/stcfa opt corpus/dead_code.ml --report json)"
echo "$opt_json"
opt_before="$(printf '%s' "$opt_json" | sed -n 's/.*"nodes_before":\([0-9]*\).*/\1/p')"
opt_after="$(printf '%s' "$opt_json" | sed -n 's/.*"nodes_after":\([0-9]*\).*/\1/p')"
[ -n "$opt_before" ] && [ -n "$opt_after" ] && [ "$opt_after" -lt "$opt_before" ] \
  || { echo "opt smoke: dead_code.ml did not shrink (${opt_before:-?} -> ${opt_after:-?})" >&2; exit 1; }
./target/release/stcfa opt corpus/dead_code.ml --emit >/dev/null \
  || { echo "opt smoke: --emit failed" >&2; exit 1; }
echo "-- opt smoke ok ($opt_before -> $opt_after nodes)"

echo "== precision: differential gate at several worker counts =="
# Every graded answer must be monotone against Tier 0, sound against the
# cubic oracle, exact-when-claimed, and byte-identically transcribed by
# two independent scheduler builds — at 1/2/8 threads, since the batch
# engine underneath must not change an escalation decision.
for t in 1 2 8; do
  echo "-- STCFA_QUERY_THREADS=$t"
  STCFA_QUERY_THREADS=$t cargo test -q --offline --test precision_differential
done

echo "== precision: corpus --precision labels are pinned =="
# `stcfa <file> --call-sites --precision` over the whole corpus: grade,
# tier and suspicion per site. Pinned as a digest (like the lint report)
# and diffed across thread counts so a nondeterministic escalation or a
# drifted detector score is caught before the protocol surface ships it.
PRECISION_DIGEST_WANT="4167118286"
precision_ref=""
for t in 1 2 8; do
  out="$(for f in corpus/*.ml; do
    echo "== $f"
    STCFA_QUERY_THREADS=$t ./target/release/stcfa "$f" --call-sites --precision
  done)"
  if [ -z "$precision_ref" ]; then
    precision_ref="$out"
  elif [ "$out" != "$precision_ref" ]; then
    echo "precision: --precision output differs between STCFA_QUERY_THREADS=1 and $t" >&2
    diff <(printf '%s\n' "$precision_ref") <(printf '%s\n' "$out") >&2 || true
    exit 1
  fi
done
PRECISION_DIGEST_GOT="$(printf '%s\n' "$precision_ref" | cksum | cut -d' ' -f1)"
if [ "$PRECISION_DIGEST_GOT" != "$PRECISION_DIGEST_WANT" ]; then
  echo "precision digest drifted: want $PRECISION_DIGEST_WANT got $PRECISION_DIGEST_GOT" >&2
  printf '%s\n' "$precision_ref" >&2
  exit 1
fi
echo "-- corpus precision digest ok ($PRECISION_DIGEST_GOT, identical at threads 1/2/8)"

echo "== precision: clippy on the scheduler crate (warnings are errors) =="
cargo clippy -p stcfa-precision --all-targets --offline -- -D warnings

echo "== server: stdio smoke round-trip =="
# A full analyze -> warm analyze -> query -> lint -> shutdown conversation
# through the release daemon. Gates: clean exit, every response ok:true,
# and the second analyze served from the cache.
smoke_out="$(printf '%s\n' \
  '{"id":1,"op":"analyze","source":"fun id x = x; id (fn u => u)"}' \
  '{"id":2,"op":"analyze","source":"fun id x = x; id (fn u => u)"}' \
  '{"id":3,"op":"query","kind":"label-set","source":"fun id x = x; id (fn u => u)"}' \
  '{"id":4,"op":"lint","source":"fun id x = x; id (fn u => u)"}' \
  '{"id":5,"op":"shutdown"}' \
  | ./target/release/stcfa serve --stdio --threads 2)"
echo "$smoke_out"
[ "$(printf '%s\n' "$smoke_out" | wc -l)" = "5" ] || { echo "server smoke: expected 5 responses" >&2; exit 1; }
if printf '%s\n' "$smoke_out" | grep -q '"ok":false'; then
  echo "server smoke: a request failed" >&2; exit 1
fi
printf '%s\n' "$smoke_out" | sed -n '2p' | grep -q '"cached":true' \
  || { echo "server smoke: warm analyze was not a cache hit" >&2; exit 1; }

echo "== persist: warm restart smoke over stdio =="
# Two daemon generations sharing one --cache-dir. The first builds and
# persists; the second must answer the same conversation from disk —
# cached:true on its first analyze, zero misses, one disk hit — with the
# query/lint response lines byte-identical across the restart.
persist_dir="$CI_TMP/cache"
persist_requests="$(printf '%s\n' \
  '{"id":1,"op":"analyze","source":"fun id x = x; id (fn u => u)"}' \
  '{"id":2,"op":"query","kind":"label-set","source":"fun id x = x; id (fn u => u)"}' \
  '{"id":3,"op":"lint","source":"fun id x = x; id (fn u => u)"}' \
  '{"id":4,"op":"shutdown"}')"
cold_out="$(printf '%s\n' "$persist_requests" | ./target/release/stcfa serve --stdio --threads 2 --cache-dir "$persist_dir")"
warm_out="$(printf '%s\n' "$persist_requests" | ./target/release/stcfa serve --stdio --threads 2 --cache-dir "$persist_dir")"
for out in "$cold_out" "$warm_out"; do
  if printf '%s\n' "$out" | grep -q '"ok":false'; then
    echo "persist smoke: a request failed" >&2; printf '%s\n' "$out" >&2; exit 1
  fi
done
printf '%s\n' "$cold_out" | sed -n '1p' | grep -q '"cached":false' \
  || { echo "persist smoke: first generation should build" >&2; exit 1; }
printf '%s\n' "$warm_out" | sed -n '1p' | grep -q '"cached":true' \
  || { echo "persist smoke: restarted daemon rebuilt instead of loading" >&2; exit 1; }
if [ "$(printf '%s\n' "$cold_out" | sed -n '2,3p')" != "$(printf '%s\n' "$warm_out" | sed -n '2,3p')" ]; then
  echo "persist smoke: answers changed across the restart" >&2
  diff <(printf '%s\n' "$cold_out") <(printf '%s\n' "$warm_out") >&2 || true
  exit 1
fi
ls "$persist_dir"/*.stcfa >/dev/null 2>&1 \
  || { echo "persist smoke: no snapshot file in $persist_dir" >&2; exit 1; }
echo "-- warm restart served from disk, transcripts identical"

echo "== session: multi-module smoke over stdio =="
# Split a corpus program into 3 modules and drive a full protocol-v2
# session conversation (open -> query -> update one module -> query ->
# lint -> close) through the release daemon. Gates: every response
# ok:true, the update relinks exactly the edited module, and the
# transcript is byte-identical at 1, 2 and 8 worker threads.
session_requests="$(./target/release/stcfa session corpus/higher_order.ml --split 3 --emit-requests --update-last)"
session_ref=""
for t in 1 2 8; do
  out="$(printf '%s\n' "$session_requests" | ./target/release/stcfa serve --stdio --threads "$t")"
  if printf '%s\n' "$out" | grep -q '"ok":false'; then
    echo "session smoke: a request failed at --threads $t" >&2
    printf '%s\n' "$out" >&2
    exit 1
  fi
  if [ -z "$session_ref" ]; then
    session_ref="$out"
    printf '%s\n' "$out" | sed -n '1p' | grep -q '"relinked":3' \
      || { echo "session smoke: open did not link 3 modules" >&2; exit 1; }
    printf '%s\n' "$out" | sed -n '3p' | grep -q '"reused":2,"relinked":1' \
      || { echo "session smoke: update did not reuse the unchanged prefix" >&2; exit 1; }
  elif [ "$out" != "$session_ref" ]; then
    echo "session smoke: transcript differs between --threads 1 and --threads $t" >&2
    diff <(printf '%s\n' "$session_ref") <(printf '%s\n' "$out") >&2 || true
    exit 1
  fi
done
echo "-- session transcripts byte-identical at threads 1/2/8"

echo "== server: fleet fault-injection gate =="
# The connection-level fault suite (mid-burst disconnect, half-written
# lines, slow-reader backpressure, overload shedding, transcript
# invariance across shard/thread geometry) must pass explicitly, not
# just ride along in the tier-1 run.
cargo test -q --offline --test server -- fleet mid_burst half_written \
  overload slow_reader persist_tier idle

echo "== server: TCP soak smoke (64 connections) =="
# A short bursty run against the release daemon through the fleet
# transport. Gates: no connection fails, responses stay in per-stream
# order, cross-connection transcripts are byte-identical, nothing is
# shed at nominal load, and p99 stays sane.
soak_log="$CI_TMP/serve.err"
./target/release/stcfa serve --addr 127.0.0.1:0 --threads 2 --summary 2>"$soak_log" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$CI_TMP"' EXIT INT TERM
soak_addr=""
for _ in $(seq 1 200); do
  soak_addr="$(sed -n 's/^stcfa-server listening on //p' "$soak_log" | head -n1)"
  [ -n "$soak_addr" ] && break
  sleep 0.05
done
[ -n "$soak_addr" ] || { echo "soak smoke: daemon never announced its port" >&2; exit 1; }
# `stcfa soak` itself exits nonzero on failed connections or reordering.
soak_out="$(./target/release/stcfa soak --addr "$soak_addr" --connections 64 --bursts 2 --burst 4)"
echo "$soak_out"
printf '%s\n' "$soak_out" | grep -q '"overloaded":0,' \
  || { echo "soak smoke: requests shed at nominal load" >&2; exit 1; }
printf '%s\n' "$soak_out" | grep -q '"transcript_identical":true' \
  || { echo "soak smoke: transcripts diverged across connections" >&2; exit 1; }
soak_p99="$(printf '%s\n' "$soak_out" | sed -n 's/.*"p99_ns":\([0-9]*\).*/\1/p')"
[ -n "$soak_p99" ] && [ "$soak_p99" -lt 2000000000 ] \
  || { echo "soak smoke: p99 ${soak_p99:-missing} ns exceeds the 2 s sanity bound" >&2; exit 1; }
./target/release/stcfa client --addr "$soak_addr" --request '{"op":"shutdown"}' >/dev/null
wait "$serve_pid"
grep -q '^fleet summary:' "$soak_log" \
  || { echo "soak smoke: --summary line missing from stderr" >&2; exit 1; }
echo "-- soak clean: 64 connections, zero shed, p99 ${soak_p99} ns"

echo "== benchmark: perfbench builds and its self-tests pass =="
# perfbench (BENCHMARK.json) is a package of its own, outside the
# workspace, so nothing above compiles it. It uses the precision
# scheduler's public API (PrecisionScheduler::{new, DEFAULT_BUDGET,
# labels_of, call_targets}, SchedulerStats::{cone_runs, refined}); a
# break there fails here instead of in the benchmark run.
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== benches compile (not run) =="
cargo bench --no-run --offline

echo "ci.sh: all green"
