#!/bin/sh
# Tier-1 verification gate: build, tests, API docs.
#
#   ./ci.sh
#
# The @doc step needs odoc (opam install odoc); it is skipped with a
# notice when odoc is absent so the gate still runs on lean toolchains.
set -e
cd "$(dirname "$0")"

dune build

# Static determinism & domain-safety gate (docs/STATIC_ANALYSIS.md):
# wall-clock reads, ambient Random, order-leaking Hashtbl iteration,
# cross-domain mutable globals and stray stdout in lib/ fail the build
# here, before the (slower) runtime byte-identity checks get a chance
# to miss them.  Non-zero on any error not suppressed inline or
# carried in .mklint-baseline.
dune exec mklint -- --ci

# The SARIF export must stay well-formed: emit it for the whole tree
# and round-trip it through the same JSON parser that guards the
# results snapshots.
sarif_tmp=$(mktemp)
dune exec mklint -- --sarif >"$sarif_tmp" || true
dune exec bench/main.exe -- check-json "$sarif_tmp" || {
  echo "ci.sh: mklint --sarif emitted malformed JSON" >&2
  rm -f "$sarif_tmp"
  exit 1
}
rm -f "$sarif_tmp"

dune runtest

# Robustness gates, run explicitly so a failure is attributable even
# though `dune runtest` covers the same suites: the fault-injection
# subsystem, the crash-safe atomic-write path, the pool (its per-map
# cost is gated by a minor-collection count, not a timing), and the
# DES core: the heap's (key, seq) order (it holds ints only, so no
# popped value can outlive its pop), the fire path at exactly 0
# minor words per event, the shard protocol, and test_cluster's
# driver cases 9, 11 and 12 (`DES smoke counts`, the exact protocol
# counts of `scale --smoke`'s workload, and the serial and sharded
# `DES event allocation budget`s, in marginal minor words per event).
dune exec test/test_fault.exe >/dev/null
dune exec test/test_engine.exe -- test atomic-file >/dev/null
dune exec test/test_engine.exe -- test pool >/dev/null
dune exec test/test_engine.exe -- test sim >/dev/null
dune exec test/test_engine.exe -- test heap >/dev/null
dune exec test/test_engine.exe -- test shard >/dev/null
dune exec test/test_cluster.exe -- test driver 9,11,12 >/dev/null
# The noise draw's Poisson tables are per domain: two domains drawing
# through one profile at once must each equal the sequential oracle.
# A table shared between domains goes wrong only when their walks
# overlap, so the case runs five times.
for _ in 1 2 3 4 5; do
  dune exec test/test_noise.exe -- test domains >/dev/null
done

# Cross-domain identity gates, repeated: the profile document and the
# sharded-DES pool identity each compare a -j 2 run with a sequential
# one, so a timing-dependent divergence between domains shows on some
# runs only.  Five passes make it fail here instead of flaking later.
for _ in 1 2 3 4 5; do
  dune exec test/test_obs.exe -- test profile >/dev/null
  dune exec test/test_cluster.exe -- test validation >/dev/null
done

# Any results snapshot on disk must still be valid JSON.
dune exec bench/main.exe -- check-results

# Hot-path gate: a tiny perf suite (DES events/sec, reported only;
# page-table pages/sec; suite seq vs -j N).  The speedup gates are
# conditional on the runner's core count (docs/PARALLELISM.md §3): on
# >= 2 cores -j 2 must beat sequential, and on >= 4 cores the
# work-stealing pool must clear a 1.25x suite speedup at -j 4; on
# fewer cores the ratios are recorded in the JSON but cannot gate
# (the pool clamps to zero workers there, so the columns measure
# scheduling noise, not parallelism).  Unconditionally: the smoke JSON
# round-trips through the parser, -j output is byte-identical to
# sequential, and the disabled observability hooks (sink=Null) cost no
# more than 2%.
dune exec bench/main.exe -- perf --smoke

# Sharded-DES gate (docs/SHARDING.md): the event-driven tier run
# serially and sharded over several shard counts must agree byte for
# byte (the conservative-protocol invariant), and on >= 4 cores the
# closed-form fast-forward must clear a 1.25x speedup over serial
# replay on a silent profile; on fewer cores the ratios are recorded
# in scale-smoke.json but cannot gate.  Both smoke benches above also
# append a tagged history entry (<target>-<tag>.json + -latest/-prev
# heads) and scale --smoke refreshes the repo-root BENCH_scale.json,
# so the bench trajectory is non-empty after every CI run.
dune exec bench/main.exe -- scale --smoke

# Perf-history gate (docs/OBSERVABILITY.md §2): first prove the
# regression detector itself fires on a seeded synthetic regression
# and stays quiet on identical documents, then diff the smoke
# trajectory this run just extended — gated ratio metrics (speedups,
# throughputs, overhead percentages) must not cross the threshold in
# the bad direction; wall-clock leaves and the single-shot DES
# timings (the sharded speedup and the core's events/sec) are
# report-only.  The first run after a fresh clone has no -prev head
# and passes with a notice.
dune exec bench/main.exe -- diff-selftest >/dev/null
dune exec bench/main.exe -- diff --against latest --smoke

# Observability gate (docs/OBSERVABILITY.md): the same traced
# 4-node comparison run sequentially and under -j 2 must export
# byte-identical Perfetto traces, the sequential export must equal the
# committed reference bench/results/trace-smoke-seq.json, and the
# trace must parse as JSON.  Both exports go to the temp dir, so this
# gate rewrites no tracked file.  A model change that legitimately
# moves the trace re-records the reference in the same change (the
# --jobs 1 command below with -o bench/results/trace-smoke-seq.json).
ci_tmp=$(mktemp -d)
trap 'rm -rf "$ci_tmp"' EXIT
dune exec simos -- trace --app minife --nodes 4 --runs 2 --seed 42 \
  --jobs 1 -o "$ci_tmp/trace-seq.json" >/dev/null
dune exec simos -- trace --app minife --nodes 4 --runs 2 --seed 42 \
  --jobs 2 -o "$ci_tmp/trace-par.json" >/dev/null
cmp "$ci_tmp/trace-seq.json" "$ci_tmp/trace-par.json" || {
  echo "ci.sh: traced run diverged between sequential and -j 2" >&2
  exit 1
}
cmp "$ci_tmp/trace-seq.json" bench/results/trace-smoke-seq.json || {
  echo "ci.sh: traced run differs from bench/results/trace-smoke-seq.json" >&2
  echo "ci.sh: re-record the reference only if the model change is intended" >&2
  exit 1
}
dune exec bench/main.exe -- check-json "$ci_tmp/trace-seq.json"

# Output-digest gate: every perfbench workload checks each simulated
# output against the digests committed under perfbench/expected/ for
# seeds 42 and 2018.  `paper` pins all 276 cells of the paper's grid,
# `des` the serial and sharded DES results, and `observed` the traced
# MiniFE trio's 18.6 MB Perfetto trace (97,650 events) and its metrics
# document.  One short pass per workload and seed; timing is not
# gated, only the result line's "failed": 0.
for workload in paper des observed; do
  for seed in 42 2018; do
    result=$(python3 perfbench/run.py --workload "$workload" --seed "$seed" \
      --seconds 1 --trace 0 2>/dev/null | tail -n 1)
    case $result in
      *'"failed": 0,'*) ;;
      *)
        echo "ci.sh: perfbench $workload (seed $seed) output differs from perfbench/expected/$workload-$seed.json" >&2
        exit 1
        ;;
    esac
  done
done

# Model-checking gate (test/dscheck/): DSCheck exhaustively
# interleaves the lock-free Deque (owner push/pop vs thief steal,
# ring growth) and the SPSC Mailbox at atomic-operation granularity.
# dscheck is a dev-only dependency; lean toolchains without it say so
# loudly instead of silently passing, mirroring the odoc gate below.
if ocamlfind query dscheck >/dev/null 2>&1; then
  dune exec --profile dscheck test/dscheck/dscheck_engine.exe
else
  echo "ci.sh: WARNING: dscheck not installed; model-checking gate NOT run (opam install dscheck)" >&2
fi

# API-doc gate: odoc warnings are fatal (root `dune` env stanza), so
# a broken {!reference} or malformed doc comment fails the build, not
# just a log line.  Lean toolchains without odoc cannot run the gate;
# they say so loudly instead of silently passing.
if command -v odoc >/dev/null 2>&1; then
  dune build @doc
else
  echo "ci.sh: WARNING: odoc not installed; @doc gate NOT run (opam install odoc)" >&2
fi

echo "ci.sh: all checks passed"
