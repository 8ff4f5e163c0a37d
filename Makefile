# Convenience aliases around dune; ci.sh remains the authoritative gate.
.PHONY: build test lint lint-json lint-sarif dscheck doc ci trace-smoke perfbench-digests scale-smoke scale history diff

build:
	dune build

test:
	dune runtest

lint:
	dune exec mklint -- --ci

lint-json:
	dune exec mklint -- --json

lint-sarif:
	dune exec mklint -- --sarif

# DSCheck model-checking of the lock-free engine (Deque owner/thief
# interleavings with ring growth, Mailbox SPSC) — see
# test/dscheck/dune.  dscheck is a dev-only dependency: when the
# package is not installed the target skips with a notice rather than
# failing, mirroring the odoc gate in ci.sh.
dscheck:
	@if ocamlfind query dscheck >/dev/null 2>&1; then \
	  dune exec --profile dscheck test/dscheck/dscheck_engine.exe; \
	else \
	  echo "dscheck: package not installed; skipping model-checking" \
	    "(opam install dscheck to enable)"; \
	fi

doc:
	dune build @doc

# The observability determinism gate from ci.sh, standalone: one traced
# comparison twice (sequential, -j 2) into a temp dir, byte-compared
# with each other and with the committed bench/results/trace-smoke-seq.json,
# and JSON-checked.
trace-smoke:
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; set -e; \
	dune exec simos -- trace --app minife --nodes 4 --runs 2 --seed 42 \
	  --jobs 1 -o "$$tmp/seq.json" >/dev/null; \
	dune exec simos -- trace --app minife --nodes 4 --runs 2 --seed 42 \
	  --jobs 2 -o "$$tmp/par.json" >/dev/null; \
	cmp "$$tmp/seq.json" "$$tmp/par.json"; \
	cmp "$$tmp/seq.json" bench/results/trace-smoke-seq.json; \
	dune exec bench/main.exe -- check-json "$$tmp/seq.json"

# The output-digest gate from ci.sh, standalone: every perfbench
# workload (paper: the grid's 276 cells; des; observed: an 18.6 MB
# Perfetto trace and its metrics document) at seeds 42 and 2018, one
# short pass each, byte-compared with the digests in
# perfbench/expected/; fails unless "failed" is 0.
perfbench-digests:
	@for workload in paper des observed; do \
	  for seed in 42 2018; do \
	    result=$$(python3 perfbench/run.py --workload $$workload --seed $$seed \
	      --seconds 1 --trace 0 2>/dev/null | tail -n 1); \
	    case $$result in \
	      *'"failed": 0,'*) echo "$$workload seed $$seed: digests match" ;; \
	      *) echo "$$workload seed $$seed: output differs from perfbench/expected" >&2; exit 1 ;; \
	    esac; \
	  done; \
	done

# The sharded-DES gate from ci.sh, standalone: serial-vs-sharded
# byte-identity plus the fast-forward speedup bar (>= 4 cores) — see
# docs/SHARDING.md.
scale-smoke:
	dune exec bench/main.exe -- scale --smoke

# The full weak-scaling sweep to 131,072 nodes; writes
# bench/results/latest-scale.json and BENCH_scale.json.
scale:
	dune exec bench/main.exe -- scale

# The tagged bench trajectory (perf/scale, smoke included) and the
# regression diff against the previous run — see
# docs/OBSERVABILITY.md §2.
history:
	dune exec bench/main.exe -- history

diff:
	dune exec bench/main.exe -- diff-selftest
	dune exec bench/main.exe -- diff --against latest --smoke

ci:
	./ci.sh
