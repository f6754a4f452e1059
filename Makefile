.PHONY: all build test test-slow bench bench-smoke bench-jq \
  bench-multiclass bench-serve bench-session bench-quality bench-fleet \
  bench-pairs serve-smoke clean

all: build

build:
	dune build

test:
	dune runtest

# The alcotest `Slow cases (qcheck sweeps, SA-vs-exact) need the -e flag.
test-slow: build
	dune exec test/test_prob.exe -- -e
	dune exec test/test_jq.exe -- -e
	dune exec test/test_jsp.exe -- -e
	dune exec test/test_expt.exe -- -e

bench:
	dune exec bench/main.exe

# Fast CI smoke for the annealing hot path: one fig7b cell at N = 500,
# seed solver vs cached-incremental, emitting BENCH_jsp.json; then the
# engine rows at l = 2, 3, 5 (BENCH_multiclass.json), whose l = 2 select
# over symmetric 2x2 matrices must stay within 5% of the same pool given
# as scalars (the matrices must lower onto the binary fast path); then
# gated serving rows at 1/2/4 domains (BENCH_serve.json), 3 s each (the
# default row length; at 1 s the 4-domain row sometimes collapsed on a
# 2-core host) — the gate fails on
# any request error or on multi-domain speedup below the core-aware
# threshold (1.3 with >= 2 cores, 0.8 parity floor on 1 core); then the
# gated flat-vs-hashtbl kernel grid (BENCH_jq.json), which fails unless
# the dense kernel is >= 2x the hashtable at n=500/d=200 (binary) and
# >= 1.5x at l = 3 (multiclass); finally the gated session replay
# (BENCH_session.json), which fails unless adaptive sessions cost at
# most 0.8x the fixed jury with accuracy within 0.5 points and vote-verb
# p95 stays under its latency bound; last the gated quality-plane run
# (BENCH_quality.json), which fails unless the streaming calibrator's
# full-replay EM matches the offline Dawid-Skene fit within 1e-6, a
# mid-stream spammer is flagged within one drift window of votes with
# the standing jury re-selected past the stale one, and report-verb
# ingest p95 stays under its bound; and the gated fleet allocation rows
# (BENCH_fleet.json), which fail unless price-based shared-pool
# assignment beats the independent-greedy baseline on aggregate JQ with
# zero non-overlap violations, delta-submit p95 under 50 ms, and a
# single-decide delta re-solve >= 5x faster than a cold full
# re-allocation.  The quality and fleet runs are --fast, so they write
# BENCH_quality.fast.json and BENCH_fleet.fast.json (gitignored): only
# bench-quality and bench-fleet rewrite the committed records.
bench-smoke:
	dune exec bench/main.exe -- fig7b --reps 1 --smoke
	dune exec bench/main.exe -- --multiclass
	dune exec bench/serve_bench.exe -- --seconds 3 --gate
	dune exec bench/jq_bench.exe -- --fast --gate
	dune exec bench/session_bench.exe -- --fast --gate
	dune exec bench/quality_bench.exe -- --fast --gate
	dune exec bench/fleet_bench.exe -- --fast --gate

# Flat dense-array kernel vs hashtable baseline over the full binary
# n x num_buckets grid and l = 2, 3, 5 multiclass rows, written to
# BENCH_jq.json with ns/eval and minor-words/eval per cell.  --gate as in
# bench-smoke.
bench-jq:
	dune exec bench/jq_bench.exe -- --gate

# Engine jq throughput and select latency at l = 2, 3 and 5, written to
# BENCH_multiclass.json.  Exits nonzero when the l = 2 row, the fig7b
# workload given as symmetric 2x2 matrices, is more than 5% slower than
# the same pool given as scalars.
bench-multiclass:
	dune exec bench/main.exe -- --multiclass

# Serving throughput at 1, 2 and 4 executor domains over four
# shard-spread pools, plus connection-scaling rows (100 and 1000 open
# TCP connections with a closed-loop active subset), written to
# BENCH_serve.json with the 2-domain (scaling_2d) and widest-row
# (speedup_vs_1_domain) ratios and per-row conn_rows.  --gate as in
# bench-smoke: nonzero exit on errors, shed connections, read timeouts,
# a sub-threshold speedup or a collapsed active p95.
bench-serve: build
	dune exec bench/serve_bench.exe -- --gate

# Adaptive sessions vs one-shot juries on the synthetic AMT replay
# (cost/task at matched accuracy), plus session-verb latency quantiles
# through an in-process service, written to BENCH_session.json.  --gate
# as in bench-smoke.
bench-session: build
	dune exec bench/session_bench.exe -- --gate

# Streaming calibration vs the static registration: AMT replay matching
# the offline Dawid-Skene fit, spammer-onset flagging latency, live
# re-selection accuracy against the stale standing jury, and report-verb
# ingest latency, written to the committed BENCH_quality.json.  --gate
# as in bench-smoke.
bench-quality: build
	dune exec bench/quality_bench.exe -- --gate

# Price-based shared-pool fleet allocation at 1k and 10k concurrent
# tasks: bulk throughput, aggregate JQ vs the independent-greedy
# baseline, delta-path latency quantiles and the single-decide delta vs
# cold-full re-solve ratio, written to the committed BENCH_fleet.json.
# --gate as in bench-smoke.
bench-fleet: build
	dune exec bench/fleet_bench.exe -- --gate

# Paired daemon benchmark runs of a parent revision against the working
# tree (bench/pairs.sh, which holds the defaults): pass its options in
# ARGS, e.g. make bench-pairs ARGS="--parent HEAD~1 --seed 5003".
bench-pairs:
	sh bench/pairs.sh $(ARGS)

# End-to-end daemon smoke: boot `optjs_cli serve`, run the closed-loop
# load generator against it — once with the default scalar pool, once
# with a 3-label confusion-matrix pool, once with a session-heavy mix,
# once with a fleet-heavy mix (shared-pool contention churn) — and
# assert zero protocol errors (loadgen exits nonzero otherwise).
# The built binary is run directly so backgrounding and kill behave
# predictably.
SERVE_SMOKE_PORT ?= 17871
serve-smoke: build
	@./_build/default/bin/optjs_cli.exe serve --port $(SERVE_SMOKE_PORT) \
	  --log-interval 0 >/dev/null 2>&1 & pid=$$!; \
	sleep 1; \
	./_build/default/bin/optjs_cli.exe loadgen --port $(SERVE_SMOKE_PORT) \
	  --connections 4 --duration 3 && \
	./_build/default/bin/optjs_cli.exe loadgen --port $(SERVE_SMOKE_PORT) \
	  --labels 3 --connections 4 --duration 3 && \
	./_build/default/bin/optjs_cli.exe loadgen --port $(SERVE_SMOKE_PORT) \
	  --mix "jqpool:2,session:3" --connections 4 --duration 3 && \
	./_build/default/bin/optjs_cli.exe loadgen --port $(SERVE_SMOKE_PORT) \
	  --mix "fleet:4,jq:1" --fleet-depth 8 --connections 4 \
	  --duration 3; status=$$?; \
	kill $$pid 2>/dev/null; \
	exit $$status

clean:
	dune clean
	rm -f BENCH_jsp.json BENCH_serve.json BENCH_multiclass.json \
	  BENCH_jq.json BENCH_session.json BENCH_quality.fast.json \
	  BENCH_fleet.fast.json
