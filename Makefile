.PHONY: all test examples bench smoke proptest margin trace chaos server \
	server-restart loadgen restart-recovery portfolio portfolio-bench \
	metrics metrics-overhead perfbench ci clean

all:
	dune build

test:
	dune runtest

examples:
	dune build @examples

bench:
	dune build @bench

smoke:
	dune build @smoke

proptest:
	dune build @proptest

margin:
	dune build @margin

trace:
	dune build @trace

# Fault-injection sweep: every injection point x several seeds, at
# jobs=1 and jobs=4, asserting each run ends in a verified design or a
# structured error.
chaos:
	dune build @chaos

# compactd battery: wire-protocol conformance, the design-cache
# contract (byte-identical hits, single-flight, LRU bounds) and the
# socket soak, at jobs=1 and jobs=4.
server:
	dune build @server

# Crash-safety battery: SIGKILL mid-journal-write then byte-identical
# recovered hits; loadgen across a mid-run kill with zero lost
# requests; graceful SIGTERM drain.  At jobs=1 and jobs=4.
server-restart:
	dune build @server-restart

# Portfolio battery: the racing determinism contract (byte-identical
# design and solver path at jobs=1 and jobs=4, winner reproducible
# standalone, clean races cacheable).
portfolio:
	dune build @portfolio

# Race and sifting kernels; regenerates BENCH_pr9.json (portfolio vs
# sequential Auto wall time on a budget-exhausting kernel, in-place
# sifting vs anneal-rebuild on the 8-bit multiplier).
portfolio-bench:
	dune exec bench/main.exe -- portfolio -j 4

# Telemetry battery: metrics/health wire goldens, histogram byte-
# determinism across jobs counts, flight-recorder dump round-trips.
# At jobs=1 and jobs=4.
metrics:
	dune build @metrics

# Armed-telemetry hit-path cost; regenerates BENCH_pr10.json
# (cache-hit latency with the metrics plane and flight recorder off
# vs armed, against the 5% budget).
metrics-overhead:
	dune exec bench/main.exe -- metrics-overhead

# Seeded mixed workload against a live compactd; regenerates
# BENCH_pr7.json (throughput, latency percentiles, cache hit rate).
loadgen:
	dune exec bench/main.exe -- loadgen -j 4

# Durable-cache costs; regenerates BENCH_pr8.json (recovery time vs
# cache size for the journal and snapshot paths, hit-path persistence
# overhead against the 5% budget).
restart-recovery:
	dune exec bench/main.exe -- restart-recovery

# The benchmark's own checks: its arithmetic (--selftest), then each
# workload once at minimal size, checking metric names and units against
# BENCHMARK.json and that every design verifies (--smoke).
perfbench:
	python3 perfbench/run.py --selftest
	python3 perfbench/run.py --smoke

# Tier-1 runs twice: once sequential, once with a 4-wide domain pool.
# Every parallel consumer is bit-identical across jobs counts, so the
# second run is a determinism check as much as a thread-safety one.
ci:
	dune build
	dune build @examples @bench
	COMPACT_JOBS=1 dune runtest
	COMPACT_JOBS=4 dune runtest --force
	COMPACT_TRACE=1 dune runtest --force
	dune exec test/test_manager_stress.exe
	dune build @proptest
	dune build @margin
	dune build @smoke
	dune build @trace
	dune build @chaos
	dune build @portfolio
	dune build @server
	dune build @metrics
	dune build @server-restart
	$(MAKE) perfbench

clean:
	dune clean
