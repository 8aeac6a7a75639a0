# Single source of truth for the commands CI runs; humans run the same
# targets locally.

GO ?= go

.PHONY: build vet fmt test race bench bench-smoke bench-compare bench-ab bench-check docs-lint fuzz-smoke examples algo-smoke hkd-smoke chaos-smoke cluster-smoke sdk-smoke obs-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt fails (like CI) when any file needs reformatting; run `gofmt -w .` to fix.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# race covers the packages with concurrency surface (root package: Sharded,
# one shard or many, and Window; internal/vswitch: the lock-free SPSC ring and its pipeline) and the
# sketch core under them. internal/vswitch takes a few seconds of test time
# under -race; most of its wall time is the race build.
race:
	$(GO) test -race -count=1 . ./internal/core ./internal/topk ./internal/streamsummary ./internal/cluster ./internal/collector ./internal/obs ./internal/vswitch ./server ./wire ./client

bench:
	$(GO) test -run - -bench Ingest -benchtime 1s .

# bench-smoke is CI's fast pass over the ingest benchmarks: 10 iterations per
# benchmark just proves the perf paths still run (and report allocs).
bench-smoke:
	$(GO) test -run=NONE -bench=Ingest -benchtime=10x .

# bench-compare times benchmarks of a baseline git ref (BASE, default HEAD)
# against the working tree. BASE is exported with git archive and each side's
# test binary is built once with -trimpath (identical sources give
# byte-identical binaries, so a null comparison measures only noise). Then,
# COUNT times, every benchmark runs for 1s on both sides back to back in
# fresh processes, the side that goes first alternating, so drift on the
# host (thermal, neighbours) lands on both sides alike. It prints benchstat
# when installed, else the median ns/op per benchmark and side with the
# change. Usage:
#   make bench-compare                          # working tree vs HEAD, Ingest benchmarks
#   make bench-compare BASE=HEAD~1 COUNT=10     # vs the previous commit
#   make bench-compare BENCH=ShardedList        # any -bench pattern both sides define
BASE ?= HEAD
COUNT ?= 5
BENCH ?= Ingest
bench-compare:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; git archive $(BASE) | tar -x -C "$$tmp/base"; \
	echo "building $(BASE) and the working tree ..."; \
	( cd "$$tmp/base" && $(GO) test -trimpath -c -o "$$tmp/old.test" . ); \
	$(GO) test -trimpath -c -o "$$tmp/new.test" .; \
	names=$$("$$tmp/new.test" -test.run='^$$' -test.bench='$(BENCH)' -test.benchtime=1x | \
		awk '/^Benchmark/ { sub(/-[0-9]+$$/, "", $$1); print $$1 }'); \
	run() { ( cd "$$1" && "$$tmp/$$2.test" -test.run='^$$' -test.bench="$$3" -test.benchtime=1s ) | grep '^Benchmark' >> "$$tmp/$$2.txt" || true; }; \
	for i in $$(seq 1 $(COUNT)); do \
		echo "round $$i/$(COUNT)"; \
		for name in $$names; do \
			pat="^$$(printf '%s' "$$name" | sed 's|/|$$/^|g')$$"; \
			if [ $$((i % 2)) -eq 1 ]; then run "$$tmp/base" old "$$pat"; run . new "$$pat"; \
			else run . new "$$pat"; run "$$tmp/base" old "$$pat"; fi; \
		done; \
	done; \
	if command -v benchstat >/dev/null 2>&1; then \
		benchstat "$$tmp/old.txt" "$$tmp/new.txt"; \
	else \
		med() { awk '{print $$1, $$3}' "$$1" | LC_ALL=C sort -k1,1 -k2,2g | awk ' \
			function flush() { if (n) print name, (n % 2 ? v[(n+1)/2] : (v[n/2] + v[n/2+1]) / 2) } \
			$$1 != name { flush(); name = $$1; n = 0 } { v[++n] = $$2 } END { flush() }'; }; \
		touch "$$tmp/old.txt" "$$tmp/new.txt"; \
		med "$$tmp/old.txt" > "$$tmp/old.med"; med "$$tmp/new.txt" > "$$tmp/new.med"; \
		printf '%-60s %12s %12s %8s\n' "median ns/op over $(COUNT) rounds" "$(BASE)" "tree" "delta"; \
		LC_ALL=C join "$$tmp/old.med" "$$tmp/new.med" | awk '{ printf "%-60s %12.1f %12.1f %+7.1f%%\n", $$1, $$2, $$3, 100 * ($$3 - $$2) / $$2 }'; \
	fi

# bench-ab compares BASE with the working tree on one workload of the
# end-to-end benchmark (bench/), by bench/README.md's "Comparing two
# commits" method. BASE is exported into a temporary directory and the
# working tree's bench/ is copied over it, so both sides run the same
# benchmark. Then PAIRS pairs of 25 s runs alternate which side goes
# first, each pair on a fresh seed, and cmd/benchab prints every metric's
# median, quartiles and win count for both sides. With AB_OUT set, the
# raw one-line results are kept there as <workload>-{base,change}.jsonl.
# Each run takes about 35 s once both sides are built, so the default ten
# pairs take about 12 minutes. Usage:
#   make bench-ab BASE=HEAD~1 WORKLOAD=elephants-b64 PAIRS=10
WORKLOAD ?= elephants-b64
PAIRS ?= 10
AB_OUT ?=
bench-ab:
	@set -e; tmp=$$(mktemp -d); \
	trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/base"; git archive $(BASE) | tar -x -C "$$tmp/base"; \
	rm -rf "$$tmp/base/bench"; cp -R bench "$$tmp/base/bench"; \
	for s in $$(seq 1 $(PAIRS)); do \
		order="base change"; [ $$((s % 2)) = 0 ] && order="change base"; \
		for side in $$order; do \
			dir=.; [ $$side = base ] && dir="$$tmp/base"; \
			echo "pair $$s of $(PAIRS): $$side, seed $$s"; \
			line=$$(cd "$$dir" && bash bench/run.sh --workload $(WORKLOAD) --seed $$s \
				--seconds 25 --trace 0 | tail -1) || true; \
			echo "$${line:-no result}" >> "$$tmp/$$side.jsonl"; \
		done; \
	done; \
	if [ -n "$(AB_OUT)" ]; then mkdir -p "$(AB_OUT)"; \
		cp "$$tmp/base.jsonl" "$(AB_OUT)/$(WORKLOAD)-base.jsonl"; \
		cp "$$tmp/change.jsonl" "$(AB_OUT)/$(WORKLOAD)-change.jsonl"; fi; \
	echo "== $(WORKLOAD): $(BASE) (base) against the working tree (change), $(PAIRS) pairs"; \
	$(GO) run ./cmd/benchab -spec BENCHMARK.json "$$tmp/base.jsonl" "$$tmp/change.jsonl"

# bench-check vets and tests the end-to-end benchmark (bench/), which is its
# own Go module, so build, vet and test above never compile it: an API it
# calls could vanish with every other target green. Its TestQuick runs all
# four workloads at quick scale (CI runs this target). It never runs
# `go build ./...` inside bench/, which would leave a bench/bench binary.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -count=1 ./...

# docs-lint checks that relative links in README.md and doc/*.md resolve and
# that fenced ```go snippets are gofmt-formatted (CI runs this target).
docs-lint:
	$(GO) run ./cmd/doclint

# fuzz-smoke gives the sketch frame decoder, the open-addressed store index,
# the tracker's store-probe gate (against an always-probe oracle), the
# ingest wire-frame decoder, the report-frame decoder and the checksummed
# snapshot-envelope reader (FuzzSnapshotRead) a short adversarial workout
# (CI runs this target).
fuzz-smoke:
	$(GO) test ./internal/core -run=NONE -fuzz=FuzzDecode -fuzztime=10s
	$(GO) test ./internal/streamsummary -run=NONE -fuzz=FuzzStoreEquivalence -fuzztime=10s
	$(GO) test ./internal/topk -run=NONE -fuzz=FuzzProbeGate -fuzztime=10s
	$(GO) test ./wire -run=NONE -fuzz=FuzzWireDecode -fuzztime=10s
	$(GO) test ./wire -run=NONE -fuzz=FuzzReportDecode -fuzztime=10s
	$(GO) test . -run=NONE -fuzz=FuzzSnapshotRead -fuzztime=10s

# examples builds and runs every program under examples/ (CI runs this
# target, so the README's entry points can never rot).
examples:
	@set -e; for d in examples/*/; do \
		echo "== go run ./$$d"; \
		$(GO) run ./$$d > /dev/null; \
	done; echo "all examples ran"

# hkd-smoke boots the daemon end to end (CI runs this target): build hkd and
# hkbench, start hkd on ephemeral loopback ports with a snapshot file, stream
# a generated trace over the wire protocol, and verify /topk flow-for-flow
# against a twin summarizer replaying the same trace in process (hkbench
# -verify rebuilds the daemon's engine from /config with the same sizing
# hktopk uses, so this is the machine-checked diff against an offline run).
# Then SIGTERM the daemon, restart it from the snapshot, verify the restored
# state, and finally repeat the ingest+verify over UDP against a fresh
# instance.
hkd-smoke:
	@set -e; tmp=$$(mktemp -d); pid=""; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/hkd" ./cmd/hkd; \
	$(GO) build -o "$$tmp/hkbench" ./cmd/hkbench; \
	start_hkd() { \
		rm -f "$$tmp/addrs"; \
		"$$tmp/hkd" -listen-tcp 127.0.0.1:0 -listen-udp 127.0.0.1:0 \
			-listen-http 127.0.0.1:0 -addr-file "$$tmp/addrs" -quiet "$$@" & pid=$$!; \
		i=0; while [ ! -f "$$tmp/addrs" ]; do \
			i=$$((i+1)); [ $$i -le 100 ] || { echo "hkd never published addresses"; exit 1; }; \
			sleep 0.1; done; \
		tcp=$$(grep '^tcp=' "$$tmp/addrs" | cut -d= -f2-); \
		udp=$$(grep '^udp=' "$$tmp/addrs" | cut -d= -f2-); \
		http=$$(grep '^http=' "$$tmp/addrs" | cut -d= -f2-); \
	}; \
	stop_hkd() { kill -TERM $$pid; wait $$pid; pid=""; }; \
	echo "== hkd-smoke: TCP ingest + verify"; \
	start_hkd -snapshot "$$tmp/hkd.snap"; \
	"$$tmp/hkbench" -connect "$$tcp" -verify "$$http" -scale 0.002 -batch 256; \
	stop_hkd; \
	echo "== hkd-smoke: SIGHUP writes a snapshot generation without restart"; \
	start_hkd -snapshot "$$tmp/hkd.snap"; \
	gens=$$(ls "$$tmp"/hkd.snap.g* | wc -l); \
	kill -HUP $$pid; \
	i=0; while [ "$$(ls "$$tmp"/hkd.snap.g* | wc -l)" -le "$$gens" ]; do \
		i=$$((i+1)); [ $$i -le 100 ] || { echo "SIGHUP never produced a snapshot"; exit 1; }; \
		sleep 0.1; done; \
	stop_hkd; \
	echo "== hkd-smoke: restart from snapshot + verify restored state"; \
	start_hkd -snapshot "$$tmp/hkd.snap"; \
	"$$tmp/hkbench" -verify "$$http" -scale 0.002 -batch 256; \
	stop_hkd; \
	echo "== hkd-smoke: UDP ingest + verify (fresh instance)"; \
	start_hkd; \
	"$$tmp/hkbench" -connect-udp "$$udp" -verify "$$http" -scale 0.001 -batch 64; \
	stop_hkd; \
	echo "hkd-smoke ok"

# chaos-smoke runs the deterministic fault-injection suite under the race
# detector (CI runs this target): the hkd lifecycle across 24 seeds of
# injected connection resets, torn frames, corrupted bytes, delayed accepts
# and failed snapshot writes — asserting no panics, no goroutine leaks,
# consistent counters, and restore from the newest intact generation.
chaos-smoke:
	$(GO) test -race -count=1 ./internal/chaos
	$(GO) test -race -count=1 ./server -run 'TestChaosSeeds|TestDegraded|TestSnapshotGenerations'

# cluster-smoke boots the fault-tolerant cluster tier end to end (CI runs
# this target): three hkd members with snapshot stores, one hkagg
# aggregator collecting over GET /snapshot, ring-replicated ingest
# (MaxReplica=2) via hkbench -cluster, and the global /topk verified
# flow-for-flow against the trace's exact truth counts at full coverage.
# Then one member is SIGTERMed and the same truth is re-verified with
# -coverage degraded: the single-node-loss guarantee (no true top flow
# drops, counts stay exact) plus observable degradation (coverage < 1).
cluster-smoke:
	@set -e; tmp=$$(mktemp -d); pids=""; \
	trap 'kill $$pids 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/hkd" ./cmd/hkd; \
	$(GO) build -o "$$tmp/hkagg" ./cmd/hkagg; \
	$(GO) build -o "$$tmp/hkbench" ./cmd/hkbench; \
	start_node() { \
		rm -f "$$tmp/addrs$$1"; \
		"$$tmp/hkd" -listen-tcp 127.0.0.1:0 -listen-udp 127.0.0.1:0 \
			-listen-http 127.0.0.1:0 -addr-file "$$tmp/addrs$$1" \
			-snapshot "$$tmp/node$$1.hks" -quiet & \
		echo $$! > "$$tmp/pid$$1"; pids="$$pids $$!"; \
	}; \
	wait_file() { \
		j=0; while [ ! -f "$$1" ]; do \
			j=$$((j+1)); [ $$j -le 100 ] || { echo "$$1 never appeared"; exit 1; }; \
			sleep 0.1; done; \
	}; \
	start_node 1; start_node 2; start_node 3; \
	spec=""; members=""; \
	for i in 1 2 3; do \
		wait_file "$$tmp/addrs$$i"; \
		tcp=$$(grep '^tcp=' "$$tmp/addrs$$i" | cut -d= -f2-); \
		http=$$(grep '^http=' "$$tmp/addrs$$i" | cut -d= -f2-); \
		spec="$$spec,$$tcp/$$http"; members="$$members,$$http"; \
	done; \
	spec=$${spec#,}; members=$${members#,}; \
	"$$tmp/hkagg" -nodes "$$members" -listen-http 127.0.0.1:0 \
		-addr-file "$$tmp/aggaddr" -interval 200ms -quiet & \
	pids="$$pids $$!"; \
	wait_file "$$tmp/aggaddr"; \
	agg=$$(grep '^http=' "$$tmp/aggaddr" | cut -d= -f2-); \
	echo "== cluster-smoke: replicated ingest (MaxReplica=2) + verify at full coverage"; \
	"$$tmp/hkbench" -cluster "$$spec" -replicas 2 -verify "$$agg" \
		-coverage full -scale 0.002 -batch 256; \
	echo "== cluster-smoke: kill one member, re-verify degraded"; \
	kill -TERM "$$(cat "$$tmp/pid1")"; wait "$$(cat "$$tmp/pid1")" || true; \
	"$$tmp/hkbench" -cluster "$$spec" -replicas 2 -verify "$$agg" \
		-coverage degraded -verify-only -scale 0.002 -batch 256; \
	echo "cluster-smoke ok"

# sdk-smoke boots the secure multi-tenant serving path end to end (CI runs
# this target): the in-process SDK conformance suite under the race
# detector (TLS auth, tenant isolation, per-tenant audit counters), then
# the real binaries — hkcert generates a self-signed certificate, hkd
# starts with TLS and two tenant tokens, each tenant streams a distinct
# trace through the SDK (hkbench dogfoods it) and is verified
# flow-for-flow against its own twin (any cross-tenant leak would corrupt
# the counts), and a wrong token must be rejected.
sdk-smoke:
	$(GO) test -race -count=1 ./client -run 'TestTLSAuthEndToEnd|TestTenantIsolation'
	@set -e; tmp=$$(mktemp -d); pid=""; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/hkd" ./cmd/hkd; \
	$(GO) build -o "$$tmp/hkbench" ./cmd/hkbench; \
	$(GO) build -o "$$tmp/hkcert" ./cmd/hkcert; \
	"$$tmp/hkcert" -cert "$$tmp/cert.pem" -key "$$tmp/key.pem" > /dev/null; \
	printf 'token-a tenant-a\ntoken-b tenant-b\n' > "$$tmp/tokens.txt"; \
	"$$tmp/hkd" -listen-tcp 127.0.0.1:0 -listen-udp '' -listen-http 127.0.0.1:0 \
		-addr-file "$$tmp/addrs" -tls-cert "$$tmp/cert.pem" -tls-key "$$tmp/key.pem" \
		-token-file "$$tmp/tokens.txt" -admin-token sdk-smoke-admin -quiet & pid=$$!; \
	i=0; while [ ! -f "$$tmp/addrs" ]; do \
		i=$$((i+1)); [ $$i -le 100 ] || { echo "hkd never published addresses"; exit 1; }; \
		sleep 0.1; done; \
	tcp=$$(grep '^tcp=' "$$tmp/addrs" | cut -d= -f2-); \
	http=$$(grep '^http=' "$$tmp/addrs" | cut -d= -f2-); \
	echo "== sdk-smoke: tenant-a ingest + verify over TLS"; \
	"$$tmp/hkbench" -connect "$$tcp" -verify "$$http" -token token-a \
		-ca "$$tmp/cert.pem" -seed 101 -scale 0.002 -batch 256; \
	echo "== sdk-smoke: tenant-b ingest + verify over TLS (distinct trace)"; \
	"$$tmp/hkbench" -connect "$$tcp" -verify "$$http" -token token-b \
		-ca "$$tmp/cert.pem" -seed 202 -scale 0.002 -batch 256; \
	echo "== sdk-smoke: re-verify tenant-a after tenant-b (isolation)"; \
	"$$tmp/hkbench" -verify "$$http" -token token-a \
		-ca "$$tmp/cert.pem" -seed 101 -scale 0.002 -batch 256; \
	echo "== sdk-smoke: wrong token must be rejected"; \
	if "$$tmp/hkbench" -verify "$$http" -token wrong -ca "$$tmp/cert.pem" \
		-seed 101 -scale 0.002 2> "$$tmp/err"; then \
		echo "wrong token was accepted"; exit 1; fi; \
	grep -q "unknown or revoked token" "$$tmp/err" || { \
		echo "rejection lacked the typed auth error:"; cat "$$tmp/err"; exit 1; }; \
	echo "sdk-smoke ok"

# obs-smoke exercises the observability layer end to end (CI runs this
# target): boot hkd with the opt-in debug listener and debug-level logs,
# point a one-node hkagg at it, ingest a trace, then assert that /metrics
# exposes the latency histogram families with cumulative buckets
# (+Inf == _count) and the socket-read counter next to the byte counters,
# that /stats carries the latency section and the read count, that hkagg's
# /metrics counts collected bytes and unchanged long-poll answers, that the
# pprof listener serves a goroutine profile, and that one collect's
# X-Request-Id generated by hkagg appears in both tiers' logs — the
# cross-process tracing contract.
obs-smoke:
	@set -e; tmp=$$(mktemp -d); pids=""; \
	trap 'kill $$pids 2>/dev/null || true; wait 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/hkd" ./cmd/hkd; \
	$(GO) build -o "$$tmp/hkagg" ./cmd/hkagg; \
	$(GO) build -o "$$tmp/hkbench" ./cmd/hkbench; \
	"$$tmp/hkd" -listen-tcp 127.0.0.1:0 -listen-udp '' -listen-http 127.0.0.1:0 \
		-debug-addr 127.0.0.1:0 -addr-file "$$tmp/addrs" \
		-log-level debug -log-format text 2> "$$tmp/hkd.log" & pids="$$pids $$!"; \
	i=0; while [ ! -f "$$tmp/addrs" ]; do \
		i=$$((i+1)); [ $$i -le 100 ] || { echo "hkd never published addresses"; exit 1; }; \
		sleep 0.1; done; \
	tcp=$$(grep '^tcp=' "$$tmp/addrs" | cut -d= -f2-); \
	http=$$(grep '^http=' "$$tmp/addrs" | cut -d= -f2-); \
	debug=$$(grep '^debug=' "$$tmp/addrs" | cut -d= -f2-); \
	"$$tmp/hkagg" -nodes "$$http" -listen-http 127.0.0.1:0 -addr-file "$$tmp/aggaddr" \
		-interval 200ms -log-level debug -log-format text 2> "$$tmp/hkagg.log" & pids="$$pids $$!"; \
	i=0; while [ ! -f "$$tmp/aggaddr" ]; do \
		i=$$((i+1)); [ $$i -le 100 ] || { echo "hkagg never published its address"; exit 1; }; \
		sleep 0.1; done; \
	echo "== obs-smoke: ingest + send-latency quantiles in the JSON report"; \
	"$$tmp/hkbench" -connect "$$tcp" -verify "$$http" -scale 0.002 -batch 256 -json \
		> "$$tmp/bench.json"; \
	grep -q '"send_latency"' "$$tmp/bench.json" || { \
		echo "hkbench -json lacks send_latency:"; cat "$$tmp/bench.json"; exit 1; }; \
	echo "== obs-smoke: /metrics histogram families, cumulative, +Inf == _count"; \
	curl -fsS "http://$$http/metrics" > "$$tmp/metrics"; \
	for fam in hkd_ingest_batch_seconds hkd_http_request_seconds; do \
		grep -q "^# TYPE $$fam histogram" "$$tmp/metrics" || { \
			echo "missing histogram family $$fam"; exit 1; }; \
	done; \
	awk '/^hkd_ingest_batch_seconds_bucket/ { v=$$NF+0; if (v < prev) { print "non-cumulative bucket: " $$0; bad=1 }; prev=v; inf=v } \
		/^hkd_ingest_batch_seconds_count/ { if ($$NF+0 != inf) { print "+Inf bucket " inf " != _count " $$NF; bad=1 } } \
		END { exit bad }' "$$tmp/metrics"; \
	echo "== obs-smoke: /metrics counts ingest socket reads"; \
	grep -q '^# TYPE hkd_tcp_reads_total counter' "$$tmp/metrics" || { \
		echo "missing counter family hkd_tcp_reads_total"; exit 1; }; \
	awk '/^hkd_tcp_reads_total / { n=$$NF+0 } END { if (n <= 0) { print "hkd_tcp_reads_total is " n " after ingest"; exit 1 } }' "$$tmp/metrics"; \
	echo "== obs-smoke: /stats carries the latency section and the read count"; \
	curl -fsS "http://$$http/stats" > "$$tmp/stats"; \
	grep -q '"latency"' "$$tmp/stats" || { \
		echo "/stats lacks the latency section"; exit 1; }; \
	grep -q '"tcp_reads"' "$$tmp/stats" || { \
		echo "/stats lacks tcp_reads"; exit 1; }; \
	echo "== obs-smoke: hkagg /metrics counts collect bytes and unchanged long-polls"; \
	agg=$$(grep '^http=' "$$tmp/aggaddr" | cut -d= -f2-); \
	i=0; while :; do \
		curl -fsS "http://$$agg/metrics" > "$$tmp/aggmetrics"; \
		awk '/^hkagg_collects_unchanged_total/ { n+=$$NF } END { exit !(n > 0) }' "$$tmp/aggmetrics" && break; \
		i=$$((i+1)); [ $$i -le 50 ] || { echo "hkagg never saw an unchanged long-poll answer"; exit 1; }; \
		sleep 0.1; done; \
	for fam in hkagg_collect_bytes_total hkagg_collects_unchanged_total; do \
		grep -q "^# TYPE $$fam counter" "$$tmp/aggmetrics" || { \
			echo "missing counter family $$fam"; exit 1; }; \
	done; \
	grep -q '^# TYPE hkagg_collect_seconds histogram' "$$tmp/aggmetrics" || { \
		echo "missing histogram family hkagg_collect_seconds"; exit 1; }; \
	awk '/^hkagg_collect_bytes_total/ { n+=$$NF } END { if (n <= 0) { print "hkagg_collect_bytes_total is " n; exit 1 } }' "$$tmp/aggmetrics"; \
	echo "== obs-smoke: pprof listener serves a goroutine profile"; \
	curl -fsS "http://$$debug/debug/pprof/goroutine?debug=1" > "$$tmp/goroutines"; \
	grep -q goroutine "$$tmp/goroutines" || { \
		echo "pprof goroutine profile empty"; exit 1; }; \
	echo "== obs-smoke: one request id crosses the hkagg -> hkd boundary"; \
	i=0; rid=""; while [ -z "$$rid" ]; do \
		i=$$((i+1)); [ $$i -le 100 ] || { echo "hkagg never logged a collect"; exit 1; }; \
		rid=$$(grep -o 'msg=collect.*request_id=[0-9a-f]*' "$$tmp/hkagg.log" | head -1 | grep -o 'request_id=[0-9a-f]*' | cut -d= -f2-); \
		sleep 0.1; done; \
	i=0; while ! grep -q "request_id=$$rid" "$$tmp/hkd.log"; do \
		i=$$((i+1)); [ $$i -le 50 ] || { echo "request id $$rid from hkagg.log never reached hkd.log"; exit 1; }; \
		sleep 0.1; done; \
	echo "obs-smoke ok"

# algo-smoke runs the hkbench throughput comparison once per registered
# algorithm at a tiny scale: every engine must construct and ingest under
# all three frontends (CI runs this target).
algo-smoke:
	@set -e; for a in $$($(GO) run ./cmd/hkbench -list-algos); do \
		$(GO) run ./cmd/hkbench -throughput -algo $$a -scale 0.001 -shards 2 -batch 64 > /dev/null; \
		echo "algo $$a ok"; \
	done
