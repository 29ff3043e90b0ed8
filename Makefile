GO ?= go

.PHONY: build check test race vet fuzz-smoke resume-smoke daemon-smoke bench-fleet bench-trace bench-restore bench-tier

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# check is the CI gate: static analysis plus the race-enabled test suite.
check: vet race

# fuzz-smoke runs each native fuzz target briefly (the CI fuzz gate).
fuzz-smoke:
	$(GO) test -fuzz=FuzzRecv -fuzztime=10s -run='^$$' ./internal/rsp/
	$(GO) test -fuzz=FuzzRoundTrip -fuzztime=10s -run='^$$' ./internal/rsp/
	$(GO) test -fuzz=FuzzServerHandle -fuzztime=10s -run='^$$' ./internal/ocd/
	$(GO) test -fuzz=FuzzParseRepro -fuzztime=10s -run='^$$' ./internal/triage/
	$(GO) test -fuzz=FuzzParseManifestLine -fuzztime=10s -run='^$$' ./internal/corpus/
	$(GO) test -fuzz=FuzzDecodeCheckpoint -fuzztime=10s -run='^$$' ./internal/corpus/

# resume-smoke kills a persisted campaign with SIGKILL, verifies the durable
# store, resumes it and asserts coverage is a superset (the CI crash-safety
# gate).
resume-smoke:
	./scripts/resume_smoke.sh

# daemon-smoke boots eofd over a 2-board pool, drives it with eofctl as two
# tenants (one preempted mid-flight), then kill -9s the daemon under a third
# campaign and asserts the restart re-adopts it (the CI control-plane gate).
daemon-smoke:
	./scripts/daemon_smoke.sh

# bench-fleet runs the fleet scaling/round-trip benchmark and records the
# results in BENCH_fleet.json.
bench-fleet:
	./scripts/bench.sh fleet

# bench-trace runs the tracer-overhead benchmark (nop sink vs JSONL journal)
# and records the results in BENCH_trace.json.
bench-trace:
	./scripts/bench.sh trace

# bench-restore runs the restore-cost benchmark (full restoration vs the
# snapshot/delta rung) and records the results in BENCH_restore.json.
bench-restore:
	./scripts/bench.sh restore

# bench-tier runs the tiered-execution benchmark (emulation explore tier vs
# an all-hardware fleet) and records the results in BENCH_tier.json.
bench-tier:
	./scripts/bench.sh tier
