# Developer entry points. CI runs the same commands (see
# .github/workflows/ci.yml), so a green `make check bench-diff` locally
# predicts a green pipeline.

.PHONY: check lint lint-fix test docs-check cluster-e2e bench-baseline bench-diff bench-smoke

check: lint test docs-check

# gofmt must be clean (the CI lint job fails on any unformatted file),
# vet must pass, and convet — the custom contract vet over the
# determinism / RNG-stream / durability analyzers (DESIGN.md
# "Statically enforced contracts") — must report zero unsuppressed
# diagnostics. Lint budget: `go run ./cmd/convet ./...` loads package
# metadata and export data from the build cache, so it finishes in
# about a second warm and well under 30s cold (conbench-style note for
# builders: the whole lint target is never the long pole; `go build
# ./...` also covers cmd/convet itself).
lint:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	go vet ./...
	go run ./cmd/convet ./...

# lint-fix applies the mechanical half (gofmt). convet findings have
# no autofix by design: either fix the contract violation or annotate
# the flagged line with `//lint:allow <analyzer> <reason>` — the
# runner prints every suppression so waivers stay visible.
lint-fix:
	gofmt -w .
	go run ./cmd/convet ./...

test:
	go build ./...
	go test ./...

# docs-check runs the documentation audits (internal/docs): every
# relative markdown link resolves, every internal/* package has a
# doc.go stating its contract, and every curl example in README.md and
# the conserve docs decodes as a valid service request. `go test ./...`
# covers these too; the named target exists for doc-only edits.
docs-check:
	go test -count=1 ./internal/docs/

# cluster-e2e reproduces the CI cluster job locally, step for step:
# vet and convet over the cluster, the replicated ledger's
# unit/placement/fleet tests, the exactly-once dispatch, pre-vote,
# boot-election, ledger-residency, empty-follower catch-up and
# committed-entry-kept-across-a-restart tests repeated 20 times, the
# ledger tests (decided-job views rebuilt from
# the log, the decided-job footprint, older journals) repeated 20
# times, the runner's job-table tests (a done job leaves
# the table while Job reads the store and the ledger outside the
# lock) repeated 20 times, the dedup-waiter seam, and the real
# 5-process kill/failover e2e (SIGKILL the leader and a worker
# mid-sweep; the merged NDJSON must be byte-identical to a
# single-process run, and every surviving node must hold the same
# shard results for every key), all under -race.
cluster-e2e:
	go vet ./internal/cluster/... ./cmd/conserve/...
	go run ./cmd/convet ./internal/cluster/...
	go test -race -count=1 -timeout 300s ./internal/cluster/...
	go test -race -count=20 -timeout 300s -run 'DispatchExactlyOnce|PreVote|BootElection|Resident|CatchUp|RestartKeepsCommittedEntry' ./internal/cluster/
	go test -race -count=20 -run 'Ledger|Resident|DecideEra|AnswersFromLedger' ./internal/cluster/
	go test -race -count=20 -timeout 300s -run 'JobTable|Remote|Evicted' ./internal/service/
	go test -race -count=1 -run 'Remote' ./internal/service/...
	go test -race -count=1 -timeout 300s -run 'ClusterKillFailover' ./cmd/conserve/

# bench-baseline refreshes the committed bench-regression baseline.
# Run it on an otherwise idle machine after a deliberate perf change
# (or a hardware move) and commit the result; the CI bench-diff job
# compares every build against it with a ±25% fail / ±10% warn band.
bench-baseline:
	go run ./cmd/conbench -json BENCH_BASELINE.json -benchn 3

# bench-diff reproduces the CI gate locally.
bench-diff:
	go run ./cmd/conbench -json /tmp/conbench_current.json -benchn 3
	go run ./cmd/benchdiff -baseline BENCH_BASELINE.json -current /tmp/conbench_current.json

# bench-smoke vets and tests the benchmark harness. bench/ is its own
# Go module (replace plurality => ../), so `go test ./...` at the root
# never builds it; GOWORK=off keeps a developer's go.work out of it.
bench-smoke:
	GOWORK=off go -C bench vet .
	GOWORK=off go -C bench test .
