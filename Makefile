GO ?= go

.PHONY: build generate test check bench-faultsim benchguard

build:
	$(GO) build ./...

# Regenerate the gate-evaluation kernels (the generic Go kernels and the
# AVX2 asm) from internal/gate/gen. check.sh fails when the committed
# output is stale.
generate:
	$(GO) generate ./internal/gate

test:
	$(GO) test ./...

# The tier-1 gate: build + vet + tests + the nested benchmark module's
# vet and tests + a short -race pass of the concurrency-bearing packages
# (fault simulation workers, event engine).
check:
	./scripts/check.sh

# The headline fault-grading benchmark; compare against BENCH_faultsim.json.
bench-faultsim:
	$(GO) test -bench BenchmarkTable5FaultCoverage -benchtime 1x -run '^$$' -timeout 3600s .

# Fail if the headline benchmark regresses >15% vs the recorded baseline.
benchguard:
	./scripts/benchguard.sh
