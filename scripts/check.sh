#!/bin/sh
# check.sh — the repo's tier-1 verification gate (gofmt, build, vet,
# tests), a compile-and-test pass of the nested benchmark module (which
# imports internal/fault and would otherwise go unbuilt), and a short race
# pass of the concurrency-bearing packages. Run from the repository root:
#
#   ./scripts/check.sh          # gofmt, build, vet, full tests, race pass
#   ./scripts/check.sh -short   # same, with -short tests
set -eu

short=""
if [ "${1:-}" = "-short" ]; then
    short="-short"
fi

echo "== go generate ./internal/gate (generated kernels must match the generator)"
go generate ./internal/gate
git diff --exit-code -- \
    internal/gate/kernels_generated.go \
    internal/gate/kernels_amd64.go \
    internal/gate/kernels_amd64.s \
    internal/gate/kernels_arm64.go \
    internal/gate/kernels_arm64.s || {
    echo "check: generated kernel files are stale; rerun 'make generate' and commit the output" >&2
    exit 1
}

echo "== gofmt -l (every Go file must be gofmt-clean)"
unformatted=$(gofmt -l ./*.go cmd examples internal benchmark)
if [ -n "$unformatted" ]; then
    echo "check: gofmt -l lists files that need formatting; run 'gofmt -w' on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

echo "== go test $short ./..."
go test $short ./...

echo "== (cd benchmark && go vet ./... && go test ./...) (nested benchmark module)"
(cd benchmark && go vet ./... && go test ./...)

echo "== go test -race -short ./internal/gate ./internal/fault ./internal/shard ./internal/serve ./internal/cache"
go test -race -short ./internal/gate ./internal/fault ./internal/shard ./internal/serve ./internal/cache

echo "== go test -run FuzzVariantVsISS -count=1 ./internal/plasma (differential fuzz seed corpus)"
go test -run FuzzVariantVsISS -count=1 ./internal/plasma

echo "== go test -tags purego $short ./internal/gate ./internal/fault (generic kernels)"
go test -tags purego $short ./internal/gate ./internal/fault

echo "== GOARCH=arm64 go build ./... (cross-arch smoke)"
GOARCH=arm64 go build ./...

echo "check: OK"
