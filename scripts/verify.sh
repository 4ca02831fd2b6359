#!/bin/sh
# verify.sh — the repo's pre-merge gate, run locally or from `make verify`.
#
# Order matters: the cheap static checks fail fast before the race suite
# (the slow step; the experiments package re-runs every figure under it).
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./...  (tier-1)"
go test ./...

echo "== go test -race ./..."
go test -race ./...

echo "== go test -race -count=2 (chaos + cluster recovery + concurrency harness + heat-tier index, repeated)"
go test -race -count=2 ./internal/cluster/... ./internal/chaos/... ./internal/clustertest/... ./internal/core/... ./internal/bitmap/...

# Coverage floors, one per package, each set when its subsystem landed:
# cluster (admission, scheduling, recovery), resultcache (semantic result
# cache: normalization hits, subsumption, TTL, quotas, invalidation), events
# (the flight recorder: emission, canonical ordering, drop accounting), exec
# (expression evaluation, aggregation cells, partitioned hash join/agg and
# the grace-hash spill path) and core (SmartIndex: heat sketch, hot/cold
# tiers, striped promotion, derivation, budget eviction). Raise a floor when
# coverage improves; never lower it to make a PR pass.
for pair in cluster:83.0 resultcache:90.0 events:92.0 exec:85.0 core:85.0; do
	pkg=${pair%%:*}
	floor=${pair#*:}
	echo "== coverage floor (internal/${pkg} >= ${floor}%)"
	cov=$(go test -cover "./internal/${pkg}" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
	if [ -z "$cov" ]; then
		echo "coverage: could not parse 'go test -cover ./internal/${pkg}' output" >&2
		exit 1
	fi
	if awk "BEGIN{exit !($cov < $floor)}"; then
		echo "coverage: internal/${pkg} at ${cov}%, below the ${floor}% floor" >&2
		exit 1
	fi
	echo "coverage: internal/${pkg} at ${cov}%"
done

echo "== fuzz smoke (FuzzParse, 10s)"
go test -fuzz=FuzzParse -fuzztime=10s -run='^$' ./internal/sqlparser

echo "== telemetry smoke (exporter on an ephemeral port)"
go run ./cmd/feisu -smoke-telemetry -rows 256 -parts 2

echo "== chaos smoke (seeded fault injection, seed 1)"
go run ./cmd/feisu-bench -exp chaos -seed 1 -short -scale small

echo "== parscan smoke (intra-task parallel scan, 2x scan-time floor at 4 workers)"
go run ./cmd/feisu-bench -exp parscan -short -scale small

echo "== admission smoke (bounded tail latency under offered overload)"
go run ./cmd/feisu-bench -exp admission -short -scale small

echo "== rescache smoke (semantic result cache, off vs on)"
go run ./cmd/feisu-bench -exp rescache -short -scale small

echo "== flightrec smoke (journaled query chain + observability endpoints)"
go run ./cmd/feisu -smoke-flightrec -rows 256 -parts 2

echo "== flightrec overhead smoke (recorder off vs on)"
go run ./cmd/feisu-bench -exp flightrec -short -scale small

echo "== shuffle smoke (repartition vs broadcast equivalence + journaled shuffle chain)"
go run ./cmd/feisu -smoke-shuffle

echo "== shuffle bench smoke (broadcast vs repartition vs spill across build scales)"
go run ./cmd/feisu-bench -exp shuffle -short -scale small

# The TCP wire transport must be semantically invisible: the transport
# conformance battery runs against both fabrics inside the transport package,
# and the root differential/equivalence suites rerun with every cluster RPC
# crossing real loopback sockets.
echo "== transport conformance (sim + tcp fabrics, race)"
go test -race -count=1 ./internal/transport/

echo "== differential + equivalence suites over TCP (FEISU_TRANSPORT=tcp)"
FEISU_TRANSPORT=tcp go test -count=1 -run 'TestTCPTransport|TestDifferential|TestClusterMatchesSingleNode|TestEquivalenceUnderChaos|TestMetamorphic' .

echo "== multi-process smoke (1 master / 2 stems / 4 leaves as OS processes on loopback)"
go run ./cmd/feisu-node -smoke

echo "== wire bench smoke (scale-out over real sockets vs sim prediction)"
go run ./cmd/feisu-bench -exp wire -short -scale small

echo "== zipfidx smoke (skew-aware SmartIndex, heat-aware vs uniform LRU)"
go run ./cmd/feisu-bench -exp zipfidx -short -scale small

echo "verify: OK"
