#!/usr/bin/env bash
# run.sh builds the benchmark and staccatod from this checkout's source and
# runs one workload. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload serve-zipf --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
(
	cd perfbench
	go build -o "$build/bin/perfbench" .
	go build -o "$build/bin/staccatod" github.com/paper-repo/staccato-go/cmd/staccatod
) >&2
exec "$build/bin/perfbench" --staccatod "$build/bin/staccatod" "$@"
