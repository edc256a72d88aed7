#!/usr/bin/env bash
# lint.sh — the repo's static gate: formatting, go vet, the
# staccatolint invariant suite (cmd/staccatovet), and a check that no
# float multiply-add in pkg/ is fused on arm64. CI's lint job runs
# this script; run it locally before pushing to get the same verdict.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
  echo "gofmt needed on:" "$unformatted"
  exit 1
fi

echo "== go vet"
go vet ./...

echo "== staccatovet (repo invariant suite)"
go run ./cmd/staccatovet ./...

echo "== fused multiply-add (GOARCH=arm64)"
# arm64 fuses x*y+z into one FMADDD unless the product is rounded
# explicitly with float64(...), which would give probabilities and index
# bounds different bits than amd64. No float in pkg/ may be fused.
if ! asm=$(GOARCH=arm64 go build -gcflags=-S ./pkg/... 2>&1); then
  echo "$asm" | tail -20
  exit 1
fi
fused=$(grep -E 'FN?M(ADD|SUB)D' <<<"$asm" || true)
if [ -n "$fused" ]; then
  echo "fused multiply-adds under GOARCH=arm64 (round the product with float64(...)):"
  echo "$fused"
  exit 1
fi

echo "lint: all clean"
