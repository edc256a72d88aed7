#!/usr/bin/env bash
# lint.sh — the repo's static gate: formatting, go vet, the
# staccatolint invariant suite (cmd/staccatovet), and a check that no
# float multiply-add in pkg/ is fused on any architecture that fuses.
# CI's lint job runs this script; run it locally before pushing to get
# the same verdict.
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

# These architectures fuse x*y+z into one multiply-add instruction
# unless the product is rounded explicitly with float64(...), which would
# give probabilities and index bounds different bits than amd64. No float
# in pkg/ may be fused on any of them. ppc64le and s390x print the
# instruction as FMADD/FMSUB, the others as FMADDD/FMSUBD.
for arch in arm64 ppc64le s390x riscv64 loong64; do
  echo "== fused multiply-add (GOARCH=$arch)"
  if ! asm=$(GOARCH=$arch go build -gcflags=-S ./pkg/... 2>&1); then
    echo "$asm" | tail -20
    exit 1
  fi
  fused=$(grep -E '\bFN?M(ADD|SUB)D?\b' <<<"$asm" || true)
  if [ -n "$fused" ]; then
    echo "fused multiply-adds under GOARCH=$arch (round the product with float64(...)):"
    echo "$fused"
    exit 1
  fi
done

echo "lint: all clean"
