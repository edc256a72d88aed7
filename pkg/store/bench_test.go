package store_test

import (
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/store"
)

// BenchmarkDecode times decoding one error-model document at the
// benchmark dial (6 chunks, k=3), the per-document cost every scan and
// batched fetch pays before evaluation.
func BenchmarkDecode(b *testing.B) {
	cases, err := testgen.ErrDocs(1, testgen.ErrModelConfig{Words: 12, Seed: 3}, 6, 3)
	if err != nil {
		b.Fatal(err)
	}
	data, err := store.Encode(cases[0].Doc)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := store.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
