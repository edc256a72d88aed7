package query_test

import (
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store"
)

// TestEvalAllocs gates the evaluation hot path's allocations on a fixed
// 6-chunk, k=3 document: a single-term Eval allocates only its state
// vectors, a boolean Eval only its growable product-DP buffers, and
// Decode a constant four objects (document, ID, text, chunk slice) plus
// one alternative slice per chunk. Allocation counts are independent of
// the alternatives' text, so a regression back to per-alternative
// allocation shows up here long before it shows in a benchmark.
func TestEvalAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts are measured in full runs")
	}
	cases, err := testgen.ErrDocs(1, testgen.ErrModelConfig{Words: 12, Seed: 3}, 6, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := cases[0].Doc
	if len(d.Chunks) != 6 {
		t.Fatalf("fixture has %d chunks, want 6", len(d.Chunks))
	}
	one := sub(t, "the")
	two := query.And(sub(t, "the"), query.Not(kw(t, "ing")))
	for _, tc := range []struct {
		name string
		max  float64
		fn   func()
	}{
		{"single-leaf Eval", 2, func() { one.Eval(d) }},
		{"two-leaf Eval", 16, func() { two.Eval(d) }},
	} {
		got := testing.AllocsPerRun(100, tc.fn)
		t.Logf("%s: %v allocs/op", tc.name, got)
		if got > tc.max {
			t.Errorf("%s: %v allocs/op, want <= %v", tc.name, got, tc.max)
		}
	}
	enc, err := store.Encode(d)
	if err != nil {
		t.Fatal(err)
	}
	var dec *staccato.Doc
	got := testing.AllocsPerRun(100, func() {
		if dec, err = store.Decode(enc); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("store.Decode: %v allocs/op", got)
	if limit := float64(4 + len(d.Chunks)); got > limit {
		t.Errorf("store.Decode: %v allocs/op, want <= %v", got, limit)
	}
	if dec.ID != d.ID {
		t.Errorf("decoded ID %q, want %q", dec.ID, d.ID)
	}
}
