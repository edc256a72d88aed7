package main

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store/diskstore"
)

// bruteForce ranks docs for each query by evaluating Query.Eval on every
// one — no index, no planner, no engine — with the engine's documented
// ranking: probability descending, ties by ascending ID, zero dropped,
// the n best kept.
func bruteForce(docs []*staccato.Doc, qs []*query.Query, n int) [][]query.Result {
	out := make([][]query.Result, len(qs))
	_ = parallelFor(len(qs), func(i int) error {
		var res []query.Result
		for _, d := range docs {
			if p := qs[i].Eval(d); p > 0 {
				res = append(res, query.Result{DocID: d.ID, Prob: p})
			}
		}
		slices.SortFunc(res, func(a, b query.Result) int {
			if c := cmp.Compare(b.Prob, a.Prob); c != 0 {
				return c
			}
			return strings.Compare(a.DocID, b.DocID)
		})
		if len(res) > n {
			res = res[:n]
		}
		out[i] = res
		return nil
	})
	return out
}

// sameResults reports whether two rankings are identical: the same IDs
// in the same order with bit-identical probabilities.
func sameResults(a, b []query.Result) bool {
	return slices.EqualFunc(a, b, func(x, y query.Result) bool {
		return x.DocID == y.DocID && math.Float64bits(x.Prob) == math.Float64bits(y.Prob)
	})
}

// diffResults describes the first difference between got and want.
func diffResults(got, want []query.Result) string {
	for i := 0; i < max(len(got), len(want)); i++ {
		var g, w query.Result
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g.DocID != w.DocID || math.Float64bits(g.Prob) != math.Float64bits(w.Prob) {
			return fmt.Sprintf("rank %d: got %s %v, want %s %v (got %d results, want %d)", i, g.DocID, g.Prob, w.DocID, w.Prob, len(got), len(want))
		}
	}
	return "identical"
}

// liveDocs reads every live document of the store in dir straight from
// the store layer; dir must not be open elsewhere.
func liveDocs(ctx context.Context, dir string) ([]*staccato.Doc, error) {
	st, err := diskstore.Open(dir, diskstore.Options{})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var docs []*staccato.Doc
	err = st.Scan(ctx, func(d *staccato.Doc) error {
		docs = append(docs, d)
		return nil
	})
	return docs, err
}
