package query_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
	"github.com/paper-repo/staccato-go/pkg/store"
)

func benchDoc(b *testing.B) *staccato.Doc {
	b.Helper()
	_, f := testgen.MustGenerate(testgen.Config{Length: 200, Seed: 17})
	d, err := staccato.Build(f, "bench", 10, 4)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkTermRecompileEachCall is the regression baseline for the v1
// API shape: the term automaton is recompiled on every term×doc call.
// Compare with BenchmarkTermCompiledReuse — the gap is the compile-once
// win the Query type exists to lock in.
func BenchmarkTermRecompileEachCall(b *testing.B) {
	d := benchDoc(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q, err := query.Substring("probabilistic")
		if err != nil {
			b.Fatal(err)
		}
		q.Eval(d)
	}
}

// BenchmarkTermCompiledReuse evaluates one compiled Query repeatedly —
// the pattern Engine uses across a whole corpus.
func BenchmarkTermCompiledReuse(b *testing.B) {
	d := benchDoc(b)
	q, err := query.Substring("probabilistic")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Eval(d)
	}
}

// BenchmarkBooleanEval times the product-automaton DP on a three-leaf
// boolean query.
func BenchmarkBooleanEval(b *testing.B) {
	d := benchDoc(b)
	mk := func(term string) *query.Query {
		q, err := query.Substring(term)
		if err != nil {
			b.Fatal(err)
		}
		return q
	}
	q := query.And(mk("the"), query.Or(mk("ing"), mk("ion")))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Eval(d)
	}
}

// BenchmarkEval times Eval per leaf kind, and one two-leaf product, on
// an ASCII document and on the same document with its vowels accented.
// Accented vowels are two-byte runes, so the second document sends a
// large share of its bytes down the rune fallback instead of the ASCII
// transition table; its terms are accented the same way.
func BenchmarkEval(b *testing.B) {
	ascii := benchDoc(b)
	accent := strings.NewReplacer("a", "á", "e", "é", "i", "í", "o", "ó", "u", "ú").Replace
	accented := &staccato.Doc{ID: ascii.ID, Params: ascii.Params}
	for _, ch := range ascii.Chunks {
		ps := staccato.PathSet{Retained: ch.Retained}
		for _, alt := range ch.Alts {
			ps.Alts = append(ps.Alts, staccato.Alt{Text: accent(alt.Text), Prob: alt.Prob})
		}
		accented.Chunks = append(accented.Chunks, ps)
	}
	for _, dc := range []struct {
		name string
		doc  *staccato.Doc
		term func(string) string
	}{
		{"ascii", ascii, func(s string) string { return s }},
		{"nonascii", accented, accent},
	} {
		leaves := []struct {
			name    string
			compile func() (*query.Query, error)
		}{
			{"substr", func() (*query.Query, error) { return query.Substring(dc.term("ing")) }},
			{"keyword", func() (*query.Query, error) { return query.Keyword(dc.term("the")) }},
			{"fuzzy1", func() (*query.Query, error) { return query.Fuzzy(dc.term("probable"), 1) }},
			{"fuzzy2", func() (*query.Query, error) { return query.Fuzzy(dc.term("probable"), 2) }},
			{"and2", func() (*query.Query, error) {
				a, err := query.Substring(dc.term("the"))
				if err != nil {
					return nil, err
				}
				c, err := query.Keyword(dc.term("ion"))
				return query.And(a, query.Not(c)), err
			}},
		}
		for _, lc := range leaves {
			q, err := lc.compile()
			if err != nil {
				b.Fatal(err)
			}
			b.Run(dc.name+"/"+lc.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					q.Eval(dc.doc)
				}
			})
		}
	}
}

// BenchmarkEngineSearch measures corpus throughput at several worker pool
// sizes over a 200-doc store. scripts/bench_engine.sh turns the ns/op of
// these sub-benchmarks into BENCH_engine.json for the perf trajectory.
func BenchmarkEngineSearch(b *testing.B) {
	cases, err := testgen.Docs(200, testgen.Config{Length: 40, Seed: 3}, 5, 3)
	if err != nil {
		b.Fatal(err)
	}
	st := store.NewMemStore()
	ctx := context.Background()
	for _, c := range cases {
		if err := st.Put(ctx, c.Doc); err != nil {
			b.Fatal(err)
		}
	}
	q, err := query.Substring("the")
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			eng := query.NewEngine(st, query.EngineOptions{Workers: workers})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Search(ctx, q, query.SearchOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
