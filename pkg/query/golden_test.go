package query_test

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/paper-repo/staccato-go/internal/core"
	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// goldenPath pins the exact bits of Query.Eval over a fixed, seeded set of
// documents and queries. Each line is "docSeed<TAB>query<TAB>bits", where
// bits is math.Float64bits(Eval) in hex. Document seeds below
// goldenMixedBase are error-model documents, seeds from goldenMixedBase
// are synthetic documents mixing ASCII, multi-byte runes and invalid
// UTF-8, and seeds from goldenUniformBase are uniform-confusion documents
// (testgen.Generate), whose many near-tied alternatives give the most
// varied probabilities. The file is never regenerated by the test: a change that moves
// any bit of any probability is a behaviour change and must be argued for
// on its own, not absorbed by rewriting the expectations.
const (
	goldenPath        = "testdata/eval_golden.txt"
	goldenMixedBase   = 1000
	goldenUniformBase = 2000
)

// goldenPieces are the text fragments mixed documents are built from: ASCII
// letters and a space, two- to four-byte runes, and lone or truncated
// UTF-8 bytes that decode to U+FFFD.
var goldenPieces = []string{"a", "b", "e", "n", " ", "é", "ä", "日", "😀", "\xff", "\xc3", "\x80"}

// goldenWordPieces are the pieces keyword terms may use: word runes only.
var goldenWordPieces = []string{"a", "b", "e", "n", "é", "ä", "日"}

// goldenDoc is one seeded document plus the term material its queries
// draw from.
type goldenDoc struct {
	seed  int64
	doc   *staccato.Doc
	words []string // keyword-safe terms
	texts []string // texts to cut substring and fuzzy terms from
}

func goldenDocs(t *testing.T) []goldenDoc {
	t.Helper()
	var out []goldenDoc
	dials := [][2]int{{4, 3}, {6, 3}, {3, 5}}
	for seed := int64(1); seed <= 16; seed++ {
		dial := dials[int(seed)%len(dials)]
		cases, err := testgen.ErrDocs(1, testgen.ErrModelConfig{Words: 8, Seed: seed, SubRate: 0.2, BurstRate: 0.08}, dial[0], dial[1])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, withAltTexts(goldenDoc{seed: seed, doc: cases[0].Doc, words: strings.Fields(cases[0].Truth), texts: []string{cases[0].Truth}}))
	}
	for seed := int64(goldenUniformBase); seed < goldenUniformBase+8; seed++ {
		truth, f := testgen.MustGenerate(testgen.Config{Length: 30, Seed: seed})
		d, err := staccato.Build(f, fmt.Sprintf("uniform-%d", seed), 5, 4)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, withAltTexts(goldenDoc{seed: seed, doc: d, words: strings.Fields(truth), texts: []string{truth}}))
	}
	for seed := int64(goldenMixedBase); seed < goldenMixedBase+12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		gd := goldenDoc{seed: seed, doc: &staccato.Doc{ID: fmt.Sprintf("mixed-%d", seed)}}
		for c := 1 + rng.Intn(5); c > 0; c-- {
			var ps staccato.PathSet
			weights := make([]float64, 1+rng.Intn(4))
			var sum float64
			for i := range weights {
				weights[i] = 0.05 + rng.Float64()
				sum += weights[i]
			}
			for _, w := range weights {
				var sb strings.Builder
				for n := rng.Intn(6); n > 0; n-- {
					sb.WriteString(goldenPieces[rng.Intn(len(goldenPieces))])
				}
				ps.Alts = append(ps.Alts, staccato.Alt{Text: sb.String(), Prob: w / sum})
				gd.texts = append(gd.texts, sb.String())
			}
			ps.Retained = 1
			gd.doc.Chunks = append(gd.doc.Chunks, ps)
		}
		for i := 0; i < 4; i++ {
			var sb strings.Builder
			for n := 1 + rng.Intn(3); n > 0; n-- {
				sb.WriteString(goldenWordPieces[rng.Intn(len(goldenWordPieces))])
			}
			gd.words = append(gd.words, sb.String())
		}
		var sb strings.Builder
		for n := 2 + rng.Intn(4); n > 0; n-- {
			sb.WriteString(goldenPieces[rng.Intn(len(goldenPieces))])
		}
		gd.texts = append(gd.texts, sb.String())
		out = append(out, gd)
	}
	return out
}

// withAltTexts adds every alternative of gd's document to the material
// its terms are cut from, so queries also probe misreadings.
func withAltTexts(gd goldenDoc) goldenDoc {
	for _, ch := range gd.doc.Chunks {
		for _, alt := range ch.Alts {
			gd.texts = append(gd.texts, alt.Text)
		}
	}
	return gd
}

// goldenLeaf draws one leaf: a substring, keyword or fuzzy (d=1 or 2)
// term cut from the document's material. Substring cuts are byte ranges,
// so they may split a multi-byte rune into invalid UTF-8 on purpose.
func goldenLeaf(t *testing.T, rng *rand.Rand, gd goldenDoc) *query.Query {
	t.Helper()
	cut := func(minRunes int) string {
		for try := 0; try < 100; try++ {
			s := gd.texts[rng.Intn(len(gd.texts))]
			if len(s) == 0 {
				continue
			}
			i := rng.Intn(len(s))
			j := i + 1 + rng.Intn(min(8, len(s)-i))
			if term := s[i:j]; utf8.RuneCountInString(term) >= minRunes {
				return term
			}
		}
		return "ab\xffé"
	}
	var (
		q   *query.Query
		err error
	)
	switch rng.Intn(4) {
	case 0:
		q, err = query.Substring(cut(1))
	case 1:
		w := gd.words[rng.Intn(len(gd.words))]
		if !isWord(w) {
			q, err = query.Substring(w)
		} else {
			q, err = query.Keyword(w)
		}
	default:
		d := 1 + rng.Intn(2)
		q, err = query.Fuzzy(cut(d+3), d)
	}
	if err != nil {
		t.Fatalf("seed %d: %v", gd.seed, err)
	}
	return q
}

func isWord(s string) bool {
	for _, r := range s {
		if !core.IsWordRune(r) {
			return false
		}
	}
	return s != ""
}

// goldenQuery builds a random And/Or/Not tree over exactly n drawn leaves
// (duplicate leaves are shared by the combinators, so NumTerms may be
// lower).
func goldenQuery(t *testing.T, rng *rand.Rand, gd goldenDoc, n int) *query.Query {
	t.Helper()
	var q *query.Query
	if n == 1 {
		q = goldenLeaf(t, rng, gd)
	} else {
		parts := 2 + rng.Intn(min(2, n-1))
		kids := make([]*query.Query, 0, parts)
		left := n
		for i := 0; i < parts; i++ {
			size := left - (parts - 1 - i)
			if i < parts-1 {
				size = 1 + rng.Intn(size)
			}
			kids = append(kids, goldenQuery(t, rng, gd, size))
			left -= size
		}
		if rng.Intn(2) == 0 {
			q = query.And(kids[0], kids[1:]...)
		} else {
			q = query.Or(kids[0], kids[1:]...)
		}
	}
	if rng.Intn(4) == 0 {
		q = query.Not(q)
	}
	return q
}

// goldenLines evaluates the fixed (document, query) set and renders one
// golden line per pair.
func goldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, gd := range goldenDocs(t) {
		rng := rand.New(rand.NewSource(gd.seed * 7919))
		for n := 1; n <= 6; n++ {
			for i := 0; i < 3; i++ {
				q := goldenQuery(t, rng, gd, n)
				lines = append(lines, fmt.Sprintf("%d\t%s\t%016x", gd.seed, q, math.Float64bits(q.Eval(gd.doc))))
			}
		}
	}
	return lines
}

// TestEvalGolden holds Query.Eval to the committed bits: every
// probability of every (document, query) pair must match exactly. The
// enumeration oracles only bound Eval within a tolerance, and the
// benchmark's brute force calls Eval itself, so this is the test that
// catches a change in float summation order.
func TestEvalGolden(t *testing.T) {
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := goldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("golden set has %d lines, file %s has %d", len(got), goldenPath, len(want))
	}
	bad := 0
	for i := range got {
		if got[i] == want[i] {
			continue
		}
		if bad++; bad <= 10 {
			t.Errorf("line %d:\n got  %s\n want %s%s", i+1, got[i], want[i], ulpNote(got[i], want[i]))
		}
	}
	if bad > 10 {
		t.Errorf("... %d of %d lines differ", bad, len(got))
	}
}

// ulpNote describes how far apart two golden lines' probabilities are
// when only the bits differ, to tell summation-order drift from a wrong
// result.
func ulpNote(got, want string) string {
	g, w := strings.Split(got, "\t"), strings.Split(want, "\t")
	if len(g) != 3 || len(w) != 3 || g[0] != w[0] || g[1] != w[1] {
		return ""
	}
	gb, err1 := strconv.ParseUint(g[2], 16, 64)
	wb, err2 := strconv.ParseUint(w[2], 16, 64)
	if err1 != nil || err2 != nil {
		return ""
	}
	return fmt.Sprintf("\n (%v vs %v)", math.Float64frombits(gb), math.Float64frombits(wb))
}
