package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/paper-repo/staccato-go/internal/testgen"
	"github.com/paper-repo/staccato-go/pkg/fst"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// Corpus parameters shared by every workload. The error model is the
// repository's own OCR noise model; the dial is the Staccato setting the
// documents are approximated at before they reach the store.
const (
	vocabSize   = 2000
	zipfS       = 1.1
	wordsPerDoc = 40
	dialChunks  = 6
	dialK       = 3
	topN        = 10
	ingestBatch = 256
)

// errModel is the error-model configuration every generated document uses;
// only the per-document seed varies.
func errModel() testgen.ErrModelConfig {
	return testgen.ErrModelConfig{Words: wordsPerDoc, VocabSize: vocabSize, ZipfS: zipfS}
}

// splitmix64 scrambles a seed so that neighbouring benchmark seeds give
// unrelated corpora.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// docSeed is the error-model seed of document ordinal i under the
// benchmark seed. It is never zero, which the error model would read as
// "unset".
func docSeed(seed int64, i int) int64 {
	return int64(splitmix64(uint64(seed))>>3) + int64(i) + 1
}

// rng returns a PRNG for one named purpose under the benchmark seed, so
// that adding a draw for one purpose never shifts another's sequence.
func rng(seed int64, purpose uint64) *rand.Rand {
	return rand.New(rand.NewSource(int64(splitmix64(uint64(seed) ^ splitmix64(purpose)))))
}

// rawDoc is one generated OCR output before approximation: the ground
// truth and the transducer an OCR engine would emit for it.
type rawDoc struct {
	ID    string
	Truth string
	FST   *fst.SFST
}

// parallelFor runs fn(0..n-1) on GOMAXPROCS goroutines and returns the
// first error.
func parallelFor(n int, fn func(i int) error) error {
	workers := runtime.GOMAXPROCS(0)
	var next atomic.Int64
	var once sync.Once
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				if err := fn(i); err != nil {
					once.Do(func() { firstErr = err })
					next.Store(int64(n))
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// generate makes document ordinal i under seed. Its ID is prefix plus the
// zero-padded ordinal, so that ID order is ordinal order.
func generate(seed int64, prefix string, i int) (rawDoc, error) {
	cfg := errModel()
	cfg.Seed = docSeed(seed, i)
	truth, f, err := testgen.GenerateErrModel(cfg)
	return rawDoc{ID: fmt.Sprintf("%s%06d", prefix, i), Truth: truth, FST: f}, err
}

// generateRaw generates documents first..first+n-1 in parallel.
func generateRaw(seed int64, prefix string, first, n int) ([]rawDoc, error) {
	out := make([]rawDoc, n)
	err := parallelFor(n, func(i int) error {
		var err error
		out[i], err = generate(seed, prefix, first+i)
		return err
	})
	return out, err
}

// corpus is a set of approximated documents and the truth text they
// came from.
type corpus struct {
	Docs      []*staccato.Doc
	TextLen   []int // truth bytes per document
	TextBytes int64
}

// buildCorpus generates and approximates documents first..first+n-1 in
// parallel, keeping only the approximated documents.
func buildCorpus(seed int64, prefix string, first, n int) (*corpus, error) {
	docs := make([]*staccato.Doc, n)
	text := make([]int, n)
	err := parallelFor(n, func(i int) error {
		raw, err := generate(seed, prefix, first+i)
		if err != nil {
			return err
		}
		d, err := staccato.Build(raw.FST, raw.ID, dialChunks, dialK)
		if err != nil {
			return err
		}
		docs[i], text[i] = d, len(raw.Truth)
		return nil
	})
	if err != nil {
		return nil, err
	}
	c := &corpus{Docs: docs, TextLen: text}
	for _, t := range text {
		c.TextBytes += int64(t)
	}
	return c, nil
}

// zipfVocab draws words from the error model's shared vocabulary with
// the same Zipf popularity the documents were written with, so query
// popularity follows term frequency. Draws take a uniform u in [0, 1)
// and invert the popularity distribution, so a caller can stratify u.
type zipfVocab struct {
	words []string
	cum   []float64
}

// newZipfVocab returns the vocabulary's words whose length lies in
// [minLen, maxLen], with their Zipf weights.
func newZipfVocab(minLen, maxLen int) *zipfVocab {
	z := &zipfVocab{}
	total := 0.0
	for i, w := range testgen.Vocab(vocabSize) {
		if len(w) < minLen || len(w) > maxLen {
			continue
		}
		total += math.Pow(float64(i+1), -zipfS)
		z.words = append(z.words, w)
		z.cum = append(z.cum, total)
	}
	return z
}

func (z *zipfVocab) at(u float64) string {
	i := sort.SearchFloat64s(z.cum, u*z.cum[len(z.cum)-1])
	return z.words[min(i, len(z.words)-1)]
}

// substringAt returns the substring of w with at least minLen letters
// picked by two uniforms: one for the length, one for the offset (the
// vocabulary is ASCII).
func substringAt(w string, minLen int, uLen, uOff float64) string {
	n := minLen + int(uLen*float64(len(w)-minLen+1))
	off := int(uOff * float64(len(w)-n+1))
	return w[off : off+n]
}

// stratified returns n uniforms in [0, 1), one from each of n equal
// strata, in random order. A search mix drawn from stratified uniforms
// has almost exactly the mix's proportions on every seed, which keeps
// the run-to-run spread of a seed's figures small, while the words
// themselves still vary with the seed.
func stratified(r *rand.Rand, n int) []float64 {
	u := make([]float64, n)
	for i := range u {
		u[i] = (float64(i) + r.Float64()) / float64(n)
	}
	r.Shuffle(n, func(i, j int) { u[i], u[j] = u[j], u[i] })
	return u
}

// searchSpec is the wire form of a staccatod search request. compile
// builds the same Query the server builds for it, so the bench can
// answer the request itself for the correctness gate and the replay.
type searchSpec struct {
	Terms    []string `json:"terms"`
	Mode     string   `json:"mode,omitempty"`
	Distance int      `json:"distance,omitempty"`
	Combine  string   `json:"combine,omitempty"`
	Not      string   `json:"not,omitempty"`
	Top      int      `json:"top,omitempty"`
}

func (s searchSpec) leaf(term string) (*query.Query, error) {
	switch s.Mode {
	case "", "substring":
		return query.Substring(term)
	case "fuzzy":
		return query.Fuzzy(term, s.Distance)
	default:
		return nil, fmt.Errorf("unsupported mode %q", s.Mode)
	}
}

func (s searchSpec) compile() (*query.Query, error) {
	if len(s.Terms) == 0 {
		return nil, fmt.Errorf("search spec has no terms")
	}
	leaves := make([]*query.Query, len(s.Terms))
	for i, t := range s.Terms {
		l, err := s.leaf(t)
		if err != nil {
			return nil, err
		}
		leaves[i] = l
	}
	var q *query.Query
	if s.Combine == "or" {
		q = query.Or(leaves[0], leaves[1:]...)
	} else {
		q = query.And(leaves[0], leaves[1:]...)
	}
	if s.Not != "" {
		n, err := s.leaf(s.Not)
		if err != nil {
			return nil, err
		}
		q = query.And(q, query.Not(n))
	}
	return q, nil
}

// serveMix draws the serve-zipf request mix: ~10% single-document writes
// and ~90% searches with top 10 — 75% substrings of a Zipf-drawn word,
// 20% AND/OR pairs of such substrings, and 5% fuzzy distance-1 terms on
// words of at least six runes. Every substring has at least three runes
// and every fuzzy term splits into three-rune pigeonhole pieces, so the
// planner can prune every search.
type serveMix struct {
	r         *rand.Rand
	all, long *zipfVocab
	kinds     []string
	pos       int // requests drawn so far
	writes    int // write requests drawn so far
}

// mixCounts is the request mix per 80 requests: 8 writes, and 72 searches
// of which 54 substrings, 7 AND pairs, 7 OR pairs and 4 fuzzy terms.
var mixCounts = []struct {
	kind string
	n    int
}{{"write", 8}, {"substring", 54}, {"and", 7}, {"or", 7}, {"fuzzy", 4}}

// newServeMix lays the mix's kinds out in a fixed pattern that spreads
// each kind evenly, so every seed's schedule has the same bursts of
// expensive kinds; the seed picks the words.
func newServeMix(r *rand.Rand) *serveMix {
	type slot struct {
		key  float64
		kind string
	}
	var slots []slot
	for _, c := range mixCounts {
		for j := 0; j < c.n; j++ {
			slots = append(slots, slot{(float64(j) + 0.5) / float64(c.n), c.kind})
		}
	}
	sort.SliceStable(slots, func(i, j int) bool { return slots[i].key < slots[j].key })
	m := &serveMix{r: r, all: newZipfVocab(0, 1<<10), long: newZipfVocab(6, 1<<10)}
	for _, s := range slots {
		m.kinds = append(m.kinds, s.kind)
	}
	return m
}

// block draws the next n requests; write requests take the write pool's
// documents in turn.
func (m *serveMix) block(n, pool int) []serveOp {
	u := make([][]float64, 6)
	for i := range u {
		u[i] = stratified(m.r, n)
	}
	ops := make([]serveOp, n)
	for i := range ops {
		kind := m.kinds[m.pos%len(m.kinds)]
		if kind == "write" {
			ops[i] = serveOp{write: true, doc: m.writes % pool}
			m.writes++
		}
		m.pos++
		first := substringAt(m.all.at(u[0][i]), 3, u[1][i], u[2][i])
		switch kind {
		case "substring":
			ops[i].spec = searchSpec{Terms: []string{first}, Top: topN}
		case "and", "or":
			second := substringAt(m.all.at(u[3][i]), 3, u[4][i], u[5][i])
			ops[i].spec = searchSpec{Terms: []string{first, second}, Combine: kind, Top: topN}
		case "fuzzy":
			ops[i].spec = searchSpec{Terms: []string{m.long.at(u[0][i])}, Mode: "fuzzy", Distance: 1, Top: topN}
		}
	}
	return ops
}

// scanPool is scan-broad's fixed query pool: queries the q-gram planner
// cannot prune — one- and two-rune substrings, one-rune substrings that
// must not contain a word, and fuzzy terms too short for the pigeonhole
// plan — so every search reads the whole store. The pool is the same for
// every seed, like serve-zipf's schedule; the seed varies the corpus and
// the order the caller runs the pool in.
func scanPool() []searchSpec {
	r := rng(0, 2)
	z := newZipfVocab(0, 1<<10)
	byLen := map[int]*zipfVocab{}
	for n := 4; n <= 8; n++ {
		byLen[n] = newZipfVocab(n, n)
	}
	seen := map[string]bool{}
	var pool []searchSpec
	add := func(s searchSpec) bool {
		key := fmt.Sprint(s)
		if seen[key] {
			return false
		}
		seen[key] = true
		pool = append(pool, s)
		return true
	}
	for i := 0; i < scanPoolKinds; i++ {
		for !add(searchSpec{Terms: []string{substringAt(z.at(r.Float64()), 1, 0, r.Float64())}, Top: topN}) {
		}
		for !add(searchSpec{Terms: []string{substringAt(z.at(r.Float64()), 2, 0, r.Float64())}, Top: topN}) {
		}
		for !add(searchSpec{Terms: []string{substringAt(z.at(r.Float64()), 1, 0, r.Float64())}, Not: byLen[4+i%5].at(r.Float64()), Top: topN}) {
		}
		for !add(searchSpec{Terms: []string{byLen[4+i%2].at(r.Float64())}, Mode: "fuzzy", Distance: 1, Top: topN}) {
		}
	}
	return pool
}
