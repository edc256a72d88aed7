package query_test

import (
	"math"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/pkg/fuzzy"
	"github.com/paper-repo/staccato-go/pkg/query"
	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// FuzzEvalMatchesReadings holds Eval — the ASCII transition tables, the
// rune fallback for every other byte and the product DP — to brute-force
// enumeration of every reading. docBytes is cut into a document of at
// most 4 chunks of at most 3 alternatives with arbitrary bytes; terms
// holds up to three NUL-separated leaf terms, and shape picks each
// leaf's mode (two bits per leaf) and the combinator (top two bits).
//
// Eval decodes each alternative on its own, one U+FFFD per invalid byte,
// so a rune split across two alternatives never joins up. The oracle
// therefore enumerates the readings of the document with every
// alternative already decoded that way.
func FuzzEvalMatchesReadings(f *testing.F) {
	f.Add([]byte("\x02\x02\x03the\x40\x02 c\x20\x01\x03at \x10"), "the\x00cat", uint8(0x04))
	f.Add([]byte("\x01\x03\x02\xc3\xa9\x30\x03\xe6\x97\xa5\x30\x01\xff\x30"), "é\x00日", uint8(0x41))
	f.Add([]byte("\x03\x02\x04ab\x80c\x10\x02\xc3b\x20\x01\x02d\xc3\x05\x01\x01e\x01"), "b\xc3\x00\xffc\x00abcd", uint8(0xfe))
	f.Add([]byte("\x01\x02\x05word \x10\x05wOrd.\x10"), "word", uint8(0x01))
	f.Add([]byte("\x01\x00\x01\xc2\x00\x00\x01\x9e\x00"), "\xff", uint8(0x80)) // U+009E split across chunks
	f.Fuzz(func(t *testing.T, docBytes []byte, terms string, shape uint8) {
		d := fuzzDoc(docBytes)
		q, sat := fuzzQuery(terms, shape)
		if q == nil {
			t.Skip()
		}
		got, want := q.Eval(d), oracleProb(decodedAlts(d), sat)
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s on %+v: Eval %v, readings %v", q, d.Chunks, got, want)
		}
	})
}

// fuzzDoc cuts b into a small document: a chunk count, then per chunk an
// alternative count and per alternative a text of up to 5 bytes and a
// weight, normalized within the chunk. Bytes past the end read as zero.
func fuzzDoc(b []byte) *staccato.Doc {
	next := func() int {
		if len(b) == 0 {
			return 0
		}
		v := b[0]
		b = b[1:]
		return int(v)
	}
	d := &staccato.Doc{ID: "fuzz"}
	for c := 1 + next()%4; c > 0; c-- {
		ps := staccato.PathSet{Retained: 1}
		var sum float64
		for a := 1 + next()%3; a > 0; a-- {
			n := min(next()%6, len(b))
			text := string(b[:n])
			b = b[n:]
			w := float64(1 + next())
			sum += w
			ps.Alts = append(ps.Alts, staccato.Alt{Text: text, Prob: w})
		}
		for i := range ps.Alts {
			ps.Alts[i].Prob /= sum
		}
		d.Chunks = append(d.Chunks, ps)
	}
	return d
}

// decodedAlts returns a copy of d whose alternatives' texts are replaced
// by their decoded runes, re-encoded as valid UTF-8.
func decodedAlts(d *staccato.Doc) *staccato.Doc {
	out := &staccato.Doc{ID: d.ID}
	for _, ch := range d.Chunks {
		ps := staccato.PathSet{Retained: ch.Retained}
		for _, alt := range ch.Alts {
			ps.Alts = append(ps.Alts, staccato.Alt{Text: string([]rune(alt.Text)), Prob: alt.Prob})
		}
		out.Chunks = append(out.Chunks, ps)
	}
	return out
}

// fuzzQuery compiles up to three leaves from terms (each cut to 12 bytes)
// and combines them as shape says, returning the query with its
// per-reading oracle. A leaf whose mode rejects its term falls back to a
// substring leaf; empty terms are dropped, and nil means no leaf
// survived.
func fuzzQuery(terms string, shape uint8) (*query.Query, func(string) bool) {
	var (
		leaves []*query.Query
		sats   []func(string) bool
	)
	for i, term := range strings.SplitN(terms, "\x00", 3) {
		term = term[:min(len(term), 12)]
		if term == "" {
			continue
		}
		mode := (shape >> (2 * i)) & 3
		var (
			q   *query.Query
			err error
		)
		switch mode {
		case 1:
			q, err = query.Keyword(term)
		case 2, 3:
			q, err = query.Fuzzy(term, int(mode-1))
		}
		switch {
		case mode == 0 || err != nil:
			q, _ = query.Substring(term)
			sats = append(sats, func(s string) bool { return containsRunes(s, term) })
		case mode == 1:
			sats = append(sats, func(s string) bool { return containsToken(s, term) })
		default:
			dist := int(mode - 1)
			sats = append(sats, func(s string) bool { return fuzzy.Within(s, term, dist) })
		}
		leaves = append(leaves, q)
	}
	if len(leaves) == 0 {
		return nil, nil
	}
	all := func(s string) bool {
		for _, sat := range sats {
			if !sat(s) {
				return false
			}
		}
		return true
	}
	anyOf := func(sats []func(string) bool, s string) bool {
		for _, sat := range sats {
			if sat(s) {
				return true
			}
		}
		return false
	}
	switch shape >> 6 {
	case 0:
		return query.And(leaves[0], leaves[1:]...), all
	case 1:
		return query.Or(leaves[0], leaves[1:]...), func(s string) bool { return anyOf(sats, s) }
	case 2:
		return query.Not(query.And(leaves[0], leaves[1:]...)), func(s string) bool { return !all(s) }
	default:
		if len(leaves) == 1 {
			return query.Not(leaves[0]), func(s string) bool { return !sats[0](s) }
		}
		q := query.And(leaves[0], query.Not(query.Or(leaves[1], leaves[2:]...)))
		return q, func(s string) bool { return sats[0](s) && !anyOf(sats[1:], s) }
	}
}

// containsRunes is the substring oracle over runes: text and term are
// both decoded with one U+FFFD per invalid byte, as the automata see them.
func containsRunes(text, term string) bool {
	t, p := []rune(text), []rune(term)
	for i := 0; i+len(p) <= len(t); i++ {
		if string(t[i:i+len(p)]) == string(p) {
			return true
		}
	}
	return false
}
