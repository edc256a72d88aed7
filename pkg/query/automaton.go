package query

import (
	"fmt"
	"unicode/utf8"

	"github.com/paper-repo/staccato-go/internal/core"
	"github.com/paper-repo/staccato-go/pkg/fuzzy"
)

// automaton is a deterministic matcher compiled from a query term. step
// consumes one rune and reports whether the term just finished matching
// (matching is absorbing, so callers stop on the first hit). acceptAtEnd
// reports states that count as a match when the document ends — needed for
// keyword queries, whose trailing boundary can be the end of text.
type automaton interface {
	numStates() int
	start() int
	step(q int, r rune) (next int, matched bool)
	acceptAtEnd(q int) bool
}

// maxTermRunes bounds compiled terms so automaton states (plus the
// matched sentinel) always fit the uint16 states of the evaluation DPs,
// with generous headroom for any realistic query.
const maxTermRunes = 1 << 12

// MaxTableBytes bounds the ASCII transition tables of one Query, summed
// over its distinct leaves (Query.TableBytes). Every single leaf fits:
// a keyword term of maxTermRunes runes needs 1 MiB and the largest fuzzy
// DFA (under 1<<14 states) 4 MiB. Front ends that compile untrusted
// requests reject queries above it, which also caps the automaton
// states, and so the memory, a cached compiled query can hold.
const MaxTableBytes = 4 << 20

// asciiTable tabulates a's transitions on the 128 ASCII bytes for every
// state: entry q<<7|b is the next state, or the matched sentinel
// numStates when byte b completes a match from q. Evaluation steps ASCII
// text through the table instead of calling step, which keeps the
// per-byte cost to one load.
func asciiTable(a automaton) []uint16 {
	if k, ok := a.(*kmpAuto); ok {
		return k.asciiTable()
	}
	t := make([]uint16, a.numStates()<<7)
	for i := range t {
		q2, hit := a.step(i>>7, rune(i&0x7f))
		if hit {
			q2 = a.numStates()
		}
		t[i] = uint16(q2)
	}
	return t
}

func compile(term string, mode Mode, dist int) (automaton, error) {
	pat := []rune(term)
	if len(pat) == 0 {
		return nil, fmt.Errorf("query: empty term")
	}
	if len(pat) > maxTermRunes {
		return nil, fmt.Errorf("query: term of %d runes exceeds the %d-rune limit", len(pat), maxTermRunes)
	}
	if dist != 0 && mode != ModeFuzzy {
		return nil, fmt.Errorf("query: edit distance %d on non-fuzzy mode %d", dist, mode)
	}
	switch mode {
	case ModeSubstring:
		return newKMP(pat), nil
	case ModeKeyword:
		for _, r := range pat {
			if !core.IsWordRune(r) {
				return nil, fmt.Errorf("query: keyword term %q contains non-word character %q", term, r)
			}
		}
		return newKeyword(pat), nil
	case ModeFuzzy:
		d, err := fuzzy.Compile(term, dist)
		if err != nil {
			return nil, fmt.Errorf("query: %w", err)
		}
		return fuzzyAuto{d}, nil
	default:
		return nil, fmt.Errorf("query: unknown mode %d", mode)
	}
}

// fuzzyAuto adapts a Levenshtein DFA to the automaton interface. The DFA
// already matches on entering an accepting state (a window within the
// edit distance just ended), so step delegates directly; there is no
// end-of-text acceptance because matching is not boundary-conditioned.
type fuzzyAuto struct {
	dfa *fuzzy.DFA
}

func (a fuzzyAuto) numStates() int                 { return a.dfa.NumStates() }
func (a fuzzyAuto) start() int                     { return a.dfa.Start() }
func (a fuzzyAuto) step(q int, r rune) (int, bool) { return a.dfa.Step(q, r) }
func (a fuzzyAuto) acceptAtEnd(int) bool           { return false }

// kmpAuto is the classic Knuth–Morris–Pratt automaton: state q means "the
// last q runes seen equal the first q runes of the pattern". Reaching
// len(pat) is a match.
type kmpAuto struct {
	pat  []rune
	fail []int
}

func newKMP(pat []rune) *kmpAuto {
	fail := make([]int, len(pat))
	for i := 1; i < len(pat); i++ {
		j := fail[i-1]
		for j > 0 && pat[i] != pat[j] {
			j = fail[j-1]
		}
		if pat[i] == pat[j] {
			j++
		}
		fail[i] = j
	}
	return &kmpAuto{pat: pat, fail: fail}
}

func (a *kmpAuto) numStates() int { return len(a.pat) }
func (a *kmpAuto) start() int     { return 0 }

func (a *kmpAuto) step(q int, r rune) (int, bool) {
	for q > 0 && r != a.pat[q] {
		q = a.fail[q-1]
	}
	if r == a.pat[q] {
		q++
	}
	if q == len(a.pat) {
		return 0, true
	}
	return q, false
}

func (a *kmpAuto) acceptAtEnd(int) bool { return false }

// asciiTable builds the KMP transition table in O(m·128) rather than by
// calling step per entry, which walks the failure chain and is quadratic
// for a repetitive pattern. A mismatch from state q behaves as a
// mismatch from fail[q-1], so row q copies that (already built) row and
// overrides the entry for pat[q]; row 0 stays all zero. Entry q+1 = m on
// the last row is the matched sentinel.
func (a *kmpAuto) asciiTable() []uint16 {
	t := make([]uint16, len(a.pat)<<7)
	for q, r := range a.pat {
		row := t[q<<7 : (q+1)<<7]
		if q > 0 {
			copy(row, t[a.fail[q-1]<<7:])
		}
		if r < utf8.RuneSelf {
			row[r] = uint16(q + 1)
		}
	}
	return t
}

// keywordAuto matches a term delimited by non-word characters (token
// boundaries). Because the term itself is all word runes, a failed partial
// match can never overlap a valid restart — a restart position must follow
// a non-word rune — so no failure function is needed. States:
//
//	0            dead: previous rune was a word rune, cannot start a match
//	1            ready: at a boundary, a match may start
//	1+j (j=1..m) matched the first j runes of the term
//
// State 1+m ("whole term seen") matches when the next rune is a non-word
// rune or the document ends.
type keywordAuto struct {
	pat []rune
}

func newKeyword(pat []rune) *keywordAuto { return &keywordAuto{pat: pat} }

func (a *keywordAuto) numStates() int { return len(a.pat) + 2 }
func (a *keywordAuto) start() int     { return 1 }

func (a *keywordAuto) step(q int, r rune) (int, bool) {
	m := len(a.pat)
	if q == m+1 { // full term seen, awaiting right boundary
		if !core.IsWordRune(r) {
			return q, true
		}
		return 0, false
	}
	if q >= 1 {
		j := q - 1 // runes of the term matched so far
		if r == a.pat[j] {
			return q + 1, false
		}
	}
	if !core.IsWordRune(r) {
		return 1, false
	}
	return 0, false
}

func (a *keywordAuto) acceptAtEnd(q int) bool { return q == len(a.pat)+1 }
