package query

import (
	"cmp"
	"math/bits"
	"slices"
	"unicode/utf8"

	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// Eval returns the probability, under the document's retained product
// distribution, that its true text satisfies the query. A zero-value
// Query (never compiled) matches nothing and evaluates to 0.
//
// Single-term queries run a dense DP over the term automaton's states.
// Boolean queries run the same DP over the product of the leaf automata:
// a joint state records, for every leaf, either its automaton state or an
// absorbing "already matched" sentinel, so the final distribution carries
// exact joint match probabilities and And/Or/Not are decided per reading —
// not by multiplying marginals, which is wrong whenever terms are
// correlated through shared readings.
func (q *Query) Eval(d *staccato.Doc) float64 {
	if q.expr == nil {
		return 0
	}
	if le, ok := q.expr.(leafExpr); ok {
		return evalDoc(d, &q.leaves[le])
	}
	return q.evalProduct(d)
}

// evalDoc pushes a distribution over automaton states through the chunks.
// Mass that reaches the accepting condition is absorbed into matched; the
// remainder carries partial-match state across chunk boundaries, which is
// how matches spanning two chunks are credited. The two state vectors
// share one allocation and trade places every chunk.
func evalDoc(d *staccato.Doc, lf *leaf) float64 {
	n := lf.auto.numStates()
	buf := make([]float64, 2*n)
	vec, next := buf[:n], buf[n:]
	vec[lf.auto.start()] = 1
	matched := 0.0
	for _, ch := range d.Chunks {
		clear(next)
		for q, p := range vec {
			//lint:allow floateq exact zero marks an unreached state (never written); an epsilon test would skip real low-probability mass
			if p == 0 {
				continue
			}
			for _, alt := range ch.Alts {
				if q2 := lf.run(uint16(q), alt.Text); q2 == lf.matched {
					matched += float64(p * alt.Prob) // explicit rounding: no fused multiply-add, same bits on every GOARCH
				} else {
					next[q2] += float64(p * alt.Prob)
				}
			}
		}
		vec, next = next, vec
	}
	for q, p := range vec {
		if p > 0 && lf.auto.acceptAtEnd(q) {
			matched += p
		}
	}
	return matched
}

// run advances the leaf automaton over s from state q and returns the
// state reached, or the matched sentinel as soon as a match completes
// (matching is absorbing for "contains" queries). ASCII bytes step through
// the precomputed table; any other byte starts a rune decoded exactly as a
// range loop would, one U+FFFD per invalid byte.
func (lf *leaf) run(q uint16, s string) uint16 {
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if q = lf.ascii[int(q)<<7|int(b)]; q == lf.matched {
				return q
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if q = lf.stepRune(q, r); q == lf.matched {
			return q
		}
		i += size
	}
	return q
}

// stepRune advances the leaf automaton by one rune from state q and
// returns the state reached, or the matched sentinel on a match.
func (lf *leaf) stepRune(q uint16, r rune) uint16 {
	q2, hit := lf.auto.step(int(q), r)
	if hit {
		return lf.matched
	}
	return uint16(q2)
}

// evalProduct is the boolean DP. Joint states are sparse — only
// combinations actually reachable through retained readings are tracked.
// Each chunk lists one (joint state, mass) entry per (state, alternative)
// pair, visiting states in key order and alternatives in order, then
// collapses the list by key. Float accumulation order is thereby fixed,
// so the same (Doc, Query) pair always produces the bit-identical
// probability — the determinism Engine promises across worker counts and
// runs.
func (q *Query) evalProduct(d *staccato.Doc) float64 {
	cur := q.startDP()
	var next jointDP
	for _, ch := range d.Chunks {
		next.reset(len(cur.entries)*len(ch.Alts), len(q.leaves))
		for _, e := range cur.entries {
			for _, alt := range ch.Alts {
				q.advance(next.push(e.key, float64(e.p*alt.Prob)), alt.Text) // explicit rounding: no fused multiply-add
			}
		}
		next.collapse()
		cur, next = next, cur
	}
	hits := make([]bool, len(q.leaves))
	var total float64
	for _, e := range cur.entries {
		q.endBits(e.key, hits)
		if q.expr.eval(hits) {
			total += e.p
		}
	}
	return total
}

// jointMass is one entry of the product DP: a joint state — per leaf, its
// automaton state or its matched sentinel — and the mass reaching it.
type jointMass struct {
	key []uint16
	p   float64
}

// jointDP is a list of product-DP entries whose keys live in one shared
// backing array.
type jointDP struct {
	keys    []uint16
	entries []jointMass
}

// startDP returns the DP holding all mass on every leaf's start state.
func (q *Query) startDP() jointDP {
	key := make([]uint16, len(q.leaves))
	for i, lf := range q.leaves {
		key[i] = uint16(lf.auto.start())
	}
	return jointDP{keys: key, entries: []jointMass{{key: key, p: 1}}}
}

// reset empties dp, keeping its buffers, and makes room for n entries
// whose keys hold width states each.
func (dp *jointDP) reset(n, width int) {
	dp.keys = slices.Grow(dp.keys[:0], n*width)
	dp.entries = slices.Grow(dp.entries[:0], n)
}

// push appends an entry carrying a copy of key and mass p, and returns
// the copy for the caller to advance in place.
func (dp *jointDP) push(key []uint16, p float64) []uint16 {
	off := len(dp.keys)
	dp.keys = append(dp.keys, key...)
	k := dp.keys[off:len(dp.keys):len(dp.keys)]
	dp.entries = append(dp.entries, jointMass{key: k, p: p})
	return k
}

// collapse sums the entries of each joint state into one, leaving the
// entries sorted by key. The sort is stable, so every state's masses are
// added in the order they were pushed, starting from zero: the
// summation order, and with it every probability's bits, depends only on
// the push order and compareKeys.
func (dp *jointDP) collapse() {
	slices.SortStableFunc(dp.entries, compareKeys)
	out := dp.entries[:0]
	for i := 0; i < len(dp.entries); {
		key := dp.entries[i].key
		sum := 0.0
		for ; i < len(dp.entries) && slices.Equal(dp.entries[i].key, key); i++ {
			sum += dp.entries[i].p
		}
		out = append(out, jointMass{key: key, p: sum})
	}
	dp.entries = out
}

// compareKeys orders joint states leaf by leaf, comparing each state with
// its two bytes swapped (low byte first). The order fixes which state is
// visited first and so the float summation order; it must stay the
// order the bits in testdata/eval_golden.txt were produced under.
func compareKeys(a, b jointMass) int {
	for i, s := range a.key {
		if t := b.key[i]; s != t {
			return cmp.Compare(bits.ReverseBytes16(s), bits.ReverseBytes16(t))
		}
	}
	return 0
}

// advance steps every unmatched leaf of the joint state key over s in
// place. A leaf that completes a match moves to its sentinel, where it
// stays — matching is absorbing.
func (q *Query) advance(key []uint16, s string) {
	for i := range q.leaves {
		if lf := &q.leaves[i]; key[i] != lf.matched {
			key[i] = lf.run(key[i], s)
		}
	}
}

// advanceRune steps every unmatched leaf of the joint state key by one
// rune in place.
func (q *Query) advanceRune(key []uint16, r rune) {
	for i := range q.leaves {
		if lf := &q.leaves[i]; key[i] != lf.matched {
			key[i] = lf.stepRune(key[i], r)
		}
	}
}

// endBits fills hits[i] with whether leaf i counts as matched when the
// document ends in the joint state key.
func (q *Query) endBits(key []uint16, hits []bool) {
	for i, lf := range q.leaves {
		hits[i] = key[i] == lf.matched || lf.auto.acceptAtEnd(int(key[i]))
	}
}
