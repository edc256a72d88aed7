package query

import (
	"fmt"

	"github.com/paper-repo/staccato-go/internal/core"
	"github.com/paper-repo/staccato-go/pkg/fst"
)

// EvalFST computes the exact probability that the string emitted by the
// transducer satisfies the query, without materializing any paths: the
// product of the leaf automata runs directly over the SFST's state graph,
// with a sparse probability distribution over (fst state × joint automaton
// state). Polynomial in the transducer size even when the path count is
// astronomical.
//
// This is the FullSFST oracle: tests use it to bound the Staccato dial
// from above, and it supports the full boolean algebra — including
// keyword-mode leaves, whose trailing boundary may be the end of the
// emitted string.
func (q *Query) EvalFST(f *fst.SFST) (float64, error) {
	if q.expr == nil {
		return 0, fmt.Errorf("query: EvalFST requires a compiled Query")
	}
	// mass[s] lists the (joint automaton state, probability) contributions
	// arriving at fst state s. States are visited in topological order (the
	// Build normalization), so each state's list is complete before it is
	// collapsed and read.
	mass := make([]jointDP, f.NumStates())
	mass[f.Start()] = q.startDP()

	hits := make([]bool, len(q.leaves))
	var matched, total float64
	for s := range mass {
		cur := &mass[s]
		if len(cur.entries) == 0 {
			continue
		}
		// Collapsing sorts by key and sums in arrival order, which fixes
		// the float accumulation order: the result is bit-identical
		// across runs.
		cur.collapse()
		if f.IsFinal(fst.StateID(s)) {
			for _, e := range cur.entries {
				q.endBits(e.key, hits)
				total += e.p
				if q.expr.eval(hits) {
					matched += e.p
				}
			}
		}
		for _, arc := range f.Arcs(fst.StateID(s)) {
			p := core.ProbFromWeight(arc.Weight)
			to := &mass[arc.To]
			for _, e := range cur.entries {
				key := to.push(e.key, float64(e.p*p)) // explicit rounding: no fused multiply-add
				if arc.Label != fst.Epsilon {
					q.advanceRune(key, arc.Label)
				}
			}
		}
		*cur = jointDP{} // fully propagated; release early
	}
	//lint:allow floateq exact zero means no accepting path contributed any mass at all; an epsilon test would misreport tiny-but-real mass as an error
	if total == 0 {
		return 0, fmt.Errorf("query: transducer has no accepting mass")
	}
	return matched / total, nil
}
