package query

import (
	"math/rand"
	"strings"
	"testing"
)

// stepEntry is the table entry step implies for byte b from state q.
func stepEntry(a automaton, q int, b byte) uint16 {
	q2, hit := a.step(q, rune(b))
	if hit {
		return uint16(a.numStates())
	}
	return uint16(q2)
}

// checkKMPTable compares the KMP table of pat with step on every state
// for the given bytes.
func checkKMPTable(t *testing.T, pat string, bytes []byte) {
	t.Helper()
	a := newKMP([]rune(pat))
	tab := asciiTable(a)
	if len(tab) != a.numStates()<<7 {
		t.Fatalf("%.20q: table has %d entries, want %d", pat, len(tab), a.numStates()<<7)
	}
	for q := 0; q < a.numStates(); q++ {
		for _, b := range bytes {
			if got, want := tab[q<<7|int(b)], stepEntry(a, q, b); got != want {
				t.Fatalf("%.20q (%d runes): table[%d, %q] = %d, step gives %d", pat, a.numStates(), q, b, got, want)
			}
		}
	}
}

func allASCII() []byte {
	bs := make([]byte, 128)
	for i := range bs {
		bs[i] = byte(i)
	}
	return bs
}

// TestKMPTableMatchesStep holds the O(m·128) KMP table construction to
// step on every entry, for periodic, near-periodic and random patterns,
// some with non-ASCII runes (which own no ASCII entry).
func TestKMPTableMatchesStep(t *testing.T) {
	pats := []string{"a", "ab", "aa", "aab", "abab", "abacaba", "aaaaaab", "abcabd", "xé", "éaé", "aéa"}
	r := rand.New(rand.NewSource(13))
	for i := 0; i < 60; i++ {
		alpha := []rune("ab")
		if i%3 == 0 {
			alpha = []rune("abé")
		}
		n := 1 + r.Intn(300)
		p := make([]rune, n)
		for j := range p {
			p[j] = alpha[0]
			if r.Intn(8) == 0 {
				p[j] = alpha[r.Intn(len(alpha))]
			}
		}
		pats = append(pats, string(p))
	}
	for _, p := range pats {
		checkKMPTable(t, p, allASCII())
	}
}

// TestKMPTableLongestTerm covers the build that was quadratic when each
// entry called step: a term of maxTermRunes runes of one letter, and
// near-periodic ones. Every state is checked on the pattern's letters,
// where the failure chains are longest, and on a letter outside it.
func TestKMPTableLongestTerm(t *testing.T) {
	a := strings.Repeat("a", maxTermRunes)
	for _, p := range []string{
		a,
		a[:maxTermRunes-1] + "b",
		a[:maxTermRunes/2] + "b" + a[:maxTermRunes/2-1],
		strings.Repeat("ab", maxTermRunes/2-1) + "aa",
	} {
		checkKMPTable(t, p, []byte("abc"))
	}
	q, err := Substring(a)
	if err != nil {
		t.Fatal(err)
	}
	lf := &q.leaves[0]
	if got := lf.ascii[(maxTermRunes-1)<<7|'a']; got != lf.matched {
		t.Errorf("last row on 'a' = %d, want the matched sentinel %d", got, lf.matched)
	}
}

// TestLargestLeavesFitTableBudget pins MaxTableBytes's promise that any
// leaf a constructor accepts fits the budget on its own, and that
// TableBytes counts a shared leaf once.
func TestLargestLeavesFitTableBudget(t *testing.T) {
	kw, err := Keyword(strings.Repeat("a", maxTermRunes))
	if err != nil {
		t.Fatal(err)
	}
	fz, err := Fuzzy(strings.Repeat("ab", 32), 2) // 14074 DFA states, near the 1<<14 cap
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*Query{kw, fz} {
		if got, want := q.TableBytes(), 2*q.leaves[0].auto.numStates()<<7; got != want {
			t.Errorf("%.30s: TableBytes = %d, want %d", q, got, want)
		}
		if q.TableBytes() > MaxTableBytes {
			t.Errorf("%.30s: TableBytes %d exceeds MaxTableBytes %d", q, q.TableBytes(), MaxTableBytes)
		}
	}
	if got := And(kw, kw, Not(kw)).TableBytes(); got != kw.TableBytes() {
		t.Errorf("shared leaf counted %d bytes, want %d", got, kw.TableBytes())
	}
	if got := And(kw, fz).TableBytes(); got != kw.TableBytes()+fz.TableBytes() {
		t.Errorf("two leaves: TableBytes = %d, want %d", got, kw.TableBytes()+fz.TableBytes())
	}
}
