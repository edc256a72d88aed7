package store_test

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"github.com/paper-repo/staccato-go/pkg/store"
)

// inflatedPayloads are hand-built encodings whose chunk or alternative
// count claims more entries than the remaining bytes could hold (each
// needs at least 9), yet no more than the payload's length: 900 zero
// bytes follow a count of 500. Decode must reject them before sizing a
// slice from the count.
func inflatedPayloads() map[string][]byte {
	header := func(numChunks uint64) []byte {
		b := []byte("SDOC\x01")
		b = binary.AppendUvarint(b, 1)
		b = append(b, 'x')
		b = binary.AppendUvarint(b, 1) // params.chunks
		b = binary.AppendUvarint(b, 1) // params.k
		return binary.AppendUvarint(b, numChunks)
	}
	pad := make([]byte, 900)
	chunks := append(header(500), pad...)
	alts := append(header(1), make([]byte, 8)...) // retained
	alts = binary.AppendUvarint(alts, 500)
	alts = append(alts, pad...)
	return map[string][]byte{"chunk": chunks, "alt": alts}
}

func TestDecodeRejectsInflatedCounts(t *testing.T) {
	for name, data := range inflatedPayloads() {
		_, err := store.Decode(data)
		if err == nil || !strings.Contains(err.Error(), "implausible "+name+" count 500") {
			t.Errorf("%s count 500 in %d bytes: err = %v, want an implausible-count error", name, len(data), err)
		}
	}
}

// FuzzDecodeDoc drives arbitrary bytes through the document codec's
// decode path. The contract: malformed input errors, it never panics
// and never over-allocates from attacker-controlled length fields; and
// any input Decode accepts must survive an Encode→Decode round trip
// that re-encodes to identical bytes (probabilities can be NaN, so the
// stability check compares encoded bytes, not decoded structs).
// Seed corpus: testdata/fuzz/FuzzDecodeDoc (real encoded documents and
// truncations of them), regenerated by scripts/gen_fuzz_seeds.go.
func FuzzDecodeDoc(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("SDOC"))
	for _, data := range inflatedPayloads() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, err := store.Decode(data)
		if err != nil {
			return // rejected, cleanly
		}
		first, err := store.Encode(doc)
		if err != nil {
			t.Fatalf("Decode accepted input but Encode of the result failed: %v", err)
		}
		again, err := store.Decode(first)
		if err != nil {
			t.Fatalf("re-Decode of a fresh Encode failed: %v", err)
		}
		second, err := store.Encode(again)
		if err != nil {
			t.Fatalf("second Encode failed: %v", err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("Encode/Decode not stable:\n first  %x\n second %x", first, second)
		}
	})
}
