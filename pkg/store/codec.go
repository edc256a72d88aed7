package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/paper-repo/staccato-go/pkg/staccato"
)

// Binary codec for Staccato documents. Layout (all integers unsigned
// varints, all floats IEEE-754 little-endian bits):
//
//	magic "SDOC" | version | id | params.chunks | params.k
//	numChunks | for each chunk:
//	    retained float64 | numAlts | for each alt: text | prob float64
//
// Strings are length-prefixed byte slices. The version byte lets a later
// PR evolve the layout (e.g. delta-coded alternatives or compression)
// while still reading existing stores.

var codecMagic = [4]byte{'S', 'D', 'O', 'C'}

const codecVersion = 1

// Encode serializes doc to its binary form.
func Encode(doc *staccato.Doc) ([]byte, error) {
	if doc == nil {
		return nil, fmt.Errorf("store: Encode: nil doc")
	}
	buf := make([]byte, 0, 64+32*len(doc.Chunks))
	buf = append(buf, codecMagic[:]...)
	buf = append(buf, codecVersion)
	buf = appendString(buf, doc.ID)
	buf = binary.AppendUvarint(buf, uint64(doc.Params.Chunks))
	buf = binary.AppendUvarint(buf, uint64(doc.Params.K))
	buf = binary.AppendUvarint(buf, uint64(len(doc.Chunks)))
	for _, ch := range doc.Chunks {
		buf = appendFloat(buf, ch.Retained)
		buf = binary.AppendUvarint(buf, uint64(len(ch.Alts)))
		for _, alt := range ch.Alts {
			buf = appendString(buf, alt.Text)
			buf = appendFloat(buf, alt.Prob)
		}
	}
	return buf, nil
}

// minAltBytes is the fewest bytes one encoded alternative occupies: a
// one-byte length varint and the 8-byte probability. An encoded chunk
// needs at least as many (its retained float and alt count), so no count
// can exceed the remaining bytes divided by it.
const minAltBytes = 9

// Decode deserializes a document previously produced by Encode. The
// payload after the ID is copied into one string that every alternative's
// text is sliced from, and each chunk's alternatives are allocated at
// their final size, so a document costs four allocations plus one per
// chunk. The ID is copied on its own: search results keep IDs long after
// the document is dropped, and a sliced ID would pin the whole payload.
func Decode(data []byte) (*staccato.Doc, error) {
	d := decoder{buf: data}
	var magic [4]byte
	copy(magic[:], d.bytes(4))
	if d.err == nil && magic != codecMagic {
		return nil, fmt.Errorf("store: Decode: bad magic %q", magic)
	}
	if v := d.byte(); d.err == nil && v != codecVersion {
		return nil, fmt.Errorf("store: Decode: unsupported version %d", v)
	}
	doc := &staccato.Doc{}
	doc.ID = string(d.bytes(int(d.length())))
	d.src = string(d.buf)
	doc.Params.Chunks = int(d.uvarint())
	doc.Params.K = int(d.uvarint())
	numChunks := d.uvarint()
	if d.err == nil && numChunks > uint64(len(d.buf)/minAltBytes) {
		return nil, fmt.Errorf("store: Decode: implausible chunk count %d", numChunks)
	}
	if d.err == nil && numChunks > 0 {
		doc.Chunks = make([]staccato.PathSet, numChunks)
	}
	for i := 0; i < len(doc.Chunks) && d.err == nil; i++ {
		ch := &doc.Chunks[i]
		ch.Retained = d.float()
		numAlts := d.uvarint()
		if d.err == nil && numAlts > uint64(len(d.buf)/minAltBytes) {
			return nil, fmt.Errorf("store: Decode: implausible alt count %d", numAlts)
		}
		if d.err == nil && numAlts > 0 {
			ch.Alts = make([]staccato.Alt, numAlts)
		}
		for j := 0; j < len(ch.Alts) && d.err == nil; j++ {
			ch.Alts[j] = staccato.Alt{Text: d.string(), Prob: d.float()}
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.buf) != 0 {
		return nil, fmt.Errorf("store: Decode: %d trailing bytes", len(d.buf))
	}
	return doc, nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendFloat(buf []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(f))
}

// decoder consumes a byte slice with a latched error, so the happy path
// reads linearly without per-field error checks. Once set, src holds a
// copy of the bytes buf had left, and buf stays a suffix of it, so string
// reads slice src instead of copying.
type decoder struct {
	buf []byte
	src string
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("store: Decode: truncated input")
	}
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil || len(d.buf) < n {
		d.fail()
		return make([]byte, n)
	}
	out := d.buf[:n]
	d.buf = d.buf[n:]
	return out
}

func (d *decoder) byte() byte { return d.bytes(1)[0] }

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// length reads a string's length prefix, failing when fewer bytes remain.
func (d *decoder) length() uint64 {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.buf)) {
		d.fail()
		return 0
	}
	return n
}

// string reads a length-prefixed string as a slice of src.
func (d *decoder) string() string {
	n := d.length()
	off := len(d.src) - len(d.buf)
	d.buf = d.buf[n:]
	return d.src[off : off+int(n)]
}

func (d *decoder) float() float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(d.bytes(8)))
}
