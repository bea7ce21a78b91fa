package wal

import (
	"bytes"
	"testing"
)

// FuzzDecodeRecord: no input panics the record decoder, and a record it
// accepts re-encodes to exactly the bytes it consumed. The seed corpus
// is under testdata/fuzz/FuzzDecodeRecord.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, ok := decodeRecord(data)
		if !ok {
			return
		}
		if got := encodeRecord(nil, rec); !bytes.Equal(got, data[:n]) {
			t.Fatalf("record %+v re-encodes to %x, decoded from %x", rec, got, data[:n])
		}
	})
}

// FuzzDecodeCheckpoint: no input panics the decoders of the two
// checkpoint files, bases and deltas, and a file either accepts
// re-encodes byte for byte. The seed corpus is under
// testdata/fuzz/FuzzDecodeCheckpoint.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if cp, err := decodeCheckpoint(data); err == nil {
			if got := encodeCheckpoint(cp); !bytes.Equal(got, data) {
				t.Fatalf("base %+v re-encodes to %x, decoded from %x", cp, got, data)
			}
		}
		if b, paid, rec, err := decodeDelta(data); err == nil {
			if got := encodeDelta(b, paid, rec); !bytes.Equal(got, data) {
				t.Fatalf("delta %+v on %d re-encodes to %x, decoded from %x", rec, b, got, data)
			}
		}
	})
}
