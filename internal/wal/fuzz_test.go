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

// FuzzDecodeCheckpoint: no input panics the checkpoint decoder — bases
// and deltas are both record images — and an image it accepts
// re-encodes byte for byte. The seed corpus is under
// testdata/fuzz/FuzzDecodeCheckpoint.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if b, paid, rec, err := decodeImage(data); err == nil {
			if got := encodeImage(b, paid, rec); !bytes.Equal(got, data) {
				t.Fatalf("image %+v on %d re-encodes to %x, decoded from %x", rec, b, got, data)
			}
		}
	})
}
