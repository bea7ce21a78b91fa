package wal

import (
	"bytes"
	"hash/crc32"
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
// re-encodes byte for byte. Each input is decoded as it is and once more
// with its trailing checksum sealed over what precedes it, so that a
// mutation reaches the body's canonical-form checks instead of failing
// the checksum first. The seed corpus is under
// testdata/fuzz/FuzzDecodeCheckpoint.
func FuzzDecodeCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		images := [][]byte{data}
		if n := len(data) - 4; n >= len(imageMagic) {
			sealed := putU32(bytes.Clone(data[:n]), crc32.Checksum(data[len(imageMagic):n], crcTable))
			images = append(images, sealed)
		}
		for _, img := range images {
			if b, paid, rec, err := decodeImage(img); err == nil {
				if got := encodeImage(b, paid, rec); !bytes.Equal(got, img) {
					t.Fatalf("image %+v on %d re-encodes to %x, decoded from %x", rec, b, got, img)
				}
			}
		}
	})
}
