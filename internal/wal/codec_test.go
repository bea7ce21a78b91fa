package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cliquesquare/internal/rdf"
)

// psoLess is codec order written out field by field, independently of
// Compare.
func psoLess(a, b rdf.Triple) bool {
	if a.P != b.P {
		return a.P < b.P
	}
	if a.S != b.S {
		return a.S < b.S
	}
	return a.O < b.O
}

// randomRecord draws a record over nProps properties whose ids, like its
// subjects and objects, include 0 and MaxUint32. A list is empty, one
// triple, a few or many; the lists are shuffled, and want is the record
// with both lists in codec order.
func randomRecord(rng *rand.Rand, nProps int) (rec, want *Record) {
	id := func() rdf.TermID {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return math.MaxUint32 - rdf.TermID(rng.Intn(3))
		case 2:
			return rdf.TermID(rng.Uint32())
		default:
			return rdf.TermID(rng.Intn(300))
		}
	}
	props := make([]rdf.TermID, nProps)
	for i := range props {
		props[i] = id()
	}
	list := func() []rdf.Triple {
		n := []int{0, 1, 1 + rng.Intn(5), rng.Intn(400)}[rng.Intn(4)]
		seen := make(map[rdf.Triple]bool)
		var out []rdf.Triple
		for len(out) < n {
			t := rdf.Triple{S: id(), P: props[rng.Intn(nProps)], O: id()}
			if rng.Intn(3) == 0 && len(out) > 0 { // the previous subject again
				t.S, t.P = out[len(out)-1].S, out[len(out)-1].P
			}
			if !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
		return out
	}
	rec = &Record{Epoch: rng.Uint64(), FirstTerm: id(), Topology: rng.Uint32(), Inserts: list(), Deletes: list()}
	for i := rng.Intn(4); i > 0; i-- {
		rec.Terms = append(rec.Terms, rdf.Term{Kind: rdf.TermKind(rng.Intn(int(rdf.Blank) + 1)), Value: strings.Repeat("v", rng.Intn(200))})
	}
	sorted := func(ts []rdf.Triple) []rdf.Triple {
		if len(ts) == 0 {
			return nil
		}
		out := slices.Clone(ts)
		slices.SortFunc(out, func(a, b rdf.Triple) int {
			if psoLess(a, b) {
				return -1
			}
			return 1
		})
		return out
	}
	want = &Record{Epoch: rec.Epoch, FirstTerm: rec.FirstTerm, Terms: rec.Terms, Topology: rec.Topology,
		Inserts: sorted(rec.Inserts), Deletes: sorted(rec.Deletes)}
	return rec, want
}

// TestCodecProperty: random records, their lists shuffled, are sorted in
// place into codec order, and decode from both the record and the image
// codec to exactly that record, consuming every byte written.
func TestCodecProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for i := 0; i < 400; i++ {
		nProps := 1
		if i%2 == 1 {
			nProps = 2 + rng.Intn(12)
		}
		rec, want := randomRecord(rng, nProps)
		if err := rec.sortLists(); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(rec.Inserts, want.Inserts) || !slices.Equal(rec.Deletes, want.Deletes) {
			t.Fatalf("record %d: sortLists did not leave the lists in codec order", i)
		}
		framed := encodeRecord([]byte("prefix"), rec)[len("prefix"):]
		got, n, ok := decodeRecord(framed)
		if !ok || n != len(framed) || !reflect.DeepEqual(got, want) {
			t.Fatalf("record %d (%d properties): decoded %v after %d of %d bytes:\n%+v\nwant %+v", i, nProps, ok, n, len(framed), got, want)
		}
		b, paid := rng.Uint64(), rng.Int63()
		gb, gpaid, gimg, err := decodeImage(encodeImage(b, paid, rec))
		if err != nil || gb != b || gpaid != paid || !reflect.DeepEqual(gimg, want) {
			t.Fatalf("image %d (%d properties): %v, on %d paid %d:\n%+v\nwant %+v", i, nProps, err, gb, gpaid, gimg, want)
		}
	}
}

// TestSortListsRefusesRepeats: a list holding a triple twice is no set,
// and Commit refuses it without poisoning the log.
func TestSortListsRefusesRepeats(t *testing.T) {
	l, err := Create(testOpts(NewMemFS()), &Record{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	dup := &Record{Epoch: 1, Deletes: []rdf.Triple{{S: 1, P: 2, O: 3}, {S: 0, P: 2, O: 3}, {S: 1, P: 2, O: 3}}}
	if _, _, err := l.Commit(dup); err == nil {
		t.Fatal("appended a record that deletes one triple twice")
	}
	appendSync(t, l, mkRecord(1))
}

// rawBody is a record payload with no term and no delete, and ins as
// the raw bytes of its insert list.
func rawBody(ins ...byte) []byte {
	b := putU64(nil, 1)
	b = putU32(b, 0)
	b = putU32(b, 1)
	b = append(b, 0) // no term
	b = append(b, ins...)
	return append(b, 0) // no delete
}

// framed frames body as a record with a valid checksum.
func framed(body []byte) []byte {
	b := putU32(nil, uint32(len(body)))
	b = putU32(b, crc32.Checksum(body, crcTable))
	return append(b, body...)
}

// imaged wraps body as a checkpoint image with a valid checksum.
func imaged(body []byte) []byte {
	b := putU64(putU64([]byte(imageMagic), 1), 0)
	b = append(b, body...)
	return putU32(b, crc32.Checksum(b[len(imageMagic):], crcTable))
}

// uvs is the uvarint encoding of vs, concatenated.
func uvs(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestDecodeRejectsNonCanonical: the decoders accept a triple list only
// in its canonical form — strictly ascending, minimal uvarints, ids up to
// MaxUint32, counts the bytes can hold — although every checksum holds.
// A count too large for the bytes left is refused before the list is
// allocated.
func TestDecodeRejectsNonCanonical(t *testing.T) {
	const max = math.MaxUint32
	for _, c := range []struct {
		name string
		ins  []byte
		ok   bool
	}{
		{"canonical, one group", uvs(2, 1, 2, 3, 4, 0, 1), true},
		{"canonical, two groups", uvs(2, 1, 1, 3, 4, 2, 1, 1, 1), true},
		{"canonical, extreme ids", uvs(2, 0, 1, 0, 0, max, 1, max, max), true},
		{"out of order: properties descend", uvs(2, 2, 1, 3, 4, 1, 1, 1, 1), false},
		{"out of order: a property's second group", uvs(2, 1, 1, 3, 4, 1, 1, 5, 5), false},
		{"repeated triple", uvs(2, 1, 2, 3, 4, 0, 0), false},
		{"overlong varint: a subject", append(uvs(1, 1, 1), 0x83, 0x00, 4), false},
		{"overlong varint: the count", append([]byte{0x81, 0x00}, uvs(1, 1, 3, 4)...), false},
		{"above MaxUint32: a subject", uvs(1, 1, 1, max+1, 4), false},
		{"above MaxUint32: a property", uvs(1, max+1, 1, 3, 4), false},
		{"above MaxUint32: a subject gap", uvs(2, 1, 2, max, 4, 1, 4), false},
		{"above MaxUint32: an object gap", uvs(2, 1, 2, 3, max, 0, 1), false},
		{"rows past the count", uvs(1, 1, 2, 3, 4, 5, 6), false},
		{"a group of no rows", uvs(1, 1, 0, 1, 1, 3, 4), false},
		{"rows past the bytes", uvs(3, 1, 3, 3, 4, 0, 1), false},
	} {
		body := rawBody(c.ins...)
		if _, n, ok := decodeRecord(framed(body)); ok != c.ok || (ok && n != len(body)+8) {
			t.Errorf("%s: record decoded = %v, want %v", c.name, ok, c.ok)
		}
		if _, _, _, err := decodeImage(imaged(body)); (err == nil) != c.ok {
			t.Errorf("%s: image err = %v, want decoded = %v", c.name, err, c.ok)
		}
	}

	// A count of 1<<18 triples over five bytes: a decoder that trusted
	// it would allocate 3 MiB before failing.
	huge := framed(rawBody(uvs(1<<18, 1, 1, 3, 4)...))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 4; i++ {
		if _, _, ok := decodeRecord(huge); ok {
			t.Fatal("decoded a count of 1<<18 triples over five bytes")
		}
	}
	runtime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got > 4*(64<<10) {
		t.Errorf("four refused decodes allocated %d bytes", got)
	}
}

// TestEncodeRecordAllocatesNothing: sorting a record's lists in place
// and encoding it into a warm buffer allocate nothing.
func TestEncodeRecordAllocatesNothing(t *testing.T) {
	rec, _ := randomRecord(rand.New(rand.NewSource(3)), 8)
	rec.Inserts, rec.Deletes = make([]rdf.Triple, 200), make([]rdf.Triple, 200)
	for i := range 200 {
		rec.Inserts[i] = rdf.Triple{S: rdf.TermID(7 * i), P: rdf.TermID(i % 8), O: rdf.TermID(i)}
		rec.Deletes[i] = rdf.Triple{S: rdf.TermID(5 * i), P: rdf.TermID(i % 5), O: rdf.TermID(3 * i)}
	}
	buf := encodeRecord(nil, rec)
	if a := testing.AllocsPerRun(100, func() {
		slices.Reverse(rec.Inserts)
		if err := rec.sortLists(); err != nil {
			t.Fatal(err)
		}
		buf = encodeRecord(buf[:0], rec)
	}); a != 0 {
		t.Errorf("sort and encode into a warm buffer: %v allocations, want 0", a)
	}
}

// Files of the previous format version: an empty base at epoch 0, and a
// segment holding one empty record of epoch 1.
const (
	v1Base    = "CSQDLT1\n\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\xa20'\x9a"
	v1Segment = "CSQWAL1\n\x1c\x00\x00\x00]L\xdcU\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"
)

// dirBytes is every file of the log directory with its durable bytes.
func dirBytes(t *testing.T, fs *MemFS, dir string) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for _, name := range logFiles(t, fs) {
		out[name] = fs.DurableBytes(filepath.Join(dir, name))
	}
	return out
}

// TestOpenRefusesOtherVersion: a log written in the previous format —
// whole, or only its newest segment beside current checkpoints — is
// refused with ErrFormat, never read as no state or as a torn tail, and
// Open leaves every file of it as it was.
func TestOpenRefusesOtherVersion(t *testing.T) {
	put := func(fs *MemFS, dir, name, data string) {
		f, err := fs.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte(data)); err != nil {
			t.Fatal(err)
		}
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	old := NewMemFS()
	opts := testOpts(old)
	put(old, opts.Dir, ckptName(0), v1Base)
	put(old, opts.Dir, segName(0), v1Segment)

	mixed := NewMemFS()
	h := history{churn: true}
	if _, _, err := h.run(testOpts(mixed), 3, 2); err != nil {
		t.Fatal(err)
	}
	put(mixed, opts.Dir, segName(2), v1Segment)

	for name, fs := range map[string]*MemFS{"previous version": old, "previous-version segment": mixed} {
		before := dirBytes(t, fs, opts.Dir)
		if _, _, err := Open(testOpts(fs), nil, nil); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: Open returned %v, want ErrFormat", name, err)
		}
		if after := dirBytes(t, fs, opts.Dir); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: Open changed the directory: %d files before, %d after", name, len(before), len(after))
		}
	}
}

// TestSeedCorpusOutcomes: the fuzz seeds are in the current codec — the
// well-formed ones decode, the torn, corrupt and unknown-kind ones fail.
func TestSeedCorpusOutcomes(t *testing.T) {
	for target, want := range map[string]map[string]bool{
		"FuzzDecodeRecord": {"batch": true, "two_records": true, "topology": true, "empty": true, "torn": false},
		"FuzzDecodeCheckpoint": {"base": true, "delta": true, "empty_base": true, "empty_delta": true,
			"base_bad_crc": false, "base_unknown_kind": false},
	} {
		for name, ok := range want {
			raw, err := os.ReadFile(filepath.Join("testdata/fuzz", target, name))
			if err != nil {
				t.Fatal(err)
			}
			_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
			s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
			if err != nil {
				t.Fatalf("%s/%s: %v", target, name, err)
			}
			var got bool
			if target == "FuzzDecodeRecord" {
				_, _, got = decodeRecord([]byte(s))
			} else {
				_, _, _, err := decodeImage([]byte(s))
				got = err == nil
			}
			if got != ok {
				t.Errorf("%s/%s: decoded = %v, want %v", target, name, got, ok)
			}
		}
	}
}
