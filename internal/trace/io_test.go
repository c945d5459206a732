package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func sampleRefs() []Ref {
	return []Ref{
		{Addr: 0x1000, Write: false, Gap: 3},
		{Addr: 0xdeadbeef00, Write: true, Gap: 0},
		{Addr: 0, Write: false, Gap: 1 << 20},
		{Addr: 1<<42 - 32, Write: true, Gap: 7},
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range sampleRefs() {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 4 {
		t.Fatalf("count %d", w.Count())
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 4 {
		t.Fatalf("read %d refs", len(back))
	}
	for i, r := range sampleRefs() {
		if back[i] != r {
			t.Fatalf("ref %d: %+v != %+v", i, back[i], r)
		}
	}
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	refs, err := ReadBinary(&buf)
	if err != nil || len(refs) != 0 {
		t.Fatalf("empty trace: %v refs, err %v", refs, err)
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(strings.NewReader("NOTATRACEFILE")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := ReadBinary(strings.NewReader("AS")); err == nil {
		t.Fatal("truncated magic accepted")
	}
}

func TestBinaryTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(Ref{Addr: 1 << 40, Gap: 5}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-1]
	if _, err := ReadBinary(bytes.NewReader(cut)); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(addrs []uint64, seed uint64) bool {
		if len(addrs) == 0 {
			return true
		}
		refs := make([]Ref, len(addrs))
		for i, a := range addrs {
			refs[i] = Ref{Addr: a, Write: a%3 == 0, Gap: int32(a % 1000)}
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for _, r := range refs {
			if err := w.Write(r); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		back, err := ReadBinary(&buf)
		if err != nil || len(back) != len(refs) {
			return false
		}
		for i := range refs {
			if back[i] != refs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	back, err := ReadCSV(bytes.NewReader(encodeCSV(t, sampleRefs())))
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range sampleRefs() {
		if back[i] != r {
			t.Fatalf("ref %d: %+v != %+v", i, back[i], r)
		}
	}
}

func TestCSVSkipsCommentsAndHeader(t *testing.T) {
	in := "# a comment\naddr,write,gap\n0x20,1,5\n\n64,0,2\n"
	refs, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) != 2 || refs[0].Addr != 0x20 || !refs[0].Write || refs[1].Addr != 64 {
		t.Fatalf("parsed %+v", refs)
	}
}

func TestCSVErrors(t *testing.T) {
	for name, in := range map[string]string{
		"fields": "1,2\n",
		"addr":   "zz,0,1\n",
		"write":  "0x10,7,1\n",
		"gap":    "0x10,0,-4\n",
		"empty":  "# nothing\n",
	} {
		if _, err := ReadCSV(strings.NewReader(in)); err == nil {
			t.Errorf("%s: bad CSV accepted", name)
		}
	}
}

func TestReplayCycles(t *testing.T) {
	rp, err := NewReplay("t", sampleRefs())
	if err != nil {
		t.Fatal(err)
	}
	if rp.Name() != "t" || rp.Len() != 4 {
		t.Fatalf("replay meta wrong: %s %d", rp.Name(), rp.Len())
	}
	for cycle := 0; cycle < 3; cycle++ {
		for i, want := range sampleRefs() {
			if got := rp.Next(); got != want {
				t.Fatalf("cycle %d ref %d: %+v != %+v", cycle, i, got, want)
			}
		}
	}
	if _, err := NewReplay("x", nil); err == nil {
		t.Fatal("empty replay accepted")
	}
}

// encodeBinary serialises refs through Writer.
func encodeBinary(t *testing.T, refs []Ref) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// encodeCSV serialises refs through CSVWriter.
func encodeCSV(t *testing.T, refs []Ref) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameRefs compares two reference slices element-wise (nil and empty agree).
func sameRefs(a, b []Ref) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestBinaryGapOverflow(t *testing.T) {
	// Address 1, then a gap word of 1<<33: gap 1<<32 does not fit an int32.
	in := binaryMagic + "\x01\x80\x80\x80\x80\x20"
	if _, err := ReadBinary(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Fatalf("gap past int32: err = %v, want an overflow error", err)
	}
}

// FuzzTraceReaders feeds arbitrary bytes to both -trace file readers. Neither
// may panic, and whatever a reader accepts must survive a round trip through
// the matching writer unchanged: ReadBinary(Writer(refs)) and
// ReadCSV(CSVWriter(refs)) give back refs, and re-encoding the binary form is
// a fixed point (the reader tolerates overlong varints, the writer emits the
// canonical encoding). The seeds include a truncated varint, a gap past
// int32, a wrong CSV field count and a bad write flag. Run bounded with
//
//	go test ./internal/trace -run '^$' -fuzz FuzzTraceReaders -fuzztime 10s
func FuzzTraceReaders(f *testing.F) {
	f.Add([]byte(binaryMagic + "\x80\x20\x06\xc0\x01\x01"))
	f.Add([]byte(binaryMagic + "\x10\x80"))                     // truncated varint
	f.Add([]byte(binaryMagic + "\x01\x80\x80\x80\x80\x20"))     // gap 1<<32, past int32
	f.Add([]byte(binaryMagic + "\x01\x80\x80\x80\x80\x80\x00")) // overlong zero gap
	f.Add([]byte("addr,write,gap\n0x1000,0,3\n# comment\n4096,1,0\n"))
	f.Add([]byte("0x10,1\n"))   // wrong field count
	f.Add([]byte("0x10,2,3\n")) // bad write flag
	f.Fuzz(func(t *testing.T, data []byte) {
		if refs, err := ReadBinary(bytes.NewReader(data)); err == nil {
			enc := encodeBinary(t, refs)
			back, err := ReadBinary(bytes.NewReader(enc))
			if err != nil {
				t.Fatalf("binary re-read of %d refs failed: %v", len(refs), err)
			}
			if !sameRefs(back, refs) {
				t.Fatalf("binary round trip changed the refs:\ngot  %v\nwant %v", back, refs)
			}
			if again := encodeBinary(t, back); !bytes.Equal(again, enc) {
				t.Fatalf("binary re-encoding is not a fixed point")
			}
		}
		if refs, err := ReadCSV(bytes.NewReader(data)); err == nil {
			back, err := ReadCSV(bytes.NewReader(encodeCSV(t, refs)))
			if err != nil {
				t.Fatalf("CSV re-read of %d refs failed: %v", len(refs), err)
			}
			if !sameRefs(back, refs) {
				t.Fatalf("CSV round trip changed the refs:\ngot  %v\nwant %v", back, refs)
			}
		}
	})
}
