package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Trace file support: reference streams can be serialised to a compact
// binary format (or CSV) and replayed through the simulator, so users can
// drive the CMP with traces from their own tools instead of the synthetic
// models.
//
// Binary format: the 8-byte magic "ASCCTRC1", then one record per
// reference — address as a uvarint, gap as a uvarint shifted left by one
// with the write flag in bit 0.

// binaryMagic identifies binary trace files.
const binaryMagic = "ASCCTRC1"

// Writer serialises references to the binary trace format.
type Writer struct {
	w     *bufio.Writer
	buf   [2 * binary.MaxVarintLen64]byte
	wrote bool
	n     uint64
}

// NewWriter starts a binary trace stream on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write appends one reference.
func (t *Writer) Write(r Ref) error {
	if !t.wrote {
		if _, err := t.w.WriteString(binaryMagic); err != nil {
			return err
		}
		t.wrote = true
	}
	n := binary.PutUvarint(t.buf[:], r.Addr)
	gw := uint64(r.Gap) << 1
	if r.Write {
		gw |= 1
	}
	n += binary.PutUvarint(t.buf[n:], gw)
	if _, err := t.w.Write(t.buf[:n]); err != nil {
		return err
	}
	t.n++
	return nil
}

// Count returns the references written so far.
func (t *Writer) Count() uint64 { return t.n }

// Flush finishes the stream (writes the header even for empty traces).
func (t *Writer) Flush() error {
	if !t.wrote {
		if _, err := t.w.WriteString(binaryMagic); err != nil {
			return err
		}
		t.wrote = true
	}
	return t.w.Flush()
}

// Replay is an in-memory trace that implements Generator by cycling
// through its references endlessly (the simulator's generators are
// infinite streams; a finite trace wraps around).
type Replay struct {
	name string
	refs []Ref
	i    int
}

// NewReplay wraps a reference slice as a cyclic Generator.
func NewReplay(name string, refs []Ref) (*Replay, error) {
	if len(refs) == 0 {
		return nil, errors.New("trace: empty trace")
	}
	return &Replay{name: name, refs: refs}, nil
}

// Name implements Generator.
func (r *Replay) Name() string { return r.name }

// Len returns the number of references in one cycle.
func (r *Replay) Len() int { return len(r.refs) }

// Next implements Generator.
func (r *Replay) Next() Ref {
	ref := r.refs[r.i]
	r.i++
	if r.i == len(r.refs) {
		r.i = 0
	}
	return ref
}

// NextBatch implements Generator, copying whole runs of the cyclic trace at
// a time.
func (r *Replay) NextBatch(buf []Ref) {
	for n := 0; n < len(buf); {
		k := copy(buf[n:], r.refs[r.i:])
		n += k
		r.i += k
		if r.i == len(r.refs) {
			r.i = 0
		}
	}
}

// ReadBinary parses a binary trace stream into memory.
func ReadBinary(rd io.Reader) ([]Ref, error) {
	br := bufio.NewReader(rd)
	magic := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("trace: bad magic %q (not a binary trace)", magic)
	}
	var refs []Ref
	for {
		addr, err := binary.ReadUvarint(br)
		if err == io.EOF {
			return refs, nil
		}
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", len(refs), err)
		}
		gw, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("trace: record %d truncated: %w", len(refs), err)
		}
		gap := gw >> 1
		if gap > 1<<31-1 {
			return nil, fmt.Errorf("trace: record %d: gap %d overflows", len(refs), gap)
		}
		refs = append(refs, Ref{Addr: addr, Write: gw&1 == 1, Gap: int32(gap)})
	}
}

// CSVWriter serialises references to the "addr,write,gap" CSV format (hex
// addresses) that ReadCSV parses, with the same Write/Flush as Writer.
type CSVWriter struct {
	w     *bufio.Writer
	wrote bool
}

// NewCSVWriter starts a CSV trace stream on w.
func NewCSVWriter(w io.Writer) *CSVWriter {
	return &CSVWriter{w: bufio.NewWriter(w)}
}

// header writes the column header once, before the first reference.
func (t *CSVWriter) header() error {
	if t.wrote {
		return nil
	}
	t.wrote = true
	_, err := t.w.WriteString("addr,write,gap\n")
	return err
}

// Write appends one reference.
func (t *CSVWriter) Write(r Ref) error {
	if err := t.header(); err != nil {
		return err
	}
	wr := 0
	if r.Write {
		wr = 1
	}
	_, err := fmt.Fprintf(t.w, "%#x,%d,%d\n", r.Addr, wr, r.Gap)
	return err
}

// Flush finishes the stream (writes the header even for empty traces).
func (t *CSVWriter) Flush() error {
	if err := t.header(); err != nil {
		return err
	}
	return t.w.Flush()
}

// ReadCSV parses the "addr,write,gap" CSV format. Lines starting with "#"
// and the header line are skipped. Addresses may be decimal or 0x-hex.
func ReadCSV(rd io.Reader) ([]Ref, error) {
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	var refs []Ref
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "addr,") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("trace: line %d: want 3 fields, got %d", lineNo, len(parts))
		}
		addr, err := strconv.ParseUint(strings.TrimSpace(parts[0]), 0, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad address: %w", lineNo, err)
		}
		wr, err := strconv.Atoi(strings.TrimSpace(parts[1]))
		if err != nil || (wr != 0 && wr != 1) {
			return nil, fmt.Errorf("trace: line %d: bad write flag %q", lineNo, parts[1])
		}
		gap, err := strconv.ParseInt(strings.TrimSpace(parts[2]), 10, 32)
		if err != nil || gap < 0 {
			return nil, fmt.Errorf("trace: line %d: bad gap %q", lineNo, parts[2])
		}
		refs = append(refs, Ref{Addr: addr, Write: wr == 1, Gap: int32(gap)})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(refs) == 0 {
		return nil, errors.New("trace: no references in CSV")
	}
	return refs, nil
}
