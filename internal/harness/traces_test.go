package harness

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ascc/internal/trace"
	"ascc/internal/workload"
)

// writeTestTraces produces one binary and one CSV trace from the synthetic
// models.
func writeTestTraces(t *testing.T) (binPath, csvPath string) {
	t.Helper()
	dir := t.TempDir()

	gen := workload.MustByID(445).NewGenerator(1, 0, 8)
	refs := trace.Record(gen, 50000)

	binPath = filepath.Join(dir, "a.trc")
	f, err := os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	w := trace.NewWriter(f)
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	gen2 := workload.MustByID(456).NewGenerator(2, 1<<36, 8)
	csvPath = filepath.Join(dir, "b.csv")
	f2, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteCSV(f2, trace.Record(gen2, 50000)); err != nil {
		t.Fatal(err)
	}
	f2.Close()
	return binPath, csvPath
}

func TestLoadTraceFile(t *testing.T) {
	binPath, csvPath := writeTestTraces(t)
	rp, err := LoadTraceFile(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Len() != 50000 {
		t.Fatalf("binary trace has %d refs", rp.Len())
	}
	rp2, err := LoadTraceFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if rp2.Len() != 50000 {
		t.Fatalf("csv trace has %d refs", rp2.Len())
	}
	if _, err := LoadTraceFile(filepath.Join(t.TempDir(), "missing.trc")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestRunTraces(t *testing.T) {
	binPath, csvPath := writeTestTraces(t)
	cfg := DefaultConfig()
	cfg.WarmupInstr = 100_000
	cfg.MeasureInstr = 300_000
	r := NewRunner(cfg)
	res, err := r.RunTraces([]TraceSpec{
		{Path: binPath, BaseCPI: 1.0, Overlap: 0.39},
		{Path: csvPath}, // defaults
	}, PAVGCC)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cores) != 2 {
		t.Fatalf("cores %d", len(res.Cores))
	}
	for i, c := range res.Cores {
		if c.Instructions < cfg.MeasureInstr {
			t.Errorf("core %d under quota: %d", i, c.Instructions)
		}
		if c.L2Accesses != c.L2LocalHits+c.L2RemoteHits+c.L2MemFills {
			t.Errorf("core %d conservation broken", i)
		}
	}
	if _, err := r.RunTraces(nil, PAVGCC); err == nil {
		t.Fatal("empty trace list accepted")
	}
}

// TestRunTracesRefusesSampling pins that a sampled configuration cannot
// replay external traces: the compact 1/N machine would take the unfiltered
// full-address streams and report wildly wrong CPIs without an error.
func TestRunTracesRefusesSampling(t *testing.T) {
	binPath, _ := writeTestTraces(t)
	for _, den := range []int{0, 1, 8} {
		cfg := DefaultConfig()
		cfg.WarmupInstr = 20_000
		cfg.MeasureInstr = 50_000
		cfg.SampleDen = den
		_, err := NewRunner(cfg).RunTraces([]TraceSpec{{Path: binPath}}, PBaseline)
		if refused := errors.Is(err, errSampledTraces); refused != (den > 1) {
			t.Errorf("SampleDen=%d: err %v", den, err)
		}
		if den <= 1 && err != nil {
			t.Errorf("SampleDen=%d: %v", den, err)
		}
	}
}
