package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"ascc/internal/harness"
)

// updateGolden regenerates the committed golden tables instead of diffing
// against them:
//
//	go test ./internal/experiments -run TestGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden experiment tables under testdata/")

// goldenConfig is the fixed configuration the golden tables are generated
// with. It must never change silently: the tables under testdata/ pin the
// exact numeric output of the simulator at this budget, so any kernel or
// policy change that perturbs results fails the diff loudly.
func goldenConfig() harness.Config {
	cfg := tinyConfig()
	cfg.Parallel = 0 // determinism is independent of the worker count (PR 1)
	return cfg
}

// goldenExperiments are the artefacts pinned byte-for-byte: every
// experiment id, so a dropped, reordered or drifted cell in any table fails
// the diff. Among them are the core-count scaling table (whose probe column
// pins the directory's query count at every width), the set-sampling
// accuracy table (whose error columns pin how far the 1/N fast path may
// drift) and the §6.1 shared-LLC comparison (the only table that runs the
// shared machine).
var goldenExperiments = []string{
	"fig8", "fig9", "table4", "scaleout", "sampling", "shared",
	"fig1", "fig2", "fig4", "fig5", "table1", "fig7", "fig10", "mt", "prefetch",
	"spills", "limited", "fig11", "table5", "ablation", "futurework",
}

// TestGoldenTables regenerates each pinned experiment with the golden
// configuration and requires its CSV rendering to be byte-identical to the
// committed file. Run with -update after an intentional result change and
// commit the new tables alongside the change that caused them.
func TestGoldenTables(t *testing.T) {
	for _, id := range goldenExperiments {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			res, err := ByID(goldenConfig(), id)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := res.Table.CSV(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", id+".golden.csv")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("rewrote %s (%d bytes)", path, buf.Len())
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden table (regenerate with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Fatalf("%s drifted from golden table %s\n--- got ---\n%s\n--- want ---\n%s\n(run with -update if the change is intentional)",
					id, path, firstDiffWindow(buf.Bytes(), want), firstDiffWindow(want, buf.Bytes()))
			}
		})
	}
}

// firstDiffWindow returns a readable slice of a around the first byte where
// a and b differ, so failures point at the drifted cell rather than dumping
// whole tables.
func firstDiffWindow(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	start := i - 120
	if start < 0 {
		start = 0
	}
	end := i + 120
	if end > len(a) {
		end = len(a)
	}
	return a[start:end]
}
