package harness

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"ascc/internal/cmp"
	"ascc/internal/trace"
)

// TraceSpec describes one core's externally supplied trace.
type TraceSpec struct {
	Path string
	// BaseCPI and Overlap are the timing-model parameters for this trace's
	// core (see cmp.CoreTiming); zero values default to 1.0 and 0.5.
	BaseCPI float64
	Overlap float64
}

// LoadTraceFile reads a trace file (binary .trc or .csv, by extension) into
// a replayable generator.
func LoadTraceFile(path string) (*trace.Replay, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var refs []trace.Ref
	switch strings.ToLower(filepath.Ext(path)) {
	case ".csv":
		refs, err = trace.ReadCSV(f)
	default:
		refs, err = trace.ReadBinary(f)
	}
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", path, err)
	}
	return trace.NewReplay(filepath.Base(path), refs)
}

// errSampledTraces rejects set sampling on external traces: the compact 1/N
// machine expects streams pre-filtered to its sampled sets, and an external
// trace is replayed as-is, unfiltered.
var errSampledTraces = errors.New("harness: set sampling (Config.SampleDen > 1) does not apply to external traces")

// RunTraces simulates one externally supplied trace per core under a
// registry policy, using the runner's full-fidelity machine configuration
// (unmemoised: the streams come from files, not from a Spec). The policy
// and the system are built by the same code as Run's, and the system is
// released after its run like Run's. A sampled configuration is refused
// with errSampledTraces.
func (r *Runner) RunTraces(specs []TraceSpec, id PolicyID) (cmp.Results, error) {
	if len(specs) == 0 {
		return cmp.Results{}, fmt.Errorf("harness: no traces")
	}
	if r.Cfg.SampleDen > 1 {
		return cmp.Results{}, errSampledTraces
	}
	gens := make([]trace.Generator, len(specs))
	timing := make([]cmp.CoreTiming, len(specs))
	for i, spec := range specs {
		rp, err := LoadTraceFile(spec.Path)
		if err != nil {
			return cmp.Results{}, err
		}
		gens[i] = rp
		timing[i] = cmp.CoreTiming{BaseCPI: spec.BaseCPI, Overlap: spec.Overlap}
		if timing[i].BaseCPI <= 0 {
			timing[i].BaseCPI = 1.0
		}
		if timing[i].Overlap <= 0 {
			timing[i].Overlap = 0.5
		}
	}
	p := r.Cfg.Params(len(specs))
	pol, err := r.policy(Spec{Policy: id}, p)
	if err != nil {
		return cmp.Results{}, err
	}
	res, _, err := r.simulate(func() (*cmp.System, error) {
		return assemble(p, gens, timing, pol)
	}, false)
	return res, err
}
