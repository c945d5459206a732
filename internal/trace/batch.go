package trace

// Batch is a fixed-capacity decoded reference buffer with a consumption
// cursor — the unit of work handed between a Generator's bulk decode
// (NextBatch), the simulator's per-core stepping, and the L1 burst kernel
// in internal/cachesim, which consumes consecutive references directly
// from Refs[Pos:].
//
// The cursor survives arbitrary handoffs: a consumer that stops mid-batch
// (a frontier crossing, an instruction quota, an L1 miss event) leaves Pos
// pointing at the first unconsumed reference, so the stream observed
// across refills is bit-identical to unbatched Next calls.
type Batch struct {
	Refs []Ref // the decoded references; filled len(Refs) at a time
	Pos  int   // index of the next unconsumed reference
}

// Refill decodes the next len(Refs) references from g and rewinds the
// cursor. It must only be called once every decoded reference has been
// consumed (Pos == len(Refs), as in a freshly built Batch): refilling would
// otherwise drop the unconsumed tail and desynchronise the stream.
func (b *Batch) Refill(g Generator) {
	g.NextBatch(b.Refs)
	b.Pos = 0
}
