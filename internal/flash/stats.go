package flash

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opCopyBack
	opErase
	numOps
)

// Stats accumulates operation counts, attributed per cause and per plane.
// PlaneOps feeds the paper's SDRPP metric (standard deviation of requests
// per plane). Per-block wear is device state that no reset clears; read it
// through Device.BlockErases.
type Stats struct {
	ops [numOps][numCauses]int64

	// PlaneOps[plane][cause] counts operations dispatched to each plane.
	PlaneOps [][numCauses]int64
	// WastedPages counts free pages deliberately invalidated to satisfy the
	// copy-back same-parity rule (DLOOP's §III.A overhead).
	WastedPages int64
}

// init sizes a new device's per-plane column.
func (s *Stats) init(geo Geometry) {
	s.PlaneOps = make([][numCauses]int64, geo.Planes())
}

// reset zeroes the counts in place.
func (s *Stats) reset() {
	s.ops = [numOps][numCauses]int64{}
	clear(s.PlaneOps)
	s.WastedPages = 0
}

// note accounts n operations of one kind on one plane.
func (s *Stats) note(op opKind, cause Cause, plane int, n int64) {
	s.ops[op][cause] += n
	s.PlaneOps[plane][cause] += n
}

func (s *Stats) clone() Stats {
	out := *s
	out.PlaneOps = append([][numCauses]int64(nil), s.PlaneOps...)
	return out
}

func (s Stats) sum(op opKind) int64 {
	var n int64
	for c := Cause(0); c < numCauses; c++ {
		n += s.ops[op][c]
	}
	return n
}

// Reads returns the total number of external page reads.
func (s Stats) Reads() int64 { return s.sum(opRead) }

// Writes returns the total number of external page programs.
func (s Stats) Writes() int64 { return s.sum(opWrite) }

// CopyBacks returns the total number of intra-plane copy-back operations.
func (s Stats) CopyBacks() int64 { return s.sum(opCopyBack) }

// Erases returns the total number of block erases.
func (s Stats) Erases() int64 { return s.sum(opErase) }

// ByCause returns the number of reads, writes, copy-backs, and erases
// attributed to one cause.
func (s Stats) ByCause(c Cause) (reads, writes, copyBacks, erases int64) {
	return s.ops[opRead][c], s.ops[opWrite][c], s.ops[opCopyBack][c], s.ops[opErase][c]
}

// PlaneTotals returns the total operation count per plane, the series the
// paper's SDRPP metric is computed over.
func (s Stats) PlaneTotals() []int64 {
	out := make([]int64, len(s.PlaneOps))
	for i, per := range s.PlaneOps {
		for c := Cause(0); c < numCauses; c++ {
			out[i] += per[c]
		}
	}
	return out
}

// PlaneTotalsByCause returns the per-plane operation counts for one cause.
func (s Stats) PlaneTotalsByCause(cause Cause) []int64 {
	out := make([]int64, len(s.PlaneOps))
	for i, per := range s.PlaneOps {
		out[i] = per[cause]
	}
	return out
}

// GCMoves returns the number of page relocations performed by garbage
// collection, split into bus-free copy-backs and external (bus-occupying)
// read+write pairs.
func (s Stats) GCMoves() (copyBacks, external int64) {
	return s.ops[opCopyBack][CauseGC], s.ops[opWrite][CauseGC]
}
