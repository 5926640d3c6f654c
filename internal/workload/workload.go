// Package workload synthesizes the five enterprise traces of the paper's
// Table II. The real traces (UMass Financial1/2, TPC-C, Microsoft Exchange,
// Windows Build server) are not redistributable, so each profile reproduces
// the published characteristics that drive FTL behaviour: read/write mix,
// request-size distribution, arrival intensity and burstiness, footprint,
// temporal locality (Zipf), and sequentiality. DESIGN.md §4 documents the
// substitution.
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"dloop/internal/sim"
	"dloop/internal/trace"
)

// SizeWeight gives one entry of a request-size distribution.
type SizeWeight struct {
	Sectors int     // request length
	Weight  float64 // relative probability
}

// Profile parameterizes a synthetic workload.
type Profile struct {
	Name string

	WriteRatio float64      // fraction of requests that are writes
	Sizes      []SizeWeight // request-size distribution

	RatePerSec float64 // mean arrival rate
	BurstProb  float64 // probability a request arrives back-to-back with its predecessor

	FootprintBytes int64   // span of the address space the workload touches
	ZipfS          float64 // temporal-locality skew; <=1 means uniform
	SeqProb        float64 // probability of continuing a sequential run

	AlignSectors int // starting-address alignment of random accesses
}

// Validate reports whether the profile is internally consistent.
func (p Profile) Validate() error {
	if p.WriteRatio < 0 || p.WriteRatio > 1 {
		return fmt.Errorf("workload %s: WriteRatio %v out of [0,1]", p.Name, p.WriteRatio)
	}
	if len(p.Sizes) == 0 {
		return fmt.Errorf("workload %s: empty size distribution", p.Name)
	}
	total := 0.0
	for _, s := range p.Sizes {
		if s.Sectors <= 0 || s.Sectors > math.MaxInt32 || s.Weight < 0 { // a Request holds an int32 size
			return fmt.Errorf("workload %s: bad size entry %+v", p.Name, s)
		}
		total += s.Weight
	}
	if total <= 0 {
		return fmt.Errorf("workload %s: size weights sum to zero", p.Name)
	}
	if p.RatePerSec <= 0 {
		return fmt.Errorf("workload %s: RatePerSec must be positive", p.Name)
	}
	if p.BurstProb < 0 || p.BurstProb >= 1 {
		return fmt.Errorf("workload %s: BurstProb %v out of [0,1)", p.Name, p.BurstProb)
	}
	if p.SeqProb < 0 || p.SeqProb >= 1 {
		return fmt.Errorf("workload %s: SeqProb %v out of [0,1)", p.Name, p.SeqProb)
	}
	if p.FootprintBytes < int64(p.maxSectors())*trace.SectorSize {
		return fmt.Errorf("workload %s: footprint %d smaller than largest request", p.Name, p.FootprintBytes)
	}
	if p.AlignSectors <= 0 {
		return fmt.Errorf("workload %s: AlignSectors must be positive", p.Name)
	}
	return nil
}

func (p Profile) maxSectors() int {
	m := 0
	for _, s := range p.Sizes {
		if s.Sectors > m {
			m = s.Sectors
		}
	}
	return m
}

// Generator produces a deterministic request stream for a profile.
type Generator struct {
	p   Profile
	rng *rand.Rand
	z   *rand.Zipf

	footprintSectors int64
	slots            int64 // footprint divided into alignment-sized slots
	perm             int64 // multiplier of the rank->slot bijection

	now     sim.Time
	meanIAT float64 // nanoseconds, for the non-burst branch

	seqNext    int64 // next sector of the current sequential run, -1 if none
	sizeCDF    []float64
	sizeBySlot []int
}

// NewGenerator returns a generator for p seeded with seed. Equal (profile,
// seed) pairs yield identical streams.
func NewGenerator(p Profile, seed int64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		p:       p,
		rng:     rand.New(rand.NewSource(seed)),
		seqNext: -1,
	}
	g.footprintSectors = p.FootprintBytes / trace.SectorSize
	g.slots = g.footprintSectors / int64(p.AlignSectors)
	if g.slots < 1 {
		g.slots = 1
	}
	// Bijection rank -> slot spreads the Zipf head across the address space
	// so hot pages do not all share a few translation pages.
	g.perm = 2654435761 % g.slots
	for gcd(g.perm, g.slots) != 1 {
		g.perm++
	}
	if p.ZipfS > 1 {
		g.z = rand.NewZipf(g.rng, p.ZipfS, 1, uint64(g.slots-1))
	}
	if p.RatePerSec > 0 {
		g.meanIAT = float64(sim.Second) / (p.RatePerSec * (1 - p.BurstProb))
	}
	var cum float64
	for _, s := range p.Sizes {
		cum += s.Weight
		g.sizeCDF = append(g.sizeCDF, cum)
		g.sizeBySlot = append(g.sizeBySlot, s.Sectors)
	}
	for i := range g.sizeCDF {
		g.sizeCDF[i] /= cum
	}
	return g, nil
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// Next produces the next request in the stream.
func (g *Generator) Next() (trace.Request, error) {
	// Arrival process: Poisson with back-to-back bursts.
	if g.rng.Float64() >= g.p.BurstProb {
		g.now = g.now.Add(sim.Duration(g.rng.ExpFloat64() * g.meanIAT))
	}

	sectors := g.pickSize()
	var lbn int64
	if g.seqNext >= 0 && g.rng.Float64() < g.p.SeqProb {
		lbn = g.seqNext
		if lbn+int64(sectors) > g.footprintSectors {
			lbn = 0
		}
	} else {
		slot := g.pickSlot()
		lbn = slot * int64(g.p.AlignSectors)
		if lbn+int64(sectors) > g.footprintSectors {
			lbn = g.footprintSectors - int64(sectors)
		}
	}
	g.seqNext = lbn + int64(sectors)

	op := trace.OpRead
	if g.rng.Float64() < g.p.WriteRatio {
		op = trace.OpWrite
	}
	return trace.Request{Arrival: g.now, LBN: lbn, Sectors: int32(sectors), Op: op}, nil
}

func (g *Generator) pickSize() int {
	u := g.rng.Float64()
	for i, c := range g.sizeCDF {
		if u <= c {
			return g.sizeBySlot[i]
		}
	}
	return g.sizeBySlot[len(g.sizeBySlot)-1]
}

func (g *Generator) pickSlot() int64 {
	if g.z == nil {
		return g.rng.Int63n(g.slots)
	}
	rank := int64(g.z.Uint64())
	return (rank * g.perm) % g.slots
}

// NextN fills buf with the next len(buf) requests of the stream and returns
// how many it produced. Replay loops reuse one buffer across calls instead of
// paying a call per request.
func (g *Generator) NextN(buf []trace.Request) (int, error) {
	for i := range buf {
		r, err := g.Next()
		if err != nil {
			return i, err
		}
		buf[i] = r
	}
	return len(buf), nil
}

// Generate materializes the first n requests of the stream.
func Generate(p Profile, seed int64, n int) ([]trace.Request, error) {
	g, err := NewGenerator(p, seed)
	if err != nil {
		return nil, err
	}
	out := make([]trace.Request, n)
	if _, err := g.NextN(out); err != nil {
		return nil, err
	}
	return out, nil
}

// ScaleFootprint returns a copy of p with the footprint scaled by f, keeping
// it aligned and at least one maximal request long. Tests use it to shrink
// workloads onto miniature devices.
func (p Profile) ScaleFootprint(f float64) Profile {
	q := p
	fp := int64(math.Round(float64(p.FootprintBytes) * f))
	min := int64(p.maxSectors()) * trace.SectorSize
	if fp < min {
		fp = min
	}
	align := int64(p.AlignSectors) * trace.SectorSize
	if fp%align != 0 {
		fp += align - fp%align
	}
	q.FootprintBytes = fp
	return q
}
