package sim

import "testing"

// BenchmarkResourceAcquire measures the monotone fast path of the busy
// timeline, the innermost loop of every flash operation.
func BenchmarkResourceAcquire(b *testing.B) {
	r := NewResource("plane")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Acquire(Time(i*10), 8)
	}
}

// BenchmarkResourceBackfill measures gap-filling acquisition: a sparse
// timeline of future operations with earlier work backfilled between them.
func BenchmarkResourceBackfill(b *testing.B) {
	r := NewResource("channel")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := Time(i * 100)
		r.Acquire(base+50, 10) // future op leaves a gap before it
		r.Acquire(base, 10)    // backfills the gap
		r.Acquire(base+20, 10)
	}
}

// layContendedBlock appends one block of the periodic pattern a merge chain
// leaves on a chip bus, its channel and a plane: periods periods of 3*d, each
// resource busy 1.5*d per period, staggered by d, so each resource alone has
// a gap that fits d in every period but the three never share one. A request
// that needs all three walks the whole block one interval per EarliestStart
// round, chip -> channel -> plane, and first fits in the idle stretch after
// the block's last period.
func layContendedBlock(chip, ch, pl *Resource, base Time, d Duration, periods int) {
	for k := 0; k < periods; k++ {
		p := base.Add(Duration(3*k) * d)
		chip.Acquire(p, d+d/2)
		ch.Acquire(p.Add(d), d+d/2)
		pl.Acquire(p.Add(2*d), d+d/2)
	}
}

// BenchmarkAcquireAllContended measures the case the two benchmarks above do
// not: AcquireAll over three resources whose busy patterns interlock, with
// the occupation backfilled behind a later block of the same pattern. One
// iteration lays the next block (tail appends), then issues a chain of four
// transfers that are all ready at the start of the current block; each walks
// its 16 periods (about 50 probes) and lands in the idle stretch before the
// next block, coalescing with the transfer before it.
func BenchmarkAcquireAllContended(b *testing.B) {
	const (
		d        = Duration(50)
		periods  = 16
		chain    = 4
		blockLen = Duration(3*periods+2*chain+4) * d
	)
	chip, ch, pl := NewResource("chipbus"), NewResource("channel"), NewResource("plane")
	layContendedBlock(chip, ch, pl, 0, d, periods)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base := Time(0).Add(Duration(i) * blockLen)
		layContendedBlock(chip, ch, pl, base.Add(blockLen), d, periods)
		for c := 0; c < chain; c++ {
			AcquireAll(base, d, chip, ch, pl)
		}
	}
}
