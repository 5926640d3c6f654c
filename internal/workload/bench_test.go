package workload

import (
	"testing"

	"dloop/internal/trace"
)

// BenchmarkGenerator measures synthetic request generation, which feeds
// every experiment run.
func BenchmarkGenerator(b *testing.B) {
	for _, p := range All() {
		p := p
		b.Run(p.Name, func(b *testing.B) {
			g, err := NewGenerator(p, 1)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.Next(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMaterializeArena measures what MaterializeArena pays on a cache
// miss: generating 100 k Financial1 requests straight into a packed arena.
// Its B/op is the arena's size, so the micro-benchmark gate's B/op rule
// fails a change that widens the records.
func BenchmarkMaterializeArena(b *testing.B) {
	const n = 100_000
	p := Financial1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := NewGenerator(p, 1)
		if err != nil {
			b.Fatal(err)
		}
		if a, err := trace.BuildArena(NewLimitReader(g, n)); err != nil || a.Len() != n {
			b.Fatalf("Len %d, err %v", a.Len(), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/req")
}
