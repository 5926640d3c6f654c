package trace_test

import (
	"testing"

	"dloop/internal/trace"
	"dloop/internal/workload"
)

// TestArenaBytesPerRequest pins what the arena spends on each workload
// profile's stream: a wider record layout fails it. With -v it logs the
// table DESIGN §3.2 quotes (1 M requests of each profile, seed 42).
func TestArenaBytesPerRequest(t *testing.T) {
	const n = 1_000_000
	// gcheavy is the stream bench's gcheavy_dloop replays: update-only
	// Financial1 over 90 % of a 0.05-scale 4 GB device's exported space.
	gcheavy := workload.Financial1()
	gcheavy.Name, gcheavy.WriteRatio, gcheavy.ZipfS = "gcheavy", 1, 1.05
	gcheavy = gcheavy.ScaleFootprint(0.057375)
	limit := map[string]float64{
		"gcheavy": 5.4, "Financial1": 6.0, "Financial2": 6.2, "TPC-C": 4.7, "Exchange": 5.3, "Build": 5.3,
	}
	for _, p := range append([]workload.Profile{gcheavy}, workload.All()...) {
		g, err := workload.NewGenerator(p, 42)
		if err != nil {
			t.Fatal(err)
		}
		a, err := trace.BuildArena(workload.NewLimitReader(g, n))
		if err != nil || a.Len() != n {
			t.Fatalf("%s: Len %d, err %v", p.Name, a.Len(), err)
		}
		got := float64(trace.ArenaBytes(a)) / n
		t.Logf("%-10s %.2f B/request", p.Name, got)
		if got > limit[p.Name] {
			t.Errorf("%s: %.2f bytes per request, want <= %.2f", p.Name, got, limit[p.Name])
		}
	}
}

// BenchmarkArenaReplayFinancial1 is BenchmarkArenaReplay on a workload
// stream, 100 k Financial1 requests at seed 42: its blocks have presence
// bitmaps and dictionaries, which genRequests' never take, so it times the
// decoder's path that the bench windows and sweep cells replay.
func BenchmarkArenaReplayFinancial1(b *testing.B) {
	const n = 100_000
	g, err := workload.NewGenerator(workload.Financial1(), 42)
	if err != nil {
		b.Fatal(err)
	}
	a, err := trace.BuildArena(workload.NewLimitReader(g, n))
	if err != nil || a.Len() != n {
		b.Fatalf("Len %d, err %v", a.Len(), err)
	}
	b.Run("Next", func(b *testing.B) {
		b.ReportAllocs()
		var sectors int64
		for i := 0; i < b.N; i++ {
			c := a.Cursor()
			for {
				req, err := c.Next()
				if err != nil {
					break
				}
				sectors += int64(req.Sectors)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/req")
		if sectors == 0 {
			b.Fatal("empty replay")
		}
	})
	b.Run("NextN", func(b *testing.B) {
		buf := make([]trace.Request, 256)
		b.ReportAllocs()
		var sectors int64
		for i := 0; i < b.N; i++ {
			c := a.Cursor()
			for {
				k, _ := c.NextN(buf)
				if k == 0 {
					break
				}
				for _, req := range buf[:k] {
					sectors += int64(req.Sectors)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/req")
		if sectors == 0 {
			b.Fatal("empty replay")
		}
	})
}
