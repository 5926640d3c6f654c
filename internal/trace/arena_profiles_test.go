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
		"gcheavy": 7.0, "Financial1": 7.5, "Financial2": 7.5, "TPC-C": 7.5, "Exchange": 7.6, "Build": 7.6,
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
