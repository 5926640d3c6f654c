// Benchmarks regenerating each figure of the paper's evaluation at reduced
// scale (Options.Scale shrinks the device and footprint together, keeping
// capacity ratios, parallelism, and utilization). Shapes — who wins, by
// roughly what factor, where the trends point — match the full-scale runs
// recorded in EXPERIMENTS.md; absolute times do not, by design.
//
// Each benchmark iteration executes the complete sweep and reports the mean
// response time of representative cells as custom metrics, so regressions in
// simulated performance (not just wall time) are visible in benchstat.
package dloop_test

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"testing"
	"time"

	"dloop"
	"dloop/internal/obs"
	"dloop/internal/sim"
	"dloop/internal/ssd"
)

// cyclicStream replays a finite request slice for as long as a benchmark
// asks. Each new pass shifts every arrival by the stream's span (to where the
// request after the last would arrive), so time keeps advancing: replaying
// the recorded arrivals again would put every request of the later passes
// far behind the resource timelines, a regime no real run enters.
type cyclicStream struct {
	reqs []dloop.Request
	pos  int
}

// next returns the following n requests, fewer at the end of a pass.
func (s *cyclicStream) next(n int) []dloop.Request {
	if s.pos == len(s.reqs) {
		last := len(s.reqs) - 1
		span := s.reqs[last].Arrival - s.reqs[0].Arrival
		span += span / sim.Time(last)
		for i := range s.reqs {
			s.reqs[i].Arrival += span
		}
		s.pos = 0
	}
	if rem := len(s.reqs) - s.pos; n > rem {
		n = rem
	}
	s.pos += n
	return s.reqs[s.pos-n : s.pos]
}

// one returns the next request.
func (s *cyclicStream) one() dloop.Request { return s.next(1)[0] }

// benchOptions shrinks runs so one sweep iteration stays in the seconds
// range on a laptop.
func benchOptions() dloop.Options {
	return dloop.Options{
		Requests: 4000,
		Scale:    0.02,
		Seed:     42,
	}
}

func reportCell(b *testing.B, g *dloop.Grid, series, x, metric string) {
	b.Helper()
	if v, ok := g.Get(series, x); ok {
		b.ReportMetric(v, metric)
	}
}

// BenchmarkFig8 regenerates the capacity sweep (Fig. 8: mean response time
// and SDRPP vs 4-64 GB for five traces and three FTLs).
func BenchmarkFig8(b *testing.B) {
	opt := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mrt, sdrpp, err := dloop.Fig8(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCell(b, mrt, "Financial1/DLOOP", "4", "DLOOP@4GB-ms")
			reportCell(b, mrt, "Financial1/DFTL", "4", "DFTL@4GB-ms")
			reportCell(b, mrt, "Financial1/FAST", "4", "FAST@4GB-ms")
			reportCell(b, sdrpp, "Financial1/DLOOP", "4", "DLOOP@4GB-sdrpp")
		}
	}
}

// BenchmarkFig9 regenerates the page-size sweep (Fig. 9: 2-16 KB at 8 GB).
func BenchmarkFig9(b *testing.B) {
	opt := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mrt, _, err := dloop.Fig9(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCell(b, mrt, "Financial1/DLOOP", "2", "DLOOP@2KB-ms")
			reportCell(b, mrt, "Financial1/DLOOP", "16", "DLOOP@16KB-ms")
			reportCell(b, mrt, "Financial1/DFTL", "2", "DFTL@2KB-ms")
		}
	}
}

// BenchmarkFig10 regenerates the extra-blocks sweep (Fig. 10: 3-10% at 8 GB).
func BenchmarkFig10(b *testing.B) {
	opt := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mrt, _, err := dloop.Fig10(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCell(b, mrt, "Financial1/DLOOP", "3%", "DLOOP@3pct-ms")
			reportCell(b, mrt, "Financial1/FAST", "3%", "FAST@3pct-ms")
			reportCell(b, mrt, "Financial1/FAST", "10%", "FAST@10pct-ms")
		}
	}
}

// BenchmarkHeadline regenerates the §I improvement ratios (average DLOOP
// gain over DFTL and FAST, derived from the Fig. 8 sweep).
func BenchmarkHeadline(b *testing.B) {
	opt := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mrt, _, err := dloop.Fig8(opt)
		if err != nil {
			b.Fatal(err)
		}
		h := dloop.Headline(mrt)
		if i == b.N-1 {
			reportCell(b, h, "vs DFTL", "4", "vsDFTL@4GB-pct")
			reportCell(b, h, "vs FAST", "4", "vsFAST@4GB-pct")
		}
	}
}

// BenchmarkAblationCopyback runs the E5 ablation: DLOOP with copy-back GC
// moves versus forced external moves on Financial1.
func BenchmarkAblationCopyback(b *testing.B) {
	opt := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := dloop.AblationCopyback(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCell(b, g, "DLOOP copy-back", "4", "copyback@4GB-ms")
			reportCell(b, g, "DLOOP external", "4", "external@4GB-ms")
		}
	}
}

// BenchmarkParityReport runs the E6 same-parity waste measurement.
func BenchmarkParityReport(b *testing.B) {
	opt := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := dloop.ParityReport(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCell(b, g, "waste per 100 moves", "Financial1", "waste-per-100")
		}
	}
}

// BenchmarkHotPlane runs the E7 adaptive-GC extension comparison.
func BenchmarkHotPlane(b *testing.B) {
	opt := benchOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := dloop.HotPlane(opt)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportCell(b, g, "DLOOP", "p99 ms", "stock-p99-ms")
			reportCell(b, g, "DLOOP+adaptive", "p99 ms", "adaptive-p99-ms")
		}
	}
}

// BenchmarkSimulateThroughput measures raw simulator speed: host requests
// simulated per wall-clock second on one mid-size DLOOP configuration.
func BenchmarkSimulateThroughput(b *testing.B) {
	cfg := dloop.Config{CapacityGB: 4, FTL: dloop.SchemeDLOOP}
	p := dloop.Financial1().ScaleFootprint(0.05)
	ssd, err := dloop.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := ssd.PreconditionBytes(p.FootprintBytes); err != nil {
		b.Fatal(err)
	}
	reqs, err := dloop.GenerateTrace(p, 42, 10_000)
	if err != nil {
		b.Fatal(err)
	}
	stream := cyclicStream{reqs: reqs}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ssd.Serve(stream.one()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuild measures constructing a paper-scale (64 GB) device and its
// FTL, the set-up every cell of a capacity sweep pays before its first
// request. A build's cost is mostly first touches of its page-sized columns,
// which a heap that has held a build before hides or exaggerates, so each
// iteration builds in a fresh child process (TestBuildChild) and the
// benchmark reports the child's numbers: ns/op, B/op and allocs/op of the
// build alone, and hwm-MB, the child's peak resident set on Linux.
func BenchmarkBuild(b *testing.B) {
	for _, scheme := range []string{dloop.SchemeDLOOP, dloop.SchemeDFTL, dloop.SchemeFAST, ssd.SchemePureMap} {
		b.Run("64GB/"+scheme, func(b *testing.B) {
			var sum [4]float64
			for i := 0; i < b.N; i++ {
				cmd := exec.Command(os.Args[0], "-test.run=^TestBuildChild$")
				cmd.Env = append(os.Environ(), buildChildEnv+"="+scheme)
				out, err := cmd.Output()
				if err != nil {
					b.Fatalf("build child: %v\n%s", err, out)
				}
				var v [4]float64
				if _, err := fmt.Sscanf(string(out), "build %g %g %g %g", &v[0], &v[1], &v[2], &v[3]); err != nil {
					b.Fatalf("build child printed %q: %v", out, err)
				}
				for k := range sum {
					sum[k] += v[k]
				}
			}
			n := float64(b.N)
			b.ReportMetric(sum[0]/n, "ns/op")
			b.ReportMetric(sum[1]/n, "B/op")
			b.ReportMetric(sum[2]/n, "allocs/op")
			b.ReportMetric(sum[3]/n/1024, "hwm-MB")
		})
	}
}

// buildChildEnv names the scheme TestBuildChild builds.
const buildChildEnv = "DLOOP_BENCH_BUILD"

// TestBuildChild is BenchmarkBuild's child: it builds one 64 GB device and
// prints the build's wall time in ns, its heap bytes and allocations, and
// the process's peak resident set in KiB (0 where /proc is absent).
func TestBuildChild(t *testing.T) {
	scheme := os.Getenv(buildChildEnv)
	if scheme == "" {
		t.Skip("runs only as BenchmarkBuild's child process")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	s, err := dloop.New(dloop.Config{CapacityGB: 64, FTL: scheme})
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var hwmKB int64
	if status, err := os.ReadFile("/proc/self/status"); err == nil {
		if _, tail, ok := strings.Cut(string(status), "VmHWM:"); ok {
			fmt.Sscan(tail, &hwmKB)
		}
	}
	fmt.Printf("build %d %d %d %d\n", took.Nanoseconds(),
		after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs, hwmKB)
}

// BenchmarkGCHeavy measures the simulator in the garbage-collection-active
// regime the unified GC engine owns: a shrunken device preconditioned to its
// workload footprint, driven by an update-only skewed stream so collections
// (victim picks, copy-back relocations, parity waste, erases) dominate the
// work. The run fails if GC never triggered, so the benchmark cannot quietly
// degrade into remeasuring the host write path.
func BenchmarkGCHeavy(b *testing.B) {
	geo, err := dloop.ScaledGeometryFor(4, 2, 0.03, 0.02)
	if err != nil {
		b.Fatal(err)
	}
	cfg := dloop.Config{CapacityGB: 4, FTL: dloop.SchemeDLOOP, Geometry: &geo}
	ssd, err := dloop.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p := dloop.Financial1()
	p.WriteRatio = 1.0 // pure updates: every request invalidates live pages
	p.ZipfS = 1.05
	p.FootprintBytes = int64(ssd.FTL().Capacity()) * int64(geo.PageSize) * 9 / 10
	if err := ssd.PreconditionBytes(p.FootprintBytes); err != nil {
		b.Fatal(err)
	}
	reqs, err := dloop.GenerateTrace(p, 42, 10_000)
	if err != nil {
		b.Fatal(err)
	}
	// Warm until collection has actually started, so every timed iteration
	// runs in the steady GC-active regime and the benchmark cannot quietly
	// degrade into remeasuring the host write path.
	stream := cyclicStream{reqs: reqs}
	for i := 0; i < 2000; i++ {
		if _, err := ssd.Serve(stream.one()); err != nil {
			b.Fatal(err)
		}
	}
	if ssd.Result().GCRuns == 0 {
		b.Fatal("warm-up never triggered GC; the benchmark would measure nothing")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ssd.Serve(stream.one()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShardedThroughput compares the multi-queue front end against the
// single-FTL baseline on two shapes, driving the pipelined Enqueue path they
// share:
//
//   - 4ch (the paper's 8 GB shape, scaled): the single-FTL engine alone.
//   - 8ch (the 16 GB shape, scaled): "mq" runs 8 concurrent FTL shards
//     behind the multi-queue front end, and "mq-pipelined" drives the same
//     engine through the batch dispatch stage (EnqueueBatch: classification
//     split from staging). Sub-benchmarks with different engines replay the
//     same stream; the differential suites pin their equivalence contracts.
//
// The ns/op ratio of seq to the mq modes is the speedup the front end buys;
// on a single-core machine it degrades to scheduling overhead instead — the
// gain needs one core per shard. Every mode must preserve the
// disabled-observability zero-allocation guarantee (asserted in
// TestMQSteadyStateAllocFree).
func BenchmarkShardedThroughput(b *testing.B) {
	for _, mode := range []struct {
		name      string
		gb        int
		ftlShards int
		wantFTLSh int
		batch     bool
	}{
		{"4ch/seq", 8, 0, 1, false},
		{"8ch/seq", 16, 0, 1, false},
		{"8ch/mq", 16, dloop.AutoShards, 8, false},
		{"8ch/mq-pipelined", 16, dloop.AutoShards, 8, true},
	} {
		b.Run(mode.name, func(b *testing.B) {
			geo, err := dloop.ScaledGeometryFor(mode.gb, 2, 0.03, 0.05)
			if err != nil {
				b.Fatal(err)
			}
			cfg := dloop.Config{
				CapacityGB: mode.gb, FTL: dloop.SchemeDLOOP, Geometry: &geo,
				FTLShards: mode.ftlShards,
			}
			ssd, err := dloop.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer ssd.Close()
			if ssd.FTLShards() != mode.wantFTLSh {
				b.Fatalf("controller runs %d FTL shards, want %d", ssd.FTLShards(), mode.wantFTLSh)
			}
			p := dloop.Financial1()
			p.FootprintBytes = int64(ssd.Capacity()) * int64(geo.PageSize) / 2
			if err := ssd.PreconditionBytes(p.FootprintBytes); err != nil {
				b.Fatal(err)
			}
			reqs, err := dloop.GenerateTrace(p, 42, 10_000)
			if err != nil {
				b.Fatal(err)
			}
			// Warm-up: three trace passes move one-time arena growth (epoch
			// slices, slab chunks, ring buffers) and the simulated cold-start
			// transient (CMT misses, GC pools filling) off the clock, so even
			// short -benchtime windows measure the steady state.
			stream := cyclicStream{reqs: reqs}
			for i := 0; i < 3*len(reqs); i++ {
				if err := ssd.Enqueue(stream.one()); err != nil {
					b.Fatal(err)
				}
			}
			ssd.Flush()
			b.ReportAllocs()
			b.ResetTimer()
			if mode.batch {
				// Batch dispatch: chunks feed EnqueueBatch the way Run feeds
				// a trace.BatchReader.
				for i := 0; i < b.N; {
					batch := stream.next(min(250, b.N-i))
					if err := ssd.EnqueueBatch(batch); err != nil {
						b.Fatal(err)
					}
					i += len(batch)
				}
			} else {
				for i := 0; i < b.N; i++ {
					if err := ssd.Enqueue(stream.one()); err != nil {
						b.Fatal(err)
					}
				}
			}
			ssd.Flush()
		})
	}
}

// BenchmarkSimulateThroughputObserved is BenchmarkSimulateThroughput with the
// observability collector attached (metrics registry only, no trace sinks):
// the difference between the two is the per-request cost of enabling
// observability. The disabled path is covered by the plain benchmark, whose
// 0 B/op must survive — every hook is a single nil check there.
func BenchmarkSimulateThroughputObserved(b *testing.B) {
	cfg := dloop.Config{CapacityGB: 4, FTL: dloop.SchemeDLOOP}
	p := dloop.Financial1().ScaleFootprint(0.05)
	ssd, err := dloop.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if err := ssd.PreconditionBytes(p.FootprintBytes); err != nil {
		b.Fatal(err)
	}
	ssd.SetRecorder(obs.NewCollector(ssd.ObsOptions()))
	reqs, err := dloop.GenerateTrace(p, 42, 10_000)
	if err != nil {
		b.Fatal(err)
	}
	stream := cyclicStream{reqs: reqs}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ssd.Serve(stream.one()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateThroughputObservedMQ is the multi-queue analogue of
// BenchmarkSimulateThroughputObserved: the 8-channel shape behind the
// concurrent front end with a collector attached. Since shard-local recorders
// landed, attaching the collector keeps the shards concurrent — compare
// against BenchmarkShardedThroughput/8ch/mq to read the observed overhead,
// which the bench gate holds to the unobserved MQ engine's ballpark. The
// disabled MQ path's 0 B/op is pinned by TestMQSteadyStateAllocFree, the
// observed path's by TestObservedMQSteadyStateAllocFree; the warm-up pass
// below keeps one-time arena growth (epoch slices, slab chunks, histogram
// buckets) out of the measured window so the benchmark reports the true
// steady state at any -benchtime.
func BenchmarkSimulateThroughputObservedMQ(b *testing.B) {
	geo, err := dloop.ScaledGeometryFor(16, 2, 0.03, 0.05)
	if err != nil {
		b.Fatal(err)
	}
	cfg := dloop.Config{
		CapacityGB: 16, FTL: dloop.SchemeDLOOP, Geometry: &geo,
		FTLShards: dloop.AutoShards,
	}
	ssd, err := dloop.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer ssd.Close()
	if ssd.FTLShards() != 8 {
		b.Fatalf("controller runs %d FTL shards, want 8", ssd.FTLShards())
	}
	p := dloop.Financial1()
	p.FootprintBytes = int64(ssd.Capacity()) * int64(geo.PageSize) / 2
	if err := ssd.PreconditionBytes(p.FootprintBytes); err != nil {
		b.Fatal(err)
	}
	ssd.SetRecorder(obs.NewCollector(ssd.ObsOptions()))
	reqs, err := dloop.GenerateTrace(p, 42, 10_000)
	if err != nil {
		b.Fatal(err)
	}
	stream := cyclicStream{reqs: reqs}
	for range reqs { // warm-up: grow epoch slices, slab chunks, hist buckets
		if err := ssd.Enqueue(stream.one()); err != nil {
			b.Fatal(err)
		}
	}
	ssd.Flush()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ssd.Enqueue(stream.one()); err != nil {
			b.Fatal(err)
		}
	}
	ssd.Flush()
}
