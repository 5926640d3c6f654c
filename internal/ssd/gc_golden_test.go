package ssd

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"reflect"
	"testing"

	"dloop/internal/obs"
	"dloop/internal/sim"
	"dloop/internal/trace"
)

// goldenGC pins the flash-traffic counters of one scheme on the tiny
// deterministic workload (6000 requests, seed 7, 3/4-capacity precondition).
type goldenGC struct {
	policy      string
	reads       int64
	writes      int64
	copyBacks   int64
	erases      int64
	extMoves    int64
	wastedPages int64
	gcRuns      int64
	mergeCopies int64
}

// goldenDefaults are the counters every scheme produced before the GC
// engine refactor; the unified engine under each scheme's default policy
// must reproduce them exactly. A change here means the default GC behavior
// is no longer bit-identical to the historical per-scheme collectors.
var goldenDefaults = map[string]goldenGC{
	SchemeDLOOP:          {policy: "greedy", reads: 7521, writes: 6785, copyBacks: 9138, erases: 2249, extMoves: 0, wastedPages: 2482, gcRuns: 2249},
	SchemeDFTL:           {policy: "greedy", reads: 10646, writes: 9910, copyBacks: 0, erases: 1166, extMoves: 3176, wastedPages: 0, gcRuns: 1166},
	SchemeFAST:           {policy: "fifo", reads: 17996, writes: 21529, copyBacks: 0, erases: 2678, extMoves: 15250, wastedPages: 0, mergeCopies: 15250},
	SchemePureMap:        {policy: "greedy", reads: 5617, writes: 9150, copyBacks: 0, erases: 1069, extMoves: 2871, wastedPages: 0, gcRuns: 1069},
	SchemePureMapStriped: {policy: "greedy", reads: 2746, writes: 6279, copyBacks: 8084, erases: 2030, extMoves: 0, wastedPages: 2306, gcRuns: 2030},
}

func runGoldenWorkload(t *testing.T, cfg Config) Result {
	t.Helper()
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	preconditionTiny(t, c)
	res, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 6000, 7)))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestGoldenDefaultPolicy locks the engine's default victim policies to the
// seed behavior of all five FTL families.
func TestGoldenDefaultPolicy(t *testing.T) {
	for scheme, want := range goldenDefaults {
		t.Run(scheme, func(t *testing.T) {
			res := runGoldenWorkload(t, tinyConfig(scheme))
			got := goldenGC{
				policy:      res.GCPolicy,
				reads:       res.Reads,
				writes:      res.Writes,
				copyBacks:   res.CopyBacks,
				erases:      res.Erases,
				extMoves:    res.GCExternalMoves,
				wastedPages: res.WastedPages,
				gcRuns:      res.GCRuns,
				mergeCopies: res.MergeCopies,
			}
			if got != want {
				t.Errorf("golden counters drifted:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestExplicitDefaultPolicyIdentical checks that naming the default policy
// explicitly is the same simulation as leaving GCPolicy empty.
func TestExplicitDefaultPolicyIdentical(t *testing.T) {
	for scheme, want := range goldenDefaults {
		base := runGoldenWorkload(t, tinyConfig(scheme))
		cfg := tinyConfig(scheme)
		cfg.GCPolicy = want.policy
		named := runGoldenWorkload(t, cfg)
		if !reflect.DeepEqual(base, named) {
			t.Errorf("%s: GCPolicy=%q differs from default:\n%+v\n%+v", scheme, want.policy, base, named)
		}
	}
}

// TestAlternativePoliciesRun drives every scheme under cost-benefit and FIFO
// victim selection (FIFO is FAST's own default): the runs must complete,
// report the policy, and remain logically consistent (every written page
// readable at its mapped location).
func TestAlternativePoliciesRun(t *testing.T) {
	for scheme := range goldenDefaults {
		for _, pol := range []string{"costbenefit", "fifo"} {
			t.Run(scheme+"/"+pol, func(t *testing.T) {
				cfg := tinyConfig(scheme)
				cfg.GCPolicy = pol
				c, err := Build(cfg)
				if err != nil {
					t.Fatal(err)
				}
				preconditionTiny(t, c)
				res, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 3000, 11)))
				if err != nil {
					t.Fatal(err)
				}
				if res.GCPolicy != pol {
					t.Errorf("Result.GCPolicy = %q, want %q", res.GCPolicy, pol)
				}
				if res.Requests != 3000 {
					t.Errorf("served %d requests", res.Requests)
				}
				checkMappingConsistency(t, c)
			})
		}
	}
}

// TestBuildRejectsUnknownGCPolicy covers the config error path.
func TestBuildRejectsUnknownGCPolicy(t *testing.T) {
	for scheme := range goldenDefaults {
		cfg := tinyConfig(scheme)
		cfg.GCPolicy = "nope"
		if _, err := Build(cfg); err == nil {
			t.Errorf("%s: unknown policy accepted", scheme)
		}
	}
}

// gcStreamRecorder wraps the standard collector and checks, op by op, what
// the collector itself only counts: that every GC copy-back op is ready when
// the collection's chain has got to it. It also digests the whole op stream.
type gcStreamRecorder struct {
	*obs.Collector
	t         *testing.T
	chain     sim.Time // where the running collection's copy-back chain has got to
	copyBacks int64
	digest    hash.Hash64
}

func (r *gcStreamRecorder) hash(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		r.digest.Write(b[:])
	}
}

func (r *gcStreamRecorder) RecordGCVictim(valid int, at sim.Time) {
	r.chain = at
	r.Collector.RecordGCVictim(valid, at)
}

func (r *gcStreamRecorder) RecordOp(op obs.Op) {
	if op.Kind == obs.OpCopyBack {
		if op.Ready != r.chain {
			r.t.Fatalf("copy-back %d ready at %d, the chain is at %d", r.copyBacks, op.Ready, r.chain)
		}
		r.chain = op.End
		r.copyBacks++
	}
	r.hash(int64(op.Kind), int64(op.Cause), op.Stored, int64(op.Plane), int64(op.Channel),
		int64(op.Ready), int64(op.Start), int64(op.End))
	r.Collector.RecordOp(op)
}

// TestGoldenObservedGCStream pins the observed path of the two copy-back
// schemes: the chain check above, the device's GC copy-back and waste counts
// against the op stream and the run's Result, and a digest of the full op
// stream, the one the simulator produced when collections under a recorder
// still issued single-page runs — the observed stream is per operation by
// design and must not move.
func TestGoldenObservedGCStream(t *testing.T) {
	for scheme, want := range map[string]uint64{
		SchemeDLOOP:          0x644ceb56777b88d5,
		SchemePureMapStriped: 0xa42fb6c39580a8e7,
	} {
		t.Run(scheme, func(t *testing.T) {
			c, err := Build(tinyConfig(scheme))
			if err != nil {
				t.Fatal(err)
			}
			preconditionTiny(t, c)
			digest := fnv.New64a()
			rec := &gcStreamRecorder{Collector: obs.NewCollector(c.ObsOptions()), t: t, digest: digest}
			c.SetRecorder(rec)
			res, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 6000, 7)))
			if err != nil {
				t.Fatal(err)
			}
			copyBacks, _ := c.Device().Stats().GCMoves()
			wastes := res.WastedPages
			golden := goldenDefaults[scheme]
			if rec.copyBacks != golden.copyBacks || copyBacks != golden.copyBacks || wastes != golden.wastedPages ||
				res.CopyBacks != golden.copyBacks {
				t.Errorf("observed %d copy-back ops, counted %d copy-backs and %d wastes, run reports %d copy-backs; golden %d / %d",
					rec.copyBacks, copyBacks, wastes, res.CopyBacks, golden.copyBacks, golden.wastedPages)
			}
			if got := digest.Sum64(); got != want {
				t.Errorf("op stream digest %#x, want %#x", got, want)
			}
		})
	}
}

// TestCollectionSteadyStateAllocFree: once the collection scratch (parity
// queues, moved list, the pending run's source and destination lists) has
// reached its high-water size, sustained garbage collection allocates
// nothing.
func TestCollectionSteadyStateAllocFree(t *testing.T) {
	c := buildTiny(t, SchemeDLOOP)
	preconditionTiny(t, c)
	reqs := tinyWorkload(t, c, 4000, 13)
	for i := range reqs {
		reqs[i].Op = trace.OpWrite // updates only: every batch collects
	}
	i := 0
	serveBatch := func() {
		for n := 0; n < 100; n++ {
			if _, err := c.Serve(reqs[i%len(reqs)]); err != nil {
				t.Fatal(err)
			}
			i++
		}
	}
	for i < 2000 { // reach steady state: pools at the watermark, scratch grown
		serveBatch()
	}
	before := c.Result().GCRuns
	if avg := testing.AllocsPerRun(10, serveBatch); avg > 0 {
		t.Fatalf("collecting serve path allocates %.1f times per 100 requests, want 0", avg)
	}
	if ran := c.Result().GCRuns - before; ran < 100 {
		t.Fatalf("only %d collections in the measured window; the test measures nothing", ran)
	}
}
