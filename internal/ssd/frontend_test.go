package ssd

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/obs"
	"dloop/internal/sim"
	"dloop/internal/trace"
)

// tiny8Geometry is the multi-queue suite's wider shape: 8 channels so the
// front end can run 2, 4, or 8 FTL shards with a whole number of channels
// each. 16 planes, 24 blocks/plane, 8 pages/block, 2 KB pages.
func tiny8Geometry() flash.Geometry {
	return flash.Geometry{
		Channels:           8,
		PackagesPerChannel: 1,
		ChipsPerPackage:    1,
		DiesPerChip:        1,
		PlanesPerDie:       2,
		BlocksPerPlane:     24,
		PagesPerBlock:      8,
		PageSize:           2048,
	}
}

func mqConfig(scheme string, geo flash.Geometry, ftlShards int) Config {
	g := geo
	return Config{
		FTL:        scheme,
		Geometry:   &g,
		ExtraPct:   0.25,
		CMTEntries: 64,
		FTLShards:  ftlShards,
	}
}

func buildMQ(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// buildInline builds and preconditions a controller, then stops its front
// end's workers, so every request runs on the inline loop: the independent
// baseline the concurrent pipeline is checked against.
func buildInline(t *testing.T, cfg Config) *Controller {
	t.Helper()
	c := buildMQ(t, cfg)
	preconditionTiny(t, c)
	c.stopFrontEnd()
	if c.fe != nil {
		t.Fatal("front end still running after stopFrontEnd")
	}
	return c
}

// lookupMQ resolves one logical page through whichever FTL shard owns it.
// The returned PPN is shard-local; comparisons are meaningful between
// controllers with the same shard count (or against InvalidPPN).
func lookupMQ(t *testing.T, c *Controller, lpn ftl.LPN) flash.PPN {
	t.Helper()
	sh, local := c.shardOf(lpn)
	return lookup(t, sh.f, local)
}

// TestMQDifferential is the randomized differential suite for the multi-queue
// front end: for every scheme and shard counts 2/4/8 across two channel
// shapes, the concurrent pipeline replays the same trace as the inline loop
// over the identical shard layout, and must reproduce it bit for bit —
// Results, per-request latency streams, mapping tables, and per-shard device
// states.
func TestMQDifferential(t *testing.T) {
	shapes := []struct {
		name   string
		geo    flash.Geometry
		shards int
	}{
		{"2ch-2shard", tinyGeometry(), 2},
		{"8ch-4shard", tiny8Geometry(), 4},
		{"8ch-8shard", tiny8Geometry(), 8},
	}
	for _, scheme := range allSchemes {
		t.Run(scheme, func(t *testing.T) {
			for _, sp := range shapes {
				t.Run(sp.name+"/deterministic", func(t *testing.T) {
					cfg := mqConfig(scheme, sp.geo, sp.shards)
					ser := buildInline(t, cfg)
					par := buildMQ(t, cfg)
					if got := par.FTLShards(); got != sp.shards {
						t.Fatalf("FTLShards = %d, want %d", got, sp.shards)
					}
					var serLat, parLat []sim.Duration
					ser.SetLatencyHook(func(d sim.Duration) { serLat = append(serLat, d) })
					par.SetLatencyHook(func(d sim.Duration) { parLat = append(parLat, d) })
					preconditionTiny(t, par)
					w := tinyWorkload(t, ser, 1600, 37)
					want, err := ser.Run(trace.NewSliceReader(w))
					if err != nil {
						t.Fatal(err)
					}
					got, err := par.Run(trace.NewSliceReader(w))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("Results differ\ninline:     %+v\nconcurrent: %+v", want, got)
					}
					if !reflect.DeepEqual(serLat, parLat) {
						t.Fatalf("latency streams differ: %d vs %d samples", len(serLat), len(parLat))
					}
					for lpn := ftl.LPN(0); lpn < ser.Capacity(); lpn++ {
						if a, b := lookupMQ(t, ser, lpn), lookupMQ(t, par, lpn); a != b {
							t.Fatalf("lpn %d maps to %d (inline) vs %d (concurrent)", lpn, a, b)
						}
					}
					for i := 0; i < sp.shards; i++ {
						if !bytes.Equal(deviceBytes(ser.ShardDevice(i)), deviceBytes(par.ShardDevice(i))) {
							t.Fatalf("shard %d device state diverged", i)
						}
					}
				})
			}
		})
	}
}

// TestMQDeterministicRepeat pins run-to-run determinism of the concurrent
// front end itself: two fresh controllers with the same configuration and
// workload produce bit-identical Results, regardless of how the scheduler
// interleaved the shard workers.
func TestMQDeterministicRepeat(t *testing.T) {
	t.Run("deterministic", func(t *testing.T) {
		run := func() Result {
			c := buildMQ(t, mqConfig(SchemeDLOOP, tiny8Geometry(), 8))
			preconditionTiny(t, c)
			res, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 2000, 7)))
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("repeat run diverged\nfirst:  %+v\nsecond: %+v", a, b)
		}
	})
}

// TestMQEpochSweepDifferential is the pipeline half of the differential
// suite: the epoch length is a pure scheduling parameter, so setting it to
// the degenerate single-page epoch, the off-by-one values around the
// doorbell batch, and a large epoch must reproduce the inline loop's
// Results and per-request latency stream bit for bit for every scheme.
// Folding is per-request in arrival order no matter where the epoch cuts
// land, which is exactly the property this test pins.
func TestMQEpochSweepDifferential(t *testing.T) {
	for si, scheme := range allSchemes {
		t.Run(scheme, func(t *testing.T) {
			seed := int64(41 + si*13) // a different workload per scheme
			base := mqConfig(scheme, tiny8Geometry(), 4)
			ser := buildInline(t, base)
			var wantLat []sim.Duration
			ser.SetLatencyHook(func(d sim.Duration) { wantLat = append(wantLat, d) })
			w := tinyWorkload(t, ser, 1600, seed)
			want, err := ser.Run(trace.NewSliceReader(w))
			if err != nil {
				t.Fatal(err)
			}
			for _, pages := range []int{1, doorbellBatch - 1, doorbellBatch, 8192} {
				t.Run(fmt.Sprintf("pages%d-depth2", pages), func(t *testing.T) {
					c := buildMQ(t, base)
					c.fe.epochPages = pages
					var lat []sim.Duration
					c.SetLatencyHook(func(d sim.Duration) { lat = append(lat, d) })
					preconditionTiny(t, c)
					got, err := c.Run(trace.NewSliceReader(w))
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("Results differ from the inline loop\ninline:   %+v\npipeline: %+v", want, got)
					}
					if !reflect.DeepEqual(lat, wantLat) {
						t.Fatalf("latency streams differ: %d vs %d samples", len(lat), len(wantLat))
					}
				})
			}
		})
	}
}

// TestMQForkAtMidEpoch pins checkpointing against the pipeline: a Snapshot
// taken while an epoch is still open — parked completions not yet folded,
// and possibly a whole previous epoch still unfolded — must quiesce, fold,
// and capture a state from which any number of forks replay bit-identically.
func TestMQForkAtMidEpoch(t *testing.T) {
	c := buildMQ(t, mqConfig(SchemeDLOOP, tiny8Geometry(), 4))
	c.fe.epochPages = 256 // small epochs so the cut lands mid-stream
	preconditionTiny(t, c)
	w := tinyWorkload(t, c, 1500, 23)
	for i := range w[:777] { // stop mid-epoch: no flush before the snapshot
		if err := c.EnqueueBatch(w[i : i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.fe.epochs[0].pend)+len(c.fe.epochs[1].pend) == 0 {
		t.Fatal("cut landed on an epoch boundary; the snapshot would not exercise mid-epoch state")
	}
	cp, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	w2 := tinyWorkload(t, c, 900, 24)
	first, err := c.Run(trace.NewSliceReader(w2))
	if err != nil {
		t.Fatal(err)
	}
	for fork := 0; fork < 2; fork++ {
		if err := c.Restore(cp); err != nil {
			t.Fatal(err)
		}
		again, err := c.Run(trace.NewSliceReader(w2))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("fork %d diverged after mid-epoch snapshot\nfirst: %+v\nfork:  %+v", fork, first, again)
		}
	}
}

// TestMQLogicalEquivalence checks that sharding is invisible at the logical
// contract: after the same trace, controllers with 1, 2, 4, and 8 FTL shards
// expose exactly the same set of mapped logical pages (placement differs —
// each count is its own device organization — but what is stored must not).
func TestMQLogicalEquivalence(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme, func(t *testing.T) {
			var mapped []map[ftl.LPN]bool
			var caps []ftl.LPN
			for _, shards := range []int{1, 2, 4, 8} {
				c := buildMQ(t, mqConfig(scheme, tiny8Geometry(), shards))
				preconditionTiny(t, c)
				if _, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 2000, 11))); err != nil {
					t.Fatal(err)
				}
				m := make(map[ftl.LPN]bool)
				for lpn := ftl.LPN(0); lpn < c.Capacity(); lpn++ {
					if lookupMQ(t, c, lpn) != flash.InvalidPPN {
						m[lpn] = true
					}
				}
				mapped = append(mapped, m)
				caps = append(caps, c.Capacity())
			}
			for i := 1; i < len(mapped); i++ {
				if caps[i] != caps[0] {
					t.Fatalf("capacity %d with %d shards, %d with 1", caps[i], 1<<i, caps[0])
				}
				if !reflect.DeepEqual(mapped[i], mapped[0]) {
					t.Fatalf("mapped LPN set with %d shards differs from single FTL (%d vs %d pages)",
						1<<i, len(mapped[i]), len(mapped[0]))
				}
			}
		})
	}
}

// TestMQServePath covers the synchronous Serve API: every call barriers and
// then runs inline, so the returned response times must match, call for
// call, the latency stream a pipelined Run of the same requests folds, and
// the final Results must match bit for bit.
func TestMQServePath(t *testing.T) {
	cfg := mqConfig(SchemeDLOOP, tinyGeometry(), 2)
	ser := buildMQ(t, cfg)
	par := buildMQ(t, cfg)
	preconditionTiny(t, ser)
	preconditionTiny(t, par)
	w := tinyWorkload(t, ser, 600, 5)
	var want []sim.Duration
	par.SetLatencyHook(func(d sim.Duration) { want = append(want, d) })
	if _, err := par.Run(trace.NewSliceReader(w)); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(w) {
		t.Fatalf("latency hook saw %d requests, want %d", len(want), len(w))
	}
	for i, r := range w {
		got, err := ser.Serve(r)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("request %d: rt %v (Serve) vs %v (pipelined Run)", i, got, want[i])
		}
	}
	if ser.fe == nil {
		t.Fatal("Serve stopped the front end's workers")
	}
	if !reflect.DeepEqual(ser.Result(), par.Result()) {
		t.Fatal("results diverged on the Serve path")
	}
}

// TestMQCrashRecovery simulates power loss on a sharded controller: Recover
// rebuilds every shard's SRAM state from its own sub-device's out-of-band
// tags. The shard partitioning is part of the persistent layout (LPN mod N
// decides which sub-device holds a page), so the recovered controller must
// keep the same shard count and resolve every logical page to the same
// physical location the crashed one did.
func TestMQCrashRecovery(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme, func(t *testing.T) {
			c := buildMQ(t, mqConfig(scheme, tinyGeometry(), 2))
			preconditionTiny(t, c)
			res, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 2000, 5)))
			if err != nil {
				t.Fatal(err)
			}
			if res.Erases == 0 {
				t.Fatal("workload never triggered GC; the crash state is trivial")
			}
			r, err := c.Recover()
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(r.Close)
			if got := r.FTLShards(); got != 2 {
				t.Fatalf("recovered with %d FTL shards, want 2", got)
			}
			// Exactly one valid copy of each written lpn exists on its shard's
			// flash, so even the hybrids' reconstructed block roles must
			// resolve every lookup to the same physical page.
			for lpn := ftl.LPN(0); lpn < c.Capacity(); lpn++ {
				if got, want := lookupMQ(t, r, lpn), lookupMQ(t, c, lpn); got != want {
					t.Fatalf("lpn %d recovered %d want %d", lpn, got, want)
				}
			}
			if _, err := r.Run(trace.NewSliceReader(tinyWorkload(t, r, 1000, 6))); err != nil {
				t.Fatalf("post-recovery: %v", err)
			}
		})
	}
}

// failingFTL passes its first ok page writes through and fails every later
// one with err.
type failingFTL struct {
	ftl.FTL
	ok  int
	err error
}

func (f *failingFTL) WritePage(lpn ftl.LPN, at sim.Time) (sim.Time, error) {
	if f.ok == 0 {
		return 0, f.err
	}
	f.ok--
	return f.FTL.WritePage(lpn, at)
}

// TestMQRunReportsWorkerError pins that a page error a shard worker latches
// reaches Run's caller even when no epoch handoff follows it: the whole run
// here fits in one epoch.
func TestMQRunReportsWorkerError(t *testing.T) {
	c := buildMQ(t, mqConfig(SchemeDLOOP, tinyGeometry(), 2))
	preconditionTiny(t, c)
	errInjected := errors.New("injected page error")
	c.shards[1].f = &failingFTL{FTL: c.shards[1].f, ok: 10, err: errInjected}
	if _, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 300, 3))); !errors.Is(err, errInjected) {
		t.Fatalf("Run returned %v, want the worker's error", err)
	}
}

// TestMQRestoreClearsWorkerError pins DESIGN §11's contract on the front
// end: a successful Restore discards the error a shard worker latched in the
// run it abandons, so the next Run serves from the checkpoint exactly as a
// fresh twin does.
func TestMQRestoreClearsWorkerError(t *testing.T) {
	cfg := mqConfig(SchemeDLOOP, tinyGeometry(), 2)
	c := buildMQ(t, cfg)
	preconditionTiny(t, c)
	cp, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	healthy := c.shards[1].f
	errInjected := errors.New("injected page error")
	c.shards[1].f = &failingFTL{FTL: healthy, ok: 10, err: errInjected}
	if _, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 300, 3))); !errors.Is(err, errInjected) {
		t.Fatalf("Run returned %v, want the worker's error", err)
	}
	c.shards[1].f = healthy
	if err := c.Restore(cp); err != nil {
		t.Fatal(err)
	}
	w := tinyWorkload(t, c, 1200, 4)
	got, err := c.Run(trace.NewSliceReader(w))
	if err != nil {
		t.Fatalf("Run after a successful Restore: %v", err)
	}
	twin := buildMQ(t, cfg)
	preconditionTiny(t, twin)
	want, err := twin.Run(trace.NewSliceReader(w))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored run differs from a fresh twin's\ngot:  %+v\nwant: %+v", got, want)
	}
}

// TestMQSnapshotFork checks the warm-up checkpoint contract on the front end:
// a checkpoint taken mid-run forks any number of bit-identical continuations,
// and the checkpoint itself survives restores untouched.
func TestMQSnapshotFork(t *testing.T) {
	c := buildMQ(t, mqConfig(SchemeDLOOP, tiny8Geometry(), 4))
	preconditionTiny(t, c)
	if _, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 1200, 21))); err != nil {
		t.Fatal(err)
	}
	cp, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	w := tinyWorkload(t, c, 800, 22)
	first, err := c.Run(trace.NewSliceReader(w))
	if err != nil {
		t.Fatal(err)
	}
	for fork := 0; fork < 2; fork++ {
		if err := c.Restore(cp); err != nil {
			t.Fatal(err)
		}
		again, err := c.Run(trace.NewSliceReader(w))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("fork %d diverged\nfirst: %+v\nfork:  %+v", fork, first, again)
		}
	}
}

// TestMQRecorderStaysConcurrent checks the shard-native observability
// contract: attaching a collector keeps the front end's workers running
// (each shard records into a private child merged at barriers), the merged
// registry carries the device-wide and per-shard telemetry, and detaching
// leaves the workers running.
func TestMQRecorderStaysConcurrent(t *testing.T) {
	c := buildMQ(t, mqConfig(SchemeDLOOP, tinyGeometry(), 2))
	preconditionTiny(t, c)
	if c.fe == nil {
		t.Fatal("front end not running before any recorder attached")
	}
	col := obs.NewCollector(c.ObsOptions())
	c.SetRecorder(col)
	fe := c.fe
	if fe == nil {
		t.Fatal("collector stopped the workers; shards must stay concurrent")
	}
	if _, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 600, 3))); err != nil {
		t.Fatal(err)
	}
	c.SetRecorder(nil)
	if c.fe != fe {
		t.Fatal("detaching the collector restarted the workers")
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}
	reg := col.Registry()
	if n := reg.Snapshot().Counters["flash.write.host"]; n == 0 {
		t.Error("no host writes recorded through the shard children")
	}
	for s := 0; s < 2; s++ {
		if n := reg.Hist("mq.lat.shard" + string(rune('0'+s))).N(); n == 0 {
			t.Errorf("shard %d submission latency histogram empty", s)
		}
	}
	if n := reg.Hist("mq.lat").N(); n == 0 {
		t.Error("merged mq.lat histogram empty")
	}
	if _, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 300, 4))); err != nil {
		t.Fatal(err)
	}
}

// countingRecorder is a minimal non-Collector recorder.
type countingRecorder struct{ ops, reqs int }

func (r *countingRecorder) RecordOp(obs.Op)                                    { r.ops++ }
func (r *countingRecorder) RecordSpan(obs.SpanKind, int32, sim.Time, sim.Time) {}
func (r *countingRecorder) RecordRequest(bool, sim.Time, sim.Time)             { r.reqs++ }

// TestMQSetRecorderRefusesForeign pins the recorder contract of a sharded
// controller: a recorder that is not a collector has no merge semantics, so
// SetRecorder refuses it with ErrForeignRecorder and changes nothing — the
// attached collector keeps counting, the workers keep running, and the next
// Run still matches the inline loop over the same shard layout. A
// single-shard controller takes any recorder.
func TestMQSetRecorderRefusesForeign(t *testing.T) {
	cfg := mqConfig(SchemeDLOOP, tinyGeometry(), 2)
	ser := buildInline(t, cfg)
	par := buildMQ(t, cfg)
	preconditionTiny(t, par)
	serCol, parCol := obs.NewCollector(ser.ObsOptions()), obs.NewCollector(par.ObsOptions())
	if err := ser.SetRecorder(serCol); err != nil {
		t.Fatal(err)
	}
	if err := par.SetRecorder(parCol); err != nil {
		t.Fatal(err)
	}
	hostWrites := func(col *obs.Collector) int64 {
		return col.SnapshotRegistry().Snapshot().Counters["flash.write.host"]
	}
	w := tinyWorkload(t, ser, 600, 3)
	replay := func(reqs []trace.Request) {
		t.Helper()
		want, err := ser.Run(trace.NewSliceReader(reqs))
		if err != nil {
			t.Fatal(err)
		}
		got, err := par.Run(trace.NewSliceReader(reqs))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Results differ\ninline:     %+v\nconcurrent: %+v", want, got)
		}
	}
	replay(w[:300])
	before := hostWrites(parCol)

	fe := par.fe
	if err := par.SetRecorder(&countingRecorder{}); !errors.Is(err, ErrForeignRecorder) {
		t.Fatalf("foreign recorder on 2 shards: err %v, want ErrForeignRecorder", err)
	}
	if par.fe == nil || par.fe != fe {
		t.Fatal("the refused recorder stopped or replaced the workers")
	}
	replay(w[300:])
	if after := hostWrites(parCol); after <= before {
		t.Fatalf("collector stopped counting after the refusal: flash.write.host %d -> %d", before, after)
	}
	if a, b := hostWrites(serCol), hostWrites(parCol); a != b {
		t.Fatalf("flash.write.host reads %d inline, %d concurrent", a, b)
	}

	one := buildTiny(t, SchemeDLOOP)
	rec := &countingRecorder{}
	if err := one.SetRecorder(rec); err != nil {
		t.Fatalf("single-shard controller refused a recorder: %v", err)
	}
	if _, err := one.Run(trace.NewSliceReader(tinyWorkload(t, one, 100, 5))); err != nil {
		t.Fatal(err)
	}
	if rec.ops == 0 || rec.reqs != 100 {
		t.Fatalf("single-shard recorder saw %d ops, %d requests", rec.ops, rec.reqs)
	}
}

// TestMQObservedMetricsDifferential is the telemetry half of the
// differential suite: for every scheme, a fully observed concurrent run and
// an inline run of the identical shard layout must produce byte-identical
// metrics.json and trace-event documents.
// Everything the collector gathers — per-op counters and latency histograms,
// per-plane/channel vectors, per-shard mq.lat and gc.pause distributions,
// snapshot series, trace buffers — is covered by the byte comparison.
func TestMQObservedMetricsDifferential(t *testing.T) {
	for _, scheme := range allSchemes {
		t.Run(scheme, func(t *testing.T) {
			run := func(inline bool) (metrics, traceDoc []byte) {
				cfg := mqConfig(scheme, tiny8Geometry(), 4)
				var c *Controller
				if inline {
					c = buildInline(t, cfg)
				} else {
					c = buildMQ(t, cfg)
					preconditionTiny(t, c)
				}
				var traceBuf bytes.Buffer
				o := c.ObsOptions()
				o.TraceEvents = &traceBuf
				o.SnapshotInterval = 500 * sim.Microsecond
				col := obs.NewCollector(o)
				c.SetRecorder(col)
				if (c.fe == nil) != inline {
					t.Fatalf("inline=%v but front end running=%v", inline, c.fe != nil)
				}
				if _, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 1200, 13))); err != nil {
					t.Fatal(err)
				}
				c.SetRecorder(nil)
				if err := col.Close(); err != nil {
					t.Fatal(err)
				}
				var m bytes.Buffer
				if err := col.WriteMetrics(&m); err != nil {
					t.Fatal(err)
				}
				return m.Bytes(), traceBuf.Bytes()
			}
			serM, serT := run(true)
			parM, parT := run(false)
			if !bytes.Equal(serM, parM) {
				t.Errorf("metrics.json differs between inline and concurrent runs\ninline:\n%s\nconcurrent:\n%s", serM, parM)
			}
			if !bytes.Equal(serT, parT) {
				t.Error("trace-event document differs between inline and concurrent runs")
			}
		})
	}
}

// TestMQSteadyStateAllocFree asserts the multi-queue serving path is
// allocation-free per request at steady state: staged ring pushes, slab
// slots, and accumulator folds all reuse their arenas. The batch is
// read-only to keep GC (which allocates on its own) out of the measured
// window.
func TestMQSteadyStateAllocFree(t *testing.T) {
	t.Run("deterministic", func(t *testing.T) {
		c := buildMQ(t, mqConfig(SchemeDLOOP, tinyGeometry(), 2))
		preconditionTiny(t, c)
		reqs := tinyWorkload(t, c, 2000, 29)
		for i := range reqs {
			reqs[i].Op = trace.OpRead
		}
		i := 0
		serveBatch := func() {
			for n := 0; n < 100; n++ {
				if err := c.EnqueueBatch(reqs[i%len(reqs) : i%len(reqs)+1]); err != nil {
					t.Fatal(err)
				}
				i++
			}
			c.Flush()
		}
		serveBatch() // reach steady state: rings, slab chunks, pending slices
		serveBatch()
		if avg := testing.AllocsPerRun(10, serveBatch); avg > 0 {
			t.Fatalf("multi-queue serve path allocates %.1f times per 100-request epoch, want 0", avg)
		}
	})
}

// TestObservedMQSteadyStateAllocFree is the observed twin of
// TestMQSteadyStateAllocFree: attaching a metrics-only collector (no trace
// sinks, no snapshot series) must keep the multi-queue serving path
// allocation-free per request at steady state. The shard children's counters
// and histograms, the quiescent-point registry merge, and the fold-time
// RecordRequest calls all reuse arenas sized during warm-up; this pins the
// 0 B/op that BenchmarkSimulateThroughputObservedMQ reports.
func TestObservedMQSteadyStateAllocFree(t *testing.T) {
	t.Run("deterministic", func(t *testing.T) {
		c := buildMQ(t, mqConfig(SchemeDLOOP, tinyGeometry(), 2))
		preconditionTiny(t, c)
		col := obs.NewCollector(c.ObsOptions())
		c.SetRecorder(col)
		if c.fe == nil {
			t.Fatal("collector stopped the workers")
		}
		reqs := tinyWorkload(t, c, 2000, 29)
		for i := range reqs {
			reqs[i].Op = trace.OpRead
		}
		i := 0
		serveBatch := func() {
			for n := 0; n < 100; n++ {
				if err := c.EnqueueBatch(reqs[i%len(reqs) : i%len(reqs)+1]); err != nil {
					t.Fatal(err)
				}
				i++
			}
			c.Flush()
		}
		serveBatch() // reach steady state: rings, slabs, epoch slices, hist buckets
		serveBatch()
		if avg := testing.AllocsPerRun(10, serveBatch); avg > 0 {
			t.Fatalf("observed multi-queue serve path allocates %.1f times per 100-request epoch, want 0", avg)
		}
	})
}

// TestResolveFTLShards pins the shard-count resolution: AutoShards engages
// per-channel sharding only at 8+ channels, and explicit counts reduce to the
// largest divisor of the channel count so every shard owns the same whole
// number of channels.
func TestResolveFTLShards(t *testing.T) {
	for _, tc := range []struct {
		v, channels, want int
	}{
		{0, 8, 1}, {1, 8, 1}, {2, 2, 2}, {2, 8, 2}, {8, 8, 8}, {16, 8, 8},
		{3, 8, 2}, {5, 8, 4}, {6, 8, 4}, {3, 6, 3},
		{AutoShards, 2, 1}, {AutoShards, 4, 1}, {AutoShards, 8, 8}, {AutoShards, 16, 16},
	} {
		if got := resolveFTLShards(tc.v, tc.channels); got != tc.want {
			t.Errorf("resolveFTLShards(%d, %d) = %d, want %d", tc.v, tc.channels, got, tc.want)
		}
	}
}
