package expt

import (
	"bytes"
	"encoding/json"
	"testing"

	"dloop/internal/obs"
	"dloop/internal/sim"
	"dloop/internal/ssd"
	"dloop/internal/workload"
)

// An observed run's registry must reconcile exactly with the controller's
// end-of-run aggregates: the recorder attaches after preconditioning resets
// the measurement window, so both views count the same operations.
func TestObservedRunReconcilesGCCounters(t *testing.T) {
	opt := quickOptions()
	cfg, ok := configFor(4, 2, 0.03, ssd.SchemeDLOOP, opt)
	if !ok {
		t.Fatal("configFor failed")
	}
	p := scaleProfile(workload.Financial1(), opt.Scale)

	var col *obs.Collector
	res, err := RunObserved(cfg, p, 8000, 3, nil, func(c *ssd.Controller) obs.Recorder {
		o := c.ObsOptions()
		o.SnapshotInterval = 100 * sim.Millisecond
		col = obs.NewCollector(o)
		return col
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.GCRuns == 0 || res.GCCopyBacks == 0 {
		t.Fatalf("workload did not trigger GC (runs=%d copybacks=%d); the reconciliation below would be vacuous",
			res.GCRuns, res.GCCopyBacks)
	}
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}

	reg := col.Registry()
	counters := reg.Snapshot().Counters
	counter := func(name string) int64 { return counters[name] }
	sum := func(names ...string) int64 {
		var s int64
		for _, n := range names {
			s += counter(n)
		}
		return s
	}

	// The tentpole reconciliation: GC moves split by mechanism, plus the
	// same-parity waste pages, must match the device's final aggregates.
	if got := counter("flash.copyback.gc"); got != res.GCCopyBacks {
		t.Errorf("flash.copyback.gc = %d, Result.GCCopyBacks = %d", got, res.GCCopyBacks)
	}
	if got := counter("flash.write.gc"); got != res.GCExternalMoves {
		t.Errorf("flash.write.gc = %d, Result.GCExternalMoves = %d", got, res.GCExternalMoves)
	}
	if got := counter("gc.parity_waste"); got != res.WastedPages {
		t.Errorf("gc.parity_waste = %d, Result.WastedPages = %d", got, res.WastedPages)
	}
	if got := counter("gc.runs"); got != res.GCRuns {
		t.Errorf("gc.runs = %d, Result.GCRuns = %d", got, res.GCRuns)
	}

	// Totals per op kind across all causes.
	if got := sum("flash.read.host", "flash.read.gc", "flash.read.map"); got != res.Reads {
		t.Errorf("recorded reads = %d, Result.Reads = %d", got, res.Reads)
	}
	if got := sum("flash.write.host", "flash.write.gc", "flash.write.map"); got != res.Writes {
		t.Errorf("recorded writes = %d, Result.Writes = %d", got, res.Writes)
	}
	if got := sum("flash.copyback.host", "flash.copyback.gc", "flash.copyback.map"); got != res.CopyBacks {
		t.Errorf("recorded copybacks = %d, Result.CopyBacks = %d", got, res.CopyBacks)
	}
	if got := sum("flash.erase.host", "flash.erase.gc", "flash.erase.map"); got != res.Erases {
		t.Errorf("recorded erases = %d, Result.Erases = %d", got, res.Erases)
	}

	// Per-plane op counts are the SDRPP input; they must match the device's.
	planeOps := reg.Snapshot().Vectors["plane.ops"].Values
	for i, want := range res.PlaneOps {
		if planeOps[i] != want {
			t.Fatalf("plane.ops[%d] = %d, Result.PlaneOps[%d] = %d", i, planeOps[i], i, want)
		}
	}

	// Every host request went through the recorder.
	if got := reg.Hist("host.read").N() + reg.Hist("host.write").N(); got != res.Requests {
		t.Errorf("recorded requests = %d, Result.Requests = %d", got, res.Requests)
	}

	// The snapshot series accumulated over simulated time, and the document
	// serializes cleanly.
	if reg.Series("ops", 100*sim.Millisecond).Buckets() == 0 {
		t.Error("no ops snapshots emitted despite SnapshotInterval")
	}
	var buf bytes.Buffer
	if err := col.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("metrics.json does not parse: %v", err)
	}
}
