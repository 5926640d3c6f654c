package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dloop/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// shardedCollector builds a 2-shard parent over the 4-plane/2-channel test
// shape (shard 0 owns channel 0 / planes 0,1; shard 1 owns channel 1 /
// planes 2,3) and returns the parent and both children.
func shardedCollector(tr *bytes.Buffer, snap sim.Duration) (parent, s0, s1 *Collector) {
	o := Options{
		FTL:            "DLOOP",
		Planes:         4,
		Channels:       2,
		ChannelOfPlane: []int32{0, 0, 1, 1},
		Shards:         2,
		ShardOfChannel: []int32{0, 1},

		SnapshotInterval: snap,
	}
	if tr != nil {
		o.TraceEvents = tr
	}
	parent = NewCollector(o)
	s0 = parent.Shard(ShardOptions{
		Index: 0, Planes: 2, Channels: 1,
		ChannelOfPlane: []int32{0, 0},
		PlaneMap:       []int32{0, 1},
		ChanMap:        []int32{0},
	})
	s1 = parent.Shard(ShardOptions{
		Index: 1, Planes: 2, Channels: 1,
		ChannelOfPlane: []int32{0, 0},
		PlaneMap:       []int32{2, 3},
		ChanMap:        []int32{1},
	})
	return parent, s0, s1
}

// localOp builds an op in a shard's local index space (both test shards have
// planes 0,1 on local channel 0).
func localOp(kind OpKind, cause Cause, plane int32, ready, start, end sim.Time) Op {
	return Op{Kind: kind, Cause: cause, Stored: int64(plane) + 100,
		Plane: plane, Channel: 0, Ready: ready, Start: start, End: end}
}

func TestLatencySummaryTailFields(t *testing.T) {
	var h Hist
	for i := 1; i <= 1000; i++ {
		h.Observe(sim.Duration(i) * sim.Millisecond)
	}
	s := h.Summary()
	if s.N != 1000 {
		t.Fatalf("N = %d, want 1000", s.N)
	}
	if s.MinMs != 1 || s.MaxMs != 1000 {
		t.Errorf("min/max = %v/%v, want 1/1000", s.MinMs, s.MaxMs)
	}
	if s.P999Ms < s.P99Ms || s.P99Ms < s.P50Ms || s.P50Ms <= 0 {
		t.Errorf("quantiles not ordered: p50=%v p99=%v p999=%v", s.P50Ms, s.P99Ms, s.P999Ms)
	}
	// The deep tail must actually read near the top of this uniform ramp
	// (the log-bucketed histogram resolves coarsely up there, so allow 10%).
	if s.P999Ms < 900 {
		t.Errorf("p999 = %v, want >= 900 on a 1..1000ms ramp", s.P999Ms)
	}
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"p999_ms"`, `"max_ms"`, `"min_ms"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("serialized summary missing %s: %s", key, raw)
		}
	}
	var zero Hist
	z := zero.Summary()
	if z.N != 0 || z.MeanMs != 0 || z.MinMs != 0 || z.MaxMs != 0 {
		t.Errorf("empty summary not zeroed: %+v", z)
	}
}

func TestRecordGCSpan(t *testing.T) {
	var buf bytes.Buffer
	c := testCollector(&buf, nil, 0)
	c.RecordGCSpan(1, ms(2), ms(5), "greedy", 7, 2)
	c.RecordGCSpan(3, ms(5), ms(6), "costbenefit", 3, 0)
	reg := c.Registry()
	if got := reg.Counter("gc.runs").Value(); got != 2 {
		t.Errorf("gc.runs = %d, want 2", got)
	}
	if got := reg.Counter("gc.relocated_pages").Value(); got != 10 {
		t.Errorf("gc.relocated_pages = %d, want 10", got)
	}
	if got := reg.Hist("gc.pause").N(); got != 2 {
		t.Errorf("gc.pause N = %d, want 2", got)
	}
	if got := reg.Hist("gc.pause").MeanMs(); got != 2 {
		t.Errorf("gc.pause mean = %v ms, want 2 (pauses of 3ms and 1ms)", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("gc.busy_ms").Value(); got != 4 {
		t.Errorf("gc.busy_ms = %v, want 4", got)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace does not parse: %v", err)
	}
	found := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || !strings.HasPrefix(ev.Name, "gc/") {
			continue
		}
		found++
		var args struct {
			Policy string `json:"policy"`
			Moved  int    `json:"moved"`
			Wasted int    `json:"wasted"`
		}
		if err := json.Unmarshal(ev.Args, &args); err != nil {
			t.Fatalf("gc span args: %v: %s", err, ev.Args)
		}
		if ev.Name == "gc/greedy" && (args.Policy != "greedy" || args.Moved != 7 || args.Wasted != 2) {
			t.Errorf("gc/greedy args = %+v", args)
		}
	}
	if found != 2 {
		t.Errorf("gc spans in trace = %d, want 2", found)
	}
}

// TestShardMergeFoldsChildren drives the two children directly and checks
// every merge rule: counter addition, histogram merge with per-shard copies,
// vector index translation, series suffixing, and gauge folding.
func TestShardMergeFoldsChildren(t *testing.T) {
	parent, s0, s1 := shardedCollector(nil, sim.Millisecond)
	s0.RecordOp(localOp(OpWrite, CauseHost, 0, 0, ms(0), ms(1)))
	s0.RecordOp(localOp(OpWrite, CauseGC, 1, ms(1), ms(1), ms(2)))
	s0.Registry().Hist("mq.lat").Observe(sim.Millisecond)
	s1.RecordOp(localOp(OpRead, CauseHost, 0, ms(0), ms(0), ms(2)))
	s1.RecordOp(localOp(OpErase, CauseGC, 1, ms(2), ms(2), ms(4)))
	s1.Registry().Hist("mq.lat").Observe(3 * sim.Millisecond)
	s1.RecordGCSpan(1, ms(2), ms(4), "greedy", 5, 1)
	parent.RecordRequest(false, ms(0), ms(2))
	if err := parent.Close(); err != nil {
		t.Fatal(err)
	}
	reg := parent.Registry()
	for name, want := range map[string]int64{
		"flash.write.host":   1,
		"flash.write.gc":     1,
		"flash.read.host":    1,
		"flash.erase.gc":     1,
		"gc.runs":            1,
		"gc.relocated_pages": 5,
	} {
		if got := reg.Counter(name).Value(); got != want {
			t.Errorf("counter %q = %d, want %d", name, got, want)
		}
	}
	// Local planes 0,1 of shard 1 are global planes 2,3; an identity merge
	// would pile everything onto planes 0,1 / channel 0 instead.
	if got := reg.CounterVec("plane.ops", "plane", 4).Values(); got[0] != 1 || got[1] != 1 || got[2] != 1 || got[3] != 1 {
		t.Errorf("plane.ops = %v, want [1 1 1 1] (shard-local indices leaked?)", got)
	}
	if got := reg.CounterVec("channel.ops", "channel", 2).Values(); got[0] != 2 || got[1] != 2 {
		t.Errorf("channel.ops = %v, want [2 2]", got)
	}
	if got := reg.Hist("mq.lat").N(); got != 2 {
		t.Errorf("merged mq.lat N = %d, want 2", got)
	}
	if got := reg.Hist("mq.lat.shard0").N(); got != 1 {
		t.Errorf("mq.lat.shard0 N = %d, want 1", got)
	}
	if got := reg.Hist("mq.lat.shard1").MeanMs(); got != 3 {
		t.Errorf("mq.lat.shard1 mean = %v, want 3", got)
	}
	if got := reg.Hist("gc.pause.shard1").N(); got != 1 {
		t.Errorf("gc.pause.shard1 N = %d, want 1", got)
	}
	// Snapshot series land per shard; the parent's own windows stay off.
	if s := reg.Series("ops.shard0", sim.Millisecond); s.Buckets() == 0 {
		t.Error("ops.shard0 series empty")
	}
	if s, ok := reg.series["ops"]; ok && s.Buckets() > 0 {
		t.Error("parent emitted its own ops series in a sharded run")
	}
	// GC busy time folds from the child's span ledger.
	if got := reg.Gauge("gc.busy_ms").Value(); got != 2 {
		t.Errorf("gc.busy_ms = %v, want 2", got)
	}
}

// TestSnapshotRegistryLive takes a merged snapshot mid-run and checks that it
// sees the children without perturbing live state, then that the run still
// closes to the full totals.
func TestSnapshotRegistryLive(t *testing.T) {
	parent, s0, s1 := shardedCollector(nil, 0)
	s0.RecordOp(localOp(OpWrite, CauseHost, 0, 0, ms(0), ms(1)))
	s1.RecordOp(localOp(OpWrite, CauseHost, 0, 0, ms(0), ms(1)))

	snap := parent.SnapshotRegistry()
	if got := snap.Counter("flash.write.host").Value(); got != 2 {
		t.Errorf("snapshot flash.write.host = %d, want 2", got)
	}
	// The live parent must be untouched by the merge.
	if got := parent.Registry().Counter("flash.write.host").Value(); got != 0 {
		t.Errorf("snapshot perturbed live parent: flash.write.host = %d", got)
	}

	s0.RecordOp(localOp(OpWrite, CauseGC, 1, ms(1), ms(1), ms(2)))
	if err := parent.Close(); err != nil {
		t.Fatal(err)
	}
	if got := parent.Registry().Counter("flash.write.host").Value(); got != 2 {
		t.Errorf("closed flash.write.host = %d, want 2", got)
	}
	if got := parent.Registry().Counter("flash.write.gc").Value(); got != 1 {
		t.Errorf("closed flash.write.gc = %d, want 1", got)
	}
	// Post-close snapshots are plain copies — children must not fold twice.
	again := parent.SnapshotRegistry()
	if got := again.Counter("flash.write.host").Value(); got != 2 {
		t.Errorf("post-close snapshot flash.write.host = %d, want 2 (double fold?)", got)
	}
}

// checkGolden compares got against testdata/<name>, rewriting the file under
// -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/obs/ -run %s -update` to create it)", err, t.Name())
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden file; rerun with -update if intentional\ngot:\n%s", name, got)
	}
}

// buildShardedRun produces a deterministic sharded run exercising every event
// family: flash ops on both shards, a GC pause span, and a host request.
func buildShardedRun(tr, metrics *bytes.Buffer) error {
	parent, s0, s1 := shardedCollector(tr, sim.Millisecond)
	s0.RecordOp(localOp(OpWrite, CauseHost, 0, 0, ms(0), ms(1)))
	s0.RecordOp(localOp(OpRead, CauseMap, 1, ms(1), ms(1), ms(2)))
	s0.Registry().Hist("mq.lat").Observe(sim.Millisecond)
	s1.RecordOp(localOp(OpWrite, CauseGC, 0, ms(0), ms(1), ms(2)))
	s1.RecordOp(localOp(OpErase, CauseGC, 1, ms(2), ms(2), ms(4)))
	s1.RecordGCSpan(1, ms(2), ms(4), "greedy", 5, 1)
	s1.Registry().Hist("mq.lat").Observe(2 * sim.Millisecond)
	parent.RecordRequest(false, ms(0), ms(2))
	if err := parent.Close(); err != nil {
		return err
	}
	if metrics != nil {
		return parent.WriteMetrics(metrics)
	}
	return nil
}

// TestTraceShardedGolden pins the sharded Perfetto layout: shard processes,
// global-channel threads, the host process, and the global plane riding as an
// event argument.
func TestTraceShardedGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildShardedRun(&buf, nil); err != nil {
		t.Fatal(err)
	}
	// Structural checks first, so drift shows up as a readable error before
	// the byte comparison.
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("sharded trace does not parse: %v", err)
	}
	names := map[string]int32{}
	meta := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "M" {
			continue
		}
		meta++
		var args struct {
			Name string `json:"name"`
		}
		if err := json.Unmarshal(ev.Args, &args); err != nil {
			t.Fatal(err)
		}
		names[args.Name] = ev.Pid
	}
	// 2 shard processes + host process + 2 channel threads.
	if meta != 5 {
		t.Errorf("metadata events = %d, want 5", meta)
	}
	for name, wantPid := range map[string]int32{"shard0": 0, "shard1": 1, "host": 2, "channel0": 0, "channel1": 1} {
		if got, ok := names[name]; !ok || got != wantPid {
			t.Errorf("track %q pid = %d (present=%v), want %d", name, got, ok, wantPid)
		}
	}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" || !strings.ContainsRune(ev.Name, '/') {
			continue
		}
		var args struct {
			Plane *int32 `json:"plane"`
		}
		if err := json.Unmarshal(ev.Args, &args); err != nil {
			t.Fatal(err)
		}
		if args.Plane == nil {
			t.Errorf("sharded op %q missing plane arg: %s", ev.Name, ev.Args)
			continue
		}
		// Shard 1's local planes are global planes 2,3 on channel 1.
		if ev.Pid == 1 && (*args.Plane < 2 || ev.Tid != 1) {
			t.Errorf("op %q on shard 1: plane %d tid %d", ev.Name, *args.Plane, ev.Tid)
		}
	}
	checkGolden(t, "trace_sharded.json", buf.Bytes())
}

// TestMetricsJSONGolden pins the metrics.json serialization — including the
// p999_ms/max_ms summary fields and the per-shard histogram/series names —
// against a golden file.
func TestMetricsJSONGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := buildShardedRun(nil, &buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"p999_ms"`, `"max_ms"`, `"mq.lat.shard1"`, `"gc.pause"`} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("metrics.json missing %s", key)
		}
	}
	checkGolden(t, "metrics_sharded.json", buf.Bytes())
}
