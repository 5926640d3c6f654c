package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dloop/internal/sim"
)

func ms(n int64) sim.Time { return sim.Time(n) * sim.Time(sim.Millisecond) }

// testCollector builds a 2-channel, 4-plane collector (planes 0,1 on channel
// 0; planes 2,3 on channel 1) with the given trace sink.
func testCollector(tr *bytes.Buffer, snap sim.Duration) *Collector {
	o := Options{
		FTL:            "DLOOP",
		Planes:         4,
		Channels:       2,
		ChannelOfPlane: []int32{0, 0, 1, 1},

		SnapshotInterval: snap,
	}
	if tr != nil {
		o.TraceEvents = tr
	}
	return NewCollector(o)
}

func opAt(kind OpKind, cause Cause, plane int32, ready, start, end sim.Time) Op {
	ch := int32(0)
	if plane >= 2 {
		ch = 1
	}
	return Op{Kind: kind, Cause: cause, Stored: int64(plane) + 100,
		Plane: plane, Channel: ch, Ready: ready, Start: start, End: end}
}

func TestCollectorCountsAndVectors(t *testing.T) {
	c := testCollector(nil, 0)
	// The FTL counted before the collector was wired; only what follows is
	// the collector's.
	counts := Counts{EvCMTHit: 5, EvCMTMiss: 5, EvGCRun: 2}
	c.SetCountSource(func() Counts { return counts })
	// The device's totals count from its last statistics reset, not from
	// wiring, so its parity waste is published as it stands.
	var waste int64
	c.SetDeviceSource(func() DeviceTotals { return DeviceTotals{WastedPages: waste} })
	c.RecordOp(opAt(OpWrite, CauseHost, 0, 0, ms(0), ms(1)))
	c.RecordOp(opAt(OpWrite, CauseGC, 1, ms(1), ms(1), ms(2)))
	c.RecordOp(opAt(OpRead, CauseMap, 2, ms(2), ms(2), ms(3)))
	c.RecordOp(opAt(OpCopyBack, CauseGC, 3, ms(3), ms(3), ms(4)))
	c.RecordOp(opAt(OpErase, CauseGC, 3, ms(4), ms(4), ms(6)))
	counts[EvCMTHit]++
	waste++
	counts[EvGCRun]++
	c.RecordSpan(SpanGC, 3, ms(3), ms(6))
	c.RecordRequest(false, ms(0), ms(2))

	reg := c.SnapshotRegistry()
	for name, want := range map[string]int64{
		"flash.write.host":  1,
		"flash.write.gc":    1,
		"flash.read.map":    1,
		"flash.copyback.gc": 1,
		"flash.erase.gc":    1,
		"flash.read.host":   0,
		"cmt.hit":           1,
		"gc.parity_waste":   1,
		"cmt.miss":          0,
		"gc.runs":           1,
	} {
		if got := reg.Counter(name).v; got != want {
			t.Errorf("counter %q = %d, want %d", name, got, want)
		}
	}
	if got := reg.Gauge("cmt.hitrate").v; got != 1 {
		t.Errorf("cmt.hitrate = %v, want 1 (the one lookup since wiring hit)", got)
	}
	if got := reg.vecs["plane.ops"].vals; got[0] != 1 || got[1] != 1 || got[2] != 1 || got[3] != 2 {
		t.Errorf("plane.ops = %v", got)
	}
	if got := reg.vecs["channel.ops"].vals; got[0] != 2 || got[1] != 3 {
		t.Errorf("channel.ops = %v", got)
	}
	if got := reg.vecs["plane.erases"].vals; got[3] != 1 {
		t.Errorf("plane.erases = %v", got)
	}
	if got := reg.Hist("host.write").N(); got != 1 {
		t.Errorf("host.write N = %d", got)
	}
	if got := reg.Hist("lat.write").N(); got != 2 {
		t.Errorf("lat.write N = %d", got)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	reg = c.Registry()
	if got := reg.Counter("gc.runs").v; got != 1 {
		t.Errorf("closed gc.runs = %d, want 1", got)
	}
	// The GC span covered 3 ms.
	if got := reg.Gauge("gc.busy_ms").v; got != 3 {
		t.Errorf("gc.busy_ms = %v, want 3", got)
	}
}

func TestCollectorSnapshots(t *testing.T) {
	c := testCollector(nil, sim.Millisecond)
	// Two ops in window [0,1ms), one in [1ms,2ms), then a partial window
	// [2ms,2.5ms) flushed by Close.
	c.RecordOp(opAt(OpWrite, CauseHost, 0, 0, 0, ms(1)/2))
	c.RecordOp(opAt(OpWrite, CauseHost, 1, 0, ms(1)/2, ms(1)-1))
	c.RecordOp(opAt(OpRead, CauseHost, 2, ms(1), ms(1), ms(2)-1))
	c.RecordOp(opAt(OpRead, CauseHost, 3, ms(2), ms(2), ms(2)+ms(1)/2))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	s := c.Registry().Series("ops", sim.Millisecond)
	var got []float64
	for i := 0; i < s.Buckets(); i++ {
		if b := s.Bucket(i); b.N() > 0 {
			got = append(got, b.Mean())
		}
	}
	if len(got) != 3 || got[0] != 2 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("ops series = %v, want [2 1 1]", got)
	}
	sd := c.Registry().Series("sdrpp", sim.Millisecond)
	if sd.Buckets() == 0 {
		t.Fatal("no sdrpp series emitted")
	}
}

// traceDoc mirrors the Chrome trace-event JSON Object Format.
type traceDoc struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	OtherData       struct {
		Dropped int64 `json:"dropped"`
	} `json:"otherData"`
	TraceEvents []struct {
		Name string          `json:"name"`
		Cat  string          `json:"cat"`
		Ph   string          `json:"ph"`
		Ts   *float64        `json:"ts"`
		Dur  *float64        `json:"dur"`
		Pid  int32           `json:"pid"`
		Tid  int32           `json:"tid"`
		Args json.RawMessage `json:"args"`
	} `json:"traceEvents"`
}

// The emitted document must hold to the trace-event schema: every event is a
// metadata record ("M") or a complete span ("X"); spans carry non-negative
// microsecond timestamps in monotonically non-decreasing order; and each
// flash op renders with pid = the channel of the plane in tid.
func TestTraceEventSchema(t *testing.T) {
	var buf bytes.Buffer
	c := testCollector(&buf, 0)
	chanOfPlane := []int32{0, 0, 1, 1}
	// Deliberately record out of order: backfill schedules into past gaps, and
	// the writer must sort at flush.
	c.RecordOp(opAt(OpWrite, CauseHost, 2, ms(4), ms(4), ms(5)))
	c.RecordOp(opAt(OpRead, CauseGC, 1, ms(1), ms(2), ms(3)))
	c.RecordOp(opAt(OpCopyBack, CauseGC, 3, 0, 0, ms(1)))
	c.RecordSpan(SpanGC, 1, ms(2), ms(3))
	c.RecordRequest(true, ms(1), ms(5))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("emitted trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" || doc.OtherData.Dropped != 0 {
		t.Errorf("header: unit %q dropped %d", doc.DisplayTimeUnit, doc.OtherData.Dropped)
	}

	meta, spans := 0, 0
	lastTs := -1.0
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			meta++
			var args struct {
				Name string `json:"name"`
			}
			if err := json.Unmarshal(ev.Args, &args); err != nil || args.Name == "" {
				t.Errorf("metadata event without a name: %s", ev.Args)
			}
			names[args.Name] = true
		case "X":
			spans++
			if ev.Ts == nil || ev.Dur == nil {
				t.Fatalf("X event %q missing ts/dur", ev.Name)
			}
			if *ev.Ts < 0 || *ev.Dur < 0 {
				t.Errorf("event %q negative ts/dur: %v/%v", ev.Name, *ev.Ts, *ev.Dur)
			}
			if *ev.Ts < lastTs {
				t.Errorf("event %q ts %v out of order after %v", ev.Name, *ev.Ts, lastTs)
			}
			lastTs = *ev.Ts
			if strings.ContainsRune(ev.Name, '/') { // a flash op, not a span/request
				if int(ev.Tid) >= len(chanOfPlane) || ev.Pid != chanOfPlane[ev.Tid] {
					t.Errorf("op %q pid %d != channel of plane %d", ev.Name, ev.Pid, ev.Tid)
				}
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	// 2 channel processes + host process + 4 plane threads.
	if meta != 7 {
		t.Errorf("metadata events = %d, want 7", meta)
	}
	// 3 ops + 1 GC span + 1 request.
	if spans != 5 {
		t.Errorf("X events = %d, want 5", spans)
	}
	for _, want := range []string{"channel0", "channel1", "host", "plane0", "plane3"} {
		if !names[want] {
			t.Errorf("missing track name %q", want)
		}
	}
}

func TestTraceWriterCapDrops(t *testing.T) {
	var buf bytes.Buffer
	c := NewCollector(Options{Planes: 1, Channels: 1, TraceEvents: &buf, TraceLimit: 2})
	for i := 0; i < 5; i++ {
		c.RecordOp(opAt(OpWrite, CauseHost, 0, ms(int64(i)), ms(int64(i)), ms(int64(i)+1)))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	var doc traceDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.OtherData.Dropped != 3 {
		t.Errorf("dropped = %d, want 3", doc.OtherData.Dropped)
	}
	if got := c.Registry().Gauge("trace.dropped").v; got != 3 {
		t.Errorf("trace.dropped gauge = %v, want 3", got)
	}
}

// Two identically fed registries must serialize to byte-identical JSON, and
// the document must parse.
func TestRegistryJSONDeterministic(t *testing.T) {
	build := func() *Collector {
		c := testCollector(nil, sim.Millisecond)
		c.RecordOp(opAt(OpWrite, CauseHost, 1, 0, 0, ms(1)))
		c.RecordOp(opAt(OpRead, CauseMap, 2, ms(1), ms(1), ms(2)))
		var n Counts
		c.SetCountSource(func() Counts { return n })
		n[EvCMTMiss]++
		c.RecordRequest(true, 0, ms(2))
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return c
	}
	var a, b bytes.Buffer
	if err := build().WriteMetrics(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteMetrics(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("identical runs produced different metrics.json bytes")
	}
	var doc map[string]any
	if err := json.Unmarshal(a.Bytes(), &doc); err != nil {
		t.Fatalf("metrics.json does not parse: %v", err)
	}
	for _, section := range []string{"labels", "counters", "histograms", "vectors", "series"} {
		if _, ok := doc[section]; !ok {
			t.Errorf("metrics.json missing %q section", section)
		}
	}
}

func TestCounterVecRedefinitionPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("v", "plane", 4)
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched CounterVec redefinition did not panic")
		}
	}()
	r.CounterVec("v", "plane", 8)
}
