package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"dloop/internal/sim"
)

// traceEvent is one buffered Chrome trace event. Durations and timestamps
// are kept in simulated nanoseconds and converted to the format's
// microseconds at write time.
type traceEvent struct {
	name     string
	pid, tid int32
	start    sim.Time
	dur      sim.Duration
	stored   int64
	// planePlus is 1 + the event's global plane index, carried as an extra
	// "plane" arg when sharded merging retargets tid from plane to channel;
	// 0 means absent.
	planePlus int32
	// extra is pre-rendered extra JSON args (starting with ","), e.g. the GC
	// span's policy and relocation counts.
	extra string
}

// TraceWriter buffers flash operations and FTL spans and writes them as a
// Chrome trace-event JSON document ("JSON Array Format") that chrome://tracing
// and https://ui.perfetto.dev open directly. The track layout maps hardware to
// the viewer's process/thread hierarchy. Single-FTL runs use the flat layout:
// pid = channel (plus one synthetic "host" process for request spans),
// tid = plane. Multi-queue runs (shards > 0) group by ownership instead:
// pid = FTL shard, tid = global channel, with the source plane carried as an
// event arg — so the viewer shows contention exactly where the concurrency
// is. Events are sorted by timestamp at flush so the emitted stream is
// monotonic.
//
// The buffer is capped: once limit events are held, further events are
// dropped and counted (the count is exported as the trace.dropped metric and
// recorded in the document itself), so a full-scale multi-million-request run
// cannot exhaust memory.
type TraceWriter struct {
	w       io.Writer
	limit   int
	events  []traceEvent
	dropped int64

	channels       int
	channelOfPlane []int32

	// shards > 0 selects the sharded shard→process / channel→thread layout;
	// shardOfChannel maps global channel -> owning shard.
	shards         int
	shardOfChannel []int32
}

// DefaultTraceLimit bounds buffered trace events when Options.TraceLimit is 0.
const DefaultTraceLimit = 1 << 20

// hostPID is the synthetic process id request spans render under: one past
// the last channel (flat layout) or the last shard (sharded layout).
func (t *TraceWriter) hostPID() int32 {
	if t.shards > 0 {
		return int32(t.shards)
	}
	return int32(t.channels)
}

func newTraceWriter(w io.Writer, limit, channels int, channelOfPlane []int32, shards int, shardOfChannel []int32) *TraceWriter {
	if limit <= 0 {
		limit = DefaultTraceLimit
	}
	return &TraceWriter{
		w: w, limit: limit, channels: channels, channelOfPlane: channelOfPlane,
		shards: shards, shardOfChannel: shardOfChannel,
	}
}

func (t *TraceWriter) add(ev traceEvent) {
	if len(t.events) >= t.limit {
		t.dropped++
		return
	}
	t.events = append(t.events, ev)
}

// Dropped returns how many events the buffer cap discarded.
func (t *TraceWriter) Dropped() int64 { return t.dropped }

// mergeShard folds one shard child's buffered events into this (sharded-
// layout) writer, translating the child's local channel pid to the owning
// shard and its local plane tid to the global channel, with the global plane
// riding along as an event arg. The parent's cap applies; overflow counts as
// dropped. Host-pid events never originate in children, so every child event
// translates.
func (t *TraceWriter) mergeShard(child *TraceWriter, shard int32, chanMap, planeMap []int32) {
	for _, ev := range child.events {
		if int(ev.tid) < len(planeMap) {
			ev.planePlus = planeMap[ev.tid] + 1
		}
		if int(ev.pid) < len(chanMap) {
			ev.tid = chanMap[ev.pid]
		}
		ev.pid = shard
		t.add(ev)
	}
	// Absorb the child's own drop count so the document's otherData.dropped
	// and the trace.dropped gauge agree after the merge.
	t.dropped += child.dropped
	child.dropped = 0
	child.events = child.events[:0]
}

// Flush sorts the buffered events by timestamp and writes the complete JSON
// document.
func (t *TraceWriter) Flush() error {
	sort.SliceStable(t.events, func(i, j int) bool { return t.events[i].start < t.events[j].start })
	bw := bufio.NewWriterSize(t.w, 1<<16)
	if _, err := fmt.Fprintf(bw, "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped\":%d},\"traceEvents\":[\n", t.dropped); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...any) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		fmt.Fprintf(bw, format, args...)
	}
	// Metadata: name the process/thread tracks after the hardware they carry.
	if t.shards > 0 {
		for s := 0; s < t.shards; s++ {
			emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"shard%d\"}}", s, s)
		}
		emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"host\"}}", t.hostPID())
		for ch, s := range t.shardOfChannel {
			emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"channel%d\"}}", s, ch, ch)
		}
	} else {
		for ch := 0; ch < t.channels; ch++ {
			emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"channel%d\"}}", ch, ch)
		}
		emit("{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":\"host\"}}", t.hostPID())
		for plane, ch := range t.channelOfPlane {
			emit("{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"args\":{\"name\":\"plane%d\"}}", ch, plane, plane)
		}
	}
	for _, ev := range t.events {
		// ts/dur are microseconds in the trace-event format.
		if ev.planePlus > 0 {
			emit("{\"name\":%q,\"cat\":\"flash\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"stored\":%d,\"plane\":%d%s}}",
				ev.name, sim.Duration(ev.start).Microseconds(), ev.dur.Microseconds(), ev.pid, ev.tid, ev.stored, ev.planePlus-1, ev.extra)
		} else {
			emit("{\"name\":%q,\"cat\":\"flash\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":%d,\"tid\":%d,\"args\":{\"stored\":%d%s}}",
				ev.name, sim.Duration(ev.start).Microseconds(), ev.dur.Microseconds(), ev.pid, ev.tid, ev.stored, ev.extra)
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// opNames caches the "kind/cause" labels so the per-op path does not
// concatenate strings.
var opNames = func() (names [NumOpKinds][NumCauses]string) {
	for k := OpKind(0); k < NumOpKinds; k++ {
		for c := Cause(0); c < NumCauses; c++ {
			names[k][c] = k.String() + "/" + c.String()
		}
	}
	return
}()
