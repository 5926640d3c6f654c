package sim

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
)

// refResource is the timeline model the real Resource must agree with,
// written the slow, obvious way: a flat sorted slice, a linear scan from the
// front on every probe, no cached end and no cursor.
type refResource struct {
	solidUntil Time
	live       []interval
	busyFor    Duration
}

func (m *refResource) freeAt() Time {
	if n := len(m.live); n > 0 {
		return m.live[n-1].end
	}
	return m.solidUntil
}

func (m *refResource) fit(ready Time, d Duration) Time {
	start := max(ready, m.solidUntil)
	// The model answers a request that is ready inside the last interval with
	// that interval's end without asking whether it fits before it; the scan
	// below would differ only for d == 0 ready exactly at its start.
	if n := len(m.live); n > 0 && start >= m.live[n-1].start && start < m.live[n-1].end {
		return m.live[n-1].end
	}
	for _, iv := range m.live {
		if iv.end <= start {
			continue
		}
		if start.Add(d) <= iv.start {
			return start
		}
		start = iv.end
	}
	return start
}

func (m *refResource) occupy(start Time, d Duration) {
	m.busyFor += d
	if d <= 0 {
		return
	}
	i := 0
	for i < len(m.live) && m.live[i].start < start {
		i++
	}
	m.live = slices.Insert(m.live, i, interval{start, start.Add(d)})
	if i+1 < len(m.live) && m.live[i].end == m.live[i+1].start {
		m.live[i].end = m.live[i+1].end
		m.live = slices.Delete(m.live, i+1, i+2)
	}
	if i > 0 && m.live[i-1].end == m.live[i].start {
		m.live[i-1].end = m.live[i].end
		m.live = slices.Delete(m.live, i, i+1)
	}
	for len(m.live) > retainIntervals { // the window is 64 intervals, by count
		m.solidUntil = m.live[0].end
		m.live = m.live[1:]
	}
}

// encode writes the model in Resource.EncodeState's layout.
func (m *refResource) encode() []byte {
	return encodeTimeline(m.solidUntil, m.busyFor, m.live)
}

// refEarliestStart is the least common fit by plain iteration to a fixpoint.
func refEarliestStart(ready Time, d Duration, ms []*refResource) Time {
	for start := ready; ; {
		s := start
		for _, m := range ms {
			s = m.fit(s, d)
		}
		if s == start {
			return start
		}
		start = s
	}
}

// resourcePair drives three real resources (chip bus, channel, plane) and
// their reference models through the same operations.
type resourcePair struct {
	t    testing.TB
	real [3]*Resource
	ref  [3]*refResource
}

func newResourcePair(t testing.TB) *resourcePair {
	p := &resourcePair{t: t}
	for i := range p.real {
		p.real[i] = NewResource("r")
		p.ref[i] = &refResource{}
	}
	return p
}

func (p *resourcePair) acquire(i int, ready Time, d Duration) {
	start, end := p.real[i].Acquire(ready, d)
	want := p.ref[i].fit(ready, d)
	p.ref[i].occupy(want, d)
	if start != want || end != want.Add(d) {
		p.t.Fatalf("Acquire(%d, %d) on resource %d: [%d,%d), reference [%d,%d)", ready, d, i, start, end, want, want.Add(d))
	}
}

// acquireChain checks AcquireChain against k plain acquisitions of the model,
// each ready when the one before ends.
func (p *resourcePair) acquireChain(i int, ready Time, d Duration, k int) {
	end := p.real[i].AcquireChain(ready, d, k)
	want := ready
	for j := 0; j < k; j++ {
		start := p.ref[i].fit(want, d)
		p.ref[i].occupy(start, d)
		want = start.Add(d)
	}
	if end != want {
		p.t.Fatalf("AcquireChain(%d, %d, %d) on resource %d: ends %d, reference %d", ready, d, k, i, end, want)
	}
}

func (p *resourcePair) acquireAll(ready Time, d Duration) {
	start, end := AcquireAll(ready, d, p.real[:]...)
	want := refEarliestStart(ready, d, p.ref[:])
	for _, m := range p.ref {
		m.occupy(want, d)
	}
	if start != want || end != want.Add(d) {
		p.t.Fatalf("AcquireAll(%d, %d): [%d,%d), reference [%d,%d)", ready, d, start, end, want, want.Add(d))
	}
}

// occupyTail checks OccupyTail(start, d), with start clamped to FreeAt,
// against n acquisitions of the reference that split d and are each ready
// when the one before ends: every one must be placed at its ready time.
func (p *resourcePair) occupyTail(i int, ready Time, d Duration, n int) {
	start := max(ready, p.real[i].FreeAt())
	p.real[i].OccupyTail(start, d)
	at := start
	for k := 0; k < n; k++ {
		piece := d / Duration(n)
		if k == n-1 {
			piece = d - piece*Duration(n-1)
		}
		if got := p.ref[i].fit(at, piece); got != at {
			p.t.Fatalf("OccupyTail(%d, %d) as %d pieces on resource %d: reference places piece %d at %d, not %d", start, d, n, i, k, got, at)
		}
		p.ref[i].occupy(at, piece)
		at = at.Add(piece)
	}
}

func (p *resourcePair) earliestStart(ready Time, d Duration) {
	if got, want := EarliestStart(ready, d, p.real[:]...), refEarliestStart(ready, d, p.ref[:]); got != want {
		p.t.Fatalf("EarliestStart(%d, %d): %d, reference %d", ready, d, got, want)
	}
}

// check compares everything observable about each resource with its model.
func (p *resourcePair) check() {
	for i, r := range p.real {
		m := p.ref[i]
		if r.FreeAt() != m.freeAt() || r.BusyTime() != m.busyFor {
			p.t.Fatalf("resource %d: FreeAt/BusyTime %d/%d, reference %d/%d",
				i, r.FreeAt(), r.BusyTime(), m.freeAt(), m.busyFor)
		}
		if got, want := timeline(r), m.encode(); !bytes.Equal(got, want) {
			p.t.Fatalf("resource %d: timeline %x, reference %x", i, got, want)
		}
	}
}

// fuzzDurations mixes zero, the unit steps that make intervals touch and
// coalesce, and the flash latencies' proportions (25 : 51 : 200 : 2000).
var fuzzDurations = [...]Duration{0, 1, 2, 3, 5, 25, 51, 200, 2000}

// fuzzOp is one operation of a byte-coded stream, four bytes each: the op
// code (low three bits) and a clock advance (high five), a selector, and a
// signed 16-bit offset of the ready time from the clock. The selector's top
// bit keeps the full offset; otherwise it shrinks to +-512 — so most
// requests are near-monotone, some land far behind (before solidUntil once
// the window has slid), and some far ahead, leaving gaps to backfill.
type fuzzOp struct {
	code, sel, off int
	ready          Time
	d              Duration
}

func decodeFuzzOps(data []byte) (ops []fuzzOp) {
	var clock Time
	for ; len(data) >= 4; data = data[4:] {
		op := fuzzOp{code: int(data[0] % 8), sel: int(data[1]), off: int(int16(uint16(data[2]) | uint16(data[3])<<8))}
		if op.sel < 128 {
			op.off >>= 6
		}
		clock = clock.Add(Duration(data[0] >> 3))
		op.ready = max(0, clock.Add(Duration(op.off)))
		op.d = fuzzDurations[op.sel%len(fuzzDurations)]
		ops = append(ops, op)
	}
	return ops
}

func encodeFuzzOp(code, advance, sel, off int) []byte {
	return []byte{byte(code | advance<<3), byte(sel), byte(off), byte(off >> 8)}
}

// run applies ops to the real resources and the models, comparing after
// every one.
func (p *resourcePair) run(ops []fuzzOp) {
	for _, op := range ops {
		switch op.code {
		case 0, 1, 2:
			p.acquire(op.code, op.ready, op.d)
		case 3:
			p.acquireAll(op.ready, op.d)
		case 4: // a chain of 0..80 operations: longer than the window
			p.acquireChain(op.sel/len(fuzzDurations)%3, op.ready, op.d, (op.off&0xFFFF)%81)
		case 5:
			p.earliestStart(op.ready, op.d)
		case 6: // encode -> decode into, which also drops the hints; sel picks who
			for i, r := range p.real {
				if op.sel>>i&1 == 1 {
					reload(p.t, r, timeline(r))
				}
			}
		case 7:
			if op.sel%16 == 0 { // rare: it throws the whole timeline away
				for i, r := range p.real {
					r.Reset()
					*p.ref[i] = refResource{}
				}
				break
			}
			if op.sel%2 == 1 { // a tail append of 1..4 operations
				p.occupyTail(op.sel/2%3, op.ready, op.d, 1+op.off&3)
				break
			}
			// The cursor is a hint: any value, even one planted between the
			// probe and the insert it serves, must give the same timeline.
			i := op.sel % 3
			start := p.real[i].fit(op.ready, op.d)
			p.real[i].cur = p.real[i].head + op.off%80 // in and around the window
			p.real[i].occupy(start, op.d)
			want := p.ref[i].fit(op.ready, op.d)
			p.ref[i].occupy(want, op.d)
			if start != want {
				p.t.Fatalf("fit(%d, %d) on resource %d: %d, reference %d", op.ready, op.d, i, start, want)
			}
		}
		p.check()
	}
}

// contendedSeed is the pattern layContendedBlock describes, as a fuzz
// stream: periods rounds of staggered 1.5-transfer occupations (51 then 25,
// coalescing) on the three resources, then transfers ready at the start of
// it all, each an EarliestStart and an AcquireAll that ping-pong through
// every period.
func contendedSeed(periods, transfers int) (data []byte) {
	for k := 0; k < periods; k++ {
		for r := 0; r < 3; r++ {
			at := 153*k + 51*r
			data = append(data, encodeFuzzOp(r, 0, selFor(51), at)...)
			data = append(data, encodeFuzzOp(r, 0, selFor(25), at)...)
		}
	}
	for i := 0; i < transfers; i++ {
		data = append(data, encodeFuzzOp(5, 0, selFor(51), 0)...)
		data = append(data, encodeFuzzOp(3, 0, selFor(51), 0)...)
	}
	return data
}

// selFor returns a selector with the top bit set (full offset) that picks
// duration d.
func selFor(d Duration) int {
	for sel := 128; sel < 256; sel++ {
		if fuzzDurations[sel%len(fuzzDurations)] == d {
			return sel
		}
	}
	panic("no selector for duration")
}

// farBehindSeed fills resource 0 past the window so solidUntil has moved,
// then asks every path for time long before it.
func farBehindSeed() (data []byte) {
	for i := 0; i < 80; i++ { // 80 separate intervals: d = 2 every 31
		data = append(data, encodeFuzzOp(0, 31, selFor(2), 0)...)
	}
	for _, code := range []int{0, 5, 3, 1} {
		data = append(data, encodeFuzzOp(code, 0, selFor(25), -2400)...)
	}
	return data
}

// chainSeed plants intervals ahead of the clock on resource 0 and chains
// operations ready before them: the first ones backfill the gap, one no
// longer fits and jumps to the tail, and the rest are folded.
func chainSeed() (data []byte) {
	sel := selFor(25)
	for sel/len(fuzzDurations)%3 != 0 { // the chain's resource
		sel += len(fuzzDurations)
	}
	data = append(data, encodeFuzzOp(0, 10, sel, 0)...)          // [10, 35)
	data = append(data, encodeFuzzOp(0, 0, selFor(200), 140)...) // [150, 350): a gap of 115 before it
	for _, k := range []int{7, 0, 1, 64, 80} {
		data = append(data, encodeFuzzOp(4, 0, sel, k)...)          // k operations, ready k after the clock
		data = append(data, encodeFuzzOp(0, 0, selFor(2), 1500)...) // an island ahead of the tail
	}
	return data
}

// tailSeed drives tail appends of one to four operations over every duration
// and resource, butting or leaving a gap (so the window slides), with an
// acquisition that backfills behind them now and then.
func tailSeed() (data []byte) {
	for i := 0; i < 200; i++ {
		sel := 129 + 2*(i%64) // odd: a tail append; top bit: full offset
		data = append(data, encodeFuzzOp(7, i%2*9, sel, i%4)...)
		if i%7 == 0 {
			data = append(data, encodeFuzzOp(i%3, 0, selFor(25), -300)...)
		}
	}
	return data
}

func FuzzResourceDifferential(f *testing.F) {
	f.Add(contendedSeed(20, 6))
	f.Add(farBehindSeed())
	f.Add(chainSeed())
	f.Add(tailSeed())
	f.Add(append(farBehindSeed(), contendedSeed(8, 3)...))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4; i++ {
		data := make([]byte, 4*400)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		newResourcePair(t).run(decodeFuzzOps(data))
	})
}

// TestResourceHintIndependence checks that the cursor carries nothing the
// timeline depends on: cutting a run anywhere with an encode decoded into
// fresh resources (cursor back at zero, another backing array) and replaying
// the rest gives the results and the timelines of the uninterrupted run.
func TestResourceHintIndependence(t *testing.T) {
	type result struct{ start, end Time }
	replay := func(rs []*Resource, ops []fuzzOp) (out []result) {
		for _, op := range ops {
			var r result
			switch {
			case op.code < 3:
				r.start, r.end = rs[op.code].Acquire(op.ready, op.d)
			case op.code < 6:
				r.start, r.end = AcquireAll(op.ready, op.d, rs...)
			default:
				r.start = EarliestStart(op.ready, op.d, rs...)
			}
			out = append(out, r)
		}
		return out
	}
	fresh := func() []*Resource {
		return []*Resource{NewResource("chipbus"), NewResource("channel"), NewResource("plane")}
	}
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		data := make([]byte, 4*600)
		rng.Read(data)
		ops := decodeFuzzOps(data)
		whole := fresh()
		want := replay(whole, ops)
		for _, cut := range []int{1, 37, 150, 300, 599} {
			head, tail := fresh(), fresh()
			got := replay(head, ops[:cut])
			for i, r := range head {
				reload(t, tail[i], timeline(r))
			}
			got = append(got, replay(tail, ops[cut:])...)
			if !slices.Equal(got, want) {
				t.Fatalf("round %d cut %d: results differ from the uninterrupted run", round, cut)
			}
			for i := range whole {
				if !bytes.Equal(timeline(whole[i]), timeline(tail[i])) {
					t.Fatalf("round %d cut %d: resource %d timeline differs from the uninterrupted run", round, cut, i)
				}
			}
		}
	}
}
