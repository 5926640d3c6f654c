package main

import (
	"fmt"

	"dloop/internal/flash"
	"dloop/internal/obs"
	"dloop/internal/sim"
	"dloop/internal/ssd"
	"dloop/internal/stats"
)

// recOp is one recorded flash operation: what the lower rungs replay.
type recOp struct {
	ready sim.Time
	plane int32
	kind  obs.OpKind
	cause obs.Cause
}

// opRecorder is the recording obs.Recorder of the ladder: it keeps every
// flash operation the stack issued, and a checksum of their completion times
// that the replays must reproduce.
type opRecorder struct {
	ops    []recOp
	endSum uint64
}

func (r *opRecorder) RecordOp(op obs.Op) {
	r.ops = append(r.ops, recOp{ready: op.Ready, plane: op.Plane, kind: op.Kind, cause: op.Cause})
	r.endSum += uint64(op.End)
}
func (*opRecorder) RecordEvent(obs.EventKind, sim.Time)                {}
func (*opRecorder) RecordSpan(obs.SpanKind, int32, sim.Time, sim.Time) {}
func (*opRecorder) RecordRequest(bool, sim.Time, sim.Time)             {}

// planeAlloc is the per-plane append allocator of the flash replay:
// blocks are written in ring order, and at most one valid page per in-block
// parity is kept, so a copy-back always finds a same-parity source and reads
// always find a valid page, without wasting a page the recording did not.
type planeAlloc struct {
	wb, wp int          // write point: block and page within it
	eb     int          // oldest written block not yet erased
	valid  [2]flash.PPN // the valid page of each parity
}

// flashReplayer is rung 4: the recorded op stream replayed on a bare
// flash.Device, with the recorded plane and ready time of every op.
type flashReplayer struct {
	dev    *flash.Device
	geo    flash.Geometry
	ring   int // blocks per plane the allocator cycles through
	planes []planeAlloc
	endSum uint64 // checksum of completion times
}

func newFlashReplayer(geo flash.Geometry, timing flash.Timing) (*flashReplayer, error) {
	// One block more per plane than the recorded device: it hosts the seed
	// pages, so the ring has every block the recording could fill.
	f := &flashReplayer{ring: geo.BlocksPerPlane}
	geo.BlocksPerPlane++
	dev, err := flash.NewDevice(geo, timing)
	if err != nil {
		return nil, err
	}
	f.dev, f.geo, f.planes = dev, geo, make([]planeAlloc, geo.Planes())
	for p := range f.planes {
		// Seed one valid page of each parity so the first read or copy-back
		// of a plane has a source.
		for k := 0; k < 2; k++ {
			ppn := geo.PPNOf(p, f.ring, k)
			if _, err := dev.WritePage(ppn, 0, 0, flash.CauseHost); err != nil {
				return nil, err
			}
			f.planes[p].valid[k] = ppn
		}
	}
	dev.ResetStats()
	return f, nil
}

// next is plane p's next free page in ring order, and its in-block parity.
func (f *flashReplayer) next(p int) (flash.PPN, int) {
	a := &f.planes[p]
	if a.wp == f.geo.PagesPerBlock {
		a.wb = (a.wb + 1) % f.ring
		a.wp = 0
	}
	ppn := f.geo.PPNOf(p, a.wb, a.wp)
	a.wp++
	return ppn, (a.wp - 1) % 2
}

func (f *flashReplayer) run(ops []recOp) error {
	dev := f.dev
	for i := range ops {
		op := &ops[i]
		p := int(op.plane)
		a := &f.planes[p]
		cause := flash.Cause(op.cause)
		var end sim.Time
		var err error
		switch op.kind {
		case obs.OpRead:
			end, err = dev.ReadPage(a.valid[0], op.ready, cause)
		case obs.OpWrite:
			ppn, par := f.next(p)
			if end, err = dev.WritePage(ppn, 0, op.ready, cause); err == nil {
				err = dev.Invalidate(a.valid[par])
				a.valid[par] = ppn
			}
		case obs.OpCopyBack:
			ppn, par := f.next(p)
			end, err = dev.CopyBack(a.valid[par], ppn, op.ready, cause)
			a.valid[par] = ppn
		case obs.OpErase:
			// Recycle the oldest written block; while the ring has none
			// that is free of valid pages, erase the free block ahead of
			// the write point instead (same cost, no state lost).
			b := (a.wb + 1) % f.ring
			if a.eb != a.wb && dev.Block(flash.PlaneBlock{Plane: p, Block: a.eb}).Valid == 0 {
				b = a.eb
				a.eb = (a.eb + 1) % f.ring
			}
			end, err = dev.Erase(flash.PlaneBlock{Plane: p, Block: b}, op.ready, cause)
		}
		if err != nil {
			return fmt.Errorf("flash replay (%v on plane %d): %w", op.kind, p, err)
		}
		f.endSum += uint64(end)
	}
	return nil
}

// checkReplayCounts asserts the replay device saw exactly the recorded
// operations: totals per kind and cause, and counts per plane and cause.
func checkReplayCounts(dev *flash.Device, ops []recOp) error {
	var byKind [obs.NumOpKinds][obs.NumCauses]int64
	byPlane := make([][obs.NumCauses]int64, dev.Geometry().Planes())
	for i := range ops {
		byKind[ops[i].kind][ops[i].cause]++
		byPlane[ops[i].plane][ops[i].cause]++
	}
	st := dev.Stats()
	for c := obs.Cause(0); c < obs.NumCauses; c++ {
		r, w, cb, e := st.ByCause(flash.Cause(c))
		got := [obs.NumOpKinds]int64{obs.OpRead: r, obs.OpWrite: w, obs.OpCopyBack: cb, obs.OpErase: e}
		for k := obs.OpKind(0); k < obs.NumOpKinds; k++ {
			if got[k] != byKind[k][c] {
				return fmt.Errorf("flash replay: %d %v/%v ops, recording has %d", got[k], k, c, byKind[k][c])
			}
		}
		for p, n := range st.PlaneTotalsByCause(flash.Cause(c)) {
			if n != byPlane[p][c] {
				return fmt.Errorf("flash replay: plane %d has %d %v ops, recording has %d", p, n, c, byPlane[p][c])
			}
		}
	}
	return nil
}

// timelineReplayer is rung 5: only the resource-timeline arithmetic of the
// recorded ops on bare sim.Resources, the same Acquire / AcquireAll calls
// flash.Device makes with nothing of the device around them.
type timelineReplayer struct {
	planes, chipOf, chanOf []*sim.Resource // all indexed by plane
	t                      flash.Timing
	xfer                   sim.Duration
	endSum                 uint64
}

func newTimelineReplayer(geo flash.Geometry, t flash.Timing) *timelineReplayer {
	mk := func(n int, prefix string) []*sim.Resource {
		rs := make([]*sim.Resource, n)
		for i := range rs {
			rs[i] = sim.NewResource(fmt.Sprintf("%s%d", prefix, i))
		}
		return rs
	}
	chips, chans := mk(geo.Chips(), "chipbus"), mk(geo.Channels, "channel")
	r := &timelineReplayer{planes: mk(geo.Planes(), "plane"), t: t, xfer: t.Transfer(geo.PageSize),
		chipOf: make([]*sim.Resource, geo.Planes()), chanOf: make([]*sim.Resource, geo.Planes())}
	for p := range r.planes {
		r.chipOf[p] = chips[geo.ChipOfPlane(p)]
		r.chanOf[p] = chans[geo.ChannelOfPlane(p)]
	}
	return r
}

func (r *timelineReplayer) run(ops []recOp) {
	t := r.t
	for i := range ops {
		op := &ops[i]
		pl := r.planes[op.plane]
		var end sim.Time
		switch op.kind {
		case obs.OpRead:
			_, cell := pl.Acquire(op.ready, t.PageRead)
			_, end = sim.AcquireAll(cell, r.xfer, r.chipOf[op.plane], r.chanOf[op.plane], pl)
		case obs.OpWrite:
			_, in := sim.AcquireAll(op.ready, r.xfer, r.chipOf[op.plane], r.chanOf[op.plane], pl)
			_, end = pl.Acquire(in, t.PageProgram)
		case obs.OpCopyBack:
			_, end = pl.Acquire(op.ready, t.CopyBack())
		case obs.OpErase:
			_, end = pl.Acquire(op.ready, t.BlockErase)
		}
		r.endSum += uint64(end)
	}
}

// statsRefolder is rung 6: the recorded latency stream folded into the
// accumulators the controller keeps per request.
type statsRefolder struct {
	resp, readResp, writeResp stats.Welford
	hist                      stats.LatencyHist
}

func (s *statsRefolder) run(lats []sim.Duration, reqs []pageReq) {
	for i, d := range lats {
		ms := d.Milliseconds()
		s.resp.Add(ms)
		if reqs[i].read {
			s.readResp.Add(ms)
		} else {
			s.writeResp.Add(ms)
		}
		s.hist.Add(d)
	}
}

// check asserts the refold reproduces the run's mean and p99.
func (s *statsRefolder) check(res ssd.Result) error {
	if mean, p99 := s.resp.Mean(), s.hist.Quantile(0.99).Milliseconds(); mean != res.MeanRespMs || p99 != res.P99Ms {
		return fmt.Errorf("stats refold: mean %v p99 %v, run had %v and %v", mean, p99, res.MeanRespMs, res.P99Ms)
	}
	return nil
}
