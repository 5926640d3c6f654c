package flash

import (
	"encoding/binary"

	"dloop/internal/ckpt"
	"dloop/internal/sim"
)

// EncodeDeviceState appends a DeviceState to w. The big columns (page
// states, OOB logical tags, block bookkeeping) go out as contiguous
// length-prefixed slabs; the resource timelines follow per unit.
func EncodeDeviceState(w *ckpt.Writer, s *DeviceState) {
	dst := w.Raw(4 + len(s.state))
	binary.LittleEndian.PutUint32(dst, uint32(len(s.state)))
	for i, v := range s.state {
		dst[4+i] = byte(v)
	}
	// The tags go out as the OOB values themselves (-1 for none), not as
	// the tag+1 the device keeps.
	dst = w.Raw(4 + 8*len(s.tags))
	binary.LittleEndian.PutUint32(dst, uint32(len(s.tags)))
	for i, v := range s.tags {
		binary.LittleEndian.PutUint64(dst[4+8*i:], uint64(v-1))
	}
	w.U32(uint32(len(s.blocks)))
	for _, b := range s.blocks {
		w.I32(int32(b.Valid))
		w.I32(int32(b.Invalid))
		w.I32(int32(b.Written))
		w.I32(int32(b.Erases))
		w.I32(int32(b.NextWrite))
	}
	encodeResources(w, s.planes)
	encodeResources(w, s.chipBus)
	encodeResources(w, s.channels)
	encodeStats(w, &s.stats)
}

// DecodeDeviceState reads a DeviceState written by EncodeDeviceState and
// validates the column lengths against geo, so a checkpoint from a
// different device shape fails cleanly instead of half-restoring.
func DecodeDeviceState(r *ckpt.Reader, geo Geometry) *DeviceState {
	s := &DeviceState{}
	raw := r.Raw(r.SliceLen(1))
	s.state = make([]PageState, len(raw))
	for i, v := range raw {
		s.state[i] = PageState(v)
	}
	s.tags = r.I64s()
	for i := range s.tags {
		s.tags[i]++
	}
	s.blocks = make([]BlockInfo, r.SliceLen(20)) // five i32 per block
	for i := range s.blocks {
		b := BlockInfo{
			Valid:     int(r.I32()),
			Invalid:   int(r.I32()),
			Written:   int(r.I32()),
			Erases:    int(r.I32()),
			NextWrite: int(r.I32()),
		}
		// The device updates these counters by deltas and never recounts
		// them, so a row that breaks their invariants would stay broken.
		if b.Valid < 0 || b.Invalid < 0 || b.Erases < 0 || b.Valid+b.Invalid != b.Written ||
			b.Written > b.NextWrite || b.NextWrite > geo.PagesPerBlock {
			r.Failf("flash: block %d bookkeeping %+v is inconsistent", i, b)
			return nil
		}
		s.blocks[i] = b
	}
	s.planes = decodeResources(r)
	s.chipBus = decodeResources(r)
	s.channels = decodeResources(r)
	decodeStats(r, &s.stats)
	if r.Err() != nil {
		return nil
	}
	if int64(len(s.state)) != geo.TotalPages() || int64(len(s.tags)) != geo.TotalPages() ||
		int64(len(s.blocks)) != geo.TotalBlocks() || len(s.planes) != geo.Planes() ||
		len(s.chipBus) != geo.Chips() || len(s.channels) != geo.Channels ||
		len(s.stats.PlaneOps) != geo.Planes() || int64(len(s.stats.BlockErases)) != geo.TotalBlocks() {
		r.Failf("flash: device state does not match geometry %s", geo)
		return nil
	}
	return s
}

func encodeResources(w *ckpt.Writer, rs []sim.ResourceState) {
	w.U32(uint32(len(rs)))
	for _, s := range rs {
		sim.EncodeResourceState(w, s)
	}
}

func decodeResources(r *ckpt.Reader) []sim.ResourceState {
	n := r.SliceLen(28) // an idle resource's encoding: three i64 and a count
	if n == 0 {
		return nil
	}
	out := make([]sim.ResourceState, n)
	for i := range out {
		out[i] = sim.DecodeResourceState(r)
	}
	return out
}

func encodeStats(w *ckpt.Writer, s *Stats) {
	for op := opKind(0); op < numOps; op++ {
		for c := Cause(0); c < numCauses; c++ {
			w.I64(s.ops[op][c])
			w.I64(int64(s.latency[op][c]))
		}
	}
	w.U32(uint32(len(s.PlaneOps)))
	for _, p := range s.PlaneOps {
		for c := Cause(0); c < numCauses; c++ {
			w.I64(p[c])
		}
	}
	w.I32s(s.BlockErases)
	w.I64(s.WastedPages)
}

func decodeStats(r *ckpt.Reader, s *Stats) {
	for op := opKind(0); op < numOps; op++ {
		for c := Cause(0); c < numCauses; c++ {
			s.ops[op][c] = r.I64()
			s.latency[op][c] = sim.Duration(r.I64())
		}
	}
	s.PlaneOps = make([][numCauses]int64, r.SliceLen(8*int(numCauses)))
	for i := range s.PlaneOps {
		for c := Cause(0); c < numCauses; c++ {
			s.PlaneOps[i][c] = r.I64()
		}
	}
	s.BlockErases = r.I32s()
	s.WastedPages = r.I64()
}
