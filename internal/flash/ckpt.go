package flash

import (
	"encoding/binary"

	"dloop/internal/ckpt"
	"dloop/internal/sim"
)

// EncodeState appends the device's mutable state to w. The big columns (page
// states, OOB logical tags, block bookkeeping) go out as contiguous
// length-prefixed slabs; the resource timelines follow per unit, then the
// statistics.
func (d *Device) EncodeState(w *ckpt.Writer) {
	w.U32(uint32(len(d.state)))
	copy(w.Raw(len(d.state)), ckpt.Bytes(d.state))
	// The tags go out as the OOB values themselves (-1 for none), not as
	// the tag+1 the device keeps.
	w.U32(uint32(len(d.tags)))
	dst := w.Raw(8 * len(d.tags))
	var buf [256]uint64
	for i := 0; i < len(d.tags); i += len(buf) {
		chunk := buf[:min(len(buf), len(d.tags)-i)]
		for j, v := range d.tags[i : i+len(chunk)] {
			chunk[j] = uint64(v - 1)
		}
		ckpt.Store(dst[8*i:], chunk)
	}
	dst = w.Raw(4 + 20*len(d.blocks))
	binary.LittleEndian.PutUint32(dst, uint32(len(d.blocks)))
	for i, b := range d.blocks {
		row := dst[4+20*i:]
		binary.LittleEndian.PutUint32(row, uint32(int32(b.Valid)))
		binary.LittleEndian.PutUint32(row[4:], uint32(int32(b.Invalid)))
		binary.LittleEndian.PutUint32(row[8:], uint32(int32(b.Written)))
		binary.LittleEndian.PutUint32(row[12:], uint32(int32(b.Erases)))
		binary.LittleEndian.PutUint32(row[16:], uint32(int32(b.NextWrite)))
	}
	for _, rs := range [][]*sim.Resource{d.planes, d.chipBus, d.channels} {
		w.U32(uint32(len(rs)))
		for _, r := range rs {
			r.EncodeState(w)
		}
	}
	s := &d.stats
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

// DecodeState overwrites the device's mutable state with one EncodeState
// wrote, reusing the live columns. Every column must have the length the
// device's geometry gives it, and every block row must keep the counter
// invariants the device maintains by deltas (it never recounts them, so a
// broken row would stay broken). On any failure r holds the error and the
// device is partly overwritten.
func (d *Device) DecodeState(r *ckpt.Reader) {
	raw := r.Raw(r.ExpectLen(len(d.state), 1))
	if i := firstNonState(raw); i >= 0 {
		r.Failf("flash: page %d holds state %d", i, raw[i])
		return
	}
	copy(ckpt.Bytes(d.state), raw)
	raw = r.Raw(8 * r.ExpectLen(len(d.tags), 8))
	var buf [256]uint64
	for i := 0; i < len(raw)/8; i += len(buf) {
		chunk := buf[:min(len(buf), len(raw)/8-i)]
		ckpt.Load(chunk, raw[8*i:])
		dst := d.tags[i : i+len(chunk)]
		for j, v := range chunk {
			dst[j] = int64(v) + 1
		}
	}
	blocks := d.blocks // a local header: stores through d.blocks would reload it
	raw = r.Raw(20 * r.ExpectLen(len(blocks), 20))
	for i := range blocks[:len(raw)/20] {
		row := raw[20*i : 20*i+20]
		b := BlockInfo{
			Valid:     int(int32(binary.LittleEndian.Uint32(row))),
			Invalid:   int(int32(binary.LittleEndian.Uint32(row[4:]))),
			Written:   int(int32(binary.LittleEndian.Uint32(row[8:]))),
			Erases:    int(int32(binary.LittleEndian.Uint32(row[12:]))),
			NextWrite: int(int32(binary.LittleEndian.Uint32(row[16:]))),
		}
		if b.Valid < 0 || b.Invalid < 0 || b.Erases < 0 || b.Valid+b.Invalid != b.Written ||
			b.Written > b.NextWrite || b.NextWrite > d.geo.PagesPerBlock {
			r.Failf("flash: block %d bookkeeping %+v is inconsistent", i, b)
			return
		}
		blocks[i] = b
	}
	for _, rs := range [][]*sim.Resource{d.planes, d.chipBus, d.channels} {
		r.ExpectLen(len(rs), 28) // an idle resource's encoding: three i64 and a count
		for _, res := range rs {
			if r.Err() != nil {
				return
			}
			res.DecodeState(r)
		}
	}
	s := &d.stats
	for op := opKind(0); op < numOps; op++ {
		for c := Cause(0); c < numCauses; c++ {
			s.ops[op][c] = r.I64()
			s.latency[op][c] = sim.Duration(r.I64())
		}
	}
	r.ExpectLen(len(s.PlaneOps), 8*int(numCauses))
	for i := range s.PlaneOps {
		for c := Cause(0); c < numCauses; c++ {
			s.PlaneOps[i][c] = r.I64()
		}
	}
	r.I32sInto(s.BlockErases)
	s.WastedPages = r.I64()
}

// firstNonState returns the index of the first byte of raw that is no
// PageState, or -1. It checks eight bytes at a time: a byte holds 0, 1 or 2
// when no bit above the lowest two is set, and not both of those.
func firstNonState(raw []byte) int {
	i := 0
	for ; i+8 <= len(raw); i += 8 {
		w := binary.LittleEndian.Uint64(raw[i : i+8])
		if w&0xFCFC_FCFC_FCFC_FCFC != 0 || w&(w>>1)&0x0101_0101_0101_0101 != 0 {
			break
		}
	}
	for ; i < len(raw); i++ {
		if PageState(raw[i]) > PageInvalid {
			return i
		}
	}
	return -1
}
