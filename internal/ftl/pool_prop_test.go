package ftl

import (
	"bytes"
	"math/rand"
	"testing"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
)

// refPool is FreeBlocks as it was before its never-used blocks became
// implicit: per plane, a ring filled with 0 … BlocksPerPlane-1 at build.
type refPool struct {
	planes []refQueue
}

type refQueue struct {
	buf     []int32
	head, n int
}

func newRefPool(geo flash.Geometry) *refPool {
	r := &refPool{planes: make([]refQueue, geo.Planes())}
	for p := range r.planes {
		buf := make([]int32, geo.BlocksPerPlane)
		for b := range buf {
			buf[b] = int32(b)
		}
		r.planes[p] = refQueue{buf: buf, n: len(buf)}
	}
	return r
}

func (r *refPool) take(plane int) (flash.PlaneBlock, bool) {
	q := &r.planes[plane]
	if q.n == 0 {
		return flash.PlaneBlock{}, false
	}
	b := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return flash.PlaneBlock{Plane: plane, Block: int(b)}, true
}

func (r *refPool) takeAny() (flash.PlaneBlock, bool) {
	for p := range r.planes {
		if pb, ok := r.take(p); ok {
			return pb, true
		}
	}
	return flash.PlaneBlock{}, false
}

func (r *refPool) put(pb flash.PlaneBlock) {
	q := &r.planes[pb.Plane]
	q.buf[(q.head+q.n)%len(q.buf)] = int32(pb.Block)
	q.n++
}

// encode writes the pool in FreeBlocks.EncodeState's format.
func (r *refPool) encode() []byte {
	var w ckpt.Writer
	w.U32(uint32(len(r.planes)))
	for _, q := range r.planes {
		w.U32(uint32(q.n))
		for i := range q.n {
			w.Int(int(q.buf[(q.head+i)%len(q.buf)]))
		}
	}
	return w.Bytes()
}

func poolBytes(f *FreeBlocks) []byte {
	var w ckpt.Writer
	f.EncodeState(&w)
	return w.Bytes()
}

// TestFreeBlocksMatchesFilledQueue drives FreeBlocks and refPool through
// one random sequence of takes (per plane and plane-major) and puts of
// taken blocks on several planes: both must hand out the same blocks and
// agree on every count. Halfway, FreeBlocks is encoded (its bytes must be
// the reference's) and decoded into a fresh pool, which re-encodes to the
// same bytes and carries the rest of the sequence. A fresh pool's bytes
// decode with every block still implicit: nothing enters a ring.
func TestFreeBlocksMatchesFilledQueue(t *testing.T) {
	geo := testGeo()
	dev, err := flash.NewDevice(geo, flash.DefaultTiming())
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Release()
	newPool := func() *FreeBlocks {
		f, err := NewFreeBlocks(geo)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(f.Release)
		return f
	}
	decoded, r := newPool(), ckpt.NewReader(poolBytes(newPool()))
	if decoded.DecodeState(r, dev); r.Err() != nil {
		t.Fatal(r.Err())
	}
	for p, q := range decoded.planes {
		if q.fresh != 0 || q.n != 0 {
			t.Fatalf("plane %d of a decoded fresh pool: fresh from %d, %d in the ring", p, q.fresh, q.n)
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f, ref := newPool(), newRefPool(geo)
		var out []flash.PlaneBlock // taken blocks, put back in random order
		const steps = 600
		for step := range steps {
			if step == steps/2 {
				data := poolBytes(f)
				if want := ref.encode(); !bytes.Equal(data, want) {
					t.Fatalf("seed %d: pool encodes to %x, the reference to %x", seed, data, want)
				}
				r := ckpt.NewReader(data)
				f = newPool()
				if f.DecodeState(r, dev); r.Err() != nil {
					t.Fatalf("seed %d: %v", seed, r.Err())
				}
				if again := poolBytes(f); !bytes.Equal(again, data) {
					t.Fatalf("seed %d: decoded pool re-encodes to %x, want %x", seed, again, data)
				}
			}
			// Puts lag takes at first, so the fresh blocks run out on
			// some planes and recycled ones wrap their rings.
			var got, want flash.PlaneBlock
			var gotOK, wantOK bool
			switch op := rng.Intn(10); {
			case op < 4 && len(out) > 0:
				i := rng.Intn(len(out))
				pb := out[i]
				out[i] = out[len(out)-1]
				out = out[:len(out)-1]
				f.Put(pb)
				ref.put(pb)
				continue
			case op < 8:
				plane := rng.Intn(geo.Planes())
				got, gotOK = f.TakeFromPlane(plane)
				want, wantOK = ref.take(plane)
			default:
				got, gotOK = f.TakeAny()
				want, wantOK = ref.takeAny()
			}
			if got != want || gotOK != wantOK {
				t.Fatalf("seed %d step %d: took %v (%v), the reference %v (%v)", seed, step, got, gotOK, want, wantOK)
			}
			if gotOK {
				out = append(out, got)
			}
			total := 0
			for p := range ref.planes {
				if f.InPlane(p) != ref.planes[p].n {
					t.Fatalf("seed %d step %d: plane %d holds %d, the reference %d", seed, step, p, f.InPlane(p), ref.planes[p].n)
				}
				total += ref.planes[p].n
			}
			if f.Total() != total {
				t.Fatalf("seed %d step %d: total %d, the reference %d", seed, step, f.Total(), total)
			}
		}
	}
}
