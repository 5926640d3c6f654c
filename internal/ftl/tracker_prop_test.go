package ftl

import (
	"math/rand"
	"testing"

	"dloop/internal/flash"
)

// TestTrackerModelProperty drives the tracker with random legal operations
// and cross-checks every answer against a naive model.
func TestTrackerModelProperty(t *testing.T) {
	geo := testGeo()
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		dev, tr := newTrackedDevice(t, geo)
		type state struct {
			invalid   int
			candidate bool
		}
		model := make(map[flash.PlaneBlock]*state)
		for p := 0; p < geo.Planes(); p++ {
			for b := 0; b < geo.BlocksPerPlane; b++ {
				model[flash.PlaneBlock{Plane: p, Block: b}] = &state{}
			}
		}
		blocks := make([]flash.PlaneBlock, 0, len(model))
		for pb := range model {
			blocks = append(blocks, pb)
		}
		for step := 0; step < 3000; step++ {
			pb := blocks[rng.Intn(len(blocks))]
			st := model[pb]
			switch rng.Intn(5) {
			case 0:
				if st.invalid < geo.PagesPerBlock {
					invalidate(t, dev, tr, pb)
					st.invalid++
				}
			case 1:
				if !st.candidate {
					tr.Close(pb)
					st.candidate = true
				}
			case 2:
				if st.candidate {
					tr.Take(pb)
					st.candidate = false
				}
			case 3:
				if !st.candidate {
					recycle(t, dev, tr, pb)
					st.invalid = 0
				}
			case 4:
				plane := pb.Plane
				got, gotInv, ok := tr.MaxInPlane(plane)
				wantInv := 0
				for b := 0; b < geo.BlocksPerPlane; b++ {
					s := model[flash.PlaneBlock{Plane: plane, Block: b}]
					if s.candidate && s.invalid > wantInv {
						wantInv = s.invalid
					}
				}
				if (wantInv > 0) != ok {
					t.Fatalf("seed %d step %d: MaxInPlane ok=%v want %v", seed, step, ok, wantInv > 0)
				}
				if ok {
					if gotInv != wantInv {
						t.Fatalf("seed %d step %d: MaxInPlane inv=%d want %d", seed, step, gotInv, wantInv)
					}
					if s := model[got]; !s.candidate || s.invalid != wantInv {
						t.Fatalf("seed %d step %d: MaxInPlane returned %v (cand=%v inv=%d), want inv=%d",
							seed, step, got, s.candidate, s.invalid, wantInv)
					}
					if n := dev.Block(got).Invalid; n != wantInv {
						t.Fatalf("seed %d step %d: device holds %d invalid pages in %v, model %d",
							seed, step, n, got, wantInv)
					}
				}
			}
		}
	}
}
