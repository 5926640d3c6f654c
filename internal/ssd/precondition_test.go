package ssd

import (
	"bytes"
	"testing"

	"dloop/internal/ftl"
	"dloop/internal/sim"
	"dloop/internal/trace"
)

// timedFill is the reference warm-up Precondition replaces: every page of
// [0, pages) written once through its shard's FTL on the timed device, each
// shard chaining its own writes, then the measurement reset. It returns how
// many pages the fill's collections relocated.
func timedFill(t *testing.T, c *Controller, pages ftl.LPN) (moves int64) {
	t.Helper()
	tails := make([]sim.Time, c.FTLShards())
	for lpn := ftl.LPN(0); lpn < pages; lpn++ {
		s, local := c.ShardOfLPN(lpn)
		end, err := c.ShardFTL(s).WritePage(local, tails[s])
		if err != nil {
			t.Fatalf("reference fill lpn %d: %v", lpn, err)
		}
		tails[s] = end
	}
	for i := 0; i < c.FTLShards(); i++ {
		cb, ext := c.ShardDevice(i).Stats().GCMoves()
		moves += cb + ext
	}
	c.ResetMeasurement()
	return moves
}

func checkpointBytes(t *testing.T, c *Controller) []byte {
	t.Helper()
	cp, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.EncodeCheckpoint(cp)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestUntimedPreconditionMatchesTimedFill pins the untimed warm-up to the
// timed one for every scheme and a 2-shard layout. Both controllers fill the
// whole capacity, replay the same random workload, and fill again; the
// second fill overwrites pages whose blocks the workload left partly valid,
// so its collections relocate pages (copy-back runs, external moves, FAST
// merges) untimed. The checkpoint bytes must equal those of the same fills
// made on the timed device.
func TestUntimedPreconditionMatchesTimedFill(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func() Config
	}{
		{"DLOOP", func() Config { return tinyConfig(SchemeDLOOP) }},
		{"DLOOP-learned", func() Config {
			cfg := tinyConfig(SchemeDLOOP)
			cfg.TranslatePolicy = "learned"
			return cfg
		}},
		{"DLOOP-no-copyback", func() Config {
			cfg := tinyConfig(SchemeDLOOP)
			cfg.DisableCopyBack = true
			return cfg
		}},
		{"DFTL", func() Config { return tinyConfig(SchemeDFTL) }},
		{"FAST", func() Config { return tinyConfig(SchemeFAST) }},
		{"PureMap", func() Config { return tinyConfig(SchemePureMap) }},
		{"PureMap-striped", func() Config { return tinyConfig(SchemePureMapStriped) }},
		{"DLOOP-2-shards", func() Config { return mqConfig(SchemeDLOOP, tiny8Geometry(), 2) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, want := buildMQ(t, tc.cfg()), buildMQ(t, tc.cfg())
			pages := got.Capacity()
			if err := got.Precondition(pages); err != nil {
				t.Fatal(err)
			}
			timedFill(t, want, pages)
			for _, c := range []*Controller{got, want} {
				if _, err := c.Run(trace.NewSliceReader(tinyWorkload(t, c, 400, 5))); err != nil {
					t.Fatal(err)
				}
				c.ResetMeasurement()
			}
			if err := got.Precondition(pages); err != nil {
				t.Fatal(err)
			}
			if timedFill(t, want, pages) == 0 {
				t.Fatal("the second fill relocated no page: no collection moved data untimed")
			}
			if !bytes.Equal(checkpointBytes(t, got), checkpointBytes(t, want)) {
				t.Fatal("checkpoint after the untimed Precondition differs from the timed fill's")
			}
		})
	}
}
