package ssd

import (
	"fmt"

	"dloop/internal/flash"
	"dloop/internal/ftl"
	"dloop/internal/sim"
	"dloop/internal/stats"
)

// Checkpoint is a deep, immutable copy of a controller's complete simulation
// state: flash device(s), FTL(s), write buffer, and measurement
// accumulators. One checkpoint taken after a shared warm-up can fork any
// number of divergent runs, each bit-identical to an uninterrupted fresh run
// of the same cell. On a front-end controller the checkpoint holds one
// device/FTL state pair per FTL shard.
//
// The attached observability recorder is deliberately NOT part of the
// checkpoint: recorders are per-cell plumbing, attached after a restore and
// detached before the next one.
type Checkpoint struct {
	dev      *flash.DeviceState
	ftlState any
	fe       *feCheckpoint // per-shard states on a front-end controller

	resp, readResp, writeResp stats.Welford
	hist                      stats.LatencyHist
	series                    *stats.TimeSeries
	buffer                    *bufferState
	lastDone                  sim.Time
	served                    int64
	pagesRead                 int64
	pagesWrit                 int64
}

// Snapshot captures the controller's state. It fails if the FTL scheme does
// not implement ftl.Snapshotter (all in-tree schemes do).
func (c *Controller) Snapshot() (*Checkpoint, error) {
	cp := &Checkpoint{}
	if c.fe != nil {
		fcp, err := c.fe.snapshot(c) // barriers and folds first
		if err != nil {
			return nil, err
		}
		cp.fe = fcp
	} else {
		snapper, ok := c.f.(ftl.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("ssd: FTL %s does not support checkpointing", c.f.Name())
		}
		cp.dev = c.dev.Snapshot()
		cp.ftlState = snapper.Snapshot()
	}
	cp.resp = c.resp
	cp.readResp = c.readResp
	cp.writeResp = c.writeResp
	cp.hist = c.hist.Clone()
	cp.series = c.series.Clone()
	cp.lastDone = c.lastDone
	cp.served = c.served
	cp.pagesRead = c.pagesRead
	cp.pagesWrit = c.pagesWrit
	if c.buffer != nil {
		cp.buffer = c.buffer.snapshot()
	}
	return cp, nil
}

// Restore rewinds the controller to a checkpoint it produced earlier. The
// checkpoint is untouched — Restore clones anything mutable on its way in —
// so the same checkpoint may seed any number of forks.
func (c *Controller) Restore(cp *Checkpoint) error {
	if c.fe != nil {
		if err := c.fe.restore(c, cp.fe); err != nil {
			return err
		}
	} else {
		snapper, ok := c.f.(ftl.Snapshotter)
		if !ok {
			return fmt.Errorf("ssd: FTL %s does not support checkpointing", c.f.Name())
		}
		if err := snapper.Restore(cp.ftlState); err != nil {
			return err
		}
		c.dev.Restore(cp.dev)
	}
	c.resp = cp.resp
	c.readResp = cp.readResp
	c.writeResp = cp.writeResp
	c.hist = cp.hist.Clone()
	c.series = cp.series.Clone()
	if c.buffer != nil && cp.buffer != nil {
		c.buffer.restore(cp.buffer)
	}
	c.lastDone = cp.lastDone
	c.served = cp.served
	c.pagesRead = cp.pagesRead
	c.pagesWrit = cp.pagesWrit
	return nil
}
