package ssd

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/sim"
	"dloop/internal/stats"
)

// Checkpoint is a controller's complete simulation state — every FTL shard's
// flash device and FTL, and the measurement accumulators — held as its
// encoded bytes: a versioned, self-validating container (see internal/ckpt)
// that starts with the scheme name, the controller's ConfigDigest, the device
// geometry and the shard layout. One checkpoint taken after a shared warm-up
// can fork any number of divergent runs, each bit-identical to an
// uninterrupted fresh run of the same cell, in this process or, written to a
// file, in any later one. A checkpoint is immutable: nothing writes its bytes
// after it is made, so any number of goroutines restore from it at once.
//
// The attached observability recorder is deliberately NOT part of the
// checkpoint: recorders are per-cell plumbing, attached after a restore and
// detached before the next one.
type Checkpoint struct {
	data []byte // a sealed container
}

// Snapshot encodes the controller's state, after folding any in-flight work.
func (c *Controller) Snapshot() (*Checkpoint, error) {
	if c.broken != nil {
		return nil, c.broken
	}
	if err := c.quiesce(false); err != nil {
		return nil, err
	}
	d := ConfigDigest(c.cfg)
	size, _ := snapshotSizes.Load(d)
	n, _ := size.(int)
	w := ckpt.NewWriterSize(n + n/64) // room for a few more timeline intervals
	w.String(c.cfg.FTL)
	copy(w.Raw(len(d)), d[:])
	encodeGeometry(w, c.geo)
	// The layout tag: one FTL or several shards. The shard count itself
	// follows from the digest and the geometry.
	w.Bool(len(c.shards) > 1)
	for _, sh := range c.shards {
		sh.dev.EncodeState(w)
		sh.f.EncodeState(w)
	}
	stats.EncodeWelford(w, c.resp)
	stats.EncodeWelford(w, c.readResp)
	stats.EncodeWelford(w, c.writeResp)
	stats.EncodeLatencyHist(w, c.hist)
	stats.EncodeTimeSeries(w, c.series)
	w.I64(int64(c.lastDone))
	w.I64(c.pagesRead)
	w.I64(c.pagesWrit)
	data := w.Seal()
	if cap(data) > len(data)+len(data)/32 { // grown by appends: trim the slack
		data = bytes.Clone(data)
	}
	snapshotSizes.Store(d, len(data))
	return &Checkpoint{data: data}, nil
}

// snapshotSizes holds the length of each configuration's last checkpoint,
// by ConfigDigest, so that Snapshot sizes its buffer once instead of growing
// it by appends: a sweep checkpoints a freshly built controller per group.
var snapshotSizes sync.Map

// Restore rewinds the controller to a checkpoint taken from an identically
// configured one, decoding its bytes straight into the live devices, FTLs and
// accumulators. The checkpoint is untouched, so the same checkpoint may seed
// any number of forks.
//
// Restore fails on a checkpoint that does not match this controller or whose
// body does not decode. A body can fail halfway through, leaving the state
// partly overwritten, so after any failure EnqueueBatch, Serve, Run,
// Precondition, Snapshot and Recover return the error too (and Result is
// empty) until a later Restore succeeds. A Restore that succeeds also clears
// the error a shard worker latched in the run it abandons.
func (c *Controller) Restore(cp *Checkpoint) error {
	// In-flight work belongs to the run being abandoned, and so does an
	// error a shard worker latched in it: a successful restore replaces the
	// state that failed, so it clears the error while the workers are parked
	// behind the barrier. After a failed restore, broken refuses every run.
	_ = c.quiesce(true)
	c.broken = c.restore(cp)
	if c.broken == nil && c.fe != nil {
		c.fe.clearErr()
	}
	return c.broken
}

func (c *Controller) restore(cp *Checkpoint) error {
	if cp == nil {
		return errors.New("ssd: restore from a nil checkpoint")
	}
	r := ckpt.Reopen(cp.data)
	if err := c.checkPreamble(r); err != nil {
		return err
	}
	for _, sh := range c.shards {
		sh.dev.DecodeState(r)
		sh.f.DecodeState(r)
		if err := r.Err(); err != nil {
			return err
		}
	}
	c.resp = stats.DecodeWelford(r)
	c.readResp = stats.DecodeWelford(r)
	c.writeResp = stats.DecodeWelford(r)
	c.hist = stats.DecodeLatencyHist(r)
	c.series = stats.DecodeTimeSeries(r)
	c.lastDone = sim.Time(r.I64())
	c.pagesRead = r.I64()
	c.pagesWrit = r.I64()
	return r.Err()
}

// Err reports why the controller refuses to run: the error of a failed
// Restore, until a later one succeeds, or nil.
func (c *Controller) Err() error { return c.broken }

// EncodeCheckpoint returns a copy of a checkpoint's bytes, the form the
// warm-up cache in internal/expt stores; DecodeCheckpoint reads it back.
func (c *Controller) EncodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	if cp == nil {
		return nil, errors.New("ssd: encode a nil checkpoint")
	}
	return bytes.Clone(cp.data), nil
}

// WriteTo writes the checkpoint's bytes to w.
func (cp *Checkpoint) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(cp.data)
	return int64(n), err
}

// DecodeCheckpoint accepts bytes EncodeCheckpoint produced on an identically
// configured controller. It validates the container (magic, version,
// checksum), the FTL scheme, the ConfigDigest, the geometry and the shard
// layout, so a checkpoint from any other configuration fails here; the body
// is decoded, and any error in it surfaces, at Restore. The result copies
// data, so the caller may recycle the buffer immediately.
func (c *Controller) DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	r, err := ckpt.Open(data)
	if err != nil {
		return nil, err
	}
	if err := c.checkPreamble(r); err != nil {
		return nil, err
	}
	return &Checkpoint{data: bytes.Clone(data)}, nil
}

// checkPreamble reads the fields a checkpoint opens with and checks them
// against this controller.
func (c *Controller) checkPreamble(r *ckpt.Reader) error {
	scheme := r.String()
	var d [sha256.Size]byte
	copy(d[:], r.Raw(sha256.Size))
	geo := decodeGeometry(r)
	sharded := r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if scheme != c.cfg.FTL {
		return fmt.Errorf("ssd: checkpoint holds %s state, controller runs %s", scheme, c.cfg.FTL)
	}
	if d != ConfigDigest(c.cfg) {
		return fmt.Errorf("ssd: checkpoint was taken under a different configuration")
	}
	if geo != c.geo {
		return fmt.Errorf("ssd: checkpoint geometry %v does not match device %v", geo, c.geo)
	}
	if sharded != (len(c.shards) > 1) {
		return fmt.Errorf("ssd: checkpoint shard layout does not match controller")
	}
	return nil
}

func encodeGeometry(w *ckpt.Writer, g flash.Geometry) {
	w.Int(g.Channels)
	w.Int(g.PackagesPerChannel)
	w.Int(g.ChipsPerPackage)
	w.Int(g.DiesPerChip)
	w.Int(g.PlanesPerDie)
	w.Int(g.BlocksPerPlane)
	w.Int(g.PagesPerBlock)
	w.Int(g.PageSize)
}

func decodeGeometry(r *ckpt.Reader) flash.Geometry {
	return flash.Geometry{
		Channels:           r.Int(),
		PackagesPerChannel: r.Int(),
		ChipsPerPackage:    r.Int(),
		DiesPerChip:        r.Int(),
		PlanesPerDie:       r.Int(),
		BlocksPerPlane:     r.Int(),
		PagesPerBlock:      r.Int(),
		PageSize:           r.Int(),
	}
}
