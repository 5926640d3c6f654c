package ssd

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"dloop/internal/ckpt"
	"dloop/internal/flash"
	"dloop/internal/ftl/fast"
	"dloop/internal/ftl/pagemap"
	"dloop/internal/sim"
	"dloop/internal/stats"
)

// This file is the on-disk form of Checkpoint: a versioned binary container
// (see internal/ckpt) holding the scheme name, the controller's ConfigDigest,
// the device geometry, and every state slab Snapshot captures. The encoded
// form round-trips bit-identically — a run forked from DecodeCheckpoint's
// result is exactly the run forked from the original in-memory checkpoint —
// which is what lets the warm-up cache in internal/expt substitute a file
// read for minutes of preconditioning.

// ErrBufferedCheckpoint rejects a checkpoint taken with the DRAM write
// buffer enabled. The simulator no longer models the buffer; the encoding
// keeps its presence byte, which is always false, so every other checkpoint
// keeps its length.
var ErrBufferedCheckpoint = errors.New("ssd: checkpoint holds DRAM write-buffer state, which is no longer modelled")

// EncodeCheckpoint serializes a checkpoint taken from this controller into
// a self-validating container. The convenience form of AppendCheckpoint.
func (c *Controller) EncodeCheckpoint(cp *Checkpoint) ([]byte, error) {
	w := ckpt.NewWriter()
	defer ckpt.PutWriter(w)
	data, err := c.AppendCheckpoint(w, cp)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), data...), nil
}

// AppendCheckpoint encodes cp into w (which must come from ckpt.NewWriter)
// and seals the container. The returned bytes alias w: write them out before
// recycling the writer. Callers that persist many checkpoints use this form
// to reuse one writer buffer.
func (c *Controller) AppendCheckpoint(w *ckpt.Writer, cp *Checkpoint) ([]byte, error) {
	scheme := c.cfg.FTL
	w.String(scheme)
	d := ConfigDigest(c.cfg)
	copy(w.Raw(len(d)), d[:])
	encodeGeometry(w, c.geo)
	// The layout tag: one FTL or several shards. The shard count itself
	// follows from the digest and the geometry.
	w.Bool(len(cp.shards) > 1)
	for _, st := range cp.shards {
		flash.EncodeDeviceState(w, st.dev)
		if err := encodeFTLState(w, scheme, st.ftl); err != nil {
			return nil, err
		}
	}
	stats.EncodeWelford(w, cp.resp)
	stats.EncodeWelford(w, cp.readResp)
	stats.EncodeWelford(w, cp.writeResp)
	stats.EncodeLatencyHist(w, cp.hist)
	stats.EncodeTimeSeries(w, cp.series)
	w.Bool(false) // the retired DRAM write buffer (see ErrBufferedCheckpoint)
	w.I64(int64(cp.lastDone))
	w.I64(cp.served)
	w.I64(cp.pagesRead)
	w.I64(cp.pagesWrit)
	return w.Seal(), nil
}

// DecodeCheckpoint deserializes a container produced by EncodeCheckpoint on
// an identically configured controller. It validates the container (magic,
// version, checksum), the FTL scheme, the ConfigDigest, the geometry, and
// the shard layout, so feeding it a checkpoint from any other configuration
// fails with an error instead of corrupting state. The result shares
// nothing with data; the caller may recycle the buffer immediately.
func (c *Controller) DecodeCheckpoint(data []byte) (*Checkpoint, error) {
	r, err := ckpt.Open(data)
	if err != nil {
		return nil, err
	}
	scheme := r.String()
	var d [sha256.Size]byte
	copy(d[:], r.Raw(sha256.Size))
	geo := decodeGeometry(r)
	if err := r.Err(); err != nil {
		return nil, err
	}
	if scheme != c.cfg.FTL {
		return nil, fmt.Errorf("ssd: checkpoint holds %s state, controller runs %s", scheme, c.cfg.FTL)
	}
	if d != ConfigDigest(c.cfg) {
		return nil, fmt.Errorf("ssd: checkpoint was taken under a different configuration")
	}
	if geo != c.geo {
		return nil, fmt.Errorf("ssd: checkpoint geometry %v does not match device %v", geo, c.geo)
	}
	if sharded := r.Bool(); sharded != (len(c.shards) > 1) {
		return nil, fmt.Errorf("ssd: checkpoint shard layout does not match controller")
	}
	cp := &Checkpoint{shards: make([]shardState, len(c.shards))}
	for i, sh := range c.shards {
		cp.shards[i] = shardState{dev: flash.DecodeDeviceState(r, sh.dev.Geometry()), ftl: decodeFTLState(r, scheme)}
	}
	cp.resp = stats.DecodeWelford(r)
	cp.readResp = stats.DecodeWelford(r)
	cp.writeResp = stats.DecodeWelford(r)
	cp.hist = stats.DecodeLatencyHist(r)
	cp.series = stats.DecodeTimeSeries(r)
	if r.Bool() {
		return nil, ErrBufferedCheckpoint
	}
	cp.lastDone = sim.Time(r.I64())
	cp.served = r.I64()
	cp.pagesRead = r.I64()
	cp.pagesWrit = r.I64()
	if err := r.Err(); err != nil {
		return nil, err
	}
	return cp, nil
}

// encodeFTLState dispatches on the scheme name exactly as Build does, so
// every scheme a controller can run has a codec here.
func encodeFTLState(w *ckpt.Writer, scheme string, st any) error {
	switch scheme {
	case SchemeDLOOP, SchemeDFTL, SchemePureMap, SchemePureMapStriped:
		return pagemap.EncodeState(w, st)
	case SchemeFAST:
		return fast.EncodeState(w, st)
	}
	return fmt.Errorf("ssd: no checkpoint codec for FTL %q", scheme)
}

func decodeFTLState(r *ckpt.Reader, scheme string) any {
	switch scheme {
	case SchemeDLOOP, SchemeDFTL, SchemePureMap, SchemePureMapStriped:
		l, _ := pagemap.Preset(scheme)
		return pagemap.DecodeState(r, l)
	case SchemeFAST:
		return fast.DecodeState(r)
	}
	r.Failf("ssd: no checkpoint codec for FTL %q", scheme)
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
