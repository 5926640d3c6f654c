package gc

import (
	"dloop/internal/ckpt"
	"dloop/internal/obs"
)

// EncodeState appends the engine's run count, its only count, to w. The
// reentrancy guards are not written: they are zero outside a collection, so
// at every checkpoint.
// The tracker is scheme-owned state and is encoded by the scheme.
func (e *Engine) EncodeState(w *ckpt.Writer) {
	w.I64(e.counts[obs.EvGCRun])
}

// DecodeState overwrites the engine's run count with what EncodeState wrote.
func (e *Engine) DecodeState(r *ckpt.Reader) {
	e.counts[obs.EvGCRun] = r.I64()
}
